//! The per-node iCPDA state machine.
//!
//! One [`IcpdaNode`] runs on every deployed node (the base station
//! included) and drives the three phases of the protocol:
//!
//! 1. **Query flood & cluster formation** — the base station floods the
//!    query; nodes self-elect as cluster heads, neighbours join, heads
//!    broadcast rosters.
//! 2. **Privacy-preserving intra-cluster aggregation** — members exchange
//!    encrypted blinded shares, broadcast assembled sums, and every
//!    member recovers the cluster aggregate (transparent aggregation).
//! 3. **Integrity-protected upstream aggregation** — cluster aggregates
//!    travel up the flood tree in depth-scheduled slots; every transmission
//!    carries merge references; members and neighbours audit overheard
//!    reports and raise alarms on mismatch; the base station rejects the
//!    round if any alarm arrives.

use crate::adversary::{Behavior, CollusionView};
use crate::cluster::Roster;
use crate::config::{
    IcpdaConfig, IntegrityMode, PrivacyMode, CLUSTER_STAGGER, ELECT_AFTER, FLOOD_RELAY_JITTER,
    FSUM_AFTER, FSUM_REPAIR_AFTER, JOIN_AFTER, MAX_CLUSTER_SIZE, MIN_CLUSTER_SIZE, NACK_JITTER,
    PARENT_CHECK_SLACK, REJOIN_AFTER, REPAIR2_OFFSET, REPAIR_AFTER, RESIGN_AFTER, ROSTER_AFTER,
    ROSTER_REPEAT_AFTER, ROSTER_REPEAT_JITTER, SHARES_AFTER, SOLVE_AFTER, UPSTREAM_REPEAT_AFTER,
    UPSTREAM_REPEAT_JITTER,
};
use crate::monitor::{CachedAggregate, CheckOutcome, MonitorCache, ViolationKind};
use crate::msg::{IcpdaMsg, InputClaim, MergedRef};
use crate::reliability::RetryState;
use crate::shares::{
    assemble, generate_shares, generate_shares_t, recover_sum_at, share_from_bytes, share_to_bytes,
    ShareVector,
};
use agg::field::{random_fp, Fp};
use rand::Rng;
// Node state uses ordered collections throughout: iteration order
// feeds assemblies, plain-mode sums, and (in future changes) message
// emission, and DESIGN §6 requires "same seed ⇒ identical trace" —
// BTree maps make the order a property of the data, not the hasher.
use std::collections::{BTreeMap, BTreeSet};
use wsn_crypto::{open, seal, KeyManager, PairwiseKeys};
use wsn_sim::prelude::*;

const TIMER_ELECT: TimerToken = 1;
const TIMER_JOIN: TimerToken = 2;
const TIMER_ROSTER: TimerToken = 3;
const TIMER_SHARES: TimerToken = 4;
const TIMER_REPAIR: TimerToken = 5;
const TIMER_FSUM: TimerToken = 6;
const TIMER_SOLVE: TimerToken = 7;
const TIMER_UPSTREAM: TimerToken = 8;
const TIMER_DECISION: TimerToken = 9;
const TIMER_FSUM_REPAIR: TimerToken = 10;
const TIMER_ROSTER_REPEAT: TimerToken = 11;
const TIMER_RESIGN: TimerToken = 12;
const TIMER_REJOIN: TimerToken = 13;
const TIMER_FLOOD_RELAY: TimerToken = 14;
const TIMER_REPAIR2: TimerToken = 15;
const TIMER_UPSTREAM_REPEAT: TimerToken = 16;
const TIMER_SHARE_DRAIN: TimerToken = 17;
const TIMER_HEAD_CHECK: TimerToken = 18;
const TIMER_PARENT_CHECK: TimerToken = 19;
const TIMER_BEACON: TimerToken = 20;
const TIMER_ANNOUNCE_REPEAT: TimerToken = 21;
const TIMER_JOIN_REPEAT: TimerToken = 22;
const TIMER_SHARES_REPEAT: TimerToken = 23;
const TIMER_FSUM_REPEAT: TimerToken = 24;

/// The blind repeats (see [`crate::reliability`]): messages whose loss
/// nothing else repairs, so the sender re-sends each on its retry budget
/// until the budget runs out or the repeat's guard no longer holds.
/// Receivers are idempotent to every one of them.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Repeat {
    /// A lost roster kills the whole cluster.
    Roster,
    /// A single collision at the parent would silently drop a whole
    /// subtree; receivers deduplicate on `(sender, msg_id)`.
    Upstream,
    /// A lost announce means nearby members never consider the cluster.
    Announce,
    /// A lost join silently shrinks the roster, which no later repair
    /// round can undo. The roster doubles as its acknowledgement.
    Join,
    /// Share unicasts have no broadcast redundancy, and the NACK repair
    /// rounds ride the same lossy channel; every outgoing share is
    /// re-queued through the drain spacing.
    Shares,
    /// A lost assembly broadcast costs the cluster a solve input.
    Fsum,
}

impl Repeat {
    /// One retry budget per kind.
    const COUNT: usize = Repeat::Fsum as usize + 1;

    fn token(self) -> TimerToken {
        match self {
            Repeat::Roster => TIMER_ROSTER_REPEAT,
            Repeat::Upstream => TIMER_UPSTREAM_REPEAT,
            Repeat::Announce => TIMER_ANNOUNCE_REPEAT,
            Repeat::Join => TIMER_JOIN_REPEAT,
            Repeat::Shares => TIMER_SHARES_REPEAT,
            Repeat::Fsum => TIMER_FSUM_REPEAT,
        }
    }

    /// The `(base, jitter)` of each retry delay.
    fn timing(self) -> (SimDuration, SimDuration) {
        match self {
            Repeat::Roster => (ROSTER_REPEAT_AFTER, ROSTER_REPEAT_JITTER),
            // A sixth of the share→repair gap, so the whole budget still
            // lands around the NACK repair rounds, before assembly.
            Repeat::Shares => ((REPAIR_AFTER - SHARES_AFTER) / 6, NACK_JITTER),
            _ => (UPSTREAM_REPEAT_AFTER, UPSTREAM_REPEAT_JITTER),
        }
    }

    /// Whether the repeat runs only under `cluster_arq`; the roster and
    /// upstream repeats run on every budget.
    fn needs_cluster_arq(self) -> bool {
        !matches!(self, Repeat::Roster | Repeat::Upstream)
    }
}

// Protocol-phase span names (see DESIGN §12). Spans are recorded per
// node at `ObsLevel::Full` and bracket the protocol's observable
// phases; with observability off every hook is a single branch.
const PHASE_QUERY_FLOOD: &str = "phase.query_flood";
const PHASE_CLUSTER_FORMATION: &str = "phase.cluster_formation";
const PHASE_SHARE_EXCHANGE: &str = "phase.share_exchange";
const PHASE_AGGREGATION: &str = "phase.aggregation";
const PHASE_ASCENT_VERIFY: &str = "phase.ascent_verify";
const PHASE_CRASH_RECOVERY: &str = "phase.crash_recovery";

/// Opens the protocol-phase span `name` for this node. Re-opening an
/// already-open span is a no-op (first start wins), so repeat paths and
/// multi-round timers need no extra state here.
fn obs_phase_start(ctx: &mut Context<'_, IcpdaMsg>, name: &'static str) {
    if ctx.obs().enabled() {
        let snap = ctx.obs_snapshot();
        let node = ctx.id().as_u32();
        let now = ctx.now().as_nanos();
        ctx.obs().span_start(name, node, now, snap);
    }
}

/// Closes the protocol-phase span `name` for this node (no-op when the
/// span is not open, so shared exit paths may close unconditionally).
fn obs_phase_end(ctx: &mut Context<'_, IcpdaMsg>, name: &'static str) {
    if ctx.obs().enabled() {
        let snap = ctx.obs_snapshot();
        let node = ctx.id().as_u32();
        let now = ctx.now().as_nanos();
        ctx.obs().span_end(name, node, now, snap);
    }
}

/// A node's role after cluster formation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Role {
    /// Not yet decided (query not heard or election pending).
    #[default]
    Undecided,
    /// Self-elected cluster head.
    Head,
    /// Member of the cluster headed by the given node.
    Member(NodeId),
    /// Heard the query but found no head to join (or its join was lost):
    /// does not contribute a reading.
    Orphan,
}

/// The base station's end-of-round decision.
#[derive(Clone, Debug, PartialEq)]
pub struct BsDecision {
    /// Componentwise totals received (canonical field representatives).
    pub totals: Vec<u64>,
    /// Sensors included in the totals.
    pub participants: u32,
    /// Decoded statistic.
    pub value: f64,
    /// Pollution alarms received, as `(accuser, accused)` pairs.
    pub alarms: Vec<(NodeId, NodeId)>,
    /// `true` if no alarms arrived and the result is accepted.
    pub accepted: bool,
}

/// Per-node iCPDA protocol state (implements
/// [`wsn_sim::Application`]).
pub struct IcpdaNode {
    config: IcpdaConfig,
    is_base_station: bool,
    reading: u64,
    keys: PairwiseKeys,
    nonce_counter: u64,

    // Query flood.
    level: Option<u16>,
    flood_parent: Option<NodeId>,
    queries_heard: usize,

    // Cluster formation.
    role: Role,
    heads_heard: Vec<NodeId>,
    resigned_heads: BTreeSet<NodeId>,
    has_resigned: bool,
    joiners: Vec<NodeId>,
    roster: Option<Roster>,

    // Share exchange.
    shared: bool,
    /// Shares still to be unicast this round, drained one frame at a time
    /// with random gaps: an m-member cluster would otherwise offer
    /// m·(m−1) frames to the channel in one burst, and hidden-terminal
    /// collisions at that load starve large clusters of shares entirely.
    share_sendq: Vec<(NodeId, ShareVector)>,
    outgoing_shares: BTreeMap<NodeId, ShareVector>,
    received_shares: BTreeMap<NodeId, ShareVector>,
    /// Head-only: sealed shares seen while relaying, keyed `(origin, to)`.
    /// The ciphertext is opaque to the head, so caching it leaks nothing,
    /// and it lets the head answer a share NACK in one in-range frame
    /// instead of a three-frame NACK-forward/relay round trip through the
    /// origin — the dominant repair failure for out-of-range member pairs.
    relay_cache: BTreeMap<(NodeId, NodeId), wsn_crypto::Sealed>,
    // Privacy-off baseline: raw contributions collected at the head.
    raw_readings: BTreeMap<NodeId, ShareVector>,

    // Assembly & solve.
    fsums: BTreeMap<usize, (ShareVector, u64)>,
    cluster_aggregate: Option<CachedAggregate>,

    // Upstream.
    upstream_acc: Vec<Fp>,
    upstream_participants: u32,
    absorbed_inputs: Vec<InputClaim>,
    seen_upstream: BTreeSet<(NodeId, u32)>,
    // This round's report, kept for the duplicate transmission and the
    // parent-reroute path.
    pending_upstream: Option<IcpdaMsg>,
    upstream_sent: bool,

    /// One retry budget per blind repeat, indexed by [`Repeat`].
    retries: [RetryState; Repeat::COUNT],

    // Integrity.
    monitor: MonitorCache,
    alarms_raised: BTreeSet<NodeId>,
    alarms_forwarded: BTreeSet<(NodeId, NodeId)>,

    // Head bookkeeping for the repeated roster broadcast; members store
    // the value from ClusterInfo so later rounds reuse the stagger.
    my_stagger_ms: u16,

    // Multi-round state.
    current_round: u16,
    pending_flood: Option<IcpdaMsg>,

    // Quarantine.
    excluded: bool,

    /// Byzantine behaviour (see [`crate::adversary`]); `Lawful` keeps
    /// every hook dormant, so uncompromised nodes run byte-identically
    /// to a build without the adversary layer.
    behavior: Behavior,

    // Crash recovery (all unused unless `config.crash_recovery`).
    /// Flood levels of neighbours, learnt from their query rebroadcasts;
    /// the candidate pool for rerouting around a silent parent.
    neighbor_levels: BTreeMap<NodeId, u16>,
    /// Any frame heard from our head since we joined it (liveness).
    head_alive_seen: bool,
    /// Any frame heard from our flood parent after our upstream send —
    /// evidence the parent is alive to forward our report.
    parent_forwarded: bool,
    /// Where our upstream report last went (parent, or the reroute
    /// alternate); late forwards follow the same path.
    upstream_target: Option<NodeId>,
    /// Sequence numbers for late-forward message ids (high 16 bits, so
    /// they never collide with the round-numbered originals).
    late_forward_seq: u32,
    /// Base station only: claim sources already absorbed this round;
    /// a repeated source means two copies of the same input arrived via
    /// different paths, and its totals are subtracted once.
    bs_merged_refs: BTreeSet<MergedRef>,

    // Base station.
    bs_alarms: Vec<(NodeId, NodeId)>,
    bs_last_update: Option<SimTime>,
    decisions: Vec<BsDecision>,
}

impl IcpdaNode {
    /// Creates the state machine for one node. Node 0 of the deployment
    /// is conventionally the base station; its `reading` is ignored.
    #[must_use]
    pub fn new(config: IcpdaConfig, is_base_station: bool, reading: u64) -> Self {
        config.validate();
        let components = config.function.components();
        IcpdaNode {
            keys: PairwiseKeys::new(config.key_master),
            config,
            is_base_station,
            reading,
            nonce_counter: 0,
            level: if is_base_station { Some(0) } else { None },
            flood_parent: None,
            queries_heard: 0,
            role: Role::Undecided,
            heads_heard: Vec::new(),
            resigned_heads: BTreeSet::new(),
            has_resigned: false,
            joiners: Vec::new(),
            roster: None,
            shared: false,
            share_sendq: Vec::new(),
            outgoing_shares: BTreeMap::new(),
            received_shares: BTreeMap::new(),
            relay_cache: BTreeMap::new(),
            raw_readings: BTreeMap::new(),
            fsums: BTreeMap::new(),
            cluster_aggregate: None,
            upstream_acc: vec![Fp::ZERO; components],
            upstream_participants: 0,
            absorbed_inputs: Vec::new(),
            seen_upstream: BTreeSet::new(),
            pending_upstream: None,
            upstream_sent: false,
            retries: [RetryState::new(); Repeat::COUNT],
            monitor: MonitorCache::new(),
            alarms_raised: BTreeSet::new(),
            alarms_forwarded: BTreeSet::new(),
            my_stagger_ms: 0,
            current_round: 0,
            pending_flood: None,
            excluded: false,
            behavior: Behavior::Lawful,
            neighbor_levels: BTreeMap::new(),
            head_alive_seen: false,
            parent_forwarded: false,
            upstream_target: None,
            late_forward_seq: 0,
            bs_merged_refs: BTreeSet::new(),
            bs_alarms: Vec::new(),
            bs_last_update: None,
            decisions: Vec::new(),
        }
    }

    /// Installs a Byzantine behaviour (see [`crate::adversary`]).
    /// [`Behavior::Lawful`] restores honest execution.
    pub fn set_behavior(&mut self, behavior: Behavior) {
        self.behavior = behavior;
    }

    /// Snapshots the round state the collusion evaluation pools: the
    /// roster, the shares this node received and sent, and the `FSum`
    /// assemblies it holds (plus the ground-truth reading, used only to
    /// verify reconstructions — see
    /// [`crate::adversary::evaluate_collusion`]).
    #[must_use]
    pub fn collusion_view(&self) -> CollusionView {
        CollusionView {
            roster: self.participating_roster().cloned(),
            shared: self.shared,
            reading: self.reading,
            received_shares: self.received_shares.clone(),
            outgoing_shares: self.outgoing_shares.clone(),
            fsums: self.fsums.clone(),
        }
    }

    /// Replaces this node's private reading (periodic sensing between
    /// rounds of a multi-round session). Takes effect at the next share
    /// exchange.
    pub fn set_reading(&mut self, reading: u64) {
        self.reading = reading;
    }

    /// Quarantines this node: it takes no part in the round (the base
    /// station's recovery mechanism — accused polluters are excluded
    /// from subsequent rounds and the network routes around them).
    pub fn set_excluded(&mut self) {
        self.excluded = true;
    }

    /// The node's role after cluster formation.
    #[must_use]
    pub fn role(&self) -> Role {
        self.role
    }

    /// Flood-tree depth, once the query was heard.
    #[must_use]
    pub fn level(&self) -> Option<u16> {
        self.level
    }

    /// The cluster roster this node belongs to (if any).
    #[must_use]
    pub fn roster(&self) -> Option<&Roster> {
        self.roster.as_ref()
    }

    /// Whether this node transmitted its blinded shares (it exposed
    /// itself to the privacy analysis).
    #[must_use]
    pub fn shared(&self) -> bool {
        self.shared
    }

    /// The cluster aggregate this node recovered (members and heads of
    /// solved clusters).
    #[must_use]
    pub fn cluster_aggregate(&self) -> Option<&CachedAggregate> {
        self.cluster_aggregate.as_ref()
    }

    /// The base station's decision for the most recent completed round
    /// (node 0 only).
    #[must_use]
    pub fn decision(&self) -> Option<&BsDecision> {
        self.decisions.last()
    }

    /// All completed rounds' decisions, in order (node 0 only).
    #[must_use]
    pub fn decisions(&self) -> &[BsDecision] {
        &self.decisions
    }

    /// The round currently in progress (the first query is round 0).
    #[must_use]
    pub fn current_round(&self) -> u16 {
        self.current_round
    }

    /// Virtual time of the last upstream absorption at the base station.
    #[must_use]
    pub fn last_update(&self) -> Option<SimTime> {
        self.bs_last_update
    }

    fn next_nonce(&mut self, self_id: NodeId) -> u64 {
        self.nonce_counter += 1;
        (u64::from(self_id.as_u32()) << 24) | self.nonce_counter
    }

    fn components(&self) -> usize {
        self.config.function.components()
    }

    fn participating_roster(&self) -> Option<&Roster> {
        self.roster.as_ref().filter(|r| r.len() >= MIN_CLUSTER_SIZE)
    }

    /// Sends `share` (raw) to `target`, sealed end-to-end, relaying via
    /// the head when the target is out of radio range.
    fn send_share(
        &mut self,
        ctx: &mut Context<'_, IcpdaMsg>,
        cluster: NodeId,
        target: NodeId,
        share: &ShareVector,
    ) {
        let me = ctx.id();
        let key = self
            .keys
            .link_key(me, target)
            .expect("invariant: the pairwise scheme shares a key for every node pair");
        let nonce = self.next_nonce(me);
        let sealed = seal(key, nonce, &share_to_bytes(share));
        let direct = ctx.neighbors().binary_search(&target).is_ok();
        if direct {
            ctx.send(
                target,
                IcpdaMsg::Share {
                    cluster,
                    origin: me,
                    sealed,
                },
            );
        } else {
            // Out of range: relay via the head (sealed end-to-end, the
            // head cannot read it). The head is always a neighbour of
            // both members.
            ctx.send(
                cluster,
                IcpdaMsg::ShareRelay {
                    cluster,
                    origin: me,
                    to: target,
                    sealed,
                },
            );
            ctx.obs().inc("icpda_share_relayed");
        }
        ctx.obs().inc("icpda_share_sent");
    }

    /// Arms `kind`'s first blind repeat on a fresh retry budget. Returns
    /// `false` when none is armed: the budget is empty, or `kind` needs
    /// `cluster_arq` and it is off.
    fn arm_repeat(&mut self, ctx: &mut Context<'_, IcpdaMsg>, kind: Repeat) -> bool {
        if kind.needs_cluster_arq() && !self.config.reliability.cluster_arq {
            return false;
        }
        self.retries[kind as usize] = RetryState::new();
        self.rearm_repeat(ctx, kind)
    }

    /// Consumes one retry of `kind`'s budget (one jitter draw) and sets
    /// its timer; `false` once the budget is spent.
    fn rearm_repeat(&mut self, ctx: &mut Context<'_, IcpdaMsg>, kind: Repeat) -> bool {
        let (base, jitter) = kind.timing();
        let rel = self.config.reliability;
        match self.retries[kind as usize].next_delay(&rel, base, jitter, ctx.rng()) {
            Some(delay) => {
                ctx.set_timer(delay, kind.token());
                true
            }
            None => false,
        }
    }

    /// A repeat timer fired: re-send if the guard still holds, then
    /// re-arm until the budget is spent. Without ACKs the deadline itself
    /// is the timeout signal.
    fn on_repeat(&mut self, ctx: &mut Context<'_, IcpdaMsg>, kind: Repeat) {
        let rearmed = match self.resend(ctx, kind) {
            Some(frames) => {
                ctx.obs().inc("icpda_rel_timeout");
                ctx.obs().add("icpda_rel_retransmit", frames);
                let rearmed = self.rearm_repeat(ctx, kind);
                if !rearmed {
                    ctx.obs().inc("icpda_rel_exhausted");
                }
                rearmed
            }
            None => false,
        };
        if !rearmed && kind == Repeat::Upstream {
            obs_phase_end(ctx, PHASE_ASCENT_VERIFY);
        }
    }

    /// Re-sends `kind`'s message unless its guard says the repeat is
    /// moot; returns the number of frames queued.
    fn resend(&mut self, ctx: &mut Context<'_, IcpdaMsg>, kind: Repeat) -> Option<u64> {
        match kind {
            Repeat::Roster => {
                let roster = self.roster.as_ref()?;
                ctx.broadcast(IcpdaMsg::ClusterInfo {
                    head: ctx.id(),
                    members: roster.members().to_vec(),
                    stagger_ms: self.my_stagger_ms,
                });
            }
            Repeat::Upstream => {
                let msg = self.pending_upstream.as_ref()?;
                ctx.send(self.flood_parent?, msg.clone());
            }
            Repeat::Announce => {
                if self.role != Role::Head || self.has_resigned {
                    return None;
                }
                ctx.broadcast(IcpdaMsg::HeadAnnounce);
            }
            Repeat::Join => {
                let Role::Member(head) = self.role else {
                    return None;
                };
                if self.roster.is_some() || self.resigned_heads.contains(&head) {
                    return None;
                }
                ctx.send(head, IcpdaMsg::Join { head });
            }
            Repeat::Shares => {
                if self.config.privacy == PrivacyMode::Off
                    || !self.shared
                    || self.participating_roster().is_none()
                    || self.outgoing_shares.is_empty()
                {
                    return None;
                }
                let idle = self.share_sendq.is_empty();
                self.share_sendq.extend(
                    self.outgoing_shares
                        .iter()
                        .map(|(member, share)| (*member, share.clone())),
                );
                if idle {
                    self.drain_one_share(ctx);
                }
                return Some(self.outgoing_shares.len() as u64);
            }
            Repeat::Fsum => {
                if self.config.privacy == PrivacyMode::Off {
                    return None;
                }
                let roster = self.participating_roster()?;
                let (assembly, contributors) = self.fsums.get(&roster.position(ctx.id())?)?;
                ctx.broadcast(IcpdaMsg::FSum {
                    cluster: roster.head(),
                    values: assembly.iter().map(|f| f.to_u64()).collect(),
                    contributors: *contributors,
                });
            }
        }
        Some(1)
    }

    fn handle_query(&mut self, ctx: &mut Context<'_, IcpdaMsg>, from: NodeId, level: u16) {
        if self.excluded {
            return;
        }
        self.queries_heard += 1;
        // Every rebroadcast names the sender's depth: remember it, so a
        // node whose parent dies can reroute to another lower-level
        // neighbour (crash recovery).
        self.neighbor_levels.insert(from, level);
        if self.is_base_station || self.level.is_some() {
            return;
        }
        let my_level = level.saturating_add(1);
        self.level = Some(my_level);
        self.flood_parent = Some(from);
        obs_phase_start(ctx, PHASE_QUERY_FLOOD);
        // Jittered rebroadcast: neighbours reacting to the same query
        // copy would otherwise all transmit within the tiny MAC jitter
        // and collide (broadcast storm).
        self.pending_flood = Some(IcpdaMsg::Query {
            level: level.saturating_add(1),
        });
        let relay_jitter =
            SimDuration::from_nanos(ctx.rng().gen_range(0..FLOOD_RELAY_JITTER.as_nanos()));
        ctx.set_timer(relay_jitter, TIMER_FLOOD_RELAY);
        let elect_jitter =
            SimDuration::from_nanos(ctx.rng().gen_range(0..ELECT_AFTER.as_nanos() / 2));
        ctx.set_timer(ELECT_AFTER + elect_jitter, TIMER_ELECT);
        self.schedule_upstream(ctx, my_level);
    }

    /// Arms this round's upstream slot: depth-scheduled with intra-slot
    /// dispersion (same hidden-terminal reasoning as TAG's slot
    /// dispersion).
    fn schedule_upstream(&self, ctx: &mut Context<'_, IcpdaMsg>, level: u16) {
        let s = self.config.schedule;
        let dispersion_ns = s.upstream_slot().as_nanos() * 6 / 10;
        let jitter = if dispersion_ns == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(ctx.rng().gen_range(0..dispersion_ns))
        };
        ctx.set_timer(s.upstream_time(level) + jitter, TIMER_UPSTREAM);
    }

    fn handle_elect(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        let p = self.config.election.probability(self.queries_heard);
        let is_head = p >= 1.0 || ctx.rng().gen_bool(p.clamp(0.0, 1.0));
        if is_head {
            self.role = Role::Head;
            ctx.broadcast(IcpdaMsg::HeadAnnounce);
            self.arm_repeat(ctx, Repeat::Announce);
            // Dispersed so concurrent heads' roster broadcasts (the single
            // point of failure for a whole cluster) do not collide.
            ctx.set_timer(RESIGN_AFTER, TIMER_RESIGN);
            let jitter =
                SimDuration::from_nanos(ctx.rng().gen_range(0..ROSTER_AFTER.as_nanos() / 3));
            ctx.set_timer(ROSTER_AFTER + jitter, TIMER_ROSTER);
            ctx.obs().inc("icpda_heads");
            if self.config.crash_recovery {
                // Two liveness beacons before the roster deadline: members
                // that hear neither (nor anything else from us) declare us
                // dead and fall back.
                for frac in [4u64, 2u64] {
                    let beacon_jitter =
                        SimDuration::from_nanos(ctx.rng().gen_range(0..NACK_JITTER.as_nanos()));
                    ctx.set_timer(ROSTER_AFTER / frac + beacon_jitter, TIMER_BEACON);
                }
            }
        } else {
            // Small dispersion so join unicasts do not collide at heads.
            let jitter = SimDuration::from_nanos(ctx.rng().gen_range(0..JOIN_AFTER.as_nanos() / 2));
            ctx.set_timer(JOIN_AFTER + jitter, TIMER_JOIN);
        }
    }

    fn handle_join_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        if self.heads_heard.is_empty() {
            self.role = Role::Orphan;
            ctx.obs().inc("icpda_orphan_no_head");
            obs_phase_end(ctx, PHASE_CLUSTER_FORMATION);
            return;
        }
        let pick = ctx.rng().gen_range(0..self.heads_heard.len());
        let head = self.heads_heard[pick];
        self.role = Role::Member(head);
        ctx.send(head, IcpdaMsg::Join { head });
        self.arm_repeat(ctx, Repeat::Join);
        if self.config.crash_recovery {
            self.schedule_head_check(ctx);
        }
    }

    /// Arms the head-liveness deadline: if nothing is heard from the
    /// joined head (beacon, roster, anything) by then, the head is
    /// presumed dead and this node falls back to another cluster.
    fn schedule_head_check(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        self.head_alive_seen = false;
        let jitter = SimDuration::from_nanos(ctx.rng().gen_range(0..NACK_JITTER.as_nanos()));
        ctx.set_timer(ROSTER_AFTER + jitter, TIMER_HEAD_CHECK);
    }

    fn handle_head_check(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        if !self.config.crash_recovery {
            return;
        }
        let Role::Member(head) = self.role else {
            return;
        };
        if self.head_alive_seen || self.roster.is_some() {
            return;
        }
        // Silent head: treat it like a resignation — re-join another
        // in-range head, or degrade to orphan (and later direct-report).
        ctx.obs().inc("icpda_head_dead_detected");
        obs_phase_start(ctx, PHASE_CRASH_RECOVERY);
        self.resigned_heads.insert(head);
        self.schedule_rejoin(ctx);
    }

    /// Under-sized heads give up their cluster so their joiners (and
    /// they themselves) can merge into viable neighbouring clusters —
    /// the paper family's treatment of clusters below the privacy
    /// minimum.
    fn handle_resign_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        if self.role != Role::Head || self.roster.is_some() {
            return;
        }
        if self.joiners.len() + 1 >= MIN_CLUSTER_SIZE {
            return;
        }
        self.has_resigned = true;
        self.joiners.clear();
        ctx.broadcast(IcpdaMsg::Resign { head: ctx.id() });
        ctx.obs().inc("icpda_head_resigned");
        self.schedule_rejoin(ctx);
    }

    fn schedule_rejoin(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        let jitter = SimDuration::from_nanos(ctx.rng().gen_range(0..REJOIN_AFTER.as_nanos()));
        ctx.set_timer(REJOIN_AFTER + jitter, TIMER_REJOIN);
    }

    fn handle_rejoin_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        // Only re-join if we still lack a viable cluster.
        match self.role {
            Role::Member(h) if !self.resigned_heads.contains(&h) => return,
            Role::Head if !self.has_resigned => return,
            _ => {}
        }
        let me = ctx.id();
        let candidates: Vec<NodeId> = self
            .heads_heard
            .iter()
            .copied()
            .filter(|h| *h != me && !self.resigned_heads.contains(h))
            .collect();
        if candidates.is_empty() {
            self.role = Role::Orphan;
            ctx.obs().inc("icpda_orphan_no_head");
            return;
        }
        let head = candidates[ctx.rng().gen_range(0..candidates.len())];
        self.role = Role::Member(head);
        ctx.send(head, IcpdaMsg::Join { head });
        self.arm_repeat(ctx, Repeat::Join);
        ctx.obs().inc("icpda_rejoined");
        if self.config.crash_recovery {
            self.schedule_head_check(ctx);
        }
    }

    fn handle_roster_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        if self.has_resigned || self.role != Role::Head {
            return;
        }
        let me = ctx.id();
        let mut joiners = std::mem::take(&mut self.joiners);
        joiners.truncate(MAX_CLUSTER_SIZE - 1);
        let roster = Roster::new(me, &joiners);
        // Random per-cluster stagger: every member shifts the whole share
        // exchange by this amount, so concurrent clusters do not burst at
        // the same instants (the dominant collision source otherwise).
        let stagger_ms = ctx
            .rng()
            .gen_range(0..CLUSTER_STAGGER.as_nanos() / 1_000_000) as u16;
        self.my_stagger_ms = stagger_ms;
        ctx.broadcast(IcpdaMsg::ClusterInfo {
            head: me,
            members: roster.members().to_vec(),
            stagger_ms,
        });
        let participates = roster.len() >= MIN_CLUSTER_SIZE;
        self.roster = Some(roster);
        if participates {
            self.arm_repeat(ctx, Repeat::Roster);
            self.schedule_share_phases(ctx, stagger_ms);
        } else {
            ctx.obs().inc("icpda_cluster_too_small");
        }
    }

    fn schedule_share_phases(&mut self, ctx: &mut Context<'_, IcpdaMsg>, stagger_ms: u16) {
        let stagger = SimDuration::from_millis(u64::from(stagger_ms));
        // Dispersion over the first quarter of the share window keeps the
        // unicast bursts from synchronising across members while still
        // finishing (start jitter plus per-frame drain gaps) well before
        // the repair deadline.
        let window = (REPAIR_AFTER - SHARES_AFTER) / 4;
        let jitter = SimDuration::from_nanos(ctx.rng().gen_range(0..window.as_nanos()));
        ctx.set_timer(stagger + SHARES_AFTER + jitter, TIMER_SHARES);
        // Every member discovers its gaps at the same deadline, so
        // un-jittered NACK broadcasts would collide at the head.
        let nack_jitter = SimDuration::from_nanos(ctx.rng().gen_range(0..NACK_JITTER.as_nanos()));
        ctx.set_timer(stagger + REPAIR_AFTER + nack_jitter, TIMER_REPAIR);
        let nack2_jitter = SimDuration::from_nanos(ctx.rng().gen_range(0..NACK_JITTER.as_nanos()));
        ctx.set_timer(
            stagger + REPAIR_AFTER + REPAIR2_OFFSET + nack2_jitter,
            TIMER_REPAIR2,
        );
        let fsum_window = (SOLVE_AFTER - FSUM_AFTER) / 2;
        let fsum_jitter = SimDuration::from_nanos(ctx.rng().gen_range(0..fsum_window.as_nanos()));
        ctx.set_timer(stagger + FSUM_AFTER + fsum_jitter, TIMER_FSUM);
        let fsum_nack_jitter =
            SimDuration::from_nanos(ctx.rng().gen_range(0..NACK_JITTER.as_nanos()));
        ctx.set_timer(
            stagger + FSUM_REPAIR_AFTER + fsum_nack_jitter,
            TIMER_FSUM_REPAIR,
        );
        ctx.set_timer(stagger + SOLVE_AFTER, TIMER_SOLVE);
    }

    fn handle_cluster_info(
        &mut self,
        ctx: &mut Context<'_, IcpdaMsg>,
        from: NodeId,
        head: NodeId,
        members: &[NodeId],
        stagger_ms: u16,
    ) {
        // Only the head itself may fix its cluster's roster.
        if from != head || self.role != Role::Member(head) || self.roster.is_some() {
            return;
        }
        let Ok(roster) = Roster::from_wire(head, members) else {
            ctx.obs().inc("icpda_bad_roster");
            return;
        };
        if !roster.contains(ctx.id()) {
            // Our join was lost or the cluster was full.
            self.role = Role::Orphan;
            ctx.obs().inc("icpda_orphan_join_lost");
            obs_phase_end(ctx, PHASE_CLUSTER_FORMATION);
            return;
        }
        let participates = roster.len() >= MIN_CLUSTER_SIZE;
        self.my_stagger_ms = stagger_ms;
        self.roster = Some(roster);
        obs_phase_end(ctx, PHASE_CLUSTER_FORMATION);
        if participates {
            self.schedule_share_phases(ctx, stagger_ms);
        }
    }

    /// Clears one round's aggregation state and schedules the next
    /// round's phases over the persistent cluster structure.
    fn begin_round(&mut self, ctx: &mut Context<'_, IcpdaMsg>, round: u16) {
        self.current_round = round;
        self.received_shares.clear();
        self.share_sendq.clear();
        self.outgoing_shares.clear();
        self.relay_cache.clear();
        self.raw_readings.clear();
        self.fsums.clear();
        self.cluster_aggregate = None;
        self.shared = false;
        self.upstream_acc = vec![Fp::ZERO; self.components()];
        self.upstream_participants = 0;
        self.absorbed_inputs.clear();
        self.upstream_sent = false;
        self.pending_upstream = None;
        self.retries = [RetryState::new(); Repeat::COUNT];
        self.alarms_raised.clear();
        self.alarms_forwarded.clear();
        self.parent_forwarded = false;
        self.upstream_target = None;
        self.bs_merged_refs.clear();
        // Audit material is per-round: a stale cluster aggregate from the
        // previous round would convict an honest head as soon as the
        // readings change.
        self.monitor = MonitorCache::new();
        if self.is_base_station {
            return;
        }
        // Re-join the relay schedule for this round.
        if let Some(level) = self.level {
            self.schedule_upstream(ctx, level);
        }
        if self.participating_roster().is_some() {
            let stagger = self.my_stagger_ms;
            self.schedule_share_phases(ctx, stagger);
        }
    }

    fn handle_new_round(&mut self, ctx: &mut Context<'_, IcpdaMsg>, round: u16) {
        if self.excluded || self.is_base_station || round != self.current_round + 1 {
            return;
        }
        self.begin_round(ctx, round);
        // Flood the round marker onward with the usual jitter.
        self.pending_flood = Some(IcpdaMsg::NewRound { round });
        let relay_jitter =
            SimDuration::from_nanos(ctx.rng().gen_range(0..FLOOD_RELAY_JITTER.as_nanos()));
        ctx.set_timer(relay_jitter, TIMER_FLOOD_RELAY);
    }

    fn handle_shares_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        let Some(roster) = self.participating_roster().cloned() else {
            return;
        };
        let me = ctx.id();
        let contribution = self.config.function.encode(self.reading);
        if self.config.privacy == PrivacyMode::Off {
            // Plain clustering: the raw contribution goes straight to
            // the head (link-encrypted, but the head reads it).
            self.shared = true;
            let raw: ShareVector = contribution.iter().map(|&c| Fp::new(c)).collect();
            if me == roster.head() {
                self.raw_readings.insert(me, raw);
            } else {
                let key = self
                    .keys
                    .link_key(me, roster.head())
                    .expect("invariant: the pairwise scheme shares a key for every node pair");
                let nonce = self.next_nonce(me);
                let sealed = seal(key, nonce, &share_to_bytes(&raw));
                ctx.send(
                    roster.head(),
                    IcpdaMsg::RawReading {
                        cluster: roster.head(),
                        sealed,
                    },
                );
                ctx.obs().inc("icpda_raw_sent");
            }
            return;
        }
        let Some(my_pos) = roster.position(me) else {
            return;
        };
        let shares = if self.config.crash_recovery {
            // Threshold sharing: any `MIN_CLUSTER_SIZE` surviving
            // assemblies reconstruct the cluster sum, so a member dying
            // between its share exchange and the FSum broadcast no longer
            // kills the whole cluster. The price is a lower collusion
            // bound (threshold − 1 instead of m − 1 colluders).
            let threshold = MIN_CLUSTER_SIZE.min(roster.len());
            generate_shares_t(&contribution, roster.len(), threshold, ctx.rng())
        } else {
            generate_shares(&contribution, roster.len(), ctx.rng())
        };
        self.shared = true;
        // Byzantine hook (share exchange): a GarbageShares node swaps
        // every outgoing evaluation for fresh uniform field elements —
        // its cluster's recovered sum is silently corrupted. The extra
        // draws come from this node's own RNG stream, so honest nodes
        // draw exactly what they would in a clean run.
        let garbage = self.behavior == Behavior::GarbageShares;
        if garbage {
            ctx.obs().inc("icpda_adv_garbage_shares");
            ctx.trace_adversary(self.behavior.code());
        }
        // Keep own share locally.
        self.received_shares.insert(me, shares[my_pos].clone());
        for (j, &member) in roster.members().iter().enumerate() {
            if member == me {
                continue;
            }
            let share = if garbage {
                (0..shares[j].len()).map(|_| random_fp(ctx.rng())).collect()
            } else {
                shares[j].clone()
            };
            self.outgoing_shares.insert(member, share.clone());
            // Queue rather than send: the drain timer spaces the m−1
            // unicasts across the share window (see `share_sendq`).
            self.share_sendq.push((member, share));
        }
        // LIFO drain order doesn't matter; what matters is the spacing.
        self.drain_one_share(ctx);
        self.arm_repeat(ctx, Repeat::Shares);
    }

    /// Sends the next queued share and, if any remain, re-arms the drain
    /// timer with a random gap sized so the whole queue lands well before
    /// the repair deadline.
    fn drain_one_share(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        let Some((target, share)) = self.share_sendq.pop() else {
            return;
        };
        let Some(roster) = self.participating_roster() else {
            self.share_sendq.clear();
            return;
        };
        let head = roster.head();
        let m = roster.len().max(1) as u64;
        self.send_share(ctx, head, target, &share);
        if !self.share_sendq.is_empty() {
            // Same basis as the batch-start jitter: half the share→repair
            // gap, split across the cluster's frames.
            let window = (REPAIR_AFTER - SHARES_AFTER) / 2;
            let gap_bound = (window.as_nanos() / m).max(2);
            let gap = SimDuration::from_nanos(ctx.rng().gen_range(0..gap_bound));
            ctx.set_timer(gap, TIMER_SHARE_DRAIN);
        }
    }

    fn handle_raw_reading(
        &mut self,
        ctx: &mut Context<'_, IcpdaMsg>,
        from: NodeId,
        cluster: NodeId,
        sealed: &wsn_crypto::Sealed,
    ) {
        let me = ctx.id();
        if me != cluster || self.config.privacy != PrivacyMode::Off {
            return;
        }
        let Some(roster) = self.roster.as_ref() else {
            return;
        };
        if !roster.contains(from) {
            return;
        }
        let Some(key) = self.keys.link_key(from, me) else {
            return;
        };
        match open(key, sealed).and_then(|bytes| share_from_bytes(&bytes)) {
            Some(raw) if raw.len() == self.components() => {
                self.raw_readings.insert(from, raw);
            }
            _ => ctx.obs().inc("icpda_raw_bad"),
        }
    }

    fn handle_repair_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        if self.config.privacy == PrivacyMode::Off {
            return;
        }
        let Some(roster) = self.participating_roster().cloned() else {
            return;
        };
        let missing: Vec<NodeId> = roster
            .members()
            .iter()
            .copied()
            .filter(|m| !self.received_shares.contains_key(m))
            .collect();
        if !missing.is_empty() {
            ctx.obs().add("icpda_shares_missing", missing.len() as u64);
            ctx.broadcast(IcpdaMsg::ShareNack {
                cluster: roster.head(),
                requester: ctx.id(),
                missing,
            });
        }
    }

    fn handle_share_nack(
        &mut self,
        ctx: &mut Context<'_, IcpdaMsg>,
        cluster: NodeId,
        requester: NodeId,
        missing: &[NodeId],
    ) {
        let me = ctx.id();
        let Some(roster) = self.roster.as_ref() else {
            return;
        };
        if roster.head() != cluster || !roster.contains(requester) {
            return;
        }
        // The head forwards the NACK to missing members out of the
        // requester's radio range (cluster diameter is two hops, so a
        // broadcast NACK alone cannot reach every addressee).
        if me == cluster {
            let forwards: Vec<NodeId> = missing
                .iter()
                .copied()
                .filter(|m| *m != me && *m != requester && roster.contains(*m))
                .collect();
            for target in forwards {
                // A share the head once relayed can be replayed straight
                // from the cache: one in-range frame, no origin round trip.
                if let Some(sealed) = self.relay_cache.get(&(target, requester)) {
                    ctx.obs().inc("icpda_share_cache_replayed");
                    ctx.send(
                        requester,
                        IcpdaMsg::Share {
                            cluster,
                            origin: target,
                            sealed: sealed.clone(),
                        },
                    );
                    continue;
                }
                ctx.obs().inc("icpda_nack_forwarded");
                ctx.send(
                    target,
                    IcpdaMsg::ShareNack {
                        cluster,
                        requester,
                        missing: vec![target],
                    },
                );
            }
        }
        if !missing.contains(&me) || requester == me {
            return;
        }
        if let Some(share) = self.outgoing_shares.get(&requester).cloned() {
            ctx.obs().inc("icpda_share_resent");
            self.send_share(ctx, cluster, requester, &share);
        }
    }

    fn handle_share(
        &mut self,
        ctx: &mut Context<'_, IcpdaMsg>,
        origin: NodeId,
        cluster: NodeId,
        sealed: &wsn_crypto::Sealed,
    ) {
        let me = ctx.id();
        let Some(roster) = self.roster.as_ref() else {
            return;
        };
        if roster.head() != cluster || !roster.contains(origin) {
            return;
        }
        let Some(key) = self.keys.link_key(origin, me) else {
            return;
        };
        match open(key, sealed).and_then(|bytes| share_from_bytes(&bytes)) {
            Some(share) if share.len() == self.components() => {
                self.received_shares.insert(origin, share);
            }
            _ => ctx.obs().inc("icpda_share_bad"),
        }
    }

    fn handle_share_relay(
        &mut self,
        ctx: &mut Context<'_, IcpdaMsg>,
        cluster: NodeId,
        origin: NodeId,
        to: NodeId,
        sealed: wsn_crypto::Sealed,
    ) {
        // Only the head relays, and only within its own cluster.
        if ctx.id() != cluster {
            return;
        }
        if let Some(roster) = self.roster.as_ref() {
            if roster.contains(origin) && roster.contains(to) {
                // The cache doubles as the seen-set: a byte-identical
                // sealed share is a channel-level duplicate of a relay
                // already forwarded (ARQ re-sends carry fresh nonces, so
                // they pass this check and are forwarded again).
                if self.relay_cache.get(&(origin, to)) == Some(&sealed) {
                    ctx.obs().inc("icpda_rel_duplicate");
                    return;
                }
                ctx.obs().inc("icpda_relay_forwarded");
                self.relay_cache.insert((origin, to), sealed.clone());
                ctx.send(
                    to,
                    IcpdaMsg::Share {
                        cluster,
                        origin,
                        sealed,
                    },
                );
            }
        }
    }

    fn handle_fsum_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        if self.config.privacy == PrivacyMode::Off {
            return;
        }
        let Some(roster) = self.participating_roster().cloned() else {
            return;
        };
        let me = ctx.id();
        let Some(my_pos) = roster.position(me) else {
            return;
        };
        let mut contributors = 0u64;
        let mut shares = Vec::new();
        for (&sender, share) in &self.received_shares {
            if let Some(bit) = roster.mask_bit(sender) {
                contributors |= bit;
                shares.push(share.clone());
            }
        }
        let assembly = if shares.is_empty() {
            vec![Fp::ZERO; self.components()]
        } else {
            assemble(&shares)
        };
        self.fsums.insert(my_pos, (assembly.clone(), contributors));
        ctx.broadcast(IcpdaMsg::FSum {
            cluster: roster.head(),
            values: assembly.iter().map(|f| f.to_u64()).collect(),
            contributors,
        });
        self.arm_repeat(ctx, Repeat::Fsum);
    }

    fn handle_fsum_repair_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        if self.config.privacy == PrivacyMode::Off {
            return;
        }
        let Some(roster) = self.participating_roster().cloned() else {
            return;
        };
        let mut missing = 0u64;
        for pos in 0..roster.len() {
            if !self.fsums.contains_key(&pos) {
                missing |= 1 << pos;
            }
        }
        if missing != 0 {
            ctx.obs()
                .add("icpda_fsums_missing", missing.count_ones().into());
            ctx.broadcast(IcpdaMsg::FsumNack {
                cluster: roster.head(),
                missing,
            });
        }
    }

    fn handle_fsum_nack(
        &mut self,
        ctx: &mut Context<'_, IcpdaMsg>,
        from: NodeId,
        cluster: NodeId,
        missing: u64,
    ) {
        let Some(roster) = self.roster.as_ref().cloned() else {
            return;
        };
        if roster.head() != cluster || !roster.contains(from) {
            return;
        }
        let me = ctx.id();
        // The head echoes assemblies the requester missed: members can be
        // two hops apart, so the original broadcast may be physically
        // unreachable, but the head hears everyone.
        if me == cluster {
            for pos in 0..roster.len() {
                if missing & (1 << pos) != 0 {
                    if let Some((assembly, contributors)) = self.fsums.get(&pos).cloned() {
                        ctx.obs().inc("icpda_fsum_echoed");
                        ctx.send(
                            from,
                            IcpdaMsg::FsumEcho {
                                cluster,
                                position: pos as u8,
                                values: assembly.iter().map(|f| f.to_u64()).collect(),
                                contributors,
                            },
                        );
                    }
                }
            }
        }
        let Some(my_pos) = roster.position(me) else {
            return;
        };
        if missing & (1 << my_pos) == 0 {
            return;
        }
        if let Some((assembly, contributors)) = self.fsums.get(&my_pos).cloned() {
            ctx.obs().inc("icpda_fsum_resent");
            ctx.broadcast(IcpdaMsg::FSum {
                cluster,
                values: assembly.iter().map(|f| f.to_u64()).collect(),
                contributors,
            });
        }
    }

    fn handle_fsum_echo(
        &mut self,
        ctx: &mut Context<'_, IcpdaMsg>,
        from: NodeId,
        cluster: NodeId,
        position: usize,
        values: &[u64],
        contributors: u64,
    ) {
        let Some(roster) = self.roster.as_ref() else {
            return;
        };
        // Echoes are only accepted from the head: it is the one node
        // guaranteed to be in range of every member, and restricting the
        // echo source keeps the trust surface a single node (consistent
        // with the paper's non-colluding attacker model).
        if roster.head() != cluster || from != cluster {
            return;
        }
        if position >= roster.len() || values.len() != self.components() {
            return;
        }
        let assembly: ShareVector = values.iter().map(|&v| Fp::new(v)).collect();
        match self.fsums.get(&position) {
            None => {
                self.fsums.insert(position, (assembly, contributors));
                ctx.obs().inc("icpda_fsum_echo_used");
            }
            Some((existing, existing_mask)) => {
                if *existing != assembly || *existing_mask != contributors {
                    // The direct broadcast is authoritative; a conflicting
                    // echo means someone is lying.
                    ctx.obs().inc("icpda_echo_conflict");
                }
            }
        }
    }

    fn handle_fsum(
        &mut self,
        ctx: &mut Context<'_, IcpdaMsg>,
        from: NodeId,
        cluster: NodeId,
        values: &[u64],
        contributors: u64,
    ) {
        let Some(roster) = self.roster.as_ref() else {
            return;
        };
        if roster.head() != cluster || values.len() != self.components() {
            return;
        }
        let Some(pos) = roster.position(from) else {
            return;
        };
        let _ = ctx;
        self.fsums.insert(
            pos,
            (values.iter().map(|&v| Fp::new(v)).collect(), contributors),
        );
    }

    fn handle_solve_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        let Some(roster) = self.participating_roster().cloned() else {
            return;
        };
        let is_head = self.role == Role::Head;
        if self.config.privacy == PrivacyMode::Off {
            // Plain clustering: only the head holds the readings, so only
            // the head can produce (or audit) the cluster aggregate —
            // members get no verification material. That asymmetry is the
            // synergy ablation A17 measures.
            if is_head && !self.raw_readings.is_empty() {
                let mut totals = vec![Fp::ZERO; self.components()];
                for raw in self.raw_readings.values() {
                    for (t, &c) in totals.iter_mut().zip(raw) {
                        *t += c;
                    }
                }
                let aggregate = CachedAggregate {
                    totals,
                    participants: self.raw_readings.len() as u32,
                };
                self.monitor.record_cluster(ctx.id(), aggregate.clone());
                self.cluster_aggregate = Some(aggregate);
                ctx.obs().inc("icpda_head_solved");
            }
            return;
        }
        let m = roster.len();
        if self.config.crash_recovery {
            self.solve_with_survivors(ctx, &roster);
            return;
        }
        if self.fsums.len() != m {
            ctx.obs().inc(if is_head {
                "icpda_head_failed_missing_fsum"
            } else {
                "icpda_cluster_failed_missing_fsum"
            });
            return;
        }
        // Positions are keyed 0..m: the length check above plus the
        // position bound on insert guarantee every key is present, but
        // `.get()` keeps the path panic-free regardless.
        let mask = match self.fsums.get(&0) {
            Some(&(_, mask)) => mask,
            None => 0,
        };
        if (1..m).any(|j| self.fsums.get(&j).is_none_or(|f| f.1 != mask)) {
            ctx.obs().inc(if is_head {
                "icpda_head_failed_mask_mismatch"
            } else {
                "icpda_cluster_failed_mask_mismatch"
            });
            return;
        }
        if mask == 0 {
            ctx.obs().inc("icpda_cluster_failed_empty");
            return;
        }
        let points: Vec<(usize, ShareVector)> = self
            .fsums
            .iter()
            .map(|(&p, (a, _))| (p, a.clone()))
            .collect();
        let Some(sum) = recover_sum_at(&points) else {
            ctx.obs().inc("icpda_cluster_failed_solve");
            return;
        };
        let aggregate = CachedAggregate {
            totals: sum,
            participants: mask.count_ones(),
        };
        // Every member records the aggregate: the head to report it, the
        // members to audit the head (transparent aggregation).
        self.monitor
            .record_cluster(roster.head(), aggregate.clone());
        self.cluster_aggregate = Some(aggregate);
        ctx.obs().inc(if is_head {
            "icpda_head_solved"
        } else {
            "icpda_cluster_solved"
        });
    }

    /// Crash-recovery solve: instead of demanding all `m` assemblies
    /// under one consistent contributor mask, group whatever assemblies
    /// arrived by their mask and interpolate the largest consistent
    /// group — threshold sharing makes any `MIN_CLUSTER_SIZE` positions
    /// sufficient, so clusters solve with the survivors' shares after a
    /// member (or the head) dies mid-exchange.
    fn solve_with_survivors(&mut self, ctx: &mut Context<'_, IcpdaMsg>, roster: &Roster) {
        let is_head = self.role == Role::Head;
        let m = roster.len();
        let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (&pos, &(_, mask)) in &self.fsums {
            groups.entry(mask).or_default().push(pos);
        }
        let best = groups
            .iter()
            .max_by_key(|(mask, positions)| {
                (
                    positions.len(),
                    mask.count_ones(),
                    std::cmp::Reverse(**mask),
                )
            })
            .map(|(&mask, positions)| (mask, positions.clone()));
        let Some((mask, positions)) = best else {
            ctx.obs().inc(if is_head {
                "icpda_head_failed_missing_fsum"
            } else {
                "icpda_cluster_failed_missing_fsum"
            });
            return;
        };
        if mask == 0 {
            ctx.obs().inc("icpda_cluster_failed_empty");
            return;
        }
        let threshold = MIN_CLUSTER_SIZE.min(m);
        if positions.len() < threshold {
            ctx.obs().inc(if is_head {
                "icpda_head_failed_missing_fsum"
            } else {
                "icpda_cluster_failed_missing_fsum"
            });
            return;
        }
        let points: Vec<(usize, ShareVector)> = positions
            .iter()
            .filter_map(|&p| self.fsums.get(&p).map(|(a, _)| (p, a.clone())))
            .collect();
        let Some(sum) = recover_sum_at(&points) else {
            ctx.obs().inc("icpda_cluster_failed_solve");
            return;
        };
        if positions.len() < m {
            ctx.obs().inc("icpda_solved_degraded");
        }
        let aggregate = CachedAggregate {
            totals: sum,
            participants: mask.count_ones(),
        };
        self.monitor
            .record_cluster(roster.head(), aggregate.clone());
        self.cluster_aggregate = Some(aggregate);
        ctx.obs().inc(if is_head {
            "icpda_head_solved"
        } else {
            "icpda_cluster_solved"
        });
    }

    fn handle_upstream_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        if self.is_base_station {
            return;
        }
        let me = ctx.id();
        let mut totals = self.upstream_acc.clone();
        let mut participants = self.upstream_participants;
        let mut inputs = self.absorbed_inputs.clone();
        if self.role == Role::Head {
            if let Some(agg) = &self.cluster_aggregate {
                for (t, &c) in totals.iter_mut().zip(&agg.totals) {
                    *t += c;
                }
                participants += agg.participants;
                inputs.push(InputClaim {
                    source: MergedRef::Cluster { head: me },
                    totals: agg.totals_u64(),
                    participants: agg.participants,
                });
            }
        }
        if self.config.crash_recovery {
            self.merge_recovery_inputs(ctx, &mut totals, &mut participants, &mut inputs);
        }
        self.upstream_sent = true;
        if let (Behavior::Slander(target), Some(parent)) = (self.behavior, self.flood_parent) {
            // Byzantine hook (accusation): a false alarm every round, sent
            // whether or not the node has a report of its own.
            ctx.obs().inc("icpda_slander_sent");
            ctx.trace_adversary(self.behavior.code());
            ctx.send(
                parent,
                IcpdaMsg::Alarm {
                    accuser: ctx.id(),
                    accused: target,
                },
            );
        }
        if participants == 0 && inputs.is_empty() {
            ctx.obs().inc("icpda_upstream_skipped");
            return;
        }
        if self.config.integrity == IntegrityMode::Off {
            inputs.clear();
        }
        if let Behavior::PolluteAggregate(pollution) = self.behavior {
            // Byzantine hook (aggregation): applied after every honest
            // step, so the polluted report is exactly what goes on air.
            pollution.apply(&mut totals, &mut participants, &mut inputs);
            ctx.obs().inc("icpda_adv_polluted");
            ctx.trace_adversary(self.behavior.code());
        }
        let Some(parent) = self.flood_parent else {
            return;
        };
        let msg = IcpdaMsg::Upstream {
            msg_id: u32::from(self.current_round),
            totals: totals.iter().map(|f| f.to_u64()).collect(),
            participants,
            inputs,
        };
        ctx.send(parent, msg.clone());
        self.pending_upstream = Some(msg);
        self.upstream_target = Some(parent);
        if !self.arm_repeat(ctx, Repeat::Upstream) {
            // ARQ off: nothing will fire to close the verify span.
            obs_phase_end(ctx, PHASE_ASCENT_VERIFY);
        }
        if self.config.crash_recovery {
            // Parent-liveness deadline: two upstream slots past our own
            // send, the parent's slot has certainly passed — a parent
            // that transmitted nothing in that window is presumed dead
            // and the report is rerouted. Level-1 nodes report straight
            // to the base station (node 0 never faults), so they skip it.
            if self.level.is_some_and(|l| l > 1) {
                let slot = self.config.schedule.upstream_slot();
                ctx.set_timer(slot * 2 + PARENT_CHECK_SLACK, TIMER_PARENT_CHECK);
            }
        }
        ctx.obs().inc("icpda_upstream_sent");
    }

    /// Crash-recovery additions to this node's own upstream report: a
    /// member takes over reporting its cluster's aggregate when the head
    /// went silent, and a node whose cluster never materialised reports
    /// its own reading directly (privacy degrades to the link-encrypted
    /// hop for that reading, but it is not lost).
    fn merge_recovery_inputs(
        &mut self,
        ctx: &mut Context<'_, IcpdaMsg>,
        totals: &mut [Fp],
        participants: &mut u32,
        inputs: &mut Vec<InputClaim>,
    ) {
        let me = ctx.id();
        // Takeover: the head's own assembly never arrived, so the head is
        // presumed dead (or deaf); the surviving member holding the
        // smallest assembled roster position reports the cluster
        // aggregate in its place. Should the head in fact be alive, the
        // duplicate claim is subtracted at the base station.
        if let (Role::Member(head), Some(agg), Some(roster)) = (
            self.role,
            self.cluster_aggregate.clone(),
            self.roster.as_ref(),
        ) {
            let head_pos = roster.position(head);
            let head_silent = head_pos.is_none_or(|hp| !self.fsums.contains_key(&hp));
            let min_present = self.fsums.keys().copied().find(|p| Some(*p) != head_pos);
            let my_pos = roster.position(me);
            if head_silent && my_pos.is_some() && min_present == my_pos {
                ctx.obs().inc("icpda_takeover_report");
                for (t, &c) in totals.iter_mut().zip(&agg.totals) {
                    *t += c;
                }
                *participants += agg.participants;
                inputs.push(InputClaim {
                    source: MergedRef::Cluster { head },
                    totals: agg.totals_u64(),
                    participants: agg.participants,
                });
            }
        }
        // Orphan / failed-cluster direct report: the reading would
        // otherwise be lost with the cluster.
        if !self.shared
            && self.cluster_aggregate.is_none()
            && self.level.is_some()
            && !self.excluded
        {
            ctx.obs().inc("icpda_direct_report");
            let contribution = self.config.function.encode(self.reading);
            for (t, &c) in totals.iter_mut().zip(&contribution) {
                *t += Fp::new(c);
            }
            *participants += 1;
            inputs.push(InputClaim {
                source: MergedRef::Cluster { head: me },
                totals: contribution,
                participants: 1,
            });
        }
    }

    /// Fires two upstream slots after our own report went out: if the
    /// parent has not transmitted anything since, it is presumed dead and
    /// the report is re-sent to another lower-level neighbour (which
    /// forwards it immediately via the late-forward path).
    fn handle_parent_check(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        if !self.config.crash_recovery || self.parent_forwarded || !self.upstream_sent {
            return;
        }
        let Some(msg) = self.pending_upstream.as_ref() else {
            return;
        };
        let Some(my_level) = self.level.filter(|&l| l > 1) else {
            return;
        };
        let Some(parent) = self.flood_parent else {
            return;
        };
        let alternate = self
            .neighbor_levels
            .iter()
            .filter(|&(&n, &l)| n != parent && l < my_level)
            .min_by_key(|&(&n, &l)| (l, n))
            .map(|(&n, _)| n);
        match alternate {
            Some(alt) => {
                ctx.obs().inc("icpda_parent_rerouted");
                self.upstream_target = Some(alt);
                ctx.send(alt, msg.clone());
            }
            None => ctx.obs().inc("icpda_reroute_no_alternate"),
        }
    }

    /// A report that arrives after this node already transmitted its own
    /// cannot be merged any more — under crash recovery it is wrapped
    /// and forwarded as a fresh report instead of being dropped, which is
    /// what makes rerouting around a dead parent deliver (the alternate
    /// parent has always sent by the time the rerouted copy arrives:
    /// lower levels transmit in later slots).
    fn late_forward(
        &mut self,
        ctx: &mut Context<'_, IcpdaMsg>,
        from: NodeId,
        msg_id: u32,
        totals_raw: &[u64],
        participants: u32,
    ) {
        let Some(target) = self.upstream_target.or(self.flood_parent) else {
            return;
        };
        self.late_forward_seq += 1;
        let forward_id = u32::from(self.current_round) | (self.late_forward_seq << 16);
        let mut inputs = vec![InputClaim {
            source: MergedRef::Relay {
                sender: from,
                msg_id,
            },
            totals: totals_raw.to_vec(),
            participants,
        }];
        if self.config.integrity == IntegrityMode::Off {
            inputs.clear();
        }
        ctx.obs().inc("icpda_late_forwarded");
        ctx.send(
            target,
            IcpdaMsg::Upstream {
                msg_id: forward_id,
                totals: totals_raw.to_vec(),
                participants,
                inputs,
            },
        );
    }

    /// Accuses `accused`, once per round: the base station records the
    /// alarm itself, any other node sends it to its flood parent. Returns
    /// whether the accusation is new.
    fn raise_alarm(&mut self, ctx: &mut Context<'_, IcpdaMsg>, accused: NodeId) -> bool {
        if !self.alarms_raised.insert(accused) {
            return false;
        }
        let accuser = ctx.id();
        if self.is_base_station {
            self.bs_alarms.push((accuser, accused));
        } else if let Some(parent) = self.flood_parent {
            ctx.send(parent, IcpdaMsg::Alarm { accuser, accused });
        }
        true
    }

    /// Shared audit path for received and overheard upstream reports.
    fn audit_upstream(
        &mut self,
        ctx: &mut Context<'_, IcpdaMsg>,
        sender: NodeId,
        msg_id: u32,
        totals: &[Fp],
        participants: u32,
        inputs: &[InputClaim],
    ) {
        if self.config.integrity == IntegrityMode::Off {
            return;
        }
        let outcome = self
            .monitor
            .check(totals, participants, inputs, self.config.threshold);
        match outcome {
            CheckOutcome::Violation(kind) => {
                ctx.obs().inc(match kind {
                    ViolationKind::InconsistentSum => "icpda_violation_inconsistent",
                    ViolationKind::ForgedInput => "icpda_violation_forged_input",
                });
                if self.raise_alarm(ctx, sender) {
                    ctx.obs().inc("icpda_alarm_raised");
                }
            }
            CheckOutcome::Clean => ctx.obs().inc("icpda_audit_clean"),
            CheckOutcome::PartialClean => ctx.obs().inc("icpda_audit_partial"),
            CheckOutcome::Unknown => ctx.obs().inc("icpda_audit_unknown"),
        }
        // Cache after checking (a sender's own message must not vouch for
        // itself).
        self.monitor.record_upstream(
            sender,
            msg_id,
            CachedAggregate {
                totals: totals.to_vec(),
                participants,
            },
        );
    }

    fn handle_upstream(
        &mut self,
        ctx: &mut Context<'_, IcpdaMsg>,
        from: NodeId,
        msg_id: u32,
        totals_raw: &[u64],
        participants: u32,
        inputs: &[InputClaim],
    ) {
        // Any upstream report marks the start of this node's ascent/
        // verification window (intermediate nodes absorb children before
        // their own slot; the base station only ever receives).
        obs_phase_start(ctx, PHASE_ASCENT_VERIFY);
        if totals_raw.len() != self.components() {
            ctx.obs().inc("icpda_upstream_malformed");
            return;
        }
        let totals: Vec<Fp> = totals_raw.iter().map(|&v| Fp::new(v)).collect();
        if !self.seen_upstream.insert((from, msg_id)) {
            ctx.obs().inc("icpda_upstream_duplicate");
            ctx.obs().inc("icpda_rel_duplicate");
            return;
        }
        // Byzantine hook (ascent): a SelectiveForward node black-holes
        // its children's reports — absorbed into nothing, forwarded
        // nowhere. The base station itself never drops (node 0 is
        // honest by construction).
        if !self.is_base_station && self.behavior == Behavior::SelectiveForward {
            ctx.obs().inc("icpda_adv_dropped_upstream");
            ctx.trace_adversary(self.behavior.code());
            return;
        }
        // With the integrity layer on, every honest report carries an
        // audit trail (a head lists its cluster, a relay its inputs).
        // A non-empty report without one is a protocol violation —
        // refuse it and raise an alarm instead of absorbing blind data.
        if self.config.integrity == IntegrityMode::On
            && inputs.is_empty()
            && (participants > 0 || totals.iter().any(|t| !t.is_zero()))
        {
            ctx.obs().inc("icpda_upstream_unaudited");
            self.raise_alarm(ctx, from);
            return;
        }
        self.audit_upstream(ctx, from, msg_id, &totals, participants, inputs);
        if self.is_base_station {
            let mut totals = totals;
            let mut participants = participants;
            if self.config.crash_recovery {
                // Recovery can duplicate inputs (a takeover racing a slow
                // head, a reroute whose parent was alive after all). Claim
                // sources are unique per round, so a source seen twice is
                // subtracted once before absorbing.
                for claim in inputs {
                    if !self.bs_merged_refs.insert(claim.source) {
                        ctx.obs().inc("icpda_bs_dedup");
                        for (t, &c) in totals.iter_mut().zip(&claim.totals) {
                            *t -= Fp::new(c);
                        }
                        participants = participants.saturating_sub(claim.participants);
                    }
                }
            }
            for (acc, &t) in self.upstream_acc.iter_mut().zip(&totals) {
                *acc += t;
            }
            self.upstream_participants += participants;
            self.bs_last_update = Some(ctx.now());
            return;
        }
        if self.upstream_sent {
            ctx.obs().inc("icpda_upstream_late");
            if self.config.crash_recovery {
                self.late_forward(ctx, from, msg_id, totals_raw, participants);
            }
            return;
        }
        for (acc, &t) in self.upstream_acc.iter_mut().zip(&totals) {
            *acc += t;
        }
        self.upstream_participants += participants;
        self.absorbed_inputs.push(InputClaim {
            source: MergedRef::Relay {
                sender: from,
                msg_id,
            },
            totals: totals_raw.to_vec(),
            participants,
        });
    }

    fn handle_alarm(&mut self, ctx: &mut Context<'_, IcpdaMsg>, accuser: NodeId, accused: NodeId) {
        if self.is_base_station {
            if !self.bs_alarms.contains(&(accuser, accused)) {
                self.bs_alarms.push((accuser, accused));
            }
            return;
        }
        if self.alarms_forwarded.insert((accuser, accused)) {
            if let Some(parent) = self.flood_parent {
                ctx.send(parent, IcpdaMsg::Alarm { accuser, accused });
            }
        }
    }

    /// Liveness bookkeeping (crash recovery): any frame from our head
    /// proves it alive; any frame from our flood parent after our own
    /// upstream send proves the parent is still there to forward.
    fn note_frame_from(&mut self, from: NodeId) {
        if let Role::Member(head) = self.role {
            if from == head {
                self.head_alive_seen = true;
            }
        }
        if self.upstream_sent && self.flood_parent == Some(from) {
            self.parent_forwarded = true;
        }
    }

    fn handle_beacon_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        if !self.config.crash_recovery || self.role != Role::Head || self.has_resigned {
            return;
        }
        ctx.obs().inc("icpda_beacon_sent");
        ctx.broadcast(IcpdaMsg::HeadBeacon { head: ctx.id() });
    }

    fn handle_decision_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        let totals: Vec<u64> = self.upstream_acc.iter().map(|f| f.to_u64()).collect();
        let value = self.config.function.decode(&totals);
        let accepted = self.bs_alarms.is_empty();
        ctx.obs().inc(if accepted {
            "icpda_round_accepted"
        } else {
            "icpda_round_rejected"
        });
        self.decisions.push(BsDecision {
            totals,
            participants: self.upstream_participants,
            value,
            alarms: std::mem::take(&mut self.bs_alarms),
            accepted,
        });
        // More rounds? Reuse the formed clusters: flood a round marker
        // and schedule the next decision.
        if self.decisions.len() < usize::from(self.config.rounds) {
            let round = self.current_round + 1;
            self.begin_round(ctx, round);
            ctx.broadcast(IcpdaMsg::NewRound { round });
            ctx.set_timer(self.config.schedule.decision_time(), TIMER_DECISION);
        }
    }
}

impl Application for IcpdaNode {
    type Message = IcpdaMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        if self.is_base_station {
            ctx.broadcast(IcpdaMsg::Query { level: 0 });
            ctx.set_timer(self.config.schedule.decision_time(), TIMER_DECISION);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, IcpdaMsg>, from: NodeId, msg: &IcpdaMsg) {
        if self.config.crash_recovery {
            self.note_frame_from(from);
        }
        match msg {
            IcpdaMsg::Query { level } => self.handle_query(ctx, from, *level),
            IcpdaMsg::HeadAnnounce => {
                if !self.is_base_station {
                    // Duplicate-safe: a retransmitted or channel-duplicated
                    // announce must not skew the head-pick distribution.
                    if self.heads_heard.contains(&from) {
                        ctx.obs().inc("icpda_rel_duplicate");
                    } else {
                        self.heads_heard.push(from);
                    }
                }
            }
            IcpdaMsg::Resign { head } => {
                // Only the head itself may resign its cluster. Duplicate
                // deliveries must not re-schedule (or re-draw) anything.
                if from == *head {
                    if self.resigned_heads.insert(*head) {
                        if self.role == Role::Member(*head) {
                            self.schedule_rejoin(ctx);
                        }
                    } else {
                        ctx.obs().inc("icpda_rel_duplicate");
                    }
                }
            }
            IcpdaMsg::Join { head } => {
                if *head == ctx.id()
                    && self.role == Role::Head
                    && !self.has_resigned
                    && self.roster.is_none()
                {
                    // Duplicate-safe: one roster slot per joiner no matter
                    // how many copies of the Join arrive.
                    if self.joiners.contains(&from) {
                        ctx.obs().inc("icpda_rel_duplicate");
                    } else {
                        self.joiners.push(from);
                    }
                }
            }
            IcpdaMsg::ClusterInfo {
                head,
                members,
                stagger_ms,
            } => {
                self.handle_cluster_info(ctx, from, *head, members, *stagger_ms);
            }
            IcpdaMsg::Share {
                cluster,
                origin,
                sealed,
            } => self.handle_share(ctx, *origin, *cluster, sealed),
            IcpdaMsg::ShareRelay {
                cluster,
                origin,
                to,
                sealed,
            } => self.handle_share_relay(ctx, *cluster, *origin, *to, sealed.clone()),
            IcpdaMsg::RawReading { cluster, sealed } => {
                self.handle_raw_reading(ctx, from, *cluster, sealed);
            }
            IcpdaMsg::ShareNack {
                cluster,
                requester,
                missing,
            } => {
                let _ = from;
                self.handle_share_nack(ctx, *cluster, *requester, missing);
            }
            IcpdaMsg::FSum {
                cluster,
                values,
                contributors,
            } => self.handle_fsum(ctx, from, *cluster, values, *contributors),
            IcpdaMsg::FsumNack { cluster, missing } => {
                self.handle_fsum_nack(ctx, from, *cluster, *missing);
            }
            IcpdaMsg::FsumEcho {
                cluster,
                position,
                values,
                contributors,
            } => self.handle_fsum_echo(
                ctx,
                from,
                *cluster,
                usize::from(*position),
                values,
                *contributors,
            ),
            IcpdaMsg::Upstream {
                msg_id,
                totals,
                participants,
                inputs,
            } => self.handle_upstream(ctx, from, *msg_id, totals, *participants, inputs),
            IcpdaMsg::NewRound { round } => self.handle_new_round(ctx, *round),
            IcpdaMsg::HeadBeacon { head } => {
                // Pure liveness signal — `note_frame_from` above already
                // recorded it; re-check here so a beacon overheard from a
                // head we joined but whose roster we missed still counts.
                if from == *head && self.role == Role::Member(*head) {
                    self.head_alive_seen = true;
                }
            }
            IcpdaMsg::Alarm { accuser, accused } => self.handle_alarm(ctx, *accuser, *accused),
        }
    }

    /// Crash recovery reads every overheard frame as liveness evidence
    /// (`note_frame_from`); otherwise only upstream reports are audited.
    fn overhears(&self, frame: &Frame<IcpdaMsg>) -> bool {
        self.config.crash_recovery || matches!(*frame.payload, IcpdaMsg::Upstream { .. })
    }

    fn on_overhear(&mut self, ctx: &mut Context<'_, IcpdaMsg>, frame: &Frame<IcpdaMsg>) {
        if self.config.crash_recovery {
            self.note_frame_from(frame.src);
        }
        // Promiscuous monitoring: audit unicast upstream reports addressed
        // to other nodes.
        if let IcpdaMsg::Upstream {
            msg_id,
            totals,
            participants,
            inputs,
        } = &*frame.payload
        {
            if totals.len() == self.components() {
                let totals: Vec<Fp> = totals.iter().map(|&v| Fp::new(v)).collect();
                self.audit_upstream(ctx, frame.src, *msg_id, &totals, *participants, inputs);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>, token: TimerToken) {
        match token {
            TIMER_ELECT => {
                // Election marks the flood settling into formation.
                obs_phase_end(ctx, PHASE_QUERY_FLOOD);
                obs_phase_start(ctx, PHASE_CLUSTER_FORMATION);
                self.handle_elect(ctx);
            }
            TIMER_JOIN => self.handle_join_timer(ctx),
            TIMER_ROSTER => {
                // Broadcasting the roster fixes the head's cluster.
                self.handle_roster_timer(ctx);
                obs_phase_end(ctx, PHASE_CLUSTER_FORMATION);
            }
            TIMER_SHARES => {
                obs_phase_start(ctx, PHASE_SHARE_EXCHANGE);
                self.handle_shares_timer(ctx);
            }
            TIMER_SHARE_DRAIN => self.drain_one_share(ctx),
            TIMER_REPAIR | TIMER_REPAIR2 => self.handle_repair_timer(ctx),
            TIMER_FLOOD_RELAY => {
                if let Some(msg) = self.pending_flood.take() {
                    ctx.broadcast(msg);
                }
            }
            TIMER_FSUM => {
                obs_phase_end(ctx, PHASE_SHARE_EXCHANGE);
                obs_phase_start(ctx, PHASE_AGGREGATION);
                self.handle_fsum_timer(ctx);
            }
            TIMER_FSUM_REPAIR => self.handle_fsum_repair_timer(ctx),
            TIMER_ROSTER_REPEAT => self.on_repeat(ctx, Repeat::Roster),
            TIMER_RESIGN => self.handle_resign_timer(ctx),
            TIMER_REJOIN => {
                self.handle_rejoin_timer(ctx);
                // A resigned head's formation (still open) and a
                // crash-recovery episode both resolve here; either close
                // is a no-op when that span is not open.
                obs_phase_end(ctx, PHASE_CLUSTER_FORMATION);
                obs_phase_end(ctx, PHASE_CRASH_RECOVERY);
            }
            TIMER_SOLVE => {
                obs_phase_start(ctx, PHASE_AGGREGATION);
                self.handle_solve_timer(ctx);
                obs_phase_end(ctx, PHASE_AGGREGATION);
            }
            TIMER_UPSTREAM => {
                obs_phase_start(ctx, PHASE_ASCENT_VERIFY);
                self.handle_upstream_timer(ctx);
            }
            TIMER_UPSTREAM_REPEAT => self.on_repeat(ctx, Repeat::Upstream),
            TIMER_DECISION => {
                // The base station's verification window closes with the
                // round's verdict.
                self.handle_decision_timer(ctx);
                obs_phase_end(ctx, PHASE_ASCENT_VERIFY);
            }
            TIMER_HEAD_CHECK => self.handle_head_check(ctx),
            TIMER_PARENT_CHECK => self.handle_parent_check(ctx),
            TIMER_BEACON => self.handle_beacon_timer(ctx),
            TIMER_ANNOUNCE_REPEAT => self.on_repeat(ctx, Repeat::Announce),
            TIMER_JOIN_REPEAT => self.on_repeat(ctx, Repeat::Join),
            TIMER_SHARES_REPEAT => self.on_repeat(ctx, Repeat::Shares),
            TIMER_FSUM_REPEAT => self.on_repeat(ctx, Repeat::Fsum),
            _ => {}
        }
    }
}
