//! Per-node Byzantine behaviours and the CPDA collusion attack.
//!
//! [`AdversaryPlan`] is the malicious counterpart of
//! [`wsn_sim::fault::FaultPlan`]: a deterministic, ahead-of-time
//! assignment of a [`Behavior`] to individual nodes, installed by
//! [`crate::runner::IcpdaRun::with_adversary_plan`] and enforced by
//! behaviour hooks inside the [`crate::node::IcpdaNode`] state machine.
//! Each behaviour subverts one protocol phase:
//!
//! * [`Behavior::GarbageShares`] — share exchange: the node distributes
//!   uniformly random field elements instead of its blinded polynomial
//!   evaluations, silently corrupting its cluster's recovered sum.
//! * [`Behavior::PolluteAggregate`] — upstream aggregation: the node
//!   replaces its honest partial aggregate with a polluted one (any
//!   [`Pollution`] embedding), the attack the audit-trail layer detects.
//! * [`Behavior::ColludePrivacy`] — passive: the node runs the protocol
//!   faithfully but pools its received shares, outgoing shares and
//!   overheard `FSum` broadcasts with the other colluders after the
//!   round (see [`evaluate_collusion`]).
//! * [`Behavior::SelectiveForward`] — ascent: the node absorbs nothing
//!   and forwards nothing for its children, black-holing the subtree.
//!
//! An **empty** plan is a strict no-op: no hook fires, no extra RNG draw
//! happens, and runs are byte-identical to a build that has never heard
//! of adversaries (the golden-trace test enforces this).
//!
//! Node 0 is the base station and is never compromisable, mirroring the
//! fault layer's immortality rule.
//!
//! # The published collusion attack
//!
//! Sen & Maitra (arXiv:1201.4532) break the CPDA privacy layer when all
//! `m − 1` other members of a cluster collude against the remaining
//! honest member `x`: the colluders directly hold `m − 1` evaluations of
//! `x`'s blinding polynomial (the shares `x` sent them), and they derive
//! the `m`-th — `x`'s kept share — from `x`'s *broadcast* assembly by
//! subtracting their own shares to `x`:
//!
//! ```text
//! v_{p_x}^x = F_{p_x} − Σ_{j≠x} v_{p_x}^j
//! ```
//!
//! With `m` points of a degree-`(m−1)` polynomial, Lagrange
//! interpolation at zero yields `x`'s private contribution exactly.
//! [`evaluate_collusion`] reproduces this from the simulated nodes'
//! actual protocol state ([`CollusionView`]) and verifies each recovered
//! value against the victim's ground-truth reading. The countermeasure
//! is the paper's own: the attack needs *every* other member, so the
//! disclosure probability under a compromised-node fraction `f` is
//! `f^{m−1}` per member — the `icpda-analysis` closed form
//! (`disclosure_probability`) that experiment `fig19_adversary` checks
//! against measurement.

use crate::attack::Pollution;
use crate::cluster::Roster;
use crate::shares::{recover_sum_at, ShareVector};
use agg::AggFunction;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::fmt;
use wsn_sim::NodeId;

/// One node's assigned malicious behaviour (the default is honest).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Behavior {
    /// Honest protocol execution — assigning it removes the node from
    /// the plan, so an all-`Lawful` plan *is* the empty plan.
    #[default]
    Lawful,
    /// Sends uniformly random field elements instead of blinded shares.
    GarbageShares,
    /// Replaces the node's upstream partial aggregate with a polluted
    /// one.
    PolluteAggregate(Pollution),
    /// Runs honestly but pools its round state with the other colluders
    /// to reconstruct honest members' readings (passive attack).
    ColludePrivacy,
    /// Drops every child report instead of absorbing and forwarding it.
    SelectiveForward,
}

impl Behavior {
    /// The trace-note discriminant recorded with
    /// [`wsn_sim::trace::TraceKind::AdversaryAction`] (0 = lawful,
    /// never recorded).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Behavior::Lawful => 0,
            Behavior::GarbageShares => 1,
            Behavior::PolluteAggregate(_) => 2,
            Behavior::ColludePrivacy => 3,
            Behavior::SelectiveForward => 4,
        }
    }
}

/// A rejected adversary-plan edit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdversaryPlanError {
    /// Node 0 (the base station) can never be compromised.
    NodeZeroHonest,
    /// A compromise fraction outside `[0, 1]`.
    InvalidFraction(f64),
}

impl fmt::Display for AdversaryPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversaryPlanError::NodeZeroHonest => {
                write!(f, "node 0 (the base station) is never compromisable")
            }
            AdversaryPlanError::InvalidFraction(fr) => {
                write!(f, "compromise fraction {fr} is outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for AdversaryPlanError {}

/// A deterministic assignment of malicious behaviours to nodes.
///
/// # Examples
///
/// ```
/// use icpda::adversary::{AdversaryPlan, Behavior};
/// use icpda::Pollution;
/// use wsn_sim::NodeId;
///
/// let mut plan = AdversaryPlan::none();
/// plan.assign(NodeId::new(3), Behavior::PolluteAggregate(Pollution::inflate(500)))
///     .unwrap();
/// assert_eq!(plan.compromised_count(), 1);
/// assert_eq!(plan.behavior_of(NodeId::new(9)), Behavior::Lawful);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdversaryPlan {
    assignments: BTreeMap<NodeId, Behavior>,
}

impl AdversaryPlan {
    /// The empty plan: every node honest, every hook dormant.
    #[must_use]
    pub fn none() -> Self {
        AdversaryPlan::default()
    }

    /// `true` when no node is compromised.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Number of compromised nodes.
    #[must_use]
    pub fn compromised_count(&self) -> usize {
        self.assignments.len()
    }

    /// Assigns `behavior` to `node`. Assigning [`Behavior::Lawful`]
    /// clears any earlier assignment (the empty plan stays empty).
    ///
    /// # Errors
    ///
    /// [`AdversaryPlanError::NodeZeroHonest`] if `node` is the base
    /// station.
    pub fn assign(&mut self, node: NodeId, behavior: Behavior) -> Result<(), AdversaryPlanError> {
        if node.index() == 0 {
            return Err(AdversaryPlanError::NodeZeroHonest);
        }
        if behavior == Behavior::Lawful {
            self.assignments.remove(&node);
        } else {
            self.assignments.insert(node, behavior);
        }
        Ok(())
    }

    /// The behaviour assigned to `node` ([`Behavior::Lawful`] if none).
    #[must_use]
    pub fn behavior_of(&self, node: NodeId) -> Behavior {
        self.assignments
            .get(&node)
            .copied()
            .unwrap_or(Behavior::Lawful)
    }

    /// Iterates over `(node, behaviour)` for every compromised node, in
    /// node order.
    pub fn compromised(&self) -> impl Iterator<Item = (NodeId, Behavior)> + '_ {
        self.assignments.iter().map(|(&n, &b)| (n, b))
    }

    /// Nodes assigned [`Behavior::ColludePrivacy`], in node order.
    pub fn colluders(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.assignments
            .iter()
            .filter(|(_, &b)| b == Behavior::ColludePrivacy)
            .map(|(&n, _)| n)
    }

    /// Generates a seeded random compromise over `n` nodes: each node
    /// except the base station adopts `behavior` with probability
    /// `fraction`. The generator is its own deterministic stream — it
    /// never touches the simulator's RNGs, so the honest remainder of
    /// the network draws exactly what it would in a clean run.
    ///
    /// # Errors
    ///
    /// [`AdversaryPlanError::InvalidFraction`] unless
    /// `0 <= fraction <= 1`.
    pub fn random_compromise(
        n: usize,
        fraction: f64,
        behavior: Behavior,
        seed: u64,
    ) -> Result<AdversaryPlan, AdversaryPlanError> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(AdversaryPlanError::InvalidFraction(fraction));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBAD0_5EED_0ADA_0002);
        let mut plan = AdversaryPlan::none();
        for i in 1..n {
            if rng.gen_bool(fraction) {
                plan.assign(NodeId::new(i as u32), behavior)
                    .map_err(|_| AdversaryPlanError::InvalidFraction(fraction))?;
            }
        }
        Ok(plan)
    }

    /// The targeted `m − 1` attack: every member of `members` except
    /// `target` turns [`Behavior::ColludePrivacy`] — the published
    /// attack's exact success condition.
    ///
    /// # Errors
    ///
    /// [`AdversaryPlanError::NodeZeroHonest`] if a non-target member is
    /// the base station (never the case for real cluster rosters).
    pub fn collude_all_but_one(
        &mut self,
        members: &[NodeId],
        target: NodeId,
    ) -> Result<(), AdversaryPlanError> {
        for &member in members {
            if member != target {
                self.assign(member, Behavior::ColludePrivacy)?;
            }
        }
        Ok(())
    }
}

/// One node's end-of-round protocol state, as pooled by the colluders
/// (plus the ground-truth `reading`, which only the *evaluation* sees —
/// the attack itself never reads it; it is used to verify that the
/// recovered value really is the victim's contribution).
///
/// Harvested by [`crate::node::IcpdaNode::collusion_view`].
#[derive(Clone, Debug)]
pub struct CollusionView {
    /// The roster the node participated under (`None` if clusterless).
    pub roster: Option<Roster>,
    /// Whether the node actually transmitted shares this round.
    pub shared: bool,
    /// Ground-truth private reading (verification only).
    pub reading: u64,
    /// Shares received, keyed by origin (own kept share under own id).
    pub received_shares: BTreeMap<NodeId, ShareVector>,
    /// Shares sent, keyed by destination.
    pub outgoing_shares: BTreeMap<NodeId, ShareVector>,
    /// Assemblies held, keyed by roster position:
    /// `(F_j, contributor mask)`.
    pub fsums: BTreeMap<usize, (ShareVector, u64)>,
}

/// What the colluders managed to reconstruct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollusionReport {
    /// Nodes assigned [`Behavior::ColludePrivacy`].
    pub colluders: usize,
    /// Honest members that shared in a (≥ 2)-cluster — the population at
    /// risk.
    pub targets: usize,
    /// Targets whose private contribution the colluders reconstructed.
    pub exposed: usize,
    /// Exposed targets whose reconstruction matches the ground-truth
    /// reading (must equal `exposed`: the attack is exact, not
    /// statistical).
    pub verified: usize,
}

impl CollusionReport {
    /// Measured disclosure probability: exposed fraction of the at-risk
    /// population.
    #[must_use]
    pub fn probability(&self) -> f64 {
        if self.targets == 0 {
            0.0
        } else {
            self.exposed as f64 / self.targets as f64
        }
    }

    /// `true` when every reconstruction matched its victim's reading.
    #[must_use]
    pub fn all_verified(&self) -> bool {
        self.exposed == self.verified
    }
}

/// Pools the colluders' round state and runs the arXiv:1201.4532
/// reconstruction against every honest sharing member whose *entire*
/// cluster complement colludes.
///
/// For each such victim `x` at roster position `p_x`, the solver takes
/// the `m − 1` shares `x` distributed (each colluder `j`'s
/// `received_shares[x]`), derives `x`'s kept share from `x`'s broadcast
/// assembly (`F_{p_x}`, held by any colluder, minus the colluders' own
/// `outgoing_shares[x]`), and interpolates the `m` points at zero. The
/// derivation needs `F_{p_x}` to cover the full roster (partial
/// assemblies would subtract shares `x` never absorbed), so incomplete
/// clusters count as unexposed.
#[must_use]
pub fn evaluate_collusion(
    plan: &AdversaryPlan,
    views: &BTreeMap<NodeId, CollusionView>,
    function: AggFunction,
) -> CollusionReport {
    let mut report = CollusionReport {
        colluders: plan.colluders().count(),
        ..CollusionReport::default()
    };
    for (&victim, view) in views {
        if plan.behavior_of(victim) == Behavior::ColludePrivacy {
            continue;
        }
        let Some(roster) = view.roster.as_ref() else {
            continue;
        };
        if !view.shared || roster.len() < 2 || !roster.contains(victim) {
            continue;
        }
        report.targets += 1;
        if let Some(recovered) = reconstruct(plan, views, victim, roster) {
            report.exposed += 1;
            let truth = function.encode(view.reading);
            if recovered.len() == truth.len()
                && recovered.iter().zip(&truth).all(|(f, &t)| f.to_u64() == t)
            {
                report.verified += 1;
            }
        }
    }
    report
}

/// The reconstruction itself: `Some(contribution)` iff every other
/// member of `victim`'s roster colludes and the pooled state suffices.
fn reconstruct(
    plan: &AdversaryPlan,
    views: &BTreeMap<NodeId, CollusionView>,
    victim: NodeId,
    roster: &Roster,
) -> Option<ShareVector> {
    let p_x = roster.position(victim)?;
    let others: Vec<NodeId> = roster
        .members()
        .iter()
        .copied()
        .filter(|&m| m != victim)
        .collect();
    if others
        .iter()
        .any(|&m| plan.behavior_of(m) != Behavior::ColludePrivacy)
    {
        return None;
    }
    // The m − 1 directly-held points: the shares the victim distributed.
    let mut points: Vec<(usize, ShareVector)> = Vec::with_capacity(roster.len());
    for &j in &others {
        let p_j = roster.position(j)?;
        points.push((p_j, views.get(&j)?.received_shares.get(&victim)?.clone()));
    }
    // The m-th point: the victim's kept share, derived from its
    // broadcast assembly. Any colluder holding F_{p_x} with the full
    // contributor mask will do.
    let (assembly, _) = others.iter().find_map(|j| {
        views
            .get(j)?
            .fsums
            .get(&p_x)
            .filter(|&&(_, mask)| mask == roster.full_mask())
    })?;
    let mut kept = assembly.clone();
    for &j in &others {
        let sent = views.get(&j)?.outgoing_shares.get(&victim)?;
        if sent.len() != kept.len() {
            return None;
        }
        for (k, &s) in kept.iter_mut().zip(sent) {
            *k -= s;
        }
    }
    points.push((p_x, kept));
    recover_sum_at(&points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shares::{assemble, generate_shares};
    use agg::field::Fp;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn empty_plan_is_empty_and_lawful() {
        let plan = AdversaryPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.compromised_count(), 0);
        assert_eq!(plan.behavior_of(n(7)), Behavior::Lawful);
        assert_eq!(plan.colluders().count(), 0);
    }

    #[test]
    fn node_zero_is_never_compromisable() {
        let mut plan = AdversaryPlan::none();
        assert_eq!(
            plan.assign(n(0), Behavior::GarbageShares),
            Err(AdversaryPlanError::NodeZeroHonest)
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn lawful_assignment_clears_the_node() {
        let mut plan = AdversaryPlan::none();
        plan.assign(n(3), Behavior::SelectiveForward).unwrap();
        assert_eq!(plan.compromised_count(), 1);
        plan.assign(n(3), Behavior::Lawful).unwrap();
        assert!(plan.is_empty(), "all-Lawful plan is the empty plan");
    }

    #[test]
    fn random_compromise_is_deterministic_and_spares_node_zero() {
        let a = AdversaryPlan::random_compromise(100, 0.3, Behavior::ColludePrivacy, 42).unwrap();
        let b = AdversaryPlan::random_compromise(100, 0.3, Behavior::ColludePrivacy, 42).unwrap();
        assert_eq!(a, b);
        assert!(a.compromised_count() > 0);
        assert_eq!(a.behavior_of(n(0)), Behavior::Lawful);
        assert!(a
            .compromised()
            .all(|(node, b)| { node.index() != 0 && b == Behavior::ColludePrivacy }));
    }

    #[test]
    fn random_compromise_validates_fraction() {
        assert_eq!(
            AdversaryPlan::random_compromise(50, 1.5, Behavior::GarbageShares, 1),
            Err(AdversaryPlanError::InvalidFraction(1.5))
        );
        assert!(
            AdversaryPlan::random_compromise(50, 0.0, Behavior::GarbageShares, 1)
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn error_display_is_informative() {
        assert!(AdversaryPlanError::NodeZeroHonest
            .to_string()
            .contains("base station"));
        assert!(AdversaryPlanError::InvalidFraction(2.0)
            .to_string()
            .contains('2'));
    }

    /// Builds the full post-round state of one honest m-cluster exactly
    /// as the protocol produces it: every member's distributed shares,
    /// received shares, and all m broadcast assemblies.
    fn cluster_views(
        members: &[NodeId],
        readings: &[u64],
        function: AggFunction,
        seed: u64,
    ) -> (Roster, BTreeMap<NodeId, CollusionView>) {
        let head = members[0];
        let roster = Roster::new(head, members);
        let m = roster.len();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // all_shares[i][j] = member i's evaluation for roster position j.
        let all_shares: Vec<Vec<ShareVector>> = readings
            .iter()
            .map(|&r| generate_shares(&function.encode(r), m, &mut rng))
            .collect();
        let fsums: BTreeMap<usize, (ShareVector, u64)> = (0..m)
            .map(|j| {
                let at_j: Vec<ShareVector> = all_shares.iter().map(|s| s[j].clone()).collect();
                (j, (assemble(&at_j), roster.full_mask()))
            })
            .collect();
        let views = roster
            .members()
            .iter()
            .enumerate()
            .map(|(j, &node)| {
                let received = roster
                    .members()
                    .iter()
                    .enumerate()
                    .map(|(i, &origin)| (origin, all_shares[i][j].clone()))
                    .collect();
                let outgoing = roster
                    .members()
                    .iter()
                    .enumerate()
                    .filter(|&(_, &dest)| dest != node)
                    .map(|(k, &dest)| (dest, all_shares[j][k].clone()))
                    .collect();
                let view = CollusionView {
                    roster: Some(roster.clone()),
                    shared: true,
                    reading: readings[j],
                    received_shares: received,
                    outgoing_shares: outgoing,
                    fsums: fsums.clone(),
                };
                (node, view)
            })
            .collect();
        (roster, views)
    }

    #[test]
    fn m_minus_one_colluders_expose_the_honest_member_exactly() {
        let members = [n(1), n(2), n(3), n(4)];
        let readings = [17u64, 23, 5, 40];
        let (roster, views) = cluster_views(&members, &readings, AggFunction::Sum, 9);
        let mut plan = AdversaryPlan::none();
        plan.collude_all_but_one(roster.members(), n(2)).unwrap();
        assert_eq!(plan.compromised_count(), 3);

        let report = evaluate_collusion(&plan, &views, AggFunction::Sum);
        assert_eq!(report.colluders, 3);
        assert_eq!(report.targets, 1, "only the honest member is at risk");
        assert_eq!(report.exposed, 1, "the published attack succeeds");
        assert_eq!(report.verified, 1, "and recovers the exact reading");
        assert!(report.all_verified());
        assert_eq!(report.probability(), 1.0);
    }

    #[test]
    fn fewer_than_m_minus_one_colluders_expose_nothing() {
        let members = [n(1), n(2), n(3), n(4)];
        let readings = [17u64, 23, 5, 40];
        let (_, views) = cluster_views(&members, &readings, AggFunction::Sum, 9);
        // Two colluders, two honest members: information-theoretically
        // blind — each honest member's polynomial is missing two points.
        let mut plan = AdversaryPlan::none();
        plan.assign(n(3), Behavior::ColludePrivacy).unwrap();
        plan.assign(n(4), Behavior::ColludePrivacy).unwrap();
        let report = evaluate_collusion(&plan, &views, AggFunction::Sum);
        assert_eq!(report.targets, 2);
        assert_eq!(report.exposed, 0);
        assert_eq!(report.probability(), 0.0);
    }

    #[test]
    fn partial_assembly_blocks_the_kept_share_derivation() {
        let members = [n(1), n(2), n(3)];
        let readings = [8u64, 9, 10];
        let (roster, mut views) = cluster_views(&members, &readings, AggFunction::Sum, 4);
        // Damage every copy of the victim's assembly mask: a partial
        // F_{p_x} would subtract shares the victim never absorbed, so
        // the solver must refuse it rather than emit garbage.
        let p_x = roster.position(n(2)).unwrap();
        for view in views.values_mut() {
            if let Some(entry) = view.fsums.get_mut(&p_x) {
                entry.1 &= !1;
            }
        }
        let mut plan = AdversaryPlan::none();
        plan.collude_all_but_one(roster.members(), n(2)).unwrap();
        let report = evaluate_collusion(&plan, &views, AggFunction::Sum);
        assert_eq!(report.targets, 1);
        assert_eq!(report.exposed, 0);
    }

    #[test]
    fn reconstruction_works_for_every_victim_position() {
        // The derivation must be position-independent (head, first,
        // last): rotate the victim through the whole roster.
        let members = [n(5), n(9), n(11), n(20), n(31)];
        let readings = [100u64, 200, 300, 400, 500];
        for (v, &victim) in members.iter().enumerate() {
            let (roster, views) = cluster_views(&members, &readings, AggFunction::Sum, 77);
            let mut plan = AdversaryPlan::none();
            plan.collude_all_but_one(roster.members(), victim).unwrap();
            let report = evaluate_collusion(&plan, &views, AggFunction::Sum);
            assert_eq!(report.exposed, 1, "victim at position {v} exposed");
            assert_eq!(report.verified, 1, "victim at position {v} verified");
        }
    }

    #[test]
    fn behavior_codes_are_distinct_and_lawful_is_zero() {
        let behaviors = [
            Behavior::Lawful,
            Behavior::GarbageShares,
            Behavior::PolluteAggregate(Pollution::inflate(1)),
            Behavior::ColludePrivacy,
            Behavior::SelectiveForward,
        ];
        let codes: Vec<u8> = behaviors.iter().map(|b| b.code()).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), behaviors.len());
        assert_eq!(Behavior::Lawful.code(), 0);
        assert_eq!(Fp::ZERO.to_u64(), 0, "field sanity");
    }
}
