//! The discrete-event simulation engine.
//!
//! [`Simulator`] owns the deployment, one [`Application`] instance per
//! node, per-node MAC state, the calendar queue of pending events and
//! the metrics. It is single-threaded and fully deterministic: running
//! the same protocol on the same deployment with the same seed produces
//! an identical event trace, which is what makes the paper's seeded
//! multi-trial experiments reproducible.
//!
//! # Medium model
//!
//! * **Carrier sense** — a node defers transmission while any transmission
//!   is audible at its own position, then backs off a random number of
//!   slots (binary exponential, see [`MacConfig`]).
//! * **Receiver-side collisions** — two receptions whose airtimes overlap
//!   at a receiver corrupt each other (no capture effect).
//! * **Half-duplex** — a node that is transmitting cannot receive.
//! * **Promiscuous overhearing** — every successfully received frame is
//!   delivered: as [`Application::on_message`] if addressed to the node,
//!   as [`Application::on_overhear`] otherwise (for the frames
//!   [`Application::overhears`] accepts; metrics and trace count all).

use crate::app::{Application, Command, Context, TimerId, TimerToken};
use crate::arena::FrameArena;
use crate::calendar::CalendarQueue;
use crate::channel::{corrupted_checksum, frame_checksum, ChannelPlan};
use crate::fault::FaultPlan;
use crate::frame::{Destination, Frame};
use crate::ids::NodeId;
use crate::mac::MacConfig;
use crate::metrics::{EnergyModel, LossCause, Metrics};
use crate::profile::{EngineProfile, EngineProfiler};
use crate::radio::{LossModel, RadioConfig};
use crate::time::{SimDuration, SimTime};
use crate::topology::Deployment;
use crate::trace::{Trace, TraceKind, TraceLevel};
use icpda_obs::{Obs, ObsLevel, SpanSnapshot};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Engine-level configuration: radio, MAC, loss and energy models.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimConfig {
    /// Physical-layer parameters.
    pub radio: RadioConfig,
    /// Medium-access parameters.
    pub mac: MacConfig,
    /// Stochastic loss applied per reception.
    pub loss: LossModel,
    /// Energy cost model.
    pub energy: EnergyModel,
    /// Retained entries of the link-layer event trace
    /// ([`crate::trace::Trace`]); 0 disables tracing.
    pub trace_capacity: usize,
    /// Which event classes the trace retains (see [`TraceLevel`]).
    /// Irrelevant while `trace_capacity` is 0.
    pub trace_level: TraceLevel,
    /// How much the run's observability registry records (see
    /// [`ObsLevel`]; `Off` by default — protocol counters only, one
    /// branch per other instrumentation point, byte-identical engine
    /// behavior).
    pub obs_level: ObsLevel,
    /// Engine self-profiling (see [`crate::profile`]): wall-clock
    /// attribution of pop/dispatch per event kind, frozen into
    /// `profile.jsonl` via [`Simulator::engine_profile`]. Host-facts
    /// only — the simulation never observes the readings, so traces stay
    /// byte-identical with profiling on or off.
    pub profile: bool,
    /// Rounds retained by the flight recorder
    /// ([`crate::trace::FlightRecorder`]); 0 disables it. Recording
    /// obeys `trace_level` like every other trace consumer.
    pub flight_rounds: usize,
}

impl SimConfig {
    /// The paper's setup: 1 Mbps radio, CSMA defaults, no extra stochastic
    /// loss (collisions only), mote energy model.
    #[must_use]
    pub fn paper_default() -> Self {
        SimConfig::default()
    }

    /// An idealised lossless configuration: no jitter, no stochastic
    /// loss. Collisions can still occur if two nodes transmit at exactly
    /// the same instant, so tests using this config should serialise
    /// transmissions in time.
    #[must_use]
    pub fn ideal() -> Self {
        SimConfig {
            mac: MacConfig::ideal(),
            ..SimConfig::default()
        }
    }
}

#[derive(Debug)]
enum EventKind<M> {
    Timer {
        node: NodeId,
        token: TimerToken,
        id: TimerId,
    },
    MacAttempt {
        node: NodeId,
    },
    /// The end of a transmission that reached no receiver.
    TxEnd {
        node: NodeId,
    },
    /// One transmission's entire fan-out: the frame reaches every node in
    /// `receivers` (those that passed the sense/half-duplex checks at
    /// transmission start) at the same instant — airtime is
    /// distance-independent — so a single heap event carries all of them.
    /// Receivers are delivered in the order they were admitted
    /// (ascending node id), which is exactly the order the per-receiver
    /// events of an unbatched engine would execute in: their (time, seq)
    /// keys were contiguous, so no foreign event could interleave. The
    /// transmitter's end-of-transmission step runs right after the
    /// fan-out: everything the fan-out schedules gets a later seq, so
    /// nothing can run between the two.
    Delivery {
        frame: Frame<M>,
        receivers: Vec<NodeId>,
    },
    /// A fault-plan transition edge for `node`; the handler re-evaluates
    /// the plan at the current time, so stale edges are harmless.
    FaultEdge {
        node: NodeId,
    },
    /// A reception the channel plan held back for reordering: the frame
    /// already survived the loss gauntlet at its original delivery time
    /// and is dispatched to `node` when this event fires.
    Redelivery {
        frame: Frame<M>,
        node: NodeId,
    },
}

/// One node's radio: everything the per-receiver steps of a
/// transmission read and write, in one record, so a fan-out touches one
/// small record per neighbour.
///
/// Receptions at a node form *receive busy periods*: maximal runs in
/// which every reception starts while an earlier one of the run is still
/// in the air. A reception is corrupted iff its period holds two or more
/// receptions. That is exactly the pairwise rule "two receptions whose
/// airtimes overlap corrupt each other": receptions are admitted in
/// start order, a reception that joins a period overlaps a member still
/// in the air, and one that opens a period overlaps no earlier
/// reception, so a period is a connected run of overlaps and every
/// member of a run of two or more overlaps some other member.
#[derive(Clone, Copy, Debug, Default)]
struct Radio {
    /// Carrier sense: the latest end of any transmission audible here,
    /// the node's own included.
    medium_busy_until: SimTime,
    /// Half-duplex: the end of the node's own transmission.
    tx_busy_until: SimTime,
    /// Start of the current receive busy period.
    rx_start: SimTime,
    /// Latest end among the current period's receptions.
    rx_end: SimTime,
    /// The current period holds two or more receptions.
    rx_collided: bool,
    /// The previous period held two or more receptions.
    prev_collided: bool,
    /// Down under the fault plan: deaf, mute and timer-less.
    down: bool,
}

impl Radio {
    /// The node puts a frame on the air until `end`.
    fn start_tx(&mut self, end: SimTime) {
        self.tx_busy_until = end;
        self.medium_busy_until = self.medium_busy_until.max(end);
    }

    /// A neighbour's transmission over `[now, end)` reaches this node.
    /// Returns the cause if the reception is lost at once; otherwise the
    /// node locks on and delivery decides the reception's fate.
    fn admit(&mut self, now: SimTime, end: SimTime) -> Option<LossCause> {
        if self.down {
            // The radio is off: the node does not even sense the medium.
            return Some(LossCause::ReceiverDown);
        }
        self.medium_busy_until = self.medium_busy_until.max(end);
        if self.tx_busy_until > now {
            return Some(LossCause::HalfDuplex);
        }
        if self.rx_end > now {
            self.rx_end = self.rx_end.max(end);
            self.rx_collided = true;
        } else {
            self.prev_collided = self.rx_collided;
            self.rx_start = now;
            self.rx_end = end;
            self.rx_collided = false;
        }
        None
    }

    /// The fate of an admitted reception that started at `start` and
    /// ends now. Airtimes are positive (every frame carries the PHY
    /// header), so a period that opens after the reception's own can
    /// only open at this instant, when the reception's period ends: the
    /// reception belongs to the current period iff it started no
    /// earlier, and otherwise to the previous one.
    fn delivery_loss(&self, start: SimTime) -> Option<LossCause> {
        if self.down {
            return Some(LossCause::ReceiverDown);
        }
        let collided = if start >= self.rx_start {
            self.rx_collided
        } else {
            self.prev_collided
        };
        collided.then_some(LossCause::Collision)
    }
}

struct MacState<M> {
    queue: VecDeque<Frame<M>>,
    attempts: u32,
    /// A `MacAttempt` event is pending or a transmission is in progress.
    active: bool,
}

impl<M> Default for MacState<M> {
    fn default() -> Self {
        MacState {
            queue: VecDeque::new(),
            attempts: 0,
            active: false,
        }
    }
}

/// Liveness of every timer ever set, one bit per [`TimerId`]: ids are
/// handed out by one monotone counter, so the set is a bitset over them.
/// A timer fires iff its bit is still set at fire time; firing and
/// cancelling both clear it, so cancelling a fired or unknown timer is
/// a no-op that leaves nothing behind.
#[derive(Debug, Default)]
struct TimerSet {
    words: Vec<u64>,
}

impl TimerSet {
    fn insert(&mut self, id: TimerId) {
        let (word, bit) = timer_bit(id);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= bit;
    }

    /// Clears `id`, returning whether it was set.
    fn remove(&mut self, id: TimerId) -> bool {
        let (word, bit) = timer_bit(id);
        match self.words.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                true
            }
            _ => false,
        }
    }
}

fn timer_bit(id: TimerId) -> (usize, u64) {
    ((id.0 / 64) as usize, 1 << (id.0 % 64))
}

/// The discrete-event wireless sensor network simulator.
///
/// # Examples
///
/// A two-node ping: node 0 broadcasts at start, node 1 counts receptions.
///
/// ```
/// use wsn_sim::app::{Application, Context};
/// use wsn_sim::geometry::{Point, Region};
/// use wsn_sim::sim::{SimConfig, Simulator};
/// use wsn_sim::time::SimTime;
/// use wsn_sim::topology::Deployment;
/// use wsn_sim::NodeId;
///
/// struct Ping {
///     got: u32,
/// }
/// impl Application for Ping {
///     type Message = Vec<u8>;
///     fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
///         if ctx.id() == NodeId::new(0) {
///             ctx.broadcast(vec![1, 2, 3]);
///         }
///     }
///     fn on_message(&mut self, _ctx: &mut Context<'_, Vec<u8>>, _from: NodeId, _m: &Vec<u8>) {
///         self.got += 1;
///     }
/// }
///
/// let dep = Deployment::from_positions(
///     vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
///     Region::new(100.0, 100.0),
///     50.0,
/// );
/// let mut sim = Simulator::new(dep, SimConfig::ideal(), 7, |_| Ping { got: 0 });
/// sim.run_until(SimTime::from_secs(1));
/// assert_eq!(sim.app(NodeId::new(1)).got, 1);
/// ```
pub struct Simulator<A: Application> {
    deployment: Deployment,
    config: SimConfig,
    now: SimTime,
    /// Pending events in `(time, seq)` order.
    queue: CalendarQueue<EventKind<A::Message>>,
    event_seq: u64,
    frame_seq: u64,
    next_timer_id: u64,
    /// Timers that are scheduled and not yet fired or cancelled.
    live_timers: TimerSet,
    /// Reused buffer for callback commands (drained after every
    /// callback), so the dispatch hot path allocates nothing per event.
    command_buf: Vec<Command<A::Message>>,
    apps: Vec<A>,
    /// Per-node RNG streams, materialised on the first draw: deriving
    /// 50k ChaCha8 states up front dominates `Simulator::new` at scale,
    /// and many nodes never draw at all (a callback gets the slot and
    /// derives the stream only inside [`Context::rng`]). The derivation
    /// in [`node_rng`] is untouched, so the draws are byte-identical to
    /// the eager build.
    rngs: Vec<Option<ChaCha8Rng>>,
    /// The run seed, kept for lazy RNG derivation.
    seed: u64,
    /// Recycled receiver-list buffers for batched deliveries.
    arena: FrameArena,
    mac: Vec<MacState<A::Message>>,
    radios: Vec<Radio>,
    metrics: Metrics,
    trace: Trace,
    obs: Obs,
    events_processed: u64,
    started: bool,
    fault_plan: FaultPlan,
    channel_plan: ChannelPlan,
    /// Whether `channel_plan` is non-empty, decided when it is installed.
    channel_active: bool,
    /// Per-receiver Gilbert–Elliott state (true = bad/bursty state).
    ge_bad: Vec<bool>,
    /// Dedicated RNG stream for channel-plan draws, so impairments never
    /// perturb the per-node application/MAC streams. An empty plan draws
    /// nothing from it.
    channel_rng: ChaCha8Rng,
    /// Wall-clock self-profiler (disabled unless [`SimConfig::profile`]).
    profiler: EngineProfiler,
}

impl<A: Application> Simulator<A> {
    /// Creates a simulator over `deployment`, building one application per
    /// node with `build` (called in node-id order). `seed` drives every
    /// random choice of the run (MAC jitter, loss, application RNGs).
    pub fn new(
        deployment: Deployment,
        config: SimConfig,
        seed: u64,
        mut build: impl FnMut(NodeId) -> A,
    ) -> Self {
        let n = deployment.len();
        let apps: Vec<A> = (0..n as u32).map(|i| build(NodeId::new(i))).collect();
        let rngs = vec![None; n];
        let mac = (0..n).map(|_| MacState::default()).collect();
        let mut trace = Trace::with_level(config.trace_capacity, config.trace_level);
        if config.flight_rounds > 0 && config.trace_level > TraceLevel::Off {
            trace.set_flight(config.flight_rounds);
        }
        Simulator {
            metrics: Metrics::new(n),
            trace,
            obs: Obs::new(config.obs_level),
            deployment,
            config,
            now: SimTime::ZERO,
            queue: CalendarQueue::for_nodes(n + 1),
            event_seq: 0,
            frame_seq: 0,
            next_timer_id: 0,
            live_timers: TimerSet::default(),
            command_buf: Vec::new(),
            apps,
            rngs,
            seed,
            arena: FrameArena::new(),
            mac,
            radios: vec![Radio::default(); n],
            events_processed: 0,
            started: false,
            fault_plan: FaultPlan::none(),
            channel_plan: ChannelPlan::none(),
            channel_active: false,
            ge_bad: vec![false; n],
            channel_rng: ChaCha8Rng::seed_from_u64(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC4A2_2E10_5EED_0002,
            ),
            profiler: EngineProfiler::new(config.profile),
        }
    }

    /// Installs a fault plan before the simulation starts. An empty plan
    /// is a strict no-op: no extra events are scheduled, so the run is
    /// byte-identical to one without fault injection.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !self.started,
            "fault plan must be installed before the simulation starts"
        );
        self.fault_plan = plan;
    }

    /// The installed fault plan (empty unless [`Simulator::set_fault_plan`]
    /// was called).
    #[must_use]
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Installs a channel-impairment plan before the simulation starts.
    /// An empty plan is a strict no-op: the engine's channel hooks are
    /// skipped entirely and the dedicated channel RNG is never drawn
    /// from, so the run is byte-identical to one without impairments.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn set_channel_plan(&mut self, plan: ChannelPlan) {
        assert!(
            !self.started,
            "channel plan must be installed before the simulation starts"
        );
        self.channel_active = !plan.is_empty();
        self.channel_plan = plan;
    }

    /// The installed channel plan (empty unless
    /// [`Simulator::set_channel_plan`] was called).
    #[must_use]
    pub fn channel_plan(&self) -> &ChannelPlan {
        &self.channel_plan
    }

    /// Whether `node` is currently down under the fault plan.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn is_down(&self, id: NodeId) -> bool {
        self.radios[id.index()].down
    }

    /// The deployment this simulator runs over.
    #[must_use]
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Engine configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Marks a frame-arena epoch boundary (typically a protocol round):
    /// the delivery-buffer pool is trimmed to the finished epoch's peak
    /// demand, so a one-off burst does not pin its buffers for the rest
    /// of a long multi-round session. Also the trace's round boundary:
    /// the flight recorder rotates its window and the streaming sink
    /// (if any) flushes, so `trace.jsonl` is durable up to the last
    /// completed round. Purely an allocator/observability hint — calling
    /// it (or not) never changes simulation behavior.
    pub fn begin_frame_epoch(&mut self) {
        self.arena.begin_epoch();
        self.trace.mark_round();
    }

    /// Immutable access to a node's application state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn app(&self, id: NodeId) -> &A {
        &self.apps[id.index()]
    }

    /// Mutable access to a node's application state (e.g. to inject an
    /// attack or a reading between rounds).
    pub fn app_mut(&mut self, id: NodeId) -> &mut A {
        &mut self.apps[id.index()]
    }

    /// Iterates over `(id, app)` pairs.
    pub fn apps(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.apps
            .iter()
            .enumerate()
            .map(|(i, a)| (NodeId::new(i as u32), a))
    }

    /// Traffic/energy counters.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The link-layer event trace (empty unless
    /// [`SimConfig::trace_capacity`] is non-zero).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Attaches a streaming `trace.jsonl` sink: entries flow to the file
    /// through the sink's fixed-size reusable buffer instead of the
    /// in-memory ring (see [`Trace::set_stream`]). Observability-only —
    /// the executed event sequence is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started (the stream must see
    /// every entry from the first event).
    pub fn set_trace_stream(&mut self, sink: icpda_obs::stream::JsonlSink) {
        assert!(
            !self.started,
            "trace stream must be attached before the simulation starts"
        );
        self.trace.set_stream(sink);
    }

    /// Detaches and finishes the streaming trace sink, returning
    /// `(records, bytes, latched_error)`; `None` if none was attached.
    pub fn finish_trace_stream(&mut self) -> Option<(u64, u64, Option<std::io::Error>)> {
        self.trace.finish_stream()
    }

    /// Freezes the self-profiler into an [`EngineProfile`], folding in
    /// the arena occupancy gauges. Meaningful only when
    /// [`SimConfig::profile`] was set; otherwise the profile has no
    /// sections.
    #[must_use]
    pub fn engine_profile(&self) -> EngineProfile {
        let arena = self.arena.stats();
        let gauges = vec![
            ("arena.allocated".to_string(), arena.allocated as i64),
            ("arena.reused".to_string(), arena.reused as i64),
            (
                "arena.peak_outstanding".to_string(),
                arena.peak_outstanding as i64,
            ),
            ("arena.pooled".to_string(), arena.pooled as i64),
        ];
        self.profiler.finish(self.events_processed, gauges)
    }

    /// The observability registry: the protocol counters, plus spans,
    /// gauges, histograms and engine counters when
    /// [`SimConfig::obs_level`] is raised.
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable access to the observability registry, e.g. to merge
    /// run-level counters before export.
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Takes the registry out for export, leaving a disabled one behind.
    pub fn take_obs(&mut self) -> Obs {
        std::mem::take(&mut self.obs)
    }

    fn schedule(&mut self, time: SimTime, kind: EventKind<A::Message>) {
        debug_assert!(time >= self.now, "scheduling into the past");
        let seq = self.event_seq;
        self.event_seq += 1;
        self.queue.push(time, seq, kind);
    }

    /// Runs `on_start` on every node (idempotent; run_* call it lazily).
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // A non-empty fault plan schedules its transition edges up front
        // (before any application event, so at equal times the fault edge
        // wins) and applies t=0 states directly. An empty plan schedules
        // nothing, keeping the event-sequence stream byte-identical to a
        // fault-free build.
        if !self.fault_plan.is_empty() {
            for (time, node, _) in self.fault_plan.events() {
                if time > SimTime::ZERO {
                    self.schedule(time, EventKind::FaultEdge { node });
                }
            }
            for i in 0..self.apps.len() {
                let node = NodeId::new(i as u32);
                if self.fault_plan.is_down(node, SimTime::ZERO) {
                    self.radios[i].down = true;
                    self.metrics.note_down();
                    if self.trace.enabled() {
                        self.trace
                            .record(SimTime::ZERO, TraceKind::NodeDown { node });
                    }
                    if self.obs.enabled() {
                        let snap = obs_snap(&self.metrics, node);
                        self.obs.span_start("engine.outage", node.as_u32(), 0, snap);
                    }
                }
            }
        }
        for i in 0..self.apps.len() {
            if self.radios[i].down {
                continue;
            }
            let node = NodeId::new(i as u32);
            self.with_ctx(node, |app, ctx| app.on_start(ctx));
        }
    }

    /// Re-evaluates the fault plan for `node` at the current time and
    /// applies the transition if its state actually changed.
    fn handle_fault_edge(&mut self, node: NodeId) {
        let now_down = self.fault_plan.is_down(node, self.now);
        let i = node.index();
        if now_down == self.radios[i].down {
            return;
        }
        self.radios[i].down = now_down;
        if self.obs.enabled() {
            self.obs.inc("engine.fault_edges");
            let snap = obs_snap(&self.metrics, node);
            let t = self.now.as_nanos();
            if now_down {
                self.obs.span_start("engine.outage", node.as_u32(), t, snap);
            } else {
                self.obs.span_end("engine.outage", node.as_u32(), t, snap);
            }
        }
        if now_down {
            self.metrics.note_down();
            if self.trace.enabled() {
                self.trace.record(self.now, TraceKind::NodeDown { node });
            }
            // Battery pulled: queued frames and backoff state are lost.
            // Receptions already in the air stay in the receive busy
            // period (they still corrupt their overlaps); the delivery
            // path discards them if the node is still down then.
            let st = &mut self.mac[i];
            st.queue.clear();
            st.attempts = 0;
        } else {
            self.metrics.note_up();
            if self.trace.enabled() {
                self.trace.record(self.now, TraceKind::NodeUp { node });
            }
        }
    }

    /// Invokes `f` with a fresh context for `node`, then executes the
    /// buffered commands. The command buffer is taken from (and returned
    /// to) the simulator, so steady-state dispatch performs no
    /// allocation; callbacks never nest, so one buffer suffices.
    fn with_ctx(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Context<'_, A::Message>)) {
        let mut commands = std::mem::take(&mut self.command_buf);
        {
            let ctx = &mut Context {
                now: self.now,
                node,
                neighbors: self.deployment.neighbors(node),
                rng: &mut self.rngs[node.index()],
                seed: self.seed,
                metrics: &self.metrics,
                obs: &mut self.obs,
                commands: &mut commands,
                next_timer_id: &mut self.next_timer_id,
            };
            f(&mut self.apps[node.index()], ctx);
        }
        for cmd in commands.drain(..) {
            match cmd {
                Command::Send {
                    dest,
                    payload,
                    size_bytes,
                } => self.enqueue_frame(node, dest, payload, size_bytes),
                Command::SetTimer { at, token, id } => {
                    if self.obs.enabled() {
                        self.obs.inc("engine.timers_set");
                    }
                    self.live_timers.insert(id);
                    self.schedule(at.max(self.now), EventKind::Timer { node, token, id });
                }
                Command::CancelTimer { id } => {
                    if self.obs.enabled() {
                        self.obs.inc("engine.timers_cancelled");
                    }
                    self.live_timers.remove(id);
                }
                Command::TraceNote { code } => {
                    if self.trace.enabled() {
                        self.trace
                            .record(self.now, TraceKind::AdversaryAction { node, code });
                    }
                }
            }
        }
        self.command_buf = commands;
    }

    fn enqueue_frame(
        &mut self,
        src: NodeId,
        dest: Destination,
        payload: std::sync::Arc<A::Message>,
        size_bytes: usize,
    ) {
        let frame = Frame {
            seq: self.frame_seq,
            src,
            dest,
            payload,
            size_bytes,
        };
        self.frame_seq += 1;
        let st = &mut self.mac[src.index()];
        st.queue.push_back(frame);
        if !st.active {
            st.active = true;
            st.attempts = 0;
            let jitter = self.initial_jitter(src);
            self.schedule(self.now + jitter, EventKind::MacAttempt { node: src });
        }
    }

    fn handle_mac_attempt(&mut self, node: NodeId) {
        let now = self.now;
        let mac_cfg = self.config.mac;
        if self.radios[node.index()].down {
            // A down node transmits nothing; its pending attempt chain
            // ends here (the queue was already cleared at the down edge).
            let st = &mut self.mac[node.index()];
            st.active = false;
            st.attempts = 0;
            return;
        }
        let st = &mut self.mac[node.index()];
        if st.queue.is_empty() {
            st.active = false;
            return;
        }
        let medium_busy_until = self.radios[node.index()].medium_busy_until;
        if medium_busy_until > now {
            // Channel busy: defer to end of busy period + random backoff.
            st.attempts += 1;
            if st.attempts >= mac_cfg.max_attempts {
                st.queue.pop_front();
                st.attempts = 0;
                self.metrics.node_mut(node).mac_drops += 1;
                if self.trace.enabled() {
                    self.trace.record(now, TraceKind::MacDrop { node });
                }
                if self.obs.enabled() {
                    self.obs.inc("engine.mac_drops");
                }
                if self.mac[node.index()].queue.is_empty() {
                    self.mac[node.index()].active = false;
                } else {
                    self.schedule(now, EventKind::MacAttempt { node });
                }
                return;
            }
            if self.obs.enabled() {
                self.obs.inc("engine.mac_defers");
            }
            let window = mac_cfg.backoff_window(st.attempts);
            let slots = rng_at(&mut self.rngs, self.seed, node.index()).gen_range(0..window);
            let retry_at = medium_busy_until + mac_cfg.slot * slots;
            self.schedule(retry_at, EventKind::MacAttempt { node });
            return;
        }
        // Channel clear: transmit the head frame.
        let Some(frame) = st.queue.pop_front() else {
            return;
        };
        st.attempts = 0;
        let airtime = self.config.radio.airtime(frame.size_bytes);
        let on_air = self.config.radio.on_air_bytes(frame.size_bytes) as u64;
        let end = now + airtime;
        self.radios[node.index()].start_tx(end);
        {
            let nm = self.metrics.node_mut(node);
            nm.frames_sent += 1;
            nm.bytes_sent += on_air;
            nm.energy_tx_nj += on_air as f64 * self.config.energy.tx_nj_per_byte;
        }
        if self.trace.enabled() {
            self.trace.record(
                now,
                TraceKind::FrameSent {
                    src: node,
                    dest: frame.dest,
                    seq: frame.seq,
                    bytes: on_air as usize,
                },
            );
        }
        // Index loop: re-borrowing the (immutable) adjacency list per
        // iteration keeps the receiver admission pass allocation-free
        // while the MAC/metrics state is mutated.
        let neighbor_count = self.deployment.neighbors(node).len();
        let mut receivers: Vec<NodeId> = self.arena.take(neighbor_count);
        for i in 0..neighbor_count {
            let r = self.deployment.neighbors(node)[i];
            match self.radios[r.index()].admit(now, end) {
                None => receivers.push(r),
                Some(cause) => self.lose(r, frame.seq, cause),
            }
        }
        // The transmission ends with its fan-out when it reached anyone.
        if receivers.is_empty() {
            self.arena.recycle(receivers);
            self.schedule(end, EventKind::TxEnd { node });
        } else {
            self.schedule(end, EventKind::Delivery { frame, receivers });
        }
    }

    fn handle_tx_end(&mut self, node: NodeId) {
        let st = &mut self.mac[node.index()];
        if st.queue.is_empty() {
            st.active = false;
        } else {
            let jitter = self.initial_jitter(node);
            self.schedule(self.now + jitter, EventKind::MacAttempt { node });
        }
    }

    /// A random delay in `[0, initial_jitter)` from `node`'s stream; a
    /// zero jitter draws nothing and leaves the stream unmaterialised.
    fn initial_jitter(&mut self, node: NodeId) -> SimDuration {
        let max = self.config.mac.initial_jitter;
        if max.is_zero() {
            SimDuration::ZERO
        } else {
            let rng = rng_at(&mut self.rngs, self.seed, node.index());
            SimDuration::from_nanos(rng.gen_range(0..max.as_nanos()))
        }
    }

    /// Counts a reception of frame `seq` that `node` lost to `cause`,
    /// and traces it.
    fn lose(&mut self, node: NodeId, seq: u64, cause: LossCause) {
        *self.metrics.node_mut(node).lost_mut(cause) += 1;
        if self.trace.enabled() {
            self.trace
                .record(self.now, TraceKind::FrameLost { node, seq, cause });
        }
    }

    /// Delivers one transmission's fan-out. The per-frame quantities
    /// (start of the airtime, on-air size, receive energy) are computed
    /// once here instead of once per receiver.
    fn handle_delivery(&mut self, frame: &Frame<A::Message>, receivers: &[NodeId]) {
        let start = self.now - self.config.radio.airtime(frame.size_bytes);
        let on_air = self.config.radio.on_air_bytes(frame.size_bytes) as u64;
        let rx_energy = on_air as f64 * self.config.energy.rx_nj_per_byte;
        if self.obs.enabled() {
            self.obs.inc("engine.delivery_batches");
            self.obs
                .add("engine.delivery_receivers", receivers.len() as u64);
            self.obs.observe(
                "engine.batch_receivers",
                BATCH_RECEIVER_BUCKETS,
                receivers.len() as u64,
            );
        }
        for &r in receivers {
            self.deliver_frame(r, frame, start, on_air, rx_energy);
        }
    }

    fn deliver_frame(
        &mut self,
        node: NodeId,
        frame: &Frame<A::Message>,
        start: SimTime,
        on_air: u64,
        rx_energy: f64,
    ) {
        if let Some(cause) = self.radios[node.index()].delivery_loss(start) {
            self.lose(node, frame.seq, cause);
            return;
        }
        // Channel-plan loss gauntlet: link windows, the bursty chain and
        // corruption, strictly skipped for the empty plan so
        // impairment-free runs never touch the channel RNG. The draw
        // order is fixed (link, burst, corruption) for determinism.
        if self.channel_active {
            let link = self.channel_plan.link_loss(frame.src, node, self.now);
            if link > 0.0 && self.channel_rng.gen::<f64>() < link {
                self.lose(node, frame.seq, LossCause::Stochastic);
                return;
            }
            if self.channel_plan.gilbert_elliott().is_some()
                && self
                    .channel_plan
                    .ge_drops(&mut self.channel_rng, &mut self.ge_bad[node.index()])
            {
                self.lose(node, frame.seq, LossCause::Stochastic);
                return;
            }
            let corrupt = self.channel_plan.corruption();
            if corrupt > 0.0 && self.channel_rng.gen::<f64>() < corrupt {
                // The frame arrived damaged: the recomputed checksum no
                // longer matches the received one (any non-zero error
                // syndrome is detectable), so the link layer drops it.
                let stored = frame_checksum(frame.seq, frame.src.as_u32(), frame.size_bytes);
                let syndrome = self.channel_rng.gen::<u32>() | 1;
                debug_assert_ne!(corrupted_checksum(stored, syndrome), stored);
                self.lose(node, frame.seq, LossCause::Corrupt);
                return;
            }
        }
        // `LossModel::None` draws nothing, so it needs neither the
        // distance nor the node's stream.
        if !matches!(self.config.loss, LossModel::None) {
            let distance_ratio = self
                .deployment
                .position(node)
                .distance_to(self.deployment.position(frame.src))
                / self.deployment.radio_range();
            let rng = rng_at(&mut self.rngs, self.seed, node.index());
            if self.config.loss.drops(rng, distance_ratio) {
                self.lose(node, frame.seq, LossCause::Stochastic);
                return;
            }
        }
        // Delivery mutations: a surviving reception can be held back
        // (bounded reordering) or delivered twice (duplication).
        if self.channel_active {
            let reorder = self.channel_plan.reordering();
            if reorder > 0.0 && self.channel_rng.gen::<f64>() < reorder {
                let window = self.channel_plan.reorder_window().as_nanos();
                let delay = SimDuration::from_nanos(self.channel_rng.gen_range(1..=window));
                let held = Frame {
                    seq: frame.seq,
                    src: frame.src,
                    dest: frame.dest,
                    payload: std::sync::Arc::clone(&frame.payload),
                    size_bytes: frame.size_bytes,
                };
                if self.obs.enabled() {
                    self.obs.inc("engine.channel_reordered");
                }
                self.schedule(
                    self.now + delay,
                    EventKind::Redelivery { frame: held, node },
                );
                return;
            }
            let duplicate = self.channel_plan.duplication();
            if duplicate > 0.0 && self.channel_rng.gen::<f64>() < duplicate {
                if self.obs.enabled() {
                    self.obs.inc("engine.channel_duplicated");
                }
                self.dispatch_frame(node, frame, on_air, rx_energy);
            }
        }
        self.dispatch_frame(node, frame, on_air, rx_energy);
    }

    /// Hands one surviving reception to the application, with metrics and
    /// trace accounting. Split out of [`Simulator::deliver_frame`] so
    /// duplicated and reordered receptions share the exact same path.
    /// The accounting covers every reception; an overheard one reaches
    /// the application only if [`Application::overhears`] accepts it.
    fn dispatch_frame(
        &mut self,
        node: NodeId,
        frame: &Frame<A::Message>,
        on_air: u64,
        rx_energy: f64,
    ) {
        let addressed = frame.addressed_to(node);
        {
            let nm = self.metrics.node_mut(node);
            nm.energy_rx_nj += rx_energy;
            if addressed {
                nm.frames_received += 1;
                nm.bytes_received += on_air;
            } else {
                nm.frames_overheard += 1;
            }
        }
        if self.trace.enabled() {
            self.trace.record(
                self.now,
                TraceKind::FrameDelivered {
                    node,
                    seq: frame.seq,
                    addressed,
                },
            );
        }
        if addressed {
            let src = frame.src;
            self.with_ctx(node, |app, ctx| app.on_message(ctx, src, &frame.payload));
        } else if self.apps[node.index()].overhears(frame) {
            self.with_ctx(node, |app, ctx| app.on_overhear(ctx, frame));
        }
    }

    /// Dispatches a reception the channel plan held back for reordering.
    /// The frame passed the loss gauntlet when it originally arrived;
    /// only the receiver dying in the meantime can still lose it.
    fn handle_redelivery(&mut self, node: NodeId, frame: &Frame<A::Message>) {
        if self.radios[node.index()].down {
            self.lose(node, frame.seq, LossCause::ReceiverDown);
            return;
        }
        let on_air = self.config.radio.on_air_bytes(frame.size_bytes) as u64;
        let rx_energy = on_air as f64 * self.config.energy.rx_nj_per_byte;
        self.dispatch_frame(node, frame, on_air, rx_energy);
    }

    fn execute(&mut self, kind: EventKind<A::Message>) {
        // A batched delivery event stands for one logical event per
        // receiver plus the transmission's end; counting it as such keeps
        // events/sec comparable with a per-receiver event heap.
        self.events_processed += match &kind {
            EventKind::Delivery { receivers, .. } => receivers.len() as u64 + 1,
            _ => 1,
        };
        match kind {
            EventKind::Timer { node, token, id } => {
                let live = self.live_timers.remove(id);
                // Timers of a down node are lost, not deferred: a crashed
                // node's schedule dies with it.
                if live && !self.radios[node.index()].down {
                    if self.trace.enabled() {
                        self.trace
                            .record(self.now, TraceKind::TimerFired { node, token });
                    }
                    if self.obs.enabled() {
                        self.obs.inc("engine.timers_fired");
                    }
                    self.with_ctx(node, |app, ctx| app.on_timer(ctx, token));
                } else if self.obs.enabled() {
                    self.obs.inc("engine.timers_stale");
                }
            }
            EventKind::MacAttempt { node } => self.handle_mac_attempt(node),
            EventKind::TxEnd { node } => self.handle_tx_end(node),
            EventKind::Delivery { frame, receivers } => {
                self.handle_delivery(&frame, &receivers);
                self.arena.recycle(receivers);
                self.handle_tx_end(frame.src);
            }
            EventKind::FaultEdge { node } => self.handle_fault_edge(node),
            EventKind::Redelivery { frame, node } => self.handle_redelivery(node, &frame),
        }
    }

    /// Pops and executes the next due event, if any is due at or before
    /// `deadline`. Returns `false` when the queue is empty or the next
    /// event lies beyond the deadline. This is the single pop site shared
    /// by [`Simulator::step`], [`Simulator::run_until`] and
    /// [`Simulator::run_to_quiescence`].
    fn next_event(&mut self, deadline: SimTime) -> bool {
        // Stamped before the peek so pop attribution covers the whole
        // calendar lookup; iterations that find no due event discard it.
        let t0 = self.profiler.lap_start();
        match self.queue.peek_key() {
            Some((time, _)) if time <= deadline => {}
            _ => return false,
        }
        let Some((time, _seq, kind)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "event time went backwards");
        self.now = time;
        if self.profiler.enabled() {
            // The queue length sampled here feeds the occupancy gauge.
            // Dispatch attribution is keyed by the event phase.
            let queue_len = self.queue.len();
            let phase = match &kind {
                EventKind::Timer { .. } => 0,
                EventKind::MacAttempt { .. } => 1,
                EventKind::TxEnd { .. } => 2,
                EventKind::Delivery { .. } => 3,
                EventKind::FaultEdge { .. } => 4,
                EventKind::Redelivery { .. } => 5,
            };
            let t1 = self.profiler.lap_pop(t0, queue_len);
            self.execute(kind);
            self.profiler.lap_dispatch(t1, phase);
        } else {
            self.execute(kind);
        }
        true
    }

    /// Executes a single event. Returns `false` if the event queue is
    /// empty (the simulation is quiescent).
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        self.next_event(SimTime::MAX)
    }

    /// Runs until virtual time `deadline` (inclusive) or quiescence,
    /// whichever comes first. On return, `now()` is `deadline` unless the
    /// queue drained earlier.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        while self.next_event(deadline) {}
        self.now = self.now.max(deadline.min(SimTime::MAX));
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Runs until no events remain or `max_time` is reached; returns the
    /// time of quiescence (or `max_time`).
    pub fn run_to_quiescence(&mut self, max_time: SimTime) -> SimTime {
        self.ensure_started();
        while self.next_event(max_time) {}
        self.now
    }
}

/// Bucket bounds for the delivery fan-out histogram: receivers admitted
/// per batched `Delivery` event.
const BATCH_RECEIVER_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Accounting snapshot of `node` for engine spans. Call only under an
/// [`Obs::enabled`] guard so disabled runs never evaluate it.
fn obs_snap(metrics: &Metrics, node: NodeId) -> SpanSnapshot {
    let nm = metrics.node(node);
    SpanSnapshot {
        messages: nm.frames_sent + nm.frames_received + nm.frames_overheard,
        bytes: nm.bytes_sent + nm.bytes_received,
        energy_nj: nm.energy_total_nj() as u64,
    }
}

/// Derives node `i`'s RNG stream from the run seed. This is the exact
/// derivation the eager constructor used, so lazily materialised streams
/// draw byte-identical sequences.
pub(crate) fn node_rng(seed: u64, i: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1))
}

/// Node `i`'s RNG, materialising it on first use. A free function (not a
/// method) so callers can borrow it alongside other `Simulator` fields.
fn rng_at(rngs: &mut [Option<ChaCha8Rng>], seed: u64, i: usize) -> &mut ChaCha8Rng {
    rngs[i].get_or_insert_with(|| node_rng(seed, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The receiver bookkeeping `Radio` replaced, kept as its reference:
    /// a list of in-flight receptions, each marked corrupted when a
    /// later one starts while it is still in the air, and removed at its
    /// delivery.
    #[derive(Default)]
    struct InFlightList {
        medium_busy_until: SimTime,
        tx_busy_until: SimTime,
        down: bool,
        /// `(frame seq, end, corrupted)`.
        rx_in_flight: Vec<(u64, SimTime, bool)>,
    }

    impl InFlightList {
        fn admit(&mut self, seq: u64, now: SimTime, end: SimTime) -> Option<LossCause> {
            if self.down {
                return Some(LossCause::ReceiverDown);
            }
            self.medium_busy_until = self.medium_busy_until.max(end);
            if self.tx_busy_until > now {
                return Some(LossCause::HalfDuplex);
            }
            let mut corrupted = false;
            for inflight in &mut self.rx_in_flight {
                if inflight.1 > now {
                    inflight.2 = true;
                    corrupted = true;
                }
            }
            self.rx_in_flight.push((seq, end, corrupted));
            None
        }

        fn deliver(&mut self, seq: u64) -> Option<LossCause> {
            let idx = self
                .rx_in_flight
                .iter()
                .position(|r| r.0 == seq)
                .expect("delivered reception was admitted");
            let (_, _, corrupted) = self.rx_in_flight.swap_remove(idx);
            if self.down {
                Some(LossCause::ReceiverDown)
            } else if corrupted {
                Some(LossCause::Collision)
            } else {
                None
            }
        }
    }

    /// One receiver driven through `ops` by both bookkeepings at once.
    /// Receptions are admitted at the current instant and delivered
    /// exactly at their end, in any interleaving with admissions,
    /// transmissions and down/up toggles at the same instant — the
    /// freedom the engine's `(time, seq)` order has.
    fn race(ops: &[(u8, u64)]) {
        let mut radio = Radio::default();
        let mut list = InFlightList::default();
        // Admitted receptions awaiting delivery: `(end, seq, start)`.
        let mut pending: Vec<(SimTime, u64, SimTime)> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        let deliver = |radio: &mut Radio,
                       list: &mut InFlightList,
                       pending: &mut Vec<(SimTime, u64, SimTime)>,
                       now: SimTime| {
            if let Some(i) = pending.iter().position(|p| p.0 == now) {
                let (_, s, start) = pending.remove(i);
                assert_eq!(radio.delivery_loss(start), list.deliver(s), "seq {s}");
            }
        };
        for &(op, p) in ops {
            let next_end = pending.iter().map(|p| p.0).min();
            match op {
                // Admit a reception with a positive airtime.
                0 | 1 => {
                    let end = now + SimDuration::from_nanos(1 + p % 12);
                    let got = radio.admit(now, end);
                    assert_eq!(got, list.admit(seq, now, end));
                    if got.is_none() {
                        pending.push((end, seq, now));
                    }
                    seq += 1;
                }
                // Let time pass, never beyond an undelivered end.
                2 => {
                    let to = now + SimDuration::from_nanos(p % 6);
                    now = next_end.map_or(to, |e| to.min(e));
                }
                // Deliver a reception ending now, or jump to the next end.
                3 => {
                    if next_end.is_some_and(|e| e > now) {
                        now = next_end.unwrap_or(now);
                    }
                    deliver(&mut radio, &mut list, &mut pending, now);
                }
                4 => {
                    radio.down = !radio.down;
                    list.down = !list.down;
                }
                // The receiver transmits.
                _ => {
                    let end = now + SimDuration::from_nanos(1 + p % 8);
                    radio.start_tx(end);
                    list.tx_busy_until = end;
                    list.medium_busy_until = list.medium_busy_until.max(end);
                }
            }
            assert_eq!(radio.medium_busy_until, list.medium_busy_until);
        }
        pending.sort_unstable();
        while let Some(&(end, _, _)) = pending.first() {
            deliver(&mut radio, &mut list, &mut pending, end);
        }
        assert!(list.rx_in_flight.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The packed busy-period record decides every admission and
        /// every delivery exactly as the in-flight list did.
        #[test]
        fn radio_matches_in_flight_list(
            ops in prop::collection::vec((0u8..6, 0u64..64), 1..300),
        ) {
            race(&ops);
        }
    }

    #[test]
    fn radio_reproduces_collision_chains_and_touching_receptions() {
        let t = SimTime::from_nanos;
        // Chain: [0,8) [4,12) [9,17) — the ends never overlap, all lose.
        let mut radio = Radio::default();
        for start in [0, 4, 9] {
            assert_eq!(radio.admit(t(start), t(start + 8)), None);
        }
        assert_eq!(radio.delivery_loss(t(0)), Some(LossCause::Collision));
        assert_eq!(radio.delivery_loss(t(9)), Some(LossCause::Collision));
        // Touching: [20,28) then [28,36) admitted before the first one's
        // delivery at 28 — separate periods, neither loses, and the
        // earlier reception reads the previous period's flag.
        assert_eq!(radio.admit(t(20), t(28)), None);
        assert_eq!(radio.admit(t(28), t(36)), None);
        assert_eq!(radio.delivery_loss(t(20)), None);
        assert_eq!(radio.delivery_loss(t(28)), None);
    }
}
