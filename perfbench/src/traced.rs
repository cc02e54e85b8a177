//! The traced pass: an [`Application`] wrapper that times every
//! `IcpdaNode` callback from outside the program, a reproduction of
//! `IcpdaRun::run` around it that also times the engine's public calls,
//! and the in-memory span log written out when the benchmark ends.

use crate::workload::{elapsed_ns, nanos, TrialInput};
use icpda::{BsDecision, IcpdaMsg, IcpdaNode};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::mem::Discriminant;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;
use wsn_sim::{
    Application, Context, Frame, LossCause, NodeId, SimDuration, SimTime, Simulator, TimerToken,
};

/// Calls into one callback kind and the host time they took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bucket {
    pub calls: u64,
    pub ns: u64,
}

impl Bucket {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }
}

/// Callback statistics shared by every wrapped node of a run.
#[derive(Debug, Default)]
pub struct NodeStats {
    /// `IcpdaMsg` variants in first-seen order, named from their `Debug`
    /// form so the benchmark does not break when a variant is added.
    variants: Vec<(Discriminant<IcpdaMsg>, String)>,
    msg: Vec<Bucket>,
    pub overhear: Bucket,
    pub timer: Bucket,
    pub start: Bucket,
}

impl NodeStats {
    fn msg_bucket(&mut self, msg: &IcpdaMsg) -> &mut Bucket {
        let d = std::mem::discriminant(msg);
        let at = match self.variants.iter().position(|(v, _)| *v == d) {
            Some(at) => at,
            None => {
                let debug = format!("{msg:?}");
                let name = debug
                    .split(|c: char| !c.is_alphanumeric())
                    .next()
                    .unwrap_or_default()
                    .to_string();
                self.variants.push((d, name));
                self.msg.push(Bucket::default());
                self.variants.len() - 1
            }
        };
        &mut self.msg[at]
    }

    /// `on_message` statistics of the variant called `name`.
    pub fn msg(&self, name: &str) -> Bucket {
        self.variants
            .iter()
            .position(|(_, n)| n == name)
            .map_or_else(Bucket::default, |at| self.msg[at])
    }

    /// Every variant seen so far, with its statistics.
    pub fn messages(&self) -> impl Iterator<Item = (&str, Bucket)> + '_ {
        self.variants
            .iter()
            .zip(&self.msg)
            .map(|((_, n), b)| (n.as_str(), *b))
    }

    /// Host time spent inside the protocol handler.
    pub fn self_ns(&self) -> u64 {
        self.msg.iter().map(|b| b.ns).sum::<u64>()
            + self.overhear.ns
            + self.timer.ns
            + self.start.ns
    }
}

/// `IcpdaNode` with every callback timed. Behaviour is the inner node's:
/// the wrapper only reads the clock around each call.
pub struct Traced {
    node: IcpdaNode,
    stats: Rc<RefCell<NodeStats>>,
}

impl Application for Traced {
    type Message = IcpdaMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        let start = Instant::now();
        self.node.on_start(ctx);
        let ns = elapsed_ns(start);
        self.stats.borrow_mut().start.add(ns);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, IcpdaMsg>, from: NodeId, msg: &IcpdaMsg) {
        let start = Instant::now();
        self.node.on_message(ctx, from, msg);
        let ns = elapsed_ns(start);
        self.stats.borrow_mut().msg_bucket(msg).add(ns);
    }

    fn on_overhear(&mut self, ctx: &mut Context<'_, IcpdaMsg>, frame: &Frame<IcpdaMsg>) {
        let start = Instant::now();
        self.node.on_overhear(ctx, frame);
        let ns = elapsed_ns(start);
        self.stats.borrow_mut().overhear.add(ns);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>, token: TimerToken) {
        let start = Instant::now();
        self.node.on_timer(ctx, token);
        let ns = elapsed_ns(start);
        self.stats.borrow_mut().timer.add(ns);
    }
}

/// The cost the wrapper adds to a callback it times: the mean measured
/// duration of an empty timed call.
pub fn calibrate_clock() -> f64 {
    const CALLS: u64 = 200_000;
    let mut bucket = Bucket::default();
    for _ in 0..CALLS {
        let start = Instant::now();
        std::hint::black_box(());
        bucket.add(elapsed_ns(start));
    }
    bucket.ns as f64 / CALLS as f64
}

/// The six loss causes, in report order, with their metric suffixes.
pub const LOSS_CAUSES: [(LossCause, &str); 6] = [
    (LossCause::Collision, "collision"),
    (LossCause::Stochastic, "stochastic"),
    (LossCause::HalfDuplex, "half_duplex"),
    (LossCause::MacDrop, "mac_drop"),
    (LossCause::ReceiverDown, "receiver_down"),
    (LossCause::Corrupt, "corrupt"),
];

/// One traced trial.
#[derive(Debug)]
pub struct TracedRun {
    /// `Simulator::new` (including building every node).
    pub new_ns: u64,
    /// `run_until` to the session deadline.
    pub run_ns: u64,
    /// The whole traced round, simulator drop included.
    pub total_ns: u64,
    /// Handler time spent inside `run_until`.
    pub node_ns: u64,
    pub events: u64,
    pub frames: u64,
    pub bytes: u64,
    pub lost: [u64; 6],
    pub decision: Option<BsDecision>,
}

impl TracedRun {
    pub fn collisions(&self) -> u64 {
        self.lost[0]
    }
}

/// Reproduces `IcpdaRun::run` for a single-round input with every node
/// wrapped in [`Traced`]: `Simulator::new`, the fault and channel plans,
/// then `run_until` the session deadline.
pub fn run_traced(
    input: &TrialInput,
    stats: &Rc<RefCell<NodeStats>>,
    spans: &mut Spans,
    parent: Option<usize>,
) -> TracedRun {
    let deployment = input.deployment.clone();
    let config = input.config;
    let readings = &input.readings;
    let node_before = stats.borrow().self_ns();

    let start = Instant::now();
    let mut sim = Simulator::new(deployment, input.sim_config, input.run_seed, |id| Traced {
        node: IcpdaNode::new(config, id == NodeId::new(0), readings[id.index()]),
        stats: Rc::clone(stats),
    });
    if !input.fault_plan.is_empty() {
        sim.set_fault_plan(input.fault_plan.clone());
    }
    if !input.channel_plan.is_empty() {
        sim.set_channel_plan(input.channel_plan.clone());
    }
    let built = Instant::now();
    let deadline = SimTime::ZERO
        + config.schedule.decision_time() * u64::from(config.rounds)
        + SimDuration::from_secs(1);
    sim.run_until(deadline);
    let ran = Instant::now();

    let metrics = sim.metrics();
    let mut lost = [0; 6];
    for (slot, (cause, _)) in lost.iter_mut().zip(LOSS_CAUSES) {
        *slot = metrics.total_lost(cause);
    }
    let frames = metrics.total_frames_sent();
    let bytes = metrics.total_bytes_sent();
    let events = sim.events_processed();
    let decision = sim.app(NodeId::new(0)).node.decisions().last().cloned();
    drop(sim);
    let end = Instant::now();

    spans.record("sim.new", parent, start, built);
    spans.record("sim.run", parent, built, ran);
    TracedRun {
        new_ns: nanos(built - start),
        run_ns: nanos(ran - built),
        total_ns: nanos(end - start),
        node_ns: stats.borrow().self_ns() - node_before,
        events,
        frames,
        bytes,
        lost,
        decision,
    }
}

/// One span: a named interval at a layer boundary and the span that
/// caused it.
#[derive(Clone, Debug)]
struct SpanRecord {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory for the whole run and written out at its end.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    records: Vec<SpanRecord>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            records: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        nanos(at.saturating_duration_since(self.epoch))
    }

    /// Opens a span now; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        let end = self.offset(Instant::now());
        self.records[id].end_ns = end;
    }

    /// Records an interval measured by the caller; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let record = SpanRecord {
            name,
            parent,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        };
        self.records.push(record);
        self.records.len() - 1
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.records.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
