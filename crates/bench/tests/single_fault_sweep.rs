//! Exhaustive single-fault sweep over one small round, crash recovery off.
//!
//! A clean COUNT round runs with the full event trace. Each rerun then
//! loses exactly one thing the clean round delivered — one whole
//! transmission, one addressed reception, or one overheard reception of
//! an upstream report (what the monitors audit) — through a 1 ns,
//! loss-1.0 channel-plan window on the link at that delivery instant.
//! The window is evaluated at delivery time and draws from the
//! channel's own RNG stream only at that reception, so the rerun must
//! match the clean trace exactly up to the loss. Or the rerun crashes one
//! node (`FaultPlan::crash`) at an instant one of its timers fired in
//! the clean round; the fault edge is scheduled before any application
//! event, so at that instant it comes first, and the rerun must match
//! the clean trace up to it.
//!
//! Every rerun must still decide, be accepted with no alarm (there is no
//! adversary), include no more sensors than are eligible, and decode a
//! COUNT equal to its participant count. A lost frame or a dead node may
//! cost readings; it must never cost soundness.

use agg::AggFunction;
use icpda::{BsDecision, IcpdaConfig, IcpdaMsg, IcpdaNode};
use icpda_bench::scaled_deployment;
use std::collections::{BTreeMap, BTreeSet};
use wsn_sim::prelude::*;
use wsn_sim::{TraceEntry, TraceKind};

const RUN_SEED: u64 = 7;
/// When the round senses (the share phase opens): a node dead by then is
/// not eligible, as in `IcpdaRun`'s ground truth.
const SENSING: SimDuration = SimDuration::from_millis(200);
/// Room for a whole round at these sizes (about 7.4k entries at N=30);
/// each run asserts that nothing was evicted, so every trace is the
/// complete event record, as in the golden-trace fixtures.
const TRACE_CAPACITY: usize = 1 << 16;

/// One reception the clean round delivered: frame `seq` on the link
/// `src -> node` at time `at`, recorded at index `index` of the trace.
#[derive(Clone, Copy, Debug)]
struct Reception {
    index: usize,
    seq: u64,
    src: NodeId,
    node: NodeId,
    at: SimTime,
    addressed: bool,
}

/// An [`IcpdaNode`] that notes every upstream report it overhears as
/// `(node, seq)`, since the trace does not name payloads. Every callback
/// is forwarded, [`Application::overhears`] included, so the node runs
/// exactly as it does unwrapped.
struct Watched {
    node: IcpdaNode,
    overheard_upstream: Vec<(NodeId, u64)>,
}

impl Application for Watched {
    type Message = IcpdaMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        self.node.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, IcpdaMsg>, from: NodeId, msg: &IcpdaMsg) {
        self.node.on_message(ctx, from, msg);
    }

    fn on_overhear(&mut self, ctx: &mut Context<'_, IcpdaMsg>, frame: &Frame<IcpdaMsg>) {
        if matches!(*frame.payload, IcpdaMsg::Upstream { .. }) {
            self.overheard_upstream.push((ctx.id(), frame.seq));
        }
        self.node.on_overhear(ctx, frame);
    }

    fn overhears(&self, frame: &Frame<IcpdaMsg>) -> bool {
        self.node.overhears(frame)
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>, token: TimerToken) {
        self.node.on_timer(ctx, token);
    }
}

/// A finished round: its base-station decision, complete trace, and the
/// upstream reports its nodes overheard.
struct Round {
    decision: BsDecision,
    trace: Vec<TraceEntry>,
    overheard_upstream: BTreeSet<(NodeId, u64)>,
}

/// Runs one round of `scaled_deployment(n, 1)` over `channel`, with
/// `faults`.
fn run_round(n: usize, channel: ChannelPlan, faults: FaultPlan) -> Round {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let readings = agg::readings::count_readings(n);
    let mut sim_config = SimConfig::paper_default();
    sim_config.trace_capacity = TRACE_CAPACITY;
    let mut sim = Simulator::new(scaled_deployment(n, 1), sim_config, RUN_SEED, |id| {
        Watched {
            node: IcpdaNode::new(config, id == NodeId::new(0), readings[id.index()]),
            overheard_upstream: Vec::new(),
        }
    });
    sim.set_channel_plan(channel);
    sim.set_fault_plan(faults);
    sim.run_until(SimTime::ZERO + config.schedule.decision_time() + SimDuration::from_secs(1));
    assert_eq!(
        sim.trace().evicted(),
        0,
        "the trace must hold the whole round"
    );
    let decision = sim
        .app(NodeId::new(0))
        .node
        .decisions()
        .last()
        .cloned()
        .expect("the base station decides");
    Round {
        decision,
        trace: sim.trace().iter().copied().collect(),
        overheard_upstream: (0..n as u32)
            .flat_map(|i| sim.app(NodeId::new(i)).overheard_upstream.iter().copied())
            .collect(),
    }
}

/// Asserts what every round must satisfy without an adversary.
fn assert_sound(eligible: usize, decision: &BsDecision, what: &str) {
    assert!(
        decision.accepted && decision.alarms.is_empty(),
        "{what}: rejected: {decision:?}"
    );
    assert!(
        decision.participants as usize <= eligible,
        "{what}: more participants than eligible sensors: {decision:?}"
    );
    assert_eq!(
        decision.value,
        f64::from(decision.participants),
        "{what}: COUNT differs from the participant count"
    );
}

/// The clean round, checked, and every reception it delivered.
fn clean_round(n: usize) -> (Round, Vec<Reception>) {
    let clean = run_round(n, ChannelPlan::none(), FaultPlan::none());
    assert_sound(n - 1, &clean.decision, "clean round");
    let mut src_of = BTreeMap::new();
    let mut receptions = Vec::new();
    for (index, entry) in clean.trace.iter().enumerate() {
        match entry.kind {
            TraceKind::FrameSent { src, seq, .. } => {
                src_of.insert(seq, src);
            }
            TraceKind::FrameDelivered {
                node,
                seq,
                addressed,
            } => receptions.push(Reception {
                index,
                seq,
                src: src_of[&seq],
                node,
                at: entry.time,
                addressed,
            }),
            _ => {}
        }
    }
    (clean, receptions)
}

/// Reruns the round losing every reception in `drops` (in trace order)
/// and checks it. Returns whether the loss cost a reading.
fn check_rerun(n: usize, clean: &Round, drops: &[Reception]) -> bool {
    let mut plan = ChannelPlan::none();
    for r in drops {
        let until = r.at + SimDuration::from_nanos(1);
        plan = plan
            .degrade_link(r.src, r.node, r.at, until, 1.0)
            .expect("a valid one-reception window");
    }
    let rerun = run_round(n, plan, FaultPlan::none());
    let first = drops[0];
    let what = format!("n={n}, losing frame {} at {:?}", first.seq, first.at);
    assert_sound(n - 1, &rerun.decision, &what);
    assert_eq!(
        rerun.trace[..first.index],
        clean.trace[..first.index],
        "{what}: the rerun diverged before the loss"
    );
    let lost = TraceKind::FrameLost {
        node: first.node,
        seq: first.seq,
        cause: LossCause::Stochastic,
    };
    assert_eq!(rerun.trace[first.index].kind, lost, "{what}");
    rerun.decision.participants < clean.decision.participants
}

/// Reruns the round with `node` crashed at `at` and checks it. Returns
/// whether the crash cost a reading.
fn check_crash(n: usize, clean: &Round, node: NodeId, at: SimTime) -> bool {
    let mut faults = FaultPlan::none();
    faults.crash(node, at).expect("only node 0 is immortal");
    let rerun = run_round(n, ChannelPlan::none(), faults);
    let what = format!("n={n}, crashing {node:?} at {at:?}");
    let eligible = if at <= SimTime::ZERO + SENSING {
        n - 2
    } else {
        n - 1
    };
    assert_sound(eligible, &rerun.decision, &what);
    let split = clean.trace.partition_point(|e| e.time < at);
    assert_eq!(
        rerun.trace[..split],
        clean.trace[..split],
        "{what}: the rerun diverged before the crash"
    );
    assert_eq!(
        (rerun.trace[split].time, rerun.trace[split].kind),
        (at, TraceKind::NodeDown { node }),
        "{what}"
    );
    rerun.decision.participants < clean.decision.participants
}

#[test]
fn losing_any_one_transmission_keeps_the_round_sound() {
    let n = 30;
    let (clean, receptions) = clean_round(n);
    let mut frames: BTreeMap<u64, Vec<Reception>> = BTreeMap::new();
    for r in receptions {
        frames.entry(r.seq).or_default().push(r);
    }
    assert!(frames.len() > 100, "only {} frames delivered", frames.len());
    let costly = frames
        .values()
        .filter(|drops| check_rerun(n, &clean, drops))
        .count();
    eprintln!(
        "{} trace entries; {} single-transmission losses, {costly} cost a reading",
        clean.trace.len(),
        frames.len()
    );
}

#[test]
fn losing_any_one_addressed_reception_keeps_the_round_sound() {
    let n = 20;
    let (clean, receptions) = clean_round(n);
    let addressed: Vec<Reception> = receptions.into_iter().filter(|r| r.addressed).collect();
    assert!(
        addressed.len() > 500,
        "only {} addressed receptions",
        addressed.len()
    );
    let costly = addressed
        .iter()
        .filter(|r| check_rerun(n, &clean, std::slice::from_ref(r)))
        .count();
    eprintln!(
        "{} trace entries; {} single addressed-reception losses, {costly} cost a reading",
        clean.trace.len(),
        addressed.len()
    );
}

#[test]
fn losing_any_one_overheard_upstream_report_keeps_the_round_sound() {
    let n = 30;
    let (clean, receptions) = clean_round(n);
    let overheard: Vec<Reception> = receptions
        .into_iter()
        .filter(|r| clean.overheard_upstream.contains(&(r.node, r.seq)))
        .collect();
    assert!(
        overheard.len() > 200,
        "only {} overheard upstream receptions",
        overheard.len()
    );
    let costly = overheard
        .iter()
        .filter(|r| check_rerun(n, &clean, std::slice::from_ref(r)))
        .count();
    eprintln!(
        "{} trace entries; {} single overheard upstream-report losses, {costly} cost a reading",
        clean.trace.len(),
        overheard.len()
    );
}

#[test]
fn crashing_any_node_when_a_timer_fires_keeps_the_round_sound() {
    for (n, floor) in [(20, 250), (30, 350)] {
        let (clean, _) = clean_round(n);
        let crashes: BTreeSet<(NodeId, SimTime)> = clean
            .trace
            .iter()
            .filter_map(|entry| match entry.kind {
                TraceKind::TimerFired { node, .. } if node != NodeId::new(0) => {
                    Some((node, entry.time))
                }
                _ => None,
            })
            .collect();
        assert!(
            crashes.len() > floor,
            "n={n}: only {} crash points",
            crashes.len()
        );
        let costly = crashes
            .iter()
            .filter(|&&(node, at)| check_crash(n, &clean, node, at))
            .count();
        eprintln!(
            "n={n}: {} trace entries; {} single crashes, {costly} cost a reading",
            clean.trace.len(),
            crashes.len()
        );
    }
}
