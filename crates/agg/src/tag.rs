//! TAG — the Tiny AGgregation baseline (Madden et al., OSDI 2002).
//!
//! The paper evaluates iCPDA against "a typical data aggregation scheme —
//! TAG, where no integrity protection and privacy preservation is
//! provided". This module is that baseline, run on the same simulator:
//!
//! 1. **Tree construction** — the base station floods a `Hello` carrying
//!    its level; each node adopts the first sender it hears as parent and
//!    re-broadcasts with its own level.
//! 2. **Epoch-scheduled aggregation** — the reporting epoch is divided
//!    into per-depth slots; deeper nodes report earlier, so every
//!    aggregator has (modulo loss) its children's partial aggregates in
//!    hand when its own slot arrives. Partial aggregates travel as
//!    component vectors of the query's [`AggFunction`].
//!
//! Per node and per query, TAG sends exactly two messages — one `Hello`,
//! one `Report` — which is the communication baseline the paper's
//! overhead figure normalises against.

use crate::function::AggFunction;
use wsn_sim::prelude::*;

/// TAG protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TagMsg {
    /// Tree-construction beacon carrying the sender's tree depth.
    Hello {
        /// Depth of the sender (base station = 0).
        level: u16,
    },
    /// Partial aggregate sent from a node to its parent.
    Report {
        /// Additive component totals of the sender's subtree.
        totals: Vec<u64>,
        /// Number of sensors aggregated into `totals`.
        participants: u32,
    },
}

impl WireSize for TagMsg {
    fn wire_size(&self) -> usize {
        match self {
            // type tag + level
            TagMsg::Hello { .. } => 1 + 2,
            // type tag + components + participant count
            TagMsg::Report { totals, .. } => 1 + 8 * totals.len() + 4,
        }
    }
}

/// Timing and query parameters for a TAG run.
#[derive(Clone, Copy, Debug)]
pub struct TagConfig {
    /// The statistic to compute.
    pub function: AggFunction,
    /// Window allotted to the `Hello` flood before reporting starts.
    pub formation: SimDuration,
    /// Length of the reporting epoch, divided into per-depth slots.
    pub epoch: SimDuration,
    /// Deepest tree level the schedule accounts for; nodes deeper than
    /// this share the earliest slot.
    pub max_depth: u16,
}

impl TagConfig {
    /// Defaults sized for the paper's 400 m × 400 m deployments: 2 s
    /// formation, 10 s epoch, depth 20.
    #[must_use]
    pub fn paper_default(function: AggFunction) -> Self {
        TagConfig {
            function,
            formation: SimDuration::from_secs(2),
            epoch: SimDuration::from_secs(10),
            max_depth: 20,
        }
    }

    /// Duration of one per-depth reporting slot.
    #[must_use]
    pub fn slot(&self) -> SimDuration {
        self.epoch / u64::from(self.max_depth)
    }

    /// When a node at `level` transmits its report (deeper first).
    #[must_use]
    pub fn report_time(&self, level: u16) -> SimDuration {
        let depth_from_bottom = self.max_depth.saturating_sub(level.min(self.max_depth));
        self.formation + self.slot() * u64::from(depth_from_bottom)
    }

    /// [`TagConfig::report_time`] plus a uniformly random dispersion over
    /// the first 60 % of the slot. Siblings at the same depth would
    /// otherwise transmit at the same instant and collide at their shared
    /// parent (hidden terminals defeat carrier sense); TAG disperses
    /// children's transmissions across the slot for exactly this reason.
    #[must_use]
    pub fn report_time_dispersed<R: rand::Rng + ?Sized>(
        &self,
        level: u16,
        rng: &mut R,
    ) -> SimDuration {
        let dispersion_ns = self.slot().as_nanos() * 6 / 10;
        let jitter = if dispersion_ns == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(rng.gen_range(0..dispersion_ns))
        };
        self.report_time(level) + jitter
    }

    /// When the base station finalises the result.
    #[must_use]
    pub fn finish_time(&self) -> SimDuration {
        // One extra slot of slack for the level-1 reports to land.
        self.formation + self.epoch + self.epoch / u64::from(self.max_depth)
    }
}

const TIMER_REPORT: TimerToken = 0;
const TIMER_FINISH: TimerToken = 1;

/// Final aggregate as seen by the base station.
#[derive(Clone, Debug, PartialEq)]
pub struct TagResult {
    /// Component totals collected over the tree.
    pub totals: Vec<u64>,
    /// Sensors whose readings are included.
    pub participants: u32,
    /// Decoded statistic value.
    pub value: f64,
}

/// Per-node TAG state machine.
#[derive(Debug)]
pub struct TagNode {
    config: TagConfig,
    is_base_station: bool,
    reading: u64,
    parent: Option<NodeId>,
    level: Option<u16>,
    acc_totals: Vec<u64>,
    acc_participants: u32,
    reported: bool,
    /// Reports that arrived after this node already sent its own.
    pub late_reports: u32,
    last_report_at: Option<SimTime>,
    result: Option<TagResult>,
}

impl TagNode {
    /// Creates the state machine for one node.
    #[must_use]
    pub fn new(config: TagConfig, is_base_station: bool, reading: u64) -> Self {
        let comps = config.function.components();
        TagNode {
            config,
            is_base_station,
            reading,
            parent: None,
            level: if is_base_station { Some(0) } else { None },
            acc_totals: vec![0; comps],
            acc_participants: 0,
            reported: false,
            late_reports: 0,
            last_report_at: None,
            result: None,
        }
    }

    /// The node's parent in the aggregation tree, once joined.
    #[must_use]
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Tree depth, once joined (0 for the base station).
    #[must_use]
    pub fn level(&self) -> Option<u16> {
        self.level
    }

    /// Whether this node joined the aggregation tree.
    #[must_use]
    pub fn joined(&self) -> bool {
        self.level.is_some()
    }

    /// The final result (base station only, after the epoch closes).
    #[must_use]
    pub fn result(&self) -> Option<&TagResult> {
        self.result.as_ref()
    }

    /// When the last partial aggregate arrived (base station: the
    /// result-latency metric).
    #[must_use]
    pub fn last_report_at(&self) -> Option<SimTime> {
        self.last_report_at
    }

    fn absorb(&mut self, totals: &[u64], participants: u32) {
        for (acc, t) in self.acc_totals.iter_mut().zip(totals) {
            *acc += t;
        }
        self.acc_participants += participants;
    }
}

impl Application for TagNode {
    type Message = TagMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, TagMsg>) {
        if self.is_base_station {
            ctx.broadcast(TagMsg::Hello { level: 0 });
            ctx.set_timer(self.config.finish_time(), TIMER_FINISH);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, TagMsg>, from: NodeId, msg: &TagMsg) {
        match msg {
            TagMsg::Hello { level } => {
                if self.is_base_station || self.level.is_some() {
                    return; // already joined; TAG keeps the first parent
                }
                let my_level = level.saturating_add(1);
                self.level = Some(my_level);
                self.parent = Some(from);
                ctx.broadcast(TagMsg::Hello { level: my_level });
                let report_at = self.config.report_time_dispersed(my_level, ctx.rng());
                ctx.set_timer(report_at, TIMER_REPORT);
            }
            TagMsg::Report {
                totals,
                participants,
            } => {
                if self.reported && !self.is_base_station {
                    self.late_reports += 1;
                    return;
                }
                self.last_report_at = Some(ctx.now());
                self.absorb(totals, *participants);
            }
        }
    }

    /// TAG does no monitoring: overheard frames are never read.
    fn overhears(&self, _frame: &Frame<TagMsg>) -> bool {
        false
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TagMsg>, token: TimerToken) {
        match token {
            TIMER_REPORT => {
                if self.is_base_station {
                    return;
                }
                let mut totals = self.acc_totals.clone();
                for (t, own) in totals
                    .iter_mut()
                    .zip(self.config.function.encode(self.reading))
                {
                    *t += own;
                }
                let report = TagMsg::Report {
                    totals,
                    participants: self.acc_participants + 1,
                };
                self.reported = true;
                if let Some(parent) = self.parent {
                    ctx.send(parent, report);
                }
            }
            TIMER_FINISH => {
                // Base station: own accumulator is the final answer (the
                // BS contributes no reading of its own).
                let value = self.config.function.decode(&self.acc_totals);
                self.result = Some(TagResult {
                    totals: self.acc_totals.clone(),
                    participants: self.acc_participants,
                    value,
                });
            }
            _ => {}
        }
    }
}

/// Outcome of a complete TAG query over one deployment.
#[derive(Clone, Debug)]
pub struct TagRunOutcome {
    /// The decoded statistic at the base station.
    pub value: f64,
    /// Ground truth over the eligible sensors: all deployed sensors
    /// (excluding the BS) that are alive when the reporting epoch starts.
    pub truth: f64,
    /// Sensors eligible to contribute (alive at epoch start, BS
    /// excluded).
    pub eligible: usize,
    /// Sensors included in the result.
    pub participants: u32,
    /// Sensors that joined the tree.
    pub joined: usize,
    /// Total on-air bytes (the overhead figure's y-axis).
    pub total_bytes: u64,
    /// Total frames sent.
    pub total_frames: u64,
    /// Virtual time at which the result was finalised.
    pub finished_at: SimTime,
    /// When the last report reached the base station (latency metric).
    pub last_report_at: Option<SimTime>,
    /// Total energy spent, millijoules.
    pub energy_mj: f64,
}

/// Runs one complete TAG query: node 0 is the base station, node `i > 0`
/// holds `readings[i]`.
///
/// # Panics
///
/// Panics if `readings.len() != deployment.len()` (entry 0 is ignored).
#[must_use]
pub fn run_tag(
    deployment: Deployment,
    sim_config: SimConfig,
    tag_config: TagConfig,
    readings: &[u64],
    seed: u64,
) -> TagRunOutcome {
    run_tag_with_channel(
        deployment,
        sim_config,
        tag_config,
        readings,
        seed,
        &FaultPlan::none(),
        &ChannelPlan::none(),
    )
}

/// [`run_tag`] under node churn and channel impairments: `plan`'s
/// crashes and outages and `channel`'s bursty loss, corruption,
/// duplication and reordering are enforced by the simulator, and ground
/// truth narrows to the sensors alive when the reporting epoch starts
/// (the moment readings are captured). TAG has no recovery of its own —
/// a dead relay, or a burst across a relay's reporting slot, silently
/// costs its whole subtree — which is the iCPDA-vs-TAG contrast the
/// churn (fig18) and reliability (fig20) experiments measure. Empty
/// plans are a strict no-op.
///
/// # Panics
///
/// Panics if `readings.len() != deployment.len()` (entry 0 is ignored).
#[must_use]
pub fn run_tag_with_channel(
    deployment: Deployment,
    sim_config: SimConfig,
    tag_config: TagConfig,
    readings: &[u64],
    seed: u64,
    plan: &FaultPlan,
    channel: &ChannelPlan,
) -> TagRunOutcome {
    assert_eq!(
        readings.len(),
        deployment.len(),
        "one reading per node (entry 0 unused)"
    );
    let sensing = SimTime::ZERO + tag_config.formation;
    let eligible: Vec<u64> = readings
        .iter()
        .enumerate()
        .skip(1)
        .filter_map(|(i, &r)| plan.alive_at(NodeId::new(i as u32), sensing).then_some(r))
        .collect();
    let truth = tag_config.function.ground_truth(&eligible);
    let eligible = eligible.len();
    let readings = readings.to_vec();
    let mut sim = Simulator::new(deployment, sim_config, seed, |id| {
        TagNode::new(tag_config, id == NodeId::new(0), readings[id.index()])
    });
    if !plan.is_empty() {
        sim.set_fault_plan(plan.clone());
    }
    if !channel.is_empty() {
        sim.set_channel_plan(channel.clone());
    }
    let deadline = SimTime::ZERO + tag_config.finish_time() + SimDuration::from_secs(1);
    sim.run_until(deadline);
    let bs = sim.app(NodeId::new(0));
    let result = bs.result().cloned().unwrap_or(TagResult {
        totals: vec![0; tag_config.function.components()],
        participants: 0,
        value: 0.0,
    });
    TagRunOutcome {
        value: result.value,
        truth,
        eligible,
        participants: result.participants,
        joined: sim.apps().filter(|(_, a)| a.joined()).count() - 1,
        total_bytes: sim.metrics().total_bytes_sent(),
        total_frames: sim.metrics().total_frames_sent(),
        finished_at: sim.now(),
        last_report_at: bs.last_report_at(),
        energy_mj: sim.metrics().total_energy_mj(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wsn_sim::geometry::{Point, Region};

    fn line(n: usize, spacing: f64, range: f64) -> Deployment {
        let pts = (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect();
        Deployment::from_positions(pts, Region::new(2_000.0, 10.0), range)
    }

    #[test]
    fn report_schedule_is_deeper_first() {
        let cfg = TagConfig::paper_default(AggFunction::Sum);
        assert!(cfg.report_time(5) < cfg.report_time(1));
        assert!(cfg.report_time(1) < cfg.finish_time());
        // Levels beyond max_depth share the earliest slot.
        assert_eq!(cfg.report_time(25), cfg.report_time(20));
    }

    #[test]
    fn exact_sum_on_a_line() {
        // 0(BS) - 1 - 2 - 3, lossless: SUM must be exact.
        let dep = line(4, 10.0, 15.0);
        let out = run_tag(
            dep,
            SimConfig::paper_default(),
            TagConfig::paper_default(AggFunction::Sum),
            &[0, 10, 20, 30],
            1,
        );
        assert_eq!(out.value, 60.0);
        assert_eq!(out.truth, 60.0);
        assert_eq!(out.participants, 3);
        assert_eq!(out.joined, 3);
    }

    #[test]
    fn count_on_random_network_is_near_exact() {
        // Connected sample: on a disconnected deployment nodes outside
        // the base station's component are unreachable by construction,
        // which would test percolation, not TAG.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let dep = Deployment::connected_uniform_random_with_central_bs(
            150,
            Region::paper_default(),
            50.0,
            &mut rng,
        );
        let readings = vec![1u64; 150];
        let out = run_tag(
            dep,
            SimConfig::paper_default(),
            TagConfig::paper_default(AggFunction::Count),
            &readings,
            2,
        );
        // Dense-ish network: TAG collects nearly everyone.
        assert!(out.value >= 135.0, "count {}", out.value);
        assert!(out.value <= 149.0);
    }

    #[test]
    fn two_messages_per_joined_node() {
        // The paper's analysis: TAG sends 2 msgs per node (Hello + Report).
        let dep = line(5, 10.0, 15.0);
        let out = run_tag(
            dep,
            SimConfig::paper_default(),
            TagConfig::paper_default(AggFunction::Sum),
            &[0, 1, 1, 1, 1],
            3,
        );
        // BS sends 1 (Hello); each of 4 nodes sends Hello + Report.
        assert_eq!(out.total_frames, 1 + 4 * 2);
    }

    #[test]
    fn average_decodes_at_bs() {
        let dep = line(4, 10.0, 15.0);
        let out = run_tag(
            dep,
            SimConfig::paper_default(),
            TagConfig::paper_default(AggFunction::Average),
            &[0, 10, 20, 60],
            4,
        );
        assert_eq!(out.value, 30.0);
    }

    #[test]
    fn unreachable_nodes_do_not_participate() {
        // Node 3 is out of range of everyone.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
            Point::new(500.0, 0.0),
        ];
        let dep = Deployment::from_positions(pts, Region::new(600.0, 10.0), 15.0);
        let out = run_tag(
            dep,
            SimConfig::paper_default(),
            TagConfig::paper_default(AggFunction::Sum),
            &[0, 1, 2, 100],
            5,
        );
        assert_eq!(out.value, 3.0);
        assert_eq!(out.participants, 2);
        assert!(
            (out.truth - 103.0).abs() < 1e-9,
            "truth includes stranded node"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let dep = Deployment::uniform_random_with_central_bs(
                100,
                Region::paper_default(),
                50.0,
                &mut rng,
            );
            let readings: Vec<u64> = (0..100).map(|i| i as u64).collect();
            let out = run_tag(
                dep,
                SimConfig::paper_default(),
                TagConfig::paper_default(AggFunction::Sum),
                &readings,
                11,
            );
            (out.value.to_bits(), out.total_bytes, out.participants)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn empty_channel_plan_is_a_no_op() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let dep = Deployment::connected_uniform_random_with_central_bs(
            100,
            Region::paper_default(),
            50.0,
            &mut rng,
        );
        let readings = vec![1u64; 100];
        let run = |channel: &ChannelPlan| {
            let out = run_tag_with_channel(
                dep.clone(),
                SimConfig::paper_default(),
                TagConfig::paper_default(AggFunction::Count),
                &readings,
                6,
                &FaultPlan::none(),
                channel,
            );
            (out.value.to_bits(), out.total_bytes, out.participants)
        };
        assert_eq!(run(&ChannelPlan::none()), run(&ChannelPlan::none()));
        let plain = run_tag(
            dep.clone(),
            SimConfig::paper_default(),
            TagConfig::paper_default(AggFunction::Count),
            &readings,
            6,
        );
        assert_eq!(
            run(&ChannelPlan::none()),
            (plain.value.to_bits(), plain.total_bytes, plain.participants)
        );
    }

    #[test]
    fn bursty_channel_starves_the_tree() {
        // TAG has no retransmission: a bursty channel across reporting
        // slots silently severs subtrees, so participation drops.
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let dep = Deployment::connected_uniform_random_with_central_bs(
            100,
            Region::paper_default(),
            50.0,
            &mut rng,
        );
        let readings = vec![1u64; 100];
        let clean = run_tag(
            dep.clone(),
            SimConfig::paper_default(),
            TagConfig::paper_default(AggFunction::Count),
            &readings,
            8,
        );
        let lossy = run_tag_with_channel(
            dep,
            SimConfig::paper_default(),
            TagConfig::paper_default(AggFunction::Count),
            &readings,
            8,
            &FaultPlan::none(),
            &ChannelPlan::bursty(0.3, 0.8).unwrap(),
        );
        assert!(
            lossy.participants < clean.participants,
            "bursty loss must cost participants: {} vs {}",
            lossy.participants,
            clean.participants
        );
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(TagMsg::Hello { level: 3 }.wire_size(), 3);
        assert_eq!(
            TagMsg::Report {
                totals: vec![1, 2],
                participants: 9
            }
            .wire_size(),
            1 + 16 + 4
        );
    }
}
