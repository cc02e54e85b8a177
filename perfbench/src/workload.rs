//! The four workloads: their generated inputs, one untraced trial, and
//! the per-trial correctness checks.
//!
//! A *trial* is one seeded protocol execution, run the way the figure
//! binaries run it. Every input a trial needs — deployment with its
//! neighbor tables, depth, readings, fault and channel plans, run seed —
//! is built up front from the workload seed into a pool, so the program
//! only ever receives generated inputs and set-up cost is measured on
//! its own.

use agg::tag::{run_tag, TagConfig};
use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaOutcome, IcpdaRun, ReliabilityConfig};
use icpda_obs::export::Manifest;
use icpda_obs::stream::ObsStream;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};
use wsn_sim::prelude::*;
use wsn_sim::TraceLevel;

use crate::traced::Spans;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper field at N = 200..600: one iCPDA round plus one TAG
    /// round per trial, as fig2/3/7/9 run them.
    PaperSweep,
    /// fig21's density-constant field at N = 10,000, schedule widened to
    /// the measured depth.
    Scale10k,
    /// N = 300 with crash recovery and the aggressive retry budget,
    /// cycling clean / churn / bursty / churn + bursty.
    LossyRecovery,
    /// `PaperSweep`'s N = 600 point with full observability streamed to
    /// disk.
    ObsFull,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::Scale10k,
        Workload::LossyRecovery,
        Workload::ObsFull,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::Scale10k => "scale_10k",
            Workload::LossyRecovery => "lossy_recovery",
            Workload::ObsFull => "obs_full",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The paper's network sizes, swept by `paper_sweep`.
const SWEEP_SIZES: [usize; 5] = [200, 300, 400, 500, 600];
/// Network size of every `--smoke` trial.
const SMOKE_N: usize = 100;
/// Deployments per size in the `paper_sweep` pool.
const SWEEP_PER_SIZE: usize = 10;
/// `scale_10k` pool size. Trial cost differs between deployments (their
/// depth sets the schedule); eight of them take two passes of 10k-node
/// trials in a 20 s run, so a run holds sixteen samples.
const SCALE_POOL: usize = 8;
/// Deployments per condition in the `lossy_recovery` pool. The four
/// conditions differ in cost by up to 3x, so the median trial falls
/// between them and follows the slowest cheap and fastest dear
/// deployments; twenty per condition steady it across seeds.
const LOSSY_PER_CONDITION: usize = 20;
/// `obs_full` pool size.
const OBS_POOL: usize = 10;
/// Per-node crash probability of the churn conditions (fig18's middle
/// rate).
const CHURN_RATE: f64 = 0.1;
/// Gilbert–Elliott long-run loss and burstiness of the bursty
/// conditions, and the frame-corruption probability added to them
/// (fig20's 20 % bursty point).
const BURSTY_LOSS: f64 = 0.2;
const BURSTINESS: f64 = 0.8;
const CORRUPTION: f64 = 0.02;

/// The fault/channel condition of one `lossy_recovery` trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Condition {
    Clean,
    Churn,
    Bursty,
    ChurnBursty,
}

impl Condition {
    const ALL: [Condition; 4] = [
        Condition::Clean,
        Condition::Churn,
        Condition::Bursty,
        Condition::ChurnBursty,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Condition::Clean => "clean",
            Condition::Churn => "churn",
            Condition::Bursty => "bursty",
            Condition::ChurnBursty => "churn+bursty",
        }
    }

    fn churn(self) -> bool {
        matches!(self, Condition::Churn | Condition::ChurnBursty)
    }

    fn bursty(self) -> bool {
        matches!(self, Condition::Bursty | Condition::ChurnBursty)
    }
}

/// Everything one trial hands the program.
#[derive(Clone, Debug)]
pub struct TrialInput {
    /// A short label for reports (`n400`, `churn`, ...).
    pub label: String,
    pub deployment: Deployment,
    pub config: IcpdaConfig,
    pub sim_config: SimConfig,
    pub readings: Vec<u64>,
    pub run_seed: u64,
    pub fault_plan: FaultPlan,
    pub channel_plan: ChannelPlan,
    /// `paper_sweep` also runs TAG on the same deployment.
    pub tag: Option<TagConfig>,
}

impl TrialInput {
    /// The same trial with observability switched off — `obs_full`'s
    /// Off half of the Full/Off pair, and the configuration its traced
    /// pass reproduces.
    pub fn with_obs_off(&self) -> TrialInput {
        let mut off = self.clone();
        off.sim_config = SimConfig::paper_default();
        off
    }

    /// Whether the input asks for observability output.
    pub fn streams_obs(&self) -> bool {
        self.sim_config.obs_level != ObsLevel::Off
    }
}

/// splitmix64 over `(seed, stream, index)`: every generated input draws
/// its seed from here, so inputs are a pure function of the workload
/// seed and independent of each other.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_DEPLOYMENT: u64 = 1;
const STREAM_RUN: u64 = 2;
const STREAM_FAULT: u64 = 3;

/// fig21's schedule depth: measured eccentricity from the base station
/// plus two, never below the paper's 20.
fn depth_for(deployment: &Deployment) -> u16 {
    let ecc = deployment.eccentricity(NodeId::new(0));
    u16::try_from(ecc)
        .unwrap_or(u16::MAX)
        .saturating_add(2)
        .max(20)
}

/// fig21's widened iCPDA configuration: more upstream slots at the
/// paper's slot length.
fn widened_config(depth: u16) -> IcpdaConfig {
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    if depth > config.schedule.max_depth {
        let slot = config.schedule.upstream_slot();
        config.schedule.max_depth = depth;
        config.schedule.upstream_epoch = slot * u64::from(depth);
    }
    config
}

/// Times `build` as a `topology.*` span when tracing.
fn topology<T>(spans: &mut Option<&mut Spans>, name: &'static str, build: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = build();
    if let Some(spans) = spans.as_deref_mut() {
        spans.record(name, None, start, Instant::now());
    }
    value
}

/// Builds the workload's input pool from `seed`. With `smoke`, sizes and
/// pool shrink to a few tiny trials. When `spans` is given, every
/// deployment build and depth BFS is recorded as a `topology.*` span.
pub fn build_inputs(
    workload: Workload,
    seed: u64,
    smoke: bool,
    mut spans: Option<&mut Spans>,
) -> Vec<TrialInput> {
    let dep_seed = |j: usize| derive_seed(seed, STREAM_DEPLOYMENT, j as u64);
    let run_seed = |j: usize| derive_seed(seed, STREAM_RUN, j as u64);
    match workload {
        Workload::PaperSweep => {
            let sizes: &[usize] = if smoke { &[SMOKE_N] } else { &SWEEP_SIZES };
            let per_size = if smoke { 2 } else { SWEEP_PER_SIZE };
            (0..sizes.len() * per_size)
                .map(|j| {
                    let n = sizes[j % sizes.len()];
                    let deployment = topology(&mut spans, "topology.build", || {
                        icpda_bench::paper_deployment(n, dep_seed(j))
                    });
                    TrialInput {
                        label: format!("n{n}"),
                        deployment,
                        config: IcpdaConfig::paper_default(AggFunction::Count),
                        sim_config: SimConfig::paper_default(),
                        readings: agg::readings::count_readings(n),
                        run_seed: run_seed(j),
                        fault_plan: FaultPlan::none(),
                        channel_plan: ChannelPlan::none(),
                        tag: Some(TagConfig::paper_default(AggFunction::Count)),
                    }
                })
                .collect()
        }
        Workload::Scale10k => {
            let n = if smoke { SMOKE_N } else { 10_000 };
            let pool = if smoke { 1 } else { SCALE_POOL };
            (0..pool)
                .map(|j| {
                    let deployment = topology(&mut spans, "topology.build", || {
                        icpda_bench::scaled_deployment(n, dep_seed(j))
                    });
                    let depth = topology(&mut spans, "topology.depth", || depth_for(&deployment));
                    TrialInput {
                        label: format!("n{n}/depth{depth}"),
                        deployment,
                        config: widened_config(depth),
                        sim_config: SimConfig::paper_default(),
                        readings: agg::readings::count_readings(n),
                        run_seed: run_seed(j),
                        fault_plan: FaultPlan::none(),
                        channel_plan: ChannelPlan::none(),
                        tag: None,
                    }
                })
                .collect()
        }
        Workload::LossyRecovery => {
            let n = if smoke { SMOKE_N } else { 300 };
            let per_condition = if smoke { 1 } else { LOSSY_PER_CONDITION };
            let mut config = IcpdaConfig::paper_default(AggFunction::Count);
            config.crash_recovery = true;
            config.reliability = ReliabilityConfig::aggressive();
            (0..Condition::ALL.len() * per_condition)
                .map(|j| {
                    let condition = Condition::ALL[j % Condition::ALL.len()];
                    let deployment = topology(&mut spans, "topology.build", || {
                        icpda_bench::paper_deployment(n, dep_seed(j))
                    });
                    let fault_plan = if condition.churn() {
                        FaultPlan::random_churn(
                            n,
                            CHURN_RATE,
                            config.schedule.decision_time(),
                            derive_seed(seed, STREAM_FAULT, j as u64),
                        )
                        .expect("invariant: CHURN_RATE is a probability")
                    } else {
                        FaultPlan::none()
                    };
                    let channel_plan = if condition.bursty() {
                        ChannelPlan::bursty(BURSTY_LOSS, BURSTINESS)
                            .and_then(|plan| plan.with_corruption(CORRUPTION))
                            .expect("invariant: the bursty constants are valid probabilities")
                    } else {
                        ChannelPlan::none()
                    };
                    TrialInput {
                        label: condition.name().to_string(),
                        deployment,
                        config,
                        sim_config: SimConfig::paper_default(),
                        readings: agg::readings::count_readings(n),
                        run_seed: run_seed(j),
                        fault_plan,
                        channel_plan,
                        tag: None,
                    }
                })
                .collect()
        }
        Workload::ObsFull => {
            let n = if smoke { SMOKE_N } else { 600 };
            let pool = if smoke { 1 } else { OBS_POOL };
            let mut sim_config = SimConfig::paper_default();
            sim_config.obs_level = ObsLevel::Full;
            sim_config.trace_level = TraceLevel::Full;
            sim_config.profile = true;
            sim_config.flight_rounds = 4;
            (0..pool)
                .map(|j| {
                    let deployment = topology(&mut spans, "topology.build", || {
                        icpda_bench::paper_deployment(n, dep_seed(j))
                    });
                    TrialInput {
                        label: format!("n{n}/full"),
                        deployment,
                        config: IcpdaConfig::paper_default(AggFunction::Count),
                        sim_config,
                        readings: agg::readings::count_readings(n),
                        run_seed: run_seed(j),
                        fault_plan: FaultPlan::none(),
                        channel_plan: ChannelPlan::none(),
                        tag: None,
                    }
                })
                .collect()
        }
    }
}

/// One correctness violation of a trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Violation {
    /// The trial panicked instead of returning an outcome.
    Panicked,
    /// (a) The base station never decided.
    NoDecision,
    /// (b) iCPDA claimed more participants than eligible sensors.
    Overcount,
    /// (c) The COUNT value differs from the participant count.
    CountMismatch,
    /// (b)/(c) for the TAG round of a `paper_sweep` trial.
    TagInconsistent,
    /// (d) The traced pass did not reproduce the untraced decision,
    /// frame count or collision count.
    TracedDiverged,
    /// The obs stream reported an I/O error.
    StreamError,
    /// A repeat of the input did not reproduce its first trial's
    /// verdict.
    Unrepeatable,
}

/// What the checks need from one protocol round.
#[derive(Clone, Copy, Debug)]
pub struct Facts {
    pub decided: bool,
    pub value: f64,
    pub participants: u32,
    pub eligible: usize,
}

/// Checks (a)–(c) on one round's facts: decided, `participants ≤
/// eligible` and, for COUNT, `value == participants`.
pub fn check_round(facts: &Facts, out: &mut Vec<Violation>) {
    if !facts.decided {
        out.push(Violation::NoDecision);
        return;
    }
    if facts.participants as usize > facts.eligible {
        out.push(Violation::Overcount);
    }
    if facts.value != f64::from(facts.participants) {
        out.push(Violation::CountMismatch);
    }
}

/// What a repeat of an input must reproduce: the trial's violations,
/// and its outcome's value, participant count, frame count and
/// collision count.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    violations: Vec<Violation>,
    outcome: Option<(u64, u32, u64, u64)>,
}

impl Verdict {
    pub fn new(violations: &[Violation], outcome: Option<&IcpdaOutcome>) -> Verdict {
        Verdict {
            violations: violations.to_vec(),
            outcome: outcome.map(|o| {
                (
                    o.value.to_bits(),
                    o.participants,
                    o.total_frames,
                    o.collisions,
                )
            }),
        }
    }
}

/// One input of the pool, as checked so far.
#[derive(Clone, Debug)]
struct Checked {
    label: String,
    crash_recovery: bool,
    /// The first trial's verdict, which every repeat must match.
    first: Verdict,
    /// Every violation over the input's trials.
    violations: BTreeSet<Violation>,
}

impl Checked {
    fn failed(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Failed some other way than the known crash-recovery overcount.
    fn unexpected(&self) -> bool {
        !self
            .violations
            .iter()
            .all(|v| *v == Violation::Overcount && self.crash_recovery)
    }
}

/// Failure counts over a run, per input of the pool. Every trial is
/// checked and a failed check never stops the run, but `attempted` and
/// `failed` count inputs, not trials: a run repeats the pool for as
/// many passes as fit in `--seconds`, and a count of trials would move
/// with the program's speed. Every repeat must reproduce its input's
/// first verdict, or the input fails as [`Violation::Unrepeatable`].
/// `unexpected` counts inputs failed other than by the known
/// crash-recovery overcount (see the README), and makes the run
/// incorrect.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Trials run, repeats included.
    pub trials: u64,
    inputs: BTreeMap<usize, Checked>,
}

impl Tally {
    /// Records one trial of pool input `index`.
    pub fn record(&mut self, index: usize, input: &TrialInput, verdict: Verdict) {
        self.trials += 1;
        match self.inputs.entry(index) {
            Entry::Vacant(entry) => {
                entry.insert(Checked {
                    label: input.label.clone(),
                    crash_recovery: input.config.crash_recovery,
                    violations: verdict.violations.iter().copied().collect(),
                    first: verdict,
                });
            }
            Entry::Occupied(mut entry) => {
                let checked = entry.get_mut();
                if verdict != checked.first {
                    checked.violations.insert(Violation::Unrepeatable);
                    checked.violations.extend(verdict.violations);
                }
            }
        }
    }

    /// Inputs checked.
    pub fn attempted(&self) -> u64 {
        self.inputs.len() as u64
    }

    /// Inputs with a failed trial.
    pub fn failed(&self) -> u64 {
        self.inputs.values().filter(|c| c.failed()).count() as u64
    }

    /// Failed inputs other than the known overcount.
    pub fn unexpected(&self) -> u64 {
        self.inputs.values().filter(|c| c.unexpected()).count() as u64
    }

    /// `failed / attempted` (0 before the first trial).
    pub fn fail_ratio(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }

    /// Failed inputs per violation kind, for the report.
    pub fn by_kind(&self) -> BTreeMap<Violation, u64> {
        let mut kinds = BTreeMap::new();
        for v in self.inputs.values().flat_map(|c| &c.violations) {
            *kinds.entry(*v).or_default() += 1;
        }
        kinds
    }

    /// `(label, failed, attempted)` inputs per label, in pool order,
    /// for the report.
    pub fn by_label(&self) -> Vec<(String, u64, u64)> {
        let mut labels: Vec<(String, u64, u64)> = Vec::new();
        for c in self.inputs.values() {
            let at = match labels.iter().position(|(l, _, _)| *l == c.label) {
                Some(at) => at,
                None => {
                    labels.push((c.label.clone(), 0, 0));
                    labels.len() - 1
                }
            };
            labels[at].1 += u64::from(c.failed());
            labels[at].2 += 1;
        }
        labels
    }
}

/// The result of one untraced trial.
pub struct Untraced {
    /// Host time of the iCPDA round (plus the obs stream's set-up when
    /// streaming).
    pub icpda_ns: u64,
    /// Host time of the TAG round (0 unless `paper_sweep`).
    pub tag_ns: u64,
    pub outcome: Option<IcpdaOutcome>,
    pub violations: Vec<Violation>,
}

impl Untraced {
    pub fn total_ns(&self) -> u64 {
        self.icpda_ns + self.tag_ns
    }
}

/// Runs one trial the way the figure binaries do and checks it. A
/// streaming input writes its obs artefacts to `obs_dir`, which is
/// cleared first, outside the timed region.
pub fn run_untraced(input: &TrialInput, obs_dir: &Path) -> Untraced {
    let deployment = input.deployment.clone();
    let tag_deployment = input.tag.map(|_| input.deployment.clone());
    let mut violations = Vec::new();
    let stream_setup = if input.streams_obs() {
        let _ = std::fs::remove_dir_all(obs_dir);
        let manifest = Manifest {
            tool: "perfbench obs_full".to_string(),
            seed: input.run_seed,
            threads: 1,
            git_rev: "unknown".to_string(),
            config: vec![("nodes".to_string(), input.deployment.len().to_string())],
        };
        Some(manifest)
    } else {
        None
    };

    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let run = IcpdaRun::new(
            deployment,
            input.config,
            input.readings.clone(),
            input.run_seed,
        )
        .with_sim_config(input.sim_config)
        .with_fault_plan(input.fault_plan.clone())
        .with_channel_plan(input.channel_plan.clone());
        match stream_setup {
            Some(manifest) => ObsStream::create(obs_dir)
                .map(|stream| run.with_obs_stream(stream, manifest).run())
                .map_err(|_| Violation::StreamError),
            None => Ok(run.run()),
        }
    }));
    let icpda_ns = elapsed_ns(start);
    let outcome = match outcome {
        Ok(Ok(outcome)) => Some(outcome),
        Ok(Err(v)) => {
            violations.push(v);
            None
        }
        Err(_) => {
            violations.push(Violation::Panicked);
            None
        }
    };
    if let Some(o) = &outcome {
        check_round(
            &Facts {
                decided: !o.decisions.is_empty(),
                value: o.value,
                participants: o.participants,
                eligible: o.eligible,
            },
            &mut violations,
        );
        if o.stream.as_ref().is_some_and(|s| s.error.is_some()) {
            violations.push(Violation::StreamError);
        }
    }

    let mut tag_ns = 0;
    if let (Some(tag_config), Some(tag_deployment)) = (input.tag, tag_deployment) {
        let start = Instant::now();
        let tag = catch_unwind(AssertUnwindSafe(|| {
            run_tag(
                tag_deployment,
                input.sim_config,
                tag_config,
                &input.readings,
                input.run_seed,
            )
        }));
        tag_ns = elapsed_ns(start);
        match tag {
            Ok(t) => {
                if t.participants as usize > t.eligible || t.value != f64::from(t.participants) {
                    violations.push(Violation::TagInconsistent);
                }
            }
            Err(_) => violations.push(Violation::Panicked),
        }
    }
    Untraced {
        icpda_ns,
        tag_ns,
        outcome,
        violations,
    }
}

/// `d` in nanoseconds, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds since `start`, saturating.
pub fn elapsed_ns(start: Instant) -> u64 {
    nanos(start.elapsed())
}
