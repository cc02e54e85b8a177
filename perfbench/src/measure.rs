//! The two passes over a workload's input pool, and the metrics each
//! reports.
//!
//! * The **untraced** pass runs trials exactly as the figure binaries
//!   do and gives the end-to-end metrics.
//! * The **traced** pass runs every trial twice — untraced, then
//!   reproduced with every node wrapped — and gives the per-layer
//!   metrics. `obs_full` adds an observability-Off run of each trial,
//!   which is also what its traced reproduction runs.
//!
//! Both are closed loops on one thread: the next trial starts when the
//! previous one returns. The loop goes over the whole pool in order and
//! stops at the end of the pass in which `--seconds` runs out, so every
//! run of a seed measures the same mix of inputs. Its `attempted` and
//! `failed` count inputs of the pool, not trials, so they are the same
//! for every run of a seed however many passes fit (see [`Tally`]).

use crate::speed::Probe;
use crate::traced::{calibrate_clock, run_traced, NodeStats, Spans, LOSS_CAUSES};
use crate::workload::{
    build_inputs, elapsed_ns, run_untraced, Tally, TrialInput, Untraced, Verdict, Violation,
    Workload,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// What one benchmark process does.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The outcome of one pass.
#[derive(Debug)]
pub struct PassResult {
    pub tally: Tally,
    /// The metrics of the result line: end-to-end for the untraced
    /// pass, per-layer for the traced one.
    pub metrics: Vec<Metric>,
    /// Further report lines: sample counts, `trial_s_p90`, failures.
    pub notes: Vec<String>,
}

/// The end-to-end metrics and their units, in report order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("trials_per_s", "trials/s"),
    ("trial_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The `IcpdaMsg` variants reported as `node.msg.<variant>.*`.
pub const MSG_VARIANTS: [&str; 16] = [
    "Query",
    "HeadAnnounce",
    "Join",
    "Resign",
    "ClusterInfo",
    "Share",
    "ShareRelay",
    "RawReading",
    "ShareNack",
    "FSum",
    "FsumNack",
    "FsumEcho",
    "Upstream",
    "NewRound",
    "HeadBeacon",
    "Alarm",
];

/// Input-pool builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// `trial_s_p90` is reported only with at least this many samples, so
/// that at least ten lie beyond it.
const P90_MIN_SAMPLES: usize = 100;
/// fig18's five recovery-action counters.
const RECOVERY_COUNTERS: [&str; 5] = [
    "icpda_head_dead_detected",
    "icpda_takeover_report",
    "icpda_direct_report",
    "icpda_parent_rerouted",
    "icpda_late_forwarded",
];
/// One monitor audit ends in exactly one of these.
const AUDIT_COUNTERS: [&str; 5] = [
    "icpda_audit_clean",
    "icpda_audit_partial",
    "icpda_audit_unknown",
    "icpda_violation_inconsistent",
    "icpda_violation_forged_input",
];
/// A head whose cluster solve failed bumps one of these.
const HEAD_FAILED_COUNTERS: [&str; 2] = [
    "icpda_head_failed_missing_fsum",
    "icpda_head_failed_mask_mismatch",
];

/// Runs one workload pass: builds the input pool, then the untraced or
/// traced pass. Obs output goes to `out_dir/obs-<workload>` (removed at
/// the end), and the traced pass writes its spans to
/// `out_dir/spans-<workload>-seed<seed>.jsonl`.
pub fn run(workload: Workload, opts: Options, out_dir: &Path) -> std::io::Result<PassResult> {
    std::fs::create_dir_all(out_dir)?;
    let obs_dir = out_dir.join(format!("obs-{}", workload.name()));
    let mut spans = Spans::new();
    let mut probe = Probe::new();
    let mut pool = Vec::new();
    let mut setup = Samples::default();
    for _ in 0..SETUP_REPS {
        // Free the previous build first so the pool is resident once.
        drop(std::mem::take(&mut pool));
        probe.restart();
        let start = Instant::now();
        pool = build_inputs(
            workload,
            opts.seed,
            opts.smoke,
            opts.trace.then_some(&mut spans),
        );
        setup.push(elapsed_ns(start), probe.scale());
    }
    let deadline = Duration::from_secs(opts.seconds);
    let mut result = if opts.trace {
        traced_pass(&pool, deadline, &obs_dir, &mut spans)
    } else {
        untraced_pass(&pool, deadline, &obs_dir, &setup, &mut probe)
    };
    let _ = std::fs::remove_dir_all(&obs_dir);
    result.notes.extend(failure_notes(&result.tally));
    if opts.trace {
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", workload.name(), opts.seed));
        spans.write_jsonl(&path)?;
        result
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(result)
}

/// Runs `trial` on each pool index and input, pass after pass, until a
/// pass ends after `deadline`; returns the loop's host time.
fn passes(
    pool: &[TrialInput],
    deadline: Duration,
    mut trial: impl FnMut(usize, &TrialInput),
) -> Duration {
    let start = Instant::now();
    loop {
        for (index, input) in pool.iter().enumerate() {
            trial(index, input);
        }
        if start.elapsed() >= deadline {
            return start.elapsed();
        }
    }
}

/// The median of `xs` (0 for none).
fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_unstable_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in (0, 1] of `xs` (0 for none).
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut xs = xs.to_vec();
    xs.sort_unstable_by(f64::total_cmp);
    let rank = (p * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Timed intervals, raw and rescaled to reference speed (see
/// [`crate::speed`]), in seconds.
#[derive(Debug, Default)]
struct Samples {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Samples {
    fn push(&mut self, raw_ns: u64, scale: f64) {
        let raw = raw_ns as f64 / 1e9;
        self.raw.push(raw);
        self.scaled.push(raw * scale);
    }

    fn per_second(xs: &[f64]) -> f64 {
        xs.len() as f64 / xs.iter().sum::<f64>()
    }
}

fn peak_rss_mb() -> f64 {
    wsn_sim::profile::peak_rss_bytes().map_or(0.0, |b| b as f64 / f64::from(1 << 20))
}

fn untraced_pass(
    pool: &[TrialInput],
    deadline: Duration,
    obs_dir: &Path,
    setup: &Samples,
    probe: &mut Probe,
) -> PassResult {
    // One untimed trial first: page in the code and grow the allocator.
    drop(run_untraced(&pool[0], obs_dir));
    probe.restart();
    let mut trials = Samples::default();
    let mut tally = Tally::default();
    let wall = passes(pool, deadline, |index, input| {
        let trial = run_untraced(input, obs_dir);
        trials.push(trial.total_ns(), probe.scale());
        tally.record(
            index,
            input,
            Verdict::new(&trial.violations, trial.outcome.as_ref()),
        );
    });
    let peak_rss = peak_rss_mb();
    let n = trials.raw.len();
    let mut notes = vec![
        format!(
            "{n} trials in {:.3} s of host time on one thread (closed loop)",
            wall.as_secs_f64()
        ),
        format!(
            "raw host time: trials_per_s = {} trials/s, trial_s_p50 = {} s, setup_s = {} s \
             (host speed {:.3} x reference)",
            Samples::per_second(&trials.raw),
            median(&trials.raw),
            median(&setup.raw),
            probe.mean_scale()
        ),
    ];
    if n >= P90_MIN_SAMPLES {
        notes.push(format!(
            "trial_s_p90 = {} s at reference speed, {} s raw ({n} samples)",
            percentile(&trials.scaled, 0.9),
            percentile(&trials.raw, 0.9)
        ));
    } else {
        notes.push(format!(
            "trial_s_p90 not reported: {n} samples < {P90_MIN_SAMPLES}"
        ));
    }
    let values = [
        Samples::per_second(&trials.scaled),
        median(&trials.scaled),
        median(&setup.scaled),
        peak_rss,
    ];
    PassResult {
        tally,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| metric(name, value, unit))
            .collect(),
        notes,
    }
}

fn failure_notes(tally: &Tally) -> Vec<String> {
    let mut notes = vec![format!(
        "fail_ratio = {} ({} failed / {} attempted pool inputs over {} trials; \
         {} not the known crash-recovery overcount)",
        tally.fail_ratio(),
        tally.failed(),
        tally.attempted(),
        tally.trials,
        tally.unexpected()
    )];
    for (kind, count) in tally.by_kind() {
        notes.push(format!("  {kind:?}: {count} inputs"));
    }
    if tally.failed() > 0 {
        for (label, failed, attempted) in tally.by_label() {
            notes.push(format!("  {label}: {failed}/{attempted} failed"));
        }
    }
    notes
}

/// Per-layer sums over the traced pass's trials.
#[derive(Debug, Default)]
pub struct Layers {
    trials: u64,
    sim_new_ns: u64,
    sim_run_ns: u64,
    node_ns: u64,
    traced_ns: u64,
    events: u64,
    frames: u64,
    bytes: u64,
    lost: [u64; 6],
    /// The untraced counterpart of the traced round (the Off run on
    /// `obs_full`).
    untraced_ns: u64,
    trial_ns: u64,
    tag_ns: u64,
    counters: BTreeMap<&'static str, u64>,
    rejected: u64,
    accuracy: f64,
    coverage: f64,
    latency_s: f64,
    obs_spans: u64,
    obs_records: u64,
    obs_bytes: u64,
    full_ns: u64,
    off_ns: u64,
}

impl Layers {
    fn add(
        &mut self,
        untraced: &Untraced,
        off: Option<&Untraced>,
        traced: &crate::traced::TracedRun,
    ) {
        self.trials += 1;
        self.sim_new_ns += traced.new_ns;
        self.sim_run_ns += traced.run_ns;
        self.node_ns += traced.node_ns;
        self.traced_ns += traced.total_ns;
        self.events += traced.events;
        self.frames += traced.frames;
        self.bytes += traced.bytes;
        for (sum, x) in self.lost.iter_mut().zip(traced.lost) {
            *sum += x;
        }
        self.trial_ns += untraced.total_ns();
        self.tag_ns += untraced.tag_ns;
        match off {
            Some(off) => {
                self.untraced_ns += off.icpda_ns;
                self.full_ns += untraced.icpda_ns;
                self.off_ns += off.icpda_ns;
            }
            None => self.untraced_ns += untraced.icpda_ns,
        }
        if let Some(o) = &untraced.outcome {
            for &(name, value) in &o.user_counters {
                *self.counters.entry(name).or_default() += value;
            }
            self.rejected += u64::from(!o.accepted);
            self.accuracy += o.accuracy();
            if o.eligible > 0 {
                self.coverage += f64::from(o.participants) / o.eligible as f64;
            }
            self.latency_s += o.last_update.map_or(0.0, |t| t.as_nanos() as f64 / 1e9);
            if let Some(s) = &o.stream {
                self.obs_spans += s.spans;
                self.obs_records += s.trace_records;
                self.obs_bytes += s.span_bytes + s.trace_bytes;
            }
        }
    }

    fn counter(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.counters.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
    }

    /// The per-layer metrics, in report order. Times and counts are
    /// means per trial unless the name says otherwise.
    pub fn metrics(
        &self,
        stats: &NodeStats,
        topology_build: &[f64],
        topology_depth: &[f64],
        clock_ns: f64,
    ) -> Vec<Metric> {
        let per = |x: f64| {
            if self.trials == 0 {
                0.0
            } else {
                x / self.trials as f64
            }
        };
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let secs = |ns: u64| per(ns as f64) / 1e9;
        let sim_self_ns = self.sim_run_ns.saturating_sub(self.node_ns);
        let mut m = vec![
            metric("topology.build_s", median(topology_build), "s"),
            metric("topology.depth_s", median(topology_depth), "s"),
            metric("sim.new_s", secs(self.sim_new_ns), "s"),
            metric("sim.events", per(self.events as f64), "count"),
            metric("sim.self_s", secs(sim_self_ns), "s"),
            metric(
                "sim.ns_per_event",
                ratio(sim_self_ns as f64, self.events as f64),
                "ns",
            ),
            metric("sim.frames", per(self.frames as f64), "count"),
            metric("sim.bytes", per(self.bytes as f64), "bytes"),
            metric("sim.collisions", per(self.lost[0] as f64), "count"),
        ];
        for ((_, cause), lost) in LOSS_CAUSES.iter().zip(self.lost) {
            m.push(metric(
                format!("sim.lost.{cause}"),
                per(lost as f64),
                "count",
            ));
        }
        m.push(metric("node.self_s", secs(self.node_ns), "s"));
        m.push(metric(
            "node.share",
            ratio(self.node_ns as f64, self.traced_ns as f64),
            "ratio",
        ));
        let mut bucket = |name: String, b: crate::traced::Bucket| {
            m.push(metric(
                format!("{name}.calls"),
                per(b.calls as f64),
                "count",
            ));
            m.push(metric(
                format!("{name}.ns"),
                ratio(b.ns as f64, b.calls as f64),
                "ns",
            ));
        };
        for variant in MSG_VARIANTS {
            bucket(format!("node.msg.{variant}"), stats.msg(variant));
        }
        bucket("node.overhear".to_string(), stats.overhear);
        bucket("node.timer".to_string(), stats.timer);
        for (name, counter) in [
            ("rel.retransmit", "icpda_rel_retransmit"),
            ("rel.timeout", "icpda_rel_timeout"),
            ("rel.exhausted", "icpda_rel_exhausted"),
            ("rel.duplicate", "icpda_rel_duplicate"),
        ] {
            m.push(metric(name, per(self.counter(&[counter])), "count"));
        }
        m.extend([
            metric(
                "recovery.actions",
                per(self.counter(&RECOVERY_COUNTERS)),
                "count",
            ),
            metric(
                "monitor.audits",
                per(self.counter(&AUDIT_COUNTERS)),
                "count",
            ),
            metric(
                "monitor.alarms",
                per(self.counter(&["icpda_alarm_raised"])),
                "count",
            ),
            metric("icpda.rejected", per(self.rejected as f64), "ratio"),
            metric(
                "shares.sent",
                per(self.counter(&["icpda_share_sent"])),
                "count",
            ),
            metric(
                "clusters.solved",
                per(self.counter(&["icpda_head_solved"])),
                "count",
            ),
            metric(
                "clusters.failed",
                per(self.counter(&HEAD_FAILED_COUNTERS)),
                "count",
            ),
            metric("tag.trial_s", secs(self.tag_ns), "s"),
            metric(
                "tag.share",
                ratio(self.tag_ns as f64, self.trial_ns as f64),
                "ratio",
            ),
            metric("obs.spans", per(self.obs_spans as f64), "count"),
            metric("obs.trace_records", per(self.obs_records as f64), "count"),
            metric("obs.bytes", per(self.obs_bytes as f64), "bytes"),
            metric(
                "obs.mb_per_s",
                ratio(
                    self.obs_bytes as f64 / f64::from(1 << 20),
                    self.full_ns as f64 / 1e9,
                ),
                "MB/s",
            ),
            metric(
                "obs.overhead",
                ratio(self.full_ns as f64, self.off_ns as f64),
                "ratio",
            ),
            metric("quality.accuracy_mean", per(self.accuracy), "ratio"),
            metric("quality.coverage_mean", per(self.coverage), "ratio"),
            metric("quality.latency_sim_s", per(self.latency_s), "s"),
            metric(
                "trace.overhead",
                ratio(self.traced_ns as f64, self.untraced_ns as f64),
                "ratio",
            ),
            metric("trace.clock_ns", clock_ns, "ns"),
        ]);
        m
    }
}

fn traced_pass(
    pool: &[TrialInput],
    deadline: Duration,
    obs_dir: &Path,
    spans: &mut Spans,
) -> PassResult {
    let clock_ns = calibrate_clock();
    let stats = Rc::new(RefCell::new(NodeStats::default()));
    // Untimed warm-up of both halves, with throwaway statistics.
    drop(run_untraced(&pool[0], obs_dir));
    let warm = Rc::new(RefCell::new(NodeStats::default()));
    drop(run_traced(
        &pool[0].with_obs_off(),
        &warm,
        &mut Spans::new(),
        None,
    ));

    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let wall = passes(pool, deadline, |index, input| {
        let trial = spans.open("trial", None);
        let start = Instant::now();
        let untraced = run_untraced(input, obs_dir);
        spans.record("untraced", Some(trial), start, Instant::now());
        let mut violations = untraced.violations.clone();
        // obs_full: the Off half of the Full/Off pair, which is also the
        // configuration the traced reproduction runs.
        let off_input = input.streams_obs().then(|| input.with_obs_off());
        let off = off_input.as_ref().map(|off_input| {
            let start = Instant::now();
            let off = run_untraced(off_input, obs_dir);
            spans.record("untraced.obs_off", Some(trial), start, Instant::now());
            violations.extend(&off.violations);
            off
        });
        let traced = run_traced(
            off_input.as_ref().unwrap_or(input),
            &stats,
            spans,
            Some(trial),
        );
        spans.close(trial);

        if traced.decision.is_none() {
            violations.push(Violation::NoDecision);
        }
        if let Some(o) = &untraced.outcome {
            let same = traced.decision.as_ref() == o.decisions.last()
                && traced.frames == o.total_frames
                && traced.collisions() == o.collisions;
            if !same {
                violations.push(Violation::TracedDiverged);
            }
        }
        violations.sort_unstable();
        violations.dedup();
        tally.record(
            index,
            input,
            Verdict::new(&violations, untraced.outcome.as_ref()),
        );
        layers.add(&untraced, off.as_ref(), &traced);
    });

    let stats = stats.borrow();
    let mut notes = vec![format!(
        "{} traced trials in {:.3} s of host time on one thread",
        layers.trials,
        wall.as_secs_f64()
    )];
    for (name, b) in stats.messages() {
        if !MSG_VARIANTS.contains(&name) {
            notes.push(format!(
                "node.msg.{name}: {} calls, {} ns (variant not in the metric list)",
                b.calls, b.ns
            ));
        }
    }
    PassResult {
        metrics: layers.metrics(
            &stats,
            &spans.durations("topology.build"),
            &spans.durations("topology.depth"),
            clock_ns,
        ),
        tally,
        notes,
    }
}
