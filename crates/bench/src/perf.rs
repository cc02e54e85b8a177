//! First-class engine/protocol performance benchmarks.
//!
//! Every optimisation PR is judged against the numbers this module
//! produces: a fixed matrix of engine microbenches (events/sec at
//! several network sizes, broadcast fan-out, crypto seal/open) plus
//! end-to-end per-experiment wall times, run as median-of-k with a
//! warm-up pass and emitted both as a human table and as a
//! machine-readable `BENCH_<label>.json` (see the `bench` binary).
//!
//! The committed `BENCH_baseline.json` pins the pre-optimisation engine;
//! `bench --baseline BENCH_baseline.json` annotates every result with
//! its speedup against that file, and the CI `bench-smoke` job warns
//! (without failing) when throughput drops more than 2× below it.
//!
//! Wall-clock time here measures the *host*, never the simulation:
//! nothing in this module feeds simulated state, so benchmark runs
//! cannot perturb any experiment artefact.

use crate::experiments::{icpda_round, tag_round};
use crate::json::Json;
use crate::{paper_deployment, Table};
use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaRun};
use std::time::Instant;
use wsn_sim::geometry::{Point, Region};
use wsn_sim::prelude::*;
use wsn_sim::time::{SimDuration, SimTime};

/// How a benchmark's per-iteration work is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Throughput {
    /// No unit beyond wall time (end-to-end runs).
    WallOnly,
    /// Simulator events executed per second.
    EventsPerSec(u64),
    /// Crypto operations per second.
    OpsPerSec(u64),
}

/// One benchmark's outcome: all samples, the median, and optional
/// throughput derived from the median.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable benchmark id (`engine_events_n600`, `e2e_icpda_n600`, …).
    pub name: String,
    /// `micro` or `e2e`.
    pub group: &'static str,
    /// Median per-iteration wall seconds.
    pub median_secs: f64,
    /// Every timed sample, in run order.
    pub samples_secs: Vec<f64>,
    /// Work units per iteration, when the benchmark counts any.
    pub throughput: Throughput,
}

impl BenchResult {
    /// Work units per second over the median sample (`None` for
    /// wall-only benchmarks).
    #[must_use]
    pub fn units_per_sec(&self) -> Option<f64> {
        let units = match self.throughput {
            Throughput::WallOnly => return None,
            Throughput::EventsPerSec(n) | Throughput::OpsPerSec(n) => n,
        };
        (self.median_secs > 0.0).then(|| units as f64 / self.median_secs)
    }

    fn unit_name(&self) -> Option<&'static str> {
        match self.throughput {
            Throughput::WallOnly => None,
            Throughput::EventsPerSec(_) => Some("events/sec"),
            Throughput::OpsPerSec(_) => Some("ops/sec"),
        }
    }
}

/// A full bench run: provenance plus every result.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The `--label` the run was invoked with (becomes the file name).
    pub label: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a checkout.
    pub git_rev: String,
    /// Worker threads the parallel harness would use on this host
    /// (recorded for context; the benchmarks themselves are
    /// single-threaded like the engine).
    pub threads: usize,
    /// Warm-up iterations discarded before sampling.
    pub warmup: usize,
    /// Timed samples per benchmark (the median is reported).
    pub samples: usize,
    /// Whether the reduced CI matrix was used.
    pub quick: bool,
    /// All benchmark outcomes, in matrix order.
    pub results: Vec<BenchResult>,
}

/// Matrix configuration: full (default) or the reduced CI smoke set.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// Reduced matrix: smallest network size only, fewer samples.
    pub quick: bool,
}

impl PerfConfig {
    fn samples(self) -> usize {
        if self.quick {
            3
        } else {
            5
        }
    }

    const fn warmup(self) -> usize {
        1
    }

    fn engine_sizes(self) -> &'static [usize] {
        if self.quick {
            &[200]
        } else {
            &[200, 400, 600]
        }
    }

    /// Density-constant sizes (scaled region, see
    /// [`crate::scaled_deployment`]): the scale axis this matrix tracks
    /// from PR 9 on. Quick keeps the 10k point so CI sees a real
    /// large-network number on every run; the 50k point is full-matrix
    /// only.
    fn engine_scaled_sizes(self) -> &'static [usize] {
        if self.quick {
            &[10_000]
        } else {
            &[10_000, 50_000]
        }
    }

    fn e2e_sizes(self) -> &'static [usize] {
        if self.quick {
            &[200]
        } else {
            &[600]
        }
    }
}

/// Times `iter` (after `warmup` discarded passes) `samples` times and
/// folds the observations into a [`BenchResult`]. `iter` returns the
/// work-unit count of one pass; counts must not vary between passes —
/// the engine is deterministic, so a varying count indicates a bug.
pub fn measure(
    name: &str,
    group: &'static str,
    samples: usize,
    warmup: usize,
    unit: fn(u64) -> Throughput,
    mut iter: impl FnMut() -> u64,
) -> BenchResult {
    for _ in 0..warmup {
        let _ = std::hint::black_box(iter());
    }
    let mut samples_secs = Vec::with_capacity(samples);
    let mut units = 0u64;
    for _ in 0..samples.max(1) {
        let started = Instant::now();
        units = std::hint::black_box(iter());
        samples_secs.push(started.elapsed().as_secs_f64());
    }
    let mut sorted = samples_secs.clone();
    sorted.sort_by(f64::total_cmp);
    let median_secs = sorted[sorted.len() / 2];
    BenchResult {
        name: name.to_string(),
        group,
        median_secs,
        samples_secs,
        throughput: unit(units),
    }
}

/// A periodic-broadcast load generator: every node beacons a small
/// payload on a fixed period for a few virtual seconds. This floods the
/// heap, the MAC and the delivery fan-out without any protocol logic on
/// top — the purest events/sec measure the engine has.
struct BeaconLoad {
    period: SimDuration,
    until: SimTime,
}

impl Application for BeaconLoad {
    type Message = Vec<u8>;

    fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
        // Stagger the first beacon by node id so the network does not
        // transmit in one synchronized burst.
        let offset = SimDuration::from_micros(u64::from(ctx.id().as_u32()) * 137 % 200_000);
        ctx.set_timer(offset, 0);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Vec<u8>>, _from: NodeId, _msg: &Vec<u8>) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Vec<u8>>, _token: u64) {
        ctx.broadcast(vec![0u8; 24]);
        if ctx.now() + self.period < self.until {
            ctx.set_timer(self.period, 0);
        }
    }
}

/// Events executed by a beacon-load run over a paper deployment of `n`
/// nodes (returned so the caller reports events/sec).
fn engine_events_run(n: usize) -> u64 {
    let until = SimTime::from_secs(3);
    let dep = paper_deployment(n, 11);
    let mut sim = Simulator::new(dep, SimConfig::paper_default(), 23, |_| BeaconLoad {
        period: SimDuration::from_millis(250),
        until,
    });
    sim.run_until(until + SimDuration::from_secs(1));
    sim.events_processed()
}

/// The same beacon load over a *density-constant* deployment (the
/// paper's 400 m field at `n = 600` would pack degree ~2400 at 50k
/// nodes — a different workload entirely; the scaled region keeps the
/// per-node neighborhood at paper size while the event population
/// grows with `n`).
fn engine_events_scaled_run(n: usize) -> u64 {
    let until = SimTime::from_secs(3);
    let dep = crate::scaled_deployment(n, 11);
    let mut sim = Simulator::new(dep, SimConfig::paper_default(), 23, |_| BeaconLoad {
        period: SimDuration::from_millis(250),
        until,
    });
    sim.run_until(until + SimDuration::from_secs(1));
    sim.events_processed()
}

/// Adjacency-build throughput: constructs the full 50k-node scaled
/// deployment (positions + flat-grid unit-disk adjacency) and returns
/// the node count as the op unit.
fn neighbor_build_run(n: usize) -> u64 {
    let dep = crate::scaled_deployment(n, 11);
    std::hint::black_box(dep.average_degree());
    n as u64
}

/// A one-transmitter broadcast storm over a dense clique: every frame
/// is delivered to every other node, isolating the per-receiver
/// delivery cost (the inner loop the payload-sharing optimisation
/// targets).
fn broadcast_fanout_run(receivers: usize, frames: u32) -> u64 {
    struct Storm {
        frames: u32,
    }
    impl Application for Storm {
        type Message = Vec<u8>;
        fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
            if ctx.id() == NodeId::new(0) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Vec<u8>>, _from: NodeId, _msg: &Vec<u8>) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Vec<u8>>, _token: u64) {
            ctx.broadcast(vec![0u8; 64]);
            if self.frames > 1 {
                self.frames -= 1;
                ctx.set_timer(SimDuration::from_millis(2), 0);
            }
        }
    }
    // A circle of radius 10 m inside a 50 m radio range: all nodes are
    // mutual neighbours.
    let positions: Vec<Point> = (0..=receivers)
        .map(|i| {
            let angle = i as f64 / (receivers + 1) as f64 * std::f64::consts::TAU;
            Point::new(50.0 + 10.0 * angle.cos(), 50.0 + 10.0 * angle.sin())
        })
        .collect();
    let dep = Deployment::from_positions(positions, Region::new(100.0, 100.0), 50.0);
    let mut sim = Simulator::new(dep, SimConfig::ideal(), 5, |_| Storm { frames });
    sim.run_to_quiescence(SimTime::from_secs(30));
    sim.events_processed()
}

/// Crypto throughput: seal+open round trips on a share-sized payload.
fn crypto_seal_open_run(ops: u64) -> u64 {
    let key = wsn_crypto::LinkKey(0x5eed);
    let payload = [0xabu8; 32];
    let mut acc = 0u64;
    for nonce in 0..ops {
        let sealed = wsn_crypto::seal(key, nonce, &payload);
        if let Some(plain) = wsn_crypto::open(key, &sealed) {
            acc = acc.wrapping_add(u64::from(plain[0]));
        }
    }
    std::hint::black_box(acc);
    ops
}

/// Runs the benchmark matrix and collects the report.
#[must_use]
pub fn run_matrix(label: &str, config: PerfConfig) -> BenchReport {
    let samples = config.samples();
    let warmup = config.warmup();
    let mut results = Vec::new();
    for &n in config.engine_sizes() {
        results.push(measure(
            &format!("engine_events_n{n}"),
            "micro",
            samples,
            warmup,
            Throughput::EventsPerSec,
            move || engine_events_run(n),
        ));
        eprintln!("  measured engine_events_n{n}");
    }
    for &n in config.engine_scaled_sizes() {
        let name = format!("engine_events_n{}k", n / 1000);
        results.push(measure(
            &name,
            "micro",
            samples,
            warmup,
            Throughput::EventsPerSec,
            move || engine_events_scaled_run(n),
        ));
        eprintln!("  measured {name}");
    }
    if !config.quick {
        results.push(measure(
            "neighbor_build_n50k",
            "micro",
            samples,
            warmup,
            Throughput::OpsPerSec,
            move || neighbor_build_run(50_000),
        ));
        eprintln!("  measured neighbor_build_n50k");
    }
    let fanout_frames: u32 = if config.quick { 100 } else { 400 };
    results.push(measure(
        "broadcast_fanout_64",
        "micro",
        samples,
        warmup,
        Throughput::EventsPerSec,
        move || broadcast_fanout_run(63, fanout_frames),
    ));
    eprintln!("  measured broadcast_fanout_64");
    let crypto_ops: u64 = if config.quick { 20_000 } else { 100_000 };
    results.push(measure(
        "crypto_seal_open_32b",
        "micro",
        samples,
        warmup,
        Throughput::OpsPerSec,
        move || crypto_seal_open_run(crypto_ops),
    ));
    eprintln!("  measured crypto_seal_open_32b");
    for &n in config.e2e_sizes() {
        results.push(measure(
            &format!("e2e_icpda_n{n}"),
            "e2e",
            samples,
            warmup,
            |_| Throughput::WallOnly,
            move || {
                let outcome = icpda_round(n, 1, IcpdaConfig::paper_default(AggFunction::Count));
                u64::from(outcome.participants)
            },
        ));
        eprintln!("  measured e2e_icpda_n{n}");
        results.push(measure(
            &format!("e2e_tag_n{n}"),
            "e2e",
            samples,
            warmup,
            |_| Throughput::WallOnly,
            move || {
                let outcome = tag_round(n, 1, AggFunction::Count);
                u64::from(outcome.participants)
            },
        ));
        eprintln!("  measured e2e_tag_n{n}");
    }
    BenchReport {
        label: label.to_string(),
        git_rev: git_rev(),
        threads: crate::parallel::effective_threads(),
        warmup,
        samples,
        quick: config.quick,
        results,
    }
}

/// Runs one fully instrumented end-to-end iCPDA round (N=200 with node
/// churn, so every protocol phase — crash recovery included — emits
/// spans) and streams the observability capture (`manifest.json`,
/// `spans.jsonl`, `metrics.jsonl`; at [`ObsLevel::Full`] also
/// `trace.jsonl` and `profile.jsonl`) to `dir` through the
/// bounded-memory exporter.
///
/// # Errors
///
/// Returns a description when the fault plan cannot be built or the
/// capture directory cannot be written.
pub fn capture_obs(dir: &std::path::Path, level: ObsLevel) -> Result<(), String> {
    let n = 200;
    let seed = 7;
    let churn = 0.15;
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.crash_recovery = true;
    let horizon = config.schedule.decision_time();
    let plan = FaultPlan::random_churn(n, churn, horizon, seed).map_err(|e| e.to_string())?;
    let mut sim_config = SimConfig::paper_default();
    sim_config.obs_level = level;
    if level == ObsLevel::Full {
        sim_config.trace_level = wsn_sim::TraceLevel::Full;
        sim_config.profile = true;
        sim_config.flight_rounds = 4;
    }
    let manifest = icpda_obs::export::Manifest {
        tool: "bench capture-obs".to_string(),
        seed,
        threads: crate::parallel::effective_threads(),
        git_rev: git_rev(),
        config: vec![
            ("nodes".to_string(), n.to_string()),
            ("seed".to_string(), seed.to_string()),
            ("function".to_string(), config.function.to_string()),
            ("churn".to_string(), churn.to_string()),
        ],
    };
    let stream =
        icpda_obs::stream::ObsStream::create(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (dep, build_ns) = wsn_sim::profile::time_host(|| paper_deployment(n, seed));
    let out = IcpdaRun::new(dep, config, agg::readings::count_readings(n), seed)
        .with_sim_config(sim_config)
        .with_fault_plan(plan)
        .with_obs_stream(stream, manifest)
        .with_profile_section("setup.neighbor_build", 1, build_ns)
        .run();
    match out.stream.and_then(|s| s.error) {
        Some(e) => Err(format!("{}: {e}", dir.display())),
        None => Ok(()),
    }
}

/// Short git revision of the working tree, or `"unknown"` outside a
/// repository — recorded in bench reports and observability manifests.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One baseline comparison: the prior median and the resulting speedup.
#[derive(Debug, Clone)]
pub struct BaselineDelta {
    /// Benchmark id.
    pub name: String,
    /// Baseline median seconds.
    pub base_median_secs: f64,
    /// `base_median / new_median` — above 1.0 means this run is faster.
    pub speedup: f64,
}

/// A parsed `BENCH_*.json`, reduced to what comparisons need.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// `(name, median_secs)` per benchmark.
    pub medians: Vec<(String, f64)>,
}

impl Baseline {
    /// Loads a previously emitted report file.
    ///
    /// # Errors
    ///
    /// Returns a description when the file is unreadable or not a bench
    /// report.
    pub fn load(path: &std::path::Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = crate::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        icpda_obs::export::check_schema_version(&doc, &path.display().to_string())?;
        let results = doc
            .get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: no `results` array", path.display()))?;
        let mut medians = Vec::new();
        for entry in results {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or("result without `name`")?;
            let median = entry
                .get("median_secs")
                .and_then(Json::as_f64)
                .ok_or("result without `median_secs`")?;
            medians.push((name.to_string(), median));
        }
        Ok(Baseline { medians })
    }

    /// The baseline median for `name`, if that benchmark was present.
    #[must_use]
    pub fn median_of(&self, name: &str) -> Option<f64> {
        self.medians
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, m)| m)
    }
}

/// Compares a report against a baseline, producing one delta per
/// benchmark present in both.
#[must_use]
pub fn compare(report: &BenchReport, baseline: &Baseline) -> Vec<BaselineDelta> {
    report
        .results
        .iter()
        .filter_map(|r| {
            let base = baseline.median_of(&r.name)?;
            let speedup = if r.median_secs > 0.0 {
                base / r.median_secs
            } else {
                f64::INFINITY
            };
            Some(BaselineDelta {
                name: r.name.clone(),
                base_median_secs: base,
                speedup,
            })
        })
        .collect()
}

/// Regression warnings for the CI soft gate: any benchmark that ran
/// more than `factor`× slower than its baseline median.
#[must_use]
pub fn regressions(deltas: &[BaselineDelta], factor: f64) -> Vec<String> {
    deltas
        .iter()
        .filter(|d| d.speedup > 0.0 && d.speedup.recip() > factor)
        .map(|d| {
            format!(
                "bench `{}` regressed {:.2}x below the committed baseline \
                 (baseline {:.4}s, now {:.4}s)",
                d.name,
                d.speedup.recip(),
                d.base_median_secs,
                d.base_median_secs / d.speedup
            )
        })
        .collect()
}

impl BenchReport {
    /// The human rendering: one table row per benchmark, with baseline
    /// speedups when `deltas` is non-empty.
    #[must_use]
    pub fn to_table(&self, deltas: &[BaselineDelta]) -> Table {
        let mut table = Table::new(
            &format!("Benchmarks — {} (rev {})", self.label, self.git_rev),
            &["bench", "group", "median", "throughput", "vs baseline"],
        );
        for r in &self.results {
            let delta = deltas
                .iter()
                .find(|d| d.name == r.name)
                .map_or_else(|| "-".to_string(), |d| format!("{:.2}x", d.speedup));
            let throughput = match (r.units_per_sec(), r.unit_name()) {
                (Some(v), Some(unit)) => format!("{} {unit}", group_thousands(v)),
                _ => "-".to_string(),
            };
            table.row(vec![
                r.name.clone(),
                r.group.to_string(),
                format_secs(r.median_secs),
                throughput,
                delta,
            ]);
        }
        table
    }

    /// The machine rendering written to `BENCH_<label>.json`.
    #[must_use]
    pub fn to_json(&self, deltas: &[BaselineDelta]) -> Json {
        let results = self
            .results
            .iter()
            .map(|r| {
                let mut pairs = vec![
                    ("name".to_string(), Json::Str(r.name.clone())),
                    ("group".to_string(), Json::Str(r.group.to_string())),
                    ("median_secs".to_string(), Json::Num(r.median_secs)),
                    (
                        "samples_secs".to_string(),
                        Json::Arr(r.samples_secs.iter().map(|&s| Json::Num(s)).collect()),
                    ),
                ];
                if let (Some(v), Some(unit)) = (r.units_per_sec(), r.unit_name()) {
                    pairs.push(("throughput".to_string(), Json::Num(v)));
                    pairs.push(("throughput_unit".to_string(), Json::Str(unit.to_string())));
                }
                if let Some(d) = deltas.iter().find(|d| d.name == r.name) {
                    pairs.push((
                        "baseline_median_secs".to_string(),
                        Json::Num(d.base_median_secs),
                    ));
                    pairs.push(("speedup_vs_baseline".to_string(), Json::Num(d.speedup)));
                }
                Json::Obj(pairs)
            })
            .collect();
        Json::Obj(vec![
            (
                "schema_version".to_string(),
                Json::Num(icpda_obs::export::OBS_SCHEMA_VERSION as f64),
            ),
            ("label".to_string(), Json::Str(self.label.clone())),
            ("git_rev".to_string(), Json::Str(self.git_rev.clone())),
            ("threads".to_string(), Json::Num(self.threads as f64)),
            ("warmup".to_string(), Json::Num(self.warmup as f64)),
            ("samples".to_string(), Json::Num(self.samples as f64)),
            ("quick".to_string(), Json::Bool(self.quick)),
            ("results".to_string(), Json::Arr(results)),
        ])
    }
}

fn format_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.3}ms", secs * 1e3)
    } else {
        format!("{:.1}us", secs * 1e6)
    }
}

fn group_thousands(v: f64) -> String {
    let raw = format!("{:.0}", v);
    let mut out = String::with_capacity(raw.len() + raw.len() / 3);
    for (i, c) in raw.chars().enumerate() {
        if i > 0 && (raw.len() - i) % 3 == 0 {
            out.push('_');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_median_and_throughput() {
        let r = measure("demo", "micro", 5, 0, Throughput::EventsPerSec, || 1000);
        assert_eq!(r.samples_secs.len(), 5);
        assert!(r.median_secs >= 0.0);
        assert_eq!(r.throughput, Throughput::EventsPerSec(1000));
        assert!(r.units_per_sec().is_some());
    }

    #[test]
    fn engine_load_is_deterministic_in_event_count() {
        let a = engine_events_run(60);
        let b = engine_events_run(60);
        assert_eq!(a, b);
        assert!(a > 1000, "beacon load should generate real traffic: {a}");
    }

    #[test]
    fn fanout_delivers_to_every_receiver() {
        let events = broadcast_fanout_run(15, 10);
        // 10 transmissions, each with >= 15 RxEnd events plus MAC/TxEnd.
        assert!(events > 150, "fan-out too small: {events}");
    }

    #[test]
    fn comparison_flags_regressions_only() {
        let report = BenchReport {
            label: "t".into(),
            git_rev: "abc".into(),
            threads: 1,
            warmup: 1,
            samples: 3,
            quick: true,
            results: vec![BenchResult {
                name: "x".into(),
                group: "micro",
                median_secs: 4.0,
                samples_secs: vec![4.0; 3],
                throughput: Throughput::EventsPerSec(100),
            }],
        };
        let baseline = Baseline {
            medians: vec![("x".into(), 1.0)],
        };
        let deltas = compare(&report, &baseline);
        assert_eq!(deltas.len(), 1);
        assert!((deltas[0].speedup - 0.25).abs() < 1e-12);
        assert_eq!(regressions(&deltas, 2.0).len(), 1);
        assert!(regressions(&deltas, 8.0).is_empty());
    }

    #[test]
    fn json_round_trip_preserves_medians() {
        let report = BenchReport {
            label: "rt".into(),
            git_rev: "abc".into(),
            threads: 2,
            warmup: 1,
            samples: 3,
            quick: false,
            results: vec![BenchResult {
                name: "engine_events_n200".into(),
                group: "micro",
                median_secs: 0.5,
                samples_secs: vec![0.5, 0.5, 0.5],
                throughput: Throughput::EventsPerSec(5000),
            }],
        };
        let text = report.to_json(&[]).pretty();
        let tmp = std::env::temp_dir().join("icpda_bench_rt.json");
        std::fs::write(&tmp, &text).expect("write temp report");
        let baseline = Baseline::load(&tmp).expect("reload");
        assert_eq!(baseline.median_of("engine_events_n200"), Some(0.5));
        let _ = std::fs::remove_file(&tmp);
    }
}
