//! Engine microbenchmarks that the end-to-end benchmark cannot see.
//!
//! The repository benchmark, `perfbench/` (declared by
//! `BENCHMARK.json`), times whole iCPDA and TAG trials end to end and
//! splits them by layer; it is the only end-to-end measure. This module
//! keeps the rows it cannot produce: raw engine events/sec under a
//! protocol-free beacon load at N=10k (the row CI's ≥1M events/sec
//! floor reads) and N=50k, the N=50k neighbor-table build, and crypto
//! seal/open. Each row is the median of k samples after a warm-up pass,
//! emitted both as a human table and as a machine-readable
//! `BENCH_<label>.json` (see the `bench` binary).
//!
//! Wall-clock time here measures the *host*, never the simulation:
//! nothing in this module feeds simulated state, so benchmark runs
//! cannot perturb any experiment artefact.

use crate::Table;
use icpda_obs::json::Json;
use std::time::Instant;
use wsn_sim::prelude::*;
use wsn_sim::time::{SimDuration, SimTime};

/// How a benchmark's per-iteration work is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Throughput {
    /// Simulator events executed per second.
    EventsPerSec(u64),
    /// Crypto operations per second.
    OpsPerSec(u64),
}

/// One benchmark's outcome: all samples, the median, and the throughput
/// derived from the median.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable benchmark id (`engine_events_n10k`, …).
    pub name: String,
    /// Median per-iteration wall seconds.
    pub median_secs: f64,
    /// Every timed sample, in run order.
    pub samples_secs: Vec<f64>,
    /// Work units per iteration.
    pub throughput: Throughput,
}

impl BenchResult {
    /// Work units per second over the median sample (`None` for a zero
    /// median).
    #[must_use]
    pub fn units_per_sec(&self) -> Option<f64> {
        let (Throughput::EventsPerSec(units) | Throughput::OpsPerSec(units)) = self.throughput;
        (self.median_secs > 0.0).then(|| units as f64 / self.median_secs)
    }

    fn unit_name(&self) -> &'static str {
        match self.throughput {
            Throughput::EventsPerSec(_) => "events/sec",
            Throughput::OpsPerSec(_) => "ops/sec",
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
}

/// Times `iter` (after `warmup` discarded passes) `samples` times and
/// folds the observations into a [`BenchResult`]. `iter` returns the
/// work-unit count of one pass; counts must not vary between passes —
/// the engine is deterministic, so a varying count indicates a bug.
pub fn measure(
    name: &str,
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

/// Events executed by the beacon load over a *density-constant*
/// deployment of `n` nodes (the paper's 400 m field at `n = 600` would
/// pack degree ~2400 at 50k nodes — a different workload entirely; the
/// scaled region keeps the per-node neighborhood at paper size while
/// the event population grows with `n`).
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
    for &n in config.engine_scaled_sizes() {
        let name = format!("engine_events_n{}k", n / 1000);
        results.push(measure(
            &name,
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
            samples,
            warmup,
            Throughput::OpsPerSec,
            move || neighbor_build_run(50_000),
        ));
        eprintln!("  measured neighbor_build_n50k");
    }
    let crypto_ops: u64 = if config.quick { 20_000 } else { 100_000 };
    results.push(measure(
        "crypto_seal_open_32b",
        samples,
        warmup,
        Throughput::OpsPerSec,
        move || crypto_seal_open_run(crypto_ops),
    ));
    eprintln!("  measured crypto_seal_open_32b");
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

impl BenchReport {
    /// The human rendering: one table row per benchmark.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            &format!("Benchmarks — {} (rev {})", self.label, self.git_rev),
            &["bench", "median", "throughput"],
        );
        for r in &self.results {
            let throughput = r.units_per_sec().map_or_else(
                || "-".to_string(),
                |v| format!("{} {}", group_thousands(v), r.unit_name()),
            );
            table.row(vec![r.name.clone(), format_secs(r.median_secs), throughput]);
        }
        table
    }

    /// The machine rendering written to `BENCH_<label>.json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let results = self
            .results
            .iter()
            .map(|r| {
                let mut pairs = vec![
                    ("name".to_string(), Json::Str(r.name.clone())),
                    ("median_secs".to_string(), Json::Num(r.median_secs)),
                    (
                        "samples_secs".to_string(),
                        Json::Arr(r.samples_secs.iter().map(|&s| Json::Num(s)).collect()),
                    ),
                ];
                if let Some(v) = r.units_per_sec() {
                    pairs.push(("throughput".to_string(), Json::Num(v)));
                    pairs.push((
                        "throughput_unit".to_string(),
                        Json::Str(r.unit_name().to_string()),
                    ));
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
        let r = measure("demo", 5, 0, Throughput::EventsPerSec, || 1000);
        assert_eq!(r.samples_secs.len(), 5);
        assert!(r.median_secs >= 0.0);
        assert_eq!(r.throughput, Throughput::EventsPerSec(1000));
        assert!(r.units_per_sec().is_some());
    }

    #[test]
    fn engine_load_is_deterministic_in_event_count() {
        let a = engine_events_scaled_run(60);
        let b = engine_events_scaled_run(60);
        assert_eq!(a, b);
        assert!(a > 1000, "beacon load should generate real traffic: {a}");
    }

    #[test]
    fn json_carries_the_fields_the_ci_floor_reads() {
        let report = BenchReport {
            label: "rt".into(),
            git_rev: "abc".into(),
            threads: 2,
            warmup: 1,
            samples: 3,
            quick: true,
            results: vec![BenchResult {
                name: "engine_events_n10k".into(),
                median_secs: 0.5,
                samples_secs: vec![0.5, 0.5, 0.5],
                throughput: Throughput::EventsPerSec(5000),
            }],
        };
        let doc = icpda_obs::json::parse(&report.to_json().pretty()).expect("report is valid JSON");
        let rows = doc
            .get("results")
            .and_then(Json::as_arr)
            .expect("results array");
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(
            row.get("name").and_then(Json::as_str),
            Some("engine_events_n10k")
        );
        assert_eq!(row.get("median_secs").and_then(Json::as_f64), Some(0.5));
        assert_eq!(row.get("throughput").and_then(Json::as_f64), Some(10_000.0));
    }
}
