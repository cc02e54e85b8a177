//! The observability capture must be reproducible infrastructure:
//! `spans.jsonl`, `metrics.jsonl` and (when streamed) `trace.jsonl` are
//! byte-identical regardless of the worker-thread override, because
//! the simulation is single-threaded per run and all records are
//! emitted in deterministic order. Only
//! `manifest.json` records the thread count. The in-memory renderers
//! (the references) and the bounded-memory streaming exporter share one
//! renderer per record kind, so their outputs must also agree byte for
//! byte — that identity is asserted here. CI's `obs-stream-smoke` gates
//! the thread-count identity again at N=2000.

use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaRun};
use icpda_bench::{paper_deployment, parallel};
use icpda_obs::export::Manifest;
use icpda_obs::json::{self, Json};
use icpda_obs::stream::ObsStream;
use icpda_obs::ObsLevel;
use std::path::Path;
use wsn_sim::FaultPlan;

fn manifest_threads(dir: &Path) -> f64 {
    let text = std::fs::read_to_string(dir.join("manifest.json")).expect("read manifest");
    let doc = json::parse(&text).expect("parse manifest");
    doc.get("threads")
        .and_then(Json::as_f64)
        .expect("manifest has threads")
}

fn assert_same_files(a_dir: &Path, b_dir: &Path, files: &[&str], what: &str) {
    for file in files {
        let a = std::fs::read(a_dir.join(file)).expect("read first capture");
        let b = std::fs::read(b_dir.join(file)).expect("read second capture");
        assert_eq!(a, b, "{file} differs {what}");
        assert!(!a.is_empty(), "{file} is empty");
    }
}

#[test]
fn obs_export_is_byte_identical_across_thread_counts() {
    let base = std::env::temp_dir().join(format!("icpda_obs_det_{}", std::process::id()));
    let one = base.join("t1");
    let eight = base.join("t8");
    parallel::set_threads(1);
    capture_churned(&one);
    parallel::set_threads(8);
    capture_churned(&eight);

    // The capture goes through the streaming exporter, so the full
    // event trace is part of the identity contract too.
    assert_same_files(
        &one,
        &eight,
        &["spans.jsonl", "metrics.jsonl", "trace.jsonl"],
        "between thread counts",
    );
    // The manifest is where the environment difference belongs.
    assert_eq!(manifest_threads(&one), 1.0);
    assert_eq!(manifest_threads(&eight), 8.0);

    let _ = std::fs::remove_dir_all(&base);
}

/// One fully instrumented N=200 round with node churn and crash
/// recovery on, so every protocol phase emits spans, streamed to `dir`
/// with the full trace, the engine self-profile and the flight
/// recorder. The manifest records the harness thread count.
fn capture_churned(dir: &Path) {
    let n = 200;
    let seed = 7;
    let churn = 0.15;
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.crash_recovery = true;
    let horizon = config.schedule.decision_time();
    let plan = FaultPlan::random_churn(n, churn, horizon, seed).expect("churn plan");
    let mut sc = wsn_sim::SimConfig::paper_default();
    sc.obs_level = ObsLevel::Full;
    sc.trace_level = wsn_sim::TraceLevel::Full;
    sc.profile = true;
    sc.flight_rounds = 4;
    let manifest = Manifest {
        tool: "obs_determinism test".to_string(),
        seed,
        threads: parallel::effective_threads(),
        git_rev: "test".to_string(),
        config: vec![],
    };
    let stream = ObsStream::create(dir).expect("create stream dir");
    let out = IcpdaRun::new(
        paper_deployment(n, seed),
        config,
        agg::readings::count_readings(n),
        seed,
    )
    .with_sim_config(sc)
    .with_fault_plan(plan)
    .with_obs_stream(stream, manifest)
    .run();
    let error = out.stream.and_then(|s| s.error);
    assert!(error.is_none(), "stream error: {error:?}");
}

/// One small instrumented run, streamed to `dir`, or buffered in memory
/// when `dir` is `None` (returning the rendered spans/metrics text
/// instead).
fn capture(dir: Option<&Path>) -> Option<(String, String)> {
    let n = 120;
    let seed = 5;
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let mut sc = wsn_sim::SimConfig::paper_default();
    sc.obs_level = ObsLevel::Full;
    sc.trace_level = wsn_sim::TraceLevel::Full;
    let mut run = IcpdaRun::new(
        paper_deployment(n, seed),
        config,
        agg::readings::count_readings(n),
        seed,
    )
    .with_sim_config(sc);
    if let Some(dir) = dir {
        let manifest = Manifest {
            tool: "obs_determinism test".to_string(),
            seed,
            threads: 1,
            git_rev: "test".to_string(),
            config: vec![],
        };
        let stream = ObsStream::create(dir).expect("create stream dir");
        run = run.with_obs_stream(stream, manifest);
    }
    let out = run.run();
    if let Some(stream) = &out.stream {
        assert!(stream.error.is_none(), "stream error: {:?}", stream.error);
        None
    } else {
        Some((
            icpda_obs::export::spans_jsonl(&out.obs),
            icpda_obs::export::metrics_jsonl(&out.obs),
        ))
    }
}

#[test]
fn streamed_capture_matches_buffered() {
    let base = std::env::temp_dir().join(format!("icpda_obs_stream_{}", std::process::id()));
    capture(Some(&base));
    // Buffered twin of the streamed run: the streaming exporter must
    // reproduce the in-memory renderer byte for byte.
    let (spans, metrics) = capture(None).expect("buffered capture");
    let streamed_spans = std::fs::read_to_string(base.join("spans.jsonl")).expect("spans");
    let streamed_metrics = std::fs::read_to_string(base.join("metrics.jsonl")).expect("metrics");
    assert_eq!(spans, streamed_spans, "spans: streamed != buffered");
    assert_eq!(metrics, streamed_metrics, "metrics: streamed != buffered");

    let _ = std::fs::remove_dir_all(&base);
}
