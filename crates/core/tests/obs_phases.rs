//! Observability integration: at `ObsLevel::Full` a churned run emits
//! spans for all six protocol phases plus the engine internals, and at
//! the default (`Off`) the registry holds only the protocol counters.

use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaOutcome, IcpdaRun};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use wsn_sim::geometry::Region;
use wsn_sim::prelude::*;

/// The same run the CLI produces for
/// `icpda run --nodes 120 --seed 7 --churn 0.15`:
/// node churn makes heads die mid-formation, so crash recovery fires.
fn churned_run(obs_level: ObsLevel) -> IcpdaOutcome {
    let n = 120;
    let seed = 7;
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.crash_recovery = true;
    let horizon = config.schedule.decision_time();
    let plan = FaultPlan::random_churn(n, 0.15, horizon, seed)
        .expect("invariant: churn probability is valid");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dep =
        Deployment::uniform_random_with_central_bs(n, Region::paper_default(), 50.0, &mut rng);
    let mut sim = SimConfig::paper_default();
    sim.obs_level = obs_level;
    IcpdaRun::new(dep, config, agg::readings::count_readings(n), seed)
        .with_sim_config(sim)
        .with_fault_plan(plan)
        .run()
}

#[test]
fn full_level_covers_all_six_phases_and_engine_internals() {
    let out = churned_run(ObsLevel::Full);
    let names: BTreeSet<&str> = out.obs.spans().iter().map(|s| s.name).collect();
    for phase in [
        "phase.query_flood",
        "phase.cluster_formation",
        "phase.share_exchange",
        "phase.aggregation",
        "phase.ascent_verify",
        "phase.crash_recovery",
    ] {
        assert!(names.contains(phase), "missing {phase} in {names:?}");
    }
    // Engine spans and counters ride along at `Full`.
    assert!(
        names.contains("engine.outage"),
        "no outage spans: {names:?}"
    );
    assert!(out.obs.counter("engine.delivery_batches") > 0);
    assert!(out.obs.counter("engine.fault_edges") > 0);
    assert!(out.obs.counter("engine.timers_fired") > 0);
    // Protocol counters count into the same registry.
    assert!(out.obs.counter("icpda_heads") > 0);
    // Every span is well-formed: monotone interval, saturating deltas.
    for s in out.obs.spans() {
        assert!(s.end_ns >= s.start_ns, "span {s:?} runs backwards");
    }
}

#[test]
fn default_level_records_only_protocol_counters() {
    let out = churned_run(ObsLevel::Off);
    assert!(!out.obs.enabled());
    assert!(out.obs.spans().is_empty());
    assert_eq!(out.obs.gauges().count(), 0);
    assert_eq!(out.obs.histograms().count(), 0);
    assert!(out.obs.counter("icpda_heads") > 0);
    for (name, _) in out.obs.counters() {
        assert!(name.starts_with("icpda_"), "non-protocol counter {name}");
    }
}
