//! **Figure 18 — Accuracy and coverage under node churn.**
//!
//! Sweeps the random per-node failure probability and measures how
//! gracefully each protocol degrades when nodes crash mid-round. Every
//! trial draws a deterministic [`FaultPlan`] (crash times uniform over
//! one aggregation round) and runs iCPDA *with crash recovery enabled*
//! and TAG against the same plan. Accuracy is collected / truth where
//! truth only counts sensors still alive at sensing time; coverage is
//! participants / eligible. Expected shape: TAG loses whole subtrees
//! when a relay dies, while iCPDA's recovery paths (survivor solving,
//! head takeover, direct report, parent reroute) keep coverage close
//! to the fraction of surviving sensors.

use crate::parallel::par_sweep;
use crate::{f3, mean, paper_deployment, stddev, Table, TRIALS};
use agg::tag::{run_tag_with_channel, TagConfig, FORMATION};
use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaRun};
use wsn_sim::prelude::*;

/// Network size for the churn sweep (dense enough that baseline
/// coverage is ≈ 1, so degradation is attributable to churn).
const N: usize = 300;

/// Per-node crash probabilities swept on the x-axis.
const RATES: [f64; 5] = [0.0, 0.05, 0.10, 0.15, 0.20];

/// Counters that tick once per successful recovery action.
const RECOVERY_COUNTERS: [&str; 5] = [
    "icpda_head_dead_detected",
    "icpda_takeover_report",
    "icpda_direct_report",
    "icpda_parent_rerouted",
    "icpda_late_forwarded",
];

/// Builds the churn plan for one trial: crash times are uniform over
/// one iCPDA decision period, so both protocols see failures in every
/// phase (formation, share exchange, upstream reporting).
fn churn_plan(rate: f64, horizon: SimDuration, seed: u64) -> FaultPlan {
    FaultPlan::random_churn(N, rate, horizon, seed).expect("invariant: RATES entries lie in [0, 1]")
}

/// Regenerates Figure 18.
///
/// # Errors
///
/// Propagates CSV write failures.
pub fn run() -> std::io::Result<()> {
    let mut table = Table::new(
        "Figure 18 — accuracy and coverage vs. node failure rate (N = 300)",
        &[
            "failure rate",
            "iCPDA acc",
            "iCPDA ±",
            "iCPDA coverage",
            "TAG acc",
            "TAG ±",
            "TAG coverage",
            "recoveries",
        ],
    );
    let per_rate = par_sweep("fig18_churn", &RATES, TRIALS, |&rate, seed| {
        let mut config = IcpdaConfig::paper_default(AggFunction::Count);
        config.crash_recovery = true;
        let horizon = config.schedule.decision_time();
        let plan = churn_plan(rate, horizon, seed);

        let dep = paper_deployment(N, seed);
        let readings = agg::readings::count_readings(N);
        let run_seed = seed.wrapping_mul(31).wrapping_add(7);
        let i = IcpdaRun::new(dep, config, readings, run_seed)
            .with_fault_plan(plan.clone())
            .run();
        let recoveries: u64 = i
            .user_counters
            .iter()
            .filter(|(name, _)| RECOVERY_COUNTERS.contains(name))
            .map(|&(_, count)| count)
            .sum();

        let tag_config = TagConfig::paper_default(AggFunction::Count);
        let tag_horizon = FORMATION + tag_config.epoch;
        let tag_plan = churn_plan(rate, tag_horizon, seed);
        let dep = paper_deployment(N, seed);
        let readings = agg::readings::count_readings(N);
        let t = run_tag_with_channel(
            dep,
            SimConfig::paper_default(),
            tag_config,
            &readings,
            run_seed,
            &tag_plan,
            &ChannelPlan::none(),
        );
        let tag_coverage = if t.eligible == 0 {
            0.0
        } else {
            (f64::from(t.participants) / t.eligible as f64).min(1.0)
        };
        (
            i.accuracy(),
            i.coverage(),
            agg::accuracy_ratio(t.value, t.truth),
            tag_coverage,
            recoveries as f64,
        )
    });
    for (rate, trials) in RATES.iter().zip(per_rate) {
        let icpda_acc: Vec<f64> = trials.iter().map(|t| t.0).collect();
        let icpda_cov: Vec<f64> = trials.iter().map(|t| t.1).collect();
        let tag_acc: Vec<f64> = trials.iter().map(|t| t.2).collect();
        let tag_cov: Vec<f64> = trials.iter().map(|t| t.3).collect();
        let recoveries: Vec<f64> = trials.iter().map(|t| t.4).collect();
        table.row(vec![
            f3(*rate),
            f3(mean(&icpda_acc)),
            f3(stddev(&icpda_acc)),
            f3(mean(&icpda_cov)),
            f3(mean(&tag_acc)),
            f3(stddev(&tag_acc)),
            f3(mean(&tag_cov)),
            f3(mean(&recoveries)),
        ]);
    }
    table.emit("fig18_churn")
}
