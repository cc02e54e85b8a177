//! **Figure 20 — Reliability under bursty and corrupting channels.**
//!
//! Sweeps the channel loss rate at two burstiness settings (i.i.d. and
//! Gilbert–Elliott bursts) and measures how the ARQ layer's retry
//! budgets trade traffic for accuracy. Every combination runs iCPDA
//! twice against the *same* deterministic channel plan — once with the
//! deep retry budget (`--arq on`: three jittered-backoff retransmits)
//! and once with ARQ disabled (single transmission) — plus TAG, which
//! has no retransmission at all. A light corruption rate rides along so
//! the `Corrupt` loss cause is exercised end to end.
//!
//! Expected shape: without ARQ a bursty 20% channel silently severs
//! upstream subtrees (rosters and reports are sent once), while the
//! retry budget re-covers nearly all of the lossless accuracy at the
//! price of retransmission traffic; rounds still complete either way —
//! exhausted budgets degrade coverage, they never hang the round.

use crate::parallel::par_sweep;
use crate::{f3, mean, paper_deployment, stddev, Table, TRIALS};
use agg::tag::{run_tag_with_channel, TagConfig};
use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaRun, ReliabilityConfig};
use wsn_sim::prelude::*;

/// Network size for the reliability sweep (dense enough that lossless
/// coverage is ≈ 1, so degradation is attributable to the channel).
const N: usize = 300;

/// `(loss rate, burstiness)` combinations swept on the x-axis. Loss 0
/// anchors the lossless baseline; each nonzero rate runs i.i.d.
/// (burstiness 0) and bursty (burstiness 0.8, mean burst length 5).
const CHANNELS: [(f64, f64); 7] = [
    (0.0, 0.0),
    (0.1, 0.0),
    (0.2, 0.0),
    (0.3, 0.0),
    (0.1, 0.8),
    (0.2, 0.8),
    (0.3, 0.8),
];

/// Frame-corruption probability applied alongside every lossy channel,
/// so checksum-detected drops (`LossCause::Corrupt`) are part of what
/// the ARQ layer must recover from.
const CORRUPT: f64 = 0.02;

/// Builds the channel plan for one trial combination.
fn channel_plan(loss: f64, burstiness: f64) -> ChannelPlan {
    let plan = ChannelPlan::bursty(loss, burstiness)
        .expect("invariant: CHANNELS entries are valid GE parameters");
    if loss == 0.0 {
        plan
    } else {
        plan.with_corruption(CORRUPT)
            .expect("invariant: CORRUPT is a probability")
    }
}

/// One iCPDA trial under the given channel and retry policy. Returns
/// `(accuracy, coverage, retransmits, degraded, latency_s)`.
fn icpda_trial(
    loss: f64,
    burstiness: f64,
    reliability: ReliabilityConfig,
    seed: u64,
) -> (f64, f64, f64, f64, f64) {
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.reliability = reliability;
    // Threshold sharing (the crash-recovery solve) for both ARQ arms:
    // graceful degradation means a cluster missing an assembly solves
    // with the survivors instead of failing outright, so the figure
    // isolates what the retry budgets recover rather than conflating it
    // with the additive solve's all-or-nothing brittleness.
    config.crash_recovery = true;
    let dep = paper_deployment(N, seed);
    let readings = agg::readings::count_readings(N);
    let run_seed = seed.wrapping_mul(31).wrapping_add(7);
    let out = IcpdaRun::new(dep, config, readings, run_seed)
        .with_channel_plan(channel_plan(loss, burstiness))
        .run();
    let retransmits = out.obs.count(Counter::RelRetransmit);
    let latency = out.last_update.map_or(0.0, |t| t.as_nanos() as f64 / 1e9);
    (
        out.accuracy(),
        out.coverage(),
        retransmits as f64,
        f64::from(u8::from(out.degraded)),
        latency,
    )
}

/// Regenerates Figure 20.
///
/// # Errors
///
/// Propagates CSV write failures.
pub fn run() -> std::io::Result<()> {
    let mut table = Table::new(
        "Figure 20 — accuracy and traffic vs. channel loss and burstiness (N = 300)",
        &[
            "loss rate",
            "burstiness",
            "ARQ acc",
            "ARQ ±",
            "ARQ coverage",
            "no-ARQ acc",
            "no-ARQ coverage",
            "TAG acc",
            "latency s",
            "retransmits",
            "degraded",
        ],
    );
    let per_channel = par_sweep(
        "fig20_reliability",
        &CHANNELS,
        TRIALS,
        |&(loss, b), seed| {
            let arq = icpda_trial(loss, b, ReliabilityConfig::aggressive(), seed);
            let no_arq = icpda_trial(loss, b, ReliabilityConfig::off(), seed);

            let dep = paper_deployment(N, seed);
            let readings = agg::readings::count_readings(N);
            let run_seed = seed.wrapping_mul(31).wrapping_add(7);
            let t = run_tag_with_channel(
                dep,
                SimConfig::paper_default(),
                TagConfig::paper_default(AggFunction::Count),
                &readings,
                run_seed,
                &FaultPlan::none(),
                &channel_plan(loss, b),
            );
            (arq, no_arq, agg::accuracy_ratio(t.value, t.truth))
        },
    );
    for ((loss, b), trials) in CHANNELS.iter().zip(per_channel) {
        let arq_acc: Vec<f64> = trials.iter().map(|t| t.0 .0).collect();
        let arq_cov: Vec<f64> = trials.iter().map(|t| t.0 .1).collect();
        let retransmits: Vec<f64> = trials.iter().map(|t| t.0 .2).collect();
        let degraded: Vec<f64> = trials.iter().map(|t| t.0 .3).collect();
        let latency: Vec<f64> = trials.iter().map(|t| t.0 .4).collect();
        let no_arq_acc: Vec<f64> = trials.iter().map(|t| t.1 .0).collect();
        let no_arq_cov: Vec<f64> = trials.iter().map(|t| t.1 .1).collect();
        let tag_acc: Vec<f64> = trials.iter().map(|t| t.2).collect();
        table.row(vec![
            f3(*loss),
            f3(*b),
            f3(mean(&arq_acc)),
            f3(stddev(&arq_acc)),
            f3(mean(&arq_cov)),
            f3(mean(&no_arq_acc)),
            f3(mean(&no_arq_cov)),
            f3(mean(&tag_acc)),
            f3(mean(&latency)),
            f3(mean(&retransmits)),
            f3(mean(&degraded)),
        ]);
    }
    table.emit("fig20_reliability")
}
