//! **Figure 5 — Integrity: pollution-detection rate.**
//!
//! Two tables:
//!
//! 1. Detection rate vs. the number of attacking cluster heads, for the
//!    three pollution strategies (naive totals alteration, consistent
//!    input forgery, phantom input). Expected shape: near-perfect
//!    detection for the first two (any neighbour resp. any solved member
//!    convicts the sender), zero for the phantom strategy — the
//!    documented blind spot of local, non-colluding monitoring. The
//!    honest false-reject rate is reported alongside (expected 0).
//!
//! 2. Detection vs. the tolerance `Th` and the pollution magnitude:
//!    `Th` trades the smallest detectable pollution against robustness
//!    to benign deviation — the paper's threshold-selection experiment.

use super::icpda_round;
use crate::parallel::par_map;
use crate::{f3, paper_deployment, Table, TRIALS};
use agg::AggFunction;
use icpda::{AdversaryPlan, Behavior, IcpdaConfig, IcpdaRun, Pollution};
use wsn_sim::NodeId;

const N: usize = 400;

/// Picks `k` heads that actually formed clusters in the honest run.
fn pick_heads(n: usize, seed: u64, k: usize) -> Vec<NodeId> {
    icpda_round(n, seed, IcpdaConfig::paper_default(AggFunction::Count))
        .sharing_heads()
        .take(k)
        .collect()
}

/// Whether the base station rejects the round in which every one of
/// `heads` reports with `pollution` applied.
fn attacked_run(seed: u64, heads: &[NodeId], pollution: Pollution, config: IcpdaConfig) -> bool {
    let mut plan = AdversaryPlan::none();
    for &head in heads {
        plan.assign(head, Behavior::PolluteAggregate(pollution))
            .expect("heads are never the base station");
    }
    let dep = paper_deployment(N, seed);
    let readings = agg::readings::count_readings(N);
    let out = IcpdaRun::new(dep, config, readings, seed.wrapping_mul(31).wrapping_add(7))
        .with_adversary_plan(plan)
        .run();
    !out.accepted
}

/// Regenerates Figure 5.
///
/// # Errors
///
/// Propagates CSV write failures.
pub fn run() -> std::io::Result<()> {
    let config = IcpdaConfig::paper_default(AggFunction::Count);

    let mut table = Table::new(
        "Figure 5a — detection rate vs. number of attacking heads (N = 400)",
        &[
            "attackers",
            "naive (alter totals)",
            "consistent (forge input)",
            "stealthy (phantom input)",
        ],
    );
    // k = 0 row measures the honest false-reject rate.
    let ks = [0usize, 1, 2, 4, 8];
    let pollutions = [
        Pollution::inflate(1_000),
        Pollution::forge_input(1_000),
        Pollution::phantom(1_000, 10),
    ];
    let jobs: Vec<(String, (usize, usize, u64))> = ks
        .iter()
        .enumerate()
        .flat_map(|(ki, &k)| {
            pollutions.iter().enumerate().flat_map(move |(mi, _)| {
                (0..TRIALS).map(move |seed| (format!("k={k}/m{mi}/seed={seed}"), (ki, mi, seed)))
            })
        })
        .collect();
    let detected = par_map("fig5a_detection", jobs, |&(ki, mi, seed)| {
        let heads = pick_heads(N, seed, ks[ki]);
        attacked_run(seed, &heads, pollutions[mi], config)
    });
    for (ki, k) in ks.iter().enumerate() {
        let mut rates = [0.0f64; 3];
        for (mi, rate) in rates.iter_mut().enumerate() {
            let hits = detected
                .iter()
                .skip((ki * pollutions.len() + mi) * TRIALS as usize)
                .take(TRIALS as usize)
                .filter(|&&d| d)
                .count();
            *rate = hits as f64 / TRIALS as f64;
        }
        table.row(vec![
            k.to_string(),
            f3(rates[0]),
            f3(rates[1]),
            f3(rates[2]),
        ]);
    }
    table.emit("fig5a_detection")?;

    let mut th_table = Table::new(
        "Figure 5b — detection vs. tolerance Th and pollution magnitude Δ (one head attacker)",
        &["Δ \\ Th", "0", "50", "500", "5000"],
    );
    let deltas = [10u64, 100, 1_000, 10_000];
    let ths = [0u64, 50, 500, 5_000];
    let th_jobs: Vec<(String, (u64, u64, u64))> = deltas
        .iter()
        .flat_map(|&delta| {
            ths.iter().flat_map(move |&th| {
                (0..TRIALS)
                    .map(move |seed| (format!("d={delta}/th={th}/seed={seed}"), (delta, th, seed)))
            })
        })
        .collect();
    let th_detected = par_map("fig5b_threshold", th_jobs, |&(delta, th, seed)| {
        let mut cfg = config;
        cfg.threshold = th;
        let heads = pick_heads(N, seed, 1);
        attacked_run(seed, &heads, Pollution::inflate(delta), cfg)
    });
    for (di, delta) in deltas.iter().enumerate() {
        let mut cells = vec![delta.to_string()];
        for ti in 0..ths.len() {
            let hits = th_detected
                .iter()
                .skip((di * ths.len() + ti) * TRIALS as usize)
                .take(TRIALS as usize)
                .filter(|&&d| d)
                .count();
            cells.push(f3(hits as f64 / TRIALS as f64));
        }
        th_table.row(cells);
    }
    th_table.emit("fig5b_threshold")
}
