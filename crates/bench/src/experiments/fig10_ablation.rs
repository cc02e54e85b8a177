//! **Ablation A10 — the price of the integrity layer.**
//!
//! iCPDA with monitoring on vs. off (the CPDA baseline) across the size
//! sweep: bytes, accuracy and detection capability. Expected shape: the
//! audit trail costs a modest, density-independent byte overhead
//! (per-input claims on upstream reports) and zero accuracy — but turning
//! it off silently forfeits all pollution detection (Figure 5's naive
//! attack goes from ~100 % detected to 0 %).

use super::icpda_round;
use crate::parallel::par_sweep;
use crate::{f1, f3, mean, paper_deployment, Table, N_SWEEP};
use agg::AggFunction;
use icpda::{AdversaryPlan, Behavior, IcpdaConfig, IcpdaRun, IntegrityMode, Pollution};

const SEEDS: u64 = 5;

/// Whether a totals-inflating head is caught in one seeded trial.
fn detected(n: usize, seed: u64, config: IcpdaConfig) -> bool {
    let honest = icpda_round(n, seed, config);
    let Some(head) = honest.sharing_heads().next() else {
        return false;
    };
    let mut plan = AdversaryPlan::none();
    plan.assign(head, Behavior::PolluteAggregate(Pollution::inflate(1_000)))
        .expect("heads are never the base station");
    let out = IcpdaRun::new(
        paper_deployment(n, seed),
        config,
        agg::readings::count_readings(n),
        seed.wrapping_mul(31).wrapping_add(7),
    )
    .with_adversary_plan(plan)
    .run();
    !out.accepted
}

/// Regenerates ablation A10.
///
/// # Errors
///
/// Propagates CSV write failures.
pub fn run() -> std::io::Result<()> {
    let mut table = Table::new(
        "Ablation A10 — integrity layer on vs. off (CPDA)",
        &[
            "nodes",
            "bytes off",
            "bytes on",
            "integrity cost %",
            "acc off",
            "acc on",
            "detect off",
            "detect on",
        ],
    );
    let on = IcpdaConfig::paper_default(AggFunction::Count);
    let mut off = on;
    off.integrity = IntegrityMode::Off;
    let per_n = par_sweep("fig10_ablation", &N_SWEEP, SEEDS, |&n, seed| {
        let o = icpda_round(n, seed, on);
        let f = icpda_round(n, seed, off);
        (
            o.total_bytes as f64,
            o.accuracy(),
            f.total_bytes as f64,
            f.accuracy(),
            detected(n, seed, off),
            detected(n, seed, on),
        )
    });
    for (n, trials) in N_SWEEP.iter().zip(per_n) {
        let bytes_on: Vec<f64> = trials.iter().map(|t| t.0).collect();
        let acc_on: Vec<f64> = trials.iter().map(|t| t.1).collect();
        let bytes_off: Vec<f64> = trials.iter().map(|t| t.2).collect();
        let acc_off: Vec<f64> = trials.iter().map(|t| t.3).collect();
        let detect_off = trials.iter().filter(|t| t.4).count() as f64 / SEEDS as f64;
        let detect_on = trials.iter().filter(|t| t.5).count() as f64 / SEEDS as f64;
        let (bo, bf) = (mean(&bytes_on), mean(&bytes_off));
        table.row(vec![
            n.to_string(),
            f1(bf),
            f1(bo),
            f1((bo / bf - 1.0) * 100.0),
            f3(mean(&acc_off)),
            f3(mean(&acc_on)),
            f3(detect_off),
            f3(detect_on),
        ]);
    }
    table.emit("fig10_ablation")
}
