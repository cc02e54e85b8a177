//! Data-pollution attacks against the aggregation, and their detection.
//!
//! A compromised cluster head replaces its partial aggregate with a
//! polluted one. This example runs the same deployment four times —
//! honest, then under each pollution strategy — and shows how the
//! integrity layer's peer monitoring convicts the first two strategies
//! while the phantom-input strategy exposes the documented blind spot of
//! local, non-colluding monitoring.
//!
//! Run with: `cargo run --release --example pollution_attack`

use agg::AggFunction;
use icpda::{AdversaryPlan, Behavior, IcpdaConfig, IcpdaRun, Pollution};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_sim::geometry::Region;
use wsn_sim::topology::Deployment;

fn main() {
    let n = 300;
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let deployment =
        Deployment::uniform_random_with_central_bs(n, Region::paper_default(), 50.0, &mut rng);
    let readings = agg::readings::count_readings(n);
    let config = IcpdaConfig::paper_default(AggFunction::Count);

    let honest = IcpdaRun::new(deployment.clone(), config, readings.clone(), 13).run();
    println!(
        "honest round      : value {:>6.0}  accepted {}  alarms {}",
        honest.value,
        honest.accepted,
        honest.alarms.len()
    );

    // Compromise one of the cluster heads that actually formed a cluster.
    let attacker = honest
        .sharing_heads()
        .next()
        .expect("the honest run formed clusters");
    println!("compromising cluster head {attacker}\n");

    for (label, pollution) in [
        ("alter totals (naive)", Pollution::inflate(5_000)),
        ("forge input (consistent)", Pollution::forge_input(5_000)),
        ("phantom input (stealthy)", Pollution::phantom(5_000, 10)),
    ] {
        let mut plan = AdversaryPlan::none();
        plan.assign(attacker, Behavior::PolluteAggregate(pollution))
            .expect("a cluster head is never the base station");
        let out = IcpdaRun::new(deployment.clone(), config, readings.clone(), 13)
            .with_adversary_plan(plan)
            .run();
        println!(
            "{label:<26}: value {:>6.0}  accepted {}  alarms {:?}",
            out.value, out.accepted, out.alarms
        );
    }
    println!(
        "\nthe naive and consistent attacks are rejected: overhearing \
         neighbours re-sum the audit trail, and cluster members recompute \
         their own cluster's aggregate (transparent aggregation). the \
         phantom input evades local refutation — the cost of the paper's \
         non-colluding local attack model, measured rather than hidden."
    );
}
