//! Surviving a persistent polluter: multi-round quarantine.
//!
//! A compromised cluster head pollutes every round it participates in —
//! a denial-of-service against the base station's accept/reject rule.
//! The paper's countermeasure is to exclude suspects across rounds; with
//! the audit trail's named accusations this takes exactly one extra
//! round: the rejected round names the polluter, the next round runs
//! without it.
//!
//! Run with: `cargo run --release --example attacker_quarantine`

use agg::AggFunction;
use icpda::{run_session, AdversaryPlan, Behavior, IcpdaConfig, IcpdaRun, Pollution};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_sim::geometry::Region;
use wsn_sim::topology::Deployment;

fn main() {
    let n = 300;
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let deployment =
        Deployment::uniform_random_with_central_bs(n, Region::paper_default(), 50.0, &mut rng);
    let readings = agg::readings::count_readings(n);
    let config = IcpdaConfig::paper_default(AggFunction::Count);

    // Find a cluster head to compromise (probe run, same seed as round 0).
    let probe = IcpdaRun::new(deployment.clone(), config, readings.clone(), 42).run();
    let attacker = probe.sharing_heads().next().expect("clusters formed");
    println!("persistent polluter installed at cluster head {attacker}\n");

    let mut plan = AdversaryPlan::none();
    plan.assign(
        attacker,
        Behavior::PolluteAggregate(Pollution::inflate(50_000)),
    )
    .expect("a cluster head is never the base station");
    let session = run_session(&deployment, config, &readings, 42, &plan, 5);

    for (i, round) in session.rounds.iter().enumerate() {
        println!(
            "round {i}: value {:>7.0}  accepted {:<5}  alarms {:?}",
            round.value,
            round.accepted,
            round.alarms.iter().map(|(_, a)| *a).collect::<Vec<_>>(),
        );
    }
    println!("\nquarantined: {:?}", session.excluded);
    match session.accepted() {
        Some(out) => println!(
            "converged in {} round(s): COUNT = {} (truth {}, accuracy {:.3})",
            session.len(),
            out.value,
            out.truth,
            out.accuracy()
        ),
        None => println!("session did not converge"),
    }
}
