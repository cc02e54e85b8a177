//! End-to-end application scenarios across the whole stack — the
//! regression tests behind the runnable examples.

use icpda_suite::agg::{self, function::pack_grouped, AggFunction};
use icpda_suite::icpda::{run_session, AdversaryPlan, Behavior, IcpdaConfig, IcpdaRun, Pollution};
use icpda_suite::wsn_sim::geometry::Region;
use icpda_suite::wsn_sim::topology::Deployment;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn network(n: usize, seed: u64) -> Deployment {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Deployment::uniform_random_with_central_bs(n, Region::paper_default(), 50.0, &mut rng)
}

/// The smart-metering example's core claim: a 24-round session over
/// persistent clusters tracks the diurnal load curve accurately.
#[test]
fn metering_day_profile_regression() {
    let meters = 200;
    let mut config = IcpdaConfig::paper_default(AggFunction::Average);
    config.rounds = 6; // a compressed "day" keeps the test fast
    let mut workload = ChaCha8Rng::seed_from_u64(99);
    let first = agg::readings::metering_readings(meters, 0, &mut workload);
    let schedule: Vec<Vec<u64>> = [4u32, 8, 12, 16, 20]
        .iter()
        .map(|&h| agg::readings::metering_readings(meters, h, &mut workload))
        .collect();
    let out = IcpdaRun::new(network(meters, 11), config, first, 1)
        .with_reading_schedule(schedule)
        .run();
    assert_eq!(out.decisions.len(), 6);
    for (i, (d, truth)) in out.decisions.iter().zip(&out.round_truths).enumerate() {
        assert!(d.accepted, "hour-slot {i} rejected");
        let acc = d.value / truth.max(1.0);
        assert!(
            (acc - 1.0).abs() < 0.05,
            "hour-slot {i}: avg {} vs {truth}",
            d.value
        );
    }
    // The evening slot (20h) must exceed the small-hours slot (4h).
    assert!(out.decisions[5].value > out.decisions[1].value * 1.5);
}

/// The grouped-query example's core claim: per-zone sums arrive intact.
#[test]
fn zonal_occupancy_regression() {
    let n = 250;
    let function = AggFunction::grouped_sum(4);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let readings: Vec<u64> = (0..n)
        .map(|i| {
            if i == 0 {
                0
            } else {
                pack_grouped((i % 4) as u32, rand::Rng::gen_range(&mut rng, 1..6))
            }
        })
        .collect();
    let truth = function.group_ground_truth(&readings[1..]);
    let out = IcpdaRun::new(
        network(n, 8),
        IcpdaConfig::paper_default(function),
        readings,
        4,
    )
    .run();
    assert!(out.accepted);
    let collected = function.group_values(&out.decision.totals);
    for (z, (got, want)) in collected.iter().zip(&truth).enumerate() {
        assert!(got <= want, "zone {z} over-counts");
        assert!(got / want > 0.8, "zone {z}: {got}/{want}");
    }
}

/// The quarantine example's core claim, with a slanderer thrown in:
/// both a real polluter AND a false accuser are identified and the
/// session converges to an accepted, near-truth result.
#[test]
fn polluter_and_slanderer_both_quarantined() {
    let n = 250;
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let dep = network(n, 9);
    let readings = agg::readings::count_readings(n);
    let probe = IcpdaRun::new(dep.clone(), config, readings.clone(), 17).run();
    let mut heads = probe.sharing_heads();
    let polluter = heads.next().expect("a head");
    let victim = heads.next().expect("another head");
    let slanderer = probe
        .rosters
        .iter()
        .find_map(|(node, r)| {
            (r.head() != *node && *node != polluter && *node != victim).then_some(*node)
        })
        .expect("a member");
    let mut plan = AdversaryPlan::none();
    plan.assign(
        polluter,
        Behavior::PolluteAggregate(Pollution::inflate(7_000)),
    )
    .unwrap();
    plan.assign(slanderer, Behavior::Slander(victim)).unwrap();
    let session = run_session(&dep, config, &readings, 17, &plan, 8);
    let accepted = session.accepted().expect("session converges");
    assert!(
        session.excluded.contains(&polluter),
        "{:?}",
        session.excluded
    );
    assert!(
        session.excluded.contains(&slanderer),
        "{:?}",
        session.excluded
    );
    assert!(
        !session.excluded.contains(&victim),
        "the slandered head is exonerated: {:?}",
        session.excluded
    );
    assert!(accepted.accuracy() > 0.75, "{}", accepted.accuracy());
}
