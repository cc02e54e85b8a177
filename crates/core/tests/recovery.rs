//! Crash-recovery integration tests: ground truth over the sensors
//! that could actually contribute, and end-to-end survival of head,
//! relay, and member crashes with `crash_recovery` enabled.

use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaRun};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_sim::geometry::Region;
use wsn_sim::prelude::*;

/// A dense pocket of `n` nodes, all within radio range of the central
/// base station and mostly of each other.
fn dense_pocket(n: usize) -> Deployment {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    Deployment::uniform_random_with_central_bs(n, Region::new(90.0, 90.0), 50.0, &mut rng)
}

fn sum_readings(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| i * 10).collect()
}

#[test]
fn truth_excludes_quarantined_nodes() {
    let n = 30;
    let readings = sum_readings(n);
    let excluded = [NodeId::new(4), NodeId::new(9)];
    let out = IcpdaRun::new(
        dense_pocket(n),
        IcpdaConfig::paper_default(AggFunction::Sum),
        readings.clone(),
        7,
    )
    .with_excluded(excluded)
    .run();
    let expected: u64 = readings[1..].iter().sum::<u64>() - readings[4] - readings[9];
    assert_eq!(out.truth, expected as f64);
    assert_eq!(out.eligible, n - 1 - excluded.len());
}

#[test]
fn truth_excludes_nodes_dead_at_sensing() {
    let n = 30;
    let readings = sum_readings(n);
    let mut plan = FaultPlan::none();
    // Dead from t = 0: never sensed, so its reading is not collectable
    // and must not count against accuracy.
    plan.crash(NodeId::new(6), SimTime::ZERO)
        .expect("node 6 is not the base station");
    let mut config = IcpdaConfig::paper_default(AggFunction::Sum);
    config.crash_recovery = true;
    let out = IcpdaRun::new(dense_pocket(n), config, readings.clone(), 7)
        .with_fault_plan(plan)
        .run();
    let expected: u64 = readings[1..].iter().sum::<u64>() - readings[6];
    assert_eq!(out.truth, expected as f64);
    assert_eq!(out.eligible, n - 2);
}

#[test]
fn nodes_dying_after_sensing_still_count_in_truth() {
    let n = 30;
    let readings = sum_readings(n);
    let mut config = IcpdaConfig::paper_default(AggFunction::Sum);
    config.crash_recovery = true;
    // Crash well after sensing (200 ms in) but before the upstream
    // phase: the sensor measured, so the truth keeps its reading even
    // though the network may fail to collect it.
    let mut plan = FaultPlan::none();
    plan.crash(NodeId::new(6), SimTime::ZERO + SimDuration::from_secs(2))
        .expect("node 6 is not the base station");
    let out = IcpdaRun::new(dense_pocket(n), config, readings.clone(), 7)
        .with_fault_plan(plan)
        .run();
    let expected: u64 = readings[1..].iter().sum::<u64>();
    assert_eq!(out.truth, expected as f64);
    assert_eq!(out.eligible, n - 1);
}

#[test]
fn empty_plan_with_recovery_off_matches_plain_run() {
    let n = 30;
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let base = IcpdaRun::new(dense_pocket(n), config, agg::readings::count_readings(n), 7).run();
    let gated = IcpdaRun::new(dense_pocket(n), config, agg::readings::count_readings(n), 7)
        .with_fault_plan(FaultPlan::none())
        .run();
    // The fault and recovery layers must be pay-for-what-you-use: with
    // no plan and recovery off, the runs are indistinguishable.
    assert_eq!(base.value, gated.value);
    assert_eq!(base.total_bytes, gated.total_bytes);
    assert_eq!(base.total_frames, gated.total_frames);
    assert_eq!(base.finished_at, gated.finished_at);
}

#[test]
fn recovery_on_without_faults_stays_accurate() {
    let n = 30;
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.crash_recovery = true;
    let out = IcpdaRun::new(dense_pocket(n), config, agg::readings::count_readings(n), 7).run();
    assert!(out.accepted);
    assert!(
        out.accuracy() > 0.9,
        "recovery mode must not hurt the fault-free path: {}",
        out.accuracy()
    );
}

#[test]
fn dead_head_cluster_is_recovered_by_survivors() {
    let n = 30;
    let config = {
        let mut c = IcpdaConfig::paper_default(AggFunction::Count);
        c.crash_recovery = true;
        c
    };
    // Runs are deterministic per seed: learn a head from a dry run,
    // then crash it after its HeadAnnounce but before the roster
    // broadcast — its joiners must notice the silence and fall back.
    let dry = IcpdaRun::new(dense_pocket(n), config, agg::readings::count_readings(n), 7).run();
    let head = dry
        .rosters
        .first()
        .map(|(_, roster)| roster.head())
        .expect("a cluster formed");
    let mut plan = FaultPlan::none();
    plan.crash(head, SimTime::ZERO + SimDuration::from_secs(1))
        .expect("heads are never the base station");
    let out = IcpdaRun::new(dense_pocket(n), config, agg::readings::count_readings(n), 7)
        .with_fault_plan(plan)
        .run();
    assert!(
        out.decision.participants > 0,
        "survivors must still deliver an aggregate"
    );
    assert!(
        out.participants as usize <= out.eligible,
        "dedup must keep participants within the living population"
    );
    let recoveries = [
        Counter::TakeoverReport,
        Counter::DirectReport,
        Counter::HeadDeadDetected,
        Counter::SolvedDegraded,
    ]
    .into_iter()
    .map(|c| out.obs.count(c))
    .sum::<u64>();
    assert!(
        recoveries > 0,
        "killing head {head:?} mid-round must exercise a recovery path"
    );
    assert!(
        out.accuracy() > 0.9,
        "orphaned joiners must be re-absorbed, not lost: {}",
        out.accuracy()
    );
}

#[test]
fn coverage_is_participants_over_eligible() {
    let n = 25;
    let out = IcpdaRun::new(
        dense_pocket(n),
        IcpdaConfig::paper_default(AggFunction::Count),
        agg::readings::count_readings(n),
        3,
    )
    .run();
    assert_eq!(out.eligible, n - 1);
    let expected = f64::from(out.participants) / (n - 1) as f64;
    assert!((out.coverage() - expected).abs() < 1e-12);
}
