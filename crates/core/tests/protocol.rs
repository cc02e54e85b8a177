//! End-to-end protocol tests: honest rounds, attacks, ablations.

use agg::AggFunction;
use icpda::{
    evaluate_disclosure, AdversaryPlan, Behavior, HeadElection, IcpdaConfig, IcpdaRun,
    IntegrityMode, Pollution, PrivacyMode, Role,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_crypto::LinkAdversary;
use wsn_sim::geometry::{Point, Region};
use wsn_sim::prelude::*;

/// A dense pocket of `n` nodes, all within radio range of the central
/// base station and mostly of each other.
fn dense_pocket(n: usize) -> Deployment {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    Deployment::uniform_random_with_central_bs(n, Region::new(90.0, 90.0), 50.0, &mut rng)
}

fn paper_network(n: usize, seed: u64) -> Deployment {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Deployment::uniform_random_with_central_bs(n, Region::paper_default(), 50.0, &mut rng)
}

/// A plan in which every node of `nodes` pollutes its upstream report.
fn polluters(nodes: impl IntoIterator<Item = NodeId>, pollution: Pollution) -> AdversaryPlan {
    let mut plan = AdversaryPlan::none();
    for node in nodes {
        plan.assign(node, Behavior::PolluteAggregate(pollution))
            .unwrap();
    }
    plan
}

#[test]
fn honest_round_is_accepted_and_accurate() {
    let readings: Vec<u64> = (0..30u64).map(|i| i * 10).collect();
    let out = IcpdaRun::new(
        dense_pocket(30),
        IcpdaConfig::paper_default(AggFunction::Sum),
        readings.clone(),
        7,
    )
    .run();
    assert!(out.accepted, "honest round must be accepted");
    assert!(out.alarms.is_empty());
    let truth: u64 = readings[1..].iter().sum();
    assert_eq!(out.truth, truth as f64);
    assert!(
        out.accuracy() > 0.9,
        "dense pocket should aggregate nearly everyone: {}",
        out.accuracy()
    );
}

#[test]
fn count_matches_participants() {
    let out = IcpdaRun::new(
        dense_pocket(25),
        IcpdaConfig::paper_default(AggFunction::Count),
        agg::readings::count_readings(25),
        3,
    )
    .run();
    assert_eq!(out.value, f64::from(out.participants));
    assert_eq!(out.included as u32, out.participants);
}

#[test]
fn average_and_variance_decode_correctly() {
    // All readings equal: AVG = value, VAR = 0, regardless of which
    // subset participates.
    for (function, expect) in [(AggFunction::Average, 42.0), (AggFunction::Variance, 0.0)] {
        let out = IcpdaRun::new(
            dense_pocket(24),
            IcpdaConfig::paper_default(function),
            vec![42; 24],
            11,
        )
        .run();
        assert!(out.participants > 0, "{function:?}: nobody participated");
        assert!(
            (out.value - expect).abs() < 1e-9,
            "{function:?}: got {}",
            out.value
        );
    }
}

#[test]
fn approx_extrema_queries_end_to_end() {
    // MIN/MAX via power means, aggregated privately through the full
    // protocol. The estimate carries the power-mean bracketing error
    // (a factor n^(1/(2k)) in the estimated quantity's own space —
    // complement space for MIN, which is why MIN needs a tight bound).
    let readings: Vec<u64> = (0..30u64).map(|i| 50 + i * 7).collect(); // 50..253
    let max_q = AggFunction::approx_max(4);
    let out = IcpdaRun::new(
        dense_pocket(30),
        IcpdaConfig::paper_default(max_q),
        readings.clone(),
        19,
    )
    .run();
    assert!(out.accepted);
    assert!(out.participants > 10, "MAX lost too many participants");
    let slack = f64::from(out.participants).powf(1.0 / 8.0);
    assert!(out.value <= 253.0 * slack + 1e-6, "MAX high: {}", out.value);
    assert!(out.value >= 253.0 / slack - 1e-6, "MAX low: {}", out.value);

    let min_q = AggFunction::approx_min(4, 300);
    let out = IcpdaRun::new(
        dense_pocket(30),
        IcpdaConfig::paper_default(min_q),
        readings,
        19,
    )
    .run();
    assert!(out.accepted);
    let truth = 57.0; // entry 0 is the BS
                      // Error bracket in complement space: (300 − 57)·(n^(1/8) − 1).
    let c_slack = (300.0 - truth) * (f64::from(out.participants).powf(1.0 / 8.0) - 1.0);
    assert!(
        (out.value - truth).abs() <= c_slack + 1e-6,
        "MIN estimate {} vs truth {truth} (slack {c_slack:.1})",
        out.value
    );
}

#[test]
fn grouped_queries_aggregate_per_group() {
    use agg::function::pack_grouped;
    let function = AggFunction::grouped_sum(3);
    let readings: Vec<u64> = (0..30u64)
        .map(|i| {
            if i == 0 {
                0
            } else {
                pack_grouped((i % 3) as u32, i)
            }
        })
        .collect();
    let truth = function.group_ground_truth(&readings[1..]);
    let out = IcpdaRun::new(
        dense_pocket(30),
        IcpdaConfig::paper_default(function),
        readings,
        21,
    )
    .run();
    assert!(out.accepted);
    let collected = function.group_values(&out.decision.totals);
    for (z, (got, want)) in collected.iter().zip(&truth).enumerate() {
        // Per-zone populations are tiny (≤10 nodes), so a single lost
        // cluster moves a zone by a lot; bound the loss loosely and the
        // over-count exactly.
        assert!(got / want.max(1.0) > 0.65, "zone {z}: {got} of {want}");
        assert!(got <= want, "zone {z} over-counts");
    }
}

#[test]
fn naive_ch_pollution_is_detected_and_rejected() {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let dep = paper_network(150, 4);
    let readings = agg::readings::count_readings(150);
    // Find a solved cluster head from an honest pre-run.
    let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), 9).run();
    assert!(honest.accepted);
    let head = honest
        .sharing_heads()
        .next()
        .expect("at least one head shared");
    let out = IcpdaRun::new(dep, config, readings, 9)
        .with_adversary_plan(polluters([head], Pollution::inflate(10_000)))
        .run();
    assert!(!out.accepted, "pollution must be rejected");
    assert!(
        out.alarms.iter().any(|(_, accused)| *accused == head),
        "the polluting head must be accused: {:?}",
        out.alarms
    );
}

#[test]
fn consistent_input_forgery_is_detected() {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let dep = paper_network(150, 4);
    let readings = agg::readings::count_readings(150);
    let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), 9).run();
    let head = honest.sharing_heads().next().expect("a head exists");
    let out = IcpdaRun::new(dep, config, readings, 9)
        .with_adversary_plan(polluters([head], Pollution::forge_input(10_000)))
        .run();
    assert!(
        !out.accepted,
        "forged cluster claim must be caught by members"
    );
}

#[test]
fn deflation_is_detected() {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let dep = paper_network(150, 4);
    let readings = agg::readings::count_readings(150);
    let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), 9).run();
    let head = honest.sharing_heads().next().expect("a head exists");
    let out = IcpdaRun::new(dep, config, readings, 9)
        .with_adversary_plan(polluters([head], Pollution::deflate(50)))
        .run();
    assert!(!out.accepted, "deflation must be rejected");
}

#[test]
fn integrity_off_misses_pollution() {
    // The CPDA ablation: privacy only, no monitoring — pollution slides
    // through, which is exactly why the integrity layer exists.
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.integrity = IntegrityMode::Off;
    let dep = paper_network(150, 4);
    let readings = agg::readings::count_readings(150);
    let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), 9).run();
    let head = honest.sharing_heads().next().expect("a head exists");
    let out = IcpdaRun::new(dep, config, readings, 9)
        .with_adversary_plan(polluters([head], Pollution::inflate(10_000)))
        .run();
    assert!(out.accepted, "without the integrity layer nothing alarms");
    assert!(
        out.value > out.truth + 5_000.0,
        "the polluted value is silently accepted"
    );
}

#[test]
fn threshold_tolerates_small_pollution_but_not_large() {
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.threshold = 100;
    let dep = paper_network(150, 4);
    let readings = agg::readings::count_readings(150);
    let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), 9).run();
    let head = honest.sharing_heads().next().expect("a head exists");
    let small = IcpdaRun::new(dep.clone(), config, readings.clone(), 9)
        .with_adversary_plan(polluters([head], Pollution::inflate(50)))
        .run();
    assert!(small.accepted, "below Th: tolerated");
    let large = IcpdaRun::new(dep, config, readings, 9)
        .with_adversary_plan(polluters([head], Pollution::inflate(5_000)))
        .run();
    assert!(!large.accepted, "above Th: rejected");
}

#[test]
fn multiple_independent_attackers_are_detected() {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let dep = paper_network(200, 6);
    let readings = agg::readings::count_readings(200);
    let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), 13).run();
    let heads: Vec<NodeId> = honest.sharing_heads().take(3).collect();
    assert!(heads.len() >= 2, "need several heads");
    let out = IcpdaRun::new(dep, config, readings, 13)
        .with_adversary_plan(polluters(heads.iter().copied(), Pollution::inflate(1_000)))
        .run();
    assert!(!out.accepted);
    assert!(
        out.alarms.len() >= 2,
        "several accusations: {:?}",
        out.alarms
    );
}

#[test]
fn phantom_input_is_the_documented_blind_spot() {
    // A consistent phantom input cannot be refuted by local monitors —
    // the measured limitation of the local, non-colluding attack model.
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let dep = paper_network(150, 4);
    let readings = agg::readings::count_readings(150);
    let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), 9).run();
    let head = honest.sharing_heads().next().expect("a head exists");
    let out = IcpdaRun::new(dep, config, readings, 9)
        .with_adversary_plan(polluters([head], Pollution::phantom(10_000, 5)))
        .run();
    assert!(out.accepted, "phantom inputs evade local monitoring");
    assert!(out.value > out.truth, "and the pollution lands");
}

#[test]
fn no_adversary_no_disclosure() {
    let out = IcpdaRun::new(
        paper_network(150, 8),
        IcpdaConfig::paper_default(AggFunction::Sum),
        agg::readings::count_readings(150),
        21,
    )
    .run();
    assert!(!out.rosters.is_empty());
    let adv = LinkAdversary::new(0.0, 5);
    let report = evaluate_disclosure(&out.rosters, &adv);
    assert_eq!(report.probability(), 0.0);
}

#[test]
fn disclosure_grows_with_link_compromise_probability() {
    let out = IcpdaRun::new(
        paper_network(300, 8),
        IcpdaConfig::paper_default(AggFunction::Sum),
        agg::readings::count_readings(300),
        21,
    )
    .run();
    let p_low = evaluate_disclosure(&out.rosters, &LinkAdversary::new(0.1, 5)).probability();
    let p_high = evaluate_disclosure(&out.rosters, &LinkAdversary::new(0.9, 5)).probability();
    assert!(
        p_low < 0.05,
        "p_x=0.1 should disclose almost nobody: {p_low}"
    );
    assert!(p_high > p_low, "more broken links, more disclosure");
}

#[test]
fn clusters_meet_minimum_size() {
    let out = IcpdaRun::new(
        paper_network(300, 2),
        IcpdaConfig::paper_default(AggFunction::Count),
        agg::readings::count_readings(300),
        5,
    )
    .run();
    for (node, roster) in &out.rosters {
        assert!(
            roster.len() >= 3,
            "{node} shared in an under-sized cluster ({})",
            roster.len()
        );
        assert!(roster.contains(*node));
    }
}

#[test]
fn adaptive_election_produces_fewer_heads_in_dense_networks() {
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.election = HeadElection::Adaptive { k: 3.0 };
    let sparse = IcpdaRun::new(
        paper_network(200, 3),
        config,
        agg::readings::count_readings(200),
        5,
    )
    .run();
    let dense = IcpdaRun::new(
        paper_network(600, 3),
        config,
        agg::readings::count_readings(600),
        5,
    )
    .run();
    let sparse_frac = sparse.heads as f64 / 200.0;
    let dense_frac = dense.heads as f64 / 600.0;
    assert!(
        dense_frac < sparse_frac,
        "adaptive election must thin out heads with density: {sparse_frac} vs {dense_frac}"
    );
}

#[test]
fn runs_are_deterministic_given_seed() {
    let mk = || {
        let out = IcpdaRun::new(
            paper_network(150, 4),
            IcpdaConfig::paper_default(AggFunction::Sum),
            agg::readings::count_readings(150),
            17,
        )
        .run();
        (
            out.value.to_bits(),
            out.total_bytes,
            out.participants,
            out.heads,
        )
    };
    assert_eq!(mk(), mk());
}

#[test]
fn unreachable_pocket_does_not_participate() {
    // Three nodes far away from the BS-connected component.
    let mut pts = vec![
        Point::new(50.0, 50.0), // BS
        Point::new(60.0, 50.0),
        Point::new(50.0, 60.0),
        Point::new(60.0, 60.0),
        Point::new(45.0, 45.0),
    ];
    pts.extend([
        Point::new(900.0, 900.0),
        Point::new(910.0, 900.0),
        Point::new(900.0, 910.0),
    ]);
    let dep = Deployment::from_positions(pts, Region::new(1_000.0, 1_000.0), 50.0);
    let out = IcpdaRun::new(
        dep,
        IcpdaConfig::paper_default(AggFunction::Count),
        vec![0, 1, 1, 1, 1, 1, 1, 1],
        5,
    )
    .run();
    assert!(out.value <= 4.0, "stranded pocket cannot contribute");
    assert_eq!(out.truth, 7.0);
}

#[test]
fn roles_partition_the_network() {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let dep = paper_network(200, 12);
    let readings = agg::readings::count_readings(200);
    let out = IcpdaRun::new(dep, config, readings, 31).run();
    // Every non-BS node ends in exactly one terminal role.
    assert_eq!(out.heads + out.members + out.orphans, 199);
    assert!(out.heads > 0);
    // Every sharing node's roster head is a Head-role node or was
    // consistent at share time; at minimum rosters are well-formed.
    for (_, roster) in &out.rosters {
        assert!(roster.len() <= config.max_cluster_size);
    }
}

#[test]
fn privacy_off_baseline_aggregates_cheaper_but_unverifiable() {
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.privacy = PrivacyMode::Off;
    let dep = paper_network(200, 6);
    let readings = agg::readings::count_readings(200);
    let plain = IcpdaRun::new(dep.clone(), config, readings.clone(), 13).run();
    assert!(plain.accepted);
    // N = 200 is the sparse end of the sweep; coverage dominates.
    assert!(plain.accuracy() > 0.8, "{}", plain.accuracy());

    let full = IcpdaRun::new(
        dep.clone(),
        IcpdaConfig::paper_default(AggFunction::Count),
        readings.clone(),
        13,
    )
    .run();
    assert!(
        plain.total_bytes * 2 < full.total_bytes,
        "raw mode must be far cheaper: {} vs {}",
        plain.total_bytes,
        full.total_bytes
    );

    // The synergy: without transparent assembly, a consistent cluster
    // forgery is invisible to members.
    let head = plain.sharing_heads().next().expect("heads exist");
    let forged = IcpdaRun::new(dep, config, readings, 13)
        .with_adversary_plan(polluters([head], Pollution::forge_input(9_999)))
        .run();
    assert!(
        forged.accepted,
        "privacy-off removes the members' audit material"
    );
    assert!(forged.value > forged.truth, "and the forgery lands");
}

#[test]
fn multi_round_sessions_reuse_clusters() {
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.rounds = 3;
    let out = IcpdaRun::new(
        paper_network(200, 6),
        config,
        agg::readings::count_readings(200),
        13,
    )
    .run();
    assert_eq!(out.decisions.len(), 3);
    for d in &out.decisions {
        assert!(d.accepted, "every honest round is accepted");
        assert!(d.value > 150.0, "round collected {}", d.value);
    }
    // Rounds over persistent clusters produce near-identical results.
    let first = out.decisions[0].value;
    for d in &out.decisions[1..] {
        assert!((d.value - first).abs() <= 25.0, "{} vs {first}", d.value);
    }
}

#[test]
fn reading_schedules_track_changing_workloads() {
    let mut config = IcpdaConfig::paper_default(AggFunction::Sum);
    config.rounds = 3;
    let n = 150;
    let dep = paper_network(n, 4);
    let first = vec![10u64; n];
    let second = vec![20u64; n];
    let third = vec![5u64; n];
    let out = IcpdaRun::new(dep, config, first, 9)
        .with_reading_schedule(vec![second, third])
        .run();
    assert_eq!(out.decisions.len(), 3);
    assert_eq!(out.round_truths.len(), 3);
    // Each round's aggregate tracks its own workload: per-participant
    // means are exactly the per-round readings.
    for (i, expect) in [10.0, 20.0, 5.0].iter().enumerate() {
        let d = &out.decisions[i];
        assert!(d.accepted, "round {i} rejected");
        assert!(d.participants > 0);
        let per_node = d.value / f64::from(d.participants);
        assert!(
            (per_node - expect).abs() < 1e-9,
            "round {i}: per-node {per_node} vs {expect}"
        );
    }
}

#[test]
fn persistent_attacker_is_caught_every_round() {
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.rounds = 3;
    let dep = paper_network(150, 4);
    let readings = agg::readings::count_readings(150);
    let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), 9).run();
    let head = honest.sharing_heads().next().expect("a head exists");
    let out = IcpdaRun::new(dep, config, readings, 9)
        .with_adversary_plan(polluters([head], Pollution::inflate(9_999)))
        .run();
    for (i, d) in out.decisions.iter().enumerate() {
        assert!(!d.accepted, "round {i} must be rejected");
        assert!(
            d.alarms.iter().any(|(_, a)| *a == head),
            "round {i} must accuse {head}"
        );
    }
}

#[test]
fn relay_pollution_is_detected() {
    // Attack a relay (non-head node that forwards upstream traffic).
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let dep = paper_network(200, 6);
    let readings = agg::readings::count_readings(200);

    // Run honestly and find a node that actually relayed (absorbed
    // someone's upstream): use a node at level 1 with members below it.
    // Simplest robust choice: try a few member nodes until one's attack
    // changes the outcome.
    let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), 13).run();
    assert!(honest.accepted);
    let mut attacked_someone = false;
    for (node, _) in honest.rosters.iter().take(12) {
        let out = IcpdaRun::new(dep.clone(), config, readings.clone(), 13)
            .with_adversary_plan(polluters([*node], Pollution::inflate(7_777)))
            .run();
        // The attacker only transmits if it had something to send; when
        // it did, the round must be rejected.
        if (out.value - honest.value).abs() > 1.0 || !out.accepted {
            attacked_someone = true;
            assert!(!out.accepted, "altered traffic from {node} slipped through");
            break;
        }
    }
    assert!(attacked_someone, "no probed node carried traffic");
}

#[test]
fn role_is_exposed_per_node() {
    // Direct state-machine inspection through the simulator.
    use icpda::IcpdaNode;
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let dep = dense_pocket(20);
    let mut sim = Simulator::new(dep, SimConfig::paper_default(), 3, |id| {
        IcpdaNode::new(config, id == NodeId::new(0), 1)
    });
    sim.run_until(SimTime::ZERO + config.schedule.decision_time() + SimDuration::from_secs(1));
    let mut heads = 0;
    for (id, app) in sim.apps() {
        if id == NodeId::new(0) {
            continue;
        }
        match app.role() {
            Role::Head => {
                heads += 1;
                assert!(app.roster().is_some(), "head without roster");
            }
            Role::Member(h) => assert_ne!(h, id, "self-membership is impossible"),
            _ => {}
        }
    }
    assert!(heads > 0);
}
