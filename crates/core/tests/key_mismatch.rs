//! Key-management failure modes: nodes whose link keys disagree with
//! the network's cannot contribute valid shares, and the protocol must
//! degrade gracefully (bad shares counted and dropped, never panics,
//! honest remainder still aggregates).

use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaNode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_sim::geometry::Region;
use wsn_sim::prelude::*;

#[test]
fn wrong_master_key_nodes_are_dropped_not_fatal() {
    let n = 80;
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let dep =
        Deployment::uniform_random_with_central_bs(n, Region::new(250.0, 250.0), 50.0, &mut rng);
    let good = IcpdaConfig::paper_default(AggFunction::Count);
    let mut bad = good;
    bad.key_master ^= 0xDEAD_BEEF; // mis-provisioned devices

    // Every fourth node carries the wrong master key.
    let mut sim = Simulator::new(dep, SimConfig::paper_default(), 21, |id| {
        let config = if id.index() % 4 == 3 { bad } else { good };
        IcpdaNode::new(config, id == NodeId::new(0), 1)
    });
    sim.run_until(SimTime::ZERO + good.schedule.decision_time() + SimDuration::from_secs(1));

    // Bad shares were seen and rejected.
    assert!(
        sim.obs().count(Counter::ShareBad) > 0,
        "mis-keyed shares must be detected"
    );
    // The base station still decided and never over-counts. Note the
    // blast radius: a mis-keyed member cannot read the shares sent to
    // it, so its assembly covers only itself, its contributor mask
    // conflicts with its peers', and the *whole cluster* fails the solve
    // — one bad key poisons a cluster the way a crash-faulty member
    // does. With 25 % bad nodes and mean cluster size ~5, only ~24 % of
    // clusters are clean, which is what the collected count reflects.
    let decision = sim
        .app(NodeId::new(0))
        .decision()
        .cloned()
        .expect("decision fires");
    assert!(decision.value <= (n - 1) as f64);
    assert!(
        decision.value >= 5.0,
        "clean clusters still aggregate: {}",
        decision.value
    );
}

#[test]
fn fully_mismatched_network_collects_nothing_but_survives() {
    // Base station on one master key, everyone else on another: every
    // share fails authentication; the round still terminates cleanly.
    let n = 30;
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let dep =
        Deployment::uniform_random_with_central_bs(n, Region::new(150.0, 150.0), 50.0, &mut rng);
    let good = IcpdaConfig::paper_default(AggFunction::Count);
    // Give every node a DIFFERENT master key: nobody can read anybody.
    let mut sim = Simulator::new(dep, SimConfig::paper_default(), 5, |id| {
        let mut config = good;
        config.key_master = 0x1000 + u64::from(id.as_u32());
        IcpdaNode::new(config, id == NodeId::new(0), 1)
    });
    sim.run_until(SimTime::ZERO + good.schedule.decision_time() + SimDuration::from_secs(1));
    let decision = sim
        .app(NodeId::new(0))
        .decision()
        .cloned()
        .expect("decision fires");
    // Shares never authenticate, so masks conflict / remain empty and no
    // cluster solves: nothing (or nearly nothing) reaches the BS.
    assert!(decision.value <= 1.0, "got {}", decision.value);
}
