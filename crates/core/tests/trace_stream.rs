//! Run-level trace identity: a multi-round churned run streamed to
//! `trace.jsonl` writes exactly the bytes the same run's in-memory ring
//! renders, across many writer batches, and every round boundary
//! leaves the file holding exactly the entries recorded so far.

use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaNode};
use icpda_obs::stream::JsonlSink;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_sim::geometry::Region;
use wsn_sim::prelude::*;
use wsn_sim::trace::BATCH_ENTRIES;

const N: usize = 120;
const SEED: u64 = 7;

/// The churned five-round session of `flight_recorder.rs`, driven by
/// hand; `trace_capacity = 0` leaves the trace to a stream.
fn churned_sim(config: IcpdaConfig, trace_capacity: usize) -> Simulator<IcpdaNode> {
    let horizon = config.schedule.decision_time() * u64::from(config.rounds);
    let plan = FaultPlan::random_churn(N, 0.3, horizon, SEED).expect("valid churn");
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let dep =
        Deployment::uniform_random_with_central_bs(N, Region::paper_default(), 50.0, &mut rng);
    let readings = agg::readings::count_readings(N);
    let mut sim_config = SimConfig::paper_default();
    sim_config.trace_capacity = trace_capacity;
    let mut sim = Simulator::new(dep, sim_config, SEED, |id| {
        IcpdaNode::new(config, id == NodeId::new(0), readings[id.index()])
    });
    sim.set_fault_plan(plan);
    sim
}

#[test]
fn streamed_run_matches_its_ring_at_every_round_boundary() {
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.rounds = 5;
    config.crash_recovery = true;
    let dir = std::env::temp_dir().join(format!("icpda_trace_stream_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("trace.jsonl");

    let mut ring = churned_sim(config, 1 << 22);
    let mut streamed = churned_sim(config, 0);
    streamed.set_trace_stream(JsonlSink::create(&path).expect("open trace.jsonl"));
    for round in 1..config.rounds {
        let boundary = SimTime::ZERO
            + config.schedule.decision_time() * u64::from(round)
            + SimDuration::from_millis(50);
        for sim in [&mut ring, &mut streamed] {
            sim.run_until(boundary);
            sim.begin_frame_epoch();
        }
        let on_disk = std::fs::read_to_string(&path).expect("read trace.jsonl");
        assert!(
            on_disk == ring.trace().to_jsonl(),
            "after round {round}'s barrier the file holds {} of {} entries",
            on_disk.lines().count(),
            ring.trace().len()
        );
    }
    let deadline = SimTime::ZERO
        + config.schedule.decision_time() * u64::from(config.rounds)
        + SimDuration::from_secs(1);
    ring.run_until(deadline);
    streamed.run_until(deadline);

    let (records, bytes, err) = streamed.finish_trace_stream().expect("stream attached");
    assert!(err.is_none(), "stream error: {err:?}");
    assert_eq!(
        ring.trace().evicted(),
        0,
        "the ring must hold the whole run"
    );
    let text = std::fs::read_to_string(&path).expect("read trace.jsonl");
    assert!(
        text == ring.trace().to_jsonl(),
        "streamed trace.jsonl diverged from the ring"
    );
    assert_eq!(records, ring.trace().len() as u64);
    assert_eq!(bytes, text.len() as u64);
    assert!(
        records >= 10 * BATCH_ENTRIES as u64,
        "only {records} entries: the run must cross at least 10 writer batches"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
