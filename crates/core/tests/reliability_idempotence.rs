//! Property tests of the reliability layer's receiver-side idempotence:
//! duplicate delivery must be invisible to the protocol outcome, and
//! reordered delivery must never break soundness.
//!
//! The channel plan's duplication knob delivers every surviving
//! reception twice through the exact same dispatch path, so running
//! with `duplication = 1.0` replays every handler against its own
//! duplicate. Because channel draws come from the dedicated channel RNG
//! stream (never the node streams), any outcome difference versus the
//! clean run can only come from a handler that is not duplicate-safe —
//! a missing seen-set guard, a re-armed timer, or a stray RNG draw on
//! the duplicate path.

use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaRun};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_sim::geometry::Region;
use wsn_sim::prelude::*;

fn network(n: usize, seed: u64) -> Deployment {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Deployment::uniform_random_with_central_bs(n, Region::new(250.0, 250.0), 50.0, &mut rng)
}

fn run_with_channel(
    n: usize,
    dep_seed: u64,
    run_seed: u64,
    plan: ChannelPlan,
) -> icpda::IcpdaOutcome {
    IcpdaRun::new(
        network(n, dep_seed),
        IcpdaConfig::paper_default(AggFunction::Count),
        agg::readings::count_readings(n),
        run_seed,
    )
    .with_channel_plan(plan)
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Delivering every frame twice changes nothing: every handler
    /// deduplicates (`seen_upstream`, joiner/head seen-sets, the relay
    /// cache, overwrite-idempotent share and assembly maps), so the
    /// duplicated run's outcome is bit-identical to the clean run's.
    #[test]
    fn duplicated_delivery_is_idempotent(
        n in 40usize..100,
        dep_seed in 0u64..300,
        run_seed in 0u64..300,
    ) {
        let clean = run_with_channel(n, dep_seed, run_seed, ChannelPlan::none());
        let plan = ChannelPlan::none()
            .with_duplication(1.0)
            .expect("1.0 is a probability");
        let doubled = run_with_channel(n, dep_seed, run_seed, plan);
        prop_assert_eq!(clean.value.to_bits(), doubled.value.to_bits());
        prop_assert_eq!(clean.accepted, doubled.accepted);
        prop_assert_eq!(clean.participants, doubled.participants);
        prop_assert_eq!(clean.degraded, doubled.degraded);
        prop_assert_eq!(&clean.alarms, &doubled.alarms);
        prop_assert_eq!(&clean.cluster_sizes, &doubled.cluster_sizes);
        // The duplicates were actually seen and suppressed, not absent.
        let suppressed = doubled.obs.count(Counter::RelDuplicate);
        prop_assert!(suppressed > 0, "duplication 1.0 suppressed no duplicates");
    }

    /// Bounded reordering (with duplication riding along) may reshuffle
    /// which cluster a node lands in, but never breaks soundness: the
    /// round completes, honest traffic raises no alarms, and COUNT can
    /// never exceed the number of sensors.
    #[test]
    fn reordered_delivery_preserves_soundness(
        n in 40usize..100,
        dep_seed in 0u64..300,
        run_seed in 0u64..300,
        reorder_pct in 1u32..50,
        window_ms in 1u64..200,
    ) {
        let plan = ChannelPlan::none()
            .with_duplication(0.5)
            .and_then(|p| {
                p.with_reordering(
                    f64::from(reorder_pct) / 100.0,
                    SimDuration::from_millis(window_ms),
                )
            })
            .expect("valid reordering parameters");
        let out = run_with_channel(n, dep_seed, run_seed, plan);
        prop_assert!(out.accepted, "reordering alone must never look like pollution");
        prop_assert!(out.alarms.is_empty());
        prop_assert!(out.value <= (n - 1) as f64 + 0.5);
        prop_assert!(out.value >= 0.0);
    }
}
