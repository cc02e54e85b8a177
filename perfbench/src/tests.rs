//! Self-tests of the benchmark: input purity, wrapper transparency,
//! failure counting, and the metric names `BENCHMARK.json` declares.

use crate::measure::{Layers, Metric, END_TO_END};
use crate::traced::{run_traced, NodeStats, Spans};
use crate::workload::{
    build_inputs, check_round, run_untraced, Facts, Tally, TrialInput, Verdict, Violation, Workload,
};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::rc::Rc;

/// A working directory of the benchmark's own, one per test.
fn test_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{test}"))
}

/// Hashes everything a trial hands the program.
fn fingerprint(input: &TrialInput) -> u64 {
    let mut h = DefaultHasher::new();
    input.label.hash(&mut h);
    let dep = &input.deployment;
    for id in dep.node_ids() {
        let p = dep.position(id);
        (p.x.to_bits(), p.y.to_bits()).hash(&mut h);
        for n in dep.neighbors(id) {
            n.index().hash(&mut h);
        }
    }
    input.readings.hash(&mut h);
    input.run_seed.hash(&mut h);
    input.fault_plan.events().hash(&mut h);
    format!(
        "{:?} {:?} {:?} {:?}",
        input.channel_plan, input.config, input.sim_config, input.tag
    )
    .hash(&mut h);
    h.finish()
}

fn fingerprints(workload: Workload, seed: u64, smoke: bool) -> Vec<u64> {
    build_inputs(workload, seed, smoke, None)
        .iter()
        .map(fingerprint)
        .collect()
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    for workload in Workload::ALL {
        for smoke in [true, false] {
            let a = fingerprints(workload, 7, smoke);
            assert_eq!(a, fingerprints(workload, 7, smoke), "{workload:?}");
            let b = fingerprints(workload, 8, smoke);
            assert_eq!(a.len(), b.len());
            assert!(
                a.iter().zip(&b).all(|(x, y)| x != y),
                "{workload:?}: another seed must give other inputs"
            );
            let distinct: BTreeSet<_> = a.iter().collect();
            assert_eq!(distinct.len(), a.len(), "{workload:?}: pool entries repeat");
        }
    }
}

#[test]
fn traced_pass_reproduces_the_untraced_run() {
    let dir = test_dir("traced");
    for workload in Workload::ALL {
        for input in build_inputs(workload, 3, true, None) {
            assert_eq!(input.deployment.len(), 100);
            let untraced = run_untraced(&input, &dir);
            assert!(untraced
                .violations
                .iter()
                .all(|v| *v == Violation::Overcount));
            let what = format!("{workload:?}/{}", input.label);
            let again = run_untraced(&input, &dir);
            assert_eq!(
                Verdict::new(&again.violations, again.outcome.as_ref()),
                Verdict::new(&untraced.violations, untraced.outcome.as_ref()),
                "{what}: a repeat must reproduce the trial"
            );
            let outcome = untraced.outcome.expect("untraced trial returned");
            let traced_input = if input.streams_obs() {
                input.with_obs_off()
            } else {
                input.clone()
            };
            let stats = Rc::new(RefCell::new(NodeStats::default()));
            let traced = run_traced(&traced_input, &stats, &mut Spans::new(), None);
            assert_eq!(traced.decision.as_ref(), outcome.decisions.last(), "{what}");
            assert_eq!(traced.frames, outcome.total_frames, "{what}");
            assert_eq!(traced.bytes, outcome.total_bytes, "{what}");
            assert_eq!(traced.collisions(), outcome.collisions, "{what}");
            assert!(
                traced.events > 0 && stats.borrow().overhear.calls > 0,
                "{what}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_overcount_is_counted_as_failed_not_panicked_on() {
    let overcount = Facts {
        decided: true,
        value: 310.0,
        participants: 310,
        eligible: 299,
    };
    let mut violations = Vec::new();
    check_round(&overcount, &mut violations);
    assert_eq!(violations, [Violation::Overcount]);

    // Under crash recovery it is the known defect: failed, still correct.
    let recovering = build_inputs(Workload::LossyRecovery, 1, true, None);
    let mut tally = Tally::default();
    tally.record(0, &recovering[0], Verdict::new(&violations, None));
    tally.record(1, &recovering[1], Verdict::new(&[], None));
    assert_eq!(
        (tally.attempted(), tally.failed(), tally.unexpected()),
        (2, 1, 0)
    );
    assert!((tally.fail_ratio() - 0.5).abs() < 1e-12);

    // Anywhere else it is a new failure.
    let plain = &build_inputs(Workload::PaperSweep, 1, true, None)[0];
    tally.record(2, plain, Verdict::new(&violations, None));
    assert_eq!((tally.failed(), tally.unexpected()), (2, 1));

    let mut violations = Vec::new();
    check_round(
        &Facts {
            decided: true,
            value: 5.0,
            participants: 4,
            eligible: 9,
        },
        &mut violations,
    );
    assert_eq!(violations, [Violation::CountMismatch]);
}

#[test]
fn inputs_count_once_and_repeats_must_reproduce_them() {
    let pool = build_inputs(Workload::LossyRecovery, 1, true, None);
    let overcount = [Violation::Overcount];
    let mut tally = Tally::default();
    for _ in 0..3 {
        tally.record(0, &pool[0], Verdict::new(&overcount, None));
        tally.record(1, &pool[1], Verdict::new(&[], None));
    }
    assert_eq!(tally.trials, 6);
    assert_eq!(
        (tally.attempted(), tally.failed(), tally.unexpected()),
        (2, 1, 0)
    );

    // A repeat unlike its input's first trial fails the input.
    tally.record(1, &pool[1], Verdict::new(&overcount, None));
    assert_eq!(
        (tally.attempted(), tally.failed(), tally.unexpected()),
        (2, 2, 1)
    );
    assert_eq!(tally.by_kind().get(&Violation::Unrepeatable), Some(&1));
}

#[test]
fn a_panicking_trial_is_counted_as_failed() {
    let mut input = build_inputs(Workload::PaperSweep, 1, true, None).remove(0);
    // One reading short: `IcpdaRun::new` rejects the input by panicking.
    input.readings.pop();
    let trial = run_untraced(&input, &test_dir("panic"));
    assert!(trial.outcome.is_none());
    assert!(trial.violations.contains(&Violation::Panicked));
}

fn layer_metrics() -> Vec<Metric> {
    Layers::default().metrics(&NodeStats::default(), &[], &[], 0.0)
}

fn is_valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let names: Vec<String> = END_TO_END
        .iter()
        .map(|(n, _)| (*n).to_string())
        .chain(layer_metrics().into_iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(is_valid_name(name), "bad metric name {name}");
    }
    let unique: BTreeSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "duplicate metric names");
    assert!(names.len() <= 4 + 128);
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let doc = icpda_obs::json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(|l| l.as_arr())
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or_default();
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<(String, String)> = layer_metrics()
        .into_iter()
        .map(|m| (m.name, m.unit.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
}

#[test]
fn arguments_are_checked() {
    let parse =
        |s: &str| crate::parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let args = parse("--workload scale_10k --seed 4 --seconds 3 --trace 1").expect("valid");
    assert_eq!(args.workload, Some(Workload::Scale10k));
    assert_eq!((args.seed, args.seconds, args.trace), (4, 3, Some(true)));
    assert_eq!(parse("--workload all").expect("valid").workload, None);
    assert_eq!(parse("--smoke").expect("valid").workload, None);
    for bad in [
        "",
        "--workload nope",
        "--workload obs_full --trace 2",
        "--workload obs_full --seed -1",
        "--workload obs_full --seconds",
        "--workload obs_full --bogus 1",
    ] {
        assert!(parse(bad).is_err(), "`{bad}` must be rejected");
    }
}
