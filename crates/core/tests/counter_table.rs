//! The closed counter table (`icpda_obs::Counter`) against everything
//! that names counters by string: the golden fixtures' `counter` lines,
//! the counter names perfbench reads from `IcpdaOutcome::user_counters`,
//! and the meanings table in `docs/PROTOCOL.md`. A counter renamed in the
//! table without its readers fails here instead of reading 0.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use wsn_sim::Counter;

fn repo_file(rel: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    (path, text)
}

/// The quoted `icpda_*` names in `text`.
fn quoted_protocol_names(text: &str) -> BTreeSet<&str> {
    text.split('"')
        .skip(1)
        .step_by(2)
        .filter(|s| s.starts_with("icpda_"))
        .collect()
}

#[test]
fn every_counter_the_golden_fixtures_pin_is_in_the_table() {
    for fixture in [
        "crates/core/tests/golden/trace_n200_seed42.txt",
        "crates/core/tests/golden/trace_arq_n120_seed42.txt",
    ] {
        let (path, text) = repo_file(fixture);
        let names: Vec<&str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("counter "))
            .filter_map(|rest| rest.split('=').next())
            .collect();
        assert!(names.len() >= 20, "{}: {names:?}", path.display());
        for name in names {
            assert!(
                Counter::from_name(name).is_some(),
                "{}: `{name}` is not in the counter table",
                path.display()
            );
        }
    }
}

#[test]
fn every_counter_perfbench_reads_is_in_the_table() {
    let (path, text) = repo_file("perfbench/src/measure.rs");
    let names = quoted_protocol_names(&text);
    // The share, solve and alarm counts, the four `icpda_rel_*` counters
    // and the recovery, audit and head-failure lists.
    for must in [
        Counter::ShareSent,
        Counter::HeadSolved,
        Counter::AlarmRaised,
        Counter::RelRetransmit,
        Counter::RelTimeout,
        Counter::RelExhausted,
        Counter::RelDuplicate,
        Counter::HeadDeadDetected,
        Counter::TakeoverReport,
        Counter::DirectReport,
        Counter::ParentRerouted,
        Counter::LateForwarded,
        Counter::AuditClean,
        Counter::AuditPartial,
        Counter::AuditUnknown,
        Counter::ViolationInconsistent,
        Counter::ViolationForgedInput,
        Counter::HeadFailedMissingFsum,
        Counter::HeadFailedMaskMismatch,
    ] {
        assert!(
            names.contains(must.name()),
            "{} no longer reads `{}`",
            path.display(),
            must.name()
        );
    }
    for name in names {
        assert!(
            Counter::from_name(name).is_some(),
            "{} reads `{name}`, which is not in the counter table",
            path.display()
        );
    }
}

#[test]
fn every_counter_has_a_meaning_in_protocol_md() {
    let (path, text) = repo_file("docs/PROTOCOL.md");
    for counter in Counter::ALL {
        let row = format!("| `{}` |", counter.name());
        assert!(
            text.lines().any(|line| line.starts_with(&row)),
            "{} has no table row for `{}`",
            path.display(),
            counter.name()
        );
    }
}
