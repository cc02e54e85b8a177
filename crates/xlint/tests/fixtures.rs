//! Fixture-driven rule tests: every rule must fire on its known-bad
//! snippet with the expected rule ID, and must stay silent on the
//! shapes it is documented to accept (`#[cfg(test)]` code, documented
//! invariant messages, identifier indexing, strings and comments).

use std::path::Path;
use xlint::{
    check_config_hygiene, check_determinism, check_error_variants, check_forbid_unsafe,
    check_hot_path_alloc, check_hot_path_names, check_msg_exhaustiveness, check_panic_policy,
    Diagnostic, RuleId, ScannedFile,
};

fn fixture(name: &str) -> ScannedFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    ScannedFile::parse(name, &src).expect("fixture parses")
}

/// The 1-based line of the first `#[cfg(test)]` in the fixture, so
/// tests can assert no finding lands in the exempt region.
fn first_test_line(name: &str) -> u32 {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(path).expect("fixture readable");
    src.lines()
        .position(|l| l.contains("#[cfg(test)]"))
        .map(|i| (i + 1) as u32)
        .unwrap_or(u32::MAX)
}

fn idents(diags: &[Diagnostic]) -> Vec<&str> {
    let mut v: Vec<&str> = diags.iter().map(|d| d.ident.as_str()).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn determinism_rule_fires_on_every_banned_ident() {
    let file = fixture("bad_determinism.rs");
    let diags = check_determinism(&file, true);
    assert!(diags.iter().all(|d| d.rule == RuleId::Xl001));
    assert_eq!(
        idents(&diags),
        [
            "HashMap",
            "HashSet",
            "Instant",
            "OsRng",
            "SystemTime",
            "thread_rng"
        ]
    );
    // With clocks delegated to XL008 (bench sources), the syntactic rule
    // must still flag collections and entropy.
    let no_clocks = check_determinism(&file, false);
    assert_eq!(
        idents(&no_clocks),
        ["HashMap", "HashSet", "OsRng", "thread_rng"]
    );
    let cutoff = first_test_line("bad_determinism.rs");
    assert!(
        diags.iter().all(|d| d.line < cutoff),
        "a finding leaked into the #[cfg(test)] region: {diags:?}"
    );
    assert!(diags
        .iter()
        .all(|d| d.line > 0 && d.path == "bad_determinism.rs"));
}

#[test]
fn panic_rule_fires_on_bad_shapes_only() {
    let file = fixture("bad_panic.rs");
    let diags = check_panic_policy(&file);
    assert!(diags.iter().all(|d| d.rule == RuleId::Xl002));
    assert_eq!(idents(&diags), ["expect", "index", "panic", "unwrap"]);
    // Two panic-family macros: panic! and unreachable!.
    assert_eq!(diags.iter().filter(|d| d.ident == "panic").count(), 2);
    // Exactly one of each of the others: the documented-invariant
    // expect, the identifier index and unwrap_or are accepted.
    for ident in ["expect", "index", "unwrap"] {
        assert_eq!(
            diags.iter().filter(|d| d.ident == ident).count(),
            1,
            "ident {ident}"
        );
    }
    let cutoff = first_test_line("bad_panic.rs");
    assert!(diags.iter().all(|d| d.line < cutoff), "{diags:?}");
}

#[test]
fn msg_exhaustiveness_flags_only_the_unhandled_variant() {
    let def = fixture("bad_msg.rs");
    let handler = fixture("handler.rs");
    let corpus = [&handler];
    let diags = check_msg_exhaustiveness(&def, &corpus);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, RuleId::Xl003);
    assert_eq!(diags[0].ident, "FixtureMsg::Dropped");
    assert_eq!(diags[0].path, "bad_msg.rs");
    assert!(diags[0].line > 0);
}

#[test]
fn error_variant_rule_flags_only_the_unconstructed_variant() {
    let def = fixture("bad_error.rs");
    let handler = fixture("handler.rs");
    let corpus = [&def, &handler];
    let diags = check_error_variants(&corpus);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, RuleId::Xl003);
    assert_eq!(diags[0].ident, "FixtureError::Corrupt");
}

#[test]
fn config_hygiene_flags_only_the_dead_field() {
    let def = fixture("bad_config.rs");
    let handler = fixture("handler.rs");
    let corpus = [&def, &handler];
    let diags = check_config_hygiene(&def, &corpus);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, RuleId::Xl004);
    assert_eq!(diags[0].ident, "FixtureConfig.dead_field");
}

#[test]
fn forbid_unsafe_rule_ignores_comments_and_strings() {
    let missing = fixture("bad_unsafe.rs");
    let diags = check_forbid_unsafe(&missing);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, RuleId::Xl005);
    let present = ScannedFile::parse(
        "root.rs",
        "//! Crate root.\n\n#![forbid(unsafe_code)]\n\npub fn f() {}\n",
    )
    .expect("parses");
    assert!(check_forbid_unsafe(&present).is_empty());
}

#[test]
fn hot_path_alloc_rule_flags_only_hot_function_bodies() {
    let file = fixture("bad_hotpath.rs");
    let diags = check_hot_path_alloc(&file, &["deliver_frame", "handle_mac_attempt"]);
    assert!(diags.iter().all(|d| d.rule == RuleId::Xl006));
    // Three findings: to_vec + format! in deliver_frame, the method-call
    // clone in handle_mac_attempt. The `Arc::clone(&x)` path-call
    // spelling and the clone in the cold `rebuild_cache` are accepted.
    assert_eq!(idents(&diags), ["clone", "format", "to_vec"]);
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(
        diags
            .iter()
            .find(|d| d.ident == "clone")
            .is_some_and(|d| d.message.contains("handle_mac_attempt")),
        "{diags:?}"
    );
    let cutoff = first_test_line("bad_hotpath.rs");
    assert!(
        diags.iter().all(|d| d.line < cutoff),
        "a finding leaked into the #[cfg(test)] region: {diags:?}"
    );
}

#[test]
fn stale_hot_path_names_are_reported() {
    let file = fixture("bad_hotpath.rs");
    // Both live names match a non-test `fn`: nothing to report.
    assert!(check_hot_path_names(&file, &["deliver_frame", "handle_mac_attempt"]).is_empty());
    // A renamed-away name, and one defined only inside `#[cfg(test)]`,
    // are stale: XL000 names each, so the list cannot rot silently.
    let diags = check_hot_path_names(
        &file,
        &[
            "deliver_frame",
            "renamed_away",
            "hot_named_fn_in_test_region_is_exempt",
        ],
    );
    assert!(diags.iter().all(|d| d.rule == RuleId::Xl000), "{diags:?}");
    assert_eq!(
        idents(&diags),
        ["hot_named_fn_in_test_region_is_exempt", "renamed_away"]
    );
    assert!(diags[0].message.contains("HOT_PATHS"), "{diags:?}");
}

#[test]
fn diagnostics_render_file_line_and_rule_id() {
    let file = fixture("bad_determinism.rs");
    let diag = &check_determinism(&file, true)[0];
    let rendered = diag.to_string();
    assert!(
        rendered.starts_with(&format!("bad_determinism.rs:{}:", diag.line)),
        "{rendered}"
    );
    assert!(rendered.contains("[XL001]"), "{rendered}");
    let json = xlint::to_json(std::slice::from_ref(diag));
    assert!(json.contains("\"rule\":\"XL001\""), "{json}");
    assert!(json.contains("\"path\":\"bad_determinism.rs\""), "{json}");
}
