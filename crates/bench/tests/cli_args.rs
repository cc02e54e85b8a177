//! Command-line surface of the experiment binaries: `--help` / `-h`
//! print usage and exit 0 without running anything, and an unknown
//! argument is an error rather than silently ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `bin` with `args` in a fresh scratch directory, so a binary that
/// wrongly starts its experiment cannot touch the repository's results.
fn run(bin: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "icpda-cli-args-{}-{}-{}",
        std::process::id(),
        PathBuf::from(bin)
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned()),
        args.join("_").replace('-', "")
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    (out, dir)
}

fn assert_usage(bin: &str, args: &[&str]) {
    let (out, dir) = run(bin, args);
    assert!(out.status.success(), "{bin} {args:?}: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("usage:"),
        "{bin} {args:?}: {out:?}"
    );
    assert!(
        !dir.join("results").exists(),
        "{bin} {args:?} ran its experiment"
    );
    std::fs::remove_dir_all(dir).ok();
}

fn assert_rejected(bin: &str, args: &[&str]) {
    let (out, dir) = run(bin, args);
    assert!(!out.status.success(), "{bin} {args:?}: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown argument"),
        "{bin} {args:?}: {out:?}"
    );
    assert!(!dir.join("results").exists());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    for bin in [
        env!("CARGO_BIN_EXE_run_all"),
        env!("CARGO_BIN_EXE_fig3_accuracy"),
        env!("CARGO_BIN_EXE_fig21_scale"),
        env!("CARGO_BIN_EXE_bench"),
        env!("CARGO_BIN_EXE_render_topology"),
    ] {
        assert_usage(bin, &["--help"]);
        assert_usage(bin, &["-h"]);
    }
    assert_usage(env!("CARGO_BIN_EXE_run_all"), &["--threads", "2", "--help"]);
}

#[test]
fn unknown_arguments_are_rejected() {
    assert_rejected(env!("CARGO_BIN_EXE_run_all"), &["--bogus"]);
    assert_rejected(env!("CARGO_BIN_EXE_fig3_accuracy"), &["--quick"]);
    assert_rejected(env!("CARGO_BIN_EXE_fig21_scale"), &["--bogus"]);
    assert_rejected(env!("CARGO_BIN_EXE_fig21_scale"), &["--shards", "4"]);
    assert_rejected(env!("CARGO_BIN_EXE_bench"), &["--bogus"]);
    assert_rejected(
        env!("CARGO_BIN_EXE_bench"),
        &["--baseline", "BENCH_baseline.json"],
    );
    assert_rejected(env!("CARGO_BIN_EXE_bench"), &["--warn-factor", "2"]);
    assert_rejected(env!("CARGO_BIN_EXE_bench"), &["--obs-out", "x"]);
    assert_rejected(env!("CARGO_BIN_EXE_bench"), &["--obs-level", "full"]);
    assert_rejected(env!("CARGO_BIN_EXE_render_topology"), &["extra"]);
}
