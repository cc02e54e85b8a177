//! `--help` / `-h` print usage and exit 0, before and after a command.

use std::process::Command;

#[test]
fn help_flags_print_usage_and_succeed() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["help"],
        &["run", "--help"],
        &["sweep", "-h"],
        &["obs", "report", "--help"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_icpda"))
            .args(args)
            .output()
            .expect("icpda runs");
        assert!(out.status.success(), "{args:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("USAGE:"),
            "{args:?}: {out:?}"
        );
    }
}

#[test]
fn a_flag_without_a_value_still_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_icpda"))
        .args(["run", "--nodes"])
        .output()
        .expect("icpda runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));
}

#[test]
fn an_unknown_flag_fails_instead_of_running() {
    let out = Command::new(env!("CARGO_BIN_EXE_icpda"))
        .args(["run", "--shards", "4"])
        .output()
        .expect("icpda runs");
    assert!(!out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flags"),
        "{out:?}"
    );
    assert!(out.stdout.is_empty(), "{out:?}");
}
