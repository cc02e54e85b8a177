//! A capture's `manifest.json` records the revision of the checkout that
//! built the binary, wherever the run was started.

use std::process::Command;

#[test]
fn manifest_records_the_build_checkout_revision_from_any_directory() {
    let expected = Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        );
    // The system temp directory lies outside the checkout: a revision
    // read from the working directory would be `unknown` there.
    let cwd = std::env::temp_dir().join(format!("icpda-manifest-{}", std::process::id()));
    let capture = cwd.join("capture");
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_icpda"))
        .args(["run", "--nodes", "50", "--obs-stream"])
        .arg(&capture)
        .current_dir(&cwd)
        .output()
        .expect("icpda runs");
    assert!(out.status.success(), "{out:?}");
    let manifest = std::fs::read_to_string(capture.join("manifest.json")).expect("manifest");
    let doc = icpda_obs::json::parse(&manifest).expect("manifest parses");
    let rev = doc.get("git_rev").and_then(icpda_obs::json::Json::as_str);
    std::fs::remove_dir_all(&cwd).ok();
    assert_eq!(rev, Some(expected.as_str()), "{manifest}");
}
