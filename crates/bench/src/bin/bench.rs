//! `bench` — the microbenchmarks the repository benchmark
//! (`perfbench/`) cannot see, emitting `BENCH_<label>.json` and a human
//! table. See `icpda_bench::perf`.
//!
//! ```text
//! bench [--label NAME] [--quick]
//! ```
//!
//! * `--label NAME`    output file name suffix (default `local`)
//! * `--quick`         reduced CI matrix (the N=10k engine row and
//!   crypto, fewer samples)

use icpda_bench::perf::{self, PerfConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    label: String,
    quick: bool,
}

const USAGE: &str = "usage: bench [--label NAME] [--quick]";

/// Parses the command line; `Ok(None)` when usage was asked for.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        label: "local".to_string(),
        quick: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--label" => args.label = iter.next().ok_or("--label needs a value")?,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.label.is_empty()
        || !args
            .label
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(format!(
            "--label '{}' must be non-empty [A-Za-z0-9_-] (it becomes a file name)",
            args.label
        ));
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "running {} benchmark matrix (label `{}`)...",
        if args.quick { "quick" } else { "full" },
        args.label
    );
    let report = perf::run_matrix(&args.label, PerfConfig { quick: args.quick });
    report.to_table().print();
    let out = PathBuf::from(format!("BENCH_{}.json", args.label));
    if let Err(e) = std::fs::write(&out, report.to_json().pretty()) {
        eprintln!("error: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("(report written to {})", out.display());
    ExitCode::SUCCESS
}
