//! `bench` — the perf benchmark suite (engine microbenches + end-to-end
//! experiment wall times), emitting `BENCH_<label>.json` and a human
//! table. See `icpda_bench::perf`.
//!
//! ```text
//! bench [--label NAME] [--quick] [--baseline PATH] [--warn-factor X]
//!       [--obs-out DIR] [--obs-level phases|full]
//! ```
//!
//! * `--label NAME`    output file name suffix (default `local`)
//! * `--quick`         reduced CI matrix (smallest sizes, fewer samples)
//! * `--baseline PATH` annotate results with speedups against a prior
//!   `BENCH_*.json`; regressions beyond the warn factor print warnings
//!   but never fail the run (CI treats this as a soft gate)
//! * `--warn-factor X` slowdown factor that triggers a warning
//!   (default 2.0)
//! * `--obs-out DIR`   also run one instrumented end-to-end round and
//!   stream its observability capture to DIR through the
//!   bounded-memory exporter (see `icpda obs report`)
//! * `--obs-level L`   capture detail for `--obs-out`: `phases` records
//!   protocol spans only; `full` (default) adds engine internals, the
//!   complete event trace and the engine self-profile
//!   (see `icpda obs profile`)

use icpda_bench::perf::{self, PerfConfig};
use icpda_obs::ObsLevel;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    label: String,
    quick: bool,
    baseline: Option<PathBuf>,
    warn_factor: f64,
    obs_out: Option<PathBuf>,
    obs_level: ObsLevel,
}

const USAGE: &str = "usage: bench [--label NAME] [--quick] [--baseline PATH] \
[--warn-factor X] [--obs-out DIR] [--obs-level phases|full]";

/// Parses the command line; `Ok(None)` when usage was asked for.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        label: "local".to_string(),
        quick: false,
        baseline: None,
        warn_factor: 2.0,
        obs_out: None,
        obs_level: ObsLevel::Full,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value_of = |name: &str| iter.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--label" => args.label = value_of("--label")?,
            "--quick" => args.quick = true,
            "--baseline" => args.baseline = Some(PathBuf::from(value_of("--baseline")?)),
            "--obs-out" => args.obs_out = Some(PathBuf::from(value_of("--obs-out")?)),
            "--obs-level" => {
                let raw = value_of("--obs-level")?;
                args.obs_level = ObsLevel::parse(&raw).map_err(|e| format!("--obs-level: {e}"))?;
            }
            "--warn-factor" => {
                let raw = value_of("--warn-factor")?;
                args.warn_factor = raw
                    .parse()
                    .map_err(|_| format!("--warn-factor: cannot parse '{raw}'"))?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.obs_level == ObsLevel::Off && args.obs_out.is_some() {
        return Err("--obs-level off leaves --obs-out nothing to capture".to_string());
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
    let baseline = match &args.baseline {
        Some(path) => match perf::Baseline::load(path) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    eprintln!(
        "running {} benchmark matrix (label `{}`)...",
        if args.quick { "quick" } else { "full" },
        args.label
    );
    let report = perf::run_matrix(&args.label, PerfConfig { quick: args.quick });
    let deltas = baseline
        .as_ref()
        .map(|b| perf::compare(&report, b))
        .unwrap_or_default();
    report.to_table(&deltas).print();
    for warning in perf::regressions(&deltas, args.warn_factor) {
        // GitHub Actions surfaces `::warning::` lines as annotations;
        // locally it is just a loud prefix. Soft gate: exit stays 0.
        println!("::warning::{warning}");
    }
    let out = PathBuf::from(format!("BENCH_{}.json", args.label));
    let text = report.to_json(&deltas).pretty();
    if let Err(e) = std::fs::write(&out, text) {
        eprintln!("error: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("(report written to {})", out.display());
    if let Some(dir) = &args.obs_out {
        eprintln!("capturing instrumented e2e round to {}...", dir.display());
        if let Err(e) = perf::capture_obs(dir, args.obs_level) {
            eprintln!("error: --obs-out: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
