//! Regenerates the "fig21_scale" evaluation artefact. See
//! `icpda_bench::experiments::fig21_scale`.
//!
//! ```text
//! fig21_scale [--threads N] [--quick] [--obs-stream DIR] [--capture-only]
//! ```
//!
//! * `--quick`    drop the 50k point and run one trial per size
//! * `--obs-stream DIR` additionally stream one fully instrumented run
//!   at the largest configured size (spans + full event trace + engine
//!   profile) through the bounded-memory exporter into DIR
//! * `--capture-only` skip the sweep and run just the `--obs-stream`
//!   capture — the process's peak RSS then measures the streaming
//!   exporter alone, which is what CI's RSS ceiling checks

use icpda_bench::experiments::fig21_scale::{self, ScaleOptions};
use icpda_bench::parallel;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: fig21_scale [--threads N] [--quick] [--obs-stream DIR] \
[--capture-only]";

struct BinOpts {
    scale: ScaleOptions,
    obs_stream: Option<PathBuf>,
    capture_only: bool,
}

/// Parses the command line; `Ok(None)` when usage was asked for.
fn parse_opts() -> Result<Option<BinOpts>, String> {
    let mut opts = BinOpts {
        scale: ScaleOptions::default(),
        obs_stream: None,
        capture_only: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--quick" => opts.scale.quick = true,
            "--obs-stream" => {
                let raw = iter.next().ok_or("--obs-stream needs a value")?;
                opts.obs_stream = Some(PathBuf::from(raw));
            }
            "--capture-only" => opts.capture_only = true,
            "--threads" => {
                let raw = iter.next().ok_or("--threads needs a value")?;
                parallel::set_threads(parallel::parse_threads(&raw)?);
            }
            other => match other.strip_prefix("--threads=") {
                Some(raw) => parallel::set_threads(parallel::parse_threads(raw)?),
                None => return Err(format!("unknown argument '{other}'")),
            },
        }
    }
    if opts.capture_only && opts.obs_stream.is_none() {
        return Err("--capture-only needs --obs-stream DIR".to_string());
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let run = || {
        if !opts.capture_only {
            fig21_scale::run_with(opts.scale)?;
        }
        if let Some(dir) = &opts.obs_stream {
            fig21_scale::capture_stream(opts.scale, dir).map_err(std::io::Error::other)?;
        }
        Ok(())
    };
    icpda_bench::finish(run())
}
