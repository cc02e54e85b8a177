//! `icpda-perfbench`: the repository benchmark — iCPDA trials timed end
//! to end, and split by layer from outside the program. See README.md
//! for the workloads, the metrics and how to run it.

#![forbid(unsafe_code)]

mod measure;
mod speed;
mod traced;
mod workload;

#[cfg(test)]
mod tests;

use measure::{Metric, Options, PassResult};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workload::Workload;

const USAGE: &str =
    "usage: icpda-perfbench --workload <paper_sweep|scale_10k|lossy_recovery|obs_full|all> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke]";

#[derive(Debug, PartialEq)]
struct Args {
    /// `None` runs every workload, each in a fresh process.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    /// `None` with `all`: both passes.
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = None;
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(if value == "all" {
                    None
                } else {
                    Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                });
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = match workload {
        Some(w) => w,
        None if smoke => None,
        None => return Err("--workload is required".to_string()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The result line: one JSON object, the last line of standard output.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_pass(workload: Workload, opts: Options, pass: &PassResult) -> bool {
    let kind = if opts.trace { "traced" } else { "untraced" };
    println!(
        "# {} seed={} seconds={} {kind}{}",
        workload.name(),
        opts.seed,
        opts.seconds,
        if opts.smoke { " smoke" } else { "" }
    );
    for m in &pass.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &pass.notes {
        println!("# {note}");
    }
    let correct = pass.tally.attempted() > 0 && pass.tally.unexpected() == 0;
    println!(
        "{}",
        result_json(
            correct,
            pass.tally.attempted(),
            pass.tally.failed(),
            &pass.metrics
        )
    );
    correct
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let opts = Options {
        seed: args.seed,
        // Smoke runs exactly one pass over the tiny pool.
        seconds: if args.smoke { 0 } else { args.seconds },
        trace: args.trace.unwrap_or(false),
        smoke: args.smoke,
    };
    match measure::run(workload, opts, &out_dir()) {
        Ok(pass) => {
            let correct = print_pass(workload, opts, &pass);
            if args.smoke && !correct {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("icpda-perfbench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload (and both passes unless `--trace` picks one),
/// each in a fresh process so `peak_rss_mb` is the workload's own.
fn run_each(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("icpda-perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traces: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for workload in Workload::ALL {
        for &trace in traces {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = match cmd.output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("icpda-perfbench: {}: {e}", workload.name());
                    ok = false;
                    continue;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            print!("{stdout}");
            let result = stdout
                .lines()
                .last()
                .and_then(|line| icpda_obs::json::parse(line).ok());
            let field = |key: &str| result.as_ref().and_then(|r| r.get(key).cloned());
            let correct = matches!(field("correct"), Some(icpda_obs::json::Json::Bool(true)));
            attempted += field("attempted").and_then(|j| j.as_f64()).unwrap_or(0.0) as u64;
            failed += field("failed").and_then(|j| j.as_f64()).unwrap_or(0.0) as u64;
            if !output.status.success() || !correct {
                eprintln!(
                    "icpda-perfbench: {} (trace {}) failed or was incorrect",
                    workload.name(),
                    u8::from(trace)
                );
                ok = false;
            }
        }
    }
    println!("{}", result_json(ok, attempted, failed, &[]));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("icpda-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_each(&args),
    }
}
