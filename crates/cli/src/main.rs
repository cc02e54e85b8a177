//! `icpda` — command-line driver for the reproduction.
//!
//! ```text
//! icpda run     --nodes 400 --seed 7 --function count [--pc 0.25]
//!               [--integrity on|off] [--loss 0.05] [--edge-loss 0.3]
//!               [--churn 0.1] [--obs-stream DIR]
//! icpda sweep   --seeds 5 --function count [--threads 8]
//! icpda attack  --nodes 400 --seed 7 --mode naive|forge|phantom
//!               --delta 1000 [--attackers 1] [--session] [--seeds 20]
//! icpda privacy --nodes 600 --seed 1 --px 0.05 [--adversaries 30]
//! icpda obs report --dir DIR [--against DIR] [--warn-pct 10]
//! icpda obs profile --dir DIR [--top 10]
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "\
icpda — cluster-based integrity-enforcing, privacy-preserving aggregation

USAGE:
    icpda <COMMAND> [--flag value]...

COMMANDS:
    run       one aggregation round, printed in full
              --nodes N (400)  --seed S (7)  --function count|sum|avg|var (count)
              --pc P (0.25)    --integrity on|off (on)
              --loss P (0)     --edge-loss E (0)   --rounds R (1)
              --churn P (0: each node crashes mid-run with prob. P;
              enables crash recovery)
              --obs-stream DIR (bounded-memory capture: manifest, spans,
              metrics, full event trace, engine profile and
              flight-recorder dump; see `icpda obs report|profile`)
    sweep     accuracy/overhead across the paper's size sweep
              --seeds K (5)    --function ... (count)  --threads T (cores)
    attack    compromise cluster heads and watch the integrity layer
              --nodes N (400)  --seed S (7)  --mode naive|forge|phantom (naive)
              --delta D (1000) --attackers K (1)  --session true (off)
              --seeds K (1: detection rate over K seeds)  --threads T (cores)
    privacy   disclosure analysis over one run's clusters
              --nodes N (600)  --seed S (1)  --px P (0.05)
              --adversaries K (30)
    obs       inspect captured observability output
              report --dir DIR (per-phase latency/traffic/energy tables
              with p50/p95/p99 quantile columns)
              [--against DIR (diff two runs)] [--warn-pct P (10)]
              profile --dir DIR [--top K (10)] (engine self-profile:
              hot phases, gauges, RSS high-water)
    help      this text (also --help or -h, after any command)
";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.help() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match args.command() {
        // Only `obs` takes an action token (`icpda obs report`).
        Some(cmd) if cmd != "obs" && args.action().is_some() => Err(args::ParseArgsError(format!(
            "unexpected argument '{}'",
            args.action().unwrap_or_default()
        ))),
        Some("run") => commands::run(&args),
        Some("sweep") => commands::sweep(&args),
        Some("attack") => commands::attack(&args),
        Some("privacy") => commands::privacy(&args),
        Some("obs") => commands::obs(&args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(args::ParseArgsError(format!("unknown command '{other}'"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
