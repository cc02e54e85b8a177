//! `icpda` — command-line driver for the reproduction.
//!
//! ```text
//! icpda run     --nodes 400 --seed 7 --function count
//!               [--pc 0.25] [--integrity on|off] [--rounds 1]
//!               [--loss 0.05 [--burst 0.8]] [--edge-loss 0.3 [--loss-alpha 4]]
//!               [--arq on|off] [--churn 0.1]
//!               [--adversary 0.2 [--adversary-mode garbage|pollute|collude|drop]]
//!               [--obs-stream DIR]
//! icpda sweep   --seeds 5 --function count [--pc 0.25] [--integrity on|off]
//!               [--threads 8]
//! icpda attack  --nodes 400 --seed 7 --mode naive|forge|phantom
//!               --delta 1000 [--attackers 1] [--session true] [--seeds 20]
//!               [--function count] [--pc 0.25] [--integrity on|off] [--threads 8]
//! icpda privacy --nodes 600 --seed 1 --px 0.05 [--adversaries 30] [--pc 0.25]
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
              --nodes N (400)  --seed S (7)
              --function count|sum|avg|var (count)
              --pc P (0.25)    --integrity on|off (on)   --rounds R (1)
              --loss P (0: i.i.d. loss per reception)
              --burst B (0: with --loss, a bursty Gilbert-Elliott channel
              of mean loss P and burstiness B)
              --edge-loss E (0: distance-dependent gray-zone loss, E at
              the range edge; exclusive with --loss)
              --loss-alpha A (4: gray-zone exponent; needs --edge-loss)
              --arq on|off (paper budget: one blind repeat per critical
              message; on = aggressive retries, off = none)
              --churn P (0: each node crashes mid-run with prob. P;
              enables crash recovery)
              --adversary P (0: each node is compromised with prob. P)
              --adversary-mode garbage|pollute|collude|drop (pollute)
              --obs-stream DIR (bounded-memory capture: manifest, spans,
              metrics, full event trace, engine profile and
              flight-recorder dump; see `icpda obs report|profile`)
    sweep     accuracy/overhead across the paper's size sweep
              --seeds K (5)    --function ... (count)  --threads T (cores)
              --pc P (0.25)    --integrity on|off (on)
    attack    compromise cluster heads and watch the integrity layer
              --nodes N (400)  --seed S (7)  --mode naive|forge|phantom (naive)
              --delta D (1000) --attackers K (1)  --session true (off)
              --seeds K (1: detection rate over K seeds)  --threads T (cores)
              --function ... (count)  --pc P (0.25)  --integrity on|off (on)
    privacy   disclosure analysis over one run's clusters
              --nodes N (600)  --seed S (1)  --px P (0.05)
              --adversaries K (30)  --pc P (0.25)
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

#[cfg(test)]
mod tests {
    use super::USAGE;
    use crate::commands::{
        ATTACK_FLAGS, OBS_PROFILE_FLAGS, OBS_REPORT_FLAGS, PRIVACY_FLAGS, RUN_FLAGS, SWEEP_FLAGS,
    };

    /// The `--flag` tokens of `command`'s block in `USAGE`: from its
    /// line to the next command's.
    fn documented_flags(command: &str) -> Vec<&'static str> {
        let commands = USAGE.split_once("COMMANDS:\n").expect("COMMANDS section").1;
        let mut block = Vec::new();
        let mut inside = false;
        for line in commands.lines() {
            let starts_command = line.len() > 4 && !line[4..].starts_with(' ');
            if starts_command {
                inside = line[4..].split_whitespace().next() == Some(command);
            }
            if inside {
                block.push(line);
            }
        }
        block
            .into_iter()
            .flat_map(|line| line.split(|c: char| c.is_whitespace() || "[](),;|".contains(c)))
            .filter(|token| token.starts_with("--"))
            .collect()
    }

    #[test]
    fn usage_documents_every_accepted_flag() {
        let obs_flags = [OBS_REPORT_FLAGS, OBS_PROFILE_FLAGS].concat();
        let mut missing = Vec::new();
        for (command, flags) in [
            ("run", RUN_FLAGS),
            ("sweep", SWEEP_FLAGS),
            ("attack", ATTACK_FLAGS),
            ("privacy", PRIVACY_FLAGS),
            ("obs", &obs_flags[..]),
        ] {
            let documented = documented_flags(command);
            assert!(!documented.is_empty(), "no usage block for {command}");
            for flag in flags {
                if !documented.contains(&format!("--{flag}").as_str()) {
                    missing.push(format!("{command} --{flag}"));
                }
            }
        }
        assert!(missing.is_empty(), "undocumented flags: {missing:?}");
    }
}
