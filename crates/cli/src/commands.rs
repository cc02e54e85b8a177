//! Subcommand implementations.

use crate::args::{Args, ParseArgsError};
use agg::AggFunction;
use icpda::{
    evaluate_disclosure, run_session, AdversaryPlan, Behavior, HeadElection, IcpdaConfig, IcpdaRun,
    IntegrityMode, Pollution,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_crypto::LinkAdversary;
use wsn_sim::geometry::Region;
use wsn_sim::prelude::*;

// Each command's accepted flags; `icpda --help` documents every one of
// them (the usage test in `main.rs` checks).

/// Flags `icpda run` accepts.
pub const RUN_FLAGS: &[&str] = &[
    "nodes",
    "n",
    "seed",
    "function",
    "pc",
    "integrity",
    "loss",
    "edge-loss",
    "loss-alpha",
    "burst",
    "arq",
    "rounds",
    "churn",
    "adversary",
    "adversary-mode",
    "obs-stream",
];
/// Flags `icpda sweep` accepts.
pub const SWEEP_FLAGS: &[&str] = &["seeds", "function", "pc", "integrity", "threads"];
/// Flags `icpda attack` accepts.
pub const ATTACK_FLAGS: &[&str] = &[
    "nodes",
    "seed",
    "seeds",
    "mode",
    "delta",
    "attackers",
    "session",
    "function",
    "pc",
    "integrity",
    "threads",
];
/// Flags `icpda privacy` accepts.
pub const PRIVACY_FLAGS: &[&str] = &["nodes", "seed", "px", "adversaries", "pc"];
/// Flags `icpda obs report` accepts.
pub const OBS_REPORT_FLAGS: &[&str] = &["dir", "against", "warn-pct"];
/// Flags `icpda obs profile` accepts.
pub const OBS_PROFILE_FLAGS: &[&str] = &["dir", "top"];

fn parse_function(args: &Args) -> Result<AggFunction, ParseArgsError> {
    match args.get("function").unwrap_or("count") {
        "count" => Ok(AggFunction::Count),
        "sum" => Ok(AggFunction::Sum),
        "avg" | "average" => Ok(AggFunction::Average),
        "var" | "variance" => Ok(AggFunction::Variance),
        other => Err(ParseArgsError(format!(
            "--function: unknown statistic '{other}' (count|sum|avg|var)"
        ))),
    }
}

fn parse_config(args: &Args) -> Result<IcpdaConfig, ParseArgsError> {
    let mut config = IcpdaConfig::paper_default(parse_function(args)?);
    let p_c: f64 = args.get_or("pc", 0.25)?;
    if !(0.0..=1.0).contains(&p_c) {
        return Err(ParseArgsError("--pc must be a probability".into()));
    }
    config.election = HeadElection::Fixed(p_c);
    config.integrity = match args.get("integrity").unwrap_or("on") {
        "on" => IntegrityMode::On,
        "off" => IntegrityMode::Off,
        other => {
            return Err(ParseArgsError(format!(
                "--integrity: expected on|off, got '{other}'"
            )))
        }
    };
    Ok(config)
}

/// Parses the link-quality flags into the stochastic loss model and the
/// channel-impairment plan. `--loss P` alone is i.i.d. loss; adding
/// `--burst B` moves the same target rate into a Gilbert–Elliott bursty
/// channel (the i.i.d. model stays off so loss is not applied twice);
/// `--edge-loss E` (optionally with `--loss-alpha A`) is the
/// distance-dependent gray zone.
fn parse_sim_config(args: &Args) -> Result<(SimConfig, ChannelPlan), ParseArgsError> {
    let mut sim = SimConfig::paper_default();
    let loss: f64 = args.get_or("loss", 0.0)?;
    let edge: f64 = args.get_or("edge-loss", 0.0)?;
    let burst: f64 = args.get_or("burst", 0.0)?;
    let alpha: f64 = args.get_or("loss-alpha", 4.0)?;
    if loss > 0.0 && edge > 0.0 {
        return Err(ParseArgsError(
            "--loss and --edge-loss are mutually exclusive".into(),
        ));
    }
    if args.get("loss-alpha").is_some() && edge == 0.0 {
        return Err(ParseArgsError(
            "--loss-alpha only applies together with --edge-loss".into(),
        ));
    }
    if burst > 0.0 && loss == 0.0 {
        return Err(ParseArgsError(
            "--burst needs --loss to set the target rate".into(),
        ));
    }
    let mut channel = ChannelPlan::none();
    if burst > 0.0 {
        channel = ChannelPlan::bursty(loss, burst)
            .map_err(|e| ParseArgsError(format!("--loss/--burst: {e}")))?;
    } else if loss > 0.0 {
        sim.loss = LossModel::iid(loss).map_err(|e| ParseArgsError(format!("--loss: {e}")))?;
    } else if edge > 0.0 {
        sim.loss = LossModel::distance_dependent(alpha, edge)
            .map_err(|e| ParseArgsError(format!("--edge-loss: {e}")))?;
    }
    Ok((sim, channel))
}

/// Parses `--arq on|off` into a retry policy (absent = paper default:
/// one blind repeat per critical message).
fn parse_reliability(args: &Args) -> Result<icpda::ReliabilityConfig, ParseArgsError> {
    match args.get("arq") {
        None => Ok(icpda::ReliabilityConfig::paper_default()),
        Some("on") => Ok(icpda::ReliabilityConfig::aggressive()),
        Some("off") => Ok(icpda::ReliabilityConfig::off()),
        Some(other) => Err(ParseArgsError(format!(
            "--arq: expected on|off, got '{other}'"
        ))),
    }
}

/// Applies the `--threads N` override for the parallel trial layer
/// (`ICPDA_THREADS` and core count apply otherwise).
fn apply_threads(args: &Args) -> Result<(), ParseArgsError> {
    let threads: usize = args.get_or("threads", 0)?;
    if args.get("threads").is_some() {
        if threads == 0 {
            return Err(ParseArgsError("--threads must be at least 1".into()));
        }
        icpda_bench::parallel::set_threads(threads);
    }
    Ok(())
}

fn deployment(n: usize, seed: u64) -> Deployment {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Deployment::uniform_random_with_central_bs(n, Region::paper_default(), 50.0, &mut rng)
}

fn readings_for(function: AggFunction, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0FFEE);
    match function {
        AggFunction::Count => agg::readings::count_readings(n),
        _ => agg::readings::uniform_readings(n, 10, 100, &mut rng),
    }
}

/// Builds the provenance record of an `icpda run --obs-stream` capture.
fn run_manifest(
    args: &Args,
    n: usize,
    seed: u64,
    config: &IcpdaConfig,
    churn: f64,
    adversary: f64,
) -> icpda_obs::export::Manifest {
    let flag = |key: &str, default: &str| {
        (
            key.to_string(),
            args.get(key).unwrap_or(default).to_string(),
        )
    };
    icpda_obs::export::Manifest {
        tool: "icpda run".to_string(),
        seed,
        threads: icpda_bench::parallel::effective_threads(),
        git_rev: icpda_bench::perf::git_rev(),
        config: vec![
            ("nodes".to_string(), n.to_string()),
            ("seed".to_string(), seed.to_string()),
            ("function".to_string(), config.function.to_string()),
            flag("pc", "0.25"),
            flag("integrity", "on"),
            flag("loss", "0"),
            flag("edge-loss", "0"),
            flag("burst", "0"),
            flag("arq", "default"),
            ("rounds".to_string(), config.rounds.to_string()),
            ("churn".to_string(), churn.to_string()),
            ("adversary".to_string(), adversary.to_string()),
            flag("adversary-mode", "pollute"),
        ],
    }
}

/// Prints the one-line summaries for a completed streaming capture and
/// surfaces any latched export error as a command failure.
fn report_stream(out: &icpda::StreamOutcome) -> Result<(), ParseArgsError> {
    println!(
        "obs stream    : {} spans / {} bytes -> {}",
        out.spans,
        out.span_bytes,
        out.dir.join("spans.jsonl").display()
    );
    if out.trace_records > 0 {
        println!(
            "trace stream  : {} records / {} bytes -> {}",
            out.trace_records,
            out.trace_bytes,
            out.dir.join("trace.jsonl").display()
        );
    }
    if out.profile_written {
        println!(
            "profile       : {} (render with `icpda obs profile --dir {}`)",
            out.dir.join("profile.jsonl").display(),
            out.dir.display()
        );
    }
    if out.flight_dumped {
        println!(
            "flight dump   : degraded/rejected round -> {}",
            out.dir.join("flight.jsonl").display()
        );
    }
    match &out.error {
        Some(e) => Err(ParseArgsError(format!(
            "--obs-stream {}: {e}",
            out.dir.display()
        ))),
        None => Ok(()),
    }
}

/// `icpda run`.
pub fn run(args: &Args) -> Result<(), ParseArgsError> {
    check_flags(args, RUN_FLAGS)?;
    if args.get("n").is_some() && args.get("nodes").is_some() {
        return Err(ParseArgsError(
            "--n is an alias of --nodes; give only one".into(),
        ));
    }
    let n: usize = if args.get("n").is_some() {
        args.get_or("n", 400)?
    } else {
        args.get_or("nodes", 400)?
    };
    let seed: u64 = args.get_or("seed", 7)?;
    let mut config = parse_config(args)?;
    config.rounds = args.get_or("rounds", 1)?;
    config.reliability = parse_reliability(args)?;
    let (mut sim, channel) = parse_sim_config(args)?;
    let obs_stream = args.get("obs-stream").map(std::path::PathBuf::from);
    if obs_stream.is_some() {
        // A capture records spans and metrics, the full event trace
        // (streamed, so unbounded in length but not in memory), the
        // engine self-profile, and a flight-recorder window for
        // post-mortems on degraded rounds.
        sim.obs_level = ObsLevel::Full;
        sim.trace_level = wsn_sim::TraceLevel::Full;
        sim.profile = true;
        sim.flight_rounds = 4;
    }
    let churn: f64 = args.get_or("churn", 0.0)?;
    let plan = if churn > 0.0 {
        // Crash times are drawn over the whole multi-round horizon so
        // later rounds exercise recovery against an already-thinned net.
        config.crash_recovery = true;
        let horizon = config.schedule.decision_time() * u64::from(config.rounds.max(1));
        FaultPlan::random_churn(n, churn, horizon, seed)
            .map_err(|e| ParseArgsError(format!("--churn: {e}")))?
    } else {
        FaultPlan::none()
    };
    let adversary: f64 = args.get_or("adversary", 0.0)?;
    let behavior = match args.get("adversary-mode").unwrap_or("pollute") {
        "garbage" => Behavior::GarbageShares,
        "pollute" => Behavior::PolluteAggregate(Pollution::inflate(1_000)),
        "collude" => Behavior::ColludePrivacy,
        "drop" => Behavior::SelectiveForward,
        other => {
            return Err(ParseArgsError(format!(
                "--adversary-mode: expected garbage|pollute|collude|drop, got '{other}'"
            )))
        }
    };
    let adversary_plan = if adversary > 0.0 {
        AdversaryPlan::random_compromise(n, adversary, behavior, seed)
            .map_err(|e| ParseArgsError(format!("--adversary: {e}")))?
    } else {
        AdversaryPlan::none()
    };
    let readings = readings_for(config.function, n, seed);
    let dep = deployment(n, seed);
    println!(
        "deploying {n} nodes (degree {:.1}), {} query...",
        dep.average_degree(),
        config.function
    );
    if !plan.is_empty() {
        println!(
            "churn         : {} of {} nodes crash mid-run (rate {churn})",
            plan.crash_count(),
            n - 1
        );
    }
    if !adversary_plan.is_empty() {
        println!(
            "adversary     : {} of {} nodes compromised ({} at rate {adversary})",
            adversary_plan.compromised_count(),
            n - 1,
            args.get("adversary-mode").unwrap_or("pollute"),
        );
    }
    if let Some(ge) = channel.gilbert_elliott() {
        println!(
            "channel       : bursty loss, mean rate {:.3} (retry budget {})",
            ge.mean_loss(),
            config.reliability.max_retries
        );
    }
    let mut session = IcpdaRun::new(dep, config, readings, seed)
        .with_sim_config(sim)
        .with_fault_plan(plan.clone())
        .with_channel_plan(channel)
        .with_adversary_plan(adversary_plan);
    if let Some(dir) = &obs_stream {
        let stream = icpda_obs::stream::ObsStream::create(dir)
            .map_err(|e| ParseArgsError(format!("--obs-stream {}: {e}", dir.display())))?;
        let manifest = run_manifest(args, n, seed, &config, churn, adversary);
        session = session.with_obs_stream(stream, manifest);
    }
    let out = session.run();
    println!("accepted      : {}", out.accepted);
    println!("value         : {:.3}", out.value);
    println!("truth         : {:.3}", out.truth);
    println!("accuracy      : {:.3}", out.accuracy());
    println!("participants  : {}", out.participants);
    println!(
        "clusters      : {} heads, mean size {:.1}, {} solved",
        out.heads,
        out.mean_cluster_size(),
        out.clusters_solved
    );
    println!("orphans       : {}", out.orphans);
    println!(
        "traffic       : {} frames / {} bytes / {:.1} mJ",
        out.total_frames, out.total_bytes, out.energy_mj
    );
    println!("collisions    : {}", out.collisions);
    let counter = |name: &str| {
        out.user_counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    println!(
        "reliability   : {} timeouts, {} retransmits, {} budgets exhausted, {} duplicates dropped",
        counter("icpda_rel_timeout"),
        counter("icpda_rel_retransmit"),
        counter("icpda_rel_exhausted"),
        counter("icpda_rel_duplicate"),
    );
    if out.degraded {
        println!(
            "degraded      : partial aggregate ({} of {} eligible sensors)",
            out.participants, out.eligible
        );
    }
    if !plan.is_empty() {
        println!(
            "coverage      : {:.3} ({} of {} eligible sensors reported)",
            out.coverage(),
            out.participants,
            out.eligible
        );
        let recoveries: Vec<String> = out
            .user_counters
            .iter()
            .filter(|(name, count)| {
                *count > 0
                    && matches!(
                        *name,
                        "icpda_head_dead_detected"
                            | "icpda_takeover_report"
                            | "icpda_direct_report"
                            | "icpda_parent_rerouted"
                            | "icpda_late_forwarded"
                            | "icpda_solved_degraded"
                    )
            })
            .map(|(name, count)| format!("{} {count}", name.trim_start_matches("icpda_")))
            .collect();
        if !recoveries.is_empty() {
            println!("recoveries    : {}", recoveries.join(", "));
        }
    }
    if !out.alarms.is_empty() {
        println!("alarms        : {:?}", out.alarms);
    }
    if let Some(report) = out.collusion {
        println!(
            "collusion     : {} colluders exposed {} of {} honest sharers (P = {:.3}, verified {})",
            report.colluders,
            report.exposed,
            report.targets,
            report.probability(),
            report.all_verified()
        );
    }
    if out.decisions.len() > 1 {
        println!("rounds        :");
        for (i, d) in out.decisions.iter().enumerate() {
            println!("  {i}: value {:.1} accepted {}", d.value, d.accepted);
        }
    }
    if let Some(stream) = &out.stream {
        report_stream(stream)?;
    }
    Ok(())
}

/// `icpda obs` — inspect captured observability output.
pub fn obs(args: &Args) -> Result<(), ParseArgsError> {
    match args.action() {
        Some("report") => obs_report(args),
        Some("profile") => obs_profile(args),
        Some(other) => Err(ParseArgsError(format!(
            "obs: unknown action '{other}' (expected 'report' or 'profile')"
        ))),
        None => Err(ParseArgsError(
            "obs: missing action (expected 'report' or 'profile')".into(),
        )),
    }
}

fn obs_report(args: &Args) -> Result<(), ParseArgsError> {
    check_flags(args, OBS_REPORT_FLAGS)?;
    let dir = args
        .get("dir")
        .ok_or_else(|| ParseArgsError("obs report: --dir is required".into()))?;
    let warn_pct: f64 = args.get_or("warn-pct", 10.0)?;
    let run = icpda_obs::report::load_dir(std::path::Path::new(dir)).map_err(ParseArgsError)?;
    print!("{}", icpda_obs::report::render_report(&run));
    if let Some(against) = args.get("against") {
        let base =
            icpda_obs::report::load_dir(std::path::Path::new(against)).map_err(ParseArgsError)?;
        let (table, warnings) = icpda_obs::report::render_diff(&base, &run, warn_pct);
        println!();
        print!("{table}");
        for warning in warnings {
            println!("::warning::{warning}");
        }
    }
    Ok(())
}

/// `icpda obs profile` — render the engine self-profile written by a
/// streaming capture (`icpda run --obs-stream DIR`).
fn obs_profile(args: &Args) -> Result<(), ParseArgsError> {
    check_flags(args, OBS_PROFILE_FLAGS)?;
    let dir = args
        .get("dir")
        .ok_or_else(|| ParseArgsError("obs profile: --dir is required".into()))?;
    let top: usize = args.get_or("top", 10)?;
    let path = std::path::Path::new(dir).join("profile.jsonl");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ParseArgsError(format!("obs profile: {}: {e}", path.display())))?;
    let run = icpda_obs::profile::parse_profile(&text)
        .map_err(|e| ParseArgsError(format!("obs profile: {}: {e}", path.display())))?;
    print!("{}", icpda_obs::profile::render_profile(&run, top));
    Ok(())
}

/// `icpda sweep`.
pub fn sweep(args: &Args) -> Result<(), ParseArgsError> {
    check_flags(args, SWEEP_FLAGS)?;
    apply_threads(args)?;
    let seeds: u64 = args.get_or("seeds", 5)?;
    let config = parse_config(args)?;
    let sizes = [200usize, 300, 400, 500, 600];
    // Independent (n, seed) trials fan out across workers; results come
    // back in job order, so the table is identical to the serial loop.
    let per_size = icpda_bench::parallel::par_sweep("cli sweep", &sizes, seeds, |&n, seed| {
        let readings = readings_for(config.function, n, seed);
        let out = IcpdaRun::new(deployment(n, seed), config, readings, seed).run();
        (
            out.accuracy(),
            out.participation(),
            out.total_bytes as f64,
            out.energy_mj,
        )
    });
    println!("nodes | accuracy | participation | bytes    | mJ");
    println!("------+----------+---------------+----------+--------");
    for (n, trials) in sizes.iter().zip(per_size) {
        let k = seeds as f64;
        println!(
            "{n:>5} | {:>8.3} | {:>13.3} | {:>8.0} | {:>6.1}",
            trials.iter().map(|t| t.0).sum::<f64>() / k,
            trials.iter().map(|t| t.1).sum::<f64>() / k,
            trials.iter().map(|t| t.2).sum::<f64>() / k,
            trials.iter().map(|t| t.3).sum::<f64>() / k,
        );
    }
    for timing in icpda_bench::parallel::drain_timings() {
        eprintln!("{}", timing.report());
    }
    Ok(())
}

/// `icpda attack`.
pub fn attack(args: &Args) -> Result<(), ParseArgsError> {
    check_flags(args, ATTACK_FLAGS)?;
    apply_threads(args)?;
    let n: usize = args.get_or("nodes", 400)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let seeds: u64 = args.get_or("seeds", 1)?;
    let delta: u64 = args.get_or("delta", 1_000)?;
    let count: usize = args.get_or("attackers", 1)?;
    let with_session: bool = args.get_or("session", false)?;
    let config = parse_config(args)?;
    let pollution = match args.get("mode").unwrap_or("naive") {
        "naive" => Pollution::inflate(delta),
        "forge" => Pollution::forge_input(delta),
        "phantom" => Pollution::phantom(delta, 1),
        other => {
            return Err(ParseArgsError(format!(
                "--mode: expected naive|forge|phantom, got '{other}'"
            )))
        }
    };
    let polluters = |heads: &[NodeId]| {
        let mut plan = AdversaryPlan::none();
        for &head in heads {
            plan.assign(head, Behavior::PolluteAggregate(pollution))
                .expect("heads are never the base station");
        }
        plan
    };
    if seeds > 1 {
        if with_session {
            return Err(ParseArgsError(
                "--seeds > 1 reports a detection rate; drop --session for it".into(),
            ));
        }
        // Detection rate over independent seeded trials, fanned out in
        // parallel. `None` marks trials where no head formed.
        let verdicts = icpda_bench::parallel::par_trials("cli attack", seeds, |seed| {
            let readings = readings_for(config.function, n, seed);
            let dep = deployment(n, seed);
            let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), seed).run();
            let heads: Vec<NodeId> = honest.sharing_heads().take(count).collect();
            if heads.is_empty() {
                return None;
            }
            let out = IcpdaRun::new(dep, config, readings, seed)
                .with_adversary_plan(polluters(&heads))
                .run();
            Some(!out.accepted)
        });
        let attempts = verdicts.iter().flatten().count();
        let detected = verdicts.iter().flatten().filter(|&&d| d).count();
        println!(
            "detection rate: {detected}/{attempts} attacked trials rejected ({} of {seeds} seeds formed heads)",
            attempts
        );
        for timing in icpda_bench::parallel::drain_timings() {
            eprintln!("{}", timing.report());
        }
        return Ok(());
    }
    let readings = readings_for(config.function, n, seed);
    let dep = deployment(n, seed);
    let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), seed).run();
    let heads: Vec<NodeId> = honest.sharing_heads().take(count).collect();
    if heads.is_empty() {
        return Err(ParseArgsError("no cluster heads formed to attack".into()));
    }
    println!(
        "honest value {:.1}; compromising heads {heads:?}",
        honest.value
    );
    let plan = polluters(&heads);
    if with_session {
        let session = run_session(&dep, config, &readings, seed, &plan, 6);
        for (i, round) in session.rounds.iter().enumerate() {
            println!(
                "round {i}: value {:>10.1}  accepted {:<5}  alarms {}",
                round.value,
                round.accepted,
                round.alarms.len()
            );
        }
        println!("quarantined: {:?}", session.excluded);
        match session.accepted() {
            Some(out) => println!(
                "recovered: value {:.1} (accuracy {:.3})",
                out.value,
                out.accuracy()
            ),
            None => println!("session did not converge"),
        }
    } else {
        let out = IcpdaRun::new(dep, config, readings, seed)
            .with_adversary_plan(plan)
            .run();
        println!(
            "attacked: value {:.1}  accepted {}  alarms {:?}",
            out.value, out.accepted, out.alarms
        );
    }
    Ok(())
}

/// `icpda privacy`.
pub fn privacy(args: &Args) -> Result<(), ParseArgsError> {
    check_flags(args, PRIVACY_FLAGS)?;
    let n: usize = args.get_or("nodes", 600)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let p_x: f64 = args.get_or("px", 0.05)?;
    let adversaries: u64 = args.get_or("adversaries", 30)?;
    if !(0.0..=1.0).contains(&p_x) {
        return Err(ParseArgsError("--px must be a probability".into()));
    }
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.election = HeadElection::Fixed(args.get_or("pc", 0.25)?);
    let out = IcpdaRun::new(
        deployment(n, seed),
        config,
        agg::readings::count_readings(n),
        seed,
    )
    .run();
    println!(
        "{} sharing nodes in {} clusters (mean size {:.1})",
        out.rosters.len(),
        out.cluster_sizes.len(),
        out.mean_cluster_size()
    );
    let mut total = 0.0;
    for adv_seed in 0..adversaries {
        let adv = LinkAdversary::new(p_x, adv_seed);
        total += evaluate_disclosure(&out.rosters, &adv).probability();
    }
    let measured = total / adversaries as f64;
    let theory = icpda_analysis::mixed_disclosure(p_x, &out.cluster_sizes);
    println!("p_x = {p_x}: P_disclose measured {measured:.6}, mixture theory {theory:.6}");
    Ok(())
}

fn check_flags(args: &Args, known: &[&str]) -> Result<(), ParseArgsError> {
    let unknown = args.unknown_flags(known);
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(ParseArgsError(format!("unknown flags: {unknown:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::parse(argv.iter().copied()).expect("valid argv")
    }

    #[test]
    fn function_parsing() {
        assert_eq!(
            parse_function(&args(&["run", "--function", "sum"])).unwrap(),
            AggFunction::Sum
        );
        assert_eq!(
            parse_function(&args(&["run"])).unwrap(),
            AggFunction::Count,
            "count is the default"
        );
        assert!(parse_function(&args(&["run", "--function", "median"])).is_err());
    }

    #[test]
    fn config_parsing_validates_probability_and_integrity() {
        assert!(parse_config(&args(&["run", "--pc", "1.5"])).is_err());
        assert!(parse_config(&args(&["run", "--integrity", "maybe"])).is_err());
        let c = parse_config(&args(&["run", "--pc", "0.3", "--integrity", "off"])).unwrap();
        assert_eq!(c.election, HeadElection::Fixed(0.3));
        assert_eq!(c.integrity, IntegrityMode::Off);
    }

    #[test]
    fn sim_config_loss_flags_are_exclusive() {
        assert!(parse_sim_config(&args(&["run", "--loss", "0.1", "--edge-loss", "0.2"])).is_err());
        let (c, plan) = parse_sim_config(&args(&["run", "--edge-loss", "0.2"])).unwrap();
        assert!(matches!(
            c.loss,
            wsn_sim::LossModel::DistanceDependent { .. }
        ));
        assert!(plan.is_empty());
    }

    #[test]
    fn loss_flags_go_through_the_validated_constructors() {
        // Out-of-range probabilities are typed errors, not silent panics
        // deep in the radio model.
        let err = parse_sim_config(&args(&["run", "--loss", "1.5"])).unwrap_err();
        assert!(err.0.contains("--loss"), "{}", err.0);
        assert!(err.0.contains("1.5"), "{}", err.0);
        let err = parse_sim_config(&args(&["run", "--edge-loss", "0.2", "--loss-alpha", "-1"]))
            .unwrap_err();
        assert!(err.0.contains("--edge-loss"), "{}", err.0);
        // --loss-alpha without --edge-loss is meaningless.
        assert!(parse_sim_config(&args(&["run", "--loss-alpha", "2"])).is_err());
    }

    #[test]
    fn burst_flag_builds_a_bursty_channel_plan() {
        let (c, plan) =
            parse_sim_config(&args(&["run", "--loss", "0.2", "--burst", "0.7"])).unwrap();
        // The channel plan owns the loss; the i.i.d. model must stay off.
        assert!(matches!(c.loss, wsn_sim::LossModel::None));
        let ge = plan.gilbert_elliott().expect("bursty plan");
        assert!((ge.mean_loss() - 0.2).abs() < 1e-12);
        // --burst without --loss has no rate to target.
        assert!(parse_sim_config(&args(&["run", "--burst", "0.5"])).is_err());
        // Invalid burstiness surfaces the typed channel-plan error.
        let err = parse_sim_config(&args(&["run", "--loss", "0.2", "--burst", "1.5"])).unwrap_err();
        assert!(err.0.contains("--loss/--burst"), "{}", err.0);
    }

    #[test]
    fn arq_flag_selects_the_retry_budget() {
        let off = parse_reliability(&args(&["run", "--arq", "off"])).unwrap();
        assert_eq!(off.max_retries, 0);
        let on = parse_reliability(&args(&["run", "--arq", "on"])).unwrap();
        assert_eq!(on.max_retries, 3);
        let default = parse_reliability(&args(&["run"])).unwrap();
        assert_eq!(default, icpda::ReliabilityConfig::paper_default());
        assert!(parse_reliability(&args(&["run", "--arq", "maybe"])).is_err());
    }

    #[test]
    fn unknown_flags_are_reported() {
        assert!(check_flags(&args(&["run", "--bogus", "1"]), &["nodes"]).is_err());
        assert!(check_flags(&args(&["run", "--nodes", "1"]), &["nodes"]).is_ok());
    }

    #[test]
    fn readings_match_function_semantics() {
        let count = readings_for(AggFunction::Count, 10, 1);
        assert_eq!(count, vec![0, 1, 1, 1, 1, 1, 1, 1, 1, 1]);
        let sums = readings_for(AggFunction::Sum, 10, 1);
        assert_eq!(sums[0], 0);
        assert!(sums[1..].iter().all(|&r| (10..=100).contains(&r)));
    }

    #[test]
    fn tiny_end_to_end_run_succeeds() {
        // Exercise the `run` command itself on a very small network.
        let a = args(&["run", "--nodes", "40", "--seed", "1"]);
        run(&a).expect("run succeeds");
    }

    #[test]
    fn streamed_run_writes_every_artifact_and_renders_a_profile() {
        let dir = std::env::temp_dir().join(format!("icpda_cli_stream_{}", std::process::id()));
        let dir_arg = dir.to_str().unwrap();
        let a = args(&[
            "run",
            "--nodes",
            "60",
            "--seed",
            "3",
            "--loss",
            "0.05",
            "--obs-stream",
            dir_arg,
        ]);
        run(&a).expect("streamed run succeeds");
        for name in [
            "manifest.json",
            "spans.jsonl",
            "metrics.jsonl",
            "trace.jsonl",
            "profile.jsonl",
        ] {
            assert!(dir.join(name).is_file(), "{name} written");
        }
        obs(&args(&["obs", "report", "--dir", dir_arg])).expect("obs report renders");
        obs(&args(&["obs", "profile", "--dir", dir_arg])).expect("obs profile renders");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_bursty_arq_run_succeeds() {
        let a = args(&[
            "run", "--nodes", "40", "--seed", "1", "--loss", "0.2", "--burst", "0.6", "--arq", "on",
        ]);
        run(&a).expect("bursty ARQ run succeeds");
    }

    #[test]
    fn adversarial_run_parses_and_succeeds() {
        let a = args(&[
            "run",
            "--nodes",
            "40",
            "--seed",
            "1",
            "--adversary",
            "0.5",
            "--adversary-mode",
            "collude",
        ]);
        run(&a).expect("adversarial run succeeds");
        let bad = args(&["run", "--adversary-mode", "invisible"]);
        assert!(run(&bad).is_err(), "unknown behaviour is rejected");
    }
}
