//! **Ablation A17 — the privacy⇄integrity synergy.**
//!
//! The paper claims its privacy and integrity mechanisms "work
//! synergistically". This ablation makes that measurable: with the
//! privacy layer off (members send raw readings to the head — plain
//! clustering), traffic drops ~4× and accuracy even improves slightly,
//! but members lose the material to audit the head's cluster claim —
//! transparent assembly is gone — so *consistent* cluster forgeries go
//! completely undetected. Only the naive (inconsistent) attack is still
//! caught, by the public totals-vs-inputs check. Integrity against a
//! forging head is not an add-on; it is a dividend of the privacy
//! layer's broadcast assemblies.

use crate::parallel::par_trials;
use crate::{f1, f3, paper_deployment, Table, TRIALS};
use agg::AggFunction;
use icpda::{AdversaryPlan, Behavior, IcpdaConfig, IcpdaRun, Pollution, PrivacyMode};

const N: usize = 400;

fn detection_rate(label: &str, config: IcpdaConfig, pollution: Pollution) -> f64 {
    // Per trial: None when no head formed, else whether the forgery
    // was caught.
    let verdicts = par_trials(label, TRIALS, |seed| {
        let dep = paper_deployment(N, seed);
        let readings = agg::readings::count_readings(N);
        let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), seed + 1).run();
        let head = honest.sharing_heads().next()?;
        let mut plan = AdversaryPlan::none();
        plan.assign(head, Behavior::PolluteAggregate(pollution))
            .expect("heads are never the base station");
        let out = IcpdaRun::new(dep, config, readings, seed + 1)
            .with_adversary_plan(plan)
            .run();
        Some(!out.accepted)
    });
    let attempts = verdicts.iter().flatten().count();
    let detected = verdicts.iter().flatten().filter(|&&d| d).count();
    if attempts == 0 {
        0.0
    } else {
        detected as f64 / attempts as f64
    }
}

fn stats(label: &str, config: IcpdaConfig) -> (f64, f64) {
    let trials = par_trials(label, TRIALS, |seed| {
        let out = IcpdaRun::new(
            paper_deployment(N, seed),
            config,
            agg::readings::count_readings(N),
            seed + 1,
        )
        .run();
        (out.total_bytes as f64, out.accuracy())
    });
    let bytes: f64 = trials.iter().map(|t| t.0).sum();
    let acc: f64 = trials.iter().map(|t| t.1).sum();
    (bytes / TRIALS as f64, acc / TRIALS as f64)
}

/// Regenerates ablation A17. Attackers are heads identified via the
/// roster list (in privacy-off mode rosters still record who
/// contributed, via the raw-reading path).
///
/// # Errors
///
/// Propagates CSV write failures.
pub fn run() -> std::io::Result<()> {
    let mut table = Table::new(
        "Ablation A17 — privacy⇄integrity synergy (N = 400, one forging head)",
        &[
            "privacy layer",
            "bytes",
            "accuracy",
            "detect naive",
            "detect consistent forgery",
        ],
    );
    for (label, privacy) in [
        ("on", PrivacyMode::On),
        ("off (raw to head)", PrivacyMode::Off),
    ] {
        let mut config = IcpdaConfig::paper_default(AggFunction::Count);
        config.privacy = privacy;
        let (bytes, acc) = stats(&format!("fig17 stats/{label}"), config);
        table.row(vec![
            label.into(),
            f1(bytes),
            f3(acc),
            f3(detection_rate(
                &format!("fig17 naive/{label}"),
                config,
                Pollution::inflate(5_000),
            )),
            f3(detection_rate(
                &format!("fig17 forge/{label}"),
                config,
                Pollution::forge_input(5_000),
            )),
        ]);
    }
    table.emit("fig17_synergy")
}
