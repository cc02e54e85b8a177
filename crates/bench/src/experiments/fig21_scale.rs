//! **Figure 21 — Scaling to 50k-node networks.**
//!
//! Sweeps the network size at the paper's density (600 nodes per
//! 400 m × 400 m, see [`crate::scaled_region`]): the field grows with
//! `sqrt(n)` so degree, contention and cluster sizes stay in the
//! paper's regime while hop depth — the axis that actually scales —
//! grows from ~14 hops at N=600 to ~70 at N=50k. Both protocols get
//! their reporting schedules widened to the measured depth (the paper's
//! `max_depth = 20` silently truncates deeper networks); slot length is
//! unchanged, so latency growth is attributable to depth, not to
//! retuning. A multi–base-station variant splits the same population
//! over four independently-rooted tiles, the deployment answer to the
//! latency cost of depth.
//!
//! Accuracy, latency and per-node traffic land in the CSV. Peak RSS is
//! a **host** fact and deliberately stays out of every deterministic
//! artefact (the XL008 rule): it is reported on stderr only.

use crate::parallel::par_map;
use crate::{f1, f3, mean, scaled_deployment, Table};
use agg::tag::{run_tag, TagConfig};
use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaRun};
use wsn_sim::prelude::*;
use wsn_sim::profile::peak_rss_bytes;

/// The size axis of the full sweep.
pub const SCALE_SIZES: [usize; 4] = [600, 2_000, 10_000, 50_000];

/// The reduced CI axis (`--quick`): everything but the 50k point, which
/// alone costs more than the rest of the sweep combined.
pub const QUICK_SIZES: [usize; 3] = [600, 2_000, 10_000];

/// Independent base stations in the multi-BS variant.
const BS_TILES: usize = 4;

/// Options for [`run_with`]: the `fig21_scale` binary's knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScaleOptions {
    /// Use [`QUICK_SIZES`] with one trial per point (CI smoke).
    pub quick: bool,
}

/// Seeded trials per size point.
fn trials_for(n: usize, quick: bool) -> u64 {
    // One trial in CI and at the 50k point (which alone dominates the
    // sweep's wall-clock); two seeds everywhere else.
    if quick || n >= 50_000 {
        1
    } else {
        2
    }
}

/// Schedule depth for a deployment: its measured hop eccentricity from
/// the base station plus slack, never below the paper default of 20.
fn depth_for(dep: &Deployment) -> u16 {
    let ecc = dep.eccentricity(NodeId::new(0));
    u16::try_from(ecc)
        .expect("invariant: hop depth fits in u16")
        .saturating_add(2)
        .max(20)
}

/// The paper's iCPDA configuration with the upstream schedule widened
/// to `depth` levels at the *paper's* slot length, so deeper networks
/// get more slots rather than shorter ones.
fn icpda_config_for(depth: u16) -> IcpdaConfig {
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    if depth > config.schedule.max_depth {
        let slot = config.schedule.upstream_slot();
        config.schedule.max_depth = depth;
        config.schedule.upstream_epoch = slot * u64::from(depth);
    }
    config
}

/// TAG with the same depth-widening policy (constant slot length).
fn tag_config_for(depth: u16) -> TagConfig {
    let mut config = TagConfig::paper_default(AggFunction::Count);
    if depth > config.max_depth {
        let slot = config.slot();
        config.max_depth = depth;
        config.epoch = slot * u64::from(depth);
    }
    config
}

/// One trial's measurements at one size point.
struct Trial {
    degree: f64,
    depth: f64,
    icpda_acc: f64,
    icpda_lat: f64,
    icpda_bytes_per_node: f64,
    tag_acc: f64,
    tag_lat: f64,
    tag_bytes_per_node: f64,
    multi_acc: f64,
    multi_lat: f64,
}

fn trial(n: usize, seed: u64) -> Trial {
    let dep = scaled_deployment(n, seed);
    let degree = dep.average_degree();
    let depth = depth_for(&dep);
    let readings = agg::readings::count_readings(n);
    let run_seed = seed.wrapping_mul(31).wrapping_add(7);

    let i = IcpdaRun::new(
        dep.clone(),
        icpda_config_for(depth),
        readings.clone(),
        run_seed,
    )
    .run();

    let t = run_tag(
        dep,
        SimConfig::paper_default(),
        tag_config_for(depth),
        &readings,
        run_seed,
    );

    // Multi-BS: the same population split over four independent tiles,
    // each a quarter of the nodes on a quarter of the area (density
    // unchanged) with its own central base station. Tile aggregates are
    // summed offline; the reported latency is the slowest tile's, i.e.
    // the moment the last partial answer exists.
    let tile_n = n / BS_TILES;
    let mut multi_value = 0.0;
    let mut multi_truth = 0.0;
    let mut multi_lat = 0.0f64;
    for tile in 0..BS_TILES as u64 {
        let tdep = scaled_deployment(tile_n, seed.wrapping_mul(89).wrapping_add(tile));
        let tdepth = depth_for(&tdep);
        let treadings = agg::readings::count_readings(tile_n);
        let o = IcpdaRun::new(
            tdep,
            icpda_config_for(tdepth),
            treadings,
            run_seed.wrapping_add(tile),
        )
        .run();
        multi_value += o.value;
        multi_truth += o.truth;
        multi_lat = multi_lat.max(o.last_update.map_or(0.0, |at| at.as_secs_f64()));
    }

    Trial {
        degree,
        depth: f64::from(depth),
        icpda_acc: i.accuracy(),
        icpda_lat: i.last_update.map_or(0.0, |at| at.as_secs_f64()),
        icpda_bytes_per_node: i.total_bytes as f64 / n as f64,
        tag_acc: agg::accuracy_ratio(t.value, t.truth),
        tag_lat: t.last_report_at.map_or(0.0, |at| at.as_secs_f64()),
        tag_bytes_per_node: t.total_bytes as f64 / n as f64,
        multi_acc: agg::accuracy_ratio(multi_value, multi_truth),
        multi_lat,
    }
}

/// Regenerates Figure 21 with the default (full) options.
///
/// # Errors
///
/// Propagates CSV write failures.
pub fn run() -> std::io::Result<()> {
    run_with(ScaleOptions::default())
}

/// Regenerates Figure 21 under explicit options (see the
/// `fig21_scale` binary's `--quick` flag).
///
/// # Errors
///
/// Propagates CSV write failures.
pub fn run_with(opts: ScaleOptions) -> std::io::Result<()> {
    let sizes: &[usize] = if opts.quick {
        &QUICK_SIZES
    } else {
        &SCALE_SIZES
    };
    let mut table = Table::new(
        "Figure 21 — scaling at paper density (iCPDA vs TAG vs 4 base stations)",
        &[
            "nodes",
            "degree",
            "depth",
            "iCPDA acc",
            "iCPDA s",
            "iCPDA B/node",
            "TAG acc",
            "TAG s",
            "TAG B/node",
            "4-BS acc",
            "4-BS s",
        ],
    );
    // Per-size trial counts differ (the 50k point runs once), so the
    // jobs are laid out explicitly instead of via `par_sweep`; the
    // by-index collection keeps the CSV byte-identical at any thread
    // count all the same.
    let jobs: Vec<(String, (usize, u64))> = sizes
        .iter()
        .enumerate()
        .flat_map(|(pi, &n)| {
            (0..trials_for(n, opts.quick)).map(move |s| (format!("n{n}/seed={s}"), (pi, s)))
        })
        .collect();
    let outs = par_map("fig21_scale", jobs.clone(), |&(pi, seed)| {
        trial(sizes[pi], seed)
    });
    for (pi, &n) in sizes.iter().enumerate() {
        let trials: Vec<&Trial> = jobs
            .iter()
            .zip(&outs)
            .filter(|((_, (p, _)), _)| *p == pi)
            .map(|(_, t)| t)
            .collect();
        let col = |f: fn(&Trial) -> f64| -> Vec<f64> { trials.iter().map(|t| f(t)).collect() };
        table.row(vec![
            n.to_string(),
            f1(mean(&col(|t| t.degree))),
            f1(mean(&col(|t| t.depth))),
            f3(mean(&col(|t| t.icpda_acc))),
            f1(mean(&col(|t| t.icpda_lat))),
            f1(mean(&col(|t| t.icpda_bytes_per_node))),
            f3(mean(&col(|t| t.tag_acc))),
            f1(mean(&col(|t| t.tag_lat))),
            f1(mean(&col(|t| t.tag_bytes_per_node))),
            f3(mean(&col(|t| t.multi_acc))),
            f1(mean(&col(|t| t.multi_lat))),
        ]);
    }
    // Host memory high-water mark: stderr only, never in the CSV (the
    // deterministic-artefact discipline XL008 enforces).
    if let Some(bytes) = peak_rss_bytes() {
        eprintln!(
            "peak-rss: {:.0} MB over the fig21_scale sweep (host fact, stderr only)",
            bytes as f64 / (1024.0 * 1024.0)
        );
    }
    table.emit("fig21_scale")
}

/// Streams one fully instrumented iCPDA run at the sweep's largest
/// configured size (N=10k under `--quick`, N=50k otherwise) into `dir`:
/// spans, metrics, the complete event trace and the engine self-profile
/// all go through the bounded-memory exporter, so this is the capture
/// that used to be memory-bound at 50k. The streaming summary and peak
/// RSS go to stderr (host facts).
///
/// # Errors
///
/// Returns a description when the capture directory cannot be written
/// or the exporter latches an I/O error mid-run.
pub fn capture_stream(opts: ScaleOptions, dir: &std::path::Path) -> Result<(), String> {
    let sizes: &[usize] = if opts.quick {
        &QUICK_SIZES
    } else {
        &SCALE_SIZES
    };
    let n = *sizes.last().expect("non-empty size axis");
    let seed = 0u64;
    let run_seed = seed.wrapping_mul(31).wrapping_add(7);
    let dep = scaled_deployment(n, seed);
    let depth = depth_for(&dep);
    let mut sc = SimConfig::paper_default();
    sc.obs_level = ObsLevel::Full;
    sc.trace_level = wsn_sim::TraceLevel::Full;
    sc.profile = true;
    sc.flight_rounds = 4;
    let manifest = icpda_obs::export::Manifest {
        tool: "fig21_scale capture".to_string(),
        seed: run_seed,
        threads: crate::parallel::effective_threads(),
        git_rev: crate::perf::git_rev(),
        config: vec![
            ("nodes".to_string(), n.to_string()),
            ("depth".to_string(), depth.to_string()),
        ],
    };
    let stream =
        icpda_obs::stream::ObsStream::create(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    eprintln!(
        "streaming full-trace capture of N={n} to {}...",
        dir.display()
    );
    let out = IcpdaRun::new(
        dep,
        icpda_config_for(depth),
        agg::readings::count_readings(n),
        run_seed,
    )
    .with_sim_config(sc)
    .with_obs_stream(stream, manifest)
    .run();
    let stats = out.stream.as_ref().expect("stream outcome present");
    eprintln!(
        "captured {} spans / {} trace records ({} trace bytes) at N={n}",
        stats.spans, stats.trace_records, stats.trace_bytes
    );
    if let Some(bytes) = peak_rss_bytes() {
        eprintln!(
            "peak-rss: {:.0} MB over the streamed capture (host fact, stderr only)",
            bytes as f64 / (1024.0 * 1024.0)
        );
    }
    match &stats.error {
        Some(e) => Err(format!("{}: {e}", dir.display())),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_widening_keeps_slot_length() {
        let paper = IcpdaConfig::paper_default(AggFunction::Count);
        let widened = icpda_config_for(60);
        assert_eq!(widened.schedule.max_depth, 60);
        assert_eq!(
            widened.schedule.upstream_slot(),
            paper.schedule.upstream_slot()
        );
        // Shallow networks keep the paper schedule untouched.
        let same = icpda_config_for(12);
        assert_eq!(same.schedule.max_depth, paper.schedule.max_depth);
        assert_eq!(same.schedule.upstream_epoch, paper.schedule.upstream_epoch);

        let tag = tag_config_for(60);
        assert_eq!(tag.max_depth, 60);
        assert_eq!(
            tag.slot(),
            TagConfig::paper_default(AggFunction::Count).slot()
        );
    }

    #[test]
    fn scaled_deployment_preserves_paper_density() {
        // Degree tracks the paper's ~28 at every size (Table I gives
        // 28.4 at N=600 on the paper field).
        let d2k = scaled_deployment(2_000, 3);
        assert!(
            (d2k.average_degree() - 28.4).abs() < 5.0,
            "degree {} drifted from paper density",
            d2k.average_degree()
        );
        // Depth grows with sqrt(n): the 2k field is ~730 m, so ~8+ hops
        // from the central BS to a corner.
        assert!(depth_for(&d2k) >= 20);
    }
}
