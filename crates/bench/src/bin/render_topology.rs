//! Renders a finished round's cluster structure to `results/topology.svg`
//! (uniform deployment) and `results/topology_hotspots.svg` (clumped).

use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaRun};
use icpda_bench::svg::{render_outcome, write_svg};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_sim::geometry::Region;
use wsn_sim::topology::Deployment;

fn main() -> std::process::ExitCode {
    icpda_bench::run_main(render)
}

fn render() -> std::io::Result<()> {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let uniform =
        Deployment::uniform_random_with_central_bs(400, Region::paper_default(), 50.0, &mut rng);
    let out = IcpdaRun::new(
        uniform.clone(),
        config,
        agg::readings::count_readings(400),
        7,
    )
    .run();
    println!(
        "uniform: {} clusters, accuracy {:.3}",
        out.cluster_sizes.len(),
        out.accuracy()
    );
    write_svg("topology", &render_outcome(&uniform, &out))?;

    // Fresh stream with its own seed: the clumps must reach the central
    // base station for the render to show cluster structure at all, and
    // not every draw does.
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let hotspot =
        Deployment::gaussian_hotspots(400, Region::paper_default(), 50.0, 5, 45.0, &mut rng);
    let out = IcpdaRun::new(
        hotspot.clone(),
        config,
        agg::readings::count_readings(400),
        7,
    )
    .run();
    println!(
        "hotspots: {} clusters, accuracy {:.3}",
        out.cluster_sizes.len(),
        out.accuracy()
    );
    write_svg("topology_hotspots", &render_outcome(&hotspot, &out))?;
    Ok(())
}
