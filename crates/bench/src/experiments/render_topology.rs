//! **Topology renders.** A finished round's cluster structure drawn to
//! `results/topology.svg` (uniform deployment) and
//! `results/topology_hotspots.svg` (clumped), the quickest way to see
//! why a topology under-performs.

use crate::svg::{render_outcome, write_svg};
use crate::{paper_deployment, RADIO_RANGE};
use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaRun};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_sim::geometry::Region;
use wsn_sim::topology::Deployment;

/// Nodes in each rendered deployment.
const N: usize = 400;

/// Renders both topologies.
///
/// # Errors
///
/// Propagates SVG write failures.
pub fn run() -> std::io::Result<()> {
    render("uniform", "topology", paper_deployment(N, 7))?;
    // Fresh stream with its own seed: the clumps must reach the central
    // base station for the render to show cluster structure at all, and
    // not every draw does.
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let hotspot =
        Deployment::gaussian_hotspots(N, Region::paper_default(), RADIO_RANGE, 5, 45.0, &mut rng);
    render("hotspots", "topology_hotspots", hotspot)
}

/// Runs one seeded COUNT round on `dep` and writes `results/<name>.svg`.
fn render(label: &str, name: &str, dep: Deployment) -> std::io::Result<()> {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let out = IcpdaRun::new(dep.clone(), config, agg::readings::count_readings(N), 7).run();
    println!(
        "{label}: {} clusters, accuracy {:.3}",
        out.cluster_sizes.len(),
        out.accuracy()
    );
    write_svg(name, &render_outcome(&dep, &out))?;
    Ok(())
}
