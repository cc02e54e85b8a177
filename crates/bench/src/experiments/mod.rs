//! One module per evaluation artefact (table/figure). Each exposes
//! `run()`, which prints the regenerated table and writes its CSV
//! (`render_topology` writes two SVGs instead).

pub mod fig10_ablation;
pub mod fig11_adaptive;
pub mod fig12_lifetime;
pub mod fig13_keyscheme;
pub mod fig14_linkquality;
pub mod fig15_hotspots;
pub mod fig16_rounds;
pub mod fig17_synergy;
pub mod fig18_churn;
pub mod fig19_adversary;
pub mod fig20_reliability;
pub mod fig21_scale;
pub mod fig2_overhead;
pub mod fig3_accuracy;
pub mod fig4_privacy;
pub mod fig5_integrity;
pub mod fig6_clusters;
pub mod fig7_latency;
pub mod fig9_energy;
pub mod render_topology;
pub mod tab1_degree;
pub mod tab8_messages;

use agg::tag::{run_tag, TagConfig, TagRunOutcome};
use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaOutcome, IcpdaRun};
use wsn_sim::prelude::*;

use crate::paper_deployment;

/// One seeded iCPDA round on a paper deployment.
#[must_use]
pub fn icpda_round(n: usize, seed: u64, config: IcpdaConfig) -> IcpdaOutcome {
    let dep = paper_deployment(n, seed);
    let readings = agg::readings::count_readings(n);
    IcpdaRun::new(dep, config, readings, seed.wrapping_mul(31).wrapping_add(7)).run()
}

/// One seeded TAG round on the same deployment family.
#[must_use]
pub fn tag_round(n: usize, seed: u64, function: AggFunction) -> TagRunOutcome {
    let dep = paper_deployment(n, seed);
    let readings = agg::readings::count_readings(n);
    run_tag(
        dep,
        SimConfig::paper_default(),
        TagConfig::paper_default(function),
        &readings,
        seed.wrapping_mul(31).wrapping_add(7),
    )
}

/// Runs every experiment in order (the `run_all` binary), so every
/// file under `results/` is regenerated.
///
/// # Errors
///
/// Propagates the first experiment failure (CSV or SVG write errors).
pub fn run_all() -> std::io::Result<()> {
    tab1_degree::run()?;
    fig2_overhead::run()?;
    fig3_accuracy::run()?;
    fig4_privacy::run()?;
    fig5_integrity::run()?;
    fig6_clusters::run()?;
    fig7_latency::run()?;
    tab8_messages::run()?;
    fig9_energy::run()?;
    fig10_ablation::run()?;
    fig11_adaptive::run()?;
    fig12_lifetime::run()?;
    fig13_keyscheme::run()?;
    fig14_linkquality::run()?;
    fig15_hotspots::run()?;
    fig16_rounds::run()?;
    fig17_synergy::run()?;
    fig18_churn::run()?;
    fig19_adversary::run()?;
    fig20_reliability::run()?;
    fig21_scale::run()?;
    render_topology::run()
}
