//! Dependency-free SVG rendering of deployments and cluster structure.
//!
//! Produces a self-contained `.svg` showing node positions, radio-graph
//! edges, cluster membership (one colour per cluster), heads (ringed),
//! the base station (square) and orphans (hollow) — the quickest way to
//! see *why* a particular topology under-performs (coverage gaps,
//! stranded pockets, oversized clusters).

use icpda::IcpdaOutcome;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use wsn_sim::topology::Deployment;
use wsn_sim::NodeId;

/// Pixel size of the rendered map.
const CANVAS: f64 = 800.0;

/// A qualitative colour for cluster `i` (golden-angle hue walk, so
/// neighbouring cluster ids get far-apart hues).
fn cluster_color(i: usize) -> String {
    let hue = (i as f64 * 137.508) % 360.0;
    format!("hsl({hue:.0},70%,45%)")
}

/// Renders the deployment alone (grey nodes + edges).
#[must_use]
pub fn render_deployment(dep: &Deployment) -> String {
    render(dep, &BTreeMap::new(), &[])
}

/// Renders a finished round: nodes coloured by cluster, heads ringed,
/// orphans hollow.
#[must_use]
pub fn render_outcome(dep: &Deployment, outcome: &IcpdaOutcome) -> String {
    let cluster_of: BTreeMap<NodeId, NodeId> = outcome
        .rosters
        .iter()
        .map(|(node, roster)| (*node, roster.head()))
        .collect();
    let heads: Vec<NodeId> = outcome.sharing_heads().collect();
    render(dep, &cluster_of, &heads)
}

fn render(dep: &Deployment, cluster_of: &BTreeMap<NodeId, NodeId>, heads: &[NodeId]) -> String {
    let region = dep.region();
    let scale = CANVAS / region.width.max(region.height);
    let px = |x: f64| x * scale;
    let w = px(region.width);
    let h = px(region.height);

    // Stable colour per cluster head.
    let mut head_index: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (_, &head) in cluster_of.iter() {
        let next = head_index.len();
        head_index.entry(head).or_insert(next);
    }

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0}" height="{h:.0}" viewBox="0 0 {w:.0} {h:.0}">"#
    );
    let _ = writeln!(
        svg,
        r##"<rect width="100%" height="100%" fill="#fcfcf8"/>"##
    );

    // Edges, faint.
    for a in dep.node_ids() {
        let pa = dep.position(a);
        for &b in dep.neighbors(a) {
            if b > a {
                let pb = dep.position(b);
                let _ = writeln!(
                    svg,
                    r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#ddd" stroke-width="0.5"/>"##,
                    px(pa.x),
                    px(pa.y),
                    px(pb.x),
                    px(pb.y)
                );
            }
        }
    }

    // Nodes.
    for id in dep.node_ids() {
        let p = dep.position(id);
        let (x, y) = (px(p.x), px(p.y));
        if id == NodeId::new(0) {
            // Base station: black square.
            let _ = writeln!(
                svg,
                r##"<rect x="{:.1}" y="{:.1}" width="12" height="12" fill="#000"><title>base station</title></rect>"##,
                x - 6.0,
                y - 6.0
            );
            continue;
        }
        match cluster_of.get(&id) {
            Some(head) => {
                let color = cluster_color(head_index[head]);
                let is_head = heads.contains(&id);
                let r = if is_head { 7.0 } else { 4.0 };
                let stroke = if is_head {
                    r##" stroke="#000" stroke-width="1.6""##
                } else {
                    ""
                };
                let _ = writeln!(
                    svg,
                    r#"<circle cx="{x:.1}" cy="{y:.1}" r="{r}" fill="{color}"{stroke}><title>{id} (cluster {head})</title></circle>"#,
                );
            }
            None => {
                // Orphan / non-participant: hollow grey.
                let _ = writeln!(
                    svg,
                    r##"<circle cx="{x:.1}" cy="{y:.1}" r="4" fill="none" stroke="#999" stroke-width="1"><title>{id} (no cluster)</title></circle>"##
                );
            }
        }
    }
    svg.push_str("</svg>\n");
    svg
}

/// Writes an SVG under `results/<name>.svg`, creating the directory,
/// and returns the written path.
///
/// # Errors
///
/// Propagates the IO error when the directory or file cannot be
/// written; callers exit nonzero instead of shipping a stale artefact.
pub fn write_svg(name: &str, svg: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.svg"));
    std::fs::write(&path, svg)?;
    eprintln!("(svg written to {})", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg::AggFunction;
    use icpda::{IcpdaConfig, IcpdaRun};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wsn_sim::geometry::Region;

    fn small_dep() -> Deployment {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        Deployment::uniform_random_with_central_bs(40, Region::new(200.0, 200.0), 50.0, &mut rng)
    }

    #[test]
    fn renders_every_node() {
        let dep = small_dep();
        let svg = render_deployment(&dep);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        // One base-station rect + 39 node circles.
        assert_eq!(svg.matches("<rect x=").count(), 1);
        assert_eq!(svg.matches("<circle").count(), 39);
    }

    #[test]
    fn outcome_render_marks_heads_and_orphans() {
        let dep = small_dep();
        let out = IcpdaRun::new(
            dep.clone(),
            IcpdaConfig::paper_default(AggFunction::Count),
            agg::readings::count_readings(40),
            3,
        )
        .run();
        let svg = render_outcome(&dep, &out);
        // Heads get the black ring.
        let heads = out.sharing_heads().count();
        assert!(heads > 0);
        assert_eq!(svg.matches(r##"stroke="#000""##).count(), heads);
        // Members are coloured by hsl cluster colours.
        assert!(svg.contains("hsl("));
    }

    #[test]
    fn colors_are_distinct_for_small_indices() {
        let set: std::collections::HashSet<String> = (0..20).map(cluster_color).collect();
        assert_eq!(set.len(), 20);
    }
}
