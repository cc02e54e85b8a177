//! Cluster-coverage and participation models.
//!
//! The paper's coverage analysis asks: what fraction of nodes can
//! actually take part in the aggregation? A node participates only if it
//! finds a cluster to join — i.e. at least one head within one hop (or
//! it elects itself). Under uniform deployment the node degree is
//! approximately Poisson with mean `λ = (n−1)πr²/A`, which yields the
//! closed forms below.

use wsn_sim::geometry::Region;

/// Expected node degree `λ` for `n` nodes with range `r` on `region`
/// (border effects ignored) — the quantity of the paper's
/// size-vs-density table.
#[must_use]
pub fn expected_degree(n: usize, region: Region, radio_range: f64) -> f64 {
    region.expected_degree(n, radio_range)
}

/// Expected fraction of nodes with no head in their one-hop
/// neighbourhood, with Poisson(λ)-distributed degree:
///
/// `E[(1−p_c)^D] · (1−p_c) = (1−p_c) · e^{−λ p_c}`
///
/// (the leading `(1−p_c)` is the node itself not self-electing; the
/// Poisson thinning identity collapses the expectation).
#[must_use]
pub fn orphan_fraction(p_c: f64, mean_degree: f64) -> f64 {
    (1.0 - p_c) * (-mean_degree * p_c).exp()
}

/// Lower bound on the participation fraction: `1 − orphan_fraction`.
/// Matches the paper's claim that coverage is excellent once the mean
/// degree is large (e.g. ≥ 0.999 for λ ≥ 10 at p_c = 0.25, before
/// accounting for the under-sized-cluster merge step, which only
/// improves it).
#[must_use]
pub fn participation_bound(p_c: f64, mean_degree: f64) -> f64 {
    1.0 - orphan_fraction(p_c, mean_degree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_degree_matches_paper_table() {
        let r = Region::paper_default();
        // Paper family's table: 200→8.8, 400→18.6, 600→28.4 (measured,
        // with border effects; the ideal model is slightly higher).
        assert!((expected_degree(200, r, 50.0) - 9.77).abs() < 0.05);
        assert!((expected_degree(400, r, 50.0) - 19.58).abs() < 0.05);
        assert!((expected_degree(600, r, 50.0) - 29.4).abs() < 0.1);
    }

    #[test]
    fn participation_near_one_in_dense_networks() {
        assert!(participation_bound(0.25, 20.0) > 0.99);
        assert!(participation_bound(0.25, 5.0) < 0.95);
    }

    #[test]
    fn orphan_fraction_closed_form_matches_monte_carlo() {
        // Poisson-degree Monte Carlo of the same quantity.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let (p_c, lambda) = (0.3, 8.0);
        let trials = 200_000;
        let mut orphans = 0u32;
        for _ in 0..trials {
            if rng.gen_bool(p_c) {
                continue; // self-elected head participates
            }
            // Sample Poisson(lambda) by inversion of exponential gaps.
            let mut k = 0usize;
            let mut acc = 0.0f64;
            loop {
                acc += -rng.gen_range(0.0f64..1.0).ln() / lambda;
                if acc > 1.0 {
                    break;
                }
                k += 1;
            }
            let has_head = (0..k).any(|_| rng.gen_bool(p_c));
            if !has_head {
                orphans += 1;
            }
        }
        let mc = f64::from(orphans) / f64::from(trials);
        let theory = orphan_fraction(p_c, lambda);
        assert!((mc - theory).abs() < 0.005, "mc {mc} vs theory {theory}");
    }
}
