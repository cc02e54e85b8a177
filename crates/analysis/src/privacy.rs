//! Closed-form privacy-disclosure model.
//!
//! A member of an `m`-cluster is exposed iff the adversary can read the
//! links to *all* `m − 1` other members (each independently broken with
//! probability `p_x`): `P_disclose(p_x, m) = p_x^{m−1}`. With emergent
//! cluster sizes, the population average mixes over the size
//! distribution. These are the theory curves of the paper's privacy
//! figure; the Monte-Carlo counterpart is
//! `icpda::privacy::evaluate_disclosure`.

/// Disclosure probability for a member of a cluster of exactly `m`
/// nodes: `p_x^{m−1}`.
///
/// Follows the crate-wide validation policy (see [`crate::detection`]):
/// assert on bad probabilities, exponentiate counts via `powf` so no
/// `usize` value silently saturates.
///
/// # Panics
///
/// Panics if `p_x` is not a probability or `m == 0`.
#[must_use]
pub fn disclosure_probability(p_x: f64, m: usize) -> f64 {
    assert!((0.0..=1.0).contains(&p_x), "p_x must be a probability");
    assert!(m >= 1, "clusters have at least one member");
    p_x.powf((m - 1) as f64)
}

/// Population-average disclosure over an empirical cluster-size
/// distribution: each cluster of size `m` contributes `m` members, each
/// exposed with probability `p_x^{m−1}`.
#[must_use]
pub fn mixed_disclosure(p_x: f64, cluster_sizes: &[usize]) -> f64 {
    let total_members: usize = cluster_sizes.iter().sum();
    if total_members == 0 {
        return 0.0;
    }
    let exposed: f64 = cluster_sizes
        .iter()
        .map(|&m| m as f64 * disclosure_probability(p_x, m))
        .sum();
    exposed / total_members as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_clusters_disclose_less() {
        let p3 = disclosure_probability(0.1, 3);
        let p4 = disclosure_probability(0.1, 4);
        let p5 = disclosure_probability(0.1, 5);
        assert!((p3 - 1e-2).abs() < 1e-12);
        assert!((p4 - 1e-3).abs() < 1e-12);
        assert!((p5 - 1e-4).abs() < 1e-12);
    }

    #[test]
    fn extremes() {
        assert_eq!(disclosure_probability(0.0, 4), 0.0);
        assert_eq!(disclosure_probability(1.0, 4), 1.0);
        assert_eq!(
            disclosure_probability(0.3, 1),
            1.0,
            "singleton has no cover"
        );
    }

    #[test]
    fn mixed_weights_by_membership() {
        // Two clusters: size 2 (each member exposed w.p. p) and size 4.
        let p_x = 0.5f64;
        let got = mixed_disclosure(p_x, &[2, 4]);
        let expect = (2.0 * 0.5 + 4.0 * 0.125) / 6.0;
        assert!((got - expect).abs() < 1e-12);
        assert_eq!(mixed_disclosure(0.5, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn validates_px() {
        let _ = disclosure_probability(1.5, 3);
    }

    #[test]
    fn huge_clusters_do_not_saturate() {
        assert_eq!(disclosure_probability(0.5, usize::MAX), 0.0);
        assert_eq!(disclosure_probability(1.0, usize::MAX), 1.0);
    }
}
