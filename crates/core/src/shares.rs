//! The intra-cluster secret-sharing algebra.
//!
//! Every cluster member `i` holding additive contributions
//! `d_i = (d_i^{(1)}, …, d_i^{(c)})` (one component per aggregate
//! component, see [`agg::AggFunction`]) blinds each component with its
//! own random polynomial of degree `m − 1` (constant term the
//! component value) and hands member `j` the evaluation at the public
//! seed `x_j`:
//!
//! ```text
//! v_j^i = d_i + r_1^i·x_j + r_2^i·x_j² + … + r_{m−1}^i·x_j^{m−1}
//! ```
//!
//! Member `j` assembles `F_j = Σ_i v_j^i` and broadcasts it inside the
//! cluster. Because `F_j = P(x_j)` for the *sum polynomial*
//! `P = Σ_i P_i` whose constant term is the cluster sum, any member
//! holding all `m` broadcasts recovers the sum by Lagrange interpolation
//! at zero — without ever seeing an individual `d_i`.

use agg::field::{random_fp, Fp};
use rand::Rng;

/// The public, pairwise-distinct, non-zero evaluation seeds of a
/// cluster: member at roster position `j` uses seed `x_j = j + 1`.
///
/// # Examples
///
/// ```
/// use icpda::shares::seed_for;
/// assert_eq!(seed_for(0).to_u64(), 1);
/// assert_eq!(seed_for(3).to_u64(), 4);
/// ```
#[must_use]
pub fn seed_for(roster_index: usize) -> Fp {
    Fp::new(roster_index as u64 + 1)
}

/// The blinded share a member sends to (or keeps for) one roster
/// position: one field element per aggregate component.
pub type ShareVector = Vec<Fp>;

/// Generates the `m` share vectors of one member: entry `j` is the
/// evaluation destined for roster position `j` (including the member's
/// own kept share).
///
/// Each component of the contribution is blinded by an independent
/// polynomial with uniformly random coefficients, so any `m − 1` shares
/// of a member are jointly uniform (information-theoretic hiding).
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn generate_shares<R: Rng + ?Sized>(
    contribution: &[u64],
    m: usize,
    rng: &mut R,
) -> Vec<ShareVector> {
    generate_shares_t(contribution, m, m, rng)
}

/// Generates the `m` share vectors of one member with an explicit
/// recovery threshold: the blinding polynomials have degree
/// `threshold − 1`, so any `threshold` assemblies reconstruct the sum
/// (crash tolerance) while any `threshold − 1` shares stay jointly
/// uniform (the collusion bound drops from `m − 1` accordingly).
///
/// With `threshold == m` this is exactly [`generate_shares`] — same
/// polynomials, same RNG draws.
///
/// # Panics
///
/// Panics if `m == 0` or `threshold` is not in `1..=m`.
#[must_use]
pub fn generate_shares_t<R: Rng + ?Sized>(
    contribution: &[u64],
    m: usize,
    threshold: usize,
    rng: &mut R,
) -> Vec<ShareVector> {
    assert!(m > 0, "cluster must have at least one member");
    assert!(
        (1..=m).contains(&threshold),
        "recovery threshold must be in 1..=m"
    );
    let components = contribution.len();
    // coeffs[comp] = [d, r_1, ..., r_{threshold-1}]
    let coeffs: Vec<Vec<Fp>> = contribution
        .iter()
        .map(|&d| {
            let mut poly = Vec::with_capacity(threshold);
            poly.push(Fp::new(d));
            for _ in 1..threshold {
                poly.push(random_fp(rng));
            }
            poly
        })
        .collect();
    (0..m)
        .map(|j| {
            let x = seed_for(j);
            (0..components)
                .map(|comp| eval_poly(&coeffs[comp], x))
                .collect()
        })
        .collect()
}

/// Horner evaluation of a polynomial given in ascending-degree order.
#[must_use]
fn eval_poly(coeffs: &[Fp], x: Fp) -> Fp {
    coeffs.iter().rev().fold(Fp::ZERO, |acc, &c| acc * x + c)
}

/// Sums share vectors componentwise (the assembly step `F_j = Σ_i v_j^i`).
///
/// # Panics
///
/// Panics if the vectors disagree on component count.
#[must_use]
pub fn assemble(shares: &[ShareVector]) -> ShareVector {
    let Some(first) = shares.first() else {
        return Vec::new();
    };
    let mut acc = vec![Fp::ZERO; first.len()];
    for share in shares {
        assert_eq!(share.len(), acc.len(), "component count mismatch");
        for (a, &s) in acc.iter_mut().zip(share) {
            *a += s;
        }
    }
    acc
}

/// Recovers the cluster-sum vector from the `m` broadcast assemblies:
/// Lagrange interpolation of the sum polynomial at zero, per component
/// ([`recover_sum_at`] over every position `0..m`).
///
/// `assemblies[j]` must be the `F_j` of roster position `j` (seed
/// `x_j = j + 1`), all with the same component count.
///
/// Returns `None` if fewer than one assembly is present or the component
/// counts disagree (a malformed cluster round).
#[must_use]
pub fn recover_sum(assemblies: &[ShareVector]) -> Option<ShareVector> {
    recover_sum_at(&assemblies.iter().cloned().enumerate().collect::<Vec<_>>())
}

/// Recovers the cluster-sum vector from a *subset* of the broadcast
/// assemblies: `points` pairs each surviving roster position `j` with its
/// assembly `F_j = P(x_j)`. Lagrange interpolation at zero over exactly
/// the present seeds — correct whenever the number of points is at least
/// the sharing threshold (with more points, interpolation of a
/// lower-degree polynomial is still exact).
///
/// Returns `None` if no point is present, positions repeat, or the
/// component counts disagree.
#[must_use]
pub fn recover_sum_at(points: &[(usize, ShareVector)]) -> Option<ShareVector> {
    let components = points.first().map(|(_, a)| a.len())?;
    if points.iter().any(|(_, a)| a.len() != components) {
        return None;
    }
    let xs: Vec<Fp> = points.iter().map(|&(j, _)| seed_for(j)).collect();
    // Repeated positions make the Lagrange denominators vanish.
    for (i, &xi) in xs.iter().enumerate() {
        if xs.iter().skip(i + 1).any(|&xk| xk == xi) {
            return None;
        }
    }
    // Lagrange basis at zero: L_j(0) = Π_{k≠j} x_k / (x_k − x_j).
    // The denominators are inverted together (Montgomery's batch trick):
    // one Fermat inversion for the whole basis instead of one per point.
    let mut nums = Vec::with_capacity(xs.len());
    let mut dens = Vec::with_capacity(xs.len());
    for (j, &xj) in xs.iter().enumerate() {
        let mut num = Fp::ONE;
        let mut den = Fp::ONE;
        for (k, &xk) in xs.iter().enumerate() {
            if k != j {
                num *= xk;
                den *= xk - xj;
            }
        }
        nums.push(num);
        dens.push(den);
    }
    Fp::batch_inverse(&mut dens)?;
    let weights: Vec<Fp> = nums.iter().zip(&dens).map(|(&n, &d)| n * d).collect();
    let mut sum = vec![Fp::ZERO; components];
    for ((_, assembly), &w) in points.iter().zip(&weights) {
        for (acc, &f) in sum.iter_mut().zip(assembly) {
            *acc += f * w;
        }
    }
    Some(sum)
}

/// Serialises a share vector for sealing (8 bytes per component,
/// little-endian canonical field representatives).
#[must_use]
pub fn share_to_bytes(share: &[Fp]) -> Vec<u8> {
    share
        .iter()
        .flat_map(|f| f.to_u64().to_le_bytes())
        .collect()
}

/// Parses a serialised share vector; `None` on a malformed length.
#[must_use]
pub fn share_from_bytes(bytes: &[u8]) -> Option<ShareVector> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    bytes
        .chunks_exact(8)
        .map(|c| {
            <[u8; 8]>::try_from(c)
                .ok()
                .map(u64::from_le_bytes)
                .map(Fp::new)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// End-to-end algebra: every member shares, assemblies recover the
    /// exact componentwise sum.
    fn roundtrip(contributions: &[Vec<u64>]) -> Vec<u64> {
        let m = contributions.len();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let all_shares: Vec<Vec<ShareVector>> = contributions
            .iter()
            .map(|c| generate_shares(c, m, &mut rng))
            .collect();
        // Member j assembles the shares destined to position j.
        let assemblies: Vec<ShareVector> = (0..m)
            .map(|j| {
                let received: Vec<ShareVector> = all_shares.iter().map(|s| s[j].clone()).collect();
                assemble(&received)
            })
            .collect();
        recover_sum(&assemblies)
            .expect("solvable")
            .iter()
            .map(|f| f.to_u64())
            .collect()
    }

    #[test]
    fn recovers_sum_for_three_members() {
        let got = roundtrip(&[vec![10], vec![20], vec![30]]);
        assert_eq!(got, vec![60]);
    }

    #[test]
    fn recovers_vector_components() {
        // AVG-style contributions [1, r].
        let got = roundtrip(&[vec![1, 10], vec![1, 20], vec![1, 33]]);
        assert_eq!(got, vec![3, 63]);
    }

    #[test]
    fn works_for_two_member_clusters() {
        assert_eq!(roundtrip(&[vec![7], vec![8]]), vec![15]);
    }

    #[test]
    fn works_for_large_clusters() {
        let contributions: Vec<Vec<u64>> = (0..16).map(|i| vec![i * i]).collect();
        let expect: u64 = (0..16).map(|i| i * i).sum();
        assert_eq!(roundtrip(&contributions), vec![expect]);
    }

    #[test]
    fn single_member_cluster_is_identity() {
        assert_eq!(roundtrip(&[vec![42]]), vec![42]);
    }

    #[test]
    fn shares_are_blinded() {
        // A share must not equal the raw value (overwhelming probability).
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let shares = generate_shares(&[1234], 4, &mut rng);
        let leaks = shares.iter().filter(|s| s[0].to_u64() == 1234).count();
        assert_eq!(leaks, 0, "blinding failed");
    }

    #[test]
    fn m_minus_1_shares_leave_value_undetermined() {
        // Generate twice with different values; the distribution of any
        // m-1 shares is identical (uniform), so observing them cannot
        // distinguish the value. We verify the algebraic core: given
        // m-1 shares there exist polynomials consistent with *any*
        // constant term. Constructive check for m = 3.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let shares = generate_shares(&[555], 3, &mut rng);
        // Adversary sees shares for positions 1 and 2 (not the kept 0).
        let (v1, v2) = (shares[1][0], shares[2][0]);
        let (x1, x2) = (seed_for(1), seed_for(2));
        // For an arbitrary hypothesis d', solve for (r1, r2):
        for d_hyp in [0u64, 1, 999, 123_456] {
            let d = Fp::new(d_hyp);
            // v1 - d = r1 x1 + r2 x1², v2 - d = r1 x2 + r2 x2².
            let det = x1 * (x2 * x2) - x2 * (x1 * x1);
            let r1 = ((v1 - d) * (x2 * x2) - (v2 - d) * (x1 * x1)) * det.inverse().unwrap();
            let r2 = (x1 * (v2 - d) - x2 * (v1 - d)) * det.inverse().unwrap();
            // The hypothesis is consistent: it reproduces both shares.
            assert_eq!(d + r1 * x1 + r2 * x1 * x1, v1);
            assert_eq!(d + r1 * x2 + r2 * x2 * x2, v2);
        }
    }

    /// Threshold roundtrip with survivors: every member shares with
    /// threshold `t`, then only `alive` positions assemble and solve.
    fn threshold_roundtrip(contributions: &[Vec<u64>], t: usize, alive: &[usize]) -> Vec<u64> {
        let m = contributions.len();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let all_shares: Vec<Vec<ShareVector>> = contributions
            .iter()
            .map(|c| generate_shares_t(c, m, t, &mut rng))
            .collect();
        let points: Vec<(usize, ShareVector)> = alive
            .iter()
            .map(|&j| {
                let received: Vec<ShareVector> = all_shares.iter().map(|s| s[j].clone()).collect();
                (j, assemble(&received))
            })
            .collect();
        recover_sum_at(&points)
            .expect("solvable")
            .iter()
            .map(|f| f.to_u64())
            .collect()
    }

    #[test]
    fn threshold_recovery_survives_missing_positions() {
        let contributions = vec![vec![10], vec![20], vec![30], vec![40], vec![50]];
        // Threshold 3 of 5: any 3 surviving positions recover the sum.
        assert_eq!(
            threshold_roundtrip(&contributions, 3, &[0, 2, 4]),
            vec![150]
        );
        assert_eq!(
            threshold_roundtrip(&contributions, 3, &[1, 2, 3]),
            vec![150]
        );
        // Extra surviving points beyond the threshold stay exact.
        assert_eq!(
            threshold_roundtrip(&contributions, 3, &[0, 1, 2, 3]),
            vec![150]
        );
        assert_eq!(
            threshold_roundtrip(&contributions, 3, &[0, 1, 2, 3, 4]),
            vec![150]
        );
    }

    #[test]
    fn threshold_equal_to_m_matches_generate_shares() {
        let mut rng_a = ChaCha8Rng::seed_from_u64(3);
        let mut rng_b = ChaCha8Rng::seed_from_u64(3);
        let a = generate_shares(&[77, 5], 4, &mut rng_a);
        let b = generate_shares_t(&[77, 5], 4, 4, &mut rng_b);
        assert_eq!(a, b);
    }

    #[test]
    fn recover_sum_at_full_set_matches_recover_sum() {
        let contributions = vec![vec![7], vec![8], vec![9]];
        assert_eq!(roundtrip(&contributions), vec![24]);
        assert_eq!(threshold_roundtrip(&contributions, 3, &[0, 1, 2]), vec![24]);
    }

    #[test]
    fn recover_sum_at_rejects_malformed_inputs() {
        assert_eq!(recover_sum_at(&[]), None);
        // Repeated positions.
        let p = vec![(1usize, vec![Fp::new(5)]), (1usize, vec![Fp::new(6)])];
        assert_eq!(recover_sum_at(&p), None);
        // Mismatched components.
        let q = vec![
            (0usize, vec![Fp::new(5)]),
            (1usize, vec![Fp::new(6), Fp::new(7)]),
        ];
        assert_eq!(recover_sum_at(&q), None);
    }

    #[test]
    fn recover_rejects_mismatched_components() {
        let a = vec![vec![Fp::new(1)], vec![Fp::new(2), Fp::new(3)]];
        assert_eq!(recover_sum(&a), None);
    }

    #[test]
    fn byte_roundtrip() {
        let share = vec![Fp::new(1), Fp::new(u64::MAX / 4), Fp::ZERO];
        let bytes = share_to_bytes(&share);
        assert_eq!(bytes.len(), 24);
        assert_eq!(share_from_bytes(&bytes), Some(share));
        assert_eq!(share_from_bytes(&bytes[..7]), None);
    }

    #[test]
    fn seeds_are_distinct_and_nonzero() {
        let seeds: Vec<u64> = (0..64).map(|j| seed_for(j).to_u64()).collect();
        let set: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(set.len(), 64);
        assert!(seeds.iter().all(|&s| s != 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fundamental correctness invariant of the privacy layer.
        #[test]
        fn share_assemble_recover_is_exact_sum(
            values in prop::collection::vec(0u64..1_000_000, 2..12),
        ) {
            let contributions: Vec<Vec<u64>> = values.iter().map(|&v| vec![v]).collect();
            let expect: u64 = values.iter().sum();
            prop_assert_eq!(roundtrip(&contributions), vec![expect]);
        }

        /// Share vectors destined to different positions differ (the
        /// polynomial is non-constant with overwhelming probability).
        #[test]
        fn shares_vary_across_positions(value in 0u64..1_000_000, seed in 0u64..1000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let shares = generate_shares(&[value], 4, &mut rng);
            let distinct: std::collections::HashSet<u64> =
                shares.iter().map(|s| s[0].to_u64()).collect();
            prop_assert!(distinct.len() >= 2);
        }
    }
}
