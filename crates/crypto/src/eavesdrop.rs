//! The eavesdropping adversary of the paper's privacy analysis.
//!
//! The paper parameterises privacy by `p_x` — the probability that an
//! adversary can "break the security of a given link" (by holding the
//! link's key under random predistribution, by having compromised an
//! endpoint, or by any other means). [`LinkAdversary`] realises that
//! model: every undirected link is independently compromised with
//! probability `p_x`, plus any link adjacent to an explicitly compromised
//! node is readable. The decision per link is sampled once and memoised so
//! the adversary is consistent over a whole simulation run.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use wsn_sim::NodeId;

/// A passive adversary that can read a random subset of links.
///
/// # Examples
///
/// ```
/// use wsn_crypto::eavesdrop::LinkAdversary;
/// use wsn_sim::NodeId;
///
/// let mut adv = LinkAdversary::new(0.0, 99);
/// adv.compromise_node(NodeId::new(4));
/// assert!(adv.can_read(NodeId::new(4), NodeId::new(7)));
/// assert!(!adv.can_read(NodeId::new(1), NodeId::new(2)));
/// ```
#[derive(Clone, Debug)]
pub struct LinkAdversary {
    p_x: f64,
    seed: u64,
    compromised_nodes: BTreeSet<NodeId>,
}

impl LinkAdversary {
    /// Creates an adversary that breaks each link independently with
    /// probability `p_x` (sampled deterministically from `seed`).
    ///
    /// # Panics
    ///
    /// Panics if `p_x` is not within `[0, 1]`.
    #[must_use]
    pub fn new(p_x: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_x), "p_x must be a probability");
        LinkAdversary {
            p_x,
            seed,
            compromised_nodes: BTreeSet::new(),
        }
    }

    /// The per-link compromise probability.
    #[must_use]
    pub fn p_x(&self) -> f64 {
        self.p_x
    }

    /// Marks a node as fully compromised: all its links become readable
    /// and its own state (shares it receives) is known to the adversary.
    pub fn compromise_node(&mut self, node: NodeId) {
        self.compromised_nodes.insert(node);
    }

    /// Whether `node` is compromised.
    #[must_use]
    pub fn node_is_compromised(&self, node: NodeId) -> bool {
        self.compromised_nodes.contains(&node)
    }

    /// Whether the adversary can read traffic on the undirected link
    /// `(a, b)`. Deterministic: the same link always gives the same
    /// answer for the same adversary.
    #[must_use]
    pub fn can_read(&self, a: NodeId, b: NodeId) -> bool {
        if self.compromised_nodes.contains(&a) || self.compromised_nodes.contains(&b) {
            return true;
        }
        if self.p_x <= 0.0 {
            return false;
        }
        if self.p_x >= 1.0 {
            return true;
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let link = (u64::from(lo.as_u32()) << 32) | u64::from(hi.as_u32());
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.seed ^ link.wrapping_mul(0x2545_F491_4F6C_DD1D));
        rng.gen_bool(self.p_x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_link() {
        let adv = LinkAdversary::new(0.5, 1);
        let a = NodeId::new(3);
        let b = NodeId::new(9);
        let first = adv.can_read(a, b);
        for _ in 0..10 {
            assert_eq!(adv.can_read(a, b), first);
            assert_eq!(adv.can_read(b, a), first, "symmetry");
        }
    }

    #[test]
    fn rate_approximates_p_x() {
        let adv = LinkAdversary::new(0.1, 7);
        let mut broken = 0;
        let mut total = 0;
        for a in 0..100u32 {
            for b in (a + 1)..100u32 {
                total += 1;
                if adv.can_read(NodeId::new(a), NodeId::new(b)) {
                    broken += 1;
                }
            }
        }
        let rate = f64::from(broken) / f64::from(total);
        assert!((rate - 0.1).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn compromised_node_exposes_all_its_links() {
        let mut adv = LinkAdversary::new(0.0, 0);
        adv.compromise_node(NodeId::new(5));
        assert!(adv.node_is_compromised(NodeId::new(5)));
        for other in 0..20u32 {
            if other != 5 {
                assert!(adv.can_read(NodeId::new(5), NodeId::new(other)));
            }
        }
        assert!(!adv.can_read(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn extreme_probabilities() {
        let adv0 = LinkAdversary::new(0.0, 3);
        let adv1 = LinkAdversary::new(1.0, 3);
        assert!(!adv0.can_read(NodeId::new(0), NodeId::new(1)));
        assert!(adv1.can_read(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        let _ = LinkAdversary::new(1.5, 0);
    }
}
