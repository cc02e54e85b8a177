//! Offline privacy evaluation: who could the eavesdropper expose?
//!
//! The privacy guarantee of the cluster scheme is algebraic: a member's
//! reading is recoverable only by an adversary that obtains *all* the
//! member's intra-cluster share traffic — i.e. can read every link
//! between the member and each other member of its cluster (by key
//! compromise, with probability `p_x` per link, or by having compromised
//! the counterpart outright — `m − 1` colluding members being the
//! worst case the paper defers to future work). Given the rosters that
//! actually formed during a run and a [`LinkAdversary`], this module
//! computes exactly that predicate per node, which is the Monte-Carlo
//! side of the paper's `P_disclose` figure.

use crate::cluster::Roster;
use std::collections::BTreeSet;
use wsn_crypto::key::RandomPredistribution;
use wsn_crypto::LinkAdversary;
use wsn_sim::NodeId;

/// Result of the disclosure analysis over one protocol run.
#[derive(Clone, Debug, Default)]
pub struct DisclosureReport {
    /// Honest nodes that transmitted shares (the privacy-relevant set).
    pub sharing_nodes: usize,
    /// Honest sharing nodes whose reading the adversary can reconstruct.
    pub disclosed: Vec<NodeId>,
}

impl DisclosureReport {
    /// The paper's `P_disclose`: the fraction of sharing nodes exposed.
    #[must_use]
    pub fn probability(&self) -> f64 {
        if self.sharing_nodes == 0 {
            0.0
        } else {
            self.disclosed.len() as f64 / self.sharing_nodes as f64
        }
    }
}

/// Evaluates which sharing nodes the adversary can expose.
///
/// `rosters` pairs each node that transmitted shares with its cluster
/// roster (see `IcpdaOutcome::rosters`). Nodes the adversary has fully
/// compromised are excluded — their data is known trivially, not via a
/// protocol weakness.
#[must_use]
pub fn evaluate_disclosure(
    rosters: &[(NodeId, Roster)],
    adversary: &LinkAdversary,
) -> DisclosureReport {
    disclosure(
        rosters,
        |node| adversary.node_is_compromised(node),
        |a, b| adversary.can_read(a, b),
    )
}

/// Evaluates disclosure under the Eschenauer–Gligor random-key-
/// predistribution scheme with a set of physically `captured` nodes.
///
/// A link `(i, j)` is readable by the adversary iff an endpoint is
/// captured, or the two endpoints' agreed pool key sits in some captured
/// node's ring. Endpoints that share no pool key are assumed to
/// establish a path key, secure unless an endpoint is captured (the
/// scheme's standard extension). A member is exposed iff *all* links to
/// its cluster peers are readable — the same algebraic rule as
/// [`evaluate_disclosure`], with the key graph in place of the i.i.d.
/// link coin.
#[must_use]
pub fn evaluate_disclosure_with_keys(
    rosters: &[(NodeId, Roster)],
    keys: &RandomPredistribution,
    captured: &BTreeSet<NodeId>,
) -> DisclosureReport {
    // Union of captured rings, for O(1) key lookups.
    let captured_keys: BTreeSet<u32> = captured
        .iter()
        .flat_map(|n| keys.ring(*n).iter().copied())
        .collect();
    disclosure(
        rosters,
        |node| captured.contains(&node),
        |a, b| {
            if captured.contains(&a) || captured.contains(&b) {
                return true;
            }
            match keys.shared_pool_key(a, b) {
                Some(k) => captured_keys.contains(&k),
                None => false, // path key: secure absent endpoint capture
            }
        },
    )
}

/// The exposure rule of both evaluations: every sharing node that is
/// not `captured` counts, and it is exposed iff every link to its
/// cluster peers is `link_readable`.
fn disclosure(
    rosters: &[(NodeId, Roster)],
    captured: impl Fn(NodeId) -> bool,
    link_readable: impl Fn(NodeId, NodeId) -> bool,
) -> DisclosureReport {
    let mut report = DisclosureReport::default();
    for (node, roster) in rosters {
        if captured(*node) {
            continue;
        }
        report.sharing_nodes += 1;
        let exposed = roster
            .members()
            .iter()
            .filter(|&&m| m != *node)
            .all(|&m| link_readable(*node, m));
        if exposed {
            report.disclosed.push(*node);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn roster3() -> Roster {
        Roster::new(n(1), &[n(2), n(3)])
    }

    #[test]
    fn no_adversary_no_disclosure() {
        let rosters = vec![(n(1), roster3()), (n(2), roster3()), (n(3), roster3())];
        let adv = LinkAdversary::new(0.0, 7);
        let rep = evaluate_disclosure(&rosters, &adv);
        assert_eq!(rep.sharing_nodes, 3);
        assert!(rep.disclosed.is_empty());
        assert_eq!(rep.probability(), 0.0);
    }

    #[test]
    fn omniscient_adversary_discloses_everyone() {
        let rosters = vec![(n(1), roster3()), (n(2), roster3())];
        let adv = LinkAdversary::new(1.0, 7);
        let rep = evaluate_disclosure(&rosters, &adv);
        assert_eq!(rep.disclosed.len(), 2);
        assert_eq!(rep.probability(), 1.0);
    }

    #[test]
    fn colluding_rest_of_cluster_discloses_the_victim() {
        let rosters = vec![(n(1), roster3())];
        let mut adv = LinkAdversary::new(0.0, 7);
        adv.compromise_node(n(2));
        adv.compromise_node(n(3));
        let rep = evaluate_disclosure(&rosters, &adv);
        assert_eq!(rep.disclosed, vec![n(1)]);
    }

    #[test]
    fn single_compromised_member_is_not_enough() {
        let rosters = vec![(n(1), roster3())];
        let mut adv = LinkAdversary::new(0.0, 7);
        adv.compromise_node(n(2));
        let rep = evaluate_disclosure(&rosters, &adv);
        assert!(
            rep.disclosed.is_empty(),
            "degree-2 blinding survives one leak"
        );
    }

    #[test]
    fn compromised_nodes_are_excluded_from_the_population() {
        let rosters = vec![(n(2), roster3()), (n(1), roster3())];
        let mut adv = LinkAdversary::new(0.0, 7);
        adv.compromise_node(n(2));
        let rep = evaluate_disclosure(&rosters, &adv);
        assert_eq!(rep.sharing_nodes, 1);
    }

    #[test]
    fn key_scheme_no_captures_no_disclosure() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let keys = RandomPredistribution::generate(10, 100, 20, &mut rng);
        let rosters = vec![(n(1), roster3())];
        let rep = evaluate_disclosure_with_keys(&rosters, &keys, &BTreeSet::new());
        assert!(rep.disclosed.is_empty());
        assert_eq!(rep.sharing_nodes, 1);
    }

    #[test]
    fn key_scheme_capturing_all_peers_discloses() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let keys = RandomPredistribution::generate(10, 100, 20, &mut rng);
        let rosters = vec![(n(1), roster3())];
        let captured: BTreeSet<NodeId> = [n(2), n(3)].into_iter().collect();
        let rep = evaluate_disclosure_with_keys(&rosters, &keys, &captured);
        assert_eq!(rep.disclosed, vec![n(1)]);
    }

    #[test]
    fn key_scheme_third_party_ring_overlap_can_disclose() {
        use rand::SeedableRng;
        // Tiny pool: every ring covers the whole pool, so ANY captured
        // node exposes every encrypted link.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let keys = RandomPredistribution::generate(10, 4, 4, &mut rng);
        let rosters = vec![(n(1), roster3())];
        let captured: BTreeSet<NodeId> = [n(9)].into_iter().collect();
        let rep = evaluate_disclosure_with_keys(&rosters, &keys, &captured);
        assert_eq!(rep.disclosed, vec![n(1)], "full-pool rings leak everything");
    }

    #[test]
    fn larger_clusters_are_harder_to_break() {
        // With p_x = 0.5 a 2-member roster leaks ~50% of nodes, a
        // 5-member roster ~6%.
        let small: Vec<(NodeId, Roster)> = (0..400)
            .map(|i| {
                let a = n(2 * i);
                let b = n(2 * i + 1);
                (a, Roster::new(a, &[b]))
            })
            .collect();
        let big: Vec<(NodeId, Roster)> = (0..400)
            .map(|i| {
                let base = 10_000 + 5 * i;
                let ids: Vec<NodeId> = (1..5).map(|k| n(base + k)).collect();
                (n(base), Roster::new(n(base), &ids))
            })
            .collect();
        let adv = LinkAdversary::new(0.5, 3);
        let p_small = evaluate_disclosure(&small, &adv).probability();
        let p_big = evaluate_disclosure(&big, &adv).probability();
        assert!((p_small - 0.5).abs() < 0.1, "p_small {p_small}");
        assert!(p_big < p_small / 3.0, "p_big {p_big}");
    }
}
