//! Cluster rosters and contributor masks.

use std::fmt;
use wsn_sim::NodeId;

/// Why a received `ClusterInfo` roster was rejected as malformed or
/// forged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RosterError {
    /// More than 64 members — contributor masks are 64-bit.
    Oversized,
    /// Members are not strictly sorted by node id.
    Unsorted,
    /// The announced head is not among the members.
    MissingHead,
}

impl fmt::Display for RosterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RosterError::Oversized => write!(f, "roster exceeds the 64-member mask width"),
            RosterError::Unsorted => write!(f, "roster members are not sorted-unique"),
            RosterError::MissingHead => write!(f, "roster does not contain its head"),
        }
    }
}

impl std::error::Error for RosterError {}

/// The fixed membership of one cluster, as broadcast by its head.
///
/// Members are sorted by node id; a member's roster *position* determines
/// its public evaluation seed (see [`crate::shares::seed_for`]). The
/// head is always a member of its own cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Roster {
    head: NodeId,
    members: Vec<NodeId>,
}

impl Roster {
    /// Builds a roster from the head and its joiners (the head is added
    /// automatically if absent), sorting and deduplicating.
    ///
    /// # Panics
    ///
    /// Panics if the resulting roster exceeds 64 members (contributor
    /// masks are 64-bit; [`crate::MAX_CLUSTER_SIZE`] keeps real rosters
    /// far below this).
    #[must_use]
    pub fn new(head: NodeId, joiners: &[NodeId]) -> Self {
        let mut members: Vec<NodeId> = joiners.to_vec();
        members.push(head);
        members.sort_unstable();
        members.dedup();
        assert!(members.len() <= 64, "roster exceeds contributor mask width");
        Roster { head, members }
    }

    /// Reconstructs a roster from a received `ClusterInfo`, rejecting
    /// malformed or forged rosters with a [`RosterError`].
    pub fn from_wire(head: NodeId, members: &[NodeId]) -> Result<Self, RosterError> {
        if members.len() > 64 {
            return Err(RosterError::Oversized);
        }
        if !members.windows(2).all(|w| matches!(w, [a, b] if a < b)) {
            return Err(RosterError::Unsorted);
        }
        if members.binary_search(&head).is_err() {
            return Err(RosterError::MissingHead);
        }
        Ok(Roster {
            head,
            members: members.to_vec(),
        })
    }

    /// The head (cluster id).
    #[must_use]
    pub fn head(&self) -> NodeId {
        self.head
    }

    /// Sorted members, head included.
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the roster is empty (never constructed in practice).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Roster position of a node, if a member.
    #[must_use]
    pub fn position(&self, node: NodeId) -> Option<usize> {
        self.members.binary_search(&node).ok()
    }

    /// Whether a node is a member.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.position(node).is_some()
    }

    /// The contributor bitmask with every roster position set.
    #[must_use]
    pub fn full_mask(&self) -> u64 {
        if self.members.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.members.len()) - 1
        }
    }

    /// The bitmask bit for a member.
    #[must_use]
    pub fn mask_bit(&self, node: NodeId) -> Option<u64> {
        self.position(node).map(|p| 1u64 << p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn construction_sorts_and_includes_head() {
        let r = Roster::new(n(5), &[n(9), n(2)]);
        assert_eq!(r.members(), &[n(2), n(5), n(9)]);
        assert_eq!(r.head(), n(5));
        assert_eq!(r.len(), 3);
        assert_eq!(r.position(n(5)), Some(1));
        assert!(r.contains(n(9)));
        assert!(!r.contains(n(7)));
    }

    #[test]
    fn duplicate_joiners_are_deduped() {
        let r = Roster::new(n(1), &[n(2), n(2), n(1)]);
        assert_eq!(r.members(), &[n(1), n(2)]);
    }

    #[test]
    fn masks() {
        let r = Roster::new(n(1), &[n(2), n(3)]);
        assert_eq!(r.full_mask(), 0b111);
        assert_eq!(r.mask_bit(n(1)), Some(0b001));
        assert_eq!(r.mask_bit(n(3)), Some(0b100));
        assert_eq!(r.mask_bit(n(9)), None);
    }

    #[test]
    fn wire_roundtrip_and_validation() {
        let r = Roster::new(n(4), &[n(1), n(7)]);
        let back = Roster::from_wire(r.head(), r.members()).unwrap();
        assert_eq!(back, r);
        // Unsorted rejected.
        assert_eq!(
            Roster::from_wire(n(1), &[n(2), n(1)]),
            Err(RosterError::Unsorted)
        );
        // Head missing rejected.
        assert_eq!(
            Roster::from_wire(n(9), &[n(1), n(2)]),
            Err(RosterError::MissingHead)
        );
        // Oversized rejected.
        let too_many: Vec<NodeId> = (0..65).map(n).collect();
        assert_eq!(
            Roster::from_wire(n(0), &too_many),
            Err(RosterError::Oversized)
        );
    }

    #[test]
    fn full_mask_at_64_members() {
        let members: Vec<NodeId> = (0..64).map(n).collect();
        let r = Roster::from_wire(n(0), &members).unwrap();
        assert_eq!(r.full_mask(), u64::MAX);
    }
}
