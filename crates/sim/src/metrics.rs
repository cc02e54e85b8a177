//! Traffic, loss and energy accounting.
//!
//! The simulator maintains one [`NodeMetrics`] per node plus network-wide
//! totals in [`Metrics`]. These counters are exactly what the paper's
//! evaluation figures are built from: total bytes on the air
//! (communication-overhead figure), per-cause loss counts (accuracy
//! analysis), and a simple per-byte energy model (energy figure).

use crate::ids::NodeId;
use std::collections::BTreeMap;

/// Energy cost model: nanojoules charged per on-air byte transmitted or
/// received. Overhearing a frame costs receive energy too — the price of
/// the promiscuous monitoring the integrity layer relies on.
///
/// Default values approximate a CC1000-class mote radio
/// (~0.6 µJ/byte tx at 0 dBm, ~0.67 µJ/byte rx).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Nanojoules per transmitted on-air byte.
    pub tx_nj_per_byte: f64,
    /// Nanojoules per received (or overheard) on-air byte.
    pub rx_nj_per_byte: f64,
}

impl EnergyModel {
    /// Mote-class defaults (CC1000-like).
    #[must_use]
    pub const fn mote_default() -> Self {
        EnergyModel {
            tx_nj_per_byte: 600.0,
            rx_nj_per_byte: 670.0,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::mote_default()
    }
}

/// Why a reception failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LossCause {
    /// Two airtimes overlapped at the receiver.
    Collision,
    /// The stochastic loss model dropped the reception.
    Stochastic,
    /// The receiver was itself transmitting (half-duplex radio).
    HalfDuplex,
    /// The MAC gave up after its maximum number of carrier-sense attempts.
    MacDrop,
    /// The receiver was down (crashed or in an outage window) when the
    /// frame would have arrived.
    ReceiverDown,
    /// The frame arrived with flipped bits; the checksum mismatch was
    /// detected and the frame discarded (channel-plan corruption).
    Corrupt,
}

/// Per-node counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeMetrics {
    /// Frames this node put on the air.
    pub frames_sent: u64,
    /// On-air bytes this node transmitted (payload + frame overhead).
    pub bytes_sent: u64,
    /// Frames delivered to this node as addressed recipient.
    pub frames_received: u64,
    /// On-air bytes received as addressed recipient.
    pub bytes_received: u64,
    /// Frames overheard (delivered but addressed elsewhere).
    pub frames_overheard: u64,
    /// Receptions lost to collisions.
    pub lost_collision: u64,
    /// Receptions lost to the stochastic loss model.
    pub lost_stochastic: u64,
    /// Receptions missed because the node was transmitting.
    pub lost_half_duplex: u64,
    /// Receptions missed because the node was down (fault injection).
    pub lost_receiver_down: u64,
    /// Receptions discarded on a checksum mismatch (channel-plan
    /// corruption).
    pub lost_corrupt: u64,
    /// Frames dropped by this node's MAC after too many busy channels.
    pub mac_drops: u64,
    /// Energy spent transmitting, nanojoules.
    pub energy_tx_nj: f64,
    /// Energy spent receiving/overhearing, nanojoules.
    pub energy_rx_nj: f64,
}

impl NodeMetrics {
    /// Total energy in nanojoules.
    #[must_use]
    pub fn energy_total_nj(&self) -> f64 {
        self.energy_tx_nj + self.energy_rx_nj
    }

    /// The counter of receptions (or, for `MacDrop`, frames) lost to
    /// `cause`.
    pub(crate) fn lost_mut(&mut self, cause: LossCause) -> &mut u64 {
        match cause {
            LossCause::Collision => &mut self.lost_collision,
            LossCause::Stochastic => &mut self.lost_stochastic,
            LossCause::HalfDuplex => &mut self.lost_half_duplex,
            LossCause::MacDrop => &mut self.mac_drops,
            LossCause::ReceiverDown => &mut self.lost_receiver_down,
            LossCause::Corrupt => &mut self.lost_corrupt,
        }
    }
}

/// Network-wide counters plus per-node breakdowns and user-defined
/// protocol counters.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    per_node: Vec<NodeMetrics>,
    user: BTreeMap<&'static str, u64>,
    total_nodes: usize,
    down_now: usize,
    max_down: usize,
}

impl Metrics {
    /// Creates metrics for `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Metrics {
            per_node: vec![NodeMetrics::default(); n],
            user: BTreeMap::new(),
            total_nodes: n,
            down_now: 0,
            max_down: 0,
        }
    }

    /// Counters of one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &NodeMetrics {
        &self.per_node[id.index()]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut NodeMetrics {
        &mut self.per_node[id.index()]
    }

    /// Iterate over `(id, counters)` for every node.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeMetrics)> {
        self.per_node
            .iter()
            .enumerate()
            .map(|(i, m)| (NodeId::new(i as u32), m))
    }

    /// Total on-air bytes transmitted network-wide — the quantity of the
    /// paper's communication-overhead figure.
    #[must_use]
    pub fn total_bytes_sent(&self) -> u64 {
        self.per_node.iter().map(|m| m.bytes_sent).sum()
    }

    /// Total frames put on the air network-wide.
    #[must_use]
    pub fn total_frames_sent(&self) -> u64 {
        self.per_node.iter().map(|m| m.frames_sent).sum()
    }

    /// Total receptions lost, by cause.
    #[must_use]
    pub fn total_lost(&self, cause: LossCause) -> u64 {
        self.per_node
            .iter()
            .map(|m| match cause {
                LossCause::Collision => m.lost_collision,
                LossCause::Stochastic => m.lost_stochastic,
                LossCause::HalfDuplex => m.lost_half_duplex,
                LossCause::MacDrop => m.mac_drops,
                LossCause::ReceiverDown => m.lost_receiver_down,
                LossCause::Corrupt => m.lost_corrupt,
            })
            .sum()
    }

    /// Total energy spent network-wide, in millijoules.
    #[must_use]
    pub fn total_energy_mj(&self) -> f64 {
        self.per_node
            .iter()
            .map(NodeMetrics::energy_total_nj)
            .sum::<f64>()
            / 1e6
    }

    /// Nodes currently alive (not down under the fault plan).
    #[must_use]
    pub fn alive(&self) -> usize {
        self.total_nodes - self.down_now
    }

    /// The low-water mark of the alive count over the whole run.
    #[must_use]
    pub fn min_alive(&self) -> usize {
        self.total_nodes - self.max_down
    }

    pub(crate) fn note_down(&mut self) {
        self.down_now += 1;
        self.max_down = self.max_down.max(self.down_now);
    }

    pub(crate) fn note_up(&mut self) {
        self.down_now = self.down_now.saturating_sub(1);
    }

    /// Increments a named protocol-level counter (e.g. `"share_sent"`).
    pub fn bump(&mut self, counter: &'static str) {
        self.add(counter, 1);
    }

    /// Adds to a named protocol-level counter.
    pub fn add(&mut self, counter: &'static str, delta: u64) {
        *self.user.entry(counter).or_insert(0) += delta;
    }

    /// Reads a named protocol-level counter (0 if never written).
    #[must_use]
    pub fn user_counter(&self, counter: &str) -> u64 {
        self.user.get(counter).copied().unwrap_or(0)
    }

    /// All user counters, sorted by name.
    pub fn user_counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.user.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_nodes() {
        let mut m = Metrics::new(3);
        m.node_mut(NodeId::new(0)).bytes_sent = 10;
        m.node_mut(NodeId::new(2)).bytes_sent = 5;
        m.node_mut(NodeId::new(1)).frames_sent = 2;
        assert_eq!(m.total_bytes_sent(), 15);
        assert_eq!(m.total_frames_sent(), 2);
    }

    #[test]
    fn loss_totals_by_cause() {
        let mut m = Metrics::new(2);
        m.node_mut(NodeId::new(0)).lost_collision = 3;
        m.node_mut(NodeId::new(1)).lost_stochastic = 4;
        m.node_mut(NodeId::new(1)).lost_half_duplex = 5;
        m.node_mut(NodeId::new(0)).mac_drops = 6;
        m.node_mut(NodeId::new(1)).lost_receiver_down = 7;
        m.node_mut(NodeId::new(0)).lost_corrupt = 8;
        assert_eq!(m.total_lost(LossCause::Collision), 3);
        assert_eq!(m.total_lost(LossCause::Stochastic), 4);
        assert_eq!(m.total_lost(LossCause::HalfDuplex), 5);
        assert_eq!(m.total_lost(LossCause::MacDrop), 6);
        assert_eq!(m.total_lost(LossCause::ReceiverDown), 7);
        assert_eq!(m.total_lost(LossCause::Corrupt), 8);
    }

    #[test]
    fn alive_tracking_follows_down_up_edges() {
        let mut m = Metrics::new(5);
        assert_eq!(m.alive(), 5);
        assert_eq!(m.min_alive(), 5);
        m.note_down();
        m.note_down();
        assert_eq!(m.alive(), 3);
        m.note_up();
        assert_eq!(m.alive(), 4);
        // The low-water mark remembers the worst moment.
        assert_eq!(m.min_alive(), 3);
    }

    #[test]
    fn energy_accumulates() {
        let mut m = Metrics::new(1);
        m.node_mut(NodeId::new(0)).energy_tx_nj = 1e6;
        m.node_mut(NodeId::new(0)).energy_rx_nj = 2e6;
        assert!((m.total_energy_mj() - 3.0).abs() < 1e-12);
        assert!((m.node(NodeId::new(0)).energy_total_nj() - 3e6).abs() < 1e-9);
    }

    #[test]
    fn user_counters_accumulate_and_default_zero() {
        let mut m = Metrics::new(0);
        assert_eq!(m.user_counter("shares"), 0);
        m.bump("shares");
        m.add("shares", 4);
        assert_eq!(m.user_counter("shares"), 5);
        let all: Vec<_> = m.user_counters().collect();
        assert_eq!(all, vec![("shares", 5)]);
    }
}
