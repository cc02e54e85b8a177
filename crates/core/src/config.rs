//! Protocol configuration.

use agg::AggFunction;
use wsn_sim::SimDuration;

/// How nodes elect themselves cluster head upon hearing the query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HeadElection {
    /// Every node becomes a head independently with this probability —
    /// the paper's baseline cluster-formation rule (expected cluster
    /// size ≈ 1/p).
    Fixed(f64),
    /// Density-adaptive election: a node that heard `h` query
    /// transmissions elects itself with probability `min(1, k/h)`, so
    /// sparse neighbourhoods produce more heads (better coverage) and
    /// dense ones fewer (less overhead) — the paper family's `k`
    /// adaptation.
    Adaptive {
        /// Target number of heads per neighbourhood.
        k: f64,
    },
}

impl HeadElection {
    /// The election probability for a node that heard the query from
    /// `heard` distinct transmissions.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on a non-probability `Fixed` value.
    #[must_use]
    pub fn probability(self, heard: usize) -> f64 {
        match self {
            HeadElection::Fixed(p) => {
                debug_assert!((0.0..=1.0).contains(&p));
                p
            }
            HeadElection::Adaptive { k } => {
                if heard == 0 {
                    1.0
                } else {
                    (k / heard as f64).min(1.0)
                }
            }
        }
    }
}

/// Whether the privacy layer (blinded share exchange + transparent
/// assembly) is active. `Off` degrades to plain clustered aggregation:
/// members send their raw (link-encrypted) readings straight to the
/// head. Cheaper — and it silently removes the members' ability to
/// verify the head's cluster claim, which is the synergy the paper
/// argues for (ablation A17 measures it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PrivacyMode {
    /// Blinded share exchange (the paper's scheme).
    #[default]
    On,
    /// Raw readings to the head (plain clustering baseline).
    Off,
}

/// Whether the integrity layer (transparent aggregation + peer
/// monitoring + alarms) is active. `Off` yields the plain cluster-based
/// private aggregation scheme (the CPDA ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IntegrityMode {
    /// Monitoring on: upstream reports carry merge references, members
    /// and neighbours verify overheard reports, alarms are routed to the
    /// base station.
    #[default]
    On,
    /// Monitoring off (privacy only) — the CPDA baseline/ablation.
    Off,
}

/// Phase schedule: all windows are measured from the moment the relevant
/// trigger is observed at each node (the query flood reaches nodes at
/// slightly different times; windows are sized to absorb that skew).
#[derive(Clone, Copy, Debug)]
pub struct PhaseSchedule {
    /// From first query receipt to head self-election.
    pub elect_after: SimDuration,
    /// From election to join transmission (non-heads pick a head).
    pub join_after: SimDuration,
    /// From election to the resign decision at under-sized heads.
    pub resign_after: SimDuration,
    /// From a resign notice to the re-join transmission.
    pub rejoin_after: SimDuration,
    /// From election to roster (`ClusterInfo`) broadcast at heads.
    pub roster_after: SimDuration,
    /// From roster receipt to share transmissions.
    pub shares_after: SimDuration,
    /// From roster receipt to the missing-share repair round.
    pub repair_after: SimDuration,
    /// From roster receipt to the blinded-sum (`FSum`) broadcast.
    pub fsum_after: SimDuration,
    /// From roster receipt to the `FSum` repair round (missing-assembly
    /// NACKs and rebroadcasts).
    pub fsum_repair_after: SimDuration,
    /// Upper bound of the random jitter applied to repair NACKs and
    /// rebroadcasts, de-synchronising simultaneous repair traffic inside
    /// a cluster (PR 1's fix for synchronized NACK collisions).
    pub nack_jitter: SimDuration,
    /// From roster receipt to the cluster solve (head and members).
    pub solve_after: SimDuration,
    /// Upper bound of the per-cluster random stagger the head applies to
    /// the whole share exchange, de-synchronising concurrent clusters.
    pub cluster_stagger: SimDuration,
    /// Global start of the upstream (inter-cluster) epoch, measured from
    /// each node's first query receipt.
    pub upstream_start: SimDuration,
    /// Length of the upstream epoch (divided into per-depth slots).
    pub upstream_epoch: SimDuration,
    /// Deepest flood level the upstream schedule accounts for.
    pub max_depth: u16,
    /// Slack after the upstream epoch before the base station decides.
    pub decision_slack: SimDuration,
    /// Base delay before a head's blind roster repeat (the deterministic
    /// part of retry 0; grows per [`crate::ReliabilityConfig`]).
    pub roster_repeat_after: SimDuration,
    /// Upper bound of the uniform jitter added to each roster repeat.
    pub roster_repeat_jitter: SimDuration,
    /// Base delay before an upstream report's blind repeat.
    pub upstream_repeat_after: SimDuration,
    /// Upper bound of the uniform jitter added to each upstream repeat.
    pub upstream_repeat_jitter: SimDuration,
    /// Offset of the second share-repair NACK round after the first.
    pub repair2_offset: SimDuration,
    /// Upper bound of the random jitter applied to query/round flood
    /// relays (the broadcast-storm de-synchroniser).
    pub flood_relay_jitter: SimDuration,
    /// Slack added to two upstream slots when arming the crash-recovery
    /// parent-liveness deadline.
    pub parent_check_slack: SimDuration,
}

impl PhaseSchedule {
    /// Defaults sized for the paper's deployments (≤ 600 nodes,
    /// ≤ ~15 hops): cluster phases finish within ~4 s, upstream epoch
    /// 10 s.
    #[must_use]
    pub fn paper_default() -> Self {
        PhaseSchedule {
            elect_after: SimDuration::from_millis(500),
            join_after: SimDuration::from_millis(400),
            resign_after: SimDuration::from_millis(1100),
            rejoin_after: SimDuration::from_millis(150),
            roster_after: SimDuration::from_millis(2000),
            shares_after: SimDuration::from_millis(200),
            repair_after: SimDuration::from_millis(1600),
            fsum_after: SimDuration::from_millis(2200),
            fsum_repair_after: SimDuration::from_millis(3000),
            nack_jitter: SimDuration::from_millis(150),
            solve_after: SimDuration::from_millis(3800),
            cluster_stagger: SimDuration::from_millis(3000),
            upstream_start: SimDuration::from_millis(12000),
            upstream_epoch: SimDuration::from_secs(10),
            max_depth: 20,
            decision_slack: SimDuration::from_secs(2),
            roster_repeat_after: SimDuration::from_millis(200),
            roster_repeat_jitter: SimDuration::from_millis(200),
            upstream_repeat_after: SimDuration::from_millis(150),
            upstream_repeat_jitter: SimDuration::from_millis(100),
            repair2_offset: SimDuration::from_millis(300),
            flood_relay_jitter: SimDuration::from_millis(100),
            parent_check_slack: SimDuration::from_millis(300),
        }
    }

    /// Duration of one upstream per-depth slot.
    #[must_use]
    pub fn upstream_slot(&self) -> SimDuration {
        self.upstream_epoch / u64::from(self.max_depth)
    }

    /// When a node at flood `level` transmits upstream (deeper first),
    /// measured from its first query receipt.
    #[must_use]
    pub fn upstream_time(&self, level: u16) -> SimDuration {
        let depth_from_bottom = self.max_depth.saturating_sub(level.min(self.max_depth));
        self.upstream_start + self.upstream_slot() * u64::from(depth_from_bottom)
    }

    /// When the base station finalises its verdict (from time zero).
    #[must_use]
    pub fn decision_time(&self) -> SimDuration {
        self.upstream_start + self.upstream_epoch + self.upstream_slot() + self.decision_slack
    }
}

/// Full iCPDA configuration.
#[derive(Clone, Copy, Debug)]
pub struct IcpdaConfig {
    /// The statistic to compute.
    pub function: AggFunction,
    /// Cluster-head election rule.
    pub election: HeadElection,
    /// Minimum cluster size for the privacy layer to run. Clusters
    /// smaller than this do not participate (their readings are lost),
    /// mirroring the paper's treatment of under-connected nodes.
    pub min_cluster_size: usize,
    /// Maximum roster size (bounded so contributor sets fit a 64-bit
    /// mask; joins beyond this are rejected).
    pub max_cluster_size: usize,
    /// Privacy layer switch (ablation).
    pub privacy: PrivacyMode,
    /// Integrity layer switch.
    pub integrity: IntegrityMode,
    /// Tolerance on monitor checks (field-centered absolute difference).
    /// The paper's `Th`: absorbs benign inconsistency, trades off with
    /// the smallest detectable pollution.
    pub threshold: u64,
    /// Number of aggregation rounds per session: round 0 includes
    /// cluster formation; later rounds reuse the formed clusters and
    /// repeat only the share exchange and upstream aggregation.
    pub rounds: u16,
    /// Phase timing.
    pub schedule: PhaseSchedule,
    /// Retry budgets for the blind-retransmission (ARQ) layer; see
    /// [`crate::reliability`].
    pub reliability: crate::reliability::ReliabilityConfig,
    /// Master secret for pairwise link keys.
    pub key_master: u64,
    /// Crash-recovery switch: when on, members watch their head's
    /// liveness (beacon + roster/FSum deadlines) and fall back to
    /// re-joining or orphan direct-report, heads solve with survivors'
    /// shares via threshold interpolation, and upstream senders reroute
    /// around silent parents. Off by default so fault-free runs are
    /// byte-identical to the pre-recovery protocol.
    pub crash_recovery: bool,
}

impl IcpdaConfig {
    /// The paper's recommended configuration: fixed `p_c = 0.25`
    /// (expected cluster size ≈ 4), minimum cluster size 3 (the smallest
    /// size with non-trivial collusion resistance), integrity on,
    /// `Th = 0`.
    #[must_use]
    pub fn paper_default(function: AggFunction) -> Self {
        IcpdaConfig {
            function,
            election: HeadElection::Fixed(0.25),
            min_cluster_size: 3,
            max_cluster_size: 16,
            privacy: PrivacyMode::On,
            integrity: IntegrityMode::On,
            threshold: 0,
            rounds: 1,
            schedule: PhaseSchedule::paper_default(),
            reliability: crate::reliability::ReliabilityConfig::paper_default(),
            key_master: 0x1C9D_A5EC_u64,
            crash_recovery: false,
        }
    }

    /// Validates invariants between fields.
    ///
    /// # Panics
    ///
    /// Panics if sizes are inconsistent (min > max, max > 64, min < 2),
    /// the election probability is out of range, or the monitoring
    /// tolerance exceeds the meaningful half-field bound (beyond which
    /// every check trivially passes — see
    /// [`crate::monitor::MAX_MEANINGFUL_THRESHOLD`]).
    pub fn validate(&self) {
        assert!(self.rounds >= 1, "a session needs at least one round");
        assert!(
            self.min_cluster_size >= 2,
            "privacy needs at least 2 members"
        );
        assert!(self.min_cluster_size <= self.max_cluster_size);
        assert!(self.max_cluster_size <= 64, "contributor masks are 64-bit");
        if let HeadElection::Fixed(p) = self.election {
            assert!((0.0..=1.0).contains(&p), "p_c must be a probability");
        }
        assert!(
            self.threshold <= crate::monitor::MAX_MEANINGFUL_THRESHOLD,
            "threshold beyond (p-1)/2 disables monitoring entirely"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_probability_ignores_density() {
        let e = HeadElection::Fixed(0.3);
        assert_eq!(e.probability(1), 0.3);
        assert_eq!(e.probability(50), 0.3);
    }

    #[test]
    fn adaptive_probability_scales_inverse_density() {
        let e = HeadElection::Adaptive { k: 4.0 };
        assert_eq!(e.probability(0), 1.0);
        assert_eq!(e.probability(2), 1.0);
        assert_eq!(e.probability(8), 0.5);
        assert_eq!(e.probability(40), 0.1);
    }

    #[test]
    fn upstream_schedule_is_deeper_first() {
        let s = PhaseSchedule::paper_default();
        assert!(s.upstream_time(9) < s.upstream_time(2));
        assert!(s.decision_time() > s.upstream_time(0));
        assert_eq!(s.upstream_time(20), s.upstream_time(25));
    }

    #[test]
    fn paper_default_validates() {
        IcpdaConfig::paper_default(AggFunction::Sum).validate();
    }

    #[test]
    #[should_panic(expected = "privacy needs at least 2")]
    fn tiny_min_cluster_rejected() {
        let mut c = IcpdaConfig::paper_default(AggFunction::Sum);
        c.min_cluster_size = 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let mut c = IcpdaConfig::paper_default(AggFunction::Sum);
        c.rounds = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "64-bit")]
    fn oversized_cluster_rejected() {
        let mut c = IcpdaConfig::paper_default(AggFunction::Sum);
        c.max_cluster_size = 65;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "disables monitoring")]
    fn absurd_threshold_rejected() {
        let mut c = IcpdaConfig::paper_default(AggFunction::Sum);
        c.threshold = crate::monitor::MAX_MEANINGFUL_THRESHOLD + 1;
        c.validate();
    }

    #[test]
    fn boundary_threshold_accepted() {
        let mut c = IcpdaConfig::paper_default(AggFunction::Sum);
        c.threshold = crate::monitor::MAX_MEANINGFUL_THRESHOLD;
        c.validate();
    }
}
