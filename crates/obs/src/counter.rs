//! The closed counter table: every counter the workspace bumps, as one
//! enum and one name array.
//!
//! [`crate::Obs`] keeps one `u64` slot per [`Counter`], so a bump is an
//! array index. The names are listed in byte order, which makes slot
//! order the export order of `metrics.jsonl`. What each counter counts is
//! listed once, in `docs/PROTOCOL.md` ("Counters").

/// Declares [`Counter`] and its name array from one `Variant = "name"`
/// list, so a variant and its exported name cannot drift apart.
macro_rules! counter_table {
    ($($variant:ident = $name:literal,)*) => {
        /// A counter of the closed table. The exported name is
        /// [`Counter::name`]; `docs/PROTOCOL.md` ("Counters") gives each
        /// one's meaning. Engine counters (`engine.*`) count only at
        /// `ObsLevel::Full`; the runner adds the `sim_lost_*` totals at
        /// the end of a run at that level; the protocol's `icpda_*`
        /// counters count at every level.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Counter {
            $($variant,)*
        }

        impl Counter {
            /// Number of counters in the table.
            pub const COUNT: usize = [$($name,)*].len();

            /// Every counter, in slot (and export) order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant,)*];

            const NAMES: [&'static str; Counter::COUNT] = [$($name,)*];
        }
    };
}

counter_table! {
    EngineChannelDuplicated = "engine.channel_duplicated",
    EngineChannelReordered = "engine.channel_reordered",
    EngineDeliveryBatches = "engine.delivery_batches",
    EngineDeliveryReceivers = "engine.delivery_receivers",
    EngineFaultEdges = "engine.fault_edges",
    EngineMacDefers = "engine.mac_defers",
    EngineMacDrops = "engine.mac_drops",
    EngineTimersCancelled = "engine.timers_cancelled",
    EngineTimersFired = "engine.timers_fired",
    EngineTimersSet = "engine.timers_set",
    EngineTimersStale = "engine.timers_stale",
    AdvDroppedUpstream = "icpda_adv_dropped_upstream",
    AdvGarbageShares = "icpda_adv_garbage_shares",
    AdvPolluted = "icpda_adv_polluted",
    AlarmRaised = "icpda_alarm_raised",
    AuditClean = "icpda_audit_clean",
    AuditPartial = "icpda_audit_partial",
    AuditUnknown = "icpda_audit_unknown",
    BadRoster = "icpda_bad_roster",
    BeaconSent = "icpda_beacon_sent",
    BsDedup = "icpda_bs_dedup",
    ClusterFailedEmpty = "icpda_cluster_failed_empty",
    ClusterFailedMaskMismatch = "icpda_cluster_failed_mask_mismatch",
    ClusterFailedMissingFsum = "icpda_cluster_failed_missing_fsum",
    ClusterFailedSolve = "icpda_cluster_failed_solve",
    ClusterSolved = "icpda_cluster_solved",
    ClusterTooSmall = "icpda_cluster_too_small",
    DirectReport = "icpda_direct_report",
    EchoConflict = "icpda_echo_conflict",
    FsumEchoUsed = "icpda_fsum_echo_used",
    FsumEchoed = "icpda_fsum_echoed",
    FsumResent = "icpda_fsum_resent",
    FsumsMissing = "icpda_fsums_missing",
    HeadDeadDetected = "icpda_head_dead_detected",
    HeadFailedMaskMismatch = "icpda_head_failed_mask_mismatch",
    HeadFailedMissingFsum = "icpda_head_failed_missing_fsum",
    HeadResigned = "icpda_head_resigned",
    HeadSolved = "icpda_head_solved",
    Heads = "icpda_heads",
    LateForwarded = "icpda_late_forwarded",
    NackForwarded = "icpda_nack_forwarded",
    OrphanJoinLost = "icpda_orphan_join_lost",
    OrphanNoHead = "icpda_orphan_no_head",
    ParentRerouted = "icpda_parent_rerouted",
    RawBad = "icpda_raw_bad",
    RawSent = "icpda_raw_sent",
    Rejoined = "icpda_rejoined",
    RelDuplicate = "icpda_rel_duplicate",
    RelExhausted = "icpda_rel_exhausted",
    RelRetransmit = "icpda_rel_retransmit",
    RelTimeout = "icpda_rel_timeout",
    RelayForwarded = "icpda_relay_forwarded",
    RerouteNoAlternate = "icpda_reroute_no_alternate",
    RoundAccepted = "icpda_round_accepted",
    RoundRejected = "icpda_round_rejected",
    ShareBad = "icpda_share_bad",
    ShareCacheReplayed = "icpda_share_cache_replayed",
    ShareRelayed = "icpda_share_relayed",
    ShareResent = "icpda_share_resent",
    ShareSent = "icpda_share_sent",
    SharesMissing = "icpda_shares_missing",
    SlanderSent = "icpda_slander_sent",
    SolvedDegraded = "icpda_solved_degraded",
    TakeoverReport = "icpda_takeover_report",
    UpstreamDuplicate = "icpda_upstream_duplicate",
    UpstreamLate = "icpda_upstream_late",
    UpstreamMalformed = "icpda_upstream_malformed",
    UpstreamSent = "icpda_upstream_sent",
    UpstreamSkipped = "icpda_upstream_skipped",
    UpstreamUnaudited = "icpda_upstream_unaudited",
    ViolationForgedInput = "icpda_violation_forged_input",
    ViolationInconsistent = "icpda_violation_inconsistent",
    SimLostCollision = "sim_lost_collision",
    SimLostCorrupt = "sim_lost_corrupt",
    SimLostHalfDuplex = "sim_lost_half_duplex",
    SimLostMacDrop = "sim_lost_mac_drop",
    SimLostReceiverDown = "sim_lost_receiver_down",
    SimLostStochastic = "sim_lost_stochastic",
}

impl Counter {
    /// The exported name, e.g. `icpda_share_sent`.
    #[must_use]
    pub fn name(self) -> &'static str {
        Counter::NAMES[self as usize]
    }

    /// The counter exported as `name`, if the table has one.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::NAMES
            .binary_search(&name)
            .ok()
            .map(|slot| Counter::ALL[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_strictly_sorted_in_byte_order() {
        for pair in Counter::NAMES.windows(2) {
            assert!(
                pair[0].as_bytes() < pair[1].as_bytes(),
                "`{}` must sort strictly before `{}`",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn slots_follow_the_declaration_order() {
        for (slot, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(*counter as usize, slot);
            assert_eq!(Counter::from_name(counter.name()), Some(*counter));
        }
        assert_eq!(Counter::from_name("icpda_no_such_counter"), None);
    }
}
