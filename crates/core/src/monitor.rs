//! Peer monitoring — the integrity layer's verification engine.
//!
//! Every upstream report carries an *audit trail*: one [`InputClaim`] per
//! merged input, stating the input's source and the totals the sender
//! claims it contributed (see [`crate::msg::IcpdaMsg::Upstream`]). This
//! makes verification local and compositional:
//!
//! * **Consistency** — the report's totals must equal the sum of its
//!   input claims. *Any* overhearing neighbour can check this without
//!   any prior knowledge.
//! * **Per-input audit** — a monitor that overheard a referenced relay
//!   transmission, or that computed the referenced cluster aggregate
//!   itself (transparent aggregation), compares the claim against its
//!   cached value. A mismatch on *any single input* convicts the sender.
//!
//! A polluting node must therefore either break consistency (caught by
//! everyone in range) or mis-state an input (caught by whoever holds that
//! input). The one blind spot — inventing a *phantom* input no monitor
//! can refute — is inherited from the paper's non-colluding, local
//! attack model and measured explicitly by the integrity experiments.

use crate::msg::{InputClaim, MergedRef};
use agg::field::{Fp, MODULUS};
use std::collections::BTreeMap;
use wsn_sim::NodeId;

/// The largest tolerance `Th` that can ever distinguish anything: the
/// centered difference `(c − e).to_i64_centered()` of two field elements
/// lies in `[−(p−1)/2, (p−1)/2]`, so any `Th` at or above `(p−1)/2`
/// accepts *every* report unconditionally. [`MonitorCache::check`] clamps
/// to this bound (see [`effective_tolerance`]) instead of silently
/// saturating at `i64::MAX`, and [`crate::config::IcpdaConfig::validate`]
/// rejects configurations beyond it outright.
pub const MAX_MEANINGFUL_THRESHOLD: u64 = (MODULUS - 1) / 2;

/// The signed tolerance actually compared against centered differences:
/// `threshold` clamped into `0..=MAX_MEANINGFUL_THRESHOLD`. The clamp is
/// behaviour-preserving — a larger tolerance cannot reject more — and
/// documented here rather than hidden in an `unwrap_or(i64::MAX)`.
#[must_use]
pub fn effective_tolerance(threshold: u64) -> i64 {
    // The bound is < 2^60, so the cast is exact.
    threshold.min(MAX_MEANINGFUL_THRESHOLD) as i64
}

/// One cached aggregate: componentwise totals plus participant count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedAggregate {
    /// Componentwise totals.
    pub totals: Vec<Fp>,
    /// Sensors included.
    pub participants: u32,
}

impl CachedAggregate {
    /// Canonical wire form of the totals.
    #[must_use]
    pub fn totals_u64(&self) -> Vec<u64> {
        self.totals.iter().map(|f| f.to_u64()).collect()
    }
}

/// Outcome of auditing one upstream report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Consistent, and every input claim was held and matched.
    Clean,
    /// Pollution detected.
    Violation(ViolationKind),
    /// Consistent; the input claims the monitor could resolve matched,
    /// but some could not be resolved.
    PartialClean,
    /// Nothing to verify (no audit trail, e.g. integrity off).
    Unknown,
}

/// What kind of inconsistency convicted the sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// The report's totals do not equal the sum of its input claims.
    InconsistentSum,
    /// An input claim disagrees with the monitor's cached value.
    ForgedInput,
}

/// What one node has overheard and computed, for auditing purposes.
#[derive(Clone, Debug, Default)]
pub struct MonitorCache {
    upstream: BTreeMap<(NodeId, u32), CachedAggregate>,
    clusters: BTreeMap<NodeId, CachedAggregate>,
}

impl MonitorCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        MonitorCache::default()
    }

    /// Records an overheard (or received) upstream report.
    pub fn record_upstream(&mut self, sender: NodeId, msg_id: u32, agg: CachedAggregate) {
        self.upstream.insert((sender, msg_id), agg);
    }

    /// Records a cluster aggregate this node computed itself (it is a
    /// member of the cluster headed by `head`).
    pub fn record_cluster(&mut self, head: NodeId, agg: CachedAggregate) {
        self.clusters.insert(head, agg);
    }

    fn resolve(&self, r: &MergedRef) -> Option<&CachedAggregate> {
        match r {
            MergedRef::Relay { sender, msg_id } => self.upstream.get(&(*sender, *msg_id)),
            MergedRef::Cluster { head } => self.clusters.get(head),
        }
    }

    /// Audits a report claiming `totals`/`participants` as the merge of
    /// `inputs`, with tolerance `threshold` on each component's centered
    /// difference.
    #[must_use]
    pub fn check(
        &self,
        totals: &[Fp],
        participants: u32,
        inputs: &[InputClaim],
        threshold: u64,
    ) -> CheckOutcome {
        if inputs.is_empty() {
            return CheckOutcome::Unknown;
        }
        let th = effective_tolerance(threshold);
        // 1. Public consistency: totals == Σ claimed inputs.
        let mut claimed_sum = vec![Fp::ZERO; totals.len()];
        let mut claimed_participants: u64 = 0;
        for input in inputs {
            if input.totals.len() != totals.len() {
                return CheckOutcome::Violation(ViolationKind::InconsistentSum);
            }
            for (s, &t) in claimed_sum.iter_mut().zip(&input.totals) {
                *s += Fp::new(t);
            }
            claimed_participants += u64::from(input.participants);
        }
        let consistent = totals
            .iter()
            .zip(&claimed_sum)
            .all(|(&c, &e)| (c - e).to_i64_centered().abs() <= th)
            && u64::from(participants) == claimed_participants;
        if !consistent {
            return CheckOutcome::Violation(ViolationKind::InconsistentSum);
        }
        // 2. Per-input audit against cached knowledge.
        let mut resolved = 0usize;
        for input in inputs {
            let Some(cached) = self.resolve(&input.source) else {
                continue;
            };
            resolved += 1;
            let matches = cached.totals.len() == input.totals.len()
                && cached
                    .totals
                    .iter()
                    .zip(&input.totals)
                    .all(|(&c, &t)| (Fp::new(t) - c).to_i64_centered().abs() <= th)
                && cached.participants == input.participants;
            if !matches {
                return CheckOutcome::Violation(ViolationKind::ForgedInput);
            }
        }
        if resolved == inputs.len() {
            CheckOutcome::Clean
        } else {
            CheckOutcome::PartialClean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn agg(v: u64, p: u32) -> CachedAggregate {
        CachedAggregate {
            totals: vec![Fp::new(v)],
            participants: p,
        }
    }

    fn claim(source: MergedRef, v: u64, p: u32) -> InputClaim {
        InputClaim {
            source,
            totals: vec![v],
            participants: p,
        }
    }

    fn relay_ref(id: u32) -> MergedRef {
        MergedRef::Relay {
            sender: n(id),
            msg_id: 0,
        }
    }

    fn cache_with_two_inputs() -> (MonitorCache, Vec<InputClaim>) {
        let mut c = MonitorCache::new();
        c.record_upstream(n(1), 0, agg(10, 2));
        c.record_cluster(n(5), agg(30, 3));
        let inputs = vec![
            claim(relay_ref(1), 10, 2),
            claim(MergedRef::Cluster { head: n(5) }, 30, 3),
        ];
        (c, inputs)
    }

    #[test]
    fn honest_report_is_clean() {
        let (c, inputs) = cache_with_two_inputs();
        assert_eq!(c.check(&[Fp::new(40)], 5, &inputs, 0), CheckOutcome::Clean);
    }

    #[test]
    fn totals_not_matching_inputs_is_inconsistent() {
        let (c, inputs) = cache_with_two_inputs();
        assert_eq!(
            c.check(&[Fp::new(41)], 5, &inputs, 0),
            CheckOutcome::Violation(ViolationKind::InconsistentSum)
        );
        // Even a monitor with an EMPTY cache catches this.
        let empty = MonitorCache::new();
        assert_eq!(
            empty.check(&[Fp::new(41)], 5, &inputs, 0),
            CheckOutcome::Violation(ViolationKind::InconsistentSum)
        );
    }

    #[test]
    fn forged_input_detected_by_holder() {
        let (c, mut inputs) = cache_with_two_inputs();
        // Attacker inflates the cluster part and keeps the sum consistent.
        inputs[1].totals = vec![130];
        assert_eq!(
            c.check(&[Fp::new(140)], 5, &inputs, 0),
            CheckOutcome::Violation(ViolationKind::ForgedInput)
        );
    }

    #[test]
    fn forged_input_unnoticed_by_blind_monitor_if_consistent() {
        let mut c = MonitorCache::new();
        // Monitor only holds the relay input, which is honest.
        c.record_upstream(n(1), 0, agg(10, 2));
        let inputs = vec![
            claim(relay_ref(1), 10, 2),
            claim(MergedRef::Cluster { head: n(5) }, 130, 3), // forged, unheld
        ];
        assert_eq!(
            c.check(&[Fp::new(140)], 5, &inputs, 0),
            CheckOutcome::PartialClean
        );
    }

    #[test]
    fn participant_forgery_detected() {
        let (c, inputs) = cache_with_two_inputs();
        assert_eq!(
            c.check(&[Fp::new(40)], 6, &inputs, 0),
            CheckOutcome::Violation(ViolationKind::InconsistentSum)
        );
        // Forged participants inside an input, consistent outer sum:
        let mut forged = inputs;
        forged[0].participants = 3;
        assert_eq!(
            c.check(&[Fp::new(40)], 6, &forged, 0),
            CheckOutcome::Violation(ViolationKind::ForgedInput)
        );
    }

    #[test]
    fn threshold_absorbs_small_deviation() {
        let (c, mut inputs) = cache_with_two_inputs();
        inputs[1].totals = vec![31];
        assert_eq!(c.check(&[Fp::new(41)], 5, &inputs, 2), CheckOutcome::Clean);
        inputs[1].totals = vec![35];
        assert_eq!(
            c.check(&[Fp::new(45)], 5, &inputs, 2),
            CheckOutcome::Violation(ViolationKind::ForgedInput)
        );
    }

    #[test]
    fn unknown_without_audit_trail() {
        let c = MonitorCache::new();
        assert_eq!(c.check(&[Fp::new(1)], 1, &[], 0), CheckOutcome::Unknown);
    }

    #[test]
    fn field_wraparound_deflation_is_caught() {
        let (c, mut inputs) = cache_with_two_inputs();
        let deflated = (Fp::new(30) - Fp::new(100)).to_u64();
        inputs[1].totals = vec![deflated];
        let total = Fp::new(10) + Fp::new(deflated);
        assert_eq!(
            c.check(&[total], 5, &inputs, 0),
            CheckOutcome::Violation(ViolationKind::ForgedInput)
        );
    }

    #[test]
    fn arity_mismatch_is_violation() {
        let (c, inputs) = cache_with_two_inputs();
        assert!(matches!(
            c.check(&[Fp::new(40), Fp::new(0)], 5, &inputs, 0),
            CheckOutcome::Violation(_)
        ));
    }

    #[test]
    fn tolerance_clamps_at_the_half_field_boundary() {
        // Boundary regression for the former silent `unwrap_or(i64::MAX)`
        // saturation: the clamp must keep the comparison meaningful right
        // up to (p−1)/2 and be exactly the identity below it.
        assert_eq!(effective_tolerance(0), 0);
        assert_eq!(effective_tolerance(17), 17);
        assert_eq!(
            effective_tolerance(MAX_MEANINGFUL_THRESHOLD),
            MAX_MEANINGFUL_THRESHOLD as i64
        );
        assert_eq!(
            effective_tolerance(MAX_MEANINGFUL_THRESHOLD + 1),
            MAX_MEANINGFUL_THRESHOLD as i64
        );
        assert_eq!(
            effective_tolerance(u64::MAX),
            MAX_MEANINGFUL_THRESHOLD as i64
        );
        // At the clamp, every centered difference is accepted — the
        // documented "tolerance off" extreme, not an i64 overflow hazard.
        let (c, inputs) = cache_with_two_inputs();
        assert_eq!(
            c.check(&[Fp::new(9_999_999)], 5, &inputs, u64::MAX),
            CheckOutcome::Clean
        );
        // One past a tight tolerance still rejects (the clamp only
        // engages at the half-field bound).
        assert_eq!(
            c.check(&[Fp::new(43)], 5, &inputs, 2),
            CheckOutcome::Violation(ViolationKind::InconsistentSum)
        );
    }

    #[test]
    fn phantom_input_passes_blind_monitors() {
        // The documented blind spot: a consistent report whose extra
        // input nobody holds.
        let mut c = MonitorCache::new();
        c.record_upstream(n(1), 0, agg(10, 2));
        let inputs = vec![
            claim(relay_ref(1), 10, 2),
            claim(relay_ref(99), 1000, 1), // phantom
        ];
        assert_eq!(
            c.check(&[Fp::new(1010)], 3, &inputs, 0),
            CheckOutcome::PartialClean
        );
    }
}
