//! Adversary configurations.
//!
//! The paper's attack model has two faces: *eavesdropping* (handled
//! offline by [`crate::privacy`] with [`wsn_crypto::LinkAdversary`]) and
//! *data pollution* — a compromised aggregation node (cluster head or
//! relay) altering the partial aggregate it forwards. [`Pollution`]
//! configures the latter; it is installed on individual nodes as
//! [`crate::adversary::Behavior::PolluteAggregate`] in an
//! [`crate::adversary::AdversaryPlan`].
//!
//! Three pollution strategies are modelled, of increasing subtlety
//! against the audit-trail defence:
//!
//! * [`PollutionMode::AlterTotals`] — change the report's totals without
//!   touching the audit trail. Breaks totals-vs-inputs consistency, so
//!   *any* overhearing neighbour detects it.
//! * [`PollutionMode::AlterInput`] — change one input claim and the
//!   totals consistently. Detected by monitors that hold the forged
//!   input (cluster members for a cluster claim, overhearers for a relay
//!   claim).
//! * [`PollutionMode::PhantomInput`] — invent an input no monitor can
//!   refute. The audit trail's documented blind spot under the paper's
//!   non-colluding local attacker; measured, not hidden.

use crate::msg::{InputClaim, MergedRef};
use agg::field::Fp;
use wsn_sim::NodeId;

/// How the attacker embeds its pollution in the report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PollutionMode {
    /// Naive: alter the totals only (inconsistent audit trail).
    #[default]
    AlterTotals,
    /// Consistent: alter one input claim and the totals together.
    AlterInput,
    /// Stealthy: add a phantom input claim and raise the totals.
    PhantomInput,
}

/// A data-pollution behaviour installed on a compromised node, applied to
/// the node's own upstream transmission after honest aggregation — i.e.
/// the attacker *replaces* the correct partial result with a polluted
/// one, exactly the attack the integrity layer must detect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Pollution {
    /// Attack embedding strategy.
    pub mode: PollutionMode,
    /// Field value added (mod p) to component 0. Use
    /// `Fp::ZERO - Fp::new(x)` to deflate.
    pub component_delta: Fp,
    /// Signed change to the claimed participant count (saturating at 0).
    pub participants_delta: i32,
}

impl Pollution {
    /// A naive attacker that inflates the totals by `delta`.
    #[must_use]
    pub fn inflate(delta: u64) -> Self {
        Pollution {
            mode: PollutionMode::AlterTotals,
            component_delta: Fp::new(delta),
            participants_delta: 0,
        }
    }

    /// A naive attacker that deflates the totals by `delta` (mod p).
    #[must_use]
    pub fn deflate(delta: u64) -> Self {
        Pollution {
            mode: PollutionMode::AlterTotals,
            component_delta: Fp::ZERO - Fp::new(delta),
            participants_delta: 0,
        }
    }

    /// A consistent attacker that forges one of its input claims.
    #[must_use]
    pub fn forge_input(delta: u64) -> Self {
        Pollution {
            mode: PollutionMode::AlterInput,
            component_delta: Fp::new(delta),
            participants_delta: 0,
        }
    }

    /// A stealthy attacker that invents a phantom input.
    #[must_use]
    pub fn phantom(delta: u64, participants: i32) -> Self {
        Pollution {
            mode: PollutionMode::PhantomInput,
            component_delta: Fp::new(delta),
            participants_delta: participants,
        }
    }

    /// Applies the pollution to an outgoing report.
    ///
    /// Participant deltas saturate *consistently*: a deflation larger
    /// than the affected count is clamped once and the same effective
    /// delta is applied to every counter it touches, so a "consistent"
    /// forgery stays consistent on small clusters instead of silently
    /// underflowing into a self-incriminating mismatch (the outer count
    /// and the claim used to saturate independently).
    pub fn apply(&self, totals: &mut [Fp], participants: &mut u32, inputs: &mut Vec<InputClaim>) {
        match self.mode {
            PollutionMode::AlterTotals => {
                self.bump_totals(totals, participants, self.participants_delta);
            }
            PollutionMode::AlterInput => {
                let idx = inputs
                    .iter()
                    .position(|i| matches!(i.source, MergedRef::Cluster { .. }))
                    .or(if inputs.is_empty() { None } else { Some(0) });
                let Some(input) = idx.map(|i| &mut inputs[i]) else {
                    // With no audit trail (integrity off) this degenerates
                    // to AlterTotals, the only observable surface anyway.
                    self.bump_totals(totals, participants, self.participants_delta);
                    return;
                };
                // The forged claim's count floors at 0, and the outer
                // total is the claims' sum, so clamping to the claim's
                // headroom keeps both counters in lockstep. The max is
                // bounded by the i32 delta below and 0 above, so the
                // cast back is exact.
                let effective =
                    i64::from(self.participants_delta).max(-i64::from(input.participants)) as i32;
                if let Some(first) = input.totals.first_mut() {
                    *first = (Fp::new(*first) + self.component_delta).to_u64();
                }
                input.participants = input.participants.saturating_add_signed(effective);
                self.bump_totals(totals, participants, effective);
            }
            PollutionMode::PhantomInput => {
                // A phantom claim's count is unsigned: a negative delta
                // cannot be embedded consistently, so it clamps to 0 for
                // the claim *and* the outer count alike.
                let effective = self.participants_delta.max(0);
                self.bump_totals(totals, participants, effective);
                if !inputs.is_empty() {
                    inputs.push(InputClaim {
                        source: MergedRef::Relay {
                            // A sender id far outside any real deployment.
                            sender: NodeId::new(u32::MAX - 7),
                            msg_id: 0,
                        },
                        totals: {
                            let mut t = vec![0u64; totals.len()];
                            if let Some(first) = t.first_mut() {
                                *first = self.component_delta.to_u64();
                            }
                            t
                        },
                        participants: u32::try_from(effective).unwrap_or(0),
                    });
                }
            }
        }
    }

    fn bump_totals(&self, totals: &mut [Fp], participants: &mut u32, delta: i32) {
        if let Some(first) = totals.first_mut() {
            *first += self.component_delta;
        }
        *participants = participants.saturating_add_signed(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs_one_cluster() -> Vec<InputClaim> {
        vec![InputClaim {
            source: MergedRef::Cluster {
                head: NodeId::new(3),
            },
            totals: vec![50],
            participants: 3,
        }]
    }

    #[test]
    fn alter_totals_leaves_inputs_untouched() {
        let p = Pollution::inflate(100);
        let mut totals = vec![Fp::new(50)];
        let mut n = 3;
        let mut inputs = inputs_one_cluster();
        p.apply(&mut totals, &mut n, &mut inputs);
        assert_eq!(totals[0], Fp::new(150));
        assert_eq!(inputs[0].totals, vec![50], "audit trail now inconsistent");
    }

    #[test]
    fn alter_input_keeps_consistency() {
        let p = Pollution::forge_input(100);
        let mut totals = vec![Fp::new(50)];
        let mut n = 3;
        let mut inputs = inputs_one_cluster();
        p.apply(&mut totals, &mut n, &mut inputs);
        assert_eq!(totals[0], Fp::new(150));
        assert_eq!(inputs[0].totals, vec![150], "claim forged consistently");
    }

    #[test]
    fn phantom_adds_an_input() {
        let p = Pollution::phantom(500, 2);
        let mut totals = vec![Fp::new(50)];
        let mut n = 3;
        let mut inputs = inputs_one_cluster();
        p.apply(&mut totals, &mut n, &mut inputs);
        assert_eq!(inputs.len(), 2);
        assert_eq!(totals[0], Fp::new(550));
        assert_eq!(n, 5);
        assert_eq!(inputs[1].totals, vec![500]);
        assert_eq!(inputs[1].participants, 2);
    }

    #[test]
    fn deflate_wraps_in_field() {
        let p = Pollution::deflate(100);
        let mut totals = vec![Fp::new(250)];
        let mut n = 3;
        let mut inputs = Vec::new();
        p.apply(&mut totals, &mut n, &mut inputs);
        assert_eq!(totals[0], Fp::new(150));
    }

    #[test]
    fn participants_saturate_at_zero() {
        let p = Pollution {
            mode: PollutionMode::AlterTotals,
            component_delta: Fp::ZERO,
            participants_delta: -10,
        };
        let mut totals = vec![Fp::ZERO];
        let mut n = 3;
        p.apply(&mut totals, &mut n, &mut Vec::new());
        assert_eq!(n, 0);
    }

    #[test]
    fn alter_input_deflation_clamps_consistently_on_small_clusters() {
        // Regression: a deflation larger than the claim's count used to
        // saturate the outer count and the claim independently (outer
        // −10 → floor 0 at delta −3 effective, claim −3), silently
        // turning the "consistent" forgery into a detectable mismatch.
        let p = Pollution {
            mode: PollutionMode::AlterInput,
            component_delta: Fp::ZERO,
            participants_delta: -10,
        };
        let mut totals = vec![Fp::new(50)];
        let mut n = 3; // outer count == the single claim's count + 0
        let mut inputs = inputs_one_cluster();
        p.apply(&mut totals, &mut n, &mut inputs);
        // Both counters moved by the same effective delta (−3).
        assert_eq!(inputs[0].participants, 0);
        assert_eq!(n, 0);
        assert_eq!(
            u64::from(n),
            inputs.iter().map(|i| u64::from(i.participants)).sum(),
            "forgery must remain self-consistent"
        );
    }

    #[test]
    fn phantom_negative_delta_clamps_to_zero_for_both_counters() {
        // Regression: a negative delta used to shrink the outer count
        // while the phantom claim got 0 participants — an immediately
        // inconsistent report on any cluster.
        let p = Pollution::phantom(500, -4);
        let mut totals = vec![Fp::new(50)];
        let mut n = 3;
        let mut inputs = inputs_one_cluster();
        p.apply(&mut totals, &mut n, &mut inputs);
        assert_eq!(n, 3, "outer count untouched by the clamped delta");
        assert_eq!(inputs.len(), 2);
        assert_eq!(inputs[1].participants, 0);
        assert_eq!(totals[0], Fp::new(550));
    }
}
