//! Deterministic channel-impairment plans.
//!
//! A [`ChannelPlan`] describes link-layer misbehaviour beyond the MAC's
//! collisions and the [`LossModel`](crate::radio::LossModel)'s
//! independent drops:
//!
//! * **Bursty loss** — a per-receiver two-state Gilbert–Elliott chain:
//!   receptions in the *bad* state are lost with a (typically much)
//!   higher probability than in the *good* state, so losses arrive in
//!   bursts instead of independently.
//! * **Frame corruption** — a reception survives the air but arrives
//!   with flipped bits; the link layer detects the damage through the
//!   frame checksum ([`frame_checksum`]) and discards the frame,
//!   surfaced as [`LossCause::Corrupt`](crate::metrics::LossCause).
//! * **Duplication** — a reception is delivered twice (the second copy
//!   immediately after the first), as produced by real link-layer ARQ
//!   when an ACK is lost.
//! * **Bounded reordering** — a reception is held back and delivered
//!   after a bounded extra delay, letting later frames overtake it.
//! * **Per-link degradation windows** — a directed link drops
//!   receptions with a fixed probability inside a time window; a window
//!   with loss 1.0 is a partition.
//!
//! Like [`FaultPlan`](crate::fault::FaultPlan), a plan is built up front
//! and is completely deterministic: all sampling happens on the engine's
//! dedicated channel RNG stream, and an **empty plan draws nothing and
//! schedules nothing**, keeping impairment-free runs byte-identical to
//! builds without this module.

use crate::ids::NodeId;
use crate::time::{SimDuration, SimTime};
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// A rejected channel-plan parameter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChannelPlanError {
    /// A probability outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Which parameter was rejected.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A bursty-loss rate of 1.0 or more (the Gilbert–Elliott chain
    /// could never leave the bad state).
    RateTooHigh(f64),
    /// A link-degradation window whose end does not lie after its start.
    EmptyWindow {
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// A reordering probability with a zero hold-back window.
    ZeroReorderWindow,
}

impl fmt::Display for ChannelPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelPlanError::ProbabilityOutOfRange { what, value } => {
                write!(f, "{what} probability {value} is outside [0, 1]")
            }
            ChannelPlanError::RateTooHigh(rate) => {
                write!(f, "bursty loss rate {rate} must be below 1")
            }
            ChannelPlanError::EmptyWindow { from, until } => write!(
                f,
                "link window [{}, {}) is empty",
                from.as_nanos(),
                until.as_nanos()
            ),
            ChannelPlanError::ZeroReorderWindow => {
                write!(f, "reordering needs a non-zero hold-back window")
            }
        }
    }
}

impl std::error::Error for ChannelPlanError {}

fn probability(what: &'static str, value: f64) -> Result<f64, ChannelPlanError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(ChannelPlanError::ProbabilityOutOfRange { what, value })
    }
}

/// Parameters of a two-state Gilbert–Elliott loss chain. State
/// transitions are sampled once per reception at the receiver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Probability of moving good → bad at a reception.
    pub p_gb: f64,
    /// Probability of moving bad → good at a reception.
    pub p_bg: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Long-run fraction of receptions spent in the bad state.
    #[must_use]
    pub fn steady_state_bad(&self) -> f64 {
        if self.p_gb + self.p_bg == 0.0 {
            0.0
        } else {
            self.p_gb / (self.p_gb + self.p_bg)
        }
    }

    /// Long-run average loss rate of the chain.
    #[must_use]
    pub fn mean_loss(&self) -> f64 {
        let bad = self.steady_state_bad();
        bad * self.loss_bad + (1.0 - bad) * self.loss_good
    }
}

/// One directed-link degradation window: receptions on the link are
/// dropped with probability `loss` while `from <= now < until`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Drop probability inside the window (1.0 = partition).
    pub loss: f64,
}

/// A deterministic plan of channel impairments for one run. See the
/// [module docs](self) for the model; build plans with the validating
/// combinators, then install with
/// [`Simulator::set_channel_plan`](crate::sim::Simulator::set_channel_plan).
///
/// # Examples
///
/// 20 % bursty loss plus occasional corruption:
///
/// ```
/// use wsn_sim::channel::ChannelPlan;
///
/// let plan = ChannelPlan::bursty(0.2, 0.6)
///     .unwrap()
///     .with_corruption(0.01)
///     .unwrap();
/// assert!(!plan.is_empty());
/// assert!((plan.gilbert_elliott().unwrap().mean_loss() - 0.2).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChannelPlan {
    ge: Option<GilbertElliott>,
    corrupt: f64,
    duplicate: f64,
    reorder: f64,
    reorder_window: SimDuration,
    links: BTreeMap<(NodeId, NodeId), Vec<LinkWindow>>,
}

impl ChannelPlan {
    /// The empty plan: no impairments, no RNG draws, byte-identical runs.
    #[must_use]
    pub fn none() -> Self {
        ChannelPlan::default()
    }

    /// Whether the plan holds no impairment at all. The engine skips
    /// every channel hook (and every RNG draw) for an empty plan.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ge.is_none()
            && self.corrupt == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.links.is_empty()
    }

    /// A Gilbert–Elliott bursty-loss plan with long-run loss `rate` and
    /// burst intensity `burstiness` in `[0, 1]`. The bad state always
    /// loses and the good state never does; `burstiness` stretches the
    /// expected bad-state dwell to `1 / (1 - burstiness)` receptions, so
    /// 0 degenerates to i.i.d. loss at `rate` and values near 1 produce
    /// long outage bursts at the same average rate.
    ///
    /// # Errors
    ///
    /// [`ChannelPlanError::RateTooHigh`] if `rate >= 1`;
    /// [`ChannelPlanError::ProbabilityOutOfRange`] if either parameter
    /// leaves `[0, 1]`.
    pub fn bursty(rate: f64, burstiness: f64) -> Result<Self, ChannelPlanError> {
        let rate = probability("bursty loss rate", rate)?;
        let burstiness = probability("burstiness", burstiness)?;
        if rate >= 1.0 {
            return Err(ChannelPlanError::RateTooHigh(rate));
        }
        if rate == 0.0 {
            return Ok(ChannelPlan::none());
        }
        // Steady state: p_gb / (p_gb + p_bg) = rate, with the bad-state
        // dwell time set by burstiness.
        let p_bg = 1.0 - burstiness;
        let p_gb = rate * p_bg / (1.0 - rate);
        Ok(ChannelPlan {
            ge: Some(GilbertElliott {
                p_gb,
                p_bg,
                loss_good: 0.0,
                loss_bad: 1.0,
            }),
            ..ChannelPlan::default()
        })
    }

    /// Adds per-reception frame corruption with probability `p`.
    ///
    /// # Errors
    ///
    /// [`ChannelPlanError::ProbabilityOutOfRange`] unless `0 <= p <= 1`.
    pub fn with_corruption(mut self, p: f64) -> Result<Self, ChannelPlanError> {
        self.corrupt = probability("corruption", p)?;
        Ok(self)
    }

    /// Adds per-reception duplication with probability `p`.
    ///
    /// # Errors
    ///
    /// [`ChannelPlanError::ProbabilityOutOfRange`] unless `0 <= p <= 1`.
    pub fn with_duplication(mut self, p: f64) -> Result<Self, ChannelPlanError> {
        self.duplicate = probability("duplication", p)?;
        Ok(self)
    }

    /// Adds bounded reordering: each reception is independently held
    /// back with probability `p` for a uniform extra delay in
    /// `(0, window]`, letting frames sent later overtake it.
    ///
    /// # Errors
    ///
    /// [`ChannelPlanError::ProbabilityOutOfRange`] unless `0 <= p <= 1`;
    /// [`ChannelPlanError::ZeroReorderWindow`] if `p > 0` with a zero
    /// `window`.
    pub fn with_reordering(
        mut self,
        p: f64,
        window: SimDuration,
    ) -> Result<Self, ChannelPlanError> {
        self.reorder = probability("reordering", p)?;
        if self.reorder > 0.0 && window.is_zero() {
            return Err(ChannelPlanError::ZeroReorderWindow);
        }
        self.reorder_window = window;
        Ok(self)
    }

    /// Degrades the directed link `src -> dst` inside `[from, until)`:
    /// receptions drop with probability `loss` (1.0 partitions the
    /// link). Windows on the same link stack; the worst one applies.
    ///
    /// # Errors
    ///
    /// [`ChannelPlanError::EmptyWindow`] if `until <= from`;
    /// [`ChannelPlanError::ProbabilityOutOfRange`] unless
    /// `0 <= loss <= 1`.
    pub fn degrade_link(
        mut self,
        src: NodeId,
        dst: NodeId,
        from: SimTime,
        until: SimTime,
        loss: f64,
    ) -> Result<Self, ChannelPlanError> {
        let loss = probability("link degradation", loss)?;
        if until <= from {
            return Err(ChannelPlanError::EmptyWindow { from, until });
        }
        self.links
            .entry((src, dst))
            .or_default()
            .push(LinkWindow { from, until, loss });
        Ok(self)
    }

    /// The installed Gilbert–Elliott chain, if any.
    #[must_use]
    pub fn gilbert_elliott(&self) -> Option<&GilbertElliott> {
        self.ge.as_ref()
    }

    /// Per-reception corruption probability.
    #[must_use]
    pub fn corruption(&self) -> f64 {
        self.corrupt
    }

    /// Per-reception duplication probability.
    #[must_use]
    pub fn duplication(&self) -> f64 {
        self.duplicate
    }

    /// Per-reception reordering probability.
    #[must_use]
    pub fn reordering(&self) -> f64 {
        self.reorder
    }

    /// Maximum extra delay of a reordered reception.
    #[must_use]
    pub fn reorder_window(&self) -> SimDuration {
        self.reorder_window
    }

    /// Drop probability of the directed link `src -> dst` at `at` (the
    /// worst of all matching degradation windows; 0.0 when none match).
    #[must_use]
    pub fn link_loss(&self, src: NodeId, dst: NodeId, at: SimTime) -> f64 {
        match self.links.get(&(src, dst)) {
            None => 0.0,
            Some(windows) => windows
                .iter()
                .filter(|w| w.from <= at && at < w.until)
                .map(|w| w.loss)
                .fold(0.0, f64::max),
        }
    }

    /// Samples the Gilbert–Elliott chain for one reception: `bad` is the
    /// receiver's current state, updated in place; returns whether the
    /// reception is lost. Two draws, always — the chain's RNG use never
    /// depends on its state.
    pub fn ge_drops<R: Rng + ?Sized>(&self, rng: &mut R, bad: &mut bool) -> bool {
        let Some(ge) = self.ge else {
            return false;
        };
        let flip = rng.gen::<f64>();
        if *bad {
            if flip < ge.p_bg {
                *bad = false;
            }
        } else if flip < ge.p_gb {
            *bad = true;
        }
        let loss = if *bad { ge.loss_bad } else { ge.loss_good };
        rng.gen::<f64>() < loss
    }
}

/// FNV-1a checksum over a frame's identifying fields. The engine models
/// corruption detection with it: a corrupted reception is one whose
/// received checksum ([`corrupted_checksum`]) no longer matches the
/// recomputation, so the link layer discards the frame instead of
/// handing garbage to the application.
#[must_use]
pub fn frame_checksum(seq: u64, src: u32, size_bytes: usize) -> u32 {
    const OFFSET: u32 = 0x811C_9DC5;
    const PRIME: u32 = 0x0100_0193;
    let mut hash = OFFSET;
    for byte in seq
        .to_le_bytes()
        .into_iter()
        .chain(src.to_le_bytes())
        .chain((size_bytes as u64).to_le_bytes())
    {
        hash ^= u32::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The checksum of a corrupted reception: the stored checksum with the
/// error `syndrome` XORed in. Any non-zero syndrome is detectable —
/// the mismatch against [`frame_checksum`] is exactly the syndrome.
#[must_use]
pub fn corrupted_checksum(checksum: u32, syndrome: u32) -> u32 {
    checksum ^ syndrome
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn empty_plan_is_empty() {
        assert!(ChannelPlan::none().is_empty());
        assert!(ChannelPlan::default().is_empty());
        assert!(ChannelPlan::bursty(0.0, 0.5).unwrap().is_empty());
    }

    #[test]
    fn any_impairment_makes_the_plan_non_empty() {
        assert!(!ChannelPlan::bursty(0.2, 0.5).unwrap().is_empty());
        assert!(!ChannelPlan::none().with_corruption(0.1).unwrap().is_empty());
        assert!(!ChannelPlan::none()
            .with_duplication(0.1)
            .unwrap()
            .is_empty());
        assert!(!ChannelPlan::none()
            .with_reordering(0.1, SimDuration::from_millis(10))
            .unwrap()
            .is_empty());
        assert!(!ChannelPlan::none()
            .degrade_link(
                NodeId::new(1),
                NodeId::new(2),
                SimTime::ZERO,
                SimTime::from_secs(1),
                1.0,
            )
            .unwrap()
            .is_empty());
    }

    #[test]
    fn bursty_hits_the_requested_mean_loss() {
        for &(rate, burstiness) in &[(0.1, 0.0), (0.2, 0.6), (0.3, 0.9)] {
            let plan = ChannelPlan::bursty(rate, burstiness).unwrap();
            let ge = plan.gilbert_elliott().unwrap();
            assert!(
                (ge.mean_loss() - rate).abs() < 1e-12,
                "mean loss {} for rate {rate}",
                ge.mean_loss()
            );
            assert_eq!(ge.loss_bad, 1.0);
            assert_eq!(ge.loss_good, 0.0);
        }
    }

    #[test]
    fn bursty_zero_burstiness_is_iid() {
        // With burstiness 0 the chain forgets its state every reception:
        // p(bad at next) is `rate` regardless of the current state.
        let plan = ChannelPlan::bursty(0.25, 0.0).unwrap();
        let ge = plan.gilbert_elliott().unwrap();
        assert!((ge.p_bg - 1.0).abs() < 1e-12);
        assert!((ge.p_gb - 0.25 / 0.75).abs() < 1e-12);
    }

    #[test]
    fn ge_sampling_matches_mean_loss() {
        let plan = ChannelPlan::bursty(0.2, 0.6).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut bad = false;
        let n = 200_000;
        let losses = (0..n).filter(|_| plan.ge_drops(&mut rng, &mut bad)).count();
        let rate = losses as f64 / f64::from(n);
        assert!((rate - 0.2).abs() < 0.01, "sampled loss rate {rate}");
    }

    #[test]
    fn ge_losses_are_bursty() {
        // Burstiness 0.9 stretches bad dwells to ~10 receptions: count
        // loss runs and check their mean length is well above i.i.d.
        let plan = ChannelPlan::bursty(0.2, 0.9).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut bad = false;
        let outcomes: Vec<bool> = (0..100_000)
            .map(|_| plan.ge_drops(&mut rng, &mut bad))
            .collect();
        let mut runs = 0u32;
        let mut losses = 0u32;
        let mut in_run = false;
        for &lost in &outcomes {
            if lost {
                losses += 1;
                if !in_run {
                    runs += 1;
                }
            }
            in_run = lost;
        }
        let mean_run = f64::from(losses) / f64::from(runs);
        assert!(mean_run > 4.0, "mean loss-burst length {mean_run}");
    }

    #[test]
    fn link_windows_apply_in_time_and_direction() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let plan = ChannelPlan::none()
            .degrade_link(a, b, SimTime::from_secs(1), SimTime::from_secs(2), 1.0)
            .unwrap()
            .degrade_link(a, b, SimTime::from_secs(1), SimTime::from_secs(3), 0.5)
            .unwrap();
        assert_eq!(plan.link_loss(a, b, SimTime::ZERO), 0.0, "before window");
        assert_eq!(plan.link_loss(a, b, SimTime::from_secs(1)), 1.0, "worst");
        assert_eq!(plan.link_loss(a, b, SimTime::from_millis(2500)), 0.5);
        assert_eq!(plan.link_loss(a, b, SimTime::from_secs(3)), 0.0, "after");
        assert_eq!(plan.link_loss(b, a, SimTime::from_secs(1)), 0.0, "directed");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(matches!(
            ChannelPlan::bursty(1.0, 0.5),
            Err(ChannelPlanError::RateTooHigh(_))
        ));
        assert!(matches!(
            ChannelPlan::bursty(-0.1, 0.5),
            Err(ChannelPlanError::ProbabilityOutOfRange { .. })
        ));
        assert!(matches!(
            ChannelPlan::bursty(0.2, 1.5),
            Err(ChannelPlanError::ProbabilityOutOfRange { .. })
        ));
        assert!(ChannelPlan::none().with_corruption(1.5).is_err());
        assert!(ChannelPlan::none().with_duplication(-0.5).is_err());
        assert!(matches!(
            ChannelPlan::none().with_reordering(0.5, SimDuration::ZERO),
            Err(ChannelPlanError::ZeroReorderWindow)
        ));
        assert!(matches!(
            ChannelPlan::none().degrade_link(
                NodeId::new(1),
                NodeId::new(2),
                SimTime::from_secs(2),
                SimTime::from_secs(2),
                1.0,
            ),
            Err(ChannelPlanError::EmptyWindow { .. })
        ));
    }

    #[test]
    fn error_display_names_the_offender() {
        assert!(ChannelPlanError::RateTooHigh(1.0).to_string().contains('1'));
        assert!(ChannelPlanError::ProbabilityOutOfRange {
            what: "corruption",
            value: 1.5
        }
        .to_string()
        .contains("corruption"));
        assert!(ChannelPlanError::ZeroReorderWindow
            .to_string()
            .contains("window"));
        let e = ChannelPlanError::EmptyWindow {
            from: SimTime::from_secs(2),
            until: SimTime::from_secs(2),
        };
        assert!(e.to_string().contains("empty"));
    }

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let good = frame_checksum(42, 7, 120);
        for bit in 0..32 {
            let received = corrupted_checksum(good, 1 << bit);
            assert_ne!(received, good, "bit {bit} flip must be detected");
        }
        // A zero syndrome is the undamaged frame.
        assert_eq!(corrupted_checksum(good, 0), good);
    }

    #[test]
    fn checksum_distinguishes_frames() {
        assert_ne!(frame_checksum(1, 7, 120), frame_checksum(2, 7, 120));
        assert_ne!(frame_checksum(1, 7, 120), frame_checksum(1, 8, 120));
        assert_ne!(frame_checksum(1, 7, 120), frame_checksum(1, 7, 121));
    }
}
