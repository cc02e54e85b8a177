//! Radio PHY model: bitrate, framing overhead, airtime, and stochastic loss.

use crate::time::SimDuration;
use rand::Rng;
use std::fmt;

/// Link bitrate of the paper family's ns-2 radio, in bits per second
/// (the 50 m transmission range lives in
/// [`Deployment`](crate::topology::Deployment)).
pub const BITRATE_BPS: u64 = 1_000_000;

/// Fixed per-frame overhead (preamble + PHY/MAC header) in bytes,
/// charged on the air and in the byte counters.
pub const FRAME_OVERHEAD_BYTES: usize = 16;

/// Time a frame with `payload_bytes` of payload occupies the channel.
///
/// # Examples
///
/// ```
/// use wsn_sim::radio::airtime;
///
/// // A 16-byte payload plus the 16-byte header at 1 Mbps: 256 µs.
/// assert_eq!(airtime(16).as_nanos(), 256_000);
/// ```
#[must_use]
pub fn airtime(payload_bytes: usize) -> SimDuration {
    let bits = (on_air_bytes(payload_bytes) as u128) * 8;
    // ns = bits * 1e9 / bitrate; u128 keeps this exact for any frame.
    let ns = bits * 1_000_000_000 / u128::from(BITRATE_BPS);
    SimDuration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
}

/// Total on-air size of a frame with the given payload.
#[must_use]
pub fn on_air_bytes(payload_bytes: usize) -> usize {
    payload_bytes + FRAME_OVERHEAD_BYTES
}

/// A rejected loss-model parameter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossModelError {
    /// A loss probability outside `[0, 1]`.
    ProbabilityOutOfRange(f64),
    /// A negative gray-zone exponent.
    NegativeAlpha(f64),
}

impl fmt::Display for LossModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LossModelError::ProbabilityOutOfRange(p) => {
                write!(f, "loss probability {p} is outside [0, 1]")
            }
            LossModelError::NegativeAlpha(a) => {
                write!(f, "gray-zone exponent {a} is negative")
            }
        }
    }
}

impl std::error::Error for LossModelError {}

/// Stochastic per-reception loss, applied *in addition to* collision and
/// half-duplex losses modelled by the MAC.
///
/// `Iid(p)` drops each individual reception independently with probability
/// `p` — the classic ns-2 "uniform error model". `DistanceDependent`
/// approximates log-distance shadowing: loss grows with the
/// distance-to-range ratio, reaching `edge_loss` at the very edge of the
/// radio range. `None` leaves loss entirely to collisions.
///
/// Build models through the validating constructors [`LossModel::iid`]
/// and [`LossModel::distance_dependent`]: they reject out-of-range
/// parameters with a typed [`LossModelError`] at configuration time, so a
/// release build can never silently run a nonsense loss model (sampling
/// still clamps defensively for variants built literally).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum LossModel {
    /// No stochastic loss; only collisions/half-duplex lose frames.
    #[default]
    None,
    /// Each reception is independently lost with the given probability.
    Iid(f64),
    /// Loss probability `edge_loss · (d/r)^alpha` for a reception over
    /// distance `d` with radio range `r` — near-perfect links close by,
    /// a gray zone near the edge, as measured in real sensor testbeds.
    DistanceDependent {
        /// Exponent shaping the gray zone (higher = sharper edge).
        alpha: f64,
        /// Loss probability at the very edge of the range.
        edge_loss: f64,
    },
}

impl LossModel {
    /// Builds an i.i.d. loss model, validating the probability.
    ///
    /// # Errors
    ///
    /// [`LossModelError::ProbabilityOutOfRange`] unless `0 <= p <= 1`.
    pub fn iid(p: f64) -> Result<Self, LossModelError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(LossModelError::ProbabilityOutOfRange(p));
        }
        Ok(LossModel::Iid(p))
    }

    /// Builds a distance-dependent (gray-zone) loss model, validating
    /// both parameters.
    ///
    /// # Errors
    ///
    /// [`LossModelError::NegativeAlpha`] if `alpha < 0`;
    /// [`LossModelError::ProbabilityOutOfRange`] unless
    /// `0 <= edge_loss <= 1`.
    pub fn distance_dependent(alpha: f64, edge_loss: f64) -> Result<Self, LossModelError> {
        if alpha.is_nan() || alpha < 0.0 {
            return Err(LossModelError::NegativeAlpha(alpha));
        }
        if !(0.0..=1.0).contains(&edge_loss) {
            return Err(LossModelError::ProbabilityOutOfRange(edge_loss));
        }
        Ok(LossModel::DistanceDependent { alpha, edge_loss })
    }

    /// Samples whether a reception over `distance_ratio = d/r ∈ [0, 1]`
    /// is lost. Parameters are clamped into range defensively; use the
    /// validating constructors to reject bad values up front.
    pub fn drops<R: Rng + ?Sized>(&self, rng: &mut R, distance_ratio: f64) -> bool {
        match *self {
            LossModel::None => false,
            LossModel::Iid(p) => rng.gen_bool(p.clamp(0.0, 1.0)),
            LossModel::DistanceDependent { alpha, edge_loss } => {
                let p =
                    edge_loss.clamp(0.0, 1.0) * distance_ratio.clamp(0.0, 1.0).powf(alpha.max(0.0));
                rng.gen_bool(p.clamp(0.0, 1.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn airtime_scales_linearly() {
        let a = airtime(0);
        let b = airtime(100);
        // 100 extra bytes at 1 Mbps = 800 µs extra.
        assert_eq!((b - a).as_nanos(), 800_000);
    }

    #[test]
    fn airtime_includes_overhead() {
        // 3 payload bytes + 16 header bytes at 1 Mbps: 8 µs per byte.
        assert_eq!(airtime(3), SimDuration::from_micros(152));
        assert_eq!(on_air_bytes(3), 19);
    }

    #[test]
    fn loss_none_never_drops() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(!LossModel::None.drops(&mut rng, 1.0));
        }
    }

    #[test]
    fn loss_iid_rate_is_close() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = LossModel::Iid(0.3);
        let drops = (0..20_000).filter(|_| model.drops(&mut rng, 0.5)).count();
        let rate = drops as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn loss_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(!LossModel::Iid(0.0).drops(&mut rng, 0.5));
        assert!(LossModel::Iid(1.0).drops(&mut rng, 0.5));
    }

    #[test]
    fn distance_dependent_gray_zone() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = LossModel::DistanceDependent {
            alpha: 4.0,
            edge_loss: 0.5,
        };
        let rate = |ratio: f64, rng: &mut ChaCha8Rng| {
            (0..20_000).filter(|_| model.drops(rng, ratio)).count() as f64 / 20_000.0
        };
        let near = rate(0.2, &mut rng);
        let edge = rate(1.0, &mut rng);
        assert!(near < 0.01, "near links are near-perfect: {near}");
        assert!((edge - 0.5).abs() < 0.02, "edge loss honoured: {edge}");
    }

    #[test]
    fn validated_constructors_accept_good_parameters() {
        assert_eq!(LossModel::iid(0.25), Ok(LossModel::Iid(0.25)));
        assert_eq!(LossModel::iid(0.0), Ok(LossModel::Iid(0.0)));
        assert_eq!(LossModel::iid(1.0), Ok(LossModel::Iid(1.0)));
        assert_eq!(
            LossModel::distance_dependent(4.0, 0.5),
            Ok(LossModel::DistanceDependent {
                alpha: 4.0,
                edge_loss: 0.5
            })
        );
    }

    #[test]
    fn validated_constructors_reject_bad_parameters() {
        assert_eq!(
            LossModel::iid(1.5),
            Err(LossModelError::ProbabilityOutOfRange(1.5))
        );
        assert_eq!(
            LossModel::iid(-0.1),
            Err(LossModelError::ProbabilityOutOfRange(-0.1))
        );
        assert!(LossModel::iid(f64::NAN).is_err());
        assert_eq!(
            LossModel::distance_dependent(-1.0, 0.5),
            Err(LossModelError::NegativeAlpha(-1.0))
        );
        assert_eq!(
            LossModel::distance_dependent(2.0, 1.5),
            Err(LossModelError::ProbabilityOutOfRange(1.5))
        );
        assert!(LossModel::distance_dependent(f64::NAN, 0.5).is_err());
    }

    #[test]
    fn error_display_names_the_offender() {
        assert!(LossModelError::ProbabilityOutOfRange(1.5)
            .to_string()
            .contains("1.5"));
        assert!(LossModelError::NegativeAlpha(-2.0)
            .to_string()
            .contains("-2"));
    }

    #[test]
    fn distance_dependent_zero_distance_never_drops() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let model = LossModel::DistanceDependent {
            alpha: 2.0,
            edge_loss: 1.0,
        };
        assert!(!model.drops(&mut rng, 0.0));
    }
}
