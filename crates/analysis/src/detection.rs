//! Pollution-detection probability model.
//!
//! With the audit-trail design, a polluted report is caught if at least
//! one honest monitor that (a) overheard the report and (b) holds the
//! contradicted knowledge raises an alarm that reaches the base station.
//! For `k` qualified monitors, each independently overhearing the
//! attacker's transmission with probability `q` and the alarm surviving
//! the route with probability `a`:
//!
//! `P_detect = 1 − (1 − q·a)^k`
//!
//! An inconsistent-sum attack qualifies *every* neighbour as a monitor;
//! a forged-input attack qualifies only the holders of that input
//! (cluster members for a cluster claim). A phantom-input attack has
//! `k = 0` — the model's documented blind spot.
//!
//! **Input-validation policy** (uniform across `icpda-analysis`, see
//! also [`crate::privacy`]): probability arguments are *asserted* with a
//! documented panic — an out-of-range probability is a caller bug the
//! curves must not paper over — and integer counts are exponentiated via
//! `powf`, which covers the whole `usize` range without the silent
//! `i32::MAX` saturation `powi` conversions used to hide.

/// Detection probability with `k` qualified monitors, overhear
/// probability `q`, and alarm-delivery probability `a`.
///
/// # Panics
///
/// Panics if `q` or `a` is not a probability.
#[must_use]
pub fn detection_probability(monitors: usize, q: f64, a: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "q must be a probability");
    assert!((0.0..=1.0).contains(&a), "a must be a probability");
    1.0 - (1.0 - q * a).powf(monitors as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_monitors_more_detection() {
        let d1 = detection_probability(1, 0.9, 1.0);
        let d3 = detection_probability(3, 0.9, 1.0);
        assert!(d3 > d1);
        assert!((d1 - 0.9).abs() < 1e-12);
        assert!((d3 - (1.0 - 0.1f64.powi(3))).abs() < 1e-12);
    }

    #[test]
    fn zero_monitors_never_detect() {
        assert_eq!(detection_probability(0, 0.99, 0.99), 0.0);
    }

    #[test]
    #[should_panic]
    fn validates_probabilities() {
        let _ = detection_probability(3, 1.2, 0.5);
    }

    #[test]
    fn huge_monitor_counts_do_not_saturate() {
        // Beyond i32::MAX the old powi conversion silently pinned the
        // exponent; powf keeps the limit behaviour exact.
        let d = detection_probability(usize::MAX, 0.5, 0.5);
        assert_eq!(d, 1.0);
        assert_eq!(detection_probability(usize::MAX, 0.0, 1.0), 0.0);
    }
}
