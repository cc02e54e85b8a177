//! Result-latency models.
//!
//! Both protocols are *schedule-dominated* at the paper's densities: the
//! time the base station holds the full result is set by the phase
//! schedule, not by queueing. The last data to arrive is the level-1
//! relays' transmissions, which fire in the shallowest slot of the
//! depth-scheduled epoch — so the model is just the schedule evaluated
//! at level 1 plus the slot dispersion.

use icpda::PhaseSchedule;
use wsn_sim::SimDuration;

/// Expected time (from query launch) at which the last TAG report lands:
/// the level-1 slot plus the 60 % in-slot dispersion, for an epoch of
/// `epoch` seconds over `max_depth` levels starting after `formation`.
#[must_use]
pub fn tag_result_time(formation: SimDuration, epoch: SimDuration, max_depth: u16) -> SimDuration {
    let slot = epoch / u64::from(max_depth);
    // Level-1 nodes fire at (max_depth − 1) slots; mean dispersion 30 %.
    formation + slot * u64::from(max_depth - 1) + slot * 3 / 10
}

/// Expected time at which the last iCPDA upstream report lands, from the
/// protocol schedule (same construction over the upstream epoch).
#[must_use]
pub fn icpda_result_time(schedule: &PhaseSchedule) -> SimDuration {
    let slot = schedule.upstream_slot();
    schedule.upstream_time(1) + slot * 3 / 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_model_matches_papers_schedule() {
        // 2 s formation + 10 s epoch over 20 levels: last report ≈ 11.65 s.
        let t = tag_result_time(SimDuration::from_secs(2), SimDuration::from_secs(10), 20);
        assert!((t.as_secs_f64() - 11.65).abs() < 0.01, "{t}");
    }
}
