//! The reliability layer: retry budgets with jittered exponential
//! backoff, and the counters that make loss recovery visible.
//!
//! iCPDA has no link-layer ACKs (broadcast-heavy traffic makes them
//! expensive), so every repeated transmission in the protocol is a
//! *blind* retransmission: the sender re-sends on a timer and receivers
//! deduplicate (rosters are idempotent, upstream reports carry
//! `(sender, msg_id)`). The node keeps one table of these repeats
//! (roster and upstream report under every budget; head announce, join,
//! share queue and `FSum` under `cluster_arq`), and every one of them
//! runs on the policy here: [`ReliabilityConfig`] sets the budget (how
//! many repeats, and for which messages), the growth law is fixed
//! (2× exponential backoff capped at 2 s, plus uniform jitter), and
//! [`RetryState`] tracks one message's progress through its budget.
//!
//! Four protocol counters expose the layer's activity (folded into the
//! observability registry at the end of a run, see `icpda obs report`).
//! With blind repeats they count schedule steps, not failures:
//!
//! * `icpda_rel_timeout` — a repeat timer fired while its message was
//!   still wanted (the report still pending, the join still without a
//!   roster, …). No acknowledgement is awaited, so this is every repeat
//!   that fires with its guard holding, one per firing.
//! * `icpda_rel_retransmit` — frames those firings queued: one per
//!   firing, or the number of shares re-queued for a share re-send.
//! * `icpda_rel_exhausted` — a firing found its budget spent and did not
//!   re-arm. Every blind schedule that runs to its end lands here, so it
//!   counts normal completion as well as loss.
//! * `icpda_rel_duplicate` — a receiver suppressed a duplicate delivery
//!   (retransmission or channel-level duplication).
//!
//! Under the paper budget (one retry, no `cluster_arq`) only the roster
//! and upstream repeats run, and each fires once, re-sends one frame and
//! finds its budget spent. The three counters then count the same
//! firings: `icpda run --nodes 400 --seed 7` prints "184 timeouts, 184
//! retransmits, 184 budgets exhausted".
//!
//! Determinism: the only RNG use is the per-retry jitter draw, taken
//! from the node's own deterministic stream, and the default
//! configuration reproduces the pre-refactor draw sequence exactly —
//! fault-free runs are byte-identical to the scattered-literal era.

use rand::Rng;
use wsn_sim::SimDuration;

/// Multiplier applied to the deterministic delay per retry.
const BACKOFF: u64 = 2;

/// Cap on the deterministic part of the delay — keeps late retries
/// inside the phase window that scheduled them.
const MAX_DELAY: SimDuration = SimDuration::from_secs(2);

/// Retry budget for blind retransmissions.
///
/// The delay before retry `k` (zero-based) is
/// `base * 2^k + U(0, jitter)`, with the deterministic part capped at
/// 2 s. `base` and `jitter` are supplied per repeated message (rosters
/// and upstream reports use different timings, which are constants of
/// the protocol in `config.rs`); the budget lives here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Retransmissions allowed per message (on top of the first send);
    /// 0 turns the layer off, so every message is sent exactly once.
    pub max_retries: u32,
    /// Extends the retry budgets to the cluster-formation and share
    /// phases (`HeadAnnounce`, `Join`, the share queue, `FSum`). Off in
    /// the paper default — those messages historically relied on their
    /// NACK repair rounds alone — so fault-free default runs stay
    /// byte-identical; on under the deep budget, where a bursty channel
    /// would otherwise sever whole clusters before the upstream ARQ gets
    /// anything to protect.
    pub cluster_arq: bool,
}

impl ReliabilityConfig {
    /// The paper-era default: one blind repeat per critical message
    /// (roster, upstream report), exactly what the protocol did before
    /// the reliability layer existed. Byte-identical to that behaviour.
    #[must_use]
    pub fn paper_default() -> Self {
        ReliabilityConfig {
            max_retries: 1,
            cluster_arq: false,
        }
    }

    /// ARQ disabled: single transmission, no repeats (`--arq off`).
    #[must_use]
    pub fn off() -> Self {
        ReliabilityConfig {
            max_retries: 0,
            cluster_arq: false,
        }
    }

    /// A deeper budget for lossy channels (`--arq on`): three repeats
    /// with exponential spacing, extended to the cluster phases.
    #[must_use]
    pub fn aggressive() -> Self {
        ReliabilityConfig {
            max_retries: 3,
            cluster_arq: true,
        }
    }
}

/// The deterministic part of retry `attempt`'s delay:
/// `base * 2^attempt`, saturating, capped at 2 s.
fn backoff_delay(attempt: u32, base: SimDuration) -> SimDuration {
    let factor = BACKOFF.saturating_pow(attempt);
    let nanos = base.as_nanos().saturating_mul(factor);
    SimDuration::from_nanos(nanos.min(MAX_DELAY.as_nanos()))
}

/// One message's progress through a retry budget.
///
/// Created fresh when the message is first sent; each call to
/// [`RetryState::next_delay`] consumes one retry from the budget and
/// yields the delay to the next retransmission, or `None` once the
/// budget is spent (the caller bumps `icpda_rel_exhausted` and stops
/// re-arming its timer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryState {
    attempt: u32,
}

impl RetryState {
    /// A fresh budget (no retries consumed yet).
    #[must_use]
    pub fn new() -> Self {
        RetryState { attempt: 0 }
    }

    /// Retries consumed so far.
    #[must_use]
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Consumes one retry: returns the jittered backoff delay before the
    /// next retransmission, or `None` when the budget is exhausted (or
    /// empty, as with ARQ off). The jitter is one `gen_range` draw over
    /// `[0, jitter)` nanoseconds — the same single draw per repeat the
    /// pre-refactor literals made, preserving RNG-stream identity.
    pub fn next_delay<R: Rng + ?Sized>(
        &mut self,
        config: &ReliabilityConfig,
        base: SimDuration,
        jitter: SimDuration,
        rng: &mut R,
    ) -> Option<SimDuration> {
        if self.attempt >= config.max_retries {
            return None;
        }
        let fixed = backoff_delay(self.attempt, base);
        self.attempt += 1;
        let jitter = SimDuration::from_nanos(rng.gen_range(0..jitter.as_nanos().max(1)));
        Some(fixed + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn default_budget_is_one_repeat() {
        let cfg = ReliabilityConfig::paper_default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut state = RetryState::new();
        let base = SimDuration::from_millis(150);
        let jitter = SimDuration::from_millis(100);
        let first = state
            .next_delay(&cfg, base, jitter, &mut rng)
            .expect("one retry in the budget");
        assert!(first >= base && first < base + jitter);
        assert_eq!(state.attempt(), 1);
        assert_eq!(state.next_delay(&cfg, base, jitter, &mut rng), None);
    }

    #[test]
    fn default_first_retry_reproduces_the_legacy_draw() {
        // The pre-refactor code did `150ms + gen_range(0..100_000_000)`;
        // the default config must make the identical single draw.
        let cfg = ReliabilityConfig::paper_default();
        let base = SimDuration::from_millis(150);
        let jitter = SimDuration::from_millis(100);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let delay = RetryState::new()
            .next_delay(&cfg, base, jitter, &mut rng)
            .unwrap();
        let mut legacy_rng = ChaCha8Rng::seed_from_u64(99);
        let legacy = SimDuration::from_millis(150)
            + SimDuration::from_nanos(legacy_rng.gen_range(0..100_000_000));
        assert_eq!(delay, legacy);
    }

    #[test]
    fn off_never_retries() {
        let cfg = ReliabilityConfig::off();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut state = RetryState::new();
        assert_eq!(
            state.next_delay(
                &cfg,
                SimDuration::from_millis(100),
                SimDuration::from_millis(10),
                &mut rng
            ),
            None
        );
        assert_eq!(state.attempt(), 0);
    }

    #[test]
    fn backoff_grows_exponentially_until_the_cap() {
        let base = SimDuration::from_millis(250);
        assert_eq!(backoff_delay(0, base), SimDuration::from_millis(250));
        assert_eq!(backoff_delay(1, base), SimDuration::from_millis(500));
        assert_eq!(backoff_delay(2, base), SimDuration::from_millis(1000));
        assert_eq!(backoff_delay(3, base), SimDuration::from_millis(2000));
        // Capped at 2 s from here on.
        assert_eq!(backoff_delay(4, base), SimDuration::from_secs(2));
        assert_eq!(backoff_delay(63, base), SimDuration::from_secs(2));
    }

    #[test]
    fn aggressive_budget_spaces_retries_out() {
        let cfg = ReliabilityConfig::aggressive();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut state = RetryState::new();
        let base = SimDuration::from_millis(100);
        let jitter = SimDuration::from_nanos(1); // effectively no jitter
        let delays: Vec<SimDuration> =
            std::iter::from_fn(|| state.next_delay(&cfg, base, jitter, &mut rng)).collect();
        assert_eq!(delays.len(), 3);
        assert!(delays[0] < delays[1] && delays[1] < delays[2]);
    }

    #[test]
    fn each_retry_draws_exactly_once() {
        // Stream identity: two RNGs, one driven through next_delay, one
        // through a bare gen_range, stay in lockstep.
        let cfg = ReliabilityConfig::aggressive();
        let base = SimDuration::from_millis(100);
        let jitter = SimDuration::from_millis(50);
        let mut rng_a = ChaCha8Rng::seed_from_u64(7);
        let mut rng_b = ChaCha8Rng::seed_from_u64(7);
        let mut state = RetryState::new();
        for _ in 0..3 {
            state.next_delay(&cfg, base, jitter, &mut rng_a).unwrap();
            let _: u64 = rng_b.gen_range(0..jitter.as_nanos().max(1));
        }
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }
}
