//! Multi-round aggregation sessions with attacker quarantine.
//!
//! The paper notes that a polluter could mount a denial-of-service by
//! forcing the base station to reject every round, and that the base
//! station can defeat this by excluding suspects across rounds. The
//! audit-trail alarms name the accused node directly, so recovery is
//! even simpler than the paper's O(log N) bisection sketch: after a
//! rejected round, the base station quarantines every accused node and
//! re-queries. [`run_session`] drives that loop.
//!
//! Quarantine costs the excluded nodes' readings (and any coverage they
//! provided as relays); a *false* accusation would therefore cost
//! accuracy — which is why monitors only accuse on provable
//! inconsistency. With crash recovery off, honest rounds raise no false
//! alarm (see the integrity experiments). With it on, a head takeover
//! triggered by one lost assembly can make an honest round fail: 5–6 of
//! 30 clean paper-field rounds were rejected (ROADMAP, open item 1).

use crate::adversary::AdversaryPlan;
use crate::config::IcpdaConfig;
use crate::runner::{IcpdaOutcome, IcpdaRun};
use std::collections::{BTreeMap, BTreeSet};
use wsn_sim::{Deployment, NodeId};

/// The trace of one recovery session.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// Every round's outcome, in order.
    pub rounds: Vec<IcpdaOutcome>,
    /// Nodes quarantined over the session.
    pub excluded: Vec<NodeId>,
    /// Index into `rounds` of the first accepted round, if any.
    pub accepted_round: Option<usize>,
}

impl SessionOutcome {
    /// The accepted outcome, if the session converged.
    #[must_use]
    pub fn accepted(&self) -> Option<&IcpdaOutcome> {
        self.accepted_round.map(|i| &self.rounds[i])
    }

    /// Number of rounds the session used.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` if no rounds ran (never produced by [`run_session`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }
}

/// Runs query rounds with quarantine *and accuser credibility*, until a
/// round is accepted or `max_rounds` is exhausted.
///
/// Policy per rejected round:
///
/// 1. every accused node is quarantined (an honest alarm names a real
///    polluter, and excluding it restores acceptance);
/// 2. an accuser whose accusations appear in **two or more** rejected
///    rounds has burned its credibility — its accusations evidently do
///    not stop the rejections, which is the signature of a *slander*
///    (false-accusation) denial-of-service. The accuser is quarantined
///    and every node it accused is re-admitted (unless someone else
///    also accused it).
///
/// Every round runs the same `adversary` plan; attackers that end up
/// quarantined stay in it but are passive (an excluded node transmits
/// nothing).
///
/// # Panics
///
/// Panics if `max_rounds == 0`, `readings.len() != deployment.len()`,
/// or `config.rounds != 1` (the session layer drives one protocol round
/// per query itself).
#[must_use]
pub fn run_session(
    deployment: &Deployment,
    config: IcpdaConfig,
    readings: &[u64],
    seed: u64,
    adversary: &AdversaryPlan,
    max_rounds: usize,
) -> SessionOutcome {
    assert!(max_rounds > 0, "a session needs at least one round");
    assert_eq!(
        config.rounds, 1,
        "run_session drives rounds itself; set config.rounds = 1"
    );
    let mut excluded: BTreeSet<NodeId> = BTreeSet::new();
    // accuser -> (rejected rounds containing its accusations, accused set)
    let mut accuser_strikes: BTreeMap<NodeId, u32> = BTreeMap::new();
    let mut accusations: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
    let mut rounds = Vec::new();
    let mut accepted_round = None;
    for round in 0..max_rounds {
        // Round 0 uses the caller's seed verbatim (so a probe run with
        // the same seed sees the same cluster formation); later rounds
        // derive fresh seeds.
        let round_seed = seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let outcome = IcpdaRun::new(deployment.clone(), config, readings.to_vec(), round_seed)
            .with_adversary_plan(adversary.clone())
            .with_excluded(excluded.iter().copied())
            .run();
        let accepted = outcome.accepted;
        let alarms = outcome.alarms.clone();
        rounds.push(outcome);
        if accepted {
            accepted_round = Some(round);
            break;
        }
        let before = excluded.clone();
        for &(accuser, accused) in &alarms {
            excluded.insert(accused);
            *accuser_strikes.entry(accuser).or_insert(0) += 1;
            accusations.entry(accuser).or_default().insert(accused);
        }
        // Credibility: a repeat accuser across rejected rounds is the
        // problem itself. Quarantine it; exonerate its victims.
        let burned: Vec<NodeId> = accuser_strikes
            .iter()
            .filter(|(_, &strikes)| strikes >= 2)
            .map(|(&a, _)| a)
            .collect();
        for accuser in burned {
            excluded.insert(accuser);
            if let Some(victims) = accusations.get(&accuser) {
                for victim in victims {
                    let accused_by_others = accusations
                        .iter()
                        .any(|(a, set)| *a != accuser && set.contains(victim));
                    if !accused_by_others {
                        excluded.remove(victim);
                    }
                }
            }
        }
        if excluded == before {
            // Rejected without changing the quarantine set: no progress.
            break;
        }
    }
    SessionOutcome {
        rounds,
        excluded: excluded.into_iter().collect(),
        accepted_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Behavior;
    use crate::attack::Pollution;
    use agg::AggFunction;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wsn_sim::geometry::Region;

    fn network(n: usize) -> Deployment {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        Deployment::uniform_random_with_central_bs(n, Region::paper_default(), 50.0, &mut rng)
    }

    #[test]
    fn honest_session_converges_in_one_round() {
        let dep = network(150);
        let readings = agg::readings::count_readings(150);
        let config = IcpdaConfig::paper_default(AggFunction::Count);
        let session = run_session(&dep, config, &readings, 5, &AdversaryPlan::none(), 4);
        assert_eq!(session.accepted_round, Some(0));
        assert_eq!(session.len(), 1);
        assert!(session.excluded.is_empty());
    }

    #[test]
    fn attacked_session_recovers_by_quarantine() {
        let dep = network(200);
        let readings = agg::readings::count_readings(200);
        let config = IcpdaConfig::paper_default(AggFunction::Count);
        // Find a head to compromise.
        let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), 5).run();
        let head = honest.sharing_heads().next().expect("heads exist");
        let mut plan = AdversaryPlan::none();
        plan.assign(head, Behavior::PolluteAggregate(Pollution::inflate(9_999)))
            .unwrap();
        let session = run_session(&dep, config, &readings, 5, &plan, 5);
        let accepted = session.accepted().expect("session must converge");
        assert!(session.accepted_round.unwrap() >= 1, "first round rejected");
        assert!(
            session.excluded.contains(&head),
            "the polluter is quarantined"
        );
        // The accepted round is clean and close to truth (minus the
        // quarantined node's own contribution and collateral coverage).
        assert!(accepted.accepted);
        assert!(accepted.value <= accepted.truth);
        assert!(accepted.accuracy() > 0.7, "{}", accepted.accuracy());
    }

    #[test]
    fn session_stops_without_progress() {
        // A phantom-input attacker is never named; but its rounds are
        // *accepted*, so the session converges immediately (with the
        // pollution inside — the documented blind spot).
        let dep = network(150);
        let readings = agg::readings::count_readings(150);
        let config = IcpdaConfig::paper_default(AggFunction::Count);
        let honest = IcpdaRun::new(dep.clone(), config, readings.clone(), 5).run();
        let head = honest.sharing_heads().next().expect("heads exist");
        let mut plan = AdversaryPlan::none();
        plan.assign(
            head,
            Behavior::PolluteAggregate(Pollution::phantom(5_000, 5)),
        )
        .unwrap();
        let session = run_session(&dep, config, &readings, 5, &plan, 3);
        assert_eq!(session.accepted_round, Some(0));
    }

    #[test]
    fn slander_dos_is_defeated_by_credibility_tracking() {
        let dep = network(200);
        let readings = agg::readings::count_readings(200);
        let config = IcpdaConfig::paper_default(AggFunction::Count);
        // An ordinary member slanders an innocent head every round.
        let probe = IcpdaRun::new(dep.clone(), config, readings.clone(), 5).run();
        let victim = probe.sharing_heads().next().expect("heads exist");
        let slanderer = probe
            .rosters
            .iter()
            .find_map(|(n, r)| (r.head() != *n && *n != victim).then_some(*n))
            .expect("members exist");
        let mut plan = AdversaryPlan::none();
        plan.assign(slanderer, Behavior::Slander(victim)).unwrap();
        let session = run_session(&dep, config, &readings, 5, &plan, 6);
        let accepted = session.accepted().expect("session converges");
        assert!(
            session.excluded.contains(&slanderer),
            "the slanderer is quarantined: {:?}",
            session.excluded
        );
        assert!(
            !session.excluded.contains(&victim),
            "the victim is exonerated: {:?}",
            session.excluded
        );
        assert!(accepted.accepted);
        assert!(accepted.accuracy() > 0.8, "{}", accepted.accuracy());
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let dep = network(10);
        let readings = agg::readings::count_readings(10);
        let _ = run_session(
            &dep,
            IcpdaConfig::paper_default(AggFunction::Count),
            &readings,
            1,
            &AdversaryPlan::none(),
            0,
        );
    }
}
