//! Adversary-framework integration properties (PR 6):
//!
//! * An empty [`AdversaryPlan`] — and explicit `Lawful` behaviours — are
//!   strict no-ops: outcome fingerprints and full traces byte-identical
//!   to runs that never heard of adversaries.
//! * The published m−1 collusion attack (arXiv:1201.4532) succeeds on a
//!   *live simulated round* and recovers the victim's exact reading;
//!   below the m−1 threshold it recovers nothing.
//! * Measured detection/disclosure rates from adversarial runs converge
//!   to the closed-form models (`1 − (1−qa)^k`, `f^{m−1}`) within
//!   stated tolerance.
//! * Active behaviours (garbage shares, selective forwarding) visibly
//!   damage the round — never silently.
//! * Every hook that fires leaves an `AdversaryAction` note carrying its
//!   behaviour code in the trace (pollution and slander checked here).

use agg::AggFunction;
use icpda::adversary::{AdversaryPlan, Behavior};
use icpda::{IcpdaConfig, IcpdaNode, IcpdaOutcome, IcpdaRun, Pollution};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use wsn_sim::geometry::Region;
use wsn_sim::prelude::*;
use wsn_sim::topology::Deployment;
use wsn_sim::TraceKind;

const N: usize = 120;

fn deployment(seed: u64) -> Deployment {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Deployment::uniform_random_with_central_bs(N, Region::paper_default(), 50.0, &mut rng)
}

fn run_with_plan(seed: u64, config: IcpdaConfig, plan: AdversaryPlan) -> IcpdaOutcome {
    IcpdaRun::new(
        deployment(seed),
        config,
        agg::readings::count_readings(N),
        seed,
    )
    .with_adversary_plan(plan)
    .run()
}

fn fingerprint(o: &IcpdaOutcome) -> String {
    format!(
        "{:?}|{:016x}|{}|{:?}|{:?}|{}|{}|{:?}|{:?}",
        o.accepted,
        o.value.to_bits(),
        o.participants,
        o.alarms,
        o.cluster_sizes,
        o.total_bytes,
        o.total_frames,
        o.finished_at,
        o.user_counters,
    )
}

#[test]
fn empty_plan_run_is_identical_to_a_plain_run() {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let plain = IcpdaRun::new(deployment(5), config, agg::readings::count_readings(N), 5).run();
    let with_empty = run_with_plan(5, config, AdversaryPlan::none());
    assert_eq!(fingerprint(&plain), fingerprint(&with_empty));
    assert!(with_empty.collusion.is_none(), "no colluders, no report");
}

/// Runs one traced simulator-level round (the golden-trace idiom,
/// inline) after `install` has set up the nodes.
fn traced_round(
    seed: u64,
    install: impl FnOnce(&mut Simulator<IcpdaNode>),
) -> Simulator<IcpdaNode> {
    let dep = deployment(seed);
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let readings = agg::readings::count_readings(N);
    let mut sim_config = SimConfig::paper_default();
    sim_config.trace_capacity = 1 << 20;
    let mut sim = Simulator::new(dep, sim_config, seed, |id| {
        IcpdaNode::new(config, id == NodeId::new(0), readings[id.index()])
    });
    install(&mut sim);
    let deadline = SimTime::ZERO + config.schedule.decision_time() + SimDuration::from_secs(1);
    sim.run_until(deadline);
    sim
}

/// Renders the complete trace and traffic totals of one simulator-level
/// round.
fn render(install_lawful: bool) -> String {
    let sim = traced_round(7, |sim| {
        if install_lawful {
            for i in 1..N {
                sim.app_mut(NodeId::new(i as u32))
                    .set_behavior(Behavior::Lawful);
            }
        }
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "now={} ev={}",
        sim.now().as_nanos(),
        sim.events_processed()
    );
    for entry in sim.trace().iter() {
        let _ = writeln!(out, "{} {:?}", entry.time.as_nanos(), entry.kind);
    }
    let m = sim.metrics();
    let _ = writeln!(
        out,
        "frames={} bytes={}",
        m.total_frames_sent(),
        m.total_bytes_sent()
    );
    out
}

#[test]
fn lawful_behaviors_leave_the_trace_byte_identical() {
    assert_eq!(render(false), render(true));
}

#[test]
fn pollution_and_slander_leave_adversary_notes_in_the_trace() {
    // A polluting head, and a member slandering another (honest) head.
    let honest = run_with_plan(
        7,
        IcpdaConfig::paper_default(AggFunction::Count),
        AdversaryPlan::none(),
    );
    let heads: Vec<NodeId> = honest.sharing_heads().take(2).collect();
    let (polluter, victim) = (heads[0], heads[1]);
    let (slanderer, _) = honest
        .rosters
        .iter()
        .find(|(n, r)| r.head() != *n)
        .expect("a member");
    let mut plan = AdversaryPlan::none();
    plan.assign(
        polluter,
        Behavior::PolluteAggregate(Pollution::inflate(1_000)),
    )
    .unwrap();
    plan.assign(*slanderer, Behavior::Slander(victim)).unwrap();
    let sim = traced_round(7, |sim| {
        for (node, behavior) in plan.compromised() {
            sim.app_mut(node).set_behavior(behavior);
        }
    });
    let trace: Vec<TraceKind> = sim.trace().iter().map(|entry| entry.kind).collect();
    for (node, code) in [(*slanderer, 5), (polluter, 2)] {
        let note = TraceKind::AdversaryAction { node, code };
        assert!(trace.contains(&note), "missing {note:?}");
    }
    let alarms = &sim.app(NodeId::new(0)).decision().expect("decided").alarms;
    assert!(alarms.contains(&(*slanderer, victim)), "{alarms:?}");
    assert!(sim.obs().count(Counter::SlanderSent) >= 1);
}

/// Rosters of size ≥ 3 formed in the honest run, as (victim, members).
fn collusion_candidates(honest: &IcpdaOutcome) -> Vec<(NodeId, Vec<NodeId>)> {
    honest
        .rosters
        .iter()
        .filter(|(node, roster)| roster.head() == *node && roster.len() >= 3)
        .map(|(_, roster)| {
            // Target the first non-head member: the attack must not
            // depend on the victim's roster position.
            let victim = *roster
                .members()
                .iter()
                .find(|&&m| m != roster.head())
                .expect("a ≥3-cluster has a non-head member");
            (victim, roster.members().to_vec())
        })
        .collect()
}

#[test]
fn m_minus_one_collusion_exposes_the_victim_in_a_live_run() {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let honest = run_with_plan(11, config, AdversaryPlan::none());
    let candidates = collusion_candidates(&honest);
    assert!(!candidates.is_empty(), "the honest run formed ≥3-clusters");
    let mut succeeded = false;
    // Share loss can leave one particular cluster's assemblies partial;
    // the attack must succeed on at least one (in practice: almost all).
    for (victim, members) in candidates.iter().take(4) {
        let mut plan = AdversaryPlan::none();
        plan.collude_all_but_one(members, *victim).unwrap();
        let out = run_with_plan(11, config, plan);
        let report = out.collusion.expect("colluders present ⇒ report");
        assert_eq!(report.colluders, members.len() - 1);
        assert!(report.targets >= 1, "the victim shared");
        assert!(
            report.all_verified(),
            "every reconstruction must equal the victim's reading exactly"
        );
        if report.exposed >= 1 {
            succeeded = true;
            break;
        }
    }
    assert!(
        succeeded,
        "m−1 colluding members recover the honest member's reading"
    );
}

#[test]
fn below_the_collusion_threshold_nothing_is_exposed() {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let honest = run_with_plan(13, config, AdversaryPlan::none());
    let candidates = collusion_candidates(&honest);
    assert!(!candidates.is_empty());
    let (victim, members) = &candidates[0];
    // All but TWO members collude: every honest member's polynomial is
    // short one point — information-theoretically hidden.
    let spared = *members
        .iter()
        .rev()
        .find(|&&m| m != *victim)
        .expect("a ≥3-cluster has two non-victim members");
    let mut plan = AdversaryPlan::none();
    for &m in members {
        if m != *victim && m != spared {
            plan.assign(m, Behavior::ColludePrivacy).unwrap();
        }
    }
    let out = run_with_plan(13, config, plan);
    let report = out.collusion.expect("colluders present ⇒ report");
    assert_eq!(report.exposed, 0, "m−2 colluders learn nothing");
    assert_eq!(report.probability(), 0.0);
}

/// One attacking cluster head that actually formed a cluster in the
/// honest run.
fn one_head(seed: u64, config: IcpdaConfig) -> NodeId {
    run_with_plan(seed, config, AdversaryPlan::none())
        .sharing_heads()
        .next()
        .expect("the honest run formed a cluster")
}

#[test]
fn measured_detection_converges_to_the_model() {
    // Inconsistent-sum pollution (Th = 0): every overhearing neighbour
    // is a qualified monitor, so the closed form 1 − (1−qa)^k is ≈ 1
    // for any k ≥ 1 at the paper's q·a. Six adversarial trials must
    // land within tolerance of that limit.
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let seeds = [20u64, 21, 22, 23, 24, 25];
    let mut detected = 0usize;
    for &seed in &seeds {
        let head = one_head(seed, config);
        let mut plan = AdversaryPlan::none();
        plan.assign(head, Behavior::PolluteAggregate(Pollution::inflate(1_000)))
            .unwrap();
        let out = run_with_plan(seed, config, plan);
        if !out.accepted {
            detected += 1;
        }
    }
    let measured = detected as f64 / seeds.len() as f64;
    // model: detection_probability(k ≥ 1, q ≈ 1, a ≈ 1) = 1.
    assert!(
        (1.0 - measured).abs() <= 0.25,
        "measured detection {measured} out of tolerance vs model 1.0"
    );

    // Tolerance anchor: Th ≥ Δ absorbs the pollution — model drops to 0
    // (the check never fires) and measurement must follow exactly.
    let mut tolerant = config;
    tolerant.threshold = 1_000_000;
    for &seed in &seeds[..3] {
        let head = one_head(seed, tolerant);
        let mut plan = AdversaryPlan::none();
        plan.assign(head, Behavior::PolluteAggregate(Pollution::inflate(1_000)))
            .unwrap();
        let out = run_with_plan(seed, tolerant, plan);
        assert!(
            out.accepted,
            "seed {seed}: Th ≥ Δ must absorb the pollution (model = 0)"
        );
    }
}

#[test]
fn measured_disclosure_converges_to_the_model() {
    // Random compromise at fraction f: a member of an m-cluster is
    // exposed iff all m−1 cluster-mates collude — probability f^{m−1}
    // (the icpda-analysis closed form, inlined here to keep the dev-dep
    // graph acyclic). Pool measurement and model over several runs.
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let f = 0.6f64;
    let (mut exposed, mut targets) = (0usize, 0usize);
    let (mut model_num, mut model_den) = (0.0f64, 0.0f64);
    for seed in [30u64, 31, 32, 33] {
        let plan = AdversaryPlan::random_compromise(N, f, Behavior::ColludePrivacy, seed).unwrap();
        let out = run_with_plan(seed, config, plan);
        let report = out.collusion.expect("colluders present ⇒ report");
        assert!(report.all_verified(), "reconstructions are exact");
        exposed += report.exposed;
        targets += report.targets;
        for &m in &out.cluster_sizes {
            model_num += m as f64 * f.powf((m - 1) as f64);
            model_den += m as f64;
        }
    }
    assert!(targets > 0, "adversarial runs still form sharing clusters");
    let measured = exposed as f64 / targets as f64;
    let model = model_num / model_den;
    assert!(
        measured > 0.0,
        "at f = {f} some cluster loses its whole complement"
    );
    assert!(
        (measured - model).abs() <= 0.2,
        "measured disclosure {measured} vs model {model} out of tolerance"
    );
}

#[test]
fn garbage_shares_corrupt_the_aggregate_visibly() {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let honest = run_with_plan(41, config, AdversaryPlan::none());
    let candidates = collusion_candidates(&honest);
    assert!(candidates.len() >= 2, "need a few clusters to corrupt");
    let mut plan = AdversaryPlan::none();
    for (victim, _) in candidates.iter().take(3) {
        plan.assign(*victim, Behavior::GarbageShares).unwrap();
    }
    let out = run_with_plan(41, config, plan);
    let garbage_rounds = out.obs.count(Counter::AdvGarbageShares);
    assert!(garbage_rounds >= 1, "the hook fired");
    assert_ne!(
        out.value.to_bits(),
        honest.value.to_bits(),
        "uniform garbage shares cannot reproduce the honest aggregate"
    );
}

#[test]
fn selective_forwarding_black_holes_subtrees() {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let honest = run_with_plan(51, config, AdversaryPlan::none());
    let plan = AdversaryPlan::random_compromise(N, 0.4, Behavior::SelectiveForward, 51).unwrap();
    assert!(plan.compromised_count() > 10);
    let out = run_with_plan(51, config, plan);
    let dropped = out.obs.count(Counter::AdvDroppedUpstream);
    assert!(dropped >= 1, "forwarders received and dropped reports");
    assert!(
        out.participants < honest.participants,
        "black-holed subtrees shrink the aggregate ({} !< {})",
        out.participants,
        honest.participants
    );
}
