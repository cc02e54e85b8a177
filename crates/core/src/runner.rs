//! One-call experiment driver: deploy, run a full iCPDA round, extract
//! every quantity the evaluation figures need.

use crate::adversary::{evaluate_collusion, AdversaryPlan, CollusionReport, CollusionView};
use crate::cluster::Roster;
use crate::config::{IcpdaConfig, SHARES_AFTER};
use crate::node::{BsDecision, IcpdaNode, Role};
use agg::accuracy::accuracy_ratio;
use icpda_obs::export::Manifest;
use icpda_obs::stream::ObsStream;
use std::collections::BTreeMap;
use std::path::PathBuf;
use wsn_sim::prelude::*;
use wsn_sim::TraceLevel;

/// A configured run, built with [`IcpdaRun::new`] and executed with
/// [`IcpdaRun::run`].
///
/// # Examples
///
/// ```
/// use agg::AggFunction;
/// use icpda::{IcpdaConfig, IcpdaRun};
/// use rand::SeedableRng;
/// use wsn_sim::geometry::Region;
/// use wsn_sim::prelude::*;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let dep = Deployment::uniform_random_with_central_bs(
///     120, Region::paper_default(), 50.0, &mut rng);
/// let readings = agg::readings::count_readings(120);
/// let outcome = IcpdaRun::new(
///     dep,
///     IcpdaConfig::paper_default(AggFunction::Count),
///     readings,
///     7,
/// )
/// .run();
/// assert!(outcome.accepted);
/// assert!(outcome.accuracy() > 0.5);
/// ```
#[derive(Debug)]
pub struct IcpdaRun {
    deployment: Deployment,
    sim_config: SimConfig,
    config: IcpdaConfig,
    readings: Vec<u64>,
    seed: u64,
    excluded: Vec<NodeId>,
    reading_schedule: Vec<Vec<u64>>,
    fault_plan: FaultPlan,
    channel_plan: ChannelPlan,
    adversary_plan: AdversaryPlan,
    obs_stream: Option<(ObsStream, Manifest)>,
}

impl IcpdaRun {
    /// Configures a run: node 0 of `deployment` is the base station and
    /// `readings[i]` is node `i`'s private value (entry 0 ignored).
    ///
    /// # Panics
    ///
    /// Panics if `readings.len() != deployment.len()`.
    #[must_use]
    pub fn new(deployment: Deployment, config: IcpdaConfig, readings: Vec<u64>, seed: u64) -> Self {
        assert_eq!(
            readings.len(),
            deployment.len(),
            "one reading per node (entry 0 unused)"
        );
        IcpdaRun {
            deployment,
            sim_config: SimConfig::paper_default(),
            config,
            readings,
            seed,
            excluded: Vec::new(),
            reading_schedule: Vec::new(),
            fault_plan: FaultPlan::none(),
            channel_plan: ChannelPlan::none(),
            adversary_plan: AdversaryPlan::none(),
            obs_stream: None,
        }
    }

    /// Streams the run's obs artefacts into `stream`'s directory as the
    /// simulation progresses instead of buffering them to the end:
    /// completed spans drain into `spans.jsonl` at every round boundary,
    /// the link-layer trace (when `trace_level` > `Off`) streams into
    /// `trace.jsonl` through a fixed-size buffer, and `finish` writes
    /// `manifest.json` + `metrics.jsonl`. Every file is byte-identical
    /// at any thread count. The outcome's [`IcpdaOutcome::stream`]
    /// summarises what was written; I/O failures are reported there,
    /// never panicked on.
    #[must_use]
    pub fn with_obs_stream(mut self, stream: ObsStream, manifest: Manifest) -> Self {
        self.obs_stream = Some((stream, manifest));
        self
    }

    /// Installs a Byzantine adversary plan (per-node behaviours, see
    /// [`crate::adversary`]), the only way an attack enters a run. An
    /// empty plan is a strict no-op: the run is byte-identical to one
    /// configured without it. When the plan contains
    /// [`crate::adversary::Behavior::ColludePrivacy`] nodes, the outcome
    /// carries a [`CollusionReport`] evaluating the published m−1
    /// reconstruction attack against every honest member.
    #[must_use]
    pub fn with_adversary_plan(mut self, plan: AdversaryPlan) -> Self {
        self.adversary_plan = plan;
        self
    }

    /// Installs a node-churn fault plan (crashes and outage windows,
    /// enforced by the simulator). Ground truth automatically narrows to
    /// the nodes alive at each round's sensing time, so accuracy measures
    /// the protocol's recovery — not the dead sensors' missing data.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Installs a channel-impairment plan (bursty loss, corruption,
    /// duplication, reordering, link windows — see
    /// [`wsn_sim::ChannelPlan`]). An empty plan is a strict no-op: the
    /// run is byte-identical to one configured without it.
    #[must_use]
    pub fn with_channel_plan(mut self, plan: ChannelPlan) -> Self {
        self.channel_plan = plan;
        self
    }

    /// Overrides the simulator (radio/MAC/loss/energy) configuration.
    #[must_use]
    pub fn with_sim_config(mut self, sim_config: SimConfig) -> Self {
        self.sim_config = sim_config;
        self
    }

    /// Quarantines nodes for this round (the base station's recovery
    /// mechanism: accused polluters sit out subsequent rounds). Their
    /// readings are lost — quarantine trades accuracy for trust.
    #[must_use]
    pub fn with_excluded(mut self, excluded: impl IntoIterator<Item = NodeId>) -> Self {
        self.excluded.extend(excluded);
        self
    }

    /// Supplies fresh readings for rounds `1..` of a multi-round session
    /// (periodic sensing): entry `r − 1` is installed on every node just
    /// after round `r − 1`'s decision, before round `r`'s share exchange.
    /// Round 0 uses the constructor's readings. Extra entries are
    /// ignored; missing entries keep the previous readings.
    ///
    /// # Panics
    ///
    /// Panics if any entry's length differs from the deployment size.
    #[must_use]
    pub fn with_reading_schedule(mut self, schedule: Vec<Vec<u64>>) -> Self {
        for (i, entry) in schedule.iter().enumerate() {
            assert_eq!(
                entry.len(),
                self.deployment.len(),
                "reading schedule entry {i} has the wrong length"
            );
        }
        self.reading_schedule = schedule;
        self
    }

    /// Executes the configured session (one round unless
    /// [`crate::IcpdaConfig::rounds`] says otherwise) and collects the
    /// outcome.
    #[must_use]
    pub fn run(mut self) -> IcpdaOutcome {
        let mut obs_stream = self.obs_stream.take();
        let mut stream_error: Option<String> = None;
        let config = self.config;
        let readings = self.readings.clone();
        // Ground truth is taken over the *contributing* population: a
        // quarantined node and a node dead before it could sense are not
        // part of the quantity the protocol is asked to compute, so they
        // must not count as protocol error.
        let fault_plan = self.fault_plan.clone();
        let excluded_nodes = self.excluded.clone();
        let eligible_of = |round: u16| -> Vec<bool> {
            let sensing =
                SimTime::ZERO + config.schedule.decision_time() * u64::from(round) + SHARES_AFTER;
            (0..readings.len())
                .map(|i| {
                    let id = NodeId::new(i as u32);
                    i != 0 && !excluded_nodes.contains(&id) && fault_plan.alive_at(id, sensing)
                })
                .collect()
        };
        let truth_over = |rs: &[u64], eligible: &[bool]| -> f64 {
            let vals: Vec<u64> = rs
                .iter()
                .zip(eligible)
                .filter_map(|(&r, &e)| e.then_some(r))
                .collect();
            config.function.ground_truth(&vals)
        };
        let mut last_truth = truth_over(&self.readings, &eligible_of(0));
        let mut round_truths = vec![last_truth];
        let mut sim = Simulator::new(self.deployment, self.sim_config, self.seed, |id| {
            IcpdaNode::new(config, id == NodeId::new(0), readings[id.index()])
        });
        if !self.fault_plan.is_empty() {
            sim.set_fault_plan(self.fault_plan.clone());
        }
        if !self.channel_plan.is_empty() {
            sim.set_channel_plan(self.channel_plan.clone());
        }
        // Streaming: the link-layer trace goes straight to `trace.jsonl`
        // (replacing the in-memory ring) whenever a trace level is set.
        if let Some((stream, _)) = obs_stream.as_ref() {
            if self.sim_config.trace_level > TraceLevel::Off {
                match stream.trace_sink() {
                    Ok(sink) => sim.set_trace_stream(sink),
                    Err(e) => stream_error = Some(format!("trace.jsonl: {e}")),
                }
            }
        }
        for (node, behavior) in self.adversary_plan.compromised() {
            sim.app_mut(node).set_behavior(behavior);
        }
        for node in &self.excluded {
            if *node != NodeId::new(0) {
                sim.app_mut(*node).set_excluded();
            }
        }
        // Periodic sensing: install round r's readings right after round
        // r−1's decision (the share exchange starts no earlier than
        // SHARES_AFTER later).
        let mut current_readings = self.readings.clone();
        for round in 1..config.rounds {
            let boundary = SimTime::ZERO
                + config.schedule.decision_time() * u64::from(round)
                + SimDuration::from_millis(50);
            sim.run_until(boundary);
            // Round boundary: let the engine recycle its frame arena back
            // to the previous round's high-water mark, rotate the flight
            // recorder's window and flush the trace stream (allocator and
            // observability hints only — observable behaviour is
            // unchanged).
            sim.begin_frame_epoch();
            // With a stream attached, completed spans leave memory here —
            // span memory stays bounded by one round's span count.
            if let Some((stream, _)) = obs_stream.as_mut() {
                stream.flush_spans(sim.obs_mut());
            }
            if let Some(new_readings) = self.reading_schedule.get(usize::from(round) - 1) {
                for (i, &r) in new_readings.iter().enumerate().skip(1) {
                    sim.app_mut(NodeId::new(i as u32)).set_reading(r);
                }
                current_readings = new_readings.clone();
            }
            last_truth = truth_over(&current_readings, &eligible_of(round));
            round_truths.push(last_truth);
        }
        let deadline = SimTime::ZERO
            + config.schedule.decision_time() * u64::from(config.rounds)
            + SimDuration::from_secs(1);
        sim.run_until(deadline);

        // Detach the observability registry, which already holds the
        // protocol counters: close still-open spans at the virtual end
        // time and fold the run-level liveness gauge and loss totals in,
        // so one registry describes the whole run. With observability
        // off this is one branch.
        let mut obs = sim.take_obs();
        if obs.enabled() {
            obs.finish(sim.now().as_nanos());
            obs.gauge_set("sim.min_alive", sim.metrics().min_alive() as i64);
            // Per-cause loss totals, for the `icpda obs report` loss
            // breakdown table.
            let m = sim.metrics();
            obs.add("sim_lost_collision", m.total_lost(LossCause::Collision));
            obs.add("sim_lost_stochastic", m.total_lost(LossCause::Stochastic));
            obs.add("sim_lost_half_duplex", m.total_lost(LossCause::HalfDuplex));
            obs.add("sim_lost_mac_drop", m.total_lost(LossCause::MacDrop));
            obs.add(
                "sim_lost_receiver_down",
                m.total_lost(LossCause::ReceiverDown),
            );
            obs.add("sim_lost_corrupt", m.total_lost(LossCause::Corrupt));
            if !self.adversary_plan.is_empty() {
                obs.gauge_set(
                    "icpda.adversaries",
                    self.adversary_plan.compromised_count() as i64,
                );
            }
        }

        // Pool the colluders' round state and run the published m−1
        // reconstruction. Skipped entirely (no harvest, no report) when
        // the plan names no colluder.
        let collusion = if self.adversary_plan.colluders().next().is_some() {
            let views: BTreeMap<NodeId, CollusionView> = sim
                .apps()
                .filter(|(id, _)| *id != NodeId::new(0))
                .map(|(id, app)| (id, app.collusion_view()))
                .collect();
            Some(evaluate_collusion(
                &self.adversary_plan,
                &views,
                config.function,
            ))
        } else {
            None
        };

        let decisions = sim.app(NodeId::new(0)).decisions().to_vec();
        let decision = decisions.last().cloned().expect(
            "invariant: the base station's decision timer fires before the session deadline",
        );
        let mut heads = 0usize;
        let mut members = 0usize;
        let mut orphans = 0usize;
        let mut included = 0usize;
        let mut rosters = Vec::new();
        let mut cluster_sizes = Vec::new();
        for (id, app) in sim.apps() {
            if id == NodeId::new(0) {
                continue;
            }
            match app.role() {
                Role::Head => {
                    heads += 1;
                    if let Some(r) = app.roster() {
                        cluster_sizes.push(r.len());
                    }
                    // A reading is "included" when its cluster head solved:
                    // the head's aggregate is what travels upstream.
                    if let Some(agg) = app.cluster_aggregate() {
                        included += agg.participants as usize;
                    }
                }
                Role::Member(_) => members += 1,
                Role::Orphan => orphans += 1,
                Role::Undecided => {}
            }
            if app.shared() {
                if let Some(r) = app.roster() {
                    rosters.push((id, r.clone()));
                }
            }
        }
        let eligible = eligible_of(config.rounds - 1)
            .iter()
            .filter(|&&e| e)
            .count();
        let degraded = (decision.participants as usize) < eligible;

        // Close the streaming export: finish the trace sink, dump the
        // flight recorder if the run warrants it, write the engine
        // profile, then let the stream write `manifest.json` +
        // `metrics.jsonl`. Failures land in the outcome, not a panic —
        // the protocol result is valid regardless of exporter I/O.
        let stream = obs_stream.map(|(stream, manifest)| {
            let mut error = stream_error.take();
            let set_err = |err: &mut Option<String>, what: &str, e: std::io::Error| {
                if err.is_none() {
                    *err = Some(format!("{what}: {e}"));
                }
            };
            let dir = stream.dir().to_path_buf();
            let (trace_records, trace_bytes) = match sim.finish_trace_stream() {
                Some((records, bytes, io_err)) => {
                    if let Some(e) = io_err {
                        set_err(&mut error, "trace.jsonl", e);
                    }
                    (records, bytes)
                }
                None => (0, 0),
            };
            // The flight recorder dumps on anything diagnostic-worthy:
            // a degraded round, a rejected decision, or raised alarms
            // (adversary detection).
            let mut flight_dumped = false;
            if degraded || !decision.accepted || !decision.alarms.is_empty() {
                if let Some(flight) = sim.trace().flight() {
                    if !flight.is_empty() {
                        match stream.write_artifact("flight.jsonl", &flight.dump_jsonl()) {
                            Ok(()) => flight_dumped = true,
                            Err(e) => set_err(&mut error, "flight.jsonl", e),
                        }
                    }
                }
            }
            let mut profile_written = false;
            if sim.config().profile {
                let profile = sim.engine_profile();
                match stream.write_artifact("profile.jsonl", &profile.to_jsonl()) {
                    Ok(()) => profile_written = true,
                    Err(e) => set_err(&mut error, "profile.jsonl", e),
                }
            }
            let (spans, span_bytes) = match stream.finish(&manifest, &mut obs) {
                Ok(stats) => (stats.spans, stats.span_bytes),
                Err(e) => {
                    set_err(&mut error, "obs stream finish", e);
                    (obs.spans_drained(), 0)
                }
            };
            StreamOutcome {
                dir,
                spans,
                span_bytes,
                trace_records,
                trace_bytes,
                flight_dumped,
                profile_written,
                error,
            }
        });

        let metrics = sim.metrics();
        IcpdaOutcome {
            truth: last_truth,
            round_truths,
            eligible,
            min_alive: metrics.min_alive(),
            value: decision.value,
            participants: decision.participants,
            accepted: decision.accepted,
            degraded,
            alarms: decision.alarms.clone(),
            decision,
            decisions,
            heads,
            members,
            orphans,
            included,
            cluster_sizes,
            rosters,
            clusters_solved: obs.counter("icpda_head_solved"),
            total_bytes: metrics.total_bytes_sent(),
            total_frames: metrics.total_frames_sent(),
            energy_mj: metrics.total_energy_mj(),
            collisions: metrics.total_lost(LossCause::Collision),
            last_update: sim.app(NodeId::new(0)).last_update(),
            finished_at: sim.now(),
            user_counters: obs.counters().collect(),
            collusion,
            obs,
            stream,
        }
    }
}

/// Summary of a streaming obs export (see [`IcpdaRun::with_obs_stream`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamOutcome {
    /// The obs directory written.
    pub dir: PathBuf,
    /// Spans streamed into `spans.jsonl`.
    pub spans: u64,
    /// Bytes of `spans.jsonl`.
    pub span_bytes: u64,
    /// Trace entries streamed into `trace.jsonl`.
    pub trace_records: u64,
    /// Bytes of `trace.jsonl`.
    pub trace_bytes: u64,
    /// Whether `flight.jsonl` was dumped (degraded round, rejected
    /// decision or raised alarms, with a flight recorder attached).
    pub flight_dumped: bool,
    /// Whether `profile.jsonl` was written ([`SimConfig::profile`]).
    pub profile_written: bool,
    /// The first export I/O failure, if any. The protocol outcome is
    /// valid regardless; only the artefact files are suspect.
    pub error: Option<String>,
}

/// Everything one round produced.
#[derive(Clone, Debug)]
pub struct IcpdaOutcome {
    /// The base station's decision for the final round.
    pub decision: BsDecision,
    /// Every round's decision, in order (one entry unless
    /// [`crate::IcpdaConfig::rounds`] > 1).
    pub decisions: Vec<BsDecision>,
    /// Ground truth per round (tracks the reading schedule).
    pub round_truths: Vec<f64>,
    /// Decoded statistic at the base station (final round).
    pub value: f64,
    /// Ground truth over the final round's *eligible* sensors — deployed,
    /// not quarantined, and alive at that round's sensing time (see
    /// `round_truths` for earlier rounds).
    pub truth: f64,
    /// Sensors eligible to contribute to the final round (alive at its
    /// sensing time and not quarantined; the base station not counted).
    pub eligible: usize,
    /// Minimum number of simultaneously-alive nodes over the whole run
    /// (base station included).
    pub min_alive: usize,
    /// Sensors the base station's totals claim to include.
    pub participants: u32,
    /// Whether the round was accepted (no alarms).
    pub accepted: bool,
    /// Whether the final round completed *degraded*: the retry budgets
    /// ran out before every eligible sensor's reading reached the base
    /// station, so the accepted aggregate is partial (coverage < 1).
    /// Graceful degradation, not failure — the round still decides.
    pub degraded: bool,
    /// Alarms delivered to the base station.
    pub alarms: Vec<(NodeId, NodeId)>,
    /// Self-elected cluster heads.
    pub heads: usize,
    /// Nodes that joined a cluster.
    pub members: usize,
    /// Nodes that heard the query but could not participate.
    pub orphans: usize,
    /// Nodes whose reading ended up in a solved cluster aggregate.
    pub included: usize,
    /// Sizes of all formed clusters (per head).
    pub cluster_sizes: Vec<usize>,
    /// `(node, roster)` for every node that transmitted shares — input
    /// to [`crate::privacy::evaluate_disclosure`].
    pub rosters: Vec<(NodeId, Roster)>,
    /// Clusters whose aggregate was successfully recovered.
    pub clusters_solved: u64,
    /// Total on-air bytes (the overhead figure).
    pub total_bytes: u64,
    /// Total frames transmitted.
    pub total_frames: u64,
    /// Total energy, millijoules.
    pub energy_mj: f64,
    /// Receptions lost to collisions.
    pub collisions: u64,
    /// When the base station last absorbed an upstream report.
    pub last_update: Option<wsn_sim::SimTime>,
    /// Virtual end time of the run.
    pub finished_at: wsn_sim::SimTime,
    /// All counters of [`IcpdaOutcome::obs`], in name order: the
    /// protocol counters, plus (at `ObsLevel::Full`) the `engine.*` and
    /// `sim_lost_*` counters.
    pub user_counters: Vec<(&'static str, u64)>,
    /// The collusion evaluation, present iff the adversary plan named at
    /// least one [`crate::adversary::Behavior::ColludePrivacy`] node.
    pub collusion: Option<CollusionReport>,
    /// The run's observability registry (spans, counters, gauges,
    /// histograms). Only the protocol counters unless
    /// `SimConfig::obs_level` was raised; see
    /// [`icpda_obs`](wsn_sim::Obs) and DESIGN §12. With a stream
    /// attached, completed spans have already left the registry — see
    /// `stream` and [`icpda_obs::Obs::spans_drained`].
    pub obs: Obs,
    /// Summary of the streaming export, present iff
    /// [`IcpdaRun::with_obs_stream`] was used.
    pub stream: Option<StreamOutcome>,
}

impl IcpdaOutcome {
    /// The paper's accuracy metric for this round.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        accuracy_ratio(self.value, self.truth)
    }

    /// Fraction of eligible sensors whose readings reached the base
    /// station's final-round totals — the per-round coverage the churn
    /// experiment reports.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.eligible == 0 {
            0.0
        } else {
            (f64::from(self.participants) / self.eligible as f64).min(1.0)
        }
    }

    /// Fraction of sensors that participated in the aggregate.
    #[must_use]
    pub fn participation(&self) -> f64 {
        let n = self.heads + self.members + self.orphans;
        if n == 0 {
            0.0
        } else {
            self.included as f64 / n as f64
        }
    }

    /// The cluster heads among [`IcpdaOutcome::rosters`] (heads that
    /// formed a cluster and shared), in node order — the usual targets of
    /// a compromised-head attack.
    pub fn sharing_heads(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.rosters
            .iter()
            .filter_map(|(node, roster)| (roster.head() == *node).then_some(*node))
    }

    /// Mean cluster size.
    #[must_use]
    pub fn mean_cluster_size(&self) -> f64 {
        if self.cluster_sizes.is_empty() {
            0.0
        } else {
            self.cluster_sizes.iter().sum::<usize>() as f64 / self.cluster_sizes.len() as f64
        }
    }
}
