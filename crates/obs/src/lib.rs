//! # icpda-obs — unified observability for the iCPDA reproduction
//!
//! The run's one counter registry, zero-cost-when-off spans, gauges and
//! histograms, a deterministic streaming JSONL exporter and a report
//! renderer. The simulator engine (`wsn-sim`) and the protocol layer
//! (`icpda-core`) record into an [`Obs`] registry; the CLI and bench
//! harness stream it into an *obs directory*:
//!
//! * `manifest.json` — run configuration, seed, git revision, thread count
//!   and a [`export::OBS_SCHEMA_VERSION`] stamp,
//! * `spans.jsonl` — one line per completed [`Span`] (protocol phases and
//!   engine episodes), with sim-time duration and message/byte/energy
//!   deltas,
//! * `metrics.jsonl` — one line per counter, gauge and histogram.
//!
//! ## Cost model
//!
//! Counters count at every level: the protocol's per-message accounting
//! (shares sent, FSums resent, alarms raised, ...) lives here and only
//! here, so an [`ObsLevel::Off`] registry holds exactly those counters.
//! The counters form one closed table, [`Counter`]: the registry keeps
//! one slot per counter, so a bump is an array index, not a name search.
//! Spans, gauges and histograms are guarded like `wsn_sim::TraceLevel`:
//! every recording site checks [`Obs::enabled`] *before* computing a
//! snapshot or constructing any argument, so at `Off` (the default) such
//! an instrumentation point costs one branch and zero allocations. The
//! registry itself allocates nothing at construction — the counter
//! slots are inline, and empty `BTreeMap`s and `Vec`s have no heap
//! footprint.
//!
//! ## Determinism
//!
//! Counters export in slot order, which is the byte order of their
//! names; gauges and histograms are keyed by `&'static str` names in
//! `BTreeMap`s (stable iteration order); spans are stored in completion
//! order of the single-threaded simulator. So exported
//! `spans.jsonl`/`metrics.jsonl` are byte-identical for a given seed at
//! any harness thread count. Only `manifest.json` records environment
//! facts (threads, git revision).

#![forbid(unsafe_code)]

mod counter;
pub mod export;
pub mod json;
pub mod profile;
pub mod redact;
pub mod report;
pub mod stream;

use std::collections::BTreeMap;

pub use counter::Counter;

/// How much the observability layer records. Mirrors
/// `wsn_sim::TraceLevel`: recording sites guard with [`Obs::enabled`],
/// so at `Off` a span, gauge or histogram point is one branch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsLevel {
    /// Count protocol counters only (the default; every other
    /// instrumentation point costs one branch).
    #[default]
    Off,
    /// Additionally record protocol-phase spans and gauges, and the
    /// engine internals: delivery-batch histograms, MAC-drop and
    /// timer-churn counters, fault-transition spans.
    Full,
}

/// A point-in-time accounting snapshot for one node, taken at span start
/// and end; the span records the (saturating) deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Frames sent + received + overheard by the node so far.
    pub messages: u64,
    /// Bytes sent + received by the node so far.
    pub bytes: u64,
    /// Total energy spent by the node so far, in nanojoules.
    pub energy_nj: u64,
}

impl SpanSnapshot {
    fn delta(self, since: SpanSnapshot) -> SpanSnapshot {
        SpanSnapshot {
            messages: self.messages.saturating_sub(since.messages),
            bytes: self.bytes.saturating_sub(since.bytes),
            energy_nj: self.energy_nj.saturating_sub(since.energy_nj),
        }
    }
}

/// One completed span: a named interval of simulated time on one node,
/// with the message/byte/energy deltas accrued inside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Static span name, e.g. `phase.cluster_formation`.
    pub name: &'static str,
    /// The node the span belongs to.
    pub node: u32,
    /// Span start, in sim-time nanoseconds.
    pub start_ns: u64,
    /// Span end, in sim-time nanoseconds.
    pub end_ns: u64,
    /// Frames handled by the node during the span.
    pub messages: u64,
    /// Bytes sent/received by the node during the span.
    pub bytes: u64,
    /// Energy spent by the node during the span, in nanojoules.
    pub energy_nj: u64,
}

impl Span {
    /// Span duration in sim-time nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A fixed-bucket histogram. Bucket upper bounds are a static slice
/// supplied at the recording site; values above the last bound land in
/// an implicit overflow bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot += 1;
        }
        self.total += 1;
        self.sum += value;
    }

    /// Bucket upper bounds (the overflow bucket is implicit).
    #[must_use]
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket counts; one longer than [`Self::bounds`] (the last
    /// entry is the overflow bucket).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// Estimates the `q`-quantile (`0.0..=1.0`) of a [`Histogram`] from its
/// exported bucket data, as the `metrics.jsonl` reader
/// (`report::MetricRow`) holds it: linear interpolation inside the
/// containing bucket. Values in the overflow bucket are attributed to
/// the last bound (a lower bound on the true quantile). Returns 0 for
/// an empty histogram. `counts` is one longer than `bounds` (overflow
/// last); `total` is the observation count.
#[must_use]
pub fn quantile_from_buckets(bounds: &[u64], counts: &[u64], total: u64, q: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let before = cum;
        cum += c;
        if cum >= rank {
            let lower = if i == 0 { 0 } else { bounds[i - 1] };
            return match bounds.get(i) {
                Some(&upper) => {
                    let frac = (rank - before) as f64 / c as f64;
                    lower as f64 + (upper as f64 - lower as f64) * frac
                }
                // Overflow bucket: unbounded above, report its floor.
                None => bounds.last().copied().unwrap_or(0) as f64,
            };
        }
    }
    bounds.last().copied().unwrap_or(0) as f64
}

/// The span/metrics registry. See the crate docs for the cost model.
#[derive(Clone, Debug)]
pub struct Obs {
    level: ObsLevel,
    /// One slot per [`Counter`]; `None` until the counter is first
    /// touched, so export lists exactly the touched counters (a bump by
    /// zero included).
    counters: [Option<u64>; Counter::COUNT],
    gauges: BTreeMap<&'static str, i64>,
    hists: BTreeMap<&'static str, Histogram>,
    spans: Vec<Span>,
    open: BTreeMap<(&'static str, u32), (u64, SpanSnapshot)>,
    /// Spans already handed to a streaming exporter via
    /// [`Obs::drain_spans`]; `spans_total` still reports them.
    drained: u64,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new(ObsLevel::Off)
    }
}

impl Obs {
    /// Creates a registry at `level`. Allocates nothing until the first
    /// record.
    #[must_use]
    pub fn new(level: ObsLevel) -> Self {
        Obs {
            level,
            counters: [None; Counter::COUNT],
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            spans: Vec::new(),
            open: BTreeMap::new(),
            drained: 0,
        }
    }

    /// A disabled registry (same as `Obs::default()`).
    #[must_use]
    pub fn off() -> Self {
        Obs::default()
    }

    /// The configured level.
    #[must_use]
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// Whether spans, gauges and histograms are recorded. Recording
    /// sites guard with this *before* computing snapshots so a disabled
    /// site costs one branch.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.level > ObsLevel::Off
    }

    /// Increments `counter` by one (at every level).
    pub fn inc(&mut self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Adds `delta` to `counter` (at every level). A `delta` of zero
    /// still marks the counter touched, so it is exported.
    pub fn add(&mut self, counter: Counter, delta: u64) {
        *self.counters[counter as usize].get_or_insert(0) += delta;
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &'static str, value: i64) {
        if self.level == ObsLevel::Off {
            return;
        }
        self.gauges.insert(name, value);
    }

    /// Records `value` into the fixed-bucket histogram `name`. The
    /// bounds of the first call stick; later calls reuse them.
    pub fn observe(&mut self, name: &'static str, bounds: &'static [u64], value: u64) {
        if self.level == ObsLevel::Off {
            return;
        }
        self.hists
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Opens span `(name, node)` at `now_ns` with accounting snapshot
    /// `at`. If the span is already open this is a no-op (the first
    /// opening wins), keeping re-entrant protocol handlers simple.
    pub fn span_start(&mut self, name: &'static str, node: u32, now_ns: u64, at: SpanSnapshot) {
        if self.level == ObsLevel::Off {
            return;
        }
        self.open.entry((name, node)).or_insert((now_ns, at));
    }

    /// Closes span `(name, node)` at `now_ns`, recording the deltas
    /// against the opening snapshot. A no-op if the span is not open.
    pub fn span_end(&mut self, name: &'static str, node: u32, now_ns: u64, at: SpanSnapshot) {
        if self.level == ObsLevel::Off {
            return;
        }
        if let Some((start_ns, since)) = self.open.remove(&(name, node)) {
            let d = at.delta(since);
            self.spans.push(Span {
                name,
                node,
                start_ns,
                end_ns: now_ns.max(start_ns),
                messages: d.messages,
                bytes: d.bytes,
                energy_nj: d.energy_nj,
            });
        }
    }

    /// Whether span `(name, node)` is currently open.
    #[must_use]
    pub fn span_open(&self, name: &'static str, node: u32) -> bool {
        self.open.contains_key(&(name, node))
    }

    /// Closes every still-open span at `now_ns` with zero deltas (the
    /// per-node end snapshots are no longer available). Call once when a
    /// run ends so truncated episodes (e.g. a crash-stop outage) still
    /// export their duration.
    pub fn finish(&mut self, now_ns: u64) {
        if self.level == ObsLevel::Off {
            return;
        }
        // BTreeMap order keys the drain, so the tail of `spans` is
        // deterministic too.
        let open = std::mem::take(&mut self.open);
        for ((name, node), (start_ns, _)) in open {
            self.spans.push(Span {
                name,
                node,
                start_ns,
                end_ns: now_ns.max(start_ns),
                messages: 0,
                bytes: 0,
                energy_nj: 0,
            });
        }
    }

    /// The value of `counter`, zero if never touched.
    #[must_use]
    pub fn count(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].unwrap_or(0)
    }

    /// The counter exported as `name`, zero if never touched or not in
    /// the [`Counter`] table.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        Counter::from_name(name).map_or(0, |c| self.count(c))
    }

    /// Every touched counter, with its exported name, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL
            .iter()
            .zip(&self.counters)
            .filter_map(|(c, v)| v.map(|v| (c.name(), v)))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(k, v)| (*k, v))
    }

    /// Completed spans, in completion order.
    ///
    /// After a streaming export drained the registry this only holds the
    /// not-yet-drained tail; see [`Obs::spans_total`] for the full count.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drains the completed spans for incremental export, keeping count.
    /// The order of the drained items is completion order — exactly the
    /// order [`export::spans_jsonl`] would have rendered them in — so a
    /// streaming writer that consumes every drain produces byte-identical
    /// `spans.jsonl` output to the in-memory renderer.
    pub fn drain_spans(&mut self) -> std::vec::Drain<'_, Span> {
        self.drained += self.spans.len() as u64;
        self.spans.drain(..)
    }

    /// Spans handed to a streaming exporter so far.
    #[must_use]
    pub fn spans_drained(&self) -> u64 {
        self.drained
    }

    /// Total completed spans: drained plus still retained.
    #[must_use]
    pub fn spans_total(&self) -> u64 {
        self.drained + self.spans.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(messages: u64, bytes: u64, energy_nj: u64) -> SpanSnapshot {
        SpanSnapshot {
            messages,
            bytes,
            energy_nj,
        }
    }

    #[test]
    fn off_registry_keeps_counters_and_records_nothing_else() {
        let mut obs = Obs::off();
        assert_eq!(ObsLevel::default(), ObsLevel::Off);
        assert!(!obs.enabled());
        obs.inc(Counter::ShareSent);
        obs.gauge_set("g", 3);
        obs.observe("h", &[1, 2], 1);
        obs.span_start("s", 1, 10, snap(0, 0, 0));
        obs.span_end("s", 1, 20, snap(1, 1, 1));
        obs.finish(30);
        assert_eq!(
            obs.counters().collect::<Vec<_>>(),
            vec![("icpda_share_sent", 1)]
        );
        assert_eq!(obs.gauges().count(), 0);
        assert_eq!(obs.histograms().count(), 0);
        assert!(obs.spans().is_empty());
        // No span storage was ever grown.
        assert_eq!(obs.spans.capacity(), 0);
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let mut obs = Obs::new(ObsLevel::Full);
        obs.inc(Counter::AuditClean);
        obs.add(Counter::AuditClean, 4);
        obs.gauge_set("g", -2);
        obs.gauge_set("g", 7);
        obs.observe("h", &[1, 4, 16], 0);
        obs.observe("h", &[1, 4, 16], 4);
        obs.observe("h", &[1, 4, 16], 100);
        assert_eq!(obs.count(Counter::AuditClean), 5);
        assert_eq!(obs.counter("icpda_audit_clean"), 5);
        assert_eq!(obs.count(Counter::AuditPartial), 0);
        assert_eq!(obs.counter("missing"), 0);
        assert_eq!(obs.gauges().collect::<Vec<_>>(), vec![("g", 7)]);
        let (_, h) = obs.histograms().next().expect("histogram");
        assert_eq!(h.counts(), &[1, 1, 0, 1]);
        assert_eq!(h.total(), 3);
        assert_eq!(h.sum(), 104);
    }

    #[test]
    fn counters_export_every_touched_slot_in_name_order() {
        let mut obs = Obs::off();
        // Touched out of name order, one of them by zero.
        obs.add(Counter::SimLostCorrupt, 0);
        obs.inc(Counter::ShareSent);
        obs.add(Counter::EngineMacDrops, 3);
        assert_eq!(
            obs.counters().collect::<Vec<_>>(),
            vec![
                ("engine.mac_drops", 3),
                ("icpda_share_sent", 1),
                ("sim_lost_corrupt", 0),
            ]
        );
        assert_eq!(obs.count(Counter::SimLostCorrupt), 0);
    }

    #[test]
    fn span_lifecycle_records_deltas() {
        let mut obs = Obs::new(ObsLevel::Full);
        obs.span_start("phase.x", 3, 100, snap(10, 500, 9_000));
        assert!(obs.span_open("phase.x", 3));
        // Re-opening is a no-op: the first start wins.
        obs.span_start("phase.x", 3, 999, snap(99, 999, 99_999));
        obs.span_end("phase.x", 3, 400, snap(14, 900, 12_500));
        assert!(!obs.span_open("phase.x", 3));
        assert_eq!(
            obs.spans(),
            &[Span {
                name: "phase.x",
                node: 3,
                start_ns: 100,
                end_ns: 400,
                messages: 4,
                bytes: 400,
                energy_nj: 3_500,
            }]
        );
        assert_eq!(obs.spans()[0].duration_ns(), 300);
        // Ending a span that is not open is a no-op.
        obs.span_end("phase.x", 3, 500, snap(0, 0, 0));
        assert_eq!(obs.spans().len(), 1);
    }

    #[test]
    fn finish_closes_open_spans_with_zero_deltas() {
        let mut obs = Obs::new(ObsLevel::Full);
        obs.span_start("engine.outage", 5, 50, snap(1, 2, 3));
        obs.finish(80);
        assert_eq!(obs.spans().len(), 1);
        let s = obs.spans()[0];
        assert_eq!((s.start_ns, s.end_ns), (50, 80));
        assert_eq!((s.messages, s.bytes, s.energy_nj), (0, 0, 0));
        assert!(!obs.span_open("engine.outage", 5));
    }
}
