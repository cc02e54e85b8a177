//! Engine self-profiling: wall-clock attribution of the event loop.
//!
//! When [`SimConfig::profile`] is set, the engine timestamps each
//! `next_event` iteration and attributes the wall time to the pop (the
//! calendar lookup) and to the dispatched phase. The result is written
//! as `profile.jsonl` and rendered by `icpda obs profile` (top-k hot
//! sections, gauges, RSS high-water).
//!
//! **Determinism:** this module is the *only* place in `wsn-sim` that
//! touches the host clock, and the readings flow exclusively into
//! [`EngineProfile`] → `profile.jsonl` — a host-facts artefact like
//! `BENCH_*.json`, never byte-compared across runs (DESIGN §10). The
//! simulation itself never observes a [`Stamp`]: profiling changes what
//! is measured, not what is simulated, so traces stay byte-identical
//! with profiling on or off. Rule XL008 proves the flow claim; the
//! `Instant` mentions here carry an XL001 allowlist entry.
//!
//! [`SimConfig::profile`]: crate::sim::SimConfig::profile

use std::time::Instant;

/// Dispatch-phase labels, indexed by [`phase index`](EngineProfiler::lap_dispatch).
/// Order mirrors the engine's `EventKind` variants.
pub const DISPATCH_PHASES: [&str; 6] = [
    "timer",
    "mac_attempt",
    "tx_end",
    "delivery",
    "fault_edge",
    "redelivery",
];

/// An opaque host-clock reading handed back to the profiler. A disabled
/// profiler issues empty stamps, so the hot path pays one branch and no
/// clock syscall when profiling is off.
#[derive(Clone, Copy, Debug)]
pub struct Stamp(Option<Instant>);

impl Stamp {
    /// The empty stamp (profiling disabled).
    #[must_use]
    pub const fn none() -> Self {
        Stamp(None)
    }
}

/// Accumulates wall-clock attribution during a run.
#[derive(Clone, Debug, Default)]
pub struct EngineProfiler {
    enabled: bool,
    pop_ns: u64,
    pops: u64,
    dispatch_ns: [u64; 6],
    dispatch_events: [u64; 6],
    peak_queue: usize,
    /// Whole-run sections timed outside the event loop
    /// (`setup.neighbor_build` etc.): `(name, events, wall_ns)`.
    external: Vec<(String, u64, u64)>,
}

impl EngineProfiler {
    /// A profiler; a disabled one costs one branch per event.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        EngineProfiler {
            enabled,
            ..EngineProfiler::default()
        }
    }

    /// Whether attribution is being collected.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a `next_event` iteration. Returns the empty stamp when
    /// disabled.
    #[must_use]
    pub fn lap_start(&self) -> Stamp {
        if self.enabled {
            Stamp(Some(Instant::now()))
        } else {
            Stamp::none()
        }
    }

    /// Closes the pop interval opened by `lap_start`, sampling the
    /// queue length for the occupancy gauge. Returns the stamp opening
    /// the dispatch interval.
    #[must_use]
    pub fn lap_pop(&mut self, stamp: Stamp, queue_len: usize) -> Stamp {
        let Some(t0) = stamp.0 else {
            return Stamp::none();
        };
        let now = Instant::now();
        self.pop_ns += now.duration_since(t0).as_nanos() as u64;
        self.pops += 1;
        self.peak_queue = self.peak_queue.max(queue_len);
        Stamp(Some(now))
    }

    /// Closes the dispatch interval opened by [`EngineProfiler::lap_pop`],
    /// attributing it to dispatch phase `phase` (an index into
    /// [`DISPATCH_PHASES`]).
    pub fn lap_dispatch(&mut self, stamp: Stamp, phase: usize) {
        let Some(t1) = stamp.0 else {
            return;
        };
        let elapsed = t1.elapsed().as_nanos() as u64;
        if let Some(slot) = self.dispatch_ns.get_mut(phase) {
            *slot += elapsed;
            self.dispatch_events[phase] += 1;
        }
    }

    /// Records a whole-run section timed outside the event loop
    /// (repeated names accumulate).
    pub fn record_external(&mut self, name: &str, events: u64, wall_ns: u64) {
        if !self.enabled {
            return;
        }
        match self.external.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 += events;
                e.2 += wall_ns;
            }
            None => self.external.push((name.to_string(), events, wall_ns)),
        }
    }

    /// Freezes the attribution into a plain-data [`EngineProfile`].
    /// `events` is the engine's total processed-event count; `gauges`
    /// carries engine occupancy facts (arena/calendar) the profiler
    /// cannot see itself.
    #[must_use]
    pub fn finish(&self, events: u64, mut gauges: Vec<(String, i64)>) -> EngineProfile {
        let mut sections = Vec::new();
        if self.enabled {
            sections.push(("engine.next_event".to_string(), self.pops, self.pop_ns));
            for (p, label) in DISPATCH_PHASES.iter().enumerate() {
                if self.dispatch_events[p] > 0 {
                    sections.push((
                        format!("engine.dispatch.{label}"),
                        self.dispatch_events[p],
                        self.dispatch_ns[p],
                    ));
                }
            }
            gauges.push(("calendar.peak_len".to_string(), self.peak_queue as i64));
        }
        sections.extend(self.external.iter().cloned());
        EngineProfile {
            events,
            sections,
            gauges,
            rss_hwm_bytes: peak_rss_bytes(),
        }
    }
}

/// A finished profile: plain data, renderable as `profile.jsonl` (read
/// back by `icpda_obs::profile`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineProfile {
    /// Events the engine processed.
    pub events: u64,
    /// `(name, events, wall_ns)` attribution rows.
    pub sections: Vec<(String, u64, u64)>,
    /// Engine occupancy gauges (arena outstanding, calendar peaks, ...).
    pub gauges: Vec<(String, i64)>,
    /// Process peak RSS (VmHWM) at freeze time, if the platform exposes
    /// it.
    pub rss_hwm_bytes: Option<u64>,
}

impl EngineProfile {
    /// Renders the `profile.jsonl` text (meta line first, then sections,
    /// then gauges).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"kind\":\"meta\",\"schema_version\":{},\"events\":{}",
            icpda_obs::export::OBS_SCHEMA_VERSION,
            self.events
        );
        if let Some(rss) = self.rss_hwm_bytes {
            let _ = write!(out, ",\"rss_hwm_bytes\":{rss}");
        }
        out.push_str("}\n");
        for (name, events, wall_ns) in &self.sections {
            out.push_str("{\"kind\":\"section\",\"name\":\"");
            icpda_obs::json::escape_into(&mut out, name);
            let _ = writeln!(out, "\",\"events\":{events},\"wall_ns\":{wall_ns}}}");
        }
        for (name, value) in &self.gauges {
            out.push_str("{\"kind\":\"gauge\",\"name\":\"");
            icpda_obs::json::escape_into(&mut out, name);
            let _ = writeln!(out, "\",\"value\":{value}}}");
        }
        out
    }
}

/// Times a host-side section (deployment build, file load, ...) for
/// [`EngineProfiler::record_external`]. Returns the closure's value and
/// the elapsed wall nanoseconds.
pub fn time_host<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_nanos() as u64)
}

/// The process's peak resident set size (Linux `VmHWM`), in bytes.
/// `None` where `/proc/self/status` is unavailable. A host fact like
/// wall time: report it on stderr or in a host-facts artefact, never in
/// a deterministic one (the discipline rule XL008 enforces).
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_issues_empty_stamps_and_empty_profile() {
        let mut p = EngineProfiler::new(false);
        assert!(!p.enabled());
        let s = p.lap_start();
        let s = p.lap_pop(s, 10);
        p.lap_dispatch(s, 3);
        p.record_external("setup.neighbor_build", 1, 1_000_000);
        let profile = p.finish(99, Vec::new());
        assert!(profile.sections.is_empty());
        assert!(profile.gauges.is_empty());
        assert_eq!(profile.events, 99);
    }

    #[test]
    fn enabled_profiler_attributes_per_phase() {
        let mut p = EngineProfiler::new(true);
        for _ in 0..3 {
            let s = p.lap_start();
            let s = p.lap_pop(s, 7);
            p.lap_dispatch(s, 3); // delivery
        }
        let s = p.lap_start();
        let s = p.lap_pop(s, 2);
        p.lap_dispatch(s, 0); // timer
        p.record_external("setup.neighbor_build", 1, 5_000);
        let profile = p.finish(4, vec![("arena.peak_outstanding".into(), 12)]);

        let find = |name: &str| {
            profile
                .sections
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, events, _)| *events)
        };
        assert_eq!(find("engine.next_event"), Some(4));
        assert_eq!(find("engine.dispatch.delivery"), Some(3));
        assert_eq!(find("engine.dispatch.timer"), Some(1));
        // Phases with zero events are omitted; externals follow.
        assert_eq!(find("engine.dispatch.redelivery"), None);
        assert_eq!(find("setup.neighbor_build"), Some(1));
        // Occupancy gauges: caller-provided plus the queue peak.
        assert!(profile
            .gauges
            .iter()
            .any(|(n, v)| n == "calendar.peak_len" && *v == 7));
        assert!(profile
            .gauges
            .iter()
            .any(|(n, v)| n == "arena.peak_outstanding" && *v == 12));
    }

    #[test]
    fn profile_jsonl_round_trips_through_the_obs_reader() {
        let mut p = EngineProfiler::new(true);
        let s = p.lap_start();
        let s = p.lap_pop(s, 3);
        p.lap_dispatch(s, 1);
        let profile = p.finish(1, vec![("arena.peak_outstanding".into(), 2)]);
        let text = profile.to_jsonl();
        let run = icpda_obs::profile::parse_profile(&text).expect("parse back");
        assert_eq!(run.events, 1);
        assert_eq!(run.sections.len(), profile.sections.len());
        assert!(run
            .gauges
            .iter()
            .any(|(n, _)| n == "arena.peak_outstanding"));
        // This host exposes VmHWM, and the reader surfaces it.
        assert_eq!(run.rss_hwm_bytes, profile.rss_hwm_bytes);
        assert!(peak_rss_bytes().is_some());
    }

    #[test]
    fn time_host_measures_and_returns() {
        let (v, ns) = time_host(|| 41 + 1);
        assert_eq!(v, 42);
        let _ = ns; // non-negative by type; just proves the call shape
    }
}
