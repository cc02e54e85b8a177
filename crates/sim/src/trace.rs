//! Bounded event tracing.
//!
//! When enabled (see [`SimConfig::trace_capacity`]), the engine records
//! every link-layer event into a bounded ring buffer — the tool of first
//! resort when a protocol misbehaves on a particular topology ("did the
//! roster broadcast reach n42, and if not, who collided with it?").
//!
//! Tracing is off by default: the buffer costs memory and a few
//! nanoseconds per event, and the metrics counters answer most
//! aggregate questions more cheaply. The sink is leveled
//! ([`TraceLevel`]): `Off` records nothing and `Full` keeps the complete
//! per-frame record. The engine checks [`Trace::enabled`] before
//! building a [`TraceKind`], so disabled trace points cost one branch.
//!
//! Beyond the in-memory ring, two other consumers can be attached:
//!
//! * a **streaming sink** ([`Trace::set_stream`]) that writes each entry
//!   to `trace.jsonl` through a fixed-size reusable buffer, replacing the
//!   ring so full traces at N=50k stop being memory-bound — same
//!   renderer as [`Trace::to_jsonl`], so output is byte-identical;
//! * a **flight recorder** ([`Trace::set_flight`]) shadowing the last K
//!   rounds, dumped on degraded rounds, adversary detection, or panic.
//!
//! [`SimConfig::trace_capacity`]: crate::sim::SimConfig::trace_capacity

use crate::frame::Destination;
use crate::ids::NodeId;
use crate::metrics::LossCause;
use crate::time::SimTime;
use icpda_obs::stream::JsonlSink;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceKind {
    /// A frame was put on the air.
    FrameSent {
        /// Transmitting node.
        src: NodeId,
        /// Unicast target or broadcast.
        dest: Destination,
        /// Global frame sequence number.
        seq: u64,
        /// On-air bytes.
        bytes: usize,
    },
    /// A frame was delivered to an application.
    FrameDelivered {
        /// Receiving node.
        node: NodeId,
        /// Global frame sequence number.
        seq: u64,
        /// `true` if delivered as addressed recipient, `false` if
        /// overheard.
        addressed: bool,
    },
    /// A reception failed.
    FrameLost {
        /// The receiver that lost the frame.
        node: NodeId,
        /// Global frame sequence number.
        seq: u64,
        /// Why it was lost.
        cause: LossCause,
    },
    /// A node's MAC dropped a frame after exhausting its attempts.
    MacDrop {
        /// The sending node that gave up.
        node: NodeId,
    },
    /// An application timer fired.
    TimerFired {
        /// The node whose timer fired.
        node: NodeId,
        /// The application-chosen token.
        token: u64,
    },
    /// A node went down (crash-stop or outage start, see
    /// [`crate::fault::FaultPlan`]).
    NodeDown {
        /// The node that died.
        node: NodeId,
    },
    /// A node came back up (outage end).
    NodeUp {
        /// The node that recovered.
        node: NodeId,
    },
    /// A compromised node exercised a malicious behaviour (see
    /// `icpda::adversary`). Like node up/down edges, these sparse causes
    /// explain counter anomalies.
    /// The `code` is the application-defined behaviour discriminant.
    AdversaryAction {
        /// The misbehaving node.
        node: NodeId,
        /// Application-defined behaviour code.
        code: u8,
    },
}

/// One traced event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEntry {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// How much the trace sink consumes. The engine's hot paths check
/// [`Trace::enabled`] *before* constructing a [`TraceKind`], so a
/// disabled trace point costs one branch and zero allocations/copies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing (equivalent to a zero-capacity buffer).
    Off,
    /// Record every link-layer event (the default when a capacity is
    /// configured).
    #[default]
    Full,
}

/// The string tag a [`LossCause`] renders as in `trace.jsonl`.
#[must_use]
pub fn loss_cause_str(cause: LossCause) -> &'static str {
    match cause {
        LossCause::Collision => "collision",
        LossCause::Stochastic => "stochastic",
        LossCause::HalfDuplex => "half_duplex",
        LossCause::MacDrop => "mac_drop",
        LossCause::ReceiverDown => "receiver_down",
        LossCause::Corrupt => "corrupt",
    }
}

fn write_entry_fields(out: &mut String, e: &TraceEntry) {
    let t = e.time.as_nanos();
    let _ = match e.kind {
        TraceKind::FrameSent {
            src,
            dest,
            seq,
            bytes,
        } => {
            let _ = write!(
                out,
                "\"t\":{t},\"kind\":\"frame_sent\",\"src\":{},\"dest\":",
                src.as_u32()
            );
            match dest {
                Destination::Unicast(d) => write!(out, "{}", d.as_u32()),
                Destination::Broadcast => write!(out, "\"bcast\""),
            }
            .and_then(|()| write!(out, ",\"seq\":{seq},\"bytes\":{bytes}"))
        }
        TraceKind::FrameDelivered {
            node,
            seq,
            addressed,
        } => write!(
            out,
            "\"t\":{t},\"kind\":\"frame_delivered\",\"node\":{},\"seq\":{seq},\"addressed\":{addressed}",
            node.as_u32()
        ),
        TraceKind::FrameLost { node, seq, cause } => write!(
            out,
            "\"t\":{t},\"kind\":\"frame_lost\",\"node\":{},\"seq\":{seq},\"cause\":\"{}\"",
            node.as_u32(),
            loss_cause_str(cause)
        ),
        TraceKind::MacDrop { node } => write!(
            out,
            "\"t\":{t},\"kind\":\"mac_drop\",\"node\":{}",
            node.as_u32()
        ),
        TraceKind::TimerFired { node, token } => write!(
            out,
            "\"t\":{t},\"kind\":\"timer_fired\",\"node\":{},\"token\":{token}",
            node.as_u32()
        ),
        TraceKind::NodeDown { node } => write!(
            out,
            "\"t\":{t},\"kind\":\"node_down\",\"node\":{}",
            node.as_u32()
        ),
        TraceKind::NodeUp { node } => write!(
            out,
            "\"t\":{t},\"kind\":\"node_up\",\"node\":{}",
            node.as_u32()
        ),
        TraceKind::AdversaryAction { node, code } => write!(
            out,
            "\"t\":{t},\"kind\":\"adversary_action\",\"node\":{},\"code\":{code}",
            node.as_u32()
        ),
    };
}

/// Appends one `trace.jsonl` line (newline included) for `e` to `out`.
///
/// This is the *single* trace-entry renderer — the in-memory ring's
/// [`Trace::to_jsonl`] and the streaming sink both call it, so streamed
/// and buffered trace output is byte-identical by construction. It
/// allocates nothing: everything is written into the caller's buffer.
pub fn write_entry_line(out: &mut String, e: &TraceEntry) {
    out.push('{');
    write_entry_fields(out, e);
    out.push_str("}\n");
}

/// Like [`write_entry_line`] but with a leading `round` field — the
/// flight-recorder dump format.
pub fn write_entry_line_in_round(out: &mut String, round: u32, e: &TraceEntry) {
    let _ = write!(out, "{{\"round\":{round},");
    write_entry_fields(out, e);
    out.push_str("}\n");
}

/// Per-round cap on flight-recorder entries. A degraded round at N=50k
/// can carry hundreds of thousands of frame events; the recorder exists
/// to answer "what happened just before things went wrong", so it keeps
/// the *first* entries of each round and counts the rest as dropped.
pub const FLIGHT_ROUND_CAP: usize = 4096;

/// A bounded ring of the last K rounds' trace entries, kept alongside
/// (not instead of) the main sink. Dumped when a run degrades, an
/// adversary is detected, or the process panics — a crash-dump-style
/// diagnostic whose memory is bounded by `K × FLIGHT_ROUND_CAP` entries
/// regardless of run length.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    rounds: VecDeque<(u32, Vec<TraceEntry>)>,
    current: Vec<TraceEntry>,
    current_round: u32,
    keep: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `keep` completed rounds (plus the
    /// in-progress one). `keep` is raised to at least 1.
    #[must_use]
    pub fn new(keep: usize) -> Self {
        FlightRecorder {
            rounds: VecDeque::new(),
            current: Vec::new(),
            current_round: 1,
            keep: keep.max(1),
            dropped: 0,
        }
    }

    fn record(&mut self, e: TraceEntry) {
        if self.current.len() < FLIGHT_ROUND_CAP {
            self.current.push(e);
        } else {
            self.dropped += 1;
        }
    }

    /// Closes the in-progress round and starts the next, evicting the
    /// oldest completed round beyond the retention window.
    pub fn rotate(&mut self) {
        let done = std::mem::take(&mut self.current);
        self.rounds.push_back((self.current_round, done));
        if self.rounds.len() > self.keep {
            self.rounds.pop_front();
        }
        self.current_round += 1;
    }

    /// Completed rounds currently retained, oldest first, as
    /// `(round, entries)`.
    pub fn rounds(&self) -> impl Iterator<Item = (u32, &[TraceEntry])> {
        self.rounds.iter().map(|(r, v)| (*r, v.as_slice()))
    }

    /// The round currently being recorded.
    #[must_use]
    pub fn current_round(&self) -> u32 {
        self.current_round
    }

    /// Entries discarded because a round hit [`FLIGHT_ROUND_CAP`].
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `true` if nothing has been recorded since the last eviction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.current.is_empty() && self.rounds.iter().all(|(_, v)| v.is_empty())
    }

    /// Renders the retained window as `flight.jsonl` text: every entry of
    /// the last K completed rounds plus the in-progress round, each line
    /// carrying its `round`.
    #[must_use]
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for (round, entries) in self.rounds() {
            for e in entries {
                write_entry_line_in_round(&mut out, round, e);
            }
        }
        for e in &self.current {
            write_entry_line_in_round(&mut out, self.current_round, e);
        }
        out
    }
}

/// The engine's trace sink: a bounded ring buffer of [`TraceEntry`]
/// values (oldest evicted when full), optionally replaced by a streaming
/// [`JsonlSink`] and/or shadowed by a [`FlightRecorder`].
#[derive(Debug, Default)]
pub struct Trace {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    level: TraceLevel,
    evicted: u64,
    stream: Option<JsonlSink>,
    flight: Option<FlightRecorder>,
}

impl Trace {
    /// Creates a trace retaining at most `capacity` entries
    /// (0 disables recording entirely) at [`TraceLevel::Full`].
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Trace::with_level(capacity, TraceLevel::Full)
    }

    /// Creates a trace retaining at most `capacity` entries at `level`
    /// ([`TraceLevel::Off`] or a zero capacity both disable recording
    /// entirely).
    ///
    /// Invariant: a disabled sink owns no buffer. The level is fixed at
    /// construction, so `capacity > 0` with `TraceLevel::Off` can never
    /// record anything — reserving the ring up front would spend memory
    /// that `enabled() == false` promises is not spent. Construction
    /// therefore allocates exactly when `enabled()` holds.
    #[must_use]
    pub fn with_level(capacity: usize, level: TraceLevel) -> Self {
        let reserve = if capacity > 0 && level > TraceLevel::Off {
            capacity.min(1 << 20)
        } else {
            0
        };
        Trace {
            entries: VecDeque::with_capacity(reserve),
            capacity,
            level,
            evicted: 0,
            stream: None,
            flight: None,
        }
    }

    /// Whether any consumer — ring, stream, or flight recorder — is
    /// attached.
    fn sink_attached(&self) -> bool {
        self.capacity > 0 || self.stream.is_some() || self.flight.is_some()
    }

    /// Whether recording is enabled at all. The engine guards every
    /// trace point with this so [`TraceKind`] values are never even
    /// constructed for a disabled sink.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.sink_attached() && self.level > TraceLevel::Off
    }

    /// Attaches a streaming sink. Entries then flow to the file through
    /// the sink's reusable buffer **instead of** the in-memory ring —
    /// streaming exists so full traces stop being memory-bound, so
    /// retaining the ring alongside it would defeat the point. The
    /// flight recorder (if any) still shadows the last K rounds.
    pub fn set_stream(&mut self, sink: JsonlSink) {
        self.stream = Some(sink);
    }

    /// Attaches a flight recorder retaining the last `keep` rounds.
    pub fn set_flight(&mut self, keep: usize) {
        self.flight = Some(FlightRecorder::new(keep));
    }

    /// The flight recorder, if one is attached.
    #[must_use]
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Marks a round/epoch boundary: rotates the flight recorder's window
    /// and flushes the streaming sink so `trace.jsonl` is durable up to
    /// the last completed round. Observability-only — recording itself is
    /// unaffected.
    pub fn mark_round(&mut self) {
        if let Some(f) = self.flight.as_mut() {
            f.rotate();
        }
        if let Some(s) = self.stream.as_mut() {
            s.flush();
        }
    }

    /// Detaches and finishes the streaming sink, returning
    /// `(records, bytes, latched_error)`; `None` if no sink was attached.
    pub fn finish_stream(&mut self) -> Option<(u64, u64, Option<std::io::Error>)> {
        self.stream.take().map(|mut s| {
            s.flush();
            let err = s.take_error();
            (s.records(), s.bytes(), err)
        })
    }

    pub(crate) fn record(&mut self, time: SimTime, kind: TraceKind) {
        if !self.enabled() {
            return;
        }
        let e = TraceEntry { time, kind };
        if let Some(f) = self.flight.as_mut() {
            f.record(e);
        }
        if let Some(s) = self.stream.as_mut() {
            s.with_line(|buf| write_entry_line(buf, &e));
        } else if self.capacity > 0 {
            if self.entries.len() == self.capacity {
                self.entries.pop_front();
                self.evicted += 1;
            }
            self.entries.push_back(e);
        }
    }

    /// Number of retained entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted because the buffer was full.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Iterates over retained entries in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Retained entries involving `node` (as sender, receiver or timer
    /// owner).
    pub fn involving(&self, node: NodeId) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| match e.kind {
            TraceKind::FrameSent { src, dest, .. } => {
                src == node || dest == Destination::Unicast(node)
            }
            TraceKind::FrameDelivered { node: n, .. }
            | TraceKind::FrameLost { node: n, .. }
            | TraceKind::MacDrop { node: n }
            | TraceKind::TimerFired { node: n, .. }
            | TraceKind::NodeDown { node: n }
            | TraceKind::NodeUp { node: n }
            | TraceKind::AdversaryAction { node: n, .. } => n == node,
        })
    }

    /// The fate of frame `seq` at every receiver, in order.
    pub fn frame_fate(&self, seq: u64) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| match e.kind {
            TraceKind::FrameSent { seq: s, .. }
            | TraceKind::FrameDelivered { seq: s, .. }
            | TraceKind::FrameLost { seq: s, .. } => s == seq,
            _ => false,
        })
    }

    /// Drops all retained entries (the eviction counter survives).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Renders the retained ring as `trace.jsonl` text through the same
    /// renderer the streaming sink uses — the buffered half of the
    /// streamed-vs-buffered byte-identity comparison.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            write_entry_line(&mut out, e);
        }
        out
    }
}

impl Drop for Trace {
    /// Crash-dump behaviour: if the thread is unwinding from a panic, the
    /// flight recorder's window goes to stderr (the run's artefact files
    /// will never be written) and the streaming sink is flushed so
    /// `trace.jsonl` holds everything up to the failure.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        if let Some(s) = self.stream.as_mut() {
            s.flush();
        }
        if let Some(f) = &self.flight {
            if !f.is_empty() {
                eprintln!(
                    "--- flight recorder: last {} round(s) before the panic ---",
                    f.rounds.len() + 1
                );
                eprint!("{}", f.dump_jsonl());
                eprintln!("--- end flight recorder ---");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: u64, node: u32) -> (SimTime, TraceKind) {
        (
            SimTime::from_nanos(t),
            TraceKind::TimerFired {
                node: NodeId::new(node),
                token: 0,
            },
        )
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::new(0);
        assert!(!tr.enabled());
        let (t, k) = entry(1, 1);
        tr.record(t, k);
        assert!(tr.is_empty());
    }

    #[test]
    fn levels_gate_recording() {
        let mut tr = Trace::with_level(8, TraceLevel::Full);
        assert!(tr.enabled());
        let (t, k) = entry(1, 1);
        tr.record(t, k);
        assert_eq!(tr.len(), 1);

        let mut off = Trace::with_level(8, TraceLevel::Off);
        assert!(!off.enabled());
        off.record(t, k);
        assert!(off.is_empty());
        // Zero capacity disables even a Full-level sink.
        assert!(!Trace::new(0).enabled());
    }

    #[test]
    fn disabled_construction_reserves_no_buffer() {
        // `capacity > 0` with `Off` is disabled, so it must not reserve
        // the ring either (see the `with_level` invariant).
        assert_eq!(
            Trace::with_level(1 << 10, TraceLevel::Off)
                .entries
                .capacity(),
            0
        );
        assert_eq!(Trace::new(0).entries.capacity(), 0);
        // Enabled sinks still reserve up front, capped at 2^20.
        assert!(Trace::new(16).entries.capacity() >= 16);
        assert!(
            Trace::with_level(usize::MAX, TraceLevel::Full)
                .entries
                .capacity()
                <= 1 << 21
        );
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut tr = Trace::new(2);
        for i in 0..5u64 {
            let (t, k) = entry(i, i as u32);
            tr.record(t, k);
        }
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.evicted(), 3);
        let times: Vec<u64> = tr.iter().map(|e| e.time.as_nanos()).collect();
        assert_eq!(times, vec![3, 4]);
    }

    #[test]
    fn involving_filters_by_node() {
        let mut tr = Trace::new(10);
        let (t, k) = entry(1, 7);
        tr.record(t, k);
        let (t, k) = entry(2, 9);
        tr.record(t, k);
        tr.record(
            SimTime::from_nanos(3),
            TraceKind::FrameSent {
                src: NodeId::new(1),
                dest: Destination::Unicast(NodeId::new(7)),
                seq: 5,
                bytes: 10,
            },
        );
        assert_eq!(tr.involving(NodeId::new(7)).count(), 2);
        assert_eq!(tr.involving(NodeId::new(9)).count(), 1);
        assert_eq!(tr.involving(NodeId::new(3)).count(), 0);
    }

    #[test]
    fn frame_fate_follows_one_seq() {
        let mut tr = Trace::new(10);
        tr.record(
            SimTime::from_nanos(1),
            TraceKind::FrameSent {
                src: NodeId::new(0),
                dest: Destination::Broadcast,
                seq: 42,
                bytes: 10,
            },
        );
        tr.record(
            SimTime::from_nanos(2),
            TraceKind::FrameDelivered {
                node: NodeId::new(1),
                seq: 42,
                addressed: true,
            },
        );
        tr.record(
            SimTime::from_nanos(2),
            TraceKind::FrameLost {
                node: NodeId::new(2),
                seq: 42,
                cause: LossCause::Collision,
            },
        );
        let (t, k) = entry(3, 1);
        tr.record(t, k);
        assert_eq!(tr.frame_fate(42).count(), 3);
        assert_eq!(tr.frame_fate(43).count(), 0);
    }

    /// One entry of every [`TraceKind`] variant, all involving `node`
    /// and (where a seq exists) frame `seq`.
    fn one_of_each(tr: &mut Trace, node: u32, seq: u64) {
        let n = NodeId::new(node);
        let kinds = [
            TraceKind::FrameSent {
                src: n,
                dest: Destination::Broadcast,
                seq,
                bytes: 8,
            },
            TraceKind::FrameDelivered {
                node: n,
                seq,
                addressed: false,
            },
            TraceKind::FrameLost {
                node: n,
                seq,
                cause: LossCause::HalfDuplex,
            },
            TraceKind::MacDrop { node: n },
            TraceKind::TimerFired { node: n, token: 9 },
            TraceKind::NodeDown { node: n },
            TraceKind::NodeUp { node: n },
            TraceKind::AdversaryAction { node: n, code: 1 },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            tr.record(SimTime::from_nanos(i as u64), kind);
        }
    }

    #[test]
    fn involving_matches_every_variant() {
        let mut tr = Trace::new(32);
        one_of_each(&mut tr, 7, 100);
        one_of_each(&mut tr, 9, 200);
        // All eight variants of node 7 match; none of node 9's do.
        assert_eq!(tr.involving(NodeId::new(7)).count(), 8);
        assert_eq!(tr.involving(NodeId::new(3)).count(), 0);
        // A unicast FrameSent also involves its destination.
        tr.record(
            SimTime::from_nanos(99),
            TraceKind::FrameSent {
                src: NodeId::new(9),
                dest: Destination::Unicast(NodeId::new(7)),
                seq: 300,
                bytes: 4,
            },
        );
        assert_eq!(tr.involving(NodeId::new(7)).count(), 9);
        // ... but a broadcast from another node does not.
        assert_eq!(
            tr.involving(NodeId::new(9))
                .filter(|e| matches!(e.kind, TraceKind::FrameSent { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn frame_fate_matches_exactly_the_frame_carrying_variants() {
        let mut tr = Trace::new(32);
        one_of_each(&mut tr, 7, 100);
        // Sent + delivered + lost carry the seq; the other four variants
        // (MacDrop, TimerFired, NodeDown, NodeUp) never match any seq.
        assert_eq!(tr.frame_fate(100).count(), 3);
        assert!(tr.frame_fate(100).all(|e| matches!(
            e.kind,
            TraceKind::FrameSent { .. }
                | TraceKind::FrameDelivered { .. }
                | TraceKind::FrameLost { .. }
        )));
        assert_eq!(tr.frame_fate(101).count(), 0);
    }

    #[test]
    fn streamed_entries_match_buffered_to_jsonl() {
        // The same event sequence through the ring and through a stream
        // sink must produce byte-identical JSONL.
        let mut ring = Trace::new(64);
        one_of_each(&mut ring, 7, 100);
        let reference = ring.to_jsonl();
        assert_eq!(reference.lines().count(), 8);
        for line in reference.lines() {
            icpda_obs::json::parse(line).expect("valid json trace line");
        }

        let dir = std::env::temp_dir().join(format!("sim-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("trace.jsonl");
        let mut streamed = Trace::new(0);
        streamed.set_stream(JsonlSink::create(&path).expect("sink"));
        assert!(streamed.enabled(), "stream alone enables recording");
        one_of_each(&mut streamed, 7, 100);
        assert!(streamed.is_empty(), "stream bypasses the ring");
        let (records, bytes, err) = streamed.finish_stream().expect("stream stats");
        assert!(err.is_none());
        assert_eq!(records, 8);
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(bytes, text.len() as u64);
        assert_eq!(text, reference, "streamed trace.jsonl diverged from ring");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flight_recorder_keeps_exactly_last_k_rounds() {
        let mut tr = Trace::new(0);
        tr.set_flight(3);
        assert!(tr.enabled(), "flight alone enables recording");
        for round in 1..=10u64 {
            let (t, k) = entry(round, round as u32);
            tr.record(t, k);
            tr.mark_round();
        }
        let f = tr.flight().expect("flight attached");
        assert_eq!(f.current_round(), 11);
        let kept: Vec<u32> = f.rounds().map(|(r, _)| r).collect();
        assert_eq!(kept, vec![8, 9, 10], "retains exactly the last K rounds");
        let dump = f.dump_jsonl();
        assert_eq!(dump.lines().count(), 3);
        assert!(dump.contains("\"round\":8"), "{dump}");
        assert!(!dump.contains("\"round\":7"), "{dump}");
        for line in dump.lines() {
            icpda_obs::json::parse(line).expect("valid flight line");
        }
    }

    #[test]
    fn flight_recorder_caps_each_round() {
        let mut f = FlightRecorder::new(2);
        let (t, k) = entry(1, 1);
        for _ in 0..(FLIGHT_ROUND_CAP + 10) {
            f.record(TraceEntry { time: t, kind: k });
        }
        assert_eq!(f.dropped(), 10);
        f.rotate();
        assert_eq!(
            f.rounds().next().expect("one round").1.len(),
            FLIGHT_ROUND_CAP
        );
    }

    #[test]
    fn clear_keeps_eviction_counter() {
        let mut tr = Trace::new(1);
        let (t, k) = entry(1, 1);
        tr.record(t, k);
        let (t, k) = entry(2, 1);
        tr.record(t, k);
        tr.clear();
        assert!(tr.is_empty());
        assert_eq!(tr.evicted(), 1);
    }
}
