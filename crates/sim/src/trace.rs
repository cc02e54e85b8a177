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
//! * a **streaming sink** ([`Trace::set_stream`]) that writes every entry
//!   to `trace.jsonl`, replacing the ring so full traces at N=50k stop
//!   being memory-bound. The engine only copies each entry into a batch
//!   of [`BATCH_ENTRIES`]; one writer thread renders full batches, in
//!   order, with the same renderer as [`Trace::to_jsonl`] into the
//!   [`JsonlSink`], so output is byte-identical. Memory is bounded: at
//!   most [`QUEUED_BATCHES`] full batches wait for the writer, and
//!   emptied batches come back to the engine for reuse, so no more than
//!   `QUEUED_BATCHES + 2` batches (160 KiB) ever exist next to the
//!   sink's own buffer. [`Trace::mark_round`] is a barrier: it waits
//!   until the writer has flushed everything recorded so far, so
//!   `trace.jsonl` is durable up to the last completed round.
//!   [`Trace::finish_stream`] and `Drop` (panicking or not) hand over the
//!   last partial batch and join the thread, so no writer outlives its
//!   `Trace`, and `finish_stream` reports an error if the writer wrote
//!   a different number of entries than the engine handed it;
//! * a **flight recorder** ([`Trace::set_flight`]) shadowing the last K
//!   rounds, dumped on degraded rounds, adversary detection, or panic.
//!
//! [`SimConfig::trace_capacity`]: crate::sim::SimConfig::trace_capacity

use crate::frame::Destination;
use crate::ids::NodeId;
use crate::metrics::LossCause;
use crate::time::SimTime;
use icpda_obs::json::push_u64;
use icpda_obs::stream::JsonlSink;
use std::collections::VecDeque;
use std::io;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

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

/// Appends `key` (a literal such as `,"seq":`) and then `n` in decimal.
fn push_field(out: &mut String, key: &str, n: u64) {
    out.push_str(key);
    push_u64(out, n);
}

fn write_entry_fields(out: &mut String, e: &TraceEntry) {
    // Every entry opens with its time, kind and node (`src` for a send);
    // the variant's own fields follow.
    let (kind, node) = match e.kind {
        TraceKind::FrameSent { src, .. } => (",\"kind\":\"frame_sent\",\"src\":", src),
        TraceKind::FrameDelivered { node, .. } => (",\"kind\":\"frame_delivered\",\"node\":", node),
        TraceKind::FrameLost { node, .. } => (",\"kind\":\"frame_lost\",\"node\":", node),
        TraceKind::MacDrop { node } => (",\"kind\":\"mac_drop\",\"node\":", node),
        TraceKind::TimerFired { node, .. } => (",\"kind\":\"timer_fired\",\"node\":", node),
        TraceKind::NodeDown { node } => (",\"kind\":\"node_down\",\"node\":", node),
        TraceKind::NodeUp { node } => (",\"kind\":\"node_up\",\"node\":", node),
        TraceKind::AdversaryAction { node, .. } => {
            (",\"kind\":\"adversary_action\",\"node\":", node)
        }
    };
    push_field(out, "\"t\":", e.time.as_nanos());
    push_field(out, kind, node.as_u32().into());
    match e.kind {
        TraceKind::FrameSent {
            dest, seq, bytes, ..
        } => {
            match dest {
                Destination::Unicast(d) => push_field(out, ",\"dest\":", d.as_u32().into()),
                Destination::Broadcast => out.push_str(",\"dest\":\"bcast\""),
            }
            push_field(out, ",\"seq\":", seq);
            push_field(out, ",\"bytes\":", bytes as u64);
        }
        TraceKind::FrameDelivered { seq, addressed, .. } => {
            push_field(out, ",\"seq\":", seq);
            out.push_str(if addressed {
                ",\"addressed\":true"
            } else {
                ",\"addressed\":false"
            });
        }
        TraceKind::FrameLost { seq, cause, .. } => {
            push_field(out, ",\"seq\":", seq);
            out.push_str(",\"cause\":\"");
            out.push_str(loss_cause_str(cause));
            out.push('"');
        }
        TraceKind::TimerFired { token, .. } => push_field(out, ",\"token\":", token),
        TraceKind::AdversaryAction { code, .. } => push_field(out, ",\"code\":", code.into()),
        TraceKind::MacDrop { .. } | TraceKind::NodeDown { .. } | TraceKind::NodeUp { .. } => {}
    }
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
    push_field(out, "{\"round\":", round.into());
    out.push(',');
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

/// Entries per batch the engine hands the `trace.jsonl` writer thread
/// (40 KiB of 40-byte entries).
pub const BATCH_ENTRIES: usize = 1024;

/// Full batches that may wait for the writer thread; the engine blocks
/// when it hands over a batch while this many are queued.
pub const QUEUED_BATCHES: usize = 2;

/// What the engine sends the writer thread, in recording order.
#[derive(Debug)]
enum ToWriter {
    /// Render these entries, then hand the emptied batch back.
    Batch(Vec<TraceEntry>),
    /// Flush the sink to the file, then acknowledge.
    Flush,
}

/// The engine's end of a running writer thread.
#[derive(Debug)]
struct Writer {
    batches: SyncSender<ToWriter>,
    emptied: Receiver<Vec<TraceEntry>>,
    flushed: Receiver<()>,
    thread: JoinHandle<JsonlSink>,
}

/// A streaming `trace.jsonl` sink: entries gather in a batch, and full
/// batches go to one writer thread that renders them into the
/// [`JsonlSink`] (see the module docs for the memory bound).
#[derive(Debug)]
struct TraceStream {
    /// Entries recorded since the last handoff.
    batch: Vec<TraceEntry>,
    /// Entries handed to the writer so far.
    handed: u64,
    /// The running writer, or the error that kept it from starting.
    writer: Result<Writer, io::Error>,
}

impl TraceStream {
    /// Starts the writer thread that owns `sink`. A failed spawn is
    /// latched as the stream's error, which [`TraceStream::finish`]
    /// reports.
    fn spawn(sink: JsonlSink) -> Self {
        let (batches, queue) = sync_channel(QUEUED_BATCHES);
        // Room for every batch that can exist, so handing one back never
        // blocks the writer.
        let (give_back, emptied) = sync_channel(QUEUED_BATCHES + 2);
        let (ack, flushed) = sync_channel(1);
        let writer = std::thread::Builder::new()
            .name("trace-writer".to_string())
            .spawn(move || write_batches(sink, &queue, &give_back, &ack))
            .map(|thread| Writer {
                batches,
                emptied,
                flushed,
                thread,
            });
        TraceStream {
            batch: Vec::with_capacity(BATCH_ENTRIES),
            handed: 0,
            writer,
        }
    }

    fn push(&mut self, e: TraceEntry) {
        self.batch.push(e);
        if self.batch.len() == BATCH_ENTRIES {
            self.handoff();
        }
    }

    /// Hands the current batch to the writer and takes an emptied one
    /// back, allocating only while every batch is still in flight (so at
    /// most `QUEUED_BATCHES + 2` are ever allocated). Without a writer
    /// the entries are dropped; [`TraceStream::finish`] reports why.
    fn handoff(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        self.handed += self.batch.len() as u64;
        let Ok(w) = &self.writer else {
            self.batch.clear();
            return;
        };
        let full = std::mem::take(&mut self.batch);
        // A send fails only if the writer died; the entries are then
        // lost, and the count check in `finish` reports that.
        let _ = w.batches.send(ToWriter::Batch(full));
        self.batch = w
            .emptied
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(BATCH_ENTRIES));
    }

    /// Waits until the file holds every entry recorded so far.
    fn barrier(&mut self) {
        self.handoff();
        if let Ok(w) = &self.writer {
            if w.batches.send(ToWriter::Flush).is_ok() {
                // An error means the writer died; `finish` reports it.
                let _ = w.flushed.recv();
            }
        }
    }

    /// Hands over the last partial batch, joins the writer and returns
    /// `(records, bytes, latched_error)`. `records` is the engine's count;
    /// a writer that wrote a different number latches an error.
    fn finish(mut self) -> (u64, u64, Option<io::Error>) {
        self.handoff();
        let records = self.handed;
        let Writer {
            batches, thread, ..
        } = match self.writer {
            Ok(w) => w,
            Err(e) => return (records, 0, Some(e)),
        };
        // Closing the queue ends the writer's loop once it has drained it.
        drop(batches);
        let Ok(mut sink) = thread.join() else {
            return (
                records,
                0,
                Some(io::Error::other("trace.jsonl writer thread panicked")),
            );
        };
        let written = sink.records();
        let err = sink.take_error().or_else(|| {
            (written != records).then(|| {
                io::Error::other(format!(
                    "trace.jsonl writer wrote {written} of {records} records"
                ))
            })
        });
        (records, sink.bytes(), err)
    }
}

/// The writer thread: renders each batch, in order, into `sink` through
/// the single renderer and hands the emptied batch back, until the
/// engine closes `queue`. Allocates nothing; returns the flushed sink.
fn write_batches(
    mut sink: JsonlSink,
    queue: &Receiver<ToWriter>,
    give_back: &SyncSender<Vec<TraceEntry>>,
    ack: &SyncSender<()>,
) -> JsonlSink {
    for msg in queue {
        match msg {
            ToWriter::Batch(mut batch) => {
                for e in &batch {
                    sink.with_line(|buf| write_entry_line(buf, e));
                }
                batch.clear();
                // The channel has room for every batch; it is full or
                // closed only once the engine is gone.
                let _ = give_back.try_send(batch);
            }
            ToWriter::Flush => {
                sink.flush();
                let _ = ack.send(());
            }
        }
    }
    sink.flush();
    sink
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
    stream: Option<TraceStream>,
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
    /// Construction allocates nothing: the ring grows as entries arrive,
    /// and `capacity` caps it rather than sizing it, so a ring sized
    /// "large enough" costs only what the run records.
    #[must_use]
    pub fn with_level(capacity: usize, level: TraceLevel) -> Self {
        Trace {
            entries: VecDeque::new(),
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

    /// Attaches a streaming sink and starts its writer thread. Entries
    /// then flow to the file **instead of** the in-memory ring —
    /// streaming exists so full traces stop being memory-bound, so
    /// retaining the ring alongside it would defeat the point. The
    /// flight recorder (if any) still shadows the last K rounds. A sink
    /// already attached is finished first, and its result dropped.
    pub fn set_stream(&mut self, sink: JsonlSink) {
        let _ = self.finish_stream();
        self.stream = Some(TraceStream::spawn(sink));
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
    /// and waits until the writer thread has flushed every entry recorded
    /// so far, so `trace.jsonl` is durable up to the last completed round.
    /// Observability-only — recording itself is unaffected.
    pub fn mark_round(&mut self) {
        if let Some(f) = self.flight.as_mut() {
            f.rotate();
        }
        if let Some(s) = self.stream.as_mut() {
            s.barrier();
        }
    }

    /// Detaches and finishes the streaming sink, joining its writer
    /// thread, and returns `(records, bytes, latched_error)`; `None` if
    /// no sink was attached. `records` counts the entries recorded; the
    /// error is the sink's first I/O error, a failed thread spawn, or a
    /// writer that wrote a different number of records.
    pub fn finish_stream(&mut self) -> Option<(u64, u64, Option<io::Error>)> {
        self.stream.take().map(TraceStream::finish)
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
            s.push(e);
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
    /// Finishes an attached stream, panicking or not: the last partial
    /// batch goes to the writer and the thread is joined, so
    /// `trace.jsonl` holds every recorded entry when `drop` returns (its
    /// errors are dropped; [`Trace::finish_stream`] returns them).
    /// Crash-dump behaviour: if the thread is unwinding from a panic, the
    /// flight recorder's window goes to stderr (the run's artefact files
    /// will never be written).
    fn drop(&mut self) {
        let _ = self.finish_stream();
        if !std::thread::panicking() {
            return;
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
    use proptest::prelude::*;
    use std::fmt::Write as _;

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
        // No sink reserves at construction, enabled or not: the ring
        // grows as entries arrive, up to its capacity.
        for level in [TraceLevel::Off, TraceLevel::Full] {
            for capacity in [0, 1, 16, 1 << 20, usize::MAX] {
                let tr = Trace::with_level(capacity, level);
                assert_eq!(tr.entries.capacity(), 0, "{level:?} at {capacity}");
            }
        }
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

    /// A fresh `trace.jsonl` path in a directory of its own.
    fn temp_trace(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sim-trace-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        dir.join("trace.jsonl")
    }

    /// `one_of_each` repeated `times` times: eight entries a time, on
    /// changing nodes and seqs.
    fn record_many(tr: &mut Trace, times: u32) {
        for i in 0..times {
            one_of_each(tr, i, u64::from(i));
        }
    }

    /// A writer that accepts `left` bytes and then fails every write.
    struct FailAfter {
        left: usize,
    }

    impl std::io::Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::other("disk full"));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failing_writer_surfaces_its_error_at_finish() {
        let mut tr = Trace::new(0);
        tr.set_stream(JsonlSink::new(Box::new(FailAfter { left: 100_000 }), 4096));
        // Several batches and round barriers before and after the failure.
        for _ in 0..6 {
            record_many(&mut tr, 100);
            tr.mark_round();
        }
        let (records, bytes, err) = tr.finish_stream().expect("stream attached");
        assert_eq!(records, 6 * 100 * 8, "the engine's count");
        assert!(bytes < 200_000, "{bytes} bytes rendered after the error");
        assert_eq!(err.expect("error latched").to_string(), "disk full");
    }

    #[test]
    fn dropped_trace_leaves_a_complete_file() {
        let mut ring = Trace::new(1 << 16);
        record_many(&mut ring, 400);
        assert!(ring.len() > 3 * BATCH_ENTRIES && !ring.len().is_multiple_of(BATCH_ENTRIES));
        let path = temp_trace("drop");
        let mut streamed = Trace::new(0);
        streamed.set_stream(JsonlSink::create(&path).expect("sink"));
        record_many(&mut streamed, 400);
        drop(streamed);
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, ring.to_jsonl(), "drop lost the tail of trace.jsonl");
        std::fs::remove_dir_all(path.parent().expect("dir")).ok();
    }

    /// Node 0 broadcasts every millisecond and panics at its
    /// `panic_at`-th timer.
    struct PanicsAt {
        panic_at: u32,
        fired: u32,
    }

    impl crate::app::Application for PanicsAt {
        type Message = Vec<u8>;
        fn on_start(&mut self, ctx: &mut crate::app::Context<'_, Vec<u8>>) {
            if ctx.id() == NodeId::new(0) {
                ctx.set_timer(crate::time::SimDuration::from_millis(1), 1);
            }
        }
        fn on_message(&mut self, _: &mut crate::app::Context<'_, Vec<u8>>, _: NodeId, _: &Vec<u8>) {
        }
        fn on_timer(&mut self, ctx: &mut crate::app::Context<'_, Vec<u8>>, _: u64) {
            self.fired += 1;
            assert!(self.fired < self.panic_at, "handler panics mid-run");
            ctx.broadcast(vec![0; 4]);
            ctx.set_timer(crate::time::SimDuration::from_millis(1), 1);
        }
    }

    fn panicking_sim(trace_capacity: usize) -> crate::sim::Simulator<PanicsAt> {
        use crate::geometry::{Point, Region};
        let dep = crate::topology::Deployment::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            Region::new(100.0, 100.0),
            50.0,
        );
        let mut config = crate::sim::SimConfig::ideal();
        config.trace_capacity = trace_capacity;
        crate::sim::Simulator::new(dep, config, 1, |_| PanicsAt {
            panic_at: 1500,
            fired: 0,
        })
    }

    #[test]
    fn panicking_handler_leaves_every_prior_entry_in_order() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let end = SimTime::from_secs(10);
        // The reference: the same run into a ring that outlives the panic.
        let mut ring = panicking_sim(1 << 16);
        assert!(catch_unwind(AssertUnwindSafe(|| ring.run_until(end))).is_err());
        let reference = ring.trace().to_jsonl();
        assert!(ring.trace().len() > 3 * BATCH_ENTRIES);

        let path = temp_trace("panic");
        let mut streamed = panicking_sim(0);
        streamed.set_trace_stream(JsonlSink::create(&path).expect("sink"));
        // The simulator unwinds inside the closure, so `Drop for Trace`
        // runs while the thread panics.
        assert!(catch_unwind(AssertUnwindSafe(move || streamed.run_until(end))).is_err());
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, reference, "trace.jsonl lost entries before the panic");
        std::fs::remove_dir_all(path.parent().expect("dir")).ok();
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

    /// The `write!` renderer [`write_entry_fields`] replaced, kept as its
    /// reference.
    fn reference_entry_fields(out: &mut String, e: &TraceEntry) {
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

    /// Integers where a decimal writer's digit handling changes: one and
    /// two digits, the first three-digit value, 2^32 − 1 and `u64::MAX`.
    const EDGES: [u64; 7] = [0, 9, 10, 99, 100, (1 << 32) - 1, u64::MAX];

    const CAUSES: [LossCause; 6] = [
        LossCause::Collision,
        LossCause::Stochastic,
        LossCause::HalfDuplex,
        LossCause::MacDrop,
        LossCause::ReceiverDown,
        LossCause::Corrupt,
    ];

    /// `n` in a narrower field, saturating at the field's maximum.
    fn narrow<T: TryFrom<u64>>(n: u64, max: T) -> T {
        T::try_from(n).unwrap_or(max)
    }

    /// Trace variant `variant % 8` with its integer fields taken from
    /// `ints` and its flag, cause and destination from `pick` (every
    /// combination of the three within `0..12`).
    fn kind(variant: usize, ints: [u64; 4], pick: usize) -> TraceKind {
        let [a, b, c, d] = ints;
        let node = NodeId::new(narrow(a, u32::MAX));
        match variant % 8 {
            0 => TraceKind::FrameSent {
                src: node,
                dest: if pick % 2 == 1 {
                    Destination::Unicast(NodeId::new(narrow(d, u32::MAX)))
                } else {
                    Destination::Broadcast
                },
                seq: b,
                bytes: narrow(c, usize::MAX),
            },
            1 => TraceKind::FrameDelivered {
                node,
                seq: b,
                addressed: pick % 2 == 1,
            },
            2 => TraceKind::FrameLost {
                node,
                seq: b,
                cause: CAUSES[pick % CAUSES.len()],
            },
            3 => TraceKind::MacDrop { node },
            4 => TraceKind::TimerFired { node, token: b },
            5 => TraceKind::NodeDown { node },
            6 => TraceKind::NodeUp { node },
            _ => TraceKind::AdversaryAction {
                node,
                code: narrow(b, u8::MAX),
            },
        }
    }

    /// Renders `e` as a trace line and as a flight line in `round`,
    /// through the writers and through the `write!` references, and
    /// asserts equal bytes.
    fn assert_renders_as_reference(e: &TraceEntry, round: u32) {
        let (mut got, mut want) = (String::new(), String::new());
        write_entry_line(&mut got, e);
        write_entry_line_in_round(&mut got, round, e);
        want.push('{');
        reference_entry_fields(&mut want, e);
        want.push_str("}\n");
        let _ = write!(want, "{{\"round\":{round},");
        reference_entry_fields(&mut want, e);
        want.push_str("}\n");
        assert_eq!(got, want);
    }

    #[test]
    fn every_edge_value_renders_as_reference_in_every_field() {
        for variant in 0..8 {
            for &n in &EDGES {
                for pick in 0..12 {
                    let e = TraceEntry {
                        time: SimTime::from_nanos(n),
                        kind: kind(variant, [n; 4], pick),
                    };
                    assert_renders_as_reference(&e, narrow(n, u32::MAX));
                }
            }
        }
    }

    /// An edge value or a uniform one, equally often.
    fn int() -> impl Strategy<Value = u64> {
        (any::<bool>(), 0..EDGES.len(), any::<u64>())
            .prop_map(|(edge, i, n)| if edge { EDGES[i] } else { n })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The integer writer renders random entries byte for byte as the
        /// `write!` renderer did, edge values mixed into every field.
        #[test]
        fn random_entries_render_as_reference(
            variant in 0..8usize,
            t in int(),
            a in int(),
            b in int(),
            c in int(),
            d in int(),
            pick in 0..12usize,
            round in int(),
        ) {
            let e = TraceEntry {
                time: SimTime::from_nanos(t),
                kind: kind(variant, [a, b, c, d], pick),
            };
            assert_renders_as_reference(&e, narrow(round, u32::MAX));
        }
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
