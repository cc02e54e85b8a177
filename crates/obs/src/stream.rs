//! Streaming JSONL export: the one way an obs directory is written.
//!
//! Rendering the whole registry at the end of a run is simple, but at
//! N=50k a full-trace capture would buffer hundreds of megabytes before
//! the first byte hit disk. This module emits incrementally through a
//! **fixed-size reusable buffer** instead:
//!
//! * [`JsonlSink`] — a line-oriented writer that renders records into one
//!   reused `String` and flushes it to the underlying file whenever it
//!   crosses its capacity. Memory is bounded by the buffer capacity plus
//!   one record, independent of run length.
//! * [`ObsStream`] — an obs directory opened for streaming: spans drain
//!   into `spans.jsonl` at every round boundary (see
//!   `IcpdaRun::with_obs_stream` in `icpda`), `trace.jsonl` sinks are
//!   handed to the engine, and `finish` writes `manifest.json` +
//!   `metrics.jsonl`.
//!
//! **Byte-identity:** every record kind has exactly one renderer
//! ([`crate::export::write_span_line`], `metrics_jsonl`, the trace-entry
//! renderer in `wsn-sim`). The in-memory renderers
//! ([`crate::export::spans_jsonl`], `wsn_sim::Trace::to_jsonl`) call the
//! same per-record functions and serve as the references the tests
//! compare a stream against; for a given seed the streamed files are
//! byte-identical at any harness thread count.
//!
//! **Error model:** the engine calls the sink from its event loop, where
//! a per-record `io::Result` has nowhere to go — the first I/O error is
//! latched, further writes become no-ops, and [`JsonlSink::take_error`]
//! surfaces it at flush/finish time.

use crate::export::{metrics_jsonl, write_span_line, Manifest};
use crate::Obs;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Default reusable-buffer capacity: large enough to amortise syscalls,
/// small enough to be irrelevant next to the simulator's own state.
pub const DEFAULT_BUF_CAP: usize = 64 * 1024;

/// A buffered JSONL line writer with a fixed-size reusable buffer and a
/// latched error (see the module docs for the error model).
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
    buf: String,
    cap: usize,
    records: u64,
    bytes: u64,
    error: Option<io::Error>,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("records", &self.records)
            .field("bytes", &self.bytes)
            .field("buffered", &self.buf.len())
            .field("cap", &self.cap)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Wraps `out` with a reusable buffer of `cap` bytes (values below
    /// 1 KiB are raised to it — a smaller buffer would flush per record).
    #[must_use]
    pub fn new(out: Box<dyn Write + Send>, cap: usize) -> Self {
        let cap = cap.max(1024);
        JsonlSink {
            out,
            // One record may overshoot the capacity before the flush
            // check runs; the slack keeps that overshoot from growing
            // the allocation.
            buf: String::with_capacity(cap + 512),
            cap,
            records: 0,
            bytes: 0,
            error: None,
        }
    }

    /// Opens `path` for writing (truncating) with the default capacity.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the file.
    pub fn create(path: &Path) -> io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(file), DEFAULT_BUF_CAP))
    }

    /// Renders one record into the reused buffer via `render` (which
    /// must append exactly one `\n`-terminated line) and flushes the
    /// buffer to the file if it crossed the capacity. After an error is
    /// latched this is a no-op.
    pub fn with_line(&mut self, render: impl FnOnce(&mut String)) {
        if self.error.is_some() {
            return;
        }
        let before = self.buf.len();
        render(&mut self.buf);
        self.records += 1;
        self.bytes += (self.buf.len() - before) as u64;
        if self.buf.len() >= self.cap {
            self.write_out();
        }
    }

    fn write_out(&mut self) {
        if self.buf.is_empty() || self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
            self.error = Some(e);
        }
        self.buf.clear();
    }

    /// Flushes the reusable buffer and the underlying writer. Errors are
    /// latched, not returned — collect them with [`JsonlSink::take_error`].
    pub fn flush(&mut self) {
        self.write_out();
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }

    /// Records rendered so far (including any still in the buffer).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes rendered so far (including any still in the buffer).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Takes the latched I/O error, if any write failed.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }
}

/// Summary of a finished streaming export.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Spans streamed into `spans.jsonl`.
    pub spans: u64,
    /// Bytes of `spans.jsonl`.
    pub span_bytes: u64,
}

/// An obs directory opened for incremental, bounded-memory export.
#[derive(Debug)]
pub struct ObsStream {
    dir: PathBuf,
    spans: JsonlSink,
}

impl ObsStream {
    /// Creates `dir` (if needed) and opens `spans.jsonl` for streaming.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the directory or the file.
    pub fn create(dir: &Path) -> io::Result<ObsStream> {
        std::fs::create_dir_all(dir)?;
        let spans = JsonlSink::create(&dir.join("spans.jsonl"))?;
        Ok(ObsStream {
            dir: dir.to_path_buf(),
            spans,
        })
    }

    /// The directory being written.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Opens `trace.jsonl` in the directory as a streaming sink for the
    /// engine's link-layer trace.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the file.
    pub fn trace_sink(&self) -> io::Result<JsonlSink> {
        JsonlSink::create(&self.dir.join("trace.jsonl"))
    }

    /// Drains the registry's completed spans into `spans.jsonl`. Called
    /// at round/epoch boundaries so span memory stays bounded by one
    /// round's span count. I/O errors are latched (see module docs).
    pub fn flush_spans(&mut self, obs: &mut Obs) {
        let sink = &mut self.spans;
        for s in obs.drain_spans() {
            sink.with_line(|buf| write_span_line(buf, &s));
        }
        sink.flush();
    }

    /// Writes a whole-file artefact (e.g. `flight.jsonl`,
    /// `profile.jsonl`) into the directory.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing the file.
    pub fn write_artifact(&self, name: &str, text: &str) -> io::Result<()> {
        std::fs::write(self.dir.join(name), text)
    }

    /// Finishes the export: drains any remaining spans, flushes the
    /// sink, then writes `manifest.json` and `metrics.jsonl` (the latter
    /// through [`metrics_jsonl`]).
    ///
    /// # Errors
    ///
    /// The first latched span-sink error, or any failure writing the two
    /// end-of-run files.
    pub fn finish(mut self, manifest: &Manifest, obs: &mut Obs) -> io::Result<StreamStats> {
        self.flush_spans(obs);
        if let Some(e) = self.spans.take_error() {
            return Err(e);
        }
        std::fs::write(self.dir.join("manifest.json"), manifest.to_json().pretty())?;
        std::fs::write(self.dir.join("metrics.jsonl"), metrics_jsonl(obs))?;
        Ok(StreamStats {
            spans: self.spans.records(),
            span_bytes: self.spans.bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::spans_jsonl;
    use crate::{ObsLevel, SpanSnapshot};
    use std::fmt::Write as _;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("obs-stream-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn filled_obs(spans: u32) -> Obs {
        let mut obs = Obs::new(ObsLevel::Full);
        for i in 0..spans {
            obs.span_start(
                "phase.share_exchange",
                i,
                u64::from(i),
                SpanSnapshot::default(),
            );
            obs.span_end(
                "phase.share_exchange",
                i,
                u64::from(i) + 100,
                SpanSnapshot {
                    messages: u64::from(i),
                    bytes: u64::from(i) * 10,
                    energy_nj: u64::from(i) * 100,
                },
            );
        }
        obs.inc("c");
        obs.observe("h", &[4, 16], 7);
        obs
    }

    #[test]
    fn sink_flushes_on_capacity_and_counts_records() {
        let dir = tempdir("sink");
        let path = dir.join("x.jsonl");
        let mut sink = JsonlSink::new(
            Box::new(std::fs::File::create(&path).expect("create")),
            1024,
        );
        for i in 0..200 {
            sink.with_line(|buf| {
                let _ = writeln!(buf, "{{\"i\":{i},\"pad\":\"{:0>32}\"}}", i);
            });
        }
        sink.flush();
        assert!(sink.take_error().is_none());
        assert_eq!(sink.records(), 200);
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 200);
        assert_eq!(sink.bytes(), text.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incremental_drains_match_buffered_export_bytes() {
        // Render the reference from one registry, stream a twin of it in
        // three partial drains — the files must be byte-identical.
        let reference = spans_jsonl(&filled_obs(57));

        let dir = tempdir("drain");
        let mut obs = Obs::new(ObsLevel::Full);
        let mut stream = ObsStream::create(&dir).expect("open stream");
        for chunk in 0..3u32 {
            for i in (chunk * 19)..((chunk + 1) * 19) {
                obs.span_start(
                    "phase.share_exchange",
                    i,
                    u64::from(i),
                    SpanSnapshot::default(),
                );
                obs.span_end(
                    "phase.share_exchange",
                    i,
                    u64::from(i) + 100,
                    SpanSnapshot {
                        messages: u64::from(i),
                        bytes: u64::from(i) * 10,
                        energy_nj: u64::from(i) * 100,
                    },
                );
            }
            stream.flush_spans(&mut obs);
            assert!(obs.spans().is_empty(), "drain leaves nothing behind");
        }
        obs.inc("c");
        obs.observe("h", &[4, 16], 7);
        let manifest = Manifest {
            tool: "test".into(),
            seed: 1,
            threads: 1,
            git_rev: "unknown".into(),
            config: vec![],
        };
        let stats = stream.finish(&manifest, &mut obs).expect("finish");
        assert_eq!(stats.spans, 57);
        assert_eq!(obs.spans_total(), 57);

        let streamed = std::fs::read_to_string(dir.join("spans.jsonl")).expect("spans");
        assert_eq!(streamed, reference, "streamed spans.jsonl diverged");
        let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).expect("metrics");
        assert_eq!(metrics, crate::export::metrics_jsonl(&filled_obs(57)));
        // The streamed directory loads back through the reader.
        let run = crate::report::load_dir(&dir).expect("load streamed dir");
        assert_eq!(run.spans.len(), 57);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_latches_io_errors() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Box::new(Failing), 1024);
        sink.with_line(|buf| buf.push_str("{\"a\":1}\n"));
        sink.flush();
        let err = sink.take_error().expect("error latched");
        assert_eq!(err.to_string(), "disk gone");
        // Further writes are no-ops, not panics.
        sink.with_line(|buf| buf.push_str("{\"b\":2}\n"));
    }
}
