//! The obs-directory record renderers: `manifest.json`, `spans.jsonl`
//! and `metrics.jsonl`.
//!
//! [`crate::stream::ObsStream`] writes an obs directory through these
//! renderers. `spans.jsonl` and `metrics.jsonl` are pure functions of
//! the [`Obs`] registry, which is filled by the single-threaded
//! simulator — so for a given seed they are byte-identical at any
//! harness thread count (CI `cmp`s a 1-thread against an 8-thread run).
//! `manifest.json` is the one file that records environment facts
//! (thread count, git revision) and is excluded from that comparison.
//! [`spans_jsonl`] renders a whole registry in memory; it is the
//! reference the streaming exporter's tests compare against.

use crate::json::Json;
use crate::Obs;
use std::fmt::Write as _;

/// Version stamp written into every `manifest.json`. Readers reject
/// other versions with a clear error instead of a parse panic.
pub const OBS_SCHEMA_VERSION: u64 = 1;

/// The run manifest: what produced an obs directory.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Manifest {
    /// Producing tool, e.g. `icpda run` or `bench`.
    pub tool: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Harness thread count (the sim itself is single-threaded).
    pub threads: usize,
    /// `git rev-parse --short HEAD` of the producing build, or
    /// `unknown`.
    pub git_rev: String,
    /// Flattened run configuration as ordered key/value pairs.
    pub config: Vec<(String, String)>,
}

impl Manifest {
    /// Renders the manifest (schema version first).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let config = self
            .config
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect();
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(OBS_SCHEMA_VERSION as f64),
            ),
            ("tool".into(), Json::Str(self.tool.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
            ("config".into(), Json::Obj(config)),
        ])
    }

    /// Reads a manifest back, checking the schema version.
    ///
    /// # Errors
    ///
    /// Describes a missing/unsupported `schema_version` or a malformed
    /// field; never panics on foreign input.
    pub fn from_json(doc: &Json) -> Result<Manifest, String> {
        check_schema_version(doc, "obs manifest")?;
        let str_field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("obs manifest: missing string field `{key}`"))
        };
        let num_field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("obs manifest: missing numeric field `{key}`"))
        };
        let config = match doc.get("config") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("obs manifest: config `{k}` is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("obs manifest: missing `config` object".to_string()),
        };
        Ok(Manifest {
            tool: str_field("tool")?,
            seed: num_field("seed")? as u64,
            threads: num_field("threads")? as usize,
            git_rev: str_field("git_rev")?,
            config,
        })
    }
}

/// Checks the `schema_version` stamp of a versioned JSON artefact
/// (`what` names it in errors, e.g. `obs manifest` or a bench report
/// path).
///
/// # Errors
///
/// A clear description when the stamp is missing (pre-versioned or
/// foreign file) or not [`OBS_SCHEMA_VERSION`].
pub fn check_schema_version(doc: &Json, what: &str) -> Result<(), String> {
    match doc.get("schema_version").and_then(Json::as_f64) {
        None => Err(format!(
            "{what}: missing `schema_version` (pre-versioned or foreign file; \
             this build reads version {OBS_SCHEMA_VERSION}) — regenerate it"
        )),
        Some(v) if v == OBS_SCHEMA_VERSION as f64 => Ok(()),
        Some(v) => Err(format!(
            "{what}: unsupported schema_version {v} (this build reads {OBS_SCHEMA_VERSION})"
        )),
    }
}

/// Appends one `spans.jsonl` line (newline included) for `s` to `out`.
///
/// This is the *single* span renderer: [`crate::stream::ObsStream`]
/// writes every span through it and [`spans_jsonl`] (the in-memory
/// reference) calls it too, so the two are byte-identical by
/// construction.
pub fn write_span_line(out: &mut String, s: &crate::Span) {
    out.push_str("{\"name\":\"");
    crate::json::escape_into(out, s.name);
    let _ = write!(
        out,
        "\",\"node\":{},\"start_ns\":{},\"end_ns\":{},\"messages\":{},\"bytes\":{},\"energy_nj\":{}}}",
        s.node, s.start_ns, s.end_ns, s.messages, s.bytes, s.energy_nj
    );
    out.push('\n');
}

/// Renders `spans.jsonl`: one compact object per completed span, in
/// completion order.
#[must_use]
pub fn spans_jsonl(obs: &Obs) -> String {
    let mut out = String::new();
    for s in obs.spans() {
        write_span_line(&mut out, s);
    }
    out
}

/// Renders `metrics.jsonl`: counters, then gauges, then histograms, each
/// in name order.
#[must_use]
pub fn metrics_jsonl(obs: &Obs) -> String {
    let mut out = String::new();
    for (name, value) in obs.counters() {
        let line = Json::Obj(vec![
            ("kind".into(), Json::Str("counter".into())),
            ("name".into(), Json::Str(name.to_string())),
            ("value".into(), Json::Num(value as f64)),
        ]);
        let _ = writeln!(out, "{}", line.compact());
    }
    for (name, value) in obs.gauges() {
        let line = Json::Obj(vec![
            ("kind".into(), Json::Str("gauge".into())),
            ("name".into(), Json::Str(name.to_string())),
            ("value".into(), Json::Num(value as f64)),
        ]);
        let _ = writeln!(out, "{}", line.compact());
    }
    for (name, hist) in obs.histograms() {
        let bounds = hist.bounds().iter().map(|b| Json::Num(*b as f64)).collect();
        let counts = hist.counts().iter().map(|c| Json::Num(*c as f64)).collect();
        let line = Json::Obj(vec![
            ("kind".into(), Json::Str("histogram".into())),
            ("name".into(), Json::Str(name.to_string())),
            ("bounds".into(), Json::Arr(bounds)),
            ("counts".into(), Json::Arr(counts)),
            ("total".into(), Json::Num(hist.total() as f64)),
            ("sum".into(), Json::Num(hist.sum() as f64)),
        ]);
        let _ = writeln!(out, "{}", line.compact());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObsLevel, SpanSnapshot};

    fn sample_obs() -> Obs {
        let mut obs = Obs::new(ObsLevel::Full);
        obs.span_start("phase.query_flood", 1, 0, SpanSnapshot::default());
        obs.span_end(
            "phase.query_flood",
            1,
            2_000_000,
            SpanSnapshot {
                messages: 3,
                bytes: 120,
                energy_nj: 80_000,
            },
        );
        obs.add("engine.mac_drops", 2);
        obs.gauge_set("sim.min_alive", 199);
        obs.observe("engine.batch_receivers", &[1, 4, 16], 9);
        obs
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            tool: "icpda run".into(),
            seed: 42,
            threads: 8,
            git_rev: "abc1234".into(),
            config: vec![("nodes".into(), "200".into())],
        };
        let back = Manifest::from_json(&m.to_json()).expect("round trip");
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_rejects_missing_or_wrong_schema_version() {
        let err = Manifest::from_json(&Json::Obj(vec![])).expect_err("missing version");
        assert!(err.contains("missing `schema_version`"), "{err}");
        let doc = Json::Obj(vec![("schema_version".into(), Json::Num(99.0))]);
        let err = Manifest::from_json(&doc).expect_err("wrong version");
        assert!(err.contains("unsupported schema_version 99"), "{err}");
    }

    #[test]
    fn jsonl_renders_one_parseable_line_per_record() {
        let obs = sample_obs();
        let spans = spans_jsonl(&obs);
        assert_eq!(spans.lines().count(), 1);
        let first = spans.lines().next().expect("span line");
        let doc = crate::json::parse(first).expect("valid json");
        assert_eq!(
            doc.get("name").and_then(Json::as_str),
            Some("phase.query_flood")
        );
        assert_eq!(doc.get("end_ns").and_then(Json::as_f64), Some(2e6));

        let metrics = metrics_jsonl(&obs);
        assert_eq!(metrics.lines().count(), 3);
        for line in metrics.lines() {
            crate::json::parse(line).expect("valid json line");
        }
        // Counters come first, then gauges, then histograms.
        let kinds: Vec<String> = metrics
            .lines()
            .filter_map(|l| {
                crate::json::parse(l)
                    .ok()?
                    .get("kind")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            })
            .collect();
        assert_eq!(kinds, ["counter", "gauge", "histogram"]);
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = sample_obs();
        let b = sample_obs();
        assert_eq!(spans_jsonl(&a), spans_jsonl(&b));
        assert_eq!(metrics_jsonl(&a), metrics_jsonl(&b));
    }
}
