//! Reader/renderer for `profile.jsonl`, the engine self-profiling
//! artefact (`icpda obs profile`).
//!
//! `profile.jsonl` is written by the simulator's self-profiler (see
//! `wsn_sim::profile`) when a streaming capture runs with profiling
//! enabled. Unlike `spans.jsonl`/`metrics.jsonl` it records **host
//! facts** — wall-clock nanoseconds per engine phase and the process RSS
//! high-water mark — so it is never part of a byte-identity comparison;
//! it rides the same sanctioned host-facts channel as `BENCH_*.json`
//! (DESIGN §10, rule XL008).
//!
//! Line shapes (one compact JSON object per line):
//!
//! * `{"kind":"meta","schema_version":1,"events":N,"rss_hwm_bytes":B}`
//! * `{"kind":"section","name":"engine.dispatch.delivery","events":N,"wall_ns":W}`
//! * `{"kind":"gauge","name":"arena.peak_outstanding","value":V}`
//!
//! Keys the reader does not know are ignored, so captures written by
//! earlier versions of the engine, which carried more keys, still parse.

use crate::export::check_schema_version;
use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One `section` row of `profile.jsonl`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionRow {
    /// Section name, e.g. `engine.next_event`.
    pub name: String,
    /// Events attributed to the section.
    pub events: u64,
    /// Wall-clock time attributed to the section, nanoseconds.
    pub wall_ns: u64,
}

/// A fully parsed `profile.jsonl`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileRun {
    /// Events the engine processed.
    pub events: u64,
    /// Process peak RSS (VmHWM) when the profile was written, bytes.
    pub rss_hwm_bytes: Option<u64>,
    /// All section rows, in file order.
    pub sections: Vec<SectionRow>,
    /// All gauges, in file order.
    pub gauges: Vec<(String, i64)>,
}

/// Parses a `profile.jsonl` document.
///
/// # Errors
///
/// Describes the offending line on malformed input or a schema-version
/// mismatch; never panics on foreign files.
pub fn parse_profile(text: &str) -> Result<ProfileRun, String> {
    let mut run = ProfileRun::default();
    let mut saw_meta = false;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("profile.jsonl line {}: {e}", i + 1))?;
        let fail = |what: &str| format!("profile.jsonl line {}: {what}", i + 1);
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| fail(&format!("missing numeric field `{key}`")))
        };
        let name = || {
            doc.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| fail("missing string field `name`"))
        };
        match doc.get("kind").and_then(Json::as_str) {
            Some("meta") => {
                check_schema_version(&doc, "profile.jsonl")?;
                saw_meta = true;
                run.events = num("events")? as u64;
                run.rss_hwm_bytes = doc
                    .get("rss_hwm_bytes")
                    .and_then(Json::as_f64)
                    .map(|v| v as u64);
            }
            Some("section") => run.sections.push(SectionRow {
                name: name()?,
                events: num("events")? as u64,
                wall_ns: num("wall_ns")? as u64,
            }),
            Some("gauge") => run.gauges.push((name()?, num("value")? as i64)),
            Some(other) => return Err(fail(&format!("unknown kind `{other}`"))),
            None => return Err(fail("missing string field `kind`")),
        }
    }
    if !saw_meta {
        return Err("profile.jsonl: missing meta line (empty or foreign file)".to_string());
    }
    Ok(run)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders the profile report: top-`top` hot sections by wall time,
/// gauges, and the RSS high-water mark.
#[must_use]
pub fn render_profile(run: &ProfileRun, top: usize) -> String {
    let mut out = String::new();
    let rss = match run.rss_hwm_bytes {
        Some(b) => format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)),
        None => "unknown".to_string(),
    };
    let _ = writeln!(
        out,
        "engine profile — {} events, RSS high-water {rss}",
        run.events
    );
    let _ = writeln!(out);

    // Top-k hot sections. Captures from earlier engine versions repeat
    // a name once per event-loop partition; summing renders them like
    // current ones.
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in &run.sections {
        let e = by_name.entry(&s.name).or_default();
        e.0 += s.events;
        e.1 += s.wall_ns;
    }
    let total_ns: u64 = by_name.values().map(|(_, ns)| ns).sum();
    let mut hot: Vec<(&str, u64, u64)> = by_name
        .into_iter()
        .map(|(name, (events, ns))| (name, events, ns))
        .collect();
    hot.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    let _ = writeln!(
        out,
        "{:<30} {:>10} {:>7} {:>12} {:>10}",
        "hot section", "wall ms", "share", "events", "ns/event"
    );
    for (name, events, ns) in hot.iter().take(top.max(1)) {
        let share = if total_ns > 0 {
            *ns as f64 / total_ns as f64 * 100.0
        } else {
            0.0
        };
        let per_event = if *events > 0 {
            *ns as f64 / *events as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<30} {:>10.2} {:>6.1}% {:>12} {:>10.1}",
            name,
            ms(*ns),
            share,
            events,
            per_event
        );
    }

    if !run.gauges.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "{:<40} {:>12}", "gauge", "value");
        for (name, value) in &run.gauges {
            let _ = writeln!(out, "{name:<40} {value:>12}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"kind\":\"meta\",\"schema_version\":1,\"events\":1000,\"rss_hwm_bytes\":52428800}\n",
        "{\"kind\":\"section\",\"name\":\"engine.next_event\",\"events\":1000,\"wall_ns\":8000000}\n",
        "{\"kind\":\"section\",\"name\":\"engine.dispatch.delivery\",\"events\":300,\"wall_ns\":9000000}\n",
        "{\"kind\":\"section\",\"name\":\"setup.neighbor_build\",\"events\":1,\"wall_ns\":1500000}\n",
        "{\"kind\":\"gauge\",\"name\":\"arena.peak_outstanding\",\"value\":12}\n",
    );

    /// `SAMPLE` as an earlier engine version wrote it: its event loop
    /// was split into partitions, so the meta line counts them and the
    /// loop's sections come one row per partition, each with its index.
    /// The reader must keep accepting such captures.
    const LEGACY: &str = concat!(
        "{\"kind\":\"meta\",\"schema_version\":1,\"shards\":2,\"events\":1000,\"rss_hwm_bytes\":52428800}\n",
        "{\"kind\":\"section\",\"name\":\"engine.next_event\",\"shard\":0,\"events\":500,\"wall_ns\":2000000}\n",
        "{\"kind\":\"section\",\"name\":\"engine.next_event\",\"shard\":1,\"events\":500,\"wall_ns\":6000000}\n",
        "{\"kind\":\"section\",\"name\":\"engine.dispatch.delivery\",\"shard\":0,\"events\":300,\"wall_ns\":9000000}\n",
        "{\"kind\":\"section\",\"name\":\"setup.neighbor_build\",\"events\":1,\"wall_ns\":1500000}\n",
        "{\"kind\":\"gauge\",\"name\":\"arena.peak_outstanding\",\"value\":12}\n",
    );

    #[test]
    fn parses_every_row_kind() {
        for (text, sections) in [(SAMPLE, 3), (LEGACY, 4)] {
            let run = parse_profile(text).expect("parse");
            assert_eq!(run.events, 1000);
            assert_eq!(run.rss_hwm_bytes, Some(50 << 20));
            assert_eq!(run.sections.len(), sections);
            assert_eq!(run.sections[0].name, "engine.next_event");
            assert_eq!(run.gauges, vec![("arena.peak_outstanding".to_string(), 12)]);
        }
        // Old captures render exactly like the current format: repeated
        // section names accumulate and the extra keys are ignored.
        assert_eq!(
            render_profile(&parse_profile(LEGACY).expect("legacy"), 10),
            render_profile(&parse_profile(SAMPLE).expect("sample"), 10)
        );
    }

    #[test]
    fn rejects_foreign_or_versionless_files() {
        assert!(parse_profile("").is_err());
        assert!(parse_profile("{\"kind\":\"meta\",\"events\":0}").is_err());
        assert!(parse_profile("{\"kind\":\"mystery\"}").is_err());
    }

    #[test]
    fn report_ranks_sections_and_lists_gauges() {
        let run = parse_profile(SAMPLE).expect("parse");
        let text = render_profile(&run, 3);
        assert!(text.contains("RSS high-water 50.0 MiB"), "{text}");
        // dispatch.delivery (9ms) outranks next_event (8ms).
        let dispatch = text.find("engine.dispatch.delivery").expect("dispatch row");
        let next = text.find("engine.next_event").expect("next_event row");
        assert!(
            dispatch < next,
            "hot sections not ranked by wall time:\n{text}"
        );
        assert!(text.contains("arena.peak_outstanding"), "{text}");
    }

    #[test]
    fn top_k_truncates() {
        let run = parse_profile(SAMPLE).expect("parse");
        let text = render_profile(&run, 1);
        assert!(text.contains("engine.dispatch.delivery"), "{text}");
        assert!(!text.contains("setup.neighbor_build"), "{text}");
    }
}
