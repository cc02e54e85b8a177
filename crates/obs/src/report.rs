//! Reads an obs directory back and renders human reports: a per-phase
//! table (latency, messages, energy, coverage) and a two-run diff with
//! `::warning::`-style deltas (same soft-gate idiom as the bench
//! harness).

use crate::export::Manifest;
use crate::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// One span line read back from `spans.jsonl`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRow {
    /// Span name, e.g. `phase.share_exchange`.
    pub name: String,
    /// Owning node.
    pub node: u32,
    /// Start, sim-time nanoseconds.
    pub start_ns: u64,
    /// End, sim-time nanoseconds.
    pub end_ns: u64,
    /// Frames handled during the span.
    pub messages: u64,
    /// Bytes moved during the span.
    pub bytes: u64,
    /// Energy spent during the span, nanojoules.
    pub energy_nj: u64,
}

/// One metric line read back from `metrics.jsonl`.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricRow {
    /// A monotonic counter.
    Counter {
        /// Metric name.
        name: String,
        /// Final value.
        value: u64,
    },
    /// A last-write-wins gauge.
    Gauge {
        /// Metric name.
        name: String,
        /// Final value.
        value: i64,
    },
    /// A fixed-bucket histogram.
    Histogram {
        /// Metric name.
        name: String,
        /// Bucket upper bounds.
        bounds: Vec<u64>,
        /// Per-bucket counts (one longer than `bounds`).
        counts: Vec<u64>,
        /// Observation count.
        total: u64,
        /// Sum of observed values.
        sum: u64,
    },
}

/// A fully loaded obs directory.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsRun {
    /// The run manifest.
    pub manifest: Manifest,
    /// All spans, in file order.
    pub spans: Vec<SpanRow>,
    /// All metrics, in file order.
    pub metrics: Vec<MetricRow>,
}

/// Loads and validates an obs directory.
///
/// # Errors
///
/// Describes the offending file and line on malformed or
/// version-incompatible input; never panics.
pub fn load_dir(dir: &Path) -> Result<ObsRun, String> {
    let read = |name: &str| {
        let path = dir.join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let manifest_doc = json::parse(&read("manifest.json")?)
        .map_err(|e| format!("{}: {e}", dir.join("manifest.json").display()))?;
    let manifest = Manifest::from_json(&manifest_doc)?;
    let spans = parse_lines(&read("spans.jsonl")?, "spans.jsonl", parse_span)?;
    let metrics = parse_lines(&read("metrics.jsonl")?, "metrics.jsonl", parse_metric)?;
    Ok(ObsRun {
        manifest,
        spans,
        metrics,
    })
}

fn parse_lines<T>(
    text: &str,
    what: &str,
    parse_one: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("{what} line {}: {e}", i + 1))?;
        out.push(parse_one(&doc).map_err(|e| format!("{what} line {}: {e}", i + 1))?);
    }
    Ok(out)
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn field_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn parse_span(doc: &Json) -> Result<SpanRow, String> {
    Ok(SpanRow {
        name: field_str(doc, "name")?,
        node: field_u64(doc, "node")? as u32,
        start_ns: field_u64(doc, "start_ns")?,
        end_ns: field_u64(doc, "end_ns")?,
        messages: field_u64(doc, "messages")?,
        bytes: field_u64(doc, "bytes")?,
        energy_nj: field_u64(doc, "energy_nj")?,
    })
}

fn parse_metric(doc: &Json) -> Result<MetricRow, String> {
    let arr_u64 = |key: &str| -> Result<Vec<u64>, String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_f64)
                    .map(|v| v as u64)
                    .collect()
            })
            .ok_or_else(|| format!("missing array field `{key}`"))
    };
    match field_str(doc, "kind")?.as_str() {
        "counter" => Ok(MetricRow::Counter {
            name: field_str(doc, "name")?,
            value: field_u64(doc, "value")?,
        }),
        "gauge" => Ok(MetricRow::Gauge {
            name: field_str(doc, "name")?,
            value: doc
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("missing numeric field `value`")? as i64,
        }),
        "histogram" => Ok(MetricRow::Histogram {
            name: field_str(doc, "name")?,
            bounds: arr_u64("bounds")?,
            counts: arr_u64("counts")?,
            total: field_u64(doc, "total")?,
            sum: field_u64(doc, "sum")?,
        }),
        other => Err(format!("unknown metric kind `{other}`")),
    }
}

/// Aggregate statistics for one span name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseStats {
    /// Number of spans.
    pub spans: u64,
    /// Distinct nodes covered.
    pub nodes: u64,
    /// Mean span duration, milliseconds of sim time.
    pub mean_ms: f64,
    /// Max span duration, milliseconds of sim time.
    pub max_ms: f64,
    /// Total frames handled inside the spans.
    pub messages: u64,
    /// Total bytes moved inside the spans.
    pub bytes: u64,
    /// Total energy inside the spans, millijoules.
    pub energy_mj: f64,
}

/// Groups a run's spans by name.
#[must_use]
pub fn phase_stats(run: &ObsRun) -> BTreeMap<String, PhaseStats> {
    let mut nodes: BTreeMap<&str, BTreeSet<u32>> = BTreeMap::new();
    let mut sums: BTreeMap<&str, (u64, f64, f64, u64, u64, u64)> = BTreeMap::new();
    for s in &run.spans {
        nodes.entry(&s.name).or_default().insert(s.node);
        let e = sums.entry(&s.name).or_default();
        let dur_ms = s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6;
        e.0 += 1;
        e.1 += dur_ms;
        e.2 = e.2.max(dur_ms);
        e.3 += s.messages;
        e.4 += s.bytes;
        e.5 += s.energy_nj;
    }
    sums.into_iter()
        .map(
            |(name, (n, dur_sum, dur_max, messages, bytes, energy_nj))| {
                (
                    name.to_string(),
                    PhaseStats {
                        spans: n,
                        nodes: nodes.get(name).map_or(0, |s| s.len() as u64),
                        mean_ms: if n > 0 { dur_sum / n as f64 } else { 0.0 },
                        max_ms: dur_max,
                        messages,
                        bytes,
                        energy_mj: energy_nj as f64 / 1e6,
                    },
                )
            },
        )
        .collect()
}

fn total_nodes(run: &ObsRun) -> Option<u64> {
    run.manifest
        .config
        .iter()
        .find(|(k, _)| k == "nodes")
        .and_then(|(_, v)| v.parse::<u64>().ok())
}

/// Renders the per-phase report for one run.
#[must_use]
pub fn render_report(run: &ObsRun) -> String {
    let mut out = String::new();
    let m = &run.manifest;
    let _ = writeln!(
        out,
        "obs report — tool `{}`, seed {}, threads {}, rev {}",
        m.tool, m.seed, m.threads, m.git_rev
    );
    let config: Vec<String> = m.config.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let _ = writeln!(out, "config: {}", config.join(" "));
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<26} {:>6} {:>9} {:>10} {:>10} {:>9} {:>11} {:>11}",
        "span", "count", "nodes", "mean ms", "max ms", "msgs", "bytes", "energy mJ"
    );
    let total = total_nodes(run);
    for (name, st) in phase_stats(run) {
        let nodes = match total {
            // Coverage only makes sense for protocol phases, which at
            // most cover every deployed node once.
            Some(t) if t > 0 && st.nodes <= t => {
                format!("{}/{t}", st.nodes)
            }
            _ => format!("{}", st.nodes),
        };
        let _ = writeln!(
            out,
            "{:<26} {:>6} {:>9} {:>10.2} {:>10.2} {:>9} {:>11} {:>11.3}",
            name, st.spans, nodes, st.mean_ms, st.max_ms, st.messages, st.bytes, st.energy_mj
        );
    }
    if let Some(table) = render_loss_breakdown(run) {
        let _ = writeln!(out);
        out.push_str(&table);
    }
    let counters: Vec<(&String, &u64)> = run
        .metrics
        .iter()
        .filter_map(|m| match m {
            MetricRow::Counter { name, value } => Some((name, value)),
            _ => None,
        })
        .collect();
    if !counters.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "{:<40} {:>12}", "counter", "value");
        for (name, value) in counters {
            let _ = writeln!(out, "{name:<40} {value:>12}");
        }
    }
    for m in &run.metrics {
        if let MetricRow::Gauge { name, value } = m {
            let _ = writeln!(out, "{name:<40} {value:>12}  (gauge)");
        }
    }
    let hists: Vec<&MetricRow> = run
        .metrics
        .iter()
        .filter(|m| matches!(m, MetricRow::Histogram { .. }))
        .collect();
    if !hists.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<40} {:>10} {:>9} {:>9} {:>9} {:>9}",
            "histogram", "total", "mean", "p50", "p95", "p99"
        );
        for m in hists {
            if let MetricRow::Histogram {
                name,
                bounds,
                counts,
                total,
                sum,
            } = m
            {
                let mean = if *total > 0 {
                    *sum as f64 / *total as f64
                } else {
                    0.0
                };
                let q = |q: f64| crate::quantile_from_buckets(bounds, counts, *total, q);
                let _ = writeln!(
                    out,
                    "{name:<40} {total:>10} {mean:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                    q(0.50),
                    q(0.95),
                    q(0.99)
                );
            }
        }
    }
    out
}

/// Extracts `(p50, p95, p99)` estimates for every histogram of a run, by
/// name. Quantiles come from [`crate::quantile_from_buckets`], the same
/// estimator the live [`crate::Histogram`] uses, so a report over an
/// exported directory agrees with in-process numbers to the bit.
#[must_use]
pub fn histogram_quantiles(run: &ObsRun) -> BTreeMap<String, (f64, f64, f64)> {
    run.metrics
        .iter()
        .filter_map(|m| match m {
            MetricRow::Histogram {
                name,
                bounds,
                counts,
                total,
                ..
            } => {
                let q = |q: f64| crate::quantile_from_buckets(bounds, counts, *total, q);
                Some((name.clone(), (q(0.50), q(0.95), q(0.99))))
            }
            _ => None,
        })
        .collect()
}

/// The `sim_lost_*` counters the runner folds in, with display labels,
/// in severity-of-surprise order (channel causes last).
const LOSS_CAUSES: [(&str, &str); 6] = [
    ("sim_lost_collision", "Collision"),
    ("sim_lost_half_duplex", "HalfDuplex"),
    ("sim_lost_mac_drop", "MacDrop"),
    ("sim_lost_receiver_down", "ReceiverDown"),
    ("sim_lost_stochastic", "Stochastic"),
    ("sim_lost_corrupt", "Corrupt"),
];

/// Renders the loss-cause breakdown table, or `None` for runs captured
/// before the simulator exported per-cause loss counters.
fn render_loss_breakdown(run: &ObsRun) -> Option<String> {
    let lookup = |key: &str| {
        run.metrics.iter().find_map(|m| match m {
            MetricRow::Counter { name, value } if name == key => Some(*value),
            _ => None,
        })
    };
    let causes: Vec<(&str, u64)> = LOSS_CAUSES
        .iter()
        .filter_map(|&(key, label)| lookup(key).map(|v| (label, v)))
        .collect();
    if causes.is_empty() {
        return None;
    }
    let total: u64 = causes.iter().map(|(_, v)| v).sum();
    let mut out = String::new();
    let _ = writeln!(out, "{:<20} {:>12} {:>8}", "loss cause", "frames", "share");
    for (label, value) in &causes {
        let share = if total > 0 {
            *value as f64 / total as f64 * 100.0
        } else {
            0.0
        };
        let _ = writeln!(out, "{label:<20} {value:>12} {share:>7.1}%");
    }
    let _ = writeln!(out, "{:<20} {:>12} {:>8}", "total lost", total, "");
    Some(out)
}

fn pct(before: f64, after: f64) -> Option<f64> {
    if before == 0.0 {
        if after == 0.0 {
            Some(0.0)
        } else {
            None // born from zero: no meaningful percentage
        }
    } else {
        Some((after - before) / before * 100.0)
    }
}

/// Diffs two runs phase-by-phase. Returns the rendered diff table and a
/// list of `::warning::`-ready strings for deltas whose magnitude
/// exceeds `warn_pct` percent.
#[must_use]
pub fn render_diff(a: &ObsRun, b: &ObsRun, warn_pct: f64) -> (String, Vec<String>) {
    let mut out = String::new();
    let mut warnings = Vec::new();
    let sa = phase_stats(a);
    let sb = phase_stats(b);
    let _ = writeln!(
        out,
        "obs diff — A: seed {} rev {}  |  B: seed {} rev {}",
        a.manifest.seed, a.manifest.git_rev, b.manifest.seed, b.manifest.git_rev
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<26} {:>22} {:>22} {:>22}",
        "span", "mean ms (A→B)", "msgs (A→B)", "energy mJ (A→B)"
    );
    let names: BTreeSet<&String> = sa.keys().chain(sb.keys()).collect();
    let default = PhaseStats::default();
    for name in names {
        let (pa, pb) = (
            sa.get(name).unwrap_or(&default),
            sb.get(name).unwrap_or(&default),
        );
        let cell = |before: f64, after: f64, decimals: usize| match pct(before, after) {
            Some(p) => format!("{before:.decimals$}→{after:.decimals$} ({p:+.1}%)"),
            None => format!("{before:.decimals$}→{after:.decimals$} (new)"),
        };
        let _ = writeln!(
            out,
            "{:<26} {:>22} {:>22} {:>22}",
            name,
            cell(pa.mean_ms, pb.mean_ms, 2),
            cell(pa.messages as f64, pb.messages as f64, 0),
            cell(pa.energy_mj, pb.energy_mj, 3),
        );
        let checks = [
            ("mean span ms", pa.mean_ms, pb.mean_ms),
            ("messages", pa.messages as f64, pb.messages as f64),
            ("bytes", pa.bytes as f64, pb.bytes as f64),
            ("energy", pa.energy_mj, pb.energy_mj),
            ("node coverage", pa.nodes as f64, pb.nodes as f64),
        ];
        for (what, before, after) in checks {
            let exceeded = match pct(before, after) {
                Some(p) => p.abs() > warn_pct,
                None => true, // appeared out of nothing: always notable
            };
            if exceeded {
                warnings.push(format!(
                    "obs diff: {name} {what} changed {before:.2} -> {after:.2} \
                     (threshold {warn_pct}%)"
                ));
            }
        }
    }
    let (qa, qb) = (histogram_quantiles(a), histogram_quantiles(b));
    let hist_names: BTreeSet<&String> = qa.keys().chain(qb.keys()).collect();
    if !hist_names.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<40} {:>22} {:>22}",
            "histogram", "p95 (A→B)", "p99 (A→B)"
        );
        for name in hist_names {
            let (_, p95a, p99a) = qa.get(name).copied().unwrap_or_default();
            let (_, p95b, p99b) = qb.get(name).copied().unwrap_or_default();
            let cell = |before: f64, after: f64| match pct(before, after) {
                Some(p) => format!("{before:.2}→{after:.2} ({p:+.1}%)"),
                None => format!("{before:.2}→{after:.2} (new)"),
            };
            let _ = writeln!(
                out,
                "{:<40} {:>22} {:>22}",
                name,
                cell(p95a, p95b),
                cell(p99a, p99b)
            );
            // Tail-latency gate: only *regressions* (p99 moving up) warn —
            // an improvement should never fail a soft gate.
            let regressed = match pct(p99a, p99b) {
                Some(p) => p > warn_pct,
                None => true, // histogram appeared with a nonzero tail
            };
            if regressed {
                warnings.push(format!(
                    "obs diff: {name} p99 regressed {p99a:.2} -> {p99b:.2} \
                     (threshold {warn_pct}%)"
                ));
            }
        }
    }
    (out, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::Manifest;
    use crate::{Obs, ObsLevel, SpanSnapshot};

    fn run_with(messages: u64) -> ObsRun {
        ObsRun {
            manifest: Manifest {
                tool: "test".into(),
                seed: 1,
                threads: 1,
                git_rev: "deadbee".into(),
                config: vec![("nodes".into(), "4".into())],
            },
            spans: vec![
                SpanRow {
                    name: "phase.aggregation".into(),
                    node: 1,
                    start_ns: 0,
                    end_ns: 2_000_000,
                    messages,
                    bytes: 100,
                    energy_nj: 1_000_000,
                },
                SpanRow {
                    name: "phase.aggregation".into(),
                    node: 2,
                    start_ns: 0,
                    end_ns: 4_000_000,
                    messages: 2,
                    bytes: 60,
                    energy_nj: 500_000,
                },
            ],
            metrics: vec![MetricRow::Counter {
                name: "icpda_solved".into(),
                value: 2,
            }],
        }
    }

    #[test]
    fn phase_stats_aggregate_per_name() {
        let stats = phase_stats(&run_with(4));
        let st = stats.get("phase.aggregation").expect("phase present");
        assert_eq!(st.spans, 2);
        assert_eq!(st.nodes, 2);
        assert_eq!(st.messages, 6);
        assert!((st.mean_ms - 3.0).abs() < 1e-9);
        assert!((st.max_ms - 4.0).abs() < 1e-9);
        assert!((st.energy_mj - 1.5).abs() < 1e-9);
    }

    #[test]
    fn report_renders_coverage_and_counters() {
        let text = render_report(&run_with(4));
        assert!(text.contains("phase.aggregation"), "{text}");
        assert!(text.contains("2/4"), "coverage cell missing:\n{text}");
        assert!(text.contains("icpda_solved"), "{text}");
        // No sim_lost_* counters captured: the breakdown is omitted, not
        // rendered as a table of zeros.
        assert!(!text.contains("loss cause"), "{text}");
    }

    #[test]
    fn report_renders_loss_cause_breakdown() {
        let mut run = run_with(4);
        run.metrics.extend([
            MetricRow::Counter {
                name: "sim_lost_collision".into(),
                value: 30,
            },
            MetricRow::Counter {
                name: "sim_lost_stochastic".into(),
                value: 60,
            },
            MetricRow::Counter {
                name: "sim_lost_corrupt".into(),
                value: 10,
            },
        ]);
        let text = render_report(&run);
        assert!(text.contains("loss cause"), "{text}");
        assert!(text.contains("Collision"), "{text}");
        assert!(text.contains("Corrupt"), "{text}");
        assert!(text.contains("60.0%"), "stochastic share missing:\n{text}");
        assert!(text.contains("total lost"), "{text}");
        assert!(text.contains("100"), "{text}");
    }

    #[test]
    fn diff_warns_beyond_threshold_only() {
        let (text, warnings) = render_diff(&run_with(4), &run_with(4), 10.0);
        assert!(text.contains("+0.0%"), "{text}");
        assert!(warnings.is_empty(), "{warnings:?}");
        let (_, warnings) = render_diff(&run_with(4), &run_with(40), 10.0);
        assert!(
            warnings.iter().any(|w| w.contains("messages")),
            "{warnings:?}"
        );
    }

    fn with_hist(mut run: ObsRun, counts: [u64; 3]) -> ObsRun {
        let total = counts.iter().sum();
        run.metrics.push(MetricRow::Histogram {
            name: "engine.batch_receivers".into(),
            bounds: vec![2, 8],
            counts: counts.to_vec(),
            total,
            sum: 0,
        });
        run
    }

    #[test]
    fn report_renders_quantile_columns() {
        let run = with_hist(run_with(4), [90, 9, 1]);
        let text = render_report(&run);
        assert!(text.contains("p50"), "{text}");
        assert!(text.contains("p99"), "{text}");
        assert!(text.contains("engine.batch_receivers"), "{text}");
        let q = histogram_quantiles(&run);
        let (p50, p95, p99) = q["engine.batch_receivers"];
        assert!(p50 <= 2.0, "p50 in first bucket, got {p50}");
        assert!(p95 > 2.0 && p95 <= 8.0, "p95 in second bucket, got {p95}");
        assert!(
            (p99 - 8.0).abs() < 1e-9 || p99 > 8.0,
            "p99 at tail, got {p99}"
        );
    }

    #[test]
    fn diff_warns_on_p99_regression_but_not_improvement() {
        let tight = with_hist(run_with(4), [99, 1, 0]);
        let heavy = with_hist(run_with(4), [50, 20, 30]);
        // Self-diff must stay warning-free (CI greps for ::warning::).
        let (_, warnings) = render_diff(&tight, &tight, 10.0);
        assert!(warnings.is_empty(), "{warnings:?}");
        // Tail growing: regression warning fires.
        let (text, warnings) = render_diff(&tight, &heavy, 10.0);
        assert!(text.contains("p99 (A→B)"), "{text}");
        assert!(
            warnings.iter().any(|w| w.contains("p99 regressed")),
            "{warnings:?}"
        );
        // Tail shrinking: improvements never warn.
        let (_, warnings) = render_diff(&heavy, &tight, 10.0);
        assert!(!warnings.iter().any(|w| w.contains("p99")), "{warnings:?}");
    }

    #[test]
    fn export_then_load_round_trips() {
        let mut obs = Obs::new(ObsLevel::Full);
        obs.span_start("phase.query_flood", 1, 0, SpanSnapshot::default());
        obs.span_end(
            "phase.query_flood",
            1,
            1_000,
            SpanSnapshot {
                messages: 1,
                bytes: 10,
                energy_nj: 100,
            },
        );
        obs.inc("c");
        obs.gauge_set("g", -4);
        obs.observe("h", &[2, 8], 3);
        let manifest = Manifest {
            tool: "test".into(),
            seed: 7,
            threads: 2,
            git_rev: "unknown".into(),
            config: vec![("nodes".into(), "10".into())],
        };
        let dir = std::env::temp_dir().join(format!("obs-rt-{}", std::process::id()));
        let stream = crate::stream::ObsStream::create(&dir).expect("open obs dir");
        stream.finish(&manifest, &mut obs).expect("write obs dir");
        let run = load_dir(&dir).expect("load obs dir");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(run.manifest, manifest);
        assert_eq!(run.spans.len(), 1);
        assert_eq!(run.spans[0].name, "phase.query_flood");
        assert_eq!(run.metrics.len(), 3);
    }
}
