//! Shared experiment harness for the figure/table binaries.
//!
//! Every `fig_*`/`tab_*` binary regenerates one evaluation artefact:
//! it sweeps the paper's parameter axis, averages over seeded trials,
//! and prints a markdown table (and writes a CSV next to it under
//! `results/`). The binaries only orchestrate; all protocol logic lives
//! in the library crates.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod parallel;
pub mod perf;
pub mod svg;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use wsn_sim::geometry::Region;
use wsn_sim::topology::Deployment;

/// The network sizes of the paper's sweep (nodes on 400 m × 400 m).
pub const N_SWEEP: [usize; 5] = [200, 300, 400, 500, 600];

/// The paper's radio range in meters.
pub const RADIO_RANGE: f64 = 50.0;

/// Seeds per data point (the paper runs 50 trials for the Th figure;
/// 10 keeps every figure regenerable in seconds while giving stable
/// means).
pub const TRIALS: u64 = 10;

/// A deployment drawn exactly like the paper's: uniform over the
/// 400 m × 400 m field, central base station, 50 m range.
#[must_use]
pub fn paper_deployment(n: usize, seed: u64) -> Deployment {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Deployment::uniform_random_with_central_bs(n, Region::paper_default(), RADIO_RANGE, &mut rng)
}

/// The paper's node density: 600 nodes on 400 m × 400 m.
pub const PAPER_DENSITY: f64 = 600.0 / (400.0 * 400.0);

/// The square region that keeps [`PAPER_DENSITY`] at `n` nodes. At
/// `n = 600` this is exactly the paper's 400 m field; larger networks
/// grow the field instead of the degree, so MAC contention and cluster
/// sizes stay in the regime the paper evaluates while hop depth — the
/// quantity that actually scales — grows as `sqrt(n)`.
#[must_use]
pub fn scaled_region(n: usize) -> Region {
    let side = (n.max(1) as f64 / PAPER_DENSITY).sqrt();
    Region::new(side, side)
}

/// A density-constant deployment for the scale experiments: uniform
/// over [`scaled_region`], central base station, paper radio range.
#[must_use]
pub fn scaled_deployment(n: usize, seed: u64) -> Deployment {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Deployment::uniform_random_with_central_bs(n, scaled_region(n), RADIO_RANGE, &mut rng)
}

/// Arithmetic mean (0 for an empty slice).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (0 below two samples).
#[must_use]
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// A printable experiment table (markdown to stdout, CSV to `results/`).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Prints the markdown rendering to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }

    /// Writes the table as CSV under `results/<name>.csv` (relative to
    /// the workspace root when run via `cargo run`), creating the
    /// directory if needed, and returns the written path.
    ///
    /// # Errors
    ///
    /// Propagates the IO error when the directory or file cannot be
    /// written — callers (the figure binaries) exit nonzero on it
    /// rather than silently shipping a stale artefact.
    pub fn write_csv(&self, name: &str) -> io::Result<PathBuf> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, csv)?;
        Ok(path)
    }

    /// Emits the stdout markdown and the CSV file, then appends the
    /// timing report of the `par_*` calls that produced the data (on
    /// stderr, keeping stdout byte-comparable across thread counts).
    ///
    /// # Errors
    ///
    /// Propagates [`Table::write_csv`] failures.
    pub fn emit(&self, name: &str) -> io::Result<()> {
        self.print();
        for timing in parallel::drain_timings() {
            eprintln!("{}", timing.report());
        }
        let path = self.write_csv(name)?;
        eprintln!("(csv written to {})", path.display());
        Ok(())
    }
}

/// Shared `main` body for the figure/table binaries: accepts only
/// `--threads N` and `--help` / `-h` (anything else is an error, so a
/// mistyped flag never starts a long run), runs the experiment, and maps
/// any failure to a nonzero exit so CI and scripts never mistake a
/// half-written CSV for a regenerated artefact.
pub fn run_main(run: impl FnOnce() -> io::Result<()>) -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let bin = argv
        .first()
        .and_then(|p| std::path::Path::new(p).file_name())
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    let usage = format!("usage: {bin} [--threads N]");
    match parallel::init_threads_from_args(argv.get(1..).unwrap_or_default()) {
        Ok(true) => finish(run()),
        Ok(false) => {
            println!("{usage}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n{usage}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Maps an experiment's outcome to the process exit code, printing the
/// error if there is one.
pub fn finish(result: io::Result<()>) -> std::process::ExitCode {
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Formats a float with 3 decimals (the tables' standard cell format).
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
#[must_use]
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!((stddev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_validates_rows() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn deployment_is_reproducible() {
        let a = paper_deployment(100, 5);
        let b = paper_deployment(100, 5);
        assert_eq!(a.average_degree(), b.average_degree());
    }
}
