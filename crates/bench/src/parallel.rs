//! Deterministic parallel trial execution.
//!
//! Every experiment is a map over independent `(parameter, seed)` jobs:
//! each job builds its own seeded RNGs and its own simulator, so jobs
//! share no mutable state and can run on any thread in any order. The
//! functions here fan jobs out over a scoped thread pool and collect
//! the outputs **by job index**, so the result vector — and therefore
//! every table and CSV derived from it — is identical to what the
//! serial `for seed in 0..trials` loop produced, regardless of worker
//! count or scheduling.
//!
//! Worker count resolution, most specific wins:
//!
//! 1. `--threads N` on the command line ([`init_threads_from_args`],
//!    called by every figure binary; [`parse_threads`] for binaries
//!    with options of their own) or [`set_threads`];
//! 2. the `ICPDA_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! The simulator itself stays single-threaded: one discrete-event run
//! is a strictly ordered event sequence (DESIGN §6's "same seed ⇒
//! identical trace" invariant), so parallelism lives here, above it.
//!
//! Each `par_*` call records a [`ParTiming`] — wall clock, worker
//! count, and per-job durations — which [`crate::Table::emit`] drains
//! and appends to the experiment's output (on stderr, so stdout tables
//! and CSVs stay byte-comparable across runs and thread counts).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker count forced by [`set_threads`]; 0 means "not forced".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Timings recorded by `par_*` calls since the last [`drain_timings`].
static TIMINGS: Mutex<Vec<ParTiming>> = Mutex::new(Vec::new());

/// Wall-clock record of one `par_trials`/`par_sweep` call.
#[derive(Debug, Clone)]
pub struct ParTiming {
    /// What ran (usually the experiment's CSV name).
    pub label: String,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole call.
    pub wall_secs: f64,
    /// Per-job `(label, seconds)`, in job order.
    pub jobs: Vec<(String, f64)>,
}

impl ParTiming {
    /// Sum of per-job times — what a serial run would have cost.
    #[must_use]
    pub fn serial_secs(&self) -> f64 {
        self.jobs.iter().map(|(_, s)| s).sum()
    }

    /// One-paragraph report: totals plus the slowest jobs.
    #[must_use]
    pub fn report(&self) -> String {
        let serial = self.serial_secs();
        let speedup = if self.wall_secs > 0.0 {
            serial / self.wall_secs
        } else {
            1.0
        };
        let mut slowest: Vec<&(String, f64)> = self.jobs.iter().collect();
        slowest.sort_by(|a, b| b.1.total_cmp(&a.1));
        let worst = slowest
            .iter()
            .take(3)
            .map(|(l, s)| format!("{l} {s:.2}s"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "timing[{}]: {} jobs on {} thread(s), wall {:.2}s, \
             job-time total {:.2}s ({speedup:.1}x), slowest: {worst}",
            self.label,
            self.jobs.len(),
            self.threads,
            self.wall_secs,
            serial,
        )
    }
}

/// Forces the worker count (the `--threads` CLI flag). `0` restores
/// automatic resolution.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Applies the command line of a figure binary, which takes only
/// `--threads N` (or `--threads=N`) and `--help` / `-h`. Returns
/// `Ok(false)` when usage was asked for, so nothing should run.
///
/// # Errors
///
/// Returns a description of an unknown argument, or of a `--threads`
/// value that is missing or not a positive integer.
pub fn init_threads_from_args(argv: &[String]) -> Result<bool, String> {
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let raw = match arg.as_str() {
            "--help" | "-h" => return Ok(false),
            "--threads" => iter.next().ok_or("--threads needs a value")?.as_str(),
            other => other
                .strip_prefix("--threads=")
                .ok_or_else(|| format!("unknown argument '{other}'"))?,
        };
        set_threads(parse_threads(raw)?);
    }
    Ok(true)
}

/// Parses a `--threads` value: a positive worker count.
///
/// # Errors
///
/// Returns a description when `raw` is not a positive integer.
pub fn parse_threads(raw: &str) -> Result<usize, String> {
    match raw.parse() {
        Ok(0) => Err("--threads must be at least 1".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--threads: cannot parse '{raw}'")),
    }
}

/// The worker count the next `par_*` call will use.
#[must_use]
pub fn effective_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("ICPDA_THREADS") {
        match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => eprintln!("warning: ignoring ICPDA_THREADS={raw:?} (want a positive integer)"),
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Takes (and clears) the timings recorded since the last call.
#[must_use]
pub fn drain_timings() -> Vec<ParTiming> {
    std::mem::take(&mut TIMINGS.lock().expect("timing lock"))
}

/// Runs `f` over `jobs` on the effective worker count and returns the
/// outputs **in job order**. `f` must be a pure function of its job
/// (each job seeds its own RNGs), which is what makes the output
/// independent of scheduling.
pub fn par_map<I, O, F>(label: &str, jobs: Vec<(String, I)>, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let started = Instant::now();
    let threads = effective_threads().min(jobs.len()).max(1);
    let mut job_secs = vec![0.0f64; jobs.len()];
    let outputs: Vec<O> = if threads == 1 {
        // Serial reference path: plain in-order loop.
        jobs.iter()
            .zip(&mut job_secs)
            .map(|((_, job), secs)| {
                let t = Instant::now();
                let out = f(job);
                *secs = t.elapsed().as_secs_f64();
                out
            })
            .collect()
    } else {
        // Work stealing over a shared cursor; each worker writes its
        // output into the slot of the job index it claimed, so the
        // collected vector is in job order no matter who ran what.
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(O, f64)>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some((_, job)) = jobs.get(i) else { break };
                    let t = Instant::now();
                    let out = f(job);
                    *slots[i].lock().expect("result slot") = Some((out, t.elapsed().as_secs_f64()));
                });
            }
        });
        slots
            .into_iter()
            .zip(&mut job_secs)
            .map(|(slot, secs)| {
                let (out, s) = slot
                    .into_inner()
                    .expect("result slot")
                    .expect("worker filled every claimed slot");
                *secs = s;
                out
            })
            .collect()
    };
    let timing = ParTiming {
        label: label.to_string(),
        threads,
        wall_secs: started.elapsed().as_secs_f64(),
        jobs: jobs.iter().map(|(l, _)| l.clone()).zip(job_secs).collect(),
    };
    TIMINGS.lock().expect("timing lock").push(timing);
    outputs
}

/// Runs `f(seed)` for `seed in 0..trials` in parallel; outputs in seed
/// order, element-for-element identical to the serial loop.
pub fn par_trials<O, F>(label: &str, trials: u64, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(u64) -> O + Sync,
{
    let jobs: Vec<(String, u64)> = (0..trials).map(|s| (format!("seed={s}"), s)).collect();
    par_map(label, jobs, |&seed| f(seed))
}

/// Runs `f(param, seed)` over the full `(params × 0..trials)` grid in
/// parallel and groups the outputs per parameter, both in input order.
/// The flat grid (rather than nested `par_trials` per parameter) keeps
/// every worker busy across parameter boundaries.
pub fn par_sweep<P, O, F>(label: &str, params: &[P], trials: u64, f: F) -> Vec<Vec<O>>
where
    P: Sync,
    O: Send,
    F: Fn(&P, u64) -> O + Sync,
{
    let jobs: Vec<(String, (usize, u64))> = (0..params.len())
        .flat_map(|p| (0..trials).map(move |s| (format!("p{p}/seed={s}"), (p, s))))
        .collect();
    let flat = par_map(label, jobs, |&(p, s)| f(&params[p], s));
    let mut grouped: Vec<Vec<O>> = (0..params.len()).map(|_| Vec::new()).collect();
    for (i, out) in flat.into_iter().enumerate() {
        grouped[i / trials.max(1) as usize].push(out);
    }
    grouped
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set_threads` and the timing registry are process-global, so
    /// tests touching them must not interleave.
    static GLOBALS: Mutex<()> = Mutex::new(());

    fn serialized() -> std::sync::MutexGuard<'static, ()> {
        GLOBALS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn par_map_outputs_are_in_job_order() {
        let _guard = serialized();
        let jobs: Vec<(String, u64)> = (0..64).map(|i| (format!("j{i}"), i)).collect();
        let serial: Vec<u64> = jobs.iter().map(|&(_, i)| i * i).collect();
        set_threads(4);
        let parallel = par_map("test", jobs, |&i| i * i);
        set_threads(0);
        let _ = drain_timings();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn par_sweep_groups_by_parameter() {
        let _guard = serialized();
        set_threads(3);
        let grouped = par_sweep("test", &[10u64, 20, 30], 4, |&p, s| p + s);
        set_threads(0);
        let _ = drain_timings();
        assert_eq!(grouped.len(), 3);
        assert_eq!(grouped[0], vec![10, 11, 12, 13]);
        assert_eq!(grouped[2], vec![30, 31, 32, 33]);
    }

    #[test]
    fn timing_is_recorded_per_job() {
        let _guard = serialized();
        let _ = drain_timings();
        set_threads(2);
        let _ = par_trials("timed", 5, |s| s);
        set_threads(0);
        let timings = drain_timings();
        let t = timings
            .iter()
            .find(|t| t.label == "timed")
            .expect("recorded");
        assert_eq!(t.jobs.len(), 5);
        assert_eq!(t.jobs[3].0, "seed=3");
        assert!(t.report().contains("5 jobs"));
    }

    #[test]
    fn threads_flag_parsing() {
        let _guard = serialized();
        let argv = |a: &[&str]| a.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        assert_eq!(init_threads_from_args(&[]), Ok(true));
        assert_eq!(init_threads_from_args(&argv(&["--threads", "3"])), Ok(true));
        assert_eq!(effective_threads(), 3);
        assert_eq!(init_threads_from_args(&argv(&["--threads=5"])), Ok(true));
        assert_eq!(effective_threads(), 5);
        assert_eq!(init_threads_from_args(&argv(&["--help"])), Ok(false));
        assert_eq!(init_threads_from_args(&argv(&["-h"])), Ok(false));
        for bad in [
            &["--threads"][..],
            &["--threads", "0"],
            &["--threads=abc"],
            &["--quick"],
            &["extra"],
        ] {
            assert!(init_threads_from_args(&argv(bad)).is_err(), "{bad:?}");
        }
        set_threads(7);
        assert_eq!(effective_threads(), 7);
        set_threads(0);
        assert!(effective_threads() >= 1);
    }
}
