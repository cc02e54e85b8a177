//! Host-speed probe: rescales measured host time to a reference speed.
//!
//! The benchmark runs on shared hosts whose memory system other tenants
//! contend for. On the 2-vCPU Xeon VM it was tuned on, one and the same
//! N=400 trial took anywhere from 12 to 25 ms within a few minutes,
//! switching regime every few seconds, while a compute-bound loop stayed
//! flat — so raw host times of 10 to 20 s runs spread by up to 15–20 %
//! across seeds.
//!
//! Around every timed interval the benchmark therefore times a small
//! cache-bound kernel of its own (sort 64 Ki integers, build a
//! 4 Ki-entry `BTreeMap`), which does not depend on the program under
//! test, and scales the interval by [`REFERENCE_NS`] / (mean of the
//! kernel times just before and just after it). A change to the program
//! moves the rescaled time exactly as it moves the raw time; a change in
//! host speed moves the trial and the kernel together and largely
//! cancels. Raw host times are reported next to the rescaled ones.

use crate::workload::{derive_seed, elapsed_ns};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys sorted per kernel run (512 KiB of `u64`).
const SORT_KEYS: usize = 1 << 16;
/// Keys inserted into the kernel's map.
const MAP_KEYS: usize = 1 << 12;

/// The kernel's time at reference speed: about its median right after a
/// trial (2.57 ms over 80 s) on the tuning host, a 2-vCPU Intel Xeon VM
/// at 2.0 GHz nominal.
pub const REFERENCE_NS: f64 = 2.5e6;

/// Times the kernel between measured intervals.
#[derive(Debug)]
pub struct Probe {
    keys: Vec<u64>,
    buf: Vec<u64>,
    last_ns: u64,
    /// Sum and count of the scales handed out, for the report.
    scale_sum: f64,
    scales: u32,
}

impl Probe {
    /// Builds the kernel's inputs and takes the first sample.
    pub fn new() -> Probe {
        let keys: Vec<u64> = (0..SORT_KEYS as u64)
            .map(|i| derive_seed(0x5eed, 0, i))
            .collect();
        let mut probe = Probe {
            buf: vec![0; SORT_KEYS],
            keys,
            last_ns: 0,
            scale_sum: 0.0,
            scales: 0,
        };
        probe.restart();
        probe
    }

    fn kernel(&mut self) -> u64 {
        let start = Instant::now();
        self.buf.copy_from_slice(&self.keys);
        self.buf.sort_unstable();
        let mut map = BTreeMap::new();
        for &k in &self.keys[..MAP_KEYS] {
            map.insert(k, k);
        }
        black_box((&self.buf, map.len()));
        elapsed_ns(start)
    }

    /// Times the kernel now and returns the reference-speed scale of the
    /// interval since the previous sample. The kernel runs cold, right
    /// after the interval's work has evicted its data: that way it feels
    /// the same memory-system contention the work did.
    pub fn scale(&mut self) -> f64 {
        let now = self.kernel();
        let scale = REFERENCE_NS * 2.0 / (self.last_ns + now) as f64;
        self.last_ns = now;
        self.scale_sum += scale;
        self.scales += 1;
        scale
    }

    /// Starts a new interval without reporting the previous one (after
    /// untimed work such as a warm-up).
    pub fn restart(&mut self) {
        self.last_ns = self.kernel();
    }

    /// Mean scale handed out so far: below 1 the host ran slower than
    /// the reference, above 1 faster.
    pub fn mean_scale(&self) -> f64 {
        if self.scales == 0 {
            1.0
        } else {
            self.scale_sum / f64::from(self.scales)
        }
    }
}
