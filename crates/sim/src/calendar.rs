//! A calendar (bucket) queue for the event scheduler.
//!
//! [`CalendarQueue`] replaces the global `BinaryHeap` in the engine: a
//! ring of fixed-width time buckets covers a sliding near-future window,
//! and everything beyond the window waits in a `BTreeMap` overflow. At
//! the event densities a 10k–50k-node network produces, almost every
//! event (MAC attempts, transmission ends, delivery fan-outs — all
//! sub-millisecond ahead) lands in the ring, where push and pop are O(1)
//! amortised instead of the heap's O(log m). Sparse far-future events
//! (protocol phase timers, fault edges) pay one `BTreeMap` insert — no
//! worse than the heap they came from.
//!
//! **Pop order is byte-identical to the heap's.** Every queue entry is
//! keyed `(SimTime, seq)` with a globally unique, monotonically assigned
//! `seq`, and the queue always pops the minimum key:
//!
//! * within a bucket, entries are kept sorted ascending and popped from
//!   the front, so the bucket yields ascending `(time, seq)`;
//! * buckets are drained in ring order, and a bucket's key range is
//!   strictly below the next bucket's;
//! * every overflow key is `>=` the window end, i.e. strictly above
//!   every ring key, and the window only advances when the ring is
//!   empty.
//!
//! So the merged pop sequence is the globally sorted `(time, seq)`
//! order — exactly what `BinaryHeap<Reverse<…>>` produced. The
//! golden-trace regression test pins this equivalence byte-for-byte.

use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Width of one ring bucket. 250 µs is a little below the airtime of a
/// typical frame, so the in-flight MAC/delivery events of one
/// transmission spread over a couple of buckets instead of piling into
/// one.
const BUCKET_WIDTH_NS: u64 = 250_000;

/// Bucket-count bounds: small queues stay cache-friendly, large ones
/// stop growing once the ring covers a generous window (1024 buckets
/// ≈ 256 ms — beyond that, events are "far future" and belong to the
/// overflow map).
const MIN_BUCKETS: usize = 64;
const MAX_BUCKETS: usize = 1024;

/// A monotone priority queue over `(SimTime, seq)` keys.
///
/// "Monotone" means pushes never precede the last popped key — the
/// discrete-event invariant (`schedule` into the past is a bug). The
/// queue tolerates pushes anywhere at or after the current window start
/// and keeps total order regardless.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// The near-future ring. Each bucket is sorted **ascending** by
    /// `(time, seq)`: the minimum pops from the front in O(1), and the
    /// common monotone push (a key above everything queued) appends.
    buckets: Vec<VecDeque<(SimTime, u64, T)>>,
    /// Start of the current window (bucket 0's lower bound), nanoseconds.
    base_ns: u64,
    /// First bucket that may be non-empty; earlier buckets are drained.
    head: usize,
    /// Entries currently in the ring.
    ring_len: usize,
    /// Far-future entries, keyed `(time_ns, seq)`; all keys are `>=` the
    /// window end.
    overflow: BTreeMap<(u64, u64), T>,
}

impl<T> CalendarQueue<T> {
    /// A queue sized for `n` event sources (nodes): more nodes mean more
    /// simultaneously in-flight events, so the ring gets more buckets
    /// (a power of two from 64 to 1024).
    #[must_use]
    pub fn for_nodes(n: usize) -> Self {
        let buckets = n.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        CalendarQueue {
            buckets: (0..buckets).map(|_| VecDeque::new()).collect(),
            base_ns: 0,
            head: 0,
            ring_len: 0,
            overflow: BTreeMap::new(),
        }
    }

    /// Total queued entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// `true` when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// End of the current ring window (exclusive), nanoseconds.
    fn window_end_ns(&self) -> u64 {
        self.base_ns
            .saturating_add(self.buckets.len() as u64 * BUCKET_WIDTH_NS)
    }

    /// Queues `item` under key `(time, seq)`.
    pub fn push(&mut self, time: SimTime, seq: u64, item: T) {
        let t = time.as_nanos();
        if t >= self.window_end_ns() {
            self.overflow.insert((t, seq), item);
            return;
        }
        // In-window. A key below the head bucket's range cannot occur
        // while the engine is executing (pushes happen at >= now, and
        // now lies in the head bucket), but clamping to the head bucket
        // keeps total order even if it did: the entry sorts below the
        // bucket's native keys and pops first.
        let idx = ((t.saturating_sub(self.base_ns)) / BUCKET_WIDTH_NS) as usize;
        let idx = idx.max(self.head);
        let bucket = &mut self.buckets[idx];
        // Ascending order. The engine assigns seqs monotonically, so a
        // push at or after the bucket's last time is its new maximum and
        // appends; an earlier push binary-searches its slot, and
        // `VecDeque::insert` shifts whichever side of it is shorter.
        if bucket
            .back()
            .is_none_or(|&(bt, bs, _)| (bt, bs) < (time, seq))
        {
            bucket.push_back((time, seq, item));
        } else {
            let pos = bucket.partition_point(|&(bt, bs, _)| (bt, bs) < (time, seq));
            bucket.insert(pos, (time, seq, item));
        }
        self.ring_len += 1;
    }

    /// Advances `head` past drained buckets and, when the ring is empty,
    /// rebases the window onto the earliest overflow entry and pulls the
    /// new window's worth of overflow into the ring.
    fn maintain(&mut self) {
        if self.ring_len > 0 {
            while self.buckets[self.head].is_empty() {
                self.head += 1;
            }
            return;
        }
        if self.overflow.is_empty() {
            return;
        }
        let Some((&(first_ns, _), _)) = self.overflow.first_key_value() else {
            return;
        };
        // New window starts exactly at the earliest pending key: empty
        // time is skipped in one jump, never bucket-by-bucket.
        self.base_ns = first_ns;
        self.head = 0;
        let end = self.window_end_ns();
        // Split off the keys at or beyond the new window end; what
        // remains is this window's load, moved into the ring.
        let rest = self.overflow.split_off(&(end, 0));
        let within = std::mem::replace(&mut self.overflow, rest);
        // The drain arrives in ascending key order, which is bucket order.
        for ((t, seq), item) in within {
            let idx = ((t - self.base_ns) / BUCKET_WIDTH_NS) as usize;
            self.buckets[idx].push_back((SimTime::from_nanos(t), seq, item));
            self.ring_len += 1;
        }
        while self.buckets[self.head].is_empty() {
            if self.head + 1 >= self.buckets.len() {
                break;
            }
            self.head += 1;
        }
    }

    /// The minimum `(time, seq)` key, without removing it.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.maintain();
        if self.ring_len == 0 {
            return None;
        }
        self.buckets[self.head]
            .front()
            .map(|&(time, seq, _)| (time, seq))
    }

    /// Removes and returns the entry with the minimum `(time, seq)` key.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.maintain();
        if self.ring_len == 0 {
            return None;
        }
        let entry = self.buckets[self.head].pop_front();
        if entry.is_some() {
            self.ring_len -= 1;
        }
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_key_order_within_and_across_buckets() {
        let mut q = CalendarQueue::for_nodes(4);
        q.push(t(700_000), 2, "c");
        q.push(t(1_000), 0, "a");
        q.push(t(1_000), 1, "b");
        q.push(t(900_000_000), 3, "far");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_key(), Some((t(1_000), 0)));
        assert_eq!(q.pop(), Some((t(1_000), 0, "a")));
        assert_eq!(q.pop(), Some((t(1_000), 1, "b")));
        assert_eq!(q.pop(), Some((t(700_000), 2, "c")));
        // Ring drained: the window rebases onto the overflow entry.
        assert_eq!(q.pop(), Some((t(900_000_000), 3, "far")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_in_seq_order_everywhere() {
        let mut q = CalendarQueue::for_nodes(1);
        // Same instant, far future: all overflow, then one window.
        for seq in (0..20u64).rev() {
            q.push(t(5_000_000_000), seq, seq);
        }
        for seq in 0..20u64 {
            assert_eq!(q.pop(), Some((t(5_000_000_000), seq, seq)));
        }
    }

    /// The defining property: any interleaving of pushes and pops yields
    /// exactly the `BinaryHeap<Reverse<(time, seq)>>` pop sequence.
    #[test]
    fn matches_binary_heap_on_random_interleavings() {
        for seed in 0..10u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut q = CalendarQueue::for_nodes(64);
            let mut heap: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..5_000 {
                if rng.gen_bool(0.55) || heap.is_empty() {
                    // Mixed horizons: mostly sub-millisecond, some far.
                    let ahead = match rng.gen_range(0..10) {
                        0..=6 => rng.gen_range(0..1_000_000),
                        7 | 8 => rng.gen_range(0..50_000_000),
                        _ => rng.gen_range(0..30_000_000_000),
                    };
                    let at = t(now + ahead);
                    q.push(at, seq, seq);
                    heap.push(Reverse((at, seq)));
                    seq += 1;
                } else {
                    let Some(Reverse((ht, hs))) = heap.pop() else {
                        unreachable!("guarded by is_empty");
                    };
                    let got = q.pop();
                    assert_eq!(got.map(|(a, b, _)| (a, b)), Some((ht, hs)));
                    now = ht.as_nanos();
                }
            }
            // Drain both to the end.
            while let Some(Reverse((ht, hs))) = heap.pop() {
                assert_eq!(q.pop().map(|(a, b, _)| (a, b)), Some((ht, hs)));
            }
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn in_window_pushes_below_the_bucket_maximum_are_inserted_in_order() {
        let mut q = CalendarQueue::for_nodes(1);
        // One bucket: an append, an earlier time, and an equal time with
        // a smaller seq must all land in key order.
        q.push(t(2_000), 5, "append");
        q.push(t(1_000), 6, "earlier");
        q.push(t(2_000), 4, "same time, smaller seq");
        q.push(t(2_000), 7, "same time, larger seq");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(
            order,
            [
                "earlier",
                "same time, smaller seq",
                "append",
                "same time, larger seq"
            ]
        );
    }

    #[test]
    fn push_below_window_start_still_pops_first() {
        let mut q = CalendarQueue::for_nodes(1);
        // Force a rebase far forward...
        q.push(t(10_000_000_000), 0, 0u32);
        assert_eq!(q.peek_key(), Some((t(10_000_000_000), 0)));
        // ...then push behind the new base: must still pop first.
        q.push(t(9_999_999_999), 1, 1u32);
        assert_eq!(q.pop(), Some((t(9_999_999_999), 1, 1)));
        assert_eq!(q.pop(), Some((t(10_000_000_000), 0, 0)));
    }
}
