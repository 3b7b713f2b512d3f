//! Work-stealing fault-chunk queue for the fault-sim driver.
//!
//! A static split deals the fault list out as one contiguous chunk per
//! worker up front. That is bit-exact but load-blind: skewed
//! fault universes (the csa16 all-pass class is the canonical example —
//! its faults bail out of the event kernel immediately, while deep-cone
//! faults cost thousands of gate evaluations) leave some workers idle
//! while others grind. [`WorkQueue`] replaces the static split with
//! chunked claiming plus steal-half-on-exhaustion:
//!
//! * the fault list is cut into fixed chunks of `chunk_size` faults;
//!   chunk boundaries are a pure function of the input, **not** of
//!   scheduling, which is what keeps the merged output bit-identical to
//!   the serial engine no matter who processes what;
//! * each worker starts with a contiguous span of chunks, packed as
//!   `head:u32 | tail:u32` (half-open, in chunk units) in one
//!   `AtomicU64`, and claims from its own head by CAS;
//! * a worker whose span is empty scans the other spans and steals the
//!   **upper half** of the first non-empty one (CAS the victim's tail
//!   down), installs the remainder as its own span, and bumps the shared
//!   steal counter the scaling benches and the determinism test read.
//!
//! ABA cannot bite: a chunk index is claimed exactly once globally, so a
//! packed `(head, tail)` value can never recur with a different meaning —
//! any successful CAS is a valid transition. A worker retires when one
//! full scan finds every span empty; chunks already claimed but still in
//! flight belong to the worker that claimed them, so early retirement
//! never loses work.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Pack a half-open chunk span `[head, tail)` into one word.
const fn pack(head: u32, tail: u32) -> u64 {
    ((head as u64) << 32) | tail as u64
}

/// Unpack a span word into `(head, tail)`.
#[allow(clippy::cast_possible_truncation)]
const fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// A chunked work-stealing queue over `n_items` items.
///
/// The fault-sim driver exposes its effect through
/// [`crate::faultsim::StealStats`]; `sinw-server` reuses it directly to
/// deal job chunks (fault-sim rows, signature rows) across the worker
/// threads of its bounded job engine with the same determinism argument:
/// chunk boundaries are a pure function of the input, so merged output
/// is independent of which worker claims which chunk.
pub struct WorkQueue {
    chunk_size: usize,
    n_items: usize,
    n_chunks: usize,
    /// One packed `[head, tail)` span per worker.
    spans: Vec<AtomicU64>,
    /// Successful steals (for the benches and the determinism test).
    steals: AtomicUsize,
}

impl WorkQueue {
    /// Cut `n_items` into chunks of `chunk_size` and deal the chunks out
    /// as contiguous spans, one per worker.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` or `workers` is zero.
    pub fn new(n_items: usize, workers: usize, chunk_size: usize) -> Self {
        assert!(chunk_size >= 1, "chunk size must be positive");
        assert!(workers >= 1, "need at least one worker");
        let n_chunks = n_items.div_ceil(chunk_size);
        assert!(u32::try_from(n_chunks).is_ok(), "chunk count overflows u32");
        let per = n_chunks / workers;
        let rem = n_chunks % workers;
        let mut spans = Vec::with_capacity(workers);
        let mut lo = 0usize;
        for w in 0..workers {
            let len = per + usize::from(w < rem);
            #[allow(clippy::cast_possible_truncation)]
            spans.push(AtomicU64::new(pack(lo as u32, (lo + len) as u32)));
            lo += len;
        }
        debug_assert_eq!(lo, n_chunks);
        WorkQueue {
            chunk_size,
            n_items,
            n_chunks,
            spans,
            steals: AtomicUsize::new(0),
        }
    }

    /// Total number of chunks dealt out.
    pub fn chunk_count(&self) -> usize {
        self.n_chunks
    }

    /// Successful steals so far.
    pub fn steals(&self) -> usize {
        self.steals.load(Ordering::SeqCst)
    }

    /// The item range chunk `chunk` covers (the last chunk may be short).
    pub fn item_range(&self, chunk: usize) -> std::ops::Range<usize> {
        let lo = chunk * self.chunk_size;
        lo..((lo + self.chunk_size).min(self.n_items))
    }

    /// Claim the next chunk for `worker`: from its own span head, else by
    /// stealing the upper half of the first non-empty victim span. `None`
    /// after a full scan finds every span empty.
    pub fn pop(&self, worker: usize) -> Option<usize> {
        // Own span first.
        let own = &self.spans[worker];
        let mut v = own.load(Ordering::SeqCst);
        loop {
            let (h, t) = unpack(v);
            if h >= t {
                break;
            }
            match own.compare_exchange_weak(v, pack(h + 1, t), Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return Some(h as usize),
                Err(cur) => v = cur,
            }
        }
        // Exhausted: scan the other spans and steal half.
        let n = self.spans.len();
        for off in 1..n {
            let victim = &self.spans[(worker + off) % n];
            let mut vv = victim.load(Ordering::SeqCst);
            loop {
                let (h, t) = unpack(vv);
                if h >= t {
                    break;
                }
                let avail = t - h;
                let take = avail - avail / 2; // ceil(avail / 2), from the tail
                let new_tail = t - take;
                match victim.compare_exchange_weak(
                    vv,
                    pack(h, new_tail),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        self.steals.fetch_add(1, Ordering::SeqCst);
                        // Process the first stolen chunk now; park the
                        // rest as our own (currently empty) span, where
                        // other thieves may in turn find it.
                        if take > 1 {
                            own.store(pack(new_tail + 1, t), Ordering::SeqCst);
                        }
                        return Some(new_tail as usize);
                    }
                    Err(cur) => vv = cur,
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_drains_every_chunk_once_in_order() {
        let q = WorkQueue::new(103, 1, 10);
        assert_eq!(q.chunk_count(), 11);
        let claimed: Vec<usize> = std::iter::from_fn(|| q.pop(0)).collect();
        assert_eq!(claimed, (0..11).collect::<Vec<_>>());
        assert_eq!(q.steals(), 0);
        assert_eq!(q.item_range(10), 100..103);
        assert_eq!(q.item_range(0), 0..10);
    }

    #[test]
    fn idle_worker_spans_get_stolen() {
        // Worker 1 never pops; worker 0 must steal its whole span, half
        // at a time, and still see every chunk exactly once.
        let q = WorkQueue::new(64, 2, 4); // 16 chunks, 8 per worker
        let mut seen = vec![false; q.chunk_count()];
        while let Some(c) = q.pop(0) {
            assert!(!seen[c], "chunk {c} claimed twice");
            seen[c] = true;
        }
        assert!(seen.iter().all(|s| *s), "every chunk claimed");
        assert!(q.steals() > 0, "draining an idle peer requires steals");
    }

    #[test]
    fn concurrent_workers_claim_each_chunk_exactly_once() {
        for workers in [2usize, 4, 7] {
            let q = WorkQueue::new(999, workers, 3);
            let counts: Vec<AtomicUsize> =
                (0..q.chunk_count()).map(|_| AtomicUsize::new(0)).collect();
            std::thread::scope(|s| {
                for w in 0..workers {
                    let q = &q;
                    let counts = &counts;
                    s.spawn(move || {
                        while let Some(c) = q.pop(w) {
                            counts[c].fetch_add(1, Ordering::SeqCst);
                            std::thread::yield_now();
                        }
                    });
                }
            });
            for (c, n) in counts.iter().enumerate() {
                assert_eq!(
                    n.load(Ordering::SeqCst),
                    1,
                    "chunk {c} with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn more_workers_than_chunks_leaves_some_spans_empty() {
        let q = WorkQueue::new(3, 8, 2); // 2 chunks, 8 workers
        let mut claimed = Vec::new();
        for w in 0..8 {
            while let Some(c) = q.pop(w) {
                claimed.push(c);
            }
        }
        claimed.sort_unstable();
        assert_eq!(claimed, vec![0, 1]);
    }
}
