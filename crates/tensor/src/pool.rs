//! Capacity-keyed free lists of `Vec<f32>` buffers, plus a free list of
//! `Vec<usize>` index buffers for gather/segment bookkeeping.
//!
//! [`BufferPool`] is the arena behind zero-allocation tape reuse: a
//! [`crate::graph::Graph`] checks node-value, gradient, and scratch buffers
//! out of its pool and [`Graph::reset`](crate::graph::Graph::reset) returns
//! them, so the steady-state training loop recycles the previous step's
//! buffers instead of hitting the heap. Buffers are bucketed by their exact
//! `Vec::capacity()`; a request takes the smallest free buffer whose
//! capacity is at least the requested length (bounded overshoot, so tiny
//! requests never pin huge buffers). Checkout is deterministic: which
//! buffer serves a request depends only on the request/return sequence,
//! never on addresses or time, and the *contents* written through a pooled
//! buffer are defined entirely by the caller — `take_zeroed` hands out
//! all-zero storage exactly like a fresh `vec![0.0; n]`, while `take_raw`
//! is for callers that overwrite every element. Both make pooled execution
//! bitwise-identical to freshly-allocated execution.

use crate::tensor::Tensor;
use std::collections::BTreeMap;

/// Requests only reuse a free buffer whose capacity is at most
/// `max(4 * len, len + SMALL_SLACK)`: small tensors may share small
/// buffers freely, but a scalar can never pin a matmul-sized block.
const SMALL_SLACK: usize = 64;

/// Total bytes the pool will hold before dropping returned buffers on the
/// floor (a safety valve; steady-state training reuses far less).
const DEFAULT_MAX_HELD_BYTES: usize = 1 << 28;

/// Checkout statistics, exposed for benchmarks and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a free list.
    pub hits: u64,
    /// Requests that fell through to the heap.
    pub misses: u64,
    /// Buffers currently parked in the pool.
    pub held_buffers: usize,
    /// Total capacity (in bytes) currently parked in the pool.
    pub held_bytes: usize,
}

/// Index buffers parked beyond this count are dropped instead of pooled —
/// a safety valve against pathological callers, far above per-step usage.
const MAX_IDX_FREE: usize = 1024;

/// A free-list arena of `f32` buffers keyed by capacity, plus a LIFO free
/// list of `Vec<usize>` index buffers (gather/segment bookkeeping).
#[derive(Debug)]
pub struct BufferPool {
    buckets: BTreeMap<usize, Vec<Vec<f32>>>,
    idx_free: Vec<Vec<usize>>,
    held_buffers: usize,
    held_bytes: usize,
    max_held_bytes: usize,
    hits: u64,
    misses: u64,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::with_max_held_bytes(DEFAULT_MAX_HELD_BYTES)
    }
}

impl BufferPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps how many bytes of returned buffers the pool retains; beyond the
    /// cap, [`BufferPool::give`] drops buffers instead of parking them.
    pub fn with_max_held_bytes(max_held_bytes: usize) -> Self {
        BufferPool {
            buckets: BTreeMap::new(),
            idx_free: Vec::new(),
            held_buffers: 0,
            held_bytes: 0,
            max_held_bytes,
            hits: 0,
            misses: 0,
        }
    }

    /// Pops the smallest parked buffer with capacity in `[n, overshoot
    /// bound]`, or `None` on a miss. Counts the hit/miss either way.
    fn pop(&mut self, n: usize) -> Option<Vec<f32>> {
        let hi = n.saturating_mul(4).max(n + SMALL_SLACK);
        // Drained buckets stay parked (empty) in the map: a steady-state
        // step pops and re-fills the same capacity classes every time, and
        // removing/re-inserting map entries would itself hit the heap.
        if let Some((&cap, bucket)) = self
            .buckets
            .range_mut(n..=hi)
            .find(|(_, bucket)| !bucket.is_empty())
        {
            let buf = bucket.pop().expect("bucket checked non-empty");
            self.held_buffers -= 1;
            self.held_bytes -= cap * std::mem::size_of::<f32>();
            self.hits += 1;
            Some(buf)
        } else {
            self.misses += 1;
            self.evict_superseded(n);
            None
        }
    }

    /// On a miss for `n`, drops the largest parked buffer in `[n / 2, n)`.
    /// Request sizes drift upward over a run (a batch's edge counts grow
    /// with the corpus), and each new largest size misses. Without this,
    /// every superseded size class stays parked, and the pool's footprint
    /// grows with the number of misses rather than with the working set.
    fn evict_superseded(&mut self, n: usize) {
        if let Some((&cap, bucket)) = self
            .buckets
            .range_mut(n / 2..n)
            .rev()
            .find(|(_, bucket)| !bucket.is_empty())
        {
            drop(bucket.pop());
            self.held_buffers -= 1;
            self.held_bytes -= cap * std::mem::size_of::<f32>();
        }
    }

    /// Checks out a buffer of length `n` with unspecified (but initialised)
    /// contents. Use only when every element will be overwritten.
    pub fn take_raw(&mut self, n: usize) -> Vec<f32> {
        if n == 0 {
            return Vec::new();
        }
        match self.pop(n) {
            Some(mut buf) => {
                buf.resize(n, 0.0);
                buf
            }
            None => vec![0.0; n],
        }
    }

    /// Checks out an all-zero buffer of length `n` — indistinguishable from
    /// a fresh `vec![0.0; n]`.
    pub fn take_zeroed(&mut self, n: usize) -> Vec<f32> {
        if n == 0 {
            return Vec::new();
        }
        match self.pop(n) {
            Some(mut buf) => {
                buf.resize(n, 0.0);
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; n],
        }
    }

    /// Returns a buffer to the pool for reuse. Buffers past the byte cap
    /// are dropped.
    pub fn give(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let bytes = cap * std::mem::size_of::<f32>();
        if self.held_bytes + bytes > self.max_held_bytes {
            return;
        }
        self.held_buffers += 1;
        self.held_bytes += bytes;
        self.buckets.entry(cap).or_default().push(buf);
    }

    /// Checks out a cleared index buffer, retaining whatever capacity it
    /// accumulated in earlier lives. Index contents never depend on
    /// capacity, so reuse cannot perturb results.
    pub fn take_idx(&mut self) -> Vec<usize> {
        let mut buf = self.idx_free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns an index buffer to the pool for reuse.
    pub fn give_idx(&mut self, buf: Vec<usize>) {
        if buf.capacity() > 0 && self.idx_free.len() < MAX_IDX_FREE {
            self.idx_free.push(buf);
        }
    }

    /// A pooled `rows x cols` tensor with unspecified contents; every
    /// element must be overwritten before it is read.
    pub fn tensor_raw(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(rows, cols, self.take_raw(rows * cols))
    }

    /// A pooled `rows x cols` tensor of zeros.
    pub fn tensor_zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(rows, cols, self.take_zeroed(rows * cols))
    }

    /// A pooled copy of `src`.
    pub fn tensor_copy(&mut self, src: &Tensor) -> Tensor {
        let mut buf = self.take_raw(src.len());
        buf.copy_from_slice(src.as_slice());
        Tensor::from_vec(src.rows(), src.cols(), buf)
    }

    /// Returns a tensor's storage to the pool.
    pub fn recycle(&mut self, t: Tensor) {
        self.give(t.into_vec());
    }

    /// Current checkout statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            held_buffers: self.held_buffers,
            held_bytes: self.held_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_storage() {
        let mut pool = BufferPool::new();
        let buf = pool.take_raw(100);
        assert_eq!(pool.stats().misses, 1);
        pool.give(buf);
        assert_eq!(pool.stats().held_buffers, 1);
        let again = pool.take_raw(100);
        assert_eq!(again.len(), 100);
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 1,
                misses: 1,
                held_buffers: 0,
                held_bytes: 0
            }
        );
    }

    #[test]
    fn zeroed_buffers_match_fresh_allocation() {
        let mut pool = BufferPool::new();
        let mut buf = pool.take_raw(16);
        buf.iter_mut().for_each(|x| *x = 7.0);
        pool.give(buf);
        assert!(pool.take_zeroed(16).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn smaller_request_reuses_larger_buffer_within_bound() {
        let mut pool = BufferPool::new();
        pool.give(Vec::with_capacity(128));
        let buf = pool.take_raw(100); // 128 <= 4 * 100
        assert_eq!(buf.len(), 100);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn tiny_request_does_not_pin_huge_buffer() {
        let mut pool = BufferPool::new();
        pool.give(Vec::with_capacity(1 << 16));
        let buf = pool.take_raw(4);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(buf.len(), 4);
        assert_eq!(pool.stats().held_buffers, 1, "big buffer stays parked");
    }

    /// Sizes that drift upward keep one parked buffer per live request,
    /// not one per size ever seen; a miss far above every parked size
    /// leaves them alone.
    #[test]
    fn upward_drifting_sizes_do_not_accumulate() {
        let mut pool = BufferPool::new();
        for n in (1000..1400).step_by(10) {
            let a = pool.take_raw(n);
            let b = pool.take_raw(n);
            pool.give(a);
            pool.give(b);
        }
        assert_eq!(pool.stats().held_buffers, 2);
        let big = pool.take_raw(10_000);
        assert_eq!(big.len(), 10_000);
        assert_eq!(pool.stats().held_buffers, 2);
    }

    #[test]
    fn byte_cap_drops_excess_buffers() {
        let mut pool = BufferPool::with_max_held_bytes(64);
        pool.give(vec![0.0; 8]); // 32 bytes, kept
        pool.give(vec![0.0; 16]); // would exceed the cap, dropped
        assert_eq!(pool.stats().held_buffers, 1);
        assert!(pool.stats().held_bytes <= 64);
    }

    #[test]
    fn zero_length_requests_do_not_touch_the_pool() {
        let mut pool = BufferPool::new();
        assert!(pool.take_raw(0).is_empty());
        assert!(pool.take_zeroed(0).is_empty());
        pool.give(Vec::new());
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn index_buffers_round_trip_with_capacity() {
        let mut pool = BufferPool::new();
        let mut idx = pool.take_idx();
        idx.extend(0..100);
        let cap = idx.capacity();
        pool.give_idx(idx);
        let again = pool.take_idx();
        assert!(again.is_empty());
        assert_eq!(
            again.capacity(),
            cap,
            "recycled index buffer keeps its storage"
        );
    }

    #[test]
    fn tensor_helpers_shape_and_copy() {
        let mut pool = BufferPool::new();
        let z = pool.tensor_zeroed(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.sum(), 0.0);
        let src = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let copy = pool.tensor_copy(&src);
        assert_eq!(copy, src);
        pool.recycle(copy);
        pool.recycle(z);
        assert_eq!(pool.stats().held_buffers, 2);
    }
}
