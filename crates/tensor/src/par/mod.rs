//! Parallel execution primitives on a process-wide persistent worker pool
//! (see [`pool`]) — no external runtime, no per-call thread spawning.
//!
//! Three entry points:
//!
//! * [`par_row_chunks_mut`] splits a row-major output buffer into
//!   contiguous row ranges and runs a kernel on each range concurrently.
//!   Range boundaries are aligned to [`ROW_BLOCK`], so a blocked kernel
//!   sees exactly the same row grouping at every thread count — the
//!   foundation of the bitwise-identical guarantee for the parallel
//!   matmul family (see DESIGN.md, "Parallel runtime & determinism").
//! * [`par_map`] runs an indexed task set on the worker pool and returns
//!   results in task order (coarse parallelism, e.g. per-link-type
//!   neighbour aggregation).
//! * [`par_for_each_mut`] visits each element of a mutable slice exactly
//!   once, chunked like [`par_map`] (coarse data parallelism, e.g. the
//!   batch-parallel training lanes in `catehgn::train`).
//!
//! Chunk *assignment* (which rows belong to which job index) is a pure
//! function of the configured worker count; which pool thread executes a
//! job is scheduling noise that cannot affect results, because every job
//! writes only its own disjoint chunk.
//!
//! The autograd backward sweep ([`crate::Graph::backward`]) is serial: it
//! reaches the workers only through its kernels, above all the fused
//! MatMul backward, which splits dA's and dB's rows over one
//! [`run_region`].
//!
//! The worker count comes from [`set_num_threads`], else the
//! `TENSOR_NUM_THREADS` environment variable, else
//! `std::thread::available_parallelism()`. Work smaller than
//! [`PAR_THRESHOLD`] runs serially on the calling thread: below that size
//! the pool's dispatch and the idle worker's spin cost more than the split
//! saves.

mod pool;

pub use pool::run_region;

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Row-block granularity shared with the blocked kernels: chunk starts are
/// multiples of this, so each row's block membership is independent of the
/// thread count.
pub const ROW_BLOCK: usize = 4;

/// Work size (in f32 multiply-adds) below which [`par_row_chunks_mut`]
/// and the fused matmul backward stay serial. At `1 << 16` the tape-free
/// embedding of a 900-paper corpus (about 160 parallel products of
/// 2^16-2^20 multiply-adds each) ran 20-30% slower at two threads than at
/// one on a 2-vCPU host whenever the second vCPU was busy; at `1 << 20`
/// the two thread counts take the same time.
pub const PAR_THRESHOLD: usize = 1 << 20;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for this process; `0` restores the
/// environment-derived default. Lowering the count does not retire
/// already-spawned pool workers — the extras just stay parked — but it
/// does change chunk assignment, which is what determinism is defined
/// over.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count used for parallel dispatch.
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("TENSOR_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

thread_local! {
    /// Set while the current thread runs a job of a parallel region
    /// (every pool job, such as a training data lane): inner kernels
    /// then stay serial instead of oversubscribing the machine with
    /// nested regions. Results are unaffected — every parallel kernel
    /// here is bitwise-identical at any worker count.
    static NESTED: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread runs inside an outer parallel region.
pub fn in_parallel_worker() -> bool {
    NESTED.with(|c| c.get())
}

/// Marks the current thread as a parallel worker until dropped; nested
/// parallel primitives on this thread run serially for the guard's
/// lifetime.
pub struct NestedSerialGuard {
    prev: bool,
}

impl NestedSerialGuard {
    #[allow(clippy::new_without_default)] // acquiring a guard is an action
    pub fn new() -> Self {
        let prev = NESTED.with(|c| c.replace(true));
        NestedSerialGuard { prev }
    }
}

impl Drop for NestedSerialGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        NESTED.with(|c| c.set(prev));
    }
}

/// Workers to use for `rows` rows of `work_per_row` mul-adds each.
pub(crate) fn plan(rows: usize, work_per_row: usize) -> usize {
    if rows == 0 || rows.saturating_mul(work_per_row) < PAR_THRESHOLD || in_parallel_worker() {
        return 1;
    }
    num_threads().clamp(1, rows.div_ceil(ROW_BLOCK))
}

/// A raw pointer shared across the jobs of one region. Every use site
/// derives disjoint ranges from the job index, so jobs never alias.
pub(crate) struct SyncPtr<T>(pub(crate) *mut T);

// Manual impls: the derived ones would demand `T: Copy`, but the wrapper
// copies only the pointer.
impl<T> Clone for SyncPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SyncPtr<T> {}

// SAFETY: jobs access disjoint index ranges only (asserted at each use
// site); the pointer itself carries no thread affinity.
unsafe impl<T> Sync for SyncPtr<T> {}
// SAFETY: as above — disjoint-range discipline at every use site.
unsafe impl<T> Send for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// The wrapped pointer. Going through a method (not field access)
    /// makes edition-2021 closures capture the `Sync` wrapper rather than
    /// the bare `*mut T` field.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

/// Runs `f(lo, hi, chunk)` over disjoint, [`ROW_BLOCK`]-aligned row ranges
/// covering `out` (a row-major `rows x cols` buffer, `rows` inferred from
/// the length). `chunk` is `out[lo*cols..hi*cols]`. Ranges run
/// concurrently when the total work clears [`PAR_THRESHOLD`]; the kernel
/// must make each output row a function of `(row, inputs)` only, which
/// keeps the result identical at any worker count.
pub fn par_row_chunks_mut<F>(out: &mut [f32], cols: usize, work_per_row: usize, f: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    let rows = out.len().checked_div(cols).unwrap_or(0);
    debug_assert_eq!(rows * cols, out.len(), "out is not rows x cols");
    let workers = plan(rows, work_per_row);
    if workers <= 1 {
        if rows > 0 {
            f(0, rows, out);
        }
        return;
    }
    let per_rows = rows.div_ceil(ROW_BLOCK).div_ceil(workers) * ROW_BLOCK;
    let n_chunks = rows.div_ceil(per_rows);
    let base = SyncPtr(out.as_mut_ptr());
    let f = &f;
    run_region(n_chunks, move |c| {
        let lo = c * per_rows;
        let hi = (lo + per_rows).min(rows);
        // SAFETY: chunk `c` covers rows `lo..hi`; chunks tile `0..rows`
        // without overlap, so each job gets an exclusive sub-slice of
        // `out`, which outlives the region (`run_region` returns only
        // after every job completed).
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(lo * cols), (hi - lo) * cols) };
        f(lo, hi, chunk);
    });
}

/// Runs `f(0..n)` on the worker pool, returning results in task order.
/// Tasks are statically chunked; panics in workers propagate.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = if in_parallel_worker() {
        1
    } else {
        num_threads().clamp(1, n.max(1))
    };
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let per = n.div_ceil(workers);
    let n_chunks = n.div_ceil(per);
    let mut parts: Vec<Vec<T>> = (0..n_chunks).map(|_| Vec::new()).collect();
    let base = SyncPtr(parts.as_mut_ptr());
    let f = &f;
    run_region(n_chunks, move |c| {
        let lo = c * per;
        let hi = (lo + per).min(n);
        let part: Vec<T> = (lo..hi).map(f).collect();
        // SAFETY: each job writes only slot `c` of `parts`, which was
        // pre-sized to `n_chunks` and outlives the region.
        unsafe { *base.get().add(c) = part };
    });
    parts.into_iter().flatten().collect()
}

/// Runs `f(i, &mut items[i])` over every element, statically chunked across
/// the worker pool exactly like [`par_map`] (the calling thread takes the
/// first chunk and helps with the rest). Each element is visited by exactly
/// one job, so `f` may mutate freely; per-element results must not depend
/// on visit order. Inside an outer parallel region this degrades to a
/// serial loop.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let workers = if in_parallel_worker() {
        1
    } else {
        num_threads().clamp(1, n.max(1))
    };
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let per = n.div_ceil(workers);
    let n_chunks = n.div_ceil(per);
    let base = SyncPtr(items.as_mut_ptr());
    let f = &f;
    run_region(n_chunks, move |c| {
        let lo = c * per;
        let hi = (lo + per).min(n);
        for i in lo..hi {
            // SAFETY: chunks tile `0..n` without overlap, so element `i`
            // is touched by exactly this job; `items` outlives the region.
            let item = unsafe { &mut *base.get().add(i) };
            f(i, item);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests mutate the process-global override; serialize them.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn chunk_bounds_are_block_aligned_and_cover() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(3);
        let rows = 11;
        let cols = 1;
        let mut out = vec![0.0f32; rows * cols];
        let seen = std::sync::Mutex::new(Vec::new());
        par_row_chunks_mut(&mut out, cols, PAR_THRESHOLD, |lo, hi, chunk| {
            assert_eq!(chunk.len(), (hi - lo) * cols);
            assert_eq!(lo % ROW_BLOCK, 0, "chunk start not block-aligned");
            for v in chunk.iter_mut() {
                *v = 1.0;
            }
            seen.lock().unwrap().push((lo, hi));
        });
        set_num_threads(0);
        assert!(
            out.iter().all(|&v| v == 1.0),
            "rows not covered exactly once"
        );
        let mut ranges = seen.into_inner().unwrap();
        ranges.sort_unstable();
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, rows);
    }

    #[test]
    fn small_work_stays_serial_and_empty_is_fine() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(8);
        let mut out = vec![0.0f32; 8];
        let main = std::thread::current().id();
        par_row_chunks_mut(&mut out, 2, 1, |_, _, chunk| {
            assert_eq!(
                std::thread::current().id(),
                main,
                "tiny work must not dispatch"
            );
            chunk.fill(2.0);
        });
        assert!(out.iter().all(|&v| v == 2.0));
        let mut empty: Vec<f32> = Vec::new();
        par_row_chunks_mut(&mut empty, 0, 1, |_, _, _| panic!("no rows to visit"));
        par_row_chunks_mut(&mut empty, 3, 1, |_, _, _| panic!("no rows to visit"));
        set_num_threads(0);
    }

    #[test]
    fn par_map_preserves_order() {
        let _g = LOCK.lock().unwrap();
        for t in [1, 2, 4, 8] {
            set_num_threads(t);
            let out = par_map(13, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
        set_num_threads(0);
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn par_for_each_mut_visits_each_element_once() {
        let _g = LOCK.lock().unwrap();
        for t in [1, 2, 4] {
            set_num_threads(t);
            let mut items: Vec<usize> = vec![0; 17];
            par_for_each_mut(&mut items, |i, item| *item = i * 3 + 1);
            assert_eq!(items, (0..17).map(|i| i * 3 + 1).collect::<Vec<_>>());
        }
        set_num_threads(0);
        let mut empty: Vec<u8> = Vec::new();
        par_for_each_mut(&mut empty, |_, _| panic!("no items to visit"));
    }

    #[test]
    fn nested_guard_serializes_inner_parallelism() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(4);
        {
            let _nested = NestedSerialGuard::new();
            assert!(in_parallel_worker());
            let main = std::thread::current().id();
            let out = par_map(8, |i| {
                assert_eq!(
                    std::thread::current().id(),
                    main,
                    "nested par_map must stay serial"
                );
                i
            });
            assert_eq!(out, (0..8).collect::<Vec<_>>());
        }
        assert!(!in_parallel_worker(), "guard must restore the flag");
        set_num_threads(0);
    }

    #[test]
    fn pool_jobs_run_under_the_nested_guard() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(4);
        let nested_seen = std::sync::atomic::AtomicUsize::new(0);
        let out = par_map(8, |i| {
            if in_parallel_worker() {
                nested_seen.fetch_add(1, Ordering::Relaxed);
            }
            i
        });
        assert_eq!(out.len(), 8);
        assert_eq!(
            nested_seen.load(Ordering::Relaxed),
            8,
            "every pool job must see the nested-serial flag"
        );
        set_num_threads(0);
    }

    #[test]
    fn thread_count_override_wins() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(5);
        assert_eq!(num_threads(), 5);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn reentry_after_thread_count_changes_is_stable() {
        let _g = LOCK.lock().unwrap();
        let want: Vec<usize> = (0..29).map(|i| i * 7 + 3).collect();
        // Grow, shrink, and regrow the configured width; already-spawned
        // pool workers persist across changes and results never move.
        for t in [2, 8, 1, 4, 2, 8] {
            set_num_threads(t);
            assert_eq!(par_map(29, |i| i * 7 + 3), want, "par_map at {t} threads");
            let mut items = vec![0usize; 29];
            par_for_each_mut(&mut items, |i, item| *item = i * 7 + 3);
            assert_eq!(items, want, "par_for_each_mut at {t} threads");
        }
        set_num_threads(0);
    }

    #[test]
    fn worker_panic_propagates_through_par_map() {
        let _g = LOCK.lock().unwrap();
        set_num_threads(4);
        let caught = std::panic::catch_unwind(|| {
            par_map(64, |i| {
                if i == 63 {
                    panic!("task 63 exploded");
                }
                i
            })
        });
        set_num_threads(0);
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task 63 exploded");
    }
}
