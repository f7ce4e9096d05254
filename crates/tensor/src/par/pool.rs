//! The process-wide worker pool behind the `par_*` primitives and the
//! fused MatMul backward.
//!
//! Workers are spawned lazily on the first parallel region and then live
//! for the rest of the process, parked between regions. Submitting a
//! region costs one mutex push plus a wakeup instead of the ~30 µs/thread
//! `std::thread::scope` spawn the previous executor paid per call.
//!
//! # Protocol
//!
//! A region is `n` independent jobs `f(0..n)`. [`run_region`] publishes
//! the region on a shared run queue, runs job 0 on the submitting thread,
//! then helps drain its own region's remaining jobs before blocking on the
//! region's completion latch. Idle workers claim jobs from the queue;
//! after a region drains they spin briefly on the submission counter
//! (cheap loads, no lock) and park on the condvar only when nothing new
//! arrives — the spin-then-park that makes back-to-back regions, the
//! common case inside one training step, wake-free.
//!
//! # Determinism and safety
//!
//! Which thread runs a job never affects results: callers assign work to
//! *job indices* deterministically (thread-count-invariant chunking in
//! `par::mod`), and every job body is restricted to its own disjoint
//! slice of the output. Job bodies run under a [`NestedSerialGuard`], so
//! nested parallel regions degrade to serial loops instead of
//! oversubscribing the host. A panicking job is caught, recorded in the
//! region latch, and re-raised on the submitting thread once the region
//! completes; thread-spawn failure degrades to fewer workers (the
//! submitting thread always helps, so a region completes even with zero
//! pool workers).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

use super::NestedSerialGuard;

/// Iterations an idle worker spins re-checking the submission counter
/// before parking. High enough to bridge the gap between the parallel
/// regions of one training step, low enough not to burn a core when the
/// process goes quiet.
const SPIN_ITERS: u32 = 4096;

/// One parallel region: lives on the submitting thread's stack for the
/// duration of [`run_region`] and is referenced from the run queue until
/// its last job is claimed.
struct Region {
    /// The job body. The `'static` is a lie told by `run_region`, which
    /// blocks until every job has finished before returning.
    func: &'static (dyn Fn(usize) + Sync),
    /// Completion latch and first panic payload.
    done: Mutex<RegionDone>,
    cv: Condvar,
}

struct RegionDone {
    unfinished: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// Run-queue entry: a pending region plus its claim cursor. The cursor
/// advances under the inject lock, so claiming needs no atomics and an
/// entry is removed the moment its last job is handed out.
struct PendingRegion {
    region: *const Region,
    len: usize,
    next: usize,
}

// SAFETY: the pointed-to `Region` outlives its queue entry — the entry is
// removed when the last job is claimed, and `run_region` keeps the region
// alive until the completion latch reports every claimed job finished.
unsafe impl Send for PendingRegion {}

struct Inject {
    queue: Vec<PendingRegion>,
    /// Pool workers spawned so far (they never exit).
    spawned: usize,
}

struct Shared {
    inject: Mutex<Inject>,
    cv: Condvar,
    /// Bumped on every submission; idle workers spin on it lock-free
    /// before parking.
    signal: AtomicUsize,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        inject: Mutex::new(Inject {
            queue: Vec::new(),
            spawned: 0,
        }),
        cv: Condvar::new(),
        signal: AtomicUsize::new(0),
    })
}

/// Locks a mutex, recovering from poisoning: pool bookkeeping is
/// consistent at every unlock, and a panic inside a job is already
/// captured in the region latch and re-raised on the submitting thread,
/// so the poison flag carries no extra information here.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Claims one job from the front-most pending region.
fn claim_any(shared: &Shared) -> Option<(*const Region, usize)> {
    let mut q = lock(&shared.inject);
    let entry = q.queue.first_mut()?;
    let region = entry.region;
    let idx = entry.next;
    entry.next += 1;
    if entry.next == entry.len {
        q.queue.remove(0);
    }
    Some((region, idx))
}

/// Claims one job from `region` specifically (the submitting thread helps
/// its own region only, so unrelated concurrent regions cannot extend its
/// latency unboundedly).
fn claim_own(shared: &Shared, region: &Region) -> Option<usize> {
    let mut q = lock(&shared.inject);
    let at = q
        .queue
        .iter()
        .position(|e| std::ptr::eq(e.region, region))?;
    let entry = &mut q.queue[at];
    let idx = entry.next;
    entry.next += 1;
    if entry.next == entry.len {
        q.queue.remove(at);
    }
    Some(idx)
}

/// Runs job `idx` of `region`, capturing a panic into the region latch
/// and counting the job done. The final decrement wakes the submitter.
fn run_job(region: &Region, idx: usize) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _nested = NestedSerialGuard::new();
        (region.func)(idx);
    }));
    let mut d = lock(&region.done);
    if let Err(payload) = result {
        d.panic.get_or_insert(payload);
    }
    d.unfinished -= 1;
    if d.unfinished == 0 {
        region.cv.notify_all();
    }
}

fn worker_loop(shared: &'static Shared) {
    loop {
        if let Some((region, idx)) = claim_any(shared) {
            // SAFETY: holding an unclaimed job index keeps the region
            // alive (see `PendingRegion`), so the pointer is valid for
            // the duration of `run_job`.
            run_job(unsafe { &*region }, idx);
            continue;
        }
        // Spin on the submission counter — no lock traffic — so a region
        // submitted moments later is picked up without a park/unpark
        // round trip.
        let seen = shared.signal.load(Ordering::Acquire);
        let mut spins = 0u32;
        loop {
            if shared.signal.load(Ordering::Acquire) != seen {
                break;
            }
            spins += 1;
            if spins < SPIN_ITERS {
                std::hint::spin_loop();
            } else {
                let q = lock(&shared.inject);
                if q.queue.is_empty() {
                    // Parking rechecks emptiness under the inject lock, so
                    // a submission between the spin and the wait cannot be
                    // missed: the submitter pushes under the same lock and
                    // notifies after releasing it.
                    drop(shared.cv.wait(q).unwrap_or_else(|p| p.into_inner()));
                } else {
                    drop(q);
                }
                break;
            }
        }
    }
}

/// Grows the pool toward `want` workers, capped by what earlier regions
/// already spawned. Spawn failure is tolerated: the region still
/// completes because the submitting thread helps.
fn ensure_workers(shared: &'static Shared, want: usize) {
    let mut q = lock(&shared.inject);
    while q.spawned < want {
        let name = format!("tensor-par-{}", q.spawned);
        match std::thread::Builder::new()
            .name(name)
            .spawn(move || worker_loop(shared))
        {
            Ok(handle) => {
                drop(handle); // workers are detached; they park between regions
                q.spawned += 1;
            }
            Err(_) => break,
        }
    }
}

/// Runs `f(0)..f(n-1)` on the worker pool, returning once every job has
/// completed. Job 0 always runs on the calling thread, which then helps
/// drain the region, so progress never depends on pool workers existing.
/// Each job body runs under a [`NestedSerialGuard`]; a panic in any job
/// is re-raised here after the region completes.
///
/// Which worker runs which job is scheduling-dependent — callers must
/// make job `i`'s effect a pure function of `(i, inputs)` on disjoint
/// outputs, which is what keeps every `par_*` primitive bitwise-identical
/// at any thread count.
pub fn run_region<F: Fn(usize) + Sync>(n: usize, f: F) {
    if n == 0 {
        return;
    }
    if n == 1 {
        let _nested = NestedSerialGuard::new();
        f(0);
        return;
    }
    let f_ref: &(dyn Fn(usize) + Sync) = &f;
    // SAFETY: erases the borrow's lifetime so the region can sit in the
    // 'static run queue. `run_region` does not return before the latch
    // reports all `n` jobs finished, so no worker touches `f` after it
    // goes out of scope.
    let func: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f_ref) };
    let region = Region {
        func,
        done: Mutex::new(RegionDone {
            unfinished: n,
            panic: None,
        }),
        cv: Condvar::new(),
    };
    let shared = shared();
    // One submitter plus `num_threads() - 1` workers saturates the
    // configured width even when a region has more jobs than workers.
    ensure_workers(shared, (n - 1).min(super::num_threads().saturating_sub(1)));
    {
        let mut q = lock(&shared.inject);
        q.queue.push(PendingRegion {
            region: &region,
            len: n,
            next: 1,
        });
        shared.signal.fetch_add(1, Ordering::Release);
    }
    shared.cv.notify_all();
    run_job(&region, 0);
    while let Some(idx) = claim_own(shared, &region) {
        run_job(&region, idx);
    }
    let mut d = lock(&region.done);
    while d.unfinished > 0 {
        d = region.cv.wait(d).unwrap_or_else(|p| p.into_inner());
    }
    if let Some(payload) = d.panic.take() {
        drop(d);
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn region_covers_every_job_exactly_once() {
        let hits: Vec<AtomicU32> = (0..23).map(|_| AtomicU32::new(0)).collect();
        run_region(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "job {i} not run exactly once");
        }
    }

    #[test]
    fn empty_and_single_regions_run_inline() {
        run_region(0, |_| panic!("no jobs to run"));
        let main = std::thread::current().id();
        run_region(1, |i| {
            assert_eq!(i, 0);
            assert_eq!(
                std::thread::current().id(),
                main,
                "single job must stay inline"
            );
            assert!(
                super::super::in_parallel_worker(),
                "jobs run under the nested guard"
            );
        });
        assert!(!super::super::in_parallel_worker());
    }

    #[test]
    fn worker_panic_propagates_to_submitter() {
        let caught = std::panic::catch_unwind(|| {
            run_region(8, |i| {
                if i == 5 {
                    panic!("job five exploded");
                }
            });
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "job five exploded", "original payload must survive");
        // The pool must remain usable after a panicked region.
        let hits = AtomicU32::new(0);
        run_region(4, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn concurrent_regions_from_multiple_threads_complete() {
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for round in 0..50 {
                        let hits: Vec<AtomicU32> = (0..7).map(|_| AtomicU32::new(0)).collect();
                        run_region(hits.len(), |i| {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        });
                        for h in &hits {
                            assert_eq!(h.load(Ordering::Relaxed), 1, "round {round}");
                        }
                    }
                });
            }
        });
    }
}
