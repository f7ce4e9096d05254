//! Allocation gate: the pooled training path (one long-lived `Graph`,
//! reset per batch) must make at least 10x fewer heap allocations per
//! steady-state step than the seed path (a fresh `Graph` per batch), at
//! bitwise-identical losses. It needs the counting global allocator
//! below, so the whole test is gated on the `alloc-count` feature
//! (`cargo test -p bench --features alloc-count --release --test
//! alloc_ratio`); the bitwise half is always-on in
//! `crates/core/tests/pool_equivalence.rs`.
#![cfg(feature = "alloc-count")]

use bench::{bench_dataset, bench_model, bench_model_cfg};
use catehgn::{CateHgn, Reads};
use hetgraph::{sample_blocks, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use tensor::{Graph, Optimizer, Tensor};

/// Allocations (`alloc` + `realloc`) since process start; `dealloc` is
/// not tracked — the quantity of interest is allocation pressure.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers all allocation to `System`; only the counter differs.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`, which
    // upholds the `GlobalAlloc` contract; the counter bump is a relaxed
    // atomic with no memory-safety obligations.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    // SAFETY: `ptr`/`layout` arrive exactly as the caller obtained them
    // from `alloc`/`realloc` above, which returned them from `System`;
    // forwarding to `System.dealloc` is therefore valid.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: same forwarding argument as `dealloc` — `ptr` was produced
    // by `System` with `layout`, and `new_size` is passed through
    // unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const WARMUP_STEPS: usize = 3;
const MEASURE_STEPS: usize = 12;

/// Replays one fixed batch for [`WARMUP_STEPS`] + [`MEASURE_STEPS`]
/// training steps. `reuse` selects the pooled path over the seed path;
/// both see identical RNG streams. Returns the measured steps' loss bits
/// and allocations per measured step.
fn run_training_path(reuse: bool) -> (Vec<u32>, f64) {
    let ds = bench_dataset();
    let cfg = bench_model_cfg(&ds);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let batch: Vec<usize> = (0..cfg.batch_size)
        .map(|_| ds.split.train[rng.gen_range(0..ds.split.train.len())])
        .collect();
    let seeds = ds.paper_nodes_of(&batch);
    let blocks = sample_blocks(&ds.graph, &seeds, cfg.layers, cfg.fanout, &mut rng);
    // Align the labels with the sampler's deduped frontier prefix (a
    // repeated seed is the same paper, so any of its labels will do).
    let label: HashMap<NodeId, f32> = seeds.iter().copied().zip(ds.labels_of(&batch)).collect();
    let labels = Tensor::col_vec(blocks[0].dst_nodes.iter().map(|n| label[n]).collect());

    let mut model: CateHgn = bench_model(&ds, cfg.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    let mut opt = Optimizer::adam(cfg.lr);
    let mut shared = Graph::new();
    let mut step = || {
        let mut fresh;
        let g = if reuse {
            shared.reset();
            &mut shared
        } else {
            fresh = Graph::new();
            &mut fresh
        };
        let fw = model.forward(g, &ds.graph, &ds.features, &blocks, Reads::HGN_STEP);
        let (loss, _, _) = model.hgn_loss(g, &fw, &blocks, &labels, &mut rng);
        let bits = g.value(loss).as_slice()[0].to_bits();
        g.backward(loss);
        opt.step_clipped(&mut model.params, g, Some(cfg.clip));
        bits
    };
    for _ in 0..WARMUP_STEPS {
        step();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let losses: Vec<u32> = (0..MEASURE_STEPS).map(|_| step()).collect();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (losses, allocs as f64 / MEASURE_STEPS as f64)
}

#[test]
fn pooled_path_allocates_at_least_10x_less() {
    let (seed_losses, seed_allocs) = run_training_path(false);
    let (pooled_losses, pooled_allocs) = run_training_path(true);
    assert_eq!(seed_losses, pooled_losses, "paths diverged");
    assert!(
        seed_allocs >= 10.0 * pooled_allocs.max(1.0),
        "expected >= 10x fewer allocations, got {seed_allocs:.0} vs {pooled_allocs:.0} per step"
    );
}
