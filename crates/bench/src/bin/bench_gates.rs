//! Timing gates: each pits two arms of code in the tree against each
//! other on a small fixture and asserts a speedup floor.
//!
//! | Gate | Slow arm | Fast arm | Floor |
//! |---|---|---|---|
//! | no-tape serving | per-query taped `predict` | one batched `ServeEngine::predict` | 3x |
//! | warm cache hit | cold engine per query (full re-embed) | warm-cache `recommend` (stamp check + scan + rank) | 10x |
//! | lanes | `train_with`, 1 data lane | 2 and 4 data lanes | 0.95x |
//!
//! Every gate uses one estimator: [`PAIRS`] pairs, each arm timed as the
//! fastest of [`RUNS`] calls (scheduler noise on a shared host only ever
//! inflates a call) with the two arms' calls interleaved and the leading
//! arm alternating, and the gate reads the median pair ratio. The arms'
//! bitwise equivalence is the owning crates' tests' job (`infer_serve`,
//! `batch_parallel`); this binary only checks time,
//! takes no flags and writes no files. It prints one line per gate and
//! exits non-zero if any gate fails.
//!
//! ```text
//! cargo run --release -p bench --bin bench_gates
//! ```

// Benchmark binary: wall-clock timing is its whole job (clippy.toml backstop).
#![allow(clippy::disallowed_types)]

use bench::{bench_dataset, bench_model, bench_model_cfg};
use catehgn::serve::ServeEngine;
use catehgn::{train_with, CateHgn, ModelConfig, TrainOptions};
use dblp_sim::Dataset;
use hetgraph::NodeId;
use std::hint::black_box;
use std::time::Instant;
use tensor::par;

/// Pairs per gate; the gate reads their median ratio.
const PAIRS: usize = 5;
/// Calls per arm within a pair; the arm's time is the fastest.
const RUNS: usize = 3;

/// Impact and recommend queries per serving call; sized so the per-query
/// tape arm's sampled blocks (5 MC samples per query) still fit the
/// model's 128-entry replay cache.
const QUERIES: usize = 16;
const TOP_K: usize = 10;
const SEED: u64 = 41;

/// Seconds `f` takes.
fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// [`PAIRS`] ratios `fastest(slow) / fastest(fast)`, sorted, where an
/// arm's time is its fastest of [`RUNS`] calls. The two arms' calls
/// interleave, and which arm leads alternates from pair to pair, so both
/// arms sample the same spells of a host whose speed drifts. An arm
/// returns the seconds of its timed section, so it can set up untimed
/// state first.
fn pair_speedups(mut slow: impl FnMut() -> f64, mut fast: impl FnMut() -> f64) -> Vec<f64> {
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            let (mut s, mut f) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..RUNS {
                if pair % 2 == 0 {
                    s = s.min(slow());
                    f = f.min(fast());
                } else {
                    f = f.min(fast());
                    s = s.min(slow());
                }
            }
            s / f
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios
}

/// Full `train_with` on a clone of `pristine`; only training is timed.
/// Every run must finish all outer rounds, so the arms do equal work.
fn train_secs(pristine: &Dataset, cfg: &ModelConfig, opts: &TrainOptions) -> f64 {
    let mut ds = pristine.clone();
    let mut model = bench_model(&ds, cfg.clone());
    let mut opts = opts.clone();
    let t = Instant::now();
    let report = train_with(&mut model, &mut ds, &mut opts).expect("bench training run");
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(
        report.hgn_losses.len(),
        cfg.outer_iters,
        "training stopped early"
    );
    secs
}

/// Prints one gate's verdict from its sorted pair speedups; returns
/// whether the median reaches `floor`.
fn gate(name: &str, speedups: &[f64], floor: f64) -> bool {
    let median = speedups[speedups.len() / 2];
    let pass = median >= floor;
    let verdict = if pass { "ok" } else { "FAILED" };
    let pairs: Vec<String> = speedups.iter().map(|r| format!("{r:.2}")).collect();
    println!(
        "{name:<20} {median:>7.2}x  floor {floor}x  {verdict:<6}  pairs [{}]",
        pairs.join(" ")
    );
    pass
}

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host cpus: {cpus}");
    let ds = bench_dataset();
    let mut passed = true;

    // ---- Serving, at one tensor thread: the gates compare serving
    // strategies, not thread counts.
    par::set_num_threads(1);
    let model: CateHgn = bench_model(&ds, bench_model_cfg(&ds));
    let candidates: &[NodeId] = &ds.paper_nodes;
    let queries = &candidates[..QUERIES];
    let (graph, features) = (&ds.graph, &ds.features);

    let mut eng = ServeEngine::new(&model, SEED);
    let no_tape = pair_speedups(
        || {
            timed(|| {
                for q in queries {
                    black_box(model.predict_taped(graph, features, &[*q], SEED));
                }
            })
        },
        || {
            timed(|| {
                black_box(eng.predict(graph, features, queries)).expect("well-formed request");
            })
        },
    );
    passed &= gate("no-tape serving", &no_tape, 3.0);

    // A warm hit is a feature stamp check, a scan of the cached
    // embeddings and the top-K; the cold arm re-embeds every candidate.
    let mut warm = ServeEngine::new(&model, SEED);
    warm.ensure_cache(graph, features, candidates)
        .expect("well-formed request");
    let recommend = |eng: &mut ServeEngine, q: NodeId| {
        black_box(eng.recommend(graph, features, candidates, q, TOP_K))
            .expect("well-formed request");
    };
    let cache_hit = pair_speedups(
        || {
            timed(|| {
                for &q in queries {
                    recommend(&mut ServeEngine::new(&model, SEED), q);
                }
            })
        },
        || {
            timed(|| {
                for &q in queries {
                    recommend(&mut warm, q);
                }
            })
        },
    );
    passed &= gate("warm cache hit", &cache_hit, 10.0);

    // ---- Batch-parallel lanes vs the one-lane loop, at 4 tensor threads.
    // A group of lanes takes one averaged optimizer step, so lanes must
    // not lose throughput even on one CPU.
    par::set_num_threads(4);
    let cfg = ModelConfig {
        outer_iters: 2,
        mini_iters: 8,
        ..bench_model_cfg(&ds)
    };
    let lanes = |data_lanes| TrainOptions {
        data_lanes,
        ..TrainOptions::default()
    };
    for n in [2, 4] {
        let speedup = pair_speedups(
            || train_secs(&ds, &cfg, &lanes(1)),
            || train_secs(&ds, &cfg, &lanes(n)),
        );
        passed &= gate(&format!("lanes ({n} vs 1)"), &speedup, 0.95);
    }

    par::set_num_threads(0);

    if !passed {
        std::process::exit(1);
    }
}
