//! PR-3 benchmark: branch-parallel backward pass + neighbor-block sampling
//! cache.
//!
//! Part 1 replays one fixed batch under the *default* model config and
//! measures end-to-end step time and backward-only wall time for the
//! serial sweep against the branch-parallel backward at 1/2/4 worker
//! threads. All arms must produce bitwise identical per-step losses.
//!
//! The headline speedup compares the 4-thread parallel arm against the
//! PR-2 *commit* (the code this PR started from), measured with the
//! identical harness on the same host — see [`PR2_COMMIT_MS_PER_STEP`].
//! Most of the win is algorithmic (the windowed circular-correlation
//! kernels found while profiling the backward sweep), which is why it
//! shows up even on a single-CPU host where threads add no wall-clock
//! parallelism.
//!
//! Part 2 runs a short end-to-end training loop and reports the sampling
//! cache's hit/miss counters — the validation `predict` each outer round
//! replays the same seeds, so once TE relinking converges the cache serves
//! those blocks without resampling.
//!
//! Results land in `results/BENCH_PR3.json`:
//!
//! ```text
//! cargo run --release -p bench --bin bench_pr3
//! ```

// Benchmark binary: wall-clock timing is its whole job (clippy.toml backstop).
#![allow(clippy::disallowed_types)]

use bench::{bench_dataset, bench_model};
use catehgn::ModelConfig;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::time::Instant;
use tensor::{par, Graph, Optimizer, Tensor};

const WARMUP_STEPS: usize = 3;
const MEASURE_STEPS: usize = 20;

/// Training-step cost of the PR-2 commit (9538b42) on the default config,
/// measured on this host with the same harness as the arms below (fixed
/// batch seed 7, step RNG 0x5EED, 3 warmup + 20 measured steps, pooled
/// tape, serial backward): 24.4 ms/step end-to-end, 17.7 ms of it in the
/// backward sweep. Recorded from a `git worktree` build of that commit;
/// re-record when benching on different hardware.
const PR2_COMMIT_MS_PER_STEP: f64 = 24.4;
const PR2_COMMIT_BACKWARD_MS: f64 = 17.7;
const PR2_COMMIT: &str = "9538b42";

struct Arm {
    label: String,
    threads: usize,
    ms_per_step: f64,
    backward_ms_per_step: f64,
    steps_per_sec: f64,
    losses: Vec<u32>,
}

/// Runs warmup + measured steps on the fixed batch with `threads` workers.
/// `parallel_backward` selects the branch-parallel tape sweep; otherwise
/// the serial sweep (the PR-2 baseline) runs regardless of thread count.
fn run_arm(
    ds: &dblp_sim::Dataset,
    blocks: &[hetgraph::Block],
    labels: &Tensor,
    cfg: &ModelConfig,
    threads: usize,
    parallel_backward: bool,
) -> Arm {
    par::set_num_threads(threads);
    let mut model = bench_model(ds, cfg.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    let mut opt = Optimizer::adam(cfg.lr);
    let mut g = Graph::new();
    let mut losses = Vec::new();
    let mut backward_ns = 0u128;
    let mut step = |backward_ns: &mut u128| -> u32 {
        g.reset();
        let fw = model.forward(&mut g, &ds.graph, &ds.features, blocks, false);
        let (loss, _, _) = model.hgn_loss(&mut g, &fw, blocks, labels, &mut rng);
        let bits = g.value(loss).as_slice()[0].to_bits();
        let t0 = Instant::now();
        if parallel_backward {
            g.backward(loss);
        } else {
            g.backward_serial(loss);
        }
        *backward_ns += t0.elapsed().as_nanos();
        opt.step_clipped(&mut model.params, &mut g, Some(cfg.clip));
        bits
    };
    for _ in 0..WARMUP_STEPS {
        let mut scratch = 0u128;
        step(&mut scratch);
    }
    let t0 = Instant::now();
    for _ in 0..MEASURE_STEPS {
        losses.push(step(&mut backward_ns));
    }
    let elapsed = t0.elapsed();
    par::set_num_threads(0);
    let ns_per_step = elapsed.as_nanos() as f64 / MEASURE_STEPS as f64;
    Arm {
        label: format!(
            "{} backward, {threads} thread{}",
            if parallel_backward {
                "parallel"
            } else {
                "serial"
            },
            if threads == 1 { "" } else { "s" },
        ),
        threads,
        ms_per_step: ns_per_step / 1e6,
        backward_ms_per_step: backward_ns as f64 / MEASURE_STEPS as f64 / 1e6,
        steps_per_sec: 1e9 / ns_per_step,
        losses,
    }
}

fn arm_json(a: &Arm) -> String {
    format!(
        r#"{{
      "label": "{}",
      "threads": {},
      "ms_per_step": {:.4},
      "backward_ms_per_step": {:.4},
      "steps_per_sec": {:.1}
    }}"#,
        a.label, a.threads, a.ms_per_step, a.backward_ms_per_step, a.steps_per_sec
    )
}

fn main() {
    let ds = bench_dataset();
    let cfg = ModelConfig::default();

    // One fixed batch under the default config, sampled once, so every arm
    // replays the identical forward/backward program.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let batch: Vec<usize> = (0..cfg.batch_size)
        .map(|_| ds.split.train[rng.gen_range(0..ds.split.train.len())])
        .collect();
    let seeds = ds.paper_nodes_of(&batch);
    let labels = Tensor::col_vec(ds.labels_of(&batch));
    let blocks = hetgraph::sample_blocks(&ds.graph, &seeds, cfg.layers, cfg.fanout, &mut rng);
    let labels = if blocks[0].dst_nodes.len() == seeds.len() {
        labels
    } else {
        let first: HashMap<hetgraph::NodeId, f32> = seeds
            .iter()
            .zip(labels.as_slice())
            .map(|(&n, &l)| (n, l))
            .rev()
            .collect();
        Tensor::col_vec(blocks[0].dst_nodes.iter().map(|n| first[n]).collect())
    };

    let serial_1t = run_arm(&ds, &blocks, &labels, &cfg, 1, false);
    let serial_4t = run_arm(&ds, &blocks, &labels, &cfg, 4, false);
    let par_arms: Vec<Arm> = [1usize, 2, 4]
        .iter()
        .map(|&t| run_arm(&ds, &blocks, &labels, &cfg, t, true))
        .collect();

    for arm in par_arms.iter().chain([&serial_4t]) {
        assert_eq!(
            serial_1t.losses, arm.losses,
            "'{}' diverged from the serial baseline",
            arm.label
        );
    }

    let par_4t = &par_arms[2];
    let speedup_vs_pr2 = PR2_COMMIT_MS_PER_STEP / par_4t.ms_per_step;
    let speedup_serial_vs_pr2 = PR2_COMMIT_MS_PER_STEP / serial_1t.ms_per_step;
    let speedup_same_threads = serial_4t.ms_per_step / par_4t.ms_per_step;
    let backward_speedup = serial_4t.backward_ms_per_step / par_4t.backward_ms_per_step;
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Part 2: a short end-to-end training run to exercise the sampling
    // cache across outer rounds (validation predict replays fixed seeds).
    par::set_num_threads(4);
    let train_cfg = ModelConfig {
        outer_iters: 6,
        mini_iters: 6,
        ..ModelConfig::default()
    };
    let mut train_ds = bench_dataset();
    let mut train_model = bench_model(&train_ds, train_cfg);
    let t0 = Instant::now();
    let report = catehgn::train::train(&mut train_model, &mut train_ds).expect("training run");
    let train_secs = t0.elapsed().as_secs_f64();
    par::set_num_threads(0);
    let (hits, misses) = train_model.sampling_cache_stats();
    assert!(hits > 0, "sampling cache never hit across outer rounds");

    let json = format!(
        r#"{{
  "bench": "bench_pr3",
  "pr": 3,
  "headline": "deterministic branch-parallel backward + neighbor-block sampling cache",
  "config": {{
    "batch_size": {batch},
    "layers": {layers},
    "fanout": {fanout},
    "dim": {dim},
    "warmup_steps": {warm},
    "measured_steps": {meas}
  }},
  "host_cpus": {host_cpus},
  "pr2_baseline": {{
    "description": "PR-2 commit {pr2_commit}, same harness and host, serial backward",
    "ms_per_step": {pr2_ms:.4},
    "backward_ms_per_step": {pr2_bwd:.4},
    "steps_per_sec": {pr2_sps:.1}
  }},
  "serial_backward_1t": {base},
  "serial_backward_4t": {s4},
  "parallel_backward": [
    {p1},
    {p2},
    {p4}
  ],
  "speedup_4t_vs_pr2_baseline": {speedup_vs_pr2:.3},
  "speedup_serial_1t_vs_pr2_baseline": {speedup_serial_vs_pr2:.3},
  "speedup_4t_same_thread_count": {speedup_same_threads:.3},
  "backward_speedup_4t": {backward_speedup:.3},
  "losses_bitwise_identical": true,
  "sampling_cache": {{
    "outer_iters": 6,
    "mini_iters": 6,
    "train_seconds": {train_secs:.1},
    "final_val_rmse": {rmse:.4},
    "hits": {hits},
    "misses": {misses},
    "hit_rate": {hit_rate:.3}
  }}
}}
"#,
        batch = cfg.batch_size,
        layers = cfg.layers,
        fanout = cfg.fanout,
        dim = cfg.dim,
        warm = WARMUP_STEPS,
        meas = MEASURE_STEPS,
        pr2_commit = PR2_COMMIT,
        pr2_ms = PR2_COMMIT_MS_PER_STEP,
        pr2_bwd = PR2_COMMIT_BACKWARD_MS,
        pr2_sps = 1e3 / PR2_COMMIT_MS_PER_STEP,
        base = arm_json(&serial_1t),
        s4 = arm_json(&serial_4t),
        p1 = arm_json(&par_arms[0]),
        p2 = arm_json(&par_arms[1]),
        p4 = arm_json(&par_arms[2]),
        rmse = report.val_rmse.last().copied().unwrap_or(f32::NAN),
        hit_rate = hits as f64 / (hits + misses).max(1) as f64,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_PR3.json");
    std::fs::write(path, &json).expect("write results/BENCH_PR3.json");
    println!("{json}");
    println!("wrote {path}");
}
