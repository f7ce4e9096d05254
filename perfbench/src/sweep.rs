//! Sec. III-F cost sweep, traced runs only. The paper's cost model is
//! `O(B * S^L * d * K)`: `layer_forward` is timed against the embedding size
//! `d` and the fanout `S`, and the CA loss against the cluster count `K`,
//! each on one sampled batch of the 900-paper corpus. The stage that grows
//! fastest is the first to optimise.

use crate::report::Report;
use crate::setup::{model_config, new_model};
use crate::streams::{Purpose, Stream};
use crate::trace::{by_name, median, Tracer};
use crate::train::{forward, LAYER_SPANS};
use catehgn::ModelConfig;
use dblp_sim::Dataset;
use hetgraph::{sample_blocks, Block};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;
use tensor::Graph;

/// Forward passes per configuration; the median is reported.
const REPS: usize = 7;

pub fn run(ds: &Dataset, seed: u64, rep: &mut Report) {
    let base = model_config(ds);
    let layer_variants = [
        (
            "sweep.layer_ms.d16",
            ModelConfig {
                dim: 16,
                ..base.clone()
            },
        ),
        (
            "sweep.layer_ms.d32",
            ModelConfig {
                dim: 32,
                ..base.clone()
            },
        ),
        (
            "sweep.layer_ms.d100",
            ModelConfig {
                dim: 100,
                ..base.clone()
            },
        ),
        (
            "sweep.layer_ms.s4",
            ModelConfig {
                fanout: 4,
                ..base.clone()
            },
        ),
        (
            "sweep.layer_ms.s8",
            ModelConfig {
                fanout: 8,
                ..base.clone()
            },
        ),
        (
            "sweep.layer_ms.s16",
            ModelConfig {
                fanout: 16,
                ..base.clone()
            },
        ),
    ];
    for (name, cfg) in layer_variants {
        rep.metric(name, layer_ms(ds, cfg, seed), "ms");
    }
    for (name, k) in [
        ("sweep.ca_loss_ms.k2", 2),
        ("sweep.ca_loss_ms.k10", 10),
        ("sweep.ca_loss_ms.k16", 16),
    ] {
        let cfg = ModelConfig {
            n_clusters: k,
            ..base.clone()
        };
        rep.metric(name, ca_loss_ms(ds, cfg, seed), "ms");
    }
}

/// One batch of training papers, sampled under `cfg`'s fanout.
fn batch_blocks(ds: &Dataset, cfg: &ModelConfig, seed: u64) -> Vec<Block> {
    let mut stream = Stream::new(seed, Purpose::Sweep);
    let papers = ds.paper_nodes_of(&ds.split.train);
    let seeds = stream.distinct(&papers, cfg.batch_size);
    let mut rng = ChaCha8Rng::seed_from_u64(stream.word());
    sample_blocks(&ds.graph, &seeds, cfg.layers, cfg.fanout, &mut rng)
}

/// Median over `REPS` forward passes of the mean `layer_forward` time.
fn layer_ms(ds: &Dataset, cfg: ModelConfig, seed: u64) -> f64 {
    let model = new_model(cfg, ds);
    let blocks = batch_blocks(ds, &model.cfg, seed);
    let mut g = Graph::new();
    let per_pass: Vec<f64> = (0..REPS)
        .map(|_| {
            g.reset();
            let mut tr = Tracer::new(true);
            forward(&model, &mut g, ds, &blocks, false, &mut tr);
            let stats = by_name(tr.spans());
            let ns: u64 = LAYER_SPANS
                .iter()
                .filter_map(|name| stats.get(name))
                .map(|s| s.total_ns)
                .sum();
            ns as f64 / 1e6 / model.cfg.layers as f64
        })
        .collect();
    median(&per_pass)
}

/// Median over `REPS` batches of the `CateHgn::ca_loss` time.
fn ca_loss_ms(ds: &Dataset, cfg: ModelConfig, seed: u64) -> f64 {
    let model = new_model(cfg, ds);
    let blocks = batch_blocks(ds, &model.cfg, seed);
    let mut g = Graph::new();
    let mut untraced = Tracer::new(false);
    let per_pass: Vec<f64> = (0..REPS)
        .map(|_| {
            g.reset();
            let fw = forward(&model, &mut g, ds, &blocks, true, &mut untraced);
            let t = Instant::now();
            black_box(model.ca_loss(&mut g, &fw));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&per_pass)
}
