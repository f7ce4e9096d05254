//! Tape equivalence on the real model: the pooled, long-lived-tape
//! training path must be bitwise-identical to the seed path that builds a
//! fresh `Graph` per batch, and the serial backward sweep to the
//! branch-parallel one at any thread count — per-step losses and all
//! parameters, over 3 outer rounds of Algorithm 1's HGN + CA phases.

use catehgn::config::ModelConfig;
use catehgn::model::{CateHgn, Reads};
use dblp_sim::{Dataset, WorldConfig};
use hetgraph::{sample_blocks, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeSet, HashMap};
use tensor::{Graph, Optimizer, Tensor};

const OUTER_ROUNDS: usize = 3;
const MINI_ITERS: usize = 4;
const CA_ITERS: usize = 2;

/// Aligns the label column with the sampler's deduped frontier prefix
/// (mirrors the private helper in train.rs).
fn dedup_labels(seeds: &[NodeId], deduped: &[NodeId], labels: &Tensor) -> Tensor {
    if seeds.len() == deduped.len() {
        return labels.clone();
    }
    let first: HashMap<NodeId, f32> = seeds
        .iter()
        .zip(labels.as_slice())
        .map(|(&n, &l)| (n, l))
        .rev()
        .collect();
    Tensor::col_vec(deduped.iter().map(|n| first[n]).collect())
}

/// How each training step gets its tape and sweeps it backward.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    /// A fresh `Graph` per batch, branch-parallel `Graph::backward`.
    Fresh,
    /// One long-lived `Graph` reset per batch, `Graph::backward`.
    Pooled,
    /// The pooled tape swept by `Graph::backward_serial`.
    PooledSerialBackward,
}

/// Runs 3 outer rounds of the HGN + CA training phases under `arm`;
/// everything else — RNG stream, batches, ops — is identical across arms.
/// Returns (per-step loss bits, final parameter bits).
fn run(ds: &Dataset, arm: Arm) -> (Vec<u32>, Vec<Vec<u32>>) {
    let cfg = ModelConfig::test_tiny();
    let mut model = CateHgn::new(
        cfg.clone(),
        ds.features.cols(),
        ds.graph.schema().num_node_types(),
        ds.graph.schema().num_link_types(),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF);
    let mut opt = Optimizer::adam(cfg.lr);
    let mut ca_opt = Optimizer::adam(cfg.lr);
    let center_ids: BTreeSet<tensor::ParamId> = model.ca.centers.iter().copied().collect();
    let train_idx = &ds.split.train;

    let backward = |g: &mut Graph, loss| {
        if arm == Arm::PooledSerialBackward {
            g.backward_serial(loss);
        } else {
            g.backward(loss);
        }
    };
    let mut shared = Graph::new();
    let mut losses = Vec::new();
    for _outer in 0..OUTER_ROUNDS {
        for _ in 0..MINI_ITERS {
            let batch: Vec<usize> = (0..cfg.batch_size)
                .map(|_| train_idx[rng.gen_range(0..train_idx.len())])
                .collect();
            let seeds = ds.paper_nodes_of(&batch);
            let labels = Tensor::col_vec(ds.labels_of(&batch));
            let blocks = sample_blocks(&ds.graph, &seeds, cfg.layers, cfg.fanout, &mut rng);
            let labels = dedup_labels(&seeds, &blocks[0].dst_nodes, &labels);
            let mut fresh;
            let g = if arm == Arm::Fresh {
                fresh = Graph::new();
                &mut fresh
            } else {
                shared.reset();
                &mut shared
            };
            let fw = model.forward(g, &ds.graph, &ds.features, &blocks, Reads::HGN_STEP);
            let (loss, _, _) = model.hgn_loss(g, &fw, &blocks, &labels, &mut rng);
            losses.push(g.value(loss).as_slice()[0].to_bits());
            // Long enough that `backward` takes the branch-parallel
            // scheduler whenever more than one worker is configured.
            assert!(g.len() >= tensor::graph::PAR_TAPE_MIN);
            backward(g, loss);
            opt.step_clipped(&mut model.params, g, Some(cfg.clip));
        }
        for _ in 0..CA_ITERS {
            let batch: Vec<NodeId> = (0..cfg.batch_size)
                .map(|_| NodeId(rng.gen_range(0..ds.graph.num_nodes() as u32)))
                .collect();
            let blocks = sample_blocks(&ds.graph, &batch, cfg.layers, cfg.fanout, &mut rng);
            let mut fresh;
            let g = if arm == Arm::Fresh {
                fresh = Graph::new();
                &mut fresh
            } else {
                shared.reset();
                &mut shared
            };
            let fw = model.forward(g, &ds.graph, &ds.features, &blocks, Reads::CA_STEP);
            if let Some(loss) = model.ca_loss(g, &fw) {
                losses.push(g.value(loss).as_slice()[0].to_bits());
                backward(g, loss);
                ca_opt.step_filtered(&mut model.params, g, Some(cfg.clip), &center_ids);
            }
        }
    }
    let param_bits = model
        .params
        .iter()
        .map(|(_, _, v)| v.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect();
    (losses, param_bits)
}

#[test]
fn pooled_training_is_bitwise_identical_to_fresh_graphs() {
    let ds = Dataset::full(&WorldConfig::tiny(), 8);
    let (losses_fresh, params_fresh) = run(&ds, Arm::Fresh);
    let (losses_pooled, params_pooled) = run(&ds, Arm::Pooled);
    assert!(!losses_fresh.is_empty());
    assert_eq!(
        losses_fresh, losses_pooled,
        "per-step losses must be bitwise identical across {OUTER_ROUNDS} rounds"
    );
    assert_eq!(
        params_fresh, params_pooled,
        "final parameters must be bitwise identical across {OUTER_ROUNDS} rounds"
    );
}

/// The serial backward sweep and the branch-parallel one accumulate every
/// gradient in the same order, so at 1 and 4 tensor threads both land on
/// the fresh-graph reference bits.
#[test]
fn serial_and_parallel_backward_are_bitwise_identical_across_threads() {
    let ds = Dataset::full(&WorldConfig::tiny(), 8);
    let reference = run(&ds, Arm::Fresh);
    for threads in [1usize, 4] {
        tensor::par::set_num_threads(threads);
        let serial = run(&ds, Arm::PooledSerialBackward);
        let parallel = run(&ds, Arm::Pooled);
        tensor::par::set_num_threads(0);
        assert!(
            serial == reference,
            "serial backward diverged at {threads} threads"
        );
        assert!(
            parallel == reference,
            "parallel backward diverged at {threads} threads"
        );
    }
}
