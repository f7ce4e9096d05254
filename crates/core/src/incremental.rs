//! Incremental training over newly arriving papers — the second future-work
//! item the paper names (Sec. VI: "incremental training of large-scale
//! models over new nodes and evolving clusters towards a deployable
//! real-time system").
//!
//! Because CATE-HGN is fully inductive (its parameter count is independent
//! of the graph; Sec. III-F), new papers need no new parameters: arriving
//! nodes are appended to the graph/features, and a short fine-tuning run
//! over the freshly labeled papers adapts the existing weights. The
//! cluster centers keep evolving through the same CA phase.

use crate::config::ModelConfig;
use crate::model::{CateHgn, Reads};
use crate::train::dedup_labels;
use dblp_sim::Dataset;
use hetgraph::sample_blocks;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::{Graph, Optimizer, Tensor};

/// Report of one incremental adaptation round.
#[derive(Clone, Debug)]
pub struct IncrementalReport {
    /// Papers the model was adapted on.
    pub adapted_on: usize,
    /// Mean supervised loss over the fine-tuning steps.
    pub mean_loss: f32,
}

/// Fine-tunes a trained model on a set of newly labeled papers (e.g. the
/// most recent year once its citation counts become observable), without
/// re-running the full Algorithm 1.
///
/// `steps` mini-batches are drawn from `new_papers` (indices into
/// `ds.papers`); the rest of the pipeline (sampling, masking, MI) is the
/// standard HGN phase.
pub fn adapt<R: Rng>(
    model: &mut CateHgn,
    ds: &Dataset,
    new_papers: &[usize],
    steps: usize,
    rng: &mut R,
) -> IncrementalReport {
    assert!(!new_papers.is_empty(), "nothing to adapt on");
    let cfg: ModelConfig = model.cfg.clone();
    // Lower learning rate: adaptation, not re-training.
    let mut opt = Optimizer::adam(cfg.lr * 0.3);
    let mut total = 0.0f32;
    let mut g = Graph::new();
    for _ in 0..steps {
        let batch: Vec<usize> = (0..cfg.batch_size.min(new_papers.len() * 2))
            .map(|_| new_papers[rng.gen_range(0..new_papers.len())])
            .collect();
        let seeds = ds.paper_nodes_of(&batch);
        let labels = Tensor::col_vec(ds.labels_of(&batch));
        let blocks = sample_blocks(&ds.graph, &seeds, cfg.layers, cfg.fanout, rng);
        let labels = dedup_labels(&seeds, &blocks[0].dst_nodes, &labels);
        g.reset();
        let fw = model.forward(&mut g, &ds.graph, &ds.features, &blocks, Reads::HGN_STEP);
        let (loss, sup, _) = model.hgn_loss(&mut g, &fw, &blocks, &labels, rng);
        total += sup;
        g.backward(loss);
        opt.step_clipped(&mut model.params, &mut g, Some(cfg.clip));
    }
    IncrementalReport {
        adapted_on: new_papers.len(),
        mean_loss: total / steps.max(1) as f32,
    }
}

/// Simulates the deployment loop: papers of `year` become labeled, the
/// model adapts on them, and is then evaluated on the following years.
/// Returns `(rmse_before, rmse_after)` on the post-`year` test papers.
pub fn rolling_update(
    model: &mut CateHgn,
    ds: &Dataset,
    year: u16,
    steps: usize,
    seed: u64,
) -> (f32, f32) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let newly_labeled: Vec<usize> = (0..ds.n_papers())
        .filter(|&i| ds.papers[i].year == year)
        .collect();
    let future: Vec<usize> = (0..ds.n_papers())
        .filter(|&i| ds.papers[i].year > year)
        .collect();
    assert!(
        !newly_labeled.is_empty() && !future.is_empty(),
        "year {year} splits are empty"
    );
    let truth = ds.labels_of(&future);
    let eval = |m: &CateHgn| {
        let seeds = ds.paper_nodes_of(&future);
        let preds = m.predict(&ds.graph, &ds.features, &seeds, seed ^ 0xF0);
        crate::train::rmse(&preds, &truth)
    };
    let before = eval(model);
    adapt(model, ds, &newly_labeled, steps, &mut rng);
    let after = eval(model);
    (before, after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblp_sim::WorldConfig;

    fn trained_tiny() -> (CateHgn, Dataset) {
        let mut ds = Dataset::full(&WorldConfig::tiny(), 8);
        let mut model = CateHgn::new(
            ModelConfig {
                mini_iters: 8,
                outer_iters: 3,
                ..ModelConfig::test_tiny()
            },
            ds.features.cols(),
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        crate::train::train(&mut model, &mut ds).unwrap();
        (model, ds)
    }

    #[test]
    fn adapt_reduces_loss_on_new_papers() {
        let (mut model, ds) = trained_tiny();
        let new_papers: Vec<usize> = ds.split.val.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let r1 = adapt(&mut model, &ds, &new_papers, 3, &mut rng);
        let r2 = adapt(&mut model, &ds, &new_papers, 10, &mut rng);
        assert_eq!(r1.adapted_on, new_papers.len());
        assert!(r1.mean_loss.is_finite() && r2.mean_loss.is_finite());
        assert!(model.params.all_finite());
        // Repeated adaptation on the same small set must reduce its loss.
        assert!(
            r2.mean_loss < r1.mean_loss * 1.05,
            "adaptation diverged: {} -> {}",
            r1.mean_loss,
            r2.mean_loss
        );
    }

    #[test]
    fn rolling_update_runs_and_stays_finite() {
        let (mut model, ds) = trained_tiny();
        let (before, after) = rolling_update(&mut model, &ds, 2015, 5, 9);
        assert!(before.is_finite() && after.is_finite());
        // Adaptation must not blow the model up (allow mild degradation —
        // five steps on a handful of papers is not guaranteed to help).
        assert!(after < 1.5 * before, "before {before}, after {after}");
    }

    #[test]
    #[should_panic(expected = "nothing to adapt on")]
    fn adapt_requires_papers() {
        let (mut model, ds) = trained_tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        adapt(&mut model, &ds, &[], 1, &mut rng);
    }
}
