//! # bench — Criterion benchmarks, one per paper table/figure
//!
//! Each bench target regenerates a miniature version of its experiment so
//! `cargo bench` exercises the exact code path behind every reported
//! number, and measures the dominant computational kernel of that
//! experiment:
//!
//! | Target | Paper artifact | What is measured |
//! |---|---|---|
//! | `table1_datasets` | Table I | dataset generation + assembly per variant |
//! | `table2_main` | Table II | one training step of each model family |
//! | `fig4_ablation` | Fig. 4(a) | forward+backward per ablation variant |
//! | `fig4_hparams` | Fig. 4(b,c) | CA/TE cost vs `K` and `kappa` |
//! | `table3_casestudy` | Table III | impact-and-cluster readout |
//! | `fig5_termmining` | Fig. 5 | MLM bootstrap + voting refinement |
//! | `components` | Sec. III-F analysis | compositions, sampling, attention, params |
//!
//! The shared fixtures live here so every bench sees the same world.

use baselines::GnnConfig;
use catehgn::{CateHgn, ModelConfig};
use dblp_sim::{Dataset, WorldConfig};

/// The dataset used by all benches: small enough for Criterion iteration,
/// large enough to exercise real sampling fan-outs.
pub fn bench_dataset() -> Dataset {
    Dataset::full(&WorldConfig::tiny(), 16)
}

/// A reduced model configuration for per-step benchmarks.
pub fn bench_model_cfg(ds: &Dataset) -> ModelConfig {
    ModelConfig {
        dim: 16,
        batch_size: 64,
        fanout: 6,
        n_clusters: ds.world.config.n_domains + 1,
        heads_node: 2,
        heads_link: 2,
        ..ModelConfig::default()
    }
}

/// A reduced GNN baseline configuration.
pub fn bench_gnn_cfg() -> GnnConfig {
    GnnConfig {
        dim: 16,
        fanout: 6,
        batch_size: 64,
        steps: 1,
        ..GnnConfig::default()
    }
}

/// Builds a fresh CATE-HGN for a dataset.
pub fn bench_model(ds: &Dataset, cfg: ModelConfig) -> CateHgn {
    CateHgn::new(
        cfg,
        ds.features.cols(),
        ds.graph.schema().num_node_types(),
        ds.graph.schema().num_link_types(),
    )
}
