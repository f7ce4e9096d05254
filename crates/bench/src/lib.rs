//! # bench — shared fixtures for the timing gates
//!
//! `bench_gates` (the timing floors `scripts/ci.sh` ends in) and the
//! `alloc_ratio` allocation gate both build their world from these
//! fixtures, so every gate sees the same dataset and model shape.

use catehgn::{CateHgn, ModelConfig};
use dblp_sim::{Dataset, WorldConfig};

/// The dataset used by all gates: small enough to time many repetitions,
/// large enough to exercise real sampling fan-outs.
pub fn bench_dataset() -> Dataset {
    Dataset::full(&WorldConfig::tiny(), 16)
}

/// A reduced model configuration for per-step timing.
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

/// Builds a fresh CATE-HGN for a dataset.
pub fn bench_model(ds: &Dataset, cfg: ModelConfig) -> CateHgn {
    CateHgn::new(
        cfg,
        ds.features.cols(),
        ds.graph.schema().num_node_types(),
        ds.graph.schema().num_link_types(),
    )
}
