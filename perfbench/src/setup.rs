//! Workload inputs: corpora, serving models, shard generations and warm
//! engines — everything `setup_s` times.

use crate::streams::{Purpose, Stream};
use crate::{ENGINE_SEED, TOP_K};
use catehgn::{CateHgn, ModelConfig, ServeEngine, ServeError};
use dblp_sim::{Dataset, ScaleOptions, WorldConfig};
use hetgraph::{HetGraph, ShardStore};
use std::path::Path;
use std::time::Instant;

/// Raw feature width of every corpus.
const FEAT_DIM: usize = 32;

/// Papers of the `serve-query` corpus: enough that per-query work linear in
/// the candidate count dominates, few enough to embed every paper several
/// times per run.
const BIG_PAPERS: usize = 20_000;

/// The default CATE-HGN (L=2, d=32, B=128, S=8, circular correlation,
/// MI+CA+TE) with one cluster per research domain plus one.
pub fn model_config(ds: &Dataset) -> ModelConfig {
    ModelConfig {
        n_clusters: ds.world.config.n_domains + 1,
        ..ModelConfig::default()
    }
}

pub fn new_model(cfg: ModelConfig, ds: &Dataset) -> CateHgn {
    let schema = ds.graph.schema();
    CateHgn::new(
        cfg,
        ds.features.cols(),
        schema.num_node_types(),
        schema.num_link_types(),
    )
}

/// A deterministically initialised serving model. Its output head starts at
/// zero (the mean-predictor warm start), so it gets a fixed non-zero
/// pattern to make impact predictions depend on the embeddings.
fn serve_model(ds: &Dataset) -> CateHgn {
    let mut model = new_model(model_config(ds), ds);
    for l in 0..model.cfg.layers {
        let w_y = model.layers[l].w_y;
        for (i, x) in model
            .params
            .value_mut(w_y)
            .as_mut_slice()
            .iter_mut()
            .enumerate()
        {
            *x = ((i % 13) as f32 - 6.0) * 0.03;
        }
    }
    model
}

/// The inputs of one run.
pub struct Fixture {
    /// The 900-paper corpus: training, refreshes, and queries unless `big`.
    pub small: Dataset,
    /// The 20k-paper streamed corpus that `serve-query` queries.
    pub big: Option<Dataset>,
    pub query_model: CateHgn,
    pub refresh_model: CateHgn,
    /// Two graph generations of `small` that differ only in their term
    /// links, and the shard stores they were written to.
    pub generations: Vec<HetGraph>,
    pub stores: Vec<ShardStore>,
    /// Corpus build and shard write times, for the per-layer table.
    pub dataset_s: f64,
    pub shard_write_s: f64,
}

impl Fixture {
    pub fn build(big: bool, seed: u64, scratch: &Path) -> Result<Self, String> {
        let t = Instant::now();
        let small = Dataset::try_full(&WorldConfig::small(), FEAT_DIM)
            .map_err(|e| format!("small corpus: {e}"))?;
        let big = if big {
            let cfg = WorldConfig::at_scale(BIG_PAPERS);
            Some(
                Dataset::try_streamed(&cfg, FEAT_DIM, &ScaleOptions::at_scale())
                    .map_err(|e| format!("{BIG_PAPERS}-paper corpus: {e}"))?,
            )
        } else {
            None
        };
        let dataset_s = t.elapsed().as_secs_f64();
        let query_model = serve_model(big.as_ref().unwrap_or(&small));
        let refresh_model = serve_model(&small);

        let mut stream = Stream::new(seed, Purpose::Generation);
        let (mut generations, mut stores, mut shard_write_s) = (Vec::new(), Vec::new(), 0.0);
        for g in 0..2 {
            let mut ds = small.clone();
            ds.randomize_term_links(stream.word());
            let dir = scratch.join(format!("gen{g}"));
            let t = Instant::now();
            ShardStore::write(&dir, &ds.graph)
                .map_err(|e| format!("writing {}: {e}", dir.display()))?;
            stores.push(
                ShardStore::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?,
            );
            shard_write_s += t.elapsed().as_secs_f64();
            generations.push(ds.graph);
        }
        if generations[0].content_fingerprint() == generations[1].content_fingerprint() {
            return Err("the two shard generations are identical".into());
        }
        Ok(Fixture {
            small,
            big,
            query_model,
            refresh_model,
            generations,
            stores,
            dataset_s,
            shard_write_s,
        })
    }

    /// The corpus the query phase serves.
    pub fn query_ds(&self) -> &Dataset {
        self.big.as_ref().unwrap_or(&self.small)
    }
}

/// Serving engines with warm embedding caches.
pub struct Engines<'m> {
    /// Candidates: every paper of the query corpus.
    pub query: ServeEngine<'m>,
    /// Resident on generation 0; candidates: every paper of `small`.
    pub refresh: ServeEngine<'m>,
    pub warm_s: f64,
}

impl<'m> Engines<'m> {
    pub fn warm(fx: &'m Fixture) -> Result<Self, ServeError> {
        let t = Instant::now();
        let q = fx.query_ds();
        let mut query = ServeEngine::new(&fx.query_model, ENGINE_SEED);
        query.ensure_cache(&q.graph, &q.features, &q.paper_nodes)?;
        let mut refresh = ServeEngine::new(&fx.refresh_model, ENGINE_SEED);
        refresh.install_resident(fx.generations[0].clone(), fx.small.features.clone())?;
        let papers = &fx.small.paper_nodes;
        refresh.recommend_batch_resident(papers, &papers[..1], TOP_K)?;
        Ok(Engines {
            query,
            refresh,
            warm_s: t.elapsed().as_secs_f64(),
        })
    }
}
