//! CATE-HGN model assembly: parameters, mini-batch forward pass over
//! sampled blocks, the combined HGN loss (Eq. 2), the CA loss (Eq. 22),
//! and batched prediction.

use crate::ca::{self, CaParams};
use crate::config::ModelConfig;
use crate::encoder::{encode_links, encode_nodes, EncoderParams};
use crate::layer::{link_update, node_update, LayerParams};
use crate::mi::{mi_loss_planned, plan_mi, MiPlan};
use crate::resilience::{check_layout, write_atomic, CheckpointError};
use hetgraph::{Block, BlockCache, HetGraph, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::btree_map::{BTreeMap, Entry};
use tensor::{ForwardCtx, Graph, InferCtx, Params, Tensor, Var};

/// The CATE-HGN model (and, through ablation flags, its HGN / CA-HGN
/// variants).
#[derive(Clone, Debug)]
pub struct CateHgn {
    pub cfg: ModelConfig,
    pub params: Params,
    pub enc: EncoderParams,
    pub layers: Vec<LayerParams>,
    pub ca: CaParams,
    /// Neighborhood-sampling cache for the deterministic inference paths
    /// (`predict` / `impact_and_cluster` / `embed`): repeated Algorithm-1
    /// evaluation rounds replay their blocks instead of resampling.
    pub sampling_cache: SharedBlockCache,
}

/// [`BlockCache`] behind a mutex so the `&self` inference methods can use
/// it; training mini-batches draw from an ever-advancing RNG and bypass it.
pub struct SharedBlockCache(std::sync::Mutex<BlockCache<ChaCha8Rng>>);

/// Resident entries bound the memory held by cached blocks; validation
/// predict needs `PREDICT_SAMPLES x n_chunks` slots to replay fully.
const SAMPLING_CACHE_CAPACITY: usize = 128;

impl Default for SharedBlockCache {
    fn default() -> Self {
        SharedBlockCache(std::sync::Mutex::new(BlockCache::new(
            SAMPLING_CACHE_CAPACITY,
        )))
    }
}

// The cache is replay state, not model state: clones start cold.
impl Clone for SharedBlockCache {
    fn clone(&self) -> Self {
        SharedBlockCache::default()
    }
}

impl std::fmt::Debug for SharedBlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // A poisoned lock only means a panic elsewhere interrupted a cache
        // mutation; the cache is replay state, so recover rather than
        // compound the panic.
        let (hits, misses) = self.0.lock().unwrap_or_else(|p| p.into_inner()).stats();
        write!(f, "SharedBlockCache {{ hits: {hits}, misses: {misses} }}")
    }
}

/// Everything a forward pass produces that the losses need.
pub struct ForwardOut {
    /// Layer-0 encoded embeddings on the deepest frontier.
    pub h0: Var,
    /// `h^(l)` for `l = 1..=L` (unmasked; used for propagation).
    pub h_layers: Vec<Var>,
    /// Cluster-masked `h_hat^(l)` (equals `h_layers` when CA is off).
    pub h_masked: Vec<Var>,
    /// Soft assignments `q^(l)` per layer (empty when CA is off).
    pub q_layers: Vec<Var>,
    /// Per layer transition: (block index, MI source var) — the source is
    /// the masked previous-layer embedding, per Algorithm 1 line 7.
    pub transitions: Vec<(usize, Var)>,
}

/// What the caller of [`CateHgn::forward`] reads, which bounds the work
/// the pass does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reads {
    /// A training step: the losses read the CA outputs of every row (MI
    /// reads the masked embeddings of the whole frontier). `bind_centers`
    /// makes the cluster centers trainable (CA phase) rather than
    /// constants (HGN phase).
    Train { bind_centers: bool },
    /// Predictions and clusters of the first `n` rows, the deduped seed
    /// prefix (`predict`, `impact_and_cluster`): CA runs on those rows
    /// only, with constant centers. `h_masked` and `q_layers` hold `n`
    /// rows.
    Seeds(usize),
    /// Layer embeddings only (`embed`): no CA, and `h_masked` equals
    /// `h_layers`.
    Embeddings,
}

impl Reads {
    /// An HGN-phase training step: constant centers.
    pub const HGN_STEP: Reads = Reads::Train {
        bind_centers: false,
    };
    /// A CA-phase training step: the centers train.
    pub const CA_STEP: Reads = Reads::Train { bind_centers: true };
}

/// A bare `bool` as a training step's `bind_centers`. Only the benchmark
/// crate (`perfbench/`) still passes one; once it passes
/// [`Reads::HGN_STEP`] and [`Reads::CA_STEP`], this impl can go.
impl From<bool> for Reads {
    fn from(bind_centers: bool) -> Self {
        Reads::Train { bind_centers }
    }
}

impl CateHgn {
    /// Initialises all parameters for a graph with the given schema sizes
    /// and raw feature dimension.
    pub fn new(
        cfg: ModelConfig,
        feat_dim: usize,
        n_node_types: usize,
        n_link_types: usize,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut params = Params::new();
        let enc = EncoderParams::init(
            &mut params,
            feat_dim,
            n_node_types,
            n_link_types,
            &cfg,
            &mut rng,
        );
        let layers = (0..cfg.layers)
            .map(|l| LayerParams::init(&mut params, l, cfg.dim, n_link_types, &cfg, &mut rng))
            .collect();
        let ca = CaParams::init(&mut params, cfg.layers, cfg.dim, cfg.n_clusters, &mut rng);
        CateHgn {
            cfg,
            params,
            enc,
            layers,
            ca,
            sampling_cache: SharedBlockCache::default(),
        }
    }

    /// `(hits, misses)` of the neighborhood-sampling cache since this model
    /// was built.
    pub fn sampling_cache_stats(&self) -> (u64, u64) {
        // Poison recovery: the cache holds only replayable sampling state.
        self.sampling_cache
            .0
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .stats()
    }

    /// Cached [`sample_blocks`] for the deterministic inference paths.
    fn sample_cached(
        &self,
        graph: &HetGraph,
        seeds: &[NodeId],
        fanout: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Block> {
        // Poison recovery: a half-updated LRU entry is re-sampled on miss.
        self.sampling_cache
            .0
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .sample(graph, seeds, self.cfg.layers, fanout, rng)
    }

    /// Total number of scalar weights (constant in the graph size —
    /// Sec. III-F's parameter-efficiency claim).
    pub fn num_weights(&self) -> usize {
        self.params.num_weights()
    }

    /// Serialises the trained weights (with optimizer state) and the
    /// configuration to a JSON file. The write is atomic, as a checkpoint's
    /// is: a crash mid-save leaves the previous model in place, and the
    /// model it replaces is kept at `<path>.prev`.
    pub fn save(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        let blob = serde_json::json!({
            "config": self.cfg,
            "params": self.params,
        });
        let text = serde_json::to_string(&blob).map_err(|e| CheckpointError::Io(e.to_string()))?;
        write_atomic(path, text.as_bytes())
    }

    /// Restores a model saved with [`CateHgn::save`]. The schema sizes and
    /// feature dimension must match the ones the model was built with: the
    /// saved parameters must carry this model's names and shapes, position
    /// by position, or the load fails with [`CheckpointError::Mismatch`].
    pub fn load(
        path: &std::path::Path,
        feat_dim: usize,
        n_node_types: usize,
        n_link_types: usize,
    ) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        fn corrupt(e: impl std::fmt::Display) -> CheckpointError {
            CheckpointError::Corrupt(e.to_string())
        }
        let blob: serde_json::Value = serde_json::from_str(&text).map_err(corrupt)?;
        let field = |key| blob.field(key).cloned().map_err(corrupt);
        let cfg: ModelConfig = serde_json::from_value(field("config")?).map_err(corrupt)?;
        let params: Params = serde_json::from_value(field("params")?).map_err(corrupt)?;
        let mut model = CateHgn::new(cfg, feat_dim, n_node_types, n_link_types);
        let saved = params
            .iter()
            .map(|(_, name, value)| (name, value.rows(), value.cols()));
        check_layout(&model.params, saved)?;
        model.params = params;
        Ok(model)
    }

    /// Runs the model over pre-sampled blocks, doing the work that `reads`
    /// asks for (a bare `bool` is [`Reads::Train`]'s `bind_centers`).
    pub fn forward<F: ForwardCtx>(
        &self,
        g: &mut F,
        graph: &HetGraph,
        features: &Tensor,
        blocks: &[Block],
        reads: impl Into<Reads>,
    ) -> ForwardOut {
        let reads = reads.into();
        let l_total = blocks.len();
        assert_eq!(l_total, self.cfg.layers, "one block per layer");
        let deep = &blocks[l_total - 1].src_nodes;
        let h0 = encode_nodes(g, &self.params, &self.enc, graph, features, deep);
        let mut h_edges = encode_links(g, &self.params, &self.enc);

        let mut h_layers = Vec::with_capacity(l_total);
        let mut h_masked = Vec::with_capacity(l_total);
        let mut q_layers = Vec::new();
        let mut transitions = Vec::with_capacity(l_total);

        let mut h_cur = h0;
        let mut src_for_mi = h0;
        for l in 1..=l_total {
            let block_idx = l_total - l;
            let lp = &self.layers[l - 1];
            let h_next = node_update(
                g,
                &self.params,
                lp,
                &self.cfg,
                &blocks[block_idx],
                h_cur,
                &h_edges,
            );
            // Nothing reads the link embeddings after the last layer; the
            // training tape keeps their update so its nodes stay as they
            // always were.
            if l < l_total || matches!(reads, Reads::Train { .. }) {
                h_edges = link_update(g, &self.params, lp, &h_edges);
            }
            transitions.push((block_idx, src_for_mi));

            let ca_rows = match reads {
                _ if !self.cfg.ablation.ca => None,
                Reads::Train { bind_centers } => Some((h_next, bind_centers)),
                Reads::Seeds(n) if n < g.shape(h_next).0 => {
                    let mut rows = g.scratch_idx();
                    rows.extend(0..n);
                    Some((g.gather_rows(h_next, rows), false))
                }
                Reads::Seeds(_) => Some((h_next, false)),
                Reads::Embeddings => None,
            };
            let hm = match ca_rows {
                Some((h, bind_centers)) => {
                    let id = self.ca.centers[l - 1];
                    let centers = if bind_centers {
                        g.param(&self.params, id)
                    } else {
                        g.input_from(self.params.value(id))
                    };
                    let q = ca::soft_assign(g, h, centers);
                    g.free(centers);
                    q_layers.push(q);
                    let hm = ca::masked_embedding(g, &self.params, h, q, &self.ca.masks[l - 1]);
                    if h != h_next {
                        g.free(h);
                    }
                    hm
                }
                None => h_next,
            };
            h_layers.push(h_next);
            h_masked.push(hm);
            h_cur = h_next;
            src_for_mi = hm;
        }
        ForwardOut {
            h0,
            h_layers,
            h_masked,
            q_layers,
            transitions,
        }
    }

    /// Layer-`l` citation prediction (Eq. 6) for the first `n` rows of the
    /// masked embedding (the batch seeds are always the frontier prefix).
    pub fn predict_rows<F: ForwardCtx>(
        &self,
        g: &mut F,
        fw: &ForwardOut,
        l: usize,
        n: usize,
    ) -> Var {
        let mut rows = g.scratch_idx();
        rows.extend(0..n);
        let h = g.gather_rows(fw.h_masked[l - 1], rows);
        let w = g.param(&self.params, self.layers[l - 1].w_y);
        let b = g.param(&self.params, self.layers[l - 1].b_y);
        let out = g.linear(h, w, b);
        g.free(h);
        g.free(w);
        g.free(b);
        out
    }

    /// Draws the [`MiPlan`] of one step for `blocks` — exactly the RNG
    /// consumption [`CateHgn::hgn_loss`] performs, decoupled from the tape
    /// so a step can make all of its draws before its forward pass.
    pub fn plan_hgn<R: Rng>(&self, blocks: &[Block], rng: &mut R) -> MiPlan {
        plan_mi(blocks, self.cfg.ablation.mi, self.cfg.mi_max_edges, rng)
    }

    /// The HGN-phase loss `L_sup + lambda * L_unsup` (Eq. 2) for one batch.
    /// Returns `(total, sup_value, mi_value)`. Equivalent to
    /// [`CateHgn::plan_hgn`] + [`CateHgn::hgn_loss_planned`] — same RNG
    /// consumption, bitwise-identical tape.
    pub fn hgn_loss<R: Rng>(
        &self,
        g: &mut Graph,
        fw: &ForwardOut,
        blocks: &[Block],
        labels: &Tensor,
        rng: &mut R,
    ) -> (Var, f32, f32) {
        let plan = self.plan_hgn(blocks, rng);
        self.hgn_loss_planned(g, fw, blocks, labels, &plan)
    }

    /// [`CateHgn::hgn_loss`] with the stochastic choices supplied by a
    /// pre-drawn [`MiPlan`] — the training loop's entry point, since it
    /// draws each step's batch, blocks and plan before building the tape.
    pub fn hgn_loss_planned(
        &self,
        g: &mut Graph,
        fw: &ForwardOut,
        blocks: &[Block],
        labels: &Tensor,
        plan: &MiPlan,
    ) -> (Var, f32, f32) {
        let b = labels.rows();
        // Supervised loss over all layers (Eq. 6). The label column is
        // interned once and shared by every layer's MSE.
        let labels_id = g.constant_from(labels);
        // `ModelConfig` guarantees `layers >= 1`, so the sum seeds from
        // layer 1 and folds the rest — no Option accumulator, no panic
        // path.
        let pred1 = self.predict_rows(g, fw, 1, b);
        let first = g.mse_id(pred1, labels_id);
        let sup = (2..=self.cfg.layers).fold(first, |prev, l| {
            let pred = self.predict_rows(g, fw, l, b);
            let m = g.mse_id(pred, labels_id);
            g.add(prev, m)
        });
        let sup_value = g.value(sup).as_slice()[0];

        // Unsupervised MI loss over all layer transitions (Eq. 12), on the
        // masked embeddings (Algorithm 1, line 7).
        let mut mi_value = 0.0;
        let mut total = sup;
        if self.cfg.ablation.mi {
            debug_assert_eq!(
                plan.draws.len(),
                fw.transitions.len(),
                "plan/transition mismatch"
            );
            let mut mi_acc: Option<Var> = None;
            for ((l, &(block_idx, src)), draw) in fw.transitions.iter().enumerate().zip(&plan.draws)
            {
                let Some(draw) = draw else { continue };
                let m = mi_loss_planned(
                    g,
                    &self.params,
                    self.layers[l].w_d,
                    &blocks[block_idx],
                    src,
                    fw.h_masked[l],
                    draw,
                );
                mi_acc = Some(match mi_acc {
                    Some(prev) => g.add(prev, m),
                    None => m,
                });
            }
            if let Some(m) = mi_acc {
                mi_value = g.value(m).as_slice()[0];
                let weighted = g.scale(m, self.cfg.lambda_mi);
                total = g.add(total, weighted);
            }
        }
        (total, sup_value, mi_value)
    }

    /// The CA-phase loss (Eq. 22) for one batch forward pass that bound the
    /// centers as parameters.
    pub fn ca_loss(&self, g: &mut Graph, fw: &ForwardOut) -> Option<Var> {
        if !self.cfg.ablation.ca || fw.q_layers.is_empty() {
            return None;
        }
        let ab = self.cfg.ablation;
        let mut total: Option<Var> = None;
        let add = |g: &mut Graph, term: Var, weight: f32, acc: &mut Option<Var>| {
            let w = g.scale(term, weight);
            *acc = Some(match *acc {
                Some(prev) => g.add(prev, w),
                None => w,
            });
        };
        if ab.ca_self_training {
            for &q in &fw.q_layers {
                let p = ca::target_distribution(g.value(q));
                let pid = g.constant(p); // interned by move — no copy of P
                let st = ca::self_training_loss_id(g, q, pid);
                add(g, st, self.cfg.lambda_st, &mut total);
            }
        }
        if ab.ca_consistency {
            for l in 0..fw.q_layers.len().saturating_sub(1) {
                // q^(l+1) lives on a frontier that is a prefix of q^(l)'s.
                let q_next = fw.q_layers[l + 1];
                let n_next = g.shape(q_next).0;
                let rows: Vec<usize> = (0..n_next).collect();
                let q_l_common = g.gather_rows(fw.q_layers[l], rows);
                let con = ca::consistency_loss(g, q_l_common, q_next);
                add(g, con, self.cfg.lambda_con, &mut total);
            }
        }
        if ab.ca_disparity {
            for l in 0..self.cfg.layers {
                let centers = g.param(&self.params, self.ca.centers[l]);
                let dis = ca::disparity_loss(g, centers);
                add(g, dis, self.cfg.lambda_dis, &mut total);
            }
        }
        total
    }

    /// Batched inference: predicted citations per year for `seeds`, using
    /// the last layer's regressor (Eq. 6). Neighborhood sampling makes a
    /// single forward pass stochastic, so predictions are Monte-Carlo
    /// averaged over [`PREDICT_SAMPLES`] independently sampled
    /// neighborhoods (standard GraphSAGE-style inference smoothing).
    /// Deterministic in `seed`. Runs tape-free on a fresh [`InferCtx`];
    /// bitwise-identical to [`CateHgn::predict_taped`].
    pub fn predict(
        &self,
        graph: &HetGraph,
        features: &Tensor,
        seeds: &[NodeId],
        seed: u64,
    ) -> Vec<f32> {
        self.predict_in(&mut InferCtx::new(), graph, features, seeds, seed)
    }

    /// [`CateHgn::predict`] on a caller-provided (typically warm,
    /// persistent) inference context — the serving hot path: pooled buffers
    /// are reused across calls instead of reallocated.
    pub fn predict_in(
        &self,
        ctx: &mut InferCtx,
        graph: &HetGraph,
        features: &Tensor,
        seeds: &[NodeId],
        seed: u64,
    ) -> Vec<f32> {
        self.predict_with(ctx, graph, features, seeds, seed)
    }

    /// [`CateHgn::predict`] on the autodiff tape. This is the historical
    /// (pre-`InferCtx`) predict path, kept as the bitwise reference the
    /// `infer_serve` tests hold the tape-free path to, and the slow arm of
    /// `bench_gates`' no-tape serving gate.
    pub fn predict_taped(
        &self,
        graph: &HetGraph,
        features: &Tensor,
        seeds: &[NodeId],
        seed: u64,
    ) -> Vec<f32> {
        self.predict_with(&mut Graph::new(), graph, features, seeds, seed)
    }

    fn predict_with<F: ForwardCtx>(
        &self,
        g: &mut F,
        graph: &HetGraph,
        features: &Tensor,
        seeds: &[NodeId],
        seed: u64,
    ) -> Vec<f32> {
        const PREDICT_SAMPLES: u64 = 5;
        let batch = self.cfg.batch_size.max(1);
        let mut out = vec![0.0f32; seeds.len()];
        for s in 0..PREDICT_SAMPLES {
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(s.wrapping_mul(0x9E37)));
            for (chunk, out_chunk) in seeds.chunks(batch).zip(out.chunks_mut(batch)) {
                let blocks = self.sample_cached(graph, chunk, self.cfg.fanout * 2, &mut rng);
                let n = deduped_len(chunk, &blocks);
                g.reset();
                let fw = self.forward(g, graph, features, &blocks, Reads::Seeds(n));
                // Eq. 6 trains a regressor at every layer; averaging the
                // per-layer predictions is the natural deep-supervision
                // ensemble read-out.
                let mut preds = vec![0.0f32; n];
                for l in 1..=self.cfg.layers {
                    let pred = self.predict_rows(g, &fw, l, n);
                    for (o, &p) in preds.iter_mut().zip(g.value(pred).as_slice()) {
                        *o += p / self.cfg.layers as f32;
                    }
                }
                for (o, p) in out_chunk.iter_mut().zip(per_seed(chunk, preds)) {
                    *o += p / PREDICT_SAMPLES as f32;
                }
            }
        }
        out
    }

    /// Inference readout for case studies: per seed, the predicted impact
    /// `y_hat^(L)` and the hard cluster assignment `argmax_k q^(L)`.
    /// Without CA, the cluster is always 0. Runs tape-free; bitwise-
    /// identical to [`CateHgn::impact_and_cluster_taped`].
    pub fn impact_and_cluster(
        &self,
        graph: &HetGraph,
        features: &Tensor,
        seeds: &[NodeId],
        seed: u64,
    ) -> Vec<(f32, usize)> {
        self.impact_with(&mut InferCtx::new(), graph, features, seeds, seed)
    }

    /// [`CateHgn::impact_and_cluster`] on the autodiff tape — the bitwise
    /// reference for the tape-free path.
    pub fn impact_and_cluster_taped(
        &self,
        graph: &HetGraph,
        features: &Tensor,
        seeds: &[NodeId],
        seed: u64,
    ) -> Vec<(f32, usize)> {
        self.impact_with(&mut Graph::new(), graph, features, seeds, seed)
    }

    fn impact_with<F: ForwardCtx>(
        &self,
        g: &mut F,
        graph: &HetGraph,
        features: &Tensor,
        seeds: &[NodeId],
        seed: u64,
    ) -> Vec<(f32, usize)> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(seeds.len());
        for chunk in seeds.chunks(self.cfg.batch_size.max(1)) {
            let blocks = self.sample_cached(graph, chunk, self.cfg.fanout * 2, &mut rng);
            let n = deduped_len(chunk, &blocks);
            g.reset();
            let fw = self.forward(g, graph, features, &blocks, Reads::Seeds(n));
            let pred = self.predict_rows(g, &fw, self.cfg.layers, n);
            let preds = g.value(pred).as_slice().to_vec();
            let clusters: Vec<usize> = if let Some(&q) = fw.q_layers.last() {
                let qv = g.value(q);
                qv.argmax_rows().into_iter().take(n).collect()
            } else {
                vec![0; n]
            };
            out.extend(per_seed(chunk, preds.into_iter().zip(clusters).collect()));
        }
        out
    }

    /// Layer-wise embeddings of `seeds` (used for TE center initialisation
    /// and the serving embedding cache). Returns one `seeds.len() x d`
    /// tensor per layer `1..=L`. Runs tape-free; bitwise-identical to
    /// [`CateHgn::embed_taped`].
    pub fn embed(
        &self,
        graph: &HetGraph,
        features: &Tensor,
        seeds: &[NodeId],
        seed: u64,
    ) -> Vec<Tensor> {
        self.embed_in(&mut InferCtx::new(), graph, features, seeds, seed)
    }

    /// [`CateHgn::embed`] on a caller-provided persistent inference context.
    pub fn embed_in(
        &self,
        ctx: &mut InferCtx,
        graph: &HetGraph,
        features: &Tensor,
        seeds: &[NodeId],
        seed: u64,
    ) -> Vec<Tensor> {
        self.embed_with(ctx, graph, features, seeds, seed)
    }

    /// [`CateHgn::embed`] on the autodiff tape — the bitwise reference for
    /// the tape-free path.
    pub fn embed_taped(
        &self,
        graph: &HetGraph,
        features: &Tensor,
        seeds: &[NodeId],
        seed: u64,
    ) -> Vec<Tensor> {
        self.embed_with(&mut Graph::new(), graph, features, seeds, seed)
    }

    fn embed_with<F: ForwardCtx>(
        &self,
        g: &mut F,
        graph: &HetGraph,
        features: &Tensor,
        seeds: &[NodeId],
        seed: u64,
    ) -> Vec<Tensor> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut per_layer: Vec<Vec<f32>> = vec![Vec::new(); self.cfg.layers];
        for chunk in seeds.chunks(self.cfg.batch_size.max(1)) {
            let blocks = self.sample_cached(graph, chunk, self.cfg.fanout, &mut rng);
            // Duplicate seeds dedup in the sampler: resolve each requested
            // seed to its row in the deduped frontier prefix.
            let rows = per_seed(chunk, (0..deduped_len(chunk, &blocks)).collect());
            g.reset();
            let fw = self.forward(g, graph, features, &blocks, Reads::Embeddings);
            for (layer, &h) in per_layer.iter_mut().zip(&fw.h_layers) {
                let hv = g.value(h);
                for &r in &rows {
                    layer.extend_from_slice(hv.row(r));
                }
            }
        }
        per_layer
            .into_iter()
            .map(|data| Tensor::from_vec(seeds.len(), self.cfg.dim, data))
            .collect()
    }
}

/// Rows of the sampler's deduped seed prefix: the sampler keeps the first
/// occurrence of each seed, in request order, at the head of the frontier.
fn deduped_len(seeds: &[NodeId], blocks: &[Block]) -> usize {
    blocks.first().map_or(seeds.len(), |b| b.dst_nodes.len())
}

/// Expands one value per row of the deduped seed prefix back to one value
/// per requested seed. Distinct seeds pass through untouched.
fn per_seed<T: Copy>(seeds: &[NodeId], deduped: Vec<T>) -> Vec<T> {
    if deduped.len() == seeds.len() {
        return deduped;
    }
    let mut rows = deduped.into_iter();
    let mut first: BTreeMap<NodeId, T> = BTreeMap::new();
    seeds
        .iter()
        .filter_map(|&n| match first.entry(n) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(e) => rows.next().map(|v| *e.insert(v)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblp_sim::{Dataset, WorldConfig};
    use hetgraph::sample_blocks;

    fn tiny_model_and_data() -> (CateHgn, Dataset) {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let cfg = ModelConfig::test_tiny();
        let model = CateHgn::new(
            cfg,
            ds.features.cols(),
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        (model, ds)
    }

    #[test]
    fn forward_produces_all_layer_outputs() {
        let (model, ds) = tiny_model_and_data();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let seeds: Vec<NodeId> = ds.paper_nodes.iter().take(8).copied().collect();
        let blocks = sample_blocks(&ds.graph, &seeds, model.cfg.layers, 4, &mut rng);
        let mut g = Graph::new();
        let fw = model.forward(&mut g, &ds.graph, &ds.features, &blocks, Reads::HGN_STEP);
        assert_eq!(fw.h_layers.len(), model.cfg.layers);
        assert_eq!(fw.h_masked.len(), model.cfg.layers);
        assert_eq!(fw.q_layers.len(), model.cfg.layers); // CA on by default
                                                         // Final layer covers exactly the seeds.
        assert_eq!(g.shape(*fw.h_layers.last().unwrap()).0, seeds.len());
        for &h in &fw.h_layers {
            assert!(g.value(h).all_finite());
        }
        // Soft assignments are row-stochastic.
        for &q in &fw.q_layers {
            for r in g.value(q).rows_iter() {
                let s: f32 = r.iter().sum();
                assert!((s - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn hgn_loss_is_finite_and_backprops_everywhere() {
        let (model, ds) = tiny_model_and_data();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let idx: Vec<usize> = ds.split.train.iter().take(8).copied().collect();
        let seeds = ds.paper_nodes_of(&idx);
        let labels = Tensor::col_vec(ds.labels_of(&idx));
        let blocks = sample_blocks(&ds.graph, &seeds, model.cfg.layers, 4, &mut rng);
        let mut g = Graph::new();
        let fw = model.forward(&mut g, &ds.graph, &ds.features, &blocks, Reads::HGN_STEP);
        let (loss, sup, mi) = model.hgn_loss(&mut g, &fw, &blocks, &labels, &mut rng);
        assert!(g.value(loss).as_slice()[0].is_finite());
        assert!(sup > 0.0);
        assert!(mi.is_finite());
        g.backward(loss);
        let with_grad = g
            .bindings()
            .iter()
            .filter(|(_, v)| g.grad(*v).is_some())
            .count();
        assert!(with_grad > 10, "most bound params should receive gradients");
    }

    #[test]
    fn ca_loss_requires_ca_and_reaches_centers() {
        let (model, ds) = tiny_model_and_data();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let seeds: Vec<NodeId> = ds.paper_nodes.iter().take(6).copied().collect();
        let blocks = sample_blocks(&ds.graph, &seeds, model.cfg.layers, 4, &mut rng);
        let mut g = Graph::new();
        let fw = model.forward(&mut g, &ds.graph, &ds.features, &blocks, Reads::CA_STEP);
        let loss = model.ca_loss(&mut g, &fw).expect("CA enabled");
        g.backward(loss);
        let center_grads = g
            .bindings()
            .iter()
            .filter(|(pid, v)| model.ca.centers.contains(pid) && g.grad(*v).is_some())
            .count();
        assert!(
            center_grads >= model.cfg.layers,
            "all layer centers should get gradients"
        );
    }

    #[test]
    fn hgn_variant_skips_clustering() {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let mut cfg = ModelConfig::test_tiny();
        cfg.ablation = crate::config::Ablation::hgn_only();
        let model = CateHgn::new(
            cfg,
            ds.features.cols(),
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let seeds: Vec<NodeId> = ds.paper_nodes.iter().take(4).copied().collect();
        let blocks = sample_blocks(&ds.graph, &seeds, model.cfg.layers, 4, &mut rng);
        let mut g = Graph::new();
        let fw = model.forward(&mut g, &ds.graph, &ds.features, &blocks, Reads::HGN_STEP);
        assert!(fw.q_layers.is_empty());
        assert!(model.ca_loss(&mut g, &fw).is_none());
    }

    #[test]
    fn predict_covers_all_seeds_and_is_deterministic() {
        let (model, ds) = tiny_model_and_data();
        let seeds: Vec<NodeId> = ds.paper_nodes.iter().take(50).copied().collect();
        let p1 = model.predict(&ds.graph, &ds.features, &seeds, 9);
        let p2 = model.predict(&ds.graph, &ds.features, &seeds, 9);
        assert_eq!(p1.len(), 50);
        assert_eq!(p1, p2);
        assert!(p1.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn repeated_predict_hits_sampling_cache() {
        let (model, ds) = tiny_model_and_data();
        let seeds: Vec<NodeId> = ds.paper_nodes.iter().take(20).copied().collect();
        let p1 = model.predict(&ds.graph, &ds.features, &seeds, 9);
        let (h0, m0) = model.sampling_cache_stats();
        assert_eq!(h0, 0, "cold cache cannot hit");
        assert!(m0 > 0);
        let p2 = model.predict(&ds.graph, &ds.features, &seeds, 9);
        let (h1, m1) = model.sampling_cache_stats();
        assert_eq!(p1, p2, "replayed blocks must reproduce predictions exactly");
        assert_eq!(m1, m0, "warm replay resamples nothing");
        assert_eq!(h1, m0, "every sampling call replays from the cache");
    }

    #[test]
    fn impact_and_cluster_ranges() {
        let (model, ds) = tiny_model_and_data();
        let seeds: Vec<NodeId> = ds.author_nodes.iter().take(10).copied().collect();
        let out = model.impact_and_cluster(&ds.graph, &ds.features, &seeds, 4);
        assert_eq!(out.len(), 10);
        for (y, c) in out {
            assert!(y.is_finite());
            assert!(c < model.cfg.n_clusters);
        }
    }

    #[test]
    fn embed_returns_layerwise_tensors() {
        let (model, ds) = tiny_model_and_data();
        let seeds: Vec<NodeId> = ds.term_nodes.iter().take(12).copied().collect();
        let embs = model.embed(&ds.graph, &ds.features, &seeds, 5);
        assert_eq!(embs.len(), model.cfg.layers);
        for e in embs {
            assert_eq!(e.shape(), (12, model.cfg.dim));
            assert!(e.all_finite());
        }
    }

    #[test]
    fn parameter_count_is_graph_size_independent() {
        let cfg = ModelConfig::test_tiny();
        let m1 = CateHgn::new(cfg.clone(), 8, 4, 7);
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let m2 = CateHgn::new(cfg, 8, 4, 7);
        let _ = ds;
        assert_eq!(m1.num_weights(), m2.num_weights());
        assert!(m1.num_weights() > 0);
    }

    #[test]
    fn shared_transformation_keeps_per_link_type_cost_below_rgcn() {
        // The counterpart of R-GCN's per-relation claim
        // (`rgcn::tests::per_relation_weights_dominate_parameter_count`):
        // an eighth link type costs R-GCN one d x d matrix per layer, but
        // CATE-HGN only its link encoder (one d x d + bias, shared by all
        // layers) and `heads_node` attention vectors of 3d per layer.
        fn growth(cfg: &ModelConfig) -> usize {
            let weights =
                |n_link_types| CateHgn::new(cfg.clone(), 8, 4, n_link_types).num_weights();
            weights(8) - weights(7)
        }
        // d = 16 with two heads is the timing fixtures' model; d = 100 with
        // ten heads is the paper's.
        for (d, heads_node) in [(16, 2), (100, 10)] {
            let cfg = ModelConfig {
                dim: d,
                heads_node,
                ..ModelConfig::default()
            };
            let layers = cfg.layers;
            let per_layer = heads_node * 3 * d;
            assert_eq!(growth(&cfg), d * d + d + layers * per_layer);
            assert!(
                growth(&cfg) < layers * d * d,
                "d = {d}, heads = {heads_node}"
            );
            // Each extra layer adds a term linear in d per link type,
            // where R-GCN adds another d x d matrix.
            let deeper = ModelConfig {
                layers: layers + 1,
                ..cfg.clone()
            };
            assert_eq!(growth(&deeper) - growth(&cfg), per_layer);
        }
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;
    use crate::config::ModelConfig;
    use dblp_sim::{Dataset, WorldConfig};

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let (nnt, nlt) = (
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        let model = CateHgn::new(ModelConfig::test_tiny(), ds.features.cols(), nnt, nlt);
        let dir = std::env::temp_dir().join("catehgn_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save(&path).unwrap();
        let loaded = CateHgn::load(&path, ds.features.cols(), nnt, nlt).unwrap();
        let seeds: Vec<NodeId> = ds.paper_nodes.iter().take(10).copied().collect();
        assert_eq!(
            model.predict(&ds.graph, &ds.features, &seeds, 3),
            loaded.predict(&ds.graph, &ds.features, &seeds, 3)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saving_over_a_model_keeps_the_old_one_at_prev() {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let (feat, nnt, nlt) = (
            ds.features.cols(),
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        let old = CateHgn::new(ModelConfig::test_tiny(), feat, nnt, nlt);
        let mut cfg = ModelConfig::test_tiny();
        cfg.seed = 1;
        let new = CateHgn::new(cfg, feat, nnt, nlt);
        let dir = std::env::temp_dir().join("catehgn_persist_overwrite_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        old.save(&path).unwrap();
        let old_bytes = std::fs::read(&path).unwrap();
        new.save(&path).unwrap();
        assert_eq!(
            std::fs::read(dir.join("model.json.prev")).unwrap(),
            old_bytes
        );
        assert!(!dir.join("model.json.tmp").exists());
        assert_ne!(std::fs::read(&path).unwrap(), old_bytes);
        let loaded = CateHgn::load(&path, feat, nnt, nlt).unwrap();
        let seeds: Vec<NodeId> = ds.paper_nodes.iter().take(10).copied().collect();
        let bits = |m: &CateHgn| -> Vec<u32> {
            let p = m.predict(&ds.graph, &ds.features, &seeds, 3);
            p.iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&loaded), bits(&new));
        std::fs::remove_dir_all(&dir).ok();
    }
}
