//! Serving subsystem: precomputed embedding cache and batched top-K
//! citation recommendation over a trained (frozen) CATE-HGN.
//!
//! The engine answers two query shapes the ROADMAP's serving north-star
//! needs:
//!
//! * **Transductive** — rank candidate papers for a node already in the
//!   graph, by brute-force dot-product scan over cached last-layer
//!   embeddings (the citation-GNN recommender pattern: embed once, score
//!   many).
//! * **Inductive cold-start** — a paper not in the graph is embedded
//!   through the frozen per-type feature encoder (`relu(x W_phi + b)`)
//!   and scored against the cached candidates without retraining or
//!   re-indexing.
//!
//! All forward passes run tape-free on one persistent [`InferCtx`], so
//! steady-state queries touch pooled buffers only. The cache is keyed by
//! the graph's sampling stamp with a content-fingerprint fallback
//! (a content-equal reload of the same graph keeps the cache warm), plus
//! the features' content stamp with a content-key fallback, and the
//! candidate list; any mismatch rebuilds before the query is answered — a
//! stale cache is never served. The feature key comes out of the same
//! single pass that checks the features are finite, and runs only when
//! the features' stamp differs from the cached one.
//!
//! ## Failure behaviour (PR 9)
//!
//! Every query API is fallible: malformed request data (a query outside
//! the candidate set, non-finite features, a shape mismatch) comes back as
//! a typed [`ServeError`], never a panic. The engine can also *own* its
//! serving data ([`ServeEngine::install_resident`]): a shard reload that
//! fails mid-way ([`ServeEngine::reload_resident`]) keeps the last-good
//! graph resident and the embedding cache warm, flips the engine into
//! degraded mode, and surfaces the failure in [`ServeStats`] — stale but
//! internally consistent answers, clearly flagged, instead of an outage.

use crate::model::CateHgn;
use hetgraph::{HetGraph, NodeId, NodeTypeId, ShardError, ShardStore};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use tensor::{InferCtx, Tensor};

/// One ranked candidate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    pub node: NodeId,
    pub score: f32,
}

/// The first id in `nodes` that is `>= n`. A warm request pays only a
/// branch-free max over the ids; the search that names the first
/// offender runs once that max is out of range.
fn first_out_of_range(nodes: &[NodeId], n: usize) -> Option<NodeId> {
    let max = nodes.iter().fold(0, |m, v| m.max(v.0));
    if (max as usize) < n {
        return None;
    }
    nodes.iter().copied().find(|v| v.index() >= n)
}

/// `a == b` for id lists, as one xor-or fold with no early exit, so a
/// cache-hit check over many candidates runs at vector speed.
fn same_ids(a: &[NodeId], b: &[NodeId]) -> bool {
    a.len() == b.len() && a.iter().zip(b).fold(0, |acc, (x, y)| acc | (x.0 ^ y.0)) == 0
}

/// Deterministic total order for ranked candidates: descending score under
/// [`f32::total_cmp`], ascending node id as the tiebreak. Equal or NaN
/// scores can never reorder output across runs or thread counts.
pub fn rank_desc(a: &Recommendation, b: &Recommendation) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then(a.node.0.cmp(&b.node.0))
}

/// A request or reload failure surfaced to the caller instead of a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// A node id in the request does not belong where the request claims
    /// (`what` is "query", "candidate", or "seed").
    UnknownNode { node: NodeId, what: &'static str },
    /// The feature matrix (or cold-start row) contains NaN/Inf at `row`.
    NonFiniteFeatures { row: usize },
    /// A dimension in the request disagrees with the model or graph.
    ShapeMismatch {
        what: &'static str,
        got: usize,
        want: usize,
    },
    /// A resident-data API was called before [`ServeEngine::install_resident`].
    NoResidentGraph,
    /// A shard reload failed; the engine keeps serving the previous graph
    /// in degraded mode.
    Reload(ShardError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownNode { node, what } => {
                write!(f, "unknown {what} node id {}", node.0)
            }
            ServeError::NonFiniteFeatures { row } => {
                write!(f, "non-finite feature value in row {row}")
            }
            ServeError::ShapeMismatch { what, got, want } => {
                write!(f, "shape mismatch: {what} is {got}, expected {want}")
            }
            ServeError::NoResidentGraph => {
                write!(
                    f,
                    "no resident graph installed; call install_resident first"
                )
            }
            ServeError::Reload(e) => write!(f, "shard reload failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ShardError> for ServeError {
    fn from(e: ShardError) -> Self {
        ServeError::Reload(e)
    }
}

/// Counters describing engine behaviour since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Embedding-cache rebuilds (cold start, graph/feature/candidate
    /// change).
    pub cache_rebuilds: u64,
    /// Queries answered from a valid cache without recomputation.
    pub cache_hits: u64,
    /// Total recommendation queries answered.
    pub queries: u64,
    /// Typed errors returned to callers.
    pub errors: u64,
    /// Resident-graph reloads that failed (engine went/stayed degraded).
    pub reload_failures: u64,
    /// Queries answered while the engine was in degraded mode.
    pub degraded_queries: u64,
}

/// Cached last-layer embeddings for a fixed candidate set, tagged with
/// everything that must match for them to still be valid.
struct EmbeddingCache {
    /// Process-unique stamp of the graph the cache was built from; the
    /// cheap validity check.
    stamp: u64,
    /// Content fingerprint fallback: a different stamp with equal content
    /// (e.g. a reloaded graph) revalidates instead of rebuilding.
    content_fp: u64,
    /// Content key of the raw feature bits from [`feature_key`], computed
    /// by the validating pass.
    feat_fp: u64,
    /// [`Tensor::content_stamp`] of the last features that matched
    /// `feat_fp`: features still carrying it match without a key pass.
    feat_stamp: u64,
    /// Candidate papers, in caller order (defines embedding columns).
    candidates: Vec<NodeId>,
    /// Last-layer embeddings of `candidates`, transposed, in blocks of at
    /// most [`SCORE_BLOCK`] columns: block `b` is `d x len` and holds
    /// candidates `b * SCORE_BLOCK ..`, one column each, so scoring a
    /// block is a plain `Q x d · d x len` product.
    emb: Vec<Tensor>,
    /// Scores of the current queries against one block, reused by every
    /// block and every ranking, so a warm query allocates only its answer.
    scores: Tensor,
}

impl EmbeddingCache {
    /// A cache of `emb`, the `candidates.len() x d` last-layer embeddings
    /// of `candidates`, split into transposed blocks.
    fn new(
        stamp: u64,
        content_fp: u64,
        feat: FeatureKey,
        candidates: &[NodeId],
        emb: Tensor,
    ) -> Self {
        let n = candidates.len();
        let emb = (0..n)
            .step_by(SCORE_BLOCK)
            .map(|lo| {
                let rows: Vec<usize> = (lo..n.min(lo + SCORE_BLOCK)).collect();
                emb.gather_rows(&rows).transpose()
            })
            .collect();
        EmbeddingCache {
            stamp,
            content_fp,
            feat_fp: feat.key,
            feat_stamp: feat.stamp,
            candidates: candidates.to_vec(),
            emb,
            scores: Tensor::zeros(0, 0),
        }
    }

    /// The cached embeddings of candidates `rows`, one row each: candidate
    /// `row` is column `row % SCORE_BLOCK` of its block, read top to bottom.
    fn gather(&self, rows: &[usize]) -> Tensor {
        let d = self.emb.first().map_or(0, Tensor::rows);
        let mut data = Vec::with_capacity(rows.len() * d);
        for &row in rows {
            let (block, col) = (self.emb.get(row / SCORE_BLOCK), row % SCORE_BLOCK);
            let column = block.into_iter().flat_map(Tensor::rows_iter);
            data.extend(column.filter_map(|r| r.get(col).copied()));
        }
        Tensor::from_vec(rows.len(), d, data)
    }

    /// The top-`k` candidates of each row of `queries * emb^T`, row `r`
    /// excluding the `r`-th node of `excludes`. Scores are computed one
    /// block of candidates at a time and streamed into one [`TopK`] per
    /// query, so the working set is one block of embeddings and scores
    /// instead of a full `queries x candidates` matrix. Each score is
    /// `+0.0 + Σ_p q[p]·e[p]` in ascending p, as `matmul_tb` sums it, so
    /// the transposed layout changes no bit.
    fn rank(
        &mut self,
        queries: &Tensor,
        excludes: impl IntoIterator<Item = Option<NodeId>>,
        k: usize,
    ) -> Vec<Vec<Recommendation>> {
        let k = k.min(self.candidates.len());
        let mut tops: Vec<TopK> = excludes
            .into_iter()
            .map(|exclude| TopK::new(k, exclude))
            .collect();
        for (block, nodes) in self.emb.iter().zip(self.candidates.chunks(SCORE_BLOCK)) {
            let (rows, cols) = (queries.rows(), block.cols());
            if self.scores.shape() != (rows, cols) {
                let mut buf = std::mem::replace(&mut self.scores, Tensor::zeros(0, 0)).into_vec();
                buf.resize(rows * cols, 0.0);
                self.scores = Tensor::from_vec(rows, cols, buf);
            }
            queries.matmul_into(block, &mut self.scores);
            for (top, scores) in tops.iter_mut().zip(self.scores.rows_iter()) {
                top.offer(scores, nodes);
            }
        }
        tops.into_iter().map(TopK::into_ranking).collect()
    }
}

/// Engine-owned serving data for the degraded-mode reload path.
struct Resident {
    graph: HetGraph,
    features: Tensor,
}

/// A serving engine borrowing a frozen model. The shared borrow guarantees
/// the parameters cannot change for the engine's lifetime, so cached
/// embeddings can only be invalidated by graph or feature churn.
pub struct ServeEngine<'m> {
    model: &'m CateHgn,
    ctx: InferCtx,
    cache: Option<EmbeddingCache>,
    /// Sampling seed used for every cache rebuild; fixed per engine so a
    /// rebuild of unchanged data is bitwise-reproducible.
    seed: u64,
    stats: ServeStats,
    resident: Option<Resident>,
    degraded: bool,
}

impl<'m> ServeEngine<'m> {
    pub fn new(model: &'m CateHgn, seed: u64) -> Self {
        ServeEngine {
            model,
            ctx: InferCtx::new(),
            cache: None,
            seed,
            stats: ServeStats::default(),
            resident: None,
            degraded: false,
        }
    }

    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Whether the engine is serving the last-good graph after a failed
    /// reload.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Counts a typed error where it is raised and returns it.
    fn fail<T>(&mut self, e: ServeError) -> Result<T, ServeError> {
        self.stats.errors += 1;
        Err(e)
    }

    /// The one request validator: the model must have a layer to read
    /// embeddings from, the feature matrix must have a row per graph node
    /// and the encoder's input width and be finite, and every id in
    /// `nodes` must be a node of the graph. Returns the features' content
    /// key. Features carrying the cache's stamp are the features the
    /// cache validated, so they take its key unread; any others take one
    /// [`feature_key`] pass, which checks finiteness and computes the key.
    fn validate(
        &mut self,
        graph: &HetGraph,
        features: &Tensor,
        nodes: &[NodeId],
        what: &'static str,
    ) -> Result<FeatureKey, ServeError> {
        let n = graph.num_nodes();
        let (rows, cols) = features.shape();
        let width = self
            .model
            .enc
            .node_w
            .first()
            .map_or(cols, |&w| self.model.params.value(w).shape().0);
        let err = if self.model.cfg.layers == 0 {
            NO_LAYERS
        } else if rows != n {
            ServeError::ShapeMismatch {
                what: "feature rows",
                got: rows,
                want: n,
            }
        } else if cols != width {
            ServeError::ShapeMismatch {
                what: "feature width",
                got: cols,
                want: width,
            }
        } else if let Some(node) = first_out_of_range(nodes, n) {
            ServeError::UnknownNode { node, what }
        } else {
            let stamp = features.content_stamp();
            let key = match self.cache.as_ref().filter(|c| c.feat_stamp == stamp) {
                Some(cache) => Ok(cache.feat_fp),
                None => feature_key(features.as_slice()),
            };
            match key {
                Ok(key) => return Ok(FeatureKey { key, stamp }),
                Err(pos) => ServeError::NonFiniteFeatures {
                    row: pos / cols.max(1),
                },
            }
        };
        self.fail(err)
    }

    /// Batched impact prediction through the tape-free context — the
    /// serving replacement for calling [`CateHgn::predict_taped`] once per
    /// incoming query. Bitwise-identical to the tape path on the same
    /// batch. Request data is validated; malformed input is a typed error.
    pub fn predict(
        &mut self,
        graph: &HetGraph,
        features: &Tensor,
        seeds: &[NodeId],
    ) -> Result<Vec<f32>, ServeError> {
        self.validate(graph, features, seeds, "seed")?;
        Ok(self
            .model
            .predict_in(&mut self.ctx, graph, features, seeds, self.seed))
    }

    /// The embedding cache for `(graph, features, candidates)`, rebuilt if
    /// any of the three changed, and whether it was valid (hit).
    fn cache_for(
        &mut self,
        graph: &HetGraph,
        features: &Tensor,
        candidates: &[NodeId],
    ) -> Result<(&mut EmbeddingCache, bool), ServeError> {
        let feat = self.validate(graph, features, candidates, "candidate")?;
        // Hashed at most once per call: by the guard when the stamp moved,
        // reused by the rebuild that follows a real mutation.
        let content_fp = std::cell::OnceCell::new();
        let content_fp = || *content_fp.get_or_init(|| graph.content_fingerprint());
        let (cache, hit) = match self.cache.take() {
            // A changed stamp falls back to content equality: a reload of
            // identical data keeps the cache, a real mutation does not.
            // Features that matched by key lend the cache their stamp, so
            // the next request with them skips the key pass.
            Some(mut c)
                if same_ids(&c.candidates, candidates)
                    && c.feat_fp == feat.key
                    && (c.stamp == graph.sampling_stamp() || c.content_fp == content_fp()) =>
            {
                c.feat_stamp = feat.stamp;
                (c, true)
            }
            _ => {
                let embs =
                    self.model
                        .embed_in(&mut self.ctx, graph, features, candidates, self.seed);
                let Some(emb) = embs.into_iter().next_back() else {
                    return self.fail(NO_LAYERS);
                };
                self.stats.cache_rebuilds += 1;
                let cache = EmbeddingCache::new(
                    graph.sampling_stamp(),
                    content_fp(),
                    feat,
                    candidates,
                    emb,
                );
                (cache, false)
            }
        };
        Ok((self.cache.insert(cache), hit))
    }

    /// Ensures the embedding cache matches `(graph, features, candidates)`,
    /// rebuilding if any of the three changed. Returns whether the cache
    /// was valid (hit).
    pub fn ensure_cache(
        &mut self,
        graph: &HetGraph,
        features: &Tensor,
        candidates: &[NodeId],
    ) -> Result<bool, ServeError> {
        Ok(self.cache_for(graph, features, candidates)?.1)
    }

    /// Top-`k` candidates for each query node already present in the
    /// candidate set (transductive). Scores are dot products between
    /// cached last-layer embeddings, computed as a batched
    /// `Q x d * (n x d)^T` product through the worker pool, one block of
    /// candidates at a time; each query's own row is excluded from its
    /// ranking. A query outside the candidate set or malformed features
    /// is a typed error — nothing panics on request data.
    pub fn recommend_batch(
        &mut self,
        graph: &HetGraph,
        features: &Tensor,
        candidates: &[NodeId],
        queries: &[NodeId],
        k: usize,
    ) -> Result<Vec<Vec<Recommendation>>, ServeError> {
        // Resolve every query's row before touching the cache, so a bad
        // batch has no side effects.
        let rows: Result<Vec<usize>, ServeError> = queries
            .iter()
            .map(|&node| {
                candidates
                    .iter()
                    .position(|&c| c == node)
                    .ok_or(ServeError::UnknownNode {
                        node,
                        what: "query",
                    })
            })
            .collect();
        let rows = match rows {
            Ok(rows) => rows,
            Err(e) => return self.fail(e),
        };
        let (cache, hit) = self.cache_for(graph, features, candidates)?;
        let qm = cache.gather(&rows);
        let rankings = cache.rank(&qm, queries.iter().copied().map(Some), k);
        self.stats.queries += queries.len() as u64;
        self.stats.cache_hits += if hit { queries.len() as u64 } else { 0 };
        Ok(rankings)
    }

    /// Top-`k` candidates for one in-graph query node.
    pub fn recommend(
        &mut self,
        graph: &HetGraph,
        features: &Tensor,
        candidates: &[NodeId],
        query: NodeId,
        k: usize,
    ) -> Result<Vec<Recommendation>, ServeError> {
        let mut rankings = self.recommend_batch(graph, features, candidates, &[query], k)?;
        Ok(rankings.pop().unwrap_or_default())
    }

    /// Inductive cold-start: a paper not yet in the graph, described only
    /// by its raw feature row and node type, is embedded through the
    /// frozen per-type encoder (`relu(x W_phi + b)`, the layer-0 path) and
    /// ranked against the cached candidate embeddings. No retraining, no
    /// cache rebuild. A feature row of the wrong width or with non-finite
    /// values is a typed error.
    pub fn cold_start(
        &mut self,
        graph: &HetGraph,
        features: &Tensor,
        candidates: &[NodeId],
        node_type: NodeTypeId,
        feat_row: &[f32],
        k: usize,
    ) -> Result<Vec<Recommendation>, ServeError> {
        let model = self.model;
        let t = node_type.0 as usize;
        let (Some(&w), Some(&b)) = (model.enc.node_w.get(t), model.enc.node_b.get(t)) else {
            return self.fail(ServeError::ShapeMismatch {
                what: "cold-start node type id",
                got: t,
                want: model.enc.node_w.len(),
            });
        };
        let (w, b) = (model.params.value(w), model.params.value(b));
        if feat_row.len() != w.shape().0 {
            return self.fail(ServeError::ShapeMismatch {
                what: "cold-start feature width",
                got: feat_row.len(),
                want: w.shape().0,
            });
        }
        if feat_row.iter().any(|v| !v.is_finite()) {
            return self.fail(ServeError::NonFiniteFeatures { row: 0 });
        }
        let (cache, hit) = self.cache_for(graph, features, candidates)?;
        let x = Tensor::from_vec(1, feat_row.len(), feat_row.to_vec());
        let mut h0 = x.matmul(w);
        for (v, &bv) in h0.as_mut_slice().iter_mut().zip(b.as_slice()) {
            *v = (*v + bv).max(0.0);
        }
        let ranking = cache.rank(&h0, [None], k).pop().unwrap_or_default();
        self.stats.queries += 1;
        self.stats.cache_hits += u64::from(hit);
        Ok(ranking)
    }

    // ----- resident data & degraded-mode reload ------------------------

    /// Installs engine-owned serving data (graph + features), validated
    /// like any request. [`ServeEngine::recommend_batch_resident`] and
    /// [`ServeEngine::reload_resident`] operate on this copy, so a failed
    /// reload can keep the last-good generation.
    pub fn install_resident(
        &mut self,
        graph: HetGraph,
        features: Tensor,
    ) -> Result<(), ServeError> {
        self.validate(&graph, &features, &[], "node")?;
        self.resident = Some(Resident { graph, features });
        self.degraded = false;
        Ok(())
    }

    /// Replaces the resident graph from a shard store. On any failure —
    /// storage corruption or a shape that disagrees with the resident
    /// features — the last-good graph stays installed, the embedding cache
    /// stays warm, the engine flips to degraded mode, and the typed error
    /// is returned; answers keep flowing, flagged via
    /// [`ServeStats::degraded_queries`]. A successful reload clears the
    /// degraded flag.
    pub fn reload_resident(&mut self, store: &ShardStore) -> Result<(), ServeError> {
        let Some(mut res) = self.resident.take() else {
            return self.fail(ServeError::NoResidentGraph);
        };
        let want = res.features.shape().0;
        let loaded = match store.load_graph() {
            Ok(g) if g.num_nodes() != want => Err(ServeError::ShapeMismatch {
                what: "reloaded graph nodes",
                got: g.num_nodes(),
                want,
            }),
            other => other.map_err(ServeError::Reload),
        };
        let out = match loaded {
            Ok(graph) => {
                res.graph = graph;
                self.degraded = false;
                Ok(())
            }
            Err(e) => {
                self.stats.reload_failures += 1;
                self.degraded = true;
                self.fail(e)
            }
        };
        self.resident = Some(res);
        out
    }

    /// [`ServeEngine::recommend_batch`] against the resident data. Answers
    /// served while degraded are counted in
    /// [`ServeStats::degraded_queries`].
    pub fn recommend_batch_resident(
        &mut self,
        candidates: &[NodeId],
        queries: &[NodeId],
        k: usize,
    ) -> Result<Vec<Vec<Recommendation>>, ServeError> {
        let Some(res) = self.resident.take() else {
            return self.fail(ServeError::NoResidentGraph);
        };
        let out = self.recommend_batch(&res.graph, &res.features, candidates, queries, k);
        self.resident = Some(res);
        if out.is_ok() && self.degraded {
            self.stats.degraded_queries += queries.len() as u64;
        }
        out
    }
}

/// What [`ServeEngine::validate`] learned about a feature matrix: its
/// content key and the content stamp it carried.
#[derive(Clone, Copy)]
struct FeatureKey {
    key: u64,
    stamp: u64,
}

/// The typed error for a model with no layer, whose last-layer embeddings
/// do not exist.
const NO_LAYERS: ServeError = ServeError::ShapeMismatch {
    what: "model layers",
    got: 0,
    want: 1,
};

/// Exponent mask of an `f32`: all ones iff the value is NaN or ±Inf (the
/// test `tensor::finite` uses).
const EXP_MASK: u32 = 0x7f80_0000;

/// Values per block of [`feature_key`]: eight 64-bit lanes of two values.
const KEY_BLOCK: usize = 16;

/// Odd, so multiplying by it is invertible modulo 2^64.
const KEY_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of [`feature_key`]. The xor, the odd multiply and the rotate
/// are each a bijection, both of `h` for a fixed `word` and of `word` for
/// a fixed `h`, so changing any one input word always changes the result.
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(KEY_MUL).rotate_left(23)
}

/// One pass over the bit patterns of `xs`: the index of the first
/// non-finite value, or a 64-bit content key of every bit.
///
/// Pairs of values form 8-byte words folded into eight independent
/// [`mix`] lanes, so the multiplies overlap instead of forming one
/// dependency chain per byte as in `resilience::fnv1a_f32`; the lanes and
/// the tail then fold into one key. Every step is a bijection, so two
/// slices of one length that differ in a single value (`0.0` against
/// `-0.0` included) always get different keys. The key is an in-memory
/// cache tag only; persisted fingerprints stay `fnv1a_f32`.
fn feature_key(xs: &[f32]) -> Result<u64, usize> {
    #[cfg(test)]
    KEY_PASSES.with(|c| c.set(c.get() + 1));
    let mut lanes = [0u64; KEY_BLOCK / 2];
    let mut blocks = xs.chunks_exact(KEY_BLOCK);
    let mut offset = 0;
    for block in blocks.by_ref() {
        let mut bad = false;
        for (lane, pair) in lanes.iter_mut().zip(block.chunks_exact(2)) {
            // First value in the low half: the word is one little-endian
            // 8-byte load, about twice as fast as the other order.
            let word = pair.iter().rev().fold(0u64, |w, x| {
                let bits = x.to_bits();
                bad |= bits & EXP_MASK == EXP_MASK;
                w << 32 | u64::from(bits)
            });
            *lane = mix(*lane, word);
        }
        if bad {
            return Err(offset + block.iter().take_while(|x| x.is_finite()).count());
        }
        offset += KEY_BLOCK;
    }
    let tail = blocks.remainder();
    if let Some(i) = tail.iter().position(|x| !x.is_finite()) {
        return Err(offset + i);
    }
    let h = lanes.into_iter().fold(xs.len() as u64, mix);
    Ok(tail.iter().fold(h, |h, x| mix(h, u64::from(x.to_bits()))))
}

#[cfg(test)]
thread_local! {
    /// [`feature_key`] passes made on this thread, so a test can check
    /// which requests read the features.
    static KEY_PASSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Candidates per block of [`EmbeddingCache::rank`]: a 64-query batch's
/// scores for one block (512 KiB) and the block's `d = 32` embeddings
/// (256 KiB) stay in a core's L2 cache.
const SCORE_BLOCK: usize = 2048;

/// `f32::total_cmp` as an integer: `a.total_cmp(&b)` equals
/// `order_key(a).cmp(&order_key(b))` (the same bit flip `total_cmp` does).
fn order_key(x: f32) -> i32 {
    let bits = x.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// A [`Recommendation`] ordered by [`rank_desc`], so the top of a max-heap
/// of them is the worst one kept.
#[derive(Clone, Copy, Debug)]
struct Ranked(Recommendation);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_desc(&self.0, &other.0)
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ranked {}

/// The `k` best candidates offered so far for one query under
/// [`rank_desc`], optionally excluding the query's own node: a bounded
/// max-heap whose top is the worst kept candidate. Once it holds `k`, a
/// candidate whose score is below the worst kept score is rejected by one
/// integer compare, so a block of scores is one read-only scan.
/// [`rank_desc`] is a total order under which only bit-identical entries
/// tie, so the ranking is exactly the first `k` of a full sort.
struct TopK {
    k: usize,
    exclude: Option<NodeId>,
    heap: BinaryHeap<Ranked>,
    /// [`order_key`] of the worst kept score once `k` are kept, else
    /// `i32::MIN`: no candidate scoring below it can enter.
    floor: i32,
}

impl TopK {
    fn new(k: usize, exclude: Option<NodeId>) -> Self {
        TopK {
            k,
            exclude,
            heap: BinaryHeap::with_capacity(k),
            floor: i32::MIN,
        }
    }

    /// Offers `scores[i]` for `nodes[i]`, in order.
    fn offer(&mut self, scores: &[f32], nodes: &[NodeId]) {
        for (&score, &node) in scores.iter().zip(nodes) {
            if order_key(score) < self.floor || Some(node) == self.exclude {
                continue;
            }
            let rec = Ranked(Recommendation { node, score });
            if self.heap.len() < self.k {
                self.heap.push(rec);
            } else if let Some(mut worst) = self.heap.peek_mut() {
                if rec < *worst {
                    *worst = rec;
                }
            }
            if self.heap.len() == self.k {
                self.floor = self.heap.peek().map_or(i32::MIN, |w| order_key(w.0.score));
            }
        }
    }

    /// The kept candidates, best first.
    fn into_ranking(self) -> Vec<Recommendation> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|r| r.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use dblp_sim::{Dataset, WorldConfig};

    fn setup() -> (CateHgn, Dataset) {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let model = CateHgn::new(
            ModelConfig::test_tiny(),
            ds.features.cols(),
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        (model, ds)
    }

    #[test]
    fn recommend_is_deterministic_and_excludes_self() {
        let (model, ds) = setup();
        let candidates: Vec<NodeId> = ds.paper_nodes.iter().take(20).copied().collect();
        let mut eng = ServeEngine::new(&model, 11);
        let r1 = eng
            .recommend(&ds.graph, &ds.features, &candidates, candidates[0], 5)
            .unwrap();
        let r2 = eng
            .recommend(&ds.graph, &ds.features, &candidates, candidates[0], 5)
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 5);
        assert!(
            r1.iter().all(|r| r.node != candidates[0]),
            "self must be excluded"
        );
        // Ranking is non-increasing under the total order.
        for w in r1.windows(2) {
            assert_ne!(rank_desc(&w[0], &w[1]), std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn cache_hits_and_rebuilds_are_counted() {
        let (model, ds) = setup();
        let candidates: Vec<NodeId> = ds.paper_nodes.iter().take(12).copied().collect();
        let mut eng = ServeEngine::new(&model, 3);
        let _ = eng
            .recommend(&ds.graph, &ds.features, &candidates, candidates[1], 3)
            .unwrap();
        assert_eq!(
            eng.stats(),
            ServeStats {
                cache_rebuilds: 1,
                cache_hits: 0,
                queries: 1,
                ..Default::default()
            }
        );
        let _ = eng
            .recommend(&ds.graph, &ds.features, &candidates, candidates[2], 3)
            .unwrap();
        assert_eq!(
            eng.stats(),
            ServeStats {
                cache_rebuilds: 1,
                cache_hits: 1,
                queries: 2,
                ..Default::default()
            }
        );
        // Different candidate set: rebuild.
        let fewer: Vec<NodeId> = candidates.iter().take(8).copied().collect();
        let _ = eng
            .recommend(&ds.graph, &ds.features, &fewer, fewer[0], 3)
            .unwrap();
        assert_eq!(eng.stats().cache_rebuilds, 2);
    }

    #[test]
    fn cold_start_ranks_against_cached_candidates() {
        let (model, ds) = setup();
        let candidates: Vec<NodeId> = ds.paper_nodes.iter().take(15).copied().collect();
        let paper_type = ds.graph.node_type(candidates[0]);
        let mut eng = ServeEngine::new(&model, 5);
        let feat_row = ds.features.row(candidates[0].index()).to_vec();
        let recs = eng
            .cold_start(
                &ds.graph,
                &ds.features,
                &candidates,
                paper_type,
                &feat_row,
                4,
            )
            .unwrap();
        assert_eq!(recs.len(), 4);
        assert!(recs.iter().all(|r| candidates.contains(&r.node)));
        assert!(recs.iter().all(|r| r.score.is_finite()));
        // Inductive queries never rebuild a valid cache.
        let s = eng.stats();
        assert_eq!(s.cache_rebuilds, 1);
        let _ = eng
            .cold_start(
                &ds.graph,
                &ds.features,
                &candidates,
                paper_type,
                &feat_row,
                4,
            )
            .unwrap();
        assert_eq!(eng.stats().cache_rebuilds, 1);
    }

    #[test]
    fn malformed_requests_are_typed_errors_not_panics() {
        let (model, ds) = setup();
        let candidates: Vec<NodeId> = ds.paper_nodes.iter().take(10).copied().collect();
        let mut eng = ServeEngine::new(&model, 9);
        // Query outside the candidate set.
        let outsider = ds.paper_nodes[30];
        match eng.recommend(&ds.graph, &ds.features, &candidates, outsider, 3) {
            Err(ServeError::UnknownNode { node, what }) => {
                assert_eq!(node, outsider);
                assert_eq!(what, "query");
            }
            other => panic!("expected UnknownNode, got {other:?}"),
        }
        // Non-finite features.
        let mut bad = ds.features.clone();
        bad.as_mut_slice()[7] = f32::NAN;
        match eng.recommend(&ds.graph, &bad, &candidates, candidates[0], 3) {
            Err(ServeError::NonFiniteFeatures { row: 0 }) => {}
            other => panic!("expected NonFiniteFeatures, got {other:?}"),
        }
        // Feature matrix for the wrong graph size.
        let short = Tensor::zeros(3, ds.features.cols());
        match eng.recommend(&ds.graph, &short, &candidates, candidates[0], 3) {
            Err(ServeError::ShapeMismatch { what, .. }) => assert_eq!(what, "feature rows"),
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        // Cold-start row of the wrong width.
        let paper_type = ds.graph.node_type(candidates[0]);
        match eng.cold_start(&ds.graph, &ds.features, &candidates, paper_type, &[1.0], 3) {
            Err(ServeError::ShapeMismatch { what, .. }) => {
                assert_eq!(what, "cold-start feature width");
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        assert_eq!(eng.stats().errors, 4);
        assert_eq!(eng.stats().queries, 0, "failed requests answer nothing");
        // A feature matrix with a row per node but the wrong width is a
        // typed error at every entry point, never a matmul panic.
        fn width<T: std::fmt::Debug>(r: Result<T, ServeError>) {
            match r {
                Err(ServeError::ShapeMismatch { what, .. }) => assert_eq!(what, "feature width"),
                other => panic!("expected feature-width ShapeMismatch, got {other:?}"),
            }
        }
        let n = ds.graph.num_nodes();
        let row = ds.features.row(candidates[0].index()).to_vec();
        let pair = &candidates[..2];
        for bad in [
            Tensor::zeros(n, ds.features.cols() + 3),
            Tensor::zeros(n, 0),
        ] {
            let before = eng.stats().errors;
            width(eng.predict(&ds.graph, &bad, &candidates));
            width(eng.ensure_cache(&ds.graph, &bad, &candidates));
            width(eng.recommend(&ds.graph, &bad, &candidates, candidates[0], 3));
            width(eng.recommend_batch(&ds.graph, &bad, &candidates, pair, 3));
            width(eng.cold_start(&ds.graph, &bad, &candidates, paper_type, &row, 3));
            width(eng.install_resident(ds.graph.clone(), bad));
            assert_eq!(
                eng.recommend_batch_resident(&candidates, pair, 3),
                Err(ServeError::NoResidentGraph),
                "rejected data is never installed"
            );
            assert_eq!(eng.stats().errors, before + 7, "one error per failed call");
        }
        // A failed `ensure_cache` counts one error, and a failed batch or
        // cold start counts one, not one more for its cache check.
        let short = Tensor::zeros(3, ds.features.cols());
        let before = eng.stats().errors;
        assert!(eng.ensure_cache(&ds.graph, &short, &candidates).is_err());
        assert_eq!(eng.stats().errors, before + 1);
        assert!(eng
            .recommend_batch(&ds.graph, &short, &candidates, &candidates[..1], 3)
            .is_err());
        assert_eq!(eng.stats().errors, before + 2);
        assert!(eng
            .cold_start(&ds.graph, &short, &candidates, paper_type, &row, 3)
            .is_err());
        assert_eq!(eng.stats().errors, before + 3);
        // The engine still serves good requests afterwards.
        let ok = eng
            .recommend(&ds.graph, &ds.features, &candidates, candidates[0], 3)
            .unwrap();
        assert_eq!(ok.len(), 3);
        // Several out-of-range candidates: the error names the first one
        // in request order, not the largest or the smallest id.
        let past = ds.graph.num_nodes() as u32;
        let mut stray = candidates.clone();
        stray.insert(3, NodeId(past + 2));
        stray.push(NodeId(past + 9));
        stray.push(NodeId(past));
        match eng.ensure_cache(&ds.graph, &ds.features, &stray) {
            Err(ServeError::UnknownNode { node, what }) => {
                assert_eq!(node, NodeId(past + 2));
                assert_eq!(what, "candidate");
            }
            other => panic!("expected UnknownNode, got {other:?}"),
        }
        // A model with no layer has no last-layer embeddings: every entry
        // point returns one typed error instead of indexing a missing layer.
        let flat = CateHgn::new(
            ModelConfig {
                layers: 0,
                ..ModelConfig::test_tiny()
            },
            ds.features.cols(),
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        let mut eng = ServeEngine::new(&flat, 9);
        fn layers<T: std::fmt::Debug>(r: Result<T, ServeError>) {
            assert_eq!(r.err(), Some(NO_LAYERS));
        }
        let (g, f) = (&ds.graph, &ds.features);
        layers(eng.predict(g, f, &candidates));
        layers(eng.ensure_cache(g, f, &candidates));
        layers(eng.recommend(g, f, &candidates, candidates[0], 3));
        layers(eng.recommend_batch(g, f, &candidates, pair, 3));
        layers(eng.cold_start(g, f, &candidates, paper_type, &row, 3));
        layers(eng.install_resident(ds.graph.clone(), ds.features.clone()));
        assert_eq!(eng.stats().errors, 6, "one error per failed call");
        assert_eq!(eng.stats().queries, 0);
    }

    /// splitmix64: a seeded stream for the test data below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn top_k_equals_the_first_k_of_a_full_sort() {
        let special = [
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            1.0,
        ];
        for seed in 0..40u64 {
            let mut st = seed;
            let n = (splitmix(&mut st) % 40) as usize;
            // Few distinct ids force duplicate candidates; a duplicate
            // carries its first copy's score, as duplicate rows of one
            // embedding matrix do.
            let ids = 1 + splitmix(&mut st) % (n as u64 + 1);
            let mut candidates = Vec::with_capacity(n);
            let mut scores: Vec<f32> = Vec::with_capacity(n);
            for _ in 0..n {
                let node = NodeId((splitmix(&mut st) % ids) as u32);
                let r = splitmix(&mut st);
                let fresh = match r % 3 {
                    0 => special[(r >> 8) as usize % special.len()],
                    1 => ((r >> 8) % 4) as f32 * 0.5,
                    _ => (r >> 40) as f32 / (1u64 << 24) as f32 - 0.5,
                };
                let prior = candidates.iter().position(|&c| c == node);
                scores.push(prior.map_or(fresh, |i| scores[i]));
                candidates.push(node);
            }
            let excludes = [None, candidates.first().copied(), Some(NodeId(u32::MAX))];
            for exclude in excludes {
                let mut full: Vec<Recommendation> = scores
                    .iter()
                    .zip(&candidates)
                    .filter(|(_, &node)| Some(node) != exclude)
                    .map(|(&score, &node)| Recommendation { node, score })
                    .collect();
                full.sort_by(rank_desc);
                let bits = |v: &[Recommendation]| -> Vec<(u32, u32)> {
                    v.iter().map(|r| (r.node.0, r.score.to_bits())).collect()
                };
                for k in 0..=n + 1 {
                    // Offered in blocks, as a cache's blocks stream in.
                    let block = 1 + (seed as usize + k) % 9;
                    let mut top = TopK::new(k.min(n), exclude);
                    for (s, c) in scores.chunks(block).zip(candidates.chunks(block)) {
                        top.offer(s, c);
                    }
                    let got = top.into_ranking();
                    let want = &full[..k.min(full.len())];
                    assert_eq!(bits(&got), bits(want), "seed {seed} k {k} {exclude:?}");
                }
            }
        }
    }

    #[test]
    fn warm_queries_read_the_features_only_when_their_stamp_moved() {
        let (model, ds) = setup();
        let candidates: Vec<NodeId> = ds.paper_nodes.iter().take(12).copied().collect();
        let mut eng = ServeEngine::new(&model, 3);
        // One recommend per case: (key passes, cache hit, rebuilds).
        let mut run = |features: &Tensor| {
            let (passes, stats) = (KEY_PASSES.with(|c| c.get()), eng.stats());
            eng.recommend(&ds.graph, features, &candidates, candidates[1], 3)
                .unwrap();
            let after = eng.stats();
            (
                KEY_PASSES.with(|c| c.get()) - passes,
                after.cache_hits - stats.cache_hits,
                after.cache_rebuilds - stats.cache_rebuilds,
            )
        };
        assert_eq!(run(&ds.features), (1, 0, 1), "cold");
        assert_eq!(run(&ds.features), (0, 1, 0), "warm hit");
        let clone = ds.features.clone();
        assert_eq!(run(&clone), (0, 1, 0), "a clone");
        let mut same = ds.features.clone();
        let v = same.as_slice()[5];
        same.as_mut_slice()[5] = v;
        assert_eq!(run(&same), (1, 1, 0), "a same-bits write");
        assert_eq!(run(&same), (0, 1, 0), "its stamp is recorded");
        let mut edited = ds.features.clone();
        edited.as_mut_slice()[5] += 1.0;
        assert_eq!(run(&edited), (1, 0, 1), "a real edit");
        assert_eq!(run(&edited), (0, 1, 0), "the rebuilt cache");
        assert_eq!(run(&ds.features), (1, 0, 1), "the old features");
    }

    #[test]
    fn blocked_ranking_equals_a_full_sort_across_block_edges() {
        let d = 20;
        let mut st = 17u64;
        let mut values = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| (splitmix(&mut st) >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
                .collect()
        };
        let bits = |v: &[Recommendation]| -> Vec<(u32, u32)> {
            v.iter().map(|r| (r.node.0, r.score.to_bits())).collect()
        };
        for n in [2047, 2048, 2049, 4097] {
            let mut data = values(n * d);
            // Every 97th candidate repeats candidate 0's embedding, so
            // equal scores meet the node-id tiebreak across blocks.
            for r in (97..n).step_by(97) {
                let (head, tail) = data.split_at_mut(r * d);
                tail[..d].copy_from_slice(&head[..d]);
            }
            let emb = Tensor::from_vec(n, d, data);
            let candidates: Vec<NodeId> = (0..n).map(|i| NodeId((n - i) as u32 * 3)).collect();
            let feat = FeatureKey { key: 0, stamp: 0 };
            let mut cache = EmbeddingCache::new(0, 0, feat, &candidates, emb.clone());
            for q in [1, 2, 3, 4, 5, 64] {
                let queries = Tensor::from_vec(q, d, values(q * d));
                let scores = tensor::tensor::reference::matmul_tb(&queries, &emb);
                let excludes: Vec<Option<NodeId>> = (0..q)
                    .map(|r| (r % 2 == 0).then(|| candidates[(r * 31) % n]))
                    .collect();
                let full: Vec<Vec<Recommendation>> = scores
                    .rows_iter()
                    .zip(&excludes)
                    .map(|(row, &exclude)| {
                        let mut all: Vec<Recommendation> = row
                            .iter()
                            .zip(&candidates)
                            .filter(|(_, &node)| Some(node) != exclude)
                            .map(|(&score, &node)| Recommendation { node, score })
                            .collect();
                        all.sort_by(rank_desc);
                        all
                    })
                    .collect();
                for threads in [1, 2, 4] {
                    tensor::par::set_num_threads(threads);
                    for k in [1, 10, n] {
                        let got = cache.rank(&queries, excludes.iter().copied(), k);
                        for (r, (got, want)) in got.iter().zip(&full).enumerate() {
                            let want = &want[..k.min(want.len())];
                            assert_eq!(bits(got), bits(want), "n {n} q {q}/{r} k {k} t {threads}");
                        }
                    }
                }
                tensor::par::set_num_threads(0);
            }
        }
    }

    #[test]
    fn feature_key_finds_the_first_non_finite_and_sees_every_value() {
        for len in [0usize, 1, 15, 16, 17, 33, 48] {
            let xs: Vec<f32> = (0..len).map(|i| i as f32 * 0.25 - 2.0).collect();
            let key = feature_key(&xs).unwrap();
            for pos in 0..len {
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut ys = xs.clone();
                    ys[pos] = bad;
                    if let Some(last) = ys.last_mut().filter(|_| pos + 1 < len) {
                        *last = f32::NAN;
                    }
                    assert_eq!(feature_key(&ys), Err(pos), "{bad} at {pos}/{len}");
                }
                let mut ys = xs.clone();
                ys[pos] = -ys[pos];
                let sign = feature_key(&ys).unwrap();
                ys[pos] = f32::from_bits(xs[pos].to_bits() ^ 1);
                let low_bit = feature_key(&ys).unwrap();
                assert!(
                    sign != key && low_bit != key,
                    "edit at {pos}/{len} kept the key"
                );
            }
        }
    }
}
