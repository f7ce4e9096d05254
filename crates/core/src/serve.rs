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
//! a feature fingerprint and the candidate list; any mismatch rebuilds
//! before the query is answered — a stale cache is never served.
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
//! A bounded admission queue ([`ServeEngine::submit`] /
//! [`ServeEngine::drain`]) sheds load deterministically by rejecting the
//! newest request with [`ServeError::Overloaded`].

use crate::model::CateHgn;
use crate::resilience::fnv1a_f32;
use hetgraph::{HetGraph, NodeId, NodeTypeId, ShardError, ShardStore};
use std::fmt;
use tensor::{InferCtx, Tensor};

/// One ranked candidate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    pub node: NodeId,
    pub score: f32,
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
    /// The bounded admission queue is full; the newest request is shed.
    Overloaded { capacity: usize, submitted: usize },
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
            ServeError::Overloaded {
                capacity,
                submitted,
            } => {
                write!(
                    f,
                    "admission queue overloaded: capacity {capacity}, submitted {submitted}; \
                     newest request shed"
                )
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
    /// Requests shed by the bounded admission queue.
    pub shed: u64,
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
    /// FNV-1a over the raw feature bytes.
    feat_fp: u64,
    /// Candidate papers, in caller order (defines embedding rows).
    candidates: Vec<NodeId>,
    /// `candidates.len() x d` last-layer embeddings.
    emb: Tensor,
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
    /// Admission bound for the submit/drain queue and for one batch.
    capacity: Option<usize>,
    pending: Vec<NodeId>,
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
            capacity: None,
            pending: Vec::new(),
            resident: None,
            degraded: false,
        }
    }

    /// An engine with a bounded admission queue: at most `capacity`
    /// requests may be pending (or arrive in one batch); excess requests
    /// are rejected newest-first with [`ServeError::Overloaded`].
    pub fn with_capacity(model: &'m CateHgn, seed: u64, capacity: usize) -> Self {
        let mut eng = Self::new(model, seed);
        eng.capacity = Some(capacity.max(1));
        eng
    }

    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Whether the engine is serving the last-good graph after a failed
    /// reload.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Requests waiting in the admission queue.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Counts a typed error where it is raised and returns it.
    fn fail<T>(&mut self, e: ServeError) -> Result<T, ServeError> {
        self.stats.errors += 1;
        Err(e)
    }

    /// The one request validator: the feature matrix must have a row per
    /// graph node and the encoder's input width and be finite, and every
    /// id in `nodes` must be a node of the graph.
    fn validate(
        &mut self,
        graph: &HetGraph,
        features: &Tensor,
        nodes: &[NodeId],
        what: &'static str,
    ) -> Result<(), ServeError> {
        let n = graph.num_nodes();
        let (rows, cols) = features.shape();
        let width = self
            .model
            .enc
            .node_w
            .first()
            .map_or(cols, |&w| self.model.params.value(w).shape().0);
        let err = if rows != n {
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
        } else if let Some(&node) = nodes.iter().find(|s| s.index() >= n) {
            ServeError::UnknownNode { node, what }
        } else if let Some(pos) = features.as_slice().iter().position(|v| !v.is_finite()) {
            ServeError::NonFiniteFeatures {
                row: pos / cols.max(1),
            }
        } else {
            return Ok(());
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
    ) -> Result<(&EmbeddingCache, bool), ServeError> {
        self.validate(graph, features, candidates, "candidate")?;
        let feat_fp = fnv1a_f32(features.as_slice());
        let (cache, hit) = match self.cache.take() {
            // A changed stamp falls back to content equality: a reload of
            // identical data keeps the cache, a real mutation does not.
            Some(c)
                if c.candidates == candidates
                    && c.feat_fp == feat_fp
                    && (c.stamp == graph.sampling_stamp()
                        || c.content_fp == graph.content_fingerprint()) =>
            {
                (c, true)
            }
            _ => {
                let embs =
                    self.model
                        .embed_in(&mut self.ctx, graph, features, candidates, self.seed);
                let emb = embs
                    .into_iter()
                    .next_back()
                    .expect("model has at least one layer");
                self.stats.cache_rebuilds += 1;
                let cache = EmbeddingCache {
                    stamp: graph.sampling_stamp(),
                    content_fp: graph.content_fingerprint(),
                    feat_fp,
                    candidates: candidates.to_vec(),
                    emb,
                };
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
    /// cached last-layer embeddings, computed as one batched
    /// `Q x d * (n x d)^T` product through the worker pool; each query's
    /// own row is excluded from its ranking. A query outside the candidate
    /// set, malformed features, or a batch beyond the admission capacity
    /// is a typed error — nothing panics on request data.
    pub fn recommend_batch(
        &mut self,
        graph: &HetGraph,
        features: &Tensor,
        candidates: &[NodeId],
        queries: &[NodeId],
        k: usize,
    ) -> Result<Vec<Vec<Recommendation>>, ServeError> {
        if let Some(capacity) = self.capacity {
            if queries.len() > capacity {
                self.stats.shed += (queries.len() - capacity) as u64;
                return self.fail(ServeError::Overloaded {
                    capacity,
                    submitted: queries.len(),
                });
            }
        }
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
        let mut qm = Tensor::zeros(queries.len(), cache.emb.shape().1);
        for (r, &row) in rows.iter().enumerate() {
            qm.set_row(r, cache.emb.row(row));
        }
        let scores = qm.matmul_tb(&cache.emb);
        let rankings = queries
            .iter()
            .enumerate()
            .map(|(r, q)| top_k(scores.row(r), &cache.candidates, Some(*q), k))
            .collect();
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
        let scores = h0.matmul_tb(&cache.emb);
        let ranking = top_k(scores.row(0), &cache.candidates, None, k);
        self.stats.queries += 1;
        self.stats.cache_hits += u64::from(hit);
        Ok(ranking)
    }

    // ----- bounded admission queue -------------------------------------

    /// Enqueues one query. When the queue is at capacity the *newest*
    /// request — this one — is rejected with [`ServeError::Overloaded`]
    /// and counted as shed; already-admitted requests are never dropped.
    pub fn submit(&mut self, query: NodeId) -> Result<(), ServeError> {
        let capacity = self.capacity.unwrap_or(usize::MAX);
        if self.pending.len() >= capacity {
            self.stats.shed += 1;
            return self.fail(ServeError::Overloaded {
                capacity,
                submitted: self.pending.len() + 1,
            });
        }
        self.pending.push(query);
        Ok(())
    }

    /// Answers and clears every admitted request, in admission order. On a
    /// validation error the queue is left intact so the caller can repair
    /// the request data and drain again.
    pub fn drain(
        &mut self,
        graph: &HetGraph,
        features: &Tensor,
        candidates: &[NodeId],
        k: usize,
    ) -> Result<Vec<(NodeId, Vec<Recommendation>)>, ServeError> {
        let queries = std::mem::take(&mut self.pending);
        match self.recommend_batch(graph, features, candidates, &queries, k) {
            Ok(rankings) => Ok(queries.into_iter().zip(rankings).collect()),
            Err(e) => {
                self.pending = queries;
                Err(e)
            }
        }
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

/// Selects the top-`k` of one score row under [`rank_desc`], optionally
/// excluding the query's own node.
fn top_k(
    scores: &[f32],
    candidates: &[NodeId],
    exclude: Option<NodeId>,
    k: usize,
) -> Vec<Recommendation> {
    let mut recs: Vec<Recommendation> = scores
        .iter()
        .zip(candidates)
        .filter(|(_, &n)| Some(n) != exclude)
        .map(|(&score, &node)| Recommendation { node, score })
        .collect();
    recs.sort_by(rank_desc);
    recs.truncate(k);
    recs
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
            eng.submit(candidates[0]).unwrap();
            width(eng.drain(&ds.graph, &bad, &candidates, 3));
            assert_eq!(eng.pending(), 1, "a failed drain keeps the queue");
            eng.drain(&ds.graph, &ds.features, &candidates, 3).unwrap();
            width(eng.install_resident(ds.graph.clone(), bad));
            assert_eq!(
                eng.recommend_batch_resident(&candidates, pair, 3),
                Err(ServeError::NoResidentGraph),
                "rejected data is never installed"
            );
            assert_eq!(eng.stats().errors, before + 8, "one error per failed call");
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
    }

    #[test]
    fn admission_queue_sheds_newest_deterministically() {
        let (model, ds) = setup();
        let candidates: Vec<NodeId> = ds.paper_nodes.iter().take(10).copied().collect();
        let mut eng = ServeEngine::with_capacity(&model, 4, 2);
        eng.submit(candidates[0]).unwrap();
        eng.submit(candidates[1]).unwrap();
        match eng.submit(candidates[2]) {
            Err(ServeError::Overloaded {
                capacity: 2,
                submitted: 3,
            }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(eng.pending(), 2, "admitted requests are never dropped");
        assert_eq!(eng.stats().shed, 1);
        let answers = eng.drain(&ds.graph, &ds.features, &candidates, 3).unwrap();
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].0, candidates[0]);
        assert_eq!(answers[1].0, candidates[1]);
        assert_eq!(eng.pending(), 0);
        // Oversized direct batches are rejected whole, counted as shed.
        let big: Vec<NodeId> = candidates.iter().take(5).copied().collect();
        match eng.recommend_batch(&ds.graph, &ds.features, &candidates, &big, 2) {
            Err(ServeError::Overloaded { .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn drain_keeps_queue_on_validation_failure() {
        let (model, ds) = setup();
        let candidates: Vec<NodeId> = ds.paper_nodes.iter().take(10).copied().collect();
        let mut eng = ServeEngine::with_capacity(&model, 4, 4);
        eng.submit(candidates[0]).unwrap();
        eng.submit(ds.paper_nodes[30]).unwrap(); // not in candidates
        assert!(eng.drain(&ds.graph, &ds.features, &candidates, 3).is_err());
        assert_eq!(eng.pending(), 2, "failed drain re-queues everything");
    }
}
