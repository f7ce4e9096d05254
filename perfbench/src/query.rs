//! Query phase: warm `ServeEngine` queries over every paper of the
//! workload's query corpus — one client in a closed loop, four kinds of
//! operation: single top-K, batched top-K, impact prediction and cold start.

use crate::report::{repeat, Findings, Limit, Ops, Report};
use crate::streams::{Purpose, Stream};
use crate::trace::{
    by_name, fastest, median, overhead_frac, percentile, sorted, unattributed_frac, Tracer,
};
use crate::{ENGINE_SEED, TOP_K};
use catehgn::resilience::fnv1a_f32;
use catehgn::serve::rank_desc;
use catehgn::{CateHgn, Recommendation, ServeEngine};
use dblp_sim::Dataset;
use hetgraph::NodeId;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;
use tensor::Tensor;

/// Queries per `recommend_batch` call and papers per `predict` call.
const BATCH: usize = 64;

/// Single-query answers compared against the brute-force top-K.
const BRUTE_FORCE_SAMPLE: usize = 8;

/// Cold-start rows move every feature by at most 0.05.
const COLD_NOISE: f32 = 0.1;

/// A query and the engine's ranking for it.
pub type Answer = (NodeId, Vec<Recommendation>);

/// The untraced query phase: one method per kind of operation, each running
/// one operation and keeping its latency. The caller interleaves them.
pub struct Load<'a, 'm> {
    eng: &'a mut ServeEngine<'m>,
    ds: &'a Dataset,
    singles: Stream,
    batches: Stream,
    predicts: Stream,
    colds: Stream,
    single_us: Vec<f64>,
    batch_s: Vec<f64>,
    predict_s: Vec<f64>,
    cold_us: Vec<f64>,
    /// Single-query answers for the brute-force comparison.
    sample: Vec<Answer>,
    ops: Ops,
    bad: Findings,
}

impl<'a, 'm> Load<'a, 'm> {
    pub fn new(eng: &'a mut ServeEngine<'m>, ds: &'a Dataset, seed: u64) -> Self {
        Load {
            eng,
            ds,
            singles: Stream::new(seed, Purpose::Single),
            batches: Stream::new(seed, Purpose::Batch),
            predicts: Stream::new(seed, Purpose::Predict),
            colds: Stream::new(seed, Purpose::Cold),
            single_us: Vec::new(),
            batch_s: Vec::new(),
            predict_s: Vec::new(),
            cold_us: Vec::new(),
            sample: Vec::new(),
            ops: Ops::default(),
            bad: Findings::default(),
        }
    }

    /// One top-K `recommend`.
    pub fn single(&mut self) {
        let ds = self.ds;
        let cands = &ds.paper_nodes[..];
        let q = self.singles.node(cands);
        let eng = &mut *self.eng;
        let t = Instant::now();
        let got = self
            .ops
            .run(|| eng.recommend(&ds.graph, &ds.features, cands, q, TOP_K));
        let us = t.elapsed().as_secs_f64() * 1e6;
        if let Some(r) = got {
            self.single_us.push(us);
            self.bad.tally(check_ranking(&r, Some(q), cands.len()));
            if self.sample.len() < BRUTE_FORCE_SAMPLE {
                self.sample.push((q, r));
            }
        }
    }

    /// One `recommend_batch` of `BATCH` distinct queries.
    pub fn batch(&mut self) {
        let ds = self.ds;
        let cands = &ds.paper_nodes[..];
        let qs = self.batches.distinct(cands, BATCH);
        let eng = &mut *self.eng;
        let t = Instant::now();
        let got = self
            .ops
            .run(|| eng.recommend_batch(&ds.graph, &ds.features, cands, &qs, TOP_K));
        let secs = t.elapsed().as_secs_f64();
        if let Some(rs) = got {
            self.batch_s.push(secs);
            self.bad.tally(match rs.len() == qs.len() {
                true => Ok(()),
                false => Err(format!("{} rankings for {} queries", rs.len(), qs.len())),
            });
            for (q, r) in qs.iter().zip(&rs) {
                self.bad.tally(check_ranking(r, Some(*q), cands.len()));
            }
        }
    }

    /// One `predict` of `BATCH` distinct papers.
    pub fn predict(&mut self) {
        let ds = self.ds;
        let seeds = self.predicts.distinct(&ds.paper_nodes, BATCH);
        let eng = &mut *self.eng;
        let t = Instant::now();
        let got = self
            .ops
            .run(|| eng.predict(&ds.graph, &ds.features, &seeds));
        let secs = t.elapsed().as_secs_f64();
        if let Some(p) = got {
            self.predict_s.push(secs);
            self.bad.tally(check_predictions(&p, seeds.len()));
        }
    }

    /// One top-K `cold_start` from a perturbed feature row of a paper.
    pub fn cold(&mut self) {
        let ds = self.ds;
        let cands = &ds.paper_nodes[..];
        let src = self.colds.node(cands);
        let row = self
            .colds
            .perturbed(ds.features.row(src.index()), COLD_NOISE);
        let paper = ds.node_types.paper;
        let eng = &mut *self.eng;
        let t = Instant::now();
        let got = self
            .ops
            .run(|| eng.cold_start(&ds.graph, &ds.features, cands, paper, &row, TOP_K));
        let us = t.elapsed().as_secs_f64() * 1e6;
        if let Some(r) = got {
            self.cold_us.push(us);
            self.bad.tally(check_ranking(&r, None, cands.len()));
        }
    }

    /// Files the phase's metrics: the fastest operation of each kind (the
    /// code's own cost; see `trace::fastest`) and the single-query p99.
    /// Throughputs are a batch over the fastest batch call. Medians go to
    /// the run record. Returns the sample of single-query answers.
    pub fn finish(self, rep: &mut Report) -> Vec<Answer> {
        let single_us = sorted(self.single_us);
        let per_s = |secs: &[f64]| BATCH as f64 / fastest(secs);
        rep.metric("rec_min_us", fastest(&single_us), "us");
        rep.metric("rec_p99_us", percentile(&single_us, 0.99), "us");
        rep.metric("rec_batch_qps", per_s(&self.batch_s), "1/s");
        rep.metric("predict_qps", per_s(&self.predict_s), "1/s");
        rep.metric("cold_min_us", fastest(&self.cold_us), "us");
        rep.note("query.candidates", self.ds.paper_nodes.len());
        rep.note(
            "query.samples",
            format!(
                "{{\"single\": {}, \"batch\": {}, \"predict\": {}, \"cold\": {}}}",
                single_us.len(),
                self.batch_s.len(),
                self.predict_s.len(),
                self.cold_us.len()
            ),
        );
        rep.note(
            "query.medians",
            format!(
                "{{\"rec_us\": {}, \"batch_ms\": {}, \"predict_ms\": {}, \"cold_us\": {}}}",
                median(&single_us),
                median(&self.batch_s) * 1e3,
                median(&self.predict_s) * 1e3,
                median(&self.cold_us)
            ),
        );
        self.bad.report("query", rep);
        rep.phase("query", self.ops);
        self.sample
    }
}

/// Compares sampled answers with the brute-force top-K over `emb`, the
/// candidates' last-layer embeddings from `CateHgn::embed`.
pub fn brute_force_check(emb: &Tensor, ds: &Dataset, sample: &[Answer], rep: &mut Report) {
    let row_of: BTreeMap<NodeId, usize> = ds
        .paper_nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i))
        .collect();
    for (q, got) in sample {
        let scores = score_row(emb, row_of[q]);
        let want = top_k(scores.row(0), &ds.paper_nodes, Some(*q), TOP_K);
        rep.check(same_bits(got, &want), || {
            format!(
                "recommend({}) differs from the brute-force top-{TOP_K}",
                q.0
            )
        });
    }
    rep.note("query.brute_force_checked", sample.len());
}

/// Last-layer embeddings of every paper straight from `CateHgn::embed` —
/// the reference the engine's cache must match.
pub fn embeddings(model: &CateHgn, ds: &Dataset) -> Tensor {
    model
        .embed(&ds.graph, &ds.features, &ds.paper_nodes, ENGINE_SEED)
        .pop()
        .expect("the model has at least one layer")
}

/// The `1 x d` by `n x d` score row of candidate `row` against all.
fn score_row(emb: &Tensor, row: usize) -> Tensor {
    Tensor::from_vec(1, emb.cols(), emb.row(row).to_vec()).matmul_tb(emb)
}

/// Full sort of one score row under `rank_desc`, cut to `k`.
fn top_k(
    scores: &[f32],
    cands: &[NodeId],
    exclude: Option<NodeId>,
    k: usize,
) -> Vec<Recommendation> {
    let mut recs: Vec<Recommendation> = scores
        .iter()
        .zip(cands)
        .filter(|(_, &n)| Some(n) != exclude)
        .map(|(&score, &node)| Recommendation { node, score })
        .collect();
    recs.sort_by(rank_desc);
    recs.truncate(k);
    recs
}

/// The serving contract every ranking must meet: `min(k, n - 1)` distinct
/// nodes (`min(k, n)` when no query is excluded), never the query itself,
/// in `rank_desc` order.
pub fn check_ranking(
    recs: &[Recommendation],
    exclude: Option<NodeId>,
    n_cands: usize,
) -> Result<(), String> {
    let want = TOP_K.min(n_cands - usize::from(exclude.is_some()));
    if recs.len() != want {
        return Err(format!(
            "ranking has {} entries, expected {want}",
            recs.len()
        ));
    }
    let nodes: BTreeSet<NodeId> = recs.iter().map(|r| r.node).collect();
    if nodes.len() != recs.len() {
        return Err("ranking repeats a node".into());
    }
    if let Some(q) = exclude.filter(|q| nodes.contains(q)) {
        return Err(format!("ranking for {} contains the query", q.0));
    }
    if recs
        .windows(2)
        .any(|w| rank_desc(&w[0], &w[1]) == Ordering::Greater)
    {
        return Err("ranking is not in rank_desc order".into());
    }
    Ok(())
}

fn check_predictions(p: &[f32], want: usize) -> Result<(), String> {
    if p.len() != want {
        return Err(format!(
            "predict returned {} values for {want} papers",
            p.len()
        ));
    }
    if p.iter().any(|v| !v.is_finite()) {
        return Err("predict returned a non-finite value".into());
    }
    Ok(())
}

/// Rankings equal in nodes and in score bits.
pub fn same_bits(a: &[Recommendation], b: &[Recommendation]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.node == y.node && x.score.to_bits() == y.score.to_bits())
}

/// Per-layer breakdown of warm queries, traced runs only.
///
/// `recommend` is opaque, so each traced query is followed by the public
/// pieces its cost is made of, on the same inputs: `ensure_cache` (a hit),
/// the feature fingerprint `fnv1a_f32`, the `1 x d` by `n x d` score row
/// (`Tensor::matmul_tb` over `CateHgn::embed`'s embeddings) and the full
/// sort under `rank_desc`. What those leave of `recommend` is
/// `serve.rec_other_us`: validation and the O(n) candidate lookups. The
/// sorted row doubles as the brute-force check of every traced answer.
pub fn traced(
    eng: &mut ServeEngine<'_>,
    model: &CateHgn,
    ds: &Dataset,
    emb: &Tensor,
    secs: f64,
    seed: u64,
    rep: &mut Report,
) {
    let (mut ops, mut bad) = (Ops::default(), Findings::default());
    // The untraced pass fixes the operation counts the traced pass repeats.
    let limits = [Limit::Secs(secs * 0.375, 50), Limit::Secs(secs * 0.125, 3)];
    let mut untraced = Tracer::new(false);
    let off = pass(
        eng,
        model,
        ds,
        emb,
        limits,
        seed,
        &mut untraced,
        &mut ops,
        &mut bad,
    );
    // Fresh inputs for the traced pass: replaying the same predict batches
    // would hit the sampling cache the untraced pass filled.
    let limits = [Limit::Count(off.singles), Limit::Count(off.predicts)];
    let mut tr = Tracer::new(true);
    let on_seed = seed.wrapping_add(1);
    let on = pass(
        eng, model, ds, emb, limits, on_seed, &mut tr, &mut ops, &mut bad,
    );

    let stats = by_name(tr.spans());
    let us = |name: &str| stats.get(name).map_or(f64::NAN, |s| s.mean_us());
    let (ensure, matmul, sort) = (
        us("serve.ensure_cache"),
        us("tensor.matmul_tb"),
        us("serve.topk_sort"),
    );
    rep.metric("serve.ensure_cache_hit_us", ensure, "us");
    rep.metric("resilience.feature_fp_us", us("resilience.fnv1a_f32"), "us");
    rep.metric("tensor.matmul_tb_us", matmul, "us");
    rep.metric("serve.topk_sort_us", sort, "us");
    let other = us("serve.recommend") - ensure - matmul - sort;
    rep.metric("serve.rec_other_us", other, "us");
    let ratio = |a: u64, b: u64| a as f64 / b as f64;
    rep.metric(
        "serve.cache_hit_ratio",
        ratio(on.cache_hits, on.queries),
        "ratio",
    );
    rep.metric(
        "hetgraph.block_cache_hit_ratio",
        ratio(on.block_hits, on.block_lookups),
        "ratio",
    );
    rep.metric(
        "catehgn.predict_batch_ms",
        us("catehgn.predict") / 1e3,
        "ms",
    );
    rep.metric(
        "query.unattributed_frac",
        unattributed_frac(on.wall_ns, tr.spans()),
        "ratio",
    );
    rep.metric(
        "query.trace_overhead_frac",
        overhead_frac(off.wall_ns, on.wall_ns),
        "ratio",
    );
    rep.note(
        "query.traced_ops",
        format!(
            "{{\"single\": {}, \"predict\": {}}}",
            on.singles, on.predicts
        ),
    );
    bad.report("query", rep);
    rep.phase("query", ops);
}

/// What one query pass did; the counters are deltas over the pass.
struct QueryPass {
    wall_ns: u64,
    singles: usize,
    predicts: usize,
    queries: u64,
    cache_hits: u64,
    block_hits: u64,
    block_lookups: u64,
}

#[allow(clippy::too_many_arguments)]
fn pass(
    eng: &mut ServeEngine<'_>,
    model: &CateHgn,
    ds: &Dataset,
    emb: &Tensor,
    limits: [Limit; 2],
    seed: u64,
    tr: &mut Tracer,
    ops: &mut Ops,
    bad: &mut Findings,
) -> QueryPass {
    let mut queries = Stream::new(seed, Purpose::TraceQuery);
    let mut batches = Stream::new(seed, Purpose::TracePredict);
    let before = eng.stats();
    let (hits0, misses0) = model.sampling_cache_stats();
    let t0 = Instant::now();
    let singles = repeat(limits[0], || {
        let row = queries.index(ds.paper_nodes.len());
        traced_query(eng, ds, emb, row, tr, ops, bad);
    });
    let predicts = repeat(limits[1], || {
        let seeds = batches.distinct(&ds.paper_nodes, BATCH);
        let got = tr.span("catehgn.predict", || {
            ops.run(|| eng.predict(&ds.graph, &ds.features, &seeds))
        });
        if let Some(p) = got {
            bad.tally(check_predictions(&p, seeds.len()));
        }
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let after = eng.stats();
    let (hits1, misses1) = model.sampling_cache_stats();
    QueryPass {
        wall_ns,
        singles,
        predicts,
        queries: after.queries - before.queries,
        cache_hits: after.cache_hits - before.cache_hits,
        block_hits: hits1 - hits0,
        block_lookups: (hits1 - hits0) + (misses1 - misses0),
    }
}

fn traced_query(
    eng: &mut ServeEngine<'_>,
    ds: &Dataset,
    emb: &Tensor,
    row: usize,
    tr: &mut Tracer,
    ops: &mut Ops,
    bad: &mut Findings,
) {
    let cands = &ds.paper_nodes[..];
    let q = cands[row];
    let got = tr.span("serve.recommend", || {
        ops.run(|| eng.recommend(&ds.graph, &ds.features, cands, q, TOP_K))
    });
    let hit = tr.span("serve.ensure_cache", || {
        eng.ensure_cache(&ds.graph, &ds.features, cands)
    });
    tr.span("resilience.fnv1a_f32", || {
        black_box(fnv1a_f32(ds.features.as_slice()))
    });
    let scores = tr.span("tensor.matmul_tb", || score_row(emb, row));
    let want = tr.span("serve.topk_sort", || {
        top_k(scores.row(0), cands, Some(q), TOP_K)
    });
    bad.tally(match hit {
        Ok(true) => Ok(()),
        Ok(false) => Err("a warm query rebuilt the cache".into()),
        Err(e) => Err(e.to_string()),
    });
    if let Some(got) = got {
        bad.tally(match same_bits(&got, &want) {
            true => Ok(()),
            false => Err(format!(
                "recommend({}) differs from the brute-force top-{TOP_K}",
                q.0
            )),
        });
    }
}
