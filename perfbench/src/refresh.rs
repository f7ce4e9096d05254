//! Refresh phase: the write side of serving. Each operation reloads the
//! other of two shard generations into the engine (`reload_resident`) and
//! answers one `recommend_batch_resident` query, which has to rebuild the
//! embedding cache. The refresh time runs from the start of the reload to
//! that first fresh answer.

use crate::query::same_bits;
use crate::report::{repeat, Findings, Limit, Ops, Report};
use crate::setup::Fixture;
use crate::streams::{Purpose, Stream};
use crate::trace::{
    by_name, fastest, overhead_frac, percentile, sorted, unattributed_frac, Tracer,
};
use crate::{ENGINE_SEED, TOP_K};
use catehgn::{CateHgn, ServeEngine};
use hetgraph::NodeId;
use std::hint::black_box;
use std::time::Instant;
use tensor::InferCtx;

/// One engine per generation that only ever sees that generation: a
/// refreshed engine must answer exactly as it does.
pub fn references(model: &CateHgn) -> Vec<ServeEngine<'_>> {
    (0..2)
        .map(|_| ServeEngine::new(model, ENGINE_SEED))
        .collect()
}

/// The untraced refresh phase, one refresh per `step`; the caller
/// interleaves the steps with the other phases' operations.
pub struct Load<'a, 'm> {
    eng: &'a mut ServeEngine<'m>,
    fx: &'a Fixture,
    refs: Vec<ServeEngine<'a>>,
    stream: Stream,
    resident: usize,
    ms: Vec<f64>,
    ops: Ops,
    bad: Findings,
    tr: Tracer,
}

impl<'a, 'm> Load<'a, 'm> {
    /// `reference` is a copy of the serving model for the reference engines.
    pub fn new(
        eng: &'a mut ServeEngine<'m>,
        fx: &'a Fixture,
        reference: &'a CateHgn,
        seed: u64,
    ) -> Self {
        Load {
            eng,
            fx,
            refs: references(reference),
            stream: Stream::new(seed, Purpose::Refresh),
            // `Engines::warm` leaves generation 0 resident.
            resident: 0,
            ms: Vec::new(),
            ops: Ops::default(),
            bad: Findings::default(),
            tr: Tracer::new(false),
        }
    }

    pub fn step(&mut self) {
        let step = Step {
            q: self.stream.node(&self.fx.small.paper_nodes),
            resident: &mut self.resident,
        };
        if let Some(t) = refresh_once(
            self.eng,
            self.fx,
            &mut self.refs,
            step,
            &mut self.ops,
            &mut self.bad,
            &mut self.tr,
        ) {
            self.ms.push(t);
        }
    }

    /// Files the fastest refresh (see `trace::fastest`). The median and the
    /// p90 go to the run record only: the host's slow spells move them by
    /// 20-30% from run to run.
    pub fn finish(self, rep: &mut Report) {
        let ms = sorted(self.ms);
        rep.metric("refresh_min_ms", fastest(&ms), "ms");
        rep.note("refresh.samples", ms.len());
        rep.note("refresh.p50_ms", percentile(&ms, 0.5));
        rep.note("refresh.p90_ms", percentile(&ms, 0.9));
        self.bad.report("refresh", rep);
        rep.phase("refresh", self.ops);
    }
}

/// The query of one refresh and the generation the engine holds.
struct Step<'a> {
    q: NodeId,
    resident: &'a mut usize,
}

/// One refresh to the generation the engine does not hold, checked against
/// the reference engine. Returns the milliseconds from the start of the
/// reload to the first answer.
fn refresh_once(
    eng: &mut ServeEngine<'_>,
    fx: &Fixture,
    refs: &mut [ServeEngine<'_>],
    step: Step<'_>,
    ops: &mut Ops,
    bad: &mut Findings,
    tr: &mut Tracer,
) -> Option<f64> {
    let target = 1 - *step.resident;
    let cands = &fx.small.paper_nodes[..];
    let q = step.q;
    let rebuilds = eng.stats().cache_rebuilds;
    let t = Instant::now();
    let answer = ops.run(|| {
        tr.span("serve.reload_resident", || {
            eng.reload_resident(&fx.stores[target])
        })?;
        tr.span("serve.first_answer", || {
            eng.recommend_batch_resident(cands, &[q], TOP_K)
        })
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    // A failed reload keeps the last good generation resident.
    if !eng.degraded() {
        *step.resident = target;
    }
    let answer = answer?;
    bad.tally(match eng.stats().cache_rebuilds - rebuilds {
        1 => Ok(()),
        k => Err(format!("a refresh rebuilt the cache {k} times")),
    });
    let want = refs[target].recommend_batch(
        &fx.generations[target],
        &fx.small.features,
        cands,
        &[q],
        TOP_K,
    );
    bad.tally(match want {
        Ok(w) if w.len() == answer.len() && w.iter().zip(&answer).all(|(a, b)| same_bits(a, b)) => {
            Ok(())
        }
        Ok(_) => Err(format!(
            "the answer after loading generation {target} differs from a fresh engine's"
        )),
        Err(e) => Err(format!("reference engine: {e}")),
    });
    Some(ms)
}

/// Per-layer breakdown of refreshes, traced runs only. After each traced
/// refresh the benchmark loads the same generation itself and times the
/// public pieces a rebuild is made of: `ShardStore::load_graph`,
/// `HetGraph::content_fingerprint` and `CateHgn::embed_in` over every
/// candidate (on `probe`, a copy of the serving model, so that the engine's
/// sampling cache sees only the engine's own calls).
pub fn traced(
    eng: &mut ServeEngine<'_>,
    fx: &Fixture,
    refs: &mut [ServeEngine<'_>],
    probe: &CateHgn,
    secs: f64,
    seed: u64,
    rep: &mut Report,
) {
    let mut st = PassState {
        resident: 0,
        ctx: InferCtx::new(),
        ops: Ops::default(),
        bad: Findings::default(),
    };
    // Warm the reference engines first, so their one-time cache builds do
    // not land in the untraced pass and skew the overhead.
    for (g, r) in refs.iter_mut().enumerate() {
        let papers = &fx.small.paper_nodes;
        let warm = r.ensure_cache(&fx.generations[g], &fx.small.features, papers);
        st.bad.tally(warm.map(|_| ()).map_err(|e| e.to_string()));
    }
    let mut untraced = Tracer::new(false);
    let limit = Limit::Secs(secs / 2.0, 6);
    let off = pass(eng, fx, refs, probe, limit, seed, &mut untraced, &mut st);
    let mut tr = Tracer::new(true);
    let limit = Limit::Count(off.refreshes);
    let on = pass(eng, fx, refs, probe, limit, seed, &mut tr, &mut st);

    let stats = by_name(tr.spans());
    let ms = |name: &str| stats.get(name).map_or(f64::NAN, |s| s.mean_us() / 1e3);
    let embed_ms = ms("catehgn.embed_in");
    rep.metric("hetgraph.shard_load_ms", ms("hetgraph.load_graph"), "ms");
    rep.metric(
        "hetgraph.content_fp_us",
        ms("hetgraph.content_fingerprint") * 1e3,
        "us",
    );
    rep.metric("serve.cache_rebuild_ms", ms("serve.first_answer"), "ms");
    rep.metric("catehgn.embed_ms", embed_ms, "ms");
    let candidates = fx.small.paper_nodes.len() as f64;
    rep.metric(
        "serve.embed_nodes_per_s",
        candidates / (embed_ms / 1e3),
        "1/s",
    );
    rep.metric(
        "hetgraph.refresh_block_cache_hit_ratio",
        on.block_hits as f64 / on.block_lookups as f64,
        "ratio",
    );
    rep.metric(
        "refresh.unattributed_frac",
        unattributed_frac(on.wall_ns, tr.spans()),
        "ratio",
    );
    rep.metric(
        "refresh.trace_overhead_frac",
        overhead_frac(off.wall_ns, on.wall_ns),
        "ratio",
    );
    rep.note("refresh.traced_ops", on.refreshes);
    st.bad.report("refresh", rep);
    rep.phase("refresh", st.ops);
}

/// State carried across the untraced and traced passes.
struct PassState {
    resident: usize,
    ctx: InferCtx,
    ops: Ops,
    bad: Findings,
}

struct RefreshPass {
    wall_ns: u64,
    refreshes: usize,
    block_hits: u64,
    block_lookups: u64,
}

#[allow(clippy::too_many_arguments)]
fn pass(
    eng: &mut ServeEngine<'_>,
    fx: &Fixture,
    refs: &mut [ServeEngine<'_>],
    probe: &CateHgn,
    limit: Limit,
    seed: u64,
    tr: &mut Tracer,
    st: &mut PassState,
) -> RefreshPass {
    let mut stream = Stream::new(seed, Purpose::TraceRefresh);
    let cands = &fx.small.paper_nodes[..];
    let (hits0, misses0) = fx.refresh_model.sampling_cache_stats();
    let t0 = Instant::now();
    let refreshes = repeat(limit, || {
        let target = 1 - st.resident;
        let step = Step {
            q: stream.node(cands),
            resident: &mut st.resident,
        };
        refresh_once(eng, fx, refs, step, &mut st.ops, &mut st.bad, tr);
        if let Ok(g) = tr.span("hetgraph.load_graph", || fx.stores[target].load_graph()) {
            tr.span("hetgraph.content_fingerprint", || {
                black_box(g.content_fingerprint())
            });
            let features = &fx.small.features;
            tr.span("catehgn.embed_in", || {
                black_box(probe.embed_in(&mut st.ctx, &g, features, cands, ENGINE_SEED))
            });
        }
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let (hits1, misses1) = fx.refresh_model.sampling_cache_stats();
    RefreshPass {
        wall_ns,
        refreshes,
        block_hits: hits1 - hits0,
        block_lookups: (hits1 - hits0) + (misses1 - misses0),
    }
}
