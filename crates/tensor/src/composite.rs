//! Per-link-type composites of the HGN layer (Eqs. 3, 14 and 15).
//!
//! A layer spends most of its time in three products over the edges of
//! one link type: the Eq. 3 message `W_a(φ(h_u, h_e) ‖ h_v)`, the Eq. 14
//! node-attention scores `[h_v ‖ h_e ‖ h_u] · a` of every head, and the
//! Eq. 15 link scores over the (type, destination) slots.
//! [`ForwardCtx::edge_messages`] and [`ForwardCtx::link_attention`] are
//! these composites, and each has two implementations:
//!
//! * The default (`primitive_edge_messages`, `primitive_link_attention`)
//!   records the primitive ops the layer has always recorded: gathers,
//!   tiles, concats, one product per head, leaky ReLU, segment softmax.
//!   The tape runs it, so backward and every training fingerprint see the
//!   same nodes in the same order.
//! * The tape-free override on [`crate::InferCtx`] splits each product at
//!   its concat boundary. φ and `φ · W_a[:d]` run once per distinct source
//!   row, and the `[h_v ‖ h_e]` score prefix of all heads once per active
//!   destination. The per-edge suffix (`h_v · W_a[d:]`, `h_u · a[2d:]`)
//!   then continues each accumulator, with no concat.
//!
//! The split is exact. Every product kernel sums each output from `+0.0`
//! in ascending k, multiply then add, and [`Tensor::matmul_acc`] continues
//! that sum from whatever the output holds. A prefix computed once and
//! gathered per edge therefore runs the same float sequence as the
//! one-pass product over the concatenated row. `infer_serve`'s bitwise
//! tests hold the two implementations to each other.

use crate::fwd;
use crate::graph::Var;
use crate::infer::{ForwardCtx, InferCtx};
use crate::params::{ParamId, Params};
use crate::pool::BufferPool;
use crate::tensor::Tensor;

/// LeakyReLU slope of the attention scores (GAT's 0.2).
pub(crate) const ATTENTION_SLOPE: f32 = 0.2;

/// One link type's sampled edges in a block, as rows of the layer input
/// `h_src`.
pub struct TypeEdges<'a> {
    /// Per edge: the source's row (`h_u`).
    pub src: &'a [usize],
    /// Per edge: the destination's own row (`h_v`).
    pub dst_prev: &'a [usize],
    /// Per edge: the destination's position in the block, which is the
    /// segment of the Eq. 14 softmax.
    pub dst: &'a [usize],
    /// Per edge: its destination's slot among the type's active
    /// destinations.
    pub slot: &'a [usize],
    /// Per active slot: the destination's own row.
    pub slot_prev: &'a [usize],
}

/// One link type's aggregated messages at its active destinations: that
/// type's rows of the Eq. 15 slot stack.
pub struct TypeSlots {
    /// `1 x d` link embedding `h_e`.
    pub h_e: Var,
    /// Per slot: the destination's own row of `h_src`.
    pub prev: Vec<usize>,
    /// `slots x d` aggregated messages; the composite takes ownership.
    pub agg: Var,
}

/// Head-averaged attention over a score matrix, op by op: per head
/// `segment_softmax(leaky_relu(feat · a_h))`, summed in head order and
/// scaled by `1 / H`. `ModelConfig` guarantees at least one head, so the
/// sum seeds from head 0 and folds the rest.
fn primitive_heads<F: ForwardCtx>(
    g: &mut F,
    params: &Params,
    feat: Var,
    heads: &[ParamId],
    segments: &[usize],
) -> Var {
    let head = |g: &mut F, aid: ParamId| {
        let a = g.param(params, aid);
        let s0 = g.matmul(feat, a);
        g.free(a);
        let s = g.leaky_relu(s0, ATTENTION_SLOPE);
        g.free(s0);
        let seg = g.scratch_idx_from(segments);
        let sm = g.segment_softmax(s, seg);
        g.free(s);
        sm
    };
    let first = head(g, heads[0]);
    let summed = heads.iter().skip(1).fold(first, |prev, &aid| {
        let sm = head(g, aid);
        let next = g.add(prev, sm);
        g.free(prev);
        g.free(sm);
        next
    });
    let scaled = g.scale(summed, 1.0 / heads.len() as f32);
    g.free(summed);
    scaled
}

/// The default [`ForwardCtx::edge_messages`]: the primitive op sequence
/// the tape records.
#[allow(clippy::too_many_arguments)] // the composite's operands, one each
pub(crate) fn primitive_edge_messages<F: ForwardCtx>(
    g: &mut F,
    params: &Params,
    h_src: Var,
    h_e: Var,
    edges: &TypeEdges<'_>,
    w_a: Var,
    phi: impl FnOnce(&mut F, Var, Var) -> Var,
    heads: Option<&[ParamId]>,
) -> (Var, Option<Var>) {
    let idx = g.scratch_idx_from(edges.src);
    let h_u = g.gather_rows(h_src, idx);
    let idx = g.scratch_idx_from(edges.dst_prev);
    let h_v = g.gather_rows(h_src, idx);
    let e_tiled = g.tile_row(h_e, edges.src.len());

    // Eq. 3: message = W_a (phi(h_u, h_e) concat h_v).
    let phi = phi(g, h_u, e_tiled);
    let msg_in = g.concat_cols(phi, h_v);
    g.free(phi);
    let msg = g.matmul(msg_in, w_a);
    g.free(msg_in);

    // Eq. 14: node-wise attention within the type.
    let alpha = heads.map(|heads| {
        let hv_he = g.concat_cols(h_v, e_tiled);
        let feat = g.concat_cols(hv_he, h_u);
        g.free(hv_he);
        let alpha = primitive_heads(g, params, feat, heads, edges.dst);
        g.free(feat);
        alpha
    });
    g.free(h_u);
    g.free(h_v);
    g.free(e_tiled);
    (msg, alpha)
}

/// The default [`ForwardCtx::link_attention`]: the primitive op sequence
/// the tape records. The slot features are stacked even without heads,
/// as they always were on the tape.
pub(crate) fn primitive_link_attention<F: ForwardCtx>(
    g: &mut F,
    params: &Params,
    h_src: Var,
    types: &[TypeSlots],
    heads: Option<&[ParamId]>,
    segments: &[usize],
) -> (Var, Option<Var>) {
    // One slot block per type, stacked in type order; the caller passes
    // at least one type.
    let slot_feat = |g: &mut F, ts: &TypeSlots| {
        let idx = g.scratch_idx_from(&ts.prev);
        let h_v = g.gather_rows(h_src, idx);
        let e_tiled = g.tile_row(ts.h_e, ts.prev.len());
        let hv_he = g.concat_cols(h_v, e_tiled);
        g.free(h_v);
        g.free(e_tiled);
        let feat = g.concat_cols(hv_he, ts.agg);
        g.free(hv_he);
        feat
    };
    let first = slot_feat(g, &types[0]);
    let (stacked_agg, stacked_feat) =
        types
            .iter()
            .skip(1)
            .fold((types[0].agg, first), |(prev_agg, prev_feat), ts| {
                let feat = slot_feat(g, ts);
                let agg = g.concat_rows(prev_agg, ts.agg);
                g.free(prev_agg);
                g.free(ts.agg);
                let stacked = g.concat_rows(prev_feat, feat);
                g.free(prev_feat);
                g.free(feat);
                (agg, stacked)
            });
    let beta = heads.map(|heads| primitive_heads(g, params, stacked_feat, heads, segments));
    g.free(stacked_feat);
    (stacked_agg, beta)
}

/// The attention vectors of `heads` (each `k x 1`) side by side, `k x H`.
fn stack_heads(pool: &mut BufferPool, params: &Params, heads: &[ParamId]) -> Tensor {
    let h = heads.len();
    assert!(h > 0, "at least one head");
    let k = params.value(heads[0]).rows();
    let mut a = pool.tensor_raw(k, h);
    for (j, &aid) in heads.iter().enumerate() {
        let col = params.value(aid);
        assert_eq!(col.shape(), (k, 1), "attention heads must be {k}x1");
        for (row, &x) in a.as_mut_slice().chunks_exact_mut(h).zip(col.as_slice()) {
            row[j] = x;
        }
    }
    a
}

/// The `slots x H` score prefixes over `[h_v ‖ h_e]` (rows `0..2d` of the
/// stacked heads `a`), summed from `+0.0` for a `matmul_acc` to continue.
fn score_prefix(
    pool: &mut BufferPool,
    h_src: &Tensor,
    prev: &[usize],
    h_e: &Tensor,
    a: &Tensor,
) -> Tensor {
    let d = h_src.cols();
    let mut out = pool.tensor_zeroed(prev.len(), a.cols());
    let h_v = fwd::gather_rows(pool, h_src, prev);
    h_v.matmul_acc(a, 0..d, &mut out);
    pool.recycle(h_v);
    let e_tiled = fwd::tile_row(pool, h_e, prev.len());
    e_tiled.matmul_acc(a, d..2 * d, &mut out);
    pool.recycle(e_tiled);
    out
}

impl InferCtx {
    /// The tape-free [`ForwardCtx::edge_messages`]: the bits of
    /// [`primitive_edge_messages`] from per-source and per-destination
    /// prefixes.
    #[allow(clippy::too_many_arguments)] // mirrors the trait method
    pub(crate) fn fused_edge_messages(
        &mut self,
        params: &Params,
        h_src: Var,
        h_e: Var,
        edges: &TypeEdges<'_>,
        w_a: Var,
        phi: impl FnOnce(&mut Self, Var, Var) -> Var,
        heads: Option<&[ParamId]>,
    ) -> (Var, Option<Var>) {
        // Distinct source rows, in first-seen order, and each edge's one.
        let n_src = self.value(h_src).rows();
        let mut first = self.pool.take_idx();
        first.resize(n_src, usize::MAX);
        let mut distinct = self.pool.take_idx();
        let mut of_edge = self.pool.take_idx();
        for &s in edges.src {
            if first[s] == usize::MAX {
                first[s] = distinct.len();
                distinct.push(s);
            }
            of_edge.push(first[s]);
        }
        self.pool.give_idx(first);

        // Eq. 3 prefix once per distinct source: phi(h_u, h_e) · W_a[:d].
        let n_distinct = distinct.len();
        let h_u = self.gather_rows(h_src, distinct);
        let e_tiled = self.tile_row(h_e, n_distinct);
        let phi = phi(self, h_u, e_tiled);
        self.free(h_u);
        self.free(e_tiled);
        let (pool, values) = (&mut self.pool, &self.values);
        let (w, hs, phi_v) = (&values[w_a.idx()], &values[h_src.idx()], &values[phi.idx()]);
        let mut part = pool.tensor_zeroed(n_distinct, w.cols());
        phi_v.matmul_acc(w, 0..phi_v.cols(), &mut part);

        // Per edge: the gathered prefix continued over h_v · W_a[d:].
        let mut msg = fwd::gather_rows(pool, &part, &of_edge);
        pool.recycle(part);
        pool.give_idx(of_edge);
        let h_v = fwd::gather_rows(pool, hs, edges.dst_prev);
        h_v.matmul_acc(w, phi_v.cols()..w.rows(), &mut msg);
        pool.recycle(h_v);
        self.free(phi);
        let msg = self.push(msg);
        let alpha = heads.map(|heads| self.fused_node_attention(params, h_src, h_e, edges, heads));
        (msg, alpha)
    }

    /// Eq. 14 for all heads at once: the `[h_v ‖ h_e]` prefix once per
    /// active destination, continued per edge over `h_u`.
    fn fused_node_attention(
        &mut self,
        params: &Params,
        h_src: Var,
        h_e: Var,
        edges: &TypeEdges<'_>,
        heads: &[ParamId],
    ) -> Var {
        let (pool, values) = (&mut self.pool, &self.values);
        let (hs, he) = (&values[h_src.idx()], &values[h_e.idx()]);
        let d = hs.cols();
        let a = stack_heads(pool, params, heads);
        let prefix = score_prefix(pool, hs, edges.slot_prev, he, &a);
        let mut scores = fwd::gather_rows(pool, &prefix, edges.slot);
        pool.recycle(prefix);
        let h_u = fwd::gather_rows(pool, hs, edges.src);
        h_u.matmul_acc(&a, 2 * d..3 * d, &mut scores);
        pool.recycle(h_u);
        pool.recycle(a);
        let alpha = fwd::head_softmax_mean(pool, &scores, edges.dst, ATTENTION_SLOPE);
        pool.recycle(scores);
        self.push(alpha)
    }

    /// The tape-free [`ForwardCtx::link_attention`]: each type's slot
    /// scores straight from `h_v`, `h_e` and the aggregate, with no
    /// stacked feature matrix.
    pub(crate) fn fused_link_attention(
        &mut self,
        params: &Params,
        h_src: Var,
        types: &[TypeSlots],
        heads: Option<&[ParamId]>,
        segments: &[usize],
    ) -> (Var, Option<Var>) {
        let (pool, values) = (&mut self.pool, &self.values);
        let hs = &values[h_src.idx()];
        let d = hs.cols();
        let total: usize = types.iter().map(|ts| ts.prev.len()).sum();
        let beta = heads.map(|heads| {
            let a = stack_heads(pool, params, heads);
            let mut scores = pool.tensor_raw(total, a.cols());
            let mut at = 0;
            for ts in types {
                let mut s = score_prefix(pool, hs, &ts.prev, &values[ts.h_e.idx()], &a);
                values[ts.agg.idx()].matmul_acc(&a, 2 * d..3 * d, &mut s);
                for (o, &x) in scores.as_mut_slice().iter_mut().skip(at).zip(s.as_slice()) {
                    *o = x;
                }
                at += s.len();
                pool.recycle(s);
            }
            pool.recycle(a);
            let beta = fwd::head_softmax_mean(pool, &scores, segments, ATTENTION_SLOPE);
            pool.recycle(scores);
            beta
        });
        let width = types.first().map_or(d, |ts| values[ts.agg.idx()].cols());
        let mut stacked = pool.tensor_raw(total, width);
        let mut at = 0;
        for ts in types {
            let agg = values[ts.agg.idx()].as_slice();
            for (o, &x) in stacked.as_mut_slice().iter_mut().skip(at).zip(agg) {
                *o = x;
            }
            at += agg.len();
        }
        for ts in types {
            self.free(ts.agg);
        }
        let stacked = self.push(stacked);
        (stacked, beta.map(|b| self.push(b)))
    }
}
