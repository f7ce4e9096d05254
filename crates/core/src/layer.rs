//! One-space HGN convolution layer (Sec. III-C1 and III-C3).
//!
//! Messages from typed neighbors are formed by entity-relation composition
//! `phi(h_u, h_e)` concatenated with the target's own previous embedding and
//! projected through the *shared* transformation `W_a` (Eq. 3) — the
//! parameter-efficiency contribution over R-GCN. Selective aggregation uses
//! three-way attention: node-wise softmax within each neighbor type
//! (Eq. 14) and link-wise softmax across types (Eq. 15), both multi-head
//! (head-averaged). With attention disabled (ablation), aggregation is
//! uniform within and across types, which is Eq. 3's plain form normalised
//! for stability. Every product over a concatenation runs split at the
//! concat boundaries, once per row it depends on (see [`node_update`]),
//! and every weight over a concatenation is stored split there, one
//! parameter per concatenated input (see [`LayerParams`]).

use crate::config::{Composition, ModelConfig};
use hetgraph::Block;
use tensor::{EdgeRows, ForwardCtx, ParamId, Params, Var};

/// Trainable parameters of one HGN layer, each stored in the layout it
/// is multiplied in: a weight over a concatenation is one parameter per
/// concatenated input, the `d` rows that multiply it.
#[derive(Clone, Debug)]
pub struct LayerParams {
    /// Shared node transformation `W_a` (`2d x d`, Eq. 3) over `[φ ‖ h_v]`,
    /// as its halves `[W_a[:d], W_a[d:]]` (`d x d` each), applied to φ and
    /// to `h_v`.
    pub w_a: [ParamId; 2],
    /// Self-connection transformation (`d x d`) — the `A + I`
    /// self-connection of the GCN the HGN builds on (Eq. 1).
    pub w_self: ParamId,
    /// Shared link transformation `W_b` (`d x d`).
    pub w_b: ParamId,
    /// Node-wise attention `a_t` over `[h_v ‖ h_e ‖ h_u]` per link type
    /// (Eq. 14), as `[A_v, A_e, A_u]` (`d x heads_node` each): head `k`'s
    /// `3d x 1` vector is column `k` of the three stacked.
    pub a_node: Vec<[ParamId; 3]>,
    /// Link-wise attention `a_b` over `[h_v ‖ h_e ‖ agg]` (Eq. 15), as
    /// `[A_v, A_e, A_u]` (`d x heads_link` each).
    pub a_link: [ParamId; 3],
    /// Layer-wise citation regressor `W_y` (`d x 1`) and bias (Eq. 6).
    pub w_y: ParamId,
    pub b_y: ParamId,
    /// MI discriminator bilinear form `W_d` (`d x d`, Eq. 10).
    pub w_d: ParamId,
}

impl LayerParams {
    /// Registers one layer's parameters. The values and the RNG order are
    /// those of the concat layout: `W_a` is one `2d x d` draw, and each
    /// head one `3d x 1` draw, type by type and head by head.
    pub fn init<R: rand::Rng>(
        params: &mut Params,
        l: usize,
        dim: usize,
        n_link_types: usize,
        cfg: &ModelConfig,
        rng: &mut R,
    ) -> Self {
        use tensor::Initializer::{XavierUniform, Zeros};
        let w_a = params.add_init_split(
            &format!("l{l}.w_a"),
            ["phi", "v"],
            (dim, dim),
            1,
            XavierUniform,
            rng,
        );
        let w_self = params.add_init(format!("l{l}.w_self"), dim, dim, XavierUniform, rng);
        let w_b = params.add_init(format!("l{l}.w_b"), dim, dim, XavierUniform, rng);
        let mut heads = |name: String, n_heads: usize| {
            params.add_init_split(
                &name,
                ["v", "e", "u"],
                (dim, 1),
                n_heads,
                XavierUniform,
                rng,
            )
        };
        let a_node = (0..n_link_types)
            .map(|t| heads(format!("l{l}.a_node.t{t}"), cfg.heads_node))
            .collect();
        let a_link = heads(format!("l{l}.a_link"), cfg.heads_link);
        // Zero-init output head: with the train-mean bias warm start this
        // makes the untrained model exactly the mean predictor, which the
        // best-on-validation selection then only improves on.
        let w_y = params.add_init(format!("l{l}.w_y"), dim, 1, Zeros, rng);
        let b_y = params.add_init(format!("l{l}.b_y"), 1, 1, Zeros, rng);
        let w_d = params.add_init(format!("l{l}.w_d"), dim, dim, XavierUniform, rng);
        LayerParams {
            w_a,
            w_self,
            w_b,
            a_node,
            a_link,
            w_y,
            b_y,
            w_d,
        }
    }
}

/// Applies the composition operator `phi` row-wise.
pub fn compose<F: ForwardCtx>(g: &mut F, h_u: Var, h_e_tiled: Var, op: Composition) -> Var {
    match op {
        Composition::Sub => g.sub(h_u, h_e_tiled),
        Composition::Mult => g.mul(h_u, h_e_tiled),
        Composition::CircCorr => g.circ_corr(h_u, h_e_tiled),
    }
}

/// Output of one layer's forward pass.
pub struct LayerOut {
    /// `n_dst x d` next-layer node embeddings.
    pub h_next: Var,
    /// `1 x d` next-layer link embeddings per link type (Eq. 4).
    pub h_edge_next: Vec<Var>,
}

/// Runs one HGN layer over a sampled [`Block`]: [`node_update`], then
/// [`link_update`].
///
/// `h_src` holds previous-layer embeddings for `block.src_nodes`; `h_edge`
/// holds the previous-layer link embedding per link type.
pub fn layer_forward<F: ForwardCtx>(
    g: &mut F,
    params: &Params,
    lp: &LayerParams,
    cfg: &ModelConfig,
    block: &Block,
    h_src: Var,
    h_edge: &[Var],
) -> LayerOut {
    let h_next = node_update(g, params, lp, cfg, block, h_src, h_edge);
    let h_edge_next = link_update(g, params, lp, h_edge);
    LayerOut {
        h_next,
        h_edge_next,
    }
}

/// Eq. 4: the next layer's link embeddings `h_e W_b`, one per link type.
pub fn link_update<F: ForwardCtx>(
    g: &mut F,
    params: &Params,
    lp: &LayerParams,
    h_edge: &[Var],
) -> Vec<Var> {
    let w_b = g.param(params, lp.w_b);
    let h_edge_next = h_edge.iter().map(|&he| g.matmul(he, w_b)).collect();
    g.free(w_b);
    h_edge_next
}

/// LeakyReLU slope of the attention scores (GAT's 0.2).
const ATTENTION_SLOPE: f32 = 0.2;

/// `a + b`, freeing both operands.
fn add_freeing<F: ForwardCtx>(g: &mut F, a: Var, b: Var) -> Var {
    let sum = g.add(a, b);
    g.free(a);
    g.free(b);
    sum
}

/// `vars` stacked vertically in order, freeing each one.
fn stack_freeing<F: ForwardCtx>(g: &mut F, vars: &[Var]) -> Var {
    let out = g.stack_rows(vars);
    for &v in vars {
        g.free(v);
    }
    out
}

/// `a · b`, freeing `b` (a weight read once).
fn matmul_freeing_rhs<F: ForwardCtx>(g: &mut F, a: Var, b: Var) -> Var {
    let out = g.matmul(a, b);
    g.free(b);
    out
}

/// Writes the sorted distinct values of `keys` (each below `n`) to
/// `distinct` and each key's position in that list to `rank_of`, through
/// a dense rank map over `0..n` kept in `rank`: `O(len + n)`, no sort.
fn dense_ranks(
    keys: impl Iterator<Item = usize> + Clone,
    n: usize,
    rank: &mut Vec<usize>,
    distinct: &mut Vec<usize>,
    rank_of: &mut Vec<usize>,
) {
    const ABSENT: usize = usize::MAX;
    rank.clear();
    rank.resize(n, ABSENT);
    for k in keys.clone() {
        rank[k] = 0;
    }
    for (v, r) in rank.iter_mut().enumerate() {
        if *r != ABSENT {
            *r = distinct.len();
            distinct.push(v);
        }
    }
    rank_of.extend(keys.map(|k| rank[k]));
}

/// A pooled `m x 1` leaf of uniform weights: `1 / |group|` for each entry
/// of `groups`, a list of group ids below `n_groups`.
fn uniform_weights<F: ForwardCtx>(g: &mut F, groups: &[usize], n_groups: usize) -> Var {
    let mut count = g.scratch_idx();
    count.resize(n_groups, 0);
    for &s in groups {
        count[s] += 1;
    }
    let w = g.input_with(groups.len(), 1, |w| {
        for (o, &s) in w.iter_mut().zip(groups) {
            *o = 1.0 / count[s] as f32;
        }
    });
    g.recycle_idx(count);
    w
}

/// The layer's `n_dst x d` node embeddings (Eqs. 3, 14 and 15 plus the
/// self-connection), in per-node form. Each product over a concatenation
/// splits at its concat boundaries, and each part runs once per row it
/// depends on:
///
/// * Eq. 3: `W_a(φ ‖ h_v) = φ·W_a[:d] + h_v·W_a[d:]`. The first term runs
///   once per distinct (type, source) row, the second once per
///   destination, since `W_a` is shared across types.
/// * Eq. 14: `[h_v ‖ h_e ‖ h_u]·a = h_v·A_v + h_e·A_e + h_u·A_u`, all of
///   a type's heads at once through its `d x H` weights: once per active
///   slot, once per type and once per distinct source.
/// * Eq. 15: the same split over `[h_v ‖ h_e ‖ agg]`, with `h_v·A_v` once
///   per destination, `h_e·A_e` once per type, and `agg·A_u` per slot.
///
/// Per edge only two fused kernels run: `edge_softmax` assembles each
/// edge's scores from those rows and turns them into head-averaged
/// attention, and `edge_aggregate` sums each edge's weighted message
/// `(φ·W_a[:d])[src] + (h_v·W_a[d:])[dst]` into its slot. Eq. 15 runs the
/// same pair per slot and sums the weighted slot aggregates into their
/// destinations. Per-edge work is `O(d)`, and no per-edge or per-slot
/// `m x d` tensor exists. The weights are bound as stored
/// ([`LayerParams`]), so no op copies or cuts a parameter. Everything is a
/// `ForwardCtx` op, so the tape and the tape-free context run the same op
/// sequence.
pub fn node_update<F: ForwardCtx>(
    g: &mut F,
    params: &Params,
    lp: &LayerParams,
    cfg: &ModelConfig,
    block: &Block,
    h_src: Var,
    h_edge: &[Var],
) -> Var {
    let n_dst = block.dst_nodes.len();
    let n_src = g.shape(h_src).0;
    let attn = cfg.ablation.attention;

    // Per-type index preparation is pure bookkeeping over the block. Every
    // list is checked out of the graph's scratch pool and either handed to
    // an op (reclaimed by the next `reset`) or recycled below, so the
    // steady-state step rebuilds all of it without touching the heap.
    struct TypeIdx {
        lt: usize,
        /// Per edge: its destination's position in the block.
        dst_idx: Vec<usize>,
        /// Sorted, deduped source rows of this type's edges.
        distinct_src: Vec<usize>,
        /// Per edge: its source's position in `distinct_src`.
        src_of_edge: Vec<usize>,
        /// Sorted, deduped dst positions with >=1 edge of this type.
        active_dst: Vec<usize>,
        /// Per edge: its destination's position in `active_dst`.
        local_seg: Vec<usize>,
    }
    let mut type_idx: Vec<TypeIdx> = Vec::with_capacity(block.edges_by_type.len());
    let mut rank = g.scratch_idx();
    for (lt, edges) in block.edges_by_type.iter().enumerate() {
        if edges.is_empty() {
            continue;
        }
        let mut ti = TypeIdx {
            lt,
            dst_idx: g.scratch_idx(),
            distinct_src: g.scratch_idx(),
            src_of_edge: g.scratch_idx(),
            active_dst: g.scratch_idx(),
            local_seg: g.scratch_idx(),
        };
        ti.dst_idx.extend(edges.iter().map(|e| e.dst_pos as usize));
        let src = edges.iter().map(|e| e.src_pos as usize);
        dense_ranks(
            src,
            n_src,
            &mut rank,
            &mut ti.distinct_src,
            &mut ti.src_of_edge,
        );
        let dst = ti.dst_idx.iter().copied();
        dense_ranks(dst, n_dst, &mut rank, &mut ti.active_dst, &mut ti.local_seg);
        type_idx.push(ti);
    }
    g.recycle_idx(rank);

    // Self-connection (the `I` of Eq. 1's `A + I`): every node's own
    // previous-layer embedding contributes alongside its typed neighbors,
    // and keeps isolated nodes represented.
    let mut prev_idx = g.scratch_idx();
    prev_idx.extend(block.dst_in_src.iter().map(|&p| p as usize));
    let h_prev_dst = g.gather_rows(h_src, prev_idx);
    let w_self = g.param(params, lp.w_self);
    let self_term = matmul_freeing_rhs(g, h_prev_dst, w_self);

    if type_idx.is_empty() {
        g.free(h_prev_dst);
        let out = g.relu(self_term);
        g.free(self_term);
        return out;
    }

    // Eq. 3's destination term `h_v · W_a[d:]`, once per destination.
    let [w_phi, w_v] = lp.w_a.map(|id| g.param(params, id));
    let msg_dst = matmul_freeing_rhs(g, h_prev_dst, w_v);

    // Eq. 15's link heads.
    let link_heads = attn.then(|| lp.a_link.map(|id| g.param(params, id)));

    // Per-type aggregates at their active destinations, in type order:
    // the (type, destination) slots of Eq. 15. `segments` holds each
    // slot's destination, `slot_type` its type's position among the types
    // with edges, and `type_scores` each such type's `h_e · A_e` (1 x H).
    let mut aggs = Vec::with_capacity(type_idx.len());
    let mut type_scores = Vec::with_capacity(type_idx.len());
    let mut segments = g.scratch_idx();
    let mut slot_type = g.scratch_idx();

    for (k, ti) in type_idx.into_iter().enumerate() {
        let h_e = h_edge[ti.lt];
        let n_distinct = ti.distinct_src.len();
        let n_active = ti.active_dst.len();
        let h_u = g.gather_rows(h_src, ti.distinct_src);

        // Eq. 3's source term φ(h_u, h_e)·W_a[:d], once per distinct
        // source.
        let e_tiled = g.tile_row(h_e, n_distinct);
        let phi = compose(g, h_u, e_tiled, cfg.composition);
        g.free(e_tiled);
        let msg_src = g.matmul(phi, w_phi);
        g.free(phi);

        // Eq. 14: node-wise attention within the type, or uniform weights.
        let alpha = if attn {
            let [a_v, a_e, a_u] = lp.a_node[ti.lt].map(|id| g.param(params, id));
            let idx = g.scratch_idx_from(&ti.active_dst);
            let h_v = g.gather_rows(h_prev_dst, idx);
            let s_slot = matmul_freeing_rhs(g, h_v, a_v);
            g.free(h_v);
            let s_src = matmul_freeing_rhs(g, h_u, a_u);
            let s_type = matmul_freeing_rhs(g, h_e, a_e);
            let slot_rows = EdgeRows::Gather(g.scratch_idx_from(&ti.local_seg));
            let src_rows = EdgeRows::Gather(g.scratch_idx_from(&ti.src_of_edge));
            let seg = g.scratch_idx_from(&ti.local_seg);
            let alpha = g.edge_softmax(
                [
                    (s_slot, slot_rows),
                    (s_src, src_rows),
                    (s_type, EdgeRows::Broadcast),
                ],
                seg,
                n_active,
                ATTENTION_SLOPE,
            );
            g.free(s_slot);
            g.free(s_src);
            g.free(s_type);
            alpha
        } else {
            uniform_weights(g, &ti.local_seg, n_active)
        };
        g.free(h_u);

        // Eq. 3's weighted sum, into *active-dst-local* slots to keep the
        // cross-type softmax free of phantom zero rows.
        let agg = g.edge_aggregate(
            [
                (msg_src, EdgeRows::Gather(ti.src_of_edge)),
                (msg_dst, EdgeRows::Gather(ti.dst_idx)),
            ],
            alpha,
            ti.local_seg,
            n_active,
        );
        g.free(msg_src);
        g.free(alpha);
        segments.extend_from_slice(&ti.active_dst);
        slot_type.extend(std::iter::repeat_n(k, n_active));
        g.recycle_idx(ti.active_dst);
        aggs.push(agg);
        if let Some([_, a_e, _]) = link_heads {
            type_scores.push(g.matmul(h_e, a_e));
        }
    }
    g.free(w_phi);
    g.free(msg_dst);
    let stacked_agg = stack_freeing(g, &aggs);

    // Eq. 15: link-wise attention across the types present at each node:
    // `h_v · A_v` once per destination and `agg · A_u` per slot.
    let beta = match link_heads {
        Some([a_v, a_e, a_u]) => {
            g.free(a_e);
            let s_dst = matmul_freeing_rhs(g, h_prev_dst, a_v);
            let s_agg = matmul_freeing_rhs(g, stacked_agg, a_u);
            let s_types = stack_freeing(g, &type_scores);
            let dst_rows = EdgeRows::Gather(g.scratch_idx_from(&segments));
            let seg = g.scratch_idx_from(&segments);
            let beta = g.edge_softmax(
                [
                    (s_dst, dst_rows),
                    (s_agg, EdgeRows::Own),
                    (s_types, EdgeRows::Gather(slot_type)),
                ],
                seg,
                n_dst,
                ATTENTION_SLOPE,
            );
            g.free(s_dst);
            g.free(s_agg);
            g.free(s_types);
            beta
        }
        None => {
            g.recycle_idx(slot_type);
            // Uniform across the types present at each node.
            uniform_weights(g, &segments, n_dst)
        }
    };
    g.free(h_prev_dst);
    let agg = g.edge_aggregate([(stacked_agg, EdgeRows::Own)], beta, segments, n_dst);
    g.free(stacked_agg);
    g.free(beta);
    let combined = add_freeing(g, agg, self_term);
    let out = g.relu(combined);
    g.free(combined);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph::{sample_blocks, HetGraphBuilder, Schema};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use tensor::{Graph, Tensor};

    fn toy_setup() -> (hetgraph::HetGraph, Vec<hetgraph::NodeId>) {
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        let author = s.add_node_type("author");
        let (writes, _) = s.add_link_type_pair("writes", "written_by", author, paper);
        let mut b = HetGraphBuilder::new(s);
        let papers = b.add_nodes(paper, 3);
        let authors = b.add_nodes(author, 2);
        b.add_link_with_reverse(writes, authors[0], papers[0], 1.0);
        b.add_link_with_reverse(writes, authors[0], papers[1], 1.0);
        b.add_link_with_reverse(writes, authors[1], papers[1], 1.0);
        b.add_link_with_reverse(writes, authors[1], papers[2], 1.0);
        (b.build(), papers)
    }

    fn run_layer(cfg: &ModelConfig) -> (Graph, Var, usize) {
        let (graph, papers) = toy_setup();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let blocks = sample_blocks(&graph, &papers, 1, 4, &mut rng);
        let block = &blocks[0];
        let mut params = Params::new();
        let lp = LayerParams::init(
            &mut params,
            0,
            cfg.dim,
            graph.schema().num_link_types(),
            cfg,
            &mut rng,
        );
        let mut g = Graph::new();
        let h_src = {
            let n = block.src_nodes.len();
            let data = (0..n * cfg.dim)
                .map(|i| ((i % 7) as f32 - 3.0) * 0.2)
                .collect();
            g.input(Tensor::from_vec(n, cfg.dim, data))
        };
        let h_edge: Vec<Var> = (0..graph.schema().num_link_types())
            .map(|t| {
                let data = (0..cfg.dim).map(|i| ((i + t) % 5) as f32 * 0.1).collect();
                g.input(Tensor::from_vec(1, cfg.dim, data))
            })
            .collect();
        let out = layer_forward(&mut g, &params, &lp, cfg, block, h_src, &h_edge);
        let n_dst = block.dst_nodes.len();
        (g, out.h_next, n_dst)
    }

    #[test]
    fn layer_output_shape_and_finiteness() {
        for comp in [Composition::Sub, Composition::Mult, Composition::CircCorr] {
            let cfg = ModelConfig {
                composition: comp,
                dim: 8,
                ..ModelConfig::test_tiny()
            };
            let (g, h, n_dst) = run_layer(&cfg);
            assert_eq!(g.shape(h), (n_dst, 8));
            assert!(g.value(h).all_finite());
        }
    }

    #[test]
    fn attention_and_uniform_paths_both_run_and_differ() {
        let cfg_attn = ModelConfig {
            dim: 8,
            ..ModelConfig::test_tiny()
        };
        let mut cfg_unif = cfg_attn.clone();
        cfg_unif.ablation.attention = false;
        let (ga, ha, _) = run_layer(&cfg_attn);
        let (gu, hu, _) = run_layer(&cfg_unif);
        // Same shapes; generally different values.
        assert_eq!(ga.shape(ha), gu.shape(hu));
        assert_ne!(ga.value(ha).as_slice(), gu.value(hu).as_slice());
    }

    /// `LayerParams::init` draws what the concat layout drew, value for
    /// value and in the same RNG order: `W_a` as one `2d x d` draw, then
    /// `w_self` and `w_b`, each type's heads and then the link heads as
    /// `3d x 1` draws, and `w_d` (the zero-initialised `w_y` and `b_y`
    /// draw nothing).
    #[test]
    fn init_draws_the_concat_layout_values() {
        use tensor::Initializer::XavierUniform;
        let (d, n_types) = (6, 3);
        for heads in [1, 4] {
            let cfg = ModelConfig {
                dim: d,
                heads_node: heads,
                heads_link: heads,
                ..ModelConfig::test_tiny()
            };
            let mut params = Params::new();
            let mut split_rng = ChaCha8Rng::seed_from_u64(3);
            let lp = LayerParams::init(&mut params, 0, d, n_types, &cfg, &mut split_rng);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            // Columns `cols` of the split weight `blocks`, stacked
            // row-wise, against the whole of one concat-layout draw.
            let mut check = |blocks: &[ParamId], cols: std::ops::Range<usize>, what: &str| {
                let want = XavierUniform.sample(blocks.len() * d, cols.len(), &mut rng);
                for r in 0..blocks.len() * d {
                    for (j, c) in cols.clone().enumerate() {
                        let got = params.value(blocks[r / d]).get(r % d, c);
                        assert_eq!(got.to_bits(), want.get(r, j).to_bits(), "{what} ({r}, {c})");
                    }
                }
            };
            check(&lp.w_a, 0..d, "W_a");
            check(&[lp.w_self], 0..d, "w_self");
            check(&[lp.w_b], 0..d, "w_b");
            for (t, a) in lp.a_node.iter().enumerate() {
                for h in 0..heads {
                    check(a, h..h + 1, &format!("a_node type {t} head {h}"));
                }
            }
            for h in 0..heads {
                check(&lp.a_link, h..h + 1, &format!("a_link head {h}"));
            }
            check(&[lp.w_d], 0..d, "w_d");
            assert_eq!(split_rng.gen::<u64>(), rng.gen::<u64>());
        }
    }

    #[test]
    fn layer_is_differentiable_end_to_end() {
        let cfg = ModelConfig {
            dim: 8,
            ..ModelConfig::test_tiny()
        };
        let (graph, papers) = toy_setup();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let blocks = sample_blocks(&graph, &papers, 1, 4, &mut rng);
        let mut params = Params::new();
        let lp = LayerParams::init(
            &mut params,
            0,
            cfg.dim,
            graph.schema().num_link_types(),
            &cfg,
            &mut rng,
        );
        let mut g = Graph::new();
        let n = blocks[0].src_nodes.len();
        let h_src = g.input(Tensor::full(n, cfg.dim, 0.3));
        let h_edge: Vec<Var> = (0..graph.schema().num_link_types())
            .map(|_| g.input(Tensor::full(1, cfg.dim, 0.2)))
            .collect();
        let out = layer_forward(&mut g, &params, &lp, &cfg, &blocks[0], h_src, &h_edge);
        let loss = g.l2(out.h_next);
        g.backward(loss);
        // Shared W_a must receive a gradient.
        let bound: Vec<_> = g
            .bindings()
            .iter()
            .filter(|(pid, v)| lp.w_a.contains(pid) && g.grad(*v).is_some())
            .collect();
        assert_eq!(bound.len(), 2, "each half of W_a gets a gradient");
    }
}
