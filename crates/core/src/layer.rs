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
//! for stability. The per-type products run through the `ForwardCtx`
//! composites `edge_messages` and `link_attention`, which the tape-free
//! context computes with less work for the same bits.

use crate::config::{Composition, ModelConfig};
use hetgraph::Block;
use tensor::{ForwardCtx, ParamId, Params, Tensor, TypeEdges, TypeSlots, Var};

/// Trainable parameters of one HGN layer.
#[derive(Clone, Debug)]
pub struct LayerParams {
    /// Shared node transformation `W_a` (`2d x d`).
    pub w_a: ParamId,
    /// Self-connection transformation (`d x d`) — the `A + I`
    /// self-connection of the GCN the HGN builds on (Eq. 1).
    pub w_self: ParamId,
    /// Shared link transformation `W_b` (`d x d`).
    pub w_b: ParamId,
    /// Node-wise attention vectors `a_t` per link type per head (`3d x 1`).
    pub a_node: Vec<Vec<ParamId>>,
    /// Link-wise attention vectors `a_b` per head (`3d x 1`).
    pub a_link: Vec<ParamId>,
    /// Layer-wise citation regressor `W_y` (`d x 1`) and bias (Eq. 6).
    pub w_y: ParamId,
    pub b_y: ParamId,
    /// MI discriminator bilinear form `W_d` (`d x d`, Eq. 10).
    pub w_d: ParamId,
}

impl LayerParams {
    /// Registers one layer's parameters.
    pub fn init<R: rand::Rng>(
        params: &mut Params,
        l: usize,
        dim: usize,
        n_link_types: usize,
        cfg: &ModelConfig,
        rng: &mut R,
    ) -> Self {
        use tensor::Initializer::{XavierUniform, Zeros};
        let w_a = params.add_init(format!("l{l}.w_a"), 2 * dim, dim, XavierUniform, rng);
        let w_self = params.add_init(format!("l{l}.w_self"), dim, dim, XavierUniform, rng);
        let w_b = params.add_init(format!("l{l}.w_b"), dim, dim, XavierUniform, rng);
        let a_node = (0..n_link_types)
            .map(|t| {
                (0..cfg.heads_node)
                    .map(|h| {
                        params.add_init(
                            format!("l{l}.a_node.t{t}.h{h}"),
                            3 * dim,
                            1,
                            XavierUniform,
                            rng,
                        )
                    })
                    .collect()
            })
            .collect();
        let a_link = (0..cfg.heads_link)
            .map(|h| params.add_init(format!("l{l}.a_link.h{h}"), 3 * dim, 1, XavierUniform, rng))
            .collect();
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

/// The layer's `n_dst x d` node embeddings (Eqs. 3, 14 and 15 plus the
/// self-connection).
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
    let w_a = g.param(params, lp.w_a);
    let attn = cfg.ablation.attention;

    // Per-type index preparation is pure bookkeeping over the block. Every
    // list is checked out of the graph's scratch pool and either handed to
    // an op (reclaimed by the next `reset`) or recycled below, so the
    // steady-state step rebuilds all of it without touching the heap. The
    // (single-threaded) pool checkout happens on the tape thread; the fill
    // itself is independent per link type and runs on the worker pool.
    struct TypeIdx {
        lt: usize,
        src_idx: Vec<usize>,
        dst_idx: Vec<usize>,
        prev_idx: Vec<usize>,
        /// Sorted, deduped dst positions with >=1 edge of this type.
        active_dst: Vec<usize>,
        /// `dst_idx` remapped to positions in `active_dst`.
        local_seg: Vec<usize>,
        /// `dst_in_src` of each `active_dst` entry (cross-type features).
        active_prev: Vec<usize>,
        /// Uniform within-type weights `1 / deg_t(v)` (attention off).
        uniform_w: Vec<f32>,
    }
    let mut type_idx: Vec<TypeIdx> = Vec::with_capacity(block.edges_by_type.len());
    for lt in 0..block.edges_by_type.len() {
        if block.edges_by_type[lt].is_empty() {
            continue;
        }
        type_idx.push(TypeIdx {
            lt,
            src_idx: g.scratch_idx(),
            dst_idx: g.scratch_idx(),
            prev_idx: g.scratch_idx(),
            active_dst: g.scratch_idx(),
            local_seg: g.scratch_idx(),
            active_prev: g.scratch_idx(),
            uniform_w: Vec::new(),
        });
    }
    tensor::par::par_for_each_mut(&mut type_idx, |_, ti| {
        let edges = &block.edges_by_type[ti.lt];
        ti.src_idx.extend(edges.iter().map(|e| e.src_pos as usize));
        ti.dst_idx.extend(edges.iter().map(|e| e.dst_pos as usize));
        ti.prev_idx.extend(
            edges
                .iter()
                .map(|e| block.dst_in_src[e.dst_pos as usize] as usize),
        );
        ti.active_dst.extend_from_slice(&ti.dst_idx);
        ti.active_dst.sort_unstable();
        ti.active_dst.dedup();
        let active_dst = &ti.active_dst;
        ti.local_seg.extend(
            ti.dst_idx
                .iter()
                .map(|d| active_dst.binary_search(d).expect("dst present")),
        );
        ti.active_prev
            .extend(ti.active_dst.iter().map(|&d| block.dst_in_src[d] as usize));
        if !attn {
            let mut deg = vec![0.0f32; n_dst];
            for &d in &ti.dst_idx {
                deg[d] += 1.0;
            }
            ti.uniform_w
                .extend(ti.dst_idx.iter().map(|&d| 1.0 / deg[d]));
        }
    });

    // Per-type aggregates awaiting cross-type combination, and their
    // destination positions: the segment ids of the Eq. 15 softmax.
    let mut per_type: Vec<TypeSlots> = Vec::new();
    let mut segments = g.scratch_idx();

    for ti in type_idx {
        // Eq. 3 messages and Eq. 14 node-wise attention within this type,
        // or uniform weights.
        let edges = TypeEdges {
            src: &ti.src_idx,
            dst_prev: &ti.prev_idx,
            dst: &ti.dst_idx,
            slot: &ti.local_seg,
            slot_prev: &ti.active_prev,
        };
        let heads = attn.then_some(lp.a_node[ti.lt].as_slice());
        let (msg, alpha) = g.edge_messages(
            params,
            h_src,
            h_edge[ti.lt],
            &edges,
            w_a,
            |g, h_u, e_tiled| compose(g, h_u, e_tiled, cfg.composition),
            heads,
        );
        let alpha = alpha.unwrap_or_else(|| g.input(Tensor::col_vec(ti.uniform_w)));
        g.recycle_idx(ti.src_idx);
        g.recycle_idx(ti.prev_idx);
        g.recycle_idx(ti.dst_idx);
        let weighted = g.mul_col(msg, alpha);
        g.free(msg);
        g.free(alpha);

        // Aggregate into *active-dst-local* slots to keep the cross-type
        // softmax free of phantom zero rows.
        let agg_active = g.segment_sum(weighted, ti.local_seg, ti.active_dst.len());
        g.free(weighted);

        segments.extend_from_slice(&ti.active_dst);
        g.recycle_idx(ti.active_dst);
        per_type.push(TypeSlots {
            h_e: h_edge[ti.lt],
            prev: ti.active_prev,
            agg: agg_active,
        });
    }
    g.free(w_a);

    // Self-connection (the `I` of Eq. 1's `A + I`): every node's own
    // previous-layer embedding contributes alongside its typed neighbors,
    // and keeps isolated nodes represented.
    let mut prev_idx = g.scratch_idx();
    prev_idx.extend(block.dst_in_src.iter().map(|&p| p as usize));
    let h_prev_dst = g.gather_rows(h_src, prev_idx);
    let w_self = g.param(params, lp.w_self);
    let self_term = g.matmul(h_prev_dst, w_self);
    g.free(h_prev_dst);
    g.free(w_self);

    if per_type.is_empty() {
        g.recycle_idx(segments);
        let out = g.relu(self_term);
        g.free(self_term);
        return out;
    }

    // Eq. 15 link-wise attention across types. Stack all (v, t) slots
    // vertically; the segment id is the dst position, so the softmax
    // normalises across the types present at each node.
    let heads = attn.then_some(lp.a_link.as_slice());
    let (stacked_agg, beta) = g.link_attention(params, h_src, &per_type, heads, &segments);
    for ts in per_type {
        g.recycle_idx(ts.prev);
    }
    let beta = beta.unwrap_or_else(|| {
        // Uniform across the types present at each node.
        let mut cnt = vec![0.0f32; n_dst];
        for &s in &segments {
            cnt[s] += 1.0;
        }
        let w: Vec<f32> = segments.iter().map(|&s| 1.0 / cnt[s]).collect();
        g.input(Tensor::col_vec(w))
    });
    let weighted = g.mul_col(stacked_agg, beta);
    g.free(stacked_agg);
    g.free(beta);
    let agg = g.segment_sum(weighted, segments, n_dst);
    g.free(weighted);
    let combined = g.add(agg, self_term);
    g.free(agg);
    g.free(self_term);
    let out = g.relu(combined);
    g.free(combined);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph::{sample_blocks, HetGraphBuilder, Schema};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tensor::Graph;

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
            .filter(|(pid, v)| *pid == lp.w_a && g.grad(*v).is_some())
            .collect();
        assert!(!bound.is_empty(), "W_a got no gradient");
    }
}
