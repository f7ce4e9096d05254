//! Cross-type mutual-information maximisation (Sec. III-C2, Eqs. 7–12).
//!
//! The intractable neighborhood MI (Eq. 7) is decomposed over individual
//! typed links (Eq. 8), estimated per link with the Jensen-Shannon
//! estimator (Eq. 10) using a bilinear discriminator `D(x, y) =
//! sigmoid(x^T W_d y)`, and weighted by *learnable* link weights
//! `w_hat(e) = sigmoid(h_v^(l+1) . h_u^(l))` that are themselves tied to the
//! true weights `omega(e)` by an L2 penalty (Eqs. 9, 11). Minimising the
//! returned scalar maximises the paper's Eq. 12 objective.

use hetgraph::Block;
use rand::Rng;
use tensor::{Graph, ParamId, Params, Tensor, Var};

/// One per-link-type flatten task: the type's candidate edges and the
/// disjoint output segment they fill.
type EdgeSegment<'a> = (&'a [hetgraph::BlockEdge], &'a mut [(usize, usize, f32)]);

/// The RNG draws one layer transition's [`mi_loss`] would make: the
/// subsample swap targets (empty when the block fits under `max_edges`)
/// and the negative source rows. Pre-drawing them decouples the loss's
/// stochastic choices from the tape construction: a training step makes
/// all of its draws before its forward pass, and a data lane draws its
/// plan from a private stream, while the one-lane loop stays
/// bitwise-identical to drawing inside the loss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MiDraw {
    /// `swap_js[i]` is the `gen_range(i..total)` target of subsample swap
    /// `i`; empty when no subsampling happened.
    pub swap_js: Vec<usize>,
    /// Negative source row per kept edge (`gen_range(0..n_src)`).
    pub neg_idx: Vec<usize>,
}

/// All [`MiDraw`]s of one training step, in transition order (`l = 1..=L`,
/// i.e. deepest block first). Empty when the MI term is ablated off.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MiPlan {
    /// One entry per transition; `None` when the transition's block has no
    /// edges at all (the loss is skipped and no RNG is consumed).
    pub draws: Vec<Option<MiDraw>>,
}

/// Consumes from `rng` exactly the draws [`mi_loss`] would for `block`.
pub fn plan_transition<R: Rng>(block: &Block, max_edges: usize, rng: &mut R) -> Option<MiDraw> {
    let total: usize = block.edges_by_type.iter().map(Vec::len).sum();
    if total == 0 {
        return None;
    }
    let mut kept = total;
    let mut swap_js = Vec::new();
    if total > max_edges {
        swap_js.extend((0..max_edges).map(|i| rng.gen_range(i..total)));
        kept = max_edges;
    }
    let n_src = block.src_nodes.len();
    let neg_idx = (0..kept).map(|_| rng.gen_range(0..n_src)).collect();
    Some(MiDraw { swap_js, neg_idx })
}

/// Draws the full [`MiPlan`] of one step: per transition `l = 1..=L` the
/// draws of `blocks[L - l]`, in the exact order the serial loss consumes
/// them. Returns an empty plan (no RNG consumed) when `enabled` is false.
pub fn plan_mi<R: Rng>(blocks: &[Block], enabled: bool, max_edges: usize, rng: &mut R) -> MiPlan {
    if !enabled {
        return MiPlan::default();
    }
    let l_total = blocks.len();
    MiPlan {
        draws: (1..=l_total)
            .map(|l| plan_transition(&blocks[l_total - l], max_edges, rng))
            .collect(),
    }
}

/// Builds the (negated, to-minimise) MI loss for one layer transition.
///
/// `h_src` holds layer-`l` embeddings of `block.src_nodes`; `h_next` holds
/// layer-`l+1` embeddings of `block.dst_nodes`. At most `max_edges` links
/// are used, sampled uniformly across all link types; negatives draw a
/// random source node from the same frontier (`u' ~ P`, Eq. 10).
///
/// Equivalent to [`plan_transition`] + [`mi_loss_planned`]; kept as the
/// single-call entry point for direct (non-pipelined) callers.
#[allow(clippy::too_many_arguments)] // mirrors the paper's Eq. 12 inputs
pub fn mi_loss<R: Rng>(
    g: &mut Graph,
    params: &Params,
    w_d: ParamId,
    block: &Block,
    h_src: Var,
    h_next: Var,
    max_edges: usize,
    rng: &mut R,
) -> Option<Var> {
    let draw = plan_transition(block, max_edges, rng)?;
    Some(mi_loss_planned(g, params, w_d, block, h_src, h_next, &draw))
}

/// [`mi_loss`] with its stochastic choices supplied by a pre-drawn
/// [`MiDraw`] (see [`plan_transition`]). Builds a tape bitwise-identical
/// to the RNG-driven path for the same draws.
pub fn mi_loss_planned(
    g: &mut Graph,
    params: &Params,
    w_d: ParamId,
    block: &Block,
    h_src: Var,
    h_next: Var,
    draw: &MiDraw,
) -> Var {
    // Flatten candidate edges as (src_pos, dst_pos, weight), in type order
    // — the candidate order the RNG-driven subsample below sees is defined
    // by the block alone. Each type writes a disjoint pre-sized segment, so
    // the parallel fill reproduces the serial concatenation exactly.
    let total: usize = block.edges_by_type.iter().map(Vec::len).sum();
    let mut all: Vec<(usize, usize, f32)> = vec![(0, 0, 0.0); total];
    {
        let mut segments: Vec<EdgeSegment> = Vec::with_capacity(block.edges_by_type.len());
        let mut rest = all.as_mut_slice();
        for edges in &block.edges_by_type {
            let (seg, tail) = rest.split_at_mut(edges.len());
            rest = tail;
            if !edges.is_empty() {
                segments.push((edges.as_slice(), seg));
            }
        }
        if total >= 2048 {
            tensor::par::par_for_each_mut(&mut segments, |_, (edges, seg)| {
                for (slot, e) in seg.iter_mut().zip(edges.iter()) {
                    *slot = (e.src_pos as usize, e.dst_pos as usize, e.weight);
                }
            });
        } else {
            for (edges, seg) in &mut segments {
                for (slot, e) in seg.iter_mut().zip(edges.iter()) {
                    *slot = (e.src_pos as usize, e.dst_pos as usize, e.weight);
                }
            }
        }
    }
    debug_assert!(!all.is_empty(), "a MiDraw implies at least one edge");
    if !draw.swap_js.is_empty() {
        // Replay the uniform subsample without replacement.
        for (i, &j) in draw.swap_js.iter().enumerate() {
            all.swap(i, j);
        }
        all.truncate(draw.swap_js.len());
    }
    let mut src_idx = g.scratch_idx();
    src_idx.extend(all.iter().map(|&(s, _, _)| s));
    let mut dst_idx = g.scratch_idx();
    dst_idx.extend(all.iter().map(|&(_, d, _)| d));
    let mut neg_idx = g.scratch_idx();
    neg_idx.extend(draw.neg_idx.iter().copied());
    // True link weights, clamped into sigmoid's range.
    let omega: Vec<f32> = all.iter().map(|&(_, _, w)| w.clamp(0.0, 1.0)).collect();

    let hv = g.gather_rows(h_next, dst_idx);
    let hu = g.gather_rows(h_src, src_idx);
    let hn = g.gather_rows(h_src, neg_idx);

    // Learnable link weight w_hat(e) = sigmoid(h_v . h_u)   (Eq. 9).
    let raw = g.rowwise_dot(hv, hu);
    let w_hat = g.sigmoid(raw);

    // JSD estimator with bilinear discriminator (Eq. 10). The softplus is
    // applied to the *raw* bilinear score (BCE-with-logits form, as in the
    // DGI/GMI reference implementations): squashing through the sigmoid
    // first makes the estimator flat once scores saturate and training
    // collapses into the zero-gradient plateau.
    let wd = g.param(params, w_d);
    let hv_w = g.matmul(hv, wd);
    let d_pos = g.rowwise_dot(hv_w, hu);
    let d_neg = g.rowwise_dot(hv_w, hn);
    // Per-edge negated JSD MI: sp(-D_pos) + sp(D_neg).
    let neg_dpos = g.neg(d_pos);
    let sp_pos = g.softplus(neg_dpos);
    let sp_neg = g.softplus(d_neg);
    let per_edge = g.add(sp_pos, sp_neg);

    // Weighted by w_hat (detaching would lose Eq. 9's adaptivity; keep it).
    let weighted = g.mul(w_hat, per_edge);

    // Link-weight alignment (Eq. 11): (w_hat - omega)^2.
    let omega_t = g.input(Tensor::col_vec(omega));
    let diff = g.sub(w_hat, omega_t);
    let align = g.square(diff);

    let total = g.add(weighted, align);
    g.mean_all(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph::{BlockEdge, NodeId};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tensor::{Initializer, Optimizer};

    fn toy_block() -> Block {
        // 2 dst, 3 src; src 0..1 are the dst themselves.
        Block {
            dst_nodes: vec![NodeId(0), NodeId(1)],
            src_nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            dst_in_src: vec![0, 1],
            edges_by_type: vec![vec![
                BlockEdge { src_pos: 2, dst_pos: 0, weight: 1.0 },
                BlockEdge { src_pos: 2, dst_pos: 1, weight: 0.5 },
            ]],
        }
    }

    #[test]
    fn empty_block_yields_no_loss() {
        let block = Block {
            dst_nodes: vec![NodeId(0)],
            src_nodes: vec![NodeId(0)],
            dst_in_src: vec![0],
            edges_by_type: vec![vec![]],
        };
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let w_d = params.add_init("w_d", 4, 4, Initializer::XavierUniform, &mut rng);
        let mut g = Graph::new();
        let h = g.input(Tensor::full(1, 4, 1.0));
        assert!(mi_loss(&mut g, &params, w_d, &block, h, h, 16, &mut rng).is_none());
    }

    #[test]
    fn loss_is_finite_scalar() {
        let block = toy_block();
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let w_d = params.add_init("w_d", 4, 4, Initializer::XavierUniform, &mut rng);
        let mut g = Graph::new();
        let h_src = g.input(Tensor::from_rows(&[
            &[0.1, 0.2, 0.3, 0.4],
            &[-0.1, 0.0, 0.1, 0.2],
            &[0.5, -0.5, 0.5, -0.5],
        ]));
        let h_next = g.input(Tensor::from_rows(&[&[0.3, 0.3, 0.3, 0.3], &[0.0, 0.1, 0.2, 0.3]]));
        let loss = mi_loss(&mut g, &params, w_d, &block, h_src, h_next, 16, &mut rng).unwrap();
        assert_eq!(g.shape(loss), (1, 1));
        assert!(g.value(loss).as_slice()[0].is_finite());
        g.backward(loss);
        assert!(g.grad(h_src).is_some());
        assert!(g.grad(h_next).is_some());
    }

    #[test]
    fn subsampling_caps_edge_count() {
        // A block with many edges; cap to 3 must still produce a loss.
        let mut edges = Vec::new();
        for i in 0..20 {
            edges.push(BlockEdge { src_pos: 1 + (i % 2), dst_pos: 0, weight: 1.0 });
        }
        let block = Block {
            dst_nodes: vec![NodeId(0)],
            src_nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            dst_in_src: vec![0],
            edges_by_type: vec![edges],
        };
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let w_d = params.add_init("w_d", 2, 2, Initializer::XavierUniform, &mut rng);
        let mut g = Graph::new();
        let h = g.input(Tensor::from_rows(&[&[0.1, 0.1], &[0.2, 0.0], &[0.0, 0.3]]));
        let hn = g.input(Tensor::from_rows(&[&[0.4, 0.4]]));
        let loss = mi_loss(&mut g, &params, w_d, &block, h, hn, 3, &mut rng).unwrap();
        assert!(g.value(loss).as_slice()[0].is_finite());
    }

    /// Training the MI objective on a fixed pair of embeddings should
    /// separate the discriminator's scores on linked vs random pairs.
    #[test]
    fn discriminator_learns_to_separate_pos_from_neg() {
        let block = toy_block();
        let mut params = Params::new();
        // Seed chosen for a clear pos/neg margin: the toy block has only
        // two edges and a third of the sampled negatives collide with the
        // positive source, so unlucky init seeds can leave the
        // discriminator unseparated within the step budget.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let w_d = params.add_init("w_d", 4, 4, Initializer::XavierUniform, &mut rng);
        let h_src_t = Tensor::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.7, 0.7, 0.0, 0.0],
        ]);
        let h_next_t = Tensor::from_rows(&[&[1.0, 0.0, 0.0, 0.0], &[0.0, 1.0, 0.0, 0.0]]);
        let mut opt = Optimizer::adam(0.05);
        for _ in 0..150 {
            let mut g = Graph::new();
            let hs = g.input(h_src_t.clone());
            let hn = g.input(h_next_t.clone());
            let loss = mi_loss(&mut g, &params, w_d, &block, hs, hn, 16, &mut rng).unwrap();
            g.backward(loss);
            opt.step(&mut params, &mut g);
        }
        // Check D(pos) > D(neg-ish): pos pair (dst0, src2), neg pair (dst0, src1).
        let wd = params.value(w_d);
        let score = |a: &[f32], b: &[f32]| {
            let wa = Tensor::from_vec(1, 4, a.to_vec()).matmul(wd);
            tensor::dot(wa.as_slice(), b)
        };
        let pos = score(h_next_t.row(0), h_src_t.row(2));
        let neg = score(h_next_t.row(0), h_src_t.row(1));
        assert!(pos > neg, "pos {pos} should beat neg {neg}");
    }
}
