//! `node_update` against a reference of the HGN layer in its concat form.
//!
//! The reference below is the layer as the equations read: each edge's
//! Eq. 3 message is `[φ(h_u, h_e) ‖ h_v] · W_a`, each Eq. 14 score is
//! `[h_v ‖ h_e ‖ h_u] · a` per head, and each Eq. 15 score is
//! `[h_v ‖ h_e ‖ agg] · a` per head, with every concatenation built per
//! edge or per slot. The layer stores its weights split
//! ([`LayerParams`]); the reference reassembles the concat-form ones from
//! those parameters: `W_a` as `[W_a[:d]; W_a[d:]]` and head `k`'s `3d x 1`
//! vector as `[A_v·e_k; A_e·e_k; A_u·e_k]` (`e_k` the `k`-th unit column).
//! Each column concatenation is `sum_i x_i·S_i` with constant selection
//! matrices, which is exact. Each head's concat-form score column goes through
//! `edge_softmax` as its one `Own` operand (LeakyReLU and segment softmax,
//! held to a written-out loop in the tensor crate's `edge_kernels` tests),
//! and each weighted sum through a one-operand `edge_aggregate`.
//! `node_update` computes the same function split at the concat
//! boundaries, once per node or per type, so the two differ only by float
//! summation order. The tests hold the output and the gradients of both
//! `W_a` halves, `w_self`, every type's and the link heads' `A_v`, `A_e`
//! and `A_u`, and `h_src` to the reference within [`REL_TOL`] of each
//! tensor's largest magnitude.

use catehgn::config::{Composition, ModelConfig};
use catehgn::layer::{compose, node_update, LayerParams};
use dblp_sim::{Dataset, WorldConfig};
use hetgraph::{sample_blocks, Block};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
use tensor::{EdgeRows, Graph, ParamId, Params, Tensor, Var};

/// Largest allowed `max |got - want| / max |want|` per compared tensor.
const REL_TOL: f32 = 1e-4;

/// `[x_1 ‖ .. ‖ x_K]` for `n x d` inputs, as `sum_i x_i·S_i` with the
/// constant `d x K·d` selection matrix `S_i = [0 .. I .. 0]` (`I` in
/// block `i`): each entry of the result is one input entry times 1 plus
/// zeros, so the values are exact, and each input's gradient is its
/// column block of the output's.
fn concat_cols(g: &mut Graph, parts: &[Var]) -> Var {
    let d = g.shape(parts[0]).1;
    let width = parts.len() * d;
    let mut sum: Option<Var> = None;
    for (i, &x) in parts.iter().enumerate() {
        let mut sel = Tensor::zeros(d, width);
        for r in 0..d {
            sel.set(r, i * d + r, 1.0);
        }
        let sel = g.input(sel);
        let term = g.matmul(x, sel);
        sum = Some(match sum {
            None => term,
            Some(prev) => g.add(prev, term),
        });
    }
    sum.expect("at least one part")
}

/// Head-averaged `softmax(leaky_relu(feat · a_k))` within each of the
/// `n_seg` segments, where head `k`'s `3d x 1` vector `a_k` is
/// `[A_v·e_k; A_e·e_k; A_u·e_k]` for the split weights `blocks`.
fn reference_heads(
    g: &mut Graph,
    params: &Params,
    feat: Var,
    blocks: [ParamId; 3],
    segments: &[usize],
    n_seg: usize,
) -> Var {
    let blocks = blocks.map(|id| g.param(params, id));
    let n_heads = g.shape(blocks[0]).1;
    let mut sum: Option<Var> = None;
    for k in 0..n_heads {
        let mut unit = Tensor::zeros(n_heads, 1);
        unit.set(k, 0, 1.0);
        let e_k = g.input(unit);
        let cols = blocks.map(|a| g.matmul(a, e_k));
        let a = g.stack_rows(&cols);
        let s = g.matmul(feat, a);
        let sm = g.edge_softmax([(s, EdgeRows::Own)], segments.to_vec(), n_seg, 0.2);
        sum = Some(match sum {
            None => sm,
            Some(prev) => g.add(prev, sm),
        });
    }
    let sum = sum.expect("at least one head");
    g.scale(sum, 1.0 / n_heads as f32)
}

/// The HGN layer with every product over a per-edge or per-slot
/// concatenation.
fn reference_node_update(
    g: &mut Graph,
    params: &Params,
    lp: &LayerParams,
    cfg: &ModelConfig,
    block: &Block,
    h_src: Var,
    h_edge: &[Var],
) -> Var {
    let n_dst = block.dst_nodes.len();
    let attn = cfg.ablation.attention;
    let halves = lp.w_a.map(|id| g.param(params, id));
    let w_a = g.stack_rows(&halves);
    let mut stacked: Option<(Var, Var)> = None;
    let mut segments = Vec::new();
    for (lt, edges) in block.edges_by_type.iter().enumerate() {
        if edges.is_empty() {
            continue;
        }
        let src: Vec<usize> = edges.iter().map(|e| e.src_pos as usize).collect();
        let dst: Vec<usize> = edges.iter().map(|e| e.dst_pos as usize).collect();
        let prev: Vec<usize> = dst.iter().map(|&d| block.dst_in_src[d] as usize).collect();
        let mut active = dst.clone();
        active.sort_unstable();
        active.dedup();
        let slot: Vec<usize> = dst
            .iter()
            .map(|d| active.binary_search(d).unwrap())
            .collect();
        let active_prev: Vec<usize> = active
            .iter()
            .map(|&d| block.dst_in_src[d] as usize)
            .collect();

        let h_u = g.gather_rows(h_src, src);
        let h_v = g.gather_rows(h_src, prev);
        let e_tiled = g.tile_row(h_edge[lt], dst.len());
        let phi = compose(g, h_u, e_tiled, cfg.composition);
        let msg_in = concat_cols(g, &[phi, h_v]);
        let msg = g.matmul(msg_in, w_a);
        let alpha = if attn {
            let feat = concat_cols(g, &[h_v, e_tiled, h_u]);
            reference_heads(g, params, feat, lp.a_node[lt], &dst, n_dst)
        } else {
            let mut deg = vec![0.0f32; n_dst];
            for &d in &dst {
                deg[d] += 1.0;
            }
            g.input(Tensor::col_vec(dst.iter().map(|&d| 1.0 / deg[d]).collect()))
        };
        let agg = g.edge_aggregate([(msg, EdgeRows::Own)], alpha, slot, active.len());

        let h_v_slot = g.gather_rows(h_src, active_prev);
        let e_slot = g.tile_row(h_edge[lt], active.len());
        let feat = concat_cols(g, &[h_v_slot, e_slot, agg]);
        segments.extend_from_slice(&active);
        stacked = Some(match stacked {
            None => (agg, feat),
            Some((prev_agg, prev_feat)) => (
                g.stack_rows(&[prev_agg, agg]),
                g.stack_rows(&[prev_feat, feat]),
            ),
        });
    }

    let prev_idx: Vec<usize> = block.dst_in_src.iter().map(|&p| p as usize).collect();
    let h_prev_dst = g.gather_rows(h_src, prev_idx);
    let w_self = g.param(params, lp.w_self);
    let self_term = g.matmul(h_prev_dst, w_self);
    let Some((stacked_agg, stacked_feat)) = stacked else {
        return g.relu(self_term);
    };
    let beta = if attn {
        reference_heads(g, params, stacked_feat, lp.a_link, &segments, n_dst)
    } else {
        let mut cnt = vec![0.0f32; n_dst];
        for &s in &segments {
            cnt[s] += 1.0;
        }
        g.input(Tensor::col_vec(
            segments.iter().map(|&s| 1.0 / cnt[s]).collect(),
        ))
    };
    let agg = g.edge_aggregate([(stacked_agg, EdgeRows::Own)], beta, segments, n_dst);
    let combined = g.add(agg, self_term);
    g.relu(combined)
}

/// Values in `[-1, 1)` from a fixed LCG stream.
fn filled(rows: usize, cols: usize, seed: u32) -> Tensor {
    let mut state = seed;
    let data = (0..rows * cols)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1u32 << 23) as f32 - 1.0
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Output and gradients of one layer run on a fresh tape.
struct Run {
    out: Tensor,
    /// Per parameter: its gradient, summed over bindings.
    param_grads: Vec<(ParamId, Tensor)>,
    h_src_grad: Tensor,
}

type LayerFn = fn(&mut Graph, &Params, &LayerParams, &ModelConfig, &Block, Var, &[Var]) -> Var;

fn run(
    layer: LayerFn,
    params: &Params,
    lp: &LayerParams,
    cfg: &ModelConfig,
    block: &Block,
    n_link_types: usize,
) -> Run {
    let d = cfg.dim;
    let mut g = Graph::new();
    let h_src = g.input(filled(block.src_nodes.len(), d, 7));
    let h_edge: Vec<Var> = (0..n_link_types)
        .map(|t| g.input(filled(1, d, 100 + t as u32)))
        .collect();
    let out = layer(&mut g, params, lp, cfg, block, h_src, &h_edge);
    // A weighted sum, so every output entry reaches the loss with its own
    // coefficient.
    let (n, m) = g.shape(out);
    let w = filled(n, m, 31);
    let weighted = g.mul_const(out, &w);
    let loss = g.sum_all(weighted);
    g.backward(loss);
    Run {
        out: g.value(out).clone(),
        param_grads: g.collect_param_grads(),
        h_src_grad: g.grad(h_src).expect("h_src reaches the loss").clone(),
    }
}

/// Columns `cols` of the gradients of the split parameters `blocks`,
/// stacked row-wise: the gradient of (part of) the concat-layout weight
/// they hold. `None` when no block got a gradient.
fn concat_grad(r: &Run, blocks: &[ParamId], cols: Range<usize>, name: &str) -> Option<Tensor> {
    let grads: Vec<Option<&Tensor>> = blocks
        .iter()
        .map(|id| r.param_grads.iter().find(|(p, _)| p == id).map(|(_, t)| t))
        .collect();
    if grads.iter().all(Option::is_none) {
        return None;
    }
    let rows: Vec<f32> = grads
        .iter()
        .flat_map(|t| {
            let t = t.unwrap_or_else(|| panic!("{name}: only some blocks have a gradient"));
            t.rows_iter().flat_map(|row| row[cols.clone()].to_vec())
        })
        .collect();
    Some(Tensor::from_vec(rows.len() / cols.len(), cols.len(), rows))
}

fn rel_err(got: &Tensor, want: &Tensor) -> f32 {
    assert_eq!(got.shape(), want.shape());
    let scale = want
        .as_slice()
        .iter()
        .fold(0.0f32, |m, x| m.max(x.abs()))
        .max(1e-6);
    let diff = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
    diff / scale
}

#[test]
fn node_update_matches_concat_form_reference() {
    let ds = Dataset::full(&WorldConfig::tiny(), 8);
    let n_link_types = ds.graph.schema().num_link_types();
    let mut seeds: Vec<_> = ds.paper_nodes.iter().take(12).copied().collect();
    seeds.extend(ds.author_nodes.iter().take(3).copied());
    seeds.extend(ds.term_nodes.iter().take(3).copied());
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let blocks = sample_blocks(&ds.graph, &seeds, 1, 6, &mut rng);
    let block = &blocks[0];
    let types_with_edges = block.edges_by_type.iter().filter(|e| !e.is_empty()).count();
    assert!(types_with_edges >= 3, "the block must mix link types");

    let mut cases = 0;
    for composition in [Composition::Sub, Composition::Mult, Composition::CircCorr] {
        for attention in [true, false] {
            for heads in [1, 4] {
                for dim in [8, 32] {
                    let mut cfg = ModelConfig {
                        composition,
                        dim,
                        heads_node: heads,
                        heads_link: heads,
                        ..ModelConfig::test_tiny()
                    };
                    cfg.ablation.attention = attention;
                    let what =
                        format!("{composition:?}, attention {attention}, {heads} heads, d = {dim}");
                    let mut params = Params::new();
                    let mut prng = ChaCha8Rng::seed_from_u64(dim as u64 + heads as u64);
                    let lp = LayerParams::init(&mut params, 0, dim, n_link_types, &cfg, &mut prng);

                    let got = run(node_update, &params, &lp, &cfg, block, n_link_types);
                    let want = run(
                        reference_node_update,
                        &params,
                        &lp,
                        &cfg,
                        block,
                        n_link_types,
                    );
                    let err = rel_err(&got.out, &want.out);
                    assert!(err < REL_TOL, "output: rel err {err} ({what})");
                    let err = rel_err(&got.h_src_grad, &want.h_src_grad);
                    assert!(err < REL_TOL, "h_src grad: rel err {err} ({what})");

                    // Each gradient is compared as part of the concat-layout
                    // weight it belongs to: `W_a` whole, and each head's
                    // `3d x 1` vector. A lone `A_v` or `A_e` block can be all
                    // rounding noise, since a score term that a whole
                    // segment shares cancels in its softmax wherever the
                    // LeakyReLU is linear over the segment.
                    let mut checked: Vec<(&[ParamId], Range<usize>)> = vec![
                        (&lp.w_a, 0..dim),
                        (std::slice::from_ref(&lp.w_self), 0..dim),
                    ];
                    if attention {
                        for blocks in lp.a_node.iter().chain([&lp.a_link]) {
                            checked.extend((0..heads).map(|k| (&blocks[..], k..k + 1)));
                        }
                    }
                    for (blocks, cols) in checked {
                        let name = format!("{} columns {cols:?}", params.name(blocks[0]));
                        let got_g = concat_grad(&got, blocks, cols.clone(), &name);
                        let want_g = concat_grad(&want, blocks, cols, &name);
                        assert_eq!(
                            got_g.is_some(),
                            want_g.is_some(),
                            "{name}: gradient presence differs ({what})"
                        );
                        if let (Some(a), Some(b)) = (got_g, want_g) {
                            let err = rel_err(&a, &b);
                            assert!(err < REL_TOL, "{name} grad: rel err {err} ({what})");
                        }
                    }
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 24);
}
