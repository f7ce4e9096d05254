//! The baselines' split-form attention against the concat form it
//! computes.
//!
//! GAT, HAN, MAGNN and HetGNN score an edge as `[h_v ‖ h_u]·a`. They store
//! each head's `2d x 1` vector `a` as the `d x H` halves `A_v` and `A_u`
//! ([`pair_attention_params`]) and compute `h_v·A_v + h_u·A_u`, once per
//! row ([`pair_attention`]). The reference below draws each head's `a`
//! from the same seed as one `2d x 1` parameter, as the models once did,
//! builds `[h_v ‖ h_u]` per edge and multiplies. The two differ only by
//! float summation order, so the attention-weighted aggregate and the
//! gradients of `a`, its halves and the inputs agree within [`REL_TOL`] of
//! each tensor's largest magnitude. A swap of the two halves, in the
//! layout or in the product, fails them.

use baselines::common::{pair_attention, pair_attention_params};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::{EdgeRows, Graph, Initializer, ParamId, Params, Tensor, Var};

/// Largest allowed `max |got - want| / max |want|` per compared tensor.
const REL_TOL: f32 = 1e-4;

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

fn rel_err(got: &[f32], want: &[f32]) -> f32 {
    assert_eq!(got.len(), want.len());
    let scale = want.iter().fold(0.0f32, |m, x| m.max(x.abs())).max(1e-6);
    let diff = got
        .iter()
        .zip(want)
        .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
    diff / scale
}

/// One attention layout: `h_v` and `h_u` read per edge through their
/// rows, edge `e` in segment `segments[e]`.
struct Layout {
    h_v: Tensor,
    v_rows: EdgeRows,
    h_u: Tensor,
    u_rows: EdgeRows,
    segments: Vec<usize>,
    n_seg: usize,
    heads: usize,
}

/// Output and gradients of one form: the aggregate, the inputs'
/// gradients, and per head the gradient of `[a_v; a_u]`.
struct Run {
    out: Vec<f32>,
    input_grads: Vec<Vec<f32>>,
    head_grads: Vec<Vec<f32>>,
}

/// Runs `attend` over the layout, aggregates `h_u`'s rows with the
/// weights, and backpropagates a weighted sum of the aggregate.
fn run(
    lay: &Layout,
    attend: &dyn Fn(&mut Graph, Var, Var) -> Var,
    head_grads: &dyn Fn(&Graph) -> Vec<Vec<f32>>,
) -> Run {
    let mut g = Graph::new();
    let h_v = g.input_from(&lay.h_v);
    let h_u = g.input_from(&lay.h_u);
    let alpha = attend(&mut g, h_v, h_u);
    let agg = g.edge_aggregate(
        [(h_u, lay.u_rows.clone())],
        alpha,
        lay.segments.clone(),
        lay.n_seg,
    );
    let (n, m) = g.shape(agg);
    let weighted = g.mul_const(agg, &filled(n, m, 31));
    let loss = g.sum_all(weighted);
    g.backward(loss);
    Run {
        out: g.value(agg).as_slice().to_vec(),
        input_grads: [h_v, h_u]
            .map(|v| {
                g.grad(v)
                    .expect("input reaches the loss")
                    .as_slice()
                    .to_vec()
            })
            .to_vec(),
        head_grads: head_grads(&g),
    }
}

/// The gradient of parameter `id`, summed over its bindings.
fn param_grad(g: &Graph, id: ParamId) -> Tensor {
    let mut grads = g
        .bindings()
        .iter()
        .filter(|(p, _)| *p == id)
        .map(|&(_, v)| g.grad(v).expect("parameter reaches the loss").clone());
    let first = grads.next().expect("parameter is bound");
    grads.fold(first, |acc, t| acc.add(&t))
}

fn check(lay: &Layout, what: &str) {
    let d = lay.h_v.cols();
    let seed = 5;

    let mut split = Params::new();
    let att = pair_attention_params(
        &mut split,
        "a",
        d,
        lay.heads,
        &mut ChaCha8Rng::seed_from_u64(seed),
    );
    let got = run(
        lay,
        &|g, h_v, h_u| {
            pair_attention(
                g,
                &split,
                att,
                (h_v, lay.v_rows.clone()),
                (h_u, lay.u_rows.clone()),
                lay.segments.clone(),
                lay.n_seg,
            )
        },
        &|g| {
            let [gv, gu] = att.map(|id| param_grad(g, id));
            (0..lay.heads)
                .map(|k| {
                    (0..2 * d)
                        .map(|r| {
                            if r < d {
                                gv.get(r, k)
                            } else {
                                gu.get(r - d, k)
                            }
                        })
                        .collect()
                })
                .collect()
        },
    );

    let mut concat = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let heads: Vec<ParamId> = (0..lay.heads)
        .map(|k| {
            concat.add_init(
                format!("a{k}"),
                2 * d,
                1,
                Initializer::XavierUniform,
                &mut rng,
            )
        })
        .collect();
    let pick = |g: &mut Graph, x: Var, rows: &EdgeRows| match rows {
        EdgeRows::Gather(idx) => g.gather_rows(x, idx.clone()),
        _ => x,
    };
    let want = run(
        lay,
        &|g, h_v, h_u| {
            let v = pick(g, h_v, &lay.v_rows);
            let u = pick(g, h_u, &lay.u_rows);
            let feat = g.concat_cols(v, u);
            let mut sum: Option<Var> = None;
            for &id in &heads {
                let a = g.param(&concat, id);
                let s = g.matmul(feat, a);
                let segs = lay.segments.clone();
                let sm = g.edge_softmax([(s, EdgeRows::Own)], segs, lay.n_seg, 0.2);
                sum = Some(match sum {
                    None => sm,
                    Some(prev) => g.add(prev, sm),
                });
            }
            let sum = sum.expect("at least one head");
            g.scale(sum, 1.0 / heads.len() as f32)
        },
        &|g| {
            heads
                .iter()
                .map(|&id| param_grad(g, id).as_slice().to_vec())
                .collect()
        },
    );

    let err = rel_err(&got.out, &want.out);
    assert!(err < REL_TOL, "{what}: output rel err {err}");
    for (k, (a, b)) in got.input_grads.iter().zip(&want.input_grads).enumerate() {
        let err = rel_err(a, b);
        assert!(err < REL_TOL, "{what}: input {k} grad rel err {err}");
    }
    for (k, (a, b)) in got.head_grads.iter().zip(&want.head_grads).enumerate() {
        let err = rel_err(a, b);
        assert!(err < REL_TOL, "{what}: head {k} grad rel err {err}");
    }
}

/// GAT's layout: one projected frontier `Wh` read as destination rows
/// (`prev`) and source rows (`src`), with a self-loop per destination, two
/// heads.
#[test]
fn gat_split_attention_matches_concat_form() {
    for d in [8, 32] {
        let n_src = 9;
        let wh = filled(n_src, d, 7);
        // Destinations 0..4 sit at frontier rows 0..4; then self-loops.
        let mut src = vec![5, 6, 7, 5, 8, 6, 8, 7];
        let mut dst = vec![0, 0, 1, 1, 2, 3, 3, 3];
        src.extend(0..4);
        dst.extend(0..4);
        let lay = Layout {
            h_v: wh.clone(),
            v_rows: EdgeRows::Gather(dst.clone()),
            h_u: wh,
            u_rows: EdgeRows::Gather(src),
            segments: dst,
            n_seg: 4,
            heads: 2,
        };
        check(&lay, &format!("GAT, d = {d}"));
    }
}

/// HetGNN's layout: each paper's own embedding against the stacked
/// candidates `{self} ∪ per-type aggregates`, one row per edge, one head.
#[test]
fn hetgnn_split_attention_matches_concat_form() {
    for d in [8, 32] {
        let (bsz, candidates) = (5, 5);
        let seg: Vec<usize> = (0..candidates).flat_map(|_| 0..bsz).collect();
        let lay = Layout {
            h_v: filled(bsz, d, 3),
            v_rows: EdgeRows::Gather(seg.clone()),
            h_u: filled(bsz * candidates, d, 4),
            u_rows: EdgeRows::Own,
            segments: seg,
            n_seg: bsz,
            heads: 1,
        };
        check(&lay, &format!("HetGNN, d = {d}"));
    }
}
