//! Property-based gradient verification: every differentiable op is checked
//! against central finite differences on randomly generated inputs.
//!
//! f32 finite differences are noisy, so inputs are kept in a moderate range,
//! non-smooth activations are nudged away from their kinks, and the relative
//! tolerance is loose (1e-2 with an absolute floor of 1).

use proptest::prelude::*;
use tensor::gradcheck::{check_binary, check_unary};
use tensor::{softmax_in_place, EdgeRows, Graph, Tensor, Var};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// A small tensor with entries in [-2, 2], nudged away from zero so that
/// relu/leaky-relu kinks and log singularities are avoided.
fn small_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols).prop_map(move |mut v| {
        for x in &mut v {
            if x.abs() < 0.2 {
                *x = if *x >= 0.0 { *x + 0.25 } else { *x - 0.25 };
            }
        }
        Tensor::from_vec(rows, cols, v)
    })
}

/// Strictly positive tensor for log/div-col style ops.
fn positive_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(0.3f32..3.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

fn assert_grad_unary(x: &Tensor, f: impl Fn(&mut Graph, Var) -> Var) {
    let r = check_unary(x, EPS, f);
    prop_assert_ok(r.max_rel_err);
}

fn assert_grad_binary(a: &Tensor, b: &Tensor, f: impl Fn(&mut Graph, Var, Var) -> Var) {
    let (ra, rb) = check_binary(a, b, EPS, f);
    prop_assert_ok(ra.max_rel_err);
    prop_assert_ok(rb.max_rel_err);
}

fn prop_assert_ok(err: f32) {
    assert!(err < TOL, "gradient mismatch: max rel err {err}");
}

/// Weighted sum of the output so the scalar loss exercises every entry with
/// distinct coefficients (a plain sum can hide sign errors that cancel).
fn weighted_sum(g: &mut Graph, v: Var) -> Var {
    let (n, m) = g.shape(v);
    let w = Tensor::from_vec(n, m, (0..n * m).map(|i| 0.3 + 0.1 * i as f32).collect());
    let wv = g.mul_const(v, &w);
    g.sum_all(wv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grad_add(a in small_tensor(3, 4), b in small_tensor(3, 4)) {
        assert_grad_binary(&a, &b, |g, x, y| { let s = g.add(x, y); weighted_sum(g, s) });
    }

    #[test]
    fn grad_sub(a in small_tensor(3, 4), b in small_tensor(3, 4)) {
        assert_grad_binary(&a, &b, |g, x, y| { let s = g.sub(x, y); weighted_sum(g, s) });
    }

    #[test]
    fn grad_mul(a in small_tensor(3, 4), b in small_tensor(3, 4)) {
        assert_grad_binary(&a, &b, |g, x, y| { let s = g.mul(x, y); weighted_sum(g, s) });
    }

    #[test]
    fn grad_matmul(a in small_tensor(3, 4), b in small_tensor(4, 2)) {
        assert_grad_binary(&a, &b, |g, x, y| { let s = g.matmul(x, y); weighted_sum(g, s) });
    }

    #[test]
    fn grad_add_row(a in small_tensor(3, 4), b in small_tensor(1, 4)) {
        assert_grad_binary(&a, &b, |g, x, y| { let s = g.add_row(x, y); weighted_sum(g, s) });
    }

    #[test]
    fn grad_mul_row(a in small_tensor(3, 4), b in small_tensor(1, 4)) {
        assert_grad_binary(&a, &b, |g, x, y| { let s = g.mul_row(x, y); weighted_sum(g, s) });
    }

    #[test]
    fn grad_tile_row(a in small_tensor(1, 4)) {
        assert_grad_unary(&a, |g, x| { let s = g.tile_row(x, 3); weighted_sum(g, s) });
    }

    #[test]
    fn grad_mul_col(a in small_tensor(3, 4), b in small_tensor(3, 1)) {
        assert_grad_binary(&a, &b, |g, x, y| { let s = g.mul_col(x, y); weighted_sum(g, s) });
    }

    #[test]
    fn grad_div_col(a in small_tensor(3, 4), b in positive_tensor(3, 1)) {
        assert_grad_binary(&a, &b, |g, x, y| { let s = g.div_col(x, y); weighted_sum(g, s) });
    }

    #[test]
    fn grad_relu(a in small_tensor(3, 4)) {
        assert_grad_unary(&a, |g, x| { let s = g.relu(x); weighted_sum(g, s) });
    }

    #[test]
    fn grad_sigmoid(a in small_tensor(3, 4)) {
        assert_grad_unary(&a, |g, x| { let s = g.sigmoid(x); weighted_sum(g, s) });
    }

    #[test]
    fn grad_tanh(a in small_tensor(3, 4)) {
        assert_grad_unary(&a, |g, x| { let s = g.tanh(x); weighted_sum(g, s) });
    }

    #[test]
    fn grad_softplus(a in small_tensor(3, 4)) {
        assert_grad_unary(&a, |g, x| { let s = g.softplus(x); weighted_sum(g, s) });
    }

    #[test]
    fn grad_log(a in positive_tensor(2, 3)) {
        assert_grad_unary(&a, |g, x| { let s = g.log(x); weighted_sum(g, s) });
    }

    #[test]
    fn grad_square(a in small_tensor(3, 4)) {
        assert_grad_unary(&a, |g, x| { let s = g.square(x); weighted_sum(g, s) });
    }

    #[test]
    fn grad_sum_rows(a in small_tensor(3, 4)) {
        assert_grad_unary(&a, |g, x| { let s = g.sum_rows(x); weighted_sum(g, s) });
    }

    #[test]
    fn grad_mean_all(a in small_tensor(3, 4)) {
        assert_grad_unary(&a, |g, x| g.mean_all(x));
    }

    #[test]
    fn grad_gather_rows(a in small_tensor(4, 3)) {
        assert_grad_unary(&a, |g, x| {
            let s = g.gather_rows(x, vec![0, 2, 2, 3, 1, 0]);
            weighted_sum(g, s)
        });
    }

    #[test]
    fn grad_rowwise_dot(a in small_tensor(4, 3), b in small_tensor(4, 3)) {
        assert_grad_binary(&a, &b, |g, x, y| { let s = g.rowwise_dot(x, y); weighted_sum(g, s) });
    }

    #[test]
    fn grad_circ_corr(a in small_tensor(3, 5), b in small_tensor(3, 5)) {
        assert_grad_binary(&a, &b, |g, x, y| { let s = g.circ_corr(x, y); weighted_sum(g, s) });
    }

    #[test]
    fn grad_pairwise_sq_dist(a in small_tensor(3, 2), b in small_tensor(4, 2)) {
        assert_grad_binary(&a, &b, |g, x, y| {
            let s = g.pairwise_sq_dist(x, y);
            weighted_sum(g, s)
        });
    }

    #[test]
    fn grad_recip1p(a in positive_tensor(3, 4)) {
        assert_grad_unary(&a, |g, x| { let s = g.recip1p(x); weighted_sum(g, s) });
    }

    #[test]
    fn grad_col_slice(a in small_tensor(4, 3)) {
        assert_grad_unary(&a, |g, x| { let s = g.col_slice(x, 1); weighted_sum(g, s) });
    }

    #[test]
    fn grad_mse(a in small_tensor(4, 1)) {
        let target = Tensor::col_vec(vec![0.5, -1.0, 2.0, 0.0]);
        assert_grad_unary(&a, |g, x| g.mse(x, &target));
    }

    #[test]
    fn grad_composite_student_t_assignment(h in small_tensor(4, 3), c in small_tensor(2, 3)) {
        // Full DEC soft-assignment pipeline: q = t / rowsum(t), t = 1/(1+d^2).
        assert_grad_binary(&h, &c, |g, hv, cv| {
            let d = g.pairwise_sq_dist(hv, cv);
            let t = g.recip1p(d);
            let s = g.sum_rows(t);
            let q = g.div_col(t, s);
            weighted_sum(g, q)
        });
    }
}

/// Plain-tensor algebraic properties.
mod tensor_props {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn matmul_distributes_over_add(
            a in small_tensor(3, 3), b in small_tensor(3, 3), c in small_tensor(3, 3)
        ) {
            let left = a.matmul(&b.add(&c));
            let right = a.matmul(&b).add(&a.matmul(&c));
            for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        #[test]
        fn transpose_of_product(a in small_tensor(2, 3), b in small_tensor(3, 4)) {
            let left = a.matmul(&b).transpose();
            let right = b.transpose().matmul(&a.transpose());
            for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn softmax_in_place_sums_to_one(a in small_tensor(4, 5)) {
            let mut s = a.clone();
            for r in 0..4 {
                softmax_in_place(s.row_mut(r));
            }
            for r in s.rows_iter() {
                let sum: f32 = r.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
            }
        }

        #[test]
        fn pairwise_dists_nonnegative_and_symmetric_on_self(a in small_tensor(4, 3)) {
            let d = a.pairwise_sq_dists(&a);
            for i in 0..4 {
                prop_assert!(d.get(i, i) < 1e-3); // self distance ~ 0
                for j in 0..4 {
                    prop_assert!(d.get(i, j) >= 0.0);
                    prop_assert!((d.get(i, j) - d.get(j, i)).abs() < 1e-3);
                }
            }
        }

        #[test]
        fn l2_normalized_rows_are_unit(a in positive_tensor(3, 4)) {
            let n = a.l2_normalize_rows();
            for r in n.rows_iter() {
                let norm: f32 = r.iter().map(|&x| x * x).sum::<f32>().sqrt();
                prop_assert!((norm - 1.0).abs() < 1e-4);
            }
        }
    }
}

/// Segment of each of the six edges in the fused-kernel checks: a
/// three-edge segment, a one-edge segment and a two-edge segment.
const EDGE_SEGMENTS: [usize; 6] = [0, 0, 1, 0, 2, 2];
/// Source rows of the six edges, with repeats.
const EDGE_SRC: [usize; 6] = [2, 0, 2, 3, 1, 2];

/// `edge_softmax` over the six edges: `a` (3 x 2) gathered by segment,
/// `b` (4 x 2) by source and `c` (1 x 2) broadcast, two heads. The output
/// is scaled up so that gradients of attention weights (all below 1)
/// stand clear of the check's absolute error floor.
fn edge_softmax_loss(g: &mut Graph, a: Var, b: Var, c: Var) -> Var {
    let alpha = g.edge_softmax(
        [
            (a, EdgeRows::Gather(EDGE_SEGMENTS.to_vec())),
            (b, EdgeRows::Gather(EDGE_SRC.to_vec())),
            (c, EdgeRows::Broadcast),
        ],
        EDGE_SEGMENTS.to_vec(),
        3,
        0.2,
    );
    let alpha = g.scale(alpha, 10.0);
    weighted_sum(g, alpha)
}

/// `edge_aggregate` of the six edges: `x` (4 x 3) by source, `y` (3 x 3)
/// by segment, weights `w` (6 x 1), into three segments.
fn edge_aggregate_loss(g: &mut Graph, x: Var, y: Var, w: Var) -> Var {
    let agg = g.edge_aggregate(
        [
            (x, EdgeRows::Gather(EDGE_SRC.to_vec())),
            (y, EdgeRows::Gather(EDGE_SEGMENTS.to_vec())),
        ],
        w,
        EDGE_SEGMENTS.to_vec(),
        3,
    );
    weighted_sum(g, agg)
}

/// The one-operand `edge_softmax` of a score column with one row per edge:
/// LeakyReLU and a softmax within each segment, scaled up as above.
fn own_softmax_loss(g: &mut Graph, s: Var) -> Var {
    let alpha = g.edge_softmax([(s, EdgeRows::Own)], EDGE_SEGMENTS.to_vec(), 3, 0.2);
    let alpha = g.scale(alpha, 10.0);
    weighted_sum(g, alpha)
}

/// The one-operand `edge_softmax` of a two-head operand gathered by
/// source.
fn gathered_softmax_loss(g: &mut Graph, b: Var) -> Var {
    let rows = EdgeRows::Gather(EDGE_SRC.to_vec());
    let alpha = g.edge_softmax([(b, rows)], EDGE_SEGMENTS.to_vec(), 3, 0.2);
    let alpha = g.scale(alpha, 10.0);
    weighted_sum(g, alpha)
}

/// The one-operand `edge_aggregate` of `x` (6 x 3, one row per edge, or
/// 4 x 3 gathered by source) with weights `w` into three segments.
fn one_aggregate_loss(g: &mut Graph, x: Var, rows: EdgeRows, w: Var) -> Var {
    let agg = g.edge_aggregate([(x, rows)], w, EDGE_SEGMENTS.to_vec(), 3);
    weighted_sum(g, agg)
}

proptest! {
    // About half the `grad_edge_softmax` cases land a score near the
    // LeakyReLU kink and are skipped.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grad_edge_softmax(
        a in small_tensor(3, 2),
        b in small_tensor(4, 2),
        c in small_tensor(1, 2),
    ) {
        // Finite differences must step over no LeakyReLU kink; cases
        // with a score near zero are skipped.
        let clear_of_kink = (0..6).all(|e| {
            (0..2).all(|j| {
                let s = (a.get(EDGE_SEGMENTS[e], j) + b.get(EDGE_SRC[e], j)) + c.get(0, j);
                s.abs() > 0.1
            })
        });
        if !clear_of_kink {
            return;
        }
        assert_grad_unary(&a, |g, av| {
            let (bv, cv) = (g.input(b.clone()), g.input(c.clone()));
            edge_softmax_loss(g, av, bv, cv)
        });
        assert_grad_unary(&b, |g, bv| {
            let (av, cv) = (g.input(a.clone()), g.input(c.clone()));
            edge_softmax_loss(g, av, bv, cv)
        });
        assert_grad_unary(&c, |g, cv| {
            let (av, bv) = (g.input(a.clone()), g.input(b.clone()));
            edge_softmax_loss(g, av, bv, cv)
        });
    }

    #[test]
    fn grad_edge_aggregate(
        x in small_tensor(4, 3),
        y in small_tensor(3, 3),
        w in small_tensor(6, 1),
    ) {
        assert_grad_unary(&x, |g, xv| {
            let (yv, wv) = (g.input(y.clone()), g.input(w.clone()));
            edge_aggregate_loss(g, xv, yv, wv)
        });
        assert_grad_unary(&y, |g, yv| {
            let (xv, wv) = (g.input(x.clone()), g.input(w.clone()));
            edge_aggregate_loss(g, xv, yv, wv)
        });
        assert_grad_unary(&w, |g, wv| {
            let (xv, yv) = (g.input(x.clone()), g.input(y.clone()));
            edge_aggregate_loss(g, xv, yv, wv)
        });
    }

    #[test]
    fn grad_edge_softmax_one_operand(s in small_tensor(6, 1), b in small_tensor(4, 2)) {
        // `small_tensor` keeps every entry clear of the LeakyReLU kink.
        assert_grad_unary(&s, own_softmax_loss);
        assert_grad_unary(&b, gathered_softmax_loss);
    }

    #[test]
    fn grad_edge_aggregate_one_operand(
        own in small_tensor(6, 3),
        src in small_tensor(4, 3),
        w in small_tensor(6, 1),
    ) {
        assert_grad_unary(&own, |g, xv| {
            let wv = g.input(w.clone());
            one_aggregate_loss(g, xv, EdgeRows::Own, wv)
        });
        assert_grad_unary(&src, |g, xv| {
            let wv = g.input(w.clone());
            one_aggregate_loss(g, xv, EdgeRows::Gather(EDGE_SRC.to_vec()), wv)
        });
        assert_grad_unary(&w, |g, wv| {
            let xv = g.input(own.clone());
            one_aggregate_loss(g, xv, EdgeRows::Own, wv)
        });
    }

    #[test]
    fn grad_composite_attention(x in small_tensor(6, 3)) {
        // Attention from the messages' own row sums, then aggregation of
        // those messages: both kernels' gradients meet in `x`.
        let clear_of_kink = x.rows_iter().all(|r| r.iter().sum::<f32>().abs() > 0.1);
        if !clear_of_kink {
            return;
        }
        assert_grad_unary(&x, |g, xv| {
            let scores = g.sum_rows(xv);
            let alpha = g.edge_softmax([(scores, EdgeRows::Own)], EDGE_SEGMENTS.to_vec(), 3, 0.2);
            let agg = g.edge_aggregate([(xv, EdgeRows::Own)], alpha, EDGE_SEGMENTS.to_vec(), 3);
            weighted_sum(g, agg)
        });
    }

    #[test]
    fn grad_stack_rows(a in small_tensor(2, 3), b in small_tensor(1, 3), c in small_tensor(3, 3)) {
        assert_grad_binary(&a, &b, |g, x, y| {
            let z = g.input(c.clone());
            let s = g.stack_rows(&[x, z, y]);
            weighted_sum(g, s)
        });
    }
}
