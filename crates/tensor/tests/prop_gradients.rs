//! Property-based gradient verification: every differentiable op is checked
//! against central finite differences on randomly generated inputs.
//!
//! f32 finite differences are noisy, so inputs are kept in a moderate range,
//! non-smooth activations are nudged away from their kinks, and the relative
//! tolerance is loose (1e-2 with an absolute floor of 1).

use proptest::prelude::*;
use tensor::gradcheck::{check_binary, check_unary};
use tensor::{Graph, Tensor, Var};

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
    fn grad_transpose(a in small_tensor(3, 4)) {
        assert_grad_unary(&a, |g, x| { let s = g.transpose(x); weighted_sum(g, s) });
    }

    #[test]
    fn grad_relu(a in small_tensor(3, 4)) {
        assert_grad_unary(&a, |g, x| { let s = g.relu(x); weighted_sum(g, s) });
    }

    #[test]
    fn grad_leaky_relu(a in small_tensor(3, 4)) {
        assert_grad_unary(&a, |g, x| { let s = g.leaky_relu(x, 0.2); weighted_sum(g, s) });
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
    fn grad_softmax_rows(a in small_tensor(3, 4)) {
        assert_grad_unary(&a, |g, x| { let s = g.softmax_rows(x); weighted_sum(g, s) });
    }

    #[test]
    fn grad_concat_cols(a in small_tensor(3, 2), b in small_tensor(3, 3)) {
        assert_grad_binary(&a, &b, |g, x, y| { let s = g.concat_cols(x, y); weighted_sum(g, s) });
    }

    #[test]
    fn grad_gather_rows(a in small_tensor(4, 3)) {
        assert_grad_unary(&a, |g, x| {
            let s = g.gather_rows(x, vec![0, 2, 2, 3, 1, 0]);
            weighted_sum(g, s)
        });
    }

    #[test]
    fn grad_segment_sum(a in small_tensor(5, 3)) {
        assert_grad_unary(&a, |g, x| {
            let s = g.segment_sum(x, vec![0, 1, 1, 2, 0], 3);
            weighted_sum(g, s)
        });
    }

    #[test]
    fn grad_segment_softmax(a in small_tensor(6, 1)) {
        assert_grad_unary(&a, |g, x| {
            let s = g.segment_softmax(x, vec![0, 0, 1, 1, 1, 2]);
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

    #[test]
    fn grad_composite_attention(a in small_tensor(5, 3)) {
        // Segment-softmax attention weighting then aggregation.
        assert_grad_unary(&a, |g, x| {
            let ones = Tensor::col_vec(vec![0.9, 0.4, -0.3, 0.7, 0.2]);
            let scores = g.input(ones);
            let alpha = g.segment_softmax(scores, vec![0, 0, 1, 1, 1]);
            let weighted = g.mul_col(x, alpha);
            let agg = g.segment_sum(weighted, vec![0, 0, 1, 1, 1], 2);
            weighted_sum(g, agg)
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
        fn softmax_rows_sum_to_one(a in small_tensor(4, 5)) {
            let s = a.softmax_rows();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grad_concat_rows(a in small_tensor(2, 3), b in small_tensor(4, 3)) {
        assert_grad_binary(&a, &b, |g, x, y| { let s = g.concat_rows(x, y); weighted_sum(g, s) });
    }
}
