//! Property tests for the parallel blocked matmul family: at every thread
//! count the blocked kernels must be *bitwise* equal to the retained serial
//! reference implementations in [`tensor::tensor::reference`].
//!
//! The thread count is process-global, so each case runs the whole
//! {1, 2, 4, 8}-thread sweep under a shared lock instead of splitting the
//! sweep across #[test] functions.

use proptest::prelude::*;
use tensor::tensor::reference;
use tensor::{par, Tensor};

/// Serialises access to the process-global thread override.
static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Dimensions biased toward the interesting edges: empty, single, below /
/// at / above the kernel's MR=4, NR=16 and NRW=32 block boundaries, and
/// non-divisible sizes.
const DIMS: [usize; 12] = [0, 1, 2, 3, 4, 5, 7, 16, 17, 32, 33, 41];

fn dim() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

/// Deterministic, mildly irregular fill so every (shape, seed) case sees
/// distinct data without needing flat-mapped strategies.
fn fill(rows: usize, cols: usize, state: &mut f32) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            *state = (*state * 1.3 + i as f32 * 0.7).rem_euclid(37.0) - 18.0;
            *state / 5.0
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

fn assert_bitwise(tag: &str, got: &Tensor, want: &Tensor, threads: usize) {
    assert_eq!(
        got.shape(),
        want.shape(),
        "{tag}: shape at {threads} threads"
    );
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{tag}: element {i} differs at {threads} threads: {x:?} vs {y:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `A (n x k) * B (k x m)` is bitwise-stable across thread counts and
    /// equal to the serial reference.
    #[test]
    fn matmul_matches_reference_at_all_thread_counts(
        (n, k, m) in (dim(), dim(), dim()),
        seed in 0.0f32..64.0,
    ) {
        let mut state = seed;
        let a = fill(n, k, &mut state);
        let b = fill(k, m, &mut state);
        let want = reference::matmul(&a, &b);
        let _guard = THREADS.lock().unwrap();
        for t in THREAD_COUNTS {
            par::set_num_threads(t);
            let got = a.matmul(&b);
            assert_bitwise("matmul", &got, &want, t);
        }
        par::set_num_threads(0);
    }

    /// `A (n x k) * B^T (m x k)` bitwise-matches the reference.
    #[test]
    fn matmul_tb_matches_reference_at_all_thread_counts(
        (n, k, m) in (dim(), dim(), dim()),
        seed in 0.0f32..64.0,
    ) {
        let mut state = seed + 0.5;
        let a = fill(n, k, &mut state);
        let bt = fill(m, k, &mut state);
        let want = reference::matmul_tb(&a, &bt);
        let _guard = THREADS.lock().unwrap();
        for t in THREAD_COUNTS {
            par::set_num_threads(t);
            let got = a.matmul_tb(&bt);
            assert_bitwise("matmul_tb", &got, &want, t);
        }
        par::set_num_threads(0);
    }

    /// The fused backward pair `dA = dC * B^T`, `dB = A^T * dC`
    /// ([`Tensor::matmul_grads_into`], one pool region for both products)
    /// bitwise-matches the two separate reference products at every
    /// thread count.
    #[test]
    fn fused_matmul_grads_match_references_at_all_thread_counts(
        (n, k, m) in (dim(), dim(), dim()),
        seed in 0.0f32..64.0,
    ) {
        let mut state = seed + 0.75;
        let a = fill(n, k, &mut state);
        let b = fill(k, m, &mut state);
        let dc = fill(n, m, &mut state);
        let want_da = reference::matmul_tb(&dc, &b);
        let want_db = reference::matmul_ta(&a, &dc);
        let _guard = THREADS.lock().unwrap();
        for t in THREAD_COUNTS {
            par::set_num_threads(t);
            let mut da = Tensor::zeros(n, k);
            let mut db = Tensor::zeros(k, m);
            dc.matmul_grads_into(&a, &b, &mut da, &mut db);
            assert_bitwise("fused dA", &da, &want_da, t);
            assert_bitwise("fused dB", &db, &want_db, t);
        }
        par::set_num_threads(0);
    }

    /// The pooled `par_*` primitives themselves are bitwise-stable across
    /// thread counts: chunk assignment is a pure function of the
    /// configured width, and job scheduling cannot reorder results.
    #[test]
    fn pooled_primitives_are_bitwise_stable_across_thread_counts(
        n in 0usize..200,
        seed in 0.0f32..64.0,
    ) {
        // 1 + 2^-10, written as an expression: exactly representable,
        // and clippy rejects the full decimal literal as excess precision.
        let scale = 1.0f32 + 1.0 / 1024.0;
        let task = |i: usize| (seed + i as f32) * scale - seed * 0.5;
        let want_map: Vec<f32> = (0..n).map(task).collect();
        let mut state = seed;
        let src = fill(n, 3, &mut state);
        let mut want_rows = vec![0.0f32; n * 3];
        for (i, v) in want_rows.iter_mut().enumerate() {
            *v = src.as_slice()[i] * 2.5 + 1.0;
        }
        let _guard = THREADS.lock().unwrap();
        for t in [1usize, 2, 4] {
            par::set_num_threads(t);
            let got = par::par_map(n, task);
            assert_eq!(got, want_map, "par_map at {t} threads");
            let mut items: Vec<f32> = (0..n).map(|i| i as f32).collect();
            par::par_for_each_mut(&mut items, |i, item| *item = task(i));
            assert_eq!(items, want_map, "par_for_each_mut at {t} threads");
            let mut out = vec![0.0f32; n * 3];
            // Force dispatch: work_per_row large enough to clear the
            // serial threshold whenever there are rows at all.
            par::par_row_chunks_mut(&mut out, 3, par::PAR_THRESHOLD, |lo, _hi, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = src.as_slice()[lo * 3 + j] * 2.5 + 1.0;
                }
            });
            assert_eq!(out, want_rows, "par_row_chunks_mut at {t} threads");
        }
        par::set_num_threads(0);
    }

    /// The chunked dot product is deterministic and stays within
    /// gradcheck-grade agreement of the plain sequential sum (it
    /// reassociates, so exact equality is not required).
    #[test]
    fn dot_is_deterministic_and_close_to_sequential(
        v in proptest::collection::vec(-2.0f32..2.0, 0..130),
    ) {
        let w: Vec<f32> = v.iter().map(|x| x * 0.5 + 0.1).collect();
        let seq: f64 = v.iter().zip(&w).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        let got = tensor::dot(&v, &w);
        let got2 = tensor::dot(&v, &w);
        assert_eq!(got.to_bits(), got2.to_bits(), "dot must be deterministic");
        let tol = 1e-4 * (1.0 + seq.abs());
        assert!(
            ((got as f64) - seq).abs() < tol,
            "dot {got} too far from sequential {seq}"
        );
    }
}

/// Narrow `n x k · k x 1` shapes, sized so the forward's `n·k` and the
/// backward's `2·n·k` clear [`par::PAR_THRESHOLD`] for every `k > 1`: the
/// small-dimension strategy above never reaches a multi-worker narrow
/// product.
fn narrow() -> impl Strategy<Value = (usize, usize)> {
    (0usize..3, 0usize..4).prop_map(|(i, j)| ([12287, 12288, 16387][i], [1, 95, 96, 97][j]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The narrow forward and fused backward kernels bitwise-match the
    /// references at every thread count, above the parallel threshold.
    #[test]
    fn narrow_products_match_references_at_all_thread_counts(
        (n, k) in narrow(),
        seed in 0.0f32..64.0,
    ) {
        let mut state = seed + 0.125;
        let a = fill(n, k, &mut state);
        let b = fill(k, 1, &mut state);
        let dc = fill(n, 1, &mut state);
        let want = reference::matmul(&a, &b);
        let want_da = reference::matmul_tb(&dc, &b);
        let want_db = reference::matmul_ta(&a, &dc);
        let _guard = THREADS.lock().unwrap();
        for t in THREAD_COUNTS {
            par::set_num_threads(t);
            assert_bitwise("narrow matmul", &a.matmul(&b), &want, t);
            let mut da = Tensor::zeros(n, k);
            let mut db = Tensor::zeros(k, 1);
            dc.matmul_grads_into(&a, &b, &mut da, &mut db);
            assert_bitwise("narrow dA", &da, &want_da, t);
            assert_bitwise("narrow dB", &db, &want_db, t);
        }
        par::set_num_threads(0);
    }
}

/// Bitwise equality that also accepts any NaN for a NaN: IEEE leaves the
/// payload of a NaN result to the hardware.
fn assert_same_bits(tag: &str, got: &[f32], want: &[f32], threads: usize) {
    assert_eq!(got.len(), want.len(), "{tag}: length at {threads} threads");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{tag}: element {i} differs at {threads} threads: {x:?} vs {y:?}"
        );
    }
}

/// Checks the narrow forward and fused backward kernels against a plain
/// scalar loop that sums from `+0.0` in ascending index order — the order
/// the kernels promise — at every thread count.
fn check_narrow_against_scalar_loop(a: &Tensor, b: &Tensor, dc: &Tensor) {
    let (n, k) = a.shape();
    let (av, bv, gv) = (a.as_slice(), b.as_slice(), dc.as_slice());
    let mut want = vec![0.0f32; n];
    for (r, w) in want.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for p in 0..k {
            acc += av[r * k + p] * bv[p];
        }
        *w = acc;
    }
    let mut want_da = vec![0.0f32; n * k];
    for r in 0..n {
        for p in 0..k {
            want_da[r * k + p] = 0.0 + gv[r] * bv[p];
        }
    }
    let mut want_db = vec![0.0f32; k];
    for (p, w) in want_db.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for r in 0..n {
            acc += av[r * k + p] * gv[r];
        }
        *w = acc;
    }
    let _guard = THREADS.lock().unwrap();
    for t in THREAD_COUNTS {
        par::set_num_threads(t);
        assert_same_bits("narrow matmul", a.matmul(b).as_slice(), &want, t);
        let mut da = Tensor::zeros(n, k);
        let mut db = Tensor::zeros(k, 1);
        dc.matmul_grads_into(a, b, &mut da, &mut db);
        assert_same_bits("narrow dA", da.as_slice(), &want_da, t);
        assert_same_bits("narrow dB", db.as_slice(), &want_db, t);
    }
    par::set_num_threads(0);
}

/// Signed zeros, NaN and ±Inf through the narrow kernels, one operand at
/// a time so most outputs stay finite. The references skip zero
/// coefficients (`0 · inf` becomes `0`, not NaN), so they cannot be the
/// oracle here.
#[test]
fn narrow_products_propagate_non_finite_values_like_a_scalar_loop() {
    let (n, k) = (12291, 97);
    // Finite operands with exact zeros of both signs mixed in.
    let finite = |rows: usize, cols: usize, salt: usize| {
        let data = (0..rows * cols)
            .map(|i| match (i * 7 + salt) % 13 {
                0 => 0.0,
                1 => -0.0,
                r => r as f32 * 0.125 - 0.75,
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    };
    let (a, b, dc) = (finite(n, k, 0), finite(k, 1, 3), finite(n, 1, 5));

    // Specials in A: a NaN, a lone +Inf, an Inf - Inf row, and a row of
    // negative zeros whose products must still sum to +0.0.
    let mut a_special = a.clone();
    a_special.set(0, 3, f32::NAN);
    a_special.set(1, 4, f32::INFINITY);
    a_special.set(2, 4, f32::NEG_INFINITY);
    a_special.set(2, 5, f32::INFINITY);
    a_special.row_mut(3).fill(-0.0);
    check_narrow_against_scalar_loop(&a_special, &b, &dc);

    // Specials in b: every zero in its column of A turns into a NaN.
    let mut b_special = b.clone();
    b_special.set(2, 0, f32::INFINITY);
    b_special.set(9, 0, f32::NAN);
    b_special.set(10, 0, -0.0);
    check_narrow_against_scalar_loop(&a, &b_special, &dc);

    // Specials in the output gradient.
    let mut dc_special = dc.clone();
    dc_special.set(6, 0, f32::NEG_INFINITY);
    dc_special.set(7, 0, -0.0);
    dc_special.set(12290, 0, f32::NAN);
    check_narrow_against_scalar_loop(&a, &b, &dc_special);
}

/// 0 x N, N x 0 and 1 x 1 shapes run through the full dispatch path
/// without panicking, at every thread count.
#[test]
fn degenerate_shapes_are_safe_at_all_thread_counts() {
    let _guard = THREADS.lock().unwrap();
    for t in THREAD_COUNTS {
        par::set_num_threads(t);
        for (n, k, m) in [(0, 4, 4), (4, 0, 4), (4, 4, 0), (1, 1, 1), (0, 0, 0)] {
            let a = Tensor::zeros(n, k);
            let b = Tensor::zeros(k, m);
            assert_eq!(a.matmul(&b).shape(), (n, m));
            let bt = Tensor::zeros(m, k);
            assert_eq!(a.matmul_tb(&bt).shape(), (n, m));
        }
    }
    par::set_num_threads(0);
}
