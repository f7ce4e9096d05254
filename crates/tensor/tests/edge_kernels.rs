//! The fused edge kernels against the primitive op chains they replace,
//! bit for bit.
//!
//! `edge_softmax` stands for gathers, two adds (the third operand through
//! `add_row` when it is a broadcast row), `leaky_relu`, one `col_slice` and
//! `segment_softmax` per head, the head sum and a `scale`; `edge_aggregate`
//! stands for two gathers, an `add`, a `mul_col` and a `segment_sum`;
//! `stack_rows` stands for pairwise `concat_rows`. Each test builds both
//! forms over the same leaves and compares the value and every leaf's
//! gradient bitwise under the serial and the branch-parallel backward:
//! once with the op as each leaf's only consumer, so a `-0.0` gradient
//! reaches the leaf as is, and once with a second consumer on every leaf,
//! so the accumulation order into it matters. The tape-free context must
//! give the same value.

use tensor::{EdgeRows, ForwardCtx, Graph, InferCtx, Tensor, Var};

const SLOPE: f32 = 0.2;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// A deterministic `rows x cols` tensor with mixed signs and magnitudes.
fn filled(rows: usize, cols: usize, salt: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            let k = (i * 7 + salt * 13) % 23;
            (k as f32 - 11.0) * 0.37
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// One fused op's inputs: leaf values, row selections and segments.
struct SoftmaxCase {
    leaves: [Tensor; 3],
    rows: [EdgeRows; 3],
    segments: Vec<usize>,
    n_seg: usize,
    /// Weight of each output entry in the loss; a `-0.0` weight sends a
    /// `-0.0` gradient into the kernel.
    out_weights: Vec<f32>,
}

/// The chain the fused `edge_softmax` replaces, as the layer wrote it.
fn softmax_chain(g: &mut Graph, v: [Var; 3], case: &SoftmaxCase) -> Var {
    let pick = |g: &mut Graph, x: Var, r: &EdgeRows| match r {
        EdgeRows::Gather(idx) => g.gather_rows(x, idx.clone()),
        _ => x,
    };
    let sa = pick(g, v[0], &case.rows[0]);
    let sb = pick(g, v[1], &case.rows[1]);
    let s = g.add(sa, sb);
    let scores = match &case.rows[2] {
        EdgeRows::Broadcast => g.add_row(s, v[2]),
        r => {
            let sc = pick(g, v[2], r);
            g.add(s, sc)
        }
    };
    let lr = g.leaky_relu(scores, SLOPE);
    let h = g.shape(lr).1;
    let mut sum = None;
    for j in 0..h {
        let col = g.col_slice(lr, j);
        let sm = g.segment_softmax(col, case.segments.clone());
        sum = Some(match sum {
            None => sm,
            Some(prev) => g.add(prev, sm),
        });
    }
    let sum = sum.expect("at least one head");
    g.scale(sum, 1.0 / h as f32)
}

fn softmax_fused<F: ForwardCtx>(g: &mut F, v: [Var; 3], case: &SoftmaxCase) -> Var {
    let [ra, rb, rc] = case.rows.clone();
    g.edge_softmax(
        v[0],
        ra,
        v[1],
        rb,
        v[2],
        rc,
        case.segments.clone(),
        case.n_seg,
        SLOPE,
    )
}

/// Value and leaf-gradient bits.
type Bits = (Vec<u32>, Vec<Vec<u32>>);

/// How a tape is built and swept.
#[derive(Clone, Copy, Debug)]
struct Sweep {
    parallel: bool,
    /// Give every leaf a second consumer after the op under test.
    shared: bool,
}

const SWEEPS: [Sweep; 4] = [
    Sweep {
        parallel: false,
        shared: false,
    },
    Sweep {
        parallel: false,
        shared: true,
    },
    Sweep {
        parallel: true,
        shared: false,
    },
    Sweep {
        parallel: true,
        shared: true,
    },
];

/// [`Bits`] of `build` under a weighted-sum loss.
fn run_taped(
    leaves: &[Tensor],
    out_weights: &[f32],
    sweep: Sweep,
    build: &dyn Fn(&mut Graph, &[Var]) -> Var,
) -> Bits {
    let mut g = Graph::new();
    let vars: Vec<Var> = leaves.iter().map(|t| g.input_from(t)).collect();
    let out = build(&mut g, &vars);
    let (rows, cols) = g.shape(out);
    let w = Tensor::from_vec(rows, cols, out_weights.to_vec());
    let weighted = g.mul_const(out, &w);
    let mut loss = g.sum_all(weighted);
    for (k, &v) in vars.iter().enumerate().filter(|_| sweep.shared) {
        let (r, c) = g.shape(v);
        let extra = g.mul_const(v, &filled(r, c, 40 + k));
        let extra = g.sum_all(extra);
        loss = g.add(loss, extra);
    }
    if sweep.parallel {
        g.backward_parallel(loss);
    } else {
        g.backward_serial(loss);
    }
    let grads = vars
        .iter()
        .map(|&v| bits(g.grad(v).expect("every leaf gets a gradient")))
        .collect();
    (bits(g.value(out)), grads)
}

fn check_softmax(case: &SoftmaxCase) {
    let leaves = &case.leaves;
    for sweep in SWEEPS {
        let chain = run_taped(leaves, &case.out_weights, sweep, &|g, v| {
            softmax_chain(g, [v[0], v[1], v[2]], case)
        });
        let fused = run_taped(leaves, &case.out_weights, sweep, &|g, v| {
            softmax_fused(g, [v[0], v[1], v[2]], case)
        });
        assert_eq!(fused.0, chain.0, "value ({sweep:?})");
        for (k, (f, c)) in fused.1.iter().zip(&chain.1).enumerate() {
            assert_eq!(f, c, "gradient of operand {k} ({sweep:?})");
        }
    }
    let mut ic = InferCtx::new();
    let v = leaves.clone().map(|t| ic.input(t));
    let out = softmax_fused(&mut ic, v, case);
    let chain = run_taped(leaves, &case.out_weights, SWEEPS[0], &|g, v| {
        softmax_chain(g, [v[0], v[1], v[2]], case)
    });
    assert_eq!(bits(ic.value(out)), chain.0, "tape-free value");
}

/// Six edges in three segments: segment 1 holds one edge, sources repeat,
/// and segment 2's scores differ so much that one weight underflows to
/// zero, so the softmax Jacobian yields `-0.0` entries.
fn layer_like(h: usize, third: EdgeRows) -> SoftmaxCase {
    let segments = vec![0, 0, 1, 0, 2, 2];
    let src = vec![2, 0, 2, 3, 1, 2];
    let mut b = filled(4, h, 2);
    for j in 0..h {
        b.as_mut_slice()[j] = 400.0; // source row 0 feeds edge 1 only
        b.as_mut_slice()[h + j] = -600.0; // source row 1 feeds edge 4 only
    }
    let c_rows = match &third {
        EdgeRows::Broadcast => 1,
        _ => 2,
    };
    SoftmaxCase {
        leaves: [filled(3, h, 1), b, filled(c_rows, h, 3)],
        rows: [
            EdgeRows::Gather(segments.clone()),
            EdgeRows::Gather(src),
            third,
        ],
        segments,
        n_seg: 4,
        // The one-edge segment's output gets a `-0.0` weight.
        out_weights: vec![0.7, -1.3, -0.0, 0.4, 2.1, -0.6],
    }
}

#[test]
fn edge_softmax_matches_chain_with_broadcast_row() {
    for h in [1, 4] {
        check_softmax(&layer_like(h, EdgeRows::Broadcast));
    }
}

#[test]
fn edge_softmax_matches_chain_with_own_rows() {
    // The cross-type form: destination rows gathered, slot rows owned,
    // type rows gathered.
    for h in [1, 4] {
        let segments = vec![0, 1, 1, 2, 2, 2, 3];
        let case = SoftmaxCase {
            leaves: [filled(5, h, 4), filled(7, h, 5), filled(3, h, 6)],
            rows: [
                EdgeRows::Gather(segments.clone()),
                EdgeRows::Own,
                EdgeRows::Gather(vec![0, 0, 1, 0, 1, 2, 2]),
            ],
            segments,
            n_seg: 5,
            out_weights: vec![-0.0, 1.1, -0.4, 0.3, -0.0, 0.9, 1.7],
        };
        check_softmax(&case);
    }
}

#[test]
fn edge_softmax_with_no_edges_gives_zero_gradients() {
    for h in [1, 4] {
        let case = SoftmaxCase {
            leaves: [filled(2, h, 7), filled(3, h, 8), filled(1, h, 9)],
            rows: [
                EdgeRows::Gather(Vec::new()),
                EdgeRows::Gather(Vec::new()),
                EdgeRows::Broadcast,
            ],
            segments: Vec::new(),
            n_seg: 0,
            out_weights: Vec::new(),
        };
        check_softmax(&case);
    }
}

/// The `-0.0` cases above must really reach the kernel: edge 2 is alone
/// in its segment and its output has a `-0.0` loss weight, so its score
/// gradient is `-0.0`. The `Own` operand receives it as is at H = 1 and as
/// `+0.0` at H = 4, in both forms.
#[test]
fn negative_zero_score_gradients_occur_and_follow_the_head_count() {
    for (h, want_neg_zero) in [(1, true), (4, false)] {
        let segments = vec![0, 0, 1];
        let case = SoftmaxCase {
            leaves: [filled(2, h, 1), filled(3, h, 2), filled(1, h, 3)],
            rows: [
                EdgeRows::Gather(segments.clone()),
                EdgeRows::Own,
                EdgeRows::Broadcast,
            ],
            segments,
            n_seg: 2,
            out_weights: vec![0.5, -0.25, -0.0],
        };
        check_softmax(&case);
        let (_, grads) = run_taped(&case.leaves, &case.out_weights, SWEEPS[0], &|g, v| {
            softmax_fused(g, [v[0], v[1], v[2]], &case)
        });
        // Row 2 of operand b (`Own`) is the score gradient of edge 2.
        let neg_zero = grads[1][2 * h..].iter().all(|&x| x == (-0.0f32).to_bits());
        assert_eq!(neg_zero, want_neg_zero, "H = {h}: {:x?}", grads[1]);
    }
}

struct AggregateCase {
    leaves: [Tensor; 3],
    xi: Vec<usize>,
    yi: Vec<usize>,
    segments: Vec<usize>,
    n_seg: usize,
    out_weights: Vec<f32>,
}

fn check_aggregate(case: &AggregateCase) {
    let chain = |g: &mut Graph, v: &[Var]| {
        let gx = g.gather_rows(v[0], case.xi.clone());
        let gy = g.gather_rows(v[1], case.yi.clone());
        let msg = g.add(gx, gy);
        let weighted = g.mul_col(msg, v[2]);
        g.segment_sum(weighted, case.segments.clone(), case.n_seg)
    };
    for sweep in SWEEPS {
        let want = run_taped(&case.leaves, &case.out_weights, sweep, &chain);
        let got = run_taped(&case.leaves, &case.out_weights, sweep, &|g, v| {
            aggregate_fused(g, v, case)
        });
        assert_eq!(got.0, want.0, "value ({sweep:?})");
        for (k, (f, c)) in got.1.iter().zip(&want.1).enumerate() {
            assert_eq!(f, c, "gradient of operand {k} ({sweep:?})");
        }
    }
    let mut ic = InferCtx::new();
    let v: Vec<Var> = case.leaves.iter().map(|t| ic.input_from(t)).collect();
    let out = aggregate_fused(&mut ic, &v, case);
    let want = run_taped(&case.leaves, &case.out_weights, SWEEPS[0], &chain);
    assert_eq!(bits(ic.value(out)), want.0, "tape-free value");
}

fn aggregate_fused<F: ForwardCtx>(g: &mut F, v: &[Var], case: &AggregateCase) -> Var {
    g.edge_aggregate(
        v[0],
        case.xi.clone(),
        v[1],
        case.yi.clone(),
        v[2],
        case.segments.clone(),
        case.n_seg,
    )
}

#[test]
fn edge_aggregate_matches_chain() {
    let d = 5;
    // Repeated sources, a one-edge segment (1), an empty segment (3), a
    // zero weight, and `-0.0` loss weights on segment 2.
    let mut w = filled(6, 1, 3);
    w.as_mut_slice()[4] = 0.0;
    let mut out_weights = filled(4, d, 9).as_slice().to_vec();
    out_weights[2 * d..3 * d].fill(-0.0);
    check_aggregate(&AggregateCase {
        leaves: [filled(4, d, 1), filled(4, d, 2), w],
        xi: vec![2, 0, 2, 3, 2, 1],
        yi: vec![0, 0, 1, 0, 2, 2],
        segments: vec![0, 0, 1, 0, 2, 2],
        n_seg: 4,
        out_weights,
    });
}

#[test]
fn edge_aggregate_with_no_edges_is_zero() {
    check_aggregate(&AggregateCase {
        leaves: [filled(3, 4, 1), filled(2, 4, 2), Tensor::zeros(0, 1)],
        xi: Vec::new(),
        yi: Vec::new(),
        segments: Vec::new(),
        n_seg: 2,
        out_weights: filled(2, 4, 5).as_slice().to_vec(),
    });
}

#[test]
fn stack_rows_matches_pairwise_concat() {
    let leaves = [filled(2, 3, 1), filled(1, 3, 2), filled(4, 3, 3)];
    let out_weights = filled(7, 3, 4).as_slice().to_vec();
    for sweep in SWEEPS {
        let want = run_taped(&leaves, &out_weights, sweep, &|g, v| {
            let ab = g.concat_rows(v[0], v[1]);
            g.concat_rows(ab, v[2])
        });
        let got = run_taped(&leaves, &out_weights, sweep, &|g, v| g.stack_rows(v));
        assert_eq!(got, want, "{sweep:?}");
    }
    let mut ic = InferCtx::new();
    let v: Vec<Var> = leaves.iter().map(|t| ic.input_from(t)).collect();
    let out = ic.stack_rows(&v);
    let mut g = Graph::new();
    let v: Vec<Var> = leaves.iter().map(|t| g.input_from(t)).collect();
    let ab = g.concat_rows(v[0], v[1]);
    let want = g.concat_rows(ab, v[2]);
    assert_eq!(bits(ic.value(out)), bits(g.value(want)));
}
