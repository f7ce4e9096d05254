//! The fused edge kernels, bit for bit: their one-operand forms against
//! loops written out below, and every other form against the op chain it
//! stands for, built from those one-operand forms.
//!
//! The one-operand, `Own`-row forms are the references. `edge_softmax` of
//! one `m x 1` column is a LeakyReLU and a softmax within each segment;
//! `edge_aggregate` of one operand is the weighted segment sum
//! `out[seg_e] += x[e] * w_e`. Each is held to a plain loop in this file,
//! forward and backward, including the `-0.0` rules of DESIGN.md (§The
//! two edge kernels). The multi-operand forms stand for chains of
//! gathers, adds (`add_row` for a broadcast row), one `col_slice` and
//! one-operand `edge_softmax` per head, the head sum and a `scale`; or of
//! gathers, an add and a one-operand `edge_aggregate`. Each test builds
//! both forms over the same leaves and compares the value and every leaf's
//! gradient bitwise: once with the op as each leaf's only consumer, so a
//! `-0.0` gradient reaches the leaf as is, and once with a second consumer
//! on every leaf, so the accumulation order into it matters. The tape-free context must
//! give the same value.
//!
//! One order differs: in the chain a head's LeakyReLU slope is applied
//! before the heads' column gradients are summed (the sum adds `+0.0`), in
//! the kernel after. The two agree unless a score gradient times the
//! slope underflows to `-0.0`, which no input here produces.

use tensor::{dot, EdgeRows, ForwardCtx, Graph, InferCtx, Tensor, Var};

const SLOPE: f32 = 0.2;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn bits_of(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
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

/// One fused op's inputs: 1 to 3 score operands with their row
/// selections, and the segments.
struct SoftmaxCase {
    leaves: Vec<Tensor>,
    rows: Vec<EdgeRows>,
    segments: Vec<usize>,
    n_seg: usize,
    /// Weight of each output entry in the loss; a `-0.0` weight sends a
    /// `-0.0` gradient into the kernel.
    out_weights: Vec<f32>,
}

/// The chain a multi-operand `edge_softmax` stands for: the operands'
/// rows per edge, summed in order, then per head the one-operand kernel on
/// that head's column, the heads summed and scaled by `1 / H`.
fn softmax_chain(g: &mut Graph, v: &[Var], case: &SoftmaxCase) -> Var {
    let pick = |g: &mut Graph, x: Var, r: &EdgeRows| match r {
        EdgeRows::Gather(idx) => g.gather_rows(x, idx.clone()),
        _ => x,
    };
    let mut scores = pick(g, v[0], &case.rows[0]);
    for (&x, r) in v.iter().zip(&case.rows).skip(1) {
        scores = match r {
            EdgeRows::Broadcast => g.add_row(scores, x),
            _ => {
                let sx = pick(g, x, r);
                g.add(scores, sx)
            }
        };
    }
    let h = g.shape(scores).1;
    let mut sum = None;
    for j in 0..h {
        let col = g.col_slice(scores, j);
        let sm = g.edge_softmax(
            [(col, EdgeRows::Own)],
            case.segments.clone(),
            case.n_seg,
            SLOPE,
        );
        sum = Some(match sum {
            None => sm,
            Some(prev) => g.add(prev, sm),
        });
    }
    let sum = sum.expect("at least one head");
    g.scale(sum, 1.0 / h as f32)
}

fn softmax_fused<F: ForwardCtx>(g: &mut F, v: &[Var], case: &SoftmaxCase) -> Var {
    let (segs, n) = (case.segments.clone(), case.n_seg);
    match (v, &case.rows[..]) {
        (&[a], [ra]) => g.edge_softmax([(a, ra.clone())], segs, n, SLOPE),
        (&[a, b], [ra, rb]) => g.edge_softmax([(a, ra.clone()), (b, rb.clone())], segs, n, SLOPE),
        (&[a, b, c], [ra, rb, rc]) => g.edge_softmax(
            [(a, ra.clone()), (b, rb.clone()), (c, rc.clone())],
            segs,
            n,
            SLOPE,
        ),
        _ => panic!("1 to 3 operands, one row selection each"),
    }
}

/// Value and leaf-gradient bits.
type Bits = (Vec<u32>, Vec<Vec<u32>>);

/// [`Bits`] of `build` under a weighted-sum loss; `shared` gives every
/// leaf a second consumer after the op under test.
fn run_taped(
    leaves: &[Tensor],
    out_weights: &[f32],
    shared: bool,
    build: &dyn Fn(&mut Graph, &[Var]) -> Var,
) -> Bits {
    let mut g = Graph::new();
    let vars: Vec<Var> = leaves.iter().map(|t| g.input_from(t)).collect();
    let out = build(&mut g, &vars);
    let (rows, cols) = g.shape(out);
    let w = Tensor::from_vec(rows, cols, out_weights.to_vec());
    let weighted = g.mul_const(out, &w);
    let mut loss = g.sum_all(weighted);
    for (k, &v) in vars.iter().enumerate().filter(|_| shared) {
        let (r, c) = g.shape(v);
        let extra = g.mul_const(v, &filled(r, c, 40 + k));
        let extra = g.sum_all(extra);
        loss = g.add(loss, extra);
    }
    g.backward(loss);
    let grads = vars
        .iter()
        .map(|&v| bits(g.grad(v).expect("every leaf gets a gradient")))
        .collect();
    (bits(g.value(out)), grads)
}

fn check_softmax(case: &SoftmaxCase) {
    let leaves = &case.leaves;
    for shared in [false, true] {
        let chain = run_taped(leaves, &case.out_weights, shared, &|g, v| {
            softmax_chain(g, v, case)
        });
        let fused = run_taped(leaves, &case.out_weights, shared, &|g, v| {
            softmax_fused(g, v, case)
        });
        assert_eq!(fused.0, chain.0, "value (shared: {shared})");
        for (k, (f, c)) in fused.1.iter().zip(&chain.1).enumerate() {
            assert_eq!(f, c, "gradient of operand {k} (shared: {shared})");
        }
    }
    let mut ic = InferCtx::new();
    let v: Vec<Var> = leaves.iter().map(|t| ic.input_from(t)).collect();
    let out = softmax_fused(&mut ic, &v, case);
    let chain = run_taped(leaves, &case.out_weights, false, &|g, v| {
        softmax_chain(g, v, case)
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
        leaves: vec![filled(3, h, 1), b, filled(c_rows, h, 3)],
        rows: vec![
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
            leaves: vec![filled(5, h, 4), filled(7, h, 5), filled(3, h, 6)],
            rows: vec![
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
fn edge_softmax_matches_chain_with_one_and_two_operands() {
    // The baselines' forms: a destination row gathered plus a source row
    // gathered or owned, and one multi-head operand alone.
    for h in [1, 4] {
        let mut case = layer_like(h, EdgeRows::Broadcast);
        case.leaves.pop();
        case.rows.pop();
        check_softmax(&case);
        case.leaves[1] = filled(6, h, 7);
        case.rows[1] = EdgeRows::Own;
        check_softmax(&case);
        case.leaves.pop();
        case.rows.pop();
        check_softmax(&case);
    }
}

#[test]
fn edge_softmax_with_no_edges_gives_zero_gradients() {
    for h in [1, 4] {
        let case = SoftmaxCase {
            leaves: vec![filled(2, h, 7), filled(3, h, 8), filled(1, h, 9)],
            rows: vec![
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
            leaves: vec![filled(2, h, 1), filled(3, h, 2), filled(1, h, 3)],
            rows: vec![
                EdgeRows::Gather(segments.clone()),
                EdgeRows::Own,
                EdgeRows::Broadcast,
            ],
            segments,
            n_seg: 2,
            out_weights: vec![0.5, -0.25, -0.0],
        };
        check_softmax(&case);
        let (_, grads) = run_taped(&case.leaves, &case.out_weights, false, &|g, v| {
            softmax_fused(g, v, &case)
        });
        // Row 2 of operand b (`Own`) is the score gradient of edge 2.
        let neg_zero = grads[1][2 * h..].iter().all(|&x| x == (-0.0f32).to_bits());
        assert_eq!(neg_zero, want_neg_zero, "H = {h}: {:x?}", grads[1]);
    }
}

/// The one-operand `edge_softmax` of an `m x 1` column against a written
/// loop: per segment, in edge order, the max of the LeakyReLU scores, the
/// sum of `exp(y - max)` and the division by a positive sum; backward,
/// `sdot` summed in edge order and `p * (g - sdot)`, times the slope where
/// the score is not positive, reaching the column as is. A one-edge
/// segment with a `-0.0` loss weight keeps its `-0.0` gradient, and a
/// weight that underflows to zero gives `-0.0` entries too.
#[test]
fn one_operand_edge_softmax_matches_a_written_loop() {
    let x = vec![0.3, -1.2, 2.0, 0.0, -0.7, 500.0, -400.0, 1.1, -2.5];
    let segments = vec![0, 0, 1, 0, 2, 3, 3, 2, 2];
    let n_seg = 5;
    let w = vec![0.7, -1.3, -0.0, 0.4, 2.1, -0.6, 0.9, -0.0, 1.5];
    let m = x.len();

    let (mut p, mut mx, mut sum) = (
        vec![0.0f32; m],
        vec![f32::NEG_INFINITY; n_seg],
        vec![0.0f32; n_seg],
    );
    for e in 0..m {
        p[e] = if x[e] > 0.0 { x[e] } else { SLOPE * x[e] };
        mx[segments[e]] = mx[segments[e]].max(p[e]);
    }
    for e in 0..m {
        p[e] = (p[e] - mx[segments[e]]).exp();
        sum[segments[e]] += p[e];
    }
    for e in 0..m {
        if sum[segments[e]] > 0.0 {
            p[e] /= sum[segments[e]];
        }
    }
    let mut sdot = vec![0.0f32; n_seg];
    for e in 0..m {
        sdot[segments[e]] += p[e] * w[e];
    }
    let dx: Vec<f32> = (0..m)
        .map(|e| {
            let d = p[e] * (w[e] - sdot[segments[e]]);
            if x[e] <= 0.0 {
                d * SLOPE
            } else {
                d
            }
        })
        .collect();
    assert!(dx.iter().any(|d| d.to_bits() == (-0.0f32).to_bits()));

    let leaf = [Tensor::col_vec(x)];
    let build = |g: &mut Graph, v: &[Var]| {
        g.edge_softmax([(v[0], EdgeRows::Own)], segments.clone(), n_seg, SLOPE)
    };
    // The op as the leaf's only consumer: the leaf gradient is the op's
    // own, with no accumulation.
    let (value, grads) = run_taped(&leaf, &w, false, &build);
    assert_eq!(value, bits_of(&p), "value");
    assert_eq!(grads[0], bits_of(&dx), "gradient");
    let mut ic = InferCtx::new();
    let v = ic.input_from(&leaf[0]);
    let out = ic.edge_softmax([(v, EdgeRows::Own)], segments.clone(), n_seg, SLOPE);
    assert_eq!(bits(ic.value(out)), bits_of(&p), "tape-free value");
}

/// The one-operand `edge_aggregate` of `Own` rows against a written loop:
/// `out[seg_e] += x[e] * w_e` from zeros in edge order; backward, each
/// row's gradient `g[seg_e] * w_e` written as is (a `-0.0` stays), and
/// `dw_e = dot(g[seg_e], x[e])`.
#[test]
fn one_operand_edge_aggregate_matches_a_written_loop() {
    let d = 5;
    let x = filled(6, d, 1);
    let mut w = filled(6, 1, 3);
    w.as_mut_slice()[4] = 0.0;
    let segments = vec![0, 0, 1, 0, 2, 2];
    let n_seg = 4;
    // Segment 2's loss weights are `-0.0`, and edge 4's zero weight
    // times a negative gradient entry gives `-0.0` as well.
    let mut g_out = filled(n_seg, d, 9);
    g_out.as_mut_slice()[2 * d..3 * d].fill(-0.0);
    g_out.as_mut_slice()[2 * d] = -1.0;

    let mut out = vec![0.0f32; n_seg * d];
    let mut dx = vec![0.0f32; 6 * d];
    let mut dw = vec![0.0f32; 6];
    for (e, &s) in segments.iter().enumerate() {
        let we = w.as_slice()[e];
        for c in 0..d {
            out[s * d + c] += x.get(e, c) * we;
            dx[e * d + c] = g_out.get(s, c) * we;
        }
        dw[e] = dot(g_out.row(s), x.row(e));
    }
    assert!(dx.iter().any(|v| v.to_bits() == (-0.0f32).to_bits()));

    let leaves = [x, w];
    let build = |g: &mut Graph, v: &[Var]| {
        g.edge_aggregate([(v[0], EdgeRows::Own)], v[1], segments.clone(), n_seg)
    };
    // The op as each leaf's only consumer, as above.
    let (value, grads) = run_taped(&leaves, g_out.as_slice(), false, &build);
    assert_eq!(value, bits_of(&out), "value");
    assert_eq!(grads[0], bits_of(&dx), "dx");
    assert_eq!(grads[1], bits_of(&dw), "dw");
    let mut ic = InferCtx::new();
    let v: Vec<Var> = leaves.iter().map(|t| ic.input_from(t)).collect();
    let agg = ic.edge_aggregate([(v[0], EdgeRows::Own)], v[1], segments.clone(), n_seg);
    assert_eq!(bits(ic.value(agg)), bits_of(&out), "tape-free value");
}

struct AggregateCase {
    /// The two message operands and the `m x 1` weights.
    leaves: [Tensor; 3],
    rows: [EdgeRows; 2],
    segments: Vec<usize>,
    n_seg: usize,
    out_weights: Vec<f32>,
}

fn check_aggregate(case: &AggregateCase) {
    // The chain: each operand's rows per edge, added, then the
    // one-operand kernel over the per-edge messages.
    let chain = |g: &mut Graph, v: &[Var]| {
        let [gx, gy] = [0, 1].map(|k| match &case.rows[k] {
            EdgeRows::Gather(idx) => g.gather_rows(v[k], idx.clone()),
            _ => v[k],
        });
        let msg = g.add(gx, gy);
        g.edge_aggregate(
            [(msg, EdgeRows::Own)],
            v[2],
            case.segments.clone(),
            case.n_seg,
        )
    };
    for shared in [false, true] {
        let want = run_taped(&case.leaves, &case.out_weights, shared, &chain);
        let got = run_taped(&case.leaves, &case.out_weights, shared, &|g, v| {
            aggregate_fused(g, v, case)
        });
        assert_eq!(got.0, want.0, "value (shared: {shared})");
        for (k, (f, c)) in got.1.iter().zip(&want.1).enumerate() {
            assert_eq!(f, c, "gradient of operand {k} (shared: {shared})");
        }
    }
    let mut ic = InferCtx::new();
    let v: Vec<Var> = case.leaves.iter().map(|t| ic.input_from(t)).collect();
    let out = aggregate_fused(&mut ic, &v, case);
    let want = run_taped(&case.leaves, &case.out_weights, false, &chain);
    assert_eq!(bits(ic.value(out)), want.0, "tape-free value");
}

fn aggregate_fused<F: ForwardCtx>(g: &mut F, v: &[Var], case: &AggregateCase) -> Var {
    let [rx, ry] = case.rows.clone();
    g.edge_aggregate(
        [(v[0], rx), (v[1], ry)],
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
    let mut case = AggregateCase {
        leaves: [filled(4, d, 1), filled(4, d, 2), w],
        rows: [
            EdgeRows::Gather(vec![2, 0, 2, 3, 2, 1]),
            EdgeRows::Gather(vec![0, 0, 1, 0, 2, 2]),
        ],
        segments: vec![0, 0, 1, 0, 2, 2],
        n_seg: 4,
        out_weights,
    };
    check_aggregate(&case);
    // An owned operand gets its gradient written as is.
    case.leaves[0] = filled(6, d, 4);
    case.rows[0] = EdgeRows::Own;
    check_aggregate(&case);
}

#[test]
fn edge_aggregate_with_no_edges_is_zero() {
    check_aggregate(&AggregateCase {
        leaves: [filled(3, 4, 1), filled(2, 4, 2), Tensor::zeros(0, 1)],
        rows: [EdgeRows::Gather(Vec::new()), EdgeRows::Gather(Vec::new())],
        segments: Vec::new(),
        n_seg: 2,
        out_weights: filled(2, 4, 5).as_slice().to_vec(),
    });
}
