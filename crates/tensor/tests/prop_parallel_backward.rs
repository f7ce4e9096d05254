//! Property tests for the branch-parallel backward pass: for random tapes,
//! [`Graph::backward_parallel`] must produce *bitwise* identical gradients,
//! losses, and post-Adam parameters to [`Graph::backward_serial`] — at
//! thread counts {1, 2, 4}, and on a reused ([`Graph::reset`]) tape just as
//! on a fresh one.
//!
//! The thread count is process-global, so each case runs the whole sweep
//! under a shared lock.

use proptest::prelude::*;
use tensor::{par, EdgeRows, Graph, Optimizer, Params, Tensor, Var};

/// Serialises access to the process-global thread override.
static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Shapes biased toward kernel block edges (MR=4, NR=16) and odd sizes.
const DIMS: [usize; 8] = [1, 2, 3, 4, 5, 7, 16, 17];

fn dim() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

/// Deterministic, mildly irregular fill (same scheme as prop_pool.rs).
fn fill(rows: usize, cols: usize, state: &mut f32) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            *state = (*state * 1.3 + i as f32 * 0.7).rem_euclid(37.0) - 18.0;
            *state / 5.0
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn make_params(d_in: usize, d_out: usize, state: &mut f32) -> Params {
    let mut params = Params::new();
    let w = fill(d_in, d_out, state);
    let b = fill(1, d_out, state);
    let w2 = fill(d_out, d_out, state);
    params.add("w", w);
    params.add("b", b);
    params.add("w2", w2);
    params
}

/// The fused edge ops a random program draws: the score operand count
/// (1 to 3), each operand's row mode (0 `Own`, 1 `Gather`, 2
/// `Broadcast`), the head count (1 or 4) and the message operand count
/// (1 or 2).
#[derive(Clone, Copy, Debug)]
struct EdgeMix {
    scores: usize,
    modes: [u8; 3],
    heads: usize,
    msgs: usize,
}

fn edge_mix() -> impl Strategy<Value = EdgeMix> {
    (1usize..4, 0u8..3, 0u8..3, 0u8..3, 0u8..2, 1usize..3).prop_map(
        |(scores, m0, m1, m2, h, msgs)| EdgeMix {
            scores,
            modes: [m0, m1, m2],
            heads: if h == 0 { 1 } else { 4 },
            msgs,
        },
    )
}

/// Attention over the `m` rows of `h` as edges (edge `e` in segment
/// `e % 2`) and the weighted sum of `h`'s rows into the two segments:
/// `edge_softmax` over `mix.scores` operands cut from `h`'s row sums, each
/// read in its drawn row mode, then `edge_aggregate` of `mix.msgs`
/// operands. Returns the `2 x d` aggregate.
fn edge_ops(g: &mut Graph, h: Var, mix: EdgeMix) -> Var {
    let m = g.shape(h).0;
    let col = g.sum_rows(h);
    let col = g.tanh(col);
    let head_row = g.input(Tensor::from_vec(
        1,
        mix.heads,
        [1.0, -0.5, 0.25, 2.0][..mix.heads].to_vec(),
    ));
    let wide = g.matmul(col, head_row);
    let reversed: Vec<usize> = (0..m).rev().collect();
    let mut ops = Vec::with_capacity(mix.scores);
    for (k, &mode) in mix.modes.iter().enumerate().take(mix.scores) {
        let x = g.scale(wide, 0.5 + k as f32);
        ops.push(match mode {
            0 => (x, EdgeRows::Own),
            1 => (x, EdgeRows::Gather(reversed.clone())),
            _ => (g.gather_rows(x, vec![m / 2]), EdgeRows::Broadcast),
        });
    }
    let segs: Vec<usize> = (0..m).map(|i| i % 2).collect();
    let mut ops = ops.into_iter();
    let mut next = || ops.next().expect("drawn operand");
    let att = match mix.scores {
        1 => g.edge_softmax([next()], segs.clone(), 2, 0.2),
        2 => g.edge_softmax([next(), next()], segs.clone(), 2, 0.2),
        _ => g.edge_softmax([next(), next(), next()], segs.clone(), 2, 0.2),
    };
    if mix.msgs == 1 {
        g.edge_aggregate([(h, EdgeRows::Own)], att, segs, 2)
    } else {
        let h2 = g.tanh(h);
        let msgs = [(h, EdgeRows::Own), (h2, EdgeRows::Gather(reversed))];
        g.edge_aggregate(msgs, att, segs, 2)
    }
}

/// Builds a randomized forward tape with wide fan-in/fan-out (shared
/// sub-expressions, gather/segment ops, attention) and returns the loss.
/// The shape mix is chosen so several tape branches are independent and
/// genuinely schedulable in parallel.
#[allow(clippy::too_many_arguments)]
fn forward(
    g: &mut Graph,
    params: &Params,
    x: &Tensor,
    y: &Tensor,
    indices: &[usize],
    segments: &[usize],
    op_mix: u8,
    mix: EdgeMix,
) -> Var {
    let ids: Vec<tensor::ParamId> = params.iter().map(|(id, _, _)| id).collect();
    let xv = g.input_from(x);
    let w = g.param(params, ids[0]);
    let b = g.param(params, ids[1]);
    let lin = g.linear(xv, w, b);
    let mut h = match op_mix % 4 {
        0 => g.relu(lin),
        1 => g.tanh(lin),
        2 => g.sigmoid(lin),
        _ => g.softplus(lin),
    };
    // A second branch off the same activation: shared fan-in whose gradient
    // contributions must fold in canonical order.
    let w2 = g.param(params, ids[2]);
    let side = g.matmul(h, w2);
    let side = g.tanh(side);
    h = g.add(h, side);
    if op_mix & 4 != 0 {
        let n_seg = segments.iter().copied().max().map_or(0, |s| s + 1);
        let ones = g.input_with(indices.len(), 1, |w| w.fill(1.0));
        let rows = EdgeRows::Gather(indices.to_vec());
        h = g.edge_aggregate([(h, rows)], ones, segments.to_vec(), n_seg);
    }
    if op_mix & 8 != 0 {
        h = g.mul_row(h, b);
    }
    let agg = edge_ops(g, h, mix);
    let pred = g.sum_rows(agg);
    let yv: Vec<f32> = (0..g.shape(pred).0)
        .map(|i| y.as_slice()[i % y.len()])
        .collect();
    g.mse(pred, &Tensor::col_vec(yv))
}

/// Loss bits + every parameter's gradient bits, in binding order.
fn snapshot(g: &Graph, loss: Var) -> (Vec<u32>, Vec<Option<Vec<u32>>>) {
    let lbits = bits(g.value(loss));
    let gbits = g
        .bindings()
        .iter()
        .map(|&(_, v)| g.grad(v).map(bits))
        .collect();
    (lbits, gbits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forced-parallel backward bitwise-matches serial backward — loss,
    /// every parameter gradient — at {1, 2, 4} threads, on fresh graphs.
    #[test]
    fn parallel_backward_matches_serial_bitwise(
        (n, d_in, d_out) in (dim(), dim(), dim()),
        seed in 0.0f32..64.0,
        op_mix in 0u8..16,
        mix in edge_mix(),
    ) {
        let mut state = seed + 0.0625;
        let x = fill(n, d_in, &mut state);
        let y = fill(n, 1, &mut state);
        let indices: Vec<usize> = (0..n + 1).map(|i| (i * 7 + 3) % n.max(1)).collect();
        let segments: Vec<usize> = (0..indices.len()).map(|i| i % 3).collect();
        let params = make_params(d_in, d_out, &mut state);

        let _guard = THREADS.lock().unwrap();

        // Reference: serial backward at 1 thread.
        par::set_num_threads(1);
        let mut g = Graph::new();
        let loss = forward(&mut g, &params, &x, &y, &indices, &segments, op_mix, mix);
        g.backward_serial(loss);
        let reference = snapshot(&g, loss);

        for t in [1usize, 2, 4] {
            par::set_num_threads(t);
            let mut g = Graph::new();
            let loss = forward(&mut g, &params, &x, &y, &indices, &segments, op_mix, mix);
            g.backward_parallel(loss);
            let got = snapshot(&g, loss);
            prop_assert_eq!(
                &reference, &got,
                "parallel backward diverged from serial at {} threads", t
            );
        }
        par::set_num_threads(0);
    }

    /// Three full training steps (forward, parallel backward, clipped Adam)
    /// on a reused/reset graph bitwise-match the serial arm's losses and
    /// post-update parameters, at {1, 2, 4} threads.
    #[test]
    fn parallel_training_matches_serial_across_reset_reuse(
        (n, d_in, d_out) in (dim(), dim(), dim()),
        seed in 0.0f32..64.0,
        op_mix in 0u8..16,
        mix in edge_mix(),
    ) {
        let mut state = seed + 0.1875;
        let x = fill(n, d_in, &mut state);
        let y = fill(n, 1, &mut state);
        let indices: Vec<usize> = (0..n + 1).map(|i| (i * 5 + 1) % n.max(1)).collect();
        let segments: Vec<usize> = (0..indices.len()).map(|i| i % 2).collect();

        let _guard = THREADS.lock().unwrap();

        // Serial arm: fresh graph per step.
        par::set_num_threads(1);
        let mut params_a = make_params(d_in, d_out, &mut state.clone());
        let mut opt_a = Optimizer::adam(0.01);
        let mut trace_a = Vec::new();
        for _ in 0..3 {
            let mut g = Graph::new();
            let loss = forward(&mut g, &params_a, &x, &y, &indices, &segments, op_mix, mix);
            g.backward_serial(loss);
            opt_a.step_clipped(&mut params_a, &mut g, Some(5.0));
            let pbits: Vec<Vec<u32>> = params_a.iter().map(|(_, _, v)| bits(v)).collect();
            trace_a.push((bits(g.value(loss)), pbits));
        }

        for t in [1usize, 2, 4] {
            par::set_num_threads(t);
            // Parallel arm: one long-lived graph, reset between steps.
            let mut params_b = make_params(d_in, d_out, &mut state.clone());
            let mut opt_b = Optimizer::adam(0.01);
            let mut g = Graph::new();
            let mut trace_b = Vec::new();
            for _ in 0..3 {
                g.reset();
                let loss = forward(&mut g, &params_b, &x, &y, &indices, &segments, op_mix, mix);
                g.backward_parallel(loss);
                opt_b.step_clipped(&mut params_b, &mut g, Some(5.0));
                let pbits: Vec<Vec<u32>> = params_b.iter().map(|(_, _, v)| bits(v)).collect();
                trace_b.push((bits(g.value(loss)), pbits));
            }
            prop_assert_eq!(
                &trace_a, &trace_b,
                "reused parallel training diverged from serial at {} threads", t
            );
        }
        par::set_num_threads(0);
    }
}

/// A tape that is one long dependency chain has no branch parallelism at
/// all: every node waits on the previous one. The scheduler must drain it
/// without deadlocking (workers starving on an empty queue while the chain
/// advances one node at a time) and still match serial bitwise.
#[test]
fn deep_chain_backward_completes_and_matches_serial() {
    const DEPTH: usize = 3000;
    let _guard = THREADS.lock().unwrap();

    let build = |g: &mut Graph| -> (Var, Var) {
        let x = g.input(Tensor::from_vec(
            4,
            3,
            (0..12).map(|i| i as f32 / 7.0 - 0.8).collect(),
        ));
        let mut h = x;
        for i in 0..DEPTH {
            h = match i % 3 {
                0 => g.tanh(h),
                1 => g.scale(h, 1.01),
                _ => g.softplus(h),
            };
        }
        let pred = g.sum_rows(h);
        (x, g.mse(pred, &Tensor::col_vec(vec![0.1, 0.2, 0.3, 0.4])))
    };

    par::set_num_threads(1);
    let mut gs = Graph::new();
    let (x_s, loss_s) = build(&mut gs);
    gs.backward_serial(loss_s);
    let want = bits(gs.grad(x_s).expect("input grad"));

    par::set_num_threads(4);
    let mut gp = Graph::new();
    let (x_p, loss_p) = build(&mut gp);
    gp.backward_parallel(loss_p);
    let got = bits(gp.grad(x_p).expect("input grad"));

    assert_eq!(want, got, "deep chain grads diverged");
    par::set_num_threads(0);
}
