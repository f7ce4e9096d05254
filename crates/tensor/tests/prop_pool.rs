//! Property tests for the buffer pool's determinism contract: a reused
//! (reset) [`Graph`] must produce *bitwise* identical values, gradients,
//! and optimizer updates to a freshly constructed one, for random shapes,
//! seeds, and op mixes — at every thread count.
//!
//! The thread count is process-global, so each case runs the whole
//! {1, 2, 4}-thread sweep under a shared lock.

use proptest::prelude::*;
use tensor::{par, EdgeRows, Graph, Optimizer, Params, Tensor, Var};

/// Serialises access to the process-global thread override.
static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Shapes biased toward kernel block edges (MR=4, NR=16) and odd sizes.
const DIMS: [usize; 8] = [1, 2, 3, 4, 5, 7, 16, 17];

fn dim() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

/// Deterministic, mildly irregular fill (same scheme as prop_parallel.rs).
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

/// One randomized training step exercising a broad op mix: linear layers,
/// activations, gather/segment ops, softmax attention, constant-arena MSE,
/// backward, and an Adam update. Returns (loss bits, per-param value bits).
#[allow(clippy::too_many_arguments)]
fn step(
    g: &mut Graph,
    params: &mut Params,
    opt: &mut Optimizer,
    x: &Tensor,
    y: &Tensor,
    indices: &[usize],
    segments: &[usize],
    op_mix: u8,
    mix: EdgeMix,
) -> (Vec<u32>, Vec<Vec<u32>>) {
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
    let loss = g.mse(pred, &Tensor::col_vec(yv));
    let lbits = bits(g.value(loss));
    g.backward(loss);
    opt.step_clipped(params, g, Some(5.0));
    let pbits = params.iter().map(|(_, _, v)| bits(v)).collect();
    (lbits, pbits)
}

fn make_params(d_in: usize, d_out: usize, state: &mut f32) -> Params {
    let mut params = Params::new();
    let w = fill(d_in, d_out, state);
    let b = fill(1, d_out, state);
    params.add("w", w);
    params.add("b", b);
    params
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Three steps on a reused/reset graph bitwise-match three steps each on
    /// a fresh graph — losses, parameters, and Adam state-driven updates —
    /// at thread counts {1, 2, 4}.
    #[test]
    fn reused_tape_matches_fresh_tape_bitwise(
        (n, d_in, d_out) in (dim(), dim(), dim()),
        seed in 0.0f32..64.0,
        op_mix in 0u8..16,
        mix in edge_mix(),
    ) {
        let mut state = seed + 0.125;
        let x = fill(n, d_in, &mut state);
        let y = fill(n, 1, &mut state);
        let indices: Vec<usize> = (0..n + 1).map(|i| (i * 7 + 3) % n.max(1)).collect();
        let segments: Vec<usize> = (0..indices.len()).map(|i| i % 3).collect();

        let _guard = THREADS.lock().unwrap();
        for t in THREAD_COUNTS {
            par::set_num_threads(t);

            // Arm A: fresh graph per step (the seed path).
            let mut params_a = make_params(d_in, d_out, &mut state.clone());
            let mut opt_a = Optimizer::adam(0.01);
            let mut trace_a = Vec::new();
            for _ in 0..3 {
                let mut g = Graph::new();
                trace_a.push(step(
                    &mut g, &mut params_a, &mut opt_a, &x, &y, &indices, &segments, op_mix, mix,
                ));
            }

            // Arm B: one long-lived graph, reset between steps.
            let mut params_b = make_params(d_in, d_out, &mut state.clone());
            let mut opt_b = Optimizer::adam(0.01);
            let mut g = Graph::new();
            let mut trace_b = Vec::new();
            for _ in 0..3 {
                g.reset();
                trace_b.push(step(
                    &mut g, &mut params_b, &mut opt_b, &x, &y, &indices, &segments, op_mix, mix,
                ));
            }

            assert_eq!(trace_a, trace_b, "fresh vs reused tape diverged at {t} threads");
        }
        par::set_num_threads(0);
    }

    /// After a warm-up step, every buffer a replayed step needs comes from
    /// the pool — the steady state allocates nothing through the tape.
    #[test]
    fn warm_replay_serves_all_checkouts_from_the_pool(
        (n, d_in, d_out) in (dim(), dim(), dim()),
        seed in 0.0f32..64.0,
        op_mix in 0u8..16,
        mix in edge_mix(),
    ) {
        let mut state = seed + 0.375;
        let x = fill(n, d_in, &mut state);
        let y = fill(n, 1, &mut state);
        let indices: Vec<usize> = (0..n + 1).map(|i| (i * 5 + 1) % n.max(1)).collect();
        let segments: Vec<usize> = (0..indices.len()).map(|i| i % 2).collect();

        let mut params = make_params(d_in, d_out, &mut state);
        let mut opt = Optimizer::adam(0.01);
        let mut g = Graph::new();
        step(&mut g, &mut params, &mut opt, &x, &y, &indices, &segments, op_mix, mix);
        g.reset();
        let before = g.pool_stats();
        step(&mut g, &mut params, &mut opt, &x, &y, &indices, &segments, op_mix, mix);
        let after = g.pool_stats();
        prop_assert_eq!(
            after.misses, before.misses,
            "warm replay hit the heap: {} new misses", after.misses - before.misses
        );
        prop_assert!(after.hits > before.hits, "warm replay never touched the pool");
    }
}
