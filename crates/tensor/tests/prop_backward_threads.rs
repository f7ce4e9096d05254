//! Property tests for the backward sweep across thread counts: for random
//! tapes, [`Graph::backward`] must give *bitwise* identical losses,
//! gradients and post-Adam parameters at 1, 2 and 4 tensor threads, on a
//! reused ([`Graph::reset`]) tape just as on a fresh one.
//!
//! The sweep itself is serial; the thread count changes how the kernels
//! inside it split their rows. Products below [`par::PAR_THRESHOLD`] run
//! serially at any count, so the shape draw mixes small tapes with wide
//! ones ([`WIDE`]) whose MatMul backward does at least 2^20 multiply-adds
//! and really splits over the workers; `wide_tapes_match_across_thread_counts`
//! runs every wide shape whatever the draw.
//!
//! The thread count is process-global, so each case runs under a shared
//! lock.

use proptest::prelude::*;
use tensor::{par, EdgeRows, Graph, Optimizer, Params, Tensor, Var};

/// Serialises access to the process-global thread override.
static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Small dims, biased toward kernel block edges (MR=4, NR=16) and odd
/// sizes.
const DIMS: [usize; 8] = [1, 2, 3, 4, 5, 7, 16, 17];

/// `(n, d_in, d_out)` shapes whose two products, `x·W` (`n x d_in x
/// d_out`) and `h·W2` (`n x d_out x d_out`), each do at least
/// `PAR_THRESHOLD` multiply-adds in the fused MatMul backward
/// (`2·n·k·m`), so both split at 2 and 4 threads.
const WIDE: [(usize, usize, usize); 2] = [(2048, 16, 16), (4099, 17, 16)];

/// A small shape three draws in four, a [`WIDE`] one otherwise.
fn shape() -> impl Strategy<Value = (usize, usize, usize)> {
    let dim = || (0usize..DIMS.len()).prop_map(|i| DIMS[i]);
    (0u8..4, dim(), dim(), dim(), 0usize..WIDE.len()).prop_map(|(pick, n, d_in, d_out, w)| {
        if pick == 0 {
            WIDE[w]
        } else {
            (n, d_in, d_out)
        }
    })
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

/// One drawn program: its inputs, gather and segment indices, initial
/// parameters and op mix.
struct Case {
    x: Tensor,
    y: Tensor,
    indices: Vec<usize>,
    segments: Vec<usize>,
    params: Params,
    op_mix: u8,
    mix: EdgeMix,
}

impl Case {
    fn new((n, d_in, d_out): (usize, usize, usize), seed: f32, op_mix: u8, mix: EdgeMix) -> Case {
        let mut state = seed + 0.0625;
        let x = fill(n, d_in, &mut state);
        let y = fill(n, 1, &mut state);
        let indices: Vec<usize> = (0..n + 1).map(|i| (i * 7 + 3) % n.max(1)).collect();
        let segments: Vec<usize> = (0..indices.len()).map(|i| i % 3).collect();
        let mut params = Params::new();
        params.add("w", fill(d_in, d_out, &mut state));
        params.add("b", fill(1, d_out, &mut state));
        params.add("w2", fill(d_out, d_out, &mut state));
        Case {
            x,
            y,
            indices,
            segments,
            params,
            op_mix,
            mix,
        }
    }

    /// Records the program on `g` with `params` and returns the loss: a
    /// linear layer, a shared side branch that fans back in, optional
    /// gather-aggregate and row scaling, then the edge ops.
    fn forward(&self, g: &mut Graph, params: &Params) -> Var {
        let ids: Vec<tensor::ParamId> = params.iter().map(|(id, _, _)| id).collect();
        let xv = g.input_from(&self.x);
        let w = g.param(params, ids[0]);
        let b = g.param(params, ids[1]);
        let lin = g.linear(xv, w, b);
        let mut h = match self.op_mix % 4 {
            0 => g.relu(lin),
            1 => g.tanh(lin),
            2 => g.sigmoid(lin),
            _ => g.softplus(lin),
        };
        // A second branch off the same activation: fan-in whose gradient
        // contributions accumulate in the sweep's fixed order.
        let w2 = g.param(params, ids[2]);
        let side = g.matmul(h, w2);
        let side = g.tanh(side);
        h = g.add(h, side);
        if self.op_mix & 4 != 0 {
            let n_seg = self.segments.iter().copied().max().map_or(0, |s| s + 1);
            let ones = g.input_with(self.indices.len(), 1, |w| w.fill(1.0));
            let rows = EdgeRows::Gather(self.indices.clone());
            h = g.edge_aggregate([(h, rows)], ones, self.segments.clone(), n_seg);
        }
        if self.op_mix & 8 != 0 {
            h = g.mul_row(h, b);
        }
        let agg = edge_ops(g, h, self.mix);
        let pred = g.sum_rows(agg);
        let yv: Vec<f32> = (0..g.shape(pred).0)
            .map(|i| self.y.as_slice()[i % self.y.len()])
            .collect();
        g.mse(pred, &Tensor::col_vec(yv))
    }

    /// Loss bits and every parameter binding's gradient bits after one
    /// forward and backward on `g`.
    fn sweep(&self, g: &mut Graph) -> (Vec<u32>, Vec<Option<Vec<u32>>>) {
        let loss = self.forward(g, &self.params);
        g.backward(loss);
        let gbits = g
            .bindings()
            .iter()
            .map(|&(_, v)| g.grad(v).map(bits))
            .collect();
        (bits(g.value(loss)), gbits)
    }

    /// Loss and parameter bits after each of three clipped Adam steps:
    /// on a fresh graph per step, or on one graph reset between steps.
    fn train(&self, reuse: bool) -> Vec<(Vec<u32>, Vec<Vec<u32>>)> {
        let mut params = self.params.clone();
        let mut opt = Optimizer::adam(0.01);
        let mut shared = Graph::new();
        let mut trace = Vec::new();
        for _ in 0..3 {
            let mut fresh = Graph::new();
            let g = if reuse {
                shared.reset();
                &mut shared
            } else {
                &mut fresh
            };
            let loss = self.forward(g, &params);
            g.backward(loss);
            opt.step_clipped(&mut params, g, Some(5.0));
            let pbits = params.iter().map(|(_, _, v)| bits(v)).collect();
            trace.push((bits(g.value(loss)), pbits));
        }
        trace
    }
}

/// Checks `case` at 1, 2 and 4 threads against a fresh graph at 1 thread:
/// one sweep on a fresh graph and on a reset one, and three training
/// steps on a reset graph. Returns the first divergence.
fn check_threads(case: &Case) -> Result<(), String> {
    let _guard = THREADS.lock().unwrap_or_else(|p| p.into_inner());
    par::set_num_threads(1);
    let want_sweep = case.sweep(&mut Graph::new());
    let want_train = case.train(false);
    let diverged = [1usize, 2, 4].into_iter().find_map(|t| {
        par::set_num_threads(t);
        let mut reused = Graph::new();
        case.sweep(&mut reused);
        reused.reset();
        let what = if case.sweep(&mut Graph::new()) != want_sweep {
            "fresh sweep"
        } else if case.sweep(&mut reused) != want_sweep {
            "reset sweep"
        } else if case.train(true) != want_train {
            "reset training"
        } else {
            return None;
        };
        Some(format!("{what} diverged at {t} threads"))
    });
    par::set_num_threads(0);
    diverged.map_or(Ok(()), Err)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backward_is_bitwise_identical_across_thread_counts_and_reset(
        shape in shape(),
        seed in 0.0f32..64.0,
        op_mix in 0u8..16,
        mix in edge_mix(),
    ) {
        let case = Case::new(shape, seed, op_mix, mix);
        prop_assert_eq!(check_threads(&case), Ok(()));
    }
}

#[test]
fn wide_tapes_match_across_thread_counts() {
    for &(n, d_in, d_out) in &WIDE {
        assert!(2 * n * d_in * d_out >= par::PAR_THRESHOLD);
        assert!(2 * n * d_out * d_out >= par::PAR_THRESHOLD);
        for op_mix in [0u8, 13] {
            let mix = EdgeMix {
                scores: 3,
                modes: [0, 1, 2],
                heads: 4,
                msgs: 2,
            };
            let case = Case::new((n, d_in, d_out), 7.5, op_mix, mix);
            assert_eq!(check_threads(&case), Ok(()), "shape {n}x{d_in}x{d_out}");
        }
    }
}
