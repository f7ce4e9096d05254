//! Tape-free forward execution for inference.
//!
//! [`ForwardCtx`] abstracts the op-constructor surface that model forward
//! passes need, so one generic forward implementation can run either on the
//! recording autodiff tape ([`Graph`]) or on the no-tape [`InferCtx`]. Both
//! implementations compute every primitive op through the same
//! [`crate::fwd`] kernel, so a generic forward pass gives the same bits on
//! both (the model crate's `infer_serve` tests check it end to end).
//!
//! [`InferCtx`] is the inference fast path: it keeps only forward values
//! over a capacity-keyed [`BufferPool`] — no op records, no gradient slots,
//! no parameter bindings, no constant arena. A long-lived context that is
//! [`ForwardCtx::reset`] between queries replays the forward pass with zero
//! steady-state heap allocations, and [`ForwardCtx::free`] lets callers
//! return dead intermediates to the pool mid-pass (a no-op on the tape,
//! which must keep every node for backward).

use crate::fwd::{self, EdgeRows};
use crate::graph::{Graph, Var};
use crate::params::{ParamId, Params};
use crate::pool::{BufferPool, PoolStats};
use crate::tensor::Tensor;

/// The forward op-constructor surface shared by the autodiff tape and the
/// tape-free inference context.
///
/// Implementations must be value-equivalent: running the same op sequence
/// on any two implementations yields bitwise-identical tensors. Every op
/// forwards to the shared kernels in [`crate::fwd`].
pub trait ForwardCtx {
    /// Clears all recorded values for reuse, recycling their storage.
    fn reset(&mut self);
    /// Records an owned tensor as a leaf value.
    fn input(&mut self, t: Tensor) -> Var;
    /// Records a pooled copy of `t` as a leaf value.
    fn input_from(&mut self, t: &Tensor) -> Var;
    /// Records a pooled gather of `src` rows as a leaf value.
    fn input_rows(&mut self, src: &Tensor, rows: &[usize]) -> Var;
    /// Records a pooled `rows x cols` leaf whose contents `fill` writes.
    /// The buffer arrives with arbitrary pooled contents; `fill` must
    /// overwrite every element.
    fn input_with(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut [f32])) -> Var;
    /// Binds a parameter value as a leaf. The tape records the binding for
    /// gradient collection; the inference context just copies the value.
    fn param(&mut self, params: &Params, id: ParamId) -> Var;
    /// The forward value of `v`.
    fn value(&self, v: Var) -> &Tensor;
    /// Shape of the forward value of `v`.
    fn shape(&self, v: Var) -> (usize, usize) {
        self.value(v).shape()
    }
    /// Checks a cleared index buffer out of the context's pool.
    fn scratch_idx(&mut self) -> Vec<usize>;
    /// A pooled copy of `indices`.
    fn scratch_idx_from(&mut self, indices: &[usize]) -> Vec<usize>;
    /// Returns an index buffer to the context's pool.
    fn recycle_idx(&mut self, buf: Vec<usize>);
    /// Liveness hint: `v` will not be read again before the next `reset`.
    /// The tape ignores it (backward needs every node); the inference
    /// context recycles the buffer immediately. Reading a freed var is a
    /// caller bug and fails loudly on shape asserts downstream.
    fn free(&mut self, v: Var) {
        let _ = v;
    }

    fn add(&mut self, a: Var, b: Var) -> Var;
    fn sub(&mut self, a: Var, b: Var) -> Var;
    fn mul(&mut self, a: Var, b: Var) -> Var;
    fn add_row(&mut self, a: Var, row: Var) -> Var;
    fn mul_row(&mut self, a: Var, row: Var) -> Var;
    /// Broadcasts a `1 x m` row vector to `n` rows.
    fn tile_row(&mut self, row: Var, n: usize) -> Var;
    fn mul_col(&mut self, a: Var, col: Var) -> Var;
    fn div_col(&mut self, a: Var, col: Var) -> Var;
    fn scale(&mut self, a: Var, alpha: f32) -> Var;
    fn relu(&mut self, a: Var) -> Var;
    fn sigmoid(&mut self, a: Var) -> Var;
    fn softplus(&mut self, a: Var) -> Var;
    fn matmul(&mut self, a: Var, b: Var) -> Var;
    fn gather_rows(&mut self, a: Var, indices: Vec<usize>) -> Var;
    fn circ_corr(&mut self, a: Var, b: Var) -> Var;
    fn pairwise_sq_dist(&mut self, a: Var, b: Var) -> Var;
    fn recip1p(&mut self, a: Var) -> Var;
    fn sum_rows(&mut self, a: Var) -> Var;
    fn col_slice(&mut self, a: Var, j: usize) -> Var;
    /// `parts` stacked vertically in order (see [`Graph::stack_rows`]).
    fn stack_rows(&mut self, parts: &[Var]) -> Var;
    /// Fused edge attention over 1 to 3 score operands, `m x 1` (see
    /// [`Graph::edge_softmax`]).
    fn edge_softmax<const N: usize>(
        &mut self,
        scores: [(Var, EdgeRows); N],
        segments: Vec<usize>,
        n_seg: usize,
        slope: f32,
    ) -> Var;
    /// Fused weighted aggregation of 1 or 2 message operands, `n_seg x d`
    /// (see [`Graph::edge_aggregate`]).
    fn edge_aggregate<const N: usize>(
        &mut self,
        msgs: [(Var, EdgeRows); N],
        w: Var,
        segments: Vec<usize>,
        n_seg: usize,
    ) -> Var;

    /// `x W + b` for a batch `x: n x d_in`, `w: d_in x d_out`, `b: 1 x d_out`.
    fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let xw = self.matmul(x, w);
        self.add_row(xw, b)
    }
}

/// The tape delegates every [`ForwardCtx`] method to its inherent op
/// constructors, so generic forward code behaves exactly like direct tape
/// calls (same recording, same gradients).
impl ForwardCtx for Graph {
    fn reset(&mut self) {
        Graph::reset(self);
    }
    fn input(&mut self, t: Tensor) -> Var {
        Graph::input(self, t)
    }
    fn input_from(&mut self, t: &Tensor) -> Var {
        Graph::input_from(self, t)
    }
    fn input_rows(&mut self, src: &Tensor, rows: &[usize]) -> Var {
        Graph::input_rows(self, src, rows)
    }
    fn input_with(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut [f32])) -> Var {
        Graph::input_with(self, rows, cols, fill)
    }
    fn param(&mut self, params: &Params, id: ParamId) -> Var {
        Graph::param(self, params, id)
    }
    fn value(&self, v: Var) -> &Tensor {
        Graph::value(self, v)
    }
    fn shape(&self, v: Var) -> (usize, usize) {
        Graph::shape(self, v)
    }
    fn scratch_idx(&mut self) -> Vec<usize> {
        Graph::scratch_idx(self)
    }
    fn scratch_idx_from(&mut self, indices: &[usize]) -> Vec<usize> {
        Graph::scratch_idx_from(self, indices)
    }
    fn recycle_idx(&mut self, buf: Vec<usize>) {
        Graph::recycle_idx(self, buf);
    }
    fn add(&mut self, a: Var, b: Var) -> Var {
        Graph::add(self, a, b)
    }
    fn sub(&mut self, a: Var, b: Var) -> Var {
        Graph::sub(self, a, b)
    }
    fn mul(&mut self, a: Var, b: Var) -> Var {
        Graph::mul(self, a, b)
    }
    fn add_row(&mut self, a: Var, row: Var) -> Var {
        Graph::add_row(self, a, row)
    }
    fn mul_row(&mut self, a: Var, row: Var) -> Var {
        Graph::mul_row(self, a, row)
    }
    fn tile_row(&mut self, row: Var, n: usize) -> Var {
        Graph::tile_row(self, row, n)
    }
    fn mul_col(&mut self, a: Var, col: Var) -> Var {
        Graph::mul_col(self, a, col)
    }
    fn div_col(&mut self, a: Var, col: Var) -> Var {
        Graph::div_col(self, a, col)
    }
    fn scale(&mut self, a: Var, alpha: f32) -> Var {
        Graph::scale(self, a, alpha)
    }
    fn relu(&mut self, a: Var) -> Var {
        Graph::relu(self, a)
    }
    fn sigmoid(&mut self, a: Var) -> Var {
        Graph::sigmoid(self, a)
    }
    fn softplus(&mut self, a: Var) -> Var {
        Graph::softplus(self, a)
    }
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        Graph::matmul(self, a, b)
    }
    fn gather_rows(&mut self, a: Var, indices: Vec<usize>) -> Var {
        Graph::gather_rows(self, a, indices)
    }
    fn circ_corr(&mut self, a: Var, b: Var) -> Var {
        Graph::circ_corr(self, a, b)
    }
    fn pairwise_sq_dist(&mut self, a: Var, b: Var) -> Var {
        Graph::pairwise_sq_dist(self, a, b)
    }
    fn recip1p(&mut self, a: Var) -> Var {
        Graph::recip1p(self, a)
    }
    fn sum_rows(&mut self, a: Var) -> Var {
        Graph::sum_rows(self, a)
    }
    fn col_slice(&mut self, a: Var, j: usize) -> Var {
        Graph::col_slice(self, a, j)
    }
    fn stack_rows(&mut self, parts: &[Var]) -> Var {
        Graph::stack_rows(self, parts)
    }
    fn edge_softmax<const N: usize>(
        &mut self,
        scores: [(Var, EdgeRows); N],
        segments: Vec<usize>,
        n_seg: usize,
        slope: f32,
    ) -> Var {
        Graph::edge_softmax(self, scores, segments, n_seg, slope)
    }
    fn edge_aggregate<const N: usize>(
        &mut self,
        msgs: [(Var, EdgeRows); N],
        w: Var,
        segments: Vec<usize>,
        n_seg: usize,
    ) -> Var {
        Graph::edge_aggregate(self, msgs, w, segments, n_seg)
    }
}

/// No-tape, no-grad forward execution context.
///
/// Stores only the forward value of each op over a private [`BufferPool`].
/// Compared to running the same ops on a [`Graph`], there is no op record,
/// no gradient slot, no parameter-binding list, and no constant arena —
/// and a context kept alive across queries starts every pass with a warm
/// pool instead of a cold heap.
#[derive(Default)]
pub struct InferCtx {
    values: Vec<Tensor>,
    pool: BufferPool,
}

/// Placeholder stored in a freed slot; reading it fails shape asserts.
fn freed_slot() -> Tensor {
    Tensor::from_vec(0, 0, Vec::new())
}

impl InferCtx {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Checkout statistics of the context's buffer pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    fn push(&mut self, value: Tensor) -> Var {
        self.values.push(value);
        Var::from_index(self.values.len() - 1)
    }
}

impl ForwardCtx for InferCtx {
    fn reset(&mut self) {
        for v in self.values.drain(..) {
            if !v.is_empty() {
                self.pool.give(v.into_vec());
            }
        }
    }
    fn input(&mut self, t: Tensor) -> Var {
        self.push(t)
    }
    fn input_from(&mut self, t: &Tensor) -> Var {
        let v = self.pool.tensor_copy(t);
        self.push(v)
    }
    fn input_rows(&mut self, src: &Tensor, rows: &[usize]) -> Var {
        let v = fwd::input_rows(&mut self.pool, src, rows);
        self.push(v)
    }
    fn input_with(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut [f32])) -> Var {
        let mut t = self.pool.tensor_raw(rows, cols);
        fill(t.as_mut_slice());
        self.push(t)
    }
    fn param(&mut self, params: &Params, id: ParamId) -> Var {
        // Same value path as the tape (`Graph::param` = `input_from` plus a
        // binding); no binding is recorded because nothing differentiates.
        self.input_from(params.value(id))
    }
    fn value(&self, v: Var) -> &Tensor {
        &self.values[v.idx()]
    }
    fn scratch_idx(&mut self) -> Vec<usize> {
        self.pool.take_idx()
    }
    fn scratch_idx_from(&mut self, indices: &[usize]) -> Vec<usize> {
        let mut buf = self.pool.take_idx();
        buf.extend_from_slice(indices);
        buf
    }
    fn recycle_idx(&mut self, buf: Vec<usize>) {
        self.pool.give_idx(buf);
    }
    fn free(&mut self, v: Var) {
        let t = std::mem::replace(&mut self.values[v.idx()], freed_slot());
        if !t.is_empty() {
            self.pool.give(t.into_vec());
        }
    }
    fn add(&mut self, a: Var, b: Var) -> Var {
        let v = fwd::add(&mut self.pool, &self.values[a.idx()], &self.values[b.idx()]);
        self.push(v)
    }
    fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = fwd::sub(&mut self.pool, &self.values[a.idx()], &self.values[b.idx()]);
        self.push(v)
    }
    fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = fwd::mul(&mut self.pool, &self.values[a.idx()], &self.values[b.idx()]);
        self.push(v)
    }
    fn add_row(&mut self, a: Var, row: Var) -> Var {
        let v = fwd::add_row(
            &mut self.pool,
            &self.values[a.idx()],
            &self.values[row.idx()],
        );
        self.push(v)
    }
    fn mul_row(&mut self, a: Var, row: Var) -> Var {
        let v = fwd::mul_row(
            &mut self.pool,
            &self.values[a.idx()],
            &self.values[row.idx()],
        );
        self.push(v)
    }
    fn tile_row(&mut self, row: Var, n: usize) -> Var {
        let v = fwd::tile_row(&mut self.pool, &self.values[row.idx()], n);
        self.push(v)
    }
    fn mul_col(&mut self, a: Var, col: Var) -> Var {
        let v = fwd::mul_col(
            &mut self.pool,
            &self.values[a.idx()],
            &self.values[col.idx()],
        );
        self.push(v)
    }
    fn div_col(&mut self, a: Var, col: Var) -> Var {
        let v = fwd::div_col(
            &mut self.pool,
            &self.values[a.idx()],
            &self.values[col.idx()],
        );
        self.push(v)
    }
    fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let v = fwd::scale(&mut self.pool, &self.values[a.idx()], alpha);
        self.push(v)
    }
    fn relu(&mut self, a: Var) -> Var {
        let v = fwd::relu(&mut self.pool, &self.values[a.idx()]);
        self.push(v)
    }
    fn sigmoid(&mut self, a: Var) -> Var {
        let v = fwd::sigmoid(&mut self.pool, &self.values[a.idx()]);
        self.push(v)
    }
    fn softplus(&mut self, a: Var) -> Var {
        let v = fwd::softplus(&mut self.pool, &self.values[a.idx()]);
        self.push(v)
    }
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = fwd::matmul(&mut self.pool, &self.values[a.idx()], &self.values[b.idx()]);
        self.push(v)
    }
    fn gather_rows(&mut self, a: Var, indices: Vec<usize>) -> Var {
        let v = fwd::gather_rows(&mut self.pool, &self.values[a.idx()], &indices);
        self.pool.give_idx(indices);
        self.push(v)
    }
    fn circ_corr(&mut self, a: Var, b: Var) -> Var {
        let v = fwd::circ_corr(&mut self.pool, &self.values[a.idx()], &self.values[b.idx()]);
        self.push(v)
    }
    fn pairwise_sq_dist(&mut self, a: Var, b: Var) -> Var {
        let v = fwd::pairwise_sq_dist(&mut self.pool, &self.values[a.idx()], &self.values[b.idx()]);
        self.push(v)
    }
    fn recip1p(&mut self, a: Var) -> Var {
        let v = fwd::recip1p(&mut self.pool, &self.values[a.idx()]);
        self.push(v)
    }
    fn sum_rows(&mut self, a: Var) -> Var {
        let v = fwd::sum_rows(&mut self.pool, &self.values[a.idx()]);
        self.push(v)
    }
    fn col_slice(&mut self, a: Var, j: usize) -> Var {
        let v = fwd::col_slice(&mut self.pool, &self.values[a.idx()], j);
        self.push(v)
    }
    fn stack_rows(&mut self, parts: &[Var]) -> Var {
        let v = fwd::stack_rows(&mut self.pool, &self.values, parts);
        self.push(v)
    }
    fn edge_softmax<const N: usize>(
        &mut self,
        scores: [(Var, EdgeRows); N],
        segments: Vec<usize>,
        n_seg: usize,
        slope: f32,
    ) -> Var {
        let ops: [fwd::Operand; N] =
            std::array::from_fn(|k| (&self.values[scores[k].0.idx()], &scores[k].1));
        let (v, probs) = fwd::edge_softmax(&mut self.pool, &ops, &segments, n_seg, slope);
        self.pool.give(probs.into_vec());
        for (_, r) in scores {
            r.recycle(&mut self.pool);
        }
        self.pool.give_idx(segments);
        self.push(v)
    }
    fn edge_aggregate<const N: usize>(
        &mut self,
        msgs: [(Var, EdgeRows); N],
        w: Var,
        segments: Vec<usize>,
        n_seg: usize,
    ) -> Var {
        let ops: [fwd::Operand; N] =
            std::array::from_fn(|k| (&self.values[msgs[k].0.idx()], &msgs[k].1));
        let wv = &self.values[w.idx()];
        let v = fwd::edge_aggregate(&mut self.pool, &ops, wv, &segments, n_seg);
        for (_, r) in msgs {
            r.recycle(&mut self.pool);
        }
        self.pool.give_idx(segments);
        self.push(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a representative op soup on one context; returns the final value.
    fn run_ops<F: ForwardCtx>(ctx: &mut F) -> Vec<f32> {
        let a = ctx.input(Tensor::from_rows(&[&[1.0, -2.0, 3.0], &[0.5, 4.0, -1.0]]));
        let b = ctx.input_rows(
            &Tensor::from_rows(&[&[9.0, 9.0, 9.0], &[0.1, 0.2, 0.3], &[2.0, 0.5, -0.25]]),
            &[2, 1],
        );
        let s = ctx.add(a, b);
        let m = ctx.mul(s, a);
        let r = ctx.relu(m);
        let sg = ctx.sigmoid(m);
        let sp = ctx.softplus(sg);
        let cc = ctx.circ_corr(sp, r);
        let col = ctx.sum_rows(cc);
        let d = ctx.div_col(cc, col);
        let g = ctx.gather_rows(d, vec![1, 0, 1]);
        let ones = ctx.input_with(3, 1, |w| w.fill(1.0));
        let seg = ctx.edge_aggregate([(g, EdgeRows::Own)], ones, vec![0, 1, 0], 2);
        let cs = ctx.col_slice(seg, 1);
        let gc = ctx.col_slice(g, 2);
        let shift = ctx.input(Tensor::from_rows(&[&[-0.4]]));
        let sm = ctx.edge_softmax(
            [
                (cs, EdgeRows::Gather(vec![0, 1, 1])),
                (gc, EdgeRows::Own),
                (shift, EdgeRows::Broadcast),
            ],
            vec![0, 0, 1],
            2,
            0.2,
        );
        let sm1 = ctx.edge_softmax([(sm, EdgeRows::Own)], vec![1, 1, 0], 2, 1.0);
        let agg = ctx.edge_aggregate(
            [
                (seg, EdgeRows::Gather(vec![0, 1, 1])),
                (d, EdgeRows::Gather(vec![1, 1, 0])),
            ],
            sm1,
            vec![1, 0, 1],
            2,
        );
        let stacked = ctx.stack_rows(&[agg, seg]);
        let mc = ctx.gather_rows(stacked, vec![0, 3]);
        let w = ctx.input(Tensor::from_rows(&[&[0.3], &[-0.7], &[0.9]]));
        let bias = ctx.input(Tensor::from_rows(&[&[0.05]]));
        let out = ctx.linear(mc, w, bias);
        ctx.value(out).as_slice().to_vec()
    }

    #[test]
    fn infer_ctx_matches_graph_bitwise() {
        let mut g = Graph::new();
        let mut ic = InferCtx::new();
        let want = run_ops(&mut g);
        let got = run_ops(&mut ic);
        assert_eq!(want, got);
        // And again after a reset, off the warm pool.
        ForwardCtx::reset(&mut ic);
        let again = run_ops(&mut ic);
        assert_eq!(want, again);
    }

    /// `tile_row` is bitwise equal to the ones-column product
    /// `matmul(ones(n, 1), v)`: the forward (a `-0.0` entry comes out
    /// `+0.0`), the gradient into the row, and the tape-free forward.
    #[test]
    fn tile_row_matches_ones_column_product_bitwise() {
        let n = 7;
        let row = Tensor::from_rows(&[&[-0.0, 1.5, -2.25, 0.0, f32::MIN_POSITIVE]]);
        // Output weights of mixed sign with an all `-0.0` column: that
        // column's gradient sum must start from `+0.0` and stay there.
        let w = Tensor::from_vec(
            n,
            5,
            (0..n * 5)
                .map(|i| {
                    if i % 5 == 3 {
                        -0.0
                    } else {
                        i as f32 * 0.37 - 4.0
                    }
                })
                .collect(),
        );
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let run = |tile: &dyn Fn(&mut Graph, Var) -> Var| {
            let mut g = Graph::new();
            let v = g.input_from(&row);
            let t = tile(&mut g, v);
            let weighted = g.mul_const(t, &w);
            let loss = g.sum_all(weighted);
            g.backward(loss);
            (bits(g.value(t)), bits(g.grad(v).unwrap()))
        };
        let old = run(&|g, v| {
            let ones = g.input_with(n, 1, |b| b.fill(1.0));
            g.matmul(ones, v)
        });
        let new = run(&|g, v| g.tile_row(v, n));
        assert_eq!(new, old);
        assert_eq!(new.0[0], 0.0f32.to_bits(), "-0.0 must tile to +0.0");
        assert_eq!(new.1[3], 0.0f32.to_bits(), "-0.0 sums must start at +0.0");

        let mut ic = InferCtx::new();
        let v = ic.input_from(&row);
        let t = ic.tile_row(v, n);
        assert_eq!(bits(ic.value(t)), new.0);
    }

    #[test]
    fn reset_recycles_into_pool() {
        let mut ic = InferCtx::new();
        let _ = run_ops(&mut ic);
        ForwardCtx::reset(&mut ic);
        let misses_cold = ic.pool_stats().misses;
        let _ = run_ops(&mut ic);
        let misses_warm = ic.pool_stats().misses;
        assert_eq!(
            misses_cold, misses_warm,
            "second pass must run entirely from the warm pool"
        );
    }

    #[test]
    fn free_returns_buffers_early_and_does_not_disturb_results() {
        let mut ic = InferCtx::new();
        let want = {
            let mut g = Graph::new();
            run_ops(&mut g)
        };
        let a = ic.input(Tensor::from_rows(&[&[1.0, 2.0]]));
        let b = ic.scale(a, 2.0);
        ic.free(a);
        ic.free(a); // double-free is a no-op
        assert_eq!(ic.value(b).as_slice(), &[2.0, 4.0]);
        ForwardCtx::reset(&mut ic);
        let got = run_ops(&mut ic);
        assert_eq!(want, got);
    }
}
