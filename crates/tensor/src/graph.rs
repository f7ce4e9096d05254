//! Reverse-mode automatic differentiation on a tape ("Wengert list").
//!
//! A [`Graph`] records every differentiable operation of one forward pass.
//! Each op returns a [`Var`] handle; calling [`Graph::backward`] on a scalar
//! loss propagates gradients to every node, including parameter leaves bound
//! from a [`crate::params::Params`] store. The op set is tailored to the
//! needs of heterogeneous GNNs: gathers and the fused edge kernels for
//! attention and message passing over sampled neighborhoods, circular
//! correlation for HolE-style
//! entity-relation composition, and pairwise distances plus Student-t
//! transforms for DEC-style soft clustering.
//!
//! ## Memory model
//!
//! Every node value, gradient, and backward scratch buffer is checked out
//! of a per-graph [`BufferPool`] and [`Graph::reset`] returns them all, so
//! a long-lived graph that is reset between batches replays the training
//! step without heap allocations once the pool has warmed up. Constant
//! tensors (MSE targets, fixed mixing weights) are interned once per tape
//! in a constant arena ([`ConstId`]) instead of being cloned into the op
//! that uses them. Pooled execution is bitwise-identical to running each
//! step on a fresh graph — pooled buffers are either fully overwritten or
//! zero-filled before use, and no compute order depends on the pool (see
//! DESIGN.md, "Memory model").
//!
//! ## Backward sweep
//!
//! [`Graph::backward`] is one serial reverse sweep: nodes in descending
//! id order, each op's parent contributions accumulated in argument
//! order, so every fan-in sum has one fixed addition order. Parallelism
//! lives inside the kernels (a large MatMul backward splits its rows over
//! the [`crate::par`] workers), whose results do not depend on the thread
//! count, so gradients are bitwise-identical at every thread count (see
//! DESIGN.md, "Backward sweep").

use crate::params::{ParamId, Params};
use crate::pool::BufferPool;
use crate::tensor::{
    circular_convolution_windowed, circular_correlation_windowed, dot, fill_conv_window,
    fill_corr_window, Tensor,
};

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that created it, and only until the next [`Graph::reset`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(u32);

impl Var {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }

    /// Builds a handle from a raw node index (crate-internal: the tape-free
    /// [`crate::infer::InferCtx`] shares the handle type).
    #[inline]
    pub(crate) fn from_index(i: usize) -> Var {
        debug_assert!(i < u32::MAX as usize);
        Var(i as u32)
    }
}

/// Handle to a constant tensor interned in a [`Graph`]'s constant arena via
/// [`Graph::constant`]. Valid until the next [`Graph::reset`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConstId(u32);

impl ConstId {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The recorded operation of a node, holding parent handles and whatever
/// auxiliary data the backward pass needs.
#[derive(Debug)]
enum Op {
    /// Leaf node: an input or a bound parameter. No parents.
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// `a (n x m) + row (1 x m)` broadcast over rows.
    AddRow(Var, Var),
    /// `a (n x m) * row (1 x m)` broadcast over rows.
    MulRow(Var, Var),
    /// `row (1 x m)` broadcast to `n x m` (the count lives in the value's
    /// shape).
    TileRow(Var),
    /// `a (n x m) * col (n x 1)` broadcast over columns.
    MulCol(Var, Var),
    /// `a (n x m) / col (n x 1)` broadcast over columns.
    DivCol(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Neg(Var),
    MatMul(Var, Var),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Softplus(Var),
    /// `ln(max(x, EPS))`.
    Log(Var),
    Square(Var),
    SumAll(Var),
    MeanAll(Var),
    SumRows(Var),
    GatherRows(Var, Vec<usize>),
    /// Row-wise dot product of two `n x d` tensors, yielding `n x 1`.
    RowwiseDot(Var, Var),
    /// Row-wise circular correlation of two `n x d` tensors.
    CircCorr(Var, Var),
    /// Pairwise squared distances: rows of `a` (n x d) vs rows of `b` (k x d),
    /// yielding `n x k`.
    PairwiseSqDist(Var, Var),
    /// `y = 1 / (1 + x)` element-wise (Student-t kernel numerator).
    Recip1p(Var),
    /// Extracts column `j` of `a` as an `n x 1` tensor.
    ColSlice(Var, usize),
    /// Element-wise product with an interned constant (no gradient to it).
    MulConst(Var, ConstId),
    /// Mean squared error against an interned constant target; `1 x 1`.
    Mse(Var, ConstId),
    /// Fused edge attention ([`Graph::edge_softmax`]): the score operands
    /// and how their rows meet the edges, each edge's segment, the segment
    /// count, the LeakyReLU slope, and the `m x H` per-head softmax
    /// weights that backward reads.
    EdgeSoftmax {
        scores: EdgeOperands<3>,
        segments: Vec<usize>,
        n_seg: usize,
        slope: f32,
        probs: Tensor,
    },
    /// Fused weighted aggregation ([`Graph::edge_aggregate`]) of the
    /// message operands with per-edge weights `w` into segments.
    EdgeAggregate {
        msgs: EdgeOperands<2>,
        w: Var,
        segments: Vec<usize>,
    },
    /// Vertical stack of any number of parents, whose node ids the pooled
    /// list holds in stack order.
    StackRows(Vec<usize>),
}

/// The `(operand, rows)` pairs of a fused edge op, held inline: the first
/// `len` of the `N` slots are in use, so recording allocates nothing.
#[derive(Debug)]
struct EdgeOperands<const N: usize> {
    len: usize,
    vars: [Var; N],
    rows: [EdgeRows; N],
}

impl<const N: usize> EdgeOperands<N> {
    fn new<const K: usize>(ops: [(Var, EdgeRows); K]) -> Self {
        assert!(
            K <= N,
            "a fused edge op takes at most {N} operands, got {K}"
        );
        let mut out = EdgeOperands {
            len: K,
            vars: [Var(0); N],
            rows: std::array::from_fn(|_| EdgeRows::Own),
        };
        for ((v, r), (ov, or)) in ops.into_iter().zip(out.vars.iter_mut().zip(&mut out.rows)) {
            *ov = v;
            *or = r;
        }
        out
    }

    /// The operands in use, in list order.
    fn iter(&self) -> impl Iterator<Item = (Var, &EdgeRows)> {
        self.vars.iter().copied().zip(&self.rows).take(self.len)
    }

    /// Runs `f` on the operands' values and rows, in list order.
    fn with_values<'a, R>(
        &'a self,
        values: &'a [Tensor],
        f: impl FnOnce(&[fwd::Operand<'a>]) -> R,
    ) -> R {
        let all: [fwd::Operand; N] =
            std::array::from_fn(|k| (&values[self.vars[k].idx()], &self.rows[k]));
        f(all.get(..self.len).unwrap_or_default())
    }
}

/// Display name of an op variant, for diagnostics on malformed tapes.
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Leaf => "Leaf",
        Op::Add(..) => "Add",
        Op::Sub(..) => "Sub",
        Op::Mul(..) => "Mul",
        Op::AddRow(..) => "AddRow",
        Op::MulRow(..) => "MulRow",
        Op::TileRow(..) => "TileRow",
        Op::MulCol(..) => "MulCol",
        Op::DivCol(..) => "DivCol",
        Op::Scale(..) => "Scale",
        Op::AddScalar(..) => "AddScalar",
        Op::Neg(..) => "Neg",
        Op::MatMul(..) => "MatMul",
        Op::Relu(..) => "Relu",
        Op::Sigmoid(..) => "Sigmoid",
        Op::Tanh(..) => "Tanh",
        Op::Softplus(..) => "Softplus",
        Op::Log(..) => "Log",
        Op::Square(..) => "Square",
        Op::SumAll(..) => "SumAll",
        Op::MeanAll(..) => "MeanAll",
        Op::SumRows(..) => "SumRows",
        Op::GatherRows(..) => "GatherRows",
        Op::RowwiseDot(..) => "RowwiseDot",
        Op::CircCorr(..) => "CircCorr",
        Op::PairwiseSqDist(..) => "PairwiseSqDist",
        Op::Recip1p(..) => "Recip1p",
        Op::ColSlice(..) => "ColSlice",
        Op::MulConst(..) => "MulConst",
        Op::Mse(..) => "Mse",
        Op::EdgeSoftmax { .. } => "EdgeSoftmax",
        Op::EdgeAggregate { .. } => "EdgeAggregate",
        Op::StackRows(..) => "StackRows",
    }
}

/// Release-mode tape integrity check run before each backward rule: a
/// gradient whose shape disagrees with its node's forward value means the
/// tape is malformed (e.g. an externally injected or corrupted gradient),
/// and the backward rules would otherwise fail with an opaque index panic
/// deep inside a kernel. Reports the offending op id and name instead.
#[inline]
fn check_grad_shape(i: usize, op: &Op, g: &Tensor, values: &[Tensor]) {
    let want = values[i].shape();
    let got = g.shape();
    if got != want {
        panic!(
            "malformed tape: gradient shape {got:?} != value shape {want:?} at op #{i} ({})",
            op_name(op)
        );
    }
}

/// Floor used inside [`Graph::log`] to keep gradients finite.
pub const LOG_EPS: f32 = 1e-12;

/// A single forward pass's computation tape.
///
/// Build one `Graph` per training run and call [`Graph::reset`] between
/// batches: the tape clears but its node storage and the buffer pool
/// survive, so the next batch's forward/backward reuses last batch's
/// allocations.
#[derive(Default)]
pub struct Graph {
    // Node storage is struct-of-arrays: `values`, `grads`, and `ops` are
    // indexed by node id. The split lets the backward pass borrow values
    // and ops immutably while it writes gradients.
    values: Vec<Tensor>,
    grads: Vec<Option<Tensor>>,
    ops: Vec<Op>,
    bindings: Vec<(ParamId, Var)>,
    consts: Vec<Tensor>,
    pool: BufferPool,
}

use crate::fwd::{self, pooled_map, pooled_zip, EdgeRows};

impl Graph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Clears the tape for reuse: every node's value/grad buffer, every
    /// interned constant, and all parameter bindings are recycled into the
    /// graph's buffer pool, while the tape's own node storage keeps its
    /// capacity. All [`Var`]/[`ConstId`] handles from before the reset
    /// become invalid. Replaying the same ops after a reset produces
    /// bitwise-identical values and gradients to a fresh graph.
    pub fn reset(&mut self) {
        for v in self.values.drain(..) {
            self.pool.give(v.into_vec());
        }
        for grad in self.grads.drain(..).flatten() {
            self.pool.give(grad.into_vec());
        }
        for op in self.ops.drain(..) {
            match op {
                Op::GatherRows(_, idx) | Op::StackRows(idx) => self.pool.give_idx(idx),
                Op::EdgeSoftmax {
                    scores,
                    segments,
                    probs,
                    ..
                } => {
                    for r in scores.rows {
                        r.recycle(&mut self.pool);
                    }
                    self.pool.give_idx(segments);
                    self.pool.give(probs.into_vec());
                }
                Op::EdgeAggregate { msgs, segments, .. } => {
                    for r in msgs.rows {
                        r.recycle(&mut self.pool);
                    }
                    self.pool.give_idx(segments);
                }
                _ => {}
            }
        }
        for c in self.consts.drain(..) {
            self.pool.give(c.into_vec());
        }
        self.bindings.clear();
    }

    /// Checkout statistics of the graph's buffer pool.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.stats()
    }

    /// Checks a cleared index buffer out of the graph's pool. Build gather
    /// indices or segment ids into it and hand it to the op taking it by
    /// value — [`Graph::reset`] recycles it with the rest of the tape.
    /// Buffers that never reach an op go back via [`Graph::recycle_idx`].
    pub fn scratch_idx(&mut self) -> Vec<usize> {
        self.pool.take_idx()
    }

    /// A pooled copy of `indices` (see [`Graph::scratch_idx`]).
    pub fn scratch_idx_from(&mut self, indices: &[usize]) -> Vec<usize> {
        let mut buf = self.pool.take_idx();
        buf.extend_from_slice(indices);
        buf
    }

    /// Returns an index buffer to the graph's pool.
    pub fn recycle_idx(&mut self, buf: Vec<usize>) {
        self.pool.give_idx(buf);
    }

    /// Returns a tensor's storage to the graph's pool.
    pub fn recycle(&mut self, t: Tensor) {
        self.pool.recycle(t);
    }

    /// Sums bound-parameter gradients (over repeated bindings, in binding
    /// order) into pooled tensors, sorted by parameter id. Parameters whose
    /// bound vars received no gradient are omitted. The caller returns each
    /// tensor via [`Graph::recycle`] once consumed, keeping optimizer steps
    /// off the heap.
    pub fn collect_param_grads(&mut self) -> Vec<(ParamId, Tensor)> {
        let Graph {
            grads,
            bindings,
            pool,
            ..
        } = self;
        let mut out: Vec<(ParamId, Tensor)> = Vec::new();
        for &(pid, var) in bindings.iter() {
            if let Some(grad) = grads[var.idx()].as_ref() {
                match out.iter_mut().find(|(p, _)| *p == pid) {
                    Some((_, acc)) => acc.add_assign(grad),
                    None => out.push((pid, pool.tensor_copy(grad))),
                }
            }
        }
        out.sort_by_key(|(id, _)| *id);
        out
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        debug_assert!(self.values.len() < u32::MAX as usize);
        self.values.push(value);
        self.grads.push(None);
        self.ops.push(op);
        Var((self.values.len() - 1) as u32)
    }

    /// Records a constant/input leaf. It receives a gradient during backward
    /// (readable via [`Graph::grad`]) but is not bound to any parameter.
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf)
    }

    /// Records a leaf holding a pooled copy of `t` — equivalent to
    /// `input(t.clone())` without the steady-state heap allocation.
    pub fn input_from(&mut self, t: &Tensor) -> Var {
        let v = self.pool.tensor_copy(t);
        self.push(v, Op::Leaf)
    }

    /// Records a leaf holding a pooled gather of `src`'s rows — equivalent
    /// to `input(src.gather_rows(rows))` without the steady-state heap
    /// allocation. Used by batch assembly that selects feature rows for a
    /// sampled node set.
    pub fn input_rows(&mut self, src: &Tensor, rows: &[usize]) -> Var {
        let out = fwd::input_rows(&mut self.pool, src, rows);
        self.push(out, Op::Leaf)
    }

    /// Records a pooled `rows x cols` input leaf whose contents `fill`
    /// writes. The buffer arrives with arbitrary pooled contents; `fill`
    /// must overwrite every element.
    pub fn input_with(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut [f32])) -> Var {
        let mut t = self.pool.tensor_raw(rows, cols);
        fill(t.as_mut_slice());
        self.push(t, Op::Leaf)
    }

    /// Binds a parameter from `params` as a leaf; its gradient is later
    /// collected by the optimizer. Binding the same parameter several times
    /// is allowed — gradients are summed at step time.
    pub fn param(&mut self, params: &Params, id: ParamId) -> Var {
        let v = self.input_from(params.value(id));
        self.bindings.push((id, v));
        v
    }

    /// Interns a constant tensor in the graph's arena. The handle can feed
    /// any number of [`Graph::mul_const_id`] / [`Graph::mse_id`] ops without
    /// copying the data again.
    pub fn constant(&mut self, t: Tensor) -> ConstId {
        debug_assert!(self.consts.len() < u32::MAX as usize);
        self.consts.push(t);
        ConstId((self.consts.len() - 1) as u32)
    }

    /// Interns a pooled copy of `t` (see [`Graph::constant`]).
    pub fn constant_from(&mut self, t: &Tensor) -> ConstId {
        let c = self.pool.tensor_copy(t);
        self.constant(c)
    }

    /// The tensor interned under `c`.
    pub fn constant_value(&self, c: ConstId) -> &Tensor {
        &self.consts[c.idx()]
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[v.idx()]
    }

    /// The accumulated gradient of `v`, if backward has reached it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads[v.idx()].as_ref()
    }

    /// Mutable access to the accumulated gradient of `v` (fault-injection
    /// and gradient-surgery hooks).
    pub fn grad_mut(&mut self, v: Var) -> Option<&mut Tensor> {
        self.grads[v.idx()].as_mut()
    }

    /// Shape of the forward value of `v`.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.values[v.idx()].shape()
    }

    /// `(ParamId, Var)` pairs recorded by [`Graph::param`].
    pub fn bindings(&self) -> &[(ParamId, Var)] {
        &self.bindings
    }

    // -----------------------------------------------------------------
    // Op constructors (forward pass).
    // -----------------------------------------------------------------

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = fwd::add(&mut self.pool, &self.values[a.idx()], &self.values[b.idx()]);
        self.push(v, Op::Add(a, b))
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = fwd::sub(&mut self.pool, &self.values[a.idx()], &self.values[b.idx()]);
        self.push(v, Op::Sub(a, b))
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = fwd::mul(&mut self.pool, &self.values[a.idx()], &self.values[b.idx()]);
        self.push(v, Op::Mul(a, b))
    }

    /// Adds a `1 x m` row vector to every row of an `n x m` tensor.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let out = fwd::add_row(
            &mut self.pool,
            &self.values[a.idx()],
            &self.values[row.idx()],
        );
        self.push(out, Op::AddRow(a, row))
    }

    /// Multiplies every row of an `n x m` tensor by a `1 x m` row vector.
    pub fn mul_row(&mut self, a: Var, row: Var) -> Var {
        let out = fwd::mul_row(
            &mut self.pool,
            &self.values[a.idx()],
            &self.values[row.idx()],
        );
        self.push(out, Op::MulRow(a, row))
    }

    /// Broadcasts a `1 x m` row vector to `n` rows. Value and gradient are
    /// bitwise equal to `matmul(ones(n, 1), row)`, without the ones leaf
    /// or its gradient.
    pub fn tile_row(&mut self, row: Var, n: usize) -> Var {
        let out = fwd::tile_row(&mut self.pool, &self.values[row.idx()], n);
        self.push(out, Op::TileRow(row))
    }

    /// Scales row `i` of an `n x m` tensor by `col[i]` (`col` is `n x 1`).
    pub fn mul_col(&mut self, a: Var, col: Var) -> Var {
        let out = fwd::mul_col(
            &mut self.pool,
            &self.values[a.idx()],
            &self.values[col.idx()],
        );
        self.push(out, Op::MulCol(a, col))
    }

    /// Divides row `i` of an `n x m` tensor by `col[i]` (`col` is `n x 1`).
    pub fn div_col(&mut self, a: Var, col: Var) -> Var {
        let out = fwd::div_col(
            &mut self.pool,
            &self.values[a.idx()],
            &self.values[col.idx()],
        );
        self.push(out, Op::DivCol(a, col))
    }

    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let v = fwd::scale(&mut self.pool, &self.values[a.idx()], alpha);
        self.push(v, Op::Scale(a, alpha))
    }

    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = pooled_map(&mut self.pool, &self.values[a.idx()], |x| x + c);
        self.push(v, Op::AddScalar(a))
    }

    pub fn neg(&mut self, a: Var) -> Var {
        let v = pooled_map(&mut self.pool, &self.values[a.idx()], |x| -x);
        self.push(v, Op::Neg(a))
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let out = fwd::matmul(&mut self.pool, &self.values[a.idx()], &self.values[b.idx()]);
        self.push(out, Op::MatMul(a, b))
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let v = fwd::relu(&mut self.pool, &self.values[a.idx()]);
        self.push(v, Op::Relu(a))
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = fwd::sigmoid(&mut self.pool, &self.values[a.idx()]);
        self.push(v, Op::Sigmoid(a))
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let v = pooled_map(&mut self.pool, &self.values[a.idx()], f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// `softplus(x) = ln(1 + e^x)`, computed stably.
    pub fn softplus(&mut self, a: Var) -> Var {
        let v = fwd::softplus(&mut self.pool, &self.values[a.idx()]);
        self.push(v, Op::Softplus(a))
    }

    /// Natural log with input clamped to [`LOG_EPS`] for finiteness.
    pub fn log(&mut self, a: Var) -> Var {
        let v = pooled_map(&mut self.pool, &self.values[a.idx()], |x| {
            x.max(LOG_EPS).ln()
        });
        self.push(v, Op::Log(a))
    }

    pub fn square(&mut self, a: Var) -> Var {
        let v = pooled_map(&mut self.pool, &self.values[a.idx()], |x| x * x);
        self.push(v, Op::Square(a))
    }

    /// Sums all elements into a `1 x 1` scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.values[a.idx()].sum();
        let mut out = self.pool.tensor_raw(1, 1);
        out.as_mut_slice()[0] = s;
        self.push(out, Op::SumAll(a))
    }

    /// Mean of all elements as a `1 x 1` scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let s = self.values[a.idx()].mean();
        let mut out = self.pool.tensor_raw(1, 1);
        out.as_mut_slice()[0] = s;
        self.push(out, Op::MeanAll(a))
    }

    /// Per-row sums, `n x m -> n x 1`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let out = fwd::sum_rows(&mut self.pool, &self.values[a.idx()]);
        self.push(out, Op::SumRows(a))
    }

    /// `parts` stacked vertically in order; each part's gradient is its
    /// slice of the output's, copied once.
    pub fn stack_rows(&mut self, parts: &[Var]) -> Var {
        let out = fwd::stack_rows(&mut self.pool, &self.values, parts);
        let mut ids = self.pool.take_idx();
        ids.extend(parts.iter().map(|p| p.idx()));
        self.push(out, Op::StackRows(ids))
    }

    /// Fused edge attention, `m x 1`: per edge `e` and head `h` the score
    /// `LeakyReLU(a[ia_e] + b[ib_e] + c[ic_e])` (negative slope `slope`)
    /// over the 1 to 3 `scores` operands (summed in list order;
    /// [`EdgeRows`] says which row of each meets edge `e`), softmaxed per
    /// head within each of the `n_seg` segments, then averaged over the `H`
    /// heads (the operands' common width). With one `Own` operand and
    /// `H = 1` it is the segment softmax of `LeakyReLU(a)`; a `slope` of 1
    /// drops the LeakyReLU, bit for bit.
    pub fn edge_softmax<const N: usize>(
        &mut self,
        scores: [(Var, EdgeRows); N],
        segments: Vec<usize>,
        n_seg: usize,
        slope: f32,
    ) -> Var {
        let scores = EdgeOperands::<3>::new(scores);
        let (out, probs) = scores.with_values(&self.values, |ops| {
            fwd::edge_softmax(&mut self.pool, ops, &segments, n_seg, slope)
        });
        let op = Op::EdgeSoftmax {
            scores,
            segments,
            n_seg,
            slope,
            probs,
        };
        self.push(out, op)
    }

    /// Fused weighted aggregation, `n_seg x d`: `out[seg_e] += msg_e * w_e`
    /// over the edges in order, where `msg_e` is the row of the one `msgs`
    /// operand that meets edge `e`, or the sum of the two operands' rows.
    /// No per-edge `m x d` tensor is built, forward or backward.
    pub fn edge_aggregate<const N: usize>(
        &mut self,
        msgs: [(Var, EdgeRows); N],
        w: Var,
        segments: Vec<usize>,
        n_seg: usize,
    ) -> Var {
        let msgs = EdgeOperands::<2>::new(msgs);
        let wv = &self.values[w.idx()];
        let out = msgs.with_values(&self.values, |ops| {
            fwd::edge_aggregate(&mut self.pool, ops, wv, &segments, n_seg)
        });
        self.push(out, Op::EdgeAggregate { msgs, w, segments })
    }

    /// Gathers rows of `a` by `indices` (duplicates allowed).
    pub fn gather_rows(&mut self, a: Var, indices: Vec<usize>) -> Var {
        let out = fwd::gather_rows(&mut self.pool, &self.values[a.idx()], &indices);
        self.push(out, Op::GatherRows(a, indices))
    }

    /// Row-wise dot product, `n x d . n x d -> n x 1`.
    pub fn rowwise_dot(&mut self, a: Var, b: Var) -> Var {
        let (n, _d) = self.shape(a);
        assert_eq!(self.shape(a), self.shape(b), "rowwise_dot shape mismatch");
        let mut out = self.pool.tensor_raw(n, 1);
        let av = &self.values[a.idx()];
        let bv = &self.values[b.idx()];
        for ((o, x), y) in out
            .as_mut_slice()
            .iter_mut()
            .zip(av.rows_iter())
            .zip(bv.rows_iter())
        {
            *o = dot(x, y);
        }
        self.push(out, Op::RowwiseDot(a, b))
    }

    /// Row-wise circular correlation (HolE composition), `n x d` each.
    pub fn circ_corr(&mut self, a: Var, b: Var) -> Var {
        let out = fwd::circ_corr(&mut self.pool, &self.values[a.idx()], &self.values[b.idx()]);
        self.push(out, Op::CircCorr(a, b))
    }

    /// Pairwise squared distances between rows of `a` (`n x d`) and rows of
    /// `b` (`k x d`), differentiable in both arguments.
    pub fn pairwise_sq_dist(&mut self, a: Var, b: Var) -> Var {
        let out =
            fwd::pairwise_sq_dist(&mut self.pool, &self.values[a.idx()], &self.values[b.idx()]);
        self.push(out, Op::PairwiseSqDist(a, b))
    }

    /// `y = 1 / (1 + x)` element-wise.
    pub fn recip1p(&mut self, a: Var) -> Var {
        let v = fwd::recip1p(&mut self.pool, &self.values[a.idx()]);
        self.push(v, Op::Recip1p(a))
    }

    /// Extracts column `j` as an `n x 1` tensor.
    pub fn col_slice(&mut self, a: Var, j: usize) -> Var {
        let out = fwd::col_slice(&mut self.pool, &self.values[a.idx()], j);
        self.push(out, Op::ColSlice(a, j))
    }

    /// Element-wise product with an interned constant (no gradient flows to
    /// the constant). Used for fixed mixing weights such as the
    /// self-training target distribution P in DEC-style losses.
    pub fn mul_const_id(&mut self, a: Var, c: ConstId) -> Var {
        let v = pooled_zip(
            &mut self.pool,
            &self.values[a.idx()],
            &self.consts[c.idx()],
            |x, y| x * y,
        );
        self.push(v, Op::MulConst(a, c))
    }

    /// [`Graph::mul_const_id`] for a constant not yet interned; the tensor
    /// is interned (pooled copy) first.
    pub fn mul_const(&mut self, a: Var, c: &Tensor) -> Var {
        let cid = self.constant_from(c);
        self.mul_const_id(a, cid)
    }

    /// Mean squared error against an interned constant target, `1 x 1`.
    pub fn mse_id(&mut self, pred: Var, target: ConstId) -> Var {
        let loss = {
            let pv = &self.values[pred.idx()];
            let tv = &self.consts[target.idx()];
            assert_eq!(pv.shape(), tv.shape(), "mse shape mismatch");
            let n = pv.len().max(1) as f32;
            let s: f32 = pv
                .as_slice()
                .iter()
                .zip(tv.as_slice())
                .map(|(&p, &t)| (p - t) * (p - t))
                .sum();
            s / n
        };
        let mut out = self.pool.tensor_raw(1, 1);
        out.as_mut_slice()[0] = loss;
        self.push(out, Op::Mse(pred, target))
    }

    /// [`Graph::mse_id`] for a target not yet interned; the tensor is
    /// interned (pooled copy) first. Intern targets reused across several
    /// losses once with [`Graph::constant_from`] instead.
    pub fn mse(&mut self, pred: Var, target: &Tensor) -> Var {
        let cid = self.constant_from(target);
        self.mse_id(pred, cid)
    }

    // Convenience compounds ---------------------------------------------

    /// `x W + b` for a batch `x: n x d_in`, `w: d_in x d_out`, `b: 1 x d_out`.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let xw = self.matmul(x, w);
        self.add_row(xw, b)
    }

    /// Sum of squared elements as a `1 x 1` scalar (L2 penalty building block).
    pub fn l2(&mut self, a: Var) -> Var {
        let s = self.square(a);
        self.sum_all(s)
    }

    // -----------------------------------------------------------------
    // Backward pass.
    // -----------------------------------------------------------------

    /// Runs reverse-mode differentiation seeded at `loss`, which must be a
    /// `1 x 1` scalar. Gradients accumulate on every reachable node.
    ///
    /// The sweep visits nodes in descending id order and accumulates each
    /// op's contributions in argument order. A second call on the same
    /// tape adds to the gradients already there (the loss's own seed is
    /// reset to 1).
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.shape(loss), (1, 1), "backward seed must be a scalar");
        let idx = loss.idx();
        let mut seed = self.pool.tensor_raw(1, 1);
        seed.as_mut_slice()[0] = 1.0;
        self.grads[idx] = Some(seed);
        for i in (0..=idx).rev() {
            let Some(g) = self.grads[i].take() else {
                continue;
            };
            check_grad_shape(i, &self.ops[i], &g, &self.values);
            let mut sink = SerialSink {
                op: i,
                values: &self.values,
                grads: &mut self.grads,
                pool: &mut self.pool,
            };
            backward_op(i, &self.ops[i], &g, &self.values, &self.consts, &mut sink);
            self.grads[i] = Some(g);
        }
    }
}

/// Where [`backward_op`] sends the gradient contributions an op emits to
/// its parents: straight into `grads`. The first contribution to a node
/// installs a pooled buffer, later ones add into it in place.
struct SerialSink<'a> {
    /// Id of the op currently emitting — names the culprit when a parent's
    /// accumulated gradient turns out malformed.
    op: usize,
    values: &'a [Tensor],
    grads: &'a mut [Option<Tensor>],
    /// The graph's pool: contribution buffers and op-internal temporaries
    /// (taken and returned within one op).
    pool: &'a mut BufferPool,
}

impl SerialSink<'_> {
    /// Descriptive release-mode guard for accumulating into a pre-existing
    /// parent gradient: a shape disagreement means the tape was corrupted
    /// (e.g. by external gradient surgery) and would otherwise die with an
    /// anonymous assert inside `add_assign`.
    #[inline]
    fn check_accum(&self, p: Var, want: (usize, usize)) {
        let Some(g) = &self.grads[p.idx()] else {
            return;
        };
        let have = g.shape();
        if have != want {
            panic!(
                "malformed tape: accumulated gradient of node {} has shape {have:?}, \
                 expected {want:?} (emitting op #{})",
                p.idx(),
                self.op
            );
        }
    }

    /// Installs `t` as `p`'s gradient, or adds it to the one already there
    /// and returns its buffer to the pool.
    fn accumulate(&mut self, p: Var, t: Tensor) {
        match &mut self.grads[p.idx()] {
            Some(g) => {
                g.add_assign(&t);
                self.pool.give(t.into_vec());
            }
            slot => *slot = Some(t),
        }
    }

    /// Emits `alpha * t` as `p`'s next contribution.
    fn emit_scaled(&mut self, p: Var, t: &Tensor, alpha: f32) {
        self.check_accum(p, t.shape());
        match &mut self.grads[p.idx()] {
            Some(g) => {
                if alpha == 1.0 {
                    g.add_assign(t);
                } else {
                    g.add_scaled(t, alpha);
                }
            }
            slot => {
                let init = if alpha == 1.0 {
                    self.pool.tensor_copy(t)
                } else {
                    pooled_map(self.pool, t, |x| x * alpha)
                };
                *slot = Some(init);
            }
        }
    }

    /// Emits a computed contribution to `p`: `fill` must fully define the
    /// contents of the buffer it gets (shape = `p`'s value shape; contents
    /// unspecified on entry).
    fn emit_with(&mut self, p: Var, fill: impl FnOnce(&mut Tensor)) {
        let (r, c) = self.values[p.idx()].shape();
        self.check_accum(p, (r, c));
        let mut t = self.pool.tensor_raw(r, c);
        fill(&mut t);
        self.accumulate(p, t);
    }

    /// Emits two computed contributions in one call — the fused MatMul
    /// backward fills both parents' buffers at once so its kernels share
    /// a single parallel region. Equivalent to `emit_with(pa, …)` followed
    /// by `emit_with(pb, …)`, including the repeated-parent case
    /// `pa == pb`, where `tb` accumulates into the gradient `ta` just
    /// installed.
    fn emit_pair_with(&mut self, pa: Var, pb: Var, fill: impl FnOnce(&mut Tensor, &mut Tensor)) {
        let (ra, ca) = self.values[pa.idx()].shape();
        let (rb, cb) = self.values[pb.idx()].shape();
        self.check_accum(pa, (ra, ca));
        self.check_accum(pb, (rb, cb));
        let mut ta = self.pool.tensor_raw(ra, ca);
        let mut tb = self.pool.tensor_raw(rb, cb);
        fill(&mut ta, &mut tb);
        self.accumulate(pa, ta);
        self.accumulate(pb, tb);
    }
}

/// Writes the column sums of `g` into the `1 x m` `out`: each summed from
/// `+0.0` in ascending row order, the order `matmul_ta` uses.
fn col_sums_into(g: &Tensor, out: &mut Tensor) {
    out.fill(0.0);
    for r in g.rows_iter() {
        for (o, &x) in out.as_mut_slice().iter_mut().zip(r) {
            *o += x;
        }
    }
}

/// The backward rule of node `i`: emits each parent's gradient
/// contribution to `sink`, in op-argument order.
fn backward_op(
    i: usize,
    op: &Op,
    g: &Tensor,
    values: &[Tensor],
    consts: &[Tensor],
    sink: &mut SerialSink,
) {
    match op {
        Op::Leaf => {}
        &Op::Add(a, b) => {
            sink.emit_scaled(a, g, 1.0);
            sink.emit_scaled(b, g, 1.0);
        }
        &Op::Sub(a, b) => {
            sink.emit_scaled(a, g, 1.0);
            sink.emit_scaled(b, g, -1.0);
        }
        &Op::Mul(a, b) => {
            let (av, bv) = (&values[a.idx()], &values[b.idx()]);
            sink.emit_with(a, |out| {
                for ((o, &gv), &y) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(bv.as_slice())
                {
                    *o = gv * y;
                }
            });
            sink.emit_with(b, |out| {
                for ((o, &gv), &x) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(av.as_slice())
                {
                    *o = gv * x;
                }
            });
        }
        &Op::AddRow(a, row) => {
            sink.emit_scaled(a, g, 1.0);
            sink.emit_with(row, |out| col_sums_into(g, out));
        }
        &Op::TileRow(row) => sink.emit_with(row, |out| col_sums_into(g, out)),
        &Op::MulRow(a, row) => {
            let n = values[a.idx()].rows();
            let (av, rv) = (&values[a.idx()], &values[row.idx()]);
            sink.emit_with(a, |out| {
                out.as_mut_slice().copy_from_slice(g.as_slice());
                for r in 0..n {
                    for (d, &rvc) in out.row_mut(r).iter_mut().zip(rv.as_slice()) {
                        *d *= rvc;
                    }
                }
            });
            sink.emit_with(row, |out| {
                out.fill(0.0);
                let o = out.as_mut_slice();
                for r in 0..n {
                    for ((d, &gc), &ac) in o.iter_mut().zip(g.row(r)).zip(av.row(r)) {
                        *d += gc * ac;
                    }
                }
            });
        }
        &Op::MulCol(a, col) => {
            let n = values[a.idx()].rows();
            let (av, cv) = (&values[a.idx()], &values[col.idx()]);
            sink.emit_with(a, |out| {
                out.as_mut_slice().copy_from_slice(g.as_slice());
                for r in 0..n {
                    let s = cv.as_slice()[r];
                    for d in out.row_mut(r) {
                        *d *= s;
                    }
                }
            });
            sink.emit_with(col, |out| {
                for (r, o) in out.as_mut_slice().iter_mut().enumerate() {
                    *o = dot(g.row(r), av.row(r));
                }
            });
        }
        &Op::DivCol(a, col) => {
            let n = values[a.idx()].rows();
            let (av, cv) = (&values[a.idx()], &values[col.idx()]);
            sink.emit_with(a, |out| {
                out.as_mut_slice().copy_from_slice(g.as_slice());
                for r in 0..n {
                    let s = cv.as_slice()[r];
                    for d in out.row_mut(r) {
                        *d /= s;
                    }
                }
            });
            sink.emit_with(col, |out| {
                for (r, o) in out.as_mut_slice().iter_mut().enumerate() {
                    let s = cv.as_slice()[r];
                    *o = -dot(g.row(r), av.row(r)) / (s * s);
                }
            });
        }
        &Op::Scale(a, alpha) => sink.emit_scaled(a, g, alpha),
        &Op::AddScalar(a) => sink.emit_scaled(a, g, 1.0),
        &Op::Neg(a) => sink.emit_scaled(a, g, -1.0),
        &Op::MatMul(a, b) => {
            let (av, bv) = (&values[a.idx()], &values[b.idx()]);
            // Fused: both products land in one call so the packed kernels
            // share a single parallel region (debt 5a). Bitwise-equal to
            // `reference::matmul_tb` / `reference::matmul_ta`.
            sink.emit_pair_with(a, b, |da, db| g.matmul_grads_into(av, bv, da, db));
        }
        &Op::Relu(a) => {
            let yv = &values[i];
            sink.emit_with(a, |out| {
                out.as_mut_slice().copy_from_slice(g.as_slice());
                for (d, &y) in out.as_mut_slice().iter_mut().zip(yv.as_slice()) {
                    if y <= 0.0 {
                        *d = 0.0;
                    }
                }
            });
        }
        &Op::Sigmoid(a) => {
            let yv = &values[i];
            sink.emit_with(a, |out| {
                for ((o, &gv), &y) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(yv.as_slice())
                {
                    *o = gv * (y * (1.0 - y));
                }
            });
        }
        &Op::Tanh(a) => {
            let yv = &values[i];
            sink.emit_with(a, |out| {
                for ((o, &gv), &y) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(yv.as_slice())
                {
                    *o = gv * (1.0 - y * y);
                }
            });
        }
        &Op::Softplus(a) => {
            let xv = &values[a.idx()];
            sink.emit_with(a, |out| {
                for ((o, &gv), &x) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(xv.as_slice())
                {
                    *o = gv * stable_sigmoid(x);
                }
            });
        }
        &Op::Log(a) => {
            let xv = &values[a.idx()];
            sink.emit_with(a, |out| {
                for ((o, &gv), &x) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(xv.as_slice())
                {
                    *o = gv / x.max(LOG_EPS);
                }
            });
        }
        &Op::Square(a) => {
            let xv = &values[a.idx()];
            sink.emit_with(a, |out| {
                for ((o, &gv), &x) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(xv.as_slice())
                {
                    *o = gv * (2.0 * x);
                }
            });
        }
        &Op::SumAll(a) => {
            sink.emit_with(a, |out| out.fill(g.as_slice()[0]));
        }
        &Op::MeanAll(a) => {
            sink.emit_with(a, |out| {
                let (n, m) = out.shape();
                out.fill(g.as_slice()[0] / (n * m).max(1) as f32);
            });
        }
        &Op::SumRows(a) => {
            sink.emit_with(a, |out| {
                let n = out.rows();
                for r in 0..n {
                    let gv = g.as_slice()[r];
                    out.row_mut(r).iter_mut().for_each(|d| *d = gv);
                }
            });
        }
        Op::GatherRows(a, indices) => {
            sink.emit_with(*a, |out| {
                out.fill(0.0);
                for (r, &src) in indices.iter().enumerate() {
                    for (d, &x) in out.row_mut(src).iter_mut().zip(g.row(r)) {
                        *d += x;
                    }
                }
            });
        }
        &Op::RowwiseDot(a, b) => {
            let (av, bv) = (&values[a.idx()], &values[b.idx()]);
            sink.emit_with(a, |out| {
                let n = out.rows();
                for r in 0..n {
                    let gv = g.as_slice()[r];
                    for (o, &x) in out.row_mut(r).iter_mut().zip(bv.row(r)) {
                        *o = gv * x;
                    }
                }
            });
            sink.emit_with(b, |out| {
                let n = out.rows();
                for r in 0..n {
                    let gv = g.as_slice()[r];
                    for (o, &x) in out.row_mut(r).iter_mut().zip(av.row(r)) {
                        *o = gv * x;
                    }
                }
            });
        }
        &Op::CircCorr(a, b) => {
            // out[k] = sum_j a[j] * b[(j+k) mod d]
            // da[j]  = sum_k g[k] * b[(j+k) mod d]  = circcorr(g, b)[j]
            // db[m]  = sum_k g[k] * a[(m-k) mod d]  = circconv(g, a)[m]
            let (av, bv) = (&values[a.idx()], &values[b.idx()]);
            let d = av.cols();
            let mut win = sink.pool.tensor_raw(1, 2 * d.max(1) - 1);
            sink.emit_with(a, |out| {
                let n = out.rows();
                for r in 0..n {
                    fill_corr_window(bv.row(r), win.as_mut_slice());
                    circular_correlation_windowed(g.row(r), win.as_slice(), out.row_mut(r));
                }
            });
            sink.emit_with(b, |out| {
                let n = out.rows();
                for r in 0..n {
                    fill_conv_window(av.row(r), win.as_mut_slice());
                    circular_convolution_windowed(g.row(r), win.as_slice(), out.row_mut(r));
                }
            });
            sink.pool.give(win.into_vec());
        }
        &Op::PairwiseSqDist(a, b) => {
            // d[i,k] = |a_i - b_k|^2
            // da_i += sum_k g[i,k] * 2 (a_i - b_k)
            // db_k += sum_i g[i,k] * 2 (b_k - a_i)
            // The two accumulations are independent, so each runs its own
            // (i, k, c)-ascending loop — the per-entry sums visit terms in
            // the same order as a single fused loop would.
            let (av, bv) = (&values[a.idx()], &values[b.idx()]);
            let n = av.rows();
            let k = bv.rows();
            sink.emit_with(a, |out| {
                out.fill(0.0);
                for i_ in 0..n {
                    for k_ in 0..k {
                        let gv = 2.0 * g.get(i_, k_);
                        if gv == 0.0 {
                            continue;
                        }
                        let (arow, brow) = (av.row(i_), bv.row(k_));
                        for ((o, &x), &c) in out.row_mut(i_).iter_mut().zip(arow).zip(brow) {
                            *o += gv * (x - c);
                        }
                    }
                }
            });
            sink.emit_with(b, |out| {
                out.fill(0.0);
                for i_ in 0..n {
                    for k_ in 0..k {
                        let gv = 2.0 * g.get(i_, k_);
                        if gv == 0.0 {
                            continue;
                        }
                        let (arow, brow) = (av.row(i_), bv.row(k_));
                        for ((o, &x), &c) in out.row_mut(k_).iter_mut().zip(arow).zip(brow) {
                            *o -= gv * (x - c);
                        }
                    }
                }
            });
        }
        &Op::Recip1p(a) => {
            // y = 1/(1+x), dy/dx = -y^2
            let yv = &values[i];
            sink.emit_with(a, |out| {
                for ((o, &gv), &y) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(yv.as_slice())
                {
                    *o = gv * (-y * y);
                }
            });
        }
        &Op::ColSlice(a, j) => {
            sink.emit_with(a, |out| {
                out.fill(0.0);
                let (n, m) = out.shape();
                let o = out.as_mut_slice();
                for r in 0..n {
                    o[r * m + j] = g.as_slice()[r];
                }
            });
        }
        &Op::MulConst(a, c) => {
            let cv = &consts[c.idx()];
            sink.emit_with(a, |out| {
                for ((o, &gv), &cvx) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(cv.as_slice())
                {
                    *o = gv * cvx;
                }
            });
        }
        &Op::Mse(pred, target) => {
            let pv = &values[pred.idx()];
            let tv = &consts[target.idx()];
            let scale = 2.0 * g.as_slice()[0] / pv.len().max(1) as f32;
            sink.emit_with(pred, |out| {
                for ((o, &p), &t) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(pv.as_slice())
                    .zip(tv.as_slice())
                {
                    *o = (p - t) * scale;
                }
            });
        }
        Op::EdgeSoftmax {
            scores,
            segments,
            n_seg,
            slope,
            probs,
        } => {
            // Per head the segment-softmax Jacobian with `sdot` summed in
            // edge order, from the output gradient scaled by `1 / H`; for
            // H >= 2 a `+ 0.0` (so a `-0.0` comes out `+0.0`, as a sum of
            // per-head column gradients did); the LeakyReLU slope at the
            // recomputed score; then per operand a copy (`Own`) or a
            // scatter-add from zeros in edge order (`Gather`, and
            // `Broadcast`, whose one row collects every edge's gradient).
            let (m, h) = probs.shape();
            let inv = 1.0 / h as f32;
            let (p, gs) = (probs.as_slice(), g.as_slice());
            let mut sdot = sink.pool.take_zeroed(n_seg * h);
            for (e, &s) in segments.iter().enumerate() {
                let ge = gs[e] * inv;
                for j in 0..h {
                    sdot[s * h + j] += p[e * h + j] * ge;
                }
            }
            let mut gx = sink.pool.tensor_raw(m, h);
            let gxs = gx.as_mut_slice();
            scores.with_values(values, |ops| {
                fwd::for_each_score(ops, m, h, |e, j, x| {
                    let s = segments[e];
                    let mut d = p[e * h + j] * (gs[e] * inv - sdot[s * h + j]);
                    if h > 1 {
                        d += 0.0;
                    }
                    if x <= 0.0 {
                        d *= slope;
                    }
                    gxs[e * h + j] = d;
                })
            });
            for (v, r) in scores.iter() {
                match r {
                    EdgeRows::Own => sink.emit_scaled(v, &gx, 1.0),
                    _ => sink.emit_with(v, |out| {
                        out.fill(0.0);
                        for (e, ge) in gx.rows_iter().enumerate() {
                            for (d, &x) in out.row_mut(r.row(e)).iter_mut().zip(ge) {
                                *d += x;
                            }
                        }
                    }),
                }
            }
            sink.pool.give(sdot);
            sink.pool.give(gx.into_vec());
        }
        Op::EdgeAggregate { msgs, w, segments } => {
            // Edge `e` reads the output-gradient row `g[seg_e]`. Each
            // operand gets it scaled by `w_e`: written as is into an `Own`
            // row, as `mul_col`'s gradient; scatter-added from zeros in
            // edge order into a `Gather` or `Broadcast` row, as a gather's.
            // `dw_e` is its dot with the recomputed message.
            let wv = values[w.idx()].as_slice();
            for (v, r) in msgs.iter() {
                sink.emit_with(v, |out| {
                    if let EdgeRows::Own = r {
                        for (e, &s) in segments.iter().enumerate() {
                            for (d, &gv) in out.row_mut(e).iter_mut().zip(g.row(s)) {
                                *d = gv * wv[e];
                            }
                        }
                    } else {
                        out.fill(0.0);
                        for (e, &s) in segments.iter().enumerate() {
                            for (d, &gv) in out.row_mut(r.row(e)).iter_mut().zip(g.row(s)) {
                                *d += gv * wv[e];
                            }
                        }
                    }
                });
            }
            let mut msg = sink.pool.take_raw(g.cols());
            msgs.with_values(values, |ops| {
                sink.emit_with(*w, |out| {
                    fwd::edge_aggregate_dw(ops, g, segments, &mut msg, out.as_mut_slice())
                })
            });
            sink.pool.give(msg);
        }
        Op::StackRows(parts) => {
            let mut rest = g.as_slice();
            for &p in parts {
                let (head, tail) = rest.split_at(values[p].len());
                sink.emit_with(Var::from_index(p), |out| {
                    out.as_mut_slice().copy_from_slice(head)
                });
                rest = tail;
            }
        }
    }
}

/// Numerically stable logistic function.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_are_recorded() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_rows(&[&[1.0, 2.0]]));
        let b = g.input(Tensor::from_rows(&[&[3.0, 4.0]]));
        let c = g.add(a, b);
        assert_eq!(g.value(c).as_slice(), &[4.0, 6.0]);
        let d = g.mul(c, c);
        assert_eq!(g.value(d).as_slice(), &[16.0, 36.0]);
    }

    #[test]
    #[should_panic(expected = "malformed tape")]
    fn malformed_gradient_reports_op_id() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_rows(&[&[1.0, 2.0]]));
        let sq = g.square(a);
        let loss = g.sum_all(sq);
        g.backward(loss);
        // Corrupt the tape: swap in a gradient whose shape disagrees with
        // the node's forward value, then sweep again.
        *g.grad_mut(sq).unwrap() = Tensor::zeros(3, 3);
        g.backward(loss);
    }

    #[test]
    fn backward_through_add_mul() {
        // loss = sum((a + b) * a) ; dl/da = 2a + b, dl/db = a
        let mut g = Graph::new();
        let a = g.input(Tensor::from_rows(&[&[1.0, 2.0]]));
        let b = g.input(Tensor::from_rows(&[&[3.0, 5.0]]));
        let s = g.add(a, b);
        let p = g.mul(s, a);
        let loss = g.sum_all(p);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().as_slice(), &[5.0, 9.0]);
        assert_eq!(g.grad(b).unwrap().as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn backward_matmul_known_value() {
        // loss = sum(A B); dA = ones * B^T, dB = A^T * ones
        let mut g = Graph::new();
        let a = g.input(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.input(Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        g.backward(loss);
        // dA[i,p] = sum_j B[p,j] -> row sums of B
        assert_eq!(g.grad(a).unwrap().as_slice(), &[11.0, 15.0, 11.0, 15.0]);
        // dB[p,j] = sum_i A[i,p] -> col sums of A
        assert_eq!(g.grad(b).unwrap().as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn gather_rows_accumulates_duplicates() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]));
        let gth = g.gather_rows(a, vec![0, 0, 1]);
        let loss = g.sum_all(gth);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().as_slice(), &[2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn mse_matches_manual() {
        let mut g = Graph::new();
        let p = g.input(Tensor::col_vec(vec![1.0, 3.0]));
        let t = Tensor::col_vec(vec![0.0, 1.0]);
        let loss = g.mse(p, &t);
        assert!((g.value(loss).as_slice()[0] - 2.5).abs() < 1e-6);
        g.backward(loss);
        // d = 2 (p - t) / n = [1.0, 2.0]
        assert_eq!(g.grad(p).unwrap().as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn circ_corr_forward_and_gradients_match_one_dot_per_output() {
        use crate::tensor::tests::{conv_windowed_ref, corr_windowed_ref, kernel_rows};
        for d in [8, 16, 32, 33, 100] {
            // Random rows only: the specials would make the loss NaN.
            let rows: Vec<Vec<f32>> = kernel_rows(d, 7 * d as u64).into_iter().take(3).collect();
            let stack = |rot: usize| {
                let data = (0..rows.len())
                    .flat_map(|r| rows[(r + rot) % rows.len()].clone())
                    .collect();
                Tensor::from_vec(rows.len(), d, data)
            };
            let (at, bt, up) = (stack(0), stack(1), stack(2));
            let mut g = Graph::new();
            let a = g.input(at.clone());
            let b = g.input(bt.clone());
            let c = g.circ_corr(a, b);
            // d loss / d c = `up` exactly: sum_all seeds ones, mul_const
            // scales them by `up`.
            let weighted = g.mul_const(c, &up);
            let loss = g.sum_all(weighted);
            g.backward(loss);
            let mut win = vec![0.0; 2 * d - 1];
            let (mut fwd, mut da, mut db) = (vec![0.0; d], vec![0.0; d], vec![0.0; d]);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for r in 0..rows.len() {
                fill_corr_window(bt.row(r), &mut win);
                corr_windowed_ref(at.row(r), &win, &mut fwd);
                corr_windowed_ref(up.row(r), &win, &mut da);
                fill_conv_window(at.row(r), &mut win);
                conv_windowed_ref(up.row(r), &win, &mut db);
                assert_eq!(bits(g.value(c).row(r)), bits(&fwd), "forward d={d}");
                assert_eq!(bits(g.grad(a).unwrap().row(r)), bits(&da), "da d={d}");
                assert_eq!(bits(g.grad(b).unwrap().row(r)), bits(&db), "db d={d}");
            }
        }
    }

    #[test]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let a = g.input(Tensor::zeros(2, 2));
        let b = g.relu(a);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            g.backward(b);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn pairwise_sq_dist_gradients() {
        let mut g = Graph::new();
        let h = g.input(Tensor::from_rows(&[&[1.0, 0.0]]));
        let c = g.input(Tensor::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]));
        let d = g.pairwise_sq_dist(h, c);
        assert_eq!(g.value(d).as_slice(), &[1.0, 1.0]);
        let loss = g.sum_all(d);
        g.backward(loss);
        // dh = 2(h-c0) + 2(h-c1) = (2,0) + (0,-2)
        assert_eq!(g.grad(h).unwrap().as_slice(), &[2.0, -2.0]);
        assert_eq!(g.grad(c).unwrap().as_slice(), &[-2.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn constants_are_interned_not_cloned_per_op() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_rows(&[&[1.0, 2.0]]));
        let cid = g.constant(Tensor::from_rows(&[&[3.0, 4.0]]));
        let m1 = g.mul_const_id(a, cid);
        let m2 = g.mul_const_id(a, cid);
        assert_eq!(g.value(m1).as_slice(), &[3.0, 8.0]);
        assert_eq!(g.value(m1), g.value(m2));
        assert_eq!(g.constant_value(cid).as_slice(), &[3.0, 4.0]);
    }

    /// The reset contract: a reused graph replays the same program with
    /// bitwise-identical values and gradients, and the pool actually serves
    /// the second run's checkouts.
    #[test]
    fn reset_replay_is_bitwise_identical_and_pooled() {
        let run = |g: &mut Graph| -> (Vec<u32>, Vec<u32>) {
            let x = g.input(Tensor::from_rows(&[&[0.5, -1.5], &[2.0, 0.25]]));
            let w = g.input(Tensor::from_rows(&[&[1.0, -0.5], &[0.75, 2.0]]));
            let xw = g.matmul(x, w);
            let h = g.sigmoid(xw);
            let t = Tensor::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
            let loss = g.mse(h, &t);
            g.backward(loss);
            let vbits = g
                .value(loss)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let gbits = g
                .grad(w)
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (vbits, gbits)
        };
        let mut fresh = Graph::new();
        let expected = run(&mut fresh);
        let mut reused = Graph::new();
        let first = run(&mut reused);
        assert_eq!(first, expected);
        reused.reset();
        let before = reused.pool_stats();
        let second = run(&mut reused);
        assert_eq!(second, expected, "pooled replay must be bitwise identical");
        let after = reused.pool_stats();
        assert!(after.hits > before.hits, "replay must reuse pooled buffers");
        assert_eq!(
            after.misses, before.misses,
            "warm replay should not hit the heap"
        );
    }

    #[test]
    fn reset_invalidates_tape_but_keeps_working() {
        let mut g = Graph::new();
        let a = g.input(Tensor::full(2, 2, 1.0));
        let s = g.sum_all(a);
        assert_eq!(g.value(s).as_slice(), &[4.0]);
        assert_eq!(g.len(), 2);
        g.reset();
        assert!(g.is_empty());
        assert!(g.bindings().is_empty());
        let b = g.input(Tensor::full(1, 3, 2.0));
        let s = g.sum_all(b);
        assert_eq!(g.value(s).as_slice(), &[6.0]);
    }

    #[test]
    fn input_rows_matches_gather() {
        let src = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut g = Graph::new();
        let v = g.input_rows(&src, &[2, 0, 2]);
        assert_eq!(g.value(v).as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        assert_eq!(g.shape(v), (3, 2));
    }
}
