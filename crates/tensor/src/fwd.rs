//! Shared forward kernels over pooled buffers.
//!
//! Every op that both execution contexts can run — the recording tape
//! ([`crate::graph::Graph`]) and the tape-free inference context
//! ([`crate::infer::InferCtx`]) — computes its forward value through exactly
//! one function in this module. That single-source-of-truth layout is what
//! makes the no-tape path bitwise-identical to the tape by construction
//! for every op.
//!
//! All kernels take their output storage from a [`BufferPool`] and fully
//! overwrite (or zero-fill) it before use, so pooled execution matches
//! fresh allocation bit for bit.

use crate::graph::Var;
use crate::pool::BufferPool;
use crate::tensor::{circular_correlation_windowed, dot, fill_corr_window, Tensor};

/// Pooled element-wise map (`out[i] = f(src[i])`), same shape as `src`.
pub(crate) fn pooled_map(pool: &mut BufferPool, src: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut buf = pool.take_raw(src.len());
    for (o, &x) in buf.iter_mut().zip(src.as_slice()) {
        *o = f(x);
    }
    Tensor::from_vec(src.rows(), src.cols(), buf)
}

/// Pooled element-wise zip (`out[i] = f(a[i], b[i])`); shapes must match.
pub(crate) fn pooled_zip(
    pool: &mut BufferPool,
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Tensor {
    debug_assert_eq!(a.shape(), b.shape(), "shape mismatch");
    if a.len() != b.len() {
        panic!(
            "element-wise op on mismatched shapes: {:?} vs {:?}",
            a.shape(),
            b.shape()
        );
    }
    let mut buf = pool.take_raw(a.len());
    for ((o, &x), &y) in buf.iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
        *o = f(x, y);
    }
    Tensor::from_vec(a.rows(), a.cols(), buf)
}

pub(crate) fn add(pool: &mut BufferPool, a: &Tensor, b: &Tensor) -> Tensor {
    pooled_zip(pool, a, b, |x, y| x + y)
}

pub(crate) fn sub(pool: &mut BufferPool, a: &Tensor, b: &Tensor) -> Tensor {
    pooled_zip(pool, a, b, |x, y| x - y)
}

pub(crate) fn mul(pool: &mut BufferPool, a: &Tensor, b: &Tensor) -> Tensor {
    pooled_zip(pool, a, b, |x, y| x * y)
}

pub(crate) fn scale(pool: &mut BufferPool, a: &Tensor, alpha: f32) -> Tensor {
    pooled_map(pool, a, |x| x * alpha)
}

pub(crate) fn relu(pool: &mut BufferPool, a: &Tensor) -> Tensor {
    pooled_map(pool, a, |x| x.max(0.0))
}

pub(crate) fn sigmoid(pool: &mut BufferPool, a: &Tensor) -> Tensor {
    pooled_map(pool, a, crate::graph::stable_sigmoid)
}

/// `softplus(x) = ln(1 + e^x)`, computed stably.
pub(crate) fn softplus(pool: &mut BufferPool, a: &Tensor) -> Tensor {
    pooled_map(pool, a, |x| {
        if x > 20.0 {
            x
        } else if x < -20.0 {
            x.exp()
        } else {
            (1.0 + x.exp()).ln()
        }
    })
}

/// `y = 1 / (1 + x)` element-wise (Student-t kernel numerator).
pub(crate) fn recip1p(pool: &mut BufferPool, a: &Tensor) -> Tensor {
    pooled_map(pool, a, |x| 1.0 / (1.0 + x))
}

/// Adds a `1 x m` row vector to every row of an `n x m` tensor.
pub(crate) fn add_row(pool: &mut BufferPool, a: &Tensor, row: &Tensor) -> Tensor {
    let (n, m) = a.shape();
    let (rr, rm) = row.shape();
    assert_eq!(
        (rr, rm),
        (1, m),
        "add_row: expected 1x{m} row, got {rr}x{rm}"
    );
    let mut out = pool.tensor_copy(a);
    for i in 0..n {
        for (o, &x) in out.row_mut(i).iter_mut().zip(row.as_slice()) {
            *o += x;
        }
    }
    out
}

/// Multiplies every row of an `n x m` tensor by a `1 x m` row vector.
pub(crate) fn mul_row(pool: &mut BufferPool, a: &Tensor, row: &Tensor) -> Tensor {
    let (n, m) = a.shape();
    assert_eq!(row.shape(), (1, m), "mul_row shape mismatch");
    let mut out = pool.tensor_copy(a);
    for i in 0..n {
        for (o, &x) in out.row_mut(i).iter_mut().zip(row.as_slice()) {
            *o *= x;
        }
    }
    out
}

/// Broadcasts a `1 x m` row vector to `n` rows: `out[r, c] = +0.0 + v[c]`.
/// The `+0.0` start keeps it bitwise equal to `ones(n, 1) · v`, which
/// turns a `-0.0` entry into `+0.0`.
pub(crate) fn tile_row(pool: &mut BufferPool, v: &Tensor, n: usize) -> Tensor {
    let (vr, m) = v.shape();
    assert_eq!(vr, 1, "tile_row: expected a 1x{m} row, got {vr}x{m}");
    let mut out = pool.tensor_raw(n, m);
    for row in out.as_mut_slice().chunks_exact_mut(m.max(1)) {
        for (o, &x) in row.iter_mut().zip(v.as_slice()) {
            *o = 0.0 + x;
        }
    }
    out
}

/// Scales row `i` of an `n x m` tensor by `col[i]` (`col` is `n x 1`).
pub(crate) fn mul_col(pool: &mut BufferPool, a: &Tensor, col: &Tensor) -> Tensor {
    let (n, _m) = a.shape();
    assert_eq!(col.shape(), (n, 1), "mul_col shape mismatch");
    let mut out = pool.tensor_copy(a);
    for i in 0..n {
        let s = col.as_slice()[i];
        for o in out.row_mut(i) {
            *o *= s;
        }
    }
    out
}

/// Divides row `i` of an `n x m` tensor by `col[i]` (`col` is `n x 1`).
pub(crate) fn div_col(pool: &mut BufferPool, a: &Tensor, col: &Tensor) -> Tensor {
    let (n, _m) = a.shape();
    assert_eq!(col.shape(), (n, 1), "div_col shape mismatch");
    let mut out = pool.tensor_copy(a);
    for i in 0..n {
        let s = col.as_slice()[i];
        for o in out.row_mut(i) {
            *o /= s;
        }
    }
    out
}

pub(crate) fn matmul(pool: &mut BufferPool, a: &Tensor, b: &Tensor) -> Tensor {
    let (n, _) = a.shape();
    let (_, m) = b.shape();
    let mut out = pool.tensor_raw(n, m);
    a.matmul_into(b, &mut out);
    out
}

/// Per-row sums, `n x m -> n x 1`.
pub(crate) fn sum_rows(pool: &mut BufferPool, a: &Tensor) -> Tensor {
    let n = a.rows();
    let mut out = pool.tensor_raw(n, 1);
    for (o, r) in out.as_mut_slice().iter_mut().zip(a.rows_iter()) {
        *o = r.iter().sum();
    }
    out
}

/// Gathers rows of `a` by `indices` (duplicates allowed).
pub(crate) fn gather_rows(pool: &mut BufferPool, a: &Tensor, indices: &[usize]) -> Tensor {
    let (n, m) = a.shape();
    let mut out = pool.tensor_raw(indices.len(), m);
    for (r, &i) in indices.iter().enumerate() {
        assert!(i < n, "gather index {i} out of bounds ({n} rows)");
        out.row_mut(r).copy_from_slice(a.row(i));
    }
    out
}

/// Row-wise circular correlation (HolE composition), `n x d` each.
pub(crate) fn circ_corr(pool: &mut BufferPool, a: &Tensor, b: &Tensor) -> Tensor {
    let (n, d) = a.shape();
    assert_eq!(a.shape(), b.shape(), "circ_corr shape mismatch");
    let mut out = pool.tensor_raw(n, d);
    let mut win = pool.tensor_raw(1, 2 * d.max(1) - 1);
    for i in 0..n {
        fill_corr_window(b.row(i), win.as_mut_slice());
        circular_correlation_windowed(a.row(i), win.as_slice(), out.row_mut(i));
    }
    pool.give(win.into_vec());
    out
}

/// Pairwise squared distances between rows of `a` (`n x d`) and rows of
/// `b` (`k x d`).
pub(crate) fn pairwise_sq_dist(pool: &mut BufferPool, a: &Tensor, b: &Tensor) -> Tensor {
    let (n, d) = a.shape();
    let (k, d2) = b.shape();
    assert_eq!(d, d2, "dimension mismatch");
    // |x - c|^2 = |x|^2 - 2 x.c + |c|^2, exactly as
    // `Tensor::pairwise_sq_dists` but through pooled storage.
    let mut out = pool.tensor_raw(n, k);
    a.matmul_tb_into(b, &mut out);
    let mut xn = pool.take_raw(n);
    let mut cn = pool.take_raw(k);
    {
        for (o, r) in xn.iter_mut().zip(a.rows_iter()) {
            *o = r.iter().map(|&x| x * x).sum();
        }
        for (o, r) in cn.iter_mut().zip(b.rows_iter()) {
            *o = r.iter().map(|&x| x * x).sum();
        }
        for (row, &xni) in out.as_mut_slice().chunks_exact_mut(k).zip(&xn) {
            for (v, &cnj) in row.iter_mut().zip(&cn) {
                *v = (xni - 2.0 * *v + cnj).max(0.0);
            }
        }
    }
    pool.give(xn);
    pool.give(cn);
    out
}

/// Extracts column `j` as an `n x 1` tensor.
pub(crate) fn col_slice(pool: &mut BufferPool, a: &Tensor, j: usize) -> Tensor {
    let (n, m) = a.shape();
    assert!(j < m, "col_slice index out of bounds");
    let mut out = pool.tensor_raw(n, 1);
    for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
        *o = a.get(i, j);
    }
    out
}

/// Pooled gather of `src` rows into a fresh leaf tensor (batch assembly).
pub(crate) fn input_rows(pool: &mut BufferPool, src: &Tensor, rows: &[usize]) -> Tensor {
    let m = src.cols();
    let mut out = pool.tensor_raw(rows.len(), m);
    for (r, &i) in rows.iter().enumerate() {
        out.row_mut(r).copy_from_slice(src.row(i));
    }
    out
}

/// Which row of an operand of [`edge_softmax`](crate::Graph::edge_softmax)
/// or [`edge_aggregate`](crate::Graph::edge_aggregate) feeds each edge.
#[derive(Clone, Debug)]
pub enum EdgeRows {
    /// Row `e` feeds edge `e`: the operand holds one row per edge.
    Own,
    /// Row `idx[e]` feeds edge `e`, as `gather_rows` would pick it. The
    /// list is pooled like every other index list an op takes.
    Gather(Vec<usize>),
    /// Row 0 feeds every edge: a `1 x H` row broadcast like `add_row`.
    Broadcast,
}

impl EdgeRows {
    /// The operand row edge `e` reads.
    #[inline]
    pub(crate) fn row(&self, e: usize) -> usize {
        match self {
            EdgeRows::Own => e,
            EdgeRows::Gather(idx) => idx[e],
            EdgeRows::Broadcast => 0,
        }
    }

    /// Returns a `Gather` list to `pool`.
    pub(crate) fn recycle(self, pool: &mut BufferPool) {
        if let EdgeRows::Gather(idx) = self {
            pool.give_idx(idx);
        }
    }

    /// Panics unless every edge's row exists in an `n_rows`-row operand.
    fn check(&self, n_rows: usize, m: usize, op: &str) {
        let ok = match self {
            EdgeRows::Own => n_rows == m,
            EdgeRows::Gather(idx) => idx.len() == m && idx.iter().all(|&i| i < n_rows),
            EdgeRows::Broadcast => n_rows == 1,
        };
        assert!(
            ok,
            "{op}: an operand ({n_rows} rows) does not cover {m} edges"
        );
    }
}

/// One operand of a fused edge kernel: its value and how its rows meet
/// the edges.
pub(crate) type Operand<'a> = (&'a Tensor, &'a EdgeRows);

/// Calls `f(e, j, x)` for each edge `e` and head `j`, in that order, with
/// the edge's score `x`: the operands' rows summed in list order, so three
/// operands give `(a + b) + c`. Dispatching on the operand count keeps the
/// inner loop free of a loop over operands.
pub(crate) fn for_each_score(
    ops: &[Operand],
    m: usize,
    h: usize,
    f: impl FnMut(usize, usize, f32),
) {
    match *ops {
        [a] => scores_of([a], m, h, f),
        [a, b] => scores_of([a, b], m, h, f),
        [a, b, c] => scores_of([a, b, c], m, h, f),
        // `edge_softmax` admits no other operand count.
        _ => {}
    }
}

#[inline(always)]
fn scores_of<const N: usize>(
    ops: [Operand; N],
    m: usize,
    h: usize,
    mut f: impl FnMut(usize, usize, f32),
) {
    let vals = ops.map(|(t, _)| t.as_slice());
    for e in 0..m {
        let at = ops.map(|(_, r)| r.row(e) * h);
        for j in 0..h {
            let mut x = vals[0][at[0] + j];
            for k in 1..N {
                x += vals[k][at[k] + j];
            }
            f(e, j, x);
        }
    }
}

/// The fused attention of one edge set: per edge `e` and head `h`,
/// `s = LeakyReLU(a[ia_e] + ...)` over the 1 to 3 score operands, a
/// per-head softmax of `s` within each of the `n_seg` segments, and the
/// heads' mean (summed in head order, then scaled by `1 / H`). Returns the
/// `m x 1` mean and the `m x H` per-head weights that backward reads.
///
/// Per (segment, head) every max, exponential sum and division runs in
/// edge order, as a segment softmax of the score column does. A slope of 1
/// makes the LeakyReLU the identity, bit for bit.
pub(crate) fn edge_softmax(
    pool: &mut BufferPool,
    ops: &[Operand],
    segments: &[usize],
    n_seg: usize,
    slope: f32,
) -> (Tensor, Tensor) {
    assert!(
        (1..=3).contains(&ops.len()),
        "edge_softmax: takes 1 to 3 score operands, got {}",
        ops.len()
    );
    let m = segments.len();
    let h = ops[0].0.cols();
    assert!(h >= 1, "edge_softmax: needs at least one head");
    assert!(
        ops.iter().all(|(t, _)| t.cols() == h),
        "edge_softmax: operand head counts differ"
    );
    for (t, rows) in ops {
        rows.check(t.rows(), m, "edge_softmax");
    }
    assert!(
        segments.iter().all(|&s| s < n_seg),
        "edge_softmax: segment id out of range ({n_seg} segments)"
    );
    let mut probs = pool.tensor_raw(m, h);
    let mut seg_max = pool.take_raw(n_seg * h);
    let mut seg_sum = pool.take_zeroed(n_seg * h);
    seg_max.fill(f32::NEG_INFINITY);
    {
        let p = probs.as_mut_slice();
        for_each_score(ops, m, h, |e, j, x| {
            let s = segments[e];
            let y = if x > 0.0 { x } else { slope * x };
            p[e * h + j] = y;
            seg_max[s * h + j] = seg_max[s * h + j].max(y);
        });
        for (e, &s) in segments.iter().enumerate() {
            for j in 0..h {
                let ex = (p[e * h + j] - seg_max[s * h + j]).exp();
                p[e * h + j] = ex;
                seg_sum[s * h + j] += ex;
            }
        }
        for (e, &s) in segments.iter().enumerate() {
            for j in 0..h {
                if seg_sum[s * h + j] > 0.0 {
                    p[e * h + j] /= seg_sum[s * h + j];
                }
            }
        }
    }
    pool.give(seg_max);
    pool.give(seg_sum);
    let inv = 1.0 / h as f32;
    let mut out = pool.tensor_raw(m, 1);
    for (o, row) in out
        .as_mut_slice()
        .iter_mut()
        .zip(probs.as_slice().chunks_exact(h))
    {
        // Head 0 starts the sum; no `+0.0` start.
        let sum = row.iter().copied().reduce(|acc, y| acc + y).unwrap_or(0.0);
        *o = sum * inv;
    }
    (out, probs)
}

/// The fused weighted aggregation of one edge set:
/// `out[seg_e] += msg_e * w_e` over the edges in order, into `n_seg x d`
/// zeros, where `msg_e` is one operand's row or the sum of two operands'
/// rows. No per-edge `m x d` tensor is built.
pub(crate) fn edge_aggregate(
    pool: &mut BufferPool,
    msgs: &[Operand],
    w: &Tensor,
    segments: &[usize],
    n_seg: usize,
) -> Tensor {
    assert!(
        (1..=2).contains(&msgs.len()),
        "edge_aggregate: takes 1 or 2 message operands, got {}",
        msgs.len()
    );
    let m = segments.len();
    let d = msgs[0].0.cols();
    assert!(
        msgs.iter().all(|(t, _)| t.cols() == d),
        "edge_aggregate: message widths differ"
    );
    assert_eq!(w.shape(), (m, 1), "edge_aggregate: w must be {m} x 1");
    for (t, rows) in msgs {
        rows.check(t.rows(), m, "edge_aggregate");
    }
    assert!(
        segments.iter().all(|&s| s < n_seg),
        "edge_aggregate: segment id out of range ({n_seg} segments)"
    );
    let wv = w.as_slice();
    let mut out = pool.tensor_zeroed(n_seg, d);
    match *msgs {
        [(x, xr)] => {
            for (e, &s) in segments.iter().enumerate() {
                for (o, &xv) in out.row_mut(s).iter_mut().zip(x.row(xr.row(e))) {
                    *o += xv * wv[e];
                }
            }
        }
        [(x, xr), (y, yr)] => {
            for (e, &s) in segments.iter().enumerate() {
                let (xs, ys) = (x.row(xr.row(e)), y.row(yr.row(e)));
                for ((o, &xv), &yv) in out.row_mut(s).iter_mut().zip(xs).zip(ys) {
                    *o += (xv + yv) * wv[e];
                }
            }
        }
        // Checked above.
        _ => {}
    }
    out
}

/// `dw` of [`edge_aggregate`]: per edge, the dot of the output-gradient row
/// of its segment with its recomputed message row, as `mul_col`'s column
/// gradient. `msg` is scratch of the message width.
pub(crate) fn edge_aggregate_dw(
    msgs: &[Operand],
    g: &Tensor,
    segments: &[usize],
    msg: &mut [f32],
    out: &mut [f32],
) {
    match *msgs {
        [(x, xr)] => {
            for (e, (o, &s)) in out.iter_mut().zip(segments).enumerate() {
                *o = dot(g.row(s), x.row(xr.row(e)));
            }
        }
        [(x, xr), (y, yr)] => {
            for (e, (o, &s)) in out.iter_mut().zip(segments).enumerate() {
                let (xs, ys) = (x.row(xr.row(e)), y.row(yr.row(e)));
                for ((m, &a), &b) in msg.iter_mut().zip(xs).zip(ys) {
                    *m = a + b;
                }
                *o = dot(g.row(s), msg);
            }
        }
        // `edge_aggregate` admits no other operand count.
        _ => {}
    }
}

/// The `values` of `parts` stacked vertically in order: one copy per part.
pub(crate) fn stack_rows(pool: &mut BufferPool, values: &[Tensor], parts: &[Var]) -> Tensor {
    let part = |p: &Var| &values[p.idx()];
    let m = parts.first().map_or(0, |p| part(p).cols());
    assert!(
        parts.iter().all(|p| part(p).cols() == m),
        "stack_rows: column counts differ"
    );
    let n = parts.iter().map(|p| part(p).rows()).sum();
    let mut out = pool.tensor_raw(n, m);
    let mut rest = out.as_mut_slice();
    for t in parts.iter().map(part) {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(t.len());
        head.copy_from_slice(t.as_slice());
        rest = tail;
    }
    out
}
