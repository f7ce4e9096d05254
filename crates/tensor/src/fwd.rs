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
use crate::tensor::{circular_correlation_windowed, fill_corr_window, softmax_in_place, Tensor};

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

pub(crate) fn leaky_relu(pool: &mut BufferPool, a: &Tensor, slope: f32) -> Tensor {
    pooled_map(pool, a, |x| if x > 0.0 { x } else { slope * x })
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

pub(crate) fn softmax_rows(pool: &mut BufferPool, a: &Tensor) -> Tensor {
    let m = a.cols();
    let mut out = pool.tensor_copy(a);
    for r in out.as_mut_slice().chunks_exact_mut(m.max(1)) {
        softmax_in_place(r);
    }
    out
}

/// `[a | b]` horizontal concatenation.
pub(crate) fn concat_cols(pool: &mut BufferPool, a: &Tensor, b: &Tensor) -> Tensor {
    let (n, ma) = a.shape();
    let (nb, mb) = b.shape();
    assert_eq!(n, nb, "concat_cols row mismatch");
    let mut out = pool.tensor_raw(n, ma + mb);
    for r in 0..n {
        let (left, right) = out.row_mut(r).split_at_mut(ma);
        left.copy_from_slice(a.row(r));
        right.copy_from_slice(b.row(r));
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

/// Scatter-sums the rows of `a` into `n_segments` buckets.
pub(crate) fn segment_sum(
    pool: &mut BufferPool,
    a: &Tensor,
    segments: &[usize],
    n_segments: usize,
) -> Tensor {
    let (n, _m) = a.shape();
    assert_eq!(segments.len(), n, "segment_sum: one segment id per row");
    let mut out = pool.tensor_zeroed(n_segments, a.cols());
    for (i, &s) in segments.iter().enumerate() {
        assert!(s < n_segments, "segment id {s} out of range");
        for (o, &x) in out.row_mut(s).iter_mut().zip(a.row(i)) {
            *o += x;
        }
    }
    out
}

/// Softmax over the entries of an `n x 1` score column, normalised
/// independently within each segment-id group.
pub(crate) fn segment_softmax(
    pool: &mut BufferPool,
    scores: &Tensor,
    segments: &[usize],
) -> Tensor {
    let (n, c) = scores.shape();
    assert_eq!(c, 1, "segment_softmax expects an n x 1 column");
    assert_eq!(segments.len(), n);
    let n_seg = segments.iter().copied().max().map_or(0, |s| s + 1);
    let mut out = pool.tensor_raw(n, 1);
    let mut seg_max = pool.take_raw(n_seg);
    let mut seg_sum = pool.take_zeroed(n_seg);
    seg_max.fill(f32::NEG_INFINITY);
    {
        // Same arithmetic as a per-group `softmax_in_place`: per-group
        // max, exp(x - max) accumulated in index order, then normalise.
        let sv = scores.as_slice();
        let o = out.as_mut_slice();
        for (j, &s) in segments.iter().enumerate() {
            seg_max[s] = seg_max[s].max(sv[j]);
        }
        for (j, &s) in segments.iter().enumerate() {
            let e = (sv[j] - seg_max[s]).exp();
            o[j] = e;
            seg_sum[s] += e;
        }
        for (j, &s) in segments.iter().enumerate() {
            if seg_sum[s] > 0.0 {
                o[j] /= seg_sum[s];
            }
        }
    }
    pool.give(seg_max);
    pool.give(seg_sum);
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

/// Which row of an [`edge_softmax`](crate::Graph::edge_softmax) score
/// operand feeds each edge.
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

    /// Panics unless every edge's row exists in an `n_rows`-row operand.
    fn check(&self, n_rows: usize, m: usize, what: &str) {
        let ok = match self {
            EdgeRows::Own => n_rows == m,
            EdgeRows::Gather(idx) => idx.len() == m && idx.iter().all(|&i| i < n_rows),
            EdgeRows::Broadcast => n_rows == 1,
        };
        assert!(
            ok,
            "edge_softmax: operand {what} ({n_rows} rows) does not cover {m} edges"
        );
    }
}

/// The fused attention of one edge set: per edge `e` and head `h`,
/// `s = leaky_relu((a[ia_e] + b[ib_e]) + c[ic_e])`, a per-head softmax of
/// `s` within each of the `n_seg` segments, and the heads' mean (summed in
/// head order, then scaled by `1 / H`). Returns the `m x 1` mean and the
/// `m x H` per-head weights that backward reads.
///
/// Per (segment, head) every max, exponential sum and division runs in
/// edge order, so each value is bitwise equal to the chain `gather_rows`,
/// `add`, `add_row`, `leaky_relu`, `col_slice`, `segment_softmax`, `add`,
/// `scale` that it replaces.
pub(crate) fn edge_softmax(
    pool: &mut BufferPool,
    [a, b, c]: [&Tensor; 3],
    [ia, ib, ic]: [&EdgeRows; 3],
    segments: &[usize],
    n_seg: usize,
    slope: f32,
) -> (Tensor, Tensor) {
    let m = segments.len();
    let h = a.cols();
    assert!(h >= 1, "edge_softmax: needs at least one head");
    assert!(
        b.cols() == h && c.cols() == h,
        "edge_softmax: head counts differ ({h}, {}, {})",
        b.cols(),
        c.cols()
    );
    ia.check(a.rows(), m, "a");
    ib.check(b.rows(), m, "b");
    ic.check(c.rows(), m, "c");
    assert!(
        segments.iter().all(|&s| s < n_seg),
        "edge_softmax: segment id out of range ({n_seg} segments)"
    );
    let (av, bv, cv) = (a.as_slice(), b.as_slice(), c.as_slice());
    let mut probs = pool.tensor_raw(m, h);
    let mut seg_max = pool.take_raw(n_seg * h);
    let mut seg_sum = pool.take_zeroed(n_seg * h);
    seg_max.fill(f32::NEG_INFINITY);
    {
        let p = probs.as_mut_slice();
        for (e, &s) in segments.iter().enumerate() {
            let (ra, rb, rc) = (ia.row(e) * h, ib.row(e) * h, ic.row(e) * h);
            for j in 0..h {
                let x = (av[ra + j] + bv[rb + j]) + cv[rc + j];
                let y = if x > 0.0 { x } else { slope * x };
                p[e * h + j] = y;
                seg_max[s * h + j] = seg_max[s * h + j].max(y);
            }
        }
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
        // Head 0 starts the sum, as the chain's first head did.
        let sum = row.iter().copied().reduce(|acc, y| acc + y).unwrap_or(0.0);
        *o = sum * inv;
    }
    (out, probs)
}

/// The fused weighted aggregation of one edge set:
/// `out[seg_e] += (x[xi_e] + y[yi_e]) * w_e` over the edges in order, into
/// `n_seg x d` zeros. Bitwise equal to the chain `gather_rows` (twice),
/// `add`, `mul_col`, `segment_sum` it replaces, without its `m x d`
/// intermediates.
#[allow(clippy::too_many_arguments)]
pub(crate) fn edge_aggregate(
    pool: &mut BufferPool,
    x: &Tensor,
    xi: &[usize],
    y: &Tensor,
    yi: &[usize],
    w: &Tensor,
    segments: &[usize],
    n_seg: usize,
) -> Tensor {
    let m = segments.len();
    let d = x.cols();
    assert_eq!(y.cols(), d, "edge_aggregate: x and y widths differ");
    assert_eq!(w.shape(), (m, 1), "edge_aggregate: w must be {m} x 1");
    assert!(
        xi.len() == m && yi.len() == m,
        "edge_aggregate: one x and one y row per edge"
    );
    assert!(
        xi.iter().all(|&i| i < x.rows()) && yi.iter().all(|&i| i < y.rows()),
        "edge_aggregate: row index out of bounds"
    );
    assert!(
        segments.iter().all(|&s| s < n_seg),
        "edge_aggregate: segment id out of range ({n_seg} segments)"
    );
    let mut out = pool.tensor_zeroed(n_seg, d);
    for (e, &s) in segments.iter().enumerate() {
        let wv = w.as_slice()[e];
        let (xr, yr) = (x.row(xi[e]), y.row(yi[e]));
        for ((o, &xv), &yv) in out.row_mut(s).iter_mut().zip(xr).zip(yr) {
            *o += (xv + yv) * wv;
        }
    }
    out
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
