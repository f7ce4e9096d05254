//! Dense row-major 2-D tensor storage and element-wise / linear-algebra
//! kernels that do not participate in automatic differentiation.
//!
//! [`Tensor`] is deliberately minimal: a shape `(rows, cols)` and a flat
//! `Vec<f32>` under a content stamp. Vectors are represented as `n x 1`
//! (column) or `1 x n` (row) tensors. All differentiable computation lives
//! in [`crate::graph`], which stores its node values as `Tensor`s and
//! calls back into these kernels.

use std::fmt;

use crate::par;
use crate::stamped::Stamped;

/// A dense, row-major, 2-dimensional `f32` tensor.
///
/// Every tensor carries a [content stamp](Tensor::content_stamp): equal
/// stamps imply equal content, so a consumer can revalidate a cached
/// result without reading the data.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Stamped,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.as_slice())?;
        }
        Ok(())
    }
}

impl Tensor {
    /// A `rows x cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: Stamped::new(vec![0.0; rows * cols]),
        }
    }

    /// A `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: Stamped::new(vec![value; rows * cols]),
        }
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} != {rows}x{cols}",
            data.len()
        );
        Tensor {
            rows,
            cols,
            data: Stamped::new(data),
        }
    }

    /// Builds a column vector (`n x 1`).
    pub fn col_vec(data: Vec<f32>) -> Self {
        let n = data.len();
        Tensor {
            rows: n,
            cols: 1,
            data: Stamped::new(data),
        }
    }

    /// Builds a tensor from nested slices (handy in tests).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Tensor {
            rows: r,
            cols: c,
            data: Stamped::new(data),
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Identifies this tensor's content state, as
    /// `HetGraph::sampling_stamp` does for a graph: two tensors report
    /// the same stamp only if one is a clone of the other and neither
    /// has been borrowed mutably since, so equal stamps imply equal
    /// content. Every construction and every mutable borrow of the data
    /// (including ones that write the same bits back) draws a fresh
    /// stamp. Equality and serde ignore it.
    #[inline]
    pub fn content_stamp(&self) -> u64 {
        self.data.stamp()
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        window(&self.data, r * self.cols, self.cols)
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        window_mut(&mut self.data, r * self.cols, self.cols)
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copies `src` into row `r`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols);
        self.row_mut(r).copy_from_slice(src);
    }

    // ---------------------------------------------------------------
    // Element-wise arithmetic (allocating and in-place variants).
    // ---------------------------------------------------------------

    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: Stamped::new(data),
        }
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Returns `self * alpha` element-wise.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
    }

    /// In-place multiplication by a scalar.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Applies `f` to every element, allocating a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: Stamped::new(self.data.iter().map(|&x| f(x)).collect()),
        }
    }

    /// Fills every element with `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|a| *a = v);
    }

    // ---------------------------------------------------------------
    // Reductions.
    // ---------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for the empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (`-inf` for the empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`inf` for the empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Per-column sums as a `1 x m` row vector.
    pub fn col_sums(&self) -> Tensor {
        let mut out = vec![0.0; self.cols];
        for r in self.rows_iter() {
            for (o, &x) in out.iter_mut().zip(r) {
                *o += x;
            }
        }
        Tensor {
            rows: 1,
            cols: self.cols,
            data: Stamped::new(out),
        }
    }

    /// Index of the maximum entry in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.rows_iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map_or(0, |(i, _)| i)
            })
            .collect()
    }

    // ---------------------------------------------------------------
    // Linear algebra.
    // ---------------------------------------------------------------

    /// Matrix product `self * other`.
    ///
    /// Cache-tiled, register-blocked kernel with row-parallel dispatch
    /// (see [`crate::par`]). Per output element the reduction runs over
    /// `p = 0..k` in ascending order, so for finite inputs the result is
    /// bitwise identical to [`reference::matmul`] at every thread count.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; n * m];
        let (a, b) = (&self.data, &other.data);
        par::par_row_chunks_mut(&mut out, m, k * m, |lo, hi, chunk| {
            matmul_block(a, b, k, m, lo, hi, chunk);
        });
        Tensor {
            rows: n,
            cols: m,
            data: Stamped::new(out),
        }
    }

    /// Matrix product `self * other^T` without materialising the transpose.
    ///
    /// Same tiling and bitwise guarantee as [`Tensor::matmul`], against
    /// [`reference::matmul_tb`].
    pub fn matmul_tb(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_tb shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.rows);
        let mut out = vec![0.0f32; n * m];
        let (a, b) = (&self.data, &other.data);
        par::par_row_chunks_mut(&mut out, m, k * m, |lo, hi, chunk| {
            matmul_tb_block(a, b, k, m, lo, hi, chunk);
        });
        Tensor {
            rows: n,
            cols: m,
            data: Stamped::new(out),
        }
    }

    /// Writes `self * other` into `out` (which must already be `n x m`),
    /// reusing its storage. Bitwise identical to [`Tensor::matmul`].
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        assert_eq!(out.shape(), (n, m), "matmul_into: out must be {n}x{m}");
        out.data.fill(0.0);
        let (a, b) = (&self.data, &other.data);
        par::par_row_chunks_mut(&mut out.data, m, k * m, |lo, hi, chunk| {
            matmul_block(a, b, k, m, lo, hi, chunk);
        });
    }

    /// Writes `self * other^T` into `out`, reusing its storage. Bitwise
    /// identical to [`Tensor::matmul_tb`].
    pub fn matmul_tb_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_tb shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.rows);
        assert_eq!(out.shape(), (n, m), "matmul_tb_into: out must be {n}x{m}");
        out.data.fill(0.0);
        let (a, b) = (&self.data, &other.data);
        par::par_row_chunks_mut(&mut out.data, m, k * m, |lo, hi, chunk| {
            matmul_tb_block(a, b, k, m, lo, hi, chunk);
        });
    }

    /// Both gradients of `C = A * B` in one fused dispatch, given
    /// `self = dC` (`n x m`): writes `dA = dC * B^T` into `da` (`n x k`)
    /// and `dB = A^T * dC` into `db` (`k x m`), overwriting both.
    ///
    /// Bitwise-identical to [`reference::matmul_tb`] and
    /// [`reference::matmul_ta`], but the two products share one parallel
    /// region (one pool dispatch instead of two) and run on the packed
    /// kernels, which reuse each gathered operand panel across all row
    /// blocks — the fusion of the MatMul backward path (carried debt 5a).
    /// A narrow product (`m == 1`) takes the outer-product and column-sum
    /// kernels instead, at every worker count, with the same per-element
    /// summation order.
    pub fn matmul_grads_into(&self, a: &Tensor, b: &Tensor, da: &mut Tensor, db: &mut Tensor) {
        assert_eq!(
            a.cols, b.rows,
            "matmul_grads shape mismatch: {}x{} * {}x{}",
            a.rows, a.cols, b.rows, b.cols
        );
        let (n, k, m) = (a.rows, a.cols, b.cols);
        assert_eq!(
            self.shape(),
            (n, m),
            "matmul_grads_into: dC must be {n}x{m}"
        );
        assert_eq!(da.shape(), (n, k), "matmul_grads_into: da must be {n}x{k}");
        assert_eq!(db.shape(), (k, m), "matmul_grads_into: db must be {k}x{m}");
        da.data.fill(0.0);
        db.data.fill(0.0);
        let (g, av, bv) = (&self.data, &a.data, &b.data);
        // Chunk each output with the same ROW_BLOCK-aligned math as
        // `par_row_chunks_mut` — the job list (and hence every kernel's
        // row range) is a pure function of the worker count, never of
        // which pool thread runs which job.
        let workers = if 2 * n * m * k < par::PAR_THRESHOLD || par::in_parallel_worker() {
            1
        } else {
            par::num_threads()
        };
        if workers <= 1 {
            grad_a_block(g, bv, k, m, 0, n, &mut da.data);
            grad_b_block(av, g, n, k, m, 0, k, &mut db.data);
            return;
        }
        let (per_a, ca) = fused_row_chunks(n, workers);
        let (per_b, cb) = fused_row_chunks(k, workers);
        let da_ptr = par::SyncPtr(da.data.as_mut_ptr());
        let db_ptr = par::SyncPtr(db.data.as_mut_ptr());
        par::run_region(ca + cb, move |c| {
            if c < ca {
                let lo = c * per_a;
                let hi = (lo + per_a).min(n);
                // SAFETY: jobs `0..ca` tile dA's rows disjointly; `da`
                // outlives the region (`run_region` returns only after
                // every job completed).
                let chunk = unsafe {
                    std::slice::from_raw_parts_mut(da_ptr.get().add(lo * k), (hi - lo) * k)
                };
                grad_a_block(g, bv, k, m, lo, hi, chunk);
            } else {
                let lo = (c - ca) * per_b;
                let hi = (lo + per_b).min(k);
                // SAFETY: jobs `ca..ca + cb` tile dB's rows disjointly;
                // `db` outlives the region.
                let chunk = unsafe {
                    std::slice::from_raw_parts_mut(db_ptr.get().add(lo * m), (hi - lo) * m)
                };
                grad_b_block(av, g, n, k, m, lo, hi, chunk);
            }
        });
    }

    /// The transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = vec![0.0f32; self.data.len()];
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        Tensor {
            rows: self.cols,
            cols: self.rows,
            data: Stamped::new(out),
        }
    }

    /// Gathers rows by index into a new tensor (`indices.len() x cols`).
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            assert!(
                i < self.rows,
                "gather index {i} out of bounds ({} rows)",
                self.rows
            );
            data.extend_from_slice(self.row(i));
        }
        Tensor {
            rows: indices.len(),
            cols: self.cols,
            data: Stamped::new(data),
        }
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Tensor {
            rows: self.rows,
            cols,
            data: Stamped::new(data),
        }
    }

    /// Per-row L2 normalisation; zero rows are left untouched.
    pub fn l2_normalize_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in out.data.chunks_exact_mut(self.cols.max(1)) {
            let n: f32 = r.iter().map(|&x| x * x).sum::<f32>().sqrt();
            if n > 1e-12 {
                r.iter_mut().for_each(|x| *x /= n);
            }
        }
        out
    }

    /// Pairwise squared Euclidean distances between the rows of `self`
    /// (`n x d`) and the rows of `centers` (`k x d`), yielding `n x k`.
    ///
    /// Uses the expansion `|x - c|^2 = |x|^2 - 2 x.c + |c|^2` and clamps
    /// tiny negatives arising from cancellation to zero.
    pub fn pairwise_sq_dists(&self, centers: &Tensor) -> Tensor {
        assert_eq!(self.cols, centers.cols, "dimension mismatch");
        let mut out = self.matmul_tb(centers); // n x k of x.c
        let xn: Vec<f32> = self
            .rows_iter()
            .map(|r| r.iter().map(|&x| x * x).sum())
            .collect();
        let cn: Vec<f32> = centers
            .rows_iter()
            .map(|r| r.iter().map(|&x| x * x).sum())
            .collect();
        for (row, &xni) in out.data.chunks_exact_mut(centers.rows).zip(&xn) {
            for (v, &cnj) in row.iter_mut().zip(&cn) {
                *v = (xni - 2.0 * *v + cnj).max(0.0);
            }
        }
        out
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        crate::finite::is_all_finite(&self.data)
    }
}

// -------------------------------------------------------------------
// Blocked kernels behind the matmul family.
//
// Shared shape: MR output rows x NR output columns of C live in register
// accumulators while the k dimension streams through in KC-high panels.
// Every kernel accumulates each output element strictly in ascending-k
// order — panel and tile loops only regroup the row/column traversal —
// which is what makes the result bitwise-equal to the naive reference
// (and independent of the thread count, since `par` aligns chunk bounds
// to MR rows).
// -------------------------------------------------------------------

/// [`ROW_BLOCK`](par::ROW_BLOCK)-aligned chunking for one output of the
/// fused gradient dispatch: `(rows_per_chunk, chunk_count)`, the same
/// split [`par::par_row_chunks_mut`] would produce for `workers`.
fn fused_row_chunks(rows: usize, workers: usize) -> (usize, usize) {
    if rows == 0 {
        return (1, 0);
    }
    let w = workers.clamp(1, rows.div_ceil(par::ROW_BLOCK));
    let per = rows.div_ceil(par::ROW_BLOCK).div_ceil(w) * par::ROW_BLOCK;
    (per, rows.div_ceil(per))
}

/// Output rows per micro-kernel; equals [`par::ROW_BLOCK`] so parallel
/// chunk boundaries never split a row block.
const MR: usize = par::ROW_BLOCK;
/// Half-row width of the accumulator tile: each half-row is one vector
/// register's worth of f32 on AVX-512, two on AVX2.
const NR: usize = 16;
/// Full output-column width of the micro-kernel tile (`2 * NR`): with
/// MR = 4 rows that is eight independent multiply-add chains, enough to
/// hide FP-add latency on two execution ports.
const NRW: usize = 32;
/// k-panel height: keeps the streamed operand panel (`KC * NRW` floats)
/// L1-resident across the row blocks of one chunk.
const KC: usize = 256;

/// `&s[start..start + len]` expressed through `split_at`: the same
/// elements in the same order, with the length visible to the optimiser
/// exactly like the range form, but without a syntactic index expression
/// (the panic lives inside `split_at`, a documented analyzer blind spot
/// — bounds here are loop-invariant kernel arithmetic).
#[inline(always)]
fn window(s: &[f32], start: usize, len: usize) -> &[f32] {
    s.split_at(start).1.split_at(len).0
}

/// Mutable [`window`].
#[inline(always)]
fn window_mut(s: &mut [f32], start: usize, len: usize) -> &mut [f32] {
    s.split_at_mut(start).1.split_at_mut(len).0
}

/// C[lo..hi, :] += A[lo..hi, :] * B for row-major A (n x k) and B (k x m);
/// `out` holds rows `lo..hi` of C and arrives zeroed.
fn matmul_block(a: &[f32], b: &[f32], k: usize, m: usize, lo: usize, hi: usize, out: &mut [f32]) {
    match m {
        1 => return matvec_block(a, b, k, lo, hi, out),
        2 => return few_cols_block::<2>(a, b, k, m, lo, hi, out),
        3 => return few_cols_block::<3>(a, b, k, m, lo, hi, out),
        4 => return few_cols_block::<4>(a, b, k, m, lo, hi, out),
        5..=8 => return few_cols_block::<8>(a, b, k, m, lo, hi, out),
        _ => {}
    }
    // Every hot-loop index goes through a slice whose length the
    // optimiser can see, so no bounds checks survive in the k loop.
    let mut i = lo;
    while i < hi {
        let mr = MR.min(hi - i);
        let mut kb = 0;
        while kb < k {
            let ke = (kb + KC).min(k);
            let pa = ke - kb;
            let mut j = 0;
            while j < m {
                let nr = NRW.min(m - j);
                if mr == MR && nr == NRW {
                    let a0 = window(a, i * k + kb, pa);
                    let a1 = window(a, (i + 1) * k + kb, pa);
                    let a2 = window(a, (i + 2) * k + kb, pa);
                    let a3 = window(a, (i + 3) * k + kb, pa);
                    // Two NR-wide half-tiles per row: each half is one
                    // full vector register, which keeps the whole
                    // accumulator tile register-resident.
                    let mut acc_lo = [[0.0f32; NR]; MR];
                    let mut acc_hi = [[0.0f32; NR]; MR];
                    for r in 0..MR {
                        let (row_lo, row_hi) = window(out, (i - lo + r) * m + j, NRW).split_at(NR);
                        acc_lo[r].copy_from_slice(row_lo);
                        acc_hi[r].copy_from_slice(row_hi);
                    }
                    let mut boff = kb * m + j;
                    // Constant row indices and one scalar A element per
                    // row steer vectorisation along the NR columns (one
                    // register per half-row) rather than across rows.
                    macro_rules! fma_row {
                        ($ar:expr, $rl:expr, $rh:expr, $bl:expr, $bh:expr) => {{
                            let ar = $ar;
                            for q in 0..NR {
                                $rl[q] += ar * $bl[q];
                                $rh[q] += ar * $bh[q];
                            }
                        }};
                    }
                    for t in 0..pa {
                        let (bl, bh) = window(b, boff, NRW).split_at(NR);
                        let bl: &[f32; NR] = bl.try_into().unwrap();
                        let bh: &[f32; NR] = bh.try_into().unwrap();
                        fma_row!(a0[t], acc_lo[0], acc_hi[0], bl, bh);
                        fma_row!(a1[t], acc_lo[1], acc_hi[1], bl, bh);
                        fma_row!(a2[t], acc_lo[2], acc_hi[2], bl, bh);
                        fma_row!(a3[t], acc_lo[3], acc_hi[3], bl, bh);
                        boff += m;
                    }
                    for r in 0..MR {
                        let (row_lo, row_hi) =
                            window_mut(out, (i - lo + r) * m + j, NRW).split_at_mut(NR);
                        row_lo.copy_from_slice(&acc_lo[r]);
                        row_hi.copy_from_slice(&acc_hi[r]);
                    }
                } else {
                    for p in kb..ke {
                        let brow = window(b, p * m + j, nr);
                        for r in 0..mr {
                            let av = a[(i + r) * k + p];
                            let orow = window_mut(out, (i - lo + r) * m + j, nr);
                            for (o, &bv) in orow.iter_mut().zip(brow) {
                                *o += av * bv;
                            }
                        }
                    }
                }
                j += nr;
            }
            kb = ke;
        }
        i += mr;
    }
}

/// C[lo..hi, :] += A[lo..hi, :] * B^T for row-major A (n x k), B (m x k).
///
/// The `KC x NR` B^T tile is gathered once per (k-panel, column tile)
/// into a contiguous stack buffer and reused across every row block of
/// the chunk — previously the strided gather re-ran per row block, which
/// made this the most expensive backward kernel (carried debt 5a). Per
/// output element the accumulation still runs in ascending-k order, so
/// results are bitwise-unchanged.
fn matmul_tb_block(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    lo: usize,
    hi: usize,
    out: &mut [f32],
) {
    if lo >= hi {
        return;
    }
    let mut pack = [0.0f32; KC * NR];
    let mut kb = 0;
    while kb < k {
        let ke = (kb + KC).min(k);
        let pa = ke - kb;
        let mut j = 0;
        while j < m {
            let nr = NR.min(m - j);
            // pack[t * NR + q] = b[(j + q) * k + kb + t]: the transposed
            // tile, laid out so the micro-kernel streams it row by row.
            for q in 0..nr {
                let bbase = (j + q) * k + kb;
                for t in 0..pa {
                    pack[t * NR + q] = b[bbase + t];
                }
            }
            let mut i = lo;
            while i < hi {
                let mr = MR.min(hi - i);
                if mr == MR && nr == NR {
                    let mut acc = [[0.0f32; NR]; MR];
                    for (r, accr) in acc.iter_mut().enumerate() {
                        accr.copy_from_slice(window(out, (i - lo + r) * m + j, NR));
                    }
                    for (t, brow) in pack.chunks_exact(NR).take(pa).enumerate() {
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let av = a[(i + r) * k + kb + t];
                            for q in 0..NR {
                                accr[q] += av * brow[q];
                            }
                        }
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        window_mut(out, (i - lo + r) * m + j, NR).copy_from_slice(accr);
                    }
                } else {
                    for t in 0..pa {
                        for r in 0..mr {
                            let av = a[(i + r) * k + kb + t];
                            for q in 0..nr {
                                out[(i - lo + r) * m + j + q] += av * pack[t * NR + q];
                            }
                        }
                    }
                }
                i += mr;
            }
            j += nr;
        }
        kb = ke;
    }
}

/// C[lo..hi, :] += (A^T)[lo..hi, :] * B for row-major A (k x n), B (k x m).
///
/// The `KC x MR` A column panel (stride-`n` loads) is packed once per
/// (row block, k-panel) into a contiguous stack buffer and reused across
/// every column tile, mirroring the B^T packing in [`matmul_tb_block`].
/// Accumulation order per output element is unchanged (ascending k), so
/// results are bitwise-identical.
#[allow(clippy::too_many_arguments)] // internal kernel: shapes + row range
fn matmul_ta_block(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    m: usize,
    lo: usize,
    hi: usize,
    out: &mut [f32],
) {
    let mut apack = [0.0f32; KC * MR];
    let mut i = lo;
    while i < hi {
        let mr = MR.min(hi - i);
        let mut kb = 0;
        while kb < k {
            let ke = (kb + KC).min(k);
            let pa = ke - kb;
            // apack[t * MR + r] = a[(kb + t) * n + i + r]: the column
            // panel, contiguous per k step.
            for (t, dst) in apack.chunks_exact_mut(MR).take(pa).enumerate() {
                let abase = (kb + t) * n + i;
                for (r, d) in dst.iter_mut().take(mr).enumerate() {
                    *d = a[abase + r];
                }
            }
            let mut j = 0;
            while j < m {
                let nr = NRW.min(m - j);
                if mr == MR && nr == NRW {
                    // Same register-tiled shape as `matmul_block`; the A
                    // elements come from the packed panel.
                    let mut acc_lo = [[0.0f32; NR]; MR];
                    let mut acc_hi = [[0.0f32; NR]; MR];
                    for r in 0..MR {
                        let (row_lo, row_hi) = window(out, (i - lo + r) * m + j, NRW).split_at(NR);
                        acc_lo[r].copy_from_slice(row_lo);
                        acc_hi[r].copy_from_slice(row_hi);
                    }
                    let mut boff = kb * m + j;
                    macro_rules! fma_row {
                        ($ar:expr, $rl:expr, $rh:expr, $bl:expr, $bh:expr) => {{
                            let ar = $ar;
                            for q in 0..NR {
                                $rl[q] += ar * $bl[q];
                                $rh[q] += ar * $bh[q];
                            }
                        }};
                    }
                    for arow in apack.chunks_exact(MR).take(pa) {
                        let (bl, bh) = window(b, boff, NRW).split_at(NR);
                        let bl: &[f32; NR] = bl.try_into().unwrap();
                        let bh: &[f32; NR] = bh.try_into().unwrap();
                        fma_row!(arow[0], acc_lo[0], acc_hi[0], bl, bh);
                        fma_row!(arow[1], acc_lo[1], acc_hi[1], bl, bh);
                        fma_row!(arow[2], acc_lo[2], acc_hi[2], bl, bh);
                        fma_row!(arow[3], acc_lo[3], acc_hi[3], bl, bh);
                        boff += m;
                    }
                    for r in 0..MR {
                        let (row_lo, row_hi) =
                            window_mut(out, (i - lo + r) * m + j, NRW).split_at_mut(NR);
                        row_lo.copy_from_slice(&acc_lo[r]);
                        row_hi.copy_from_slice(&acc_hi[r]);
                    }
                } else {
                    for t in 0..pa {
                        let brow = window(b, (kb + t) * m + j, nr);
                        for r in 0..mr {
                            let av = apack[t * MR + r];
                            let orow = window_mut(out, (i - lo + r) * m + j, nr);
                            for (o, &bv) in orow.iter_mut().zip(brow) {
                                *o += av * bv;
                            }
                        }
                    }
                }
                j += nr;
            }
            kb = ke;
        }
        i += mr;
    }
}

// -------------------------------------------------------------------
// Narrow kernels: the `n x k · k x 1` product and its two gradients.
//
// With one output column the packed tiles above keep a single live
// column, and the scalar edge path reloads the output element on every
// k step. These kernels sum each output element in exactly the order
// the packed kernels do — from the zeroed output, ascending over the
// reduction index, multiply then add — so their results are
// bitwise-equal, just without the dead tile work.
// -------------------------------------------------------------------

/// Rows [`matvec_block`] keeps in flight: eight independent add chains,
/// one register accumulator each.
const NV: usize = 8;

/// c[lo..hi] += A[lo..hi, :] · b for row-major A (n x k) and a k-vector
/// b: the `m == 1` case of [`matmul_block`]. `out` holds `c[lo..hi]` and
/// arrives zeroed, so `out[r] = +0.0 + Σ_p a[r,p]·b[p]` in ascending p.
fn matvec_block(a: &[f32], b: &[f32], k: usize, lo: usize, hi: usize, out: &mut [f32]) {
    if k == 0 {
        return;
    }
    let b = window(b, 0, k);
    let rows = window(a, lo * k, (hi - lo) * k);
    let mut blocks = rows.chunks_exact(NV * k);
    let mut outs = out.chunks_exact_mut(NV);
    for (blk, o) in blocks.by_ref().zip(outs.by_ref()) {
        let r: [&[f32]; NV] = std::array::from_fn(|q| window(blk, q * k, k));
        let mut acc = [0.0f32; NV];
        acc.copy_from_slice(o);
        for (p, &bp) in b.iter().enumerate() {
            for q in 0..NV {
                acc[q] += r[q][p] * bp;
            }
        }
        o.copy_from_slice(&acc);
    }
    for (row, o) in blocks
        .remainder()
        .chunks_exact(k)
        .zip(outs.into_remainder())
    {
        let mut acc = *o;
        for (&x, &bp) in row.iter().zip(b) {
            acc += x * bp;
        }
        *o = acc;
    }
}

/// C[lo..hi, :] += A[lo..hi, :] · B for B with `m <= W` columns (`m > 1`):
/// the few-column case of [`matmul_block`], whose edge path would reload
/// every output on every k step. [`NV`] rows keep a `W`-wide register
/// accumulator each, so `out[r, c]` continues from its value on entry in
/// ascending p, multiply then add, exactly as the tiled paths do. With
/// `W > m` only the first `m` lanes of each accumulator are used.
fn few_cols_block<const W: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    lo: usize,
    hi: usize,
    out: &mut [f32],
) {
    if k == 0 {
        return;
    }
    let b = window(b, 0, k * m);
    let rows = window(a, lo * k, (hi - lo) * k);
    let mut blocks = rows.chunks_exact(NV * k);
    let mut outs = out.chunks_exact_mut(NV * m);
    for (blk, o) in blocks.by_ref().zip(outs.by_ref()) {
        let r: [&[f32]; NV] = std::array::from_fn(|q| window(blk, q * k, k));
        let mut acc = [[0.0f32; W]; NV];
        for (acc_q, o_q) in acc.iter_mut().zip(o.chunks_exact(m)) {
            for (x, &y) in acc_q.iter_mut().zip(o_q) {
                *x = y;
            }
        }
        for (p, bp) in b.chunks_exact(m).enumerate() {
            for q in 0..NV {
                let av = r[q][p];
                for (x, &bv) in acc[q].iter_mut().zip(bp) {
                    *x += av * bv;
                }
            }
        }
        for (acc_q, o_q) in acc.iter().zip(o.chunks_exact_mut(m)) {
            for (y, &x) in o_q.iter_mut().zip(acc_q) {
                *y = x;
            }
        }
    }
    for (row, o) in blocks
        .remainder()
        .chunks_exact(k)
        .zip(outs.into_remainder().chunks_exact_mut(m))
    {
        let mut acc = [0.0f32; W];
        for (x, &y) in acc.iter_mut().zip(o.iter()) {
            *x = y;
        }
        for (&av, bp) in row.iter().zip(b.chunks_exact(m)) {
            for (x, &bv) in acc.iter_mut().zip(bp) {
                *x += av * bv;
            }
        }
        for (y, &x) in o.iter_mut().zip(&acc) {
            *y = x;
        }
    }
}

/// dA[lo..hi, :] += g[lo..hi] · bᵀ for a gradient column g (n x 1) and
/// b (k x 1): the `m == 1` case of [`grad_a_block`]. `out` holds rows
/// `lo..hi` of dA and arrives zeroed, so `dA[r,p] = +0.0 + g[r]·b[p]`.
fn outer_block(g: &[f32], b: &[f32], k: usize, lo: usize, hi: usize, out: &mut [f32]) {
    if k == 0 {
        return;
    }
    let b = window(b, 0, k);
    for (&gr, orow) in window(g, lo, hi - lo).iter().zip(out.chunks_exact_mut(k)) {
        for (o, &bp) in orow.iter_mut().zip(b) {
            *o += gr * bp;
        }
    }
}

/// dB[lo..hi] += (Aᵀ g)[lo..hi] for row-major A (n x k) and a gradient
/// column g (n x 1): the `m == 1` case of [`grad_b_block`]. `out` holds
/// `dB[lo..hi]` and arrives zeroed, so `dB[p] = +0.0 + Σ_r a[r,p]·g[r]`
/// in ascending r; each call sums over every row, so a chunk of p
/// never splits a reduction.
fn matvec_ta_block(
    a: &[f32],
    g: &[f32],
    n: usize,
    k: usize,
    lo: usize,
    hi: usize,
    out: &mut [f32],
) {
    for (r, &gr) in window(g, 0, n).iter().enumerate() {
        let arow = window(a, r * k + lo, hi - lo);
        for (o, &x) in out.iter_mut().zip(arow) {
            *o += x * gr;
        }
    }
}

/// Rows `lo..hi` of `dA = dC · Bᵀ` (dC `n x m`, B `k x m`) for the fused
/// MatMul backward: the narrow kernel when `m == 1`, the packed one
/// otherwise.
fn grad_a_block(g: &[f32], b: &[f32], k: usize, m: usize, lo: usize, hi: usize, out: &mut [f32]) {
    if m == 1 {
        outer_block(g, b, k, lo, hi, out);
    } else {
        matmul_tb_block(g, b, m, k, lo, hi, out);
    }
}

/// Rows `lo..hi` of `dB = Aᵀ · dC` (A `n x k`, dC `n x m`) for the fused
/// MatMul backward: the narrow kernel when `m == 1`, the packed one
/// otherwise.
#[allow(clippy::too_many_arguments)] // internal kernel: shapes + row range
fn grad_b_block(
    a: &[f32],
    g: &[f32],
    n: usize,
    k: usize,
    m: usize,
    lo: usize,
    hi: usize,
    out: &mut [f32],
) {
    if m == 1 {
        matvec_ta_block(a, g, n, k, lo, hi, out);
    } else {
        matmul_ta_block(a, g, n, k, m, lo, hi, out);
    }
}

pub mod reference {
    //! Serial reference implementations of the matmul family: the plain
    //! single-pass kernels the blocked/parallel versions are
    //! property-tested against. For finite inputs the public kernels are
    //! bitwise-equal to these at every thread count; with non-finite
    //! operand elements they may differ (the references skip
    //! zero-coefficient rows, turning `0 * inf` into `0` instead of NaN).

    use super::Tensor;

    /// Naive ikj-ordered `a * b`.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
        let (n, k, m) = (a.rows(), a.cols(), b.cols());
        let (ad, bd) = (a.as_slice(), b.as_slice());
        let mut out = vec![0.0f32; n * m];
        for (a_row, o_row) in ad
            .chunks_exact(k.max(1))
            .zip(out.chunks_exact_mut(m.max(1)))
        {
            for (&av, b_row) in a_row.iter().zip(bd.chunks_exact(m.max(1))) {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(n, m, out)
    }

    /// Naive per-element `a * b^T`.
    pub fn matmul_tb(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.cols(), b.cols(), "matmul_tb shape mismatch");
        let (n, k, m) = (a.rows(), a.cols(), b.rows());
        let (ad, bd) = (a.as_slice(), b.as_slice());
        let mut out = vec![0.0f32; n * m];
        for (a_row, o_row) in ad
            .chunks_exact(k.max(1))
            .zip(out.chunks_exact_mut(m.max(1)))
        {
            for (o, b_row) in o_row.iter_mut().zip(bd.chunks_exact(k.max(1))) {
                // Explicit fold from +0.0: `Iterator::sum` starts at -0.0,
                // which diverges bitwise from the blocked kernels on empty
                // and all-negative-zero reductions.
                *o = a_row
                    .iter()
                    .zip(b_row)
                    .fold(0.0, |acc, (&x, &y)| acc + x * y);
            }
        }
        Tensor::from_vec(n, m, out)
    }

    /// Naive p-outer `a^T * b`.
    pub fn matmul_ta(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.rows(), b.rows(), "matmul_ta shape mismatch");
        let (n, k, m) = (a.cols(), a.rows(), b.cols());
        let (ad, bd) = (a.as_slice(), b.as_slice());
        let mut out = vec![0.0f32; n * m];
        for (a_row, b_row) in ad
            .chunks_exact(n.max(1))
            .zip(bd.chunks_exact(m.max(1)))
            .take(k)
        {
            for (&av, o_row) in a_row.iter().zip(out.chunks_exact_mut(m.max(1))) {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(n, m, out)
    }
}

/// Dot product of two equal-length slices.
///
/// Four independent accumulators break the serial add dependence chain;
/// partials combine as `(s0 + s1) + (s2 + s3)` followed by the tail terms
/// in order, so for `len < 4` the result is identical to the plain
/// sequential sum.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca4 = a.chunks_exact(4);
    let mut cb4 = b.chunks_exact(4);
    let mut acc = [0.0f32; 4];
    for (ca, cb) in ca4.by_ref().zip(cb4.by_ref()) {
        for q in 0..4 {
            acc[q] += ca[q] * cb[q];
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in ca4.remainder().iter().zip(cb4.remainder()) {
        s += x * y;
    }
    s
}

/// Numerically-stable in-place softmax over a slice.
pub fn softmax_in_place(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut s = 0.0;
    for v in x.iter_mut() {
        *v = (*v - m).exp();
        s += *v;
    }
    if s > 0.0 {
        for v in x.iter_mut() {
            *v /= s;
        }
    }
}

/// Circular correlation of two equal-length slices,
/// `out[k] = sum_i a[i] * b[(i + k) mod d]` (HolE-style composition),
/// against a pre-doubled window of `b`: `win` must hold
/// `b` followed by `b[..d-1]` (length `2d - 1`), so every rotation of `b`
/// is a contiguous slice and output `k` is `dot(a, win[k..k + d])`.
///
/// Outputs are computed in blocks of 16 (then 8, then one at a time).
/// For term `i` of the block starting at output `k0`, the window slice
/// `win[k0 + i..][..16]` is contiguous, so one broadcast of `a[i]` feeds
/// 16 independent outputs and the adds no longer wait on each other. Each
/// output still accumulates exactly [`dot`]'s terms in [`dot`]'s order,
/// so every bit matches.
pub fn circular_correlation_windowed(a: &[f32], win: &[f32], out: &mut [f32]) {
    let d = a.len();
    debug_assert_eq!(win.len(), 2 * d.max(1) - 1);
    debug_assert_eq!(out.len(), d);
    windowed_dots(a, win, out);
}

/// Circular convolution, `out[m] = sum_k g[k] * a[(m - k) mod d]`,
/// against a pre-reversed doubled window: `win[i] = a[(d - 1 - i).rem_euclid(d)]`
/// (length `2d - 1`), i.e. `rev(a)` followed by `rev(a)[..d-1]`. Each
/// output then reads `out[m] = dot(g, win[d-1-m .. 2d-1-m])`.
///
/// Blocked like [`circular_correlation_windowed`], over window starts
/// `s` ascending; the dot at start `s` lands in `out[d - 1 - s]`.
pub fn circular_convolution_windowed(g: &[f32], win: &[f32], out: &mut [f32]) {
    let d = g.len();
    debug_assert_eq!(win.len(), 2 * d.max(1) - 1);
    debug_assert_eq!(out.len(), d);
    // Window starts ascending are the outputs descending: fill position
    // `s` with the dot at start `s`, then reverse into `out[d - 1 - s]`.
    windowed_dots(g, win, out);
    out.reverse();
}

/// `out[s] = dot(x, win[s..s + d])` for every `s`, in blocks of 16
/// outputs, then one of 8, then one [`dot`] per output.
#[inline(always)]
fn windowed_dots(x: &[f32], win: &[f32], out: &mut [f32]) {
    let mut s0 = 0;
    let mut wide = out.chunks_exact_mut(16);
    for block in wide.by_ref() {
        windowed_dots_n::<16>(x, win.get(s0..).unwrap_or_default(), block);
        s0 += 16;
    }
    let mut narrow = wide.into_remainder().chunks_exact_mut(8);
    for block in narrow.by_ref() {
        windowed_dots_n::<8>(x, win.get(s0..).unwrap_or_default(), block);
        s0 += 8;
    }
    let rest = win.windows(x.len().max(1)).skip(s0);
    for (o, w) in narrow.into_remainder().iter_mut().zip(rest) {
        *o = dot(x, w);
    }
}

/// `out[s] = dot(x, win[s..s + d])` for the `B` starts of one block,
/// bitwise equal to [`dot`]: term `i` of every output goes to lane
/// `i % 4`, the lanes combine as `(s0 + s1) + (s2 + s3)`, and the `d % 4`
/// tail terms follow in order.
#[inline(always)]
fn windowed_dots_n<const B: usize>(x: &[f32], win: &[f32], out: &mut [f32]) {
    let mut lanes = [[0.0f32; B]; 4];
    let mut x4 = x.chunks_exact(4);
    // Chunk `c` reads the `B`-wide slices starting at `4c .. 4c + 3`.
    for (cx, w) in x4.by_ref().zip(win.windows(B + 3).step_by(4)) {
        for ((lane, &xi), wi) in lanes.iter_mut().zip(cx).zip(w.windows(B)) {
            for (acc, &y) in lane.iter_mut().zip(wi) {
                *acc += xi * y;
            }
        }
    }
    let [l0, l1, l2, l3] = &lanes;
    let mut s = [0.0f32; B];
    for (v, (((p0, p1), p2), p3)) in s.iter_mut().zip(l0.iter().zip(l1).zip(l2).zip(l3)) {
        *v = (p0 + p1) + (p2 + p3);
    }
    let tail = x4.remainder();
    for (&xi, w) in tail.iter().zip(win.windows(B).skip(x.len() - tail.len())) {
        for (v, &y) in s.iter_mut().zip(w) {
            *v += xi * y;
        }
    }
    out.copy_from_slice(&s);
}

/// Fills `win` (length `2d - 1`) with `b` doubled for
/// [`circular_correlation_windowed`].
pub fn fill_corr_window(b: &[f32], win: &mut [f32]) {
    let d = b.len();
    let (head, tail) = win.split_at_mut(d);
    head.copy_from_slice(b);
    // The tail holds the first `d - 1` elements of `b` again.
    for (w, &x) in tail.iter_mut().zip(b) {
        *w = x;
    }
}

/// Fills `win` (length `2d - 1`) with `a` reversed and doubled for
/// [`circular_convolution_windowed`].
pub fn fill_conv_window(a: &[f32], win: &mut [f32]) {
    let d = a.len();
    let (head, tail) = win.split_at_mut(d);
    for (i, w) in head.iter_mut().enumerate() {
        *w = a[d - 1 - i];
    }
    for (i, w) in tail.iter_mut().enumerate() {
        *w = a[d - 1 - i];
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert_eq!(t.sum(), 0.0);
        let u = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(u.get(1, 0), 3.0);
        assert_eq!(u.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(a.add(&b).as_slice(), &[6.0, 8.0, 10.0, 12.0]);
        assert_eq!(b.sub(&a).as_slice(), &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(a.mul(&b).as_slice(), &[5.0, 12.0, 21.0, 32.0]);
        let mut c = a.clone();
        c.add_scaled(&b, 2.0);
        assert_eq!(c.as_slice(), &[11.0, 14.0, 17.0, 20.0]);
    }

    #[test]
    fn matmul_known_value() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_variants_agree() {
        let a = Tensor::from_rows(&[&[1.0, -2.0, 0.5], &[4.0, 5.0, -6.0]]);
        let b = Tensor::from_rows(&[&[2.0, 1.0, 0.0], &[0.5, -1.0, 3.0]]);
        // a * b^T via matmul_tb must equal a.matmul(b.transpose()).
        assert_eq!(a.matmul_tb(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        let a = Tensor::from_rows(&[&[1.0, -2.0, 0.5], &[4.0, 5.0, -6.0]]);
        let b = Tensor::from_rows(&[&[2.0, 1.0], &[0.5, -1.0], &[3.0, 0.0]]);
        let mut out = Tensor::full(2, 2, f32::NAN); // stale contents must not leak
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        let c = Tensor::from_rows(&[&[2.0, 1.0, 0.0], &[0.5, -1.0, 3.0]]);
        let mut out = Tensor::full(2, 2, f32::NAN);
        a.matmul_tb_into(&c, &mut out);
        assert_eq!(out, a.matmul_tb(&c));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.norm_sq(), 1.0 + 4.0 + 9.0 + 16.0);
        assert_eq!(a.col_sums().as_slice(), &[4.0, 2.0]);
        assert_eq!(a.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn gather_and_concat() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let b = Tensor::from_rows(&[&[9.0], &[8.0], &[7.0]]);
        let cc = a.concat_cols(&b);
        assert_eq!(cc.shape(), (3, 3));
        assert_eq!(cc.row(1), &[3.0, 4.0, 8.0]);
    }

    #[test]
    fn softmax_in_place_is_a_distribution() {
        let mut s = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        for r in 0..2 {
            softmax_in_place(s.row_mut(r));
        }
        for r in s.rows_iter() {
            let sum: f32 = r.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(r.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
        // Monotone in the logits.
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
        // Extreme logits must not overflow.
        assert!(s.all_finite());
    }

    #[test]
    fn pairwise_sq_dists_matches_direct() {
        let x = Tensor::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        let c = Tensor::from_rows(&[&[0.0, 0.0], &[3.0, 4.0]]);
        let d = x.pairwise_sq_dists(&c);
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.get(0, 1), 25.0);
        assert_eq!(d.get(1, 0), 2.0);
        assert_eq!(d.get(1, 1), 13.0);
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let a = Tensor::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        let n = a.l2_normalize_rows();
        assert!((n.row(0)[0] - 0.6).abs() < 1e-6);
        assert!((n.row(0)[1] - 0.8).abs() < 1e-6);
        assert_eq!(n.row(1), &[0.0, 0.0]); // zero row untouched
    }

    #[test]
    fn content_stamp_changes_on_every_mutation_path() {
        let base = Tensor::from_rows(&[&[1.0, -2.0], &[0.5, 4.0]]);
        let twin = Tensor::from_rows(&[&[1.0, -2.0], &[0.5, 4.0]]);
        assert_ne!(base.content_stamp(), twin.content_stamp(), "fresh tensors");
        assert_ne!(
            Tensor::zeros(2, 2).content_stamp(),
            Tensor::zeros(2, 2).content_stamp()
        );
        assert_eq!(base.content_stamp(), base.content_stamp(), "reads");
        let other = twin.clone();
        type Mutation<'a> = (&'a str, &'a dyn Fn(&mut Tensor));
        let mutations: [Mutation; 12] = [
            ("as_mut_slice", &|t| {
                let v = t.get(0, 0);
                t.as_mut_slice()[0] = v; // the same bits
            }),
            ("row_mut", &|t| t.row_mut(1)[0] = 3.0),
            ("set", &|t| t.set(0, 1, 7.0)),
            ("set_row", &|t| t.set_row(0, &[0.0, 1.0])),
            ("fill", &|t| t.fill(2.0)),
            ("add_assign", &|t| t.add_assign(&other)),
            ("add_scaled", &|t| t.add_scaled(&other, 0.0)),
            ("scale_assign", &|t| t.scale_assign(1.0)),
            ("matmul_into", &|t| other.matmul_into(&other, t)),
            ("matmul_tb_into", &|t| other.matmul_tb_into(&other, t)),
            ("matmul_grads_into da", &|t| {
                other.matmul_grads_into(&other, &other, t, &mut Tensor::zeros(2, 2))
            }),
            ("matmul_grads_into db", &|t| {
                other.matmul_grads_into(&other, &other, &mut Tensor::zeros(2, 2), t)
            }),
        ];
        for (name, mutate) in mutations {
            // A clone shares the stamp until either side is mutated, and
            // mutating one side leaves the other's stamp alone.
            let mut t = base.clone();
            assert_eq!(t.content_stamp(), base.content_stamp(), "{name}: clone");
            mutate(&mut t);
            assert_ne!(t.content_stamp(), base.content_stamp(), "{name}");
            let kept = t.clone();
            let stamp = t.content_stamp();
            mutate(&mut t);
            assert_ne!(t.content_stamp(), stamp, "{name}: second mutation");
            assert_eq!(kept.content_stamp(), stamp, "{name}: untouched clone");
        }
        assert_eq!(base.content_stamp(), base.clone().content_stamp());
    }

    #[test]
    fn equality_and_serde_ignore_the_content_stamp() {
        let a = Tensor::from_rows(&[&[1.0, -0.0], &[f32::MIN_POSITIVE, 4.0]]);
        let b = Tensor::from_vec(2, 2, a.as_slice().to_vec());
        assert_ne!(a.content_stamp(), b.content_stamp());
        assert_eq!(a, b);
        let json = serde_json::to_string(&a).unwrap();
        let mut other = a.clone();
        other.as_mut_slice();
        assert_eq!(json, serde_json::to_string(&other).unwrap());
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert_ne!(back.content_stamp(), a.content_stamp(), "fresh on load");
        assert_ne!(back.content_stamp(), other.content_stamp());
    }

    #[test]
    fn circular_correlation_and_convolution_known_values() {
        // d = 3: corr[k] = sum_i a[i] b[(i+k)%3]
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let (mut win, mut out) = ([0.0; 5], [0.0; 3]);
        fill_corr_window(&b, &mut win);
        circular_correlation_windowed(&a, &win, &mut out);
        assert_eq!(
            out,
            [4.0 + 10.0 + 18.0, 5.0 + 12.0 + 12.0, 6.0 + 8.0 + 15.0]
        );
        // conv[m] = sum_k g[k] a[(m-k)%3]: a unit impulse returns `a`.
        fill_conv_window(&[2.0, 3.0, 4.0], &mut win);
        circular_convolution_windowed(&[1.0, 0.0, 0.0], &win, &mut out);
        assert_eq!(out, [2.0, 3.0, 4.0]);
    }

    /// One-`dot`-per-output reference for [`circular_correlation_windowed`].
    pub(crate) fn corr_windowed_ref(a: &[f32], win: &[f32], out: &mut [f32]) {
        let d = a.len();
        for (o, w) in out.iter_mut().zip(win.windows(d.max(1))) {
            *o = dot(a, w);
        }
    }

    /// One-`dot`-per-output reference for [`circular_convolution_windowed`].
    pub(crate) fn conv_windowed_ref(g: &[f32], win: &[f32], out: &mut [f32]) {
        let d = g.len();
        for (o, w) in out.iter_mut().zip(win.windows(d.max(1)).rev()) {
            *o = dot(g, w);
        }
    }

    /// Rows for kernel equality checks: random values, then the same rows
    /// salted with signed zeros, NaN, infinities and subnormals.
    pub(crate) fn kernel_rows(d: usize, seed: u64) -> Vec<Vec<f32>> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 8.0,
            -f32::MIN_POSITIVE / 3.0,
            f32::MAX,
        ];
        let mut rows = Vec::new();
        for r in 0..6 {
            let mut row: Vec<f32> = (0..d).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            if r >= 3 {
                for (j, v) in row.iter_mut().enumerate() {
                    if (j + r) % 3 == 0 {
                        *v = specials[(j * 7 + r) % specials.len()];
                    }
                }
            }
            rows.push(row);
        }
        // All-signed-zero rows pin the sign of a zero sum.
        rows.push(vec![-0.0; d]);
        rows.push(
            (0..d)
                .map(|j| if j % 2 == 0 { -0.0 } else { 0.0 })
                .collect(),
        );
        rows
    }

    /// Every non-NaN output bitwise equal, and NaN exactly where the
    /// reference has NaN. Rust leaves the sign and payload of a NaN that
    /// an operation produces unspecified (RFC 3514), and optimised builds
    /// do flip the sign bit, so no kernel can promise those bits.
    #[test]
    fn blocked_windowed_kernels_are_bitwise_equal_to_one_dot_per_output() {
        let dims = (1..=40).chain([64, 100, 128]);
        for d in dims {
            let rows = kernel_rows(d, d as u64);
            let mut win = vec![0.0; 2 * d - 1];
            let (mut got, mut want) = (vec![0.0; d], vec![0.0; d]);
            for a in &rows {
                for b in &rows {
                    fill_corr_window(b, &mut win);
                    circular_correlation_windowed(a, &win, &mut got);
                    corr_windowed_ref(a, &win, &mut want);
                    let bits = |v: &[f32]| {
                        v.iter()
                            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&got), bits(&want), "correlation d={d}");
                    fill_conv_window(b, &mut win);
                    circular_convolution_windowed(a, &win, &mut got);
                    conv_windowed_ref(a, &win, &mut want);
                    assert_eq!(bits(&got), bits(&want), "convolution d={d}");
                }
            }
        }
    }
}

serde::impl_serde_struct!(Tensor { rows, cols, data });
