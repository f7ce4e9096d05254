//! Cluster-aware module (Sec. III-D): DEC-style self-training soft
//! clustering over *all* node types in the one shared embedding space,
//! masked-embedding prediction, and the consistency/disparity regularisers.

use tensor::{ConstId, ForwardCtx, Graph, ParamId, Params, Tensor, Var};

/// Trainable CA parameters: per layer, `K` cluster centers (a `K x d`
/// tensor) and `K` embedding masks (each `1 x d`, passed through sigmoid).
#[derive(Clone, Debug)]
pub struct CaParams {
    /// `centers[l]` is the `K x d` center matrix of layer `l+1`.
    pub centers: Vec<ParamId>,
    /// `masks[l][k]` is the raw (`pi`, pre-sigmoid) mask of cluster `k` at
    /// layer `l+1`.
    pub masks: Vec<Vec<ParamId>>,
}

impl CaParams {
    pub fn init<R: rand::Rng>(
        params: &mut Params,
        layers: usize,
        dim: usize,
        k: usize,
        rng: &mut R,
    ) -> Self {
        use tensor::Initializer::Normal;
        let centers = (0..layers)
            .map(|l| params.add_init(format!("ca.centers.l{l}"), k, dim, Normal(0.5), rng))
            .collect();
        // Masks start near-identity (sigmoid(2) ~ 0.88): the model begins
        // as an unmasked HGN and *learns* to gate dimensions per cluster,
        // instead of starting from an information-destroying 0.5 gate.
        let masks = (0..layers)
            .map(|l| {
                (0..k)
                    .map(|c| {
                        let t = tensor::Tensor::full(1, dim, 2.0);
                        params.add(format!("ca.mask.l{l}.k{c}"), t)
                    })
                    .collect()
            })
            .collect();
        CaParams { centers, masks }
    }
}

/// Eq. 16: Student-t soft assignment of every row of `h` to each center.
/// Returns an `n x K` row-stochastic matrix, differentiable in both `h` and
/// `centers`.
pub fn soft_assign<F: ForwardCtx>(g: &mut F, h: Var, centers: Var) -> Var {
    let d2 = g.pairwise_sq_dist(h, centers);
    let t = g.recip1p(d2);
    g.free(d2);
    let s = g.sum_rows(t);
    let q = g.div_col(t, s);
    g.free(t);
    g.free(s);
    q
}

/// Eq. 17: the sharpened auxiliary target distribution `P` computed from a
/// concrete `Q` (no gradient — `P` is a fixed target in the KL).
pub fn target_distribution(q: &Tensor) -> Tensor {
    let (n, k) = q.shape();
    // f_k = soft cluster frequencies.
    let f = q.col_sums();
    let mut p = Tensor::zeros(n, k);
    let qs = q.as_slice();
    let fs = f.as_slice();
    // Each output row depends only on its own `Q` row and the shared
    // frequency vector, so rows sharpen independently across workers; the
    // per-row arithmetic is unchanged, keeping results identical to the
    // serial loop at any thread count.
    tensor::par::par_row_chunks_mut(p.as_mut_slice(), k, 2 * k, |lo, _hi, chunk| {
        for (row, prow) in chunk.chunks_exact_mut(k).enumerate() {
            let qrow = &qs[(lo + row) * k..][..k];
            let mut denom = 0.0f32;
            for j in 0..k {
                denom += qrow[j] * qrow[j] / fs[j].max(1e-12);
            }
            let denom = denom.max(1e-12);
            for j in 0..k {
                prow[j] = qrow[j] * qrow[j] / fs[j].max(1e-12) / denom;
            }
        }
    });
    p
}

/// Eq. 18 (one layer): `KL(P || Q)` with `P` constant. The constant
/// `sum p log p` entropy term is folded in on the CPU so the returned value
/// is the true KL (its gradient is unaffected).
pub fn self_training_loss(g: &mut Graph, q: Var, p: &Tensor) -> Var {
    let pid = g.constant_from(p);
    self_training_loss_id(g, q, pid)
}

/// [`self_training_loss`] against a target already interned in the graph's
/// constant arena — intern `P` by move (`Graph::constant`) and the DEC loss
/// costs zero tensor copies per batch.
pub fn self_training_loss_id(g: &mut Graph, q: Var, p: ConstId) -> Var {
    let log_q = g.log(q);
    let cross = g.mul_const_id(log_q, p);
    let neg_ce = g.sum_all(cross); // sum p log q
    let ce = g.neg(neg_ce);
    let entropy: f32 = g
        .constant_value(p)
        .as_slice()
        .iter()
        .map(|&x| if x > 0.0 { x * x.ln() } else { 0.0 })
        .sum();
    g.add_scalar(ce, entropy)
}

/// Eq. 20 (one pair of layers): `KL(Q_l || Q_{l+1})` over matching rows;
/// both arguments are differentiable.
pub fn consistency_loss(g: &mut Graph, q_l: Var, q_next: Var) -> Var {
    let log_l = g.log(q_l);
    let log_next = g.log(q_next);
    let diff = g.sub(log_l, log_next);
    let prod = g.mul(q_l, diff);
    g.sum_all(prod)
}

/// Eq. 21 (one layer): `-sum_{k,k'} ||c_k - c_k'||^2` — minimising pushes
/// centers apart. Kept bounded in practice by the small weight, gradient
/// clipping, and the few center-update iterations per round (Sec. III-F).
pub fn disparity_loss(g: &mut Graph, centers: Var) -> Var {
    let d2 = g.pairwise_sq_dist(centers, centers);
    let s = g.sum_all(d2);
    g.neg(s)
}

/// Eq. 19: cluster-aware masked embedding
/// `h_hat_v = sum_k q_vk * (h_v (*) sigmoid(pi_k))`.
pub fn masked_embedding<F: ForwardCtx>(
    g: &mut F,
    params: &Params,
    h: Var,
    q: Var,
    masks: &[ParamId],
) -> Var {
    // `ModelConfig` guarantees `n_clusters >= 1`, so the sum seeds from
    // cluster 0 and folds the rest — no Option accumulator, no panic path.
    let first = cluster_term(g, params, h, q, 0, masks[0]);
    masks
        .iter()
        .enumerate()
        .skip(1)
        .fold(first, |prev, (k, &mid)| {
            let term = cluster_term(g, params, h, q, k, mid);
            let next = g.add(prev, term);
            g.free(prev);
            g.free(term);
            next
        })
}

/// One cluster's contribution to Eq. 19: `q_vk * (h_v (*) sigmoid(pi_k))`.
fn cluster_term<F: ForwardCtx>(
    g: &mut F,
    params: &Params,
    h: Var,
    q: Var,
    k: usize,
    mid: ParamId,
) -> Var {
    let pi = g.param(params, mid);
    let mask = g.sigmoid(pi);
    g.free(pi);
    let masked = g.mul_row(h, mask);
    g.free(mask);
    let qk = g.col_slice(q, k);
    let term = g.mul_col(masked, qk);
    g.free(masked);
    g.free(qk);
    term
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn soft_assign_rows_are_stochastic_and_distance_ordered() {
        let mut g = Graph::new();
        let h = g.input(Tensor::from_rows(&[&[0.0, 0.0], &[2.9, 3.1]]));
        let c = g.input(Tensor::from_rows(&[&[0.0, 0.0], &[3.0, 3.0]]));
        let q = soft_assign(&mut g, h, c);
        let qv = g.value(q);
        for i in 0..2 {
            let s: f32 = qv.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(qv.get(0, 0) > qv.get(0, 1)); // point 0 nearer center 0
        assert!(qv.get(1, 1) > qv.get(1, 0));
    }

    #[test]
    fn target_distribution_sharpens_assignments() {
        // Eq. 17's stated purpose: improve purity / highlight confident
        // assignments — P must be at least as peaked as Q.
        let q = Tensor::from_rows(&[&[0.7, 0.3], &[0.6, 0.4], &[0.2, 0.8]]);
        let p = target_distribution(&q);
        for i in 0..3 {
            let qmax = q.row(i).iter().cloned().fold(0.0f32, f32::max);
            let am = q.row(i).iter().position(|&x| x == qmax).unwrap();
            assert!(
                p.get(i, am) >= q.get(i, am) - 1e-6,
                "row {i}: p {} < q {}",
                p.get(i, am),
                q.get(i, am)
            );
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn self_training_loss_is_true_kl() {
        let mut g = Graph::new();
        let qt = Tensor::from_rows(&[&[0.5, 0.5]]);
        let q = g.input(qt.clone());
        let p = Tensor::from_rows(&[&[0.9, 0.1]]);
        let loss = self_training_loss(&mut g, q, &p);
        // KL(P||Q) = 0.9 ln(0.9/0.5) + 0.1 ln(0.1/0.5)
        let expect = 0.9f32 * (0.9f32 / 0.5).ln() + 0.1 * (0.1f32 / 0.5).ln();
        assert!((g.value(loss).as_slice()[0] - expect).abs() < 1e-5);
        // KL(P||P) = 0.
        let mut g2 = Graph::new();
        let qp = g2.input(p.clone());
        let zero = self_training_loss(&mut g2, qp, &p);
        assert!(g2.value(zero).as_slice()[0].abs() < 1e-5);
    }

    #[test]
    fn consistency_loss_zero_iff_equal() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_rows(&[&[0.3, 0.7]]));
        let b = g.input(Tensor::from_rows(&[&[0.3, 0.7]]));
        let l_eq = consistency_loss(&mut g, a, b);
        assert!(g.value(l_eq).as_slice()[0].abs() < 1e-6);
        let c = g.input(Tensor::from_rows(&[&[0.7, 0.3]]));
        let l_ne = consistency_loss(&mut g, a, c);
        assert!(g.value(l_ne).as_slice()[0] > 0.0);
    }

    #[test]
    fn disparity_loss_decreases_as_centers_spread() {
        let mut g = Graph::new();
        let near = g.input(Tensor::from_rows(&[&[0.0, 0.0], &[0.1, 0.0]]));
        let far = g.input(Tensor::from_rows(&[&[0.0, 0.0], &[5.0, 0.0]]));
        let ln = disparity_loss(&mut g, near);
        let lf = disparity_loss(&mut g, far);
        assert!(g.value(lf).as_slice()[0] < g.value(ln).as_slice()[0]);
    }

    #[test]
    fn masked_embedding_blends_cluster_masks() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut params = Params::new();
        let ca = CaParams::init(&mut params, 1, 3, 2, &mut rng);
        // Make mask 0 pass-through-ish (sigmoid(0) = 0.5 everywhere) and
        // mask 1 strongly gated on the first coordinate.
        *params.value_mut(ca.masks[0][1]) = Tensor::from_rows(&[&[8.0, -8.0, -8.0]]);
        let mut g = Graph::new();
        let h = g.input(Tensor::from_rows(&[&[1.0, 1.0, 1.0]]));
        // Fully assigned to cluster 1.
        let q = g.input(Tensor::from_rows(&[&[0.0, 1.0]]));
        let hm = masked_embedding(&mut g, &params, h, q, &ca.masks[0]);
        let row = g.value(hm).row(0).to_vec();
        assert!(row[0] > 0.99, "first coord passes: {row:?}");
        assert!(row[1] < 0.01 && row[2] < 0.01, "others gated: {row:?}");
    }

    #[test]
    fn gradients_reach_centers_and_masks() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut params = Params::new();
        let ca = CaParams::init(&mut params, 1, 4, 3, &mut rng);
        let mut g = Graph::new();
        let h = g.input(Tensor::from_rows(&[
            &[0.1, 0.2, 0.3, 0.4],
            &[0.4, 0.3, 0.2, 0.1],
        ]));
        let centers = g.param(&params, ca.centers[0]);
        let q = soft_assign(&mut g, h, centers);
        let p = target_distribution(g.value(q));
        let st = self_training_loss(&mut g, q, &p);
        let hm = masked_embedding(&mut g, &params, h, q, &ca.masks[0]);
        let l2 = g.l2(hm);
        let loss = g.add(st, l2);
        g.backward(loss);
        let with_grads = g
            .bindings()
            .iter()
            .filter(|(_, v)| g.grad(*v).is_some())
            .count();
        assert!(
            with_grads >= 4,
            "centers + masks should all get gradients, got {with_grads}"
        );
    }
}
