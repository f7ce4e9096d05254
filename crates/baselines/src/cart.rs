//! CART regression trees (Loh 2011) — the predictive model behind the
//! traditional citation-prediction baselines CCP and CPDF (Sec. IV-A2).
//!
//! Variance-reduction splitting with quantile-candidate thresholds, depth
//! and leaf-size bounds.

use tensor::Tensor;

/// Tree growth bounds.
#[derive(Clone, Copy, Debug)]
pub struct CartConfig {
    pub max_depth: usize,
    pub min_leaf: usize,
    /// Candidate thresholds per feature (quantiles of the node's values).
    pub n_thresholds: usize,
}

impl Default for CartConfig {
    fn default() -> Self {
        CartConfig { max_depth: 8, min_leaf: 10, n_thresholds: 16 }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf(f32),
    Split { feat: usize, thresh: f32, left: usize, right: usize },
}

/// A fitted regression tree.
#[derive(Clone, Debug)]
pub struct Cart {
    nodes: Vec<Node>,
    n_features: usize,
}

impl Cart {
    /// Fits on `x` (`n x f`) against targets `y`.
    pub fn fit(x: &Tensor, y: &[f32], cfg: CartConfig) -> Self {
        assert_eq!(x.rows(), y.len(), "one target per row");
        assert!(!y.is_empty(), "cannot fit on empty data");
        let mut tree = Cart { nodes: Vec::new(), n_features: x.cols() };
        let idx: Vec<usize> = (0..y.len()).collect();
        tree.grow(x, y, idx, 0, &cfg);
        tree
    }

    fn grow(&mut self, x: &Tensor, y: &[f32], idx: Vec<usize>, depth: usize, cfg: &CartConfig) -> usize {
        let mean = idx.iter().map(|&i| y[i]).sum::<f32>() / idx.len() as f32;
        if depth >= cfg.max_depth || idx.len() < 2 * cfg.min_leaf {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        }
        let base_sse: f32 = idx.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();
        let mut best: Option<(usize, f32, f32)> = None; // (feat, thresh, sse)
        let mut vals: Vec<f32> = Vec::with_capacity(idx.len());
        for feat in 0..self.n_features {
            vals.clear();
            vals.extend(idx.iter().map(|&i| x.get(i, feat)));
            let mut sorted = vals.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            for q in 1..=cfg.n_thresholds {
                let pos = q * (sorted.len() - 1) / (cfg.n_thresholds + 1);
                let thresh = sorted[pos];
                // One pass: left/right sums for SSE decomposition.
                let (mut nl, mut sl, mut ql) = (0usize, 0.0f32, 0.0f32);
                let (mut nr, mut sr, mut qr) = (0usize, 0.0f32, 0.0f32);
                for (&i, &v) in idx.iter().zip(&vals) {
                    if v <= thresh {
                        nl += 1;
                        sl += y[i];
                        ql += y[i] * y[i];
                    } else {
                        nr += 1;
                        sr += y[i];
                        qr += y[i] * y[i];
                    }
                }
                if nl < cfg.min_leaf || nr < cfg.min_leaf {
                    continue;
                }
                let sse = (ql - sl * sl / nl as f32) + (qr - sr * sr / nr as f32);
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((feat, thresh, sse));
                }
            }
        }
        match best {
            Some((feat, thresh, sse)) if sse < base_sse - 1e-9 => {
                let (li, ri): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| x.get(i, feat) <= thresh);
                let slot = self.nodes.len();
                self.nodes.push(Node::Leaf(mean)); // placeholder
                let left = self.grow(x, y, li, depth + 1, cfg);
                let right = self.grow(x, y, ri, depth + 1, cfg);
                self.nodes[slot] = Node::Split { feat, thresh, left, right };
                slot
            }
            _ => {
                self.nodes.push(Node::Leaf(mean));
                self.nodes.len() - 1
            }
        }
    }

    /// Predicts one feature row.
    pub fn predict_row(&self, row: &[f32]) -> f32 {
        debug_assert_eq!(row.len(), self.n_features);
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf(v) => return *v,
                Node::Split { feat, thresh, left, right } => {
                    cur = if row[*feat] <= *thresh { *left } else { *right };
                }
            }
        }
    }

    /// Predicts every row of `x`.
    pub fn predict(&self, x: &Tensor) -> Vec<f32> {
        (0..x.rows()).map(|r| self.predict_row(x.row(r))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Depth of the fitted tree, in node levels.
    fn depth(t: &Cart) -> usize {
        fn d(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf(_) => 1,
                Node::Split { left, right, .. } => 1 + d(nodes, *left).max(d(nodes, *right)),
            }
        }
        if t.nodes.is_empty() { 0 } else { d(&t.nodes, 0) }
    }

    #[test]
    fn fits_a_step_function_exactly() {
        // y = 10 if x > 0.5 else 2 — one split suffices.
        let n = 100;
        let xs: Vec<f32> = (0..n).map(|i| i as f32 / n as f32).collect();
        let y: Vec<f32> = xs.iter().map(|&v| if v > 0.5 { 10.0 } else { 2.0 }).collect();
        let x = Tensor::from_vec(n, 1, xs);
        let t = Cart::fit(&x, &y, CartConfig { max_depth: 3, min_leaf: 2, n_thresholds: 64 });
        let preds = t.predict(&x);
        let rmse = catehgn::rmse(&preds, &y);
        assert!(rmse < 0.5, "rmse {rmse}");
        // max_depth split levels yield at most max_depth + 1 node levels.
        assert!(depth(&t) <= 4);
    }

    #[test]
    fn respects_depth_and_leaf_bounds() {
        let n = 64;
        let xs: Vec<f32> = (0..n).map(|i| (i % 13) as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let x = Tensor::from_vec(n, 1, xs);
        let t = Cart::fit(&x, &y, CartConfig { max_depth: 2, min_leaf: 4, n_thresholds: 8 });
        assert!(depth(&t) <= 3);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x = Tensor::from_vec(20, 2, (0..40).map(|i| i as f32).collect());
        let y = vec![5.0; 20];
        let t = Cart::fit(&x, &y, CartConfig::default());
        assert_eq!(t.nodes.len(), 1);
        assert_eq!(t.predict_row(&[0.0, 0.0]), 5.0);
    }

    #[test]
    fn multivariate_split_finds_informative_feature() {
        // Feature 1 is informative, feature 0 is noise.
        let n = 200;
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let noise = ((i * 37) % 100) as f32 / 100.0;
            let signal = (i % 2) as f32;
            data.extend([noise, signal]);
            y.push(signal * 8.0 + 1.0);
        }
        let x = Tensor::from_vec(n, 2, data);
        let t = Cart::fit(&x, &y, CartConfig::default());
        let r = catehgn::rmse(&t.predict(&x), &y);
        assert!(r < 0.5, "rmse {r}");
    }

    #[test]
    #[should_panic(expected = "cannot fit on empty data")]
    fn empty_fit_panics() {
        let x = Tensor::zeros(0, 2);
        Cart::fit(&x, &[], CartConfig::default());
    }
}
