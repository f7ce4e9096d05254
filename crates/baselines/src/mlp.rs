//! Multi-layer perceptron regressor — the predictive head placed on top of
//! unsupervised embeddings (metapath2vec, hin2vec; Sec. IV-A2 uses "a three
//! layer MLP with equal sizes") and the fine-tuning head of the BERT
//! baseline.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::{Graph, Initializer, Optimizer, ParamId, Params, Tensor, Var};

/// A plain fully-connected regressor with ReLU activations.
#[derive(Clone, Debug)]
pub struct Mlp {
    pub params: Params,
    weights: Vec<ParamId>,
    biases: Vec<ParamId>,
}

impl Mlp {
    /// `dims` lists layer widths from input to output, e.g. `[64, 64, 64, 1]`
    /// for the paper's three-layer equal-size head.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut params = Params::new();
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for i in 0..dims.len() - 1 {
            weights.push(params.add_init(
                format!("mlp.w{i}"),
                dims[i],
                dims[i + 1],
                Initializer::XavierUniform,
                &mut rng,
            ));
            biases.push(params.add_init(
                format!("mlp.b{i}"),
                1,
                dims[i + 1],
                Initializer::Zeros,
                &mut rng,
            ));
        }
        Mlp { params, weights, biases }
    }

    /// Builds the forward computation for a batch `x` (`n x in_dim`).
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        let mut h = x;
        for i in 0..self.weights.len() {
            let w = g.param(&self.params, self.weights[i]);
            let b = g.param(&self.params, self.biases[i]);
            h = g.linear(h, w, b);
            if i + 1 < self.weights.len() {
                h = g.relu(h);
            }
        }
        h
    }

    /// Trains with mini-batch Adam on MSE. Returns final-epoch mean loss.
    pub fn fit(
        &mut self,
        x: &Tensor,
        y: &[f32],
        steps: usize,
        batch: usize,
        lr: f32,
        seed: u64,
    ) -> f32 {
        assert_eq!(x.rows(), y.len());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut opt = Optimizer::adam(lr);
        let mut last = f32::NAN;
        let mut g = Graph::new();
        for _ in 0..steps {
            let idx: Vec<usize> =
                (0..batch.min(y.len())).map(|_| rng.gen_range(0..y.len())).collect();
            let xb = x.gather_rows(&idx);
            let yb = Tensor::col_vec(idx.iter().map(|&i| y[i]).collect());
            g.reset();
            let xv = g.input(xb);
            let pred = self.forward(&mut g, xv);
            let loss = g.mse(pred, &yb);
            last = g.value(loss).as_slice()[0];
            g.backward(loss);
            opt.step_clipped(&mut self.params, &mut g, Some(5.0));
        }
        last
    }

    /// Predicts a column of outputs for `x`.
    pub fn predict(&self, x: &Tensor) -> Vec<f32> {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let pred = self.forward(&mut g, xv);
        g.value(pred).as_slice().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_linear_function() {
        // y = 3 x0 - 2 x1 + 1
        let n = 200;
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut data = Vec::with_capacity(n * 2);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            data.extend([a, b]);
            y.push(3.0 * a - 2.0 * b + 1.0);
        }
        let x = Tensor::from_vec(n, 2, data);
        let mut mlp = Mlp::new(&[2, 16, 1], 1);
        mlp.fit(&x, &y, 500, 64, 1e-2, 2);
        let preds = mlp.predict(&x);
        let rmse = catehgn::rmse(&preds, &y);
        assert!(rmse < 0.25, "rmse {rmse}");
    }

    #[test]
    fn learns_a_nonlinear_function() {
        // y = |x| needs the hidden ReLU layer.
        let n = 300;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let xs: Vec<f32> = (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let y: Vec<f32> = xs.iter().map(|v| v.abs()).collect();
        let x = Tensor::from_vec(n, 1, xs);
        let mut mlp = Mlp::new(&[1, 16, 16, 1], 4);
        mlp.fit(&x, &y, 800, 64, 1e-2, 5);
        let rmse = catehgn::rmse(&mlp.predict(&x), &y);
        assert!(rmse < 0.25, "rmse {rmse}");
    }

    #[test]
    fn shapes_and_determinism() {
        let mlp = Mlp::new(&[4, 8, 8, 1], 7);
        let x = Tensor::full(3, 4, 1.0);
        let (a, b) = (mlp.predict(&x), mlp.predict(&x));
        assert_eq!(a.len(), 3);
        assert_eq!(a, b);
    }
}
