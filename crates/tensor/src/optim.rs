//! The Adam optimizer, operating on a [`Params`] store using the
//! gradients recorded in a [`Graph`] after `backward`.

use crate::graph::Graph;
use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// Adam (Kingma & Ba) configuration and state. `t` counts completed
/// steps for bias correction.
#[derive(Clone, Debug)]
pub struct Optimizer {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
}

impl Optimizer {
    /// Adam with the conventional defaults.
    pub fn adam(lr: f32) -> Self {
        Optimizer {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (e.g. for decay schedules).
    pub fn set_lr(&mut self, new_lr: f32) {
        self.lr = new_lr;
    }

    /// Completed update steps (the bias-correction counter).
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Restores the step counter (checkpoint resume).
    pub fn set_steps(&mut self, steps: u64) {
        self.t = steps;
    }

    /// Collects the gradients of all parameters bound in `graph` (summing
    /// over repeated bindings), optionally clips the global norm, and
    /// applies one update step. Returns the pre-clip global gradient norm.
    ///
    /// `graph` is borrowed mutably only to route the collected gradient
    /// buffers through its pool; values and gradients are not modified.
    pub fn step(&mut self, params: &mut Params, graph: &mut Graph) -> f32 {
        self.step_clipped(params, graph, None)
    }

    /// Like [`Optimizer::step_clipped`], but only the parameters in `allow`
    /// are updated — used for alternating-phase training where one phase
    /// owns a subset of the parameters (e.g. cluster centers).
    pub fn step_filtered(
        &mut self,
        params: &mut Params,
        graph: &mut Graph,
        max_norm: Option<f32>,
        allow: &std::collections::BTreeSet<ParamId>,
    ) -> f32 {
        let grads = graph.collect_param_grads();
        let mut kept = Vec::with_capacity(grads.len());
        for (pid, grad) in grads {
            if allow.contains(&pid) {
                kept.push((pid, grad));
            } else {
                graph.recycle(grad);
            }
        }
        self.apply(params, kept, max_norm, graph)
    }

    /// Like [`Optimizer::step`], clipping the global gradient norm to
    /// `max_norm` when provided.
    pub fn step_clipped(
        &mut self,
        params: &mut Params,
        graph: &mut Graph,
        max_norm: Option<f32>,
    ) -> f32 {
        let grads = graph.collect_param_grads();
        self.apply(params, grads, max_norm, graph)
    }

    /// Like [`Optimizer::step_clipped`], but scans every collected gradient
    /// with the vectorized finite check **before** touching any state. On a
    /// non-finite gradient the step is abandoned — parameters, moments, and
    /// the Adam step counter are untouched — and the offending parameter id
    /// is returned. On the clean path the arithmetic is bitwise-identical to
    /// the unguarded step.
    pub fn step_clipped_guarded(
        &mut self,
        params: &mut Params,
        graph: &mut Graph,
        max_norm: Option<f32>,
    ) -> Result<f32, ParamId> {
        let grads = graph.collect_param_grads();
        let grads = Self::guard(grads, graph)?;
        Ok(self.apply(params, grads, max_norm, graph))
    }

    /// Guarded step over an explicitly supplied gradient list — the
    /// batch-parallel training path folds per-lane gradients itself (in
    /// fixed lane order) and hands the sums here. `grads` must be sorted
    /// by parameter id, matching what `collect_param_grads` produces, so
    /// the clip norm and updates are bitwise-identical to a serial step
    /// over the same sums. `graph` only recycles the buffers.
    pub fn step_grads_clipped_guarded(
        &mut self,
        params: &mut Params,
        grads: Vec<(ParamId, Tensor)>,
        max_norm: Option<f32>,
        graph: &mut Graph,
    ) -> Result<f32, ParamId> {
        let grads = Self::guard(grads, graph)?;
        Ok(self.apply(params, grads, max_norm, graph))
    }

    /// Guarded variant of [`Optimizer::step_filtered`]; see
    /// [`Optimizer::step_clipped_guarded`] for the guarantee.
    pub fn step_filtered_guarded(
        &mut self,
        params: &mut Params,
        graph: &mut Graph,
        max_norm: Option<f32>,
        allow: &std::collections::BTreeSet<ParamId>,
    ) -> Result<f32, ParamId> {
        let grads = graph.collect_param_grads();
        let mut kept = Vec::with_capacity(grads.len());
        for (pid, grad) in grads {
            if allow.contains(&pid) {
                kept.push((pid, grad));
            } else {
                graph.recycle(grad);
            }
        }
        let kept = Self::guard(kept, graph)?;
        Ok(self.apply(params, kept, max_norm, graph))
    }

    /// Scans `grads` for non-finite values. On failure every buffer is
    /// recycled back into the graph pool and the first offending parameter
    /// id is returned.
    fn guard(
        grads: Vec<(ParamId, Tensor)>,
        graph: &mut Graph,
    ) -> Result<Vec<(ParamId, Tensor)>, ParamId> {
        let bad = grads
            .iter()
            .find(|(_, g)| !crate::finite::is_all_finite(g.as_slice()))
            .map(|(pid, _)| *pid);
        match bad {
            None => Ok(grads),
            Some(pid) => {
                for (_, g) in grads {
                    graph.recycle(g);
                }
                Err(pid)
            }
        }
    }

    fn apply(
        &mut self,
        params: &mut Params,
        grads: Vec<(ParamId, Tensor)>,
        max_norm: Option<f32>,
        graph: &mut Graph,
    ) -> f32 {
        // `grads` arrives sorted by parameter id: a deterministic order
        // keeps the clip norm (a float sum) stable to the last ulp.
        let mut total_sq = 0.0f32;
        for (_, g) in &grads {
            total_sq += g.norm_sq();
        }
        let norm = total_sq.sqrt();
        let clip = match max_norm {
            Some(m) if norm > m && norm > 0.0 => m / norm,
            _ => 1.0,
        };
        self.t += 1;
        let Optimizer {
            lr,
            beta1,
            beta2,
            eps,
            t,
        } = *self;
        let bc1 = 1.0 - beta1.powi(t as i32);
        let bc2 = 1.0 - beta2.powi(t as i32);
        for (id, mut grad) in grads {
            grad.scale_assign(clip);
            let (value, m, v) = params.moments_mut(id);
            m.scale_assign(beta1);
            m.add_scaled(&grad, 1.0 - beta1);
            v.scale_assign(beta2);
            // Fused `v += (1 - beta2) * grad^2`: same rounding as
            // materialising grad^2 first, without the temporary.
            let c2 = 1.0 - beta2;
            for (vi, &gi) in v.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                *vi += c2 * (gi * gi);
            }
            for ((w, mi), vi) in value
                .as_mut_slice()
                .iter_mut()
                .zip(m.as_slice())
                .zip(v.as_slice())
            {
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
            graph.recycle(grad);
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::tensor::Tensor;

    /// Minimises `(w - 3)^2` and checks convergence.
    fn converge(mut opt: Optimizer, steps: usize) -> f32 {
        let mut params = Params::new();
        let w = params.add("w", Tensor::from_vec(1, 1, vec![0.0]));
        for _ in 0..steps {
            let mut g = Graph::new();
            let wv = g.param(&params, w);
            let target = Tensor::from_vec(1, 1, vec![3.0]);
            let loss = g.mse(wv, &target);
            g.backward(loss);
            opt.step(&mut params, &mut g);
        }
        params.value(w).as_slice()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = converge(Optimizer::adam(0.1), 400);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn repeated_bindings_sum_gradients() {
        // loss = sum(w) + sum(w) -> grad wrt w is 2 per element.
        let mut params = Params::new();
        let w = params.add("w", Tensor::ones(1, 2));
        let mut g = Graph::new();
        let w1 = g.param(&params, w);
        let w2 = g.param(&params, w);
        let s1 = g.sum_all(w1);
        let s2 = g.sum_all(w2);
        let loss = g.add(s1, s2);
        g.backward(loss);
        let grads = g.collect_param_grads();
        assert_eq!(grads.len(), 1, "one entry per parameter, not per binding");
        assert_eq!(grads[0].0, w);
        assert_eq!(grads[0].1.as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn guarded_step_matches_unguarded_bitwise() {
        let build = |params: &Params, w| {
            let mut g = Graph::new();
            let wv = g.param(params, w);
            let target = Tensor::from_vec(1, 2, vec![3.0, -2.0]);
            let loss = g.mse(wv, &target);
            g.backward(loss);
            g
        };
        let mut pa = Params::new();
        let wa = pa.add("w", Tensor::from_vec(1, 2, vec![0.5, 1.5]));
        let mut pb = pa.clone();
        let mut oa = Optimizer::adam(0.05);
        let mut ob = oa.clone();
        for _ in 0..3 {
            let mut ga = build(&pa, wa);
            let mut gb = build(&pb, wa);
            let na = oa.step_clipped(&mut pa, &mut ga, Some(1.0));
            let nb = ob
                .step_clipped_guarded(&mut pb, &mut gb, Some(1.0))
                .unwrap();
            assert_eq!(na.to_bits(), nb.to_bits());
        }
        let bits = |p: &Params| {
            p.value(wa)
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&pa), bits(&pb));
        assert_eq!(oa.steps(), ob.steps());
    }

    #[test]
    fn guarded_step_rejects_nan_without_mutation() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::from_vec(1, 2, vec![0.5, 1.5]));
        let before = params.value(w).as_slice().to_vec();
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let scaled = g.scale(wv, f32::INFINITY); // grad = inf
        let loss = g.sum_all(scaled);
        g.backward(loss);
        let mut opt = Optimizer::adam(0.05);
        let err = opt.step_clipped_guarded(&mut params, &mut g, None);
        assert_eq!(err, Err(w));
        assert_eq!(params.value(w).as_slice(), &before[..]);
        assert_eq!(
            opt.steps(),
            0,
            "rejected step must not advance Adam's counter"
        );
    }

    #[test]
    fn clipping_caps_global_norm() {
        // The first moment after one step is `(1 - beta1) * clip * grad`,
        // so it shows the gradient Adam was handed.
        let first_moment = |max_norm| {
            let mut params = Params::new();
            let w = params.add("w", Tensor::from_vec(1, 2, vec![0.0, 0.0]));
            let mut g = Graph::new();
            let wv = g.param(&params, w);
            let big = g.scale(wv, 1000.0);
            let shifted = g.add_scalar(big, -1000.0);
            let sq = g.square(shifted);
            let loss = g.sum_all(sq);
            g.backward(loss);
            let norm = Optimizer::adam(1e-3).step_clipped(&mut params, &mut g, max_norm);
            (norm, params.moments(w).0.norm_sq().sqrt())
        };
        let (raw, unclipped) = first_moment(None);
        assert!(raw > 1.0, "raw norm was huge: {raw}");
        assert!((unclipped - 0.1 * raw).abs() <= 1e-3 * raw);
        let (norm, clipped) = first_moment(Some(1.0));
        assert_eq!(
            norm.to_bits(),
            raw.to_bits(),
            "the pre-clip norm is returned"
        );
        assert!(
            (clipped - 0.1).abs() < 1e-6,
            "clipped moment norm {clipped}"
        );
    }
}
