//! HGCN (Zhu et al., KDD 2020): heterogeneous GCN that models the
//! *compatibility* among different types of links — a single shared
//! projection per layer, with a learnable per-link-type compatibility
//! coefficient gating each relation's contribution.

use crate::common::{
    build_batch, edge_idx, gather_seed_rows, mean_norm_col, BatchInputs, BatchRegressor, GnnConfig,
};
use dblp_sim::Dataset;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::{EdgeRows, Graph, Initializer, ParamId, Params, Var};

/// Compatibility-gated heterogeneous GCN regressor.
#[derive(Debug)]
pub struct Hgcn {
    cfg: GnnConfig,
    params: Params,
    w_in: ParamId,
    b_in: ParamId,
    /// Shared projection per layer.
    w: Vec<ParamId>,
    /// Per layer, per link type: scalar compatibility (passed through
    /// sigmoid).
    compat: Vec<Vec<ParamId>>,
    w_self: Vec<ParamId>,
    w_out: ParamId,
    b_out: ParamId,
}

impl Hgcn {
    pub fn new(cfg: GnnConfig, feat_dim: usize, n_link_types: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut params = Params::new();
        let d = cfg.dim;
        let w_in = params.add_init("in.w", feat_dim, d, Initializer::XavierUniform, &mut rng);
        let b_in = params.add_init("in.b", 1, d, Initializer::Zeros, &mut rng);
        let w = (0..cfg.layers)
            .map(|l| {
                params.add_init(
                    format!("l{l}.w"),
                    d,
                    d,
                    Initializer::XavierUniform,
                    &mut rng,
                )
            })
            .collect();
        let compat = (0..cfg.layers)
            .map(|l| {
                (0..n_link_types)
                    .map(|t| {
                        params.add_init(format!("l{l}.c{t}"), 1, 1, Initializer::Zeros, &mut rng)
                    })
                    .collect()
            })
            .collect();
        let w_self = (0..cfg.layers)
            .map(|l| {
                params.add_init(
                    format!("l{l}.self"),
                    d,
                    d,
                    Initializer::XavierUniform,
                    &mut rng,
                )
            })
            .collect();
        let w_out = params.add_init("out.w", d, 1, Initializer::XavierUniform, &mut rng);
        let b_out = params.add_init("out.b", 1, 1, Initializer::Zeros, &mut rng);
        Hgcn {
            cfg,
            params,
            w_in,
            b_in,
            w,
            compat,
            w_self,
            w_out,
            b_out,
        }
    }
}

impl BatchRegressor for Hgcn {
    const NAME: &'static str = "HGCN";

    fn cfg(&self) -> &GnnConfig {
        &self.cfg
    }

    fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    fn batch_forward<R: Rng>(
        &self,
        g: &mut Graph,
        ds: &Dataset,
        papers: &[usize],
        rng: &mut R,
    ) -> Var {
        let BatchInputs { seeds, blocks, x } =
            build_batch(g, ds, papers, self.cfg.layers, self.cfg.fanout, rng);
        let w_in = g.param(&self.params, self.w_in);
        let b_in = g.param(&self.params, self.b_in);
        let lin = g.linear(x, w_in, b_in);
        let mut h = g.relu(lin);

        for l in 0..self.cfg.layers {
            let block = &blocks[self.cfg.layers - 1 - l];
            let n_dst = block.dst_nodes.len();
            let w = g.param(&self.params, self.w[l]);
            let wh = g.matmul(h, w);
            let mut prev = g.scratch_idx();
            prev.extend(block.dst_in_src.iter().map(|&p| p as usize));
            let h_self = g.gather_rows(h, prev);
            let ws = g.param(&self.params, self.w_self[l]);
            let mut acc = g.matmul(h_self, ws);
            for (lt, edges) in block.edges_by_type.iter().enumerate() {
                if edges.is_empty() {
                    continue;
                }
                let idx = edge_idx(g, block, edges);
                g.recycle_idx(idx.prev);
                let nv = mean_norm_col(g, &idx.dst);
                let agg = g.edge_aggregate([(wh, EdgeRows::Gather(idx.src))], nv, idx.dst, n_dst);
                // Compatibility gate: scale the relation's aggregate by a
                // learnable sigmoid scalar, broadcast as a 1 x d row.
                let c_raw = g.param(&self.params, self.compat[l][lt]);
                let c = g.sigmoid(c_raw);
                // Broadcast the 1x1 gate across a 1 x d row.
                let tile = g.input_with(1, self.cfg.dim, |row| row.fill(1.0));
                let c_row = g.matmul(c, tile);
                let gated = g.mul_row(agg, c_row);
                acc = g.add(acc, gated);
            }
            h = g.relu(acc);
        }
        let hb = gather_seed_rows(g, &blocks[0], &seeds, h);
        let w_out = g.param(&self.params, self.w_out);
        let b_out = g.param(&self.params, self.b_out);
        g.linear(hb, w_out, b_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::CitationModel;
    use dblp_sim::WorldConfig;
    use tensor::Tensor;

    #[test]
    fn trains_and_predicts_finite() {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let mut m = Hgcn::new(
            GnnConfig::test_tiny(),
            ds.features.cols(),
            ds.graph.schema().num_link_types(),
        );
        m.fit(&ds);
        let preds = m.predict(&ds, &ds.split.test);
        assert_eq!(preds.len(), ds.split.test.len());
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn compatibility_gates_receive_gradients() {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let m = Hgcn::new(
            GnnConfig::test_tiny(),
            ds.features.cols(),
            ds.graph.schema().num_link_types(),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut g = Graph::new();
        let batch: Vec<usize> = ds.split.train.iter().take(8).copied().collect();
        let pred = m.batch_forward(&mut g, &ds, &batch, &mut rng);
        let y = Tensor::col_vec(ds.labels_of(&batch));
        let loss = g.mse(pred, &y);
        g.backward(loss);
        let gated = g
            .bindings()
            .iter()
            .filter(|(pid, v)| m.compat.iter().flatten().any(|c| c == pid) && g.grad(*v).is_some())
            .count();
        assert!(gated > 0, "at least one compatibility gate must train");
    }
}
