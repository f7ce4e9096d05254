//! R-GCN (Schlichtkrull et al., ESWC 2018): relational GCN with an
//! *exclusive* transformation matrix per link type — the over-parameterised
//! design CATE-HGN's shared-W_a composition is contrasted against
//! (Sec. III-C1).

use crate::common::{
    build_batch, edge_idx, gather_seed_rows, mean_norm_col, BatchInputs, BatchRegressor, GnnConfig,
};
use dblp_sim::Dataset;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::{EdgeRows, Graph, Initializer, ParamId, Params, Var};

/// Relational GCN regressor.
#[derive(Debug)]
pub struct Rgcn {
    cfg: GnnConfig,
    params: Params,
    w_in: ParamId,
    b_in: ParamId,
    /// `w_rel[layer][link_type]` — the per-relation matrices.
    w_rel: Vec<Vec<ParamId>>,
    /// Self-loop transformation per layer.
    w_self: Vec<ParamId>,
    w_out: ParamId,
    b_out: ParamId,
}

impl Rgcn {
    pub fn new(cfg: GnnConfig, feat_dim: usize, n_link_types: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut params = Params::new();
        let d = cfg.dim;
        let w_in = params.add_init("in.w", feat_dim, d, Initializer::XavierUniform, &mut rng);
        let b_in = params.add_init("in.b", 1, d, Initializer::Zeros, &mut rng);
        let w_rel = (0..cfg.layers)
            .map(|l| {
                (0..n_link_types)
                    .map(|t| {
                        params.add_init(
                            format!("l{l}.rel{t}"),
                            d,
                            d,
                            Initializer::XavierUniform,
                            &mut rng,
                        )
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
        Rgcn {
            cfg,
            params,
            w_in,
            b_in,
            w_rel,
            w_self,
            w_out,
            b_out,
        }
    }

    /// Number of scalar weights — the per-relation cost the test
    /// `model::tests::shared_transformation_keeps_per_link_type_cost_below_rgcn`
    /// holds CATE-HGN's shared transformation under.
    pub fn num_weights(&self) -> usize {
        self.params.num_weights()
    }
}

impl BatchRegressor for Rgcn {
    const NAME: &'static str = "R-GCN";

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
        // Input encoding (shared across node types — R-GCN is feature-typed
        // through its relations, not its inputs).
        let BatchInputs { seeds, blocks, x } =
            build_batch(g, ds, papers, self.cfg.layers, self.cfg.fanout, rng);
        let w_in = g.param(&self.params, self.w_in);
        let b_in = g.param(&self.params, self.b_in);
        let lin = g.linear(x, w_in, b_in);
        let mut h = g.relu(lin);

        for l in 0..self.cfg.layers {
            let block = &blocks[self.cfg.layers - 1 - l];
            let n_dst = block.dst_nodes.len();
            // Self-loop term.
            let mut prev = g.scratch_idx();
            prev.extend(block.dst_in_src.iter().map(|&p| p as usize));
            let h_self = g.gather_rows(h, prev);
            let ws = g.param(&self.params, self.w_self[l]);
            let mut acc = g.matmul(h_self, ws);
            // Per-relation mean aggregation (1/c_{v,r} normaliser).
            for (lt, edges) in block.edges_by_type.iter().enumerate() {
                if edges.is_empty() {
                    continue;
                }
                let idx = edge_idx(g, block, edges);
                g.recycle_idx(idx.prev);
                let nv = mean_norm_col(g, &idx.dst);
                let h_u = g.gather_rows(h, idx.src);
                let w = g.param(&self.params, self.w_rel[l][lt]);
                let msg = g.matmul(h_u, w);
                let agg = g.edge_aggregate([(msg, EdgeRows::Own)], nv, idx.dst, n_dst);
                acc = g.add(acc, agg);
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

    #[test]
    fn trains_and_predicts_finite() {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let mut m = Rgcn::new(
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
    fn per_relation_weights_dominate_parameter_count() {
        // The over-parameterisation claim: per-relation matrices scale with
        // the number of link types.
        let small = Rgcn::new(GnnConfig::test_tiny(), 8, 2);
        let large = Rgcn::new(GnnConfig::test_tiny(), 8, 7);
        assert!(large.num_weights() > small.num_weights());
        let per_rel = (large.num_weights() - small.num_weights()) / 5;
        assert_eq!(per_rel, GnnConfig::test_tiny().layers * 8 * 8);
    }
}
