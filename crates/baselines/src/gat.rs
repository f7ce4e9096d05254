//! GAT (Veličković et al., ICLR 2018) on the *homogenised* network: all
//! node/link types are flattened away, representing "the state-of-the-art
//! model that only uses the graph topology of a homogeneous network"
//! (Sec. IV-A2). Its Table II weakness comes precisely from this type
//! blindness.

use crate::common::{
    build_batch, edge_idx, gather_seed_rows, merged_edges_with_self_loops, pair_attention,
    pair_attention_params, BatchInputs, BatchRegressor, GnnConfig,
};
use dblp_sim::Dataset;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::{EdgeRows, Graph, Initializer, ParamId, Params, Var};

/// Homogeneous multi-head graph attention regressor.
#[derive(Debug)]
pub struct Gat {
    cfg: GnnConfig,
    params: Params,
    w_in: ParamId,
    b_in: ParamId,
    /// Per layer: shared projection W and the heads' attention vectors
    /// over `[Wh_v ‖ Wh_u]`, split (`d x H` halves).
    w: Vec<ParamId>,
    att: Vec<[ParamId; 2]>,
    w_out: ParamId,
    b_out: ParamId,
}

impl Gat {
    pub fn new(cfg: GnnConfig, feat_dim: usize, heads: usize) -> Self {
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
        let att = (0..cfg.layers)
            .map(|l| pair_attention_params(&mut params, &format!("l{l}.a"), d, heads, &mut rng))
            .collect();
        let w_out = params.add_init("out.w", d, 1, Initializer::XavierUniform, &mut rng);
        let b_out = params.add_init("out.b", 1, 1, Initializer::Zeros, &mut rng);
        Gat {
            cfg,
            params,
            w_in,
            b_in,
            w,
            att,
            w_out,
            b_out,
        }
    }
}

impl BatchRegressor for Gat {
    const NAME: &'static str = "GAT";

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
            let edges = merged_edges_with_self_loops(block);
            let idx = edge_idx(g, block, &edges);
            let w = g.param(&self.params, self.w[l]);
            let wh = g.matmul(h, w);
            // Head-averaged attention weights.
            let u_rows = EdgeRows::Gather(g.scratch_idx_from(&idx.src));
            let seg = g.scratch_idx_from(&idx.dst);
            let alpha = pair_attention(
                g,
                &self.params,
                self.att[l],
                (wh, EdgeRows::Gather(idx.prev)),
                (wh, u_rows),
                seg,
                n_dst,
            );
            let agg = g.edge_aggregate([(wh, EdgeRows::Gather(idx.src))], alpha, idx.dst, n_dst);
            h = g.relu(agg);
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
        let mut m = Gat::new(GnnConfig::test_tiny(), ds.features.cols(), 2);
        m.fit(&ds);
        let preds = m.predict(&ds, &ds.split.test);
        assert_eq!(preds.len(), ds.split.test.len());
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn training_improves_fit_on_training_data() {
        // Mini-batch losses are too noisy under heavy-tailed labels to be
        // monotone; compare train-split RMSE before and after fitting.
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let probe: Vec<usize> = ds.split.train.iter().take(60).copied().collect();
        let truth = ds.labels_of(&probe);
        let mut m = Gat::new(
            GnnConfig {
                steps: 120,
                ..GnnConfig::test_tiny()
            },
            ds.features.cols(),
            2,
        );
        let before = catehgn::rmse(&m.predict(&ds, &probe), &truth);
        m.fit(&ds);
        let after = catehgn::rmse(&m.predict(&ds, &probe), &truth);
        assert!(
            after < before,
            "training should help: before {before}, after {after}"
        );
    }
}
