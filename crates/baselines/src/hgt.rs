//! HGT (Hu et al., WWW 2020): heterogeneous graph transformer with
//! edge-type-specific node attention and node-type-specific message
//! aggregation. Per layer: node-type-specific Query/Key/Value projections,
//! a per-link-type attention prior, scaled dot-product attention normalised
//! across *all* typed edges arriving at a node, and a node-type-specific
//! output projection with a residual connection.

use crate::common::{
    build_batch, edge_idx, gather_seed_rows, BatchInputs, BatchRegressor, GnnConfig,
};
use dblp_sim::Dataset;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::{EdgeRows, Graph, Initializer, ParamId, Params, Var};

/// Heterogeneous graph transformer regressor.
#[derive(Debug)]
pub struct Hgt {
    cfg: GnnConfig,
    params: Params,
    w_in: ParamId,
    b_in: ParamId,
    /// Per layer, per node type: Q, K, V projections.
    q: Vec<Vec<ParamId>>,
    k: Vec<Vec<ParamId>>,
    v: Vec<Vec<ParamId>>,
    /// Per layer, per link type: scalar attention prior mu.
    mu: Vec<Vec<ParamId>>,
    /// Per layer, per node type: output projection (residual added).
    out: Vec<Vec<ParamId>>,
    w_out: ParamId,
    b_out: ParamId,
}

impl Hgt {
    pub fn new(cfg: GnnConfig, feat_dim: usize, n_node_types: usize, n_link_types: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut params = Params::new();
        let d = cfg.dim;
        let mut per_type = |name: &str, l: usize| -> Vec<ParamId> {
            (0..n_node_types)
                .map(|t| {
                    params.add_init(
                        format!("l{l}.{name}{t}"),
                        d,
                        d,
                        Initializer::XavierUniform,
                        &mut rng,
                    )
                })
                .collect()
        };
        let mut q = Vec::new();
        let mut k = Vec::new();
        let mut v = Vec::new();
        let mut out = Vec::new();
        for l in 0..cfg.layers {
            q.push(per_type("q", l));
            k.push(per_type("k", l));
            v.push(per_type("v", l));
            out.push(per_type("o", l));
        }
        let mu = (0..cfg.layers)
            .map(|l| {
                (0..n_link_types)
                    .map(|t| {
                        params.add_init(format!("l{l}.mu{t}"), 1, 1, Initializer::Ones, &mut rng)
                    })
                    .collect()
            })
            .collect();
        let w_in = params.add_init("in.w", feat_dim, d, Initializer::XavierUniform, &mut rng);
        let b_in = params.add_init("in.b", 1, d, Initializer::Zeros, &mut rng);
        let w_out = params.add_init("out.w", d, 1, Initializer::XavierUniform, &mut rng);
        let b_out = params.add_init("out.b", 1, 1, Initializer::Zeros, &mut rng);
        Hgt {
            cfg,
            params,
            w_in,
            b_in,
            q,
            k,
            v,
            mu,
            out,
            w_out,
            b_out,
        }
    }
}

impl BatchRegressor for Hgt {
    const NAME: &'static str = "HGT";

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
        let scale = 1.0 / (self.cfg.dim as f32).sqrt();

        for l in 0..self.cfg.layers {
            let block = &blocks[self.cfg.layers - 1 - l];
            let n_dst = block.dst_nodes.len();
            // Type-specific projections of the whole frontier: compute per
            // node type and reassemble (Q for dst positions, K/V for src).
            let mut src_types = g.scratch_idx();
            src_types.extend(
                block
                    .src_nodes
                    .iter()
                    .map(|n| ds.graph.node_type(*n).0 as usize),
            );
            let kh = project_by_type(g, &self.params, &self.k[l], h, &src_types);
            let vh = project_by_type(g, &self.params, &self.v[l], h, &src_types);
            let qh = project_by_type(g, &self.params, &self.q[l], h, &src_types);
            g.recycle_idx(src_types);

            // Stack all typed edges; attention normalised per dst across
            // every incoming edge regardless of type, with a per-type prior.
            let mut dst_all = g.scratch_idx();
            let mut src_all = g.scratch_idx();
            let mut scores = Vec::with_capacity(block.edges_by_type.len());
            for (lt, edges) in block.edges_by_type.iter().enumerate() {
                if edges.is_empty() {
                    continue;
                }
                let n_edges = edges.len();
                let idx = edge_idx(g, block, edges);
                src_all.extend_from_slice(&idx.src);
                let k_u = g.gather_rows(kh, idx.src);
                let q_v = g.gather_rows(qh, idx.prev);
                let s = g.rowwise_dot(k_u, q_v);
                let s = g.scale(s, scale);
                // Per-link-type prior: multiply scores by mu_lt.
                let mu = g.param(&self.params, self.mu[l][lt]);
                let mu_col = g.tile_row(mu, n_edges);
                scores.push(g.mul(s, mu_col));
                dst_all.extend_from_slice(&idx.dst);
                g.recycle_idx(idx.dst);
            }
            let agg = if scores.is_empty() {
                g.recycle_idx(src_all);
                g.recycle_idx(dst_all);
                g.input_with(n_dst, self.cfg.dim, |rows| rows.fill(0.0))
            } else {
                // Scaled dot-product scores have no LeakyReLU: slope 1.
                let s = g.stack_rows(&scores);
                let seg = g.scratch_idx_from(&dst_all);
                let alpha = g.edge_softmax([(s, EdgeRows::Own)], seg, n_dst, 1.0);
                g.edge_aggregate([(vh, EdgeRows::Gather(src_all))], alpha, dst_all, n_dst)
            };
            // Node-type-specific output projection + residual.
            let mut dst_types = g.scratch_idx();
            dst_types.extend(
                block
                    .dst_nodes
                    .iter()
                    .map(|n| ds.graph.node_type(*n).0 as usize),
            );
            let projected = project_by_type(g, &self.params, &self.out[l], agg, &dst_types);
            g.recycle_idx(dst_types);
            let mut prev_idx = g.scratch_idx();
            prev_idx.extend(block.dst_in_src.iter().map(|&p| p as usize));
            let residual = g.gather_rows(h, prev_idx);
            let summed = g.add(projected, residual);
            h = g.relu(summed);
        }
        let hb = gather_seed_rows(g, &blocks[0], &seeds, h);
        let w_out = g.param(&self.params, self.w_out);
        let b_out = g.param(&self.params, self.b_out);
        g.linear(hb, w_out, b_out)
    }
}

/// Applies `ids[node_type]`'s projection to each row of `h` according to
/// its node type, restoring row order.
fn project_by_type(
    g: &mut Graph,
    params: &Params,
    ids: &[ParamId],
    h: Var,
    types: &[usize],
) -> Var {
    let n_types = ids.len();
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_types];
    for (pos, &t) in types.iter().enumerate() {
        groups[t].push(pos);
    }
    let mut projected = Vec::with_capacity(n_types);
    let mut landing = g.scratch_idx();
    landing.resize(types.len(), 0);
    let mut offset = 0usize;
    for (t, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let rows = g.scratch_idx_from(group);
        let gathered = g.gather_rows(h, rows);
        let w = g.param(params, ids[t]);
        let proj = g.matmul(gathered, w);
        for (i, &pos) in group.iter().enumerate() {
            landing[pos] = offset + i;
        }
        offset += group.len();
        projected.push(proj);
    }
    let stacked = g.stack_rows(&projected);
    g.gather_rows(stacked, landing)
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
        let mut m = Hgt::new(
            GnnConfig::test_tiny(),
            ds.features.cols(),
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        m.fit(&ds);
        let preds = m.predict(&ds, &ds.split.test);
        assert_eq!(preds.len(), ds.split.test.len());
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn attention_priors_train() {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let m = Hgt::new(
            GnnConfig::test_tiny(),
            ds.features.cols(),
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut g = Graph::new();
        let batch: Vec<usize> = ds.split.train.iter().take(8).copied().collect();
        let pred = m.batch_forward(&mut g, &ds, &batch, &mut rng);
        let y = Tensor::col_vec(ds.labels_of(&batch));
        let loss = g.mse(pred, &y);
        g.backward(loss);
        let mu_grads = g
            .bindings()
            .iter()
            .filter(|(pid, v)| m.mu.iter().flatten().any(|c| c == pid) && g.grad(*v).is_some())
            .count();
        assert!(mu_grads > 0);
    }
}
