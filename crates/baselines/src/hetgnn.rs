//! HetGNN (Zhang et al., KDD 2019): random-walk-based typed neighbor
//! sampling, recurrent (GRU) content aggregation within each neighbor
//! type, and attention-based combination across types plus the node
//! itself.
//!
//! The original uses a Bi-LSTM set aggregator; this implementation uses a
//! GRU run over the fixed-size sampled neighbor sequence (same recurrent
//! set-function family, half the gates), vectorised across the batch.

use crate::common::{pair_attention, BatchRegressor, GnnConfig};
use dblp_sim::Dataset;
use hetgraph::{uniform_typed_walk, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::{EdgeRows, Graph, Initializer, ParamId, Params, Tensor, Var};

/// GRU gate parameters.
#[derive(Debug)]
struct Gru {
    w_z: ParamId,
    u_z: ParamId,
    w_r: ParamId,
    u_r: ParamId,
    w_h: ParamId,
    u_h: ParamId,
}

impl Gru {
    fn init<R: Rng>(params: &mut Params, name: &str, d: usize, rng: &mut R) -> Self {
        let mut m = |suffix: &str, rng: &mut R| {
            params.add_init(
                format!("{name}.{suffix}"),
                d,
                d,
                Initializer::XavierUniform,
                rng,
            )
        };
        Gru {
            w_z: m("wz", rng),
            u_z: m("uz", rng),
            w_r: m("wr", rng),
            u_r: m("ur", rng),
            w_h: m("wh", rng),
            u_h: m("uh", rng),
        }
    }

    /// One GRU step over a batch: `x`, `h` are `B x d`; `mask` is `B x 1`
    /// with 1 for real neighbors and 0 for padding (state held).
    fn step(&self, g: &mut Graph, params: &Params, x: Var, h: Var, mask: &Tensor) -> Var {
        let wz = g.param(params, self.w_z);
        let uz = g.param(params, self.u_z);
        let xz = g.matmul(x, wz);
        let hz = g.matmul(h, uz);
        let z_in = g.add(xz, hz);
        let z = g.sigmoid(z_in);
        let wr = g.param(params, self.w_r);
        let ur = g.param(params, self.u_r);
        let xr = g.matmul(x, wr);
        let hr = g.matmul(h, ur);
        let r_in = g.add(xr, hr);
        let r = g.sigmoid(r_in);
        let wh = g.param(params, self.w_h);
        let uh = g.param(params, self.u_h);
        let xh = g.matmul(x, wh);
        let rh = g.mul(r, h);
        let rhu = g.matmul(rh, uh);
        let cand_in = g.add(xh, rhu);
        let cand = g.tanh(cand_in);
        // h' = (1 - z) * h + z * cand
        let zc = g.mul(z, cand);
        let one_minus_z = {
            let nz = g.neg(z);
            g.add_scalar(nz, 1.0)
        };
        let zh = g.mul(one_minus_z, h);
        let h_new = g.add(zh, zc);
        // Hold state on padded slots.
        let m = g.input(mask.clone());
        let hm = g.mul_col(h_new, m);
        let inv = g.input(mask.map(|v| 1.0 - v));
        let hold = g.mul_col(h, inv);
        g.add(hm, hold)
    }
}

/// HetGNN regressor.
#[derive(Debug)]
pub struct HetGnn {
    cfg: GnnConfig,
    params: Params,
    w_in: ParamId,
    b_in: ParamId,
    gru: Vec<Gru>,
    /// Type-level attention vector over `[h_self ‖ c]`, split (`d x 1`
    /// halves).
    att: [ParamId; 2],
    w_out: ParamId,
    b_out: ParamId,
    n_node_types: usize,
    /// Random-walk length used for typed neighbor collection.
    walk_len: usize,
}

impl HetGnn {
    pub fn new(cfg: GnnConfig, feat_dim: usize, n_node_types: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x4E7);
        let mut params = Params::new();
        let d = cfg.dim;
        let w_in = params.add_init("in.w", feat_dim, d, Initializer::XavierUniform, &mut rng);
        let b_in = params.add_init("in.b", 1, d, Initializer::Zeros, &mut rng);
        let gru = (0..n_node_types)
            .map(|t| Gru::init(&mut params, &format!("gru{t}"), d, &mut rng))
            .collect();
        let att = params.add_init_split(
            "att",
            ["v", "u"],
            (d, 1),
            1,
            Initializer::XavierUniform,
            &mut rng,
        );
        let w_out = params.add_init("out.w", d, 1, Initializer::XavierUniform, &mut rng);
        let b_out = params.add_init("out.b", 1, 1, Initializer::Zeros, &mut rng);
        HetGnn {
            cfg,
            params,
            w_in,
            b_in,
            gru,
            att,
            w_out,
            b_out,
            n_node_types,
            walk_len: 12,
        }
    }

    /// Samples up to `fanout` neighbors of each node type for `node` using
    /// restart random walks (HetGNN's neighbor collection strategy).
    fn typed_neighbors<R: Rng>(&self, ds: &Dataset, node: NodeId, rng: &mut R) -> Vec<Vec<NodeId>> {
        let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); self.n_node_types];
        for _ in 0..4 {
            for (_, v) in uniform_typed_walk(&ds.graph, node, self.walk_len, rng) {
                let t = ds.graph.node_type(v).0 as usize;
                if out[t].len() < self.cfg.fanout && !out[t].contains(&v) {
                    out[t].push(v);
                }
            }
            if out.iter().all(|v| v.len() >= self.cfg.fanout) {
                break;
            }
        }
        out
    }
}

impl BatchRegressor for HetGnn {
    const NAME: &'static str = "HetGNN";

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
        let bsz = papers.len();
        let d = self.cfg.dim;
        let s = self.cfg.fanout;
        // Self content encoding.
        let self_rows: Vec<usize> = papers.iter().map(|&i| ds.paper_nodes[i].index()).collect();
        let x_self = g.input(ds.features.gather_rows(&self_rows));
        let w_in = g.param(&self.params, self.w_in);
        let b_in = g.param(&self.params, self.b_in);
        let lin = g.linear(x_self, w_in, b_in);
        let h_self = g.relu(lin);

        // Typed neighbor tensors: per type, `s` slots of B x feat rows.
        let mut all_nbrs: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(bsz);
        for &i in papers {
            all_nbrs.push(self.typed_neighbors(ds, ds.paper_nodes[i], rng));
        }

        let mut type_embs: Vec<Var> = Vec::with_capacity(self.n_node_types);
        for t in 0..self.n_node_types {
            let mut h = g.input(Tensor::zeros(bsz, d));
            for slot in 0..s {
                let mut rows = Vec::with_capacity(bsz);
                let mut mask = Vec::with_capacity(bsz);
                for nbrs in &all_nbrs {
                    match nbrs[t].get(slot) {
                        Some(v) => {
                            rows.push(v.index());
                            mask.push(1.0);
                        }
                        None => {
                            rows.push(0);
                            mask.push(0.0);
                        }
                    }
                }
                if mask.iter().all(|&m| m == 0.0) {
                    break;
                }
                let x = g.input(ds.features.gather_rows(&rows));
                let lin = g.linear(x, w_in, b_in);
                let enc = g.relu(lin);
                h = self.gru[t].step(g, &self.params, enc, h, &Tensor::col_vec(mask));
            }
            type_embs.push(h);
        }

        // Type-level attention over {self} union type aggregates.
        let mut candidates = vec![h_self];
        candidates.extend(type_embs);
        let se = g.stack_rows(&candidates);
        let seg: Vec<usize> = candidates.iter().flat_map(|_| 0..bsz).collect();
        let alpha = pair_attention(
            g,
            &self.params,
            self.att,
            (h_self, EdgeRows::Gather(seg.clone())),
            (se, EdgeRows::Own),
            seg.clone(),
            bsz,
        );
        let z = g.edge_aggregate([(se, EdgeRows::Own)], alpha, seg, bsz);

        let w_out = g.param(&self.params, self.w_out);
        let b_out = g.param(&self.params, self.b_out);
        g.linear(z, w_out, b_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::CitationModel;
    use dblp_sim::WorldConfig;

    #[test]
    fn typed_neighbors_respect_types_and_fanout() {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let m = HetGnn::new(GnnConfig::test_tiny(), ds.features.cols(), 4);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let nbrs = m.typed_neighbors(&ds, ds.paper_nodes[0], &mut rng);
        assert_eq!(nbrs.len(), 4);
        for (t, group) in nbrs.iter().enumerate() {
            assert!(group.len() <= m.cfg.fanout);
            for &v in group {
                assert_eq!(ds.graph.node_type(v).0 as usize, t);
            }
        }
    }

    #[test]
    fn trains_and_predicts_finite() {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let mut m = HetGnn::new(
            GnnConfig {
                steps: 15,
                ..GnnConfig::test_tiny()
            },
            ds.features.cols(),
            4,
        );
        m.fit(&ds);
        let preds = m.predict(&ds, &ds.split.test);
        assert_eq!(preds.len(), ds.split.test.len());
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn gru_holds_state_on_padded_slots() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut params = Params::new();
        let gru = Gru::init(&mut params, "t", 4, &mut rng);
        let mut g = Graph::new();
        let h0 = g.input(Tensor::full(2, 4, 0.5));
        let x = g.input(Tensor::full(2, 4, 1.0));
        // Row 0 is real, row 1 is padding.
        let mask = Tensor::col_vec(vec![1.0, 0.0]);
        let h1 = gru.step(&mut g, &params, x, h0, &mask);
        let out = g.value(h1);
        assert_ne!(out.row(0), g.value(h0).row(0), "real slot updates");
        assert_eq!(out.row(1), g.value(h0).row(1), "padded slot holds");
    }
}
