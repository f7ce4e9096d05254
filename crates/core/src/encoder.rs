//! Type-aware node and link input encoders (Eq. 5).
//!
//! Every node type has its own affine map from raw features to the shared
//! `d`-dimensional space; every link type has a *fixed random* feature
//! vector (as specified in Sec. III-C1) passed through its own affine map.

use crate::config::ModelConfig;
use hetgraph::{HetGraph, NodeId};
use tensor::{ForwardCtx, ParamId, Params, Tensor, Var};

/// Trainable encoder parameters plus the fixed random link features.
#[derive(Clone, Debug)]
pub struct EncoderParams {
    /// Per node type: `W_phi` (`f_in x d`) and bias (`1 x d`).
    pub node_w: Vec<ParamId>,
    pub node_b: Vec<ParamId>,
    /// Per link type: `W_psi` (`d x d`) and bias (`1 x d`).
    pub link_w: Vec<ParamId>,
    pub link_b: Vec<ParamId>,
    /// Per link type: the fixed random feature `x_e` (`1 x d`, not trained).
    pub link_feat: Vec<Tensor>,
}

impl EncoderParams {
    pub fn init<R: rand::Rng>(
        params: &mut Params,
        feat_dim: usize,
        n_node_types: usize,
        n_link_types: usize,
        cfg: &ModelConfig,
        rng: &mut R,
    ) -> Self {
        use tensor::Initializer::{Uniform, XavierUniform, Zeros};
        let node_w = (0..n_node_types)
            .map(|t| {
                params.add_init(
                    format!("enc.node{t}.w"),
                    feat_dim,
                    cfg.dim,
                    XavierUniform,
                    rng,
                )
            })
            .collect();
        let node_b = (0..n_node_types)
            .map(|t| params.add_init(format!("enc.node{t}.b"), 1, cfg.dim, Zeros, rng))
            .collect();
        let link_w = (0..n_link_types)
            .map(|t| {
                params.add_init(
                    format!("enc.link{t}.w"),
                    cfg.dim,
                    cfg.dim,
                    XavierUniform,
                    rng,
                )
            })
            .collect();
        let link_b = (0..n_link_types)
            .map(|t| params.add_init(format!("enc.link{t}.b"), 1, cfg.dim, Zeros, rng))
            .collect();
        let link_feat = (0..n_link_types)
            .map(|_| Uniform(1.0).sample(1, cfg.dim, rng))
            .collect();
        EncoderParams {
            node_w,
            node_b,
            link_w,
            link_b,
            link_feat,
        }
    }
}

/// Encodes the raw features of `frontier` nodes into the shared space,
/// applying each node type's own encoder and restoring frontier order.
pub fn encode_nodes<F: ForwardCtx>(
    g: &mut F,
    params: &Params,
    enc: &EncoderParams,
    graph: &HetGraph,
    features: &Tensor,
    frontier: &[NodeId],
) -> Var {
    let n_types = enc.node_w.len();
    // Group frontier positions by node type.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_types];
    for (pos, &v) in frontier.iter().enumerate() {
        groups[graph.node_type(v).0 as usize].push(pos);
    }
    // Encode each non-empty group in type order, remembering where each
    // row lands in the stacked output.
    let mut landing = vec![0usize; frontier.len()];
    let mut offset = 0usize;
    let encoded: Vec<Var> = (0..n_types)
        .filter(|&t| !groups[t].is_empty())
        .map(|t| {
            encode_group(
                g,
                params,
                enc,
                features,
                frontier,
                t,
                &groups[t],
                &mut landing,
                &mut offset,
            )
        })
        .collect();
    let stacked = g.stack_rows(&encoded);
    for &h in &encoded {
        g.free(h);
    }
    // Restore frontier order.
    let out = g.gather_rows(stacked, landing);
    g.free(stacked);
    out
}

/// Encodes one node-type group through its own encoder, recording where
/// each frontier position lands in the stacked output.
#[allow(clippy::too_many_arguments)]
fn encode_group<F: ForwardCtx>(
    g: &mut F,
    params: &Params,
    enc: &EncoderParams,
    features: &Tensor,
    frontier: &[NodeId],
    t: usize,
    group: &[usize],
    landing: &mut [usize],
    offset: &mut usize,
) -> Var {
    let mut rows = g.scratch_idx();
    rows.extend(group.iter().map(|&pos| frontier[pos].index()));
    let x = g.input_rows(features, &rows);
    g.recycle_idx(rows);
    let w = g.param(params, enc.node_w[t]);
    let b = g.param(params, enc.node_b[t]);
    let lin = g.linear(x, w, b);
    g.free(x);
    g.free(w);
    g.free(b);
    let h = g.relu(lin);
    g.free(lin);
    for (i, &pos) in group.iter().enumerate() {
        landing[pos] = *offset + i;
    }
    *offset += group.len();
    h
}

/// Encodes the fixed random link features into layer-0 link embeddings
/// (one `1 x d` var per link type).
pub fn encode_links<F: ForwardCtx>(g: &mut F, params: &Params, enc: &EncoderParams) -> Vec<Var> {
    (0..enc.link_w.len())
        .map(|t| {
            let x = g.input_from(&enc.link_feat[t]);
            let w = g.param(params, enc.link_w[t]);
            let b = g.param(params, enc.link_b[t]);
            let lin = g.linear(x, w, b);
            g.free(x);
            g.free(w);
            g.free(b);
            let h = g.relu(lin);
            g.free(lin);
            h
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph::{HetGraphBuilder, Schema};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tensor::Graph;

    fn setup() -> (
        HetGraph,
        Vec<NodeId>,
        Params,
        EncoderParams,
        Tensor,
        ModelConfig,
    ) {
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        let author = s.add_node_type("author");
        s.add_link_type_pair("writes", "written_by", author, paper);
        let mut b = HetGraphBuilder::new(s);
        let p0 = b.add_node(paper);
        let a0 = b.add_node(author);
        let p1 = b.add_node(paper);
        let graph = b.build();
        let cfg = ModelConfig {
            dim: 4,
            ..ModelConfig::test_tiny()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut params = Params::new();
        let enc = EncoderParams::init(&mut params, 3, 2, 2, &cfg, &mut rng);
        let features = Tensor::from_rows(&[
            &[1.0, 0.0, 0.0], // p0
            &[0.0, 1.0, 0.0], // a0
            &[0.0, 0.0, 1.0], // p1
        ]);
        (graph, vec![p0, a0, p1], params, enc, features, cfg)
    }

    #[test]
    fn mixed_type_frontier_preserves_order() {
        let (graph, nodes, params, enc, features, cfg) = setup();
        let mut g = Graph::new();
        // Frontier interleaves types: [p1, a0, p0].
        let frontier = vec![nodes[2], nodes[1], nodes[0]];
        let h = encode_nodes(&mut g, &params, &enc, &graph, &features, &frontier);
        assert_eq!(g.shape(h), (3, cfg.dim));
        // Row for p0 must equal what encoding p0 alone produces.
        let mut g2 = Graph::new();
        let h0 = encode_nodes(&mut g2, &params, &enc, &graph, &features, &[nodes[0]]);
        assert_eq!(g.value(h).row(2), g2.value(h0).row(0));
        // And a0 alone matches row 1.
        let mut g3 = Graph::new();
        let ha = encode_nodes(&mut g3, &params, &enc, &graph, &features, &[nodes[1]]);
        assert_eq!(g.value(h).row(1), g3.value(ha).row(0));
    }

    #[test]
    fn same_features_different_types_encode_differently() {
        let (graph, nodes, params, enc, _features, _cfg) = setup();
        // Give the paper and the author identical raw features.
        let feats = Tensor::from_rows(&[&[0.5, 0.5, 0.5], &[0.5, 0.5, 0.5], &[0.0, 0.0, 0.0]]);
        let mut g = Graph::new();
        let h = encode_nodes(&mut g, &params, &enc, &graph, &feats, &[nodes[0], nodes[1]]);
        assert_ne!(
            g.value(h).row(0),
            g.value(h).row(1),
            "type-aware encoders must differ"
        );
    }

    #[test]
    fn link_encoders_yield_one_row_per_type() {
        let (_, _, params, enc, _, cfg) = setup();
        let mut g = Graph::new();
        let links = encode_links(&mut g, &params, &enc);
        assert_eq!(links.len(), 2);
        for v in links {
            assert_eq!(g.shape(v), (1, cfg.dim));
            assert!(g.value(v).all_finite());
        }
    }

    #[test]
    fn encoder_gradients_flow() {
        let (graph, nodes, params, enc, features, _cfg) = setup();
        let mut g = Graph::new();
        let h = encode_nodes(&mut g, &params, &enc, &graph, &features, &nodes);
        let loss = g.l2(h);
        g.backward(loss);
        let grads = g
            .bindings()
            .iter()
            .filter(|(_, v)| g.grad(*v).is_some())
            .count();
        assert!(grads >= 4, "node encoder params should receive gradients");
    }
}
