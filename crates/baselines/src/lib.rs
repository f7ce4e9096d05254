//! # baselines — the 12 compared systems of Table II
//!
//! From-scratch implementations of every baseline in the paper's
//! evaluation (Sec. IV-A2), all driven through one [`CitationModel`]
//! interface:
//!
//! | Row | Type | Module |
//! |---|---|---|
//! | BERT | text-only LM + fine-tuned head | [`bert_reg`] |
//! | GAT | homogeneous graph attention | [`gat`] |
//! | CCP | 9 engineered features + CART | [`features`] |
//! | CPDF | 16 engineered features + CART | [`features`] |
//! | metapath2vec | meta-path walks + SGNS + MLP | [`skipgram`] |
//! | hin2vec | typed walks + relation-gated SGNS + MLP | [`skipgram`] |
//! | R-GCN | per-relation weight matrices | [`rgcn`] |
//! | HAN | meta-path node+semantic attention | [`han`] |
//! | HetGNN | walk-sampled typed neighbors + GRU | [`hetgnn`] |
//! | HGT | type-specific transformer attention | [`hgt`] |
//! | MAGNN | meta-path instance encoding | [`magnn`] |
//! | HGCN | compatibility-gated shared GCN | [`hgcn`] |

pub mod bert_reg;
pub mod cart;
pub mod common;
pub mod features;
pub mod gat;
pub mod han;
pub mod hetgnn;
pub mod hgcn;
pub mod hgt;
pub mod magnn;
pub mod mlp;
pub mod rgcn;
pub mod skipgram;

pub use bert_reg::BertRegressor;
pub use cart::{Cart, CartConfig};
pub use common::{mean_predictor_rmse, CitationModel, GnnConfig, MetapathModel};
pub use features::{Ccp, Cpdf, HistoryStats};
pub use gat::Gat;
pub use han::Han;
pub use hetgnn::HetGnn;
pub use hgcn::Hgcn;
pub use hgt::Hgt;
pub use magnn::Magnn;
pub use mlp::Mlp;
pub use rgcn::Rgcn;
pub use skipgram::{Hin2Vec, MetaPath2Vec, SgnsConfig};

use dblp_sim::Dataset;

/// Builds all twelve baselines of Table II, configured for the given
/// dataset's feature dimension. Order matches the paper's table.
pub fn all_baselines(ds: &Dataset, gnn: &GnnConfig) -> Vec<Box<dyn CitationModel>> {
    let feat_dim = ds.features.cols();
    let n_node_types = ds.graph.schema().num_node_types();
    let n_link_types = ds.graph.schema().num_link_types();
    let han: Han = MetapathModel::new(gnn.clone(), feat_dim, 4);
    let magnn: Magnn = MetapathModel::new(gnn.clone(), feat_dim, 4);
    vec![
        Box::new(BertRegressor::default()),
        Box::new(Gat::new(gnn.clone(), feat_dim, 2)),
        Box::new(Ccp::default()),
        Box::new(Cpdf::default()),
        Box::new(MetaPath2Vec::default()),
        Box::new(Hin2Vec::default()),
        Box::new(Rgcn::new(gnn.clone(), feat_dim, n_link_types)),
        Box::new(han),
        Box::new(HetGnn::new(gnn.clone(), feat_dim, n_node_types)),
        Box::new(Hgt::new(gnn.clone(), feat_dim, n_node_types, n_link_types)),
        Box::new(magnn),
        Box::new(Hgcn::new(gnn.clone(), feat_dim, n_link_types)),
    ]
}
