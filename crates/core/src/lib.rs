//! # catehgn — Cluster-Aware Text-Enhanced Heterogeneous Graph Network
//!
//! Reference Rust implementation of CATE-HGN (Yang & Han, ICDE 2023) for
//! citation prediction on text-rich heterogeneous publication networks.
//!
//! The model has three modules, each independently switchable for the
//! Fig. 4(a) ablation study via [`Ablation`]:
//!
//! * **HGN** ([`layer`], [`encoder`], [`mi`]) — a one-space heterogeneous
//!   GNN with entity-relation composition, type-aware input encoders,
//!   layer-wise supervised regression, cross-type mutual-information
//!   alignment, and three-way attention;
//! * **CA** ([`ca`]) — DEC-style self-training clustering over all node
//!   types plus masked-embedding prediction and consistency/disparity
//!   regularisers;
//! * **TE** ([`te`]) — masked-LM bootstrapping of quality terms from
//!   research-domain names, TF-IDF paper-term linking, and impact-based
//!   voting refinement.
//!
//! Training follows Algorithm 1 ([`train`]); [`predict`] provides the
//! Table III / Fig. 5 case-study readouts.
//!
//! ```no_run
//! use catehgn::{CateHgn, ModelConfig, train::train};
//! use dblp_sim::{Dataset, WorldConfig};
//!
//! let mut ds = Dataset::full(&WorldConfig::small(), 32);
//! let mut model = CateHgn::new(
//!     ModelConfig::cate_hgn(),
//!     32,
//!     ds.graph.schema().num_node_types(),
//!     ds.graph.schema().num_link_types(),
//! );
//! let report = train(&mut model, &mut ds)?;
//! let seeds = ds.paper_nodes_of(&ds.split.test);
//! let preds = model.predict(&ds.graph, &ds.features, &seeds, 0);
//! # let _ = (report, preds);
//! # Ok::<(), catehgn::TrainError>(())
//! ```

pub mod ca;
pub mod config;
pub mod encoder;
pub mod incremental;
pub mod layer;
pub mod mi;
pub mod model;
pub mod predict;
pub mod resilience;
pub mod serve;
pub mod te;
pub mod temporal;
pub mod train;

pub use config::{Ablation, Composition, ModelConfig};
pub use model::{CateHgn, ForwardOut};
pub use predict::{case_study, CaseStudy, RankedNode};
pub use incremental::{adapt, rolling_update, IncrementalReport};
pub use resilience::{
    params_fingerprint, report_fingerprint, CheckpointError, CheckpointManager, Fault, FaultPlan,
    NonFiniteSource, RecoveryPolicy, ShutdownToken, TrainError, TrainOptions, TrainState,
};
pub use serve::{Recommendation, ServeEngine, ServeError, ServeStats};
pub use te::TextEnhancer;
pub use temporal::{ageing_curve, trajectory_rmse, TemporalHead, DEFAULT_HORIZON};
pub use train::{rmse, train as train_model, train_with, TeRound, TrainReport};
