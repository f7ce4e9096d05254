//! # tensor — dense tensors and reverse-mode autodiff for graph learning
//!
//! A small, dependency-light numeric substrate purpose-built for the
//! CATE-HGN reproduction: 2-D `f32` tensors ([`Tensor`]), a tape-based
//! reverse-mode autodiff engine ([`Graph`]/[`Var`]), parameter storage with
//! optimizer state ([`Params`]), standard initialisers ([`Initializer`]),
//! and the Adam optimizer ([`Optimizer`]).
//!
//! The op vocabulary is chosen for heterogeneous GNN workloads:
//!
//! * `gather_rows` / `stack_rows` — row selection and stacking over
//!   sampled neighborhoods laid out as flat edge lists;
//! * `edge_softmax` / `edge_aggregate` — the two per-edge kernels of
//!   attention message passing, and the only ones: edge scores summed from
//!   1 to 3 operands whose rows meet the edges as [`EdgeRows`], softmaxed
//!   per segment and head over variable-size neighbor sets; then the
//!   weighted gather-and-sum of 1 or 2 message operands into segments;
//! * `circ_corr` — HolE-style circular-correlation composition of node and
//!   relation embeddings;
//! * `pairwise_sq_dist` / `recip1p` / `div_col` — DEC-style Student-t soft
//!   cluster assignments, differentiable in both embeddings and centers.
//!
//! ## Example
//!
//! ```
//! use tensor::{Graph, Params, Optimizer, Tensor, Initializer};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut params = Params::new();
//! let w = params.add_init("w", 2, 1, Initializer::XavierUniform, &mut rng);
//! let mut opt = Optimizer::adam(0.05);
//!
//! let x = Tensor::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
//! let y = Tensor::col_vec(vec![1.0, 2.0, 3.0]); // y = 2*x0 + 1*x1
//! for _ in 0..300 {
//!     let mut g = Graph::new();
//!     let wv = g.param(&params, w);
//!     let xv = g.input(x.clone());
//!     let pred = g.matmul(xv, wv);
//!     let loss = g.mse(pred, &y);
//!     g.backward(loss);
//!     opt.step(&mut params, &mut g);
//! }
//! let learned = params.value(w).as_slice();
//! assert!((learned[0] - 2.0).abs() < 0.05 && (learned[1] - 1.0).abs() < 0.05);
//! ```

pub mod finite;
pub(crate) mod fwd;
pub mod gradcheck;
pub mod graph;
pub mod infer;
pub mod init;
pub mod optim;
pub mod par;
pub mod params;
pub mod pool;
mod stamped;
#[allow(clippy::module_inception)] // `tensor::tensor::Tensor` is re-exported flat below
pub mod tensor;

pub use finite::is_all_finite;
pub use fwd::EdgeRows;
pub use graph::{stable_sigmoid, ConstId, Graph, Var, LOG_EPS};
pub use infer::{ForwardCtx, InferCtx};
pub use init::Initializer;
pub use optim::Optimizer;
pub use params::{ParamId, Params};
pub use pool::{BufferPool, PoolStats};
pub use tensor::{dot, softmax_in_place, Tensor};
