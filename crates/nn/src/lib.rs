//! # pp-nn
//!
//! A minimal, dependency-light neural-network toolkit built for the
//! reproduction of *Predictive Precompute with Recurrent Neural Networks*
//! (MLSys 2020). It provides exactly the pieces the paper's model needs:
//!
//! * a dense 2-D [`tensor::Tensor`],
//! * a tape-based reverse-mode autodiff [`graph::Graph`],
//! * [`kernel`]: the one GEMM every product goes through, its
//!   sparse-input companion, and their transposes for backward passes,
//! * [`activation`]: the one `exp` / `sigmoid` / `tanh` every forward
//!   pass evaluates, with stated error bounds,
//! * [`layers`]: `Linear`, `GruCell`, `LstmCell`, `TanhCell`, `Dropout`,
//!   with fused batch steps (and, for the GRU, a fused backward),
//! * [`optim`]: the Adam optimizer,
//! * [`params`]: shared named parameter storage, and the gradient stores
//!   both training paths add into.
//!
//! The crate is *not* a general deep-learning framework: it trades
//! generality (no GPU, no broadcasting rules, `f32` only) for a small,
//! fully-tested implementation whose FLOP counts can be reasoned about
//! exactly — which is what the paper's serving-cost analysis (§9) needs.
//!
//! # Examples
//!
//! Train a one-neuron logistic model on a toy AND dataset:
//!
//! ```
//! use pp_nn::graph::Graph;
//! use pp_nn::layers::Linear;
//! use pp_nn::optim::{Adam, AdamConfig};
//! use pp_nn::params::ParamStore;
//! use pp_nn::tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let layer = Linear::new("l", 2, 1, &mut store, &mut rng);
//! let mut adam = Adam::new(&store, AdamConfig::default());
//!
//! let xs = Tensor::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
//! let ys = Tensor::from_col(&[0.0, 0.0, 0.0, 1.0]);
//! for _ in 0..200 {
//!     let mut g = Graph::new();
//!     let x = g.constant(xs.clone());
//!     let logits = layer.forward(&mut g, &store, x);
//!     let loss = g.bce_with_logits(logits, ys.clone(), None);
//!     g.backward(loss);
//!     let mut grads = store.zero_grads();
//!     g.param_grads_into(&mut grads);
//!     adam.step(&mut store, &grads);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activation;
pub mod graph;
pub mod init;
pub mod kernel;
pub mod layers;
pub mod optim;
pub mod params;
pub mod tensor;

pub use graph::{Graph, NodeId};
pub use kernel::{gather_acc, gemm_acc, SparseRows};
pub use layers::{CellKind, CellScratch, Dropout, GruCell, Linear, LstmCell, TanhCell};
pub use optim::{Adam, AdamConfig};
pub use params::{GradStore, ParamId, ParamStore};
pub use tensor::Tensor;
