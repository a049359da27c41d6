//! # pp-rnn
//!
//! The paper's primary contribution: a recurrent (GRU) model for predictive
//! precompute that replaces all time-window aggregation features with a
//! single per-user hidden state.
//!
//! * [`model`] — the `RNN_update` / `RNN_predict` architecture of Figure 3,
//!   with the latent-cross interaction and MLP head, for both the
//!   per-session and timeshifted tasks;
//! * [`sequence`] — sequence planning with the update lag δ of §6.1
//!   (a prediction may only read hidden states that were computable before
//!   the session started);
//! * [`trainer`] — the §7 training recipe (Adam 1e-3, dropout 0.2, loss on
//!   the last 21 days, minibatches of 10 users, history truncation): a GRU
//!   trains through one fused time-major pass per minibatch, the Tanh and
//!   LSTM cells through per-user autograd tapes; plus batched forward-only
//!   evaluation.
//!
//! # Examples
//!
//! ```
//! use pp_data::schema::DatasetKind;
//! use pp_data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
//! use pp_rnn::{RnnModel, RnnModelConfig, RnnTrainer, TaskKind, TrainerConfig};
//!
//! let dataset = MobileTabGenerator::new(MobileTabConfig {
//!     num_users: 10,
//!     num_days: 5,
//!     ..Default::default()
//! })
//! .generate();
//! let mut model = RnnModel::new(
//!     DatasetKind::MobileTab,
//!     TaskKind::PerSession,
//!     RnnModelConfig::tiny(),
//!     0,
//! );
//! let trainer = RnnTrainer::new(TrainerConfig {
//!     epochs: 1,
//!     train_last_days: 5,
//!     ..Default::default()
//! });
//! let users: Vec<usize> = (0..dataset.users.len()).collect();
//! let report = trainer.train(&mut model, &dataset, &users);
//! assert!(report.total_predictions > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod model;
pub mod sequence;
pub mod trainer;

pub use model::{BatchScratch, RnnModel, RnnModelConfig, TaskKind};
pub use sequence::{LagConfig, UserSequencePlan};
pub use trainer::{
    scores_and_labels, LossTracePoint, RnnTrainer, ScoredPrediction, TrainerConfig, TrainingReport,
};
