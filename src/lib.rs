//! # predictive-precompute
//!
//! A Rust reproduction of *Predictive Precompute with Recurrent Neural
//! Networks* (Wang, Wang & Ma, MLSys 2020).
//!
//! Predictive precompute decides, at the start of every application
//! session, whether to prefetch the data an activity needs by predicting
//! the probability that the user will access that activity. This crate is a
//! facade over the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`nn`] | `pp-nn` | tensor, autograd, GRU/LSTM/tanh cells, Adam |
//! | [`data`] | `pp-data` | dataset schema + MobileTab/Timeshift/MPU generators |
//! | [`features`] | `pp-features` | one-hot, context and elapsed-time step features every model shares |
//! | [`baselines`] | `pp-baselines` | percentage model, logistic regression, GBDT, their aggregation features |
//! | [`rnn`] | `pp-rnn` | the paper's GRU model, update-lag sequences, trainer |
//! | [`metrics`] | `pp-metrics` | PR curves, PR-AUC, recall@precision, log loss |
//! | [`serving`] | `pp-serving` | hidden-state store, batch scheduler and serving engine, per-prediction cost units |
//! | [`precompute`] | `pp-precompute` | precision-target policy, decision engine, budgeted prefetch scheduler/cache, outcome accounting, adaptive thresholds |
//! | [`core`] | `pp-core` | experiment drivers (Tables 3–5, Figures 1–7), §9 cost comparison, Figure 7 online replay |
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the binaries that regenerate every table and figure
//! of the paper.
//!
//! # Quick start
//!
//! ```
//! use predictive_precompute::core::{run_offline_experiment, ModelKind, OfflineExperimentConfig};
//! use predictive_precompute::data::synth::{
//!     MobileTabConfig, MobileTabGenerator, SyntheticGenerator,
//! };
//! use predictive_precompute::rnn::RnnModelConfig;
//!
//! let dataset = MobileTabGenerator::new(MobileTabConfig {
//!     num_users: 30,
//!     num_days: 10,
//!     ..Default::default()
//! })
//! .generate();
//! let config = OfflineExperimentConfig {
//!     rnn_model: RnnModelConfig::tiny(),
//!     ..OfflineExperimentConfig::fast()
//! };
//! let evals = run_offline_experiment(&dataset, &[ModelKind::PercentageBased], &config);
//! println!("PR-AUC = {:.3}", evals[0].report.pr_auc);
//! ```

#![warn(missing_docs)]

/// Re-export of the baseline models crate (`pp-baselines`).
pub use pp_baselines as baselines;
/// Re-export of the experiment-driver crate (`pp-core`).
pub use pp_core as core;
/// Re-export of the dataset crate (`pp-data`).
pub use pp_data as data;
/// Re-export of the shared step-featurization crate (`pp-features`).
pub use pp_features as features;
/// Re-export of the metrics crate (`pp-metrics`).
pub use pp_metrics as metrics;
/// Re-export of the neural-network toolkit (`pp-nn`).
pub use pp_nn as nn;
/// Re-export of the precompute-execution crate (`pp-precompute`).
pub use pp_precompute as precompute;
/// Re-export of the recurrent-model crate (`pp-rnn`).
pub use pp_rnn as rnn;
/// Re-export of the serving-simulation crate (`pp-serving`).
pub use pp_serving as serving;
