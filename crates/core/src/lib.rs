//! # pp-core
//!
//! The umbrella crate of the *Predictive Precompute with Recurrent Neural
//! Networks* reproduction: end-to-end experiment drivers tying together the
//! dataset generators (`pp-data`), the baseline models and their
//! engineered features (`pp-baselines`), the recurrent model (`pp-rnn`), the
//! metrics (`pp-metrics`) and the serving cost units (`pp-serving`).
//!
//! * [`experiments`] — the §8 offline evaluation protocol: 90/10 user
//!   splits, last-7-days evaluation, k-fold cross-validation for MPU, and
//!   the Table 5 feature ablation;
//! * [`cost`] — the §9 serving-cost comparison: profiles the GBDT's
//!   aggregation-feature path (≈ 20 lookups, thousands of keys per user)
//!   and weighs it against the RNN's hidden-state path (one 512-byte
//!   lookup, `pp-serving`'s `rnn_profile`), reproducing the ≈ 10× overall
//!   cost reduction;
//! * [`online`] — the day-by-day online comparison of RNN vs GBDT on
//!   cold-start users (Figure 7) and the successful-prefetch lift at a
//!   target precision.
//!
//! The threshold policy for a target precision lives in `pp-precompute`,
//! next to the decision engine and the adaptive controller that use it.
//!
//! # Examples
//!
//! Run a miniature version of the paper's Table 3 on a synthetic MobileTab
//! dataset:
//!
//! ```
//! use pp_core::experiments::{run_offline_experiment, ModelKind, OfflineExperimentConfig};
//! use pp_data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
//! use pp_rnn::RnnModelConfig;
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
//! assert_eq!(evals.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod experiments;
pub mod online;

pub use experiments::{
    evaluate_model_on_split, run_feature_ablation, run_kfold_experiment, run_offline_experiment,
    ModelEvaluation, ModelKind, OfflineExperimentConfig,
};
/// `pp_precompute::PrecomputePolicy`, re-exported only because
/// `benchmark/src/micro.rs` and `benchmark/src/workloads/precompute_loop.rs`
/// still import it from here. Import it from `pp_precompute`; this line and
/// `pp-core`'s dependency on `pp-precompute` go once the benchmark does.
pub use pp_precompute::PrecomputePolicy;
