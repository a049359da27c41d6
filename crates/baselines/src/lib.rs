//! # pp-baselines
//!
//! The traditional models the paper compares the RNN against (§5), and the
//! feature engineering only they need (§5.2):
//!
//! * [`percentage::PercentageModel`] — the smoothed per-user access
//!   percentage (§5.1), the paper's "universal baseline";
//! * [`logreg::LogisticRegression`] — L2-regularised logistic regression on
//!   the engineered features of [`features`] (§5.3);
//! * [`gbdt::Gbdt`] — gradient-boosted decision trees with a logistic
//!   objective, histogram split finding, and the exhaustive depth search of
//!   §5.4;
//! * [`aggregation`] — incremental (time window × context subset)
//!   aggregations and elapsed-time tracking, with the storage/lookup
//!   accounting the §9 serving-cost comparison needs;
//! * [`features`] — the full engineered feature vectors consumed by
//!   logistic regression and GBDT, including the Table 5 ablation levels
//!   and the example builders for both the per-session and the
//!   timeshifted task.
//!
//! The RNN needs none of this. The contextual one-hots both model families
//! share come from `pp-features`' `ContextFeaturizer`.
//!
//! # Examples
//!
//! ```
//! use pp_baselines::percentage::PercentageModel;
//!
//! let model = PercentageModel::new(0.1);
//! // A user with 3 prior sessions, 2 of them accesses:
//! let p = model.predict(3, 2);
//! assert!((p - 2.1 / 4.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregation;
pub mod features;
pub mod gbdt;
pub mod logreg;
pub mod percentage;

pub use aggregation::{
    AggregationState, ContextDimension, ContextSubset, ElapsedTimes, WindowCounts, WINDOWS_SECS,
};
pub use features::{
    build_session_examples, build_timeshift_examples, BaselineFeaturizer, ElapsedEncoding,
    FeatureSet, LabeledExample,
};
pub use gbdt::{Gbdt, GbdtConfig, Tree};
pub use logreg::{LogRegConfig, LogisticRegression};
pub use percentage::PercentageModel;
