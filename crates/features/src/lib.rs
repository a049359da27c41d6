//! # pp-features
//!
//! The step featurization every model shares, reproducing §5.2 and §6.1 of
//! the paper:
//!
//! * [`encoding`] — one-hot encoding, the unread-count buckets and the
//!   `⌊(50/15)·ln t⌋` elapsed-time bucketing transform;
//! * [`context`] — context featurization (hour/day one-hots plus the
//!   dataset-specific categorical variables);
//! * [`rnn_input`] — the step features consumed by the RNN
//!   (`[f_i ; T(Δt_i) ; A_i]` and `[f_i ; T(t_i − t_k)]`).
//!
//! The time-window aggregations and the engineered feature vectors of the
//! GBDT and logistic-regression baselines live in `pp-baselines`, next to
//! the only models that read them.
//!
//! # Examples
//!
//! ```
//! use pp_features::rnn_input::RnnFeaturizer;
//! use pp_data::schema::{Context, DatasetKind, Tab};
//!
//! let featurizer = RnnFeaturizer::new(DatasetKind::MobileTab);
//! let ctx = Context::MobileTab { unread_count: 3, active_tab: Tab::Home };
//! let input = featurizer.update_input(2_000, &ctx, 1_000, true);
//! assert_eq!(input.len(), featurizer.update_input_dims());
//! assert_eq!(input.last(), Some(&1.0)); // the access flag A_i
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod context;
pub mod encoding;
pub mod rnn_input;
