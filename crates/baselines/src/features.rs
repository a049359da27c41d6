//! Full feature-engineering pipeline for the traditional (baseline) models:
//! logistic regression and GBDT (paper §5.2–5.4), including the feature-set
//! ablation axis of Table 5 (C, E+C, A+E+C).

use crate::aggregation::{AggregationState, ContextSubset, WINDOWS_SECS};
use pp_data::schema::{Context, Dataset, DatasetKind, SECONDS_PER_DAY};
use pp_data::synth::{build_peak_window_examples, peak_window_start};
use pp_features::context::ContextFeaturizer;
use pp_features::encoding::{push_one_hot, time_bucket, TIME_BUCKETS};
use serde::{Deserialize, Serialize};

/// Which groups of engineered features to include (the ablation axis of
/// Table 5). `A` = time-based aggregations, `E` = time-elapsed features,
/// `C` = contextual features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureSet {
    /// Contextual features only (Table 5 row "C").
    Contextual,
    /// Time-elapsed + contextual features (Table 5 row "E + C").
    ElapsedContextual,
    /// Aggregations + elapsed + contextual (Table 5 row "A + E + C", the
    /// full baseline feature set).
    Full,
}

impl FeatureSet {
    /// Whether elapsed-time features are included.
    pub fn has_elapsed(self) -> bool {
        matches!(self, FeatureSet::ElapsedContextual | FeatureSet::Full)
    }

    /// Whether aggregation features are included.
    pub fn has_aggregations(self) -> bool {
        matches!(self, FeatureSet::Full)
    }
}

impl std::fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeatureSet::Contextual => write!(f, "C"),
            FeatureSet::ElapsedContextual => write!(f, "E+C"),
            FeatureSet::Full => write!(f, "A+E+C"),
        }
    }
}

/// How elapsed-time values are encoded.
///
/// The paper one-hot encodes the 50 log-buckets for logistic regression but
/// feeds raw (log-transformed) values to GBDT ("we skip the one-hot encoding
/// step for time-elapsed features").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElapsedEncoding {
    /// One-hot over the 50 log-buckets plus a "never" indicator (for LR).
    OneHotBuckets,
    /// A single normalized log value plus a "never" indicator (for GBDT).
    Scalar,
}

/// Continuous form of the elapsed-time transform used where a scalar is more
/// convenient than a one-hot (e.g. GBDT inputs): `ln(1 + t)` normalized by
/// `ln(1 + 30 days)` so the output lies in `[0, ~1]`.
pub fn log_elapsed_normalized(elapsed_secs: i64) -> f32 {
    let t = elapsed_secs.max(0) as f64;
    let max = (30.0 * 86_400.0_f64 + 1.0).ln();
    ((t + 1.0).ln() / max) as f32
}

/// Featurizer producing fixed-length vectors for the baseline models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineFeaturizer {
    context: ContextFeaturizer,
    feature_set: FeatureSet,
    elapsed_encoding: ElapsedEncoding,
    kind: DatasetKind,
}

impl BaselineFeaturizer {
    /// Creates a featurizer for a dataset family.
    pub fn new(
        kind: DatasetKind,
        feature_set: FeatureSet,
        elapsed_encoding: ElapsedEncoding,
    ) -> Self {
        Self {
            context: ContextFeaturizer::new(kind),
            feature_set,
            elapsed_encoding,
            kind,
        }
    }

    /// The feature-set ablation level.
    pub fn feature_set(&self) -> FeatureSet {
        self.feature_set
    }

    /// The dataset family.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    fn num_subsets(&self) -> usize {
        ContextSubset::enumerate(self.kind).len()
    }

    fn elapsed_dims_per_value(&self) -> usize {
        match self.elapsed_encoding {
            ElapsedEncoding::OneHotBuckets => TIME_BUCKETS + 1,
            ElapsedEncoding::Scalar => 2,
        }
    }

    /// Dimensionality of the produced feature vectors.
    pub fn dims(&self) -> usize {
        let mut d = self.context.dims();
        if self.feature_set.has_elapsed() {
            // Two elapsed values (since last access / since last session) per
            // context subset.
            d += self.num_subsets() * 2 * self.elapsed_dims_per_value();
        }
        if self.feature_set.has_aggregations() {
            // Three values (sessions, accesses, ratio) per subset × window.
            d += self.num_subsets() * WINDOWS_SECS.len() * 3;
        }
        d
    }

    fn push_elapsed(&self, out: &mut Vec<f32>, elapsed: Option<i64>) {
        match self.elapsed_encoding {
            ElapsedEncoding::OneHotBuckets => {
                match elapsed {
                    // Bucket one-hot plus trailing 0 "never" flag.
                    Some(t) => {
                        push_one_hot(out, time_bucket(t), TIME_BUCKETS);
                        out.push(0.0);
                    }
                    None => {
                        out.extend(std::iter::repeat_n(0.0, TIME_BUCKETS));
                        out.push(1.0);
                    }
                }
            }
            ElapsedEncoding::Scalar => match elapsed {
                Some(t) => {
                    out.push(log_elapsed_normalized(t));
                    out.push(0.0);
                }
                None => {
                    out.push(1.0); // "a long time ago / never"
                    out.push(1.0);
                }
            },
        }
    }

    /// Builds the feature vector for a prediction at `timestamp` with the
    /// given `context`, using the user's aggregation state over *previous*
    /// sessions.
    ///
    /// # Panics
    ///
    /// Panics if the context kind does not match the featurizer.
    pub fn extract(&self, state: &AggregationState, timestamp: i64, context: &Context) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dims());
        self.context.featurize_into(timestamp, context, &mut out);
        if self.feature_set.has_elapsed() {
            for e in state.elapsed_times(timestamp, context) {
                self.push_elapsed(&mut out, e.since_last_access);
                self.push_elapsed(&mut out, e.since_last_session);
            }
        }
        if self.feature_set.has_aggregations() {
            for c in state.window_counts(timestamp, context) {
                // log1p keeps counts in a reasonable numeric range for LR.
                out.push((1.0 + c.sessions as f32).ln());
                out.push((1.0 + c.accesses as f32).ln());
                out.push(c.ratio() as f32);
            }
        }
        debug_assert_eq!(out.len(), self.dims());
        out
    }
}

/// A labeled training or evaluation example for the baseline models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledExample {
    /// Dense feature vector.
    pub features: Vec<f32>,
    /// Ground-truth access flag.
    pub label: bool,
    /// Session (or peak-window) timestamp.
    pub timestamp: i64,
    /// Index of the user in the dataset's user list.
    pub user_index: usize,
    /// Day offset (0-based) of the example relative to the dataset start.
    pub day_offset: u32,
}

/// Builds per-session examples for the given users, replaying each user's
/// history in order so that the features for session *i* only see sessions
/// `1..i-1`.
///
/// `last_days` restricts emitted examples to the final `n` days of the
/// dataset (while still warming aggregations on the earlier days), matching
/// the paper's protocol: baselines train on the last 7 days and all offline
/// evaluations use the last 7 days of the test users.
pub fn build_session_examples(
    dataset: &Dataset,
    user_indices: &[usize],
    featurizer: &BaselineFeaturizer,
    last_days: Option<u32>,
) -> Vec<LabeledExample> {
    let cutoff = last_days.map(|d| dataset.end_timestamp() - (d as i64) * SECONDS_PER_DAY);
    let mut examples = Vec::new();
    for &user_index in user_indices {
        let user = &dataset.users[user_index];
        let mut state = AggregationState::new(dataset.kind);
        for session in &user.sessions {
            let include = cutoff.is_none_or(|c| session.timestamp >= c);
            if include {
                let features = featurizer.extract(&state, session.timestamp, &session.context);
                let day_offset =
                    ((session.timestamp - dataset.start_timestamp) / SECONDS_PER_DAY).max(0) as u32;
                examples.push(LabeledExample {
                    features,
                    label: session.accessed,
                    timestamp: session.timestamp,
                    user_index,
                    day_offset,
                });
            }
            state.record(session.timestamp, &session.context, session.accessed);
        }
    }
    examples
}

/// Builds the timeshifted-precompute examples (paper §3.2.1): one example
/// per user × peak window, with features computed `lead_time_secs` before
/// the window opens from the access log alone. The query context is a
/// synthetic "peak" context so that the peak-conditioned aggregation subset
/// captures "accesses at peak" as the paper's percentage baseline does.
pub fn build_timeshift_examples(
    dataset: &Dataset,
    user_indices: &[usize],
    featurizer: &BaselineFeaturizer,
    lead_time_secs: i64,
    last_days: Option<u32>,
) -> Vec<LabeledExample> {
    assert_eq!(
        dataset.kind,
        DatasetKind::Timeshift,
        "timeshift examples require the Timeshift dataset"
    );
    let windows = build_peak_window_examples(dataset, lead_time_secs);
    let selected: std::collections::HashSet<usize> = user_indices.iter().copied().collect();
    let cutoff_day = last_days.map(|d| dataset.num_days.saturating_sub(d));
    let first_day = dataset.start_timestamp.div_euclid(SECONDS_PER_DAY);
    // Group windows by user for one chronological replay per user.
    let mut examples = Vec::new();
    for &user_index in user_indices {
        let user = &dataset.users[user_index];
        if !selected.contains(&user_index) {
            continue;
        }
        let user_windows: Vec<_> = windows
            .iter()
            .filter(|w| w.user_id == user.user_id)
            .collect();
        let mut state = AggregationState::new(dataset.kind);
        let mut next_session = 0usize;
        let query_context = Context::Timeshift { is_peak: true };
        for w in user_windows {
            let horizon = w.window_start - lead_time_secs;
            // Record all sessions up to the prediction horizon.
            while next_session < user.sessions.len()
                && user.sessions[next_session].timestamp < horizon
            {
                let s = &user.sessions[next_session];
                state.record(s.timestamp, &s.context, s.accessed);
                next_session += 1;
            }
            let day_offset = (w.day_index - first_day).max(0) as u32;
            if cutoff_day.is_none_or(|c| day_offset >= c) {
                let features =
                    featurizer.extract(&state, peak_window_start(w.day_index), &query_context);
                examples.push(LabeledExample {
                    features,
                    label: w.accessed_in_window,
                    timestamp: w.window_start,
                    user_index,
                    day_offset,
                });
            }
        }
    }
    examples
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::synth::{
        MobileTabConfig, MobileTabGenerator, SyntheticGenerator, TimeshiftConfig,
        TimeshiftGenerator,
    };

    fn tiny_mobiletab() -> Dataset {
        MobileTabGenerator::new(MobileTabConfig {
            num_users: 20,
            ..Default::default()
        })
        .generate()
    }

    #[test]
    fn log_elapsed_normalized_range() {
        assert_eq!(log_elapsed_normalized(0), 0.0);
        assert!(log_elapsed_normalized(30 * 86_400) <= 1.001);
        assert!(log_elapsed_normalized(60) < log_elapsed_normalized(3_600));
    }

    #[test]
    fn feature_set_flags() {
        assert!(!FeatureSet::Contextual.has_elapsed());
        assert!(FeatureSet::ElapsedContextual.has_elapsed());
        assert!(!FeatureSet::ElapsedContextual.has_aggregations());
        assert!(FeatureSet::Full.has_aggregations());
        assert_eq!(FeatureSet::Full.to_string(), "A+E+C");
    }

    #[test]
    fn dims_consistent_with_extract() {
        let ds = tiny_mobiletab();
        for set in [
            FeatureSet::Contextual,
            FeatureSet::ElapsedContextual,
            FeatureSet::Full,
        ] {
            for enc in [ElapsedEncoding::OneHotBuckets, ElapsedEncoding::Scalar] {
                let f = BaselineFeaturizer::new(ds.kind, set, enc);
                let state = AggregationState::new(ds.kind);
                let user = ds.users.iter().find(|u| !u.is_empty()).unwrap();
                let s = &user.sessions[0];
                let v = f.extract(&state, s.timestamp, &s.context);
                assert_eq!(v.len(), f.dims(), "set={set} enc={enc:?}");
            }
        }
    }

    #[test]
    fn contextual_dims_smaller_than_full() {
        let c = BaselineFeaturizer::new(
            DatasetKind::MobileTab,
            FeatureSet::Contextual,
            ElapsedEncoding::Scalar,
        );
        let full = BaselineFeaturizer::new(
            DatasetKind::MobileTab,
            FeatureSet::Full,
            ElapsedEncoding::Scalar,
        );
        assert!(c.dims() < full.dims());
        // With scalar encoding: context 48 + 4 subsets × 2 × 2 + 4×4×3 = 48+16+48.
        assert_eq!(full.dims(), 48 + 16 + 48);
    }

    #[test]
    fn session_examples_use_only_past_information() {
        let ds = tiny_mobiletab();
        let f = BaselineFeaturizer::new(ds.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
        // For the first session of every user, all aggregation counts must be
        // zero (no history yet).
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let examples = build_session_examples(&ds, &idx, &f, None);
        let agg_offset = f.dims() - 4 * 4 * 3;
        for &ui in &idx {
            if let Some(first) = examples.iter().find(|e| e.user_index == ui) {
                let agg = &first.features[agg_offset..];
                assert!(
                    agg.iter().all(|&x| x == 0.0),
                    "first session of user {ui} must see empty aggregations"
                );
            }
        }
    }

    #[test]
    fn last_days_filter_restricts_examples_but_keeps_warmup() {
        let ds = tiny_mobiletab();
        let f = BaselineFeaturizer::new(ds.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let all = build_session_examples(&ds, &idx, &f, None);
        let last7 = build_session_examples(&ds, &idx, &f, Some(7));
        assert!(last7.len() < all.len());
        assert!(last7.iter().all(|e| e.day_offset >= ds.num_days - 7));
        // Warm-up: a last-7-days example of an active user should see
        // non-zero aggregation counts even though earlier sessions are not
        // emitted as examples.
        let agg_offset = f.dims() - 4 * 4 * 3;
        let warmed = last7
            .iter()
            .any(|e| e.features[agg_offset..].iter().any(|&x| x > 0.0));
        assert!(warmed, "aggregations must be warmed by pre-cutoff sessions");
    }

    #[test]
    fn timeshift_examples_one_per_user_day() {
        let ds = TimeshiftGenerator::new(TimeshiftConfig {
            num_users: 10,
            ..Default::default()
        })
        .generate();
        let f = BaselineFeaturizer::new(ds.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let examples = build_timeshift_examples(&ds, &idx, &f, 6 * 3_600, None);
        assert_eq!(examples.len(), 10 * ds.num_days as usize);
        let last7 = build_timeshift_examples(&ds, &idx, &f, 6 * 3_600, Some(7));
        assert_eq!(last7.len(), 10 * 7);
        assert!(last7.iter().all(|e| e.features.len() == f.dims()));
    }

    #[test]
    #[should_panic(expected = "require the Timeshift dataset")]
    fn timeshift_examples_reject_wrong_dataset() {
        let ds = tiny_mobiletab();
        let f = BaselineFeaturizer::new(ds.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
        let _ = build_timeshift_examples(&ds, &[0], &f, 0, None);
    }
}
