//! Step-level feature extraction for the recurrent model (paper §6.1).
//!
//! For each session the GRU update consumes `[f_i ; A_i ; T(Δt_i)]` where
//! `f_i` is the one-hot context/time vector, `A_i` the access flag and
//! `T(Δt_i)` the log-bucketed time since the previous session. Predictions
//! consume `[f_i ; T(t_i − t_k)]` where `t_k` is the timestamp of the last
//! session whose hidden update is already available given the lag δ. The
//! timeshifted variant predicts from `[T(start_d − t_k)]` alone.

use crate::context::ContextFeaturizer;
use crate::encoding::{push_one_hot, time_bucket, TIME_BUCKETS};
use pp_data::schema::{Context, DatasetKind};
use serde::{Deserialize, Serialize};

/// Featurizer producing GRU-update and prediction inputs for one dataset
/// family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RnnFeaturizer {
    context: ContextFeaturizer,
}

impl RnnFeaturizer {
    /// Creates a featurizer for a dataset family.
    pub fn new(kind: DatasetKind) -> Self {
        Self {
            context: ContextFeaturizer::new(kind),
        }
    }

    /// Dimensionality of `[f_i ; T(·)]`, the shared prefix of both the
    /// update input (which appends `A_i`) and the prediction input.
    fn feature_dims(&self) -> usize {
        self.context.dims() + TIME_BUCKETS
    }

    /// Dimensionality of the GRU update input `[f_i ; T(Δt_i) ; A_i]`.
    pub fn update_input_dims(&self) -> usize {
        self.feature_dims() + 1
    }

    /// Dimensionality of the prediction input `[f_i ; T(t_i − t_k)]`.
    pub fn predict_input_dims(&self) -> usize {
        self.feature_dims()
    }

    /// Dimensionality of the timeshifted prediction input `[T(start − t_k)]`.
    pub fn timeshift_predict_dims(&self) -> usize {
        TIME_BUCKETS
    }

    /// Builds `[f_i ; T(elapsed)]` for a session context. `elapsed_secs` is
    /// `Δt_i` for update inputs or `t_i − t_k` for prediction inputs; pass 0
    /// when there is no previous event (the paper sets `Δt_1 = 0` and
    /// `t_i − t_k = 0` when `k = 0`).
    fn features(&self, timestamp: i64, context: &Context, elapsed_secs: i64) -> Vec<f32> {
        let mut out = vec![0.0; self.feature_dims()];
        self.features_into(timestamp, context, elapsed_secs, |index, value| {
            out[index] = value;
        });
        out
    }

    /// [`RnnFeaturizer::features`] without the zeros: emits the entries
    /// that can be non-zero as `(index, value)` in ascending index order,
    /// so a batch assembler can write them straight into its input row.
    fn features_into(
        &self,
        timestamp: i64,
        context: &Context,
        elapsed_secs: i64,
        mut emit: impl FnMut(usize, f32),
    ) {
        self.context
            .featurize_nonzeros(timestamp, context, &mut emit);
        emit(self.context.dims() + time_bucket(elapsed_secs), 1.0);
    }

    /// Builds the full GRU update input `[f_i ; T(Δt_i) ; A_i]`.
    pub fn update_input(
        &self,
        timestamp: i64,
        context: &Context,
        delta_t_secs: i64,
        accessed: bool,
    ) -> Vec<f32> {
        let mut out = vec![0.0; self.update_input_dims()];
        self.update_input_into(
            timestamp,
            context,
            delta_t_secs,
            accessed,
            |index, value| {
                out[index] = value;
            },
        );
        out
    }

    /// [`RnnFeaturizer::update_input`] without the zeros: emits the entries
    /// that can be non-zero as `(index, value)` in ascending index order,
    /// so a batch assembler can write them straight into its input row.
    pub fn update_input_into(
        &self,
        timestamp: i64,
        context: &Context,
        delta_t_secs: i64,
        accessed: bool,
        mut emit: impl FnMut(usize, f32),
    ) {
        self.features_into(timestamp, context, delta_t_secs, &mut emit);
        emit(self.feature_dims(), if accessed { 1.0 } else { 0.0 });
    }

    /// Builds the prediction input `[f_i ; T(t_i − t_k)]`.
    pub fn predict_input(
        &self,
        timestamp: i64,
        context: &Context,
        secs_since_hidden: i64,
    ) -> Vec<f32> {
        self.features(timestamp, context, secs_since_hidden)
    }

    /// [`RnnFeaturizer::predict_input`] as `(index, value)` entries (see
    /// [`RnnFeaturizer::update_input_into`]).
    pub fn predict_input_into(
        &self,
        timestamp: i64,
        context: &Context,
        secs_since_hidden: i64,
        emit: impl FnMut(usize, f32),
    ) {
        self.features_into(timestamp, context, secs_since_hidden, emit);
    }

    /// Builds the timeshifted prediction input `[T(start_d − t_k)]`.
    pub fn timeshift_predict_input(&self, secs_since_hidden: i64) -> Vec<f32> {
        let mut out = Vec::with_capacity(TIME_BUCKETS);
        push_one_hot(&mut out, time_bucket(secs_since_hidden), TIME_BUCKETS);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::schema::Tab;

    fn ctx() -> Context {
        Context::MobileTab {
            unread_count: 2,
            active_tab: Tab::Home,
        }
    }

    #[test]
    fn dims_are_consistent() {
        let f = RnnFeaturizer::new(DatasetKind::MobileTab);
        assert_eq!(f.feature_dims(), 48 + TIME_BUCKETS);
        assert_eq!(f.update_input_dims(), f.feature_dims() + 1);
        assert_eq!(f.predict_input_dims(), f.feature_dims());
        assert_eq!(f.timeshift_predict_dims(), TIME_BUCKETS);

        assert_eq!(f.features(0, &ctx(), 0).len(), f.feature_dims());
        assert_eq!(
            f.update_input(0, &ctx(), 60, true).len(),
            f.update_input_dims()
        );
        assert_eq!(f.predict_input(0, &ctx(), 60).len(), f.predict_input_dims());
        assert_eq!(
            f.timeshift_predict_input(3_600).len(),
            f.timeshift_predict_dims()
        );
    }

    #[test]
    fn entry_forms_rebuild_the_dense_forms_in_ascending_order() {
        for (kind, context) in [
            (DatasetKind::MobileTab, ctx()),
            (DatasetKind::Timeshift, Context::Timeshift { is_peak: true }),
            (
                DatasetKind::Mpu,
                Context::Mpu {
                    screen: pp_data::schema::ScreenState::ALL[1],
                    app_id: 3,
                    last_app_id: 3,
                },
            ),
        ] {
            let f = RnnFeaturizer::new(kind);
            let mut entries = Vec::new();
            f.update_input_into(90_061, &context, 3_600, true, |i, v| entries.push((i, v)));
            assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "{entries:?}");
            let mut rebuilt = vec![0.0; f.update_input_dims()];
            for &(i, v) in &entries {
                rebuilt[i] = v;
            }
            assert_eq!(rebuilt, f.update_input(90_061, &context, 3_600, true));
            let mut rebuilt = vec![0.0; f.predict_input_dims()];
            f.predict_input_into(90_061, &context, 60, |i, v| rebuilt[i] = v);
            assert_eq!(rebuilt, f.predict_input(90_061, &context, 60));
        }
    }

    #[test]
    fn access_flag_is_last_component() {
        let f = RnnFeaturizer::new(DatasetKind::MobileTab);
        let pos = f.update_input(0, &ctx(), 0, true);
        let neg = f.update_input(0, &ctx(), 0, false);
        assert_eq!(*pos.last().unwrap(), 1.0);
        assert_eq!(*neg.last().unwrap(), 0.0);
        assert_eq!(pos[..pos.len() - 1], neg[..neg.len() - 1]);
    }

    #[test]
    fn delta_t_bucket_is_one_hot_in_tail() {
        let f = RnnFeaturizer::new(DatasetKind::Timeshift);
        let v = f.features(0, &Context::Timeshift { is_peak: false }, 3_600);
        let tail = &v[v.len() - TIME_BUCKETS..];
        assert_eq!(tail.iter().sum::<f32>(), 1.0);
        assert_eq!(tail[time_bucket(3_600)], 1.0);
        // Different elapsed time lands in a different bucket.
        let v2 = f.features(0, &Context::Timeshift { is_peak: false }, 7 * 86_400);
        assert_ne!(v, v2);
    }

    #[test]
    fn zero_elapsed_maps_to_bucket_zero() {
        let f = RnnFeaturizer::new(DatasetKind::Mpu);
        let v = f.timeshift_predict_input(0);
        assert_eq!(v[0], 1.0);
        assert_eq!(v.iter().sum::<f32>(), 1.0);
    }
}
