//! Context featurization: turning a [`Context`] plus session timestamp into
//! the fixed-length numeric vector `f_i` used by every model (paper §5.2
//! "one-hot encoding of categorical variables" and "time-based features",
//! and §6.1 "feature extraction" for the RNN).

use crate::encoding::{unread_bucket, UNREAD_BUCKETS};
use pp_data::schema::{day_of_week, hour_of_day, Context, DatasetKind, ScreenState, Tab};
use pp_data::synth::NUM_APPS;
use serde::{Deserialize, Serialize};

/// Number of hour-of-day categories.
const HOURS: usize = 24;
/// Number of day-of-week categories.
const DAYS: usize = 7;

/// Featurizer that maps `(timestamp, context)` to a dense vector for a given
/// dataset family. The layout is fixed per dataset kind so that feature
/// indices are stable across sessions and users.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextFeaturizer {
    kind: DatasetKind,
}

impl ContextFeaturizer {
    /// Creates a featurizer for a dataset family.
    pub fn new(kind: DatasetKind) -> Self {
        Self { kind }
    }

    /// Dimensionality of the produced vectors.
    pub fn dims(&self) -> usize {
        HOURS
            + DAYS
            + match self.kind {
                DatasetKind::MobileTab => UNREAD_BUCKETS + Tab::ALL.len() + 1, // +1 raw unread
                DatasetKind::Timeshift => 1,                                   // is_peak
                DatasetKind::Mpu => {
                    ScreenState::ALL.len() + NUM_APPS as usize + NUM_APPS as usize + 1
                    // +1 same-app flag
                }
            }
    }

    /// Featurizes into an existing buffer (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if the context kind does not match the featurizer's dataset.
    pub fn featurize_into(&self, timestamp: i64, context: &Context, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.dims(), 0.0);
        self.featurize_nonzeros(timestamp, context, |index, value| out[index] = value);
    }

    /// Emits the entries of the feature vector that can be non-zero — one
    /// per one-hot group plus the scalars — as `(index, value)` in ascending
    /// index order, without materialising the zeros between them. This is
    /// the layout's single definition; the dense forms are built from it.
    ///
    /// # Panics
    ///
    /// Panics if the context kind does not match the featurizer's dataset.
    pub(crate) fn featurize_nonzeros(
        &self,
        timestamp: i64,
        context: &Context,
        emit: impl FnMut(usize, f32),
    ) {
        assert_eq!(
            context.kind(),
            self.kind,
            "context kind does not match featurizer dataset"
        );
        let mut layout = Layout { at: 0, emit };
        layout.one_hot(hour_of_day(timestamp) as usize, HOURS);
        layout.one_hot(day_of_week(timestamp) as usize, DAYS);
        match *context {
            Context::MobileTab {
                unread_count,
                active_tab,
            } => {
                layout.one_hot(unread_bucket(unread_count), UNREAD_BUCKETS);
                layout.one_hot(active_tab.index(), Tab::ALL.len());
                layout.scalar(unread_count as f32 / 99.0);
            }
            Context::Timeshift { is_peak } => {
                layout.scalar(if is_peak { 1.0 } else { 0.0 });
            }
            Context::Mpu {
                screen,
                app_id,
                last_app_id,
            } => {
                layout.one_hot(screen.index(), ScreenState::ALL.len());
                layout.one_hot(app_id as usize, NUM_APPS as usize);
                layout.one_hot(last_app_id as usize, NUM_APPS as usize);
                layout.scalar(if app_id == last_app_id { 1.0 } else { 0.0 });
            }
        }
        debug_assert_eq!(layout.at, self.dims());
    }
}

/// Walks a feature layout group by group, emitting each group's entry at
/// the running offset.
struct Layout<F> {
    at: usize,
    emit: F,
}

impl<F: FnMut(usize, f32)> Layout<F> {
    fn one_hot(&mut self, index: usize, size: usize) {
        assert!(index < size, "one-hot index {index} out of range {size}");
        (self.emit)(self.at + index, 1.0);
        self.at += size;
    }

    fn scalar(&mut self, value: f32) {
        (self.emit)(self.at, value);
        self.at += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::schema::Tab;

    #[test]
    fn dims_match_layout() {
        let mt = ContextFeaturizer::new(DatasetKind::MobileTab);
        assert_eq!(mt.dims(), 24 + 7 + 8 + 8 + 1);
        let ts = ContextFeaturizer::new(DatasetKind::Timeshift);
        assert_eq!(ts.dims(), 24 + 7 + 1);
        let mpu = ContextFeaturizer::new(DatasetKind::Mpu);
        assert_eq!(mpu.dims(), 24 + 7 + 3 + 32 + 32 + 1);
    }

    #[test]
    fn featurize_produces_correct_one_hots() {
        let f = ContextFeaturizer::new(DatasetKind::MobileTab);
        let ctx = Context::MobileTab {
            unread_count: 5,
            active_tab: Tab::Messages,
        };
        // Timestamp at 13:00 on a day with day_of_week 2.
        let ts = 2 * 86_400 + 13 * 3_600;
        let mut v = Vec::new();
        f.featurize_into(ts, &ctx, &mut v);
        assert_eq!(v.len(), f.dims());
        assert_eq!(v[13], 1.0); // hour one-hot
        assert_eq!(v.iter().take(24).sum::<f32>(), 1.0);
        assert_eq!(v[24 + 2], 1.0); // day-of-week one-hot
        let unread_offset = 24 + 7;
        assert_eq!(v[unread_offset + unread_bucket(5)], 1.0);
        let tab_offset = unread_offset + UNREAD_BUCKETS;
        assert_eq!(v[tab_offset + Tab::Messages.index()], 1.0);
        assert!((v[tab_offset + 8] - 5.0 / 99.0).abs() < 1e-6);
    }

    #[test]
    fn featurize_into_reuses_buffer() {
        let f = ContextFeaturizer::new(DatasetKind::Timeshift);
        let mut buf = vec![1.0; 100];
        f.featurize_into(0, &Context::Timeshift { is_peak: true }, &mut buf);
        assert_eq!(buf.len(), f.dims());
        assert_eq!(*buf.last().unwrap(), 1.0);
        f.featurize_into(0, &Context::Timeshift { is_peak: false }, &mut buf);
        assert_eq!(*buf.last().unwrap(), 0.0);
    }

    #[test]
    #[should_panic(expected = "does not match featurizer dataset")]
    fn kind_mismatch_panics() {
        let f = ContextFeaturizer::new(DatasetKind::Timeshift);
        f.featurize_into(
            0,
            &Context::MobileTab {
                unread_count: 0,
                active_tab: Tab::Home,
            },
            &mut Vec::new(),
        );
    }
}
