//! Context featurization: turning a [`Context`] plus session timestamp into
//! the fixed-length numeric vector `f_i` used by every model (paper §5.2
//! "one-hot encoding of categorical variables" and "time-based features",
//! and §6.1 "feature extraction" for the RNN).
//!
//! The same module also defines the *context dimensions* used to condition
//! aggregation features ("accesses with the same active tab", etc.).

use crate::encoding::{unread_bucket, UNREAD_BUCKETS};
use pp_data::schema::{day_of_week, hour_of_day, Context, DatasetKind, ScreenState, Tab};
use pp_data::synth::NUM_APPS;
use serde::{Deserialize, Serialize};

/// Number of hour-of-day categories.
pub const HOURS: usize = 24;
/// Number of day-of-week categories.
pub const DAYS: usize = 7;

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

    /// The dataset family this featurizer expects.
    pub fn kind(&self) -> DatasetKind {
        self.kind
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

    /// Featurizes a session's context into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if the context kind does not match the featurizer's dataset.
    pub fn featurize(&self, timestamp: i64, context: &Context) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dims());
        self.featurize_into(timestamp, context, &mut out);
        out
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
    pub fn featurize_nonzeros(
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

/// A context *dimension* used to condition aggregation features, e.g. "only
/// count past sessions whose active tab matches the current one"
/// (paper §5.2, "filter past accesses to those whose contexts match the
/// current session context").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContextDimension {
    /// MobileTab: the bucketized unread badge count.
    UnreadBucket,
    /// MobileTab: the active tab at startup.
    ActiveTab,
    /// Timeshift: the peak-hours flag.
    PeakFlag,
    /// MPU: the screen state.
    Screen,
    /// MPU: the application that posted the notification.
    AppId,
    /// MPU: the previously opened application.
    LastAppId,
}

impl ContextDimension {
    /// The dimensions available for a dataset family, in a fixed order.
    pub fn for_kind(kind: DatasetKind) -> &'static [ContextDimension] {
        match kind {
            DatasetKind::MobileTab => {
                &[ContextDimension::UnreadBucket, ContextDimension::ActiveTab]
            }
            DatasetKind::Timeshift => &[ContextDimension::PeakFlag],
            DatasetKind::Mpu => &[
                ContextDimension::Screen,
                ContextDimension::AppId,
                ContextDimension::LastAppId,
            ],
        }
    }

    /// Extracts the categorical value of this dimension from a context.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not apply to the context's dataset.
    pub fn value(&self, context: &Context) -> u64 {
        match (self, context) {
            (ContextDimension::UnreadBucket, Context::MobileTab { unread_count, .. }) => {
                unread_bucket(*unread_count) as u64
            }
            (ContextDimension::ActiveTab, Context::MobileTab { active_tab, .. }) => {
                active_tab.index() as u64
            }
            (ContextDimension::PeakFlag, Context::Timeshift { is_peak }) => *is_peak as u64,
            (ContextDimension::Screen, Context::Mpu { screen, .. }) => screen.index() as u64,
            (ContextDimension::AppId, Context::Mpu { app_id, .. }) => *app_id as u64,
            (ContextDimension::LastAppId, Context::Mpu { last_app_id, .. }) => *last_app_id as u64,
            _ => panic!("context dimension {self:?} does not apply to {context:?}"),
        }
    }
}

/// A *subset* of context dimensions, encoded as a bitmask over
/// [`ContextDimension::for_kind`]. Subset 0 is the empty subset (global
/// aggregations). The paper conditions aggregations on "all (time window) ×
/// (matching subset of context) combinations".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ContextSubset {
    /// Dataset family the subset applies to.
    pub kind: DatasetKind,
    /// Bitmask over the dataset's dimensions.
    pub mask: u8,
}

impl ContextSubset {
    /// Enumerates every subset (including the empty one) for a dataset.
    pub fn enumerate(kind: DatasetKind) -> Vec<ContextSubset> {
        let n = ContextDimension::for_kind(kind).len();
        (0..(1u8 << n))
            .map(|mask| ContextSubset { kind, mask })
            .collect()
    }

    /// Number of dimensions included in the subset.
    pub fn arity(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Computes a compact key identifying the values of the subset's
    /// dimensions within `context`. Two sessions "match" on this subset iff
    /// their keys are equal. The empty subset always returns 0.
    pub fn key(&self, context: &Context) -> u64 {
        let dims = ContextDimension::for_kind(self.kind);
        let mut key: u64 = 0;
        for (i, dim) in dims.iter().enumerate() {
            if self.mask & (1 << i) != 0 {
                // 10 bits per dimension is plenty (max cardinality here is 97).
                key = (key << 10) | (dim.value(context) & 0x3FF);
            } else {
                key <<= 10;
            }
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::schema::{ScreenState, Tab};

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
        let v = f.featurize(ts, &ctx);
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
        let _ = f.featurize(
            0,
            &Context::MobileTab {
                unread_count: 0,
                active_tab: Tab::Home,
            },
        );
    }

    #[test]
    fn subsets_enumeration_counts() {
        assert_eq!(ContextSubset::enumerate(DatasetKind::MobileTab).len(), 4);
        assert_eq!(ContextSubset::enumerate(DatasetKind::Timeshift).len(), 2);
        assert_eq!(ContextSubset::enumerate(DatasetKind::Mpu).len(), 8);
    }

    #[test]
    fn subset_keys_match_iff_dimensions_match() {
        let subsets = ContextSubset::enumerate(DatasetKind::MobileTab);
        let a = Context::MobileTab {
            unread_count: 5,
            active_tab: Tab::Home,
        };
        let b = Context::MobileTab {
            unread_count: 5,
            active_tab: Tab::Messages,
        };
        let c = Context::MobileTab {
            unread_count: 0,
            active_tab: Tab::Home,
        };
        // Empty subset: everything matches.
        assert_eq!(subsets[0].key(&a), subsets[0].key(&b));
        // Unread-only subset (bit 0): a and b match (same unread bucket), a and c don't.
        let unread_only = ContextSubset {
            kind: DatasetKind::MobileTab,
            mask: 0b01,
        };
        assert_eq!(unread_only.key(&a), unread_only.key(&b));
        assert_ne!(unread_only.key(&a), unread_only.key(&c));
        // Tab-only subset (bit 1): a and c match, a and b don't.
        let tab_only = ContextSubset {
            kind: DatasetKind::MobileTab,
            mask: 0b10,
        };
        assert_eq!(tab_only.key(&a), tab_only.key(&c));
        assert_ne!(tab_only.key(&a), tab_only.key(&b));
        // Full subset: only exact matches.
        let full = ContextSubset {
            kind: DatasetKind::MobileTab,
            mask: 0b11,
        };
        assert_ne!(full.key(&a), full.key(&b));
        assert_ne!(full.key(&a), full.key(&c));
        assert_eq!(full.arity(), 2);
    }

    #[test]
    fn mpu_dimension_values() {
        let ctx = Context::Mpu {
            screen: ScreenState::Unlocked,
            app_id: 7,
            last_app_id: 3,
        };
        assert_eq!(ContextDimension::Screen.value(&ctx), 2);
        assert_eq!(ContextDimension::AppId.value(&ctx), 7);
        assert_eq!(ContextDimension::LastAppId.value(&ctx), 3);
    }

    #[test]
    #[should_panic(expected = "does not apply")]
    fn wrong_dimension_panics() {
        let ctx = Context::Timeshift { is_peak: true };
        let _ = ContextDimension::ActiveTab.value(&ctx);
    }
}
