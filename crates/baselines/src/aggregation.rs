//! Time-window × context-subset aggregation features (paper §5.2).
//!
//! For every combination of a *time window* (last 28 days, 7 days, 1 day,
//! 1 hour) and a *matching subset of context dimensions*, traditional models
//! consume the number of past accesses, the number of past sessions, and
//! their ratio, plus "time elapsed since last access / last session"
//! conditioned on the same subsets. The RNN model exists precisely to make
//! this machinery unnecessary, but reproducing it faithfully matters both
//! for the baseline quality (Table 5 shows the metrics collapse without it)
//! and for the serving-cost comparison (§9: ~20 feature lookups per
//! prediction and potentially thousands of keys per user).
//!
//! The same module also defines the *context dimensions* used to condition
//! aggregation features ("accesses with the same active tab", etc.).

use pp_data::schema::{Context, DatasetKind};
use pp_features::encoding::unread_bucket;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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

/// The aggregation time windows used by the paper, in seconds.
pub const WINDOWS_SECS: [i64; 4] = [28 * 86_400, 7 * 86_400, 86_400, 3_600];

/// Append-only per-key event log supporting "count since" queries in
/// `O(log n)` via binary search over the sorted timestamps.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct KeyedLog {
    timestamps: Vec<i64>,
    cumulative_accesses: Vec<u32>,
    last_access_ts: Option<i64>,
}

impl KeyedLog {
    fn push(&mut self, timestamp: i64, accessed: bool) {
        debug_assert!(
            self.timestamps.last().is_none_or(|&t| t <= timestamp),
            "events must be recorded in chronological order"
        );
        let prev = self.cumulative_accesses.last().copied().unwrap_or(0);
        self.timestamps.push(timestamp);
        self.cumulative_accesses.push(prev + accessed as u32);
        if accessed {
            self.last_access_ts = Some(timestamp);
        }
    }

    fn sessions_since(&self, since: i64) -> usize {
        let idx = self.timestamps.partition_point(|&t| t < since);
        self.timestamps.len() - idx
    }

    fn accesses_since(&self, since: i64) -> usize {
        let idx = self.timestamps.partition_point(|&t| t < since);
        let total = self.cumulative_accesses.last().copied().unwrap_or(0);
        let before = if idx == 0 {
            0
        } else {
            self.cumulative_accesses[idx - 1]
        };
        (total - before) as usize
    }

    fn last_session_ts(&self) -> Option<i64> {
        self.timestamps.last().copied()
    }
}

/// Elapsed-time observations for one context subset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElapsedTimes {
    /// Seconds since the most recent *access* whose context matches the
    /// subset, or `None` if there has been none.
    pub since_last_access: Option<i64>,
    /// Seconds since the most recent *session* whose context matches the
    /// subset, or `None` if there has been none.
    pub since_last_session: Option<i64>,
}

/// Aggregated counts for one (context subset × time window) cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowCounts {
    /// Number of sessions inside the window with a matching context.
    pub sessions: usize,
    /// Number of accesses inside the window with a matching context.
    pub accesses: usize,
}

impl WindowCounts {
    /// Access ratio (0 when there are no sessions).
    pub fn ratio(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.accesses as f64 / self.sessions as f64
        }
    }
}

/// Incremental per-user aggregation state.
///
/// Sessions are [`AggregationState::record`]ed in chronological order; at
/// prediction time [`AggregationState::window_counts`] and
/// [`AggregationState::elapsed_times`] answer the aggregation queries for
/// the *current* context. The struct also tracks the bookkeeping the serving
/// cost model needs: how many distinct keys exist for this user and how many
/// key lookups one prediction requires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregationState {
    kind: DatasetKind,
    subsets: Vec<ContextSubset>,
    logs: HashMap<(u8, u64), KeyedLog>,
    num_recorded: usize,
}

impl AggregationState {
    /// Creates empty aggregation state for one user of the given dataset.
    pub fn new(kind: DatasetKind) -> Self {
        Self {
            kind,
            subsets: ContextSubset::enumerate(kind),
            logs: HashMap::new(),
            num_recorded: 0,
        }
    }

    /// The dataset family.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// Number of context subsets (including the empty, global subset).
    pub fn num_subsets(&self) -> usize {
        self.subsets.len()
    }

    /// Number of sessions recorded so far.
    pub fn num_recorded(&self) -> usize {
        self.num_recorded
    }

    /// Number of distinct `(subset, key)` entries this user's aggregations
    /// occupy in a key-value store — the paper notes this "may result in
    /// thousands of unique keys per user".
    pub fn num_storage_keys(&self) -> usize {
        self.logs.len()
    }

    /// Number of key-value lookups required to serve one prediction: one per
    /// (subset × window) cell plus one per subset for the elapsed-time
    /// features (≈ 20 for MobileTab, matching §9).
    pub fn lookups_per_prediction(&self) -> usize {
        self.num_subsets() * WINDOWS_SECS.len() + self.num_subsets()
    }

    /// Records a completed session.
    ///
    /// # Panics
    ///
    /// Panics if the context kind does not match the state's dataset.
    pub fn record(&mut self, timestamp: i64, context: &Context, accessed: bool) {
        assert_eq!(context.kind(), self.kind, "context kind mismatch");
        for (i, subset) in self.subsets.iter().enumerate() {
            let key = (i as u8, subset.key(context));
            self.logs.entry(key).or_default().push(timestamp, accessed);
        }
        self.num_recorded += 1;
    }

    /// Counts for every (subset × window) cell given the current context,
    /// ordered subset-major then window-major (same order as
    /// [`WINDOWS_SECS`]).
    pub fn window_counts(&self, now: i64, context: &Context) -> Vec<WindowCounts> {
        let mut out = Vec::with_capacity(self.num_subsets() * WINDOWS_SECS.len());
        for (i, subset) in self.subsets.iter().enumerate() {
            let key = (i as u8, subset.key(context));
            let log = self.logs.get(&key);
            for &window in &WINDOWS_SECS {
                let since = now - window;
                let (sessions, accesses) = match log {
                    Some(l) => (l.sessions_since(since), l.accesses_since(since)),
                    None => (0, 0),
                };
                out.push(WindowCounts { sessions, accesses });
            }
        }
        out
    }

    /// Elapsed times for every subset given the current context, in subset
    /// order.
    pub fn elapsed_times(&self, now: i64, context: &Context) -> Vec<ElapsedTimes> {
        self.subsets
            .iter()
            .enumerate()
            .map(|(i, subset)| {
                let key = (i as u8, subset.key(context));
                match self.logs.get(&key) {
                    Some(l) => ElapsedTimes {
                        since_last_access: l.last_access_ts.map(|t| (now - t).max(0)),
                        since_last_session: l.last_session_ts().map(|t| (now - t).max(0)),
                    },
                    None => ElapsedTimes {
                        since_last_access: None,
                        since_last_session: None,
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::schema::{ScreenState, Tab};

    fn ctx(unread: u8, tab: Tab) -> Context {
        Context::MobileTab {
            unread_count: unread,
            active_tab: tab,
        }
    }

    #[test]
    fn counts_respect_windows() {
        let mut state = AggregationState::new(DatasetKind::MobileTab);
        let c = ctx(0, Tab::Home);
        // One session 10 days ago (accessed), one 2 days ago (not), one 30
        // minutes ago (accessed).
        let now = 100 * 86_400;
        state.record(now - 10 * 86_400, &c, true);
        state.record(now - 2 * 86_400, &c, false);
        state.record(now - 1_800, &c, true);

        let counts = state.window_counts(now, &c);
        assert_eq!(counts.len(), 4 * 4); // 4 subsets × 4 windows
                                         // Global subset is index 0; windows are [28d, 7d, 1d, 1h].
        assert_eq!(counts[0].sessions, 3);
        assert_eq!(counts[0].accesses, 2);
        assert_eq!(counts[1].sessions, 2); // 7d: excludes the 10-day-old one
        assert_eq!(counts[1].accesses, 1);
        assert_eq!(counts[2].sessions, 1); // 1d
        assert_eq!(counts[3].sessions, 1); // 1h
        assert!((counts[0].ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn context_conditioned_counts_only_match_same_key() {
        let mut state = AggregationState::new(DatasetKind::MobileTab);
        let now = 50 * 86_400;
        state.record(now - 100, &ctx(0, Tab::Home), true);
        state.record(now - 50, &ctx(0, Tab::Messages), true);

        // Query with Home tab: the tab-conditioned subsets should only see
        // the Home session while the global subset sees both.
        let counts = state.window_counts(now, &ctx(0, Tab::Home));
        let global_28d = counts[0];
        assert_eq!(global_28d.sessions, 2);
        // Subset with mask 0b10 (ActiveTab) is the third subset (index 2).
        let tab_28d = counts[2 * 4];
        assert_eq!(tab_28d.sessions, 1);
        assert_eq!(tab_28d.accesses, 1);
    }

    #[test]
    fn elapsed_times_track_access_and_session_separately() {
        let mut state = AggregationState::new(DatasetKind::MobileTab);
        let c = ctx(0, Tab::Home);
        state.record(1_000, &c, true);
        state.record(2_000, &c, false);
        let elapsed = state.elapsed_times(3_000, &c);
        assert_eq!(elapsed.len(), 4);
        assert_eq!(elapsed[0].since_last_access, Some(2_000));
        assert_eq!(elapsed[0].since_last_session, Some(1_000));
    }

    #[test]
    fn empty_state_has_no_elapsed_and_zero_counts() {
        let state = AggregationState::new(DatasetKind::Mpu);
        let c = Context::Mpu {
            screen: pp_data::schema::ScreenState::On,
            app_id: 1,
            last_app_id: 2,
        };
        let counts = state.window_counts(0, &c);
        assert_eq!(counts.len(), 8 * 4);
        assert!(counts.iter().all(|c| c.sessions == 0 && c.accesses == 0));
        let elapsed = state.elapsed_times(0, &c);
        assert!(elapsed
            .iter()
            .all(|e| e.since_last_access.is_none() && e.since_last_session.is_none()));
    }

    #[test]
    fn storage_keys_grow_with_context_diversity() {
        let mut state = AggregationState::new(DatasetKind::MobileTab);
        let now = 86_400;
        state.record(now, &ctx(0, Tab::Home), false);
        let baseline = state.num_storage_keys();
        state.record(now + 1, &ctx(50, Tab::Watch), false);
        assert!(state.num_storage_keys() > baseline);
        assert_eq!(state.num_recorded(), 2);
    }

    #[test]
    fn lookups_per_prediction_matches_paper_order_of_magnitude() {
        let state = AggregationState::new(DatasetKind::MobileTab);
        // 4 subsets × 4 windows + 4 elapsed lookups = 20, the number quoted
        // in §9 for MobileTab.
        assert_eq!(state.lookups_per_prediction(), 20);
    }

    #[test]
    #[should_panic(expected = "context kind mismatch")]
    fn wrong_kind_panics() {
        let mut state = AggregationState::new(DatasetKind::Timeshift);
        state.record(0, &ctx(0, Tab::Home), true);
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
