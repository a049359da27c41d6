//! Synthetic workload generators standing in for the paper's proprietary
//! datasets.
//!
//! The paper evaluates on two internal Facebook datasets (MobileTab,
//! Timeshift) and the public Mobile Phone Use dataset, none of which can be
//! bundled here. Each generator in this module produces a dataset whose
//! *learning problem* matches the corresponding real dataset:
//!
//! * heavily skewed labels with a large mass of users who never access the
//!   activity (Figure 1),
//! * strong per-user heterogeneity in both activity volume and access
//!   propensity,
//! * genuine predictive signal in the session context (badge counts, active
//!   tab, screen state, …),
//! * genuine predictive signal in the access *history* (habit persistence,
//!   recency effects, diurnal/weekly rhythm) — the signal that time-window
//!   aggregations and RNN hidden states compete to capture,
//! * power-law-ish inter-arrival gaps between sessions.
//!
//! All generators are deterministic given a seed.

mod behavior;
mod mobile_tab;
mod mpu;
mod timeshift;

pub use behavior::{BehaviorEngine, UserBehavior};
pub use mobile_tab::{MobileTabConfig, MobileTabGenerator};
pub use mpu::NUM_APPS;
pub use mpu::{MpuConfig, MpuGenerator};
pub use timeshift::{
    build_peak_window_examples, is_peak_hour, peak_window_end, peak_window_start,
    PeakWindowExample, TimeshiftConfig, TimeshiftGenerator, PEAK_END_HOUR, PEAK_START_HOUR,
};

use crate::schema::Dataset;

/// Common interface implemented by the three dataset generators.
pub trait SyntheticGenerator {
    /// Generates a full dataset from this generator's configuration.
    fn generate(&self) -> Dataset;

    /// A short human-readable name ("MobileTab", "Timeshift", "MPU").
    fn name(&self) -> &'static str;
}
