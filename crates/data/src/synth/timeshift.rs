//! Synthetic stand-in for the paper's Timeshift dataset (§4.2): precomputing
//! a data query several hours ahead of peak time on the Facebook website.
//!
//! Sessions are website loads whose only context is the timestamp and a flag
//! marking whether the load happened within the peak-hours window. The
//! prediction problem built on top of this dataset ("timeshifted
//! precompute", §3.2.1) asks, before the peak window of day *d*, whether the
//! user will need the query result during that window.

use super::behavior::{BehaviorEngine, HistoryState};
use super::SyntheticGenerator;
use crate::schema::{
    hour_of_day, Context, Dataset, DatasetKind, Session, UserHistory, UserId, SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// First hour (inclusive, UTC) of the peak window.
pub const PEAK_START_HOUR: u8 = 17;
/// Last hour (exclusive, UTC) of the peak window.
pub const PEAK_END_HOUR: u8 = 22;

/// Returns `true` when a timestamp falls inside the peak-hours window.
pub fn is_peak_hour(timestamp: i64) -> bool {
    let h = hour_of_day(timestamp);
    (PEAK_START_HOUR..PEAK_END_HOUR).contains(&h)
}

/// UNIX timestamp of the start of the peak window on day `day_index`
/// (days counted from the UNIX epoch).
pub fn peak_window_start(day_index: i64) -> i64 {
    day_index * SECONDS_PER_DAY + PEAK_START_HOUR as i64 * SECONDS_PER_HOUR
}

/// UNIX timestamp of the end of the peak window on day `day_index`.
pub fn peak_window_end(day_index: i64) -> i64 {
    day_index * SECONDS_PER_DAY + PEAK_END_HOUR as i64 * SECONDS_PER_HOUR
}

/// Configuration of the Timeshift generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeshiftConfig {
    /// Number of simulated users.
    pub num_users: usize,
    /// Number of days of logs (paper: 30).
    pub num_days: u32,
    /// UNIX timestamp of the first day covered (must be midnight-aligned so
    /// peak windows line up with days).
    pub start_timestamp: i64,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of users that never use the data query (paper: ≈ 0.42).
    pub never_access_fraction: f64,
    /// Mean base log-odds of using the query in a session.
    pub base_logit_mean: f64,
}

impl Default for TimeshiftConfig {
    fn default() -> Self {
        Self {
            num_users: 2_000,
            num_days: 30,
            start_timestamp: 1_564_617_600, // midnight-aligned
            seed: 0xBEEF,
            never_access_fraction: 0.42,
            base_logit_mean: -2.8,
        }
    }
}

impl TimeshiftConfig {
    /// Returns a copy scaled to `num_users` users.
    pub fn with_users(mut self, num_users: usize) -> Self {
        self.num_users = num_users;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generator for the Timeshift dataset.
#[derive(Debug, Clone)]
pub struct TimeshiftGenerator {
    config: TimeshiftConfig,
    engine: BehaviorEngine,
}

impl TimeshiftGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: TimeshiftConfig) -> Self {
        let engine = BehaviorEngine {
            never_access_fraction: config.never_access_fraction,
            base_logit_mean: config.base_logit_mean,
            base_logit_std: 1.2,
            sessions_per_day_log_mean: 0.0, // ≈ 1 website session/day median
            sessions_per_day_log_std: 0.8,
            max_sessions_per_day: 25.0,
            habit_strength_mean: 2.2,
            recency_strength_mean: 0.8,
        };
        Self { config, engine }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &TimeshiftConfig {
        &self.config
    }

    fn generate_user(&self, user_id: u64, rng: &mut StdRng) -> UserHistory {
        let user = self.engine.sample_user(rng);
        let times = self.engine.sample_session_times(
            &user,
            self.config.start_timestamp,
            self.config.num_days,
            rng,
        );
        let mut history = HistoryState::new(20);
        let mut sessions = Vec::with_capacity(times.len());
        for ts in times {
            let peak = is_peak_hour(ts);
            // Demand for the data query is somewhat higher at peak (that is
            // why shifting its computation off-peak is worthwhile at all).
            let context_logit = if peak { 0.5 } else { 0.0 };
            let p = self
                .engine
                .access_probability(&user, &history, ts, context_logit);
            let accessed = rng.gen::<f64>() < p;
            history.record(ts, accessed);
            sessions.push(Session {
                timestamp: ts,
                context: Context::Timeshift { is_peak: peak },
                accessed,
            });
        }
        UserHistory::new(UserId(user_id), sessions)
    }
}

impl SyntheticGenerator for TimeshiftGenerator {
    fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let users = (0..self.config.num_users as u64)
            .map(|uid| {
                let mut user_rng = StdRng::seed_from_u64(self.config.seed ^ rng.gen::<u64>());
                self.generate_user(uid, &mut user_rng)
            })
            .collect();
        Dataset {
            kind: DatasetKind::Timeshift,
            start_timestamp: self.config.start_timestamp,
            num_days: self.config.num_days,
            users,
        }
    }

    fn name(&self) -> &'static str {
        "Timeshift"
    }
}

/// A timeshifted-precompute training/evaluation example: one user × one peak
/// window (paper §3.2.1 — "each training example corresponds to one user ×
/// peak window pair").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakWindowExample {
    /// The user.
    pub user_id: UserId,
    /// Day index (days since the UNIX epoch) of the peak window.
    pub day_index: i64,
    /// Start of the peak window (when the prediction's "session time" is
    /// taken to be for feature purposes).
    pub window_start: i64,
    /// Index into the user's session list: number of sessions strictly
    /// before the prediction horizon (`window_start - lead_time`), i.e. the
    /// history available when the prediction must be made.
    pub history_len: usize,
    /// Ground-truth label: did the user access the query during the window?
    pub accessed_in_window: bool,
}

/// Builds the peak-window examples for every user × day in the dataset.
///
/// `lead_time_secs` is how far before the window start the prediction is
/// made (and therefore how much history is visible). The paper predicts
/// "several hours in advance" during off-peak; the default harness uses 6h.
///
/// # Panics
///
/// Panics if the dataset is not a Timeshift dataset.
pub fn build_peak_window_examples(
    dataset: &Dataset,
    lead_time_secs: i64,
) -> Vec<PeakWindowExample> {
    assert_eq!(
        dataset.kind,
        DatasetKind::Timeshift,
        "peak-window examples are only defined for the Timeshift dataset"
    );
    let first_day = dataset.start_timestamp.div_euclid(SECONDS_PER_DAY);
    let mut examples = Vec::new();
    for user in &dataset.users {
        for d in 0..dataset.num_days as i64 {
            let day_index = first_day + d;
            let window_start = peak_window_start(day_index);
            let window_end = peak_window_end(day_index);
            let horizon = window_start - lead_time_secs;
            let history_len = user.sessions.partition_point(|s| s.timestamp < horizon);
            let accessed_in_window = user
                .sessions
                .iter()
                .any(|s| s.accessed && s.timestamp >= window_start && s.timestamp < window_end);
            examples.push(PeakWindowExample {
                user_id: user.user_id,
                day_index,
                window_start,
                history_len,
                accessed_in_window,
            });
        }
    }
    examples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TimeshiftConfig {
        TimeshiftConfig {
            num_users: 300,
            ..Default::default()
        }
    }

    #[test]
    fn peak_hour_helpers() {
        let day = 18_262; // arbitrary day index
        let start = peak_window_start(day);
        let end = peak_window_end(day);
        assert_eq!(
            end - start,
            (PEAK_END_HOUR - PEAK_START_HOUR) as i64 * 3_600
        );
        assert!(is_peak_hour(start));
        assert!(is_peak_hour(end - 1));
        assert!(!is_peak_hour(end));
        assert!(!is_peak_hour(start - 1));
    }

    #[test]
    fn dataset_valid_and_deterministic() {
        let gen = TimeshiftGenerator::new(small_config());
        let a = gen.generate();
        assert!(a.validate().is_ok());
        assert_eq!(a, gen.generate());
        assert_eq!(a.kind, DatasetKind::Timeshift);
    }

    #[test]
    fn positive_rate_plausible_and_lower_than_mobiletab() {
        let ds = TimeshiftGenerator::new(small_config()).generate();
        let rate = ds.positive_rate();
        // Paper: 7.1% session-level positive rate.
        assert!(
            (0.02..=0.18).contains(&rate),
            "positive rate {rate} outside plausible band"
        );
    }

    #[test]
    fn never_access_fraction_plausible() {
        // More users than small_config: this asserts a population fraction,
        // and at n=300 the sampling noise reaches the edge of the band.
        let ds = TimeshiftGenerator::new(small_config().with_users(1_000)).generate();
        let zero = ds
            .users
            .iter()
            .filter(|u| !u.is_empty() && u.num_accesses() == 0)
            .count();
        let frac = zero as f64 / ds.num_users() as f64;
        // Paper: 42%.
        assert!((0.3..=0.6).contains(&frac), "never-access fraction {frac}");
    }

    #[test]
    fn is_peak_flag_consistent_with_timestamp() {
        let ds = TimeshiftGenerator::new(small_config()).generate();
        for u in &ds.users {
            for s in &u.sessions {
                match s.context {
                    Context::Timeshift { is_peak } => {
                        assert_eq!(is_peak, is_peak_hour(s.timestamp));
                    }
                    _ => panic!("wrong context kind"),
                }
            }
        }
    }

    #[test]
    fn peak_window_examples_cover_every_user_day() {
        let ds = TimeshiftGenerator::new(small_config()).generate();
        let examples = build_peak_window_examples(&ds, 6 * 3_600);
        assert_eq!(examples.len(), ds.num_users() * ds.num_days as usize);
        // Labels must match a direct scan of the sessions.
        let user0 = &ds.users[0];
        for ex in examples.iter().filter(|e| e.user_id == user0.user_id) {
            let manual = user0.sessions.iter().any(|s| {
                s.accessed
                    && s.timestamp >= peak_window_start(ex.day_index)
                    && s.timestamp < peak_window_end(ex.day_index)
            });
            assert_eq!(ex.accessed_in_window, manual);
            // History must end before the prediction horizon.
            if ex.history_len > 0 {
                assert!(
                    user0.sessions[ex.history_len - 1].timestamp
                        < peak_window_start(ex.day_index) - 6 * 3_600
                );
            }
            if ex.history_len < user0.sessions.len() {
                assert!(
                    user0.sessions[ex.history_len].timestamp
                        >= peak_window_start(ex.day_index) - 6 * 3_600
                );
            }
        }
    }

    #[test]
    fn peak_window_positive_rate_plausible() {
        let ds = TimeshiftGenerator::new(small_config()).generate();
        let examples = build_peak_window_examples(&ds, 6 * 3_600);
        let rate =
            examples.iter().filter(|e| e.accessed_in_window).count() as f64 / examples.len() as f64;
        // The per-window rate is of the same order as the session-level rate.
        assert!((0.01..=0.3).contains(&rate), "peak-window rate {rate}");
    }

    #[test]
    #[should_panic(expected = "only defined for the Timeshift dataset")]
    fn peak_window_examples_reject_other_datasets() {
        let ds = crate::synth::MobileTabGenerator::new(crate::synth::MobileTabConfig {
            num_users: 5,
            ..Default::default()
        })
        .generate();
        let _ = build_peak_window_examples(&ds, 0);
    }
}
