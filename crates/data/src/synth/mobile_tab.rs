//! Synthetic stand-in for the paper's MobileTab dataset (§4.1): prefetching
//! the contents of a moderately used tab of the Facebook mobile app.
//!
//! Context per session: unread badge count (0–99) and the active tab at
//! application startup. A large fraction of users (paper: 36%) never access
//! the tab at all.

use super::behavior::{BehaviorEngine, HistoryState};
use super::SyntheticGenerator;
use crate::schema::{Context, Dataset, DatasetKind, Session, Tab, UserHistory, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the MobileTab generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobileTabConfig {
    /// Number of simulated users (paper: 10^6; default here is scaled down).
    pub num_users: usize,
    /// Number of days of logs (paper: 30).
    pub num_days: u32,
    /// UNIX timestamp of the first day covered.
    pub start_timestamp: i64,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of users that never access the tab (paper: ≈ 0.36).
    pub never_access_fraction: f64,
    /// Mean base log-odds of access for active users.
    pub base_logit_mean: f64,
}

impl Default for MobileTabConfig {
    fn default() -> Self {
        Self {
            num_users: 2_000,
            num_days: 30,
            start_timestamp: 1_564_617_600, // 2019-08-01 00:00:00 UTC, matching Table 1's era
            seed: 0xF00D,
            never_access_fraction: 0.36,
            base_logit_mean: -2.3,
        }
    }
}

impl MobileTabConfig {
    /// Returns a copy scaled to `num_users` users (used by benches to sweep
    /// dataset sizes).
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

/// Generator for the MobileTab dataset.
#[derive(Debug, Clone)]
pub struct MobileTabGenerator {
    config: MobileTabConfig,
    engine: BehaviorEngine,
}

impl MobileTabGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: MobileTabConfig) -> Self {
        let engine = BehaviorEngine {
            never_access_fraction: config.never_access_fraction,
            base_logit_mean: config.base_logit_mean,
            base_logit_std: 1.1,
            sessions_per_day_log_mean: 0.3, // ≈ 1.35 sessions/day median
            sessions_per_day_log_std: 0.9,
            max_sessions_per_day: 40.0,
            habit_strength_mean: 2.0,
            recency_strength_mean: 1.0,
        };
        Self { config, engine }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &MobileTabConfig {
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
        // Per-user context tendencies.
        let unread_rate: f64 = rng.gen_range(0.3..6.0); // mean badge count
        let preferred_tab = Tab::ALL[rng.gen_range(0..Tab::ALL.len())];
        let unread_sensitivity: f64 = rng.gen_range(0.1..0.5);

        let mut history = HistoryState::new(20);
        let mut sessions = Vec::with_capacity(times.len());
        for ts in times {
            // Unread count follows a geometric-ish distribution around the
            // user's mean, clamped to the badge limit of 99.
            let unread = sample_unread(unread_rate, rng);
            // Active tab: mostly Home, sometimes the user's preferred tab,
            // occasionally random.
            let active_tab = match rng.gen_range(0..10) {
                0..=5 => Tab::Home,
                6..=8 => preferred_tab,
                _ => Tab::ALL[rng.gen_range(0..Tab::ALL.len())],
            };
            // Context contribution to the access decision: a visible badge
            // strongly increases the chance of visiting the tab; starting on
            // certain surfaces (Notifications) also helps.
            let mut context_logit = unread_sensitivity * (1.0 + unread as f64).ln();
            context_logit += match active_tab {
                Tab::Notifications => 0.6,
                Tab::Messages => 0.2,
                Tab::Home => 0.0,
                _ => -0.2,
            };
            let p = self
                .engine
                .access_probability(&user, &history, ts, context_logit);
            let accessed = rng.gen::<f64>() < p;
            history.record(ts, accessed);
            sessions.push(Session {
                timestamp: ts,
                context: Context::MobileTab {
                    unread_count: unread,
                    active_tab,
                },
                accessed,
            });
        }
        UserHistory::new(UserId(user_id), sessions)
    }
}

impl SyntheticGenerator for MobileTabGenerator {
    fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let users = (0..self.config.num_users as u64)
            .map(|uid| {
                // Derive a per-user stream so user data is independent of
                // iteration order.
                let mut user_rng = StdRng::seed_from_u64(self.config.seed ^ rng.gen::<u64>());
                self.generate_user(uid, &mut user_rng)
            })
            .collect();
        Dataset {
            kind: DatasetKind::MobileTab,
            start_timestamp: self.config.start_timestamp,
            num_days: self.config.num_days,
            users,
        }
    }

    fn name(&self) -> &'static str {
        "MobileTab"
    }
}

/// Samples an unread badge count with mean roughly `rate`, clamped to 0–99.
fn sample_unread<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> u8 {
    let p = 1.0 / (1.0 + rate);
    let mut count = 0u32;
    while rng.gen::<f64>() > p && count < 99 {
        count += 1;
    }
    count as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> MobileTabConfig {
        MobileTabConfig {
            num_users: 300,
            ..Default::default()
        }
    }

    #[test]
    fn dataset_is_valid_and_deterministic() {
        let gen = MobileTabGenerator::new(small_config());
        let a = gen.generate();
        let b = gen.generate();
        assert_eq!(a, b, "same seed must give identical datasets");
        assert!(a.validate().is_ok());
        assert_eq!(a.kind, DatasetKind::MobileTab);
        assert_eq!(a.num_users(), 300);
    }

    #[test]
    fn different_seeds_differ() {
        let a = MobileTabGenerator::new(small_config()).generate();
        let b = MobileTabGenerator::new(small_config().with_seed(99)).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn positive_rate_in_plausible_band() {
        let ds = MobileTabGenerator::new(small_config()).generate();
        let rate = ds.positive_rate();
        // Paper: 11.1%. The synthetic stand-in should be of the same order.
        assert!(
            (0.05..=0.25).contains(&rate),
            "positive rate {rate} outside plausible band"
        );
    }

    #[test]
    fn substantial_fraction_of_users_never_access() {
        let ds = MobileTabGenerator::new(small_config()).generate();
        let zero = ds
            .users
            .iter()
            .filter(|u| !u.is_empty() && u.num_accesses() == 0)
            .count();
        let frac = zero as f64 / ds.num_users() as f64;
        // Paper: 36% of MobileTab users have no accesses in 30 days.
        assert!(
            (0.25..=0.55).contains(&frac),
            "never-access fraction {frac} outside plausible band"
        );
    }

    #[test]
    fn unread_counts_within_badge_limit() {
        let ds = MobileTabGenerator::new(small_config()).generate();
        for u in &ds.users {
            for s in &u.sessions {
                match s.context {
                    Context::MobileTab { unread_count, .. } => assert!(unread_count <= 99),
                    _ => panic!("wrong context kind"),
                }
            }
        }
    }

    #[test]
    fn context_is_predictive_of_access() {
        // Sessions with a visible badge should have a higher access rate than
        // sessions without: this is the signal the models must learn.
        let ds = MobileTabGenerator::new(small_config()).generate();
        let (mut with_badge, mut with_badge_pos) = (0u64, 0u64);
        let (mut no_badge, mut no_badge_pos) = (0u64, 0u64);
        for u in &ds.users {
            for s in &u.sessions {
                if let Context::MobileTab { unread_count, .. } = s.context {
                    if unread_count > 3 {
                        with_badge += 1;
                        with_badge_pos += s.accessed as u64;
                    } else {
                        no_badge += 1;
                        no_badge_pos += s.accessed as u64;
                    }
                }
            }
        }
        let r_badge = with_badge_pos as f64 / with_badge.max(1) as f64;
        let r_none = no_badge_pos as f64 / no_badge.max(1) as f64;
        assert!(
            r_badge > r_none,
            "badge sessions should access more often ({r_badge} vs {r_none})"
        );
    }

    #[test]
    fn history_is_predictive_of_access() {
        // Among active users, a session immediately following an accessed
        // session should be positive more often than one following a
        // non-accessed session (habit/recency signal).
        let ds = MobileTabGenerator::new(small_config()).generate();
        let (mut after_pos, mut after_pos_hit) = (0u64, 0u64);
        let (mut after_neg, mut after_neg_hit) = (0u64, 0u64);
        for u in &ds.users {
            if u.num_accesses() == 0 {
                continue;
            }
            for w in u.sessions.windows(2) {
                if w[0].accessed {
                    after_pos += 1;
                    after_pos_hit += w[1].accessed as u64;
                } else {
                    after_neg += 1;
                    after_neg_hit += w[1].accessed as u64;
                }
            }
        }
        let r_pos = after_pos_hit as f64 / after_pos.max(1) as f64;
        let r_neg = after_neg_hit as f64 / after_neg.max(1) as f64;
        assert!(
            r_pos > r_neg,
            "access history should be predictive ({r_pos} vs {r_neg})"
        );
    }
}
