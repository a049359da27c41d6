//! Synthetic stand-in for the Mobile Phone Use (MPU) dataset of Pielot et
//! al. (2017) as used in §4.3 of the paper: predicting whether the user will
//! open the app associated with a notification within 10 minutes of its
//! arrival.
//!
//! Compared to MobileTab/Timeshift the MPU problem has few users (279 in the
//! paper) but an enormous number of events per user (on average more than
//! 8,000 notifications over four weeks) with a very long-tailed per-user
//! distribution (Figure 5), and a much higher positive rate (39.7%).

use super::behavior::{sample_poisson, BehaviorEngine, HistoryState};
use super::SyntheticGenerator;
use crate::schema::{
    Context, Dataset, DatasetKind, ScreenState, Session, UserHistory, UserId, SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};

/// Number of distinct applications that post notifications.
pub const NUM_APPS: u16 = 32;

/// Configuration of the MPU generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpuConfig {
    /// Number of simulated users (paper: 279).
    pub num_users: usize,
    /// Number of days of traces (paper: 28).
    pub num_days: u32,
    /// UNIX timestamp of the first day covered.
    pub start_timestamp: i64,
    /// RNG seed.
    pub seed: u64,
    /// Median notifications per day per user (paper average ≈ 300/day; the
    /// default here is scaled down so the full experiment suite runs quickly
    /// while preserving the long-tailed shape).
    pub median_notifications_per_day: f64,
    /// Log-normal σ of the per-user notification rate (controls the tail of
    /// Figure 5).
    pub notifications_log_std: f64,
}

impl Default for MpuConfig {
    fn default() -> Self {
        Self {
            num_users: 279,
            num_days: 28,
            start_timestamp: 1_493_596_800, // 2017-05-01, the MPU study era
            seed: 0xCAFE,
            median_notifications_per_day: 40.0,
            notifications_log_std: 0.9,
        }
    }
}

impl MpuConfig {
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

/// Generator for the MPU dataset.
#[derive(Debug, Clone)]
pub struct MpuGenerator {
    config: MpuConfig,
    engine: BehaviorEngine,
}

impl MpuGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: MpuConfig) -> Self {
        let engine = BehaviorEngine {
            // Nearly everyone opens *some* notifications.
            never_access_fraction: 0.02,
            base_logit_mean: -1.7,
            base_logit_std: 0.9,
            // Session arrival is driven separately (notification streams),
            // these two fields are unused for MPU.
            sessions_per_day_log_mean: 0.0,
            sessions_per_day_log_std: 0.0,
            max_sessions_per_day: 0.0,
            habit_strength_mean: 1.5,
            recency_strength_mean: 1.2,
        };
        Self { config, engine }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &MpuConfig {
        &self.config
    }

    fn generate_user(&self, user_id: u64, rng: &mut StdRng) -> UserHistory {
        let user = self.engine.sample_user(rng);
        // Long-tailed per-user notification volume (Figure 5).
        let rate_dist = LogNormal::new(
            self.config.median_notifications_per_day.ln(),
            self.config.notifications_log_std,
        )
        .expect("valid lognormal");
        let per_day_rate: f64 = rate_dist.sample(rng).min(600.0);

        // Per-user app landscape: a Zipf-like popularity over apps, a set of
        // "favourite" apps the user actually cares about, and a per-app
        // affinity used in the access decision.
        let mut app_popularity: Vec<f64> = (0..NUM_APPS)
            .map(|i| 1.0 / (1.0 + i as f64).powf(1.1))
            .collect();
        // Shuffle which apps are popular for this user.
        for i in (1..app_popularity.len()).rev() {
            let j = rng.gen_range(0..=i);
            app_popularity.swap(i, j);
        }
        let popularity_total: f64 = app_popularity.iter().sum();
        let app_affinity: Vec<f64> = (0..NUM_APPS)
            .map(|_| {
                if rng.gen::<f64>() < 0.25 {
                    rng.gen_range(0.4..1.6) // favourite app
                } else {
                    rng.gen_range(-1.8..0.2)
                }
            })
            .collect();

        let mut history = HistoryState::new(30);
        let mut sessions = Vec::new();
        let mut last_opened_app: u16 = rng.gen_range(0..NUM_APPS);
        for day in 0..self.config.num_days as i64 {
            let count = sample_poisson(per_day_rate, rng);
            let mut day_times: Vec<i64> = (0..count)
                .map(|_| {
                    // Notifications arrive around the clock but are denser in
                    // waking hours.
                    let hour = if rng.gen::<f64>() < 0.85 {
                        rng.gen_range(8..24)
                    } else {
                        rng.gen_range(0..8)
                    };
                    self.config.start_timestamp
                        + day * SECONDS_PER_DAY
                        + hour * SECONDS_PER_HOUR
                        + rng.gen_range(0..SECONDS_PER_HOUR)
                })
                .collect();
            day_times.sort_unstable();
            day_times.dedup();
            for ts in day_times {
                // Pick the posting app from the user's popularity profile.
                let mut pick = rng.gen::<f64>() * popularity_total;
                let mut app_id: u16 = 0;
                for (i, &w) in app_popularity.iter().enumerate() {
                    pick -= w;
                    if pick <= 0.0 {
                        app_id = i as u16;
                        break;
                    }
                }
                let screen = match rng.gen_range(0..10) {
                    0..=4 => ScreenState::Off,
                    5..=7 => ScreenState::On,
                    _ => ScreenState::Unlocked,
                };
                let mut context_logit = app_affinity[app_id as usize];
                context_logit += match screen {
                    ScreenState::Unlocked => 1.0,
                    ScreenState::On => 0.3,
                    ScreenState::Off => -0.3,
                };
                if last_opened_app == app_id {
                    context_logit += 0.5;
                }
                let p = self
                    .engine
                    .access_probability(&user, &history, ts, context_logit);
                let accessed = rng.gen::<f64>() < p;
                history.record(ts, accessed);
                sessions.push(Session {
                    timestamp: ts,
                    context: Context::Mpu {
                        screen,
                        app_id,
                        last_app_id: last_opened_app,
                    },
                    accessed,
                });
                if accessed {
                    last_opened_app = app_id;
                }
            }
        }
        UserHistory::new(UserId(user_id), sessions)
    }
}

impl SyntheticGenerator for MpuGenerator {
    fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let users = (0..self.config.num_users as u64)
            .map(|uid| {
                let mut user_rng = StdRng::seed_from_u64(self.config.seed ^ rng.gen::<u64>());
                self.generate_user(uid, &mut user_rng)
            })
            .collect();
        Dataset {
            kind: DatasetKind::Mpu,
            start_timestamp: self.config.start_timestamp,
            num_days: self.config.num_days,
            users,
        }
    }

    fn name(&self) -> &'static str {
        "MPU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> MpuConfig {
        MpuConfig {
            num_users: 60,
            median_notifications_per_day: 20.0,
            ..Default::default()
        }
    }

    #[test]
    fn dataset_valid_and_deterministic() {
        let gen = MpuGenerator::new(small_config());
        let a = gen.generate();
        assert!(a.validate().is_ok());
        assert_eq!(a, gen.generate());
        assert_eq!(a.kind, DatasetKind::Mpu);
        assert_eq!(a.num_users(), 60);
    }

    #[test]
    fn positive_rate_much_higher_than_other_datasets() {
        let ds = MpuGenerator::new(small_config()).generate();
        let rate = ds.positive_rate();
        // Paper: 39.7%.
        assert!(
            (0.2..=0.6).contains(&rate),
            "positive rate {rate} outside plausible band"
        );
    }

    #[test]
    fn per_user_volume_is_long_tailed() {
        let ds = MpuGenerator::new(small_config()).generate();
        let mut counts: Vec<usize> = ds
            .users
            .iter()
            .map(crate::schema::UserHistory::len)
            .collect();
        counts.sort_unstable();
        let median = counts[counts.len() / 2];
        let max = *counts.last().unwrap();
        assert!(median > 0);
        assert!(
            max as f64 / median as f64 > 3.0,
            "expected a long tail (median {median}, max {max})"
        );
    }

    #[test]
    fn app_ids_within_range_and_screen_state_predictive() {
        let ds = MpuGenerator::new(small_config()).generate();
        let (mut unlocked, mut unlocked_pos, mut off, mut off_pos) = (0u64, 0u64, 0u64, 0u64);
        for u in &ds.users {
            for s in &u.sessions {
                match s.context {
                    Context::Mpu {
                        screen,
                        app_id,
                        last_app_id,
                    } => {
                        assert!(app_id < NUM_APPS);
                        assert!(last_app_id < NUM_APPS);
                        match screen {
                            ScreenState::Unlocked => {
                                unlocked += 1;
                                unlocked_pos += s.accessed as u64;
                            }
                            ScreenState::Off => {
                                off += 1;
                                off_pos += s.accessed as u64;
                            }
                            ScreenState::On => {}
                        }
                    }
                    _ => panic!("wrong context kind"),
                }
            }
        }
        let r_unlocked = unlocked_pos as f64 / unlocked.max(1) as f64;
        let r_off = off_pos as f64 / off.max(1) as f64;
        assert!(
            r_unlocked > r_off,
            "unlocked-screen notifications should be opened more often"
        );
    }

    #[test]
    fn app_identity_is_predictive() {
        // Per-user, some apps should have much higher open rates than others
        // (the per-app affinity the models need to capture from context).
        let ds = MpuGenerator::new(small_config()).generate();
        let mut spread_found = false;
        for u in ds.users.iter().filter(|u| u.len() > 500) {
            let mut per_app: std::collections::HashMap<u16, (u64, u64)> = Default::default();
            for s in &u.sessions {
                if let Context::Mpu { app_id, .. } = s.context {
                    let e = per_app.entry(app_id).or_default();
                    e.0 += 1;
                    e.1 += s.accessed as u64;
                }
            }
            let rates: Vec<f64> = per_app
                .values()
                .filter(|(n, _)| *n >= 30)
                .map(|(n, p)| *p as f64 / *n as f64)
                .collect();
            if rates.len() >= 3 {
                let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
                let max = rates.iter().copied().fold(0.0, f64::max);
                if max - min > 0.2 {
                    spread_found = true;
                    break;
                }
            }
        }
        assert!(spread_found, "expected per-app open-rate heterogeneity");
    }
}
