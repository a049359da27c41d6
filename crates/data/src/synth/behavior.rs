//! Shared user-behaviour engine used by all three synthetic generators.
//!
//! A [`UserBehavior`] bundles the latent traits of one simulated user:
//! how often they open the application, at which hours, how likely they are
//! to access the target activity, how strongly the current context sways
//! them, and how strongly their own recent behaviour (habit and recency)
//! feeds back into the next decision. The [`BehaviorEngine`] samples those
//! traits from population-level distributions and converts them into session
//! timestamps and access decisions.

use crate::schema::{hour_of_day, SECONDS_PER_DAY, SECONDS_PER_HOUR};
use rand::Rng;
use rand_distr::{Distribution, LogNormal, Normal};

/// Latent behavioural traits of a single simulated user.
#[derive(Debug, Clone)]
pub struct UserBehavior {
    /// Mean number of sessions per day.
    pub sessions_per_day: f64,
    /// If `true`, the user never accesses the target activity regardless of
    /// context (the "zero access rate" mass in Figure 1).
    pub never_accesses: bool,
    /// Baseline log-odds of accessing the activity in a session.
    pub base_logit: f64,
    /// Preferred hour of day (0–23); sessions cluster around it and accesses
    /// are more likely near it.
    pub peak_hour: u8,
    /// Strength of the diurnal preference for *accesses* (log-odds added when
    /// the session happens within ±3h of `peak_hour`).
    pub hour_affinity: f64,
    /// Log-odds boost on the user's most active days of the week.
    pub weekday_affinity: f64,
    /// The two favourite days of week (0–6).
    pub favorite_days: [u8; 2],
    /// Habit persistence: log-odds contribution proportional to the access
    /// rate over the user's recent sessions.
    pub habit_strength: f64,
    /// Recency effect: log-odds added when the last access was very recent,
    /// decaying with a characteristic time of `recency_tau_secs`.
    pub recency_strength: f64,
    /// Decay constant (seconds) of the recency effect.
    pub recency_tau_secs: f64,
}

/// Rolling per-user state consumed by the access decision: recent access
/// rate (habit) and time of last access (recency).
#[derive(Debug, Clone, Default)]
pub struct HistoryState {
    recent: std::collections::VecDeque<bool>,
    last_access_ts: Option<i64>,
    window: usize,
}

impl HistoryState {
    /// Creates a history state with a habit window of `window` sessions.
    pub fn new(window: usize) -> Self {
        Self {
            recent: std::collections::VecDeque::with_capacity(window),
            last_access_ts: None,
            window: window.max(1),
        }
    }

    /// Access rate over the recent window (0.0 when empty).
    pub fn recent_access_rate(&self) -> f64 {
        if self.recent.is_empty() {
            0.0
        } else {
            self.recent.iter().filter(|&&a| a).count() as f64 / self.recent.len() as f64
        }
    }

    /// Seconds since the last access, if any.
    pub fn seconds_since_last_access(&self, now: i64) -> Option<i64> {
        self.last_access_ts.map(|t| (now - t).max(0))
    }

    /// Records the outcome of a session.
    pub fn record(&mut self, timestamp: i64, accessed: bool) {
        if self.recent.len() == self.window {
            self.recent.pop_front();
        }
        self.recent.push_back(accessed);
        if accessed {
            self.last_access_ts = Some(timestamp);
        }
    }
}

/// Population-level configuration of the behaviour engine.
#[derive(Debug, Clone, Copy)]
pub struct BehaviorEngine {
    /// Fraction of users that never access the activity.
    pub never_access_fraction: f64,
    /// Mean of the Gaussian from which active users' base log-odds are drawn.
    pub base_logit_mean: f64,
    /// Standard deviation of the base log-odds distribution.
    pub base_logit_std: f64,
    /// Log-normal μ of sessions/day.
    pub sessions_per_day_log_mean: f64,
    /// Log-normal σ of sessions/day.
    pub sessions_per_day_log_std: f64,
    /// Upper bound on sessions per day (keeps the long tail manageable).
    pub max_sessions_per_day: f64,
    /// Mean habit strength (log-odds per unit recent access rate).
    pub habit_strength_mean: f64,
    /// Mean recency strength.
    pub recency_strength_mean: f64,
}

impl Default for BehaviorEngine {
    fn default() -> Self {
        Self {
            never_access_fraction: 0.3,
            base_logit_mean: -2.0,
            base_logit_std: 1.0,
            sessions_per_day_log_mean: 0.4,
            sessions_per_day_log_std: 0.8,
            max_sessions_per_day: 60.0,
            habit_strength_mean: 2.0,
            recency_strength_mean: 1.0,
        }
    }
}

impl BehaviorEngine {
    /// Samples the latent traits of one user.
    pub fn sample_user<R: Rng + ?Sized>(&self, rng: &mut R) -> UserBehavior {
        let sessions = LogNormal::new(
            self.sessions_per_day_log_mean,
            self.sessions_per_day_log_std,
        )
        .expect("valid lognormal")
        .sample(rng)
        .min(self.max_sessions_per_day);
        let base_logit = Normal::new(self.base_logit_mean, self.base_logit_std)
            .expect("valid normal")
            .sample(rng);
        let never = rng.gen::<f64>() < self.never_access_fraction;
        UserBehavior {
            sessions_per_day: sessions.max(0.05),
            never_accesses: never,
            base_logit,
            peak_hour: rng.gen_range(7..24) as u8 % 24,
            hour_affinity: rng.gen_range(0.2..1.2),
            weekday_affinity: rng.gen_range(0.0..0.6),
            favorite_days: [rng.gen_range(0..7), rng.gen_range(0..7)],
            habit_strength: (self.habit_strength_mean + rng.gen_range(-0.5..0.5)).max(0.0),
            recency_strength: (self.recency_strength_mean + rng.gen_range(-0.5..0.5)).max(0.0),
            recency_tau_secs: rng.gen_range(2.0..24.0) * SECONDS_PER_HOUR as f64,
        }
    }

    /// Samples session start timestamps for one user over `num_days` days
    /// starting at `start_timestamp`. Sessions cluster around the user's peak
    /// hour, producing the heavy-tailed inter-arrival (Δt) distribution the
    /// paper describes in §6.1.
    pub fn sample_session_times<R: Rng + ?Sized>(
        &self,
        user: &UserBehavior,
        start_timestamp: i64,
        num_days: u32,
        rng: &mut R,
    ) -> Vec<i64> {
        let mut times = Vec::new();
        for day in 0..num_days as i64 {
            // Day-level activity fluctuates around the user's mean; some days
            // have no sessions at all.
            let lambda = user.sessions_per_day
                * if user.favorite_days.contains(&((day % 7) as u8)) {
                    1.4
                } else {
                    0.9
                };
            let count = sample_poisson(lambda, rng);
            for _ in 0..count {
                let hour = sample_hour(user.peak_hour, rng);
                let second_in_hour = rng.gen_range(0..SECONDS_PER_HOUR);
                let ts = start_timestamp
                    + day * SECONDS_PER_DAY
                    + hour as i64 * SECONDS_PER_HOUR
                    + second_in_hour;
                times.push(ts);
            }
        }
        times.sort_unstable();
        times.dedup();
        times
    }

    /// Computes the probability that a session at `timestamp` results in an
    /// access, given the user's traits, rolling history, and a
    /// dataset-specific context contribution in log-odds.
    pub fn access_probability(
        &self,
        user: &UserBehavior,
        history: &HistoryState,
        timestamp: i64,
        context_logit: f64,
    ) -> f64 {
        if user.never_accesses {
            return 0.0;
        }
        let mut logit = user.base_logit + context_logit;
        // Diurnal affinity.
        let hour = hour_of_day(timestamp) as i64;
        let dist = circular_hour_distance(hour, user.peak_hour as i64);
        if dist <= 3 {
            logit += user.hour_affinity * (1.0 - dist as f64 / 4.0);
        }
        // Weekly affinity.
        let dow = (timestamp.div_euclid(SECONDS_PER_DAY).rem_euclid(7)) as u8;
        if user.favorite_days.contains(&dow) {
            logit += user.weekday_affinity;
        }
        // Habit: proportional to recent access rate.
        logit += user.habit_strength * (history.recent_access_rate() - 0.2);
        // Recency: exponential decay since last access.
        if let Some(dt) = history.seconds_since_last_access(timestamp) {
            logit += user.recency_strength * (-(dt as f64) / user.recency_tau_secs).exp();
        }
        sigmoid(logit)
    }
}

/// Logistic sigmoid on f64.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Circular distance between two hours of day.
fn circular_hour_distance(a: i64, b: i64) -> i64 {
    let d = (a - b).rem_euclid(24);
    d.min(24 - d)
}

/// Samples a Poisson count via inversion (adequate for the small rates used
/// here); falls back to a normal approximation for large rates.
pub fn sample_poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let n = Normal::new(lambda, lambda.sqrt()).expect("valid normal");
        return n.sample(rng).round().max(0.0) as u32;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k;
        }
    }
}

/// Samples an hour of day concentrated around `peak_hour` (roughly a wrapped
/// triangular distribution plus a uniform floor).
fn sample_hour<R: Rng + ?Sized>(peak_hour: u8, rng: &mut R) -> u8 {
    if rng.gen::<f64>() < 0.25 {
        // Uniform background activity.
        rng.gen_range(0..24)
    } else {
        let offset = (rng.gen_range(-6.0..6.0_f64) * rng.gen::<f64>()).round() as i64;
        ((peak_hour as i64 + offset).rem_euclid(24)) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> BehaviorEngine {
        BehaviorEngine::default()
    }

    #[test]
    fn sampled_users_are_heterogeneous() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = engine();
        let users: Vec<_> = (0..200).map(|_| e.sample_user(&mut rng)).collect();
        let rates: Vec<f64> = users.iter().map(|u| u.sessions_per_day).collect();
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rates.iter().copied().fold(0.0, f64::max);
        assert!(max / min > 5.0, "expected a wide activity spread");
        let never = users.iter().filter(|u| u.never_accesses).count();
        assert!(
            never > 20 && never < 120,
            "never-access fraction plausible: {never}"
        );
    }

    #[test]
    fn session_times_sorted_and_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let e = engine();
        let user = e.sample_user(&mut rng);
        let times = e.sample_session_times(&user, 1_000_000, 30, &mut rng);
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        for &t in &times {
            assert!((1_000_000..1_000_000 + 30 * SECONDS_PER_DAY).contains(&t));
        }
    }

    #[test]
    fn never_access_user_has_zero_probability() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(3);
        let mut user = e.sample_user(&mut rng);
        user.never_accesses = true;
        let h = HistoryState::new(10);
        assert_eq!(e.access_probability(&user, &h, 0, 5.0), 0.0);
    }

    #[test]
    fn habit_increases_access_probability() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(4);
        let mut user = e.sample_user(&mut rng);
        user.never_accesses = false;
        user.habit_strength = 3.0;
        let cold = HistoryState::new(10);
        let mut hot = HistoryState::new(10);
        for i in 0..10 {
            hot.record(i * 100, true);
        }
        let now = 10_000;
        let p_cold = e.access_probability(&user, &cold, now, 0.0);
        let p_hot = e.access_probability(&user, &hot, now, 0.0);
        assert!(
            p_hot > p_cold,
            "habitual users must be more likely to access"
        );
    }

    #[test]
    fn recency_effect_decays() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(5);
        let mut user = e.sample_user(&mut rng);
        user.never_accesses = false;
        user.recency_strength = 2.0;
        user.recency_tau_secs = 3_600.0;
        user.habit_strength = 0.0;
        let mut h = HistoryState::new(10);
        h.record(0, true);
        let p_soon = e.access_probability(&user, &h, 60, 0.0);
        let p_late = e.access_probability(&user, &h, 100 * 3_600, 0.0);
        assert!(p_soon > p_late);
    }

    #[test]
    fn context_logit_shifts_probability() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(6);
        let mut user = e.sample_user(&mut rng);
        user.never_accesses = false;
        let h = HistoryState::new(10);
        let p_neg = e.access_probability(&user, &h, 0, -2.0);
        let p_pos = e.access_probability(&user, &h, 0, 2.0);
        assert!(p_pos > p_neg);
    }

    #[test]
    fn history_state_window_and_recency() {
        let mut h = HistoryState::new(3);
        assert_eq!(h.recent_access_rate(), 0.0);
        assert_eq!(h.seconds_since_last_access(100), None);
        h.record(10, true);
        h.record(20, false);
        h.record(30, false);
        h.record(40, false); // evicts the first `true`
        assert_eq!(h.recent_access_rate(), 0.0);
        // last_access_ts survives eviction — it tracks the last access ever.
        assert_eq!(h.seconds_since_last_access(110), Some(100));
    }

    #[test]
    fn poisson_mean_roughly_matches() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 5_000;
        let mean: f64 = (0..n)
            .map(|_| sample_poisson(3.0, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "poisson mean off: {mean}");
        let big: f64 = (0..n)
            .map(|_| sample_poisson(100.0, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            (big - 100.0).abs() < 2.0,
            "large-rate poisson mean off: {big}"
        );
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn sigmoid_monotone_and_bounded() {
        assert!(sigmoid(-50.0) < 1e-6);
        assert!(sigmoid(50.0) > 1.0 - 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(1.0) > sigmoid(0.5));
    }
}
