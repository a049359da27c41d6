//! The percentage-based baseline model (paper §5.1).
//!
//! For every user the predicted access probability is the smoothed fraction
//! of their past sessions that resulted in an access:
//!
//! ```text
//! P(A_n) = (α + Σ_{i<n} A_i) / n
//! ```
//!
//! where `α` is the global access percentage across all training sessions.
//! The same construction applies to the timeshifted task with peak windows
//! in place of sessions.

use pp_data::schema::UserHistory;

/// The percentage-based model: a single smoothing prior learned from
/// training data plus a per-user running access percentage at prediction
/// time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercentageModel {
    alpha: f64,
}

impl PercentageModel {
    /// Creates a model with an explicit smoothing prior `α ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        Self { alpha }
    }

    /// Fits `α` as the global access percentage over the training users'
    /// sessions (clamped into `(0, 1)` to stay a valid prior even on
    /// degenerate data).
    pub fn fit_sessions<'a>(users: impl IntoIterator<Item = &'a UserHistory>) -> Self {
        let mut sessions = 0usize;
        let mut accesses = 0usize;
        for u in users {
            sessions += u.len();
            accesses += u.num_accesses();
        }
        let alpha = if sessions == 0 {
            0.5
        } else {
            (accesses as f64 / sessions as f64).clamp(1e-3, 1.0 - 1e-3)
        };
        Self { alpha }
    }

    /// Fits `α` from an iterator of boolean labels (used for the timeshifted
    /// task where one label corresponds to one user × peak window).
    pub fn fit_labels(labels: impl IntoIterator<Item = bool>) -> Self {
        let mut total = 0usize;
        let mut positive = 0usize;
        for l in labels {
            total += 1;
            positive += l as usize;
        }
        let alpha = if total == 0 {
            0.5
        } else {
            (positive as f64 / total as f64).clamp(1e-3, 1.0 - 1e-3)
        };
        Self { alpha }
    }

    /// The smoothing prior.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Predicts the access probability for a user's `n`-th event given the
    /// number of previous events and previous accesses:
    /// `(α + accesses) / (previous_events + 1)`.
    pub fn predict(&self, previous_events: usize, previous_accesses: usize) -> f64 {
        debug_assert!(previous_accesses <= previous_events);
        (self.alpha + previous_accesses as f64) / (previous_events as f64 + 1.0)
    }

    /// Scores every session of a user in order, returning one probability
    /// per session computed from the sessions before it.
    pub fn score_user(&self, user: &UserHistory) -> Vec<f64> {
        let mut accesses = 0usize;
        user.sessions
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let p = self.predict(i, accesses);
                accesses += s.accessed as usize;
                p
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::schema::{Context, Session, Tab, UserId};

    fn user(flags: &[bool]) -> UserHistory {
        UserHistory::new(
            UserId(0),
            flags
                .iter()
                .enumerate()
                .map(|(i, &accessed)| Session {
                    timestamp: i as i64 * 100,
                    context: Context::MobileTab {
                        unread_count: 0,
                        active_tab: Tab::Home,
                    },
                    accessed,
                })
                .collect(),
        )
    }

    #[test]
    fn predict_matches_formula() {
        let m = PercentageModel::new(0.1);
        assert!((m.predict(0, 0) - 0.1).abs() < 1e-12);
        assert!((m.predict(4, 2) - 2.1 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn fit_sessions_computes_global_rate() {
        let users = [user(&[true, false, false, true]), user(&[false, false])];
        let m = PercentageModel::fit_sessions(users.iter());
        assert!((m.alpha() - 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn fit_labels_and_degenerate_cases() {
        let m = PercentageModel::fit_labels([true, true, false, false]);
        assert!((m.alpha() - 0.5).abs() < 1e-12);
        // All-negative data stays a valid prior.
        let m = PercentageModel::fit_labels([false, false]);
        assert!(m.alpha() > 0.0);
        // Empty data falls back to 0.5.
        let m = PercentageModel::fit_labels(std::iter::empty());
        assert!((m.alpha() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn score_user_is_causal_and_converges_to_rate() {
        let m = PercentageModel::new(0.2);
        let u = user(&[true, true, false, true, true, true, true, true, true, true]);
        let scores = m.score_user(&u);
        assert_eq!(scores.len(), 10);
        // First prediction uses only the prior.
        assert!((scores[0] - 0.2).abs() < 1e-12);
        // Later predictions approach the user's high access rate.
        assert!(scores[9] > 0.7);
        // Predictions never peek at the current label: score index i depends
        // only on flags < i, so flipping the last flag cannot change it.
        let mut flipped = u.clone();
        flipped.sessions[9].accessed = false;
        let scores_flipped = m.score_user(&flipped);
        assert_eq!(scores[9], scores_flipped[9]);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1)")]
    fn invalid_alpha_panics() {
        let _ = PercentageModel::new(1.5);
    }
}
