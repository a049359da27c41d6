//! Sequence planning with update lag δ (paper §6.1, Figure 2).
//!
//! The ground truth of a session only becomes known once the session window
//! closes, and computing the new hidden state takes additional time ε.
//! A prediction at time `t_i` therefore cannot use `h_{i-1}`; it must use
//! `h_k` where `k` is the largest index with `t_k < t_i − δ` and
//! `δ = session_length + ε`. This module turns a user's access log into an
//! explicit plan: the ordered hidden-state updates, and for every prediction
//! the index of the hidden state it is allowed to read plus the elapsed-time
//! input `T(t_i − t_k)`.

use pp_data::schema::{Dataset, DatasetKind, UserHistory, SECONDS_PER_DAY};
use pp_data::synth::{build_peak_window_examples, PeakWindowExample};
use pp_features::rnn_input::RnnFeaturizer;

/// Update-lag configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LagConfig {
    /// Fixed session length in seconds (paper: 20 minutes for MobileTab and
    /// Timeshift, 10 minutes for MPU).
    pub session_length_secs: i64,
    /// Additional latency ε before the updated hidden state is available.
    pub update_latency_secs: i64,
}

impl LagConfig {
    /// The paper's defaults for a dataset family.
    pub fn for_kind(kind: DatasetKind) -> Self {
        match kind {
            DatasetKind::MobileTab | DatasetKind::Timeshift => Self {
                session_length_secs: 20 * 60,
                update_latency_secs: 60,
            },
            DatasetKind::Mpu => Self {
                session_length_secs: 10 * 60,
                update_latency_secs: 60,
            },
        }
    }

    /// The total lag `δ = session_length + ε`.
    pub fn delta(&self) -> i64 {
        self.session_length_secs + self.update_latency_secs
    }
}

/// One hidden-state update (one session, in chronological order).
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStep {
    /// Index of the session within the user's history.
    pub session_index: usize,
    /// The GRU input `[f_i ; T(Δt_i) ; A_i]`.
    pub update_input: Vec<f32>,
}

/// One prediction to be made (and scored) for a user.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionStep {
    /// Number of hidden-state updates available to this prediction: the
    /// prediction reads `h_k`, where `h_0` is the all-zero initial state.
    pub hidden_index: usize,
    /// The prediction input `[f_i ; T(t_i − t_k)]` (or `[T(start_d − t_k)]`
    /// for the timeshifted task).
    pub predict_input: Vec<f32>,
    /// Ground-truth label.
    pub label: bool,
    /// Prediction timestamp (session start, or peak-window start).
    pub timestamp: i64,
    /// Day offset relative to the dataset start (for last-N-days filters).
    pub day_offset: u32,
}

/// The full training/evaluation plan for one user: hidden updates in order,
/// plus the predictions that read them.
#[derive(Debug, Clone, PartialEq)]
pub struct UserSequencePlan {
    /// Hidden-state updates, one per session, chronological.
    pub updates: Vec<UpdateStep>,
    /// Predictions, chronological.
    pub predictions: Vec<PredictionStep>,
}

impl UserSequencePlan {
    /// Number of sessions (updates) in the plan.
    pub fn num_updates(&self) -> usize {
        self.updates.len()
    }

    /// Number of predictions in the plan.
    pub fn num_predictions(&self) -> usize {
        self.predictions.len()
    }

    /// Retains only predictions whose day offset is at least
    /// `first_day_offset` (the paper trains on the last 21 days and
    /// evaluates on the last 7).
    pub fn retain_predictions_from_day(&mut self, first_day_offset: u32) {
        self.predictions
            .retain(|p| p.day_offset >= first_day_offset);
    }

    /// Checks the lag invariant: every prediction's `hidden_index` must not
    /// exceed the number of updates, and must only reference sessions whose
    /// timestamps are at least `delta` older than the prediction.
    pub fn validate_lag(&self, user: &UserHistory, delta: i64) -> Result<(), String> {
        for p in &self.predictions {
            if p.hidden_index > self.updates.len() {
                return Err(format!(
                    "prediction at {} references hidden index {} beyond {} updates",
                    p.timestamp,
                    p.hidden_index,
                    self.updates.len()
                ));
            }
            if p.hidden_index > 0 {
                let k_session = self.updates[p.hidden_index - 1].session_index;
                let t_k = user.sessions[k_session].timestamp;
                if t_k >= p.timestamp - delta {
                    return Err(format!(
                        "prediction at {} uses hidden state from session at {} violating δ = {}",
                        p.timestamp, t_k, delta
                    ));
                }
            }
            // The *next* update (if any) must not have been usable.
            if p.hidden_index < self.updates.len() {
                let next_session = self.updates[p.hidden_index].session_index;
                let t_next = user.sessions[next_session].timestamp;
                if t_next < p.timestamp - delta {
                    return Err(format!(
                        "prediction at {} could have used the newer hidden state from {}",
                        p.timestamp, t_next
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Builds the per-session plan for one user (Eq. 1–2 of the paper).
pub fn plan_per_session(
    user: &UserHistory,
    featurizer: &RnnFeaturizer,
    lag: LagConfig,
    dataset_start: i64,
) -> UserSequencePlan {
    let delta = lag.delta();
    let mut updates = Vec::with_capacity(user.sessions.len());
    let mut predictions = Vec::with_capacity(user.sessions.len());
    for (i, session) in user.sessions.iter().enumerate() {
        // Δt_i = t_i − t_{i−1} (0 for the first session).
        let delta_t = if i == 0 {
            0
        } else {
            session.timestamp - user.sessions[i - 1].timestamp
        };
        updates.push(UpdateStep {
            session_index: i,
            update_input: featurizer.update_input(
                session.timestamp,
                &session.context,
                delta_t,
                session.accessed,
            ),
        });

        // k = max index with t_k < t_i − δ (1-based count of usable updates).
        let k = user
            .sessions
            .partition_point(|s| s.timestamp < session.timestamp - delta);
        let elapsed = if k == 0 {
            0
        } else {
            session.timestamp - user.sessions[k - 1].timestamp
        };
        let day_offset = ((session.timestamp - dataset_start) / SECONDS_PER_DAY).max(0) as u32;
        predictions.push(PredictionStep {
            hidden_index: k,
            predict_input: featurizer.predict_input(session.timestamp, &session.context, elapsed),
            label: session.accessed,
            timestamp: session.timestamp,
            day_offset,
        });
    }
    UserSequencePlan {
        updates,
        predictions,
    }
}

/// Builds the timeshifted plan for one user (Eq. 3): one prediction per peak
/// window, made `lead_time_secs` before the window opens, using only hidden
/// states from sessions older than the prediction time minus δ.
pub fn plan_timeshift(
    user: &UserHistory,
    windows: &[PeakWindowExample],
    featurizer: &RnnFeaturizer,
    lag: LagConfig,
    lead_time_secs: i64,
    dataset_start: i64,
) -> UserSequencePlan {
    let delta = lag.delta();
    let mut updates = Vec::with_capacity(user.sessions.len());
    for (i, session) in user.sessions.iter().enumerate() {
        let delta_t = if i == 0 {
            0
        } else {
            session.timestamp - user.sessions[i - 1].timestamp
        };
        updates.push(UpdateStep {
            session_index: i,
            update_input: featurizer.update_input(
                session.timestamp,
                &session.context,
                delta_t,
                session.accessed,
            ),
        });
    }
    let mut predictions = Vec::new();
    for w in windows.iter().filter(|w| w.user_id == user.user_id) {
        let prediction_time = w.window_start - lead_time_secs;
        let k = user
            .sessions
            .partition_point(|s| s.timestamp < prediction_time - delta);
        let elapsed = if k == 0 {
            0
        } else {
            w.window_start - user.sessions[k - 1].timestamp
        };
        let day_offset = ((w.window_start - dataset_start) / SECONDS_PER_DAY).max(0) as u32;
        predictions.push(PredictionStep {
            hidden_index: k,
            predict_input: featurizer.timeshift_predict_input(elapsed),
            label: w.accessed_in_window,
            timestamp: w.window_start,
            day_offset,
        });
    }
    predictions.sort_by_key(|p| p.timestamp);
    UserSequencePlan {
        updates,
        predictions,
    }
}

/// Builds the timeshifted plans for every user of a Timeshift dataset.
///
/// # Panics
///
/// Panics if the dataset is not a Timeshift dataset.
pub fn plan_timeshift_dataset(
    dataset: &Dataset,
    featurizer: &RnnFeaturizer,
    lag: LagConfig,
    lead_time_secs: i64,
) -> Vec<UserSequencePlan> {
    let windows = build_peak_window_examples(dataset, lead_time_secs);
    dataset
        .users
        .iter()
        .map(|u| {
            plan_timeshift(
                u,
                &windows,
                featurizer,
                lag,
                lead_time_secs,
                dataset.start_timestamp,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::schema::{Context, Session, Tab, UserId};
    use pp_data::synth::{SyntheticGenerator, TimeshiftConfig, TimeshiftGenerator};

    fn user_with_gaps(gaps: &[i64]) -> UserHistory {
        // Sessions at cumulative offsets from t=100_000, alternating labels.
        let mut t = 100_000;
        let mut sessions = Vec::new();
        for (i, &g) in gaps.iter().enumerate() {
            t += g;
            sessions.push(Session {
                timestamp: t,
                context: Context::MobileTab {
                    unread_count: 1,
                    active_tab: Tab::Home,
                },
                accessed: i % 2 == 0,
            });
        }
        UserHistory::new(UserId(1), sessions)
    }

    fn featurizer() -> RnnFeaturizer {
        RnnFeaturizer::new(DatasetKind::MobileTab)
    }

    #[test]
    fn lag_defaults_match_paper() {
        let mt = LagConfig::for_kind(DatasetKind::MobileTab);
        assert_eq!(mt.session_length_secs, 1_200);
        assert_eq!(mt.delta(), 1_260);
        let mpu = LagConfig::for_kind(DatasetKind::Mpu);
        assert_eq!(mpu.session_length_secs, 600);
    }

    #[test]
    fn rapid_sessions_cannot_use_fresh_hidden_state() {
        // Three sessions 5 minutes apart: with δ = 21 minutes, the 2nd and
        // 3rd predictions must still use h_0 (Figure 2's t_3 < t_2 + δ case).
        let user = user_with_gaps(&[0, 300, 300]);
        let lag = LagConfig::for_kind(DatasetKind::MobileTab);
        let plan = plan_per_session(&user, &featurizer(), lag, 0);
        assert_eq!(plan.num_updates(), 3);
        assert_eq!(plan.predictions[0].hidden_index, 0);
        assert_eq!(plan.predictions[1].hidden_index, 0);
        assert_eq!(plan.predictions[2].hidden_index, 0);
        plan.validate_lag(&user, lag.delta()).unwrap();
    }

    #[test]
    fn well_spaced_sessions_use_previous_hidden_state() {
        // Sessions 2 hours apart: each prediction after the first can use the
        // immediately preceding hidden state.
        let user = user_with_gaps(&[0, 7_200, 7_200, 7_200]);
        let lag = LagConfig::for_kind(DatasetKind::MobileTab);
        let plan = plan_per_session(&user, &featurizer(), lag, 0);
        let ks: Vec<usize> = plan.predictions.iter().map(|p| p.hidden_index).collect();
        assert_eq!(ks, vec![0, 1, 2, 3]);
        plan.validate_lag(&user, lag.delta()).unwrap();
    }

    #[test]
    fn mixed_gaps_skip_unavailable_states() {
        // Gaps: 2h, 10min, 2h → the 3rd session (10 min after the 2nd) can
        // only use h_1; the 4th can use h_3.
        let user = user_with_gaps(&[0, 7_200, 600, 7_200]);
        let lag = LagConfig::for_kind(DatasetKind::MobileTab);
        let plan = plan_per_session(&user, &featurizer(), lag, 0);
        let ks: Vec<usize> = plan.predictions.iter().map(|p| p.hidden_index).collect();
        assert_eq!(ks, vec![0, 1, 1, 3]);
        plan.validate_lag(&user, lag.delta()).unwrap();
    }

    #[test]
    fn validate_lag_detects_violations() {
        let user = user_with_gaps(&[0, 7_200]);
        let lag = LagConfig::for_kind(DatasetKind::MobileTab);
        let mut plan = plan_per_session(&user, &featurizer(), lag, 0);
        // Corrupt the plan: give the second prediction access to h_2 (its own
        // session's update).
        plan.predictions[1].hidden_index = 2;
        assert!(plan.validate_lag(&user, lag.delta()).is_err());
    }

    #[test]
    fn day_filter_retains_recent_predictions_only() {
        let user = user_with_gaps(&[0, SECONDS_PER_DAY, SECONDS_PER_DAY, SECONDS_PER_DAY]);
        let lag = LagConfig::for_kind(DatasetKind::MobileTab);
        let mut plan = plan_per_session(&user, &featurizer(), lag, 0);
        assert_eq!(plan.num_predictions(), 4);
        let max_day = plan.predictions.iter().map(|p| p.day_offset).max().unwrap();
        plan.retain_predictions_from_day(max_day);
        assert_eq!(plan.num_predictions(), 1);
        // Updates are untouched: the hidden state still consumes all history.
        assert_eq!(plan.num_updates(), 4);
    }

    #[test]
    fn labels_and_inputs_match_sessions() {
        let user = user_with_gaps(&[0, 7_200, 7_200]);
        let lag = LagConfig::for_kind(DatasetKind::MobileTab);
        let f = featurizer();
        let plan = plan_per_session(&user, &f, lag, 0);
        for (i, p) in plan.predictions.iter().enumerate() {
            assert_eq!(p.label, user.sessions[i].accessed);
            assert_eq!(p.predict_input.len(), f.predict_input_dims());
        }
        for (i, u) in plan.updates.iter().enumerate() {
            assert_eq!(u.session_index, i);
            assert_eq!(u.update_input.len(), f.update_input_dims());
        }
    }

    #[test]
    fn timeshift_plan_covers_all_windows_and_respects_lag() {
        let ds = TimeshiftGenerator::new(TimeshiftConfig {
            num_users: 5,
            ..Default::default()
        })
        .generate();
        let f = RnnFeaturizer::new(DatasetKind::Timeshift);
        let lag = LagConfig::for_kind(DatasetKind::Timeshift);
        let plans = plan_timeshift_dataset(&ds, &f, lag, 6 * 3_600);
        assert_eq!(plans.len(), 5);
        for (user, plan) in ds.users.iter().zip(&plans) {
            assert_eq!(plan.num_predictions(), ds.num_days as usize);
            assert_eq!(plan.num_updates(), user.len());
            for p in &plan.predictions {
                assert_eq!(p.predict_input.len(), f.timeshift_predict_dims());
                // The hidden state must come from a session before the
                // prediction horizon minus δ.
                if p.hidden_index > 0 {
                    let t_k = user.sessions[p.hidden_index - 1].timestamp;
                    assert!(t_k < p.timestamp - 6 * 3_600 - lag.delta());
                }
            }
        }
    }
}
