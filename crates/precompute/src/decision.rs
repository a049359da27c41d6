//! Turning batched scores into precompute decisions.
//!
//! The [`DecisionEngine`] is deliberately small: policy application plus
//! bookkeeping. Admission control (budget) lives in
//! [`crate::scheduler::PrefetchScheduler`]; the engine records *intent*
//! (prefetch / skip) and the system downgrades a prefetch to
//! [`Action::Denied`] when the budget refuses it.

use crate::activity::{Activity, ActivityMap};
use pp_core::PrecomputePolicy;
use pp_data::schema::UserId;
use pp_serving::Prediction;
use serde::{Deserialize, Serialize};

/// What the subsystem did (or declined to do) for one scored session start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// The policy fired and the prefetch was admitted and executed.
    Prefetch,
    /// The predicted probability fell below the threshold.
    Skip,
    /// The policy fired but the budget scheduler refused admission.
    Denied,
}

/// One precompute decision for one session start.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// The user the session belongs to.
    pub user_id: UserId,
    /// The activity the decision precomputes for.
    pub activity: Activity,
    /// Session-start timestamp (UNIX seconds) the decision was taken at.
    pub timestamp: i64,
    /// The predicted access probability the decision was based on.
    pub probability: f64,
    /// The threshold in force when the decision was taken.
    pub threshold: f64,
    /// What was done.
    pub action: Action,
}

/// Counters describing decision-engine behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionStats {
    /// Predictions scored against the policy.
    pub scored: u64,
    /// Decisions whose policy verdict was "prefetch".
    pub prefetch_intents: u64,
    /// Decisions whose policy verdict was "skip".
    pub skips: u64,
}

/// Applies per-activity [`PrecomputePolicy`]s to batched predictions.
///
/// The public calls are single-activity: [`DecisionEngine::decide`]
/// decides on [`Activity::MobileTab`]. It is the N = 1 call of the
/// crate-private per-activity form, through which
/// [`crate::PrecomputeSystem`] gives each activity its own operating point.
#[derive(Debug, Clone)]
pub struct DecisionEngine {
    policies: ActivityMap<PrecomputePolicy>,
    by_activity: ActivityMap<DecisionStats>,
}

impl DecisionEngine {
    /// Creates an engine applying `policy` to every activity.
    pub fn new(policy: PrecomputePolicy) -> Self {
        Self {
            policies: ActivityMap::uniform(policy),
            by_activity: ActivityMap::uniform(DecisionStats::default()),
        }
    }

    /// Replaces the policy in force for `activity` only — the per-activity
    /// controller's entry point in a shared deployment.
    pub(crate) fn set_policy_for(&mut self, activity: Activity, policy: PrecomputePolicy) {
        self.policies[activity] = policy;
    }

    /// Counters accumulated so far, summed across activities.
    pub fn stats(&self) -> DecisionStats {
        let mut total = DecisionStats::default();
        for stats in self.by_activity.values() {
            total.scored += stats.scored;
            total.prefetch_intents += stats.prefetch_intents;
            total.skips += stats.skips;
        }
        total
    }

    /// Counters accumulated for `activity`.
    pub(crate) fn stats_for(&self, activity: Activity) -> DecisionStats {
        self.by_activity[activity]
    }

    /// Decides for a single prediction made at `timestamp`, under the
    /// policy in force.
    pub fn decide(&mut self, prediction: &Prediction, timestamp: i64) -> Decision {
        self.decide_for(Activity::MobileTab, prediction, timestamp)
    }

    /// [`DecisionEngine::decide`] for an `activity` prediction, under that
    /// activity's policy.
    pub(crate) fn decide_for(
        &mut self,
        activity: Activity,
        prediction: &Prediction,
        timestamp: i64,
    ) -> Decision {
        let policy = self.policies[activity];
        let stats = &mut self.by_activity[activity];
        stats.scored += 1;
        let prefetch = policy.should_precompute(prediction.probability);
        if prefetch {
            stats.prefetch_intents += 1;
        } else {
            stats.skips += 1;
        }
        Decision {
            user_id: prediction.user_id,
            activity,
            timestamp,
            probability: prediction.probability,
            threshold: policy.threshold(),
            action: if prefetch {
                Action::Prefetch
            } else {
                Action::Skip
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prediction(id: u64, p: f64) -> Prediction {
        Prediction {
            user_id: UserId(id),
            probability: p,
        }
    }

    #[test]
    fn policy_splits_prefetch_from_skip() {
        let mut engine = DecisionEngine::new(PrecomputePolicy::with_threshold(0.6));
        let decisions: Vec<Decision> =
            [prediction(1, 0.9), prediction(2, 0.59), prediction(3, 0.6)]
                .iter()
                .map(|p| engine.decide(p, 1_000))
                .collect();
        assert_eq!(decisions[0].action, Action::Prefetch);
        assert_eq!(decisions[1].action, Action::Skip);
        assert_eq!(decisions[2].action, Action::Prefetch);
        for d in &decisions {
            assert_eq!(d.timestamp, 1_000);
            assert!((d.threshold - 0.6).abs() < 1e-12);
        }
        let stats = engine.stats();
        assert_eq!(stats.scored, 3);
        assert_eq!(stats.prefetch_intents, 2);
        assert_eq!(stats.skips, 1);
    }

    #[test]
    fn per_activity_policies_decide_independently() {
        let mut engine = DecisionEngine::new(PrecomputePolicy::with_threshold(0.5));
        engine.set_policy_for(Activity::Mpu, PrecomputePolicy::with_threshold(0.9));
        let p = prediction(1, 0.7);
        let mobile = engine.decide_for(Activity::MobileTab, &p, 0);
        let mpu = engine.decide_for(Activity::Mpu, &p, 0);
        assert_eq!(mobile.action, Action::Prefetch);
        assert_eq!(mobile.activity, Activity::MobileTab);
        assert_eq!(mpu.action, Action::Skip);
        assert_eq!(mpu.activity, Activity::Mpu);
        assert!((mpu.threshold - 0.9).abs() < 1e-12);
        // Per-activity stats split; the aggregate sums them.
        assert_eq!(engine.stats_for(Activity::Mpu).skips, 1);
        assert_eq!(engine.stats_for(Activity::MobileTab).prefetch_intents, 1);
        assert_eq!(engine.stats().scored, 2);
    }

    #[test]
    fn set_policy_changes_future_decisions_only() {
        let mut engine = DecisionEngine::new(PrecomputePolicy::with_threshold(0.5));
        let before = engine.decide(&prediction(1, 0.55), 0);
        engine.set_policy_for(Activity::MobileTab, PrecomputePolicy::with_threshold(0.7));
        let after = engine.decide(&prediction(1, 0.55), 1);
        assert_eq!(before.action, Action::Prefetch);
        assert_eq!(after.action, Action::Skip);
        assert!((before.threshold - 0.5).abs() < 1e-12);
        assert!((after.threshold - 0.7).abs() < 1e-12);
    }
}
