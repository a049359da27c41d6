//! Turning batched scores into precompute decisions.
//!
//! The [`DecisionEngine`] is deliberately small: policy application plus
//! bookkeeping. Admission control (budget) lives in
//! [`crate::scheduler::PrefetchScheduler`]; the engine records *intent*
//! (prefetch / skip) and the system downgrades a prefetch to
//! [`Action::Denied`] when the budget refuses it.

use crate::activity::Activity;
use crate::policy::PrecomputePolicy;
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

/// Applies a [`PrecomputePolicy`] to batched predictions.
#[derive(Debug, Clone)]
pub struct DecisionEngine {
    policy: PrecomputePolicy,
    stats: DecisionStats,
}

impl DecisionEngine {
    /// Creates an engine applying `policy`.
    pub fn new(policy: PrecomputePolicy) -> Self {
        Self {
            policy,
            stats: DecisionStats::default(),
        }
    }

    /// Replaces the policy in force — the adaptive controller's entry
    /// point.
    pub(crate) fn set_policy(&mut self, policy: PrecomputePolicy) {
        self.policy = policy;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> DecisionStats {
        self.stats
    }

    /// Decides for a single prediction made at `timestamp`, under the
    /// policy in force.
    pub fn decide(&mut self, prediction: &Prediction, timestamp: i64) -> Decision {
        self.stats.scored += 1;
        let prefetch = self.policy.should_precompute(prediction.probability);
        if prefetch {
            self.stats.prefetch_intents += 1;
        } else {
            self.stats.skips += 1;
        }
        Decision {
            user_id: prediction.user_id,
            activity: Activity::MobileTab,
            timestamp,
            probability: prediction.probability,
            threshold: self.policy.threshold(),
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
    fn set_policy_changes_future_decisions_only() {
        let mut engine = DecisionEngine::new(PrecomputePolicy::with_threshold(0.5));
        let before = engine.decide(&prediction(1, 0.55), 0);
        engine.set_policy(PrecomputePolicy::with_threshold(0.7));
        let after = engine.decide(&prediction(1, 0.55), 1);
        assert_eq!(before.action, Action::Prefetch);
        assert_eq!(after.action, Action::Skip);
        assert!((before.threshold - 0.5).abs() < 1e-12);
        assert!((after.threshold - 0.7).abs() < 1e-12);
    }
}
