//! Ground-truth accounting for precompute decisions.
//!
//! Every decision is eventually resolved against what the session actually
//! did, landing in exactly one of five buckets — the conservation property
//! the whole measurement story rests on: *decisions recorded = outcomes
//! counted + decisions still pending*. From the buckets fall out the live
//! metrics the paper optimizes: precision (successful prefetches over all
//! prefetches), recall (successful prefetches over all accesses) and the
//! waste ratio.

use crate::decision::{Action, Decision};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// How one resolved decision turned out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Prefetched, the user accessed, and the payload was served fresh.
    Hit,
    /// Prefetched but the user never accessed — pure waste.
    WastedPrefetch,
    /// Prefetched and the user accessed, but the payload had expired or
    /// been evicted — the work was spent *and* the access missed.
    ExpiredPrefetch,
    /// Not prefetched (skipped or denied) and the user accessed.
    MissedAccess,
    /// Not prefetched and the user did not access.
    CorrectSkip,
}

/// Outcome bucket totals.
///
/// # Examples
///
/// ```
/// use pp_precompute::OutcomeCounts;
///
/// let counts = OutcomeCounts {
///     hits: 6,
///     wasted_prefetches: 3,
///     expired_prefetches: 1,
///     missed_accesses: 2,
///     correct_skips: 8,
/// };
/// assert_eq!(counts.resolved(), 20);
/// assert_eq!(counts.prefetches_resolved(), 10);
/// assert_eq!(counts.accesses(), 9);
/// assert_eq!(counts.precision(), Some(0.6));
/// assert_eq!(counts.recall(), Some(6.0 / 9.0));
/// assert_eq!(counts.waste_ratio(), Some(0.3));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Successful prefetches.
    pub hits: u64,
    /// Prefetches for sessions without an access.
    pub wasted_prefetches: u64,
    /// Prefetches whose payload was stale or gone at access time.
    pub expired_prefetches: u64,
    /// Accesses that had no prefetch.
    pub missed_accesses: u64,
    /// Correctly skipped sessions.
    pub correct_skips: u64,
}

impl OutcomeCounts {
    /// Total decisions resolved.
    pub fn resolved(&self) -> u64 {
        self.hits
            + self.wasted_prefetches
            + self.expired_prefetches
            + self.missed_accesses
            + self.correct_skips
    }

    /// Prefetch decisions resolved (executed prefetches only).
    pub fn prefetches_resolved(&self) -> u64 {
        self.hits + self.wasted_prefetches + self.expired_prefetches
    }

    /// Sessions that actually accessed the activity.
    pub fn accesses(&self) -> u64 {
        self.hits + self.expired_prefetches + self.missed_accesses
    }

    /// Live precision: successful prefetches over executed prefetches
    /// (`None` until a prefetch has resolved).
    pub fn precision(&self) -> Option<f64> {
        let prefetches = self.prefetches_resolved();
        (prefetches > 0).then(|| self.hits as f64 / prefetches as f64)
    }

    /// Live recall: successful prefetches over accesses (`None` until an
    /// access has resolved).
    pub fn recall(&self) -> Option<f64> {
        let accesses = self.accesses();
        (accesses > 0).then(|| self.hits as f64 / accesses as f64)
    }

    /// Fraction of executed prefetches that were pure waste.
    pub fn waste_ratio(&self) -> Option<f64> {
        let prefetches = self.prefetches_resolved();
        (prefetches > 0).then(|| self.wasted_prefetches as f64 / prefetches as f64)
    }

    fn bump(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Hit => self.hits += 1,
            Outcome::WastedPrefetch => self.wasted_prefetches += 1,
            Outcome::ExpiredPrefetch => self.expired_prefetches += 1,
            Outcome::MissedAccess => self.missed_accesses += 1,
            Outcome::CorrectSkip => self.correct_skips += 1,
        }
    }
}

/// One resolved decision reduced to the (score, label) pair a calibration
/// step needs: the predicted probability the decision was taken at, and
/// whether the session actually accessed the activity. Resolutions of every
/// action kind contribute — skips and denials label the below-threshold
/// score range, which is exactly what a recalibration fit must see to place
/// the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResolvedSample {
    /// Predicted access probability at decision time.
    pub score: f64,
    /// Ground truth: did the session access the activity?
    pub label: bool,
}

/// Most recent resolutions' (score, label) samples kept for recalibration
/// when nobody drains them (bounded so an un-drained tracker cannot grow
/// forever). Anything waiting on a sample count must trigger at or below
/// this bound — the count can never exceed it.
pub const MAX_RETAINED_SAMPLES: usize = 8_192;

/// Resolves decisions against observed session outcomes.
///
/// # Examples
///
/// ```
/// use pp_data::schema::UserId;
/// use pp_precompute::{Action, Activity, Decision, Outcome, OutcomeTracker};
///
/// let mut tracker = OutcomeTracker::new();
/// tracker.record(Decision {
///     user_id: UserId(7),
///     activity: Activity::MobileTab,
///     timestamp: 0,
///     probability: 0.8,
///     threshold: 0.5,
///     action: Action::Prefetch,
/// });
/// // The session accessed and the payload was served fresh: a hit.
/// let outcome = tracker.resolve(UserId(7), true, true).unwrap();
/// assert_eq!(outcome, Outcome::Hit);
/// assert_eq!(tracker.counts().hits, 1);
/// assert!(tracker.check_conservation().is_ok());
/// ```
#[derive(Debug, Default)]
pub struct OutcomeTracker {
    /// The outstanding (unresolved) decision per user.
    pending: HashMap<u64, Decision>,
    counts: OutcomeCounts,
    recorded: u64,
    /// (score, label) pairs of recent resolutions, oldest first.
    samples: VecDeque<ResolvedSample>,
}

impl OutcomeTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a freshly taken decision as pending resolution.
    ///
    /// # Panics
    ///
    /// Panics if the user already has an unresolved decision — the caller
    /// must resolve the previous session first, otherwise decisions would
    /// leak and conservation would break.
    pub fn record(&mut self, decision: Decision) {
        let previous = self.pending.insert(decision.user_id.0, decision);
        assert!(
            previous.is_none(),
            "user {} already has an unresolved decision",
            decision.user_id
        );
        self.recorded += 1;
    }

    /// The pending decision for `user`, if any.
    pub(crate) fn pending_decision(&self, user: pp_data::schema::UserId) -> Option<Decision> {
        self.pending.get(&user.0).copied()
    }

    /// Resolves the pending decision for `user` against the session's
    /// ground truth: whether the activity was `accessed`, and whether a
    /// fresh `payload_served` came out of the prefetch cache. Returns
    /// `None` when the user has no pending decision.
    pub fn resolve(
        &mut self,
        user: pp_data::schema::UserId,
        accessed: bool,
        payload_served: bool,
    ) -> Option<Outcome> {
        let decision = self.pending.remove(&user.0)?;
        let outcome = match decision.action {
            Action::Prefetch => {
                if accessed && payload_served {
                    Outcome::Hit
                } else if accessed {
                    Outcome::ExpiredPrefetch
                } else {
                    Outcome::WastedPrefetch
                }
            }
            Action::Skip | Action::Denied => {
                if accessed {
                    Outcome::MissedAccess
                } else {
                    Outcome::CorrectSkip
                }
            }
        };
        self.counts.bump(outcome);
        self.samples.push_back(ResolvedSample {
            score: decision.probability,
            label: accessed,
        });
        if self.samples.len() > MAX_RETAINED_SAMPLES {
            self.samples.pop_front();
        }
        Some(outcome)
    }

    /// Outcome totals so far.
    pub fn counts(&self) -> OutcomeCounts {
        self.counts
    }

    /// Decisions recorded so far (resolved or pending).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Decisions still awaiting resolution.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of (score, label) samples awaiting a drain.
    pub(crate) fn samples_len(&self) -> usize {
        self.samples.len()
    }

    /// Drains the (score, label) pairs of the resolutions since the last
    /// drain (bounded to the most recent [`MAX_RETAINED_SAMPLES`]), oldest
    /// first — the window of labelled observations a
    /// [`crate::PrecomputePolicy::recalibrate`] step consumes.
    pub(crate) fn drain_samples(&mut self) -> Vec<ResolvedSample> {
        self.samples.drain(..).collect()
    }

    /// Checks conservation: every recorded decision is either resolved into
    /// exactly one bucket or still pending.
    pub fn check_conservation(&self) -> Result<(), String> {
        let accounted = self.counts.resolved() + self.pending.len() as u64;
        if accounted == self.recorded {
            Ok(())
        } else {
            Err(format!(
                "conservation violated: {} recorded but {} accounted (resolved {} + pending {})",
                self.recorded,
                accounted,
                self.counts.resolved(),
                self.pending.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Activity;
    use pp_data::schema::UserId;
    use proptest::prelude::*;

    fn decision(id: u64, action: Action) -> Decision {
        Decision {
            user_id: UserId(id),
            activity: Activity::MobileTab,
            timestamp: 0,
            probability: 0.5,
            threshold: 0.4,
            action,
        }
    }

    #[test]
    fn all_five_buckets_are_reachable() {
        let mut t = OutcomeTracker::new();
        t.record(decision(1, Action::Prefetch));
        t.record(decision(2, Action::Prefetch));
        t.record(decision(3, Action::Prefetch));
        t.record(decision(4, Action::Skip));
        t.record(decision(5, Action::Denied));
        assert_eq!(t.resolve(UserId(1), true, true), Some(Outcome::Hit));
        assert_eq!(
            t.resolve(UserId(2), false, false),
            Some(Outcome::WastedPrefetch)
        );
        assert_eq!(
            t.resolve(UserId(3), true, false),
            Some(Outcome::ExpiredPrefetch)
        );
        assert_eq!(
            t.resolve(UserId(4), true, false),
            Some(Outcome::MissedAccess)
        );
        assert_eq!(
            t.resolve(UserId(5), false, false),
            Some(Outcome::CorrectSkip)
        );
        let counts = t.counts();
        assert_eq!(counts.resolved(), 5);
        assert_eq!(counts.prefetches_resolved(), 3);
        assert_eq!(counts.accesses(), 3);
        assert!((counts.precision().unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!((counts.recall().unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!((counts.waste_ratio().unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!(t.check_conservation().is_ok());
    }

    #[test]
    fn resolve_without_pending_is_none_and_abandon_counts_as_no_access() {
        let mut t = OutcomeTracker::new();
        assert!(t.resolve(UserId(1), true, true).is_none());
        t.record(decision(1, Action::Prefetch));
        // A session abandoned before its ground truth resolves as no access.
        assert_eq!(
            t.resolve(UserId(1), false, false),
            Some(Outcome::WastedPrefetch)
        );
        assert!(t.check_conservation().is_ok());
    }

    #[test]
    #[should_panic(expected = "already has an unresolved decision")]
    fn double_record_panics() {
        let mut t = OutcomeTracker::new();
        t.record(decision(1, Action::Skip));
        t.record(decision(1, Action::Skip));
    }

    #[test]
    fn resolutions_accumulate_drainable_score_label_samples() {
        let mut t = OutcomeTracker::new();
        t.record(Decision {
            probability: 0.8,
            ..decision(1, Action::Prefetch)
        });
        t.record(Decision {
            probability: 0.2,
            ..decision(2, Action::Skip)
        });
        t.record(Decision {
            probability: 0.7,
            ..decision(3, Action::Denied)
        });
        assert_eq!(t.samples_len(), 0);
        t.resolve(UserId(1), true, true);
        t.resolve(UserId(2), false, false);
        t.resolve(UserId(3), true, false);
        assert_eq!(t.samples_len(), 3);
        let samples = t.drain_samples();
        // Every action kind contributes, in resolution order, carrying the
        // decision-time score and the ground-truth access label.
        assert_eq!(
            samples,
            vec![
                ResolvedSample {
                    score: 0.8,
                    label: true
                },
                ResolvedSample {
                    score: 0.2,
                    label: false
                },
                ResolvedSample {
                    score: 0.7,
                    label: true
                },
            ]
        );
        assert_eq!(t.samples_len(), 0);
        assert!(t.drain_samples().is_empty());
        assert!(t.check_conservation().is_ok());
    }

    #[test]
    fn empty_counts_have_no_rates() {
        let counts = OutcomeCounts::default();
        assert!(counts.precision().is_none());
        assert!(counts.recall().is_none());
        assert!(counts.waste_ratio().is_none());
    }

    proptest! {
        /// The conservation property from the acceptance criteria: under an
        /// arbitrary interleaving of decisions and (eventual) resolutions,
        /// every decision lands in exactly one bucket.
        #[test]
        fn accounting_exactly_balances_decisions(
            actions in prop::collection::vec(0u8..3, 1..200),
            accessed in prop::collection::vec(any::<bool>(), 1..200),
            served in prop::collection::vec(any::<bool>(), 1..200),
            resolve_now in prop::collection::vec(any::<bool>(), 1..200),
        ) {
            let mut t = OutcomeTracker::new();
            let n = actions
                .len()
                .min(accessed.len())
                .min(served.len())
                .min(resolve_now.len());
            for i in 0..n {
                let action = match actions[i] {
                    0 => Action::Prefetch,
                    1 => Action::Skip,
                    _ => Action::Denied,
                };
                // Distinct user per decision; resolution order interleaves.
                t.record(decision(i as u64, action));
                prop_assert!(t.check_conservation().is_ok());
                if resolve_now[i] {
                    let outcome = t.resolve(UserId(i as u64), accessed[i], served[i]);
                    prop_assert!(outcome.is_some());
                    prop_assert!(t.check_conservation().is_ok());
                }
            }
            // Drain the stragglers.
            for i in 0..n {
                let _ = t.resolve(UserId(i as u64), accessed[i], served[i]);
            }
            prop_assert_eq!(t.pending_len(), 0);
            prop_assert_eq!(t.counts().resolved(), n as u64);
            prop_assert_eq!(t.recorded(), n as u64);
            prop_assert!(t.check_conservation().is_ok());
            // Per-class consistency: prefetch buckets only from prefetches.
            let prefetch_decisions = actions[..n]
                .iter()
                .filter(|&&a| a == 0)
                .count() as u64;
            prop_assert_eq!(t.counts().prefetches_resolved(), prefetch_decisions);
        }
    }
}
