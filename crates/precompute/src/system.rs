//! The assembled subsystem: predict → decide → admit → prefetch → resolve
//! → adapt.
//!
//! [`PrecomputeSystem`] is driven by two calls per session:
//!
//! 1. [`PrecomputeSystem::handle_scores`] at session start, with the wave
//!    of batched predictions the serving engine just produced — applies the
//!    policy, asks the budget scheduler for admission, executes admitted
//!    prefetches into the cache, and registers every decision as pending;
//! 2. [`PrecomputeSystem::resolve_session`] when the session's ground
//!    truth is known — consumes the cached payload (fresh or not), resolves
//!    the decision into its outcome bucket, releases the inflight slot, and
//!    feeds the adaptive controller, which may move the threshold for
//!    subsequent decisions.
//!
//! The two invariants the acceptance criteria name are checkable at any
//! point via [`PrecomputeSystem::check_invariants`]: outcome conservation
//! and a never-overdrawn budget.

use crate::activity::Activity;
use crate::adaptive::{AdaptiveThresholdController, ControllerConfig};
use crate::cache::{CacheConfig, CacheStats, PrefetchCache};
use crate::decision::{Action, Decision, DecisionEngine, DecisionStats};
use crate::outcome::{Outcome, OutcomeCounts, OutcomeTracker};
use crate::scheduler::{
    AdmissionOrder, AdmitResult, BudgetConfig, PrefetchScheduler, SchedulerBudgetStats,
};
use bytes::Bytes;
use pp_data::schema::UserId;
use pp_serving::Prediction;

/// Configuration of the assembled subsystem.
///
/// Every `now` the system is driven with is in **seconds** of traffic time:
/// the cache's `ttl_secs` and the budget's `refill_units_per_sec` are both
/// denominated against that clock. A deployment on a finer clock must
/// convert before calling in; refill is computed from whole elapsed
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Threshold the decision engine starts from (the offline-calibrated
    /// operating point).
    pub initial_threshold: f64,
    /// Budget scheduler configuration.
    pub budget: BudgetConfig,
    /// Prefetch cache configuration.
    pub cache: CacheConfig,
    /// Adaptive threshold controller configuration.
    pub controller: ControllerConfig,
    /// Order a wave's prefetch intents are offered to the budget bucket:
    /// FIFO, or highest-probability-first when the bucket is low.
    pub admission: AdmissionOrder,
    /// When `true`, every closed controller window also drains the outcome
    /// tracker's (score, label) samples into
    /// [`crate::PrecomputePolicy::recalibrate`] and applies the refit
    /// threshold — the learned feedback loop. Degenerate windows (all one
    /// label) refuse to refit and the threshold holds.
    pub recalibrate_from_outcomes: bool,
    /// Size of the payload materialized per prefetch.
    pub payload_bytes: usize,
}

/// A point-in-time report of everything the subsystem measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemReport {
    /// Decision-engine counters.
    pub decisions: DecisionStats,
    /// Prefetches denied admission (budget or inflight).
    pub denied: u64,
    /// Outcome bucket totals.
    pub outcomes: OutcomeCounts,
    /// Live precision over executed prefetches, if any resolved.
    pub precision: Option<f64>,
    /// Live recall over observed accesses, if any resolved.
    pub recall: Option<f64>,
    /// Live waste ratio over executed prefetches, if any resolved.
    pub waste_ratio: Option<f64>,
    /// Budget scheduler counters.
    pub budget: SchedulerBudgetStats,
    /// Prefetch cache counters.
    pub cache: CacheStats,
    /// Threshold currently in force.
    pub threshold: f64,
    /// Adjustment windows the controller has closed.
    pub controller_windows: u64,
    /// Closed windows whose drained samples produced a recalibrated
    /// threshold.
    pub recalibrations: u64,
    /// Closed windows whose samples were degenerate or infeasible, so the
    /// threshold held.
    pub recalibration_holds: u64,
}

/// The full budget-aware precompute execution subsystem.
///
/// # Examples
///
/// The two-call flow — score a wave at session start, resolve when the
/// ground truth lands:
///
/// ```
/// use pp_data::schema::UserId;
/// use pp_precompute::{
///     AdmissionOrder, BudgetConfig, CacheConfig, ControllerConfig, Outcome, PrecomputeSystem,
///     SystemConfig,
/// };
/// use pp_serving::Prediction;
///
/// let mut system = PrecomputeSystem::new(SystemConfig {
///     initial_threshold: 0.5,
///     budget: BudgetConfig {
///         capacity_units: 100.0,
///         refill_units_per_sec: 10.0,
///         cost_per_prefetch_units: 10.0,
///         max_inflight: 8,
///     },
///     cache: CacheConfig::default(),
///     controller: ControllerConfig::default(),
///     admission: AdmissionOrder::Priority,
///     recalibrate_from_outcomes: false,
///     payload_bytes: 64,
/// });
/// let wave = [
///     Prediction { user_id: UserId(1), probability: 0.9 }, // prefetch
///     Prediction { user_id: UserId(2), probability: 0.2 }, // skip
/// ];
/// system.handle_scores(&wave, 0);
/// assert_eq!(system.resolve_session(UserId(1), 5, true), Some(Outcome::Hit));
/// assert_eq!(system.resolve_session(UserId(2), 5, false), Some(Outcome::CorrectSkip));
/// assert_eq!(system.report().precision, Some(1.0));
/// system.check_invariants().unwrap();
/// ```
#[derive(Debug)]
pub struct PrecomputeSystem {
    engine: DecisionEngine,
    scheduler: PrefetchScheduler,
    cache: PrefetchCache,
    tracker: OutcomeTracker,
    controller: AdaptiveThresholdController,
    admission: AdmissionOrder,
    recalibrate_from_outcomes: bool,
    recalibrations: u64,
    recalibration_holds: u64,
    payload_bytes: usize,
    /// Whether the last admission pass with candidates hit a budget denial
    /// — the edge into exhaustion emits one `BudgetExhausted` event.
    budget_was_exhausted: bool,
    /// Latest traffic time seen — timestamps recalibration events, whose
    /// entry point ([`PrecomputeSystem::on_window_resolved`]) has no clock.
    clock: i64,
}

impl PrecomputeSystem {
    /// Builds the subsystem from `config`.
    ///
    /// # Panics
    ///
    /// Panics when any component configuration is invalid (see the
    /// component constructors).
    pub fn new(config: SystemConfig) -> Self {
        let controller =
            AdaptiveThresholdController::new(config.initial_threshold, config.controller);
        Self {
            engine: DecisionEngine::new(controller.policy()),
            scheduler: PrefetchScheduler::new(config.budget),
            cache: PrefetchCache::new(config.cache),
            tracker: OutcomeTracker::new(),
            controller,
            admission: config.admission,
            recalibrate_from_outcomes: config.recalibrate_from_outcomes,
            recalibrations: 0,
            recalibration_holds: 0,
            payload_bytes: config.payload_bytes,
            budget_was_exhausted: false,
            clock: 0,
        }
    }

    /// Handles one wave of batched predictions at traffic time `now`:
    /// decides per prediction under the policy in force, admits the wave's
    /// prefetch intents against the budget in the configured
    /// [`AdmissionOrder`], executes admitted prefetches into the cache, and
    /// registers every decision for outcome resolution. Returns the
    /// decisions in input order.
    ///
    /// A user whose previous session never resolved is resolved first as
    /// "ended without access" so decisions cannot leak. A wave containing
    /// the same user twice is split at the repeat — the earlier segment is
    /// admitted and recorded first, so the repeat sweeps the user's earlier
    /// decision exactly as it would across waves (priority admission then
    /// ranks within each unique-user segment).
    pub fn handle_scores(&mut self, predictions: &[Prediction], now: i64) -> Vec<Decision> {
        let mut decisions = Vec::with_capacity(predictions.len());
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut segment_start = 0usize;
        for (i, prediction) in predictions.iter().enumerate() {
            if !seen.insert(prediction.user_id.0) {
                decisions.extend(self.handle_unique_wave(&predictions[segment_start..i], now));
                seen.clear();
                seen.insert(prediction.user_id.0);
                segment_start = i;
            }
        }
        decisions.extend(self.handle_unique_wave(&predictions[segment_start..], now));
        decisions
    }

    /// [`PrecomputeSystem::handle_scores`] for a wave with unique users.
    fn handle_unique_wave(&mut self, predictions: &[Prediction], now: i64) -> Vec<Decision> {
        self.clock = self.clock.max(now);
        let mut decisions = Vec::with_capacity(predictions.len());
        for prediction in predictions {
            if self.tracker.pending_decision(prediction.user_id).is_some() {
                let _ = self.resolve_session(prediction.user_id, now, false);
            }
            decisions.push(self.engine.decide(prediction, now));
        }
        // One admission pass over the wave's prefetch intents: under
        // priority order a low bucket is spent on the highest-probability
        // candidates instead of whichever happened to arrive first.
        let candidates: Vec<usize> = decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| d.action == Action::Prefetch)
            .map(|(i, _)| i)
            .collect();
        let probabilities: Vec<f64> = candidates
            .iter()
            .map(|&i| decisions[i].probability)
            .collect();
        let obs = crate::obs::PrecomputeObs::global();
        // Trace the admission pass when the wave carries at least one
        // sampled candidate: the wave-level `wave_admission` span and the
        // per-user `cache_insert` spans share a wave sequence number, and
        // each insert span carries the *user's* trace id — the same id the
        // serving engine stamped on that user's `submit_many` spans — so
        // one trace follows predict → decide → act.
        let tracer = pp_obs::Tracer::global();
        let wave_traced = tracer.enabled()
            && candidates
                .iter()
                .any(|&i| tracer.sampled(decisions[i].user_id.0));
        let wave_id = if wave_traced {
            tracer.next_batch_id()
        } else {
            0
        };
        let admit_span = wave_traced.then(pp_obs::SpanBuilder::start);
        let admitting = pp_obs::Stopwatch::start();
        let admissions = self
            .scheduler
            .admit_wave(now, &probabilities, self.admission);
        admitting.record(&obs.admission_ns);
        if let Some(builder) = admit_span {
            builder.finish(
                tracer,
                pp_obs::TraceId(wave_id.max(1)),
                pp_obs::SpanId::NONE,
                pp_obs::Stage::WaveAdmission,
                pp_obs::Span::WAVE_WORKER,
                0,
                wave_id,
            );
        }
        if !candidates.is_empty() {
            obs.wave_size.record(candidates.len() as u64);
        }
        let mut denied_budget = false;
        for (&i, admission) in candidates.iter().zip(&admissions) {
            match admission {
                AdmitResult::Admitted => {
                    let user = decisions[i].user_id.0;
                    let insert_span =
                        (wave_traced && tracer.sampled(user)).then(pp_obs::SpanBuilder::start);
                    self.cache.insert(
                        decisions[i].user_id,
                        Bytes::from(vec![0u8; self.payload_bytes]),
                        now,
                    );
                    if let Some(builder) = insert_span {
                        builder.finish(
                            tracer,
                            tracer.trace_for(user),
                            pp_obs::SpanId::NONE,
                            pp_obs::Stage::CacheInsert,
                            pp_obs::Span::WAVE_WORKER,
                            user,
                            wave_id,
                        );
                    }
                }
                AdmitResult::DeniedBudget | AdmitResult::DeniedInflight => {
                    denied_budget |= *admission == AdmitResult::DeniedBudget;
                    decisions[i].action = Action::Denied;
                }
            }
        }
        if !candidates.is_empty() {
            if denied_budget && !self.budget_was_exhausted {
                pp_obs::MetricsRegistry::global().events().record(
                    now,
                    pp_obs::EventKind::BudgetExhausted,
                    "shared_bucket",
                    self.scheduler.tokens(),
                );
            }
            self.budget_was_exhausted = denied_budget;
        }
        for decision in &decisions {
            self.tracker.record(*decision);
        }
        decisions
    }

    /// Resolves the pending decision for `user` against the session's
    /// ground truth at time `now`. Consumes the cached payload (a prefetch
    /// that resolves — used or not — frees its cache slot and its inflight
    /// budget slot), classifies the outcome, and feeds the adaptive
    /// controller. Returns `None` when the user has no pending decision.
    pub fn resolve_session(&mut self, user: UserId, now: i64, accessed: bool) -> Option<Outcome> {
        self.clock = self.clock.max(now);
        let decision = self.tracker.pending_decision(user)?;
        let payload_served = if decision.action == Action::Prefetch {
            let payload = self.cache.take(user, now);
            self.scheduler.complete_one();
            payload.is_some()
        } else {
            false
        };
        let outcome = self
            .tracker
            .resolve(user, accessed, payload_served)
            .expect("pending decision just observed");
        if let Some(window) = self.controller.observe(outcome) {
            self.engine.set_policy(self.controller.policy());
            if pp_obs::is_enabled() {
                let events = pp_obs::MetricsRegistry::global().events();
                events.record(
                    now,
                    pp_obs::EventKind::WindowClosed,
                    Activity::MobileTab.slug(),
                    window.observed_precision,
                );
                if window.threshold_after != window.threshold_before {
                    events.record(
                        now,
                        pp_obs::EventKind::ThresholdMove,
                        Activity::MobileTab.slug(),
                        window.threshold_after,
                    );
                }
            }
            if self.recalibrate_from_outcomes {
                self.on_window_resolved();
            }
        } else if self.recalibrate_from_outcomes
            && self.tracker.samples_len()
                >= (8 * self.controller.config().window).min(crate::outcome::MAX_RETAINED_SAMPLES)
        {
            // The controller's window only advances on *prefetch* outcomes,
            // so a threshold stuck too high starves it and the loop would
            // deadlock at zero prefetches. Resolved skips still carry
            // (score, label) pairs though — once enough pile up without a
            // window close, recalibrate from them anyway so a saturated
            // threshold can find its way back to a live operating point.
            self.on_window_resolved();
        }
        Some(outcome)
    }

    /// The learned feedback loop, fired once per closed controller window
    /// (and as a starvation fallback when samples pile up without one):
    /// drains the outcome tracker's (score, label) samples and re-fits the
    /// policy threshold for the recorded precision target on them. A
    /// successful fit moves the operating point (clamped to the
    /// controller's safe band); a degenerate window — all-positive,
    /// all-negative, or an infeasible target — refuses to refit and the
    /// threshold *holds* at whatever the proportional controller chose.
    fn on_window_resolved(&mut self) {
        let samples = self.tracker.drain_samples();
        let scores: Vec<f64> = samples.iter().map(|s| s.score).collect();
        let labels: Vec<bool> = samples.iter().map(|s| s.label).collect();
        match self.controller.policy().recalibrate(&scores, &labels) {
            Some(refit) => {
                self.controller.set_threshold(refit.threshold());
                self.engine.set_policy(self.controller.policy());
                self.recalibrations += 1;
                let threshold = self.controller.threshold();
                pp_obs::MetricsRegistry::global().events().record(
                    self.clock,
                    pp_obs::EventKind::Recalibration,
                    Activity::MobileTab.slug(),
                    threshold,
                );
            }
            None => {
                self.recalibration_holds += 1;
                pp_obs::MetricsRegistry::global().events().record(
                    self.clock,
                    pp_obs::EventKind::RecalibrationHold,
                    Activity::MobileTab.slug(),
                    scores.len() as f64,
                );
            }
        }
    }

    /// The budget scheduler.
    pub fn scheduler(&self) -> &PrefetchScheduler {
        &self.scheduler
    }

    /// The prefetch cache.
    pub fn cache(&self) -> &PrefetchCache {
        &self.cache
    }

    /// The outcome tracker.
    pub fn tracker(&self) -> &OutcomeTracker {
        &self.tracker
    }

    /// The adaptive threshold controller.
    pub fn controller(&self) -> &AdaptiveThresholdController {
        &self.controller
    }

    /// Snapshot of every live metric.
    pub fn report(&self) -> SystemReport {
        let counts = self.tracker.counts();
        let budget = self.scheduler.stats();
        SystemReport {
            decisions: self.engine.stats(),
            denied: budget.denied_budget + budget.denied_inflight,
            outcomes: counts,
            precision: counts.precision(),
            recall: counts.recall(),
            waste_ratio: counts.waste_ratio(),
            budget,
            cache: self.cache.stats(),
            threshold: self.controller.threshold(),
            controller_windows: self.controller.windows_closed(),
            recalibrations: self.recalibrations,
            recalibration_holds: self.recalibration_holds,
        }
    }

    /// Checks the subsystem invariants: outcome conservation, budget never
    /// overdrawn, and cross-component books (admitted = executed prefetch
    /// decisions = cache insertions).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.tracker.check_conservation()?;
        self.scheduler.check_invariants()?;
        let admitted = self.scheduler.stats().admitted;
        let inserted = self.cache.stats().insertions;
        if admitted != inserted {
            return Err(format!(
                "admitted {admitted} prefetches but inserted {inserted} payloads"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config() -> SystemConfig {
        SystemConfig {
            initial_threshold: 0.5,
            budget: BudgetConfig {
                capacity_units: 400.0,
                refill_units_per_sec: 50.0,
                cost_per_prefetch_units: 10.0,
                max_inflight: 64,
            },
            cache: CacheConfig {
                shards: 4,
                capacity_per_shard: 256,
                ttl_secs: 600,
            },
            controller: ControllerConfig {
                target_precision: 0.7,
                window: 100,
                gain: 0.4,
                min_threshold: 0.01,
                max_threshold: 0.99,
            },
            admission: AdmissionOrder::Fifo,
            recalibrate_from_outcomes: false,
            payload_bytes: 64,
        }
    }

    fn prediction(id: u64, p: f64) -> Prediction {
        Prediction {
            user_id: UserId(id),
            probability: p,
        }
    }

    #[test]
    fn end_to_end_wave_resolves_with_conservation() {
        let mut system = PrecomputeSystem::new(config());
        let wave: Vec<Prediction> = (0..10)
            .map(|i| prediction(i, if i % 2 == 0 { 0.9 } else { 0.1 }))
            .collect();
        let decisions = system.handle_scores(&wave, 1_000);
        assert_eq!(decisions.len(), 10);
        assert_eq!(
            decisions
                .iter()
                .filter(|d| d.action == Action::Prefetch)
                .count(),
            5
        );
        system.check_invariants().unwrap();
        // Resolve: even users (prefetched) accessed, odd did not.
        for i in 0..10u64 {
            let outcome = system
                .resolve_session(UserId(i), 1_010, i % 2 == 0)
                .unwrap();
            match i % 2 {
                0 => assert_eq!(outcome, Outcome::Hit),
                _ => assert_eq!(outcome, Outcome::CorrectSkip),
            }
        }
        system.check_invariants().unwrap();
        let report = system.report();
        assert_eq!(report.outcomes.resolved(), 10);
        assert_eq!(report.precision, Some(1.0));
        assert_eq!(report.recall, Some(1.0));
        assert_eq!(report.waste_ratio, Some(0.0));
        assert_eq!(report.cache.hits, 5);
        assert_eq!(system.scheduler().inflight(), 0);
        assert!(system.cache().is_empty());
    }

    #[test]
    fn budget_exhaustion_downgrades_to_denied() {
        let mut system = PrecomputeSystem::new(SystemConfig {
            budget: BudgetConfig {
                capacity_units: 30.0,
                refill_units_per_sec: 0.0,
                cost_per_prefetch_units: 10.0,
                max_inflight: 64,
            },
            ..config()
        });
        let wave: Vec<Prediction> = (0..8).map(|i| prediction(i, 0.9)).collect();
        let decisions = system.handle_scores(&wave, 0);
        let admitted = decisions
            .iter()
            .filter(|d| d.action == Action::Prefetch)
            .count();
        let denied = decisions
            .iter()
            .filter(|d| d.action == Action::Denied)
            .count();
        assert_eq!(admitted, 3, "bucket holds exactly 3 prefetches");
        assert_eq!(denied, 5);
        system.check_invariants().unwrap();
        // A denied decision for an accessed session is a missed access.
        for i in 0..8u64 {
            let _ = system.resolve_session(UserId(i), 5, true).unwrap();
        }
        let counts = system.tracker().counts();
        assert_eq!(counts.hits, 3);
        assert_eq!(counts.missed_accesses, 5);
        system.check_invariants().unwrap();
    }

    #[test]
    fn expired_payload_counts_against_precision() {
        let mut system = PrecomputeSystem::new(config());
        system.handle_scores(&[prediction(1, 0.9)], 0);
        // Resolve long after the 600 s TTL.
        let outcome = system.resolve_session(UserId(1), 10_000, true).unwrap();
        assert_eq!(outcome, Outcome::ExpiredPrefetch);
        assert_eq!(system.report().precision, Some(0.0));
        system.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_user_within_one_wave_sweeps_the_earlier_decision() {
        // The same user twice in a single wave must behave like two waves:
        // the first decision is admitted, recorded, then swept as "ended
        // without access" when the repeat arrives — not a panic.
        let mut system = PrecomputeSystem::new(config());
        let wave = [
            prediction(7, 0.9),
            prediction(8, 0.9),
            prediction(7, 0.9),
            prediction(7, 0.1),
        ];
        let decisions = system.handle_scores(&wave, 0);
        assert_eq!(decisions.len(), 4);
        assert_eq!(decisions[0].action, Action::Prefetch);
        assert_eq!(decisions[2].action, Action::Prefetch);
        assert_eq!(decisions[3].action, Action::Skip);
        system.check_invariants().unwrap();
        let counts = system.tracker().counts();
        // User 7's first two decisions were swept as wasted prefetches; the
        // third is pending alongside user 8's.
        assert_eq!(counts.wasted_prefetches, 2);
        assert_eq!(system.tracker().pending_len(), 2);
    }

    #[test]
    fn unresolved_previous_session_is_swept_on_the_next_wave() {
        let mut system = PrecomputeSystem::new(config());
        system.handle_scores(&[prediction(7, 0.9)], 0);
        // The ground truth for session 1 never arrived; session 2 starts.
        let second = system.handle_scores(&[prediction(7, 0.9)], 100);
        assert_eq!(second.len(), 1);
        system.check_invariants().unwrap();
        let counts = system.tracker().counts();
        // The orphaned prefetch resolved as waste; the new one is pending.
        assert_eq!(counts.wasted_prefetches, 1);
        assert_eq!(system.tracker().pending_len(), 1);
    }

    #[test]
    fn priority_admission_turns_a_tight_budget_into_more_hits() {
        // A bucket that affords 2 prefetches per wave, waves of 4 intents
        // whose probabilities are honest (P(access) = score). FIFO spends
        // the bucket on arrival order; priority on the best scores.
        let tight = |admission| {
            PrecomputeSystem::new(SystemConfig {
                initial_threshold: 0.1,
                budget: BudgetConfig {
                    capacity_units: 20.0,
                    refill_units_per_sec: 0.0,
                    cost_per_prefetch_units: 10.0,
                    max_inflight: 64,
                },
                admission,
                ..config()
            })
        };
        let wave: Vec<Prediction> = [0.2, 0.95, 0.3, 0.9]
            .iter()
            .enumerate()
            .map(|(i, &p)| prediction(i as u64, p))
            .collect();

        let mut fifo = tight(AdmissionOrder::Fifo);
        let fifo_decisions = fifo.handle_scores(&wave, 0);
        assert_eq!(fifo_decisions[0].action, Action::Prefetch);
        assert_eq!(fifo_decisions[1].action, Action::Prefetch);
        assert_eq!(fifo_decisions[2].action, Action::Denied);
        assert_eq!(fifo_decisions[3].action, Action::Denied);

        let mut priority = tight(AdmissionOrder::Priority);
        let priority_decisions = priority.handle_scores(&wave, 0);
        assert_eq!(priority_decisions[0].action, Action::Denied);
        assert_eq!(priority_decisions[1].action, Action::Prefetch);
        assert_eq!(priority_decisions[2].action, Action::Denied);
        assert_eq!(priority_decisions[3].action, Action::Prefetch);

        // Ground truth: exactly the two highest scores accessed. Priority
        // converts the same budget into strictly more hits.
        for (i, accessed) in [false, true, false, true].iter().enumerate() {
            fifo.resolve_session(UserId(i as u64), 5, *accessed)
                .unwrap();
            priority
                .resolve_session(UserId(i as u64), 5, *accessed)
                .unwrap();
        }
        assert_eq!(fifo.tracker().counts().hits, 1);
        assert_eq!(priority.tracker().counts().hits, 2);
        assert_eq!(
            fifo.scheduler().stats().admitted,
            priority.scheduler().stats().admitted,
            "equal budget spent"
        );
        fifo.check_invariants().unwrap();
        priority.check_invariants().unwrap();
    }

    #[test]
    fn window_close_recalibrates_the_threshold_from_drained_samples() {
        // Honest scores (P(access | score) = score), window of 50. With
        // recalibration on, every closed window drains (score, label)
        // samples and re-fits the threshold for the 0.7 target.
        let mut system = PrecomputeSystem::new(SystemConfig {
            initial_threshold: 0.05,
            controller: ControllerConfig {
                target_precision: 0.7,
                window: 50,
                gain: 0.2,
                min_threshold: 0.01,
                max_threshold: 0.99,
            },
            recalibrate_from_outcomes: true,
            budget: BudgetConfig {
                capacity_units: 1e9,
                refill_units_per_sec: 1e6,
                cost_per_prefetch_units: 1.0,
                max_inflight: 1_000_000,
            },
            ..config()
        });
        let mut rng = StdRng::seed_from_u64(7);
        let mut now = 0i64;
        for step in 0..30_000u64 {
            now += 1;
            let score: f64 = rng.gen();
            let accessed = rng.gen::<f64>() < score;
            system.handle_scores(&[prediction(step, score)], now);
            system.resolve_session(UserId(step), now, accessed).unwrap();
        }
        system.check_invariants().unwrap();
        let report = system.report();
        assert!(report.controller_windows > 10);
        assert!(
            report.recalibrations > 10,
            "windows should recalibrate ({} of {})",
            report.recalibrations,
            report.controller_windows
        );
        // Honest uniform scores: precision at threshold t is (1 + t) / 2,
        // so defending 0.7 needs t ≈ 0.4 — the refit must find that
        // neighbourhood from outcomes alone.
        assert!(
            (report.threshold - 0.4).abs() < 0.15,
            "recalibrated threshold {} should sit near 0.4",
            report.threshold
        );
        let last = system.controller().last_snapshot().unwrap();
        assert!(
            (last.observed_precision - 0.7).abs() < 0.15,
            "last window precision {} should track the target",
            last.observed_precision
        );
    }

    #[test]
    fn sample_triggered_recalibration_unsticks_a_saturated_threshold() {
        // The threshold starts at the max clamp: nothing prefetches, so the
        // controller window (prefetch outcomes only) never closes. Resolved
        // skips still carry (score, label) pairs — after 8 × window samples
        // pile up the system recalibrates from them and the threshold
        // returns to a live operating point instead of deadlocking.
        let mut system = PrecomputeSystem::new(SystemConfig {
            initial_threshold: 0.99,
            controller: ControllerConfig {
                target_precision: 0.7,
                window: 20,
                gain: 0.2,
                min_threshold: 0.01,
                max_threshold: 0.99,
            },
            recalibrate_from_outcomes: true,
            ..config()
        });
        let mut rng = StdRng::seed_from_u64(11);
        let mut now = 0i64;
        for step in 0..400u64 {
            now += 1;
            // Honest scores capped below the stuck threshold.
            let score: f64 = rng.gen::<f64>() * 0.9;
            let accessed = rng.gen::<f64>() < score;
            system.handle_scores(&[prediction(step, score)], now);
            system.resolve_session(UserId(step), now, accessed).unwrap();
        }
        let report = system.report();
        assert!(
            report.recalibrations > 0,
            "the starvation fallback must recalibrate"
        );
        assert!(
            report.threshold < 0.9,
            "threshold {} should have left saturation",
            report.threshold
        );
        assert!(
            report.budget.admitted > 0,
            "prefetches must flow again after the rescue"
        );
        system.check_invariants().unwrap();
    }

    #[test]
    fn degenerate_windows_hold_the_recalibrated_threshold() {
        // Every session accesses: windows are all-positive, which carries
        // no calibration signal — the refit must refuse and the threshold
        // hold instead of collapsing to the lowest observed score.
        let mut system = PrecomputeSystem::new(SystemConfig {
            initial_threshold: 0.5,
            controller: ControllerConfig {
                target_precision: 0.7,
                window: 10,
                gain: 0.0001,
                min_threshold: 0.01,
                max_threshold: 0.99,
            },
            recalibrate_from_outcomes: true,
            ..config()
        });
        let mut rng = StdRng::seed_from_u64(3);
        let mut now = 0i64;
        for step in 0..200u64 {
            now += 1;
            // Scores above the threshold so prefetches execute; labels all
            // positive.
            let score = 0.6 + 0.39 * rng.gen::<f64>();
            system.handle_scores(&[prediction(step, score)], now);
            system.resolve_session(UserId(step), now, true).unwrap();
        }
        let report = system.report();
        assert!(report.controller_windows >= 10);
        assert_eq!(report.recalibrations, 0);
        assert_eq!(report.recalibration_holds, report.controller_windows);
        // The threshold never collapsed toward the minimum: with an
        // all-but-zero gain the only possible large move was a (refused)
        // recalibration reset.
        assert!(
            (report.threshold - 0.5).abs() < 0.05,
            "threshold {} must hold near 0.5 on degenerate windows",
            report.threshold
        );
        system.check_invariants().unwrap();
    }

    #[test]
    fn cache_expiry_accounting_matches_outcome_conservation() {
        // Two prefetches: one resolves within TTL (hit), one long after
        // (expired). The cache's expired/evicted split must line up with
        // the tracker's outcome buckets, under exact conservation.
        let mut system = PrecomputeSystem::new(config());
        system.handle_scores(&[prediction(1, 0.9), prediction(2, 0.9)], 0);
        assert_eq!(
            system.resolve_session(UserId(1), 10, true),
            Some(Outcome::Hit)
        );
        // TTL is 600 s: user 2's payload expires on discovery at t=10_000.
        assert_eq!(
            system.resolve_session(UserId(2), 10_000, true),
            Some(Outcome::ExpiredPrefetch)
        );
        let report = system.report();
        assert_eq!(report.cache.hits, 1);
        assert_eq!(report.cache.expirations, 1);
        assert_eq!(
            report.cache.lru_evictions, 0,
            "expiry must not count as eviction"
        );
        assert_eq!(report.outcomes.hits, 1);
        assert_eq!(report.outcomes.expired_prefetches, 1);
        // Conservation: every decision in exactly one bucket, books balanced.
        system.check_invariants().unwrap();
        assert_eq!(report.outcomes.resolved(), 2);
    }

    #[test]
    fn adaptive_loop_holds_target_precision_on_drifting_traffic() {
        // Scores uniform; P(access | score) = score^2 in the first phase
        // (hard traffic: high scores over-promise), then = score in the
        // second (scores become honest). The controller must track the
        // target through the shift.
        let target = 0.7;
        let mut system = PrecomputeSystem::new(SystemConfig {
            initial_threshold: 0.3,
            budget: BudgetConfig {
                capacity_units: 1e9,
                refill_units_per_sec: 1e6,
                cost_per_prefetch_units: 1.0,
                max_inflight: 1_000_000,
            },
            cache: CacheConfig {
                shards: 8,
                capacity_per_shard: 1 << 20,
                ttl_secs: 1_000,
            },
            controller: ControllerConfig {
                target_precision: target,
                window: 250,
                gain: 0.5,
                min_threshold: 0.01,
                max_threshold: 0.99,
            },
            admission: AdmissionOrder::Fifo,
            recalibrate_from_outcomes: false,
            payload_bytes: 8,
        });
        let mut rng = StdRng::seed_from_u64(42);
        let mut now = 0i64;
        for step in 0..120_000u64 {
            now += 1;
            let score: f64 = rng.gen();
            let p_access = if step < 60_000 { score * score } else { score };
            let accessed = rng.gen::<f64>() < p_access;
            system.handle_scores(&[prediction(step, score)], now);
            system.resolve_session(UserId(step), now, accessed).unwrap();
        }
        system.check_invariants().unwrap();
        let report = system.report();
        assert!(report.controller_windows > 20);
        // The *last window* precision — the live operating point — holds
        // the target within the paper-style tolerance.
        let last = system.controller().last_snapshot().unwrap();
        assert!(
            (last.observed_precision - target).abs() < 0.1,
            "last window precision {} should track target {target}",
            last.observed_precision
        );
    }
}
