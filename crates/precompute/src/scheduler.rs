//! Budget-constrained prefetch admission.
//!
//! A prefetch is not free: it costs the lookups, bytes and compute of
//! actually materializing the activity's data. The [`PrefetchScheduler`]
//! admits prefetches from a token bucket denominated in the abstract cost
//! units of `pp-serving::cost` — [`prefetch_cost_units`] converts a
//! [`ServingProfile`] through [`CostWeights`], so the budget speaks the
//! same language as the §9 serving-cost model — plus a max-inflight cap
//! bounding how much speculative work may be outstanding at once.
//!
//! Invariants (tested): the bucket level always stays within
//! `[0, capacity_units]` — the budget is *never* overdrawn — and the books
//! balance: units offered equal units spent plus tokens in the bucket.

use pp_serving::{CostWeights, ServingProfile};
use serde::{Deserialize, Serialize};
/// Cost of executing one prefetch described by `profile`, in the abstract
/// FLOP-equivalent units of [`CostWeights`] — exactly
/// [`ServingProfile::cost_units`], so the budget and the §9 comparison can
/// never drift apart.
///
/// # Examples
///
/// ```
/// use pp_precompute::prefetch_cost_units;
/// use pp_serving::{CostWeights, ServingProfile};
///
/// let profile = ServingProfile {
///     lookups_per_prediction: 1.0,
///     bytes_per_prediction: 512.0,
///     model_flops_per_prediction: 1_000.0,
///     storage_keys_per_user: 1.0,
///     storage_bytes_per_user: 512.0,
/// };
/// let cost = prefetch_cost_units(&profile, &CostWeights::default());
/// // one lookup (50k) + 512 bytes (5 120) + the model FLOPs
/// assert_eq!(cost, 56_120.0);
/// ```
pub fn prefetch_cost_units(profile: &ServingProfile, weights: &CostWeights) -> f64 {
    profile.cost_units(weights)
}

/// Token-bucket budget configuration.
///
/// # Examples
///
/// ```
/// use pp_precompute::BudgetConfig;
///
/// // A bucket holding 4 prefetches, refilling one per 2.5 s.
/// let config = BudgetConfig {
///     capacity_units: 100.0,
///     refill_units_per_sec: 10.0,
///     cost_per_prefetch_units: 25.0,
///     max_inflight: 8,
/// };
/// assert!(config.cost_per_prefetch_units <= config.capacity_units);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetConfig {
    /// Bucket size: the largest burst of cost units spendable at once.
    pub capacity_units: f64,
    /// Sustained budget: units replenished per second of traffic time.
    pub refill_units_per_sec: f64,
    /// Cost of one prefetch, in the same units (see
    /// [`prefetch_cost_units`]).
    pub cost_per_prefetch_units: f64,
    /// Maximum prefetches admitted but not yet resolved.
    pub max_inflight: usize,
}

impl BudgetConfig {
    /// Builds a budget whose per-prefetch cost comes from a serving
    /// profile: the bucket holds `burst_prefetches` worth of cost and
    /// refills at `sustained_prefetches_per_sec` worth per second.
    ///
    /// # Examples
    ///
    /// ```
    /// use pp_precompute::BudgetConfig;
    /// use pp_serving::{CostWeights, ServingProfile};
    ///
    /// let profile = ServingProfile {
    ///     lookups_per_prediction: 1.0,
    ///     bytes_per_prediction: 512.0,
    ///     model_flops_per_prediction: 1_000.0,
    ///     storage_keys_per_user: 1.0,
    ///     storage_bytes_per_user: 512.0,
    /// };
    /// let budget = BudgetConfig::from_profile(&profile, &CostWeights::default(), 8.0, 2.0, 16);
    /// assert_eq!(budget.capacity_units, 8.0 * budget.cost_per_prefetch_units);
    /// ```
    pub fn from_profile(
        profile: &ServingProfile,
        weights: &CostWeights,
        burst_prefetches: f64,
        sustained_prefetches_per_sec: f64,
        max_inflight: usize,
    ) -> Self {
        let cost = prefetch_cost_units(profile, weights);
        Self {
            capacity_units: burst_prefetches * cost,
            refill_units_per_sec: sustained_prefetches_per_sec * cost,
            cost_per_prefetch_units: cost,
            max_inflight,
        }
    }
}

/// In what order a wave of prefetch candidates is offered to the bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionOrder {
    /// Candidates are admitted in arrival order — the first over-budget
    /// candidate and everything after it is denied regardless of score.
    Fifo,
    /// Candidates are admitted highest-probability-first: when the bucket
    /// cannot afford the whole wave, the budget goes to the prefetches most
    /// likely to become hits instead of whichever arrived first.
    Priority,
}

/// Why an admission attempt succeeded or failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmitResult {
    /// The prefetch was admitted; its cost was deducted and one inflight
    /// slot taken.
    Admitted,
    /// The bucket held fewer tokens than one prefetch costs.
    DeniedBudget,
    /// The max-inflight cap was reached.
    DeniedInflight,
}

/// Running counters of the scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerBudgetStats {
    /// Prefetches admitted.
    pub admitted: u64,
    /// Admissions denied for lack of tokens.
    pub denied_budget: u64,
    /// Admissions denied by the inflight cap.
    pub denied_inflight: u64,
    /// Cost units spent on admitted prefetches.
    pub units_spent: f64,
    /// Cost units made available so far (initial bucket + effective
    /// refills; refill beyond a full bucket is not offered).
    pub units_offered: f64,
    /// Highest concurrent inflight count observed.
    pub max_inflight_seen: usize,
}

/// Token-bucket + max-inflight admission control for prefetches.
///
/// # Examples
///
/// A bucket holding two 25-unit prefetches:
///
/// ```
/// use pp_precompute::{AdmitResult, BudgetConfig, PrefetchScheduler};
///
/// let mut scheduler = PrefetchScheduler::new(BudgetConfig {
///     capacity_units: 50.0,
///     refill_units_per_sec: 10.0,
///     cost_per_prefetch_units: 25.0,
///     max_inflight: 8,
/// });
/// assert_eq!(scheduler.try_admit(0), AdmitResult::Admitted);
/// assert_eq!(scheduler.try_admit(0), AdmitResult::Admitted);
/// assert_eq!(scheduler.try_admit(0), AdmitResult::DeniedBudget);
/// // 2.5 s of refill affords the next one.
/// assert_eq!(scheduler.try_admit(3), AdmitResult::Admitted);
/// scheduler.check_invariants().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchScheduler {
    config: BudgetConfig,
    /// Tokens in the bucket.
    tokens: f64,
    /// Timestamp (seconds) of the last refill; monotone (stale clocks
    /// refill nothing).
    refilled_at: Option<i64>,
    inflight: usize,
    stats: SchedulerBudgetStats,
}

impl PrefetchScheduler {
    /// Creates a scheduler with a full bucket.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity_units > 0`, `refill_units_per_sec >= 0`,
    /// `max_inflight > 0`, and one prefetch fits in the bucket
    /// (`0 < cost_per_prefetch_units <= capacity_units` — otherwise nothing
    /// could ever be admitted).
    pub fn new(config: BudgetConfig) -> Self {
        assert!(config.capacity_units > 0.0, "capacity must be positive");
        assert!(
            config.refill_units_per_sec >= 0.0,
            "refill rate must be non-negative"
        );
        assert!(config.max_inflight > 0, "max_inflight must be positive");
        assert!(
            config.cost_per_prefetch_units > 0.0
                && config.cost_per_prefetch_units <= config.capacity_units,
            "one prefetch must fit in the bucket"
        );
        Self {
            config,
            tokens: config.capacity_units,
            refilled_at: None,
            inflight: 0,
            stats: SchedulerBudgetStats {
                units_offered: config.capacity_units,
                ..SchedulerBudgetStats::default()
            },
        }
    }

    /// The budget configuration.
    pub fn config(&self) -> BudgetConfig {
        self.config
    }

    /// Tokens currently in the bucket.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Prefetches admitted but not yet resolved.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SchedulerBudgetStats {
        self.stats
    }

    fn refill(&mut self, now: i64) {
        let since_secs = match self.refilled_at {
            None => {
                self.refilled_at = Some(now);
                return;
            }
            Some(at) if now <= at => return,
            Some(at) => (now - at) as f64,
        };
        let added = (since_secs * self.config.refill_units_per_sec)
            .min(self.config.capacity_units - self.tokens);
        self.stats.units_offered += added;
        self.refilled_at = Some(now);
        self.tokens += added;
    }

    /// Attempts to admit one prefetch at traffic time `now` (seconds).
    /// Refills the bucket for the elapsed time first, then checks the
    /// inflight cap and the budget. On admission the prefetch's cost is
    /// deducted and one inflight slot is taken; pair with
    /// [`PrefetchScheduler::complete_one`] when the prefetch resolves.
    pub fn try_admit(&mut self, now: i64) -> AdmitResult {
        self.refill(now);
        if self.inflight >= self.config.max_inflight {
            self.stats.denied_inflight += 1;
            return AdmitResult::DeniedInflight;
        }
        let cost = self.config.cost_per_prefetch_units;
        if self.tokens < cost {
            self.stats.denied_budget += 1;
            return AdmitResult::DeniedBudget;
        }
        self.tokens -= cost;
        self.inflight += 1;
        self.stats.admitted += 1;
        self.stats.units_spent += cost;
        self.stats.max_inflight_seen = self.stats.max_inflight_seen.max(self.inflight);
        AdmitResult::Admitted
    }

    /// Admits one wave of prefetch candidates, given by their predicted
    /// probabilities, at traffic time `now`, returning one [`AdmitResult`]
    /// per candidate *in input order*.
    ///
    /// The bucket refills once for the whole wave, then candidates are
    /// offered in the given [`AdmissionOrder`]: FIFO spends the budget on
    /// whichever candidates come first; `Priority` sorts the wave by
    /// predicted probability (descending, ties kept in arrival order) so a
    /// low bucket goes to the prefetches most likely to become hits. With
    /// enough budget and inflight room for the whole wave the two orders
    /// admit identically.
    pub fn admit_wave(
        &mut self,
        now: i64,
        probabilities: &[f64],
        order: AdmissionOrder,
    ) -> Vec<AdmitResult> {
        let mut results = vec![AdmitResult::DeniedBudget; probabilities.len()];
        for index in ordered_indices(probabilities, order) {
            results[index] = self.try_admit(now);
        }
        results
    }

    /// Releases one inflight slot (an admitted prefetch resolved). A
    /// completion with nothing inflight is ignored.
    pub fn complete_one(&mut self) {
        self.inflight = self.inflight.saturating_sub(1);
    }

    /// Checks the budget invariants, returning a description of the first
    /// violation: the bucket level must stay in `[0, capacity]`, the books
    /// must balance (`offered == spent + tokens` up to float error), and
    /// the inflight count must stay within its cap.
    pub fn check_invariants(&self) -> Result<(), String> {
        let eps = 1e-6 * self.config.capacity_units.max(1.0);
        if self.tokens < -eps {
            return Err(format!("bucket overdrawn: {} tokens", self.tokens));
        }
        if self.tokens > self.config.capacity_units + eps {
            return Err(format!(
                "bucket overfilled: {} tokens > capacity {}",
                self.tokens, self.config.capacity_units
            ));
        }
        let balance = self.stats.units_offered - self.stats.units_spent - self.tokens;
        if balance.abs() > eps.max(1e-9 * self.stats.units_offered) {
            return Err(format!("budget books off by {balance} units"));
        }
        if self.inflight > self.config.max_inflight {
            return Err(format!(
                "inflight {} exceeds cap {}",
                self.inflight, self.config.max_inflight
            ));
        }
        Ok(())
    }
}

/// Candidate indices in the order an [`AdmissionOrder`] offers them:
/// arrival order for FIFO, probability-descending (stable) for priority.
fn ordered_indices(probabilities: &[f64], order: AdmissionOrder) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..probabilities.len()).collect();
    if order == AdmissionOrder::Priority {
        // Stable sort: equal probabilities keep FIFO order.
        indices.sort_by(|&a, &b| {
            probabilities[b]
                .partial_cmp(&probabilities[a])
                .expect("probabilities must not be NaN")
        });
    }
    indices
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config() -> BudgetConfig {
        BudgetConfig {
            capacity_units: 100.0,
            refill_units_per_sec: 10.0,
            cost_per_prefetch_units: 25.0,
            max_inflight: 3,
        }
    }

    #[test]
    fn burst_is_capped_by_the_bucket_then_by_refill() {
        let mut s = PrefetchScheduler::new(config());
        // Bucket holds 4 prefetches, but the inflight cap stops the 4th.
        assert_eq!(s.try_admit(0), AdmitResult::Admitted);
        assert_eq!(s.try_admit(0), AdmitResult::Admitted);
        assert_eq!(s.try_admit(0), AdmitResult::Admitted);
        assert_eq!(s.try_admit(0), AdmitResult::DeniedInflight);
        s.complete_one();
        assert_eq!(s.try_admit(0), AdmitResult::Admitted);
        s.complete_one();
        // Bucket is now empty (4 × 25 spent).
        assert_eq!(s.try_admit(0), AdmitResult::DeniedBudget);
        // 2.5 seconds refills one prefetch's worth.
        assert_eq!(s.try_admit(2), AdmitResult::DeniedBudget);
        assert_eq!(s.try_admit(3), AdmitResult::Admitted);
        assert!(s.check_invariants().is_ok());
        let stats = s.stats();
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.denied_budget, 2);
        assert_eq!(stats.denied_inflight, 1);
        assert_eq!(stats.max_inflight_seen, 3);
        assert!((stats.units_spent - 125.0).abs() < 1e-9);
    }

    #[test]
    fn refill_never_overfills_and_ignores_stale_clocks() {
        let mut s = PrefetchScheduler::new(config());
        assert_eq!(s.try_admit(100), AdmitResult::Admitted);
        s.complete_one();
        // A century of idle time refills only back to capacity.
        assert_eq!(s.try_admit(3_200_000_000), AdmitResult::Admitted);
        s.complete_one();
        assert!(s.tokens() <= s.config().capacity_units);
        // Time going backwards refills nothing (and does not panic).
        let before = s.tokens();
        assert_ne!(s.try_admit(0), AdmitResult::DeniedInflight);
        assert!(s.tokens() <= before);
        assert!(s.check_invariants().is_ok());
    }

    #[test]
    fn utilization_is_spent_over_offered() {
        let mut s = PrefetchScheduler::new(config());
        assert_eq!(s.stats().units_spent, 0.0);
        let _ = s.try_admit(0);
        // 25 spent of the 100 offered so far.
        let stats = s.stats();
        assert_eq!((stats.units_spent, stats.units_offered), (25.0, 100.0));
    }

    #[test]
    fn from_profile_costs_match_the_cost_model() {
        let profile = ServingProfile {
            lookups_per_prediction: 1.0,
            bytes_per_prediction: 512.0,
            model_flops_per_prediction: 1_000.0,
            storage_keys_per_user: 1.0,
            storage_bytes_per_user: 512.0,
        };
        let weights = CostWeights::default();
        let cost = prefetch_cost_units(&profile, &weights);
        assert!((cost - (50_000.0 + 5_120.0 + 1_000.0)).abs() < 1e-9);
        let budget = BudgetConfig::from_profile(&profile, &weights, 8.0, 2.0, 16);
        assert!((budget.capacity_units - 8.0 * cost).abs() < 1e-9);
        assert!((budget.refill_units_per_sec - 2.0 * cost).abs() < 1e-9);
        assert!((budget.cost_per_prefetch_units - cost).abs() < 1e-9);
    }

    #[test]
    fn n_small_ticks_refill_exactly_as_much_as_one_big_tick() {
        let config = BudgetConfig {
            capacity_units: 1_000.0,
            // 240 s of refill (888 units) fits inside one prefetch's
            // headroom, so the capacity cap never masks a refill mismatch.
            refill_units_per_sec: 3.7,
            cost_per_prefetch_units: 900.0,
            max_inflight: 8,
        };
        // Spend one prefetch so there is headroom to refill into.
        let mut fine = PrefetchScheduler::new(config);
        let mut coarse = PrefetchScheduler::new(config);
        assert_eq!(fine.try_admit(0), AdmitResult::Admitted);
        assert_eq!(coarse.try_admit(0), AdmitResult::Admitted);
        // 240 seconds as 240 × 1 vs 1 × 240.
        for tick in 1..=240i64 {
            fine.refill(tick);
        }
        coarse.refill(240);
        assert!(
            (fine.tokens() - coarse.tokens()).abs() < 1e-6,
            "{} vs {}",
            fine.tokens(),
            coarse.tokens()
        );
        assert!(fine.check_invariants().is_ok());
        assert!(coarse.check_invariants().is_ok());
    }

    #[test]
    fn priority_admission_spends_a_low_bucket_on_the_best_candidates() {
        // Bucket affords exactly 2 of 5 candidates.
        let tight = BudgetConfig {
            capacity_units: 50.0,
            refill_units_per_sec: 0.0,
            cost_per_prefetch_units: 25.0,
            max_inflight: 16,
        };
        let probs = [0.3, 0.9, 0.1, 0.8, 0.7];

        let mut fifo = PrefetchScheduler::new(tight);
        let fifo_results = fifo.admit_wave(0, &probs, AdmissionOrder::Fifo);
        assert_eq!(
            fifo_results,
            vec![
                AdmitResult::Admitted, // 0.3 arrived first
                AdmitResult::Admitted, // 0.9
                AdmitResult::DeniedBudget,
                AdmitResult::DeniedBudget,
                AdmitResult::DeniedBudget,
            ]
        );

        let mut priority = PrefetchScheduler::new(tight);
        let priority_results = priority.admit_wave(0, &probs, AdmissionOrder::Priority);
        assert_eq!(
            priority_results,
            vec![
                AdmitResult::DeniedBudget,
                AdmitResult::Admitted, // 0.9: best
                AdmitResult::DeniedBudget,
                AdmitResult::Admitted, // 0.8: second best
                AdmitResult::DeniedBudget,
            ]
        );
        assert!(fifo.check_invariants().is_ok());
        assert!(priority.check_invariants().is_ok());
        assert_eq!(fifo.stats().admitted, priority.stats().admitted);
    }

    #[test]
    fn admission_orders_agree_when_the_budget_is_ample() {
        let probs = [0.9, 0.2, 0.5, 0.7];
        let mut fifo = PrefetchScheduler::new(config());
        let mut priority = PrefetchScheduler::new(config());
        assert_eq!(
            fifo.admit_wave(0, &probs[..3], AdmissionOrder::Fifo),
            priority.admit_wave(0, &probs[..3], AdmissionOrder::Priority),
        );
        // Inflight-cap denials also land on the *lowest*-probability
        // candidates under priority admission.
        let mut s = PrefetchScheduler::new(BudgetConfig {
            capacity_units: 1_000.0,
            refill_units_per_sec: 0.0,
            cost_per_prefetch_units: 1.0,
            max_inflight: 2,
        });
        let results = s.admit_wave(0, &probs, AdmissionOrder::Priority);
        assert_eq!(
            results,
            vec![
                AdmitResult::Admitted,       // 0.9
                AdmitResult::DeniedInflight, // 0.2
                AdmitResult::DeniedInflight, // 0.5
                AdmitResult::Admitted,       // 0.7
            ]
        );
    }

    #[test]
    #[should_panic(expected = "one prefetch must fit")]
    fn oversized_prefetch_panics() {
        let _ = PrefetchScheduler::new(BudgetConfig {
            capacity_units: 10.0,
            refill_units_per_sec: 1.0,
            cost_per_prefetch_units: 11.0,
            max_inflight: 1,
        });
    }

    proptest! {
        #[test]
        fn budget_is_never_overdrawn(
            gaps in prop::collection::vec(0i64..30, 1..300),
            completes in prop::collection::vec(any::<bool>(), 1..300),
        ) {
            let mut s = PrefetchScheduler::new(BudgetConfig {
                capacity_units: 60.0,
                refill_units_per_sec: 3.0,
                cost_per_prefetch_units: 17.0,
                max_inflight: 4,
            });
            let mut now = 0i64;
            for (i, gap) in gaps.iter().enumerate() {
                now += gap;
                let result = s.try_admit(now);
                prop_assert!(s.check_invariants().is_ok(), "after admit: {:?}", s.check_invariants());
                if result == AdmitResult::Admitted && completes.get(i).copied().unwrap_or(false) {
                    s.complete_one();
                }
                prop_assert!(s.tokens() >= 0.0);
                prop_assert!(s.tokens() <= 60.0 + 1e-6);
                prop_assert!(s.inflight() <= 4);
            }
            let stats = s.stats();
            prop_assert!((stats.units_spent - stats.admitted as f64 * 17.0).abs() < 1e-6);
            prop_assert!(stats.units_spent <= stats.units_offered * (1.0 + 1e-9));
        }

        /// Wave admission keeps the books: for arbitrary waves, clock gaps,
        /// admission orders and completions, the bucket level never leaves
        /// `[0, capacity]`, `offered == spent + tokens`, and the drain
        /// never exceeds what the bucket offered.
        #[test]
        fn wave_admission_never_overdraws_and_balances_the_books(
            waves in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 0..12), 1..40),
            gaps in prop::collection::vec(0i64..20, 1..40),
            priority in any::<bool>(),
        ) {
            let config = BudgetConfig {
                capacity_units: 120.0,
                refill_units_per_sec: 4.0,
                cost_per_prefetch_units: 20.0,
                max_inflight: 1_000,
            };
            let mut s = PrefetchScheduler::new(config);
            let order = if priority { AdmissionOrder::Priority } else { AdmissionOrder::Fifo };
            let mut now = 0i64;
            for (wave, gap) in waves.iter().zip(gaps.iter().cycle()) {
                now += gap;
                let results = s.admit_wave(now, wave, order);
                prop_assert_eq!(results.len(), wave.len());
                // Release half the admitted slots to keep inflight moving.
                for (i, r) in results.iter().enumerate() {
                    if *r == AdmitResult::Admitted && i % 2 == 0 {
                        s.complete_one();
                    }
                }
                prop_assert!(s.check_invariants().is_ok(), "{:?}", s.check_invariants());
                prop_assert!(s.tokens() >= -1e-6);
                prop_assert!(s.tokens() <= config.capacity_units + 1e-6);
                let stats = s.stats();
                prop_assert!(stats.units_spent <= stats.units_offered + 1e-6);
            }
        }
    }
}
