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
//! The public calls are single-activity: [`PrefetchScheduler::new`],
//! [`PrefetchScheduler::try_admit`], [`PrefetchScheduler::admit_wave`] and
//! [`PrefetchScheduler::complete_one`] book everything on
//! [`Activity::MobileTab`]. Each is the N = 1 call of one crate-private
//! multi-activity method, which [`crate::PrecomputeSystem::new_multi`]
//! drives to **share the bucket across activities**: each [`Activity`]
//! carries its own per-prefetch cost (different models, different
//! payloads) and spends from the one bucket under a [`FairnessPolicy`] —
//!
//! * [`FairnessPolicy::Greedy`] — unconstrained: first come (or highest
//!   probability first), first served; one hot activity may drain the
//!   bucket for everyone;
//! * [`FairnessPolicy::GuaranteedShare`] — a floor fraction of the bucket
//!   is reserved per activity: the common pool is contested, but an
//!   activity's reserve refills at its floor share of the budget and only
//!   that activity can spend it, so no activity can be starved;
//! * [`FairnessPolicy::DeficitRoundRobin`] — wave admission splits the
//!   bucket across activities by deficit-weighted round-robin (resolved to
//!   its weighted max-min fixed point): each activity accrues
//!   weight-proportional credit and admits while its credit covers its
//!   cost, so a synchronized wave is split across activities in proportion
//!   to their weights instead of in arrival order.
//!
//! Invariants (tested): the bucket level always stays within
//! `[0, capacity_units]` — the budget is *never* overdrawn under any
//! fairness policy — and per-activity spends always sum to the total bucket
//! drain.

use crate::activity::{Activity, ActivityMap};
use pp_serving::{CostWeights, ServingProfile};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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
    /// [`prefetch_cost_units`]). A shared multi-activity bucket charges the
    /// per-activity costs of [`crate::MultiActivityConfig::costs`] instead.
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

/// How a shared bucket arbitrates between activities competing for the
/// same budget. See the [module docs](crate::scheduler) for the trade-offs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FairnessPolicy {
    /// No fairness constraint: candidates spend the shared bucket in
    /// whatever order the [`AdmissionOrder`] produces. Cheapest and
    /// highest-throughput, but one hot activity can starve the others.
    Greedy,
    /// Per-activity guaranteed-share floors: `floors[a]` is the fraction of
    /// the bucket (capacity *and* refill) reserved exclusively for activity
    /// `a`. The unreserved remainder is a common pool contested greedily.
    /// Floors must each be in `[0, 1]` and sum to at most 1.
    GuaranteedShare {
        /// Reserved fraction of the budget per activity (`Σ ≤ 1`).
        floors: ActivityMap<f64>,
    },
    /// Deficit-weighted round-robin across activities inside wave
    /// admission: each activity accrues
    /// `weights[a]`-proportional credit and admits candidates while its
    /// credit covers its per-prefetch cost, with an activity that runs out
    /// of candidates donating its surplus credit back. Resolved to its
    /// per-wave fixed point (weighted max-min / water-filling over the
    /// available tokens), so a synchronized wave is split across
    /// activities in proportion to their weights *in cost units* instead
    /// of first-come-first-served. Unspent credit of an activity that
    /// still had candidates **persists as deficit into the next wave**
    /// (classic DRR), so an expensive activity whose per-wave fair share
    /// cannot cover one prefetch accumulates credit across waves and
    /// catches up instead of starving; an activity whose queue drains
    /// donates its surplus back. The bucket itself stays one greedy
    /// shared pool. Weights must be positive.
    DeficitRoundRobin {
        /// Relative budget weight per activity (all `> 0`).
        weights: ActivityMap<f64>,
    },
}

impl FairnessPolicy {
    /// Stable snake_case name for reports and logs.
    ///
    /// # Examples
    ///
    /// ```
    /// use pp_precompute::{ActivityMap, FairnessPolicy};
    ///
    /// assert_eq!(FairnessPolicy::Greedy.name(), "greedy");
    /// let floors = ActivityMap::uniform(0.2);
    /// assert_eq!(FairnessPolicy::GuaranteedShare { floors }.name(), "guaranteed_share");
    /// ```
    pub fn name(&self) -> &'static str {
        match self {
            FairnessPolicy::Greedy => "greedy",
            FairnessPolicy::GuaranteedShare { .. } => "guaranteed_share",
            FairnessPolicy::DeficitRoundRobin { .. } => "deficit_round_robin",
        }
    }

    fn validate(&self) {
        match self {
            FairnessPolicy::Greedy => {}
            FairnessPolicy::GuaranteedShare { floors } => {
                assert!(
                    floors.values().all(|f| (0.0..=1.0).contains(f)),
                    "guaranteed-share floors must be fractions in [0, 1]"
                );
                assert!(
                    floors.values().sum::<f64>() <= 1.0 + 1e-12,
                    "guaranteed-share floors must sum to at most 1"
                );
            }
            FairnessPolicy::DeficitRoundRobin { weights } => {
                assert!(
                    weights.values().all(|w| *w > 0.0 && w.is_finite()),
                    "deficit-round-robin weights must be positive"
                );
            }
        }
    }
}

/// Why an admission attempt succeeded or failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmitResult {
    /// The prefetch was admitted; its cost was deducted and one inflight
    /// slot taken.
    Admitted,
    /// The bucket (plus the activity's reserve, if any) held fewer tokens
    /// than one prefetch costs.
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

/// Per-activity slice of the shared budget's ledger: what one activity
/// spent and how often it was turned away. Per-activity *hit* accounting
/// lives in [`crate::outcome::OutcomeTracker::counts_for`], which resolves
/// admitted prefetches against ground truth; together the two form the
/// spend/hit ledger of a shared deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ActivityBudgetStats {
    /// Prefetches admitted for this activity.
    pub admitted: u64,
    /// Admissions denied for lack of tokens.
    pub denied_budget: u64,
    /// Admissions denied by the (global) inflight cap.
    pub denied_inflight: u64,
    /// Cost units this activity drained from the shared bucket.
    pub units_spent: f64,
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
    /// Tokens in the common pool (the whole bucket unless guaranteed-share
    /// reserves carve part of it out).
    tokens: f64,
    /// Guaranteed-share reserves per activity (all zero otherwise).
    reserved: ActivityMap<f64>,
    /// Per-activity per-prefetch cost (uniform for single-activity use).
    costs: ActivityMap<f64>,
    fairness: FairnessPolicy,
    /// Timestamp (seconds) of the last refill; monotone (stale clocks
    /// refill nothing).
    refilled_at: Option<i64>,
    inflight: usize,
    /// Inflight prefetches per activity (always sums to `inflight`).
    inflight_by_activity: ActivityMap<usize>,
    /// Unspent deficit-round-robin credit carried across waves, per
    /// activity (zero for other fairness policies).
    drr_deficit: ActivityMap<f64>,
    stats: SchedulerBudgetStats,
    by_activity: ActivityMap<ActivityBudgetStats>,
}

impl PrefetchScheduler {
    /// Creates a scheduler with a full bucket (greedy fairness, uniform
    /// costs — exactly the classic token bucket).
    ///
    /// # Panics
    ///
    /// Panics unless `capacity_units > 0`, `refill_units_per_sec >= 0`,
    /// `max_inflight > 0`, and one prefetch fits in the bucket
    /// (`0 < cost_per_prefetch_units <= capacity_units` — otherwise nothing
    /// could ever be admitted).
    pub fn new(config: BudgetConfig) -> Self {
        Self::shared(
            config,
            ActivityMap::uniform(config.cost_per_prefetch_units),
            FairnessPolicy::Greedy,
        )
    }

    /// [`PrefetchScheduler::new`] for N activities: one token bucket
    /// **shared** by every [`Activity`], where `costs[a]` is activity `a`'s
    /// per-prefetch cost (derive it from that activity's serving profile
    /// via [`prefetch_cost_units`]) and `fairness` arbitrates contention —
    /// see [`FairnessPolicy`].
    ///
    /// Under [`FairnessPolicy::GuaranteedShare`] the bucket starts full
    /// with each reserve at its floor share and the remainder in the common
    /// pool; refill is split the same way.
    ///
    /// # Panics
    ///
    /// Panics on the [`PrefetchScheduler::new`] conditions, when any
    /// activity's cost is not in `(0, capacity_units]`, or when the
    /// fairness policy is malformed (floors outside `[0, 1]` or summing
    /// past 1; non-positive weights).
    pub(crate) fn shared(
        config: BudgetConfig,
        costs: ActivityMap<f64>,
        fairness: FairnessPolicy,
    ) -> Self {
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
        assert!(
            costs
                .values()
                .all(|c| *c > 0.0 && *c <= config.capacity_units),
            "every activity's prefetch must fit in the bucket"
        );
        fairness.validate();
        let reserved = match fairness {
            FairnessPolicy::GuaranteedShare { floors } => {
                floors.map(|_, f| f * config.capacity_units)
            }
            _ => ActivityMap::uniform(0.0),
        };
        let shared0 = config.capacity_units - reserved.values().sum::<f64>();
        Self {
            config,
            tokens: shared0,
            reserved,
            costs,
            fairness,
            refilled_at: None,
            inflight: 0,
            inflight_by_activity: ActivityMap::uniform(0),
            drr_deficit: ActivityMap::uniform(0.0),
            stats: SchedulerBudgetStats {
                units_offered: config.capacity_units,
                ..SchedulerBudgetStats::default()
            },
            by_activity: ActivityMap::uniform(ActivityBudgetStats::default()),
        }
    }

    /// The budget configuration.
    pub fn config(&self) -> BudgetConfig {
        self.config
    }

    /// Tokens currently in the bucket (common pool **plus** every
    /// guaranteed-share reserve).
    pub fn tokens(&self) -> f64 {
        self.tokens + self.reserved.values().sum::<f64>()
    }

    /// Prefetches admitted but not yet resolved.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Counters accumulated so far, across all activities.
    pub fn stats(&self) -> SchedulerBudgetStats {
        self.stats
    }

    /// This activity's slice of the shared ledger.
    ///
    /// # Examples
    ///
    /// ```
    /// use pp_precompute::{Activity, BudgetConfig, PrefetchScheduler};
    ///
    /// let mut s = PrefetchScheduler::new(BudgetConfig {
    ///     capacity_units: 100.0,
    ///     refill_units_per_sec: 0.0,
    ///     cost_per_prefetch_units: 30.0,
    ///     max_inflight: 8,
    /// });
    /// s.try_admit(0);
    /// // Single-activity admissions are booked on MobileTab.
    /// assert_eq!(s.activity_stats(Activity::MobileTab).units_spent, 30.0);
    /// assert_eq!(s.activity_stats(Activity::Mpu).admitted, 0);
    /// ```
    pub fn activity_stats(&self, activity: Activity) -> ActivityBudgetStats {
        self.by_activity[activity]
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
            .min(self.config.capacity_units - self.tokens());
        self.stats.units_offered += added;
        self.refilled_at = Some(now);
        match self.fairness {
            FairnessPolicy::GuaranteedShare { floors } => {
                // Each reserve takes its floor share of the refill, capped
                // at its slice of the capacity; whatever the full reserves
                // decline spills into the common pool (and, if the pool is
                // itself full, back into reserves with headroom — `added`
                // already fits under the total capacity).
                let mut remaining = added;
                for a in Activity::ALL {
                    let cap = floors[a] * self.config.capacity_units;
                    let take = (floors[a] * added).min((cap - self.reserved[a]).max(0.0));
                    self.reserved[a] += take;
                    remaining -= take;
                }
                let shared_cap = self.config.capacity_units
                    - floors.values().sum::<f64>() * self.config.capacity_units;
                let take = remaining.min((shared_cap - self.tokens).max(0.0));
                self.tokens += take;
                remaining -= take;
                for a in Activity::ALL {
                    if remaining <= 0.0 {
                        break;
                    }
                    let cap = floors[a] * self.config.capacity_units;
                    let take = remaining.min((cap - self.reserved[a]).max(0.0));
                    self.reserved[a] += take;
                    remaining -= take;
                }
                // Float dust from the min/max chain stays in the pool so the
                // offered/spent/tokens books balance exactly.
                self.tokens += remaining.max(0.0);
            }
            _ => self.tokens += added,
        }
    }

    /// Attempts to admit one prefetch at traffic time `now` (seconds).
    /// Refills the bucket for the elapsed time first, then checks the
    /// inflight cap and the budget. On admission the prefetch's cost is
    /// deducted and one inflight slot is taken; pair with
    /// [`PrefetchScheduler::complete_one`] when the prefetch resolves.
    pub fn try_admit(&mut self, now: i64) -> AdmitResult {
        self.try_admit_for(Activity::MobileTab, now)
    }

    /// [`PrefetchScheduler::try_admit`] for `activity`: the funds it may
    /// draw on are the common pool plus its own reserve, and its cost is
    /// deducted from the pool first, the reserve for the remainder.
    pub(crate) fn try_admit_for(&mut self, activity: Activity, now: i64) -> AdmitResult {
        self.refill(now);
        if self.inflight >= self.config.max_inflight {
            self.stats.denied_inflight += 1;
            self.by_activity[activity].denied_inflight += 1;
            return AdmitResult::DeniedInflight;
        }
        let cost = self.costs[activity];
        if self.tokens + self.reserved[activity] < cost {
            self.stats.denied_budget += 1;
            self.by_activity[activity].denied_budget += 1;
            return AdmitResult::DeniedBudget;
        }
        let from_pool = cost.min(self.tokens);
        self.tokens -= from_pool;
        self.reserved[activity] -= cost - from_pool;
        self.inflight += 1;
        self.inflight_by_activity[activity] += 1;
        self.stats.admitted += 1;
        self.stats.units_spent += cost;
        self.stats.max_inflight_seen = self.stats.max_inflight_seen.max(self.inflight);
        let slice = &mut self.by_activity[activity];
        slice.admitted += 1;
        slice.units_spent += cost;
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
        let candidates: Vec<(Activity, f64)> = probabilities
            .iter()
            .map(|&p| (Activity::MobileTab, p))
            .collect();
        self.admit_wave_tagged(now, &candidates, order)
    }

    /// [`PrefetchScheduler::admit_wave`] for `(activity, probability)`
    /// candidates.
    ///
    /// Under [`FairnessPolicy::Greedy`] and
    /// [`FairnessPolicy::GuaranteedShare`] the wave is offered in the given
    /// [`AdmissionOrder`] (globally FIFO, or globally highest probability
    /// first); guaranteed-share reserves then bound how much of it any one
    /// activity can win. Under [`FairnessPolicy::DeficitRoundRobin`] the
    /// wave is first ordered *within* each activity by the
    /// [`AdmissionOrder`] and then interleaved across activities by deficit
    /// round-robin, so the bucket is split weight-proportionally (in cost
    /// units) even when one activity dominates the wave's head.
    pub(crate) fn admit_wave_tagged(
        &mut self,
        now: i64,
        candidates: &[(Activity, f64)],
        order: AdmissionOrder,
    ) -> Vec<AdmitResult> {
        let mut results = vec![AdmitResult::DeniedBudget; candidates.len()];
        match self.fairness {
            FairnessPolicy::DeficitRoundRobin { weights } => {
                // Per-activity queues, each ordered by the admission order.
                let mut queues: ActivityMap<VecDeque<usize>> =
                    ActivityMap::from_fn(|_| VecDeque::new());
                for index in ordered_indices(candidates, order) {
                    queues[candidates[index].0].push_back(index);
                }
                // Deficit-weighted credit, resolved to its per-wave fixed
                // point: running the classic round-robin quantum loop to
                // completion over one wave and a finite pool hands each
                // contending activity the weighted max-min (water-filling)
                // share of the available tokens — an activity whose queue
                // ends early donates its surplus back, one whose fair share
                // cannot cover even a single prefetch leaves its credit in
                // the pool rather than spending it. Computing that fixed
                // point directly keeps the loop deterministic and O(waves).
                //
                // Deficits persist across waves: credit an activity could
                // not spend last wave (because one prefetch costs more than
                // its share) is honored *first* out of this wave's tokens,
                // and only the remainder is re-split — so a starved
                // expensive activity accumulates toward its cost over
                // successive waves instead of resetting to the same
                // too-small share every time.
                self.refill(now);
                let demand = ActivityMap::from_fn(|a| queues[a].len() as f64 * self.costs[a]);
                // A deficit is only worth what its activity can still use.
                let effective = ActivityMap::from_fn(|a| self.drr_deficit[a].min(demand[a]));
                let carried: f64 = effective.values().sum();
                let mut credit = if carried <= self.tokens {
                    let fresh_demand =
                        ActivityMap::from_fn(|a| (demand[a] - effective[a]).max(0.0));
                    let fresh = weighted_water_fill(&fresh_demand, &weights, self.tokens - carried);
                    ActivityMap::from_fn(|a| effective[a] + fresh[a])
                } else {
                    // Not enough tokens to honor every carried deficit
                    // (possible when try_admit_for calls drained the pool
                    // between waves): scale them down pro rata.
                    effective.map(|_, &d| d * (self.tokens / carried))
                };
                // Drain the queues interleaved, one candidate per activity
                // per round, heaviest weight first — budget fairness comes
                // from the credit shares, but the *inflight slots* are a
                // second scarce resource: draining one activity to
                // completion before the next would hand a binding
                // max-inflight cap to whichever activity happens to come
                // first, inverting the weights.
                let mut rotation = Activity::ALL;
                rotation.sort_by(|&a, &b| {
                    weights[b]
                        .partial_cmp(&weights[a])
                        .expect("weights are validated finite")
                });
                let mut starved = ActivityMap::uniform(false);
                loop {
                    let mut any = false;
                    for &a in &rotation {
                        let Some(&index) = queues[a].front() else {
                            continue;
                        };
                        any = true;
                        if credit[a] + 1e-9 * self.costs[a] >= self.costs[a] {
                            let result = self.try_admit_for(a, now);
                            results[index] = result;
                            if result == AdmitResult::Admitted {
                                credit[a] -= self.costs[a];
                            } else if result == AdmitResult::DeniedBudget {
                                starved[a] = true;
                            }
                        } else {
                            // Out of fair-share credit: the tokens still in
                            // the pool belong to the other activities'
                            // shares this wave. Booked as a budget denial.
                            results[index] = AdmitResult::DeniedBudget;
                            self.stats.denied_budget += 1;
                            self.by_activity[a].denied_budget += 1;
                            starved[a] = true;
                        }
                        queues[a].pop_front();
                    }
                    if !any {
                        break;
                    }
                }
                // Bank unspent credit as next wave's deficit for every
                // activity the budget turned away this wave; an activity
                // whose candidates were all served (or that had none)
                // donates its surplus back to the pool. Capped at one
                // bucket so a long drought cannot bank unbounded claims.
                for a in Activity::ALL {
                    self.drr_deficit[a] = if starved[a] {
                        credit[a].max(0.0).min(self.config.capacity_units)
                    } else {
                        0.0
                    };
                }
            }
            FairnessPolicy::Greedy | FairnessPolicy::GuaranteedShare { .. } => {
                for index in ordered_indices(candidates, order) {
                    results[index] = self.try_admit_for(candidates[index].0, now);
                }
            }
        }
        results
    }

    /// Releases one inflight slot (an admitted prefetch resolved). A
    /// completion with nothing inflight is ignored.
    pub fn complete_one(&mut self) {
        self.complete_one_for(Activity::MobileTab);
    }

    /// [`PrefetchScheduler::complete_one`] for `activity`: a completion
    /// with nothing inflight for that activity is ignored, keeping the
    /// global and per-activity books consistent.
    pub(crate) fn complete_one_for(&mut self, activity: Activity) {
        if self.inflight_by_activity[activity] > 0 {
            self.inflight_by_activity[activity] -= 1;
            self.inflight -= 1;
        }
    }

    /// Checks the budget invariants, returning a description of the first
    /// violation: the bucket level (pool + reserves) must stay in
    /// `[0, capacity]`, each reserve within its floor slice, the books must
    /// balance (`offered == spent + tokens` up to float error), and the
    /// per-activity spends must sum to the total drain.
    pub fn check_invariants(&self) -> Result<(), String> {
        let eps = 1e-6 * self.config.capacity_units.max(1.0);
        let total = self.tokens();
        if self.tokens < -eps {
            return Err(format!("common pool overdrawn: {} tokens", self.tokens));
        }
        for (activity, &reserve) in self.reserved.iter() {
            if reserve < -eps {
                return Err(format!("{activity} reserve overdrawn: {reserve} tokens"));
            }
            if let FairnessPolicy::GuaranteedShare { floors } = self.fairness {
                let cap = floors[activity] * self.config.capacity_units;
                if reserve > cap + eps {
                    return Err(format!(
                        "{activity} reserve overfilled: {reserve} tokens > floor slice {cap}"
                    ));
                }
            }
        }
        if total > self.config.capacity_units + eps {
            return Err(format!(
                "bucket overfilled: {total} tokens > capacity {}",
                self.config.capacity_units
            ));
        }
        let balance = self.stats.units_offered - self.stats.units_spent - total;
        if balance.abs() > eps.max(1e-9 * self.stats.units_offered) {
            return Err(format!("budget books off by {balance} units"));
        }
        let spent_by_activity: f64 = self.by_activity.values().map(|s| s.units_spent).sum();
        if (spent_by_activity - self.stats.units_spent).abs()
            > eps.max(1e-9 * self.stats.units_spent)
        {
            return Err(format!(
                "per-activity spends ({spent_by_activity}) do not sum to the total drain ({})",
                self.stats.units_spent
            ));
        }
        let admitted_by_activity: u64 = self.by_activity.values().map(|s| s.admitted).sum();
        if admitted_by_activity != self.stats.admitted {
            return Err(format!(
                "per-activity admissions ({admitted_by_activity}) do not sum to the total ({})",
                self.stats.admitted
            ));
        }
        if self.inflight > self.config.max_inflight {
            return Err(format!(
                "inflight {} exceeds cap {}",
                self.inflight, self.config.max_inflight
            ));
        }
        let inflight_by_activity: usize = self.inflight_by_activity.values().sum();
        if inflight_by_activity != self.inflight {
            return Err(format!(
                "per-activity inflight ({inflight_by_activity}) does not sum to the total ({})",
                self.inflight
            ));
        }
        for (activity, &deficit) in self.drr_deficit.iter() {
            if !deficit.is_finite() || deficit < 0.0 || deficit > self.config.capacity_units + eps {
                return Err(format!(
                    "{activity} DRR deficit {deficit} outside [0, capacity]"
                ));
            }
        }
        Ok(())
    }
}

/// Weighted max-min (water-filling) allocation of `avail` tokens across
/// the activities' demands: repeatedly split the remaining tokens among the
/// still-unsatisfied activities in proportion to their weights, capping each
/// at its remaining demand; a capped activity's surplus is redistributed to
/// the rest. The fixed point of deficit-weighted round-robin over one wave.
fn weighted_water_fill(
    demand: &ActivityMap<f64>,
    weights: &ActivityMap<f64>,
    avail: f64,
) -> ActivityMap<f64> {
    let mut alloc = ActivityMap::uniform(0.0f64);
    let mut remaining = avail.max(0.0);
    let mut active: Vec<Activity> = Activity::ALL
        .into_iter()
        .filter(|&a| demand[a] > 0.0)
        .collect();
    while remaining > 1e-12 && !active.is_empty() {
        let weight_sum: f64 = active.iter().map(|&a| weights[a]).sum();
        let round = remaining;
        let mut still_unsatisfied = Vec::new();
        let mut progressed = false;
        for &a in &active {
            let share = round * weights[a] / weight_sum;
            let take = share.min(demand[a] - alloc[a]);
            alloc[a] += take;
            remaining -= take;
            if take > 0.0 {
                progressed = true;
            }
            if alloc[a] < demand[a] - 1e-12 {
                still_unsatisfied.push(a);
            }
        }
        active = still_unsatisfied;
        if !progressed {
            break;
        }
    }
    alloc
}

/// Candidate indices in the order an [`AdmissionOrder`] offers them:
/// arrival order for FIFO, probability-descending (stable) for priority.
fn ordered_indices(candidates: &[(Activity, f64)], order: AdmissionOrder) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..candidates.len()).collect();
    if order == AdmissionOrder::Priority {
        // Stable sort: equal probabilities keep FIFO order.
        indices.sort_by(|&a, &b| {
            candidates[b]
                .1
                .partial_cmp(&candidates[a].1)
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
        // Single-activity use books everything on the default activity.
        let slice = s.activity_stats(Activity::MobileTab);
        assert_eq!(slice.admitted, 5);
        assert!((slice.units_spent - 125.0).abs() < 1e-9);
        assert_eq!(
            s.activity_stats(Activity::Mpu),
            ActivityBudgetStats::default()
        );
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

    // ---- shared multi-activity bucket -----------------------------------

    /// A shared bucket with per-activity costs 10 / 20 / 40.
    fn shared_config(capacity: f64, refill: f64) -> (BudgetConfig, ActivityMap<f64>) {
        (
            BudgetConfig {
                capacity_units: capacity,
                refill_units_per_sec: refill,
                cost_per_prefetch_units: 40.0,
                max_inflight: 1_000,
            },
            ActivityMap::from_fn(|a| match a {
                Activity::MobileTab => 10.0,
                Activity::Timeshift => 20.0,
                Activity::Mpu => 40.0,
            }),
        )
    }

    #[test]
    fn greedy_shared_bucket_lets_one_activity_take_everything() {
        let (config, costs) = shared_config(100.0, 0.0);
        let mut s = PrefetchScheduler::shared(config, costs, FairnessPolicy::Greedy);
        // MobileTab drains the whole bucket before anyone else shows up.
        for _ in 0..10 {
            assert_eq!(
                s.try_admit_for(Activity::MobileTab, 0),
                AdmitResult::Admitted
            );
        }
        assert_eq!(
            s.try_admit_for(Activity::Timeshift, 0),
            AdmitResult::DeniedBudget
        );
        assert_eq!(s.try_admit_for(Activity::Mpu, 0), AdmitResult::DeniedBudget);
        assert_eq!(s.activity_stats(Activity::MobileTab).admitted, 10);
        assert!((s.activity_stats(Activity::MobileTab).units_spent - 100.0).abs() < 1e-9);
        assert_eq!(s.activity_stats(Activity::Timeshift).denied_budget, 1);
        s.check_invariants().unwrap();
    }

    #[test]
    fn guaranteed_share_reserves_survive_an_aggressor() {
        let (config, costs) = shared_config(100.0, 0.0);
        // 20% of the bucket reserved per activity; 40% common pool.
        let floors = ActivityMap::uniform(0.2);
        let mut s =
            PrefetchScheduler::shared(config, costs, FairnessPolicy::GuaranteedShare { floors });
        assert!((s.tokens() - 100.0).abs() < 1e-9);
        assert!((s.reserved[Activity::Mpu] - 20.0).abs() < 1e-9);
        // MobileTab can win the common pool (40) plus its own reserve (20):
        // 6 × 10 units — and not an Mpu/Timeshift token more.
        for _ in 0..6 {
            assert_eq!(
                s.try_admit_for(Activity::MobileTab, 0),
                AdmitResult::Admitted
            );
        }
        assert_eq!(
            s.try_admit_for(Activity::MobileTab, 0),
            AdmitResult::DeniedBudget
        );
        // The other activities still hold their guaranteed floors: the
        // 20-unit Timeshift prefetch fits its reserve exactly, while the
        // 40-unit MPU prefetch exceeds its 20-unit reserve (the common
        // pool the aggressor drained is gone).
        assert_eq!(
            s.try_admit_for(Activity::Timeshift, 0),
            AdmitResult::Admitted
        );
        assert_eq!(s.try_admit_for(Activity::Mpu, 0), AdmitResult::DeniedBudget);
        assert!(s.reserved[Activity::Timeshift].abs() < 1e-9);
        s.check_invariants().unwrap();
    }

    #[test]
    fn guaranteed_share_refill_feeds_the_floors() {
        let (config, costs) = shared_config(100.0, 10.0);
        let floors = ActivityMap::uniform(0.25); // no common pool headroom: 25 % shared
        let mut s =
            PrefetchScheduler::shared(config, costs, FairnessPolicy::GuaranteedShare { floors });
        // Drain everything MobileTab can reach (pool 25 + reserve 25 = 5 × 10).
        for _ in 0..5 {
            assert_eq!(
                s.try_admit_for(Activity::MobileTab, 0),
                AdmitResult::Admitted
            );
        }
        assert_eq!(
            s.try_admit_for(Activity::MobileTab, 0),
            AdmitResult::DeniedBudget
        );
        // 4 s of refill = 40 units: 10 to each reserve (capped at its floor
        // slice) and 10 to the pool. MobileTab's reserve was empty, so it
        // gets its 10 units back regardless of contention.
        assert_eq!(
            s.try_admit_for(Activity::MobileTab, 4),
            AdmitResult::Admitted
        );
        // Full reserves decline their share: Timeshift's reserve was full
        // (25), so the refill must not overfill it.
        assert!(s.reserved[Activity::Timeshift] <= 25.0 + 1e-9);
        s.check_invariants().unwrap();
    }

    #[test]
    fn deficit_round_robin_splits_a_wave_by_weight() {
        let (config, costs) = shared_config(120.0, 0.0);
        let mut s = PrefetchScheduler::shared(
            config,
            costs,
            FairnessPolicy::DeficitRoundRobin {
                weights: ActivityMap::uniform(1.0),
            },
        );
        // A wave dominated by MobileTab candidates, 120 units in the bucket.
        // Equal weights split the budget in cost units — 40 per activity,
        // with Timeshift's unused 20 redistributed — where FIFO would have
        // handed the whole bucket to the eight MobileTab arrivals at the
        // head.
        let mut wave: Vec<(Activity, f64)> = vec![(Activity::MobileTab, 0.9); 8];
        wave.push((Activity::Timeshift, 0.8));
        wave.push((Activity::Mpu, 0.7));
        let results = s.admit_wave_tagged(0, &wave, AdmissionOrder::Fifo);
        assert_eq!(results[9], AdmitResult::Admitted, "MPU (40 units) admitted");
        assert_eq!(
            results[8],
            AdmitResult::Admitted,
            "Timeshift (20 units) admitted"
        );
        // MobileTab's share: its 40 plus all of Timeshift's 20-unit surplus
        // (MPU's 40-unit demand was already satisfied by its own share).
        assert_eq!(s.activity_stats(Activity::MobileTab).admitted, 6);
        assert!((s.stats().units_spent - 120.0).abs() < 1e-9);
        s.check_invariants().unwrap();
    }

    #[test]
    fn deficit_round_robin_deficits_accumulate_until_a_starved_activity_catches_up() {
        // A 60-unit bucket refilling 10 units/s; every second a wave of
        // eight cheap MobileTab candidates (10 units each) plus one
        // expensive MPU candidate (40 units), equal weights. MPU's
        // per-wave fair share never covers one prefetch, so per-wave
        // credit reset starved it forever; persistent deficits let it
        // accumulate its share across waves and admit periodically.
        let (config, costs) = shared_config(60.0, 10.0);
        let mut s = PrefetchScheduler::shared(
            config,
            costs,
            FairnessPolicy::DeficitRoundRobin {
                weights: ActivityMap::uniform(1.0),
            },
        );
        let mut mpu_admitted = 0u64;
        let mut mobile_admitted = 0u64;
        for now in 0..12i64 {
            let mut wave: Vec<(Activity, f64)> = vec![(Activity::MobileTab, 0.9); 8];
            wave.push((Activity::Mpu, 0.8));
            let results = s.admit_wave_tagged(now, &wave, AdmissionOrder::Fifo);
            for (&(activity, _), result) in wave.iter().zip(&results) {
                if *result == AdmitResult::Admitted {
                    s.complete_one_for(activity);
                    match activity {
                        Activity::Mpu => mpu_admitted += 1,
                        _ => mobile_admitted += 1,
                    }
                }
            }
            s.check_invariants().unwrap();
            assert!(
                s.drr_deficit[Activity::Mpu] <= config.capacity_units,
                "deficit must stay bounded"
            );
        }
        assert!(
            mpu_admitted >= 2,
            "starved MPU must catch up over successive waves, admitted {mpu_admitted}"
        );
        assert!(
            mobile_admitted > mpu_admitted,
            "MobileTab keeps the majority share ({mobile_admitted} vs {mpu_admitted})"
        );
    }

    #[test]
    fn drained_queues_donate_their_deficit_back() {
        // MPU banks a deficit while starved, then stops showing up: the
        // next wave it sits out must clear its claim so the others get
        // the whole bucket again.
        let (config, costs) = shared_config(60.0, 10.0);
        let mut s = PrefetchScheduler::shared(
            config,
            costs,
            FairnessPolicy::DeficitRoundRobin {
                weights: ActivityMap::uniform(1.0),
            },
        );
        let mut wave: Vec<(Activity, f64)> = vec![(Activity::MobileTab, 0.9); 8];
        wave.push((Activity::Mpu, 0.8));
        s.admit_wave_tagged(0, &wave, AdmissionOrder::Fifo);
        assert!(
            s.drr_deficit[Activity::Mpu] > 0.0,
            "starved MPU banks a deficit"
        );
        // MPU absent: its deficit is donated, not hoarded.
        let mobile_only: Vec<(Activity, f64)> = vec![(Activity::MobileTab, 0.9); 8];
        s.admit_wave_tagged(1, &mobile_only, AdmissionOrder::Fifo);
        assert_eq!(s.drr_deficit[Activity::Mpu], 0.0);
        s.check_invariants().unwrap();
    }

    #[test]
    fn deficit_round_robin_respects_admission_order_within_an_activity() {
        let (config, costs) = shared_config(40.0, 0.0);
        let mut s = PrefetchScheduler::shared(
            config,
            costs,
            FairnessPolicy::DeficitRoundRobin {
                weights: ActivityMap::uniform(1.0),
            },
        );
        // Two MobileTab candidates fit (the other 20 units go to Timeshift);
        // priority order must pick the two best MobileTab scores.
        let wave = [
            (Activity::MobileTab, 0.2),
            (Activity::MobileTab, 0.9),
            (Activity::MobileTab, 0.8),
            (Activity::Timeshift, 0.5),
        ];
        let results = s.admit_wave_tagged(0, &wave, AdmissionOrder::Priority);
        assert_eq!(results[1], AdmitResult::Admitted);
        assert_eq!(results[2], AdmitResult::Admitted);
        assert_eq!(results[3], AdmitResult::Admitted);
        assert_eq!(results[0], AdmitResult::DeniedBudget);
        s.check_invariants().unwrap();
    }

    #[test]
    fn deficit_round_robin_hands_scarce_inflight_slots_to_the_heaviest_weight() {
        // One inflight slot left; ample budget and credit for both
        // candidates. The slot must go to the heaviest-weighted activity,
        // not to whichever activity sorts first in Activity::ALL.
        let (config, costs) = shared_config(1_000.0, 0.0);
        let config = BudgetConfig {
            max_inflight: 1,
            ..config
        };
        let mut s = PrefetchScheduler::shared(
            config,
            costs,
            FairnessPolicy::DeficitRoundRobin {
                weights: ActivityMap::from_fn(|a| if a == Activity::Mpu { 3.0 } else { 1.0 }),
            },
        );
        let wave = [(Activity::MobileTab, 0.9), (Activity::Mpu, 0.1)];
        let results = s.admit_wave_tagged(0, &wave, AdmissionOrder::Fifo);
        assert_eq!(
            results[1],
            AdmitResult::Admitted,
            "heaviest weight wins the slot"
        );
        assert_eq!(results[0], AdmitResult::DeniedInflight);
        s.check_invariants().unwrap();
    }

    #[test]
    fn tagged_and_untagged_waves_agree_on_the_default_activity() {
        let probs = [0.9, 0.2, 0.5];
        let mut untagged = PrefetchScheduler::new(config());
        let mut tagged = PrefetchScheduler::new(config());
        let candidates: Vec<(Activity, f64)> =
            probs.iter().map(|&p| (Activity::MobileTab, p)).collect();
        assert_eq!(
            untagged.admit_wave(0, &probs, AdmissionOrder::Priority),
            tagged.admit_wave_tagged(0, &candidates, AdmissionOrder::Priority)
        );
        assert_eq!(untagged.stats(), tagged.stats());
    }

    #[test]
    #[should_panic(expected = "floors must sum to at most 1")]
    fn overcommitted_floors_panic() {
        let (config, costs) = shared_config(100.0, 0.0);
        let _ = PrefetchScheduler::shared(
            config,
            costs,
            FairnessPolicy::GuaranteedShare {
                floors: ActivityMap::uniform(0.5),
            },
        );
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_drr_weight_panics() {
        let (config, costs) = shared_config(100.0, 0.0);
        let _ = PrefetchScheduler::shared(
            config,
            costs,
            FairnessPolicy::DeficitRoundRobin {
                weights: ActivityMap::from_fn(|a| if a == Activity::Mpu { 0.0 } else { 1.0 }),
            },
        );
    }

    #[test]
    #[should_panic(expected = "every activity's prefetch must fit")]
    fn oversized_activity_cost_panics() {
        let (config, _) = shared_config(100.0, 0.0);
        let _ = PrefetchScheduler::shared(
            config,
            ActivityMap::from_fn(|a| if a == Activity::Mpu { 101.0 } else { 10.0 }),
            FairnessPolicy::Greedy,
        );
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

        /// Shared-bucket conservation, the property the acceptance criteria
        /// name: under every fairness policy, for arbitrary interleavings of
        /// tagged admissions, clock gaps and completions, (1) per-activity
        /// spends always sum to the total bucket drain, (2) the books
        /// balance (`offered == spent + tokens`), and (3) no policy admits
        /// past the budget — the bucket level never leaves `[0, capacity]`.
        #[test]
        fn shared_bucket_conserves_under_every_fairness_policy(
            policy_pick in 0u8..3,
            waves in prop::collection::vec(
                prop::collection::vec((0u8..3, 0.0f64..1.0), 0..12),
                1..40,
            ),
            gaps in prop::collection::vec(0i64..20, 1..40),
            priority in any::<bool>(),
        ) {
            let (config, costs) = shared_config(120.0, 4.0);
            let fairness = match policy_pick {
                0 => FairnessPolicy::Greedy,
                1 => FairnessPolicy::GuaranteedShare {
                    floors: ActivityMap::from_fn(|a| match a {
                        Activity::MobileTab => 0.1,
                        Activity::Timeshift => 0.2,
                        Activity::Mpu => 0.4,
                    }),
                },
                _ => FairnessPolicy::DeficitRoundRobin {
                    weights: ActivityMap::from_fn(|a| 1.0 + a.index() as f64),
                },
            };
            let mut s = PrefetchScheduler::shared(config, costs, fairness);
            let order = if priority { AdmissionOrder::Priority } else { AdmissionOrder::Fifo };
            let mut now = 0i64;
            for (wave, gap) in waves.iter().zip(gaps.iter().cycle()) {
                now += gap;
                let candidates: Vec<(Activity, f64)> = wave
                    .iter()
                    .map(|&(a, p)| (Activity::ALL[a as usize], p))
                    .collect();
                let results = s.admit_wave_tagged(now, &candidates, order);
                prop_assert_eq!(results.len(), candidates.len());
                // Release half the admitted slots to keep inflight moving.
                for (i, r) in results.iter().enumerate() {
                    if *r == AdmitResult::Admitted && i % 2 == 0 {
                        s.complete_one_for(candidates[i].0);
                    }
                }
                prop_assert!(
                    s.check_invariants().is_ok(),
                    "{} violated: {:?}",
                    fairness.name(),
                    s.check_invariants()
                );
                prop_assert!(s.tokens() >= -1e-6);
                prop_assert!(s.tokens() <= config.capacity_units + 1e-6);
                // Conservation: Σ per-activity spend == total drain, and the
                // total drain never exceeds what the bucket offered.
                let stats = s.stats();
                let by_activity: f64 = Activity::ALL
                    .iter()
                    .map(|&a| s.activity_stats(a).units_spent)
                    .sum();
                prop_assert!((by_activity - stats.units_spent).abs() < 1e-6);
                prop_assert!(stats.units_spent <= stats.units_offered + 1e-6);
            }
        }

        /// Guaranteed-share floors actually guarantee service: an aggressor
        /// activity hammering the bucket can never deny the floored activity
        /// the admissions its reserve refill pays for.
        #[test]
        fn guaranteed_share_floor_prevents_starvation(
            aggressor_waves in prop::collection::vec(1usize..20, 5..30),
        ) {
            let (config, costs) = shared_config(100.0, 10.0);
            let floors = ActivityMap::from_fn(|a| match a {
                Activity::Mpu => 0.4, // reserve slice: 40 units — one MPU prefetch
                _ => 0.0,
            });
            let mut s = PrefetchScheduler::shared(
                config,
                costs,
                FairnessPolicy::GuaranteedShare { floors },
            );
            let mut now = 0i64;
            let mut mpu_admitted = 0u64;
            for burst in &aggressor_waves {
                // MobileTab floods the bucket…
                for _ in 0..*burst {
                    if s.try_admit_for(Activity::MobileTab, now) == AdmitResult::Admitted {
                        s.complete_one();
                    }
                }
                // …then 10 s pass (100 offered units, 40 of them reserved
                // for MPU) and MPU asks once.
                now += 10;
                if s.try_admit_for(Activity::Mpu, now) == AdmitResult::Admitted {
                    s.complete_one_for(Activity::Mpu);
                    mpu_admitted += 1;
                }
                prop_assert!(s.check_invariants().is_ok());
            }
            // Every post-gap MPU attempt after the first must be admitted:
            // 10 s × 10 units/s × 0.4 floor = one 40-unit MPU prefetch.
            prop_assert!(
                mpu_admitted >= aggressor_waves.len() as u64 - 1,
                "MPU starved: {} of {} admitted",
                mpu_admitted,
                aggressor_waves.len()
            );
        }
    }
}
