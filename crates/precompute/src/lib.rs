//! # pp-precompute
//!
//! The budget-aware precompute *execution* subsystem: everything between a
//! predicted access probability and a measured, accounted-for prefetch.
//!
//! The paper's end goal is not prediction but precompute (§8–§9): turn
//! access probabilities into prefetch decisions that maximize successful
//! prefetches under a resource budget, at a precision target (60% for the
//! MobileTab launch). `pp-serving` produces batched scores; this crate
//! closes the predict → act → measure loop around them:
//!
//! * [`activity`] — the [`Activity`] dimension of a shared deployment
//!   (MobileTab / Timeshift / MPU), the dense per-activity [`ActivityMap`],
//!   and [`jain_index`] for fairness reporting;
//! * [`decision`] — the [`DecisionEngine`]: applies per-activity
//!   [`pp_core::PrecomputePolicy`]s to batched [`pp_serving::Prediction`]s
//!   (a wave scored by a [`pp_serving::BatchScheduler`] or harvested from
//!   a [`pp_serving::BatchServingEngine`]'s `submit_many` receivers) and
//!   emits per-request [`Decision`]s;
//! * [`scheduler`] — the [`PrefetchScheduler`]: token-bucket admission with
//!   a max-inflight cap, costing each prefetch in the abstract cost units
//!   of `pp-serving::cost` ([`prefetch_cost_units`]), so "budget" means the
//!   same thing as the §9 serving-cost model; refill per elapsed second,
//!   [`AdmissionOrder`]-controlled wave admission (FIFO, or
//!   highest-probability-first so a low bucket is spent on the prefetches
//!   most likely to become hits), and **shared multi-activity buckets**:
//!   per-activity costs drawing on one budget under a [`FairnessPolicy`]
//!   (greedy, guaranteed-share floors, or deficit-weighted round-robin),
//!   with per-activity spend accounting that provably sums to the total
//!   drain;
//! * [`cache`] — the sharded [`PrefetchCache`]: TTL + LRU bounded storage
//!   for precomputed payloads keyed by user (a TTL-expired payload counts
//!   as expired, never as an LRU eviction);
//! * [`outcome`] — the [`OutcomeTracker`]: resolves every decision against
//!   what the session actually did (hit / wasted prefetch / expired
//!   prefetch / missed access / correct skip) with exact conservation,
//!   emits live precision / recall / waste per activity, and retains
//!   drainable ([`ResolvedSample`]) (score, label) pairs per activity for
//!   recalibration;
//! * [`obs`] — cached `pp-obs` handles instrumenting admission, the token
//!   bucket, the prefetch cache, and the per-activity precision/threshold
//!   trajectories (compiled to no-ops without the `obs` feature);
//! * [`adaptive`] — the [`AdaptiveThresholdController`]: nudges the
//!   decision threshold online, window by window, to hold the target
//!   precision as traffic drifts;
//! * [`system`] — the [`PrecomputeSystem`] wiring all of it together behind
//!   two calls: `handle_scores` / `handle_wave` at session start,
//!   `resolve_session` when the ground truth lands — with one adaptive
//!   controller and one learned feedback loop *per activity*: every closed
//!   controller window drains that activity's (score, label) samples into
//!   [`pp_core::PrecomputePolicy::recalibrate`] and applies the refit
//!   threshold, with a starvation fallback so a saturated threshold
//!   recovers from resolved skips instead of deadlocking. The per-activity
//!   spend/hit ledger surfaces through
//!   [`PrecomputeSystem::activity_report`].
//!
//! The scheduler's and the decision engine's public calls are
//! single-activity: they book on [`Activity::MobileTab`], and each is the
//! N = 1 call of one crate-private multi-activity method. Only
//! [`PrecomputeSystem`] drives those, so [`PrecomputeSystem::new_multi`] and
//! [`PrecomputeSystem::handle_wave`] are the one public way to run several
//! activities on one budget.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activity;
pub mod adaptive;
pub mod cache;
pub mod decision;
pub mod obs;
pub mod outcome;
pub mod scheduler;
pub mod system;

pub use activity::{jain_index, Activity, ActivityMap};
pub use adaptive::{AdaptiveThresholdController, ControllerConfig, WindowSnapshot};
pub use cache::{CacheConfig, CacheStats, PrefetchCache};
pub use decision::{Action, Decision, DecisionEngine, DecisionStats};
pub use obs::PrecomputeObs;
pub use outcome::{Outcome, OutcomeCounts, OutcomeTracker, ResolvedSample, MAX_RETAINED_SAMPLES};
pub use scheduler::{
    prefetch_cost_units, ActivityBudgetStats, AdmissionOrder, AdmitResult, BudgetConfig,
    FairnessPolicy, PrefetchScheduler, SchedulerBudgetStats,
};
pub use system::{
    ActivityReport, MultiActivityConfig, PrecomputeSystem, SystemConfig, SystemReport,
};
