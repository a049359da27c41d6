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
//! * [`activity`] — the [`Activity`] label a [`Decision`] carries: the
//!   MobileTab prefetch, the one activity the loop runs;
//! * [`policy`] — the [`PrecomputePolicy`]: a probability threshold chosen
//!   on held-out scores to meet a target precision (§8: constrain
//!   precision, maximize recall; §9: 60% for the MobileTab launch), and
//!   re-fit on fresh (score, label) windows;
//! * [`decision`] — the [`DecisionEngine`]: applies a
//!   [`PrecomputePolicy`] to batched [`pp_serving::Prediction`]s
//!   (a wave scored by a [`pp_serving::BatchScheduler`] or harvested from
//!   a [`pp_serving::BatchServingEngine`]'s `submit_many` receivers) and
//!   emits per-request [`Decision`]s;
//! * [`scheduler`] — the [`PrefetchScheduler`]: token-bucket admission with
//!   a max-inflight cap, costing each prefetch in the abstract cost units
//!   of `pp-serving::cost` ([`prefetch_cost_units`]), so "budget" means the
//!   same thing as the §9 serving-cost model; refill per elapsed second,
//!   and [`AdmissionOrder`]-controlled wave admission (FIFO, or
//!   highest-probability-first so a low bucket is spent on the prefetches
//!   most likely to become hits);
//! * [`cache`] — the sharded [`PrefetchCache`]: TTL + LRU bounded storage
//!   for precomputed payloads keyed by user (a TTL-expired payload counts
//!   as expired, never as an LRU eviction);
//! * [`outcome`] — the [`OutcomeTracker`]: resolves every decision against
//!   what the session actually did (hit / wasted prefetch / expired
//!   prefetch / missed access / correct skip) with exact conservation,
//!   emits live precision / recall / waste, and retains drainable
//!   ([`ResolvedSample`]) (score, label) pairs for recalibration;
//! * [`obs`] — cached `pp-obs` handles instrumenting admission, the token
//!   bucket, the prefetch cache, and the precision/threshold trajectory
//!   (compiled to no-ops without the `obs` feature);
//! * [`adaptive`] — the [`AdaptiveThresholdController`]: nudges the
//!   decision threshold online, window by window, to hold the target
//!   precision as traffic drifts;
//! * [`system`] — the [`PrecomputeSystem`] wiring all of it together behind
//!   two calls: `handle_scores` at session start, `resolve_session` when
//!   the ground truth lands — with one adaptive controller and one learned
//!   feedback loop: every closed controller window drains the (score,
//!   label) samples into [`PrecomputePolicy::recalibrate`] and
//!   applies the refit threshold, with a starvation fallback so a
//!   saturated threshold recovers from resolved skips instead of
//!   deadlocking.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activity;
pub mod adaptive;
pub mod cache;
pub mod decision;
pub mod obs;
pub mod outcome;
pub mod policy;
pub mod scheduler;
pub mod system;

pub use activity::Activity;
pub use adaptive::{AdaptiveThresholdController, ControllerConfig, WindowSnapshot};
pub use cache::{CacheConfig, CacheStats, PrefetchCache};
pub use decision::{Action, Decision, DecisionEngine, DecisionStats};
pub use obs::PrecomputeObs;
pub use outcome::{Outcome, OutcomeCounts, OutcomeTracker, ResolvedSample, MAX_RETAINED_SAMPLES};
pub use policy::PrecomputePolicy;
pub use scheduler::{
    prefetch_cost_units, AdmissionOrder, AdmitResult, BudgetConfig, PrefetchScheduler,
    SchedulerBudgetStats,
};
pub use system::{PrecomputeSystem, SystemConfig, SystemReport};
