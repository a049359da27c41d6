//! Cached `pp-obs` instrumentation handles for the precompute loop.
//!
//! Per-activity metrics are suffixed with [`Activity::slug`](crate::Activity::slug)
//! (`precompute.admitted.mobile_tab`, …) so a snapshot stays greppable
//! without labels. Structured events (threshold moves, budget exhaustion,
//! eviction storms, recalibration windows) go through the registry's
//! [`pp_obs::EventLog`]; see `docs/observability.md` for the catalogue.

use crate::activity::ActivityMap;
use pp_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::{Arc, OnceLock};

/// The precompute layer's metric handles.
#[derive(Debug, Clone)]
pub struct PrecomputeObs {
    /// `precompute.admitted.<slug>` — prefetches admitted per activity.
    pub admitted: ActivityMap<Arc<Counter>>,
    /// `precompute.denied.<slug>` — admission rejections per activity
    /// (budget, inflight, and probability-floor denials combined).
    pub denied: ActivityMap<Arc<Counter>>,
    /// `precompute.bucket_level_units` — token-bucket level after the most
    /// recent wave, in cost units.
    pub bucket_level_units: Arc<Gauge>,
    /// `precompute.admission_ns` — time spent admitting one wave.
    pub admission_ns: Arc<Histogram>,
    /// `precompute.wave_size` — prefetch candidates per admitted wave.
    pub wave_size: Arc<Histogram>,
    /// `precompute.cache_op_ns` — latency of individual cache operations
    /// (insert / take).
    pub cache_op_ns: Arc<Histogram>,
    /// `precompute.cache.hits` — cache reads that found a live payload.
    pub cache_hits: Arc<Counter>,
    /// `precompute.cache.misses` — cache reads that found nothing.
    pub cache_misses: Arc<Counter>,
    /// `precompute.cache.expired` — reads that found only a TTL-expired
    /// payload.
    pub cache_expired: Arc<Counter>,
    /// `precompute.cache.evicted` — payloads LRU-evicted by inserts.
    pub cache_evicted: Arc<Counter>,
    /// `precompute.window_precision.<slug>` — precision of the most recent
    /// closed controller window per activity.
    pub window_precision: ActivityMap<Arc<Gauge>>,
    /// `precompute.threshold.<slug>` — current decision threshold per
    /// activity (the trajectory the adaptive controller walks).
    pub threshold: ActivityMap<Arc<Gauge>>,
}

impl PrecomputeObs {
    /// Registers (or re-resolves) the precompute metrics on `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        let per_activity = |prefix: &str| {
            ActivityMap::from_fn(|a| registry.counter(&format!("{prefix}.{}", a.slug())))
        };
        let per_activity_gauge = |prefix: &str| {
            ActivityMap::from_fn(|a| registry.gauge(&format!("{prefix}.{}", a.slug())))
        };
        Self {
            admitted: per_activity("precompute.admitted"),
            denied: per_activity("precompute.denied"),
            bucket_level_units: registry.gauge("precompute.bucket_level_units"),
            admission_ns: registry.histogram("precompute.admission_ns"),
            wave_size: registry.histogram("precompute.wave_size"),
            cache_op_ns: registry.histogram("precompute.cache_op_ns"),
            cache_hits: registry.counter("precompute.cache.hits"),
            cache_misses: registry.counter("precompute.cache.misses"),
            cache_expired: registry.counter("precompute.cache.expired"),
            cache_evicted: registry.counter("precompute.cache.evicted"),
            window_precision: per_activity_gauge("precompute.window_precision"),
            threshold: per_activity_gauge("precompute.threshold"),
        }
    }

    /// The handles bound to [`MetricsRegistry::global`], resolved once.
    #[must_use]
    pub fn global() -> &'static PrecomputeObs {
        static GLOBAL: OnceLock<PrecomputeObs> = OnceLock::new();
        GLOBAL.get_or_init(|| Self::register(MetricsRegistry::global()))
    }
}
