//! Cached `pp-obs` instrumentation handles for the precompute loop.
//!
//! Counts the typed stats already keep (the scheduler's admissions and
//! denials, the cache's `CacheStats`) have no registry twin.
//! Structured events (threshold moves, budget exhaustion, eviction storms,
//! recalibration windows) go through the registry's [`pp_obs::EventLog`];
//! see `docs/observability.md` for the catalogue.

use pp_obs::{Gauge, Histogram, MetricsRegistry};
use std::sync::{Arc, OnceLock};

/// The precompute layer's metric handles.
#[derive(Debug, Clone)]
pub struct PrecomputeObs {
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
    /// `precompute.window_precision` — precision of the most recent closed
    /// controller window.
    pub window_precision: Arc<Gauge>,
    /// `precompute.threshold` — current decision threshold (the trajectory
    /// the adaptive controller walks).
    pub threshold: Arc<Gauge>,
}

impl PrecomputeObs {
    /// Registers (or re-resolves) the precompute metrics on `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            bucket_level_units: registry.gauge("precompute.bucket_level_units"),
            admission_ns: registry.histogram("precompute.admission_ns"),
            wave_size: registry.histogram("precompute.wave_size"),
            cache_op_ns: registry.histogram("precompute.cache_op_ns"),
            window_precision: registry.gauge("precompute.window_precision"),
            threshold: registry.gauge("precompute.threshold"),
        }
    }

    /// The handles bound to [`MetricsRegistry::global`], resolved once.
    #[must_use]
    pub fn global() -> &'static PrecomputeObs {
        static GLOBAL: OnceLock<PrecomputeObs> = OnceLock::new();
        GLOBAL.get_or_init(|| Self::register(MetricsRegistry::global()))
    }
}
