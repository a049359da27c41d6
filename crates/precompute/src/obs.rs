//! Cached `pp-obs` instrumentation handles for the precompute loop.
//!
//! Only distributions are registered. A count or a level is read from its
//! owner: the scheduler's admissions, denials and `tokens()`, the cache's
//! `CacheStats`, the controller's `last_snapshot()` and the report's
//! `threshold`. Structured events (threshold moves, budget exhaustion,
//! eviction storms, recalibration windows) carry their trajectories
//! through the registry's [`pp_obs::EventLog`]; see
//! `docs/observability.md` for the catalogue.

use pp_obs::{Histogram, MetricsRegistry};
use std::sync::{Arc, OnceLock};

/// The precompute layer's metric handles.
#[derive(Debug, Clone)]
pub struct PrecomputeObs {
    /// `precompute.admission_ns` — time spent admitting one wave.
    pub admission_ns: Arc<Histogram>,
    /// `precompute.wave_size` — prefetch candidates per admitted wave.
    pub wave_size: Arc<Histogram>,
    /// `precompute.cache_op_ns` — latency of individual cache operations
    /// (insert / take).
    pub cache_op_ns: Arc<Histogram>,
}

impl PrecomputeObs {
    /// Registers (or re-resolves) the precompute metrics on `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            admission_ns: registry.histogram("precompute.admission_ns"),
            wave_size: registry.histogram("precompute.wave_size"),
            cache_op_ns: registry.histogram("precompute.cache_op_ns"),
        }
    }

    /// The handles bound to [`MetricsRegistry::global`], resolved once.
    #[must_use]
    pub fn global() -> &'static PrecomputeObs {
        static GLOBAL: OnceLock<PrecomputeObs> = OnceLock::new();
        GLOBAL.get_or_init(|| Self::register(MetricsRegistry::global()))
    }
}
