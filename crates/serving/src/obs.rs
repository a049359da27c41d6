//! Cached `pp-obs` instrumentation handles for the serving hot paths.
//!
//! Metric handles are looked up once (per registry) and then recorded
//! through raw atomics, so batch workers never touch the registry locks.
//! All names live under the `serving.` prefix; `_ns` histograms hold
//! nanoseconds. Only distributions are registered: a count or a level is
//! read from its owner (`StoreStats`, `EngineStats`, `WorkerStats`, and
//! `BatchServingEngine::{queued, hold_wakes}`), so a served batch writes
//! no shared value but these histograms. See `docs/observability.md` for
//! the full catalogue.

use pp_obs::{Histogram, MetricsRegistry};
use std::sync::{Arc, OnceLock};

/// The serving layer's metric handles.
#[derive(Debug, Clone)]
pub struct ServingObs {
    /// `serving.coalesce_wait_ns` — how long a worker held a non-full
    /// batch open before serving it.
    pub coalesce_wait_ns: Arc<Histogram>,
    /// `serving.batch_size` — requests per served batch.
    pub batch_size: Arc<Histogram>,
    /// `serving.batch_assembly_ns` — state fetch + featurization per batch.
    pub batch_assembly_ns: Arc<Histogram>,
    /// `serving.forward_pass_ns` — the RNN forward pass per batch.
    pub forward_pass_ns: Arc<Histogram>,
}

impl ServingObs {
    /// Registers (or re-resolves) the serving metrics on `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            coalesce_wait_ns: registry.histogram("serving.coalesce_wait_ns"),
            batch_size: registry.histogram("serving.batch_size"),
            batch_assembly_ns: registry.histogram("serving.batch_assembly_ns"),
            forward_pass_ns: registry.histogram("serving.forward_pass_ns"),
        }
    }

    /// The handles bound to [`MetricsRegistry::global`], resolved once.
    #[must_use]
    pub fn global() -> &'static ServingObs {
        static GLOBAL: OnceLock<ServingObs> = OnceLock::new();
        GLOBAL.get_or_init(|| Self::register(MetricsRegistry::global()))
    }
}
