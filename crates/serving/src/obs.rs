//! Cached `pp-obs` instrumentation handles for the serving hot paths.
//!
//! Metric handles are looked up once (per registry) and then recorded
//! through raw atomics, so batch workers never touch the registry locks.
//! All names live under the `serving.` prefix; `_ns` histograms hold
//! nanoseconds. Counts the typed stats already keep (`StoreStats`,
//! `EngineStats`, `WorkerStats`) have no registry twin. See
//! `docs/observability.md` for the full catalogue.

use pp_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::{Arc, OnceLock};

/// The serving layer's metric handles.
#[derive(Debug, Clone)]
pub struct ServingObs {
    /// `serving.queue_depth` — jobs waiting in the batch engine's queue.
    pub queue_depth: Arc<Gauge>,
    /// `serving.coalesce_wait_ns` — how long a worker held a non-full
    /// batch open before serving it.
    pub coalesce_wait_ns: Arc<Histogram>,
    /// `serving.batch_size` — requests per served batch.
    pub batch_size: Arc<Histogram>,
    /// `serving.batch_assembly_ns` — state fetch + featurization per batch.
    pub batch_assembly_ns: Arc<Histogram>,
    /// `serving.forward_pass_ns` — the RNN forward pass per batch.
    pub forward_pass_ns: Arc<Histogram>,
    /// `serving.worker.hold_wakes` — returns from a coalesce hold's timed
    /// wait: a batch that could fill, a shutdown or the deadline. Divided by
    /// the batches served (`EngineStats::batches`) it is the wake-ups one
    /// batch costs.
    pub worker_hold_wakes: Arc<Counter>,
}

impl ServingObs {
    /// Registers (or re-resolves) the serving metrics on `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            queue_depth: registry.gauge("serving.queue_depth"),
            coalesce_wait_ns: registry.histogram("serving.coalesce_wait_ns"),
            batch_size: registry.histogram("serving.batch_size"),
            batch_assembly_ns: registry.histogram("serving.batch_assembly_ns"),
            forward_pass_ns: registry.histogram("serving.forward_pass_ns"),
            worker_hold_wakes: registry.counter("serving.worker.hold_wakes"),
        }
    }

    /// The handles bound to [`MetricsRegistry::global`], resolved once.
    #[must_use]
    pub fn global() -> &'static ServingObs {
        static GLOBAL: OnceLock<ServingObs> = OnceLock::new();
        GLOBAL.get_or_init(|| Self::register(MetricsRegistry::global()))
    }
}
