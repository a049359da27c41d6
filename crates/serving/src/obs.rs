//! Cached `pp-obs` instrumentation handles for the serving hot paths.
//!
//! Metric handles are looked up once (per registry) and then recorded
//! through raw atomics, so batch workers never touch the registry locks.
//! All names live under the `serving.` prefix; `_ns` histograms hold
//! nanoseconds. See `docs/observability.md` for the full catalogue.

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
    /// `serving.store.reads` — hidden-state store lookups.
    pub store_reads: Arc<Counter>,
    /// `serving.store.hits` — lookups that found a state.
    pub store_hits: Arc<Counter>,
    /// `serving.store.writes` — hidden-state store writes.
    pub store_writes: Arc<Counter>,
    /// `serving.store.evictions` — states evicted by bounded stores.
    pub store_evictions: Arc<Counter>,
    /// `serving.worker.batches` — batches served across all workers.
    pub worker_batches: Arc<Counter>,
    /// `serving.worker.steals` — batches that drained at least one job from
    /// a shard the serving worker does not own: its own shards gave the
    /// batch nothing, a coalesce hold re-gathered into it, or a peer has
    /// exited.
    pub worker_steals: Arc<Counter>,
    /// `serving.worker.hold_wakes` — returns from a coalesce hold's timed
    /// wait: a batch that could fill, a shutdown or the deadline. Divided by
    /// `serving.worker.batches` it is the wake-ups one batch costs.
    pub worker_hold_wakes: Arc<Counter>,
    /// `serving.worker.idle_ns` — total nanoseconds workers spent parked
    /// waiting for work (sums across workers; divide by worker count and
    /// wall time for mean idle fraction).
    pub worker_idle_ns: Arc<Counter>,
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
            store_reads: registry.counter("serving.store.reads"),
            store_hits: registry.counter("serving.store.hits"),
            store_writes: registry.counter("serving.store.writes"),
            store_evictions: registry.counter("serving.store.evictions"),
            worker_batches: registry.counter("serving.worker.batches"),
            worker_steals: registry.counter("serving.worker.steals"),
            worker_hold_wakes: registry.counter("serving.worker.hold_wakes"),
            worker_idle_ns: registry.counter("serving.worker.idle_ns"),
        }
    }

    /// The handles bound to [`MetricsRegistry::global`], resolved once.
    #[must_use]
    pub fn global() -> &'static ServingObs {
        static GLOBAL: OnceLock<ServingObs> = OnceLock::new();
        GLOBAL.get_or_init(|| Self::register(MetricsRegistry::global()))
    }
}
