//! # pp-obs
//!
//! The std-only observability layer shared by the serving and precompute
//! crates: the paper's production story is a continuously *measured*
//! predict → decide → act → measure → recalibrate loop, and this crate is
//! the measuring instrument. No `tracing`, no `prometheus` — just atomics,
//! a mutex-guarded ring, and the workspace serde shim:
//!
//! * [`metrics`] — the log-bucketed latency [`Histogram`] (exact counts,
//!   interpolated p50/p90/p99, merge-able across threads), plus the
//!   zero-alloc [`Stopwatch`] for hot-path timing. The registry keeps
//!   distributions only: a count or a level has one owner, which is read
//!   for it (an engine's `queued()`, a scheduler's `tokens()`), and the
//!   events carry its trajectory;
//! * [`events`] — the bounded ring-buffer [`EventLog`] of structured,
//!   serializable [`Event`]s (threshold moves, budget exhaustion, eviction
//!   storms, recalibration windows);
//! * [`registry`] — the global-or-injected [`MetricsRegistry`] handing out
//!   named histograms, and its serializable [`Snapshot`];
//! * [`sync`] — the [`LockPolicy`] extension trait naming the workspace's
//!   mutex poison policies (`lock_or_panic` for engine-critical state,
//!   `lock_recover` for observability state), and
//!   [`sync::spawn_worker`], which names a worker thread and gives it exact
//!   timers; **not** feature-gated;
//! * [`trace`] — the sampled per-request [`Tracer`] (deterministic
//!   seeded-hash sampling, bounded per-worker [`Span`] buffers) and the
//!   [`TailReport`] latency attribution.
//!
//! ## Compiled-out mode
//!
//! Everything records only under the `enabled` cargo feature (on by
//! default). With `--no-default-features` every recording call is guarded
//! by the `const fn` [`is_enabled`], so the optimizer deletes the body and
//! instrumented code paths cost nothing — the baseline the CI overhead
//! gate compares against.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod events;
pub mod metrics;
pub mod registry;
pub mod sync;
pub mod trace;

pub use events::{Event, EventKind, EventLog};
pub use metrics::{Histogram, Stopwatch};
pub use registry::{HistogramSnapshot, MetricsRegistry, Snapshot};
pub use sync::LockPolicy;
pub use trace::{
    tail_report, Span, SpanBuilder, SpanId, Stage, StageTail, TailReport, TraceId, Tracer,
    TracerConfig,
};

/// Whether instrumentation is compiled in (the `enabled` cargo feature).
///
/// A `const fn` so `if is_enabled() { … }` guards constant-fold away in
/// the compiled-out build.
#[must_use]
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}
