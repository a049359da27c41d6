//! Sampled per-request tracing: where did the slowest 1% of requests
//! spend their time?
//!
//! The metric histograms answer "how is the system doing on average"; this
//! module answers *attribution*. A deterministically sampled subset of
//! requests (seeded user-id hash, so the same traffic samples the same
//! users on every run) gets a fixed-size [`Span`] record per lifecycle
//! stage — arrival → queue wait → claim/coalesce hold → batch assembly →
//! forward pass → state write-back → reply — written into bounded
//! per-worker buffers. Batch-level spans link their member jobs through a
//! shared batch sequence number, and the precompute loop's wave-admission
//! and cache-insert spans share the per-user trace id with that user's
//! serving spans, so one trace follows a user across the predict → decide
//! → act boundary.
//!
//! A caller drains the tracer ([`Tracer::drain`]) and folds the spans with
//! [`tail_report`] into a [`TailReport`]: end-to-end p50/p90/p99
//! decomposed by stage, plus queue-time vs service-time share for the
//! slowest percentile.
//!
//! Everything honors the crate's compile-time `enabled` feature: with it
//! off, [`Tracer::enabled`] is `false`, recording folds away, and the
//! no-op build stays a true no-op. At runtime `PP_TRACE_SAMPLE=0` turns
//! tracing off entirely; the default samples ~1/64 of users.

use crate::sync::LockPolicy;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Identifies one sampled request's span tree. Derived deterministically
/// from the user id (see [`Tracer::trace_for`]), so a user's serving spans
/// and precompute spans share a trace without any context plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct TraceId(pub u64);

/// Identifies one span within the process (unique, not deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no parent" sentinel carried by root spans.
    pub const NONE: SpanId = SpanId(0);
}

/// The lifecycle stage a [`Span`] measures. Serialized as the snake_case
/// stage name (via [`Stage::name`]) in both export formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// End-to-end per-job span: submission to reply sent.
    Request,
    /// Arrival in the shard queue until a worker claimed the job.
    QueueWait,
    /// Claimed until batch execution began (covers the coalesce hold).
    CoalesceHold,
    /// State fetch + featurization of the job's batch.
    BatchAssembly,
    /// The batched RNN forward pass.
    ForwardPass,
    /// Hidden-state write-back (update batches only).
    StateWriteBack,
    /// Per-request reply channel sends.
    Reply,
    /// Batch-level span: first claim until every reply was sent. Member
    /// jobs carry the same [`Span::batch`] sequence number.
    Batch,
    /// One precompute wave's budget-admission pass (batch-level;
    /// admitted members link through [`Span::batch`]).
    WaveAdmission,
    /// One admitted prefetch's cache insert (shares the user's trace id
    /// with the serving spans that scored the wave).
    CacheInsert,
}

impl Stage {
    /// Every stage, in lifecycle order.
    pub const ALL: [Stage; 10] = [
        Stage::Request,
        Stage::QueueWait,
        Stage::CoalesceHold,
        Stage::BatchAssembly,
        Stage::ForwardPass,
        Stage::StateWriteBack,
        Stage::Reply,
        Stage::Batch,
        Stage::WaveAdmission,
        Stage::CacheInsert,
    ];

    /// The stages that tile a [`Stage::Request`] span exactly, in order.
    pub const REQUEST_CHILDREN: [Stage; 6] = [
        Stage::QueueWait,
        Stage::CoalesceHold,
        Stage::BatchAssembly,
        Stage::ForwardPass,
        Stage::StateWriteBack,
        Stage::Reply,
    ];

    /// The stage's snake_case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::QueueWait => "queue_wait",
            Stage::CoalesceHold => "coalesce_hold",
            Stage::BatchAssembly => "batch_assembly",
            Stage::ForwardPass => "forward_pass",
            Stage::StateWriteBack => "state_write_back",
            Stage::Reply => "reply",
            Stage::Batch => "batch",
            Stage::WaveAdmission => "wave_admission",
            Stage::CacheInsert => "cache_insert",
        }
    }

    /// Whether the stage counts as *queue time* (waiting for capacity) as
    /// opposed to *service time* (being worked on) in the tail
    /// attribution.
    #[must_use]
    pub fn is_queue_time(self) -> bool {
        matches!(self, Stage::QueueWait | Stage::CoalesceHold)
    }
}

impl Serialize for Stage {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.name().to_string())
    }
}

/// One fixed-size trace record: a closed `[start_ns, end_ns]` interval on
/// the tracer's monotone clock (nanoseconds since [`Tracer`] creation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Span {
    /// The span tree this belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span ([`SpanId::NONE`] for roots).
    pub parent: SpanId,
    /// What the interval measures.
    pub stage: Stage,
    /// Serving worker index (the trace "thread"); [`Span::WAVE_WORKER`]
    /// for precompute-loop spans.
    pub worker: u32,
    /// The user the span is about (0 for batch-level spans).
    pub user: u64,
    /// Batch / wave sequence number linking member jobs (0 = none).
    pub batch: u64,
    /// Interval start, nanoseconds on the tracer clock.
    pub start_ns: u64,
    /// Interval end, nanoseconds on the tracer clock.
    pub end_ns: u64,
}

impl Span {
    /// The `worker` value carried by precompute-loop spans, which run on
    /// the simulator/driver thread rather than a serving worker.
    pub const WAVE_WORKER: u32 = 1_000;

    /// The interval's length in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Sampling and buffering knobs for a [`Tracer`].
#[derive(Debug, Clone, Copy)]
pub struct TracerConfig {
    /// Sample one user in `sample_every` (1 = every user, 0 = tracing
    /// off). The default is 64.
    pub sample_every: u64,
    /// Seed for the user-id sampling hash. The same (seed, population)
    /// samples the same users on every run — CI artifacts stay
    /// reproducible and tests can assert exact sampled counts.
    pub seed: u64,
    /// Span capacity of each of the [`LANES`] per-worker buffers.
    /// Recording past the bound drops the span and counts it.
    pub lane_capacity: usize,
}

impl Default for TracerConfig {
    fn default() -> Self {
        Self {
            sample_every: 64,
            seed: 17,
            lane_capacity: 65_536,
        }
    }
}

impl TracerConfig {
    /// Resolves the config from the environment: `PP_TRACE_SAMPLE`
    /// (sampling denominator, default 64, 0 disables) and `PP_TRACE_SEED`
    /// (hash seed, default 17).
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and its value, when either is set but
    /// is not a `u64`.
    #[must_use]
    pub fn from_env() -> Self {
        let var = |name| std::env::var(name).ok();
        Self::from_vars(
            var("PP_TRACE_SAMPLE").as_deref(),
            var("PP_TRACE_SEED").as_deref(),
        )
    }

    /// The config for the given `PP_TRACE_SAMPLE` and `PP_TRACE_SEED`
    /// values (`None` = unset).
    fn from_vars(sample: Option<&str>, seed: Option<&str>) -> Self {
        let defaults = Self::default();
        let parse = |name: &str, value: Option<&str>, default: u64| {
            value.map_or(default, |raw| {
                raw.parse()
                    .unwrap_or_else(|_| panic!("{name}={raw:?} is not a valid value"))
            })
        };
        Self {
            sample_every: parse("PP_TRACE_SAMPLE", sample, defaults.sample_every),
            seed: parse("PP_TRACE_SEED", seed, defaults.seed),
            ..defaults
        }
    }
}

/// Per-worker span buffers are sharded into this many lanes (worker index
/// modulo [`LANES`]); contention is already rare because only sampled
/// batches record.
pub const LANES: usize = 16;

/// SplitMix64 finalizer — the deterministic sampling hash. Public so
/// tests and tools can reproduce the sampling decision.
#[must_use]
pub fn trace_hash(seed: u64, user: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(user)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Default)]
struct Lane {
    spans: Vec<Span>,
}

/// The sampled-span collector: decides which users are traced
/// (deterministic hash sampling), hands out span/batch ids, and buffers
/// fixed-size [`Span`] records in bounded per-worker lanes.
#[derive(Debug)]
pub struct Tracer {
    config: TracerConfig,
    epoch: Instant,
    lanes: Vec<Mutex<Lane>>,
    next_span: AtomicU64,
    next_batch: AtomicU64,
    dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(TracerConfig::default())
    }
}

impl Tracer {
    /// Creates a tracer with the given sampling/buffering config. The
    /// tracer's clock starts now.
    #[must_use]
    pub fn new(config: TracerConfig) -> Self {
        Self {
            config,
            epoch: Instant::now(),
            lanes: (0..LANES).map(|_| Mutex::new(Lane::default())).collect(),
            next_span: AtomicU64::new(1),
            next_batch: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// The process-wide tracer, configured from the environment on first
    /// use ([`TracerConfig::from_env`]).
    #[must_use]
    pub fn global() -> &'static Tracer {
        static GLOBAL: OnceLock<Tracer> = OnceLock::new();
        GLOBAL.get_or_init(|| Tracer::new(TracerConfig::from_env()))
    }

    /// The tracer's sampling/buffering config.
    #[must_use]
    pub fn config(&self) -> TracerConfig {
        self.config
    }

    /// Whether this tracer records at all: instrumentation compiled in
    /// *and* runtime sampling not disabled. Check once per batch/wave
    /// before doing any per-span work.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        crate::is_enabled() && self.config.sample_every > 0
    }

    /// Whether `user` is in the sampled subset. Deterministic in
    /// (seed, user): independent of process layout, run order, or time —
    /// the same traffic samples the same users on every run.
    #[inline]
    #[must_use]
    pub fn sampled(&self, user: u64) -> bool {
        match self.config.sample_every {
            0 => false,
            n => trace_hash(self.config.seed, user).is_multiple_of(n),
        }
    }

    /// The trace id carried by every span about `user` (never 0).
    #[inline]
    #[must_use]
    pub fn trace_for(&self, user: u64) -> TraceId {
        TraceId(trace_hash(self.config.seed, user).max(1))
    }

    /// A fresh, process-unique span id.
    #[inline]
    #[must_use]
    pub fn next_span_id(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    /// A fresh batch/wave sequence number (links member-job spans to
    /// their batch-level span).
    #[inline]
    #[must_use]
    pub fn next_batch_id(&self) -> u64 {
        self.next_batch.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds of `at` on the tracer clock (0 for instants before the
    /// tracer was created).
    #[inline]
    #[must_use]
    pub fn clock_ns(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
    }

    /// Nanoseconds of "now" on the tracer clock.
    #[inline]
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.clock_ns(Instant::now())
    }

    /// Records one span into the lane of `span.worker`. Past the lane
    /// bound the span is dropped and counted — tracing never blocks or
    /// grows unboundedly.
    pub fn record(&self, span: Span) {
        if !self.enabled() {
            return;
        }
        let lane = &self.lanes[span.worker as usize % LANES];
        let mut lane = lane.lock_recover();
        if lane.spans.len() >= self.config.lane_capacity {
            drop(lane);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        lane.spans.push(span);
    }

    /// Spans dropped by the lane bounds since creation.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Spans currently buffered across all lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.lock_recover().spans.len())
            .sum()
    }

    /// Whether no spans are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties every lane, returning the buffered spans sorted by start
    /// time (then span id, for a stable order).
    #[must_use]
    pub fn drain(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .lanes
            .iter()
            .flat_map(|l| std::mem::take(&mut l.lock_recover().spans))
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.span.0));
        spans
    }
}

/// Linear-interpolated percentile of an already-sorted slice (0.0 when
/// empty).
fn percentile_us(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = target.floor() as usize;
    let hi = target.ceil() as usize;
    let frac = target - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// One stage's latency summary in a [`TailReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageTail {
    /// The stage name ([`Stage::name`]).
    pub stage: String,
    /// Spans observed for this stage.
    pub count: u64,
    /// Mean duration, microseconds.
    pub mean_us: f64,
    /// Median duration, microseconds.
    pub p50_us: f64,
    /// 90th-percentile duration, microseconds.
    pub p90_us: f64,
    /// 99th-percentile duration, microseconds.
    pub p99_us: f64,
    /// This stage's share of total end-to-end request time (0.0 for
    /// stages that are not request children, e.g. batch-level spans).
    pub share_of_request_time: f64,
    /// This stage's share of end-to-end time *within the slowest
    /// percentile of requests* — where the tail actually goes.
    pub share_of_tail_time: f64,
}

/// The sampled-trace latency attribution: end-to-end percentiles
/// decomposed by stage, and queue-vs-service share for the slowest
/// percentile.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TailReport {
    /// Whether instrumentation was compiled in.
    pub enabled: bool,
    /// Sampling denominator in force (one user in `sample_every`).
    pub sample_every: u64,
    /// Sampled end-to-end request spans the report is built from.
    pub sampled_requests: u64,
    /// All spans considered (including batch/wave/cache spans).
    pub spans: u64,
    /// Spans dropped by the bounded trace buffers (0 = report complete).
    pub spans_dropped: u64,
    /// End-to-end request latency, microseconds.
    pub e2e_p50_us: f64,
    /// End-to-end 90th percentile, microseconds.
    pub e2e_p90_us: f64,
    /// End-to-end 99th percentile, microseconds.
    pub e2e_p99_us: f64,
    /// Slowest sampled request, microseconds.
    pub e2e_max_us: f64,
    /// The end-to-end cut defining the tail set (the p99, so the tail is
    /// the slowest ~1% of sampled requests).
    pub tail_threshold_us: f64,
    /// Requests in the tail set.
    pub tail_requests: u64,
    /// Fraction of tail requests' end-to-end time spent *queued*
    /// (queue wait + coalesce hold).
    pub tail_queue_share: f64,
    /// Fraction of tail requests' end-to-end time spent *in service*
    /// (assembly + forward + write-back + reply).
    pub tail_service_share: f64,
    /// Per-stage summaries, lifecycle-ordered, only stages that occurred.
    pub stages: Vec<StageTail>,
}

impl TailReport {
    /// An all-zero report (no spans, or instrumentation compiled out).
    #[must_use]
    pub fn empty(sample_every: u64) -> Self {
        Self {
            enabled: crate::is_enabled(),
            sample_every,
            sampled_requests: 0,
            spans: 0,
            spans_dropped: 0,
            e2e_p50_us: 0.0,
            e2e_p90_us: 0.0,
            e2e_p99_us: 0.0,
            e2e_max_us: 0.0,
            tail_threshold_us: 0.0,
            tail_requests: 0,
            tail_queue_share: 0.0,
            tail_service_share: 0.0,
            stages: Vec::new(),
        }
    }

    /// The summary for `stage`, if it occurred.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> Option<&StageTail> {
        self.stages.iter().find(|s| s.stage == stage.name())
    }
}

/// Builds the [`TailReport`] from drained spans. `sample_every` and
/// `dropped` come from the tracer that recorded them
/// ([`Tracer::config`] / [`Tracer::dropped`]).
#[must_use]
pub fn tail_report(spans: &[Span], sample_every: u64, dropped: u64) -> TailReport {
    let mut report = TailReport::empty(sample_every);
    report.spans = spans.len() as u64;
    report.spans_dropped = dropped;
    if spans.is_empty() {
        return report;
    }

    // Index request roots and their child stage spans.
    let requests: Vec<&Span> = spans.iter().filter(|s| s.stage == Stage::Request).collect();
    let mut children: std::collections::HashMap<u64, Vec<&Span>> = std::collections::HashMap::new();
    for span in spans.iter().filter(|s| s.parent != SpanId::NONE) {
        children.entry(span.parent.0).or_default().push(span);
    }

    let mut e2e_us: Vec<f64> = requests
        .iter()
        .map(|r| r.duration_ns() as f64 / 1_000.0)
        .collect();
    e2e_us.sort_by(f64::total_cmp);
    report.sampled_requests = requests.len() as u64;
    report.e2e_p50_us = percentile_us(&e2e_us, 0.50);
    report.e2e_p90_us = percentile_us(&e2e_us, 0.90);
    report.e2e_p99_us = percentile_us(&e2e_us, 0.99);
    report.e2e_max_us = e2e_us.last().copied().unwrap_or(0.0);
    report.tail_threshold_us = report.e2e_p99_us;

    // Tail attribution: among the slowest percentile, how much of the
    // end-to-end time was spent queued vs in service?
    let mut tail_e2e_ns = 0u64;
    let mut tail_queue_ns = 0u64;
    let mut tail_service_ns = 0u64;
    let mut total_request_ns = 0u64;
    let mut stage_total_ns: std::collections::HashMap<Stage, u64> =
        std::collections::HashMap::new();
    let mut stage_tail_ns: std::collections::HashMap<Stage, u64> = std::collections::HashMap::new();
    for request in &requests {
        let e2e = request.duration_ns();
        total_request_ns += e2e;
        let in_tail = e2e as f64 / 1_000.0 >= report.tail_threshold_us;
        if in_tail {
            report.tail_requests += 1;
            tail_e2e_ns += e2e;
        }
        for child in children.get(&request.span.0).into_iter().flatten() {
            let d = child.duration_ns();
            *stage_total_ns.entry(child.stage).or_default() += d;
            if in_tail {
                *stage_tail_ns.entry(child.stage).or_default() += d;
                if child.stage.is_queue_time() {
                    tail_queue_ns += d;
                } else {
                    tail_service_ns += d;
                }
            }
        }
    }
    if tail_e2e_ns > 0 {
        report.tail_queue_share = tail_queue_ns as f64 / tail_e2e_ns as f64;
        report.tail_service_share = tail_service_ns as f64 / tail_e2e_ns as f64;
    }

    // Per-stage percentiles over every span of that stage.
    for stage in Stage::ALL {
        let mut durs_us: Vec<f64> = spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.duration_ns() as f64 / 1_000.0)
            .collect();
        if durs_us.is_empty() {
            continue;
        }
        durs_us.sort_by(f64::total_cmp);
        let sum: f64 = durs_us.iter().sum();
        report.stages.push(StageTail {
            stage: stage.name().to_string(),
            count: durs_us.len() as u64,
            mean_us: sum / durs_us.len() as f64,
            p50_us: percentile_us(&durs_us, 0.50),
            p90_us: percentile_us(&durs_us, 0.90),
            p99_us: percentile_us(&durs_us, 0.99),
            share_of_request_time: if total_request_ns > 0 {
                stage_total_ns.get(&stage).copied().unwrap_or(0) as f64 / total_request_ns as f64
            } else {
                0.0
            },
            share_of_tail_time: if tail_e2e_ns > 0 {
                stage_tail_ns.get(&stage).copied().unwrap_or(0) as f64 / tail_e2e_ns as f64
            } else {
                0.0
            },
        });
    }
    report
}

/// A [`crate::Stopwatch`]-style helper pairing an interval with the tracer
/// clock: start it, then close it into a [`Span`].
#[derive(Debug, Clone, Copy)]
pub struct SpanBuilder {
    started: Instant,
}

impl SpanBuilder {
    /// Reads the clock.
    #[must_use]
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Closes the interval now and records it on `tracer` with the given
    /// identity fields.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        self,
        tracer: &Tracer,
        trace: TraceId,
        parent: SpanId,
        stage: Stage,
        worker: u32,
        user: u64,
        batch: u64,
    ) -> SpanId {
        let span = tracer.next_span_id();
        tracer.record(Span {
            trace,
            span,
            parent,
            stage,
            worker,
            user,
            batch,
            start_ns: tracer.clock_ns(self.started),
            end_ns: tracer.now_ns(),
        });
        span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, stage: Stage, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: TraceId(trace),
            span: SpanId(id),
            parent: SpanId(parent),
            stage,
            worker: 0,
            user: trace,
            batch: 1,
            start_ns,
            end_ns,
        }
    }

    /// One request span tiled by its stages: queue q, hold h, assembly a,
    /// forward f, reply r, starting at `t0`.
    #[allow(clippy::too_many_arguments)]
    fn request_tree(
        base_id: u64,
        trace: u64,
        t0: u64,
        q: u64,
        h: u64,
        a: u64,
        f: u64,
        r: u64,
    ) -> Vec<Span> {
        let total = q + h + a + f + r;
        let mut spans = vec![span(trace, base_id, 0, Stage::Request, t0, t0 + total)];
        let mut at = t0;
        for (stage, d) in [
            (Stage::QueueWait, q),
            (Stage::CoalesceHold, h),
            (Stage::BatchAssembly, a),
            (Stage::ForwardPass, f),
            (Stage::Reply, r),
        ] {
            spans.push(span(
                trace,
                base_id + 1 + spans.len() as u64,
                base_id,
                stage,
                at,
                at + d,
            ));
            at += d;
        }
        spans
    }

    #[test]
    fn sampling_is_deterministic_and_seed_sensitive() {
        let a = Tracer::new(TracerConfig {
            sample_every: 8,
            seed: 42,
            lane_capacity: 16,
        });
        let b = Tracer::new(TracerConfig {
            sample_every: 8,
            seed: 42,
            lane_capacity: 16,
        });
        let c = Tracer::new(TracerConfig {
            sample_every: 8,
            seed: 43,
            lane_capacity: 16,
        });
        let sampled_a: Vec<u64> = (0..10_000).filter(|&u| a.sampled(u)).collect();
        let sampled_b: Vec<u64> = (0..10_000).filter(|&u| b.sampled(u)).collect();
        let sampled_c: Vec<u64> = (0..10_000).filter(|&u| c.sampled(u)).collect();
        assert_eq!(sampled_a, sampled_b, "same seed must sample the same users");
        assert_ne!(
            sampled_a, sampled_c,
            "different seed must sample differently"
        );
        // ~1/8 of users, within loose binomial bounds.
        assert!(
            (900..=1_600).contains(&sampled_a.len()),
            "sampled {} of 10000 at 1/8",
            sampled_a.len()
        );
        // Trace ids are stable and nonzero.
        for &u in sampled_a.iter().take(10) {
            assert_eq!(a.trace_for(u), b.trace_for(u));
            assert_ne!(a.trace_for(u).0, 0);
        }
    }

    #[test]
    fn sample_every_edge_cases() {
        let all = Tracer::new(TracerConfig {
            sample_every: 1,
            ..TracerConfig::default()
        });
        assert!((0..100).all(|u| all.sampled(u)), "1 = sample every user");
        let off = Tracer::new(TracerConfig {
            sample_every: 0,
            ..TracerConfig::default()
        });
        assert!(!off.enabled(), "0 = runtime off");
        assert!((0..100).all(|u| !off.sampled(u)));
        off.record(span(1, 1, 0, Stage::Request, 0, 10));
        assert!(off.is_empty(), "disabled tracer must not buffer");
    }

    #[test]
    fn env_values_parse_and_unset_ones_keep_the_defaults() {
        let unset = TracerConfig::from_vars(None, None);
        assert_eq!((unset.sample_every, unset.seed), (64, 17));
        let set = TracerConfig::from_vars(Some("0"), Some("23"));
        assert_eq!((set.sample_every, set.seed), (0, 23));
        assert_eq!(set.lane_capacity, TracerConfig::default().lane_capacity);
    }

    #[test]
    #[should_panic(expected = "PP_TRACE_SAMPLE=\"6d\" is not a valid value")]
    fn an_unparsable_sample_rate_panics_naming_it() {
        let _ = TracerConfig::from_vars(Some("6d"), None);
    }

    #[test]
    #[should_panic(expected = "PP_TRACE_SEED=\"-1\" is not a valid value")]
    fn an_unparsable_seed_panics_naming_it() {
        let _ = TracerConfig::from_vars(None, Some("-1"));
    }

    #[test]
    fn lanes_are_bounded_and_drops_are_counted() {
        let tracer = Tracer::new(TracerConfig {
            sample_every: 1,
            seed: 0,
            lane_capacity: 4,
        });
        for i in 0..10 {
            // Same worker → same lane.
            tracer.record(span(1, i + 1, 0, Stage::Request, i * 10, i * 10 + 5));
        }
        assert_eq!(tracer.len(), 4);
        assert_eq!(tracer.dropped(), 6);
        let drained = tracer.drain();
        assert_eq!(drained.len(), 4);
        assert!(tracer.is_empty());
        assert!(
            drained.windows(2).all(|w| w[0].start_ns <= w[1].start_ns),
            "drain must be start-time sorted"
        );
    }

    #[test]
    fn tail_report_attributes_the_slow_request_to_its_queue_time() {
        // 99 fast requests dominated by service time, one slow request
        // dominated by queue wait: the tail must attribute to the queue.
        let mut spans = Vec::new();
        let mut id = 1u64;
        for i in 0..99u64 {
            spans.extend(request_tree(
                id,
                1_000 + i,
                i * 100_000,
                100,
                0,
                300,
                500,
                100,
            ));
            id += 10;
        }
        spans.extend(request_tree(
            id,
            5_000,
            99 * 100_000,
            90_000,
            5_000,
            300,
            500,
            100,
        ));
        let report = tail_report(&spans, 64, 0);
        assert_eq!(report.sampled_requests, 100);
        assert_eq!(report.spans_dropped, 0);
        // Fast requests are 1 µs end-to-end; the slow one is 95.9 µs.
        assert!(report.e2e_p50_us < 2.0, "p50 {}", report.e2e_p50_us);
        assert!(report.e2e_max_us > 90.0);
        assert!(report.e2e_p99_us > report.e2e_p50_us);
        assert!(report.tail_requests >= 1);
        // The tail request spent 95000/95900 of its time queued.
        assert!(
            report.tail_queue_share > 0.9,
            "tail queue share {}",
            report.tail_queue_share
        );
        let shares_sum = report.tail_queue_share + report.tail_service_share;
        assert!(
            (shares_sum - 1.0).abs() < 1e-9,
            "shares sum to 1, got {shares_sum}"
        );
        // Stage decomposition: per-stage shares of request time sum to 1
        // (the stage spans tile each request exactly).
        let request_children_share: f64 = report
            .stages
            .iter()
            .filter(|s| s.stage != "request")
            .map(|s| s.share_of_request_time)
            .sum();
        assert!(
            (request_children_share - 1.0).abs() < 1e-9,
            "stage shares sum to {request_children_share}"
        );
        let forward = report.stage(Stage::ForwardPass).expect("forward stage");
        assert_eq!(forward.count, 100);
        assert!((forward.p50_us - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tail_report_of_nothing_is_empty_and_serializes() {
        let report = tail_report(&[], 64, 0);
        assert_eq!(report.sampled_requests, 0);
        assert_eq!(report.e2e_p99_us, 0.0);
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(json.contains("\"sample_every\":64"));
        // Spans without request roots (e.g. only wave spans) still report
        // per-stage stats.
        let wave_only = vec![span(1, 1, 0, Stage::WaveAdmission, 0, 2_000)];
        let report = tail_report(&wave_only, 32, 1);
        assert_eq!(report.sampled_requests, 0);
        assert_eq!(report.spans_dropped, 1);
        let wave = report.stage(Stage::WaveAdmission).expect("wave stage");
        assert_eq!(wave.count, 1);
        assert!((wave.p50_us - 2.0).abs() < 1e-9);
    }

    #[test]
    fn span_builder_records_on_the_tracer_clock() {
        let tracer = Tracer::new(TracerConfig {
            sample_every: 1,
            ..TracerConfig::default()
        });
        let builder = SpanBuilder::start();
        std::hint::black_box(0);
        let id = builder.finish(
            &tracer,
            tracer.trace_for(7),
            SpanId::NONE,
            Stage::CacheInsert,
            Span::WAVE_WORKER,
            7,
            3,
        );
        assert_ne!(id, SpanId::NONE);
        let spans = tracer.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, Stage::CacheInsert);
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert_eq!(spans[0].batch, 3);
    }
}
