//! The four workloads and what they share: the fixed engine shape, the
//! measured phase, reply harvesting that cannot hang, and the correctness
//! gate every serving workload passes before anything is timed.

pub mod precompute_loop;
pub mod predict_open;
pub mod predict_wave;
pub mod session_mix;

use crate::host;
use crate::inputs;
use crate::rng::SplitMix64;
use crate::spans::SpanLog;
use crate::stats::LatencyHistogram;
use pp_data::schema::{DatasetKind, UserId};
use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
use pp_serving::{
    BatchServingEngine, EngineStats, PredictRequest, Prediction, ShardedStateStore, StoreStats,
    UpdateRequest, WorkerStats,
};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine shape under test. Fixed constants, not derived from the host's
/// core count, so numbers compare across hosts.
pub const WORKERS: usize = 2;
/// State-store shards (and engine queues).
pub const SHARDS: usize = 16;
/// Largest batch a worker assembles.
pub const MAX_BATCH: usize = 64;
/// A reply later than this is a failed op.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Untimed lead-in before the measured phase.
pub const WARM_UP_SECS: f64 = 2.0;
/// Ops the correctness gate replays.
pub const GATE_OPS: usize = 4_096;
/// Largest deviation from the single-threaded reference that still counts
/// as the same answer (the repo's batched ≡ single invariant).
pub const TOLERANCE: f64 = 1e-6;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in the README glossary.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered list of measurements.
#[derive(Debug, Default)]
pub struct Ledger(pub Vec<Metric>);

impl Ledger {
    /// Appends one line.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Outcome of a correctness gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gate {
    /// Ops replayed.
    pub attempted: u64,
    /// Ops whose reply was missing, late or wrong, plus stored states that
    /// differ from the reference.
    pub failed: u64,
}

/// What a workload exposes to the harness.
pub trait Workload {
    /// The model, store and engine under test.
    fn serving(&self) -> &Serving;
    /// The workload's constants, printed with every result.
    fn constants(&self) -> String;
    /// Replays the first ops against the single-threaded reference.
    fn gate(&mut self) -> Gate;
    /// Whether the untimed lead-in has run long enough.
    fn warmed(&self, elapsed_secs: f64) -> bool {
        elapsed_secs >= WARM_UP_SECS
    }
    /// Clears whatever the workload accumulates per phase.
    fn begin_phase(&mut self) {}
    /// One closed-loop round, wave, or open-loop tick.
    fn step(&mut self, phase: &mut Phase);
    /// Collects what is still in flight when the time box ends.
    fn drain(&mut self, _phase: &mut Phase) {}
    /// Lines only this workload produces.
    fn extras(&self, _result: &PhaseResult, _ledger: &mut Ledger) {}
    /// A run-level check beyond per-op failures (e.g. the precision floor).
    fn verdict(&self) -> Result<(), String> {
        Ok(())
    }
}

/// The accumulators of one timed (or warm-up) phase.
#[derive(Debug)]
pub struct Phase {
    started: Instant,
    /// The benchmark's own spans (off in untraced runs).
    pub spans: SpanLog,
    latency: LatencyHistogram,
    succeeded: u64,
    failed: u64,
    slices: Vec<Slice>,
    /// The slice in progress: its latencies, its ops, and the process CPU
    /// time when it began.
    slice_latency: LatencyHistogram,
    slice_ops: u64,
    slice_cpu_mark_ns: u64,
    /// Set once a reply timed out: the engine has lost a worker, so the
    /// rest of the run only collects what is already there.
    pub aborted: bool,
}

impl Phase {
    fn new(spans: SpanLog, cpu_now_ns: u64) -> Self {
        Self {
            started: Instant::now(),
            spans,
            latency: LatencyHistogram::default(),
            succeeded: 0,
            failed: 0,
            slices: Vec::new(),
            slice_latency: LatencyHistogram::default(),
            slice_ops: 0,
            slice_cpu_mark_ns: cpu_now_ns,
            aborted: false,
        }
    }

    /// Closes the slice in progress and opens the next.
    fn close_slice(&mut self) {
        let cpu_now_ns = host::process_cpu_ns();
        self.slices.push(Slice {
            ops: self.slice_ops,
            cpu_ns: cpu_now_ns.saturating_sub(self.slice_cpu_mark_ns),
            latency_p50_ns: self.slice_latency.quantile_ns(0.5),
        });
        self.slice_latency.clear();
        self.slice_ops = 0;
        self.slice_cpu_mark_ns = cpu_now_ns;
    }

    /// Nanoseconds since the phase began.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// `n` ops completed correctly at `now_ns`, each `latency_ns` after it
    /// was submitted (or due).
    pub fn succeed(&mut self, now_ns: u64, latency_ns: u64, n: u64) {
        while (self.slices.len() as u64) < now_ns / SLICE_NS {
            self.close_slice();
        }
        self.latency.record_n(latency_ns, n);
        self.slice_latency.record_n(latency_ns, n);
        self.succeeded += n;
        self.slice_ops += n;
    }

    /// `n` ops failed: no reply, a late reply, or a wrong one.
    pub fn fail(&mut self, n: u64) {
        self.failed += n;
    }
}

/// Width of a [`Slice`]. Short enough that a quiet stretch between two
/// bursts of host interference fills whole slices, long enough to hold
/// dozens of waves and thousands of ops.
pub const SLICE_NS: u64 = 250_000_000;

/// One full quarter second of a phase. Host interference lands in some
/// slices and spares others; the end-to-end metrics read the spared ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Ops completed correctly in this slice.
    pub ops: u64,
    /// Process CPU time spent in it.
    pub cpu_ns: u64,
    /// Median latency of those ops (0 when there were none).
    pub latency_p50_ns: f64,
}

/// What one phase measured.
#[derive(Debug)]
pub struct PhaseResult {
    /// Wall time from first submit to last harvest.
    pub wall_secs: f64,
    /// Process CPU time over the same span.
    pub cpu_ns: u64,
    /// Ops that completed correctly.
    pub succeeded: u64,
    /// Ops that did not.
    pub failed: u64,
    /// Per-op latency.
    pub latency: LatencyHistogram,
    /// The full slices (the one cut short by the time box is left out).
    pub slices: Vec<Slice>,
    /// The benchmark's own spans.
    pub spans: SpanLog,
    /// Engine counters over the phase (`largest_batch` is since start).
    pub engine: EngineStats,
    /// Per-worker counters over the phase.
    pub workers: Vec<WorkerStats>,
    /// Store counters over the phase.
    pub store: StoreStats,
}

impl PhaseResult {
    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.succeeded + self.failed
    }
}

/// Runs `workload` until `done(elapsed seconds)` and returns what it
/// measured. The load generator is the calling thread and nothing else.
pub fn run_phase(
    workload: &mut dyn Workload,
    spans: SpanLog,
    mut done: impl FnMut(&dyn Workload, f64) -> bool,
) -> PhaseResult {
    workload.begin_phase();
    let engine_before = workload.serving().engine.stats();
    let workers_before = workload.serving().engine.worker_stats();
    let store_before = workload.serving().store.stats();
    let cpu_before_ns = host::process_cpu_ns();
    let mut phase = Phase::new(spans, cpu_before_ns);
    while !phase.aborted && !done(workload, phase.started.elapsed().as_secs_f64()) {
        workload.step(&mut phase);
    }
    workload.drain(&mut phase);
    let wall_secs = phase.started.elapsed().as_secs_f64();
    let cpu_ns = host::process_cpu_ns().saturating_sub(cpu_before_ns);

    let engine_after = workload.serving().engine.stats();
    let store_after = workload.serving().store.stats();
    let workers = workload
        .serving()
        .engine
        .worker_stats()
        .iter()
        .zip(&workers_before)
        .map(|(after, before)| WorkerStats {
            worker: after.worker,
            batches: after.batches - before.batches,
            predictions: after.predictions - before.predictions,
            updates: after.updates - before.updates,
            steals: after.steals - before.steals,
            idle_ns: after.idle_ns - before.idle_ns,
        })
        .collect();
    PhaseResult {
        wall_secs,
        cpu_ns,
        succeeded: phase.succeeded,
        failed: phase.failed,
        latency: phase.latency,
        slices: phase.slices,
        spans: phase.spans,
        engine: EngineStats {
            predictions: engine_after.predictions - engine_before.predictions,
            updates: engine_after.updates - engine_before.updates,
            batches: engine_after.batches - engine_before.batches,
            largest_batch: engine_after.largest_batch,
        },
        workers,
        store: StoreStats {
            reads: store_after.reads - store_before.reads,
            writes: store_after.writes - store_before.writes,
            hits: store_after.hits - store_before.hits,
            bytes_read: store_after.bytes_read - store_before.bytes_read,
            bytes_written: store_after.bytes_written - store_before.bytes_written,
            evictions: store_after.evictions - store_before.evictions,
        },
    }
}

/// A freshly initialised MobileTab GRU of the given hidden size.
pub fn build_model(hidden: usize, seed: u64) -> RnnModel {
    RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig {
            hidden_dim: hidden,
            mlp_width: hidden,
            ..RnnModelConfig::default()
        },
        seed,
    )
}

/// Gives users `0..users` a stored hidden state: one update step each from
/// the zero state on generated input, computed in batches.
pub fn warm_store(model: &RnnModel, store: &ShardedStateStore, rng: &mut SplitMix64, users: u64) {
    let zero = model.initial_state();
    let mut first = 0u64;
    while first < users {
        let last = (first + MAX_BATCH as u64).min(users);
        let inputs: Vec<Vec<f32>> = (first..last)
            .map(|user| {
                let r = inputs::warm_update(rng, user);
                model
                    .featurizer()
                    .update_input(r.timestamp, &r.context, r.delta_t_secs, r.accessed)
            })
            .collect();
        let states = vec![zero.as_slice(); inputs.len()];
        for (user, state) in (first..last).zip(model.advance_state_batch(&states, &inputs)) {
            store.put_state(UserId(user), &state);
        }
        first = last;
    }
}

/// Waits for one reply. The first reply that does not arrive within
/// [`REPLY_TIMEOUT`] marks the phase aborted; after that, replies that are
/// not already there are not waited for, so a dead worker costs one
/// timeout, not one per outstanding op.
pub fn harvest<T>(receiver: &Receiver<T>, phase: &mut Phase) -> Option<T> {
    let patience = if phase.aborted {
        Duration::ZERO
    } else {
        REPLY_TIMEOUT
    };
    let reply = receiver.recv_timeout(patience).ok();
    if reply.is_none() {
        phase.aborted = true;
    }
    reply
}

/// Whether a reply is a probability for the user that asked.
pub fn plausible(request: &PredictRequest, reply: &Prediction) -> bool {
    reply.user_id == request.user_id && (0.0..=1.0).contains(&reply.probability)
}

/// One gate round: updates submitted first, then predictions, in one pass.
pub type GateRound = (Vec<UpdateRequest>, Vec<PredictRequest>);

/// The system under test, as every workload holds it.
#[derive(Debug)]
pub struct Serving {
    /// The model being served.
    pub model: Arc<RnnModel>,
    /// The hidden-state store behind the engine.
    pub store: Arc<ShardedStateStore>,
    /// The engine, in its fixed shape.
    pub engine: BatchServingEngine,
}

impl Serving {
    /// Starts the engine under test over `model` and `store`.
    pub fn start(
        model: Arc<RnnModel>,
        store: Arc<ShardedStateStore>,
        coalesce: Option<Duration>,
    ) -> Self {
        let engine = BatchServingEngine::start_with_coalesce(
            model.clone(),
            store.clone(),
            WORKERS,
            MAX_BATCH,
            coalesce,
        );
        Self {
            model,
            store,
            engine,
        }
    }

    /// The correctness gate of the serving workloads: replays `rounds` through
    /// the engine and, op by op, through `RnnModel::predict_proba` /
    /// `advance_state` over `reference` — a second store of the same shape,
    /// contents and eviction policy. Every probability and every final stored
    /// state of a touched user must agree within [`TOLERANCE`].
    pub fn gate(&self, reference: &ShardedStateStore, rounds: &[GateRound]) -> Gate {
        let Self {
            model,
            store,
            engine,
        } = self;
        let mut gate = Gate::default();
        let mut touched = std::collections::BTreeSet::new();
        let state_of = |s: &ShardedStateStore, user| {
            s.get_state(user).unwrap_or_else(|| model.initial_state())
        };
        for (updates, predicts) in rounds {
            let update_replies = engine.submit_updates(updates);
            let predict_replies = engine.submit_many(predicts);
            for r in updates {
                let input = model.featurizer().update_input(
                    r.timestamp,
                    &r.context,
                    r.delta_t_secs,
                    r.accessed,
                );
                let next = model.advance_state(&state_of(reference, r.user_id), &input);
                reference.put_state(r.user_id, &next);
                touched.insert(r.user_id);
            }
            for reply in &update_replies {
                gate.attempted += 1;
                if reply.recv_timeout(REPLY_TIMEOUT).is_err() {
                    gate.failed += 1;
                }
            }
            for (r, reply) in predicts.iter().zip(&predict_replies) {
                let input =
                    model
                        .featurizer()
                        .predict_input(r.timestamp, &r.context, r.elapsed_secs);
                let want = model.predict_proba(&state_of(reference, r.user_id), &input);
                touched.insert(r.user_id);
                gate.attempted += 1;
                match reply.recv_timeout(REPLY_TIMEOUT) {
                    Ok(got)
                        if plausible(r, &got) && (got.probability - want).abs() <= TOLERANCE => {}
                    _ => gate.failed += 1,
                }
            }
        }
        // The engine is quiescent (every reply is in), so its store is final.
        for user in touched {
            let same = match (store.get_state(user), reference.get_state(user)) {
                (None, None) => true,
                (Some(got), Some(want)) => {
                    got.len() == want.len()
                        && got
                            .iter()
                            .zip(&want)
                            .all(|(a, b)| f64::from((a - b).abs()) <= TOLERANCE)
                }
                _ => false,
            };
            if !same {
                gate.failed += 1;
            }
        }
        gate.failed = gate.failed.min(gate.attempted);
        gate
    }
}
