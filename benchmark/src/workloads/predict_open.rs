//! `predict_open` — open loop at a fixed 50 000 requests per second.
//!
//! Independent session starts do not wait for each other, so arrivals
//! follow a seeded Poisson schedule regardless of how the engine keeps up.
//! Each tick sends everything that has come due in one `submit_many`,
//! harvests finished replies first-in first-out with `try_recv`, and naps
//! at most 50 µs when idle. Latency counts from the time a request was
//! *due*, so a stall charges the requests queued behind it. Batches are
//! small (≈ 10), which makes queue hand-off, wake-ups, the coalesce hold
//! and the reply channel — not the forward pass — the bulk of the cost:
//! a kernel-only change should not move this workload, an engine-protocol
//! change should move it first. H = 64, the store of `predict_wave`, and
//! the only user of `start_with_coalesce` (200 µs).

use super::predict_wave::{ring_store, RingAnswers, RING, USERS};
use super::{
    build_model, Gate, Ledger, Phase, PhaseResult, Serving, Workload, GATE_OPS, REPLY_TIMEOUT,
};
use crate::host;
use crate::inputs::{self, PoissonSchedule};
use crate::rng::SplitMix64;
use crate::stats::LatencyHistogram;
use pp_serving::{PredictRequest, Prediction};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

const HIDDEN: usize = 64;
/// Offered load.
pub const RATE_PER_SEC: f64 = 50_000.0;
const COALESCE: Duration = Duration::from_micros(200);
const IDLE_NAP: Duration = Duration::from_micros(50);
/// A request answered later than this after it was due misses the limit.
const SLO_NS: u64 = 2_000_000;
/// Requests in flight during set-up's one rehearsal burst: what a stall of
/// about 0.65 s leaves queued at [`RATE_PER_SEC`].
const BACKLOG_REHEARSAL: usize = 32_768;

/// A request in flight.
#[derive(Debug)]
struct Pending {
    slot: usize,
    due_ns: u64,
    reply: Receiver<Prediction>,
}

/// Puts the generator on the first CPU this process may use and every other
/// thread — the engine's workers — on the second.
///
/// At this rate the whole process needs about half a CPU, and the kernel
/// then settles, per process and for the process's lifetime, on one of two
/// placements: all three threads stacked on one CPU, or the generator alone
/// on one and the workers on the other. With the generator alone, each of
/// its ~8 000 naps a second idles and re-wakes a virtual CPU, and the same
/// work costs 13–14 µs of CPU per op instead of 9–10: ten identical runs
/// split 3 : 7 between the two and spread by 28 %. Fixing the placement
/// (to the one with head-room for a slow host) makes the runs agree to
/// about 5 %. The standard library cannot set affinity, so this shells out
/// to `taskset`; without it, or with one CPU, threads stay where the kernel
/// puts them and the constants line says so.
fn place_threads() -> String {
    let generator = std::process::id();
    // A parent `ppbench` (the traced run's untraced child) hands down its
    // own narrowed mask; widen it before asking what is allowed.
    if let Some(online) = host::online_cpu_list() {
        host::set_affinity(generator, &online);
    }
    let [generator_cpu, worker_cpu, ..] = host::allowed_cpus()[..] else {
        return "threads unpinned (fewer than two CPUs allowed)".to_string();
    };
    let pinned = host::thread_ids().into_iter().all(|tid| {
        let cpu = if tid == generator {
            generator_cpu
        } else {
            worker_cpu
        };
        host::set_affinity(tid, &cpu.to_string())
    });
    if pinned {
        format!("generator pinned to cpu {generator_cpu}, workers to cpu {worker_cpu}")
    } else {
        "threads unpinned (taskset unavailable)".to_string()
    }
}

/// See the module docs.
#[derive(Debug)]
pub struct PredictOpen {
    serving: Serving,
    /// The stream as it stood before the store was warmed.
    store_rng: SplitMix64,
    /// Where [`place_threads`] put the generator and the workers.
    placement: String,
    ring: Vec<PredictRequest>,
    answers: RingAnswers,
    cursor: usize,
    /// Arrival times of the current phase; re-seeded per phase from `arrivals_rng`.
    schedule: PoissonSchedule,
    arrivals_rng: SplitMix64,
    inflight: VecDeque<Pending>,
    due: Vec<PredictRequest>,
    due_times_ns: Vec<u64>,
    ticks: u64,
    // Per-phase generator diagnostics.
    lateness: LatencyHistogram,
    slo_misses: u64,
    max_inflight: usize,
    backlog_end: usize,
}

impl PredictOpen {
    /// Builds model, warmed store, request ring, schedule and engine.
    pub fn set_up(seed: u64) -> Self {
        let mut rng = SplitMix64::for_workload(seed, "predict_open");
        let model = Arc::new(build_model(HIDDEN, rng.next_u64()));
        let store_rng = rng.clone();
        let store = Arc::new(ring_store(&model, &mut rng));
        let ring = inputs::predict_ring(&mut rng, RING, USERS);
        let serving = Serving::start(model, store, Some(COALESCE));
        let placement = place_threads();
        // Rehearse the backlog of a long host stall once, untimed: every
        // request in flight holds a channel and a queue slot, so without
        // this `peak_rss_mb` would report the run's worst stall (it moved
        // 32 → 45 MB between quiet and disturbed runs) instead of the
        // footprint at a stated backlog. A lost reply shows up in the gate.
        for reply in serving.engine.submit_many(&ring[..BACKLOG_REHEARSAL]) {
            let _ = reply.recv_timeout(REPLY_TIMEOUT);
        }
        Self {
            serving,
            store_rng,
            placement,
            ring,
            answers: RingAnswers::new(RING),
            cursor: 0,
            schedule: PoissonSchedule::new(rng.clone(), RATE_PER_SEC),
            arrivals_rng: rng,
            inflight: VecDeque::new(),
            due: Vec::new(),
            due_times_ns: Vec::new(),
            ticks: 0,
            lateness: LatencyHistogram::default(),
            slo_misses: 0,
            max_inflight: 0,
            backlog_end: 0,
        }
    }

    /// Scores one reply that has arrived (or `None` for one that never will).
    fn settle(&mut self, pending: &Pending, reply: Option<Prediction>, phase: &mut Phase) {
        let now_ns = phase.now_ns();
        let latency_ns = now_ns.saturating_sub(pending.due_ns);
        let request = &self.ring[pending.slot];
        match reply {
            Some(got) if self.answers.accept(pending.slot, request, &got) => {
                phase.succeed(now_ns, latency_ns, 1);
                if latency_ns > SLO_NS {
                    self.slo_misses += 1;
                }
            }
            _ => {
                phase.fail(1);
                self.slo_misses += 1;
            }
        }
    }
}

impl Workload for PredictOpen {
    fn serving(&self) -> &Serving {
        &self.serving
    }

    fn constants(&self) -> String {
        format!(
            "open loop, Poisson {RATE_PER_SEC} req/s, H {HIDDEN}, {USERS} warmed users, unbounded store, \
             ring {RING}, coalesce {} us, idle nap {} us, latency limit {} us from due time, {}",
            COALESCE.as_micros(),
            IDLE_NAP.as_micros(),
            SLO_NS / 1_000,
            self.placement
        )
    }

    fn gate(&mut self) -> Gate {
        let reference = ring_store(&self.serving.model, &mut self.store_rng.clone());
        // Arrival-sized bursts rather than full waves: the batches the gate
        // checks are the small ones this workload produces.
        let rounds: Vec<_> = self.ring[..GATE_OPS]
            .chunks(16)
            .map(|burst| (Vec::new(), burst.to_vec()))
            .collect();
        self.serving.gate(&reference, &rounds)
    }

    fn begin_phase(&mut self) {
        // Every phase replays the same arrival process from its own zero.
        self.schedule = PoissonSchedule::new(self.arrivals_rng.clone(), RATE_PER_SEC);
        self.lateness = LatencyHistogram::default();
        self.slo_misses = 0;
        self.max_inflight = 0;
        self.backlog_end = 0;
    }

    fn step(&mut self, phase: &mut Phase) {
        self.ticks += 1;
        let tick = phase.spans.begin();
        let now_ns = phase.now_ns();

        // Send everything that has come due, in one enqueue pass.
        self.due.clear();
        self.due_times_ns.clear();
        let first_slot = self.cursor;
        while self.schedule.due_ns() <= now_ns {
            self.due_times_ns.push(self.schedule.due_ns());
            self.due.push(self.ring[self.cursor]);
            self.cursor = (self.cursor + 1) % RING;
            self.schedule.advance();
        }
        let sent = !self.due.is_empty();
        if sent {
            let submit = phase.spans.begin();
            let replies = self.serving.engine.submit_many(&self.due);
            phase
                .spans
                .end(submit, "client.submit", tick.id, self.ticks);
            let submitted_ns = phase.now_ns();
            for (i, (reply, &due_ns)) in replies.into_iter().zip(&self.due_times_ns).enumerate() {
                self.lateness
                    .record_n(submitted_ns.saturating_sub(due_ns), 1);
                self.inflight.push_back(Pending {
                    slot: (first_slot + i) % RING,
                    due_ns,
                    reply,
                });
            }
            self.max_inflight = self.max_inflight.max(self.inflight.len());
        }

        // Harvest what is ready, oldest first.
        let harvest = phase.spans.begin();
        let mut harvested = false;
        while let Some(oldest) = self.inflight.front() {
            match oldest.reply.try_recv() {
                Ok(got) => {
                    let pending = self.inflight.pop_front().expect("front exists");
                    self.settle(&pending, Some(got), phase);
                    harvested = true;
                }
                Err(TryRecvError::Empty) => {
                    let waited_ns = phase.now_ns().saturating_sub(oldest.due_ns);
                    if waited_ns <= REPLY_TIMEOUT.as_nanos() as u64 {
                        break;
                    }
                    phase.aborted = true;
                    break;
                }
                Err(TryRecvError::Disconnected) => {
                    let pending = self.inflight.pop_front().expect("front exists");
                    self.settle(&pending, None, phase);
                }
            }
        }
        if harvested {
            phase.spans.end(harvest, "client.wait", tick.id, self.ticks);
        }

        if sent || harvested {
            phase.spans.end(tick, "tick", 0, self.ticks);
        } else {
            let until_due_ns = self.schedule.due_ns().saturating_sub(phase.now_ns());
            std::thread::sleep(IDLE_NAP.min(Duration::from_nanos(until_due_ns)));
        }
    }

    fn drain(&mut self, phase: &mut Phase) {
        self.backlog_end = self.inflight.len();
        while let Some(pending) = self.inflight.pop_front() {
            let reply = super::harvest(&pending.reply, phase);
            self.settle(&pending, reply, phase);
        }
    }

    fn extras(&self, result: &PhaseResult, ledger: &mut Ledger) {
        ledger.push(
            "open.slo_miss_share",
            self.slo_misses as f64 / result.attempted().max(1) as f64,
            "ratio",
        );
        ledger.push(
            "open.gen_late_p50_us",
            self.lateness.quantile_ns(0.50) / 1e3,
            "us",
        );
        ledger.push(
            "open.gen_late_p99_us",
            self.lateness.quantile_ns(0.99) / 1e3,
            "us",
        );
        ledger.push("open.max_inflight", self.max_inflight as f64, "count");
        ledger.push("open.backlog_end", self.backlog_end as f64, "count");
    }
}
