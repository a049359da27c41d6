//! Batched request scheduling: coalesce concurrent session-start requests
//! into one GRU/MLP forward pass per batch.
//!
//! Serving a request alone ([`RnnModel::predict_proba`]) builds one autograd
//! graph per prediction — per-call overhead (graph nodes, allocations)
//! dominates the actual arithmetic at the paper's model sizes. At production
//! request rates many session starts are in flight at once, so the serving
//! engine can instead drain the arrival queue into batches and run **one
//! `B × d` GEMM per layer instead of `B` separate `1 × d` products**
//! ([`RnnModel::predict_proba_batch_into`] /
//! [`RnnModel::advance_state_batch_into`]).
//!
//! The batch core — [`predict_chunk`], [`update_chunk`] — assembles a batch
//! straight into a [`BatchScratch`] (features written as input entries,
//! then every stored state copied into its row by one store call, one shard
//! lock per same-shard run) and runs the fused forward pass over it,
//! allocating nothing once the scratch has seen a full batch. Every worker
//! owns one scratch; none is shared.
//!
//! Two layers are provided:
//!
//! * [`BatchScheduler`] — the synchronous core: one wave of predictions or
//!   updates served in batches against a [`ShardedStateStore`] on the
//!   caller's thread, deterministic and directly testable for
//!   batched-vs-single equivalence;
//! * [`BatchServingEngine`] — worker threads around the same logic: clients
//!   submit requests from any thread, workers drain the per-shard queues in
//!   batches of up to `max_batch`, reply over per-request channels. A
//!   worker runs one loop of passes: each reads the wake-up state once,
//!   gathers once, then serves, parks idle or waits in its coalesce hold.
//!   A submission wakes a worker only if that worker can do something with
//!   it: a worker holding a partial batch open is woken when the batch can
//!   fill, the idle workers when no open batch has room for the jobs, and
//!   every fact those wake-ups read sits under one mutex.
//!
//! Every fact of the engine's protocol is a field under a lock: a shard's
//! claim and its closed flag under that shard queue's mutex, the work
//! generation, the holders' rooms, the shutdown and the count of running
//! workers under the wake-up mutex. The one lock-free datum is each queue's
//! `len`, an emptiness hint that lets a gather skip idle shards unlocked.

use crate::sharded::ShardedStateStore;
use pp_data::schema::{Context, UserId};
use pp_obs::sync::LockPolicy;
use pp_rnn::{BatchScratch, RnnModel};
use serde::Serialize;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A session-start prediction request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PredictRequest {
    /// The user starting a session.
    pub user_id: UserId,
    /// Session-start timestamp (UNIX seconds).
    pub timestamp: i64,
    /// Context observed at session start.
    pub context: Context,
    /// Seconds since the user's last hidden-state update (0 for cold start).
    pub elapsed_secs: i64,
}

/// A session-close hidden-state update request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateRequest {
    /// The user whose session closed.
    pub user_id: UserId,
    /// Session-start timestamp (UNIX seconds).
    pub timestamp: i64,
    /// Context observed during the session.
    pub context: Context,
    /// Seconds between this session and the previous state update.
    pub delta_t_secs: i64,
    /// Whether the user accessed the activity during the session.
    pub accessed: bool,
}

/// A served prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The user the prediction is for.
    pub user_id: UserId,
    /// Predicted access probability.
    pub probability: f64,
}

/// Batching counters of a [`BatchScheduler`] or a [`BatchServingEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct EngineStats {
    /// Predictions served.
    pub predictions: u64,
    /// Hidden-state updates applied.
    pub updates: u64,
    /// Forward passes executed (batched or singleton).
    pub batches: u64,
    /// Largest batch coalesced into one forward pass.
    pub largest_batch: usize,
}

impl EngineStats {
    /// Mean requests per forward pass (1.0 when nothing ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            1.0
        } else {
            (self.predictions + self.updates) as f64 / self.batches as f64
        }
    }
}

/// Synchronous batching core: serves a wave of session-start requests, or
/// applies a wave of session-close updates, through batched forward passes
/// against a sharded state store.
#[derive(Debug)]
pub struct BatchScheduler<'a> {
    model: &'a RnnModel,
    store: &'a ShardedStateStore,
    max_batch: usize,
    stats: EngineStats,
    scratch: BatchScratch,
}

impl<'a> BatchScheduler<'a> {
    /// Creates a scheduler around a model and sharded store.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(model: &'a RnnModel, store: &'a ShardedStateStore, max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        Self {
            model,
            store,
            max_batch,
            stats: EngineStats::default(),
            scratch: BatchScratch::new(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Serves a whole wave of concurrent requests in batches of up to
    /// `max_batch`. Results are in request order.
    pub fn run(&mut self, requests: impl IntoIterator<Item = PredictRequest>) -> Vec<Prediction> {
        let requests: Vec<PredictRequest> = requests.into_iter().collect();
        let mut out = Vec::with_capacity(requests.len());
        for chunk in requests.chunks(self.max_batch) {
            predict_chunk(self.model, self.store, chunk, &mut self.scratch, None);
            let probabilities = self.scratch.probabilities().iter();
            out.extend(
                chunk
                    .iter()
                    .zip(probabilities)
                    .map(|(r, &probability)| Prediction {
                        user_id: r.user_id,
                        probability,
                    }),
            );
            self.stats.predictions += chunk.len() as u64;
            self.stats.batches += 1;
            self.stats.largest_batch = self.stats.largest_batch.max(chunk.len());
        }
        out
    }

    /// Applies session-close updates in batches of up to `max_batch`,
    /// advancing and re-storing each user's hidden state.
    ///
    /// Multiple updates for the *same* user are applied in order: a batch
    /// never contains the same user twice, so the second update reads the
    /// state the first one wrote.
    pub fn apply_updates(&mut self, requests: &[UpdateRequest]) {
        let mut remaining: VecDeque<&UpdateRequest> = requests.iter().collect();
        while !remaining.is_empty() {
            // Greedily take up to max_batch requests with distinct users;
            // same-user duplicates are deferred to a later round. Once the
            // chunk fills we stop scanning, so each round is O(chunk +
            // duplicates), not O(remaining).
            let mut chunk: Vec<&UpdateRequest> = Vec::new();
            let mut seen = HashSet::new();
            let mut deferred: Vec<&UpdateRequest> = Vec::new();
            while chunk.len() < self.max_batch {
                let Some(request) = remaining.pop_front() else {
                    break;
                };
                if seen.insert(request.user_id) {
                    chunk.push(request);
                } else {
                    deferred.push(request);
                }
            }
            // Deferred duplicates precede everything still in `remaining` in
            // the original sequence, so put them back at the front to keep
            // per-user ordering.
            for request in deferred.into_iter().rev() {
                remaining.push_front(request);
            }

            let chunk = chunk.iter().copied();
            update_chunk(
                self.model,
                self.store,
                chunk.clone(),
                &mut self.scratch,
                None,
            );
            write_back_chunk(self.store, chunk.clone(), &self.scratch, None);
            self.stats.updates += chunk.len() as u64;
            self.stats.batches += 1;
            self.stats.largest_batch = self.stats.largest_batch.max(chunk.len());
        }
    }
}

/// Stage boundaries of one traced batch execution, on the wall clock the
/// tracer translates to its own epoch. Initialized to the execution start
/// and advanced by [`predict_chunk`] / [`update_chunk`] /
/// [`write_back_chunk`] as stages complete, so untouched marks yield
/// zero-length (never negative) stage spans. Only the engine creates them;
/// every other caller passes `None`.
#[derive(Debug, Clone, Copy)]
pub struct BatchMarks {
    /// When the worker stopped gathering/coalescing and began executing.
    exec_start: std::time::Instant,
    /// State fetch + featurization done.
    assembly_done: std::time::Instant,
    /// Forward pass done.
    forward_done: std::time::Instant,
    /// Hidden-state write-back done (equals `forward_done` for predict
    /// batches, which write no state).
    writeback_done: std::time::Instant,
}

impl BatchMarks {
    fn start() -> Self {
        let now = std::time::Instant::now();
        Self {
            exec_start: now,
            assembly_done: now,
            forward_done: now,
            writeback_done: now,
        }
    }
}

/// Assembles one chunk of predictions into `scratch` — each request's
/// features written as input entries, then every stored state copied
/// straight into its batch row by one store call (a miss leaves the zeroed
/// row, which is `h_0`) — and runs the forward pass; the probabilities are
/// left in [`BatchScratch::probabilities`], in chunk order. With a
/// warmed-up `scratch` a chunk of any size, one row included, takes the
/// same fused pass and allocates nothing. Shared by the scheduler and the
/// threaded engine; callers account for batching statistics themselves.
/// `marks` (traced engine batches only) receives the stage boundaries for
/// span emission.
pub fn predict_chunk<'a>(
    model: &RnnModel,
    store: &ShardedStateStore,
    chunk: impl IntoIterator<Item = &'a PredictRequest, IntoIter: ExactSizeIterator + Clone>,
    scratch: &mut BatchScratch,
    mut marks: Option<&mut BatchMarks>,
) {
    let chunk = chunk.into_iter();
    let obs = crate::obs::ServingObs::global();
    obs.batch_size.record(chunk.len() as u64);
    let assembly = pp_obs::Stopwatch::start();
    scratch.begin(model.state_dim(), model.predict_input_dims());
    let inputs = scratch.inputs_mut();
    for r in chunk.clone() {
        model.featurizer().predict_input_into(
            r.timestamp,
            &r.context,
            r.elapsed_secs,
            |col, value| inputs.push(col, value),
        );
        inputs.end_row();
    }
    let users = chunk.map(|r| r.user_id);
    store.read_states_into(users, scratch.zeroed_states(), model.state_dim());
    assembly.record(&obs.batch_assembly_ns);
    if let Some(marks) = marks.as_mut() {
        marks.assembly_done = std::time::Instant::now();
    }
    let forward = pp_obs::Stopwatch::start();
    model.predict_proba_batch_into(scratch);
    forward.record(&obs.forward_pass_ns);
    if let Some(marks) = marks {
        let now = std::time::Instant::now();
        marks.forward_done = now;
        marks.writeback_done = now;
    }
}

/// One queued unit of work: serve a prediction or apply a state update.
///
/// Each reply is a one-slot channel that carries exactly one message, so a
/// worker's send never blocks and never allocates: the channel and its
/// slot were allocated on the caller's thread at submission.
#[derive(Debug)]
enum JobKind {
    Predict {
        request: PredictRequest,
        reply: mpsc::SyncSender<Prediction>,
    },
    Update {
        request: UpdateRequest,
        reply: mpsc::SyncSender<()>,
    },
}

impl JobKind {
    fn user_id(&self) -> UserId {
        match self {
            JobKind::Predict { request, .. } => request.user_id,
            JobKind::Update { request, .. } => request.user_id,
        }
    }
}

#[derive(Debug)]
struct Job {
    kind: JobKind,
    /// When the job entered the queue. The coalesce flush deadline is
    /// anchored here — at *arrival* — not at the instant a worker first
    /// observes the queue, so queue residence while workers are busy counts
    /// against the coalesce budget instead of being added on top of it.
    arrived: std::time::Instant,
    /// Whether this job's user is in the tracer's sampled subset
    /// (decided once, at submission — workers never re-hash).
    traced: bool,
    /// When a worker drained the job out of its shard queue (stamped in
    /// `drain_shard`, traced jobs only) — the queue-wait / coalesce-hold
    /// boundary in the job's span tree.
    claimed_at: Option<std::time::Instant>,
}

impl Job {
    fn new(kind: JobKind, arrived: std::time::Instant) -> Self {
        let tracer = pp_obs::Tracer::global();
        let traced = tracer.enabled() && tracer.sampled(kind.user_id().0);
        Self {
            kind,
            arrived,
            traced,
            claimed_at: None,
        }
    }
}

/// One shard's job queue. A user's jobs always land in the queue of the
/// shard their hidden state lives in, and the queue is drained FIFO by at
/// most one batch at a time (its `claimed` flag, under the queue's own
/// lock, is held from drain until the batch's state reads/writes complete)
/// — so per-user predict/update ordering survives both multi-worker
/// draining and work stealing without any global lock.
#[derive(Debug, Default)]
struct ShardQueue {
    jobs: Mutex<Queued>,
    /// Lock-free emptiness hint so gathering workers skip idle shards
    /// without taking the queue lock; [`BatchServingEngine::queued`] sums
    /// them. Stored under the lock after every change to the jobs.
    len: AtomicUsize,
}

/// What a shard queue's mutex guards.
#[derive(Debug, Default)]
struct Queued {
    jobs: VecDeque<Job>,
    /// Held by one batch from the drain that first took jobs out of this
    /// queue to the batch's state write-back (see [`Claims`]).
    claimed: bool,
    /// Set by the last worker out ([`WorkerExit`]): `enqueue` refuses jobs.
    closed: bool,
}

/// Every fact the engine's wake-ups depend on, under one mutex
/// ([`EngineShared::work_gen`]).
#[derive(Debug)]
struct Wake {
    /// Moved by every enqueue pass, every claim release and the shutdown.
    /// A worker reads it once per pass, before it gathers, and parks (idle
    /// or in a hold) only while it is unchanged: a move in between may have
    /// queued or released jobs the gather missed, so the worker starts
    /// another pass instead of parking.
    gen: u64,
    /// Per worker: rows its open batch can still take, less the jobs
    /// enqueued since it parked. Non-zero only while the worker is inside
    /// its hold's timed wait — set under the guard that wait takes and
    /// zeroed under the guard it returns — so a worker that is executing,
    /// idle or dead never looks as if it were absorbing arrivals.
    room: Vec<usize>,
    /// Set by the engine's drop, with a room charge that ends every hold.
    /// Read with the generation at the start of every pass, where a holder
    /// serves what it holds, and inside an idle park's re-check, where the
    /// worker exits.
    shutdown: bool,
    /// Worker threads still running, read with the generation at the start
    /// of every pass (see `gather`). The one that takes it to zero closes
    /// the engine (see [`WorkerExit`]).
    alive: usize,
}

impl Wake {
    /// Counts one enqueue pass of `arrived` jobs: moves the generation,
    /// charges every published room and wakes each holder whose room that
    /// uses up (`holds[w]` has one waiter at most: worker `w`). Returns
    /// whether some holder had room for all of them: they can join its
    /// batch, at its deadline at the latest.
    fn arrive(&mut self, arrived: usize, holds: &[Condvar]) -> bool {
        self.gen += 1;
        let mut absorbed = false;
        let rooms = self.room.iter_mut().zip(holds);
        for (room, hold) in rooms.filter(|(room, _)| **room > 0) {
            absorbed |= *room >= arrived;
            *room = room.saturating_sub(arrived);
            if *room == 0 {
                hold.notify_one();
            }
        }
        absorbed
    }
}

#[derive(Debug, Default)]
struct WorkerCounters {
    batches: AtomicU64,
    predictions: AtomicU64,
    updates: AtomicU64,
    steals: AtomicU64,
    idle_ns: AtomicU64,
    /// Returns from this worker's coalesce hold waits; summed by
    /// [`BatchServingEngine::hold_wakes`].
    hold_wakes: AtomicU64,
    /// Largest batch this worker served; [`BatchServingEngine::stats`]
    /// takes the max over workers.
    largest_batch: AtomicUsize,
    /// While the worker is inside `idle.wait`: the generation it waits to
    /// see move, plus one (0 = not parked). Written under `work_gen`, so a
    /// test holding that lock can tell a peer parked on the current
    /// generation from one that is about to scan again.
    #[cfg(test)]
    parked_on: AtomicU64,
}

/// Per-worker counters of a [`BatchServingEngine`]
/// ([`BatchServingEngine::worker_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct WorkerStats {
    /// Worker index (also the owner of shards `s` with
    /// `s % workers == worker`).
    pub worker: usize,
    /// Batches this worker served.
    pub batches: u64,
    /// Predictions this worker served.
    pub predictions: u64,
    /// State updates this worker applied.
    pub updates: u64,
    /// Batches that drained at least one job from a shard this worker does
    /// not own. Without a coalesce wait a batch steals only when the
    /// worker's own shards gave it nothing or while a peer has exited; a
    /// coalescing engine's gathers take every shard's jobs.
    pub steals: u64,
    /// Nanoseconds spent parked waiting for work.
    pub idle_ns: u64,
}

#[derive(Debug)]
struct EngineShared {
    model: Arc<RnnModel>,
    store: Arc<ShardedStateStore>,
    max_batch: usize,
    /// How long a worker holds a non-full batch open for more arrivals
    /// before serving it (`None` = serve whatever is queued immediately).
    coalesce_wait: Option<std::time::Duration>,
    /// One queue per state-store shard (`queues.len() == store.num_shards()`).
    queues: Vec<ShardQueue>,
    worker_counters: Vec<WorkerCounters>,
    /// The work generation, the holders' rooms, the shutdown flag and the
    /// running workers: the engine's one wake-up lock. Nothing else is
    /// acquired while it is held.
    work_gen: Mutex<Wake>,
    /// Where idle workers park. `notify_all` wakes them on every claim
    /// release and on every enqueue pass no holder absorbs (see `enqueue`).
    idle: Condvar,
    /// Where each worker waits out its coalesce hold, woken early only when
    /// the jobs enqueued since it parked could fill its batch.
    holds: Vec<Condvar>,
}

impl EngineShared {
    /// The state a fresh engine's workers share: every queue empty, every
    /// worker counted alive.
    fn new(
        model: Arc<RnnModel>,
        store: Arc<ShardedStateStore>,
        workers: usize,
        max_batch: usize,
        coalesce_wait: Option<std::time::Duration>,
    ) -> Self {
        let num_shards = store.num_shards();
        Self {
            model,
            store,
            max_batch,
            coalesce_wait,
            queues: (0..num_shards).map(|_| ShardQueue::default()).collect(),
            worker_counters: (0..workers).map(|_| WorkerCounters::default()).collect(),
            work_gen: Mutex::new(Wake {
                gen: 0,
                room: vec![0; workers],
                shutdown: false,
                alive: workers,
            }),
            idle: Condvar::new(),
            holds: (0..workers).map(|_| Condvar::new()).collect(),
        }
    }

    fn num_workers(&self) -> usize {
        self.holds.len()
    }

    /// Jobs queued across all shards: the sum of the queues' `len` hints.
    fn queued(&self) -> usize {
        self.queues
            .iter()
            .map(|q| q.len.load(Ordering::Acquire))
            .sum()
    }

    /// The worker that owns `user`'s home shard (and therefore serves the
    /// user's jobs unless a peer with no work of its own steals the shard
    /// while this worker is busy).
    #[cfg(test)]
    fn home_worker(&self, user: UserId) -> usize {
        self.store.shard_index(user) % self.num_workers()
    }

    /// Routes jobs to their home-shard queues, then wakes only the workers
    /// the jobs need ([`Wake::arrive`]): a worker holding a partial batch
    /// open is woken once the jobs enqueued since it parked could fill the
    /// batch, and otherwise sleeps on to its deadline. The work generation
    /// always moves, but the parked idle workers are woken (`notify_all`,
    /// so a busy peer cannot consume the only wake-up) only when no holder
    /// has room for the whole pass. Returns whether one had: then the jobs
    /// join its batch at its *earlier* deadline instead of opening a
    /// second hold with a later one. An engine started without a coalesce
    /// wait never has a holder, so every pass wakes its idle workers.
    ///
    /// Drains `jobs`, leaving its buffer for the caller's next pass.
    fn enqueue(&self, jobs: &mut Vec<Job>) -> bool {
        if jobs.is_empty() {
            return false;
        }
        let arrived = jobs.len();
        for job in jobs.drain(..) {
            let queue = &self.queues[self.store.shard_index(job.kind.user_id())];
            let mut q = queue.jobs.lock_or_panic("shard queue");
            // Set under the queue lock by the last worker's sweep: a job
            // queued here is either dropped by that sweep or refused now.
            if q.closed {
                continue;
            }
            q.jobs.push_back(job);
            queue.len.store(q.jobs.len(), Ordering::Release);
        }
        // Every job is queued before any room is read: a holder whose room
        // counts them either is still parked — its deadline's scan comes
        // later — or zeroed its room before this pass read it, and the pass
        // then wakes the idle workers as if nobody were holding. What a
        // holder absorbs but cannot take (another kind, a user already in
        // its update batch, a shard a peer has claimed) is announced when
        // its batch's claims drop, no later than the holder's deadline.
        let mut wake = self.work_gen.lock_or_panic("work generation");
        let absorbed = wake.arrive(arrived, &self.holds);
        drop(wake);
        if !absorbed {
            self.idle.notify_all();
        }
        absorbed
    }
}

/// A multi-threaded batched serving engine: `workers` threads drain
/// per-shard job queues in batches of up to `max_batch` and reply per
/// request.
///
/// Each worker **owns** the shards `s` of the engine's
/// [`ShardedStateStore`] with `s % workers == worker`, so a user's jobs
/// have a home worker; a shard claim held from drain to write-back
/// preserves per-user predict/update ordering without a global lock.
/// Without a coalesce wait a worker **steals** (claims a peer's shard
/// queue) only when its own shards gave its new batch nothing, so skewed
/// traffic still saturates every core while an owner with work of its own
/// is never locked out of its shards. A coalescing engine's gathers fill a
/// batch from every shard, since a batch they do not fill is held and the
/// hold's room counts every arrival; and while any worker has exited the
/// survivors drain its shards beside their own.
///
/// Who is woken by a submission: a worker holding a partial batch open
/// ([`start_with_coalesce`](Self::start_with_coalesce)) only once the jobs
/// submitted since it parked could fill that batch — until then it sleeps
/// to the batch's deadline and collects them there; the idle workers only
/// when no holding worker has room for the submission. Without a coalesce
/// wait nobody holds, and every submission wakes the idle workers.
///
/// With `max_batch = 1` every request is a batch of one through the same
/// fused pass: the unbatched baseline.
#[derive(Debug)]
pub struct BatchServingEngine {
    shared: Arc<EngineShared>,
    workers: Vec<JoinHandle<()>>,
}

impl BatchServingEngine {
    /// Starts `workers` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `max_batch` is zero.
    pub fn start(
        model: Arc<RnnModel>,
        store: Arc<ShardedStateStore>,
        workers: usize,
        max_batch: usize,
    ) -> Self {
        Self::start_with_coalesce(model, store, workers, max_batch, None)
    }

    /// Starts `workers` worker threads that hold a non-full batch open for
    /// up to `coalesce_wait` waiting for more arrivals — a max-wait
    /// deadline: under heavy traffic batches fill immediately, under a
    /// trickle the partial batch still flushes within the deadline instead
    /// of serving everything as singletons.
    ///
    /// No job is held more than `coalesce_wait` past its arrival plus the
    /// worker's wake latency: workers are spawned through
    /// [`pp_obs::sync::spawn_worker`] (named `pp-worker-{i}`), which takes
    /// the OS's timer slack off their timed waits.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `max_batch` is zero.
    pub fn start_with_coalesce(
        model: Arc<RnnModel>,
        store: Arc<ShardedStateStore>,
        workers: usize,
        max_batch: usize,
        coalesce_wait: Option<std::time::Duration>,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(max_batch > 0, "max_batch must be positive");
        let shared = Arc::new(EngineShared::new(
            model,
            store,
            workers,
            max_batch,
            coalesce_wait,
        ));
        let workers = (0..workers)
            .map(|worker| {
                let shared = shared.clone();
                pp_obs::sync::spawn_worker(format!("pp-worker-{worker}"), move || {
                    worker_loop(&shared, worker);
                })
            })
            .collect();
        Self { shared, workers }
    }

    /// Queues a wave of requests of one kind, every job stamped with the
    /// wave's one arrival time, so a coalesce deadline does not depend on
    /// which pass queued the job; `kind` wraps a request and its reply
    /// sender into the job to queue.
    ///
    /// The wave goes in passes of `max_batch × workers` jobs (one batch per
    /// worker), each one [`EngineShared::enqueue`] call: the workers start
    /// on the first pass while this thread builds the next, and a large
    /// wave never holds all its jobs in a buffer while the shard queues
    /// hold them too. A wave of at most one pass is one enqueue pass.
    fn submit_wave<R: Copy, T>(
        &self,
        requests: &[R],
        kind: impl Fn(R, mpsc::SyncSender<T>) -> JobKind,
    ) -> Vec<mpsc::Receiver<T>> {
        let arrived = std::time::Instant::now();
        let pass = self.shared.max_batch * self.shared.num_workers();
        let mut receivers = Vec::with_capacity(requests.len());
        let mut jobs = Vec::with_capacity(requests.len().min(pass));
        for requests in requests.chunks(pass) {
            jobs.extend(requests.iter().map(|&request| {
                let (reply, receiver) = mpsc::sync_channel(1);
                receivers.push(receiver);
                Job::new(kind(request, reply), arrived)
            }));
            self.shared.enqueue(&mut jobs);
        }
        receivers
    }

    /// Submits a request; the returned receiver yields the prediction once a
    /// worker has served its batch, and disconnects if the worker serving
    /// it died.
    pub fn submit(&self, request: PredictRequest) -> mpsc::Receiver<Prediction> {
        self.submit_many(&[request])
            .pop()
            .expect("one receiver per request")
    }

    /// Submits a burst of requests — the natural entry point for front-ends
    /// that already hold several concurrent session starts, and what lets
    /// workers coalesce full batches instead of draining a trickle. The
    /// burst shares one arrival stamp and is queued in passes of
    /// `max_batch × workers` requests, so a burst of at most that size is
    /// one enqueue pass. Receivers are in request order.
    pub fn submit_many(&self, requests: &[PredictRequest]) -> Vec<mpsc::Receiver<Prediction>> {
        self.submit_wave(requests, |request, reply| JobKind::Predict {
            request,
            reply,
        })
    }

    /// Submits a burst of session-close hidden-state updates, sharing one
    /// arrival stamp and queued in passes of `max_batch × workers` (one
    /// enqueue pass for a burst of at most that size); each returned
    /// receiver yields `()` once its state has been advanced and
    /// re-stored, and disconnects if the worker applying it died. Updates
    /// and predictions for the same user are applied in submission order
    /// (they share the user's home-shard queue, and the passes go in
    /// order).
    pub fn submit_updates(&self, requests: &[UpdateRequest]) -> Vec<mpsc::Receiver<()>> {
        self.submit_wave(requests, |request, reply| JobKind::Update {
            request,
            reply,
        })
    }

    /// Counters accumulated so far: the per-worker counters summed, and
    /// the largest of their largest batches.
    pub fn stats(&self) -> EngineStats {
        let workers = self.worker_stats();
        let sum = |count: fn(&WorkerStats) -> u64| workers.iter().map(count).sum();
        let counters = self.shared.worker_counters.iter();
        EngineStats {
            predictions: sum(|w| w.predictions),
            updates: sum(|w| w.updates),
            batches: sum(|w| w.batches),
            largest_batch: counters
                .map(|c| c.largest_batch.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        }
    }

    /// Jobs queued in this engine's shard queues and not yet gathered into
    /// a batch: the sum of the queues' lengths, taken when asked. 0 once
    /// the last worker has exited.
    pub fn queued(&self) -> usize {
        self.shared.queued()
    }

    /// Returns from the coalesce holds' timed waits, summed over this
    /// engine's workers: a batch that could fill, the shutdown or the
    /// deadline ended the wait. Divided by [`EngineStats::batches`] it is
    /// the wake-ups one batch costs; 0 on an engine without a coalesce
    /// wait.
    pub fn hold_wakes(&self) -> u64 {
        let counters = self.shared.worker_counters.iter();
        counters.map(|c| c.hold_wakes.load(Ordering::Relaxed)).sum()
    }

    /// Per-worker counters accumulated so far, indexed by worker.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shared
            .worker_counters
            .iter()
            .enumerate()
            .map(|(worker, c)| WorkerStats {
                worker,
                batches: c.batches.load(Ordering::Relaxed),
                predictions: c.predictions.load(Ordering::Relaxed),
                updates: c.updates.load(Ordering::Relaxed),
                steals: c.steals.load(Ordering::Relaxed),
                idle_ns: c.idle_ns.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl Drop for BatchServingEngine {
    fn drop(&mut self) {
        let shared = &self.shared;
        let mut wake = shared.work_gen.lock_or_panic("work generation");
        wake.shutdown = true;
        // More than any room: zeroes every room, so it ends every hold, and
        // moves the generation past every worker's last read of it.
        wake.arrive(usize::MAX, &shared.holds);
        drop(wake);
        shared.idle.notify_all();
        // Workers drain every queued job before exiting, so in-flight
        // receivers still get their replies.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Assembles one chunk of session-close updates into `scratch` and advances
/// the states (see [`predict_chunk`]); callers guarantee the chunk holds
/// each user at most once. The next states are left in `scratch` for
/// [`write_back_chunk`] to store.
pub fn update_chunk<'a>(
    model: &RnnModel,
    store: &ShardedStateStore,
    chunk: impl IntoIterator<Item = &'a UpdateRequest, IntoIter: ExactSizeIterator + Clone>,
    scratch: &mut BatchScratch,
    mut marks: Option<&mut BatchMarks>,
) {
    let chunk = chunk.into_iter();
    let obs = crate::obs::ServingObs::global();
    obs.batch_size.record(chunk.len() as u64);
    let assembly = pp_obs::Stopwatch::start();
    scratch.begin(model.state_dim(), model.update_input_dims());
    let inputs = scratch.inputs_mut();
    for r in chunk.clone() {
        model.featurizer().update_input_into(
            r.timestamp,
            &r.context,
            r.delta_t_secs,
            r.accessed,
            |col, value| inputs.push(col, value),
        );
        inputs.end_row();
    }
    let users = chunk.map(|r| r.user_id);
    store.read_states_into(users, scratch.zeroed_states(), model.state_dim());
    assembly.record(&obs.batch_assembly_ns);
    if let Some(marks) = marks.as_mut() {
        marks.assembly_done = std::time::Instant::now();
    }
    let forward = pp_obs::Stopwatch::start();
    model.advance_state_batch_into(scratch);
    forward.record(&obs.forward_pass_ns);
    if let Some(marks) = marks {
        marks.forward_done = std::time::Instant::now();
    }
}

/// Stores the states [`update_chunk`] advanced, in chunk order, with one
/// store call.
pub fn write_back_chunk<'a>(
    store: &ShardedStateStore,
    chunk: impl IntoIterator<Item = &'a UpdateRequest, IntoIter: ExactSizeIterator>,
    scratch: &BatchScratch,
    marks: Option<&mut BatchMarks>,
) {
    let users = chunk.into_iter().map(|r| r.user_id);
    store.put_states(users, scratch.next_states());
    if let Some(marks) = marks {
        marks.writeback_done = std::time::Instant::now();
    }
}

/// A batch under assembly: homogeneous-kind jobs plus the shard claims that
/// stay held until the batch's state reads and write-backs complete.
struct GatheredBatch<'a> {
    /// Declared first so that it drops first: peers get the shards back
    /// before this worker spends time dropping the jobs' reply senders.
    /// A sent reply sits in its one-slot channel, which the caller's
    /// receiver frees, so a drop only marks the channel disconnected (and
    /// frees it only if the caller already gave up its receiver).
    claims: Claims<'a>,
    jobs: Vec<Job>,
    /// The users already in the batch, kept for update batches only.
    users: HashSet<UserId>,
    stole: bool,
    /// Set when a coalesce hold opens: the deadline (the oldest job's
    /// arrival plus the coalesce wait) and the hold's stopwatch.
    hold: Option<(std::time::Instant, pp_obs::Stopwatch)>,
}

impl<'a> GatheredBatch<'a> {
    fn new(shared: &'a EngineShared) -> Self {
        Self {
            claims: Claims {
                shared,
                shards: Vec::new(),
            },
            jobs: Vec::new(),
            users: HashSet::new(),
            stole: false,
            hold: None,
        }
    }
}

/// The shard claims one batch holds, released when dropped: after the
/// batch's write-backs — so no peer can reorder this batch's users — or by
/// a panic unwinding out of the batch, so a worker that dies does not
/// strand its shards. The dead worker's own batch is dropped with it, which
/// disconnects those callers' reply channels; the surviving workers steal
/// what is still queued.
struct Claims<'a> {
    shared: &'a EngineShared,
    shards: Vec<usize>,
}

impl Drop for Claims<'_> {
    fn drop(&mut self) {
        if self.shards.is_empty() {
            return; // nothing gathered: the worker is about to park
        }
        // This may run while a panic unwinds, where a second panic would
        // abort the process: a flag and a generation counter are valid
        // whatever state a panic left their locks in, so recover a poisoned
        // lock rather than escalate. Each lock is released before the next
        // is taken.
        for &shard in &self.shards {
            self.shared.queues[shard].jobs.lock_recover().claimed = false;
        }
        // Lets idle workers, and a holder between its scan and its park,
        // pick up what remains queued.
        self.shared.work_gen.lock_recover().gen += 1;
        self.shared.idle.notify_all();
    }
}

/// Dropped when a worker thread ends, by return or by a panic. It counts
/// the worker out under the wake-up lock; the last worker out then closes
/// every queue under its lock: it drops whatever is still queued, and
/// `enqueue` refuses what arrives later, so callers see a disconnected
/// reply channel instead of waiting on an engine nobody serves. After its
/// sweep [`BatchServingEngine::queued`] reads 0 for good: every peer has
/// exited, and nothing can be queued after it.
struct WorkerExit<'a>(&'a EngineShared);

impl Drop for WorkerExit<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        // Counting, emptying and closing are valid from any state, and a
        // drop must not panic.
        let mut wake = shared.work_gen.lock_recover();
        wake.alive -= 1;
        let last = wake.alive == 0;
        drop(wake);
        if !last {
            return;
        }
        for queue in &shared.queues {
            let mut q = queue.jobs.lock_recover();
            q.jobs.clear();
            q.closed = true;
            queue.len.store(0, Ordering::Release);
        }
    }
}

/// Scans shard queues — the worker's own shards first, then everyone
/// else's (work stealing) — draining a FIFO prefix of each non-empty queue
/// no other batch holds into `batch`, which claims it. A queue's prefix
/// stops at a kind change or (for updates) a user already in the batch, so
/// per-user ordering and same-user-once-per-update-batch both hold.
///
/// On an engine without a coalesce wait, which serves a batch as soon as
/// it is gathered, the gather that opens a batch steals only if the
/// worker's own shards gave it nothing: a claim is held to write-back, so a
/// foreign shard taken into a batch that already had work would lock its
/// owner out of it for no gain. Every other gather fills the batch from
/// every shard. On a coalescing engine that is every gather: a batch it
/// does not fill is held, and a hold's room counts every arrival. A
/// re-gather into a non-empty batch does the same, and while a worker has
/// exited (`alive`, the running workers the pass read with its generation,
/// is below the worker count), the survivors drain its shards even when
/// their own never run dry.
fn gather(shared: &EngineShared, worker: usize, alive: usize, batch: &mut GatheredBatch<'_>) {
    let num_shards = shared.queues.len();
    let workers = shared.num_workers();
    let own_first = shared.coalesce_wait.is_none() && batch.jobs.is_empty() && alive == workers;
    for shard in (worker..num_shards).step_by(workers) {
        drain_shard(shared, shard, batch);
    }
    if own_first && !batch.jobs.is_empty() {
        return;
    }
    for shard in (0..num_shards).filter(|s| s % workers != worker) {
        batch.stole |= drain_shard(shared, shard, batch);
    }
}

/// Drains a FIFO prefix of `shard`'s queue into `batch` unless another
/// batch holds the queue. Returns whether this call claimed it: only a
/// drain that took jobs into a batch not yet holding the queue does.
fn drain_shard(shared: &EngineShared, shard: usize, batch: &mut GatheredBatch<'_>) -> bool {
    if batch.jobs.len() >= shared.max_batch {
        return false;
    }
    let queue = &shared.queues[shard];
    let held = batch.claims.shards.contains(&shard);
    if !held && queue.len.load(Ordering::Acquire) == 0 {
        return false;
    }
    let mut q = queue.jobs.lock_or_panic("shard queue");
    if q.claimed && !held {
        return false;
    }
    // One lazy clock read per drained queue, shared by every traced job
    // drained from it (untraced batches never read the clock).
    let mut claim_now: Option<std::time::Instant> = None;
    let before = batch.jobs.len();
    while batch.jobs.len() < shared.max_batch {
        let Some(front) = q.jobs.front() else { break };
        if let Some(first) = batch.jobs.first() {
            if std::mem::discriminant(&first.kind) != std::mem::discriminant(&front.kind) {
                break;
            }
        }
        if matches!(front.kind, JobKind::Update { .. }) && !batch.users.insert(front.kind.user_id())
        {
            // A second update for the same user waits for the next
            // batch so it reads the state the first one writes.
            break;
        }
        let mut job = q.jobs.pop_front().expect("front exists");
        if job.traced {
            job.claimed_at = Some(*claim_now.get_or_insert_with(std::time::Instant::now));
        }
        batch.jobs.push(job);
    }
    // A backlog's slots are not kept: an emptied queue gives back all but
    // one batch's worth, so the ring a steady load cycles through does not
    // depend on how deep an earlier burst got, or on how far the workers
    // had fallen behind a multi-pass wave when it did.
    if q.jobs.is_empty() && q.jobs.capacity() > shared.max_batch {
        q.jobs.shrink_to(shared.max_batch);
    }
    queue.len.store(q.jobs.len(), Ordering::Release);
    // Only a drain that took jobs claims the queue: an empty one leaves it
    // as it found it.
    let claims = !held && batch.jobs.len() > before;
    if claims {
        q.claimed = true;
        drop(q);
        batch.claims.shards.push(shard);
    }
    claims
}

fn worker_loop(shared: &EngineShared, worker: usize) {
    let _exit = WorkerExit(shared);
    let obs = crate::obs::ServingObs::global();
    let counters = &shared.worker_counters[worker];
    // This worker's arena, reused by every batch it serves; never shared.
    let mut scratch = BatchScratch::new();
    let mut open = GatheredBatch::new(shared);
    loop {
        // One pass: read the generation BEFORE gathering. An enqueue pass,
        // a peer's claim release or the shutdown after the read moves it,
        // so neither park below sleeps on work the gather never saw.
        let wake = shared.work_gen.lock_or_panic("work generation");
        let (seen, shutdown, alive) = (wake.gen, wake.shutdown, wake.alive);
        drop(wake);
        gather(shared, worker, alive, &mut open);

        if open.jobs.is_empty() {
            let parked = std::time::Instant::now();
            let mut wake = shared.work_gen.lock_or_panic("work generation");
            #[cfg(test)]
            counters.parked_on.store(seen + 1, Ordering::SeqCst);
            while wake.gen == seen {
                // The shutdown moved the generation, so seeing it here
                // means the gather above started after it and found every
                // job queued before it taken: by this worker, or by a peer
                // that serves its batch before it exits.
                if wake.shutdown {
                    return;
                }
                wake = shared.idle.wait(wake).expect("idle wait");
            }
            #[cfg(test)]
            counters.parked_on.store(0, Ordering::SeqCst);
            drop(wake);
            let idle_ns = u64::try_from(parked.elapsed().as_nanos()).unwrap_or(u64::MAX);
            counters.idle_ns.fetch_add(idle_ns, Ordering::Relaxed);
            continue;
        }

        // Coalesce: hold a non-full batch open for stragglers, with the
        // flush deadline anchored at the *oldest job's arrival* — queue
        // residence while workers were busy counts against the budget. The
        // timed wait below ends at that deadline plus wake latency only,
        // because `spawn_worker` took the OS's timer slack off this thread.
        // Each pass of a hold gathers once more; the batch is served once
        // it is full, at its deadline, or at the shutdown.
        if let Some(wait) = shared.coalesce_wait {
            if open.jobs.len() < shared.max_batch {
                let (deadline, _) = open.hold.get_or_insert_with(|| {
                    let held = pp_obs::Stopwatch::start();
                    let oldest = open.jobs.iter().map(|j| j.arrived).min();
                    (oldest.expect("non-empty batch") + wait, held)
                });
                let deadline = *deadline;
                let now = std::time::Instant::now();
                if !shutdown && now < deadline {
                    // The room counts every job that could still join: the
                    // jobs of a pass before the read are all queued, and
                    // the gather saw them.
                    let mut wake = shared.work_gen.lock_or_panic("work generation");
                    if wake.gen == seen {
                        wake.room[worker] = shared.max_batch - open.jobs.len();
                        // Sleeps through the passes the room absorbs; woken
                        // when one uses it up, at shutdown (whose charge
                        // uses up every room), or by the deadline.
                        let hold = &shared.holds[worker];
                        let (mut wake, _) = hold
                            .wait_timeout_while(wake, deadline - now, |wake| wake.room[worker] > 0)
                            .expect("coalesce wait");
                        wake.room[worker] = 0;
                        drop(wake);
                        counters.hold_wakes.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
            }
        }

        if let Some((_, held)) = open.hold.take() {
            held.record(&obs.coalesce_wait_ns);
        }
        let batch = std::mem::replace(&mut open, GatheredBatch::new(shared));
        let size = batch.jobs.len();
        // All batch-level accounting lands before any reply is sent, so a
        // client that read its reply sees this batch in `stats()`.
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters.largest_batch.fetch_max(size, Ordering::Relaxed);
        if batch.stole {
            counters.steals.fetch_add(1, Ordering::Relaxed);
        }
        // Traced batches (any sampled member) get stage marks; everyone
        // else skips every clock read below.
        let tracer = pp_obs::Tracer::global();
        let mut marks = if tracer.enabled() && batch.jobs.iter().any(|j| j.traced) {
            Some(BatchMarks::start())
        } else {
            None
        };
        let is_update = matches!(batch.jobs[0].kind, JobKind::Update { .. });
        if is_update {
            let requests = batch.jobs.iter().map(|j| match &j.kind {
                JobKind::Update { request, .. } => request,
                JobKind::Predict { .. } => unreachable!("batches are kind-homogeneous"),
            });
            let (model, store) = (&shared.model, &shared.store);
            update_chunk(model, store, requests.clone(), &mut scratch, marks.as_mut());
            write_back_chunk(store, requests, &scratch, marks.as_mut());
            counters.updates.fetch_add(size as u64, Ordering::Relaxed);
            for job in &batch.jobs {
                if let JobKind::Update { reply, .. } = &job.kind {
                    let _ = reply.send(());
                }
            }
        } else {
            let requests = batch.jobs.iter().map(|j| match &j.kind {
                JobKind::Predict { request, .. } => request,
                JobKind::Update { .. } => unreachable!("batches are kind-homogeneous"),
            });
            predict_chunk(
                &shared.model,
                &shared.store,
                requests,
                &mut scratch,
                marks.as_mut(),
            );
            counters
                .predictions
                .fetch_add(size as u64, Ordering::Relaxed);
            for (job, &probability) in batch.jobs.iter().zip(scratch.probabilities()) {
                if let JobKind::Predict { request, reply } = &job.kind {
                    // A dropped receiver (client gave up) is not an
                    // engine error.
                    let _ = reply.send(Prediction {
                        user_id: request.user_id,
                        probability,
                    });
                }
            }
        }
        if let Some(marks) = marks {
            emit_batch_spans(tracer, worker, &batch.jobs, &marks, is_update);
        }

        // `batch.claims` drops here: the claims release only now, after the
        // batch's state reads and write-backs.
    }
}

/// Emits the span tree for one served batch containing at least one traced
/// job: per traced member a `request` root (arrival → reply sent) tiled
/// exactly by its stage children, plus one `batch` span covering first
/// claim → last reply whose `batch` sequence number every member carries —
/// the link Perfetto (and the well-formedness tests) use to group a batch's
/// jobs. Runs after the replies, entirely off the reply path.
fn emit_batch_spans(
    tracer: &pp_obs::Tracer,
    worker: usize,
    jobs: &[Job],
    marks: &BatchMarks,
    is_update: bool,
) {
    use pp_obs::{Span, SpanId, Stage, TraceId};
    debug_assert!(
        tracer.enabled(),
        "span emission must be trace-gated by the caller"
    );
    let batch_id = tracer.next_batch_id();
    let worker = worker as u32;
    let done_ns = tracer.now_ns();
    let exec_ns = tracer.clock_ns(marks.exec_start);
    let assembly_ns = tracer.clock_ns(marks.assembly_done);
    let forward_ns = tracer.clock_ns(marks.forward_done);
    let writeback_ns = tracer.clock_ns(marks.writeback_done);
    let mut batch_start_ns = exec_ns;
    for job in jobs.iter().filter(|j| j.traced) {
        let user = job.kind.user_id().0;
        let trace = tracer.trace_for(user);
        let arrived_ns = tracer.clock_ns(job.arrived);
        let claimed_ns = tracer.clock_ns(job.claimed_at.unwrap_or(marks.exec_start));
        batch_start_ns = batch_start_ns.min(claimed_ns);
        let root = tracer.next_span_id();
        tracer.record(Span {
            trace,
            span: root,
            parent: SpanId::NONE,
            stage: Stage::Request,
            worker,
            user,
            batch: batch_id,
            start_ns: arrived_ns,
            end_ns: done_ns,
        });
        for (stage, start_ns, end_ns) in [
            (Stage::QueueWait, arrived_ns, claimed_ns),
            (Stage::CoalesceHold, claimed_ns, exec_ns),
            (Stage::BatchAssembly, exec_ns, assembly_ns),
            (Stage::ForwardPass, assembly_ns, forward_ns),
            (Stage::StateWriteBack, forward_ns, writeback_ns),
            (Stage::Reply, writeback_ns, done_ns),
        ] {
            if stage == Stage::StateWriteBack && !is_update {
                // Predict batches write no state; their `reply` child
                // starts at the forward-pass boundary instead.
                continue;
            }
            tracer.record(Span {
                trace,
                span: tracer.next_span_id(),
                parent: root,
                stage,
                worker,
                user,
                batch: batch_id,
                start_ns,
                end_ns,
            });
        }
    }
    tracer.record(Span {
        trace: TraceId(batch_id.max(1)),
        span: tracer.next_span_id(),
        parent: SpanId::NONE,
        stage: Stage::Batch,
        worker,
        user: 0,
        batch: batch_id,
        start_ns: batch_start_ns,
        end_ns: done_ns,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::schema::{DatasetKind, ScreenState, Tab};
    use pp_rnn::{RnnModelConfig, TaskKind};

    fn model() -> RnnModel {
        RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig::tiny(),
            11,
        )
    }

    /// `state` as a store hands it back: rounded to bf16 by a round trip
    /// through a one-shard store.
    fn as_stored(state: &[f32]) -> Vec<f32> {
        let store = ShardedStateStore::new(1);
        store.put_state(UserId(0), state);
        store.get_state(UserId(0)).expect("just stored")
    }

    fn request(id: u64, i: i64) -> PredictRequest {
        PredictRequest {
            user_id: UserId(id),
            timestamp: 10_000 + i * 37,
            context: Context::MobileTab {
                unread_count: (i % 9) as u8,
                active_tab: Tab::ALL[(i % Tab::ALL.len() as i64) as usize],
            },
            elapsed_secs: 300 + i,
        }
    }

    /// A request is written as JSON only by the benchmark, whose
    /// same-seed test compares request streams byte for byte; this pins
    /// those bytes for each context kind.
    #[test]
    fn predict_request_json_is_pinned_for_every_context_kind() {
        let cases = [
            (
                PredictRequest {
                    user_id: UserId(7),
                    timestamp: 1_700_000_000,
                    context: Context::MobileTab {
                        unread_count: 99,
                        active_tab: Tab::Marketplace,
                    },
                    elapsed_secs: 3_600,
                },
                r#"{"user_id":7,"timestamp":1700000000,"context":{"MobileTab":{"unread_count":99,"active_tab":"Marketplace"}},"elapsed_secs":3600}"#,
            ),
            (
                PredictRequest {
                    user_id: UserId(u64::MAX),
                    timestamp: -1,
                    context: Context::Timeshift { is_peak: true },
                    elapsed_secs: 0,
                },
                r#"{"user_id":18446744073709551615,"timestamp":-1,"context":{"Timeshift":{"is_peak":true}},"elapsed_secs":0}"#,
            ),
            (
                PredictRequest {
                    user_id: UserId(0),
                    timestamp: 86_400,
                    context: Context::Mpu {
                        screen: ScreenState::Unlocked,
                        app_id: 412,
                        last_app_id: u16::MAX,
                    },
                    elapsed_secs: 59,
                },
                r#"{"user_id":0,"timestamp":86400,"context":{"Mpu":{"screen":"Unlocked","app_id":412,"last_app_id":65535}},"elapsed_secs":59}"#,
            ),
        ];
        for (request, json) in cases {
            assert_eq!(serde_json::to_string(&request).unwrap(), json);
        }
        let [(a, a_json), (b, b_json), _] = cases;
        assert_eq!(
            serde_json::to_string(&vec![a, b]).unwrap(),
            format!("[{a_json},{b_json}]")
        );
    }

    #[test]
    fn scheduler_matches_single_request_path() {
        let m = model();
        let store = ShardedStateStore::new(4);
        // Give some users warm states.
        for id in 0..10u64 {
            let mut h = m.initial_state();
            for step in 0..id {
                let ctx = Context::MobileTab {
                    unread_count: 1,
                    active_tab: Tab::Home,
                };
                h = m.advance_state(
                    &h,
                    &m.featurizer().update_input(step as i64, &ctx, 60, true),
                );
            }
            store.put_state(UserId(id), &h);
        }
        let requests: Vec<PredictRequest> = (0..25).map(|i| request(i as u64 % 13, i)).collect();

        let mut batched = BatchScheduler::new(&m, &store, 8);
        let results = batched.run(requests.iter().copied());

        assert_eq!(results.len(), requests.len());
        for (request, result) in requests.iter().zip(&results) {
            assert_eq!(request.user_id, result.user_id);
            let state = store
                .get_state(request.user_id)
                .unwrap_or_else(|| m.initial_state());
            let input = m.featurizer().predict_input(
                request.timestamp,
                &request.context,
                request.elapsed_secs,
            );
            let single = m.predict_proba(&state, &input);
            assert!(
                (result.probability - single).abs() < 1e-6,
                "user {}: batched {} vs single {}",
                request.user_id,
                result.probability,
                single
            );
        }
        let stats = batched.stats();
        assert_eq!(stats.predictions, 25);
        assert_eq!(stats.largest_batch, 8);
        // 25 requests at max_batch 8 -> 4 forward passes, not 25.
        assert_eq!(stats.batches, 4);
    }

    #[test]
    fn updates_for_the_same_user_apply_in_order() {
        let m = model();
        let store = ShardedStateStore::new(2);
        let ctx = Context::MobileTab {
            unread_count: 2,
            active_tab: Tab::Home,
        };
        let updates: Vec<UpdateRequest> = (0..6)
            .map(|i| UpdateRequest {
                user_id: UserId(5),
                timestamp: 1_000 * i,
                context: ctx,
                delta_t_secs: 600,
                accessed: i % 2 == 0,
            })
            .collect();
        let mut scheduler = BatchScheduler::new(&m, &store, 4);
        scheduler.apply_updates(&updates);

        // Sequential reference, each state stored before the next update
        // reads it.
        let mut h = m.initial_state();
        for u in &updates {
            h =
                as_stored(&m.advance_state(
                    &h,
                    &m.featurizer().update_input(
                        u.timestamp,
                        &u.context,
                        u.delta_t_secs,
                        u.accessed,
                    ),
                ));
        }
        let stored = store.get_state(UserId(5)).unwrap();
        for (a, b) in stored.iter().zip(&h) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(scheduler.stats().updates, 6);
    }

    #[test]
    fn engine_serves_concurrent_clients_identically_to_single_path() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(8));
        let engine = BatchServingEngine::start(m.clone(), store.clone(), 2, 16);

        let receivers: Vec<(PredictRequest, mpsc::Receiver<Prediction>)> = (0..64)
            .map(|i| {
                let r = request(i as u64 % 7, i);
                let receiver = engine.submit(r);
                (r, receiver)
            })
            .collect();
        for (request, receiver) in receivers {
            let prediction = receiver
                .recv_timeout(HANG)
                .expect("every submit is answered");
            assert_eq!(prediction.user_id, request.user_id);
            let state = store
                .get_state(request.user_id)
                .unwrap_or_else(|| m.initial_state());
            let input = m.featurizer().predict_input(
                request.timestamp,
                &request.context,
                request.elapsed_secs,
            );
            assert!((prediction.probability - m.predict_proba(&state, &input)).abs() < 1e-6);
        }
        let stats = engine.stats();
        assert_eq!(stats.predictions, 64);
        assert!(stats.batches <= 64);
        drop(engine); // clean shutdown without panics
    }

    #[test]
    fn submit_many_coalesces_and_answers_every_request() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start(m.clone(), store.clone(), 1, 32);
        let requests: Vec<PredictRequest> = (0..48).map(|i| request(i as u64 % 9, i)).collect();
        let receivers = engine.submit_many(&requests);
        assert_eq!(receivers.len(), requests.len());
        for (request, receiver) in requests.iter().zip(receivers) {
            let prediction = receiver
                .recv_timeout(HANG)
                .expect("every request of the burst is answered");
            assert_eq!(prediction.user_id, request.user_id);
            let state = store
                .get_state(request.user_id)
                .unwrap_or_else(|| m.initial_state());
            let input = m.featurizer().predict_input(
                request.timestamp,
                &request.context,
                request.elapsed_secs,
            );
            assert!((prediction.probability - m.predict_proba(&state, &input)).abs() < 1e-6);
        }
        let stats = engine.stats();
        assert_eq!(stats.predictions, 48);
        // 48 requests in one burst, max_batch 32 -> at most a handful of
        // forward passes, and at least one genuinely coalesced batch.
        assert!(stats.batches < 48, "batches = {}", stats.batches);
        assert!(stats.largest_batch > 1);
    }

    #[test]
    fn coalescing_engine_serves_low_traffic_within_deadline() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start_with_coalesce(
            m.clone(),
            store.clone(),
            1,
            64,
            Some(std::time::Duration::from_millis(10)),
        );
        // A lone request must not wait forever for 63 peers.
        let prediction = engine
            .submit(request(1, 1))
            .recv_timeout(HANG)
            .expect("a lone request flushes at its coalesce deadline");
        assert_eq!(prediction.user_id, UserId(1));
        assert_eq!(engine.stats().predictions, 1);
    }

    #[test]
    fn coalescing_engine_batches_a_trickle() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start_with_coalesce(
            m.clone(),
            store.clone(),
            1,
            8,
            Some(std::time::Duration::from_millis(200)),
        );
        // Submit one-by-one (the worst case for the immediate-drain engine);
        // the coalescing worker holds the batch open and serves them together.
        let receivers: Vec<_> = (0..8)
            .map(|i| engine.submit(request(i as u64, i)))
            .collect();
        for receiver in receivers {
            receiver
                .recv_timeout(HANG)
                .expect("a trickle is served within its coalesce window");
        }
        let stats = engine.stats();
        assert_eq!(stats.predictions, 8);
        assert!(
            stats.largest_batch >= 2,
            "coalesce window should batch a trickle (largest {})",
            stats.largest_batch
        );
    }

    fn update(id: u64, i: i64) -> UpdateRequest {
        UpdateRequest {
            user_id: UserId(id),
            timestamp: 20_000 + i * 41,
            context: Context::MobileTab {
                unread_count: (i % 7) as u8,
                active_tab: Tab::ALL[(i % Tab::ALL.len() as i64) as usize],
            },
            delta_t_secs: 600 + i,
            accessed: i % 2 == 0,
        }
    }

    #[test]
    fn coalesce_deadline_is_anchored_at_job_arrival_not_observation() {
        // Regression: the flush deadline used to be re-armed at the instant
        // a worker first *observed* the queue, so a job that sat queued
        // while the worker was occupied waited its queue residence PLUS a
        // full coalesce window (worst case ~2x the configured wait). The
        // deadline is now anchored at the oldest job's arrival.
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let wait = std::time::Duration::from_millis(500);
        let engine = BatchServingEngine::start_with_coalesce(m, store, 1, 8, Some(wait));
        // Occupy the lone worker with a partial *predict* batch whose
        // coalesce window runs until t = 500ms (t = 0: the predict's
        // arrival).
        let predict = engine.submit(request(1, 1));
        wait_for("the lone worker never entered its hold", || {
            parked_holder(&engine)
        });
        // A few ms in, the worker inside its hold: an *update* arrives.
        // Batches are kind-homogeneous, so it cannot join the held predict
        // batch; the worker only picks it up when that batch flushes at
        // t = 500ms — after nearly 500ms of queue residence that must
        // count against the update's own deadline.
        let submitted = std::time::Instant::now();
        let receiver = engine.submit_updates(&[update(2, 2)]).remove(0);
        receiver
            .recv_timeout(HANG)
            .expect("the update is served after the held predict batch");
        let waited = submitted.elapsed();
        // Arrival-anchored: served ~500ms after arrival. The old
        // observation-anchored deadline re-armed the full window at
        // t = 500ms and served at t ≈ 1s (a ~1s wait).
        assert!(
            waited < std::time::Duration::from_millis(750),
            "update waited {waited:?}; coalesce deadline must anchor at arrival, not observation"
        );
        predict
            .recv_timeout(HANG)
            .expect("the held predict flushes at its deadline");
    }

    /// Bounds a wait only so that a hang fails the test instead of blocking
    /// it; a disconnect returns at once.
    const HANG: std::time::Duration = std::time::Duration::from_secs(10);

    /// Spins until `ready` yields a value; `what` names what never came.
    fn wait_for<T>(what: &str, mut ready: impl FnMut() -> Option<T>) -> T {
        let started = std::time::Instant::now();
        loop {
            if let Some(value) = ready() {
                return value;
            }
            assert!(started.elapsed() < HANG, "{what}");
            std::thread::yield_now();
        }
    }

    /// The worker inside its hold's timed wait and the room it publishes.
    fn parked_holder(engine: &BatchServingEngine) -> Option<(usize, usize)> {
        let wake = engine.shared.work_gen.lock().unwrap();
        let mut rooms = wake.room.iter().copied().enumerate();
        rooms.find(|&(_, room)| room > 0)
    }

    /// `n` distinct users (never user 0) whose home worker is `worker`.
    fn users_homed_on(shared: &EngineShared, worker: usize, n: usize) -> Vec<UserId> {
        let users = (1..256).map(UserId);
        let homed: Vec<UserId> = users
            .filter(|&u| shared.home_worker(u) == worker)
            .take(n)
            .collect();
        assert_eq!(homed.len(), n, "not enough users homed on worker {worker}");
        homed
    }

    /// The state every wake-up rule starts from: a two-worker coalescing
    /// engine with one worker parked in its hold over `lone`, a predict for
    /// user 0, and its peer parked idle.
    struct Held {
        model: Arc<RnnModel>,
        store: Arc<ShardedStateStore>,
        engine: BatchServingEngine,
        /// Taken before the lone job was submitted: its deadline is no
        /// earlier than `submitted + wait`.
        submitted: std::time::Instant,
        first: mpsc::Receiver<Prediction>,
        holder: usize,
        peer: usize,
    }

    fn hold_one(lone: PredictRequest, max_batch: usize, wait: std::time::Duration) -> Held {
        let model = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start_with_coalesce(
            model.clone(),
            store.clone(),
            2,
            max_batch,
            Some(wait),
        );
        assert_eq!(lone.user_id, UserId(0));
        let submitted = std::time::Instant::now();
        let first = engine.submit(lone);
        let (holder, room) = wait_for("no worker parked over the lone job", || {
            parked_holder(&engine)
        });
        assert_eq!(room, max_batch - 1);
        let peer = 1 - holder;
        // Parked on the *current* generation, read under its lock: a peer
        // that an earlier pass woke and that has not run since, or one
        // between its scan and its park, would scan again on the next pass
        // and take jobs the test expects the holder to absorb.
        wait_for("the peer never parked", || {
            let wake = engine.shared.work_gen.lock().unwrap();
            let parked_on = engine.shared.worker_counters[peer]
                .parked_on
                .load(Ordering::SeqCst);
            (parked_on == wake.gen + 1).then_some(())
        });
        Held {
            model,
            store,
            engine,
            submitted,
            first,
            holder,
            peer,
        }
    }

    /// Three single submits — three enqueue passes — for users homed on the
    /// parked peer.
    fn three_more_homed_on_the_peer(held: &Held) -> Vec<mpsc::Receiver<Prediction>> {
        let users = users_homed_on(&held.engine.shared, held.peer, 3);
        let submits = users.iter().zip(2..);
        submits
            .map(|(user, i)| held.engine.submit(request(user.0, i)))
            .collect()
    }

    #[test]
    fn separate_submits_are_not_stranded_by_a_peer_coalescing_a_partial_batch() {
        // Regression: the old single-queue engine woke workers with
        // `notify_one`, so a submission's wakeup could be consumed by a
        // worker parked mid-coalesce over a partial batch while an idle
        // peer — which could have served the job immediately — kept
        // sleeping, stranding the job for the full coalesce window. Now
        // every pass is counted against the holder's room and wakes it when
        // its batch can fill, and wakes the idle workers (`notify_all`)
        // whenever no holder has room for it.
        let wait = std::time::Duration::from_secs(2);
        let Held {
            store,
            engine,
            first,
            peer,
            ..
        } = hold_one(request(0, 1), 2, wait);
        // Two distinct users sharing a single shard homed on the idle peer:
        // the pattern that lost a wakeup in the old engine.
        let second = users_homed_on(&engine.shared, peer, 1)[0];
        let third = (1..256)
            .map(UserId)
            .find(|&u| u != second && store.shard_index(u) == store.shard_index(second))
            .expect("a second user in the same shard exists");

        // Two more *separate* submits (two wakeup events). With
        // `max_batch = 2`, two of the three jobs fill a batch and must be
        // served at once, long before any coalesce window expires —
        // whichever worker ends up with which job.
        let started = std::time::Instant::now();
        let mut pending = vec![
            first,
            engine.submit(request(second.0, 2)),
            engine.submit(request(third.0, 3)),
        ];
        while pending.len() > 1 {
            assert!(
                started.elapsed() < std::time::Duration::from_millis(900),
                "a batch that could fill waited on a coalesce window"
            );
            pending.retain(|receiver| receiver.try_recv().is_err());
            std::thread::yield_now();
        }
        // The odd job out still flushes at its own (arrival-anchored)
        // deadline.
        pending[0]
            .recv_timeout(std::time::Duration::from_secs(4))
            .expect("the odd job must flush at its coalesce deadline");
        assert_eq!(engine.stats().batches, 2);
    }

    #[test]
    fn arrivals_a_holder_can_absorb_join_its_batch_and_wake_nobody() {
        // Fails on the parent (2 batches): there the first of the three
        // submits wakes the idle peer, which claims it and opens a second
        // hold with a later deadline.
        let wait = std::time::Duration::from_secs(2);
        let held = hold_one(request(0, 1), 8, wait);
        for reply in three_more_homed_on_the_peer(&held) {
            reply
                .recv_timeout(HANG)
                .expect("absorbed by the holder, served at its deadline");
        }
        held.first.recv_timeout(HANG).expect("the lone job");
        // All four at the first job's deadline, after the one wake-up a
        // held batch costs (the deadline's), in the one batch.
        assert!(held.submitted.elapsed() >= wait);
        assert_eq!(held.engine.hold_wakes(), 1);
        let stats = held.engine.stats();
        assert_eq!((stats.batches, stats.largest_batch), (1, 4));
        assert_eq!(held.engine.worker_stats()[held.peer].batches, 0);
    }

    #[test]
    fn a_held_batch_is_served_as_soon_as_single_submits_fill_it() {
        // Fails on the parent by time-out: the peer takes the submits homed
        // on it into a second hold and neither batch ever fills.
        let held = hold_one(request(0, 1), 4, std::time::Duration::from_secs(10));
        let mut replies = three_more_homed_on_the_peer(&held);
        replies.push(held.first);
        for reply in replies {
            reply
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("the fourth submit fills the batch: no window is waited out");
        }
        // One wake-up, by the submit that used the room up.
        assert_eq!(held.engine.hold_wakes(), 1);
        let stats = held.engine.stats();
        assert_eq!((stats.batches, stats.largest_batch), (1, 4));
    }

    #[test]
    fn a_job_the_holder_absorbs_but_cannot_take_is_served_within_its_own_window() {
        // Passes on the parent too, where the update's arrival wakes the
        // idle peer at once. Here nobody is woken: the holder has room, but
        // its batch is predicts. The update must still be picked up when
        // that batch's claims drop, and wait no longer than its own window
        // (a second window on top would read ~4 s) plus that one batch.
        let wait = std::time::Duration::from_secs(2);
        let held = hold_one(request(0, 1), 8, wait);
        let m = &held.model;
        let update_submitted = std::time::Instant::now();
        let close = update(0, 2);
        let applied = held.engine.submit_updates(&[close]).remove(0);

        // Per-user order: the predict was submitted first and scores the
        // state from before the update.
        let open = request(0, 1);
        let cold = m.predict_proba(
            &m.initial_state(),
            &m.featurizer()
                .predict_input(open.timestamp, &open.context, open.elapsed_secs),
        );
        let served = held.first.recv_timeout(HANG).expect("the held predict");
        assert!((served.probability - cold).abs() < 1e-6);

        applied.recv_timeout(HANG).expect("the absorbed update");
        let waited = update_submitted.elapsed();
        assert!(waited < wait * 3 / 2, "update waited {waited:?}");
        let next = as_stored(&m.advance_state(
            &m.initial_state(),
            &m.featurizer().update_input(
                close.timestamp,
                &close.context,
                close.delta_t_secs,
                close.accessed,
            ),
        ));
        let stored = held.store.get_state(UserId(0)).unwrap();
        for (a, b) in stored.iter().zip(&next) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(held.engine.stats().batches, 2);
    }

    #[test]
    fn a_dead_holder_leaves_no_room_behind() {
        // New state, so nothing to compare on the parent. A worker that
        // held a batch open and then died serving it must not look as if it
        // were still absorbing: later submits would move the generation,
        // wake nobody and wait for ever.
        let wait = std::time::Duration::from_secs(1);
        let held = hold_one(poisonous(0, 1), 8, wait);
        assert_eq!(
            held.first.recv_timeout(HANG),
            Err(mpsc::RecvTimeoutError::Disconnected),
            "the held batch dies with its worker at the deadline"
        );
        let shared = &held.engine.shared;
        wait_for("the dead worker never counted itself out", || {
            (shared.work_gen.lock().unwrap().alive == 1).then_some(())
        });
        assert_eq!(shared.work_gen.lock().unwrap().room[held.holder], 0);
        // Homed on the dead worker: only the survivor's steal serves them,
        // at their own deadline.
        let submitted = std::time::Instant::now();
        let replies: Vec<_> = users_homed_on(&held.engine.shared, held.holder, 2)
            .iter()
            .map(|user| held.engine.submit(request(user.0, 2)))
            .collect();
        for reply in replies {
            reply
                .recv_timeout(HANG)
                .expect("stranded behind a dead holder");
        }
        assert!(submitted.elapsed() >= wait);
        assert_eq!(held.engine.worker_stats()[held.peer].predictions, 2);
    }

    #[test]
    fn shutdown_during_a_hold_flushes_the_partial_batch() {
        // Passes on the parent; pins the shutdown wake-up, which now has to
        // get past a holder that sleeps through ordinary arrivals. A missed
        // one shows as a thirty-second drop.
        let held = hold_one(request(0, 1), 8, std::time::Duration::from_secs(30));
        let started = std::time::Instant::now();
        drop(held.engine);
        assert!(started.elapsed() < HANG, "drop waited out the hold");
        held.first
            .try_recv()
            .expect("workers serve what they hold before they exit");
    }

    /// A predict for user `id` whose context is not the model's kind: the
    /// featurizer panics on it by contract, before the batch takes any
    /// store lock, which kills the worker that serves it and leaves the
    /// store whole.
    fn poisonous(id: u64, i: i64) -> PredictRequest {
        PredictRequest {
            context: Context::Timeshift { is_peak: false },
            ..request(id, i)
        }
    }

    /// Stores a state of the wrong length for `user` and reads it on the
    /// test thread: the read panics under the state's shard lock, which
    /// poisons that shard. The put fixes the store's width at 3, so it must
    /// be the store's first.
    fn poison_shard_of(store: &ShardedStateStore, user: UserId) {
        assert!(store.is_empty(), "poison must be the store's first put");
        store.put_state(user, &[0.0; 3]);
        let read = std::panic::catch_unwind(|| store.read_state_into(user, &mut [0.0; 4]));
        assert!(read.is_err(), "a read of the wrong width must panic");
    }

    /// Engine state with no worker running, so a test drives `gather` by
    /// hand: two workers over four shards, worker 0 owning shards 0 and 2.
    fn unstarted() -> EngineShared {
        let store = Arc::new(ShardedStateStore::new(4));
        EngineShared::new(Arc::new(model()), store, 2, 8, None)
    }

    /// An engine over [`unstarted`] state, read through its public API.
    fn unstarted_engine() -> BatchServingEngine {
        BatchServingEngine {
            shared: Arc::new(unstarted()),
            workers: Vec::new(),
        }
    }

    /// Queues one predict for each of `n` users homed on `worker` in one
    /// enqueue pass, returning whether a holder absorbed it. Nobody will
    /// reply, so the receivers are dropped at once.
    fn queue_homed_on(shared: &EngineShared, worker: usize, n: usize) -> bool {
        let now = std::time::Instant::now();
        let mut jobs: Vec<Job> = users_homed_on(shared, worker, n)
            .into_iter()
            .zip(0..)
            .map(|(user, i)| {
                let (reply, _) = mpsc::sync_channel(1);
                let request = request(user.0, i);
                Job::new(JobKind::Predict { request, reply }, now)
            })
            .collect();
        shared.enqueue(&mut jobs)
    }

    /// Publishes `rooms` as if the workers were parked in their holds,
    /// runs one enqueue pass of `jobs` jobs, and returns the rooms it left,
    /// how far the generation moved and whether the pass was absorbed.
    fn pass_against(rooms: [usize; 2], jobs: usize) -> ([usize; 2], u64, bool) {
        let shared = unstarted();
        shared.work_gen.lock().unwrap().room = rooms.to_vec();
        let absorbed = queue_homed_on(&shared, 0, jobs);
        let wake = shared.work_gen.lock().unwrap();
        ([wake.room[0], wake.room[1]], wake.gen, absorbed)
    }

    #[test]
    fn a_pass_smaller_than_a_room_shrinks_it_and_is_absorbed() {
        assert_eq!(pass_against([5, 0], 2), ([3, 0], 1, true));
    }

    #[test]
    fn a_pass_that_fills_a_room_uses_it_up_and_is_absorbed() {
        // The holder is woken and the idle workers are not.
        assert_eq!(pass_against([0, 3], 3), ([0, 0], 1, true));
    }

    #[test]
    fn a_pass_larger_than_every_room_uses_them_all_up_and_is_not_absorbed() {
        assert_eq!(pass_against([2, 1], 3), ([0, 0], 1, false));
    }

    #[test]
    fn a_pass_with_no_holder_moves_only_the_generation() {
        assert_eq!(pass_against([0, 0], 2), ([0, 0], 1, false));
    }

    #[test]
    fn shutdown_zeroes_every_room_and_later_passes_are_not_absorbed() {
        let shared = Arc::new(unstarted());
        shared.work_gen.lock().unwrap().room = vec![3, 7];
        drop(BatchServingEngine {
            shared: shared.clone(),
            workers: Vec::new(),
        });
        let wake = shared.work_gen.lock().unwrap();
        assert!(wake.shutdown);
        assert_eq!((wake.room.as_slice(), wake.gen), ([0, 0].as_slice(), 1));
        drop(wake);
        assert!(!queue_homed_on(&shared, 1, 1));
        assert_eq!(shared.work_gen.lock().unwrap().gen, 2);
    }

    #[test]
    fn queue_depth_is_the_sum_of_the_shard_queues() {
        let engine = unstarted_engine();
        let shared = &engine.shared;
        queue_homed_on(shared, 1, 3);
        assert_eq!(engine.queued(), 3);
        let mut batch = GatheredBatch::new(shared);
        gather_by_worker_0(shared, &mut batch);
        assert_eq!((batch.jobs.len(), engine.queued()), (3, 0));
        // A closed engine refuses the pass: nothing is queued.
        drop(WorkerExit(shared));
        drop(WorkerExit(shared));
        queue_homed_on(shared, 1, 2);
        assert_eq!(engine.queued(), 0);
    }

    #[test]
    fn two_engines_in_one_process_each_report_their_own_queue_depth() {
        let (a, b) = (unstarted_engine(), unstarted_engine());
        queue_homed_on(&a.shared, 0, 2);
        queue_homed_on(&b.shared, 1, 5);
        assert_eq!((a.queued(), b.queued()), (2, 5));
        // A drain in one engine leaves the other's depth where it was.
        let mut batch = GatheredBatch::new(&b.shared);
        gather_by_worker_0(&b.shared, &mut batch);
        assert_eq!(batch.jobs.len(), 5);
        assert_eq!((a.queued(), b.queued()), (2, 0));
    }

    #[test]
    fn the_last_worker_out_closes_every_queue() {
        let shared = unstarted();
        queue_homed_on(&shared, 0, 2);
        queue_homed_on(&shared, 1, 2);
        drop(WorkerExit(&shared));
        assert_eq!(shared.queued(), 4, "a survivor still serves the queues");
        drop(WorkerExit(&shared));
        assert_eq!(
            shared.queued(),
            0,
            "the last worker out leaves nothing queued"
        );
        for queue in &shared.queues {
            let q = queue.jobs.lock().unwrap();
            assert!(q.closed && q.jobs.is_empty());
        }
        queue_homed_on(&shared, 0, 1);
        queue_homed_on(&shared, 1, 1);
        assert_eq!(shared.queued(), 0, "a closed queue refuses jobs");
    }

    /// Worker 0's gather into `batch`, returning the shards it has claimed.
    fn gather_by_worker_0<'a>(
        shared: &'a EngineShared,
        batch: &mut GatheredBatch<'a>,
    ) -> Vec<usize> {
        let alive = shared.work_gen.lock().unwrap().alive;
        gather(shared, 0, alive, batch);
        batch.claims.shards.clone()
    }

    #[test]
    fn a_queue_a_peer_batch_holds_is_skipped_until_its_claims_drop() {
        let shared = unstarted();
        queue_homed_on(&shared, 1, 4);
        let mut held = GatheredBatch::new(&shared);
        gather(&shared, 1, shared.num_workers(), &mut held);
        let mut claimed = held.claims.shards.clone();
        claimed.sort_unstable();
        assert_eq!((held.jobs.len(), claimed), (4, vec![1, 3]));
        // Queued behind worker 1's open batch: worker 0, with no work of
        // its own, would steal them, but not from a queue a batch holds.
        queue_homed_on(&shared, 1, 3);
        let mut batch = GatheredBatch::new(&shared);
        assert_eq!(gather_by_worker_0(&shared, &mut batch), Vec::<usize>::new());
        assert_eq!((batch.jobs.len(), shared.queued()), (0, 3));
        let gen = shared.work_gen.lock().unwrap().gen;
        drop(held);
        assert_eq!(shared.work_gen.lock().unwrap().gen, gen + 1);
        for queue in &shared.queues {
            assert!(!queue.jobs.lock().unwrap().claimed);
        }
        gather_by_worker_0(&shared, &mut batch);
        assert_eq!((batch.jobs.len(), shared.queued()), (3, 0));
    }

    #[test]
    fn a_worker_with_own_work_claims_no_foreign_shard_in_its_first_gather() {
        // Fails on the parent, whose first gather took all four jobs and
        // held worker 1's shards to write-back.
        let shared = unstarted();
        queue_homed_on(&shared, 0, 2);
        queue_homed_on(&shared, 1, 2);
        let mut batch = GatheredBatch::new(&shared);
        let claimed = gather_by_worker_0(&shared, &mut batch);
        assert_eq!(batch.jobs.len(), 2);
        assert!(claimed.iter().all(|s| s % 2 == 0), "claimed {claimed:?}");
        assert!(!batch.stole);
        for queue in [&shared.queues[1], &shared.queues[3]] {
            assert!(!queue.jobs.lock().unwrap().claimed);
        }
        let left: usize = shared
            .queues
            .iter()
            .map(|q| q.jobs.lock().unwrap().jobs.len())
            .sum();
        assert_eq!(left, 2, "worker 1's jobs stay queued for worker 1");
    }

    #[test]
    fn a_coalescing_worker_fills_the_batch_it_will_hold_from_every_shard() {
        // A batch gathered from its own shards alone would be held while
        // the peer opened a second batch over its shards, with a later
        // deadline.
        let store = Arc::new(ShardedStateStore::new(4));
        let wait = Some(std::time::Duration::from_micros(200));
        let shared = EngineShared::new(Arc::new(model()), store, 2, 8, wait);
        queue_homed_on(&shared, 0, 2);
        queue_homed_on(&shared, 1, 2);
        let mut batch = GatheredBatch::new(&shared);
        let claimed = gather_by_worker_0(&shared, &mut batch);
        assert_eq!(batch.jobs.len(), 4);
        assert!(claimed.iter().any(|s| s % 2 == 1), "claimed {claimed:?}");
        assert!(batch.stole);
    }

    #[test]
    fn an_emptied_queue_keeps_one_batch_of_slots() {
        // Forty jobs over worker 0's two shards grow a ring past a batch;
        // once drained, no queue keeps more than `max_batch` slots.
        let shared = unstarted();
        queue_homed_on(&shared, 0, 40);
        let grown = shared
            .queues
            .iter()
            .map(|q| q.jobs.lock().unwrap().jobs.capacity());
        assert!(grown.max().unwrap() > shared.max_batch);
        while shared
            .queues
            .iter()
            .any(|q| q.len.load(Ordering::SeqCst) > 0)
        {
            let mut batch = GatheredBatch::new(&shared);
            gather_by_worker_0(&shared, &mut batch);
            assert!(!batch.jobs.is_empty(), "a queued job was not gathered");
        }
        for queue in &shared.queues {
            let capacity = queue.jobs.lock().unwrap().jobs.capacity();
            assert!(capacity <= shared.max_batch, "kept {capacity} slots");
        }
    }

    #[test]
    fn a_re_gather_into_a_held_batch_still_steals() {
        // A coalesce hold re-gathers into its open batch: the room it
        // published counted every arrival, its own shards' or not.
        let shared = unstarted();
        queue_homed_on(&shared, 0, 1);
        let mut batch = GatheredBatch::new(&shared);
        gather_by_worker_0(&shared, &mut batch);
        queue_homed_on(&shared, 1, 2);
        let claimed = gather_by_worker_0(&shared, &mut batch);
        assert_eq!(batch.jobs.len(), 3);
        assert!(claimed.iter().any(|s| s % 2 == 1), "claimed {claimed:?}");
        assert!(batch.stole);
    }

    #[test]
    fn a_worker_with_no_own_work_steals() {
        let shared = unstarted();
        queue_homed_on(&shared, 1, 3);
        let mut batch = GatheredBatch::new(&shared);
        let claimed = gather_by_worker_0(&shared, &mut batch);
        assert_eq!(batch.jobs.len(), 3);
        assert!(claimed.iter().all(|s| s % 2 == 1), "claimed {claimed:?}");
        assert!(batch.stole);
    }

    #[test]
    fn while_a_worker_is_dead_its_peers_steal_beside_their_own_work() {
        // A survivor whose own shards never run dry would otherwise leave
        // the dead worker's shards queued for ever.
        let shared = unstarted();
        shared.work_gen.lock().unwrap().alive -= 1;
        queue_homed_on(&shared, 0, 2);
        queue_homed_on(&shared, 1, 2);
        let mut batch = GatheredBatch::new(&shared);
        let claimed = gather_by_worker_0(&shared, &mut batch);
        assert_eq!(batch.jobs.len(), 4);
        assert!(claimed.iter().any(|s| s % 2 == 1), "claimed {claimed:?}");
        assert!(batch.stole);
    }

    #[test]
    fn a_dead_worker_fails_its_batch_and_releases_its_shards() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start(m, store.clone(), 2, 8);
        let poisoned = UserId(0);
        // Same shard as the poisoned user: behind the dead worker's claim.
        let follower = (1..256)
            .map(UserId)
            .find(|&u| store.shard_index(u) == store.shard_index(poisoned))
            .expect("a second user in the poisoned shard exists");

        let first = engine.submit(poisonous(poisoned.0, 1));
        assert_eq!(
            first.recv_timeout(HANG),
            Err(mpsc::RecvTimeoutError::Disconnected),
            "the batch that killed its worker must fail, not hang"
        );
        let second = engine.submit(request(follower.0, 2));
        let served = second
            .recv_timeout(HANG)
            .expect("the surviving worker must take over the dead worker's shard");
        assert_eq!(served.user_id, follower);
        drop(engine); // joins the survivor and the dead worker alike
    }

    #[test]
    fn an_engine_with_no_worker_left_refuses_jobs_instead_of_hanging_them() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start(m, store, 1, 8);
        let disconnected = Err(mpsc::RecvTimeoutError::Disconnected);
        let first = engine.submit(poisonous(0, 1));
        assert_eq!(first.recv_timeout(HANG), disconnected);
        // The only worker is dead or unwinding: a later job is either
        // dropped by its last sweep or refused on arrival, a lone one and
        // every job of a wave of three passes and five jobs (one worker,
        // `max_batch` 8: passes of 8) alike.
        let second = engine.submit(request(1, 2));
        assert_eq!(second.recv_timeout(HANG), disconnected);
        let wave = 0..3 * 8 + 5;
        let requests: Vec<PredictRequest> = wave.clone().map(|i| request(i as u64, i)).collect();
        for receiver in engine.submit_many(&requests) {
            assert_eq!(receiver.recv_timeout(HANG), disconnected);
        }
        let updates: Vec<UpdateRequest> = wave.map(|i| update(i as u64, i)).collect();
        for receiver in engine.submit_updates(&updates) {
            assert_eq!(
                receiver.recv_timeout(HANG),
                Err(mpsc::RecvTimeoutError::Disconnected)
            );
        }
        drop(engine);
    }

    #[test]
    fn a_poisoned_store_shard_fails_every_batch_that_touches_it() {
        // A lock that forgot the panic would serve all three from the
        // poisoned shard as if it were whole.
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        poison_shard_of(&store, UserId(0));
        let users = (1..256)
            .map(UserId)
            .filter(|&u| store.shard_index(u) == store.shard_index(UserId(0)));
        let users: Vec<UserId> = users.take(3).collect();
        let engine = BatchServingEngine::start(m, store, 2, 8);
        // The first two batches each kill the worker that serves them; the
        // third finds no worker left and is refused.
        for (user, i) in users.iter().zip(1..) {
            assert_eq!(
                engine.submit(request(user.0, i)).recv_timeout(HANG),
                Err(mpsc::RecvTimeoutError::Disconnected),
                "a batch over the poisoned shard served {user:?}"
            );
        }
        drop(engine);
    }

    #[test]
    fn engine_applies_updates_and_counts_them() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start(m.clone(), store.clone(), 2, 8);
        let updates: Vec<UpdateRequest> = (0..6).map(|i| update(7, i)).collect();
        for applied in engine.submit_updates(&updates) {
            applied.recv_timeout(HANG).expect("every update is applied");
        }
        // Sequential reference: same-user updates must chain in order, each
        // through the store.
        let mut h = m.initial_state();
        for u in &updates {
            h =
                as_stored(&m.advance_state(
                    &h,
                    &m.featurizer().update_input(
                        u.timestamp,
                        &u.context,
                        u.delta_t_secs,
                        u.accessed,
                    ),
                ));
        }
        let stored = store.get_state(UserId(7)).unwrap();
        for (a, b) in stored.iter().zip(&h) {
            assert!((a - b).abs() < 1e-6);
        }
        let stats = engine.stats();
        assert_eq!(stats.updates, 6);
        assert_eq!(stats.predictions, 0);
        let worker_updates: u64 = engine.worker_stats().iter().map(|w| w.updates).sum();
        assert_eq!(worker_updates, 6);
    }

    /// Workers and `max_batch` of the multi-pass tests' engine, and the
    /// pass they give: `submit_wave` queues `PASS` jobs per enqueue pass.
    const PASS_WORKERS: usize = 2;
    const PASS_BATCH: usize = 8;
    const PASS: usize = PASS_WORKERS * PASS_BATCH;

    fn pass_engine(store: Arc<ShardedStateStore>) -> (Arc<RnnModel>, BatchServingEngine) {
        let m = Arc::new(model());
        let engine = BatchServingEngine::start(m.clone(), store, PASS_WORKERS, PASS_BATCH);
        (m, engine)
    }

    #[test]
    fn submit_many_returns_in_request_order() {
        // Three passes and five jobs: the receivers of every pass line up
        // with their requests, each answer equal to the scheduler's.
        let requests: Vec<PredictRequest> = (0..3 * PASS as i64 + 5)
            .map(|i| request(i as u64, i))
            .collect();
        let store = Arc::new(ShardedStateStore::new(4));
        let (m, engine) = pass_engine(store.clone());
        let receivers = engine.submit_many(&requests);
        let reference = BatchScheduler::new(&m, &store, PASS_BATCH).run(requests.iter().copied());
        assert_eq!(receivers.len(), requests.len());
        for (receiver, expected) in receivers.into_iter().zip(reference) {
            let served = receiver
                .recv_timeout(HANG)
                .expect("every request is answered");
            assert_eq!(served, expected);
        }
    }

    #[test]
    fn a_multi_pass_update_wave_matches_the_scheduler_bit_for_bit() {
        // Seven users over 53 updates: each user repeats inside a pass and
        // across every pass boundary, so per-user order must hold between
        // passes as well as inside one.
        let updates: Vec<UpdateRequest> = (0..3 * PASS as i64 + 5)
            .map(|i| update(i as u64 % 7, i))
            .collect();
        let store = Arc::new(ShardedStateStore::new(4));
        let (m, engine) = pass_engine(store.clone());
        for applied in engine.submit_updates(&updates) {
            applied.recv_timeout(HANG).expect("every update is applied");
        }
        let reference = ShardedStateStore::new(4);
        BatchScheduler::new(&m, &reference, PASS_BATCH).apply_updates(&updates);
        for user in (0..7).map(UserId) {
            let (served, applied) = (store.get_state(user), reference.get_state(user));
            assert!(served.is_some(), "{user:?} has no stored state");
            assert_eq!(served, applied, "{user:?}");
        }
        assert_eq!(engine.stats().updates, updates.len() as u64);
    }

    #[test]
    fn a_multi_pass_wave_is_served_while_nobody_reads_its_replies() {
        // Every reply must go into its channel without waiting for a
        // reader: a send that blocked would stop its worker after its first
        // batch, and this wait would run into its bound instead of hanging.
        let requests: Vec<PredictRequest> = (0..10 * PASS as i64)
            .map(|i| request(i as u64 % 97, i))
            .collect();
        let (_, engine) = pass_engine(Arc::new(ShardedStateStore::new(4)));
        let receivers = engine.submit_many(&requests);
        wait_for("a worker stopped at a reply nobody read", || {
            (engine.stats().predictions == requests.len() as u64).then_some(())
        });
        for (receiver, request) in receivers.iter().zip(&requests) {
            let served = receiver.recv_timeout(HANG).expect("every reply was sent");
            assert_eq!(served.user_id, request.user_id);
        }
    }

    #[test]
    fn max_batch_one_is_the_single_request_baseline() {
        let m = model();
        let store = ShardedStateStore::new(2);
        let mut scheduler = BatchScheduler::new(&m, &store, 1);
        let results = scheduler.run((0..5).map(|i| request(i as u64, i)));
        assert_eq!(results.len(), 5);
        let stats = scheduler.stats();
        assert_eq!(stats.batches, 5);
        assert_eq!(stats.largest_batch, 1);
        assert!((stats.mean_batch_size() - 1.0).abs() < 1e-12);
    }
}
