//! `predict_wave` — closed loop, read-only, full batches.
//!
//! `submit_many(256)` then harvest all 256, at the paper's model size
//! (H = 128) over 20 000 warmed users. Batches run near full, so the
//! `pp-nn` / `pp-rnn` forward pass is the largest single cost and the
//! per-request channel and hand-off are the rest: the workload where a
//! fused kernel or a per-wave completion slot has to show.

use super::{
    build_model, harvest, plausible, warm_store, Gate, Phase, Serving, Workload, GATE_OPS, SHARDS,
    TOLERANCE,
};
use crate::inputs;
use crate::rng::SplitMix64;
use pp_rnn::RnnModel;
use pp_serving::{PredictRequest, Prediction, ShardedStateStore};
use std::sync::Arc;

/// Requests submitted per wave.
pub const WAVE: usize = 256;
/// Users with a stored state.
pub const USERS: u64 = 20_000;
/// Requests in the replayed ring (a multiple of [`WAVE`]).
pub const RING: usize = 262_144;
const HIDDEN: usize = 128;

/// The store both ring workloads serve from, rebuilt identically from the
/// same point of the stream for the gate's reference.
pub fn ring_store(model: &RnnModel, rng: &mut SplitMix64) -> ShardedStateStore {
    let store = ShardedStateStore::new(SHARDS);
    warm_store(model, &store, rng, USERS);
    store
}

/// The store is never written after set-up, so a ring slot has one right
/// answer: the first reply seen for a slot is remembered (the gate checks
/// the first [`GATE_OPS`] slots against the reference) and every later lap
/// must repeat it within [`TOLERANCE`], whatever batch it lands in.
#[derive(Debug)]
pub struct RingAnswers(Vec<f64>);

impl RingAnswers {
    /// No slot answered yet.
    pub fn new(slots: usize) -> Self {
        Self(vec![f64::NAN; slots])
    }

    /// Whether `reply` is a correct answer to ring slot `slot`.
    pub fn accept(&mut self, slot: usize, request: &PredictRequest, reply: &Prediction) -> bool {
        if !plausible(request, reply) {
            return false;
        }
        let first = &mut self.0[slot];
        if first.is_nan() {
            *first = reply.probability;
        }
        (*first - reply.probability).abs() <= TOLERANCE
    }
}

/// See the module docs.
#[derive(Debug)]
pub struct PredictWave {
    serving: Serving,
    /// The stream as it stood before the store was warmed.
    store_rng: SplitMix64,
    ring: Vec<PredictRequest>,
    answers: RingAnswers,
    cursor: usize,
    waves: u64,
}

impl PredictWave {
    /// Builds model, warmed store, request ring and engine from the seed.
    pub fn set_up(seed: u64) -> Self {
        let mut rng = SplitMix64::for_workload(seed, "predict_wave");
        let model = Arc::new(build_model(HIDDEN, rng.next_u64()));
        let store_rng = rng.clone();
        let store = Arc::new(ring_store(&model, &mut rng));
        let ring = inputs::predict_ring(&mut rng, RING, USERS);
        let serving = Serving::start(model, store, None);
        Self {
            serving,
            store_rng,
            ring,
            answers: RingAnswers::new(RING),
            cursor: 0,
            waves: 0,
        }
    }
}

impl Workload for PredictWave {
    fn serving(&self) -> &Serving {
        &self.serving
    }

    fn constants(&self) -> String {
        format!("closed loop, wave {WAVE}, H {HIDDEN}, {USERS} warmed users, unbounded store, ring {RING}")
    }

    fn gate(&mut self) -> Gate {
        let reference = ring_store(&self.serving.model, &mut self.store_rng.clone());
        let rounds: Vec<_> = self.ring[..GATE_OPS]
            .chunks(WAVE)
            .map(|wave| (Vec::new(), wave.to_vec()))
            .collect();
        self.serving.gate(&reference, &rounds)
    }

    fn step(&mut self, phase: &mut Phase) {
        self.waves += 1;
        let requests = &self.ring[self.cursor..self.cursor + WAVE];
        let wave = phase.spans.begin();
        let submitted_ns = phase.now_ns();
        let submit = phase.spans.begin();
        let replies = self.serving.engine.submit_many(requests);
        phase
            .spans
            .end(submit, "client.submit", wave.id, self.waves);
        let wait = phase.spans.begin();
        for (i, (request, reply)) in requests.iter().zip(&replies).enumerate() {
            match harvest(reply, phase) {
                Some(got) if self.answers.accept(self.cursor + i, request, &got) => {
                    let now_ns = phase.now_ns();
                    phase.succeed(now_ns, now_ns - submitted_ns, 1);
                }
                _ => phase.fail(1),
            }
        }
        phase.spans.end(wait, "client.wait", wave.id, self.waves);
        phase.spans.end(wave, "wave", 0, self.waves);
        self.cursor = (self.cursor + WAVE) % RING;
    }
}
