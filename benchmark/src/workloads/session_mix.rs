//! `session_mix` — closed loop, writes beside reads on the same layers.
//!
//! Each round closes the previous round's 64 sessions (`submit_updates`)
//! and starts the next 64 (`submit_many`) in one pass, then harvests all
//! 128. Users come log-uniform by rank from 200 000 plus 15 % one-shot
//! visitors, over an LRU store bounded to 50 000 states: the GRU update
//! kernel, state write-back, `put` with eviction, store misses and
//! kind-boundary batch cuts all run here and nowhere else, so a store or
//! key-encoding change that helps reads and hurts writes shows.

use super::{
    build_model, harvest, plausible, warm_store, Gate, GateRound, Phase, Serving, Workload,
    GATE_OPS, SHARDS,
};
use crate::inputs::{Session, SessionStream};
use crate::rng::SplitMix64;
use pp_rnn::RnnModel;
use pp_serving::{EvictionPolicy, PredictRequest, ShardedStateStore, UpdateRequest};
use std::sync::Arc;

/// Sessions started (and closed) per round.
pub const ROUND: usize = 64;
const HIDDEN: usize = 128;
const RETURNING_USERS: u64 = 200_000;
const DRIVE_BY_SHARE: f64 = 0.15;
const CAPACITY: usize = 50_000;

fn bounded_store(model: &RnnModel, rng: &mut SplitMix64) -> ShardedStateStore {
    let store = ShardedStateStore::with_capacity_and_policy(SHARDS, CAPACITY, EvictionPolicy::Lru);
    // The most popular ranks are resident at start, as after a long uptime.
    warm_store(model, &store, rng, CAPACITY as u64);
    store
}

/// See the module docs.
#[derive(Debug)]
pub struct SessionMix {
    serving: Serving,
    /// The stream as it stood before the store was warmed.
    store_rng: SplitMix64,
    sessions: SessionStream,
    /// Sessions started last round, to be closed this round.
    open: Vec<Session>,
    closes: Vec<UpdateRequest>,
    starts: Vec<PredictRequest>,
    rounds: u64,
}

impl SessionMix {
    /// Builds model, pre-warmed bounded store, session stream and engine.
    pub fn set_up(seed: u64) -> Self {
        let mut rng = SplitMix64::for_workload(seed, "session_mix");
        let model = Arc::new(build_model(HIDDEN, rng.next_u64()));
        let store_rng = rng.clone();
        let store = Arc::new(bounded_store(&model, &mut rng));
        let serving = Serving::start(model, store, None);
        Self {
            serving,
            store_rng,
            sessions: SessionStream::new(rng, RETURNING_USERS, DRIVE_BY_SHARE),
            open: Vec::with_capacity(ROUND),
            closes: Vec::with_capacity(ROUND),
            starts: Vec::with_capacity(ROUND),
            rounds: 0,
        }
    }

    /// Moves to the next round: last round's sessions become this round's
    /// closes, and [`ROUND`] fresh sessions start.
    fn next_round(&mut self) {
        self.closes.clear();
        self.closes.extend(self.open.iter().map(Session::close));
        self.open.clear();
        self.open.extend(self.sessions.by_ref().take(ROUND));
        self.starts.clear();
        self.starts.extend(self.open.iter().map(Session::start));
        self.rounds += 1;
    }
}

impl Workload for SessionMix {
    fn serving(&self) -> &Serving {
        &self.serving
    }

    fn constants(&self) -> String {
        format!(
            "closed loop, round {ROUND} closes + {ROUND} starts, H {HIDDEN}, {RETURNING_USERS} ranked users \
             + {DRIVE_BY_SHARE} drive-by, LRU store of {CAPACITY} (ranks below it pre-warmed)"
        )
    }

    /// The reference replays each round's ops one at a time. That matches
    /// the engine's batched order exactly: every user a round closes was
    /// read by the round before, so it is among the newest entries of its
    /// shard and an eviction inside the batch can never pick it.
    fn gate(&mut self) -> Gate {
        let reference = bounded_store(&self.serving.model, &mut self.store_rng.clone());
        let mut rounds: Vec<GateRound> = Vec::new();
        let mut ops = 0;
        while ops < GATE_OPS {
            self.next_round();
            ops += self.closes.len() + self.starts.len();
            rounds.push((self.closes.clone(), self.starts.clone()));
        }
        self.serving.gate(&reference, &rounds)
    }

    fn step(&mut self, phase: &mut Phase) {
        self.next_round();
        let round = phase.spans.begin();
        let submitted_ns = phase.now_ns();
        let submit = phase.spans.begin();
        let closed = self.serving.engine.submit_updates(&self.closes);
        let started = self.serving.engine.submit_many(&self.starts);
        phase
            .spans
            .end(submit, "client.submit", round.id, self.rounds);
        let wait = phase.spans.begin();
        for reply in &closed {
            match harvest(reply, phase) {
                Some(()) => {
                    let now_ns = phase.now_ns();
                    phase.succeed(now_ns, now_ns - submitted_ns, 1);
                }
                None => phase.fail(1),
            }
        }
        for (request, reply) in self.starts.iter().zip(&started) {
            match harvest(reply, phase) {
                Some(got) if plausible(request, &got) => {
                    let now_ns = phase.now_ns();
                    phase.succeed(now_ns, now_ns - submitted_ns, 1);
                }
                _ => phase.fail(1),
            }
        }
        phase.spans.end(wait, "client.wait", round.id, self.rounds);
        phase.spans.end(round, "round", 0, self.rounds);
    }
}
