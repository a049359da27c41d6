//! Discrete-event simulation of the production serving pipeline of §9:
//!
//! 1. At session start, the predictor fetches the user's hidden state from
//!    the key-value store, runs `RNN_predict`, and precomputes when the
//!    probability exceeds a threshold.
//! 2. Context variables and (later) the access flag are sent to a stream
//!    processor keyed by session id; when the session-length timer fires,
//!    the joined `(context, access flag)` record triggers `RNN_update` and a
//!    write of the new hidden state.
//!
//! The simulator replays a dataset's sessions in timestamp order, maintains
//! the stream-join buffer and timers explicitly, and reports both accuracy
//! (successful/wasted prefetches) and systems counters (store traffic,
//! FLOPs).

use crate::sharded::ShardedStateStore;
use pp_data::schema::{Dataset, UserId};
use pp_rnn::sequence::LagConfig;
use pp_rnn::RnnModel;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Outcome counters of a serving replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ServingOutcome {
    /// Sessions replayed (= predictions served).
    pub predictions: u64,
    /// Precomputations triggered (score ≥ threshold).
    pub precomputes: u64,
    /// Precomputations followed by an actual access ("successful
    /// prefetches").
    pub successful_prefetches: u64,
    /// Precomputations not followed by an access (wasted work).
    pub wasted_prefetches: u64,
    /// Accesses that were not precomputed (missed opportunities).
    pub missed_accesses: u64,
    /// Total accesses observed.
    pub accesses: u64,
    /// Hidden-state updates executed by the stream processor.
    pub hidden_updates: u64,
    /// Total prediction FLOPs.
    pub predict_flops: u64,
    /// Total update FLOPs.
    pub update_flops: u64,
}

impl ServingOutcome {
    /// Precision of the triggered precomputations.
    pub fn precision(&self) -> f64 {
        if self.precomputes == 0 {
            0.0
        } else {
            self.successful_prefetches as f64 / self.precomputes as f64
        }
    }

    /// Recall over all accesses ("% of accesses that were successfully
    /// precomputed" — the paper's proxy for latency wins).
    pub fn recall(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.successful_prefetches as f64 / self.accesses as f64
        }
    }
}

/// An event buffered by the stream processor, keyed by session id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BufferedSession {
    user_id: UserId,
    user_index: usize,
    session_index: usize,
    start_ts: i64,
    accessed: bool,
}

/// The serving pipeline simulator.
#[derive(Debug)]
pub struct ServingPipeline<'a> {
    model: &'a RnnModel,
    /// One shard: the §9 pipeline has a single store.
    store: ShardedStateStore,
    lag: LagConfig,
    threshold: f64,
    /// Stream-join buffer: timer fire time → sessions whose window closes
    /// then.
    timers: BTreeMap<i64, Vec<BufferedSession>>,
    /// Timestamp of the last session already folded into each user's stored
    /// hidden state (needed for the `T(t_i − t_k)` prediction input).
    last_update_ts: HashMap<UserId, i64>,
    /// Context lookup for buffered sessions (populated by `replay`); in the
    /// real pipeline the context arrives as a stream message keyed by
    /// session id.
    pending_context: HashMap<(usize, usize), pp_data::schema::Context>,
    outcome: ServingOutcome,
}

impl<'a> ServingPipeline<'a> {
    /// Creates a pipeline around a trained model.
    pub fn new(model: &'a RnnModel, threshold: f64) -> Self {
        let lag = LagConfig::for_kind(model.kind());
        Self {
            model,
            store: ShardedStateStore::new(1),
            lag,
            threshold,
            timers: BTreeMap::new(),
            last_update_ts: HashMap::new(),
            pending_context: HashMap::new(),
            outcome: ServingOutcome::default(),
        }
    }

    /// The decision threshold in use.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The hidden-state store (for inspecting traffic counters).
    pub fn store(&self) -> &ShardedStateStore {
        &self.store
    }

    /// Counters accumulated so far.
    pub fn outcome(&self) -> ServingOutcome {
        self.outcome
    }

    /// Number of sessions still buffered waiting for their window to close.
    pub fn pending_sessions(&self) -> usize {
        self.timers.values().map(std::vec::Vec::len).sum()
    }

    fn fire_timers_up_to(&mut self, now: i64) {
        // Timers strictly before `now` have fired: the session window closed
        // and the stream processor joined context + access flag.
        let due: Vec<i64> = self.timers.range(..=now).map(|(&t, _)| t).collect();
        for t in due {
            let sessions = self.timers.remove(&t).unwrap_or_default();
            for s in sessions {
                self.apply_update(&s);
            }
        }
    }

    fn apply_update(&mut self, buffered: &BufferedSession) {
        let prev_state = self
            .store
            .get_state(buffered.user_id)
            .unwrap_or_else(|| self.model.initial_state());
        let prev_ts = self.last_update_ts.get(&buffered.user_id).copied();
        let delta_t = prev_ts.map_or(0, |t| (buffered.start_ts - t).max(0));
        // The update input needs the original context; we fetch it lazily via
        // the stored session reference held by the caller (see `replay`).
        let context = self.pending_context[&(buffered.user_index, buffered.session_index)];
        let update_input = self.model.featurizer().update_input(
            buffered.start_ts,
            &context,
            delta_t,
            buffered.accessed,
        );
        let next = self.model.advance_state(&prev_state, &update_input);
        self.store.put_state(buffered.user_id, &next);
        self.last_update_ts
            .insert(buffered.user_id, buffered.start_ts);
        self.outcome.hidden_updates += 1;
        self.outcome.update_flops += self.model.update_flops();
    }

    /// Replays every session of the selected users in global timestamp
    /// order, serving a prediction at each session start and advancing
    /// hidden states when session windows close. Returns the accumulated
    /// outcome.
    pub fn replay(&mut self, dataset: &Dataset, user_indices: &[usize]) -> ServingOutcome {
        // Gather (timestamp, user_index, session_index) triples and sort.
        let mut events: Vec<(i64, usize, usize)> = Vec::new();
        for &ui in user_indices {
            for (si, s) in dataset.users[ui].sessions.iter().enumerate() {
                events.push((s.timestamp, ui, si));
            }
        }
        events.sort_unstable();
        // Stash contexts for the update path (the stream processor receives
        // them as messages; here we look them up by (user, session)).
        self.pending_context = events
            .iter()
            .map(|&(_, ui, si)| ((ui, si), dataset.users[ui].sessions[si].context))
            .collect();

        for (ts, ui, si) in events {
            // 1. Close any session windows that have elapsed.
            self.fire_timers_up_to(ts - self.lag.delta());
            let session = &dataset.users[ui].sessions[si];
            let user_id = dataset.users[ui].user_id;

            // 2. Serve the prediction from the stored hidden state.
            let state = self
                .store
                .get_state(user_id)
                .unwrap_or_else(|| self.model.initial_state());
            let last_ts = self.last_update_ts.get(&user_id).copied();
            let elapsed = last_ts.map_or(0, |t| (ts - t).max(0));
            let predict_input =
                self.model
                    .featurizer()
                    .predict_input(ts, &session.context, elapsed);
            let score = self.model.predict_proba(&state, &predict_input);
            self.outcome.predictions += 1;
            self.outcome.predict_flops += self.model.predict_flops();
            let precompute = score >= self.threshold;
            if precompute {
                self.outcome.precomputes += 1;
            }
            if session.accessed {
                self.outcome.accesses += 1;
                if precompute {
                    self.outcome.successful_prefetches += 1;
                } else {
                    self.outcome.missed_accesses += 1;
                }
            } else if precompute {
                self.outcome.wasted_prefetches += 1;
            }

            // 3. Buffer the session; its timer fires after the session
            //    window closes plus the update latency.
            let fire_at = ts + self.lag.delta();
            self.timers
                .entry(fire_at)
                .or_default()
                .push(BufferedSession {
                    user_id,
                    user_index: ui,
                    session_index: si,
                    start_ts: ts,
                    accessed: session.accessed,
                });
        }
        // Drain remaining timers.
        self.fire_timers_up_to(i64::MAX);
        self.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::schema::DatasetKind;
    use pp_data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
    use pp_rnn::{RnnModelConfig, TaskKind};

    fn dataset() -> Dataset {
        MobileTabGenerator::new(MobileTabConfig {
            num_users: 8,
            num_days: 5,
            ..Default::default()
        })
        .generate()
    }

    fn model() -> RnnModel {
        RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig::tiny(),
            3,
        )
    }

    #[test]
    fn replay_counts_are_consistent() {
        let ds = dataset();
        let m = model();
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let mut pipeline = ServingPipeline::new(&m, 0.1);
        let outcome = pipeline.replay(&ds, &idx);
        assert_eq!(outcome.predictions as usize, ds.num_sessions());
        assert_eq!(outcome.accesses as usize, ds.num_accesses());
        assert_eq!(
            outcome.successful_prefetches + outcome.wasted_prefetches,
            outcome.precomputes
        );
        assert_eq!(
            outcome.successful_prefetches + outcome.missed_accesses,
            outcome.accesses
        );
        // Every session eventually updates the hidden state.
        assert_eq!(outcome.hidden_updates as usize, ds.num_sessions());
        assert_eq!(pipeline.pending_sessions(), 0);
        // One hidden state per user ends up in the store.
        assert_eq!(pipeline.store().len(), idx.len().min(ds.num_users()));
    }

    #[test]
    fn threshold_extremes_trigger_all_or_nothing() {
        let ds = dataset();
        let m = model();
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let all = ServingPipeline::new(&m, 0.0).replay(&ds, &idx);
        assert_eq!(all.precomputes, all.predictions);
        assert!((all.recall() - 1.0).abs() < 1e-12 || all.accesses == 0);
        let none = ServingPipeline::new(&m, 1.1).replay(&ds, &idx);
        assert_eq!(none.precomputes, 0);
        assert_eq!(none.missed_accesses, none.accesses);
    }

    #[test]
    fn store_traffic_is_one_read_per_prediction_and_one_write_per_update() {
        let ds = dataset();
        let m = model();
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let mut pipeline = ServingPipeline::new(&m, 0.5);
        let outcome = pipeline.replay(&ds, &idx);
        let stats = pipeline.store().stats();
        // One get per prediction plus one get per update (read-modify-write).
        assert_eq!(stats.reads, outcome.predictions + outcome.hidden_updates);
        assert_eq!(stats.writes, outcome.hidden_updates);
        // Stored values are the model's state size.
        assert_eq!(
            pipeline.store().stored_bytes(),
            (pipeline.store().len() * m.state_bytes()) as u64
        );
    }

    #[test]
    fn flop_accounting_scales_with_traffic() {
        let ds = dataset();
        let m = model();
        let idx: Vec<usize> = (0..2).collect();
        let outcome = ServingPipeline::new(&m, 0.5).replay(&ds, &idx);
        assert_eq!(
            outcome.predict_flops,
            outcome.predictions * m.predict_flops()
        );
        assert_eq!(
            outcome.update_flops,
            outcome.hidden_updates * m.update_flops()
        );
    }
}
