//! Proof that the batched serving path is a pure optimization: replaying
//! the same users and the same session sequences through the batched
//! scheduler and through the single-request path yields identical
//! probabilities (within 1e-6) and identical hidden states.

use predictive_precompute::data::schema::{DatasetKind, UserId};
use predictive_precompute::data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
use predictive_precompute::rnn::{RnnModel, RnnModelConfig, TaskKind};
use predictive_precompute::serving::{
    BatchScheduler, PredictRequest, ShardedStateStore, UpdateRequest,
};
use std::collections::HashMap;

#[test]
fn batched_replay_matches_single_request_replay() {
    let dataset = MobileTabGenerator::new(MobileTabConfig {
        num_users: 30,
        num_days: 8,
        ..Default::default()
    })
    .generate();
    let model = RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::tiny(),
        21,
    );

    // Global timestamp order, as the serving pipeline replays traffic.
    let mut events: Vec<(i64, usize, usize)> = Vec::new();
    for (ui, user) in dataset.users.iter().enumerate() {
        for (si, session) in user.sessions.iter().enumerate() {
            events.push((session.timestamp, ui, si));
        }
    }
    events.sort_unstable();

    // Single-request reference: one predict_proba / advance_state call per
    // session, each user's state kept in a one-shard store of its own
    // (which rounds it to bf16 as the serving store does).
    let single_states = ShardedStateStore::new(1);
    let mut single_last_ts: HashMap<UserId, i64> = HashMap::new();
    let mut single_probs: Vec<f64> = Vec::new();

    // Batched path: sharded store + scheduler, flushed one wave per day so
    // every wave holds many concurrent session starts.
    let store = ShardedStateStore::new(8);
    let mut scheduler = BatchScheduler::new(&model, &store, 16);
    let mut batched_probs: Vec<f64> = Vec::new();
    let mut batched_last_ts: HashMap<UserId, i64> = HashMap::new();

    let mut day_start = 0;
    while day_start < events.len() {
        let day = events[day_start].0 / predictive_precompute::data::SECONDS_PER_DAY;
        let mut day_end = day_start;
        while day_end < events.len()
            && events[day_end].0 / predictive_precompute::data::SECONDS_PER_DAY == day
        {
            day_end += 1;
        }
        let day_events = &events[day_start..day_end];

        // --- single-request path: predictions for the day ---
        for &(ts, ui, si) in day_events {
            let session = &dataset.users[ui].sessions[si];
            let user_id = dataset.users[ui].user_id;
            let state = single_states
                .get_state(user_id)
                .unwrap_or_else(|| model.initial_state());
            let elapsed = ts - single_last_ts.get(&user_id).copied().unwrap_or(ts);
            let input = model
                .featurizer()
                .predict_input(ts, &session.context, elapsed);
            single_probs.push(model.predict_proba(&state, &input));
        }

        // --- batched path: one coalesced wave for the same day ---
        let wave: Vec<PredictRequest> = day_events
            .iter()
            .map(|&(ts, ui, si)| {
                let session = &dataset.users[ui].sessions[si];
                let user_id = dataset.users[ui].user_id;
                PredictRequest {
                    user_id,
                    timestamp: ts,
                    context: session.context,
                    elapsed_secs: ts - batched_last_ts.get(&user_id).copied().unwrap_or(ts),
                }
            })
            .collect();
        batched_probs.extend(scheduler.run(wave).into_iter().map(|p| p.probability));

        // --- end of day: both paths fold the day's outcomes into states ---
        for &(ts, ui, si) in day_events {
            let session = &dataset.users[ui].sessions[si];
            let user_id = dataset.users[ui].user_id;
            let state = single_states
                .get_state(user_id)
                .unwrap_or_else(|| model.initial_state());
            let delta = ts - single_last_ts.get(&user_id).copied().unwrap_or(ts);
            let input =
                model
                    .featurizer()
                    .update_input(ts, &session.context, delta, session.accessed);
            single_states.put_state(user_id, &model.advance_state(&state, &input));
            single_last_ts.insert(user_id, ts);
        }
        let updates: Vec<UpdateRequest> = day_events
            .iter()
            .map(|&(ts, ui, si)| {
                let session = &dataset.users[ui].sessions[si];
                let user_id = dataset.users[ui].user_id;
                let delta = ts - batched_last_ts.get(&user_id).copied().unwrap_or(ts);
                batched_last_ts.insert(user_id, ts);
                UpdateRequest {
                    user_id,
                    timestamp: ts,
                    context: session.context,
                    delta_t_secs: delta,
                    accessed: session.accessed,
                }
            })
            .collect();
        scheduler.apply_updates(&updates);

        day_start = day_end;
    }

    // Same users, same sequences -> identical probabilities within 1e-6.
    assert_eq!(single_probs.len(), batched_probs.len());
    assert_eq!(single_probs.len(), dataset.num_sessions());
    for (i, (s, b)) in single_probs.iter().zip(&batched_probs).enumerate() {
        assert!(
            (s - b).abs() < 1e-6,
            "prediction {i}: single {s} vs batched {b}"
        );
    }

    // And the final hidden states agree user-by-user.
    assert_eq!(store.len(), single_states.len());
    for user_id in single_last_ts.keys() {
        let single_state = single_states.get_state(*user_id).unwrap();
        let batched_state = store
            .get_state(*user_id)
            .unwrap_or_else(|| panic!("batched store lost {user_id}"));
        for (a, b) in single_state.iter().zip(&batched_state) {
            assert!((a - b).abs() < 1e-6, "state drift for {user_id}");
        }
    }

    // The batched path really batched: far fewer forward passes than
    // requests.
    let stats = scheduler.stats();
    assert_eq!(
        stats.predictions as usize + stats.updates as usize,
        2 * dataset.num_sessions()
    );
    assert!(
        (stats.batches as usize) < dataset.num_sessions(),
        "expected coalescing: {} forward passes for {} sessions",
        stats.batches,
        dataset.num_sessions()
    );
    assert!(stats.largest_batch > 1);
}
