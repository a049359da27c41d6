//! Multi-worker stress: four client threads drive four engine workers with
//! interleaved predictions and updates, and every result must match the
//! single-threaded sequential reference to 1e-6 — shard claims, work
//! stealing, coalesce holds and per-shard FIFO draining may reorder work
//! *across* users, but never within one.

use pp_data::schema::{Context, DatasetKind, Tab, UserId};
use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
use pp_serving::{BatchServingEngine, PredictRequest, ShardedStateStore, UpdateRequest};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 4;
const WORKERS: usize = 4;
const USERS_PER_CLIENT: u64 = 12;
const ROUNDS: i64 = 6;
/// Bounds every reply wait, so that a hang fails the test instead of
/// blocking it.
const HANG: Duration = Duration::from_secs(10);

fn model() -> RnnModel {
    RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::tiny(),
        7,
    )
}

fn context(i: i64) -> Context {
    Context::MobileTab {
        unread_count: (i % 9) as u8,
        active_tab: Tab::ALL[(i as usize) % Tab::ALL.len()],
    }
}

fn predict_request(client: usize, user: u64, round: i64) -> PredictRequest {
    let i = round * USERS_PER_CLIENT as i64 + user as i64;
    PredictRequest {
        user_id: UserId(client as u64 * 1_000 + user),
        timestamp: 50_000 + i * 31,
        context: context(i + client as i64),
        elapsed_secs: 120 + i,
    }
}

fn update_request(client: usize, user: u64, round: i64) -> UpdateRequest {
    let i = round * USERS_PER_CLIENT as i64 + user as i64;
    UpdateRequest {
        user_id: UserId(client as u64 * 1_000 + user),
        timestamp: 50_000 + i * 31,
        context: context(i + client as i64),
        delta_t_secs: 300 + i,
        accessed: (i + client as i64) % 3 == 0,
    }
}

#[test]
fn concurrent_clients_match_the_sequential_reference() {
    // An engine that serves each batch as soon as it is gathered, and one
    // that holds partial batches open for `predict_open`'s window.
    for coalesce_wait in [None, Some(Duration::from_micros(200))] {
        serve_and_check(coalesce_wait);
    }
}

fn serve_and_check(coalesce_wait: Option<Duration>) {
    let m = Arc::new(model());
    let store = Arc::new(ShardedStateStore::new(8));
    let engine = Arc::new(BatchServingEngine::start_with_coalesce(
        m.clone(),
        store.clone(),
        WORKERS,
        8,
        coalesce_wait,
    ));

    // Each client owns a disjoint user range and submits, per round, one
    // batch of predictions followed by one batch of updates — without
    // waiting for the predictions before the updates go in, so the engine
    // must enforce per-user ordering itself.
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                let mut probabilities = Vec::new();
                for round in 0..ROUNDS {
                    let predicts: Vec<PredictRequest> = (0..USERS_PER_CLIENT)
                        .map(|u| predict_request(client, u, round))
                        .collect();
                    let updates: Vec<UpdateRequest> = (0..USERS_PER_CLIENT)
                        .map(|u| update_request(client, u, round))
                        .collect();
                    let predict_receivers = engine.submit_many(&predicts);
                    let update_receivers = engine.submit_updates(&updates);
                    for receiver in predict_receivers {
                        let prediction = receiver
                            .recv_timeout(HANG)
                            .expect("every prediction is answered");
                        probabilities.push(prediction.probability);
                    }
                    for receiver in update_receivers {
                        receiver
                            .recv_timeout(HANG)
                            .expect("every update is applied");
                    }
                }
                probabilities
            })
        })
        .collect();
    let served: Vec<Vec<f64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Sequential reference, one user at a time, each state stored in a
    // store of its own between an update and the next read of it.
    let reference = ShardedStateStore::new(1);
    for (client, probabilities) in served.iter().enumerate() {
        for user in 0..USERS_PER_CLIENT {
            let mut state = m.initial_state();
            for round in 0..ROUNDS {
                let p = predict_request(client, user, round);
                let input = m
                    .featurizer()
                    .predict_input(p.timestamp, &p.context, p.elapsed_secs);
                let expected = m.predict_proba(&state, &input);
                let got = probabilities[(round * USERS_PER_CLIENT as i64 + user as i64) as usize];
                assert!(
                    (got - expected).abs() < 1e-6,
                    "{coalesce_wait:?}: client {client} user {user} round {round}: \
                     engine {got} vs reference {expected}"
                );
                let u = update_request(client, user, round);
                let next = m.advance_state(
                    &state,
                    &m.featurizer().update_input(
                        u.timestamp,
                        &u.context,
                        u.delta_t_secs,
                        u.accessed,
                    ),
                );
                reference.put_state(u.user_id, &next);
                state = reference.get_state(u.user_id).unwrap();
            }
            // The stored hidden state equals the reference chain's end.
            let stored = store
                .get_state(UserId(client as u64 * 1_000 + user))
                .unwrap();
            for (a, b) in stored.iter().zip(&state) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    let total = CLIENTS as u64 * USERS_PER_CLIENT * ROUNDS as u64;
    let stats = engine.stats();
    assert_eq!(stats.predictions, total);
    assert_eq!(stats.updates, total);
    // Per-worker counters partition the aggregate counters exactly.
    let workers = engine.worker_stats();
    assert_eq!(workers.len(), WORKERS);
    assert_eq!(workers.iter().map(|w| w.predictions).sum::<u64>(), total);
    assert_eq!(workers.iter().map(|w| w.updates).sum::<u64>(), total);
    assert_eq!(
        workers.iter().map(|w| w.batches).sum::<u64>(),
        stats.batches
    );
}
