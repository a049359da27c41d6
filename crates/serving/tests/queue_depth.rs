//! An engine's queue depth, read from the engine ([`BatchServingEngine::queued`]):
//! its range under concurrent `submit_many`, and 0 once the last worker
//! has died.
//!
//! The range check was written for a race on the engine's old `queued`
//! counter (ROADMAP Open item 1), which a worker could drain below zero:
//! debug builds panicked the worker, release builds published ~1.8e19.
//! That race can no longer happen, since the depth is the sum of the shard
//! queues' lengths. The closed check pins the last worker's sweep: the jobs
//! it drops, and the jobs `enqueue` refuses after it, leave the depth. A
//! depth written only on submit and after each drain read those jobs for
//! ever once the last worker had died.
//!
//! Each test reads its own engine, so the two share a file and a process.

use pp_data::schema::{Context, DatasetKind, Tab, UserId};
use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
use pp_serving::{BatchServingEngine, PredictRequest, ShardedStateStore};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const WAVE: usize = 24;
const WAVES: usize = 300;

/// Bounds a wait only so that a hang fails the test instead of blocking
/// it; a disconnect returns at once.
const HANG: Duration = Duration::from_secs(10);

fn model() -> Arc<RnnModel> {
    Arc::new(RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::tiny(),
        3,
    ))
}

fn request(user: u64) -> PredictRequest {
    PredictRequest {
        user_id: UserId(user),
        timestamp: 10_000,
        context: Context::MobileTab {
            unread_count: 1,
            active_tab: Tab::Home,
        },
        elapsed_secs: 60,
    }
}

#[test]
fn queue_depth_never_exceeds_jobs_in_flight_under_concurrent_submit_many() {
    let store = Arc::new(ShardedStateStore::new(8));
    let engine = BatchServingEngine::start(model(), store, 2, 16);
    // Each client has at most one wave outstanding.
    let in_flight_bound = CLIENTS * WAVE;
    let check_depth = |when: &str| {
        let depth = engine.queued();
        assert!(
            depth <= in_flight_bound,
            "queue depth {depth} {when}, with at most {in_flight_bound} jobs in flight"
        );
    };
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (engine, check_depth) = (&engine, &check_depth);
            scope.spawn(move || {
                for wave in 0..WAVES {
                    let requests: Vec<PredictRequest> = (0..WAVE)
                        .map(|i| PredictRequest {
                            user_id: UserId((client * 1_000 + (wave * WAVE + i) % 97) as u64),
                            timestamp: 10_000 + (wave * WAVE + i) as i64,
                            context: Context::MobileTab {
                                unread_count: (i % 9) as u8,
                                active_tab: Tab::ALL[i % Tab::ALL.len()],
                            },
                            elapsed_secs: 60,
                        })
                        .collect();
                    let replies = engine.submit_many(&requests);
                    check_depth("after a submit");
                    for reply in replies {
                        // A worker that hit the underflow assertion is dead
                        // and still holds its shard claims.
                        reply
                            .recv_timeout(Duration::from_secs(20))
                            .expect("reply lost: a worker died or stalled");
                    }
                    check_depth("after a harvest");
                }
            });
        }
    });
    assert_eq!(
        engine.stats().predictions,
        (CLIENTS * WAVES * WAVE) as u64,
        "every request is served exactly once"
    );
}

#[test]
fn queue_depth_reads_zero_once_the_last_worker_has_died() {
    let store = Arc::new(ShardedStateStore::new(4));
    let engine = BatchServingEngine::start(model(), store.clone(), 1, 8);
    // The store's first put fixes its width at 3, so reading user 0 into a
    // model-width batch panics the engine's only worker.
    store.put_state(UserId(0), &[0.0; 3]);
    let disconnected = Err(RecvTimeoutError::Disconnected);
    // Two passes of 8 of user 0's predicts, all in one shard queue: the
    // batch that takes the first 8 panics, and the second pass waits behind
    // it for the dying worker's sweep to drop it (or is refused, if the
    // sweep came first).
    for reply in engine.submit_many(&[request(0); 16]) {
        assert_eq!(reply.recv_timeout(HANG), disconnected);
    }
    // Refused on arrival, or dropped by the dying worker's sweep.
    assert_eq!(engine.submit(request(1)).recv_timeout(HANG), disconnected);
    // The reply disconnects when the dying worker's batch drops, which may
    // come before its sweep has reached every queue.
    let started = Instant::now();
    while engine.queued() != 0 {
        assert!(
            started.elapsed() < HANG,
            "{} jobs still counted queued on an engine with no worker",
            engine.queued()
        );
        std::thread::yield_now();
    }
}
