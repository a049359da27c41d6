//! Pins `serving.queue_depth`'s range under concurrent `submit_many`. It was
//! written for a race on the engine's old `queued` counter (ROADMAP Open
//! item 1), which a worker could drain below zero: debug builds panicked
//! the worker, release builds published ~1.8e19. That race can no longer
//! happen, since the gauge is now the sum of the shard queues' lengths.
//!
//! Alone in its file, so no other test's engine writes the global gauge.

use pp_data::schema::{Context, DatasetKind, Tab, UserId};
use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
use pp_serving::{BatchServingEngine, PredictRequest, ServingObs, ShardedStateStore};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 4;
const WAVE: usize = 24;
const WAVES: usize = 300;

#[test]
fn queue_depth_never_exceeds_jobs_in_flight_under_concurrent_submit_many() {
    let model = Arc::new(RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::tiny(),
        3,
    ));
    let store = Arc::new(ShardedStateStore::new(8));
    let engine = BatchServingEngine::start(model, store, 2, 16);
    let gauge = &ServingObs::global().queue_depth;
    // Each client has at most one wave outstanding.
    let in_flight_bound = (CLIENTS * WAVE) as f64;
    let check_gauge = |when: &str| {
        let depth = gauge.get();
        assert!(
            (0.0..=in_flight_bound).contains(&depth),
            "queue_depth {depth} {when}, with at most {in_flight_bound} jobs in flight"
        );
    };
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (engine, check_gauge) = (&engine, &check_gauge);
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
                    check_gauge("after a submit");
                    for reply in replies {
                        // A worker that hit the underflow assertion is dead
                        // and still holds its shard claims.
                        reply
                            .recv_timeout(Duration::from_secs(20))
                            .expect("reply lost: a worker died or stalled");
                    }
                    check_gauge("after a harvest");
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
