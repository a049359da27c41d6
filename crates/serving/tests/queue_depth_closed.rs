//! `serving.queue_depth` once the engine has closed: the jobs the last
//! worker's sweep drops, and the jobs `enqueue` refuses after it, leave the
//! gauge. It used to be set only on submit and after each drain, so it read
//! those jobs for ever once the last worker had died.
//!
//! Alone in its file, so no other test's engine writes the global gauge
//! (see `queue_depth.rs`).

use pp_data::schema::{Context, DatasetKind, Tab, UserId};
use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
use pp_serving::{BatchServingEngine, PredictRequest, ServingObs, ShardedStateStore};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

/// Bounds a wait only so that a hang fails the test instead of blocking
/// it; a disconnect returns at once.
const HANG: Duration = Duration::from_secs(10);

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
fn queue_depth_reads_zero_once_the_last_worker_has_died() {
    let model = Arc::new(RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::tiny(),
        3,
    ));
    let store = Arc::new(ShardedStateStore::new(4));
    let engine = BatchServingEngine::start(model, store.clone(), 1, 8);
    // The store's first put fixes its width at 3, so reading user 0 into a
    // model-width batch panics the engine's only worker.
    store.put_state(UserId(0), &[0.0; 3]);
    let disconnected = Err(RecvTimeoutError::Disconnected);
    assert_eq!(engine.submit(request(0)).recv_timeout(HANG), disconnected);
    // Refused on arrival, or dropped by the dying worker's sweep.
    assert_eq!(engine.submit(request(1)).recv_timeout(HANG), disconnected);
    drop(engine); // joins the dead worker: its sweep has finished
    assert_eq!(ServingObs::global().queue_depth.get(), 0.0);
}
