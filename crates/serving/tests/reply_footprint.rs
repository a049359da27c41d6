//! A request in flight holds one reply channel and nothing else. The engine
//! answers each request through a one-slot `mpsc::sync_channel(1)` — 664 B
//! in two blocks, the channel and its slot — allocated on the caller's
//! thread at submission; a worker's send writes into that slot and
//! allocates nothing. So once a wave is answered and its workers have
//! exited, what is left live per unread request is that channel plus the
//! receiver's 16-B slot in the caller's `Vec`: 670.9 B measured here,
//! against 1,270.9 B on the same wave with `mpsc::channel()`, whose 512-B
//! channel gains a 752-B block at the first send, made on the worker's
//! thread and freed on the caller's.
//!
//! The wave is 16 passes of `max_batch × workers` jobs, so it also shows
//! that queueing in passes leaves nothing behind: after the drop, every job
//! and every pass buffer is gone.
//!
//! Alone in its file: the counting allocator is process-wide, so no other
//! test may run beside this one.

use pp_data::schema::{Context, DatasetKind, Tab, UserId};
use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
use pp_serving::{BatchServingEngine, PredictRequest, ShardedStateStore};
use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};
use std::alloc::System;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

const WORKERS: usize = 2;
const MAX_BATCH: usize = 64;
const REQUESTS: usize = 16 * WORKERS * MAX_BATCH;
/// Live bytes allowed per answered, unread request: the one-slot channel
/// and the receiver's 16 B, with a little room for the allocator's rounding.
const BOUND: f64 = 700.0;
/// Bounds the wait for the wave only so that a stuck worker fails the test
/// instead of hanging it.
const HANG: Duration = Duration::from_secs(30);

fn request(i: usize) -> PredictRequest {
    PredictRequest {
        user_id: UserId(i as u64 % 1_000),
        timestamp: 10_000 + i as i64,
        context: Context::MobileTab {
            unread_count: (i % 9) as u8,
            active_tab: Tab::ALL[i % Tab::ALL.len()],
        },
        elapsed_secs: 300,
    }
}

#[test]
fn an_answered_unread_request_holds_one_channel() {
    let model = Arc::new(RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::tiny(),
        5,
    ));
    let store = Arc::new(ShardedStateStore::new(16));
    let requests: Vec<PredictRequest> = (0..REQUESTS).map(request).collect();
    // The process-wide counters and the tracer register themselves on
    // first use: one engine served and dropped before the count starts.
    let warm = BatchServingEngine::start(model.clone(), store.clone(), WORKERS, MAX_BATCH);
    warm.submit(request(0))
        .recv_timeout(HANG)
        .expect("the warm-up request is answered");
    drop(warm);

    let region = Region::new(GLOBAL);
    let engine = BatchServingEngine::start(model, store, WORKERS, MAX_BATCH);
    let receivers = engine.submit_many(&requests);
    let started = Instant::now();
    while engine.stats().predictions < REQUESTS as u64 {
        assert!(started.elapsed() < HANG, "the wave was not served");
        std::thread::yield_now();
    }
    // Joins the workers: every job is gone and every reply sits in its
    // channel.
    drop(engine);
    let change = region.change();
    let live = change.bytes_allocated as f64 - change.bytes_deallocated as f64;
    let per_request = live / REQUESTS as f64;
    eprintln!(
        "{REQUESTS} answered, unread requests: {per_request:.1} B live each, \
         {} allocations, {} deallocations",
        change.allocations, change.deallocations
    );
    assert!(
        per_request <= BOUND,
        "{per_request:.1} B live per answered, unread request"
    );

    for (receiver, request) in receivers.iter().zip(&requests) {
        let reply = receiver.try_recv().expect("every reply is in its channel");
        assert_eq!(reply.user_id, request.user_id);
    }
}
