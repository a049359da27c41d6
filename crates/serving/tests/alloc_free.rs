//! The batch core allocates nothing in steady state: with a warmed-up
//! [`BatchScratch`], assembling a 64-request batch (state reads decoded in
//! place, features written as input entries) and running its forward pass
//! makes zero heap allocations, for predictions and for updates.
//!
//! Outside the bracket, and listed here because they do allocate:
//! * turning [`BatchScratch::probabilities`] into `Prediction`s for callers
//!   that want a `Vec` (`BatchScheduler::run`, the reply channel sends);
//! * [`write_back_chunk`] — the store's own `put` builds the owned key
//!   `String` and the encoded `Bytes` per state (the string-keyed `KvStore`
//!   is Open item 3's tail, not this test's);
//! * the engine's per-request `mpsc` channel and per-batch job vectors.
//!
//! Alone in its file: the counting allocator is process-wide, so no other
//! test may run beside this one.

use pp_data::schema::{Context, DatasetKind, Tab, UserId};
use pp_rnn::{BatchScratch, RnnModel, RnnModelConfig, TaskKind};
use pp_serving::batch::{predict_chunk, update_chunk, write_back_chunk};
use pp_serving::{PredictRequest, ShardedStateStore, UpdateRequest};
use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};
use std::alloc::System;

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

const BATCH: usize = 64;

fn context(i: usize) -> Context {
    Context::MobileTab {
        unread_count: (i % 11) as u8,
        active_tab: Tab::ALL[i % Tab::ALL.len()],
    }
}

#[test]
fn predict_and_update_chunks_allocate_nothing_with_a_warm_scratch() {
    let model = RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::default(),
        9,
    );
    let store = ShardedStateStore::new(16);
    // Three of four users have a stored state; the rest are cold starts.
    for id in (0..BATCH as u64).filter(|id| id % 4 != 3) {
        let state: Vec<f32> = (0..model.state_dim())
            .map(|d| ((id * 31 + d as u64) % 17) as f32 / 17.0 - 0.5)
            .collect();
        store.put_state(UserId(id), &state);
    }
    let predicts: Vec<PredictRequest> = (0..BATCH)
        .map(|i| PredictRequest {
            user_id: UserId(i as u64),
            timestamp: 50_000 + 613 * i as i64,
            context: context(i),
            elapsed_secs: 30 * i as i64,
        })
        .collect();
    let updates: Vec<UpdateRequest> = (0..BATCH)
        .map(|i| UpdateRequest {
            user_id: UserId(i as u64),
            timestamp: 60_000 + 613 * i as i64,
            context: context(i + 1),
            delta_t_secs: 45 * i as i64,
            accessed: i % 3 == 0,
        })
        .collect();

    let mut scratch = BatchScratch::new();
    // Warm-up: one batch of each kind sizes every buffer in the scratch
    // (and resolves the lazily registered metric handles).
    predict_chunk(&model, &store, &predicts, &mut scratch, None);
    update_chunk(&model, &store, &updates, &mut scratch, None);

    let region = Region::new(GLOBAL);
    predict_chunk(&model, &store, &predicts, &mut scratch, None);
    let predict = region.change();
    assert_eq!(
        (predict.allocations, predict.reallocations),
        (0, 0),
        "predict_chunk allocated: {predict:?}"
    );
    assert_eq!(scratch.probabilities().len(), BATCH);

    let region = Region::new(GLOBAL);
    update_chunk(&model, &store, &updates, &mut scratch, None);
    let update = region.change();
    assert_eq!(
        (update.allocations, update.reallocations),
        (0, 0),
        "update_chunk allocated: {update:?}"
    );

    // Outside the bracket: the write-back does allocate, in the store.
    let region = Region::new(GLOBAL);
    write_back_chunk(&store, &updates, &scratch, None);
    assert!(region.change().allocations >= BATCH);
    assert_eq!(
        store.get_state(UserId(0)).as_deref(),
        Some(scratch.next_state(0))
    );
}
