//! The batch core and the state store allocate nothing in steady state:
//! with a warmed-up [`BatchScratch`], assembling a 64-request batch
//! (features written as input entries, then the stored states copied into
//! their rows by one store call), running its forward pass and writing the
//! advanced states back makes zero heap allocations — a write-back
//! overwrites the stored state's arena row in place, and on a full bounded
//! store a new user's state is copied into the evicted one's row. The
//! batch's users are ordered by shard, as the engine's `gather` drains
//! them, so the store works through multi-user runs under one lock each,
//! not only runs of one.
//!
//! Outside the brackets, and listed here because they do allocate:
//! * turning [`BatchScratch::probabilities`] into `Prediction`s for callers
//!   that want a `Vec` (`BatchScheduler::run`; the engine's reply sends
//!   write into slots allocated at submission, so they allocate nothing);
//! * a shard's first put, which allocates its row arena, slab and slot
//!   index (a bounded shard sizes all three for its capacity there, and
//!   never grows them);
//! * an unbounded shard's arena gaining a 64-row chunk, and its slab
//!   growing and slot index doubling, as new users arrive;
//! * a bounded shard's first eviction, which starts its free list (the
//!   index deletes without tombstones, so evictions never make it grow);
//! * the engine's per-request reply channel, a one-slot
//!   `mpsc::sync_channel(1)` (664 B in two blocks) allocated on the
//!   caller's thread at submission, a wave's pass buffer, the per-batch
//!   job vectors and set of update users, and a shard queue growing past
//!   `max_batch` jobs under a backlog (a drain that empties it shrinks it
//!   back).
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
    // Users 0..64 in shard order: 16 shards, so runs of about four.
    let mut users: Vec<UserId> = (0..BATCH as u64).map(UserId).collect();
    users.sort_by_key(|&user| store.shard_index(user));
    let predicts: Vec<PredictRequest> = users
        .iter()
        .enumerate()
        .map(|(i, &user_id)| PredictRequest {
            user_id,
            timestamp: 50_000 + 613 * i as i64,
            context: context(i),
            elapsed_secs: 30 * i as i64,
        })
        .collect();
    let updates: Vec<UpdateRequest> = users
        .iter()
        .enumerate()
        .map(|(i, &user_id)| UpdateRequest {
            user_id,
            timestamp: 60_000 + 613 * i as i64,
            context: context(i + 1),
            delta_t_secs: 45 * i as i64,
            accessed: i % 3 == 0,
        })
        .collect();

    let mut scratch = BatchScratch::new();
    // Warm-up: one batch of each kind sizes every buffer in the scratch
    // (and resolves the lazily registered metric handles); one write-back
    // gives the cold-start users their slots.
    predict_chunk(&model, &store, &predicts, &mut scratch, None);
    update_chunk(&model, &store, &updates, &mut scratch, None);
    write_back_chunk(&store, &updates, &scratch, None);

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

    let region = Region::new(GLOBAL);
    write_back_chunk(&store, &updates, &scratch, None);
    let write_back = region.change();
    assert_eq!(
        (write_back.allocations, write_back.reallocations),
        (0, 0),
        "write_back_chunk allocated: {write_back:?}"
    );
    // The store keeps the bf16 rounding of the state: the same row put
    // through a fresh store reads back the same bits.
    let reference = ShardedStateStore::new(1);
    reference.put_state(users[0], scratch.next_state(0));
    assert_eq!(store.get_state(users[0]), reference.get_state(users[0]));

    // A full bounded store: every put of a new user evicts, and the
    // newcomer's state lands in the victim's row — one batch of
    // newcomers in shard order, as a write-back stores them.
    let full = ShardedStateStore::with_capacity(16, 256);
    let state = scratch.next_state(0);
    for id in 0..1_024 {
        full.put_state(UserId(id), state);
    }
    let mut newcomers: Vec<UserId> = (1_024..1_024 + BATCH as u64).map(UserId).collect();
    newcomers.sort_by_key(|&user| full.shard_index(user));
    let rows = state.repeat(BATCH);
    let evictions_before = full.stats().evictions;
    let region = Region::new(GLOBAL);
    full.put_states(newcomers.iter().copied(), &rows);
    let evicting = region.change();
    assert_eq!(
        (evicting.allocations, evicting.reallocations),
        (0, 0),
        "evicting puts allocated: {evicting:?}"
    );
    assert_eq!(full.stats().evictions - evictions_before, BATCH as u64);
}
