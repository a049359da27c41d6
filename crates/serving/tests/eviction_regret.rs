//! Eviction regret as a property: under Zipf-like repeat traffic polluted by
//! one-shot drive-by users, a capacity-bounded [`ShardedStateStore`] that
//! evicts by frequency re-initializes fewer *returning* users' hidden states
//! than one that evicts by recency. A cold restart is a returning user whose
//! state is gone, so the prediction falls back to the initial state and its
//! quality regresses to cold-start until re-warmed.
//!
//! Measured through the threaded engine with the same stream: 875 (LRU) vs
//! 742 (frequency-weighted) cold restarts at 200k users / 20k resident
//! states / 80k events, and 1,309 / 973, 1,265 / 903, 1,280 / 923 over
//! three seeds at this file's 20k / 2k / 20k (ratio 0.72–0.74). The replay
//! here is driven by the synchronous [`BatchScheduler`] instead: with worker
//! threads the eviction order depends on how batches interleave and the
//! counts wobble from run to run. Synchronous and seeded, it is exact — the
//! test pins 1,309 / 973, so a store that evicts in any other order fails
//! here even when the ratio still holds.

use pp_data::schema::{Context, DatasetKind, Tab, UserId};
use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
use pp_serving::{
    BatchScheduler, EvictionPolicy, PredictRequest, ShardedStateStore, UpdateRequest,
};
use std::collections::HashSet;

const POPULATION: usize = 20_000;
const CAPACITY: usize = 2_000;
const EVENTS: usize = 20_000;
const CHUNK: usize = 1_024;
/// Fraction of events that come from a user who never returns.
const DRIVEBY: f64 = 0.15;

/// SplitMix64: the stream must be identical for both policies.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Replays the stream in chunks — predict, then update, per event — against
/// a bounded store under `policy` and counts the cold restarts.
fn cold_restarts(model: &RnnModel, policy: EvictionPolicy) -> u64 {
    let store = ShardedStateStore::with_capacity_and_policy(16, CAPACITY, policy);
    let mut scheduler = BatchScheduler::new(model, &store, 64);
    let mut rng = 17 ^ 0xA076_1D64_78BD_642F;
    let mut seen = vec![false; POPULATION];
    let mut driveby_next = POPULATION as u64;
    let mut cold_restarts = 0u64;
    let mut tick: i64 = 0;
    for chunk_start in (0..EVENTS).step_by(CHUNK) {
        let take = CHUNK.min(EVENTS - chunk_start);
        let mut predicts = Vec::with_capacity(take);
        let mut updates = Vec::with_capacity(take);
        let mut in_chunk = HashSet::with_capacity(take);
        for _ in 0..take {
            tick += 1;
            let draw = splitmix64(&mut rng);
            let driveby_draw = (draw >> 40) as f64 / (1u64 << 24) as f64;
            let user = if driveby_draw < DRIVEBY {
                driveby_next += 1;
                driveby_next - 1
            } else {
                // Log-uniform rank ≈ Zipf(1): rank 0 is the hottest.
                let x = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
                ((POPULATION as f64 + 1.0).powf(x) - 1.0) as u64
            };
            let id = UserId(user);
            if let Some(was_seen) = seen.get_mut(user as usize) {
                // Not cold if the state was re-written earlier in this chunk.
                if *was_seen && !in_chunk.contains(&user) && !store.contains_state(id) {
                    cold_restarts += 1;
                }
                *was_seen = true;
            }
            in_chunk.insert(user);
            let context = Context::MobileTab {
                unread_count: (draw % 9) as u8,
                active_tab: Tab::ALL[(draw % Tab::ALL.len() as u64) as usize],
            };
            let timestamp = 100_000 + tick * 13;
            predicts.push(PredictRequest {
                user_id: id,
                timestamp,
                context,
                elapsed_secs: 3_600,
            });
            updates.push(UpdateRequest {
                user_id: id,
                timestamp,
                context,
                delta_t_secs: 3_600,
                accessed: draw.is_multiple_of(3),
            });
        }
        assert_eq!(scheduler.run(predicts).len(), take);
        scheduler.apply_updates(&updates);
    }
    assert!(store.len() <= CAPACITY, "{policy:?} overfilled the store");
    assert!(store.stats().evictions > 0, "{policy:?} never evicted");
    cold_restarts
}

#[test]
fn frequency_weighted_eviction_cuts_cold_restarts_under_driveby_pollution() {
    let model = RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::tiny(),
        17,
    );
    let lru = cold_restarts(&model, EvictionPolicy::Lru);
    let frequency = cold_restarts(&model, EvictionPolicy::FrequencyWeighted);
    assert_eq!((lru, frequency), (1_309, 973));
    assert!(
        frequency as f64 <= 0.9 * lru as f64,
        "frequency-weighted {frequency} cold restarts vs LRU {lru}: expected at most 0.9x"
    );
}
