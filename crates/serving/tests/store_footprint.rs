//! A stored state costs its bytes and no allocation of its own. Filling
//! `ShardedStateStore::with_capacity_and_policy(16, 50_000, Lru)` with
//! 50,000 H = 128 states makes a handful of allocations per shard (its
//! slab, slot index and row arena, sized once at its first put), not one
//! per state, and live bytes stay within `2 · width + 40` per stored state —
//! after the fill and after 100,000 evicting puts of new users, which make
//! at most one allocation per shard (its free list's first entry).
//!
//! Before states moved into one row arena per shard, each state owned a
//! `Vec<f32>`: this fill made 49,901 allocations and 160 reallocations for
//! 49,694 resident states and held 608.4 B per state, and 630.2 B after the
//! evicting puts, against the 512 B of the state itself. The `f32` arena's
//! figures on the same fill were 72 allocations, 570.1 B and 588.9 B; with
//! bf16 rows they were 72 allocations, 312.4 B and 332.8 B, against the
//! state's 256 B, and the evicting puts made 25 allocations: a `HashMap`
//! slot map doubled once its erased keys' tombstones used up its room. With
//! 16-byte slots and an open-addressing index of `u32` slot numbers, which
//! deletes without tombstones, they are 72 allocations, 284.4 B and
//! 282.7 B, and the evicting puts make 9.
//!
//! Alone in its file: the counting allocator is process-wide, so no other
//! test may run beside this one.

use pp_data::schema::UserId;
use pp_serving::{EvictionPolicy, ShardedStateStore};
use stats_alloc::{Region, Stats, StatsAlloc, INSTRUMENTED_SYSTEM};
use std::alloc::System;

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

const SHARDS: usize = 16;
const STATES: usize = 50_000;
const WIDTH: usize = 128;
/// Per state beyond its `2 · WIDTH` bytes of bf16 values: the 16-byte slot,
/// the index's two to four 4-byte buckets and the arena's one spare row.
const OVERHEAD: usize = 40;

/// Writes `id` into the state's first three values, one byte each: every
/// integer below 256 is a bf16 value, so the store keeps them exactly.
fn tag(state: &mut [f32], id: u64) {
    for (byte, value) in state[..3].iter_mut().enumerate() {
        *value = ((id >> (8 * byte)) & 0xff) as f32;
    }
}

/// Bytes held since the region opened, per stored state.
fn live_per_state(change: Stats, states: usize) -> f64 {
    (change.bytes_allocated as f64 - change.bytes_deallocated as f64) / states as f64
}

#[test]
fn a_stored_state_costs_its_bytes_and_no_allocation_of_its_own() {
    // The process-wide store counters register themselves on first use.
    ShardedStateStore::new(1).put_state(UserId(0), &[0.0]);
    let mut state = vec![0.0f32; WIDTH];

    let region = Region::new(GLOBAL);
    let store = ShardedStateStore::with_capacity_and_policy(SHARDS, STATES, EvictionPolicy::Lru);
    for id in 0..STATES as u64 {
        tag(&mut state, id);
        store.put_state(UserId(id), &state);
    }
    let filled = region.change();
    let resident = store.len();
    let bytes = live_per_state(filled, resident);
    eprintln!(
        "fill: {} allocations, {} reallocations, {bytes:.1} B per state over {resident}",
        filled.allocations, filled.reallocations
    );
    assert!(
        filled.allocations <= 8 * SHARDS,
        "filling {STATES} states made {} allocations: one per state, not per shard",
        filled.allocations
    );
    assert!(
        bytes <= (2 * WIDTH + OVERHEAD) as f64,
        "{bytes:.1} B per state after the fill"
    );

    for id in STATES as u64..3 * STATES as u64 {
        tag(&mut state, id);
        store.put_state(UserId(id), &state);
    }
    let evicted = region.change();
    assert_eq!(store.len(), STATES);
    let bytes = live_per_state(evicted, STATES);
    let allocations = evicted.allocations - filled.allocations;
    eprintln!(
        "after evicting puts: {allocations} allocations, {} reallocations, {bytes:.1} B per state",
        evicted.reallocations - filled.reallocations
    );
    assert!(
        allocations <= SHARDS,
        "the evicting puts made {allocations} allocations: more than a free list per shard"
    );
    assert!(
        bytes <= (2 * WIDTH + OVERHEAD) as f64,
        "{bytes:.1} B per state after the evicting puts"
    );

    // The newest writes are resident and intact.
    let last = 3 * STATES as u64 - 1;
    let stored = store
        .get_state(UserId(last))
        .expect("the last put is resident");
    let mut sent = vec![0.0f32; WIDTH];
    tag(&mut sent, last);
    assert_eq!(stored, sent);
}
