//! The sharded state store against a model of itself: random operation
//! sequences drive a [`ShardedStateStore`] and a linear-scan reference that
//! states the contract in its plainest form — per shard a list of
//! `(user, state, tick, freq)`, a tick per `put` and per bounded read hit,
//! victim = minimum `(rank, tick)` — and the two must agree after every
//! operation on what was found, what is resident and what was counted.
//! Batch reads and puts are checked against the reference applied one user
//! at a time, in order: a batch must be indistinguishable from its rows. The
//! reference keeps each state rounded to bf16, as the store does, and counts
//! two bytes a value. Each case draws its users from 32 ids or from 1,024:
//! the small range keeps shards full and evicting, the large one grows an
//! unbounded shard's slot index through several doublings, to long probe
//! runs.

use pp_data::schema::UserId;
use pp_serving::{EvictionPolicy, ShardedStateStore, StoreStats};
use proptest::prelude::*;

/// The small user range, every user of which is checked after every step.
const USERS: u64 = 32;
/// The large user range.
const WIDE_USERS: u64 = 1_024;
const WIDTH: usize = 4;

/// One shard of the reference.
struct Reference {
    capacity: Option<usize>,
    policy: EvictionPolicy,
    /// `(user, state, tick, freq)`.
    entries: Vec<(u64, Vec<f32>, u64, u64)>,
    next_tick: u64,
    stats: StoreStats,
}

impl Reference {
    fn position(&self, user: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == user)
    }

    fn get(&mut self, user: u64) -> Option<Vec<f32>> {
        self.stats.reads += 1;
        let at = self.position(user)?;
        if self.capacity.is_some() {
            (self.entries[at].2, self.entries[at].3) = (self.next_tick, self.entries[at].3 + 1);
            self.next_tick += 1;
        }
        self.stats.hits += 1;
        self.stats.bytes_read += 2 * self.entries[at].1.len() as u64;
        Some(self.entries[at].1.clone())
    }

    fn put(&mut self, user: u64, state: &[f32]) {
        self.stats.writes += 1;
        self.stats.bytes_written += 2 * state.len() as u64;
        let state: Vec<f32> = state.iter().map(|&value| bf16(value)).collect();
        match self.position(user) {
            Some(at) => {
                let freq = self.entries[at].3 + 1;
                self.entries[at] = (user, state, self.next_tick, freq);
            }
            None => self.entries.push((user, state, self.next_tick, 1)),
        }
        self.next_tick += 1;
        while self
            .capacity
            .is_some_and(|bound| self.entries.len() > bound)
        {
            let rank = |freq| match self.policy {
                EvictionPolicy::Lru => 0,
                EvictionPolicy::FrequencyWeighted => freq,
            };
            let victim = (0..self.entries.len())
                .min_by_key(|&i| (rank(self.entries[i].3), self.entries[i].2))
                .unwrap();
            self.entries.swap_remove(victim);
            self.stats.evictions += 1;
        }
    }

    fn remove(&mut self, user: u64) -> Option<Vec<f32>> {
        self.position(user).map(|at| self.entries.swap_remove(at).1)
    }
}

/// The bf16 nearest a finite `value`, ties to even: of its truncation to
/// bf16 and the next bf16 away from zero, the nearer, and on a tie the one
/// whose last kept bit is 0.
fn bf16(value: f32) -> f32 {
    assert!(value.is_finite());
    let down = value.to_bits() & 0xffff_0000;
    let (below, above) = (f32::from_bits(down), f32::from_bits(down + 0x1_0000));
    let x = f64::from(value);
    let (to_below, to_above) = ((x - f64::from(below)).abs(), (f64::from(above) - x).abs());
    if to_below < to_above || (to_below == to_above && down & 0x1_0000 == 0) {
        below
    } else {
        above
    }
}

fn bits(state: &[f32]) -> Vec<u32> {
    state.iter().map(|v| v.to_bits()).collect()
}

fn total(shards: &[Reference]) -> StoreStats {
    let mut sum = StoreStats::default();
    for s in shards.iter().map(|shard| shard.stats) {
        sum.reads += s.reads;
        sum.writes += s.writes;
        sum.hits += s.hits;
        sum.bytes_read += s.bytes_read;
        sum.bytes_written += s.bytes_written;
        sum.evictions += s.evictions;
    }
    sum
}

fn state(value: i32) -> Vec<f32> {
    (0..WIDTH).map(|d| value as f32 / 7.0 + d as f32).collect()
}

/// A batch's users as drawn — repeats and users with no state included —
/// and, for an even `value`, stably ordered by shard as the engine drains
/// them, so consecutive users of one shard form runs.
fn batch(store: &ShardedStateStore, drawn: &[u64], value: i32) -> Vec<UserId> {
    let mut users: Vec<UserId> = drawn.iter().copied().map(UserId).collect();
    if value % 2 == 0 {
        users.sort_by_key(|&user| store.shard_index(user));
    }
    users
}

/// One step: `(kind, user, value, batch of 1–8 users)`.
type Op = (u8, u64, i32, Vec<u64>);

/// Runs `ops`, whose users are below `users`, through `store` and a
/// reference of the same shape, comparing after every step.
fn agree(store: &ShardedStateStore, policy: EvictionPolicy, ops: &[Op], users: u64) {
    let mut reference: Vec<Reference> = (0..store.num_shards())
        .map(|shard| Reference {
            capacity: store.shard(shard).capacity(),
            policy,
            entries: Vec::new(),
            next_tick: 0,
            stats: StoreStats::default(),
        })
        .collect();
    let home = |user: u64| store.shard_index(UserId(user));
    for (step, (kind, user, value, drawn)) in ops.iter().enumerate() {
        let (user, value, id) = (*user, *value, UserId(*user));
        match kind {
            0..=3 => {
                let state = state(value);
                store.put_state(id, &state);
                reference[home(user)].put(user, &state);
            }
            4 => {
                let (found, expected) = (store.get_state(id), reference[home(user)].get(user));
                assert_eq!(found.as_deref().map(bits), expected.as_deref().map(bits));
            }
            5 => {
                let mut row = [f32::NAN; WIDTH];
                let expected = reference[home(user)].get(user);
                assert_eq!(store.read_state_into(id, &mut row), expected.is_some());
                let untouched = vec![f32::NAN; WIDTH];
                assert_eq!(bits(&row), bits(&expected.unwrap_or(untouched)));
            }
            6 => {
                let (found, expected) =
                    (store.remove_state(id), reference[home(user)].remove(user));
                assert_eq!(found.as_deref().map(bits), expected.as_deref().map(bits));
            }
            7 => assert_eq!(
                store.contains_state(id),
                reference[home(user)].position(user).is_some()
            ),
            8 => {
                let users = batch(store, drawn, value);
                let mut rows = vec![f32::NAN; users.len() * WIDTH];
                let hits = store.read_states_into(users.iter().copied(), &mut rows, WIDTH);
                let mut expected_hits = 0;
                for (row, user) in rows.chunks(WIDTH).zip(&users) {
                    let expected = reference[home(user.0)].get(user.0);
                    expected_hits += usize::from(expected.is_some());
                    let expected = expected.unwrap_or_else(|| vec![f32::NAN; WIDTH]);
                    assert_eq!(bits(row), bits(&expected), "step {step}: row of {user:?}");
                }
                assert_eq!(hits, expected_hits, "step {step}");
            }
            _ => {
                let users = batch(store, drawn, value);
                let rows: Vec<f32> = (0..users.len() as i32)
                    .flat_map(|row| state(value + row))
                    .collect();
                store.put_states(users.iter().copied(), &rows);
                for (row, user) in rows.chunks(WIDTH).zip(&users) {
                    reference[home(user.0)].put(user.0, row);
                }
            }
        }
        for probe in 0..USERS {
            let resident = reference[store.shard_index(UserId(probe))].position(probe);
            assert_eq!(
                store.contains_state(UserId(probe)),
                resident.is_some(),
                "step {step}: residency of user {probe}"
            );
        }
        // Past the small range, every user the reference holds; the lengths
        // below then rule out any other resident user.
        for probe in reference.iter().flat_map(|shard| &shard.entries) {
            assert!(
                store.contains_state(UserId(probe.0)),
                "step {step}: residency of user {}",
                probe.0
            );
        }
        let stats = store.stats();
        assert_eq!(stats, total(&reference), "step {step}");
        assert!(stats.hits <= stats.reads);
        for (index, shard) in reference.iter().enumerate() {
            let len = store.shard(index).len();
            assert_eq!(len, shard.entries.len(), "step {step}: shard {index}");
            assert_eq!(store.shard(index).stats(), shard.stats, "step {step}");
            assert!(shard.capacity.is_none_or(|bound| len <= bound));
        }
    }
    // What is left holds the same bits.
    for user in 0..users {
        let expected = reference[store.shard_index(UserId(user))].remove(user);
        let found = store.remove_state(UserId(user));
        assert_eq!(found.as_deref().map(bits), expected.as_deref().map(bits));
    }
    assert!(store.is_empty());
}

proptest! {
    #[test]
    fn store_agrees_with_a_linear_scan_reference(
        ops in prop::collection::vec(
            (0u8..10, 0..WIDE_USERS, -50i32..50, prop::collection::vec(0..WIDE_USERS, 1..9)),
            1..240,
        ),
        per_shard in 1usize..8,
        spare in 0usize..4,
        wide in any::<bool>(),
    ) {
        // The drawn users, folded into the case's range.
        let users = if wide { WIDE_USERS } else { USERS };
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(kind, user, value, drawn)| {
                (kind, user % users, value, drawn.iter().map(|u| u % users).collect())
            })
            .collect();
        for shards in [1, 4] {
            agree(&ShardedStateStore::new(shards), EvictionPolicy::Lru, &ops, users);
            for policy in [EvictionPolicy::Lru, EvictionPolicy::FrequencyWeighted] {
                // Shard bounds of 1–8 states, not all equal when `spare` is
                // not a multiple of the shard count.
                let capacity = shards * per_shard + spare % shards;
                let store = ShardedStateStore::with_capacity_and_policy(shards, capacity, policy);
                agree(&store, policy, &ops, users);
            }
        }
    }
}
