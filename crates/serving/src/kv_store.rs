//! What a hidden-state store is measured and configured by, and the byte
//! formats a state takes outside the serving process.
//!
//! The serving store itself is [`crate::sharded::ShardedStateStore`], which
//! keeps states as bf16 rows in memory and never encodes them. This module
//! holds the pieces around it:
//!
//! * [`StoreStats`] — request counts and bytes moved, the units of the §9
//!   serving cost model (one 512-byte hidden-state read per prediction
//!   against ≈ 20 aggregation-feature lookups for the GBDT path);
//! * [`EvictionPolicy`] — which state a capacity-bounded shard sacrifices;
//! * [`encode_state_f32`] / [`decode_state_f32`] — the little-endian wire
//!   format of a state, for a store that does live across a network.

use bytes::Bytes;
use serde::Serialize;

/// Running counters for one store (or one shard of it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StoreStats {
    /// Number of reads (hits and misses).
    pub reads: u64,
    /// Number of writes.
    pub writes: u64,
    /// Number of reads that found a state.
    pub hits: u64,
    /// Total bytes returned by successful reads.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Entries evicted to stay within the capacity bound.
    pub evictions: u64,
}

impl StoreStats {
    /// Read hit rate (1.0 when there were no reads).
    pub fn hit_rate(&self) -> f64 {
        if self.reads == 0 {
            1.0
        } else {
            self.hits as f64 / self.reads as f64
        }
    }
}

/// Which entry a bounded store sacrifices when it is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least-recently-touched entry (classic LRU).
    #[default]
    Lru,
    /// Evict the least-frequently-accessed entry (ties broken by recency):
    /// a hot user's state survives a flood of one-shot visitors that would
    /// wash it out of a pure-LRU store. Frequencies never age, so this is
    /// suited to bounded-horizon studies rather than indefinite uptime.
    FrequencyWeighted,
}

/// Encodes an `f32` hidden state as bytes (little-endian).
pub fn encode_state_f32(state: &[f32]) -> Bytes {
    let mut out = Vec::with_capacity(state.len() * 4);
    for v in state {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Bytes::from(out)
}

/// Decodes an `f32` hidden state from bytes produced by
/// [`encode_state_f32`].
///
/// # Panics
///
/// Panics if the byte length is not a multiple of 4.
pub fn decode_state_f32(bytes: &Bytes) -> Vec<f32> {
    assert!(
        bytes.len().is_multiple_of(4),
        "state byte length must be a multiple of 4"
    );
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{from_bf16, StateShard};
    use pp_data::schema::UserId;

    // The shard tests below pin what `EvictionPolicy` and `StoreStats`
    // promise, against the one implementation of them.
    const A: UserId = UserId(1);
    const B: UserId = UserId(2);
    const C: UserId = UserId(3);
    const D: UserId = UserId(4);
    const HOT: UserId = UserId(0);

    fn lru(capacity: usize) -> StateShard {
        StateShard::new(Some(capacity), EvictionPolicy::Lru)
    }

    fn get(shard: &StateShard, user: UserId) -> Option<Vec<f32>> {
        let mut found = None;
        shard.read_run(&[user.0], |_, row| {
            found = Some(row.iter().map(|&code| from_bf16(code)).collect());
        });
        found
    }

    fn put(shard: &StateShard, user: UserId, state: &[f32]) {
        shard.put_run(&[user.0], state, state.len());
    }

    #[test]
    fn put_get_roundtrip_and_stats() {
        let store = StateShard::new(None, EvictionPolicy::Lru);
        assert!(store.is_empty());
        put(&store, A, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(store.len(), 1);
        assert_eq!(get(&store, A).unwrap(), [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(get(&store, B).is_none());
        let stats = store.stats();
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.writes, 1);
        // Two bytes per value: the shard stores bf16.
        assert_eq!(stats.bytes_written, 10);
        assert_eq!(stats.bytes_read, 10);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(store.stored_bytes(), 10);
        assert_eq!(store.remove(A).unwrap(), [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(store.is_empty());
        assert_eq!(store.stored_bytes(), 0);
    }

    #[test]
    fn f32_state_roundtrip() {
        let state = vec![0.5, -1.25, 3.75, 0.0];
        let bytes = encode_state_f32(&state);
        assert_eq!(bytes.len(), 16);
        assert_eq!(decode_state_f32(&bytes), state);
    }

    #[test]
    fn paper_scale_state_is_512_bytes() {
        let state = vec![0.1f32; 128];
        assert_eq!(encode_state_f32(&state).len(), 512);
    }

    #[test]
    fn bounded_store_evicts_least_recently_used() {
        let store = lru(3);
        assert_eq!(store.capacity(), Some(3));
        put(&store, A, &[1.0]);
        put(&store, B, &[2.0]);
        put(&store, C, &[3.0]);
        // Touch A so B becomes the least recently used.
        assert!(get(&store, A).is_some());
        put(&store, D, &[4.0]);
        assert_eq!(store.len(), 3);
        assert!(get(&store, B).is_none(), "LRU state should be evicted");
        assert!(get(&store, A).is_some());
        assert!(get(&store, C).is_some());
        assert!(get(&store, D).is_some());
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn bounded_store_replacement_does_not_evict() {
        let store = lru(2);
        put(&store, A, &[1.0]);
        put(&store, B, &[2.0]);
        // Overwriting a resident state keeps the store at capacity.
        put(&store, A, &[1.5]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 0);
        assert_eq!(get(&store, A).unwrap(), [1.5]);
    }

    #[test]
    fn bounded_store_never_exceeds_capacity() {
        let store = lru(8);
        for i in 0..100 {
            put(&store, UserId(i), &[0.0]);
            assert!(store.len() <= 8, "len {} exceeds capacity", store.len());
        }
        assert_eq!(store.len(), 8);
        assert_eq!(store.stats().evictions, 92);
        // The survivors are exactly the 8 most recently inserted users.
        for i in 92..100 {
            assert!(get(&store, UserId(i)).is_some(), "user {i} missing");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = lru(0);
    }

    #[test]
    fn frequency_weighted_store_keeps_hot_keys_under_scan_pressure() {
        let store = StateShard::new(Some(4), EvictionPolicy::FrequencyWeighted);
        put(&store, HOT, &[0.5]);
        for _ in 0..10 {
            assert!(get(&store, HOT).is_some());
        }
        // A scan of one-shot users floods the store; each newcomer has
        // frequency 1, so they evict each other while the hot one survives.
        for i in 0..50 {
            put(&store, UserId(100 + i), &[1.0]);
        }
        assert_eq!(store.len(), 4);
        assert!(
            get(&store, HOT).is_some(),
            "frequency-weighted eviction must keep the hot state"
        );
        // The same scan against an LRU store washes the hot state out.
        let lru = lru(4);
        put(&lru, HOT, &[0.5]);
        for _ in 0..10 {
            assert!(get(&lru, HOT).is_some());
        }
        for i in 0..50 {
            put(&lru, UserId(100 + i), &[1.0]);
        }
        assert!(
            get(&lru, HOT).is_none(),
            "LRU evicts the unscanned hot state"
        );
    }

    #[test]
    fn frequency_ties_break_by_recency_and_puts_count_as_touches() {
        let store = StateShard::new(Some(2), EvictionPolicy::FrequencyWeighted);
        put(&store, A, &[1.0]); // freq 1, older
        put(&store, B, &[2.0]); // freq 1, newer
        put(&store, C, &[3.0]); // evicts A (tie → oldest)
        assert!(get(&store, A).is_none());
        assert!(get(&store, B).is_some()); // freq 2
                                           // Re-putting C bumps its frequency to 2; inserting D (freq 1) cannot
                                           // displace either freq-2 state, so D is itself the victim.
        put(&store, C, &[3.0]);
        put(&store, D, &[4.0]);
        assert_eq!(store.len(), 2);
        assert!(get(&store, D).is_none());
        assert!(get(&store, B).is_some());
        assert!(get(&store, C).is_some());
    }

    #[test]
    fn contains_key_does_not_count_as_traffic_or_refresh_recency() {
        let store = lru(2);
        put(&store, A, &[1.0]);
        put(&store, B, &[2.0]);
        let reads_before = store.stats().reads;
        assert!(store.contains(A));
        assert!(!store.contains(UserId(999)));
        assert_eq!(store.stats().reads, reads_before);
        // `contains` must not have refreshed A: it is still the LRU victim
        // when C arrives.
        put(&store, C, &[3.0]);
        assert!(!store.contains(A));
        assert!(store.contains(B));
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let store = StateShard::new(None, EvictionPolicy::Lru);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..100 {
                        let user = UserId(t * 100 + i);
                        put(store, user, &[0.0; 2]);
                        let _ = get(store, user);
                    }
                });
            }
        });
        assert_eq!(store.len(), 400);
        assert_eq!(store.stats().writes, 400);
        assert_eq!(store.stats().hits, 400);
    }
}
