//! Sharded storage for precomputed payloads.
//!
//! A prefetch materializes the activity's data *before* the user asks for
//! it; the [`PrefetchCache`] is where that payload waits. Entries carry a
//! TTL (precomputed data goes stale) and each shard is LRU-bounded (the
//! cache competes for the same memory as everything else on the device or
//! edge tier). Keys are user ids — one outstanding payload per user,
//! matching the one-decision-per-session-start flow.

use bytes::Bytes;
use pp_data::schema::UserId;
use pp_obs::sync::LockPolicy;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Every time cumulative LRU evictions cross another multiple of this
/// stride, one `EvictionStorm` event is emitted — a bounded-rate signal
/// that inserts are displacing live payloads.
const EVICTION_STORM_STRIDE: u64 = 64;

/// Cache sizing and freshness configuration.
///
/// # Examples
///
/// ```
/// use pp_precompute::CacheConfig;
///
/// let config = CacheConfig { shards: 4, capacity_per_shard: 1_024, ttl_secs: 900 };
/// assert!(config.ttl_secs > 0);
/// assert_eq!(CacheConfig::default().shards, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of independent shards.
    pub shards: usize,
    /// Maximum payloads per shard (LRU beyond that).
    pub capacity_per_shard: usize,
    /// Seconds a payload stays servable after insertion.
    pub ttl_secs: i64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            capacity_per_shard: 4_096,
            ttl_secs: 1_800,
        }
    }
}

/// Running counters of the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Payloads inserted.
    pub insertions: u64,
    /// Insertions that replaced a payload already held for the user.
    pub replacements: u64,
    /// Takes that returned a fresh payload.
    pub hits: u64,
    /// Takes that found nothing for the user.
    pub misses: u64,
    /// Takes that found only an expired payload (dropped, not served).
    pub expirations: u64,
    /// Payloads evicted by the per-shard LRU bound.
    pub lru_evictions: u64,
}

#[derive(Debug)]
struct Entry {
    payload: Bytes,
    expires_at: i64,
    tick: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    /// tick → user id, oldest-touched first.
    lru: BTreeMap<u64, u64>,
    next_tick: u64,
    /// This shard's share of [`PrefetchCache::stats`], counted under its
    /// lock.
    stats: CacheStats,
}

impl Shard {
    /// Stores `payload` for `user`, then drops the least recently touched
    /// payloads until the shard is back within `capacity`. Returns how many
    /// still-fresh payloads that displaced. An already-expired payload
    /// dropped while making room counts as an expiration, not an eviction:
    /// it was dead before the bound hit it, and counting it as an eviction
    /// would blame memory pressure for staleness and stop the
    /// expired/evicted split matching the outcome accounting.
    fn insert(
        &mut self,
        user: u64,
        payload: Bytes,
        expires_at: i64,
        capacity: usize,
        now: i64,
    ) -> u64 {
        let tick = self.next_tick;
        self.next_tick += 1;
        self.stats.insertions += 1;
        let entry = Entry {
            payload,
            expires_at,
            tick,
        };
        if let Some(old) = self.map.insert(user, entry) {
            self.lru.remove(&old.tick);
            self.stats.replacements += 1;
        }
        self.lru.insert(tick, user);
        let mut lru_evicted = 0;
        while self.map.len() > capacity {
            let (&oldest, _) = self.lru.iter().next().expect("lru tracks map");
            let victim = self.lru.remove(&oldest).expect("tick present");
            let entry = self.map.remove(&victim).expect("lru entry backed by map");
            if entry.expires_at <= now {
                self.stats.expirations += 1;
            } else {
                lru_evicted += 1;
            }
        }
        self.stats.lru_evictions += lru_evicted;
        lru_evicted
    }

    /// Consumes `user`'s payload if it is still fresh at `now`; an expired
    /// one is dropped.
    fn take(&mut self, user: u64, now: i64) -> Option<Bytes> {
        let Some(entry) = self.map.remove(&user) else {
            self.stats.misses += 1;
            return None;
        };
        self.lru.remove(&entry.tick);
        if entry.expires_at > now {
            self.stats.hits += 1;
            Some(entry.payload)
        } else {
            self.stats.expirations += 1;
            None
        }
    }
}

/// A sharded, TTL + LRU bounded store of precomputed payloads.
///
/// Each shard is one mutex around its payloads, their LRU order and its
/// share of the counters, so an insert or a take takes one lock. A panic
/// under a shard's lock poisons it: every later call that locks it panics
/// with "prefetch cache shard: lock poisoned" rather than act on a map and
/// an LRU order that may disagree.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use pp_data::schema::UserId;
/// use pp_precompute::{CacheConfig, PrefetchCache};
///
/// let cache = PrefetchCache::new(CacheConfig {
///     shards: 2,
///     capacity_per_shard: 8,
///     ttl_secs: 100,
/// });
/// cache.insert(UserId(1), Bytes::from_static(b"payload"), 1_000);
/// // Within the TTL the payload is served (and consumed by `take`)…
/// assert!(cache.take(UserId(1), 1_050).is_some());
/// // …but a payload discovered after its TTL is dropped, not served.
/// cache.insert(UserId(2), Bytes::from_static(b"stale"), 1_000);
/// assert!(cache.take(UserId(2), 1_200).is_none());
/// assert_eq!(cache.stats().expirations, 1);
/// ```
#[derive(Debug)]
pub struct PrefetchCache {
    shards: Vec<Mutex<Shard>>,
    config: CacheConfig,
    /// Cumulative LRU evictions over every shard, for the eviction-storm
    /// event's stride crossings.
    lru_evictions: AtomicU64,
}

impl PrefetchCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless `shards`, `capacity_per_shard` and `ttl_secs` are all
    /// positive.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        assert!(
            config.capacity_per_shard > 0,
            "capacity_per_shard must be positive"
        );
        assert!(config.ttl_secs > 0, "ttl_secs must be positive");
        Self {
            shards: (0..config.shards)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            config,
            lru_evictions: AtomicU64::new(0),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The shard a user's payload lives in (same SplitMix64 spread as
    /// [`pp_serving::ShardedStateStore`]).
    fn shard_index(&self, user: UserId) -> usize {
        let mut z = user.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % self.shards.len() as u64) as usize
    }

    /// Stores the payload prefetched for `user` at time `now`, replacing
    /// any previous payload for the same user; evicts the shard's
    /// least-recently-touched payload when the shard is full. A displaced
    /// payload that had already expired counts as an expiration, not an LRU
    /// eviction — it was dead before the capacity bound touched it.
    pub fn insert(&self, user: UserId, payload: Bytes, now: i64) {
        let obs = crate::obs::PrecomputeObs::global();
        let op = pp_obs::Stopwatch::start();
        let shard = &self.shards[self.shard_index(user)];
        let evicted = shard.lock_or_panic("prefetch cache shard").insert(
            user.0,
            payload,
            now + self.config.ttl_secs,
            self.config.capacity_per_shard,
            now,
        );
        if evicted > 0 {
            let before = self.lru_evictions.fetch_add(evicted, Ordering::Relaxed);
            let total = before + evicted;
            // An eviction storm: cumulative LRU evictions crossed another
            // multiple of the storm stride — inserts are displacing live
            // payloads faster than sessions consume them.
            if pp_obs::is_enabled()
                && total / EVICTION_STORM_STRIDE > before / EVICTION_STORM_STRIDE
            {
                pp_obs::MetricsRegistry::global().events().record(
                    now,
                    pp_obs::EventKind::EvictionStorm,
                    "prefetch_cache",
                    total as f64,
                );
            }
        }
        op.record(&obs.cache_op_ns);
    }

    /// Consumes the payload held for `user`, if it is still fresh at `now`.
    /// An expired payload is dropped and reported as `None` — serving stale
    /// precomputed data would be worse than recomputing.
    pub fn take(&self, user: UserId, now: i64) -> Option<Bytes> {
        let obs = crate::obs::PrecomputeObs::global();
        let op = pp_obs::Stopwatch::start();
        let shard = &self.shards[self.shard_index(user)];
        let payload = shard
            .lock_or_panic("prefetch cache shard")
            .take(user.0, now);
        op.record(&obs.cache_op_ns);
        payload
    }

    /// Number of payloads currently held (fresh, or expired but not yet
    /// taken or displaced).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock_or_panic("prefetch cache shard").map.len())
            .sum()
    }

    /// Returns `true` when no payload is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes currently held.
    pub fn stored_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock_or_panic("prefetch cache shard")
                    .map
                    .values()
                    .map(|e| e.payload.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Running counters, summed over the shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock_or_panic("prefetch cache shard").stats;
            total.insertions += s.insertions;
            total.replacements += s.replacements;
            total.hits += s.hits;
            total.misses += s.misses;
            total.expirations += s.expirations;
            total.lru_evictions += s.lru_evictions;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn cache(capacity: usize, ttl: i64) -> PrefetchCache {
        PrefetchCache::new(CacheConfig {
            shards: 1,
            capacity_per_shard: capacity,
            ttl_secs: ttl,
        })
    }

    #[test]
    fn take_serves_fresh_and_drops_expired() {
        let c = cache(16, 100);
        c.insert(UserId(1), Bytes::from_static(b"payload"), 1_000);
        // Fresh within TTL.
        assert_eq!(
            c.take(UserId(1), 1_099).unwrap(),
            Bytes::from_static(b"payload")
        );
        // A take consumes: second take misses.
        assert!(c.take(UserId(1), 1_099).is_none());
        // Expired at exactly insert + ttl.
        c.insert(UserId(2), Bytes::from_static(b"old"), 1_000);
        assert!(c.take(UserId(2), 1_100).is_none());
        let stats = c.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.expirations, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn insert_replaces_per_user() {
        let c = cache(16, 100);
        c.insert(UserId(5), Bytes::from_static(b"v1"), 0);
        c.insert(UserId(5), Bytes::from_static(b"v2"), 10);
        assert_eq!(c.len(), 1);
        assert_eq!(c.take(UserId(5), 50).unwrap(), Bytes::from_static(b"v2"));
        let stats = c.stats();
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.replacements, 1);
    }

    #[test]
    fn lru_bound_evicts_oldest_payload() {
        let c = cache(3, 1_000);
        for id in 0..3u64 {
            c.insert(UserId(id), Bytes::from(vec![id as u8]), 0);
        }
        c.insert(UserId(9), Bytes::from_static(b"new"), 1);
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().lru_evictions, 1);
        // User 0 was the least recently touched.
        assert!(c.take(UserId(0), 2).is_none());
        assert!(c.take(UserId(9), 2).is_some());
    }

    #[test]
    fn lru_displacement_of_an_expired_entry_counts_as_expiration() {
        let c = cache(2, 10);
        c.insert(UserId(1), Bytes::from_static(b"dead"), 0); // expires at 10
        c.insert(UserId(2), Bytes::from_static(b"live"), 95);
        // At t=100 the shard is full and user 1's payload is long expired:
        // displacing it is an expiration, not a capacity eviction.
        c.insert(UserId(3), Bytes::from_static(b"new"), 100);
        let stats = c.stats();
        assert_eq!(stats.expirations, 1);
        assert_eq!(stats.lru_evictions, 0);
        // Displacing the still-fresh user 2 at t=100 *is* an eviction.
        c.insert(UserId(4), Bytes::from_static(b"newer"), 100);
        let stats = c.stats();
        assert_eq!(stats.expirations, 1);
        assert_eq!(stats.lru_evictions, 1);
    }

    #[test]
    fn users_spread_across_shards() {
        let c = PrefetchCache::new(CacheConfig {
            shards: 8,
            capacity_per_shard: 1_000,
            ttl_secs: 10,
        });
        let mut counts = [0usize; 8];
        for id in 0..800u64 {
            counts[c.shard_index(UserId(id))] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (40..=200).contains(&count),
                "shard {shard} holds {count} of 800 users"
            );
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn an_eviction_storm_is_recorded_each_time_lru_evictions_cross_the_stride() {
        // One slot: every insert after the first evicts a fresh payload.
        let c = cache(1, 1_000);
        let at = 7_777_777; // no other test records an event at this time
        for id in 0..=2 * EVICTION_STORM_STRIDE {
            c.insert(UserId(id), Bytes::from_static(b"p"), at);
        }
        assert_eq!(c.stats().lru_evictions, 2 * EVICTION_STORM_STRIDE);
        let events = pp_obs::MetricsRegistry::global().events().drain();
        let storms: Vec<f64> = events
            .iter()
            .filter(|e| e.kind == pp_obs::EventKind::EvictionStorm && e.at == at)
            .map(|e| e.value)
            .collect();
        assert_eq!(storms, [64.0, 128.0]);
    }

    /// The message a caught panic carries.
    fn panic_message(caught: Box<dyn std::any::Any + Send>) -> String {
        *caught
            .downcast::<String>()
            .expect("a formatted panic message")
    }

    #[test]
    fn a_panic_under_a_shard_lock_fails_every_later_call_on_that_shard() {
        // A lock that forgot the panic would serve user 1's payload below
        // as if the shard were whole.
        let c = cache(16, 100);
        c.insert(UserId(1), Bytes::from_static(b"payload"), 0);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = c.shards[0].lock();
                panic!("a holder dies mid-update");
            });
            assert!(holder.join().is_err());
        });
        let poisoned = "prefetch cache shard: lock poisoned";
        let take = catch_unwind(AssertUnwindSafe(|| c.take(UserId(1), 50)));
        assert!(panic_message(take.unwrap_err()).contains(poisoned));
        let insert = catch_unwind(AssertUnwindSafe(|| {
            c.insert(UserId(2), Bytes::from_static(b"new"), 50);
        }));
        assert!(panic_message(insert.unwrap_err()).contains(poisoned));
        let shard = c.shards[0].lock().unwrap_err().into_inner();
        assert_eq!(shard.map.len(), 1, "a poisoned shard was written");
        assert_eq!(shard.stats.hits, 0, "a poisoned shard served a payload");
    }

    #[test]
    #[should_panic(expected = "ttl_secs must be positive")]
    fn zero_ttl_panics() {
        let _ = cache(4, 0);
    }
}
