//! An in-process key-value store standing in for the "real-time data store
//! similar to Redis" of §9, with the instrumentation the serving cost model
//! needs: request counts and bytes moved, per logical table.
//!
//! Two tables matter for the paper's comparison:
//!
//! * the **hidden-state store** used by the RNN path — exactly one key per
//!   user holding a 512-byte (128 × f32) vector;
//! * the **aggregation store** used by the GBDT path — one key per
//!   (user, context-subset value, window) cell, which the paper notes can be
//!   thousands of keys per user and ~20 lookups per prediction.

use bytes::Bytes;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Running counters for one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Number of `get` calls (hits and misses).
    pub reads: u64,
    /// Number of `put` calls.
    pub writes: u64,
    /// Number of `get` calls that found a value.
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// One stored value together with its recency and frequency stamps.
#[derive(Debug)]
struct Entry {
    value: Bytes,
    /// Monotone tick of the last touch; part of the eviction-index key.
    tick: u64,
    /// Lifetime touches (puts + read hits) of this key.
    freq: u64,
}

/// Map + eviction index behind one lock so they can never disagree.
#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, Entry>,
    /// (rank, tick) → key, ordered victim-first; only maintained when
    /// bounded. Rank is 0 under LRU (pure recency order) and the access
    /// frequency under [`EvictionPolicy::FrequencyWeighted`].
    index: BTreeMap<(u64, u64), String>,
    next_tick: u64,
}

impl Inner {
    fn index_key(policy: EvictionPolicy, entry: &Entry) -> (u64, u64) {
        match policy {
            EvictionPolicy::Lru => (0, entry.tick),
            EvictionPolicy::FrequencyWeighted => (entry.freq, entry.tick),
        }
    }

    fn touch(&mut self, key: &str, policy: EvictionPolicy) {
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(entry) = self.map.get_mut(key) {
            // Move the already-owned key String to its new index slot
            // instead of allocating a fresh one per read.
            let owned = self
                .index
                .remove(&Self::index_key(policy, entry))
                .unwrap_or_else(|| key.to_string());
            entry.tick = tick;
            entry.freq += 1;
            self.index.insert(Self::index_key(policy, entry), owned);
        }
    }
}

/// A thread-safe, instrumented, in-memory key-value store, optionally
/// bounded to a maximum number of keys with least-recently-used eviction
/// (per-user state otherwise grows without bound as the user population
/// does).
#[derive(Debug, Default)]
pub struct KvStore {
    inner: RwLock<Inner>,
    capacity: Option<usize>,
    policy: EvictionPolicy,
    stats: RwLock<StoreStats>,
}

impl KvStore {
    /// Creates an empty, unbounded store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store that holds at most `capacity` keys; inserting
    /// beyond that evicts the least-recently-used key (both `get` and `put`
    /// refresh recency) and bumps [`StoreStats::evictions`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_policy(capacity, EvictionPolicy::Lru)
    }

    /// Creates an empty store bounded to `capacity` keys under the given
    /// [`EvictionPolicy`]. `get` and `put` refresh both recency and
    /// frequency; evictions bump [`StoreStats::evictions`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity_and_policy(capacity: usize, policy: EvictionPolicy) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity: Some(capacity),
            policy,
            ..Self::default()
        }
    }

    /// The capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The eviction policy a bounded store applies (unbounded stores never
    /// evict, so the policy is irrelevant there).
    pub fn eviction_policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Stores `value` under `key`, replacing any previous value. When the
    /// store is at capacity and `key` is new, the least-recently-used entry
    /// is evicted first.
    pub fn put(&self, key: impl Into<String>, value: Bytes) {
        let key = key.into();
        let mut stats = self.stats.write();
        stats.writes += 1;
        stats.bytes_written += value.len() as u64;
        drop(stats);

        let mut inner = self.inner.write();
        let tick = inner.next_tick;
        inner.next_tick += 1;
        let freq = inner.map.get(&key).map_or(0, |old| old.freq) + 1;
        let entry = Entry { value, tick, freq };
        let index_key = Inner::index_key(self.policy, &entry);
        if let Some(old) = inner.map.insert(key.clone(), entry) {
            inner.index.remove(&Inner::index_key(self.policy, &old));
        }
        if let Some(capacity) = self.capacity {
            inner.index.insert(index_key, key);
            let mut evicted = 0u64;
            while inner.map.len() > capacity {
                let (&victim_key, _) = inner.index.iter().next().expect("index tracks map");
                let victim = inner.index.remove(&victim_key).expect("victim present");
                inner.map.remove(&victim);
                evicted += 1;
            }
            if evicted > 0 {
                self.stats.write().evictions += evicted;
                crate::obs::ServingObs::global()
                    .store_evictions
                    .add(evicted);
            }
        }
    }

    /// Fetches the value under `key`, if any. On a bounded store a hit also
    /// refreshes the key's recency.
    pub fn get(&self, key: &str) -> Option<Bytes> {
        let value = if self.capacity.is_some() {
            let mut inner = self.inner.write();
            let value = inner.map.get(key).map(|e| e.value.clone());
            if value.is_some() {
                inner.touch(key, self.policy);
            }
            value
        } else {
            self.inner.read().map.get(key).map(|e| e.value.clone())
        };
        let mut stats = self.stats.write();
        stats.reads += 1;
        if let Some(v) = &value {
            stats.hits += 1;
            stats.bytes_read += v.len() as u64;
        }
        value
    }

    /// Removes the value under `key`, returning it if present.
    pub fn remove(&self, key: &str) -> Option<Bytes> {
        let mut inner = self.inner.write();
        let entry = inner.map.remove(key)?;
        inner.index.remove(&Inner::index_key(self.policy, &entry));
        Some(entry.value)
    }

    /// Whether `key` is currently stored. Unlike [`KvStore::get`] this does
    /// not count as store traffic and never refreshes recency or frequency
    /// — it exists so measurement harnesses can probe residency without
    /// perturbing what they measure.
    pub fn contains_key(&self, key: &str) -> bool {
        self.inner.read().map.contains_key(key)
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.inner.read().map.len()
    }

    /// Returns `true` when the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.inner.read().map.is_empty()
    }

    /// Total bytes currently stored across all values.
    pub fn stored_bytes(&self) -> u64 {
        self.inner
            .read()
            .map
            .values()
            .map(|e| e.value.len() as u64)
            .sum()
    }

    /// Snapshot of the running counters.
    pub fn stats(&self) -> StoreStats {
        *self.stats.read()
    }

    /// Resets the running counters (stored data is kept).
    pub fn reset_stats(&self) {
        *self.stats.write() = StoreStats::default();
    }
}

/// Serializes an `f32` hidden state into bytes (little-endian).
pub fn encode_state_f32(state: &[f32]) -> Bytes {
    let mut out = Vec::with_capacity(state.len() * 4);
    for v in state {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Bytes::from(out)
}

/// Deserializes an `f32` hidden state from bytes produced by
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
    let mut state = vec![0.0; bytes.len() / 4];
    decode_state_f32_into(bytes, &mut state);
    state
}

/// Decodes bytes produced by [`encode_state_f32`] straight into `out` (a
/// batch's state row), allocating nothing.
///
/// # Panics
///
/// Panics if `bytes` does not hold exactly `out.len()` values.
pub fn decode_state_f32_into(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(
        bytes.len(),
        out.len() * 4,
        "stored state holds {} bytes, expected {} values",
        bytes.len(),
        out.len()
    );
    for (value, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *value = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
}

/// A uniformly quantized hidden state: one byte per dimension plus a scale
/// and offset (§9: "neural network quantization methods can also be applied
/// to store single bytes instead of floating-point numbers").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedState {
    /// Per-dimension codes.
    pub codes: Vec<u8>,
    /// Dequantized value = `offset + code × scale`.
    pub scale: f32,
    /// See `scale`.
    pub offset: f32,
}

impl QuantizedState {
    /// Quantizes a state vector to 8 bits per dimension.
    pub fn quantize(state: &[f32]) -> Self {
        let min = state.iter().copied().fold(f32::INFINITY, f32::min);
        let max = state.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let (min, max) = if state.is_empty() || !min.is_finite() {
            (0.0, 0.0)
        } else {
            (min, max)
        };
        let scale = if max > min { (max - min) / 255.0 } else { 1.0 };
        let codes = state
            .iter()
            .map(|&v| (((v - min) / scale).round().clamp(0.0, 255.0)) as u8)
            .collect();
        Self {
            codes,
            scale,
            offset: min,
        }
    }

    /// Reconstructs the (lossy) state vector.
    pub fn dequantize(&self) -> Vec<f32> {
        self.codes
            .iter()
            .map(|&c| self.offset + c as f32 * self.scale)
            .collect()
    }

    /// Serialized size in bytes (codes + scale + offset).
    pub fn encoded_bytes(&self) -> usize {
        self.codes.len() + 8
    }

    /// Encodes into bytes for the key-value store.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.encoded_bytes());
        out.extend_from_slice(&self.scale.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.codes);
        Bytes::from(out)
    }

    /// Decodes from bytes produced by [`QuantizedState::encode`].
    ///
    /// # Panics
    ///
    /// Panics if the buffer is shorter than the 8-byte header.
    pub fn decode(bytes: &Bytes) -> Self {
        assert!(bytes.len() >= 8, "quantized state too short");
        let scale = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let offset = f32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        Self {
            codes: bytes[8..].to_vec(),
            scale,
            offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_and_stats() {
        let store = KvStore::new();
        assert!(store.is_empty());
        store.put("user-1", Bytes::from_static(b"hello"));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get("user-1").unwrap(), Bytes::from_static(b"hello"));
        assert!(store.get("user-2").is_none());
        let stats = store.stats();
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.bytes_written, 5);
        assert_eq!(stats.bytes_read, 5);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        store.reset_stats();
        assert_eq!(store.stats().reads, 0);
        assert_eq!(store.stored_bytes(), 5);
        assert_eq!(
            store.remove("user-1").unwrap(),
            Bytes::from_static(b"hello")
        );
        assert!(store.is_empty());
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
    fn quantization_is_close_and_4x_smaller() {
        let state: Vec<f32> = (0..128).map(|i| (i as f32 / 13.0).sin()).collect();
        let q = QuantizedState::quantize(&state);
        let back = q.dequantize();
        assert_eq!(back.len(), state.len());
        let max_err = state
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.01, "quantization error too large: {max_err}");
        assert!(q.encoded_bytes() * 3 < encode_state_f32(&state).len());
        // Encode/decode roundtrip.
        let decoded = QuantizedState::decode(&q.encode());
        assert_eq!(decoded, q);
    }

    #[test]
    fn quantization_handles_constant_and_empty_vectors() {
        let q = QuantizedState::quantize(&[1.5; 10]);
        assert!(q.dequantize().iter().all(|&v| (v - 1.5).abs() < 1e-6));
        let q = QuantizedState::quantize(&[]);
        assert!(q.dequantize().is_empty());
    }

    #[test]
    fn bounded_store_evicts_least_recently_used() {
        let store = KvStore::with_capacity(3);
        assert_eq!(store.capacity(), Some(3));
        store.put("a", Bytes::from_static(b"1"));
        store.put("b", Bytes::from_static(b"2"));
        store.put("c", Bytes::from_static(b"3"));
        // Touch "a" so "b" becomes the least recently used.
        assert!(store.get("a").is_some());
        store.put("d", Bytes::from_static(b"4"));
        assert_eq!(store.len(), 3);
        assert!(store.get("b").is_none(), "LRU key should be evicted");
        assert!(store.get("a").is_some());
        assert!(store.get("c").is_some());
        assert!(store.get("d").is_some());
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn bounded_store_replacement_does_not_evict() {
        let store = KvStore::with_capacity(2);
        store.put("a", Bytes::from_static(b"1"));
        store.put("b", Bytes::from_static(b"2"));
        // Overwriting an existing key keeps the store at capacity.
        store.put("a", Bytes::from_static(b"11"));
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 0);
        assert_eq!(store.get("a").unwrap(), Bytes::from_static(b"11"));
    }

    #[test]
    fn bounded_store_never_exceeds_capacity() {
        let store = KvStore::with_capacity(8);
        for i in 0..100 {
            store.put(format!("k-{i}"), Bytes::from(vec![0u8; 4]));
            assert!(store.len() <= 8, "len {} exceeds capacity", store.len());
        }
        assert_eq!(store.len(), 8);
        assert_eq!(store.stats().evictions, 92);
        // The survivors are exactly the 8 most recently inserted keys.
        for i in 92..100 {
            assert!(store.get(&format!("k-{i}")).is_some(), "k-{i} missing");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = KvStore::with_capacity(0);
    }

    #[test]
    fn frequency_weighted_store_keeps_hot_keys_under_scan_pressure() {
        let store = KvStore::with_capacity_and_policy(4, EvictionPolicy::FrequencyWeighted);
        assert_eq!(store.eviction_policy(), EvictionPolicy::FrequencyWeighted);
        store.put("hot", Bytes::from_static(b"h"));
        for _ in 0..10 {
            assert!(store.get("hot").is_some());
        }
        // A scan of one-shot keys floods the store; each newcomer has
        // frequency 1, so they evict each other while "hot" survives.
        for i in 0..50 {
            store.put(format!("scan-{i}"), Bytes::from_static(b"s"));
        }
        assert_eq!(store.len(), 4);
        assert!(
            store.get("hot").is_some(),
            "frequency-weighted eviction must keep the hot key"
        );
        // The same scan against an LRU store washes the hot key out.
        let lru = KvStore::with_capacity(4);
        lru.put("hot", Bytes::from_static(b"h"));
        for _ in 0..10 {
            assert!(lru.get("hot").is_some());
        }
        for i in 0..50 {
            lru.put(format!("scan-{i}"), Bytes::from_static(b"s"));
        }
        assert!(lru.get("hot").is_none(), "LRU evicts the unscanned hot key");
    }

    #[test]
    fn frequency_ties_break_by_recency_and_puts_count_as_touches() {
        let store = KvStore::with_capacity_and_policy(2, EvictionPolicy::FrequencyWeighted);
        store.put("a", Bytes::from_static(b"1")); // freq 1, older
        store.put("b", Bytes::from_static(b"2")); // freq 1, newer
        store.put("c", Bytes::from_static(b"3")); // evicts "a" (tie → oldest)
        assert!(store.get("a").is_none());
        assert!(store.get("b").is_some()); // freq 2
                                           // Re-putting "c" bumps its frequency to 2; inserting "d" (freq 1)
                                           // cannot displace either freq-2 key, so "d" is itself the victim.
        store.put("c", Bytes::from_static(b"3"));
        store.put("d", Bytes::from_static(b"4"));
        assert_eq!(store.len(), 2);
        assert!(store.get("d").is_none());
        assert!(store.get("b").is_some());
        assert!(store.get("c").is_some());
    }

    #[test]
    fn contains_key_does_not_count_as_traffic_or_refresh_recency() {
        let store = KvStore::with_capacity(2);
        store.put("a", Bytes::from_static(b"1"));
        store.put("b", Bytes::from_static(b"2"));
        let reads_before = store.stats().reads;
        assert!(store.contains_key("a"));
        assert!(!store.contains_key("zzz"));
        assert_eq!(store.stats().reads, reads_before);
        // contains_key must not have refreshed "a": it is still the LRU
        // victim when "c" arrives.
        store.put("c", Bytes::from_static(b"3"));
        assert!(!store.contains_key("a"));
        assert!(store.contains_key("b"));
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let store = std::sync::Arc::new(KvStore::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    s.put(format!("k-{t}-{i}"), Bytes::from(vec![0u8; 8]));
                    let _ = s.get(&format!("k-{t}-{i}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 400);
        assert_eq!(store.stats().writes, 400);
        assert_eq!(store.stats().hits, 400);
    }
}
