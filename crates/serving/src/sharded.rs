//! The sharded hidden-state store: the paper's "one 512-byte lookup per
//! prediction" (§9), typed and in place.
//!
//! A [`ShardedStateStore`] splits the user population over `N` independent
//! [`StateShard`]s by a hash of the user id, so requests for different
//! users proceed concurrently and only same-shard accesses contend. A shard
//! is one mutex around an index of slot numbers, a slab of 16-byte slots
//! (user and LRU list links), one arena of state rows — slot `i`'s state is
//! row `i` — the eviction order and the shard's traffic counters. The index
//! is open addressing over a power-of-two `Vec<u32>` kept at most half
//! full: a lookup probes linearly from the user's hash and compares the
//! user in each slot it meets, and a deletion shifts the rest of its
//! cluster back, so there are no tombstones. A stored state therefore costs
//! its `2 × width` bytes in the arena, its 16-byte slot and two to four
//! 4-byte index buckets, and no allocation of its own; a frequency-weighted
//! shard adds its `(freq, tick)` stamps and their rank entry.
//!
//! Rows hold bf16 values: the top half of each `f32`. A put rounds every
//! value to the nearest bf16, ties to even (NaN stays NaN); a read widens it
//! back with a 16-bit shift, straight into the caller's `f32` row. So a read
//! returns the bf16 rounding of what was put — within 2⁻⁸ of each normal
//! value, relatively: bf16 keeps 8 significant bits — and a value that is
//! already a bf16 comes back exactly.
//! `tests/state_rounding_bound.rs` at the workspace root bounds what this
//! moves a served score by.
//!
//! The first put fixes the store's width; a put of any other width panics.
//! A bounded shard allocates its `capacity + 1` rows, slots and index at
//! its first put (a newcomer is inserted before its victim leaves) and
//! never grows or rehashes them; an unbounded one grows its arena by chunks
//! of 64 rows that never move, so growing never copies the arena or leaves
//! a discarded copy's pages behind, and doubles its index.
//!
//! The unit of work is a batch of users, not one user. The store walks the
//! batch in order, cuts it into runs of consecutive same-shard users (at
//! most 64 long), and takes each run's shard lock once, never two at a
//! time. A read run probes every key first, so the run's index misses
//! overlap, then touches each hit and copies it into the caller's row in
//! row order. A write run copies each row over the one already there, one
//! user after another. Each shard counts its reads, hits, writes and
//! evictions under the run's lock ([`ShardedStateStore::stats`] sums them).
//! A single user is a run of one through the same locked read or write.
//! Neither path builds a key, encodes a value or, once the resident set is
//! warm, allocates: an evicting put copies the newcomer into its victim's
//! row.

use crate::kv_store::{EvictionPolicy, StoreStats};
use pp_data::schema::UserId;
use pp_obs::sync::LockPolicy;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// "No slot": the end of the recency list, and an empty index bucket.
const NIL: u32 = u32::MAX;

/// Buckets in an unbounded shard's first index; it doubles from there.
const MIN_BUCKETS: usize = 16;

/// Most users one shard lock is taken for: a run's ids and probed slots
/// live in stack buffers of this many entries, so a 64-row batch drained
/// from one shard's queue takes that shard's lock once.
const RUN: usize = 64;

/// `log2` of the rows in one chunk of an unbounded shard's arena: 64 rows,
/// 32 KiB at H = 128, so a shard's last, partly filled chunk leaves little
/// unused.
const CHUNK_SHIFT: u32 = 6;

/// Rows in one chunk of an unbounded shard's arena.
const CHUNK_ROWS: usize = 1 << CHUNK_SHIFT;

/// Hash of a user id inside its shard: Murmur3's 64-bit finalizer.
/// Deliberately not [`ShardedStateStore::shard_index`]'s mixer — every key
/// of a shard shares that hash modulo the shard count, so reusing it (or
/// the raw id) would pile the shard's keys onto a fraction of the index's
/// buckets. Fixed rather than randomly keyed: user ids are assigned by the
/// system, not chosen by its clients.
fn in_shard_hash(user: u64) -> u64 {
    let mut z = user;
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

/// One resident (or freed) state's user and LRU links; its values are the
/// arena row of the same index.
#[derive(Debug)]
struct Slot {
    user: u64,
    /// Neighbours in the LRU list (towards the head / towards the tail).
    prev: u32,
    next: u32,
}

/// A shard's state rows, `width` bf16 values each: row `i` is slot `i`'s
/// state. Rows live in chunks of `chunk_rows` rows, each allocated whole and
/// never reallocated, so a row never moves once written.
#[derive(Debug)]
struct Rows {
    /// Values per row: 0 until the shard's first put.
    width: usize,
    /// `log2` of rows per chunk. A bounded shard's one chunk holds
    /// `capacity + 1` rows and every row index is below `2^32`, so its
    /// shift is 32: `at >> 32` is chunk 0 for any `u32` index.
    shift: u32,
    /// Rows allocated per chunk: `capacity + 1`, or `CHUNK_ROWS`.
    chunk_rows: usize,
    chunks: Vec<Vec<u16>>,
}

impl Rows {
    fn new(capacity: Option<usize>) -> Self {
        let (shift, chunk_rows) = match capacity {
            Some(capacity) => (u32::BITS, capacity + 1),
            None => (CHUNK_SHIFT, CHUNK_ROWS),
        };
        Self {
            width: 0,
            shift,
            chunk_rows,
            chunks: Vec::new(),
        }
    }

    /// The chunk holding row `at`, and the row's first value in it.
    fn locate(&self, at: u32) -> (usize, usize) {
        let at = u64::from(at);
        let chunk = (at >> self.shift) as usize;
        let row = (at & ((1 << self.shift) - 1)) as usize;
        (chunk, row * self.width)
    }

    fn row(&self, at: u32) -> &[u16] {
        let (chunk, start) = self.locate(at);
        &self.chunks[chunk][start..][..self.width]
    }

    fn row_mut(&mut self, at: u32) -> &mut [u16] {
        let (chunk, start) = self.locate(at);
        let width = self.width;
        &mut self.chunks[chunk][start..][..width]
    }

    /// Appends row `at`, the row after the last one, for `state` to be
    /// written into, starting a new chunk when the last one is full. The
    /// first row fixes the width.
    fn push(&mut self, at: u32, state: &[f32]) {
        if at == 0 {
            self.width = state.len();
        }
        assert_eq!(
            state.len(),
            self.width,
            "a shard of {}-value rows cannot take one of {}",
            self.width,
            state.len()
        );
        let (chunk, _) = self.locate(at);
        if chunk == self.chunks.len() {
            self.chunks
                .push(Vec::with_capacity(self.chunk_rows * self.width));
        }
        let chunk = self.chunks.last_mut().expect("a chunk was just ensured");
        debug_assert!(chunk.len() + state.len() <= chunk.capacity());
        chunk.resize(chunk.len() + state.len(), 0);
    }
}

/// Everything a shard mutates, behind one lock so the index, the eviction
/// order and the counters can never disagree.
#[derive(Debug)]
struct ShardInner {
    /// Open-addressing index of the resident slots: a power-of-two number
    /// of buckets, at most half of them holding a slot number, the rest
    /// `NIL`. A user's slot sits at or after its home bucket
    /// (`in_shard_hash(user)`'s low bits, wrapping), with no empty bucket
    /// in between.
    index: Vec<u32>,
    slots: Vec<Slot>,
    rows: Rows,
    /// Indices of `slots` not in `index`, reused before the slab grows.
    free: Vec<u32>,
    /// Most recently touched slot; [`EvictionPolicy::Lru`] shards only.
    lru_head: u32,
    /// Least recently touched slot — the LRU victim.
    lru_tail: u32,
    /// Slot `i`'s `(freq, tick)`: lifetime touches (puts + read hits) and
    /// the tick of the last; [`EvictionPolicy::FrequencyWeighted`] shards
    /// only.
    ranks: Vec<(u64, u64)>,
    /// `(freq, tick) → slot`, victim first; frequency-weighted shards only.
    by_rank: BTreeMap<(u64, u64), u32>,
    next_tick: u64,
    stats: StoreStats,
}

impl ShardInner {
    /// Resident states: every slot not on the free list.
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `user`'s home bucket.
    fn home(&self, user: u64) -> usize {
        in_shard_hash(user) as usize & (self.index.len() - 1)
    }

    /// The bucket holding `user`'s slot, or else the empty bucket its probe
    /// ended at. An index with no buckets yet answers a miss.
    fn probe(&self, user: u64) -> Result<usize, usize> {
        let mask = self.index.len().wrapping_sub(1);
        let mut bucket = in_shard_hash(user) as usize & mask;
        while let Some(&at) = self.index.get(bucket) {
            if at == NIL {
                break;
            }
            if self.slots[at as usize].user == user {
                return Ok(bucket);
            }
            bucket = (bucket + 1) & mask;
        }
        Err(bucket)
    }

    /// `user`'s slot, or `NIL`.
    fn slot_of(&self, user: u64) -> u32 {
        self.probe(user).map_or(NIL, |bucket| self.index[bucket])
    }

    /// Files the new slot `at`, whose user is set, in the index: in
    /// `bucket`, the empty bucket its user's miss ended at, unless the index
    /// must first grow to stay at most half full. A bounded shard's index
    /// grows once, from nothing at its first put, to hold `capacity + 1`
    /// slots; an unbounded shard's doubles.
    fn index_slot(&mut self, at: u32, bucket: usize, capacity: Option<usize>) {
        let user = self.slots[at as usize].user;
        let bucket = if 2 * self.len() > self.index.len() {
            let buckets = match capacity {
                Some(capacity) => (2 * (capacity + 1)).next_power_of_two(),
                None => (2 * self.index.len()).max(MIN_BUCKETS),
            };
            let old = std::mem::replace(&mut self.index, vec![NIL; buckets]);
            for moved in old.into_iter().filter(|&moved| moved != NIL) {
                let user = self.slots[moved as usize].user;
                let to = self.probe(user).expect_err("indexed users are distinct");
                self.index[to] = moved;
            }
            self.probe(user).expect_err("a new user is not indexed")
        } else {
            bucket
        };
        self.index[bucket] = at;
    }

    /// Empties `hole` and shifts the rest of its cluster back: an entry
    /// moves into the hole when the hole lies (cyclically) between its home
    /// and where it sits, so every entry stays reachable from its home
    /// with no empty bucket in between, and no tombstone is left.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut bucket = hole;
        loop {
            bucket = (bucket + 1) & mask;
            let at = self.index[bucket];
            if at == NIL {
                break;
            }
            let home = self.home(self.slots[at as usize].user);
            if bucket.wrapping_sub(home) & mask >= bucket.wrapping_sub(hole) & mask {
                self.index[hole] = at;
                hole = bucket;
            }
        }
        self.index[hole] = NIL;
    }

    /// Takes `at` out of the eviction order `order` keeps (`None`: an
    /// unbounded shard keeps none) and returns its touches so far, which
    /// only frequency weighting counts (0 otherwise).
    fn unrank(&mut self, at: u32, order: Option<EvictionPolicy>) -> u64 {
        match order {
            None => 0,
            Some(EvictionPolicy::Lru) => {
                let Slot { prev, next, .. } = self.slots[at as usize];
                match prev {
                    NIL => self.lru_head = next,
                    p => self.slots[p as usize].next = next,
                }
                match next {
                    NIL => self.lru_tail = prev,
                    n => self.slots[n as usize].prev = prev,
                }
                0
            }
            Some(EvictionPolicy::FrequencyWeighted) => {
                let rank = self.ranks[at as usize];
                self.by_rank.remove(&rank);
                rank.0
            }
        }
    }

    /// Files `at` as the most recent touch, its `freq`-th, in the eviction
    /// order; under frequency weighting it is stamped with the next tick.
    fn rank(&mut self, at: u32, order: Option<EvictionPolicy>, freq: u64) {
        match order {
            None => {}
            Some(EvictionPolicy::Lru) => {
                let head = std::mem::replace(&mut self.lru_head, at);
                let slot = &mut self.slots[at as usize];
                (slot.prev, slot.next) = (NIL, head);
                match head {
                    NIL => self.lru_tail = at,
                    h => self.slots[h as usize].prev = at,
                }
            }
            Some(EvictionPolicy::FrequencyWeighted) => {
                let rank = (freq, self.next_tick);
                self.next_tick += 1;
                self.ranks[at as usize] = rank;
                self.by_rank.insert(rank, at);
            }
        }
    }

    /// The slot `min (rank, tick)` names: rank 0 under LRU, `freq` under
    /// frequency weighting.
    fn victim(&self, policy: EvictionPolicy) -> u32 {
        match policy {
            EvictionPolicy::Lru => self.lru_tail,
            EvictionPolicy::FrequencyWeighted => {
                *self.by_rank.first_key_value().expect("a full shard").1
            }
        }
    }

    /// Drops slot `at`'s user, indexed in `bucket`, from the shard; the
    /// slot and its row go to the free list.
    fn release(&mut self, at: u32, bucket: usize, order: Option<EvictionPolicy>) {
        self.unrank(at, order);
        self.unindex(bucket);
        self.free.push(at);
    }

    /// Counted read of the state in slot `at`; on a bounded shard a hit is
    /// also a touch.
    fn touch(&mut self, at: u32, order: Option<EvictionPolicy>) -> &[u16] {
        let freq = self.unrank(at, order);
        self.rank(at, order, freq + 1);
        self.stats.hits += 1;
        self.stats.bytes_read += BF16_BYTES * self.rows.width as u64;
        self.rows.row(at)
    }

    /// Stores `state`, rounded to bf16, for `user`, overwriting the previous
    /// one in place; a new user's arrival may evict.
    fn put(&mut self, user: u64, state: &[f32], capacity: Option<usize>, policy: EvictionPolicy) {
        let order = capacity.map(|_| policy);
        self.stats.writes += 1;
        self.stats.bytes_written += BF16_BYTES * state.len() as u64;
        let (at, freq) = match self.probe(user) {
            Ok(bucket) => {
                let at = self.index[bucket];
                (at, self.unrank(at, order) + 1)
            }
            Err(bucket) => {
                let at = self
                    .free
                    .pop()
                    .unwrap_or_else(|| self.push_slot(state, capacity, order));
                self.slots[at as usize].user = user;
                self.index_slot(at, bucket, capacity);
                (at, 1)
            }
        };
        narrow_row(self.rows.row_mut(at), state);
        self.rank(at, order, freq);
        if let Some(capacity) = capacity {
            while self.len() > capacity {
                let victim = self.victim(policy);
                let bucket = self
                    .probe(self.slots[victim as usize].user)
                    .expect("a ranked slot is indexed");
                self.release(victim, bucket, order);
                self.stats.evictions += 1;
            }
        }
    }

    /// Appends a slot and a row for `state`. A bounded shard's first put
    /// sizes the slab, its ranks and the arena for the `capacity + 1`
    /// states it can briefly hold, so filling it allocates nothing more.
    fn push_slot(
        &mut self,
        state: &[f32],
        capacity: Option<usize>,
        order: Option<EvictionPolicy>,
    ) -> u32 {
        let weighted = order == Some(EvictionPolicy::FrequencyWeighted);
        if let Some(capacity) = capacity.filter(|_| self.slots.is_empty()) {
            self.slots.reserve_exact(capacity + 1);
            if weighted {
                self.ranks.reserve_exact(capacity + 1);
            }
        }
        let at = u32::try_from(self.slots.len()).expect("a shard holds < 2^32 states");
        self.slots.push(Slot {
            user: 0,
            prev: NIL,
            next: NIL,
        });
        if weighted {
            self.ranks.push((0, 0));
        }
        self.rows.push(at, state);
        at
    }
}

/// One shard of a [`ShardedStateStore`]: the states of the users that hash
/// to it, optionally bounded to a number of states under an
/// [`EvictionPolicy`].
///
/// On a bounded shard every `put` and every read hit is a touch: under
/// LRU it moves the state to the front of the recency list; under
/// frequency weighting it counts one more touch of the state and stamps it
/// with a fresh tick. An unbounded shard keeps no order.
/// After a new user's state is inserted a bounded shard evicts
/// the minimum `(rank, tick)` — rank 0 under [`EvictionPolicy::Lru`], the
/// touch count under [`EvictionPolicy::FrequencyWeighted`], so a newcomer
/// can be its own victim there — until it is back within its bound.
///
/// A panic under the shard's lock (a state of the wrong width, say) may
/// leave its index, slots and rows disagreeing, so it poisons the shard:
/// every later call that locks it panics with "store shard: lock
/// poisoned" before it reads or writes anything.
#[derive(Debug)]
pub struct StateShard {
    inner: Mutex<ShardInner>,
    capacity: Option<usize>,
    policy: EvictionPolicy,
}

impl StateShard {
    pub(crate) fn new(capacity: Option<usize>, policy: EvictionPolicy) -> Self {
        assert!(capacity != Some(0), "capacity must be positive");
        Self {
            inner: Mutex::new(ShardInner {
                index: Vec::new(),
                slots: Vec::new(),
                rows: Rows::new(capacity),
                free: Vec::new(),
                lru_head: NIL,
                lru_tail: NIL,
                ranks: Vec::new(),
                by_rank: BTreeMap::new(),
                next_tick: 0,
                stats: StoreStats::default(),
            }),
            capacity,
            policy,
        }
    }

    /// The eviction order this shard maintains: none when unbounded.
    fn order(&self) -> Option<EvictionPolicy> {
        self.capacity.map(|_| self.policy)
    }

    /// The capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of states currently stored.
    pub fn len(&self) -> usize {
        self.inner.lock_or_panic("store shard").len()
    }

    /// Returns `true` when the shard holds no state.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the running counters.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock_or_panic("store shard").stats
    }

    /// Total bytes of the states currently stored.
    pub(crate) fn stored_bytes(&self) -> u64 {
        let inner = self.inner.lock_or_panic("store shard");
        BF16_BYTES * (inner.rows.width * inner.len()) as u64
    }

    /// Counted reads of a run of this shard's users under one lock. Every
    /// key is probed before any state is touched, so the probes' cache
    /// misses overlap instead of queueing behind one another; a read moves
    /// no slot, so the probes stay valid. Then, in run order, each hit is
    /// touched (on a bounded shard) and its bf16 row handed to `copy_out`
    /// with its index in the run — the ticks, frequencies and stats that
    /// reading the users one at a time leaves. Returns the hits.
    ///
    /// # Panics
    ///
    /// Panics if the run is longer than `RUN`.
    pub(crate) fn read_run(&self, users: &[u64], mut copy_out: impl FnMut(usize, &[u16])) -> u64 {
        let order = self.order();
        let mut probes = [NIL; RUN];
        let probes = &mut probes[..users.len()];
        let mut guard = self.inner.lock_or_panic("store shard");
        let inner = &mut *guard;
        for (at, user) in probes.iter_mut().zip(users) {
            *at = inner.slot_of(*user);
        }
        inner.stats.reads += users.len() as u64;
        let mut hits = 0;
        for (row, &at) in probes.iter().enumerate() {
            if at != NIL {
                copy_out(row, inner.touch(at, order));
                hits += 1;
            }
        }
        hits
    }

    /// Stores row `i` of `rows` (`width` values each), rounded to bf16, for
    /// `users[i]` under one lock, one user after another. A put can evict a
    /// later user of the same run, so nothing is probed ahead.
    pub(crate) fn put_run(&self, users: &[u64], rows: &[f32], width: usize) {
        let mut inner = self.inner.lock_or_panic("store shard");
        for (row, &user) in users.iter().enumerate() {
            let state = &rows[row * width..][..width];
            inner.put(user, state, self.capacity, self.policy);
        }
    }

    /// Removes `user`'s state, returning it (widened) if present.
    pub(crate) fn remove(&self, user: UserId) -> Option<Vec<f32>> {
        let mut guard = self.inner.lock_or_panic("store shard");
        let inner = &mut *guard;
        let bucket = inner.probe(user.0).ok()?;
        let at = inner.index[bucket];
        inner.release(at, bucket, self.order());
        Some(widen(inner.rows.row(at)))
    }

    /// Whether `user`'s state is stored; neither counted nor a touch.
    pub(crate) fn contains(&self, user: UserId) -> bool {
        self.inner
            .lock_or_panic("store shard")
            .probe(user.0)
            .is_ok()
    }
}

/// Bytes one stored value takes: a bf16.
const BF16_BYTES: u64 = 2;

/// The bf16 nearest `value`, ties to even: its top 16 bits after adding
/// `0x7fff` plus the lowest kept bit, which carries into the kept half
/// exactly when the dropped half is above one half, or equal to it with
/// the kept half odd. A finite value past bf16's largest rounds to ±∞. A
/// NaN gets its quiet bit and no add — the add would carry `0x7f80_0001`
/// into +∞ — so it keeps its sign and top payload bits and stays a NaN. Two
/// selects and no branch, so a row's loop vectorizes.
fn to_bf16(value: f32) -> u16 {
    let nan = value.is_nan();
    let bits = value.to_bits() | if nan { 0x0040_0000 } else { 0 };
    let bias = if nan { 0 } else { 0x7fff + ((bits >> 16) & 1) };
    (bits.wrapping_add(bias) >> 16) as u16
}

/// The `f32` a bf16 stands for: its 16 bits on top of 16 zero bits, exact.
pub(crate) fn from_bf16(code: u16) -> f32 {
    f32::from_bits(u32::from(code) << 16)
}

/// Rounds `state` into the arena row `row`.
///
/// # Panics
///
/// Panics if the two differ in length.
fn narrow_row(row: &mut [u16], state: &[f32]) {
    assert_eq!(
        row.len(),
        state.len(),
        "a row of {} values cannot take {}",
        row.len(),
        state.len()
    );
    for (code, &value) in row.iter_mut().zip(state) {
        *code = to_bf16(value);
    }
}

/// A stored row widened into a new `Vec`.
fn widen(row: &[u16]) -> Vec<f32> {
    row.iter().map(|&code| from_bf16(code)).collect()
}

/// Widens a stored state into the caller's row.
///
/// # Panics
///
/// Panics if the two differ in length.
fn copy_row(out: &mut [f32], state: &[u16]) {
    assert_eq!(
        state.len(),
        out.len(),
        "stored state holds {} values, expected {}",
        state.len(),
        out.len()
    );
    for (value, &code) in out.iter_mut().zip(state) {
        *value = from_bf16(code);
    }
}

/// A fixed-size array of independent [`StateShard`]s keyed by user-id
/// hash.
#[derive(Debug)]
pub struct ShardedStateStore {
    shards: Vec<StateShard>,
    /// Values per state, fixed by the first put.
    width: OnceLock<usize>,
}

impl ShardedStateStore {
    /// Creates a store with `num_shards` independent shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards > 0, "ShardedStateStore needs at least one shard");
        Self {
            shards: (0..num_shards)
                .map(|_| StateShard::new(None, EvictionPolicy::default()))
                .collect(),
            width: OnceLock::new(),
        }
    }

    /// Creates a store bounded to **exactly** `total_capacity` states
    /// across `num_shards` shards: shard capacities are
    /// `total_capacity / num_shards` each, with the remainder distributed
    /// one state at a time to the lowest-indexed shards, so the per-shard
    /// bounds sum to `total_capacity` and [`ShardedStateStore::capacity`]
    /// reports it exactly. Each shard evicts its least-recently-used state
    /// beyond its bound (evictions show up in [`StoreStats::evictions`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or `total_capacity < num_shards`
    /// (every shard must be able to hold at least one state).
    pub fn with_capacity(num_shards: usize, total_capacity: usize) -> Self {
        Self::with_capacity_and_policy(num_shards, total_capacity, EvictionPolicy::Lru)
    }

    /// Like [`ShardedStateStore::with_capacity`], with an explicit
    /// per-shard [`EvictionPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or `total_capacity < num_shards`.
    pub fn with_capacity_and_policy(
        num_shards: usize,
        total_capacity: usize,
        policy: EvictionPolicy,
    ) -> Self {
        assert!(num_shards > 0, "ShardedStateStore needs at least one shard");
        assert!(
            total_capacity >= num_shards,
            "total_capacity ({total_capacity}) must be at least num_shards ({num_shards}) \
             so every shard can hold a state"
        );
        let base = total_capacity / num_shards;
        let remainder = total_capacity % num_shards;
        Self {
            shards: (0..num_shards)
                .map(|shard| {
                    let capacity = base + usize::from(shard < remainder);
                    StateShard::new(Some(capacity), policy)
                })
                .collect(),
            width: OnceLock::new(),
        }
    }

    /// Maximum number of states the store can hold (`None` when unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.shards
            .iter()
            .map(StateShard::capacity)
            .try_fold(0usize, |acc, c| c.map(|c| acc + c))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a user's state lives in. SplitMix64 finalizer over the raw
    /// id: consecutive user ids (the common synthetic-workload case) spread
    /// uniformly instead of striping.
    pub fn shard_index(&self, user: UserId) -> usize {
        let mut z = user.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % self.shards.len() as u64) as usize
    }

    /// Direct access to one shard (for per-shard instrumentation).
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_shards()`.
    pub fn shard(&self, index: usize) -> &StateShard {
        &self.shards[index]
    }

    fn shard_of(&self, user: UserId) -> &StateShard {
        &self.shards[self.shard_index(user)]
    }

    /// Fixes the store's width at the first put and holds every later put
    /// to it.
    ///
    /// # Panics
    ///
    /// Panics if the store already holds states of another width.
    fn check_width(&self, width: usize) {
        let fixed = *self.width.get_or_init(|| width);
        assert_eq!(
            fixed, width,
            "this store holds states of {fixed} values; cannot put one of {width}"
        );
    }

    /// Walks `users` in order as runs of consecutive same-shard users, each
    /// at most `RUN` long, handing `run` the shard, the run's first position
    /// in `users` and its ids. Runs are visited one after another, so a
    /// caller that locks the shard inside `run` never holds two shard locks.
    fn for_each_run(
        &self,
        users: impl IntoIterator<Item = UserId>,
        mut run: impl FnMut(&StateShard, usize, &[u64]),
    ) {
        let mut users = users
            .into_iter()
            .map(|user| (user.0, self.shard_index(user)))
            .peekable();
        let mut ids = [0u64; RUN];
        let mut first = 0;
        while let Some((user, shard)) = users.next() {
            ids[0] = user;
            let mut len = 1;
            while len < RUN {
                let Some((user, _)) = users.next_if(|&(_, next)| next == shard) else {
                    break;
                };
                ids[len] = user;
                len += 1;
            }
            run(&self.shards[shard], first, &ids[..len]);
            first += len;
        }
    }

    /// Widens the stored hidden states of `users` into `rows` — row `i`,
    /// `width` values long, for `users[i]` — without allocating; a user with
    /// no stored state leaves its row untouched. Consecutive users of one
    /// shard share one lock, so a batch ordered by [`Self::shard_index`]
    /// (as the engine drains it) takes one lock per shard. Stats, recency
    /// and frequency come out exactly as if each user were read alone, in
    /// order. Returns how many users had a state.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not `users.len() × width` values long, or if a
    /// stored state is not `width` values long.
    pub fn read_states_into(
        &self,
        users: impl IntoIterator<Item = UserId, IntoIter: ExactSizeIterator>,
        rows: &mut [f32],
        width: usize,
    ) -> usize {
        let users = users.into_iter();
        assert_eq!(
            rows.len(),
            users.len() * width,
            "{} users of width {width} need {} values, got {}",
            users.len(),
            users.len() * width,
            rows.len()
        );
        let mut hits = 0;
        self.for_each_run(users, |shard, first, run| {
            hits += shard.read_run(run, |row, state| {
                copy_row(&mut rows[(first + row) * width..][..width], state);
            });
        });
        hits as usize
    }

    /// Fetches a user's hidden state — the bf16 rounding of what was put —
    /// if one is stored: a run of one through the same locked read as
    /// [`Self::read_states_into`].
    pub fn get_state(&self, user: UserId) -> Option<Vec<f32>> {
        let mut found = None;
        self.shard_of(user)
            .read_run(&[user.0], |_, state| found = Some(widen(state)));
        found
    }

    /// Widens a user's stored hidden state straight into `out`: the
    /// one-user case of [`Self::read_states_into`], a run of one through the
    /// same locked read. Returns `false`, leaving `out` untouched, when none
    /// is stored.
    ///
    /// # Panics
    ///
    /// Panics if the stored state is not `out.len()` values long.
    pub fn read_state_into(&self, user: UserId, out: &mut [f32]) -> bool {
        self.shard_of(user)
            .read_run(&[user.0], |_, state| copy_row(out, state))
            == 1
    }

    /// Stores row `i` of `rows`, rounded to bf16, for `users[i]`, replacing
    /// any previous state; `rows` splits into `users.len()` states of equal
    /// width. The
    /// users are stored in order, consecutive users of one shard under one
    /// lock, so evictions, stats and recency come out exactly as if each
    /// were stored alone. The store's first put fixes its width.
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not split into `users.len()` equal rows, or if
    /// the store holds states of another width.
    pub fn put_states(
        &self,
        users: impl IntoIterator<Item = UserId, IntoIter: ExactSizeIterator>,
        rows: &[f32],
    ) {
        let users = users.into_iter();
        let count = users.len();
        let width = rows.len().checked_div(count).unwrap_or(0);
        assert_eq!(
            width * count,
            rows.len(),
            "{} values do not split into {count} equal states",
            rows.len()
        );
        if count > 0 {
            self.check_width(width);
        }
        self.for_each_run(users, |shard, first, run| {
            shard.put_run(run, &rows[first * width..], width);
        });
    }

    /// Stores a user's hidden state, rounded to bf16, replacing any previous
    /// one: the
    /// one-user case of [`Self::put_states`], a run of one through the same
    /// locked write.
    ///
    /// # Panics
    ///
    /// Panics if the store holds states of another width.
    pub fn put_state(&self, user: UserId, state: &[f32]) {
        self.check_width(state.len());
        self.shard_of(user).put_run(&[user.0], state, state.len());
    }

    /// Removes a user's hidden state, returning it if present.
    pub fn remove_state(&self, user: UserId) -> Option<Vec<f32>> {
        self.shard_of(user).remove(user)
    }

    /// Whether a state is currently stored for `user`, without counting as
    /// store traffic or refreshing eviction recency/frequency — for
    /// measurement harnesses probing residency (e.g. the cold-start-regret
    /// eviction study) without perturbing it.
    pub fn contains_state(&self, user: UserId) -> bool {
        self.shard_of(user).contains(user)
    }

    /// Total number of stored states across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(StateShard::len).sum()
    }

    /// Returns `true` when no shard holds any state.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(StateShard::is_empty)
    }

    /// Total bytes stored across all shards: two per value.
    pub fn stored_bytes(&self) -> u64 {
        self.shards.iter().map(StateShard::stored_bytes).sum()
    }

    /// Aggregated traffic counters across all shards.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in &self.shards {
            let s = shard.stats();
            total.reads += s.reads;
            total.writes += s.writes;
            total.hits += s.hits;
            total.bytes_read += s.bytes_read;
            total.bytes_written += s.bytes_written;
            total.evictions += s.evictions;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// The value of a bf16 by its definition, in `f64`: sign, 8-bit
    /// exponent biased by 127 and 7-bit fraction, subnormal at exponent 0.
    /// At exponent 255 this reads the fraction as if it were finite, so the
    /// infinity code is worth 2¹²⁸ — the next step past bf16's largest,
    /// which is what a value rounds to ∞ against.
    fn bf16_value(code: u16) -> f64 {
        let sign = if code & 0x8000 == 0 { 1.0 } else { -1.0 };
        let exponent = i32::from((code >> 7) & 0xff);
        let fraction = f64::from(code & 0x7f);
        let magnitude = match exponent {
            0 => fraction * 2f64.powi(-133),
            _ => (1.0 + fraction / 128.0) * 2f64.powi(exponent - 127),
        };
        sign * magnitude
    }

    /// The bf16 code nearest `value` by the definition, in `f64`: the two
    /// codes around it, the nearer one, and on a tie the even one. A NaN
    /// keeps its sign and top payload bits and gets the quiet bit.
    fn reference_bf16(value: f32) -> u16 {
        if value.is_nan() {
            return (value.to_bits() >> 16) as u16 | 0x0040;
        }
        let toward_zero = (value.to_bits() >> 16) as u16;
        let (x, below) = (f64::from(value), bf16_value(toward_zero));
        if x == below {
            return toward_zero;
        }
        let away = toward_zero + 1;
        let (to_below, to_away) = ((x - below).abs(), (bf16_value(away) - x).abs());
        if to_below < to_away || (to_below == to_away && toward_zero.is_multiple_of(2)) {
            toward_zero
        } else {
            away
        }
    }

    /// What a store hands back for `value`, by the reference rounding.
    fn stored(value: f32) -> f32 {
        bf16_value(reference_bf16(value)) as f32
    }

    /// Every 4,099th bit pattern: the prime stride covers every exponent
    /// and both signs.
    fn strided() -> impl Iterator<Item = f32> {
        (0..=u32::MAX).step_by(4_099).map(f32::from_bits)
    }

    fn check_rounding(values: impl Iterator<Item = f32>) {
        for value in values {
            let (got, want) = (to_bf16(value), reference_bf16(value));
            assert_eq!(got, want, "{value:e} ({:#010x})", value.to_bits());
            // Half a step of 8 significant bits: the bound the module docs
            // state, and the one the score-movement test prices a read at.
            let rounded = from_bf16(got);
            if value.is_normal() && rounded.is_finite() {
                let error = (f64::from(rounded) - f64::from(value)).abs();
                assert!(error <= f64::from(value).abs() / 256.0, "{value:e}");
            }
        }
    }

    #[test]
    fn every_bf16_code_widens_to_its_value() {
        for code in 0..=u16::MAX {
            let value = from_bf16(code);
            if (code >> 7) & 0xff == 0xff && code & 0x7f != 0 {
                assert!(value.is_nan(), "{code:#06x}");
                assert_eq!(to_bf16(value), code | 0x0040, "{code:#06x}");
                continue;
            }
            let want = match code & 0x7fff {
                0x7f80 => bf16_value(code).signum() * f64::INFINITY,
                _ => bf16_value(code),
            };
            assert_eq!(f64::from(value), want, "{code:#06x}");
            assert_eq!(value.to_bits() >> 16, u32::from(code), "{code:#06x}");
            // A bf16 value is stored exactly.
            assert_eq!(to_bf16(value), code, "{code:#06x}");
        }
    }

    #[test]
    fn rounding_matches_the_reference_on_a_strided_sweep() {
        check_rounding(strided());
    }

    #[test]
    #[ignore = "sweeps all 2^32 inputs; run with `cargo test --release -p pp-serving -- --ignored`"]
    fn rounding_matches_the_reference_on_every_f32() {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let chunk = (1u64 << 32) / threads as u64 + 1;
        std::thread::scope(|scope| {
            for t in 0..threads as u64 {
                let (start, end) = (t * chunk, ((t + 1) * chunk).min(1 << 32));
                scope.spawn(move || {
                    check_rounding((start..end).map(|bits| f32::from_bits(bits as u32)));
                });
            }
        });
    }

    #[test]
    fn rounding_keeps_nan_signed_zeros_infinities_subnormals_and_ties_to_even() {
        let cases: [(u32, u16); 18] = [
            // NaN stays NaN, quiet, with its sign: without the special
            // case the rounding add carries 0x7f80_0001 into +∞.
            (0x7f80_0001, 0x7fc0),
            (0xff80_0001, 0xffc0),
            (0x7fc0_0000, 0x7fc0),
            (0x7fff_ffff, 0x7fff),
            (0x0000_0000, 0x0000),
            (0x8000_0000, 0x8000),
            (0x7f80_0000, 0x7f80),
            (0xff80_0000, 0xff80),
            // Past bf16's largest finite value, by half a step or more: ∞.
            (0x7f7f_ffff, 0x7f80),
            (0xff7f_8000, 0xff80),
            (0x7f7f_7fff, 0x7f7f),
            // Subnormals: a tie goes to the even code, either way.
            (0x0000_0001, 0x0000),
            (0x0000_8000, 0x0000),
            (0x0001_8000, 0x0002),
            (0x8000_8001, 0x8001),
            // Normal ties: 1 + 2⁻⁸ is halfway between 1 and 1 + 2⁻⁷.
            (0x3f80_8000, 0x3f80),
            (0x3f81_8000, 0x3f82),
            (0x3f80_8001, 0x3f81),
        ];
        for (bits, code) in cases {
            let value = f32::from_bits(bits);
            assert_eq!(to_bf16(value), code, "{bits:#010x}");
            assert_eq!(reference_bf16(value), code, "{bits:#010x}");
        }
        // And through a store: a read hands back the rounding of the put.
        let store = ShardedStateStore::new(2);
        let state: Vec<f32> = cases
            .iter()
            .map(|&(bits, _)| f32::from_bits(bits))
            .collect();
        store.put_state(UserId(1), &state);
        let back = store.get_state(UserId(1)).unwrap();
        for ((&(bits, code), value), sent) in cases.iter().zip(&back).zip(&state) {
            assert_eq!(value.to_bits(), u32::from(code) << 16, "{bits:#010x}");
            assert_eq!(value.is_nan(), sent.is_nan(), "{bits:#010x}");
        }
    }

    #[test]
    fn in_shard_hash_spreads_the_keys_a_shard_actually_holds() {
        // A shard's keys all share `shard_index`; the index's hash must
        // not. The index picks a home bucket by the hash's low bits.
        let store = ShardedStateStore::new(16);
        let mut buckets = vec![[0usize; 64]; 16];
        let mut held = [0usize; 16];
        for id in 0..100_000u64 {
            let shard = store.shard_index(UserId(id));
            buckets[shard][(in_shard_hash(id) & 63) as usize] += 1;
            held[shard] += 1;
        }
        for (shard, counts) in buckets.iter().enumerate() {
            let uniform = held[shard] as f64 / 64.0;
            let fullest = *counts.iter().max().unwrap();
            assert!(
                fullest as f64 <= 1.5 * uniform,
                "shard {shard}: fullest bucket {fullest} vs uniform {uniform:.0}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "this store holds states of 3 values; cannot put one of 128")]
    fn states_of_different_widths_cannot_share_a_store() {
        // Users 1 and 2 sit in different shards: the width is the store's,
        // not a shard's.
        let store = ShardedStateStore::with_capacity(2, 8);
        assert_ne!(store.shard_index(UserId(1)), store.shard_index(UserId(2)));
        store.put_state(UserId(1), &[1.0, 2.0, 3.0]);
        store.put_state(UserId(2), &[0.5; 128]);
    }

    #[test]
    fn a_batch_put_of_another_width_panics_before_storing_anything() {
        let store = ShardedStateStore::new(4);
        store.put_states([UserId(1)], &[1.0, 2.0, 3.0]);
        let wide = std::panic::catch_unwind(|| {
            store.put_states([UserId(2), UserId(3)], &[0.0; 8]);
        });
        assert!(wide.is_err());
        assert_eq!(store.len(), 1);
        // An empty batch fixes and checks nothing.
        store.put_states(std::iter::empty::<UserId>(), &[]);
        assert_eq!(store.get_state(UserId(1)).unwrap(), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn an_unbounded_shard_keeps_its_rows_across_chunks() {
        // One shard, so every put lands in one arena: rows past the first
        // chunk live in later chunks and earlier rows never move.
        let store = ShardedStateStore::new(1);
        let users = 3 * CHUNK_ROWS as u64 + 5;
        for id in 0..users {
            store.put_state(UserId(id), &[id as f32, -(id as f32)]);
        }
        assert_eq!(store.remove_state(UserId(7)).unwrap(), [7.0, -7.0]);
        // The freed row is reused before the arena grows.
        store.put_state(UserId(users), &[0.5, 0.25]);
        for id in (0..=users).filter(|&id| id != 7) {
            let expected = if id == users {
                [0.5, 0.25]
            } else {
                [id as f32, -(id as f32)]
            };
            assert_eq!(store.get_state(UserId(id)).unwrap(), expected, "user {id}");
        }
        let inner = store.shard(0).inner.lock().unwrap();
        assert_eq!(inner.slots.len(), users as usize);
        assert_eq!(inner.rows.chunks.len(), 4);
        assert_eq!(inner.rows.width, 2);
    }

    #[test]
    fn a_bounded_shard_allocates_its_rows_once_and_recycles_victims_rows() {
        let store = ShardedStateStore::with_capacity(1, 5);
        for id in 0..40u64 {
            store.put_state(UserId(id), &[id as f32; 3]);
        }
        assert_eq!(store.len(), 5);
        for id in 35..40u64 {
            assert_eq!(store.get_state(UserId(id)).unwrap(), [id as f32; 3]);
        }
        let inner = store.shard(0).inner.lock().unwrap();
        // Capacity + 1 rows: the newcomer and its victim, briefly together.
        assert_eq!(inner.slots.len(), 6);
        assert_eq!(inner.rows.chunks.len(), 1);
        assert_eq!(inner.rows.chunks[0].capacity(), 6 * 3);
        assert_eq!(inner.rows.width, 3);
        // And an index of 16 buckets, at most half full with 6 slots, sized
        // at the first put and never grown by the 35 evictions since.
        assert_eq!(inner.index.len(), 16);
        assert_eq!(inner.index.iter().filter(|&&at| at != NIL).count(), 5);
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    /// Stores `value` for `user` in `shard`, one value wide.
    fn put_one(shard: &StateShard, user: u64, value: f32) {
        shard.put_run(&[user], &[value], 1);
    }

    /// Holds `shard`'s index to `reference`: each user there finds its
    /// slot and reads back its value, each `absent` user misses, and the
    /// index holds exactly the reference's users, at most half full.
    fn check_index(shard: &StateShard, reference: &HashMap<u64, f32>, absent: &[u64]) {
        let inner = shard.inner.lock().unwrap();
        for (&user, &value) in reference {
            let at = inner.slot_of(user);
            assert_ne!(at, NIL, "user {user} is not found");
            assert_eq!(from_bf16(inner.rows.row(at)[0]), value, "user {user}");
        }
        for &user in absent {
            assert_eq!(inner.slot_of(user), NIL, "user {user} is found");
        }
        let indexed = inner.index.iter().filter(|&&at| at != NIL).count();
        assert_eq!(indexed, reference.len());
        assert_eq!(inner.len(), reference.len());
        assert!(
            2 * indexed <= inner.index.len(),
            "{indexed} in {}",
            inner.index.len()
        );
    }

    #[test]
    fn removing_from_a_wrapped_cluster_shifts_its_tail_back() {
        // An unbounded shard's first index has 16 buckets. Keys picked by
        // search for their home buckets fill 14, 15, 0, 1, 2: one cluster
        // that wraps past the table's end.
        let shard = StateShard::new(None, EvictionPolicy::Lru);
        let mut candidates = 0u64..;
        let mut key_at_home = |home: u64| {
            candidates
                .find(|&user| in_shard_hash(user) & 15 == home)
                .expect("the search is unbounded")
        };
        let keys = [14, 15, 14, 1, 0, 14].map(&mut key_at_home);
        let layout = |shard: &StateShard, buckets: &[usize]| -> Vec<Option<u64>> {
            let inner = shard.inner.lock().unwrap();
            let user = |&bucket: &usize| match inner.index[bucket] {
                NIL => None,
                at => Some(inner.slots[at as usize].user),
            };
            buckets.iter().map(user).collect()
        };
        let mut reference = HashMap::new();
        let put = |user: u64, reference: &mut HashMap<u64, f32>| {
            let value = reference.len() as f32;
            put_one(&shard, user, value);
            reference.insert(user, value);
        };
        for &user in &keys[..5] {
            put(user, &mut reference);
        }
        let [k0, k1, k2, k3, k4, k5] = keys.map(Some);
        assert_eq!(
            layout(&shard, &[14, 15, 0, 1, 2, 3]),
            [k0, k1, k2, k3, k4, None]
        );
        check_index(&shard, &reference, &[]);
        // From the middle (bucket 15): the key homed at 14 moves back
        // across the wrap, the one at its home (1) stays, and the last one,
        // homed at 0, moves back into the hole at its own home.
        assert!(shard.remove(UserId(keys[1])).is_some());
        reference.remove(&keys[1]);
        check_index(&shard, &reference, &keys[1..2]);
        assert_eq!(layout(&shard, &[14, 15, 0, 1, 2]), [k0, k2, k4, k3, None]);
        // From the wrapped part (bucket 0): the key at its home stays, and
        // a key homed at 14 behind it moves back past it, across the wrap.
        put(keys[5], &mut reference);
        assert!(shard.remove(UserId(keys[4])).is_some());
        reference.remove(&keys[4]);
        check_index(&shard, &reference, &[keys[1], keys[4]]);
        assert_eq!(layout(&shard, &[14, 15, 0, 1, 2]), [k0, k2, k5, k3, None]);
    }

    #[test]
    fn the_index_agrees_with_a_hash_map_under_churn() {
        // Two puts to a removal over a user range that starts at 8, so the
        // first 16-bucket index churns full of wrapped clusters, and then
        // doubles every 3,000 steps, so the shard grows through several
        // doublings of its index while users keep leaving it.
        let shard = StateShard::new(None, EvictionPolicy::Lru);
        let mut reference = HashMap::new();
        let mut sizes = vec![];
        for step in 0..30_000u64 {
            let range = 8 << (step / 3_000);
            let draw = in_shard_hash(step ^ 0x5eed);
            let user = (draw >> 8) % range;
            if draw.is_multiple_of(3) {
                let expected = reference.remove(&user);
                let removed = shard.remove(UserId(user));
                assert_eq!(removed, expected.map(|value| vec![value]), "step {step}");
            } else {
                let value = (step % 256) as f32;
                put_one(&shard, user, value);
                reference.insert(user, value);
            }
            let buckets = shard.inner.lock().unwrap().index.len();
            if sizes.last() != Some(&buckets) {
                sizes.push(buckets);
            }
            if step % 97 == 0 || step < 3_000 {
                let absent: Vec<u64> = (0..range).filter(|u| !reference.contains_key(u)).collect();
                check_index(&shard, &reference, &absent);
            }
        }
        let absent: Vec<u64> = (0..8 << 9).filter(|u| !reference.contains_key(u)).collect();
        check_index(&shard, &reference, &absent);
        assert!(sizes.len() >= 6, "the index went through sizes {sizes:?}");
    }

    #[test]
    #[ignore = "10^6 users (≈ 290 MB); run with `cargo test --release -p pp-serving -- --ignored`"]
    fn an_unbounded_store_finds_each_of_a_million_users() {
        // The paper's scale: one H = 128 state per user of the product.
        const USERS: u64 = 1_000_000;
        let store = ShardedStateStore::new(16);
        let mut state = [0.0f32; 128];
        for id in 0..USERS {
            state[0] = (id % 256) as f32;
            store.put_state(UserId(id), &state);
        }
        assert_eq!(store.len(), USERS as usize);
        for id in 0..USERS {
            assert!(store.read_state_into(UserId(id), &mut state), "user {id}");
            assert_eq!(state[0], (id % 256) as f32, "user {id}");
        }
        for id in USERS..2 * USERS {
            assert!(!store.contains_state(UserId(id)), "user {id}");
        }
        let (mut bytes, mut probes, mut longest) = (0, 0, 0);
        for shard in &store.shards {
            let inner = shard.inner.lock().unwrap();
            bytes += 4 * inner.index.capacity()
                + std::mem::size_of::<Slot>() * inner.slots.capacity()
                + 4 * inner.free.capacity()
                + inner
                    .rows
                    .chunks
                    .iter()
                    .map(|c| 2 * c.capacity())
                    .sum::<usize>()
                + std::mem::size_of::<Vec<u16>>() * inner.rows.chunks.capacity();
            let mask = inner.index.len() - 1;
            for (bucket, &at) in inner.index.iter().enumerate() {
                if at != NIL {
                    let home = inner.home(inner.slots[at as usize].user);
                    let probe = (bucket.wrapping_sub(home) & mask) + 1;
                    (probes, longest) = (probes + probe, longest.max(probe));
                }
            }
        }
        eprintln!(
            "{USERS} users in 16 shards: {:.1} B per state; a hit probes {:.2} buckets, \
             at most {longest}",
            bytes as f64 / USERS as f64,
            probes as f64 / USERS as f64
        );
    }

    #[test]
    #[should_panic(expected = "stored state holds 3 values, expected 128")]
    fn read_state_into_a_row_of_another_width_panics_with_both_lengths() {
        let store = ShardedStateStore::new(4);
        store.put_state(UserId(9), &[0.0; 3]);
        store.read_state_into(UserId(9), &mut [0.0; 128]);
    }

    /// The message a caught panic carries.
    fn panic_message(caught: Box<dyn std::any::Any + Send>) -> String {
        *caught
            .downcast::<String>()
            .expect("a formatted panic message")
    }

    #[test]
    fn a_panic_under_a_shard_lock_fails_every_later_read_of_that_shard() {
        // A lock that forgot the panic would serve user 1's state below as
        // if the shard were whole.
        let store = ShardedStateStore::new(1);
        store.put_state(UserId(1), &[1.0, 2.0]);
        let wrong_width = catch_unwind(AssertUnwindSafe(|| {
            store.read_state_into(UserId(1), &mut [0.0; 3])
        }));
        assert!(panic_message(wrong_width.unwrap_err()).contains("stored state holds 2 values"));
        let poisoned = "store shard: lock poisoned";
        let got = catch_unwind(AssertUnwindSafe(|| store.get_state(UserId(1))));
        assert!(panic_message(got.unwrap_err()).contains(poisoned));
        let mut rows = [9.0f32; 2];
        let read = catch_unwind(AssertUnwindSafe(|| {
            store.read_states_into([UserId(1)], &mut rows, 2)
        }));
        assert!(panic_message(read.unwrap_err()).contains(poisoned));
        assert_eq!(rows, [9.0; 2], "a poisoned shard copied a state out");
    }

    #[test]
    fn read_state_into_decodes_in_place_and_leaves_misses_untouched() {
        let store = ShardedStateStore::new(4);
        store.put_state(UserId(3), &[1.5, -2.0, 0.25]);
        let mut row = [9.0f32; 3];
        assert!(store.read_state_into(UserId(3), &mut row));
        assert_eq!(row, [1.5, -2.0, 0.25]);
        let mut row = [9.0f32; 3];
        assert!(!store.read_state_into(UserId(4), &mut row));
        assert_eq!(row, [9.0; 3]);
        // Both reads are counted like `get_state` reads.
        assert_eq!(store.stats().reads, 2);
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn get_after_put_roundtrips_across_shards() {
        let store = ShardedStateStore::new(8);
        for id in 0..200u64 {
            let state: Vec<f32> = (0..16).map(|d| (id * 31 + d) as f32 * 0.25).collect();
            store.put_state(UserId(id), &state);
        }
        assert_eq!(store.len(), 200);
        for id in 0..200u64 {
            let expected: Vec<f32> = (0..16)
                .map(|d| stored((id * 31 + d) as f32 * 0.25))
                .collect();
            assert_eq!(store.get_state(UserId(id)).unwrap(), expected, "user {id}");
        }
        assert!(store.get_state(UserId(10_000)).is_none());
    }

    #[test]
    fn shard_assignment_is_stable_and_spread() {
        let store = ShardedStateStore::new(16);
        let mut counts = [0usize; 16];
        for id in 0..4096u64 {
            let shard = store.shard_index(UserId(id));
            assert_eq!(shard, store.shard_index(UserId(id)), "stable for {id}");
            counts[shard] += 1;
        }
        // Perfectly uniform would be 256 per shard; allow a generous band.
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (128..=384).contains(&count),
                "shard {shard} holds {count} of 4096 users"
            );
        }
    }

    #[test]
    fn stats_aggregate_over_shards() {
        let store = ShardedStateStore::new(4);
        store.put_state(UserId(1), &[1.0; 8]);
        store.put_state(UserId(2), &[2.0; 8]);
        let _ = store.get_state(UserId(1));
        let _ = store.get_state(UserId(3)); // miss
        let stats = store.stats();
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(store.stored_bytes(), 2 * 8 * 2);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn remove_only_touches_the_owning_user() {
        let store = ShardedStateStore::new(3);
        store.put_state(UserId(7), &[7.0; 4]);
        store.put_state(UserId(8), &[8.0; 4]);
        assert_eq!(store.remove_state(UserId(7)).unwrap(), vec![7.0; 4]);
        assert!(store.get_state(UserId(7)).is_none());
        assert_eq!(store.get_state(UserId(8)).unwrap(), vec![8.0; 4]);
    }

    #[test]
    fn capacity_sums_exactly_even_when_shards_do_not_divide_it() {
        // Regression: div_ceil gave every shard ceil(total/shards), so
        // with_capacity(4, 10) admitted 12 states and reported capacity 12.
        let store = ShardedStateStore::with_capacity(4, 10);
        assert_eq!(store.capacity(), Some(10));
        let shard_caps: Vec<usize> = (0..store.num_shards())
            .map(|s| store.shard(s).capacity().unwrap())
            .collect();
        assert_eq!(shard_caps.iter().sum::<usize>(), 10);
        assert_eq!(shard_caps, vec![3, 3, 2, 2]);
        // However traffic hashes, the population can never exceed the bound.
        for id in 0..5_000u64 {
            store.put_state(UserId(id), &[id as f32; 4]);
        }
        assert!(store.len() <= 10, "len {} exceeds capacity 10", store.len());
        // An exactly-divisible split stays uniform.
        let even = ShardedStateStore::with_capacity(8, 64);
        assert_eq!(even.capacity(), Some(64));
        for s in 0..8 {
            assert_eq!(even.shard(s).capacity(), Some(8));
        }
    }

    #[test]
    #[should_panic(expected = "must be at least num_shards")]
    fn capacity_below_shard_count_panics() {
        let _ = ShardedStateStore::with_capacity(8, 7);
    }

    #[test]
    fn frequency_weighted_store_propagates_policy_to_every_shard() {
        let store =
            ShardedStateStore::with_capacity_and_policy(4, 10, EvictionPolicy::FrequencyWeighted);
        assert_eq!(store.capacity(), Some(10));
        for s in 0..store.num_shards() {
            assert_eq!(
                store.shard(s).order(),
                Some(EvictionPolicy::FrequencyWeighted)
            );
        }
    }

    #[test]
    fn bounded_store_caps_population_and_counts_evictions() {
        let store = ShardedStateStore::with_capacity(4, 64);
        assert_eq!(store.capacity(), Some(64));
        assert_eq!(ShardedStateStore::new(4).capacity(), None);
        for id in 0..1_000u64 {
            store.put_state(UserId(id), &[id as f32; 8]);
        }
        // Each shard holds at most 64/4 = 16 states.
        assert!(store.len() <= 64, "len {} exceeds capacity", store.len());
        for shard in 0..store.num_shards() {
            assert!(store.shard(shard).len() <= 16);
        }
        let stats = store.stats();
        assert_eq!(stats.writes, 1_000);
        assert_eq!(stats.evictions, 1_000 - store.len() as u64);
        // Recently written users survive; a long-evicted one is gone.
        assert!(store.get_state(UserId(999)).is_some());
        assert!(store.get_state(UserId(0)).is_none());
    }

    #[test]
    fn concurrent_writers_on_distinct_users_do_not_bleed() {
        let store = Arc::new(ShardedStateStore::new(8));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let id = UserId(t * 1_000 + i);
                    let state = vec![(t * 1_000 + i) as f32; 8];
                    store.put_state(id, &state);
                    let expected: Vec<f32> = state.iter().map(|&v| stored(v)).collect();
                    assert_eq!(store.get_state(id).unwrap(), expected);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 8 * 200);
        // Spot-check cross-thread isolation after the fact.
        assert_eq!(
            store.get_state(UserId(3_007)).unwrap(),
            vec![stored(3_007.0); 8]
        );
    }
}
