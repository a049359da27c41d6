//! # pp-serving
//!
//! Serving-layer simulation for predictive precompute, reproducing the
//! production architecture of §9 of the paper: the hidden-state store and
//! the engine that scores sessions against it:
//!
//! * [`kv_store`] — what a hidden-state store is measured and configured
//!   by ([`StoreStats`], [`EvictionPolicy`]) and the f32 wire encoding of a
//!   state;
//! * [`cost`] — the per-prediction serving profile of a model path and the
//!   cost formula that weighs its lookups, bytes and FLOPs into one unit:
//!   what the precompute budget charges for a prefetch;
//! * [`sharded`] — the hidden-state store (the paper's Redis-like store,
//!   in process): a [`ShardedStateStore`] of N independent typed
//!   [`StateShard`]s keyed by user-id hash, states kept as bf16 rows (read
//!   widened into the caller's `f32` row, overwritten in place);
//! * [`batch`] — the [`BatchScheduler`] and multi-threaded
//!   [`BatchServingEngine`] coalescing concurrent session starts into
//!   batched forward passes (one matmul per batch instead of per user);
//! * [`obs`] — cached `pp-obs` handles instrumenting the batch queue, the
//!   per-stage serving latencies and coalesce-hold wake-ups (compiled to
//!   no-ops without the `obs` feature); counts live in the typed
//!   `StoreStats`, `EngineStats` and `WorkerStats`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod cost;
pub mod kv_store;
pub mod obs;
pub mod sharded;

pub use batch::{
    BatchScheduler, BatchServingEngine, EngineStats, PredictRequest, Prediction, UpdateRequest,
    WorkerStats,
};
pub use cost::{rnn_profile, CostWeights, ServingProfile};
pub use kv_store::{decode_state_f32, encode_state_f32, EvictionPolicy, StoreStats};
pub use obs::ServingObs;
pub use sharded::{ShardedStateStore, StateShard};
