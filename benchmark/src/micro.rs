//! Per-layer micro-timings: each public function a request crosses, timed
//! on its own from outside its crate, at the workload's model size. Run in
//! the traced invocation only, after the workload, so their engine and
//! store calls do not leak into the counters the workload is read from.
//!
//! FLOP figures are computed from tensor shapes (the crates' own `flops()`
//! accounting), not measured; achieved GFLOP/s divides them by measured time.

use crate::inputs;
use crate::rng::SplitMix64;
use crate::stats::median;
use crate::workloads::{warm_store, Ledger, Serving, MAX_BATCH, REPLY_TIMEOUT, SHARDS};
use bytes::Bytes;
use pp_core::PrecomputePolicy;
use pp_data::schema::UserId;
use pp_nn::{GruCell, ParamStore, Tensor};
use pp_precompute::{
    Action, Activity, AdmissionOrder, BudgetConfig, CacheConfig, Decision, DecisionEngine,
    OutcomeTracker, PrefetchCache, PrefetchScheduler,
};
use pp_rnn::RnnModel;
use pp_serving::{
    decode_state_f32, encode_state_f32, EvictionPolicy, Prediction, ShardedStateStore,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repeats per micro-timing; the median is reported.
const REPEATS: usize = 5;
/// Least time one repeat measures. Forty-odd timings of five repeats each
/// have to fit the traced run's share of the driver's budget.
const REPEAT_FLOOR: Duration = Duration::from_millis(40);
/// Keys in the small stores and caches the timings run over.
const KEYS: u64 = 4_096;

/// Median nanoseconds per op over [`REPEATS`] repeats. A repeat calls
/// `round` — which prepares untimed, then returns how long its timed part
/// took and how many ops that was — until [`REPEAT_FLOOR`] of timed work
/// has accumulated.
fn ns_per_op(mut round: impl FnMut() -> (Duration, u64)) -> f64 {
    // One untimed round first: page in, fill caches, size allocations.
    black_box(round());
    let mut repeats: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut busy = Duration::ZERO;
            let mut ops = 0u64;
            while busy < REPEAT_FLOOR {
                let (took, did) = round();
                busy += took;
                ops += did;
            }
            busy.as_secs_f64() * 1e9 / ops as f64
        })
        .collect();
    median(&mut repeats)
}

/// [`ns_per_op`] for a call that needs no preparation.
fn ns_per_call<T>(mut call: impl FnMut(u64) -> T) -> f64 {
    let mut i = 0u64;
    ns_per_op(|| {
        let started = Instant::now();
        for _ in 0..64 {
            black_box(call(i));
            i += 1;
        }
        (started.elapsed(), 64)
    })
}

/// Runs every micro-timing at `model`'s size and appends the lines.
pub fn run(model: &Arc<RnnModel>, seed: u64, ledger: &mut Ledger) {
    let mut rng = SplitMix64::for_workload(seed, "micro");
    let hidden = model.config().hidden_dim;
    let featurizer = *model.featurizer();
    let requests = inputs::predict_ring(&mut rng, 256, KEYS);
    let closes: Vec<_> = (0..256).map(|i| inputs::warm_update(&mut rng, i)).collect();

    // features.*
    let at = |i: u64| (i % 256) as usize;
    ledger.push(
        "features.predict_input_ns",
        ns_per_call(|i| {
            let r = &requests[at(i)];
            featurizer.predict_input(r.timestamp, &r.context, r.elapsed_secs)
        }),
        "ns",
    );
    ledger.push(
        "features.update_input_ns",
        ns_per_call(|i| {
            let r = &closes[at(i)];
            featurizer.update_input(r.timestamp, &r.context, r.delta_t_secs, r.accessed)
        }),
        "ns",
    );

    // Real inputs and states at the workload's shapes.
    let predict_inputs: Vec<Vec<f32>> = requests[..MAX_BATCH]
        .iter()
        .map(|r| featurizer.predict_input(r.timestamp, &r.context, r.elapsed_secs))
        .collect();
    let update_inputs: Vec<Vec<f32>> = closes[..MAX_BATCH]
        .iter()
        .map(|r| featurizer.update_input(r.timestamp, &r.context, r.delta_t_secs, r.accessed))
        .collect();
    let zeros = vec![model.initial_state(); MAX_BATCH];
    let states = model.advance_state_batch(&zeros, &update_inputs);

    // nn.*
    let rows = |all: &[Vec<f32>], b: usize| {
        Tensor::from_rows(&all[..b].iter().map(Vec::as_slice).collect::<Vec<_>>())
    };
    let mut params = ParamStore::new();
    let cell = GruCell::new(
        "bench",
        model.update_input_dims(),
        hidden,
        &mut params,
        &mut StdRng::seed_from_u64(rng.next_u64()),
    );
    let dense_weight = Tensor::from_vec(
        hidden,
        hidden,
        (0..hidden * hidden)
            .map(|_| rng.next_f64() as f32 - 0.5)
            .collect(),
    );
    let onehot_weight = Tensor::from_vec(
        model.update_input_dims(),
        hidden,
        (0..model.update_input_dims() * hidden)
            .map(|_| rng.next_f64() as f32 - 0.5)
            .collect(),
    );
    for b in [1usize, MAX_BATCH] {
        let h = rows(&states, b);
        let x = rows(&update_inputs, b);
        let dense_ns = ns_per_call(|_| h.matmul(&dense_weight));
        ledger.push(&format!("nn.matmul_dense_ns.b{b}"), dense_ns, "ns");
        ledger.push(
            &format!("nn.matmul_onehot_ns.b{b}"),
            ns_per_call(|_| x.matmul(&onehot_weight)),
            "ns",
        );
        ledger.push(
            &format!("nn.gru_step_ns.b{b}"),
            ns_per_call(|_| cell.forward_infer(&params, &x, &h)),
            "ns",
        );
        if b == MAX_BATCH {
            let flops = 2.0 * (b * hidden * hidden) as f64;
            ledger.push("nn.matmul_dense_gflops.b64", flops / dense_ns, "GFLOP/s");
        }
    }
    ledger.push("nn.gru_step_flops_per_row", cell.flops() as f64, "FLOP");

    // rnn.*
    for b in [1usize, 8, MAX_BATCH] {
        let predict_ns =
            ns_per_call(|_| model.predict_proba_batch(&states[..b], &predict_inputs[..b]))
                / b as f64;
        let update_ns =
            ns_per_call(|_| model.advance_state_batch(&states[..b], &update_inputs[..b]))
                / b as f64;
        ledger.push(
            &format!("rnn.predict_batch_ns_per_row.b{b}"),
            predict_ns,
            "ns",
        );
        ledger.push(
            &format!("rnn.update_batch_ns_per_row.b{b}"),
            update_ns,
            "ns",
        );
        if b == MAX_BATCH {
            ledger.push(
                "rnn.predict_gflops.b64",
                model.predict_flops() as f64 / predict_ns,
                "GFLOP/s",
            );
            ledger.push(
                "rnn.update_gflops.b64",
                model.update_flops() as f64 / update_ns,
                "GFLOP/s",
            );
        }
    }
    ledger.push(
        "rnn.predict_single_ns",
        ns_per_call(|i| {
            model.predict_proba(
                &states[at(i) % MAX_BATCH],
                &predict_inputs[at(i) % MAX_BATCH],
            )
        }),
        "ns",
    );
    ledger.push(
        "rnn.update_single_ns",
        ns_per_call(|i| {
            model.advance_state(
                &states[at(i) % MAX_BATCH],
                &update_inputs[at(i) % MAX_BATCH],
            )
        }),
        "ns",
    );
    ledger.push(
        "rnn.predict_flops_per_row",
        model.predict_flops() as f64,
        "FLOP",
    );
    ledger.push(
        "rnn.update_flops_per_row",
        model.update_flops() as f64,
        "FLOP",
    );

    // store.* — `get_state` / `put_state` include key formatting and the
    // f32 codec; `encode_ns` / `decode_ns` show the codec's part of that.
    let state = &states[0];
    let unbounded = ShardedStateStore::new(SHARDS);
    warm_store(model, &unbounded, &mut rng, KEYS);
    ledger.push(
        "store.get_hit_ns",
        ns_per_call(|i| unbounded.get_state(UserId(i % KEYS))),
        "ns",
    );
    ledger.push(
        "store.get_miss_ns",
        ns_per_call(|i| unbounded.get_state(UserId(KEYS + i % KEYS))),
        "ns",
    );
    ledger.push(
        "store.put_overwrite_ns",
        ns_per_call(|i| unbounded.put_state(UserId(i % KEYS), state)),
        "ns",
    );
    for (policy, suffix) in [
        (EvictionPolicy::Lru, "lru"),
        (EvictionPolicy::FrequencyWeighted, "freq"),
    ] {
        let full = ShardedStateStore::with_capacity_and_policy(SHARDS, KEYS as usize, policy);
        warm_store(model, &full, &mut rng, KEYS);
        if policy == EvictionPolicy::Lru {
            ledger.push(
                "store.get_hit_ns.bounded",
                ns_per_call(|i| full.get_state(UserId(i % KEYS))),
                "ns",
            );
        }
        // Every id is new and every shard is at its bound: each put evicts.
        ledger.push(
            &format!("store.put_evict_ns.{suffix}"),
            ns_per_call(|i| full.put_state(UserId(KEYS + i), state)),
            "ns",
        );
    }
    let encoded = encode_state_f32(state);
    ledger.push(
        "store.encode_ns",
        ns_per_call(|_| encode_state_f32(state)),
        "ns",
    );
    ledger.push(
        "store.decode_ns",
        ns_per_call(|_| decode_state_f32(&encoded)),
        "ns",
    );

    // engine.* — one request at a time through an otherwise idle engine:
    // enqueue, wake-up, a batch of one, reply.
    let idle = Serving::start(model.clone(), Arc::new(unbounded), None);
    ledger.push(
        "engine.roundtrip_idle_ns",
        ns_per_call(|i| {
            idle.engine
                .submit(requests[at(i)])
                .recv_timeout(REPLY_TIMEOUT)
                .expect("idle engine replies")
        }),
        "ns",
    );
    drop(idle);

    // pp-precompute, piece by piece. An ample budget, so admission always
    // takes the admit path the loop takes for most intents.
    let ample = BudgetConfig {
        capacity_units: 1e12,
        refill_units_per_sec: 1e9,
        cost_per_prefetch_units: 10.0,
        max_inflight: 1 << 20,
    };
    let mut scheduler = PrefetchScheduler::new(ample);
    ledger.push(
        "scheduler.try_admit_ns",
        ns_per_call(|i| {
            let admitted = scheduler.try_admit((i / 1_000) as i64);
            scheduler.complete_one();
            admitted
        }),
        "ns",
    );
    let probabilities: Vec<f64> = (0..256).map(|_| rng.next_f64()).collect();
    let mut wave_scheduler = PrefetchScheduler::new(ample);
    ledger.push(
        "scheduler.admit_wave_ns_per_intent",
        ns_per_op(|| {
            for _ in 0..probabilities.len() {
                wave_scheduler.complete_one();
            }
            let started = Instant::now();
            black_box(wave_scheduler.admit_wave(0, &probabilities, AdmissionOrder::Priority));
            (started.elapsed(), probabilities.len() as u64)
        }),
        "ns",
    );
    let cache = PrefetchCache::new(CacheConfig {
        shards: 8,
        capacity_per_shard: 2_048,
        ttl_secs: 900,
    });
    let payload = Bytes::from(vec![0u8; 512]);
    ledger.push(
        "cache.insert_ns",
        ns_per_call(|i| cache.insert(UserId(i % KEYS), payload.clone(), 0)),
        "ns",
    );
    ledger.push(
        "cache.take_ns",
        ns_per_op(|| {
            for user in 0..KEYS {
                cache.insert(UserId(user), payload.clone(), 0);
            }
            let started = Instant::now();
            for user in 0..KEYS {
                black_box(cache.take(UserId(user), 1));
            }
            (started.elapsed(), KEYS)
        }),
        "ns",
    );
    let mut tracker = OutcomeTracker::new();
    let decision = |user: u64| Decision {
        user_id: UserId(user),
        activity: Activity::MobileTab,
        timestamp: 0,
        probability: 0.7,
        threshold: 0.5,
        action: Action::Prefetch,
    };
    ledger.push(
        "outcome.record_resolve_ns",
        ns_per_call(|i| {
            tracker.record(decision(i % KEYS));
            tracker.resolve(UserId(i % KEYS), i % 3 == 0, true)
        }),
        "ns",
    );
    let policy = PrecomputePolicy::with_threshold_for_target(0.5, 0.6);
    let mut decider = DecisionEngine::new(policy);
    ledger.push(
        "decision.decide_ns",
        ns_per_call(|i| {
            let prediction = Prediction {
                user_id: UserId(i % KEYS),
                probability: probabilities[at(i)],
            };
            decider.decide(&prediction, 0)
        }),
        "ns",
    );
    let window_scores = &probabilities[..100];
    let window_labels: Vec<bool> = window_scores.iter().map(|&p| rng.next_f64() < p).collect();
    ledger.push(
        "policy.recalibrate_ns.w100",
        ns_per_call(|_| policy.recalibrate(window_scores, &window_labels)),
        "ns",
    );
}
