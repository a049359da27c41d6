//! Trace well-formedness under multi-worker stress: every sampled span tree
//! emitted by the engine must be closed and consistent — child stage spans
//! tile the request's end-to-end interval exactly, requests link to a batch
//! span, worker ids are real workers — and span counts must reconcile with
//! the engine's own [`WorkerStats`] counters. Sampling is a seeded hash of
//! the user id, so the expected sampled set (and therefore the exact span
//! counts) is computable up front.
//!
//! This file owns the process-global [`pp_obs::Tracer`]: it is the only
//! test here that records through it, and it sets the sampling knobs before
//! the first `Tracer::global()` touch. The property tests below operate on
//! locally constructed spans and tracers only.

use pp_data::schema::{Context, DatasetKind, Tab, UserId};
use pp_obs::trace::trace_hash;
use pp_obs::{tail_report, Span, SpanId, Stage, Tracer, TracerConfig};
use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
use pp_serving::{BatchServingEngine, PredictRequest, ShardedStateStore, UpdateRequest};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 4;
const WORKERS: usize = 4;
const USERS_PER_CLIENT: u64 = 12;
const ROUNDS: i64 = 4;
const SAMPLE_EVERY: u64 = 4;
const SEED: u64 = 17;
/// Bounds every reply wait, so that a hang fails the test instead of
/// blocking it.
const HANG: Duration = Duration::from_secs(10);

fn model() -> RnnModel {
    RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::tiny(),
        7,
    )
}

fn context(i: i64) -> Context {
    Context::MobileTab {
        unread_count: (i % 9) as u8,
        active_tab: Tab::ALL[(i as usize) % Tab::ALL.len()],
    }
}

fn user_of(client: usize, user: u64) -> UserId {
    UserId(client as u64 * 1_000 + user)
}

/// The stage chain a request's children must form, in causal order.
/// `StateWriteBack` appears only for update jobs (prediction batches do not
/// write hidden states back).
const CHAIN: [Stage; 6] = [
    Stage::QueueWait,
    Stage::CoalesceHold,
    Stage::BatchAssembly,
    Stage::ForwardPass,
    Stage::StateWriteBack,
    Stage::Reply,
];

#[test]
fn engine_spans_are_wellformed_and_reconcile_with_worker_stats() {
    // Before the first Tracer::global() touch in this process.
    std::env::set_var("PP_TRACE_SAMPLE", SAMPLE_EVERY.to_string());
    std::env::set_var("PP_TRACE_SEED", SEED.to_string());

    let m = Arc::new(model());
    let store = Arc::new(ShardedStateStore::new(8));
    let engine = Arc::new(BatchServingEngine::start(
        m.clone(),
        store.clone(),
        WORKERS,
        8,
    ));

    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let predicts: Vec<PredictRequest> = (0..USERS_PER_CLIENT)
                        .map(|u| {
                            let i = round * USERS_PER_CLIENT as i64 + u as i64;
                            PredictRequest {
                                user_id: user_of(client, u),
                                timestamp: 50_000 + i * 31,
                                context: context(i + client as i64),
                                elapsed_secs: 120 + i,
                            }
                        })
                        .collect();
                    let updates: Vec<UpdateRequest> = (0..USERS_PER_CLIENT)
                        .map(|u| {
                            let i = round * USERS_PER_CLIENT as i64 + u as i64;
                            UpdateRequest {
                                user_id: user_of(client, u),
                                timestamp: 50_000 + i * 31,
                                context: context(i + client as i64),
                                delta_t_secs: 300 + i,
                                accessed: (i + client as i64) % 3 == 0,
                            }
                        })
                        .collect();
                    for receiver in engine.submit_many(&predicts) {
                        receiver
                            .recv_timeout(HANG)
                            .expect("every prediction is answered");
                    }
                    for receiver in engine.submit_updates(&updates) {
                        receiver
                            .recv_timeout(HANG)
                            .expect("every update is applied");
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let stats = engine.stats();
    let worker_stats = engine.worker_stats();
    // Workers emit a batch's spans after its replies are sent, so a client
    // can observe its reply before the spans exist; joining the workers
    // (via Drop) is the barrier that makes the drain complete.
    drop(
        Arc::try_unwrap(engine)
            .map_err(|_| "engine still shared")
            .unwrap(),
    );

    let tracer = Tracer::global();
    assert_eq!(tracer.config().sample_every, SAMPLE_EVERY);
    assert_eq!(tracer.config().seed, SEED);
    assert_eq!(tracer.dropped(), 0, "lanes must not overflow at this scale");
    let spans = tracer.drain();

    // The sampled set is a pure function of (seed, user id): exact counts.
    let sampled_users: Vec<u64> = (0..CLIENTS)
        .flat_map(|c| (0..USERS_PER_CLIENT).map(move |u| user_of(c, u).0))
        .filter(|&u| trace_hash(SEED, u).is_multiple_of(SAMPLE_EVERY))
        .collect();
    assert!(
        !sampled_users.is_empty(),
        "seed {SEED} sampled no users — pick a different seed"
    );
    let expected_requests = sampled_users.len() as u64 * ROUNDS as u64 * 2;

    let requests: Vec<&Span> = spans.iter().filter(|s| s.stage == Stage::Request).collect();
    assert_eq!(
        requests.len() as u64,
        expected_requests,
        "one request span per sampled job, exactly"
    );
    for request in &requests {
        assert!(
            sampled_users.contains(&request.user),
            "unsampled user {} traced",
            request.user
        );
    }

    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != SpanId::NONE) {
        children.entry(span.parent.0).or_default().push(span);
    }
    let batches: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.stage == Stage::Batch)
        .map(|s| (s.batch, s))
        .collect();

    for request in &requests {
        let mut kids = children.remove(&request.span.0).unwrap_or_default();
        kids.sort_by_key(|s| s.start_ns);
        assert!(
            kids.len() == 5 || kids.len() == 6,
            "request {} has {} children (predict jobs skip state write-back)",
            request.span.0,
            kids.len()
        );
        // The stage chain tiles [arrival, done] exactly: contiguous,
        // non-overlapping, in causal order, durations summing to the
        // end-to-end span by construction.
        let mut cursor = request.start_ns;
        let mut chain = CHAIN
            .iter()
            .filter(|&&s| kids.len() == 6 || s != Stage::StateWriteBack);
        for kid in &kids {
            assert_eq!(kid.stage, *chain.next().expect("chain length matches"));
            assert_eq!(
                kid.start_ns,
                cursor,
                "stage {} does not start where the previous ended",
                kid.stage.name()
            );
            assert!(kid.end_ns >= kid.start_ns);
            assert!(kid.end_ns <= request.end_ns, "child escapes its parent");
            assert_eq!(kid.trace, request.trace);
            assert_eq!(kid.worker, request.worker);
            assert_eq!(kid.batch, request.batch);
            cursor = kid.end_ns;
        }
        assert_eq!(
            cursor, request.end_ns,
            "stage durations must tile the end-to-end span exactly"
        );
        let durations: u64 = kids.iter().map(|k| k.end_ns - k.start_ns).sum();
        assert_eq!(durations, request.end_ns - request.start_ns);

        // Every request links to an emitted batch span that closes with it.
        let batch = batches
            .get(&request.batch)
            .unwrap_or_else(|| panic!("request {} links no batch span", request.span.0));
        assert_eq!(batch.end_ns, request.end_ns);
        assert_eq!(batch.worker, request.worker);
        assert!((request.worker as usize) < WORKERS);
    }
    assert!(
        children.is_empty(),
        "orphan child spans with no request root: {:?}",
        children.keys().collect::<Vec<_>>()
    );

    // Reconciliation with the engine's own counters: the engine served
    // every job, traced span counts never exceed what the workers report,
    // and per-worker span attribution only names workers that ran batches.
    let total = CLIENTS as u64 * USERS_PER_CLIENT * ROUNDS as u64;
    assert_eq!(stats.predictions, total);
    assert_eq!(stats.updates, total);
    assert_eq!(
        worker_stats.iter().map(|w| w.batches).sum::<u64>(),
        stats.batches
    );
    assert!(batches.len() as u64 <= stats.batches);
    for (worker, _) in worker_stats.iter().enumerate() {
        let traced_jobs = requests
            .iter()
            .filter(|r| r.worker as usize == worker)
            .count() as u64;
        let served = worker_stats[worker].predictions + worker_stats[worker].updates;
        assert!(
            traced_jobs <= served,
            "worker {worker} traced {traced_jobs} jobs but served only {served}"
        );
    }
    let report = tail_report(&spans, SAMPLE_EVERY, 0);
    assert_eq!(report.sampled_requests, expected_requests);
}

/// Builds one synthetic request tree from stage durations; returns the
/// spans. Mirrors the engine's emission shape: contiguous children tiling
/// the root.
fn request_tree(first_id: u64, user: u64, start: u64, durations: &[u64; 6]) -> Vec<Span> {
    let trace = pp_obs::TraceId(trace_hash(SEED, user).max(1));
    let end = start + durations.iter().sum::<u64>();
    let root = Span {
        trace,
        span: SpanId(first_id),
        parent: SpanId::NONE,
        stage: Stage::Request,
        worker: (user % WORKERS as u64) as u32,
        user,
        batch: 1 + user / 7,
        start_ns: start,
        end_ns: end,
    };
    let mut spans = vec![root];
    let mut cursor = start;
    for (i, (&stage, &duration)) in CHAIN.iter().zip(durations).enumerate() {
        spans.push(Span {
            span: SpanId(first_id + 1 + i as u64),
            parent: SpanId(first_id),
            stage,
            start_ns: cursor,
            end_ns: cursor + duration,
            ..root
        });
        cursor += duration;
    }
    spans
}

proptest! {
    /// For any set of synthetic request trees, the tail report's shares are
    /// internally consistent: per-stage shares of request time sum to 1,
    /// tail queue + service shares sum to 1, and the end-to-end quantiles
    /// are monotone.
    #[test]
    fn tail_report_shares_are_consistent_for_any_span_forest(
        trees in prop::collection::vec(
            prop::collection::vec(0u64..200_000, 6..7),
            1..40,
        ),
    ) {
        let mut spans = Vec::new();
        for (i, durations) in trees.iter().enumerate() {
            let durations: [u64; 6] = durations.clone().try_into().unwrap();
            spans.extend(request_tree(
                1 + 10 * i as u64,
                1_000 + i as u64,
                i as u64 * 1_000_000,
                &durations,
            ));
        }
        let report = tail_report(&spans, SAMPLE_EVERY, 0);
        prop_assert_eq!(report.sampled_requests, trees.len() as u64);
        prop_assert!(report.e2e_p50_us <= report.e2e_p90_us);
        prop_assert!(report.e2e_p90_us <= report.e2e_p99_us);
        prop_assert!(report.e2e_p99_us <= report.e2e_max_us + 1e-9);
        prop_assert!(report.tail_requests >= 1, "the slowest request is always in the tail");
        let total_request_us: f64 = spans
            .iter()
            .filter(|s| s.stage == Stage::Request)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum();
        if total_request_us > 0.0 {
            let child_share: f64 = report
                .stages
                .iter()
                .filter(|s| s.stage != "request")
                .map(|s| s.share_of_request_time)
                .sum();
            prop_assert!(
                (child_share - 1.0).abs() < 1e-9,
                "stage shares sum to {child_share}, not 1"
            );
            let tail_share = report.tail_queue_share + report.tail_service_share;
            prop_assert!(
                (tail_share - 1.0).abs() < 1e-9,
                "tail shares sum to {tail_share}, not 1"
            );
        }
    }

    /// Sampling is a pure seeded function of the user id: two tracers with
    /// the same config agree on every user, and the sampled fraction is in
    /// the right ballpark for a uniform hash.
    #[test]
    fn local_tracers_sample_identically(seed in 0u64..1_000, base in 0u64..1_000_000) {
        let config = TracerConfig { sample_every: SAMPLE_EVERY, seed, ..TracerConfig::default() };
        let a = Tracer::new(config);
        let b = Tracer::new(config);
        let sampled = (base..base + 512).filter(|&u| a.sampled(u)).count();
        for user in base..base + 512 {
            prop_assert_eq!(a.sampled(user), b.sampled(user));
            if a.sampled(user) {
                prop_assert_eq!(a.trace_for(user), b.trace_for(user));
            }
        }
        // ~1/4 of 512 users; a uniform hash stays within wide bounds.
        prop_assert!((32..=224).contains(&sampled), "sampled {sampled} of 512");
    }
}
