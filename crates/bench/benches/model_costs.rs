//! Criterion microbenchmarks behind the §9 serving-cost discussion:
//! per-prediction latency of each model, the RNN hidden-state update, and
//! hidden-state store round-trips.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pp_baselines::features::{
    build_session_examples, BaselineFeaturizer, ElapsedEncoding, FeatureSet,
};
use pp_baselines::{Gbdt, GbdtConfig, LogRegConfig, LogisticRegression, PercentageModel};
use pp_data::schema::{DatasetKind, UserId};
use pp_data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
use pp_serving::{decode_state_f32, encode_state_f32, ShardedStateStore};
use std::collections::HashMap;
use std::hint::black_box;

fn bench_prediction_latency(c: &mut Criterion) {
    let ds = MobileTabGenerator::new(MobileTabConfig {
        num_users: 60,
        num_days: 10,
        ..Default::default()
    })
    .generate();
    let featurizer = BaselineFeaturizer::new(ds.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
    let idx: Vec<usize> = (0..ds.users.len()).collect();
    let examples = build_session_examples(&ds, &idx, &featurizer, Some(7));
    let gbdt = Gbdt::train(
        &examples,
        GbdtConfig {
            num_trees: 60,
            max_depth: 6,
            ..Default::default()
        },
    );
    let lr = LogisticRegression::train(
        &examples,
        LogRegConfig {
            epochs: 2,
            ..Default::default()
        },
    );
    let pct = PercentageModel::new(0.1);
    let features = examples[0].features.clone();

    let rnn = RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::default(),
        0,
    );
    let state: Vec<f32> = (0..rnn.state_dim())
        .map(|i| (i as f32 * 0.1).sin())
        .collect();
    let session = &ds.users[0].sessions[0];
    let predict_input = rnn
        .featurizer()
        .predict_input(session.timestamp, &session.context, 3_600);
    let update_input =
        rnn.featurizer()
            .update_input(session.timestamp, &session.context, 3_600, true);

    let mut group = c.benchmark_group("prediction_latency");
    group.bench_function("percentage", |b| {
        b.iter(|| black_box(pct.predict(black_box(40), black_box(7))));
    });
    group.bench_function("logistic_regression", |b| {
        b.iter(|| black_box(lr.predict(black_box(&features))));
    });
    group.bench_function("gbdt_60_trees", |b| {
        b.iter(|| black_box(gbdt.predict(black_box(&features))));
    });
    group.bench_function("rnn_predict_128d", |b| {
        b.iter(|| black_box(rnn.predict_proba(black_box(&state), black_box(&predict_input))));
    });
    group.bench_function("rnn_update_128d", |b| {
        b.iter(|| black_box(rnn.advance_state(black_box(&state), black_box(&update_input))));
    });
    group.finish();
}

fn bench_feature_assembly_vs_hidden_lookup(c: &mut Criterion) {
    // The paper's point: assembling ~20 aggregation lookups dwarfs the single
    // hidden-state fetch. The hidden state comes from the serving store; the
    // aggregation table is a string-keyed map of encoded cells standing in
    // for the Redis-like store the GBDT path would query.
    let store = ShardedStateStore::new(1);
    let user = UserId(1);
    store.put_state(user, &[0.5; 128]);
    let aggregates: HashMap<String, _> = (0..20)
        .map(|i| {
            let cell = encode_state_f32(&[1.0, 2.0, 3.0, 4.0]);
            (format!("agg/user-1/{i}"), cell)
        })
        .collect();

    let mut group = c.benchmark_group("store_roundtrips");
    group.bench_function("rnn_single_hidden_lookup", |b| {
        b.iter(|| black_box(store.get_state(black_box(user))));
    });
    group.bench_function("baseline_20_aggregation_lookups", |b| {
        b.iter(|| {
            let mut total = 0.0f32;
            for i in 0..20 {
                let bytes = aggregates.get(&format!("agg/user-1/{i}")).unwrap();
                total += decode_state_f32(bytes)[0];
            }
            black_box(total)
        });
    });
    group.finish();
}

fn bench_hidden_dim_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("rnn_predict_by_hidden_dim");
    for dim in [16usize, 32, 64, 128] {
        let model = RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig {
                hidden_dim: dim,
                mlp_width: dim,
                ..Default::default()
            },
            0,
        );
        let state = vec![0.1f32; model.state_dim()];
        let ctx = pp_data::schema::Context::MobileTab {
            unread_count: 3,
            active_tab: pp_data::schema::Tab::Home,
        };
        let input = model.featurizer().predict_input(1_000, &ctx, 600);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            b.iter(|| black_box(model.predict_proba(black_box(&state), black_box(&input))));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_prediction_latency, bench_feature_assembly_vs_hidden_lookup, bench_hidden_dim_scaling
}
criterion_main!(benches);
