//! Criterion benchmarks for feature construction: the full engineered
//! feature vector (context + elapsed + aggregations) versus the RNN's step
//! features, plus incremental aggregation maintenance. These are the costs
//! the paper's §9 calls "the most compute-intensive component" of the
//! traditional serving path.

use criterion::{criterion_group, criterion_main, Criterion};
use pp_baselines::aggregation::AggregationState;
use pp_baselines::features::{BaselineFeaturizer, ElapsedEncoding, FeatureSet};
use pp_data::schema::{Context, DatasetKind, Tab};
use pp_data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
use pp_features::rnn_input::RnnFeaturizer;
use std::hint::black_box;

fn warmed_state() -> (AggregationState, i64) {
    let ds = MobileTabGenerator::new(MobileTabConfig {
        num_users: 1,
        num_days: 30,
        ..Default::default()
    })
    .generate();
    let mut state = AggregationState::new(DatasetKind::MobileTab);
    let mut last = 0;
    for s in &ds.users[0].sessions {
        state.record(s.timestamp, &s.context, s.accessed);
        last = s.timestamp;
    }
    (state, last + 600)
}

fn bench_feature_vectors(c: &mut Criterion) {
    let (state, now) = warmed_state();
    let ctx = Context::MobileTab {
        unread_count: 5,
        active_tab: Tab::Home,
    };
    let full = BaselineFeaturizer::new(
        DatasetKind::MobileTab,
        FeatureSet::Full,
        ElapsedEncoding::OneHotBuckets,
    );
    let contextual = BaselineFeaturizer::new(
        DatasetKind::MobileTab,
        FeatureSet::Contextual,
        ElapsedEncoding::Scalar,
    );
    let rnn = RnnFeaturizer::new(DatasetKind::MobileTab);

    let mut group = c.benchmark_group("feature_construction");
    group.bench_function("baseline_full_A_E_C", |b| {
        b.iter(|| black_box(full.extract(black_box(&state), now, &ctx)));
    });
    group.bench_function("baseline_contextual_only", |b| {
        b.iter(|| black_box(contextual.extract(black_box(&state), now, &ctx)));
    });
    group.bench_function("rnn_predict_input", |b| {
        b.iter(|| black_box(rnn.predict_input(now, &ctx, 3_600)));
    });
    group.bench_function("rnn_update_input", |b| {
        b.iter(|| black_box(rnn.update_input(now, &ctx, 3_600, true)));
    });
    group.finish();
}

fn bench_aggregation_maintenance(c: &mut Criterion) {
    let ctx = Context::MobileTab {
        unread_count: 2,
        active_tab: Tab::Messages,
    };
    let mut group = c.benchmark_group("aggregation_state");
    group.bench_function("record_one_session", |b| {
        let mut state = AggregationState::new(DatasetKind::MobileTab);
        let mut ts = 0i64;
        b.iter(|| {
            ts += 600;
            state.record(ts, &ctx, ts % 5 == 0);
        });
    });
    let (state, now) = warmed_state();
    group.bench_function("query_window_counts", |b| {
        b.iter(|| black_box(state.window_counts(now, &ctx)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_feature_vectors, bench_aggregation_maintenance
}
criterion_main!(benches);
