//! Criterion benchmarks for training: one epoch of the fused GRU trainer
//! (§7.1's minibatches, stepped time-major through the fused kernels), with
//! the epoch's session count printed so the time reads per session step,
//! and GBDT training for comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use pp_baselines::features::{
    build_session_examples, BaselineFeaturizer, ElapsedEncoding, FeatureSet,
};
use pp_baselines::{Gbdt, GbdtConfig};
use pp_data::schema::DatasetKind;
use pp_data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
use pp_rnn::{RnnModel, RnnModelConfig, RnnTrainer, TaskKind, TrainerConfig};
use std::hint::black_box;

fn bench_rnn_training(c: &mut Criterion) {
    let ds = MobileTabGenerator::new(MobileTabConfig {
        num_users: 40,
        num_days: 10,
        ..Default::default()
    })
    .generate();
    let idx: Vec<usize> = (0..ds.users.len()).collect();
    let model = RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig {
            hidden_dim: 32,
            mlp_width: 32,
            ..Default::default()
        },
        0,
    );
    let trainer = RnnTrainer::new(TrainerConfig {
        epochs: 1,
        train_last_days: 8,
        ..Default::default()
    });
    let sessions = trainer.train(&mut model.clone(), &ds, &idx).total_sessions;
    println!("rnn_training_one_epoch: {sessions} session steps; divide the time by them");

    let mut group = c.benchmark_group("rnn_training_one_epoch");
    group.sample_size(10);
    group.bench_function("gru_fused", |b| {
        b.iter(|| black_box(trainer.train(&mut model.clone(), &ds, &idx)));
    });
    group.finish();
}

fn bench_gbdt_training(c: &mut Criterion) {
    let ds = MobileTabGenerator::new(MobileTabConfig {
        num_users: 40,
        num_days: 10,
        ..Default::default()
    })
    .generate();
    let featurizer = BaselineFeaturizer::new(ds.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
    let idx: Vec<usize> = (0..ds.users.len()).collect();
    let examples = build_session_examples(&ds, &idx, &featurizer, Some(7));

    let mut group = c.benchmark_group("gbdt_training");
    group.sample_size(10);
    group.bench_function("gbdt_30_trees_depth_6", |b| {
        b.iter(|| {
            black_box(Gbdt::train(
                &examples,
                GbdtConfig {
                    num_trees: 30,
                    max_depth: 6,
                    ..Default::default()
                },
            ))
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_rnn_training, bench_gbdt_training
}
criterion_main!(benches);
