//! Criterion microbenchmarks of the compute half of the request path at
//! serving shapes (B ∈ {1, 8, 64}, H = 128): the one GEMM dense and on the
//! one-hot inputs' dense form in every instantiation the host runs
//! (`dense/<isa>`, `onehot/<isa>`), the one-hot inputs as row gathers, the
//! fused GRU step and the fused prediction head, each over a warm scratch.
//! The in-repo line a kernel change has to move; end-to-end claims still go
//! through `ppbench` (`benchmark/README.md`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pp_data::schema::{Context, DatasetKind, Tab};
use pp_nn::kernel::{gather_acc, gemm_acc_on, Isa, SparseRows};
use pp_rnn::{BatchScratch, RnnModel, RnnModelConfig, TaskKind};
use std::hint::black_box;

const HIDDEN: usize = 128;
const BATCHES: [usize; 3] = [1, 8, 64];

fn context(i: usize) -> Context {
    Context::MobileTab {
        unread_count: (i % 11) as u8,
        active_tab: Tab::ALL[i % Tab::ALL.len()],
    }
}

/// A deterministic non-zero state value for `(row, column)`.
fn state_value(row: usize, col: usize) -> f32 {
    ((row * 131 + col * 31) % 61) as f32 / 61.0 - 0.5
}

fn bench_gemm(c: &mut Criterion) {
    let w: Vec<f32> = (0..HIDDEN * HIDDEN)
        .map(|i| state_value(i / HIDDEN, i % HIDDEN) * 0.2)
        .collect();
    let featurizer = pp_features::rnn_input::RnnFeaturizer::new(DatasetKind::MobileTab);
    let dims = featurizer.update_input_dims();
    let w_in: Vec<f32> = (0..dims * HIDDEN)
        .map(|i| state_value(i % HIDDEN, i / HIDDEN) * 0.2)
        .collect();
    let mut group = c.benchmark_group("gemm_acc");
    for b in BATCHES {
        let a: Vec<f32> = (0..b * HIDDEN)
            .map(|i| state_value(i / HIDDEN, i % HIDDEN))
            .collect();
        let mut out = vec![0.0f32; b * HIDDEN];
        let mut x = SparseRows::new();
        x.clear(dims);
        let mut onehot = vec![0.0f32; b * dims];
        for (i, row) in onehot.chunks_exact_mut(dims).enumerate() {
            featurizer.update_input_into(
                86_400 + 3_700 * i as i64,
                &context(i),
                600 * i as i64,
                i % 2 == 0,
                |col, value| {
                    x.push(col, value);
                    row[col] = value;
                },
            );
            x.end_row();
        }
        for isa in Isa::available() {
            group.bench_with_input(
                BenchmarkId::new(format!("dense/{isa:?}"), b),
                &b,
                |bench, _| {
                    bench.iter(|| {
                        out.fill(0.0);
                        gemm_acc_on(isa, &mut out, black_box(&a), &w, HIDDEN);
                    });
                },
            );
            // Mostly zeros, so the GEMM takes its row loop: the gather's
            // `value × row` additions, plus a scan past the zeros.
            group.bench_with_input(
                BenchmarkId::new(format!("onehot/{isa:?}"), b),
                &b,
                |bench, _| {
                    bench.iter(|| {
                        out.fill(0.0);
                        gemm_acc_on(isa, &mut out, black_box(&onehot), &w_in, HIDDEN);
                    });
                },
            );
        }
        group.bench_with_input(BenchmarkId::new("onehot_gather", b), &b, |bench, _| {
            bench.iter(|| {
                out.fill(0.0);
                gather_acc(&mut out, black_box(&x), &w_in, HIDDEN);
            });
        });
    }
    group.finish();
}

fn bench_fused_steps(c: &mut Criterion) {
    let model = RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::default(),
        0,
    );
    let featurizer = *model.featurizer();
    let mut scratch = BatchScratch::new();
    let mut group = c.benchmark_group("fused_step");
    for b in BATCHES {
        let assemble = |scratch: &mut BatchScratch, update: bool| {
            let dims = if update {
                model.update_input_dims()
            } else {
                model.predict_input_dims()
            };
            scratch.begin(model.state_dim(), dims);
            for i in 0..b {
                let inputs = scratch.inputs_mut();
                let (at, elapsed) = (86_400 + 3_700 * i as i64, 600 * i as i64);
                if update {
                    featurizer.update_input_into(at, &context(i), elapsed, i % 2 == 0, |c, v| {
                        inputs.push(c, v);
                    });
                } else {
                    featurizer.predict_input_into(at, &context(i), elapsed, |c, v| {
                        inputs.push(c, v);
                    });
                }
                inputs.end_row();
            }
            let rows = scratch.zeroed_states().chunks_exact_mut(model.state_dim());
            for (i, row) in rows.enumerate() {
                for (col, v) in row.iter_mut().enumerate() {
                    *v = state_value(i, col);
                }
            }
        };
        assemble(&mut scratch, true);
        group.bench_with_input(BenchmarkId::new("gru_update", b), &b, |bench, _| {
            bench.iter(|| model.advance_state_batch_into(black_box(&mut scratch)));
        });
        assemble(&mut scratch, false);
        group.bench_with_input(BenchmarkId::new("predict_head", b), &b, |bench, _| {
            bench.iter(|| model.predict_proba_batch_into(black_box(&mut scratch)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_fused_steps);
criterion_main!(benches);
