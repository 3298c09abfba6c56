//! Full training-step throughput on the paper-sized LSTM latency
//! surrogate (Table II: batch 128, 2x225 LSTM, [256, 128] head). Two
//! implementations of the same step:
//!
//! - `baseline_pr1` — the PR-1 shape: a fresh tape every step, per-gate
//!   LSTM graph, per-op linear layers, cloned gradients.
//! - `fused_reused` — the PR-2 hot path: fused LSTM-step/linear/loss
//!   kernels on a persistent, `reset`-recycled tape arena.
//!
//! The PR-2 acceptance point: `fused_reused` must be >= 2x the baseline's
//! per-step throughput.
//!
//! `fit_nb201` times a whole `HwPrNas::fit` — joint epochs, per-epoch
//! validation and the fusion fine-tune phase — on a small NAS-Bench-201
//! set at `ModelConfig::fast` with the joint phase capped at 6 epochs.

use criterion::{criterion_group, criterion_main, Criterion};
use hwpr_bench::train_step::{step_data, BaselineTrainer, FusedTrainer, StepConfig};
use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Dataset, SearchSpaceId};

fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    let config = StepConfig::paper();
    let data = step_data(&config);
    let mut fused = FusedTrainer::new(&config);
    // warm the arena (pools, optimizer state) so the bench measures the
    // steady state the training loop actually runs in
    for _ in 0..2 {
        fused.step(&data);
    }
    group.bench_function("fused_reused", |b| b.iter(|| fused.step(&data)));
    let mut baseline = BaselineTrainer::new(&config);
    for _ in 0..2 {
        baseline.step(&data);
    }
    group.bench_function("baseline_pr1", |b| b.iter(|| baseline.step(&data)));
    let bench = SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(200),
        seed: 3,
    });
    let fit_data =
        SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
    let train_config = TrainConfig {
        epochs: 6,
        early_stop_patience: 6,
        ..TrainConfig::fast()
    };
    group.bench_function("fit_nb201", |b| {
        b.iter(|| HwPrNas::fit(&fit_data, &ModelConfig::fast(), &train_config).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_train_step);
criterion_main!(benches);
