//! Frozen tape-free inference vs the recording-tape reference path — the
//! MOEA hot-path numbers behind `BENCH_pr4.json`.
//!
//! - `tape_serial` — the reference path (`predict_full_tape`): tape reset
//!   + parameter rebinding + op recording every chunk.
//! - `frozen_serial` — the frozen engine (`predict_full`): persistent
//!   prepacked weights, pooled activation arena, no tape.
//! - `frozen_parallel` — `predict_full_parallel` over two scoped workers,
//!   each with its own checked-out arena (pack-free). Only expected to
//!   beat `frozen_serial` on multi-core hosts; on a single-CPU runner the
//!   scoped-thread spawn is pure overhead.
//!
//! Acceptance: `frozen_serial` at least 1.5x faster per batch than
//! `tape_serial`; all three paths are bit-identical (differential tests
//! in `hwpr-core`).
//!
//! The `frozen_b{B}_{prec}` grid (PR-6, `BENCH_pr6.json`) sweeps the
//! compiled batch width (1 / 8 / 64) against the weight-panel precision
//! ({f32, f16, int8} via [`freeze_with`]): width 1 shows the per-chunk
//! dispatch floor, width 64 the amortised batched path. The f32 grid rows
//! stay bit-identical to `frozen_serial`; reduced-precision rows are
//! rank-faithful (Kendall tau >= 0.99, asserted in `hwpr-core` tests).
//!
//! Every row above re-scores the same 256 architectures on one engine,
//! so after the first sweep the LSTM prefix-state cache holds each
//! architecture's full sequence and every row resumes at its last step:
//! these rows measure the warm-cache forward (GCN, heads, cache lookups),
//! not the recurrence. The `lstm_*` rows below measure the recurrence.
//!
//! The `encode_cold/{nb201,fbnet}` rows time what a never-seen
//! architecture costs before any forward pass: one `encodings_into` of
//! [`COLD_SWEEP`] architectures through a fresh [`EncodingCache`]
//! (interned adjacency, AF table lookups, one-hot features, tokens and
//! the first-layer aggregation). NB201 sweeps the whole space, FBNet as
//! many seeded architectures; divide a row by [`COLD_SWEEP`] for the
//! per-architecture cost.
//!
//! The `lstm_cold/fbnet` and `lstm_prefix_warm/fbnet` rows score the same
//! [`PREFIX_ROWS`] FBNet architectures through an FBNet surrogate at the
//! production shape ([`fixture_fbnet_model`]): single-position mutants
//! of as many random parents. Each iteration gets a freshly frozen
//! engine, whose LSTM prefix-state cache starts empty; the warm row first
//! scores the parents (untimed), so every mutant resumes its recurrence
//! from its parent's prefix state, as a search generation's offspring do.
//! Encodings are warm in both rows, so the gap is the skipped LSTM steps
//! net of the cache's lookup and insert cost.
//!
//! [`freeze_with`]: hwpr_core::HwPrNas::freeze_with

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hwpr_bench::{fixture_archs, fixture_fbnet_model, fixture_model, fixture_offspring};
use hwpr_core::{EncodingCache, ModelConfig};
use hwpr_hwmodel::Platform;
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_tensor::Precision;

/// Architectures per `encode_cold` iteration: all of NAS-Bench-201.
const COLD_SWEEP: usize = 15_625;

/// Architectures per `lstm_*` iteration: one compiled chunk.
const PREFIX_ROWS: usize = 64;

fn bench_inference_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_throughput");
    group.sample_size(10);
    let model = fixture_model(64);
    let archs = fixture_archs(SearchSpaceId::NasBench201, 256);
    // warm the encoding cache and compile the frozen engine up front so
    // every measured iteration is pure forward cost on both paths
    model.predict_full(&archs, Platform::EdgeGpu).unwrap();
    model.predict_full_tape(&archs, Platform::EdgeGpu).unwrap();

    group.bench_function("tape_serial", |b| {
        b.iter(|| model.predict_full_tape(&archs, Platform::EdgeGpu).unwrap())
    });
    group.bench_function("frozen_serial", |b| {
        b.iter(|| model.predict_full(&archs, Platform::EdgeGpu).unwrap())
    });
    group.bench_function("frozen_parallel", |b| {
        b.iter(|| {
            model
                .predict_full_parallel(&archs, Platform::EdgeGpu, 2)
                .unwrap()
        })
    });
    // batch-width x precision grid: recompile the frozen engine per cell,
    // then measure the same 256-arch sweep the rows above use
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        for width in [1usize, 8, 64] {
            model.freeze_with(width, precision);
            model.predict_full(&archs, Platform::EdgeGpu).unwrap();
            group.bench_function(format!("frozen_b{width}_{}", precision.label()), |b| {
                b.iter(|| model.predict_full(&archs, Platform::EdgeGpu).unwrap())
            });
        }
    }
    let nb201: Vec<Architecture> = (0..COLD_SWEEP as u64)
        .map(|i| Architecture::nb201_from_index(i).expect("in range"))
        .collect();
    let fbnet = fixture_archs(SearchSpaceId::FBNet, COLD_SWEEP);
    for (name, archs) in [("nb201", nb201), ("fbnet", fbnet)] {
        let space = archs[0].space();
        let mut out = Vec::with_capacity(archs.len());
        group.bench_function(format!("encode_cold/{name}"), |b| {
            b.iter(|| {
                let cache = EncodingCache::for_space(space, Dataset::Cifar10);
                cache.encodings_into(&archs, &mut out);
                out.clear();
                cache.len()
            })
        });
    }
    let fbnet_model = fixture_fbnet_model(64, &ModelConfig::fast());
    let parents = fixture_archs(SearchSpaceId::FBNet, PREFIX_ROWS);
    let offspring = fixture_offspring(&parents, 11);
    let cache = fbnet_model.encoding_cache();
    for (name, warm) in [
        ("lstm_cold/fbnet", &[][..]),
        ("lstm_prefix_warm/fbnet", &parents[..]),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let frozen = fbnet_model.freeze_with(PREFIX_ROWS, Precision::F32);
                    frozen.predict_scores(cache, warm, 0).unwrap();
                    frozen
                },
                |frozen| frozen.predict_scores(cache, &offspring, 0).unwrap(),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inference_throughput);
criterion_main!(benches);
