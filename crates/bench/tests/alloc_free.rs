//! Proves the zero-allocation properties of the hot paths: once its
//! arenas, buffer pools and caches are warm, (a) a training step,
//! (b) a frozen-engine inference pass — including the LSTM path over
//! never-seen token sequences — and (c) the workspace-backed MOO kernels
//! each perform zero heap allocations; (d) a never-seen architecture's
//! encoding costs a fixed, small number of allocations; and (e) the LSTM
//! prefix-state cache stays inside its byte bound.
//!
//! Gated behind the `alloc-count` feature because it installs a global
//! allocator; run with `cargo test -p hwpr-bench --features alloc-count`.
//! Every measured path runs on the test's own thread, and counts are read
//! per thread: the tests of this binary run concurrently, and a
//! process-wide count would include their allocations too.

#![cfg(feature = "alloc-count")]

use hwpr_bench::alloc_count::{thread_allocations, CountingAllocator};
use hwpr_bench::train_step::{step_data, FusedTrainer, StepConfig};
use hwpr_bench::{fixture_archs, fixture_fbnet_model, fixture_model, fixture_objectives};
use hwpr_core::{EncodingCache, ModelConfig, Precision, PREFIX_CACHE_GENERATION_BYTES};
use hwpr_hwmodel::Platform;
use hwpr_moo::{Fronts, IncrementalHv2, MooWorkspace};
use hwpr_nasbench::{Dataset, SearchSpaceId};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_train_step_is_allocation_free() {
    let config = StepConfig::tiny();
    let data = step_data(&config);
    let mut trainer = FusedTrainer::new(&config);
    // warm-up: grows the node arena, buffer pools, gradient buffers and
    // AdamW moments to their steady-state footprint
    for _ in 0..5 {
        trainer.step(&data);
    }
    let before = thread_allocations();
    let mut loss = 0.0;
    for _ in 0..3 {
        loss += trainer.step(&data);
    }
    let after = thread_allocations();
    assert!(loss.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state training steps performed {} heap allocations",
        after - before
    );
}

#[test]
fn warm_moo_workspace_calls_are_allocation_free() {
    // both dispatch paths: the 2-D sweep and the M >= 3 CSR + WFG route
    let points2 = fixture_objectives(256, 2);
    let points3 = fixture_objectives(128, 3);
    let reference2 = vec![101.0, 101.0];
    let reference3 = vec![101.0, 101.0, 101.0];
    let mut ws = MooWorkspace::new();
    let mut fronts = Fronts::new();
    let mut checksum = 0.0f64;
    // warm-up: grows every scratch buffer (objective arena, CSR edges,
    // sort orders, WFG level pool) to its steady-state footprint
    for _ in 0..3 {
        ws.fast_non_dominated_sort_into(&points2, &mut fronts)
            .unwrap();
        ws.fast_non_dominated_sort_into(&points3, &mut fronts)
            .unwrap();
        ws.pareto_ranks(&points2).unwrap();
        ws.pareto_front(&points3).unwrap();
        ws.crowding_distance(&points2).unwrap();
        checksum += ws.hypervolume(&points2, &reference2).unwrap();
        checksum += ws.hypervolume(&points3, &reference3).unwrap();
    }
    let before = thread_allocations();
    for _ in 0..3 {
        ws.fast_non_dominated_sort_into(&points2, &mut fronts)
            .unwrap();
        checksum += fronts.front(0).len() as f64;
        ws.fast_non_dominated_sort_into(&points3, &mut fronts)
            .unwrap();
        checksum += ws.pareto_ranks(&points2).unwrap().len() as f64;
        checksum += ws.pareto_front(&points3).unwrap().len() as f64;
        checksum += ws.crowding_distance(&points2).unwrap()[0];
        checksum += ws.hypervolume(&points2, &reference2).unwrap();
        checksum += ws.hypervolume(&points3, &reference3).unwrap();
    }
    let after = thread_allocations();
    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "warm MOO workspace calls performed {} heap allocations",
        after - before
    );
}

#[test]
fn warm_incremental_hv2_is_allocation_free() {
    let points = fixture_objectives(512, 2);
    let mut archive = IncrementalHv2::new(&[101.0, 101.0]).unwrap();
    // warm-up: the staircase grows to its steady-state capacity, which
    // `clear` retains
    archive.reset_from(&points).unwrap();
    let before = thread_allocations();
    archive.clear();
    let mut accepted = 0u64;
    for p in &points {
        if archive.insert(p[0], p[1]).unwrap() {
            accepted += 1;
        }
    }
    let hv = archive.recompute();
    let after = thread_allocations();
    assert!(hv.is_finite() && accepted > 0);
    assert_eq!(
        after - before,
        0,
        "warm incremental-hv inserts performed {} heap allocations",
        after - before
    );
}

#[test]
fn warm_island_generation_loop_is_allocation_free() {
    use hwpr_search::island::{IslandConfig, IslandHarness};
    use hwpr_search::{Evaluator, Fitness, SearchClock};

    /// Scores-kind evaluator with an allocation-free buffer-reusing fast
    /// path, so the measurement isolates the island machinery itself —
    /// tournament selection, crossover/mutation, the dedup set and the
    /// survivor sorts. (The frozen engine's own warm-path zero-allocation
    /// property is pinned separately above; it cannot hold for an
    /// evolving population, whose fresh offspring each pay a one-time
    /// encoding.)
    struct IndexScoreEvaluator;

    impl Evaluator for IndexScoreEvaluator {
        fn name(&self) -> String {
            "index-scores".to_string()
        }

        fn evaluate(
            &mut self,
            archs: &[hwpr_nasbench::Architecture],
            _clock: &mut SearchClock,
        ) -> hwpr_search::Result<Fitness> {
            Ok(Fitness::Scores(
                archs
                    .iter()
                    .map(|a| (a.index() % 9973) as f64 / 9973.0)
                    .collect(),
            ))
        }

        fn evaluate_scores_into(
            &mut self,
            archs: &[hwpr_nasbench::Architecture],
            _clock: &mut SearchClock,
            out: &mut Vec<f64>,
        ) -> hwpr_search::Result<bool> {
            out.clear();
            out.extend(archs.iter().map(|a| (a.index() % 9973) as f64 / 9973.0));
            Ok(true)
        }

        fn calls_per_arch(&self) -> usize {
            1
        }
    }

    let config = IslandConfig {
        population: 24,
        generations: usize::MAX,
        ..IslandConfig::small(SearchSpaceId::NasBench201)
    };
    let mut harness =
        IslandHarness::new(config, Box::new(IndexScoreEvaluator)).expect("harness builds");
    // warm-up: offspring/fitness/selection buffers reach their
    // steady-state footprint
    for _ in 0..5 {
        harness.step().expect("warm-up step");
    }
    let before = thread_allocations();
    for _ in 0..3 {
        harness.step().expect("measured step");
    }
    let after = thread_allocations();
    assert!(harness.evaluations() > 0);
    assert_eq!(
        after - before,
        0,
        "warm island generation steps performed {} heap allocations",
        after - before
    );
}

#[test]
fn warm_serving_loop_is_allocation_free() {
    use hwpr_serve::{
        BatchQueue, ModelRegistry, Pending, PredictKind, ReplySink, ServeConfig, WorkerState,
    };
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Reply transport that reuses one buffer — stands in for the TCP
    /// sink so the measurement covers the queue + worker + engine loop
    /// without socket noise.
    struct BufferSink {
        last: std::sync::Mutex<Vec<u8>>,
        frames: std::sync::atomic::AtomicU64,
    }

    impl ReplySink for BufferSink {
        fn send(&self, frame: &[u8]) {
            let mut last = self.last.lock().expect("sink lock");
            last.clear();
            last.extend_from_slice(frame);
            self.frames
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    let registry = ModelRegistry::new();
    let nas = Arc::new(fixture_model(32));
    nas.freeze_with(16, Precision::F32);
    registry.publish("default", nas);
    let model = registry.get("default").expect("published");
    let archs = fixture_archs(SearchSpaceId::NasBench201, 24);
    let config = ServeConfig {
        max_batch: 64,
        batch_deadline: Duration::ZERO,
        request_timeout: Duration::from_secs(600),
        ..ServeConfig::default()
    };
    let queue = BatchQueue::new(&config);
    let mut worker = WorkerState::new(&config, hwpr_obs::SpanContext::NONE);
    let sink = Arc::new(BufferSink {
        last: std::sync::Mutex::new(Vec::new()),
        frames: std::sync::atomic::AtomicU64::new(0),
    });

    // uneven interleaved-client windows, so the coalesced forward and
    // the per-request reply split both get exercised
    let windows: [std::ops::Range<usize>; 3] = [0..7, 7..12, 12..24];
    let mut round = |request_id: u64| {
        for (i, window) in windows.iter().enumerate() {
            let mut buf = queue.take_arch_buf();
            buf.extend_from_slice(&archs[window.clone()]);
            queue
                .push(Pending {
                    request_id: request_id + i as u64,
                    kind: PredictKind::Scores,
                    model: Arc::clone(&model),
                    slot: 0,
                    archs: buf,
                    reply: Arc::clone(&sink) as Arc<dyn ReplySink>,
                    arrived: Instant::now(),
                })
                .expect("queue has room");
        }
        while worker.try_run_once(&queue) {}
    };
    // warm-up: queue ring, arch pool, worker staging/output/frame
    // buffers and the engine arena reach steady state
    for r in 0..5 {
        round(r * 10);
    }
    let before = thread_allocations();
    for r in 5..8 {
        round(r * 10);
    }
    let after = thread_allocations();
    assert_eq!(
        sink.frames.load(std::sync::atomic::Ordering::Relaxed),
        8 * windows.len() as u64,
        "every request must have been answered"
    );
    assert_eq!(
        after - before,
        0,
        "warm serving loop performed {} heap allocations",
        after - before
    );
}

#[test]
fn steady_state_frozen_inference_is_allocation_free() {
    let model = fixture_model(32);
    let archs = fixture_archs(SearchSpaceId::NasBench201, 40);
    let mut scores = Vec::new();
    // all three panel precisions must share the zero-allocation property:
    // the f32/f16 paths draw from the arena pool alone, the int8 path
    // additionally reuses its thread-local quantisation scratch
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        // chunk size 16 leaves an uneven final chunk of 8, so both chunk
        // shapes get warmed into the arena's buffer pool
        model.freeze_with(16, precision);
        // warm-up: encodes the architectures into the cache, grows the
        // arena's pool/scratch and the output buffer to steady state
        for _ in 0..3 {
            scores.clear();
            model
                .predict_scores_into(&archs, Platform::EdgeGpu, &mut scores)
                .unwrap();
        }
        let before = thread_allocations();
        let mut sum = 0.0;
        for _ in 0..3 {
            scores.clear();
            model
                .predict_scores_into(&archs, Platform::EdgeGpu, &mut scores)
                .unwrap();
            sum += scores.iter().sum::<f64>();
        }
        let after = thread_allocations();
        assert!(sum.is_finite());
        assert_eq!(scores.len(), archs.len());
        assert_eq!(
            after - before,
            0,
            "steady-state {} inference performed {} heap allocations",
            precision.label(),
            after - before
        );
    }
}

#[test]
fn cold_encoding_costs_a_fixed_number_of_allocations() {
    // a never-seen architecture allocates its one-hot features, its
    // first-layer aggregation, its token ids and the `Arc` around them;
    // the adjacency is interned and the AF are table lookups
    const PER_ARCH: u64 = 4;
    // a batch with misses also allocates its miss list and build list
    const PER_COLD_BATCH: u64 = 2;
    // NB201 padded into the mixed layout, and FBNet at its natural size;
    // 1200 distinct architectures each
    let nb201 = (0..1_200)
        .map(|i| hwpr_nasbench::Architecture::nb201_from_index(i).expect("in range"))
        .collect();
    for (cache, archs) in [
        (EncodingCache::for_mixed(Dataset::Cifar10), nb201),
        (
            EncodingCache::for_space(SearchSpaceId::FBNet, Dataset::Cifar100),
            fixture_archs(SearchSpaceId::FBNet, 1_200),
        ),
    ] {
        let mut out = Vec::with_capacity(archs.len());
        // warm-up: builds the AF table and interned adjacencies, and grows
        // the entries map past 1000 so the measured inserts below fit its
        // table without a resize
        cache.encodings_into(&archs[..1_000], &mut out);
        for pair in archs[1_000..].chunks(2) {
            let before = thread_allocations();
            cache.encodings_into(&pair[..1], &mut out);
            assert_eq!(
                thread_allocations() - before,
                PER_ARCH + PER_COLD_BATCH,
                "cold batch of one"
            );
            let before = thread_allocations();
            let single = cache.encoding(&pair[1]);
            assert_eq!(thread_allocations() - before, PER_ARCH, "cold single");
            drop(single);
        }
        assert_eq!(cache.len(), archs.len());
        // hits only: the warm batch path stays allocation-free
        let before = thread_allocations();
        cache.encodings_into(&archs, &mut out);
        assert_eq!(thread_allocations() - before, 0, "warm batch");
    }
    // any two FBNet encodings share one adjacency allocation
    let cache = EncodingCache::for_space(SearchSpaceId::FBNet, Dataset::Cifar10);
    let archs = fixture_archs(SearchSpaceId::FBNet, 64);
    let first = cache.encoding(&archs[0]);
    for arch in &archs[1..] {
        let enc = cache.encoding(arch);
        assert!(Arc::ptr_eq(&enc.graph.adjacency, &first.graph.adjacency));
    }
}

/// One FBNet surrogate at the production LSTM shape, shared by the
/// prefix-cache tests (each drives its own frozen engine handle).
fn fbnet_fixture() -> &'static hwpr_core::HwPrNas {
    static MODEL: std::sync::OnceLock<hwpr_core::HwPrNas> = std::sync::OnceLock::new();
    MODEL.get_or_init(|| fixture_fbnet_model(48, &ModelConfig::fast()))
}

#[test]
fn warm_lstm_path_over_never_seen_sequences_is_allocation_free() {
    let model = fbnet_fixture();
    let cache = model.encoding_cache();
    let archs = fixture_archs(SearchSpaceId::FBNet, 320);
    // encode everything up front: the measured chunks then exercise the
    // frozen forward alone, with token sequences its prefix cache has
    // never seen
    let mut encodings = Vec::new();
    cache.encodings_into(&archs, &mut encodings);
    drop(encodings);
    let mut scores = Vec::new();
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let frozen = model.freeze_with(64, precision);
        // warm-up: one cold chunk grows the arena's pool, key, order and
        // insert-staging scratch; a warm replay resumes every row at its
        // last step
        for _ in 0..2 {
            scores.clear();
            frozen
                .predict_scores_into(cache, &archs[..64], 0, &mut scores)
                .unwrap();
        }
        for (i, chunk) in archs[64..].chunks(64).enumerate() {
            let before = thread_allocations();
            scores.clear();
            frozen
                .predict_scores_into(cache, chunk, 0, &mut scores)
                .unwrap();
            assert_eq!(
                thread_allocations() - before,
                0,
                "{} chunk {i} of never-seen sequences allocated",
                precision.label()
            );
        }
        let stats = frozen.prefix_cache_stats();
        assert_eq!(stats.flips, 0, "the measured chunks fit one generation");
        assert!(
            stats.entries > 64 * 22,
            "never-seen rows inserted their states"
        );
    }
}

#[test]
fn prefix_cache_stays_inside_its_byte_bound() {
    use rand_chacha::rand_core::SeedableRng;
    let model = fbnet_fixture();
    let cache = model.encoding_cache();
    let frozen = model.freeze_with(64, Precision::F32);
    let capacity = frozen.prefix_cache_stats().capacity;
    assert!(capacity > 0);
    let bound = 2 * PREFIX_CACHE_GENERATION_BYTES;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
    let mut scores = Vec::new();
    // fresh sequences until the third flip: more than twice a
    // generation's capacity has gone in by then
    while frozen.prefix_cache_stats().flips < 3 {
        let archs: Vec<_> = (0..64)
            .map(|_| hwpr_nasbench::Architecture::random(SearchSpaceId::FBNet, &mut rng))
            .collect();
        scores.clear();
        frozen
            .predict_scores_into(cache, &archs, 0, &mut scores)
            .unwrap();
        let stats = frozen.prefix_cache_stats();
        assert!(
            stats.resident_bytes <= bound,
            "{} B resident over the {bound} B bound",
            stats.resident_bytes
        );
        assert!(stats.entries <= 2 * capacity);
    }
}
