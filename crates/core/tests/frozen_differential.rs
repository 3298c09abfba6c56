//! Differential fixture: the frozen tape-free inference engine must stay
//! inside the documented error budget against the recording-tape
//! reference path — f32 max-abs ≤ 1e-5 with Kendall τ = 1.0, and rank
//! preservation (τ ≥ 0.99) when CI re-runs this binary under
//! `HWPR_INFER_PRECISION=f16` / `int8` — for every public predict
//! method, every latency-head platform, and uneven final chunks.
//!
//! The LSTM prefix-state cache is held to a stricter standard at every
//! precision: scores must be bit-identical to each architecture scored
//! alone on a freshly frozen engine, whether the cache is cold, warm,
//! partially warm or just past a generation flip, over FBNet,
//! NAS-Bench-201 and `PAD`-padded mixed-space sequences, shuffled batch
//! orders and chunk sizes 1, 7 and 64.
//!
//! (Per-encoder-type differentials — AF / LSTM / GCN and combinations —
//! live as unit tests in `hwpr_core::frozen`; here the full compiled
//! model is exercised end to end.)

use hwpr_core::{
    EncodingCache, FrozenModel, HwPrNas, ModelConfig, Precision, SurrogateDataset, TrainConfig,
};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use proptest::prelude::*;
use std::sync::OnceLock;

fn bench(n: usize) -> SimBench {
    SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(n),
        seed: 3,
    })
}

/// A scoring population larger than the training set, so batch widths
/// 64 and 129 exercise uneven final chunks and Kendall τ has enough
/// pairs to be meaningful.
fn eval_archs(n: usize) -> Vec<Architecture> {
    bench(n)
        .entries()
        .iter()
        .map(|e| e.arch().clone())
        .collect()
}

fn tau(a: &[f64], b: &[f64]) -> f64 {
    let af: Vec<f32> = a.iter().map(|&x| x as f32).collect();
    let bf: Vec<f32> = b.iter().map(|&x| x as f32).collect();
    hwpr_metrics::kendall_tau(&af, &bf).unwrap()
}

/// [`tau`], but `None` when either side is constant (`ZeroVariance`) —
/// rank preservation is vacuous on a degenerate column, e.g. the tiny
/// fixture predicting one latency for every architecture.
fn try_tau(a: &[f64], b: &[f64]) -> Option<f64> {
    let af: Vec<f32> = a.iter().map(|&x| x as f32).collect();
    let bf: Vec<f32> = b.iter().map(|&x| x as f32).collect();
    hwpr_metrics::kendall_tau(&af, &bf).ok()
}

fn trained_single() -> (HwPrNas, Vec<Architecture>) {
    let b = bench(48);
    let data = SurrogateDataset::from_simbench(&b, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
    let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
    let archs = data.samples().iter().map(|s| s.arch.clone()).collect();
    (model, archs)
}

fn trained_multi() -> (HwPrNas, Vec<Architecture>) {
    let b = bench(40);
    let platforms = [Platform::EdgeGpu, Platform::Pixel3];
    let (model, _) = HwPrNas::fit_multi(
        b.entries(),
        Dataset::Cifar10,
        &platforms,
        &ModelConfig::tiny(),
        &TrainConfig::tiny(),
    )
    .unwrap();
    let archs = b.entries().iter().map(|e| e.arch().clone()).collect();
    (model, archs)
}

/// The precision the default frozen engine compiles at — the same env
/// knob the engine itself reads. CI re-runs this test binary with
/// `HWPR_INFER_PRECISION=f16` and `int8` to exercise the reduced-
/// precision budget on every differential below.
fn env_precision() -> Precision {
    std::env::var("HWPR_INFER_PRECISION")
        .ok()
        .and_then(|spec| Precision::parse(&spec))
        .unwrap_or(Precision::F32)
}

fn max_abs(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Frozen-vs-tape score budget: at f32, max-abs ≤ 1e-5 and τ = 1.0; at
/// f16/int8 the guarantee is rank preservation, τ ≥ 0.99.
fn assert_scores_within_budget(frozen: &[f64], tape: &[f64], what: &str) {
    match env_precision() {
        Precision::F32 => {
            let worst = max_abs(frozen, tape);
            assert!(worst <= 1e-5, "{what}: max-abs {worst:e} > 1e-5");
            if frozen.len() > 2 {
                if let Some(t) = try_tau(frozen, tape) {
                    assert!(t >= 1.0, "{what}: Kendall tau {t:.4} < 1.0");
                }
            }
        }
        _ => {
            if let Some(t) = try_tau(frozen, tape) {
                assert!(t >= 0.99, "{what}: Kendall tau {t:.4} < 0.99");
            }
        }
    }
}

fn assert_within_budget(model: &HwPrNas, archs: &[Architecture], platform: Platform) {
    let frozen_scores = model.predict_scores(archs, platform).unwrap();
    let tape_scores = model.predict_scores_tape(archs, platform).unwrap();
    assert_scores_within_budget(&frozen_scores, &tape_scores, "scores");

    let (ff_scores, ff_objs) = model.predict_full(archs, platform).unwrap();
    let (tf_scores, tf_objs) = model.predict_full_tape(archs, platform).unwrap();
    assert_scores_within_budget(&ff_scores, &tf_scores, "full scores");
    let f_flat: Vec<f64> = ff_objs.iter().flatten().copied().collect();
    let t_flat: Vec<f64> = tf_objs.iter().flatten().copied().collect();
    if env_precision() == Precision::F32 {
        let worst = max_abs(&f_flat, &t_flat);
        assert!(worst <= 1e-5, "full objectives: max-abs {worst:e} > 1e-5");
    }

    let frozen_objs = model.predict_objectives(archs, platform).unwrap();
    let tape_objs = model.predict_objectives_tape(archs, platform).unwrap();
    if env_precision() == Precision::F32 {
        let f_flat: Vec<f64> = frozen_objs.iter().flat_map(|&(a, l)| [a, l]).collect();
        let t_flat: Vec<f64> = tape_objs.iter().flat_map(|&(a, l)| [a, l]).collect();
        let worst = max_abs(&f_flat, &t_flat);
        assert!(worst <= 1e-5, "objectives: max-abs {worst:e} > 1e-5");
    } else {
        type ObjColumn = fn(&(f64, f64)) -> f64;
        let pick: [(ObjColumn, &str); 2] = [(|o| o.0, "accuracy"), (|o| o.1, "latency")];
        for (col, name) in pick {
            let f: Vec<f64> = frozen_objs.iter().map(col).collect();
            let t: Vec<f64> = tape_objs.iter().map(col).collect();
            if let Some(tv) = try_tau(&f, &t) {
                assert!(tv >= 0.99, "{name} objectives: Kendall tau {tv:.4} < 0.99");
            }
        }
    }
}

#[test]
fn frozen_engine_stays_within_budget_of_tape() {
    let (model, archs) = trained_single();
    assert_within_budget(&model, &archs, Platform::EdgeGpu);
}

#[test]
fn frozen_engine_matches_tape_on_every_platform() {
    let (model, archs) = trained_multi();
    for &platform in model.platforms() {
        assert_within_budget(&model, &archs, platform);
    }
}

#[test]
fn uneven_final_chunks_stay_within_budget() {
    let (model, archs) = trained_single();
    let tape_scores = model
        .predict_scores_tape(&archs, Platform::EdgeGpu)
        .unwrap();
    // 48 archs in chunks of 7 leaves a final chunk of 6; batch 5 leaves 3
    for batch in [7usize, 5, 48, 64] {
        let frozen = model.freeze_with_batch(batch);
        assert_eq!(frozen.batch(), batch);
        let scores = model.predict_scores(&archs, Platform::EdgeGpu).unwrap();
        assert_scores_within_budget(&scores, &tape_scores, "chunked scores");
    }
}

#[test]
fn parallel_path_is_bit_identical_and_pack_free() {
    let (model, archs) = trained_single();
    let serial = model.predict_full(&archs, Platform::EdgeGpu).unwrap();
    for threads in [2usize, 3, 8] {
        let parallel = model
            .predict_full_parallel(&archs, Platform::EdgeGpu, threads)
            .unwrap();
        assert_eq!(parallel, serial, "{threads} threads diverge from serial");
    }
}

#[test]
fn batched_engine_matches_serial_bit_identically() {
    let (model, _) = trained_single();
    let archs = eval_archs(160);
    model.freeze_with(1, Precision::F32);
    let serial = model.predict_full(&archs, Platform::EdgeGpu).unwrap();
    for batch in [7usize, 64, 129] {
        model.freeze_with(batch, Precision::F32);
        let batched = model.predict_full(&archs, Platform::EdgeGpu).unwrap();
        assert_eq!(batched, serial, "batch width {batch} diverges from serial");
    }
}

#[test]
fn reduced_precision_preserves_rank_on_uneven_batches() {
    let (model, _) = trained_single();
    let archs = eval_archs(160);
    model.freeze_with(64, Precision::F32);
    let base = model.predict_scores(&archs, Platform::EdgeGpu).unwrap();
    for precision in [Precision::F16, Precision::Int8] {
        for batch in [1usize, 7, 64, 129] {
            model.freeze_with(batch, precision);
            let scores = model.predict_scores(&archs, Platform::EdgeGpu).unwrap();
            let t = tau(&base, &scores);
            assert!(
                t >= 0.99,
                "{} batch {batch}: Kendall tau {t:.4} < 0.99",
                precision.label()
            );
        }
    }
}

#[test]
fn quantized_rank_is_preserved_on_every_platform_head() {
    let (model, _) = trained_multi();
    let archs = eval_archs(160);
    for &platform in model.platforms() {
        model.freeze_with(64, Precision::F32);
        let base = model.predict_scores(&archs, platform).unwrap();
        for precision in [Precision::F16, Precision::Int8] {
            model.freeze_with(64, precision);
            let scores = model.predict_scores(&archs, platform).unwrap();
            let t = tau(&base, &scores);
            assert!(
                t >= 0.99,
                "{platform} {}: Kendall tau {t:.4} < 0.99",
                precision.label()
            );
        }
    }
}

/// Shared fixture for the proptest below only — proptest cases run
/// sequentially inside one `#[test]`, so reinstalling the frozen engine
/// per case never races with the other tests (which train their own
/// models).
fn proptest_fixture() -> &'static (HwPrNas, Vec<Architecture>, Vec<f64>) {
    static FIX: OnceLock<(HwPrNas, Vec<Architecture>, Vec<f64>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let (model, archs) = trained_single();
        let tape = model
            .predict_scores_tape(&archs, Platform::EdgeGpu)
            .unwrap();
        (model, archs, tape)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Scores are per-architecture, so any prefix scored at any batch
    // width must reproduce the tape reference within the f32 error
    // budget (the engine is explicitly frozen at f32 here regardless of
    // the env precision).
    #[test]
    fn any_batch_width_stays_within_budget_of_the_tape(
        batch in 1usize..=160,
        len in 1usize..=48,
    ) {
        let (model, archs, tape) = proptest_fixture();
        model.freeze_with(batch, Precision::F32);
        let scores = model
            .predict_scores(&archs[..len], Platform::EdgeGpu)
            .unwrap();
        let worst = max_abs(&scores, &tape[..len]);
        prop_assert!(worst <= 1e-5, "batch {} len {}: max-abs {:e}", batch, len, worst);
    }
}

#[test]
fn unknown_platform_still_fails_fast() {
    let (model, archs) = trained_single();
    assert!(model.predict_scores(&archs, Platform::Eyeriss).is_err());
    assert!(model
        .predict_full_parallel(&archs, Platform::Eyeriss, 4)
        .is_err());
}

/// A mixed-space model: NAS-Bench-201 token sequences are padded with
/// `PAD` to FBNet's 22 tokens, so one engine sees both spaces and both
/// sequence shapes. Used through explicitly frozen engine handles only,
/// so the tests sharing it never read each other's installed engine.
fn mixed_fixture() -> &'static HwPrNas {
    static FIX: OnceLock<HwPrNas> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut entries = bench(30).entries().to_vec();
        let fbnet = SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::FBNet,
            sample_size: Some(30),
            seed: 3,
        });
        entries.extend_from_slice(fbnet.entries());
        let data =
            SurrogateDataset::from_entries(&entries, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
        HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny())
            .unwrap()
            .0
    })
}

/// Probe architectures with heavily overlapping token prefixes: random
/// FBNet and NAS-Bench-201 parents, single-position mutants of them and
/// crossovers of parent pairs, in a seeded shuffle.
fn prefix_probe(seed: u64) -> Vec<Architecture> {
    use rand::seq::SliceRandom;
    use rand_chacha::rand_core::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut probe = Vec::new();
    for space in [SearchSpaceId::FBNet, SearchSpaceId::NasBench201] {
        let parents: Vec<Architecture> = (0..8)
            .map(|_| Architecture::random(space, &mut rng))
            .collect();
        for (i, parent) in parents.iter().enumerate() {
            probe.push(parent.clone());
            probe.push(parent.mutate(&mut rng));
            probe.push(parent.mutate(&mut rng).mutate(&mut rng));
            let other = &parents[(i + 1) % parents.len()];
            probe.push(parent.crossover(other, &mut rng).unwrap());
        }
    }
    probe.shuffle(&mut rng);
    probe
}

fn score_bits(frozen: &FrozenModel, cache: &EncodingCache, archs: &[Architecture]) -> Vec<u64> {
    frozen
        .predict_scores(cache, archs, 0)
        .unwrap()
        .iter()
        .map(|s| s.to_bits())
        .collect()
}

/// Each architecture scored alone through an engine frozen for it: no
/// cached prefix from any other architecture can reach it.
fn isolated_bits(model: &HwPrNas, archs: &[Architecture], precision: Precision) -> Vec<u64> {
    archs
        .iter()
        .map(|a| {
            score_bits(
                &model.freeze_with(1, precision),
                model.encoding_cache(),
                std::slice::from_ref(a),
            )[0]
        })
        .collect()
}

/// Scores `archs` in a shuffled order and returns them in input order.
fn shuffled_bits(
    frozen: &FrozenModel,
    cache: &EncodingCache,
    archs: &[Architecture],
    seed: u64,
) -> Vec<u64> {
    use rand::seq::SliceRandom;
    use rand_chacha::rand_core::SeedableRng;
    let mut order: Vec<usize> = (0..archs.len()).collect();
    order.shuffle(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed));
    let shuffled: Vec<Architecture> = order.iter().map(|&i| archs[i].clone()).collect();
    let bits = score_bits(frozen, cache, &shuffled);
    let mut out = vec![0; archs.len()];
    for (&i, b) in order.iter().zip(bits) {
        out[i] = b;
    }
    out
}

#[test]
fn prefix_resumed_scores_are_bit_identical_cold_warm_and_partial() {
    let model = mixed_fixture();
    let cache = model.encoding_cache();
    let probe = prefix_probe(21);
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let want = isolated_bits(model, &probe, precision);
        for batch in [1usize, 7, 64] {
            let what = format!("{} batch {batch}", precision.label());
            // cold engine: rows resume from prefixes earlier chunks (and
            // never the same chunk) computed
            let frozen = model.freeze_with(batch, precision);
            assert_eq!(
                shuffled_bits(&frozen, cache, &probe, 1),
                want,
                "{what} cold"
            );
            // warm: every row resumes at its full length
            assert_eq!(
                shuffled_bits(&frozen, cache, &probe, 2),
                want,
                "{what} warm"
            );
            assert!(frozen.prefix_cache_stats().entries > 0);
            // partially warm: a fresh engine that has seen every third
            // probe architecture
            let frozen = model.freeze_with(batch, precision);
            let seen: Vec<Architecture> = probe.iter().step_by(3).cloned().collect();
            score_bits(&frozen, cache, &seen);
            assert_eq!(
                shuffled_bits(&frozen, cache, &probe, 3),
                want,
                "{what} partial"
            );
            // a freshly frozen engine starts cold and agrees again
            let fresh = model.freeze_with(batch, precision);
            assert_eq!(fresh.prefix_cache_stats().entries, 0);
            assert_eq!(
                shuffled_bits(&fresh, cache, &probe, 4),
                want,
                "{what} fresh"
            );
        }
    }
}

#[test]
fn prefix_resumed_scores_are_bit_identical_past_a_generation_flip() {
    use rand_chacha::rand_core::SeedableRng;
    let model = mixed_fixture();
    let cache = model.encoding_cache();
    let probe = prefix_probe(22);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
    // fresh FBNet architectures: each inserts up to 22 new prefix states
    let filler: Vec<Architecture> = (0..20_000)
        .map(|_| Architecture::random(SearchSpaceId::FBNet, &mut rng))
        .collect();
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let want = isolated_bits(model, &probe, precision);
        for batch in [1usize, 7, 64] {
            let what = format!("{} batch {batch}", precision.label());
            let frozen = model.freeze_with(batch, precision);
            assert_eq!(score_bits(&frozen, cache, &probe), want, "{what} cold");
            // insert until the generation holding the probe's states
            // retires to the previous slot, then score against both
            // generations
            let mut fed = 0;
            for step in filler.chunks(256) {
                score_bits(&frozen, cache, step);
                fed += step.len();
                if frozen.prefix_cache_stats().flips > 0 {
                    break;
                }
            }
            let stats = frozen.prefix_cache_stats();
            assert_eq!(stats.flips, 1, "{what}: {fed} fillers did not flip once");
            assert_eq!(
                shuffled_bits(&frozen, cache, &probe, 5),
                want,
                "{what} past one flip"
            );
            // a second flip evicts them: scores still agree
            for step in filler[fed..].chunks(256) {
                score_bits(&frozen, cache, step);
                if frozen.prefix_cache_stats().flips > 1 {
                    break;
                }
            }
            assert_eq!(frozen.prefix_cache_stats().flips, 2, "{what}");
            assert_eq!(
                shuffled_bits(&frozen, cache, &probe, 6),
                want,
                "{what} past two flips"
            );
        }
    }
}
