//! The HW-PR-NAS surrogate model (§III-B, Fig. 3).

use crate::config::ModelConfig;
use crate::data::EncodingCache;
use crate::encoders::{EncoderChoice, EncoderSet};
use crate::frozen::FrozenModel;
use crate::Result;
use hwpr_autograd::{Tape, Var};
use hwpr_hwmodel::Platform;
use hwpr_nasbench::{Architecture, Dataset};
use hwpr_nn::layers::{LayerRng, Mlp, MlpConfig};
use hwpr_nn::{Binder, Params};
use hwpr_tensor::Precision;
use parking_lot::RwLock;
use rand_chacha::rand_core::SeedableRng;
use std::sync::Arc;

/// Default maximum batch size used during inference (bounds tape memory
/// and sizes the frozen engine's activation arenas).
pub(crate) const INFER_BATCH: usize = 256;

/// Inference chunk size: [`INFER_BATCH`] unless overridden through the
/// `HWPR_INFER_BATCH` environment variable.
pub(crate) fn infer_batch() -> usize {
    hwpr_obs::env_or_else(
        "HWPR_INFER_BATCH",
        "a positive integer",
        parse_batch,
        || INFER_BATCH,
        INFER_BATCH,
    )
}

fn parse_batch(spec: &str) -> Option<usize> {
    spec.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Parses an `HWPR_INFER_BATCH` override through the shared
/// warn-and-default policy, falling back to the default on anything that
/// is not a positive integer.
#[cfg(test)]
fn batch_from_spec(spec: &str) -> usize {
    hwpr_obs::spec_or(
        "HWPR_INFER_BATCH",
        "a positive integer",
        spec,
        parse_batch,
        INFER_BATCH,
    )
}

/// Frozen panel precision: f32 unless overridden through the
/// `HWPR_INFER_PRECISION` environment variable (`f32` | `f16` | `int8`).
pub(crate) fn infer_precision() -> Precision {
    hwpr_obs::env_or_else(
        "HWPR_INFER_PRECISION",
        "f32, f16 or int8",
        Precision::parse,
        || Precision::F32,
        Precision::F32,
    )
}

/// Parses an `HWPR_INFER_PRECISION` override through the shared
/// warn-and-default policy, falling back to f32 on anything that is not
/// a recognised precision name.
#[cfg(test)]
fn precision_from_spec(spec: &str) -> Precision {
    hwpr_obs::spec_or(
        "HWPR_INFER_PRECISION",
        "f32, f16 or int8",
        spec,
        Precision::parse,
        Precision::F32,
    )
}

/// Denormalises a predicted accuracy into the minimisation objective
/// `error %` (the model regresses accuracy in `[0, 1]`).
pub(crate) fn denorm_error(a: f32) -> f64 {
    (100.0 - a as f64 * 100.0).clamp(0.0, 100.0)
}

/// Denormalises a predicted accuracy into `accuracy %`.
pub(crate) fn denorm_accuracy(a: f32) -> f64 {
    (a as f64 * 100.0).clamp(0.0, 100.0)
}

/// Denormalises a predicted latency (regressed relative to the training
/// set's maximum) back into milliseconds.
pub(crate) fn denorm_latency(l: f32, max_latency: f64) -> f64 {
    (l as f64 * max_latency).max(0.0)
}

/// The trained HW-PR-NAS surrogate.
///
/// Built by [`HwPrNas::fit`] (single platform) or [`HwPrNas::fit_multi`]
/// (multi-platform latency head bank); scoring follows Fig. 3: a GCN+AF
/// accuracy branch and an LSTM+AF latency branch whose two predictions a
/// dense fusion layer turns into one Pareto score.
#[derive(Debug)]
pub struct HwPrNas {
    pub(crate) params: Params,
    pub(crate) accuracy_encoder: EncoderSet,
    pub(crate) latency_encoder: EncoderSet,
    pub(crate) accuracy_head: Mlp,
    pub(crate) latency_heads: Vec<Mlp>,
    pub(crate) platforms: Vec<Platform>,
    pub(crate) fusion: Mlp,
    /// Index of the first fusion parameter (everything below is frozen
    /// during the fusion fine-tune phase).
    pub(crate) fusion_param_start: usize,
    pub(crate) cache: EncodingCache,
    pub(crate) max_latency: Vec<f64>,
    pub(crate) dataset: Dataset,
    pub(crate) model_config: ModelConfig,
    /// Lazily compiled tape-free inference engine (see [`crate::frozen`]).
    pub(crate) frozen: RwLock<Option<Arc<FrozenModel>>>,
}

/// The raw branch outputs for one forward pass (still on the tape).
pub(crate) struct BranchOutputs {
    /// Normalised accuracy prediction, `[batch, 1]`.
    pub accuracy: Var,
    /// Normalised latency prediction, `[batch, 1]`.
    pub latency: Var,
    /// Fused Pareto score, `[batch, 1]`.
    pub score: Var,
}

impl HwPrNas {
    /// Builds an untrained model (used by the trainer).
    pub(crate) fn build(
        config: &ModelConfig,
        cache: EncodingCache,
        train_archs: &[Architecture],
        platforms: Vec<Platform>,
        max_latency: Vec<f64>,
        dataset: Dataset,
    ) -> Result<Self> {
        assert_eq!(platforms.len(), max_latency.len());
        let model_config = config.clone();
        let mut params = Params::new();
        let accuracy_encoder = EncoderSet::new(
            &mut params,
            "acc_enc",
            config,
            EncoderChoice::GCN_AF,
            &cache,
            train_archs,
        )?;
        let latency_encoder = EncoderSet::new(
            &mut params,
            "lat_enc",
            config,
            EncoderChoice::LSTM_AF,
            &cache,
            train_archs,
        )?;
        let accuracy_head = Mlp::new(
            &mut params,
            "acc_head",
            &MlpConfig {
                input_dim: accuracy_encoder.output_dim(),
                hidden: config.mlp_hidden.clone(),
                output_dim: 1,
                activation: Default::default(),
                dropout: config.dropout,
                seed: config.seed.wrapping_add(100),
            },
        )?;
        let latency_heads = platforms
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Mlp::new(
                    &mut params,
                    &format!("lat_head.{}", p.name()),
                    &MlpConfig {
                        input_dim: latency_encoder.output_dim(),
                        hidden: config.mlp_hidden.clone(),
                        output_dim: 1,
                        activation: Default::default(),
                        dropout: config.dropout,
                        seed: config.seed.wrapping_add(200 + i as u64),
                    },
                )
            })
            .collect::<hwpr_nn::Result<Vec<_>>>()?;
        let fusion_param_start = params.len();
        // the fusion head combines the two branch predictions into one
        // Pareto score. A purely linear layer would make the score a
        // weighted-sum scalarisation whose maximiser is a single corner of
        // the front; a small nonlinear head lets the ranking loss flatten
        // the score along the front (equal scores within a Pareto rank).
        let fusion = Mlp::new(
            &mut params,
            "fusion",
            &MlpConfig {
                input_dim: 2,
                hidden: vec![16, 16],
                output_dim: 1,
                activation: Default::default(),
                dropout: 0.0,
                seed: config.seed.wrapping_add(300),
            },
        )?;
        Ok(Self {
            params,
            accuracy_encoder,
            latency_encoder,
            accuracy_head,
            latency_heads,
            platforms,
            fusion,
            fusion_param_start,
            cache,
            max_latency,
            dataset,
            model_config,
            frozen: RwLock::new(None),
        })
    }

    /// The compiled tape-free inference engine, built on first use (and
    /// after every [`Self::invalidate_frozen`]). Weight packing happens
    /// exactly once per trained model; repeat calls share the compiled
    /// engine through an [`Arc`].
    pub fn frozen(&self) -> Arc<FrozenModel> {
        if let Some(f) = self.frozen.read().as_ref() {
            return Arc::clone(f);
        }
        let mut slot = self.frozen.write();
        if let Some(f) = slot.as_ref() {
            return Arc::clone(f);
        }
        let f = Arc::new(FrozenModel::compile(self, infer_batch(), infer_precision()));
        *slot = Some(Arc::clone(&f));
        f
    }

    /// Compiles (and installs) a frozen engine with an explicit chunk
    /// size, bypassing `HWPR_INFER_BATCH`. Exposed so tests can force
    /// uneven final chunks.
    pub fn freeze_with_batch(&self, batch: usize) -> Arc<FrozenModel> {
        self.freeze_with(batch, Precision::F32)
    }

    /// Compiles (and installs) a frozen engine with an explicit chunk size
    /// and panel precision, bypassing `HWPR_INFER_BATCH` and
    /// `HWPR_INFER_PRECISION`. The differential and throughput harnesses
    /// use this to pin reduced-precision engines next to the f32 one.
    pub fn freeze_with(&self, batch: usize, precision: Precision) -> Arc<FrozenModel> {
        let f = Arc::new(FrozenModel::compile(self, batch.max(1), precision));
        *self.frozen.write() = Some(Arc::clone(&f));
        f
    }

    /// Drops the compiled engine; the next predict call recompiles from
    /// the current parameter values. Must be called whenever `params`
    /// change after a freeze (training steps, weight restores).
    pub(crate) fn invalidate_frozen(&self) {
        *self.frozen.write() = None;
    }

    /// The platforms this model carries latency heads for.
    pub fn platforms(&self) -> &[Platform] {
        &self.platforms
    }

    /// The image dataset the model was trained for.
    pub fn dataset(&self) -> Dataset {
        self.dataset
    }

    /// The model's shared per-architecture encoding cache. Exposed so
    /// external drivers of the frozen engine (the serving layer) can pair
    /// [`Self::frozen`] with the cache it was compiled against.
    pub fn encoding_cache(&self) -> &EncodingCache {
        &self.cache
    }

    /// Total number of trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.params.scalar_count()
    }

    pub(crate) fn platform_slot(&self, platform: Platform) -> Result<usize> {
        self.platforms
            .iter()
            .position(|&p| p == platform)
            .ok_or_else(|| {
                crate::CoreError::Data(format!(
                    "model has no latency head for {platform}; available: {:?}",
                    self.platforms
                ))
            })
    }

    /// One forward pass over a batch (used by training and inference).
    pub(crate) fn forward(
        &self,
        binder: &mut Binder<'_, '_>,
        archs: &[Architecture],
        platform_slot: usize,
        rng: &mut LayerRng,
    ) -> Result<BranchOutputs> {
        // the encoders draw nothing from `rng`, so running both before the
        // heads keeps the dropout draws in the same order
        let acc_repr = self
            .accuracy_encoder
            .forward(binder, &self.cache, archs, rng)?;
        let lat_repr = self
            .latency_encoder
            .forward(binder, &self.cache, archs, rng)?;
        self.forward_heads(binder, acc_repr, lat_repr, platform_slot, rng)
    }

    /// The tail of [`Self::forward`]: both regression heads and the fusion
    /// MLP over already-encoded representations. The fusion fine-tune
    /// phase calls it directly on cached encoder outputs.
    pub(crate) fn forward_heads(
        &self,
        binder: &mut Binder<'_, '_>,
        acc_repr: Var,
        lat_repr: Var,
        platform_slot: usize,
        rng: &mut LayerRng,
    ) -> Result<BranchOutputs> {
        let accuracy = self.accuracy_head.forward(binder, acc_repr, rng)?;
        let latency = self.latency_heads[platform_slot].forward(binder, lat_repr, rng)?;
        let both = binder
            .tape()
            .concat_cols(&[accuracy, latency])
            .map_err(hwpr_nn::NnError::from)?;
        let score = self.fusion.forward(binder, both, rng)?;
        Ok(BranchOutputs {
            accuracy,
            latency,
            score,
        })
    }

    /// Pareto scores of `archs` on `platform` (higher = closer to the
    /// predicted Pareto front). This is the single call the MOEA makes.
    ///
    /// Runs on the frozen tape-free engine, pinned to
    /// [`Self::predict_scores_tape`] by the documented error budget
    /// (f32 max-abs ≤ 1e-5, τ = 1.0; see `hwpr_nn::infer`), with
    /// differential tests asserting the budget.
    ///
    /// # Errors
    ///
    /// Returns an error when the model has no head for `platform`.
    pub fn predict_scores(&self, archs: &[Architecture], platform: Platform) -> Result<Vec<f64>> {
        let slot = self.platform_slot(platform)?;
        self.frozen().predict_scores(&self.cache, archs, slot)
    }

    /// [`Self::predict_scores`] into a caller-held buffer: with a warmed
    /// frozen engine and encoding cache, this steady-state form performs
    /// zero heap allocations (pinned by the `alloc-count` harness in
    /// `hwpr-bench`).
    ///
    /// # Errors
    ///
    /// Returns an error when the model has no head for `platform`.
    pub fn predict_scores_into(
        &self,
        archs: &[Architecture],
        platform: Platform,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let slot = self.platform_slot(platform)?;
        self.frozen()
            .predict_scores_into(&self.cache, archs, slot, out)
    }

    /// Reference implementation of [`Self::predict_scores`] on the
    /// recording tape. Kept for differential testing and for callers whose
    /// parameters are still changing (e.g. per-epoch validation).
    ///
    /// # Errors
    ///
    /// Returns an error when the model has no head for `platform`.
    pub fn predict_scores_tape(
        &self,
        archs: &[Architecture],
        platform: Platform,
    ) -> Result<Vec<f64>> {
        let slot = self.platform_slot(platform)?;
        let mut rng = LayerRng::seed_from_u64(0);
        let mut out = Vec::with_capacity(archs.len());
        // one tape for all chunks: reset() recycles buffers between passes
        let mut tape = Tape::new();
        let mut bound: Vec<Option<Var>> = Vec::new();
        for chunk in archs.chunks(infer_batch()) {
            tape.reset();
            let mut binder = Binder::rebind(&mut tape, &self.params, bound, false);
            let outputs = self.forward(&mut binder, chunk, slot, &mut rng)?;
            bound = binder.into_bound();
            out.extend(
                tape.value(outputs.score)
                    .as_slice()
                    .iter()
                    .map(|&v| v as f64),
            );
        }
        Ok(out)
    }

    /// Scores and predicted minimisation objectives `[error %, latency
    /// ms]` from a *single* forward pass — everything Fig. 3 produces in
    /// one surrogate call. Runs on the frozen engine, pinned to
    /// [`Self::predict_full_tape`] by the documented error budget.
    ///
    /// # Errors
    ///
    /// Returns an error when the model has no head for `platform`.
    pub fn predict_full(
        &self,
        archs: &[Architecture],
        platform: Platform,
    ) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
        let slot = self.platform_slot(platform)?;
        self.frozen().predict_full(&self.cache, archs, slot)
    }

    /// Reference implementation of [`Self::predict_full`] on the
    /// recording tape.
    ///
    /// # Errors
    ///
    /// Returns an error when the model has no head for `platform`.
    pub fn predict_full_tape(
        &self,
        archs: &[Architecture],
        platform: Platform,
    ) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
        let slot = self.platform_slot(platform)?;
        let mut rng = LayerRng::seed_from_u64(0);
        let mut scores = Vec::with_capacity(archs.len());
        let mut objectives = Vec::with_capacity(archs.len());
        let mut tape = Tape::new();
        let mut bound: Vec<Option<Var>> = Vec::new();
        for chunk in archs.chunks(infer_batch()) {
            tape.reset();
            let mut binder = Binder::rebind(&mut tape, &self.params, bound, false);
            let outputs = self.forward(&mut binder, chunk, slot, &mut rng)?;
            bound = binder.into_bound();
            scores.extend(
                tape.value(outputs.score)
                    .as_slice()
                    .iter()
                    .map(|&v| v as f64),
            );
            let acc = tape.value(outputs.accuracy);
            let lat = tape.value(outputs.latency);
            for (&a, &l) in acc.as_slice().iter().zip(lat.as_slice()) {
                objectives.push(vec![
                    denorm_error(a),
                    denorm_latency(l, self.max_latency[slot]),
                ]);
            }
        }
        Ok((scores, objectives))
    }

    /// [`Self::predict_full`] with the batch split across scoped worker
    /// threads (the MOEA's per-generation hot path).
    ///
    /// The input is cut into `threads` contiguous chunks, each worker runs
    /// the frozen serial predictor on its chunk with its own activation
    /// arena (checked out from the engine's arena pool, so the parallel
    /// path never re-packs weights), and the results are spliced back in
    /// input order. Every row of a forward pass is independent and dropout
    /// is statically elided, so the result is bit-identical to the serial
    /// path for any thread count.
    ///
    /// # Errors
    ///
    /// Returns an error when the model has no head for `platform` or any
    /// worker's prediction fails.
    pub fn predict_full_parallel(
        &self,
        archs: &[Architecture],
        platform: Platform,
        threads: usize,
    ) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
        let slot = self.platform_slot(platform)?;
        self.frozen()
            .predict_full_parallel(&self.cache, archs, slot, threads)
    }

    /// Predicted `(accuracy %, latency ms)` pairs — the branch outputs
    /// denormalised. Exposed for the predictor-quality studies. Runs on
    /// the frozen engine, pinned to [`Self::predict_objectives_tape`]
    /// by the documented error budget.
    ///
    /// # Errors
    ///
    /// Returns an error when the model has no head for `platform`.
    pub fn predict_objectives(
        &self,
        archs: &[Architecture],
        platform: Platform,
    ) -> Result<Vec<(f64, f64)>> {
        let slot = self.platform_slot(platform)?;
        self.frozen().predict_objectives(&self.cache, archs, slot)
    }

    /// Reference implementation of [`Self::predict_objectives`] on the
    /// recording tape.
    ///
    /// # Errors
    ///
    /// Returns an error when the model has no head for `platform`.
    pub fn predict_objectives_tape(
        &self,
        archs: &[Architecture],
        platform: Platform,
    ) -> Result<Vec<(f64, f64)>> {
        let slot = self.platform_slot(platform)?;
        let mut rng = LayerRng::seed_from_u64(0);
        let mut out = Vec::with_capacity(archs.len());
        let mut tape = Tape::new();
        let mut bound: Vec<Option<Var>> = Vec::new();
        for chunk in archs.chunks(infer_batch()) {
            tape.reset();
            let mut binder = Binder::rebind(&mut tape, &self.params, bound, false);
            let outputs = self.forward(&mut binder, chunk, slot, &mut rng)?;
            bound = binder.into_bound();
            let acc = tape.value(outputs.accuracy);
            let lat = tape.value(outputs.latency);
            for (&a, &l) in acc.as_slice().iter().zip(lat.as_slice()) {
                out.push((
                    denorm_accuracy(a),
                    denorm_latency(l, self.max_latency[slot]),
                ));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::data::SurrogateDataset;
    use hwpr_hwmodel::{SimBench, SimBenchConfig};
    use hwpr_nasbench::SearchSpaceId;

    fn tiny_dataset() -> SurrogateDataset {
        let bench = SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::NasBench201,
            sample_size: Some(48),
            seed: 3,
        });
        SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap()
    }

    #[test]
    fn fit_and_predict_shapes() {
        let data = tiny_dataset();
        let (model, report) =
            HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        assert!(report.epochs_run >= 1);
        assert!(model.parameter_count() > 0);
        assert_eq!(model.platforms(), &[Platform::EdgeGpu]);
        assert_eq!(model.dataset(), Dataset::Cifar10);
        let archs: Vec<Architecture> = data.samples().iter().map(|s| s.arch.clone()).collect();
        let scores = model.predict_scores(&archs, Platform::EdgeGpu).unwrap();
        assert_eq!(scores.len(), archs.len());
        assert!(scores.iter().all(|s| s.is_finite()));
        let objs = model.predict_objectives(&archs, Platform::EdgeGpu).unwrap();
        assert_eq!(objs.len(), archs.len());
        for (a, l) in objs {
            assert!((0.0..=100.0).contains(&a));
            assert!(l >= 0.0);
        }
    }

    #[test]
    fn unknown_platform_is_an_error() {
        let data = tiny_dataset();
        let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        let archs = vec![data.samples()[0].arch.clone()];
        assert!(model.predict_scores(&archs, Platform::Eyeriss).is_err());
    }

    #[test]
    fn precision_spec_parses_and_falls_back() {
        assert_eq!(precision_from_spec("f32"), Precision::F32);
        assert_eq!(precision_from_spec(" F16 "), Precision::F16);
        assert_eq!(precision_from_spec("int8"), Precision::Int8);
        assert_eq!(precision_from_spec("i8"), Precision::Int8);
        assert_eq!(precision_from_spec("fp64"), Precision::F32);
        assert_eq!(precision_from_spec(""), Precision::F32);
    }

    #[test]
    fn batch_spec_parses_and_falls_back() {
        assert_eq!(batch_from_spec("7"), 7);
        assert_eq!(batch_from_spec(" 512 "), 512);
        assert_eq!(batch_from_spec("0"), INFER_BATCH);
        assert_eq!(batch_from_spec("-3"), INFER_BATCH);
        assert_eq!(batch_from_spec("lots"), INFER_BATCH);
        assert_eq!(batch_from_spec(""), INFER_BATCH);
    }

    #[test]
    fn denorm_helpers_clamp() {
        assert_eq!(denorm_error(0.95), 100.0 - 0.95f32 as f64 * 100.0);
        assert_eq!(denorm_error(2.0), 0.0); // accuracy above 100% clamps
        assert_eq!(denorm_error(-1.0), 100.0);
        assert_eq!(denorm_accuracy(0.5), 50.0);
        assert_eq!(denorm_accuracy(1.5), 100.0);
        assert_eq!(denorm_latency(0.5, 8.0), 4.0);
        assert_eq!(denorm_latency(-0.5, 8.0), 0.0);
    }

    #[test]
    fn freeze_compiles_once_and_invalidates() {
        let data = tiny_dataset();
        let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        let a = model.frozen();
        let b = model.frozen();
        assert!(Arc::ptr_eq(&a, &b), "repeat freezes must share the engine");
        model.invalidate_frozen();
        let c = model.frozen();
        assert!(!Arc::ptr_eq(&a, &c), "invalidation must force a recompile");
    }

    #[test]
    fn deterministic_inference() {
        let data = tiny_dataset();
        let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        let archs: Vec<Architecture> = data
            .samples()
            .iter()
            .take(5)
            .map(|s| s.arch.clone())
            .collect();
        let a = model.predict_scores(&archs, Platform::EdgeGpu).unwrap();
        let b = model.predict_scores(&archs, Platform::EdgeGpu).unwrap();
        assert_eq!(a, b);
    }
}
