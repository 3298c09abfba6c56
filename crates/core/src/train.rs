//! The Pareto ranking training loop (§III-A, Table II).

use crate::config::{ModelConfig, TrainConfig};
use crate::data::{ArchSample, EncodingCache, SurrogateDataset};
use crate::model::HwPrNas;
use crate::Result;
use hwpr_autograd::{Tape, Var};
use hwpr_hwmodel::{BenchEntry, Platform};
use hwpr_moo::MooWorkspace;
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_nn::batch::shuffled_batches;
use hwpr_nn::layers::LayerRng;
use hwpr_nn::optim::{AdamW, CosineAnnealing, EarlyStopping, Optimizer};
use hwpr_nn::Binder;
use hwpr_tensor::Matrix;
use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;

/// Summary of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Number of epochs actually run (≤ configured epochs).
    pub epochs_run: usize,
    /// Kendall τ between predicted scores and (negated) true Pareto rank
    /// on the validation split.
    pub val_rank_tau: f64,
    /// Final training loss (rank + RMSE terms).
    pub final_loss: f64,
}

/// Adds the within-front score-variance penalty: for every rank group of
/// two or more members, the variance of their scores (flat scores within
/// a front make top-k selection cover the whole front).
fn tie_variance_loss(
    tape_ref: &mut Tape,
    score: hwpr_autograd::Var,
    ranks: &[usize],
    group: &mut Vec<usize>,
) -> Result<Option<hwpr_autograd::Var>> {
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    let mut terms: Option<hwpr_autograd::Var> = None;
    for rank in 0..=max_rank {
        group.clear();
        group.extend((0..ranks.len()).filter(|&i| ranks[i] == rank));
        if group.len() < 2 {
            continue;
        }
        let s = tape_ref
            .gather_rows(score, group)
            .map_err(hwpr_nn::NnError::from)?;
        let sq = tape_ref.mul(s, s).map_err(hwpr_nn::NnError::from)?;
        let mean_sq = tape_ref.mean_all(sq);
        let mean = tape_ref.mean_all(s);
        let mean2 = tape_ref.mul(mean, mean).map_err(hwpr_nn::NnError::from)?;
        let var = tape_ref
            .sub(mean_sq, mean2)
            .map_err(hwpr_nn::NnError::from)?;
        terms = Some(match terms {
            None => var,
            Some(acc) => tape_ref.add(acc, var).map_err(hwpr_nn::NnError::from)?,
        });
    }
    Ok(terms)
}

/// Sorts batch-local indices best-rank-first into `order`, shuffling ties
/// so the listwise loss sees a valid (and unbiased) permutation. Reuses
/// the caller's buffer so steady-state batches allocate nothing.
fn rank_order_into(ranks: &[usize], rng: &mut LayerRng, order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..ranks.len());
    order.shuffle(rng);
    // ties arrive pre-shuffled, so the (in-place) unstable sort still
    // yields a random within-rank order
    order.sort_unstable_by_key(|&i| ranks[i]);
}

/// Allocating convenience wrapper around [`rank_order_into`].
#[cfg(test)]
fn rank_order(ranks: &[usize], rng: &mut LayerRng) -> Vec<usize> {
    let mut order = Vec::new();
    rank_order_into(ranks, rng, &mut order);
    order
}

impl HwPrNas {
    /// Trains a single-platform model on `data` with the Pareto ranking
    /// loss plus per-branch RMSE (§III-A).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError`] on empty data or layer failures.
    pub fn fit(
        data: &SurrogateDataset,
        model_config: &ModelConfig,
        train_config: &TrainConfig,
    ) -> Result<(Self, TrainReport)> {
        let space = data.samples()[0].arch.space();
        let mixed = data.samples().iter().any(|s| s.arch.space() != space);
        let cache = if mixed {
            EncodingCache::for_mixed(data.dataset())
        } else {
            EncodingCache::for_space(space, data.dataset())
        };
        let (train, val) = data.split(0.2, train_config.seed)?;
        let train_archs: Vec<Architecture> =
            train.samples().iter().map(|s| s.arch.clone()).collect();
        let mut model = Self::build(
            model_config,
            cache,
            &train_archs,
            vec![data.platform()],
            vec![data.max_latency().max(1e-9)],
            data.dataset(),
        )?;
        let report = train_loop(&mut model, &train, &val, train_config)?;
        Ok((model, report))
    }

    /// Trains a multi-platform model: one shared LSTM encoder with a bank
    /// of per-platform latency heads (§III-E). Latency targets come from
    /// the benchmark rows for every requested platform.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError`] on empty data or layer failures.
    pub fn fit_multi(
        entries: &[BenchEntry],
        dataset: Dataset,
        platforms: &[Platform],
        model_config: &ModelConfig,
        train_config: &TrainConfig,
    ) -> Result<(Self, TrainReport)> {
        if entries.is_empty() || platforms.is_empty() {
            return Err(crate::CoreError::Data(
                "multi-platform training needs entries and platforms".into(),
            ));
        }
        // train round-robin: each platform gets its own dataset view and
        // the shared encoders see every batch
        let space = entries[0].arch().space();
        let mixed = entries.iter().any(|e| e.arch().space() != space);
        let cache = if mixed {
            EncodingCache::for_mixed(dataset)
        } else {
            EncodingCache::for_space(space, dataset)
        };
        let per_platform: Vec<SurrogateDataset> = platforms
            .iter()
            .map(|&p| SurrogateDataset::from_entries(entries, dataset, p))
            .collect::<Result<_>>()?;
        let train_archs: Vec<Architecture> = entries.iter().map(|e| e.arch().clone()).collect();
        let max_latency: Vec<f64> = per_platform
            .iter()
            .map(|d| d.max_latency().max(1e-9))
            .collect();
        let mut model = Self::build(
            model_config,
            cache,
            &train_archs,
            platforms.to_vec(),
            max_latency,
            dataset,
        )?;
        // rotate the trained platform each epoch; validation tracks the
        // first platform for early stopping
        let mut report = TrainReport {
            epochs_run: 0,
            val_rank_tau: 0.0,
            final_loss: f64::INFINITY,
        };
        for (round, ds) in per_platform
            .iter()
            .cycle()
            .take(platforms.len())
            .enumerate()
        {
            let mut cfg = train_config.clone();
            cfg.epochs = (train_config.epochs / platforms.len()).max(1);
            cfg.seed = train_config.seed.wrapping_add(round as u64);
            let (train, val) = ds.split(0.2, cfg.seed)?;
            let r = train_loop(&mut model, &train, &val, &cfg)?;
            report.epochs_run += r.epochs_run;
            report.val_rank_tau = r.val_rank_tau;
            report.final_loss = r.final_loss;
        }
        Ok((model, report))
    }
}

/// Runs the epoch loop for whichever platform `train` targets.
fn train_loop(
    model: &mut HwPrNas,
    train: &SurrogateDataset,
    val: &SurrogateDataset,
    config: &TrainConfig,
) -> Result<TrainReport> {
    let slot = model.platform_slot(train.platform())?;
    let max_lat = model.max_latency[slot];
    let mut optimizer = AdamW::new(config.learning_rate).with_weight_decay(config.weight_decay);
    let schedule = CosineAnnealing::new(
        config.learning_rate,
        config.learning_rate * 0.01,
        config.epochs,
    );
    let mut stopper = EarlyStopping::new(config.early_stop_patience);
    let mut rng = LayerRng::seed_from_u64(config.seed);
    let samples = train.samples();
    // §III-A: Pareto ranks are computed over the whole training set
    // *before* batching; each batch is ordered by these global ranks
    let global_objectives: Vec<Vec<f64>> = samples.iter().map(|s| s.objectives()).collect();
    // one workspace serves the global ranking and every per-epoch
    // validation ranking without reallocating
    let mut moo = MooWorkspace::new();
    let global_ranks = moo.pareto_ranks(&global_objectives)?.to_vec();
    let mut final_loss = f64::INFINITY;
    let mut epochs_run = 0;
    let mut best_tau = -1.0f64;
    // training arena: one tape plus staging buffers, allocated once and
    // reused every batch — in steady state (fixed batch size) a step
    // performs no heap allocation
    let mut tape = Tape::new();
    let mut bound: Vec<Option<hwpr_autograd::Var>> = Vec::new();
    let mut grads: Vec<Option<Matrix>> = Vec::new();
    let mut batch_archs: Vec<Architecture> = Vec::with_capacity(config.batch_size);
    let mut batch_ranks: Vec<usize> = Vec::with_capacity(config.batch_size);
    let mut order: Vec<usize> = Vec::with_capacity(config.batch_size);
    let mut group: Vec<usize> = Vec::with_capacity(config.batch_size);
    let _train_span = hwpr_obs::span("train.loop");
    for epoch in 0..config.epochs {
        let epoch_started = hwpr_obs::enabled().then(std::time::Instant::now);
        let learning_rate = schedule.learning_rate_at(epoch);
        optimizer.set_learning_rate(learning_rate);
        let batches = shuffled_batches(
            samples.len(),
            config.batch_size,
            config.seed.wrapping_add(epoch as u64),
        );
        let mut epoch_loss = 0.0f64;
        for batch in &batches {
            if batch.len() < 2 {
                continue;
            }
            batch_archs.clear();
            batch_archs.extend(batch.iter().map(|&i| samples[i].arch.clone()));
            batch_ranks.clear();
            batch_ranks.extend(batch.iter().map(|&i| global_ranks[i]));
            rank_order_into(&batch_ranks, &mut rng, &mut order);
            tape.reset();
            let mut binder =
                Binder::rebind(&mut tape, &model.params, std::mem::take(&mut bound), true);
            let out = model.forward(&mut binder, &batch_archs, slot, &mut rng)?;
            let tape_ref = binder.tape();
            let rank_loss = tape_ref.list_mle(out.score, &order)?;
            // normalise the listwise loss by the batch size so batches of
            // different sizes weigh equally
            let mut rank_loss =
                tape_ref.scale(rank_loss, config.rank_loss_weight / batch.len() as f32);
            if config.tie_regularizer_weight > 0.0 {
                if let Some(var) = tie_variance_loss(tape_ref, out.score, &batch_ranks, &mut group)?
                {
                    let var = tape_ref.scale(var, config.tie_regularizer_weight);
                    rank_loss = tape_ref.add(rank_loss, var)?;
                }
            }
            // regression targets live in pooled tape storage, recycled below
            let mut acc_targets = tape_ref.alloc(batch.len(), 1);
            for (dst, &i) in acc_targets.as_mut_slice().iter_mut().zip(batch) {
                *dst = (samples[i].accuracy / 100.0) as f32;
            }
            let mut lat_targets = tape_ref.alloc(batch.len(), 1);
            for (dst, &i) in lat_targets.as_mut_slice().iter_mut().zip(batch) {
                *dst = (samples[i].latency_ms / max_lat) as f32;
            }
            let acc_mse = tape_ref.mse_loss(out.accuracy, &acc_targets)?;
            let acc_rmse = tape_ref.sqrt(acc_mse, 1e-9);
            let lat_mse = tape_ref.mse_loss(out.latency, &lat_targets)?;
            let lat_rmse = tape_ref.sqrt(lat_mse, 1e-9);
            tape_ref.recycle(acc_targets);
            tape_ref.recycle(lat_targets);
            let rmse_sum = tape_ref.add(acc_rmse, lat_rmse)?;
            let rmse_term = tape_ref.scale(rmse_sum, config.rmse_loss_weight);
            let loss = tape_ref.add(rank_loss, rmse_term)?;
            epoch_loss += tape_ref.value(loss)[(0, 0)] as f64;
            bound = binder.finish_into(loss, &mut grads)?;
            optimizer.step(&mut model.params, &grads);
        }
        epochs_run = epoch + 1;
        final_loss = epoch_loss / batches.len().max(1) as f64;
        // validation: how well do predicted scores rank the true fronts?
        let rank = validation_rank(model, val, slot, &mut moo)?;
        best_tau = best_tau.max(rank.kendall_tau);
        if let Some(start) = epoch_started {
            let epoch_ms = start.elapsed().as_secs_f64() * 1e3;
            hwpr_obs::record_with("train.epoch", || {
                vec![
                    hwpr_obs::field("epoch", epoch as u64),
                    hwpr_obs::field("loss", final_loss),
                    hwpr_obs::field("lr", learning_rate as f64),
                    hwpr_obs::field("kendall_tau", rank.kendall_tau),
                    hwpr_obs::field("spearman", rank.spearman),
                    hwpr_obs::field("epoch_ms", epoch_ms),
                ]
            });
        }
        if stopper.update(1.0 - rank.kendall_tau as f32) {
            break;
        }
    }
    if config.fusion_finetune_epochs > 0 {
        fusion_finetune(
            model,
            samples,
            &global_ranks,
            slot,
            config,
            &mut rng,
            &mut tape,
        )?;
        best_tau = best_tau.max(validation_rank(model, val, slot, &mut moo)?.kendall_tau);
    }
    Ok(TrainReport {
        epochs_run,
        val_rank_tau: best_tau,
        final_loss,
    })
}

/// Runs both branch encoders once over every training sample, returning
/// their outputs as `[n, acc_dim]` and `[n, lat_dim]` row matrices.
///
/// Uses the taped forward (not the frozen engine, which matches it only
/// to a 1e-5 budget) in chunks of `chunk` rows, so the tape pool never
/// holds a larger shape than a training step does. Every encoder row is
/// computed independently of the other rows in its chunk, so each row has
/// the bits a training batch would have given it.
fn encode_branches(
    model: &HwPrNas,
    samples: &[ArchSample],
    chunk: usize,
    rng: &mut LayerRng,
    tape: &mut Tape,
) -> Result<(Matrix, Matrix)> {
    let mut acc = Matrix::zeros(samples.len(), model.accuracy_encoder.output_dim());
    let mut lat = Matrix::zeros(samples.len(), model.latency_encoder.output_dim());
    let mut archs: Vec<Architecture> = Vec::with_capacity(chunk);
    let mut bound: Vec<Option<Var>> = Vec::new();
    for (c, part) in samples.chunks(chunk).enumerate() {
        archs.clear();
        archs.extend(part.iter().map(|s| s.arch.clone()));
        tape.reset();
        let mut binder = Binder::rebind(tape, &model.params, bound, false);
        // the encoders draw nothing from `rng`
        let a = model
            .accuracy_encoder
            .forward(&mut binder, &model.cache, &archs, rng)?;
        let l = model
            .latency_encoder
            .forward(&mut binder, &model.cache, &archs, rng)?;
        bound = binder.into_bound();
        let start = c * chunk;
        acc.rows_mut(start, part.len())
            .copy_from_slice(tape.value(a).as_slice());
        lat.rows_mut(start, part.len())
            .copy_from_slice(tape.value(l).as_slice());
    }
    Ok((acc, lat))
}

/// Copies `rows` of `cache` into a pooled input leaf.
fn gather_leaf(binder: &mut Binder<'_, '_>, cache: &Matrix, rows: &[usize]) -> Var {
    let mut m = binder.tape().alloc(rows.len(), cache.cols());
    for (dst, &r) in m.as_mut_slice().chunks_exact_mut(cache.cols()).zip(rows) {
        dst.copy_from_slice(cache.row(r));
    }
    binder.input(m)
}

/// §IV-A: retrains the fusion layer alone (frozen branches) with only the
/// ranking loss for an optimal final Pareto ordering.
///
/// Only fusion parameters step, so neither encoder can change during the
/// phase: both run once over the training set ([`encode_branches`]) and
/// every step gathers its batch's rows from that cache, running only the
/// heads (dropout on, the same `rng` draws) and the fusion MLP. The
/// weights are bit-identical to re-encoding every batch, which the
/// `fusion_finetune_reference` test oracle still does.
fn fusion_finetune(
    model: &mut HwPrNas,
    samples: &[ArchSample],
    global_ranks: &[usize],
    slot: usize,
    config: &TrainConfig,
    rng: &mut LayerRng,
    tape: &mut Tape,
) -> Result<()> {
    let _fusion_span = hwpr_obs::span("train.fusion");
    let (acc_rows, lat_rows) = {
        let _encode_span = hwpr_obs::span("train.fusion.encode");
        encode_branches(model, samples, config.batch_size, rng, tape)?
    };
    let mut fusion_opt = AdamW::new(config.learning_rate).with_weight_decay(config.weight_decay);
    let mut bound: Vec<Option<Var>> = Vec::new();
    let mut grads: Vec<Option<Matrix>> = Vec::new();
    let mut batch_ranks: Vec<usize> = Vec::with_capacity(config.batch_size);
    let mut order: Vec<usize> = Vec::with_capacity(config.batch_size);
    let mut group: Vec<usize> = Vec::with_capacity(config.batch_size);
    for epoch in 0..config.fusion_finetune_epochs {
        let batches = shuffled_batches(
            samples.len(),
            config.batch_size,
            config.seed.wrapping_add(10_000 + epoch as u64),
        );
        for batch in &batches {
            if batch.len() < 2 {
                continue;
            }
            batch_ranks.clear();
            batch_ranks.extend(batch.iter().map(|&i| global_ranks[i]));
            rank_order_into(&batch_ranks, rng, &mut order);
            tape.reset();
            let mut binder = Binder::rebind(tape, &model.params, bound, true);
            let acc_repr = gather_leaf(&mut binder, &acc_rows, batch);
            let lat_repr = gather_leaf(&mut binder, &lat_rows, batch);
            let out = model.forward_heads(&mut binder, acc_repr, lat_repr, slot, rng)?;
            let tape_ref = binder.tape();
            let mut loss = tape_ref.list_mle(out.score, &order)?;
            loss = tape_ref.scale(loss, 1.0 / batch.len() as f32);
            if config.tie_regularizer_weight > 0.0 {
                if let Some(var) = tie_variance_loss(tape_ref, out.score, &batch_ranks, &mut group)?
                {
                    let var = tape_ref.scale(var, config.tie_regularizer_weight);
                    loss = tape_ref.add(loss, var)?;
                }
            }
            bound = binder.finish_into(loss, &mut grads)?;
            for g in grads.iter_mut().take(model.fusion_param_start) {
                *g = None;
            }
            fusion_opt.step(&mut model.params, &grads);
        }
    }
    Ok(())
}

/// Rank agreement between predicted scores and the true Pareto ordering
/// on a validation split.
struct ValidationRank {
    /// Kendall τ against negated true Pareto ranks (the early-stop signal).
    kendall_tau: f64,
    /// Spearman ρ against the same targets (reported in telemetry).
    spearman: f64,
}

/// Scores the validation split once and computes both rank correlations.
fn validation_rank(
    model: &HwPrNas,
    val: &SurrogateDataset,
    slot: usize,
    moo: &mut MooWorkspace,
) -> Result<ValidationRank> {
    let archs: Vec<Architecture> = val.samples().iter().map(|s| s.arch.clone()).collect();
    let objectives: Vec<Vec<f64>> = val.samples().iter().map(|s| s.objectives()).collect();
    let ranks = moo.pareto_ranks(&objectives)?;
    let platform = model.platforms[slot];
    // the tape reference path: parameters are still changing every epoch,
    // so compiling (and immediately invalidating) a frozen engine per
    // validation pass would waste the pack work
    let scores = model.predict_scores_tape(&archs, platform)?;
    let pred: Vec<f32> = scores.iter().map(|&s| s as f32).collect();
    let truth: Vec<f32> = ranks.iter().map(|&r| -(r as f32)).collect();
    Ok(ValidationRank {
        kendall_tau: hwpr_metrics::kendall_tau(&pred, &truth).unwrap_or(0.0),
        spearman: hwpr_metrics::spearman(&pred, &truth).unwrap_or(0.0),
    })
}

/// Fraction of NAS-Bench-201 architectures in a list (used in Table IV).
pub fn nb201_fraction(archs: &[Architecture]) -> f64 {
    if archs.is_empty() {
        return 0.0;
    }
    archs
        .iter()
        .filter(|a| a.space() == SearchSpaceId::NasBench201)
        .count() as f64
        / archs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SurrogateDataset;
    use hwpr_hwmodel::{SimBench, SimBenchConfig};
    use rand::Rng;

    fn bench(n: usize) -> SimBench {
        SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::NasBench201,
            sample_size: Some(n),
            seed: 5,
        })
    }

    #[test]
    fn rank_order_groups_by_rank() {
        let mut rng = LayerRng::seed_from_u64(0);
        let ranks = vec![2, 0, 1, 0, 2];
        let order = rank_order(&ranks, &mut rng);
        let sorted: Vec<usize> = order.iter().map(|&i| ranks[i]).collect();
        assert_eq!(sorted, vec![0, 0, 1, 2, 2]);
    }

    /// Test oracle, not a second path: the fusion fine-tune step as it ran
    /// before the encoder outputs were cached — every step runs the full
    /// forward over the batch's architectures and back-propagates through
    /// both encoders, then drops the gradients below the fusion head.
    fn fusion_finetune_reference(
        model: &mut HwPrNas,
        samples: &[ArchSample],
        global_ranks: &[usize],
        slot: usize,
        config: &TrainConfig,
        rng: &mut LayerRng,
    ) -> Result<()> {
        let mut tape = Tape::new();
        let mut bound: Vec<Option<Var>> = Vec::new();
        let mut grads: Vec<Option<Matrix>> = Vec::new();
        let (mut batch_ranks, mut order, mut group) = (Vec::new(), Vec::new(), Vec::new());
        let mut fusion_opt =
            AdamW::new(config.learning_rate).with_weight_decay(config.weight_decay);
        for epoch in 0..config.fusion_finetune_epochs {
            let batches = shuffled_batches(
                samples.len(),
                config.batch_size,
                config.seed.wrapping_add(10_000 + epoch as u64),
            );
            for batch in &batches {
                if batch.len() < 2 {
                    continue;
                }
                let batch_archs: Vec<Architecture> =
                    batch.iter().map(|&i| samples[i].arch.clone()).collect();
                batch_ranks.clear();
                batch_ranks.extend(batch.iter().map(|&i| global_ranks[i]));
                rank_order_into(&batch_ranks, rng, &mut order);
                tape.reset();
                let mut binder =
                    Binder::rebind(&mut tape, &model.params, std::mem::take(&mut bound), true);
                let out = model.forward(&mut binder, &batch_archs, slot, rng)?;
                let tape_ref = binder.tape();
                let mut loss = tape_ref.list_mle(out.score, &order)?;
                loss = tape_ref.scale(loss, 1.0 / batch.len() as f32);
                if config.tie_regularizer_weight > 0.0 {
                    if let Some(var) =
                        tie_variance_loss(tape_ref, out.score, &batch_ranks, &mut group)?
                    {
                        let var = tape_ref.scale(var, config.tie_regularizer_weight);
                        loss = tape_ref.add(loss, var)?;
                    }
                }
                bound = binder.finish_into(loss, &mut grads)?;
                for g in grads.iter_mut().take(model.fusion_param_start) {
                    *g = None;
                }
                fusion_opt.step(&mut model.params, &grads);
            }
        }
        Ok(())
    }

    fn param_bits(model: &HwPrNas) -> Vec<Vec<u32>> {
        model
            .params
            .iter()
            .map(|(_, _, m)| m.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// Fits without the fusion phase, then runs the cached-encoder phase
    /// and the full-forward oracle on two copies of the model with cloned
    /// `rng`s: every parameter, the validation τ and the `rng` state that
    /// follows must have the same bits.
    fn assert_fusion_matches_oracle(data: &SurrogateDataset, model_config: &ModelConfig) {
        let mut config = TrainConfig::tiny();
        config.weight_decay = 3e-4;
        config.fusion_finetune_epochs = 0;
        let (fitted, _) = HwPrNas::fit(data, model_config, &config).unwrap();
        let json = fitted.to_json().unwrap();
        config.fusion_finetune_epochs = 3;
        let (train, val) = data.split(0.2, config.seed).unwrap();
        let samples = train.samples();
        let objectives: Vec<Vec<f64>> = samples.iter().map(|s| s.objectives()).collect();
        let ranks = MooWorkspace::new()
            .pareto_ranks(&objectives)
            .unwrap()
            .to_vec();
        let rng = LayerRng::seed_from_u64(41);

        let mut cached = HwPrNas::from_json(&json).unwrap();
        let before = param_bits(&cached);
        let mut cached_rng = rng.clone();
        fusion_finetune(
            &mut cached,
            samples,
            &ranks,
            0,
            &config,
            &mut cached_rng,
            &mut Tape::new(),
        )
        .unwrap();
        let mut oracle = HwPrNas::from_json(&json).unwrap();
        let mut oracle_rng = rng;
        fusion_finetune_reference(&mut oracle, samples, &ranks, 0, &config, &mut oracle_rng)
            .unwrap();

        let after = param_bits(&cached);
        assert_eq!(after, param_bits(&oracle), "fusion weights diverged");
        let start = cached.fusion_param_start;
        assert_eq!(after[..start], before[..start], "a frozen parameter moved");
        assert_ne!(
            after[start..],
            before[start..],
            "the fusion head never trained"
        );
        let tau = |m: &HwPrNas| {
            let t = validation_rank(m, &val, 0, &mut MooWorkspace::new()).unwrap();
            t.kendall_tau.to_bits()
        };
        assert_eq!(tau(&cached), tau(&oracle), "validation tau diverged");
        assert_eq!(
            cached_rng.gen::<u64>(),
            oracle_rng.gen::<u64>(),
            "rng draws diverged"
        );
    }

    /// `ModelConfig::tiny` with head dropout on, so the oracle also pins
    /// the order of the heads' `rng` draws.
    fn dropout_config() -> ModelConfig {
        ModelConfig {
            dropout: 0.1,
            lstm_layers: 2,
            ..ModelConfig::tiny()
        }
    }

    #[test]
    fn cached_fusion_matches_full_forward_oracle_on_nb201() {
        let data = SurrogateDataset::from_simbench(&bench(48), Dataset::Cifar10, Platform::EdgeGpu)
            .unwrap();
        assert_fusion_matches_oracle(&data, &dropout_config());
    }

    #[test]
    fn cached_fusion_matches_full_forward_oracle_on_fbnet() {
        let fbnet = SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::FBNet,
            sample_size: Some(72),
            seed: 6,
        });
        let data =
            SurrogateDataset::from_simbench(&fbnet, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
        assert_fusion_matches_oracle(&data, &dropout_config());
    }

    #[test]
    fn cached_fusion_matches_full_forward_oracle_on_mixed_spaces() {
        let mut entries = bench(30).entries().to_vec();
        let fbnet = SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::FBNet,
            sample_size: Some(30),
            seed: 7,
        });
        entries.extend_from_slice(fbnet.entries());
        let data =
            SurrogateDataset::from_entries(&entries, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
        assert_fusion_matches_oracle(&data, &dropout_config());
    }

    #[test]
    fn training_learns_to_rank() {
        // enough data and epochs that the surrogate clearly beats chance
        let b = bench(160);
        let data =
            SurrogateDataset::from_simbench(&b, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
        let mut cfg = TrainConfig::tiny();
        cfg.epochs = 16;
        let (_, report) = HwPrNas::fit(&data, &ModelConfig::tiny(), &cfg).unwrap();
        assert!(
            report.val_rank_tau > 0.2,
            "surrogate failed to learn: tau {}",
            report.val_rank_tau
        );
    }

    #[test]
    fn multi_platform_training_runs() {
        let b = bench(48);
        let (model, report) = HwPrNas::fit_multi(
            b.entries(),
            Dataset::Cifar10,
            &[Platform::EdgeGpu, Platform::Pixel3],
            &ModelConfig::tiny(),
            &TrainConfig::tiny(),
        )
        .unwrap();
        assert_eq!(model.platforms().len(), 2);
        assert!(report.epochs_run >= 2);
        let archs = vec![b.entries()[0].arch().clone()];
        assert!(model.predict_scores(&archs, Platform::Pixel3).is_ok());
        assert!(model.predict_scores(&archs, Platform::EdgeGpu).is_ok());
        assert!(model.predict_scores(&archs, Platform::Eyeriss).is_err());
    }

    #[test]
    fn fit_multi_rejects_empty() {
        assert!(HwPrNas::fit_multi(
            &[],
            Dataset::Cifar10,
            &[Platform::EdgeGpu],
            &ModelConfig::tiny(),
            &TrainConfig::tiny()
        )
        .is_err());
    }

    #[test]
    fn nb201_fraction_counts() {
        use hwpr_nasbench::FbnetOp;
        let a = Architecture::nb201_from_index(0).unwrap();
        let f = Architecture::fbnet([FbnetOp::Skip; 22]);
        assert_eq!(nb201_fraction(&[a.clone(), f.clone()]), 0.5);
        assert_eq!(nb201_fraction(&[a]), 1.0);
        assert_eq!(nb201_fraction(&[]), 0.0);
    }
}
