//! Set-up: synthetic benchmark generation, surrogate training and
//! freezing. One [`Trained`] is what a user holds right before their
//! first search or their first served request.

use crate::Fail;
use hw_pr_nas::core::{HwPrNas, ModelConfig, Precision, SurrogateDataset, TrainConfig};
use hw_pr_nas::hwmodel::{Platform, SimBench, SimBenchConfig};
use hw_pr_nas::nasbench::{Dataset, SearchSpaceId};
use std::sync::Arc;
use std::time::Instant;

/// The platform every workload targets.
pub const PLATFORM: Platform = Platform::EdgeGpu;
/// The image dataset every workload targets.
pub const DATASET: Dataset = Dataset::Cifar10;
/// Frozen-engine chunk size (the library default).
pub const INFER_BATCH: usize = 64;
/// Frozen-engine panel precision (the library default).
pub const PRECISION: Precision = Precision::F32;

/// How big a set-up is.
#[derive(Debug, Clone, Copy)]
pub struct SetupSize {
    /// SimBench rows the surrogate trains on.
    pub rows: usize,
    /// `false` trains with `TrainConfig::tiny` (smoke scale only).
    pub full_training: bool,
}

/// A freshly trained, frozen surrogate plus the benchmark table it was
/// trained on (whose oracle scores true objectives).
pub struct Trained {
    pub bench: SimBench,
    pub model: Arc<HwPrNas>,
    /// Encoding-cache entries right after training: the state every
    /// timed search must start from.
    pub cache_len_after_setup: usize,
    pub simbench_s: f64,
    pub fit_s: f64,
    pub freeze_s: f64,
}

impl Trained {
    /// Wall time of the whole set-up.
    pub fn setup_s(&self) -> f64 {
        self.simbench_s + self.fit_s + self.freeze_s
    }
}

/// Generates the table, fits the surrogate and freezes it; every step is
/// timed and wrapped in a benchmark-side span.
pub fn train(space: SearchSpaceId, seed: u64, size: SetupSize) -> Result<Trained, Fail> {
    let started = Instant::now();
    let bench = {
        let _span = hw_pr_nas::obs::span("bench.simbench");
        SimBench::generate(SimBenchConfig {
            space,
            sample_size: Some(size.rows),
            seed,
        })
    };
    let simbench_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let model = {
        let _span = hw_pr_nas::obs::span("bench.fit");
        let data = SurrogateDataset::from_simbench(&bench, DATASET, PLATFORM)
            .map_err(|e| Fail::new(format!("dataset: {e}")))?;
        let train_config = if size.full_training {
            TrainConfig::fast()
        } else {
            TrainConfig::tiny()
        };
        let (model, _report) = HwPrNas::fit(
            &data,
            &ModelConfig::fast().with_seed(seed),
            &train_config.with_seed(seed),
        )
        .map_err(|e| Fail::new(format!("fit: {e}")))?;
        model
    };
    let fit_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    {
        let _span = hw_pr_nas::obs::span("bench.freeze");
        model.freeze_with(INFER_BATCH, PRECISION);
    }
    let freeze_s = started.elapsed().as_secs_f64();

    Ok(Trained {
        cache_len_after_setup: model.encoding_cache().len(),
        bench,
        model: Arc::new(model),
        simbench_s,
        fit_s,
        freeze_s,
    })
}
