//! The search phase: one timed island search per freshly trained model,
//! scored afterwards on the benchmark's true objectives.

use crate::setup::{Trained, DATASET, PLATFORM};
use crate::Fail;
use hw_pr_nas::nasbench::{Architecture, SearchSpaceId};
use hw_pr_nas::search::{
    CacheEntry, Evaluator, Fitness, HwPrNasEvaluator, IslandConfig, IslandSearch,
    MeasuredEvaluator, ScoreCache, SearchClock,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Islands per search; lanes never exceed this.
pub const ISLANDS: usize = 4;
/// Per-island population.
pub const POPULATION: usize = 64;
/// Generations between migrations.
pub const MIGRATION_EVERY: usize = 10;
/// Elites sent per migration.
pub const MIGRANTS: usize = 2;
/// Surrogate worker threads per evaluator (lanes × this ≤ nproc).
pub const EVALUATOR_THREADS: usize = 1;

/// Fixed hypervolume reference point (error %, Edge GPU latency ms) per
/// space: worse than every architecture of the space, so the value of a
/// front never depends on the front itself.
pub fn hv_reference(space: SearchSpaceId) -> [f64; 2] {
    match space {
        SearchSpaceId::NasBench201 => [100.0, 10.0],
        SearchSpaceId::FBNet => [100.0, 40.0],
    }
}

/// Wraps the library evaluator: times every `evaluate` call (the
/// `search.evaluate_us` busy time) and opens a benchmark-side span
/// around it. Everything else is forwarded untouched.
struct TimedEvaluator {
    inner: HwPrNasEvaluator,
    busy_ns: Arc<AtomicU64>,
}

impl Evaluator for TimedEvaluator {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn evaluate(
        &mut self,
        archs: &[Architecture],
        clock: &mut SearchClock,
    ) -> hw_pr_nas::search::Result<Fitness> {
        let _span = hw_pr_nas::obs::span("bench.search.evaluate");
        let started = Instant::now();
        let fitness = self.inner.evaluate(archs, clock);
        self.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        fitness
    }

    fn calls_per_arch(&self) -> usize {
        self.inner.calls_per_arch()
    }

    fn calls_made(&self) -> Option<u64> {
        self.inner.calls_made()
    }

    fn cache_stats(&self) -> Option<(u64, u64)> {
        self.inner.cache_stats()
    }

    fn evaluate_scores_into(
        &mut self,
        archs: &[Architecture],
        clock: &mut SearchClock,
        out: &mut Vec<f64>,
    ) -> hw_pr_nas::search::Result<bool> {
        self.inner.evaluate_scores_into(archs, clock, out)
    }

    fn cache_snapshot(&self) -> Vec<CacheEntry> {
        self.inner.cache_snapshot()
    }

    fn restore_cache(&mut self, entries: &[CacheEntry]) {
        self.inner.restore_cache(entries);
    }
}

/// What one timed search produced.
pub struct SearchOutcome {
    pub wall_s: f64,
    pub evaluations: u64,
    pub evaluate_s: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub true_hv: f64,
    /// Final archive as (architecture string, objective bit patterns),
    /// plus the true hypervolume's bits: the determinism fingerprint.
    pub fingerprint: (Vec<(String, Vec<u64>)>, u64),
}

impl SearchOutcome {
    pub fn evals_per_s(&self) -> f64 {
        self.evaluations as f64 / self.wall_s
    }
}

/// The island configuration every search of a run uses.
pub fn config(space: SearchSpaceId, generations: usize, lanes: usize, seed: u64) -> IslandConfig {
    IslandConfig {
        islands: ISLANDS,
        population: POPULATION,
        generations,
        migration_every: MIGRATION_EVERY,
        migrants: MIGRANTS,
        workers: lanes,
        ..IslandConfig::small(space)
    }
    .with_seed(seed)
}

/// Checks that `trained` is in the state a user's first search starts
/// from: no architecture beyond the training set in the model's encoding
/// cache, and (checked per evaluator in [`timed_search`]) an empty
/// score cache.
pub fn check_cold(trained: &Trained) -> Result<(), Fail> {
    let len = trained.model.encoding_cache().len();
    if len != trained.cache_len_after_setup {
        return Err(Fail::new(format!(
            "cold-state violation: the model's encoding cache holds {len} entries, \
             {} right after set-up (a search already ran on this model)",
            trained.cache_len_after_setup
        )));
    }
    Ok(())
}

/// Runs one island search on a cold model and scores its final
/// populations on true objectives. Only `IslandSearch::run` is timed.
pub fn timed_search(trained: &Trained, config: &IslandConfig) -> Result<SearchOutcome, Fail> {
    check_cold(trained)?;
    let busy_ns = Arc::new(AtomicU64::new(0));
    let caches: Mutex<Vec<Arc<ScoreCache>>> = Mutex::new(Vec::new());
    let search = IslandSearch::new(config.clone()).map_err(|e| Fail::new(e.to_string()))?;
    let started = Instant::now();
    let result = {
        let _span = hw_pr_nas::obs::span("bench.search.run");
        search.run(|_island| {
            let inner = HwPrNasEvaluator::new(Arc::clone(&trained.model), PLATFORM)
                .with_threads(EVALUATOR_THREADS);
            caches
                .lock()
                .expect("cache list lock poisoned")
                .push(Arc::clone(inner.cache()));
            Box::new(TimedEvaluator {
                inner,
                busy_ns: Arc::clone(&busy_ns),
            }) as Box<dyn Evaluator + Send>
        })
    };
    let wall_s = started.elapsed().as_secs_f64();
    let result = result.map_err(|e| Fail::new(format!("search: {e}")))?;

    let caches = caches.into_inner().expect("cache list lock poisoned");
    let (mut cache_hits, mut cache_misses) = (0, 0);
    for cache in &caches {
        cache_hits += cache.hits();
        cache_misses += cache.misses();
    }
    // every evaluator starts with an empty cache, so each of the initial
    // population's evaluations must have been a miss or an in-batch dup
    if caches.len() != config.islands || cache_hits + cache_misses != result.evaluations {
        return Err(Fail::new(format!(
            "cold-state violation: {} score caches saw {} lookups for {} evaluations",
            caches.len(),
            cache_hits + cache_misses,
            result.evaluations
        )));
    }

    let true_hv = true_hypervolume(trained, &result.populations, config.spaces[0])?;
    let archive = result
        .archive
        .iter()
        .map(|m| {
            (
                m.arch.to_arch_string(),
                m.objectives.iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect();
    Ok(SearchOutcome {
        wall_s,
        evaluations: result.evaluations,
        evaluate_s: busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        cache_hits,
        cache_misses,
        true_hv,
        fingerprint: (archive, true_hv.to_bits()),
    })
}

/// Hypervolume of the non-dominated set of all final populations, on the
/// benchmark oracle's true (error %, latency ms) objectives.
fn true_hypervolume(
    trained: &Trained,
    populations: &[Vec<Architecture>],
    space: SearchSpaceId,
) -> Result<f64, Fail> {
    let oracle = MeasuredEvaluator::for_bench(&trained.bench, DATASET, PLATFORM);
    let mut seen = HashSet::new();
    let mut points: Vec<Vec<f64>> = Vec::new();
    for arch in populations.iter().flatten() {
        if seen.insert(arch.index()) {
            points.push(oracle.true_objectives(arch));
        }
    }
    let reference = hv_reference(space);
    if let Some(p) = points
        .iter()
        .find(|p| p[0] >= reference[0] || p[1] >= reference[1])
    {
        return Err(Fail::new(format!(
            "true objectives {p:?} fall outside the fixed reference point {reference:?}"
        )));
    }
    let front = hw_pr_nas::moo::pareto_front(&points).map_err(|e| Fail::new(e.to_string()))?;
    let front: Vec<Vec<f64>> = front.into_iter().map(|i| points[i].clone()).collect();
    hw_pr_nas::moo::hypervolume(&front, &reference).map_err(|e| Fail::new(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{train, SetupSize};

    const TINY: SetupSize = SetupSize {
        rows: 48,
        full_training: false,
    };

    #[test]
    fn a_second_search_on_the_same_model_is_refused() {
        let trained = train(SearchSpaceId::NasBench201, 5, TINY).expect("set-up");
        let config = config(SearchSpaceId::NasBench201, 4, 1, 9);
        let first = timed_search(&trained, &config).expect("cold search");
        assert_eq!(
            first.cache_hits + first.cache_misses,
            first.evaluations,
            "every evaluation went through an empty score cache"
        );
        let err = timed_search(&trained, &config)
            .err()
            .expect("the warm model must be refused");
        assert!(err.to_string().contains("cold-state violation"), "{err}");
    }

    #[test]
    fn fresh_set_ups_reproduce_the_search_bit_for_bit() {
        let config = config(SearchSpaceId::NasBench201, 6, 2, 9);
        let a = timed_search(
            &train(SearchSpaceId::NasBench201, 5, TINY).expect("set-up"),
            &config,
        )
        .expect("search");
        let one_lane = config_with_lanes(&config, 1);
        let b = timed_search(
            &train(SearchSpaceId::NasBench201, 5, TINY).expect("set-up"),
            &one_lane,
        )
        .expect("search");
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    fn config_with_lanes(config: &IslandConfig, lanes: usize) -> IslandConfig {
        IslandConfig {
            workers: lanes,
            ..config.clone()
        }
    }
}
