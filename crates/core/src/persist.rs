//! Saving and loading trained HW-PR-NAS models.
//!
//! Training a surrogate costs GPU-hours in the paper's setting (Table II);
//! a downstream user searches many times with one trained model, so the
//! model must round-trip through disk. The format is a single JSON
//! document: the [`ModelConfig`], the target metadata, and every
//! parameter matrix in registration order (registration order is a pure
//! function of the config, so rebuilding the architecture and overwriting
//! the weights reproduces the exact model).

use crate::config::ModelConfig;
use crate::data::EncodingCache;
use crate::model::HwPrNas;
use crate::{CoreError, Result};
use hwpr_hwmodel::Platform;
use hwpr_nasbench::{Architecture, Dataset};
use hwpr_tensor::Matrix;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// On-disk representation of a trained model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedModel {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Network sizes (drives the rebuild).
    pub model_config: ModelConfig,
    /// Platforms with latency heads, in head order.
    pub platforms: Vec<Platform>,
    /// Latency normalisation per head.
    pub max_latency: Vec<f64>,
    /// Dataset the model was trained for.
    pub dataset: Dataset,
    /// Graph padding size of the encoding cache.
    pub cache_nodes: usize,
    /// Token padding length of the encoding cache.
    pub cache_seq_len: usize,
    /// The accuracy branch's fitted AF normaliser.
    pub accuracy_normalizer: Option<hwpr_nasbench::features::FeatureNormalizer>,
    /// The latency branch's fitted AF normaliser.
    pub latency_normalizer: Option<hwpr_nasbench::features::FeatureNormalizer>,
    /// Every parameter matrix, in registration order.
    pub parameters: Vec<Matrix>,
}

/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

/// A registered save observer (see [`observe_saves`]).
type SaveObserver = Arc<dyn Fn(&Path) + Send + Sync>;

static SAVE_OBSERVERS: OnceLock<Mutex<Vec<(u64, SaveObserver)>>> = OnceLock::new();
static NEXT_WATCH_ID: AtomicU64 = AtomicU64::new(1);

fn save_observers() -> &'static Mutex<Vec<(u64, SaveObserver)>> {
    SAVE_OBSERVERS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registration handle returned by [`observe_saves`]; dropping it
/// removes the observer.
#[must_use = "dropping the watch immediately unregisters the observer"]
pub struct SaveWatch {
    id: u64,
}

impl std::fmt::Debug for SaveWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SaveWatch").field("id", &self.id).finish()
    }
}

impl Drop for SaveWatch {
    fn drop(&mut self) {
        save_observers().lock().retain(|(id, _)| *id != self.id);
    }
}

/// Registers a process-wide observer called (on the saving thread, after
/// the file is fully written) every time [`HwPrNas::save`] succeeds.
///
/// This is the hot-swap hook the serving layer builds on: a model
/// registry watches the path a trainer persists to and republishes the
/// retrained weights the moment they hit disk. Observers receive the
/// path exactly as the saver passed it and must not panic.
pub fn observe_saves(observer: impl Fn(&Path) + Send + Sync + 'static) -> SaveWatch {
    let id = NEXT_WATCH_ID.fetch_add(1, Ordering::Relaxed);
    save_observers().lock().push((id, Arc::new(observer)));
    SaveWatch { id }
}

/// Snapshots and invokes the registered save observers for `path`.
fn notify_saved(path: &Path) {
    // snapshot under the lock, call outside it: an observer is allowed to
    // save another model (republish flows) without deadlocking
    let observers: Vec<SaveObserver> = save_observers()
        .lock()
        .iter()
        .map(|(_, o)| Arc::clone(o))
        .collect();
    for observer in observers {
        observer(path);
    }
}

/// Serialises `value` and writes it to `path` as a single JSON document —
/// the on-disk convention every persisted artifact in the workspace
/// follows (trained models here, search snapshots in `hwpr-search`).
///
/// The write is atomic: the document goes to `<path>.tmp` in the same
/// directory, is synced to disk and then renamed over `path`, so a crash
/// mid-write leaves the previous file intact instead of a torn one.
///
/// # Errors
///
/// Returns [`CoreError::Data`] on serialisation or I/O failure; `path`
/// is then unchanged.
pub fn write_json_file<T: Serialize>(value: &T, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let json =
        serde_json::to_string(value).map_err(|e| CoreError::Data(format!("serialise: {e}")))?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let write = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    write().map_err(|e| {
        // best effort: a leftover temp file is harmless, the next write
        // truncates it
        let _ = std::fs::remove_file(&tmp);
        CoreError::Data(format!("write {}: {e}", path.display()))
    })
}

/// Reads and parses a JSON document previously written by
/// [`write_json_file`]. Version checking stays with the caller: the
/// document's `version` field means different things per artifact type.
///
/// # Errors
///
/// Returns [`CoreError::Data`] on I/O or parse failure.
pub fn read_json_file<T: Deserialize>(path: impl AsRef<Path>) -> Result<T> {
    let json = std::fs::read_to_string(path.as_ref())
        .map_err(|e| CoreError::Data(format!("read {}: {e}", path.as_ref().display())))?;
    serde_json::from_str(&json).map_err(|e| CoreError::Data(format!("parse: {e}")))
}

impl HwPrNas {
    /// The model's on-disk form (always at the current
    /// [`FORMAT_VERSION`]).
    fn saved(&self) -> SavedModel {
        let parameters: Vec<Matrix> = self
            .params
            .ids()
            .into_iter()
            .map(|id| self.params.get(id).clone())
            .collect();
        SavedModel {
            version: FORMAT_VERSION,
            model_config: self.model_config.clone(),
            platforms: self.platforms.clone(),
            max_latency: self.max_latency.clone(),
            dataset: self.dataset,
            cache_nodes: self.cache.nodes(),
            cache_seq_len: self.cache.seq_len(),
            accuracy_normalizer: self.accuracy_encoder.normalizer().cloned(),
            latency_normalizer: self.latency_encoder.normalizer().cloned(),
            parameters,
        }
    }

    /// Serialises the model to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Data`] if serialisation fails (cannot happen
    /// for well-formed models).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(&self.saved()).map_err(|e| CoreError::Data(format!("serialise: {e}")))
    }

    /// Writes the model to `path` as JSON and notifies any registered
    /// save observers (see [`observe_saves`]) once the write succeeded.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Data`] on I/O or serialisation failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        write_json_file(&self.saved(), path.as_ref())?;
        notify_saved(path.as_ref());
        Ok(())
    }

    /// Rebuilds a model from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Data`] when the document is malformed, the
    /// version is unsupported, or the parameter shapes disagree with the
    /// rebuilt architecture.
    pub fn from_json(json: &str) -> Result<Self> {
        let saved: SavedModel =
            serde_json::from_str(json).map_err(|e| CoreError::Data(format!("parse: {e}")))?;
        Self::from_saved(saved)
    }

    /// Rebuilds a model from its parsed on-disk form.
    fn from_saved(saved: SavedModel) -> Result<Self> {
        if saved.version != FORMAT_VERSION {
            return Err(CoreError::Data(format!(
                "unsupported model format version {} (expected {FORMAT_VERSION})",
                saved.version
            )));
        }
        let cache = EncodingCache::new(saved.dataset, saved.cache_nodes, saved.cache_seq_len);
        // any single architecture suffices to construct the encoders; the
        // fitted normalisers are restored explicitly right after
        let seed_arch = Architecture::nb201_from_index(0).expect("index 0 exists");
        let mut model = Self::build(
            &saved.model_config,
            cache,
            &[seed_arch],
            saved.platforms,
            saved.max_latency,
            saved.dataset,
        )?;
        if let Some(n) = saved.accuracy_normalizer {
            model.accuracy_encoder.set_normalizer(n);
        }
        if let Some(n) = saved.latency_normalizer {
            model.latency_encoder.set_normalizer(n);
        }
        let ids = model.params.ids();
        if ids.len() != saved.parameters.len() {
            return Err(CoreError::Data(format!(
                "parameter count mismatch: document has {}, architecture needs {}",
                saved.parameters.len(),
                ids.len()
            )));
        }
        for (id, value) in ids.into_iter().zip(saved.parameters) {
            if model.params.get(id).shape() != value.shape() {
                return Err(CoreError::Data(format!(
                    "parameter `{}` shape mismatch",
                    model.params.name(id)
                )));
            }
            *model.params.get_mut(id) = value;
        }
        // the weights changed after build: any frozen engine compiled in
        // between (none today, but cheap insurance) would be stale
        model.invalidate_frozen();
        Ok(model)
    }

    /// Loads a model previously written by [`HwPrNas::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Data`] on I/O or parse failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_saved(read_json_file(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::data::SurrogateDataset;
    use hwpr_hwmodel::{SimBench, SimBenchConfig};
    use hwpr_nasbench::SearchSpaceId;

    fn trained() -> (HwPrNas, SurrogateDataset) {
        let bench = SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::NasBench201,
            sample_size: Some(40),
            seed: 8,
        });
        let data =
            SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
        let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        (model, data)
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let (model, data) = trained();
        let archs: Vec<Architecture> = data
            .samples()
            .iter()
            .take(8)
            .map(|s| s.arch.clone())
            .collect();
        let before = model.predict_scores(&archs, Platform::EdgeGpu).unwrap();
        let json = model.to_json().unwrap();
        let restored = HwPrNas::from_json(&json).unwrap();
        let after = restored.predict_scores(&archs, Platform::EdgeGpu).unwrap();
        for (b, a) in before.iter().zip(&after) {
            assert!(
                (b - a).abs() < 1e-5,
                "prediction drift after round trip: {b} vs {a}"
            );
        }
        assert_eq!(restored.platforms(), model.platforms());
        assert_eq!(restored.dataset(), model.dataset());
    }

    #[test]
    fn save_and_load_via_file() {
        let (model, data) = trained();
        let dir = std::env::temp_dir().join("hwpr_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save(&path).unwrap();
        let restored = HwPrNas::load(&path).unwrap();
        let arch = data.samples()[0].arch.clone();
        assert_eq!(
            model
                .predict_scores(std::slice::from_ref(&arch), Platform::EdgeGpu)
                .unwrap(),
            restored.predict_scores(&[arch], Platform::EdgeGpu).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_version_and_garbage() {
        let (model, _) = trained();
        let mut json = model.to_json().unwrap();
        json = json.replacen("\"version\":1", "\"version\":99", 1);
        assert!(HwPrNas::from_json(&json).is_err());
        assert!(HwPrNas::from_json("{not json").is_err());
        assert!(HwPrNas::load("/nonexistent/path/model.json").is_err());
    }

    #[test]
    fn save_observers_fire_after_save_and_unregister_on_drop() {
        let (model, _) = trained();
        let dir = std::env::temp_dir().join("hwpr_persist_watch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("watched.json");
        let seen = Arc::new(Mutex::new(0usize));
        // other tests in the binary save models concurrently: the
        // observer counts only its own path
        let watch = observe_saves({
            let seen = Arc::clone(&seen);
            move |p: &Path| {
                if p.ends_with("watched.json") {
                    *seen.lock() += 1;
                }
            }
        });
        model.save(&path).unwrap();
        assert_eq!(*seen.lock(), 1, "observer must fire once per save");
        drop(watch);
        model.save(&path).unwrap();
        assert_eq!(*seen.lock(), 1, "a dropped watch must not fire");
        std::fs::remove_file(&path).ok();
    }

    /// A fresh temporary directory per test (tests in this binary run
    /// concurrently).
    fn fresh_temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hwpr_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn failed_write_leaves_the_previous_file_byte_identical() {
        let dir = fresh_temp_dir("atomic_fail");
        let path = dir.join("snapshot.json");
        write_json_file(&vec![1.0f64, 2.0], &path).unwrap();
        let before = std::fs::read(&path).unwrap();
        // a directory squatting on the temp name makes its creation fail
        std::fs::create_dir(dir.join("snapshot.json.tmp")).unwrap();
        let err = write_json_file(&vec![3.0f64; 64], &path).unwrap_err();
        assert!(err.to_string().contains("snapshot.json"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_save_leaves_no_temp_file_and_notifies_once() {
        let (model, _) = trained();
        let dir = fresh_temp_dir("atomic_save");
        let path = dir.join("atomic.json");
        let seen = Arc::new(Mutex::new(0usize));
        let _watch = observe_saves({
            let seen = Arc::clone(&seen);
            move |p: &Path| {
                if p.ends_with("atomic.json") {
                    *seen.lock() += 1;
                }
            }
        });
        model.save(&path).unwrap();
        assert_eq!(*seen.lock(), 1, "observer must fire once per save");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("atomic.json")]);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            model.to_json().unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restored_normalizers_match() {
        let (model, _) = trained();
        let json = model.to_json().unwrap();
        let restored = HwPrNas::from_json(&json).unwrap();
        assert_eq!(
            model.accuracy_encoder.normalizer(),
            restored.accuracy_encoder.normalizer()
        );
        assert_eq!(
            model.latency_encoder.normalizer(),
            restored.latency_encoder.normalizer()
        );
    }
}
