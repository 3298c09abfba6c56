//! Manual Architecture Features (AF) — §III-C(1) of the paper.
//!
//! Every feature is a sum of per-operation quantities, and each searchable
//! position's operations see the same input shape whatever the other
//! positions hold. So the features of any architecture are a baseline
//! plus one contribution per position, which [`FeatureTable`] reads from
//! a table built once per (space, dataset) from [`profile`]. The
//! profiler-driven [`ArchFeatures::from_profile`] stays the reference.

use crate::arch::{Architecture, FBNET_LAYERS, NB201_EDGES};
use crate::op::{FbnetOp, Nb201Op};
use crate::profile::profile;
use crate::{Dataset, SearchSpaceId};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The eight manual features the paper extracts: FLOPs, parameters,
/// number of convolutions, input size, depth, first/last channel sizes
/// and number of downsampling ops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchFeatures {
    /// Total FLOPs of the network.
    pub flops: f64,
    /// Total trainable parameters.
    pub params: f64,
    /// Number of convolution ops.
    pub conv_count: f64,
    /// Input spatial resolution.
    pub input_size: f64,
    /// Effective depth (data-transforming ops).
    pub depth: f64,
    /// Channel width after the stem.
    pub first_channels: f64,
    /// Channel width before the classifier.
    pub last_channels: f64,
    /// Number of resolution-reducing ops.
    pub downsample_count: f64,
}

/// Dimension of the AF vector.
pub const ARCH_FEATURE_DIM: usize = 8;

impl ArchFeatures {
    /// The features of `arch` on `dataset`, read from the process-wide
    /// [`FeatureTable`] of its space (bit-identical to
    /// [`ArchFeatures::from_profile`]).
    pub fn extract(arch: &Architecture, dataset: Dataset) -> Self {
        FeatureTable::get(arch.space(), dataset).features(arch)
    }

    /// Derives the features of `arch` on `dataset` from a full
    /// [`profile`] walk: the reference the table is built from and
    /// tested against.
    pub fn from_profile(arch: &Architecture, dataset: Dataset) -> Self {
        let p = profile(arch, dataset);
        let first_channels = p
            .ops
            .first()
            .map(|o| o.out_channels as f64)
            .unwrap_or_default();
        let last_channels = p
            .ops
            .last()
            .map(|o| o.in_channels as f64)
            .unwrap_or_default();
        Self {
            flops: p.total_flops(),
            params: p.total_params(),
            conv_count: p.conv_count() as f64,
            input_size: dataset.input_size() as f64,
            depth: p.effective_depth() as f64,
            first_channels,
            last_channels,
            downsample_count: p.downsample_count() as f64,
        }
    }

    /// The features as a raw vector (fixed order, length
    /// [`ARCH_FEATURE_DIM`]).
    pub fn to_vec(self) -> Vec<f32> {
        self.to_array().to_vec()
    }

    /// The features as a fixed-size array, in [`ArchFeatures::to_vec`]
    /// order.
    pub fn to_array(self) -> [f32; ARCH_FEATURE_DIM] {
        self.fields().map(|v| v as f32)
    }

    fn fields(self) -> [f64; ARCH_FEATURE_DIM] {
        [
            self.flops,
            self.params,
            self.conv_count,
            self.input_size,
            self.depth,
            self.first_channels,
            self.last_channels,
            self.downsample_count,
        ]
    }

    fn from_fields(f: [f64; ARCH_FEATURE_DIM]) -> Self {
        Self {
            flops: f[0],
            params: f[1],
            conv_count: f[2],
            input_size: f[3],
            depth: f[4],
            first_channels: f[5],
            last_channels: f[6],
            downsample_count: f[7],
        }
    }
}

/// Every integer of smaller magnitude is exactly representable as an f64.
const EXACT_INTEGER_LIMIT: f64 = (1u64 << 53) as f64;

/// Per-position AF contributions for one (space, dataset): the features
/// of the all-op-0 baseline architecture, plus for every (position, op)
/// the change from putting `op` at that position.
///
/// Every per-op FLOP and parameter count the profiler emits is an integer
/// (products and sums of small integers), as are the counts, and the
/// build checks that the baseline plus the largest contribution of every
/// position stays below 2^53. So every partial sum of a lookup is an
/// exactly representable integer and the result does not depend on
/// summation order: it equals [`ArchFeatures::from_profile`] bit for bit.
#[derive(Debug)]
pub struct FeatureTable {
    space: SearchSpaceId,
    baseline: [f64; ARCH_FEATURE_DIM],
    /// `positions * ops` rows, position-major.
    deltas: Vec<[f64; ARCH_FEATURE_DIM]>,
}

impl FeatureTable {
    /// Builds the table for `space` on `dataset` by profiling the
    /// baseline and every single-position variant of it.
    ///
    /// # Panics
    ///
    /// Panics if a contribution is not an integer, or if the sums could
    /// leave the exactly representable range — the table would then not
    /// reproduce the profiler bit for bit.
    fn build(space: SearchSpaceId, dataset: Dataset) -> Self {
        let positions = space.positions();
        let ops = space.ops_per_position();
        // the all-op-0 baseline with `op` at `position` (op 0 anywhere is
        // the baseline itself)
        let variant = |position: usize, op: usize| {
            let arch = match space {
                SearchSpaceId::NasBench201 => {
                    let mut a = [Nb201Op::ALL[0]; NB201_EDGES];
                    a[position] = Nb201Op::ALL[op];
                    Architecture::Nb201(a)
                }
                SearchSpaceId::FBNet => {
                    let mut a = [FbnetOp::ALL[0]; FBNET_LAYERS];
                    a[position] = FbnetOp::ALL[op];
                    Architecture::Fbnet(a)
                }
            };
            ArchFeatures::from_profile(&arch, dataset).fields()
        };
        let baseline = variant(0, 0);
        let mut deltas = Vec::with_capacity(positions * ops);
        for position in 0..positions {
            for op in 0..ops {
                let v = variant(position, op);
                deltas.push(std::array::from_fn(|i| v[i] - baseline[i]));
            }
        }
        let table = Self {
            space,
            baseline,
            deltas,
        };
        assert!(
            table.entries().all(|v| v.fract() == 0.0),
            "{space} AF contributions on {dataset} are not integers"
        );
        for i in 0..ARCH_FEATURE_DIM {
            let bound = table.baseline[i].abs()
                + table
                    .deltas
                    .chunks(ops)
                    .map(|row| row.iter().map(|d| d[i].abs()).fold(0.0, f64::max))
                    .sum::<f64>();
            assert!(
                bound < EXACT_INTEGER_LIMIT,
                "{space} AF sums on {dataset} can exceed 2^53"
            );
        }
        table
    }

    /// The process-wide table for `space` on `dataset`, built on first use.
    pub fn get(space: SearchSpaceId, dataset: Dataset) -> &'static FeatureTable {
        static TABLES: [OnceLock<FeatureTable>; 6] = [const { OnceLock::new() }; 6];
        let s = match space {
            SearchSpaceId::NasBench201 => 0,
            SearchSpaceId::FBNet => 1,
        };
        let d = match dataset {
            Dataset::Cifar10 => 0,
            Dataset::Cifar100 => 1,
            Dataset::ImageNet16 => 2,
        };
        TABLES[s * 3 + d].get_or_init(|| Self::build(space, dataset))
    }

    /// The features of `arch`: the baseline plus one contribution per
    /// position.
    ///
    /// # Panics
    ///
    /// Panics if `arch` is not from the table's space.
    fn features(&self, arch: &Architecture) -> ArchFeatures {
        assert_eq!(arch.space(), self.space, "architecture from another space");
        let mut f = self.baseline;
        let mut add = |row: &[f64; ARCH_FEATURE_DIM]| {
            for (v, d) in f.iter_mut().zip(row) {
                *v += d;
            }
        };
        match arch {
            Architecture::Nb201(ops) => {
                let n = Nb201Op::ALL.len();
                for (p, op) in ops.iter().enumerate() {
                    add(&self.deltas[p * n + op.index()]);
                }
            }
            Architecture::Fbnet(ops) => {
                let n = FbnetOp::ALL.len();
                for (p, op) in ops.iter().enumerate() {
                    add(&self.deltas[p * n + op.index()]);
                }
            }
        }
        ArchFeatures::from_fields(f)
    }

    /// Every stored value: the baseline features, then each contribution.
    pub fn entries(&self) -> impl Iterator<Item = f64> + '_ {
        self.baseline
            .iter()
            .chain(self.deltas.iter().flatten())
            .copied()
    }
}

/// Per-dimension affine normaliser fit on a training set, mapping features
/// to approximately `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureNormalizer {
    mins: Vec<f32>,
    spans: Vec<f32>,
}

impl FeatureNormalizer {
    /// Fits min/max bounds over `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub fn fit(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a normalizer on no rows");
        let dim = rows[0].len();
        let mut mins = vec![f32::INFINITY; dim];
        let mut maxs = vec![f32::NEG_INFINITY; dim];
        for r in rows {
            assert_eq!(r.len(), dim, "ragged feature rows");
            for ((mn, mx), &v) in mins.iter_mut().zip(maxs.iter_mut()).zip(r) {
                *mn = mn.min(v);
                *mx = mx.max(v);
            }
        }
        let spans = mins
            .iter()
            .zip(&maxs)
            .map(|(&mn, &mx)| if mx > mn { mx - mn } else { 1.0 })
            .collect();
        Self { mins, spans }
    }

    /// Normalises one row in place semantics (returns a new vector).
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong dimension.
    pub fn transform(&self, row: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; row.len()];
        self.transform_into(row, &mut out);
        out
    }

    /// Normalises one row into the caller's buffer (the allocation-free
    /// form of [`FeatureNormalizer::transform`], bit-identical arithmetic).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `out` has the wrong dimension.
    pub fn transform_into(&self, row: &[f32], out: &mut [f32]) {
        assert_eq!(row.len(), self.mins.len(), "dimension mismatch");
        assert_eq!(out.len(), self.mins.len(), "dimension mismatch");
        for (o, (&v, (&mn, &span))) in out
            .iter_mut()
            .zip(row.iter().zip(self.mins.iter().zip(&self.spans)))
        {
            *o = (v - mn) / span;
        }
    }

    /// Normalises a batch of rows.
    pub fn transform_batch(&self, rows: &[Vec<f32>]) -> Vec<Vec<f32>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn feature_vector_has_fixed_dim() {
        let arch = Architecture::nb201([Nb201Op::NorConv3x3; 6]);
        let f = ArchFeatures::extract(&arch, Dataset::Cifar10);
        assert_eq!(f.to_vec().len(), ARCH_FEATURE_DIM);
        assert!(f.flops > 0.0);
        assert_eq!(f.input_size, 32.0);
        assert_eq!(f.first_channels, 16.0);
    }

    #[test]
    fn conv_heavy_arch_has_more_convs() {
        let convs = ArchFeatures::extract(
            &Architecture::nb201([Nb201Op::NorConv3x3; 6]),
            Dataset::Cifar10,
        );
        let skips = ArchFeatures::extract(
            &Architecture::nb201([Nb201Op::SkipConnect; 6]),
            Dataset::Cifar10,
        );
        assert!(convs.conv_count > skips.conv_count);
        assert!(convs.depth > skips.depth);
    }

    #[test]
    fn normalizer_maps_to_unit_box() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let rows: Vec<Vec<f32>> = (0..20)
            .map(|_| {
                let a = Architecture::random(SearchSpaceId::NasBench201, &mut rng);
                ArchFeatures::extract(&a, Dataset::Cifar10).to_vec()
            })
            .collect();
        let norm = FeatureNormalizer::fit(&rows);
        for r in norm.transform_batch(&rows) {
            for v in r {
                assert!((-1e-6..=1.0 + 1e-6).contains(&v), "out of box: {v}");
            }
        }
    }

    #[test]
    fn normalizer_constant_dim_is_stable() {
        let rows = vec![vec![3.0, 1.0], vec![3.0, 2.0]];
        let norm = FeatureNormalizer::fit(&rows);
        let t = norm.transform(&[3.0, 1.5]);
        assert_eq!(t[0], 0.0); // constant dim maps to 0, no NaN
        assert!((t[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn normalizer_rejects_wrong_dim() {
        let norm = FeatureNormalizer::fit(&[vec![1.0], vec![2.0]]);
        let _ = norm.transform(&[1.0, 2.0]);
    }
}
