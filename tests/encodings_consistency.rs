//! Cross-crate consistency of the three architecture encodings and the
//! profiler-derived quantities they feed.
//!
//! The table-driven encodings the cache builds (interned adjacency,
//! per-position AF contributions) are checked bit for bit against the
//! per-architecture reference paths (`graph::encode_padded`,
//! `ArchFeatures::from_profile`). The exhaustive sweeps are slow in a
//! debug build; CI runs this file with `--release`.

use hw_pr_nas::core::EncodingCache;
use hw_pr_nas::hwmodel::{energy_mj, latency_ms, Platform};
use hw_pr_nas::nasbench::features::{ArchFeatures, FeatureTable, ARCH_FEATURE_DIM};
use hw_pr_nas::nasbench::graph::{AdjacencyTable, ArchGraph};
use hw_pr_nas::nasbench::profile::profile;
use hw_pr_nas::nasbench::{graph, tokens, Architecture, Dataset, SearchSpaceId};
use hw_pr_nas::tensor::Matrix;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Seeded FBNet architectures the AF table is checked on.
const FBNET_AF_SWEEP: usize = 100_000;

fn random_archs(space: SearchSpaceId, n: usize) -> Vec<Architecture> {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    (0..n)
        .map(|_| Architecture::random(space, &mut rng))
        .collect()
}

#[test]
fn af_flops_match_profiler_totals() {
    for arch in random_archs(SearchSpaceId::NasBench201, 10) {
        let af = ArchFeatures::extract(&arch, Dataset::Cifar10);
        let net = profile(&arch, Dataset::Cifar10);
        assert_eq!(af.flops, net.total_flops());
        assert_eq!(af.params, net.total_params());
        assert_eq!(af.conv_count as usize, net.conv_count());
        assert_eq!(af.to_vec().len(), ARCH_FEATURE_DIM);
    }
}

#[test]
fn token_and_graph_encodings_agree_on_ops() {
    for arch in random_archs(SearchSpaceId::FBNet, 8) {
        let toks = tokens::tokens(&arch);
        let g = graph::encode(&arch);
        // each op token corresponds to a one-hot column in the node features
        for (layer, &tok) in toks.iter().enumerate() {
            let node = 1 + layer; // input node is 0
            let feature_col = 3 + tok; // [input, output, global] prefix
            assert_eq!(
                g.features[(node, feature_col)],
                1.0,
                "token {tok} at layer {layer} not reflected in the graph"
            );
        }
    }
}

#[test]
fn string_codec_round_trips_through_all_encodings() {
    for space in [SearchSpaceId::NasBench201, SearchSpaceId::FBNet] {
        for arch in random_archs(space, 6) {
            let parsed: Architecture = arch.to_arch_string().parse().unwrap();
            assert_eq!(tokens::tokens(&arch), tokens::tokens(&parsed));
            assert_eq!(graph::encode(&arch), graph::encode(&parsed));
            assert_eq!(
                ArchFeatures::extract(&arch, Dataset::Cifar100).to_vec(),
                ArchFeatures::extract(&parsed, Dataset::Cifar100).to_vec()
            );
        }
    }
}

#[test]
fn hardware_costs_scale_with_capacity() {
    // an architecture with strictly more compute is slower and hungrier on
    // every platform
    use hw_pr_nas::nasbench::Nb201Op;
    let small = Architecture::nb201([Nb201Op::NorConv1x1; 6]);
    let large = Architecture::nb201([Nb201Op::NorConv3x3; 6]);
    for platform in Platform::ALL {
        assert!(
            latency_ms(&large, Dataset::Cifar10, platform)
                > latency_ms(&small, Dataset::Cifar10, platform),
            "latency ordering violated on {platform}"
        );
        assert!(
            energy_mj(&large, Dataset::Cifar10, platform)
                > energy_mj(&small, Dataset::Cifar10, platform),
            "energy ordering violated on {platform}"
        );
    }
}

#[test]
fn padded_and_natural_graphs_share_structure() {
    for arch in random_archs(SearchSpaceId::NasBench201, 5) {
        let natural = graph::encode(&arch);
        let padded = graph::encode_padded(&arch, graph::FBNET_NODES);
        let n = natural.node_count();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(natural.adjacency[(i, j)], padded.adjacency[(i, j)]);
            }
            assert_eq!(natural.features.row(i), padded.features.row(i));
        }
        assert_eq!(natural.global_node(), padded.global_node());
    }
}

fn all_nb201() -> impl Iterator<Item = Architecture> {
    (0..SearchSpaceId::NasBench201.size()).map(|i| Architecture::nb201_from_index(i).unwrap())
}

fn af_bits(f: ArchFeatures) -> [u64; ARCH_FEATURE_DIM] {
    [
        f.flops,
        f.params,
        f.conv_count,
        f.input_size,
        f.depth,
        f.first_channels,
        f.last_channels,
        f.downsample_count,
    ]
    .map(f64::to_bits)
}

fn matrix_bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The first-layer aggregation as the dense kernel computes it.
fn dense_aggregate(graph: &ArchGraph) -> Matrix {
    let n = graph.node_count();
    let mut agg = Matrix::zeros(n, graph.features.cols());
    graph
        .features
        .block_left_matmul_each_into(1, n, |_| &*graph.adjacency, &mut agg)
        .unwrap();
    agg
}

fn assert_graphs_identical(fast: &ArchGraph, reference: &ArchGraph, what: &str) {
    assert_eq!(
        fast.adjacency.shape(),
        reference.adjacency.shape(),
        "{what}"
    );
    assert_eq!(
        matrix_bits(&fast.adjacency),
        matrix_bits(&reference.adjacency),
        "adjacency of {what}"
    );
    assert_eq!(
        matrix_bits(&fast.features),
        matrix_bits(&reference.features),
        "features of {what}"
    );
    assert_eq!(fast.natural_count(), reference.natural_count(), "{what}");
    assert_eq!(fast.global_node(), reference.global_node(), "{what}");
    assert_eq!(
        matrix_bits(&fast.aggregate()),
        matrix_bits(&dense_aggregate(reference)),
        "aggregation of {what}"
    );
}

#[test]
fn table_af_is_bit_identical_to_the_profiler() {
    for dataset in Dataset::ALL {
        for arch in all_nb201() {
            assert_eq!(
                af_bits(ArchFeatures::extract(&arch, dataset)),
                af_bits(ArchFeatures::from_profile(&arch, dataset)),
                "{arch:?} on {dataset}"
            );
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    for _ in 0..FBNET_AF_SWEEP {
        let arch = Architecture::random(SearchSpaceId::FBNet, &mut rng);
        for dataset in Dataset::ALL {
            assert_eq!(
                af_bits(ArchFeatures::extract(&arch, dataset)),
                af_bits(ArchFeatures::from_profile(&arch, dataset)),
                "{arch:?} on {dataset}"
            );
        }
    }
}

#[test]
fn feature_table_entries_are_exact_integers() {
    // a fractional or huge contribution would make the table's sums depend
    // on summation order, so it must fail here rather than drift silently
    let limit = (1u64 << 53) as f64;
    for space in [SearchSpaceId::NasBench201, SearchSpaceId::FBNet] {
        for dataset in Dataset::ALL {
            let table = FeatureTable::get(space, dataset);
            let expected = ARCH_FEATURE_DIM * (1 + space.positions() * space.ops_per_position());
            assert_eq!(table.entries().count(), expected);
            for v in table.entries() {
                assert_eq!(v.fract(), 0.0, "{space}/{dataset}: fractional entry {v}");
                assert!(v.abs() < limit, "{space}/{dataset}: entry {v} >= 2^53");
            }
        }
    }
}

#[test]
fn interned_graphs_match_encode_padded() {
    let natural = AdjacencyTable::new(graph::NB201_NODES);
    let mixed = AdjacencyTable::new(graph::FBNET_NODES);
    for arch in all_nb201() {
        for table in [&natural, &mixed] {
            let fast = table.encode(&arch);
            let reference = graph::encode_padded(&arch, table.nodes());
            assert_graphs_identical(&fast, &reference, &format!("{arch:?}"));
        }
    }
    for arch in random_archs(SearchSpaceId::FBNet, 10_000) {
        let fast = mixed.encode(&arch);
        assert_graphs_identical(&fast, &graph::encode(&arch), &format!("{arch:?}"));
    }
}

#[test]
fn cached_encodings_match_the_per_arch_oracle() {
    let nb201 = random_archs(SearchSpaceId::NasBench201, 300);
    let fbnet = random_archs(SearchSpaceId::FBNet, 300);
    let mixed_archs: Vec<Architecture> = nb201.iter().chain(&fbnet).cloned().collect();
    let caches = [
        (
            EncodingCache::for_space(SearchSpaceId::NasBench201, Dataset::Cifar10),
            &nb201,
        ),
        (
            EncodingCache::for_space(SearchSpaceId::FBNet, Dataset::Cifar100),
            &fbnet,
        ),
        (EncodingCache::for_mixed(Dataset::ImageNet16), &mixed_archs),
    ];
    for (cache, archs) in &caches {
        let mut encodings = Vec::new();
        cache.encodings_into(archs, &mut encodings);
        for (arch, enc) in archs.iter().zip(&encodings) {
            // the reference the cache used to build per architecture
            let reference = graph::encode_padded(arch, cache.nodes());
            assert_graphs_identical(&enc.graph, &reference, &format!("{arch:?}"));
            assert_eq!(
                matrix_bits(&enc.agg),
                matrix_bits(&dense_aggregate(&reference)),
                "agg of {arch:?}"
            );
            assert_eq!(
                enc.af.map(f32::to_bits),
                ArchFeatures::from_profile(arch, cache.dataset())
                    .to_array()
                    .map(f32::to_bits)
            );
            assert_eq!(enc.tokens, tokens::padded_tokens(arch, cache.seq_len()));
        }
    }
    // every FBNet entry of a cache points at one adjacency allocation
    let (cache, archs) = &caches[1];
    let first = cache.encoding(&archs[0]);
    for arch in archs.iter() {
        assert!(Arc::ptr_eq(
            &cache.encoding(arch).graph.adjacency,
            &first.graph.adjacency
        ));
    }
}
