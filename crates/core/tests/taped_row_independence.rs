//! Row independence of the taped encoders: every row of
//! `EncoderSet::forward` must carry the same bits whichever batch it is
//! computed in — alone, in order, or in a shuffled batch, at chunk sizes
//! 1, 7 and 128.
//!
//! The fusion fine-tune phase rests on this property: it encodes the
//! training set once in fixed chunks and gathers those rows into every
//! shuffled batch, and its trained weights are held bit-identical to
//! re-encoding each batch. The GCN+AF (accuracy) and LSTM+AF (latency)
//! stacks are checked over NAS-Bench-201, FBNet and a mixed set whose
//! NAS-Bench-201 sequences are `PAD`-padded to FBNet's length, plus one
//! stack wide enough that the GEMMs split `k` into several packed blocks.

use hwpr_autograd::Tape;
use hwpr_core::encoders::{EncoderChoice, EncoderSet};
use hwpr_core::{EncodingCache, ModelConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_nn::layers::LayerRng;
use hwpr_nn::{Binder, Params};
use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

const CHUNKS: [usize; 3] = [1, 7, 128];

fn random_archs(space: SearchSpaceId, n: usize, seed: u64) -> Vec<Architecture> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Architecture::random(space, &mut rng))
        .collect()
}

/// Encodes `archs` in chunks of `chunk` rows on one reused tape (as the
/// training loop does) and returns each row's bit pattern.
fn row_bits(
    params: &Params,
    encoder: &EncoderSet,
    cache: &EncodingCache,
    archs: &[Architecture],
    chunk: usize,
) -> Vec<Vec<u32>> {
    let mut tape = Tape::new();
    let mut bound = Vec::new();
    let mut rng = LayerRng::seed_from_u64(0);
    let mut rows = Vec::with_capacity(archs.len());
    for part in archs.chunks(chunk) {
        tape.reset();
        let mut binder = Binder::rebind(&mut tape, params, bound, false);
        let out = encoder.forward(&mut binder, cache, part, &mut rng).unwrap();
        bound = binder.into_bound();
        let value = tape.value(out);
        assert_eq!(value.shape(), (part.len(), encoder.output_dim()));
        rows.extend(
            value
                .iter_rows()
                .map(|r| r.iter().map(|v| v.to_bits()).collect()),
        );
    }
    rows
}

/// Checks every row against the same architecture encoded alone, for
/// in-order and shuffled batches at every chunk size.
fn assert_rows_independent(
    config: &ModelConfig,
    choice: EncoderChoice,
    cache: &EncodingCache,
    archs: &[Architecture],
    what: &str,
) {
    let mut params = Params::new();
    let encoder = EncoderSet::new(&mut params, "enc", config, choice, cache, archs).unwrap();
    let alone = row_bits(&params, &encoder, cache, archs, 1);
    let mut order: Vec<usize> = (0..archs.len()).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(17));
    let shuffled: Vec<Architecture> = order.iter().map(|&i| archs[i].clone()).collect();
    for chunk in CHUNKS {
        let in_order = row_bits(&params, &encoder, cache, archs, chunk);
        let mixed = row_bits(&params, &encoder, cache, &shuffled, chunk);
        for (i, want) in alone.iter().enumerate() {
            assert_eq!(
                &in_order[i], want,
                "{what} {choice}: row {i} changed bits in chunk {chunk}"
            );
        }
        for (pos, &i) in order.iter().enumerate() {
            assert_eq!(
                &mixed[pos], &alone[i],
                "{what} {choice}: row {i} changed bits in a shuffled chunk {chunk}"
            );
        }
    }
}

fn check_space(config: &ModelConfig, cache: &EncodingCache, archs: &[Architecture], what: &str) {
    for choice in [EncoderChoice::GCN_AF, EncoderChoice::LSTM_AF] {
        assert_rows_independent(config, choice, cache, archs, what);
    }
}

#[test]
fn nb201_rows_are_batch_independent() {
    let cache = EncodingCache::for_space(SearchSpaceId::NasBench201, Dataset::Cifar10);
    let archs = random_archs(SearchSpaceId::NasBench201, 130, 1);
    check_space(&ModelConfig::fast(), &cache, &archs, "nb201");
}

#[test]
fn fbnet_rows_are_batch_independent() {
    let cache = EncodingCache::for_space(SearchSpaceId::FBNet, Dataset::Cifar10);
    let archs = random_archs(SearchSpaceId::FBNet, 130, 2);
    check_space(&ModelConfig::fast(), &cache, &archs, "fbnet");
}

#[test]
fn mixed_space_rows_are_batch_independent() {
    let cache = EncodingCache::for_mixed(Dataset::Cifar10);
    let mut archs = random_archs(SearchSpaceId::NasBench201, 65, 3);
    archs.extend(random_archs(SearchSpaceId::FBNet, 65, 4));
    archs.shuffle(&mut ChaCha8Rng::seed_from_u64(5));
    check_space(&ModelConfig::fast(), &cache, &archs, "mixed");
}

/// Layer widths past the GEMM's 256-deep `k` blocks: each output element
/// is then summed block by block, which must still not depend on `m`.
#[test]
fn wide_encoders_split_k_and_stay_batch_independent() {
    let config = ModelConfig {
        gcn_hidden: 300,
        lstm_hidden: 240,
        lstm_layers: 1,
        ..ModelConfig::fast()
    };
    let cache = EncodingCache::for_space(SearchSpaceId::NasBench201, Dataset::Cifar10);
    let archs = random_archs(SearchSpaceId::NasBench201, 130, 6);
    check_space(&config, &cache, &archs, "wide nb201");
}
