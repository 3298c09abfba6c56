//! Token-sequence encoding for the LSTM encoder — §III-C(2) of the paper.
//!
//! The paper feeds the benchmark's string form (e.g.
//! `|nor_conv_3x3~0|nor_conv_3x3~1|`) through a layer embedding; here the
//! string is tokenised into a shared vocabulary covering both spaces so a
//! single embedding table can serve NAS-Bench-201 and FBNet sequences.

use crate::arch::Architecture;
use crate::op::{FbnetOp, Nb201Op};

/// Shared vocabulary: 5 NAS-Bench-201 ops, then 9 FBNet ops, then PAD.
pub const VOCAB_SIZE: usize = Nb201Op::ALL.len() + FbnetOp::ALL.len() + 1;

/// The padding token id.
pub const PAD_TOKEN: usize = VOCAB_SIZE - 1;

/// Maximum sequence length across both spaces (FBNet's 22 layers).
pub const MAX_SEQUENCE_LEN: usize = crate::arch::FBNET_LAYERS;

/// Token ids of an architecture in the shared vocabulary, unpadded
/// (length 6 for NAS-Bench-201, 22 for FBNet).
pub fn tokens(arch: &Architecture) -> Vec<usize> {
    padded_tokens(arch, arch.space().positions())
}

/// Token ids padded with [`PAD_TOKEN`] to `len`, in one allocation.
///
/// # Panics
///
/// Panics if the architecture's natural sequence is longer than `len`.
pub fn padded_tokens(arch: &Architecture, len: usize) -> Vec<usize> {
    assert!(
        arch.space().positions() <= len,
        "sequence longer than padding target"
    );
    let mut t = Vec::with_capacity(len);
    match arch {
        Architecture::Nb201(ops) => t.extend(ops.iter().map(|o| o.index())),
        Architecture::Fbnet(ops) => t.extend(ops.iter().map(|o| Nb201Op::ALL.len() + o.index())),
    }
    t.resize(len, PAD_TOKEN);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchSpaceId;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn vocab_layout() {
        assert_eq!(VOCAB_SIZE, 15);
        assert_eq!(PAD_TOKEN, 14);
        assert_eq!(MAX_SEQUENCE_LEN, 22);
    }

    #[test]
    fn nb201_tokens_are_op_indices() {
        let a = Architecture::nb201([
            Nb201Op::None,
            Nb201Op::SkipConnect,
            Nb201Op::NorConv1x1,
            Nb201Op::NorConv3x3,
            Nb201Op::AvgPool3x3,
            Nb201Op::None,
        ]);
        assert_eq!(tokens(&a), vec![0, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn fbnet_tokens_are_offset() {
        let a = Architecture::fbnet([FbnetOp::K3E1; 22]);
        let t = tokens(&a);
        assert_eq!(t.len(), 22);
        assert!(t.iter().all(|&x| x == 5));
    }

    #[test]
    fn token_spaces_do_not_collide() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let nb = Architecture::random(SearchSpaceId::NasBench201, &mut rng);
        let fb = Architecture::random(SearchSpaceId::FBNet, &mut rng);
        let nb_max = tokens(&nb).into_iter().max().unwrap();
        let fb_min = tokens(&fb).into_iter().min().unwrap();
        assert!(nb_max < 5);
        assert!(fb_min >= 5);
    }

    #[test]
    fn padding_fills_with_pad_token() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = Architecture::random(SearchSpaceId::NasBench201, &mut rng);
        let t = padded_tokens(&a, MAX_SEQUENCE_LEN);
        assert_eq!(t.len(), 22);
        assert!(t[6..].iter().all(|&x| x == PAD_TOKEN));
        assert!(t[..6].iter().all(|&x| x != PAD_TOKEN));
    }

    #[test]
    #[should_panic(expected = "longer than padding target")]
    fn padding_too_short_panics() {
        let a = Architecture::fbnet([FbnetOp::Skip; 22]);
        let _ = padded_tokens(&a, 6);
    }

    #[test]
    fn all_tokens_below_vocab() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for space in [SearchSpaceId::NasBench201, SearchSpaceId::FBNet] {
            for _ in 0..20 {
                let a = Architecture::random(space, &mut rng);
                assert!(padded_tokens(&a, MAX_SEQUENCE_LEN)
                    .iter()
                    .all(|&t| t < VOCAB_SIZE));
            }
        }
    }
}
