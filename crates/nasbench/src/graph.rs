//! Graph encoding for the GCN encoder — §III-C(3) of the paper.
//!
//! Following BRP-NAS, each architecture becomes a DAG whose nodes are
//! *operations* plus three structural nodes (`input`, `output` and a
//! `global` aggregation node connected to everything). Node features are
//! one-hot types in a vocabulary shared across both search spaces, so one
//! GCN can encode NAS-Bench-201 and FBNet architectures.
//!
//! For NAS-Bench-201 the DAG has one node per cell edge; `none` (zeroize)
//! operations cut their connections since no data flows through them. For
//! FBNet the DAG is the layer chain (identity `skip` blocks keep the chain
//! connected).
//!
//! The adjacency depends on far less than the whole architecture: only
//! which NAS-Bench-201 edges carry `none` (64 masks), and nothing at all
//! for FBNet. [`AdjacencyTable`] interns one normalised adjacency per
//! such structure and shares it behind an [`Arc`], so encoding a new
//! architecture only writes its one-hot features. [`encode_padded`] is the
//! per-architecture reference the interned path is tested against.

use crate::arch::{Architecture, FBNET_LAYERS, NB201_EDGES, NB201_EDGE_NODES};
use crate::op::{FbnetOp, Nb201Op};
use hwpr_tensor::Matrix;
use std::sync::{Arc, OnceLock};

/// One-hot node-feature dimension: `[input, output, global]` + 5
/// NAS-Bench-201 ops + 9 FBNet ops.
pub const NODE_FEATURE_DIM: usize = 3 + Nb201Op::ALL.len() + FbnetOp::ALL.len();

/// Node count of a NAS-Bench-201 graph (input + 6 ops + output + global).
pub const NB201_NODES: usize = NB201_EDGES + 3;

/// Node count of an FBNet graph (input + 22 blocks + output + global).
pub const FBNET_NODES: usize = FBNET_LAYERS + 3;

/// Feature column of the `input` node type.
const FEAT_INPUT: usize = 0;
/// Feature column of the `output` node type.
const FEAT_OUTPUT: usize = 1;
/// Feature column of the `global` node type.
const FEAT_GLOBAL: usize = 2;

/// A graph-encoded architecture: symmetric-normalised adjacency and
/// one-hot node features, ready for [`hwpr_autograd::Tape::block_graph_matmul`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArchGraph {
    /// `n x n` symmetric-normalised adjacency (with self loops), shared by
    /// every graph with the same wiring when built through an
    /// [`AdjacencyTable`].
    pub adjacency: Arc<Matrix>,
    /// `n x NODE_FEATURE_DIM` one-hot node features.
    pub features: Matrix,
    /// Number of non-padding nodes (input + ops + output + global).
    natural: usize,
}

impl ArchGraph {
    /// Number of nodes, including padding.
    pub fn node_count(&self) -> usize {
        self.adjacency.rows()
    }

    /// Number of non-padding nodes.
    pub fn natural_count(&self) -> usize {
        self.natural
    }

    /// Index of the global aggregation node (last non-padding node).
    pub fn global_node(&self) -> usize {
        self.natural - 1
    }

    /// The weight-independent first-layer GCN aggregation `A @ X`
    /// (`nodes x NODE_FEATURE_DIM`).
    ///
    /// Every feature row is one-hot (or all zero for padding), so entry
    /// `(i, c)` is the sum of `A[i][j]` over the nodes `j` whose type is
    /// `c`, taken in ascending `j` from `0.0`. That is exactly the chain a
    /// dense multiply-accumulate over `j` computes, since `a * 1` and
    /// `a * 0` are exact and the sums never reach `-0.0`; so the result
    /// is bit-identical to `Matrix::block_left_matmul_each_into` on the
    /// graph, at `n^2` adds instead of `n^2 * NODE_FEATURE_DIM` FMAs.
    pub fn aggregate(&self) -> Matrix {
        let n = self.node_count();
        let cols = self.features.cols();
        let adjacency = self.adjacency.as_slice();
        let mut agg = Matrix::zeros(n, cols);
        let out = agg.as_mut_slice();
        // node `j` adds adjacency column `j` into its type's output column;
        // visiting `j` in ascending order keeps every entry's sum in order
        for (j, xrow) in self.features.as_slice().chunks_exact(cols).enumerate() {
            debug_assert!(
                xrow.iter().all(|&v| v == 0.0 || v == 1.0)
                    && xrow.iter().filter(|&&v| v == 1.0).count() <= 1,
                "node {j} features are not one-hot"
            );
            // padding nodes have no type and aggregate nothing
            let Some(c) = xrow.iter().position(|&v| v == 1.0) else {
                continue;
            };
            // adding a zero entry to a sum that is never `-0.0` is exact,
            // so there is no need to branch on sparsity
            for (i, orow) in out.chunks_exact_mut(cols).enumerate() {
                orow[c] += adjacency[i * n + j];
            }
        }
        agg
    }
}

/// Encodes `arch` as a graph of its natural size ([`NB201_NODES`] or
/// [`FBNET_NODES`]).
pub fn encode(arch: &Architecture) -> ArchGraph {
    encode_padded(arch, natural_nodes(arch))
}

/// The natural node count for `arch`'s space.
pub fn natural_nodes(arch: &Architecture) -> usize {
    match arch {
        Architecture::Nb201(_) => NB201_NODES,
        Architecture::Fbnet(_) => FBNET_NODES,
    }
}

/// Encodes `arch` padded with isolated zero-feature nodes up to `nodes`
/// (so mixed-space batches share one block size).
///
/// Builds the raw and normalised adjacency from scratch for this one
/// architecture; [`AdjacencyTable::encode`] is the production path and
/// produces identical bits.
///
/// # Panics
///
/// Panics if `nodes` is smaller than the natural size.
pub fn encode_padded(arch: &Architecture, nodes: usize) -> ArchGraph {
    let natural = natural_nodes(arch);
    assert!(nodes >= natural, "cannot pad below natural node count");
    let mut raw = Matrix::zeros(nodes, nodes);
    let mut features = Matrix::zeros(nodes, NODE_FEATURE_DIM);
    // node layout: 0 = input, 1..=P ops, P+1 = output, P+2 = global;
    // padding nodes (if any) are appended after the global node
    let global = natural - 1;
    let output = natural - 2;
    features.set(0, FEAT_INPUT, 1.0);
    features.set(output, FEAT_OUTPUT, 1.0);
    features.set(global, FEAT_GLOBAL, 1.0);
    match arch {
        Architecture::Nb201(ops) => {
            for (e, op) in ops.iter().enumerate() {
                features.set(1 + e, 3 + op.index(), 1.0);
            }
            // data edges; `none` ops transmit nothing, so their node keeps
            // only the global link
            let alive = |e: usize| ops[e] != Nb201Op::None;
            for (e, &(src, dst)) in NB201_EDGE_NODES.iter().enumerate() {
                if !alive(e) {
                    continue;
                }
                // sources: cell node `src` is fed by the input (src == 0) or
                // by every alive op edge ending at `src`
                if src == 0 {
                    raw.set(0, 1 + e, 1.0);
                } else {
                    for (p, &(ps, pd)) in NB201_EDGE_NODES.iter().enumerate() {
                        if pd == src && alive(p) && ps < pd {
                            raw.set(1 + p, 1 + e, 1.0);
                        }
                    }
                }
                // sinks: ops ending at the last cell node feed the output
                if dst == 3 {
                    raw.set(1 + e, output, 1.0);
                }
            }
        }
        Architecture::Fbnet(ops) => {
            // chain: input -> b0 -> b1 -> ... -> b21 -> output
            for (l, op) in ops.iter().enumerate() {
                features.set(1 + l, 3 + Nb201Op::ALL.len() + op.index(), 1.0);
            }
            raw.set(0, 1, 1.0);
            for l in 0..FBNET_LAYERS - 1 {
                raw.set(1 + l, 2 + l, 1.0);
            }
            raw.set(FBNET_LAYERS, output, 1.0);
        }
    }
    // global node aggregates every real node (bidirectional links appear
    // after symmetrisation)
    for n in 0..natural - 1 {
        raw.set(n, global, 1.0);
    }
    ArchGraph {
        adjacency: Arc::new(normalized_adjacency(&raw, natural, nodes)),
        features,
        natural,
    }
}

/// The part of an architecture its graph adjacency depends on.
///
/// A NAS-Bench-201 `none` edge cuts the data links of its node, and no
/// other op changes the wiring, so the mask of `none` edges fixes the
/// adjacency; every FBNet architecture is the same layer chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StructureKey {
    /// A NAS-Bench-201 cell; bit `e` is set when edge `e` carries `none`.
    Nb201 {
        /// The `none`-edge mask (`< 2^6`).
        none_mask: u8,
    },
    /// The FBNet layer chain.
    Fbnet,
}

impl StructureKey {
    /// Number of distinct structures across both spaces (64 + 1).
    const COUNT: usize = (1 << NB201_EDGES) + 1;

    /// The structure of `arch`.
    fn of(arch: &Architecture) -> Self {
        match arch {
            Architecture::Nb201(ops) => StructureKey::Nb201 {
                none_mask: ops
                    .iter()
                    .enumerate()
                    .filter(|(_, &op)| op == Nb201Op::None)
                    .fold(0, |mask, (e, _)| mask | 1 << e),
            },
            Architecture::Fbnet(_) => StructureKey::Fbnet,
        }
    }

    /// Dense slot in `0..COUNT`.
    fn index(self) -> usize {
        match self {
            StructureKey::Nb201 { none_mask } => none_mask as usize,
            StructureKey::Fbnet => 1 << NB201_EDGES,
        }
    }

    /// An architecture with this structure (the one the interned
    /// adjacency is built from).
    fn representative(self) -> Architecture {
        match self {
            StructureKey::Nb201 { none_mask } => {
                let mut ops = [Nb201Op::SkipConnect; NB201_EDGES];
                for (e, op) in ops.iter_mut().enumerate() {
                    if none_mask >> e & 1 == 1 {
                        *op = Nb201Op::None;
                    }
                }
                Architecture::Nb201(ops)
            }
            StructureKey::Fbnet => Architecture::Fbnet([FbnetOp::Skip; FBNET_LAYERS]),
        }
    }
}

/// Interned normalised adjacencies for one padded node count, one per
/// structure (NAS-Bench-201 `none`-edge mask, or the FBNet chain), each
/// built on first use.
///
/// Every graph [`AdjacencyTable::encode`] returns shares its adjacency
/// with all other graphs of the same structure: one allocation for all of
/// FBNet, at most 64 for NAS-Bench-201.
#[derive(Debug)]
pub struct AdjacencyTable {
    nodes: usize,
    slots: [OnceLock<Arc<Matrix>>; StructureKey::COUNT],
}

impl AdjacencyTable {
    /// An empty table for graphs padded to `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            slots: [const { OnceLock::new() }; StructureKey::COUNT],
        }
    }

    /// The padded node count of every graph this table encodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The shared adjacency of `key`, built by [`encode_padded`] on a
    /// representative architecture the first time it is asked for.
    ///
    /// # Panics
    ///
    /// Panics if the table's node count is below the structure's
    /// natural size.
    fn adjacency(&self, key: StructureKey) -> &Arc<Matrix> {
        self.slots[key.index()]
            .get_or_init(|| encode_padded(&key.representative(), self.nodes).adjacency)
    }

    /// Encodes `arch` padded to the table's node count: the interned
    /// adjacency plus one-hot features written directly. Bit-identical
    /// to [`encode_padded`].
    ///
    /// # Panics
    ///
    /// Panics if the table's node count is below `arch`'s natural size.
    pub fn encode(&self, arch: &Architecture) -> ArchGraph {
        let natural = natural_nodes(arch);
        assert!(self.nodes >= natural, "cannot pad below natural node count");
        let mut features = Matrix::zeros(self.nodes, NODE_FEATURE_DIM);
        features.set(0, FEAT_INPUT, 1.0);
        features.set(natural - 2, FEAT_OUTPUT, 1.0);
        features.set(natural - 1, FEAT_GLOBAL, 1.0);
        match arch {
            Architecture::Nb201(ops) => {
                for (e, op) in ops.iter().enumerate() {
                    features.set(1 + e, 3 + op.index(), 1.0);
                }
            }
            Architecture::Fbnet(ops) => {
                for (l, op) in ops.iter().enumerate() {
                    features.set(1 + l, 3 + Nb201Op::ALL.len() + op.index(), 1.0);
                }
            }
        }
        ArchGraph {
            adjacency: Arc::clone(self.adjacency(StructureKey::of(arch))),
            features,
            natural,
        }
    }
}

/// Symmetric normalisation `D^{-1/2}(A + A^T + I)D^{-1/2}` restricted to
/// the first `natural` nodes; padding nodes stay fully isolated (zero
/// rows), so they contribute nothing to message passing.
fn normalized_adjacency(raw: &Matrix, natural: usize, nodes: usize) -> Matrix {
    let mut sym = Matrix::zeros(nodes, nodes);
    for i in 0..natural {
        for j in 0..natural {
            let v = if i == j {
                1.0
            } else {
                (raw[(i, j)] + raw[(j, i)]).min(1.0)
            };
            sym.set(i, j, v);
        }
    }
    let mut deg = vec![0.0f32; nodes];
    for (i, d) in deg.iter_mut().enumerate() {
        *d = sym.row(i).iter().sum::<f32>();
    }
    let mut out = Matrix::zeros(nodes, nodes);
    for i in 0..nodes {
        if deg[i] == 0.0 {
            continue;
        }
        for j in 0..nodes {
            if sym[(i, j)] != 0.0 && deg[j] > 0.0 {
                out.set(i, j, sym[(i, j)] / (deg[i].sqrt() * deg[j].sqrt()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchSpaceId;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn nb201_graph_shapes() {
        let a = Architecture::nb201([Nb201Op::NorConv3x3; 6]);
        let g = encode(&a);
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.adjacency.shape(), (9, 9));
        assert_eq!(g.features.shape(), (9, NODE_FEATURE_DIM));
        assert_eq!(g.global_node(), 8);
    }

    #[test]
    fn features_are_one_hot() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for space in [SearchSpaceId::NasBench201, SearchSpaceId::FBNet] {
            let a = Architecture::random(space, &mut rng);
            let g = encode(&a);
            for r in 0..g.features.rows() {
                let s: f32 = g.features.row(r).iter().sum();
                assert_eq!(s, 1.0, "node {r} feature row must be one-hot");
            }
        }
    }

    #[test]
    fn adjacency_is_symmetric_and_normalised() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = Architecture::random(SearchSpaceId::NasBench201, &mut rng);
        let g = encode(&a);
        let n = g.node_count();
        for i in 0..n {
            for j in 0..n {
                assert!((g.adjacency[(i, j)] - g.adjacency[(j, i)]).abs() < 1e-6);
            }
            assert!(g.adjacency[(i, i)] > 0.0, "self loop on node {i}");
        }
    }

    #[test]
    fn zeroize_cuts_data_edges() {
        let all_none = Architecture::nb201([Nb201Op::None; 6]);
        let g = encode(&all_none);
        // op nodes only touch themselves and the global node
        for e in 0..6 {
            let row = g.adjacency.row(1 + e);
            let touching: Vec<usize> = (0..9).filter(|&j| row[j] != 0.0).collect();
            assert_eq!(touching, vec![1 + e, 8], "op node {e}");
        }
    }

    #[test]
    fn conv_edges_follow_cell_topology() {
        let all_conv = Architecture::nb201([Nb201Op::NorConv3x3; 6]);
        let g = encode(&all_conv);
        // e0 = (0,1) is fed by input (node 0)
        assert!(g.adjacency[(0, 1)] > 0.0);
        // e2 = (1,2) is fed by e0
        assert!(g.adjacency[(1, 3)] > 0.0);
        // e5 = (2,3) feeds output (node 7)
        assert!(g.adjacency[(6, 7)] > 0.0);
        // e0 does not directly touch output
        assert_eq!(g.adjacency[(1, 7)], 0.0);
    }

    #[test]
    fn global_node_touches_every_real_node() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = Architecture::random(SearchSpaceId::FBNet, &mut rng);
        let g = encode(&a);
        let global = g.global_node();
        for n in 0..g.node_count() - 1 {
            assert!(
                g.adjacency[(n, global)] > 0.0,
                "node {n} missing global link"
            );
        }
    }

    #[test]
    fn fbnet_chain_is_connected() {
        let a = Architecture::fbnet([FbnetOp::K3E3; FBNET_LAYERS]);
        let g = encode(&a);
        // input -> first block, consecutive blocks, last block -> output
        assert!(g.adjacency[(0, 1)] > 0.0);
        for l in 0..FBNET_LAYERS - 1 {
            assert!(g.adjacency[(1 + l, 2 + l)] > 0.0, "chain broken at {l}");
        }
        assert!(g.adjacency[(FBNET_LAYERS, FBNET_LAYERS + 1)] > 0.0);
    }

    #[test]
    fn padded_graph_isolates_padding() {
        let a = Architecture::nb201([Nb201Op::NorConv3x3; 6]);
        let g = encode_padded(&a, FBNET_NODES);
        assert_eq!(g.node_count(), FBNET_NODES);
        assert_eq!(g.natural_count(), NB201_NODES);
        // padding rows (after the global node at 8) are all zero
        for n in NB201_NODES..FBNET_NODES {
            assert!(g.adjacency.row(n).iter().all(|&v| v == 0.0), "pad row {n}");
            assert!(g.features.row(n).iter().all(|&v| v == 0.0), "pad feat {n}");
        }
        // global stays at its natural slot and still touches real nodes
        let global = g.global_node();
        assert_eq!(global, 8);
        assert!(g.adjacency[(0, global)] > 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot pad below natural")]
    fn padding_below_natural_panics() {
        let a = Architecture::fbnet([FbnetOp::Skip; FBNET_LAYERS]);
        let _ = encode_padded(&a, 9);
    }

    #[test]
    fn structure_keys_cover_the_none_masks() {
        let all_none = Architecture::nb201([Nb201Op::None; 6]);
        assert_eq!(
            StructureKey::of(&all_none),
            StructureKey::Nb201 { none_mask: 63 }
        );
        let mut ops = [Nb201Op::NorConv3x3; 6];
        ops[2] = Nb201Op::None;
        assert_eq!(StructureKey::of(&Architecture::nb201(ops)).index(), 0b100);
        assert_eq!(StructureKey::Fbnet.index(), StructureKey::COUNT - 1);
    }

    #[test]
    fn distinct_archs_have_distinct_encodings() {
        let a = encode(&Architecture::nb201([Nb201Op::NorConv3x3; 6]));
        let b = encode(&Architecture::nb201([Nb201Op::NorConv1x1; 6]));
        assert_ne!(a.features, b.features);
    }
}
