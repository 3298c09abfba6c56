//! Tape-free frozen forms of the layers, compiled once from trained
//! parameters for the inference hot path.
//!
//! Each `Frozen*` type is built by its layer's `freeze(&params)` method: it
//! copies the trained values out of [`crate::Params`], packs every GEMM
//! weight into a persistent [`PackedWeight`] panel, and runs the forward
//! pass as direct fused-kernel calls ([`hwpr_autograd::apply_bias_act`],
//! [`hwpr_autograd::lstm_update_rows_in_place`], pooled GCN propagation) — no tape,
//! no op recording, no gradient buffers, and dropout statically elided
//! (dropout is already the identity at inference).
//!
//! # Error budget
//!
//! The frozen-vs-tape contract is a documented error budget, not f32
//! bit-identity: at f32 a frozen forward must stay within **max-abs
//! ≤ 1e-5** of the taped layer with **Kendall τ = 1.0** on the
//! differential fixtures; at [`Precision::F16`]/[`Precision::Int8`] the
//! guarantee is rank preservation (**τ ≥ 0.99** per platform head).
//! Budget rather than bits keeps the freeze path free to specialise —
//! monomorphized fixed-shape GEMM kernels
//! ([`PackedWeight::pack_for_inference`]), division-free activations,
//! precision-tiered panels — without renegotiating the tests each time.
//! In the current implementation the f32 path happens to land on exact
//! bit-equality anyway (the frozen layers reuse the tape's fused
//! pointwise kernels, and both the prepacked and static GEMM paths are
//! bit-identical to the unpacked driver), but only the budget is
//! contractual. The tape stays the reference implementation, anchored by
//! differential tests in `hwpr-core`; the rational-divide activations the
//! fast kernels replaced live on in `hwpr_tensor::reference` as ground
//! truth.
//!
//! All scratch storage comes from a caller-held [`BufferPool`], so a warmed
//! forward pass performs no heap allocation.

use crate::{NnError, Result};
use hwpr_autograd::{apply_bias_act, lstm_update_rows_in_place, Act, AutogradError};
use hwpr_tensor::{BufferPool, Matrix, PackedWeight, Precision, ShapeError};

/// Whether a packed panel belongs to an encoder GEMM or an MLP regressor
/// stack — the quantisation policy differs between the two.
#[derive(Debug, Clone, Copy)]
enum PanelRole {
    /// GCN layers and LSTM steps: compute-dominant, noise-tolerant bulk.
    Encoder,
    /// [`FrozenLinear`] regressor layers feeding scalar heads.
    Head,
}

/// The storage precision actually used for a `k x n` GEMM weight when the
/// model is frozen at `requested` precision.
///
/// Quantisation follows the usual backbone/head split:
///
/// - encoder GEMMs take `requested` as-is, including int8 — they dominate
///   the FLOP count and their noise is filtered by downstream layers;
/// - the MLP regressor stacks cap at f16 under an int8 freeze: their
///   outputs reach the scalar rank-critical heads within a hop or two and
///   the reductions are too short for per-channel int8 noise to average
///   out (int8 regressors cost ~0.01 Kendall τ; f16 is measurably free);
/// - degenerate panels (`n == 1` scalar heads, `k < 4` dots shorter than
///   one int8 lane group) stay f32.
///
/// [`Precision::F16`] quantises everything (binary16 weight rounding is
/// far below the model's own noise floor).
fn panel_precision(requested: Precision, role: PanelRole, k: usize, n: usize) -> Precision {
    match (requested, role) {
        (Precision::Int8, _) if n == 1 || k < 4 => Precision::F32,
        (Precision::Int8, PanelRole::Head) => Precision::F16,
        (p, _) => p,
    }
}

/// A [`crate::layers::Linear`] compiled for tape-free inference: prepacked
/// weight panel plus a copied bias row.
#[derive(Debug)]
pub struct FrozenLinear {
    weight: PackedWeight,
    bias: Option<Matrix>,
    in_dim: usize,
    out_dim: usize,
}

impl FrozenLinear {
    /// Packs `weight` and copies `bias` out of the parameter store.
    pub(crate) fn from_parts(
        weight: &Matrix,
        bias: Option<&Matrix>,
        in_dim: usize,
        out_dim: usize,
        precision: Precision,
    ) -> Self {
        let mut packed = PackedWeight::new();
        packed.pack_for_inference(
            weight,
            panel_precision(precision, PanelRole::Head, in_dim, out_dim),
        );
        Self {
            weight: packed,
            bias: bias.cloned(),
            in_dim,
            out_dim,
        }
    }

    /// The storage precision of the packed weight panel (may be f32 under
    /// an int8 freeze when the layer is exempted, see [`panel_precision`]).
    pub fn precision(&self) -> Precision {
        self.weight.precision()
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// `act(x @ W + b)` into `out` (`[batch, out_dim]`): the frozen form of
    /// the fused `linear_act` tape node, sharing its pointwise tail.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `x` or `out` mismatch the layer shape.
    pub fn forward_act_into(&self, x: &Matrix, act: Act, out: &mut Matrix) -> Result<()> {
        x.matmul_prepacked_into(&self.weight, out)
            .map_err(AutogradError::from)?;
        apply_bias_act(out, self.bias.as_ref(), act)?;
        Ok(())
    }
}

/// A [`crate::layers::Mlp`] compiled for tape-free inference. Hidden
/// layers run the fused affine + activation kernel; the final layer stays
/// linear and dropout is statically elided.
#[derive(Debug)]
pub struct FrozenMlp {
    layers: Vec<FrozenLinear>,
    act: Act,
}

impl FrozenMlp {
    /// Assembles a frozen MLP from prepacked layers.
    pub(crate) fn from_parts(layers: Vec<FrozenLinear>, act: Act) -> Self {
        Self { layers, act }
    }

    /// Output dimension of the final layer.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, FrozenLinear::out_dim)
    }

    /// Number of affine layers (one GEMM each per forward pass).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Applies the network to a pooled `x` (`[batch, input_dim]`),
    /// consuming it and returning a pooled `[batch, output_dim]` result.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from mismatched inputs.
    pub fn forward(&self, pool: &mut BufferPool, x: Matrix) -> Result<Matrix> {
        let _span = hwpr_obs::span("infer.mlp");
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i < last { self.act } else { Act::Identity };
            // fully overwritten by the prepacked GEMM: no zero-fill needed
            let mut out = pool.take_uninit(h.rows(), layer.out_dim());
            layer.forward_act_into(&h, act, &mut out)?;
            pool.put(h);
            h = out;
        }
        Ok(h)
    }
}

/// One frozen LSTM layer: the stacked `[W_ih; W_hh]` gate weight packed
/// once (the tape packs the same concatenation per pass) plus its bias.
#[derive(Debug)]
struct FrozenLstmCell {
    weight: PackedWeight,
    bias: Matrix,
    in_dim: usize,
}

/// A [`crate::layers::Lstm`] compiled for tape-free inference.
#[derive(Debug)]
pub struct FrozenLstm {
    cells: Vec<FrozenLstmCell>,
    input_dim: usize,
    hidden_dim: usize,
}

impl FrozenLstm {
    /// Assembles a frozen LSTM; `stacked` holds one `[W_ih; W_hh]` matrix
    /// and one bias row per layer.
    pub(crate) fn from_parts(
        stacked: Vec<(Matrix, Matrix)>,
        input_dim: usize,
        hidden_dim: usize,
        precision: Precision,
    ) -> Self {
        let cells = stacked
            .into_iter()
            .enumerate()
            .map(|(l, (w, bias))| {
                let (k, n) = w.shape();
                let mut packed = PackedWeight::new();
                packed.pack_for_inference(&w, panel_precision(precision, PanelRole::Encoder, k, n));
                FrozenLstmCell {
                    weight: packed,
                    bias,
                    in_dim: if l == 0 { input_dim } else { hidden_dim },
                }
            })
            .collect();
        Self {
            cells,
            input_dim,
            hidden_dim,
        }
    }

    /// Input feature dimension of the first layer.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Number of stacked layers.
    pub fn layers(&self) -> usize {
        self.cells.len()
    }

    /// Width of one row's recurrent state across all layers: the packed
    /// `[h | c]` of every layer, `layers · 2·hidden` values.
    pub fn state_width(&self) -> usize {
        self.cells.len() * 2 * self.hidden_dim
    }

    /// Runs the recurrence over `steps` (each `[batch, input_dim]`),
    /// resuming row `r` at step `starts[r]`, and advances `states` — one
    /// packed `[h | c]` matrix (`[batch, 2·hidden]`) per layer — in place.
    ///
    /// Rows must be sorted by start step (`starts` ascending). Row `r`
    /// enters with its state after `starts[r]` steps already in `states`
    /// (zero for a cold row, which starts at 0) and leaves with its state
    /// after every step. Step `t` runs on the leading `n_t` rows — those
    /// with `starts[r] <= t` — so its gate GEMMs have `m = n_t` and rows
    /// past `n_t` are neither read nor written, and only those rows of
    /// `steps[t]` are read. Each layer's step is one `[x | h]` staging
    /// copy, one prepacked gate GEMM and one fused in-place epilogue
    /// ([`lstm_update_rows_in_place`]); a deeper layer reads the `h` part
    /// of the layer below's state, already advanced for this step.
    ///
    /// Every GEMM driver computes an output row from its own input row
    /// alone and the epilogue is per element, so a row's state after step
    /// `t` depends only on the weights and its inputs up to `t`: resuming
    /// from a state recorded by an earlier run is bit-identical to
    /// recomputing it, and the cold run is bit-identical to
    /// [`crate::layers::Lstm::forward`]. `after_step(t, n_t, states)` is
    /// called after every step that ran, so callers can record the
    /// freshly computed states of rows `..n_t`.
    ///
    /// Returns the number of gate GEMMs issued. The `[x | h]` staging and
    /// gate buffers come from `pool` once per call and go back at the end;
    /// `scratch` keeps its `Vec` capacities across calls.
    ///
    /// # Errors
    ///
    /// Returns a config error when `steps` is empty, `starts` is not
    /// ascending or exceeds the sequence, or `states` does not hold one
    /// `[starts.len(), 2·hidden]` matrix per layer; a shape error when a
    /// step matrix is too small.
    pub fn forward(
        &self,
        pool: &mut BufferPool,
        steps: &[Matrix],
        starts: &[usize],
        states: &mut [Matrix],
        scratch: &mut LstmScratch,
        mut after_step: impl FnMut(usize, usize, &[Matrix]),
    ) -> Result<u64> {
        if steps.is_empty() {
            return Err(NnError::Config("LSTM received an empty sequence".into()));
        }
        let batch = starts.len();
        let h = self.hidden_dim;
        if !starts.is_sorted() || starts.last().is_some_and(|&s| s > steps.len()) {
            return Err(NnError::Config(
                "LSTM start steps must be ascending and within the sequence".into(),
            ));
        }
        if states.len() != self.cells.len() || states.iter().any(|s| s.shape() != (batch, 2 * h)) {
            return Err(NnError::Config(format!(
                "LSTM needs {} [{batch}, {}] layer states",
                self.cells.len(),
                2 * h
            )));
        }
        let _span = hwpr_obs::span("infer.lstm");
        let LstmScratch { xh, gates } = scratch;
        // recycle anything a previous erroring call left behind
        for buf in xh.drain(..).chain(gates.drain(..)) {
            pool.put(buf);
        }
        for cell in &self.cells {
            xh.push(pool.take_uninit(batch, cell.in_dim + h));
            gates.push(pool.take_uninit(batch, 4 * h));
        }
        let mut gemms = 0;
        let mut active = 0;
        for (t, step) in steps.iter().enumerate() {
            while active < batch && starts[active] <= t {
                active += 1;
            }
            if active == 0 {
                continue;
            }
            if step.rows() < active || step.cols() < self.input_dim {
                return Err(NnError::Autograd(AutogradError::Shape(ShapeError::new(
                    "FrozenLstm::forward",
                    (active, self.input_dim),
                    step.shape(),
                ))));
            }
            for (l, cell) in self.cells.iter().enumerate() {
                let in_dim = cell.in_dim;
                let (below, rest) = states.split_at_mut(l);
                let state = &mut rest[0];
                // layer l > 0 reads the h-part of the layer below's state,
                // already advanced for this step
                let x = below.last().unwrap_or(step);
                let stage = &mut xh[l];
                for r in 0..active {
                    let row = stage.row_mut(r);
                    row[..in_dim].copy_from_slice(&x.row(r)[..in_dim]);
                    row[in_dim..].copy_from_slice(&state.row(r)[..h]);
                }
                stage
                    .matmul_prepacked_rows_into(active, &cell.weight, &mut gates[l])
                    .map_err(AutogradError::from)?;
                lstm_update_rows_in_place(&gates[l], &cell.bias, active, state);
                gemms += 1;
            }
            after_step(t, active, states);
        }
        for buf in xh.drain(..).chain(gates.drain(..)) {
            pool.put(buf);
        }
        Ok(gemms)
    }
}

/// Caller-held working set for [`FrozenLstm::forward`]: per-layer
/// `[x | h]` staging and gate buffers. The `Vec`s keep their capacity
/// across calls; the matrices inside are pooled per call. Layer states
/// are updated in place, so there is no next-state buffer.
#[derive(Debug, Default)]
pub struct LstmScratch {
    xh: Vec<Matrix>,
    gates: Vec<Matrix>,
}

/// A [`crate::layers::GcnLayer`] compiled for tape-free inference.
#[derive(Debug)]
pub struct FrozenGcnLayer {
    weight: PackedWeight,
    bias: Matrix,
    out_dim: usize,
}

impl FrozenGcnLayer {
    /// Packs the layer weight and copies the bias.
    pub(crate) fn from_parts(
        weight: &Matrix,
        bias: &Matrix,
        out_dim: usize,
        precision: Precision,
    ) -> Self {
        let (k, n) = weight.shape();
        let mut packed = PackedWeight::new();
        packed.pack_for_inference(weight, panel_precision(precision, PanelRole::Encoder, k, n));
        Self {
            weight: packed,
            bias: bias.clone(),
            out_dim,
        }
    }

    /// Output node-feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// `relu(Â · x · W + b)` per node block: consumes the pooled
    /// `[batch * nodes, in_dim]` input and returns the pooled output.
    /// Adjacencies are borrowed per sample, exactly as in the taped
    /// [`crate::layers::GcnLayer::forward`].
    ///
    /// # Errors
    ///
    /// Returns a shape error when the block structure or feature dimension
    /// is inconsistent.
    pub fn forward(
        &self,
        pool: &mut BufferPool,
        x: Matrix,
        adjacency: &[impl std::borrow::Borrow<Matrix>],
        nodes: usize,
    ) -> Result<Matrix> {
        self.forward_each(pool, x, adjacency.len(), |b| adjacency[b].borrow(), nodes)
    }

    /// [`FrozenGcnLayer::forward`] with lazily fetched adjacency: block `b`
    /// of the batch is aggregated against `adj_of(b)` via the direct
    /// row-axpy kernel (no per-sample GEMM dispatch, no staging copies),
    /// then the whole `[batch * nodes, out_dim]` product runs as one
    /// prepacked GEMM. Bit-identical to the taped layer modulo the sign of
    /// zero (see `block_left_matmul_each_into`).
    ///
    /// # Errors
    ///
    /// Returns a shape error when the block structure or feature dimension
    /// is inconsistent.
    pub fn forward_each<'a>(
        &self,
        pool: &mut BufferPool,
        x: Matrix,
        blocks: usize,
        adj_of: impl Fn(usize) -> &'a Matrix,
        nodes: usize,
    ) -> Result<Matrix> {
        let _span = hwpr_obs::span("infer.gcn");
        let mut agg = pool.take_uninit(x.rows(), x.cols());
        x.block_left_matmul_each_into(blocks, nodes, adj_of, &mut agg)
            .map_err(AutogradError::from)?;
        pool.put(x);
        let mut out = pool.take_uninit(agg.rows(), self.out_dim);
        agg.matmul_prepacked_into(&self.weight, &mut out)
            .map_err(AutogradError::from)?;
        apply_bias_act(&mut out, Some(&self.bias), Act::Relu)?;
        pool.put(agg);
        Ok(out)
    }

    /// [`FrozenGcnLayer::forward_each`] restricted to one output node per
    /// sample: aggregates only adjacency row `adj_row_of(b)` (the global
    /// readout node's row) per block and returns `[blocks, out_dim]` —
    /// the rows the encoder readout actually consumes. Only valid for the
    /// **last** layer of a stack, where the other node rows are dead; the
    /// produced rows are bit-identical to the corresponding rows of
    /// [`FrozenGcnLayer::forward_each`] (see
    /// `block_left_matmul_row_each_into`).
    ///
    /// # Errors
    ///
    /// Returns a shape error when the block structure or feature dimension
    /// is inconsistent.
    pub fn forward_global_each<'a>(
        &self,
        pool: &mut BufferPool,
        x: Matrix,
        blocks: usize,
        adj_row_of: impl Fn(usize) -> &'a [f32],
        nodes: usize,
    ) -> Result<Matrix> {
        let _span = hwpr_obs::span("infer.gcn");
        let mut agg = pool.take_uninit(blocks, x.cols());
        x.block_left_matmul_row_each_into(blocks, nodes, adj_row_of, &mut agg)
            .map_err(AutogradError::from)?;
        pool.put(x);
        let mut out = pool.take_uninit(blocks, self.out_dim);
        agg.matmul_prepacked_into(&self.weight, &mut out)
            .map_err(AutogradError::from)?;
        apply_bias_act(&mut out, Some(&self.bias), Act::Relu)?;
        pool.put(agg);
        Ok(out)
    }

    /// The GEMM + bias + ReLU half of [`FrozenGcnLayer::forward_each`]
    /// against a borrowed, already-aggregated input: callers that share
    /// one `blockdiag(A) @ X` staging across several layer stacks (the
    /// aggregation is weight-independent) run each stack's first layer
    /// through this entry point.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `agg`'s width does not match the layer.
    pub fn forward_from_agg(&self, pool: &mut BufferPool, agg: &Matrix) -> Result<Matrix> {
        let _span = hwpr_obs::span("infer.gcn");
        let mut out = pool.take_uninit(agg.rows(), self.out_dim);
        agg.matmul_prepacked_into(&self.weight, &mut out)
            .map_err(AutogradError::from)?;
        apply_bias_act(&mut out, Some(&self.bias), Act::Relu)?;
        Ok(out)
    }
}

/// An [`crate::layers::Embedding`] compiled for tape-free inference (a
/// copied table; lookup is a row gather).
#[derive(Debug)]
pub struct FrozenEmbedding {
    table: Matrix,
    vocab: usize,
    dim: usize,
}

impl FrozenEmbedding {
    /// Copies the trained table out of the parameter store.
    pub(crate) fn from_parts(table: Matrix, vocab: usize, dim: usize) -> Self {
        Self { table, vocab, dim }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embeds `ids` into the caller's `[ids.len(), dim]` output rows.
    ///
    /// # Errors
    ///
    /// Returns an index error if any id is `>= vocab` (mirroring the taped
    /// `gather_rows`).
    pub fn forward_into(&self, ids: &[usize], out: &mut Matrix) -> Result<()> {
        for (r, &id) in ids.iter().enumerate() {
            if id >= self.vocab {
                return Err(NnError::Autograd(AutogradError::IndexOutOfRange {
                    index: id,
                    rows: self.vocab,
                }));
            }
            out.row_mut(r).copy_from_slice(self.table.row(id));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Embedding, GcnLayer, LayerRng, Linear, Lstm, Mlp, MlpConfig};
    use crate::{Binder, Params};
    use hwpr_autograd::{Tape, Var};
    use hwpr_tensor::Init;
    use rand_chacha::rand_core::SeedableRng;

    fn det_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| (((i * 31 + salt * 17) % 23) as f32 - 11.0) * 0.09)
                .collect(),
        )
        .unwrap()
    }

    /// The frozen-vs-tape error budget (see the module docs): max-abs
    /// difference at or below `1e-5`. The two paths currently agree
    /// bitwise, but only the budget is contractual.
    fn assert_within_budget(got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        let worst = got
            .iter()
            .zip(want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst <= 1e-5, "frozen-vs-tape max-abs {worst} > 1e-5");
    }

    #[test]
    fn frozen_linear_matches_tape_within_budget() {
        let mut params = Params::new();
        let fc = Linear::new(&mut params, "fc", 3, 2, Init::Xavier, 5, true);
        let x = det_matrix(4, 3, 1);
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let xv = binder.input(x.clone());
        let y = fc.forward_act(&mut binder, xv, Act::Tanh).unwrap();
        let expected = tape.value(y).clone();

        let frozen = fc.freeze(&params);
        let mut out = Matrix::zeros(4, 2);
        frozen.forward_act_into(&x, Act::Tanh, &mut out).unwrap();
        assert_within_budget(out.as_slice(), expected.as_slice());
    }

    #[test]
    fn frozen_mlp_matches_tape_within_budget() {
        let mut params = Params::new();
        let mut cfg = MlpConfig::new(3, vec![5, 4], 2, 11);
        cfg.dropout = 0.3; // elided at inference on both paths
        let mlp = Mlp::new(&mut params, "m", &cfg).unwrap();
        let x = det_matrix(6, 3, 2);
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let xv = binder.input(x.clone());
        let mut rng = LayerRng::seed_from_u64(0);
        let y = mlp.forward(&mut binder, xv, &mut rng).unwrap();
        let expected = tape.value(y).clone();

        let frozen = mlp.freeze(&params);
        assert_eq!(frozen.depth(), 3);
        assert_eq!(frozen.output_dim(), 2);
        let mut pool = BufferPool::new();
        let input = pool.take_copy(&x);
        let out = frozen.forward(&mut pool, input).unwrap();
        assert_within_budget(out.as_slice(), expected.as_slice());
    }

    #[test]
    fn frozen_lstm_matches_tape_within_budget() {
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, "lstm", 3, 4, 2, 9);
        let steps_data: Vec<Matrix> = (0..4).map(|i| det_matrix(2, 3, i + 3)).collect();
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let steps: Vec<Var> = steps_data.iter().map(|m| binder.input(m.clone())).collect();
        let h = lstm.forward(&mut binder, &steps).unwrap();
        let expected = tape.value(h).clone();

        let frozen = lstm.freeze(&params);
        assert_eq!(frozen.layers(), 2);
        assert_eq!(frozen.hidden_dim(), 4);
        assert_eq!(frozen.state_width(), 16);
        let mut pool = BufferPool::new();
        let mut scratch = LstmScratch::default();
        let cold = |pool: &mut BufferPool| vec![pool.take(2, 8), pool.take(2, 8)];
        let mut states = cold(&mut pool);
        let mut recorded = Vec::new();
        let gemms = frozen
            .forward(
                &mut pool,
                &steps_data,
                &[0, 0],
                &mut states,
                &mut scratch,
                |t, active, states| {
                    assert_eq!(active, 2);
                    recorded.push((t, states[0].clone(), states[1].clone()));
                },
            )
            .unwrap();
        assert_eq!(gemms, 8);
        let top: Vec<f32> = (0..2)
            .flat_map(|r| states[1].row(r)[..4].to_vec())
            .collect();
        assert_within_budget(&top, expected.as_slice());

        // resuming row 1 from its recorded state after two steps (row 0
        // stays cold) reproduces the cold run bit for bit, and only the
        // steps that ran issue GEMMs
        let mut resumed = cold(&mut pool);
        for (l, recorded_state) in [&recorded[1].1, &recorded[1].2].into_iter().enumerate() {
            resumed[l].row_mut(1).copy_from_slice(recorded_state.row(1));
        }
        let mut active_rows = Vec::new();
        let gemms = frozen
            .forward(
                &mut pool,
                &steps_data,
                &[0, 2],
                &mut resumed,
                &mut scratch,
                |_, active, _| active_rows.push(active),
            )
            .unwrap();
        assert_eq!(gemms, 8);
        assert_eq!(active_rows, [1, 1, 2, 2]);
        assert_eq!(resumed[1].as_slice(), states[1].as_slice());
        // a row resumed at the end of the sequence runs no step at all
        let mut done = cold(&mut pool);
        let gemms = frozen
            .forward(
                &mut pool,
                &steps_data,
                &[4, 4],
                &mut done,
                &mut scratch,
                |_, _, _| unreachable!("no step runs"),
            )
            .unwrap();
        assert_eq!(gemms, 0);

        let no_op = |_: usize, _: usize, _: &[Matrix]| {};
        assert!(frozen
            .forward(&mut pool, &[], &[0, 0], &mut states, &mut scratch, no_op)
            .is_err());
        assert!(frozen
            .forward(
                &mut pool,
                &steps_data,
                &[2, 0],
                &mut states,
                &mut scratch,
                no_op
            )
            .is_err());
        assert!(frozen
            .forward(
                &mut pool,
                &steps_data,
                &[0, 5],
                &mut states,
                &mut scratch,
                no_op
            )
            .is_err());
        assert!(frozen
            .forward(
                &mut pool,
                &steps_data,
                &[0],
                &mut states,
                &mut scratch,
                no_op
            )
            .is_err());
    }

    #[test]
    fn frozen_gcn_matches_tape_within_budget() {
        let mut params = Params::new();
        let gcn = GcnLayer::new(&mut params, "g", 4, 6, 1);
        let adj0 =
            crate::layers::normalize_adjacency(&Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]));
        let adj1 = Matrix::identity(2);
        let x = det_matrix(4, 4, 7); // batch 2, nodes 2
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let xv = binder.input(x.clone());
        let y = gcn
            .forward(&mut binder, xv, &[adj0.clone(), adj1.clone()], 2)
            .unwrap();
        let expected = tape.value(y).clone();

        let frozen = gcn.freeze(&params);
        assert_eq!(frozen.out_dim(), 6);
        let mut pool = BufferPool::new();
        let input = pool.take_copy(&x);
        let out = frozen
            .forward(&mut pool, input, &[&adj0, &adj1], 2)
            .unwrap();
        assert_within_budget(out.as_slice(), expected.as_slice());
    }

    #[test]
    fn frozen_embedding_matches_tape_and_validates() {
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "emb", 5, 3, 9);
        let ids = [0usize, 4, 2, 4];
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let y = emb.forward(&mut binder, &ids).unwrap();
        let expected = tape.value(y).clone();

        let frozen = emb.freeze(&params);
        assert_eq!(frozen.dim(), 3);
        let mut out = Matrix::zeros(4, 3);
        frozen.forward_into(&ids, &mut out).unwrap();
        assert_eq!(out.as_slice(), expected.as_slice());
        assert!(frozen.forward_into(&[5], &mut out).is_err());
    }
}
