//! Tape-based reverse-mode automatic differentiation over
//! [`hwpr_tensor::Matrix`].
//!
//! A [`Tape`] records a DAG of operations as they execute; calling
//! [`Tape::backward`] on a scalar loss walks the tape in reverse and
//! accumulates gradients into every node. Parameters live *outside* the
//! tape (owned by the model) and are inserted as leaves each forward pass,
//! which keeps the tape free of inter-batch state.
//!
//! The op set is exactly what the HW-PR-NAS surrogate models need:
//! dense algebra (GEMM, broadcasts), pointwise nonlinearities, column
//! slicing for LSTM gates, row gathering for embeddings, a per-sample
//! constant-adjacency graph convolution for the GCN encoder, dropout, and
//! the paper's two ranking losses (listwise ListMLE, pairwise hinge).
//!
//! # Examples
//!
//! ```
//! use hwpr_autograd::Tape;
//! use hwpr_tensor::Matrix;
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
//! let w = tape.leaf(Matrix::from_rows(&[&[3.0], &[4.0]]));
//! let y = tape.matmul(x, w)?;
//! let loss = tape.mean_all(y);
//! tape.backward(loss)?;
//! // d(mean(x @ w)) / dw = x^T
//! assert_eq!(tape.grad(w).unwrap().as_slice(), &[1.0, 2.0]);
//! # Ok::<(), hwpr_autograd::AutogradError>(())
//! ```

#![warn(missing_docs)]
mod error;
mod fused;
mod ops;
mod tape;
mod telemetry;

pub use error::AutogradError;
pub use fused::{
    apply_bias_act, lstm_bias_gates, lstm_pack_xh, lstm_state_update, lstm_update_rows_in_place,
};
pub use tape::{Act, Tape, Var};

/// Convenience alias for fallible autograd operations.
pub type Result<T> = std::result::Result<T, AutogradError>;

#[cfg(test)]
pub(crate) mod check;

#[cfg(test)]
mod proptests;
