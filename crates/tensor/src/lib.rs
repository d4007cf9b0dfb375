//! # keyformer-tensor
//!
//! The dense `f32` substrate of the Keyformer reproduction: what a decoder-only
//! transformer and its KV-cache policies call, and no more.
//!
//! * [`matrix::matmul_strided`], the tiled GEMM every projection and readout of
//!   the forward runs (a decode step is its one-row case), and
//!   [`matrix::matmul_packed_bt`] over [`matrix::PackedPanels`], the QKᵀ half of
//!   chunk attention. Both accumulate each output in one ascending chain from
//!   `+0.0`, so a row's bits do not depend on the rows multiplied with it.
//! * the row-major [`Matrix`] that stores weights and KV blocks,
//! * numerically stable [`ops::softmax`] / [`ops::log_softmax`],
//!   [`ops::layer_norm`] and [`ops::gelu_in_place`], each with the
//!   caller-buffer variants the allocation-free forward uses,
//! * top-k selection ([`topk`]) used by every scored eviction policy,
//! * seeded weight initialisation ([`init`]) so that every experiment is
//!   reproducible from a single `u64` seed.
//!
//! The crate intentionally avoids SIMD intrinsics and BLAS: its GEMM tiles are
//! shapes fixed at compile time, which the compiler vectorises for whatever
//! target it builds, and no multiply is fused with its add, so every result is
//! the same bits at any vector width.
//!
//! ```
//! use keyformer_tensor::matrix::matmul_strided;
//! use keyformer_tensor::{ops, Matrix};
//!
//! // One row `[1, 2]` times a 2 x 3 weight stored `d_in x d_out`.
//! let mut w = Matrix::zeros(0, 3);
//! w.push_row(&[1.0, 0.0, 2.0]);
//! w.push_row(&[0.0, 1.0, 3.0]);
//! let mut out = [0.0; 3];
//! matmul_strided(&[1.0, 2.0], 2, 1, 2, w.as_slice(), 3, &mut out, 3);
//! assert_eq!(out, [1.0, 2.0, 8.0]);
//!
//! let probs = ops::softmax(&[1.0, 2.0, 3.0]);
//! assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod init;
pub mod matrix;
pub mod ops;
pub mod topk;
pub mod vector;

pub use matrix::Matrix;
pub use topk::{top_k_indices, top_k_indices_into};
pub use vector::{argmax, dot, l2_norm, mean, variance};

/// Crate-wide error type: an operand of the wrong shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right/second operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let err = TensorError::ShapeMismatch {
            op: "vecmat",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let text = err.to_string();
        assert!(text.contains("vecmat"));
        assert!(text.contains("2x3"));
        assert!(text.contains("4x5"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
