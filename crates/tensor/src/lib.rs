//! # keyformer-tensor
//!
//! A minimal, dependency-light dense `f32` tensor substrate used by the Keyformer
//! reproduction. It provides exactly the operations a decoder-only transformer and
//! its KV-cache policies need:
//!
//! * a row-major [`Matrix`] type with matrix multiplication and transposition,
//! * numerically stable [`ops::softmax`] / [`ops::log_softmax`],
//! * [`ops::layer_norm`], [`ops::gelu`] and friends,
//! * top-k selection ([`topk`]) used by every eviction policy,
//! * seeded weight initialisation ([`init`]) so that every experiment is
//!   reproducible from a single `u64` seed.
//!
//! The crate intentionally avoids SIMD/BLAS: the reproduction runs laptop-scale
//! models where clarity and determinism matter more than peak FLOPs.
//!
//! ```
//! use keyformer_tensor::{Matrix, ops};
//!
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.get(1, 0), 3.0);
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
pub use topk::{top_k_indices, top_k_indices_into, ArgMax};
pub use vector::{add, argmax, dot, l2_norm, mean, scale, variance};

/// Crate-wide error type for shape mismatches and invalid arguments.
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
    /// An argument was structurally invalid (empty input, zero dimension, ...).
    InvalidArgument(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
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
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let text = err.to_string();
        assert!(text.contains("matmul"));
        assert!(text.contains("2x3"));
        assert!(text.contains("4x5"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
