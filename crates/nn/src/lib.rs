//! Neural-network substrate for the DeepStore reproduction.
//!
//! DeepStore (MICRO'19) accelerates *intelligent queries*: similarity search
//! where the similarity metric is itself a small neural network (a
//! *similarity-comparison network*, SCN) so no conventional index can be
//! built and every query must scan the feature database. This crate provides
//! everything those networks need:
//!
//! * [`Tensor`] — a small dense f32 tensor with the handful of ops the
//!   paper's workloads use (dense matmul, 2-D convolution, element-wise ops).
//! * [`Layer`] / [`LayerShape`] — the three layer families the paper's
//!   characterization study found in intelligent-query workloads
//!   (fully-connected, convolutional, element-wise; §3 Observation 2).
//! * [`Model`] — a sequential two-branch similarity network with functional
//!   inference, FLOP and weight accounting, and an ONNX-like serializable
//!   graph form ([`graph`]).
//! * [`zoo`] — the five applications of Table 1 (ReId, MIR, ESTP, TIR,
//!   TextQA) with layer shapes chosen to match the paper's feature sizes,
//!   layer counts, FLOPs and weight sizes.
//!
//! # Example
//!
//! ```
//! use deepstore_nn::zoo;
//!
//! let scn = zoo::tir().seeded(7);
//! let query = scn.random_feature(1);
//! let item = scn.random_feature(2);
//! let score = scn.similarity(&query, &item).unwrap();
//! assert!(score.is_finite());
//! ```

pub mod graph;
pub(crate) mod kernels;
pub mod layer;
pub mod metrics;
pub mod model;
pub mod multiquery;
pub mod quant;
pub mod scratch;
pub mod tensor;
pub mod zoo;

/// Name of the compute-kernel backend this process dispatches to:
/// `"avx"`, `"sse2"` or `"scalar"`. Selection is made once per process
/// from CPU feature detection, overridable with
/// `DEEPSTORE_FORCE_SCALAR=1`; all backends are bit-identical (see
/// `kernels` module docs), so this only matters for performance
/// reporting.
#[must_use]
pub fn kernel_backend() -> &'static str {
    kernels::backend_name()
}
pub use graph::ModelGraph;
pub use layer::{Activation, ElementWiseOp, Layer, LayerShape, MergeOp};
pub use model::{Model, ModelBuilder};
pub use multiquery::MultiQueryScorer;
pub use quant::{quantize_feature, BoundScorer, FeatureQuant, QuantMatrix, BOUND_BLOCK};
pub use scratch::InferenceScratch;
pub use tensor::Tensor;

use std::fmt;

/// Errors produced by the neural-network substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Two tensors (or a tensor and a layer) had incompatible shapes.
    ShapeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it actually received.
        found: String,
    },
    /// A model was executed before its weights were initialized.
    UninitializedWeights {
        /// Name of the offending layer.
        layer: String,
    },
    /// A serialized model graph could not be decoded.
    InvalidGraph(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            NnError::UninitializedWeights { layer } => {
                write!(f, "layer `{layer}` has uninitialized weights")
            }
            NnError::InvalidGraph(msg) => write!(f, "invalid model graph: {msg}"),
        }
    }
}

impl std::error::Error for NnError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, NnError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let e = NnError::ShapeMismatch {
            expected: "[2, 3]".into(),
            found: "[3, 2]".into(),
        };
        assert!(e.to_string().contains("shape mismatch"));
        let e = NnError::UninitializedWeights {
            layer: "fc1".into(),
        };
        assert!(e.to_string().contains("fc1"));
        let e = NnError::InvalidGraph("bad".into());
        assert!(e.to_string().contains("bad"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
