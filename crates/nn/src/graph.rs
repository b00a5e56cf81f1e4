//! Serializable model graphs (the `loadModel` exchange format).
//!
//! The paper's `loadModel` API (Table 2) transfers "the computational graph
//! and the model weights, specified in the ONNX format" to the SSD. We use a
//! JSON-serializable [`ModelGraph`] playing the same role: a self-contained
//! description of an SCN/QCN that the in-storage runtime can register and
//! later instantiate.

use crate::{Model, NnError, Result};
use serde::{Deserialize, Serialize};

/// A serialized computational graph plus weights, as shipped over the
/// `loadModel` API.
///
/// # Example
///
/// ```
/// use deepstore_nn::{zoo, ModelGraph};
///
/// let model = zoo::textqa().seeded(1);
/// let graph = ModelGraph::from_model(&model);
/// let bytes = graph.to_bytes().unwrap();
/// let restored = ModelGraph::from_bytes(&bytes).unwrap().into_model();
/// assert_eq!(restored.name(), "textqa");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelGraph {
    /// Format version, for forward compatibility.
    version: u32,
    /// The embedded model (layers, merge op, and any materialized weights).
    model: Model,
}

impl ModelGraph {
    /// Current serialization format version.
    pub const VERSION: u32 = 1;

    /// Wraps a model (with or without weights) into a shippable graph.
    pub fn from_model(model: &Model) -> Self {
        ModelGraph {
            version: Self::VERSION,
            model: model.clone(),
        }
    }

    /// Unwraps the embedded model.
    pub fn into_model(self) -> Model {
        self.model
    }

    /// Borrows the embedded model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Serializes the graph to bytes (JSON).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] if serialization fails (which only
    /// happens on pathological float values).
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        serde_json::to_vec(self).map_err(|e| NnError::InvalidGraph(e.to_string()))
    }

    /// Deserializes a graph from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] on malformed input or an
    /// unsupported format version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let graph: ModelGraph =
            serde_json::from_slice(bytes).map_err(|e| NnError::InvalidGraph(e.to_string()))?;
        if graph.version != Self::VERSION {
            return Err(NnError::InvalidGraph(format!(
                "unsupported graph version {} (expected {})",
                graph.version,
                Self::VERSION
            )));
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn roundtrip_preserves_model() {
        let m = zoo::textqa().seeded(42);
        let g = ModelGraph::from_model(&m);
        let bytes = g.to_bytes().unwrap();
        let back = ModelGraph::from_bytes(&bytes).unwrap();
        assert_eq!(back.model(), &m);
        assert_eq!(back.into_model().total_flops(), m.total_flops());
    }

    #[test]
    fn roundtrip_without_weights() {
        let m = zoo::tir();
        let g = ModelGraph::from_model(&m);
        let back = ModelGraph::from_bytes(&g.to_bytes().unwrap()).unwrap();
        assert!(!back.model().is_seeded());
    }

    #[test]
    fn rejects_garbage() {
        assert!(ModelGraph::from_bytes(b"not json").is_err());
    }

    #[test]
    fn rejects_wrong_version() {
        let m = zoo::textqa();
        let mut g = ModelGraph::from_model(&m);
        g.version = 99;
        let bytes = serde_json::to_vec(&g).unwrap();
        assert!(matches!(
            ModelGraph::from_bytes(&bytes),
            Err(NnError::InvalidGraph(_))
        ));
    }
}
