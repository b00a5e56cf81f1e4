//! Two-branch similarity models (SCN / QCN).
//!
//! A [`Model`] describes the online half of Figure 1: given a query feature
//! vector and a dataset feature vector, merge them ([`MergeOp`]) and run the
//! merged tensor through a stack of layers to produce a similarity score.
//! The same type also serves as the Query Comparison Network (QCN) of the
//! query cache (§4.6), which compares two *query* feature vectors.

use crate::layer::{Activation, Layer, LayerShape, MergeOp};
use crate::scratch::InferenceScratch;
use crate::{NnError, Result, Tensor};
use serde::{Deserialize, Serialize};

/// A two-branch similarity-comparison network.
///
/// # Example
///
/// ```
/// use deepstore_nn::{Activation, LayerShape, MergeOp, ModelBuilder, ElementWiseOp};
///
/// let model = ModelBuilder::new("toy", 8)
///     .merge(MergeOp::ElementWise(ElementWiseOp::Mul))
///     .dense(8, 4, Activation::Relu)
///     .dense(4, 1, Activation::Sigmoid)
///     .build()
///     .seeded(3);
/// let q = model.random_feature(1);
/// let d = model.random_feature(2);
/// let s = model.similarity(&q, &d).unwrap();
/// assert!((0.0..=1.0).contains(&s));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    name: String,
    feature_len: usize,
    merge: MergeOp,
    layers: Vec<Layer>,
}

impl Model {
    /// The model's name (e.g. `"tir"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Length (in f32 elements) of one feature vector.
    pub fn feature_len(&self) -> usize {
        self.feature_len
    }

    /// Size in bytes of one feature vector at fp32.
    pub fn feature_bytes(&self) -> usize {
        self.feature_len * 4
    }

    /// How the two branches are merged.
    pub fn merge(&self) -> MergeOp {
        self.merge
    }

    /// The layer stack, in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Layer shapes only (what the timing/energy simulators consume).
    /// Includes the merge as an element-wise pseudo-layer when applicable,
    /// mirroring Table 1's element-wise layer count.
    pub fn layer_shapes(&self) -> Vec<LayerShape> {
        let mut shapes = Vec::with_capacity(self.layers.len() + 1);
        if let MergeOp::ElementWise(op) = self.merge {
            shapes.push(LayerShape::ElementWise {
                len: self.feature_len,
                op,
            });
        }
        shapes.extend(self.layers.iter().map(|l| l.shape));
        shapes
    }

    /// Total FLOPs for one similarity comparison (Table 1 "Total FLOPs").
    pub fn total_flops(&self) -> u64 {
        self.layer_shapes().iter().map(|s| s.flops()).sum()
    }

    /// Total MAC count for one comparison.
    pub fn total_macs(&self) -> u64 {
        self.layer_shapes().iter().map(|s| s.macs()).sum()
    }

    /// Total weight size in bytes (Table 1 "Total Weight Size").
    pub fn weight_bytes(&self) -> u64 {
        self.layer_shapes().iter().map(|s| s.weight_bytes()).sum()
    }

    /// Number of convolutional layers (Table 1 "#CONV layers").
    pub fn conv_layer_count(&self) -> usize {
        self.layer_shapes().iter().filter(|s| s.is_conv()).count()
    }

    /// Number of fully-connected layers (Table 1 "#FC layers").
    pub fn fc_layer_count(&self) -> usize {
        self.layer_shapes().iter().filter(|s| s.is_dense()).count()
    }

    /// Number of element-wise layers (Table 1 "#Element-wise layers").
    pub fn element_wise_layer_count(&self) -> usize {
        self.layer_shapes()
            .iter()
            .filter(|s| s.is_element_wise())
            .count()
    }

    /// Returns a copy of the model with all weights deterministically
    /// initialized from `seed`.
    pub fn seeded(mut self, seed: u64) -> Model {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.seed_weights(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64),
            );
        }
        self
    }

    /// Returns a copy seeded with *metric* weights: a deterministic
    /// initialization under which the similarity score is ordered by
    /// actual feature similarity, standing in for a trained model in
    /// examples and retrieval tests.
    ///
    /// Hidden layers get non-negative weights; the head's scoring unit is
    /// sign-flipped by merge type: for a [`MergeOp::ElementWise`]
    /// *subtract* merge the head is negative (identical inputs merge to
    /// zero, giving the maximal score), while *multiply*/concat merges use
    /// a positive head (aligned inputs give large positive products).
    /// Only element-wise merges carry a formal guarantee; concat-merge
    /// models remain heuristic.
    pub fn seeded_metric(self, seed: u64) -> Model {
        let mut model = self.seeded(seed);
        let flip_nonneg = |t: &mut Tensor| {
            for v in t.data_mut() {
                *v = v.abs();
            }
        };
        let n = model.layers.len();
        for (i, layer) in model.layers.iter_mut().enumerate() {
            if let Some(w) = &mut layer.weights {
                flip_nonneg(w);
                if i + 1 == n {
                    let head_sign = match model.merge {
                        MergeOp::ElementWise(crate::ElementWiseOp::Sub) => -1.0f32,
                        _ => 1.0,
                    };
                    // Only the scoring unit (first output row) is signed.
                    let shape = layer.shape;
                    if let LayerShape::Dense { in_features, .. } = shape {
                        for v in &mut w.data_mut()[..in_features] {
                            *v *= head_sign;
                        }
                    }
                }
            }
        }
        model
    }

    /// True once every weighted layer has materialized weights.
    pub fn is_seeded(&self) -> bool {
        self.layers
            .iter()
            .all(|l| matches!(l.shape, LayerShape::ElementWise { .. }) || l.weights.is_some())
    }

    /// Generates a deterministic pseudo-random feature vector of the right
    /// length for this model.
    pub fn random_feature(&self, seed: u64) -> Tensor {
        Tensor::random(vec![self.feature_len], 1.0, seed)
    }

    /// Computes the similarity score between a query feature vector and a
    /// dataset feature vector: merge, run the layer stack, reduce the final
    /// tensor to a scalar (first element if the head ends in a single unit
    /// or a pair, otherwise the mean).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if either vector has the wrong
    /// length, or [`NnError::UninitializedWeights`] if the model has not
    /// been [`seeded`](Model::seeded) (or loaded with trained weights).
    pub fn similarity(&self, query: &Tensor, item: &Tensor) -> Result<f32> {
        let out = self.forward_pair(query, item)?;
        // Two-unit heads are (match, no-match) logits; single-unit heads are
        // the score directly; wider heads are reduced by mean.
        Ok(match out.len() {
            0 => 0.0,
            1 | 2 => out.data()[0],
            _ => out.mean(),
        })
    }

    /// Computes the similarity score without allocating: the merge and
    /// every layer activation land in the caller's [`InferenceScratch`]
    /// buffers, ping-ponging between the two activation arenas. The item
    /// arrives as a raw `&[f32]` slice because the scan hot path decodes
    /// features straight out of flash pages and never materializes a
    /// [`Tensor`] for them.
    ///
    /// Shares every compute kernel with [`Model::similarity`] (see
    /// `crate::kernels`), so the two paths return bit-identical scores.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::similarity`].
    pub fn similarity_scratch(
        &self,
        query: &Tensor,
        item: &[f32],
        scratch: &mut InferenceScratch,
    ) -> Result<f32> {
        if query.len() != self.feature_len || item.len() != self.feature_len {
            return Err(NnError::ShapeMismatch {
                expected: format!("two feature vectors of length {}", self.feature_len),
                found: format!("lengths {} and {}", query.len(), item.len()),
            });
        }
        let q = query.data();
        scratch.merge.clear();
        match self.merge {
            MergeOp::Concat => {
                scratch.merge.extend_from_slice(q);
                scratch.merge.extend_from_slice(item);
            }
            MergeOp::ElementWise(op) => match op {
                crate::ElementWiseOp::Add => {
                    scratch.merge.extend(q.iter().zip(item).map(|(a, b)| a + b));
                }
                crate::ElementWiseOp::Sub => {
                    scratch.merge.extend(q.iter().zip(item).map(|(a, b)| a - b));
                }
                crate::ElementWiseOp::Mul => {
                    scratch.merge.extend(q.iter().zip(item).map(|(a, b)| a * b));
                }
            },
        }
        // Ping-pong through the layer stack: read from one arena, write
        // into the other. Disjoint-field borrows keep this allocation- and
        // copy-free.
        let mut in_ping = false;
        for (i, layer) in self.layers.iter().enumerate() {
            let InferenceScratch { ping, pong, merge } = scratch;
            if i == 0 {
                layer.forward_into(merge, ping)?;
                in_ping = true;
            } else if in_ping {
                layer.forward_into(ping, pong)?;
                in_ping = false;
            } else {
                layer.forward_into(pong, ping)?;
                in_ping = true;
            }
        }
        let out: &[f32] = if self.layers.is_empty() {
            &scratch.merge
        } else if in_ping {
            &scratch.ping
        } else {
            &scratch.pong
        };
        // Same reduction as `similarity` (Tensor::mean sums in the same
        // order), so the scalar is bit-identical too.
        Ok(match out.len() {
            0 => 0.0,
            1 | 2 => out[0],
            _ => out.iter().sum::<f32>() / out.len() as f32,
        })
    }

    /// Runs the full forward pass and returns the raw head output.
    ///
    /// # Errors
    ///
    /// Same as [`Model::similarity`].
    pub fn forward_pair(&self, query: &Tensor, item: &Tensor) -> Result<Tensor> {
        if query.len() != self.feature_len || item.len() != self.feature_len {
            return Err(NnError::ShapeMismatch {
                expected: format!("two feature vectors of length {}", self.feature_len),
                found: format!("lengths {} and {}", query.len(), item.len()),
            });
        }
        let mut x = match self.merge {
            MergeOp::Concat => query.concat(item),
            MergeOp::ElementWise(op) => match op {
                crate::ElementWiseOp::Add => query.add(item)?,
                crate::ElementWiseOp::Sub => query.sub(item)?,
                crate::ElementWiseOp::Mul => query.mul(item)?,
            },
        };
        for layer in &self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }
}

/// Builder for [`Model`] (C-BUILDER).
///
/// Layers are appended in execution order; [`ModelBuilder::build`] validates
/// that consecutive layer shapes are compatible and panics on programmer
/// error (shape validation is a construction-time concern, not a runtime
/// input).
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    name: String,
    feature_len: usize,
    merge: MergeOp,
    layers: Vec<Layer>,
}

impl ModelBuilder {
    /// Starts a model with the given name and per-branch feature length.
    pub fn new(name: impl Into<String>, feature_len: usize) -> Self {
        ModelBuilder {
            name: name.into(),
            feature_len,
            merge: MergeOp::Concat,
            layers: Vec::new(),
        }
    }

    /// Sets the branch-merge operation (default: concatenation).
    pub fn merge(mut self, merge: MergeOp) -> Self {
        self.merge = merge;
        self
    }

    /// Appends a fully-connected layer.
    pub fn dense(mut self, in_features: usize, out_features: usize, act: Activation) -> Self {
        let n = self.layers.len();
        self.layers.push(Layer::new(
            format!("fc{n}"),
            LayerShape::Dense {
                in_features,
                out_features,
            },
            act,
        ));
        self
    }

    /// Appends a 2-D convolution layer with "same" padding.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        mut self,
        in_channels: usize,
        out_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: (usize, usize),
        groups: usize,
        act: Activation,
    ) -> Self {
        let n = self.layers.len();
        self.layers.push(Layer::new(
            format!("conv{n}"),
            LayerShape::Conv2d {
                in_channels,
                out_channels,
                in_h,
                in_w,
                kernel,
                stride,
                groups,
            },
            act,
        ));
        self
    }

    /// Finalizes the model.
    ///
    /// # Panics
    ///
    /// Panics if consecutive layer shapes are incompatible (the output
    /// length of layer *i* must equal the input length of layer *i+1*, and
    /// the first layer must accept the merged feature length). These are
    /// construction-time programmer errors, not runtime conditions.
    pub fn build(self) -> Model {
        let mut expected = match self.merge {
            MergeOp::Concat => self.feature_len * 2,
            MergeOp::ElementWise(_) => self.feature_len,
        };
        for layer in &self.layers {
            let found = layer.shape.input_len();
            assert_eq!(
                found, expected,
                "layer `{}` expects {found} inputs but the previous stage produces {expected}",
                layer.name
            );
            expected = layer.shape.output_len();
        }
        Model {
            name: self.name,
            feature_len: self.feature_len,
            merge: self.merge,
            layers: self.layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ElementWiseOp;

    fn toy() -> Model {
        ModelBuilder::new("toy", 4)
            .merge(MergeOp::ElementWise(ElementWiseOp::Sub))
            .dense(4, 3, Activation::Relu)
            .dense(3, 1, Activation::Sigmoid)
            .build()
    }

    #[test]
    fn accounting_matches_layer_sums() {
        let m = toy();
        // EW merge (4 MACs/FLOPs) + fc 4x3 + fc 3x1.
        assert_eq!(m.total_macs(), 4 + 12 + 3);
        assert_eq!(m.total_flops(), 4 + 24 + 6);
        assert_eq!(m.weight_bytes(), ((12 + 3) + (3 + 1)) * 4);
        assert_eq!(m.fc_layer_count(), 2);
        assert_eq!(m.element_wise_layer_count(), 1);
        assert_eq!(m.conv_layer_count(), 0);
    }

    #[test]
    fn concat_merge_doubles_first_layer_input() {
        let m = ModelBuilder::new("c", 4)
            .dense(8, 2, Activation::Identity)
            .build();
        assert_eq!(m.element_wise_layer_count(), 0);
        assert_eq!(m.layer_shapes().len(), 1);
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn build_panics_on_incompatible_layers() {
        ModelBuilder::new("bad", 4)
            .dense(9, 2, Activation::Identity) // concat gives 8, not 9
            .build();
    }

    #[test]
    fn similarity_requires_seeding() {
        let m = toy();
        let q = m.random_feature(1);
        let d = m.random_feature(2);
        assert!(matches!(
            m.similarity(&q, &d),
            Err(NnError::UninitializedWeights { .. })
        ));
    }

    #[test]
    fn similarity_is_deterministic_and_bounded_by_sigmoid() {
        let m = toy().seeded(11);
        let q = m.random_feature(1);
        let d = m.random_feature(2);
        let s1 = m.similarity(&q, &d).unwrap();
        let s2 = m.similarity(&q, &d).unwrap();
        assert_eq!(s1, s2);
        assert!((0.0..=1.0).contains(&s1));
    }

    #[test]
    fn identical_inputs_score_higher_than_random_under_sub_merge() {
        // With a Sub merge, identical vectors merge to zero, giving a fixed
        // head input; the score must at least be finite & deterministic.
        let m = toy().seeded(11);
        let q = m.random_feature(7);
        let same = m.similarity(&q, &q).unwrap();
        assert!(same.is_finite());
    }

    #[test]
    fn similarity_rejects_wrong_lengths() {
        let m = toy().seeded(1);
        let q = Tensor::from_slice(&[0.0; 3]);
        let d = m.random_feature(2);
        assert!(m.similarity(&q, &d).is_err());
    }

    #[test]
    fn scratch_similarity_matches_reference_bitwise() {
        for m in [
            crate::zoo::tir().seeded(3),
            crate::zoo::mir().seeded(4),
            crate::zoo::textqa().seeded(5),
            crate::zoo::reid().seeded(6), // conv layers
            toy().seeded(7),
        ] {
            let mut scratch = crate::InferenceScratch::for_model(&m);
            let q = m.random_feature(1);
            for i in 2..6 {
                let d = m.random_feature(i);
                let fast = m.similarity_scratch(&q, d.data(), &mut scratch).unwrap();
                let reference = m.similarity(&q, &d).unwrap();
                assert_eq!(fast.to_bits(), reference.to_bits(), "{}", m.name());
            }
        }
    }

    #[test]
    fn scratch_similarity_rejects_wrong_lengths() {
        let m = toy().seeded(1);
        let mut scratch = crate::InferenceScratch::for_model(&m);
        let q = m.random_feature(1);
        assert!(m.similarity_scratch(&q, &[0.0; 3], &mut scratch).is_err());
        let short = Tensor::from_slice(&[0.0; 3]);
        let d = m.random_feature(2);
        assert!(m
            .similarity_scratch(&short, d.data(), &mut scratch)
            .is_err());
    }

    #[test]
    fn seeded_is_reported() {
        let m = toy();
        assert!(!m.is_seeded());
        assert!(m.seeded(1).is_seeded());
    }

    #[test]
    fn feature_bytes_is_4x_len() {
        assert_eq!(toy().feature_bytes(), 16);
    }

    #[test]
    fn metric_seeding_ranks_duplicates_first_for_sub_merge() {
        let m = crate::zoo::reid().seeded_metric(5);
        let q = m.random_feature(1);
        let self_score = m.similarity(&q, &q).unwrap();
        for i in 2..12 {
            let other = m.random_feature(i);
            let s = m.similarity(&q, &other).unwrap();
            assert!(
                self_score >= s,
                "random item outranked duplicate: {s} > {self_score}"
            );
        }
    }

    #[test]
    fn metric_seeding_ranks_duplicates_first_for_mul_merge() {
        for m in [
            crate::zoo::tir().seeded_metric(6),
            crate::zoo::textqa().seeded_metric(6),
        ] {
            let q = m.random_feature(1);
            let self_score = m.similarity(&q, &q).unwrap();
            for i in 2..12 {
                let s = m.similarity(&q, &m.random_feature(i)).unwrap();
                assert!(self_score > s, "{}: {s} >= {self_score}", m.name());
            }
        }
    }

    #[test]
    fn metric_seeding_prefers_nearer_neighbours() {
        let m = crate::zoo::reid().seeded_metric(9);
        let q = m.random_feature(0);
        let near_noise = Tensor::random(vec![m.feature_len()], 0.05, 77);
        let far_noise = Tensor::random(vec![m.feature_len()], 0.8, 78);
        let near = q.add(&near_noise).unwrap();
        let far = q.add(&far_noise).unwrap();
        let sn = m.similarity(&q, &near).unwrap();
        let sf = m.similarity(&q, &far).unwrap();
        assert!(sn > sf, "near {sn} !> far {sf}");
    }
}
