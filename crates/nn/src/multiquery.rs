//! Multi-query scoring: one decoded item, many queries, one weight pass.
//!
//! The in-storage scan is query-independent on its database side — the
//! flash pages it walks and the features it decodes are the same for
//! every concurrently pending query. A [`MultiQueryScorer`] exploits
//! that: it is built once per scan for a *batch* of query feature
//! vectors and scores each decoded item against all of them, streaming
//! every dense weight row **once per item** instead of once per
//! (item, query) pair.
//!
//! Queries are packed lane-transposed into blocks of eight so the fused
//! dense kernel can keep eight independent accumulator sets live while
//! reusing each weight row from L1. A partial final block is either
//! padded (replicating the last query; pad lanes are computed and
//! discarded) or routed through the allocation-free single-query
//! scratch path, whichever wastes less work. Convolutional models take
//! the scratch path for every query — they still share the batch's
//! single decode pass.
//!
//! Every lane replays the single-query kernel's exact f32 operation
//! order, so batch scores are bit-identical to
//! [`Model::similarity_scratch`] (and therefore to
//! [`Model::similarity`]).

use crate::kernels::{dense_into_multi, QUERY_LANES};
use crate::layer::{LayerShape, MergeOp};
use crate::scratch::InferenceScratch;
use crate::{ElementWiseOp, Model, NnError, Result, Tensor};

/// A partial final block with this many queries or fewer runs through
/// the per-query scratch path; with more, it is padded to a full fused
/// block. Padding costs eight lanes of fused compute regardless of how
/// many are live; the scratch path costs one full weight stream per
/// query — the crossover sits at a small remainder.
const PAD_THRESHOLD: usize = 3;

/// Scores one decoded database feature against a fixed batch of
/// queries. One scorer per scan worker; not shared across threads.
///
/// # Example
///
/// ```
/// use deepstore_nn::{zoo, MultiQueryScorer};
///
/// let model = zoo::tir().seeded(1);
/// let queries: Vec<_> = (0..3).map(|i| model.random_feature(i)).collect();
/// let mut scorer = MultiQueryScorer::new(&model, &queries).unwrap();
/// let item = model.random_feature(99);
/// let mut scores = Vec::new();
/// scorer.score_into(&model, item.data(), &mut scores).unwrap();
/// for (q, s) in queries.iter().zip(&scores) {
///     assert_eq!(s.to_bits(), model.similarity(q, &item).unwrap().to_bits());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct MultiQueryScorer {
    feature_len: usize,
    /// Lane-transposed query blocks, `feature_len * QUERY_LANES` each.
    /// The final block may carry pad lanes replicating the last query.
    fused_qt: Vec<Vec<f32>>,
    /// Live (non-pad) lanes of the final fused block.
    last_block_lanes: usize,
    /// Queries scored via the single-query scratch path (conv models,
    /// or a small partial final block), in batch order after the fused
    /// ones.
    tail: Vec<Tensor>,
    /// Lane-transposed merge buffer for the fused path. Sized like the
    /// activation arenas because the buffers rotate through the layer
    /// stack.
    merge_t: Vec<f32>,
    /// Ping-pong activation arenas for the fused path.
    ping: Vec<f32>,
    pong: Vec<f32>,
    /// Scratch for the per-query tail path.
    scratch: InferenceScratch,
}

impl MultiQueryScorer {
    /// Builds a scorer for `queries` against `model`. The query vectors
    /// are captured (transposed or cloned) at construction: the scorer
    /// is self-contained for the duration of a scan.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if any query's length differs
    /// from the model's feature length, or if `queries` is empty.
    pub fn new(model: &Model, queries: &[Tensor]) -> Result<Self> {
        let flen = model.feature_len();
        if queries.is_empty() {
            return Err(NnError::ShapeMismatch {
                expected: "at least one query".into(),
                found: "empty batch".into(),
            });
        }
        for q in queries {
            if q.len() != flen {
                return Err(NnError::ShapeMismatch {
                    expected: format!("[{flen}]"),
                    found: format!("[{}]", q.len()),
                });
            }
        }

        let fusable = model
            .layers()
            .iter()
            .all(|l| !matches!(l.shape, LayerShape::Conv2d { .. }));
        let full_blocks = queries.len() / QUERY_LANES;
        let remainder = queries.len() % QUERY_LANES;
        let fused_count = if !fusable {
            0
        } else if remainder > PAD_THRESHOLD {
            queries.len()
        } else {
            full_blocks * QUERY_LANES
        };

        let mut fused_qt = Vec::new();
        let mut last_block_lanes = QUERY_LANES;
        for chunk in queries[..fused_count].chunks(QUERY_LANES) {
            let mut qt = vec![0.0f32; flen * QUERY_LANES];
            for (l, q) in chunk.iter().enumerate() {
                for (k, &v) in q.data().iter().enumerate() {
                    qt[k * QUERY_LANES + l] = v;
                }
            }
            // Pad lanes replicate the last live query so they traverse
            // the same numeric range as a real lane (no zero-input
            // special cases); their scores are discarded.
            let last = chunk.last().expect("chunks are non-empty");
            for l in chunk.len()..QUERY_LANES {
                for (k, &v) in last.data().iter().enumerate() {
                    qt[k * QUERY_LANES + l] = v;
                }
            }
            last_block_lanes = chunk.len();
            fused_qt.push(qt);
        }

        let merged = match model.merge() {
            MergeOp::Concat => flen * 2,
            MergeOp::ElementWise(_) => flen,
        };
        let width = model
            .layers()
            .iter()
            .map(|l| l.shape.output_len())
            .fold(merged, usize::max);

        Ok(MultiQueryScorer {
            feature_len: flen,
            fused_qt,
            last_block_lanes,
            tail: queries[fused_count..].to_vec(),
            merge_t: Vec::with_capacity(width * QUERY_LANES),
            ping: Vec::with_capacity(width * QUERY_LANES),
            pong: Vec::with_capacity(width * QUERY_LANES),
            scratch: InferenceScratch::for_model(model),
        })
    }

    /// Scores `item` against every query of the batch, refilling
    /// `scores` in batch order. `model` must be the model the scorer
    /// was built for. After the first call, the scorer performs no
    /// heap allocations (give `scores` capacity for one entry per
    /// query).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::similarity_scratch`].
    pub fn score_into(&mut self, model: &Model, item: &[f32], scores: &mut Vec<f32>) -> Result<()> {
        if item.len() != self.feature_len || model.feature_len() != self.feature_len {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{}]", self.feature_len),
                found: format!("[{}]", item.len()),
            });
        }
        scores.clear();
        for (b, qt) in self.fused_qt.iter().enumerate() {
            let live = if b + 1 == self.fused_qt.len() {
                self.last_block_lanes
            } else {
                QUERY_LANES
            };
            fused_block(
                model,
                qt,
                item,
                &mut self.merge_t,
                &mut self.ping,
                &mut self.pong,
                live,
                scores,
            )?;
        }
        for q in &self.tail {
            scores.push(model.similarity_scratch(q, item, &mut self.scratch)?);
        }
        Ok(())
    }
}

/// Runs the fused pipeline for one lane-transposed query block, pushing
/// the `live` lanes' scores. Mirrors `Model::similarity_scratch` stage
/// for stage; each lane's operation order is identical to the
/// single-query path, which is what keeps the two bit-identical.
#[allow(clippy::too_many_arguments)]
fn fused_block(
    model: &Model,
    qt: &[f32],
    item: &[f32],
    merge_t: &mut Vec<f32>,
    ping: &mut Vec<f32>,
    pong: &mut Vec<f32>,
    live: usize,
    scores: &mut Vec<f32>,
) -> Result<()> {
    const L: usize = QUERY_LANES;
    // Merge, lane-wise: one scalar op per lane, as in the scratch path.
    merge_t.clear();
    match model.merge() {
        MergeOp::Concat => {
            merge_t.extend_from_slice(qt);
            for &v in item {
                merge_t.extend(std::iter::repeat_n(v, L));
            }
        }
        MergeOp::ElementWise(op) => {
            for (k, &v) in item.iter().enumerate() {
                let lanes = &qt[k * L..(k + 1) * L];
                match op {
                    ElementWiseOp::Add => merge_t.extend(lanes.iter().map(|q| q + v)),
                    ElementWiseOp::Sub => merge_t.extend(lanes.iter().map(|q| q - v)),
                    ElementWiseOp::Mul => merge_t.extend(lanes.iter().map(|q| q * v)),
                }
            }
        }
    }

    // Layer stack. The three buffers rotate: `src` always holds the
    // current activations, `dst` receives the next layer's output, and
    // the rotation retires the oldest buffer back into circulation (its
    // contents are dead once the following layer has consumed them).
    let mut src: &mut Vec<f32> = merge_t;
    let mut dst: &mut Vec<f32> = ping;
    let mut spare: &mut Vec<f32> = pong;
    for layer in model.layers() {
        match layer.shape {
            LayerShape::Dense { in_features, .. } => {
                if src.len() != in_features * L {
                    return Err(NnError::ShapeMismatch {
                        expected: format!("[{in_features}] per lane"),
                        found: format!("[{}] per lane", src.len() / L),
                    });
                }
                let (w, b) = match (&layer.weights, &layer.bias) {
                    (Some(w), Some(b)) => (w, b),
                    _ => {
                        return Err(NnError::UninitializedWeights {
                            layer: layer.name.clone(),
                        })
                    }
                };
                dense_into_multi(w.data(), b.data(), src, dst);
            }
            LayerShape::ElementWise { .. } => {
                dst.clear();
                dst.extend_from_slice(src);
            }
            LayerShape::Conv2d { .. } => unreachable!("conv models take the scratch path"),
        }
        layer.activation.apply_slice(dst);
        std::mem::swap(&mut src, &mut dst);
        std::mem::swap(&mut dst, &mut spare);
    }

    // Head reduction per lane, in the scratch path's order.
    let out_t: &[f32] = src;
    let rows = out_t.len() / L;
    for l in 0..live {
        scores.push(match rows {
            0 => 0.0,
            1 | 2 => out_t[l],
            _ => (0..rows).map(|j| out_t[j * L + l]).sum::<f32>() / rows as f32,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn batch_matches_single(model: &Model, nq: usize) {
        let queries: Vec<Tensor> = (0..nq as u64).map(|i| model.random_feature(i)).collect();
        let mut scorer = MultiQueryScorer::new(model, &queries).unwrap();
        let mut scores = Vec::new();
        for seed in 100..104u64 {
            let item = model.random_feature(seed);
            scorer.score_into(model, item.data(), &mut scores).unwrap();
            assert_eq!(scores.len(), nq);
            for (i, q) in queries.iter().enumerate() {
                let reference = model.similarity(q, &item).unwrap();
                assert_eq!(
                    scores[i].to_bits(),
                    reference.to_bits(),
                    "{} query {i}/{nq}",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn fused_scores_are_bit_identical_across_batch_widths() {
        // 1..=2 tail-only, 3 tail at the threshold, 7 padded partial
        // block, 8 exact, 9 and 17 full block(s) + small tail, 12 full
        // block + padded remainder.
        for m in [
            zoo::tir().seeded(3),
            zoo::textqa().seeded(4),
            zoo::mir().seeded(5),
        ] {
            for nq in [1, 2, 3, 7, 8, 9, 12, 17] {
                batch_matches_single(&m, nq);
            }
        }
    }

    #[test]
    fn conv_models_fall_back_per_query() {
        let m = zoo::reid().seeded(6);
        batch_matches_single(&m, 5);
    }

    #[test]
    fn empty_batch_is_rejected() {
        let m = zoo::tir().seeded(1);
        assert!(MultiQueryScorer::new(&m, &[]).is_err());
    }

    #[test]
    fn wrong_lengths_are_rejected() {
        let m = zoo::tir().seeded(1);
        let short = Tensor::from_slice(&[0.0; 3]);
        assert!(MultiQueryScorer::new(&m, &[short]).is_err());
        let q = m.random_feature(1);
        let mut scorer = MultiQueryScorer::new(&m, &[q]).unwrap();
        let mut scores = Vec::new();
        assert!(scorer.score_into(&m, &[0.0; 3], &mut scores).is_err());
    }

    #[test]
    fn score_into_is_allocation_free_after_warmup() {
        // Buffer pointers are stable across calls once warmed.
        let m = zoo::tir().seeded(2);
        let queries: Vec<Tensor> = (0..8).map(|i| m.random_feature(i)).collect();
        let mut scorer = MultiQueryScorer::new(&m, &queries).unwrap();
        let mut scores = Vec::with_capacity(8);
        let item = m.random_feature(50);
        scorer.score_into(&m, item.data(), &mut scores).unwrap();
        let (p1, p2, p3) = (
            scorer.merge_t.as_ptr(),
            scorer.ping.as_ptr(),
            scorer.pong.as_ptr(),
        );
        scorer.score_into(&m, item.data(), &mut scores).unwrap();
        assert_eq!(p1, scorer.merge_t.as_ptr());
        assert_eq!(p2, scorer.ping.as_ptr());
        assert_eq!(p3, scorer.pong.as_ptr());
    }

    #[test]
    fn unseeded_model_errors() {
        let m = zoo::tir();
        let q = m.random_feature(1);
        let mut scorer = MultiQueryScorer::new(&m, &[q]).unwrap();
        let mut scores = Vec::new();
        let item = m.random_feature(2);
        assert!(matches!(
            scorer.score_into(&m, item.data(), &mut scores),
            Err(NnError::UninitializedWeights { .. })
        ));
    }
}
