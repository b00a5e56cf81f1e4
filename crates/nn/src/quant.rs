//! Int8 bound-then-refine support for the scan pruning cascade.
//!
//! The scan's pruning cascade (DeepEverest-style bound-then-refine)
//! needs two things from the NN layer:
//!
//! * [`FeatureQuant`] / [`quantize_feature`] — a per-feature symmetric
//!   int8 *sidecar* built once at `appendDB` time: the quantized lanes
//!   plus the scalars (`scale`, `abs_sum`, `max_abs`) the bound
//!   arithmetic consumes. A database keeps its sidecar as one
//!   [`QuantMatrix`], one row per feature.
//! * [`BoundScorer`] — a per-(model, query) folded linear functional
//!   with **provable lower and upper bounds** on the exact f32
//!   similarity score: `lb <= similarity(query, feature) <= ub` for
//!   every feature, always. The scan prunes a feature only when its
//!   upper bound is *strictly below* a K-th best score that K other
//!   features provably reach (exact scores, or lower bounds), so
//!   recall@K is exactly 1.0 by construction, not empirically.
//!
//! # Eligibility: linear-foldable models
//!
//! A model is *cascade-eligible* ([`BoundScorer::supports`]) when every
//! layer is dense with an `Identity` activation. Such a model — merge,
//! dense stack, and head reduction (`out[0]` or mean) — is one affine
//! function of the item feature once the query is fixed:
//!
//! ```text
//! score(x) = ⟨g, x⟩ + d
//! ```
//!
//! where `g` and `d` are folded at query time in f64 (cost: one pass
//! over the weights, amortized over every feature in the database). Of
//! the paper's zoo, TextQA — the scan-throughput workload — is
//! eligible; models with ReLU/sigmoid stacks fall back to the exact
//! path, because a sound bound there requires interval propagation
//! through every tail layer, which costs as much as exact scoring (see
//! DESIGN.md §10 for the derivation and this trade-off).
//!
//! # The bound
//!
//! Phase 1 scores `D = Σ gq[k]·xq[k]` in exact i32 integer arithmetic
//! (order-independent, so SIMD/parallelism cannot change it), then
//! reconstructs `ã = s_g·s_x·D + d` and pads it with every error the
//! exact f32 path could see:
//!
//! * **quantization error** — `|x_k − s_x·xq[k]| ≤ s_x/2` and
//!   `|g_k − s_g·gq[k]| ≤ s_g/2`, giving
//!   `E ≤ (s_x/2)·Σ|g| + (s_g/2)·(Σ|x| + n·s_x/2)`;
//! * **float-rounding slack** — the exact path evaluates the *unfolded*
//!   network in f32 with its own summation order; a standard running
//!   error analysis (propagated per layer alongside a magnitude bound,
//!   both affine in the feature's `max_abs`) bounds how far that f32
//!   value can sit from the real-arithmetic score, on either side.
//!
//! Both terms bound an absolute difference, so `ã ∓ pad` brackets the
//! exact score. Every bound-side computation runs in f64 with a safety
//! factor, and the final downcasts round *outward* — so the published
//! f32 bounds can only be looser, never unsound.

use crate::kernels;
use crate::layer::MergeOp;
use crate::{Activation, ElementWiseOp, Model, Tensor};

/// f32 machine epsilon as f64, the unit of the rounding-slack analysis.
const EPS32: f64 = f32::EPSILON as f64;

/// Safety factor on every error term: covers the f64 rounding of the
/// bound computation itself and the inequality slop in the analysis.
const SAFETY: f64 = 2.0;

/// Feature lengths above this disable the cascade: the i32 phase-1
/// accumulator is provably overflow-free only while
/// `n · 127² < 2³¹`.
pub(crate) const MAX_FOLD_LEN: usize = 100_000;

/// Per-feature symmetric int8 sidecar: the quantized lanes plus the
/// scalars the bound arithmetic needs ([`quantize_feature`]). The
/// engine stores these as the rows of a [`QuantMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureQuant {
    /// Symmetric int8 lanes: `x_k ≈ scale · q[k]`, `q[k] ∈ [-127, 127]`
    /// (zero-point 0).
    pub q: Vec<i8>,
    /// Dequantization scale: `max|x| / 127` (0 for an all-zero feature).
    pub scale: f32,
    /// `Σ|x_k|` of the original f32 lanes, in f64.
    pub abs_sum: f64,
    /// `max|x_k|` of the original f32 lanes, in f64.
    pub max_abs: f64,
}

/// Quantizes one f32 feature vector into its int8 sidecar entry.
///
/// Symmetric (zero-point 0), per-feature scale `max|x| / 127`, round to
/// nearest: the per-lane reconstruction error is at most `scale / 2`.
#[must_use]
pub fn quantize_feature(x: &[f32]) -> FeatureQuant {
    let mut q = vec![0i8; x.len()];
    let (scale, abs_sum, max_abs) = quantize_into(x, &mut q);
    FeatureQuant {
        q,
        scale,
        abs_sum,
        max_abs,
    }
}

/// [`quantize_feature`] into caller-owned lanes (`q.len() == x.len()`,
/// zero on entry): returns `(scale, abs_sum, max_abs)`. The one
/// quantizer behind both sidecar forms.
fn quantize_into(x: &[f32], q: &mut [i8]) -> (f32, f64, f64) {
    debug_assert_eq!(q.len(), x.len());
    let mut max_abs = 0.0f64;
    let mut abs_sum = 0.0f64;
    for &v in x {
        let a = (v as f64).abs();
        abs_sum += a;
        if a > max_abs {
            max_abs = a;
        }
    }
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 0.0 };
    if scale > 0.0 {
        for (lane, &v) in q.iter_mut().zip(x) {
            *lane = (v as f64 / scale).round().clamp(-127.0, 127.0) as i8;
        }
    }
    (scale as f32, abs_sum, max_abs)
}

/// Row stride granularity of a [`QuantMatrix`], in int8 lanes: one
/// 128-bit chunk of the int8 dot kernel.
const ROW_ALIGN: usize = 16;

/// Rows per block of [`BoundScorer::rows_bounds`]: 64 textqa rows are
/// 13 KB of lanes, so a block stays in L1 while every request of a
/// batch bounds it.
pub const BOUND_BLOCK: usize = 64;

/// A database's int8 sidecar as one matrix: row `i` is
/// [`quantize_feature`] of feature `i`, its lanes stored contiguously
/// and zero-padded to a multiple of 16 (textqa's 200 lanes take 208
/// bytes), with `scale`, `abs_sum` and `max_abs` in parallel arrays.
/// Zero pad lanes add nothing to an int8 dot, so a row's bounds
/// ([`BoundScorer::row_bounds`]) are bit-equal to the
/// [`BoundScorer::bounds`] of its [`FeatureQuant`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    /// Feature length `n`.
    dim: usize,
    /// Lanes per row: `n` rounded up to [`ROW_ALIGN`].
    stride: usize,
    /// `len × stride` int8 lanes, row-major.
    q: Vec<i8>,
    /// Per-row dequantization scale.
    scale: Vec<f32>,
    /// Per-row `Σ|x_k|`.
    abs_sum: Vec<f64>,
    /// Per-row `max|x_k|`.
    max_abs: Vec<f64>,
}

impl QuantMatrix {
    /// An empty matrix for `dim`-lane features with room for `rows`
    /// rows: one allocation per array until `rows` is exceeded.
    #[must_use]
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        let stride = dim.next_multiple_of(ROW_ALIGN);
        QuantMatrix {
            dim,
            stride,
            q: Vec::with_capacity(rows * stride),
            scale: Vec::with_capacity(rows),
            abs_sum: Vec::with_capacity(rows),
            max_abs: Vec::with_capacity(rows),
        }
    }

    /// Makes room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.q.reserve(additional * self.stride);
        self.scale.reserve(additional);
        self.abs_sum.reserve(additional);
        self.max_abs.reserve(additional);
    }

    /// Quantizes `x` ([`quantize_feature`]) into a new last row.
    ///
    /// # Panics
    ///
    /// If `x.len()` is not the matrix's feature length.
    pub fn push(&mut self, x: &[f32]) {
        assert_eq!(x.len(), self.dim, "feature length");
        let start = self.q.len();
        self.q.resize(start + self.stride, 0);
        let (scale, abs_sum, max_abs) = quantize_into(x, &mut self.q[start..start + self.dim]);
        self.scale.push(scale);
        self.abs_sum.push(abs_sum);
        self.max_abs.push(max_abs);
    }

    /// Row count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scale.len()
    }

    /// Whether the matrix has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scale.is_empty()
    }

    /// Row `i`'s padded lanes.
    fn lanes(&self, i: usize) -> &[i8] {
        &self.q[i * self.stride..(i + 1) * self.stride]
    }
}

/// A folded, quantized bound scorer for one (model, query) pair.
///
/// Built once per scan ([`BoundScorer::new`]); [`BoundScorer::bounds`]
/// then costs one int8 dot plus a handful of f64 flops per feature.
/// Read-only after construction, so one instance is shared by every
/// scan shard.
#[derive(Debug, Clone)]
pub struct BoundScorer {
    /// Quantized folded functional `g`, zero-padded to a
    /// [`QuantMatrix`] row stride (the first `n` lanes are `g`).
    gq: Vec<i8>,
    /// Scale of `gq`: `g_k ≈ g_scale · gq[k]`.
    g_scale: f64,
    /// `Σ|g_k|`.
    g_abs_sum: f64,
    /// Affine offset `d`: query-side contribution plus folded biases.
    offset: f64,
    /// Per-lane quantization error bound of `g`: `g_scale / 2`.
    eps_g: f64,
    /// Feature length `n`.
    n: usize,
    /// Float-rounding slack, constant part (see module docs).
    err_const: f64,
    /// Float-rounding slack, coefficient of the feature's `max_abs`.
    err_coeff: f64,
}

impl BoundScorer {
    /// True when the cascade can bound this model: at least one layer,
    /// every layer dense with `Identity` activation and materialized
    /// weights, and a feature length small enough for exact i32
    /// phase-1 accumulation. Other models scan on the exact path.
    #[must_use]
    pub fn supports(model: &Model) -> bool {
        !model.layers().is_empty()
            && model.feature_len() <= MAX_FOLD_LEN
            && model.layers().iter().all(|l| {
                l.shape.is_dense()
                    && l.activation == Activation::Identity
                    && l.weights.is_some()
                    && l.bias.is_some()
            })
    }

    /// Folds `model` around `query` into a quantized linear functional.
    /// Returns `None` when [`BoundScorer::supports`] is false or the
    /// query length does not match the model.
    #[must_use]
    pub fn new(model: &Model, query: &Tensor) -> Option<Self> {
        if !Self::supports(model) || query.len() != model.feature_len() {
            return None;
        }
        let n = model.feature_len();
        let q = query.data();
        let layers = model.layers();

        // --- Backward fold: the head functional pulled through the
        // dense stack. `r` lives over the current layer's outputs;
        // `e` accumulates the bias contributions.
        let last_out = layers.last().expect("non-empty").shape.output_len();
        let mut r: Vec<f64> = if last_out <= 2 {
            // Head reduction for 1- or 2-wide outputs is `out[0]`.
            let mut v = vec![0.0; last_out];
            v[0] = 1.0;
            v
        } else {
            vec![1.0 / last_out as f64; last_out]
        };
        let mut e = 0.0f64;
        for layer in layers.iter().rev() {
            let w = layer.weights.as_ref().expect("supports checked").data();
            let b = layer.bias.as_ref().expect("supports checked").data();
            let out = layer.shape.output_len();
            let inp = layer.shape.input_len();
            debug_assert_eq!(r.len(), out);
            for (j, rj) in r.iter().enumerate() {
                e += rj * b[j] as f64;
            }
            let mut prev = vec![0.0f64; inp];
            for (j, rj) in r.iter().enumerate() {
                if *rj == 0.0 {
                    continue;
                }
                let row = &w[j * inp..(j + 1) * inp];
                for (k, &wv) in row.iter().enumerate() {
                    prev[k] += rj * wv as f64;
                }
            }
            r = prev;
        }
        // `r` is now the functional over the merged vector `u`.
        let u = r;

        // --- Merge fold: score = ⟨g, x⟩ + d over the item feature.
        let mut g = vec![0.0f64; n];
        let mut d = e;
        match model.merge() {
            MergeOp::Concat => {
                debug_assert_eq!(u.len(), 2 * n);
                for k in 0..n {
                    d += u[k] * q[k] as f64;
                    g[k] = u[n + k];
                }
            }
            MergeOp::ElementWise(op) => {
                debug_assert_eq!(u.len(), n);
                match op {
                    ElementWiseOp::Add => {
                        for k in 0..n {
                            d += u[k] * q[k] as f64;
                            g[k] = u[k];
                        }
                    }
                    // Merge is `q - item`, so the item coefficient is -u.
                    ElementWiseOp::Sub => {
                        for k in 0..n {
                            d += u[k] * q[k] as f64;
                            g[k] = -u[k];
                        }
                    }
                    ElementWiseOp::Mul => {
                        for k in 0..n {
                            g[k] = u[k] * q[k] as f64;
                        }
                    }
                }
            }
        }

        // --- Rounding-slack analysis: how far can the exact path's f32
        // forward pass sit above the real-arithmetic score? Propagate a
        // magnitude bound and an accumulated-error bound through merge,
        // stack and head. Both are affine in the feature's max|x| (call
        // it M), so each is carried as a (const, coeff-of-M) pair.
        let merged = match model.merge() {
            MergeOp::Concat => 2 * n,
            MergeOp::ElementWise(_) => n,
        };
        let mut mag_c = vec![0.0f64; merged];
        let mut mag_m = vec![0.0f64; merged];
        let mut err_c = vec![0.0f64; merged];
        let mut err_m = vec![0.0f64; merged];
        match model.merge() {
            MergeOp::Concat => {
                for k in 0..n {
                    mag_c[k] = (q[k] as f64).abs();
                    mag_m[n + k] = 1.0;
                }
            }
            MergeOp::ElementWise(op) => {
                for k in 0..n {
                    let qa = (q[k] as f64).abs();
                    match op {
                        ElementWiseOp::Add | ElementWiseOp::Sub => {
                            mag_c[k] = qa;
                            mag_m[k] = 1.0;
                            // One f32 add/sub per merged lane.
                            err_c[k] = EPS32 * qa;
                            err_m[k] = EPS32;
                        }
                        ElementWiseOp::Mul => {
                            mag_m[k] = qa;
                            err_m[k] = EPS32 * qa;
                        }
                    }
                }
            }
        }
        for layer in layers {
            let w = layer.weights.as_ref().expect("supports checked").data();
            let b = layer.bias.as_ref().expect("supports checked").data();
            let out = layer.shape.output_len();
            let inp = layer.shape.input_len();
            // γ for an (inp+1)-term f32 inner-product accumulation.
            let gamma = (inp + 2) as f64 * EPS32;
            let mut nm_c = vec![0.0f64; out];
            let mut nm_m = vec![0.0f64; out];
            let mut ne_c = vec![0.0f64; out];
            let mut ne_m = vec![0.0f64; out];
            for j in 0..out {
                let row = &w[j * inp..(j + 1) * inp];
                let (mut mc, mut mm, mut ec, mut em) = (0.0f64, 0.0, 0.0, 0.0);
                for (k, &wv) in row.iter().enumerate() {
                    let wa = (wv as f64).abs();
                    mc += wa * mag_c[k];
                    mm += wa * mag_m[k];
                    ec += wa * err_c[k];
                    em += wa * err_m[k];
                }
                let ba = (b[j] as f64).abs();
                nm_c[j] = mc + ba;
                nm_m[j] = mm;
                ne_c[j] = ec + gamma * (mc + ba);
                ne_m[j] = em + gamma * mm;
            }
            mag_c = nm_c;
            mag_m = nm_m;
            err_c = ne_c;
            err_m = ne_m;
        }
        // Head reduction: |r_head|-weighted error plus its own rounding.
        let (head_w, head_gamma): (Vec<f64>, f64) = if last_out <= 2 {
            let mut v = vec![0.0; last_out];
            v[0] = 1.0;
            (v, 2.0 * EPS32)
        } else {
            (
                vec![1.0 / last_out as f64; last_out],
                (last_out + 2) as f64 * EPS32,
            )
        };
        let mut err_const = 0.0f64;
        let mut err_coeff = 0.0f64;
        let mut head_mag_c = 0.0f64;
        let mut head_mag_m = 0.0f64;
        for j in 0..last_out {
            err_const += head_w[j] * err_c[j];
            err_coeff += head_w[j] * err_m[j];
            head_mag_c += head_w[j] * mag_c[j];
            head_mag_m += head_w[j] * mag_m[j];
        }
        err_const = SAFETY * (err_const + head_gamma * head_mag_c);
        err_coeff = SAFETY * (err_coeff + head_gamma * head_mag_m);

        // --- Quantize g.
        let mut g_max = 0.0f64;
        let mut g_abs_sum = 0.0f64;
        for &v in &g {
            let a = v.abs();
            g_abs_sum += a;
            if a > g_max {
                g_max = a;
            }
        }
        let g_scale = if g_max > 0.0 { g_max / 127.0 } else { 0.0 };
        let mut gq = vec![0i8; n.next_multiple_of(ROW_ALIGN)];
        if g_scale > 0.0 {
            for (lane, &v) in gq.iter_mut().zip(&g) {
                *lane = (v / g_scale).round().clamp(-127.0, 127.0) as i8;
            }
        }
        Some(BoundScorer {
            gq,
            g_scale,
            g_abs_sum,
            offset: d,
            eps_g: g_scale * 0.5,
            n,
            err_const,
            err_coeff,
        })
    }

    /// Sound f32 `(lower, upper)` bounds on the exact similarity score
    /// of the feature this sidecar entry was built from: one int8 dot,
    /// a few f64 flops, and `approx ∓ pad`. Both error terms of the
    /// module docs bound an absolute difference, so one pad serves both
    /// sides.
    ///
    /// # Panics
    ///
    /// If `fq` does not hold this scorer's feature length of lanes.
    #[must_use]
    pub fn bounds(&self, fq: &FeatureQuant) -> (f32, f32) {
        let dot = kernels::dot_i8(&self.gq[..self.n], &fq.q);
        self.bracket(dot, fq.scale, fq.abs_sum, fq.max_abs)
    }

    /// [`BoundScorer::bounds`] of row `i` of `m`: the same dot (the
    /// zero pad lanes add nothing) and the same pad, so the same bits.
    ///
    /// # Panics
    ///
    /// If `m`'s feature length is not this scorer's, or `i` is past
    /// its last row.
    #[must_use]
    pub fn row_bounds(&self, m: &QuantMatrix, i: usize) -> (f32, f32) {
        assert_eq!(m.dim, self.n, "matrix feature length");
        let dot = kernels::dot_i8(&self.gq, m.lanes(i));
        self.bracket(dot, m.scale[i], m.abs_sum[i], m.max_abs[i])
    }

    /// [`BoundScorer::row_bounds`] of the block of rows
    /// `first..first + lb.len()` of `m`, into `lb` and `ub`: bit-equal
    /// row for row, and about half the cost per row. The block's dots
    /// run back to back, then its pads run as one loop the compiler
    /// vectorizes (the same f64 operations, lane for lane, so the same
    /// bits).
    ///
    /// # Panics
    ///
    /// If `m`'s feature length is not this scorer's, `lb` and `ub`
    /// differ in length, the block is longer than [`BOUND_BLOCK`] or
    /// it runs past `m`.
    pub fn rows_bounds(&self, m: &QuantMatrix, first: usize, lb: &mut [f32], ub: &mut [f32]) {
        assert_eq!(m.dim, self.n, "matrix feature length");
        assert_eq!(lb.len(), ub.len(), "one lower and one upper bound per row");
        assert!(lb.len() <= BOUND_BLOCK, "at most one block of rows");
        let rows = first..first + lb.len();
        let mut dots = [0i32; BOUND_BLOCK];
        let dots = &mut dots[..lb.len()];
        for (dot, i) in dots.iter_mut().zip(rows.clone()) {
            *dot = kernels::dot_i8(&self.gq, m.lanes(i));
        }
        let scalars = m.scale[rows.clone()]
            .iter()
            .zip(&m.abs_sum[rows.clone()])
            .zip(&m.max_abs[rows]);
        for (((lb, ub), &dot), ((&scale, &abs_sum), &max_abs)) in
            lb.iter_mut().zip(ub).zip(&*dots).zip(scalars)
        {
            (*lb, *ub) = self.bracket(dot, scale, abs_sum, max_abs);
        }
    }

    /// `approx ∓ pad` from a feature's int8 dot with `g` and its
    /// sidecar scalars.
    #[inline(always)]
    fn bracket(&self, dot: i32, scale: f32, abs_sum: f64, max_abs: f64) -> (f32, f32) {
        let dot = f64::from(dot);
        let s_x = scale as f64;
        let approx = self.g_scale * s_x * dot + self.offset;
        let eps_x = s_x * 0.5;
        let e_quant = eps_x * self.g_abs_sum + self.eps_g * (abs_sum + self.n as f64 * eps_x);
        let slack = self.err_const + self.err_coeff * max_abs;
        // SAFETY factor again on the whole pad: absorbs the f64 rounding
        // of this very expression.
        let pad = SAFETY * (e_quant + 1e-30) + slack;
        // Round *outward* into f32: a nearest-cast can miss by half an
        // ulp, so take the next representable value on each side.
        (
            ((approx - pad) as f32).next_down(),
            ((approx + pad) as f32).next_up(),
        )
    }

    /// A sound f32 upper bound on the exact similarity score:
    /// [`BoundScorer::bounds`]'s upper half.
    #[must_use]
    pub fn upper_bound(&self, fq: &FeatureQuant) -> f32 {
        self.bounds(fq).1
    }

    /// The feature length this scorer was folded for.
    #[must_use]
    pub fn feature_len(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{zoo, ModelBuilder};

    fn linear_model(merge: MergeOp, dims: &[usize], seed: u64) -> Model {
        let mut b = ModelBuilder::new("lin", dims[0]).merge(merge);
        let mut inp = match merge {
            MergeOp::Concat => dims[0] * 2,
            MergeOp::ElementWise(_) => dims[0],
        };
        for &out in &dims[1..] {
            b = b.dense(inp, out, Activation::Identity);
            inp = out;
        }
        b.build().seeded(seed)
    }

    const MERGES: [MergeOp; 4] = [
        MergeOp::Concat,
        MergeOp::ElementWise(ElementWiseOp::Add),
        MergeOp::ElementWise(ElementWiseOp::Sub),
        MergeOp::ElementWise(ElementWiseOp::Mul),
    ];

    #[test]
    fn quantize_roundtrip_error_is_within_half_scale() {
        let x: Vec<f32> = (0..37).map(|i| ((i as f32) * 0.7).sin() * 3.0).collect();
        let fq = quantize_feature(&x);
        for (k, &v) in x.iter().enumerate() {
            let back = fq.scale * f32::from(fq.q[k]);
            assert!(
                (v - back).abs() as f64 <= fq.scale as f64 * 0.5 + 1e-9,
                "lane {k}: {v} vs {back}"
            );
        }
        assert!(fq.max_abs > 0.0);
        assert!(fq.abs_sum >= fq.max_abs);
    }

    #[test]
    fn zero_feature_quantizes_to_zero() {
        let fq = quantize_feature(&[0.0; 8]);
        assert_eq!(fq.scale, 0.0);
        assert!(fq.q.iter().all(|&v| v == 0));
    }

    #[test]
    fn supports_accepts_linear_dense_and_rejects_the_rest() {
        for merge in MERGES {
            assert!(BoundScorer::supports(&linear_model(merge, &[16, 8, 4], 1)));
        }
        // textqa is the zoo's linear model; tir has ReLU, reid has conv.
        assert!(BoundScorer::supports(&zoo::textqa().seeded(3)));
        assert!(!BoundScorer::supports(&zoo::tir().seeded(3)));
        assert!(!BoundScorer::supports(&zoo::reid().seeded(3)));
        // Unweighted models are rejected.
        assert!(!BoundScorer::supports(&zoo::textqa()));
    }

    #[test]
    fn bound_dominates_exact_score_across_merges_and_depths() {
        for merge in MERGES {
            for dims in [&[24usize, 6][..], &[16, 12, 5], &[10, 8, 8, 1]] {
                for seed in 0..4u64 {
                    let model = linear_model(merge, dims, seed * 7 + 1);
                    let query = model.random_feature(seed ^ 0xABCD);
                    let bs = BoundScorer::new(&model, &query).expect("eligible");
                    for fi in 0..32u64 {
                        let item = model.random_feature(1000 + fi);
                        let fq = quantize_feature(item.data());
                        let exact = model.similarity(&query, &item).unwrap();
                        let (lb, ub) = bs.bounds(&fq);
                        assert!(
                            lb <= exact && exact <= ub,
                            "exact {exact} outside [{lb}, {ub}] (merge {merge:?}, \
                             dims {dims:?}, seed {seed}, feature {fi})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bound_is_reasonably_tight_on_textqa() {
        // Not a soundness requirement, but the cascade is useless if the
        // bound is orders of magnitude above the score.
        let model = zoo::textqa().seeded_metric(11);
        let query = model.random_feature(9);
        let bs = BoundScorer::new(&model, &query).expect("textqa is linear");
        let mut worst = 0.0f64;
        for fi in 0..64u64 {
            let item = model.random_feature(fi);
            let fq = quantize_feature(item.data());
            let exact = model.similarity(&query, &item).unwrap() as f64;
            let ub = bs.upper_bound(&fq) as f64;
            assert!(ub >= exact);
            worst = worst.max(ub - exact);
        }
        assert!(worst < 0.5, "bound gap {worst} too loose to prune anything");
    }

    #[test]
    fn matrix_stride_pads_to_sixteen_lanes() {
        let model = zoo::textqa().seeded(2);
        let mut m = QuantMatrix::with_capacity(model.feature_len(), 1);
        m.push(model.random_feature(1).data());
        assert_eq!((m.dim, m.stride, m.len()), (200, 208, 1));
        assert!(m.lanes(0)[200..].iter().all(|&v| v == 0));
    }

    #[test]
    #[should_panic(expected = "int8 dot of unequal lengths")]
    fn bounds_reject_a_sidecar_entry_of_another_length() {
        let model = zoo::textqa().seeded(5);
        let bs = BoundScorer::new(&model, &model.random_feature(1)).unwrap();
        let mut fq = quantize_feature(model.random_feature(2).data());
        fq.q.truncate(16);
        let _ = bs.bounds(&fq);
    }

    #[test]
    #[should_panic(expected = "matrix feature length")]
    fn row_bounds_reject_a_matrix_of_another_length() {
        let model = zoo::textqa().seeded(5);
        let bs = BoundScorer::new(&model, &model.random_feature(1)).unwrap();
        let mut m = QuantMatrix::with_capacity(16, 1);
        m.push(&[1.0; 16]);
        let _ = bs.row_bounds(&m, 0);
    }

    #[test]
    fn new_rejects_mismatched_query() {
        let model = zoo::textqa().seeded(5);
        let bad = Tensor::random(vec![7], 1.0, 0);
        assert!(BoundScorer::new(&model, &bad).is_none());
        let good = model.random_feature(1);
        let bs = BoundScorer::new(&model, &good).unwrap();
        assert_eq!(bs.feature_len(), model.feature_len());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// A matrix row holds exactly its feature's sidecar entry
            /// (lanes, zero pad, scalars), and its bounds are bit-equal
            /// to `bounds(&FeatureQuant)`, for any merge, any feature
            /// length (pad 0..15 lanes) and an all-zero row among them.
            #[test]
            fn matrix_row_bounds_are_bit_equal_to_feature_quant_bounds(
                (merge_idx, dim, rows, seed) in (0usize..4, 1usize..70, 1usize..160, 0u64..1_000_000)
            ) {
                let model = linear_model(MERGES[merge_idx], &[dim, 5, 3], seed);
                let query = model.random_feature(seed ^ 0xB0);
                let bs = BoundScorer::new(&model, &query).expect("eligible");
                let mut features: Vec<Tensor> =
                    (0..rows as u64).map(|i| model.random_feature(seed ^ (i + 1))).collect();
                features.push(Tensor::zeros(vec![dim]));
                let mut m = QuantMatrix::with_capacity(dim, 1);
                for f in &features {
                    m.push(f.data());
                }
                prop_assert_eq!(m.len(), features.len());
                for (i, f) in features.iter().enumerate() {
                    let fq = quantize_feature(f.data());
                    prop_assert_eq!(&m.lanes(i)[..dim], &fq.q[..]);
                    prop_assert!(m.lanes(i)[dim..].iter().all(|&v| v == 0));
                    prop_assert_eq!(m.scale[i].to_bits(), fq.scale.to_bits());
                    prop_assert_eq!(m.abs_sum[i].to_bits(), fq.abs_sum.to_bits());
                    prop_assert_eq!(m.max_abs[i].to_bits(), fq.max_abs.to_bits());
                    let (lb, ub) = bs.bounds(&fq);
                    let (row_lb, row_ub) = bs.row_bounds(&m, i);
                    prop_assert_eq!((row_lb.to_bits(), row_ub.to_bits()), (lb.to_bits(), ub.to_bits()));
                }
                // Any block of rows within the matrix, in one call.
                let first = (seed as usize) % m.len();
                let len = (m.len() - first).min(BOUND_BLOCK);
                let (mut lbs, mut ubs) = (vec![0.0f32; len], vec![0.0f32; len]);
                bs.rows_bounds(&m, first, &mut lbs, &mut ubs);
                for (j, (lb, ub)) in lbs.iter().zip(&ubs).enumerate() {
                    let (row_lb, row_ub) = bs.row_bounds(&m, first + j);
                    prop_assert_eq!((lb.to_bits(), ub.to_bits()), (row_lb.to_bits(), row_ub.to_bits()));
                }
            }
        }
    }
}
