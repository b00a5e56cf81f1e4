//! The compute kernels shared by every inference path.
//!
//! Both the allocating reference path ([`crate::Tensor::dense`],
//! [`crate::Tensor::conv2d`], [`crate::Layer::forward`]) and the
//! allocation-free scratch path ([`crate::Layer::forward_into`],
//! [`crate::Model::similarity_scratch`]) call the functions in this
//! module, so the two paths execute the *same f32 operations in the same
//! order* and their results are bit-identical by construction. That
//! shared-kernel discipline is what lets the in-storage scan use the
//! scratch path while tests compare it bit-for-bit against the reference
//! path (see DESIGN.md, "Summation order and bit-identity").
//!
//! # Dispatch
//!
//! Each public kernel is a thin dispatcher over two backends:
//!
//! * [`scalar`] — the portable implementation, written for scalar ILP
//!   (independent accumulator chains, hoisted bounds checks). It is the
//!   *specification*: the summation order documented on
//!   [`dot_unrolled`] is defined by this code.
//! * `simd` (x86_64 only) — explicit `core::arch` intrinsics that
//!   replay the scalar backend's accumulation order lane-for-lane, so
//!   the two backends are bit-identical (proven by the proptests at the
//!   bottom of this file). The f32x4 dot keeps the four scalar chains in
//!   one SSE register; the fused multi-query kernel keeps each of its
//!   [`QUERY_LANES`] independent per-query chains in one AVX lane; the
//!   conv2d interior runs eight output pixels (eight independent
//!   chains) per AVX register. No FMA is ever used — a fused
//!   multiply-add rounds once where the contract rounds twice. The
//!   int8 dot ([`dot_i8`]) is integer arithmetic, exact in any order;
//!   its AVX2 kernel runs on the AVX backend when AVX2 is present.
//!
//! The backend is one [`Backend`] value, resolved once per process:
//! setting `DEEPSTORE_FORCE_SCALAR=1` in the environment forces the
//! scalar backend everywhere (CI runs the whole equivalence suite under
//! that override so both arms stay green); otherwise SSE2, part of the
//! x86_64 baseline, or AVX when `is_x86_feature_detected!` finds it.

use std::sync::OnceLock;

/// The kernel backend a process dispatches to. Each level includes the
/// ones below it: the AVX backend runs the SSE2 dot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Backend {
    Scalar,
    Sse2,
    Avx,
}

impl Backend {
    /// This process's backend, resolved on first use.
    fn get() -> Backend {
        static BACKEND: OnceLock<Backend> = OnceLock::new();
        *BACKEND.get_or_init(|| {
            if std::env::var_os("DEEPSTORE_FORCE_SCALAR").is_some_and(|v| v != *"0") {
                return Backend::Scalar;
            }
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx") {
                return Backend::Avx;
            }
            if cfg!(target_arch = "x86_64") {
                Backend::Sse2
            } else {
                Backend::Scalar
            }
        })
    }
}

/// Name of the kernel backend this process dispatches to: `"avx"`,
/// `"sse2"` or `"scalar"`. Surfaced through
/// [`crate::kernel_backend`] for benches and stats.
pub(crate) fn backend_name() -> &'static str {
    match Backend::get() {
        Backend::Avx => "avx",
        Backend::Sse2 => "sse2",
        Backend::Scalar => "scalar",
    }
}

/// Lane width of the fused multi-query dense kernel: eight queries are
/// scored against one item per pass over the weight row. Eight f32 lanes
/// fill one AVX register (or two SSE registers) and keep the per-row
/// accumulator set (4 chains × 8 lanes) inside the register file.
pub(crate) const QUERY_LANES: usize = 8;

/// Sequential tail accumulation shared by [`dot_unrolled`] (`L = 1`) and
/// [`dense_into_multi`] (`L = QUERY_LANES`): after the quad chains are
/// combined, the leftover `len % 4` weight lanes are multiplied in one
/// at a time, in index order, each into every query lane. This helper is
/// the single source of truth for the tail's summation order — both
/// backends of both kernels call it (the SIMD backends fall back to it
/// for their tails), so the contract lives in exactly one place.
#[inline(always)]
pub(crate) fn tail_accumulate<const L: usize>(acc: &mut [f32; L], w_tail: &[f32], xt_tail: &[f32]) {
    debug_assert_eq!(xt_tail.len(), w_tail.len() * L);
    for (i, &wi) in w_tail.iter().enumerate() {
        let xr = &xt_tail[i * L..(i + 1) * L];
        for l in 0..L {
            acc[l] += wi * xr[l];
        }
    }
}

/// Dot product over four independent accumulators.
///
/// Lanes `0,4,8,…` feed `s0`, lanes `1,5,9,…` feed `s1`, and so on; the
/// partial sums are combined as `(s0 + s1) + (s2 + s3)` and any tail
/// lanes (length not a multiple of 4) are then added sequentially. This
/// order is fixed: every caller — reference or scratch path — inherits
/// it, which is what keeps the two paths bit-identical. The SIMD backend
/// holds `[s0, s1, s2, s3]` in one f32x4 register and replays the same
/// combine, so dispatch never changes the result bits.
#[inline]
pub(crate) fn dot_unrolled(w: &[f32], x: &[f32]) -> f32 {
    debug_assert_eq!(w.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if Backend::get() >= Backend::Sse2 {
        // SAFETY: SSE2 is baseline on x86_64.
        return unsafe { simd::dot_sse2(w, x) };
    }
    scalar::dot_unrolled(w, x)
}

/// Exact int8 dot product in an i32 accumulator: the int8 bound's
/// phase 1 (see [`crate::quant`]). Integer addition is associative and
/// the caller keeps `len · 127² < 2³¹` (`MAX_FOLD_LEN`), so every lane
/// arrangement gives the same `i32` and both backends are bit-identical
/// without an order contract. The AVX2 backend widens sixteen lanes to
/// i16 (`vpmovsxbw`) and multiply-adds pairs into i32 (`vpmaddwd`);
/// `vpmaddubsw` is avoided because it saturates.
///
/// # Panics
///
/// If `a` and `b` differ in length.
#[inline]
pub(crate) fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "int8 dot of unequal lengths");
    #[cfg(target_arch = "x86_64")]
    if Backend::get() == Backend::Avx && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected, and the lengths are
        // equal.
        return unsafe { simd::dot_i8_avx2(a, b) };
    }
    scalar::dot_i8(a, b)
}

/// Dense matrix-vector product `y = W x + b` into a caller-owned buffer.
///
/// `w` is row-major `[out, in]`; `out` is cleared and refilled, so a
/// buffer with `b.len()` capacity makes the call allocation-free. Shape
/// checking is the caller's job (the `Tensor` / `Layer` wrappers do it).
pub(crate) fn dense_into(w: &[f32], b: &[f32], x: &[f32], out: &mut Vec<f32>) {
    let inp = x.len();
    out.clear();
    out.reserve(b.len());
    for (o, &bias) in b.iter().enumerate() {
        let row = &w[o * inp..(o + 1) * inp];
        out.push(dot_unrolled(row, x) + bias);
    }
}

/// Dense matrix-vector product for [`QUERY_LANES`] inputs at once:
/// `out[o][l] = Σ_k w[o][k] · xt[k][l] + b[o]`.
///
/// `xt` is *lane-transposed*: `QUERY_LANES` input vectors interleaved so
/// that `xt[k*QUERY_LANES + l]` is element `k` of input `l`. `out` is
/// refilled in the same layout. The weight row is read **once** for all
/// eight inputs (the batched scan's weight-reuse win), and each lane's
/// accumulation replays [`dot_unrolled`]'s exact order — four
/// independent chains over `k % 4`, combined `(s0 + s1) + (s2 + s3)`,
/// tail lanes added sequentially, bias added last — so every lane is
/// bit-identical to a [`dense_into`] call on that input alone. The AVX
/// backend maps the eight query lanes onto one f32x8 register per
/// chain (broadcast weight × lane vector), which is the same
/// computation with the lane loop in hardware.
pub(crate) fn dense_into_multi(w: &[f32], bias: &[f32], xt: &[f32], out: &mut Vec<f32>) {
    #[cfg(target_arch = "x86_64")]
    if Backend::get() == Backend::Avx {
        // SAFETY: `Backend::Avx` is only chosen when AVX is detected.
        unsafe { simd::dense_into_multi_avx(w, bias, xt, out) };
        return;
    }
    scalar::dense_into_multi(w, bias, xt, out);
}

/// Shape of a conv2d operand set; bundles the dimensions the kernel
/// needs so call sites stay readable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvDims {
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output channels.
    pub co: usize,
    /// Input channels per group (`c / groups`).
    pub cg: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (rows, cols).
    pub stride: (usize, usize),
    /// Channel groups.
    pub groups: usize,
}

impl ConvDims {
    /// Output height under "same" padding.
    pub fn oh(&self) -> usize {
        self.h.div_ceil(self.stride.0)
    }

    /// Output width under "same" padding.
    pub fn ow(&self) -> usize {
        self.w.div_ceil(self.stride.1)
    }
}

/// 2-D "same"-padded convolution into a caller-owned buffer.
///
/// The valid kernel ranges `[ky_lo, ky_hi)` / `[kx_lo, kx_hi)` are
/// computed once per output row/column, so the inner reduction never
/// tests padding bounds; interior pixels (full `kx` range) take a
/// slice-zip fast path. The *order* of multiply-adds is exactly the
/// order the naive quadruple loop with `continue`-on-padding produced:
/// skipped taps contributed nothing, so eliding them leaves the
/// accumulation sequence unchanged and results bit-identical. The AVX
/// backend (unit column stride only) computes eight interior output
/// pixels at once — eight independent accumulator chains, each visiting
/// taps in the same `(channel, ky, kx)` order — so it is bit-identical
/// too.
pub(crate) fn conv2d_into(
    x: &[f32],
    kernel: &[f32],
    bias: &[f32],
    d: ConvDims,
    out: &mut Vec<f32>,
) {
    #[cfg(target_arch = "x86_64")]
    if Backend::get() == Backend::Avx && d.stride.1 == 1 {
        // SAFETY: `Backend::Avx` is only chosen when AVX is detected.
        unsafe { simd::conv2d_into_avx(x, kernel, bias, d, out) };
        return;
    }
    scalar::conv2d_into(x, kernel, bias, d, out);
}

/// The portable scalar backend — the specification of every kernel's
/// summation order.
pub(crate) mod scalar {
    use super::{tail_accumulate, ConvDims, QUERY_LANES};

    /// Scalar [`super::dot_unrolled`]: four independent chains combined
    /// `(s0 + s1) + (s2 + s3)`, sequential tail.
    #[inline]
    pub(crate) fn dot_unrolled(w: &[f32], x: &[f32]) -> f32 {
        debug_assert_eq!(w.len(), x.len());
        let mut wq = w.chunks_exact(4);
        let mut xq = x.chunks_exact(4);
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (wc, xc) in (&mut wq).zip(&mut xq) {
            s0 += wc[0] * xc[0];
            s1 += wc[1] * xc[1];
            s2 += wc[2] * xc[2];
            s3 += wc[3] * xc[3];
        }
        let mut acc = [(s0 + s1) + (s2 + s3)];
        tail_accumulate::<1>(&mut acc, wq.remainder(), xq.remainder());
        acc[0]
    }

    /// Scalar [`super::dot_i8`]: one i32 multiply-add per lane.
    #[inline]
    pub(crate) fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum()
    }

    /// Scalar [`super::dense_into`]: one [`dot_unrolled`] per row. The
    /// dispatcher reproduces this loop via the dispatched dot, so this
    /// backend copy exists as the specification the equivalence tests
    /// compare against.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn dense_into(w: &[f32], b: &[f32], x: &[f32], out: &mut Vec<f32>) {
        let inp = x.len();
        out.clear();
        out.reserve(b.len());
        for (o, &bias) in b.iter().enumerate() {
            let row = &w[o * inp..(o + 1) * inp];
            out.push(dot_unrolled(row, x) + bias);
        }
    }

    /// Scalar [`super::dense_into_multi`]: per-lane accumulator arrays;
    /// the per-lane loops are trivially vectorizable (independent lanes,
    /// no reassociation), which is where the batch throughput comes from
    /// even without the explicit-SIMD backend.
    pub(crate) fn dense_into_multi(w: &[f32], bias: &[f32], xt: &[f32], out: &mut Vec<f32>) {
        const L: usize = QUERY_LANES;
        let inp = xt.len() / L;
        debug_assert_eq!(xt.len(), inp * L);
        out.clear();
        out.reserve(bias.len() * L);
        for (o, &b0) in bias.iter().enumerate() {
            let row = &w[o * inp..(o + 1) * inp];
            // `chunks_exact` hands the optimizer compile-time-known slice
            // lengths, so the `l` loops below are bounds-check-free and
            // vectorize cleanly.
            let mut quads = row.chunks_exact(4);
            let mut xq = xt.chunks_exact(4 * L);
            let (mut s0, mut s1, mut s2, mut s3) =
                ([0.0f32; L], [0.0f32; L], [0.0f32; L], [0.0f32; L]);
            for (wc, x) in (&mut quads).zip(&mut xq) {
                let (x0, r) = x.split_at(L);
                let (x1, r) = r.split_at(L);
                let (x2, x3) = r.split_at(L);
                for l in 0..L {
                    s0[l] += wc[0] * x0[l];
                    s1[l] += wc[1] * x1[l];
                    s2[l] += wc[2] * x2[l];
                    s3[l] += wc[3] * x3[l];
                }
            }
            let mut acc = [0.0f32; L];
            for l in 0..L {
                acc[l] = (s0[l] + s1[l]) + (s2[l] + s3[l]);
            }
            tail_accumulate::<L>(&mut acc, quads.remainder(), xq.remainder());
            for a in acc {
                out.push(a + b0);
            }
        }
    }

    /// One output pixel of the "same"-padded convolution: the
    /// accumulator starts at the bias and visits taps in
    /// `(channel, ky, kx)` order, with the padding-clipped ranges
    /// precomputed by the caller. Shared by both conv backends — the
    /// scalar kernel calls it for every pixel, the AVX kernel for
    /// border/remainder pixels — so the per-pixel order is defined once.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn conv_pixel(
        x: &[f32],
        kernel: &[f32],
        b0: f32,
        d: ConvDims,
        ocn: usize,
        in_base: usize,
        ybase: usize,
        xbase: usize,
        ky_range: (usize, usize),
    ) -> f32 {
        let ph = d.kh / 2;
        let pw = d.kw / 2;
        let (ky_lo, ky_hi) = ky_range;
        let kx_lo = pw.saturating_sub(xbase);
        let kx_hi = d.kw.min(d.w + pw - xbase);
        let mut acc = b0;
        for icg in 0..d.cg {
            let ic = in_base + icg;
            let x_plane = &x[ic * d.h * d.w..(ic + 1) * d.h * d.w];
            let k_base = ((ocn * d.cg + icg) * d.kh) * d.kw;
            for ky in ky_lo..ky_hi {
                let iy = ybase + ky - ph;
                let xrow = &x_plane[iy * d.w..(iy + 1) * d.w];
                let krow = &kernel[k_base + ky * d.kw..k_base + (ky + 1) * d.kw];
                if kx_lo == 0 && kx_hi == d.kw && xbase >= pw {
                    // Interior fast path: the whole kernel row
                    // overlaps the input row.
                    let xs = &xrow[xbase - pw..xbase - pw + d.kw];
                    for (xv, kv) in xs.iter().zip(krow) {
                        acc += xv * kv;
                    }
                } else {
                    for (kx, kv) in krow.iter().enumerate().take(kx_hi).skip(kx_lo) {
                        let ix = xbase + kx - pw;
                        acc += xrow[ix] * kv;
                    }
                }
            }
        }
        acc
    }

    /// Scalar [`super::conv2d_into`].
    pub(crate) fn conv2d_into(
        x: &[f32],
        kernel: &[f32],
        bias: &[f32],
        d: ConvDims,
        out: &mut Vec<f32>,
    ) {
        debug_assert_eq!(x.len(), d.c * d.h * d.w);
        let (sh, sw) = d.stride;
        let (oh, ow) = (d.oh(), d.ow());
        let ph = d.kh / 2;
        let co_per_group = d.co / d.groups;
        out.clear();
        out.reserve(d.co * oh * ow);
        debug_assert_eq!(bias.len(), d.co);
        for (ocn, &b0) in bias.iter().enumerate() {
            let g = ocn / co_per_group;
            let in_base = g * d.cg;
            for oy in 0..oh {
                let ybase = oy * sh;
                // iy = ybase + ky - ph must land in [0, h).
                let ky_lo = ph.saturating_sub(ybase);
                let ky_hi = d.kh.min(d.h + ph - ybase);
                for ox in 0..ow {
                    let xbase = ox * sw;
                    out.push(conv_pixel(
                        x,
                        kernel,
                        b0,
                        d,
                        ocn,
                        in_base,
                        ybase,
                        xbase,
                        (ky_lo, ky_hi),
                    ));
                }
            }
        }
    }
}

/// Explicit-SIMD backend (x86_64). Every function replays the scalar
/// backend's accumulation order exactly; see the module docs for the
/// per-kernel argument.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{scalar, tail_accumulate, ConvDims, QUERY_LANES};
    use std::arch::x86_64::*;

    /// f32x4 dot product: one SSE register holds the four scalar chains
    /// `[s0, s1, s2, s3]`; each quad iteration is `mul` then `add`
    /// (never FMA), and the horizontal combine is the contract's
    /// `(s0 + s1) + (s2 + s3)`.
    ///
    /// # Safety
    ///
    /// Requires SSE2, which is part of the x86_64 baseline.
    #[inline]
    pub(super) unsafe fn dot_sse2(w: &[f32], x: &[f32]) -> f32 {
        debug_assert_eq!(w.len(), x.len());
        let quads = w.len() / 4;
        let mut s = _mm_setzero_ps();
        for q in 0..quads {
            let wv = _mm_loadu_ps(w.as_ptr().add(4 * q));
            let xv = _mm_loadu_ps(x.as_ptr().add(4 * q));
            s = _mm_add_ps(s, _mm_mul_ps(wv, xv));
        }
        let mut lanes = [0.0f32; 4];
        _mm_storeu_ps(lanes.as_mut_ptr(), s);
        let mut acc = [(lanes[0] + lanes[1]) + (lanes[2] + lanes[3])];
        tail_accumulate::<1>(&mut acc, &w[4 * quads..], &x[4 * quads..]);
        acc[0]
    }

    /// AVX2 int8 dot: each 16-lane chunk is sign-extended to i16
    /// (`vpmovsxbw`) and multiply-added in pairs into eight i32 lanes
    /// (`vpmaddwd`, exact: `2 · 128² < 2³¹`). Two accumulators over
    /// alternating chunks, a horizontal sum, then the scalar kernel for
    /// the `len % 16` tail. Integer sums are order-free, so this equals
    /// [`scalar::dot_i8`] exactly.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support, and `a` and `b` must have
    /// the same length: every chunk of `a` is loaded from `b` too.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let chunks = a.len() / 16;
        let chunk = |c: usize| {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(16 * c).cast()));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(16 * c).cast()));
            _mm256_madd_epi16(va, vb)
        };
        let mut acc0 = _mm256_setzero_si256();
        let mut acc1 = _mm256_setzero_si256();
        let mut c = 0;
        while c + 2 <= chunks {
            acc0 = _mm256_add_epi32(acc0, chunk(c));
            acc1 = _mm256_add_epi32(acc1, chunk(c + 1));
            c += 2;
        }
        if c < chunks {
            acc0 = _mm256_add_epi32(acc0, chunk(c));
        }
        let acc = _mm256_add_epi32(acc0, acc1);
        let s = _mm_add_epi32(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256(acc, 1),
        );
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b10_11_00_01));
        _mm_cvtsi128_si32(s) + scalar::dot_i8(&a[16 * chunks..], &b[16 * chunks..])
    }

    /// f32x8 fused multi-query dense kernel: the eight query lanes live
    /// in one AVX register per accumulator chain; each quad step
    /// broadcasts one weight and does `mul` + `add` per chain, and the
    /// chains combine as `(s0 + s1) + (s2 + s3)` lane-wise — exactly the
    /// scalar backend's per-lane arithmetic.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX support.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn dense_into_multi_avx(
        w: &[f32],
        bias: &[f32],
        xt: &[f32],
        out: &mut Vec<f32>,
    ) {
        const L: usize = QUERY_LANES;
        let inp = xt.len() / L;
        debug_assert_eq!(xt.len(), inp * L);
        out.clear();
        out.reserve(bias.len() * L);
        let quads = inp / 4;
        for (o, &b0) in bias.iter().enumerate() {
            let row = &w[o * inp..(o + 1) * inp];
            let mut s0 = _mm256_setzero_ps();
            let mut s1 = _mm256_setzero_ps();
            let mut s2 = _mm256_setzero_ps();
            let mut s3 = _mm256_setzero_ps();
            for q in 0..quads {
                let wq = &row[4 * q..4 * q + 4];
                let xb = xt.as_ptr().add(4 * q * L);
                s0 = _mm256_add_ps(
                    s0,
                    _mm256_mul_ps(_mm256_set1_ps(wq[0]), _mm256_loadu_ps(xb)),
                );
                s1 = _mm256_add_ps(
                    s1,
                    _mm256_mul_ps(_mm256_set1_ps(wq[1]), _mm256_loadu_ps(xb.add(L))),
                );
                s2 = _mm256_add_ps(
                    s2,
                    _mm256_mul_ps(_mm256_set1_ps(wq[2]), _mm256_loadu_ps(xb.add(2 * L))),
                );
                s3 = _mm256_add_ps(
                    s3,
                    _mm256_mul_ps(_mm256_set1_ps(wq[3]), _mm256_loadu_ps(xb.add(3 * L))),
                );
            }
            let sv = _mm256_add_ps(_mm256_add_ps(s0, s1), _mm256_add_ps(s2, s3));
            let mut acc = [0.0f32; L];
            _mm256_storeu_ps(acc.as_mut_ptr(), sv);
            tail_accumulate::<L>(&mut acc, &row[4 * quads..], &xt[4 * quads * L..]);
            for a in acc {
                out.push(a + b0);
            }
        }
    }

    /// AVX conv2d for unit column stride: eight interior output pixels
    /// per register. For a fixed kernel tap the eight pixels read eight
    /// consecutive input elements (stride 1), so each tap is one
    /// unaligned load, one broadcast, `mul` + `add`. Each pixel is an
    /// independent accumulator chain starting at the bias and visiting
    /// taps in `(channel, ky, kx)` order — the same chain
    /// [`scalar::conv_pixel`] computes, which also handles border and
    /// remainder pixels here.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX support, and `d.stride.1 == 1`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn conv2d_into_avx(
        x: &[f32],
        kernel: &[f32],
        bias: &[f32],
        d: ConvDims,
        out: &mut Vec<f32>,
    ) {
        debug_assert_eq!(x.len(), d.c * d.h * d.w);
        debug_assert_eq!(d.stride.1, 1);
        let sh = d.stride.0;
        let (oh, ow) = (d.oh(), d.ow());
        let ph = d.kh / 2;
        let pw = d.kw / 2;
        let co_per_group = d.co / d.groups;
        out.clear();
        out.reserve(d.co * oh * ow);
        debug_assert_eq!(bias.len(), d.co);
        // Interior columns: xbase >= pw and xbase - pw + kw <= w, so the
        // full kernel row overlaps the input row (with stride 1,
        // xbase == ox).
        let lo = pw;
        let hi = (d.w + pw).saturating_sub(d.kw) + 1;
        let hi = hi.min(ow).max(lo);
        for (ocn, &b0) in bias.iter().enumerate() {
            let g = ocn / co_per_group;
            let in_base = g * d.cg;
            for oy in 0..oh {
                let ybase = oy * sh;
                let ky_lo = ph.saturating_sub(ybase);
                let ky_hi = d.kh.min(d.h + ph - ybase);
                let mut ox = 0usize;
                while ox < ow {
                    if ox >= lo && ox + 8 <= hi {
                        let mut acc = _mm256_set1_ps(b0);
                        for icg in 0..d.cg {
                            let ic = in_base + icg;
                            let x_plane = &x[ic * d.h * d.w..(ic + 1) * d.h * d.w];
                            let k_base = ((ocn * d.cg + icg) * d.kh) * d.kw;
                            for ky in ky_lo..ky_hi {
                                let iy = ybase + ky - ph;
                                let xrow = x_plane.as_ptr().add(iy * d.w);
                                for kx in 0..d.kw {
                                    let kv = _mm256_set1_ps(kernel[k_base + ky * d.kw + kx]);
                                    let xv = _mm256_loadu_ps(xrow.add(ox - pw + kx));
                                    acc = _mm256_add_ps(acc, _mm256_mul_ps(kv, xv));
                                }
                            }
                        }
                        let mut lanes = [0.0f32; 8];
                        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
                        out.extend_from_slice(&lanes);
                        ox += 8;
                    } else {
                        out.push(scalar::conv_pixel(
                            x,
                            kernel,
                            b0,
                            d,
                            ocn,
                            in_base,
                            ybase,
                            ox,
                            (ky_lo, ky_hi),
                        ));
                        ox += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_unrolled_matches_reference_order() {
        // 10 lanes: 2 full quads + 2 tail lanes.
        let w: Vec<f32> = (0..10).map(|i| (i as f32) * 0.5 + 1.0).collect();
        let x: Vec<f32> = (0..10).map(|i| (i as f32) * 0.25 - 1.0).collect();
        let got = dot_unrolled(&w, &x);
        // Reproduce the documented order explicitly.
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0, 0.0, 0.0);
        for q in 0..2 {
            s0 += w[4 * q] * x[4 * q];
            s1 += w[4 * q + 1] * x[4 * q + 1];
            s2 += w[4 * q + 2] * x[4 * q + 2];
            s3 += w[4 * q + 3] * x[4 * q + 3];
        }
        let mut want = (s0 + s1) + (s2 + s3);
        want += w[8] * x[8];
        want += w[9] * x[9];
        assert_eq!(got.to_bits(), want.to_bits());
        // The scalar backend is the same specification.
        assert_eq!(scalar::dot_unrolled(&w, &x).to_bits(), want.to_bits());
    }

    #[test]
    fn dense_into_multi_matches_per_lane_dense_into() {
        // 10 inputs (2 quads + 2 tail lanes), 3 outputs, 8 query lanes.
        let (inp, outp) = (10usize, 3usize);
        let w: Vec<f32> = (0..inp * outp).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..outp).map(|i| i as f32 * 0.1).collect();
        let xs: Vec<Vec<f32>> = (0..QUERY_LANES)
            .map(|l| (0..inp).map(|k| ((l * inp + k) as f32).cos()).collect())
            .collect();
        let mut xt = vec![0.0f32; inp * QUERY_LANES];
        for (l, x) in xs.iter().enumerate() {
            for (k, &v) in x.iter().enumerate() {
                xt[k * QUERY_LANES + l] = v;
            }
        }
        let mut fused = Vec::new();
        dense_into_multi(&w, &b, &xt, &mut fused);
        let mut single = Vec::new();
        for (l, x) in xs.iter().enumerate() {
            dense_into(&w, &b, x, &mut single);
            for (o, &v) in single.iter().enumerate() {
                assert_eq!(
                    fused[o * QUERY_LANES + l].to_bits(),
                    v.to_bits(),
                    "lane {l} output {o}"
                );
            }
        }
    }

    #[test]
    fn dense_into_reuses_capacity() {
        let w = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [0.5f32, -0.5];
        let x = [1.0f32, 1.0, 1.0];
        let mut out = Vec::with_capacity(2);
        let ptr = out.as_ptr();
        dense_into(&w, &b, &x, &mut out);
        assert_eq!(out, vec![6.5, 14.5]);
        dense_into(&w, &b, &x, &mut out);
        assert_eq!(ptr, out.as_ptr(), "no reallocation on reuse");
    }

    /// Deterministic pseudo-random f32s with mixed magnitudes, so the
    /// bit-identity comparisons exercise non-trivial rounding.
    fn lcg_vec(seed: u64, n: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = ((s >> 40) as f32) / ((1u32 << 24) as f32);
                (u - 0.5) * 4.0
            })
            .collect()
    }

    #[test]
    fn dispatched_dot_is_bit_identical_to_scalar_backend() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 15, 16, 33, 64, 200, 513] {
            let w = lcg_vec(n as u64 + 1, n);
            let x = lcg_vec(n as u64 + 77, n);
            assert_eq!(
                dot_unrolled(&w, &x).to_bits(),
                scalar::dot_unrolled(&w, &x).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn dispatched_dense_into_is_bit_identical_to_scalar_backend() {
        for (inp, outp) in [(1usize, 1usize), (5, 3), (16, 4), (37, 9), (200, 17)] {
            let w = lcg_vec(inp as u64 * 31 + outp as u64, inp * outp);
            let b = lcg_vec(outp as u64 + 5, outp);
            let x = lcg_vec(inp as u64 + 9, inp);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            dense_into(&w, &b, &x, &mut got);
            scalar::dense_into(&w, &b, &x, &mut want);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "inp={inp} outp={outp}");
        }
    }

    #[test]
    fn dispatched_dense_into_multi_is_bit_identical_to_scalar_backend() {
        for (inp, outp) in [(1usize, 1usize), (4, 2), (10, 3), (37, 9), (200, 17)] {
            let w = lcg_vec(inp as u64 * 17 + outp as u64, inp * outp);
            let b = lcg_vec(outp as u64 + 3, outp);
            let xt = lcg_vec(inp as u64 + 13, inp * QUERY_LANES);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            dense_into_multi(&w, &b, &xt, &mut got);
            scalar::dense_into_multi(&w, &b, &xt, &mut want);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "inp={inp} outp={outp}");
        }
    }

    #[test]
    fn dispatched_conv2d_is_bit_identical_to_scalar_backend() {
        // Covers: width ≥ 8 interiors (AVX chunks), narrow widths
        // (all-border), multi-channel, groups, and both strides (the
        // stride-2 column case must fall back to scalar).
        let cases = [
            // (c, h, w, co, kh, kw, stride, groups)
            (
                1usize,
                4usize,
                20usize,
                2usize,
                3usize,
                3usize,
                (1usize, 1usize),
                1usize,
            ),
            (3, 6, 13, 4, 3, 3, (1, 1), 1),
            (2, 5, 5, 2, 3, 3, (1, 1), 1),
            (4, 8, 16, 4, 3, 3, (2, 1), 2),
            (1, 9, 18, 3, 5, 5, (1, 1), 1),
            (2, 6, 24, 2, 3, 3, (2, 2), 1),
            (1, 3, 8, 1, 1, 1, (1, 1), 1),
        ];
        for (i, &(c, h, w, co, kh, kw, stride, groups)) in cases.iter().enumerate() {
            let d = ConvDims {
                c,
                h,
                w,
                co,
                cg: c / groups,
                kh,
                kw,
                stride,
                groups,
            };
            let x = lcg_vec(i as u64 + 1, c * h * w);
            let kernel = lcg_vec(i as u64 + 100, co * d.cg * kh * kw);
            let bias = lcg_vec(i as u64 + 200, co);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            conv2d_into(&x, &kernel, &bias, d, &mut got);
            scalar::conv2d_into(&x, &kernel, &bias, d, &mut want);
            assert_eq!(got.len(), want.len(), "case {i}");
            for (j, (g, e)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), e.to_bits(), "case {i} elem {j}");
            }
        }
    }

    /// Deterministic int8 lanes over the whole `i8` range.
    fn lcg_i8(seed: u64, n: usize) -> Vec<i8> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 56) as u8 as i8
            })
            .collect()
    }

    /// Every backend that can run here, against the scalar spec.
    fn assert_dot_i8_exact(a: &[i8], b: &[i8]) {
        let want = scalar::dot_i8(a, b);
        assert_eq!(dot_i8(a, b), want, "dispatched, len {}", a.len());
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just detected, and the dispatched
            // `dot_i8` above checked that the lengths are equal.
            let got = unsafe { simd::dot_i8_avx2(a, b) };
            assert_eq!(got, want, "avx2, len {}", a.len());
        }
    }

    #[test]
    fn int8_dot_is_exact_at_every_short_length() {
        // Every tail class of the 16-lane chunks and of the two-chunk
        // unroll, plus the textqa row (200) and its padded stride (208).
        for n in (0usize..=80).chain([200, 208, 1023, 1024, 1025]) {
            assert_dot_i8_exact(&lcg_i8(n as u64 + 1, n), &lcg_i8(n as u64 + 99, n));
        }
    }

    #[test]
    fn int8_dot_does_not_wrap_at_the_fold_limit() {
        // `MAX_FOLD_LEN · 127²` is the largest magnitude the bound can
        // feed the accumulator; it must come back exact, both signs.
        let n = crate::quant::MAX_FOLD_LEN;
        let max = n as i32 * 127 * 127;
        let pos = vec![127i8; n];
        let neg = vec![-127i8; n];
        assert_eq!(scalar::dot_i8(&pos, &pos), max);
        assert_dot_i8_exact(&pos, &pos);
        assert_dot_i8_exact(&neg, &neg);
        assert_eq!(dot_i8(&pos, &neg), -max);
        assert_dot_i8_exact(&pos, &neg);
    }

    #[test]
    #[should_panic(expected = "int8 dot of unequal lengths")]
    fn int8_dot_rejects_unequal_lengths() {
        // The AVX2 kernel reads `b` wherever it reads `a`, so a shorter
        // `b` must stop at the dispatcher on every backend.
        let _ = dot_i8(&lcg_i8(1, 48), &lcg_i8(2, 16));
    }

    #[test]
    fn backend_name_is_stable() {
        let name = backend_name();
        assert!(["avx", "sse2", "scalar"].contains(&name));
        assert_eq!(name, backend_name());
    }

    mod proptests {
        use super::super::*;
        use super::lcg_vec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The dispatched dot (SIMD when available) is bit-identical
            /// to the scalar specification for arbitrary lengths,
            /// including every tail-length class.
            #[test]
            fn dot_simd_matches_scalar_to_the_bit(
                pairs in collection::vec((-8.0f32..8.0f32, -8.0f32..8.0f32), 0..300)
            ) {
                let w: Vec<f32> = pairs.iter().map(|p| p.0).collect();
                let x: Vec<f32> = pairs.iter().map(|p| p.1).collect();
                prop_assert_eq!(
                    dot_unrolled(&w, &x).to_bits(),
                    scalar::dot_unrolled(&w, &x).to_bits()
                );
            }

            /// The int8 dot is exact on every backend for arbitrary
            /// lengths up to the fold limit, tails included.
            #[test]
            fn int8_dot_matches_scalar_at_any_length(
                (n, seed) in (0usize..=crate::quant::MAX_FOLD_LEN, 0u64..1_000_000)
            ) {
                let a = super::lcg_i8(seed ^ 5, n);
                let b = super::lcg_i8(seed ^ 6, n);
                super::assert_dot_i8_exact(&a, &b);
            }

            /// The dispatched fused multi-query kernel is bit-identical
            /// to the scalar specification on every lane and output.
            #[test]
            fn dense_multi_simd_matches_scalar_to_the_bit(
                (inp, outp, seed) in (1usize..40, 1usize..8, 0u64..1_000_000)
            ) {
                let w = lcg_vec(seed ^ 1, inp * outp);
                let b = lcg_vec(seed ^ 2, outp);
                let xt = lcg_vec(seed ^ 3, inp * QUERY_LANES);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                dense_into_multi(&w, &b, &xt, &mut got);
                scalar::dense_into_multi(&w, &b, &xt, &mut want);
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want);
            }

            /// The dispatched conv2d is bit-identical to the scalar
            /// specification across random geometries (both strides, so
            /// the AVX interior path and the scalar fallback are both
            /// exercised).
            #[test]
            fn conv_simd_matches_scalar_to_the_bit(
                (c, h, w, co, ksel, sw, seed) in (
                    1usize..4, 1usize..8, 1usize..24, 1usize..4,
                    0usize..2, 1usize..3, 0u64..1_000_000,
                )
            ) {
                let (kh, kw) = [(1usize, 1usize), (3, 3)][ksel];
                let d = ConvDims {
                    c, h, w, co,
                    cg: c,
                    kh, kw,
                    stride: (1, sw),
                    groups: 1,
                };
                let x = lcg_vec(seed ^ 10, c * h * w);
                let kernel = lcg_vec(seed ^ 11, co * c * kh * kw);
                let bias = lcg_vec(seed ^ 12, co);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                conv2d_into(&x, &kernel, &bias, d, &mut got);
                scalar::conv2d_into(&x, &kernel, &bias, d, &mut want);
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
