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
//! # One portable source, two explicit kernels
//!
//! The f32 layer kernels — [`dense_into`], [`dense_into_multi`] and
//! [`conv2d_into`] — are each one portable function. Their loops hand
//! the compiler fixed-size chunks and independent per-lane accumulator
//! chains, which the `x86-64-v3` build (`.cargo/config.toml`) vectorizes
//! on its own: each of the fused multi-query kernel's four chains holds
//! its [`QUERY_LANES`] queries in one AVX register. Vectorizing independent
//! lanes neither reassociates nor contracts (no fast-math, never FMA — a
//! fused multiply-add rounds once where the contract rounds twice), so a
//! build for any x86-64 level gives the same bits, only more slowly.
//!
//! Two kernels keep explicit `core::arch` code, because measurement
//! shows they pay: the f32x4 dot behind [`dot_unrolled`] (SSE2, the
//! four chains in one register) and the int8 dot [`dot_i8`] (AVX2,
//! integer arithmetic, exact in any order). Each has a portable twin in
//! [`scalar`], which is its specification; the unit tests pin the output
//! bits of every f32 kernel and compare each explicit kernel with its
//! twin.
//!
//! The build picks the kernels, as a chip's design fixes its datapath:
//! the SSE2 dot on every x86_64 target, the AVX2 int8 dot when the build
//! enables AVX2 (the `x86-64-v3` default does; a baseline
//! `-C target-cpu=x86-64` build does not), and the portable twin
//! wherever an explicit kernel is not compiled in. Nothing is chosen at
//! run time.

/// Lane width of the fused multi-query dense kernel: eight queries are
/// scored against one item per pass over the weight row. Eight f32 lanes
/// fill one AVX register (or two SSE registers) and keep the per-row
/// accumulator set (4 chains × 8 lanes) inside the register file.
pub(crate) const QUERY_LANES: usize = 8;

/// Sequential tail accumulation shared by [`dot_unrolled`] (`L = 1`) and
/// [`dense_into_multi`] (`L = QUERY_LANES`): after the quad chains are
/// combined, the leftover `len % 4` weight lanes are multiplied in one
/// at a time, in index order, each into every query lane. This helper is
/// the single source of truth for the tail's summation order — every
/// dot and the fused kernel call it, so the contract lives in exactly
/// one place.
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
/// it, which is what keeps the two paths bit-identical. The SSE2 kernel
/// holds `[s0, s1, s2, s3]` in one f32x4 register and replays the same
/// combine, so dispatch never changes the result bits.
#[inline]
pub(crate) fn dot_unrolled(w: &[f32], x: &[f32]) -> f32 {
    debug_assert_eq!(w.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86_64 baseline.
    return unsafe { simd::dot_sse2(w, x) };
    #[cfg(not(target_arch = "x86_64"))]
    scalar::dot_unrolled(w, x)
}

/// Exact int8 dot product in an i32 accumulator: the int8 bound's
/// phase 1 (see [`crate::quant`]). Integer addition is associative and
/// the caller keeps `len · 127² < 2³¹` (`MAX_FOLD_LEN`), so every lane
/// arrangement gives the same `i32` and both kernels are bit-identical
/// without an order contract. The AVX2 kernel widens sixteen lanes to
/// i16 (`vpmovsxbw`) and multiply-adds pairs into i32 (`vpmaddwd`);
/// `vpmaddubsw` is avoided because it saturates.
///
/// # Panics
///
/// If `a` and `b` differ in length.
#[inline]
pub(crate) fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "int8 dot of unequal lengths");
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    // SAFETY: the build enables AVX2, and the lengths are equal.
    return unsafe { simd::dot_i8_avx2(a, b) };
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
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
/// bit-identical to a [`dense_into`] call on that input alone.
///
/// The quads come as fixed-size chunks (`as_chunks`), so the `l` loops
/// are bounds-check-free and each chain `s[c]` compiles to one f32x8
/// register: one broadcast weight times one lane vector per step.
pub(crate) fn dense_into_multi(w: &[f32], bias: &[f32], xt: &[f32], out: &mut Vec<f32>) {
    const L: usize = QUERY_LANES;
    let inp = xt.len() / L;
    debug_assert_eq!(xt.len(), inp * L);
    out.clear();
    out.reserve(bias.len() * L);
    let (xq, x_tail) = xt.split_at(inp / 4 * 4 * L);
    let (xq, _) = xq.as_chunks::<{ 4 * L }>();
    for (o, &b0) in bias.iter().enumerate() {
        let (wq, w_tail) = w[o * inp..(o + 1) * inp].as_chunks::<4>();
        let mut s = [[0.0f32; L]; 4];
        for (wc, x) in wq.iter().zip(xq) {
            for c in 0..4 {
                for l in 0..L {
                    s[c][l] += wc[c] * x[c * L + l];
                }
            }
        }
        let mut acc = [0.0f32; L];
        for l in 0..L {
            acc[l] = (s[0][l] + s[1][l]) + (s[2][l] + s[3][l]);
        }
        tail_accumulate::<L>(&mut acc, w_tail, x_tail);
        for a in acc {
            out.push(a + b0);
        }
    }
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
/// Each output pixel is one accumulator chain that starts at the bias
/// and visits taps in `(channel, ky, kx)` order. The valid kernel ranges
/// `[ky_lo, ky_hi)` / `[kx_lo, kx_hi)` are computed once per output
/// row/column, so the inner reduction is a slice zip that never tests
/// padding bounds. The *order* of multiply-adds is exactly the order the
/// naive quadruple loop with `continue`-on-padding produces: skipped taps
/// contributed nothing, so eliding them leaves the accumulation sequence
/// unchanged and results bit-identical.
pub(crate) fn conv2d_into(
    x: &[f32],
    kernel: &[f32],
    bias: &[f32],
    d: ConvDims,
    out: &mut Vec<f32>,
) {
    debug_assert_eq!(x.len(), d.c * d.h * d.w);
    debug_assert_eq!(bias.len(), d.co);
    let (sh, sw) = d.stride;
    let (ph, pw) = (d.kh / 2, d.kw / 2);
    let plane = d.h * d.w;
    let co_per_group = d.co / d.groups;
    out.clear();
    out.reserve(d.co * d.oh() * d.ow());
    for (ocn, &b0) in bias.iter().enumerate() {
        let in_base = ocn / co_per_group * d.cg;
        for oy in 0..d.oh() {
            let ybase = oy * sh;
            // iy = ybase + ky - ph must land in [0, h).
            let ky_lo = ph.saturating_sub(ybase);
            let ky_hi = d.kh.min(d.h + ph - ybase);
            for ox in 0..d.ow() {
                let xbase = ox * sw;
                // ix = xbase + kx - pw must land in [0, w).
                let kx_lo = pw.saturating_sub(xbase);
                let kx_hi = d.kw.min(d.w + pw - xbase);
                let mut acc = b0;
                for icg in 0..d.cg {
                    let x_plane = &x[(in_base + icg) * plane..][..plane];
                    let k_base = (ocn * d.cg + icg) * d.kh * d.kw;
                    for ky in ky_lo..ky_hi {
                        let xrow = &x_plane[(ybase + ky - ph) * d.w..][..d.w];
                        let krow = &kernel[k_base + ky * d.kw..][..d.kw];
                        let xs = &xrow[xbase + kx_lo - pw..xbase + kx_hi - pw];
                        for (xv, kv) in xs.iter().zip(&krow[kx_lo..kx_hi]) {
                            acc += xv * kv;
                        }
                    }
                }
                out.push(acc);
            }
        }
    }
}

/// The portable twins of the two explicit kernels — the specification
/// of their results.
pub(crate) mod scalar {
    /// Portable [`super::dot_unrolled`]: four independent chains
    /// combined `(s0 + s1) + (s2 + s3)`, sequential tail. x86_64 builds
    /// compile it for the tests only.
    #[cfg(any(test, not(target_arch = "x86_64")))]
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
        super::tail_accumulate::<1>(&mut acc, wq.remainder(), xq.remainder());
        acc[0]
    }

    /// Portable [`super::dot_i8`]: one i32 multiply-add per lane.
    #[inline]
    pub(crate) fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum()
    }
}

/// The explicit x86_64 kernels. Each replays its [`scalar`] twin's
/// result exactly; see the module docs.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::tail_accumulate;
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
    /// [`super::scalar::dot_i8`] exactly. Compiled only where the build
    /// enables AVX2.
    ///
    /// # Safety
    ///
    /// `a` and `b` must have the same length: every chunk of `a` is
    /// loaded from `b` too.
    // `#[inline]`: without it, whether the bound sweep inlines this
    // kernel depends on which codegen unit it happens to land in.
    #[cfg(target_feature = "avx2")]
    #[inline]
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
        _mm_cvtsi128_si32(s) + super::scalar::dot_i8(&a[16 * chunks..], &b[16 * chunks..])
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
        // The portable twin is the same specification.
        assert_eq!(scalar::dot_unrolled(&w, &x).to_bits(), want.to_bits());
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

    /// FNV-1a over the bit patterns of `v`: one number that changes if
    /// any output bit does.
    fn bits_digest(v: &[f32]) -> u64 {
        v.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The conv geometries the pinned and equivalence tests share, as
    /// `[c, h, w, co, k, stride_y, stride_x, groups]` with a `k × k`
    /// kernel: widths ≥ 8 and narrow (all-border) ones, several
    /// channels, groups, and row, column and both strides.
    const CONV_CASES: [[usize; 8]; 7] = [
        [1, 4, 20, 2, 3, 1, 1, 1],
        [3, 6, 13, 4, 3, 1, 1, 1],
        [2, 5, 5, 2, 3, 1, 1, 1],
        [4, 8, 16, 4, 3, 2, 1, 2],
        [1, 9, 18, 3, 5, 1, 1, 1],
        [2, 6, 24, 2, 3, 2, 2, 1],
        [1, 3, 8, 1, 1, 1, 1, 1],
    ];

    fn conv_dims([c, h, w, co, k, sy, sx, groups]: [usize; 8]) -> ConvDims {
        ConvDims {
            c,
            h,
            w,
            co,
            cg: c / groups,
            kh: k,
            kw: k,
            stride: (sy, sx),
            groups,
        }
    }

    /// The output bits of every f32 layer kernel, pinned. The inputs are
    /// fixed `lcg_vec` draws and the kernels only multiply and add, so
    /// the digests hold on every x86-64 build; a change to
    /// any kernel's summation order shows up here.
    #[test]
    fn kernel_output_bits_are_pinned() {
        let mut dots = Vec::new();
        for n in [0usize, 1, 3, 4, 5, 7, 8, 15, 16, 33, 64, 200, 513] {
            let w = lcg_vec(n as u64 + 1, n);
            let x = lcg_vec(n as u64 + 77, n);
            dots.push(dot_unrolled(&w, &x));
        }

        let (mut dense, mut multi, mut out) = (Vec::new(), Vec::new(), Vec::new());
        for (inp, outp) in [(1usize, 1usize), (5, 3), (16, 4), (37, 9), (200, 17)] {
            let w = lcg_vec(inp as u64 * 31 + outp as u64, inp * outp);
            let b = lcg_vec(outp as u64 + 5, outp);
            let x = lcg_vec(inp as u64 + 9, inp);
            dense_into(&w, &b, &x, &mut out);
            dense.extend_from_slice(&out);
        }
        let multi_shapes = [
            (1usize, 1usize),
            (4, 2),
            (10, 3),
            (37, 9),
            (200, 17),
            (203, 5),
        ];
        for (inp, outp) in multi_shapes {
            let w = lcg_vec(inp as u64 * 17 + outp as u64, inp * outp);
            let b = lcg_vec(outp as u64 + 3, outp);
            let xt = lcg_vec(inp as u64 + 13, inp * QUERY_LANES);
            dense_into_multi(&w, &b, &xt, &mut out);
            multi.extend_from_slice(&out);
        }

        let mut conv = Vec::new();
        for (i, &case) in CONV_CASES.iter().enumerate() {
            let d = conv_dims(case);
            let x = lcg_vec(i as u64 + 1, d.c * d.h * d.w);
            let kernel = lcg_vec(i as u64 + 100, d.co * d.cg * d.kh * d.kw);
            let bias = lcg_vec(i as u64 + 200, d.co);
            conv2d_into(&x, &kernel, &bias, d, &mut out);
            conv.extend_from_slice(&out);
        }

        let got = [
            (dots.len(), bits_digest(&dots)),
            (dense.len(), bits_digest(&dense)),
            (multi.len(), bits_digest(&multi)),
            (conv.len(), bits_digest(&conv)),
        ];
        let want = [
            (13, 0x8816_2791_f0e4_560b),
            (34, 0x4735_44ee_07e9_5483),
            (296, 0x34ea_efbd_9c30_76c1),
            (1360, 0x3068_2afe_60ee_0baa),
        ];
        assert_eq!(got, want, "[dot, dense, dense_multi, conv2d] (len, digest)");
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
            let mut got = Vec::new();
            dense_into(&w, &b, &x, &mut got);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = (w.chunks_exact(inp).zip(&b))
                .map(|(row, &bo)| (scalar::dot_unrolled(row, &x) + bo).to_bits())
                .collect();
            assert_eq!(got, want, "inp={inp} outp={outp}");
        }
    }

    /// Deterministic draws in `0..n`, for the random-shape tests.
    fn shape_draws(seed: u64) -> impl FnMut(usize) -> usize {
        let mut s = seed;
        move |n| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize % n
        }
    }

    /// The fused kernel is bit-identical, on every lane and output, to
    /// [`dense_into`] on that lane's input alone — the single-query
    /// path, which runs the SSE2 dot on x86_64. Fixed shapes
    /// first, then random ones covering every `in % 4` tail class.
    #[test]
    fn dense_multi_simd_matches_scalar_to_the_bit() {
        let fixed = [(1usize, 1usize), (4, 2), (10, 3), (37, 9), (200, 17)];
        let mut draw = shape_draws(0xF05E);
        let random: Vec<_> = (0..64).map(|_| (1 + draw(40), 1 + draw(8))).collect();
        let (mut fused, mut single, mut x) = (Vec::new(), Vec::new(), Vec::new());
        for (i, (inp, outp)) in fixed.into_iter().chain(random).enumerate() {
            let seed = i as u64 * 7919;
            let w = lcg_vec(seed ^ 1, inp * outp);
            let b = lcg_vec(seed ^ 2, outp);
            let xt = lcg_vec(seed ^ 3, inp * QUERY_LANES);
            dense_into_multi(&w, &b, &xt, &mut fused);
            for l in 0..QUERY_LANES {
                x.clear();
                x.extend(xt.iter().skip(l).step_by(QUERY_LANES));
                dense_into(&w, &b, &x, &mut single);
                for (o, v) in single.iter().enumerate() {
                    assert_eq!(
                        fused[o * QUERY_LANES + l].to_bits(),
                        v.to_bits(),
                        "inp={inp} outp={outp} lane {l} output {o}"
                    );
                }
            }
        }
    }

    /// The textbook convolution: taps in `(channel, ky, kx)` order,
    /// `continue` on padding — the order [`conv2d_into`] promises.
    fn naive_conv(x: &[f32], kernel: &[f32], bias: &[f32], d: ConvDims) -> Vec<f32> {
        let (ph, pw) = (d.kh / 2, d.kw / 2);
        let mut out = Vec::new();
        for (ocn, &b0) in bias.iter().enumerate() {
            let ic0 = ocn / (d.co / d.groups) * d.cg;
            for oy in 0..d.oh() {
                for ox in 0..d.ow() {
                    let mut acc = b0;
                    for icg in 0..d.cg {
                        for ky in 0..d.kh {
                            for kx in 0..d.kw {
                                let (iy, ix) = (oy * d.stride.0 + ky, ox * d.stride.1 + kx);
                                if iy < ph || ix < pw || iy - ph >= d.h || ix - pw >= d.w {
                                    continue;
                                }
                                let xi = ((ic0 + icg) * d.h + iy - ph) * d.w + ix - pw;
                                let ki = ((ocn * d.cg + icg) * d.kh + ky) * d.kw + kx;
                                acc += x[xi] * kernel[ki];
                            }
                        }
                    }
                    out.push(acc);
                }
            }
        }
        out
    }

    /// [`conv2d_into`] is bit-identical to [`naive_conv`]: the fixed
    /// geometries first, then random ones (1×1, 3×3 and 5×5 kernels,
    /// every row/column stride pair up to 2, grouped and not).
    #[test]
    fn conv_simd_matches_scalar_to_the_bit() {
        let mut draw = shape_draws(0xC0411);
        let random: Vec<[usize; 8]> = (0..64)
            .map(|_| {
                let c = 1 + draw(4);
                let groups = if c.is_multiple_of(2) { 1 + draw(2) } else { 1 };
                let co = groups * (1 + draw(3));
                let k = [1, 3, 5][draw(3)];
                [
                    c,
                    1 + draw(8),
                    1 + draw(24),
                    co,
                    k,
                    1 + draw(2),
                    1 + draw(2),
                    groups,
                ]
            })
            .collect();
        let mut got = Vec::new();
        for (i, case) in CONV_CASES.into_iter().chain(random).enumerate() {
            let d = conv_dims(case);
            let seed = i as u64 * 7919;
            let x = lcg_vec(seed ^ 10, d.c * d.h * d.w);
            let kernel = lcg_vec(seed ^ 11, d.co * d.cg * d.kh * d.kw);
            let bias = lcg_vec(seed ^ 12, d.co);
            conv2d_into(&x, &kernel, &bias, d, &mut got);
            let want = naive_conv(&x, &kernel, &bias, d);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "case {i}: {case:?}");
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

    /// Every int8 kernel this build compiles, against the scalar spec.
    fn assert_dot_i8_exact(a: &[i8], b: &[i8]) {
        let want = scalar::dot_i8(a, b);
        assert_eq!(dot_i8(a, b), want, "dispatched, len {}", a.len());
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        {
            // SAFETY: the dispatched `dot_i8` above checked that the
            // lengths are equal.
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
        // `b` must stop at the dispatcher in every build.
        let _ = dot_i8(&lcg_i8(1, 48), &lcg_i8(2, 16));
    }

    mod proptests {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The dispatched dot (SSE2 on x86_64) is bit-identical
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

            /// The int8 dot is exact in every build for arbitrary
            /// lengths up to the fold limit, tails included.
            #[test]
            fn int8_dot_matches_scalar_at_any_length(
                (n, seed) in (0usize..=crate::quant::MAX_FOLD_LEN, 0u64..1_000_000)
            ) {
                let a = super::lcg_i8(seed ^ 5, n);
                let b = super::lcg_i8(seed ^ 6, n);
                super::assert_dot_i8_exact(&a, &b);
            }
        }
    }
}
