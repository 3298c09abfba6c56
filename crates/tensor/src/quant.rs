//! Reduced-precision weight panels for the prepacked inference GEMMs.
//!
//! The frozen inference engine multiplies fixed trained weights against
//! ever-changing activations, so the weights can be re-encoded once at
//! freeze time:
//!
//! - **f16** panels store each weight as an IEEE binary16 half. The kernel
//!   widens each lane back to f32 and accumulates in f32 with the same
//!   `k`-order as the f32 driver — outputs differ from f32 only by the
//!   one-time rounding of the weights.
//! - **int8** panels store each weight as a signed byte with one f32 scale
//!   per *output channel* (column). Activations are quantised per row on
//!   the fly to unsigned bytes over an asymmetric zero-including range
//!   (scale + zero-point per row); the dot product runs in exact i32
//!   integer arithmetic and a fixed-order epilogue subtracts the
//!   zero-point correction and applies the two scales. Because every step
//!   is either exact integer math or a fixed float expression, int8
//!   results are bit-identical across targets and across batch splits
//!   (each output row depends only on its own activation row).
//!
//! Both reduced-precision layouts keep the `NR`-column strip structure of
//! the f32 panels so the drivers share their loop shape with
//! [`crate::gemm`].

use crate::gemm::{MR, NR};

/// Storage precision of a [`crate::PackedWeight`] panel, chosen at freeze
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full-precision panels: bit-identical to the unpacked GEMM.
    #[default]
    F32,
    /// Half-precision weights, f32 accumulate; halves panel memory.
    F16,
    /// Per-output-channel int8 weights with on-the-fly u8 activation
    /// quantisation and exact i32 accumulate; quarter panel memory.
    Int8,
}

impl Precision {
    /// Canonical lower-case name (`"f32"` / `"f16"` / `"int8"`).
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::Int8 => "int8",
        }
    }

    /// Parses a `HWPR_INFER_PRECISION`-style spec (case-insensitive,
    /// surrounding whitespace ignored).
    pub fn parse(spec: &str) -> Option<Self> {
        match spec.trim().to_ascii_lowercase().as_str() {
            "f32" => Some(Precision::F32),
            "f16" => Some(Precision::F16),
            "int8" | "i8" => Some(Precision::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// ---------------------------------------------------------------------------
// IEEE binary16 conversion (software; the kernels widen with hardware
// instructions where the target has them)
// ---------------------------------------------------------------------------

/// Converts an f32 to IEEE binary16 bits with round-to-nearest-even.
pub(crate) fn f32_to_half(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;
    if exp == 0xff {
        // inf / NaN: keep a quiet-NaN payload bit so NaNs stay NaNs
        return sign | 0x7c00 | if mant != 0 { 0x0200 } else { 0 };
    }
    // unbiased exponent, rebiased for binary16
    let e = exp - 127 + 15;
    if e >= 0x1f {
        return sign | 0x7c00; // overflow to infinity
    }
    if e <= 0 {
        if e < -10 {
            return sign; // underflow to zero
        }
        // subnormal half: shift the (implicit-1) mantissa into place
        let m = mant | 0x0080_0000;
        let shift = (14 - e) as u32;
        let half = (m >> shift) as u16;
        let rem = m & ((1 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        if rem > halfway || (rem == halfway && half & 1 == 1) {
            return sign | (half + 1);
        }
        return sign | half;
    }
    let half = ((e as u32) << 10 | mant >> 13) as u16;
    let rem = mant & 0x1fff;
    if rem > 0x1000 || (rem == 0x1000 && half & 1 == 1) {
        sign | (half + 1) // may carry into the exponent; that is correct
    } else {
        sign | half
    }
}

/// Widens IEEE binary16 bits back to f32 (exact).
// Only the portable (non-AVX-512F) f16 micro-kernel and tests widen in
// software; hardware targets use vcvtph2ps.
#[cfg_attr(target_feature = "avx512f", allow(dead_code))]
#[inline(always)]
pub(crate) fn half_to_f32(h: u16) -> f32 {
    let sign = (h as u32 & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let mant = h as u32 & 0x03ff;
    let bits = match exp {
        0 => {
            if mant == 0 {
                sign // signed zero
            } else {
                // subnormal half: shift the leading one up to the
                // implicit bit (bit 10), drop it, and rebias
                let shift = mant.leading_zeros() - 21;
                let m = (mant << shift) & 0x03ff;
                sign | ((113 - shift) << 23) | (m << 13)
            }
        }
        0x1f => sign | 0x7f80_0000 | (mant << 13), // inf / NaN
        _ => sign | ((exp as u32 + 112) << 23) | (mant << 13),
    };
    f32::from_bits(bits)
}

// ---------------------------------------------------------------------------
// f16 panels
// ---------------------------------------------------------------------------

/// Re-encodes an f32 panel (already in driver order, see
/// [`crate::gemm::pack_b_full`]) as binary16.
pub(crate) fn encode_half_panels(panels: &[f32], dst: &mut Vec<u16>) {
    dst.clear();
    dst.extend(panels.iter().map(|&v| f32_to_half(v)));
}

/// `C = A @ B` against binary16 panels: each `B` lane is widened to f32 and
/// the accumulation runs in f32, in the exact `k`-order of the f32 driver.
///
/// The panel layout matches [`crate::gemm::pack_b_full`] lane for lane
/// (same `jc`/`pc` blocking, same strips), and `A` (always the row-major
/// activation matrix here) is read in place like the f32 driver's direct
/// path — including the store-direct full-tile case — so this is the f32
/// prepacked driver with a widening `B` load in the micro-kernel.
pub(crate) fn gemm_prepacked_f16(
    (m, n, k): (usize, usize, usize),
    a: &[f32],
    packed_b: &[u16],
    c: &mut [f32],
) {
    use crate::gemm::{KC, MC, NC};
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let _timer = crate::telemetry::KernelTimer::gemm((m, n, k));
    let mut b_offset = 0;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let panel_len = nc.div_ceil(NR) * NR * kc;
            let b_panel = &packed_b[b_offset..b_offset + panel_len];
            b_offset += panel_len;
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                for jr in (0..nc).step_by(NR) {
                    let b_strip = &b_panel[(jr / NR) * NR * kc..];
                    for ir in (0..mc).step_by(MR) {
                        let live_rows = MR.min(mc - ir);
                        let live_cols = NR.min(nc - jr);
                        if pc == 0 && live_rows == MR && live_cols == NR {
                            // overwrite mode, full tile: skip the stack
                            // accumulator entirely
                            let a_tile = &a[(ic + ir) * k..];
                            let c_tile = &mut c[(ic + ir) * n + jc + jr..];
                            micro_kernel_f16_direct_store(kc, a_tile, k, b_strip, c_tile, n);
                            continue;
                        }
                        let a_tile = &a[(ic + ir) * k + pc..];
                        let mut acc = [[0.0f32; NR]; MR];
                        if live_rows == MR {
                            micro_kernel_f16_direct(kc, a_tile, k, b_strip, &mut acc);
                        } else {
                            micro_kernel_f16_direct_partial(
                                kc, a_tile, k, live_rows, b_strip, &mut acc,
                            );
                        }
                        for (ii, acc_row) in acc.iter().enumerate().take(live_rows) {
                            let row = (ic + ir + ii) * n + jc + jr;
                            let dst = &mut c[row..row + live_cols];
                            if pc == 0 {
                                dst.copy_from_slice(&acc_row[..live_cols]);
                            } else {
                                for (cell, &v) in dst.iter_mut().zip(acc_row) {
                                    *cell += v;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// AVX-512 f16 micro-kernel reading `A` in place (row stride `lda`): one
/// `vcvtph2ps` widen per `NR` strip row, then the same FMA chain as the
/// f32 direct kernel.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline]
fn micro_kernel_f16_direct(
    kc: usize,
    a: &[f32],
    lda: usize,
    b_strip: &[u16],
    acc: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    const { assert!(NR == 16, "one zmm register holds exactly NR lanes") };
    assert!(a.len() > (MR - 1) * lda + kc - 1, "A tile out of bounds");
    assert!(b_strip.len() >= kc * NR, "packed B strip too short");
    // SAFETY: AVX-512F is statically enabled by the cfg above (vcvtph2ps
    // on zmm is part of AVX-512F), and the asserts bound every pointer.
    unsafe {
        let mut rows = [_mm512_setzero_ps(); MR];
        for (row, dst) in rows.iter_mut().zip(acc.iter()) {
            *row = _mm512_loadu_ps(dst.as_ptr());
        }
        let pa = a.as_ptr();
        let mut pb = b_strip.as_ptr();
        for p in 0..kc {
            let half = _mm256_loadu_si256(pb as *const __m256i);
            let b = _mm512_cvtph_ps(half);
            for (i, row) in rows.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*pa.add(i * lda + p));
                *row = _mm512_fmadd_ps(av, b, *row);
            }
            pb = pb.add(NR);
        }
        for (dst, row) in acc.iter_mut().zip(rows.iter()) {
            _mm512_storeu_ps(dst.as_mut_ptr(), *row);
        }
    }
}

/// Portable in-place-`A` f16 micro-kernel: software widen, then the
/// portable f32 chain.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline(always)]
fn micro_kernel_f16_direct(
    kc: usize,
    a: &[f32],
    lda: usize,
    b_strip: &[u16],
    acc: &mut [[f32; NR]; MR],
) {
    debug_assert!(a.len() > (MR - 1) * lda + kc - 1);
    debug_assert!(b_strip.len() >= kc * NR);
    for p in 0..kc {
        let b_halfs = &b_strip[p * NR..(p + 1) * NR];
        let mut b_vals = [0.0f32; NR];
        for (v, &h) in b_vals.iter_mut().zip(b_halfs) {
            *v = half_to_f32(h);
        }
        for (i, row) in acc.iter_mut().enumerate() {
            let a_val = a[i * lda + p];
            for (cell, &b_val) in row.iter_mut().zip(&b_vals) {
                *cell += a_val * b_val;
            }
        }
    }
}

/// [`micro_kernel_f16_direct`] for the overwrite case (`pc == 0`, full
/// `MR x NR` tile): accumulates from zero in registers and stores the
/// finished tile straight into `C` (row stride `ldc`).
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline]
fn micro_kernel_f16_direct_store(
    kc: usize,
    a: &[f32],
    lda: usize,
    b_strip: &[u16],
    c: &mut [f32],
    ldc: usize,
) {
    use std::arch::x86_64::*;
    assert!(a.len() > (MR - 1) * lda + kc - 1, "A tile out of bounds");
    assert!(b_strip.len() >= kc * NR, "packed B strip too short");
    assert!(c.len() >= (MR - 1) * ldc + NR, "C tile out of bounds");
    // SAFETY: AVX-512F is statically enabled by the cfg; the asserts bound
    // every read and write below.
    unsafe {
        let mut rows = [_mm512_setzero_ps(); MR];
        let pa = a.as_ptr();
        let mut pb = b_strip.as_ptr();
        for p in 0..kc {
            let half = _mm256_loadu_si256(pb as *const __m256i);
            let b = _mm512_cvtph_ps(half);
            for (i, row) in rows.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*pa.add(i * lda + p));
                *row = _mm512_fmadd_ps(av, b, *row);
            }
            pb = pb.add(NR);
        }
        let pc_out = c.as_mut_ptr();
        for (i, row) in rows.iter().enumerate() {
            _mm512_storeu_ps(pc_out.add(i * ldc), *row);
        }
    }
}

/// Portable store-direct f16 micro-kernel (see the AVX-512 variant above).
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline(always)]
fn micro_kernel_f16_direct_store(
    kc: usize,
    a: &[f32],
    lda: usize,
    b_strip: &[u16],
    c: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    micro_kernel_f16_direct(kc, a, lda, b_strip, &mut acc);
    for (i, row) in acc.iter().enumerate() {
        c[i * ldc..i * ldc + NR].copy_from_slice(row);
    }
}

/// In-place-`A` f16 micro-kernel for the final partial row tile
/// (`live < MR`): per-element ops and `k`-order match the full kernels
/// exactly (fused on AVX-512F, two roundings elsewhere).
#[inline]
fn micro_kernel_f16_direct_partial(
    kc: usize,
    a: &[f32],
    lda: usize,
    live: usize,
    b_strip: &[u16],
    acc: &mut [[f32; NR]; MR],
) {
    debug_assert!(live < MR && live > 0);
    debug_assert!(b_strip.len() >= kc * NR);
    for p in 0..kc {
        let b_halfs = &b_strip[p * NR..(p + 1) * NR];
        let mut b_vals = [0.0f32; NR];
        for (v, &h) in b_vals.iter_mut().zip(b_halfs) {
            *v = half_to_f32(h);
        }
        for (i, row) in acc.iter_mut().enumerate().take(live) {
            let a_val = a[i * lda + p];
            for (cell, &b_val) in row.iter_mut().zip(&b_vals) {
                #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
                {
                    *cell = a_val.mul_add(b_val, *cell);
                }
                #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
                {
                    *cell += a_val * b_val;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// int8 panels
// ---------------------------------------------------------------------------

/// An int8-quantised `B` operand: per-output-channel scales, bytes in
/// `NR`-column strips of `k`-groups-of-4 (the `vpdpbusd` lane layout).
#[derive(Debug, Default)]
pub(crate) struct Int8Panels {
    /// Quantised weights: for each `NR`-column strip, `kq/4` groups of
    /// `NR x 4` bytes (4 consecutive `k` values per column lane).
    pub data: Vec<i8>,
    /// Per-column dequantisation scale (`amax / 127`).
    pub scales: Vec<f32>,
    /// Per-column `sum(q)`: multiplied by each row's activation
    /// zero-point in the epilogue to remove the unsigned offset exactly.
    pub colsums: Vec<i32>,
    /// `k` rounded up to a multiple of 4 (zero-padded).
    pub kq: usize,
}

impl Int8Panels {
    /// Quantises a row-major `k x n` weight into the strip layout.
    /// Buffers retain capacity across repacks.
    pub fn pack(&mut self, b: &[f32], (k, n): (usize, usize)) {
        let kq = k.div_ceil(4) * 4;
        self.kq = kq;
        self.scales.clear();
        self.scales.reserve(n);
        for j in 0..n {
            let mut amax = 0.0f32;
            for i in 0..k {
                amax = amax.max(b[i * n + j].abs());
            }
            self.scales
                .push(if amax > 0.0 { amax / 127.0 } else { 1.0 });
        }
        let strips = n.div_ceil(NR);
        self.data.clear();
        self.data.resize(strips * NR * kq, 0);
        self.colsums.clear();
        self.colsums.reserve(n);
        for j in 0..n {
            let strip = j / NR;
            let lane = j % NR;
            let scale = self.scales[j];
            let mut sum = 0i32;
            for i in 0..k {
                let q = (b[i * n + j] / scale).round().clamp(-127.0, 127.0) as i32;
                sum += q;
                // strip base + k-group-of-4 base + lane base + byte-in-group
                let idx = strip * NR * kq + (i / 4) * NR * 4 + lane * 4 + i % 4;
                self.data[idx] = q as i8;
            }
            self.colsums.push(sum);
        }
    }
}

thread_local! {
    /// Per-thread activation-quantisation scratch: `(bytes, row scales,
    /// row zero-points)`. Bounded by the largest `m x kq` activation a
    /// thread multiplies, so every int8 GEMM after warm-up is
    /// allocation-free.
    static QUANT_SCRATCH: std::cell::RefCell<(Vec<u8>, Vec<f32>, Vec<i32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// `C = A @ B` against int8 panels.
///
/// Each activation row is quantised *asymmetrically* to unsigned bytes
/// with its own scale and zero-point over the zero-including range
/// `[min(0, min), max(0, max)]` — post-ReLU rows use all 255 levels
/// instead of wasting the negative half. The inner product runs in exact
/// integer arithmetic; a fixed-order epilogue subtracts `zp * colsum`
/// (exact in i64) and applies both scales in f32. Rows are quantised
/// independently, so any batch split of `A` reproduces the same output
/// bits.
pub(crate) fn gemm_prepacked_i8(
    (m, n, k): (usize, usize, usize),
    a: &[f32],
    panels: &Int8Panels,
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let _timer = crate::telemetry::KernelTimer::gemm((m, n, k));
    let kq = panels.kq;
    QUANT_SCRATCH.with(|scratch| {
        let (qa, sa, za) = &mut *scratch.borrow_mut();
        quantize_rows(a, (m, k), kq, qa, sa, za);
        for jr in (0..n).step_by(NR) {
            let live_cols = NR.min(n - jr);
            let b_strip = &panels.data[(jr / NR) * NR * kq..];
            for ir in (0..m).step_by(MR) {
                let live_rows = MR.min(m - ir);
                let mut acc = [[0i32; NR]; MR];
                micro_kernel_i8(kq / 4, &qa[ir * kq..], live_rows, b_strip, &mut acc);
                dequant_rows(
                    &acc,
                    live_rows,
                    live_cols,
                    (&sa[ir..], &za[ir..]),
                    (&panels.scales[jr..], &panels.colsums[jr..]),
                    &mut c[ir * n + jr..],
                    n,
                );
            }
        }
    });
}

/// Dequantisation epilogue for one `MR x NR` tile: per cell,
/// `scale_a * (scale_b * (acc - zp * colsum))`, all in the fixed order of
/// the scalar expression. The integer part is exact in i32: `|acc|` and
/// `|zp * colsum|` are both bounded by `255 * 127 * k`, so nothing wraps
/// for any `k` below ~66k, and the `as f32` conversion of the difference
/// (< 2^24) is exact.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline(always)]
fn dequant_rows(
    acc: &[[i32; NR]; MR],
    live_rows: usize,
    live_cols: usize,
    (sa, za): (&[f32], &[i32]),
    (wscales, colsums): (&[f32], &[i32]),
    c: &mut [f32],
    ldc: usize,
) {
    for ii in 0..live_rows {
        let scale_a = sa[ii];
        let zp = za[ii];
        let dst = &mut c[ii * ldc..ii * ldc + live_cols];
        for (jj, cell) in dst.iter_mut().enumerate() {
            let centered = (acc[ii][jj] - zp * colsums[jj]) as f32;
            *cell = scale_a * (wscales[jj] * centered);
        }
    }
}

/// AVX-512 tile epilogue: one masked 16-lane
/// `vpmulld/vpsubd/vcvtdq2ps/vmulps` pass per live row. Same exact i32
/// arithmetic and f32 rounding order as the portable epilogue.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
fn dequant_rows(
    acc: &[[i32; NR]; MR],
    live_rows: usize,
    live_cols: usize,
    (sa, za): (&[f32], &[i32]),
    (wscales, colsums): (&[f32], &[i32]),
    c: &mut [f32],
    ldc: usize,
) {
    use std::arch::x86_64::*;
    const { assert!(NR == 16, "one zmm register holds NR lanes") };
    assert!(live_rows <= MR && live_cols <= NR);
    assert!(sa.len() >= live_rows && za.len() >= live_rows);
    assert!(wscales.len() >= live_cols && colsums.len() >= live_cols);
    assert!(live_rows == 0 || c.len() >= (live_rows - 1) * ldc + live_cols);
    // SAFETY: AVX-512F is statically enabled by the cfg; the asserts bound
    // every pointer and the column mask limits lanes to `live_cols`.
    unsafe {
        let mask: __mmask16 = if live_cols == NR {
            0xffff
        } else {
            (1u16 << live_cols) - 1
        };
        let cs = _mm512_maskz_loadu_epi32(mask, colsums.as_ptr());
        let ws = _mm512_maskz_loadu_ps(mask, wscales.as_ptr());
        for ii in 0..live_rows {
            let accv = _mm512_loadu_si512(acc[ii].as_ptr() as *const _);
            let centered =
                _mm512_sub_epi32(accv, _mm512_mullo_epi32(_mm512_set1_epi32(za[ii]), cs));
            let scaled = _mm512_mul_ps(ws, _mm512_cvtepi32_ps(centered));
            let out = _mm512_mul_ps(_mm512_set1_ps(sa[ii]), scaled);
            _mm512_mask_storeu_ps(c.as_mut_ptr().add(ii * ldc), mask, out);
        }
    }
}

/// Quantises `m x k` activations row-wise into `m x kq` unsigned bytes
/// over the zero-including range `[min(0, min), max(0, max)]` (asymmetric;
/// zero is exactly representable at the zero-point). The `kq` zero-pads
/// multiply the zero weight pad, so their byte value never contributes.
fn quantize_rows(
    a: &[f32],
    (m, k): (usize, usize),
    kq: usize,
    qa: &mut Vec<u8>,
    sa: &mut Vec<f32>,
    za: &mut Vec<i32>,
) {
    qa.clear();
    qa.resize(m * kq, 0);
    sa.clear();
    sa.reserve(m);
    za.clear();
    za.reserve(m);
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    {
        quantize_rows_avx512(a, (m, k), kq, qa, sa, za);
        return;
    }
    #[allow(unreachable_code)]
    for r in 0..m {
        let row = &a[r * k..(r + 1) * k];
        let mut lo = 0.0f32;
        let mut hi = 0.0f32;
        for &v in row {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi > lo {
            let scale = (hi - lo) / 255.0;
            let inv = 255.0 / (hi - lo);
            // `round_ties_even` lowers to a single rounding instruction where
            // available; `round` is a libm call per element and dominates the
            // whole quantised GEMM at these panel sizes. Ties land on an
            // adjacent quantisation bin either way (sub-lsb difference).
            let zp = (-lo * inv).round_ties_even() as i32; // in [0, 255]
            let dst = &mut qa[r * kq..r * kq + k];
            for (d, &v) in dst.iter_mut().zip(row) {
                *d = ((v * inv).round_ties_even() as i32 + zp).clamp(0, 255) as u8;
            }
            sa.push(scale);
            za.push(zp);
        } else {
            sa.push(0.0); // all-zero row: bytes stay 0, zero-point 0
            za.push(0);
        }
    }
}

/// AVX-512 row quantiser: the rows here are panel-`k` long (tens of
/// elements), so scalar per-element rounding dominates the whole int8 GEMM.
/// One masked 16-lane pass per row does the min/max scan and a second does
/// `round -> +zp -> clamp -> narrow` (`vrndscaleps` matches
/// `round_ties_even`; values are integral before `vcvtps2dq`, so the cast
/// is exact and the bytes are bit-identical to the scalar path).
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
fn quantize_rows_avx512(
    a: &[f32],
    (m, k): (usize, usize),
    kq: usize,
    qa: &mut [u8],
    sa: &mut Vec<f32>,
    za: &mut Vec<i32>,
) {
    use std::arch::x86_64::*;
    assert!(a.len() >= m * k && qa.len() >= m * kq && kq >= k);
    // SAFETY: AVX-512F is statically enabled by the cfg; the assert bounds
    // every pointer, and tail lanes are masked to the live `k - c` prefix.
    unsafe {
        for r in 0..m {
            let row = a.as_ptr().add(r * k);
            let mut lo_v = _mm512_setzero_ps();
            let mut hi_v = _mm512_setzero_ps();
            let mut c = 0usize;
            while c + 16 <= k {
                let v = _mm512_loadu_ps(row.add(c));
                lo_v = _mm512_min_ps(lo_v, v);
                hi_v = _mm512_max_ps(hi_v, v);
                c += 16;
            }
            if c < k {
                // masked-off lanes read as +0.0, which the zero-including
                // quantisation range absorbs
                let mask: __mmask16 = (1u16 << (k - c)) - 1;
                let v = _mm512_maskz_loadu_ps(mask, row.add(c));
                lo_v = _mm512_min_ps(lo_v, v);
                hi_v = _mm512_max_ps(hi_v, v);
            }
            let lo = _mm512_reduce_min_ps(lo_v);
            let hi = _mm512_reduce_max_ps(hi_v);
            if hi > lo {
                let inv = 255.0 / (hi - lo);
                let zp = (-lo * inv).round_ties_even() as i32; // in [0, 255]
                let invv = _mm512_set1_ps(inv);
                let zpv = _mm512_set1_epi32(zp);
                let zerov = _mm512_setzero_si512();
                let topv = _mm512_set1_epi32(255);
                let dst = qa.as_mut_ptr().add(r * kq);
                let quant = |v: __m512| {
                    let q = _mm512_cvtps_epi32(_mm512_roundscale_ps::<0>(_mm512_mul_ps(v, invv)));
                    _mm512_min_epi32(_mm512_max_epi32(_mm512_add_epi32(q, zpv), zerov), topv)
                };
                let mut c = 0usize;
                while c + 16 <= k {
                    let q = quant(_mm512_loadu_ps(row.add(c)));
                    _mm512_mask_cvtepi32_storeu_epi8(dst.add(c) as *mut _, 0xffff, q);
                    c += 16;
                }
                if c < k {
                    let mask: __mmask16 = (1u16 << (k - c)) - 1;
                    let q = quant(_mm512_maskz_loadu_ps(mask, row.add(c)));
                    _mm512_mask_cvtepi32_storeu_epi8(dst.add(c) as *mut _, mask, q);
                }
                sa.push((hi - lo) / 255.0);
                za.push(zp);
            } else {
                sa.push(0.0); // all-zero row: bytes stay 0, zero-point 0
                za.push(0);
            }
        }
    }
}

/// AVX-512 VNNI int8 micro-kernel: per 4-deep `k` group, broadcast 4
/// activation bytes as one dword and issue a single `vpdpbusd` against the
/// `NR x 4` weight block (64 bytes = one zmm).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512vnni"
))]
#[inline]
fn micro_kernel_i8(
    kq4: usize,
    qa: &[u8],
    live_rows: usize,
    b_strip: &[i8],
    acc: &mut [[i32; NR]; MR],
) {
    use std::arch::x86_64::*;
    const { assert!(NR == 16, "one zmm register holds NR i32 lanes") };
    assert!(b_strip.len() >= kq4 * NR * 4, "packed int8 strip too short");
    assert!(qa.len() >= (live_rows - 1) * kq4 * 4 + kq4 * 4 || live_rows == 0);
    // SAFETY: VNNI is statically enabled by the cfg; the asserts bound
    // every pointer. Row stride in `qa` is `kq4 * 4` bytes.
    unsafe {
        let stride = kq4 * 4;
        let mut rows = [_mm512_setzero_si512(); MR];
        let pb = b_strip.as_ptr();
        for g in 0..kq4 {
            let b = _mm512_loadu_si512(pb.add(g * NR * 4) as *const _);
            for (i, row) in rows.iter_mut().take(live_rows).enumerate() {
                let dword = (qa.as_ptr().add(i * stride + g * 4) as *const i32).read_unaligned();
                let a = _mm512_set1_epi32(dword);
                *row = _mm512_dpbusd_epi32(*row, a, b);
            }
        }
        for (dst, row) in acc.iter_mut().zip(rows.iter()) {
            _mm512_storeu_si512(dst.as_mut_ptr() as *mut _, *row);
        }
    }
}

/// Portable int8 micro-kernel: the same exact u8 x i8 -> i32 arithmetic as
/// the VNNI kernel, so results are bit-identical across targets.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512vnni"
)))]
#[inline(always)]
fn micro_kernel_i8(
    kq4: usize,
    qa: &[u8],
    live_rows: usize,
    b_strip: &[i8],
    acc: &mut [[i32; NR]; MR],
) {
    debug_assert!(b_strip.len() >= kq4 * NR * 4);
    let stride = kq4 * 4;
    for g in 0..kq4 {
        let b_block = &b_strip[g * NR * 4..(g + 1) * NR * 4];
        for (i, acc_row) in acc.iter_mut().take(live_rows).enumerate() {
            let a_bytes = &qa[i * stride + g * 4..i * stride + g * 4 + 4];
            for (j, cell) in acc_row.iter_mut().enumerate() {
                let b_bytes = &b_block[j * 4..j * 4 + 4];
                let mut dot = 0i32;
                for (&av, &bv) in a_bytes.iter().zip(b_bytes) {
                    dot += av as i32 * bv as i32;
                }
                *cell += dot;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_parse_and_label() {
        assert_eq!(Precision::parse("f32"), Some(Precision::F32));
        assert_eq!(Precision::parse(" F16 "), Some(Precision::F16));
        assert_eq!(Precision::parse("INT8"), Some(Precision::Int8));
        assert_eq!(Precision::parse("i8"), Some(Precision::Int8));
        assert_eq!(Precision::parse("fp64"), None);
        assert_eq!(Precision::parse(""), None);
        assert_eq!(Precision::Int8.label(), "int8");
        assert_eq!(Precision::default(), Precision::F32);
    }

    #[test]
    fn half_round_trip_is_exact_for_representables() {
        let representable = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            65504.0,
            -65504.0,
            f32::powi(2.0, -14),  // smallest normal half
            f32::powi(2.0, -24),  // smallest subnormal half
            -f32::powi(2.0, -20), // mid-range subnormal
        ];
        for v in representable {
            assert_eq!(half_to_f32(f32_to_half(v)), v, "{v}");
        }
        // specials
        assert_eq!(half_to_f32(f32_to_half(f32::INFINITY)), f32::INFINITY);
        assert!(half_to_f32(f32_to_half(f32::NAN)).is_nan());
        // overflow saturates to infinity
        assert_eq!(half_to_f32(f32_to_half(1e6)), f32::INFINITY);
        // subnormal halves survive the round trip
        let tiny = half_to_f32(0x0001);
        assert!(tiny > 0.0);
        assert_eq!(f32_to_half(tiny), 0x0001);
    }

    #[test]
    fn half_widening_is_exact_for_every_half() {
        // every finite binary16 value against its exact decoding, so the
        // software widen and the hardware `vcvtph2ps` agree bit for bit
        // (the portable and partial-tile f16 kernels widen in software,
        // the full-tile AVX-512 kernels in hardware)
        for h in 0..=u16::MAX {
            let sign = if h & 0x8000 != 0 { -1.0f64 } else { 1.0 };
            let exp = i32::from((h >> 10) & 0x1f);
            let mant = f64::from(h & 0x03ff);
            let widened = half_to_f32(h);
            match exp {
                0x1f if mant == 0.0 => assert_eq!(widened, sign as f32 * f32::INFINITY),
                0x1f => assert!(widened.is_nan(), "{h:#06x}"),
                0 => assert_eq!(f64::from(widened), sign * mant * 2f64.powi(-24), "{h:#06x}"),
                _ => assert_eq!(
                    f64::from(widened),
                    sign * (1024.0 + mant) * 2f64.powi(exp - 25),
                    "{h:#06x}"
                ),
            }
            assert_eq!(widened.is_sign_negative(), sign < 0.0, "{h:#06x}");
        }
    }

    #[test]
    fn half_rounding_is_nearest_evenic() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half;
        // nearest-even rounds down to 1.0
        let halfway = 1.0 + f32::powi(2.0, -11);
        assert_eq!(half_to_f32(f32_to_half(halfway)), 1.0);
        // just above halfway rounds up
        let above = 1.0 + f32::powi(2.0, -11) + f32::powi(2.0, -20);
        assert_eq!(half_to_f32(f32_to_half(above)), 1.0 + f32::powi(2.0, -10));
    }

    #[test]
    fn int8_pack_records_scales_and_colsums() {
        // column 0 spans [-2, 2] -> scale 2/127; column 1 all zero -> 1.0
        let b = [2.0f32, 0.0, -2.0, 0.0, 1.0, 0.0];
        let mut panels = Int8Panels::default();
        panels.pack(&b, (3, 2));
        assert_eq!(panels.kq, 4);
        assert!((panels.scales[0] - 2.0 / 127.0).abs() < 1e-9);
        assert_eq!(panels.scales[1], 1.0);
        // q column 0 = [127, -127, 64], summing to 64
        assert_eq!(panels.colsums[0], 64);
        assert_eq!(panels.colsums[1], 0);
    }

    #[test]
    fn asymmetric_rows_use_the_full_u8_range() {
        // a non-negative (post-ReLU-style) row must map its max to 255
        // and zero to the zero-point 0
        let row = [0.0f32, 1.0, 2.0, 4.0];
        let (mut qa, mut sa, mut za) = (Vec::new(), Vec::new(), Vec::new());
        quantize_rows(&row, (1, 4), 4, &mut qa, &mut sa, &mut za);
        assert_eq!(za[0], 0);
        assert_eq!(&qa[..4], &[0, 64, 128, 255]);
        assert!((sa[0] - 4.0 / 255.0).abs() < 1e-9);
        // a mixed-sign row puts the zero-point strictly inside the range
        let row = [-1.0f32, 0.0, 3.0];
        quantize_rows(&row, (1, 3), 4, &mut qa, &mut sa, &mut za);
        assert_eq!(za[0], 64); // -(-1) * 255/4
        assert_eq!(qa[1], 64); // exact zero lands on the zero-point
        assert_eq!(qa[2], 255);
    }
}
