//! Pre-packed GEMM operands.
//!
//! The blocked driver in [`crate::gemm`] packs its `B` operand into
//! cache-friendly panels on every call. When the same `B` feeds several
//! GEMMs before it changes — an LSTM weight multiplied once per sequence
//! step, forward and backward — that packing is pure repeated work.
//! [`PackedWeight`] materialises the packed panels once; the
//! `matmul_prepacked*` entry points then consume them directly.
//!
//! Packing order matches the driver exactly, so f32 prepacked products are
//! bit-identical to their unpacked counterparts. The backing buffer is
//! reused across [`PackedWeight::pack`] calls (capacity is retained),
//! keeping repacking allocation-free in steady state.
//!
//! Panels can also be stored at reduced precision ([`Precision::F16`],
//! [`Precision::Int8`], see [`crate::quant`]) via
//! [`PackedWeight::pack_with`] — chosen once at freeze time by the
//! inference engine, transparent to [`Matrix::matmul_prepacked_into`].

use crate::gemm::{self, Layout};
use crate::matrix::Matrix;
use crate::quant::{self, Int8Panels, Precision};
use crate::shape::ShapeError;
use crate::static_gemm::{self, StaticKernelFn};
use crate::Result;

/// Precision-specific panel storage.
#[derive(Debug)]
enum Panels {
    /// Driver-order f32 panels (bit-identical to the unpacked GEMM).
    F32(Vec<f32>),
    /// Driver-order binary16 panels (f32 accumulate).
    F16(Vec<u16>),
    /// Per-output-channel int8 strips (exact i32 accumulate).
    Int8(Int8Panels),
}

impl Default for Panels {
    fn default() -> Self {
        Panels::F32(Vec::new())
    }
}

/// A `k x n` GEMM `B` operand packed into the driver's panel layout.
#[derive(Debug, Default)]
pub struct PackedWeight {
    k: usize,
    n: usize,
    panels: Panels,
    /// Monomorphized fixed-shape kernel resolved at
    /// [`PackedWeight::pack_for_inference`] time, `None` on the dynamic
    /// (training) packing paths and for shapes outside the registry.
    static_kernel: Option<StaticKernelFn>,
}

impl PackedWeight {
    /// An empty pack; fill it with [`PackedWeight::pack`] or
    /// [`PackedWeight::pack_transposed`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Packs `b` as the `B` operand of `A @ B` at full precision.
    pub fn pack(&mut self, b: &Matrix) {
        self.pack_with(b, Precision::F32);
    }

    /// Packs `b` as the `B` operand of `A @ B`, storing the panels at
    /// `precision`. Existing buffers of the same precision retain their
    /// capacity across repacks.
    pub fn pack_with(&mut self, b: &Matrix, precision: Precision) {
        let (k, n) = b.shape();
        self.k = k;
        self.n = n;
        self.static_kernel = None;
        match precision {
            Precision::F32 => {
                let data = match &mut self.panels {
                    Panels::F32(data) => data,
                    other => {
                        *other = Panels::F32(Vec::new());
                        let Panels::F32(data) = other else {
                            unreachable!()
                        };
                        data
                    }
                };
                gemm::pack_b_full(b.as_slice(), Layout::RowMajor, (k, n), data);
            }
            Precision::F16 => {
                // pack in driver order at f32, then narrow lane for lane
                let mut f32_panels = Vec::new();
                gemm::pack_b_full(b.as_slice(), Layout::RowMajor, (k, n), &mut f32_panels);
                let halfs = match &mut self.panels {
                    Panels::F16(halfs) => halfs,
                    other => {
                        *other = Panels::F16(Vec::new());
                        let Panels::F16(halfs) = other else {
                            unreachable!()
                        };
                        halfs
                    }
                };
                quant::encode_half_panels(&f32_panels, halfs);
            }
            Precision::Int8 => {
                crate::telemetry::note_pack();
                let panels = match &mut self.panels {
                    Panels::Int8(panels) => panels,
                    other => {
                        *other = Panels::Int8(Int8Panels::default());
                        let Panels::Int8(panels) = other else {
                            unreachable!()
                        };
                        panels
                    }
                };
                panels.pack(b.as_slice(), (k, n));
            }
        }
    }

    /// [`PackedWeight::pack_with`] plus static-shape kernel resolution:
    /// when the panels are f32 and `(k, n)` is in the fixed-shape
    /// registry ([`crate::STATIC_SHAPES`]), subsequent
    /// [`Matrix::matmul_prepacked_into`] calls dispatch to the
    /// monomorphized kernel instead of the blocked driver. Results are
    /// bit-identical either way; the frozen inference engine calls this
    /// at `freeze()` time, while the training paths keep the plain
    /// dynamic packs (so repacking per optimiser step never pays the
    /// lookup).
    pub fn pack_for_inference(&mut self, b: &Matrix, precision: Precision) {
        self.pack_with(b, precision);
        if precision == Precision::F32 {
            self.static_kernel = static_gemm::lookup(self.k, self.n);
            if self.static_kernel.is_some() {
                crate::telemetry::note_static_pack();
            }
        }
    }

    /// Whether [`Matrix::matmul_prepacked_into`] will dispatch to a
    /// monomorphized fixed-shape kernel for this pack.
    pub fn has_static_kernel(&self) -> bool {
        self.static_kernel.is_some()
    }

    /// Packs `b`'s transpose as the `B` operand of `A @ B^T` — the
    /// prepacked counterpart of [`Matrix::matmul_nt_into`]'s `rhs`.
    /// Always full precision (this form feeds the training path).
    pub fn pack_transposed(&mut self, b: &Matrix) {
        let (n, k) = b.shape();
        self.k = k;
        self.n = n;
        self.static_kernel = None;
        let data = match &mut self.panels {
            Panels::F32(data) => data,
            other => {
                *other = Panels::F32(Vec::new());
                let Panels::F32(data) = other else {
                    unreachable!()
                };
                data
            }
        };
        gemm::pack_b_full(b.as_slice(), Layout::Transposed, (k, n), data);
    }

    /// Logical shape `(k, n)` of the packed operand.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// The storage precision the panels were packed at.
    pub fn precision(&self) -> Precision {
        match &self.panels {
            Panels::F32(_) => Precision::F32,
            Panels::F16(_) => Precision::F16,
            Panels::Int8(_) => Precision::Int8,
        }
    }
}

impl Matrix {
    /// Matrix product `self @ b` against a pre-packed `b`, written into
    /// `out` (overwritten; no zeroing required beforehand). With f32
    /// panels this is bit-identical to [`Matrix::matmul_into`] with the
    /// unpacked operand; reduced-precision panels dispatch to the
    /// quantised drivers in [`crate::quant`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `self.cols() != b.k` or `out` is not
    /// `self.rows() x b.n`.
    pub fn matmul_prepacked_into(&self, b: &PackedWeight, out: &mut Matrix) -> Result<()> {
        if out.rows() != self.rows() {
            return Err(ShapeError::new(
                "matmul_prepacked_into",
                (self.rows(), b.n),
                out.shape(),
            ));
        }
        self.matmul_prepacked_rows_into(self.rows(), b, out)
    }

    /// [`Matrix::matmul_prepacked_into`] on the leading `m` rows only:
    /// overwrites rows `..m` of `out` with rows `..m` of `self` times `b`
    /// and leaves the later rows of `out` untouched. Every driver computes
    /// an output row from its own input row alone, so each produced row is
    /// bit-identical to the same row of the full-height product.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `self.cols() != b.k`, `out` is not
    /// `b.n` wide, or either matrix has fewer than `m` rows.
    pub fn matmul_prepacked_rows_into(
        &self,
        m: usize,
        b: &PackedWeight,
        out: &mut Matrix,
    ) -> Result<()> {
        let k = self.cols();
        let (bk, n) = b.shape();
        if k != bk || m > self.rows() {
            return Err(ShapeError::new(
                "matmul_prepacked_rows_into",
                (m, k),
                (bk, n),
            ));
        }
        if out.cols() != n || m > out.rows() {
            return Err(ShapeError::new(
                "matmul_prepacked_rows_into",
                (m, n),
                out.shape(),
            ));
        }
        let a = &self.as_slice()[..m * k];
        let c = &mut out.as_mut_slice()[..m * n];
        match &b.panels {
            Panels::F32(data) => {
                if let Some(kernel) = b.static_kernel {
                    crate::telemetry::note_static_gemm((m, n, k));
                    kernel(a, m, data, c);
                } else {
                    gemm::gemm_prepacked((m, n, k), a, Layout::RowMajor, data, c);
                }
            }
            Panels::F16(halfs) => quant::gemm_prepacked_f16((m, n, k), a, halfs, c),
            Panels::Int8(panels) => quant::gemm_prepacked_i8((m, n, k), a, panels, c),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| (((i * 13 + salt * 7) % 19) as f32 - 9.0) * 0.11)
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn prepacked_matches_matmul_bit_identically() {
        // sizes straddle the KC/NC/MC block boundaries
        for &(m, k, n) in &[(3, 5, 7), (128, 273, 900), (64, 300, 520), (1, 257, 513)] {
            let a = det(m, k, 1);
            let b = det(k, n, 2);
            let mut pw = PackedWeight::new();
            pw.pack(&b);
            assert_eq!(pw.precision(), Precision::F32);
            let mut out = Matrix::zeros(m, n);
            a.matmul_prepacked_into(&pw, &mut out).unwrap();
            let expect = a.matmul(&b).unwrap();
            assert_eq!(out.as_slice(), expect.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn prepacked_overwrites_dirty_output() {
        let a = det(9, 11, 1);
        let b = det(11, 6, 2);
        let mut pw = PackedWeight::new();
        pw.pack(&b);
        let mut dirty = Matrix::from_vec(9, 6, vec![7.5; 54]).unwrap();
        a.matmul_prepacked_into(&pw, &mut dirty).unwrap();
        let expect = a.matmul(&b).unwrap();
        assert_eq!(dirty.as_slice(), expect.as_slice());
    }

    #[test]
    fn prepacked_transposed_matches_matmul_nt() {
        for &(m, k, n) in &[(4, 6, 3), (128, 900, 273), (33, 511, 129)] {
            let a = det(m, k, 3);
            let b = det(n, k, 4); // logical B = b^T
            let mut pw = PackedWeight::new();
            pw.pack_transposed(&b);
            let mut out = Matrix::zeros(m, n);
            a.matmul_prepacked_into(&pw, &mut out).unwrap();
            let mut expect = Matrix::zeros(m, n);
            a.matmul_nt_into(&b, &mut expect).unwrap();
            assert_eq!(out.as_slice(), expect.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn f16_panels_match_a_half_rounded_reference() {
        // the f16 product must equal the f32 product against a weight
        // whose every entry was rounded through binary16
        for &(m, k, n) in &[(5, 7, 9), (33, 48, 20), (64, 300, 520)] {
            let a = det(m, k, 5);
            let b = det(k, n, 6);
            let rounded = Matrix::from_vec(
                k,
                n,
                b.as_slice()
                    .iter()
                    .map(|&v| crate::quant::half_to_f32(crate::quant::f32_to_half(v)))
                    .collect(),
            )
            .unwrap();
            let mut pw = PackedWeight::new();
            pw.pack_with(&b, Precision::F16);
            assert_eq!(pw.precision(), Precision::F16);
            let mut out = Matrix::zeros(m, n);
            a.matmul_prepacked_into(&pw, &mut out).unwrap();
            let mut expect = Matrix::zeros(m, n);
            let mut ref_pack = PackedWeight::new();
            ref_pack.pack(&rounded);
            a.matmul_prepacked_into(&ref_pack, &mut expect).unwrap();
            assert_eq!(out.as_slice(), expect.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn int8_panels_approximate_the_f32_product() {
        for &(m, k, n) in &[(5, 8, 9), (33, 48, 20), (17, 29, 16)] {
            let a = det(m, k, 7);
            let b = det(k, n, 8);
            let mut pw = PackedWeight::new();
            pw.pack_with(&b, Precision::Int8);
            assert_eq!(pw.precision(), Precision::Int8);
            let mut out = Matrix::zeros(m, n);
            a.matmul_prepacked_into(&pw, &mut out).unwrap();
            let expect = a.matmul(&b).unwrap();
            // two 1/127 quantisation grids; error is bounded by the
            // product of the row/column maxima times ~2/127
            for (i, (&got, &want)) in out.as_slice().iter().zip(expect.as_slice()).enumerate() {
                let r = i / n;
                let amax = a.row(r).iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                let tol = 2.5 / 127.0 * amax * (k as f32).sqrt() * 2.0 + 1e-5;
                assert!(
                    (got - want).abs() <= tol,
                    "{m}x{k}x{n} [{i}]: {got} vs {want} (tol {tol})"
                );
            }
        }
    }

    #[test]
    fn int8_rows_are_batch_split_invariant() {
        // quantisation is per activation row, so any split of the batch
        // must reproduce the same output bits
        let a = det(12, 20, 9);
        let b = det(20, 10, 10);
        let mut pw = PackedWeight::new();
        pw.pack_with(&b, Precision::Int8);
        let mut full = Matrix::zeros(12, 10);
        a.matmul_prepacked_into(&pw, &mut full).unwrap();
        for split in [1usize, 5, 7] {
            let top = a.slice_rows(0, split);
            let bottom = a.slice_rows(split, 12);
            let mut out_top = Matrix::zeros(split, 10);
            let mut out_bottom = Matrix::zeros(12 - split, 10);
            top.matmul_prepacked_into(&pw, &mut out_top).unwrap();
            bottom.matmul_prepacked_into(&pw, &mut out_bottom).unwrap();
            let joined: Vec<f32> = out_top
                .as_slice()
                .iter()
                .chain(out_bottom.as_slice())
                .copied()
                .collect();
            assert_eq!(joined, full.as_slice(), "split at {split}");
        }
    }

    #[test]
    fn inference_pack_binds_and_matches_the_dynamic_path() {
        // (20, 48) is in the fixed-shape registry: the inference pack
        // must resolve the monomorphized kernel and produce the same
        // bits as the dynamic driver
        let b = det(20, 48, 11);
        let mut fast = PackedWeight::new();
        fast.pack_for_inference(&b, Precision::F32);
        assert!(fast.has_static_kernel());
        let mut dynamic = PackedWeight::new();
        dynamic.pack(&b);
        assert!(!dynamic.has_static_kernel());
        for m in [1usize, 8, 13, 64] {
            let a = det(m, 20, m);
            let mut got = Matrix::zeros(m, 48);
            let mut expect = Matrix::zeros(m, 48);
            a.matmul_prepacked_into(&fast, &mut got).unwrap();
            a.matmul_prepacked_into(&dynamic, &mut expect).unwrap();
            assert_eq!(got.as_slice(), expect.as_slice(), "m = {m}");
        }
    }

    #[test]
    fn inference_pack_falls_back_off_registry() {
        // unlisted shape: stays on the dynamic driver
        let b = det(19, 47, 12);
        let mut pw = PackedWeight::new();
        pw.pack_for_inference(&b, Precision::F32);
        assert!(!pw.has_static_kernel());
        // reduced precision never binds a static kernel (quantised
        // drivers have their own epilogues)
        let mut half = PackedWeight::new();
        half.pack_for_inference(&det(20, 48, 13), Precision::F16);
        assert!(!half.has_static_kernel());
        // and a dynamic repack drops a previously bound kernel
        let mut repacked = PackedWeight::new();
        repacked.pack_for_inference(&det(20, 48, 14), Precision::F32);
        assert!(repacked.has_static_kernel());
        repacked.pack(&det(20, 48, 15));
        assert!(!repacked.has_static_kernel());
    }

    #[test]
    fn repacking_reuses_capacity() {
        let mut pw = PackedWeight::new();
        pw.pack(&det(300, 600, 5));
        let Panels::F32(data) = &pw.panels else {
            panic!("expected f32 panels")
        };
        let cap = data.capacity();
        pw.pack(&det(300, 600, 6));
        let Panels::F32(data) = &pw.panels else {
            panic!("expected f32 panels")
        };
        assert_eq!(data.capacity(), cap);
    }

    #[test]
    fn prepacked_rejects_bad_shapes() {
        let a = det(4, 5, 1);
        let mut pw = PackedWeight::new();
        pw.pack(&det(6, 3, 2));
        let mut out = Matrix::zeros(4, 3);
        assert!(a.matmul_prepacked_into(&pw, &mut out).is_err());
        let mut ok = PackedWeight::new();
        ok.pack(&det(5, 3, 2));
        assert!(a
            .matmul_prepacked_into(&ok, &mut Matrix::zeros(3, 3))
            .is_err());
        assert!(a.matmul_prepacked_rows_into(5, &ok, &mut out).is_err());
        assert!(a
            .matmul_prepacked_rows_into(4, &ok, &mut Matrix::zeros(3, 3))
            .is_err());
    }

    #[test]
    fn row_prefix_products_match_the_full_height_rows() {
        // every driver: dynamic f32 (two k-panels), static f32, f16 and
        // int8; prefixes straddle full and partial MR-row tiles
        let shapes = [(300, 40), (20, 48), (88, 256), (20, 48)];
        let precisions = [
            Precision::F32,
            Precision::F32,
            Precision::F16,
            Precision::Int8,
        ];
        for ((k, n), precision) in shapes.into_iter().zip(precisions) {
            // every seventh weight lands in binary16's subnormal range
            let mut w = det(k, n, 21);
            for v in w.as_mut_slice().iter_mut().step_by(7) {
                *v *= 1e-4;
            }
            let mut pw = PackedWeight::new();
            pw.pack_for_inference(&w, precision);
            let a = det(19, k, 22);
            let mut full = Matrix::zeros(19, n);
            a.matmul_prepacked_into(&pw, &mut full).unwrap();
            for m in [0usize, 1, 7, 8, 9, 16, 19] {
                let mut out = Matrix::filled(19, n, 3.5);
                a.matmul_prepacked_rows_into(m, &pw, &mut out).unwrap();
                assert_eq!(
                    &out.as_slice()[..m * n],
                    &full.as_slice()[..m * n],
                    "{k}x{n} {} m = {m}",
                    precision.label()
                );
                assert!(out.as_slice()[m * n..].iter().all(|&v| v == 3.5));
            }
        }
    }
}
