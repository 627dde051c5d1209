//! 2-D convolution support: geometry, the direct forward and backward
//! kernels, and the `im2col` / `col2im` references.
//!
//! A conv runs three direct kernels dispatched through the
//! [`crate::backend`] seam: [`conv2d_forward`], [`conv2d_backward_input`]
//! and [`conv2d_backward_weight`]. None of them materializes a patch matrix
//! or a transposed gradient. [`im2col`] and [`col2im`] have no library
//! caller; they stay as the GEMM pipeline the direct kernels are pinned
//! against bit for bit (`tests/backend_conformance.rs`) and as a
//! benchmarked data-movement kernel.
//!
//! # Why the direct forward produces the same bits as im2col + matmul_nt
//!
//! The historical forward was `im2col(x) × Wᵀ` via `matmul_nt`, whose every
//! output element is one full-length [`crate::simd::dot8`] over
//! `(patch row, weight row)`. The direct forward has two paths, and on both
//! every output element is that same `dot8`:
//!
//! * **Row gather**, for every geometry. It gathers the *same* patch row
//!   (padding positions explicitly zero, same `(ci, ky, kx)` column order)
//!   into a row buffer and computes the *same* full-length `dot8` against
//!   the same weight row, through the multi-output `dot8_x8`. `dot8` is a
//!   pure function of its operands, so every output element gets identical
//!   bits — the change eliminates the `[n·oh·ow, patch]` materialization
//!   and the scatter from row-major back to NCHW, not a single add.
//! * **Pixel lanes**, on AVX2 hosts for stride 1 and `ow % 8 == 0`. It
//!   copies each sample once into a zero-padded slab, where the patch
//!   column `j` of eight adjacent output pixels is eight adjacent floats at
//!   a per-column offset. [`crate::simd::x86::dot8_pixel_lanes`] keeps
//!   `dot8`'s eight lane accumulators as eight registers of eight pixels
//!   each: column `j` goes into accumulator `j % 8` as `acc + x·w`, the
//!   tail and the fixed tree follow as in `dot8`, so each pixel sees
//!   `dot8`'s exact IEEE sequence without any patch row being gathered.
//!
//! Goldens and thread-count invariance hold unchanged (the per-sample split
//! never splits one element's reduction). DESIGN.md §17 has both
//! arguments.
//!
//! # Why the direct backward produces the same bits as the GEMM pipeline
//!
//! The historical backward transposed the NCHW gradient into rows
//! `G = [n·oh·ow, oc]`, then ran `dX = col2im(G × W)` and
//! `dW = Gᵀ × im2col(x)` through the tuned GEMMs. Every element of `G × W`
//! is a serial co-ascending sum of `g·w` from +0 that skips `g == 0`, and
//! `col2im` adds the rows into `dX` in ascending `(oy, ox)`. Every element
//! of `Gᵀ × im2col(x)` is a serial sum over ascending `(n, oy, ox)` with
//! the same skip. The direct kernels list the nonzero gradients in exactly
//! those orders, straight from the NCHW tensor, and accumulate them with
//! [`crate::simd::axpy8_terms`] (the same `acc + g·x` sequence as the
//! AXPYs). The patch-gradient row is scattered in `col2im` order, and the
//! gathered patch rows are `im2col`'s rows. Threads split samples (`dX`)
//! or output channels (`dW`), never one element's sum. DESIGN.md §17 has
//! the full argument.

use crate::backend::{self, ConvGeom};
use crate::{parallel, scratch, simd, Result, Tensor, TensorError};

/// Geometry of a 2-D convolution or correlation.
///
/// # Examples
///
/// ```
/// use ibrar_tensor::Conv2dSpec;
///
/// let spec = Conv2dSpec::new(3, 8, 3, 1, 1); // 3→8 channels, 3×3, stride 1, pad 1
/// assert_eq!(spec.out_hw(16, 16)?, (16, 16));
/// # Ok::<(), ibrar_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel edge.
    pub kernel: usize,
    /// Stride along both axes.
    pub stride: usize,
    /// Zero padding along both axes.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a convolution spec.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2dSpec {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of `h × w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the kernel does not fit
    /// the padded input or the stride is zero.
    pub fn out_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "stride must be nonzero".into(),
            ));
        }
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        if self.kernel == 0 || self.kernel > ph || self.kernel > pw {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {}x{} does not fit padded input {}x{}",
                self.kernel, self.kernel, ph, pw
            )));
        }
        Ok((
            (ph - self.kernel) / self.stride + 1,
            (pw - self.kernel) / self.stride + 1,
        ))
    }

    /// Number of columns in the `im2col` matrix (`c · k · k`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Direct 2-D convolution forward: `[n, c, h, w] ⋆ [oc, c·k·k] →
/// [n, oc, oh, ow]`, dispatched through the active
/// [`Backend`](crate::backend::Backend).
///
/// `wmat` is the kernel tensor flattened to `[out_channels, patch_len]` —
/// the same layout the im2col formulation multiplies against, so weights
/// need no repacking. Bitwise identical to `im2col(x) × wmatᵀ` reshaped to
/// NCHW under the tuned backend (see the module docs) without
/// materializing the patch matrix.
///
/// # Errors
///
/// Returns an error when `input` is not rank 4, `wmat` is not
/// `[out_channels, patch_len]`, the channel counts disagree with `spec`,
/// or the geometry is invalid.
pub fn conv2d_forward(input: &Tensor, wmat: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    input.shape_obj().expect_rank(4, "conv2d_forward")?;
    wmat.shape_obj().expect_rank(2, "conv2d_forward")?;
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    if c != spec.in_channels || wmat.shape() != [spec.out_channels, spec.patch_len()] {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().to_vec(),
            rhs: wmat.shape().to_vec(),
            op: "conv2d_forward",
        });
    }
    let (oh, ow) = spec.out_hw(h, w)?;
    let geom = ConvGeom {
        n,
        h,
        w,
        oh,
        ow,
        spec: *spec,
    };
    let be = backend::current();
    let mut out = be.alloc(crate::shape::checked_volume(
        &[n, spec.out_channels, oh, ow],
        "conv2d_forward",
    )?);
    be.conv2d_forward(input.data(), wmat.data(), &mut out, &geom);
    Tensor::from_vec(out, &[n, spec.out_channels, oh, ow])
}

/// Input gradient of [`conv2d_forward`]: `∂L/∂x` (`[n, c, h, w]`) for the
/// NCHW upstream gradient `grad` (`[n, oc, oh, ow]`) of an `h × w` input,
/// dispatched through the active [`Backend`](crate::backend::Backend).
///
/// `wmat` is the forward's `[out_channels, patch_len]` kernel matrix. The
/// input size is an argument because a strided output does not determine
/// it. Under the tuned backend the result is bitwise
/// `col2im(rows(grad) × wmat)` (see the module docs).
///
/// # Errors
///
/// Returns an error when `grad` is not rank 4, `wmat` is not
/// `[out_channels, patch_len]`, `grad` is not the forward output shape of
/// an `h × w` input, or the geometry is invalid.
pub fn conv2d_backward_input(
    grad: &Tensor,
    wmat: &Tensor,
    spec: &Conv2dSpec,
    h: usize,
    w: usize,
) -> Result<Tensor> {
    grad.shape_obj().expect_rank(4, "conv2d_backward_input")?;
    let n = grad.shape()[0];
    let geom = backward_geom(grad, n, h, w, spec, "conv2d_backward_input")?;
    if wmat.shape() != [spec.out_channels, spec.patch_len()] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad.shape().to_vec(),
            rhs: wmat.shape().to_vec(),
            op: "conv2d_backward_input",
        });
    }
    let dims = [n, spec.in_channels, h, w];
    let be = backend::current();
    let mut dx = be.alloc(crate::shape::checked_volume(
        &dims,
        "conv2d_backward_input",
    )?);
    be.conv2d_backward_input(grad.data(), wmat.data(), &mut dx, &geom);
    Tensor::from_vec(dx, &dims)
}

/// Weight gradient of [`conv2d_forward`]: `∂L/∂W` as an
/// `[out_channels, in_channels, k, k]` kernel tensor, for the forward's
/// input `input` and the NCHW upstream gradient `grad`, dispatched through
/// the active [`Backend`](crate::backend::Backend).
///
/// Under the tuned backend the result is bitwise
/// `rows(grad)ᵀ × im2col(input)` (see the module docs).
///
/// # Errors
///
/// Returns an error when `input` or `grad` is not rank 4, the channel
/// counts disagree with `spec`, `grad` is not the forward output shape of
/// `input`, or the geometry is invalid.
pub fn conv2d_backward_weight(input: &Tensor, grad: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    input.shape_obj().expect_rank(4, "conv2d_backward_weight")?;
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    if c != spec.in_channels {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().to_vec(),
            rhs: vec![spec.in_channels],
            op: "conv2d_backward_weight",
        });
    }
    let geom = backward_geom(grad, n, h, w, spec, "conv2d_backward_weight")?;
    let dims = [spec.out_channels, c, spec.kernel, spec.kernel];
    let be = backend::current();
    let mut dw = be.alloc(crate::shape::checked_volume(
        &dims,
        "conv2d_backward_weight",
    )?);
    be.conv2d_backward_weight(input.data(), grad.data(), &mut dw, &geom);
    Tensor::from_vec(dw, &dims)
}

/// The geometry of a backward call, once `grad` is checked to be the
/// forward output shape `[n, oc, oh, ow]` of an `[n, c, h, w]` input.
fn backward_geom(
    grad: &Tensor,
    n: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    op: &'static str,
) -> Result<ConvGeom> {
    let (oh, ow) = spec.out_hw(h, w)?;
    if grad.shape() != [n, spec.out_channels, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad.shape().to_vec(),
            rhs: vec![n, spec.out_channels, oh, ow],
            op,
        });
    }
    Ok(ConvGeom {
        n,
        h,
        w,
        oh,
        ow,
        spec: *spec,
    })
}

/// Gathers the im2col patch rows of one output row into `rowbuf`.
///
/// `sample` is one sample's `[c, h, w]` slab; on return
/// `rowbuf[ox·patch..][..patch]` holds exactly the im2col row of output
/// pixel `(oy, ox)` — padding positions explicitly zero, `(ci, ky, kx)`
/// column order, interior kernel rows copied contiguously. `rowbuf` must
/// hold `ow · patch_len` elements. Shared by the f32 direct forward and the
/// serve-side fused int8 conv so both quantize/reduce the *same* patch
/// bytes the im2col formulation would produce.
pub fn gather_patch_rows(
    sample: &[f32],
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    oy: usize,
    ow: usize,
    rowbuf: &mut [f32],
) {
    let (c, k, patch) = (spec.in_channels, spec.kernel, spec.patch_len());
    let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
    for (ox, row) in rowbuf.chunks_exact_mut(patch).take(ow).enumerate() {
        let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
        let mut col = 0usize;
        for ci in 0..c {
            let chan = ci * h * w;
            for ky in 0..k {
                let iy = iy0 + ky as isize;
                if iy < 0 || iy >= h as isize {
                    row[col..col + k].fill(0.0);
                    col += k;
                    continue;
                }
                let base = chan + iy as usize * w;
                if ix0 >= 0 && ix0 as usize + k <= w {
                    // Interior fast path: the whole kernel row is in
                    // bounds — one contiguous copy. The 3-wide case (every
                    // VGG-style conv) is unrolled by hand: a 12-byte
                    // `copy_from_slice` lowers to a libc memcpy call whose
                    // dispatch overhead dominates the copy itself.
                    let start = base + ix0 as usize;
                    if k == 3 {
                        row[col] = sample[start];
                        row[col + 1] = sample[start + 1];
                        row[col + 2] = sample[start + 2];
                    } else {
                        row[col..col + k].copy_from_slice(&sample[start..start + k]);
                    }
                    col += k;
                } else {
                    for kx in 0..k {
                        let ix = ix0 + kx as isize;
                        row[col] = if ix >= 0 && ix < w as isize {
                            sample[base + ix as usize]
                        } else {
                            0.0
                        };
                        col += 1;
                    }
                }
            }
        }
    }
}

/// Tuned direct-conv kernel for [`crate::backend::CpuTuned`].
///
/// Samples split across threads (each sample's `oc·oh·ow` region is
/// disjoint). On AVX2 hosts a stride-1 conv whose output rows are a
/// multiple of 8 wide takes the pixel-lane path
/// ([`conv_forward_pixel_lanes`]). Every other geometry takes the row
/// gather: per output row `oy`, gather the `ow × patch` patch rows once
/// into a scratch row buffer ([`gather_patch_rows`]), then stream the
/// weight matrix in blocks of eight output channels — `ox` inner — so the
/// weight rows stay hot across the whole output row and the independent
/// accumulator chains of [`simd::dot8_x8`] (with `dot8_x4`/`dot8` cleanup)
/// overlap in the pipeline. On either path every output element is one
/// full-length `dot8`-ordered reduction over exactly the im2col row
/// content, preserving the bitwise contract described in the module docs.
pub(crate) fn conv_forward_tuned(x: &[f32], wmat: &[f32], out: &mut [f32], geom: &ConvGeom) {
    let spec = &geom.spec;
    let (c, oc, patch) = (spec.in_channels, spec.out_channels, spec.patch_len());
    let (h, w, oh, ow) = (geom.h, geom.w, geom.oh, geom.ow);
    if patch == 0 {
        return; // zero input channels: the reduction is empty, out is zero
    }
    let work = geom
        .n
        .saturating_mul(oc.saturating_mul(oh).saturating_mul(ow))
        .saturating_mul(patch);
    let threads = parallel::threads_for(work);
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2() && spec.stride == 1 && ow % simd::LANES == 0 {
        return conv_forward_pixel_lanes(x, wmat, out, geom, threads);
    }
    parallel::par_items_mut(out, oc * oh * ow, threads, |ni, sample| {
        let xs = &x[ni * c * h * w..(ni + 1) * c * h * w];
        let mut rowbuf = scratch::take(ow * patch);
        for oy in 0..oh {
            gather_patch_rows(xs, h, w, spec, oy, ow, &mut rowbuf);
            let wr = |co: usize| &wmat[co * patch..(co + 1) * patch];
            let mut co = 0usize;
            while co + 8 <= oc {
                let ws: [&[f32]; 8] = core::array::from_fn(|r| wr(co + r));
                for ox in 0..ow {
                    let vals = simd::dot8_x8(&rowbuf[ox * patch..(ox + 1) * patch], ws);
                    for (r, v) in vals.into_iter().enumerate() {
                        sample[((co + r) * oh + oy) * ow + ox] = v;
                    }
                }
                co += 8;
            }
            while co + 4 <= oc {
                let ws: [&[f32]; 4] = core::array::from_fn(|r| wr(co + r));
                for ox in 0..ow {
                    let vals = simd::dot8_x4(&rowbuf[ox * patch..(ox + 1) * patch], ws);
                    for (r, v) in vals.into_iter().enumerate() {
                        sample[((co + r) * oh + oy) * ow + ox] = v;
                    }
                }
                co += 4;
            }
            for co in co..oc {
                let wrow = &wmat[co * patch..(co + 1) * patch];
                let obase = (co * oh + oy) * ow;
                for (ox, o) in sample[obase..obase + ow].iter_mut().enumerate() {
                    *o = simd::dot8(&rowbuf[ox * patch..(ox + 1) * patch], wrow);
                }
            }
        }
        scratch::recycle(rowbuf);
    });
}

/// The pixel-lane conv forward: a stride-1 conv with `ow % 8 == 0` on an
/// AVX2 host, called by [`conv_forward_tuned`] with its thread count.
///
/// Per sample, the `[c, h, w]` slab is copied once into a scratch buffer of
/// shape `[c, hp, wp] = [c, h+2p, w+2p]` whose +0.0 borders are im2col's
/// padding zeros. Patch column `j = (ci, ky, kx)` of output pixel `(oy, ox)`
/// is then `padded[off[j] + oy·wp + ox]`, where the offsets `off[j] =
/// (ci·hp + ky)·wp + kx` are listed once per call in im2col column order.
/// So eight adjacent output pixels are eight adjacent floats, and
/// [`simd::x86::dot8_pixel_lanes`] loads them straight from the padded copy:
/// nothing is gathered, and every output element is still
/// `dot8(im2col row, weight row)` bit for bit.
#[cfg(target_arch = "x86_64")]
fn conv_forward_pixel_lanes(
    x: &[f32],
    wmat: &[f32],
    out: &mut [f32],
    geom: &ConvGeom,
    threads: usize,
) {
    let spec = &geom.spec;
    let (c, k, p) = (spec.in_channels, spec.kernel, spec.padding);
    let (h, w, oh, ow) = (geom.h, geom.w, geom.oh, geom.ow);
    let (hp, wp) = (h + 2 * p, w + 2 * p);
    let off: Vec<usize> = (0..c)
        .flat_map(|ci| (0..k).flat_map(move |ky| (0..k).map(move |kx| (ci * hp + ky) * wp + kx)))
        .collect();
    // At stride 1, oh = hp−k+1 and ow = wp−k+1, and `off` ascends to
    // ((c−1)·hp + k−1)·wp + k−1, so the largest index the kernel reads,
    // off[patch−1] + (oh−1)·wp + ow − 1, is exactly c·hp·wp − 1: the last
    // element of the padded copy. The kernel reads unchecked and `ConvGeom`
    // is public, so this is asserted, not assumed.
    let len = c * hp * wp;
    assert!(
        oh > 0 && off[off.len() - 1] + (oh - 1) * wp + ow == len,
        "pixel-lane conv bounds"
    );
    parallel::par_items_mut(out, spec.out_channels * oh * ow, threads, |ni, sample| {
        let xs = &x[ni * c * h * w..(ni + 1) * c * h * w];
        let mut padded = scratch::take(len);
        for r in 0..c * h {
            let start = ((r / h) * hp + r % h + p) * wp + p;
            padded[start..start + w].copy_from_slice(&xs[r * w..(r + 1) * w]);
        }
        // SAFETY: the caller verified AVX2 and ow % 8 == 0, and oh > 0 is
        // asserted above; `off` is not empty (patch > 0), `wmat` is
        // [oc, patch] and `sample` is [oc, oh, ow]; `off` ascends, so every
        // read lies at or below off[patch−1] + (oh−1)·wp + ow − 1, which
        // the assert above pins to len − 1, and padded.len() == len.
        unsafe { simd::x86::dot8_pixel_lanes(&padded, &off, wmat, sample, oh, ow, wp) };
        scratch::recycle(padded);
    });
}

/// Adds one output pixel's patch-gradient row into a sample's `[c, h, w]`
/// input gradient — the adjoint of [`gather_patch_rows`] for one pixel.
///
/// Visits `(ci, ky, kx)` in column order and adds every in-bounds element
/// (padding positions are dropped), which is exactly what [`col2im`] does
/// for that pixel's row.
fn scatter_patch_row(
    row: &[f32],
    dx: &mut [f32],
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    oy: usize,
    ox: usize,
) {
    let k = spec.kernel;
    let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
    let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
    let interior = ix0 >= 0 && ix0 as usize + k <= w;
    for (ci, chan_row) in row.chunks_exact(k * k).enumerate() {
        for (ky, krow) in chan_row.chunks_exact(k).enumerate() {
            let iy = iy0 + ky as isize;
            if iy < 0 || iy >= h as isize {
                continue;
            }
            let base = ci * h * w + iy as usize * w;
            if interior {
                let start = base + ix0 as usize;
                for (d, &r) in dx[start..start + k].iter_mut().zip(krow) {
                    *d += r;
                }
            } else {
                for (kx, &r) in krow.iter().enumerate() {
                    let ix = ix0 + kx as isize;
                    if ix >= 0 && ix < w as isize {
                        dx[base + ix as usize] += r;
                    }
                }
            }
        }
    }
}

/// Writes the `(g, off)` pairs with `g != 0` to the front of `terms`, in
/// order, and returns their count — the skip of the tuned GEMMs
/// (`av == 0.0`: `-0.0` is skipped, NaN is kept). Branch-free: every pair
/// is written and the cursor only moves past a kept one, because the zero
/// pattern of a ReLU/max-pool gradient defeats the branch predictor.
/// `terms` must hold one slot per pair.
fn nonzero_terms(pairs: impl Iterator<Item = (f32, usize)>, terms: &mut [(f32, usize)]) -> usize {
    let mut len = 0;
    for (g, off) in pairs {
        terms[len] = (g, off);
        len += usize::from(g != 0.0);
    }
    len
}

/// Tuned direct input-gradient kernel for [`crate::backend::CpuTuned`].
///
/// Samples split across threads (each sample's `c·h·w` region of `dx` is
/// disjoint). Per output pixel, in ascending `(oy, ox)`: list the nonzero
/// `(g, co)` of `grad[n, :, oy, ox]` ascending in `co`, sum `g·wmat[co]`
/// into a patch-gradient row with [`simd::axpy8_terms`] from +0, and
/// scatter the row into `dx` with [`scatter_patch_row`]. Bitwise
/// `col2im(rows(grad) × wmat)` (module docs).
pub(crate) fn conv_backward_input_tuned(
    grad: &[f32],
    wmat: &[f32],
    dx: &mut [f32],
    geom: &ConvGeom,
) {
    let spec = &geom.spec;
    let (oc, patch) = (spec.out_channels, spec.patch_len());
    let (h, w, ow) = (geom.h, geom.w, geom.ow);
    let pix = geom.oh * ow;
    let chw = spec.in_channels * h * w;
    let work = geom
        .n
        .saturating_mul(pix.saturating_mul(oc))
        .saturating_mul(patch);
    let threads = parallel::threads_for(work);
    parallel::par_chunks_mut(dx, chw, threads, |samples, region| {
        let mut row = scratch::take(patch);
        let mut terms = vec![(0.0, 0); oc];
        for (ni, dxs) in samples.zip(region.chunks_exact_mut(chw)) {
            let gs = &grad[ni * oc * pix..(ni + 1) * oc * pix];
            for p in 0..pix {
                let len =
                    nonzero_terms((0..oc).map(|co| (gs[co * pix + p], co * patch)), &mut terms);
                row.fill(0.0);
                simd::axpy8_terms(&terms[..len], wmat, &mut row);
                scatter_patch_row(&row, dxs, h, w, spec, p / ow, p % ow);
            }
        }
        scratch::recycle(row);
    });
}

/// Tuned direct weight-gradient kernel for [`crate::backend::CpuTuned`].
///
/// Output channels split across threads (each channel's `dw` row is
/// disjoint). Per sample, gather its patch rows once
/// ([`gather_patch_rows`], exactly `im2col`'s rows); per channel, list the
/// nonzero `(g, t)` of the contiguous `grad[n, co, :]` ascending in the
/// pixel index `t`, and add `g·rows[t]` into `dw[co]` with
/// [`simd::axpy8_terms`]. Samples ascend outermost, so every element sums
/// over ascending `(n, oy, ox)`: bitwise `rows(grad)ᵀ × im2col(x)` (module
/// docs).
pub(crate) fn conv_backward_weight_tuned(x: &[f32], grad: &[f32], dw: &mut [f32], geom: &ConvGeom) {
    let spec = &geom.spec;
    let (oc, patch) = (spec.out_channels, spec.patch_len());
    let (h, w, ow) = (geom.h, geom.w, geom.ow);
    let pix = geom.oh * ow;
    let chw = spec.in_channels * h * w;
    let work = geom
        .n
        .saturating_mul(pix.saturating_mul(oc))
        .saturating_mul(patch);
    let threads = parallel::threads_for(work);
    parallel::par_chunks_mut(dw, patch, threads, |channels, region| {
        let mut rows = scratch::take(pix * patch);
        let mut terms = vec![(0.0, 0); pix];
        for ni in 0..geom.n {
            let xs = &x[ni * chw..(ni + 1) * chw];
            for (oy, rowbuf) in rows.chunks_exact_mut(ow * patch).enumerate() {
                gather_patch_rows(xs, h, w, spec, oy, ow, rowbuf);
            }
            for (co, dwrow) in channels.clone().zip(region.chunks_exact_mut(patch)) {
                let gs = &grad[(ni * oc + co) * pix..(ni * oc + co + 1) * pix];
                let pairs = gs.iter().enumerate().map(|(t, &g)| (g, t * patch));
                let len = nonzero_terms(pairs, &mut terms);
                simd::axpy8_terms(&terms[..len], &rows, dwrow);
            }
        }
        scratch::recycle(rows);
    });
}

/// Unfolds an `[n, c, h, w]` input into an `[n·oh·ow, c·k·k]` patch matrix.
///
/// Row `((ni·oh)+oy)·ow+ox` contains the flattened receptive field of output
/// pixel `(oy, ox)` of sample `ni`; out-of-bounds (padding) positions are 0.
///
/// # Errors
///
/// Returns an error when the input is not rank 4, its channel count does not
/// match `spec`, or the geometry is invalid.
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    input.shape_obj().expect_rank(4, "im2col")?;
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    if c != spec.in_channels {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().to_vec(),
            rhs: vec![spec.in_channels],
            op: "im2col",
        });
    }
    let (oh, ow) = spec.out_hw(h, w)?;
    let k = spec.kernel;
    let patch = spec.patch_len();
    let mut out = scratch::take(crate::shape::checked_volume(&[n, oh, ow, patch], "im2col")?);
    let data = input.data();
    // Each sample's patch rows occupy a contiguous, disjoint region of the
    // output, so splitting across the batch dimension is write-race-free and
    // bitwise identical for any thread count.
    let threads = parallel::threads_for(n * oh * ow * patch);
    parallel::par_items_mut(&mut out, oh * ow * patch, threads, |ni, sample| {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (oy * ow + ox) * patch;
                let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
                let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                let mut col = 0usize;
                for ci in 0..c {
                    let chan = (ni * c + ci) * h * w;
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            col += k;
                            continue;
                        }
                        let base = chan + iy as usize * w;
                        for kx in 0..k {
                            let ix = ix0 + kx as isize;
                            if ix >= 0 && ix < w as isize {
                                sample[row + col] = data[base + ix as usize];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[n * oh * ow, patch])
}

/// Folds a patch-gradient matrix back onto the input, accumulating
/// overlapping contributions — the adjoint of [`im2col`].
///
/// # Errors
///
/// Returns an error when `cols` does not have the shape `im2col` would have
/// produced for an `[n, c, h, w]` input under `spec`.
pub fn col2im(cols: &Tensor, spec: &Conv2dSpec, n: usize, h: usize, w: usize) -> Result<Tensor> {
    cols.shape_obj().expect_rank(2, "col2im")?;
    let (oh, ow) = spec.out_hw(h, w)?;
    let patch = spec.patch_len();
    let c = spec.in_channels;
    if cols.shape() != [n * oh * ow, patch] {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.shape().to_vec(),
            rhs: vec![n * oh * ow, patch],
            op: "col2im",
        });
    }
    let k = spec.kernel;
    let mut out = scratch::take(crate::shape::checked_volume(&[n, c, h, w], "col2im")?);
    let data = cols.data();
    // Overlapping patches only ever accumulate into their own sample's
    // `c·h·w` region, and within a sample the accumulation order is the
    // same serial loop as before — bitwise identical for any thread count.
    let threads = parallel::threads_for(n * oh * ow * patch);
    parallel::par_items_mut(&mut out, c * h * w, threads, |ni, sample| {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((ni * oh + oy) * ow + ox) * patch;
                let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
                let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                let mut col = 0usize;
                for ci in 0..c {
                    let chan = ci * h * w;
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            col += k;
                            continue;
                        }
                        let base = chan + iy as usize * w;
                        for kx in 0..k {
                            let ix = ix0 + kx as isize;
                            if ix >= 0 && ix < w as isize {
                                sample[base + ix as usize] += data[row + col];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[n, c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_hw_basic() {
        let spec = Conv2dSpec::new(1, 1, 3, 1, 1);
        assert_eq!(spec.out_hw(8, 8).unwrap(), (8, 8));
        let spec = Conv2dSpec::new(1, 1, 3, 2, 1);
        assert_eq!(spec.out_hw(8, 8).unwrap(), (4, 4));
        let spec = Conv2dSpec::new(1, 1, 2, 2, 0);
        assert_eq!(spec.out_hw(8, 8).unwrap(), (4, 4));
    }

    #[test]
    fn out_hw_rejects_bad_geometry() {
        assert!(Conv2dSpec::new(1, 1, 9, 1, 0).out_hw(4, 4).is_err());
        assert!(Conv2dSpec::new(1, 1, 3, 0, 1).out_hw(4, 4).is_err());
        assert!(Conv2dSpec::new(1, 1, 0, 1, 0).out_hw(4, 4).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: im2col is a plain channel transpose.
        let input = Tensor::from_fn(&[1, 2, 2, 2], |i| (i[1] * 4 + i[2] * 2 + i[3]) as f32);
        let spec = Conv2dSpec::new(2, 1, 1, 1, 0);
        let cols = im2col(&input, &spec).unwrap();
        assert_eq!(cols.shape(), &[4, 2]);
        // patch for pixel (0,0) = [chan0(0,0), chan1(0,0)] = [0, 4]
        assert_eq!(cols.get(&[0, 0]), 0.0);
        assert_eq!(cols.get(&[0, 1]), 4.0);
    }

    #[test]
    fn im2col_padding_zeros() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let spec = Conv2dSpec::new(1, 1, 3, 1, 1);
        let cols = im2col(&input, &spec).unwrap();
        // output 2x2, patch 9; top-left patch has 4 in-range ones
        assert_eq!(cols.shape(), &[4, 9]);
        let first: f32 = (0..9).map(|j| cols.get(&[0, j])).sum();
        assert_eq!(first, 4.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let spec = Conv2dSpec::new(2, 1, 3, 2, 1);
        let (n, h, w) = (2, 5, 4);
        let x = Tensor::from_fn(&[n, 2, h, w], |i| {
            ((i[0] * 31 + i[1] * 17 + i[2] * 7 + i[3] * 3) % 13) as f32 * 0.21 - 1.0
        });
        let cols = im2col(&x, &spec).unwrap();
        let y = Tensor::from_fn(cols.shape(), |i| {
            ((i[0] * 5 + i[1] * 11) % 7) as f32 * 0.4 - 1.0
        });
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &spec, n, h, w).unwrap();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn im2col_channel_mismatch_is_error() {
        let input = Tensor::zeros(&[1, 3, 4, 4]);
        let spec = Conv2dSpec::new(2, 1, 3, 1, 1);
        assert!(im2col(&input, &spec).is_err());
    }
}
