//! Int8 quantized GEMM for the post-training-quantized inference path.
//!
//! The serve tier trades a bounded amount of accuracy for cheap inference:
//! weights are quantized **per output channel** and activations **per row**
//! (per sample / per output pixel) with symmetric scales, multiplied in an
//! exact `i8 × i8 → i32` GEMM, and dequantized back to `f32` at the layer
//! boundary. See `DESIGN.md` §14 for the quantization scheme and its
//! tolerance tier in the oracle policy.
//!
//! # Determinism
//!
//! Integer accumulation is exact and associative, so [`gemm_i8_packed`] is
//! bitwise deterministic for any thread count by construction: there is no
//! lane-order contract to preserve, which is what frees the tuned kernel to
//! tile and reorder aggressively. The row split still uses the fixed
//! contiguous chunks of [`crate::parallel`] like every other kernel. The
//! one naive reference is `ibrar_oracle::kernels::gemm_i8_nt`, which
//! accumulates in `i64`.
//!
//! # The packed-panel kernel
//!
//! The original kernel was a scalar serial chain (`acc += a[t]·b[t]`, one
//! accumulator per element) — a dependency chain the compiler cannot
//! vectorize, which left `serve_batch_int8` *slower* than the f32 path it
//! was meant to accelerate. The tuned kernel restructures the whole product
//! around an independent-accumulator microkernel:
//!
//! * **Packing** ([`PackedQuantB`]): B (`[n, k]`, row-major) is repacked
//!   once into k-major panels of [`QGEMM_PANEL`] = 16 columns, widened to
//!   `i16` and interleaved in *k-pairs*: pair step `t₂` of panel `p`
//!   stores `[b[j, 2t₂], b[j, 2t₂+1]]` adjacently for each lane
//!   `j = p·16 + lane`, with missing lanes and an odd-`k` tail
//!   zero-padded. A walk down a panel touches 32 B values per pair step
//!   contiguously, and the adjacent-pair layout is exactly what x86
//!   `vpmaddwd` consumes: one instruction does `i16×i16 + i16×i16 → i32`
//!   for 8 lanes (two MACs per lane, no 32-bit multiply needed).
//! * **Microkernel**: [`MICRO_ROWS`] = 4 A-rows × 16 panel lanes of `i32`
//!   accumulators live in registers; each pair step does 128 independent
//!   multiply-adds (no dependency chain). On AVX2 hosts each A-row
//!   contributes one broadcast of its `[a[2t₂], a[2t₂+1]]` pair and two
//!   `vpmaddwd`+`vpaddd` per step; the portable body is the same
//!   arithmetic in scalar form. Zero-padded positions accumulate exact
//!   zeros and are simply not written back.
//! * **Amortization**: weights are packed once per process (serve caches
//!   [`PackedQuantB`] per layer, PR 10); activations change per batch, so
//!   the `[m, k]` side stays unpacked — A rows are already contiguous in
//!   the `t` direction.
//!
//! Packing costs `O(n·k)` against `O(m·n·k)` compute.
//!
//! # Why per-row activation scales
//!
//! A per-*tensor* activation scale would couple a sample's quantization to
//! whatever else happens to share its batch, breaking the serving tier's
//! batching-invisibility contract (batched rows bitwise equal to
//! single-request rows). A per-row scale depends only on that row's own
//! values, so the quantized forward keeps the contract exactly.
//!
//! # Accumulator bound
//!
//! Each product is at most `127 × 127 = 16129`, so `i32` accumulation is
//! exact while `k ≤` [`MAX_K`] (≈ 133k) — far above any reduction depth in
//! the workspace. [`PackedQuantB::pack`] rejects deeper reductions with a
//! typed error instead of risking silent wraparound, so no packed operand
//! can reach the kernel past the bound.

use crate::{parallel, shape, Result, TensorError};

/// Largest reduction depth for which `i32` accumulation of `i8 × i8`
/// products cannot overflow: `floor(i32::MAX / 127²)`.
pub const MAX_K: usize = i32::MAX as usize / (127 * 127);

/// Panel width of the packed B layout: 16 `i32` accumulator lanes (two
/// AVX2 vectors / one AVX-512 vector worth) per A-row in the microkernel.
pub const QGEMM_PANEL: usize = 16;

/// A-row block of the microkernel: 4 × [`QGEMM_PANEL`] accumulators
/// (64 × `i32` = 16 registers of 4 lanes each) is the largest block that
/// stays in registers on x86-64 without spilling.
const MICRO_ROWS: usize = 4;

/// A row-major `i8` matrix with one symmetric scale per row.
///
/// Dequantization of element `(r, c)` is `data[r·cols + c] as f32 *
/// scales[r]`. For weight matrices laid out `[out_features, in_features]`
/// a row is an output channel, giving the per-channel scheme; for
/// activation matrices a row is one sample (or one output pixel), keeping
/// quantization independent of co-batched rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    /// Row-major quantized values, `rows × cols`.
    pub data: Vec<i8>,
    /// One symmetric scale per row; `scales[r] = maxabs(row r) / 127`
    /// (`1.0` for all-zero rows, which quantize to zeros regardless).
    pub scales: Vec<f32>,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl QuantizedMatrix {
    /// Quantizes a row-major `rows × cols` slice with one symmetric scale
    /// per row: `scale = maxabs / 127`, `q = round(v / scale)` clamped to
    /// `[-127, 127]` (the `-128` code is unused, keeping the scheme
    /// symmetric).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `src.len() ≠ rows·cols`
    /// and [`TensorError::ElementOverflow`] when that product overflows.
    pub fn quantize_rows(src: &[f32], rows: usize, cols: usize) -> Result<QuantizedMatrix> {
        let volume = shape::checked_volume(&[rows, cols], "quantize_rows")?;
        let mut data = vec![0i8; volume];
        let mut scales = vec![1.0f32; rows];
        Self::quantize_rows_into(src, rows, cols, &mut data, &mut scales)?;
        Ok(QuantizedMatrix {
            data,
            scales,
            rows,
            cols,
        })
    }

    /// [`Self::quantize_rows`] into caller-provided buffers — the serve
    /// tier's fused conv strips call this once per output row, and reusing
    /// the buffers keeps allocation out of that hot loop. `data` must hold
    /// `rows·cols` codes and `scales` at least `rows` entries (all
    /// overwritten; zero rows get scale `1.0`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `src` or `data` is not
    /// `rows·cols` long or `scales` is shorter than `rows`, and
    /// [`TensorError::ElementOverflow`] when that product overflows.
    pub fn quantize_rows_into(
        src: &[f32],
        rows: usize,
        cols: usize,
        data: &mut [i8],
        scales: &mut [f32],
    ) -> Result<()> {
        let volume = shape::checked_volume(&[rows, cols], "quantize_rows")?;
        if src.len() != volume || data.len() != volume {
            return Err(TensorError::LengthMismatch {
                expected: volume,
                actual: if src.len() != volume {
                    src.len()
                } else {
                    data.len()
                },
            });
        }
        if scales.len() < rows {
            return Err(TensorError::LengthMismatch {
                expected: rows,
                actual: scales.len(),
            });
        }
        scales[..rows].fill(1.0);
        for r in 0..rows {
            let row = &src[r * cols..(r + 1) * cols];
            let maxabs = row_maxabs(row);
            Self::quantize_row_scaled(row, maxabs, r, cols, data, scales);
        }
        Ok(())
    }

    /// [`Self::quantize_rows_into`] with caller-supplied per-row `maxabs`
    /// values. The serve tier's fused conv strips compute patch maxima
    /// once per activation map with a separable sliding-window max (each
    /// input pixel is read once instead of once per kernel cell it
    /// appears in); `max` over absolute values is exact and
    /// order-independent, so a correctly computed window max is bitwise
    /// the row scan [`Self::quantize_rows_into`] performs — and therefore
    /// so are the scales and codes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `src` or `data` is not
    /// `rows·cols` long or `maxabs`/`scales` is shorter than `rows`, and
    /// [`TensorError::ElementOverflow`] when that product overflows.
    pub fn quantize_rows_with_maxabs(
        src: &[f32],
        rows: usize,
        cols: usize,
        maxabs: &[f32],
        data: &mut [i8],
        scales: &mut [f32],
    ) -> Result<()> {
        let volume = shape::checked_volume(&[rows, cols], "quantize_rows")?;
        if src.len() != volume || data.len() != volume {
            return Err(TensorError::LengthMismatch {
                expected: volume,
                actual: if src.len() != volume {
                    src.len()
                } else {
                    data.len()
                },
            });
        }
        if scales.len() < rows || maxabs.len() < rows {
            return Err(TensorError::LengthMismatch {
                expected: rows,
                actual: scales.len().min(maxabs.len()),
            });
        }
        scales[..rows].fill(1.0);
        for r in 0..rows {
            let row = &src[r * cols..(r + 1) * cols];
            Self::quantize_row_scaled(row, maxabs[r], r, cols, data, scales);
        }
        Ok(())
    }

    /// Shared per-row body of the two `quantize_rows*` entry points:
    /// scale derivation, the zero-row rewrite, and the code loop.
    fn quantize_row_scaled(
        row: &[f32],
        maxabs: f32,
        r: usize,
        cols: usize,
        data: &mut [i8],
        scales: &mut [f32],
    ) {
        if maxabs == 0.0 {
            // Zeros quantize to zeros under the default scale; write
            // them explicitly — a reused caller buffer may hold stale
            // codes from a previous strip.
            data[r * cols..(r + 1) * cols].fill(0);
            return;
        }
        let scale = maxabs / 127.0;
        scales[r] = scale;
        // Multiply by the reciprocal scale instead of dividing (one
        // division per row), and round half-away-from-zero as
        // `trunc(t + copysign(0.5, t))` instead of `t.round()`: the
        // libm `roundf` call defeats vectorization of the code loop,
        // while clamp/copysign/convert all lower to branchless vector
        // ops (see `quantize_codes`). Either rewrite can move a
        // quantized code by one step when the scaled value sits within
        // an ulp of a halfway point — inside the ±half-scale round-trip
        // bound and the serve tier's int8 tolerance (DESIGN.md §14).
        let inv = 127.0 / maxabs;
        quantize_codes(row, inv, &mut data[r * cols..(r + 1) * cols]);
    }

    /// Dequantizes back to `f32` (test/diagnostic helper; the hot path
    /// dequantizes fused with bias and activation at the layer boundary).
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.data.len()];
        for r in 0..self.rows {
            let s = self.scales[r];
            for (o, &q) in out[r * self.cols..(r + 1) * self.cols]
                .iter_mut()
                .zip(&self.data[r * self.cols..(r + 1) * self.cols])
            {
                *o = q as f32 * s;
            }
        }
        out
    }
}

/// Scales one row to int8 codes: `q = trunc(v·inv + copysign(0.5, v·inv))`
/// clamped to `[-127, 127]` (NaN maps to 0, the Rust float→int cast
/// convention). Dispatches to the AVX2 body when available — same
/// element-wise arithmetic, so both paths produce identical codes.
fn quantize_codes(row: &[f32], inv: f32, out: &mut [i8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::have_avx2() {
        // SAFETY: AVX2 verified at runtime; `out` and `row` are the same
        // length by construction in `quantize_rows`.
        unsafe { x86::quantize_codes(row, inv, out) };
        return;
    }
    for (q, &v) in out.iter_mut().zip(row) {
        let t = (v * inv).clamp(-127.0, 127.0);
        *q = (t + 0.5f32.copysign(t)) as i8;
    }
}

/// Largest absolute value in `row` (0.0 for an empty row). `max` over
/// absolute values is exact and order-independent, so the lane-split
/// reduction — and the AVX2 body it dispatches to — is bitwise identical
/// to a sequential scan. NaN elements are skipped in both paths (the
/// scalar fold uses `f32::max`, which prefers the non-NaN operand; the
/// AVX2 body orders `vmaxps` operands so a NaN lane leaves the
/// accumulator untouched).
fn row_maxabs(row: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::have_avx2() {
        // SAFETY: AVX2 verified at runtime.
        return unsafe { x86::row_maxabs(row) };
    }
    let mut lanes = [0.0f32; 8];
    let chunks = row.chunks_exact(8);
    let mut maxabs = chunks
        .remainder()
        .iter()
        .fold(0.0f32, |m, &v| m.max(v.abs()));
    for ch in chunks {
        for (l, &v) in ch.iter().enumerate() {
            lanes[l] = lanes[l].max(v.abs());
        }
    }
    for l in lanes {
        maxabs = maxabs.max(l);
    }
    maxabs
}

/// B operand of the quantized GEMM repacked into k-major
/// [`QGEMM_PANEL`]-wide panels of `i16` k-pairs for the tuned microkernel.
///
/// Panel `p` holds `ceil(k/2)` pair steps of `2 × PANEL` values; element
/// `(t₂·PANEL + lane)·2 + s` of the panel is `b[(p·PANEL + lane)·k +
/// 2t₂ + s]` widened to `i16`. Lanes past `n` and the `s = 1` slot of an
/// odd-`k` tail are zero so the microkernel never branches on panel width
/// or parity (see the module docs for why this layout feeds `vpmaddwd`
/// directly). Weights are static across a serving process, so the serve
/// tier packs each layer once at registry load and reuses the panels for
/// every batch ([`gemm_i8_packed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedQuantB {
    /// Panel-major data: `ceil(n/PANEL)` panels of `ceil(k/2) × PANEL × 2`
    /// pair-interleaved `i16` values.
    data: Vec<i16>,
    /// Reduction depth (columns of the original `[n, k]` matrix).
    pub k: usize,
    /// Logical output columns (rows of the original `[n, k]` matrix).
    pub n: usize,
}

impl PackedQuantB {
    /// Packs a row-major `[n, k]` i8 matrix into panel-major layout.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulDimMismatch`] when `b.len() ≠ n·k`,
    /// [`TensorError::ElementOverflow`] when the padded volume overflows,
    /// and [`TensorError::InvalidGeometry`] when `k >` [`MAX_K`].
    pub fn pack(b: &[i8], n: usize, k: usize) -> Result<PackedQuantB> {
        if b.len() != shape::checked_volume(&[n, k], "qgemm pack")? {
            return Err(TensorError::MatmulDimMismatch {
                lhs_cols: k,
                rhs_rows: b.len() / k.max(1),
            });
        }
        if k > MAX_K {
            return Err(TensorError::InvalidGeometry(format!(
                "qgemm pack reduction depth {k} exceeds the exact-i32 bound {MAX_K}"
            )));
        }
        let panels = n.div_ceil(QGEMM_PANEL);
        let kp = k.div_ceil(2);
        let volume = shape::checked_volume(&[panels, kp, 2 * QGEMM_PANEL], "qgemm pack")?;
        let mut data = vec![0i16; volume];
        if k == 0 {
            // Degenerate reduction: no panels to fill (and a zero chunk
            // size would panic below); the product is identically zero.
            return Ok(PackedQuantB { data, k, n });
        }
        for (p, panel) in data.chunks_exact_mut(kp * 2 * QGEMM_PANEL).enumerate() {
            let j0 = p * QGEMM_PANEL;
            let jw = (n - j0).min(QGEMM_PANEL);
            for lane in 0..jw {
                let brow = &b[(j0 + lane) * k..(j0 + lane + 1) * k];
                for (t, &v) in brow.iter().enumerate() {
                    panel[(t / 2 * QGEMM_PANEL + lane) * 2 + t % 2] = v as i16;
                }
            }
        }
        Ok(PackedQuantB { data, k, n })
    }

    /// Heap footprint of the packed panels in bytes (diagnostics).
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * core::mem::size_of::<i16>()
    }
}

/// Exact integer GEMM against a pre-packed rhs: `[m, k] × packed(n, k)ᵀ →
/// [m, n]` with `i32` accumulation.
///
/// Mirrors the f32 `matmul_nt` layout (the conv/linear forward shape): row
/// `i` of `a` dotted with row `j` of the `[n, k]` matrix that was packed.
/// Output element `(i, j)` is the exact integer `Σ_t a[i,t]·b[j,t]` —
/// combine with `a.scales[i] * b.scales[j]` to dequantize. The serve tier
/// packs its static weights once and reuses the panels for every batch.
///
/// # Errors
///
/// Returns [`TensorError::MatmulDimMismatch`] when `a.len() ≠ m·b.k` and
/// [`TensorError::ElementOverflow`] when `m·b.n` overflows.
pub fn gemm_i8_packed(a: &[i8], b: &PackedQuantB, m: usize) -> Result<Vec<i32>> {
    let mut out = vec![0i32; shape::checked_volume(&[m, b.n], "gemm_i8_packed")?];
    gemm_i8_packed_into(a, b, m, &mut out)?;
    Ok(out)
}

/// [`gemm_i8_packed`] into a caller-provided accumulator buffer (all `m·n`
/// entries overwritten) — lets the serve tier's fused conv strips reuse one
/// buffer across strips instead of allocating per call.
///
/// # Errors
///
/// Returns [`TensorError::MatmulDimMismatch`] when `a.len() ≠ m·b.k`,
/// [`TensorError::LengthMismatch`] when `out.len() ≠ m·b.n`, and
/// [`TensorError::ElementOverflow`] when either product overflows.
pub fn gemm_i8_packed_into(a: &[i8], b: &PackedQuantB, m: usize, out: &mut [i32]) -> Result<()> {
    if a.len() != shape::checked_volume(&[m, b.k], "gemm_i8_packed")? {
        return Err(TensorError::MatmulDimMismatch {
            lhs_cols: a.len() / m.max(1),
            rhs_rows: b.k,
        });
    }
    let volume = shape::checked_volume(&[m, b.n], "gemm_i8_packed")?;
    if out.len() != volume {
        return Err(TensorError::LengthMismatch {
            expected: volume,
            actual: out.len(),
        });
    }
    if volume == 0 {
        return Ok(());
    }
    // A reused buffer may hold a previous strip's accumulators, and the
    // kernels skip degenerate shapes instead of writing zeros.
    out.fill(0);
    // Row split like every other kernel; integer accumulation is exact, so
    // this is deterministic for any thread count without an order contract.
    let threads = parallel::threads_for(m.saturating_mul(b.n).saturating_mul(b.k));
    parallel::par_chunks_mut(out, b.n, threads, |rows, region| {
        qgemm_packed_block(&a[rows.start * b.k..rows.end * b.k], b, region, rows.len());
    });
    Ok(())
}

/// Serial packed kernel over one contiguous block of A rows / output rows:
/// [`MICRO_ROWS`]-row blocks through every panel, then a 1-row cleanup.
/// Dispatches to the AVX2 block driver when the host supports it — integer
/// accumulation is exact, so both bodies produce identical bits and the
/// choice is invisible to every caller.
fn qgemm_packed_block(a: &[i8], b: &PackedQuantB, out: &mut [i32], m: usize) {
    let k = b.k;
    if k == 0 || b.n == 0 {
        return; // out is pre-zeroed and a zero chunk size would panic
    }
    #[cfg(target_arch = "x86_64")]
    if crate::simd::have_avx2() {
        // SAFETY: AVX2 verified at runtime; operand invariants (row lengths
        // == k, panel layout) are established by PackedQuantB::pack and the
        // callers' shape checks.
        unsafe { x86::qgemm_block(a, b, out, m) };
        return;
    }
    let full = m - m % MICRO_ROWS;
    for i0 in (0..full).step_by(MICRO_ROWS) {
        let arows = [
            &a[i0 * k..(i0 + 1) * k],
            &a[(i0 + 1) * k..(i0 + 2) * k],
            &a[(i0 + 2) * k..(i0 + 3) * k],
            &a[(i0 + 3) * k..(i0 + 4) * k],
        ];
        qgemm_panels::<MICRO_ROWS>(arows, b, &mut out[i0 * b.n..(i0 + MICRO_ROWS) * b.n]);
    }
    for i in full..m {
        let arows = [&a[i * k..(i + 1) * k]];
        qgemm_panels::<1>(arows, b, &mut out[i * b.n..(i + 1) * b.n]);
    }
}

/// Runs the portable microkernel for `R` A-rows across every panel of `b`,
/// writing the `R × n` output block.
#[inline(always)]
fn qgemm_panels<const R: usize>(arows: [&[i8]; R], b: &PackedQuantB, out: &mut [i32]) {
    let (k, n) = (b.k, b.n);
    let kp = k.div_ceil(2);
    for (p, panel) in b.data.chunks_exact(kp * 2 * QGEMM_PANEL).enumerate() {
        let j0 = p * QGEMM_PANEL;
        let jw = (n - j0).min(QGEMM_PANEL);
        let acc = qgemm_micro::<R>(arows, panel);
        for r in 0..R {
            out[r * n + j0..r * n + j0 + jw].copy_from_slice(&acc[r][..jw]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{PackedQuantB, QGEMM_PANEL};
    use core::arch::x86_64::*;

    /// AVX2 body of [`super::quantize_codes`]: 8 codes per step —
    /// multiply, clamp, add `copysign(0.5, t)`, truncate (`vcvttps2dq`),
    /// then narrow i32 → i8 with two saturating packs. Every lane performs
    /// the same IEEE operations as the scalar loop, so the codes are
    /// identical; NaN products are zeroed through an ordered-compare mask
    /// taken *before* the clamp (`vminps` would otherwise absorb the NaN)
    /// to match the scalar cast's `NaN as i8 == 0`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and `out.len() == row.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_codes(row: &[f32], inv: f32, out: &mut [i8]) {
        let n = row.len();
        let chunks = n / 8;
        let (rp, op) = (row.as_ptr(), out.as_mut_ptr());
        let vinv = _mm256_set1_ps(inv);
        let vmax = _mm256_set1_ps(127.0);
        let vmin = _mm256_set1_ps(-127.0);
        let vhalf = _mm256_set1_ps(0.5);
        let vsign = _mm256_set1_ps(-0.0);
        for c in 0..chunks {
            let raw = _mm256_mul_ps(_mm256_loadu_ps(rp.add(c * 8)), vinv);
            let ord = _mm256_castps_si256(_mm256_cmp_ps(raw, raw, _CMP_ORD_Q));
            let t = _mm256_max_ps(_mm256_min_ps(raw, vmax), vmin);
            let half = _mm256_or_ps(vhalf, _mm256_and_ps(t, vsign));
            let q = _mm256_cvttps_epi32(_mm256_add_ps(t, half));
            let q = _mm256_and_si256(q, ord);
            let w = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
            _mm_storel_epi64(op.add(c * 8) as *mut __m128i, _mm_packs_epi16(w, w));
        }
        for i in chunks * 8..n {
            let t = (*rp.add(i) * inv).clamp(-127.0, 127.0);
            *op.add(i) = (t + 0.5f32.copysign(t)) as i8;
        }
    }

    /// AVX2 body of [`super::row_maxabs`]: two independent `vmaxps`
    /// accumulator chains over sign-cleared lanes, pairwise lane reduce,
    /// scalar tail. `max` is exact, so the split is bitwise-neutral. The
    /// accumulator is the *second* `vmaxps` operand: `maxps` returns its
    /// second operand when either input is NaN, so a NaN element leaves
    /// the accumulator unchanged — the same skip-NaN behaviour as the
    /// portable `f32::max` fold.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_maxabs(row: &[f32]) -> f32 {
        let n = row.len();
        let chunks = n / 16;
        let rp = row.as_ptr();
        let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        for c in 0..chunks {
            let v0 = _mm256_and_ps(_mm256_loadu_ps(rp.add(c * 16)), absmask);
            let v1 = _mm256_and_ps(_mm256_loadu_ps(rp.add(c * 16 + 8)), absmask);
            acc0 = _mm256_max_ps(v0, acc0);
            acc1 = _mm256_max_ps(v1, acc1);
        }
        let acc = _mm256_max_ps(acc0, acc1);
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut maxabs = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
        for i in chunks * 16..n {
            maxabs = maxabs.max((*rp.add(i)).abs());
        }
        maxabs
    }

    /// AVX2 block driver: widens the A block to `i16` rows padded to an
    /// even length once, then runs the panel microkernel in
    /// [`super::MICRO_ROWS`]-row blocks with a 1-row cleanup. The widened
    /// copy lets the microkernel broadcast each `[a[2t₂], a[2t₂+1]]` pair
    /// with a single `vpbroadcastd` straight from memory instead of
    /// rebuilding it from two sign-extended byte loads per step — the pair
    /// build was most of the inner-loop instruction count. The pad slot of
    /// an odd `k` is zero, matching the panel's zero tail slot.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; `a` must hold `m × b.k`
    /// values and `out` must hold `m × b.n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn qgemm_block(a: &[i8], b: &PackedQuantB, out: &mut [i32], m: usize) {
        let (k, n) = (b.k, b.n);
        let ke = k.div_ceil(2) * 2;
        let mut a16 = vec![0i16; m * ke];
        for r in 0..m {
            let src = &a[r * k..(r + 1) * k];
            let dst = &mut a16[r * ke..r * ke + k];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s as i16;
            }
        }
        let full = m - m % super::MICRO_ROWS;
        for i0 in (0..full).step_by(super::MICRO_ROWS) {
            let arows: [&[i16]; super::MICRO_ROWS] =
                core::array::from_fn(|r| &a16[(i0 + r) * ke..(i0 + r + 1) * ke]);
            qgemm_panels(arows, b, &mut out[i0 * n..(i0 + super::MICRO_ROWS) * n]);
        }
        for i in full..m {
            qgemm_panels(
                [&a16[i * ke..(i + 1) * ke]],
                b,
                &mut out[i * n..(i + 1) * n],
            );
        }
    }

    /// AVX2 microkernel: the `R × 16` i32 accumulator block lives in
    /// `2R` `__m256i` registers. Each k-pair step loads the panel's 32
    /// pair-interleaved `i16` values (two vectors), broadcasts each A-row's
    /// widened `[a[2t₂], a[2t₂+1]]` pair as one `i32`, and lets `vpmaddwd`
    /// do both multiplies *and* the pair-sum in a single instruction per
    /// vector — `vpaddd` folds the 8 per-lane pair sums into the
    /// accumulators. Each product is ≤ 127², so the pairwise i32 sums
    /// cannot overflow, and the running total is bounded by the
    /// [`super::MAX_K`] guard. Exact integers — the result is bit-identical
    /// to the portable microkernel by construction.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; `arows` rows must each hold
    /// `ceil(b.k/2)·2` widened values and `out` must hold `R × b.n`.
    #[target_feature(enable = "avx2")]
    unsafe fn qgemm_panels<const R: usize>(arows: [&[i16]; R], b: &PackedQuantB, out: &mut [i32]) {
        let (k, n) = (b.k, b.n);
        let kp = k.div_ceil(2);
        for (p, panel) in b.data.chunks_exact(kp * 2 * QGEMM_PANEL).enumerate() {
            let j0 = p * QGEMM_PANEL;
            let jw = (n - j0).min(QGEMM_PANEL);
            let pp = panel.as_ptr();
            let mut lo = [_mm256_setzero_si256(); R];
            let mut hi = [_mm256_setzero_si256(); R];
            for t2 in 0..kp {
                let bp = pp.add(t2 * 2 * QGEMM_PANEL);
                let blo = _mm256_loadu_si256(bp as *const __m256i);
                let bhi = _mm256_loadu_si256(bp.add(QGEMM_PANEL) as *const __m256i);
                for r in 0..R {
                    let pair =
                        core::ptr::read_unaligned(arows[r].as_ptr().add(2 * t2) as *const i32);
                    let av = _mm256_set1_epi32(pair);
                    lo[r] = _mm256_add_epi32(lo[r], _mm256_madd_epi16(av, blo));
                    hi[r] = _mm256_add_epi32(hi[r], _mm256_madd_epi16(av, bhi));
                }
            }
            for r in 0..R {
                let mut acc = [0i32; QGEMM_PANEL];
                _mm256_storeu_si256(acc.as_mut_ptr().cast(), lo[r]);
                _mm256_storeu_si256(acc.as_mut_ptr().add(8).cast(), hi[r]);
                out[r * n + j0..r * n + j0 + jw].copy_from_slice(&acc[..jw]);
            }
        }
    }
}

/// The register-resident microkernel: `R` A-rows × one pair-interleaved
/// panel → `R × PANEL` i32 accumulators. Every pair step performs
/// `R × PANEL × 2` independent multiply-adds — no serial dependency chain —
/// so the autovectorizer emits wide integer FMAs. Zero-padded positions
/// (ragged last panel, odd-`k` tail) contribute exact zeros; the matching
/// A value of the odd tail is forced to zero instead of reading past the
/// row.
#[inline(always)]
fn qgemm_micro<const R: usize>(arows: [&[i8]; R], panel: &[i16]) -> [[i32; QGEMM_PANEL]; R] {
    let mut acc = [[0i32; QGEMM_PANEL]; R];
    for (t2, pair) in panel.chunks_exact(2 * QGEMM_PANEL).enumerate() {
        for r in 0..R {
            let a0 = arows[r][2 * t2] as i32;
            // The odd-k tail's second panel slot is zero, so the A value
            // against it is irrelevant — use 0 rather than read past the row.
            let a1 = match arows[r].get(2 * t2 + 1) {
                Some(&v) => v as i32,
                None => 0,
            };
            let accr = &mut acc[r];
            for (l, bv) in pair.chunks_exact(2).enumerate() {
                accr[l] += a0 * bv[0] as i32 + a1 * bv[1] as i32;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize, salt: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| ((i * 31 + salt * 7) % 97) as f32 * 0.11 - 5.0)
            .collect()
    }

    #[test]
    fn quantize_roundtrip_error_is_bounded_by_half_scale() {
        let src = sample(5, 33, 1);
        let q = QuantizedMatrix::quantize_rows(&src, 5, 33).unwrap();
        let deq = q.dequantize();
        for r in 0..5 {
            let half = q.scales[r] * 0.5 + 1e-6;
            for c in 0..33 {
                let err = (src[r * 33 + c] - deq[r * 33 + c]).abs();
                assert!(err <= half, "row {r} col {c}: err {err} > {half}");
            }
        }
    }

    #[test]
    fn zero_rows_quantize_to_zeros_with_unit_scale() {
        let mut src = sample(3, 8, 2);
        src[8..16].fill(0.0);
        let q = QuantizedMatrix::quantize_rows(&src, 3, 8).unwrap();
        assert_eq!(q.scales[1], 1.0);
        assert!(q.data[8..16].iter().all(|&v| v == 0));
    }

    #[test]
    fn row_maxabs_matches_sequential_fold() {
        // Lengths straddle the lane / chunk boundaries of both the portable
        // 8-lane path and the AVX2 16-wide path; max is exact so the
        // dispatched result must be bitwise equal to a sequential scan.
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 97] {
            let row: Vec<f32> = (0..n)
                .map(|i| ((i * 29 + 3) % 41) as f32 * 0.7 - 13.0)
                .collect();
            let seq = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            assert_eq!(row_maxabs(&row).to_bits(), seq.to_bits(), "n = {n}");
        }
        // NaN elements are skipped, matching `f32::max` in the scalar fold.
        let mut row = vec![2.5f32; 40];
        row[3] = f32::NAN;
        row[21] = -7.0;
        row[39] = f32::NAN;
        assert_eq!(row_maxabs(&row), 7.0);
    }

    #[test]
    fn quantize_rejects_bad_lengths() {
        assert!(matches!(
            QuantizedMatrix::quantize_rows(&[0.0; 5], 2, 3),
            Err(TensorError::LengthMismatch { .. })
        ));
        assert!(matches!(
            QuantizedMatrix::quantize_rows(&[], usize::MAX, 2),
            Err(TensorError::ElementOverflow { .. })
        ));
    }

    /// `a × bᵀ` through the one public path: pack, then the packed kernel.
    fn packed_gemm(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        gemm_i8_packed(a, &PackedQuantB::pack(b, n, k).unwrap(), m).unwrap()
    }

    #[test]
    fn gemm_matches_i64_reference_exactly() {
        let (m, k, n) = (7, 40, 9);
        let a: Vec<i8> = (0..m * k).map(|i| ((i * 37 + 11) % 255) as i8).collect();
        let b: Vec<i8> = (0..n * k).map(|i| ((i * 53 + 5) % 251) as i8).collect();
        let got = packed_gemm(&a, &b, m, k, n);
        let want = ibrar_oracle::kernels::gemm_i8_nt(&a, &b, m, k, n);
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g as i64, w, "({}, {})", i / n, i % n);
        }
    }

    #[test]
    fn gemm_is_identical_across_thread_counts() {
        let (m, k, n) = (16, 64, 12);
        let a: Vec<i8> = (0..m * k).map(|i| ((i * 19) % 200) as i8).collect();
        let b: Vec<i8> = (0..n * k).map(|i| ((i * 23) % 190) as i8).collect();
        let serial = {
            let _g = parallel::with_threads(1);
            packed_gemm(&a, &b, m, k, n)
        };
        for threads in [2, 4, 7] {
            let _g = parallel::with_threads(threads);
            assert_eq!(serial, packed_gemm(&a, &b, m, k, n));
        }
    }

    #[test]
    fn gemm_guards_depth_and_shape() {
        assert!(matches!(
            PackedQuantB::pack(&[], 0, MAX_K + 1),
            Err(TensorError::InvalidGeometry(_))
        ));
        let a = vec![1i8; 2 * 3];
        let b = vec![1i8; 4 * 3];
        let packed = PackedQuantB::pack(&b, 4, 3).unwrap();
        assert!(gemm_i8_packed(&a, &packed, 2).is_ok());
        assert!(matches!(
            PackedQuantB::pack(&b, 4, 4),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        let deeper = PackedQuantB::pack(&[1i8; 4 * 4], 4, 4).unwrap();
        assert!(matches!(
            gemm_i8_packed(&a, &deeper, 2),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
    }
}
