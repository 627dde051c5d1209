//! Matrix multiplication kernels.
//!
//! [`Tensor::matmul`], [`Tensor::matmul_nt`] and [`Tensor::matmul_tn`]
//! validate their shapes, take a zeroed output from the [`crate::scratch`]
//! pool and call the tuned kernel below; there is no other path. The naive
//! loops they are checked against live in `ibrar-oracle`.
//!
//! A cache-tiled, `ikj`-ordered kernel with a row-parallel path (via
//! [`crate::parallel`]) for large products. Output rows are split into
//! contiguous chunks and each chunk's accumulation order matches the serial
//! kernel, so results are bitwise identical for any thread count. Inner
//! loops are the fixed-order 8-lane kernels from [`crate::simd`].
//!
//! # Tiling and the numeric contract
//!
//! [`matmul`](Tensor::matmul) blocks over all three of i/j/k
//! ([`BLOCK_I`]/[`BLOCK_J`]/[`BLOCK_K`]) so the active B tile
//! (`BLOCK_K × BLOCK_J` = 16 KiB) lives in L1 and the output tile
//! (`BLOCK_I × BLOCK_J` = 8 KiB) stays resident while every k-block streams
//! through it — but only once B itself outgrows L1
//! ([`TILE_MIN_B_ELEMS`]); a cache-resident B takes the untiled
//! full-row-AXPY walk, which produces the same bits in the same per-element
//! order without the short-AXPY overhead. [`matmul_nt`](Tensor::matmul_nt)
//! (the input-gradient workhorse of the linear layer) tiles B rows in groups
//! of [`NT_TILE_J`] so the tile is reused across every output row of a chunk
//! instead of streaming all of B per row. Neither tiling changes a single bit of output: each output element
//! still accumulates its k-products in ascending-k order (`matmul`) or in
//! one full-length [`simd::dot8`] call (`matmul_nt`), which are pure
//! functions of the operands — the tile loops only reorder *which element*
//! is updated next, never the order of adds *within* an element. The
//! bitwise goldens therefore hold unchanged.
//!
//! Correctness of the blocked kernel is checked against a naive triple loop
//! in the tests and by property tests; order-preservation is pinned by
//! bitwise tests against literal reference loops.

use crate::{parallel, scratch, shape, simd, Result, Tensor, TensorError};

/// Cache block edge (in elements) for output rows (i dimension).
const BLOCK_I: usize = 32;

/// Cache block edge (in elements) for output columns (j dimension).
const BLOCK_J: usize = 64;

/// Cache block edge (in elements) for the reduction (k) dimension.
const BLOCK_K: usize = 64;

/// B-row tile for [`Tensor::matmul_nt`]: how many rhs rows are kept hot
/// while a chunk of output rows is produced.
const NT_TILE_J: usize = 16;

/// B footprint (`k·n`, in f32 elements) below which the serial kernel skips
/// i/j tiling. When all of B fits in L1 (8 Ki elements = 32 KiB) alongside
/// one output row there is nothing for the tiles to keep resident — the
/// j-split only shortens every AXPY (a ragged 16-wide tail pays full
/// per-call overhead), measured as ~8% on the train-step/PGD medians at
/// VggMini shapes. Above the threshold the tiled walk wins and the
/// per-element add order is identical either way (see module docs).
const TILE_MIN_B_ELEMS: usize = 8 * 1024;

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// The parallel path is gated on total work `m·n·k` via
    /// [`parallel::threads_for`] — not on output size alone, so
    /// deep-reduction products like `[8, 4096] × [4096, 16]` fan out too.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices,
    /// [`TensorError::MatmulDimMismatch`] when the inner dimensions
    /// disagree, and [`TensorError::ElementOverflow`] when `m·n` exceeds
    /// `usize`.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.shape_obj().expect_rank(2, "matmul")?;
        rhs.shape_obj().expect_rank(2, "matmul")?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                lhs_cols: k,
                rhs_rows: k2,
            });
        }
        let mut out = scratch::take(shape::checked_volume(&[m, n], "matmul")?);
        gemm_tuned(self.data(), rhs.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// `self × rhsᵀ` without materializing the transpose: `[m, k] × [n, k]ᵀ → [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Tensor::matmul`].
    pub fn matmul_nt(&self, rhs: &Tensor) -> Result<Tensor> {
        self.shape_obj().expect_rank(2, "matmul_nt")?;
        rhs.shape_obj().expect_rank(2, "matmul_nt")?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (rhs.shape()[0], rhs.shape()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                lhs_cols: k,
                rhs_rows: k2,
            });
        }
        let mut out = scratch::take(shape::checked_volume(&[m, n], "matmul_nt")?);
        gemm_nt_tuned(self.data(), rhs.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// `selfᵀ × rhs` without materializing the transpose: `[k, m]ᵀ × [k, n] → [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Tensor::matmul`].
    pub fn matmul_tn(&self, rhs: &Tensor) -> Result<Tensor> {
        self.shape_obj().expect_rank(2, "matmul_tn")?;
        rhs.shape_obj().expect_rank(2, "matmul_tn")?;
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                lhs_cols: m,
                rhs_rows: k2,
            });
        }
        let mut out = scratch::take(shape::checked_volume(&[m, n], "matmul_tn")?);
        gemm_tn_tuned(self.data(), rhs.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }
}

/// The GEMM behind [`Tensor::matmul`]: work-gated parallel row split over
/// the cache-tiled kernel, into a zeroed `out`.
fn gemm_tuned(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let threads = parallel::threads_for(m.saturating_mul(n).saturating_mul(k));
    if threads > 1 && m >= 2 {
        matmul_parallel(a, b, out, k, n, threads);
    } else {
        matmul_block(a, b, out, m, k, n);
    }
}

/// The `A × Bᵀ` behind [`Tensor::matmul_nt`] (`b` in `[n, k]` layout).
///
/// Each output row is an independent batch of dot products; rows split
/// across threads (this is the linear input-gradient workhorse). Within a
/// chunk, B rows are tiled in groups of [`NT_TILE_J`] so a tile
/// (`NT_TILE_J × k` floats) is reused across every output row of the chunk,
/// and consumed in blocks of eight ([`simd::dot8_x8`], then
/// `dot8_x4`/`dot8` cleanup) so independent accumulator chains overlap in
/// the pipeline. Each element is
/// still one full-length `dot8`-ordered reduction — a pure function of its
/// operands — so the row split, the tile loop, and the multi-output blocks
/// all stay bitwise thread-count invariant.
fn gemm_nt_tuned(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let threads = parallel::threads_for(m.saturating_mul(n).saturating_mul(k));
    parallel::par_chunks_mut(out, n, threads, |rows, region| {
        for j0 in (0..n).step_by(NT_TILE_J) {
            let j1 = (j0 + NT_TILE_J).min(n);
            for (ii, orow) in region.chunks_mut(n).enumerate() {
                let i = rows.start + ii;
                let arow = &a[i * k..(i + 1) * k];
                let br = |j: usize| &b[j * k..(j + 1) * k];
                let mut j = j0;
                while j + 8 <= j1 {
                    let bs: [&[f32]; 8] = core::array::from_fn(|r| br(j + r));
                    let vals = simd::dot8_x8(arow, bs);
                    orow[j..j + 8].copy_from_slice(&vals);
                    j += 8;
                }
                while j + 4 <= j1 {
                    let bs: [&[f32]; 4] = core::array::from_fn(|r| br(j + r));
                    let vals = simd::dot8_x4(arow, bs);
                    orow[j..j + 4].copy_from_slice(&vals);
                    j += 4;
                }
                for (j, o) in (j..j1).zip(orow[j..j1].iter_mut()) {
                    *o = simd::dot8(arow, br(j));
                }
            }
        }
    });
}

/// The `Aᵀ × B` behind [`Tensor::matmul_tn`] (`a` in `[k, m]` layout), into
/// a zeroed `out`.
///
/// `ikj` order over the transposed access pattern: accumulate row i of out
/// from column i of a. Row chunks keep the per-row accumulation order
/// (t ascending) identical to the serial kernel; the AXPY body is
/// element-wise, so unrolling it changes no bits.
fn gemm_tn_tuned(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let threads = parallel::threads_for(m.saturating_mul(n).saturating_mul(k));
    parallel::par_chunks_mut(out, n, threads, |rows, region| {
        for t in 0..k {
            let arow = &a[t * m..(t + 1) * m];
            let brow = &b[t * n..(t + 1) * n];
            for (ii, orow) in region.chunks_mut(n).enumerate() {
                let av = arow[rows.start + ii];
                if av == 0.0 {
                    continue;
                }
                simd::axpy8(av, brow, orow);
            }
        }
    });
}

/// Cache-tiled serial kernel, `i k j` loop order inside each tile so the
/// inner loop is a contiguous AXPY over an output-row segment.
///
/// Tile walk: j-tiles outermost (output column bands), then i-tiles, then
/// k-blocks ascending, then rows within the i-tile. For any fixed output
/// element `(i, j)` the k-blocks are visited in ascending order and `t`
/// ascends within each block, so the element's adds happen in exactly the
/// order of the untiled `ikj` kernel — bitwise identical output.
fn matmul_block(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if k.saturating_mul(n) <= TILE_MIN_B_ELEMS {
        return matmul_block_resident(a, b, out, m, k, n);
    }
    for j0 in (0..n).step_by(BLOCK_J) {
        let j1 = (j0 + BLOCK_J).min(n);
        for i0 in (0..m).step_by(BLOCK_I) {
            let i1 = (i0 + BLOCK_I).min(m);
            for k0 in (0..k).step_by(BLOCK_K) {
                let k1 = (k0 + BLOCK_K).min(k);
                for i in i0..i1 {
                    let orow = &mut out[i * n + j0..i * n + j1];
                    for t in k0..k1 {
                        let av = a[i * k + t];
                        if av == 0.0 {
                            continue;
                        }
                        simd::axpy8(av, &b[t * n + j0..t * n + j1], orow);
                    }
                }
            }
        }
    }
}

/// Untiled `k0‑i‑t` kernel for cache-resident B: every AXPY spans the full
/// output row. For any element `(i, j)` the k-blocks still ascend and `t`
/// ascends within each block, so the add order — and every output bit —
/// matches the tiled walk above.
fn matmul_block_resident(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for k0 in (0..k).step_by(BLOCK_K) {
        let k1 = (k0 + BLOCK_K).min(k);
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            for t in k0..k1 {
                let av = a[i * k + t];
                if av == 0.0 {
                    continue;
                }
                simd::axpy8(av, &b[t * n..(t + 1) * n], orow);
            }
        }
    }
}

/// Splits output rows across the persistent worker pool. Each row chunk
/// runs the same tiled kernel as the serial path over its own rows, so the
/// per-element accumulation order — and therefore every output bit — is
/// independent of the thread count.
fn matmul_parallel(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, threads: usize) {
    parallel::par_chunks_mut(out, n, threads, |rows, out_chunk| {
        let a_slice = &a[rows.start * k..rows.end * k];
        matmul_block(a_slice, b, out_chunk, rows.len(), k, n);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        Tensor::from_fn(&[m, n], |idx| {
            (0..k)
                .map(|t| a.get(&[idx[0], t]) * b.get(&[t, idx[1]]))
                .sum()
        })
    }

    /// Literal transcription of the untiled `ikj` kernel (k ascending per
    /// element, AXPY skip on zero) — the order the tiled kernel must match
    /// bit for bit.
    fn ref_ikj(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let (ad, bd) = (a.data(), b.data());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for t in 0..k {
                let av = ad[i * k + t];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * bd[t * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Tensor::from_fn(&[7, 5], |i| (i[0] * 5 + i[1]) as f32 * 0.1);
        let b = Tensor::from_fn(&[5, 9], |i| (i[0] as f32 - i[1] as f32) * 0.3);
        let fast = a.matmul(&b).unwrap();
        let slow = naive(&a, &b);
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
    }

    #[test]
    fn tiled_kernel_is_bitwise_untiled_ikj() {
        // Shapes that straddle every tile edge: < 1 tile, exact tiles, and
        // ragged remainders in all of i, j, and k.
        for (m, k, n) in [(3, 5, 4), (32, 64, 64), (45, 70, 130), (70, 129, 65)] {
            let a = Tensor::from_fn(&[m, k], |i| {
                ((i[0] * 31 + i[1] * 7) % 23) as f32 * 0.21 - 2.0
            });
            let b = Tensor::from_fn(&[k, n], |i| {
                ((i[0] * 13 + i[1] * 3) % 19) as f32 * 0.17 - 1.5
            });
            let _serial = parallel::with_threads(1);
            let got = a.matmul(&b).unwrap();
            let want = ref_ikj(&a, &b);
            let bits_equal = got
                .data()
                .iter()
                .zip(&want)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(bits_equal, "tiling reordered adds at ({m},{k},{n})");
        }
    }

    #[test]
    fn nt_tiling_is_bitwise_per_element_dot8() {
        for (m, k, n) in [(3, 9, 5), (20, 40, 33), (17, 64, 70)] {
            let a = Tensor::from_fn(&[m, k], |i| ((i[0] * 17 + i[1]) % 13) as f32 * 0.31 - 1.0);
            let b = Tensor::from_fn(&[n, k], |i| {
                ((i[0] * 7 + i[1] * 5) % 11) as f32 * 0.27 - 1.2
            });
            let _serial = parallel::with_threads(1);
            let got = a.matmul_nt(&b).unwrap();
            let (ad, bd) = (a.data(), b.data());
            for i in 0..m {
                for j in 0..n {
                    let want = simd::dot8(&ad[i * k..(i + 1) * k], &bd[j * k..(j + 1) * k]);
                    assert_eq!(
                        got.data()[i * n + j].to_bits(),
                        want.to_bits(),
                        "element ({i},{j}) of ({m},{k},{n})"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_fn(&[4, 4], |i| (i[0] + 2 * i[1]) as f32);
        let i = Tensor::eye(4);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
    }

    #[test]
    fn matmul_nt_matches_transpose() {
        let a = Tensor::from_fn(&[3, 4], |i| (i[0] * 4 + i[1]) as f32);
        let b = Tensor::from_fn(&[5, 4], |i| i[0] as f32 * 0.5 - i[1] as f32);
        let expect = a.matmul(&b.transpose().unwrap()).unwrap();
        let got = a.matmul_nt(&b).unwrap();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-4);
    }

    #[test]
    fn matmul_tn_matches_transpose() {
        let a = Tensor::from_fn(&[4, 3], |i| (i[0] * 3 + i[1]) as f32 * 0.2);
        let b = Tensor::from_fn(&[4, 5], |i| i[0] as f32 - 0.3 * i[1] as f32);
        let expect = a.transpose().unwrap().matmul(&b).unwrap();
        let got = a.matmul_tn(&b).unwrap();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-4);
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Force the parallel path with a big output.
        let a = Tensor::from_fn(&[300, 40], |i| ((i[0] * 7 + i[1]) % 13) as f32 * 0.05);
        let b = Tensor::from_fn(&[40, 300], |i| ((i[0] + 3 * i[1]) % 11) as f32 * 0.07);
        let fast = a.matmul(&b).unwrap();
        let slow = naive(&a, &b);
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-3);
    }

    #[test]
    fn deep_k_parallel_is_bitwise_serial() {
        // The old gate tested m·n (128 elements here) against a 64 Ki
        // threshold and would never have parallelized this shape despite
        // its ~512 Ki MACs; the work-based gate does. Pin that the deep-k
        // parallel split is bitwise identical to the serial kernel.
        let a = Tensor::from_fn(&[8, 4096], |i| {
            ((i[0] * 97 + i[1] * 31) % 29) as f32 * 0.13 - 1.7
        });
        let b = Tensor::from_fn(&[4096, 16], |i| {
            ((i[0] * 11 + i[1] * 53) % 31) as f32 * 0.09 - 1.3
        });
        let serial = {
            let _g = parallel::with_threads(1);
            a.matmul(&b).unwrap()
        };
        for threads in [2, 4, 7] {
            let _g = parallel::with_threads(threads);
            let par = a.matmul(&b).unwrap();
            let bits_equal = par
                .data()
                .iter()
                .zip(serial.data())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(bits_equal, "deep-k split diverged at {threads} threads");
        }
        // And sanity-check the values against the naive reference.
        assert!(serial.max_abs_diff(&naive(&a, &b)).unwrap() < 1e-2);
    }
}
