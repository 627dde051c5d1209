//! SIMD-width inner kernels: fixed 8-lane multi-accumulator loops.
//!
//! The scalar single-accumulator dot products that used to sit at the bottom
//! of `matmul_nt`, `median_sigma`, and `pairwise_sqdist` serialize
//! on the ~4-cycle latency of each fused multiply-add: every iteration waits
//! for the previous accumulator update. Splitting the reduction across 8
//! independent lane accumulators breaks that chain and hands LLVM a loop it
//! autovectorizes to full register width.
//!
//! # Fixed lane-reduction order
//!
//! Reassociating a float reduction changes its rounding, so the order here
//! is part of the numeric contract (DESIGN.md §12):
//!
//! 1. the input is consumed in 8-element chunks (`chunks_exact(8)`); chunk
//!    `c` adds element `8c + l` into lane `l`;
//! 2. lanes reduce as the fixed tree
//!    `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`;
//! 3. the `< 8` tail elements accumulate serially into one scalar that is
//!    added last.
//!
//! The result is a pure function of the input slices — independent of
//! thread count, chunk boundaries, and call site — so determinism across
//! `IBRAR_THREADS` is preserved even though the *value* differs from the
//! old serial order (hence the one-time golden re-bless in PR 5).
//!
//! [`axpy8`] is element-wise (no cross-element reduction), so it is bitwise
//! identical to the plain `y[i] += a * x[i]` loop it replaces; the
//! crate-internal `axpy8_terms` runs a list of such AXPYs with the
//! accumulators held in registers, bitwise the same sequence of calls.
//! The crate-internal `dot8_pixel_lanes` runs `dot8` for eight output
//! pixels of a convolution at once, one pixel per register lane and one
//! register per `dot8` lane, again bitwise.
//!
//! # Runtime AVX2 dispatch
//!
//! The workspace builds for the baseline `x86-64` target (SSE2), where the
//! autovectorizer can only give the lane loops 4-wide registers. On hosts
//! with AVX2 the kernels dispatch at runtime (`is_x86_feature_detected!`,
//! cached in a `OnceLock`) to explicit 8-wide intrinsic bodies. This does
//! **not** loosen the numeric contract: one `__m256` register *is* the
//! 8-lane accumulator array — `vmulps`/`vaddps` perform the identical IEEE
//! single-precision operation per lane as the scalar loop, the tail stays
//! scalar, and the final reduction uses the same fixed tree — so the AVX2
//! and portable paths are bitwise identical on every input (pinned by
//! `dot8_matches_documented_order_exactly`, which always exercises the
//! dispatched path against a literal transcription). No FMA is used:
//! contracting `mul`+`add` would change the rounding.

/// Lane width of the multi-accumulator kernels.
pub const LANES: usize = 8;

/// Whether runtime dispatch to the AVX2 kernel bodies is active (detection
/// result is process-wide and cached). Always `false` off x86-64.
pub fn have_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::{reduce_lanes, LANES};
    use core::arch::x86_64::*;

    /// 8-wide `dot8` body: one `__m256` holds the 8 lane accumulators.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot8(a: &[f32], b: &[f32]) -> f32 {
        let chunks = a.len() / LANES;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let va = _mm256_loadu_ps(ap.add(c * LANES));
            let vb = _mm256_loadu_ps(bp.add(c * LANES));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut tail = 0.0f32;
        for i in chunks * LANES..a.len() {
            tail += *ap.add(i) * *bp.add(i);
        }
        reduce_lanes(lanes) + tail
    }

    /// 8-wide `dot8_x4` body: four independent `__m256` accumulators, one
    /// per output, so the four add-chains overlap in the pipeline. Each
    /// output's per-lane operation sequence is exactly [`dot8`]'s.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and that every `b[r]` has
    /// `x.len()` elements.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot8_x4(x: &[f32], b: [&[f32]; 4]) -> [f32; 4] {
        let chunks = x.len() / LANES;
        let xp = x.as_ptr();
        let bp = [b[0].as_ptr(), b[1].as_ptr(), b[2].as_ptr(), b[3].as_ptr()];
        let mut acc = [_mm256_setzero_ps(); 4];
        for c in 0..chunks {
            let vx = _mm256_loadu_ps(xp.add(c * LANES));
            for r in 0..4 {
                let vb = _mm256_loadu_ps(bp[r].add(c * LANES));
                acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(vx, vb));
            }
        }
        let mut out = [0.0f32; 4];
        for r in 0..4 {
            let mut lanes = [0.0f32; LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc[r]);
            let mut tail = 0.0f32;
            for i in chunks * LANES..x.len() {
                tail += *xp.add(i) * *bp[r].add(i);
            }
            out[r] = reduce_lanes(lanes) + tail;
        }
        out
    }

    /// 8-wide `dot8_x8` body: eight independent accumulators. Four chains
    /// keep only one FP-add port busy at 4-cycle latency; eight saturate
    /// both. Per-output lane semantics are exactly [`dot8`]'s.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and that every `b[r]` has
    /// `x.len()` elements.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot8_x8(x: &[f32], b: [&[f32]; 8]) -> [f32; 8] {
        let chunks = x.len() / LANES;
        let xp = x.as_ptr();
        let mut bp = [core::ptr::null::<f32>(); 8];
        for r in 0..8 {
            bp[r] = b[r].as_ptr();
        }
        let mut acc = [_mm256_setzero_ps(); 8];
        for c in 0..chunks {
            let vx = _mm256_loadu_ps(xp.add(c * LANES));
            for r in 0..8 {
                let vb = _mm256_loadu_ps(bp[r].add(c * LANES));
                acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(vx, vb));
            }
        }
        let mut out = [0.0f32; 8];
        for r in 0..8 {
            let mut lanes = [0.0f32; LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc[r]);
            let mut tail = 0.0f32;
            for i in chunks * LANES..x.len() {
                tail += *xp.add(i) * *bp[r].add(i);
            }
            out[r] = reduce_lanes(lanes) + tail;
        }
        out
    }

    /// 8-pixel blocks that [`dot8_pixel_lanes`] computes together.
    const GROUP: usize = 4;

    /// The output registers of the [`GROUP`] 8-pixel blocks at `base[b]`,
    /// each the `dot8` sequence of its pixels' patch rows. A block's eight
    /// lane accumulators run in four passes over the columns, one lane pair
    /// per pass, so the group fills eight registers and shares each offset
    /// and weight load four ways. Pass `k` ends in `p[k] = a[2k] +
    /// a[2k+1]`, so `(p0+p1) + (p2+p3)` is `dot8`'s tree; the tail goes
    /// last.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; `off` and `w` must hold
    /// `patch` elements and every `base[b] + off[j] + 8` must be in bounds.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn pixel_lane_group(
        base: [*const f32; GROUP],
        off: *const usize,
        w: *const f32,
        patch: usize,
    ) -> [__m256; GROUP] {
        let body = patch / LANES * LANES;
        let mut pairs = [[_mm256_setzero_ps(); 4]; GROUP];
        for k in 0..4 {
            let mut acc = [[_mm256_setzero_ps(); 2]; GROUP];
            for c in (0..body).step_by(LANES) {
                for l in 0..2 {
                    let j = c + 2 * k + l;
                    let (o, wj) = (*off.add(j), _mm256_set1_ps(*w.add(j)));
                    for (a, p) in acc.iter_mut().zip(base) {
                        a[l] = _mm256_add_ps(a[l], _mm256_mul_ps(_mm256_loadu_ps(p.add(o)), wj));
                    }
                }
            }
            for (pair, a) in pairs.iter_mut().zip(acc) {
                pair[k] = _mm256_add_ps(a[0], a[1]);
            }
        }
        let mut tail = [_mm256_setzero_ps(); GROUP];
        for j in body..patch {
            let (o, wj) = (*off.add(j), _mm256_set1_ps(*w.add(j)));
            for (t, p) in tail.iter_mut().zip(base) {
                *t = _mm256_add_ps(*t, _mm256_mul_ps(_mm256_loadu_ps(p.add(o)), wj));
            }
        }
        core::array::from_fn(|b| {
            let [p0, p1, p2, p3] = pairs[b];
            let tree = _mm256_add_ps(_mm256_add_ps(p0, p1), _mm256_add_ps(p2, p3));
            _mm256_add_ps(tree, tail[b])
        })
    }

    /// Pixel-lane dot products for the conv forward: for every row `co` of
    /// `wmat` and every output pixel `(oy, ox)`, `out[(co·oh + oy)·ow + ox]
    /// = dot8(p, wmat[co])`, where `p[j] = src[off[j] + oy·row + ox]` is the
    /// pixel's patch row. `src` is one zero-padded sample, `off` lists the
    /// patch columns' offsets in it and `row` is its row stride
    /// (`conv::conv_forward_tuned`).
    ///
    /// A register holds eight adjacent output pixels, so `dot8`'s eight
    /// lane accumulators become eight registers: column `j` enters
    /// accumulator `j % 8` as `acc + x·w` from +0, columns past the last
    /// full chunk go into a tail from +0, and the accumulators reduce by
    /// `dot8`'s fixed tree before the tail is added. Every output element
    /// sees `dot8`'s IEEE sequence and gets its bits. A NaN stays a NaN,
    /// but which payload it carries is not pinned, here or in `dot8`: Rust
    /// leaves that open, and the compiler commutes the operands of adds and
    /// multiplies. The plane's 8-pixel blocks go through
    /// [`pixel_lane_group`] [`GROUP`] at a time; a short last group repeats
    /// its last block and stores only its own blocks.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`super::have_avx2`]. `off` must not be
    /// empty, `oh` must be nonzero and `ow` a multiple of 8; `wmat`
    /// and `out` must hold the same number of rows, of `off.len()` and
    /// `oh·ow` elements; and `off[j] + (oh−1)·row + ow <= src.len()` must
    /// hold for every `j`. No index is checked.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn dot8_pixel_lanes(
        src: &[f32],
        off: &[usize],
        wmat: &[f32],
        out: &mut [f32],
        oh: usize,
        ow: usize,
        row: usize,
    ) {
        let patch = off.len();
        let blocks = oh * ow / LANES;
        let base = |b: usize| src.as_ptr().add(b * LANES / ow * row + b * LANES % ow);
        for (wrow, plane) in wmat.chunks_exact(patch).zip(out.chunks_exact_mut(oh * ow)) {
            for b0 in (0..blocks).step_by(GROUP) {
                let bases = core::array::from_fn(|i| base((b0 + i).min(blocks - 1)));
                let sums = pixel_lane_group(bases, off.as_ptr(), wrow.as_ptr(), patch);
                for (i, sum) in sums.into_iter().enumerate().take(blocks - b0) {
                    _mm256_storeu_ps(plane.as_mut_ptr().add((b0 + i) * LANES), sum);
                }
            }
        }
    }

    /// `N` consecutive 8-lane chunks of `acc`, held in `__m256` registers
    /// across the whole term list: per term one broadcast, then per chunk
    /// one `vmulps` and one `vaddps` — the IEEE sequence of `axpy8`. With
    /// `MASKED` the last chunk is read and written only in the lanes `tail`
    /// selects.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; the selected lanes of `acc`
    /// and of `src + off`, for every term's `off`, must be valid.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn axpy8_terms_block<const N: usize, const MASKED: bool>(
        terms: &[(f32, usize)],
        src: *const f32,
        acc: *mut f32,
        tail: __m256i,
    ) {
        let mut v = [_mm256_setzero_ps(); N];
        for (r, v) in v.iter_mut().enumerate() {
            let p = acc.add(r * LANES);
            *v = if MASKED && r + 1 == N {
                _mm256_maskload_ps(p, tail)
            } else {
                _mm256_loadu_ps(p)
            };
        }
        for &(g, off) in terms {
            let vg = _mm256_set1_ps(g);
            let p = src.add(off);
            for (r, v) in v.iter_mut().enumerate() {
                let q = p.add(r * LANES);
                let x = if MASKED && r + 1 == N {
                    _mm256_maskload_ps(q, tail)
                } else {
                    _mm256_loadu_ps(q)
                };
                *v = _mm256_add_ps(*v, _mm256_mul_ps(vg, x));
            }
        }
        for (r, v) in v.into_iter().enumerate() {
            let p = acc.add(r * LANES);
            if MASKED && r + 1 == N {
                _mm256_maskstore_ps(p, tail, v);
            } else {
                _mm256_storeu_ps(p, v);
            }
        }
    }

    /// 8-wide `axpy8_terms` body. Each add chain is serial over the terms,
    /// so a pass over the list costs one add latency per term whether it
    /// carries one chunk or eight: `acc` goes in passes of eight register
    /// chunks, and the last 1..=64 elements take one pass of their own,
    /// with a `< 8` remainder through masked loads and stores (the
    /// masked-off lanes are neither read nor written). No scalar loop runs.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and that
    /// `off + acc.len() <= src.len()` for every term.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy8_terms(terms: &[(f32, usize)], src: &[f32], acc: &mut [f32]) {
        const TAIL_MASK: [i32; 2 * LANES] =
            [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        let (mut sp, mut ap, mut rest) = (src.as_ptr(), acc.as_mut_ptr(), acc.len());
        let full = _mm256_set1_epi32(-1);
        while rest > 8 * LANES {
            axpy8_terms_block::<8, false>(terms, sp, ap, full);
            sp = sp.add(8 * LANES);
            ap = ap.add(8 * LANES);
            rest -= 8 * LANES;
        }
        if rest % LANES == 0 {
            match rest / LANES {
                1 => axpy8_terms_block::<1, false>(terms, sp, ap, full),
                2 => axpy8_terms_block::<2, false>(terms, sp, ap, full),
                3 => axpy8_terms_block::<3, false>(terms, sp, ap, full),
                4 => axpy8_terms_block::<4, false>(terms, sp, ap, full),
                5 => axpy8_terms_block::<5, false>(terms, sp, ap, full),
                6 => axpy8_terms_block::<6, false>(terms, sp, ap, full),
                7 => axpy8_terms_block::<7, false>(terms, sp, ap, full),
                8 => axpy8_terms_block::<8, false>(terms, sp, ap, full),
                _ => {} // empty acc
            }
        } else {
            let tail = _mm256_loadu_si256(TAIL_MASK.as_ptr().add(LANES - rest % LANES).cast());
            match rest.div_ceil(LANES) {
                1 => axpy8_terms_block::<1, true>(terms, sp, ap, tail),
                2 => axpy8_terms_block::<2, true>(terms, sp, ap, tail),
                3 => axpy8_terms_block::<3, true>(terms, sp, ap, tail),
                4 => axpy8_terms_block::<4, true>(terms, sp, ap, tail),
                5 => axpy8_terms_block::<5, true>(terms, sp, ap, tail),
                6 => axpy8_terms_block::<6, true>(terms, sp, ap, tail),
                7 => axpy8_terms_block::<7, true>(terms, sp, ap, tail),
                _ => axpy8_terms_block::<8, true>(terms, sp, ap, tail),
            }
        }
    }

    /// 8-wide `sqdist8` body, same lane semantics as the portable loop.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sqdist8(a: &[f32], b: &[f32]) -> f32 {
        let chunks = a.len() / LANES;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let va = _mm256_loadu_ps(ap.add(c * LANES));
            let vb = _mm256_loadu_ps(bp.add(c * LANES));
            let d = _mm256_sub_ps(va, vb);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut tail = 0.0f32;
        for i in chunks * LANES..a.len() {
            let d = *ap.add(i) - *bp.add(i);
            tail += d * d;
        }
        reduce_lanes(lanes) + tail
    }
}

/// Reduces 8 lane accumulators in the documented fixed tree order.
#[inline(always)]
fn reduce_lanes(l: [f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Dot product `Σ a[i]·b[i]` in the fixed 8-lane accumulation order.
///
/// # Panics
///
/// Panics in debug builds when the slices have different lengths.
#[inline]
pub fn dot8(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if have_avx2() {
        // SAFETY: AVX2 verified at runtime; the body performs the identical
        // per-lane IEEE sequence, so this is a pure speedup (see module docs).
        return unsafe { x86::dot8(a, b) };
    }
    let mut lanes = [0.0f32; LANES];
    let ac = a.chunks_exact(LANES);
    let bc = b.chunks_exact(LANES);
    let (atail, btail) = (ac.remainder(), bc.remainder());
    for (ca, cb) in ac.zip(bc) {
        for l in 0..LANES {
            lanes[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in atail.iter().zip(btail) {
        tail += x * y;
    }
    reduce_lanes(lanes) + tail
}

/// Four dot products of one shared left operand against four right
/// operands: `out[r] = dot8(x, b[r])`, bit for bit.
///
/// A single [`dot8`] is latency-bound — every chunk's `vaddps` waits on the
/// previous one, regardless of register width. Interleaving four
/// *independent* outputs gives the pipeline four overlapping add-chains
/// (≈4× throughput on the gemm-NT and direct-conv hot loops) while leaving
/// each output's per-lane accumulation sequence — and therefore its bits —
/// exactly as documented in the module docs.
///
/// # Panics
///
/// Panics in debug builds when any `b[r]` length differs from `x`.
#[inline]
pub fn dot8_x4(x: &[f32], b: [&[f32]; 4]) -> [f32; 4] {
    debug_assert!(b.iter().all(|r| r.len() == x.len()));
    #[cfg(target_arch = "x86_64")]
    if have_avx2() {
        // SAFETY: AVX2 verified at runtime; per-output lane semantics are
        // identical to dot8 (pinned by `dot8_x4_is_bitwise_dot8_per_output`).
        return unsafe { x86::dot8_x4(x, b) };
    }
    let chunks = x.len() / LANES;
    let mut lanes = [[0.0f32; LANES]; 4];
    for c in 0..chunks {
        let cx = &x[c * LANES..(c + 1) * LANES];
        for r in 0..4 {
            let cb = &b[r][c * LANES..(c + 1) * LANES];
            for l in 0..LANES {
                lanes[r][l] += cx[l] * cb[l];
            }
        }
    }
    let mut out = [0.0f32; 4];
    for r in 0..4 {
        let mut tail = 0.0f32;
        for i in chunks * LANES..x.len() {
            tail += x[i] * b[r][i];
        }
        out[r] = reduce_lanes(lanes[r]) + tail;
    }
    out
}

/// Eight dot products of one shared left operand: `out[r] = dot8(x, b[r])`,
/// bit for bit. Doubles [`dot8_x4`]'s chain count — four add-chains at
/// ~4-cycle latency keep a single FP-add port busy, eight keep two — so
/// this is the preferred block size when the output count allows.
///
/// # Panics
///
/// Panics in debug builds when any `b[r]` length differs from `x`.
#[inline]
pub fn dot8_x8(x: &[f32], b: [&[f32]; 8]) -> [f32; 8] {
    debug_assert!(b.iter().all(|r| r.len() == x.len()));
    #[cfg(target_arch = "x86_64")]
    if have_avx2() {
        // SAFETY: AVX2 verified at runtime; per-output lane semantics are
        // identical to dot8 (pinned by `dot8_x8_is_bitwise_dot8_per_output`).
        return unsafe { x86::dot8_x8(x, b) };
    }
    // Portable fallback: two 4-blocks — 64 scalar accumulators would spill
    // on SSE2's 16 registers, and each output's reduction is a pure
    // function of its own operands either way.
    let lo = dot8_x4(x, [b[0], b[1], b[2], b[3]]);
    let hi = dot8_x4(x, [b[4], b[5], b[6], b[7]]);
    [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]]
}

/// Squared Euclidean distance `Σ (a[i]−b[i])²` in the fixed 8-lane
/// accumulation order.
///
/// # Panics
///
/// Panics in debug builds when the slices have different lengths.
#[inline]
pub fn sqdist8(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if have_avx2() {
        // SAFETY: AVX2 verified at runtime; identical per-lane IEEE sequence.
        return unsafe { x86::sqdist8(a, b) };
    }
    let mut lanes = [0.0f32; LANES];
    let ac = a.chunks_exact(LANES);
    let bc = b.chunks_exact(LANES);
    let (atail, btail) = (ac.remainder(), bc.remainder());
    for (ca, cb) in ac.zip(bc) {
        for l in 0..LANES {
            let d = ca[l] - cb[l];
            lanes[l] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in atail.iter().zip(btail) {
        let d = x - y;
        tail += d * d;
    }
    reduce_lanes(lanes) + tail
}

/// `y[i] += a · x[i]` over equal-length slices. Element-wise, therefore
/// bitwise identical to the scalar loop for every input.
///
/// # Panics
///
/// Panics in debug builds when the slices have different lengths.
#[inline]
pub fn axpy8(a: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    // Element-wise, so no lane structure is needed for determinism; a plain
    // indexed loop over length-equalized slices is the shape LLVM
    // vectorizes best here (explicit 8-chunking measurably *defeats* its
    // cost model on the AXPY read-modify-write pattern).
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &mut y[..n]);
    for i in 0..n {
        y[i] += a * x[i];
    }
}

/// `acc += Σ g · src[off..off + acc.len()]` over `terms = [(g, off), …]`:
/// bit for bit the sequence of [`axpy8`] calls
/// `for &(g, off) in terms { axpy8(g, &src[off..][..acc.len()], acc) }`.
///
/// Every element of `acc` receives its products in term order, one
/// `acc + g·x` at a time, exactly as the AXPY sequence would. The AVX2 body
/// keeps a block of `acc` in registers across the whole term list instead
/// of loading and storing it once per term. That moves where the partial
/// sums live, not a single rounding (an f32 register and an f32 memory
/// slot round identically). This is the inner loop of the direct conv
/// backward kernels.
///
/// # Panics
///
/// Panics when a term's `off + acc.len()` exceeds `src.len()`.
#[inline]
pub(crate) fn axpy8_terms(terms: &[(f32, usize)], src: &[f32], acc: &mut [f32]) {
    let len = acc.len();
    assert!(
        terms
            .iter()
            .all(|&(_, off)| off.checked_add(len).is_some_and(|end| end <= src.len())),
        "axpy8_terms: a term reads past the end of src"
    );
    if terms.is_empty() {
        return; // nothing to add: skip the load/store round trip of `acc`
    }
    #[cfg(target_arch = "x86_64")]
    if have_avx2() {
        // SAFETY: AVX2 verified at runtime and every term's window is in
        // bounds (asserted above); element-wise, so identical bits.
        return unsafe { x86::axpy8_terms(terms, src, acc) };
    }
    for &(g, off) in terms {
        axpy8(g, &src[off..off + len], acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..n).map(f).collect()
    }

    #[test]
    fn dot8_matches_documented_order_exactly() {
        // Reference: a literal transcription of the documented order.
        for n in [0, 1, 7, 8, 9, 16, 37, 64] {
            let a = seq(n, |i| ((i * 31 + 7) % 17) as f32 * 0.37 - 2.0);
            let b = seq(n, |i| ((i * 13 + 3) % 19) as f32 * 0.23 - 1.5);
            let mut lanes = [0.0f32; 8];
            let chunks = n / 8;
            for c in 0..chunks {
                for l in 0..8 {
                    lanes[l] += a[c * 8 + l] * b[c * 8 + l];
                }
            }
            let mut tail = 0.0f32;
            for i in chunks * 8..n {
                tail += a[i] * b[i];
            }
            let want = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
                + tail;
            assert_eq!(dot8(&a, &b).to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn dot8_x4_is_bitwise_dot8_per_output() {
        for n in [0, 1, 7, 8, 9, 16, 37, 144] {
            let x = seq(n, |i| ((i * 31 + 7) % 17) as f32 * 0.37 - 2.0);
            let bs: Vec<Vec<f32>> = (0..4)
                .map(|r| seq(n, |i| ((i * 13 + 3 * r + 5) % 19) as f32 * 0.23 - 1.5))
                .collect();
            let got = dot8_x4(&x, [&bs[0], &bs[1], &bs[2], &bs[3]]);
            for r in 0..4 {
                assert_eq!(got[r].to_bits(), dot8(&x, &bs[r]).to_bits(), "n={n} r={r}");
            }
        }
    }

    #[test]
    fn dot8_x8_is_bitwise_dot8_per_output() {
        for n in [0, 1, 7, 8, 9, 16, 37, 144] {
            let x = seq(n, |i| ((i * 31 + 7) % 17) as f32 * 0.37 - 2.0);
            let bs: Vec<Vec<f32>> = (0..8)
                .map(|r| seq(n, |i| ((i * 13 + 5 * r + 3) % 19) as f32 * 0.23 - 1.5))
                .collect();
            let refs: [&[f32]; 8] = std::array::from_fn(|r| bs[r].as_slice());
            let got = dot8_x8(&x, refs);
            for r in 0..8 {
                assert_eq!(got[r].to_bits(), dot8(&x, &bs[r]).to_bits(), "n={n} r={r}");
            }
        }
    }

    #[test]
    fn sqdist8_matches_documented_order_exactly() {
        // Same literal-transcription pin as dot8 — on AVX2 hosts this
        // exercises the intrinsic body against the documented scalar order.
        for n in [0, 1, 7, 8, 9, 16, 37, 64] {
            let a = seq(n, |i| ((i * 29 + 5) % 23) as f32 * 0.31 - 2.1);
            let b = seq(n, |i| ((i * 17 + 11) % 13) as f32 * 0.27 - 1.1);
            let mut lanes = [0.0f32; 8];
            let chunks = n / 8;
            for c in 0..chunks {
                for l in 0..8 {
                    let d = a[c * 8 + l] - b[c * 8 + l];
                    lanes[l] += d * d;
                }
            }
            let mut tail = 0.0f32;
            for i in chunks * 8..n {
                let d = a[i] - b[i];
                tail += d * d;
            }
            let want = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
                + tail;
            assert_eq!(sqdist8(&a, &b).to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn sqdist8_agrees_with_dot_identity() {
        let a = seq(23, |i| i as f32 * 0.11);
        let b = seq(23, |i| (23 - i) as f32 * 0.07);
        let d: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
        assert_eq!(sqdist8(&a, &b).to_bits(), dot8(&d, &d).to_bits());
        assert_eq!(sqdist8(&a, &a), 0.0);
    }

    #[test]
    fn axpy8_is_bitwise_scalar_loop() {
        for n in [0, 3, 8, 21, 40] {
            let x = seq(n, |i| ((i * 7) % 11) as f32 * 0.3 - 1.0);
            let base = seq(n, |i| ((i * 5) % 13) as f32 * 0.21 - 1.2);
            let a = 0.77f32;
            let mut fast = base.clone();
            axpy8(a, &x, &mut fast);
            let mut slow = base.clone();
            for i in 0..n {
                slow[i] += a * x[i];
            }
            let fb: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
            let sb: Vec<u32> = slow.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, sb, "n={n}");
        }
    }

    #[test]
    fn axpy8_terms_is_bitwise_the_axpy8_sequence() {
        // Every block size (8/4/2/1 chunks) and every masked remainder, with
        // overlapping windows, a -0.0 weight and a starting accumulator that
        // is not zero.
        let src = seq(400, |i| ((i * 29 + 3) % 31) as f32 * 0.19 - 2.9);
        for len in (0..=75).chain([144, 216, 432]) {
            let terms: Vec<(f32, usize)> = (0..7)
                .map(|t| {
                    (
                        if t == 3 { -0.0 } else { t as f32 * 0.37 - 1.1 },
                        (t * 5) % 9,
                    )
                })
                .filter(|&(_, off)| off + len <= src.len())
                .collect();
            let base = seq(len, |i| ((i * 5) % 13) as f32 * 0.21 - 1.2);
            let mut fast = base.clone();
            axpy8_terms(&terms, &src, &mut fast);
            let mut slow = base.clone();
            for &(g, off) in &terms {
                axpy8(g, &src[off..off + len], &mut slow);
            }
            let fb: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
            let sb: Vec<u32> = slow.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, sb, "len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "reads past the end")]
    fn axpy8_terms_rejects_out_of_bounds_terms() {
        let mut acc = [0.0f32; 8];
        axpy8_terms(&[(1.0, 3)], &[0.0; 10], &mut acc);
    }

    #[test]
    fn dot8_close_to_f64_reference() {
        let a = seq(1000, |i| (i as f32 * 0.01).sin());
        let b = seq(1000, |i| (i as f32 * 0.02).cos());
        let exact: f64 = a.iter().zip(&b).map(|(x, y)| *x as f64 * *y as f64).sum();
        assert!((dot8(&a, &b) as f64 - exact).abs() < 1e-3);
    }
}
