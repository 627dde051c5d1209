//! Property tests for the quantized GEMM: exact integer equality of the
//! packed path against the oracle twin, the documented accumulator depth
//! bound (DESIGN.md §14), and shape edges the tiled microkernel must
//! survive (k = 0, m = 1, dims off every tile multiple).

use ibrar_oracle::kernels;
use ibrar_tensor::qgemm::{gemm_i8_packed, PackedQuantB, MAX_K, QGEMM_PANEL};
use ibrar_tensor::TensorError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 256;

/// `a × bᵀ` for a row-major `[n, k]` rhs: pack, then the packed kernel.
fn packed_gemm(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    gemm_i8_packed(a, &PackedQuantB::pack(b, n, k).unwrap(), m).unwrap()
}

/// i8×i8→i32 accumulation is exact, so the tiled microkernel must
/// reproduce the oracle's i64 reference bit for bit — no tolerance.
#[test]
fn qgemm_is_exactly_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0x96_0001);
    for case in 0..CASES {
        let [m, k, n] = [1..20usize, 0..48, 1..48].map(|r| rng.gen_range(r));
        let seed = rng.gen_range(0..1000u64);
        let gen = |s: u64, len: usize| -> Vec<i8> {
            (0..len)
                .map(|i| (((i as u64 * 2654435761 + s * 40503) % 255) as i32 - 127) as i8)
                .collect()
        };
        let a = gen(seed, m * k);
        let b = gen(seed + 1, n * k);
        let got = packed_gemm(&a, &b, m, k, n);
        let want = kernels::gemm_i8_nt(&a, &b, m, k, n);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                *g as i64, *w,
                "case {case}: dims = ({m}, {k}, {n}), seed = {seed}, element {i}"
            );
        }
    }
}

/// Shape edges the tiled kernel must handle: empty reduction, single row
/// (no full 4-row micro block), and dims straddling the 16-wide panel and
/// 4-row block boundaries.
#[test]
fn qgemm_shape_edges_match_oracle() {
    let cases = [
        (1usize, 0usize, 1usize),    // empty reduction
        (1, 7, 1),                   // single row, single column
        (3, 5, QGEMM_PANEL),         // exactly one panel
        (4, 5, QGEMM_PANEL + 1),     // one full panel + 1 lane
        (5, 5, QGEMM_PANEL - 1),     // one ragged panel
        (4, 3, 2 * QGEMM_PANEL),     // exact panels, exact rows
        (7, 9, 3 * QGEMM_PANEL - 5), // ragged both ways
        (8, 1, 33),                  // k=1 degenerate depth
    ];
    for (ci, &(m, k, n)) in cases.iter().enumerate() {
        let a: Vec<i8> = (0..m * k)
            .map(|i| (((i * 37) % 255) as i32 - 127) as i8)
            .collect();
        let b: Vec<i8> = (0..n * k)
            .map(|i| (((i * 53) % 255) as i32 - 127) as i8)
            .collect();
        let got = packed_gemm(&a, &b, m, k, n);
        let want = kernels::gemm_i8_nt(&a, &b, m, k, n);
        assert_eq!(got.len(), want.len(), "case {ci} ({m},{k},{n})");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(*g as i64, *w, "case {ci} ({m},{k},{n}) element {i}");
        }
    }
}

/// Worst-case accumulation at the documented depth bound: every product is
/// `(-127)·127`, the largest-magnitude partial sum, and must still be
/// exact at `k = MAX_K` — while `k = MAX_K + 1` is rejected by the pack, not
/// wrapped.
#[test]
fn qgemm_depth_bound_is_exact_then_rejected() {
    // One row, one column: a single dot at the extreme depth.
    let a = vec![127i8; MAX_K];
    let b = vec![-127i8; MAX_K];
    let got = packed_gemm(&a, &b, 1, MAX_K, 1);
    assert_eq!(got[0] as i64, -(127i64 * 127) * MAX_K as i64);

    let b = vec![-127i8; MAX_K + 1];
    assert!(matches!(
        PackedQuantB::pack(&b, 1, MAX_K + 1),
        Err(TensorError::InvalidGeometry(_))
    ));
}

/// The pack layout itself: lanes past `n` are zero padding and the panel
/// count follows `ceil(n / PANEL)`.
#[test]
fn pack_pads_final_panel_with_zero_lanes() {
    let (n, k) = (QGEMM_PANEL + 3, 5);
    let b: Vec<i8> = (0..n * k).map(|i| ((i % 250) as i32 - 125) as i8).collect();
    let packed = PackedQuantB::pack(&b, n, k).unwrap();
    assert_eq!(packed.n, n);
    assert_eq!(packed.k, k);
    // ceil(n/PANEL) = 2 panels × ceil(k/2) i16 pair steps × 16 lanes × 2
    // slots × 2 bytes (the pair-interleaved layout zero-pads both the
    // ragged panel and the odd-k tail slot).
    assert_eq!(
        packed.packed_bytes(),
        2 * k.div_ceil(2) * QGEMM_PANEL * 2 * 2
    );
    // A matmul against identity-ish A exercises every lane: padding lanes
    // must not leak into real outputs.
    let a: Vec<i8> = (0..3 * k)
        .map(|i| ((i * 11 % 255) as i32 - 127) as i8)
        .collect();
    let got = gemm_i8_packed(&a, &packed, 3).unwrap();
    let want = kernels::gemm_i8_nt(&a, &b, 3, k, n);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(*g as i64, *w);
    }
}
