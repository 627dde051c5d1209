//! Differential tests: optimized tensor kernels vs the `ibrar-oracle`
//! naive reference implementations.
//!
//! Every family runs ≥100 seeded random cases. The optimized kernels tile
//! and parallelize, which reorders floating-point accumulation, so
//! comparisons use [`Tolerance::reduction`] (small rel/abs + 16 ULP)
//! rather than bitwise equality. A handful of cases are sized past the
//! parallel-dispatch threshold and repeated under 1 and 4 threads so the
//! threaded paths are exercised too.
//!
//! The conv cases check the `im2col` / `col2im` GEMM pipeline against the
//! oracle's direct loops. No library path runs that pipeline any more: it
//! is the reference the direct conv kernels are pinned to bit for bit in
//! `backend_conformance.rs`, so this suite anchors that reference to the
//! oracle.

use ibrar_oracle::{compare, kernels, Gen, Tolerance};
use ibrar_tensor::{col2im, im2col, parallel, Conv2dSpec, Tensor};

const CASES: usize = 100;

/// Slightly looser absolute floor than `Tolerance::reduction()` for the
/// large parallel cases, where cancellation across a k≈128 reduction can
/// leave a near-zero result with O(1e-5) reordering noise.
fn large_case_tol() -> Tolerance {
    Tolerance {
        abs: 1e-4,
        rel: 1e-5,
        ulp: 16,
    }
}

#[test]
fn matmul_matches_oracle() {
    let mut g = Gen::new(0xA001);
    for case in 0..CASES {
        let (m, k, n) = (g.usize_in(1, 12), g.usize_in(1, 12), g.usize_in(1, 12));
        let a = g.tensor(&[m, k], -2.0, 2.0);
        let b = g.tensor(&[k, n], -2.0, 2.0);
        let got = a.matmul(&b).unwrap();
        let want = kernels::matmul(&a, &b);
        compare(
            &format!("matmul case {case} ({m}x{k}x{n})"),
            &got,
            &want,
            Tolerance::reduction(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn matmul_nt_matches_oracle() {
    let mut g = Gen::new(0xA002);
    for case in 0..CASES {
        let (m, k, n) = (g.usize_in(1, 12), g.usize_in(1, 12), g.usize_in(1, 12));
        let a = g.tensor(&[m, k], -2.0, 2.0);
        let b = g.tensor(&[n, k], -2.0, 2.0); // rhs transposed layout
        let got = a.matmul_nt(&b).unwrap();
        let want = kernels::matmul_nt(&a, &b);
        compare(
            &format!("matmul_nt case {case} ({m}x{k}x{n})"),
            &got,
            &want,
            Tolerance::reduction(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn matmul_tn_matches_oracle() {
    let mut g = Gen::new(0xA003);
    for case in 0..CASES {
        let (m, k, n) = (g.usize_in(1, 12), g.usize_in(1, 12), g.usize_in(1, 12));
        let a = g.tensor(&[k, m], -2.0, 2.0); // lhs transposed layout
        let b = g.tensor(&[k, n], -2.0, 2.0);
        let got = a.matmul_tn(&b).unwrap();
        let want = kernels::matmul_tn(&a, &b);
        compare(
            &format!("matmul_tn case {case} ({m}x{k}x{n})"),
            &got,
            &want,
            Tolerance::reduction(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn matmul_large_cases_match_oracle_under_thread_configs() {
    // Big enough to clear the parallel-dispatch threshold; checked under
    // both a single worker and several so the chunked path is covered.
    let mut g = Gen::new(0xA004);
    let a = g.tensor(&[64, 128], -2.0, 2.0);
    let b = g.tensor(&[128, 48], -2.0, 2.0);
    let bt = g.tensor(&[48, 128], -2.0, 2.0);
    let want = kernels::matmul(&a, &b);
    let want_nt = kernels::matmul_nt(&a, &bt);
    for threads in [1usize, 4] {
        let _scope = parallel::with_threads(threads);
        let got = a.matmul(&b).unwrap();
        compare(
            &format!("matmul 64x128x48 threads={threads}"),
            &got,
            &want,
            large_case_tol(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let got_nt = a.matmul_nt(&bt).unwrap();
        compare(
            &format!("matmul_nt 64x128x48 threads={threads}"),
            &got_nt,
            &want_nt,
            large_case_tol(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Random valid conv geometry: kernel always fits the padded input.
fn conv_case(g: &mut Gen) -> (Tensor, Tensor, Conv2dSpec, usize, usize, usize) {
    let n = g.usize_in(1, 3);
    let c = g.usize_in(1, 3);
    let oc = g.usize_in(1, 4);
    let k = g.usize_in(1, 3);
    let stride = g.usize_in(1, 2);
    let padding = g.usize_in(0, 1);
    let h = g.usize_in(k, 7);
    let w = g.usize_in(k, 7);
    let spec = Conv2dSpec::new(c, oc, k, stride, padding);
    let x = g.tensor(&[n, c, h, w], -1.0, 1.0);
    let weight = g.tensor(&[oc, c, k, k], -1.0, 1.0);
    (x, weight, spec, n, h, w)
}

#[test]
fn im2col_matmul_pipeline_matches_direct_conv_oracle() {
    // The reference conv forward is im2col + matmul_nt; the oracle is a
    // direct 7-loop convolution. Verify the whole pipeline agrees,
    // accounting for the rows layout [(n·oh·ow), oc] vs NCHW.
    let mut g = Gen::new(0xA006);
    let tol = Tolerance::reduction();
    for case in 0..CASES {
        let (x, weight, spec, n, h, w) = conv_case(&mut g);
        let (oh, ow) = spec.out_hw(h, w).unwrap();
        let cols = im2col(&x, &spec).unwrap();
        let wmat = weight
            .reshape(&[spec.out_channels, spec.patch_len()])
            .unwrap();
        let rows = cols.matmul_nt(&wmat).unwrap();
        let want = kernels::conv2d(&x, &weight, None, &spec);
        for ni in 0..n {
            for co in 0..spec.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let got = rows.data()[((ni * oh + oy) * ow + ox) * spec.out_channels + co];
                        let wv = want.data()[((ni * spec.out_channels + co) * oh + oy) * ow + ox];
                        assert!(
                            tol.accepts(got, wv),
                            "conv case {case} at n={ni} co={co} oy={oy} ox={ox}: \
                             {got} vs oracle {wv}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn col2im_is_adjoint_of_im2col() {
    // col2im is the transpose of im2col in the reference conv backward:
    // ⟨im2col(x), C⟩ must equal ⟨x, col2im(C)⟩ for all x, C. Dot products
    // are accumulated in f64 so the identity is tested, not the summation.
    let mut g = Gen::new(0xA007);
    for case in 0..CASES {
        let (x, _weight, spec, n, h, w) = conv_case(&mut g);
        let cols = im2col(&x, &spec).unwrap();
        let c = g.tensor(cols.shape(), -1.0, 1.0);
        let back = col2im(&c, &spec, n, h, w).unwrap();
        let lhs: f64 = cols
            .data()
            .iter()
            .zip(c.data())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let rhs: f64 = x
            .data()
            .iter()
            .zip(back.data())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        assert!(
            (lhs - rhs).abs() / scale < 1e-5,
            "adjoint case {case}: ⟨im2col(x),C⟩={lhs} vs ⟨x,col2im(C)⟩={rhs}"
        );
    }
}
