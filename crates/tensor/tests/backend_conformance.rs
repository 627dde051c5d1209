//! Kernel conformance suite: every tensor kernel entry point, swept
//! against the `ibrar-oracle` references on seeded random cases.
//!
//! The entry points validate their inputs and call the tuned kernels
//! directly, and the oracle holds the only naive loops, so this sweep is
//! the gate between the two (DESIGN.md §17). Float kernels are compared
//! under [`Tolerance::reduction`] (the tuned kernels reorder accumulation);
//! the integer qgemm is compared exactly (i8×i8→i32 accumulation is
//! associative and exact, so it must match the oracle bit for bit).
//!
//! The tuned direct conv kernels are also pinned bit for bit to the GEMM
//! pipelines they replaced (`im2col` + `matmul_nt` forward, `col2im` /
//! `im2col` + `matmul` / `matmul_tn` backward) and across thread counts.

use ibrar_oracle::{compare, kernels, Gen, Tolerance};
use ibrar_tensor::qgemm::{gemm_i8_packed, PackedQuantB};
use ibrar_tensor::{
    col2im, conv2d_backward_input, conv2d_backward_weight, conv2d_forward, im2col, parallel,
    Conv2dSpec, Tensor,
};

const CASES: usize = 60;

fn to_tensor(data: Vec<f32>, shape: &[usize]) -> Tensor {
    Tensor::from_vec(data, shape).unwrap()
}

fn assert_bits(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: element {i}: {a} vs {b}");
    }
}

/// A seeded conv backward case: odd batch, stride 1–2, k ∈ {1, 3, 5},
/// padding 0–2, and an upstream gradient that is at least half exact zeros
/// (some of them −0.0), like a ReLU/max-pool gradient. Returns
/// `(x, wmat, grad, spec)` with `wmat` in the `[oc, c·k·k]` layout.
fn conv_backward_case(g: &mut Gen) -> (Tensor, Tensor, Tensor, Conv2dSpec) {
    let n = 2 * g.usize_in(0, 2) + 1;
    let c = g.usize_in(1, 5);
    let oc = g.usize_in(1, 9);
    let k = [1usize, 3, 5][g.usize_in(0, 2)];
    let stride = g.usize_in(1, 2);
    let padding = g.usize_in(0, 2);
    let min = k.saturating_sub(2 * padding).max(1);
    let h = g.usize_in(min, k + 6);
    let w = g.usize_in(min, k + 6);
    let spec = Conv2dSpec::new(c, oc, k, stride, padding);
    let (oh, ow) = spec.out_hw(h, w).unwrap();
    let x = g.tensor(&[n, c, h, w], -1.0, 1.0);
    let wmat = g.tensor(&[oc, spec.patch_len()], -1.0, 1.0);
    let grad: Vec<f32> = (0..n * oc * oh * ow)
        .map(|_| match g.unit_f32() {
            u if u < 0.55 => 0.0,
            u if u < 0.6 => -0.0,
            _ => g.f32_in(-1.0, 1.0),
        })
        .collect();
    (x, wmat, to_tensor(grad, &[n, oc, oh, ow]), spec)
}

/// The NCHW gradient as the `[n·oh·ow, oc]` rows of the GEMM formulation.
fn rows(grad: &Tensor) -> Tensor {
    let (oc, pix) = (grad.shape()[1], grad.shape()[2] * grad.shape()[3]);
    Tensor::from_fn(&[grad.shape()[0] * pix, oc], |i| {
        let (ni, p) = (i[0] / pix, i[0] % pix);
        grad.data()[(ni * oc + i[1]) * pix + p]
    })
}

fn i8_vec(g: &mut Gen, len: usize) -> Vec<i8> {
    (0..len)
        .map(|_| (g.usize_in(0, 254) as i32 - 127) as i8)
        .collect()
}

#[test]
fn gemm_family_matches_oracle() {
    let mut g = Gen::new(0xB001);
    for case in 0..CASES {
        let (m, k, n) = (g.usize_in(1, 12), g.usize_in(1, 12), g.usize_in(1, 12));
        let a = g.tensor(&[m, k], -2.0, 2.0);
        let b = g.tensor(&[k, n], -2.0, 2.0);
        let bt = g.tensor(&[n, k], -2.0, 2.0);
        let at = g.tensor(&[k, m], -2.0, 2.0);

        compare(
            &format!("matmul case {case}"),
            &a.matmul(&b).unwrap(),
            &kernels::matmul(&a, &b),
            Tolerance::reduction(),
        )
        .unwrap_or_else(|e| panic!("{e}"));

        compare(
            &format!("matmul_nt case {case}"),
            &a.matmul_nt(&bt).unwrap(),
            &kernels::matmul_nt(&a, &bt),
            Tolerance::reduction(),
        )
        .unwrap_or_else(|e| panic!("{e}"));

        compare(
            &format!("matmul_tn case {case}"),
            &at.matmul_tn(&b).unwrap(),
            &kernels::matmul_tn(&at, &b),
            Tolerance::reduction(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn qgemm_is_exactly_oracle() {
    // Integer accumulation is exact: the packed kernel must reproduce the
    // oracle's i64 reference bit for bit, including shape edges.
    let mut g = Gen::new(0xB003);
    for case in 0..CASES {
        let (m, k, n) = (g.usize_in(1, 24), g.usize_in(0, 40), g.usize_in(1, 40));
        let a = i8_vec(&mut g, m * k);
        let b = i8_vec(&mut g, n * k);
        let got = gemm_i8_packed(&a, &PackedQuantB::pack(&b, n, k).unwrap(), m).unwrap();
        let want = kernels::gemm_i8_nt(&a, &b, m, k, n);
        for (i, (&gv, &wv)) in got.iter().zip(&want).enumerate() {
            assert_eq!(gv as i64, wv, "qgemm case {case} ({m}x{k}x{n}) element {i}");
        }
    }
}

#[test]
fn conv2d_forward_matches_oracle() {
    let mut g = Gen::new(0xB004);
    let tol = Tolerance::reduction();
    for case in 0..CASES {
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
        let wmat = weight.reshape(&[oc, spec.patch_len()]).unwrap();
        compare(
            &format!("conv2d_forward case {case}"),
            &conv2d_forward(&x, &wmat, &spec).unwrap(),
            &kernels::conv2d(&x, &weight, None, &spec),
            tol,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn tuned_direct_conv_is_bitwise_im2col_matmul_nt() {
    // The lane-order argument of DESIGN.md §17: the direct forward gathers
    // exactly the im2col patch row and runs the same full-length dot8, so
    // the pipeline swap changes no bits — which is why the conv goldens
    // survived PR 10 without a re-bless.
    let mut g = Gen::new(0xB006);
    let mut cases = Vec::new();
    for case in 0..40 {
        let n = g.usize_in(1, 3);
        let c = g.usize_in(1, 4);
        let oc = g.usize_in(1, 5);
        let k = g.usize_in(1, 3);
        let stride = g.usize_in(1, 2);
        let padding = g.usize_in(0, 1);
        let h = g.usize_in(k, 8);
        let w = g.usize_in(k, 8);
        let spec = Conv2dSpec::new(c, oc, k, stride, padding);
        let x = g.tensor(&[n, c, h, w], -1.0, 1.0);
        let wmat = g.tensor(&[oc, spec.patch_len()], -1.0, 1.0);
        cases.push((format!("case {case}"), x, wmat, spec));
    }
    // On AVX2 hosts a stride-1 conv with ow % 8 == 0 takes the pixel-lane
    // path instead, whose eight lane accumulators are registers of eight
    // output pixels. These cases all select it: ow ∈ {8, 16, 24}; patch 9
    // and 27 (a < 8 tail) and 144 (none); odd batches; padding 0 and 1.
    // Operands are finite, then seeded sparsely (about one special value
    // per output's terms) and densely with −0.0, ±∞ and NaNs of two
    // payloads, in both operands.
    const SPECIAL: [f32; 5] = [
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x7fc0_0001),
        f32::from_bits(0xffc0_2468),
    ];
    let mut g = Gen::new(0xB00C);
    let seeded = |g: &mut Gen, shape: &[usize], rate: f32| {
        let len: usize = shape.iter().product();
        let data = (0..len)
            .map(|_| {
                if g.unit_f32() < rate {
                    SPECIAL[g.usize_in(0, SPECIAL.len() - 1)]
                } else {
                    g.f32_in(-1.0, 1.0)
                }
            })
            .collect();
        to_tensor(data, shape)
    };
    for ow in [8, 16, 24] {
        for c in [1, 3, 16] {
            for padding in [0, 1] {
                let spec = Conv2dSpec::new(c, g.usize_in(1, 11), 3, 1, padding);
                let patch = spec.patch_len() as f32;
                for rate in [0.0, 0.5 / patch, 0.3] {
                    let n = 2 * g.usize_in(0, 1) + 1;
                    let h = g.usize_in(3 - 2 * padding, 6);
                    let w = ow + 2 - 2 * padding;
                    let x = seeded(&mut g, &[n, c, h, w], rate);
                    let wmat = seeded(&mut g, &[spec.out_channels, spec.patch_len()], rate);
                    let label = format!("ow={ow} c={c} padding={padding} rate={rate}");
                    cases.push((label, x, wmat, spec));
                }
            }
        }
    }

    for (label, x, wmat, spec) in &cases {
        let (n, oc) = (x.shape()[0], spec.out_channels);
        let (oh, ow) = spec.out_hw(x.shape()[2], x.shape()[3]).unwrap();
        let direct = conv2d_forward(x, wmat, spec).unwrap();
        let rows = im2col(x, spec).unwrap().matmul_nt(wmat).unwrap();
        for ni in 0..n {
            for co in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let d = direct.data()[((ni * oc + co) * oh + oy) * ow + ox];
                        let r = rows.data()[((ni * oh + oy) * ow + ox) * oc + co];
                        // A NaN must meet a NaN, but its payload is not
                        // compared: Rust leaves open which input NaN an
                        // arithmetic op passes on, and LLVM commutes
                        // `fadd`/`fmul` operands, so even `dot8_x8`'s outputs
                        // do not pass payloads on the way a lone `dot8` does.
                        assert!(
                            d.to_bits() == r.to_bits() || (d.is_nan() && r.is_nan()),
                            "{label}: direct conv diverged from im2col pipeline \
                             at n={ni} co={co} oy={oy} ox={ox}: {d} ({:#010x}) \
                             vs {r} ({:#010x})",
                            d.to_bits(),
                            r.to_bits()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn conv_backward_matches_oracle() {
    let mut g = Gen::new(0xB007);
    for case in 0..CASES {
        let (x, wmat, grad, spec) = conv_backward_case(&mut g);
        let (h, w) = (x.shape()[2], x.shape()[3]);
        let weight = wmat
            .reshape(&[
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
            ])
            .unwrap();
        let (want_dx, want_dw, _) = kernels::conv2d_backward(&x, &weight, &grad, &spec);

        compare(
            &format!("conv2d_backward_input case {case}"),
            &conv2d_backward_input(&grad, &wmat, &spec, h, w).unwrap(),
            &want_dx,
            Tolerance::reduction(),
        )
        .unwrap_or_else(|e| panic!("{e}"));

        compare(
            &format!("conv2d_backward_weight case {case}"),
            &conv2d_backward_weight(&x, &grad, &spec).unwrap(),
            &want_dw,
            Tolerance::reduction(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn tuned_conv_backward_is_bitwise_the_gemm_pipeline() {
    // DESIGN.md §17's order argument for the backward: the direct kernels
    // list the nonzero gradients in the GEMMs' order and add them with the
    // same IEEE operations, so they reproduce `col2im(rows(G) × W)` and
    // `rows(G)ᵀ × im2col(x)` bit for bit — which is why no golden moved.
    let mut g = Gen::new(0xB008);
    for case in 0..CASES {
        let (x, wmat, grad, spec) = conv_backward_case(&mut g);
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let grad_rows = rows(&grad);

        let want = col2im(&grad_rows.matmul(&wmat).unwrap(), &spec, n, h, w).unwrap();
        let got = conv2d_backward_input(&grad, &wmat, &spec, h, w).unwrap();
        assert_bits(&format!("dx case {case} {spec:?}"), got.data(), want.data());

        let want = grad_rows.matmul_tn(&im2col(&x, &spec).unwrap()).unwrap();
        let got = conv2d_backward_weight(&x, &grad, &spec).unwrap();
        assert_bits(&format!("dw case {case} {spec:?}"), got.data(), want.data());
    }
}

#[test]
fn tuned_conv_backward_is_bitwise_thread_count_invariant() {
    // dX splits samples and dW splits output channels across threads;
    // neither split may touch one element's sum.
    let mut g = Gen::new(0xB009);
    for case in 0..20 {
        let (x, wmat, grad, spec) = conv_backward_case(&mut g);
        let (h, w) = (x.shape()[2], x.shape()[3]);
        let run = |threads: usize| {
            let _t = parallel::with_threads(threads);
            (
                conv2d_backward_input(&grad, &wmat, &spec, h, w).unwrap(),
                conv2d_backward_weight(&x, &grad, &spec).unwrap(),
            )
        };
        let (dx1, dw1) = run(1);
        for threads in [2, 4, 7] {
            let (dx, dw) = run(threads);
            assert_bits(
                &format!("dx case {case} at {threads} threads"),
                dx.data(),
                dx1.data(),
            );
            assert_bits(
                &format!("dw case {case} at {threads} threads"),
                dw.data(),
                dw1.data(),
            );
        }
    }
}

#[test]
fn conv_backward_entry_points_reject_mismatched_shapes() {
    let spec = Conv2dSpec::new(2, 3, 3, 1, 1);
    let x = Tensor::zeros(&[2, 2, 5, 5]);
    let wmat = Tensor::zeros(&[3, 18]);
    let grad = Tensor::zeros(&[2, 3, 5, 5]);
    assert!(conv2d_backward_input(&grad, &wmat, &spec, 5, 5).is_ok());
    assert!(conv2d_backward_weight(&x, &grad, &spec).is_ok());
    // Output extent that no 5×6 input produces, wrong wmat, wrong rank.
    assert!(conv2d_backward_input(&grad, &wmat, &spec, 5, 6).is_err());
    assert!(conv2d_backward_input(&grad, &Tensor::zeros(&[3, 17]), &spec, 5, 5).is_err());
    assert!(conv2d_backward_input(&Tensor::zeros(&[3, 25]), &wmat, &spec, 5, 5).is_err());
    // Input channels that disagree with the spec, gradient of another batch.
    assert!(conv2d_backward_weight(&Tensor::zeros(&[2, 1, 5, 5]), &grad, &spec).is_err());
    assert!(conv2d_backward_weight(&x, &Tensor::zeros(&[1, 3, 5, 5]), &spec).is_err());
}
