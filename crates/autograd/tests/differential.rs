//! Differential tests: autograd forward/backward kernels vs the
//! `ibrar-oracle` direct reference implementations.
//!
//! The optimized conv path is the tensor crate's direct forward and backward
//! kernels (a gathered-patch forward, a per-pixel patch-gradient scatter
//! for dX and a per-channel term-list accumulation for dW); the oracle
//! walks the convolution loops directly, so agreement here rules out
//! indexing and layout bugs in the fast path. Backward passes are compared by
//! seeding an explicit upstream gradient `G` (loss = ⟨out, G⟩) so the
//! tape's gradients can be matched against the oracle's closed-form ones.

use ibrar_autograd::{Tape, Var};
use ibrar_oracle::{compare, kernels, Gen, Tolerance};
use ibrar_tensor::{Conv2dSpec, Tensor};

const CASES: usize = 100;

/// Random valid conv geometry: kernel always fits the padded input.
fn conv_case(g: &mut Gen) -> (Tensor, Tensor, Tensor, Conv2dSpec) {
    let n = g.usize_in(1, 3);
    let c = g.usize_in(1, 3);
    let oc = g.usize_in(1, 4);
    let k = g.usize_in(1, 3);
    let stride = g.usize_in(1, 2);
    let padding = g.usize_in(0, 1);
    let h = g.usize_in(k, 6);
    let w = g.usize_in(k, 6);
    let spec = Conv2dSpec::new(c, oc, k, stride, padding);
    let x = g.tensor(&[n, c, h, w], -1.0, 1.0);
    let weight = g.tensor(&[oc, c, k, k], -1.0, 1.0);
    let bias = g.tensor(&[oc], -0.5, 0.5);
    (x, weight, bias, spec)
}

#[test]
fn conv2d_forward_matches_direct_oracle() {
    let mut g = Gen::new(0xB001);
    for case in 0..CASES {
        let (x, weight, bias, spec) = conv_case(&mut g);
        let tape = Tape::new();
        let xv = tape.var(x.clone());
        let wv = tape.var(weight.clone());
        let bv = tape.var(bias.clone());
        let got = xv.conv2d(wv, Some(bv), spec).unwrap().value();
        let want = kernels::conv2d(&x, &weight, Some(&bias), &spec);
        compare(
            &format!("conv2d fwd case {case}"),
            &got,
            &want,
            Tolerance::reduction(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn conv2d_backward_matches_direct_oracle() {
    let mut g = Gen::new(0xB002);
    for case in 0..CASES {
        let (x, weight, bias, spec) = conv_case(&mut g);
        let (h, w) = (x.shape()[2], x.shape()[3]);
        let (oh, ow) = spec.out_hw(h, w).unwrap();
        let upstream = g.tensor(&[x.shape()[0], spec.out_channels, oh, ow], -1.0, 1.0);

        let tape = Tape::new();
        let xv = tape.var(x.clone());
        let wv = tape.var(weight.clone());
        let bv = tape.var(bias.clone());
        let out = xv.conv2d(wv, Some(bv), spec).unwrap();
        // loss = ⟨out, G⟩ seeds the backward pass with exactly G.
        let seed = tape.leaf(upstream.clone());
        let loss = out.mul(seed).unwrap().sum().unwrap();
        let grads = tape.backward(loss).unwrap();

        let (dx, dw, db) = kernels::conv2d_backward(&x, &weight, &upstream, &spec);
        let tol = Tolerance::reduction();
        compare(
            &format!("conv2d dx case {case}"),
            grads.get(xv).unwrap(),
            &dx,
            tol,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        compare(
            &format!("conv2d dw case {case}"),
            grads.get(wv).unwrap(),
            &dw,
            tol,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        compare(
            &format!("conv2d db case {case}"),
            grads.get(bv).unwrap(),
            &db,
            tol,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn softmax_family_matches_oracle() {
    let mut g = Gen::new(0xB003);
    for case in 0..CASES {
        let n = g.usize_in(1, 8);
        let k = g.usize_in(2, 10);
        let logits = g.tensor(&[n, k], -4.0, 4.0);
        let labels = g.labels(n, k);

        let tape = Tape::new();
        let lv = tape.var(logits.clone());
        let tol = Tolerance::reduction();

        let got_sm = lv.softmax().unwrap().value();
        compare(
            &format!("softmax case {case}"),
            &got_sm,
            &kernels::softmax(&logits),
            tol,
        )
        .unwrap_or_else(|e| panic!("{e}"));

        let got_lsm = lv.log_softmax().unwrap().value();
        compare(
            &format!("log_softmax case {case}"),
            &got_lsm,
            &kernels::log_softmax(&logits),
            tol,
        )
        .unwrap_or_else(|e| panic!("{e}"));

        let ce = lv.cross_entropy(&labels).unwrap();
        let got_ce = ce.value().data()[0];
        let want_ce = kernels::cross_entropy(&logits, &labels);
        assert!(
            tol.accepts(got_ce, want_ce),
            "cross_entropy case {case}: {got_ce} vs oracle {want_ce}"
        );

        // Backward of mean CE has the closed form (softmax − onehot)/n.
        let grads = tape.backward(ce).unwrap();
        compare(
            &format!("cross_entropy grad case {case}"),
            grads.get(lv).unwrap(),
            &kernels::cross_entropy_grad(&logits, &labels),
            tol,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn kernel_matrix_ops_match_oracle() {
    let mut g = Gen::new(0xB004);
    for case in 0..CASES {
        let m = g.usize_in(2, 8);
        let d = g.usize_in(1, 6);
        let x = g.tensor(&[m, d], -2.0, 2.0);
        let sigma = g.f32_in(0.5, 2.5);

        let tape = Tape::new();
        let xv = tape.var(x.clone());
        let tol = Tolerance::reduction();
        compare(
            &format!("pairwise_sqdist case {case}"),
            &xv.pairwise_sqdist().unwrap().value(),
            &kernels::pairwise_sqdist(&x),
            tol,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        compare(
            &format!("gaussian_kernel case {case}"),
            &xv.gaussian_kernel(sigma).unwrap().value(),
            &kernels::gaussian_kernel(&x, sigma),
            tol,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn softplus_matches_oracle() {
    // The op uses the overflow-safe rewrite max(x,0) + ln(1+e^{-|x|}); the
    // oracle transcribes ln(1+e^x) literally. Inputs stay in a range where
    // both are finite and the rewrite differs only by rounding.
    let mut g = Gen::new(0xB005);
    for case in 0..CASES {
        let n = g.usize_in(1, 6);
        let d = g.usize_in(1, 8);
        let x = g.tensor(&[n, d], -6.0, 6.0);
        let upstream = g.tensor(&[n, d], -1.0, 1.0);

        let tape = Tape::new();
        let xv = tape.var(x.clone());
        let out = xv.softplus();
        compare(
            &format!("softplus fwd case {case}"),
            &out.value(),
            &kernels::softplus(&x),
            Tolerance::abs_rel(1e-5, 1e-5),
        )
        .unwrap_or_else(|e| panic!("{e}"));

        let seed = tape.leaf(upstream.clone());
        let loss = out.mul(seed).unwrap().sum().unwrap();
        let grads = tape.backward(loss).unwrap();
        compare(
            &format!("softplus bwd case {case}"),
            grads.get(xv).unwrap(),
            &kernels::softplus_grad(&x, &upstream),
            Tolerance::abs_rel(1e-5, 1e-5),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn rsample_matches_oracle_bitwise() {
    // z = μ + σ⊙ε is elementwise with no reduction; op and oracle evaluate
    // the identical expression per element, so the pin is exact (0 ULP) —
    // the forward half of the VIB determinism contract (DESIGN.md §16).
    let mut g = Gen::new(0xB006);
    for case in 0..CASES {
        let n = g.usize_in(1, 6);
        let d = g.usize_in(1, 8);
        let mu = g.tensor(&[n, d], -2.0, 2.0);
        let sigma = g.tensor(&[n, d], 0.05, 2.0);
        let noise = g.normal_tensor(&[n, d]);
        let upstream = g.tensor(&[n, d], -1.0, 1.0);

        let tape = Tape::new();
        let mu_v = tape.var(mu.clone());
        let sigma_v = tape.var(sigma.clone());
        let out = mu_v.rsample(sigma_v, &noise).unwrap();
        compare(
            &format!("rsample fwd case {case}"),
            &out.value(),
            &kernels::rsample(&mu, &sigma, &noise),
            Tolerance::ulps(0),
        )
        .unwrap_or_else(|e| panic!("{e}"));

        let seed = tape.leaf(upstream.clone());
        let loss = out.mul(seed).unwrap().sum().unwrap();
        let grads = tape.backward(loss).unwrap();
        let (dmu, dsigma) = kernels::rsample_grads(&noise, &upstream);
        compare(
            &format!("rsample dmu case {case}"),
            grads.get(mu_v).unwrap(),
            &dmu,
            Tolerance::ulps(0),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        compare(
            &format!("rsample dsigma case {case}"),
            grads.get(sigma_v).unwrap(),
            &dsigma,
            Tolerance::ulps(0),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn kl_gauss_matches_oracle() {
    // Forward: op and oracle accumulate the same terms in the same serial
    // row-major order — pinned bitwise. Gradients: the op hoists 1/s² out
    // of the inner expressions (an algebraic rewrite), so they get the KL
    // tolerance tier documented in DESIGN.md §16 instead.
    let mut g = Gen::new(0xB007);
    for case in 0..CASES {
        let n = g.usize_in(1, 6);
        let d = g.usize_in(1, 8);
        let mu = g.tensor(&[n, d], -2.0, 2.0);
        let sigma = g.tensor(&[n, d], 0.2, 2.0);
        let pm = g.tensor(&[d], -1.0, 1.0);
        let ps = g.tensor(&[d], 0.3, 2.0);
        let gscale = g.f32_in(-2.0, 2.0);

        let tape = Tape::new();
        let mu_v = tape.var(mu.clone());
        let sigma_v = tape.var(sigma.clone());
        let pm_v = tape.var(pm.clone());
        let ps_v = tape.var(ps.clone());
        let kl = mu_v.kl_gauss(sigma_v, pm_v, ps_v).unwrap();
        ibrar_oracle::compare_scalar(
            &format!("kl_gauss fwd case {case}"),
            kl.value().data()[0],
            kernels::kl_gauss(&mu, &sigma, &pm, &ps),
            Tolerance::ulps(0),
        )
        .unwrap_or_else(|e| panic!("{e}"));

        let loss = kl.scale(gscale);
        let grads = tape.backward(loss).unwrap();
        let (dmu, dsigma, dpm, dps) = kernels::kl_gauss_grads(&mu, &sigma, &pm, &ps, gscale);
        let tol = Tolerance::abs_rel(1e-5, 1e-4);
        for (label, var, want) in [
            ("dmu", mu_v, &dmu),
            ("dsigma", sigma_v, &dsigma),
            ("dprior_mu", pm_v, &dpm),
            ("dprior_sigma", ps_v, &dps),
        ] {
            compare(
                &format!("kl_gauss {label} case {case}"),
                grads.get(var).unwrap(),
                want,
                tol,
            )
            .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// A multi-parent op applied to its parents, in parent order.
type MultiParentOp = for<'t> fn(&[Var<'t>]) -> Var<'t>;

struct MultiParent {
    name: &'static str,
    parents: Vec<Tensor>,
    op: MultiParentOp,
}

/// The nine multi-parent ops at seeded shapes and values. `conv2d` takes its
/// bias as a third parent (through the broadcast `add` it records);
/// `rsample` draws its frozen noise from a fixed stream.
fn multi_parent_ops(g: &mut Gen) -> Vec<MultiParent> {
    let (n, c, h, w) = (
        g.usize_in(1, 3),
        g.usize_in(1, 3),
        g.usize_in(2, 5),
        g.usize_in(2, 5),
    );
    let (m, k, d) = (g.usize_in(1, 5), g.usize_in(1, 5), g.usize_in(1, 5));
    let (oc, kernel) = (g.usize_in(1, 4), g.usize_in(1, 2));
    let mut t = |shape: &[usize], lo: f32, hi: f32| g.tensor(shape, lo, hi);
    vec![
        MultiParent {
            name: "add",
            parents: vec![t(&[m, d], -1.0, 1.0), t(&[d], -1.0, 1.0)],
            op: |v| v[0].add(v[1]).unwrap(),
        },
        MultiParent {
            name: "sub",
            parents: vec![t(&[n, c, h, w], -1.0, 1.0), t(&[c], -1.0, 1.0)],
            op: |v| v[0].sub(v[1]).unwrap(),
        },
        MultiParent {
            name: "mul",
            parents: vec![t(&[n, c, h, w], -1.0, 1.0), t(&[c], -1.0, 1.0)],
            op: |v| v[0].mul(v[1]).unwrap(),
        },
        MultiParent {
            name: "matmul",
            parents: vec![t(&[m, k], -1.0, 1.0), t(&[k, d], -1.0, 1.0)],
            op: |v| v[0].matmul(v[1]).unwrap(),
        },
        MultiParent {
            name: "conv2d",
            parents: vec![
                t(&[n, c, h, w], -1.0, 1.0),
                t(&[oc, c, kernel, kernel], -1.0, 1.0),
                t(&[oc], -0.5, 0.5),
            ],
            op: |v| {
                let ws = v[1].shape();
                let spec = Conv2dSpec::new(ws[1], ws[0], ws[2], 1, 1);
                v[0].conv2d(v[1], Some(v[2]), spec).unwrap()
            },
        },
        MultiParent {
            name: "kl_div_to",
            parents: vec![t(&[m, d + 1], -3.0, 3.0), t(&[m, d + 1], -3.0, 3.0)],
            op: |v| v[0].kl_div_to(v[1]).unwrap(),
        },
        MultiParent {
            name: "rsample",
            parents: vec![t(&[m, d], -2.0, 2.0), t(&[m, d], 0.05, 2.0)],
            op: |v| {
                let noise = Gen::new(0xB00B).normal_tensor(&v[0].shape());
                v[0].rsample(v[1], &noise).unwrap()
            },
        },
        MultiParent {
            name: "kl_gauss",
            parents: vec![
                t(&[m, d], -2.0, 2.0),
                t(&[m, d], 0.2, 2.0),
                t(&[d], -1.0, 1.0),
                t(&[d], 0.3, 2.0),
            ],
            op: |v| v[0].kl_gauss(v[1], v[2], v[3]).unwrap(),
        },
        MultiParent {
            name: "batch_norm2d",
            parents: vec![
                t(&[n + 1, c, h, w], -1.0, 1.0),
                t(&[c], 0.5, 1.5),
                t(&[c], -0.5, 0.5),
            ],
            op: |v| v[0].batch_norm2d(v[1], v[2], 1e-5).unwrap().0,
        },
    ]
}

/// Runs `case` with the parents in the bitmask `leaves` recorded as
/// constants and the rest as variables; returns each parent's gradient of
/// `⟨out, upstream⟩` (or of `out` itself when it is a scalar).
fn parent_grads(
    case: &MultiParent,
    leaves: usize,
    upstream: Option<&Tensor>,
) -> Vec<Option<Tensor>> {
    let tape = Tape::new();
    let vars: Vec<Var<'_>> = case
        .parents
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if leaves >> i & 1 == 1 {
                tape.leaf(p.clone())
            } else {
                tape.var(p.clone())
            }
        })
        .collect();
    let out = (case.op)(&vars);
    let loss = match upstream {
        Some(u) => out.mul(tape.leaf(u.clone())).unwrap().sum().unwrap(),
        None => out,
    };
    let grads = tape.backward(loss).unwrap();
    vars.iter().map(|&v| grads.get(v).cloned()).collect()
}

#[test]
fn frozen_parents_leave_every_kept_gradient_bitwise_unchanged() {
    // Each multi-parent op computes only the contributions of parents that
    // require a gradient. Freezing any non-empty subset of parents must
    // remove exactly their gradients and move no bit of the others.
    let mut g = Gen::new(0xB008);
    for case in 0..20 {
        for op in multi_parent_ops(&mut g) {
            let arity = op.parents.len();
            let shape = {
                let tape = Tape::new();
                let leaves: Vec<Var<'_>> =
                    op.parents.iter().map(|p| tape.leaf(p.clone())).collect();
                (op.op)(&leaves).shape()
            };
            let upstream =
                (shape.iter().product::<usize>() > 1).then(|| g.tensor(&shape, -1.0, 1.0));
            let all = parent_grads(&op, 0, upstream.as_ref());
            for leaves in 1..1usize << arity {
                let got = parent_grads(&op, leaves, upstream.as_ref());
                for (i, (got, want)) in got.iter().zip(&all).enumerate() {
                    let what = format!("{} case {case}, leaves {leaves:#b}, parent {i}", op.name);
                    if leaves >> i & 1 == 1 {
                        assert!(got.is_none(), "{what}: a constant got a gradient");
                        continue;
                    }
                    let (Some(got), Some(want)) = (got, want) else {
                        panic!("{what}: variable gradient {got:?}, all-variable run {want:?}");
                    };
                    assert_eq!(got.shape(), want.shape(), "{what}");
                    for (j, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{what}: element {j} is {a}, all-variable run gives {b}"
                        );
                    }
                }
            }
        }
    }
}
