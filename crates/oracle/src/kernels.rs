//! Naive reference implementations of every numeric kernel in the hot path.
//!
//! Each function is the most direct transcription of the defining formula:
//! plain nested loops in row-major order, one accumulator per output
//! element, no blocking, no parallelism, no zero-skipping, no algebraic
//! shortcuts (HSIC really builds `K_x`, `H`, `K_y` and multiplies them).
//! Shape errors are programming errors in a test, so the functions assert
//! rather than returning `Result`.
//!
//! These are the workspace's only naive loops: production code calls the
//! tuned kernels directly, and the tests pin those against these. The matmul
//! family, the convolution and the pairwise distances accumulate serially
//! in ascending index order from `+0.0`; the integer GEMM twin accumulates
//! exactly in `i64`.

use ibrar_tensor::{Conv2dSpec, Tensor};

/// `[m, k] × [k, n] → [m, n]`, one dot product per output element.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimensions disagree");
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd, od) = (a.data(), b.data(), out.data_mut());
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for t in 0..k {
                acc += ad[i * k + t] * bd[t * n + j];
            }
            od[i * n + j] = acc;
        }
    }
    out
}

/// `A × Bᵀ`: `[m, k] × [n, k] → [m, n]`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_nt lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul_nt rhs must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimensions disagree");
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd, od) = (a.data(), b.data(), out.data_mut());
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for t in 0..k {
                acc += ad[i * k + t] * bd[j * k + t];
            }
            od[i * n + j] = acc;
        }
    }
    out
}

/// `Aᵀ × B`: `[k, m] × [k, n] → [m, n]`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_tn lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul_tn rhs must be rank 2");
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimensions disagree");
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd, od) = (a.data(), b.data(), out.data_mut());
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for t in 0..k {
                acc += ad[t * m + i] * bd[t * n + j];
            }
            od[i * n + j] = acc;
        }
    }
    out
}

/// Exact integer GEMM twin of `ibrar_tensor::qgemm::gemm_i8_packed`:
/// `[m, k]i8 × [n, k]ᵀi8 → [m, n]`, accumulated in `i64` so the reference
/// is exact regardless of depth — comparisons against the production
/// kernel's `i32` results must therefore hold bit-for-bit whenever
/// `k ≤ ibrar_tensor::qgemm::MAX_K`.
pub fn gemm_i8_nt(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i64> {
    assert_eq!(a.len(), m * k, "lhs length disagrees with [m, k]");
    assert_eq!(b.len(), n * k, "rhs length disagrees with [n, k]");
    let mut out = vec![0i64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i64;
            for t in 0..k {
                acc += a[i * k + t] as i64 * b[j * k + t] as i64;
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Direct 2-D convolution: `[n, c, h, w] ⊛ [oc, c, k, k] → [n, oc, oh, ow]`.
///
/// The seven nested loops of the definition: one serial accumulator per
/// output element, ascending `(ci, ky, kx)` order, padding contributing an
/// explicit zero product. `bias` (length `oc`) is then added per output
/// channel when given.
pub fn conv2d(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: &Conv2dSpec) -> Tensor {
    assert_eq!(x.rank(), 4, "conv2d input must be rank 4");
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    assert_eq!(
        weight.shape(),
        &[
            spec.out_channels,
            spec.in_channels,
            spec.kernel,
            spec.kernel
        ],
        "weight shape does not match spec"
    );
    assert_eq!(c, spec.in_channels, "input channels do not match spec");
    let (oh, ow) = spec.out_hw(h, w).expect("valid geometry");
    let (k, oc, patch) = (spec.kernel, spec.out_channels, spec.patch_len());
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    let (xd, wd, od) = (x.data(), weight.data(), out.data_mut());
    for ni in 0..n {
        for co in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
                    let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                    let mut acc = 0.0f32;
                    for ci in 0..c {
                        let chan = (ni * c + ci) * h * w;
                        for ky in 0..k {
                            let iy = iy0 + ky as isize;
                            for kx in 0..k {
                                let ix = ix0 + kx as isize;
                                let xv = if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize
                                {
                                    0.0
                                } else {
                                    xd[chan + iy as usize * w + ix as usize]
                                };
                                acc += xv * wd[co * patch + (ci * k + ky) * k + kx];
                            }
                        }
                    }
                    od[((ni * oc + co) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    match bias {
        Some(b) => out.add(b).expect("bias holds one value per output channel"),
        None => out,
    }
}

/// Direct convolution backward: returns `(dx, dw, db)` for an upstream
/// gradient `grad` of shape `[n, oc, oh, ow]`.
///
/// The forward loops walked again, scattering `grad · partner` into each
/// operand — the transpose of the forward computation, with no
/// im2col/col2im detour. `dx` receives `g·w` at every in-bounds input pixel
/// a receptive field covers (padding positions receive nothing); `dw`
/// accumulates `g·x`, padding contributing an explicit zero product. `db`
/// sums `grad` per output channel in the same `(n, co, oy, ox)` order.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    grad: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = spec.out_hw(h, w).expect("valid geometry");
    let (oc, k, s, p) = (spec.out_channels, spec.kernel, spec.stride, spec.padding);
    assert_eq!(grad.shape(), &[n, oc, oh, ow], "grad shape mismatch");
    let (xd, wd, gd) = (x.data(), weight.data(), grad.data());
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    let dxd = dx.data_mut();
    for ni in 0..n {
        for co in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = gd[((ni * oc + co) * oh + oy) * ow + ox];
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * s + ky) as isize - p as isize;
                                let ix = (ox * s + kx) as isize - p as isize;
                                if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                    continue;
                                }
                                dxd[((ni * c + ci) * h + iy as usize) * w + ix as usize] +=
                                    g * wd[((co * c + ci) * k + ky) * k + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    let mut dw = Tensor::zeros(&[oc, c, k, k]);
    let dwd = dw.data_mut();
    for ni in 0..n {
        for co in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = gd[((ni * oc + co) * oh + oy) * ow + ox];
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * s + ky) as isize - p as isize;
                                let ix = (ox * s + kx) as isize - p as isize;
                                let xv = if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w
                                {
                                    0.0
                                } else {
                                    xd[((ni * c + ci) * h + iy as usize) * w + ix as usize]
                                };
                                dwd[((co * c + ci) * k + ky) * k + kx] += g * xv;
                            }
                        }
                    }
                }
            }
        }
    }
    let mut db = Tensor::zeros(&[oc]);
    let dbd = db.data_mut();
    for ni in 0..n {
        for (co, b) in dbd.iter_mut().enumerate() {
            for &g in &gd[(ni * oc + co) * oh * ow..(ni * oc + co + 1) * oh * ow] {
                *b += g;
            }
        }
    }
    (dx, dw, db)
}

/// Pairwise squared Euclidean distances of the rows of `[m, d]`: `[m, m]`.
pub fn pairwise_sqdist(x: &Tensor) -> Tensor {
    assert_eq!(x.rank(), 2, "pairwise_sqdist input must be rank 2");
    let (m, d) = (x.shape()[0], x.shape()[1]);
    let mut out = Tensor::zeros(&[m, m]);
    let xd = x.data();
    let od = out.data_mut();
    for i in 0..m {
        for j in 0..m {
            let mut acc = 0.0f32;
            for (a, b) in xd[i * d..(i + 1) * d].iter().zip(&xd[j * d..(j + 1) * d]) {
                let diff = a - b;
                acc += diff * diff;
            }
            od[i * m + j] = acc;
        }
    }
    out
}

/// Gaussian kernel matrix `K_ij = exp(−‖x_i − x_j‖² / (2σ²))`.
pub fn gaussian_kernel(x: &Tensor, sigma: f32) -> Tensor {
    assert!(sigma > 0.0, "sigma must be positive");
    let d2 = pairwise_sqdist(x);
    let denom = 2.0 * sigma * sigma;
    d2.map(|v| (-v / denom).exp())
}

/// The centering matrix `H = I − (1/m) 𝟙𝟙ᵀ`.
pub fn centering(m: usize) -> Tensor {
    let mut out = Tensor::full(&[m, m], -1.0 / m as f32);
    let od = out.data_mut();
    for i in 0..m {
        od[i * m + i] += 1.0;
    }
    out
}

/// Biased HSIC estimator, computed literally:
/// `tr(K_x H K_y H) / (m − 1)²` with explicit matrix products.
pub fn hsic(x: &Tensor, y: &Tensor, sigma_x: f32, sigma_y: f32) -> f32 {
    let m = x.shape()[0];
    assert_eq!(m, y.shape()[0], "HSIC batch sizes disagree");
    assert!(m >= 2, "HSIC needs at least 2 samples");
    let kx = gaussian_kernel(x, sigma_x);
    let ky = gaussian_kernel(y, sigma_y);
    let h = centering(m);
    let prod = matmul(&matmul(&matmul(&kx, &h), &ky), &h);
    let mut trace = 0.0f32;
    for i in 0..m {
        trace += prod.data()[i * m + i];
    }
    trace / ((m - 1) as f32 * (m - 1) as f32)
}

/// Median-of-pairwise-distances kernel width, with the same 1e-3 floor and
/// `m < 2 → 1.0` fallback as the optimized implementation.
///
/// Each squared distance uses the fixed 8-lane accumulation order of
/// DESIGN.md §12 (8 lane accumulators over `chunks_exact(8)`, the
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` reduction tree, serial tail added
/// last), transcribed literally here so the differential test against the
/// optimized `median_sigma` stays **bitwise** with unchanged tolerance. The
/// order is part of the documented numeric contract, not an accident of the
/// optimized code.
pub fn median_sigma(x: &Tensor) -> f32 {
    let m = x.shape().first().copied().unwrap_or(0);
    if m < 2 {
        return 1.0;
    }
    let d = x.len() / m;
    let xd = x.data();
    let mut dists = Vec::new();
    for i in 0..m {
        for j in (i + 1)..m {
            let (a, b) = (&xd[i * d..(i + 1) * d], &xd[j * d..(j + 1) * d]);
            let mut lanes = [0.0f32; 8];
            let chunks = d / 8;
            for c in 0..chunks {
                for l in 0..8 {
                    let diff = a[c * 8 + l] - b[c * 8 + l];
                    lanes[l] += diff * diff;
                }
            }
            let mut tail = 0.0f32;
            for t in chunks * 8..d {
                let diff = a[t] - b[t];
                tail += diff * diff;
            }
            let acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
                + tail;
            dists.push(acc.sqrt());
        }
    }
    dists.sort_by(f32::total_cmp);
    dists[dists.len() / 2].max(1e-3)
}

/// Row-wise softmax of `[n, k]` logits (max-shifted for stability).
pub fn softmax(logits: &Tensor) -> Tensor {
    assert_eq!(logits.rank(), 2, "softmax input must be rank 2");
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    let mut out = Tensor::zeros(&[n, k]);
    let ld = logits.data();
    let od = out.data_mut();
    for i in 0..n {
        let row = &ld[i * k..(i + 1) * k];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for &v in row {
            denom += (v - max).exp();
        }
        for (j, &v) in row.iter().enumerate() {
            od[i * k + j] = (v - max).exp() / denom;
        }
    }
    out
}

/// Row-wise log-softmax of `[n, k]` logits.
pub fn log_softmax(logits: &Tensor) -> Tensor {
    assert_eq!(logits.rank(), 2, "log_softmax input must be rank 2");
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    let mut out = Tensor::zeros(&[n, k]);
    let ld = logits.data();
    let od = out.data_mut();
    for i in 0..n {
        let row = &ld[i * k..(i + 1) * k];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for &v in row {
            denom += (v - max).exp();
        }
        let log_denom = denom.ln();
        for (j, &v) in row.iter().enumerate() {
            od[i * k + j] = v - max - log_denom;
        }
    }
    out
}

/// Mean cross-entropy of `[n, k]` logits against integer labels.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> f32 {
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(n, labels.len(), "label count mismatch");
    let lsm = log_softmax(logits);
    let mut acc = 0.0f32;
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < k, "label out of range");
        acc += -lsm.data()[i * k + y];
    }
    acc / n as f32
}

/// Gradient of [`cross_entropy`] w.r.t. the logits: `(softmax − onehot) / n`.
pub fn cross_entropy_grad(logits: &Tensor, labels: &[usize]) -> Tensor {
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    let mut out = softmax(logits);
    let od = out.data_mut();
    for (i, &y) in labels.iter().enumerate() {
        od[i * k + y] -= 1.0;
    }
    for v in od.iter_mut() {
        *v /= n as f32;
    }
    out
}

/// Zero-preserving sign, matching `Tensor::signum`.
fn sign(v: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else if v < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// One FGSM step: `clip₍₀,₁₎(x + ε · sign(g))`.
///
/// Takes the input gradient as an argument so the step rule can be tested
/// in isolation from the model that produced the gradient.
pub fn fgsm_step(x: &Tensor, grad: &Tensor, eps: f32) -> Tensor {
    assert_eq!(x.shape(), grad.shape(), "gradient shape mismatch");
    let mut out = x.clone();
    let gd = grad.data();
    for (o, &g) in out.data_mut().iter_mut().zip(gd) {
        *o = (*o + eps * sign(g)).clamp(0.0, 1.0);
    }
    out
}

/// One PGD step from iterate `x`: ascend by `α · sign(g)`, project onto the
/// ε-ball around `x_orig`, clip to `[0, 1]`.
pub fn pgd_step(x: &Tensor, x_orig: &Tensor, grad: &Tensor, alpha: f32, eps: f32) -> Tensor {
    assert_eq!(x.shape(), grad.shape(), "gradient shape mismatch");
    assert_eq!(x.shape(), x_orig.shape(), "origin shape mismatch");
    let mut out = x.clone();
    let gd = grad.data();
    let od_orig = x_orig.data();
    for ((o, &g), &orig) in out.data_mut().iter_mut().zip(gd).zip(od_orig) {
        let stepped = *o + alpha * sign(g);
        *o = stepped.max(orig - eps).min(orig + eps).clamp(0.0, 1.0);
    }
    out
}

/// Elementwise softplus `ln(1 + e^x)`, transcribed literally.
///
/// The optimized op uses the overflow-safe rewrite
/// `max(x, 0) + ln(1 + e^{-|x|})`; differential tests keep inputs in a
/// range where the literal form stays finite.
pub fn softplus(x: &Tensor) -> Tensor {
    let data: Vec<f32> = x.data().iter().map(|&v| v.exp().ln_1p()).collect();
    Tensor::from_vec(data, x.shape()).expect("same shape")
}

/// Gradient of [`softplus`]: `∂/∂x ln(1 + e^x) = σ(x)`, scaled by the
/// upstream gradient.
pub fn softplus_grad(x: &Tensor, grad: &Tensor) -> Tensor {
    assert_eq!(x.shape(), grad.shape(), "gradient shape mismatch");
    let data: Vec<f32> = x
        .data()
        .iter()
        .zip(grad.data())
        .map(|(&v, &g)| g / (1.0 + (-v).exp()))
        .collect();
    Tensor::from_vec(data, x.shape()).expect("same shape")
}

/// Reparameterized Gaussian sample `z = μ + σ ⊙ ε` for frozen noise `ε`.
pub fn rsample(mu: &Tensor, sigma: &Tensor, noise: &Tensor) -> Tensor {
    assert_eq!(mu.shape(), sigma.shape(), "sigma shape mismatch");
    assert_eq!(mu.shape(), noise.shape(), "noise shape mismatch");
    let data: Vec<f32> = mu
        .data()
        .iter()
        .zip(sigma.data())
        .zip(noise.data())
        .map(|((&m, &s), &e)| m + s * e)
        .collect();
    Tensor::from_vec(data, mu.shape()).expect("same shape")
}

/// Gradients of [`rsample`] with respect to `(μ, σ)`: `∂z/∂μ = 1`,
/// `∂z/∂σ = ε` (the frozen noise is a constant, not a parent).
pub fn rsample_grads(noise: &Tensor, grad: &Tensor) -> (Tensor, Tensor) {
    assert_eq!(noise.shape(), grad.shape(), "gradient shape mismatch");
    let dsigma: Vec<f32> = noise
        .data()
        .iter()
        .zip(grad.data())
        .map(|(&e, &g)| g * e)
        .collect();
    (
        grad.clone(),
        Tensor::from_vec(dsigma, noise.shape()).expect("same shape"),
    )
}

/// Analytic KL divergence between the diagonal Gaussian `N(μ, σ²)` (one
/// row per batch element) and the shared prior `N(m, s²)`, summed over
/// dimensions and meaned over the batch:
///
/// `KL = (1/n) Σ_i Σ_j [ ln(s_j/σ_ij) + (σ_ij² + (μ_ij − m_j)²)/(2 s_j²) − ½ ]`
pub fn kl_gauss(mu: &Tensor, sigma: &Tensor, prior_mu: &Tensor, prior_sigma: &Tensor) -> f32 {
    assert_eq!(mu.shape(), sigma.shape(), "sigma shape mismatch");
    assert_eq!(mu.shape().len(), 2, "mu must be [n, d]");
    let (n, d) = (mu.shape()[0], mu.shape()[1]);
    assert_eq!(prior_mu.shape(), &[d], "prior_mu shape mismatch");
    assert_eq!(prior_sigma.shape(), &[d], "prior_sigma shape mismatch");
    let mut total = 0.0f32;
    for i in 0..n {
        for j in 0..d {
            let (q_mu, q_sd) = (mu.data()[i * d + j], sigma.data()[i * d + j]);
            let (p_mu, p_sd) = (prior_mu.data()[j], prior_sigma.data()[j]);
            total += (p_sd / q_sd).ln()
                + (q_sd * q_sd + (q_mu - p_mu) * (q_mu - p_mu)) / (2.0 * p_sd * p_sd)
                - 0.5;
        }
    }
    total / n as f32
}

/// Gradients of [`kl_gauss`] for upstream gradient `g`, in input order
/// `(∂μ, ∂σ, ∂m, ∂s)`.
pub fn kl_gauss_grads(
    mu: &Tensor,
    sigma: &Tensor,
    prior_mu: &Tensor,
    prior_sigma: &Tensor,
    g: f32,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let (n, d) = (mu.shape()[0], mu.shape()[1]);
    let nf = n as f32;
    let mut dmu = vec![0.0f32; n * d];
    let mut dsigma = vec![0.0f32; n * d];
    let mut dpm = vec![0.0f32; d];
    let mut dps = vec![0.0f32; d];
    for i in 0..n {
        for j in 0..d {
            let (q_mu, q_sd) = (mu.data()[i * d + j], sigma.data()[i * d + j]);
            let (p_mu, p_sd) = (prior_mu.data()[j], prior_sigma.data()[j]);
            dmu[i * d + j] = g * (q_mu - p_mu) / (nf * p_sd * p_sd);
            dsigma[i * d + j] = g * (q_sd / (p_sd * p_sd) - 1.0 / q_sd) / nf;
            dpm[j] += g * (p_mu - q_mu) / (nf * p_sd * p_sd);
            dps[j] += g
                * (1.0 / p_sd - (q_sd * q_sd + (q_mu - p_mu) * (q_mu - p_mu)) / (p_sd.powi(3)))
                / nf;
        }
    }
    (
        Tensor::from_vec(dmu, mu.shape()).expect("same shape"),
        Tensor::from_vec(dsigma, mu.shape()).expect("same shape"),
        Tensor::from_vec(dpm, &[d]).expect("same shape"),
        Tensor::from_vec(dps, &[d]).expect("same shape"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_fn(&[3, 3], |i| (i[0] * 3 + i[1]) as f32);
        let id = Tensor::eye(3);
        assert_eq!(matmul(&a, &id), a);
    }

    #[test]
    fn matmul_variants_agree_on_transposed_operands() {
        let a = Tensor::from_fn(&[4, 3], |i| (i[0] * 3 + i[1]) as f32 * 0.5);
        let b = Tensor::from_fn(&[3, 5], |i| (i[0] + i[1] * 2) as f32 * 0.25);
        let plain = matmul(&a, &b);
        let nt = matmul_nt(&a, &b.transpose().unwrap());
        let tn = matmul_tn(&a.transpose().unwrap(), &b);
        assert_eq!(plain, nt);
        assert_eq!(plain, tn);
    }

    #[test]
    fn conv_identity_kernel() {
        let x = Tensor::from_fn(&[1, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f32);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let spec = Conv2dSpec::new(1, 1, 1, 1, 0);
        assert_eq!(conv2d(&x, &w, None, &spec), x);
    }

    #[test]
    fn conv_single_patch() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[1, 1, 2, 2]).unwrap();
        let spec = Conv2dSpec::new(1, 1, 2, 1, 0);
        assert_eq!(conv2d(&x, &w, None, &spec).data(), &[5.0]);
    }

    #[test]
    fn conv_bias_added_per_channel() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.5, -2.5], &[2]).unwrap();
        let spec = Conv2dSpec::new(1, 2, 1, 1, 0);
        let y = conv2d(&x, &w, Some(&b), &spec);
        assert_eq!(y.data()[0], 1.5);
        assert_eq!(y.data()[4], -2.5);
    }

    #[test]
    fn conv_backward_matches_sum_loss_hand_calc() {
        // L = sum(conv(x, w)) with a 1x1 all-ones kernel: dw = sum(x), dx = 1.
        let x = Tensor::from_fn(&[1, 1, 2, 2], |i| (i[2] * 2 + i[3] + 1) as f32);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let spec = Conv2dSpec::new(1, 1, 1, 1, 0);
        let grad = Tensor::ones(&[1, 1, 2, 2]);
        let (dx, dw, db) = conv2d_backward(&x, &w, &grad, &spec);
        assert_eq!(dw.data(), &[10.0]);
        assert_eq!(dx.data(), &[1.0; 4]);
        assert_eq!(db.data(), &[4.0]);
    }

    #[test]
    fn sqdist_diagonal_zero_and_symmetric() {
        let x = Tensor::from_fn(&[4, 3], |i| (i[0] * 2 + i[1]) as f32 * 0.7);
        let d = pairwise_sqdist(&x);
        for i in 0..4 {
            assert_eq!(d.data()[i * 4 + i], 0.0);
            for j in 0..4 {
                assert_eq!(d.data()[i * 4 + j], d.data()[j * 4 + i]);
            }
        }
    }

    #[test]
    fn gaussian_kernel_unit_diagonal() {
        let x = Tensor::from_fn(&[3, 2], |i| i[0] as f32);
        let k = gaussian_kernel(&x, 1.0);
        for i in 0..3 {
            assert_eq!(k.data()[i * 3 + i], 1.0);
        }
        // off-diagonal entries decay with distance
        assert!(k.data()[1] > k.data()[2]);
    }

    #[test]
    fn centering_rows_sum_to_zero() {
        let h = centering(5);
        for i in 0..5 {
            let row_sum: f32 = h.data()[i * 5..(i + 1) * 5].iter().sum();
            assert!(row_sum.abs() < 1e-6);
        }
    }

    #[test]
    fn hsic_zero_for_constant_input() {
        let x = Tensor::ones(&[6, 3]);
        let y = Tensor::from_fn(&[6, 2], |i| i[0] as f32);
        assert!(hsic(&x, &y, 1.0, 1.0).abs() < 1e-5);
    }

    #[test]
    fn median_sigma_hand_value() {
        let x = Tensor::from_vec(vec![0.0, 0.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert!((median_sigma(&x) - 5.0).abs() < 1e-5);
        assert_eq!(median_sigma(&Tensor::ones(&[1, 2])), 1.0);
        assert!(median_sigma(&Tensor::ones(&[4, 2])) >= 1e-3);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let l = Tensor::from_fn(&[3, 4], |i| (i[0] * 4 + i[1]) as f32 * 0.3 - 1.0);
        let s = softmax(&l);
        for i in 0..3 {
            let sum: f32 = s.data()[i * 4..(i + 1) * 4].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let l = Tensor::from_fn(&[2, 5], |i| (i[1] as f32) * 0.9 - (i[0] as f32));
        let s = softmax(&l);
        let ls = log_softmax(&l);
        for (a, b) in s.data().iter().zip(ls.data()) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn uniform_logits_give_log_k_entropy() {
        let l = Tensor::zeros(&[4, 10]);
        let ce = cross_entropy(&l, &[0, 3, 7, 9]);
        assert!((ce - 10.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn ce_grad_rows_sum_to_zero() {
        let l = Tensor::from_fn(&[3, 4], |i| ((i[0] + i[1]) % 3) as f32);
        let g = cross_entropy_grad(&l, &[0, 1, 2]);
        for i in 0..3 {
            let sum: f32 = g.data()[i * 4..(i + 1) * 4].iter().sum();
            assert!(sum.abs() < 1e-6);
        }
    }

    #[test]
    fn fgsm_step_moves_by_eps_and_clips() {
        let x = Tensor::from_vec(vec![0.5, 0.99, 0.0], &[3]).unwrap();
        let g = Tensor::from_vec(vec![1.0, 1.0, -1.0], &[3]).unwrap();
        let y = fgsm_step(&x, &g, 0.1);
        assert_eq!(y.data(), &[0.6, 1.0, 0.0]);
    }

    #[test]
    fn fgsm_step_zero_eps_identity() {
        let x = Tensor::from_vec(vec![0.2, 0.8], &[2]).unwrap();
        let g = Tensor::from_vec(vec![3.0, -2.0], &[2]).unwrap();
        assert_eq!(fgsm_step(&x, &g, 0.0), x);
    }

    #[test]
    fn softplus_known_values() {
        let x = Tensor::from_vec(vec![0.0, 1.0, -1.0], &[3]).unwrap();
        let y = softplus(&x);
        assert!((y.data()[0] - 2.0f32.ln()).abs() < 1e-6);
        assert!((y.data()[1] - (1.0 + 1.0f32.exp()).ln()).abs() < 1e-6);
        // softplus(x) + softplus(-x) = x + 2·softplus(-x) ⇒ softplus(-1) = softplus(1) − 1.
        assert!((y.data()[2] - (y.data()[1] - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn softplus_grad_is_sigmoid() {
        let x = Tensor::from_vec(vec![0.0, 2.0], &[2]).unwrap();
        let g = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let d = softplus_grad(&x, &g);
        assert!((d.data()[0] - 0.5).abs() < 1e-6);
        assert!((d.data()[1] - 1.0 / (1.0 + (-2.0f32).exp())).abs() < 1e-6);
    }

    #[test]
    fn rsample_is_affine_in_noise() {
        let mu = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let sigma = Tensor::from_vec(vec![0.5, 3.0], &[1, 2]).unwrap();
        let eps = Tensor::from_vec(vec![2.0, -1.0], &[1, 2]).unwrap();
        assert_eq!(rsample(&mu, &sigma, &eps).data(), &[2.0, -1.0]);
        let (dmu, dsigma) =
            rsample_grads(&eps, &Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap());
        assert_eq!(dmu.data(), &[1.0, 1.0]);
        assert_eq!(dsigma.data(), &[2.0, -1.0]);
    }

    #[test]
    fn kl_gauss_zero_for_matching_distributions() {
        let mu = Tensor::from_vec(vec![0.3, -0.7, 0.3, -0.7], &[2, 2]).unwrap();
        let sigma = Tensor::from_vec(vec![1.5, 0.5, 1.5, 0.5], &[2, 2]).unwrap();
        let pm = Tensor::from_vec(vec![0.3, -0.7], &[2]).unwrap();
        let ps = Tensor::from_vec(vec![1.5, 0.5], &[2]).unwrap();
        assert!(kl_gauss(&mu, &sigma, &pm, &ps).abs() < 1e-6);
    }

    #[test]
    fn kl_gauss_standard_normal_case() {
        // KL(N(μ, σ²) ‖ N(0, 1)) = −ln σ + (σ² + μ² − 1)/2.
        let (m, s) = (0.8f32, 0.6f32);
        let mu = Tensor::from_vec(vec![m], &[1, 1]).unwrap();
        let sigma = Tensor::from_vec(vec![s], &[1, 1]).unwrap();
        let pm = Tensor::from_vec(vec![0.0], &[1]).unwrap();
        let ps = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let want = -s.ln() + (s * s + m * m - 1.0) / 2.0;
        assert!((kl_gauss(&mu, &sigma, &pm, &ps) - want).abs() < 1e-6);
    }

    #[test]
    fn kl_gauss_grads_match_finite_differences() {
        let mu = Tensor::from_vec(vec![0.4, -0.2], &[1, 2]).unwrap();
        let sigma = Tensor::from_vec(vec![0.9, 1.3], &[1, 2]).unwrap();
        let pm = Tensor::from_vec(vec![0.1, 0.0], &[2]).unwrap();
        let ps = Tensor::from_vec(vec![1.1, 0.8], &[2]).unwrap();
        let (dmu, dsigma, dpm, dps) = kl_gauss_grads(&mu, &sigma, &pm, &ps, 1.0);
        let eps = 1e-3f32;
        let fd = |f: &dyn Fn(f32) -> f32| (f(eps) - f(-eps)) / (2.0 * eps);
        let bump = |t: &Tensor, idx: usize, h: f32| {
            let mut v = t.data().to_vec();
            v[idx] += h;
            Tensor::from_vec(v, t.shape()).unwrap()
        };
        for j in 0..2 {
            let fd_mu = fd(&|h| kl_gauss(&bump(&mu, j, h), &sigma, &pm, &ps));
            assert!((dmu.data()[j] - fd_mu).abs() < 1e-3, "dmu[{j}]");
            let fd_sd = fd(&|h| kl_gauss(&mu, &bump(&sigma, j, h), &pm, &ps));
            assert!((dsigma.data()[j] - fd_sd).abs() < 1e-3, "dsigma[{j}]");
            let fd_pm = fd(&|h| kl_gauss(&mu, &sigma, &bump(&pm, j, h), &ps));
            assert!((dpm.data()[j] - fd_pm).abs() < 1e-3, "dpm[{j}]");
            let fd_ps = fd(&|h| kl_gauss(&mu, &sigma, &pm, &bump(&ps, j, h)));
            assert!((dps.data()[j] - fd_ps).abs() < 1e-3, "dps[{j}]");
        }
    }

    #[test]
    fn pgd_step_projects_onto_ball() {
        let orig = Tensor::from_vec(vec![0.5, 0.5], &[2]).unwrap();
        // iterate already at the ball edge; a further step must be projected
        let x = Tensor::from_vec(vec![0.58, 0.42], &[2]).unwrap();
        let g = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let y = pgd_step(&x, &orig, &g, 0.05, 0.08);
        assert!((y.data()[0] - 0.58).abs() < 1e-6);
        assert!((y.data()[1] - 0.42).abs() < 1e-6);
    }
}
