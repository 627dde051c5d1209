//! Variational-IB primitives: the reparameterization node and the analytic
//! diagonal-Gaussian KL divergence.
//!
//! Both ops are deliberately *deterministic at the tape level*: `rsample`
//! takes its Gaussian noise as a plain frozen tensor (drawn once per batch
//! by the caller — the VIB head seeds a SplitMix64 `StdRng` per batch),
//! and `kl_gauss` accumulates its scalar in a fixed serial order.
//! Nothing here depends on thread count or worker-pool state, so VIB train
//! steps replay bitwise for goldens (DESIGN.md §16).

use crate::tape::{needed, BackwardFn};
use crate::{AutogradError, Result, Var};
use ibrar_tensor::Tensor;

impl<'t> Var<'t> {
    /// Reparameterized Gaussian sample `z = μ + σ ⊙ ε` with frozen noise.
    ///
    /// `self` is `μ`, `sigma` is `σ` (both the same shape), and `noise` is
    /// the per-batch standard-normal draw `ε`. The noise enters the node as
    /// a constant captured by the tape — it is **not** a differentiable
    /// parent, which is exactly the reparameterization trick: gradients
    /// flow to `μ` (`∂z/∂μ = 1`) and `σ` (`∂z/∂σ = ε`) while the sampling
    /// itself stays outside the graph.
    ///
    /// # Errors
    ///
    /// Returns an error when the operands live on different tapes or the
    /// shapes of `σ`/`ε` differ from `μ`.
    pub fn rsample(self, sigma: Var<'t>, noise: &Tensor) -> Result<Var<'t>> {
        self.same_tape(&sigma)?;
        let (mu_t, sigma_t) = (self.value(), sigma.value());
        if mu_t.shape() != sigma_t.shape() {
            return Err(AutogradError::Invalid(format!(
                "rsample: sigma shape {:?} != mu shape {:?}",
                sigma_t.shape(),
                mu_t.shape()
            )));
        }
        if mu_t.shape() != noise.shape() {
            return Err(AutogradError::Invalid(format!(
                "rsample: noise shape {:?} != mu shape {:?}",
                noise.shape(),
                mu_t.shape()
            )));
        }
        let out = mu_t.add(&sigma_t.mul(noise)?)?;
        let sigma_id = sigma.id;
        let need_mu = self.requires_grad();
        let noise = sigma.requires_grad().then(|| noise.clone());
        let backward: BackwardFn = Box::new(move |grad| {
            needed([
                (self.id, need_mu.then(|| grad.clone())),
                (
                    sigma_id,
                    noise
                        .as_ref()
                        .map(|noise| grad.mul(noise).expect("same shape")),
                ),
            ])
        });
        Ok(self.record_binary(sigma, out, backward))
    }

    /// Analytic KL divergence `KL(N(μ, σ²) ‖ N(m, s²))` between the
    /// per-row diagonal Gaussian posterior and a shared (typically
    /// learned) prior, summed over bottleneck dimensions and meaned over
    /// the batch:
    ///
    /// `KL = (1/n) Σ_i Σ_j [ ln(s_j/σ_ij) + (σ_ij² + (μ_ij − m_j)²)/(2 s_j²) − ½ ]`
    ///
    /// `self` is `μ` `[n, d]`, `sigma` is `σ` `[n, d]`, `prior_mu` is `m`
    /// `[d]`, and `prior_sigma` is `s` `[d]`. All four inputs are
    /// differentiable parents, so a learned prior trains alongside the
    /// encoder; the backward fills only the gradients of parents that
    /// require one. Both standard deviations must be strictly positive; the
    /// VIB head guarantees this with `softplus(·) + floor`.
    ///
    /// The output is a scalar accumulated serially in row-major order —
    /// bitwise identical at every `IBRAR_THREADS`.
    ///
    /// # Errors
    ///
    /// Returns an error for foreign tapes, a non-2-D `μ`, or shape
    /// mismatches between the four operands.
    pub fn kl_gauss(
        self,
        sigma: Var<'t>,
        prior_mu: Var<'t>,
        prior_sigma: Var<'t>,
    ) -> Result<Var<'t>> {
        self.same_tape(&sigma)?;
        self.same_tape(&prior_mu)?;
        self.same_tape(&prior_sigma)?;
        let mu_t = self.value();
        let sigma_t = sigma.value();
        let pm_t = prior_mu.value();
        let ps_t = prior_sigma.value();
        if mu_t.shape().len() != 2 {
            return Err(AutogradError::Invalid(format!(
                "kl_gauss: mu must be [n, d], got {:?}",
                mu_t.shape()
            )));
        }
        let (n, d) = (mu_t.shape()[0], mu_t.shape()[1]);
        if sigma_t.shape() != mu_t.shape() {
            return Err(AutogradError::Invalid(format!(
                "kl_gauss: sigma shape {:?} != mu shape {:?}",
                sigma_t.shape(),
                mu_t.shape()
            )));
        }
        if pm_t.shape() != [d] || ps_t.shape() != [d] {
            return Err(AutogradError::Invalid(format!(
                "kl_gauss: prior shapes {:?}/{:?} must be [{d}]",
                pm_t.shape(),
                ps_t.shape()
            )));
        }

        let nf = n as f32;
        let mut total = 0.0f32;
        for i in 0..n {
            for j in 0..d {
                let (q_mu, q_sd) = (mu_t.data()[i * d + j], sigma_t.data()[i * d + j]);
                let (p_mu, p_sd) = (pm_t.data()[j], ps_t.data()[j]);
                total += (p_sd / q_sd).ln()
                    + (q_sd * q_sd + (q_mu - p_mu) * (q_mu - p_mu)) / (2.0 * p_sd * p_sd)
                    - 0.5;
            }
        }
        let out = Tensor::scalar(total / nf);

        let (sigma_id, pm_id, ps_id) = (sigma.id, prior_mu.id, prior_sigma.id);
        let need = [self, sigma, prior_mu, prior_sigma].map(|v| v.requires_grad());
        let backward: BackwardFn = Box::new(move |grad| {
            let g = grad.data()[0];
            // One buffer per parent that requires a gradient.
            let buf = |need: bool, len: usize| need.then(|| vec![0.0f32; len]);
            let (mut dmu, mut dsigma) = (buf(need[0], n * d), buf(need[1], n * d));
            let (mut dpm, mut dps) = (buf(need[2], d), buf(need[3], d));
            for i in 0..n {
                for j in 0..d {
                    let (q_mu, q_sd) = (mu_t.data()[i * d + j], sigma_t.data()[i * d + j]);
                    let (p_mu, p_sd) = (pm_t.data()[j], ps_t.data()[j]);
                    let inv_ps2 = 1.0 / (p_sd * p_sd);
                    if let Some(dmu) = &mut dmu {
                        dmu[i * d + j] = g * (q_mu - p_mu) * inv_ps2 / nf;
                    }
                    if let Some(dsigma) = &mut dsigma {
                        dsigma[i * d + j] = g * (q_sd * inv_ps2 - 1.0 / q_sd) / nf;
                    }
                    if let Some(dpm) = &mut dpm {
                        dpm[j] += g * (p_mu - q_mu) * inv_ps2 / nf;
                    }
                    if let Some(dps) = &mut dps {
                        dps[j] += g
                            * (1.0 / p_sd
                                - (q_sd * q_sd + (q_mu - p_mu) * (q_mu - p_mu)) * inv_ps2 / p_sd)
                            / nf;
                    }
                }
            }
            let tensor = |data: Option<Vec<f32>>, shape: &[usize]| {
                data.map(|data| Tensor::from_vec(data, shape).expect("same shape"))
            };
            needed([
                (self.id, tensor(dmu, &[n, d])),
                (sigma_id, tensor(dsigma, &[n, d])),
                (pm_id, tensor(dpm, &[d])),
                (ps_id, tensor(dps, &[d])),
            ])
        });
        let requires = need.contains(&true);
        Ok(self.tape.push(out, requires, requires.then_some(backward)))
    }
}

#[cfg(test)]
mod tests {
    use crate::Tape;
    use ibrar_tensor::Tensor;

    #[test]
    fn rsample_forward_is_affine() {
        let tape = Tape::new();
        let mu = tape.var(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap());
        let sigma = tape.var(Tensor::from_vec(vec![0.5, 3.0], &[1, 2]).unwrap());
        let noise = Tensor::from_vec(vec![2.0, -1.0], &[1, 2]).unwrap();
        let z = mu.rsample(sigma, &noise).unwrap();
        assert_eq!(z.value().data(), &[2.0, -1.0]);
    }

    #[test]
    fn rsample_gradients_split_between_mu_and_sigma() {
        let tape = Tape::new();
        let mu = tape.var(Tensor::from_vec(vec![0.0, 0.0], &[1, 2]).unwrap());
        let sigma = tape.var(Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap());
        let noise = Tensor::from_vec(vec![2.0, -3.0], &[1, 2]).unwrap();
        let loss = mu.rsample(sigma, &noise).unwrap().sum().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(mu).unwrap().data(), &[1.0, 1.0]);
        assert_eq!(grads.get(sigma).unwrap().data(), &[2.0, -3.0]);
    }

    #[test]
    fn rsample_rejects_shape_mismatch() {
        let tape = Tape::new();
        let mu = tape.var(Tensor::zeros(&[1, 2]));
        let sigma = tape.var(Tensor::zeros(&[1, 3]));
        assert!(mu.rsample(sigma, &Tensor::zeros(&[1, 2])).is_err());
        let sigma2 = tape.var(Tensor::zeros(&[1, 2]));
        assert!(mu.rsample(sigma2, &Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn kl_gauss_zero_at_matching_prior() {
        let tape = Tape::new();
        let mu = tape.var(Tensor::from_vec(vec![0.3, -0.7, 0.3, -0.7], &[2, 2]).unwrap());
        let sigma = tape.var(Tensor::from_vec(vec![1.5, 0.5, 1.5, 0.5], &[2, 2]).unwrap());
        let pm = tape.var(Tensor::from_vec(vec![0.3, -0.7], &[2]).unwrap());
        let ps = tape.var(Tensor::from_vec(vec![1.5, 0.5], &[2]).unwrap());
        let kl = mu.kl_gauss(sigma, pm, ps).unwrap();
        assert!(kl.value().data()[0].abs() < 1e-6);
    }

    #[test]
    fn kl_gauss_gradients_reach_all_four_parents() {
        let tape = Tape::new();
        let mu = tape.var(Tensor::from_vec(vec![0.4, -0.2], &[1, 2]).unwrap());
        let sigma = tape.var(Tensor::from_vec(vec![0.9, 1.3], &[1, 2]).unwrap());
        let pm = tape.var(Tensor::from_vec(vec![0.1, 0.0], &[2]).unwrap());
        let ps = tape.var(Tensor::from_vec(vec![1.1, 0.8], &[2]).unwrap());
        let kl = mu.kl_gauss(sigma, pm, ps).unwrap();
        let grads = tape.backward(kl).unwrap();
        for v in [mu, sigma, pm, ps] {
            let g = grads.get(v).expect("gradient present");
            assert!(g.data().iter().any(|x| x.abs() > 0.0), "all-zero gradient");
        }
        // The prior-mean gradient is the negated column sum of the
        // posterior-mean gradient.
        let dmu = grads.get(mu).unwrap();
        let dpm = grads.get(pm).unwrap();
        for j in 0..2 {
            assert!((dmu.data()[j] + dpm.data()[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn kl_gauss_rejects_bad_shapes() {
        let tape = Tape::new();
        let mu = tape.var(Tensor::zeros(&[4]));
        let sigma = tape.var(Tensor::zeros(&[4]));
        let pm = tape.var(Tensor::zeros(&[4]));
        let ps = tape.var(Tensor::zeros(&[4]));
        assert!(mu.kl_gauss(sigma, pm, ps).is_err());
    }
}
