//! Deterministic variational-IB head: a reparameterized Gaussian
//! bottleneck over any backbone's penultimate features.
//!
//! [`VibHead`] wraps an [`ImageModel`] and replaces its classifier with the
//! Deep-VIB stack: linear `μ` / `softplus σ` encoders over the backbone's
//! last hidden tap, a K-sample Monte-Carlo reparameterized train path, a
//! `μ`-only deterministic eval path, and an analytic diagonal-Gaussian KL
//! penalty against a *learned* prior, delivered to trainers through
//! [`ModelOutput::aux_loss`] — so it composes with every
//! `TrainMethod` unchanged.
//!
//! # The noise-freezing contract (DESIGN.md §16)
//!
//! Training noise is never drawn from an ambient RNG. Each forward in
//! [`Mode::Train`] seeds a fresh SplitMix64 `StdRng` with
//! `noise_seed ⊕ FNV-1a(batch shape ‖ batch bits)` and draws its `K`
//! Gaussian noise tensors from that stream in order, by Box–Muller with two
//! uniform draws per value. The noise is therefore a pure function of
//! `(seed, batch)`: bitwise identical at every `IBRAR_THREADS`, across
//! cold/warm worker pools, and replayable for golden snapshots. [`Mode::Eval`] uses `z = μ`
//! and touches no randomness at all, which keeps serving and
//! gradient-based robustness probes deterministic.

use crate::model::LayerKind;
use crate::{ImageModel, Linear, Mode, ModelOutput, NnError, Parameter, Result, Session};
use ibrar_autograd::{Tape, Var};
use ibrar_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Additive floor keeping every standard deviation strictly positive even
/// where `softplus` underflows.
const SIGMA_FLOOR: f32 = 1e-3;

/// `softplus⁻¹(1)`: initializes the learned prior at `s ≈ 1`, i.e. the
/// standard-normal prior of Alemi et al., which training may then move.
const PRIOR_RHO_INIT: f32 = 0.541_324_9;

/// Hyperparameters for [`VibHead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VibHeadConfig {
    /// Bottleneck width `d` of the latent `z`.
    pub bottleneck: usize,
    /// Monte-Carlo sample count `K` on the train path (eval always uses
    /// the single deterministic `μ`).
    pub samples: usize,
    /// Weight `β` on the KL term reported through `aux_loss`.
    pub beta: f32,
    /// Base seed for the frozen per-batch noise stream.
    pub noise_seed: u64,
}

impl VibHeadConfig {
    /// Deep-VIB defaults at this repo's scale: 32-wide bottleneck, one MC
    /// sample, `β = 0.01`.
    pub fn paper_default() -> Self {
        VibHeadConfig {
            bottleneck: 32,
            samples: 1,
            beta: 1e-2,
            noise_seed: 0x51B_5EED,
        }
    }

    /// Sets the bottleneck width.
    #[must_use]
    pub fn with_bottleneck(mut self, bottleneck: usize) -> Self {
        self.bottleneck = bottleneck;
        self
    }

    /// Sets the Monte-Carlo sample count.
    #[must_use]
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Sets the KL weight β.
    #[must_use]
    pub fn with_beta(mut self, beta: f32) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the base noise seed.
    #[must_use]
    pub fn with_noise_seed(mut self, noise_seed: u64) -> Self {
        self.noise_seed = noise_seed;
        self
    }
}

impl Default for VibHeadConfig {
    fn default() -> Self {
        VibHeadConfig::paper_default()
    }
}

/// Variational-IB head over a backbone [`ImageModel`].
///
/// Parameters are the backbone's followed by the head's
/// (`vib.mu.*`, `vib.sigma.*`, `vib.prior_mu`, `vib.prior_rho`,
/// `vib.classifier.*`), all surfaced through [`ImageModel::params`] in a
/// stable order — so `save_params`, `architecture_fingerprint`, IBSC
/// checkpoints, and the serve registry handle a VIB model like any other.
pub struct VibHead<M> {
    inner: M,
    mu_head: Linear,
    sigma_head: Linear,
    prior_mu: Parameter,
    prior_rho: Parameter,
    classifier: Linear,
    config: VibHeadConfig,
    name: String,
}

/// FNV-1a over the batch's shape and value bits, mixed with `base`: the
/// per-batch noise-stream seed of the freezing contract.
fn noise_stream_seed(base: u64, x: &Tensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &d in x.shape() {
        h = (h ^ d as u64).wrapping_mul(0x100_0000_01b3);
    }
    for &v in x.data() {
        h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x100_0000_01b3);
    }
    h ^ base
}

/// A standard-normal tensor by Box–Muller. Each value takes exactly two
/// uniform draws and no spare is cached, so `k` values always advance the
/// stream by `2k` words: the noise of sample `j` does not depend on how the
/// earlier samples were consumed.
fn normal_noise(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let data = (0..shape.iter().product())
        .map(|_| {
            // u1 ∈ (0, 1] keeps the log argument strictly positive.
            let u1 = 1.0 - rng.gen::<f32>();
            let u2 = rng.gen::<f32>();
            (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
        })
        .collect();
    Tensor::from_vec(data, shape).expect("length matches shape by construction")
}

impl<M: ImageModel> VibHead<M> {
    /// Wraps `inner`, inferring the feature width from its last hidden tap
    /// via a zero-input probe forward (in [`Mode::Eval`], so the probe has
    /// no side effects).
    ///
    /// # Errors
    ///
    /// Returns a configuration error for a zero bottleneck or sample
    /// count, or when the backbone's last hidden tap is not a 2-D
    /// fully-connected output.
    pub fn new(inner: M, config: VibHeadConfig, rng: &mut impl Rng) -> Result<Self> {
        if config.bottleneck == 0 {
            return Err(NnError::Config("bottleneck width must be positive".into()));
        }
        if config.samples == 0 {
            return Err(NnError::Config("MC sample count must be positive".into()));
        }
        let feature_dim = Self::probe_feature_dim(&inner)?;
        let k = config.bottleneck;
        let name = format!("{}-vib", inner.name());
        Ok(VibHead {
            mu_head: Linear::new("vib.mu", feature_dim, k, rng),
            sigma_head: Linear::new("vib.sigma", feature_dim, k, rng),
            prior_mu: Parameter::new("vib.prior_mu", Tensor::zeros(&[k])),
            prior_rho: Parameter::new("vib.prior_rho", Tensor::full(&[k], PRIOR_RHO_INIT)),
            classifier: Linear::new("vib.classifier", k, inner.num_classes(), rng),
            inner,
            config,
            name,
        })
    }

    fn probe_feature_dim(inner: &M) -> Result<usize> {
        let [c, h, w] = inner.input_shape();
        let tape = Tape::new();
        let sess = Session::new(&tape);
        let x = tape.leaf(Tensor::zeros(&[1, c, h, w]));
        let out = inner.forward(&sess, x, Mode::Eval)?;
        let tap = out
            .hidden
            .last()
            .ok_or_else(|| NnError::Config("backbone exposes no hidden taps".into()))?;
        let shape = tap.var.shape();
        if tap.kind != LayerKind::Fc || shape.len() != 2 {
            return Err(NnError::Config(format!(
                "backbone's last tap must be a 2-D FC output, got {shape:?}"
            )));
        }
        Ok(shape[1])
    }

    /// The wrapped backbone.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The head's hyperparameters.
    pub fn config(&self) -> &VibHeadConfig {
        &self.config
    }

    /// `σ = softplus(raw) + floor`, shared by the posterior and prior
    /// paths.
    fn positive<'t>(raw: Var<'t>) -> Var<'t> {
        raw.softplus().add_scalar(SIGMA_FLOOR)
    }
}

impl<M: ImageModel> ImageModel for VibHead<M> {
    fn forward<'t>(&self, sess: &Session<'t>, x: Var<'t>, mode: Mode) -> Result<ModelOutput<'t>> {
        let inner_out = self.inner.forward(sess, x, mode)?;
        let h = inner_out
            .hidden
            .last()
            .ok_or_else(|| NnError::Config("backbone exposes no hidden taps".into()))?
            .var;
        let mu = self.mu_head.forward(sess, h)?;

        let (logits, aux_loss) = match mode {
            // Deterministic eval: z = μ, no sampling, no KL. Input
            // gradients still flow (probe path).
            Mode::Eval => (self.classifier.forward(sess, mu)?, None),
            Mode::Train => {
                let sigma = Self::positive(self.sigma_head.forward(sess, h)?);
                let n = mu.shape()[0];
                let k = self.config.bottleneck;
                let seed = noise_stream_seed(self.config.noise_seed, &x.value());
                let mut rng = StdRng::seed_from_u64(seed);
                let mut sum: Option<Var<'t>> = None;
                for _ in 0..self.config.samples {
                    let noise = normal_noise(&mut rng, &[n, k]);
                    let z = mu.rsample(sigma, &noise)?;
                    let logits_k = self.classifier.forward(sess, z)?;
                    sum = Some(match sum {
                        None => logits_k,
                        Some(acc) => acc.add(logits_k)?,
                    });
                }
                let logits = sum
                    .expect("samples > 0 by construction")
                    .scale(1.0 / self.config.samples as f32);
                let prior_mu = sess.bind(&self.prior_mu);
                let prior_sigma = Self::positive(sess.bind(&self.prior_rho));
                let kl = mu.kl_gauss(sigma, prior_mu, prior_sigma)?;
                (logits, Some(kl.scale(self.config.beta)))
            }
        };
        Ok(ModelOutput {
            logits,
            hidden: inner_out.hidden,
            aux_loss,
        })
    }

    fn params(&self) -> Vec<Parameter> {
        let mut out = self.inner.params();
        out.extend(self.mu_head.params());
        out.extend(self.sigma_head.params());
        out.push(self.prior_mu.clone());
        out.push(self.prior_rho.clone());
        out.extend(self.classifier.params());
        out
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn input_shape(&self) -> [usize; 3] {
        self.inner.input_shape()
    }

    fn last_conv_channels(&self) -> usize {
        self.inner.last_conv_channels()
    }

    fn set_channel_mask(&self, mask: Option<Tensor>) -> Result<()> {
        self.inner.set_channel_mask(mask)
    }

    fn channel_mask(&self) -> Option<Tensor> {
        self.inner.channel_mask()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn hidden_names(&self) -> Vec<String> {
        self.inner.hidden_names()
    }

    fn supports_input_gradients(&self) -> bool {
        self.inner.supports_input_gradients()
    }
}

impl<M: ImageModel> std::fmt::Debug for VibHead<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VibHead")
            .field("name", &self.name)
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VggConfig, VggMini};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn head(samples: usize) -> VibHead<VggMini> {
        let mut rng = StdRng::seed_from_u64(0);
        let inner = VggMini::new(VggConfig::tiny(10), &mut rng).unwrap();
        VibHead::new(
            inner,
            VibHeadConfig::paper_default().with_samples(samples),
            &mut rng,
        )
        .unwrap()
    }

    fn batch(fill: f32) -> Tensor {
        Tensor::full(&[2, 3, 16, 16], fill)
    }

    fn logits_bits(m: &VibHead<VggMini>, x: &Tensor, mode: Mode) -> Vec<u32> {
        let tape = Tape::new();
        let sess = Session::new(&tape);
        let out = m.forward(&sess, tape.leaf(x.clone()), mode).unwrap();
        out.logits
            .value()
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn train_forward_reports_kl_aux_loss() {
        let m = head(1);
        let tape = Tape::new();
        let sess = Session::new(&tape);
        let out = m
            .forward(&sess, tape.leaf(batch(0.4)), Mode::Train)
            .unwrap();
        assert_eq!(out.logits.shape(), vec![2, 10]);
        let aux = out.aux_loss.expect("train mode must report β·KL");
        assert!(aux.value().data()[0].is_finite());
    }

    #[test]
    fn eval_forward_has_no_aux_loss() {
        let m = head(1);
        let tape = Tape::new();
        let sess = Session::new(&tape);
        let out = m.forward(&sess, tape.leaf(batch(0.4)), Mode::Eval).unwrap();
        assert!(out.aux_loss.is_none());
    }

    #[test]
    fn frozen_noise_makes_train_forward_replayable() {
        // The same (model, batch) pair must produce the same train-mode
        // logits on every call.
        let m = head(3);
        let x = batch(0.4);
        assert_eq!(
            logits_bits(&m, &x, Mode::Train),
            logits_bits(&m, &x, Mode::Train)
        );
        // ...but a different batch draws different noise.
        assert_ne!(
            logits_bits(&m, &x, Mode::Train),
            logits_bits(&m, &batch(0.5), Mode::Train)
        );
    }

    #[test]
    fn train_and_eval_paths_differ() {
        let m = head(1);
        let x = batch(0.4);
        assert_ne!(
            logits_bits(&m, &x, Mode::Train),
            logits_bits(&m, &x, Mode::Eval)
        );
    }

    #[test]
    fn gradients_reach_head_and_prior() {
        let m = head(2);
        let tape = Tape::new();
        let sess = Session::new(&tape);
        let out = m
            .forward(&sess, tape.leaf(batch(0.4)), Mode::Train)
            .unwrap();
        let loss = out
            .logits
            .cross_entropy(&[0, 1])
            .unwrap()
            .add(out.aux_loss.unwrap())
            .unwrap();
        sess.backward(loss).unwrap();
        for p in m.params() {
            if p.name().starts_with("vib.") {
                assert!(p.grad().is_some(), "{} missing grad", p.name());
            }
        }
    }

    #[test]
    fn params_and_name_flow_through() {
        let m = head(1);
        assert_eq!(m.name(), "VggMini-vib");
        let names: Vec<String> = m.params().iter().map(|p| p.name().to_string()).collect();
        for needle in [
            "vib.mu.weight",
            "vib.sigma.weight",
            "vib.prior_mu",
            "vib.prior_rho",
            "vib.classifier.bias",
        ] {
            assert!(names.iter().any(|n| n == needle), "missing {needle}");
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let inner = VggMini::new(VggConfig::tiny(10), &mut rng).unwrap();
        assert!(VibHead::new(
            inner,
            VibHeadConfig::paper_default().with_bottleneck(0),
            &mut rng
        )
        .is_err());
        let inner = VggMini::new(VggConfig::tiny(10), &mut rng).unwrap();
        assert!(VibHead::new(
            inner,
            VibHeadConfig::paper_default().with_samples(0),
            &mut rng
        )
        .is_err());
    }
}
