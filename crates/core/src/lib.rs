//! **IB-RAR** — Information Bottleneck as Regularizer for Adversarial
//! Robustness (Xu, Perin, Picek; DSN Workshops 2023).
//!
//! This crate is the paper's contribution, built on the workspace
//! substrates:
//!
//! * [`IbLoss`] — the mutual-information regularizer of Eq. 1,
//!   `L = L_CE + α Σ_l I(X, T_l) − β Σ_l I(Y, T_l)`, with HSIC standing in
//!   for `I(·,·)` and a [`LayerPolicy`] choosing which hidden layers
//!   participate (all layers, the robust layers, or a single layer).
//! * [`Trainer`] — Algorithm 1, for plain training and the three
//!   adversarial-training benchmarks ([`TrainMethod::PgdAt`],
//!   [`TrainMethod::Trades`], [`TrainMethod::Mart`]), each combinable with
//!   the IB regularizer (Eq. 2).
//! * [`compute_channel_mask`] — the unnecessary-feature mask of Eq. 3:
//!   channels of the last conv block whose MI with the labels falls in the
//!   bottom fraction (default 5%) are zeroed.
//! * [`discover_robust_layers`] — the §2.2 procedure: train one network per
//!   hidden layer with single-layer IB loss and compare PGD accuracy against
//!   the CE baseline.
//! * [`AdaptiveIbObjective`] — the Appendix A.2 adaptive white-box attack
//!   objective (PGD on the full IB-RAR loss).
//!
//! The second IB family needs nothing from this crate: a deterministic
//! variational-IB head ([`ibrar_nn::VibHead`], configured by
//! [`ibrar_nn::VibHeadConfig`]) with frozen per-batch reparameterization
//! noise and a learned Gaussian prior composes with every [`TrainMethod`]
//! through `aux_loss`. It is the VIB baseline (Alemi et al. 2017) of
//! Fig. 2; HBaR (Wang et al. 2021) is expressed as `IbLoss` over all layers
//! with its own hyperparameters via [`IbLossConfig::hbar`].
//!
//! # Examples
//!
//! Train a small model with the IB-RAR loss, then evaluate under PGD (sized
//! down so the example runs as a doctest):
//!
//! ```
//! use ibrar::{IbLossConfig, LayerPolicy, Trainer, TrainerConfig, TrainMethod};
//! use ibrar_data::{SynthVision, SynthVisionConfig};
//! use ibrar_nn::{VggMini, VggConfig};
//! use ibrar_attacks::{robust_accuracy, Pgd};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = VggMini::new(VggConfig::tiny(10), &mut rng)?;
//! let data = SynthVision::generate(&SynthVisionConfig::cifar10_like().with_sizes(64, 32), 0)?;
//! let config = TrainerConfig::new(TrainMethod::Standard)
//!     .with_epochs(2)
//!     .with_batch_size(16)
//!     .with_ib(IbLossConfig::substrate_vgg().with_policy(LayerPolicy::Robust));
//! let report = Trainer::new(config).train(&model, &data.train, &data.test)?;
//! assert_eq!(report.epochs.len(), 2);
//! assert!(report.final_loss().is_finite());
//! assert!((0.0..=1.0).contains(&report.final_natural_acc()));
//! let adv_acc = robust_accuracy(&model, &Pgd::paper_default(), &data.test.take(16)?, 16)?;
//! assert!((0.0..=1.0).contains(&adv_acc));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod adaptive;
mod error;
mod layer_select;
mod loss;
mod mask;
mod trainer;

pub use adaptive::AdaptiveIbObjective;
pub use error::IbrarError;
pub use layer_select::{discover_robust_layers, robust_indices, LayerReport, RobustLayerConfig};
pub use loss::{IbLayerTerm, IbLoss, IbLossConfig, LayerPolicy};
pub use mask::{compute_channel_mask, mask_from_scores, MaskConfig};
pub use trainer::{EpochMetrics, TrainMethod, TrainReport, Trainer, TrainerConfig};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, IbrarError>;
