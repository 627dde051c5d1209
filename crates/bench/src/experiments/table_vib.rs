//! **VIB comparison matrix**: the three-way {CE, HSIC-IB, VIB} robustness
//! comparison under the full five-attack suite — the study "A Closer Look
//! at the Adversarial Robustness of Information Bottleneck Models"
//! (PAPERS.md) runs, at this repo's scale.
//!
//! All three heads share the same `VggMini` backbone, training method
//! (Standard — the IB families are the defense under test, not AT), data,
//! and evaluation budget; only the bottleneck mechanism differs:
//!
//! * **CE** — plain cross-entropy, no bottleneck;
//! * **HSIC-IB** — the paper's own HSIC regularizer on the robust layers;
//! * **VIB** — the deterministic variational head (`VibHead`), whose
//!   frozen per-batch noise makes this whole table bitwise reproducible
//!   at any `IBRAR_THREADS` (the seed policy is documented in
//!   EXPERIMENTS.md).

use crate::{attack_row, eval_model, Arch, ExpResult, Scale};
use ibrar::{LayerPolicy, TrainMethod, Trainer, TrainerConfig};
use ibrar_analysis::TextTable;
use ibrar_data::{SynthVision, SynthVisionConfig};
use ibrar_nn::{ImageModel, VggConfig, VggMini, VibHead, VibHeadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the experiment and renders the comparison table.
///
/// # Errors
///
/// Propagates training/evaluation errors.
pub fn run(scale: &Scale) -> ExpResult<String> {
    let config = SynthVisionConfig::cifar10_like().with_sizes(scale.train, scale.test);
    let data = SynthVision::generate(&config, 77)?;
    let k = config.num_classes;

    let trainer = |ib: bool| {
        let mut cfg = TrainerConfig::new(TrainMethod::Standard)
            .with_epochs(scale.epochs)
            .with_batch_size(scale.batch)
            .with_seed(0);
        if ib {
            cfg = cfg.with_ib(Arch::Vgg.paper_ib().with_policy(LayerPolicy::Robust));
        }
        cfg
    };

    let mut models: Vec<(&str, Box<dyn ImageModel>)> = Vec::new();
    {
        let model = Arch::Vgg.build(k, 20)?;
        Trainer::new(trainer(false)).train(model.as_ref(), &data.train, &data.test)?;
        models.push(("CE", model));
    }
    {
        let model = Arch::Vgg.build(k, 21)?;
        Trainer::new(trainer(true)).train(model.as_ref(), &data.train, &data.test)?;
        models.push(("HSIC-IB", model));
    }
    {
        let mut rng = StdRng::seed_from_u64(22);
        let inner = VggMini::new(VggConfig::tiny(k), &mut rng)?;
        let vib = VibHead::new(inner, VibHeadConfig::paper_default(), &mut rng)?;
        Trainer::new(trainer(false)).train(&vib, &data.train, &data.test)?;
        models.push(("VIB", Box::new(vib)));
    }

    let mut table = TextTable::new(
        ["Head", "Natural", "PGD", "CW", "FGSM", "FAB", "NIFGSM"]
            .iter()
            .map(ToString::to_string)
            .collect(),
    );
    for (name, model) in &models {
        let result = eval_model(model.as_ref(), &data.test, scale)?;
        table.row(attack_row(name, &result));
    }

    let mut out = String::from(
        "VIB matrix: {CE, HSIC-IB, VIB} x {clean + 5 attacks} (VGG16/synth_cifar10, Standard training)\n\n",
    );
    out.push_str(&table.render());
    out.push_str("\nAll heads share one backbone/seed budget; VIB eval runs the deterministic mu-only path.\n");
    Ok(out)
}
