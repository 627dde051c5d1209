//! Diagnostic: measures the CE-baseline clean and PGD accuracy on every
//! SynthVision preset, optionally sweeping the dataset contrast. Used to
//! keep the synthetic tasks in the paper's difficulty regime (high natural
//! accuracy, near-zero CE robustness).
//!
//! ```sh
//! cargo run --release -p ibrar-bench --bin calibrate -- --contrast-sweep
//! ```

use ibrar::{TrainMethod, Trainer, TrainerConfig};
use ibrar_analysis::TextTable;
use ibrar_attacks::{clean_accuracy, robust_accuracy, Pgd};
use ibrar_bench::{Arch, ExpResult, Scale};
use ibrar_data::{SynthVision, SynthVisionConfig};

fn measure(config: &SynthVisionConfig, arch: Arch, scale: &Scale) -> ExpResult<(f32, f32)> {
    let data = SynthVision::generate(config, 7)?;
    let model = arch.build(config.num_classes, 0)?;
    let cfg = TrainerConfig::new(TrainMethod::Standard)
        .with_epochs(scale.epochs)
        .with_batch_size(scale.batch);
    Trainer::new(cfg).train(model.as_ref(), &data.train, &data.test)?;
    let natural = clean_accuracy(model.as_ref(), &data.test, 64)? * 100.0;
    let eval = data.test.take(scale.eval)?;
    let adv = robust_accuracy(model.as_ref(), &Pgd::paper_default(), &eval, 32)? * 100.0;
    Ok((natural, adv))
}

fn main() -> ExpResult<()> {
    let scale = Scale::from_args("calibrate [--contrast-sweep]");
    let sweep = std::env::args().any(|a| a == "--contrast-sweep");
    ibrar_bench::run_binary("calibrate", &scale, |scale| {
        let mut table = TextTable::new(vec!["Dataset", "Contrast", "Natural %", "PGD^10 %"]);
        if sweep {
            for contrast in [1.0f32, 0.6, 0.45, 0.35, 0.25, 0.18] {
                let config = SynthVisionConfig::cifar10_like()
                    .with_sizes(scale.train, scale.test)
                    .with_contrast(contrast);
                let (nat, adv) = measure(&config, Arch::Vgg, scale)?;
                table.row(vec![
                    config.name.clone(),
                    format!("{contrast}"),
                    format!("{nat:.2}"),
                    format!("{adv:.2}"),
                ]);
            }
        } else {
            let presets = [
                (SynthVisionConfig::cifar10_like(), Arch::Vgg),
                (SynthVisionConfig::cifar100_like(), Arch::Wrn),
                (SynthVisionConfig::svhn_like(), Arch::Vgg),
                (SynthVisionConfig::tiny_imagenet_like(), Arch::Vgg32),
            ];
            for (config, arch) in presets {
                let config = config.with_sizes(scale.train, scale.test);
                let (nat, adv) = measure(&config, arch, scale)?;
                table.row(vec![
                    config.name.clone(),
                    format!("{}", config.contrast),
                    format!("{nat:.2}"),
                    format!("{adv:.2}"),
                ]);
            }
        }
        Ok(table.to_string())
    })
}
