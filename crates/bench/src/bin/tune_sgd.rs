//! Diagnostic: grid over SGD hyperparameters (weight decay × learning rate
//! × epochs) for CE training on `synth_cifar10`, to pick a stable training
//! recipe for the reproduction's scale. The paper's recipe (lr 0.01, wd
//! 1e-2, 60 epochs) is tuned for full CIFAR training and is unstable at
//! minutes-scale budgets.
//!
//! ```sh
//! cargo run --release -p ibrar-bench --bin tune_sgd
//! ```

use ibrar::{TrainMethod, Trainer, TrainerConfig};
use ibrar_analysis::TextTable;
use ibrar_attacks::{clean_accuracy, robust_accuracy, Pgd};
use ibrar_bench::{Arch, ExpResult, Scale};
use ibrar_data::{SynthVision, SynthVisionConfig};
use ibrar_nn::{SgdConfig, StepLr};

fn main() -> ExpResult<()> {
    let scale = Scale::from_args("tune_sgd");
    ibrar_bench::run_binary("tune_sgd", &scale, run)
}

fn run(scale: &Scale) -> ExpResult<String> {
    let config = SynthVisionConfig::cifar10_like().with_sizes(scale.train, scale.test);
    let data = SynthVision::generate(&config, 7)?;
    let mut table = TextTable::new(vec!["wd", "lr", "epochs", "Natural %", "PGD %"]);
    for wd in [1e-2f32, 1e-3, 5e-4] {
        for lr in [0.01f32, 0.03] {
            for epochs in [6usize, 10] {
                let model = Arch::Vgg.build(10, 0)?;
                let mut cfg = TrainerConfig::new(TrainMethod::Standard)
                    .with_epochs(epochs)
                    .with_batch_size(scale.batch);
                cfg.sgd = SgdConfig {
                    lr,
                    momentum: 0.9,
                    weight_decay: wd,
                };
                cfg.schedule = StepLr::new(lr, 20, 0.2);
                Trainer::new(cfg).train(model.as_ref(), &data.train, &data.test)?;
                let natural = clean_accuracy(model.as_ref(), &data.test, 64)? * 100.0;
                let eval = data.test.take(scale.eval)?;
                let adv =
                    robust_accuracy(model.as_ref(), &Pgd::paper_default(), &eval, 32)? * 100.0;
                table.row(vec![
                    format!("{wd}"),
                    format!("{lr}"),
                    format!("{epochs}"),
                    format!("{natural:.2}"),
                    format!("{adv:.2}"),
                ]);
            }
        }
    }
    Ok(table.to_string())
}
