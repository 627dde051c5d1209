//! Diagnostic: sweep the IB regularizer weights (α, β) for clean-data
//! training on `synth_cifar10` and report natural / PGD accuracy, to locate
//! the robustness regime on the synthetic substrate (complements the
//! paper-style β sweep of `fig6`, which runs under adversarial training).
//!
//! ```sh
//! cargo run --release -p ibrar-bench --bin sweep_ib
//! ```

use ibrar::{IbLossConfig, LayerPolicy, MaskConfig, TrainMethod, Trainer, TrainerConfig};
use ibrar_analysis::TextTable;
use ibrar_attacks::{clean_accuracy, robust_accuracy, Pgd};
use ibrar_bench::{Arch, ExpResult, Scale};
use ibrar_data::{SynthVision, SynthVisionConfig};

fn main() -> ExpResult<()> {
    let scale = Scale::from_args("sweep_ib");
    ibrar_bench::run_binary("sweep_ib", &scale, run)
}

fn run(scale: &Scale) -> ExpResult<String> {
    let config = SynthVisionConfig::cifar10_like().with_sizes(scale.train, scale.test);
    let data = SynthVision::generate(&config, 7)?;
    let grid: Vec<(f32, f32)> = vec![
        (0.0, 0.0),
        (0.1, 0.01),
        (0.5, 0.05),
        (1.0, 0.1),
        (2.0, 0.2),
        (5.0, 0.5),
        (10.0, 1.0),
        (20.0, 2.0),
    ];
    let mut table = TextTable::new(vec!["alpha", "beta", "mask", "Natural %", "PGD^10 %"]);
    for (alpha, beta) in grid {
        for mask in [false, true] {
            let model = Arch::Vgg.build(10, 0)?;
            let mut cfg = TrainerConfig::new(TrainMethod::Standard)
                .with_epochs(scale.epochs)
                .with_batch_size(scale.batch);
            if alpha > 0.0 || beta > 0.0 {
                cfg = cfg.with_ib(IbLossConfig::new(alpha, beta).with_policy(LayerPolicy::Robust));
            }
            if mask {
                cfg = cfg.with_mask(MaskConfig::default());
            }
            Trainer::new(cfg).train(model.as_ref(), &data.train, &data.test)?;
            let natural = clean_accuracy(model.as_ref(), &data.test, 64)? * 100.0;
            let eval = data.test.take(scale.eval)?;
            let adv = robust_accuracy(model.as_ref(), &Pgd::paper_default(), &eval, 32)? * 100.0;
            table.row(vec![
                format!("{alpha}"),
                format!("{beta}"),
                mask.to_string(),
                format!("{natural:.2}"),
                format!("{adv:.2}"),
            ]);
        }
    }
    Ok(table.to_string())
}
