//! **Figure 2**: IB-based baselines without adversarial training, evaluated
//! under increasing attack strength. Five methods — CE, VIB, HBaR,
//! IB-RAR(all), IB-RAR(rob) — trained on clean `synth_cifar10`, then swept
//! over PGD / CW / NIFGSM optimization steps, plus the clean-accuracy
//! comparison of panel (d).

use crate::{Arch, ExpResult, Scale};
use ibrar::{IbLossConfig, LayerPolicy, MaskConfig, TrainMethod, Trainer, TrainerConfig};
use ibrar_analysis::{render_series, Series};
use ibrar_attacks::{robust_accuracy, Attack, CwL2, NiFgsm, Pgd, DEFAULT_ALPHA, DEFAULT_EPS};
use ibrar_data::{SynthVision, SynthVisionConfig};
use ibrar_nn::{ImageModel, VggConfig, VggMini, VibHead, VibHeadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the experiment and renders the three sweeps plus clean accuracies.
///
/// # Errors
///
/// Propagates training/evaluation errors.
pub fn run(scale: &Scale) -> ExpResult<String> {
    let config = SynthVisionConfig::cifar10_like().with_sizes(scale.train, scale.test);
    let data = SynthVision::generate(&config, 77)?;
    let k = config.num_classes;

    // Build and train the five methods.
    let mut models: Vec<(String, Box<dyn ImageModel>)> = Vec::new();
    let trainer_base = |ib: Option<IbLossConfig>, mask: bool| {
        let mut cfg = TrainerConfig::new(TrainMethod::Standard)
            .with_epochs(scale.epochs)
            .with_batch_size(scale.batch);
        if let Some(ib) = ib {
            cfg = cfg.with_ib(ib);
        }
        if mask {
            cfg = cfg.with_mask(MaskConfig::default());
        }
        cfg
    };

    // CE only.
    {
        let model = Arch::Vgg.build(k, 10)?;
        Trainer::new(trainer_base(None, false)).train(model.as_ref(), &data.train, &data.test)?;
        models.push(("CE only".into(), model));
    }
    // VIB.
    {
        let mut rng = StdRng::seed_from_u64(11);
        let inner = VggMini::new(VggConfig::tiny(k), &mut rng)?;
        let fc_width = inner.config().fc_width;
        let cfg = VibHeadConfig::paper_default().with_bottleneck(fc_width / 2);
        let vib = VibHead::new(inner, cfg, &mut rng)?;
        Trainer::new(trainer_base(None, false)).train(&vib, &data.train, &data.test)?;
        models.push(("VIB".into(), Box::new(vib)));
    }
    // HBaR (HSIC bottleneck on all layers).
    {
        let model = Arch::Vgg.build(k, 12)?;
        Trainer::new(trainer_base(Some(IbLossConfig::hbar()), false)).train(
            model.as_ref(),
            &data.train,
            &data.test,
        )?;
        models.push(("HBaR".into(), model));
    }
    // IB-RAR(all).
    {
        let model = Arch::Vgg.build(k, 13)?;
        Trainer::new(trainer_base(
            Some(IbLossConfig::substrate_vgg().with_policy(LayerPolicy::All)),
            true,
        ))
        .train(model.as_ref(), &data.train, &data.test)?;
        models.push(("IB-RAR(all)".into(), model));
    }
    // IB-RAR(rob).
    {
        let model = Arch::Vgg.build(k, 14)?;
        Trainer::new(trainer_base(
            Some(IbLossConfig::substrate_vgg().with_policy(LayerPolicy::Robust)),
            true,
        ))
        .train(model.as_ref(), &data.train, &data.test)?;
        models.push(("IB-RAR(rob)".into(), model));
    }

    let eval_set = data.test.take(scale.eval)?;
    let steps = [1usize, 2, 5, 10, 20];
    let steps: Vec<usize> = if scale.epochs <= 2 {
        vec![1, 5, 10]
    } else {
        steps.to_vec()
    };
    let sweep = |attack_for: &dyn Fn(usize) -> Box<dyn Attack>| -> ExpResult<Vec<Series>> {
        let mut all = Vec::new();
        for (name, model) in &models {
            let mut points = Vec::new();
            for &s in &steps {
                let attack = attack_for(s);
                let acc = robust_accuracy(model.as_ref(), attack.as_ref(), &eval_set, 32)? * 100.0;
                points.push((s as f32, acc));
            }
            all.push(Series::new(name.clone(), points));
        }
        Ok(all)
    };

    let mut out = String::from("Figure 2: IB baselines under increasing attack strength\n\n");
    out.push_str("(a) PGD steps sweep (accuracy %)\n");
    out.push_str(&render_series(
        "steps",
        &sweep(&|s| Box::new(Pgd::new(DEFAULT_EPS, DEFAULT_ALPHA, s)) as Box<dyn Attack>)?,
    ));
    out.push_str("\n(b) CW steps sweep (accuracy %)\n");
    out.push_str(&render_series(
        "steps",
        &sweep(&|s| Box::new(CwL2::new(1.0, 0.0, s * 2, 0.01)) as Box<dyn Attack>)?,
    ));
    out.push_str("\n(c) NIFGSM steps sweep (accuracy %)\n");
    out.push_str(&render_series(
        "steps",
        &sweep(&|s| Box::new(NiFgsm::new(DEFAULT_EPS, DEFAULT_ALPHA, s)) as Box<dyn Attack>)?,
    ));

    out.push_str("\n(d) clean accuracy at the last epoch (%)\n");
    for (name, model) in &models {
        let acc = ibrar_attacks::clean_accuracy(model.as_ref(), &data.test, 64)? * 100.0;
        out.push_str(&format!("  {name:<12} {acc:.2}\n"));
    }
    Ok(out)
}
