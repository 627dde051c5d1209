//! Golden snapshot tests: tiny fixed-seed training runs of every train
//! method and one attack of every family, checked **bitwise** against JSON
//! snapshots under `tests/golden/`.
//!
//! Regeneration: `IBRAR_BLESS=1 cargo test --test golden` rewrites every
//! snapshot from the current build; commit the diff. Without the
//! variable, any bit-level divergence (or a missing file) fails the test
//! and names the first divergent entry.
//!
//! Environment independence: every input is derived from the oracle's
//! `Gen` stream (model parameters are overwritten after construction,
//! batches iterate sequentially, PGD runs without its random start or, in
//! adversarial training, at ε = 0, which skips it), so no `rand` RNG stream
//! ever feeds the recorded numbers, and the worker pool is pinned to one
//! thread so accumulation order is fixed. The same files must therefore
//! verify under any `IBRAR_THREADS` setting and any `rand` implementation.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use ibrar::{IbLossConfig, TrainMethod, TrainReport, Trainer, TrainerConfig};
use ibrar_attacks::{Attack, CwL2, Fab, Fgsm, NiFgsm, Pgd};
use ibrar_autograd::Tape;
use ibrar_data::Dataset;
use ibrar_nn::{ImageModel, Mode, Session, VggConfig, VggMini, VibHead, VibHeadConfig};
use ibrar_oracle::{check_snapshot, hash_bits, Gen, Snapshot};
use ibrar_tensor::{parallel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serializes the golden tests: `with_threads` is thread-local, but the
/// trainer and attacks share model state and telemetry, so overlapping
/// runs would interleave in ways that are pointless to reason about. The
/// lock guards no data, so when a failing golden test poisons it the
/// others take it anyway and each still gives its own verdict.
static GOLDEN_LOCK: Mutex<()> = Mutex::new(());

const NUM_CLASSES: usize = 4;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Model whose parameters all come from the oracle `Gen` stream: the
/// `rand`-based constructor values are overwritten wholesale, and the
/// batch-norm running statistics start at their deterministic 0/1 init.
fn pseudo_model(seed: u64) -> VggMini {
    let mut rng = StdRng::seed_from_u64(0);
    let model = VggMini::new(VggConfig::tiny(NUM_CLASSES), &mut rng).unwrap();
    let mut g = Gen::new(seed);
    for p in model.params() {
        let shape = p.shape();
        let fan = shape.iter().skip(1).product::<usize>().max(1) as f32;
        let bound = (1.0 / fan).sqrt();
        p.set_value(g.tensor(&shape, -bound, bound));
    }
    model
}

/// VIB head over a pseudo backbone, every parameter (μ/σ encoders, learned
/// prior, bottleneck classifier included) overwritten from the `Gen`
/// stream. The head's own noise is frozen per batch (DESIGN.md §16), so
/// training it is as environment-independent as the plain model.
fn pseudo_vib_model(seed: u64) -> VibHead<VggMini> {
    let mut rng = StdRng::seed_from_u64(0);
    let inner = VggMini::new(VggConfig::tiny(NUM_CLASSES), &mut rng).unwrap();
    let config = VibHeadConfig::paper_default().with_bottleneck(8);
    let model = VibHead::new(inner, config, &mut rng).unwrap();
    let mut g = Gen::new(seed);
    for p in model.params() {
        let shape = p.shape();
        let fan = shape.iter().skip(1).product::<usize>().max(1) as f32;
        let bound = (1.0 / fan).sqrt();
        p.set_value(g.tensor(&shape, -bound, bound));
    }
    model
}

fn pseudo_dataset(seed: u64, n: usize) -> Dataset {
    let mut g = Gen::new(seed);
    let images = g.tensor(&[n, 3, 16, 16], 0.0, 1.0);
    let labels = g.labels(n, NUM_CLASSES);
    Dataset::new(images, labels).unwrap()
}

fn all_param_bits(model: &dyn ImageModel) -> u64 {
    let mut h = 0u64;
    for p in model.params() {
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hash_bits(p.value().data());
    }
    h
}

fn logits_on(model: &dyn ImageModel, images: &Tensor) -> Tensor {
    let tape = Tape::new();
    let sess = Session::new(&tape);
    let x = tape.var(images.clone());
    model.forward(&sess, x, Mode::Eval).unwrap().logits.value()
}

/// Records a finished training run under `prefix`: the per-epoch loss and
/// accuracy, a digest of every parameter, and the logits on a probe batch.
fn push_training_run(
    snap: &mut Snapshot,
    prefix: &str,
    report: &TrainReport,
    model: &dyn ImageModel,
    test: &Dataset,
) {
    snap.push_u64(format!("{prefix}epochs"), report.epochs.len() as u64);
    for e in &report.epochs {
        snap.push_f32(format!("{prefix}epoch{}.train_loss", e.epoch), e.train_loss);
        snap.push_f32(
            format!("{prefix}epoch{}.natural_acc", e.epoch),
            e.natural_acc,
        );
    }
    snap.push_u64(format!("{prefix}params.hash"), all_param_bits(model));
    let probe = test.take(4).unwrap();
    snap.push_f32s(
        format!("{prefix}logits.head"),
        logits_on(model, probe.images()).data(),
    );
}

#[test]
fn training_run_matches_golden() {
    let _guard = GOLDEN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _threads = parallel::with_threads(1);

    let model = pseudo_model(0x90_0001);
    let train = pseudo_dataset(0x90_0002, 24);
    let test = pseudo_dataset(0x90_0003, 12);
    let config = TrainerConfig::new(TrainMethod::Standard)
        .with_epochs(2)
        .with_batch_size(8)
        .with_ib(IbLossConfig::paper_vgg())
        .with_sequential_batches();
    let report = Trainer::new(config).train(&model, &train, &test).unwrap();

    let mut snap = Snapshot::new("training-standard-ib");
    snap.push_str("method", "Standard + IB(paper_vgg)");
    push_training_run(&mut snap, "", &report, &model, &test);

    check_snapshot(&golden_dir().join("training.json"), &snap).unwrap_or_else(|e| panic!("{e}"));
}

/// The fixed-seed VIB training run: two epochs through the frozen-noise
/// K-sample train path plus the β·KL auxiliary loss, ending on the μ-only
/// eval path. Bit-level divergence here means the noise-freezing contract
/// or the rsample/kl_gauss kernels changed.
#[test]
fn vib_training_run_matches_golden() {
    let _guard = GOLDEN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _threads = parallel::with_threads(1);

    let model = pseudo_vib_model(0x90_0020);
    let train = pseudo_dataset(0x90_0021, 24);
    let test = pseudo_dataset(0x90_0022, 12);
    let config = TrainerConfig::new(TrainMethod::Standard)
        .with_epochs(2)
        .with_batch_size(8)
        .with_sequential_batches();
    let report = Trainer::new(config).train(&model, &train, &test).unwrap();

    let mut snap = Snapshot::new("training-vib");
    snap.push_str("method", "Standard + VIB(paper_default, bottleneck=8)");
    push_training_run(&mut snap, "", &report, &model, &test);

    check_snapshot(&golden_dir().join("vib_training.json"), &snap)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// PGD-AT, TRADES and MART with the IB regularizer, each on the plain
/// model and on the VIB head (whose `aux_loss` pins where each method takes
/// its aux term from), two epochs apiece.
///
/// ε = 0 skips PGD's random start, the one `rand` stream in adversarial
/// training, so the adversarial batch equals the clean batch bit for bit.
/// The runs still pin every forward, loss op, aux source and IB input of
/// each method's train step, and the order the backward pass sums them in;
/// `pgd.json` pins the PGD loop itself.
#[test]
fn adversarial_training_runs_match_golden() {
    let _guard = GOLDEN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _threads = parallel::with_threads(1);

    let (eps, alpha, steps) = (0.0, 2.0 / 255.0, 2);
    let methods = [
        ("pgd_at", TrainMethod::PgdAt { eps, alpha, steps }),
        (
            "trades",
            TrainMethod::Trades {
                beta: 6.0,
                eps,
                alpha,
                steps,
            },
        ),
        (
            "mart",
            TrainMethod::Mart {
                beta: 5.0,
                eps,
                alpha,
                steps,
            },
        ),
    ];
    let train = pseudo_dataset(0x90_0041, 24);
    let test = pseudo_dataset(0x90_0042, 12);
    let mut snap = Snapshot::new("training-adversarial");
    for (name, method) in methods {
        let models: [(&str, Box<dyn ImageModel>); 2] = [
            ("ib", Box::new(pseudo_model(0x90_0040))),
            ("vib_ib", Box::new(pseudo_vib_model(0x90_0040))),
        ];
        for (variant, model) in models {
            let config = TrainerConfig::new(method)
                .with_epochs(2)
                .with_batch_size(8)
                .with_ib(IbLossConfig::paper_vgg())
                .with_sequential_batches();
            let report = Trainer::new(config)
                .train(model.as_ref(), &train, &test)
                .unwrap();
            let prefix = format!("{name}.{variant}.");
            push_training_run(&mut snap, &prefix, &report, model.as_ref(), &test);
        }
    }

    check_snapshot(&golden_dir().join("adversarial_training.json"), &snap)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// FGSM against the VIB head: the attack differentiates through the μ-only
/// eval path, so the adversarial tensor is a pure function of the pseudo
/// weights and the batch.
#[test]
fn vib_fgsm_attack_matches_golden() {
    let _guard = GOLDEN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _threads = parallel::with_threads(1);

    let model = pseudo_vib_model(0x90_0030);
    let mut g = Gen::new(0x90_0031);
    let x = g.tensor(&[4, 3, 16, 16], 0.0, 1.0);
    let labels = g.labels(4, NUM_CLASSES);
    let attack = Fgsm::new(8.0 / 255.0);

    let adv = attack.perturb(&model, &x, &labels).unwrap();
    let mut snap = Snapshot::new("attack-vib-fgsm");
    snap.push_str("attack", attack.name());
    snap.push_u64("adv.hash", hash_bits(adv.data()));
    snap.push_f32s("adv.head", &adv.data()[..8]);
    snap.push_f32("linf", adv.sub(&x).unwrap().abs().max());
    check_snapshot(&golden_dir().join("vib_fgsm.json"), &snap).unwrap_or_else(|e| panic!("{e}"));
}

/// One attack per family, all on the same untrained pseudo model and the
/// same batch, each snapshotting a digest of the full adversarial tensor
/// plus its leading values and the L∞ distortion actually used.
#[test]
fn attacks_match_golden() {
    let _guard = GOLDEN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _threads = parallel::with_threads(1);

    let model = pseudo_model(0x90_0010);
    let mut g = Gen::new(0x90_0011);
    let x = g.tensor(&[4, 3, 16, 16], 0.0, 1.0);
    let labels = g.labels(4, NUM_CLASSES);
    let eps = 8.0 / 255.0;

    let attacks: Vec<(&str, Box<dyn Attack>)> = vec![
        ("fgsm", Box::new(Fgsm::new(eps))),
        (
            "pgd",
            Box::new(Pgd::new(eps, 2.0 / 255.0, 5).without_random_start()),
        ),
        ("nifgsm", Box::new(NiFgsm::new(eps, 2.0 / 255.0, 5))),
        ("cw", Box::new(CwL2::new(1.0, 0.0, 10, 0.01))),
        ("fab", Box::new(Fab::new(eps, 5))),
    ];

    for (name, attack) in attacks {
        let adv = attack.perturb(&model, &x, &labels).unwrap();
        let mut snap = Snapshot::new(format!("attack-{name}"));
        snap.push_str("attack", attack.name());
        snap.push_u64("adv.hash", hash_bits(adv.data()));
        snap.push_f32s("adv.head", &adv.data()[..8]);
        snap.push_f32("linf", adv.sub(&x).unwrap().abs().max());
        check_snapshot(&golden_dir().join(format!("{name}.json")), &snap)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}
