//! Cross-thread-count determinism: every parallel path in the workspace
//! must produce bitwise-identical results whether it runs on 1 thread or
//! many. These tests force the thread count via
//! `ibrar_tensor::parallel::with_threads` (the in-process equivalent of the
//! `IBRAR_THREADS` env knob; `scripts/ci.sh` additionally runs the whole
//! suite under `IBRAR_THREADS=1` and the machine default).

use ibrar::{TrainMethod, Trainer, TrainerConfig};
use ibrar_attacks::{clean_accuracy, robust_accuracy, Fgsm, Pgd};
use ibrar_autograd::Tape;
use ibrar_data::{Dataset, SynthVision, SynthVisionConfig};
use ibrar_infotheory::{hsic, median_sigma, one_hot};
use ibrar_nn::{ImageModel, VggConfig, VggMini, VibHead, VibHeadConfig};
use ibrar_tensor::{
    conv2d_backward_input, conv2d_backward_weight, im2col, parallel, scratch, Conv2dSpec, Tensor,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [2, 4, 7];

/// Runs `f` once per thread count and asserts every result equals the
/// single-threaded one (PartialEq on Tensor/f32 is exact, so equality here
/// means bitwise identity for finite values).
fn assert_invariant<T: PartialEq + std::fmt::Debug>(label: &str, f: impl Fn() -> T) {
    let serial = {
        let _g = parallel::with_threads(1);
        f()
    };
    for threads in THREAD_COUNTS {
        let par = {
            let _g = parallel::with_threads(threads);
            f()
        };
        assert_eq!(serial, par, "{label} differs at {threads} threads");
    }
}

fn fixture() -> (VggMini, Dataset) {
    let mut rng = StdRng::seed_from_u64(7);
    let model = VggMini::new(VggConfig::tiny(10), &mut rng).unwrap();
    let data =
        SynthVision::generate(&SynthVisionConfig::cifar10_like().with_sizes(40, 30), 3).unwrap();
    (model, data.test)
}

#[test]
fn conv_forward_and_backward_bitwise_invariant() {
    // Odd batch size so row chunks are ragged.
    let x = Tensor::from_fn(&[5, 3, 9, 8], |i| {
        ((i[0] * 131 + i[1] * 37 + i[2] * 11 + i[3] * 3) % 23) as f32 * 0.17 - 1.5
    });
    let w = Tensor::from_fn(&[4, 3, 3, 3], |i| {
        ((i[0] * 41 + i[1] * 13 + i[2] * 5 + i[3]) % 17) as f32 * 0.09 - 0.6
    });
    let spec = Conv2dSpec::new(3, 4, 3, 1, 1);
    // An upstream gradient with the exact zeros of a ReLU/max-pool gradient.
    let g = Tensor::from_fn(&[5, 4, 9, 8], |i| {
        match (i[0] * 7 + i[1] * 5 + i[2] * 3 + i[3]) % 5 {
            0 | 3 => 0.0,
            r => r as f32 * 0.31 - 0.7,
        }
    });
    let wmat = w.reshape(&[4, 27]).unwrap();
    assert_invariant("im2col", || im2col(&x, &spec).unwrap());
    assert_invariant("conv2d_backward_input", || {
        conv2d_backward_input(&g, &wmat, &spec, 9, 8).unwrap()
    });
    assert_invariant("conv2d_backward_weight", || {
        conv2d_backward_weight(&x, &g, &spec).unwrap()
    });
    assert_invariant("conv2d fwd+bwd", || {
        let tape = Tape::new();
        let xv = tape.var(x.clone());
        let wv = tape.var(w.clone());
        let out = xv.conv2d(wv, None, spec).unwrap();
        let fwd = out.value();
        let loss = out.square().unwrap().sum().unwrap();
        let grads = tape.backward(loss).unwrap();
        (
            fwd,
            grads.get(xv).unwrap().clone(),
            grads.get(wv).unwrap().clone(),
        )
    });
}

#[test]
fn matmul_bitwise_invariant() {
    // Big enough to cross the matmul parallel threshold (m·n ≥ 64·1024).
    let a = Tensor::from_fn(&[260, 64], |i| {
        ((i[0] * 7 + i[1] * 3) % 31) as f32 * 0.13 - 2.0
    });
    let b = Tensor::from_fn(&[64, 260], |i| {
        ((i[0] * 11 + i[1]) % 29) as f32 * 0.07 - 1.0
    });
    assert_invariant("matmul", || a.matmul(&b).unwrap());
    assert_invariant("matmul_nt", || a.matmul_nt(&a).unwrap());
    assert_invariant("matmul_tn", || b.matmul_tn(&b).unwrap());
}

#[test]
fn hsic_and_median_sigma_bitwise_invariant() {
    let x = Tensor::from_fn(&[19, 12], |i| {
        ((i[0] * 29 + i[1] * 13) % 41) as f32 * 0.11 - 2.0
    });
    let y = one_hot(&(0..19).map(|i| i % 5).collect::<Vec<_>>(), 5).unwrap();
    assert_invariant("median_sigma", || median_sigma(&x).to_bits());
    assert_invariant("hsic", || {
        let sx = median_sigma(&x);
        let sy = median_sigma(&y);
        hsic(&x, &y, sx, sy).unwrap().to_bits()
    });
    assert_invariant("hsic backward", || {
        let tape = Tape::new();
        let xv = tape.var(x.clone());
        let yv = tape.leaf(y.clone());
        let loss = ibrar_infotheory::hsic_var(xv, yv, 1.0, 1.0).unwrap();
        tape.backward(loss).unwrap().get(xv).unwrap().clone()
    });
}

#[test]
fn accuracy_evaluation_bitwise_invariant() {
    let (model, test) = fixture();
    // Batch size 7 over 30 examples leaves a ragged final batch.
    assert_invariant("clean_accuracy", || {
        clean_accuracy(&model, &test, 7).unwrap().to_bits()
    });
    assert_invariant("robust_accuracy[FGSM]", || {
        robust_accuracy(&model, &Fgsm::new(0.05), &test, 7)
            .unwrap()
            .to_bits()
    });
    // PGD without its random start is fully deterministic; with the random
    // start the ε-ball draw order depends on scheduling (documented in
    // EXPERIMENTS.md — reproduce those numbers with IBRAR_THREADS=1).
    let pgd = Pgd::new(0.03, 0.01, 3).without_random_start();
    assert_invariant("robust_accuracy[PGD-det]", || {
        robust_accuracy(&model, &pgd, &test, 7).unwrap().to_bits()
    });
}

/// One full VIB training epoch from a fixed seed — frozen-noise K-sample
/// forward, rsample/kl_gauss backward, SGD update, μ-only eval — digested
/// to the final loss plus every parameter's bits.
fn vib_train_digest(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let inner = VggMini::new(VggConfig::tiny(10), &mut rng).unwrap();
    let cfg = VibHeadConfig::paper_default().with_bottleneck(8);
    let model = VibHead::new(inner, cfg, &mut rng).unwrap();
    let data = SynthVision::generate(
        &SynthVisionConfig::cifar10_like().with_sizes(16, 8),
        seed ^ 0xABCD,
    )
    .unwrap();
    let report = Trainer::new(
        TrainerConfig::new(TrainMethod::Standard)
            .with_epochs(1)
            .with_batch_size(8)
            .with_seed(0)
            .with_sequential_batches(),
    )
    .train(&model, &data.train, &data.test)
    .unwrap();
    let mut out = vec![u64::from(report.final_loss().to_bits())];
    for p in model.params() {
        out.push(ibrar_oracle::hash_bits(p.value().data()));
    }
    out
}

/// The VIB noise-freezing contract (DESIGN.md §16): because the
/// per-batch Gaussian noise is a pure function of (seed, batch), a
/// whole train step is bitwise identical at `IBRAR_THREADS` ∈
/// {1, 2, 4, 7} and across {cold, warm} worker-pool scratch states.
/// Runs 2 seeded random cases.
#[test]
fn vib_train_step_bitwise_invariant() {
    let mut rng = StdRng::seed_from_u64(0xDE_0001);
    for case in 0..2 {
        let seed = rng.gen_range(0..1000u64);
        scratch::clear();
        let baseline = {
            let _g = parallel::with_threads(1);
            vib_train_digest(seed)
        };
        for threads in [2usize, 4, 7] {
            let _g = parallel::with_threads(threads);
            // Warm: a throwaway pass leaves recycled buffers of every size
            // class the step uses, on this thread and on pool workers.
            let _ = vib_train_digest(seed);
            assert_eq!(
                vib_train_digest(seed),
                baseline,
                "case {case}: seed = {seed}: warm pool diverged at {threads} threads"
            );
            // Cold: every first checkout misses the scratch pool.
            scratch::clear();
            assert_eq!(
                vib_train_digest(seed),
                baseline,
                "case {case}: seed = {seed}: cold pool diverged at {threads} threads"
            );
        }
    }
}
