//! Cross-crate property-based tests on the reproduction's invariants: each
//! property runs `CASES` seeded random cases.

use ibrar::mask_from_scores;
use ibrar_attacks::{Attack, Fgsm};
use ibrar_data::{SynthVision, SynthVisionConfig};
use ibrar_infotheory::{hsic, mi_values_labels, one_hot, BinningConfig};
use ibrar_nn::{ImageModel, Mode, Session, VggConfig, VggMini};
use ibrar_tensor::{parallel, Conv2dSpec, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 16;

/// Channel scores for the mask properties: 4..64 values in `[0, 1)`.
fn draw_scores(rng: &mut StdRng) -> Vec<f32> {
    let c = rng.gen_range(4..64usize);
    (0..c).map(|_| rng.gen_range(0.0f32..1.0)).collect()
}

/// Any seed and size yields pixels in [0,1] and balanced-ish labels.
#[test]
fn dataset_generation_invariants() {
    let mut rng = StdRng::seed_from_u64(0x9A_0001);
    for case in 0..CASES {
        let seed = rng.gen_range(0..500u64);
        let size = rng.gen_range(40..120usize);
        let inputs = format!("case {case}: seed = {seed}, size = {size}");
        let config = SynthVisionConfig::cifar10_like().with_sizes(size, 20);
        let d = SynthVision::generate(&config, seed).unwrap();
        assert!(d.train.images().min() >= 0.0, "{inputs}");
        assert!(d.train.images().max() <= 1.0, "{inputs}");
        assert_eq!(d.train.len(), size, "{inputs}");
        let mut counts = [0usize; 10];
        for &l in d.train.labels() {
            assert!(l < 10, "{inputs}");
            counts[l] += 1;
        }
        // Balanced floor: every class appears at least size/10 times.
        assert!(counts.iter().all(|&c| c >= size / 10), "{inputs}");
    }
}

/// FGSM respects any ε and the pixel box, for arbitrary budgets.
#[test]
fn fgsm_budget_holds_for_any_eps() {
    let mut cases = StdRng::seed_from_u64(0x9A_0002);
    for case in 0..CASES {
        let eps = cases.gen_range(0.0f32..0.2);
        let inputs = format!("case {case}: eps = {eps}");
        let mut rng = StdRng::seed_from_u64(0);
        let model = VggMini::new(VggConfig::tiny(4), &mut rng).unwrap();
        let x = Tensor::full(&[2, 3, 16, 16], 0.5);
        let adv = Fgsm::new(eps).perturb(&model, &x, &[0, 1]).unwrap();
        assert!(adv.sub(&x).unwrap().abs().max() <= eps + 1e-5, "{inputs}");
        assert!(adv.min() >= 0.0 && adv.max() <= 1.0, "{inputs}");
    }
}

/// HSIC is symmetric and non-negative (up to estimator noise) for
/// arbitrary feature matrices.
#[test]
fn hsic_symmetric_nonnegative() {
    let mut rng = StdRng::seed_from_u64(0x9A_0003);
    for case in 0..CASES {
        let seed = rng.gen_range(0..200u64);
        let inputs = format!("case {case}: seed = {seed}");
        let x = Tensor::from_fn(&[8, 3], |i| {
            (((i[0] as u64 * 31 + i[1] as u64 * 17 + seed) % 13) as f32) * 0.3
        });
        let y = one_hot(&(0..8).map(|i| i % 3).collect::<Vec<_>>(), 3).unwrap();
        let a = hsic(&x, &y, 1.0, 1.0).unwrap();
        let b = hsic(&y, &x, 1.0, 1.0).unwrap();
        assert!((a - b).abs() < 1e-5, "{a} vs {b}; {inputs}");
        assert!(a > -1e-4, "HSIC strongly negative: {a}; {inputs}");
    }
}

/// Binned MI is bounded by log2(num_classes).
#[test]
fn binned_mi_bounded() {
    let mut rng = StdRng::seed_from_u64(0x9A_0004);
    for case in 0..CASES {
        let seed = rng.gen_range(0..200u64);
        let k = rng.gen_range(2..6usize);
        let n = 40;
        let values: Vec<f32> = (0..n)
            .map(|i| (((i as u64 * 7 + seed * 13) % 29) as f32) * 0.1)
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % k).collect();
        let mi = mi_values_labels(&values, &labels, k, BinningConfig::new(10)).unwrap();
        let inputs = format!("case {case}: seed = {seed}, k = {k}");
        assert!(mi >= 0.0, "MI {mi}; {inputs}");
        assert!(mi <= (k as f32).log2() + 1e-4, "MI {mi} > H(Y); {inputs}");
    }
}

/// Binned MI is non-negative, symmetric when the binning is lossless,
/// and exactly zero for constant values.
#[test]
fn binned_mi_nonneg_symmetric_zero_for_constants() {
    let mut rng = StdRng::seed_from_u64(0x9A_0005);
    for case in 0..CASES {
        let len = rng.gen_range(10..60usize);
        let pairs: Vec<(usize, usize)> = (0..len)
            .map(|_| (rng.gen_range(0..8usize), rng.gen_range(0..4usize)))
            .collect();
        let inputs = format!("case {case}: pairs = {pairs:?}");
        let mut vs: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let mut ys: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        // Pin both ranges so integer values map one-to-one onto bins in
        // either direction (8 bins over [0,7], 4 bins over [0,3]) and the
        // two MI computations histogram the *same* joint distribution.
        vs.extend([0, 7]);
        ys.extend([0, 3]);
        let v_f: Vec<f32> = vs.iter().map(|&v| v as f32).collect();
        let y_f: Vec<f32> = ys.iter().map(|&y| y as f32).collect();
        let forward = mi_values_labels(&v_f, &ys, 4, BinningConfig::new(8)).unwrap();
        let backward = mi_values_labels(&y_f, &vs, 8, BinningConfig::new(4)).unwrap();
        assert!(forward >= 0.0, "MI negative: {forward}; {inputs}");
        assert!(
            (forward - backward).abs() < 1e-4,
            "I(V;Y)={forward} != I(Y;V)={backward}; {inputs}"
        );
        // A constant carries no information about any labeling.
        let constant = vec![0.7f32; ys.len()];
        let mi0 = mi_values_labels(&constant, &ys, 4, BinningConfig::new(8)).unwrap();
        assert_eq!(mi0, 0.0, "{inputs}");
    }
}

/// The channel mask is strictly 0/1 and therefore idempotent: applying
/// it twice to any feature map equals applying it once.
#[test]
fn mask_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0x9A_0006);
    for case in 0..CASES {
        let scores = draw_scores(&mut rng);
        let fraction = rng.gen_range(0.0f32..1.0);
        let inputs = format!("case {case}: scores = {scores:?}, fraction = {fraction}");
        let mask = mask_from_scores(&scores, fraction).unwrap();
        assert_eq!(mask.mul(&mask).unwrap(), mask.clone(), "{inputs}");
        // Masking a masked feature map changes nothing further.
        let c = scores.len();
        let features = Tensor::from_fn(&[2, c, 3, 3], |i| {
            ((i[0] * 131 + i[1] * 37 + i[2] * 11 + i[3]) % 19) as f32 * 0.21 - 1.0
        });
        let broadcast = Tensor::from_fn(&[2, c, 3, 3], |i| mask.data()[i[1]]);
        let once = features.mul(&broadcast).unwrap();
        let twice = once.mul(&broadcast).unwrap();
        assert_eq!(once, twice, "{inputs}");
    }
}

/// Mask construction removes exactly floor(fraction·C) channels for any
/// score vector (capped at C−1).
#[test]
fn mask_removes_exact_fraction() {
    let mut rng = StdRng::seed_from_u64(0x9A_0007);
    for case in 0..CASES {
        let scores = draw_scores(&mut rng);
        let fraction = rng.gen_range(0.0f32..1.0);
        let inputs = format!("case {case}: scores = {scores:?}, fraction = {fraction}");
        let mask = mask_from_scores(&scores, fraction).unwrap();
        let c = scores.len();
        let expect_removed = ((c as f32 * fraction) as usize).min(c - 1);
        let removed = c - mask.sum() as usize;
        assert_eq!(removed, expect_removed, "{inputs}");
        // Mask is strictly 0/1.
        assert!(
            mask.data().iter().all(|&v| v == 0.0 || v == 1.0),
            "{inputs}"
        );
    }
}

/// Model forward is deterministic in eval mode for any input batch.
#[test]
fn eval_forward_deterministic() {
    let mut cases = StdRng::seed_from_u64(0x9A_0008);
    for case in 0..CASES {
        let seed = cases.gen_range(0..100u64);
        let mut rng = StdRng::seed_from_u64(3);
        let model = VggMini::new(VggConfig::tiny(4), &mut rng).unwrap();
        let x = Tensor::from_fn(&[2, 3, 16, 16], |i| {
            (((i[0] as u64 + i[1] as u64 * 3 + i[2] as u64 * 5 + i[3] as u64 * 7 + seed) % 11)
                as f32)
                / 11.0
        });
        let run = || {
            let tape = ibrar_autograd::Tape::new();
            let sess = Session::new(&tape);
            let xv = tape.leaf(x.clone());
            model.forward(&sess, xv, Mode::Eval).unwrap().logits.value()
        };
        assert_eq!(run(), run(), "case {case}: seed = {seed}");
    }
}

/// The parallel conv2d forward matches the oracle's direct convolution for
/// arbitrary geometry, and is bitwise identical across thread counts.
#[test]
fn parallel_conv_matches_serial_reference() {
    let mut rng = StdRng::seed_from_u64(0x9A_0009);
    for case in 0..CASES {
        let dims = [1..4, 1..3, 1..3, 4..9, 4..9, 1..4, 1..3, 0..2].map(|r| rng.gen_range(r));
        let [n, cin, cout, h, w, k, stride, padding]: [usize; 8] = dims;
        let seed = rng.gen_range(0..100u64);
        let inputs = format!(
            "case {case}: [n, cin, cout, h, w, k, stride, padding] = {dims:?}, seed = {seed}"
        );
        // Geometry is always valid for these ranges: k ≤ 3 < h + 2·padding.
        let spec = Conv2dSpec::new(cin, cout, k, stride, padding);
        let s = seed as usize;
        let x = Tensor::from_fn(&[n, cin, h, w], |i| {
            (((i[0] * 131 + i[1] * 37 + i[2] * 11 + i[3] * 3 + s) % 23) as f32) * 0.17 - 1.5
        });
        let wt = Tensor::from_fn(&[cout, cin, k, k], |i| {
            (((i[0] * 41 + i[1] * 13 + i[2] * 5 + i[3] + s) % 17) as f32) * 0.09 - 0.6
        });
        let forward = |threads: usize| {
            let _g = parallel::with_threads(threads);
            let tape = ibrar_autograd::Tape::new();
            let xv = tape.var(x.clone());
            let wv = tape.var(wt.clone());
            xv.conv2d(wv, None, spec).unwrap().value()
        };
        let serial = forward(1);
        assert_eq!(&forward(4), &serial, "threads changed bits; {inputs}");
        let oracle = ibrar_oracle::kernels::conv2d(&x, &wt, None, &spec);
        assert!(
            serial.max_abs_diff(&oracle).unwrap() < 1e-4,
            "conv deviates from the oracle's direct convolution; {inputs}"
        );
    }
}
