//! Property test: the scratch-buffer pool is behaviorally invisible.
//!
//! Running an arbitrary interleaved sequence of tensor operations must
//! produce bitwise-identical results whether the pool is warm, disabled
//! ([`scratch::with_enabled`]`(false)`), or freshly cleared —
//! recycled buffers carry no state into the values an op produces.

use ibrar_tensor::{im2col, scratch, Conv2dSpec, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 256;

/// One step of the op-interleaving state machine over two square matrices.
fn apply(op: u8, a: &mut Tensor, b: &mut Tensor) {
    match op % 10 {
        0 => *a = a.matmul(b).unwrap(),
        1 => *a = a.add(b).unwrap(),
        2 => *b = a.mul(b).unwrap(),
        3 => *a = a.transpose().unwrap(),
        4 => *a = a.relu(),
        5 => *b = b.map(|v| (v * 0.5).tanh()),
        6 => *b = a.clone(),
        7 => *a = a.sub(b).unwrap().scale(0.5),
        8 => {
            // Conv lowering exercises the pooled im2col path; fold the
            // result back into the state so later ops depend on it.
            let n = a.shape()[0];
            let img = a.reshape(&[1, 1, n, n]).unwrap();
            let spec = Conv2dSpec::new(1, 1, 3, 1, 1);
            let cols = im2col(&img, &spec).unwrap();
            let s = cols.sum();
            *a = a.add_scalar(s * 1e-3);
        }
        _ => {
            let n = a.len();
            let stacked = Tensor::stack_refs(&[&*a, &*b]).unwrap();
            let flat = stacked.reshape(&[2, n]).unwrap();
            *b = flat.row(1).unwrap().reshape(a.shape()).unwrap();
        }
    }
    // Keep magnitudes bounded so long sequences stay finite (bit equality
    // on NaN payloads would still hold, but finite values are a stronger
    // check of the data path).
    if a.abs().max() > 1e3 {
        *a = a.scale(1e-3);
    }
    if b.abs().max() > 1e3 {
        *b = b.scale(1e-3);
    }
}

/// Runs the full sequence from a deterministic start state and returns
/// every result bit.
fn run_ops(n: usize, seed: u64, ops: &[u8]) -> Vec<u32> {
    let mut a = Tensor::from_fn(&[n, n], |i| {
        (((i[0] * 31 + i[1] * 17) as u64 + seed * 97) % 13) as f32 * 0.21 - 1.2
    });
    let mut b = Tensor::from_fn(&[n, n], |i| {
        (((i[0] * 7 + i[1] * 29) as u64 + seed * 53) % 11) as f32 * 0.17 - 0.8
    });
    for &op in ops {
        apply(op, &mut a, &mut b);
    }
    a.data()
        .iter()
        .chain(b.data().iter())
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn pool_state_never_changes_results() {
    let mut rng = StdRng::seed_from_u64(0x5C_0001);
    for case in 0..CASES {
        let n = rng.gen_range(3..7usize);
        let seed = rng.gen_range(0..1000u64);
        let len = rng.gen_range(1..24usize);
        let ops: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        let inputs = format!("case {case}: n = {n}, seed = {seed}, ops = {ops:?}");

        // Warm pool: one throwaway pass leaves recycled buffers of every
        // size class this sequence uses, so the measured pass hits the pool.
        let _ = run_ops(n, seed, &ops);
        let warm = run_ops(n, seed, &ops);

        // Disabled pool: every allocation comes straight from the system.
        let cold = {
            let _g = scratch::with_enabled(false);
            run_ops(n, seed, &ops)
        };
        assert_eq!(&warm, &cold, "warm pool vs disabled pool; {inputs}");

        // Freshly cleared pool: all checkouts miss, then refill it.
        scratch::clear();
        let cleared = run_ops(n, seed, &ops);
        assert_eq!(&warm, &cleared, "warm pool vs cleared pool; {inputs}");
    }
}
