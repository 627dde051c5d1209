//! Deterministic input generation for differential tests.
//!
//! A small SplitMix64 stream owned by the oracle, which depends on no
//! `rand` crate. Differential and golden tests draw their inputs only
//! through this type, so those inputs stay bit-identical whatever `rand`'s
//! derived draws (`gen`, `gen_range`, `shuffle`) do. Its raw words equal
//! those of the workspace's `StdRng` at the same seed: both are SplitMix64
//! with the same constants.

use ibrar_tensor::Tensor;

/// SplitMix64 pseudo-random stream (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Creates a stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Gen { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform f32 in `[0, 1)` with 24 bits of precision.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// Uniform f32 in `[lo, hi)`.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.unit_f32() * (hi - lo)
    }

    /// Uniform usize in `[lo, hi]` (inclusive).
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Tensor of the given shape filled with uniform values in `[lo, hi)`.
    pub fn tensor(&mut self, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        let len: usize = shape.iter().product();
        let data: Vec<f32> = (0..len).map(|_| self.f32_in(lo, hi)).collect();
        Tensor::from_vec(data, shape).expect("length matches shape by construction")
    }

    /// `n` class labels drawn uniformly from `0..classes`.
    pub fn labels(&mut self, n: usize, classes: usize) -> Vec<usize> {
        (0..n).map(|_| self.usize_in(0, classes - 1)).collect()
    }

    /// Standard-normal f32 via the Box–Muller transform.
    ///
    /// Consumes exactly two `next_u64` draws per value (no cached spare),
    /// so the stream position after `k` calls is the same on every build.
    /// The VIB head's frozen noise (DESIGN.md §16) draws the same way from
    /// the workspace's `StdRng`, whose raw words equal this stream's.
    pub fn normal_f32(&mut self) -> f32 {
        // u1 ∈ (0, 1] keeps the log argument strictly positive.
        let u1 = 1.0 - self.unit_f32();
        let u2 = self.unit_f32();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }

    /// Tensor of the given shape filled with standard-normal values.
    pub fn normal_tensor(&mut self, shape: &[usize]) -> Tensor {
        let len: usize = shape.iter().product();
        let data: Vec<f32> = (0..len).map(|_| self.normal_f32()).collect();
        Tensor::from_vec(data, shape).expect("length matches shape by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let mut a = Gen::new(42);
        let mut b = Gen::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(Gen::new(1).next_u64(), Gen::new(2).next_u64());
    }

    #[test]
    fn unit_range() {
        let mut g = Gen::new(7);
        for _ in 0..1000 {
            let v = g.unit_f32();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn tensor_shape_and_range() {
        let mut g = Gen::new(3);
        let t = g.tensor(&[4, 5], -2.0, 3.0);
        assert_eq!(t.shape(), &[4, 5]);
        assert!(t.min() >= -2.0 && t.max() < 3.0);
    }

    #[test]
    fn labels_in_range() {
        let mut g = Gen::new(9);
        let ls = g.labels(64, 10);
        assert_eq!(ls.len(), 64);
        assert!(ls.iter().all(|&l| l < 10));
    }

    #[test]
    fn normal_is_deterministic_and_plausible() {
        let mut a = Gen::new(123);
        let mut b = Gen::new(123);
        let n = 4096;
        let xs: Vec<f32> = (0..n).map(|_| a.normal_f32()).collect();
        let ys: Vec<f32> = (0..n).map(|_| b.normal_f32()).collect();
        assert!(xs.iter().zip(&ys).all(|(x, y)| x.to_bits() == y.to_bits()));
        let mean: f32 = xs.iter().sum::<f32>() / n as f32;
        let var: f32 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "var {var}");
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn normal_tensor_shape() {
        let mut g = Gen::new(5);
        let t = g.normal_tensor(&[3, 7]);
        assert_eq!(t.shape(), &[3, 7]);
    }

    #[test]
    fn usize_covers_bounds() {
        let mut g = Gen::new(11);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[g.usize_in(0, 3)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
