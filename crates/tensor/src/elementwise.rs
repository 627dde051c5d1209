//! Elementwise operations and limited broadcasting.
//!
//! Binary ops require identical shapes except for the two broadcast patterns
//! the higher layers actually need:
//!
//! * **Bias broadcast** — `[n, c] + [c]` and `[n, c, h, w] + [c]`.
//! * **Scalar broadcast** — any tensor combined with a rank-0 tensor.

use crate::{scratch, Result, Tensor, TensorError};

impl Tensor {
    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = scratch::take_raw(self.len());
        data.extend(self.data().iter().map(|&v| f(v)));
        Tensor::from_vec(data, self.shape()).expect("map preserves volume")
    }

    /// Applies `f` in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.shape_obj().expect_same(other.shape_obj(), "zip")?;
        let mut data = scratch::take_raw(self.len());
        data.extend(
            self.data()
                .iter()
                .zip(other.data().iter())
                .map(|(&a, &b)| f(a, b)),
        );
        Tensor::from_vec(data, self.shape())
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes are not
    /// broadcast-compatible (see module docs).
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_zip(other, "add", |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_zip(other, "sub", |a, b| a - b)
    }

    /// Elementwise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_zip(other, "mul", |a, b| a * b)
    }

    /// Elementwise quotient.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_zip(other, "div", |a, b| a / b)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|v| -v)
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.map(|v| v * v)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise sign (−1, 0, +1).
    pub fn signum(&self) -> Tensor {
        self.map(|v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Elementwise maximum with another tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn maximum(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, f32::max)
    }

    /// Elementwise minimum with another tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn minimum(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, f32::min)
    }

    fn broadcast_zip(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        // Same shape: plain zip.
        if self.shape() == other.shape() {
            return self.zip(other, f);
        }
        // Scalar rhs.
        if other.rank() == 0 {
            let s = other.data()[0];
            return Ok(self.map(|v| f(v, s)));
        }
        // Scalar lhs.
        if self.rank() == 0 {
            let s = self.data()[0];
            return Ok(other.map(|v| f(s, v)));
        }
        // Bias broadcast: [n, c] (+|-|*|/) [c], one zip per row.
        if self.rank() == 2 && other.rank() == 1 && self.shape()[1] == other.shape()[0] {
            let mut data = scratch::take_raw(self.len());
            // `max(1)`: an empty tensor has no rows to visit.
            for row in self.data().chunks_exact(other.len().max(1)) {
                data.extend(row.iter().zip(other.data()).map(|(&a, &b)| f(a, b)));
            }
            return Tensor::from_vec(data, self.shape());
        }
        // Channel broadcast: [n, c, h, w] (+|-|*|/) [c], one pass per plane.
        if self.rank() == 4 && other.rank() == 1 && self.shape()[1] == other.shape()[0] {
            let plane = self.shape()[2] * self.shape()[3];
            let mut data = scratch::take_raw(self.len());
            let bias = other.data().iter().cycle();
            // `max(1)` as above; plane `i` takes bias `i % c`.
            for (src, &b) in self.data().chunks_exact(plane.max(1)).zip(bias) {
                data.extend(src.iter().map(|&a| f(a, b)));
            }
            return Tensor::from_vec(data, self.shape());
        }
        Err(TensorError::ShapeMismatch {
            lhs: self.shape().to_vec(),
            rhs: other.shape().to_vec(),
            op,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_same_shape() {
        let a = Tensor::full(&[2, 2], 1.0);
        let b = Tensor::full(&[2, 2], 2.0);
        assert_eq!(a.add(&b).unwrap().data(), &[3.0; 4]);
    }

    #[test]
    fn add_rejects_mismatched() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn bias_broadcast_rank2() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn channel_broadcast_rank4() {
        let a = Tensor::ones(&[1, 2, 2, 2]);
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let out = a.mul(&b).unwrap();
        assert_eq!(out.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn bias_broadcast_of_empty_tensors() {
        for (lhs, rhs) in [
            (&[0, 3][..], 3),
            (&[2, 0][..], 0),
            (&[2, 3, 0, 4][..], 3),
            (&[2, 0, 5, 5][..], 0),
        ] {
            let out = Tensor::zeros(lhs).add(&Tensor::zeros(&[rhs])).unwrap();
            assert_eq!(out.shape(), lhs);
            assert!(out.data().is_empty());
        }
    }

    #[test]
    fn scalar_broadcast_both_sides() {
        let a = Tensor::full(&[3], 4.0);
        let s = Tensor::scalar(2.0);
        assert_eq!(a.div(&s).unwrap().data(), &[2.0; 3]);
        assert_eq!(s.sub(&a).unwrap().data(), &[-2.0; 3]);
    }

    #[test]
    fn signum_handles_zero() {
        let t = Tensor::from_vec(vec![-3.0, 0.0, 5.0], &[3]).unwrap();
        assert_eq!(t.signum().data(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn clamp_bounds() {
        let t = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3]).unwrap();
        assert_eq!(t.clamp(0.0, 1.0).data(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn relu_matches_max_zero() {
        let t = Tensor::from_vec(vec![-2.0, 3.0], &[2]).unwrap();
        assert_eq!(t.relu().data(), &[0.0, 3.0]);
    }
}
