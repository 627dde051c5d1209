//! Kernel-matrix building blocks for the differentiable HSIC estimator.
//!
//! HSIC is composed in `ibrar-infotheory` as
//! `exp(pairwise_sqdist(x) · c)` (Gaussian kernel) followed by matrix
//! products with the centering matrix; only the pairwise squared-distance op
//! needs a dedicated backward rule.

use crate::tape::BackwardFn;
use crate::{Result, Var};
use ibrar_tensor::{parallel, simd, Tensor};

impl<'t> Var<'t> {
    /// Pairwise squared Euclidean distances of the rows of a `[m, d]` matrix,
    /// producing `[m, m]` with `D_ij = ‖x_i − x_j‖²`.
    ///
    /// Backward: `∂L/∂x_k = 2 Σ_j (G_kj + G_jk)(x_k − x_j)`.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices.
    pub fn pairwise_sqdist(self) -> Result<Var<'t>> {
        let x = self.value();
        x.shape_obj().expect_rank(2, "pairwise_sqdist")?;
        let (m, d) = (x.shape()[0], x.shape()[1]);
        let mut out = Tensor::zeros(&[m, m]);
        {
            let xd = x.data();
            let od = out.data_mut();
            let threads = parallel::threads_for(m * m * d);
            if threads == 1 {
                // Half-matrix fill: each distance is computed once and
                // mirrored across the diagonal.
                for i in 0..m {
                    for j in (i + 1)..m {
                        let acc = simd::sqdist8(&xd[i * d..(i + 1) * d], &xd[j * d..(j + 1) * d]);
                        od[i * m + j] = acc;
                        od[j * m + i] = acc;
                    }
                }
            } else {
                // Full-row fill so each worker writes only its own rows (the
                // mirrored write would cross chunk boundaries). Bitwise equal
                // to the half-matrix path: `(x_j − x_i)² ≡ (x_i − x_j)²`
                // under IEEE-754 and the sqdist kernel's accumulation order
                // is a pure function of the operand slices.
                parallel::par_items_mut(od, m, threads, |i, orow| {
                    for (j, o) in orow.iter_mut().enumerate() {
                        if j == i {
                            continue;
                        }
                        *o = simd::sqdist8(&xd[i * d..(i + 1) * d], &xd[j * d..(j + 1) * d]);
                    }
                });
            }
        }
        let backward: BackwardFn = Box::new(move |grad| {
            let xd = x.data();
            let gd = grad.data();
            let mut dx = Tensor::zeros(&[m, d]);
            let dd = dx.data_mut();
            // Row `i` of `dx` depends only on row/column `i` of the incoming
            // gradient, so rows split cleanly across threads with the serial
            // `j` accumulation order preserved inside each row.
            let threads = parallel::threads_for(m * m * d);
            parallel::par_items_mut(dd, d, threads, |i, drow| {
                for j in 0..m {
                    let g = gd[i * m + j] + gd[j * m + i];
                    if g == 0.0 {
                        continue;
                    }
                    for (t, dr) in drow.iter_mut().enumerate() {
                        *dr += 2.0 * g * (xd[i * d + t] - xd[j * d + t]);
                    }
                }
            });
            vec![(self.id, dx)]
        });
        Ok(self.record_unary(out, backward))
    }

    /// Gaussian (RBF) kernel matrix `K_ij = exp(−D_ij / (2σ²))` of the rows
    /// of a `[m, d]` matrix.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or non-positive `sigma`.
    pub fn gaussian_kernel(self, sigma: f32) -> Result<Var<'t>> {
        if sigma <= 0.0 {
            return Err(crate::AutogradError::Invalid(format!(
                "gaussian_kernel sigma must be positive, got {sigma}"
            )));
        }
        let c = -1.0 / (2.0 * sigma * sigma);
        Ok(self.pairwise_sqdist()?.scale(c).exp())
    }
}

#[cfg(test)]
mod tests {
    use crate::Tape;
    use ibrar_tensor::Tensor;

    #[test]
    fn diagonal_is_zero_and_symmetric() {
        let tape = Tape::new();
        let x = tape.var(Tensor::from_vec(vec![0.0, 0.0, 3.0, 4.0, 1.0, 1.0], &[3, 2]).unwrap());
        let d = x.pairwise_sqdist().unwrap().value();
        assert_eq!(d.get(&[0, 0]), 0.0);
        assert_eq!(d.get(&[1, 1]), 0.0);
        assert_eq!(d.get(&[0, 1]), 25.0);
        assert_eq!(d.get(&[1, 0]), 25.0);
        assert_eq!(d.get(&[0, 2]), 2.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let tape = Tape::new();
        let x_val = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.3], &[2, 2]).unwrap();
        let x = tape.var(x_val.clone());
        let loss = x.pairwise_sqdist().unwrap().sum().unwrap();
        let grads = tape.backward(loss).unwrap();
        let analytic = grads.get(x).unwrap().clone();
        // numeric
        let eps = 1e-2f32;
        for i in 0..4 {
            let mut plus = x_val.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x_val.clone();
            minus.data_mut()[i] -= eps;
            let f = |t: &Tensor| {
                let tp = Tape::new();
                let v = tp.var(t.clone());
                v.pairwise_sqdist().unwrap().sum().unwrap().value().data()[0]
            };
            let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
            assert!(
                (analytic.data()[i] - numeric).abs() < 1e-2,
                "element {i}: {} vs {numeric}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn gaussian_kernel_unit_diagonal() {
        let tape = Tape::new();
        let x = tape.var(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let k = x.gaussian_kernel(1.0).unwrap().value();
        assert!((k.get(&[0, 0]) - 1.0).abs() < 1e-6);
        assert!(k.get(&[0, 1]) < 1.0);
        assert!(k.get(&[0, 1]) > 0.0);
    }

    #[test]
    fn gaussian_kernel_rejects_bad_sigma() {
        let tape = Tape::new();
        let x = tape.var(Tensor::zeros(&[2, 2]));
        assert!(x.gaussian_kernel(0.0).is_err());
        assert!(x.gaussian_kernel(-1.0).is_err());
    }

    #[test]
    fn wider_sigma_gives_larger_offdiagonal() {
        let tape = Tape::new();
        let x = tape.var(Tensor::from_vec(vec![0.0, 0.0, 2.0, 2.0], &[2, 2]).unwrap());
        let narrow = x.gaussian_kernel(0.5).unwrap().value().get(&[0, 1]);
        let wide = x.gaussian_kernel(5.0).unwrap().value().get(&[0, 1]);
        assert!(wide > narrow);
    }
}
