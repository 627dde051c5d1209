//! 2-D pooling kernels (max and average) with explicit backward passes.
//!
//! Max pooling records the argmax index of every window so the backward pass
//! can route gradients exactly; average pooling distributes gradients
//! uniformly over each window.

use crate::{scratch, Result, Tensor, TensorError};

/// Geometry of a 2-D pooling operation (square window, no padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2dSpec {
    /// Window edge.
    pub kernel: usize,
    /// Stride along both axes.
    pub stride: usize,
}

impl Pool2dSpec {
    /// Creates a pooling spec.
    pub fn new(kernel: usize, stride: usize) -> Self {
        Pool2dSpec { kernel, stride }
    }

    /// Output spatial size for an `h × w` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the window does not fit
    /// or the stride is zero.
    pub fn out_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "stride must be nonzero".into(),
            ));
        }
        if self.kernel == 0 || self.kernel > h || self.kernel > w {
            return Err(TensorError::InvalidGeometry(format!(
                "pool window {} does not fit input {}x{}",
                self.kernel, h, w
            )));
        }
        Ok((
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        ))
    }
}

/// Max-pools an `[n, c, h, w]` tensor.
///
/// Returns the pooled tensor and the flat input index chosen for every output
/// element (needed by [`max_pool2d_backward`]).
///
/// # Errors
///
/// Returns an error for non-rank-4 inputs or invalid geometry.
pub fn max_pool2d(input: &Tensor, spec: &Pool2dSpec) -> Result<(Tensor, Vec<usize>)> {
    input.shape_obj().expect_rank(4, "max_pool2d")?;
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (oh, ow) = spec.out_hw(h, w)?;
    let mut out = scratch::take_raw(n * c * oh * ow);
    let mut arg = Vec::with_capacity(n * c * oh * ow);
    let data = input.data();
    for ni in 0..n {
        for ci in 0..c {
            let chan = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let y0 = oy * spec.stride;
                    let x0 = ox * spec.stride;
                    let mut best_idx = chan + y0 * w + x0;
                    let mut best = data[best_idx];
                    for ky in 0..spec.kernel {
                        for kx in 0..spec.kernel {
                            let idx = chan + (y0 + ky) * w + (x0 + kx);
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out.push(best);
                    arg.push(best_idx);
                }
            }
        }
    }
    Ok((Tensor::from_vec(out, &[n, c, oh, ow])?, arg))
}

/// Routes output gradients back to the argmax positions recorded by
/// [`max_pool2d`].
///
/// # Errors
///
/// Returns an error when `grad_out` length differs from `argmax` length.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    argmax: &[usize],
    input_shape: &[usize],
) -> Result<Tensor> {
    if grad_out.len() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            expected: argmax.len(),
            actual: grad_out.len(),
        });
    }
    let mut grad_in = Tensor::zeros(input_shape);
    let gi = grad_in.data_mut();
    for (g, &idx) in grad_out.data().iter().zip(argmax) {
        gi[idx] += g;
    }
    Ok(grad_in)
}

/// Average-pools an `[n, c, h, w]` tensor.
///
/// # Errors
///
/// Returns an error for non-rank-4 inputs or invalid geometry.
pub fn avg_pool2d(input: &Tensor, spec: &Pool2dSpec) -> Result<Tensor> {
    input.shape_obj().expect_rank(4, "avg_pool2d")?;
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (oh, ow) = spec.out_hw(h, w)?;
    let win = (spec.kernel * spec.kernel) as f32;
    let mut out = scratch::take_raw(n * c * oh * ow);
    let data = input.data();
    for ni in 0..n {
        for ci in 0..c {
            let chan = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let y0 = oy * spec.stride;
                    let x0 = ox * spec.stride;
                    let mut acc = 0.0f32;
                    for ky in 0..spec.kernel {
                        for kx in 0..spec.kernel {
                            acc += data[chan + (y0 + ky) * w + (x0 + kx)];
                        }
                    }
                    out.push(acc / win);
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Backward pass of [`avg_pool2d`]: spreads each output gradient uniformly
/// over its window.
///
/// # Errors
///
/// Returns an error when shapes are inconsistent with the forward geometry.
pub fn avg_pool2d_backward(
    grad_out: &Tensor,
    spec: &Pool2dSpec,
    input_shape: &[usize],
) -> Result<Tensor> {
    grad_out.shape_obj().expect_rank(4, "avg_pool2d_backward")?;
    let (n, c, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    let (oh, ow) = spec.out_hw(h, w)?;
    if grad_out.shape() != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().to_vec(),
            rhs: vec![n, c, oh, ow],
            op: "avg_pool2d_backward",
        });
    }
    let win = (spec.kernel * spec.kernel) as f32;
    let mut grad_in = Tensor::zeros(input_shape);
    let gi = grad_in.data_mut();
    let go = grad_out.data();
    for ni in 0..n {
        for ci in 0..c {
            let chan = (ni * c + ci) * h * w;
            let ochan = (ni * c + ci) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[ochan + oy * ow + ox] / win;
                    let y0 = oy * spec.stride;
                    let x0 = ox * spec.stride;
                    for ky in 0..spec.kernel {
                        for kx in 0..spec.kernel {
                            gi[chan + (y0 + ky) * w + (x0 + kx)] += g;
                        }
                    }
                }
            }
        }
    }
    Ok(grad_in)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_picks_window_max() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let (out, arg) = max_pool2d(&input, &Pool2dSpec::new(2, 2)).unwrap();
        assert_eq!(out.data(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let input = Tensor::from_vec(vec![1.0, 9.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap();
        let (_, arg) = max_pool2d(&input, &Pool2dSpec::new(2, 2)).unwrap();
        let grad_out = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap();
        let grad_in = max_pool2d_backward(&grad_out, &arg, &[1, 1, 2, 2]).unwrap();
        assert_eq!(grad_in.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_values() {
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let out = avg_pool2d(&input, &Pool2dSpec::new(2, 2)).unwrap();
        assert_eq!(out.data(), &[2.5]);
    }

    #[test]
    fn avg_pool_backward_uniform() {
        let spec = Pool2dSpec::new(2, 2);
        let grad_out = Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]).unwrap();
        let grad_in = avg_pool2d_backward(&grad_out, &spec, &[1, 1, 2, 2]).unwrap();
        assert_eq!(grad_in.data(), &[1.0; 4]);
    }

    #[test]
    fn pool_geometry_errors() {
        assert!(Pool2dSpec::new(3, 1).out_hw(2, 2).is_err());
        assert!(Pool2dSpec::new(2, 0).out_hw(4, 4).is_err());
    }

    #[test]
    fn overlapping_avg_pool_adjoint() {
        // <avg(x), y> == <x, avg_backward(y)>
        let spec = Pool2dSpec::new(2, 1);
        let x = Tensor::from_fn(&[1, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f32 - 4.0);
        let fwd = avg_pool2d(&x, &spec).unwrap();
        let y = Tensor::from_fn(fwd.shape(), |i| (i[2] + 2 * i[3]) as f32 + 1.0);
        let lhs: f32 = fwd.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = avg_pool2d_backward(&y, &spec, &[1, 1, 3, 3]).unwrap();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }
}
