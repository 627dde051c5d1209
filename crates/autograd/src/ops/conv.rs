//! Differentiable convolution and pooling.

use crate::tape::{needed, BackwardFn};
use crate::{AutogradError, Result, Var};
use ibrar_tensor::{
    avg_pool2d, avg_pool2d_backward, conv2d_backward_input, conv2d_backward_weight, conv2d_forward,
    max_pool2d, max_pool2d_backward, Conv2dSpec, Pool2dSpec, Tensor,
};

impl<'t> Var<'t> {
    /// 2-D convolution (direct forward and backward kernels).
    ///
    /// `self` is the `[n, c, h, w]` input, `weight` is `[oc, c, k, k]`,
    /// `bias` an optional `[oc]` vector.
    ///
    /// The forward is the im2col-free direct kernel ([`conv2d_forward`]),
    /// bitwise identical to the historical `im2col × Wᵀ` formulation. The
    /// backward hands the NCHW upstream gradient straight to the direct
    /// kernels, bitwise identical to the historical `col2im(G·W)` and
    /// `Gᵀ·im2col(x)` GEMM pipeline, and computes only the gradients someone
    /// keeps. A weight that requires a gradient gets
    /// [`conv2d_backward_weight`]; a frozen weight (an input-gradient pass)
    /// skips it. An input that requires a gradient gets
    /// [`conv2d_backward_input`]; a constant input (the first conv of a train
    /// step) skips it.
    ///
    /// # Errors
    ///
    /// Returns an error on geometry/shape mismatches or mixed tapes.
    pub fn conv2d(
        self,
        weight: Var<'t>,
        bias: Option<Var<'t>>,
        spec: Conv2dSpec,
    ) -> Result<Var<'t>> {
        self.same_tape(&weight)?;
        if let Some(b) = &bias {
            self.same_tape(b)?;
        }
        let x = self.value();
        let w = weight.value();
        x.shape_obj().expect_rank(4, "conv2d")?;
        w.shape_obj().expect_rank(4, "conv2d weight")?;
        if w.shape()
            != [
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
            ]
        {
            return Err(AutogradError::Invalid(format!(
                "conv2d weight shape {:?} does not match spec {:?}",
                w.shape(),
                spec
            )));
        }
        let (h, wd) = (x.shape()[2], x.shape()[3]);
        let wmat = w.reshape(&[spec.out_channels, spec.patch_len()])?;
        let out = conv2d_forward(&x, &wmat, &spec)?;

        let weight_id = weight.id;
        // dX needs only the weights and dW only the input: each is kept only
        // when the other operand requires a gradient.
        let wmat = self.requires_grad().then_some(wmat);
        let x = weight.requires_grad().then_some(x);
        let backward: BackwardFn = Box::new(move |grad| {
            let dx = wmat.as_ref().map(|wmat| {
                conv2d_backward_input(grad, wmat, &spec, h, wd).expect("forward fixed geometry")
            });
            let dw = x
                .as_ref()
                .map(|x| conv2d_backward_weight(x, grad, &spec).expect("forward fixed geometry"));
            needed([(self.id, dx), (weight_id, dw)])
        });
        let mut out_var = self.record_binary(weight, out, backward);
        if let Some(b) = bias {
            out_var = out_var.add(b)?;
        }
        Ok(out_var)
    }

    /// 2-D max pooling.
    ///
    /// # Errors
    ///
    /// Returns an error on geometry/shape mismatches.
    pub fn max_pool2d(self, spec: Pool2dSpec) -> Result<Var<'t>> {
        let x = self.value();
        let input_shape = x.shape().to_vec();
        let (out, argmax) = max_pool2d(&x, &spec)?;
        let backward: BackwardFn = Box::new(move |grad| {
            vec![(
                self.id,
                max_pool2d_backward(grad, &argmax, &input_shape).expect("forward fixed geometry"),
            )]
        });
        Ok(self.record_unary(out, backward))
    }

    /// 2-D average pooling.
    ///
    /// # Errors
    ///
    /// Returns an error on geometry/shape mismatches.
    pub fn avg_pool2d(self, spec: Pool2dSpec) -> Result<Var<'t>> {
        let x = self.value();
        let input_shape = x.shape().to_vec();
        let out = avg_pool2d(&x, &spec)?;
        let backward: BackwardFn = Box::new(move |grad| {
            vec![(
                self.id,
                avg_pool2d_backward(grad, &spec, &input_shape).expect("forward fixed geometry"),
            )]
        });
        Ok(self.record_unary(out, backward))
    }

    /// Global average pooling: `[n, c, h, w] → [n, c]`.
    ///
    /// # Errors
    ///
    /// Returns an error for non-rank-4 inputs.
    pub fn global_avg_pool(self) -> Result<Var<'t>> {
        let x = self.value();
        x.shape_obj().expect_rank(4, "global_avg_pool")?;
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let plane = (h * w) as f32;
        let mut out = Tensor::zeros(&[n, c]);
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                out.data_mut()[ni * c + ci] =
                    x.data()[base..base + h * w].iter().sum::<f32>() / plane;
            }
        }
        let backward: BackwardFn = Box::new(move |grad| {
            let mut g = Tensor::zeros(&[n, c, h, w]);
            for ni in 0..n {
                for ci in 0..c {
                    let gv = grad.data()[ni * c + ci] / plane;
                    let base = (ni * c + ci) * h * w;
                    for k in 0..h * w {
                        g.data_mut()[base + k] = gv;
                    }
                }
            }
            vec![(self.id, g)]
        });
        Ok(self.record_unary(out, backward))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    #[test]
    fn conv2d_identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1: output == input.
        let tape = Tape::new();
        let x_val = Tensor::from_fn(&[1, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f32);
        let x = tape.var(x_val.clone());
        let w = tape.var(Tensor::ones(&[1, 1, 1, 1]));
        let spec = Conv2dSpec::new(1, 1, 1, 1, 0);
        let y = x.conv2d(w, None, spec).unwrap();
        assert_eq!(y.value(), x_val);
    }

    #[test]
    fn conv2d_forward_matches_manual() {
        // 2x2 input, 2x2 kernel, no pad: single output = dot(input, kernel).
        let tape = Tape::new();
        let x = tape.var(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap());
        let w = tape.var(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[1, 1, 2, 2]).unwrap());
        let spec = Conv2dSpec::new(1, 1, 2, 1, 0);
        let y = x.conv2d(w, None, spec).unwrap();
        assert_eq!(y.value().data(), &[5.0]);
    }

    #[test]
    fn conv2d_bias_broadcasts() {
        let tape = Tape::new();
        let x = tape.var(Tensor::zeros(&[1, 1, 2, 2]));
        let w = tape.var(Tensor::zeros(&[2, 1, 1, 1]));
        let b = tape.var(Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap());
        let spec = Conv2dSpec::new(1, 2, 1, 1, 0);
        let y = x.conv2d(w, Some(b), spec).unwrap();
        assert_eq!(y.value().shape(), &[1, 2, 2, 2]);
        assert_eq!(y.value().data()[0], 1.0);
        assert_eq!(y.value().data()[4], -1.0);
    }

    #[test]
    fn conv2d_weight_gradient_via_sum_loss() {
        // L = sum(conv(x, w)); for 1x1 kernel dL/dw = sum(x).
        let tape = Tape::new();
        let x_val = Tensor::from_fn(&[1, 1, 2, 2], |i| (i[2] * 2 + i[3] + 1) as f32);
        let x = tape.var(x_val.clone());
        let w = tape.var(Tensor::ones(&[1, 1, 1, 1]));
        let spec = Conv2dSpec::new(1, 1, 1, 1, 0);
        let loss = x.conv2d(w, None, spec).unwrap().sum().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(w).unwrap().data(), &[10.0]);
        assert_eq!(grads.get(x).unwrap().data(), &[1.0; 4]);
    }

    #[test]
    fn max_pool_gradient_routes() {
        let tape = Tape::new();
        let x = tape.var(Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap());
        let loss = x.max_pool2d(Pool2dSpec::new(2, 2)).unwrap().sum().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_gradient_uniform() {
        let tape = Tape::new();
        let x = tape.var(Tensor::ones(&[1, 1, 2, 2]));
        let loss = x.avg_pool2d(Pool2dSpec::new(2, 2)).unwrap().sum().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[0.25; 4]);
    }

    #[test]
    fn global_avg_pool_shapes_and_grad() {
        let tape = Tape::new();
        let x = tape.var(Tensor::from_fn(&[2, 3, 2, 2], |i| i[1] as f32));
        let y = x.global_avg_pool().unwrap();
        assert_eq!(y.shape(), vec![2, 3]);
        assert_eq!(y.value().data()[1], 1.0);
        let loss = y.sum().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().data()[0], 0.25);
    }

    #[test]
    fn conv2d_rejects_wrong_weight_shape() {
        let tape = Tape::new();
        let x = tape.var(Tensor::zeros(&[1, 1, 4, 4]));
        let w = tape.var(Tensor::zeros(&[1, 2, 3, 3]));
        let spec = Conv2dSpec::new(1, 1, 3, 1, 1);
        assert!(x.conv2d(w, None, spec).is_err());
    }
}
