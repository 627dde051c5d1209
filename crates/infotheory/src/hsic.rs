//! The Hilbert–Schmidt Independence Criterion.
//!
//! Biased estimator (Gretton et al. 2005):
//! `HSIC(X, Y) = tr(K_x H K_y H) / (m − 1)²` with Gaussian kernels and the
//! centering matrix `H = I − (1/m) 𝟙𝟙ᵀ`.

use crate::{InfoError, Result};
use ibrar_autograd::Var;
use ibrar_telemetry as tel;
use ibrar_tensor::{parallel, simd, Tensor};

/// Median-of-pairwise-distances kernel-width heuristic.
///
/// Returns a floor of `1e-3` so degenerate (constant) batches never produce
/// a zero kernel width.
pub fn median_sigma(x: &Tensor) -> f32 {
    let m = x.shape().first().copied().unwrap_or(0);
    if m < 2 {
        return 1.0;
    }
    let d = x.len() / m;
    let data = x.data();
    // The O(m²·d) pairwise loop is chunked by leading row `i`; per-chunk
    // distance vectors are concatenated in chunk order, which reproduces the
    // serial `(i, j)` push order exactly, so the sorted median is bitwise
    // identical for any thread count. Each distance uses the fixed 8-lane
    // accumulation order of `sqdist8` (shared with the oracle reference).
    //
    // The σ widths feed the trainer's stop-gradient prepass and the bitwise
    // goldens, and the oracle's `median_sigma` transcribes this exact lane
    // order (DESIGN.md §12), so the order is part of the numeric contract.
    let threads = parallel::threads_for(m * m * d / 2);
    let mut dists: Vec<f32> = parallel::run_chunked(m, threads, |rows| {
        let mut part = Vec::new();
        for i in rows {
            for j in (i + 1)..m {
                part.push(
                    simd::sqdist8(&data[i * d..(i + 1) * d], &data[j * d..(j + 1) * d]).sqrt(),
                );
            }
        }
        part
    })
    .into_iter()
    .flatten()
    .collect();
    dists.sort_by(f32::total_cmp);
    dists[dists.len() / 2].max(1e-3)
}

/// The centering matrix `H = I − (1/m) 𝟙𝟙ᵀ`.
pub(crate) fn centering(m: usize) -> Tensor {
    Tensor::from_fn(&[m, m], |idx| {
        let base = -1.0 / m as f32;
        if idx[0] == idx[1] {
            1.0 + base
        } else {
            base
        }
    })
}

/// One-hot encodes labels into `[n, num_classes]`.
///
/// # Errors
///
/// Returns [`InfoError::Invalid`] for out-of-range labels.
pub fn one_hot(labels: &[usize], num_classes: usize) -> Result<Tensor> {
    let mut out = Tensor::zeros(&[labels.len(), num_classes]);
    for (i, &y) in labels.iter().enumerate() {
        if y >= num_classes {
            return Err(InfoError::Invalid(format!(
                "label {y} out of range for {num_classes} classes"
            )));
        }
        out.data_mut()[i * num_classes + y] = 1.0;
    }
    Ok(out)
}

/// One-hot encodes labels as a constant (leaf) tape variable.
///
/// # Errors
///
/// Returns [`InfoError::Invalid`] for out-of-range labels.
pub fn one_hot_var<'t>(
    tape: &'t ibrar_autograd::Tape,
    labels: &[usize],
    num_classes: usize,
) -> Result<Var<'t>> {
    Ok(tape.leaf(one_hot(labels, num_classes)?))
}

/// Differentiable biased HSIC between two `[m, ·]` tape variables.
///
/// Gradients flow into both arguments (leaves simply ignore theirs). Inputs
/// of rank > 2 must be flattened with
/// [`Var::flatten_batch`](ibrar_autograd::Var::flatten_batch) first.
///
/// # Errors
///
/// Returns an error for mismatched batch sizes, tiny batches (`m < 2`), or
/// non-positive kernel widths.
pub fn hsic_var<'t>(x: Var<'t>, y: Var<'t>, sigma_x: f32, sigma_y: f32) -> Result<Var<'t>> {
    let m = x.shape().first().copied().unwrap_or(0);
    let my = y.shape().first().copied().unwrap_or(0);
    if m != my {
        return Err(InfoError::Invalid(format!(
            "HSIC batch sizes disagree: {m} vs {my}"
        )));
    }
    if m < 2 {
        return Err(InfoError::Invalid(format!(
            "HSIC needs at least 2 samples, got {m}"
        )));
    }
    let tape = x.tape();
    let h = tape.leaf(centering(m));
    let (kx, ky) = {
        let _s = tel::span!("hsic.kernel");
        (x.gaussian_kernel(sigma_x)?, y.gaussian_kernel(sigma_y)?)
    };
    let _s = tel::span!("hsic.center");
    // tr(Kx H Ky H) = sum((Kx H) ⊙ (Ky H)ᵀ)
    let kxh = kx.matmul(h)?;
    let kyh = ky.matmul(h)?;
    let prod = kxh.mul(kyh.transpose()?)?;
    let scale = 1.0 / ((m - 1) as f32 * (m - 1) as f32);
    Ok(prod.sum()?.scale(scale))
}

/// Biased HSIC on raw tensors (no gradients).
///
/// # Errors
///
/// Same conditions as [`hsic_var`].
pub fn hsic(x: &Tensor, y: &Tensor, sigma_x: f32, sigma_y: f32) -> Result<f32> {
    let tape = ibrar_autograd::Tape::new();
    let xv = tape.leaf(flatten_to_matrix(x)?);
    let yv = tape.leaf(flatten_to_matrix(y)?);
    Ok(hsic_var(xv, yv, sigma_x, sigma_y)?.value().data()[0])
}

/// Reshapes `[n, ...]` to `[n, d]`.
fn flatten_to_matrix(t: &Tensor) -> Result<Tensor> {
    let n = *t
        .shape()
        .first()
        .ok_or_else(|| InfoError::Invalid("rank-0 tensor".into()))?;
    let d = t.len().checked_div(n).unwrap_or(0);
    Ok(t.reshape(&[n, d])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibrar_autograd::Tape;

    #[test]
    fn hsic_detects_dependence() {
        // y = x (strong dependence) vs y independent of x.
        let x = Tensor::from_fn(&[8, 2], |i| (i[0] as f32) * 0.3 + i[1] as f32);
        let y_dep = x.clone();
        let y_indep = Tensor::from_fn(&[8, 2], |i| ((i[0] * 13 + 7 * i[1]) % 5) as f32);
        let s = median_sigma(&x);
        let dep = hsic(&x, &y_dep, s, s).unwrap();
        let indep = hsic(&x, &y_indep, s, median_sigma(&y_indep)).unwrap();
        assert!(dep > indep, "dep {dep} !> indep {indep}");
    }

    #[test]
    fn hsic_nonnegative_and_zero_for_constant() {
        let x = Tensor::ones(&[6, 3]);
        let y = Tensor::from_fn(&[6, 2], |i| i[0] as f32);
        let v = hsic(&x, &y, 1.0, 1.0).unwrap();
        assert!(
            v.abs() < 1e-5,
            "constant input should carry no information: {v}"
        );
    }

    #[test]
    fn hsic_is_symmetric() {
        let x = Tensor::from_fn(&[7, 3], |i| ((i[0] * 3 + i[1]) % 5) as f32 * 0.4);
        let y = Tensor::from_fn(&[7, 2], |i| ((i[0] * 7 + i[1]) % 3) as f32);
        let a = hsic(&x, &y, 1.0, 1.5).unwrap();
        let b = hsic(&y, &x, 1.5, 1.0).unwrap();
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn hsic_var_backward_flows_to_features() {
        let tape = Tape::new();
        let x = tape.var(Tensor::from_fn(&[5, 2], |i| (i[0] + i[1]) as f32 * 0.5));
        let y = tape.leaf(one_hot(&[0, 1, 0, 1, 0], 2).unwrap());
        let loss = hsic_var(x, y, 1.0, 1.0).unwrap();
        let grads = tape.backward(loss).unwrap();
        let g = grads.get(x).unwrap();
        assert!(g.all_finite());
        assert!(g.abs().max() > 0.0, "gradient should be nonzero");
    }

    #[test]
    fn batch_size_mismatch_rejected() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[4, 2]));
        let y = tape.leaf(Tensor::zeros(&[5, 2]));
        assert!(hsic_var(x, y, 1.0, 1.0).is_err());
    }

    #[test]
    fn tiny_batch_rejected() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[1, 2]));
        let y = tape.leaf(Tensor::zeros(&[1, 2]));
        assert!(hsic_var(x, y, 1.0, 1.0).is_err());
    }

    #[test]
    fn median_sigma_reasonable() {
        let x = Tensor::from_vec(vec![0.0, 0.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert!((median_sigma(&x) - 5.0).abs() < 1e-5);
        // constant batch gets the floor, not zero
        assert!(median_sigma(&Tensor::ones(&[4, 2])) >= 1e-3);
        // single sample falls back to 1
        assert_eq!(median_sigma(&Tensor::ones(&[1, 2])), 1.0);
    }

    #[test]
    fn median_sigma_bitwise_across_thread_counts() {
        let x = Tensor::from_fn(&[17, 6], |i| {
            ((i[0] * 13 + i[1] * 7) % 23) as f32 * 0.37 - 2.0
        });
        let serial = {
            let _g = parallel::with_threads(1);
            median_sigma(&x)
        };
        for threads in [2, 4, 8] {
            let par = {
                let _g = parallel::with_threads(threads);
                median_sigma(&x)
            };
            assert_eq!(serial.to_bits(), par.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn one_hot_shapes_and_validation() {
        let oh = one_hot(&[2, 0], 3).unwrap();
        assert_eq!(oh.shape(), &[2, 3]);
        assert_eq!(oh.data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
        assert!(one_hot(&[3], 3).is_err());
    }

    #[test]
    fn high_rank_input_flattened() {
        let x = Tensor::from_fn(&[4, 2, 2, 2], |i| (i[0] + i[3]) as f32);
        let y = one_hot(&[0, 1, 0, 1], 2).unwrap();
        assert!(hsic(&x, &y, 1.0, 1.0).is_ok());
    }
}
