//! Differentiable signal operations used by N-HiTS: multi-rate average
//! pooling and hierarchical linear interpolation.
//!
//! N-HiTS (Challu et al., 2023) reduces computation and prediction
//! volatility by (1) sub-sampling each block's input at a block-specific
//! rate (pooling) and (2) predicting few coefficients at low temporal
//! resolution and interpolating them up to the forecast horizon. The
//! paper's Faro predictor inherits both. We use average pooling (one of
//! the standard N-HiTS configurations) because its gradient is exact and
//! dense.

use crate::tensor::Matrix;

/// 1-D average pooling over the feature axis with the given kernel size.
///
/// Input `(batch, len)` becomes `(batch, ceil(len / kernel))`; a ragged
/// final window averages only its members.
///
/// # Panics
///
/// Panics when `kernel == 0`.
///
/// # Examples
///
/// ```
/// use faro_nn::ops::avg_pool1d;
/// use faro_nn::Matrix;
///
/// let x = Matrix::from_rows(&[&[1.0, 3.0, 5.0, 7.0]]);
/// let y = avg_pool1d(&x, 2);
/// assert_eq!(y.data(), &[2.0, 6.0]);
/// ```
pub fn avg_pool1d(x: &Matrix, kernel: usize) -> Matrix {
    assert!(kernel > 0, "kernel must be positive");
    let out_len = x.cols().div_ceil(kernel);
    let mut out = Matrix::zeros(x.rows(), out_len);
    for r in 0..x.rows() {
        let row = x.row(r);
        for (o, chunk) in row.chunks(kernel).enumerate() {
            let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
            out.set(r, o, mean);
        }
    }
    out
}

/// Backward pass of [`avg_pool1d`]: distributes each pooled gradient
/// uniformly over its window.
///
/// # Panics
///
/// Panics when `grad.cols()` does not match `ceil(in_len / kernel)` or
/// `kernel == 0`.
pub fn avg_pool1d_backward(grad: &Matrix, in_len: usize, kernel: usize) -> Matrix {
    assert!(kernel > 0, "kernel must be positive");
    let out_len = in_len.div_ceil(kernel);
    assert_eq!(grad.cols(), out_len, "pooled gradient width mismatch");
    let mut out = Matrix::zeros(grad.rows(), in_len);
    for r in 0..grad.rows() {
        for o in 0..out_len {
            let start = o * kernel;
            let end = (start + kernel).min(in_len);
            let share = grad.get(r, o) / (end - start) as f64;
            for c in start..end {
                out.set(r, c, share);
            }
        }
    }
    out
}

/// Linear interpolation of each row from `x.cols()` knots to `out_len`
/// samples (endpoints aligned).
///
/// This is a linear map, so its backward pass is the transposed map
/// ([`interp1d_backward`]).
///
/// # Panics
///
/// Panics when `x` has zero columns or `out_len == 0`.
///
/// # Examples
///
/// ```
/// use faro_nn::ops::interp1d;
/// use faro_nn::Matrix;
///
/// let knots = Matrix::from_rows(&[&[0.0, 2.0]]);
/// let y = interp1d(&knots, 5);
/// assert_eq!(y.data(), &[0.0, 0.5, 1.0, 1.5, 2.0]);
/// ```
pub fn interp1d(x: &Matrix, out_len: usize) -> Matrix {
    assert!(x.cols() > 0 && out_len > 0, "empty interpolation");
    let weights: Vec<_> = (0..out_len)
        .map(|o| interp_indices(x.cols(), out_len, o))
        .collect();
    let mut out = Matrix::zeros(x.rows(), out_len);
    let rows = out
        .data_mut()
        .chunks_exact_mut(out_len)
        .zip(x.data().chunks_exact(x.cols()));
    for (out_row, row) in rows {
        for (o, &(i0, i1, w1)) in out_row.iter_mut().zip(&weights) {
            *o = row[i0] * (1.0 - w1) + row[i1] * w1;
        }
    }
    out
}

/// Backward pass of [`interp1d`]: scatters output gradients back to the
/// knot positions with the same interpolation weights.
///
/// # Panics
///
/// Panics when `in_len == 0` or `grad` has zero columns.
pub fn interp1d_backward(grad: &Matrix, in_len: usize) -> Matrix {
    assert!(in_len > 0 && grad.cols() > 0, "empty interpolation");
    let out_len = grad.cols();
    let weights: Vec<_> = (0..out_len)
        .map(|o| interp_indices(in_len, out_len, o))
        .collect();
    let mut out = Matrix::zeros(grad.rows(), in_len);
    let rows = out
        .data_mut()
        .chunks_exact_mut(in_len)
        .zip(grad.data().chunks_exact(out_len));
    for (out_row, row) in rows {
        for (&g, &(i0, i1, w1)) in row.iter().zip(&weights) {
            out_row[i0] += g * (1.0 - w1);
            out_row[i1] += g * w1;
        }
    }
    out
}

/// Knot indices and weight for output position `o` when interpolating
/// `in_len` knots to `out_len` samples.
fn interp_indices(in_len: usize, out_len: usize, o: usize) -> (usize, usize, f64) {
    if in_len == 1 || out_len == 1 {
        return (0, 0, 0.0);
    }
    let pos = o as f64 * (in_len - 1) as f64 / (out_len - 1) as f64;
    let i0 = pos.floor() as usize;
    let i1 = (i0 + 1).min(in_len - 1);
    (i0, i1, pos - i0 as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_ragged_window() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 10.0]]);
        let y = avg_pool1d(&x, 2);
        assert_eq!(y.data(), &[1.5, 3.5, 10.0]);
    }

    #[test]
    fn pool_kernel_one_is_identity() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        assert_eq!(avg_pool1d(&x, 1), x);
    }

    #[test]
    fn interp_identity_when_same_len() {
        let x = Matrix::from_rows(&[&[1.0, 5.0, 2.0, 8.0]]);
        let y = interp1d(&x, 4);
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn interp_preserves_endpoints() {
        let x = Matrix::from_rows(&[&[3.0, -1.0, 4.0]]);
        let y = interp1d(&x, 9);
        assert!((y.get(0, 0) - 3.0).abs() < 1e-12);
        assert!((y.get(0, 8) - 4.0).abs() < 1e-12);
    }

    /// Pool backward is the exact adjoint: <pool(x), g> == <x, pool^T(g)>.
    #[test]
    fn pool_backward_is_adjoint() {
        let x = Matrix::from_rows(&[&[0.3, 1.2, -0.5, 2.0, 0.7]]);
        let g = Matrix::from_rows(&[&[1.0, -2.0, 0.5]]);
        let fwd = avg_pool1d(&x, 2);
        let bwd = avg_pool1d_backward(&g, 5, 2);
        let lhs: f64 = fwd.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.data().iter().zip(bwd.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    /// Interp backward is the exact adjoint of interp forward.
    #[test]
    fn interp_backward_is_adjoint() {
        let x = Matrix::from_rows(&[&[0.3, 1.2, -0.5]]);
        let g = Matrix::from_rows(&[&[1.0, -2.0, 0.5, 0.25, 3.0, -1.0, 0.1]]);
        let fwd = interp1d(&x, 7);
        let bwd = interp1d_backward(&g, 3);
        let lhs: f64 = fwd.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.data().iter().zip(bwd.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn single_knot_broadcasts() {
        let x = Matrix::from_rows(&[&[7.0]]);
        let y = interp1d(&x, 4);
        assert_eq!(y.data(), &[7.0, 7.0, 7.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn zero_kernel_panics() {
        let _ = avg_pool1d(&Matrix::zeros(1, 4), 0);
    }
}
