//! A dense layer and the ReLU activation, with exact backward passes.
//!
//! Nothing here keeps activations: a forward pass is a pure function of
//! its input, and a backward pass takes the input its forward pass saw.
//! The caller keeps whatever the backward pass needs (N-HiTS keeps one
//! small tape per block while training and nothing at inference).

use crate::adam::Adam;
use crate::tensor::Matrix;
use rand::prelude::*;

/// A fully-connected layer `y = x W + b` with Adam state.
///
/// Activations are batch-major: `x` is `(batch, in_features)`, `y` is
/// `(batch, out_features)`, `W` is `(in_features, out_features)`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Matrix,
    b: Vec<f64>,
    dw: Matrix,
    db: Vec<f64>,
    adam_w: Adam,
    adam_b: Adam,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform initialization from a seed.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11ea_c0de);
        let bound = (6.0 / in_features as f64).sqrt();
        let mut w = Matrix::zeros(in_features, out_features);
        for v in w.data_mut() {
            *v = rng.gen_range(-bound..bound);
        }
        Self {
            w,
            b: vec![0.0; out_features],
            dw: Matrix::zeros(in_features, out_features),
            db: vec![0.0; out_features],
            adam_w: Adam::new(in_features * out_features),
            adam_b: Adam::new(out_features),
        }
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics when `x.cols() != in_features`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        for (v, b) in y.data_mut().iter_mut().zip(self.b.iter().cycle()) {
            *v += b;
        }
        y
    }

    /// Backward pass: given the input `x` of the forward pass and the
    /// gradient with respect to its output, accumulates parameter
    /// gradients and returns the gradient with respect to `x`.
    ///
    /// # Panics
    ///
    /// Panics when the shapes of `x` and `grad_out` do not match the
    /// layer.
    pub fn backward(&mut self, x: &Matrix, grad_out: &Matrix) -> Matrix {
        self.dw.add_t_matmul(x, grad_out);
        let cols = grad_out.cols();
        for (c, db) in self.db.iter_mut().enumerate() {
            // Summed from `0.0`, then added (`f64`'s `Sum` starts from
            // `-0.0`, which an all-`-0.0` column would keep).
            let column = grad_out.data().iter().skip(c).step_by(cols);
            *db += column.fold(0.0, |sum, g| sum + g);
        }
        grad_out.matmul(&self.w.transpose())
    }

    /// Applies accumulated gradients with Adam at learning rate `lr` and
    /// clears them.
    pub fn apply_grads(&mut self, lr: f64) {
        self.adam_w.step(lr, self.w.data_mut(), self.dw.data());
        self.adam_b.step(lr, &mut self.b, &self.db);
        self.dw.data_mut().fill(0.0);
        self.db.fill(0.0);
    }
}

/// The rectified linear unit, `max(0, x)`, element-wise.
pub fn relu(x: &Matrix) -> Matrix {
    x.map(|v| v.max(0.0))
}

/// Backward pass of [`relu`]: given its input `x`, passes `grad` where
/// `x > 0` and zeroes it elsewhere.
///
/// # Panics
///
/// Panics when `x` and `grad` differ in shape.
pub fn relu_backward(x: &Matrix, grad: &Matrix) -> Matrix {
    assert_eq!(
        (x.rows(), x.cols()),
        (grad.rows(), grad.cols()),
        "grad shape mismatch"
    );
    let mut out = grad.clone();
    // A multiply by the 0/1 mask, not a select: `-g * 0.0` stays `-0.0`.
    for (o, &v) in out.data_mut().iter_mut().zip(x.data()) {
        *o *= if v > 0.0 { 1.0 } else { 0.0 };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse;

    #[test]
    fn linear_forward_known_values() {
        let mut l = Linear::new(2, 2, 0);
        l.w = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        l.b = vec![10.0, 20.0];
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0]]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[14.0, 26.0, 11.0, 22.0]);
    }

    /// Finite-difference gradient check on a 2-layer MLP.
    #[test]
    fn gradients_match_finite_differences() {
        let mut l1 = Linear::new(3, 5, 7);
        let mut l2 = Linear::new(5, 2, 8);
        let x = Matrix::from_rows(&[&[0.3, -0.7, 1.1], &[-0.2, 0.5, 0.9]]);
        let y = Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 0.25]]);

        // Analytic gradients.
        let a = l1.forward(&x);
        let h = relu(&a);
        let (_, grad) = mse(&l2.forward(&h), &y);
        let g = l2.backward(&h, &grad);
        let _ = l1.backward(&x, &relu_backward(&a, &g));

        // Numeric gradient for a few weights of each layer.
        let eps = 1e-6;
        let loss_of = |l1: &Linear, l2: &Linear| mse(&l2.forward(&relu(&l1.forward(&x))), &y).0;
        for (r, c) in [(0usize, 0usize), (1, 2), (2, 4)] {
            let analytic = l1.dw.get(r, c);
            let orig = l1.w.get(r, c);
            let mut lp = l1.clone();
            lp.w.set(r, c, orig + eps);
            let up = loss_of(&lp, &l2);
            lp.w.set(r, c, orig - eps);
            let down = loss_of(&lp, &l2);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-5 * (1.0 + numeric.abs()),
                "l1[{r},{c}]: analytic={analytic} numeric={numeric}"
            );
        }
        for c in 0..2 {
            let analytic = l2.db[c];
            let mut lp = l2.clone();
            lp.b[c] += eps;
            let up = loss_of(&l1, &lp);
            lp.b[c] -= 2.0 * eps;
            let down = loss_of(&l1, &lp);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-5 * (1.0 + numeric.abs()),
                "l2.b[{c}]: analytic={analytic} numeric={numeric}"
            );
        }
        for (r, c) in [(0usize, 0usize), (4, 1)] {
            let analytic = l2.dw.get(r, c);
            let orig = l2.w.get(r, c);
            let mut lp = l2.clone();
            lp.w.set(r, c, orig + eps);
            let up = loss_of(&l1, &lp);
            lp.w.set(r, c, orig - eps);
            let down = loss_of(&l1, &lp);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-5 * (1.0 + numeric.abs()),
                "l2[{r},{c}]: analytic={analytic} numeric={numeric}"
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        // Fit y = 2x - 1 with a tiny MLP.
        let mut l1 = Linear::new(1, 8, 1);
        let mut l2 = Linear::new(8, 1, 2);
        let xs: Vec<f64> = (0..32).map(|i| f64::from(i) / 16.0 - 1.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x - 1.0).collect();
        let x = Matrix::from_vec(32, 1, xs);
        let y = Matrix::from_vec(32, 1, ys);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..400 {
            let a = l1.forward(&x);
            let h = relu(&a);
            let (loss, grad) = mse(&l2.forward(&h), &y);
            first.get_or_insert(loss);
            last = loss;
            let g = l2.backward(&h, &grad);
            let _ = l1.backward(&x, &relu_backward(&a, &g));
            l1.apply_grads(0.01);
            l2.apply_grads(0.01);
        }
        assert!(
            last < 0.05 * first.unwrap(),
            "first={:?} last={last}",
            first
        );
    }

    #[test]
    fn relu_masks_negative_gradients() {
        let x = Matrix::from_rows(&[&[-1.0, 2.0]]);
        assert_eq!(relu(&x).data(), &[0.0, 2.0]);
        let g = relu_backward(&x, &Matrix::from_rows(&[&[5.0, 5.0]]));
        assert_eq!(g.data(), &[0.0, 5.0]);
    }
}
