//! Dense layers with cached forward activations and exact backward
//! passes.

use crate::adam::{Adam, AdamConfig};
use crate::tensor::Matrix;
use rand::prelude::*;
use serde::Serialize;

/// A fully-connected layer `y = x W + b` with Adam state.
///
/// Activations are batch-major: `x` is `(batch, in_features)`, `y` is
/// `(batch, out_features)`, `W` is `(in_features, out_features)`.
#[derive(Debug, Clone, Serialize)]
pub struct Linear {
    w: Matrix,
    b: Vec<f64>,
    dw: Matrix,
    db: Vec<f64>,
    adam_w: Adam,
    adam_b: Adam,
    #[serde(skip)]
    input: Option<Matrix>,
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
            input: None,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.w.cols()
    }

    /// Parameter count (weights + biases).
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Forward pass; caches the input for the backward pass.
    ///
    /// # Panics
    ///
    /// Panics when `x.cols() != in_features`.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = x.matmul(&self.w).add_bias(&self.b);
        self.input = Some(x.clone());
        y
    }

    /// Forward pass without caching (inference only).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.matmul(&self.w).add_bias(&self.b)
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the input.
    ///
    /// # Panics
    ///
    /// Panics when called before [`Linear::forward`].
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self.input.as_ref().expect("backward before forward");
        self.dw = self.dw.add(&x.transpose().matmul(grad_out));
        let db = grad_out.column_sums();
        for (a, b) in self.db.iter_mut().zip(db) {
            *a += b;
        }
        grad_out.matmul(&self.w.transpose())
    }

    /// Applies accumulated gradients with Adam and clears them.
    pub fn apply_grads(&mut self, cfg: &AdamConfig) {
        self.adam_w.step(cfg, self.w.data_mut(), self.dw.data());
        self.adam_b.step(cfg, &mut self.b, &self.db);
        self.zero_grads();
    }

    /// Clears accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.dw = Matrix::zeros(self.w.rows(), self.w.cols());
        self.db = vec![0.0; self.b.len()];
    }

    /// Immutable weight access (testing / inspection).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Mutable weight access (gradient checking).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.w
    }

    /// Accumulated weight-gradient access (gradient checking).
    pub fn weight_grads(&self) -> &Matrix {
        &self.dw
    }
}

/// The rectified linear unit, `max(0, x)`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Relu {
    #[serde(skip)]
    mask: Option<Matrix>,
}

impl Relu {
    /// Forward pass; caches the activation mask.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = x.map(|v| v.max(0.0));
        self.mask = Some(x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        y
    }

    /// Forward pass without caching (inference only).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.map(|v| v.max(0.0))
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics when called before [`Relu::forward`] or on shape mismatch.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mask = self.mask.as_ref().expect("backward before forward");
        assert_eq!(
            (mask.rows(), mask.cols()),
            (grad_out.rows(), grad_out.cols()),
            "grad shape mismatch"
        );
        let mut out = grad_out.clone();
        for (o, m) in out.data_mut().iter_mut().zip(mask.data()) {
            *o *= m;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse;

    #[test]
    fn linear_forward_known_values() {
        let mut l = Linear::new(2, 2, 0);
        l.weights_mut().set(0, 0, 1.0);
        l.weights_mut().set(0, 1, 2.0);
        l.weights_mut().set(1, 0, 3.0);
        l.weights_mut().set(1, 1, 4.0);
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[4.0, 6.0]);
    }

    /// Finite-difference gradient check on a 2-layer MLP.
    #[test]
    fn gradients_match_finite_differences() {
        let mut l1 = Linear::new(3, 5, 7);
        let mut act = Relu::default();
        let mut l2 = Linear::new(5, 2, 8);
        let x = Matrix::from_rows(&[&[0.3, -0.7, 1.1], &[-0.2, 0.5, 0.9]]);
        let y = Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 0.25]]);

        // Analytic gradients.
        let h = l2.forward(&act.forward(&l1.forward(&x)));
        let (_, grad) = mse(&h, &y);
        let g = l2.backward(&grad);
        let g = act.backward(&g);
        let _ = l1.backward(&g);

        // Numeric gradient for a few weights of each layer.
        let eps = 1e-6;
        let loss_of = |l1: &Linear, act: &Relu, l2: &Linear| -> f64 {
            let h = l2.forward_inference(&act.forward_inference(&l1.forward_inference(&x)));
            mse(&h, &y).0
        };
        for (r, c) in [(0usize, 0usize), (1, 2), (2, 4)] {
            let analytic = l1.weight_grads().get(r, c);
            let orig = l1.weights().get(r, c);
            let mut lp = l1.clone();
            lp.weights_mut().set(r, c, orig + eps);
            let up = loss_of(&lp, &act, &l2);
            lp.weights_mut().set(r, c, orig - eps);
            let down = loss_of(&lp, &act, &l2);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-5 * (1.0 + numeric.abs()),
                "l1[{r},{c}]: analytic={analytic} numeric={numeric}"
            );
        }
        for (r, c) in [(0usize, 0usize), (4, 1)] {
            let analytic = l2.weight_grads().get(r, c);
            let orig = l2.weights().get(r, c);
            let mut lp = l2.clone();
            lp.weights_mut().set(r, c, orig + eps);
            let up = loss_of(&l1, &act, &lp);
            lp.weights_mut().set(r, c, orig - eps);
            let down = loss_of(&l1, &act, &lp);
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
        let mut act = Relu::default();
        let mut l2 = Linear::new(8, 1, 2);
        let cfg = AdamConfig {
            lr: 0.01,
            ..Default::default()
        };
        let xs: Vec<f64> = (0..32).map(|i| f64::from(i) / 16.0 - 1.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x - 1.0).collect();
        let x = Matrix::from_vec(32, 1, xs);
        let y = Matrix::from_vec(32, 1, ys);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..400 {
            let h = l2.forward(&act.forward(&l1.forward(&x)));
            let (loss, grad) = mse(&h, &y);
            first.get_or_insert(loss);
            last = loss;
            let g = l2.backward(&grad);
            let g = act.backward(&g);
            let _ = l1.backward(&g);
            l1.apply_grads(&cfg);
            l2.apply_grads(&cfg);
        }
        assert!(
            last < 0.05 * first.unwrap(),
            "first={:?} last={last}",
            first
        );
    }

    #[test]
    fn relu_masks_negative_gradients() {
        let mut r = Relu::default();
        let x = Matrix::from_rows(&[&[-1.0, 2.0]]);
        let y = r.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0]);
        let g = r.backward(&Matrix::from_rows(&[&[5.0, 5.0]]));
        assert_eq!(g.data(), &[0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut l = Linear::new(2, 2, 0);
        let _ = l.backward(&Matrix::zeros(1, 2));
    }
}
