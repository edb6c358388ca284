//! The Adam optimizer (Kingma & Ba, 2015).
//!
//! Each parameter tensor owns one [`Adam`] state; layers call
//! [`Adam::step`] with their accumulated gradients.

/// First-moment decay.
pub const BETA1: f64 = 0.9;
/// Second-moment decay.
pub const BETA2: f64 = 0.999;
/// Numerical-stability epsilon.
pub const EPS: f64 = 1e-8;

/// Per-tensor Adam state (first and second moment estimates).
#[derive(Debug, Clone)]
pub struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// State for a parameter tensor of `len` scalars.
    pub fn new(len: usize) -> Self {
        Self {
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
        }
    }

    /// Applies one Adam update at learning rate `lr` to `params` given
    /// `grads`.
    ///
    /// # Panics
    ///
    /// Panics when the lengths of `params`, `grads`, and the state do not
    /// match.
    pub fn step(&mut self, lr: f64, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "param/state length mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad/state length mismatch");
        self.t += 1;
        let t = self.t as i32;
        let bc1 = 1.0 - BETA1.powi(t);
        let bc2 = 1.0 - BETA2.powi(t);
        let state = self.m.iter_mut().zip(&mut self.v);
        for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(state) {
            let g = if g.is_finite() { g } else { 0.0 };
            *m = BETA1 * *m + (1.0 - BETA1) * g;
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        // Minimize (x - 3)^2 by gradient descent with Adam.
        let mut x = vec![0.0f64];
        let mut adam = Adam::new(1);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            adam.step(0.1, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x = {}", x[0]);
    }

    #[test]
    fn first_step_moves_by_lr() {
        // Adam's bias correction makes the first step approximately lr in
        // the gradient direction regardless of gradient magnitude.
        let mut x = vec![0.0f64];
        let mut adam = Adam::new(1);
        adam.step(0.01, &mut x, &[1234.5]);
        assert!((x[0] + 0.01).abs() < 1e-6, "x = {}", x[0]);
        assert_eq!(adam.t, 1);
    }

    #[test]
    fn nonfinite_gradients_are_ignored() {
        let mut x = vec![1.0f64];
        let mut adam = Adam::new(1);
        adam.step(1e-3, &mut x, &[f64::NAN]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!(x[0].is_finite());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut adam = Adam::new(2);
        let mut p = vec![0.0];
        adam.step(1e-3, &mut p, &[0.0]);
    }
}
