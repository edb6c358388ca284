//! A minimal dense neural-network substrate with manual backpropagation.
//!
//! Faro's workload predictor is an N-HiTS network (paper Sec. 3.5). The
//! paper uses Darts/PyTorch; this crate provides the small set of
//! building blocks needed to implement N-HiTS from scratch in safe
//! Rust:
//!
//! - [`tensor::Matrix`]: a row-major `f64` matrix with the handful of
//!   BLAS-like kernels the models need.
//! - [`layer`]: `Linear` and `ReLU` layers with cached activations and
//!   exact backward passes.
//! - [`ops`]: average pooling (multi-rate signal sampling) and linear
//!   interpolation (hierarchical interpolation), both differentiable.
//! - [`loss`]: mean-squared error and Gaussian negative-log-likelihood
//!   (the probabilistic head).
//! - [`adam`]: the Adam optimizer, one state per parameter tensor.
//!
//! Gradient correctness is enforced by finite-difference checks in the
//! test-suite of every module.
//!
//! # Examples
//!
//! ```
//! use faro_nn::layer::{Linear, Relu};
//! use faro_nn::loss::mse;
//! use faro_nn::tensor::Matrix;
//!
//! let mut l1 = Linear::new(4, 8, 1);
//! let mut act = Relu::default();
//! let mut l2 = Linear::new(8, 1, 2);
//!
//! let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3, 0.4]]);
//! let y = Matrix::from_rows(&[&[1.0]]);
//! let h = l2.forward(&act.forward(&l1.forward(&x)));
//! let (loss, grad) = mse(&h, &y);
//! assert!(loss >= 0.0);
//! let g = l2.backward(&grad);
//! let g = act.backward(&g);
//! let _ = l1.backward(&g);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adam;
pub mod layer;
pub mod loss;
pub mod ops;
pub mod tensor;

pub use adam::{Adam, AdamConfig};
pub use layer::{Linear, Relu};
pub use tensor::Matrix;
