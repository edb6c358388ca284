//! A minimal dense neural-network substrate with manual backpropagation.
//!
//! Faro's workload predictor is an N-HiTS network (paper Sec. 3.5). The
//! paper uses Darts/PyTorch; this crate provides the small set of
//! building blocks needed to implement N-HiTS from scratch in safe
//! Rust:
//!
//! - [`tensor::Matrix`]: a row-major `f64` matrix with the handful of
//!   BLAS-like kernels the models need.
//! - [`layer`]: the `Linear` layer and the `relu` activation. They keep
//!   no activations: a backward pass takes the input its forward pass
//!   saw, so training and inference run the same forward pass.
//! - [`ops`]: average pooling (multi-rate signal sampling) and linear
//!   interpolation (hierarchical interpolation), both differentiable.
//! - [`loss`]: Gaussian negative-log-likelihood (the probabilistic head).
//! - [`adam`]: the Adam optimizer, one state per parameter tensor.
//!
//! Gradient correctness is enforced by finite-difference checks in the
//! test-suite of every module.
//!
//! # Bit contract
//!
//! Training is deterministic to the bit, and the kernels keep it so.
//! Every element of a matrix product ([`Matrix::matmul`], and the
//! `xᵀ·g` weight gradient of [`Linear::backward`]) is the naive loop's
//! sum: it starts from `0.0` and adds `a·b` for `k` ascending, skipping
//! exactly the terms whose left factor `a` is `0.0` or `-0.0` (a NaN is
//! kept), with no fused multiply-add. The register-blocked kernel only
//! reorders which sums run side by side; a property test holds it to
//! the naive loop bit for bit on inputs full of zeros, `-0.0`, NaN and
//! infinities (a NaN result is only checked to be NaN: Rust leaves the
//! sign and payload of an arithmetic NaN unspecified).
//!
//! # Examples
//!
//! ```
//! use faro_nn::layer::{relu, relu_backward, Linear};
//! use faro_nn::loss::gaussian_nll;
//! use faro_nn::tensor::Matrix;
//!
//! let mut l1 = Linear::new(4, 8, 1);
//! let mut l2 = Linear::new(8, 2, 2);
//!
//! // One (mu, raw_sigma) pair for one target.
//! let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3, 0.4]]);
//! let y = Matrix::from_rows(&[&[1.0]]);
//! let a = l1.forward(&x);
//! let h = relu(&a);
//! let (mu, raw_sigma) = l2.forward(&h).hsplit(1);
//! let (loss, d_mu, d_sigma) = gaussian_nll(&mu, &raw_sigma, &y, 1e-3);
//! assert!(loss.is_finite());
//! let g = l2.backward(&h, &d_mu.hcat(&d_sigma));
//! let _ = l1.backward(&x, &relu_backward(&a, &g));
//! l1.apply_grads(1e-3);
//! l2.apply_grads(1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code of this crate trains and runs the predictor inside long
// sweeps: a panic is a typed error not yet written. Test code is exempt
// through clippy.toml.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod adam;
pub mod layer;
pub mod loss;
pub mod ops;
pub mod tensor;

pub use adam::Adam;
pub use layer::Linear;
pub use tensor::Matrix;
