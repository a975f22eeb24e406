//! # seaice-nn
//!
//! A from-scratch CPU deep-learning substrate replacing the
//! TensorFlow/Keras stack the paper trains its U-Net with. It provides
//! exactly what a U-Net needs, implemented directly and verified by
//! finite-difference gradient checks:
//!
//! * [`tensor::Tensor`] — dense NCHW `f32` tensors;
//! * [`ops`] — conv2d forward/backward as direct register-tiled kernels
//!   (bit-identical to the matmul + im2col/col2im lowering, which stays as
//!   their test oracle), int8 inference kernels, 2×2 max-pool,
//!   nearest-neighbour upsample, channel concatenation, ReLU, dropout —
//!   and, for an inference walk, their forward passes from and into
//!   reused haloed [`ops::Planes`] through an [`ops::Sink`];
//! * [`loss`] — fused softmax + categorical cross-entropy over per-pixel
//!   class targets;
//! * [`optim`] — SGD and Adam (the paper's optimizer);
//! * [`layers`] — a small object-safe `Layer` abstraction with trainable
//!   [`layers::Param`]s, enough to assemble encoder/decoder networks;
//! * [`dataloader`] — shuffled mini-batches with optional flip
//!   augmentation.
//!
//! Determinism: every random component (init, dropout, shuffling) is
//! seeded explicitly; the same seed reproduces the same training run
//! bit-for-bit, which the distributed-equivalence tests in
//! `seaice-distrib` rely on.
//!
//! ```
//! use seaice_nn::layers::{Conv2d, Layer};
//! use seaice_nn::ops::conv2d::Conv2dShape;
//! use seaice_nn::Tensor;
//!
//! let mut conv = Conv2d::new(
//!     Conv2dShape { in_channels: 3, out_channels: 8, kernel: 3, stride: 1, pad: 1 },
//!     42,
//! );
//! let x = Tensor::zeros(&[2, 3, 16, 16]);
//! let y = conv.forward(&x, true);
//! assert_eq!(y.shape(), &[2, 8, 16, 16]);       // "same" convolution
//! let dx = conv.backward(&Tensor::zeros(y.shape()));
//! assert_eq!(dx.shape(), x.shape());
//! ```
// `deny`, not `forbid`: the one audited `#[allow]` is `ops::dispatch`.
#![deny(unsafe_code)]

pub mod dataloader;
pub mod init;
pub mod layers;
pub mod loss;
pub mod ops;
pub mod optim;
pub mod tensor;

pub use layers::{Layer, Param};
pub use tensor::Tensor;
