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
//!   and, for a network's walk, their forward and backward passes from and
//!   into reused haloed [`ops::Planes`] through an [`ops::Sink`], which
//!   can store through ReLU or, for a gradient, through a ReLU / dropout
//!   mask;
//! * [`loss`] — fused softmax + categorical cross-entropy over per-pixel
//!   class targets;
//! * [`optim`] — SGD and Adam (the paper's optimizer);
//! * [`layers`] — trainable [`layers::Param`]s and the convolution
//!   parameter holders a network is assembled from;
//! * [`dataloader`] — mini-batches of the samples as given, reshuffled
//!   each epoch.
//!
//! Determinism: every random component (init, dropout, shuffling) draws
//! from a `seaice_faults::rng::ChaCha8` seeded explicitly; the same seed
//! reproduces the same training run bit-for-bit, which the
//! distributed-equivalence tests in `seaice-distrib` rely on.
//!
//! ```
//! use seaice_nn::layers::Conv2d;
//! use seaice_nn::ops::conv2d::Conv2dShape;
//! use seaice_nn::ops::{conv2d, conv2d_backward};
//! use seaice_nn::Tensor;
//!
//! let conv = Conv2d::new(
//!     Conv2dShape { in_channels: 3, out_channels: 8, kernel: 3, stride: 1, pad: 1 },
//!     42,
//! );
//! let (w, b) = (&conv.weight().value, &conv.bias().value);
//! let x = Tensor::zeros(&[2, 3, 16, 16]);
//! let y = conv2d(&x, w, b, conv.shape());
//! assert_eq!(y.shape(), &[2, 8, 16, 16]);       // "same" convolution
//! let (dx, dw, db) = conv2d_backward(&x, w, &Tensor::zeros(y.shape()), conv.shape());
//! assert_eq!((dx.shape(), dw.shape(), db.shape()), (x.shape(), w.shape(), b.shape()));
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

pub use layers::Param;
pub use tensor::Tensor;
