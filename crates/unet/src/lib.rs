//! # seaice-unet
//!
//! The paper's U-Net sea-ice classifier (§III-C, Fig. 7), built on
//! `seaice-nn`: a contracting path of double-3×3-convolution blocks with
//! 2×2 max pooling, a bottleneck, and an expanding path of upsample +
//! channel-halving convolution + skip concatenation + double convolution,
//! closed by a 1×1 convolution onto the three class logits. Dropout sits
//! between the convolutions of every block, and training uses Adam with
//! categorical cross-entropy — all as in the paper.
//!
//! [`config::UNetConfig::paper`] reproduces the published shape (five
//! down-sampling steps, 28 convolutional layers, 256×256 inputs);
//! [`config::UNetConfig::cpu_small`] is the reduced configuration the
//! CPU-scale experiments run (same architecture family, smaller depth/
//! width/tiles).
//!
//! ```
//! use seaice_unet::{UNet, UNetConfig};
//!
//! let mut net = UNet::new(UNetConfig { depth: 1, base_filters: 4, ..UNetConfig::paper() });
//! let x = seaice_nn::Tensor::zeros(&[1, 3, 16, 16]);
//! let logits = net.forward(&x, false);
//! assert_eq!(logits.shape(), &[1, 3, 16, 16]); // per-pixel class logits
//! ```
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod model;
pub mod quant;
pub mod train;
mod walk;

pub use config::{UNetConfig, UpMode};
pub use model::UNet;
pub use quant::{CalibrationSet, InferBackend, QuantizedUNet, TileClassifier};
pub use train::{
    evaluate, train, train_validated, EvalReport, TrainConfig, TrainReport, ValidatedTrainConfig,
    ValidatedTrainReport,
};
