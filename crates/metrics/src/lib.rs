//! # seaice-metrics
//!
//! Evaluation metrics used throughout the paper's experiments:
//!
//! * [`confusion::ConfusionMatrix`] — the column-normalized confusion
//!   matrix of Fig. 13 (each column is a true class and sums to 100 %),
//! * [`classification`] — overall accuracy, per-class and macro-averaged
//!   precision / recall / F1 (Table IV),
//! * [`ssim`] — the Structural Similarity Index used to score auto-labels
//!   against manual labels (89 % / 99.64 % in §IV-B).
//!
//! ```
//! use seaice_metrics::{classification_report, mean_iou, ConfusionMatrix};
//!
//! let mut m = ConfusionMatrix::new(3);
//! for (pred, truth) in [(0, 0), (0, 0), (1, 1), (2, 1), (2, 2)] {
//!     m.record(pred, truth);
//! }
//! assert!((m.accuracy() - 0.8).abs() < 1e-12);
//! let report = classification_report(&m);
//! assert!(report.macro_f1 > 0.7);
//! assert!(mean_iou(&m) > 0.6);
//! ```
#![forbid(unsafe_code)]

pub mod classification;
pub mod confusion;
pub mod ssim;

pub use classification::{classification_report, dice, iou, mean_iou, ClassificationReport};
pub use confusion::ConfusionMatrix;
pub use ssim::{ssim, ssim_rgb};
