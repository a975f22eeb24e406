//! # seaice-label
//!
//! The paper's auto-labeling contribution: thin-cloud and cloud-shadow
//! filtering followed by HSV color-threshold segmentation of Sentinel-2
//! polar imagery into thick ice, thin ice, and open water.
//!
//! * [`ranges`] — the calibrated HSV class thresholds from §III-B,
//! * [`cloudshadow`] — the thin-cloud/shadow filter built from the OpenCV
//!   ops the paper lists (HSV conversion, noise filtering, bit-wise ops,
//!   absolute difference, Otsu / truncated / binary thresholding, min-max
//!   normalization),
//! * [`segment`] — per-class `inRange` masks merged into a color-coded
//!   label image,
//! * [`fused`] — the single-pass integer/LUT segmentation kernel,
//!   bit-identical to [`segment`] and ~an order of magnitude cheaper,
//! * [`autolabel`] — the end-to-end per-image auto-label routine plus
//!   sequential and worker-pool batch drivers,
//! * [`parallel`] — a fixed worker pool (the Python-multiprocessing
//!   analog; a thin façade over `seaice-exec`'s queue and pool) used by
//!   the Table I speedup experiment.
//!
//! ```
//! use seaice_label::prelude::*;
//! use seaice_imgproc::buffer::Image;
//!
//! let mut img = Image::<u8>::new(8, 8, 3);
//! img.fill(&[230, 235, 240]); // bright: thick ice
//! let out = auto_label(&img, &AutoLabelConfig::default());
//! assert!(out.class_mask.as_slice().iter().all(|&c| c == IceClass::Thick as u8));
//! ```
#![deny(unsafe_code)]

pub mod autolabel;
pub mod calibrate;
pub mod cloudshadow;
// The one audited exception to `deny(unsafe_code)` (see the module docs).
#[allow(unsafe_code)]
mod dispatch;
pub mod fused;
pub mod parallel;
pub mod ranges;
pub mod segment;

/// Common imports for auto-labeling.
pub mod prelude {
    pub use crate::autolabel::{
        auto_label, auto_label_batch, auto_label_class_mask, auto_label_scratch, AutoLabelConfig,
        LabelBackend, LabelOutput,
    };
    pub use crate::calibrate::{calibrate, Calibration};
    pub use crate::cloudshadow::{CloudShadowFilter, FilterConfig, FilterOutput};
    pub use crate::fused::{segment_classes_fused, ClassLut};
    pub use crate::parallel::WorkerPool;
    pub use crate::ranges::{ClassRanges, HsvRange, IceClass};
    pub use crate::segment::{color_to_classes, segment_classes, segment_to_color};
}
