//! # seaice-imgproc
//!
//! A from-scratch image-processing substrate standing in for the OpenCV
//! routines the paper's workflow uses: RGB↔HSV conversion, noise filtering,
//! bitwise operations, absolute difference, Otsu / truncated / binary
//! thresholding, and min-max normalization — plus supporting morphology,
//! histogram, and resize kernels, and PPM/PGM I/O for inspecting results.
//!
//! All pixel kernels operate on the [`buffer::Image`] container and are
//! row-parallel through `seaice_exec::par` where the image is tall enough
//! for the threads to pay for themselves.
//!
//! ## Conventions
//!
//! * 8-bit images use the OpenCV HSV convention: `H ∈ [0, 180)`,
//!   `S, V ∈ [0, 255]`.
//! * Multi-channel data is interleaved row-major (`y`, then `x`, then
//!   channel), like OpenCV's `Mat`.
//!
//! ```
//! use seaice_imgproc::prelude::*;
//!
//! let mut img = Image::<u8>::new(16, 16, 3);
//! img.fill(&[200, 210, 220]);
//! let hsv = rgb_to_hsv(&img);
//! assert_eq!(hsv.channels(), 3);
//! ```
#![forbid(unsafe_code)]

pub mod buffer;
pub mod color;
pub mod components;
pub mod filter;
pub mod histogram;
pub mod io;
pub mod morphology;
pub mod ops;
pub mod resize;
pub mod threshold;

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use crate::buffer::{Gray8, GrayF32, Image, Rgb8, Scratch};
    pub use crate::color::{hsv_to_rgb, rgb_pixel_to_hsv_int, rgb_to_gray, rgb_to_hsv};
    pub use crate::filter::{box_blur, gaussian_blur, median_filter};
    pub use crate::morphology::{close, dilate, erode, open};
    pub use crate::ops::{
        absdiff, bitwise_and, bitwise_not, bitwise_or, in_range, min_max_normalize,
    };
    pub use crate::threshold::{otsu_threshold, threshold, ThresholdType};
}
