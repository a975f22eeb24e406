//! # seaice-imgproc
//!
//! A from-scratch image-processing substrate standing in for the OpenCV
//! routines the paper's workflow uses: RGB→HSV conversion, noise filtering
//! (median and box blur), `inRange` masks, Otsu / truncated / binary
//! thresholding, min-max normalization and connected components, plus PPM
//! I/O for inspecting results. The paper's bitwise and absdiff steps are
//! written inline in `seaice-label`'s cloud/shadow filter, so they have no
//! kernel here.
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
//! use seaice_imgproc::buffer::Image;
//! use seaice_imgproc::color::rgb_to_hsv;
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
pub mod ops;
pub mod threshold;
