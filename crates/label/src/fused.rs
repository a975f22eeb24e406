//! Fused single-pass auto-label kernel.
//!
//! The reference segmentation path materializes a full HSV image
//! (`rgb_to_hsv`) and then classifies it pixel-by-pixel with three range
//! comparisons per class ([`segment_classes`](crate::segment::segment_classes)).
//! This module fuses both stages into one loop over the RGB tile:
//!
//! 1. each pixel converts to OpenCV HSV with integer math
//!    ([`rgb_pixel_to_hsv_int`]), bit-identical to the `f32` reference;
//! 2. class membership is looked up in three precomputed 256-entry
//!    per-channel bitmask tables — bit `k` of `h_lut[h]` is set when hue
//!    `h` lies inside class `k`'s hue bounds, and a pixel's class is the
//!    lowest set bit of `h_lut[h] & s_lut[s] & v_lut[v]`;
//! 3. pixels matching no class (possible only with non-paper custom
//!    ranges) fall back to a 256-entry nearest-V table that replicates
//!    [`ClassRanges::classify`]'s gap handling.
//!
//! No intermediate image is allocated, and the optional color label is
//! written in the same pass. Bit-identity with the reference path over all
//! 2^24 RGB inputs is enforced by `tests/fused_vs_reference.rs`.

use crate::ranges::{ClassRanges, IceClass};
use seaice_exec::par;
use seaice_imgproc::buffer::Image;
use seaice_imgproc::color::rgb_pixel_to_hsv_int;

/// Precomputed per-channel class-membership tables for one [`ClassRanges`].
///
/// Building one costs three 256-entry scans; amortize it over at least a
/// row of pixels (every public entry point here does).
#[derive(Clone, Debug)]
pub struct ClassLut {
    h: [u8; 256],
    s: [u8; 256],
    v: [u8; 256],
    /// Nearest-V class for pixels outside every range (gap fallback).
    fallback: [u8; 256],
}

impl ClassLut {
    /// Builds the tables from a set of class ranges.
    pub fn new(ranges: &ClassRanges) -> Self {
        let mut h = [0u8; 256];
        let mut s = [0u8; 256];
        let mut v = [0u8; 256];
        for class in IceClass::ALL {
            let r = ranges.range(class);
            // seaice-lint: allow(narrowing-cast-in-kernel) reason="IceClass has three discriminants (0..=2), well within u8"
            let bit = 1u8 << (class as u8);
            for x in 0..=255usize {
                // seaice-lint: allow(narrowing-cast-in-kernel) reason="the loop bound pins x <= 255, exactly the u8 range"
                let xv = x as u8;
                if xv >= r.lo[0] && xv <= r.hi[0] {
                    h[x] |= bit;
                }
                if xv >= r.lo[1] && xv <= r.hi[1] {
                    s[x] |= bit;
                }
                if xv >= r.lo[2] && xv <= r.hi[2] {
                    v[x] |= bit;
                }
            }
        }
        let mut fallback = [0u8; 256];
        for (x, slot) in fallback.iter_mut().enumerate() {
            // Replicates the reference `min_by_key` over V distance,
            // including its first-minimum-wins tie behavior.
            let xv = x as i32;
            let mut best = IceClass::Thick;
            let mut best_d = i32::MAX;
            for class in IceClass::ALL {
                let r = ranges.range(class);
                let (lo, hi) = (r.lo[2] as i32, r.hi[2] as i32);
                let d = if xv < lo {
                    lo - xv
                } else if xv > hi {
                    xv - hi
                } else {
                    0
                };
                if d < best_d {
                    best_d = d;
                    best = class;
                }
            }
            // seaice-lint: allow(narrowing-cast-in-kernel) reason="IceClass has three discriminants (0..=2), well within u8"
            *slot = best as u8;
        }
        Self { h, s, v, fallback }
    }

    /// Classifies one HSV pixel; equivalent to
    /// [`ClassRanges::classify`] on the same ranges.
    #[inline]
    pub fn classify(&self, h: u8, s: u8, v: u8) -> u8 {
        let m = self.h[h as usize] & self.s[s as usize] & self.v[v as usize];
        if m != 0 {
            m.trailing_zeros() as u8
        } else {
            self.fallback[v as usize]
        }
    }

    /// Classifies one RGB pixel (integer HSV conversion + table lookup).
    #[inline]
    pub fn classify_rgb(&self, r: u8, g: u8, b: u8) -> u8 {
        let [h, s, v] = rgb_pixel_to_hsv_int(r, g, b);
        self.classify(h, s, v)
    }
}

/// The paper's label palette indexed by class (red / blue / green).
const PALETTE: [[u8; 3]; 3] = [
    IceClass::Thick.color(),
    IceClass::Thin.color(),
    IceClass::Water.color(),
];

/// Labels a run of interleaved RGB samples into a class-mask run and,
/// optionally, a color-label run — the scalar core of the fused kernel.
///
/// # Panics
/// Panics (debug) if slice lengths disagree.
#[inline]
pub fn fused_label_run(rgb: &[u8], mask: &mut [u8], mut color: Option<&mut [u8]>, lut: &ClassLut) {
    debug_assert_eq!(rgb.len(), mask.len() * 3);
    for (i, (d, px)) in mask.iter_mut().zip(rgb.chunks_exact(3)).enumerate() {
        let c = lut.classify_rgb(px[0], px[1], px[2]);
        *d = c;
        if let Some(out) = color.as_deref_mut() {
            out[i * 3..i * 3 + 3].copy_from_slice(&PALETTE[c as usize]);
        }
    }
}

/// Fused segmentation into caller-provided buffers (row-parallel).
///
/// `mask` must be single-channel and `color`, when given, 3-channel; both
/// must match `rgb`'s dimensions.
///
/// # Panics
/// Panics on shape mismatches or a non-RGB input.
pub fn segment_into(
    rgb: &Image<u8>,
    lut: &ClassLut,
    mask: &mut Image<u8>,
    color: Option<&mut Image<u8>>,
) {
    assert_eq!(rgb.channels(), 3, "fused segmentation expects RGB");
    assert_eq!(mask.dimensions(), rgb.dimensions(), "mask size mismatch");
    assert_eq!(mask.channels(), 1, "mask must be single-channel");
    let w = rgb.width().max(1);
    match color {
        Some(color) => {
            assert_eq!(color.dimensions(), rgb.dimensions(), "color size mismatch");
            assert_eq!(color.channels(), 3, "color label must be RGB");
            let (mask, color) = (mask.as_mut_slice(), color.as_mut_slice());
            par::chunks_mut2(mask, w, color, w * 3, |y, mask_row, color_row| {
                fused_label_run(rgb.row(y), mask_row, Some(color_row), lut);
            });
        }
        None => par::chunks_mut(mask.as_mut_slice(), w, |y, mask_row| {
            fused_label_run(rgb.row(y), mask_row, None, lut);
        }),
    }
}

/// Fused drop-in for [`segment_classes`](crate::segment::segment_classes):
/// RGB straight to a class mask, no intermediate HSV image.
pub fn segment_classes_fused(rgb: &Image<u8>, ranges: &ClassRanges) -> Image<u8> {
    let (w, h) = rgb.dimensions();
    let mut mask = Image::<u8>::new(w, h, 1);
    segment_into(rgb, &ClassLut::new(ranges), &mut mask, None);
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranges::HsvRange;
    use crate::segment::{segment_classes, segment_to_color};

    #[test]
    fn lut_classify_matches_reference_on_grid() {
        let ranges = ClassRanges::paper();
        let lut = ClassLut::new(&ranges);
        for h in (0..=255u8).step_by(5) {
            for s in (0..=255u8).step_by(5) {
                for v in 0..=255u8 {
                    assert_eq!(
                        lut.classify(h, s, v),
                        ranges.classify(&[h, s, v]) as u8,
                        "mismatch at hsv ({h},{s},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn lut_fallback_matches_reference_in_gaps() {
        // Custom ranges with a V hole between 100 and 149.
        let ranges = ClassRanges {
            water: HsvRange {
                lo: [0, 0, 0],
                hi: [185, 255, 99],
            },
            thin: HsvRange {
                lo: [0, 0, 150],
                hi: [185, 255, 200],
            },
            thick: HsvRange {
                lo: [0, 0, 201],
                hi: [185, 255, 255],
            },
        };
        let lut = ClassLut::new(&ranges);
        for v in 0..=255u8 {
            assert_eq!(
                lut.classify(90, 10, v),
                ranges.classify(&[90, 10, v]) as u8,
                "gap fallback mismatch at v={v}"
            );
        }
    }

    #[test]
    fn fused_segmentation_matches_reference_image_level() {
        let img = Image::from_fn(97, 13, 3, |x, y| {
            vec![
                ((x * 7 + y) % 256) as u8,
                ((x + y * 11) % 256) as u8,
                ((x * 3 + y * 5) % 256) as u8,
            ]
        });
        let ranges = ClassRanges::paper();
        assert_eq!(
            segment_classes_fused(&img, &ranges),
            segment_classes(&img, &ranges)
        );
    }

    #[test]
    fn fused_color_output_matches_palette_render() {
        let img = Image::from_fn(33, 9, 3, |x, y| {
            vec![(x * 8) as u8, (y * 25) as u8, ((x + y) * 6) as u8]
        });
        let ranges = ClassRanges::paper();
        let lut = ClassLut::new(&ranges);
        let (w, h) = img.dimensions();
        let mut mask = Image::<u8>::new(w, h, 1);
        let mut color = Image::<u8>::new(w, h, 3);
        segment_into(&img, &lut, &mut mask, Some(&mut color));
        assert_eq!(mask, segment_classes(&img, &ranges));
        assert_eq!(color, segment_to_color(&mask));
    }

    #[test]
    fn large_image_takes_parallel_rows_and_agrees() {
        let img = Image::from_fn(128, 128, 3, |x, y| {
            vec![(x % 256) as u8, (y % 256) as u8, ((x * y) % 256) as u8]
        });
        let ranges = ClassRanges::paper();
        assert_eq!(
            segment_classes_fused(&img, &ranges),
            segment_classes(&img, &ranges)
        );
    }

    #[test]
    #[should_panic(expected = "mask size mismatch")]
    fn shape_mismatch_panics() {
        let img = Image::<u8>::new(4, 4, 3);
        let mut mask = Image::<u8>::new(3, 4, 1);
        segment_into(&img, &ClassLut::new(&ClassRanges::paper()), &mut mask, None);
    }
}
