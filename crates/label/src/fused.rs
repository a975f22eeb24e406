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
//! When the H and S tables accept everything a pixel can produce — the
//! paper's ranges, [`calibrate`](crate::calibrate::calibrate) and `seaice
//! label --cuts` all constrain V only — steps 1–3 collapse into one
//! 256-entry class-by-V table read at `max(r, g, b)`, with no division.
//! That path runs 32 pixels at a time on a CPU with AVX2 (byte shuffles
//! over the table's two bit-planes, in the private `dispatch` module), the
//! same bytes as the per-pixel loop.
//!
//! No intermediate image is allocated, and the optional color label is
//! written in the same pass. Bit-identity with the reference path over all
//! 2^24 RGB inputs is enforced by `tests/fused_vs_reference.rs`.

use crate::dispatch;
use crate::ranges::{ClassRanges, IceClass};
use seaice_exec::par;
use seaice_imgproc::buffer::Image;
use seaice_imgproc::color::rgb_pixel_to_hsv_int;

/// Precomputed per-channel class-membership tables for one [`ClassRanges`].
///
/// Building one costs about as much as labelling a few rows; amortize it
/// over at least a row of pixels (every public entry point here does).
#[derive(Clone, Debug)]
pub struct ClassLut {
    h: [u8; 256],
    s: [u8; 256],
    v: [u8; 256],
    /// Nearest-V class for pixels outside every range (gap fallback).
    fallback: [u8; 256],
    /// The class of every V, when H and S accept every value a pixel can
    /// have (hue 0..=179, any saturation) for all three classes and so
    /// decide nothing.
    pub(crate) by_v: Option<ByV>,
}

/// The class of every V, for range sets that V alone decides.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ByV {
    pub(crate) class: [u8; 256],
    /// The two bits of `class` as 256-bit planes: bit `v % 8` of byte
    /// `v / 8` of `bits[b]` is bit `b` of `class[v]` (the vector twin
    /// looks them up with byte shuffles).
    pub(crate) bits: [[u8; 32]; 2],
}

impl ByV {
    pub(crate) fn new(class: [u8; 256]) -> Self {
        let mut bits = [[0u8; 32]; 2];
        for (v, &c) in class.iter().enumerate() {
            for (b, plane) in bits.iter_mut().enumerate() {
                plane[v / 8] |= ((c >> b) & 1) << (v % 8);
            }
        }
        Self { class, bits }
    }
}

impl ClassLut {
    /// Builds the tables from a set of class ranges.
    pub fn new(ranges: &ClassRanges) -> Self {
        let mut tables = [[0u8; 256]; 3];
        for class in IceClass::ALL {
            let r = ranges.range(class);
            // seaice-lint: allow(narrowing-cast-in-kernel) reason="IceClass has three discriminants (0..=2), well within u8"
            let bit = 1u8 << (class as u8);
            for (table, (lo, hi)) in tables.iter_mut().zip(r.lo.into_iter().zip(r.hi)) {
                // Inverted bounds (`lo > hi`) contain nothing.
                if lo <= hi {
                    for m in &mut table[usize::from(lo)..=usize::from(hi)] {
                        *m |= bit;
                    }
                }
            }
        }
        let [h, s, v] = tables;
        // Replicates the reference `min_by_key` over V distance, including
        // its first-minimum-wins tie behavior.
        let bounds = IceClass::ALL.map(|class| {
            let r = ranges.range(class);
            (i32::from(r.lo[2]), i32::from(r.hi[2]), class)
        });
        let fallback = std::array::from_fn(|x| {
            let xv = x as i32;
            let mut best = (i32::MAX, IceClass::Thick);
            for (lo, hi, class) in bounds {
                let d = if xv < lo {
                    lo - xv
                } else if xv > hi {
                    xv - hi
                } else {
                    0
                };
                if d < best.0 {
                    best = (d, class);
                }
            }
            best.1 as u8
        });
        // The largest hue `rgb_pixel_to_hsv_int` returns.
        const MAX_HUE: usize = 179;
        let every_class = (1u8 << IceClass::ALL.len()) - 1;
        let v_decides = h[..=MAX_HUE].iter().chain(&s).all(|&m| m == every_class);
        let by_v =
            v_decides.then(|| ByV::new(std::array::from_fn(|x| Self::pick(v[x], fallback[x]))));
        Self {
            h,
            s,
            v,
            fallback,
            by_v,
        }
    }

    /// The lowest class in membership bitmask `m`, else the gap fallback.
    #[inline]
    fn pick(m: u8, fallback: u8) -> u8 {
        if m != 0 {
            m.trailing_zeros() as u8
        } else {
            fallback
        }
    }

    /// Classifies one HSV pixel; equivalent to
    /// [`ClassRanges::classify`] on the same ranges.
    #[inline]
    pub fn classify(&self, h: u8, s: u8, v: u8) -> u8 {
        let m = self.h[h as usize] & self.s[s as usize] & self.v[v as usize];
        Self::pick(m, self.fallback[v as usize])
    }

    /// Classifies one RGB pixel (integer HSV conversion + table lookup).
    #[inline]
    pub fn classify_rgb(&self, r: u8, g: u8, b: u8) -> u8 {
        let [h, s, v] = rgb_pixel_to_hsv_int(r, g, b);
        self.classify(h, s, v)
    }
}

/// The paper's label palette indexed by class (red / blue / green).
pub(crate) const PALETTE: [[u8; 3]; 3] = [
    IceClass::Thick.color(),
    IceClass::Thin.color(),
    IceClass::Water.color(),
];

/// Labels a run of interleaved RGB samples into a class-mask run and,
/// optionally, a color-label run — the core of the fused kernel. Range
/// sets that V alone decides take a front with an AVX2 twin.
///
/// # Panics
/// Panics if `rgb` or `color` is not three bytes per `mask` byte.
#[inline]
pub fn fused_label_run(rgb: &[u8], mask: &mut [u8], color: Option<&mut [u8]>, lut: &ClassLut) {
    assert_eq!(rgb.len(), mask.len() * 3, "rgb run against mask run");
    if let Some(color) = &color {
        assert_eq!(color.len(), mask.len() * 3, "colour run against mask run");
    }
    match &lut.by_v {
        Some(by_v) => dispatch::label_run_by_v(rgb, mask, color, by_v),
        None => label_run(rgb, mask, color, |p| lut.classify_rgb(p[0], p[1], p[2])),
    }
}

/// The V-only path of [`fused_label_run`], to compile again at a wider
/// ISA: `by_v[max(r, g, b)]`.
#[inline(always)]
pub(crate) fn label_run_by_v_body(
    rgb: &[u8],
    mask: &mut [u8],
    color: Option<&mut [u8]>,
    by_v: &ByV,
) {
    label_run(rgb, mask, color, |p| {
        by_v.class[usize::from(p[0].max(p[1]).max(p[2]))]
    })
}

/// [`fused_label_run`] with the per-pixel classifier chosen.
#[inline(always)]
fn label_run(rgb: &[u8], mask: &mut [u8], color: Option<&mut [u8]>, class: impl Fn(&[u8]) -> u8) {
    let pixels = mask.iter_mut().zip(rgb.chunks_exact(3));
    match color {
        Some(color) => {
            for ((d, px), out) in pixels.zip(color.chunks_exact_mut(3)) {
                *d = class(px);
                out.copy_from_slice(&PALETTE[usize::from(*d)]);
            }
        }
        None => pixels.for_each(|(d, px)| *d = class(px)),
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
    use seaice_imgproc::color::rgb_pixel_to_hsv;

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

    /// `classify` on an HSV grid and `fused_label_run` on an RGB grid, both
    /// against the reference classification.
    fn assert_lut_matches_reference(ranges: &ClassRanges) {
        let lut = ClassLut::new(ranges);
        for h in (0..=255u8).step_by(5) {
            for s in (0..=255u8).step_by(5) {
                for v in 0..=255u8 {
                    let expected = ranges.classify(&[h, s, v]) as u8;
                    assert_eq!(lut.classify(h, s, v), expected, "hsv ({h},{s},{v})");
                }
            }
        }
        let mut mask = [0u8; 256];
        for r in (0..=255u8).step_by(5) {
            for g in (0..=255u8).step_by(5) {
                let rgb: Vec<u8> = (0..=255u8).flat_map(|b| [r, g, b]).collect();
                fused_label_run(&rgb, &mut mask, None, &lut);
                for (px, &class) in rgb.chunks_exact(3).zip(&mask) {
                    let hsv = rgb_pixel_to_hsv(px[0], px[1], px[2]);
                    assert_eq!(class, ranges.classify(&hsv) as u8, "rgb {px:?}");
                }
            }
        }
    }

    /// The paper's ranges with thick ice reaching down to V 150 at the H and
    /// S bounds `lo`..=`hi`, so H or S decides part of the V axis.
    fn thick_reaching_down(lo: [u8; 2], hi: [u8; 2]) -> ClassRanges {
        ClassRanges {
            thick: HsvRange {
                lo: [lo[0], lo[1], 150],
                hi: [hi[0], hi[1], 255],
            },
            ..ClassRanges::paper()
        }
    }

    #[test]
    fn value_only_ranges_take_the_class_by_v_table() {
        // V alone decides even across a hole in the V axis.
        let gap = ClassRanges {
            thin: HsvRange {
                lo: [0, 0, 150],
                hi: [185, 255, 200],
            },
            ..ClassRanges::from_value_cuts(99, 201)
        };
        let full_hue_exactly = thick_reaching_down([0, 0], [179, 255]);
        for ranges in [
            ClassRanges::paper(),
            ClassRanges::from_value_cuts(14, 92),
            ClassRanges::partial_night(),
            gap,
            full_hue_exactly,
        ] {
            assert!(ClassLut::new(&ranges).by_v.is_some(), "{ranges:?}");
            assert_lut_matches_reference(&ranges);
        }
    }

    /// The tables as `ClassLut::new` built them before its slice fills: a
    /// per-value test of every class's bounds on every channel.
    fn tables_by_scan(ranges: &ClassRanges) -> ([[u8; 256]; 4], Option<[u8; 256]>) {
        let mut h = [0u8; 256];
        let mut s = [0u8; 256];
        let mut v = [0u8; 256];
        for class in IceClass::ALL {
            let r = ranges.range(class);
            let bit = 1u8 << (class as u8);
            for x in 0..=255usize {
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
            *slot = best as u8;
        }
        let v_decides = h[..=179].iter().chain(&s).all(|&m| m == 7);
        let by_v = v_decides.then(|| std::array::from_fn(|x| ClassLut::pick(v[x], fallback[x])));
        ([h, s, v, fallback], by_v)
    }

    #[test]
    fn tables_equal_the_per_value_scan_field_for_field() {
        let mut state = 0x7ab1_e5ee_d000_0001u64;
        let mut byte = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 56) as u8
        };
        let mut sets = vec![
            ClassRanges::paper(),
            ClassRanges::from_value_cuts(14, 92),
            ClassRanges::partial_night(),
            thick_reaching_down([0, 0], [179, 255]),
            thick_reaching_down([90, 0], [130, 255]),
            thick_reaching_down([0, 1], [185, 255]),
        ];
        // Seeded random bounds, inverted ones included; every other set
        // keeps H and S open so that V alone decides it.
        for i in 0..400 {
            let mut range = || {
                let (lo, hi) = ([byte(), byte(), byte()], [byte(), byte(), byte()]);
                if i % 2 == 0 {
                    HsvRange { lo, hi }
                } else {
                    HsvRange {
                        lo: [0, 0, lo[2]],
                        hi: [179 + hi[0] % 77, 255, hi[2]],
                    }
                }
            };
            sets.push(ClassRanges {
                water: range(),
                thin: range(),
                thick: range(),
            });
        }
        let mut v_only = 0;
        for ranges in &sets {
            let lut = ClassLut::new(ranges);
            let ([h, s, v, fallback], by_v) = tables_by_scan(ranges);
            assert_eq!(lut.h, h, "h, {ranges:?}");
            assert_eq!(lut.s, s, "s, {ranges:?}");
            assert_eq!(lut.v, v, "v, {ranges:?}");
            assert_eq!(lut.fallback, fallback, "fallback, {ranges:?}");
            assert_eq!(lut.by_v.as_ref().map(|b| b.class), by_v, "by_v, {ranges:?}");
            if let Some(b) = &lut.by_v {
                v_only += 1;
                for (x, &c) in b.class.iter().enumerate() {
                    for (bit, plane) in b.bits.iter().enumerate() {
                        let got = plane[x / 8] >> (x % 8) & 1;
                        assert_eq!(got, c >> bit & 1, "bit plane {bit} at V {x}, {ranges:?}");
                    }
                }
            }
        }
        assert!(v_only > 200, "{v_only} V-only sets");
    }

    #[test]
    fn hue_restricted_ranges_keep_the_general_tables() {
        for (lo, hi) in [(90, 130), (0, 178), (1, 185)] {
            let ranges = thick_reaching_down([lo, 0], [hi, 255]);
            assert!(ClassLut::new(&ranges).by_v.is_none(), "{ranges:?}");
            assert_lut_matches_reference(&ranges);
        }
    }

    #[test]
    fn saturation_restricted_ranges_keep_the_general_tables() {
        for (lo, hi) in [(0, 40), (0, 254), (1, 255)] {
            let ranges = thick_reaching_down([0, lo], [185, hi]);
            assert!(ClassLut::new(&ranges).by_v.is_none(), "{ranges:?}");
            assert_lut_matches_reference(&ranges);
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

    /// A colour run shorter than the mask's panics on every host, not only
    /// where the AVX2 twin splits it.
    #[test]
    #[should_panic(expected = "colour run against mask run")]
    fn short_colour_run_panics() {
        let (rgb, mut mask, mut color) = ([0; 120], [0; 40], [0; 60]);
        let lut = ClassLut::new(&ClassRanges::paper());
        fused_label_run(&rgb, &mut mask, Some(&mut color), &lut);
    }
}
