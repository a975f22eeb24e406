//! Color-based segmentation: per-class `inRange` masks merged into a
//! class mask and a color-coded label image (§III-B, Fig. 6).

use crate::ranges::{ClassRanges, IceClass};
use seaice_exec::par;
use seaice_imgproc::buffer::Image;
use seaice_imgproc::color::rgb_to_hsv;
use seaice_imgproc::ops::in_range;

/// Builds the three binary class masks (255 inside) from an RGB image,
/// exactly as the paper does with `cv2.inRange` on the HSV conversion.
///
/// Returned in class order: `[thick, thin, water]`.
pub fn class_masks(rgb: &Image<u8>, ranges: &ClassRanges) -> [Image<u8>; 3] {
    let hsv = rgb_to_hsv(rgb);
    let make = |c: IceClass| {
        let r = ranges.range(c);
        in_range(&hsv, &r.lo, &r.hi)
    };
    [
        make(IceClass::Thick),
        make(IceClass::Thin),
        make(IceClass::Water),
    ]
}

/// Segments an RGB image into a single-channel class mask using the HSV
/// thresholds (one pass, no intermediate masks — the merged equivalent of
/// [`class_masks`]).
pub fn segment_classes(rgb: &Image<u8>, ranges: &ClassRanges) -> Image<u8> {
    assert_eq!(rgb.channels(), 3, "segmentation expects an RGB image");
    let hsv = rgb_to_hsv(rgb);
    let (w, h) = rgb.dimensions();
    let mut mask = Image::<u8>::new(w, h, 1);
    par::chunks_mut(mask.as_mut_slice(), w.max(1), |y, dst| {
        for (d, px) in dst.iter_mut().zip(hsv.row(y).chunks_exact(3)) {
            // seaice-lint: allow(narrowing-cast-in-kernel) reason="IceClass has three discriminants (0..=2), well within u8"
            *d = ranges.classify(px) as u8;
        }
    });
    mask
}

/// Renders a class mask as the paper's color-coded label image (red =
/// thick ice, blue = thin ice, green = open water).
///
/// # Panics
/// Panics if the mask is not single-channel or contains invalid classes.
pub fn segment_to_color(mask: &Image<u8>) -> Image<u8> {
    assert_eq!(mask.channels(), 1, "expected a class mask");
    let (w, h) = mask.dimensions();
    let mut out = Image::<u8>::new(w, h, 3);
    for (dst, &c) in out.as_mut_slice().chunks_exact_mut(3).zip(mask.as_slice()) {
        // seaice-lint: allow(panic-in-library) reason="documented panicking API (# Panics above): a mask with out-of-range classes is corrupt input, named in the message"
        let class = IceClass::from_index(c).expect("invalid class index in mask");
        dst.copy_from_slice(&class.color());
    }
    out
}

/// Inverse of [`segment_to_color`]: recovers the class mask from a
/// color-coded label image. Unknown colors fall back to the class whose
/// label color is nearest in RGB space (robust to antialiased edges in
/// externally produced labels).
pub fn color_to_classes(label: &Image<u8>) -> Image<u8> {
    assert_eq!(label.channels(), 3, "expected a color label image");
    let (w, h) = label.dimensions();
    let mut out = Image::<u8>::new(w, h, 1);
    for (d, px) in out
        .as_mut_slice()
        .iter_mut()
        .zip(label.as_slice().chunks_exact(3))
    {
        *d = match IceClass::from_color(px) {
            // seaice-lint: allow(narrowing-cast-in-kernel) reason="IceClass has three discriminants (0..=2), well within u8"
            Some(c) => c as u8,
            None => IceClass::ALL
                .into_iter()
                .min_by_key(|c| {
                    let col = c.color();
                    px.iter()
                        .zip(col.iter())
                        .map(|(&a, &b)| (a as i32 - b as i32).pow(2))
                        .sum::<i32>()
                })
                // seaice-lint: allow(panic-in-library, narrowing-cast-in-kernel) reason="min_by_key runs over IceClass::ALL, a non-empty const array, and its three discriminants (0..=2) fit u8"
                .expect("nonempty class list") as u8,
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri_band_image() -> Image<u8> {
        // Three vertical bands: bright (thick), mid (thin), dark (water).
        Image::from_fn(9, 3, 3, |x, _| {
            if x < 3 {
                vec![230, 233, 238]
            } else if x < 6 {
                vec![100, 112, 122]
            } else {
                vec![8, 12, 18]
            }
        })
    }

    #[test]
    fn segment_assigns_expected_classes() {
        let mask = segment_classes(&tri_band_image(), &ClassRanges::paper());
        assert_eq!(mask.get(0, 0), IceClass::Thick as u8);
        assert_eq!(mask.get(4, 1), IceClass::Thin as u8);
        assert_eq!(mask.get(8, 2), IceClass::Water as u8);
    }

    #[test]
    fn masks_partition_the_image() {
        let [thick, thin, water] = class_masks(&tri_band_image(), &ClassRanges::paper());
        for i in 0..thick.as_slice().len() {
            let hits = [&thick, &thin, &water]
                .iter()
                .filter(|m| m.as_slice()[i] == 255)
                .count();
            assert_eq!(hits, 1, "pixel {i} in {hits} masks");
        }
    }

    #[test]
    fn masks_agree_with_merged_segmentation() {
        let img = tri_band_image();
        let ranges = ClassRanges::paper();
        let [thick, thin, water] = class_masks(&img, &ranges);
        let merged = segment_classes(&img, &ranges);
        for (i, &c) in merged.as_slice().iter().enumerate() {
            let expected = match c {
                0 => &thick,
                1 => &thin,
                _ => &water,
            };
            assert_eq!(expected.as_slice()[i], 255);
        }
    }

    #[test]
    fn color_roundtrip() {
        let mask = segment_classes(&tri_band_image(), &ClassRanges::paper());
        let color = segment_to_color(&mask);
        assert_eq!(color_to_classes(&color), mask);
    }

    #[test]
    fn color_render_uses_paper_palette() {
        let mask = Image::from_vec(3, 1, 1, vec![0u8, 1, 2]);
        let color = segment_to_color(&mask);
        assert_eq!(color.pixel(0, 0), &[255, 0, 0]); // thick = red
        assert_eq!(color.pixel(1, 0), &[0, 0, 255]); // thin = blue
        assert_eq!(color.pixel(2, 0), &[0, 255, 0]); // water = green
    }

    #[test]
    fn unknown_colors_snap_to_nearest_class() {
        let label = Image::from_vec(2, 1, 3, vec![250, 10, 10, 10, 240, 30]);
        let mask = color_to_classes(&label);
        assert_eq!(mask.get(0, 0), IceClass::Thick as u8);
        assert_eq!(mask.get(1, 0), IceClass::Water as u8);
    }
}
