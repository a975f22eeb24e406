//! Binary/grayscale morphology with rectangular structuring elements:
//! erosion, dilation, opening, closing. Used to clean up cloud and class
//! masks after thresholding.

use crate::buffer::Image;
use seaice_exec::par;

#[derive(Clone, Copy)]
enum MorphOp {
    Erode,
    Dilate,
}

fn morph(src: &Image<u8>, radius: usize, op: MorphOp) -> Image<u8> {
    assert_eq!(
        src.channels(),
        1,
        "morphology expects a single-channel image"
    );
    if radius == 0 {
        return src.clone();
    }
    let (w, h) = src.dimensions();
    if w == 0 || h == 0 {
        return src.clone();
    }

    // Separable: rectangular min/max filter = horizontal pass then vertical.
    fn pass_impl<F: Fn(usize, usize) -> u8 + Sync>(
        w: usize,
        h: usize,
        radius: usize,
        op: MorphOp,
        input: F,
        horizontal: bool,
        out: &mut [u8],
    ) {
        let run_row = |y: usize, dst: &mut [u8]| {
            for (x, d) in dst.iter_mut().enumerate() {
                let mut acc = match op {
                    MorphOp::Erode => u8::MAX,
                    MorphOp::Dilate => u8::MIN,
                };
                for k in 0..=2 * radius {
                    let (sx, sy) = if horizontal {
                        ((x + k).saturating_sub(radius).min(w - 1), y)
                    } else {
                        (x, (y + k).saturating_sub(radius).min(h - 1))
                    };
                    let v = input(sx, sy);
                    acc = match op {
                        MorphOp::Erode => acc.min(v),
                        MorphOp::Dilate => acc.max(v),
                    };
                }
                *d = acc;
            }
        };
        par::chunks_mut(out, w, run_row);
    }

    let mut tmp = vec![0u8; w * h];
    pass_impl(w, h, radius, op, |x, y| src.get(x, y), true, &mut tmp);
    let mut out = Image::<u8>::new(w, h, 1);
    {
        let tmp_ref = &tmp;
        pass_impl(
            w,
            h,
            radius,
            op,
            |x, y| tmp_ref[y * w + x],
            false,
            out.as_mut_slice(),
        );
    }
    out
}

/// Grayscale erosion with a `(2 * radius + 1)²` rectangular structuring
/// element (replicated borders).
pub fn erode(src: &Image<u8>, radius: usize) -> Image<u8> {
    morph(src, radius, MorphOp::Erode)
}

/// Grayscale dilation with a `(2 * radius + 1)²` rectangular structuring
/// element (replicated borders).
pub fn dilate(src: &Image<u8>, radius: usize) -> Image<u8> {
    morph(src, radius, MorphOp::Dilate)
}

/// Morphological opening (erosion then dilation) — removes small bright
/// specks.
pub fn open(src: &Image<u8>, radius: usize) -> Image<u8> {
    dilate(&erode(src, radius), radius)
}

/// Morphological closing (dilation then erosion) — fills small dark holes.
pub fn close(src: &Image<u8>, radius: usize) -> Image<u8> {
    erode(&dilate(src, radius), radius)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_image() -> Image<u8> {
        // A 3x3 bright blob centered in a 9x9 image, plus an isolated pixel.
        let mut img = Image::<u8>::new(9, 9, 1);
        for y in 3..6 {
            for x in 3..6 {
                img.set(x, y, 255);
            }
        }
        img.set(0, 0, 255);
        img
    }

    #[test]
    fn erode_shrinks_blobs() {
        let out = erode(&blob_image(), 1);
        assert_eq!(out.get(4, 4), 255, "blob center survives");
        assert_eq!(out.get(3, 3), 0, "blob corner eroded");
        // The isolated top-left pixel is at the border; replication keeps its
        // neighbourhood partially dark so it still erodes away.
        assert_eq!(out.get(0, 0), 0);
    }

    #[test]
    fn dilate_grows_blobs() {
        let out = dilate(&blob_image(), 1);
        assert_eq!(out.get(2, 2), 255, "dilation extends the blob");
        assert_eq!(out.get(7, 7), 0, "far pixels untouched");
    }

    #[test]
    fn open_removes_specks_keeps_blobs() {
        let out = open(&blob_image(), 1);
        assert_eq!(out.get(0, 0), 0, "isolated speck removed");
        assert_eq!(out.get(4, 4), 255, "large blob kept");
    }

    #[test]
    fn close_fills_holes() {
        let mut img = Image::<u8>::new(9, 9, 1);
        for y in 2..7 {
            for x in 2..7 {
                img.set(x, y, 255);
            }
        }
        img.set(4, 4, 0); // 1-pixel hole
        let out = close(&img, 1);
        assert_eq!(out.get(4, 4), 255, "hole filled");
    }

    #[test]
    fn erode_dilate_are_dual() {
        // erode(x) == 255 - dilate(255 - x)
        let img = blob_image();
        let inv = img.map(|v| 255 - v);
        let a = erode(&img, 1);
        let b = dilate(&inv, 1).map(|v| 255 - v);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn radius_zero_is_identity() {
        let img = blob_image();
        assert_eq!(erode(&img, 0), img);
        assert_eq!(dilate(&img, 0), img);
    }

    #[test]
    fn constant_image_is_fixed_point() {
        let mut img = Image::<u8>::new(8, 8, 1);
        img.fill(&[77]);
        assert_eq!(erode(&img, 2).as_slice(), img.as_slice());
        assert_eq!(dilate(&img, 2).as_slice(), img.as_slice());
    }
}
