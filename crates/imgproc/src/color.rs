//! Color-space conversions following OpenCV's 8-bit conventions.
//!
//! The auto-labeling thresholds in the paper are specified in OpenCV HSV
//! coordinates (`H ∈ [0, 180)`, `S, V ∈ [0, 255]`), so these conversions
//! replicate `cv::cvtColor` for `COLOR_RGB2HSV` / `COLOR_RGB2GRAY` on
//! `CV_8U` data, with the per-pixel `COLOR_HSV2RGB` inverse.

use crate::buffer::Image;
use seaice_exec::par;

/// Converts one 8-bit RGB pixel to OpenCV-convention HSV.
///
/// Hue is in `[0, 180)` (degrees halved to fit a byte), saturation and value
/// in `[0, 255]`.
#[inline]
pub fn rgb_pixel_to_hsv(r: u8, g: u8, b: u8) -> [u8; 3] {
    let (rf, gf, bf) = (r as f32, g as f32, b as f32);
    let v = rf.max(gf).max(bf);
    let min = rf.min(gf).min(bf);
    let delta = v - min;

    let s = if v > 0.0 { 255.0 * delta / v } else { 0.0 };

    let h = if delta == 0.0 {
        0.0
    } else if v == rf {
        60.0 * (gf - bf) / delta
    } else if v == gf {
        120.0 + 60.0 * (bf - rf) / delta
    } else {
        240.0 + 60.0 * (rf - gf) / delta
    };
    let h = if h < 0.0 { h + 360.0 } else { h };

    [
        (h / 2.0).round().min(179.0) as u8,
        s.round().min(255.0) as u8,
        v.round() as u8,
    ]
}

/// Integer-only replica of [`rgb_pixel_to_hsv`], bit-identical for every
/// 8-bit input.
///
/// The float reference computes `round(255·Δ/V)` and `round(h°/2)` in
/// `f32`. Both are rationals with denominators ≤ 510, so their distance
/// from any half-integer rounding boundary is at least `1/1020` — three
/// orders of magnitude above the accumulated `f32` rounding error — which
/// makes `floor((2·num + den) / (2·den))` an exact integer equivalent.
/// The fused auto-label kernel relies on this (and
/// `tests/fused_vs_reference.rs` proves it over the full input space).
#[inline]
pub fn rgb_pixel_to_hsv_int(r: u8, g: u8, b: u8) -> [u8; 3] {
    let (ri, gi, bi) = (r as i32, g as i32, b as i32);
    let v = ri.max(gi).max(bi);
    let min = ri.min(gi).min(bi);
    let delta = v - min;

    // round(255·Δ/V) = floor((510·Δ + V) / (2·V)).
    let s = if v > 0 {
        (510 * delta + v) / (2 * v)
    } else {
        0
    };

    let h = if delta == 0 {
        0
    } else {
        // Branch order matches the reference exactly: `v == rf` wins ties.
        let (base, n) = if v == ri {
            (if gi >= bi { 0 } else { 360 }, gi - bi)
        } else if v == gi {
            (120, bi - ri)
        } else {
            (240, ri - gi)
        };
        // h° = base + 60·n/Δ (non-negative by construction);
        // round(h°/2) = floor((base·Δ + 60·n + Δ) / (2·Δ)).
        let num = base * delta + 60 * n;
        ((num + delta) / (2 * delta)).min(179)
    };

    [h as u8, s as u8, v as u8]
}

/// `rgb_pixel_to_hsv_int(..)[1] <= max_s` without its division, from the
/// pixel's V (largest channel) and Δ = V − smallest channel.
///
/// For V > 0, `S = floor((510·Δ + V) / (2·V)) ≤ L` ⟺
/// `510·Δ + V < 2·V·(L + 1)`; at V = 0 the saturation is 0. `v` and `delta`
/// are those integers carried in `f32`, so the test vectorises alongside
/// `f32` pixel arithmetic: every operand and product is an integer below
/// 2¹⁸, so each step is exact and the comparison is the integer one.
#[inline]
pub fn saturation_at_most(v: f32, delta: f32, max_s: u8) -> bool {
    v == 0.0 || 510.0 * delta + v < 2.0 * v * (f32::from(max_s) + 1.0)
}

/// Converts one OpenCV-convention HSV pixel back to 8-bit RGB.
#[inline]
pub fn hsv_pixel_to_rgb(h: u8, s: u8, v: u8) -> [u8; 3] {
    let h = h as f32 * 2.0; // degrees
    let s = s as f32 / 255.0;
    let v = v as f32;

    let c = v * s;
    let hp = h / 60.0;
    let x = c * (1.0 - (hp % 2.0 - 1.0).abs());
    let (r1, g1, b1) = match hp as u32 {
        0 => (c, x, 0.0),
        1 => (x, c, 0.0),
        2 => (0.0, c, x),
        3 => (0.0, x, c),
        4 => (x, 0.0, c),
        _ => (c, 0.0, x),
    };
    let m = v - c;
    [
        (r1 + m).round().clamp(0.0, 255.0) as u8,
        (g1 + m).round().clamp(0.0, 255.0) as u8,
        (b1 + m).round().clamp(0.0, 255.0) as u8,
    ]
}

/// Converts a 3-channel RGB image to OpenCV-convention HSV.
///
/// # Panics
/// Panics if `src` is not 3-channel.
pub fn rgb_to_hsv(src: &Image<u8>) -> Image<u8> {
    assert_eq!(src.channels(), 3, "expected a 3-channel image");
    let mut out = Image::<u8>::new(src.width(), src.height(), 3);
    let stride = (src.width() * 3).max(1);
    par::chunks_mut(out.as_mut_slice(), stride, |y, dst| {
        for (d, p) in dst.chunks_exact_mut(3).zip(src.row(y).chunks_exact(3)) {
            d.copy_from_slice(&rgb_pixel_to_hsv(p[0], p[1], p[2]));
        }
    });
    out
}

/// Converts RGB to single-channel luma with OpenCV's BT.601 weights
/// (`0.299 R + 0.587 G + 0.114 B`).
///
/// # Panics
/// Panics if `src` is not 3-channel.
pub fn rgb_to_gray(src: &Image<u8>) -> Image<u8> {
    assert_eq!(src.channels(), 3, "expected a 3-channel image");
    let mut out = Image::<u8>::new(src.width(), src.height(), 1);
    let w = src.width().max(1);
    par::chunks_mut(out.as_mut_slice(), w, |row, dst| {
        for (d, p) in dst.iter_mut().zip(src.row(row).chunks_exact(3)) {
            let y = 0.299 * p[0] as f32 + 0.587 * p[1] as f32 + 0.114 * p[2] as f32;
            *d = y.round().min(255.0) as u8;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_colors_to_hsv() {
        // Pure red: H=0, S=255, V=255.
        assert_eq!(rgb_pixel_to_hsv(255, 0, 0), [0, 255, 255]);
        // Pure green: H=120° → 60 in OpenCV half-degrees.
        assert_eq!(rgb_pixel_to_hsv(0, 255, 0), [60, 255, 255]);
        // Pure blue: H=240° → 120.
        assert_eq!(rgb_pixel_to_hsv(0, 0, 255), [120, 255, 255]);
    }

    #[test]
    fn grays_have_zero_saturation() {
        for v in [0u8, 31, 128, 204, 255] {
            let hsv = rgb_pixel_to_hsv(v, v, v);
            assert_eq!(hsv[0], 0);
            assert_eq!(hsv[1], 0);
            assert_eq!(hsv[2], v);
        }
    }

    #[test]
    fn hsv_roundtrip_is_close() {
        // HSV is quantized (hue halved), so allow a small channel tolerance.
        for &(r, g, b) in &[
            (12u8, 200u8, 100u8),
            (255, 255, 255),
            (0, 0, 0),
            (210, 215, 230),
            (40, 40, 45),
        ] {
            let [h, s, v] = rgb_pixel_to_hsv(r, g, b);
            let [r2, g2, b2] = hsv_pixel_to_rgb(h, s, v);
            assert!(
                (r as i32 - r2 as i32).abs() <= 3
                    && (g as i32 - g2 as i32).abs() <= 3
                    && (b as i32 - b2 as i32).abs() <= 3,
                "roundtrip too lossy: ({r},{g},{b}) -> ({r2},{g2},{b2})"
            );
        }
    }

    #[test]
    fn image_level_matches_pixel_level() {
        let mut img = Image::<u8>::new(3, 1, 3);
        img.put_pixel(0, 0, &[255, 0, 0]);
        img.put_pixel(1, 0, &[10, 20, 30]);
        img.put_pixel(2, 0, &[200, 200, 200]);
        let hsv = rgb_to_hsv(&img);
        assert_eq!(hsv.pixel(0, 0), &rgb_pixel_to_hsv(255, 0, 0));
        assert_eq!(hsv.pixel(1, 0), &rgb_pixel_to_hsv(10, 20, 30));
        assert_eq!(hsv.pixel(2, 0), &rgb_pixel_to_hsv(200, 200, 200));
    }

    #[test]
    fn parallel_path_matches_sequential() {
        // Build an image tall enough to fork on a multi-core host and compare
        // a few pixels against the scalar kernel.
        let w = 128;
        let img = Image::from_fn(w, w, 3, |x, y| {
            vec![(x % 256) as u8, (y % 256) as u8, ((x + y) % 256) as u8]
        });
        let hsv = rgb_to_hsv(&img);
        for &(x, y) in &[(0, 0), (63, 17), (127, 127)] {
            let p = img.pixel(x, y);
            assert_eq!(hsv.pixel(x, y), &rgb_pixel_to_hsv(p[0], p[1], p[2]));
        }
    }

    #[test]
    fn integer_hsv_matches_float_on_boundary_pixels() {
        // The exhaustive proof lives in tests/fused_vs_reference.rs; spot
        // checks here cover the branch and rounding edges.
        for &(r, g, b) in &[
            (255u8, 0u8, 0u8),
            (0, 255, 0),
            (0, 0, 255),
            (255, 255, 255),
            (0, 0, 0),
            (255, 254, 255), // v == r and v == b: branch tie
            (128, 128, 127),
            (255, 0, 1), // near the hue wrap
            (1, 0, 255),
            (203, 204, 205),
            (31, 30, 29),
        ] {
            assert_eq!(
                rgb_pixel_to_hsv_int(r, g, b),
                rgb_pixel_to_hsv(r, g, b),
                "int/float HSV mismatch at ({r},{g},{b})"
            );
        }
    }

    #[test]
    fn gray_conversion_weights() {
        let mut img = Image::<u8>::new(1, 1, 3);
        img.put_pixel(0, 0, &[255, 0, 0]);
        assert_eq!(rgb_to_gray(&img).get(0, 0), 76); // 0.299 * 255 ≈ 76
        let mut img = Image::<u8>::new(1, 1, 3);
        img.put_pixel(0, 0, &[255, 255, 255]);
        assert_eq!(rgb_to_gray(&img).get(0, 0), 255);
    }
}
