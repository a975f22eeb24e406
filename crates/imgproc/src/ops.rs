//! Element-wise image operations: range masks, min-max normalization and
//! the vectorisable `u8` rounding — the OpenCV `inRange` and
//! `normalize(NORM_MINMAX)` equivalents used by the cloud/shadow filter and
//! the color segmenter.

use crate::buffer::Image;

/// Builds a binary mask (255 where inside, 0 outside) of pixels whose every
/// channel lies within `[lo, hi]` inclusive — `cv::inRange`.
///
/// # Panics
/// Panics if `lo`/`hi` length differs from the channel count.
pub fn in_range(src: &Image<u8>, lo: &[u8], hi: &[u8]) -> Image<u8> {
    let c = src.channels();
    assert_eq!(lo.len(), c, "lower bound arity mismatch");
    assert_eq!(hi.len(), c, "upper bound arity mismatch");
    let mut out = Image::<u8>::new(src.width(), src.height(), 1);
    for (dst, px) in out
        .as_mut_slice()
        .iter_mut()
        .zip(src.as_slice().chunks_exact(c))
    {
        let inside = px
            .iter()
            .zip(lo.iter().zip(hi))
            .all(|(&v, (&l, &h))| v >= l && v <= h);
        *dst = if inside { 255 } else { 0 };
    }
    out
}

/// Min-max normalization of a single-channel 8-bit image onto
/// `[out_lo, out_hi]`, like `cv::normalize(..., NORM_MINMAX)`.
///
/// A constant image maps entirely to `out_lo`. An output sample depends on
/// its input byte only, so the mapping is evaluated once per byte value
/// into a 256-entry table and the image is mapped through that.
///
/// # Panics
/// Panics if `src` is not single-channel, is empty, or `out_lo > out_hi`.
pub fn min_max_normalize(src: &Image<u8>, out_lo: u8, out_hi: u8) -> Image<u8> {
    assert_eq!(
        src.channels(),
        1,
        "normalize expects a single-channel image"
    );
    assert!(!src.as_slice().is_empty(), "normalize of an empty image");
    assert!(out_lo <= out_hi, "inverted output range");
    // Folds over the bytes themselves (not `min()` over references, which
    // tracks a pointer and stays scalar) vectorise; the image is not empty,
    // so the seeds never survive.
    let mn = f32::from(src.as_slice().iter().fold(u8::MAX, |m, &v| m.min(v)));
    let mx = f32::from(src.as_slice().iter().fold(u8::MIN, |m, &v| m.max(v)));
    if mx <= mn {
        let mut out = src.clone();
        out.as_mut_slice().fill(out_lo);
        return out;
    }
    let scale = (out_hi - out_lo) as f32 / (mx - mn);
    let table: [u8; 256] =
        std::array::from_fn(|v| (out_lo as f32 + (v as f32 - mn) * scale).round() as u8);
    src.map(|v| table[usize::from(v)])
}

/// `x.round().clamp(0.0, 255.0) as u8` without the call into libm, in
/// operations that stay in SIMD lanes when a loop is vectorised.
///
/// The saturating `as u8` would lower to one scalar `cvttss2si` per lane, so
/// the clamp is two compare-selects (NaN fails `x > 0` and maps to 0).
/// Adding 2²³ to `y ∈ [0, 255]` rounds it to the nearest integer, ties to
/// even, which then sits in the sum's low mantissa bits. `y − r` against
/// that integer `r` is exact, and it is `+½` exactly on the ties that went
/// down to even, which `round` takes up instead (away from zero).
#[inline]
pub fn round_to_u8(x: f32) -> u8 {
    const SHIFT: f32 = 8_388_608.0; // 2²³: one ulp of `SHIFT + y` is 1
    let y = if x > 0.0 { x } else { 0.0 };
    let y = if y < 255.0 { y } else { 255.0 };
    let shifted = y + SHIFT;
    let r = shifted - SHIFT;
    let t = if y - r >= 0.5 { shifted + 1.0 } else { shifted };
    t.to_bits() as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(vals: &[u8]) -> Image<u8> {
        Image::from_vec(vals.len(), 1, 1, vals.to_vec())
    }

    #[test]
    fn in_range_all_channels_must_match() {
        let mut src = Image::<u8>::new(2, 1, 3);
        src.put_pixel(0, 0, &[0, 0, 210]); // inside thick-ice range
        src.put_pixel(1, 0, &[0, 0, 100]); // V too low
        let mask = in_range(&src, &[0, 0, 205], &[185, 255, 255]);
        assert_eq!(mask.as_slice(), &[255, 0]);
    }

    #[test]
    fn minmax_normalize_hits_bounds() {
        let out = min_max_normalize(&img(&[50, 100, 150]), 0, 255);
        assert_eq!(out.as_slice(), &[0, 128, 255]);
    }

    #[test]
    fn minmax_normalize_constant_maps_to_lo() {
        let out = min_max_normalize(&img(&[9, 9, 9]), 10, 200);
        assert_eq!(out.as_slice(), &[10, 10, 10]);
    }

    #[test]
    fn minmax_normalize_table_equals_the_per_pixel_form() {
        // The mapping as it was written before the table: one `round` per
        // pixel.
        let per_pixel = |src: &Image<u8>, out_lo: u8, out_hi: u8| {
            let mn = *src.as_slice().iter().min().unwrap() as f32;
            let mx = *src.as_slice().iter().max().unwrap() as f32;
            if mx <= mn {
                return src.map(|_| out_lo);
            }
            let scale = (out_hi - out_lo) as f32 / (mx - mn);
            src.map(|v| (out_lo as f32 + (v as f32 - mn) * scale).round() as u8)
        };
        let ramp: Vec<u8> = (0..=255).collect();
        let images = [
            img(&ramp),
            img(&[50, 100, 150, 101, 99, 77]),
            img(&[3, 250, 128, 17, 200, 201, 4]),
            img(&[254, 255, 255]),
            img(&[0, 1]),
            img(&[9, 9, 9]),
            img(&[200]),
        ];
        let ranges = [
            (0, 255),
            (10, 200),
            (7, 7),
            (0, 0),
            (255, 255),
            (1, 3),
            (100, 101),
        ];
        for src in &images {
            for (lo, hi) in ranges {
                assert_eq!(
                    min_max_normalize(src, lo, hi),
                    per_pixel(src, lo, hi),
                    "{:?} onto [{lo}, {hi}]",
                    src.as_slice()
                );
            }
        }
    }

    #[test]
    fn round_to_u8_equals_round_clamp_cast_on_every_f32_in_range() {
        let reference = |x: f32| x.round().clamp(0.0, 255.0) as u8;
        let check = |bits: u32| {
            let x = f32::from_bits(bits);
            assert_eq!(round_to_u8(x), reference(x), "x = {x:e} (bits {bits:#x})");
        };
        // Every bit pattern in [-1, 257]: -0.0 up to -1.0, then +0.0 up to
        // 257.0 (f32 bit patterns of one sign order like their values).
        (0.0f32.to_bits()..=257.0f32.to_bits()).for_each(check);
        ((-0.0f32).to_bits()..=(-1.0f32).to_bits()).for_each(check);
        // The infinities, NaNs of both signs and payloads, and a stride
        // through every other bit pattern.
        for x in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN] {
            check(x.to_bits());
        }
        [0x7f80_0001, 0x7fff_ffff, 0xff80_0001, 0xffff_ffff]
            .into_iter()
            .for_each(check);
        (0..=u32::MAX).step_by(4099).for_each(check);
    }
}
