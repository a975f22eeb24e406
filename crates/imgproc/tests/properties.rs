//! Property-based tests for the image-processing substrate.

use proptest::prelude::*;
use seaice_imgproc::buffer::Image;
use seaice_imgproc::color::{hsv_pixel_to_rgb, rgb_pixel_to_hsv, rgb_pixel_to_hsv_int};
use seaice_imgproc::filter::median_filter;
use seaice_imgproc::ops::{in_range, min_max_normalize};
use seaice_imgproc::threshold::{otsu_threshold, threshold, ThresholdType};

/// Reference connected-components via BFS flood fill, for comparison
/// against the union-find implementation.
fn flood_fill_count(mask: &Image<u8>, eight: bool) -> usize {
    let (w, h) = mask.dimensions();
    let mut seen = vec![false; w * h];
    let mut count = 0;
    for sy in 0..h {
        for sx in 0..w {
            if mask.get(sx, sy) == 0 || seen[sy * w + sx] {
                continue;
            }
            count += 1;
            let mut stack = vec![(sx, sy)];
            seen[sy * w + sx] = true;
            while let Some((x, y)) = stack.pop() {
                let mut push = |nx: isize, ny: isize| {
                    if nx >= 0 && ny >= 0 && (nx as usize) < w && (ny as usize) < h {
                        let (nx, ny) = (nx as usize, ny as usize);
                        if mask.get(nx, ny) != 0 && !seen[ny * w + nx] {
                            seen[ny * w + nx] = true;
                            stack.push((nx, ny));
                        }
                    }
                };
                let (xi, yi) = (x as isize, y as isize);
                push(xi - 1, yi);
                push(xi + 1, yi);
                push(xi, yi - 1);
                push(xi, yi + 1);
                if eight {
                    push(xi - 1, yi - 1);
                    push(xi + 1, yi - 1);
                    push(xi - 1, yi + 1);
                    push(xi + 1, yi + 1);
                }
            }
        }
    }
    count
}

fn arb_gray(max_side: usize) -> impl Strategy<Value = Image<u8>> {
    (1..=max_side, 1..=max_side).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h)
            .prop_map(move |data| Image::from_vec(w, h, 1, data))
    })
}

proptest! {
    #[test]
    fn hsv_hue_in_opencv_range(r: u8, g: u8, b: u8) {
        let [h, _s, v] = rgb_pixel_to_hsv(r, g, b);
        prop_assert!(h < 180);
        prop_assert_eq!(v, r.max(g).max(b));
    }

    #[test]
    fn gray_pixels_have_zero_saturation(v: u8) {
        let [h, s, _v] = rgb_pixel_to_hsv(v, v, v);
        prop_assert_eq!(s, 0);
        prop_assert_eq!(h, 0);
        prop_assert_eq!(rgb_pixel_to_hsv_int(v, v, v), [0, 0, v]);
    }

    #[test]
    fn integer_hsv_matches_float_reference(r: u8, g: u8, b: u8) {
        prop_assert_eq!(rgb_pixel_to_hsv_int(r, g, b), rgb_pixel_to_hsv(r, g, b));
    }

    #[test]
    fn hsv_to_rgb_to_hsv_roundtrips_within_tolerance(
        h in 0u8..180, s in 64u8..=255, v in 64u8..=255,
    ) {
        // Saturation and value floors keep the chroma large enough that
        // RGB integer quantization cannot blow up the recovered hue.
        let [r, g, b] = hsv_pixel_to_rgb(h, s, v);
        let [h2, s2, v2] = rgb_pixel_to_hsv(r, g, b);
        prop_assert_eq!(v2, v, "value must roundtrip exactly");
        prop_assert!((s2 as i32 - s as i32).abs() <= 8, "s {} vs {}", s, s2);
        let dh = (h2 as i32 - h as i32).abs();
        prop_assert!(dh.min(180 - dh) <= 4, "h {} vs {}", h, h2);
    }

    #[test]
    fn hsv_value_roundtrips_exactly(r: u8, g: u8, b: u8) {
        // V = max(R,G,B) survives an HSV roundtrip exactly; chroma may be
        // quantized but max channel magnitude is preserved to ±2.
        let [h, s, v] = rgb_pixel_to_hsv(r, g, b);
        let [r2, g2, b2] = hsv_pixel_to_rgb(h, s, v);
        let v2 = r2.max(g2).max(b2);
        prop_assert!((v as i32 - v2 as i32).abs() <= 2, "{} vs {}", v, v2);
    }

    #[test]
    fn otsu_threshold_within_value_range(img in arb_gray(16)) {
        let t = otsu_threshold(&img);
        let mn = *img.as_slice().iter().min().unwrap();
        let mx = *img.as_slice().iter().max().unwrap();
        prop_assert!(t >= mn && t <= mx, "t={} outside [{}, {}]", t, mn, mx);
    }

    #[test]
    fn binary_threshold_is_two_valued(img in arb_gray(16), t: u8) {
        let out = threshold(&img, t, 255, ThresholdType::Binary);
        prop_assert!(out.as_slice().iter().all(|&v| v == 0 || v == 255));
    }

    #[test]
    fn trunc_threshold_never_exceeds_t(img in arb_gray(16), t: u8) {
        let out = threshold(&img, t, 255, ThresholdType::Trunc);
        prop_assert!(out.as_slice().iter().all(|&v| v <= t));
    }

    #[test]
    fn minmax_normalize_is_bounded(img in arb_gray(16)) {
        let out = min_max_normalize(&img, 10, 240);
        prop_assert!(out.as_slice().iter().all(|&v| (10..=240).contains(&v)));
        // If the input has spread, the output must hit both endpoints.
        let mn = img.as_slice().iter().min().unwrap();
        let mx = img.as_slice().iter().max().unwrap();
        if mn != mx {
            prop_assert!(out.as_slice().contains(&10));
            prop_assert!(out.as_slice().contains(&240));
        }
    }

    #[test]
    fn in_range_mask_is_binary_and_monotone(img in arb_gray(12), lo: u8, hi: u8) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let mask = in_range(&img, &[lo], &[hi]);
        prop_assert!(mask.as_slice().iter().all(|&v| v == 0 || v == 255));
        // Widening the range can only add pixels.
        let wider = in_range(&img, &[lo.saturating_sub(10)], &[hi.saturating_add(10)]);
        for (m, w) in mask.as_slice().iter().zip(wider.as_slice()) {
            prop_assert!(*w >= *m);
        }
    }

    #[test]
    fn median_stays_within_the_input_range(img in arb_gray(12)) {
        // A median selects one of its window's samples, so it never leaves
        // the input's value range, not even by a rounding level.
        let lo = *img.as_slice().iter().min().unwrap();
        let hi = *img.as_slice().iter().max().unwrap();
        let out = median_filter(&img, 1);
        prop_assert!(out.as_slice().iter().all(|v| (lo..=hi).contains(v)));
    }

    #[test]
    fn union_find_components_match_flood_fill(
        bits in proptest::collection::vec(proptest::bool::ANY, 64),
        eight: bool,
    ) {
        use seaice_imgproc::components::{connected_components, Connectivity};
        let data: Vec<u8> = bits.iter().map(|&b| if b { 255 } else { 0 }).collect();
        let mask = Image::from_vec(8, 8, 1, data);
        let conn = if eight { Connectivity::Eight } else { Connectivity::Four };
        let (labels, comps) = connected_components(&mask, conn);
        prop_assert_eq!(comps.len(), flood_fill_count(&mask, eight));
        // Component areas sum to the nonzero pixel count, and every
        // nonzero pixel carries a label while background carries none.
        let nonzero = mask.as_slice().iter().filter(|&&v| v != 0).count();
        let area_sum: usize = comps.iter().map(|c| c.area).sum();
        prop_assert_eq!(area_sum, nonzero);
        for (m, l) in mask.as_slice().iter().zip(labels.as_slice()) {
            prop_assert_eq!(*m != 0, *l != 0);
        }
    }

    #[test]
    fn median_is_idempotent_on_constant(v: u8, side in 2..10usize) {
        let mut img = Image::<u8>::new(side, side, 1);
        img.fill(&[v]);
        let out = median_filter(&img, 1);
        prop_assert!(out.as_slice().iter().all(|&o| o == v));
    }
}
