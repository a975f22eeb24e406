//! Differential tests proving the fused integer/LUT auto-label kernel is
//! bit-identical to the `f32` reference path (HSV conversion + range
//! scans) under the paper's class ranges and under a range set that
//! restricts hue, and that the cloud/shadow filter's division-free
//! saturation test equals the integer quotient it replaces.
//!
//! Each RGB value is labelled as a run of one pixel, and each `(r, g)` row
//! of 256 blue values as one run with a colour label, so both the scalar
//! tail and the vector body of `fused_label_run` are checked. The seeded
//! 1M-sample variant runs in tier-1; the exhaustive sweep over all 2^24 RGB
//! inputs is `#[ignore]`d for `cargo test --release -- --ignored`.

use seaice::imgproc::buffer::Image;
use seaice::imgproc::color::{rgb_pixel_to_hsv, rgb_pixel_to_hsv_int, saturation_at_most};
use seaice::label::autolabel::{auto_label, AutoLabelConfig, LabelBackend};
use seaice::label::fused::{fused_label_run, segment_classes_fused, ClassLut};
use seaice::label::ranges::{ClassRanges, HsvRange};
use seaice::label::segment::segment_classes;
use seaice::s2::synth::{generate, SceneConfig};

/// Saturation ceilings the division-free test is checked at.
const SATURATION_LIMITS: [u8; 6] = [0, 1, 14, 127, 254, 255];

/// Range sets checked pixel by pixel: the paper's (classified by V alone)
/// and one where thick ice reaches into thin ice's V band at blue hues only,
/// so the general H/S/V tables decide.
fn range_sets() -> [(ClassRanges, ClassLut); 2] {
    let paper = ClassRanges::paper();
    let hue_restricted = ClassRanges {
        thick: HsvRange {
            lo: [90, 0, 150],
            hi: [130, 255, 255],
        },
        ..paper
    };
    [paper, hue_restricted].map(|ranges| (ranges, ClassLut::new(&ranges)))
}

/// Checks one RGB value through both pixel pipelines under every range
/// set, and the division-free saturation test at every ceiling.
fn check_pixel(r: u8, g: u8, b: u8, sets: &[(ClassRanges, ClassLut)]) {
    let hsv_ref = rgb_pixel_to_hsv(r, g, b);
    let hsv_int = rgb_pixel_to_hsv_int(r, g, b);
    assert_eq!(
        hsv_int, hsv_ref,
        "integer HSV diverged from f32 at rgb ({r},{g},{b})"
    );
    for (ranges, lut) in sets {
        let class_ref = ranges.classify(&hsv_ref) as u8;
        let class_fused = lut.classify_rgb(r, g, b);
        assert_eq!(
            class_fused, class_ref,
            "fused class diverged at rgb ({r},{g},{b}), hsv {hsv_ref:?}, ranges {ranges:?}"
        );
        let mut run = [u8::MAX];
        fused_label_run(&[r, g, b], &mut run, None, lut);
        assert_eq!(
            run[0], class_ref,
            "fused run diverged at rgb ({r},{g},{b}), ranges {ranges:?}"
        );
    }
    let v = r.max(g).max(b);
    let delta = f32::from(v - r.min(g).min(b));
    for limit in SATURATION_LIMITS {
        assert_eq!(
            saturation_at_most(f32::from(v), delta, limit),
            hsv_int[1] <= limit,
            "division-free S <= {limit} diverged at rgb ({r},{g},{b}), S = {}",
            hsv_int[1]
        );
    }
}

/// Labels the 256 pixels `(r, g, 0..=255)` as one run with a colour label
/// under every range set, and checks every pixel's class and colour against
/// the reference: a run long enough for a vector path to take most of it,
/// where `check_pixel`'s one-pixel runs reach only its scalar tail.
fn check_row(r: u8, g: u8, sets: &[(ClassRanges, ClassLut)]) {
    let rgb: Vec<u8> = (0..=255u8).flat_map(|b| [r, g, b]).collect();
    let (mut mask, mut color) = ([u8::MAX; 256], [u8::MAX; 768]);
    for (ranges, lut) in sets {
        fused_label_run(&rgb, &mut mask, Some(&mut color), lut);
        for (b, (&class, c)) in mask.iter().zip(color.chunks_exact(3)).enumerate() {
            let want = ranges.classify(&rgb_pixel_to_hsv(r, g, b as u8));
            assert_eq!(
                class, want as u8,
                "fused run of 256 diverged at rgb ({r},{g},{b}), ranges {ranges:?}"
            );
            assert_eq!(
                c,
                want.color(),
                "colour label diverged at rgb ({r},{g},{b}), ranges {ranges:?}"
            );
        }
    }
}

/// SplitMix64 — tiny deterministic generator for the sampled variant.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn sampled_million_rgb_values_are_bit_identical() {
    let sets = range_sets();
    let mut rng = SplitMix64(0x5ea1_ce00_d1ff_7e57);
    for _ in 0..1_000_000 {
        let x = rng.next();
        check_pixel(x as u8, (x >> 8) as u8, (x >> 16) as u8, &sets);
    }
    // The boundary shell matters more than uniform mass: sweep every pair
    // at the paper's V thresholds and the extremes.
    for &fixed in &[0u8, 30, 31, 204, 205, 255] {
        for a in 0..=255u8 {
            for b in (0..=255u8).step_by(3) {
                check_pixel(a, b, fixed, &sets);
                check_pixel(fixed, a, b, &sets);
            }
        }
    }
    // S depends on V and Δ = V − min only: one pixel per (V, Δ) pair
    // reaches every saturation the division-free test can be asked about.
    for v in 0..=255u8 {
        for delta in 0..=v {
            check_pixel(v, v - delta, v - delta / 2, &sets);
        }
    }
    // Whole rows of blue as one run each, at the thresholds' R and G and
    // at seeded ones.
    for &(r, g) in &[(0, 0), (30, 31), (204, 205), (255, 255), (255, 0), (0, 255)] {
        check_row(r, g, &sets);
    }
    for _ in 0..2_000 {
        let x = rng.next();
        check_row(x as u8, (x >> 8) as u8, &sets);
    }
}

#[test]
#[ignore = "exhaustive 2^24 sweep; run with --release -- --ignored"]
fn exhaustive_rgb_space_is_bit_identical() {
    let sets = range_sets();
    for r in 0..=255u8 {
        for g in 0..=255u8 {
            for b in 0..=255u8 {
                check_pixel(r, g, b, &sets);
            }
            check_row(r, g, &sets);
        }
    }
}

#[test]
fn image_level_segmentation_agrees_on_synthetic_scenes() {
    let ranges = ClassRanges::paper();
    for seed in 0..5 {
        let scene = generate(&SceneConfig::tiny(64), 700 + seed);
        assert_eq!(
            segment_classes_fused(&scene.rgb, &ranges),
            segment_classes(&scene.rgb, &ranges),
            "scene seed {seed}"
        );
    }
}

#[test]
fn full_auto_label_outputs_agree_across_backends() {
    let scene = generate(&SceneConfig::tiny(48), 77);
    for cfg in [
        AutoLabelConfig::unfiltered(),
        AutoLabelConfig::filtered_for_tile(48),
    ] {
        let fused = auto_label(&scene.rgb, &cfg.with_backend(LabelBackend::Fused));
        let reference = auto_label(&scene.rgb, &cfg.with_backend(LabelBackend::Reference));
        assert_eq!(fused.class_mask, reference.class_mask);
        assert_eq!(fused.color_label, reference.color_label);
        assert_eq!(fused.processed, reference.processed);
    }
}

#[test]
fn fused_kernel_handles_degenerate_shapes() {
    let ranges = ClassRanges::paper();
    for (w, h) in [(1usize, 1usize), (1, 7), (7, 1), (3, 2)] {
        let img = Image::from_fn(w, h, 3, |x, y| {
            vec![(x * 97) as u8, (y * 53) as u8, ((x + y) * 31) as u8]
        });
        assert_eq!(
            segment_classes_fused(&img, &ranges),
            segment_classes(&img, &ranges),
            "shape {w}x{h}"
        );
    }
}
