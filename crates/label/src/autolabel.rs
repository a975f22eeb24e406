//! End-to-end auto-labeling (Fig. 6): optional thin-cloud/shadow
//! filtering, then HSV color-threshold segmentation, producing the class
//! mask and the color-coded label image used as U-Net training data.

use crate::cloudshadow::{CloudShadowFilter, FilterConfig};
use crate::fused::{segment_into, ClassLut};
use crate::parallel::WorkerPool;
use crate::ranges::ClassRanges;
use crate::segment::{segment_classes, segment_to_color};
use seaice_imgproc::buffer::{Image, Scratch};

/// Which segmentation kernel the auto-labeler runs.
///
/// Both produce bit-identical masks for every RGB input (enforced by
/// `tests/fused_vs_reference.rs`); `Fused` is the fast path and the
/// default, `Reference` exists as the trusted baseline for differential
/// testing and benchmarking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LabelBackend {
    /// `f32` HSV conversion to an intermediate image, then per-pixel
    /// range scans (the original, OpenCV-shaped path).
    Reference,
    /// Single-pass integer HSV + per-channel bitmask LUTs, no
    /// intermediate images (see [`crate::fused`]).
    #[default]
    Fused,
}

/// Auto-labeling configuration.
#[derive(Clone, Copy, Debug)]
pub struct AutoLabelConfig {
    /// HSV class thresholds (defaults to the paper's calibration).
    pub ranges: ClassRanges,
    /// Thin-cloud/shadow filter settings; `None` labels the raw image
    /// (the paper's "original S2 images" arm).
    pub filter: Option<FilterConfig>,
    /// Segmentation kernel selection.
    pub backend: LabelBackend,
}

impl Default for AutoLabelConfig {
    fn default() -> Self {
        Self {
            ranges: ClassRanges::paper(),
            filter: Some(FilterConfig::default()),
            backend: LabelBackend::default(),
        }
    }
}

impl AutoLabelConfig {
    /// Labels raw imagery without the cloud/shadow filter.
    pub fn unfiltered() -> Self {
        Self {
            filter: None,
            ..Self::default()
        }
    }

    /// Labels with the filter tuned for `side`-pixel tiles.
    pub fn filtered_for_tile(side: usize) -> Self {
        Self {
            filter: Some(FilterConfig::for_tile(side)),
            ..Self::default()
        }
    }

    /// The same configuration with a different segmentation backend.
    pub fn with_backend(self, backend: LabelBackend) -> Self {
        Self { backend, ..self }
    }
}

/// The auto-labeler's products for one image.
#[derive(Clone, Debug)]
pub struct LabelOutput {
    /// Single-channel class mask (0 = thick, 1 = thin, 2 = water).
    pub class_mask: Image<u8>,
    /// Color-coded label image (red/blue/green, Fig. 4 convention).
    pub color_label: Image<u8>,
    /// The image segmentation actually ran on (filtered when a filter is
    /// configured, otherwise a copy of the input).
    pub processed: Image<u8>,
}

/// Runs the configured preprocessing, reusing `scratch` buffers where the
/// result permits it.
fn preprocess(rgb: &Image<u8>, cfg: &AutoLabelConfig, scratch: &mut Scratch) -> Image<u8> {
    match &cfg.filter {
        Some(fc) => CloudShadowFilter::new(*fc).apply_keep_filtered(rgb, scratch),
        None => {
            let mut p = scratch.take_image_for_overwrite(rgb.width(), rgb.height(), 3);
            p.as_mut_slice().copy_from_slice(rgb.as_slice());
            p
        }
    }
}

/// Segments `processed` into a class mask and color label with the
/// configured backend.
fn segment_both(
    processed: &Image<u8>,
    cfg: &AutoLabelConfig,
    scratch: &mut Scratch,
) -> (Image<u8>, Image<u8>) {
    match cfg.backend {
        LabelBackend::Reference => {
            let mask = segment_classes(processed, &cfg.ranges);
            let color = segment_to_color(&mask);
            (mask, color)
        }
        LabelBackend::Fused => {
            let (w, h) = processed.dimensions();
            let mut mask = scratch.take_image_for_overwrite(w, h, 1);
            let mut color = scratch.take_image_for_overwrite(w, h, 3);
            segment_into(
                processed,
                &ClassLut::new(&cfg.ranges),
                &mut mask,
                Some(&mut color),
            );
            (mask, color)
        }
    }
}

/// Labeling throughput counters. Inert — a branch on a `None` — when
/// metrics are disabled, so the deterministic labeling path is
/// byte-identical either way; these count work, they never time it
/// (ns/tile figures come from the bench layer, which owns the clock).
fn obs_counters() -> (seaice_obs::Counter, seaice_obs::Counter) {
    let m = seaice_obs::metrics();
    (m.counter("label.tiles"), m.counter("label.pixels"))
}

/// Auto-labels one RGB image.
pub fn auto_label(rgb: &Image<u8>, cfg: &AutoLabelConfig) -> LabelOutput {
    auto_label_scratch(rgb, cfg, &mut Scratch::new())
}

/// Auto-labels one RGB image, drawing tile-sized buffers from (and
/// donating discarded intermediates to) a caller-owned [`Scratch`]. Batch
/// drivers hand each worker one scratch so consecutive tiles reuse the
/// same allocations.
pub fn auto_label_scratch(
    rgb: &Image<u8>,
    cfg: &AutoLabelConfig,
    scratch: &mut Scratch,
) -> LabelOutput {
    let (tiles, pixels) = obs_counters();
    tiles.incr(1);
    pixels.incr((rgb.width() * rgb.height()) as u64);
    let processed = preprocess(rgb, cfg, scratch);
    let (class_mask, color_label) = segment_both(&processed, cfg, scratch);
    LabelOutput {
        class_mask,
        color_label,
        processed,
    }
}

/// Computes only the class mask for one RGB image — the shape consumers
/// like U-Net training-sample construction need. The processed image and
/// color label are never materialized for the caller, so their buffers
/// recycle through `scratch` and consecutive tiles run allocation-free on
/// the fused backend.
pub fn auto_label_class_mask(
    rgb: &Image<u8>,
    cfg: &AutoLabelConfig,
    scratch: &mut Scratch,
) -> Image<u8> {
    let (tiles, pixels) = obs_counters();
    tiles.incr(1);
    pixels.incr((rgb.width() * rgb.height()) as u64);
    let processed = preprocess(rgb, cfg, scratch);
    let mask = match cfg.backend {
        LabelBackend::Reference => segment_classes(&processed, &cfg.ranges),
        LabelBackend::Fused => {
            let (w, h) = processed.dimensions();
            let mut mask = scratch.take_image_for_overwrite(w, h, 1);
            segment_into(&processed, &ClassLut::new(&cfg.ranges), &mut mask, None);
            mask
        }
    };
    scratch.recycle_image(processed);
    mask
}

/// Sequentially auto-labels a batch (the Table I baseline).
pub fn auto_label_batch(images: &[Image<u8>], cfg: &AutoLabelConfig) -> Vec<LabelOutput> {
    let mut scratch = Scratch::new();
    images
        .iter()
        .map(|img| auto_label_scratch(img, cfg, &mut scratch))
        .collect()
}

/// Auto-labels a batch on a fixed worker pool — the Python
/// `multiprocessing` analog driving Table I / Fig. 10.
pub fn auto_label_batch_pool(
    pool: &WorkerPool,
    images: Vec<Image<u8>>,
    cfg: AutoLabelConfig,
) -> Vec<LabelOutput> {
    pool.map(images, move |img| {
        thread_local! {
            static SCRATCH: std::cell::RefCell<Scratch> =
                std::cell::RefCell::new(Scratch::new());
        }
        SCRATCH.with(|s| auto_label_scratch(&img, &cfg, &mut s.borrow_mut()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranges::IceClass;
    use seaice_s2::synth::{generate, SceneConfig};

    fn tri_band(side: usize) -> Image<u8> {
        Image::from_fn(side, side, 3, |x, _| {
            if x < side / 3 {
                vec![230, 233, 238]
            } else if x < 2 * side / 3 {
                vec![100, 112, 122]
            } else {
                vec![8, 12, 18]
            }
        })
    }

    #[test]
    fn labeling_counts_tiles_and_pixels_when_metrics_enabled() {
        let m = seaice_obs::enable_metrics();
        let tiles_before = m.counter("label.tiles").get();
        let pixels_before = m.counter("label.pixels").get();
        let img = tri_band(24);
        let _ = auto_label(&img, &AutoLabelConfig::unfiltered());
        let _ = auto_label_class_mask(&img, &AutoLabelConfig::unfiltered(), &mut Scratch::new());
        assert!(m.counter("label.tiles").get() >= tiles_before + 2);
        assert!(m.counter("label.pixels").get() >= pixels_before + 2 * 24 * 24);
    }

    #[test]
    fn unfiltered_labeling_matches_direct_segmentation() {
        let img = tri_band(24);
        let out = auto_label(&img, &AutoLabelConfig::unfiltered());
        assert_eq!(out.processed, img);
        assert_eq!(out.class_mask.get(0, 0), IceClass::Thick as u8);
        assert_eq!(out.class_mask.get(23, 0), IceClass::Water as u8);
        assert_eq!(out.color_label.pixel(0, 0), &[255, 0, 0]);
    }

    #[test]
    fn filtered_labeling_runs_the_filter() {
        let img = tri_band(48);
        let out = auto_label(&img, &AutoLabelConfig::filtered_for_tile(48));
        assert_eq!(out.class_mask.dimensions(), (48, 48));
        // Clean synthetic bands survive the filter with identical labels.
        let unf = auto_label(&img, &AutoLabelConfig::unfiltered());
        let agree = out
            .class_mask
            .as_slice()
            .iter()
            .zip(unf.class_mask.as_slice())
            .filter(|(a, b)| a == b)
            .count();
        assert!(agree as f64 / (48.0 * 48.0) > 0.97);
    }

    #[test]
    fn batch_variants_agree() {
        let images: Vec<_> = (0..6)
            .map(|i| generate(&SceneConfig::tiny(32), i).rgb)
            .collect();
        let cfg = AutoLabelConfig::unfiltered();
        let seq = auto_label_batch(&images, &cfg);
        let pool = WorkerPool::new(3);
        let pooled = auto_label_batch_pool(&pool, images.clone(), cfg);
        for i in 0..images.len() {
            assert_eq!(
                seq[i].class_mask, pooled[i].class_mask,
                "pool mismatch at {i}"
            );
        }
    }

    #[test]
    fn backends_agree_on_synthetic_scenes() {
        for seed in 0..4 {
            let scene = generate(&SceneConfig::tiny(48), 300 + seed);
            for cfg in [
                AutoLabelConfig::unfiltered(),
                AutoLabelConfig::filtered_for_tile(48),
            ] {
                let fused = auto_label(&scene.rgb, &cfg.with_backend(LabelBackend::Fused));
                let reference = auto_label(&scene.rgb, &cfg.with_backend(LabelBackend::Reference));
                assert_eq!(fused.class_mask, reference.class_mask, "seed {seed}");
                assert_eq!(fused.color_label, reference.color_label, "seed {seed}");
                assert_eq!(fused.processed, reference.processed, "seed {seed}");
            }
        }
    }

    #[test]
    fn class_mask_only_path_matches_full_output() {
        let scene = generate(&SceneConfig::tiny(32), 9);
        let mut scratch = seaice_imgproc::buffer::Scratch::new();
        for cfg in [
            AutoLabelConfig::unfiltered(),
            AutoLabelConfig::unfiltered().with_backend(LabelBackend::Reference),
            AutoLabelConfig::filtered_for_tile(32),
        ] {
            let mask = auto_label_class_mask(&scene.rgb, &cfg, &mut scratch);
            assert_eq!(mask, auto_label(&scene.rgb, &cfg).class_mask);
        }
    }

    #[test]
    fn scratch_buffers_recycle_across_tiles() {
        // After the first unfiltered mask-only tile, the processed copy is
        // recycled; the second tile must find it in the pool.
        let imgs: Vec<_> = (0..3)
            .map(|i| generate(&SceneConfig::tiny(16), 40 + i).rgb)
            .collect();
        let mut scratch = seaice_imgproc::buffer::Scratch::new();
        let cfg = AutoLabelConfig::unfiltered();
        let first = auto_label_class_mask(&imgs[0], &cfg, &mut scratch);
        assert!(scratch.pooled().0 >= 1, "processed buffer not recycled");
        let baseline = scratch.pooled().0;
        let _ = auto_label_class_mask(&imgs[1], &cfg, &mut scratch);
        let _ = auto_label_class_mask(&imgs[2], &cfg, &mut scratch);
        // Steady state: the pool stops growing once tiles reuse buffers.
        assert!(scratch.pooled().0 <= baseline + 1, "pool grew per tile");
        assert_eq!(first, auto_label(&imgs[0], &cfg).class_mask);
    }

    #[test]
    fn filtered_labelling_reaches_an_allocation_free_steady_state() {
        // A streaming consumer hands every output back. Once the pool has
        // met each size the loop asks for, a take it could not serve would
        // come back as one more pooled buffer — so a pool that stops
        // changing (below its cap of 16) means no tile allocated a plane.
        let cfg = AutoLabelConfig::filtered_for_tile(32);
        let mut scratch = Scratch::new();
        let mut pooled = Vec::new();
        for i in 0..6 {
            let rgb = generate(&SceneConfig::tiny(32), 60 + i).rgb;
            let out = auto_label_scratch(&rgb, &cfg, &mut scratch);
            scratch.recycle_image(out.class_mask);
            scratch.recycle_image(out.color_label);
            scratch.recycle_image(out.processed);
            pooled.push(scratch.pooled());
        }
        assert!(pooled[1..].iter().all(|&p| p == pooled[1]), "{pooled:?}");
        assert!(pooled[1].0 < 16 && pooled[1].1 < 16, "{pooled:?}");
    }

    #[test]
    fn auto_label_on_synthetic_scene_matches_truth() {
        let scene = generate(&SceneConfig::tiny(96), 21);
        let out = auto_label(&scene.rgb, &AutoLabelConfig::unfiltered());
        let correct = out
            .class_mask
            .as_slice()
            .iter()
            .zip(scene.truth.as_slice())
            .filter(|(a, b)| a == b)
            .count();
        let acc = correct as f64 / scene.truth.as_slice().len() as f64;
        // Clean scenes are rendered inside the calibrated HSV ranges, so
        // color segmentation recovers the truth essentially exactly.
        assert!(acc > 0.999, "clean-scene auto-label accuracy {acc}");
    }
}
