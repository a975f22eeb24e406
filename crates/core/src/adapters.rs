//! Conversions between the imaging substrate (`Image<u8>`) and the
//! neural-network substrate (`Sample` / flat predictions).

use seaice_imgproc::buffer::{Image, Scratch};
use seaice_label::autolabel::{auto_label_class_mask, AutoLabelConfig};
use seaice_nn::dataloader::Sample;
use seaice_s2::tiler::Tile;

/// Which imagery variant feeds the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputVariant {
    /// The as-acquired image, clouds and shadows included (the paper's
    /// "original S2 images" arm).
    Original,
    /// The thin-cloud/shadow-filtered image (the paper's "filtered" arm).
    Filtered,
    /// The pristine pre-cloud pixels (the synthetic-only "cloud-free"
    /// reference of Fig. 13's right column).
    Clean,
}

/// Which labels supervise training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelSource {
    /// Ground-truth masks (the manual-label stand-in) → `U-Net-Man`.
    Manual,
    /// Color-segmentation auto-labels → `U-Net-Auto`.
    Auto,
}

/// Converts an RGB image to CHW `f32` planes in `[0, 1]`.
pub fn image_to_chw(rgb: &Image<u8>) -> Vec<f32> {
    let (w, h) = rgb.dimensions();
    let mut out = vec![0f32; 3 * h * w];
    image_to_chw_into(rgb, &mut out);
    out
}

/// [`image_to_chw`] into a caller-owned slice, so tile loops (inference,
/// batch assembly in the serving engine) reuse one conversion buffer
/// instead of allocating per tile. `out` may be a slice of a larger NCHW
/// batch buffer.
///
/// # Panics
/// Panics if the image is not RGB or `out` is not exactly `3·h·w` long.
pub fn image_to_chw_into(rgb: &Image<u8>, out: &mut [f32]) {
    assert_eq!(rgb.channels(), 3, "expected an RGB image");
    let (w, h) = rgb.dimensions();
    assert_eq!(out.len(), 3 * h * w, "chw buffer length mismatch");
    for (x, y, px) in rgb.pixels() {
        for c in 0..3 {
            out[(c * h + y) * w + x] = px[c] as f32 / 255.0;
        }
    }
}

/// Selects the pixel variant of a tile (filtering on demand, with the
/// filter's planes drawn from `scratch`).
pub fn tile_image(
    tile: &Tile,
    variant: InputVariant,
    label_cfg: &AutoLabelConfig,
    scratch: &mut Scratch,
) -> Image<u8> {
    match variant {
        InputVariant::Original => tile.rgb.clone(),
        InputVariant::Filtered => {
            let filter =
                seaice_label::cloudshadow::CloudShadowFilter::new(label_cfg.filter.unwrap_or_else(
                    || seaice_label::cloudshadow::FilterConfig::for_tile(tile.size()),
                ));
            filter.apply_keep_filtered(&tile.rgb, scratch)
        }
        InputVariant::Clean => tile
            .clean_rgb
            .clone()
            // seaice-lint: allow(panic-in-library) reason="Clean is only reachable from configs that set keep_clean at dataset build; the message names the misconfiguration, and threading a Result through every sample-builder would bury it"
            .expect("tile was built without clean pixels (set keep_clean)"),
    }
}

/// Builds a training/eval [`Sample`] from a tile: the chosen input
/// variant as image, the chosen label source as mask.
pub fn tile_to_sample(
    tile: &Tile,
    variant: InputVariant,
    labels: LabelSource,
    label_cfg: &AutoLabelConfig,
) -> Sample {
    tile_to_sample_scratch(tile, variant, labels, label_cfg, &mut Scratch::new())
}

/// [`tile_to_sample`] with caller-owned scratch buffers, so batch drivers
/// (one scratch per worker) label tile after tile without reallocating.
pub fn tile_to_sample_scratch(
    tile: &Tile,
    variant: InputVariant,
    labels: LabelSource,
    label_cfg: &AutoLabelConfig,
    scratch: &mut Scratch,
) -> Sample {
    let img = tile_image(tile, variant, label_cfg, scratch);
    let (w, h) = img.dimensions();
    let image = image_to_chw(&img);
    scratch.recycle_image(img);
    let mask = match labels {
        LabelSource::Manual => tile.truth.as_slice().to_vec(),
        LabelSource::Auto => auto_label_class_mask(&tile.rgb, label_cfg, scratch).into_vec(),
    };
    Sample {
        image,
        mask,
        channels: 3,
        height: h,
        width: w,
    }
}

/// Reassembles flat per-pixel predictions (one tile's worth) into a mask
/// image.
pub fn predictions_to_mask(preds: &[u8], side: usize) -> Image<u8> {
    assert_eq!(preds.len(), side * side, "prediction length mismatch");
    Image::from_vec(side, side, 1, preds.to_vec())
}

/// Renders a class mask as the color-coded label image (red/blue/green).
pub fn mask_to_image(mask: &Image<u8>) -> Image<u8> {
    seaice_label::segment::segment_to_color(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaice_s2::dataset::{Dataset, DatasetConfig};

    fn small_tiles() -> Vec<Tile> {
        let ds = Dataset::build(DatasetConfig {
            keep_clean: true,
            ..DatasetConfig::scaled(1, 64, 16)
        });
        ds.train
    }

    #[test]
    fn chw_conversion_is_planar_and_normalized() {
        let mut img = Image::<u8>::new(2, 2, 3);
        img.put_pixel(0, 0, &[255, 0, 128]);
        let chw = image_to_chw(&img);
        assert_eq!(chw.len(), 12);
        assert!((chw[0] - 1.0).abs() < 1e-6); // R plane first
        assert!((chw[4] - 0.0).abs() < 1e-6); // G plane
        assert!((chw[8] - 128.0 / 255.0).abs() < 1e-6); // B plane
    }

    #[test]
    fn sample_shapes_match_tile() {
        let tiles = small_tiles();
        let cfg = AutoLabelConfig::unfiltered();
        let s = tile_to_sample(&tiles[0], InputVariant::Original, LabelSource::Manual, &cfg);
        assert!(s.is_consistent());
        assert_eq!(s.height, 16);
        assert_eq!(s.mask, tiles[0].truth.as_slice());
    }

    #[test]
    fn auto_labels_differ_from_manual_only_where_segmentation_errs() {
        let tiles = small_tiles();
        let cfg = AutoLabelConfig::unfiltered();
        let manual = tile_to_sample(&tiles[0], InputVariant::Original, LabelSource::Manual, &cfg);
        let auto = tile_to_sample(&tiles[0], InputVariant::Original, LabelSource::Auto, &cfg);
        assert_eq!(
            manual.image, auto.image,
            "inputs identical across label sources"
        );
        // Both are valid class masks.
        assert!(auto.mask.iter().all(|&c| c < 3));
    }

    #[test]
    fn variants_select_different_pixels_on_cloudy_tiles() {
        let tiles = small_tiles();
        let cloudy = tiles.iter().find(|t| t.cloud_fraction > 0.2);
        if let Some(t) = cloudy {
            let cfg = AutoLabelConfig::filtered_for_tile(16);
            let mut scratch = Scratch::new();
            let orig = tile_image(t, InputVariant::Original, &cfg, &mut scratch);
            let clean = tile_image(t, InputVariant::Clean, &cfg, &mut scratch);
            assert_ne!(orig, clean, "cloud overlay must show in original");
        }
    }

    #[test]
    fn mask_roundtrip_through_color() {
        let tiles = small_tiles();
        let color = mask_to_image(&tiles[0].truth);
        let back = seaice_label::segment::color_to_classes(&color);
        assert_eq!(back, tiles[0].truth);
    }

    #[test]
    fn predictions_reshape() {
        let preds = vec![0u8, 1, 2, 0];
        let mask = predictions_to_mask(&preds, 2);
        assert_eq!(mask.get(1, 1), 0);
        assert_eq!(mask.get(0, 1), 2);
    }
}
