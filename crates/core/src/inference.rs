//! The inference workflow (Fig. 9): acquire a large scene, split it into
//! model-sized tiles, filter thin clouds and shadows, run the U-Net per
//! tile, and stitch the per-tile predictions back into a full-scene
//! sea-ice map.

use crate::adapters::{image_to_chw, image_to_chw_into, mask_to_image};
use seaice_exec::par;
use seaice_imgproc::buffer::{Image, Scratch};
use seaice_label::cloudshadow::{CloudShadowFilter, FilterConfig};
use seaice_nn::Tensor;
use seaice_s2::tiler::{stitch_tiles, tile_anchors};
use seaice_unet::{TileClassifier, UNet};

/// Full-scene classification output.
#[derive(Clone, Debug)]
pub struct SceneClassification {
    /// Per-pixel class mask for the whole scene.
    pub mask: Image<u8>,
    /// Color-coded rendering (red/blue/green).
    pub color: Image<u8>,
    /// Per-class pixel fractions `(thick, thin, water)`.
    pub fractions: (f64, f64, f64),
}

/// Classifies a large scene with a trained model.
///
/// `filter` enables the thin-cloud/shadow pre-filter the paper applies
/// before inference ("our thin cloud and shadow filter technique is
/// employed … hence enhancing the accuracy of the inference results").
///
/// Edge regions that don't fill a whole tile are classified from a tile
/// anchored at the scene border (so the whole scene is covered as long as
/// the scene is at least one tile wide).
///
/// # Panics
/// Panics if the scene is smaller than a tile or `tile_size` is
/// incompatible with the model's input constraint.
pub fn classify_scene(
    model: &mut UNet,
    scene_rgb: &Image<u8>,
    tile_size: usize,
    filter: bool,
) -> SceneClassification {
    classify_scene_with(model, scene_rgb, tile_size, filter)
}

/// [`classify_scene`], generic over the inference backend: any
/// [`TileClassifier`] — the f32 [`UNet`], its int8
/// [`seaice_unet::QuantizedUNet`] twin, or a [`crate::backend::LoadedModel`]
/// selected at runtime — runs the identical tile → filter → predict →
/// stitch pipeline.
///
/// # Panics
/// Same conditions as [`classify_scene`].
pub fn classify_scene_with<M: TileClassifier>(
    model: &mut M,
    scene_rgb: &Image<u8>,
    tile_size: usize,
    filter: bool,
) -> SceneClassification {
    let (w, h) = scene_rgb.dimensions();
    assert!(
        w >= tile_size && h >= tile_size,
        "scene smaller than a tile"
    );
    model.config().assert_input_side(tile_size);
    let filter_impl = filter.then(|| CloudShadowFilter::new(FilterConfig::for_tile(tile_size)));

    // One input tensor buffer for the whole anchor loop: each tile is
    // converted in place and the allocation is reclaimed from the tensor
    // after the forward pass.
    let mut chw = vec![0f32; 3 * tile_size * tile_size];
    let mut scratch = Scratch::new();
    let mut preds = Vec::new();
    let mut pieces = Vec::new();
    for &y0 in &tile_anchors(h, tile_size) {
        for &x0 in &tile_anchors(w, tile_size) {
            let tile = scene_rgb.crop(x0, y0, tile_size, tile_size);
            let input = match &filter_impl {
                Some(f) => f.apply_keep_filtered(&tile, &mut scratch),
                None => tile,
            };
            image_to_chw_into(&input, &mut chw);
            scratch.recycle_image(input);
            let x = Tensor::from_vec(&[1, 3, tile_size, tile_size], std::mem::take(&mut chw));
            model.predict_into(&x, &mut preds);
            chw = x.into_vec();
            pieces.push((
                x0,
                y0,
                Image::from_vec(tile_size, tile_size, 1, preds.clone()),
            ));
        }
    }
    let mask = stitch_tiles(&pieces, w, h, 1);
    let color = mask_to_image(&mask);
    let fractions = seaice_s2::synth::class_fractions(&mask);
    SceneClassification {
        mask,
        color,
        fractions,
    }
}

/// Parallel variant of [`classify_scene`] — the paper's future-work item
/// of scaling *inference* over very large datasets. The tile grid is split
/// into one contiguous block per core (`seaice_exec::par::map_init`; fewer
/// than 256 tiles, or one core, run on the calling thread), and each block
/// restores **one** model replica from the checkpoint and keeps it, with one
/// `Scratch`, for all its tiles — a replica per worker, as Lunga et al. run
/// one per Spark executor, not a replica per tile. Inference is
/// embarrassingly parallel; replicas never communicate.
///
/// Produces byte-identical output to the sequential path.
///
/// # Panics
/// Same conditions as [`classify_scene`].
pub fn classify_scene_parallel(
    checkpoint: &seaice_unet::checkpoint::Checkpoint,
    scene_rgb: &Image<u8>,
    tile_size: usize,
    filter: bool,
) -> SceneClassification {
    let (w, h) = scene_rgb.dimensions();
    assert!(
        w >= tile_size && h >= tile_size,
        "scene smaller than a tile"
    );
    checkpoint.config.assert_input_side(tile_size);
    let filter_impl = filter.then(|| CloudShadowFilter::new(FilterConfig::for_tile(tile_size)));

    let grid: Vec<(usize, usize)> = tile_anchors(h, tile_size)
        .into_iter()
        .flat_map(|y0| {
            tile_anchors(w, tile_size)
                .into_iter()
                .map(move |x0| (x0, y0))
        })
        .collect();

    let pieces = par::map_init(
        &grid,
        || (seaice_unet::checkpoint::restore(checkpoint), Scratch::new()),
        |(model, scratch), &(x0, y0)| {
            let tile = scene_rgb.crop(x0, y0, tile_size, tile_size);
            let input = match &filter_impl {
                Some(f) => f.apply_keep_filtered(&tile, scratch),
                None => tile,
            };
            let chw = image_to_chw(&input);
            scratch.recycle_image(input);
            let x = Tensor::from_vec(&[1, 3, tile_size, tile_size], chw);
            let preds = model.predict(&x);
            (x0, y0, Image::from_vec(tile_size, tile_size, 1, preds))
        },
    );

    let mask = stitch_tiles(&pieces, w, h, 1);
    let color = mask_to_image(&mask);
    let fractions = seaice_s2::synth::class_fractions(&mask);
    SceneClassification {
        mask,
        color,
        fractions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::{tile_to_sample, InputVariant, LabelSource};
    use crate::config::WorkflowConfig;
    use seaice_label::autolabel::AutoLabelConfig;
    use seaice_nn::dataloader::DataLoader;
    use seaice_s2::synth::{generate, SceneConfig};
    use seaice_s2::tiler::tile_scene;
    use seaice_unet::{train, UNet};

    /// Trains a tiny model on one synthetic scene's manual labels.
    fn quick_model(tile: usize) -> UNet {
        let cfg = WorkflowConfig::smoke();
        let scene = generate(&SceneConfig::tiny(64), 3);
        let tiles = tile_scene(
            seaice_s2::geo::SceneId(1),
            &scene.rgb,
            None,
            &scene.truth,
            None,
            tile,
        );
        let samples: Vec<_> = tiles
            .iter()
            .map(|t| {
                tile_to_sample(
                    t,
                    InputVariant::Original,
                    LabelSource::Manual,
                    &AutoLabelConfig::unfiltered(),
                )
            })
            .collect();
        let loader = DataLoader::new(samples, 4, Some(1));
        let mut model = UNet::new(cfg.unet);
        train(
            &mut model,
            &loader,
            &seaice_unet::TrainConfig {
                epochs: 20,
                learning_rate: 1e-2,
                ..Default::default()
            },
        );
        model
    }

    #[test]
    fn classify_scene_covers_every_pixel_with_valid_classes() {
        let mut model = quick_model(16);
        let scene = generate(&SceneConfig::tiny(48), 9);
        let out = classify_scene(&mut model, &scene.rgb, 16, false);
        assert_eq!(out.mask.dimensions(), (48, 48));
        assert!(out.mask.as_slice().iter().all(|&c| c < 3));
        let (a, b, c) = out.fractions;
        assert!((a + b + c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_multiple_scene_sizes_are_covered_by_edge_tiles() {
        let mut model = quick_model(16);
        let scene = generate(&SceneConfig::tiny(40), 11);
        let out = classify_scene(&mut model, &scene.rgb, 16, false);
        assert_eq!(out.mask.dimensions(), (40, 40));
        // The bottom-right corner must have been classified.
        assert!(out.mask.get(39, 39) < 3);
    }

    #[test]
    fn trained_model_beats_chance_on_fresh_scene() {
        let mut model = quick_model(16);
        let scene = generate(&SceneConfig::tiny(48), 77); // unseen seed
        let out = classify_scene(&mut model, &scene.rgb, 16, false);
        let correct = out
            .mask
            .as_slice()
            .iter()
            .zip(scene.truth.as_slice())
            .filter(|(a, b)| a == b)
            .count();
        let acc = correct as f64 / (48.0 * 48.0);
        assert!(acc > 0.6, "scene accuracy {acc:.3} not better than chance");
    }

    #[test]
    fn parallel_inference_matches_sequential() {
        let mut model = quick_model(16);
        let scene = generate(&SceneConfig::tiny(48), 13);
        let sequential = classify_scene(&mut model, &scene.rgb, 16, true);
        let ckpt = seaice_unet::checkpoint::snapshot(&mut model);
        let parallel = classify_scene_parallel(&ckpt, &scene.rgb, 16, true);
        assert_eq!(parallel.mask, sequential.mask);
        assert_eq!(parallel.color, sequential.color);
    }

    #[test]
    fn color_rendering_matches_mask() {
        let mut model = quick_model(16);
        let scene = generate(&SceneConfig::tiny(32), 5);
        let out = classify_scene(&mut model, &scene.rgb, 16, false);
        let back = seaice_label::segment::color_to_classes(&out.color);
        assert_eq!(back, out.mask);
    }
}
