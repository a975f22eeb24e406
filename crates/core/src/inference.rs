//! The inference workflow (Fig. 9): acquire a large scene, split it into
//! model-sized tiles, filter thin clouds and shadows, run the U-Net per
//! tile, and stitch the per-tile predictions back into a full-scene
//! sea-ice map. Every scene path, the serving engine's included, shares
//! [`tile_grid`], [`stage_tile`] and [`SceneClassification::stitch`].

use crate::adapters::{image_to_chw_into, mask_to_image};
use crate::backend::ModelSource;
use seaice_exec::par;
use seaice_imgproc::buffer::{Image, Scratch};
use seaice_label::cloudshadow::{CloudShadowFilter, FilterConfig};
use seaice_nn::Tensor;
use seaice_s2::tiler::{stitch_tiles, tile_anchors};
use seaice_unet::{TileClassifier, UNet};
use std::sync::Arc;

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

impl SceneClassification {
    /// Stitches per-tile masks anchored at `(x0, y0)` into a `w × h` scene.
    ///
    /// # Panics
    /// Panics if a tile does not fit inside the scene.
    pub fn stitch(pieces: &[(usize, usize, Image<u8>)], w: usize, h: usize) -> Self {
        let mask = stitch_tiles(pieces, w, h, 1);
        SceneClassification {
            color: mask_to_image(&mask),
            fractions: seaice_s2::synth::class_fractions(&mask),
            mask,
        }
    }
}

/// The row-major tile anchors `(x0, y0)` covering a `w × h` scene; edge
/// regions that don't fill a whole tile get a tile anchored at the border.
///
/// # Errors
/// A zero tile side, or a scene smaller than one tile.
pub fn tile_grid(w: usize, h: usize, tile: usize) -> Result<Vec<(usize, usize)>, String> {
    if tile == 0 {
        return Err("tile side must be positive".to_string());
    }
    if w < tile || h < tile {
        return Err(format!("scene {w}x{h} smaller than a {tile}² tile"));
    }
    let (xs, mut grid) = (tile_anchors(w, tile), Vec::new());
    for y0 in tile_anchors(h, tile) {
        grid.extend(xs.iter().map(|&x0| (x0, y0)));
    }
    Ok(grid)
}

/// Stages one tile as model input: the pre-filter when one is given, then
/// CHW planes into `chw` (which may be one item of an NCHW batch).
///
/// # Panics
/// Panics if the tile is not RGB or `chw` is not `3·h·w` long.
pub fn stage_tile(
    tile: &Image<u8>,
    filter: Option<&CloudShadowFilter>,
    scratch: &mut Scratch,
    chw: &mut [f32],
) {
    match filter {
        Some(f) => {
            let filtered = f.apply_keep_filtered(tile, scratch);
            image_to_chw_into(&filtered, chw);
            scratch.recycle_image(filtered);
        }
        None => image_to_chw_into(tile, chw),
    }
}

/// One worker's reused tile-loop buffers: the filter's planes, the input
/// tensor's storage (reclaimed after each forward) and the predictions.
#[derive(Default)]
struct TileLoop {
    scratch: Scratch,
    chw: Vec<f32>,
    preds: Vec<u8>,
}

impl TileLoop {
    /// Crops, stages and classifies the `tile`² tile anchored at `(x0, y0)`.
    fn classify(
        &mut self,
        model: &mut impl TileClassifier,
        scene_rgb: &Image<u8>,
        (x0, y0): (usize, usize),
        tile: usize,
        filter: Option<&CloudShadowFilter>,
    ) -> (usize, usize, Image<u8>) {
        self.chw.resize(3 * tile * tile, 0.0);
        let crop = scene_rgb.crop(x0, y0, tile, tile);
        stage_tile(&crop, filter, &mut self.scratch, &mut self.chw);
        let x = Tensor::from_vec(&[1, 3, tile, tile], std::mem::take(&mut self.chw));
        model.predict_into(&x, &mut self.preds);
        self.chw = x.into_vec();
        (x0, y0, Image::from_vec(tile, tile, 1, self.preds.clone()))
    }
}

/// [`tile_grid`] of an image, for callers that return no `Result`.
///
/// # Panics
/// Panics if the image is smaller than a tile.
pub(crate) fn grid(image: &Image<u8>, tile: usize) -> Vec<(usize, usize)> {
    // seaice-lint: allow(panic-in-library) reason="the documented panic of classify_scene* and train_stream_model; tile_grid is the fallible check"
    tile_grid(image.width(), image.height(), tile).unwrap_or_else(|e| panic!("{e}"))
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
    let grid = grid(scene_rgb, tile_size);
    model.config().assert_input_side(tile_size);
    let filter = filter.then(|| CloudShadowFilter::new(FilterConfig::for_tile(tile_size)));
    let mut tiles = TileLoop::default();
    let pieces: Vec<_> = grid
        .into_iter()
        .map(|xy| tiles.classify(model, scene_rgb, xy, tile_size, filter.as_ref()))
        .collect();
    SceneClassification::stitch(&pieces, scene_rgb.width(), scene_rgb.height())
}

/// Parallel variant of [`classify_scene`] — the paper's future-work item
/// of scaling *inference* over very large datasets. The tile grid is split
/// into one contiguous block per core (`seaice_exec::par::map_init`; fewer
/// than 256 tiles, or one core, run on the calling thread), and each block
/// loads **one** replica from a [`ModelSource`] and keeps it, with its
/// buffers, for all its tiles — a replica per worker, as Lunga et al. run
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
    let grid = grid(scene_rgb, tile_size);
    checkpoint.config.assert_input_side(tile_size);
    let source = ModelSource::F32(Arc::new(checkpoint.clone()));
    let filter = filter.then(|| CloudShadowFilter::new(FilterConfig::for_tile(tile_size)));
    let init = || (source.load(), TileLoop::default());
    let pieces = par::map_init(&grid, init, |(model, tiles), &xy| {
        tiles.classify(model, scene_rgb, xy, tile_size, filter.as_ref())
    });
    SceneClassification::stitch(&pieces, scene_rgb.width(), scene_rgb.height())
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
