//! Whole-scene classification through the serving engine: the same tile
//! grid, staging and stitch as `core::classify_scene`, but tiles are
//! submitted to the engine (backpressure, not shedding) so they coalesce
//! into micro-batches across the worker replicas — and repeat scenes hit
//! the prediction cache.
//!
//! Bit-identical to the sequential path: the engine's workers load their
//! replicas from a `ModelSource` of the same checkpoint, stage tiles the
//! same way, and batch items are independent in every network op.

use crate::engine::{Engine, ServeError};
use seaice_core::inference::{tile_grid, SceneClassification};
use seaice_imgproc::buffer::Image;

/// Classifies a full scene by streaming its tiles through `engine`.
///
/// The engine's `tile_size` and `filter` settings determine the grid and
/// pre-filtering; output matches
/// `core::classify_scene(model, scene, tile_size, filter)` bit for bit.
///
/// # Errors
/// [`ServeError::BadRequest`] for a scene smaller than a tile, and
/// [`ServeError::Closed`] if the engine shuts down mid-scene (tiles are
/// submitted with backpressure, so `Overloaded` cannot occur).
pub fn classify_scene_engine(
    engine: &Engine,
    scene_rgb: &Image<u8>,
) -> Result<SceneClassification, ServeError> {
    let tile_size = engine.config().tile_size;
    let (w, h) = scene_rgb.dimensions();
    let grid = tile_grid(w, h, tile_size).map_err(ServeError::BadRequest)?;

    // Submit every tile first (pipelining: workers batch while we crop),
    // then collect in submission order.
    let mut pending = Vec::with_capacity(grid.len());
    for (x0, y0) in grid {
        let tile = scene_rgb.crop(x0, y0, tile_size, tile_size);
        pending.push((x0, y0, engine.submit_blocking(tile)?));
    }
    let mut pieces = Vec::with_capacity(pending.len());
    for (x0, y0, ticket) in pending {
        let mask = ticket.wait()?.to_vec();
        pieces.push((x0, y0, Image::from_vec(tile_size, tile_size, 1, mask)));
    }
    Ok(SceneClassification::stitch(&pieces, w, h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use seaice_s2::synth::{generate, SceneConfig};
    use seaice_unet::checkpoint::snapshot;
    use seaice_unet::{UNet, UNetConfig};
    use std::time::Duration;

    fn ckpt() -> seaice_unet::checkpoint::Checkpoint {
        let mut model = UNet::new(UNetConfig {
            depth: 1,
            base_filters: 4,
            dropout: 0.0,
            seed: 21,
            ..UNetConfig::paper()
        });
        snapshot(&mut model)
    }

    #[test]
    fn engine_scene_matches_sequential_scene_including_ragged_edges() {
        let ckpt = ckpt();
        let scene = generate(&SceneConfig::tiny(40), 33); // 40 % 16 != 0
        for filter in [false, true] {
            let mut model = seaice_unet::checkpoint::restore(&ckpt);
            let want = seaice_core::classify_scene(&mut model, &scene.rgb, 16, filter);

            let engine = Engine::new(
                &ckpt,
                EngineConfig {
                    workers: 2,
                    max_batch_size: 3,
                    max_wait: Duration::from_millis(1),
                    queue_capacity: 8,
                    cache_capacity: 16,
                    filter,
                    ..EngineConfig::for_tile(16)
                },
            )
            .unwrap();
            let got = classify_scene_engine(&engine, &scene.rgb).unwrap();
            assert_eq!(got.mask, want.mask, "filter={filter}");
            assert_eq!(got.color, want.color);
            assert_eq!(got.fractions, want.fractions);
        }
    }

    #[test]
    fn a_scene_smaller_than_a_tile_is_a_bad_request() {
        let engine = Engine::new(&ckpt(), EngineConfig::for_tile(32)).unwrap();
        let scene = generate(&SceneConfig::tiny(24), 1);
        match classify_scene_engine(&engine, &scene.rgb) {
            Err(ServeError::BadRequest(m)) => assert!(m.contains("smaller than"), "{m}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        assert_eq!(engine.stats().submitted, 0);
    }

    #[test]
    fn repeat_scene_is_served_from_cache() {
        let engine = Engine::new(
            &ckpt(),
            EngineConfig {
                workers: 1,
                cache_capacity: 64,
                ..EngineConfig::for_tile(16)
            },
        )
        .unwrap();
        let scene = generate(&SceneConfig::tiny(48), 5);
        let a = classify_scene_engine(&engine, &scene.rgb).unwrap();
        let before = engine.stats();
        let b = classify_scene_engine(&engine, &scene.rgb).unwrap();
        let after = engine.stats();
        assert_eq!(a.mask, b.mask);
        // Pass two recomputed nothing.
        assert_eq!(after.computed, before.computed);
        assert_eq!(after.cache_hits, before.cache_hits + 9);
    }
}
