//! Dataset assembly: catalog query → scene generation → tiling →
//! train/validation split, plus the manual-label emulation.
//!
//! The paper derives 4224 tiles from 66 scenes, splits them 80 % / 20 %
//! into training and test sets, and uses manually labeled data as ground
//! truth. Here the synthesizer's exact masks play the manual-label role; a
//! configurable boundary-noise step can degrade them to emulate human
//! imprecision along class edges.

use crate::catalog::{Catalog, CatalogQuery};
use crate::geo::TimeRange;
use crate::tiler::{tile_scene, Tile};
use seaice_faults::rng::ChaCha8;
use seaice_imgproc::buffer::Image;

/// Which split a tile landed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitKind {
    /// Training split (80 % by default).
    Train,
    /// Held-out validation/test split.
    Validation,
}

/// Dataset construction parameters.
#[derive(Clone, Debug)]
pub struct DatasetConfig {
    /// Number of scenes to acquire from the catalog (paper: 66).
    pub n_scenes: usize,
    /// Scene side in pixels (paper: 2048).
    pub scene_size: usize,
    /// Tile side in pixels (paper: 256).
    pub tile_size: usize,
    /// Fraction of tiles assigned to the training split (paper: 0.8).
    pub train_fraction: f64,
    /// Fraction of acquisitions degraded by cloud/shadow.
    pub cloudy_fraction: f64,
    /// Keep the pristine pre-cloud pixels on every tile (needed by the
    /// cloud-free evaluation arms; costs one extra RGB copy per tile).
    pub keep_clean: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            n_scenes: 66,
            scene_size: 2048,
            tile_size: 256,
            train_fraction: 0.8,
            cloudy_fraction: 0.5,
            keep_clean: true,
            seed: 2019,
        }
    }
}

impl DatasetConfig {
    /// The paper's full acquisition (66 scenes → 4224 tiles of 256²).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A reduced configuration for tests and CPU-scale experiments:
    /// `n_scenes` scenes of `scene_size`², tiles of `tile_size`².
    pub fn scaled(n_scenes: usize, scene_size: usize, tile_size: usize) -> Self {
        Self {
            n_scenes,
            scene_size,
            tile_size,
            ..Self::default()
        }
    }

    /// Total tiles this configuration yields.
    pub fn expected_tiles(&self) -> usize {
        let per_axis = self.scene_size / self.tile_size;
        self.n_scenes * per_axis * per_axis
    }
}

/// An assembled dataset of tiles with a deterministic train/validation
/// split.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Training tiles.
    pub train: Vec<Tile>,
    /// Held-out validation tiles.
    pub validation: Vec<Tile>,
    /// The configuration the dataset was built from.
    pub config: DatasetConfig,
}

impl Dataset {
    /// Builds the dataset: queries the catalog, generates each scene,
    /// applies its cloud layer, tiles it, then shuffles and splits. Zero
    /// scenes make an empty dataset without a query (a query reads a limit
    /// of 0 as "no limit").
    pub fn build(config: DatasetConfig) -> Self {
        if config.n_scenes == 0 {
            return Self {
                train: Vec::new(),
                validation: Vec::new(),
                config,
            };
        }
        let scene_cfg = crate::synth::SceneConfig {
            width: config.scene_size,
            height: config.scene_size,
            field_wavelength: (config.scene_size as f32 / 4.0).max(2.0),
            texture_wavelength: (config.scene_size as f32 / 85.0).max(2.0),
            lead_half_width: (config.scene_size as f32 / 340.0).max(1.0),
            ..crate::synth::SceneConfig::default()
        };
        let cloud_cfg = crate::clouds::CloudConfig {
            wavelength: (config.scene_size as f32 / 5.0).max(2.0),
            shadow_offset: (
                (config.scene_size / 42) as isize,
                (config.scene_size / 64) as isize,
            ),
            ..crate::clouds::CloudConfig::default()
        };
        let catalog = Catalog::new(config.seed)
            .with_scene_config(scene_cfg)
            .with_cloud_config(cloud_cfg)
            .with_cloudy_fraction(config.cloudy_fraction);
        let metas = catalog.query(&CatalogQuery {
            extent: crate::geo::GeoExtent::ross_sea(),
            time: TimeRange::new(0, u32::MAX / 2),
            limit: config.n_scenes,
        });

        let mut tiles = Vec::with_capacity(config.expected_tiles());
        for meta in &metas {
            let (scene, layer) = catalog.generate(meta);
            let cloudy = layer.apply(&scene.rgb);
            let contamination = layer.contamination();
            tiles.extend(tile_scene(
                meta.id,
                &cloudy,
                config.keep_clean.then_some(&scene.rgb),
                &scene.truth,
                Some(&contamination),
                config.tile_size,
            ));
        }

        ChaCha8::seed(config.seed ^ 0x5041).shuffle(&mut tiles);
        let n_train = ((tiles.len() as f64) * config.train_fraction).round() as usize;
        let validation = tiles.split_off(n_train.min(tiles.len()));
        Self {
            train: tiles,
            validation,
            config,
        }
    }

    /// Total tile count across both splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.validation.len()
    }

    /// True when the dataset holds no tiles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Emulates a human-drawn label: flips the class of pixels adjacent to a
/// class boundary with probability `boundary_flip_prob`, copying a random
/// 4-neighbour's class (humans trace edges imprecisely; interiors are
/// easy).
///
/// `boundary_flip_prob = 0` returns the mask unchanged.
pub fn manual_label(truth: &Image<u8>, boundary_flip_prob: f64, seed: u64) -> Image<u8> {
    if boundary_flip_prob <= 0.0 {
        return truth.clone();
    }
    let (w, h) = truth.dimensions();
    let mut rng = ChaCha8::seed(seed);
    let mut out = truth.clone();
    for y in 0..h {
        for x in 0..w {
            let c = truth.get(x, y);
            let neighbours = [
                (x.wrapping_sub(1), y),
                (x + 1, y),
                (x, y.wrapping_sub(1)),
                (x, y + 1),
            ];
            let mut boundary_neighbour = None;
            for (nx, ny) in neighbours {
                if nx < w && ny < h && truth.get(nx, ny) != c {
                    boundary_neighbour = Some(truth.get(nx, ny));
                    break;
                }
            }
            if let Some(other) = boundary_neighbour {
                if rng.chance(boundary_flip_prob) {
                    out.set(x, y, other);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DatasetConfig {
        DatasetConfig {
            keep_clean: true,
            ..DatasetConfig::scaled(2, 64, 16)
        }
    }

    #[test]
    fn build_produces_expected_tile_count() {
        let ds = Dataset::build(small_cfg());
        assert_eq!(ds.len(), small_cfg().expected_tiles());
        assert_eq!(ds.len(), 2 * 16); // 2 scenes × (64/16)²
    }

    #[test]
    fn split_fractions_hold() {
        let ds = Dataset::build(small_cfg());
        let train_frac = ds.train.len() as f64 / ds.len() as f64;
        assert!(
            (train_frac - 0.8).abs() < 0.05,
            "train fraction {train_frac}"
        );
    }

    #[test]
    fn build_is_deterministic() {
        let a = Dataset::build(small_cfg());
        let b = Dataset::build(small_cfg());
        assert_eq!(a.train.len(), b.train.len());
        for (ta, tb) in a.train.iter().zip(&b.train) {
            assert_eq!(ta.scene_id, tb.scene_id);
            assert_eq!((ta.x0, ta.y0), (tb.x0, tb.y0));
            assert_eq!(ta.rgb, tb.rgb);
        }
    }

    #[test]
    fn zero_scenes_build_an_empty_dataset() {
        let ds = Dataset::build(DatasetConfig::scaled(0, 64, 16));
        assert!(ds.is_empty());
        assert_eq!(ds.config.n_scenes, 0);
    }

    #[test]
    fn paper_config_counts() {
        let cfg = DatasetConfig::paper();
        assert_eq!(cfg.expected_tiles(), 4224);
    }

    #[test]
    fn keep_clean_controls_clean_copies() {
        let ds = Dataset::build(DatasetConfig {
            keep_clean: false,
            ..small_cfg()
        });
        assert!(ds.train.iter().all(|t| t.clean_rgb.is_none()));
        let ds = Dataset::build(small_cfg());
        assert!(ds.train.iter().all(|t| t.clean_rgb.is_some()));
    }

    #[test]
    fn cloudy_and_clear_tiles_both_exist() {
        let ds = Dataset::build(DatasetConfig {
            n_scenes: 6,
            ..small_cfg()
        });
        let cloudy = ds
            .train
            .iter()
            .chain(&ds.validation)
            .filter(|t| t.is_cloudy())
            .count();
        assert!(cloudy > 0, "expected some cloudy tiles");
        assert!(cloudy < ds.len(), "expected some clear tiles");
    }

    #[test]
    fn manual_label_zero_noise_is_identity() {
        let scene = crate::synth::generate(&crate::synth::SceneConfig::tiny(32), 3);
        let lab = manual_label(&scene.truth, 0.0, 1);
        assert_eq!(lab, scene.truth);
    }

    #[test]
    fn manual_label_noise_only_touches_boundaries() {
        let scene = crate::synth::generate(&crate::synth::SceneConfig::tiny(48), 3);
        let lab = manual_label(&scene.truth, 1.0, 1);
        let (w, h) = scene.truth.dimensions();
        let mut changed = 0usize;
        for y in 0..h {
            for x in 0..w {
                if lab.get(x, y) != scene.truth.get(x, y) {
                    changed += 1;
                    // A changed pixel must have had a different-class
                    // 4-neighbour in the original mask.
                    let c = scene.truth.get(x, y);
                    let near_boundary = [
                        (x.wrapping_sub(1), y),
                        (x + 1, y),
                        (x, y.wrapping_sub(1)),
                        (x, y + 1),
                    ]
                    .into_iter()
                    .any(|(nx, ny)| nx < w && ny < h && scene.truth.get(nx, ny) != c);
                    assert!(near_boundary, "interior pixel ({x},{y}) changed");
                }
            }
        }
        assert!(changed > 0, "full-probability noise must change something");
        // Interior dominates: most pixels stay intact.
        assert!(changed < (w * h) / 2);
    }
}
