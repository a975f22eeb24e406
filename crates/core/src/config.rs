//! Workflow-level configuration bundles with paper-scale and CPU-scale
//! presets.

use seaice_label::autolabel::AutoLabelConfig;
use seaice_s2::dataset::DatasetConfig;
use seaice_unet::{TrainConfig, UNetConfig};

/// Everything needed to run the end-to-end workflow.
#[derive(Clone, Debug)]
pub struct WorkflowConfig {
    /// Scene acquisition and tiling.
    pub dataset: DatasetConfig,
    /// Auto-labeling (filter + HSV ranges).
    pub label: AutoLabelConfig,
    /// U-Net architecture.
    pub unet: UNetConfig,
    /// Training loop settings.
    pub train: TrainConfig,
}

impl WorkflowConfig {
    /// The paper's full scale: 66 scenes of 2048², 4224 tiles of 256²,
    /// depth-5 U-Net (28 conv layers), 50 epochs, batch 32. Running this
    /// end-to-end needs a GPU cluster; it exists as the reference point
    /// the scaled runs are derived from.
    pub fn paper() -> Self {
        Self {
            dataset: DatasetConfig::paper(),
            label: AutoLabelConfig::filtered_for_tile(256),
            unet: UNetConfig::paper(),
            train: TrainConfig::default(),
        }
    }

    /// CPU-scale preset: identical architecture family and pipeline with
    /// every axis shrunk (`n_scenes` scenes of `scene`² px, `tile`² px
    /// tiles, depth-2 U-Net, `epochs` epochs). Both experiment arms
    /// shrink identically, so the paper's *comparisons* are preserved.
    pub fn scaled(n_scenes: usize, scene: usize, tile: usize, epochs: usize) -> Self {
        Self {
            dataset: DatasetConfig::scaled(n_scenes, scene, tile),
            label: AutoLabelConfig::filtered_for_tile(tile),
            unet: UNetConfig {
                depth: 2,
                base_filters: 8,
                ..UNetConfig::paper()
            },
            train: TrainConfig {
                epochs,
                // CPU-scale models are small; a higher rate converges in
                // far fewer epochs without hurting final accuracy.
                learning_rate: 5e-3,
                ..TrainConfig::default()
            },
        }
    }

    /// The smallest meaningful configuration, for tests and smoke runs.
    pub fn smoke() -> Self {
        let mut cfg = Self::scaled(2, 64, 16, 8);
        cfg.unet = UNetConfig {
            depth: 1,
            // With the paper's 0.2 dropout, 4 base filters leave too few
            // live channels to learn even the smoke scenes; 8 converges
            // reliably while staying fast on one core.
            base_filters: 8,
            ..UNetConfig::paper()
        };
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_published_scale() {
        let cfg = WorkflowConfig::paper();
        assert_eq!(cfg.dataset.expected_tiles(), 4224);
        assert_eq!(cfg.unet.conv_layer_count(), 28);
        assert_eq!(cfg.train.epochs, 50);
    }

    #[test]
    fn scaled_preset_respects_unet_geometry() {
        let cfg = WorkflowConfig::scaled(2, 128, 32, 5);
        cfg.unet.assert_input_side(cfg.dataset.tile_size);
        assert_eq!(cfg.dataset.expected_tiles(), 2 * 16);
    }

    #[test]
    fn smoke_preset_is_tiny_but_valid() {
        let cfg = WorkflowConfig::smoke();
        cfg.unet.assert_input_side(cfg.dataset.tile_size);
        assert!(cfg.dataset.expected_tiles() <= 64);
    }
}
