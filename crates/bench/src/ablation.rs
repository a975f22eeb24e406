//! Ablation studies of the cloud/shadow filter's design choices
//! (DESIGN.md §6): each variant disables one mechanism and measures
//! auto-label accuracy against ground truth on contaminated scenes.

use crate::scale::Scale;
use seaice_imgproc::buffer::Image;
use seaice_label::cloudshadow::{CloudShadowFilter, FilterConfig};
use seaice_label::ranges::ClassRanges;
use seaice_label::segment::segment_classes;
use seaice_s2::dataset::{Dataset, DatasetConfig};

/// One ablation arm.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant name.
    pub name: String,
    /// Mean auto-label accuracy over contaminated tiles.
    pub accuracy: f64,
}

/// Complete ablation result.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// Contaminated tiles evaluated.
    pub tiles: usize,
    /// Tile side in pixels.
    pub tile_size: usize,
    /// Baseline: segmentation accuracy with no filtering at all.
    pub unfiltered_accuracy: f64,
    /// The ablation arms, full filter first.
    pub rows: Vec<AblationRow>,
}

fn label_accuracy(filtered: &Image<u8>, truth: &Image<u8>) -> f64 {
    let mask = segment_classes(filtered, &ClassRanges::paper());
    let correct = mask
        .as_slice()
        .iter()
        .zip(truth.as_slice())
        .filter(|(a, b)| a == b)
        .count();
    correct as f64 / truth.as_slice().len() as f64
}

/// Runs the ablation over the cloudy validation tiles of the accuracy
/// dataset.
pub fn run(scale: Scale) -> Ablation {
    let (scenes, scene, tile, _) = scale.accuracy_dataset();
    let dataset = Dataset::build(DatasetConfig {
        keep_clean: false,
        ..DatasetConfig::scaled(scenes, scene, tile)
    });
    let tiles: Vec<_> = dataset
        .validation
        .iter()
        .chain(&dataset.train)
        .filter(|t| t.is_cloudy())
        .collect();
    assert!(!tiles.is_empty(), "no contaminated tiles at this scale");

    let base = FilterConfig::for_tile(tile);
    let variants: Vec<(&str, FilterConfig)> = vec![
        ("full filter", base),
        (
            "no shadow pass",
            FilterConfig {
                shadow_pass: false,
                ..base
            },
        ),
        (
            "no confidence blend (pooled only)",
            FilterConfig {
                confidence_blend: false,
                ..base
            },
        ),
        (
            "no shadow-plausibility exclusion",
            FilterConfig {
                shadow_exclusion: false,
                ..base
            },
        ),
        (
            "half smoothing radius",
            FilterConfig {
                smooth_radius: (base.smooth_radius / 2).max(1),
                ..base
            },
        ),
        (
            "quadruple smoothing radius",
            FilterConfig {
                smooth_radius: base.smooth_radius * 4,
                ..base
            },
        ),
        (
            "no denoise pre-filter",
            FilterConfig {
                denoise_radius: 0,
                ..base
            },
        ),
    ];

    let unfiltered_accuracy = tiles
        .iter()
        .map(|t| label_accuracy(&t.rgb, &t.truth))
        .sum::<f64>()
        / tiles.len() as f64;

    let rows = variants
        .into_iter()
        .map(|(name, cfg)| {
            let filter = CloudShadowFilter::new(cfg);
            let accuracy = tiles
                .iter()
                .map(|t| label_accuracy(&filter.apply(&t.rgb).filtered, &t.truth))
                .sum::<f64>()
                / tiles.len() as f64;
            AblationRow {
                name: name.to_string(),
                accuracy,
            }
        })
        .collect();

    Ablation {
        tiles: tiles.len(),
        tile_size: tile,
        unfiltered_accuracy,
        rows,
    }
}

impl Ablation {
    /// Renders the ablation table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "ABLATION: cloud/shadow-filter design choices ({} contaminated tiles of {}x{})\n",
            self.tiles, self.tile_size, self.tile_size
        ));
        s.push_str(&format!(
            "{:>38} | auto-label accuracy\n{:>38} | {:>8.2}%\n",
            "variant",
            "(unfiltered baseline)",
            self.unfiltered_accuracy * 100.0
        ));
        for r in &self.rows {
            s.push_str(&format!("{:>38} | {:>8.2}%\n", r.name, r.accuracy * 100.0));
        }
        s
    }
}

/// Decoder up-path ablation: the paper's literal 2×2 transposed
/// "up-convolution" vs the upsample+conv variant, trained identically.
#[derive(Clone, Debug)]
pub struct UpModeAblation {
    /// Validation accuracy with upsample + 3×3 conv decoders.
    pub upsample_conv_accuracy: f64,
    /// Validation accuracy with transposed-convolution decoders.
    pub transposed_accuracy: f64,
    /// Parameter counts of the two variants.
    pub params: (usize, usize),
}

/// Trains both decoder variants on the same data and compares.
pub fn up_mode(scale: Scale) -> UpModeAblation {
    use seaice_core::adapters::{tile_to_sample, InputVariant, LabelSource};
    use seaice_core::WorkflowConfig;
    use seaice_nn::dataloader::DataLoader;
    use seaice_unet::{evaluate, train, UNet, UNetConfig, UpMode};

    let (scenes, scene, tile, epochs) = scale.accuracy_dataset();
    let cfg = WorkflowConfig::scaled(scenes, scene, tile, epochs);
    let dataset = Dataset::build(cfg.dataset.clone());
    let train_samples: Vec<_> = dataset
        .train
        .iter()
        .map(|t| tile_to_sample(t, InputVariant::Filtered, LabelSource::Manual, &cfg.label))
        .collect();
    let val_samples: Vec<_> = dataset
        .validation
        .iter()
        .map(|t| tile_to_sample(t, InputVariant::Filtered, LabelSource::Manual, &cfg.label))
        .collect();

    let run_one = |mode: UpMode| -> (f64, usize) {
        let mut model = UNet::new(UNetConfig {
            up_mode: mode,
            ..cfg.unet
        });
        let loader = DataLoader::new(train_samples.clone(), 8, Some(3));
        train(&mut model, &loader, &cfg.train);
        let eval = evaluate(&mut model, &DataLoader::new(val_samples.clone(), 8, None));
        (eval.accuracy, model.parameter_count())
    };
    let (up_acc, up_params) = run_one(UpMode::UpsampleConv);
    let (tr_acc, tr_params) = run_one(UpMode::Transposed);
    UpModeAblation {
        upsample_conv_accuracy: up_acc,
        transposed_accuracy: tr_acc,
        params: (up_params, tr_params),
    }
}

impl UpModeAblation {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "UP-CONVOLUTION ABLATION: decoder up-path variants (same data, same epochs)\n\
             {:>38} | {:>8.2}%  ({} params)\n{:>38} | {:>8.2}%  ({} params)\n",
            "upsample + 3x3 conv (default)",
            self.upsample_conv_accuracy * 100.0,
            self.params.0,
            "2x2 transposed conv (paper's up-conv)",
            self.transposed_accuracy * 100.0,
            self.params.1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_filter_wins_the_ablation() {
        let a = run(Scale::Small);
        let full = a.rows[0].accuracy;
        assert_eq!(a.rows[0].name, "full filter");
        assert!(
            full > a.unfiltered_accuracy,
            "filter must beat no filter: {full:.3} vs {:.3}",
            a.unfiltered_accuracy
        );
        // Each disabled mechanism must cost accuracy (ties allowed only
        // within noise for the radius variants).
        for r in &a.rows[1..4] {
            assert!(
                full >= r.accuracy - 1e-9,
                "'{}' unexpectedly beats the full filter: {:.3} vs {full:.3}",
                r.name,
                r.accuracy
            );
        }
        assert!(a.render().contains("ABLATION"));
    }
}
