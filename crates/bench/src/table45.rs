//! Tables IV & V, Figs. 11, 13, 14, and the §IV-B scene-labeling timing —
//! the accuracy side of the evaluation. These experiments involve **no
//! hardware substitution**: the full pipeline really runs, at a reduced
//! scale (both arms reduced identically, so the paper's comparisons are
//! preserved).

use crate::scale::Scale;
use seaice_core::adapters::{InputVariant, LabelSource};
use seaice_core::workflow::{evaluate_arm, train_models, ArmEvaluation, TrainedModels};
use seaice_core::WorkflowConfig;
use seaice_imgproc::buffer::Image;
use seaice_label::autolabel::{auto_label, AutoLabelConfig};
use seaice_metrics::ssim_rgb;
use seaice_s2::dataset::Dataset;
use seaice_s2::tiler::Tile;

/// Converts an RGB image to CHW `[0,1]` floats (shared with table3).
pub fn chw(img: &Image<u8>) -> Vec<f32> {
    seaice_core::adapters::image_to_chw(img)
}

/// The trained state shared by the accuracy experiments.
pub struct AccuracyExperiments {
    /// Workflow configuration used.
    pub cfg: WorkflowConfig,
    /// The dataset (train + validation tiles).
    pub dataset: Dataset,
    /// The trained `U-Net-Man` / `U-Net-Auto` pair.
    pub models: TrainedModels,
    /// Host seconds spent training both models.
    pub train_secs: f64,
}

/// Builds the dataset and trains both models once.
pub fn prepare(scale: Scale) -> AccuracyExperiments {
    let (scenes, scene, tile, epochs) = scale.accuracy_dataset();
    let cfg = WorkflowConfig::scaled(scenes, scene, tile, epochs);
    let dataset = Dataset::build(cfg.dataset.clone());
    let t0 = std::time::Instant::now();
    let models = train_models(&dataset, &cfg);
    AccuracyExperiments {
        cfg,
        dataset,
        models,
        train_secs: t0.elapsed().as_secs_f64(),
    }
}

/// One Table IV cell.
#[derive(Clone, Debug)]
pub struct AccuracyCell {
    /// Which model.
    pub labels: LabelSource,
    /// Which imagery variant.
    pub variant: InputVariant,
    /// The evaluation.
    pub eval: ArmEvaluation,
}

impl AccuracyExperiments {
    fn model_for(&mut self, labels: LabelSource) -> &mut seaice_unet::UNet {
        match labels {
            LabelSource::Manual => &mut self.models.unet_man,
            LabelSource::Auto => &mut self.models.unet_auto,
        }
    }

    fn eval_subset(
        &mut self,
        labels: LabelSource,
        variant: InputVariant,
        tiles: &[Tile],
    ) -> ArmEvaluation {
        let cfg = self.cfg.clone();
        evaluate_arm(self.model_for(labels), tiles, variant, &cfg)
    }

    /// Table IV: both models × {original, filtered} over the validation
    /// split.
    pub fn table4(&mut self) -> Vec<AccuracyCell> {
        let tiles = self.dataset.validation.clone();
        let mut out = Vec::new();
        for labels in [LabelSource::Manual, LabelSource::Auto] {
            for variant in [InputVariant::Original, InputVariant::Filtered] {
                out.push(AccuracyCell {
                    labels,
                    variant,
                    eval: self.eval_subset(labels, variant, &tiles),
                });
            }
        }
        out
    }

    /// Table V: the Table IV grid split into the paper's cloud-cover
    /// buckets (more / less than about 10 % cloud and shadow).
    pub fn table5(&mut self) -> Vec<(bool, AccuracyCell)> {
        let cloudy: Vec<Tile> = self
            .dataset
            .validation
            .iter()
            .filter(|t| t.is_cloudy())
            .cloned()
            .collect();
        let clear: Vec<Tile> = self
            .dataset
            .validation
            .iter()
            .filter(|t| !t.is_cloudy())
            .cloned()
            .collect();
        let mut out = Vec::new();
        for (is_cloudy, tiles) in [(true, &cloudy), (false, &clear)] {
            if tiles.is_empty() {
                continue;
            }
            for labels in [LabelSource::Manual, LabelSource::Auto] {
                for variant in [InputVariant::Original, InputVariant::Filtered] {
                    out.push((
                        is_cloudy,
                        AccuracyCell {
                            labels,
                            variant,
                            eval: self.eval_subset(labels, variant, tiles),
                        },
                    ));
                }
            }
        }
        out
    }

    /// Fig. 13: confusion matrices for both models over the three
    /// conditions (cloudy-shadowy originals, cloud-shadow-removed,
    /// cloud-shadow-free).
    pub fn fig13(&mut self) -> Vec<(LabelSource, &'static str, ArmEvaluation)> {
        let cloudy: Vec<Tile> = self
            .dataset
            .validation
            .iter()
            .filter(|t| t.is_cloudy())
            .cloned()
            .collect();
        let all = self.dataset.validation.clone();
        let mut out = Vec::new();
        for labels in [LabelSource::Manual, LabelSource::Auto] {
            if !cloudy.is_empty() {
                out.push((
                    labels,
                    "cloudy-shadowy",
                    self.eval_subset(labels, InputVariant::Original, &cloudy),
                ));
                out.push((
                    labels,
                    "cloud-shadow-removed",
                    self.eval_subset(labels, InputVariant::Filtered, &cloudy),
                ));
            }
            out.push((
                labels,
                "cloud-shadow-free",
                self.eval_subset(labels, InputVariant::Clean, &all),
            ));
        }
        out
    }
}

/// Renders Table IV in the paper's layout.
pub fn render_table4(cells: &[AccuracyCell]) -> String {
    let pick = |l: LabelSource, v: InputVariant| {
        cells
            .iter()
            .find(|c| c.labels == l && c.variant == v)
            .map(|c| c.eval.report.accuracy * 100.0)
            .unwrap_or(f64::NAN)
    };
    let mut s = String::new();
    s.push_str("TABLE IV: U-Net sea-ice classification accuracy (paper values in parentheses)\n");
    s.push_str(&format!(
        "Original S2 images                      | U-Net-Man {:>6.2}% (91.39%) | U-Net-Auto {:>6.2}% (90.18%)\n",
        pick(LabelSource::Manual, InputVariant::Original),
        pick(LabelSource::Auto, InputVariant::Original)
    ));
    s.push_str(&format!(
        "S2 images, thin cloud/shadow filtered   | U-Net-Man {:>6.2}% (98.40%) | U-Net-Auto {:>6.2}% (98.97%)\n",
        pick(LabelSource::Manual, InputVariant::Filtered),
        pick(LabelSource::Auto, InputVariant::Filtered)
    ));
    for c in cells {
        s.push_str(&format!(
            "  {:?}/{:?}: {}\n",
            c.labels,
            c.variant,
            c.eval.report.summary()
        ));
    }
    s
}

/// Renders Table V in the paper's layout.
pub fn render_table5(rows: &[(bool, AccuracyCell)]) -> String {
    let pick = |cloudy: bool, l: LabelSource, v: InputVariant| {
        rows.iter()
            .find(|(c, cell)| *c == cloudy && cell.labels == l && cell.variant == v)
            .map(|(_, cell)| cell.eval.report.accuracy * 100.0)
            .unwrap_or(f64::NAN)
    };
    let mut s = String::new();
    s.push_str(
        "TABLE V: validation accuracy by cloud/shadow coverage (paper values in parentheses)\n",
    );
    s.push_str(&format!(
        "> ~10% cover, original images | U-Net-Man {:>6.2}% (88.74%) | U-Net-Auto {:>6.2}% (79.91%)\n",
        pick(true, LabelSource::Manual, InputVariant::Original),
        pick(true, LabelSource::Auto, InputVariant::Original)
    ));
    s.push_str(&format!(
        "> ~10% cover, filtered images | U-Net-Man {:>6.2}% (98.91%) | U-Net-Auto {:>6.2}% (99.28%)\n",
        pick(true, LabelSource::Manual, InputVariant::Filtered),
        pick(true, LabelSource::Auto, InputVariant::Filtered)
    ));
    s.push_str(&format!(
        "< ~10% cover, original images | U-Net-Man {:>6.2}% (92.27%) | U-Net-Auto {:>6.2}% (93.60%)\n",
        pick(false, LabelSource::Manual, InputVariant::Original),
        pick(false, LabelSource::Auto, InputVariant::Original)
    ));
    s.push_str(&format!(
        "< ~10% cover, filtered images | U-Net-Man {:>6.2}% (98.23%) | U-Net-Auto {:>6.2}% (98.87%)\n",
        pick(false, LabelSource::Manual, InputVariant::Filtered),
        pick(false, LabelSource::Auto, InputVariant::Filtered)
    ));
    s
}

/// Fig. 11 / §IV-B-2: SSIM of auto-labels against manual labels, with and
/// without the thin-cloud/shadow filter (paper: 89 % and 99.64 %).
#[derive(Clone, Debug)]
pub struct Fig11 {
    /// Mean SSIM of auto-labels from original (contaminated) imagery.
    pub ssim_original: f64,
    /// Mean SSIM of auto-labels from filtered imagery.
    pub ssim_filtered: f64,
    /// Tiles scored.
    pub tiles: usize,
}

/// Runs the Fig. 11 SSIM experiment over the validation split's cloudy
/// tiles.
pub fn fig11(scale: Scale) -> Fig11 {
    let (scenes, scene, tile, _) = scale.accuracy_dataset();
    let cfg = WorkflowConfig::scaled(scenes, scene, tile, 1);
    let dataset = Dataset::build(cfg.dataset.clone());
    let unfiltered = AutoLabelConfig::unfiltered();
    let filtered = AutoLabelConfig::filtered_for_tile(tile);

    let mut sum_orig = 0f64;
    let mut sum_filt = 0f64;
    let mut n = 0usize;
    for t in dataset.validation.iter().filter(|t| t.is_cloudy()) {
        let manual = seaice_label::segment::segment_to_color(&t.truth);
        let lab_orig = auto_label(&t.rgb, &unfiltered).color_label;
        let lab_filt = auto_label(&t.rgb, &filtered).color_label;
        sum_orig += ssim_rgb(&lab_orig, &manual);
        sum_filt += ssim_rgb(&lab_filt, &manual);
        n += 1;
    }
    assert!(n > 0, "no cloudy validation tiles at this scale");
    Fig11 {
        ssim_original: sum_orig / n as f64,
        ssim_filtered: sum_filt / n as f64,
        tiles: n,
    }
}

impl Fig11 {
    /// Renders the result line.
    pub fn render(&self) -> String {
        format!(
            "FIG 11 / §IV-B: auto-label SSIM vs manual labels over {} cloudy tiles\n  original imagery: {:.2}% (paper: 89%)\n  filtered imagery: {:.2}% (paper: 99.64%)\n",
            self.tiles,
            self.ssim_original * 100.0,
            self.ssim_filtered * 100.0
        )
    }
}

/// §IV-B timing: auto-labeling large scenes end to end (paper: 349.26 s
/// for 66 scenes of 2048²).
#[derive(Clone, Debug)]
pub struct ScenesTiming {
    /// Scenes processed.
    pub scenes: usize,
    /// Scene side in pixels.
    pub scene_size: usize,
    /// Measured seconds on this host.
    pub measured_secs: f64,
    /// Extrapolation to the paper's 66×2048² workload at this host's
    /// measured per-pixel rate.
    pub paper_workload_secs: f64,
}

/// Runs the scene-labeling timing experiment.
pub fn scenes_timing(scale: Scale) -> ScenesTiming {
    let (n, side) = match scale {
        Scale::Small => (2usize, 256usize),
        Scale::Medium => (4, 512),
        Scale::Large => (8, 1024),
    };
    let cfg = AutoLabelConfig::filtered_for_tile(side);
    let scenes: Vec<_> = (0..n)
        .map(|i| {
            let sc = seaice_s2::synth::generate(
                &seaice_s2::synth::SceneConfig {
                    width: side,
                    height: side,
                    ..seaice_s2::synth::SceneConfig::tiny(side)
                },
                0x5CE7E + i as u64,
            );
            sc.rgb
        })
        .collect();
    let t0 = std::time::Instant::now();
    for s in &scenes {
        std::hint::black_box(auto_label(s, &cfg));
    }
    let measured = t0.elapsed().as_secs_f64();
    let px_done = (n * side * side) as f64;
    let paper_px = 66.0 * 2048.0 * 2048.0;
    ScenesTiming {
        scenes: n,
        scene_size: side,
        measured_secs: measured,
        paper_workload_secs: measured / px_done * paper_px,
    }
}

impl ScenesTiming {
    /// Renders the result line.
    pub fn render(&self) -> String {
        format!(
            "SCENE LABELING (§IV-B): {} scenes of {}x{} in {:.2}s; extrapolated 66x2048² workload: {:.1}s (paper: 349.26s)\n",
            self.scenes, self.scene_size, self.scene_size, self.measured_secs, self.paper_workload_secs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_filter_improves_ssim() {
        let f = fig11(Scale::Small);
        assert!(
            f.ssim_filtered > f.ssim_original,
            "filtered {:.3} must beat original {:.3}",
            f.ssim_filtered,
            f.ssim_original
        );
        assert!(
            f.ssim_filtered - f.ssim_original > 0.02,
            "filter must add several SSIM points: {:.3} vs {:.3}",
            f.ssim_filtered,
            f.ssim_original
        );
        assert!(
            f.ssim_filtered > 0.75,
            "filtered SSIM {:.3}",
            f.ssim_filtered
        );
    }

    #[test]
    fn scenes_timing_extrapolates() {
        let t = scenes_timing(Scale::Small);
        assert!(t.measured_secs > 0.0);
        assert!(t.paper_workload_secs > t.measured_secs);
    }

    #[test]
    fn accuracy_tables_have_the_right_shape() {
        let mut exp = prepare(Scale::Small);
        let t4 = exp.table4();
        assert_eq!(t4.len(), 4);
        // Filtering must help both models (the paper's headline claim).
        let acc = |l: LabelSource, v: InputVariant| {
            t4.iter()
                .find(|c| c.labels == l && c.variant == v)
                .unwrap()
                .eval
                .report
                .accuracy
        };
        assert!(
            acc(LabelSource::Manual, InputVariant::Filtered)
                > acc(LabelSource::Manual, InputVariant::Original)
        );
        assert!(
            acc(LabelSource::Auto, InputVariant::Filtered)
                > acc(LabelSource::Auto, InputVariant::Original)
        );

        let t5 = exp.table5();
        assert!(!t5.is_empty());
        let f13 = exp.fig13();
        assert!(f13.len() >= 2);
        for (_, _, e) in &f13 {
            // Column-normalized columns sum to 1 (or 0 for absent class).
            let norm = e.confusion.column_normalized();
            for t in 0..3usize {
                let s: f64 = norm.iter().take(3).map(|row| row[t]).sum();
                assert!(s < 1.0 + 1e-9);
            }
        }
    }
}
