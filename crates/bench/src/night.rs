//! Season-transfer experiment (§IV-B-2): the paper notes its summer
//! color limits break on Antarctic partial-night imagery and had to be
//! re-tuned manually. This target quantifies that failure and shows both
//! remedies shipped in `seaice-label::calibrate` — the analytic
//! illumination rescale and the automatic threshold calibrator fitted on
//! a single labeled reference scene.

use crate::scale::Scale;
use seaice_imgproc::buffer::Image;
use seaice_label::calibrate::calibrate;
use seaice_label::ranges::ClassRanges;
use seaice_label::segment::segment_classes;
use seaice_s2::synth::{generate, SceneConfig};

/// Accuracy of each threshold strategy on held-out partial-night scenes.
#[derive(Clone, Debug)]
pub struct NightTransfer {
    /// Scenes evaluated.
    pub scenes: usize,
    /// Paper summer thresholds applied blindly.
    pub summer_accuracy: f64,
    /// Analytic `for_illumination(0.45)` rescale.
    pub rescaled_accuracy: f64,
    /// Thresholds fitted by [`calibrate`] on one labeled reference scene.
    pub calibrated_accuracy: f64,
    /// Fitted V cut points `(water_hi, thick_lo)`.
    pub fitted_cuts: (u8, u8),
}

fn accuracy(mask: &Image<u8>, truth: &Image<u8>) -> f64 {
    mask.as_slice()
        .iter()
        .zip(truth.as_slice())
        .filter(|(a, b)| a == b)
        .count() as f64
        / truth.as_slice().len() as f64
}

/// Runs the transfer experiment.
pub fn run(scale: Scale) -> NightTransfer {
    let (n_scenes, scene_size, ..) = scale.accuracy_dataset();
    let night_cfg = SceneConfig {
        illumination: 0.45,
        ..SceneConfig {
            width: scene_size,
            height: scene_size,
            ..SceneConfig::tiny(scene_size)
        }
    };

    // One labeled reference acquisition for calibration…
    let reference = generate(&night_cfg, 0x1417);
    let cal = calibrate(&[(&reference.rgb, &reference.truth)]);

    // …evaluated on fresh night scenes.
    let strategies = [
        ClassRanges::paper(),
        ClassRanges::partial_night(),
        cal.ranges,
    ];
    let mut sums = [0f64; 3];
    for i in 0..n_scenes {
        let scene = generate(&night_cfg, 0x2000 + i as u64);
        for (k, ranges) in strategies.iter().enumerate() {
            sums[k] += accuracy(&segment_classes(&scene.rgb, ranges), &scene.truth);
        }
    }
    NightTransfer {
        scenes: n_scenes,
        summer_accuracy: sums[0] / n_scenes as f64,
        rescaled_accuracy: sums[1] / n_scenes as f64,
        calibrated_accuracy: sums[2] / n_scenes as f64,
        fitted_cuts: cal.ranges.value_cuts(),
    }
}

impl NightTransfer {
    /// Renders the experiment summary.
    pub fn render(&self) -> String {
        format!(
            "SEASON TRANSFER (§IV-B-2): auto-label accuracy on {} partial-night scenes\n\
             {:>42} | {:>8.2}%\n{:>42} | {:>8.2}%\n{:>42} | {:>8.2}%  (fitted V cuts: water<= {}, thick>= {})\n",
            self.scenes,
            "summer thresholds (paper values, blind)",
            self.summer_accuracy * 100.0,
            "analytic illumination rescale (x0.45)",
            self.rescaled_accuracy * 100.0,
            "auto-calibrated from 1 labeled scene",
            self.calibrated_accuracy * 100.0,
            self.fitted_cuts.0,
            self.fitted_cuts.1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn night_transfer_shows_failure_and_recovery() {
        let t = run(Scale::Small);
        assert!(
            t.summer_accuracy < 0.75,
            "summer thresholds should fail at night: {:.3}",
            t.summer_accuracy
        );
        assert!(
            t.rescaled_accuracy > 0.9,
            "rescale should recover: {:.3}",
            t.rescaled_accuracy
        );
        assert!(
            t.calibrated_accuracy > 0.9,
            "calibration should recover: {:.3}",
            t.calibrated_accuracy
        );
    }
}
