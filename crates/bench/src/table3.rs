//! Table III / Fig. 12 — Horovod-style distributed U-Net training over
//! 1–8 GPUs of a DGX A100.
//!
//! Two components:
//!
//! * **semantics** — a *real* synchronous data-parallel training run
//!   (rank threads, ring all-reduce gradient averaging) at reduced scale,
//!   verifying losses match across widths;
//! * **timing** — the calibrated [`DgxA100Model`] produces the published
//!   table's four columns for every GPU count.

use crate::scale::Scale;
use seaice_distrib::{train_distributed, DgxA100Model, DistTrainConfig};
use seaice_nn::dataloader::Sample;
use seaice_s2::synth::{generate, SceneConfig};
use seaice_unet::UNetConfig;

/// One row of Table III.
#[derive(Clone, Copy, Debug)]
pub struct Table3Row {
    /// GPU count.
    pub gpus: usize,
    /// Simulated total training seconds (50 epochs).
    pub total_secs: f64,
    /// Simulated seconds per epoch.
    pub secs_per_epoch: f64,
    /// Simulated throughput, images per second.
    pub images_per_sec: f64,
    /// Simulated speedup vs one GPU.
    pub speedup: f64,
}

/// Complete Table III result.
#[derive(Clone, Debug)]
pub struct Table3 {
    /// DGX rows (1, 2, 4, 6, 8 GPUs).
    pub rows: Vec<Table3Row>,
    /// Real-run check: per-epoch losses of the reduced distributed run.
    pub real_run_losses: Vec<f32>,
    /// Real-run ranks.
    pub real_run_ranks: usize,
    /// Real-run measured seconds on this host.
    pub real_run_measured_secs: f64,
}

/// The paper's published rows: (GPUs, total s, s/epoch, imgs/s, speedup).
pub const PAPER_ROWS: [(usize, f64, f64, f64, f64); 5] = [
    (1, 280.72, 5.5, 585.88, 1.00),
    (2, 142.98, 2.778, 1160.81, 1.96),
    (4, 74.09, 1.45, 2229.56, 3.79),
    (6, 51.56, 0.97, 3330.03, 5.44),
    (8, 38.91, 0.79, 4248.56, 7.21),
];

fn reduced_samples(n: usize, side: usize) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let scene = generate(&SceneConfig::tiny(side), 0xD15 + i as u64);
            let image = crate::table45::chw(&scene.rgb);
            Sample {
                image,
                mask: scene.truth.as_slice().to_vec(),
                channels: 3,
                height: side,
                width: side,
            }
        })
        .collect()
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Table3 {
    // Real semantics run at reduced scale.
    let ranks = scale.distrib_ranks();
    let samples = reduced_samples(ranks * 4, 16);
    let unet = UNetConfig {
        depth: 2,
        base_filters: 4,
        dropout: 0.0,
        seed: 99,
        ..UNetConfig::paper()
    };
    let (_, report) = train_distributed(
        unet,
        samples,
        DistTrainConfig {
            ranks,
            epochs: 3,
            batch_size_per_rank: 2,
            learning_rate: 1e-3,
            shuffle_seed: Some(5),
        },
        &DgxA100Model::dgx_a100(),
    );

    // Published-scale timing from the calibrated model.
    let model = DgxA100Model::dgx_a100();
    let rows = PAPER_ROWS
        .iter()
        .map(|&(gpus, ..)| Table3Row {
            gpus,
            total_secs: model.total_time(gpus, 50),
            secs_per_epoch: model.epoch_time(gpus),
            images_per_sec: model.images_per_sec(gpus),
            speedup: model.speedup(gpus),
        })
        .collect();

    Table3 {
        rows,
        real_run_losses: report.epoch_losses,
        real_run_ranks: ranks,
        real_run_measured_secs: report.measured_secs,
    }
}

impl Table3 {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("TABLE III: Distributed U-Net training via ring all-reduce on the DGX A100 model (50 epochs, batch 32/GPU)\n");
        s.push_str("GPUs | time s (paper) | s/epoch (paper) | data/s (paper) | speedup (paper)\n");
        for (r, &(_, pt, pe, pd, ps)) in self.rows.iter().zip(&PAPER_ROWS) {
            s.push_str(&format!(
                "{:>4} | {:>7.2} ({:>6.2}) | {:>6.3} ({:>5.2}) | {:>7.0} ({:>7.2}) | {:>6.2} ({:>4.2})\n",
                r.gpus, r.total_secs, pt, r.secs_per_epoch, pe, r.images_per_sec, pd, r.speedup, ps
            ));
        }
        s.push_str(&format!(
            "real semantics run: {} ranks, losses {:?} ({:.1}s host wall)\n",
            self.real_run_ranks, self.real_run_losses, self.real_run_measured_secs
        ));
        s
    }

    /// Fig. 12's four series: `(gpus, speedup, imgs_per_sec, total, per_epoch)`.
    pub fn fig12_series(&self) -> Vec<(usize, f64, f64, f64, f64)> {
        self.rows
            .iter()
            .map(|r| {
                (
                    r.gpus,
                    r.speedup,
                    r.images_per_sec,
                    r.total_secs,
                    r.secs_per_epoch,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper_rows() {
        let t = run(Scale::Small);
        assert_eq!(t.rows.len(), 5);
        for (r, &(gpus, pt, _, pd, ps)) in t.rows.iter().zip(&PAPER_ROWS) {
            assert_eq!(r.gpus, gpus);
            assert!((r.total_secs - pt).abs() / pt < 0.05, "{gpus} GPUs total");
            assert!(
                (r.images_per_sec - pd).abs() / pd < 0.06,
                "{gpus} GPUs throughput"
            );
            assert!((r.speedup - ps).abs() < 0.3, "{gpus} GPUs speedup");
        }
        // The real run actually trained.
        assert_eq!(t.real_run_losses.len(), 3);
        assert!(t.real_run_losses[2] < t.real_run_losses[0]);
        assert!(t.render().contains("TABLE III"));
    }
}
