//! DGX A100 timing model, calibrated against Table III.
//!
//! Per-epoch time decomposes as
//!
//! ```text
//! T(N) = h + C / N + c · (N − 1) / N
//! ```
//!
//! * `h` — host-side input pipeline and batch preparation per epoch; it
//!   does not shrink with more GPUs and is exactly the "data
//!   preprocessing and subsequent batch preparation, resulting in GPU
//!   starvation" the paper blames for the sub-linear tail;
//! * `C` — single-GPU compute per epoch, divided by the data-parallel
//!   width;
//! * `c·(N−1)/N` — ring all-reduce cost, which approaches a constant as
//!   `N` grows (the bandwidth-optimal property).
//!
//! Calibration (`dgx_a100`): `h = 0.085 s`, `C = 5.53 s`, `c = 0.005 s`
//! matches all five published rows within ~2 %.

/// Calibrated epoch-time model for distributed U-Net training.
#[derive(Clone, Copy, Debug)]
pub struct DgxA100Model {
    /// Host input-pipeline seconds per epoch (not parallelized).
    pub host_secs_per_epoch: f64,
    /// Single-GPU compute seconds per epoch.
    pub compute_secs_per_epoch: f64,
    /// Asymptotic ring all-reduce seconds per epoch.
    pub ring_secs_per_epoch: f64,
    /// Images consumed per epoch (the paper's 80 % training split of
    /// 4224 tiles, ≈ 3379).
    pub images_per_epoch: usize,
}

impl Default for DgxA100Model {
    fn default() -> Self {
        Self::dgx_a100()
    }
}

impl DgxA100Model {
    /// Calibration against the paper's Table III (50 epochs, batch 32 per
    /// GPU, NVIDIA DGX A100).
    pub fn dgx_a100() -> Self {
        Self {
            host_secs_per_epoch: 0.085,
            compute_secs_per_epoch: 5.53,
            ring_secs_per_epoch: 0.005,
            images_per_epoch: 3379,
        }
    }

    /// Simulated seconds per epoch with `n_gpus` data-parallel workers.
    ///
    /// # Panics
    /// Panics if `n_gpus == 0`.
    pub fn epoch_time(&self, n_gpus: usize) -> f64 {
        assert!(n_gpus > 0, "need at least one GPU");
        let n = n_gpus as f64;
        self.host_secs_per_epoch
            + self.compute_secs_per_epoch / n
            + self.ring_secs_per_epoch * (n - 1.0) / n
    }

    /// Simulated total training seconds.
    pub fn total_time(&self, n_gpus: usize, epochs: usize) -> f64 {
        self.epoch_time(n_gpus) * epochs as f64
    }

    /// Simulated throughput in images per second.
    pub fn images_per_sec(&self, n_gpus: usize) -> f64 {
        self.images_per_epoch as f64 / self.epoch_time(n_gpus)
    }

    /// Simulated speedup over a single GPU.
    pub fn speedup(&self, n_gpus: usize) -> f64 {
        self.epoch_time(1) / self.epoch_time(n_gpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table III rows: (GPUs, total s, s/epoch, imgs/s).
    const TABLE3: [(usize, f64, f64, f64); 5] = [
        (1, 280.72, 5.5, 585.88),
        (2, 142.98, 2.778, 1160.81),
        (4, 74.09, 1.45, 2229.56),
        (6, 51.56, 0.97, 3330.03),
        (8, 38.91, 0.79, 4248.56),
    ];

    #[test]
    fn epoch_times_match_table3() {
        let m = DgxA100Model::dgx_a100();
        for (gpus, total, _, _) in TABLE3 {
            let sim = m.total_time(gpus, 50);
            let rel = (sim - total).abs() / total;
            assert!(
                rel < 0.05,
                "{gpus} GPUs: simulated {sim:.1}s vs paper {total}s (rel {rel:.3})"
            );
        }
    }

    #[test]
    fn speedup_matches_table3_tail() {
        let m = DgxA100Model::dgx_a100();
        let s8 = m.speedup(8);
        assert!(
            (s8 - 7.21).abs() < 0.25,
            "8-GPU speedup {s8:.2} vs paper 7.21"
        );
        let s2 = m.speedup(2);
        assert!((s2 - 1.96).abs() < 0.1, "2-GPU speedup {s2:.2}");
    }

    #[test]
    fn throughput_matches_table3() {
        let m = DgxA100Model::dgx_a100();
        for (gpus, _, _, imgs) in TABLE3 {
            let sim = m.images_per_sec(gpus);
            let rel = (sim - imgs).abs() / imgs;
            assert!(
                rel < 0.06,
                "{gpus} GPUs: {sim:.0} imgs/s vs paper {imgs} (rel {rel:.3})"
            );
        }
    }

    #[test]
    fn speedup_is_sublinear_due_to_host_bottleneck() {
        let m = DgxA100Model::dgx_a100();
        for gpus in [2usize, 4, 6, 8] {
            let s = m.speedup(gpus);
            assert!(s < gpus as f64, "speedup must stay sub-linear");
            assert!(s > gpus as f64 * 0.8, "but close to linear");
        }
    }
}
