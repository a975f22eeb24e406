//! Table I / Fig. 10 — Python-multiprocessing-style auto-labeling
//! speedup on a 4-core/8-thread workstation.
//!
//! The per-tile auto-label cost is **measured** on this host by running
//! the real filter + segmentation; the worker-count sweep is then
//! projected through the calibrated [`HostModel`] of the paper's i5
//! (this host has a single core, so measured multi-worker wall time
//! cannot exhibit the paper's scaling — see DESIGN.md). The real
//! [`WorkerPool`] is still exercised at every worker count to verify the
//! results are identical to the sequential labels.

use crate::scale::Scale;
use crate::workloads::{labeling_tiles, measure_per_tile_cost, measure_per_tile_cost_with};
use seaice_label::autolabel::{
    auto_label_batch, auto_label_batch_pool, AutoLabelConfig, LabelBackend,
};
use seaice_label::parallel::WorkerPool;
use seaice_mapreduce::simsched::HostModel;

/// One row of Table I.
#[derive(Clone, Copy, Debug)]
pub struct Table1Row {
    /// Worker/process count.
    pub processes: usize,
    /// Simulated parallel seconds on the paper's workstation.
    pub parallel_secs: f64,
    /// Simulated speedup vs one process.
    pub speedup: f64,
    /// The paper's published speedup for this row.
    pub paper_speedup: f64,
    /// Measured wall seconds of the real worker pool on this host.
    pub measured_secs: f64,
}

/// Complete Table I result.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// Tiles labeled.
    pub tiles: usize,
    /// Tile side in pixels.
    pub tile_size: usize,
    /// Measured mean per-tile cost on this host (seconds), using the
    /// default (fused) segmentation backend.
    pub per_tile_secs: f64,
    /// Mean unfiltered per-tile labeling cost with the reference
    /// (`f32` HSV + range scans) backend, in seconds.
    pub reference_label_secs: f64,
    /// Mean unfiltered per-tile labeling cost with the fused integer/LUT
    /// backend, in seconds.
    pub fused_label_secs: f64,
    /// `reference_label_secs / fused_label_secs` — the measured payoff of
    /// the fused kernel on this host.
    pub fused_speedup: f64,
    /// Simulated sequential seconds for the full 4224-tile paper workload
    /// on the paper's workstation (for the "17.40 s" comparison).
    pub paper_workload_serial_secs: f64,
    /// Sweep rows (1, 2, 4, 6, 8 processes).
    pub rows: Vec<Table1Row>,
}

/// The paper's published speedups, by process count.
pub const PAPER_SPEEDUPS: [(usize, f64); 5] = [(1, 1.0), (2, 2.0), (4, 3.7), (6, 4.2), (8, 4.5)];

/// Runs the experiment.
pub fn run(scale: Scale) -> Table1 {
    let n = scale.label_tiles();
    let side = scale.label_tile_size();
    let tiles = labeling_tiles(n, side, 0x7AB1E1);
    let per_tile = measure_per_tile_cost(&tiles);
    let serial = per_tile * n as f64;
    let host = HostModel::paper_i5();

    // Fused-vs-reference labeling throughput on the same tiles, measured
    // without the filter so the segmentation kernel dominates the figure.
    let reference_label_secs = measure_per_tile_cost_with(
        &tiles,
        &AutoLabelConfig::unfiltered().with_backend(LabelBackend::Reference),
    );
    let fused_label_secs = measure_per_tile_cost_with(
        &tiles,
        &AutoLabelConfig::unfiltered().with_backend(LabelBackend::Fused),
    );

    let cfg = AutoLabelConfig::filtered_for_tile(side);
    let reference = auto_label_batch(&tiles, &cfg);

    let rows = PAPER_SPEEDUPS
        .iter()
        .map(|&(procs, paper)| {
            // Really run the worker pool (verifies results + measures
            // this host's wall time).
            let pool = WorkerPool::new(procs);
            let t0 = std::time::Instant::now();
            let out = auto_label_batch_pool(&pool, tiles.clone(), cfg);
            let measured = t0.elapsed().as_secs_f64();
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(
                    a.class_mask, b.class_mask,
                    "parallel labels must match sequential"
                );
            }
            let parallel_secs = host.parallel_time(serial, procs);
            Table1Row {
                processes: procs,
                parallel_secs,
                speedup: host.parallel_time(serial, 1) / parallel_secs,
                paper_speedup: paper,
                measured_secs: measured,
            }
        })
        .collect();

    Table1 {
        tiles: n,
        tile_size: side,
        per_tile_secs: per_tile,
        reference_label_secs,
        fused_label_secs,
        fused_speedup: reference_label_secs / fused_label_secs,
        paper_workload_serial_secs: per_tile * 4224.0,
        rows,
    }
}

impl Table1 {
    /// The `BENCH_label.json` perf-trajectory summary. Wall-time metrics
    /// carry loose tolerances (host-to-host jitter must not flag); the
    /// simulated speedup is tighter because the host model is
    /// deterministic.
    pub fn summary(&self) -> seaice_obs::bench::Summary {
        let sim_speedup_8p = self.rows.last().map_or(0.0, |r| r.speedup);
        seaice_obs::bench::Summary::new("label")
            .metric("per_tile_ms", self.per_tile_secs * 1e3, "ms", false, 0.5)
            .metric(
                "fused_label_ms",
                self.fused_label_secs * 1e3,
                "ms",
                false,
                0.5,
            )
            .metric("fused_speedup", self.fused_speedup, "x", true, 0.5)
            .metric("sim_speedup_8p", sim_speedup_8p, "x", true, 0.25)
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "TABLE I: Multiprocessing-style auto-labeling ({} tiles of {}x{}, measured {:.2} ms/tile)\n",
            self.tiles,
            self.tile_size,
            self.tile_size,
            self.per_tile_secs * 1e3
        ));
        s.push_str(&format!(
            "paper-scale serial estimate (4224 tiles): {:.2} s  [paper: 17.40 s]\n",
            self.paper_workload_serial_secs
        ));
        s.push_str(&format!(
            "fused segmentation: {:.3} ms/tile vs reference {:.3} ms/tile ({:.1}x speedup)\n",
            self.fused_label_secs * 1e3,
            self.reference_label_secs * 1e3,
            self.fused_speedup
        ));
        s.push_str("procs | sim parallel s | sim speedup | paper speedup | host measured s\n");
        for r in &self.rows {
            s.push_str(&format!(
                "{:>5} | {:>14.2} | {:>11.2} | {:>13.2} | {:>15.3}\n",
                r.processes, r.parallel_secs, r.speedup, r.paper_speedup, r.measured_secs
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let t = run(Scale::Small);
        assert_eq!(t.rows.len(), 5);
        assert!((t.rows[0].speedup - 1.0).abs() < 1e-9);
        for (row, &(procs, paper)) in t.rows.iter().zip(&PAPER_SPEEDUPS) {
            assert_eq!(row.processes, procs);
            assert!(
                (row.speedup - paper).abs() / paper < 0.1,
                "{procs} procs: simulated {:.2} vs paper {paper}",
                row.speedup
            );
        }
        // Speedup is monotone and saturates below 5 (HT limit).
        assert!(t.rows.windows(2).all(|w| w[1].speedup >= w[0].speedup));
        assert!(t.rows[4].speedup < 5.0);
        // Both backends were really measured; the ratio is only asserted
        // loosely here because debug-mode timings are noisy.
        assert!(t.reference_label_secs > 0.0 && t.fused_label_secs > 0.0);
        assert!(t.fused_speedup.is_finite() && t.fused_speedup > 0.0);
        assert!(t.render().contains("TABLE I"));
    }
}
