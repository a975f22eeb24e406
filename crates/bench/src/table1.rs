//! Table I / Fig. 10 — Python-multiprocessing-style auto-labeling
//! speedup on a 4-core/8-thread workstation.
//!
//! The worker-count sweep is projected through the calibrated
//! [`HostModel`] of the paper's i5 (this host's cores cannot exhibit the
//! paper's scaling — see DESIGN.md). The model is linear in the serial
//! time, so the simulated speedups are host-independent (`tests/tables.rs`
//! asserts them exactly). The per-tile auto-label cost is **measured** on
//! this host by running the real filter + segmentation, and only printed,
//! next to the paper's "17.40 s" line. The real
//! [`WorkerPool`] is exercised at every worker count to verify the
//! results are identical to the sequential labels.

use crate::scale::Scale;
use crate::workloads::{labeling_tiles, measure_per_tile_cost};
use seaice_label::autolabel::{auto_label_batch, auto_label_batch_pool, AutoLabelConfig};
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

    let cfg = AutoLabelConfig::filtered_for_tile(side);
    let reference = auto_label_batch(&tiles, &cfg);

    let rows = PAPER_SPEEDUPS
        .iter()
        .map(|&(procs, paper)| {
            // Really run the worker pool to verify its results.
            let pool = WorkerPool::new(procs);
            let out = auto_label_batch_pool(&pool, tiles.clone(), cfg);
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(
                    a.class_mask, b.class_mask,
                    "parallel labels must match sequential"
                );
            }
            // The speedup is taken on a unit serial time, so not even
            // the last bit depends on this host's measured cost.
            Table1Row {
                processes: procs,
                parallel_secs: host.parallel_time(serial, procs),
                speedup: host.parallel_time(1.0, 1) / host.parallel_time(1.0, procs),
                paper_speedup: paper,
            }
        })
        .collect();

    Table1 {
        tiles: n,
        tile_size: side,
        per_tile_secs: per_tile,
        paper_workload_serial_secs: per_tile * 4224.0,
        rows,
    }
}

impl Table1 {
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
        s.push_str("procs | sim parallel s | sim speedup | paper speedup\n");
        for r in &self.rows {
            s.push_str(&format!(
                "{:>5} | {:>14.2} | {:>11.2} | {:>13.2}\n",
                r.processes, r.parallel_secs, r.speedup, r.paper_speedup
            ));
        }
        s
    }
}
