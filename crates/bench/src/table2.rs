//! Table II — PySpark-style map-reduce auto-labeling over the
//! {1,2,4} × {1,2,4} executor/core grid of a Dataproc cluster.
//!
//! Each grid point runs the real mini-map-reduce engine (load → lazy map
//! UDF → collect): worker threads execute the full auto-label pipeline,
//! and the engine's cost model turns the calibrated object-store/cluster
//! parameters into simulated load / map / reduce times. Every task is
//! charged the paper's per-tile node cost (390 s over 4224 tiles) via
//! `fixed_task_cost_secs`, so the absolute rows are comparable to the
//! publication and do not depend on this host's speed.

use crate::scale::Scale;
use crate::workloads::labeling_tiles;
use seaice_imgproc::buffer::Image;
use seaice_label::autolabel::{auto_label, AutoLabelConfig};
use seaice_mapreduce::{ClusterSpec, CostModel, Session};

/// One row of Table II.
#[derive(Clone, Copy, Debug)]
pub struct Table2Row {
    /// Executor count.
    pub executors: usize,
    /// Cores per executor.
    pub cores: usize,
    /// Simulated load seconds.
    pub load_secs: f64,
    /// Simulated map-registration seconds.
    pub map_secs: f64,
    /// Simulated reduce seconds.
    pub reduce_secs: f64,
    /// Load speedup vs the 1×1 row.
    pub load_speedup: f64,
    /// Reduce speedup vs the 1×1 row.
    pub reduce_speedup: f64,
}

/// Complete Table II result.
#[derive(Clone, Debug)]
pub struct Table2 {
    /// Tiles processed per grid point.
    pub tiles: usize,
    /// Tile side in pixels.
    pub tile_size: usize,
    /// The grid rows, in the paper's order.
    pub rows: Vec<Table2Row>,
}

/// The paper's row order.
pub const GRID: [(usize, usize); 9] = [
    (1, 1),
    (1, 2),
    (1, 4),
    (2, 1),
    (2, 2),
    (2, 4),
    (4, 1),
    (4, 2),
    (4, 4),
];

/// The paper's published (load, reduce) seconds, same order as [`GRID`].
pub const PAPER_LOAD_REDUCE: [(f64, f64); 9] = [
    (108.0, 390.0),
    (58.0, 174.0),
    (33.0, 72.0),
    (56.0, 156.0),
    (31.0, 84.0),
    (19.0, 41.0),
    (31.0, 78.0),
    (17.0, 39.0),
    (12.0, 24.0),
];

fn run_grid_point(
    tiles: &[Image<u8>],
    spec: ClusterSpec,
    cost: CostModel,
    tile_bytes: f64,
) -> (f64, f64, f64) {
    let session = Session::new(spec, cost);
    let (df, load) = session.read(tiles.to_vec(), tile_bytes);
    let side = tiles[0].width();
    let (lazy, map) = df.map(&session, move |img: Image<u8>| {
        auto_label(&img, &AutoLabelConfig::filtered_for_tile(side))
            .class_mask
            .into_vec()
    });
    let (results, reduce) = lazy.collect(&session, tile_bytes / 3.0);
    assert_eq!(results.len(), tiles.len());
    (
        load.simulated_secs,
        map.simulated_secs,
        reduce.simulated_secs,
    )
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Table2 {
    let n = scale.label_tiles();
    let side = scale.label_tile_size();
    let tiles = labeling_tiles(n, side, 0x7AB1E2);

    // The paper's single-slot reduce took 390 s for 4224 tiles (~92 ms
    // of N2-node time per 256² tile); every local task is charged that
    // fixed cost. A fixed cost (rather than `compute_scale` on measured
    // wall times) keeps the simulation honest on oversubscribed hosts.
    let paper_per_tile = 390.0 / 4224.0;
    let cost = CostModel {
        fixed_task_cost_secs: Some(paper_per_tile),
        ..CostModel::gcd_n2()
    };

    // Each of our n tiles stands for 4224/n paper tiles of 256²×3 bytes,
    // so the simulated load moves the paper's full ~830 MB regardless of
    // the local scale.
    let tile_bytes = 256.0 * 256.0 * 3.0 * 4224.0 / n as f64;

    // The paper collects 4224 class masks (~277 MB) at the driver.
    let paper_tasks = vec![paper_per_tile; 4224];
    let paper_result_bytes = 4224.0 * 256.0 * 256.0;

    let mut rows = Vec::with_capacity(GRID.len());
    let mut base: Option<(f64, f64)> = None;
    for &(e, c) in &GRID {
        let spec = ClusterSpec::new(e, c).expect("grid specs are positive");
        // Execute the real engine at local scale (verifies results; its
        // own report is consistent but covers n tasks, not 4224).
        let (load, map, _engine_reduce) = run_grid_point(&tiles, spec, cost, tile_bytes);
        // Report the reduce stage at the paper's full task count through
        // the same cost model the engine uses.
        let reduce = cost.reduce_time(&spec, &paper_tasks, paper_result_bytes);
        let (l0, r0) = *base.get_or_insert((load, reduce));
        rows.push(Table2Row {
            executors: e,
            cores: c,
            load_secs: load,
            map_secs: map,
            reduce_secs: reduce,
            load_speedup: l0 / load,
            reduce_speedup: r0 / reduce,
        });
    }
    Table2 {
        tiles: n,
        tile_size: side,
        rows,
    }
}

impl Table2 {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "TABLE II: PySpark-style auto-labeling over the simulated GCD cluster ({} tiles of {}x{}, costs in paper-workload units)\n",
            self.tiles, self.tile_size, self.tile_size
        ));
        s.push_str(
            "exec | cores | load s (paper) | map s | reduce s (paper) | speedup load | speedup reduce\n",
        );
        for (r, &(pl, pr)) in self.rows.iter().zip(&PAPER_LOAD_REDUCE) {
            s.push_str(&format!(
                "{:>4} | {:>5} | {:>7.1} ({:>5.1}) | {:>5.2} | {:>9.1} ({:>5.1}) | {:>12.2} | {:>14.2}\n",
                r.executors,
                r.cores,
                r.load_secs,
                pl,
                r.map_secs,
                r.reduce_secs,
                pr,
                r.load_speedup,
                r.reduce_speedup
            ));
        }
        s
    }
}
