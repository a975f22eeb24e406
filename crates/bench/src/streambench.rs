//! stream-bench — the streaming DAG workload (DESIGN.md §4.7).
//!
//! Three legs over the same catalog → tile → label → infer →
//! change-detect pipeline, all checked against one reference drift
//! series:
//!
//! * **reference** — a single-worker fault-free run produces the
//!   canonical per-region drift series;
//! * **parallel** — the same run at the scale's worker count must emit a
//!   byte-identical series (the scheduler's determinism contract);
//! * **chaos** — label-stage worker 0 panics on every attempt under a
//!   resilient policy; the scheduler retries each kill on another worker
//!   and blacklists the assassin, and the series must *still* match the
//!   reference byte for byte.
//!
//! Simulated stage costs (the paper's 390 s / 4224 tiles for labeling)
//! drive the scheduler's manual clock, so the reported makespan is
//! deterministic. This DAG's wall-clock throughput is the benchmark's
//! `stream_revisit` workload.

use crate::scale::Scale;
use seaice_core::stream_workflow::{run_stream, train_stream_model, StreamWorkflowConfig};
use seaice_faults::{mix, FaultAction, FaultPlan};
use seaice_stream::{StreamPolicy, StreamReport};
use std::sync::Arc;

/// Index of the label stage in the streaming DAG (0 = catalog source).
pub const LABEL_STAGE: u64 = 2;

/// The rendered streaming demonstration.
#[derive(Clone, Debug)]
pub struct StreamBench {
    /// Monitored regions.
    pub regions: usize,
    /// Revisits per region.
    pub revisits: u32,
    /// Scene side in pixels.
    pub scene_side: usize,
    /// Tile side in pixels.
    pub tile: usize,
    /// Workers on the heavy stages.
    pub workers: usize,
    /// Tiles classified per run.
    pub tiles: u64,
    /// Drift-series points emitted (regions × revisits).
    pub points: usize,
    /// Parallel run matches the single-worker reference byte for byte.
    pub deterministic_across_workers: bool,
    /// Chaos run matches the reference byte for byte.
    pub chaos_bit_identical: bool,
    /// Faults the chaos plan actually fired.
    pub chaos_injections: u64,
    /// Attempts the chaos run retried on another worker.
    pub chaos_retries: u64,
    /// Workers the chaos run blacklisted.
    pub chaos_blacklisted: u64,
    /// Simulated compute across all stages (parallel leg), seconds.
    pub sim_total_secs: f64,
    /// Simulated bottleneck makespan (parallel leg), seconds.
    pub sim_makespan_secs: f64,
    /// Sends into a full stage queue during the parallel leg.
    pub backpressure_waits: u64,
    /// Mean changed fraction over revisits > 0 — the change-detection
    /// signal (the synthetic ice genuinely drifts, so this is > 0).
    pub mean_changed_frac: f64,
}

fn config(scale: Scale) -> StreamWorkflowConfig {
    let (regions, revisits, scene_side, tile, workers) = scale.stream_workload();
    StreamWorkflowConfig {
        regions,
        revisits,
        cadence_days: 2,
        scene_side,
        tile,
        drift_px: 4,
        seed: 0x5EA1CE,
        workers,
        channel_capacity: 8,
        epochs: 2,
    }
}

fn infer_tiles(report: &StreamReport) -> u64 {
    report
        .stages
        .iter()
        .find(|s| s.name == "infer")
        .map(|s| s.items_in)
        .unwrap_or(0)
}

/// Runs the three legs at `scale`.
///
/// The chaos leg's injected panics are expected, so their default stderr
/// backtraces are filtered out for the duration of the run; any *other*
/// panic still reports normally.
pub fn run(scale: Scale) -> StreamBench {
    let cfg = config(scale);

    let ckpt = train_stream_model(&cfg);

    // Reference: one worker everywhere, no faults.
    let mut one = cfg.clone();
    one.workers = 1;
    let reference = run_stream(
        &one,
        &ckpt,
        StreamPolicy::default(),
        Arc::new(FaultPlan::disabled()),
    )
    .expect("fault-free reference run");
    let want = reference.series.to_bytes();

    // Parallel: the scale's worker count.
    let parallel = run_stream(
        &cfg,
        &ckpt,
        StreamPolicy::default(),
        Arc::new(FaultPlan::disabled()),
    )
    .expect("fault-free parallel run");
    let tiles = infer_tiles(&parallel.report);

    // Chaos: label worker 0 panics on every attempt; the resilient
    // policy retries elsewhere and blacklists it.
    let faults = Arc::new(FaultPlan::seeded(0xBAD5EA).fail_keys(
        seaice_stream::FAULT_SITE_WORKER,
        &[mix(LABEL_STAGE, 0)],
        FaultAction::Panic,
    ));
    let chaos = crate::with_suppressed_panics("injected fault", || {
        run_stream(&cfg, &ckpt, StreamPolicy::resilient(), Arc::clone(&faults))
            .expect("the stream must survive one killed label worker")
    });

    let changed: Vec<f64> = reference
        .series
        .points
        .iter()
        .filter(|p| p.revisit > 0)
        .map(|p| p.changed_frac)
        .collect();
    let mean_changed_frac = changed.iter().sum::<f64>() / changed.len().max(1) as f64;

    StreamBench {
        regions: cfg.regions,
        revisits: cfg.revisits,
        scene_side: cfg.scene_side,
        tile: cfg.tile,
        workers: cfg.workers,
        tiles,
        points: reference.series.points.len(),
        deterministic_across_workers: parallel.series.to_bytes() == want,
        chaos_bit_identical: chaos.series.to_bytes() == want,
        chaos_injections: faults.injections_fired(),
        chaos_retries: chaos.report.total_retries(),
        chaos_blacklisted: chaos.report.total_blacklisted(),
        sim_total_secs: parallel.report.sim_total_secs,
        sim_makespan_secs: parallel.report.sim_makespan_secs,
        backpressure_waits: parallel
            .report
            .stages
            .iter()
            .map(|s| s.backpressure_waits)
            .sum(),
        mean_changed_frac,
    }
}

impl StreamBench {
    /// The `BENCH_stream.json` summary: zero-tolerance bit-identity
    /// claims and counts plus the deterministic simulated costs (tight).
    pub fn summary(&self) -> seaice_obs::bench::Summary {
        seaice_obs::bench::Summary::new("stream")
            .metric(
                "deterministic_across_workers",
                if self.deterministic_across_workers {
                    1.0
                } else {
                    0.0
                },
                "bool",
                true,
                0.0,
            )
            .metric(
                "chaos_bit_identical",
                if self.chaos_bit_identical { 1.0 } else { 0.0 },
                "bool",
                true,
                0.0,
            )
            .metric("drift_points", self.points as f64, "count", true, 0.0)
            .metric("tiles", self.tiles as f64, "count", true, 0.0)
            .metric(
                "chaos_injections",
                self.chaos_injections as f64,
                "count",
                true,
                1.0,
            )
            .metric(
                "chaos_retries",
                self.chaos_retries as f64,
                "count",
                true,
                1.0,
            )
            .metric("sim_total_secs", self.sim_total_secs, "s", false, 0.05)
            .metric(
                "sim_makespan_secs",
                self.sim_makespan_secs,
                "s",
                false,
                0.05,
            )
    }

    /// Renders the streaming table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "STREAM BENCH: {} regions x {} revisits ({}x{} scenes, {}x{} tiles, {} workers) — \
             every leg byte-checked against the single-worker reference\n",
            self.regions,
            self.revisits,
            self.scene_side,
            self.scene_side,
            self.tile,
            self.tile,
            self.workers
        ));
        s.push_str("leg      | identical | fired | retry | black | notes\n");
        s.push_str(&format!(
            "parallel | {:<9} |     0 |     0 |     0 | {} tiles, {} backpressure waits\n",
            if self.deterministic_across_workers {
                "OK"
            } else {
                "MISMATCH"
            },
            self.tiles,
            self.backpressure_waits,
        ));
        s.push_str(&format!(
            "chaos    | {:<9} | {:>5} | {:>5} | {:>5} | label worker 0 panics on every attempt\n",
            if self.chaos_bit_identical {
                "OK"
            } else {
                "MISMATCH"
            },
            self.chaos_injections,
            self.chaos_retries,
            self.chaos_blacklisted,
        ));
        s.push_str(&format!(
            "drift series: {} points, mean changed fraction {:.4} over revisits > 0\n",
            self.points, self.mean_changed_frac,
        ));
        s.push_str(&format!(
            "simulated: {:.1}s total compute, {:.1}s bottleneck makespan (label stage at the paper's 390s/4224 tiles)\n",
            self.sim_total_secs, self.sim_makespan_secs,
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streambench_small_is_deterministic_and_survives_chaos() {
        let b = run(Scale::Small);
        assert!(b.deterministic_across_workers, "parallel leg diverged");
        assert!(b.chaos_bit_identical, "chaos leg diverged");
        assert!(b.chaos_injections >= 1, "the fault plan never fired");
        assert!(b.chaos_retries >= 1, "nothing was retried");
        assert_eq!(b.points, 2 * 4);
        assert!(b.tiles > 0);
        assert!(b.mean_changed_frac > 0.0, "the ice never drifted");
        let table = b.render();
        assert!(table.contains("STREAM BENCH"));
        assert!(!table.contains("MISMATCH"));
        let s = b.summary();
        assert_eq!(s.area, "stream");
        assert_eq!(s.metrics["chaos_bit_identical"].value, 1.0);
    }
}
