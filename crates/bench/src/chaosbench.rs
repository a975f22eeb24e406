//! chaos-bench — the fault-injection / recovery demonstration
//! (DESIGN.md §4.3).
//!
//! Three rows, one discipline: each execution layer runs under a seeded
//! [`FaultPlan`] that kills a component mid-run, and the recovered result
//! is checked **byte-for-byte** against a fault-free (or planned-resume)
//! reference:
//!
//! * **mapreduce** — executor 1 panics on every task it touches; the
//!   scheduler retries, blacklists it, and the collected output set must
//!   equal the strict path's.
//! * **distrib** — rank 2 of 3 hits a transient all-reduce fault in
//!   epoch 1; training resumes from the epoch-0 checkpoint on the two
//!   survivors and must land exactly where a planned shrink-and-resume
//!   run lands.
//! * **serve** — the (single) replica panics mid-batch; the supervisor
//!   restores a fresh model from the checkpoint and every request is
//!   answered bit-identically to a direct `model.predict`.
//!
//! The table reports what each recovery cost: injections fired, retries
//! or restarts, and the extra attempts the simulated clock charged.

use crate::scale::Scale;
use seaice_distrib::{
    rank_fault_key, train_distributed_elastic, DgxA100Model, DistTrainConfig, ElasticConfig,
    ResumePoint,
};
use seaice_faults::{mix, FaultAction, FaultPlan};
use seaice_imgproc::buffer::Image;
use seaice_mapreduce::{ClusterSpec, CostModel, RunPolicy, Session};
use seaice_nn::dataloader::Sample;
use seaice_s2::synth::{generate, SceneConfig};
use seaice_serve::{tile_key, Engine, EngineConfig};
use seaice_unet::checkpoint::snapshot;
use seaice_unet::{UNet, UNetConfig};
use std::sync::Arc;
use std::time::Duration;

/// One recovered layer in the chaos table.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Which execution layer the faults hit.
    pub layer: String,
    /// What was killed, in words.
    pub fault: String,
    /// Faults the plan actually fired.
    pub injections: u64,
    /// Recovery actions taken (task retries / resumed generations /
    /// replica restarts).
    pub recoveries: u64,
    /// Extra work the recovery cost (retried task attempts, re-run
    /// epochs, re-staged batches).
    pub wasted_attempts: u64,
    /// Recovered output equals the fault-free reference byte for byte.
    pub bit_identical: bool,
}

/// The rendered chaos demonstration.
#[derive(Clone, Debug)]
pub struct ChaosBench {
    /// Map-reduce items in the killed-executor job.
    pub items: usize,
    /// Training samples in the killed-rank run.
    pub samples: usize,
    /// Tiles served through the killed-replica engine.
    pub tiles: usize,
    /// One row per layer.
    pub rows: Vec<ChaosRow>,
}

fn scramble(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Kill executor 1 of 4 under a resilient policy; compare the output set
/// with the strict scheduler's.
fn mapreduce_row(items: usize) -> ChaosRow {
    let data: Vec<u64> = (0..items as u64).collect();

    let s = Session::new(ClusterSpec::new(4, 2).unwrap(), CostModel::gcd_n2());
    let (df, _) = s.read(data.clone(), 8.0);
    let (lazy, _) = df.map(&s, scramble);
    let (want, _) = lazy.collect(&s, 8.0);

    let faults = Arc::new(FaultPlan::seeded(0xC0FFEE).fail_keys(
        "mapreduce.executor",
        &[1],
        FaultAction::Panic,
    ));
    let s = Session::new(ClusterSpec::new(4, 2).unwrap(), CostModel::gcd_n2());
    let (df, _) = s.read(data, 8.0);
    let (lazy, _) = df.map(&s, scramble);
    let (got, _, ft) = lazy
        .collect_ft(&s, 8.0, RunPolicy::resilient(), Arc::clone(&faults))
        .expect("the job must survive one dead executor out of four");

    ChaosRow {
        layer: "mapreduce".into(),
        fault: "executor 1/4 panics on every task".into(),
        injections: faults.injections_fired(),
        recoveries: ft.retries as u64,
        wasted_attempts: (ft.attempts - ft.tasks) as u64,
        bit_identical: got == want,
    }
}

fn toy_samples(n: usize, side: usize) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let class = (i % 3) as u8;
            let level = [0.9f32, 0.5, 0.05][class as usize];
            Sample {
                image: vec![level; 3 * side * side],
                mask: vec![class; side * side],
                channels: 3,
                height: side,
                width: side,
            }
        })
        .collect()
}

fn tiny_unet_cfg() -> UNetConfig {
    UNetConfig {
        depth: 1,
        base_filters: 4,
        dropout: 0.0,
        seed: 23,
        ..UNetConfig::paper()
    }
}

/// Kill rank 2 of 3 before its (epoch 1, step 0) all-reduce; recovery
/// must match a planned 3-rank-head / 2-rank-tail resume bit for bit.
fn distrib_row(samples_n: usize) -> ChaosRow {
    let side = 8;
    let samples = toy_samples(samples_n, side);
    let perf = DgxA100Model::dgx_a100();
    let cfg = |ranks: usize, epochs: usize| DistTrainConfig {
        ranks,
        epochs,
        batch_size_per_rank: 2,
        learning_rate: 1e-3,
        shuffle_seed: Some(5),
    };

    let faults = Arc::new(FaultPlan::seeded(7).fail_keys(
        "distrib.allreduce",
        &[rank_fault_key(3, 2, 1, 0)],
        FaultAction::Error,
    ));
    let (mut chaos_model, chaos) = train_distributed_elastic(
        tiny_unet_cfg(),
        samples.clone(),
        cfg(3, 3),
        &perf,
        ElasticConfig {
            checkpoint_every_epochs: 1,
            ..ElasticConfig::default()
        },
        Arc::clone(&faults),
    )
    .expect("training must survive one lost rank");

    let (mut head, head_report) = train_distributed_elastic(
        tiny_unet_cfg(),
        samples.clone(),
        cfg(3, 1),
        &perf,
        ElasticConfig::default(),
        Arc::new(FaultPlan::disabled()),
    )
    .expect("reference head run");
    let (mut planned_model, planned) = train_distributed_elastic(
        tiny_unet_cfg(),
        samples,
        cfg(2, 3),
        &perf,
        ElasticConfig {
            resume: Some(ResumePoint {
                epoch: 1,
                checkpoint: snapshot(&mut head),
                prior_losses: head_report.epoch_losses,
            }),
            ..ElasticConfig::default()
        },
        Arc::new(FaultPlan::disabled()),
    )
    .expect("reference resume run");

    let x = seaice_nn::init::uniform(&[1, 3, side, side], 0.0, 1.0, 77);
    let bit_identical = chaos.epoch_losses == planned.epoch_losses
        && chaos_model.forward(&x, false) == planned_model.forward(&x, false);

    ChaosRow {
        layer: "distrib".into(),
        fault: "rank 2/3 dies before its epoch-1 all-reduce".into(),
        injections: faults.injections_fired(),
        recoveries: chaos.generations.saturating_sub(1) as u64,
        wasted_attempts: chaos
            .resumed_from_epochs
            .iter()
            .map(|&e| (e + 1) as u64)
            .sum(),
        bit_identical,
    }
}

/// Kill the single serving replica on its first batch; the restored
/// replica must answer every tile exactly like a direct forward pass.
fn serve_row(tiles_n: usize) -> ChaosRow {
    let mut model = UNet::new(UNetConfig {
        depth: 1,
        base_filters: 4,
        dropout: 0.0,
        seed: 29,
        ..UNetConfig::paper()
    });
    let ckpt = snapshot(&mut model);
    let tiles: Vec<Image<u8>> = (0..tiles_n as u64)
        .map(|i| generate(&SceneConfig::tiny(16), 500 + i).rgb)
        .collect();

    let faults = Arc::new(FaultPlan::seeded(9).fail_keys(
        "serve.worker",
        &[mix(tile_key(&tiles[0]), 0)],
        FaultAction::Panic,
    ));
    let engine = Engine::with_faults(
        &ckpt,
        EngineConfig {
            workers: 1,
            max_batch_size: 1,
            max_wait: Duration::from_millis(1),
            queue_capacity: 16,
            cache_capacity: 0,
            filter: false,
            ..EngineConfig::for_tile(16)
        },
        Arc::clone(&faults),
    )
    .expect("chaos engine config is valid");

    let mut bit_identical = true;
    for t in &tiles {
        let got = engine.classify(t.clone()).expect("no request may be lost");
        let chw = seaice_core::adapters::image_to_chw(t);
        let x = seaice_nn::Tensor::from_vec(&[1, 3, 16, 16], chw);
        bit_identical &= *got == model.predict(&x);
    }
    let stats = engine.stats();
    engine.shutdown();

    ChaosRow {
        layer: "serve".into(),
        fault: "replica 1/1 panics on its first batch".into(),
        injections: faults.injections_fired(),
        recoveries: stats.robustness.worker_restarts,
        wasted_attempts: stats.robustness.batch_retries,
        bit_identical,
    }
}

/// Runs the three seeded-kill scenarios at `scale`.
///
/// Injected panics are expected here, so their default stderr backtraces
/// are filtered out for the duration of the run; any *other* panic still
/// reports normally.
pub fn run(scale: Scale) -> ChaosBench {
    let (items, samples, tiles) = scale.chaos_workload();
    let rows = crate::with_suppressed_panics("injected fault", || {
        vec![mapreduce_row(items), distrib_row(samples), serve_row(tiles)]
    });
    ChaosBench {
        items,
        samples,
        tiles,
        rows,
    }
}

impl ChaosBench {
    /// The `BENCH_chaos.json` summary: one zero-tolerance bit-identity
    /// claim per recovered layer, plus the injection/recovery counts with
    /// tolerances loose enough that only a collapse (a layer stops
    /// recovering) flags.
    pub fn summary(&self) -> seaice_obs::bench::Summary {
        let mut s = seaice_obs::bench::Summary::new("chaos");
        let mut injections = 0u64;
        let mut recoveries = 0u64;
        for r in &self.rows {
            s = s.metric(
                &format!("{}_bit_identical", r.layer),
                if r.bit_identical { 1.0 } else { 0.0 },
                "bool",
                true,
                0.0,
            );
            injections += r.injections;
            recoveries += r.recoveries;
        }
        s.metric("injections_fired", injections as f64, "count", true, 1.0)
            .metric("recoveries", recoveries as f64, "count", true, 1.0)
    }

    /// Renders the recovery table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "CHAOS BENCH: {} map-reduce items, {} training samples, {} served tiles — \
             every fault seeded, every recovery checked byte-for-byte\n",
            self.items, self.samples, self.tiles
        ));
        s.push_str(
            "layer     | fault                                        | fired | recov | wasted | identical\n",
        );
        for r in &self.rows {
            s.push_str(&format!(
                "{:<9} | {:<44} | {:>5} | {:>5} | {:>6} | {}\n",
                r.layer,
                r.fault,
                r.injections,
                r.recoveries,
                r.wasted_attempts,
                if r.bit_identical { "OK" } else { "MISMATCH" },
            ));
        }
        s.push_str(
            "recov = task retries / resumed generations / replica restarts; \
             wasted = extra attempts or re-run epochs charged to the clock\n",
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaosbench_small_recovers_every_layer_bit_identically() {
        let b = run(Scale::Small);
        assert_eq!(b.rows.len(), 3);
        for r in &b.rows {
            assert!(r.injections >= 1, "{}: the plan never fired", r.layer);
            assert!(r.recoveries >= 1, "{}: nothing recovered", r.layer);
            assert!(r.bit_identical, "{}: recovery diverged", r.layer);
        }
        let table = b.render();
        assert!(table.contains("CHAOS BENCH"));
        assert!(table.contains("OK"));
        assert!(!table.contains("MISMATCH"));
    }
}
