//! `stream_revisit`: the streaming DAG over a revisit feed.
//!
//! `core::run_stream` over 3 regions × 4 revisits of 128² scenes cut into
//! 32² tiles (192 tiles a run; the 864 the issue sketched take over 2 s a
//! run on this host, too few reps inside the contract's time cap: see
//! README.md, "Noise"), 1 worker per stage, channel capacity 8,
//! `StreamPolicy::resilient()`, no faults, the model from
//! `train_stream_model` in set-up. The same label and infer
//! layers as the other workloads, but as concurrent stages joined by
//! bounded queues with backpressure, and the only workload with `s2`
//! catalog synthesis and cloud layers inside the timed region. With one
//! worker per stage the run still spawns 5 stage threads, of which at most
//! 2 are busy at once (label and infer; the rest wait on their queues).
//!
//! The reference for `accuracy` is the same pipeline walked sequentially on
//! one thread: scheduling must not change a byte of the drift series.

use crate::gen::derive;
use crate::harness::{repeat_setup, time, timed_reps, Ctx, Outcome, DENSE_LOOPS};
use crate::noise::nproc;
use crate::spans::{self_ms, total_ms, Spans};
use seaice_core::adapters::image_to_chw;
use seaice_core::{
    run_stream, train_stream_model, ChangeDetector, DriftSeries, StreamOutcome,
    StreamWorkflowConfig, TileObs,
};
use seaice_faults::FaultPlan;
use seaice_imgproc::buffer::Scratch;
use seaice_label::autolabel::{auto_label_class_mask, AutoLabelConfig};
use seaice_nn::Tensor;
use seaice_s2::catalog::crop_revisit;
use seaice_s2::tiler::tile_anchors;
use seaice_stream::channel::Recv;
use seaice_stream::{StageQueue, StreamPolicy};
use seaice_unet::checkpoint::{self, Checkpoint};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const REGIONS: usize = 3;
const REVISITS: u32 = 4;
const SCENE_SIDE: usize = 128;
const TILE: usize = 32;
const SCENES: usize = REGIONS * REVISITS as usize;
const TILES: usize = SCENES * (SCENE_SIDE / TILE) * (SCENE_SIDE / TILE);

/// Items pushed through a bare `StageQueue` for `stream.queue.send_recv_us`.
const QUEUE_ITEMS: u64 = 20_000;

fn config(seed: u64) -> StreamWorkflowConfig {
    StreamWorkflowConfig {
        regions: REGIONS,
        revisits: REVISITS,
        cadence_days: 2,
        scene_side: SCENE_SIDE,
        tile: TILE,
        drift_px: 4,
        seed: derive(seed, 0x700),
        workers: 1,
        channel_capacity: 8,
        epochs: 2,
    }
}

struct Inputs {
    cfg: StreamWorkflowConfig,
    ckpt: Checkpoint,
}

fn setup(ctx: &Ctx) -> Inputs {
    let cfg = config(ctx.seed);
    let ckpt = ctx
        .spans
        .span("core.train_stream_model", 0, || train_stream_model(&cfg));
    Inputs { cfg, ckpt }
}

fn stream(inputs: &Inputs) -> Result<StreamOutcome, String> {
    run_stream(
        &inputs.cfg,
        &inputs.ckpt,
        StreamPolicy::resilient(),
        Arc::new(FaultPlan::disabled()),
    )
    .map_err(|e| e.to_string())
}

/// The DAG's stage bodies run one after another on this thread, over the
/// same items in feed order, one span per stage call.
fn walk(spans: &Spans, inputs: &Inputs) -> DriftSeries {
    let cfg = &inputs.cfg;
    let (catalog, plan) = cfg.plan();
    let label_cfg = AutoLabelConfig::filtered_for_tile(TILE);
    let mut model = checkpoint::restore(&inputs.ckpt);
    let mut detector = ChangeDetector::new(TILE);
    let mut windows = BTreeMap::new();
    let nx = tile_anchors(SCENE_SIDE, TILE).len() as u32;
    let mut tile_id = 0u64;
    for (scene_id, m) in catalog.revisit_stream(&plan).into_iter().enumerate() {
        let scene_id = scene_id as u64;
        let rgb = spans.span("stream.stage.catalog", scene_id, || {
            let (scene, layer) = spans.span("s2.catalog", scene_id, || {
                let window = windows
                    .entry(m.region.clone())
                    .or_insert_with(|| catalog.region_window(&plan, &m.region));
                (crop_revisit(window, &m), catalog.revisit_cloud_layer(&m))
            });
            layer.apply(&scene.rgb)
        });
        let tiles = spans.span("stream.stage.tile", scene_id, || {
            let mut out = Vec::new();
            for (yi, &y0) in tile_anchors(rgb.height(), TILE).iter().enumerate() {
                for (xi, &x0) in tile_anchors(rgb.width(), TILE).iter().enumerate() {
                    out.push((yi as u32 * nx + xi as u32, rgb.crop(x0, y0, TILE, TILE)));
                }
            }
            out
        });
        for (tile_index, tile) in tiles {
            let label = spans.span("stream.stage.label", tile_id, || {
                auto_label_class_mask(&tile, &label_cfg, &mut Scratch::new()).into_vec()
            });
            let pred = spans.span("stream.stage.infer", tile_id, || {
                let x = Tensor::from_vec(&[1, 3, TILE, TILE], image_to_chw(&tile));
                model.predict(&x)
            });
            spans.span("stream.stage.changedetect", tile_id, || {
                detector.observe(TileObs {
                    region: m.region.clone(),
                    revisit: m.revisit,
                    day: m.meta.day,
                    tile_index,
                    pred,
                    label,
                })
            });
            tile_id += 1;
        }
    }
    detector.finalize()
}

fn tiles_of(series: &DriftSeries) -> u64 {
    series.points.iter().map(|p| p.tiles).sum()
}

/// Share of drift points the scheduler produced exactly as the walk did.
fn matching_points(got: &DriftSeries, want: &DriftSeries) -> f64 {
    if got.points.len() != want.points.len() || want.points.is_empty() {
        return 0.0;
    }
    let same = got
        .points
        .iter()
        .zip(&want.points)
        .filter(|(a, b)| a == b)
        .count();
    same as f64 / want.points.len() as f64
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        threads_note: "5 stage threads (catalog, tile, label, infer, changedetect) sharing the one pinned CPU; the driving thread waits",
        ..Outcome::default()
    };
    let inputs = repeat_setup(&mut out, || setup(ctx));
    let want = walk(&Spans::disabled(), &inputs);
    let mut first: Option<StreamOutcome> = None;
    let mut drifted = 0u64;
    let mut errors = Vec::new();
    let secs = timed_reps(&mut out, "stream", ctx.seconds, DENSE_LOOPS, |_| {
        let mut got = None;
        let secs = time(|| got = Some(stream(&inputs)));
        match (got.expect("the run ran"), &first) {
            (Ok(o), None) => first = Some(o),
            (Ok(o), Some(f)) => {
                if o.series.to_bytes() != f.series.to_bytes()
                    || o.report.sim_makespan_secs != f.report.sim_makespan_secs
                {
                    drifted += 1;
                }
            }
            (Err(e), _) => errors.push(e),
        }
        secs
    });
    out.tiles_per_s = secs.iter().map(|s| TILES as f64 / s).collect();
    out.attempted = (TILES * (secs.len() + 1)) as u64;
    out.fail_ops(drifted * TILES as u64, || {
        format!("{drifted} runs changed the drift series or the simulated makespan")
    });
    out.fail_ops((errors.len() * TILES) as u64, || {
        format!("run_stream failed: {}", errors.join("; "))
    });
    if let Some(first) = &first {
        let tiles = tiles_of(&first.series);
        out.require(tiles == TILES as u64, || {
            format!("the drift series folds {tiles} tiles, the feed holds {TILES}")
        });
        let share = matching_points(&first.series, &want);
        out.accuracy = share;
        out.require(share == 1.0, || {
            format!("only {share:.3} of the drift points match the sequential walk")
        });
        out.exact.insert("tiles", tiles as f64);
        out.exact
            .insert("sim_makespan_s", first.report.sim_makespan_secs);
        out.exact.insert("accuracy", out.accuracy);
    }
    out
}

pub fn trace(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let spans = &ctx.spans;
    let inputs = setup(ctx);
    let budget = ctx.seconds / 4.0;

    // Untraced reference runs, before the scheduler can see a tracer.
    let mut plain_secs = Vec::new();
    let t = Instant::now();
    while plain_secs.is_empty() || t.elapsed().as_secs_f64() < budget {
        plain_secs.push(time(|| drop(stream(&inputs))));
    }
    let plain_s = plain_secs.iter().sum::<f64>() / plain_secs.len() as f64;

    spans.enable_obs();
    let mut traced_secs = Vec::new();
    let mut last = None;
    let t = Instant::now();
    while traced_secs.is_empty() || t.elapsed().as_secs_f64() < budget {
        let id = traced_secs.len() as u64;
        traced_secs.push(time(|| {
            last = Some(spans.span("core.run_stream", id, || stream(&inputs)))
        }));
    }
    let traced_s = traced_secs.iter().sum::<f64>() / traced_secs.len() as f64;

    // The stage bodies standalone, as often as the budget allows.
    let mut walks = 0usize;
    let mut want = None;
    let t = Instant::now();
    while walks == 0 || t.elapsed().as_secs_f64() < budget {
        want = Some(walk(spans, &inputs));
        walks += 1;
    }
    let want = want.expect("at least one walk");
    out.attempted = (TILES * (traced_secs.len() + walks)) as u64;
    match last.expect("at least one traced run") {
        Ok(got) => {
            let share = matching_points(&got.series, &want);
            out.fail_ops(if share == 1.0 { 0 } else { TILES as u64 }, || {
                format!("only {share:.3} of the drift points match the sequential walk")
            });
            let report = &got.report;
            let waits: u64 = report.stages.iter().map(|s| s.backpressure_waits).sum();
            let high = report
                .stages
                .iter()
                .map(|s| s.queue_high_water)
                .max()
                .unwrap_or(0);
            for (name, v) in [
                ("stream.tiles", tiles_of(&got.series) as f64),
                ("stream.retries", report.total_retries() as f64),
                ("stream.sim_makespan_s", report.sim_makespan_secs),
            ] {
                out.layer(name, v);
                out.exact.insert(name, v);
            }
            // Scheduling-dependent, so not exact.
            out.layer("stream.backpressure_waits", waits as f64);
            out.layer("stream.queue_high_water", high as f64);
        }
        Err(e) => out.fail_ops(TILES as u64, || format!("run_stream failed: {e}")),
    }

    // One item at a time through a bare stage queue.
    let queue = StageQueue::new(inputs.cfg.channel_capacity);
    let mut lost = 0u64;
    spans.span("stream.queue.send_recv", 0, || {
        for i in 0..QUEUE_ITEMS {
            queue.send(i);
            match queue.recv(0) {
                Recv::Item(env) if env.item == i => queue.complete(),
                _ => lost += 1,
            }
        }
    });
    out.attempted += QUEUE_ITEMS;
    out.fail_ops(lost, || {
        format!("{lost} items did not come back out of the stage queue")
    });

    let rows = spans.rollup();
    let scenes = (SCENES * walks) as f64;
    let tiles = (TILES * walks) as f64;
    out.layer(
        "s2.catalog.ms_per_scene",
        self_ms(&rows, "s2.catalog") / scenes,
    );
    out.layer(
        "stream.stage.catalog.ms_per_scene",
        total_ms(&rows, "stream.stage.catalog") / scenes,
    );
    out.layer(
        "stream.stage.tile.ms_per_scene",
        total_ms(&rows, "stream.stage.tile") / scenes,
    );
    out.layer(
        "stream.stage.label.ms_per_tile",
        total_ms(&rows, "stream.stage.label") / tiles,
    );
    out.layer(
        "stream.stage.infer.ms_per_tile",
        total_ms(&rows, "stream.stage.infer") / tiles,
    );
    out.layer(
        "stream.stage.changedetect.us_per_tile",
        total_ms(&rows, "stream.stage.changedetect") * 1e3 / tiles,
    );
    let compute_s: f64 = [
        "stream.stage.catalog",
        "stream.stage.tile",
        "stream.stage.label",
        "stream.stage.infer",
        "stream.stage.changedetect",
    ]
    .iter()
    .map(|n| total_ms(&rows, n))
    .sum::<f64>()
        / 1e3
        / walks as f64;
    out.layer("stream.compute_s", compute_s);
    out.layer(
        "stream.parallel_efficiency",
        compute_s / (plain_s * nproc().min(2) as f64),
    );
    out.layer(
        "stream.queue.send_recv_us",
        total_ms(&rows, "stream.queue.send_recv") * 1e3 / QUEUE_ITEMS as f64,
    );
    out.layer("obs.trace_overhead_share", traced_s / plain_s - 1.0);
    out
}
