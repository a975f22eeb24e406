//! `label_cloudy`: the paper's headline stage at the paper's tile size.
//!
//! 32 cloudy 256² tiles are auto-labelled one after another with the
//! cloud/shadow filter on; a rep labels the next 8 of them, round and round
//! (short reps: see README.md, "Noise"). `nn` is never entered, so work on
//! the filter or `imgproc` shows here and kernel work does not. The
//! "sequential" labeller still fans each image operation out over the
//! `rayon` shim's scoped threads, one per core.

use crate::gen::{agreement, cloudy_scene, concat, derive, Acquisition};
use crate::harness::{repeat_setup, time, timed_reps, Ctx, Outcome, DENSE_LOOPS};
use crate::noise::nproc;
use crate::spans::{self_ms, total_ms};
use seaice_imgproc::buffer::{Image, Scratch};
use seaice_imgproc::color::{rgb_to_gray, rgb_to_hsv};
use seaice_imgproc::filter::{box_blur_f32, median_filter};
use seaice_imgproc::ops::min_max_normalize;
use seaice_imgproc::threshold::otsu_binary;
use seaice_label::autolabel::{auto_label_batch_pool, auto_label_scratch, AutoLabelConfig};
use seaice_label::cloudshadow::CloudShadowFilter;
use seaice_label::fused::segment_classes_fused;
use seaice_label::parallel::WorkerPool;
use seaice_mapreduce::{ClusterSpec, CostModel, Session};
use std::time::Instant;

const TILES: usize = 32;
const SIDE: usize = 256;

/// Tiles labelled per timed rep.
const GROUP: usize = 8;

/// 0.05 under the lowest accuracy of forty seeds; see README.md, "Accuracy
/// floors".
const ACCURACY_FLOOR: f64 = 0.87;

/// Tasks per dispatch-overhead measurement.
const EMPTY_TASKS: usize = 2000;

/// The paper's per-tile node cost (390 s over 4224 tiles), the fixed task
/// cost behind the simulated reduce seconds of Table II.
const PAPER_TILE_SECS: f64 = 390.0 / 4224.0;

fn setup(ctx: &Ctx) -> Vec<Acquisition> {
    (0..TILES as u64)
        .map(|i| cloudy_scene(SIDE, derive(ctx.seed, i), i, &ctx.spans))
        .collect()
}

/// Labels `tiles` in order; `keep` receives `(index in tiles, class mask)`.
fn label_pass(
    tiles: &[Acquisition],
    cfg: &AutoLabelConfig,
    scratch: &mut Scratch,
    mut keep: impl FnMut(usize, &[u8]),
) {
    for (k, tile) in tiles.iter().enumerate() {
        let out = auto_label_scratch(&tile.rgb, cfg, scratch);
        keep(k, out.class_mask.as_slice());
        // A streaming consumer hands its buffers back, like the batch
        // drivers do.
        scratch.recycle_image(out.class_mask);
        scratch.recycle_image(out.color_label);
        scratch.recycle_image(out.processed);
    }
}

fn accuracy(masks: &[Vec<u8>], tiles: &[Acquisition]) -> f64 {
    agreement(&masks.concat(), &concat(tiles.iter().map(|t| &t.truth)))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        threads_note:
            "1 driving thread; on the one pinned CPU the image ops' rayon-shim loops run inline",
        ..Outcome::default()
    };
    let tiles = repeat_setup(&mut out, || setup(ctx));
    let cfg = AutoLabelConfig::filtered_for_tile(SIDE);
    let mut scratch = Scratch::new();
    let mut reference: Vec<Vec<u8>> = Vec::with_capacity(TILES);
    label_pass(&tiles, &cfg, &mut scratch, |_, mask| {
        reference.push(mask.to_vec())
    });
    let mut mismatched = 0u64;
    let secs = timed_reps(&mut out, "label", ctx.seconds, DENSE_LOOPS, |rep| {
        let first = rep * GROUP % TILES;
        time(|| {
            label_pass(
                &tiles[first..first + GROUP],
                &cfg,
                &mut scratch,
                |k, mask| {
                    if mask != reference[first + k] {
                        mismatched += 1;
                    }
                },
            )
        })
    });
    out.tiles_per_s = secs.iter().map(|s| GROUP as f64 / s).collect();
    out.accuracy = accuracy(&reference, &tiles);
    out.attempted = (TILES + GROUP * (secs.len() + 1)) as u64;
    out.fail_ops(mismatched, || {
        format!("{mismatched} tiles changed their mask between reps")
    });
    out.require_floor("label accuracy", out.accuracy, ACCURACY_FLOOR);
    out.exact.insert("tiles", TILES as f64);
    out.exact.insert("accuracy", out.accuracy);
    out
}

pub fn trace(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let spans = &ctx.spans;
    let tiles = setup(ctx);
    let cfg = AutoLabelConfig::filtered_for_tile(SIDE);
    let filter_cfg = cfg.filter.expect("filtered_for_tile sets a filter");
    let filter = CloudShadowFilter::new(filter_cfg);
    let mut scratch = Scratch::new();

    // Untraced reference: the plain loop, for the tracing overhead.
    let mut reference: Vec<Vec<u8>> = Vec::with_capacity(TILES);
    label_pass(&tiles, &cfg, &mut scratch, |_, m| {
        reference.push(m.to_vec())
    });
    let t = Instant::now();
    let mut plain_tiles = 0usize;
    while t.elapsed().as_secs_f64() < ctx.seconds / 4.0 {
        label_pass(&tiles, &cfg, &mut scratch, |_, _| {});
        plain_tiles += TILES;
    }
    let plain_ms_per_tile = t.elapsed().as_secs_f64() * 1e3 / plain_tiles as f64;

    // The walk: the undecomposed call, then its two halves, then the
    // filter's building blocks, one span each, per tile.
    let t = Instant::now();
    let mut walked = 0usize;
    let mut split_mismatch = 0u64;
    while walked < TILES || t.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        let k = walked % TILES;
        let id = k as u64;
        let rgb = &tiles[k].rgb;
        spans.span("label_cloudy.tile", id, || {
            let whole = spans.span("label.auto_label", id, || {
                auto_label_scratch(rgb, &cfg, &mut scratch)
            });
            let filtered = spans.span("label.filter", id, || filter.apply(rgb).filtered);
            let mask = spans.span("label.segment", id, || {
                segment_classes_fused(&filtered, &cfg.ranges)
            });
            if mask != whole.class_mask || whole.class_mask.as_slice() != reference[k] {
                split_mismatch += 1;
            }
            let denoised = spans.span("imgproc.median", id, || {
                median_filter(rgb, filter_cfg.denoise_radius)
            });
            spans.span("imgproc.rgb_to_hsv", id, || rgb_to_hsv(&denoised));
            let plane = denoised.extract_channel(0).to_f32();
            spans.span("imgproc.box_blur_f32", id, || {
                box_blur_f32(&plane, filter_cfg.smooth_radius)
            });
            let gray = rgb_to_gray(rgb);
            spans.span("imgproc.min_max_normalize", id, || {
                min_max_normalize(&gray, 0, 255)
            });
            spans.span("imgproc.otsu", id, || otsu_binary(&gray, 255));
        });
        walked += 1;
    }
    out.attempted = walked as u64;
    out.fail_ops(split_mismatch, || {
        format!(
            "filter -> fused segment disagrees with auto_label_scratch on {split_mismatch} tiles"
        )
    });

    // The two batch substrates under the labeller, on every core.
    let images: Vec<Image<u8>> = tiles.iter().map(|t| t.rgb.clone()).collect();
    let pool = WorkerPool::new(nproc());
    let pooled = {
        let batch = images.clone();
        spans.span("label.pool", 0, || auto_label_batch_pool(&pool, batch, cfg))
    };
    spans.span("label.pool.dispatch", 0, || {
        pool.map(vec![(); EMPTY_TASKS], |()| ())
    });
    let spec = ClusterSpec::new(1, nproc()).expect("nproc is positive");
    let session = Session::new(spec, CostModel::gcd_n2());
    let collected = {
        let (df, _) = session.read(images.clone(), (3 * SIDE * SIDE) as f64);
        spans.span("mapreduce.collect", 0, || {
            let (lazy, _) = df.map(&session, move |img: Image<u8>| {
                auto_label_scratch(&img, &cfg, &mut Scratch::new())
                    .class_mask
                    .into_vec()
            });
            lazy.collect(&session, (SIDE * SIDE) as f64).0
        })
    };
    {
        let (df, _) = session.read(vec![(); EMPTY_TASKS], 0.0);
        spans.span("mapreduce.dispatch", 0, || {
            let (lazy, _) = df.map(&session, |()| ());
            lazy.collect(&session, 0.0).0
        });
    }
    let substrate_mismatch = (0..TILES)
        .filter(|&k| {
            pooled[k].class_mask.as_slice() != reference[k] || collected[k] != reference[k]
        })
        .count() as u64;
    out.attempted += 2 * TILES as u64;
    out.fail_ops(substrate_mismatch, || {
        format!("pool or map-reduce masks differ from the sequential ones on {substrate_mismatch} tiles")
    });

    let rows = spans.rollup();
    let per_tile = |name: &str| self_ms(&rows, name) / walked as f64;
    out.layer(
        "s2.synth.ms_per_tile",
        self_ms(&rows, "s2.synth") / TILES as f64,
    );
    out.layer(
        "s2.clouds.ms_per_tile",
        self_ms(&rows, "s2.clouds") / TILES as f64,
    );
    out.layer("label.auto_label.ms_per_tile", per_tile("label.auto_label"));
    out.layer("label.filter.ms_per_tile", per_tile("label.filter"));
    out.layer("label.segment.ms_per_tile", per_tile("label.segment"));
    out.layer(
        "label.filter.share",
        self_ms(&rows, "label.filter") / self_ms(&rows, "label.auto_label"),
    );
    out.layer("imgproc.median.ms_per_tile", per_tile("imgproc.median"));
    out.layer(
        "imgproc.box_blur_f32.ms_per_tile",
        per_tile("imgproc.box_blur_f32"),
    );
    out.layer(
        "imgproc.rgb_to_hsv.ms_per_tile",
        per_tile("imgproc.rgb_to_hsv"),
    );
    out.layer("imgproc.otsu.ms_per_tile", per_tile("imgproc.otsu"));
    out.layer(
        "imgproc.min_max_normalize.ms_per_tile",
        per_tile("imgproc.min_max_normalize"),
    );
    out.layer(
        "label.pool.tiles_per_s",
        TILES as f64 / (total_ms(&rows, "label.pool") / 1e3),
    );
    out.layer(
        "label.pool.dispatch_us",
        total_ms(&rows, "label.pool.dispatch") * 1e3 / EMPTY_TASKS as f64,
    );
    out.layer(
        "mapreduce.collect.tiles_per_s",
        TILES as f64 / (total_ms(&rows, "mapreduce.collect") / 1e3),
    );
    out.layer(
        "mapreduce.dispatch_us",
        total_ms(&rows, "mapreduce.dispatch") * 1e3 / EMPTY_TASKS as f64,
    );
    // Simulated reduce seconds of Table II's corner rows for this batch,
    // under the paper's fixed per-tile cost: pure arithmetic, exact.
    let paper = CostModel {
        fixed_task_cost_secs: Some(PAPER_TILE_SECS),
        ..CostModel::gcd_n2()
    };
    let costs = vec![0.0; TILES];
    let result_bytes = (TILES * SIDE * SIDE) as f64;
    for (name, e, c) in [
        ("mapreduce.sim_reduce_s_1x1", 1, 1),
        ("mapreduce.sim_reduce_s_4x4", 4, 4),
    ] {
        let spec = ClusterSpec::new(e, c).expect("grid specs are positive");
        let secs = paper.reduce_time(&spec, &costs, result_bytes);
        out.layer(name, secs);
        out.exact.insert(name, secs);
    }
    out.layer(
        "obs.trace_overhead_share",
        per_tile("label.auto_label") / plain_ms_per_tile - 1.0,
    );
    out.exact.insert("tiles", TILES as f64);
    out
}
