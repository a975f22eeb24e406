//! `scene_infer` and `scene_infer_int8`: Fig. 9, scene → mask.
//!
//! Eight cloudy 256² scenes (the pixels of two 512² ones, in reps a quarter
//! as long: see README.md, "Noise") go through `core::classify_scene_with`
//! (tile 64, filter on), one scene per rep, on one
//! `UNetConfig::cpu_small()` model restored either as the f32 network or as
//! its int8 twin. The U-Net
//! forward is ~80 % of a scene and the filter ~18 %, so kernel work shows
//! here; the two workloads share everything but the backend, so a change to
//! the quantised kernels moves one and must leave the other alone.
//!
//! The model is trained in set-up on auto-labelled 16² tiles (smaller than
//! the 32² the issue sketched: set-up runs three times per run and has to
//! fit the contract's time cap; 96 optimiser steps of 8 tiles reach the
//! accuracy the labels allow at either size).

use super::nnops;
use crate::gen::{agreement, cloudy_scene, concat, derive, Acquisition};
use crate::harness::{repeat_setup, time, timed_reps, Ctx, Outcome, DENSE_LOOPS};
use crate::shapes;
use crate::spans::{self_ms, Spans};
use crate::stats::median;
use seaice_core::adapters::{image_to_chw, image_to_chw_into, mask_to_image};
use seaice_core::{classify_scene_with, default_calibration, restore_backend, LoadedModel};
use seaice_imgproc::buffer::{Image, Scratch};
use seaice_label::autolabel::{auto_label_class_mask, AutoLabelConfig};
use seaice_label::cloudshadow::{CloudShadowFilter, FilterConfig};
use seaice_nn::dataloader::{DataLoader, Sample};
use seaice_nn::Tensor;
use seaice_s2::synth::class_fractions;
use seaice_s2::tiler::{stitch_tiles, tile_anchors};
use seaice_unet::checkpoint::{self, Checkpoint};
use seaice_unet::{InferBackend, TileClassifier, TrainConfig, UNet, UNetConfig};
use std::time::Instant;

const SCENES: usize = 8;
const SCENE_SIDE: usize = 256;
const TILE: usize = 64;
const TILES_PER_SCENE: usize = (SCENE_SIDE / TILE) * (SCENE_SIDE / TILE);

const TRAIN_SCENES: u64 = 8;
const TRAIN_SCENE_SIDE: usize = 64;
const TRAIN_TILE: usize = 16;
const TRAIN_BATCH: usize = 8;
const TRAIN_EPOCHS: usize = 6;
const LEARNING_RATE: f32 = 5e-3;

/// 0.05 under the lowest values of some sixty seeds; see README.md,
/// "Accuracy floors".
const ACCURACY_FLOOR: f64 = 0.80;
const INT8_AGREEMENT_FLOOR: f64 = 0.94;

/// The walk must account for the undecomposed call to within this share,
/// or it is missing a call.
const MAX_UNATTRIBUTED: f64 = 0.10;

fn backend_name(backend: InferBackend) -> &'static str {
    match backend {
        InferBackend::F32 => "unet.predict_f32",
        InferBackend::Int8 => "unet.predict_int8",
    }
}

/// Trains the scene model on auto-labelled, filtered tiles, exactly the
/// data path `core::train_models` uses, from seeded scenes.
fn train_model(seed: u64, spans: &Spans) -> Checkpoint {
    let label_cfg = AutoLabelConfig::filtered_for_tile(TRAIN_TILE);
    let filter = CloudShadowFilter::new(FilterConfig::for_tile(TRAIN_TILE));
    let mut scratch = Scratch::new();
    let mut samples = Vec::new();
    for s in 0..TRAIN_SCENES {
        let scene = cloudy_scene(TRAIN_SCENE_SIDE, derive(seed, 0x100 + s), s, spans);
        for &y0 in &tile_anchors(TRAIN_SCENE_SIDE, TRAIN_TILE) {
            for &x0 in &tile_anchors(TRAIN_SCENE_SIDE, TRAIN_TILE) {
                let rgb = scene.rgb.crop(x0, y0, TRAIN_TILE, TRAIN_TILE);
                let mask = auto_label_class_mask(&rgb, &label_cfg, &mut scratch);
                samples.push(Sample {
                    image: image_to_chw(&filter.apply(&rgb).filtered),
                    mask: mask.into_vec(),
                    channels: 3,
                    height: TRAIN_TILE,
                    width: TRAIN_TILE,
                });
            }
        }
    }
    let loader = DataLoader::new(samples, TRAIN_BATCH, Some(derive(seed, 0x200)));
    let train_cfg = TrainConfig {
        epochs: TRAIN_EPOCHS,
        learning_rate: LEARNING_RATE,
        log_every: 0,
    };
    let (mut model, _) = super::train_converged(
        UNetConfig {
            dropout: 0.0,
            seed: derive(seed, 0x201),
            ..UNetConfig::cpu_small()
        },
        |model| {
            let report = seaice_unet::train(model, &loader, &train_cfg);
            report.epoch_losses[TRAIN_EPOCHS - 1]
        },
    );
    checkpoint::snapshot(&mut model)
}

struct Inputs {
    ckpt: Checkpoint,
    model: LoadedModel,
    scenes: Vec<Acquisition>,
}

fn setup(ctx: &Ctx, backend: InferBackend) -> Inputs {
    let ckpt = train_model(ctx.seed, &ctx.spans);
    let model = restore_backend(&ckpt, backend, TILE).expect("a checkpoint we just took restores");
    let scenes = (0..SCENES as u64)
        .map(|i| cloudy_scene(SCENE_SIDE, derive(ctx.seed, 0x300 + i), 100 + i, &ctx.spans))
        .collect();
    Inputs {
        ckpt,
        model,
        scenes,
    }
}

fn scene_accuracy(masks: &[Image<u8>], scenes: &[Acquisition]) -> f64 {
    agreement(&concat(masks), &concat(scenes.iter().map(|s| &s.truth)))
}

pub fn run(ctx: &Ctx, backend: InferBackend) -> Outcome {
    let mut out = Outcome {
        threads_note: "1 driving thread; on the one pinned CPU the filter's and the matmuls' rayon-shim loops run inline",
        ..Outcome::default()
    };
    let Inputs {
        mut model, scenes, ..
    } = repeat_setup(&mut out, || setup(ctx, backend));
    let reference: Vec<Image<u8>> = scenes
        .iter()
        .map(|s| classify_scene_with(&mut model, &s.rgb, TILE, true).mask)
        .collect();
    let mut mismatched = 0u64;
    let secs = timed_reps(&mut out, "scene", ctx.seconds, DENSE_LOOPS, |rep| {
        let k = rep % SCENES;
        let mut got = None;
        let secs = time(|| got = Some(classify_scene_with(&mut model, &scenes[k].rgb, TILE, true)));
        if got.is_none_or(|g| g.mask != reference[k]) {
            mismatched += 1;
        }
        secs
    });
    out.tiles_per_s = secs.iter().map(|s| TILES_PER_SCENE as f64 / s).collect();
    out.accuracy = scene_accuracy(&reference, &scenes);
    out.attempted = (TILES_PER_SCENE * (secs.len() + 1 + SCENES)) as u64;
    out.fail_ops(mismatched * TILES_PER_SCENE as u64, || {
        format!("{mismatched} scene masks changed between reps")
    });
    out.require_floor("scene accuracy", out.accuracy, ACCURACY_FLOOR);
    out.exact.insert("tiles_per_scene", TILES_PER_SCENE as f64);
    out.exact.insert("accuracy", out.accuracy);
    out
}

/// The Fig. 9 anchor loop re-walked from public functions, one span per
/// call into a layer; returns the stitched mask.
fn walk_scene(spans: &Spans, model: &mut LoadedModel, rgb: &Image<u8>, id: u64) -> Image<u8> {
    let predict = backend_name(model.backend());
    spans.span("core.classify_scene", id, || {
        let (w, h) = rgb.dimensions();
        let filter = CloudShadowFilter::new(FilterConfig::for_tile(TILE));
        let mut chw = vec![0f32; 3 * TILE * TILE];
        let mut preds = Vec::new();
        let mut pieces = Vec::new();
        let mut tile_id = id * TILES_PER_SCENE as u64;
        for &y0 in &tile_anchors(h, TILE) {
            for &x0 in &tile_anchors(w, TILE) {
                let tile = spans.span("s2.tiler.crop", tile_id, || rgb.crop(x0, y0, TILE, TILE));
                let input = spans.span("label.filter", tile_id, || filter.apply(&tile).filtered);
                let x = spans.span("core.image_to_chw", tile_id, || {
                    image_to_chw_into(&input, &mut chw);
                    Tensor::from_vec(&[1, 3, TILE, TILE], std::mem::take(&mut chw))
                });
                spans.span(predict, tile_id, || model.predict_into(&x, &mut preds));
                chw = x.into_vec();
                pieces.push((x0, y0, Image::from_vec(TILE, TILE, 1, preds.clone())));
                tile_id += 1;
            }
        }
        let mask = spans.span("s2.tiler.stitch", id, || stitch_tiles(&pieces, w, h, 1));
        spans.span("core.render", id, || {
            (mask_to_image(&mask), class_fractions(&mask))
        });
        mask
    })
}

pub fn trace(ctx: &Ctx, backend: InferBackend) -> Outcome {
    let mut out = Outcome::default();
    let spans = &ctx.spans;
    let Inputs {
        ckpt,
        mut model,
        scenes,
    } = setup(ctx, backend);

    // The undecomposed call and the walk take turns, scene by scene, so a
    // slow stretch of the host weighs on both; each round gives one ratio
    // and the medians are reported. The walk's mask must be the library's.
    let reference: Vec<Image<u8>> = scenes
        .iter()
        .map(|s| classify_scene_with(&mut model, &s.rgb, TILE, true).mask)
        .collect();
    let layer_spans = [
        "s2.tiler.crop",
        "label.filter",
        "core.image_to_chw",
        backend_name(backend),
        "s2.tiler.stitch",
        "core.render",
    ];
    let t = Instant::now();
    let mut walked = 0usize;
    let mut walk_mismatch = 0u64;
    let (mut attributed_shares, mut walk_shares) = (Vec::new(), Vec::new());
    while walked < SCENES || t.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        let k = walked % SCENES;
        let plain_s = time(|| {
            std::hint::black_box(classify_scene_with(&mut model, &scenes[k].rgb, TILE, true));
        });
        let mark = spans.count();
        let mut mask = None;
        let walk_s = time(|| mask = Some(walk_scene(spans, &mut model, &scenes[k].rgb, k as u64)));
        if mask.as_ref() != Some(&reference[k]) {
            walk_mismatch += 1;
        }
        attributed_shares.push(spans.self_ms_since(mark, &layer_spans) / 1e3 / plain_s);
        walk_shares.push(walk_s / plain_s);
        walked += 1;
    }
    out.attempted = (walked * TILES_PER_SCENE) as u64;
    out.fail_ops(walk_mismatch * TILES_PER_SCENE as u64, || {
        format!(
            "the decomposed walk's mask differs from classify_scene_with on {walk_mismatch} scenes"
        )
    });

    // nn ops at the model's conv shapes.
    let cfg = ckpt.config;
    let sites = shapes::conv_sites(&cfg, TILE);
    let params = UNet::new(cfg).parameter_count();
    out.require(shapes::total_params(&sites) == params, || {
        format!(
            "derived {} parameters, the model has {params}",
            shapes::total_params(&sites)
        )
    });
    let op_budget = ctx.seconds / 8.0;
    let (f32_passes, int8_passes, glue_passes) =
        match nnops::site_data(&ckpt, &sites, derive(ctx.seed, 0x400)) {
            Ok(data) => match backend {
                InferBackend::F32 => (
                    nnops::forward_f32(spans, &data, 2.0 * op_budget),
                    0,
                    nnops::forward_glue(spans, &cfg, &sites, op_budget),
                ),
                InferBackend::Int8 => (0, nnops::forward_int8(spans, &data, 3.0 * op_budget), 0),
            },
            Err(e) => {
                out.fail(e);
                (0, 0, 0)
            }
        };

    // Checkpoint round trip (f32) or quantise-on-load (int8).
    let path = ctx
        .scratch
        .join(format!("scene-{}.ckpt", std::process::id()));
    let mut bytes = 0u64;
    match backend {
        InferBackend::F32 => {
            let mut fresh = checkpoint::restore(&ckpt);
            let saved = spans.span("unet.checkpoint.save", 0, || {
                checkpoint::save(&mut fresh, &path)
            });
            bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            let loaded = spans.span("unet.checkpoint.load", 0, || checkpoint::load(&path));
            let _ = std::fs::remove_file(&path);
            spans
                .span("unet.restore_f32", 0, || checkpoint::try_restore(&ckpt))
                .ok();
            out.attempted += 2;
            out.require(saved.is_ok() && loaded.is_ok(), || {
                format!(
                    "checkpoint round trip failed: save {:?}, load {:?}",
                    saved.err(),
                    loaded.err().map(|e| e.to_string())
                )
            });
        }
        InferBackend::Int8 => {
            let calib = default_calibration(TILE).expect("tile 64 calibrates");
            let q = spans.span("unet.quantize", 0, || {
                checkpoint::try_restore_quantized(&ckpt, &calib)
            });
            out.attempted += 1;
            out.require(q.is_ok(), || {
                format!("quantise-on-load failed: {:?}", q.err())
            });
        }
    }

    let rows = spans.rollup();
    let predict = backend_name(backend);
    let tiles = (walked * TILES_PER_SCENE) as f64;
    // Per 256² pixels generated, the unit `label_cloudy` reports it in.
    let generated = (TRAIN_SCENES as usize * TRAIN_SCENE_SIDE * TRAIN_SCENE_SIDE
        + SCENES * SCENE_SIDE * SCENE_SIDE) as f64
        / 65_536.0;
    out.layer(
        "s2.synth.ms_per_tile",
        self_ms(&rows, "s2.synth") / generated,
    );
    out.layer(
        "s2.clouds.ms_per_tile",
        self_ms(&rows, "s2.clouds") / generated,
    );
    out.layer(
        "s2.tiler.crop.us_per_tile",
        self_ms(&rows, "s2.tiler.crop") * 1e3 / tiles,
    );
    out.layer(
        "label.filter.ms_per_tile",
        self_ms(&rows, "label.filter") / tiles,
    );
    out.layer(
        "core.image_to_chw.us_per_tile",
        self_ms(&rows, "core.image_to_chw") * 1e3 / tiles,
    );
    out.layer(
        match backend {
            InferBackend::F32 => "unet.predict_f32.ms_per_tile",
            InferBackend::Int8 => "unet.predict_int8.ms_per_tile",
        },
        self_ms(&rows, predict) / tiles,
    );
    out.layer(
        "s2.tiler.stitch.ms_per_scene",
        self_ms(&rows, "s2.tiler.stitch") / walked as f64,
    );
    out.layer(
        "core.render.ms_per_scene",
        self_ms(&rows, "core.render") / walked as f64,
    );
    // Everything the walk attributed to a layer, against what the library
    // call takes when nobody is looking.
    let unattributed = 1.0 - median(&attributed_shares);
    out.layer("core.classify_scene.unattributed_share", unattributed);
    out.require(unattributed.abs() <= MAX_UNATTRIBUTED, || {
        format!("the scene walk leaves {unattributed:.3} of classify_scene_with unattributed")
    });
    out.layer("obs.trace_overhead_share", median(&walk_shares) - 1.0);

    let macs = shapes::forward_macs(&sites) as f64;
    if f32_passes > 0 {
        let per_tile = |n: &str| self_ms(&rows, n) / f32_passes as f64;
        out.layer("nn.im2col.ms_per_tile", per_tile("nn.im2col"));
        out.layer("nn.matmul.ms_per_tile", per_tile("nn.matmul"));
        out.layer("nn.conv2d.ms_per_tile", per_tile("nn.conv2d"));
        out.layer(
            "nn.conv_epilogue.ms_per_tile",
            (per_tile("nn.conv2d") - per_tile("nn.im2col") - per_tile("nn.matmul")).max(0.0),
        );
        out.layer(
            "nn.pool_up_concat_relu.ms_per_tile",
            self_ms(&rows, "nn.pool_up_concat_relu") / glue_passes as f64,
        );
        out.layer(
            "nn.matmul.gmacs_per_s",
            macs / (per_tile("nn.matmul") * 1e6),
        );
        out.layer(
            "unet.checkpoint.save_ms",
            self_ms(&rows, "unet.checkpoint.save"),
        );
        out.layer(
            "unet.checkpoint.load_ms",
            self_ms(&rows, "unet.checkpoint.load"),
        );
        out.layer("unet.checkpoint.bytes", bytes as f64);
        out.layer("unet.restore_f32.ms", self_ms(&rows, "unet.restore_f32"));
        out.exact.insert("unet.checkpoint.bytes", bytes as f64);
    }
    if int8_passes > 0 {
        let per_tile = |n: &str| self_ms(&rows, n) / int8_passes as f64;
        out.layer("nn.quantize.ms_per_tile", per_tile("nn.quantize"));
        out.layer("nn.im2col_i8.ms_per_tile", per_tile("nn.im2col_i8"));
        out.layer("nn.gemm_i8.ms_per_tile", per_tile("nn.gemm_i8"));
        out.layer("nn.qconv2d.ms_per_tile", per_tile("nn.qconv2d"));
        out.layer(
            "nn.gemm_i8.gmacs_per_s",
            macs / (per_tile("nn.gemm_i8") * 1e6),
        );
        out.layer("unet.quantize.ms", self_ms(&rows, "unet.quantize"));
        // The int8 masks against the f32 network's, on the same scenes.
        let mut f32_model =
            restore_backend(&ckpt, InferBackend::F32, TILE).expect("checkpoint restores");
        let f32_masks: Vec<Image<u8>> = scenes
            .iter()
            .map(|s| classify_scene_with(&mut f32_model, &s.rgb, TILE, true).mask)
            .collect();
        let agree = agreement(&concat(&reference), &concat(&f32_masks));
        out.layer("unet.int8_agreement", agree);
        out.exact.insert("unet.int8_agreement", agree);
        out.require_floor("int8 agreement with f32", agree, INT8_AGREEMENT_FLOOR);
    }
    for (name, v) in [
        ("nn.forward_macs_per_tile", macs),
        (
            "nn.im2col_bytes_per_tile",
            shapes::im2col_bytes(&sites) as f64,
        ),
        ("unet.params", params as f64),
    ] {
        out.layer(name, v);
        out.exact.insert(name, v);
    }
    out
}
