//! The benchmark's declared surface: workloads, end-to-end metrics and
//! per-layer metrics. `../BENCHMARK.json` is generated from these tables
//! (`seaice-benchmark manifest`) and a unit test keeps the two equal, so a
//! metric exists under exactly one name, unit and direction.

use crate::json::J;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 13;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "label_cloudy",
        why: "Auto-labelling of cloudy 256x256 tiles: the cloud/shadow filter and imgproc own ~95% of the time and nn is never touched.",
    },
    Workload {
        name: "scene_infer",
        why: "Fig. 9 scene -> mask on the f32 U-Net (tile 64, filter on): conv forward is ~80% of the time, so kernel work shows here and not in label_cloudy.",
    },
    Workload {
        name: "scene_infer_int8",
        why: "The same scenes through the int8 twin of the same model: quantised kernels move this and leave scene_infer alone.",
    },
    Workload {
        name: "train_auto",
        why: "U-Net training on auto-labels: the backward GEMMs, col2im, batch 8 and Adam; the filter is set-up only, so filter work must not move it.",
    },
    Workload {
        name: "serve_tiles",
        why: "Cold pass through the serve engine with a tiny model (all cache misses): hash, queue, micro-batch, forward and cache insert; closed loop, 1 client.",
    },
    Workload {
        name: "serve_tiles_warm",
        why: "Warm passes over the same tiles (all cache hits): hash and cache read only, bypassing queue and forward; a cache change that costs reads shows here.",
    },
    Workload {
        name: "stream_revisit",
        why: "The streaming DAG over a revisit feed: label and infer as concurrent stages behind bounded queues, with catalog synthesis inside the timed region.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "tiles_per_s",
        unit: "tiles/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "accuracy",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics; the prefix is the crate that owns the time. A traced
/// run reports every one of them, 0 for a layer its workload never enters.
pub const PER_LAYER: [Layer; 100] = [
    // s2: scene synthesis, cloud layers, the revisit catalog.
    lo("s2.synth.ms_per_tile", "ms"),
    lo("s2.clouds.ms_per_tile", "ms"),
    lo("s2.catalog.ms_per_scene", "ms"),
    // label: the auto-labeller and its two halves.
    lo("label.auto_label.ms_per_tile", "ms"),
    lo("label.filter.ms_per_tile", "ms"),
    lo("label.segment.ms_per_tile", "ms"),
    lo("label.filter.share", "ratio"),
    // imgproc: the filter's building blocks at the workload's tile shape.
    lo("imgproc.median.ms_per_tile", "ms"),
    lo("imgproc.box_blur_f32.ms_per_tile", "ms"),
    lo("imgproc.rgb_to_hsv.ms_per_tile", "ms"),
    lo("imgproc.otsu.ms_per_tile", "ms"),
    lo("imgproc.min_max_normalize.ms_per_tile", "ms"),
    // The two batch substrates under the labeller.
    hi("label.pool.tiles_per_s", "tiles/s"),
    lo("label.pool.dispatch_us", "us"),
    hi("mapreduce.collect.tiles_per_s", "tiles/s"),
    lo("mapreduce.dispatch_us", "us"),
    lo("mapreduce.sim_reduce_s_1x1", "s"),
    lo("mapreduce.sim_reduce_s_4x4", "s"),
    // The Fig. 9 anchor loop, call by call.
    lo("s2.tiler.crop.us_per_tile", "us"),
    lo("core.image_to_chw.us_per_tile", "us"),
    lo("unet.predict_f32.ms_per_tile", "ms"),
    lo("unet.predict_int8.ms_per_tile", "ms"),
    lo("s2.tiler.stitch.ms_per_scene", "ms"),
    lo("core.render.ms_per_scene", "ms"),
    lo("core.classify_scene.unattributed_share", "ratio"),
    hi("unet.int8_agreement", "ratio"),
    // nn forward ops at the model's conv shapes; the last five are exact.
    lo("nn.im2col.ms_per_tile", "ms"),
    lo("nn.matmul.ms_per_tile", "ms"),
    lo("nn.conv2d.ms_per_tile", "ms"),
    lo("nn.conv_epilogue.ms_per_tile", "ms"),
    lo("nn.pool_up_concat_relu.ms_per_tile", "ms"),
    lo("nn.quantize.ms_per_tile", "ms"),
    lo("nn.im2col_i8.ms_per_tile", "ms"),
    lo("nn.gemm_i8.ms_per_tile", "ms"),
    lo("nn.qconv2d.ms_per_tile", "ms"),
    hi("nn.matmul.gmacs_per_s", "GMAC/s"),
    hi("nn.gemm_i8.gmacs_per_s", "GMAC/s"),
    lo("nn.forward_macs_per_tile", "count"),
    lo("nn.im2col_bytes_per_tile", "bytes"),
    lo("unet.params", "count"),
    // Checkpoint and restore: where the JSON stack is paid for.
    lo("unet.checkpoint.save_ms", "ms"),
    lo("unet.checkpoint.load_ms", "ms"),
    lo("unet.checkpoint.bytes", "bytes"),
    lo("unet.restore_f32.ms", "ms"),
    lo("unet.quantize.ms", "ms"),
    // The training step, re-walked from the public API.
    lo("nn.dataloader.epoch_ms", "ms"),
    lo("unet.forward_train.ms_per_step", "ms"),
    lo("nn.loss.ms_per_step", "ms"),
    lo("unet.backward.ms_per_step", "ms"),
    lo("nn.adam.ms_per_step", "ms"),
    lo("unet.train.unattributed_share", "ratio"),
    lo("nn.conv2d_backward.ms_per_step", "ms"),
    lo("nn.matmul_at_b.ms_per_step", "ms"),
    lo("nn.matmul_a_bt.ms_per_step", "ms"),
    lo("nn.col2im.ms_per_step", "ms"),
    lo("nn.backward_macs_per_step", "count"),
    hi("train.steps", "count"),
    hi("train.images", "count"),
    // The Horovod substitute: counts exact, wall informational.
    hi("distrib.train2.imgs_per_s", "imgs/s"),
    lo("distrib.allreduce.calls", "count"),
    lo("distrib.allreduce.bytes", "bytes"),
    lo("distrib.allreduce.ms_per_call", "ms"),
    lo("distrib.equiv_max_abs_diff", "abs"),
    // serve: the engine's parts, then its own counters.
    lo("serve.tile_key.us", "us"),
    lo("serve.cache.get_us", "us"),
    lo("serve.cache.insert_us", "us"),
    lo("serve.queue.push_pop_us", "us"),
    lo("serve.submit_wait.hit_us", "us"),
    lo("serve.submit_wait.miss_us", "us"),
    lo("serve.engine_overhead.us_per_tile", "us"),
    lo("serve.engine_new.ms", "ms"),
    lo("serve.batches", "count"),
    hi("serve.mean_batch_size", "count"),
    hi("serve.cache_hits", "count"),
    lo("serve.cache_misses", "count"),
    lo("serve.cache_evictions", "count"),
    lo("serve.shed", "count"),
    // Open loop and HTTP front door: informational (tails do not repeat
    // on a shared host).
    hi("serve.open.rate_tiles_per_s", "tiles/s"),
    lo("serve.open.p50_ms", "ms"),
    lo("serve.open.p99_ms", "ms"),
    lo("serve.open.shed_share", "ratio"),
    lo("serve.open.late_p99_ms", "ms"),
    lo("serve.http.req_us_p50", "us"),
    lo("serve.http.req_us_p99", "us"),
    lo("serve.http.failed", "count"),
    // stream: each stage body standalone, then the scheduler's report.
    lo("stream.stage.catalog.ms_per_scene", "ms"),
    lo("stream.stage.tile.ms_per_scene", "ms"),
    lo("stream.stage.label.ms_per_tile", "ms"),
    lo("stream.stage.infer.ms_per_tile", "ms"),
    lo("stream.stage.changedetect.us_per_tile", "us"),
    lo("stream.compute_s", "s"),
    hi("stream.parallel_efficiency", "ratio"),
    lo("stream.queue.send_recv_us", "us"),
    hi("stream.tiles", "count"),
    lo("stream.backpressure_waits", "count"),
    lo("stream.queue_high_water", "count"),
    lo("stream.retries", "count"),
    lo("stream.sim_makespan_s", "s"),
    // What the spans themselves cost.
    lo("obs.trace_overhead_share", "ratio"),
    lo("obs.spans", "count"),
];

/// The program and arguments the driver runs, from the repository root.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let strs = |items: &[&str]| J::Arr(items.iter().map(|s| J::str(*s)).collect());
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": {},\n", strs(&COMMAND).render()));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let block = |key: &str, rows: Vec<J>, last: bool| {
        let body: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
        format!(
            "  \"{key}\": [\n{}\n  ]{}\n",
            body.join(",\n"),
            if last { "" } else { "," }
        )
    };
    out.push_str(&block(
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| J::obj([("name", J::str(w.name)), ("why", J::str(w.why))]))
            .collect(),
        false,
    ));
    out.push_str(&block(
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                J::obj([
                    ("name", J::str(m.name)),
                    ("unit", J::str(m.unit)),
                    ("better", J::str(m.better.as_str())),
                    ("bound", J::Num(m.bound)),
                ])
            })
            .collect(),
        false,
    ));
    out.push_str(&block(
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                J::obj([
                    ("name", J::str(m.name)),
                    ("unit", J::str(m.unit)),
                    ("better", J::str(m.better.as_str())),
                ])
            })
            .collect(),
        true,
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `seaice-benchmark manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        let doc = seaice_obs::json::parse(&on_disk).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
