//! Subcommand implementations. Each returns a human-readable summary on
//! success; all I/O goes through PPM images and JSON checkpoints.

use crate::args::{ArgError, Parsed};
use seaice_core::adapters::{tile_to_sample, InputVariant, LabelSource};
use seaice_core::analysis::{detect_leads, ice_concentration, LeadConfig};
use seaice_core::inference::tile_grid;
use seaice_core::{classify_scene_parallel, classify_scene_with, restore_backend, WorkflowConfig};
use seaice_imgproc::io::{read_ppm, write_ppm};
use seaice_label::autolabel::{auto_label, AutoLabelConfig};
use seaice_label::calibrate::calibrate;
use seaice_label::cloudshadow::{CloudShadowFilter, FilterConfig};
use seaice_label::ranges::ClassRanges;
use seaice_label::segment::{color_to_classes, segment_to_color};
use seaice_nn::dataloader::DataLoader;
use seaice_s2::clouds::{self, CloudConfig};
use seaice_s2::dataset::Dataset;
use seaice_s2::synth::{generate, SceneConfig};
use seaice_serve::{classify_scene_engine, Engine, EngineConfig, HttpServer};
use seaice_unet::{checkpoint, train, InferBackend, UNet};
use std::sync::Arc;

/// Top-level error type for command execution.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments.
    Args(ArgError),
    /// File or serialization problem.
    Io(std::io::Error),
    /// Anything else (validation, shape mismatches surfaced politely).
    Msg(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Msg(m) => write!(f, "{m}"),
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Usage text.
pub const USAGE: &str = "usage: seaice <synth|filter|label|calibrate|train|classify|analyze|serve|stream> [options]
  synth       --out scene.ppm [--truth truth.ppm] [--side 512] [--seed 7] [--clouds 0.3] [--illumination 1.0]
  filter      --in scene.ppm --out filtered.ppm
  label       --in scene.ppm --out labels.ppm [--no-filter] [--cuts WATER_HI,THICK_LO]
  calibrate   --image scene.ppm --labels labels.ppm
  train       --model model.json [--scenes 6] [--scene-size 256] [--tile 32] [--epochs 12] [--labels auto|manual] [--seed 2019] [--trace FILE]
  classify    --model model.json --in scene.ppm --out pred.ppm [--tile 32] [--backend f32|int8] [--no-filter] [--parallel | --engine [--workers N] [--batch 8]] [--trace FILE]
  analyze     --labels labels.ppm
  serve       --model model.json [--addr 127.0.0.1:8080] [--tile 32] [--backend f32|int8] [--workers N] [--batch 8] [--queue 256] [--cache 1024] [--no-filter] [--smoke]
  stream      [--regions N] [--revisits N] [--cadence DAYS] [--scene-size N] [--tile N] [--drift PX] [--seed N] [--workers N] [--epochs N] [--trace FILE]
  lint        [--root DIR] [--json]";

/// Dispatches a parsed command.
pub fn run(mut p: Parsed) -> Result<String, CliError> {
    match p.command.as_str() {
        "synth" => synth(&mut p),
        "filter" => filter(&mut p),
        "label" => label(&mut p),
        "calibrate" => run_calibrate(&mut p),
        // seaice-lint: allow(transitive-wallclock) reason="dispatch reaches the wall clock only through traced(), whose spans are diagnostic-only"
        "train" => traced(&mut p, run_train),
        "classify" => traced(&mut p, classify),
        "analyze" => analyze(&mut p),
        "serve" => serve(&mut p),
        "stream" => traced(&mut p, stream),
        "lint" => lint(&mut p),
        other => Err(CliError::Msg(format!("unknown command '{other}'\n{USAGE}"))),
    }
}

/// Wraps a subcommand with `--trace FILE` support: span recording is
/// switched on before the command runs and the collected spans are
/// exported as Chrome `trace_event` JSON afterwards. Recording is
/// process-global and stays on once enabled, which is fine for a
/// one-command CLI process.
fn traced(
    p: &mut Parsed,
    f: fn(&mut Parsed) -> Result<String, CliError>,
) -> Result<String, CliError> {
    let trace_path = p.optional("trace");
    if trace_path.is_some() {
        // seaice-lint: allow(transitive-wallclock) reason="trace export is a diagnostic artifact; span timestamps are real time by design and never feed command output"
        seaice_obs::trace::enable();
    }
    let mut msg = f(p)?;
    if let Some(path) = trace_path {
        let path = std::path::Path::new(&path);
        seaice_obs::durable::write_atomic(
            path,
            seaice_obs::trace::export_chrome_json().as_bytes(),
            &seaice_obs::durable::DurableCtx::disabled(),
            seaice_obs::durable::path_key(path),
        )
        .map_err(|e| e.into_io())?;
        msg.push_str(&format!("\nwrote trace {}", path.display()));
    }
    Ok(msg)
}

fn ranges_from(p: &Parsed) -> Result<ClassRanges, CliError> {
    match p.optional("cuts") {
        None => Ok(ClassRanges::paper()),
        Some(cuts) => {
            let parts: Vec<_> = cuts.split(',').collect();
            let parse = |s: &str| {
                s.trim()
                    .parse::<u8>()
                    .map_err(|_| CliError::Args(ArgError::Invalid("cuts".into(), cuts.clone())))
            };
            if parts.len() != 2 {
                return Err(CliError::Args(ArgError::Invalid("cuts".into(), cuts)));
            }
            ClassRanges::try_from_value_cuts(parse(parts[0])?, parse(parts[1])?)
                .map_err(CliError::Msg)
        }
    }
}

fn synth(p: &mut Parsed) -> Result<String, CliError> {
    p.expect_options(&["out", "truth", "side", "seed", "clouds", "illumination"])?;
    let out = p.required("out")?;
    let side = p.get_or("side", 512usize)?;
    let seed = p.get_or("seed", 7u64)?;
    let coverage = p.get_or("clouds", 0.0f64)?;
    let illumination = p.get_or("illumination", 1.0f32)?;
    if side == 0 {
        return Err(CliError::Msg("scene side must be positive".into()));
    }

    let scene = generate(
        &SceneConfig {
            illumination,
            ..SceneConfig::tiny(side)
        },
        seed,
    );
    let rgb = if coverage > 0.0 {
        let layer = clouds::generate(
            &CloudConfig {
                coverage,
                ..CloudConfig::tiny(side)
            },
            seed ^ 0xC10D,
            side,
            side,
        );
        layer.apply(&scene.rgb)
    } else {
        scene.rgb.clone()
    };
    write_ppm(&out, &rgb)?;
    let mut msg = format!("wrote {side}x{side} scene to {out}");
    if let Some(truth_path) = p.optional("truth") {
        write_ppm(&truth_path, &segment_to_color(&scene.truth))?;
        msg.push_str(&format!(", truth labels to {truth_path}"));
    }
    Ok(msg)
}

fn filter(p: &mut Parsed) -> Result<String, CliError> {
    p.expect_options(&["in", "out"])?;
    let input = read_ppm(p.required("in")?)?;
    let out_path = p.required("out")?;
    let side = input.width().min(input.height());
    let result = CloudShadowFilter::new(FilterConfig::for_tile(side)).apply(&input);
    write_ppm(&out_path, &result.filtered)?;
    Ok(format!(
        "filtered {}x{} image -> {} (cloud {:.1}%, shadow {:.1}%)",
        input.width(),
        input.height(),
        out_path,
        result.cloud_mask.nonzero_fraction() * 100.0,
        result.shadow_mask.nonzero_fraction() * 100.0
    ))
}

fn label(p: &mut Parsed) -> Result<String, CliError> {
    p.expect_options(&["in", "out", "no-filter", "cuts"])?;
    let input = read_ppm(p.required("in")?)?;
    let out_path = p.required("out")?;
    let side = input.width().min(input.height());
    let cfg = AutoLabelConfig {
        ranges: ranges_from(p)?,
        filter: if p.flag("no-filter") {
            None
        } else {
            Some(FilterConfig::for_tile(side))
        },
        ..AutoLabelConfig::default()
    };
    let result = auto_label(&input, &cfg);
    write_ppm(&out_path, &result.color_label)?;
    let conc = ice_concentration(&result.class_mask);
    Ok(format!(
        "labeled {} -> {}: {:.1}% thick ice, {:.1}% thin ice, {:.1}% open water",
        p.required("in")?,
        out_path,
        conc.thick_ice * 100.0,
        conc.thin_ice * 100.0,
        conc.open_water * 100.0
    ))
}

fn run_calibrate(p: &mut Parsed) -> Result<String, CliError> {
    p.expect_options(&["image", "labels"])?;
    let image = read_ppm(p.required("image")?)?;
    let labels = read_ppm(p.required("labels")?)?;
    if image.dimensions() != labels.dimensions() {
        return Err(CliError::Msg(
            "image and labels must have the same size".into(),
        ));
    }
    let mask = color_to_classes(&labels);
    let cal = calibrate(&[(&image, &mask)]);
    let (water_hi, thick_lo) = cal.ranges.value_cuts();
    Ok(format!(
        "calibrated on {} pixels: water V<={water_hi}, thick V>={thick_lo} (agreement {:.2}%)\nuse: seaice label --cuts {water_hi},{thick_lo} ...",
        cal.pixels,
        cal.agreement * 100.0
    ))
}

fn run_train(p: &mut Parsed) -> Result<String, CliError> {
    p.expect_options(&[
        "model",
        "scenes",
        "scene-size",
        "tile",
        "epochs",
        "labels",
        "seed",
        "trace",
    ])?;
    let model_path = p.required("model")?;
    let scenes = p.get_or("scenes", 6usize)?;
    if scenes == 0 {
        return Err(CliError::Msg("--scenes must be positive".into()));
    }
    let scene_size = p.get_or("scene-size", 256usize)?;
    let tile = p.get_or("tile", 32usize)?;
    let epochs = p.get_or("epochs", 12usize)?;
    let labels = match p.optional("labels").as_deref() {
        None | Some("auto") => LabelSource::Auto,
        Some("manual") => LabelSource::Manual,
        Some(v) => {
            return Err(CliError::Args(ArgError::Invalid(
                "labels".into(),
                v.to_string(),
            )))
        }
    };
    let seed = p.get_or("seed", 2019u64)?;

    let mut cfg = WorkflowConfig::scaled(scenes, scene_size, tile, epochs);
    cfg.dataset.seed = seed;
    cfg.unet.check_input_side(tile).map_err(CliError::Msg)?;
    tile_grid(scene_size, scene_size, tile).map_err(CliError::Msg)?;
    let dataset = Dataset::build(cfg.dataset.clone());
    let samples: Vec<_> = dataset
        .train
        .iter()
        .map(|t| tile_to_sample(t, InputVariant::Filtered, labels, &cfg.label))
        .collect();
    let loader = DataLoader::new(samples, 8, Some(seed));
    let mut model = UNet::new(cfg.unet);
    // seaice-lint: allow(wallclock-in-deterministic-path) reason="elapsed seconds appear only in the human-readable summary string; nothing downstream orders or hashes on it"
    let t0 = std::time::Instant::now();
    let trace = seaice_obs::trace::tracer();
    let report = {
        let _span = trace.span("train.run", "train");
        train(&mut model, &loader, &cfg.train)
    };
    checkpoint::save(&mut model, &model_path)?;
    Ok(format!(
        "trained U-Net ({} labels) on {} tiles for {epochs} epochs in {:.1}s (loss {:.3} -> {:.3}); saved {}",
        if labels == LabelSource::Auto { "auto" } else { "manual" },
        dataset.train.len(),
        t0.elapsed().as_secs_f64(),
        report.epoch_losses.first().copied().unwrap_or(f32::NAN),
        report.epoch_losses.last().copied().unwrap_or(f32::NAN),
        model_path
    ))
}

/// Reads a checkpoint file without restoring it into a model (the
/// parallel and serving paths restore one replica per worker).
fn read_checkpoint(path: &str) -> Result<checkpoint::Checkpoint, CliError> {
    checkpoint::read_checkpoint(
        std::path::Path::new(path),
        &seaice_obs::durable::DurableCtx::disabled(),
    )
    .map_err(CliError::Io)
}

/// Parses `--backend f32|int8` (default f32).
fn backend_from(p: &Parsed) -> Result<InferBackend, CliError> {
    match p.optional("backend") {
        None => Ok(InferBackend::F32),
        Some(v) => InferBackend::parse(&v)
            .ok_or_else(|| CliError::Args(ArgError::Invalid("backend".into(), v))),
    }
}

fn classify(p: &mut Parsed) -> Result<String, CliError> {
    p.expect_options(&[
        "model",
        "in",
        "out",
        "tile",
        "backend",
        "no-filter",
        "parallel",
        "engine",
        "workers",
        "batch",
        "trace",
    ])?;
    let model_path = p.required("model")?;
    let input = read_ppm(p.required("in")?)?;
    let out_path = p.required("out")?;
    let tile = p.get_or("tile", 32usize)?;
    let filter = !p.flag("no-filter");
    let backend = backend_from(p)?;
    let ckpt = read_checkpoint(&model_path)?;
    tile_grid(input.width(), input.height(), tile).map_err(CliError::Msg)?;

    let result = if p.flag("engine") {
        let mut cfg = EngineConfig::for_tile(tile);
        cfg.filter = filter;
        cfg.workers = p.get_or("workers", cfg.workers)?;
        cfg.max_batch_size = p.get_or("batch", cfg.max_batch_size)?;
        cfg.backend = backend;
        let engine = Engine::new(&ckpt, cfg).map_err(|e| CliError::Msg(e.to_string()))?;
        // seaice-lint: allow(transitive-wallclock) reason="engine-backed classify reaches the serve admission clock; mask bytes stay deterministic, only latency stats carry wall time"
        classify_scene_engine(&engine, &input).map_err(|e| CliError::Msg(e.to_string()))?
    } else if p.flag("parallel") && backend != InferBackend::F32 {
        return Err(CliError::Msg(
            "--parallel only supports the f32 backend; use --engine for int8".into(),
        ));
    } else {
        // The side and payload checks the engine makes in its constructor.
        let mut model = restore_backend(&ckpt, backend, tile).map_err(CliError::Msg)?;
        if p.flag("parallel") {
            classify_scene_parallel(&ckpt, &input, tile, filter)
        } else {
            classify_scene_with(&mut model, &input, tile, filter)
        }
    };
    write_ppm(&out_path, &result.color)?;
    Ok(format!(
        "classified {}x{} scene -> {}: {:.1}% thick ice, {:.1}% thin ice, {:.1}% open water",
        input.width(),
        input.height(),
        out_path,
        result.fractions.0 * 100.0,
        result.fractions.1 * 100.0,
        result.fractions.2 * 100.0
    ))
}

fn serve(p: &mut Parsed) -> Result<String, CliError> {
    p.expect_options(&[
        "model",
        "addr",
        "tile",
        "backend",
        "workers",
        "batch",
        "queue",
        "cache",
        "no-filter",
        "smoke",
    ])?;
    let ckpt = read_checkpoint(&p.required("model")?)?;
    let tile = p.get_or("tile", 32usize)?;
    let mut cfg = EngineConfig::for_tile(tile);
    cfg.workers = p.get_or("workers", cfg.workers)?;
    cfg.max_batch_size = p.get_or("batch", cfg.max_batch_size)?;
    cfg.queue_capacity = p.get_or("queue", cfg.queue_capacity)?;
    cfg.cache_capacity = p.get_or("cache", cfg.cache_capacity)?;
    cfg.filter = !p.flag("no-filter");
    cfg.backend = backend_from(p)?;
    // Live serving wants the metrics registry on so GET /metrics has
    // counters and histograms to expose; batch commands leave it disabled.
    seaice_obs::enable_metrics();
    let engine = Arc::new(Engine::new(&ckpt, cfg).map_err(|e| CliError::Msg(e.to_string()))?);

    if p.flag("smoke") {
        // Self-test: bind an ephemeral port, push one synthetic tile
        // through the full engine path, report, shut down cleanly.
        let mut server = HttpServer::start(Arc::clone(&engine), "127.0.0.1:0")?;
        let tile_img = generate(&SceneConfig::tiny(tile), 1).rgb;
        let mask = engine
            // seaice-lint: allow(transitive-wallclock) reason="serve command drives the real engine; admission deadlines and latency stats are wall time by design"
            .classify_blocking(tile_img)
            .map_err(|e| CliError::Msg(e.to_string()))?;
        let stats = engine.stats();
        server.shutdown();
        return Ok(format!(
            "serve smoke on {}: classified 1 tile ({} px mask) on {} backend, ok={}, p50={}us",
            server.addr(),
            mask.len(),
            stats.backend,
            stats.ok,
            stats.latency.p50_us
        ));
    }

    let addr = p
        .optional("addr")
        .unwrap_or_else(|| "127.0.0.1:8080".into());
    let server = HttpServer::start(engine, &addr)?;
    println!(
        "seaice-serve listening on {} (tile {tile}, backend {}, conv kernels {}, {} workers, batch {}, queue {}, cache {})",
        server.addr(),
        cfg.backend,
        seaice_nn::ops::conv2d::isa(),
        cfg.workers,
        cfg.max_batch_size,
        cfg.queue_capacity,
        cfg.cache_capacity
    );
    println!(
        "routes: POST /classify (raw RGB tile bytes), GET /stats, GET /metrics (Prometheus), GET /healthz"
    );
    loop {
        std::thread::park();
    }
}

fn stream(p: &mut Parsed) -> Result<String, CliError> {
    p.expect_options(&[
        "regions",
        "revisits",
        "cadence",
        "scene-size",
        "tile",
        "drift",
        "seed",
        "workers",
        "epochs",
        "trace",
    ])?;
    let mut cfg = seaice_core::StreamWorkflowConfig::tiny();
    cfg.regions = p.get_or("regions", cfg.regions)?;
    cfg.revisits = p.get_or("revisits", cfg.revisits)?;
    cfg.cadence_days = p.get_or("cadence", cfg.cadence_days)?;
    cfg.scene_side = p.get_or("scene-size", cfg.scene_side)?;
    cfg.tile = p.get_or("tile", cfg.tile)?;
    cfg.drift_px = p.get_or("drift", cfg.drift_px)?;
    cfg.seed = p.get_or("seed", cfg.seed)?;
    cfg.workers = p.get_or("workers", cfg.workers)?;
    cfg.epochs = p.get_or("epochs", cfg.epochs)?;
    tile_grid(cfg.scene_side, cfg.scene_side, cfg.tile).map_err(CliError::Msg)?;
    cfg.model_config()
        .check_input_side(cfg.tile)
        .map_err(CliError::Msg)?;

    let ckpt = seaice_core::train_stream_model(&cfg);
    let out = seaice_core::run_stream(
        &cfg,
        &ckpt,
        seaice_stream::StreamPolicy::resilient(),
        Arc::new(seaice_faults::FaultPlan::disabled()),
    )
    .map_err(|e| CliError::Msg(e.to_string()))?;

    let mut s = out.series.render();
    s.push('\n');
    s.push_str(&out.report.render());
    Ok(s)
}

fn lint(p: &mut Parsed) -> Result<String, CliError> {
    p.expect_options(&["root", "json", "format", "explain"])?;
    if let Some(rule) = p.optional("explain") {
        return match seaice_lint::explain::explain(&rule) {
            Some(blurb) => Ok(format!("{rule}\n{}\n\n{blurb}", "-".repeat(rule.len()))),
            None => Err(CliError::Msg(format!(
                "unknown rule `{rule}`; known rules: {}",
                seaice_lint::explain::ALL_RULES.join(", ")
            ))),
        };
    }
    let format = match (p.optional("format").as_deref(), p.flag("json")) {
        (Some("sarif"), _) => "sarif",
        (Some("json"), _) | (None, true) => "json",
        (Some("text") | None, _) => "text",
        (Some(other), _) => {
            return Err(CliError::Msg(format!(
                "unknown format `{other}` (text|json|sarif)"
            )))
        }
    };
    let root = std::path::PathBuf::from(p.optional("root").unwrap_or_else(|| ".".into()));
    let cfg = seaice_lint::LintConfig::default();
    let diags = seaice_lint::lint_workspace(&root, &cfg)?;
    let rendered = match format {
        "json" => seaice_lint::render_json(&diags),
        "sarif" => seaice_lint::sarif::render_sarif(&diags),
        _ => {
            let mut s = String::new();
            for d in &diags {
                s.push_str(&d.to_string());
                s.push('\n');
            }
            if diags.is_empty() {
                s.push_str("seaice-lint: clean");
            } else {
                s.push_str(&format!("seaice-lint: {} diagnostic(s)", diags.len()));
            }
            s
        }
    };
    if diags.is_empty() {
        Ok(rendered)
    } else {
        Err(CliError::Msg(rendered))
    }
}

fn analyze(p: &mut Parsed) -> Result<String, CliError> {
    p.expect_options(&["labels"])?;
    let labels = read_ppm(p.required("labels")?)?;
    let mask = color_to_classes(&labels);
    let conc = ice_concentration(&mask);
    let leads = detect_leads(&mask, &LeadConfig::default());
    let mut s = format!(
        "ice concentration: {:.1}% total ice ({:.1}% thick, {:.1}% thin), {:.1}% open water\n",
        conc.total_ice * 100.0,
        conc.thick_ice * 100.0,
        conc.thin_ice * 100.0,
        conc.open_water * 100.0
    );
    s.push_str(&format!(
        "leads: {} detected ({} non-lead water bodies), mean width {:.1} px, total area {} px",
        leads.leads.len(),
        leads.non_lead_water_components,
        leads.mean_width(),
        leads.total_lead_area()
    ));
    for (i, l) in leads.leads.iter().take(5).enumerate() {
        s.push_str(&format!(
            "\n  lead {}: length {} px, width {:.1} px, centroid ({:.0}, {:.0})",
            i + 1,
            l.length,
            l.mean_width,
            l.centroid.0,
            l.centroid.1
        ));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("seaice-cli-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn parse(line: &str) -> Parsed {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        Parsed::parse(&args, &["no-filter", "parallel", "engine", "smoke"]).unwrap()
    }

    #[test]
    fn synth_filter_label_analyze_pipeline() {
        let scene = tmp("scene.ppm");
        let truth = tmp("truth.ppm");
        let filtered = tmp("filtered.ppm");
        let labels = tmp("labels.ppm");

        let msg = run(parse(&format!(
            "synth --out {scene} --truth {truth} --side 96 --seed 3 --clouds 0.3"
        )))
        .unwrap();
        assert!(msg.contains("96x96"));

        let msg = run(parse(&format!("filter --in {scene} --out {filtered}"))).unwrap();
        assert!(msg.contains("filtered"));

        let msg = run(parse(&format!("label --in {scene} --out {labels}"))).unwrap();
        assert!(msg.contains("thick ice"));

        let msg = run(parse(&format!("analyze --labels {labels}"))).unwrap();
        assert!(msg.contains("ice concentration"));

        let msg = run(parse(&format!(
            "calibrate --image {scene} --labels {truth}"
        )))
        .unwrap();
        assert!(msg.contains("seaice label --cuts"));

        for f in [scene, truth, filtered, labels] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn train_and_classify_roundtrip() {
        let scene = tmp("c-scene.ppm");
        let pred = tmp("c-pred.ppm");
        let pred_par = tmp("c-pred-par.ppm");
        let model = tmp("c-model.json");

        run(parse(&format!("synth --out {scene} --side 64 --seed 5"))).unwrap();
        let msg = run(parse(&format!(
            "train --model {model} --scenes 2 --scene-size 64 --tile 32 --epochs 2 --labels manual"
        )))
        .unwrap();
        assert!(msg.contains("saved"));

        let msg = run(parse(&format!(
            "classify --model {model} --in {scene} --out {pred} --tile 32"
        )))
        .unwrap();
        assert!(msg.contains("classified"));

        // Parallel classification writes identical output.
        run(parse(&format!(
            "classify --model {model} --in {scene} --out {pred_par} --tile 32 --parallel"
        )))
        .unwrap();
        let a = read_ppm(&pred).unwrap();
        let b = read_ppm(&pred_par).unwrap();
        assert_eq!(a, b);

        // ... and so does the serving engine.
        let pred_eng = tmp("c-pred-eng.ppm");
        run(parse(&format!(
            "classify --model {model} --in {scene} --out {pred_eng} --tile 32 --engine --workers 2 --batch 3"
        )))
        .unwrap();
        assert_eq!(read_ppm(&pred_eng).unwrap(), a);

        // The serve smoke flag runs the HTTP + engine path end to end.
        let msg = run(parse(&format!("serve --model {model} --tile 32 --smoke"))).unwrap();
        assert!(msg.contains("serve smoke"), "{msg}");
        assert!(msg.contains("ok=1"), "{msg}");

        // --trace exports a Chrome trace_event JSON with the engine spans.
        let trace = tmp("c-trace.json");
        let msg = run(parse(&format!(
            "classify --model {model} --in {scene} --out {pred_eng} --tile 32 --engine --trace {trace}"
        )))
        .unwrap();
        assert!(msg.contains("wrote trace"), "{msg}");
        let src = std::fs::read_to_string(&trace).unwrap();
        let stats = seaice_obs::trace::validate_chrome_trace(&src).unwrap();
        assert!(stats.events > 0, "engine run should emit spans");

        // Int8 restores through the same backend choice on both paths, so
        // the sequential and engine masks agree byte for byte.
        let pred_i8 = tmp("c-pred-i8.ppm");
        let pred_i8_eng = tmp("c-pred-i8-eng.ppm");
        run(parse(&format!(
            "classify --model {model} --in {scene} --out {pred_i8} --tile 32 --backend int8"
        )))
        .unwrap();
        run(parse(&format!(
            "classify --model {model} --in {scene} --out {pred_i8_eng} --tile 32 --engine --backend int8"
        )))
        .unwrap();
        assert_eq!(read_ppm(&pred_i8).unwrap(), read_ppm(&pred_i8_eng).unwrap());

        // --parallel stays f32-only, and says where int8 goes instead.
        let err = run(parse(&format!(
            "classify --model {model} --in {scene} --out {pred_i8} --tile 32 --parallel --backend int8"
        )))
        .unwrap_err();
        assert!(err.to_string().contains("use --engine for int8"), "{err}");

        // A truncated model file is an error on either backend, not a panic.
        let torn = tmp("c-torn-model.json");
        let bytes = std::fs::read(&model).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        for backend in ["f32", "int8"] {
            let result = run(parse(&format!(
                "classify --model {torn} --in {scene} --out {pred_i8} --tile 32 --backend {backend}"
            )));
            assert!(result.is_err(), "{backend}: a torn model must not classify");
        }

        for f in [
            scene,
            pred,
            pred_par,
            pred_eng,
            model,
            trace,
            pred_i8,
            pred_i8_eng,
            torn,
        ] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn stream_runs_the_dag_and_reports_the_drift_series() {
        let msg = run(parse(
            "stream --regions 1 --revisits 2 --scene-size 48 --tile 16 --workers 2 --epochs 1",
        ))
        .unwrap();
        // The drift-series table plus the per-stage scheduler report.
        assert!(msg.contains("region"), "{msg}");
        assert!(msg.contains("changed"), "{msg}");
        assert!(msg.contains("changedetect"), "{msg}");
        assert!(msg.contains("bottleneck makespan"), "{msg}");
    }

    #[test]
    fn bad_outside_input_is_an_error_not_a_panic() {
        let [model, scene, small, out] =
            ["model.json", "scene.ppm", "small.ppm", "out.ppm"].map(|f| tmp(&format!("bad-{f}")));
        // An untrained depth-2 model: it takes sides that are multiples of 4.
        let mut unet = UNet::new(WorkflowConfig::scaled(1, 64, 32, 1).unet);
        checkpoint::save(&mut unet, &model).unwrap();
        run(parse(&format!("synth --out {scene} --side 64 --seed 2"))).unwrap();
        run(parse(&format!("synth --out {small} --side 24 --seed 2"))).unwrap();

        let side = "input side 30 must be a positive multiple of 4";
        let small_scene = "smaller than";
        let mut cases = vec![
            (format!("train --model {model} --scenes 1 --tile 30"), side),
            (
                format!("train --model {model} --scene-size 16 --tile 32"),
                small_scene,
            ),
            ("stream --tile 64 --scene-size 48".to_string(), small_scene),
            (
                "stream --tile 15 --scene-size 60".to_string(),
                "input side 15 must be a positive multiple of 2",
            ),
            ("stream --tile 0".to_string(), "tile side must be positive"),
            (
                format!("synth --out {out} --side 0"),
                "scene side must be positive",
            ),
            (
                format!("train --model {model} --scenes 0"),
                "--scenes must be positive",
            ),
        ];
        for cuts in ["200,20", "20,21", "255,0", "254,255"] {
            let line = format!("label --in {scene} --out {out} --cuts {cuts}");
            cases.push((line, "cut points leave no thin-ice band"));
        }
        for path in ["", "--backend int8", "--parallel", "--engine"] {
            let classify = format!("classify --model {model} --out {out} {path}");
            cases.push((format!("{classify} --in {scene} --tile 30"), side));
            cases.push((format!("{classify} --in {small} --tile 32"), small_scene));
        }
        for (line, want) in cases {
            let err = run(parse(&line)).unwrap_err().to_string();
            assert!(err.contains(want), "`{line}`: {err}");
        }
        for f in [model, scene, small, out] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn unknown_command_reports_usage() {
        let err = run(parse("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("usage"));
    }

    #[test]
    fn label_with_custom_cuts() {
        let scene = tmp("cuts-scene.ppm");
        let labels = tmp("cuts-labels.ppm");
        run(parse(&format!(
            "synth --out {scene} --side 64 --seed 9 --illumination 0.45"
        )))
        .unwrap();
        // Night cuts from the analytic rescale: water<=14, thick>=92.
        let msg = run(parse(&format!(
            "label --in {scene} --out {labels} --no-filter --cuts 14,92"
        )))
        .unwrap();
        assert!(msg.contains("thick ice"));
        for f in [scene, labels] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn size_mismatch_is_a_polite_error() {
        let a = tmp("mm-a.ppm");
        let b = tmp("mm-b.ppm");
        run(parse(&format!("synth --out {a} --side 32 --seed 1"))).unwrap();
        run(parse(&format!("synth --out {b} --side 64 --seed 1"))).unwrap();
        let err = run(parse(&format!("calibrate --image {a} --labels {b}"))).unwrap_err();
        assert!(err.to_string().contains("same size"));
        for f in [a, b] {
            std::fs::remove_file(f).ok();
        }
    }
}
