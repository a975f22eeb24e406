//! The end-to-end streaming workload on the `seaice-stream` DAG:
//! catalog → tile → auto-label → infer → change-detect.
//!
//! The batch workflow processes a fixed catalog; this module processes a
//! *continuous* revisit feed. [`Catalog::revisit_stream`] emits scenes
//! for several monitored regions at a fixed cadence (with the ice
//! genuinely translating between revisits), the tile stage cuts each
//! scene along [`tile_grid`](crate::inference::tile_grid), the label and
//! infer stages classify every tile twice (HSV auto-label + U-Net), and
//! the sink folds the pairs into a per-region [`DriftSeries`].
//!
//! Determinism contract (pinned by tier-1 tests and `reproduce stream`):
//! the drift series is a pure function of `(StreamWorkflowConfig,
//! checkpoint)` — worker counts, channel capacities, scheduling, and
//! recovered faults never change a byte of it.
//!
//! Simulated per-item stage costs drive the scheduler's `ManualClock`
//! timeline; the label cost is the paper's 390 s / 4224 tiles, the rest
//! are calibrated ballpark figures, all deterministic.

use crate::adapters::{image_to_chw, image_to_chw_into};
use crate::backend::{LoadedModel, ModelSource};
use crate::change::{ChangeDetector, ChangeSnapshot, DriftSeries, TileObs};
use crate::inference::grid;
use seaice_faults::FaultPlan;
use seaice_imgproc::buffer::{Image, Scratch};
use seaice_label::autolabel::{auto_label_class_mask, AutoLabelConfig};
use seaice_nn::tensor::Tensor;
use seaice_obs::durable::{self, DurableCtx};
use seaice_obs::json::{self, Obj};
use seaice_obs::lock;
use seaice_s2::catalog::{Catalog, RevisitPlan, RevisitSceneMeta};
use seaice_s2::synth::SceneConfig;
use seaice_stream::{source, StageOptions, StreamError, StreamPolicy, StreamReport};
use seaice_unet::checkpoint::{self, Checkpoint};
use seaice_unet::config::UNetConfig;
use seaice_unet::model::UNet;
use seaice_unet::train::{train, TrainConfig};
use seaice_unet::TileClassifier;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Simulated per-scene acquisition cost (download + ingest), seconds.
pub const SIM_FETCH_SECS: f64 = 2.0;
/// Simulated per-scene tiling cost, seconds.
pub const SIM_TILE_SECS: f64 = 0.05;
/// Simulated per-tile auto-label cost: the paper's 390 s over 4224
/// tiles (Table I's sequential arm).
pub const SIM_LABEL_SECS: f64 = 390.0 / 4224.0;
/// Simulated per-tile U-Net forward cost, seconds.
pub const SIM_INFER_SECS: f64 = 0.03;

/// Everything that determines a streaming run.
#[derive(Clone, Debug)]
pub struct StreamWorkflowConfig {
    /// Monitored regions.
    pub regions: usize,
    /// Revisits per region.
    pub revisits: u32,
    /// Days between revisits.
    pub cadence_days: u32,
    /// Scene side length in pixels.
    pub scene_side: usize,
    /// Tile side length in pixels.
    pub tile: usize,
    /// Ice translation per revisit, in pixels.
    pub drift_px: usize,
    /// Catalog seed.
    pub seed: u64,
    /// Workers per heavy stage (label, infer; tiling gets half).
    pub workers: usize,
    /// Stage-boundary channel capacity.
    pub channel_capacity: usize,
    /// Training epochs for the streaming model.
    pub epochs: usize,
}

impl StreamWorkflowConfig {
    /// A seconds-scale configuration for tests.
    pub fn tiny() -> Self {
        Self {
            regions: 2,
            revisits: 3,
            cadence_days: 2,
            scene_side: 48,
            tile: 16,
            drift_px: 4,
            seed: 7,
            workers: 2,
            channel_capacity: 8,
            epochs: 2,
        }
    }

    /// The catalog + revisit plan this configuration describes.
    pub fn plan(&self) -> (Catalog, RevisitPlan) {
        let catalog = Catalog::new(self.seed).with_scene_config(SceneConfig::tiny(self.scene_side));
        let plan = RevisitPlan::synthetic(
            self.regions,
            self.revisits,
            self.cadence_days,
            self.drift_px,
        );
        (catalog, plan)
    }

    /// The streaming U-Net's architecture: [`train_stream_model`] trains
    /// it on `tile`-sided crops, so its
    /// [`check_input_side`](UNetConfig::check_input_side) is the check
    /// for `tile`.
    pub fn model_config(&self) -> UNetConfig {
        UNetConfig {
            depth: 1,
            base_filters: 8,
            dropout: 0.0,
            seed: self.seed ^ 0x57EA,
            ..UNetConfig::paper()
        }
    }
}

/// What a streaming run produces: the drift series plus the scheduler's
/// accounting.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// Per-region drift series (the byte-checked artifact).
    pub series: DriftSeries,
    /// Per-stage scheduler report.
    pub report: StreamReport,
}

/// Trains the small streaming U-Net on auto-labeled tiles of the first
/// region's window — the "train once, then stream" model. Deterministic
/// in the config.
///
/// # Panics
/// Panics if the scene is smaller than a tile or the tile side fails the
/// [`model_config`](StreamWorkflowConfig::model_config)'s
/// `check_input_side`.
pub fn train_stream_model(cfg: &StreamWorkflowConfig) -> Checkpoint {
    let (catalog, plan) = cfg.plan();
    let region = plan
        .regions
        .keys()
        .next()
        .cloned()
        .unwrap_or_else(|| "ross-00".to_string());
    let window = catalog.region_window(&plan, &region);
    let label_cfg = AutoLabelConfig::filtered_for_tile(cfg.tile);
    let mut scratch = Scratch::new();
    let mut samples = Vec::new();
    for (x0, y0) in grid(&window.rgb, cfg.tile) {
        let rgb = window.rgb.crop(x0, y0, cfg.tile, cfg.tile);
        let mask = auto_label_class_mask(&rgb, &label_cfg, &mut scratch);
        samples.push(seaice_nn::dataloader::Sample {
            image: image_to_chw(&rgb),
            mask: mask.into_vec(),
            channels: 3,
            height: cfg.tile,
            width: cfg.tile,
        });
    }
    let loader = seaice_nn::dataloader::DataLoader::new(samples, 8, Some(cfg.seed));
    let mut model = UNet::new(cfg.model_config());
    train(
        &mut model,
        &loader,
        &TrainConfig {
            epochs: cfg.epochs.max(1),
            ..TrainConfig::default()
        },
    );
    checkpoint::snapshot(&mut model)
}

/// A scene flowing from the source into the tiler.
#[derive(Clone)]
struct SceneItem {
    region: String,
    revisit: u32,
    day: u32,
    rgb: Image<u8>,
}

/// A tile flowing from the tiler into the labeler (`label` empty), and
/// from the labeler into inference.
#[derive(Clone)]
struct TileItem {
    region: String,
    revisit: u32,
    day: u32,
    tile_index: u32,
    rgb: Image<u8>,
    label: Vec<u8>,
}

/// Runs the catalog → tile → label → infer → change-detect DAG and
/// returns the drift series plus the scheduler report.
///
/// # Errors
/// Propagates [`StreamError`] when items exhaust their retry budget
/// (only reachable with an armed fault plan and a too-small
/// `max_attempts`).
pub fn run_stream(
    cfg: &StreamWorkflowConfig,
    ckpt: &Checkpoint,
    policy: StreamPolicy,
    faults: Arc<FaultPlan>,
) -> Result<StreamOutcome, StreamError> {
    let (catalog, plan) = cfg.plan();
    let metas = catalog.revisit_stream(&plan);
    let detector = ChangeDetector::new(cfg.tile);
    let (detector, report) =
        run_stream_segment(cfg, ckpt, policy, faults, &catalog, &plan, metas, detector)?;
    Ok(StreamOutcome {
        series: detector.finalize(),
        report,
    })
}

/// Runs the DAG over one slice of the revisit feed, folding into (and
/// returning) the caller's detector — the unit both [`run_stream`] and
/// [`run_stream_resumable`] are built from. Because
/// [`ChangeDetector::observe`] is commutative, partitioning the same
/// meta list into any segments yields the same final detector state.
#[allow(clippy::too_many_arguments)]
fn run_stream_segment(
    cfg: &StreamWorkflowConfig,
    ckpt: &Checkpoint,
    policy: StreamPolicy,
    faults: Arc<FaultPlan>,
    catalog: &Catalog,
    plan: &RevisitPlan,
    metas: Vec<RevisitSceneMeta>,
    detector: ChangeDetector,
) -> Result<(ChangeDetector, StreamReport), StreamError> {
    let tile = cfg.tile;
    let workers = cfg.workers.max(1);

    // The source owns a per-region window cache: each region's wide
    // scene generates once, every revisit crops from it and rolls its
    // own cloud layer (the "as-acquired" degradation the label stage's
    // filter then has to see through).
    let source_iter = {
        let catalog = catalog.clone();
        let plan = plan.clone();
        let mut windows = BTreeMap::new();
        metas.into_iter().map(move |m| {
            let window = windows
                .entry(m.region.clone())
                .or_insert_with(|| catalog.region_window(&plan, &m.region));
            let scene = seaice_s2::catalog::crop_revisit(window, &m);
            let layer = catalog.revisit_cloud_layer(&m);
            SceneItem {
                region: m.region,
                revisit: m.revisit,
                day: m.meta.day,
                rgb: layer.apply(&scene.rgb),
            }
        })
    };

    let label_cfg = AutoLabelConfig::filtered_for_tile(tile);

    // One replica (and input buffer) per infer worker, checked out per
    // attempt; one lost to a panicking attempt is loaded afresh.
    let models = ModelSource::F32(Arc::new(ckpt.clone()));
    let replicas: Vec<(LoadedModel, Vec<f32>)> =
        (0..workers).map(|_| (models.load(), Vec::new())).collect();
    let pool = Arc::new(Mutex::new(replicas));

    let detector = Arc::new(Mutex::new(detector));
    let sink_det = Arc::clone(&detector);

    let report = source(policy, "catalog", source_iter)
        .with_source_cost(SIM_FETCH_SECS)
        .transform(
            "tile",
            StageOptions::workers(workers.div_ceil(2)).with_cost_secs(SIM_TILE_SECS),
            move |s: SceneItem| {
                let tiles = grid(&s.rgb, tile).into_iter().enumerate();
                tiles
                    .map(|(i, (x0, y0))| TileItem {
                        region: s.region.clone(),
                        revisit: s.revisit,
                        day: s.day,
                        tile_index: i as u32,
                        rgb: s.rgb.crop(x0, y0, tile, tile),
                        label: Vec::new(),
                    })
                    .collect()
            },
        )
        .transform(
            "label",
            StageOptions::workers(workers).with_cost_secs(SIM_LABEL_SECS),
            move |t: TileItem| {
                // One pool per stage worker thread, so the filter's planes
                // are reused from tile to tile.
                thread_local! {
                    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
                }
                let mask = SCRATCH
                    .with(|s| auto_label_class_mask(&t.rgb, &label_cfg, &mut s.borrow_mut()));
                vec![TileItem {
                    label: mask.into_vec(),
                    ..t
                }]
            },
        )
        .transform(
            "infer",
            StageOptions::workers(workers).with_cost_secs(SIM_INFER_SECS),
            move |t: TileItem| {
                let checked_out = lock(&pool).pop();
                let (mut model, mut chw) =
                    checked_out.unwrap_or_else(|| (models.load(), Vec::new()));
                chw.resize(3 * tile * tile, 0.0);
                image_to_chw_into(&t.rgb, &mut chw);
                let x = Tensor::from_vec(&[1, 3, tile, tile], chw);
                let mut pred = Vec::new();
                model.predict_into(&x, &mut pred);
                lock(&pool).push((model, x.into_vec()));
                vec![TileObs {
                    region: t.region,
                    revisit: t.revisit,
                    day: t.day,
                    tile_index: t.tile_index,
                    pred,
                    label: t.label,
                }]
            },
        )
        .sink(
            "changedetect",
            StageOptions::workers(1).with_cost_secs(0.001),
            move |obs: TileObs| {
                lock(&sink_det).observe(obs);
            },
        )
        .run(faults)?;

    let detector = Arc::try_unwrap(detector)
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .unwrap_or_default();
    Ok((detector, report))
}

/// How [`run_stream_resumable`] persists and resumes.
#[derive(Clone, Debug)]
pub struct StreamResumeConfig {
    /// Durable checkpoint file (framed [`StreamCheckpoint`] JSON).
    pub checkpoint_path: PathBuf,
    /// Snapshot the detector after every this many scenes.
    pub every_scenes: usize,
    /// Simulated process crash: stop (without error) once this many
    /// scenes have been processed *this run*. Work past the last
    /// checkpoint boundary is lost, exactly as a real kill would lose
    /// it. `None` runs to completion.
    pub max_scenes_this_run: Option<usize>,
}

impl StreamResumeConfig {
    /// Checkpoint to `path` every `every_scenes` scenes, run to
    /// completion.
    pub fn new(path: impl Into<PathBuf>, every_scenes: usize) -> Self {
        Self {
            checkpoint_path: path.into(),
            every_scenes: every_scenes.max(1),
            max_scenes_this_run: None,
        }
    }

    /// Simulate a kill after `n` scenes (builder-style).
    #[must_use]
    pub fn killed_after(mut self, n: usize) -> Self {
        self.max_scenes_this_run = Some(n);
        self
    }
}

/// The durable payload [`run_stream_resumable`] writes at every
/// checkpoint boundary: how far the scene feed got plus the detector's
/// complete state.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamCheckpoint {
    /// Scenes fully processed and folded into `detector`.
    pub scenes_done: usize,
    /// Detector state after those scenes.
    pub detector: ChangeSnapshot,
}

impl StreamCheckpoint {
    /// The payload as compact JSON: `{"scenes_done", "detector": {…}}`
    /// (see [`ChangeSnapshot::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scenes_done\":{},\"detector\":{}}}",
            self.scenes_done,
            self.detector.to_json()
        )
    }

    /// Decodes what [`to_json`](Self::to_json) wrote.
    ///
    /// # Errors
    /// The parse error, or the first unacceptable field named by its path
    /// (`detector.pending[3].mask.mask: …`).
    pub fn from_json(src: &str) -> Result<StreamCheckpoint, String> {
        let doc = json::parse(src)?;
        let root = Obj::root(&doc)?;
        Ok(StreamCheckpoint {
            scenes_done: root.uint("scenes_done")?,
            detector: ChangeSnapshot::from_json(&root.obj("detector")?)?,
        })
    }
}

/// What a resumable run did.
#[derive(Clone, Debug)]
pub struct StreamResumeReport {
    /// The feed was fully drained (false = the simulated kill fired).
    pub finished: bool,
    /// Scenes processed across all runs so far (checkpoint watermark).
    pub scenes_done: usize,
    /// Scenes the full feed holds.
    pub total_scenes: usize,
    /// Scene index this run resumed from (0 = fresh start).
    pub resumed_from: usize,
    /// Durable checkpoints written this run.
    pub checkpoints_written: usize,
    /// Checkpoint writes that failed (injected torn/ENOSPC faults). The
    /// run continues — a stale checkpoint only costs replayed work.
    pub checkpoint_write_failures: usize,
    /// An existing checkpoint file failed verification and was
    /// discarded (the run restarted from scratch rather than trust it).
    pub corrupt_checkpoint_discarded: bool,
    /// The drift series — present only when `finished`.
    pub series: Option<DriftSeries>,
    /// Per-segment scheduler reports, in execution order.
    pub reports: Vec<StreamReport>,
}

/// [`run_stream`] with crash consistency: the scene feed is processed
/// in chunks of [`StreamResumeConfig::every_scenes`], and after each
/// chunk the detector state is written — checksummed, atomically — to
/// the checkpoint file. A killed run restarted with the same arguments
/// resumes from the last durable snapshot and produces a drift series
/// **byte-identical** to an uninterrupted run (chunking partitions the
/// same observation multiset and [`ChangeDetector::observe`] is
/// commutative; pinned by `tests/durability.rs`).
///
/// A checkpoint file that fails checksum or shape validation is never
/// trusted: the run notes it ([`StreamResumeReport::corrupt_checkpoint_discarded`])
/// and restarts from scratch, which costs time but never correctness.
///
/// # Errors
/// Propagates [`StreamError`] from the underlying DAG segments.
pub fn run_stream_resumable(
    cfg: &StreamWorkflowConfig,
    ckpt: &Checkpoint,
    policy: StreamPolicy,
    faults: Arc<FaultPlan>,
    resume: &StreamResumeConfig,
    dctx: &DurableCtx,
) -> Result<StreamResumeReport, StreamError> {
    let (catalog, plan) = cfg.plan();
    let metas = catalog.revisit_stream(&plan);
    let total = metas.len();
    let every = resume.every_scenes.max(1);
    let path = &resume.checkpoint_path;

    // Restore: a missing file is a fresh start; anything unreadable,
    // corrupt, or shape-incompatible is *discarded*, never trusted.
    let mut corrupt_discarded = false;
    let (mut detector, mut done) = match durable::read_framed(path, dctx, durable::path_key(path)) {
        Ok(bytes) => match std::str::from_utf8(&bytes).map(StreamCheckpoint::from_json) {
            Ok(Ok(sc)) if sc.scenes_done <= total && sc.detector.tile == cfg.tile => {
                (ChangeDetector::restore(&sc.detector), sc.scenes_done)
            }
            _ => {
                corrupt_discarded = true;
                (ChangeDetector::new(cfg.tile), 0)
            }
        },
        Err(durable::DurableError::Io { source, .. })
            if source.kind() == std::io::ErrorKind::NotFound =>
        {
            (ChangeDetector::new(cfg.tile), 0)
        }
        Err(_) => {
            corrupt_discarded = true;
            (ChangeDetector::new(cfg.tile), 0)
        }
    };

    let resumed_from = done;
    let stop = resume
        .max_scenes_this_run
        .map(|m| done.saturating_add(m))
        .unwrap_or(usize::MAX);
    let mut reports = Vec::new();
    let mut written = 0usize;
    let mut write_failures = 0usize;

    while done < total {
        let next = (done + every).min(total);
        if next > stop {
            // The kill lands inside this chunk: its work would die with
            // the process, so it never runs.
            break;
        }
        let chunk = metas[done..next].to_vec();
        let (d, report) = run_stream_segment(
            cfg,
            ckpt,
            policy,
            Arc::clone(&faults),
            &catalog,
            &plan,
            chunk,
            detector,
        )?;
        detector = d;
        reports.push(report);
        done = next;
        // Persist the boundary. A failed write (torn, ENOSPC) leaves the
        // previous checkpoint in place — strictly a stale-but-valid
        // state, so the run continues.
        let payload = StreamCheckpoint {
            scenes_done: done,
            detector: detector.snapshot(),
        };
        match durable::write_framed(path, payload.to_json().as_bytes(), dctx, done as u64) {
            Ok(()) => written += 1,
            Err(_) => write_failures += 1,
        }
    }

    let finished = done >= total;
    Ok(StreamResumeReport {
        finished,
        scenes_done: done,
        total_scenes: total,
        resumed_from,
        checkpoints_written: written,
        checkpoint_write_failures: write_failures,
        corrupt_checkpoint_discarded: corrupt_discarded,
        series: finished.then(|| detector.finalize()),
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resumable_run_without_kill_matches_plain_run() {
        let cfg = StreamWorkflowConfig::tiny();
        let ckpt = train_stream_model(&cfg);
        let want = run_stream(
            &cfg,
            &ckpt,
            StreamPolicy::default(),
            Arc::new(FaultPlan::disabled()),
        )
        .expect("plain run")
        .series
        .to_bytes();

        let dir = std::env::temp_dir().join(format!("seaice-stream-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let resume = StreamResumeConfig::new(dir.join("stream.ckpt"), 2);
        let r = run_stream_resumable(
            &cfg,
            &ckpt,
            StreamPolicy::default(),
            Arc::new(FaultPlan::disabled()),
            &resume,
            &DurableCtx::disabled(),
        )
        .expect("resumable run");
        assert!(r.finished);
        assert_eq!(r.scenes_done, r.total_scenes);
        assert!(r.checkpoints_written >= 1);
        assert_eq!(
            r.series.expect("finished run has a series").to_bytes(),
            want
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drift_series_is_byte_identical_across_worker_counts() {
        let mut cfg = StreamWorkflowConfig::tiny();
        let ckpt = train_stream_model(&cfg);
        cfg.workers = 1;
        let one = run_stream(
            &cfg,
            &ckpt,
            StreamPolicy::default(),
            Arc::new(FaultPlan::disabled()),
        )
        .expect("clean run");
        cfg.workers = 3;
        let three = run_stream(
            &cfg,
            &ckpt,
            StreamPolicy::default(),
            Arc::new(FaultPlan::disabled()),
        )
        .expect("clean run");
        assert_eq!(one.series.to_bytes(), three.series.to_bytes());
        assert_eq!(one.series.points.len(), (2 * 3) as usize);
        // Every revisit after the first sees the injected drift.
        assert!(one
            .series
            .points
            .iter()
            .filter(|p| p.revisit > 0)
            .all(|p| p.changed_frac > 0.0));
    }
}
