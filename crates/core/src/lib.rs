//! # seaice-core
//!
//! The paper's end-to-end *parallel workflow* (Figs. 1, 2, 9), assembled
//! from the subsystem crates:
//!
//! 1. **Collect** Sentinel-2 scenes for a spatial/temporal extent
//!    (`seaice-s2` catalog) and split them into 256×256 tiles;
//! 2. **Filter** thin clouds and shadows (`seaice-label`);
//! 3. **Auto-label** via HSV color segmentation (`seaice-label`),
//!    scaled with a worker pool or the map-reduce engine;
//! 4. **Train** two U-Nets — `U-Net-Man` on manual (ground-truth) labels
//!    and `U-Net-Auto` on auto-labels (`seaice-unet`, optionally
//!    distributed via `seaice-distrib`);
//! 5. **Validate** both models against manual labels on original vs
//!    filtered imagery (`seaice-metrics`), reproducing Tables IV–V and
//!    Fig. 13;
//! 6. **Infer** over fresh scenes: tile → filter → predict → stitch
//!    (Fig. 9).
#![forbid(unsafe_code)]

pub mod adapters;
pub mod analysis;
pub mod backend;
pub mod change;
pub mod config;
pub mod inference;
pub mod stream_workflow;
pub mod workflow;

pub use adapters::{mask_to_image, predictions_to_mask, tile_to_sample, InputVariant, LabelSource};
pub use analysis::{detect_leads, ice_concentration, IceConcentration, LeadAnalysis, LeadConfig};
pub use backend::{
    default_calibration, restore_backend, LoadedModel, ModelSource, CALIBRATION_SEED,
};
pub use change::{ChangeDetector, ChangeSnapshot, DriftPoint, DriftSeries, TileObs};
pub use config::WorkflowConfig;
pub use inference::{
    classify_scene, classify_scene_parallel, classify_scene_with, SceneClassification,
};
pub use stream_workflow::{
    run_stream, run_stream_resumable, train_stream_model, StreamCheckpoint, StreamOutcome,
    StreamResumeConfig, StreamResumeReport, StreamWorkflowConfig,
};
pub use workflow::{
    evaluate_arm, run_workflow, train_models, train_models_distributed, ArmEvaluation,
    TrainedModels, WorkflowResult,
};
