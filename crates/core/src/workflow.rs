//! The training-and-validation workflow (Fig. 2): build the dataset,
//! train `U-Net-Man` and `U-Net-Auto`, and evaluate both on every input
//! variant — the machinery behind Tables IV and V and Fig. 13.

use crate::adapters::{tile_to_sample_scratch, InputVariant, LabelSource};
use crate::config::WorkflowConfig;
use seaice_exec::par;
use seaice_imgproc::buffer::Scratch;
use seaice_metrics::{classification_report, ClassificationReport, ConfusionMatrix};
use seaice_nn::dataloader::DataLoader;
use seaice_s2::dataset::Dataset;
use seaice_s2::tiler::Tile;
use seaice_unet::{evaluate, train, UNet};

/// The two trained models of the comparison.
pub struct TrainedModels {
    /// Trained on manual (ground-truth) labels.
    pub unet_man: UNet,
    /// Trained on color-segmentation auto-labels.
    pub unet_auto: UNet,
}

/// Evaluation of one (model, input-variant, tile-subset) arm.
#[derive(Clone, Debug)]
pub struct ArmEvaluation {
    /// Standard classification metrics vs manual labels.
    pub report: ClassificationReport,
    /// The full 3-class confusion matrix.
    pub confusion: ConfusionMatrix,
    /// Number of tiles evaluated.
    pub tiles: usize,
}

/// Full workflow output.
pub struct WorkflowResult {
    /// The trained model pair.
    pub models: TrainedModels,
    /// The dataset the models were trained/evaluated on.
    pub dataset: Dataset,
    /// Table IV: (label source, input variant) → evaluation over the
    /// whole validation split.
    pub table4: Vec<(LabelSource, InputVariant, ArmEvaluation)>,
}

/// Builds training samples for one label source. Training inputs go
/// through the thin-cloud/shadow filter, matching the paper's deployed
/// pipeline: Fig. 9 filters every image before the model sees it, and the
/// training-data preparation of Fig. 6 likewise runs imagery through the
/// filter. Evaluating such a model on *unfiltered* imagery is exactly the
/// degraded "original S2 images" arm of Table IV. Tiles are split over the
/// cores (`par::map_init`), one `Scratch` per worker.
fn training_samples(
    tiles: &[Tile],
    labels: LabelSource,
    cfg: &WorkflowConfig,
) -> Vec<seaice_nn::dataloader::Sample> {
    par::map_init(tiles, Scratch::new, |scratch, t| {
        tile_to_sample_scratch(t, InputVariant::Filtered, labels, &cfg.label, scratch)
    })
}

/// Trains the `U-Net-Man` / `U-Net-Auto` pair on the dataset's training
/// split.
pub fn train_models(dataset: &Dataset, cfg: &WorkflowConfig) -> TrainedModels {
    let batch = 8.min(dataset.train.len()).max(1);
    let train_one = |labels: LabelSource| -> UNet {
        let samples = training_samples(&dataset.train, labels, cfg);
        let loader = DataLoader::new(samples, batch, Some(cfg.unet.seed));
        let mut model = UNet::new(cfg.unet);
        train(&mut model, &loader, &cfg.train);
        model
    };
    TrainedModels {
        unet_man: train_one(LabelSource::Manual),
        unet_auto: train_one(LabelSource::Auto),
    }
}

/// Distributed variant of [`train_models`]: both U-Nets train with
/// synchronous data-parallel replicas and ring-all-reduce gradient
/// averaging (Fig. 1's right half). With `dropout = 0` the result is
/// numerically equivalent to the sequential path at the same global
/// batch.
pub fn train_models_distributed(
    dataset: &Dataset,
    cfg: &WorkflowConfig,
    ranks: usize,
) -> (TrainedModels, Vec<seaice_distrib::DistTrainReport>) {
    let global_batch = 8.min(dataset.train.len()).max(ranks);
    let per_rank = (global_batch / ranks).max(1);
    let perf = seaice_distrib::DgxA100Model::dgx_a100();
    let mut reports = Vec::with_capacity(2);
    let mut train_one = |labels: LabelSource| -> UNet {
        let samples = training_samples(&dataset.train, labels, cfg);
        let (model, report) = seaice_distrib::train_distributed(
            cfg.unet,
            samples,
            seaice_distrib::DistTrainConfig {
                ranks,
                epochs: cfg.train.epochs,
                batch_size_per_rank: per_rank,
                learning_rate: cfg.train.learning_rate,
                shuffle_seed: Some(cfg.unet.seed),
            },
            &perf,
        );
        reports.push(report);
        model
    };
    let models = TrainedModels {
        unet_man: train_one(LabelSource::Manual),
        unet_auto: train_one(LabelSource::Auto),
    };
    (models, reports)
}

/// Evaluates a model on `tiles` with the given input variant, always
/// scoring against manual labels (the paper validates both models on the
/// same manually labeled dataset). The samples are prepared like
/// `training_samples`: tiles split over the cores, one `Scratch` per worker.
pub fn evaluate_arm(
    model: &mut UNet,
    tiles: &[Tile],
    variant: InputVariant,
    cfg: &WorkflowConfig,
) -> ArmEvaluation {
    assert!(!tiles.is_empty(), "no tiles to evaluate");
    let samples = par::map_init(tiles, Scratch::new, |scratch, t| {
        tile_to_sample_scratch(t, variant, LabelSource::Manual, &cfg.label, scratch)
    });
    let loader = DataLoader::new(samples, 8, None);
    let eval = evaluate(model, &loader);
    let mut confusion = ConfusionMatrix::new(cfg.unet.num_classes);
    for (&p, &t) in eval.predictions.iter().zip(&eval.targets) {
        confusion.record(p as usize, t as usize);
    }
    ArmEvaluation {
        report: classification_report(&confusion),
        confusion,
        tiles: tiles.len(),
    }
}

/// Runs the complete workflow: dataset → two models → Table IV arms.
pub fn run_workflow(cfg: &WorkflowConfig) -> WorkflowResult {
    let dataset = Dataset::build(cfg.dataset.clone());
    let mut models = train_models(&dataset, cfg);
    let mut table4 = Vec::new();
    for (labels, model) in [
        (LabelSource::Manual, &mut models.unet_man),
        (LabelSource::Auto, &mut models.unet_auto),
    ] {
        for variant in [InputVariant::Original, InputVariant::Filtered] {
            let eval = evaluate_arm(model, &dataset.validation, variant, cfg);
            table4.push((labels, variant, eval));
        }
    }
    WorkflowResult {
        models,
        dataset,
        table4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> WorkflowConfig {
        WorkflowConfig::smoke()
    }

    #[test]
    fn workflow_runs_end_to_end_and_learns() {
        let cfg = WorkflowConfig {
            train: seaice_unet::TrainConfig {
                epochs: 20,
                learning_rate: 5e-3,
                ..seaice_unet::TrainConfig::default()
            },
            ..smoke_cfg()
        };
        let result = run_workflow(&cfg);
        assert_eq!(result.table4.len(), 4);
        for (labels, variant, eval) in &result.table4 {
            assert!(
                eval.report.accuracy > 0.5,
                "{labels:?}/{variant:?} accuracy {:.3} too low",
                eval.report.accuracy
            );
            assert!(eval.tiles > 0);
        }
    }

    #[test]
    fn evaluate_arm_confusion_totals_match_pixels() {
        let cfg = smoke_cfg();
        let dataset = Dataset::build(cfg.dataset.clone());
        let mut model = UNet::new(cfg.unet);
        let eval = evaluate_arm(
            &mut model,
            &dataset.validation,
            InputVariant::Original,
            &cfg,
        );
        let tile_px = cfg.dataset.tile_size * cfg.dataset.tile_size;
        assert_eq!(
            eval.confusion.total() as usize,
            dataset.validation.len() * tile_px
        );
    }

    #[test]
    fn distributed_workflow_training_learns_like_sequential() {
        let mut cfg = WorkflowConfig::smoke();
        cfg.unet.dropout = 0.0;
        cfg.train.epochs = 6;
        let dataset = Dataset::build(cfg.dataset.clone());
        let (mut dist, reports) = train_models_distributed(&dataset, &cfg, 2);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.ranks == 2));
        // Distributed-trained models evaluate sanely.
        let eval = evaluate_arm(
            &mut dist.unet_man,
            &dataset.validation,
            InputVariant::Filtered,
            &cfg,
        );
        assert!(
            eval.report.accuracy > 0.5,
            "distributed U-Net-Man accuracy {:.3}",
            eval.report.accuracy
        );
    }

    #[test]
    fn training_samples_differ_between_label_sources_on_cloudy_data() {
        let cfg = smoke_cfg();
        let dataset = Dataset::build(cfg.dataset.clone());
        let man = training_samples(&dataset.train, LabelSource::Manual, &cfg);
        let auto = training_samples(&dataset.train, LabelSource::Auto, &cfg);
        let differing = man
            .iter()
            .zip(&auto)
            .filter(|(a, b)| a.mask != b.mask)
            .count();
        assert!(
            differing > 0,
            "auto labels should differ from manual labels somewhere under clouds"
        );
    }
}
