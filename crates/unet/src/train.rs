//! Training and evaluation loops (Adam + categorical cross-entropy, per
//! the paper's §III-C-1).

use crate::model::UNet;
use seaice_nn::dataloader::DataLoader;
use seaice_nn::loss::{pixel_accuracy, softmax_cross_entropy};
use seaice_nn::optim::{Adam, Optimizer};

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of epochs (the paper reports results at 50).
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Print progress via `log` callback every `n` batches (0 = never).
    pub log_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 50,
            learning_rate: 1e-3,
            log_every: 0,
        }
    }
}

/// Per-epoch training history.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean training pixel accuracy per epoch.
    pub epoch_accuracies: Vec<f64>,
    /// Wall-clock seconds per epoch.
    pub epoch_seconds: Vec<f64>,
    /// Images processed per second, overall.
    pub images_per_sec: f64,
}

/// Trains `model` on `loader` for `cfg.epochs` epochs with Adam.
pub fn train(model: &mut UNet, loader: &DataLoader, cfg: &TrainConfig) -> TrainReport {
    let mut adam = Adam::new(cfg.learning_rate);
    train_with_optimizer(model, loader, cfg, &mut adam)
}

/// Training loop over an arbitrary optimizer (the distributed trainer
/// wraps the optimizer, so it reuses this).
pub fn train_with_optimizer(
    model: &mut UNet,
    loader: &DataLoader,
    cfg: &TrainConfig,
    opt: &mut dyn Optimizer,
) -> TrainReport {
    let mut report = TrainReport::default();
    let mut images = 0usize;
    // seaice-lint: allow(wallclock-in-deterministic-path) reason="wall time feeds only the report's secs fields (the paper's timing tables); batch order and model updates key off the seeded loader"
    let t_start = std::time::Instant::now();
    for epoch in 0..cfg.epochs {
        images += train_epoch(model, loader, epoch, opt, &mut report);
    }
    report.images_per_sec = per_second(images, t_start);
    report
}

/// One epoch over `loader`'s batches (shuffled for `epoch`): a training
/// step on each, then the epoch's mean loss, mean pixel accuracy and wall
/// time pushed onto `report`. Returns the images it trained on.
fn train_epoch(
    model: &mut UNet,
    loader: &DataLoader,
    epoch: usize,
    opt: &mut dyn Optimizer,
    report: &mut TrainReport,
) -> usize {
    // seaice-lint: allow(wallclock-in-deterministic-path) reason="wall time feeds only the report's secs fields (the paper's timing tables); batch order and model updates key off the seeded loader"
    let t_epoch = std::time::Instant::now();
    let (mut loss_sum, mut acc_sum) = (0f64, 0f64);
    let (mut batches, mut images) = (0usize, 0usize);
    for batch in loader.epoch(epoch as u64) {
        model.zero_grads();
        let logits = model.forward(&batch.images, true);
        let lo = softmax_cross_entropy(&logits, &batch.targets);
        model.backward(&lo.grad);
        opt.step(&mut model.params_mut());
        loss_sum += lo.loss as f64;
        acc_sum += pixel_accuracy(&lo.predictions, &batch.targets);
        batches += 1;
        images += batch.len();
    }
    report.epoch_losses.push((loss_sum / batches as f64) as f32);
    report.epoch_accuracies.push(acc_sum / batches as f64);
    report.epoch_seconds.push(t_epoch.elapsed().as_secs_f64());
    images
}

/// `images` over the seconds since `start`; 0 when none passed.
fn per_second(images: usize, start: std::time::Instant) -> f64 {
    let elapsed = start.elapsed().as_secs_f64();
    if elapsed > 0.0 {
        images as f64 / elapsed
    } else {
        0.0
    }
}

/// Evaluation results on a held-out loader.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Overall pixel accuracy.
    pub accuracy: f64,
    /// All per-pixel predictions, in loader order.
    pub predictions: Vec<u8>,
    /// All per-pixel targets, in loader order.
    pub targets: Vec<u8>,
}

/// Evaluates `model` on every batch of `loader` (no shuffling assumed —
/// construct the loader with `shuffle_seed = None` for stable order).
pub fn evaluate(model: &mut UNet, loader: &DataLoader) -> EvalReport {
    let mut loss_sum = 0f64;
    let mut batches = 0usize;
    let mut predictions = Vec::new();
    let mut targets = Vec::new();
    for batch in loader.epoch(0) {
        let logits = model.forward(&batch.images, false);
        let lo = softmax_cross_entropy(&logits, &batch.targets);
        loss_sum += lo.loss as f64;
        batches += 1;
        predictions.extend(lo.predictions);
        targets.extend(batch.targets);
    }
    let accuracy = pixel_accuracy(&predictions, &targets);
    EvalReport {
        loss: (loss_sum / batches.max(1) as f64) as f32,
        accuracy,
        predictions,
        targets,
    }
}

/// Validation-aware training configuration.
#[derive(Clone, Copy, Debug)]
pub struct ValidatedTrainConfig {
    /// Base training settings.
    pub train: TrainConfig,
    /// Evaluate on the validation loader every `n` epochs (≥ 1).
    pub validate_every: usize,
    /// Stop after this many consecutive validations without improvement
    /// in validation accuracy (`0` disables early stopping).
    pub patience: usize,
}

impl Default for ValidatedTrainConfig {
    fn default() -> Self {
        Self {
            train: TrainConfig::default(),
            validate_every: 1,
            patience: 0,
        }
    }
}

/// History of a validated training run.
#[derive(Clone, Debug, Default)]
pub struct ValidatedTrainReport {
    /// Base per-epoch training history (up to the stopping epoch).
    pub train: TrainReport,
    /// `(epoch, validation accuracy)` at each validation point.
    pub validations: Vec<(usize, f64)>,
    /// Epoch whose weights are restored into the model (best validation
    /// accuracy).
    pub best_epoch: usize,
    /// Best validation accuracy.
    pub best_accuracy: f64,
    /// True when early stopping triggered before all epochs ran.
    pub stopped_early: bool,
}

/// Trains with periodic validation, early stopping, and best-checkpoint
/// restoration: the returned model carries the weights of the epoch with
/// the highest validation accuracy, not the last epoch.
///
/// # Panics
/// Panics if `validate_every == 0`.
pub fn train_validated(
    model: &mut UNet,
    train_loader: &DataLoader,
    val_loader: &DataLoader,
    cfg: &ValidatedTrainConfig,
) -> ValidatedTrainReport {
    assert!(cfg.validate_every > 0, "validate_every must be positive");
    let mut adam = Adam::new(cfg.train.learning_rate);
    let mut report = ValidatedTrainReport {
        best_accuracy: f64::NEG_INFINITY,
        ..Default::default()
    };
    let mut best_ckpt = None;
    let mut stale = 0usize;
    // seaice-lint: allow(wallclock-in-deterministic-path) reason="wall time feeds only the report's secs fields (the paper's timing tables); batch order and model updates key off the seeded loader"
    let t_start = std::time::Instant::now();
    let mut images = 0usize;

    for epoch in 0..cfg.train.epochs {
        images += train_epoch(model, train_loader, epoch, &mut adam, &mut report.train);
        if (epoch + 1) % cfg.validate_every == 0 || epoch + 1 == cfg.train.epochs {
            let eval = evaluate(model, val_loader);
            report.validations.push((epoch, eval.accuracy));
            if eval.accuracy > report.best_accuracy {
                report.best_accuracy = eval.accuracy;
                report.best_epoch = epoch;
                best_ckpt = Some(crate::checkpoint::snapshot(model));
                stale = 0;
            } else {
                stale += 1;
                if cfg.patience > 0 && stale >= cfg.patience {
                    report.stopped_early = true;
                    break;
                }
            }
        }
    }

    if let Some(best) = best_ckpt {
        for (p, saved) in model.params_mut().into_iter().zip(best.params) {
            p.value = saved;
        }
    }
    report.train.images_per_sec = per_second(images, t_start);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UNetConfig;
    use seaice_nn::dataloader::Sample;

    /// A trivially learnable dataset: brightness directly encodes the
    /// class, mirroring how the synthetic sea-ice scenes work.
    fn toy_samples(n: usize, side: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let class = (i % 3) as u8;
                let level = match class {
                    0 => 0.9f32,
                    1 => 0.5,
                    _ => 0.05,
                };
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

    fn tiny_net() -> UNet {
        UNet::new(UNetConfig {
            depth: 2,
            // 4 filters sit right on the toy problem's decision boundary
            // for some weight-init streams; 8 converges with margin and
            // keeps the whole module under a second on one core.
            base_filters: 8,
            dropout: 0.0,
            seed: 3,
            ..UNetConfig::paper()
        })
    }

    #[test]
    fn training_learns_the_toy_problem() {
        let mut net = tiny_net();
        let loader = DataLoader::new(toy_samples(12, 8), 4, Some(1));
        let cfg = TrainConfig {
            epochs: 30,
            learning_rate: 5e-3,
            log_every: 0,
        };
        let report = train(&mut net, &loader, &cfg);
        assert_eq!(report.epoch_losses.len(), 30);
        let eval = evaluate(&mut net, &DataLoader::new(toy_samples(6, 8), 4, None));
        assert!(
            eval.accuracy > 0.95,
            "toy problem accuracy {:.3}",
            eval.accuracy
        );
        // Loss must drop substantially from the first epoch.
        assert!(report.epoch_losses.last().unwrap() < &(report.epoch_losses[0] * 0.5));
    }

    #[test]
    fn evaluate_reports_all_pixels() {
        let mut net = tiny_net();
        let loader = DataLoader::new(toy_samples(5, 8), 2, None);
        let eval = evaluate(&mut net, &loader);
        assert_eq!(eval.predictions.len(), 5 * 64);
        assert_eq!(eval.targets.len(), 5 * 64);
        assert!((0.0..=1.0).contains(&eval.accuracy));
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let run = || {
            let mut net = tiny_net();
            let loader = DataLoader::new(toy_samples(6, 8), 2, Some(9));
            let cfg = TrainConfig {
                epochs: 2,
                learning_rate: 1e-3,
                log_every: 0,
            };
            train(&mut net, &loader, &cfg).epoch_losses
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn validated_training_restores_best_weights() {
        let mut net = tiny_net();
        let train_loader = DataLoader::new(toy_samples(12, 8), 4, Some(1));
        let val_loader = DataLoader::new(toy_samples(6, 8), 4, None);
        let report = train_validated(
            &mut net,
            &train_loader,
            &val_loader,
            &ValidatedTrainConfig {
                train: TrainConfig {
                    epochs: 20,
                    learning_rate: 5e-3,
                    log_every: 0,
                },
                validate_every: 2,
                patience: 0,
            },
        );
        assert!(!report.validations.is_empty());
        assert!(
            report.best_accuracy > 0.8,
            "best {:.3}",
            report.best_accuracy
        );
        // The restored model must reproduce the recorded best accuracy.
        let eval = evaluate(&mut net, &val_loader);
        assert!(
            (eval.accuracy - report.best_accuracy).abs() < 1e-9,
            "restored weights accuracy {:.4} vs recorded best {:.4}",
            eval.accuracy,
            report.best_accuracy
        );
    }

    #[test]
    fn early_stopping_halts_training() {
        let mut net = tiny_net();
        // Degenerate validation set identical to training: accuracy will
        // plateau at 1.0 quickly, triggering patience.
        let train_loader = DataLoader::new(toy_samples(12, 8), 4, Some(1));
        let val_loader = DataLoader::new(toy_samples(6, 8), 4, None);
        let report = train_validated(
            &mut net,
            &train_loader,
            &val_loader,
            &ValidatedTrainConfig {
                train: TrainConfig {
                    epochs: 200,
                    learning_rate: 1e-2,
                    log_every: 0,
                },
                validate_every: 1,
                patience: 3,
            },
        );
        assert!(report.stopped_early, "patience should have triggered");
        assert!(
            report.train.epoch_losses.len() < 200,
            "ran all {} epochs despite plateau",
            report.train.epoch_losses.len()
        );
    }

    #[test]
    fn report_tracks_throughput() {
        let mut net = tiny_net();
        let loader = DataLoader::new(toy_samples(4, 8), 2, None);
        let cfg = TrainConfig {
            epochs: 1,
            learning_rate: 1e-3,
            log_every: 0,
        };
        let report = train(&mut net, &loader, &cfg);
        assert!(report.images_per_sec > 0.0);
        assert_eq!(report.epoch_seconds.len(), 1);
    }
}
