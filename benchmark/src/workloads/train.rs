//! `train_auto`: U-Net training on auto-labels.
//!
//! `Dataset::build(DatasetConfig::scaled(4, 128, 32))`, auto-labels on the
//! train split, then `unet::train_with_optimizer` (cpu_small, dropout 0,
//! batch 8, lr 5e-3, 16 epochs, Adam inside an [`EpochClock`]) and
//! `core::evaluate_arm` on the validation split. The same
//! `nn` layer as `scene_infer`, used differently: backward GEMMs, col2im,
//! batch 8, Adam — a kernel change that speeds forward and slows backward
//! reads better there and worse here. The filter runs in set-up only.
//!
//! One throughput sample per epoch, timed and bracketed by yardstick
//! readings from inside the optimiser the loop is given; the first epoch is
//! the warm-up.

use super::nnops;
use crate::gen::derive;
use crate::harness::{repeat_setup, Ctx, Outcome, DENSE_LOOPS, MIN_REPS};
use crate::noise::{PhaseTimer, Yardstick};
use crate::shapes;
use crate::spans::{self_ms, total_ms};
use crate::stats::median;
use seaice_core::adapters::{tile_to_sample_scratch, InputVariant, LabelSource};
use seaice_core::{evaluate_arm, WorkflowConfig};
use seaice_distrib::{train_distributed, DgxA100Model, DistTrainConfig, ProcessGroup};
use seaice_imgproc::buffer::Scratch;
use seaice_nn::dataloader::{DataLoader, Sample};
use seaice_nn::loss::{pixel_accuracy, softmax_cross_entropy};
use seaice_nn::optim::{Adam, Optimizer};
use seaice_nn::Param;
use seaice_s2::dataset::Dataset;
use seaice_unet::checkpoint::{self, Checkpoint};
use seaice_unet::train::train_with_optimizer;
use seaice_unet::{train, TrainConfig, UNet, UNetConfig};
use std::time::Instant;

const BATCH: usize = 8;
/// Sixteen, not the twelve the issue sketched: at twelve, one seed in a
/// hundred is scored in the middle of a loss spike and misses the floor.
const EPOCHS: usize = 16;
const _: () = assert!(
    EPOCHS > MIN_REPS,
    "one throughput sample per epoch after the first"
);

/// The traced run trains `WALK_ROUNDS` times twice over (library loop, then
/// re-walked), `WALK_EPOCHS` epochs each time.
const WALK_ROUNDS: usize = 3;
const WALK_EPOCHS: usize = 2;

/// 0.05 under the lowest validation accuracy of 112 seeds (the 13
/// validation tiles make it move between seeds); see README.md, "Accuracy
/// floors".
const ACCURACY_FLOOR: f64 = 0.77;

const MAX_UNATTRIBUTED: f64 = 0.10;

/// Two-rank and one-rank training may differ by float reassociation in the
/// gradient mean only.
const MAX_DISTRIB_DIFF: f64 = 1e-2;

/// All-reduce calls timed for `distrib.allreduce.ms_per_call`.
const ALLREDUCE_CALLS: usize = 50;

fn workflow(seed: u64) -> WorkflowConfig {
    let mut cfg = WorkflowConfig::scaled(4, 128, 32, EPOCHS);
    cfg.dataset.seed = derive(seed, 0x500);
    cfg.unet = UNetConfig {
        dropout: 0.0,
        seed: derive(seed, 0x501),
        ..UNetConfig::cpu_small()
    };
    cfg
}

struct Inputs {
    cfg: WorkflowConfig,
    dataset: Dataset,
    samples: Vec<Sample>,
}

fn setup(ctx: &Ctx) -> Inputs {
    let cfg = workflow(ctx.seed);
    let dataset = ctx
        .spans
        .span("s2.dataset", 0, || Dataset::build(cfg.dataset.clone()));
    let mut scratch = Scratch::new();
    let samples = dataset
        .train
        .iter()
        .map(|t| {
            tile_to_sample_scratch(
                t,
                InputVariant::Filtered,
                LabelSource::Auto,
                &cfg.label,
                &mut scratch,
            )
        })
        .collect();
    Inputs {
        cfg,
        dataset,
        samples,
    }
}

fn loader(inputs: &Inputs, seed: u64) -> DataLoader {
    DataLoader::new(inputs.samples.clone(), BATCH, Some(derive(seed, 0x502)))
}

/// Adam, and a clock that strikes at the end of every epoch. The library's
/// loop takes any `Optimizer` (its distributed trainer wraps one the same
/// way), so this is where the benchmark can time an epoch from outside and
/// read the yardstick between two epochs without cutting the 16-epoch call
/// into pieces, which would shuffle differently.
struct EpochClock {
    adam: Adam,
    steps_per_epoch: usize,
    steps: usize,
    yardstick: Yardstick,
    /// The yardstick's reading before the epoch under way, and when that
    /// epoch started.
    before: f64,
    started: Instant,
    /// Wall-clock seconds and host speed of every finished epoch.
    epochs: Vec<(f64, f64)>,
}

impl EpochClock {
    fn start(learning_rate: f32, loader: &DataLoader) -> Self {
        let mut yardstick = Yardstick::new();
        EpochClock {
            adam: Adam::new(learning_rate),
            steps_per_epoch: loader.batches_per_epoch(),
            steps: 0,
            before: yardstick.read(),
            yardstick,
            started: Instant::now(),
            epochs: Vec::new(),
        }
    }
}

impl Optimizer for EpochClock {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.adam.step(params);
        self.steps += 1;
        if self.steps.is_multiple_of(self.steps_per_epoch) {
            let wall = self.started.elapsed().as_secs_f64();
            let after = self.yardstick.read();
            self.epochs
                .push((wall, Yardstick::host_speed(self.before, after)));
            self.before = after;
            self.started = Instant::now();
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        threads_note: "1 driving thread; on the one pinned CPU every conv's rayon-shim loop over the batch runs inline",
        ..Outcome::default()
    };
    let inputs = repeat_setup(&mut out, || setup(ctx));
    let loader = loader(&inputs, ctx.seed);
    let images = loader.len();
    let train_cfg = inputs.cfg.train;

    let mut phase = PhaseTimer::start("train");
    let mut epochs = Vec::new();
    let mut losses = Vec::new();
    let (mut model, attempts) = super::train_converged(inputs.cfg.unet, |model| {
        let mut clock = EpochClock::start(train_cfg.learning_rate, &loader);
        losses = train_with_optimizer(model, &loader, &train_cfg, &mut clock).epoch_losses;
        // The first epoch of each attempt is its warm-up.
        epochs.extend_from_slice(&clock.epochs[1..]);
        losses[EPOCHS - 1]
    });
    phase.observe_threads();
    let eval = evaluate_arm(
        &mut model,
        &inputs.dataset.validation,
        InputVariant::Filtered,
        &inputs.cfg,
    );
    // A faster library leaves time over: keep sampling epochs (the model
    // has been scored already, so these only feed the throughput).
    let one_more = TrainConfig {
        epochs: 1,
        ..train_cfg
    };
    let mut extra = 0usize;
    while phase.elapsed_s() < ctx.seconds {
        let mut clock = EpochClock::start(train_cfg.learning_rate, &loader);
        train_with_optimizer(&mut model, &loader, &one_more, &mut clock);
        epochs.extend(clock.epochs);
        extra += 1;
    }
    out.phases.push(phase.finish());

    for (wall, host_speed) in epochs {
        let adjust = host_speed.powf(DENSE_LOOPS);
        out.tiles_per_s.push(images as f64 / (wall * adjust));
        out.rep_adjust.push(adjust);
    }
    out.accuracy = eval.report.accuracy;
    out.attempted = (images * (EPOCHS * attempts + extra) + eval.tiles) as u64;
    out.require(losses.iter().all(|l| l.is_finite()), || {
        format!("training diverged: losses {losses:?}")
    });
    out.require_floor("validation accuracy", out.accuracy, ACCURACY_FLOOR);
    out.exact.insert("train.images", images as f64);
    out.exact.insert("validation.tiles", eval.tiles as f64);
    out.exact.insert("accuracy", out.accuracy);
    out.exact
        .insert("final_epoch_loss", f64::from(losses[EPOCHS - 1]));
    out
}

fn max_abs_diff(a: &Checkpoint, b: &Checkpoint) -> f64 {
    a.params
        .iter()
        .zip(&b.params)
        .flat_map(|(x, y)| x.as_slice().iter().zip(y.as_slice()))
        .map(|(x, y)| f64::from((x - y).abs()))
        .fold(0.0, f64::max)
}

pub fn trace(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let spans = &ctx.spans;
    let inputs = setup(ctx);
    let loader = loader(&inputs, ctx.seed);
    let walk_cfg = TrainConfig {
        epochs: WALK_EPOCHS,
        ..inputs.cfg.train
    };

    // The library's loop and the same loop re-walked from the public API
    // (one span per call) take turns, each round from a fresh model, so a
    // slow stretch of the host weighs on both; the medians are reported.
    let step_spans = [
        "nn.dataloader",
        "unet.forward_train",
        "nn.loss",
        "unet.backward",
        "nn.adam",
    ];
    let (mut attributed_shares, mut walk_shares) = (Vec::new(), Vec::new());
    let (mut steps, mut images) = (0u64, 0u64);
    let mut unequal = Vec::new();
    let mut model = UNet::new(inputs.cfg.unet);
    for _ in 0..WALK_ROUNDS {
        let mut lib_model = UNet::new(inputs.cfg.unet);
        let t = Instant::now();
        let lib = train(&mut lib_model, &loader, &walk_cfg);
        let plain_ms = t.elapsed().as_secs_f64() * 1e3;

        model = UNet::new(inputs.cfg.unet);
        let mut adam = Adam::new(walk_cfg.learning_rate);
        let mut losses = Vec::with_capacity(WALK_EPOCHS);
        let mark = spans.count();
        let t = Instant::now();
        for epoch in 0..WALK_EPOCHS {
            let batches = spans.span("nn.dataloader", epoch as u64, || loader.epoch(epoch as u64));
            let mut loss_sum = 0f64;
            for batch in &batches {
                spans.span("unet.train.step", steps, || {
                    model.zero_grads();
                    let logits = spans.span("unet.forward_train", steps, || {
                        model.forward(&batch.images, true)
                    });
                    let lo = spans.span("nn.loss", steps, || {
                        let lo = softmax_cross_entropy(&logits, &batch.targets);
                        std::hint::black_box(pixel_accuracy(&lo.predictions, &batch.targets));
                        lo
                    });
                    spans.span("unet.backward", steps, || model.backward(&lo.grad));
                    spans.span("nn.adam", steps, || adam.step(&mut model.params_mut()));
                    loss_sum += f64::from(lo.loss);
                });
                steps += 1;
                images += batch.len() as u64;
            }
            losses.push((loss_sum / batches.len() as f64) as f32);
        }
        walk_shares.push(t.elapsed().as_secs_f64() * 1e3 / plain_ms);
        attributed_shares.push(spans.self_ms_since(mark, &step_spans) / plain_ms);
        let same = losses
            .iter()
            .zip(&lib.epoch_losses)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            unequal.push(format!("{losses:?} vs {:?}", lib.epoch_losses));
        }
    }
    out.attempted = images;
    out.fail_ops(if unequal.is_empty() { 0 } else { images }, || {
        format!(
            "re-walked losses are not bit-equal to unet::train's: {}",
            unequal.join("; ")
        )
    });

    // Backward ops at the model's shapes, one step of 8 images per pass.
    let side = inputs.cfg.dataset.tile_size;
    let sites = shapes::conv_sites(&inputs.cfg.unet, side);
    let ckpt = checkpoint::snapshot(&mut model);
    let op_seed = derive(ctx.seed, 0x503);
    let backward_passes = match nnops::site_data(&ckpt, &sites, op_seed) {
        Ok(data) => nnops::backward(spans, &data, BATCH, op_seed, ctx.seconds / 8.0),
        Err(e) => {
            out.fail(e);
            0
        }
    };

    // The Horovod substitute: two ranks against one at the same global
    // batch, then the bare collective on a parameter-length buffer.
    // One rank sees every sample, two ranks an even count: feed both the
    // same even-sized prefix so the global batches are identical.
    let even = inputs.samples.len() / 2 * 2;
    let dist = |ranks: usize| {
        train_distributed(
            inputs.cfg.unet,
            inputs.samples[..even].to_vec(),
            DistTrainConfig {
                ranks,
                epochs: WALK_EPOCHS,
                batch_size_per_rank: BATCH / ranks,
                learning_rate: walk_cfg.learning_rate,
                shuffle_seed: None,
            },
            &DgxA100Model::dgx_a100(),
        )
    };
    let (mut two, two_report) = spans.span("distrib.train2", 0, || dist(2));
    let (mut one, _) = dist(1);
    let diff = max_abs_diff(
        &checkpoint::snapshot(&mut two),
        &checkpoint::snapshot(&mut one),
    );
    out.attempted += 1;
    out.require(diff <= MAX_DISTRIB_DIFF, || {
        format!("two-rank training drifted {diff:e} from one rank at the same global batch")
    });
    let params = shapes::total_params(&sites);
    {
        let mut ranks = ProcessGroup::new(2);
        let peer = ranks.pop().expect("two ranks");
        let me = ranks.pop().expect("two ranks");
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut buf = vec![1f32; params];
                for _ in 0..ALLREDUCE_CALLS {
                    peer.all_reduce_sum(&mut buf);
                }
            });
            let mut buf = vec![1f32; params];
            spans.span("distrib.allreduce", 0, || {
                for _ in 0..ALLREDUCE_CALLS {
                    me.all_reduce_sum(&mut buf);
                }
            });
        });
    }

    let rows = spans.rollup();
    let per_step = |n: &str| self_ms(&rows, n) / steps as f64;
    out.layer(
        "nn.dataloader.epoch_ms",
        self_ms(&rows, "nn.dataloader") / (WALK_ROUNDS * WALK_EPOCHS) as f64,
    );
    out.layer(
        "unet.forward_train.ms_per_step",
        per_step("unet.forward_train"),
    );
    out.layer("nn.loss.ms_per_step", per_step("nn.loss"));
    out.layer("unet.backward.ms_per_step", per_step("unet.backward"));
    out.layer("nn.adam.ms_per_step", per_step("nn.adam"));
    let unattributed = 1.0 - median(&attributed_shares);
    out.layer("unet.train.unattributed_share", unattributed);
    out.require(unattributed.abs() <= MAX_UNATTRIBUTED, || {
        format!("the train walk leaves {unattributed:.3} of unet::train unattributed")
    });
    out.layer("obs.trace_overhead_share", median(&walk_shares) - 1.0);
    if backward_passes > 0 {
        let per_pass = |n: &str| self_ms(&rows, n) / backward_passes as f64;
        out.layer(
            "nn.conv2d_backward.ms_per_step",
            per_pass("nn.conv2d_backward"),
        );
        out.layer("nn.matmul_at_b.ms_per_step", per_pass("nn.matmul_at_b"));
        out.layer("nn.matmul_a_bt.ms_per_step", per_pass("nn.matmul_a_bt"));
        out.layer("nn.col2im.ms_per_step", per_pass("nn.col2im"));
    }
    let dist_images = (two_report.samples_per_rank * 2 * WALK_EPOCHS) as f64;
    out.layer(
        "distrib.train2.imgs_per_s",
        dist_images / (total_ms(&rows, "distrib.train2") / 1e3),
    );
    // One fused all-reduce per optimiser step, per rank.
    let calls = (two_report.samples_per_rank.div_ceil(BATCH / 2) * WALK_EPOCHS) as f64;
    out.layer(
        "distrib.allreduce.ms_per_call",
        total_ms(&rows, "distrib.allreduce") / ALLREDUCE_CALLS as f64,
    );
    out.layer("distrib.equiv_max_abs_diff", diff);
    for (name, v) in [
        (
            "nn.backward_macs_per_step",
            shapes::backward_macs_per_step(&sites, BATCH) as f64,
        ),
        ("unet.params", params as f64),
        ("train.steps", steps as f64),
        ("train.images", images as f64),
        ("distrib.allreduce.calls", calls),
        ("distrib.allreduce.bytes", calls * (params * 4) as f64),
    ] {
        out.layer(name, v);
        out.exact.insert(name, v);
    }
    out
}
