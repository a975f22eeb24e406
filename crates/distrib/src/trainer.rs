//! Synchronous data-parallel U-Net training (Fig. 8's "with Horovod"
//! pseudo-code): shard the data, replicate the model per rank, broadcast
//! rank 0's initial weights, and all-reduce-average gradients every step.
//!
//! Two entry points share one engine:
//!
//! * [`train_distributed`] — the strict path: any rank failure panics
//!   (the pre-elastic behavior, bit-identical to earlier releases);
//! * [`train_distributed_elastic`] — fault-tolerant: rank 0 checkpoints
//!   at epoch boundaries, a lost rank unwinds the survivors through the
//!   fallible collectives, and training resumes from the last checkpoint
//!   with the surviving rank set re-sharding the data (Horovod Elastic's
//!   model). The injection point for chaos tests sits right before each
//!   gradient all-reduce.

use crate::group::ProcessGroup;
use crate::optimizer::DistributedOptimizer;
use crate::perfmodel::DgxA100Model;
use seaice_faults::{mix, FaultPlan};
use seaice_nn::dataloader::{DataLoader, Sample};
use seaice_nn::loss::softmax_cross_entropy;
use seaice_nn::optim::Adam;
use seaice_unet::checkpoint::{self, Checkpoint};
use seaice_unet::{UNet, UNetConfig};
use std::sync::{Arc, Mutex};

/// Distributed training configuration.
#[derive(Clone, Copy, Debug)]
pub struct DistTrainConfig {
    /// Data-parallel width (the paper sweeps 1, 2, 4, 6, 8 GPUs).
    pub ranks: usize,
    /// Epochs (paper: 50).
    pub epochs: usize,
    /// Mini-batch size per rank (paper: 32 per GPU).
    pub batch_size_per_rank: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Per-epoch shuffling seed (`None` keeps deterministic order, which
    /// the single-process-equivalence tests rely on).
    pub shuffle_seed: Option<u64>,
}

/// Elastic-recovery knobs for [`train_distributed_elastic`].
#[derive(Clone, Default)]
pub struct ElasticConfig {
    /// Rank 0 snapshots the model every this-many epochs (0 → 1).
    pub checkpoint_every_epochs: usize,
    /// Recovery attempts allowed before giving up (0 → 8). Each rank
    /// failure consumes one generation.
    pub max_generations: usize,
    /// Abort instead of recovering once fewer than this many ranks
    /// survive (0 → 1).
    pub min_ranks: usize,
    /// Start from a prior checkpoint instead of fresh weights — how a
    /// planned resume (or a reference run for recovery tests) enters the
    /// middle of a schedule.
    pub resume: Option<ResumePoint>,
    /// When set, rank 0 also spills every epoch-boundary checkpoint to
    /// `ckpt_epoch_NNNN.json` in this directory through the durable
    /// layer (checksummed, atomic) — the on-disk state a *process*-level
    /// crash restarts from, where the in-memory slot only survives rank
    /// failures. Spill failures are counted in the report, never fatal.
    pub checkpoint_dir: Option<std::path::PathBuf>,
}

/// Where a resumed run picks up.
#[derive(Clone)]
pub struct ResumePoint {
    /// First epoch the resumed run executes.
    pub epoch: usize,
    /// Weights at that epoch boundary.
    pub checkpoint: Checkpoint,
    /// Epoch losses already accumulated before `epoch` (prepended to the
    /// report so trajectories stay comparable).
    pub prior_losses: Vec<f32>,
}

/// Why an elastic run could not finish.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrainError {
    /// `ranks == 0`.
    NoRanks,
    /// Fewer samples than ranks — some shard would be empty.
    NotEnoughSamples {
        /// Usable (non-corrupt) sample count.
        samples: usize,
        /// Requested world size.
        ranks: usize,
    },
    /// Rank failures exhausted the generation budget.
    TooManyFailures {
        /// Generations consumed (initial run + recoveries).
        generations: usize,
    },
    /// The surviving world shrank below `min_ranks`.
    BelowMinRanks {
        /// Ranks left after the latest failure.
        survivors: usize,
        /// Configured floor.
        min_ranks: usize,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NoRanks => f.write_str("need at least one rank"),
            TrainError::NotEnoughSamples { samples, ranks } => {
                write!(f, "fewer samples ({samples}) than ranks ({ranks})")
            }
            TrainError::TooManyFailures { generations } => {
                write!(f, "rank failures exhausted {generations} generations")
            }
            TrainError::BelowMinRanks {
                survivors,
                min_ranks,
            } => write!(
                f,
                "only {survivors} ranks survive, below the configured minimum of {min_ranks}"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

/// Results of a distributed run.
#[derive(Clone, Debug)]
pub struct DistTrainReport {
    /// Rank-0 mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Measured host wall-clock seconds for the whole run.
    pub measured_secs: f64,
    /// Simulated DGX seconds for the whole run (perf model); under
    /// faults this charges every generation, retried epochs included.
    pub simulated_secs: f64,
    /// Simulated throughput (images/s).
    pub simulated_images_per_sec: f64,
    /// Number of ranks used (the initial world size).
    pub ranks: usize,
    /// Samples per rank after equalizing shards (final generation).
    pub samples_per_rank: usize,
    /// Corrupt samples dropped before sharding (see
    /// `DataLoader::skipped`).
    pub skipped_samples: usize,
    /// Training generations executed (1 = no failures).
    pub generations: usize,
    /// Ranks lost to failures across the run.
    pub rank_failures: usize,
    /// Epoch each recovery resumed from (empty when nothing failed).
    pub resumed_from_epochs: Vec<usize>,
    /// World size of the final (successful) generation.
    pub final_ranks: usize,
    /// Epoch checkpoints spilled durably to `checkpoint_dir`.
    pub epoch_checkpoints_spilled: usize,
    /// Spill writes that failed (injected IO faults, full disk); the in-
    /// memory slot stayed authoritative so training continued.
    pub checkpoint_spill_failures: usize,
}

/// The deterministic fault key checked at the `distrib.allreduce` site
/// before rank `rank`'s gradient all-reduce of (`epoch`, `step`) in a
/// world of `world` ranks. Including the world size means a key targeted
/// at the original world cannot re-fire after recovery renumbers a
/// smaller group.
pub fn rank_fault_key(world: usize, rank: usize, epoch: usize, step: usize) -> u64 {
    mix(
        mix(world as u64, rank as u64),
        mix(epoch as u64, step as u64),
    )
}

/// Shards `samples` round-robin across `ranks`, truncating so every rank
/// gets the same count (synchronous SGD requires equal step counts).
fn shard(samples: &[Sample], ranks: usize) -> Vec<Vec<Sample>> {
    let per_rank = samples.len() / ranks;
    let mut shards = vec![Vec::with_capacity(per_rank); ranks];
    for (i, s) in samples.iter().take(per_rank * ranks).enumerate() {
        shards[i % ranks].push(s.clone());
    }
    shards
}

/// Last checkpointed state, shared between rank 0 and the coordinator so
/// a failed generation can resume from the most recent epoch boundary.
struct CheckpointSlot {
    /// First epoch a resume would run.
    next_epoch: usize,
    /// Weights at that boundary (`None` until the first checkpoint —
    /// resume restarts from fresh init).
    ckpt: Option<Checkpoint>,
    /// Epoch losses accumulated up to `next_epoch`.
    losses: Vec<f32>,
}

/// How one rank's generation ended.
enum RankOutcome {
    /// Ran every epoch; rank 0 carries the final snapshot.
    Finished {
        losses: Vec<f32>,
        snapshot: Option<Checkpoint>,
    },
    /// This rank was killed by the fault plan at `epoch`.
    Died { epoch: usize },
    /// A peer vanished; this rank unwound cleanly at `epoch`.
    PeerLost { epoch: usize },
}

/// Trains a U-Net with `cfg.ranks` synchronous data-parallel replicas and
/// returns rank 0's model plus the run report.
///
/// # Panics
/// Panics if there are fewer samples than ranks, or any rank panics.
pub fn train_distributed(
    unet_cfg: UNetConfig,
    samples: Vec<Sample>,
    cfg: DistTrainConfig,
    perf: &DgxA100Model,
) -> (UNet, DistTrainReport) {
    match train_distributed_elastic(
        unet_cfg,
        samples,
        cfg,
        perf,
        ElasticConfig::default(),
        Arc::new(FaultPlan::disabled()),
    ) {
        Ok(out) => out,
        // seaice-lint: allow(panic-in-library) reason="legacy infallible wrapper kept for the non-elastic API; it runs with FaultPlan::disabled(), so the only reachable errors are unusable configs worth crashing on"
        Err(e) => panic!("{e}"),
    }
}

/// Fault-tolerant distributed training. Rank 0 snapshots the model at
/// epoch boundaries (every `elastic.checkpoint_every_epochs`); when a
/// rank dies — in chaos tests, via the `distrib.allreduce` fault site
/// keyed by [`rank_fault_key`] — the survivors unwind through the
/// fallible collectives, the coordinator rebuilds a process group over
/// the surviving world size, re-shards the data, and resumes from the
/// last checkpoint. With no faults this is bit-identical to
/// [`train_distributed`].
///
/// # Errors
/// [`TrainError`] when the configuration is unusable, failures exhaust
/// `max_generations`, or the world shrinks below `min_ranks`.
pub fn train_distributed_elastic(
    unet_cfg: UNetConfig,
    samples: Vec<Sample>,
    cfg: DistTrainConfig,
    perf: &DgxA100Model,
    elastic: ElasticConfig,
    faults: Arc<FaultPlan>,
) -> Result<(UNet, DistTrainReport), TrainError> {
    if cfg.ranks == 0 {
        return Err(TrainError::NoRanks);
    }
    // seaice-lint: allow(wallclock-in-deterministic-path) reason="wall time feeds only DistTrainReport.wall_secs, a diagnostic; training order and outputs key off the simulated clock"
    let t0 = std::time::Instant::now();
    let checkpoint_every = elastic.checkpoint_every_epochs.max(1);
    let max_generations = if elastic.max_generations == 0 {
        8
    } else {
        elastic.max_generations
    };
    let min_ranks = elastic.min_ranks.max(1);

    // Corrupt tiles are dropped (and counted) before sharding so every
    // rank sees a clean, consistent dataset.
    let total_in = samples.len();
    let mut shape: Option<(usize, usize, usize)> = None;
    let samples: Vec<Sample> = samples
        .into_iter()
        .filter(|s| {
            if !s.is_consistent() {
                return false;
            }
            match shape {
                None => {
                    shape = Some(s.shape());
                    true
                }
                Some(sh) => s.shape() == sh,
            }
        })
        .collect();
    let skipped_samples = total_in - samples.len();
    if samples.len() < cfg.ranks {
        return Err(TrainError::NotEnoughSamples {
            samples: samples.len(),
            ranks: cfg.ranks,
        });
    }

    // Durable epoch-checkpoint spill (crash consistency across *process*
    // restarts, not just rank failures). Counters live outside the rank
    // threads so the report can attribute spills across generations.
    let spill_dir = elastic.checkpoint_dir.clone().map(Arc::new);
    let spilled = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let spill_failures = Arc::new(std::sync::atomic::AtomicUsize::new(0));

    let slot = Arc::new(Mutex::new(match elastic.resume {
        Some(r) => CheckpointSlot {
            next_epoch: r.epoch,
            ckpt: Some(r.checkpoint),
            losses: r.prior_losses,
        },
        None => CheckpointSlot {
            next_epoch: 0,
            ckpt: None,
            losses: Vec::new(),
        },
    }));

    let mut world = cfg.ranks;
    let mut generations = 0usize;
    let mut rank_failures = 0usize;
    let mut resumed_from_epochs = Vec::new();
    let mut simulated_secs = 0.0f64;

    // Observability: generations land on the *simulated* DGX timeline —
    // a ManualClock advanced by each generation's perf-model seconds —
    // so this crate never reads the wall clock for tracing (the Clock
    // split seaice-obs exists for). Instruments are inert unless the
    // process enabled metrics/tracing.
    let sim_clock = Arc::new(seaice_obs::ManualClock::new());
    let trace =
        seaice_obs::trace::tracer_with_clock(Arc::clone(&sim_clock) as Arc<dyn seaice_obs::Clock>);
    let obs = seaice_obs::metrics();
    let ctr_generations = obs.counter("distrib.generations");
    let ctr_rank_failures = obs.counter("distrib.rank_failures");
    let gauge_ips = obs.gauge("distrib.images_per_sec");

    loop {
        if generations >= max_generations {
            return Err(TrainError::TooManyFailures { generations });
        }
        generations += 1;

        let (start_epoch, init, prior_losses) = {
            let s = slot.lock().unwrap_or_else(|e| e.into_inner());
            (s.next_epoch, s.ckpt.clone().map(Arc::new), s.losses.clone())
        };
        let shards = shard(&samples, world);
        let samples_per_rank = shards[0].len();
        let ranks = ProcessGroup::new(world);

        let handles: Vec<_> = ranks
            .into_iter()
            .zip(shards)
            .map(|(rank, shard)| {
                let init = init.clone();
                let faults = Arc::clone(&faults);
                let slot = Arc::clone(&slot);
                let prior_losses = prior_losses.clone();
                let spill_dir = spill_dir.clone();
                let spilled = Arc::clone(&spilled);
                let spill_failures = Arc::clone(&spill_failures);
                std::thread::spawn(move || {
                    let r = rank.rank();
                    let w = rank.size();
                    let mut model = match &init {
                        Some(ckpt) => checkpoint::restore(ckpt),
                        None => UNet::new(unet_cfg),
                    };
                    // Broadcast initial weights from rank 0 (the
                    // `BroadcastGlobalVariablesCallback(0)` step). With a
                    // shared seed or checkpoint this is a no-op, but it
                    // guarantees identical replicas even if per-rank init
                    // ever diverges.
                    {
                        let mut params = model.params_mut();
                        let total: usize = params.iter().map(|p| p.value.len()).sum();
                        let mut fused = Vec::with_capacity(total);
                        for p in params.iter() {
                            fused.extend_from_slice(p.value.as_slice());
                        }
                        rank.broadcast(&mut fused, 0);
                        let mut off = 0;
                        for p in params.iter_mut() {
                            let len = p.value.len();
                            p.value
                                .as_mut_slice()
                                .copy_from_slice(&fused[off..off + len]);
                            off += len;
                        }
                    }

                    let loader = DataLoader::new(
                        shard,
                        cfg.batch_size_per_rank,
                        cfg.shuffle_seed.map(|s| s ^ r as u64),
                    );
                    let adam = Adam::new(cfg.learning_rate);
                    let mut opt = DistributedOptimizer::new(adam, &rank);
                    let mut epoch_losses = Vec::with_capacity(cfg.epochs - start_epoch);
                    for epoch in start_epoch..cfg.epochs {
                        let mut loss_sum = 0f64;
                        let mut batches = 0usize;
                        for (step, batch) in loader.epoch(epoch as u64).into_iter().enumerate() {
                            // The RankFailure injection point: this rank
                            // drops out right where the gradient
                            // all-reduce would begin, exactly how a lost
                            // node manifests to the ring.
                            if faults
                                .maybe_fail("distrib.allreduce", rank_fault_key(w, r, epoch, step))
                                .is_err()
                            {
                                return (r, RankOutcome::Died { epoch });
                            }
                            model.zero_grads();
                            let logits = model.forward(&batch.images, true);
                            let lo = softmax_cross_entropy(&logits, &batch.targets);
                            model.backward(&lo.grad);
                            if opt.try_step(&mut model.params_mut()).is_err() {
                                return (r, RankOutcome::PeerLost { epoch });
                            }
                            loss_sum += lo.loss as f64;
                            batches += 1;
                        }
                        epoch_losses.push((loss_sum / batches.max(1) as f64) as f32);
                        // Rank 0 owns checkpointing: after it finishes an
                        // epoch, every rank applied the same averaged
                        // gradients, so its weights ARE the global state.
                        if r == 0 && (epoch + 1) % checkpoint_every == 0 {
                            let snap = checkpoint::snapshot(&mut model);
                            {
                                let mut s = slot.lock().unwrap_or_else(|e| e.into_inner());
                                s.next_epoch = epoch + 1;
                                s.ckpt = Some(snap.clone());
                                s.losses = prior_losses
                                    .iter()
                                    .chain(epoch_losses.iter())
                                    .copied()
                                    .collect();
                            }
                            // Spill the same snapshot durably when a
                            // checkpoint directory was configured. A
                            // failed spill leaves the previous file
                            // intact (atomic rename), so it is counted,
                            // not fatal.
                            if let Some(dir) = &spill_dir {
                                let path = dir.join(format!("ckpt_epoch_{:04}.json", epoch + 1));
                                let ctx = seaice_obs::durable::DurableCtx::with_faults(Arc::clone(
                                    &faults,
                                ));
                                match checkpoint::save_checkpoint_payload(&snap, &path, &ctx) {
                                    Ok(()) => {
                                        spilled.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                    }
                                    Err(_) => {
                                        spill_failures
                                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                    }
                    let snapshot = if r == 0 {
                        Some(checkpoint::snapshot(&mut model))
                    } else {
                        None
                    };
                    (
                        r,
                        RankOutcome::Finished {
                            losses: epoch_losses,
                            snapshot,
                        },
                    )
                })
            })
            .collect();

        let mut outcomes = Vec::with_capacity(world);
        for h in handles {
            // seaice-lint: allow(panic-in-library) reason="rank bodies catch injected faults and return RankOutcome::Died; a panic escaping to join() means the containment itself broke, which must not be silently absorbed"
            outcomes.push(h.join().expect("a rank panicked"));
        }

        let died: Vec<usize> = outcomes
            .iter()
            .filter_map(|(r, o)| matches!(o, RankOutcome::Died { .. }).then_some(*r))
            .collect();
        let failed_epoch = outcomes
            .iter()
            .filter_map(|(_, o)| match o {
                RankOutcome::Died { epoch } | RankOutcome::PeerLost { epoch } => Some(*epoch),
                RankOutcome::Finished { .. } => None,
            })
            .min();

        match failed_epoch {
            None => {
                // Clean generation: assemble the final model and report.
                let mut rank0_losses = Vec::new();
                let mut rank0_model = None;
                for (r, o) in outcomes {
                    if r == 0 {
                        if let RankOutcome::Finished { losses, snapshot } = o {
                            rank0_losses = losses;
                            rank0_model = snapshot;
                        }
                    }
                }
                // seaice-lint: allow(panic-in-library) reason="in a clean generation every rank Finished, and rank 0 always attaches its snapshot to Finished; a None is a coordinator bug, not a runtime condition"
                let model = checkpoint::restore(&rank0_model.expect("rank 0 snapshot missing"));
                let gen_secs = perf.total_time(world, cfg.epochs - start_epoch);
                simulated_secs += gen_secs;
                ctr_generations.incr(1);
                gauge_ips.set(perf.images_per_sec(cfg.ranks));
                if trace.is_enabled() {
                    let dur_us = (gen_secs * 1e6) as u64;
                    let end_us = sim_clock.advance_us(dur_us);
                    trace.complete_with_args(
                        "distrib.generation",
                        "distrib",
                        end_us.saturating_sub(dur_us),
                        dur_us,
                        &[
                            ("generation", &generations.to_string()),
                            ("world", &world.to_string()),
                            ("ok", "true"),
                        ],
                    );
                }
                let epoch_losses: Vec<f32> = prior_losses.into_iter().chain(rank0_losses).collect();
                let report = DistTrainReport {
                    epoch_losses,
                    measured_secs: t0.elapsed().as_secs_f64(),
                    simulated_secs,
                    simulated_images_per_sec: perf.images_per_sec(cfg.ranks),
                    ranks: cfg.ranks,
                    samples_per_rank,
                    skipped_samples,
                    generations,
                    rank_failures,
                    resumed_from_epochs,
                    final_ranks: world,
                    epoch_checkpoints_spilled: spilled.load(std::sync::atomic::Ordering::Relaxed),
                    checkpoint_spill_failures: spill_failures
                        .load(std::sync::atomic::Ordering::Relaxed),
                };
                return Ok((model, report));
            }
            Some(epoch) => {
                // Charge the epochs this generation actually attempted
                // (the partial epoch counts — the cluster ran it).
                let gen_secs = perf.total_time(world, epoch - start_epoch + 1);
                simulated_secs += gen_secs;
                ctr_generations.incr(1);
                ctr_rank_failures.incr(died.len() as u64);
                rank_failures += died.len();
                if trace.is_enabled() {
                    let dur_us = (gen_secs * 1e6) as u64;
                    let end_us = sim_clock.advance_us(dur_us);
                    trace.complete_with_args(
                        "distrib.generation",
                        "distrib",
                        end_us.saturating_sub(dur_us),
                        dur_us,
                        &[
                            ("generation", &generations.to_string()),
                            ("world", &world.to_string()),
                            ("ok", "false"),
                        ],
                    );
                }
                let survivors = world - died.len();
                if survivors < min_ranks {
                    return Err(TrainError::BelowMinRanks {
                        survivors,
                        min_ranks,
                    });
                }
                world = survivors;
                let resume_epoch = slot.lock().unwrap_or_else(|e| e.into_inner()).next_epoch;
                resumed_from_epochs.push(resume_epoch);
                trace.instant(
                    "distrib.recovery",
                    "distrib",
                    &[
                        ("survivors", &survivors.to_string()),
                        ("resume_epoch", &resume_epoch.to_string()),
                        ("ranks_lost", &died.len().to_string()),
                    ],
                );
            }
        }
    }
}

/// Scans `dir` for durably spilled `ckpt_epoch_NNNN.json` files and
/// returns the highest-epoch checkpoint that passes verification, with
/// its epoch number. Corrupt or unreadable files are skipped — a torn or
/// bit-flipped spill must never win over an older intact one — so this
/// is the process-restart entry point pairing with
/// [`ElasticConfig::checkpoint_dir`]: feed the result into
/// [`ResumePoint`] to continue a killed run.
///
/// # Errors
/// Only when `dir` itself cannot be listed; individual bad files are not
/// errors.
pub fn latest_spilled_checkpoint(
    dir: &std::path::Path,
    ctx: &seaice_obs::durable::DurableCtx,
) -> std::io::Result<Option<(usize, Checkpoint)>> {
    let mut best: Option<(usize, Checkpoint)> = None;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(num) = name
            .strip_prefix("ckpt_epoch_")
            .and_then(|s| s.strip_suffix(".json"))
        else {
            continue;
        };
        let Ok(epoch) = num.parse::<usize>() else {
            continue;
        };
        if best.as_ref().is_some_and(|(e, _)| *e >= epoch) {
            continue;
        }
        if let Ok(ckpt) = checkpoint::read_checkpoint(&entry.path(), ctx) {
            best = Some((epoch, ckpt));
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaice_faults::FaultAction;
    use seaice_unet::train::{train, TrainConfig};

    fn toy_samples(n: usize, side: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let class = (i % 3) as u8;
                let level = [0.9f32, 0.5, 0.05][class as usize];
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

    fn tiny_cfg() -> UNetConfig {
        UNetConfig {
            depth: 1,
            base_filters: 4,
            dropout: 0.0,
            seed: 11,
            ..UNetConfig::paper()
        }
    }

    fn weights(model: &mut UNet) -> Vec<f32> {
        model
            .params_mut()
            .iter()
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect()
    }

    #[test]
    fn distributed_equals_single_process_large_batch() {
        // 2 ranks × batch 2 must equal 1 process × batch 4: round-robin
        // shards make the union of per-rank step-k batches exactly the
        // single-process step-k batch, and averaged gradients match.
        let samples = toy_samples(8, 8);
        let dist_cfg = DistTrainConfig {
            ranks: 2,
            epochs: 2,
            batch_size_per_rank: 2,
            learning_rate: 1e-3,
            shuffle_seed: None,
        };
        let (mut dist_model, _) = train_distributed(
            tiny_cfg(),
            samples.clone(),
            dist_cfg,
            &DgxA100Model::dgx_a100(),
        );

        let mut single = UNet::new(tiny_cfg());
        let loader = DataLoader::new(samples, 4, None);
        train(
            &mut single,
            &loader,
            &TrainConfig {
                epochs: 2,
                learning_rate: 1e-3,
                log_every: 0,
            },
        );

        let x = seaice_nn::init::uniform(&[1, 3, 8, 8], 0.0, 1.0, 5);
        let yd = dist_model.forward(&x, false);
        let ys = single.forward(&x, false);
        let max_diff = yd
            .as_slice()
            .iter()
            .zip(ys.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0f32, f32::max);
        assert!(
            max_diff < 1e-3,
            "distributed and single-process outputs diverged by {max_diff}"
        );
    }

    #[test]
    fn distributed_training_is_deterministic() {
        let run = || {
            let (_, report) = train_distributed(
                tiny_cfg(),
                toy_samples(8, 8),
                DistTrainConfig {
                    ranks: 4,
                    epochs: 2,
                    batch_size_per_rank: 1,
                    learning_rate: 1e-3,
                    shuffle_seed: Some(3),
                },
                &DgxA100Model::dgx_a100(),
            );
            report.epoch_losses
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn distributed_training_learns() {
        let (mut model, report) = train_distributed(
            tiny_cfg(),
            toy_samples(12, 8),
            DistTrainConfig {
                ranks: 2,
                // 15 epochs leaves the 4-filter net right at the decision
                // boundary on some weight-init streams; 30 converges with
                // margin and still runs in well under a second.
                epochs: 30,
                batch_size_per_rank: 2,
                learning_rate: 5e-3,
                shuffle_seed: Some(1),
            },
            &DgxA100Model::dgx_a100(),
        );
        assert!(report.epoch_losses.last().unwrap() < &report.epoch_losses[0]);
        // Predict on a bright (thick-ice-like) input.
        let x = seaice_nn::Tensor::full(&[1, 3, 8, 8], 0.9);
        let preds = model.predict(&x);
        let thick = preds.iter().filter(|&&c| c == 0).count();
        assert!(
            thick > 48,
            "bright input should classify mostly thick, got {thick}/64"
        );
    }

    #[test]
    fn shards_are_equal_sized_and_cover_prefix() {
        let samples = toy_samples(10, 8);
        let shards = shard(&samples, 3);
        assert_eq!(shards.len(), 3);
        assert!(shards.iter().all(|s| s.len() == 3));
    }

    #[test]
    fn report_carries_simulated_dgx_times() {
        let (_, report) = train_distributed(
            tiny_cfg(),
            toy_samples(8, 8),
            DistTrainConfig {
                ranks: 8,
                epochs: 1,
                batch_size_per_rank: 1,
                learning_rate: 1e-3,
                shuffle_seed: None,
            },
            &DgxA100Model::dgx_a100(),
        );
        let expected = DgxA100Model::dgx_a100().total_time(8, 1);
        assert!((report.simulated_secs - expected).abs() < 1e-9);
        assert_eq!(report.ranks, 8);
        assert_eq!(report.samples_per_rank, 1);
        assert_eq!(report.generations, 1);
        assert_eq!(report.rank_failures, 0);
        assert_eq!(report.final_ranks, 8);
    }

    #[test]
    fn corrupt_samples_are_skipped_and_reported() {
        let mut samples = toy_samples(9, 8);
        samples[4].image.truncate(10); // torn tile
        let (_, report) = train_distributed(
            tiny_cfg(),
            samples,
            DistTrainConfig {
                ranks: 2,
                epochs: 1,
                batch_size_per_rank: 2,
                learning_rate: 1e-3,
                shuffle_seed: None,
            },
            &DgxA100Model::dgx_a100(),
        );
        assert_eq!(report.skipped_samples, 1);
        assert_eq!(report.samples_per_rank, 4);
    }

    #[test]
    fn elastic_errors_are_descriptive() {
        let e = train_distributed_elastic(
            tiny_cfg(),
            toy_samples(2, 8),
            DistTrainConfig {
                ranks: 4,
                epochs: 1,
                batch_size_per_rank: 1,
                learning_rate: 1e-3,
                shuffle_seed: None,
            },
            &DgxA100Model::dgx_a100(),
            ElasticConfig::default(),
            Arc::new(FaultPlan::disabled()),
        );
        let e = match e {
            Err(e) => e,
            Ok(_) => panic!("expected an error"),
        };
        assert_eq!(
            e,
            TrainError::NotEnoughSamples {
                samples: 2,
                ranks: 4
            }
        );
        assert!(e.to_string().contains("fewer samples"));
    }

    #[test]
    fn rank_failure_recovers_and_matches_planned_resume() {
        // Chaos run: 4 ranks, rank 3 dies entering epoch 1 step 0 (an
        // epoch boundary, so no training step is lost). The run must
        // recover onto 3 ranks from the epoch-1 checkpoint and finish.
        let total_epochs = 3usize;
        let cfg = |ranks| DistTrainConfig {
            ranks,
            epochs: total_epochs,
            batch_size_per_rank: 2,
            learning_rate: 2e-3,
            shuffle_seed: Some(7),
        };
        let samples = toy_samples(12, 8);
        let plan = FaultPlan::seeded(5).fail_keys(
            "distrib.allreduce",
            &[rank_fault_key(4, 3, 1, 0)],
            FaultAction::Error,
        );
        let (mut chaos_model, chaos_report) = train_distributed_elastic(
            tiny_cfg(),
            samples.clone(),
            cfg(4),
            &DgxA100Model::dgx_a100(),
            ElasticConfig::default(),
            Arc::new(plan),
        )
        .unwrap();
        assert_eq!(chaos_report.generations, 2);
        assert_eq!(chaos_report.rank_failures, 1);
        assert_eq!(chaos_report.resumed_from_epochs, vec![1]);
        assert_eq!(chaos_report.final_ranks, 3);
        assert_eq!(chaos_report.epoch_losses.len(), total_epochs);

        // Reference: the same schedule run on purpose — 4 ranks for
        // epoch 0, then a planned resume on 3 ranks for epochs 1..3.
        let (mut phase1, r1) = train_distributed_elastic(
            tiny_cfg(),
            samples.clone(),
            DistTrainConfig {
                epochs: 1,
                ..cfg(4)
            },
            &DgxA100Model::dgx_a100(),
            ElasticConfig::default(),
            Arc::new(FaultPlan::disabled()),
        )
        .unwrap();
        let (mut reference, r2) = train_distributed_elastic(
            tiny_cfg(),
            samples,
            cfg(3),
            &DgxA100Model::dgx_a100(),
            ElasticConfig {
                resume: Some(ResumePoint {
                    epoch: 1,
                    checkpoint: checkpoint::snapshot(&mut phase1),
                    prior_losses: r1.epoch_losses.clone(),
                }),
                ..ElasticConfig::default()
            },
            Arc::new(FaultPlan::disabled()),
        )
        .unwrap();
        assert_eq!(
            chaos_report.epoch_losses, r2.epoch_losses,
            "recovered loss trajectory must match the planned resume"
        );
        assert_eq!(
            weights(&mut chaos_model),
            weights(&mut reference),
            "recovered weights must be bit-identical to the planned resume"
        );
    }

    #[test]
    fn elastic_without_faults_is_bit_identical_to_strict() {
        let cfg = DistTrainConfig {
            ranks: 3,
            epochs: 2,
            batch_size_per_rank: 2,
            learning_rate: 1e-3,
            shuffle_seed: Some(9),
        };
        let (mut strict, strict_report) = train_distributed(
            tiny_cfg(),
            toy_samples(9, 8),
            cfg,
            &DgxA100Model::dgx_a100(),
        );
        let (mut elastic, elastic_report) = train_distributed_elastic(
            tiny_cfg(),
            toy_samples(9, 8),
            cfg,
            &DgxA100Model::dgx_a100(),
            ElasticConfig {
                checkpoint_every_epochs: 1,
                ..ElasticConfig::default()
            },
            Arc::new(FaultPlan::disabled()),
        )
        .unwrap();
        assert_eq!(weights(&mut strict), weights(&mut elastic));
        assert_eq!(strict_report.epoch_losses, elastic_report.epoch_losses);
        assert_eq!(strict_report.simulated_secs, elastic_report.simulated_secs);
    }

    #[test]
    fn elastic_runs_emit_sim_clock_generation_events_and_counters() {
        seaice_obs::trace::enable();
        let m = seaice_obs::enable_metrics();
        let before = m.counter("distrib.generations").get();
        // Rank 2 of 3 dies entering epoch 1, forcing a recovery.
        let plan = FaultPlan::seeded(8).fail_keys(
            "distrib.allreduce",
            &[rank_fault_key(3, 2, 1, 0)],
            FaultAction::Error,
        );
        let (_, report) = train_distributed_elastic(
            tiny_cfg(),
            toy_samples(9, 8),
            DistTrainConfig {
                ranks: 3,
                epochs: 2,
                batch_size_per_rank: 2,
                learning_rate: 1e-3,
                shuffle_seed: Some(4),
            },
            &DgxA100Model::dgx_a100(),
            ElasticConfig::default(),
            Arc::new(plan),
        )
        .unwrap();
        assert_eq!(report.generations, 2);
        assert!(m.counter("distrib.generations").get() >= before + 2);
        assert!(m.counter("distrib.rank_failures").get() >= 1);
        assert!(m.gauge("distrib.images_per_sec").get() > 0.0);
        let json = seaice_obs::trace::export_chrome_json();
        assert!(json.contains("\"name\": \"distrib.generation\""), "{json}");
        assert!(json.contains("\"name\": \"distrib.recovery\""), "{json}");
        seaice_obs::trace::validate_chrome_trace(&json).expect("valid chrome trace");
    }

    #[test]
    fn below_min_ranks_aborts_with_error() {
        // Both surviving... all four ranks die at once: world would drop
        // to 2, below the floor of 3.
        let plan = FaultPlan::seeded(6).fail_keys(
            "distrib.allreduce",
            &[rank_fault_key(4, 1, 0, 0), rank_fault_key(4, 2, 0, 0)],
            FaultAction::Error,
        );
        let e = train_distributed_elastic(
            tiny_cfg(),
            toy_samples(8, 8),
            DistTrainConfig {
                ranks: 4,
                epochs: 2,
                batch_size_per_rank: 1,
                learning_rate: 1e-3,
                shuffle_seed: None,
            },
            &DgxA100Model::dgx_a100(),
            ElasticConfig {
                min_ranks: 3,
                ..ElasticConfig::default()
            },
            Arc::new(plan),
        );
        let e = match e {
            Err(e) => e,
            Ok(_) => panic!("expected an error"),
        };
        assert_eq!(
            e,
            TrainError::BelowMinRanks {
                survivors: 2,
                min_ranks: 3
            }
        );
    }

    #[test]
    fn epoch_checkpoints_spill_durably_and_latest_restores_final_weights() {
        let dir = std::env::temp_dir().join(format!("seaice-distrib-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let (mut model, report) = train_distributed_elastic(
            tiny_cfg(),
            toy_samples(8, 8),
            DistTrainConfig {
                ranks: 2,
                epochs: 3,
                batch_size_per_rank: 2,
                learning_rate: 1e-3,
                shuffle_seed: Some(9),
            },
            &DgxA100Model::dgx_a100(),
            ElasticConfig {
                checkpoint_every_epochs: 1,
                checkpoint_dir: Some(dir.clone()),
                ..ElasticConfig::default()
            },
            Arc::new(FaultPlan::disabled()),
        )
        .unwrap();
        assert_eq!(report.epoch_checkpoints_spilled, 3);
        assert_eq!(report.checkpoint_spill_failures, 0);

        let ctx = seaice_obs::durable::DurableCtx::disabled();
        let (epoch, ckpt) = latest_spilled_checkpoint(&dir, &ctx)
            .unwrap()
            .expect("a spilled checkpoint");
        assert_eq!(epoch, 3);
        let mut restored = checkpoint::restore(&ckpt);
        assert_eq!(weights(&mut restored), weights(&mut model));

        // A corrupt highest-epoch spill must lose to the older intact one
        // — recovery never trusts an unverifiable file.
        let newest = dir.join("ckpt_epoch_0003.json");
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();
        let (epoch, _) = latest_spilled_checkpoint(&dir, &ctx)
            .unwrap()
            .expect("an older intact checkpoint");
        assert_eq!(epoch, 2);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
