//! Tier-1 chaos suite: each execution layer runs under a seeded
//! [`FaultPlan`] that kills at least one executor, one training rank, and
//! one serving replica mid-run — and must still complete with results
//! matching a fault-free (or planned-resume) reference. Every fault is
//! deterministic: the plan decides from `(seed, site, key)` alone, so the
//! same executor dies on the same task every run.

use seaice::distrib::{
    rank_fault_key, train_distributed_elastic, DgxA100Model, DistTrainConfig, ElasticConfig,
    ResumePoint,
};
use seaice::faults::{mix, FaultAction, FaultPlan};
use seaice::imgproc::buffer::Image;
use seaice::mapreduce::{ClusterSpec, CostModel, RunPolicy, Session};
use seaice::nn::dataloader::Sample;
use seaice::s2::synth::{generate, SceneConfig};
use seaice::serve::{tile_key, Engine, EngineConfig};
use seaice::unet::checkpoint::snapshot;
use seaice::unet::{UNet, UNetConfig};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// mapreduce: a dead executor is blacklisted; the job's output set is
// unchanged.
// ---------------------------------------------------------------------

fn scramble(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

#[test]
fn mapreduce_survives_a_killed_executor_with_identical_output() {
    let data: Vec<u64> = (0..64).collect();

    // Fault-free reference through the strict path.
    let s = Session::new(ClusterSpec::new(4, 2).unwrap(), CostModel::gcd_n2());
    let (df, _) = s.read(data.clone(), 8.0);
    let (lazy, _) = df.map(&s, scramble);
    let (want, _) = lazy.collect(&s, 8.0);

    // Chaos run: executor 1 panics on every task it touches until the
    // scheduler blacklists it and reroutes the retries. Retries only: a
    // wall-clock straggler duplicate on a busy host would add attempts
    // that say nothing about recovery.
    let faults = Arc::new(FaultPlan::seeded(0xC0FFEE).fail_keys(
        "mapreduce.executor",
        &[1],
        FaultAction::Panic,
    ));
    let policy = RunPolicy {
        speculation: None,
        ..RunPolicy::resilient()
    };
    let s = Session::new(ClusterSpec::new(4, 2).unwrap(), CostModel::gcd_n2());
    let (df, _) = s.read(data, 8.0);
    let (lazy, _) = df.map(&s, scramble);
    let (got, report, ft) = lazy
        .collect_ft(&s, 8.0, policy, Arc::clone(&faults))
        .expect("the job must survive one dead executor out of four");

    assert_eq!(got, want, "fault-tolerant output must match fault-free");
    // The first dispatch deals the 64 tasks round-robin, so executor 1
    // holds 16 and each fails once. Until its second failure
    // (`blacklist_after`) it is still eligible, so the one retry
    // dispatched before then may land on it again: 16 or 17 kills. Every
    // kill is retried, and no third attempt can reach a blacklisted
    // executor, so recoveries equal injections.
    let fired = faults.injections_fired() as usize;
    assert!((16..=17).contains(&fired), "{fired} injections: {ft:?}");
    assert_eq!(ft.failures, fired);
    assert_eq!(ft.retries, fired, "every kill must be retried");
    assert_eq!(ft.blacklisted, [1], "the dead executor must be blacklisted");
    assert_eq!(ft.speculative, 0);
    assert_eq!(ft.attempts, ft.tasks + ft.retries);
    // The simulated clock charges the wasted attempts: a chaos run can
    // never be cheaper than its own useful work.
    assert_eq!(ft.attempt_costs.len(), ft.attempts);
    assert!(report.simulated_secs > 0.0);
}

// ---------------------------------------------------------------------
// distrib: a rank dies mid-epoch; training resumes from the last
// checkpoint with the survivors and lands exactly where a planned
// shrink-and-resume run lands.
// ---------------------------------------------------------------------

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

fn tiny_unet_cfg() -> UNetConfig {
    UNetConfig {
        depth: 1,
        base_filters: 4,
        dropout: 0.0,
        seed: 23,
        ..UNetConfig::paper()
    }
}

#[test]
fn trainer_recovers_from_a_killed_rank_matching_a_planned_resume() {
    let samples = toy_samples(12, 8);
    let perf = DgxA100Model::dgx_a100();
    let cfg = |ranks: usize, epochs: usize| DistTrainConfig {
        ranks,
        epochs,
        batch_size_per_rank: 2,
        learning_rate: 1e-3,
        shuffle_seed: Some(5),
    };

    // Chaos run: 3 ranks, rank 2 hits an injected transient fault right
    // before its (epoch 1, step 0) all-reduce. Rank 0 checkpointed at the
    // epoch-0 boundary, so recovery re-shards over 2 ranks and resumes
    // from epoch 1.
    let faults = Arc::new(FaultPlan::seeded(7).fail_keys(
        "distrib.allreduce",
        &[rank_fault_key(3, 2, 1, 0)],
        FaultAction::Error,
    ));
    let (mut chaos_model, chaos) = train_distributed_elastic(
        tiny_unet_cfg(),
        samples.clone(),
        cfg(3, 3),
        &perf,
        ElasticConfig {
            checkpoint_every_epochs: 1,
            ..ElasticConfig::default()
        },
        Arc::clone(&faults),
    )
    .expect("training must survive one lost rank");

    assert_eq!(faults.injections_fired(), 1);
    assert_eq!(chaos.generations, 2);
    assert_eq!(chaos.rank_failures, 1);
    assert_eq!(chaos.resumed_from_epochs, vec![1]);
    assert_eq!(chaos.final_ranks, 2);
    assert_eq!(chaos.epoch_losses.len(), 3);

    // Planned-resume reference, built with the public API only: epoch 0
    // on 3 ranks, snapshot, then epochs 1..3 on 2 ranks from that
    // checkpoint. The recovered run must match it bit for bit.
    let (mut head, head_report) = train_distributed_elastic(
        tiny_unet_cfg(),
        samples.clone(),
        cfg(3, 1),
        &perf,
        ElasticConfig::default(),
        Arc::new(FaultPlan::disabled()),
    )
    .expect("reference head run");
    let (mut planned_model, planned) = train_distributed_elastic(
        tiny_unet_cfg(),
        samples,
        cfg(2, 3),
        &perf,
        ElasticConfig {
            resume: Some(ResumePoint {
                epoch: 1,
                checkpoint: snapshot(&mut head),
                prior_losses: head_report.epoch_losses,
            }),
            ..ElasticConfig::default()
        },
        Arc::new(FaultPlan::disabled()),
    )
    .expect("reference resume run");

    assert_eq!(
        chaos.epoch_losses, planned.epoch_losses,
        "recovered loss trajectory must match the planned resume"
    );
    let x = seaice::nn::init::uniform(&[1, 3, 8, 8], 0.0, 1.0, 77);
    assert_eq!(
        chaos_model.forward(&x, false),
        planned_model.forward(&x, false),
        "recovered weights must match the planned resume bit for bit"
    );
}

// ---------------------------------------------------------------------
// serve: a replica panics mid-batch; the supervisor restores a fresh one
// from the checkpoint and every accepted request is answered
// bit-identically.
// ---------------------------------------------------------------------

#[test]
fn serve_survives_a_killed_replica_answering_bit_identically() {
    let mut model = UNet::new(UNetConfig {
        depth: 1,
        base_filters: 4,
        dropout: 0.0,
        seed: 29,
        ..UNetConfig::paper()
    });
    let ckpt = snapshot(&mut model);
    let tiles: Vec<Image<u8>> = (0..6u64)
        .map(|i| generate(&SceneConfig::tiny(16), 500 + i).rgb)
        .collect();

    // Kill the (single) replica on the first attempt at tile 0.
    let faults = Arc::new(FaultPlan::seeded(9).fail_keys(
        "serve.worker",
        &[mix(tile_key(&tiles[0]), 0)],
        FaultAction::Panic,
    ));
    let engine = Engine::with_faults(
        &ckpt,
        EngineConfig {
            workers: 1,
            max_batch_size: 1,
            max_wait: Duration::from_millis(1),
            queue_capacity: 16,
            cache_capacity: 0,
            filter: false,
            ..EngineConfig::for_tile(16)
        },
        Arc::clone(&faults),
    )
    .unwrap();

    for t in &tiles {
        let got = engine.classify(t.clone()).expect("no request may be lost");
        let chw = seaice::core::adapters::image_to_chw(t);
        let x = seaice::nn::Tensor::from_vec(&[1, 3, 16, 16], chw);
        assert_eq!(
            *got,
            model.predict(&x),
            "restarted replica must answer bit-identically"
        );
    }

    assert_eq!(faults.injections_fired(), 1);
    let s = engine.stats();
    assert_eq!(s.robustness.worker_restarts, 1);
    assert_eq!(s.robustness.batch_retries, 1);
    assert_eq!(s.ok, 6, "all non-shed requests answered");
}

// ---------------------------------------------------------------------
// stream: a label-stage worker panics on every attempt; the DAG retries
// its items on the surviving worker, blacklists the assassin, drains,
// and the drift series matches the fault-free run byte for byte.
// ---------------------------------------------------------------------

#[test]
fn stream_survives_a_killed_stage_worker_with_identical_drift_series() {
    // The two-region, four-revisit feed whose fault-free run
    // `tests/stream.rs` pins.
    let cfg = seaice::core::StreamWorkflowConfig {
        revisits: 4,
        scene_side: 64,
        seed: 0x5EA1CE,
        ..seaice::core::StreamWorkflowConfig::tiny()
    };
    let ckpt = seaice::core::train_stream_model(&cfg);

    let want = seaice::core::run_stream(
        &cfg,
        &ckpt,
        seaice::stream::StreamPolicy::default(),
        Arc::new(FaultPlan::disabled()),
    )
    .expect("fault-free reference run")
    .series
    .to_bytes();

    // Label-stage (index 2) worker 0 panics on every attempt it makes.
    let faults = Arc::new(FaultPlan::seeded(0xBAD5EA).fail_keys(
        seaice::stream::FAULT_SITE_WORKER,
        &[mix(2, 0)],
        FaultAction::Panic,
    ));
    let policy = seaice::stream::StreamPolicy::resilient();
    let chaos = seaice::core::run_stream(&cfg, &ckpt, policy, Arc::clone(&faults))
        .expect("the stream must survive one killed label worker");

    assert_eq!(
        chaos.series.to_bytes(),
        want,
        "recovered drift series must match fault-free byte for byte"
    );
    // Worker 0 retires at its `blacklist_after`-th failure: the other
    // label worker stays registered until the stage drains, so retirement
    // is always granted, and every killed item is re-queued away from
    // worker 0 and succeeds on its second attempt. So worker 0 is killed
    // at most twice, once per retry, and twice as soon as it is handed
    // two of the 128 tiles, which the shared queue makes certain in
    // practice.
    assert_eq!(faults.injections_fired(), u64::from(policy.blacklist_after));
    assert_eq!(chaos.report.total_retries(), faults.injections_fired());
    assert_eq!(
        chaos.report.total_blacklisted(),
        1,
        "the persistently failing worker must have been retired"
    );
    // Every stage drained: the sink saw every tile exactly once.
    let sink = chaos.report.stages.last().expect("sink stats");
    let infer = &chaos.report.stages[3];
    assert_eq!(infer.items_out, 128, "2 regions x 4 revisits x 16 tiles");
    assert_eq!(sink.items_in, infer.items_out, "the DAG must fully drain");
}

// ---------------------------------------------------------------------
// stream: EVERY worker of a stage fails on every attempt. The last-
// worker guard must keep one worker pulling (a stage may never retire
// its final worker), so the DAG still drains and the run surfaces
// StreamError::Exhausted instead of hanging.
// ---------------------------------------------------------------------

#[test]
fn stream_with_every_stage_worker_failing_drains_and_errors_instead_of_hanging() {
    let cfg = seaice::core::StreamWorkflowConfig::tiny();
    let ckpt = seaice::core::train_stream_model(&cfg);

    // Both label-stage (index 2) workers panic on every attempt they
    // make: there is no healthy worker left to reroute retries to.
    let faults = Arc::new(FaultPlan::seeded(0xDEAD).fail_keys(
        seaice::stream::FAULT_SITE_WORKER,
        &[mix(2, 0), mix(2, 1)],
        FaultAction::Panic,
    ));
    let err = seaice::core::run_stream(
        &cfg,
        &ckpt,
        seaice::stream::StreamPolicy::resilient(),
        Arc::clone(&faults),
    )
    .expect_err("a stage with zero healthy workers cannot produce a series");

    match err {
        seaice::stream::StreamError::Exhausted { items, report } => {
            assert!(
                !items.is_empty(),
                "every label item must have run out of attempts"
            );
            // The guard held: the DAG drained instead of deadlocking, so
            // the report is complete and downstream stages saw nothing.
            let label = &report.stages[2];
            assert_eq!(
                label.items_out, 0,
                "no label item may have slipped through a permanently failing stage"
            );
            assert!(
                faults.injections_fired() as usize >= items.len(),
                "each exhausted item burned real injected attempts"
            );
        }
        seaice::stream::StreamError::Supervisor { panics, .. } => {
            panic!("attempt isolation must contain injected panics, but {panics} escaped")
        }
    }
}
