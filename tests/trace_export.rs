//! The Chrome `trace_event` exporter on a chaos run. Tracing is
//! process-global, so this suite is a test binary of its own: one run
//! drives the serve engine's wall-clock spans and the `ManualClock`
//! spans of mapreduce and distrib, each under a seeded kill, and the
//! export must pass `obs::trace::validate_chrome_trace`.

use seaice::distrib::{
    rank_fault_key, train_distributed_elastic, DgxA100Model, DistTrainConfig, ElasticConfig,
};
use seaice::faults::{mix, FaultAction, FaultPlan};
use seaice::mapreduce::{ClusterSpec, CostModel, RunPolicy, Session};
use seaice::nn::dataloader::Sample;
use seaice::s2::synth::{generate, SceneConfig};
use seaice::serve::{tile_key, Engine, EngineConfig};
use seaice::unet::checkpoint::snapshot;
use seaice::unet::{UNet, UNetConfig};
use std::sync::Arc;
use std::time::Duration;

fn tiny_unet() -> UNetConfig {
    UNetConfig {
        depth: 1,
        base_filters: 4,
        dropout: 0.0,
        seed: 23,
        ..UNetConfig::paper()
    }
}

/// Executor 1 of 4 panics on every task: attempts, faults and the
/// blacklisting land on mapreduce's simulated timeline.
fn mapreduce_under_a_dead_executor() {
    let faults =
        FaultPlan::seeded(0xC0FFEE).fail_keys("mapreduce.executor", &[1], FaultAction::Panic);
    let s = Session::new(ClusterSpec::new(4, 2).unwrap(), CostModel::gcd_n2());
    let (df, _) = s.read((0..16u64).collect(), 8.0);
    let (lazy, _) = df.map(&s, |x| x * 3);
    // Without straggler speculation: a twin that wins while the dead
    // executor is still unwinding would leave no failure to trace.
    let policy = RunPolicy {
        speculation: None,
        ..RunPolicy::resilient()
    };
    let (got, _, ft) = lazy
        .collect_ft(&s, 8.0, policy, Arc::new(faults))
        .expect("one dead executor out of four");
    assert_eq!(got, (0..16u64).map(|x| x * 3).collect::<Vec<_>>());
    assert_eq!(ft.blacklisted, [1]);
}

/// Rank 1 of 2 dies before its epoch-1 all-reduce: a failed and a clean
/// generation plus the recovery marker land on distrib's simulated
/// timeline.
fn distrib_under_a_dead_rank() {
    let samples: Vec<Sample> = (0..4)
        .map(|i| Sample {
            image: vec![i as f32 / 4.0; 3 * 8 * 8],
            mask: vec![(i % 3) as u8; 8 * 8],
            channels: 3,
            height: 8,
            width: 8,
        })
        .collect();
    let faults = FaultPlan::seeded(7).fail_keys(
        "distrib.allreduce",
        &[rank_fault_key(2, 1, 1, 0)],
        FaultAction::Error,
    );
    let cfg = DistTrainConfig {
        ranks: 2,
        epochs: 2,
        batch_size_per_rank: 2,
        learning_rate: 1e-3,
        shuffle_seed: Some(5),
    };
    let elastic = ElasticConfig {
        checkpoint_every_epochs: 1,
        min_ranks: 1,
        ..ElasticConfig::default()
    };
    let perf = DgxA100Model::dgx_a100();
    let (_, report) =
        train_distributed_elastic(tiny_unet(), samples, cfg, &perf, elastic, Arc::new(faults))
            .expect("one surviving rank");
    assert_eq!(report.generations, 2);
}

/// The only replica panics on its first batch: the wall-clock request,
/// cache-lookup and batch spans of a restarted replica.
fn serve_under_a_dead_replica() {
    let ckpt = snapshot(&mut UNet::new(tiny_unet()));
    let tiles: Vec<_> = (0..3u64)
        .map(|i| generate(&SceneConfig::tiny(16), 500 + i).rgb)
        .collect();
    let faults = FaultPlan::seeded(9).fail_keys(
        "serve.worker",
        &[mix(tile_key(&tiles[0]), 0)],
        FaultAction::Panic,
    );
    let engine = Engine::with_faults(
        &ckpt,
        EngineConfig {
            workers: 1,
            max_batch_size: 1,
            max_wait: Duration::from_millis(1),
            cache_capacity: 0,
            filter: false,
            ..EngineConfig::for_tile(16)
        },
        Arc::new(faults),
    )
    .unwrap();
    for t in tiles {
        engine.classify(t).expect("no request may be lost");
    }
    assert_eq!(engine.stats().robustness.worker_restarts, 1);
    engine.shutdown();
}

#[test]
fn chrome_export_of_a_chaos_run_validates_with_every_clock_in_it() {
    // Before any component exists: instruments are grabbed at construction.
    seaice::obs::trace::enable();
    mapreduce_under_a_dead_executor();
    distrib_under_a_dead_rank();
    serve_under_a_dead_replica();

    let json = seaice::obs::trace::export_chrome_json();
    let stats = seaice::obs::trace::validate_chrome_trace(&json).expect("a valid Chrome trace");
    assert!(stats.span_pairs > 0, "no wall-clock spans: {stats:?}");
    assert!(stats.complete > 0, "no simulated-clock events: {stats:?}");
    assert!(stats.instants > 0, "no fault markers: {stats:?}");
    for name in [
        "mapreduce.attempt",
        "mapreduce.fault",
        "mapreduce.blacklist",
        "distrib.generation",
        "distrib.recovery",
        "serve.batch.forward",
        "serve.request",
    ] {
        let event = format!("\"name\": \"{name}\"");
        assert!(json.contains(&event), "no `{name}` event in the export");
    }
}
