//! Tier-1 streaming suite: the change detector's golden series and the
//! scheduler's determinism contract, both through the `seaice` facade.

use seaice::core::{run_stream, train_stream_model, ChangeDetector, StreamWorkflowConfig, TileObs};
use seaice::faults::FaultPlan;
use seaice::stream::StreamPolicy;
use std::sync::Arc;

const K: u8 = seaice::s2::classes::THICK_ICE;
const N: u8 = seaice::s2::classes::THIN_ICE;
const W: u8 = seaice::s2::classes::OPEN_WATER;

fn obs(region: &str, revisit: u32, tile_index: u32, pred: Vec<u8>) -> TileObs {
    TileObs {
        region: region.to_string(),
        revisit,
        day: revisit * 2,
        tile_index,
        label: pred.clone(),
        pred,
    }
}

/// The change detector's rendered output is a byte-stable artifact
/// (chaos tests and `reproduce stream` byte-compare it), so its exact
/// format is pinned here against handcrafted observations whose
/// fractions are exact binary values.
#[test]
fn change_detector_golden_series() {
    let mut det = ChangeDetector::new(2);
    // Region alpha, two 2x2 tiles, two revisits. Between revisits one
    // thick-ice pixel melts in tile 0 and one thin-ice pixel melts in
    // tile 1 (both "opened"; nothing freezes).
    det.observe(obs("alpha", 0, 0, vec![K, K, W, W]));
    det.observe(obs("alpha", 0, 1, vec![K, N, K, N]));
    det.observe(obs("alpha", 1, 0, vec![K, W, W, W]));
    det.observe(obs("alpha", 1, 1, vec![K, N, K, W]));
    // Region beta: one all-water tile, one revisit.
    det.observe(obs("beta", 0, 0, vec![W, W, W, W]));

    let series = det.finalize();
    let golden = "\
region     rev  day tiles      ice    thick    water     edge   agree  changed   opened   closed
alpha        0    0     2   0.7500   0.5000   0.2500   0.2500  1.0000   0.0000   0.0000   0.0000
alpha        1    2     2   0.5000   0.3750   0.5000   0.5000  1.0000   0.2500   0.2500   0.0000
beta         0    0     1   0.0000   0.0000   1.0000   0.0000  1.0000   0.0000   0.0000   0.0000
";
    assert_eq!(series.render(), golden);
}

/// Same seed ⇒ byte-identical drift series at different worker counts,
/// end to end through the facade, on the two-region, four-revisit feed
/// whose killed-worker run `tests/chaos.rs` pins.
#[test]
fn stream_drift_series_is_pinned_across_worker_counts() {
    let mut cfg = StreamWorkflowConfig {
        revisits: 4,
        scene_side: 64,
        seed: 0x5EA1CE,
        ..StreamWorkflowConfig::tiny()
    };
    let ckpt = train_stream_model(&cfg);

    let mut runs = Vec::new();
    for workers in [1usize, 2] {
        cfg.workers = workers;
        let out = run_stream(
            &cfg,
            &ckpt,
            StreamPolicy::default(),
            Arc::new(FaultPlan::disabled()),
        )
        .expect("fault-free run");
        runs.push(out);
    }
    let (one, two) = (&runs[0], &runs[1]);
    assert_eq!(
        one.series.to_bytes(),
        two.series.to_bytes(),
        "worker count must never change the drift series"
    );
    // 2 regions x 4 revisits; each 64² scene is 16 tiles of 16².
    assert_eq!(two.series.points.len(), 8);
    let infer = two.report.stages.iter().find(|s| s.name == "infer");
    assert_eq!(infer.expect("an infer stage").items_in, 128);
    // Every stage charges a fixed simulated cost per attempt (labelling at
    // the paper's 390 s / 4224 tiles), so both totals are exact.
    assert_eq!(two.report.sim_makespan_secs, 16.0);
    assert_eq!(two.report.sim_total_secs, 32.1861818181818);
    // The synthetic ice drifts between revisits.
    let revisits = two.series.points.iter().filter(|p| p.revisit > 0);
    assert!(revisits.map(|p| p.changed_frac).sum::<f64>() > 0.0);
}
