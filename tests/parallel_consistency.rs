//! Integration tests for the parallel execution paths: every parallel
//! mechanism must produce byte-identical results to its sequential
//! counterpart (the "no data races, same answer" guarantee the guides
//! demand).

use seaice::distrib::{train_distributed, DgxA100Model, DistTrainConfig};
use seaice::label::autolabel::{
    auto_label_batch, auto_label_batch_pool, AutoLabelConfig, LabelBackend,
};
use seaice::label::parallel::WorkerPool;
use seaice::mapreduce::{ClusterSpec, CostModel, Session};
use seaice::s2::synth::{generate, SceneConfig};
use seaice::unet::UNetConfig;

fn tiles(n: usize, side: usize) -> Vec<seaice::imgproc::buffer::Image<u8>> {
    (0..n)
        .map(|i| generate(&SceneConfig::tiny(side), 100 + i as u64).rgb)
        .collect()
}

#[test]
fn all_labeling_backends_agree_bit_for_bit() {
    let imgs = tiles(12, 48);
    // Both segmentation backends must agree across every parallel
    // mechanism: sequential, worker pool, and the map-reduce
    // Session path.
    for backend in [LabelBackend::Reference, LabelBackend::Fused] {
        let cfg = AutoLabelConfig::filtered_for_tile(48).with_backend(backend);
        let seq = auto_label_batch(&imgs, &cfg);
        let pool = WorkerPool::new(3);
        let pooled = auto_label_batch_pool(&pool, imgs.clone(), cfg);
        let session = Session::new(ClusterSpec::new(2, 2).unwrap(), CostModel::gcd_n2());
        let (df, _) = session.read(imgs.clone(), 1.0);
        let (lazy, _) = df.map(&session, move |img| {
            seaice::label::autolabel::auto_label(&img, &cfg).class_mask
        });
        let (engine, _) = lazy.collect(&session, 1.0);

        for i in 0..imgs.len() {
            assert_eq!(
                seq[i].class_mask, pooled[i].class_mask,
                "{backend:?}: pool differs at {i}"
            );
            assert_eq!(
                seq[i].class_mask, engine[i],
                "{backend:?}: map-reduce differs at {i}"
            );
        }
    }
}

#[test]
fn mapreduce_reduce_matches_sequential_fold() {
    let session = Session::new(ClusterSpec::new(4, 2).unwrap(), CostModel::gcd_n2());
    let data: Vec<u64> = (0..1000).collect();
    let (df, _) = session.read(data.clone(), 8.0);
    let (lazy, _) = df.map(&session, |x| x * x + 1);
    let (sum, _) = lazy.reduce(&session, |a, b| a + b);
    let expected: u64 = data.iter().map(|x| x * x + 1).sum();
    assert_eq!(sum, Some(expected));
}

#[test]
fn distributed_width_does_not_change_the_model() {
    // Train the same workload at widths 1, 2, and 4 with matched global
    // batch; all final models must agree on a probe input.
    let side = 16;
    let samples: Vec<_> = (0..16)
        .map(|i| {
            let scene = generate(&SceneConfig::tiny(side), 500 + i as u64);
            seaice::nn::dataloader::Sample {
                image: seaice::core::adapters::image_to_chw(&scene.rgb),
                mask: scene.truth.as_slice().to_vec(),
                channels: 3,
                height: side,
                width: side,
            }
        })
        .collect();
    let unet = UNetConfig {
        depth: 1,
        base_filters: 4,
        dropout: 0.0,
        seed: 77,
        ..UNetConfig::paper()
    };
    let probe = seaice::nn::init::uniform(&[1, 3, side, side], 0.0, 1.0, 9);
    let global_batch = 4;
    let mut outputs = Vec::new();
    for ranks in [1usize, 2, 4] {
        let (mut model, _) = train_distributed(
            unet,
            samples.clone(),
            DistTrainConfig {
                ranks,
                epochs: 2,
                batch_size_per_rank: global_batch / ranks,
                learning_rate: 1e-3,
                shuffle_seed: None,
            },
            &DgxA100Model::dgx_a100(),
        );
        outputs.push(model.forward(&probe, false));
    }
    for (i, out) in outputs.iter().enumerate().skip(1) {
        let max_diff = out
            .as_slice()
            .iter()
            .zip(outputs[0].as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0f32, f32::max);
        assert!(
            max_diff < 1e-3,
            "width {} diverged from width 1 by {max_diff}",
            [1, 2, 4][i]
        );
    }
}

#[test]
fn micro_batched_serving_is_bit_identical_to_sequential_classification() {
    use seaice::serve::{classify_scene_engine, Engine, EngineConfig};
    use std::time::Duration;

    let mut model = seaice::unet::UNet::new(UNetConfig {
        depth: 1,
        base_filters: 4,
        dropout: 0.0,
        seed: 4242,
        ..UNetConfig::paper()
    });
    let ckpt = seaice::unet::checkpoint::snapshot(&mut model);
    // 40 % 16 != 0: the grid has overlapping edge anchors, so identical
    // stitching is part of what this pins down.
    let scene = generate(&SceneConfig::tiny(40), 77);
    let want = seaice::core::classify_scene(&mut model, &scene.rgb, 16, true);

    // Batch size 1, an awkward 3, and the full default must all match:
    // every op in the network treats batch items independently.
    for max_batch in [1usize, 3, 8] {
        let engine = Engine::new(
            &ckpt,
            EngineConfig {
                workers: 2,
                max_batch_size: max_batch,
                max_wait: Duration::from_millis(1),
                filter: true,
                ..EngineConfig::for_tile(16)
            },
        )
        .unwrap();
        let got = classify_scene_engine(&engine, &scene.rgb).unwrap();
        assert_eq!(got.mask, want.mask, "batch size {max_batch} diverged");
        assert_eq!(got.color, want.color, "batch size {max_batch} diverged");
        assert_eq!(got.fractions, want.fractions);
    }
}

#[test]
fn worker_pool_handles_heavier_than_worker_count_workloads() {
    let pool = WorkerPool::new(2);
    let out = pool.map((0..500).collect::<Vec<u32>>(), |x| {
        x.wrapping_mul(2654435761)
    });
    assert_eq!(out.len(), 500);
    assert_eq!(out[499], 499u32.wrapping_mul(2654435761));
}
