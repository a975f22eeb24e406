//! Scene-level bit-identity: the masks every inference entry point returns
//! and the logits of the transposed up-path are pinned by FNV-1a hash. The
//! expected values were recorded from the commit *before* the eval-mode
//! forward became one walk over a reused arena of haloed planes (DESIGN.md
//! §4.10, "The inference walk"), so a pass here means inference changed no
//! bit across commits — the unit tests compare two paths of one build.
//! `nn_identity.rs` and `int8_identity.rs` pin logits of fresh models; this
//! file pins what the workflow hands out: `classify_scene_with` masks on
//! both backends, `classify_scene_parallel`, `predict_into` at batch 1 and 3
//! on two tile sides in one model's lifetime, and `UpMode::Transposed`.
//!
//! A failure prints the observed hash next to the recorded one. To print
//! the whole table instead, run with
//! `SCENE_IDENTITY_PRINT=1 cargo test --release --test scene_identity -- --nocapture`.

use seaice::core::adapters::{image_to_chw, tile_to_sample, InputVariant, LabelSource};
use seaice::core::{classify_scene_parallel, classify_scene_with, default_calibration};
use seaice::core::{restore_backend, LoadedModel};
use seaice::imgproc::buffer::Image;
use seaice::label::autolabel::AutoLabelConfig;
use seaice::nn::dataloader::DataLoader;
use seaice::nn::init::uniform;
use seaice::nn::Tensor;
use seaice::s2::clouds::{self, CloudConfig};
use seaice::s2::synth::{generate, SceneConfig};
use seaice::s2::tiler::tile_scene;
use seaice::unet::checkpoint::{self, Checkpoint};
use seaice::unet::{train, InferBackend, TileClassifier, TrainConfig, UNet, UNetConfig, UpMode};

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn logits_hash(t: &Tensor) -> u64 {
    fnv1a64(t.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn check(what: &str, observed: u64, recorded: u64) {
    if std::env::var_os("SCENE_IDENTITY_PRINT").is_some() {
        println!("{what}: {observed:#018x}");
        return;
    }
    assert_eq!(
        observed, recorded,
        "{what} drifted: observed {observed:#018x}, recorded {recorded:#018x}"
    );
}

/// `cpu_small` trained a few epochs on the manual labels of one synthetic
/// scene's 16² tiles: weights with structure, so masks are not one class.
fn trained_checkpoint() -> Checkpoint {
    let scene = generate(&SceneConfig::tiny(64), 3);
    let tiles = tile_scene(
        seaice::s2::geo::SceneId(1),
        &scene.rgb,
        None,
        &scene.truth,
        None,
        16,
    );
    let samples: Vec<_> = tiles
        .iter()
        .map(|t| {
            tile_to_sample(
                t,
                InputVariant::Original,
                LabelSource::Manual,
                &AutoLabelConfig::unfiltered(),
            )
        })
        .collect();
    let loader = DataLoader::new(samples, 4, Some(1));
    let mut model = UNet::new(UNetConfig {
        dropout: 0.0,
        seed: 2024,
        ..UNetConfig::cpu_small()
    });
    let cfg = TrainConfig {
        epochs: 3,
        learning_rate: 1e-2,
        log_every: 0,
    };
    train(&mut model, &loader, &cfg);
    checkpoint::snapshot(&mut model)
}

/// A seeded 256² scene under a 30 % cloud/shadow layer.
fn cloudy_scene(seed: u64) -> Image<u8> {
    let scene = generate(&SceneConfig::tiny(256), seed);
    let layer = clouds::generate(
        &CloudConfig {
            coverage: 0.3,
            ..CloudConfig::tiny(256)
        },
        seed ^ 0xC10D,
        256,
        256,
    );
    layer.apply(&scene.rgb)
}

#[test]
fn scene_masks_are_bit_identical_to_the_recorded_parent() {
    let ckpt = trained_checkpoint();
    let scene = cloudy_scene(41);
    for (backend, recorded) in [
        (InferBackend::F32, 0xfd0c_d93b_dafa_d05b),
        (InferBackend::Int8, 0x9eb4_7c2e_3ab3_58d2),
    ] {
        let mut model = restore_backend(&ckpt, backend, 64).expect("restores");
        let mask = classify_scene_with(&mut model, &scene, 64, true).mask;
        let classes = (0..3u8).filter(|c| mask.as_slice().contains(c)).count();
        assert_eq!(
            classes, 3,
            "a {backend} mask with {classes} classes pins too little"
        );
        check(
            &format!("classify_scene_with mask, {backend}"),
            fnv1a64(mask.as_slice().iter().copied()),
            recorded,
        );
    }
    let mask = classify_scene_parallel(&ckpt, &scene, 64, true).mask;
    check(
        "classify_scene_parallel mask",
        fnv1a64(mask.as_slice().iter().copied()),
        0xfd0c_d93b_dafa_d05b,
    );
}

/// A model's kept buffers (its walk's planes, the convolutions' packing,
/// pair planes and tap plans) carry nothing from one scene to the next: a
/// scene classifies to the same mask before and after scenes of other
/// content, on both backends.
#[test]
fn a_scene_masks_the_same_before_and_after_other_scenes() {
    let ckpt = trained_checkpoint();
    let scene = cloudy_scene(41);
    let others = [generate(&SceneConfig::tiny(256), 5).rgb, cloudy_scene(42)];
    for backend in [InferBackend::F32, InferBackend::Int8] {
        let mut model = restore_backend(&ckpt, backend, 64).expect("restores");
        let before = classify_scene_with(&mut model, &scene, 64, true).mask;
        for other in &others {
            classify_scene_with(&mut model, other, 64, true);
        }
        let after = classify_scene_with(&mut model, &scene, 64, true).mask;
        assert!(before == after, "{backend} mask moved after other scenes");
    }
}

#[test]
fn predict_into_masks_are_bit_identical_to_the_recorded_parent() {
    let ckpt = trained_checkpoint();
    // Sides and batch sizes alternate on one model, the way a serving
    // replica sees them: 64²·1, 16²·3, 64²·3, 16²·1.
    let calls = [(64, 1, 61), (16, 3, 62), (64, 3, 63), (16, 1, 64)];
    for (backend, recorded) in [
        (InferBackend::F32, 0x835d_27b4_87cc_1758),
        (InferBackend::Int8, 0x1526_e615_2100_0623),
    ] {
        let mut model: LoadedModel = restore_backend(&ckpt, backend, 64).expect("restores");
        let mut masks = Vec::new();
        let mut out = vec![0xAA; 3];
        for (side, n, seed) in calls {
            let scene = generate(&SceneConfig::tiny(side), seed);
            let tile = image_to_chw(&scene.rgb);
            let x = Tensor::from_vec(&[n, 3, side, side], tile.repeat(n));
            let x = Tensor::from_vec(
                x.shape(),
                x.as_slice()
                    .iter()
                    .zip(uniform(x.shape(), -0.05, 0.05, seed).as_slice())
                    .map(|(a, b)| a + b)
                    .collect(),
            );
            model.predict_into(&x, &mut out);
            assert_eq!(out.len(), n * side * side);
            masks.extend_from_slice(&out);
        }
        check(
            &format!("predict_into masks, {backend}"),
            fnv1a64(masks),
            recorded,
        );
    }
}

#[test]
fn transposed_logits_are_bit_identical_to_the_recorded_parent() {
    let mut net = UNet::new(UNetConfig {
        depth: 2,
        base_filters: 4,
        dropout: 0.0,
        seed: 17,
        up_mode: UpMode::Transposed,
        ..UNetConfig::cpu_small()
    });
    let x = uniform(&[2, 3, 16, 16], 0.0, 1.0, 71);
    check(
        "transposed f32 logits",
        logits_hash(&net.forward(&x, false)),
        0x9d71_ec29_47e4_b4de,
    );
    let calib = default_calibration(16).expect("calibrates");
    let q = net.quantize(&calib).expect("quantises");
    check(
        "transposed int8 logits",
        logits_hash(&q.forward(&x)),
        0xa3f3_e753_2f65_7f36,
    );
}
