//! Acquisition bit-identity: the bytes `seaice-s2` synthesizes are pinned
//! by FNV-1a hash — scene RGB and truth, region windows and revisit crops,
//! a strip of the paper's scene geometry, cloud alpha fields (hashed by bit
//! pattern), composited cloudy pixels, raw `fbm_field`s and the tiles of a
//! small `Dataset::build`. The expected values were recorded from the
//! commit *before* fBm fields were generated from row plans (DESIGN.md
//! §4.11), so a pass here means the planned synthesis changed no byte.
//!
//! A failure lists every drifted case with its observed and recorded hash.

use seaice::imgproc::buffer::Image;
use seaice::s2::catalog::{crop_revisit, Catalog, RevisitPlan};
use seaice::s2::clouds::{self, CloudConfig};
use seaice::s2::dataset::{Dataset, DatasetConfig};
use seaice::s2::noise::{fbm_field, FbmConfig};
use seaice::s2::synth::{generate, SceneConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a64(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash_u8(h: u64, img: &Image<u8>) -> u64 {
    fnv1a64(h, img.as_slice().iter().copied())
}

fn hash_f32(h: u64, values: &[f32]) -> u64 {
    fnv1a64(h, values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// `(case, recorded hash)`, recorded at the parent commit.
#[rustfmt::skip]
const GOLDEN: [(&str, u64); 26] = [
    ("scene tiny(32) seed 7", 0x5beb212d39737d8c),
    ("scene tiny(64) seed 8", 0x3a235425b7b8b8e2),
    ("scene tiny(97) seed 9", 0x154a7bef13f21507),
    ("scene tiny(256) seed 300", 0xf01ffee3b01f5462),
    ("scene tiny(97) with 8 leads seed 11", 0x5e02fc34231d6bcd),
    ("region window ross-01", 0xefa91041a5e3252b),
    ("revisit crop ross-01 #2", 0x3d7d6d53557f2548),
    ("paper strip 2048x16 seed 2024", 0xcb25ab6b21e02054),
    ("cloud alpha tiny(64) coverage 0", 0x8f6955bf94ec2325),
    ("cloud alpha tiny(64) coverage 0.3", 0x3763b26222d06e11),
    ("cloud alpha tiny(64) coverage 1", 0x4c0d6f776dfe809f),
    ("cloud alpha tiny(97) coverage 0.3", 0x405c6bb87a5a2cc1),
    ("cloud alpha default 256 coverage 0.3", 0x868f25154a9f4688),
    ("apply tiny(64) coverage 0.3", 0x51aab877ee9d2db2),
    ("apply tiny(97) coverage 0.3", 0xa5d934879969904c),
    ("apply tiny(256) coverage 0.45", 0x1a536b792120bc58),
    ("fbm_field 1x1 default", 0x85343d3a74690004),
    ("fbm_field 2x3 default", 0x5b19abf165ae0d72),
    ("fbm_field 33x7 freq 1/3 gain 0.55", 0x5c85746ef5fd49e3),
    ("fbm_field 64x64 freq 2.5 octaves 3", 0xe18ac729c4016e53),
    ("fbm_field 97x5 freq -0.2 octaves 6", 0x8f55d97092e2d48d),
    ("fbm_field 256x256 freq 1/512 octaves 7", 0xc86690813f0aa4ac),
    ("dataset 2 x 64² / 16 train", 0x8e83ba7d1db0acb6),
    ("dataset 2 x 64² / 16 validation", 0xc96cf76d0e1ea86c),
    ("dataset 3 x 48² / 16 train", 0x1ba664c4533da6d3),
    ("dataset 3 x 48² / 16 validation", 0x7cb6211503709515),
];

fn scene_hash(cfg: &SceneConfig, seed: u64) -> u64 {
    let scene = generate(cfg, seed);
    hash_u8(hash_u8(FNV_OFFSET, &scene.rgb), &scene.truth)
}

fn alpha_hash(cfg: &CloudConfig, seed: u64, side: usize) -> u64 {
    let layer = clouds::generate(cfg, seed, side, side);
    let h = hash_f32(FNV_OFFSET, layer.cloud_alpha.as_slice());
    hash_f32(h, layer.shadow_alpha.as_slice())
}

fn apply_hash(side: usize, coverage: f64, seed: u64) -> u64 {
    let scene = generate(&SceneConfig::tiny(side), seed);
    let cfg = CloudConfig {
        coverage,
        ..CloudConfig::tiny(side)
    };
    hash_u8(
        FNV_OFFSET,
        &clouds::generate(&cfg, seed, side, side).apply(&scene.rgb),
    )
}

fn field_hash(w: usize, h: usize, seed: u64, cfg: &FbmConfig) -> u64 {
    hash_f32(FNV_OFFSET, &fbm_field(w, h, seed, cfg))
}

/// Every tile's cloudy RGB, clean RGB, truth and cloud fraction, in split
/// order.
fn dataset_hashes(n_scenes: usize, side: usize, tile: usize) -> [u64; 2] {
    let ds = Dataset::build(DatasetConfig::scaled(n_scenes, side, tile));
    [&ds.train, &ds.validation].map(|tiles| {
        tiles.iter().fold(FNV_OFFSET, |h, t| {
            let h = hash_u8(h, &t.rgb);
            let h = hash_u8(h, t.clean_rgb.as_ref().expect("keep_clean is the default"));
            let h = hash_u8(h, &t.truth);
            fnv1a64(h, t.cloud_fraction.to_bits().to_le_bytes())
        })
    })
}

fn observed() -> Vec<u64> {
    let mut out = vec![
        scene_hash(&SceneConfig::tiny(32), 7),
        scene_hash(&SceneConfig::tiny(64), 8),
        scene_hash(&SceneConfig::tiny(97), 9),
        scene_hash(&SceneConfig::tiny(256), 300),
        scene_hash(
            &SceneConfig {
                lead_count: 8,
                ..SceneConfig::tiny(97)
            },
            11,
        ),
    ];

    let catalog = Catalog::new(42).with_scene_config(SceneConfig::tiny(64));
    let plan = RevisitPlan::synthetic(2, 3, 2, 5);
    let window = catalog.region_window(&plan, "ross-01");
    out.push(hash_u8(hash_u8(FNV_OFFSET, &window.rgb), &window.truth));
    let m = catalog
        .revisit_stream(&plan)
        .into_iter()
        .find(|m| m.region == "ross-01" && m.revisit == 2)
        .expect("the plan has three revisits of ross-01");
    let crop = crop_revisit(&window, &m);
    out.push(hash_u8(hash_u8(FNV_OFFSET, &crop.rgb), &crop.truth));

    out.push(scene_hash(
        &SceneConfig {
            width: 2048,
            height: 16,
            ..SceneConfig::default()
        },
        2024,
    ));

    for coverage in [0.0, 0.3, 1.0] {
        let cfg = CloudConfig {
            coverage,
            ..CloudConfig::tiny(64)
        };
        out.push(alpha_hash(&cfg, 5, 64));
    }
    let cfg = CloudConfig {
        coverage: 0.3,
        ..CloudConfig::tiny(97)
    };
    out.push(alpha_hash(&cfg, 6, 97));
    let cfg = CloudConfig {
        coverage: 0.3,
        ..CloudConfig::default()
    };
    out.push(alpha_hash(&cfg, 7, 256));

    out.push(apply_hash(64, 0.3, 8));
    out.push(apply_hash(97, 0.3, 9));
    out.push(apply_hash(256, 0.45, 10));

    let default = FbmConfig::default();
    out.push(field_hash(1, 1, 1, &default));
    out.push(field_hash(2, 3, 2, &default));
    let cfg = FbmConfig {
        frequency: 1.0 / 3.0,
        gain: 0.55,
        ..default
    };
    out.push(field_hash(33, 7, 3, &cfg));
    let cfg = FbmConfig {
        octaves: 3,
        frequency: 2.5,
        ..default
    };
    out.push(field_hash(64, 64, 4, &cfg));
    let cfg = FbmConfig {
        octaves: 6,
        frequency: -0.2,
        ..default
    };
    out.push(field_hash(97, 5, 5, &cfg));
    let cfg = FbmConfig {
        octaves: 7,
        frequency: 1.0 / 512.0,
        ..default
    };
    out.push(field_hash(256, 256, 6, &cfg));

    out.extend(dataset_hashes(2, 64, 16));
    out.extend(dataset_hashes(3, 48, 16));
    out
}

#[test]
fn synthesized_bytes_are_identical_to_the_recorded_parent() {
    let got = observed();
    assert_eq!(
        got.len(),
        GOLDEN.len(),
        "one observed hash per recorded case"
    );
    let drifted: Vec<String> = GOLDEN
        .iter()
        .zip(&got)
        .filter(|((_, recorded), observed)| recorded != *observed)
        .map(|((case, recorded), observed)| {
            format!("{case}: observed {observed:#018x}, recorded {recorded:#018x}")
        })
        .collect();
    assert!(drifted.is_empty(), "drifted:\n{}", drifted.join("\n"));
}
