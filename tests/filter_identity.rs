//! Filter bit-identity: every field of `FilterOutput` — the corrected
//! image, both masks, both `f32` fields (hashed by bit pattern) and the
//! residual — is pinned by FNV-1a hash for seeded cloudy tiles at three
//! sizes, and again under each ablation switch. The expected values were
//! recorded from the commit *before* the filter's fast path (3×3 median
//! network, S/V-only integer HSV, row-streamed paired blurs) landed, so a
//! pass here means the rewrite changed no output bit. A failure prints
//! the observed hash next to the recorded one.

use seaice::imgproc::buffer::{Image, Scratch};
use seaice::label::cloudshadow::{CloudShadowFilter, FilterConfig};
use seaice::s2::clouds::{self, CloudConfig};
use seaice::s2::synth::{generate, SceneConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a64(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

fn hash_u8(img: &Image<u8>) -> u64 {
    fnv1a64(FNV_OFFSET, img.as_slice().iter().copied())
}

fn hash_f32(img: &Image<f32>) -> u64 {
    fnv1a64(
        FNV_OFFSET,
        img.as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes()),
    )
}

fn cloudy_tile(side: usize, seed: u64) -> Image<u8> {
    let scene = generate(&SceneConfig::tiny(side), seed);
    let layer = clouds::generate(
        &CloudConfig {
            coverage: 0.3,
            ..CloudConfig::tiny(side)
        },
        seed,
        side,
        side,
    );
    layer.apply(&scene.rgb)
}

fn variant(name: &str, side: usize) -> FilterConfig {
    let base = FilterConfig::for_tile(side);
    match name {
        "default" => base,
        "no_shadow_pass" => FilterConfig {
            shadow_pass: false,
            ..base
        },
        "no_confidence_blend" => FilterConfig {
            confidence_blend: false,
            ..base
        },
        "no_shadow_exclusion" => FilterConfig {
            shadow_exclusion: false,
            ..base
        },
        "no_denoise" => FilterConfig {
            denoise_radius: 0,
            ..base
        },
        other => panic!("unknown variant {other}"),
    }
}

/// `[filtered, cloud_mask, shadow_mask, haze, shadow_gain, residual]`.
fn field_hashes(variant_name: &str, side: usize, seed: u64) -> [u64; 6] {
    let tile = cloudy_tile(side, seed);
    let filter = CloudShadowFilter::new(variant(variant_name, side));
    let out = filter.apply(&tile);
    // The correction-only entry must hand back the same bytes.
    let kept = filter.apply_keep_filtered(&tile, &mut Scratch::new());
    assert_eq!(
        kept, out.filtered,
        "apply_keep_filtered differs from apply ({variant_name}, {side}, seed {seed})"
    );
    [
        hash_u8(&out.filtered),
        hash_u8(&out.cloud_mask),
        hash_u8(&out.shadow_mask),
        hash_f32(&out.haze),
        hash_f32(&out.shadow_gain),
        hash_u8(&out.residual),
    ]
}

/// (variant, side, seed, field hashes), recorded at the parent commit.
#[rustfmt::skip]
const GOLDEN: [(&str, usize, u64, [u64; 6]); 18] = [
    ("default", 32, 7, [0x0bddab1e6d33f0cc, 0xb2a440d8140f0b6a, 0x0e52fdae291ecf42, 0x60e89a2f1be98424, 0x4471eda612e631d5, 0x4f2c520b216b5903]),
    ("default", 32, 8, [0x7d28cb9ebce0b822, 0xd24032585d59f1cd, 0x6f6a62c008e8f5f3, 0xea9fad88baa61578, 0xd7b36eb916840e4a, 0xf738b74d58122e75]),
    ("default", 64, 7, [0xbae13106939ee7ac, 0x32b9fbd8ec8cccea, 0xdcd8e76b9b033024, 0xc58db317e14ebc08, 0xc9d529baabcbd8f9, 0x2b31e3c8f61bbf4b]),
    ("default", 64, 8, [0x259aaa044dad52c0, 0xe66eff60c1055136, 0x22e4271a790b3c68, 0x016dc7ccd2c22a3d, 0x3b73b4b258e0c43e, 0x08321c48cddc9348]),
    ("default", 256, 7, [0x2e2b92e9960cd88c, 0x09fc7533ba259809, 0x918f0c6a516d5732, 0x06a0128d6f40acfb, 0xf985de0534e5b177, 0x57e80ee4a0ab361f]),
    ("default", 256, 300, [0x7ed8bbe4f0a09752, 0xa796c3d0db7e225f, 0x1225afa5abdb9497, 0xea449d135974ff51, 0xb13e9d5df64b8a36, 0x944f0e688cc30a27]),
    ("no_shadow_pass", 32, 7, [0x11636ed90956dc31, 0xb2a440d8140f0b6a, 0x51d88627df287325, 0x60e89a2f1be98424, 0x552b519dd836c325, 0xf173a8a4af736cb9]),
    ("no_shadow_pass", 64, 7, [0x9a2bd970d51c8112, 0x32b9fbd8ec8cccea, 0xb93a0c83ce3b6325, 0xc58db317e14ebc08, 0x3d89e8e4c474a325, 0x589f4e42f4b5895e]),
    ("no_shadow_pass", 256, 7, [0xd7031a35bcef3ce2, 0x09fc7533ba259809, 0xeb05052ea5b62325, 0x06a0128d6f40acfb, 0x9d85be94894a2325, 0x2e910c2286ae2576]),
    ("no_confidence_blend", 32, 7, [0x206978a437f94195, 0x9c476ad8e93a9d90, 0x0e52fdae291ecf42, 0x5f868a53cde27940, 0x4471eda612e631d5, 0xe1581c5ac689bb2b]),
    ("no_confidence_blend", 64, 7, [0x82f9b98d228c4237, 0x4323b2520ceba190, 0xdcd8e76b9b033024, 0xd2a0701d18b1abab, 0xc9d529baabcbd8f9, 0x03e353294977b678]),
    ("no_confidence_blend", 256, 7, [0xb659c58003344aac, 0x5523bb00c7871e21, 0x918f0c6a516d5732, 0x018ff54ea3203d2f, 0xf985de0534e5b177, 0x9d4d0d2628647098]),
    ("no_shadow_exclusion", 32, 7, [0xeec180b1e831e444, 0xd88c85c916b47213, 0x540d2614cae4dd2e, 0x144d919c4c6df236, 0x6aacb7579029b6d1, 0x9e3c42ee57083639]),
    ("no_shadow_exclusion", 64, 7, [0xe24f93ddac2788dd, 0x02af52ab7758728b, 0x604f8cfbd4ca333a, 0x4f1bf2722af2b3fb, 0x3f5b5dfbd0fa365e, 0x4e9e65c2c57eafa6]),
    ("no_shadow_exclusion", 256, 7, [0x16138938a223ebbf, 0x1125ea93c7e7631c, 0x94e275346808b0bf, 0xeec8f034fd932220, 0x970c8f51a98cb648, 0x0cdfdb11d3cae446]),
    ("no_denoise", 32, 7, [0x86a444347a044cd1, 0x9df91d2fc2d16e0e, 0x7f4c7e8dda4457d6, 0xeddcb09bc785c9c8, 0x9c85d2464a1fb805, 0xcf3b56bbd75ba524]),
    ("no_denoise", 64, 7, [0xed72cc69ea9ef3a6, 0x40934c3c1d2767e4, 0x096adcc1e748be23, 0xad942660f5d3d4cc, 0x7c9a79d24fdead9d, 0xa2ba99977af22036]),
    ("no_denoise", 256, 7, [0x0cb042f0153a3245, 0xdb81c361e8bb9e29, 0xd31ea46933f7d429, 0xe3b4d87c82a9f78d, 0x601e1663a45698e9, 0x5cc79e6a0b2a0e04]),
];

#[test]
fn filter_outputs_are_bit_identical_to_the_recorded_parent() {
    const FIELDS: [&str; 6] = [
        "filtered",
        "cloud_mask",
        "shadow_mask",
        "haze",
        "shadow_gain",
        "residual",
    ];
    for &(v, side, seed, expected) in &GOLDEN {
        let got = field_hashes(v, side, seed);
        for (i, field) in FIELDS.iter().enumerate() {
            assert_eq!(
                got[i], expected[i],
                "`{field}` drifted for {v} at {side}² seed {seed}: observed {:#018x}, recorded {:#018x}",
                got[i], expected[i]
            );
        }
    }
}
