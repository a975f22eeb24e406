//! Auto-label bit-identity at the shapes a strip-wise kernel can get wrong:
//! rows shorter than a strip, one-pixel-wide and one-pixel-tall images,
//! widths that are not a multiple of any vector width, and images tall
//! enough (≥ 256 rows) for the row loops to fork on a multi-core host.
//!
//! Pinned by FNV-1a hash: all six `FilterOutput` fields (the `f32` fields
//! by bit pattern) on cloudy crops and on speckle built to hit every branch
//! of the filter, under each ablation switch at one odd shape; and
//! `auto_label_scratch`'s class mask, colour label and processed image
//! under the paper's ranges, `seaice label --cuts`-style V-only ranges, and
//! range sets that restrict hue or saturation. The expected values were
//! recorded from the commit *before* the filter's passes were rewritten as
//! strip kernels (DESIGN.md §4.1), so a pass here means the rewrite changed
//! no output bit.
//!
//! A failure lists every drifted case with its observed and recorded hash.

use seaice::imgproc::buffer::{Image, Scratch};
use seaice::label::autolabel::{auto_label_scratch, AutoLabelConfig};
use seaice::label::cloudshadow::{CloudShadowFilter, FilterConfig};
use seaice::label::ranges::{ClassRanges, HsvRange};
use seaice::s2::clouds::{self, CloudConfig};
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

fn hash_f32(h: u64, img: &Image<f32>) -> u64 {
    fnv1a64(
        h,
        img.as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes()),
    )
}

/// A 512² cloudy scene: every cloudy crop below is cut from it.
fn cloudy_scene() -> Image<u8> {
    let side = 512;
    let scene = generate(&SceneConfig::tiny(side), 29);
    let cfg = CloudConfig {
        coverage: 0.4,
        ..CloudConfig::tiny(side)
    };
    clouds::generate(&cfg, 29, side, side).apply(&scene.rgb)
}

/// SplitMix64 — a tiny deterministic generator for the speckle images.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Speckle that reaches every branch of the filter's passes: near-grey
/// pixels across the whole V axis (shadow candidates, S at and around the
/// cut), blue-tinted pixels under varying haze (both chroma hypotheses,
/// rejected and accepted evidence) and uniform noise.
fn speckle(w: usize, h: usize, seed: u64) -> Image<u8> {
    let mut rng = SplitMix64(seed);
    let mut data = Vec::with_capacity(w * h * 3);
    for _ in 0..w * h {
        let x = rng.next();
        let [v, j0, j1, j2, a, kind, ..] = x.to_le_bytes();
        let px = match kind % 4 {
            0 => [
                v.saturating_sub(j0 % 12),
                v.saturating_sub(j1 % 12),
                v.saturating_sub(j2 % 12),
            ],
            1 => {
                // A blue-tinted surface (ρ ≈ 0.45 or 0.82) under haze `a`.
                let (rho, gamma) = if j0 % 2 == 0 {
                    (0.45, 0.70)
                } else {
                    (0.82, 0.92)
                };
                let (b, a) = (f32::from(v), f32::from(a) / 255.0 * 0.7);
                let hazy = |c: f32| (c * (1.0 - a) + 255.0 * a).round() as u8;
                [
                    hazy(rho * b),
                    hazy(gamma * b).saturating_add(j1 % 9),
                    hazy(b),
                ]
            }
            _ => [v, j0, j1],
        };
        data.extend_from_slice(&px);
    }
    Image::from_vec(w, h, 3, data)
}

fn ablation(name: &str, base: FilterConfig) -> FilterConfig {
    match name {
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
        other => panic!("unknown ablation {other}"),
    }
}

/// All six `FilterOutput` fields, chained into one hash.
fn filter_hash(img: &Image<u8>, cfg: FilterConfig) -> u64 {
    let filter = CloudShadowFilter::new(cfg);
    let out = filter.apply(img);
    // The correction-only entry must hand back the same bytes.
    let kept = filter.apply_keep_filtered(img, &mut Scratch::new());
    assert_eq!(kept, out.filtered, "apply_keep_filtered differs from apply");
    let h = hash_u8(FNV_OFFSET, &out.filtered);
    let h = hash_u8(h, &out.cloud_mask);
    let h = hash_u8(h, &out.shadow_mask);
    let h = hash_f32(h, &out.haze);
    let h = hash_f32(h, &out.shadow_gain);
    hash_u8(h, &out.residual)
}

/// Range sets the segmenter must keep labelling identically.
fn range_sets() -> [(&'static str, ClassRanges); 4] {
    let paper = ClassRanges::paper();
    // Thick ice reaches down into thin ice's V band, but only at the hues
    // (or saturations) it allows: there the class depends on H (or S), and
    // above 204 the pixels it rejects fall through to the nearest-V table.
    let hue = ClassRanges {
        thick: HsvRange {
            lo: [90, 0, 150],
            hi: [130, 255, 255],
        },
        ..paper
    };
    let sat = ClassRanges {
        thick: HsvRange {
            lo: [0, 0, 150],
            hi: [185, 40, 255],
        },
        ..paper
    };
    [
        ("paper", paper),
        ("cuts 14,92", ClassRanges::from_value_cuts(14, 92)),
        ("thick H 90..=130 from V 150", hue),
        ("thick S <= 40 from V 150", sat),
    ]
}

/// `(case, hash)` for every filter and auto-label case, in a fixed order.
fn observed() -> Vec<(String, u64)> {
    let scene = cloudy_scene();
    let mut out = Vec::new();

    // The filter at every awkward shape, on a cloudy crop and on speckle.
    let shapes = [(1, 9), (9, 1), (3, 5), (61, 97), (333, 333), (512, 300)];
    for (k, &(w, h)) in shapes.iter().enumerate() {
        let (x0, y0) = ((512 - w) / 3, (512 - h) / 2);
        let crop = scene.crop(x0, y0, w, h);
        let noise = speckle(w, h, 100 + k as u64);
        let cfg = FilterConfig::for_tile(w.max(h));
        out.push((format!("filter cloudy {w}x{h}"), filter_hash(&crop, cfg)));
        out.push((format!("filter speckle {w}x{h}"), filter_hash(&noise, cfg)));
    }
    // Every ablation switch, and the untuned default radius, at one odd shape.
    let crop = scene.crop(200, 40, 61, 97);
    let noise = speckle(61, 97, 7);
    for name in [
        "no_shadow_pass",
        "no_confidence_blend",
        "no_shadow_exclusion",
        "no_denoise",
    ] {
        let cfg = ablation(name, FilterConfig::for_tile(97));
        out.push((
            format!("filter cloudy 61x97 {name}"),
            filter_hash(&crop, cfg),
        ));
        out.push((
            format!("filter speckle 61x97 {name}"),
            filter_hash(&noise, cfg),
        ));
    }
    out.push((
        "filter cloudy 61x97 FilterConfig::default".to_string(),
        filter_hash(&crop, FilterConfig::default()),
    ));

    // auto_label_scratch under every range set, filtered and not, through
    // one scratch the outputs are handed back to, as the batch labellers do.
    let images = [
        ("cloudy 256x256", scene.crop(256, 0, 256, 256)),
        ("cloudy 61x97", crop),
        ("speckle 333x257", speckle(333, 257, 8)),
    ];
    let mut scratch = Scratch::new();
    for (range_name, ranges) in range_sets() {
        for (image_name, img) in &images {
            let side = img.width().max(img.height());
            for (filter_name, filter) in [
                ("filtered", Some(FilterConfig::for_tile(side))),
                ("raw", None),
            ] {
                let cfg = AutoLabelConfig {
                    ranges,
                    filter,
                    ..AutoLabelConfig::default()
                };
                let label = auto_label_scratch(img, &cfg, &mut scratch);
                let h = hash_u8(FNV_OFFSET, &label.class_mask);
                let h = hash_u8(h, &label.color_label);
                let h = hash_u8(h, &label.processed);
                out.push((
                    format!("auto_label {range_name} {image_name} {filter_name}"),
                    h,
                ));
                scratch.recycle_image(label.class_mask);
                scratch.recycle_image(label.color_label);
                scratch.recycle_image(label.processed);
            }
        }
    }
    out
}

/// `(case, recorded hash)`, recorded at the parent commit.
#[rustfmt::skip]
const GOLDEN: [(&str, u64); 45] = [
    ("filter cloudy 1x9", 0x383010c9fb20d2a7),
    ("filter speckle 1x9", 0xe42fe845dcce2177),
    ("filter cloudy 9x1", 0x755cff66b1b349bc),
    ("filter speckle 9x1", 0xdcecc497c5b530d7),
    ("filter cloudy 3x5", 0x29d5e3c68b881b04),
    ("filter speckle 3x5", 0x16e5c7a80297ab73),
    ("filter cloudy 61x97", 0x5a9e82158a8397d2),
    ("filter speckle 61x97", 0x75e5522b409340b0),
    ("filter cloudy 333x333", 0x890677563cd96e2b),
    ("filter speckle 333x333", 0x954b1a5b3900a39f),
    ("filter cloudy 512x300", 0x8f4ee6f05ec8d8ab),
    ("filter speckle 512x300", 0xfc53f2dd87960f44),
    ("filter cloudy 61x97 no_shadow_pass", 0x272cd758d54ffa00),
    ("filter speckle 61x97 no_shadow_pass", 0x9f4d50f563465970),
    ("filter cloudy 61x97 no_confidence_blend", 0xc8a1794ad63fda44),
    ("filter speckle 61x97 no_confidence_blend", 0xae76e6f4b68bb67f),
    ("filter cloudy 61x97 no_shadow_exclusion", 0x1d4c02c31ac7814e),
    ("filter speckle 61x97 no_shadow_exclusion", 0x08f32f7a8b6192da),
    ("filter cloudy 61x97 no_denoise", 0x757a8f53997d0d7a),
    ("filter speckle 61x97 no_denoise", 0x4cf38f74782765d7),
    ("filter cloudy 61x97 FilterConfig::default", 0x539ffc6ab5b6b0eb),
    ("auto_label paper cloudy 256x256 filtered", 0xceaa6affc9a01036),
    ("auto_label paper cloudy 256x256 raw", 0xe7f9d3b583ec25eb),
    ("auto_label paper cloudy 61x97 filtered", 0xfe526c51d9e717b0),
    ("auto_label paper cloudy 61x97 raw", 0x58beefe8e30cc3af),
    ("auto_label paper speckle 333x257 filtered", 0x56e3ee70e771381b),
    ("auto_label paper speckle 333x257 raw", 0x722fca11521a171e),
    ("auto_label cuts 14,92 cloudy 256x256 filtered", 0x8bcf8cea4f37155e),
    ("auto_label cuts 14,92 cloudy 256x256 raw", 0x45fd887818d6874a),
    ("auto_label cuts 14,92 cloudy 61x97 filtered", 0xae9276f604158ede),
    ("auto_label cuts 14,92 cloudy 61x97 raw", 0x13b77abf10140a75),
    ("auto_label cuts 14,92 speckle 333x257 filtered", 0x6a808303ff195b1d),
    ("auto_label cuts 14,92 speckle 333x257 raw", 0x41a08df19b98ecb7),
    ("auto_label thick H 90..=130 from V 150 cloudy 256x256 filtered", 0x3ba241150ed00281),
    ("auto_label thick H 90..=130 from V 150 cloudy 256x256 raw", 0x0b7b09a69d956955),
    ("auto_label thick H 90..=130 from V 150 cloudy 61x97 filtered", 0x4bf419a28bc4ec0a),
    ("auto_label thick H 90..=130 from V 150 cloudy 61x97 raw", 0x2b798539f5134f12),
    ("auto_label thick H 90..=130 from V 150 speckle 333x257 filtered", 0xfacd3ca0c85dfa18),
    ("auto_label thick H 90..=130 from V 150 speckle 333x257 raw", 0xa1dd292fe9cdeb63),
    ("auto_label thick S <= 40 from V 150 cloudy 256x256 filtered", 0x4c56ac7c0d84e591),
    ("auto_label thick S <= 40 from V 150 cloudy 256x256 raw", 0x50448b7e9793b1e7),
    ("auto_label thick S <= 40 from V 150 cloudy 61x97 filtered", 0xc59102d0505a3230),
    ("auto_label thick S <= 40 from V 150 cloudy 61x97 raw", 0xbc115faf30a44109),
    ("auto_label thick S <= 40 from V 150 speckle 333x257 filtered", 0x982411cd4a80d873),
    ("auto_label thick S <= 40 from V 150 speckle 333x257 raw", 0x5068334f7e7ba09c),
];

#[test]
fn labels_are_bit_identical_to_the_recorded_parent() {
    let got = observed();
    assert_eq!(
        got.len(),
        GOLDEN.len(),
        "one observed hash per recorded case"
    );
    let drifted: Vec<String> = GOLDEN
        .iter()
        .zip(&got)
        .filter(|((case, recorded), (name, observed))| {
            assert_eq!(case, name, "cases are observed in recorded order");
            recorded != observed
        })
        .map(|((case, recorded), (_, observed))| {
            format!("{case}: observed {observed:#018x}, recorded {recorded:#018x}")
        })
        .collect();
    assert!(drifted.is_empty(), "drifted:\n{}", drifted.join("\n"));
}
