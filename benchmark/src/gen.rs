//! Seed discipline: every input of every workload derives from the one
//! `--seed` through [`derive`], and the library only ever receives the
//! derived values (scene seeds, model seeds, shuffle seeds).

use crate::spans::Spans;
use seaice_imgproc::buffer::Image;
use seaice_s2::clouds::{self, CloudConfig};
use seaice_s2::synth::{self, SceneConfig};

/// Cloud coverage of every generated acquisition: the paper's "cloudy"
/// regime, where the thin-cloud/shadow filter has work to do.
pub const CLOUD_COVERAGE: f64 = 0.3;

/// SplitMix64 finaliser over `(seed, stream)`: an independent sub-seed per
/// named use, so adding an input never shifts the others.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One synthetic acquisition: the cloud-degraded pixels a sensor would
/// deliver and the exact class mask underneath.
pub struct Acquisition {
    pub rgb: Image<u8>,
    pub truth: Image<u8>,
}

/// Generates a `side`² scene and rolls a cloud/shadow layer over it. The
/// two library calls are recorded as `s2.synth` / `s2.clouds` spans when
/// `spans` is recording.
pub fn cloudy_scene(side: usize, seed: u64, id: u64, spans: &Spans) -> Acquisition {
    let scene = spans.span("s2.synth", id, || {
        synth::generate(&SceneConfig::tiny(side), seed)
    });
    let rgb = spans.span("s2.clouds", id, || {
        let layer = clouds::generate(
            &CloudConfig {
                coverage: CLOUD_COVERAGE,
                ..CloudConfig::tiny(side)
            },
            derive(seed, 0xC10D),
            side,
            side,
        );
        layer.apply(&scene.rgb)
    });
    Acquisition {
        rgb,
        truth: scene.truth,
    }
}

/// The pixels of `masks`, one mask after another.
pub fn concat<'a>(masks: impl IntoIterator<Item = &'a Image<u8>>) -> Vec<u8> {
    masks
        .into_iter()
        .flat_map(|m| m.as_slice().iter().copied())
        .collect()
}

/// Share of pixels on which two equally sized masks agree.
pub fn agreement(a: &[u8], b: &[u8]) -> f64 {
    assert_eq!(a.len(), b.len(), "mask length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
    same as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_a_function_of_both_arguments() {
        assert_eq!(derive(2024, 3), derive(2024, 3));
        assert_ne!(derive(2024, 3), derive(2024, 4));
        assert_ne!(derive(2024, 3), derive(2025, 3));
    }

    #[test]
    fn same_seed_same_acquisition() {
        let spans = Spans::disabled();
        let a = cloudy_scene(32, derive(7, 0), 0, &spans);
        let b = cloudy_scene(32, derive(7, 0), 0, &spans);
        assert_eq!(a.rgb, b.rgb);
        assert_eq!(a.truth, b.truth);
        let c = cloudy_scene(32, derive(8, 0), 0, &spans);
        assert_ne!(a.rgb, c.rgb);
    }

    #[test]
    fn agreement_counts_equal_pixels() {
        assert_eq!(agreement(&[0, 1, 2, 2], &[0, 1, 1, 2]), 0.75);
    }
}
