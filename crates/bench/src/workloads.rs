//! Shared workload builders: tiles for the labeling-speed experiments and
//! datasets for the accuracy experiments.

use seaice_imgproc::buffer::Image;
use seaice_s2::clouds::{self, CloudConfig};
use seaice_s2::synth::{generate, SceneConfig};

/// Builds `n` contaminated RGB tiles of `side`² pixels — the input of the
/// Table I / Table II auto-labeling workload.
pub fn labeling_tiles(n: usize, side: usize, seed: u64) -> Vec<Image<u8>> {
    (0..n)
        .map(|i| {
            let s = seed.wrapping_add(i as u64);
            let scene = generate(&SceneConfig::tiny(side), s);
            // Half the tiles carry cloud/shadow, mirroring the catalog mix.
            if i % 2 == 0 {
                let layer = clouds::generate(
                    &CloudConfig {
                        coverage: 0.3,
                        ..CloudConfig::tiny(side)
                    },
                    s,
                    side,
                    side,
                );
                layer.apply(&scene.rgb)
            } else {
                scene.rgb
            }
        })
        .collect()
}

/// Measures the mean sequential per-tile auto-label cost (full filter +
/// segmentation, default backend) on this host, in seconds. Printed next
/// to the paper's numbers; never written to a `BENCH_*.json`.
pub fn measure_per_tile_cost(tiles: &[Image<u8>]) -> f64 {
    use seaice_imgproc::buffer::Scratch;
    use seaice_label::autolabel::{auto_label_scratch, AutoLabelConfig};
    assert!(!tiles.is_empty());
    let cfg = AutoLabelConfig::filtered_for_tile(tiles[0].width());
    let mut scratch = Scratch::new();
    let t0 = std::time::Instant::now();
    for t in tiles {
        std::hint::black_box(auto_label_scratch(t, &cfg, &mut scratch));
    }
    t0.elapsed().as_secs_f64() / tiles.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_have_requested_shape_and_mix() {
        let tiles = labeling_tiles(6, 32, 1);
        assert_eq!(tiles.len(), 6);
        assert!(tiles.iter().all(|t| t.dimensions() == (32, 32)));
        // Cloudy and clean tiles differ even for the same scene seed.
        assert_ne!(tiles[0], tiles[1]);
    }

    #[test]
    fn per_tile_cost_is_positive() {
        let tiles = labeling_tiles(3, 32, 2);
        let c = measure_per_tile_cost(&tiles);
        assert!(c > 0.0 && c < 10.0);
    }
}
