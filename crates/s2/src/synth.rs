//! Procedural polar-scene synthesis.
//!
//! A scene is generated in three stages:
//!
//! 1. **Ice-concentration field** — low-frequency fBm; two thresholds carve
//!    it into open water, thin ice, and thick ice, which yields the organic
//!    floe shapes visible in the paper's Ross Sea imagery.
//! 2. **Leads** — a few long, narrow, slightly meandering cracks of open
//!    water cut through the ice (the linear features lead-detection work on
//!    S2 targets).
//! 3. **Rendering** — per-class HSV-calibrated colors with fine fBm surface
//!    texture, so thick ice lands in `V ∈ [205, 255]`, thin ice in
//!    `V ∈ [31, 204]`, and water in `V ∈ [0, 30]` — the exact ranges the
//!    paper's auto-labeler thresholds.
//!
//! The generator also emits the exact per-pixel class mask, which plays the
//! role of the paper's manual labels.

use crate::classes::{OPEN_WATER, THICK_ICE, THIN_ICE};
use crate::noise::{FbmConfig, FbmLine, FbmRows};
use seaice_exec::par;
use seaice_imgproc::buffer::Image;

/// Configuration of the procedural scene generator.
#[derive(Clone, Debug)]
pub struct SceneConfig {
    /// Scene width in pixels (paper: 2048).
    pub width: usize,
    /// Scene height in pixels (paper: 2048).
    pub height: usize,
    /// Ice-concentration values below this are open water.
    pub water_level: f32,
    /// Values in `[water_level, thin_level)` are thin ice; above, thick ice.
    pub thin_level: f32,
    /// Number of linear leads (cracks) cut through the ice.
    pub lead_count: usize,
    /// Lead half-width in pixels.
    pub lead_half_width: f32,
    /// Octave structure of the ice-concentration field (≥ 1).
    pub field_octaves: u32,
    /// Base wavelength (pixels) of the ice-concentration field.
    pub field_wavelength: f32,
    /// Base wavelength (pixels) of the fine surface texture.
    pub texture_wavelength: f32,
    /// Global illumination factor in `(0, 1]`: 1.0 is the polar summer
    /// the paper calibrates for; ~0.45 models the partial-night season
    /// whose darker imagery forced the authors to re-tune their
    /// brightness thresholds (§IV-B-2).
    pub illumination: f32,
}

impl Default for SceneConfig {
    fn default() -> Self {
        Self {
            width: 2048,
            height: 2048,
            water_level: 0.38,
            thin_level: 0.52,
            lead_count: 3,
            lead_half_width: 6.0,
            field_octaves: 4,
            field_wavelength: 512.0,
            texture_wavelength: 24.0,
            illumination: 1.0,
        }
    }
}

impl SceneConfig {
    /// A small configuration suited to unit tests and doc examples.
    pub fn tiny(side: usize) -> Self {
        Self {
            width: side,
            height: side,
            field_wavelength: (side as f32 / 4.0).max(2.0),
            texture_wavelength: (side as f32 / 16.0).max(2.0),
            lead_count: 1,
            lead_half_width: (side as f32 / 48.0).max(1.0),
            ..Self::default()
        }
    }
}

/// A generated scene: RGB pixels plus the exact per-pixel class mask.
#[derive(Clone, Debug)]
pub struct Scene {
    /// 3-channel RGB image (interleaved, 8-bit).
    pub rgb: Image<u8>,
    /// Single-channel class mask using [`crate::classes`] indices.
    pub truth: Image<u8>,
    /// Seed the scene was generated from.
    pub seed: u64,
}

/// Octave structure of a lead's meander along its line.
const MEANDER: FbmConfig = FbmConfig {
    octaves: 2,
    frequency: 1.0,
    lacunarity: 2.0,
    gain: 0.5,
};

/// A lead: an infinite line (point + unit normal) with a meander field; a
/// pixel belongs to the lead when its perturbed distance to the line is
/// under the half-width.
struct Lead {
    px: f32,
    py: f32,
    nx: f32,
    ny: f32,
    half_width: f32,
    /// Meander wavelength along the line, in pixels.
    wavelength: f32,
    /// `fbm(t, 0.0, ·, &MEANDER)` under the lead's own seed, tabulated over
    /// every `t` a pixel of the scene reaches.
    meander: FbmLine,
}

impl Lead {
    #[inline]
    fn contains(&self, x: f32, y: f32) -> bool {
        let d = (x - self.px) * self.nx + (y - self.py) * self.ny;
        // Meander: bend the crack with low-frequency noise along the line.
        let along = -(x - self.px) * self.ny + (y - self.py) * self.nx;
        let bend = (self.meander.sample(along / self.wavelength) - 0.5) * 8.0 * self.half_width;
        (d - bend).abs() < self.half_width
    }
}

fn build_leads(cfg: &SceneConfig, seed: u64) -> Vec<Lead> {
    let wavelength = cfg.field_wavelength / 2.0;
    // No pixel lies farther along a line from a point of the scene than
    // the scene's diagonal.
    let diagonal = (cfg.width as f32).hypot(cfg.height as f32);
    let reach = diagonal / wavelength;
    (0..cfg.lead_count)
        .map(|i| {
            let s = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64 + 1);
            // Derive lead geometry from hashed seed material (keeps the
            // generator free of stateful RNG so pixels stay addressable).
            let h1 = hash01(s, 1);
            let h2 = hash01(s, 2);
            let h3 = hash01(s, 3);
            let theta = h1 * std::f32::consts::PI;
            Lead {
                px: h2 * cfg.width as f32,
                py: h3 * cfg.height as f32,
                nx: theta.cos(),
                ny: theta.sin(),
                half_width: cfg.lead_half_width,
                wavelength,
                meander: FbmLine::new(s ^ 0xABCD_EF01, &MEANDER, (-reach, reach)),
            }
        })
        .collect()
}

#[inline]
fn hash01(seed: u64, k: u64) -> f32 {
    let mut z = seed ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32
}

/// Per-class rendering: map a texture coordinate `t ∈ [0, 1]` to an RGB
/// pixel whose HSV value lands inside the class's calibrated range,
/// scaled by the global illumination factor.
#[inline]
fn render_class(class: u8, t: f32, illumination: f32) -> [u8; 3] {
    let scale = |v: f32| (v * illumination).clamp(0.0, 255.0);
    match class {
        // Thick / snow-covered ice: bright, near-white, V ∈ [210, 252].
        THICK_ICE => {
            let v = 210.0 + t * 42.0;
            let r = v - 6.0 - t * 4.0;
            let g = v - 3.0;
            [scale(r) as u8, scale(g) as u8, scale(v) as u8]
        }
        // Thin / young ice: grey-blue, V ∈ [60, 190].
        THIN_ICE => {
            let v = 60.0 + t * 130.0;
            let r = v * 0.82;
            let g = v * 0.92;
            [scale(r) as u8, scale(g) as u8, scale(v) as u8]
        }
        // Open water: near-black with a blue cast, V ∈ [4, 28].
        _ => {
            let v = 4.0 + t * 24.0;
            let r = v * 0.45;
            let g = v * 0.7;
            [scale(r) as u8, scale(g) as u8, scale(v) as u8]
        }
    }
}

/// Generates a scene deterministically from `cfg` and `seed`.
///
/// The same `(cfg, seed)` always produces identical pixels and truth mask.
///
/// # Panics
/// Panics when `cfg.field_octaves` is 0.
pub fn generate(cfg: &SceneConfig, seed: u64) -> Scene {
    let (w, h) = (cfg.width, cfg.height);
    let field_cfg = FbmConfig {
        octaves: cfg.field_octaves,
        frequency: 1.0 / cfg.field_wavelength,
        lacunarity: 2.0,
        gain: 0.5,
    };
    let tex_cfg = FbmConfig {
        octaves: 3,
        frequency: 1.0 / cfg.texture_wavelength,
        lacunarity: 2.0,
        gain: 0.5,
    };
    let leads = build_leads(cfg, seed);
    let field = FbmRows::new(seed, &field_cfg, w);
    let texture = FbmRows::new(seed ^ 0x00FF_00FF_00FF_00FF, &tex_cfg, w);

    let mut rgb = Image::<u8>::new(w, h, 3);
    let mut truth = Image::<u8>::new(w, h, 1);

    let (rgb_rows, truth_rows) = (rgb.as_mut_slice(), truth.as_mut_slice());
    par::chunks_mut2(rgb_rows, w * 3, truth_rows, w, |y, rgb_row, truth_row| {
        let (mut conc_row, mut tex_row) = (vec![0f32; w], vec![0f32; w]);
        field.row(y, &mut conc_row);
        texture.row(y, &mut tex_row);
        let fy = y as f32;
        let pixels = rgb_row.chunks_exact_mut(3).zip(truth_row);
        let fields = conc_row.iter().zip(&tex_row);
        for (x, ((px, class_out), (&conc, &t))) in pixels.zip(fields).enumerate() {
            let fx = x as f32;
            let mut class = if conc < cfg.water_level {
                OPEN_WATER
            } else if conc < cfg.thin_level {
                THIN_ICE
            } else {
                THICK_ICE
            };
            // Leads cut open water through any ice.
            if class != OPEN_WATER && leads.iter().any(|l| l.contains(fx, fy)) {
                class = OPEN_WATER;
            }
            px.copy_from_slice(&render_class(class, t, cfg.illumination));
            *class_out = class;
        }
    });

    Scene { rgb, truth, seed }
}

/// Per-class pixel fractions `(thick, thin, water)` of a truth mask.
pub fn class_fractions(truth: &Image<u8>) -> (f64, f64, f64) {
    let n = truth.as_slice().len().max(1) as f64;
    let mut counts = [0usize; 3];
    for &c in truth.as_slice() {
        counts[(c as usize).min(2)] += 1;
    }
    (
        counts[THICK_ICE as usize] as f64 / n,
        counts[THIN_ICE as usize] as f64 / n,
        counts[OPEN_WATER as usize] as f64 / n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaice_imgproc::color::rgb_pixel_to_hsv;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SceneConfig::tiny(64);
        let a = generate(&cfg, 42);
        let b = generate(&cfg, 42);
        assert_eq!(a.rgb, b.rgb);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SceneConfig::tiny(64);
        let a = generate(&cfg, 1);
        let b = generate(&cfg, 2);
        assert_ne!(a.rgb, b.rgb);
    }

    #[test]
    fn truth_uses_only_valid_classes() {
        let scene = generate(&SceneConfig::tiny(64), 3);
        assert!(scene.truth.as_slice().iter().all(|&c| c <= 2));
    }

    #[test]
    fn rendered_pixels_match_class_hsv_ranges() {
        let scene = generate(&SceneConfig::tiny(128), 11);
        for (x, y, px) in scene.rgb.pixels() {
            let [_, _, v] = rgb_pixel_to_hsv(px[0], px[1], px[2]);
            let class = scene.truth.get(x, y);
            match class {
                THICK_ICE => assert!(v >= 205, "thick ice V={v} at ({x},{y})"),
                THIN_ICE => assert!((31..=204).contains(&v), "thin ice V={v}"),
                _ => assert!(v <= 30, "water V={v}"),
            }
        }
    }

    #[test]
    fn all_three_classes_appear_in_a_large_scene() {
        let scene = generate(&SceneConfig::tiny(256), 5);
        let (thick, thin, water) = class_fractions(&scene.truth);
        assert!(thick > 0.0, "no thick ice generated");
        assert!(thin > 0.0, "no thin ice generated");
        assert!(water > 0.0, "no open water generated");
        assert!((thick + thin + water - 1.0).abs() < 1e-9);
    }

    #[test]
    fn leads_add_water() {
        let mut with = SceneConfig::tiny(128);
        with.water_level = 0.0; // all ice without leads
        let mut without = with.clone();
        without.lead_count = 0;
        let s_with = generate(&with, 9);
        let s_without = generate(&without, 9);
        let water_with = class_fractions(&s_with.truth).2;
        let water_without = class_fractions(&s_without.truth).2;
        assert_eq!(water_without, 0.0);
        assert!(water_with > 0.0, "leads must introduce open water");
    }

    #[test]
    #[should_panic(expected = "fBm needs at least one octave")]
    fn a_zero_octave_field_is_refused_instead_of_rendering_nan_as_thick_ice() {
        generate(
            &SceneConfig {
                field_octaves: 0,
                ..SceneConfig::tiny(32)
            },
            1,
        );
    }

    #[test]
    fn class_thresholds_order_controls_composition() {
        // Raising water_level turns more of the scene into water.
        let lo = generate(
            &SceneConfig {
                water_level: 0.2,
                ..SceneConfig::tiny(96)
            },
            13,
        );
        let hi = generate(
            &SceneConfig {
                water_level: 0.6,
                ..SceneConfig::tiny(96)
            },
            13,
        );
        assert!(class_fractions(&hi.truth).2 > class_fractions(&lo.truth).2);
    }
}
