//! Thin-cloud and cloud-shadow overlays.
//!
//! Sentinel-2 optical scenes are frequently degraded by semi-transparent
//! cloud and by the shadows those clouds cast on the surface. The overlay
//! here reproduces the two radiometric effects the paper's filter targets:
//!
//! * **thin cloud** — additive haze pulling pixels toward white, which
//!   brightens dark water/thin ice into higher-V ranges;
//! * **shadow** — multiplicative darkening (the cloud alpha shifted by the
//!   sun-geometry offset), which pushes bright thick ice down into the
//!   thin-ice value range — exactly the confusion mode the paper reports
//!   (thick ice misread as thin ice under shadow).
//!
//! The layer keeps its alpha fields, so experiments know the true per-pixel
//! contamination and can bucket tiles by cloud coverage (Table V).

use crate::noise::{fbm_field, FbmConfig};
use seaice_exec::par;
use seaice_imgproc::buffer::Image;
use seaice_imgproc::ops::round_to_u8;

/// Configuration of the cloud/shadow overlay.
#[derive(Clone, Copy, Debug)]
pub struct CloudConfig {
    /// Target fraction of pixels covered by cloud (before the shadow is
    /// added); `0.0` disables the overlay entirely.
    pub coverage: f64,
    /// Peak haze opacity of the thickest part of a thin cloud (`< 1` keeps
    /// the surface partially visible, as the paper's "thin" clouds do).
    pub max_opacity: f32,
    /// Shadow displacement in pixels (sun geometry), applied to the cloud
    /// alpha field.
    pub shadow_offset: (isize, isize),
    /// Peak fractional darkening under the densest shadow.
    pub shadow_strength: f32,
    /// Base wavelength of the cloud field in pixels.
    pub wavelength: f32,
}

impl Default for CloudConfig {
    fn default() -> Self {
        Self {
            coverage: 0.25,
            max_opacity: 0.55,
            shadow_offset: (48, 32),
            shadow_strength: 0.55,
            wavelength: 384.0,
        }
    }
}

impl CloudConfig {
    /// Scales the geometry for small test scenes.
    pub fn tiny(side: usize) -> Self {
        Self {
            wavelength: (side as f32 / 3.0).max(2.0),
            shadow_offset: (side as isize / 10, side as isize / 16),
            ..Self::default()
        }
    }
}

/// A generated cloud/shadow layer with known per-pixel alpha fields.
#[derive(Clone, Debug)]
pub struct CloudLayer {
    /// Haze opacity per pixel, in `[0, max_opacity]`.
    pub cloud_alpha: Image<f32>,
    /// Shadow density per pixel, in `[0, 1]` (scaled by `shadow_strength`
    /// when applied).
    pub shadow_alpha: Image<f32>,
    /// The configuration the layer was built from.
    pub config: CloudConfig,
}

/// Generates a cloud layer for a `width × height` scene, deterministic in
/// `(cfg, seed)`.
pub fn generate(cfg: &CloudConfig, seed: u64, width: usize, height: usize) -> CloudLayer {
    let mut cloud = Image::<f32>::new(width, height, 1);
    let mut shadow = Image::<f32>::new(width, height, 1);
    if cfg.coverage <= 0.0 || width == 0 || height == 0 {
        return CloudLayer {
            cloud_alpha: cloud,
            shadow_alpha: shadow,
            config: *cfg,
        };
    }

    let field_cfg = FbmConfig {
        octaves: 4,
        frequency: 1.0 / cfg.wavelength,
        lacunarity: 2.0,
        gain: 0.55,
    };
    let cloud_seed = seed ^ 0xC10D_C10D_C10D_C10D;

    // Raw density field.
    let field = fbm_field(width, height, cloud_seed, &field_cfg);

    // Pick the threshold as the (1 - coverage) quantile so the covered
    // fraction matches the target regardless of the field's distribution.
    let cut = {
        let mut sorted = field.clone();
        let k = ((1.0 - cfg.coverage) * (sorted.len() - 1) as f64).round() as usize;
        let (_, kth, _) = sorted.select_nth_unstable_by(k, |a, b| a.total_cmp(b));
        *kth
    };
    let soft = 0.12f32; // smooth shoulder so cloud edges feather out

    par::chunks_mut(cloud.as_mut_slice(), width, |y, row| {
        for (x, a) in row.iter_mut().enumerate() {
            let f = field[y * width + x];
            let t = ((f - cut) / soft).clamp(0.0, 1.0);
            // Smoothstep shoulder, peak opacity capped for *thin* cloud.
            *a = (t * t * (3.0 - 2.0 * t)) * cfg.max_opacity;
        }
    });

    // Shadow: the cloud alpha displaced by the sun-geometry offset.
    let (dx, dy) = cfg.shadow_offset;
    let cloud_ref = &cloud;
    par::chunks_mut(shadow.as_mut_slice(), width, |y, row| {
        for (x, s) in row.iter_mut().enumerate() {
            let sx = x as isize - dx;
            let sy = y as isize - dy;
            if sx >= 0 && sy >= 0 && (sx as usize) < width && (sy as usize) < height {
                // Normalize back to [0, 1] density.
                *s = cloud_ref.get(sx as usize, sy as usize) / cfg.max_opacity.max(1e-6);
            }
        }
    });

    CloudLayer {
        cloud_alpha: cloud,
        shadow_alpha: shadow,
        config: *cfg,
    }
}

impl CloudLayer {
    /// Applies the haze and shadow to an RGB image, returning the degraded
    /// image (the original is untouched).
    ///
    /// # Panics
    /// Panics if `rgb` is not 3-channel or sizes mismatch.
    pub fn apply(&self, rgb: &Image<u8>) -> Image<u8> {
        assert_eq!(rgb.channels(), 3, "cloud overlay expects RGB");
        assert_eq!(
            rgb.dimensions(),
            self.cloud_alpha.dimensions(),
            "size mismatch"
        );
        let (w, _h) = rgb.dimensions();
        let strength = self.config.shadow_strength;
        let mut out = rgb.clone();
        let (ca, sa) = (&self.cloud_alpha, &self.shadow_alpha);
        par::chunks_mut(out.as_mut_slice(), w * 3, |y, row| {
            let alphas = ca.row(y).iter().zip(sa.row(y));
            for (px, (&a, &s)) in row.chunks_exact_mut(3).zip(alphas) {
                let s = s * strength;
                for c in px {
                    // Shadow first (surface-level), then haze on top.
                    let shaded = *c as f32 * (1.0 - s);
                    let hazed = shaded * (1.0 - a) + 255.0 * a;
                    *c = round_to_u8(hazed);
                }
            }
        });
        out
    }

    /// Combined contamination mask: fraction in `[0, 1]` per pixel, the
    /// maximum of haze opacity (normalized) and shadow density.
    pub fn contamination(&self) -> Image<f32> {
        let norm = self.config.max_opacity.max(1e-6);
        seaice_imgproc::buffer::zip_map(&self.cloud_alpha, &self.shadow_alpha, |a, s| {
            (a / norm).max(s)
        })
    }

    /// Fraction of pixels visibly affected by cloud or shadow (density
    /// above a perceptibility floor of 0.05).
    pub fn coverage_fraction(&self) -> f64 {
        let c = self.contamination();
        let n = c.as_slice().len().max(1);
        let hit = c.as_slice().iter().filter(|&&v| v > 0.05).count();
        hit as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate as gen_scene, SceneConfig};

    #[test]
    fn clear_config_is_identity() {
        let scene = gen_scene(&SceneConfig::tiny(64), 1);
        let clear = CloudConfig {
            coverage: 0.0,
            ..CloudConfig::default()
        };
        let layer = generate(&clear, 1, 64, 64);
        assert_eq!(layer.apply(&scene.rgb), scene.rgb);
        assert_eq!(layer.coverage_fraction(), 0.0);
    }

    #[test]
    fn coverage_tracks_target() {
        for &target in &[0.1f64, 0.3, 0.6] {
            let layer = generate(
                &CloudConfig {
                    coverage: target,
                    ..CloudConfig::tiny(128)
                },
                7,
                128,
                128,
            );
            // Cloud pixels alone should be near the target; the feathered
            // shoulder trims some, the shadow offset adds some back.
            let got = layer.coverage_fraction();
            assert!(
                (got - target).abs() < 0.25,
                "coverage {got:.3} too far from target {target}"
            );
            assert!(got > 0.0);
        }
    }

    #[test]
    fn layer_is_deterministic() {
        let cfg = CloudConfig::tiny(64);
        let a = generate(&cfg, 5, 64, 64);
        let b = generate(&cfg, 5, 64, 64);
        assert_eq!(a.cloud_alpha, b.cloud_alpha);
        assert_eq!(a.shadow_alpha, b.shadow_alpha);
    }

    #[test]
    fn haze_brightens_dark_pixels() {
        // A black scene can only get brighter under haze.
        let black = Image::<u8>::new(64, 64, 3);
        let layer = generate(&CloudConfig::tiny(64), 3, 64, 64);
        let out = layer.apply(&black);
        let brightened = out.as_slice().iter().filter(|&&v| v > 0).count();
        assert!(brightened > 0, "haze must brighten some pixels");
    }

    #[test]
    fn shadow_darkens_bright_pixels() {
        // A white scene can only get darker; darkening happens exactly
        // where the shadow field is positive and the cloud is thin.
        let mut white = Image::<u8>::new(64, 64, 3);
        white.fill(&[255, 255, 255]);
        let layer = generate(
            &CloudConfig {
                coverage: 0.4,
                ..CloudConfig::tiny(64)
            },
            9,
            64,
            64,
        );
        let out = layer.apply(&white);
        let darkened = out.as_slice().iter().filter(|&&v| v < 250).count();
        assert!(darkened > 0, "shadow must darken some pixels");
    }

    #[test]
    fn alpha_fields_are_bounded() {
        let cfg = CloudConfig::tiny(96);
        let layer = generate(&cfg, 11, 96, 96);
        assert!(layer
            .cloud_alpha
            .as_slice()
            .iter()
            .all(|&a| (0.0..=cfg.max_opacity + 1e-6).contains(&a)));
        assert!(layer
            .shadow_alpha
            .as_slice()
            .iter()
            .all(|&s| (0.0..=1.0 + 1e-6).contains(&s)));
    }

    #[test]
    fn shadow_is_displaced_cloud() {
        let cfg = CloudConfig {
            coverage: 0.3,
            shadow_offset: (5, 3),
            ..CloudConfig::tiny(64)
        };
        let layer = generate(&cfg, 21, 64, 64);
        // Pick an interior pixel with cloud; its shadow twin sits at +offset.
        let mut checked = false;
        for y in 10..50 {
            for x in 10..50 {
                let a = layer.cloud_alpha.get(x, y);
                if a > 0.1 {
                    let s = layer.shadow_alpha.get(x + 5, y + 3);
                    assert!((s - a / cfg.max_opacity).abs() < 1e-6);
                    checked = true;
                }
            }
        }
        assert!(checked, "no cloudy pixel found to verify displacement");
    }
}
