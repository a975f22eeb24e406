//! Thin-cloud and cloud-shadow filtering (§III-A "Filtering Out the Thin
//! Clouds and Shadows").
//!
//! The paper composes OpenCV primitives — RGB→HSV conversion, noise
//! filtering, bit-wise operations, absolute difference, Otsu / truncated /
//! binary thresholding, and min-max normalization — into a filter tuned by
//! trial and error on Ross Sea imagery. This module implements a filter
//! with the same building blocks and the same physical model:
//!
//! * **thin cloud** is additive haze toward white:
//!   `I' = I·(1 − a) + 255·a` with a smooth opacity field `a`;
//! * **shadow** is smooth multiplicative darkening: `I' = I·m`, `m ≤ 1`.
//!
//! **Haze estimation.** Sea-ice surface classes have stable chroma ratios
//! (open water and thin ice are distinctly blue-tinted; haze drags every
//! channel toward white and therefore *changes the ratios*). For a class
//! hypothesis with red/blue ratio `ρ`, the haze opacity follows in closed
//! form from two channels: `a = (R − ρB) / (255(1 − ρ))`; the green
//! channel then validates the hypothesis (predicted vs observed absolute
//! difference). Per-pixel estimates are confidence-weighted and smoothed
//! with a large box filter (haze fields are smooth), then inverted. Bright
//! thick ice is chromatically degenerate with haze — white looks like
//! cloud — so it yields no confident estimate and borrows the field from
//! its surroundings, exactly like the paper's trial-and-error thresholds
//! implicitly do.
//!
//! **Shadow correction.** After dehazing, shadowed thick ice is the
//! remaining failure mode (the paper's Fig. 13 shows thick ice read as
//! thin ice under shadow): pixels with *thick-ice chroma* (near-zero
//! saturation) but mid-range V must be darkened bright ice. Their implied
//! gain `m = V / V_thick` is pooled over a smoothed mask and inverted.
//!
//! The filter is intentionally conservative: clean pixels pass through
//! (beyond the mild median pre-filter), haze opacity is capped at what
//! *thin* cloud can reach, and corrections fade smoothly at mask borders.

use crate::dispatch;
use seaice_exec::par;
use seaice_imgproc::buffer::{Image, Scratch};
use seaice_imgproc::color::saturation_at_most;
use seaice_imgproc::filter::{box_blur_f32_pair, median_filter_into};
use seaice_imgproc::ops::{min_max_normalize, round_to_u8};
use seaice_imgproc::threshold::{otsu_binary, threshold, ThresholdType};

/// Chroma hypotheses `(ρ = R/B, γ = G/B)` for the two blue-tinted classes
/// that make haze identifiable.
const HYPOTHESES: [(f32, f32); 2] = [(0.45, 0.70), (0.82, 0.92)];

/// Pixels per strip. Every per-pixel pass walks a row in strips this long,
/// through `f32` planes on the stack, so that each of its loops is one
/// straight-line, branch-free body over equally long slices, which LLVM
/// vectorises. The bodies compute every value unconditionally and then
/// select: a load or a division written inside an `if` arm is sunk into a
/// branch, and a loop with one stays scalar.
const STRIP: usize = 64;

/// Up to `STRIP` interleaved RGB pixels as three `f32` planes, each cut to
/// the pixel count.
#[inline(always)]
fn deinterleave<'a>(px: &[u8], planes: &'a mut [[f32; STRIP]; 3]) -> [&'a [f32]; 3] {
    let [r, g, b] = planes;
    let samples = r.iter_mut().zip(g.iter_mut()).zip(b.iter_mut());
    for (p, ((r, g), b)) in px.chunks_exact(3).zip(samples) {
        *r = f32::from(p[0]);
        *g = f32::from(p[1]);
        *b = f32::from(p[2]);
    }
    let n = px.len() / 3;
    planes.each_ref().map(|p| &p[..n])
}

/// A pixel's largest channel V and its distance Δ to the smallest, by
/// compare-selects: the channels are integers, so the NaN handling of
/// `f32::max` would only cost instructions.
#[inline(always)]
fn v_and_delta(r: f32, g: f32, b: f32) -> (f32, f32) {
    let max = |x: f32, y: f32| if x > y { x } else { y };
    let min = |x: f32, y: f32| if x < y { x } else { y };
    let v = max(max(r, g), b);
    (v, v - min(min(r, g), b))
}

/// Replaces every sample `c` of a strip of interleaved RGB pixels with
/// `round_to_u8((c − sub) · inv)`. The callers spread each pixel's `sub`
/// and `inv` over its three samples, so the correction is one straight
/// loop over the bytes. A pixel to leave alone carries `sub = 0, inv = 1`:
/// `(c − 0) · 1` is `c` exactly, and an integer rounds to itself, so it
/// keeps its byte.
#[inline(always)]
fn correct_strip(px: &mut [u8], sub: &[f32], inv: &[f32]) {
    for ((c, &s), &i) in px.iter_mut().zip(sub).zip(inv) {
        *c = round_to_u8((f32::from(*c) - s) * i);
    }
}

/// One chroma hypothesis `(ρ, γ)` on a pixel: the closed-form haze opacity
/// and the green channel's disagreement with it.
#[inline(always)]
fn hypothesis(r: f32, g: f32, b: f32, (rho, gamma): (f32, f32)) -> (f32, f32) {
    // 8-bit rounding can push an exact zero-haze pixel slightly negative;
    // clamp instead of rejecting so the correct hypothesis still competes.
    let a = ((r - rho * b) / (255.0 * (1.0 - rho))).max(0.0);
    let g_pred = gamma * (b - 255.0 * a) + 255.0 * a;
    (a, (g_pred - g).abs())
}

/// Step 2 on one row of the denoised image: each pixel's
/// confidence-weighted haze estimate `a · conf` and its weight `conf`, or
/// `0.0` for both where it gives no evidence.
#[inline(always)]
pub(crate) fn haze_row_body(cfg: &FilterConfig, px: &[u8], a_row: &mut [f32], w_row: &mut [f32]) {
    // A copy the stores below cannot alias, so its fields stay in
    // registers.
    let cfg = *cfg;
    let mut rgb = [[0.0f32; STRIP]; 3];
    let strips = a_row.chunks_mut(STRIP).zip(w_row.chunks_mut(STRIP));
    for (px, (a_out, w_out)) in px.chunks(3 * STRIP).zip(strips) {
        let [r, g, b] = deinterleave(px, &mut rgb);
        let pixels = r.iter().zip(g).zip(b).zip(a_out.iter_mut().zip(w_out));
        for (((&r, &g), &b), (a_out, w_out)) in pixels {
            // Plausibly shadowed bright ice gives no evidence.
            let (v, delta) = v_and_delta(r, g, b);
            let excluded = cfg.shadow_exclusion & cfg.shadow_candidate(v, delta);
            // Hypotheses above the cap are rejected; of the rest the first
            // wins unless the second fits green strictly better.
            let (a0, err0) = hypothesis(r, g, b, HYPOTHESES[0]);
            let (a1, err1) = hypothesis(r, g, b, HYPOTHESES[1]);
            let (capped0, capped1) = (a0 > cfg.haze_cap, a1 > cfg.haze_cap);
            let second = !capped1 & (capped0 | (err1 < err0));
            let (a, err) = if second { (a1, err1) } else { (a0, err0) };
            let accept = !excluded & !(capped0 & capped1) & (err <= cfg.consistency_tol);
            let conf = 1.0 - err / cfg.consistency_tol;
            *a_out = if accept { a * conf } else { 0.0 };
            *w_out = if accept { conf } else { 0.0 };
        }
    }
}

/// Steps 3–4 on one row: the haze `hz` blurred from the evidence becomes
/// the pooled or own estimate, and the row's pixels are dehazed with it.
/// `blurred_w`, `own_a` and `own_weight` are the row's blurred weights and
/// unblurred evidence.
#[inline(always)]
pub(crate) fn dehaze_row_body(
    cfg: &FilterConfig,
    hz_row: &mut [f32],
    px_row: &mut [u8],
    blurred_w: &[f32],
    own_a: &[f32],
    own_weight: &[f32],
) {
    let cfg = *cfg;
    let (mut sub, mut inv) = ([0.0f32; 3 * STRIP], [0.0f32; 3 * STRIP]);
    let strips = hz_row.chunks_mut(STRIP).zip(px_row.chunks_mut(3 * STRIP));
    for (x, (hz, px)) in (0..).step_by(STRIP).zip(strips) {
        let n = hz.len();
        let (bw, own_a, own_weight) = (
            &blurred_w[x..][..n],
            &own_a[x..][..n],
            &own_weight[x..][..n],
        );
        let (sub, inv) = (&mut sub[..3 * n], &mut inv[..3 * n]);
        for i in 0..n {
            // Pooled estimate over the window (bridges degenerate pixels).
            let pooled = (hz[i] / bw[i]).clamp(0.0, cfg.haze_cap);
            let pooled = if bw[i] > 0.02 { pooled } else { 0.0 };
            // Confident pixels keep their own (closed-form, exact)
            // estimate; the pooled field only fills in the rest. Without
            // this, box smoothing dilutes cloud interiors with clear
            // surroundings and the haze is systematically under-corrected.
            let own_w = own_weight[i].clamp(0.0, 1.0);
            let own_w = if cfg.confidence_blend { own_w } else { 0.0 };
            let own = own_a[i] / own_w;
            let own = if own_w > 0.0 { own } else { 0.0 };
            let a = own_w * own + (1.0 - own_w) * pooled;
            hz[i] = a;
            // Insignificant haze leaves the pixel alone.
            let keep = a < cfg.min_haze;
            let (a_255, a_inv) = (255.0 * a, 1.0 / (1.0 - a));
            sub[3 * i..][..3].fill(if keep { 0.0 } else { a_255 });
            inv[3 * i..][..3].fill(if keep { 1.0 } else { a_inv });
        }
        correct_strip(px, sub, inv);
    }
}

/// Step 5's flag on one row of the dehazed image: a shadow candidate's
/// implied gain and weight 1, or `0.0` for both.
#[inline(always)]
pub(crate) fn flag_row_body(cfg: &FilterConfig, px: &[u8], g_row: &mut [f32], gw_row: &mut [f32]) {
    let cfg = *cfg;
    let mut rgb = [[0.0f32; STRIP]; 3];
    let strips = g_row.chunks_mut(STRIP).zip(gw_row.chunks_mut(STRIP));
    for (px, (g_out, gw_out)) in px.chunks(3 * STRIP).zip(strips) {
        let [r, g, b] = deinterleave(px, &mut rgb);
        let pixels = r.iter().zip(g).zip(b).zip(g_out.iter_mut().zip(gw_out));
        for (((&r, &g), &b), (g_out, gw_out)) in pixels {
            let (v, delta) = v_and_delta(r, g, b);
            let flagged = cfg.shadow_candidate(v, delta);
            // Truncated threshold on the implied gain: never above 1.
            let gain = (v / cfg.thick_target_v).min(1.0);
            *g_out = if flagged { gain } else { 0.0 };
            *gw_out = if flagged { 1.0 } else { 0.0 };
        }
    }
}

/// Step 5's correction on one row: the gain `sg` blurred from the flags
/// becomes the own or faded pooled gain, and the row's pixels are
/// deshadowed with it. `blurred_gw`, `own_g` and `own_gw` are the row's
/// blurred weights and unblurred flags.
#[inline(always)]
pub(crate) fn deshadow_row_body(
    sg_row: &mut [f32],
    px_row: &mut [u8],
    blurred_gw: &[f32],
    own_g: &[f32],
    own_gw: &[f32],
) {
    let (zero, mut inv) = ([0.0f32; 3 * STRIP], [0.0f32; 3 * STRIP]);
    let strips = sg_row.chunks_mut(STRIP).zip(px_row.chunks_mut(3 * STRIP));
    for (x, (sg, px)) in (0..).step_by(STRIP).zip(strips) {
        let n = sg.len();
        let (bw, own_g, own_gw) = (&blurred_gw[x..][..n], &own_g[x..][..n], &own_gw[x..][..n]);
        let inv = &mut inv[..3 * n];
        for i in 0..n {
            // Flagged pixels use their own implied gain (maps their V to
            // the thick-ice reference exactly); others take the pooled
            // field, faded with mask density so borders stay smooth:
            // m_eff = 1 + (m - 1) * density.
            let own = own_g[i].clamp(0.25, 1.0);
            let pooled = (sg[i] / bw[i]).clamp(0.25, 1.0);
            let density = (bw[i] * 2.0).min(1.0);
            let faded = 1.0 + (pooled - 1.0) * density;
            let m = if bw[i] > 0.05 { faded } else { 1.0 };
            let m = if own_gw[i] > 0.0 { own } else { m };
            sg[i] = m;
            // A gain this close to 1 leaves the pixel alone.
            let m_inv = 1.0 / m;
            inv[3 * i..][..3].fill(if m >= 0.999 { 1.0 } else { m_inv });
        }
        correct_strip(px, &zero[..3 * n], inv);
    }
}

/// Tuning parameters of the cloud/shadow filter.
#[derive(Clone, Copy, Debug)]
pub struct FilterConfig {
    /// Median pre-filter radius ("noise filtering" stage); 0 disables.
    pub denoise_radius: usize,
    /// Box radius used to smooth the haze and shadow-gain fields. Should
    /// be large enough to bridge chroma-degenerate (bright ice) patches
    /// but smaller than the cloud structures themselves.
    pub smooth_radius: usize,
    /// Maximum opacity a *thin* cloud can plausibly reach; hypothesis
    /// solutions above this are rejected as degenerate (white surface).
    pub haze_cap: f32,
    /// Green-channel consistency tolerance (8-bit levels) for accepting a
    /// per-pixel haze estimate.
    pub consistency_tol: f32,
    /// Saturation ceiling identifying thick-ice chroma in the shadow pass.
    pub shadow_sat_max: u8,
    /// V window (inclusive) in which shadowed thick ice is searched.
    pub shadow_v: (u8, u8),
    /// Reference V of healthy thick ice, used to derive the shadow gain.
    pub thick_target_v: f32,
    /// Minimum haze opacity that is actually corrected (hysteresis against
    /// amplifying estimation noise on clean scenes).
    pub min_haze: f32,
    /// Ablation switch: run the shadow-correction pass (step 5).
    pub shadow_pass: bool,
    /// Ablation switch: let confident pixels keep their own closed-form
    /// haze estimate instead of always taking the pooled field.
    pub confidence_blend: bool,
    /// Ablation switch: exclude shadow-plausible (near-achromatic mid-V)
    /// pixels from the haze evidence pool.
    pub shadow_exclusion: bool,
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self {
            denoise_radius: 1,
            smooth_radius: 32,
            haze_cap: 0.62,
            consistency_tol: 6.0,
            shadow_sat_max: 14,
            shadow_v: (60, 204),
            thick_target_v: 230.0,
            min_haze: 0.04,
            shadow_pass: true,
            confidence_blend: true,
            shadow_exclusion: true,
        }
    }
}

impl FilterConfig {
    /// Scales the smoothing radius to the image size (`side / 8`), which
    /// keeps the field smoothing proportionate for tiles vs full scenes.
    pub fn for_tile(side: usize) -> Self {
        Self {
            smooth_radius: (side / 8).max(4),
            ..Self::default()
        }
    }

    /// True when a pixel is plausibly shadowed bright ice: thick-ice chroma
    /// (near-zero S) at mid-range V. `v` is the pixel's largest channel and
    /// `delta` that minus its smallest, both integers in `f32`.
    #[inline(always)]
    fn shadow_candidate(&self, v: f32, delta: f32) -> bool {
        let (lo, hi) = (f32::from(self.shadow_v.0), f32::from(self.shadow_v.1));
        (v >= lo) & (v <= hi) & saturation_at_most(v, delta, self.shadow_sat_max)
    }
}

/// Filter results: the corrected image plus diagnostic fields and masks.
#[derive(Clone, Debug)]
pub struct FilterOutput {
    /// The cloud/shadow-corrected RGB image.
    pub filtered: Image<u8>,
    /// Binary (0/255) thin-cloud mask from Otsu thresholding of the
    /// normalized haze field.
    pub cloud_mask: Image<u8>,
    /// Binary (0/255) shadow mask (smoothed candidate coverage).
    pub shadow_mask: Image<u8>,
    /// Smoothed haze-opacity field in `[0, 1]`.
    pub haze: Image<f32>,
    /// Smoothed shadow gain field in `(0, 1]` (1 = unshadowed).
    pub shadow_gain: Image<f32>,
    /// Per-pixel absolute change `|filtered − original|` (max over
    /// channels), for inspection.
    pub residual: Image<u8>,
}

/// What the correcting half of the filter (steps 1–5) produces.
struct Corrected {
    filtered: Image<u8>,
    haze: Image<f32>,
    shadow_gain: Image<f32>,
}

/// The thin-cloud and shadow filter.
#[derive(Clone, Debug, Default)]
pub struct CloudShadowFilter {
    config: FilterConfig,
}

impl CloudShadowFilter {
    /// Creates a filter with the given tuning.
    pub fn new(config: FilterConfig) -> Self {
        Self { config }
    }

    /// Runs only the correcting half of the filter (steps 1–5) and returns
    /// the corrected image — the entry for labelling and inference loops,
    /// which never look at the diagnostics. Every plane is drawn from
    /// `scratch` (whose zero-fill is what the skipped pixels rely on) and
    /// all but the result go back to it, so consecutive tiles allocate
    /// nothing once the caller recycles the result too.
    pub fn apply_keep_filtered(&self, rgb: &Image<u8>, scratch: &mut Scratch) -> Image<u8> {
        let out = self.correct(rgb, scratch);
        scratch.recycle_image_f32(out.haze);
        scratch.recycle_image_f32(out.shadow_gain);
        out.filtered
    }

    /// Runs the filter on an RGB image: the correction, then the
    /// diagnostic masks and change map derived from it.
    ///
    /// # Panics
    /// Panics if `rgb` is not 3-channel.
    pub fn apply(&self, rgb: &Image<u8>) -> FilterOutput {
        let corrected = self.correct(rgb, &mut Scratch::new());
        self.diagnose(rgb, corrected)
    }

    /// Steps 1–5: the corrected image and the two fields it was corrected
    /// with.
    fn correct(&self, rgb: &Image<u8>, scratch: &mut Scratch) -> Corrected {
        assert_eq!(rgb.channels(), 3, "filter expects an RGB image");
        let cfg = &self.config;
        let (w, h) = rgb.dimensions();
        let tracer = seaice_obs::tracer();
        // The per-pixel passes run row-parallel (inline below 256 rows).
        let row = w.max(1);

        // 1. Noise filtering. Steps 4 and 5 then correct this image in place.
        let span = tracer.span("label.filter.denoise", "label");
        let mut filtered = scratch.take_image(w, h, 3);
        median_filter_into(rgb, cfg.denoise_radius, &mut filtered);
        drop(span);

        // 2. Per-pixel haze estimation with chroma hypotheses.
        //
        // Shadowed thick ice is *pixelwise indistinguishable* from hazy
        // water (multiplicatively darkened white has the same RGB as
        // white-haze over dark water), so pixels that are plausibly
        // shadowed bright ice — near-achromatic at mid V — are excluded
        // from the haze evidence pool; the smooth haze field bridges over
        // them from unambiguous neighbours.
        let span = tracer.span("label.filter.haze", "label");
        let mut a_weighted = scratch.take_image_f32(w, h, 1);
        let mut weight = scratch.take_image_f32(w, h, 1);
        let (a_rows, w_rows) = (a_weighted.as_mut_slice(), weight.as_mut_slice());
        par::chunks_mut2(a_rows, row, w_rows, row, |y, a_row, w_row| {
            dispatch::haze_row(cfg, filtered.row(y), a_row, w_row);
        });

        // 3. Smooth the field (haze varies slowly) via normalized
        //    convolution, so confident pixels fill in degenerate ones, and
        // 4. invert the haze where it is significant, in the same pass.
        let (mut haze, blur_w) =
            box_blur_f32_pair(&a_weighted, &weight, cfg.smooth_radius, scratch);
        let planes = [blur_w.as_slice(), a_weighted.as_slice(), weight.as_slice()];
        let (hz_rows, px_rows) = (haze.as_mut_slice(), filtered.as_mut_slice());
        par::chunks_mut2(hz_rows, row, px_rows, 3 * row, |y, hz_row, px_row| {
            let [bw, a, weight] = planes.map(|p| &p[y * w..][..w]);
            dispatch::dehaze_row(cfg, hz_row, px_row, bw, a, weight);
        });
        scratch.recycle_image_f32(blur_w);
        scratch.recycle_image_f32(a_weighted);
        scratch.recycle_image_f32(weight);
        drop(span);

        // 5. Shadow pass on the dehazed image: thick-ice chroma at
        //    mid-range V implies multiplicative darkening.
        let _span = tracer.span("label.filter.shadow", "label");
        let mut gain_weighted = scratch.take_image_f32(w, h, 1);
        let mut gain_weight = scratch.take_image_f32(w, h, 1);
        if cfg.shadow_pass {
            let (g_rows, gw_rows) = (gain_weighted.as_mut_slice(), gain_weight.as_mut_slice());
            par::chunks_mut2(g_rows, row, gw_rows, row, |y, g_row, gw_row| {
                dispatch::flag_row(cfg, filtered.row(y), g_row, gw_row);
            });
        }
        let (mut shadow_gain, blur_gw) =
            box_blur_f32_pair(&gain_weighted, &gain_weight, cfg.smooth_radius, scratch);
        let planes = [
            blur_gw.as_slice(),
            gain_weighted.as_slice(),
            gain_weight.as_slice(),
        ];
        let (sg_rows, px_rows) = (shadow_gain.as_mut_slice(), filtered.as_mut_slice());
        par::chunks_mut2(sg_rows, row, px_rows, 3 * row, |y, sg_row, px_row| {
            let [bw, g, gw] = planes.map(|p| &p[y * w..][..w]);
            dispatch::deshadow_row(sg_row, px_row, bw, g, gw);
        });
        scratch.recycle_image_f32(blur_gw);
        scratch.recycle_image_f32(gain_weighted);
        scratch.recycle_image_f32(gain_weight);

        Corrected {
            filtered,
            haze,
            shadow_gain,
        }
    }

    /// Steps 6–7: the diagnostic masks and the change map of a correction.
    fn diagnose(&self, rgb: &Image<u8>, corrected: Corrected) -> FilterOutput {
        let Corrected {
            filtered,
            haze,
            shadow_gain,
        } = corrected;
        let cfg = &self.config;
        let (w, h) = rgb.dimensions();
        let _span = seaice_obs::tracer().span("label.filter.diagnostics", "label");

        // 6. Diagnostic masks. The haze field is normalized to 8 bits and
        //    Otsu-thresholded (adaptive split) when contamination exists.
        let cloud_mask = if haze.mean() > cfg.min_haze {
            let haze_u8 = haze.map(|a| round_to_u8(a * 255.0));
            otsu_binary(&min_max_normalize(&haze_u8, 0, 255), 255).1
        } else {
            Image::<u8>::new(w, h, 1)
        };
        let shadow_u8 = shadow_gain.map(|m| round_to_u8((1.0 - m) * 255.0));
        let shadow_mask = threshold(&shadow_u8, 12, 255, ThresholdType::Binary);

        // 7. Change map (per-channel absolute difference, max-reduced).
        let mut residual = Image::<u8>::new(w, h, 1);
        let changed = filtered
            .as_slice()
            .chunks_exact(3)
            .zip(rgb.as_slice().chunks_exact(3));
        for (d, (new, old)) in residual.as_mut_slice().iter_mut().zip(changed) {
            *d = (0..3).map(|c| new[c].abs_diff(old[c])).max().unwrap_or(0);
        }

        FilterOutput {
            filtered,
            cloud_mask,
            shadow_mask,
            haze,
            shadow_gain,
            residual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranges::{ClassRanges, IceClass};
    use crate::segment::segment_classes;
    use seaice_s2::clouds::{self, CloudConfig};
    use seaice_s2::synth::{generate, SceneConfig};

    fn scene_and_layer(side: usize, coverage: f64, seed: u64) -> (Image<u8>, Image<u8>, Image<u8>) {
        let scene = generate(&SceneConfig::tiny(side), seed);
        let layer = clouds::generate(
            &CloudConfig {
                coverage,
                ..CloudConfig::tiny(side)
            },
            seed,
            side,
            side,
        );
        let cloudy = layer.apply(&scene.rgb);
        (scene.rgb, cloudy, scene.truth)
    }

    fn label_accuracy(mask: &Image<u8>, truth: &Image<u8>) -> f64 {
        let correct = mask
            .as_slice()
            .iter()
            .zip(truth.as_slice())
            .filter(|(a, b)| a == b)
            .count();
        correct as f64 / truth.as_slice().len() as f64
    }

    #[test]
    fn clean_image_passes_through_nearly_unchanged() {
        let (clean, _, _) = scene_and_layer(96, 0.0, 3);
        let out = CloudShadowFilter::new(FilterConfig::for_tile(96)).apply(&clean);
        // Allow the median pre-filter to touch isolated pixels; the mean
        // residual must stay tiny.
        let mean_residual: f64 = out
            .residual
            .as_slice()
            .iter()
            .map(|&v| v as f64)
            .sum::<f64>()
            / out.residual.as_slice().len() as f64;
        assert!(mean_residual < 4.0, "mean residual {mean_residual}");
        assert_eq!(out.cloud_mask.nonzero_fraction(), 0.0);
    }

    #[test]
    fn filter_recovers_autolabel_accuracy_on_contaminated_scene() {
        let (_, cloudy, truth) = scene_and_layer(128, 0.35, 7);
        let ranges = ClassRanges::paper();
        let acc_before = label_accuracy(&segment_classes(&cloudy, &ranges), &truth);
        let out = CloudShadowFilter::new(FilterConfig::for_tile(128)).apply(&cloudy);
        let acc_after = label_accuracy(&segment_classes(&out.filtered, &ranges), &truth);
        assert!(
            acc_after > acc_before + 0.05,
            "filter must improve labels: before {acc_before:.3}, after {acc_after:.3}"
        );
        assert!(acc_after > 0.9, "filtered accuracy too low: {acc_after:.3}");
    }

    #[test]
    fn haze_field_matches_contamination_location() {
        let (_, cloudy, _) = scene_and_layer(128, 0.3, 11);
        let out = CloudShadowFilter::new(FilterConfig::for_tile(128)).apply(&cloudy);
        assert!(out.haze.mean() > 0.01, "haze must be detected");
        assert!(out.cloud_mask.nonzero_fraction() > 0.02);
    }

    #[test]
    fn dehazing_restores_water_values() {
        // Uniform water tile with strong synthetic haze applied manually.
        let mut water = Image::<u8>::new(64, 64, 3);
        for y in 0..64 {
            for x in 0..64 {
                // water rendering: v = 16, r = 0.45 v, g = 0.7 v
                water.put_pixel(x, y, &[7, 11, 16]);
            }
        }
        let a = 0.35f32;
        let hazy = water.map(|c| (c as f32 * (1.0 - a) + 255.0 * a).round() as u8);
        let out = CloudShadowFilter::new(FilterConfig::for_tile(64)).apply(&hazy);
        let ranges = ClassRanges::paper();
        let mask = segment_classes(&out.filtered, &ranges);
        let water_frac = mask
            .as_slice()
            .iter()
            .filter(|&&c| c == IceClass::Water as u8)
            .count() as f64
            / mask.as_slice().len() as f64;
        assert!(water_frac > 0.95, "water recovered fraction {water_frac}");
    }

    #[test]
    fn shadow_pass_restores_thick_ice() {
        // Uniform thick-ice tile, uniformly shadowed to V ≈ 120.
        let mut thick = Image::<u8>::new(64, 64, 3);
        thick.fill(&[224, 227, 230]);
        let m = 0.52f32;
        let shadowed = thick.map(|c| (c as f32 * m).round() as u8);
        let out = CloudShadowFilter::new(FilterConfig::for_tile(64)).apply(&shadowed);
        let ranges = ClassRanges::paper();
        let mask = segment_classes(&out.filtered, &ranges);
        let thick_frac = mask
            .as_slice()
            .iter()
            .filter(|&&c| c == IceClass::Thick as u8)
            .count() as f64
            / mask.as_slice().len() as f64;
        assert!(thick_frac > 0.95, "thick recovered fraction {thick_frac}");
        assert!(out.shadow_mask.nonzero_fraction() > 0.5);
    }

    #[test]
    fn thin_ice_is_not_mistaken_for_shadow() {
        // Clean thin ice has the same V range a shadow produces but keeps
        // its blue chroma; the filter must leave it alone.
        let mut thin = Image::<u8>::new(64, 64, 3);
        thin.fill(&[102, 115, 125]); // thin-ice rendering at v = 125
        let out = CloudShadowFilter::new(FilterConfig::for_tile(64)).apply(&thin);
        let ranges = ClassRanges::paper();
        let mask = segment_classes(&out.filtered, &ranges);
        assert!(mask.as_slice().iter().all(|&c| c == IceClass::Thin as u8));
    }

    #[test]
    fn correction_only_entry_matches_apply_with_a_dirty_scratch() {
        let mut scratch = Scratch::new();
        for (side, seed) in [(32usize, 1u64), (48, 2), (64, 3), (96, 4)] {
            // Whatever the pool hands out was last full of garbage.
            for _ in 0..8 {
                scratch.recycle(vec![0xAB; side * side * 3]);
                scratch.recycle_f32(vec![f32::NAN; side * side]);
            }
            let (_, cloudy, _) = scene_and_layer(side, 0.35, seed);
            let filter = CloudShadowFilter::new(FilterConfig::for_tile(side));
            let kept = filter.apply_keep_filtered(&cloudy, &mut scratch);
            assert_eq!(kept, filter.apply(&cloudy).filtered, "side {side}");
            scratch.recycle_image(kept);
        }
    }

    #[test]
    fn output_shapes_match_input() {
        let (_, cloudy, _) = scene_and_layer(48, 0.2, 5);
        let out = CloudShadowFilter::default().apply(&cloudy);
        assert_eq!(out.filtered.dimensions(), (48, 48));
        assert_eq!(out.cloud_mask.dimensions(), (48, 48));
        assert_eq!(out.shadow_mask.dimensions(), (48, 48));
        assert_eq!(out.haze.dimensions(), (48, 48));
        assert_eq!(out.residual.dimensions(), (48, 48));
    }
}
