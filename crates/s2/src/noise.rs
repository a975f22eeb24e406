//! Deterministic 2-D value noise and fractional Brownian motion (fBm).
//!
//! The scene synthesizer needs smooth, seedable, coordinate-addressable
//! random fields (ice concentration, surface texture, cloud density). This
//! is a classic hash-lattice value noise: integer lattice points get a
//! hashed pseudo-random value, and samples in between are interpolated with
//! a quintic smoothstep. Summing octaves gives fBm.
//!
//! [`fbm`] and [`value_noise`] sample one point and are the definition.
//! Whole fields come from two crate-internal plans that return the same
//! bits while hashing each lattice corner once instead of once per pixel
//! (DESIGN.md §4.11): `FbmRows` fills image rows ([`fbm_field`], the scene
//! and cloud fields), `FbmLine` samples fBm along the `y = 0` line (the
//! leads' meander).

use seaice_faults::splitmix64;

/// Hashes a lattice point, with the seed, to a uniform value in `[0, 1)`
/// through two SplitMix64 finalizers.
#[inline]
fn lattice(ix: i64, iy: i64, seed: u64) -> f32 {
    let h = splitmix64(
        seed ^ splitmix64(
            (ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (iy as u64).rotate_left(32),
        ),
    );
    // Take the top 24 bits for a clean mantissa.
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// The lattice values at `(ix, iy)` and `(ix, iy + 1)`: one column of
/// cell corners.
#[inline]
fn lattice_column(ix: i64, iy: i64, seed: u64) -> (f32, f32) {
    (lattice(ix, iy, seed), lattice(ix, iy + 1, seed))
}

/// Quintic smoothstep `6t⁵ − 15t⁴ + 10t³` (C² continuous, Perlin's fade).
#[inline]
fn fade(t: f32) -> f32 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

/// The lattice cell a coordinate falls in and its faded offset into it.
#[inline]
fn cell(v: f32) -> (i64, f32) {
    let v0 = v.floor();
    (v0 as i64, fade(v - v0))
}

/// Interpolates a cell's four corner values at faded offsets `(tx, ty)`.
#[inline]
fn interpolate(v00: f32, v10: f32, v01: f32, v11: f32, tx: f32, ty: f32) -> f32 {
    let top = v00 + (v10 - v00) * tx;
    let bot = v01 + (v11 - v01) * tx;
    top + (bot - top) * ty
}

/// Samples seeded value noise at `(x, y)`; result in `[0, 1)`.
///
/// The field is smooth (C²) and deterministic in `(x, y, seed)`.
pub fn value_noise(x: f32, y: f32, seed: u64) -> f32 {
    let (ix, tx) = cell(x);
    let (iy, ty) = cell(y);
    let v00 = lattice(ix, iy, seed);
    let v10 = lattice(ix + 1, iy, seed);
    let v01 = lattice(ix, iy + 1, seed);
    let v11 = lattice(ix + 1, iy + 1, seed);
    interpolate(v00, v10, v01, v11, tx, ty)
}

/// Parameters for a fractional-Brownian-motion field.
#[derive(Clone, Copy, Debug)]
pub struct FbmConfig {
    /// Number of octaves summed (≥ 1).
    pub octaves: u32,
    /// Base spatial frequency in cycles per pixel (e.g. `1.0 / 256.0`).
    pub frequency: f32,
    /// Frequency multiplier per octave (typically 2.0).
    pub lacunarity: f32,
    /// Amplitude multiplier per octave (typically 0.5).
    pub gain: f32,
}

impl Default for FbmConfig {
    fn default() -> Self {
        Self {
            octaves: 4,
            frequency: 1.0 / 64.0,
            lacunarity: 2.0,
            gain: 0.5,
        }
    }
}

/// `(seed, frequency, amplitude)` of each octave in summation order: the
/// seed decorrelated per octave, frequency and amplitude advanced by
/// `lacunarity` and `gain` from `(cfg.frequency, 1.0)`.
///
/// # Panics
/// Panics when `cfg.octaves` is 0: the normalising amplitude sum would be
/// 0 and every sample `0 / 0 = NaN`.
fn octaves(seed: u64, cfg: &FbmConfig) -> impl Iterator<Item = (u64, f32, f32)> + '_ {
    assert!(cfg.octaves >= 1, "fBm needs at least one octave");
    let (mut freq, mut amp) = (cfg.frequency, 1.0f32);
    (0..cfg.octaves).map(move |octave| {
        // Decorrelate octaves by perturbing the seed.
        let s = seed.wrapping_add(0x5851_F42D_4C95_7F2D_u64.wrapping_mul(octave as u64 + 1));
        let this = (s, freq, amp);
        amp *= cfg.gain;
        freq *= cfg.lacunarity;
        this
    })
}

/// Samples fBm (sum of `octaves` value-noise octaves) at `(x, y)`,
/// normalized into `[0, 1]`.
///
/// # Panics
/// Panics when `cfg.octaves` is 0.
pub fn fbm(x: f32, y: f32, seed: u64, cfg: &FbmConfig) -> f32 {
    let mut sum = 0.0f32;
    let mut norm = 0.0f32;
    for (s, freq, amp) in octaves(seed, cfg) {
        sum += amp * value_noise(x * freq, y * freq, s);
        norm += amp;
    }
    (sum / norm).clamp(0.0, 1.0)
}

/// What a plan keeps of one octave.
struct Octave {
    seed: u64,
    freq: f32,
    amp: f32,
}

/// Runs the octaves of `cfg` through `plan`, returning the planned
/// octaves and the amplitude sum fBm normalises by, added up in [`fbm`]'s
/// order.
fn plan_octaves<T>(seed: u64, cfg: &FbmConfig, mut plan: impl FnMut(Octave) -> T) -> (Vec<T>, f32) {
    let mut norm = 0.0f32;
    let planned = octaves(seed, cfg)
        .map(|(seed, freq, amp)| {
            norm += amp;
            plan(Octave { seed, freq, amp })
        })
        .collect();
    (planned, norm)
}

/// One octave of an [`FbmRows`] plan.
struct RowOctave {
    octave: Octave,
    /// Faded offset of each column into its lattice cell.
    tx: Vec<f32>,
    /// Maximal runs of columns that share a cell, as `(ix, end)`: each run
    /// starts where the previous one ended.
    runs: Vec<(i64, usize)>,
}

/// fBm a row at a time: for rows `width` pixels wide, `row(y, out)` writes
/// `out[x] = fbm(x, y, seed, cfg)` bit for bit.
///
/// The plan holds each octave's column offsets and the runs of columns
/// sharing a lattice cell, so a row hashes each cell corner once per
/// octave and then interpolates the run with the corners held constant.
pub(crate) struct FbmRows {
    octaves: Vec<RowOctave>,
    norm: f32,
    width: usize,
}

impl FbmRows {
    /// Plans `fbm(·, ·, seed, cfg)` over rows of `width` pixels.
    ///
    /// # Panics
    /// Panics when `cfg.octaves` is 0.
    pub(crate) fn new(seed: u64, cfg: &FbmConfig, width: usize) -> Self {
        let (octaves, norm) = plan_octaves(seed, cfg, |octave| {
            let mut tx = Vec::with_capacity(width);
            let mut runs: Vec<(i64, usize)> = Vec::new();
            for x in 0..width {
                let (ix, t) = cell(x as f32 * octave.freq);
                tx.push(t);
                match runs.last_mut() {
                    Some((last, end)) if *last == ix => *end = x + 1,
                    _ => runs.push((ix, x + 1)),
                }
            }
            RowOctave { octave, tx, runs }
        });
        Self {
            octaves,
            norm,
            width,
        }
    }

    /// Writes row `y` of the field into `out`.
    ///
    /// # Panics
    /// Panics if `out` is not exactly one row wide.
    pub(crate) fn row(&self, y: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.width, "fBm row buffer width");
        out.fill(0.0);
        let fy = y as f32;
        for RowOctave { octave, tx, runs } in &self.octaves {
            let (iy, ty) = cell(fy * octave.freq);
            let mut start = 0;
            // The previous run's right corners, keyed by their `ix`: the
            // left corners of the next run when the cells touch.
            let mut right: Option<(i64, (f32, f32))> = None;
            for &(ix, end) in runs {
                let (v00, v01) = match right {
                    Some((rx, v)) if rx == ix => v,
                    _ => lattice_column(ix, iy, octave.seed),
                };
                let (v10, v11) = lattice_column(ix + 1, iy, octave.seed);
                right = Some((ix + 1, (v10, v11)));
                for (s, &t) in out[start..end].iter_mut().zip(&tx[start..end]) {
                    *s += octave.amp * interpolate(v00, v10, v01, v11, t, ty);
                }
                start = end;
            }
        }
        for s in out {
            *s = (*s / self.norm).clamp(0.0, 1.0);
        }
    }
}

/// Most lattice cells an [`FbmLine`] tabulates per octave; a wider range
/// samples its far ends through [`value_noise`].
const MAX_LINE_CELLS: f32 = 65_536.0;

/// One octave of an [`FbmLine`] table.
struct LineOctave {
    octave: Octave,
    /// The octave's `y = 0` coordinate, `0.0 * freq`, for the fallback.
    fy: f32,
    ty: f32,
    /// Cell index of `corners[0]`.
    lo: i64,
    /// `lattice_column(ix, iy)` for `ix = lo, lo + 1, …`.
    corners: Vec<(f32, f32)>,
}

/// fBm along the line `y = 0`: `sample(x)` equals `fbm(x, 0.0, seed, cfg)`
/// bit for bit, reading the lattice corners of the cells `x_range`
/// reaches from a table built once, and falling back to [`value_noise`]
/// outside it.
pub(crate) struct FbmLine {
    octaves: Vec<LineOctave>,
    norm: f32,
}

impl FbmLine {
    /// Tabulates `fbm(x, 0.0, seed, cfg)` for `x` in `x_range` (inclusive;
    /// either order).
    ///
    /// # Panics
    /// Panics when `cfg.octaves` is 0.
    pub(crate) fn new(seed: u64, cfg: &FbmConfig, x_range: (f32, f32)) -> Self {
        let (octaves, norm) = plan_octaves(seed, cfg, |octave| {
            let fy = 0.0 * octave.freq;
            let (iy, ty) = cell(fy);
            let (a, b) = (x_range.0 * octave.freq, x_range.1 * octave.freq);
            let (lo, hi) = (a.min(b).floor(), a.max(b).floor());
            // Cells lo..=hi need corners lo..=hi + 1. A non-finite or too
            // wide range, or one at the ends of i64, tabulates nothing.
            let (span, lo) = (hi - lo, lo as i64);
            let corners = if span < MAX_LINE_CELLS && lo.checked_add(span as i64 + 2).is_some() {
                let column = |k| lattice_column(lo + k, iy, octave.seed);
                (0..span as i64 + 2).map(column).collect()
            } else {
                Vec::new()
            };
            LineOctave {
                octave,
                fy,
                ty,
                lo,
                corners,
            }
        });
        Self { octaves, norm }
    }

    /// fBm at `(x, 0)`.
    pub(crate) fn sample(&self, x: f32) -> f32 {
        let mut sum = 0.0f32;
        for o in &self.octaves {
            let fx = x * o.octave.freq;
            let (ix, tx) = cell(fx);
            let tabled = ix
                .checked_sub(o.lo)
                .and_then(|k| usize::try_from(k).ok())
                .and_then(|k| o.corners.get(k..k + 2));
            let v = match tabled {
                Some(&[(v00, v01), (v10, v11)]) => interpolate(v00, v10, v01, v11, tx, o.ty),
                _ => value_noise(fx, o.fy, o.octave.seed),
            };
            sum += o.octave.amp * v;
        }
        (sum / self.norm).clamp(0.0, 1.0)
    }
}

/// Fills a `width × height` buffer with fBm samples (row-major).
///
/// # Panics
/// Panics when `cfg.octaves` is 0.
pub fn fbm_field(width: usize, height: usize, seed: u64, cfg: &FbmConfig) -> Vec<f32> {
    let plan = FbmRows::new(seed, cfg, width);
    let mut out = vec![0f32; width * height];
    seaice_exec::par::chunks_mut(&mut out, width.max(1), |y, row| plan.row(y, row));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic() {
        let a = value_noise(3.7, 11.2, 42);
        let b = value_noise(3.7, 11.2, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn noise_depends_on_seed() {
        let a = value_noise(3.7, 11.2, 42);
        let b = value_noise(3.7, 11.2, 43);
        assert_ne!(a, b);
    }

    #[test]
    fn noise_in_unit_interval() {
        for i in 0..200 {
            let v = value_noise(i as f32 * 0.37, i as f32 * 0.91, 7);
            assert!((0.0..=1.0).contains(&v), "noise {v} out of range");
        }
    }

    #[test]
    fn noise_interpolates_lattice_values() {
        // At integer coordinates the noise equals the lattice hash exactly,
        // so adjacent integer samples differ but sampling the same integer
        // twice agrees.
        let v = value_noise(5.0, 9.0, 123);
        assert_eq!(v, value_noise(5.0, 9.0, 123));
    }

    #[test]
    fn noise_is_smooth() {
        // Small coordinate steps must produce small value steps.
        let mut prev = value_noise(0.0, 0.5, 9);
        for i in 1..100 {
            let v = value_noise(i as f32 * 0.01, 0.5, 9);
            assert!((v - prev).abs() < 0.1, "jump too large at step {i}");
            prev = v;
        }
    }

    #[test]
    fn fbm_in_unit_interval_and_deterministic() {
        let cfg = FbmConfig::default();
        for i in 0..100 {
            let v = fbm(i as f32 * 1.3, i as f32 * 0.7, 99, &cfg);
            assert!((0.0..=1.0).contains(&v));
        }
        assert_eq!(fbm(12.0, 34.0, 5, &cfg), fbm(12.0, 34.0, 5, &cfg));
    }

    #[test]
    fn fbm_field_matches_pointwise_fbm() {
        let cfg = FbmConfig::default();
        let f = fbm_field(16, 8, 77, &cfg);
        assert_eq!(f.len(), 16 * 8);
        for (i, v) in f.iter().enumerate() {
            let (x, y) = ((i % 16) as f32, (i / 16) as f32);
            assert_eq!(v.to_bits(), fbm(x, y, 77, &cfg).to_bits(), "({x}, {y})");
        }
    }

    #[test]
    fn single_octave_fbm_equals_value_noise() {
        let cfg = FbmConfig {
            octaves: 1,
            frequency: 0.25,
            ..FbmConfig::default()
        };
        // One octave is value noise at the base frequency with the first
        // decorrelation seed.
        let seed = 42u64;
        let expected_seed = seed.wrapping_add(0x5851_F42D_4C95_7F2D);
        for i in 0..32 {
            let (x, y) = (i as f32 * 0.7, i as f32 * 1.3);
            let a = fbm(x, y, seed, &cfg);
            let b = value_noise(x * 0.25, y * 0.25, expected_seed).clamp(0.0, 1.0);
            assert!((a - b).abs() < 1e-6, "mismatch at {i}: {a} vs {b}");
        }
    }

    #[test]
    fn fbm_octaves_change_the_field() {
        let coarse = FbmConfig {
            octaves: 1,
            frequency: 1.0 / 32.0,
            ..FbmConfig::default()
        };
        let fine = FbmConfig {
            octaves: 5,
            frequency: 1.0 / 32.0,
            ..FbmConfig::default()
        };
        let diff = (0..64)
            .map(|i| {
                let (x, y) = (i as f32, i as f32 * 0.5);
                (fbm(x, y, 4, &coarse) - fbm(x, y, 4, &fine)).abs()
            })
            .fold(0f32, f32::max);
        assert!(diff > 1e-3, "extra octaves must perturb the field");
    }

    /// Every sweep configuration: frequencies from a cell wider than the
    /// widest row down to runs narrower than a pixel, and a negative one,
    /// at octaves 1–6 and both gains the workspace uses.
    fn sweep_configs() -> impl Iterator<Item = FbmConfig> {
        let freqs = [1.0 / 512.0, 1.0 / 3.0, 0.37, 1.0, 2.5, -0.2];
        freqs.into_iter().flat_map(|frequency| {
            (1..=6).flat_map(move |octaves| {
                [0.5, 0.55].map(|gain| FbmConfig {
                    octaves,
                    frequency,
                    lacunarity: 2.0,
                    gain,
                })
            })
        })
    }

    #[test]
    fn row_plan_equals_pointwise_fbm_bit_for_bit() {
        let rows = [0usize, 1, 2, 7, 63, 64, 255, 1000];
        for cfg in sweep_configs() {
            for width in [1usize, 2, 7, 33, 256] {
                let seed = 0xF00D ^ width as u64;
                let plan = FbmRows::new(seed, &cfg, width);
                let mut row = vec![f32::NAN; width];
                for y in rows {
                    plan.row(y, &mut row);
                    for (x, v) in row.iter().enumerate() {
                        let want = fbm(x as f32, y as f32, seed, &cfg);
                        assert_eq!(
                            v.to_bits(),
                            want.to_bits(),
                            "{cfg:?} width {width} at ({x}, {y})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn line_table_equals_pointwise_fbm_inside_and_past_its_ends() {
        for cfg in sweep_configs() {
            let seed = 0xBEEF;
            let line = FbmLine::new(seed, &cfg, (-9.5, 13.25));
            // From well below the table's low end, through negative
            // coordinates and the range itself, to past its high end.
            for i in -400..=400 {
                let x = i as f32 * 0.0625 + 0.01;
                let want = fbm(x, 0.0, seed, &cfg);
                assert_eq!(
                    line.sample(x).to_bits(),
                    want.to_bits(),
                    "{cfg:?} at x = {x}"
                );
            }
            for x in [-9.5, 13.25, -1e12, 1e12, f32::NAN] {
                let want = fbm(x, 0.0, seed, &cfg);
                assert_eq!(
                    line.sample(x).to_bits(),
                    want.to_bits(),
                    "{cfg:?} at x = {x}"
                );
            }
        }
    }

    #[test]
    fn a_range_too_wide_to_tabulate_samples_pointwise() {
        let cfg = FbmConfig::default();
        let line = FbmLine::new(3, &cfg, (-1e30, f32::INFINITY));
        assert!(line.octaves.iter().all(|o| o.corners.is_empty()));
        for x in [-1e12, -7.5, 0.0, 3.25, 1e12] {
            assert_eq!(line.sample(x).to_bits(), fbm(x, 0.0, 3, &cfg).to_bits());
        }
    }

    fn zero_octaves() -> FbmConfig {
        FbmConfig {
            octaves: 0,
            ..FbmConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "fBm needs at least one octave")]
    fn pointwise_fbm_refuses_zero_octaves() {
        fbm(1.0, 2.0, 3, &zero_octaves());
    }

    #[test]
    #[should_panic(expected = "fBm needs at least one octave")]
    fn row_plan_refuses_zero_octaves() {
        FbmRows::new(3, &zero_octaves(), 8);
    }

    #[test]
    #[should_panic(expected = "fBm needs at least one octave")]
    fn line_table_refuses_zero_octaves() {
        FbmLine::new(3, &zero_octaves(), (0.0, 1.0));
    }
}
