//! Deterministic 2-D value noise and fractional Brownian motion (fBm).
//!
//! The scene synthesizer needs smooth, seedable, coordinate-addressable
//! random fields (ice concentration, surface texture, cloud density). This
//! is a classic hash-lattice value noise: integer lattice points get a
//! hashed pseudo-random value, and samples in between are interpolated with
//! a quintic smoothstep. Summing octaves gives fBm.

/// SplitMix64 finalizer — a strong 64-bit mixing function used to hash
/// lattice coordinates together with the seed.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a lattice point to a uniform value in `[0, 1)`.
#[inline]
fn lattice(ix: i64, iy: i64, seed: u64) -> f32 {
    let h = mix64(
        seed ^ mix64((ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (iy as u64).rotate_left(32)),
    );
    // Take the top 24 bits for a clean mantissa.
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// Quintic smoothstep `6t⁵ − 15t⁴ + 10t³` (C² continuous, Perlin's fade).
#[inline]
fn fade(t: f32) -> f32 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

/// Samples seeded value noise at `(x, y)`; result in `[0, 1)`.
///
/// The field is smooth (C²) and deterministic in `(x, y, seed)`.
pub fn value_noise(x: f32, y: f32, seed: u64) -> f32 {
    let x0 = x.floor();
    let y0 = y.floor();
    let tx = fade(x - x0);
    let ty = fade(y - y0);
    let (ix, iy) = (x0 as i64, y0 as i64);

    let v00 = lattice(ix, iy, seed);
    let v10 = lattice(ix + 1, iy, seed);
    let v01 = lattice(ix, iy + 1, seed);
    let v11 = lattice(ix + 1, iy + 1, seed);

    let top = v00 + (v10 - v00) * tx;
    let bot = v01 + (v11 - v01) * tx;
    top + (bot - top) * ty
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

/// Samples fBm (sum of `octaves` value-noise octaves) at `(x, y)`,
/// normalized into `[0, 1]`.
pub fn fbm(x: f32, y: f32, seed: u64, cfg: &FbmConfig) -> f32 {
    debug_assert!(cfg.octaves >= 1);
    let mut amp = 1.0f32;
    let mut freq = cfg.frequency;
    let mut sum = 0.0f32;
    let mut norm = 0.0f32;
    for octave in 0..cfg.octaves {
        // Decorrelate octaves by perturbing the seed.
        let s = seed.wrapping_add(0x5851_F42D_4C95_7F2D_u64.wrapping_mul(octave as u64 + 1));
        sum += amp * value_noise(x * freq, y * freq, s);
        norm += amp;
        amp *= cfg.gain;
        freq *= cfg.lacunarity;
    }
    (sum / norm).clamp(0.0, 1.0)
}

/// Fills a `width × height` buffer with fBm samples (row-major).
pub fn fbm_field(width: usize, height: usize, seed: u64, cfg: &FbmConfig) -> Vec<f32> {
    let mut out = vec![0f32; width * height];
    seaice_exec::par::chunks_mut(&mut out, width.max(1), |y, row| {
        for (x, v) in row.iter_mut().enumerate() {
            *v = fbm(x as f32, y as f32, seed, cfg);
        }
    });
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
        assert_eq!(f[3 * 16 + 5], fbm(5.0, 3.0, 77, &cfg));
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
}
