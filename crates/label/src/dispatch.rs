//! The audited exception to `seaice-label`'s `deny(unsafe_code)`: the
//! detecting fronts of the cloud/shadow filter's four row passes. Each
//! front calls its `#[inline(always)]` row body compiled again inside an
//! AVX-512F or an AVX2 twin when the CPU has the feature, and the body
//! itself otherwise. Every lane is a different pixel or sample, so all
//! three compute the same bits. Calling a `#[target_feature]` function is
//! `unsafe` for the feature precondition alone: no intrinsics, no raw
//! pointers (`avx512f` implies `fma` in LLVM, and Rust never contracts).
//! Explicit twins with explicit arguments, as in `nn::ops::dispatch`: a
//! closure handed to a generic shim can stay a baseline function.

use crate::cloudshadow::{
    dehaze_row_body, deshadow_row_body, flag_row_body, haze_row_body, FilterConfig,
};

macro_rules! twins {
    ($front:ident = $body:ident: $avx2:ident, $avx512:ident; $($arg:ident: $ty:ty),* $(,)?) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2($($arg: $ty),*) {
            $body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        fn $avx512($($arg: $ty),*) {
            $body($($arg),*)
        }

        pub(crate) fn $front($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: avx512f was detected on this CPU on the line above.
                return unsafe { $avx512($($arg),*) };
            }
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 was detected on this CPU on the line above.
                return unsafe { $avx2($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}

twins!(haze_row = haze_row_body: haze_row_avx2, haze_row_avx512;
    cfg: &FilterConfig, px: &[u8], a_row: &mut [f32], w_row: &mut [f32]);
twins!(dehaze_row = dehaze_row_body: dehaze_row_avx2, dehaze_row_avx512;
    cfg: &FilterConfig, hz_row: &mut [f32], px_row: &mut [u8],
    blurred_w: &[f32], own_a: &[f32], own_weight: &[f32]);
twins!(flag_row = flag_row_body: flag_row_avx2, flag_row_avx512;
    cfg: &FilterConfig, px: &[u8], g_row: &mut [f32], gw_row: &mut [f32]);
twins!(deshadow_row = deshadow_row_body: deshadow_row_avx2, deshadow_row_avx512;
    sg_row: &mut [f32], px_row: &mut [u8], blurred_gw: &[f32], own_g: &[f32], own_gw: &[f32]);

#[cfg(test)]
mod tests {
    use super::*;

    /// The twin the fronts take on this host.
    fn isa() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        "baseline"
    }

    /// A seeded xorshift64* stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u32 << 24) as f32
        }

        /// One of `fixed`, or uniform in `[0, scale)`.
        fn pick(&mut self, fixed: &[f32], scale: f32) -> f32 {
            let i = self.below(fixed.len() as u64 + 1) as usize;
            fixed.get(i).copied().unwrap_or_else(|| scale * self.unit())
        }
    }

    /// `w` RGB pixels of speckle that reaches every branch of the haze
    /// estimate and the shadow flag: random bytes, hazed water and thin
    /// ice, near-achromatic pixels at and around the shadow V window, bright
    /// ice and the extremes.
    fn speckle(rng: &mut Rng, w: usize) -> Vec<u8> {
        let mut px = Vec::with_capacity(3 * w);
        for _ in 0..w {
            let haze = |rng: &mut Rng, c: [f32; 3]| {
                let a = 0.7 * rng.unit();
                c.map(|c| (c * (1.0 - a) + 255.0 * a).round() as u8)
            };
            let p = match rng.below(7) {
                0 => [0, 1, 2].map(|_| rng.below(256) as u8),
                1 => haze(rng, [7.0, 11.0, 16.0]),
                2 => haze(rng, [102.0, 115.0, 125.0]),
                3 => {
                    let v = [59, 60, 61, 120, 203, 204, 205][rng.below(7) as usize];
                    [v, v - rng.below(4) as u8, v - rng.below(12) as u8]
                }
                4 => [0, 1, 2].map(|_| 224 + rng.below(32) as u8),
                5 => [0, 0, 0],
                _ => [255, 255, 255],
            };
            px.extend_from_slice(&p);
        }
        px
    }

    fn same_bits(what: &str, case: &str, got: &[f32], want: &[f32]) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}[{i}]: {g:e}, baseline {w:e} ({case})"
            );
        }
    }

    /// Every front equals its baseline body byte for byte on rows of every
    /// width up to 200 — strip tails of 63, 64, 65 and 129 pixels among
    /// them, and widths off every vector length — under every ablation
    /// switch. On a host without AVX2 the fronts run the bodies, and this
    /// compares the baseline with itself.
    #[test]
    fn dispatched_row_passes_equal_the_baseline_bodies_bit_for_bit() {
        let isa = isa();
        let base = FilterConfig::for_tile(256);
        let configs = [
            base,
            FilterConfig {
                shadow_pass: false,
                ..base
            },
            FilterConfig {
                confidence_blend: false,
                ..base
            },
            FilterConfig {
                shadow_exclusion: false,
                ..base
            },
        ];
        for (c, cfg) in configs.iter().enumerate() {
            for w in 1..=200 {
                let case = format!("{isa} front, config {c}, width {w}");
                let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (1000 * c + w) as u64);
                let px = speckle(&mut rng, w);
                let zeros = || vec![0.0f32; w];

                let (mut a, mut weight, mut a0, mut weight0) = (zeros(), zeros(), zeros(), zeros());
                haze_row(cfg, &px, &mut a, &mut weight);
                haze_row_body(cfg, &px, &mut a0, &mut weight0);
                same_bits("haze a", &case, &a, &a0);
                same_bits("haze weight", &case, &weight, &weight0);

                let (mut g, mut gw, mut g0, mut gw0) = (zeros(), zeros(), zeros(), zeros());
                flag_row(cfg, &px, &mut g, &mut gw);
                flag_row_body(cfg, &px, &mut g0, &mut gw0);
                same_bits("flag gain", &case, &g, &g0);
                same_bits("flag weight", &case, &gw, &gw0);

                // Blurred fields around every threshold the corrections
                // test: weights at 0, 0.02 and 0.05, own weights of 0 and 1,
                // haze near `min_haze` and gains at and near 0.999.
                let bw: Vec<f32> = (0..w)
                    .map(|_| rng.pick(&[0.0, 0.02, 0.05, 0.5, 1.0], 1.0))
                    .collect();
                let own_w: Vec<f32> = (0..w).map(|_| rng.pick(&[0.0, 1.0], 1.0)).collect();
                let own_a: Vec<f32> = own_w.iter().map(|&v| v * 0.7 * rng.unit()).collect();
                let hz: Vec<f32> = bw
                    .iter()
                    .map(|&b| b * rng.pick(&[0.04, 0.0399, 0.62], 0.8))
                    .collect();
                let (mut hz1, mut px1, mut hz0, mut px0) = (hz.clone(), px.clone(), hz, px.clone());
                dehaze_row(cfg, &mut hz1, &mut px1, &bw, &own_a, &own_w);
                dehaze_row_body(cfg, &mut hz0, &mut px0, &bw, &own_a, &own_w);
                same_bits("dehaze field", &case, &hz1, &hz0);
                assert_eq!(px1, px0, "dehazed pixels ({case})");

                let own_gw: Vec<f32> = (0..w).map(|_| rng.below(2) as f32).collect();
                let own_g: Vec<f32> = own_gw
                    .iter()
                    .map(|&v| v * rng.pick(&[0.999, 0.9989, 0.2], 1.0))
                    .collect();
                let sg: Vec<f32> = bw
                    .iter()
                    .map(|&b| b * rng.pick(&[0.999, 0.9989, 0.25], 1.0))
                    .collect();
                let (mut sg1, mut sg0) = (sg.clone(), sg);
                let (mut px2, mut px3) = (px1.clone(), px1);
                deshadow_row(&mut sg1, &mut px2, &bw, &own_g, &own_gw);
                deshadow_row_body(&mut sg0, &mut px3, &bw, &own_g, &own_gw);
                same_bits("deshadow field", &case, &sg1, &sg0);
                assert_eq!(px2, px3, "deshadowed pixels ({case})");
            }
        }
    }
}
