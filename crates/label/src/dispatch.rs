//! The audited exception to `seaice-label`'s `deny(unsafe_code)`: the
//! detecting fronts of the cloud/shadow filter's four row passes and of
//! the tile paths of its median and box blur (`seaice_imgproc::filter`).
//! Each front calls its `#[inline(always)]` body compiled again inside an
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
use seaice_imgproc::buffer::Image;
use seaice_imgproc::filter::{box_blur_tile, median3x3_tile};

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
twins!(median_tile = median3x3_tile: median_tile_avx2, median_tile_avx512;
    src: &Image<u8>, out: &mut [u8]);
twins!(blur_tile = box_blur_tile: blur_tile_avx2, blur_tile_avx512;
    src: &[f32], tmp: &mut [f32], out: &mut [f32], dims: (usize, usize), radius: usize);

// The twins exist on x86_64 only.
#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;

    /// The twins this host can run, as indices into a front's
    /// `[avx2, avx512]` pair with their ISA's name. A host without AVX2 runs
    /// none, and the tests below compare nothing there.
    fn runnable() -> Vec<(usize, &'static str)> {
        let detected = [
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f"),
        ];
        [(0, "avx2"), (1, "avx512f")]
            .into_iter()
            .filter(|&(i, _)| detected[i])
            .collect()
    }

    /// Calls a pass's AVX2 twin for `l == 0`, else its AVX-512F twin.
    macro_rules! twin {
        ($l:expr, $avx2:ident, $avx512:ident($($arg:expr),*)) => {
            // SAFETY: the tests take `l` from `runnable`, which lists only
            // twins whose feature this CPU has.
            unsafe {
                if $l == 0 {
                    $avx2($($arg),*)
                } else {
                    $avx512($($arg),*)
                }
            }
        };
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
        assert_eq!(got.len(), want.len(), "{what} ({case})");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}[{i}]: {g:e}, baseline {w:e} ({case})"
            );
        }
    }

    /// Every AVX2 and AVX-512F twin of the four row passes this host can
    /// run equals its baseline body byte for byte on rows of every width up
    /// to 200 — strip tails of 63, 64, 65 and 129 pixels among them, and
    /// widths off every vector length — under every ablation switch.
    #[test]
    fn every_row_pass_twin_equals_its_baseline_body_bit_for_bit() {
        let twins = runnable();
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
                let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (1000 * c + w) as u64);
                let px = speckle(&mut rng, w);
                let zeros = || vec![0.0f32; w];
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
                let own_gw: Vec<f32> = (0..w).map(|_| rng.below(2) as f32).collect();
                let own_g: Vec<f32> = own_gw
                    .iter()
                    .map(|&v| v * rng.pick(&[0.999, 0.9989, 0.2], 1.0))
                    .collect();
                let sg: Vec<f32> = bw
                    .iter()
                    .map(|&b| b * rng.pick(&[0.999, 0.9989, 0.25], 1.0))
                    .collect();

                let (mut a0, mut weight0, mut g0, mut gw0) = (zeros(), zeros(), zeros(), zeros());
                haze_row_body(cfg, &px, &mut a0, &mut weight0);
                flag_row_body(cfg, &px, &mut g0, &mut gw0);
                let (mut hz0, mut dehazed0) = (hz.clone(), px.clone());
                dehaze_row_body(cfg, &mut hz0, &mut dehazed0, &bw, &own_a, &own_w);
                let (mut sg0, mut deshadowed0) = (sg.clone(), dehazed0.clone());
                deshadow_row_body(&mut sg0, &mut deshadowed0, &bw, &own_g, &own_gw);

                for &(l, isa) in &twins {
                    let case = format!("{isa} twin, config {c}, width {w}");
                    let (mut a, mut weight, mut g, mut gw) = (zeros(), zeros(), zeros(), zeros());
                    let (mut hz1, mut dehazed) = (hz.clone(), px.clone());
                    let (mut sg1, mut deshadowed) = (sg.clone(), dehazed0.clone());
                    twin!(
                        l,
                        haze_row_avx2,
                        haze_row_avx512(cfg, &px, &mut a, &mut weight)
                    );
                    twin!(l, flag_row_avx2, flag_row_avx512(cfg, &px, &mut g, &mut gw));
                    twin!(
                        l,
                        dehaze_row_avx2,
                        dehaze_row_avx512(cfg, &mut hz1, &mut dehazed, &bw, &own_a, &own_w)
                    );
                    twin!(
                        l,
                        deshadow_row_avx2,
                        deshadow_row_avx512(&mut sg1, &mut deshadowed, &bw, &own_g, &own_gw)
                    );
                    same_bits("haze a", &case, &a, &a0);
                    same_bits("haze weight", &case, &weight, &weight0);
                    same_bits("flag gain", &case, &g, &g0);
                    same_bits("flag weight", &case, &gw, &gw0);
                    same_bits("dehaze field", &case, &hz1, &hz0);
                    assert_eq!(dehazed, dehazed0, "dehazed pixels ({case})");
                    same_bits("deshadow field", &case, &sg1, &sg0);
                    assert_eq!(deshadowed, deshadowed0, "deshadowed pixels ({case})");
                }
            }
        }
    }

    /// Every AVX2 and AVX-512F twin of the median and blur tile paths this
    /// host can run equals its baseline body byte for byte: medians whose
    /// interiors straddle the 64-sample runs, and blurs of continuous, 0/1
    /// and mostly-zero planes at heights around the 16-row blocks.
    #[test]
    fn median_and_blur_twins_equal_their_baseline_bodies_bit_for_bit() {
        let twins = runnable();
        let mut rng = Rng(0x3636_3636_3636_3636);
        for (c, widths) in [(1, 3..=140), (3, 3..=50)] {
            for (w, h) in widths.flat_map(|w| [(w, 1), (w, 2), (w, 5)]) {
                let samples = (0..w * h * c).map(|_| rng.below(256) as u8).collect();
                let img = Image::from_vec(w, h, c, samples);
                let mut want = vec![0; w * h * c];
                median3x3_tile(&img, &mut want);
                for &(l, isa) in &twins {
                    let mut got = vec![0xAB; w * h * c];
                    twin!(l, median_tile_avx2, median_tile_avx512(&img, &mut got));
                    assert_eq!(got, want, "{isa} median twin, {w}x{h}x{c}");
                }
            }
        }
        let sizes = [
            (1, 1),
            (5, 15),
            (3, 16),
            (7, 17),
            (16, 31),
            (33, 33),
            (256, 40),
        ];
        for ((w, h), kind) in sizes.into_iter().flat_map(|s| [(s, 0), (s, 1), (s, 2)]) {
            let src: Vec<f32> = (0..w * h)
                .map(|_| match kind {
                    0 => 903.0 * rng.unit() - 3.0,
                    1 => (rng.below(5) == 0) as u8 as f32,
                    _ => rng.pick(&[0.0; 19], 1.0),
                })
                .collect();
            for radius in [1, 2, 7, 32, w.max(h)] {
                let (mut tmp, mut want) = (vec![0.0; w * h], vec![0.0; w * h]);
                box_blur_tile(&src, &mut tmp, &mut want, (w, h), radius);
                for &(l, isa) in &twins {
                    let case = format!("{isa} blur twin, {w}x{h}, plane {kind}, r{radius}");
                    let (mut tmp, mut got) = (vec![f32::NAN; w * h], vec![f32::NAN; w * h]);
                    let dims = (w, h);
                    twin!(
                        l,
                        blur_tile_avx2,
                        blur_tile_avx512(&src, &mut tmp, &mut got, dims, radius)
                    );
                    same_bits("blurred", &case, &got, &want);
                }
            }
        }
    }
}
