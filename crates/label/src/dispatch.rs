//! The audited exception to `seaice-label`'s `deny(unsafe_code)`: the
//! detecting fronts of the cloud/shadow filter's four row passes, of the
//! tile paths of its median and box blur (`seaice_imgproc::filter`) and of
//! the fused segmentation's V-only class/colour pass (`label::fused`).
//! Each front calls an AVX-512F or an AVX2 twin when the CPU has the
//! feature, and the baseline body otherwise; calling a `#[target_feature]`
//! function is `unsafe` for the feature precondition alone.
//!
//! * The row passes and the median are their `#[inline(always)]` bodies
//!   compiled again inside each twin. Every lane is a different pixel or
//!   sample, so all three compute the same bits (`avx512f` implies `fma`
//!   in LLVM, and Rust never contracts).
//! * The AVX2 blur twin is the body compiled again too, with its
//!   one-sample moves as the twin's own closures. The AVX-512F one
//!   runs `box_blur_rows_by`, the body's own block loop, with 16 × 16
//!   register transposes moving each 16-row block into its `[x][16]` column
//!   buffer and each 16 × 16 chunk of means back into the rows, and the
//!   body's one-sample moves for the columns past the last whole group. The
//!   running sums, their order and the divisions are the body's, so every
//!   `f32` is the same bits.
//! * The class/colour pass has an AVX2 twin only: it deinterleaves 32
//!   pixels with byte shuffles, looks `max(r, g, b)` up in the class
//!   table's two bit-planes with `vpshufb` and spreads the palette bytes
//!   back with shuffles, then leaves the run's last `< 32` pixels to the
//!   body. Byte shuffles at 512 bits need AVX-512BW, which these tiers do
//!   not require.
//!
//! The intrinsics are value intrinsics, safe inside their own
//! `#[target_feature]` functions, apart from the four unaligned loads and
//! stores below, each of which slices its operand to the lanes it moves
//! before it takes the pointer. No `transmute`, no other raw pointer.
//! Explicit twins with explicit arguments, as in `nn::ops::dispatch`: a
//! closure handed to a generic shim from outside a twin can stay a baseline
//! function.

use crate::cloudshadow::{
    dehaze_row_body, deshadow_row_body, flag_row_body, haze_row_body, FilterConfig,
};
use crate::fused::{label_run_by_v_body, ByV};
use seaice_imgproc::buffer::Image;
#[cfg(target_arch = "x86_64")]
use seaice_imgproc::filter::{
    blur_columns_in, blur_means_out, box_blur_columns, box_blur_rows_by, BlurColumn, BlurMeans,
    BLUR_BLOCK,
};
use seaice_imgproc::filter::{box_blur_tile, median3x3_tile};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

macro_rules! twins {
    // The twins are `$body` compiled again inside each feature.
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

        twins!($front = $avx2, $avx512 | $body; $($arg: $ty),*);
    };
    // A front over twins written out on their own.
    ($front:ident = $avx2:ident, $avx512:ident | $base:path; $($arg:ident: $ty:ty),* $(,)?) => {
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
            $base($($arg),*)
        }
    };
    // A front over an AVX2 twin alone.
    ($front:ident = $avx2:ident | $base:path; $($arg:ident: $ty:ty),* $(,)?) => {
        pub(crate) fn $front($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 was detected on this CPU on the line above.
                return unsafe { $avx2($($arg),*) };
            }
            $base($($arg),*)
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
twins!(blur_tile = blur_tile_avx2, blur_tile_avx512 | box_blur_tile;
    src: &[f32], tmp: &mut [f32], out: &mut [f32], dims: (usize, usize), radius: usize);
twins!(label_run_by_v = label_run_by_v_avx2 | label_run_by_v_body;
    rgb: &[u8], mask: &mut [u8], color: Option<&mut [u8]>, by_v: &ByV);

/// The first 16 `f32`s of `s`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn load16(s: &[f32]) -> __m512 {
    let s = &s[..16];
    // SAFETY: `s` holds the 16 `f32`s read, and `loadu` takes any alignment.
    unsafe { _mm512_loadu_ps(s.as_ptr()) }
}

/// Writes `v` into the first 16 `f32`s of `d`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn store16(d: &mut [f32], v: __m512) {
    let d = &mut d[..16];
    // SAFETY: `d` holds the 16 `f32`s written, and `storeu` takes any
    // alignment.
    unsafe { _mm512_storeu_ps(d.as_mut_ptr(), v) }
}

/// The first 32 bytes of `s`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn load32(s: &[u8]) -> __m256i {
    let s = &s[..32];
    // SAFETY: `s` holds the 32 bytes read, and `loadu` takes any alignment.
    unsafe { _mm256_loadu_si256(s.as_ptr().cast()) }
}

/// Writes `v` into the first 32 bytes of `d`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn store32(d: &mut [u8], v: __m256i) {
    let d = &mut d[..32];
    // SAFETY: `d` holds the 32 bytes written, and `storeu` takes any
    // alignment.
    unsafe { _mm256_storeu_si256(d.as_mut_ptr().cast(), v) }
}

/// The 16 × 16 transpose of rows `r`: lane `k` of column `j` is lane `j`
/// of row `k`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose16(r: [__m512; 16]) -> [__m512; 16] {
    // Row pairs interleaved: per 128-bit lane, (2i, 2i + 1) at two columns.
    let mut t = r;
    for i in 0..8 {
        t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    // Row quads: `u[4q + j]` holds rows 4q..4q + 4 of columns j + 4l in
    // 128-bit lane l.
    let mut u = t;
    for q in [0, 4, 8, 12] {
        u[q] = _mm512_shuffle_ps(t[q], t[q + 2], 0x44);
        u[q + 1] = _mm512_shuffle_ps(t[q], t[q + 2], 0xEE);
        u[q + 2] = _mm512_shuffle_ps(t[q + 1], t[q + 3], 0x44);
        u[q + 3] = _mm512_shuffle_ps(t[q + 1], t[q + 3], 0xEE);
    }
    // Lane pairs: `v[j]` holds columns j and j + 8 of rows 0..8, `v[4 + j]`
    // columns j + 4 and j + 12; `v[8 + j]`, `v[12 + j]` the same of rows
    // 8..16.
    let mut v = u;
    for j in 0..4 {
        v[j] = _mm512_shuffle_f32x4(u[j], u[4 + j], 0x88);
        v[4 + j] = _mm512_shuffle_f32x4(u[j], u[4 + j], 0xDD);
        v[8 + j] = _mm512_shuffle_f32x4(u[8 + j], u[12 + j], 0x88);
        v[12 + j] = _mm512_shuffle_f32x4(u[8 + j], u[12 + j], 0xDD);
    }
    let mut c = v;
    for j in 0..4 {
        c[j] = _mm512_shuffle_f32x4(v[j], v[8 + j], 0x88);
        c[8 + j] = _mm512_shuffle_f32x4(v[j], v[8 + j], 0xDD);
        c[4 + j] = _mm512_shuffle_f32x4(v[4 + j], v[12 + j], 0x88);
        c[12 + j] = _mm512_shuffle_f32x4(v[4 + j], v[12 + j], 0xDD);
    }
    c
}

/// `box_blur_tile` compiled again at AVX2, its one-sample moves closures of
/// this twin: `box_blur_rows`' own closures stay baseline calls (DESIGN.md
/// §4.10, the closure-shim pitfall). Two 8 × 8 register transposes a block
/// took 7 % off the blur but won only 16 of 20 `label_cloudy` pairs
/// (DESIGN.md §4.1).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn blur_tile_avx2(
    src: &[f32],
    tmp: &mut [f32],
    out: &mut [f32],
    (w, h): (usize, usize),
    radius: usize,
) {
    let way_in = |rows: &[&[f32]; BLUR_BLOCK], cols: &mut [BlurColumn]| {
        blur_columns_in(rows, cols, 0);
    };
    let way_out = |means: &BlurMeans, x0: usize, n: usize, dst: &mut [f32]| {
        blur_means_out(means, (0, n), x0, w, dst);
    };
    box_blur_rows_by(src, tmp, w, radius, way_in, way_out);
    box_blur_columns(tmp, out, (w, h), radius);
}

/// `box_blur_tile` with each block's transpositions on 16 × 16 registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn blur_tile_avx512(
    src: &[f32],
    tmp: &mut [f32],
    out: &mut [f32],
    (w, h): (usize, usize),
    radius: usize,
) {
    const L: usize = BLUR_BLOCK;
    let way_in = |rows: &[&[f32]; BLUR_BLOCK], cols: &mut [BlurColumn]| {
        for x in (0..w / L * L).step_by(L) {
            let mut r = [_mm512_setzero_ps(); L];
            for (k, r) in r.iter_mut().enumerate() {
                *r = load16(&rows[k][x..]);
            }
            for (j, c) in transpose16(r).into_iter().enumerate() {
                store16(&mut cols[x + j], c);
            }
        }
        blur_columns_in(rows, cols, w / L * L);
    };
    let way_out = |means: &BlurMeans, x0: usize, n: usize, dst: &mut [f32]| {
        if n < L {
            return blur_means_out(means, (0, n), x0, w, dst);
        }
        let mut m = [_mm512_setzero_ps(); L];
        for (m, mean) in m.iter_mut().zip(means) {
            *m = load16(mean);
        }
        for (row, r) in dst.chunks_exact_mut(w).zip(transpose16(m)) {
            store16(&mut row[x0..], r);
        }
    };
    box_blur_rows_by(src, tmp, w, radius, way_in, way_out);
    box_blur_columns(tmp, out, (w, h), radius);
}

/// A 16-byte shuffle table in both 128-bit lanes.
const fn lanes(t: [u8; 16]) -> [u8; 32] {
    let mut both = [0; 32];
    let mut i = 0;
    while i < 16 {
        both[i] = t[i];
        both[16 + i] = t[i];
        i += 1;
    }
    both
}

/// `vpshufb` indices gathering channel `ch` of a lane's 16 pixels from the
/// lane's 16-byte piece `piece` of their 48 interleaved bytes (`0x80`
/// zeroes the pixels in the other pieces).
const fn gather(ch: usize, piece: usize) -> [u8; 32] {
    let mut t = [0x80; 16];
    let mut i = 0;
    while i < 16 {
        let byte = 3 * i + ch;
        if byte / 16 == piece {
            t[i] = (byte % 16) as u8;
        }
        i += 1;
    }
    lanes(t)
}

/// `vpshufb` indices spreading a lane's 16 per-pixel bytes over its
/// interleaved output piece `piece`: pixel `b / 3` for byte `b`.
const fn spread(piece: usize) -> [u8; 32] {
    let mut t = [0; 16];
    let mut i = 0;
    while i < 16 {
        t[i] = ((16 * piece + i) / 3 % 16) as u8;
        i += 1;
    }
    lanes(t)
}

/// The channel of each byte of interleaved output piece `piece`.
const fn channel(piece: usize) -> [u8; 32] {
    let mut t = [0; 16];
    let mut i = 0;
    while i < 16 {
        t[i] = ((16 * piece + i) % 3) as u8;
        i += 1;
    }
    lanes(t)
}

/// The byte tables of the class/colour twin.
struct Shuffles {
    gather: [[[u8; 32]; 3]; 3],
    spread: [[u8; 32]; 3],
    channel: [[u8; 32]; 3],
    /// `1 << (i % 8)` at byte `i`: the bit of a V within its plane byte.
    bit: [u8; 32],
    /// `PALETTE[c][ch]` at byte `3c + ch`.
    palette: [u8; 32],
}

const SHUFFLES: Shuffles = {
    let mut bit = [0; 16];
    let mut palette = [0; 16];
    let mut i = 0;
    while i < 16 {
        bit[i] = 1 << (i % 8);
        if i < 9 {
            palette[i] = crate::fused::PALETTE[i / 3][i % 3];
        }
        i += 1;
    }
    Shuffles {
        gather: [
            [gather(0, 0), gather(0, 1), gather(0, 2)],
            [gather(1, 0), gather(1, 1), gather(1, 2)],
            [gather(2, 0), gather(2, 1), gather(2, 2)],
        ],
        spread: [spread(0), spread(1), spread(2)],
        channel: [channel(0), channel(1), channel(2)],
        bit: lanes(bit),
        palette: lanes(palette),
    }
};

/// The classes of the 32 pixels in `px`'s first 96 bytes, one a byte: pixel
/// `16·l + i` in lane `l` byte `i`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn classes32(px: &[u8], planes: &[[__m256i; 2]; 2]) -> __m256i {
    let t = &SHUFFLES;
    let [v0, v1, v2] = [load32(px), load32(&px[32..]), load32(&px[64..])];
    // Lane l of piece p: bytes 16·p .. 16·p + 16 of pixels 16·l .. 16·l + 16.
    let pieces = [
        _mm256_permute2x128_si256(v0, v1, 0x30),
        _mm256_permute2x128_si256(v0, v2, 0x21),
        _mm256_permute2x128_si256(v1, v2, 0x30),
    ];
    let mut v = _mm256_setzero_si256();
    for gather in &t.gather {
        let mut c = _mm256_setzero_si256();
        for (piece, idx) in pieces.iter().zip(gather) {
            c = _mm256_or_si256(c, _mm256_shuffle_epi8(*piece, load32(idx)));
        }
        v = _mm256_max_epu8(v, c);
    }
    // Bit `v % 8` of byte `v / 8` of each plane; `vpshufb` reads 16 bytes,
    // so the byte comes from the low or the high half by `v`'s top bit.
    let byte = _mm256_and_si256(_mm256_srli_epi16(v, 3), _mm256_set1_epi8(0x0F));
    let bit = _mm256_shuffle_epi8(load32(&t.bit), _mm256_and_si256(v, _mm256_set1_epi8(7)));
    let mut class = _mm256_setzero_si256();
    for (b, [lo, hi]) in planes.iter().enumerate() {
        let lo = _mm256_shuffle_epi8(*lo, byte);
        let hi = _mm256_shuffle_epi8(*hi, byte);
        let set = _mm256_and_si256(_mm256_blendv_epi8(lo, hi, v), bit);
        let set = _mm256_cmpeq_epi8(set, bit);
        class = _mm256_or_si256(class, _mm256_and_si256(set, _mm256_set1_epi8(1 << b)));
    }
    class
}

/// Writes the palette colours of `class` (as [`classes32`] returns them)
/// into the first 96 bytes of `out`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn colours32(class: __m256i, out: &mut [u8]) {
    let t = &SHUFFLES;
    let class3 = _mm256_add_epi8(_mm256_add_epi8(class, class), class);
    let palette = load32(&t.palette);
    let mut pieces = [_mm256_setzero_si256(); 3];
    for (p, piece) in pieces.iter_mut().enumerate() {
        let at = _mm256_shuffle_epi8(class3, load32(&t.spread[p]));
        let at = _mm256_add_epi8(at, load32(&t.channel[p]));
        *piece = _mm256_shuffle_epi8(palette, at);
    }
    let [p0, p1, p2] = pieces;
    store32(out, _mm256_permute2x128_si256(p0, p1, 0x20));
    store32(&mut out[32..], _mm256_permute2x128_si256(p2, p0, 0x30));
    store32(&mut out[64..], _mm256_permute2x128_si256(p1, p2, 0x31));
}

/// `label_run_by_v_body` 32 pixels at a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn label_run_by_v_avx2(rgb: &[u8], mask: &mut [u8], color: Option<&mut [u8]>, by_v: &ByV) {
    let n = mask.len() / 32 * 32;
    let (rgb, rgb_tail) = rgb.split_at(3 * n);
    let (mask, mask_tail) = mask.split_at_mut(n);
    // Each plane's low and high 16 bytes, in both lanes.
    let plane = |bits: &[u8; 32]| {
        let v = load32(bits);
        [
            _mm256_permute2x128_si256(v, v, 0x00),
            _mm256_permute2x128_si256(v, v, 0x11),
        ]
    };
    let planes = [plane(&by_v.bits[0]), plane(&by_v.bits[1])];
    let pixels = rgb.chunks_exact(96).zip(mask.chunks_exact_mut(32));
    match color {
        Some(color) => {
            let (color, color_tail) = color.split_at_mut(3 * n);
            for ((px, m), out) in pixels.zip(color.chunks_exact_mut(96)) {
                let class = classes32(px, &planes);
                store32(m, class);
                colours32(class, out);
            }
            label_run_by_v_body(rgb_tail, mask_tail, Some(color_tail), by_v);
        }
        None => {
            for (px, m) in pixels {
                store32(m, classes32(px, &planes));
            }
            label_run_by_v_body(rgb_tail, mask_tail, None, by_v);
        }
    }
}

// The twins exist on x86_64 only.
#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::fused::ClassLut;
    use crate::ranges::{ClassRanges, HsvRange};

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

    /// Every AVX2 and AVX-512F twin of the median tile path this host can
    /// run equals its baseline body byte for byte, on interiors that
    /// straddle the 64-sample runs.
    #[test]
    fn median_twins_equal_their_baseline_body_bit_for_bit() {
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
    }

    /// Every blur twin this host can run — the AVX-512F one with its block
    /// transposes on 16 × 16 registers and the columns past the last whole
    /// group one sample at a time — equals `box_blur_tile` by `to_bits` at
    /// every width from 1 to 40 and at 256, at heights around the 16-row
    /// blocks and with a short block of 8 rows (a short last block repeats
    /// its last row), at radii from 0 to past the side, on continuous, 0/1
    /// and mostly-zero planes.
    #[test]
    fn blur_twins_equal_the_baseline_body_bit_for_bit_at_every_width() {
        let twins = runnable();
        let mut rng = Rng(0x0b1e_5eed_0000_0001);
        let widths = (1..=40).chain([256]);
        for (w, h) in widths.flat_map(|w| [1, 8, 15, 16, 17, 24, 31, 33, 40].map(|h| (w, h))) {
            let side = w.max(h);
            let mut radii = vec![0, 1, 2, 3, 7, 8, 15, 16, 17, 32, side - 1, side, side + 1];
            radii.sort_unstable();
            radii.dedup();
            for kind in 0..3 {
                let src: Vec<f32> = (0..w * h)
                    .map(|_| match kind {
                        0 => 903.0 * rng.unit() - 3.0,
                        1 => (rng.below(5) == 0) as u8 as f32,
                        _ => rng.pick(&[0.0; 19], 1.0),
                    })
                    .collect();
                for &radius in &radii {
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

    /// The AVX2 class/colour twin equals the baseline body byte for byte,
    /// masks and colour labels, on runs of 0 to 97 pixels whose V walks
    /// through 0..=255 over and over, in the 32-pixel groups and in the
    /// tails, for the V-only range
    /// sets (a V hole the nearest-V fallback decides among them) and for
    /// seeded random class tables.
    #[test]
    fn class_colour_twin_equals_the_baseline_body_at_every_run_length() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = Rng(0xc1a5_5c01_0000_0001);
        let gap = ClassRanges {
            thin: HsvRange {
                lo: [0, 0, 150],
                hi: [185, 255, 200],
            },
            ..ClassRanges::from_value_cuts(99, 201)
        };
        let sets = [
            ClassRanges::paper(),
            ClassRanges::from_value_cuts(14, 92),
            ClassRanges::from_value_cuts(0, 2),
            ClassRanges::from_value_cuts(253, 255),
            ClassRanges::partial_night(),
            gap,
        ];
        let mut tables: Vec<ByV> = sets
            .iter()
            .map(|r| ClassLut::new(r).by_v.expect("V alone decides these sets"))
            .collect();
        for _ in 0..4 {
            tables.push(ByV::new(std::array::from_fn(|_| rng.below(3) as u8)));
        }
        for (t, by_v) in tables.iter().enumerate() {
            let mut next_v = 0u8;
            for n in 0..=97 {
                let mut rgb = Vec::with_capacity(3 * n);
                for _ in 0..n {
                    // V at a random channel, the other two at most V.
                    let v = next_v;
                    next_v = next_v.wrapping_add(1);
                    let mut px = [0, 1, 2].map(|_| rng.below(u64::from(v) + 1) as u8);
                    px[rng.below(3) as usize] = v;
                    rgb.extend_from_slice(&px);
                }
                let case = format!("table {t}, run of {n}");
                let (mut mask0, mut color0) = (vec![0xAB; n], vec![0xCD; 3 * n]);
                label_run_by_v_body(&rgb, &mut mask0, Some(&mut color0), by_v);
                let (mut mask, mut color) = (vec![0x5A; n], vec![0x3C; 3 * n]);
                let mut mask_only = vec![0x77; n];
                // SAFETY: avx2 was detected on this CPU above.
                unsafe {
                    label_run_by_v_avx2(&rgb, &mut mask, Some(&mut color), by_v);
                    label_run_by_v_avx2(&rgb, &mut mask_only, None, by_v);
                }
                assert_eq!(mask, mask0, "mask ({case})");
                assert_eq!(color, color0, "colour label ({case})");
                assert_eq!(mask_only, mask0, "mask without colour ({case})");
            }
        }
    }
}
