//! The audited exception to `seaice-nn`'s `deny(unsafe_code)`: the
//! detecting fronts of the direct convolution kernels, f32 and int8 side by
//! side. Each front calls a twin compiled for a CPU feature when the CPU
//! has it and its baseline otherwise; calling a `#[target_feature]`
//! function from ordinary code is `unsafe` — the feature precondition and
//! nothing else.
//!
//! * The f32 twins are the `#[inline(always)]` bodies of
//!   [`conv2d`](super::conv2d) compiled again at `2 · MR` rows: with AVX2 at
//!   `NR` lanes, and with AVX-512F at `NR_WIDE` lanes where the nest's lane
//!   rule holds. No intrinsics, no raw pointers; `fma` is not enabled by
//!   AVX2, is implied by `avx512f`, and is never used because Rust does not
//!   contract `a * b + c`.
//! * The int8 twin is [`quant`](super::quant)'s `vpmaddwd` kernel, written
//!   with safe *value* intrinsics (no loads or stores through pointers, no
//!   `transmute`); its baseline is the `quantize_into` → `im2col_i8` →
//!   `gemm_i8_i32` lowering, which computes the same integer sums.
//!
//! Explicit twins with explicit arguments: a closure handed to a generic
//! `avx2` shim can stay an out-of-line baseline function, with no warning.

use super::conv2d::{grad_weight_item_body, tiled_planes_body, ConvBuffers, Live, MR, NR, NR_WIDE};
use super::planes::{Planes, Sink, View};
use super::quant::{qconv_item_lowered, QPlan};

macro_rules! twins {
    // The twins are `$body` compiled again at `2 · MR` rows: inside AVX2 at
    // `NR` lanes, and inside AVX-512F at `NR_WIDE` lanes, which the front
    // takes where `$wide` — the nest's lane rule — holds.
    ($front:ident = $body:ident: $avx2:ident, $avx512:ident if $wide:expr; $($arg:ident: $ty:ty),* $(,)?) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2($($arg: $ty),*) {
            $body::<{ 2 * MR }, NR>($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        fn $avx512($($arg: $ty),*) {
            $body::<{ 2 * MR }, NR_WIDE>($($arg),*)
        }

        pub(super) fn $front($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if $wide && std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: avx512f was detected on this CPU on the line above.
                return unsafe { $avx512($($arg),*) };
            }
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 was detected on this CPU on the line above.
                return unsafe { $avx2($($arg),*) };
            }
            $body::<MR, NR>($($arg),*)
        }
    };
    // A front over an AVX2 twin written out on its own.
    ($front:ident = $twin:path | $base:path; $($arg:ident: $ty:ty),* $(,)?) => {
        pub(super) fn $front($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 was detected on this CPU on the line above.
                return unsafe { $twin($($arg),*) };
            }
            $base($($arg),*)
        }
    };
}

// Forward and `dx`: lanes are consecutive output positions, so 16 lanes
// from planes 16 wide up; narrower planes (the deepest levels of small
// tiles) would drop more lanes past a row's end.
twins!(tiled_planes = tiled_planes_body: tiled_planes_avx2, tiled_planes_avx512
    if out.dims().2 >= NR_WIDE;
    src: &Planes,
    offs: &[usize],
    groups: usize,
    packed: &[f32],
    bias: Option<&[f32]>,
    out: Sink<'_>,
    live: Live<'_>,
);
// `dW`: lanes are output channels, so 16 lanes from 16 channels up.
twins!(grad_weight_item = grad_weight_item_body: grad_weight_item_avx2, grad_weight_item_avx512
    if dims.0 >= NR_WIDE;
    xh: &Planes,
    offs: &[usize],
    gy: View<'_>,
    dims: (usize, usize, usize),
    dw: &mut [f32],
    scratch: (&mut Vec<f32>, &mut Vec<f32>),
);
twins!(qconv_item = super::quant::qconv_item_avx2 | qconv_item_lowered;
    plan: &QPlan,
    x: View<'_>,
    out: Sink<'_>,
    buf: &mut ConvBuffers,
);

/// The widest instantiation of the direct kernels this process runs:
/// `"avx512f"` (the f32 kernels on 8 × 16 `zmm` tiles where 16 lanes fill
/// — forward and `dx` over planes at least 16 wide, `dW` over at least 16
/// output channels — everything else as under `"avx2"`), `"avx2"` (8 × 8
/// tiles on `ymm`, int8 on `vpmaddwd`) or `"baseline"` (f32 4 × 8 on
/// `xmm`, int8 through the lowering). It depends on the CPU alone; all
/// compute the same bits.
pub fn isa() -> &'static str {
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
