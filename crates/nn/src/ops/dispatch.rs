//! The one audited exception to the workspace's `forbid(unsafe_code)`: the
//! detecting fronts of the direct convolution kernels, f32 and int8 side by
//! side. Each front calls an AVX2 twin when the CPU has the feature and its
//! baseline otherwise; calling a `#[target_feature]` function from
//! ordinary code is `unsafe` — the feature precondition and nothing else.
//!
//! * The f32 twins are the `#[inline(always)]` bodies of
//!   [`conv2d`](super::conv2d) compiled a second time with a `2 · MR`-row
//!   tile: no intrinsics, no raw pointers, `fma` deliberately not enabled.
//! * The int8 twin is [`quant`](super::quant)'s `vpmaddwd` kernel, written
//!   with safe *value* intrinsics (no loads or stores through pointers, no
//!   `transmute`); its baseline is the `quantize_into` → `im2col_i8` →
//!   `gemm_i8_i32` lowering, which computes the same integer sums.
//!
//! Explicit twins with explicit arguments: a closure handed to a generic
//! `avx2` shim can stay an out-of-line baseline function, with no warning.

use super::conv2d::{grad_weight_item_body, tiled_planes_body, Haloed, MR};
use super::quant::{qconv_item_lowered, QPlan};

macro_rules! twins {
    // The twin is `$body` compiled again, inside the feature, at `2 · MR` rows.
    ($front:ident, $twin:ident = $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $twin($($arg: $ty),*) {
            $body::<{ 2 * MR }>($($arg),*)
        }

        twins!($front = $twin | $body::<MR>; $($arg: $ty),*);
    };
    // A front over a twin written out on its own.
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

twins!(tiled_planes, tiled_planes_avx2 = tiled_planes_body(
    src: &Haloed,
    offs: &[usize],
    groups: usize,
    packed: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    dims: (usize, usize, usize),
));
twins!(grad_weight_item, grad_weight_item_avx2 = grad_weight_item_body(
    xh: &Haloed,
    offs: &[usize],
    gy: &[f32],
    dims: (usize, usize, usize),
    dw: &mut [f32],
));
twins!(qconv_item = super::quant::qconv_item_avx2 | qconv_item_lowered;
    plan: &QPlan,
    x: &[f32],
    out: &mut [f32],
);

/// The instantiation of the direct kernels, f32 and int8, this process
/// runs: `"avx2"` (8 × 8 register tiles on `ymm`) or `"baseline"` (f32
/// 4 × 8 on `xmm`, int8 through the lowering). It depends on the CPU
/// alone; the two compute the same bits.
pub fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "baseline"
}
