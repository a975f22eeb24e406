//! The one audited exception to the workspace's `forbid(unsafe_code)`: the
//! detecting fronts of the direct convolution kernels, f32 and int8 side by
//! side. Each front calls a twin compiled for a CPU feature when the CPU
//! has it and its baseline otherwise; calling a `#[target_feature]`
//! function from ordinary code is `unsafe` — the feature precondition and
//! nothing else.
//!
//! * The f32 twins are the `#[inline(always)]` bodies of
//!   [`conv2d`](super::conv2d) compiled again: with AVX2 at `2 · MR` rows ×
//!   `NR` lanes, and the forward body with AVX-512F at `2 · MR` rows ×
//!   `NR_WIDE` lanes. No intrinsics, no raw pointers; `fma` is not enabled
//!   by AVX2, is implied by `avx512f`, and is never used because Rust does
//!   not contract `a * b + c`.
//! * The int8 twin is [`quant`](super::quant)'s `vpmaddwd` kernel, written
//!   with safe *value* intrinsics (no loads or stores through pointers, no
//!   `transmute`); its baseline is the `quantize_into` → `im2col_i8` →
//!   `gemm_i8_i32` lowering, which computes the same integer sums.
//!
//! Explicit twins with explicit arguments: a closure handed to a generic
//! `avx2` shim can stay an out-of-line baseline function, with no warning.

use super::conv2d::{grad_weight_item_body, tiled_planes_body, MR, NR, NR_WIDE};
use super::planes::{Planes, Sink, View};
use super::quant::{qconv_item_lowered, QPlan};

macro_rules! twins {
    // The twin is `$body` compiled again, inside AVX2, at `2 · MR` rows.
    ($front:ident, $twin:ident = $body:ident $(<$lanes:ident>)? ($($arg:ident: $ty:ty),* $(,)?)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $twin($($arg: $ty),*) {
            $body::<{ 2 * MR } $(, $lanes)?>($($arg),*)
        }

        twins!($front = $twin | $body::<MR $(, $lanes)?>; $($arg: $ty),*);
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

twins!(tiled_planes, tiled_planes_avx2 = tiled_planes_body<NR>(
    src: &Planes,
    offs: &[usize],
    groups: usize,
    packed: &[f32],
    bias: Option<&[f32]>,
    out: Sink<'_>,
));
twins!(grad_weight_item, grad_weight_item_avx2 = grad_weight_item_body(
    xh: &Planes,
    offs: &[usize],
    gy: &[f32],
    dims: (usize, usize, usize),
    dw: &mut [f32],
));
twins!(qconv_item = super::quant::qconv_item_avx2 | qconv_item_lowered;
    plan: &QPlan,
    x: View<'_>,
    out: Sink<'_>,
    words: &mut Vec<i32>,
);

/// The forward pass's 16-lane twin.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn forward_planes_avx512(src: &Planes, offs: &[usize], packed: &[f32], bias: &[f32], out: Sink) {
    tiled_planes_body::<{ 2 * MR }, NR_WIDE>(src, offs, 1, packed, Some(bias), out)
}

/// The forward convolution's front: the AVX-512F twin for outputs at least
/// `NR_WIDE` wide, [`tiled_planes`] otherwise. Only the forward pass takes
/// 16 lanes: the `dx` gather and `dW` at 16 lanes slowed training (DESIGN.md
/// §4.10, "Three instantiations").
pub(super) fn forward_planes(
    src: &Planes,
    offs: &[usize],
    packed: &[f32],
    bias: &[f32],
    out: Sink,
) {
    #[cfg(target_arch = "x86_64")]
    if out.dims().2 >= NR_WIDE && std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: avx512f was detected on this CPU on the line above.
        return unsafe { forward_planes_avx512(src, offs, packed, bias, out) };
    }
    tiled_planes(src, offs, 1, packed, Some(bias), out)
}

/// The widest instantiation of the direct kernels this process runs:
/// `"avx512f"` (the f32 forward pass on 8 × 16 `zmm` tiles where planes are
/// at least 16 wide, everything else as under `"avx2"`), `"avx2"` (8 × 8
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
