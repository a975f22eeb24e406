//! Int8 post-training-quantization primitives: per-tensor affine
//! activation quantization, per-channel symmetric weight quantization,
//! an int8 `im2col`, and an i8×i8→i32 GEMM — the kernel set behind the
//! quantized convolution in [`qconv2d`].
//!
//! The scheme follows standard PTQ practice:
//!
//! * **Activations** use one affine `(scale, zero_point)` pair per
//!   tensor, calibrated from an observed `[lo, hi]` range that is always
//!   widened to include 0 so ReLU zeros and convolution padding quantize
//!   exactly: `q = clamp(round(x/s) + z, −128, 127)`.
//! * **Weights** use one symmetric scale per output channel (row of the
//!   pre-flattened filter bank), quantized to `[−127, 127]` so negation
//!   never saturates: `w_q = clamp(round(w/s_oc), −127, 127)`.
//! * **Accumulation** is exact in i32. With per-row quantized-weight sums
//!   `Σw_q` precomputed, the affine input offset folds out of the GEMM:
//!   `y = (Σ w_q·x_q − z·Σw_q) · s_oc·s_x + bias`.
//!
//! Everything here is deterministic: integer accumulation is exact (and
//! therefore associativity-safe), rounding is branch-free ties-to-even
//! via the magic-constant add (see `round_ties_even`), and every output
//! element is produced by one thread's sequential loop — the same
//! partitioning discipline [`conv2d`](crate::ops::conv2d::conv2d) uses,
//! so results are bit-identical across batch sizes and thread
//! counts.

use crate::ops::conv2d::Conv2dShape;
use crate::tensor::Tensor;
use seaice_exec::par;

/// Per-tensor affine quantization parameters for activations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantParams {
    /// Step size between adjacent quantized values.
    pub scale: f32,
    /// The quantized value representing real 0.0 (exactly).
    pub zero_point: i8,
}

impl QuantParams {
    /// Calibrates parameters from an observed value range. The range is
    /// widened to include 0 (so padding and ReLU zeros are exact), and a
    /// degenerate or non-finite range falls back to the identity-ish
    /// `scale = 1, zero_point = 0` rather than dividing by zero.
    pub fn from_range(lo: f32, hi: f32) -> Self {
        let lo = lo.min(0.0);
        let hi = hi.max(0.0);
        let span = hi - lo;
        if !(span.is_finite() && span > 0.0) {
            return Self {
                scale: 1.0,
                zero_point: 0,
            };
        }
        let scale = span / 255.0;
        // Place the grid so real 0 lands exactly on an integer code.
        let zero_point = (-lo / scale).round().clamp(0.0, 255.0) - 128.0;
        Self {
            scale,
            // Clamped to [0,255] then shifted by -128: always in i8 range.
            zero_point: zero_point as i8,
        }
    }

    /// Quantizes one value: `clamp(round(x·(1/s)) + z, −128, 127)`,
    /// rounding ties to even. Matches [`quantize_into`] bit for bit.
    pub fn quantize(self, x: f32) -> i8 {
        let inv = 1.0 / self.scale;
        let q = round_ties_even(x * inv) + f32::from(self.zero_point);
        q.clamp(-128.0, 127.0) as i8
    }

    /// Dequantizes one value: `(q − z)·s`.
    pub fn dequantize(self, q: i8) -> f32 {
        (i32::from(q) - i32::from(self.zero_point)) as f32 * self.scale
    }
}

/// Round to nearest, ties to even, without calling libm's `round`: for
/// `|x| ≤ 2^22`, adding and subtracting `1.5·2^23` snaps the mantissa to
/// an integer under the default rounding mode. Two adds, so it
/// vectorizes on every x86-64 baseline (`roundps` needs SSE4.1).
/// Callers clamp into the valid range first.
fn round_ties_even(x: f32) -> f32 {
    // 1.5 * 2^23. The clamp range is far outside [-128, 127], so
    // saturated inputs still saturate after the +z shift; NaN propagates
    // through the clamp and both adds exactly as `f32::round` would.
    const MAGIC: f32 = 12_582_912.0;
    (x.clamp(-4_194_304.0, 4_194_304.0) + MAGIC) - MAGIC
}

/// Quantizes a slice into a reused i8 buffer (cleared first). The
/// division is hoisted into one reciprocal and the rounding is the
/// two-add magic-constant form, so the hot loop is branch-free
/// multiply/add/clamp — identical on every host, and it vectorizes
/// where `div` and libm `round` do not.
pub fn quantize_into(x: &[f32], qp: QuantParams, out: &mut Vec<i8>) {
    out.clear();
    out.reserve(x.len());
    let inv = 1.0 / qp.scale;
    let z = f32::from(qp.zero_point);
    out.extend(
        x.iter()
            .map(|&v| (round_ties_even(v * inv) + z).clamp(-128.0, 127.0) as i8),
    );
}

/// A per-channel symmetrically quantized weight matrix (the
/// `[out_c, in_c·k·k]` filter bank of a convolution).
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedWeights {
    /// Output channels (rows).
    pub rows: usize,
    /// Fan-in per output channel (columns).
    pub cols: usize,
    /// Quantized weights, `[rows, cols]` row-major, each in `[−127, 127]`.
    pub data: Vec<i8>,
    /// Per-row symmetric scale: `w ≈ w_q · scale[row]`.
    pub scales: Vec<f32>,
    /// Per-row `Σ w_q`, used to fold the activation zero-point out of the
    /// integer accumulator.
    pub row_sums: Vec<i32>,
}

/// Quantizes a 2-D weight tensor with one symmetric scale per row
/// (output channel). An all-zero row gets scale 1 (its quantized weights
/// are all zero, so the reconstruction is exact either way).
///
/// # Panics
/// Panics unless `weight` is 2-D.
pub fn quantize_weights(weight: &Tensor) -> QuantizedWeights {
    let s = weight.shape();
    assert_eq!(s.len(), 2, "quantize_weights expects a 2-D filter bank");
    let (rows, cols) = (s[0], s[1]);
    let w = weight.as_slice();
    let mut data = Vec::with_capacity(rows * cols);
    let mut scales = Vec::with_capacity(rows);
    let mut row_sums = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &w[r * cols..(r + 1) * cols];
        let amax = row.iter().fold(0f32, |m, &v| m.max(v.abs()));
        let scale = if amax.is_finite() && amax > 0.0 {
            amax / 127.0
        } else {
            1.0
        };
        let mut sum: i32 = 0;
        for &v in row {
            let q = (v / scale).round().clamp(-127.0, 127.0) as i8;
            sum += i32::from(q);
            data.push(q);
        }
        scales.push(scale);
        row_sums.push(sum);
    }
    QuantizedWeights {
        rows,
        cols,
        data,
        scales,
        row_sums,
    }
}

/// Int8 [`im2col`](crate::ops::im2col::im2col): unrolls a quantized CHW
/// image into the `[c·kh·kw, oh·ow]` patch matrix, filling padded
/// positions with `zero_point` (the quantized code for real 0) instead
/// of literal zero.
///
/// `out` is cleared and refilled so serving workers reuse one buffer.
///
/// # Panics
/// Panics when the geometry yields no output positions or the input
/// slice does not match `c·h·w`.
#[allow(clippy::too_many_arguments)] // mirrors the f32 im2col geometry signature
pub fn im2col_i8(
    input: &[i8],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    zero_point: i8,
    out: &mut Vec<i8>,
) {
    assert_eq!(input.len(), c * h * w, "input length mismatch");
    assert!(stride > 0, "stride must be positive");
    assert!(
        h + 2 * pad >= kh && w + 2 * pad >= kw,
        "kernel larger than padded input"
    );
    let oh = (h + 2 * pad - kh) / stride + 1;
    let ow = (w + 2 * pad - kw) / stride + 1;
    let cols = oh * ow;
    out.clear();
    out.resize(c * kh * kw * cols, zero_point);
    for ch in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ch * kh + ky) * kw + kx;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                // Valid ox range for this kx: ix = ox·stride + kx − pad
                // must land in [0, w). Everything outside stays at the
                // zero point.
                let ox_lo = pad.saturating_sub(kx).div_ceil(stride).min(ow);
                let ox_hi = if w + pad > kx {
                    ((w + pad - kx - 1) / stride + 1).min(ow)
                } else {
                    0
                };
                for oy in 0..oh {
                    let iy = oy * stride + ky;
                    if iy < pad || iy >= h + pad {
                        continue; // stays at zero_point (quantized 0)
                    }
                    let iy = iy - pad;
                    if ox_lo >= ox_hi {
                        continue;
                    }
                    let in_base = (ch * h + iy) * w + ox_lo * stride + kx - pad;
                    let dst = &mut out_row[oy * ow + ox_lo..oy * ow + ox_hi];
                    if stride == 1 {
                        // The whole valid span is one contiguous copy.
                        dst.copy_from_slice(&input[in_base..in_base + dst.len()]);
                    } else {
                        for (i, d) in dst.iter_mut().enumerate() {
                            *d = input[in_base + i * stride];
                        }
                    }
                }
            }
        }
    }
}

/// `C[m,n] (i32) = A[m,k] (i8) · B[k,n] (i8)` with exact i32
/// accumulation, in the same cache-friendly i-k-j order as the f32
/// [`matmul`](crate::ops::matmul::matmul) — the inner loop streams rows
/// of `B` at a quarter of the f32 memory traffic.
///
/// k-rows are consumed two at a time with the products formed in i16:
/// `|a·b| ≤ 127·128 = 16256`, so the sum of two products is at most
/// `32512 < i16::MAX + 1` — exact, and the i16 multiplies vectorize
/// twice as wide as an i32 multiply would. The pair sum is then widened
/// to the i32 accumulator. Row pairs go through `seaice_exec::par`
/// exactly like `matmul`'s rows; every output element is still produced by one
/// thread's sequential integer loop, so results are bit-identical at
/// any thread count.
///
/// # Panics
/// Panics on slice-length mismatches.
pub fn gemm_i8_i32(a: &[i8], b: &[i8], m: usize, k: usize, n: usize, c: &mut [i32]) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(c.len(), m * n, "output length mismatch");
    let row_op = |i: usize, c_row: &mut [i32]| {
        let c_row = &mut c_row[..n];
        c_row.fill(0);
        let a_row = &a[i * k..(i + 1) * k];
        let mut kk = 0;
        while kk + 1 < k {
            let a0 = i16::from(a_row[kk]);
            let a1 = i16::from(a_row[kk + 1]);
            let b0 = &b[kk * n..][..n];
            let b1 = &b[(kk + 1) * n..][..n];
            if a0 == 0 && a1 == 0 {
                kk += 2;
                continue;
            }
            for j in 0..n {
                // Exact in i16: each product is within ±16256, the sum
                // within ±32512.
                c_row[j] += i32::from(a0 * i16::from(b0[j]) + a1 * i16::from(b1[j]));
            }
            kk += 2;
        }
        if kk < k {
            let av = i32::from(a_row[kk]);
            if av != 0 {
                let b_row = &b[kk * n..(kk + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * i32::from(bv);
                }
            }
        }
    };
    // Two output rows per pass: the widened B values are reused for both
    // rows, halving the expensive i8 sign-extension work. Row pairs are
    // the parallel unit, so the split stays deterministic.
    let pair_op = |i: usize, c2: &mut [i32]| {
        let (c0, c1) = c2.split_at_mut(n);
        c0.fill(0);
        c1.fill(0);
        let a0_row = &a[(2 * i) * k..(2 * i + 1) * k];
        let a1_row = &a[(2 * i + 1) * k..(2 * i + 2) * k];
        let mut kk = 0;
        while kk + 1 < k {
            let a00 = i16::from(a0_row[kk]);
            let a01 = i16::from(a0_row[kk + 1]);
            let a10 = i16::from(a1_row[kk]);
            let a11 = i16::from(a1_row[kk + 1]);
            let b0 = &b[kk * n..][..n];
            let b1 = &b[(kk + 1) * n..][..n];
            for j in 0..n {
                let v0 = i16::from(b0[j]);
                let v1 = i16::from(b1[j]);
                // Exact in i16: each pair sum is within ±32512.
                c0[j] += i32::from(a00 * v0 + a01 * v1);
                c1[j] += i32::from(a10 * v0 + a11 * v1);
            }
            kk += 2;
        }
        if kk < k {
            let a0v = i32::from(a0_row[kk]);
            let a1v = i32::from(a1_row[kk]);
            let b_row = &b[kk * n..][..n];
            for j in 0..n {
                let bv = i32::from(b_row[j]);
                c0[j] += a0v * bv;
                c1[j] += a1v * bv;
            }
        }
    };
    // `par` leaves the odd last row, shorter than a pair, untouched.
    par::chunks_mut(c, 2 * n, pair_op);
    if m % 2 == 1 {
        row_op(m - 1, &mut c[(m - 1) * n..]);
    }
}

/// Quantized forward convolution: f32 in, f32 out, int8 arithmetic
/// inside.
///
/// * `input` — `[n, in_c, h, w]` f32 activations
/// * `weights` — per-channel quantized `[out_c, in_c·k·k]` filter bank
/// * `bias` — `[out_c]` f32 (bias is applied after dequantization)
/// * `act` — input activation quantization parameters (calibrated)
///
/// Returns `[n, out_c, oh, ow]` f32, computed as quantize → int8 im2col
/// → i32 GEMM → dequantize + bias. Batch items are processed
/// independently, one after the other, so outputs are bit-identical
/// across batch sizes.
///
/// # Panics
/// Panics on any shape inconsistency.
pub fn qconv2d(
    input: &Tensor,
    weights: &QuantizedWeights,
    bias: &Tensor,
    shape: &Conv2dShape,
    act: QuantParams,
) -> Tensor {
    let (n, c, h, w) = input.nchw();
    assert_eq!(c, shape.in_channels, "input channel mismatch");
    assert_eq!(
        (weights.rows, weights.cols),
        (
            shape.out_channels,
            shape.in_channels * shape.kernel * shape.kernel
        ),
        "quantized weight shape mismatch"
    );
    assert_eq!(bias.shape(), &[shape.out_channels], "bias shape mismatch");
    let (oh, ow) = shape.output_hw(h, w);
    let mut out = Tensor::zeros(&[n, shape.out_channels, oh, ow]);
    let item_len = shape.out_channels * oh * ow;

    // One item after the other, exactly like the f32 conv2d: a batch is
    // at most a few dozen items, far below what `par` would fork for.
    for (b, out_item) in out.as_mut_slice().chunks_exact_mut(item_len).enumerate() {
        qconv_item(
            input.batch_item(b),
            c,
            h,
            w,
            weights,
            bias.as_slice(),
            shape,
            act,
            out_item,
        );
    }
    out
}

/// One batch item of [`qconv2d`]: quantize, unroll, integer-GEMM,
/// dequantize into `out_item` (`out_c·oh·ow` f32s).
#[allow(clippy::too_many_arguments)] // internal kernel plumbing
fn qconv_item(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    weights: &QuantizedWeights,
    bias: &[f32],
    shape: &Conv2dShape,
    act: QuantParams,
    out_item: &mut [f32],
) {
    let (oh, ow) = shape.output_hw(h, w);
    let plane = oh * ow;
    let (mut qx, mut cols) = (Vec::new(), Vec::new());
    quantize_into(x, act, &mut qx);
    im2col_i8(
        &qx,
        c,
        h,
        w,
        shape.kernel,
        shape.kernel,
        shape.stride,
        shape.pad,
        act.zero_point,
        &mut cols,
    );
    let mut acc = vec![0; weights.rows * plane];
    gemm_i8_i32(
        &weights.data,
        &cols,
        weights.rows,
        weights.cols,
        plane,
        &mut acc,
    );
    let z = i32::from(act.zero_point);
    for oc in 0..weights.rows {
        let deq = weights.scales[oc] * act.scale;
        let corr = z * weights.row_sums[oc];
        let bias_v = bias[oc];
        let acc_row = &acc[oc * plane..(oc + 1) * plane];
        let dst = &mut out_item[oc * plane..(oc + 1) * plane];
        for (d, &a) in dst.iter_mut().zip(acc_row) {
            *d = (a - corr) as f32 * deq + bias_v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::uniform;
    use crate::ops::conv2d::conv2d;

    #[test]
    fn round_trip_error_is_within_half_a_step() {
        let qp = QuantParams::from_range(-2.0, 3.0);
        for i in 0..1000 {
            let x = -2.0 + 5.0 * (i as f32) / 999.0;
            let back = qp.dequantize(qp.quantize(x));
            assert!(
                (back - x).abs() <= qp.scale * 0.5 + 1e-6,
                "x={x} back={back} scale={}",
                qp.scale
            );
        }
    }

    #[test]
    fn zero_is_represented_exactly() {
        for (lo, hi) in [(-1.0, 1.0), (0.0, 6.0), (-3.0, 0.0), (0.17, 4.2)] {
            let qp = QuantParams::from_range(lo, hi);
            assert_eq!(qp.dequantize(qp.quantize(0.0)), 0.0, "range [{lo},{hi}]");
        }
    }

    #[test]
    fn activation_saturation_clamps_at_i8_extremes() {
        let qp = QuantParams::from_range(-1.0, 1.0);
        assert_eq!(qp.quantize(1e9), 127);
        assert_eq!(qp.quantize(-1e9), -128);
        let mut q = Vec::new();
        quantize_into(&[1e9, -1e9, f32::MAX, f32::MIN], qp, &mut q);
        assert_eq!(q, vec![127, -128, 127, -128]);
    }

    #[test]
    fn degenerate_ranges_fall_back_instead_of_dividing_by_zero() {
        for (lo, hi) in [(0.0, 0.0), (f32::NAN, 1.0), (0.0, f32::INFINITY)] {
            let qp = QuantParams::from_range(lo, hi);
            assert!(qp.scale.is_finite() && qp.scale > 0.0);
            assert_eq!(qp.quantize(0.0), qp.zero_point);
        }
    }

    #[test]
    fn per_channel_scales_handle_adversarial_rows() {
        // Row 0: all zero. Row 1: one huge outlier among tiny values.
        // Row 2: negative-only. Row 3: ordinary.
        let w = Tensor::from_vec(
            &[4, 4],
            vec![
                0.0, 0.0, 0.0, 0.0, //
                0.001, -0.002, 127.0, 0.003, //
                -0.5, -0.25, -1.0, -0.125, //
                0.3, -0.7, 0.9, 0.1,
            ],
        );
        let qw = quantize_weights(&w);
        // All-zero row: scale fallback, exact zero reconstruction.
        assert_eq!(qw.scales[0], 1.0);
        assert!(qw.data[0..4].iter().all(|&q| q == 0));
        assert_eq!(qw.row_sums[0], 0);
        // Outlier row: the outlier pins the scale and hits exactly ±127.
        assert_eq!(qw.scales[1], 1.0);
        assert_eq!(qw.data[4..8], [0, 0, 127, 0]);
        // Negative-only row: symmetric range still covers it, min hits −127.
        assert_eq!(qw.data[8..12], [-64, -32, -127, -16]);
        // Every row reconstructs within half a step.
        for r in 0..4 {
            for i in 0..4 {
                let back = f32::from(qw.data[r * 4 + i]) * qw.scales[r];
                assert!(
                    (back - w.as_slice()[r * 4 + i]).abs() <= qw.scales[r] * 0.5 + 1e-6,
                    "row {r} col {i}"
                );
            }
        }
        // Row sums match the quantized data.
        for r in 0..4 {
            let s: i32 = qw.data[r * 4..(r + 1) * 4]
                .iter()
                .map(|&q| i32::from(q))
                .sum();
            assert_eq!(qw.row_sums[r], s);
        }
    }

    #[test]
    fn weight_quantization_never_uses_minus_128() {
        // −128 has no positive counterpart; symmetric quantization must
        // clamp to −127 so |w_q| ≤ 127 always holds.
        let w = Tensor::from_vec(&[1, 3], vec![-1.0, -0.999999, 1.0]);
        let qw = quantize_weights(&w);
        assert!(qw.data.iter().all(|&q| q >= -127));
        assert_eq!(qw.data[0], -127);
    }

    #[test]
    fn im2col_i8_fills_padding_with_the_zero_point() {
        // 1×2×2 input, 3×3 kernel, pad 1: every patch touches padding.
        let input: Vec<i8> = vec![10, 20, 30, 40];
        let mut out = Vec::new();
        im2col_i8(&input, 1, 2, 2, 3, 3, 1, 1, -7, &mut out);
        assert_eq!(out.len(), 9 * 4);
        // Center taps reproduce the input; the top-left tap of the first
        // patch is pure padding.
        let center_row = &out[4 * 4..5 * 4];
        assert_eq!(center_row, &[10, 20, 30, 40]);
        assert_eq!(out[0], -7, "padding must carry the zero point");
        // Padding count: each 3×3 patch on a 2×2 image has 5 padded taps.
        let pad_count = out.iter().filter(|&&v| v == -7).count();
        assert_eq!(pad_count, 5 * 4);
    }

    #[test]
    fn gemm_i8_matches_a_naive_i32_product() {
        let (m, k, n) = (5, 7, 9);
        let a: Vec<i8> = (0..m * k).map(|i| ((i * 37 + 11) % 255) as i8).collect();
        let b: Vec<i8> = (0..k * n).map(|i| ((i * 91 + 3) % 255) as i8).collect();
        let mut c = vec![0i32; m * n];
        gemm_i8_i32(&a, &b, m, k, n, &mut c);
        for i in 0..m {
            for j in 0..n {
                let want: i32 = (0..k)
                    .map(|kk| i32::from(a[i * k + kk]) * i32::from(b[kk * n + j]))
                    .sum();
                assert_eq!(c[i * n + j], want, "({i},{j})");
            }
        }
    }

    #[test]
    fn qconv2d_tracks_the_f32_convolution_within_quantization_error() {
        let shape = Conv2dShape {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let x = uniform(&[2, 3, 8, 8], 0.0, 1.0, 41);
        let w = uniform(&[8, 27], -0.5, 0.5, 42);
        let bias = uniform(&[8], -0.1, 0.1, 43);
        let want = conv2d(&x, &w, &bias, &shape);
        let qw = quantize_weights(&w);
        let act = QuantParams::from_range(0.0, 1.0);
        let got = qconv2d(&x, &qw, &bias, &shape, act);
        assert_eq!(got.shape(), want.shape());
        let max_err = got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0f32, f32::max);
        // 27 taps, each off by at most ~(s_w·|x| + s_x·|w| + s_w·s_x)/2;
        // with these ranges the worst case is well under 0.1.
        assert!(max_err < 0.1, "max |int8 − f32| = {max_err}");
    }

    #[test]
    fn qconv2d_is_bit_stable_across_batch_splits() {
        let shape = Conv2dShape {
            in_channels: 2,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let x = uniform(&[3, 2, 6, 6], -1.0, 1.0, 51);
        let w = uniform(&[4, 18], -0.5, 0.5, 52);
        let bias = Tensor::zeros(&[4]);
        let qw = quantize_weights(&w);
        let act = QuantParams::from_range(-1.0, 1.0);
        let batched = qconv2d(&x, &qw, &bias, &shape, act);
        let item_len = 4 * 6 * 6;
        for b in 0..3 {
            let solo = qconv2d(
                &Tensor::from_vec(&[1, 2, 6, 6], x.batch_item(b).to_vec()),
                &qw,
                &bias,
                &shape,
                act,
            );
            assert_eq!(
                solo.as_slice(),
                &batched.as_slice()[b * item_len..(b + 1) * item_len],
                "batch item {b} diverged"
            );
        }
    }
}
