//! Int8 post-training quantization: per-tensor affine activation
//! quantization, per-channel symmetric weight quantization, and the
//! quantized convolution [`qconv2d`] / [`qconv2d_packed`] /
//! [`qconv2d_into`] (the inference walk's: [`Planes`] in, a [`Sink`] out).
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
//! * **Accumulation** is exact in i32. The lowering folds the affine input
//!   offset out with per-row sums `Σw_q`, `y = (Σ w_q·x_q − z·Σw_q)·s_oc·s_x
//!   + bias`; the direct kernel sums **centred** codes, the same integer:
//!   `y = acc·s_oc·s_x + bias`, `acc = Σ w_q·(x_q − z)`.
//!
//! # The direct kernel
//! Every geometry a model uses (`Conv2dShape::is_direct`: stride 1,
//! `pad ≤ k − 1`) runs the int8 twin of `conv2d`'s register-tiled kernel
//! (DESIGN.md §4.10):
//! * activations are quantised once per conv, straight into a plane haloed
//!   with `0`, of **channel-pair words**: an `i32` holding the i16 centred
//!   codes `q − z` (−255…255) of two channels, so ReLU zeros and padding are
//!   `0`; an odd channel count leaves the partner half `0`;
//! * channels pair in an order fixed at packing: index order in
//!   [`qconv2d`], and in a quantized network the channels calibration saw
//!   zero most often first ([`PackedQWeights::new`]);
//! * weights are packed as matching pair words `[⌈oc/8⌉][⌈c/2⌉·k·k][8]`,
//!   once per [`PackedQWeights`] (per call in [`qconv2d`]);
//! * an 8-channel × 8-position tile accumulates `w₀·x₀ + w₁·x₁` per word —
//!   under AVX2 one `vpmaddwd` + `vpaddd` per row per channel pair — over
//!   the taps whose pair row is not all `0`: the halo pass marks each
//!   `(pair, padded row)` as it writes it, and the f32 forward's tap plan
//!   (`ConvBuffers`) lists each output row's live taps;
//! * the store is the dequantise above, `acc as f32 · (s_w·s_x) + bias`,
//!   through ReLU when the [`Sink`] asks for it.
//!
//! Integer sums are exact in any order while they fit in i32 (asserted when
//! the weights are packed), and a skipped word adds `w·0`, so every output
//! bit equals the lowering [`quantize_into`] → [`im2col_i8`] →
//! [`gemm_i8_i32`] → dequantise, in any pair order. The lowering stays as
//! the test oracle, a line of the benchmark's walk, the path of the
//! geometries `is_direct` excludes and the direct front's baseline on a CPU
//! without AVX2. Every output element is produced by one thread, so results
//! are bit-identical across batch sizes and thread counts.

use crate::ops::conv2d::{Conv2dShape, ConvBuffers, NR};
use crate::ops::dispatch;
use crate::ops::planes::{Planes, Sink, View};
use crate::tensor::Tensor;
use seaice_exec::par;

/// Rows of the int8 register tile (output channels) and of a packed
/// weight block. A short last block computes its zero rows and drops them.
const QR: usize = 8;

/// `1.5 · 2²³`: added to an integral `|v| ≤ 2²²`, it leaves `v` in the low
/// mantissa bits.
const MAGIC: f32 = 12_582_912.0;

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
    /// rounding ties to even, NaN to 0. Matches [`quantize_into`] and the
    /// direct kernel's halo pass bit for bit.
    pub fn quantize(self, x: f32) -> i8 {
        code(x, 1.0 / self.scale, f32::from(self.zero_point))
    }

    /// Dequantizes one value: `(q − z)·s`.
    pub fn dequantize(self, q: i8) -> f32 {
        (i32::from(q) - i32::from(self.zero_point)) as f32 * self.scale
    }
}

/// The centred code `q − z` of `v`, `q = clamp(round(v·inv) + z, −128,
/// 127)` rounding ties to even and NaN → `q = 0` (what `as i8` does with
/// NaN), as the bits of `MAGIC + q − z`: the difference sits in the low 16
/// bits as an i16, `MAGIC`'s own being zero. For `|x| ≤ 2²²`, `x + MAGIC`
/// rounds `x` to an integer under the default rounding mode, without
/// libm's `round`; past that it is still monotone, and the clamp to
/// `[−128 − z, 127 − z]` saturates. Taking the code from the mantissa
/// instead of a saturating `as i8` (a scalar `cvttss2si` per element) lets
/// the halo pass vectorise.
#[inline(always)]
fn centred_bits(v: f32, inv: f32, z: f32) -> u32 {
    let q = (v * inv + MAGIC).clamp(MAGIC - 128.0 - z, MAGIC + 127.0 - z);
    match q.is_nan() {
        true => MAGIC - z,
        false => q,
    }
    .to_bits()
}

/// [`centred_bits`] as the code `q` itself.
#[inline(always)]
fn code(v: f32, inv: f32, z: f32) -> i8 {
    // `MAGIC + q − z` with `q − z` in [−255, 255]: the difference is exact.
    (centred_bits(v, inv, z) as i32 - MAGIC.to_bits() as i32 + z as i32) as i8
}

/// The channel-pair word of two codes: `lo`'s low 16 bits in the low half,
/// `hi`'s in the high half.
#[inline(always)]
fn pair(lo: u32, hi: u32) -> i32 {
    ((lo & 0xFFFF) | (hi << 16)) as i32
}

/// Quantizes a slice into a reused i8 buffer (cleared first). The
/// division is hoisted into one reciprocal and the rounding is the
/// two-add magic-constant form, so the hot loop is branch-free
/// multiply/add/clamp — identical on every host.
pub fn quantize_into(x: &[f32], qp: QuantParams, out: &mut Vec<i8>) {
    out.clear();
    out.reserve(x.len());
    let inv = 1.0 / qp.scale;
    let z = f32::from(qp.zero_point);
    out.extend(x.iter().map(|&v| code(v, inv, z)));
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
/// Panics when the input slice does not match `c·h·w` or the geometry
/// yields no output positions (`Conv2dShape::extent`).
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
    let oh = Conv2dShape::extent(h, kh, stride, pad);
    let ow = Conv2dShape::extent(w, kw, stride, pad);
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
/// `32512 < i16::MAX + 1` — exact — and then widened to the i32
/// accumulator. LLVM vectorises that as widening multiplies per element,
/// not as `pmaddwd`; the model path therefore runs the direct kernel
/// (module docs), which forms the pair products with `vpmaddwd` itself.
/// Row pairs go through `seaice_exec::par` exactly like `matmul`'s rows;
/// every output element is still produced by one thread's sequential
/// integer loop, so results are bit-identical at any thread count.
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

/// A convolution's int8 weights packed once for the direct kernel — what a
/// quantized network holds per convolution, so its forward pass packs
/// nothing. [`qconv2d_packed`] runs it.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedQWeights {
    /// Scales and row sums for the store; the i8 bank for the lowering,
    /// which runs where the direct kernel does not (`is_direct`, no AVX2).
    weights: QuantizedWeights,
    shape: Conv2dShape,
    /// The input channels in pair order: pair `p` holds channels
    /// `order[2p]` and `order[2p + 1]`.
    order: Vec<usize>,
    /// `weights` as channel-pair words (see [`pack_pairs`]); empty for the
    /// geometries `is_direct` excludes, which take the lowering.
    words: Vec<i32>,
}

impl PackedQWeights {
    /// Packs `weights` for `shape`, pairing channels that are zero
    /// together: stable-sorted by `zero_rows[ch]`, the observed rows of
    /// channel `ch` that held only `±0` (missing: 0, so `&[]` pairs in index
    /// order), most first, then neighbours paired, so that pair rows are all
    /// zero, and skipped, about as often as their channels allow. Any order
    /// sums the same integers.
    ///
    /// # Panics
    /// Panics unless `weights` is `shape`'s `[out_c, in_c·k·k]` filter
    /// bank, or when its fan-in is too deep for exact i32 sums.
    pub fn new(weights: QuantizedWeights, shape: Conv2dShape, zero_rows: &[usize]) -> Self {
        let mut order: Vec<usize> = (0..shape.in_channels).collect();
        order.sort_by_key(|&ch| std::cmp::Reverse(zero_rows.get(ch).copied().unwrap_or(0)));
        let words = pack_words(&weights, &shape, &order);
        Self {
            weights,
            shape,
            order,
            words,
        }
    }
}

/// The pair words of `weights`, channels paired in `order`, when `shape`
/// runs the direct kernel, else none.
///
/// # Panics
/// Panics unless `weights` is `shape`'s `[out_c, in_c·k·k]` filter bank, or
/// when its fan-in is too deep for exact i32 sums.
fn pack_words(weights: &QuantizedWeights, shape: &Conv2dShape, order: &[usize]) -> Vec<i32> {
    assert_eq!(
        (weights.rows, weights.cols),
        (
            shape.out_channels,
            shape.in_channels * shape.kernel * shape.kernel
        ),
        "quantized weight shape mismatch"
    );
    match shape.is_direct() {
        true => pack_pairs(weights, shape, order),
        false => Vec::new(),
    }
}

/// `weights` (`[oc, c·k·k]`, row-major) as channel-pair words laid out
/// `[⌈oc/QR⌉][⌈c/2⌉·k·k][QR]`: word `(o, (p, ky, kx))` holds the weights of
/// channels `order[2p]` and `order[2p + 1]` at tap `(ky, kx)`, zero past the
/// last channel and in the rows that fill a short last block, so a tile
/// reads its `QR` words adjacent.
///
/// # Panics
/// Panics when `2·K·127·128 ≥ 2³¹` (`K = c·k·k`): past that bound neither
/// the kernel's sum of `K` terms `w·(q − z)`, each within `±127·255`, nor
/// the lowering's `Σw·q − z·Σw` is exact in i32.
fn pack_pairs(weights: &QuantizedWeights, shape: &Conv2dShape, order: &[usize]) -> Vec<i32> {
    assert!(
        2 * weights.cols as u64 * 127 * 128 < 1 << 31,
        "fan-in {} is too deep for exact i32 accumulation",
        weights.cols
    );
    let kk = shape.kernel * shape.kernel;
    let taps = order.len().div_ceil(2) * kk;
    let mut out = vec![0; weights.rows.div_ceil(QR) * taps * QR];
    for (row, filter) in weights.data.chunks_exact(weights.cols).enumerate() {
        let block = &mut out[row / QR * taps * QR..][..taps * QR];
        for (p, chs) in order.chunks(2).enumerate() {
            let code = |ch: Option<&usize>, t| ch.map_or(0, |ch| filter[ch * kk + t] as u32);
            for t in 0..kk {
                block[(p * kk + t) * QR + row % QR] =
                    pair(code(chs.first(), t), code(chs.get(1), t));
            }
        }
    }
    out
}

/// Quantized forward convolution: f32 in, f32 out, int8 arithmetic
/// inside. Packs the weights on every call (channels paired in index
/// order); a caller that runs the same convolution again holds a
/// [`PackedQWeights`] and calls [`qconv2d_packed`].
///
/// * `input` — `[n, in_c, h, w]` f32 activations
/// * `weights` — per-channel quantized `[out_c, in_c·k·k]` filter bank
/// * `bias` — `[out_c]` f32 (bias is applied after dequantization)
/// * `act` — input activation quantization parameters (calibrated)
///
/// Returns `[n, out_c, oh, ow]` f32. Batch items are processed
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
    let order: Vec<usize> = (0..shape.in_channels).collect();
    let words = pack_words(weights, shape, &order);
    qconv(input, (weights, &order, &words), shape, bias, act)
}

/// [`qconv2d`] with weights packed once, ahead of the call.
///
/// # Panics
/// Panics on any shape inconsistency.
pub fn qconv2d_packed(
    input: &Tensor,
    packed: &PackedQWeights,
    bias: &Tensor,
    act: QuantParams,
) -> Tensor {
    let p = packed;
    qconv(input, (&p.weights, &p.order, &p.words), &p.shape, bias, act)
}

/// The one body of [`qconv2d`] and [`qconv2d_packed`]: `packed` is the
/// weights, their pair order and their [`pack_words`] for `shape`.
fn qconv(
    input: &Tensor,
    packed: Packed<'_>,
    shape: &Conv2dShape,
    bias: &Tensor,
    act: QuantParams,
) -> Tensor {
    let (n, c, h, w) = input.nchw();
    let oc = shape.out_channels;
    assert_eq!(c, shape.in_channels, "input channel mismatch");
    assert_eq!(bias.shape(), &[oc], "bias shape mismatch");
    let (oh, ow) = shape.output_hw(h, w);
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    let plan = QPlan::new(packed, bias.as_slice(), shape, act, (c, h, w));
    let mut buf = ConvBuffers::default();
    // One item after the other, exactly like the f32 conv2d: a batch is
    // at most a few dozen items, far below what `par` would fork for.
    let items = out.as_mut_slice().chunks_exact_mut(oc * oh * ow);
    for (b, out_item) in items.enumerate() {
        let x = View::of_slice(input.batch_item(b), (c, h, w));
        plan.run(x, Sink::plain(out_item, (oc, oh, ow)), &mut buf);
    }
    out
}

/// [`qconv2d_packed`] of the one image `src` holds, stored through `dst`
/// (dequantised, biased and, into a ReLU sink, through ReLU), with the
/// channel-pair planes and the tap plan in `buf`: the inference walk's int8
/// convolution. Same bits as [`qconv2d_packed`] (then `relu`).
///
/// # Panics
/// Panics on any shape inconsistency.
pub fn qconv2d_into(
    src: &Planes,
    packed: &PackedQWeights,
    bias: &Tensor,
    act: QuantParams,
    dst: Sink<'_>,
    buf: &mut ConvBuffers,
) {
    let (p, (c, h, w)) = (packed, src.dims());
    let (oc, (oh, ow)) = (p.shape.out_channels, p.shape.output_hw(h, w));
    assert_eq!(c, p.shape.in_channels, "input channel mismatch");
    assert_eq!(bias.shape(), &[oc], "bias shape mismatch");
    assert_eq!(dst.dims(), (oc, oh, ow), "conv output mismatch");
    let packed = (&p.weights, &p.order[..], &p.words[..]);
    let plan = QPlan::new(packed, bias.as_slice(), &p.shape, act, (c, h, w));
    plan.run(src.view(), dst, buf);
}

/// One batch item through the lowering: quantize, unroll, integer-GEMM,
/// subtract `z·Σw`, dequantize through `out`. Also the baseline of the
/// direct front, for a CPU without AVX2: it computes the same bits (and has
/// no use for the front's pair planes and tap plan, `_buf`).
pub(super) fn qconv_item_lowered(plan: &QPlan, x: View, mut out: Sink, _buf: &mut ConvBuffers) {
    let ((c, h, w), shape, weights) = (plan.dims, plan.shape, plan.weights);
    let (_, oh, ow) = plan.out_dims;
    let plane = oh * ow;
    let (mut qx, mut cols) = (Vec::new(), Vec::new());
    quantize_into(&x.plain(), plan.act, &mut qx);
    let (k, z) = (shape.kernel, plan.act.zero_point);
    im2col_i8(&qx, c, h, w, k, k, shape.stride, shape.pad, z, &mut cols);
    let mut acc = vec![0; weights.rows * plane];
    gemm_i8_i32(
        &weights.data,
        &cols,
        weights.rows,
        weights.cols,
        plane,
        &mut acc,
    );
    let relu = out.relu;
    for (i, acc_row) in acc.chunks_exact(ow).enumerate() {
        let (ch, y) = (i / oh, i % oh);
        let corr = i32::from(z) * weights.row_sums[ch];
        for (d, &a) in out.cells(ch, y, 0, ow).iter_mut().zip(acc_row) {
            *d = plan.store(ch, a - corr, relu);
        }
    }
}

/// A convolution's int8 weights, their pair order and their pair words.
type Packed<'a> = (&'a QuantizedWeights, &'a [usize], &'a [i32]);

/// One int8 convolution call, shared by its batch items: borrowed operands
/// only, so making one allocates nothing.
pub(super) struct QPlan<'a> {
    /// Input `(c, h, w)`, haloed by `shape.pad` in the direct kernel.
    dims: (usize, usize, usize),
    shape: &'a Conv2dShape,
    act: QuantParams,
    weights: &'a QuantizedWeights,
    /// The channels in pair order (see [`PackedQWeights`]).
    order: &'a [usize],
    /// The [`pack_pairs`] words.
    words: &'a [i32],
    /// Output `(oc, oh, ow)`.
    out_dims: (usize, usize, usize),
    bias: &'a [f32],
}

impl<'a> QPlan<'a> {
    fn new(
        (weights, order, words): Packed<'a>,
        bias: &'a [f32],
        shape: &'a Conv2dShape,
        act: QuantParams,
        (c, h, w): (usize, usize, usize),
    ) -> Self {
        let (oh, ow) = shape.output_hw(h, w);
        Self {
            dims: (c, h, w),
            shape,
            act,
            weights,
            order,
            words,
            out_dims: (shape.out_channels, oh, ow),
            bias,
        }
    }

    /// One image through the direct front, or through the lowering for
    /// the geometries `is_direct` excludes.
    fn run(&self, x: View, out: Sink, buf: &mut ConvBuffers) {
        match self.shape.is_direct() {
            true => dispatch::qconv_item(self, x, out, buf),
            false => qconv_item_lowered(self, x, out, buf),
        }
    }

    /// The store epilogue: `acc = Σ w·(q − z)` dequantised, `acc·(s_w·s_x)
    /// + bias`, then `ops::relu`'s expression when `relu`.
    #[inline(always)]
    fn store(&self, ch: usize, acc: i32, relu: bool) -> f32 {
        let deq = self.weights.scales[ch] * self.act.scale;
        let v = acc as f32 * deq + self.bias[ch];
        match relu {
            true => v.max(0.0),
            false => v,
        }
    }
}

/// The halo pass: quantises the planes of `x` straight into `buf.words` as
/// channel-pair words of **centred** codes `q − z` (see the module docs),
/// channels paired in `order`, with `halo` cells of `0` (real 0) on every
/// side and an odd channel count's partner half at `0`, plus `NR` words of
/// slack so the last tile's lane load stays in bounds (lanes past a row's
/// end are computed and dropped). Marks in `buf.zero`, per pair and padded
/// row, whether every word it wrote there is `0`. Returns the row stride.
#[inline(always)]
fn quantize_pairs(
    x: View,
    halo: usize,
    act: QuantParams,
    order: &[usize],
    buf: &mut ConvBuffers,
) -> usize {
    let (_, h, w) = x.dims();
    let (inv, z) = (1.0 / act.scale, f32::from(act.zero_point));
    let centred = |v| centred_bits(v, inv, z);
    let (pairs, hp, width) = (order.len().div_ceil(2), h + 2 * halo, w + 2 * halo);
    buf.words.clear();
    buf.words.resize(pairs * hp * width + NR, 0);
    buf.zero.clear();
    buf.zero.resize(pairs * hp, true);
    for (p, chs) in order.chunks(2).enumerate() {
        for y in 0..h {
            let dst = &mut buf.words[(p * hp + y + halo) * width + halo..][..w];
            let lo = x.row(chs[0], y);
            let mut or = 0;
            if let [_, ch] = *chs {
                for (d, (&a, &b)) in dst.iter_mut().zip(lo.iter().zip(x.row(ch, y))) {
                    *d = pair(centred(a), centred(b));
                    or |= *d;
                }
            } else {
                for (d, &a) in dst.iter_mut().zip(lo) {
                    *d = pair(centred(a), 0);
                    or |= *d;
                }
            }
            buf.zero[p * hp + y + halo] = or == 0;
        }
    }
    width
}

#[cfg(target_arch = "x86_64")]
pub(super) use avx2::qconv_item_avx2;

/// The direct int8 kernel, on safe value intrinsics only.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{quantize_pairs, QPlan, NR, QR};
    use crate::ops::conv2d::{ConvBuffers, SPARSE_WORK};
    use crate::ops::planes::{Sink, View};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_extract_epi32, _mm256_madd_epi16, _mm256_set1_epi32,
        _mm256_setr_epi32, _mm256_setzero_si256,
    };

    /// One image: the halo pass and the tap plan into `buf`, then output
    /// channels `QR` at a time.
    #[target_feature(enable = "avx2")]
    pub(in crate::ops) fn qconv_item_avx2(
        plan: &QPlan,
        x: View,
        mut out: Sink,
        buf: &mut ConvBuffers,
    ) {
        let (k, pad) = (plan.shape.kernel, plan.shape.pad);
        let width = quantize_pairs(x, pad, plan.act, plan.order, buf);
        let (oc, _, ow) = plan.out_dims;
        let pairs = plan.order.len().div_ceil(2);
        let look = oc * k * k * ow >= SPARSE_WORK;
        buf.plan((pairs, plan.dims.1, width), k, pad, look);
        let taps = buf.offs.len();
        for ch0 in (0..oc).step_by(QR) {
            let w = &plan.words[ch0 * taps..][..taps * QR];
            block(plan, (buf, width), w, ch0, &mut out);
        }
    }

    /// Runs [`tile`] over the output planes of the `QR` channels from `ch0`
    /// on, over each row's live taps, reading the pair planes of `buf` (row
    /// stride `width`); channels past the last are zero words, computed and
    /// dropped.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn block(
        plan: &QPlan,
        (buf, width): (&ConvBuffers, usize),
        w: &[i32],
        ch0: usize,
        out: &mut Sink,
    ) {
        let (oc, oh, ow) = plan.out_dims;
        let (relu, live) = (out.relu, buf.live());
        for y in 0..oh {
            let live = live.row(y);
            for x0 in (0..ow).step_by(NR) {
                let acc = tile(&buf.words, y * width + x0, &buf.offs, w, live);
                let n = NR.min(ow - x0);
                for (ch, acc) in (ch0..oc).zip(acc) {
                    let store = |(d, a): (&mut f32, i32)| *d = plan.store(ch, a, relu);
                    let dst = out.cells(ch, y, x0, n);
                    // A whole tile's row vectorises into one store; a
                    // row's tail goes lane by lane.
                    match <&mut [f32; NR]>::try_from(&mut *dst) {
                        Ok(row) => row.iter_mut().zip(lanes_of(acc)).for_each(store),
                        Err(_) => dst.iter_mut().zip(lanes_of(acc)).for_each(store),
                    }
                }
            }
        }
    }

    /// One `QR × NR` register tile over the taps of the `live` spans: per
    /// tap, one lane load of `NR` pair words, then per row a broadcast
    /// weight word, `vpmaddwd`, `vpaddd`. The taps of a span run last to
    /// first (integer sums, so any order gives the same bits): a loop
    /// counted down to zero needs no bound register, and with one LLVM kept
    /// the bound on the stack, one more load per tap.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn tile(
        src: &[i32],
        base: usize,
        offs: &[usize],
        w: &[i32],
        live: &[[usize; 2]],
    ) -> [__m256i; QR] {
        let mut acc = [_mm256_setzero_si256(); QR];
        let src = &src[base..];
        for &[start, end] in live {
            let w = &w[start * QR..end * QR];
            for (&off, w) in offs[start..end].iter().zip(w.chunks_exact(QR)).rev() {
                let mut x = [0; NR];
                x.copy_from_slice(&src[off..][..NR]);
                let x = _mm256_setr_epi32(x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]);
                for (a, &w) in acc.iter_mut().zip(w) {
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(x, _mm256_set1_epi32(w)));
                }
            }
        }
        acc
    }

    /// The lanes of `v`, lowest first.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn lanes_of(v: __m256i) -> [i32; NR] {
        [
            _mm256_extract_epi32::<0>(v),
            _mm256_extract_epi32::<1>(v),
            _mm256_extract_epi32::<2>(v),
            _mm256_extract_epi32::<3>(v),
            _mm256_extract_epi32::<4>(v),
            _mm256_extract_epi32::<5>(v),
            _mm256_extract_epi32::<6>(v),
            _mm256_extract_epi32::<7>(v),
        ]
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

    /// The expression every quantiser used before the mantissa codes: the
    /// oracle it must equal bit for bit.
    fn saturating_cast_code(v: f32, qp: QuantParams) -> i8 {
        let inv = 1.0 / qp.scale;
        let r = (((v * inv).clamp(-4_194_304.0, 4_194_304.0) + 12_582_912.0) - 12_582_912.0)
            + f32::from(qp.zero_point);
        r.clamp(-128.0, 127.0) as i8
    }

    /// The halves of a channel-pair word.
    fn halves(word: i32) -> (i16, i16) {
        (word as i16, (word >> 16) as i16)
    }

    #[test]
    fn every_quantiser_equals_the_saturating_cast_bit_for_bit() {
        let mut values = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..1 << 20 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            values.push(f32::from_bits((state >> 32) as u32));
        }
        for bits in [
            0x7FC0_0000,
            0xFFC0_0000,
            0x7F80_0001,
            0xFF80_0001,
            0x7FBF_FFFF,
            0xFFFF_FFFF,
            0x7FC0_1234,
        ] {
            values.push(f32::from_bits(bits));
        }
        values.extend([
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
        ]);
        values.extend([f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1e-45, -1e-45]);
        for scale in [1.0, 0.5, 0.25, 1.0 / 255.0, 0.0137, 3.5, 4.2 / 255.0] {
            for zero_point in [-128, 0, 127] {
                let qp = QuantParams { scale, zero_point };
                let mut xs = values.clone();
                for k in -400..400 {
                    // Dense steps, every `k + 0.5` tie, and both sides of
                    // each code boundary (±128 / 127 among them).
                    let k = k as f32;
                    for f in [0.0, 0.25, 0.5, 0.75] {
                        xs.push((k + f) * scale);
                    }
                    for d in [-1, 1] {
                        xs.push(f32::from_bits(
                            ((k + 0.5) * scale).to_bits().wrapping_add_signed(d),
                        ));
                    }
                }
                for code in [-129.0, -128.0, 127.0, 128.0] {
                    let at = (code - f32::from(zero_point)) * scale;
                    xs.extend([at, at + 0.5 * scale, at - 0.5 * scale]);
                }
                let want: Vec<i8> = xs.iter().map(|&v| saturating_cast_code(v, qp)).collect();
                let case = format!("scale {scale}, zero point {zero_point}");

                let mut got = Vec::new();
                quantize_into(&xs, qp, &mut got);
                for (i, &v) in xs.iter().enumerate() {
                    assert_eq!(qp.quantize(v), want[i], "quantize({v:e}), {case}");
                    assert_eq!(got[i], want[i], "quantize_into at {v:e}, {case}");
                }

                // The halo pass: both halves of every word as centred codes
                // `q − z`, in both pair orders, an odd channel count's
                // partner half, the halo itself and the zero-row marks —
                // read from a plain image and from the same image in
                // haloed planes.
                let n = xs.len() / 2;
                let (w, h) = (n.div_ceil(4), 4);
                let mut img = xs[..2 * n].to_vec();
                img.resize(2 * w * h, 0.0);
                // Row 1 of both channels zero: their pair row is marked.
                img[w..2 * w].fill(0.0);
                img[w * h + w..w * h + 2 * w].fill(0.0);
                let (mut planes, mut swapped) = (ConvBuffers::default(), ConvBuffers::default());
                let (mut odd, mut haloed) = (ConvBuffers::default(), ConvBuffers::default());
                let x = View::of_slice(&img, (2, h, w));
                let width = quantize_pairs(x, 1, qp, &[0, 1], &mut planes);
                quantize_pairs(x, 1, qp, &[1, 0], &mut swapped);
                quantize_pairs(
                    View::of_slice(&img[..w * h], (1, h, w)),
                    1,
                    qp,
                    &[0],
                    &mut odd,
                );
                let src = Planes::haloed(&img, (2, h, w), 1);
                quantize_pairs(src.view(), 1, qp, &[0, 1], &mut haloed);
                assert_eq!(
                    haloed.words, planes.words,
                    "pair words from haloed planes, {case}"
                );
                let centred = |v| i16::from(saturating_cast_code(v, qp)) - i16::from(zero_point);
                for y in 0..h + 2 {
                    for x in 0..w + 2 {
                        let at = y * width + x;
                        let inside = (1..=h).contains(&y) && (1..=w).contains(&x);
                        let i = (y.max(1) - 1) * w + x.max(1) - 1;
                        let (lo, hi) = match inside {
                            true => (centred(img[i]), centred(img[w * h + i])),
                            false => (0, 0),
                        };
                        let v = img[i];
                        let case = format!("at {v:e}, {case}");
                        assert_eq!(halves(planes.words[at]), (lo, hi), "pair word {case}");
                        assert_eq!(halves(swapped.words[at]), (hi, lo), "swapped word {case}");
                        assert_eq!(halves(odd.words[at]), (lo, 0), "odd word {case}");
                    }
                }
                for b in [&planes, &swapped, &odd, &haloed] {
                    let rows = b.words.chunks_exact(width);
                    let want: Vec<bool> = rows.map(|r| r.iter().all(|&v| v == 0)).collect();
                    assert_eq!(b.zero, want[..h + 2], "zero-row marks, {case}");
                }
                assert_eq!(planes.zero[..3], [true, false, true], "{case}");
            }
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
    #[should_panic(expected = "stride must be positive")]
    fn im2col_i8_names_a_zero_stride() {
        im2col_i8(&[0; 16], 1, 4, 4, 3, 3, 0, 0, 0, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "kernel larger than padded input")]
    fn im2col_i8_names_a_kernel_larger_than_the_padded_input() {
        im2col_i8(&[0; 16], 1, 4, 4, 5, 5, 1, 0, 0, &mut Vec::new());
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

    #[test]
    #[should_panic(expected = "too deep for exact i32 accumulation")]
    fn packing_refuses_a_fan_in_past_the_exactness_bound() {
        // 2·K·127·128 < 2³¹ holds up to K = 66 052; 7 340 · 9 = 66 060.
        let shape = Conv2dShape {
            in_channels: 7_340,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let weights = quantize_weights(&Tensor::zeros(&[1, 7_340 * 9]));
        PackedQWeights::new(weights, shape, &[]);
    }

    /// `y` of the one image `x` (`[1, c, side, side]`) through the
    /// dispatched front and through the lowering, channels paired in
    /// `order`, on the same plan; and whether the front skipped any tap.
    fn front_and_lowering(
        x: &Tensor,
        (weights, bias): (&QuantizedWeights, &Tensor),
        k: usize,
        act: QuantParams,
        order: &[usize],
    ) -> (Vec<f32>, Vec<f32>, bool) {
        let (_, c, side, _) = x.nchw();
        let oc = weights.rows;
        let shape = Conv2dShape {
            in_channels: c,
            out_channels: oc,
            kernel: k,
            stride: 1,
            pad: k / 2,
        };
        let (words, dims) = (pack_words(weights, &shape, order), (c, side, side));
        let plan = QPlan::new((weights, order, &words), bias.as_slice(), &shape, act, dims);
        let (oh, ow) = shape.output_hw(side, side);
        let (mut y, mut y0) = (vec![0.0; oc * oh * ow], vec![0.0; oc * oh * ow]);
        let (x, out_dims) = (View::of_slice(x.as_slice(), dims), (oc, oh, ow));
        let mut buf = ConvBuffers::default();
        dispatch::qconv_item(&plan, x, Sink::plain(&mut y, out_dims), &mut buf);
        let skipped = !buf.rows.is_empty();
        qconv_item_lowered(&plan, x, Sink::plain(&mut y0, out_dims), &mut buf);
        (y, y0, skipped)
    }

    #[track_caller]
    fn assert_same_bits(got: &[f32], want: &[f32], case: &str) {
        let isa = dispatch::isa();
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "y[{j}]: {isa} {g:e}, lowering {w:e} ({case})"
            );
        }
    }

    /// The dispatched front equals its baseline, the lowering, bit for bit
    /// on direct geometries whose channel counts straddle the pair rule and
    /// the 8-row block. On a CPU without AVX2 the front *is* the lowering
    /// and this compares it with itself (`isa()` in the message says which
    /// ran).
    #[test]
    fn dispatched_int8_kernel_equals_the_lowering_bit_for_bit() {
        let sites = [
            (1, 1, 1, 3),
            (3, 8, 3, 16),
            (5, 13, 3, 9),
            (9, 20, 2, 7),
            (16, 3, 1, 16),
        ];
        for (i, &(c, oc, k, side)) in sites.iter().enumerate() {
            let seed = 500 + 10 * i as u64;
            let x = uniform(&[1, c, side, side], -1.0, 1.0, seed).map(|v| v.max(0.0));
            let weights = quantize_weights(&uniform(&[oc, c * k * k], -0.5, 0.5, seed + 1));
            let bias = uniform(&[oc], -0.5, 0.5, seed + 2);
            let act = QuantParams::from_range(0.0, 0.8);
            let order: Vec<usize> = (0..c).collect();
            let (y, y0, _) = front_and_lowering(&x, (&weights, &bias), k, act, &order);
            let case = format!("site {i}: {c} -> {oc}, {k}x{k}, {side}²");
            assert_same_bits(&y, &y0, &case);
        }
    }

    /// The front skips the taps whose pair row is all zero words and stays
    /// the lowering bit for bit: odd and even channel counts, zero points
    /// at both ends of the i8 range and in the middle (centred codes up to
    /// ±255), identity, reversed and shuffled pair orders, 3×3 and 1×1
    /// kernels, on dead channels and zero rows, rows whose one non-zero
    /// cell sits at either end, a pair with one dead half, saturated codes,
    /// NaN beside zero rows and an all-zero input (skipping), and an input
    /// whose only zeros are the halo (dense). Each case asserts whether the
    /// skip was taken (never on a CPU without AVX2, whose front is the
    /// lowering).
    #[test]
    fn skipped_zero_pairs_equal_the_lowering_bit_for_bit() {
        let front = dispatch::isa() != "baseline";
        // Every third row of every channel zero, `dead` channels zero.
        let zero_rows = |x: &mut [f32], side: usize, dead: &[usize]| {
            for (i, v) in x.iter_mut().enumerate() {
                let (ch, y) = (i / (side * side), i / side % side);
                if dead.contains(&ch) || y % 3 == 0 {
                    *v = 0.0;
                }
            }
        };
        let cases = [
            ("dead channels and zero rows", true),
            ("one cell at either end of a row", true),
            ("a pair with one dead half", true),
            ("saturated codes", true),
            ("NaN beside zero rows", true),
            ("all zero", true),
            ("only the halo zero", false),
        ];
        // Scale, zero point, and the sign real values take.
        let grids = [
            (1.0 / 255.0, -128, 1.0),
            (2.0 / 255.0, 0, 1.0),
            (1.0 / 255.0, 127, -1.0),
        ];
        // `(c, oc, k, side)`: past `SPARSE_WORK`, rows ending in a short tile.
        for (c, oc, k, side) in [(5, 9, 3, 61), (6, 9, 3, 61), (5, 72, 1, 61)] {
            let shuffled = [4, 1, 5, 0, 2, 3].into_iter().filter(|&ch| ch < c);
            let orders: [Vec<usize>; 3] =
                [(0..c).collect(), (0..c).rev().collect(), shuffled.collect()];
            let at = |ch: usize, y: usize, x: usize| (ch * side + y) * side + x;
            for (i, &(name, skips)) in cases.iter().enumerate() {
                for &(scale, zero_point, sign) in &grids {
                    let seed = 6000 + 10 * i as u64 + c as u64;
                    let x = uniform(&[1, c, side, side], -1.0, 1.0, seed).map(|v| v.max(0.0));
                    let mut x = x.map(|v| sign * v);
                    let v = x.as_mut_slice();
                    match i {
                        0 => zero_rows(v, side, &[1, 3]),
                        1 => {
                            v.fill(0.0);
                            v[at(0, 2, 0)] = 0.7 * sign;
                            v[at(2, side - 1, side - 1)] = 0.6 * sign;
                            v[at(c - 1, side / 2, side - 1)] = 0.9 * sign;
                            v[at(c - 1, side / 2 + 1, 0)] = 0.3 * sign;
                        }
                        2 => zero_rows(v, side, &[1]),
                        3 => {
                            zero_rows(v, side, &[]);
                            v.iter_mut().for_each(|v| *v *= 1e3);
                        }
                        4 => {
                            zero_rows(v, side, &[3]);
                            v[at(0, 1, 3)] = f32::NAN;
                            v[at(2, side - 2, side - 1)] = f32::NAN;
                        }
                        5 => v.fill(0.0),
                        _ => v.iter_mut().for_each(|v| *v = sign * (0.25 + v.abs())),
                    }
                    let w = uniform(&[oc, c * k * k], -0.5, 0.5, seed + 1);
                    let weights = quantize_weights(&w);
                    let bias = uniform(&[oc], -0.5, 0.5, seed + 2);
                    let act = QuantParams { scale, zero_point };
                    for order in &orders {
                        let ops = (&weights, &bias);
                        let (y, y0, skipped) = front_and_lowering(&x, ops, k, act, order);
                        let case = format!(
                            "{name}, z {zero_point}, order {order:?}, {c} -> {oc}, {k}x{k}"
                        );
                        assert_eq!(skipped, skips && front, "skipped taps ({case})");
                        assert_same_bits(&y, &y0, &case);
                    }
                }
            }
        }
    }

    /// `qconv2d_into` from haloed planes into a ReLU sink equals `relu` of
    /// `qconv2d_packed`, bit for bit, and stores nothing outside its
    /// channels' interior.
    #[test]
    fn int8_store_into_haloed_planes_equals_relu_of_qconv2d() {
        let (c, oc, side) = (5, 6, 9);
        let shape = Conv2dShape {
            in_channels: c,
            out_channels: oc,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let x = uniform(&[1, c, side, side], -1.0, 1.0, 77);
        let weights = quantize_weights(&uniform(&[oc, c * 9], -0.5, 0.5, 78));
        let packed = PackedQWeights::new(weights, shape, &[]);
        let bias = uniform(&[oc], -0.5, 0.5, 79);
        let act = QuantParams::from_range(-1.0, 1.0);
        let want = crate::ops::relu(&qconv2d_packed(&x, &packed, &bias, act));
        let src = Planes::haloed(x.as_slice(), (c, side, side), 1);
        let mut dst = Planes::new((oc + 2, side, side), 1);
        let sink = Sink::planes(&mut dst, 1, oc).through_relu();
        qconv2d_into(&src, &packed, &bias, act, sink, &mut ConvBuffers::default());
        let got = dst.interior();
        let plane = side * side;
        assert!(got[..plane]
            .iter()
            .chain(&got[(oc + 1) * plane..])
            .all(|v| *v == 0.0));
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got[plane..(oc + 1) * plane]), bits(want.as_slice()));
        let cells: f32 = dst.data().iter().map(|v| v.abs()).sum();
        let interior: f32 = got.iter().map(|v| v.abs()).sum();
        assert_eq!(cells, interior, "a store landed in the border or the slack");
    }
}
