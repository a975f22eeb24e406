//! 2-D convolution, forward and backward, as one direct register-tiled
//! kernel family: no patch matrix, no `dcols`, bias fused into the store.
//!
//! The kernels read a zero-haloed copy of the image ([`Planes`]) and keep an
//! `MR × NR` tile of outputs in registers. They are **bit-identical** (for
//! finite inputs) to the reference lowering `im2col` → `matmul*` →
//! `col2im`, which stays in the tree as the test oracle. One source, three
//! instantiations ([`isa`]): on an x86-64 CPU with AVX2 the same loop nests
//! run with a `2·MR × NR` tile on `ymm` registers, and with AVX-512F they
//! run `2·MR × 16` on `zmm` wherever 16 lanes fill — forward and `dx` over
//! planes at least 16 wide, `dW` over at least 16 output channels — more
//! lanes and rows per instruction, the same chain per element, the same
//! bits.
//!
//! [`conv2d_into`] is the forward pass an inference walk runs: it reads a
//! [`Planes`] the previous layer stored into and stores through a [`Sink`]
//! — straight into the next convolution's haloed input, through ReLU.
//!
//! # Determinism contract
//! Every output element is one sequential `f32` chain over its reduction
//! index, ascending, starting from `+0.0`. Vector lanes are *different
//! output elements*, never partial sums of one; two-level sums keep both
//! levels; no `mul_add` (Rust never contracts `a * b + c` on its own).
//! * forward: `y[oc][oy][ox] = (Σ_{(ic,ky,kx)↑} W·x̃) + bias` — lanes are
//!   `NR` consecutive `ox`, rows `MR` output channels.
//! * `dW[oc][row] = Σ_{pos↑} gy[oc][pos]·x̃[row][pos]`, per image, then
//!   summed over the batch in order — lanes are `NR` output channels
//!   (`gy` transposed), rows `MR` patch rows read as scalars.
//! * `dx[c][py][px] = Σ_{(ky,kx)↑} (Σ_{oc↑} W·g̃y[oc][py+pad−ky][px+pad−kx])`,
//!   the gather over a haloed `grad_out`; the inner sum is finished before
//!   it joins the running total (`matmul_at_b`, then `col2im`) — lanes are
//!   `NR` consecutive `px`, rows `MR` input channels.
//!
//! # Skipped zeros
//! The reference skips zero weights and multiplies the padding; the kernels
//! multiply zero weights. The forward kernel instead skips every tap whose
//! input cells are all `±0`: per call, [`ConvBuffers`] marks each
//! `(input channel, padded row)` that holds only `±0`, and each output row
//! multiplies the ascending spans of the taps that read an unmarked row
//! ([`Live`]), shared by every channel block and tile of that row. The
//! bits agree: a chain starts at `+0.0` and never holds `−0.0`; a skipped
//! product `w · (±0)` is `±0` for a finite `w`, and adding it changes no
//! bit; the taps that remain keep their order. `∞ · 0` is NaN, so a call
//! with any non-finite weight runs every tap, as do calls too small for
//! the marks to pay (`SPARSE_WORK`), inputs with few zero rows, `dx` and
//! `dW`. The one visible difference from the reference is a fix:
//! `0 × NaN/∞` is NaN now, so a non-finite activation no longer hides
//! behind a zero weight.
//!
//! Strides other than 1 and `pad > kernel − 1` (no model uses either) take
//! the reference lowering instead; `Conv2dShape::is_direct` is the one
//! predicate that decides.

use crate::ops::im2col::{col2im, im2col};
use crate::ops::matmul::{matmul, matmul_a_bt, matmul_at_b};
use crate::ops::planes::{Planes, Sink, View};
use crate::tensor::Tensor;

/// Rows of the baseline register tile (output channels; input channels or
/// patch rows in the backward kernels): eight `xmm` accumulators. The AVX2
/// instantiation runs `2 · MR` rows, eight `ymm` accumulators.
pub(super) const MR: usize = 4;
/// Lanes of a register tile: consecutive, independent output elements.
pub(super) const NR: usize = 8;
/// Lanes of the AVX-512 tiles.
pub(super) const NR_WIDE: usize = 16;

/// Static geometry of a convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dShape {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel height and width (square kernels use the same value).
    pub kernel: usize,
    /// Stride in both axes.
    pub stride: usize,
    /// Symmetric zero padding ("same" for 3×3 stride-1 uses 1).
    pub pad: usize,
}

impl Conv2dShape {
    /// Output spatial size for an input of `h × w`.
    ///
    /// # Panics
    /// Panics on a zero stride, a zero kernel, or a kernel larger than the
    /// padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            Self::extent(h, self.kernel, self.stride, self.pad),
            Self::extent(w, self.kernel, self.stride, self.pad),
        )
    }

    /// Output extent along one axis: the one place convolution geometry is
    /// validated, for `conv2d`, `conv2d_backward`, `qconv2d`, `im2col`,
    /// `im2col_i8` and `col2im`. A geometry with no output is a mis-built architecture
    /// (`UNetConfig` validates shapes up front); it is named here instead
    /// of wrapping into a huge extent or dividing by zero.
    pub(crate) fn extent(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
        assert!(stride > 0, "stride must be positive");
        assert!(kernel > 0, "kernel must be at least 1");
        assert!(input + 2 * pad >= kernel, "kernel larger than padded input");
        (input + 2 * pad - kernel) / stride + 1
    }

    /// The one predicate that selects the kernel: stride 1 with
    /// `pad ≤ kernel − 1` (so the `dx` halo `kernel − 1 − pad` exists) runs
    /// direct; anything else is lowered through `im2col`.
    pub(crate) fn is_direct(&self) -> bool {
        self.stride == 1 && self.pad < self.kernel
    }
}

/// `N` lanes of `s` starting at `at` (no `unwrap`, no early exit: either
/// keeps the tap loop from vectorising).
#[inline(always)]
fn lanes<const N: usize>(s: &[f32], at: usize) -> [f32; N] {
    let mut out = [0.0; N];
    out.copy_from_slice(&s[at..at + N]);
    out
}

/// The least `out_c · k² · ow` (the MACs one zero input row saves across
/// the `k` output rows it feeds) at which a forward call looks for zero
/// rows: below it, scanning and marking cost more than the taps they could
/// skip.
const SPARSE_WORK: usize = 4096;

/// Scratch a convolution call packs into and an int8 call quantises into:
/// kept by a walk and reused, so a call allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct ConvBuffers {
    /// The [`pack`]ed weights.
    pub(super) packed: Vec<f32>,
    /// The [`patch_offsets`].
    pub(super) offs: Vec<usize>,
    /// The int8 kernel's channel-pair planes.
    pub(super) words: Vec<i32>,
    /// Per input channel, per padded row: every cell is `±0`.
    zero: Vec<bool>,
    /// The [`Live`] taps of the last forward call.
    spans: Vec<[usize; 2]>,
    rows: Vec<usize>,
}

impl ConvBuffers {
    /// Packs `weight` and the taps for a forward call on `src`, and, when
    /// `look`, marks the taps of each output row that read a non-zero cell
    /// ([`Live`]): a `(channel, row)` of `src` that holds only `±0` adds
    /// only `±0` terms. Dense — every tap of every row — when `weight`
    /// holds a non-finite value (`∞ · 0` is NaN, which the skip would
    /// lose) or fewer than a quarter of the interior rows are zero (the
    /// skip would save less than its bookkeeping).
    fn prepare(&mut self, src: &Planes, weight: &Tensor, shape: &Conv2dShape, look: bool) {
        let (c, h, _) = src.dims();
        let (k, halo) = (shape.kernel, src.halo());
        let (taps, hp) = (c * k * k, h + 2 * halo);
        self.offs.clear();
        self.offs.extend(patch_offsets(c, k, hp, src.width()));
        let w = weight.as_slice();
        pack(&mut self.packed, w, taps);
        self.spans.clear();
        self.rows.clear();
        self.spans.push([0, taps]);
        // Folded, not `all`: an early exit keeps the check scalar.
        if !look || !w.iter().fold(true, |ok, v| ok & v.is_finite()) {
            return;
        }
        // Whole padded rows, straight from the planes: the border is zero.
        let rows = src.data()[..c * src.plane()].chunks_exact(src.width());
        self.zero.clear();
        self.zero.extend(rows.map(is_zero));
        let interior = self.zero.chunks_exact(hp).map(|z| &z[halo..hp - halo]);
        let zeros: usize = interior.map(|z| z.iter().filter(|z| **z).count()).sum();
        if 4 * zeros < c * h {
            return;
        }
        self.spans.clear();
        for y in 0..hp + 1 - k {
            self.rows.push(self.spans.len());
            // Where this row's last span ends (no tap starts at `MAX`).
            let mut end = usize::MAX;
            for ch in 0..c {
                for (ky, &zero) in self.zero[ch * hp + y..][..k].iter().enumerate() {
                    let start = (ch * k + ky) * k;
                    if zero {
                        continue;
                    }
                    match self.spans.last_mut() {
                        Some(span) if end == start => span[1] = start + k,
                        _ => self.spans.push([start, start + k]),
                    }
                    end = start + k;
                }
            }
        }
        self.rows.push(self.spans.len());
    }

    /// The taps [`ConvBuffers::prepare`] marked.
    fn live(&self) -> Live<'_> {
        Live {
            spans: &self.spans,
            rows: &self.rows,
        }
    }
}

/// Whether every cell of `row` is `±0`: OR-ed (shifted past the sign)
/// sixteen at a time, so the scan vectorises and stops at the first
/// non-zero block.
fn is_zero(row: &[f32]) -> bool {
    let or = |cells: &[f32]| cells.iter().fold(0, |a, v| a | v.to_bits() << 1);
    let (blocks, rest) = row.as_chunks::<16>();
    blocks.iter().all(|b| or(b) == 0) && or(rest) == 0
}

/// The taps of a [`tiled_planes_body`] call each output row multiplies:
/// ascending `[start, end)` spans of a group's taps, the same for every
/// channel block and every tile of the row.
#[derive(Clone, Copy)]
pub(super) struct Live<'a> {
    spans: &'a [[usize; 2]],
    /// Row `y`'s spans are `spans[rows[y]..rows[y + 1]]`; with no `rows`,
    /// every row takes all of `spans`.
    rows: &'a [usize],
}

impl<'a> Live<'a> {
    /// `spans` for every output row.
    pub(super) fn all(spans: &'a [[usize; 2]]) -> Self {
        Self { spans, rows: &[] }
    }

    #[inline(always)]
    fn row(&self, y: usize) -> &'a [[usize; 2]] {
        match self.rows {
            [] => self.spans,
            rows => &self.spans[rows[y]..rows[y + 1]],
        }
    }
}

/// What [`conv2d_backward_into`] derives from one convolution's weights and
/// geometry (the `dx` gather's packed filter bank and taps, the `dW` taps),
/// made by the first call for the images after it, until
/// [`GradBuffers::weights_moved`]. And one image's `dW` and the scratch it
/// is computed in, kept across calls.
#[derive(Clone, Debug, Default)]
pub struct GradBuffers {
    packed: Vec<f32>,
    dx_offs: Vec<usize>,
    x_offs: Vec<usize>,
    dw: Vec<f32>,
    /// `gy` transposed, channels padded to whole lanes with zeros.
    gt: Vec<f32>,
    /// `dW` transposed.
    dwt: Vec<f32>,
}

impl GradBuffers {
    /// The weights changed: the next call derives what it packs again.
    pub fn weights_moved(&mut self) {
        self.packed.clear();
    }
}

/// Repacks the row-major `rows × len` coefficients `w` into `out` as
/// `[rows / MR][len][MR]`, zero rows filling a short last block, so a tile
/// reads its `MR` scalars adjacent. Block by block, row by row: no
/// division per coefficient.
fn pack(out: &mut Vec<f32>, w: &[f32], len: usize) {
    out.clear();
    out.resize((w.len() / len).div_ceil(MR) * len * MR, 0.0);
    for (block, w) in out.chunks_exact_mut(len * MR).zip(w.chunks(len * MR)) {
        for (r, row) in w.chunks_exact(len).enumerate() {
            block
                .chunks_exact_mut(MR)
                .zip(row)
                .for_each(|(d, &v)| d[r] = v);
        }
    }
}

/// Offset of every patch row `(ic, ky, kx)` from a position's top-left
/// cell in a haloed input whose planes are `hp` rows of `width`.
pub(super) fn patch_offsets(
    c: usize,
    k: usize,
    hp: usize,
    width: usize,
) -> impl Iterator<Item = usize> {
    (0..c * k * k).map(move |row| (row / (k * k) * hp + row / k % k) * width + row % k)
}

/// One `R × L` register tile, `R` being `MR` or `2 · MR` rows and `L` the
/// lanes (`NR`, or 16 on AVX-512); `w` is the `R / MR` consecutive
/// [`pack`]ed blocks of its rows. `offs` and each block hold `groups` equal
/// runs of taps: each run's chain `Σ w[j][r] · src[base + offs[j] + l]`,
/// `j` over the `live` spans of the run, is finished before it joins the
/// running total. *Named* accumulators (the
/// second four compile out at `R = MR`, where `w1` is `w0` again) and one
/// lane loop: the nested `[[f32; L]; R]` form stops vectorising at
/// `codegen-units = 1`. The group total adds them in place, one row after
/// the other: moving them into an array first kept the 16-lane accumulators
/// in memory, and one lane loop over all rows sent the 4-row tile's
/// accumulators to the stack.
#[inline(always)]
fn tile<const R: usize, const L: usize>(
    src: &[f32],
    base: usize,
    offs: &[usize],
    w: &[f32],
    groups: usize,
    live: &[[usize; 2]],
) -> [[f32; L]; R] {
    let group = offs.len() / groups;
    let (w0, w1) = (w, &w[(R / MR - 1) * offs.len() * MR..]);
    let mut total = [[0f32; L]; R];
    for g in 0..groups {
        let offs = &offs[g * group..][..group];
        let (w0, w1) = (&w0[g * group * MR..], &w1[g * group * MR..]);
        let [mut a0, mut a1, mut a2, mut a3, mut a4, mut a5, mut a6, mut a7] = [[0f32; L]; 2 * MR];
        // The chains run on across the spans: a skipped tap adds nothing.
        for &[start, end] in live {
            let (w0, w1) = (&w0[start * MR..end * MR], &w1[start * MR..end * MR]);
            let rows = w0.chunks_exact(MR).zip(w1.chunks_exact(MR));
            for (&off, (w0, w1)) in offs[start..end].iter().zip(rows) {
                let b: [f32; L] = lanes(src, base + off);
                for l in 0..L {
                    a0[l] += w0[0] * b[l];
                    a1[l] += w0[1] * b[l];
                    a2[l] += w0[2] * b[l];
                    a3[l] += w0[3] * b[l];
                    if R > MR {
                        a4[l] += w1[0] * b[l];
                        a5[l] += w1[1] * b[l];
                        a6[l] += w1[2] * b[l];
                        a7[l] += w1[3] * b[l];
                    }
                }
            }
        }
        let add = |t: &mut [f32; L], a: &[f32; L]| {
            for l in 0..L {
                t[l] += a[l];
            }
        };
        add(&mut total[0], &a0);
        add(&mut total[1], &a1);
        add(&mut total[2], &a2);
        add(&mut total[3], &a3);
        if R > MR {
            add(&mut total[R - 4], &a4);
            add(&mut total[R - 3], &a5);
            add(&mut total[R - 2], &a6);
            add(&mut total[R - 1], &a7);
        }
    }
    total
}

/// Runs [`tile`] over the output planes of the `R` channels of `out` from
/// `ch0` on; channels past the last are zero rows of `w`, computed and
/// dropped. The store adds the bias and, for a ReLU sink, takes
/// `max(0, ·)` — the expression of `ops::relu`, on the same value; a
/// masked sink (`dX`, which has no bias) stores through its mask.
#[inline(always)]
fn tiled_block<const R: usize, const L: usize>(
    src: &Planes,
    (offs, groups, live): (&[usize], usize, Live<'_>),
    w: &[f32],
    bias: Option<&[f32]>,
    out: &mut Sink<'_>,
    ch0: usize,
) {
    let (channels, oh, ow) = out.dims();
    let (relu, mask) = (out.relu, out.mask);
    let w = &w[..R * offs.len()];
    for y in 0..oh {
        let live = live.row(y);
        for x0 in (0..ow).step_by(L) {
            let acc = tile::<R, L>(src.data(), y * src.width() + x0, offs, w, groups, live);
            let n = L.min(ow - x0);
            for (ch, acc) in (ch0..channels).zip(&acc) {
                let dst = out.cells(ch, y, x0, n);
                if let Some(m) = mask {
                    m.store((ch, y, x0), dst, acc);
                    continue;
                }
                let dst = dst.iter_mut().zip(acc);
                match (bias, relu) {
                    (Some(b), false) => dst.for_each(|(d, a)| *d = a + b[ch]),
                    (Some(b), true) => dst.for_each(|(d, a)| *d = (a + b[ch]).max(0.0)),
                    (None, false) => dst.for_each(|(d, a)| *d = *a),
                    (None, true) => dst.for_each(|(d, a)| *d = a.max(0.0)),
                }
            }
        }
    }
}

/// The `channels × oh × ow` output of one image, stored through `out`:
/// `out[ch][y][x] = Σ_groups(Σ_j packed[ch][j] · src[y][x + offs[j]]) (+ bias[ch])`,
/// each group's `j` over the spans `live` gives output row `y`.
/// The forward pass is one group of all `c·k·k` taps plus the bias, over
/// the taps that read a non-zero cell; `dx` is `k·k` groups of `out_c` taps
/// over the haloed `grad_out`, every tap. Channels go
/// `R` at a time, except that `MR` or fewer left take the `MR`-row tile: a
/// narrow layer must not multiply zero rows in a tile twice its height.
/// Positions go `L` at a time.
#[inline(always)]
pub(super) fn tiled_planes_body<const R: usize, const L: usize>(
    src: &Planes,
    offs: &[usize],
    groups: usize,
    packed: &[f32],
    bias: Option<&[f32]>,
    mut out: Sink<'_>,
    live: Live<'_>,
) {
    let channels = out.dims().0;
    let taps = (offs, groups, live);
    let mut ch0 = 0;
    while ch0 < channels {
        let w = &packed[ch0 * offs.len()..];
        if R > MR && channels - ch0 > MR {
            tiled_block::<R, L>(src, taps, w, bias, &mut out, ch0);
            ch0 += R;
        } else {
            tiled_block::<MR, L>(src, taps, w, bias, &mut out, ch0);
            ch0 += MR;
        }
    }
}

/// `dw[oc][row] = Σ_pos gy[oc][pos] · x̃[row][pos]` for one image: lanes are
/// `L` output channels, rows are `R` patch rows read from the haloed input
/// `xh` at `offs[row]`, accumulators named as in [`tile`]. Operand and
/// result are both held transposed (`[pos][oc]`, `[row][oc]`) so that every
/// load and store is contiguous along the lanes — a store contiguous along
/// the rows sends the vectoriser across them.
#[inline(always)]
pub(super) fn grad_weight_item_body<const R: usize, const L: usize>(
    xh: &Planes,
    offs: &[usize],
    gy: View<'_>,
    (oc, oh, ow): (usize, usize, usize),
    dw: &mut [f32],
    (gt, dwt): (&mut Vec<f32>, &mut Vec<f32>),
) {
    let taps = offs.len();
    let ocp = oc.next_multiple_of(L);
    // Channels zero-padded to whole lanes: the lanes `oc..` of the kept
    // scratch are zeroed here, every other cell stored below.
    gt.resize(oh * ow * ocp, 0.0);
    if ocp > oc {
        gt.chunks_exact_mut(ocp).for_each(|p| p[oc..].fill(0.0));
    }
    for o in 0..oc {
        for y in 0..oh {
            for (x, &v) in gy.row(o, y).iter().enumerate() {
                gt[(y * ow + x) * ocp + o] = v;
            }
        }
    }
    // Every cell is stored below.
    dwt.resize(taps * ocp, 0.0);
    for row0 in (0..taps).step_by(R) {
        // A short last tile repeats the final row; the store drops the copies
        // (and rows `MR..` are dead at `R = MR`).
        let off: [usize; 2 * MR] = std::array::from_fn(|r| offs[(row0 + r).min(taps - 1)]);
        for oc0 in (0..ocp).step_by(L) {
            let [mut a0, mut a1, mut a2, mut a3, mut a4, mut a5, mut a6, mut a7] =
                [[0f32; L]; 2 * MR];
            for y in 0..oh {
                let row = |r: usize| &xh.data()[off[r] + y * xh.width()..][..ow];
                let (x0, x1, x2, x3) = (row(0), row(1), row(2), row(3));
                let (x4, x5, x6, x7) = (row(4), row(5), row(6), row(7));
                let g = &gt[y * ow * ocp + oc0..];
                for x in 0..ow {
                    let b: [f32; L] = lanes(g, x * ocp);
                    for l in 0..L {
                        a0[l] += x0[x] * b[l];
                        a1[l] += x1[x] * b[l];
                        a2[l] += x2[x] * b[l];
                        a3[l] += x3[x] * b[l];
                        if R > MR {
                            a4[l] += x4[x] * b[l];
                            a5[l] += x5[x] * b[l];
                            a6[l] += x6[x] * b[l];
                            a7[l] += x7[x] * b[l];
                        }
                    }
                }
            }
            for (row, a) in (row0..taps).zip([a0, a1, a2, a3, a4, a5, a6, a7]).take(R) {
                dwt[row * ocp + oc0..][..L].copy_from_slice(&a);
            }
        }
    }
    for (o, dw_row) in dw.chunks_exact_mut(taps).enumerate() {
        for (row, d) in dw_row.iter_mut().enumerate() {
            *d = dwt[row * ocp + o];
        }
    }
}

pub use super::dispatch::isa;
use super::dispatch::{grad_weight_item, tiled_planes};

/// Forward convolution.
///
/// * `input` — `[n, in_c, h, w]`
/// * `weight` — `[out_c, in_c · k · k]` (pre-flattened filter bank)
/// * `bias` — `[out_c]`
///
/// Returns `[n, out_c, oh, ow]`.
///
/// # Panics
/// Panics on any shape inconsistency.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, shape: &Conv2dShape) -> Tensor {
    let (n, c, h, w) = input.nchw();
    let oc = shape.out_channels;
    assert_eq!(c, shape.in_channels, "input channel mismatch");
    check_operands(weight, bias, shape);
    let (oh, ow) = shape.output_hw(h, w);
    if !shape.is_direct() {
        return conv2d_lowered(input, weight, bias, shape);
    }
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    let mut buf = ConvBuffers::default();
    // One image after the other: a batch is at most a few dozen items, far
    // below what `seaice_exec::par` would fork for.
    for (b, out_item) in out
        .as_mut_slice()
        .chunks_exact_mut(oc * oh * ow)
        .enumerate()
    {
        let xh = Planes::haloed(input.batch_item(b), (c, h, w), shape.pad);
        let sink = Sink::plain(out_item, (oc, oh, ow));
        conv2d_into(&xh, weight, bias, shape, sink, &mut buf);
    }
    out
}

/// [`conv2d`] of the one image `src` holds (its border is the padding, so
/// `src.halo()` must be `shape.pad`), stored through `dst`, with the
/// weights packed into `buf`: the inference walk's convolution, with no
/// halo copy, no output allocation and, into a ReLU sink, no ReLU pass.
/// Same bits as [`conv2d`] (then `relu`).
///
/// # Panics
/// Panics on any shape inconsistency.
pub fn conv2d_into(
    src: &Planes,
    weight: &Tensor,
    bias: &Tensor,
    shape: &Conv2dShape,
    mut dst: Sink<'_>,
    buf: &mut ConvBuffers,
) {
    let (c, h, w) = src.dims();
    let oc = shape.out_channels;
    assert_eq!(c, shape.in_channels, "input channel mismatch");
    check_operands(weight, bias, shape);
    let (oh, ow) = shape.output_hw(h, w);
    assert_eq!(dst.dims(), (oc, oh, ow), "conv output mismatch");
    if !shape.is_direct() {
        let x = Tensor::from_vec(&[1, c, h, w], src.interior());
        return dst.put(conv2d_lowered(&x, weight, bias, shape).as_slice());
    }
    assert_eq!(src.halo(), shape.pad, "conv input halo must be its padding");
    let look = oc * shape.kernel.pow(2) * ow >= SPARSE_WORK;
    buf.prepare(src, weight, shape, look);
    let bias = Some(bias.as_slice());
    tiled_planes(src, &buf.offs, 1, &buf.packed, bias, dst, buf.live());
}

/// The filter bank is `[out_c, in_c · k · k]` and the bias `[out_c]`.
fn check_operands(weight: &Tensor, bias: &Tensor, shape: &Conv2dShape) {
    let (k, oc) = (shape.kernel, shape.out_channels);
    let taps = shape.in_channels * k * k;
    assert_eq!(weight.shape(), &[oc, taps], "weight shape mismatch");
    assert_eq!(bias.shape(), &[oc], "bias shape mismatch");
}

/// Backward convolution: gradients w.r.t. input, weight, and bias.
///
/// * `grad_out` — `[n, out_c, oh, ow]`
///
/// Returns `(grad_input, grad_weight, grad_bias)` with the same shapes as
/// the corresponding forward arguments.
///
/// # Panics
/// Panics on any shape inconsistency.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    shape: &Conv2dShape,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = input.nchw();
    let (gn, goc, oh, ow) = grad_out.nchw();
    let (k, oc) = (shape.kernel, shape.out_channels);
    assert_eq!(n, gn, "batch mismatch");
    assert_eq!(c, shape.in_channels, "input channel mismatch");
    assert_eq!(goc, oc, "grad channel mismatch");
    assert_eq!(weight.shape(), &[oc, c * k * k], "weight shape mismatch");
    assert_eq!((oh, ow), shape.output_hw(h, w), "grad spatial mismatch");
    if !shape.is_direct() {
        return conv2d_backward_lowered(input, weight, grad_out, shape);
    }
    let (item, halo) = (c * h * w, k - 1 - shape.pad);
    let mut grad_input = Tensor::zeros(&[n, c, h, w]);
    let mut grad_weight = Tensor::zeros(weight.shape());
    let mut grad_bias = Tensor::zeros(&[oc]);
    let mut buf = GradBuffers::default();
    for b in 0..n {
        let xh = Planes::haloed(input.batch_item(b), (c, h, w), shape.pad);
        let gh = Planes::haloed(grad_out.batch_item(b), (oc, oh, ow), halo);
        let dx = &mut grad_input.as_mut_slice()[b * item..][..item];
        let sums = (grad_weight.as_mut_slice(), grad_bias.as_mut_slice());
        let sink = Sink::plain(dx, (c, h, w));
        conv2d_backward_into(&xh, weight, (&gh, 0), shape, sink, sums, &mut buf);
    }
    (grad_input, grad_weight, grad_bias)
}

/// [`conv2d_backward`] of the one image `x` holds (bordered by its padding)
/// under the gradient of its output, channels `ch0..ch0 + out_c` of `gy`
/// (bordered by `kernel − 1 − pad`): stores `dx` through `dx` and adds the
/// image's `dW` and `db` into `dw` and `db`, with no halo copies and no
/// per-image tensors. Summed from zero image after image, these are
/// [`conv2d_backward`]'s sums.
///
/// # Panics
/// Panics on any shape inconsistency, and on a geometry `is_direct`
/// excludes (no model has one; [`conv2d_backward`] lowers them).
pub fn conv2d_backward_into(
    x: &Planes,
    weight: &Tensor,
    (gy, ch0): (&Planes, usize),
    shape: &Conv2dShape,
    dx: Sink<'_>,
    (dw, db): (&mut [f32], &mut [f32]),
    buf: &mut GradBuffers,
) {
    let (c, h, w) = x.dims();
    let (k, oc) = (shape.kernel, shape.out_channels);
    let taps = c * k * k;
    assert_eq!(c, shape.in_channels, "input channel mismatch");
    assert_eq!(weight.shape(), &[oc, taps], "weight shape mismatch");
    let g = gy.channels(ch0, oc);
    let (_, oh, ow) = g.dims();
    assert_eq!((oh, ow), shape.output_hw(h, w), "grad spatial mismatch");
    assert_eq!(dx.dims(), (c, h, w), "dx mismatch");
    assert_eq!((dw.len(), db.len()), (oc * taps, oc), "sums mismatch");
    assert!(shape.is_direct(), "not a direct geometry");
    let halo = k - 1 - shape.pad;
    assert_eq!(x.halo(), shape.pad, "conv input halo must be its padding");
    assert_eq!(gy.halo(), halo, "gradient halo must be k - 1 - pad");
    if buf.packed.is_empty() {
        let base = ch0 * gy.plane();
        buf.dx_offs = dx_offsets(k, oc, (oh, ow), halo);
        buf.dx_offs.iter_mut().for_each(|o| *o += base);
        buf.x_offs = patch_offsets(c, k, h + 2 * shape.pad, x.width()).collect();
        buf.dw.resize(oc * taps, 0.0);
        pack_dx_weights(&mut buf.packed, weight, c, k);
    }
    let every = [[0, oc]];
    let (dx_offs, live) = (&buf.dx_offs, Live::all(&every));
    tiled_planes(gy, dx_offs, k * k, &buf.packed, None, dx, live);
    let scratch = (&mut buf.gt, &mut buf.dwt);
    grad_weight_item(x, &buf.x_offs, g, (oc, oh, ow), &mut buf.dw, scratch);
    dw.iter_mut().zip(&buf.dw).for_each(|(s, p)| *s += p);
    bias_sums(g, db);
}

/// Adds each channel of `g` into `db`: the channel's cells summed in
/// order, as `Iterator::sum` sums them (from `-0.0`), then added once.
/// Eight channels at a time, so the eight chains overlap.
fn bias_sums(g: View<'_>, db: &mut [f32]) {
    let (oc, oh, ow) = g.dims();
    for o0 in (0..oc).step_by(8) {
        let mut sum = [-0.0f32; 8];
        for y in 0..oh {
            let rows: [&[f32]; 8] = std::array::from_fn(|i| g.row((o0 + i).min(oc - 1), y));
            (0..ow).for_each(|x| sum.iter_mut().zip(&rows).for_each(|(s, r)| *s += r[x]));
        }
        db[o0..].iter_mut().zip(sum).for_each(|(d, s)| *d += s);
    }
}

/// The `dx` gather's taps: tap `(ky, kx)` of channel `o` at the mirrored
/// cell of `grad_out` haloed by `halo`, taps ascending outside, output
/// channels inside.
fn dx_offsets(k: usize, oc: usize, (oh, ow): (usize, usize), halo: usize) -> Vec<usize> {
    let (ghp, gwp) = (oh + 2 * halo, ow + 2 * halo);
    (0..k * k * oc)
        .map(|j| (j % oc * ghp + (k - 1 - j / oc / k)) * gwp + (k - 1 - j / oc % k))
        .collect()
}

/// The filter bank [`pack`]ed into `out` for the `dx` gather: rows are
/// input channels, taps in [`dx_offsets`] order (in loops: no division).
fn pack_dx_weights(out: &mut Vec<f32>, weight: &Tensor, c: usize, k: usize) {
    let (oc, kk) = (weight.shape()[0], k * k);
    out.clear();
    out.resize(c.div_ceil(MR) * kk * oc * MR, 0.0);
    for (o, filter) in weight.as_slice().chunks_exact(c * kk).enumerate() {
        for (ch, taps) in filter.chunks_exact(kk).enumerate() {
            for (tap, &v) in taps.iter().enumerate() {
                out[(ch / MR * kk * oc + tap * oc + o) * MR + ch % MR] = v;
            }
        }
    }
}

/// [`conv2d`] through the reference lowering, for the geometries
/// `Conv2dShape::is_direct` excludes: one `im2col` + `matmul` per image.
fn conv2d_lowered(input: &Tensor, weight: &Tensor, bias: &Tensor, shape: &Conv2dShape) -> Tensor {
    let (n, c, h, w) = input.nchw();
    let (oh, ow) = shape.output_hw(h, w);
    let mut out = Tensor::zeros(&[n, shape.out_channels, oh, ow]);
    for (b, out_item) in out
        .as_mut_slice()
        .chunks_exact_mut(shape.out_channels * oh * ow)
        .enumerate()
    {
        let x = Tensor::from_vec(&[c, h, w], input.batch_item(b).to_vec());
        let cols = im2col(&x, shape.kernel, shape.kernel, shape.stride, shape.pad);
        let y = matmul(weight, &cols); // [out_c, oh*ow]
        let rows = out_item.chunks_exact_mut(oh * ow);
        for ((dst, src), &bias_v) in rows
            .zip(y.as_slice().chunks_exact(oh * ow))
            .zip(bias.as_slice())
        {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s + bias_v;
            }
        }
    }
    out
}

/// [`conv2d_backward`] through the reference lowering (see
/// [`conv2d_lowered`]): `dW = gy · colsᵀ`, `dcols = Wᵀ · gy` scattered by
/// `col2im`, `db` = row sums of `gy`.
fn conv2d_backward_lowered(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    shape: &Conv2dShape,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = input.nchw();
    let (_, oc, oh, ow) = grad_out.nchw();
    let (k, s, p) = (shape.kernel, shape.stride, shape.pad);
    let mut grad_input = Vec::with_capacity(n * c * h * w);
    let mut grad_weight = Tensor::zeros(weight.shape());
    let mut grad_bias = Tensor::zeros(&[oc]);
    for b in 0..n {
        let x = Tensor::from_vec(&[c, h, w], input.batch_item(b).to_vec());
        let cols = im2col(&x, k, k, s, p);
        let gy = Tensor::from_vec(&[oc, oh * ow], grad_out.batch_item(b).to_vec());
        grad_weight.add_assign(&matmul_a_bt(&gy, &cols));
        let dcols = matmul_at_b(weight, &gy);
        grad_input.extend_from_slice(col2im(&dcols, c, h, w, k, k, s, p).as_slice());
        let db = gy.as_slice().chunks_exact(oh * ow).map(|g| g.iter().sum());
        grad_bias.add_assign(&Tensor::from_vec(&[oc], db.collect()));
    }
    let grad_input = Tensor::from_vec(&[n, c, h, w], grad_input);
    (grad_input, grad_weight, grad_bias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::uniform;

    fn shape_3x3_same(in_c: usize, out_c: usize) -> Conv2dShape {
        Conv2dShape {
            in_channels: in_c,
            out_channels: out_c,
            kernel: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        // A 1x1 kernel with weight 1, bias 0 is the identity.
        let shape = Conv2dShape {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let input = uniform(&[2, 1, 4, 4], -1.0, 1.0, 1);
        let weight = Tensor::full(&[1, 1], 1.0);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d(&input, &weight, &bias, &shape);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn bias_shifts_output() {
        let shape = shape_3x3_same(1, 2);
        let input = Tensor::zeros(&[1, 1, 4, 4]);
        let weight = Tensor::zeros(&[2, 9]);
        let bias = Tensor::from_vec(&[2], vec![1.5, -2.0]);
        let out = conv2d(&input, &weight, &bias, &shape);
        assert!(out.batch_item(0)[..16].iter().all(|&v| v == 1.5));
        assert!(out.batch_item(0)[16..].iter().all(|&v| v == -2.0));
    }

    #[test]
    fn box_kernel_averages_neighbourhood() {
        let shape = shape_3x3_same(1, 1);
        let mut input = Tensor::zeros(&[1, 1, 3, 3]);
        *input.at4_mut(0, 0, 1, 1) = 9.0;
        let weight = Tensor::full(&[1, 9], 1.0 / 9.0);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d(&input, &weight, &bias, &shape);
        // Every position's 3x3 window contains the single 9 → 1 everywhere.
        for &v in out.as_slice() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn output_shape_follows_geometry() {
        let shape = Conv2dShape {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let input = Tensor::zeros(&[2, 3, 16, 16]);
        let weight = Tensor::zeros(&[8, 27]);
        let bias = Tensor::zeros(&[8]);
        let out = conv2d(&input, &weight, &bias, &shape);
        assert_eq!(out.shape(), &[2, 8, 8, 8]);
    }

    /// A 4×4 single-channel image with operands shaped for `kernel`, so
    /// that only the geometry can be at fault.
    fn geometry(kernel: usize, stride: usize) -> (Conv2dShape, Tensor, Tensor, Tensor) {
        let shape = Conv2dShape {
            in_channels: 1,
            out_channels: 1,
            kernel,
            stride,
            pad: 0,
        };
        let input = Tensor::zeros(&[1, 1, 4, 4]);
        let weight = Tensor::zeros(&[1, kernel * kernel]);
        (shape, input, weight, Tensor::zeros(&[1]))
    }

    fn qconv2d_with(kernel: usize, stride: usize) {
        use crate::ops::quant::{qconv2d, quantize_weights, QuantParams};
        let (shape, x, w, b) = geometry(kernel, stride);
        let act = QuantParams::from_range(0.0, 1.0);
        qconv2d(&x, &quantize_weights(&w), &b, &shape, act);
    }

    #[test]
    #[should_panic(expected = "kernel larger than padded input")]
    fn conv2d_names_a_kernel_larger_than_the_padded_input() {
        let (shape, x, w, b) = geometry(5, 1);
        conv2d(&x, &w, &b, &shape);
    }

    #[test]
    #[should_panic(expected = "kernel larger than padded input")]
    fn conv2d_backward_names_a_kernel_larger_than_the_padded_input() {
        let (shape, x, w, _) = geometry(5, 1);
        conv2d_backward(&x, &w, &x, &shape);
    }

    #[test]
    #[should_panic(expected = "kernel larger than padded input")]
    fn qconv2d_names_a_kernel_larger_than_the_padded_input() {
        qconv2d_with(5, 1);
    }

    #[test]
    #[should_panic(expected = "kernel larger than padded input")]
    fn col2im_names_a_kernel_larger_than_the_padded_input() {
        col2im(&Tensor::zeros(&[25, 1]), 1, 4, 4, 5, 5, 1, 0);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn conv2d_names_a_zero_stride() {
        let (shape, x, w, b) = geometry(3, 0);
        conv2d(&x, &w, &b, &shape);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn conv2d_backward_names_a_zero_stride() {
        let (shape, x, w, _) = geometry(3, 0);
        conv2d_backward(&x, &w, &x, &shape);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn qconv2d_names_a_zero_stride() {
        qconv2d_with(3, 0);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn col2im_names_a_zero_stride() {
        col2im(&Tensor::zeros(&[9, 1]), 1, 4, 4, 3, 3, 0, 0);
    }

    /// Every convolution of an upsample+conv U-Net (3 channels in, 3
    /// classes out) as `(in_c, out_c, kernel, side)`, in execution order.
    fn unet_sites(depth: usize, base: usize, side: usize) -> Vec<(usize, usize, usize, usize)> {
        let mut sites = Vec::new();
        let mut in_c = 3;
        for level in 0..=depth {
            let out_c = base << level;
            sites.extend([
                (in_c, out_c, 3, side >> level),
                (out_c, out_c, 3, side >> level),
            ]);
            in_c = out_c;
        }
        for level in (0..depth).rev() {
            let (out_c, s) = (base << level, side >> level);
            sites.extend([
                (2 * out_c, out_c, 3, s),
                (2 * out_c, out_c, 3, s),
                (out_c, out_c, 3, s),
            ]);
        }
        sites.push((base, 3, 1, side));
        sites
    }

    #[track_caller]
    fn assert_same_bits(what: &str, case: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what} length, {case}");
        let isa = isa();
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}[{i}]: {isa} {g:e}, baseline {w:e} ({case})"
            );
        }
    }

    /// A convolution site, `(in_c, out_c, kernel, side)`.
    type Site = (usize, usize, usize, usize);
    /// An instantiation of [`tiled_planes_body`].
    type Body = fn(&Planes, &[usize], usize, &[f32], Option<&[f32]>, Sink<'_>, Live<'_>);
    /// An instantiation of [`grad_weight_item_body`].
    type DwBody = fn(
        &Planes,
        &[usize],
        View<'_>,
        (usize, usize, usize),
        &mut [f32],
        (&mut Vec<f32>, &mut Vec<f32>),
    );

    /// `y` of one image, `x` shaped `[1, c, side, side]`, through the
    /// forward front ([`conv2d_into`]'s kernel call) and through `body`, on
    /// the same operands and the same live taps; and whether they skipped any.
    fn forward_on(
        x: &Tensor,
        (weight, bias): (&Tensor, &Tensor),
        k: usize,
        body: Body,
    ) -> (Vec<f32>, Vec<f32>, bool) {
        let (_, c, side, _) = x.nchw();
        let oc = weight.shape()[0];
        let shape = Conv2dShape {
            in_channels: c,
            out_channels: oc,
            kernel: k,
            stride: 1,
            pad: k / 2,
        };
        let xh = Planes::haloed(x.as_slice(), (c, side, side), k / 2);
        let mut buf = ConvBuffers::default();
        buf.prepare(&xh, weight, &shape, true);
        let (mut y, mut y0) = (vec![0.0; oc * side * side], vec![0.0; oc * side * side]);
        let (dims, bias) = ((oc, side, side), Some(bias.as_slice()));
        let (offs, packed, live) = (&buf.offs, &buf.packed, buf.live());
        tiled_planes(&xh, offs, 1, packed, bias, Sink::plain(&mut y, dims), live);
        body(&xh, offs, 1, packed, bias, Sink::plain(&mut y0, dims), live);
        (y, y0, !buf.rows.is_empty())
    }

    /// [`forward_on`] a ReLU'd uniform image and uniform weights.
    fn forward_pair((c, oc, k, side): Site, seed: u64, body: Body) -> (Vec<f32>, Vec<f32>) {
        let x = uniform(&[1, c, side, side], -1.0, 1.0, seed).map(|v| v.max(0.0));
        let weight = uniform(&[oc, c * k * k], -0.5, 0.5, seed + 1);
        let bias = uniform(&[oc], -0.5, 0.5, seed + 2);
        let (y, y0, _) = forward_on(&x, (&weight, &bias), k, body);
        (y, y0)
    }

    /// `dx` of one image, the gather as `conv2d_backward` sets it up,
    /// through the front and through `body`.
    fn dx_pair((c, oc, k, side): Site, seed: u64, body: Body) -> (Vec<f32>, Vec<f32>) {
        let halo = k - 1 - k / 2;
        let weight = uniform(&[oc, c * k * k], -0.5, 0.5, seed + 1);
        let gy = uniform(&[oc, side, side], -1.0, 1.0, seed + 3);
        let gh = Planes::haloed(gy.as_slice(), (oc, side, side), halo);
        let offs = dx_offsets(k, oc, (side, side), halo);
        let mut wt = Vec::new();
        pack_dx_weights(&mut wt, &weight, c, k);
        let (mut dx, mut dx0) = (vec![0.0; c * side * side], vec![0.0; c * side * side]);
        let (dims, every) = ((c, side, side), [[0, oc]]);
        let live = Live::all(&every);
        let (out, out0) = (Sink::plain(&mut dx, dims), Sink::plain(&mut dx0, dims));
        tiled_planes(&gh, &offs, k * k, &wt, None, out, live);
        body(&gh, &offs, k * k, &wt, None, out0, live);
        (dx, dx0)
    }

    /// `dw` of one image through the front and through `body`.
    fn dw_pair((c, oc, k, side): Site, seed: u64, body: DwBody) -> (Vec<f32>, Vec<f32>) {
        let (pad, taps) = (k / 2, c * k * k);
        let x = uniform(&[c, side, side], -1.0, 1.0, seed).map(|v| v.max(0.0));
        let gy = uniform(&[oc, side, side], -1.0, 1.0, seed + 3);
        let xh = Planes::haloed(x.as_slice(), (c, side, side), pad);
        let offs: Vec<usize> = patch_offsets(c, k, side + 2 * pad, side + 2 * pad).collect();
        let (mut dw, mut dw0) = (vec![0.0; oc * taps], vec![0.0; oc * taps]);
        let gdims = (oc, side, side);
        let g = View::of_slice(gy.as_slice(), gdims);
        let (mut gt, mut dwt) = (Vec::new(), Vec::new());
        grad_weight_item(&xh, &offs, g, gdims, &mut dw, (&mut gt, &mut dwt));
        // Scratch left dirty by another shape: every cell is stored again.
        let (mut gt, mut dwt) = (vec![f32::NAN; 3 * gt.len()], vec![f32::NAN; dwt.len()]);
        body(&xh, &offs, g, gdims, &mut dw0, (&mut gt, &mut dwt));
        (dw, dw0)
    }

    /// The instantiations are the same function: `y`, `dx` and `dw` of one
    /// image from the dispatched fronts and from the baseline bodies, on the
    /// same operands, bit for bit. On a CPU without AVX2 (or AVX-512F) the
    /// fronts *are* the baseline (or the AVX2 twins) and this compares it
    /// with itself ([`isa`] in the failure message says which ran); there
    /// is no switch to force a path.
    #[test]
    fn dispatched_kernels_equal_the_baseline_instantiation_bit_for_bit() {
        // `cpu_small` at 64², the serve_tiles model at 16², and a 12-channel
        // site: a full 8-row block followed by a 4-row tail.
        let mut sites = unet_sites(2, 8, 64);
        sites.extend(unet_sites(1, 4, 16));
        sites.push((12, 12, 3, 16));
        assert_eq!(sites.len(), 13 + 8 + 1);
        for (i, &site) in sites.iter().enumerate() {
            let (c, oc, k, side) = site;
            let case = format!("site {i}: {c} -> {oc}, {k}x{k}, {side}²");
            let seed = 300 + 10 * i as u64;
            let (y, y0) = forward_pair(site, seed, tiled_planes_body::<MR, NR>);
            assert_same_bits("y", &case, &y, &y0);
            let (dx, dx0) = dx_pair(site, seed, tiled_planes_body::<MR, NR>);
            assert_same_bits("dx", &case, &dx, &dx0);
            let (dw, dw0) = dw_pair(site, seed, grad_weight_item_body::<MR, NR>);
            assert_same_bits("dw", &case, &dw, &dw0);
        }
    }

    /// The 16-lane bodies of all three nests, as the fronts run them and
    /// compiled here on their own, equal the 8-lane baseline bit for bit.
    /// Forward and `dx` (16 lanes from planes 16 wide up) over widths around
    /// both lane counts and channel counts around the row tiles; `dw` (16
    /// lanes from 16 output channels up) over channel counts around both
    /// lane counts, which pad `ocp`, and patch-row counts off the 8-row
    /// tile, which take the short tail. The bodies run every shape.
    #[test]
    fn sixteen_lane_nests_equal_the_baseline_bit_for_bit() {
        let (base, wide) = (
            tiled_planes_body::<MR, NR> as Body,
            tiled_planes_body::<{ 2 * MR }, NR_WIDE> as Body,
        );
        let (base_dw, wide_dw) = (
            grad_weight_item_body::<MR, NR> as DwBody,
            grad_weight_item_body::<{ 2 * MR }, NR_WIDE> as DwBody,
        );
        for (i, ow) in [1, 7, 8, 15, 16, 17, 31, 32, 33, 64]
            .into_iter()
            .enumerate()
        {
            for (j, &(c, oc, k)) in [(3, 8, 3), (5, 3, 3), (4, 9, 3), (8, 13, 3), (7, 16, 1)]
                .iter()
                .enumerate()
            {
                let (site, case) = ((c, oc, k, ow), format!("{c} -> {oc}, {k}x{k}, {ow}²"));
                let seed = 900 + 100 * i as u64 + 10 * j as u64;
                for (what, pair) in [
                    ("y", forward_pair as fn(Site, u64, Body) -> _),
                    ("dx", dx_pair),
                ] {
                    let (got, want) = pair(site, seed, base);
                    assert_same_bits(&format!("front {what}"), &case, &got, &want);
                    let (got, want) = pair(site, seed, wide);
                    assert_same_bits(
                        &format!("front {what} vs the 16-lane body"),
                        &case,
                        &got,
                        &want,
                    );
                }
            }
        }
        for (i, oc) in [3, 8, 15, 16, 17, 24, 32, 33].into_iter().enumerate() {
            for (j, &(c, k, side)) in [(3, 3, 7), (5, 3, 16), (7, 1, 9), (2, 3, 17)]
                .iter()
                .enumerate()
            {
                let case = format!("{c} -> {oc}, {k}x{k}, {side}²");
                let seed = 1900 + 100 * i as u64 + 10 * j as u64;
                let (dw, dw0) = dw_pair((c, oc, k, side), seed, base_dw);
                assert_same_bits("front dw", &case, &dw, &dw0);
                let (dw, dw0) = dw_pair((c, oc, k, side), seed, wide_dw);
                assert_same_bits("front dw vs the 16-lane body", &case, &dw, &dw0);
            }
        }
        for (i, &site) in unet_sites(2, 8, 64).iter().enumerate() {
            let (c, oc, k, side) = site;
            let case = format!("site {i}: {c} -> {oc}, {k}x{k}, {side}²");
            let seed = 700 + i as u64;
            let (y, y0) = forward_pair(site, seed, wide);
            assert_same_bits("front y vs the 16-lane body", &case, &y, &y0);
            let (dx, dx0) = dx_pair(site, seed, wide);
            assert_same_bits("front dx vs the 16-lane body", &case, &dx, &dx0);
            let (dw, dw0) = dw_pair(site, seed, wide_dw);
            assert_same_bits("front dw vs the 16-lane body", &case, &dw, &dw0);
        }
    }

    /// The forward skips the taps whose input row holds only `±0` and stays
    /// the reference lowering bit for bit, in every instantiation of
    /// [`tiled_planes_body`] and through the front: on dead channels, zero
    /// rows, rows whose one non-zero cell sits at either end, `−0.0`, NaN
    /// and ±∞ beside zero rows and an all-zero input (skipping); and on
    /// inputs whose only zeros are the halo, or under a non-finite weight
    /// (`∞ · 0` is NaN, which a skip would lose), dense.
    #[test]
    fn skipped_zero_rows_equal_the_reference_lowering_bit_for_bit() {
        let bodies: [(&str, Body); 3] = [
            ("4x8 body", tiled_planes_body::<MR, NR>),
            ("8x8 body", tiled_planes_body::<{ 2 * MR }, NR>),
            ("8x16 body", tiled_planes_body::<{ 2 * MR }, NR_WIDE>),
        ];
        let (c, oc) = (5, 9);
        // Every third row of channels 0, 2 and 4 zero, channels 1 and 3 dead.
        let dead = |x: &mut [f32], side: usize, zero: f32| {
            for (i, v) in x.iter_mut().enumerate() {
                let (ch, y) = (i / (side * side), i / side % side);
                if ch % 2 == 1 || y % 3 == 0 {
                    *v = zero;
                }
            }
        };
        type Case = (&'static str, bool);
        let cases: [Case; 8] = [
            ("dead channels and zero rows", true),
            ("one cell at either end of a row", true),
            ("only the halo zero", false),
            ("all zero", true),
            ("no zeros", false),
            ("-0.0 cells", true),
            ("NaN and ±inf beside zero rows", true),
            ("an infinite weight", false),
        ];
        for side in [7, 16, 19, 33] {
            let at = |ch: usize, y: usize, x: usize| (ch * side + y) * side + x;
            for k in [3, 1] {
                for (i, &(name, skips)) in cases.iter().enumerate() {
                    let seed = 4000 + 10 * (i as u64) + side as u64;
                    let shape = [1, c, side, side];
                    let mut x = uniform(&shape, -1.0, 1.0, seed).map(|v| v.max(0.0));
                    let mut weight = uniform(&[oc, c * k * k], -0.5, 0.5, seed + 1);
                    let bias = uniform(&[oc], -0.5, 0.5, seed + 2);
                    let v = x.as_mut_slice();
                    match i {
                        0 => dead(v, side, 0.0),
                        1 => {
                            v.fill(0.0);
                            v[at(0, 2, 0)] = 0.7;
                            v[at(2, side - 1, side - 1)] = -0.6;
                            v[at(4, side / 2, side - 1)] = 1.3;
                            v[at(4, side / 2 + 1, 0)] = 0.9;
                        }
                        2 => v.iter_mut().for_each(|v| *v = 0.25 + v.abs()),
                        3 => v.fill(0.0),
                        4 => v.iter_mut().for_each(|v| *v -= 0.5),
                        5 => {
                            dead(v, side, -0.0);
                            v[at(0, 1, 1)] = -0.0;
                        }
                        6 => {
                            dead(v, side, 0.0);
                            v[at(0, 1, 3)] = f32::NAN;
                            v[at(2, 2, 0)] = f32::INFINITY;
                            v[at(4, side - 2, side - 1)] = f32::NEG_INFINITY;
                        }
                        7 => {
                            dead(v, side, 0.0);
                            weight.as_mut_slice()[2 * c * k * k] = f32::INFINITY;
                            weight.as_mut_slice()[oc * c * k * k - 1] = f32::NEG_INFINITY;
                        }
                        _ => {}
                    }
                    let conv = Conv2dShape {
                        in_channels: c,
                        out_channels: oc,
                        kernel: k,
                        stride: 1,
                        pad: k / 2,
                    };
                    let want = conv2d_lowered(&x, &weight, &bias, &conv);
                    let case = format!("{name}, {k}x{k}, {side}²");
                    for (what, body) in bodies {
                        let (y, y0, skipped) = forward_on(&x, (&weight, &bias), k, body);
                        assert_eq!(skipped, skips, "skipped taps ({case})");
                        assert_same_bits("front y", &case, &y, want.as_slice());
                        assert_same_bits(what, &case, &y0, want.as_slice());
                    }
                }
            }
        }
    }

    /// `conv2d_into` from haloed planes into a ReLU sink equals `relu` of
    /// `conv2d`, bit for bit, with NaN and ±∞ among the inputs, and stores
    /// nothing outside its channels' interior.
    #[test]
    fn store_into_haloed_planes_equals_relu_of_conv2d() {
        let (c, oc, side) = (3, 5, 17);
        let shape = shape_3x3_same(c, oc);
        let mut x = uniform(&[1, c, side, side], -1.0, 1.0, 61);
        for (at, v) in [(5, f32::NAN), (40, f32::INFINITY), (300, f32::NEG_INFINITY)] {
            x.as_mut_slice()[at] = v;
        }
        let weight = uniform(&[oc, c * 9], -0.5, 0.5, 62);
        let bias = uniform(&[oc], -0.5, 0.5, 63);
        let want = crate::ops::relu(&conv2d(&x, &weight, &bias, &shape));
        let want_has = |p: fn(&f32) -> bool| want.as_slice().iter().any(p);
        assert!(want_has(|v| *v == 0.0) && want_has(|v| *v > 0.0));

        let src = Planes::haloed(x.as_slice(), (c, side, side), 1);
        let mut dst = Planes::new((oc + 2, side, side), 1);
        let sink = Sink::planes(&mut dst, 1, oc).through_relu();
        conv2d_into(
            &src,
            &weight,
            &bias,
            &shape,
            sink,
            &mut ConvBuffers::default(),
        );
        let got = dst.interior();
        let plane = side * side;
        assert!(got[..plane]
            .iter()
            .chain(&got[(oc + 1) * plane..])
            .all(|v| *v == 0.0));
        assert_same_bits(
            "relu(y)",
            "into haloed planes",
            &got[plane..(oc + 1) * plane],
            want.as_slice(),
        );
        let stored = dst.data().iter().filter(|v| v.to_bits() != 0).count();
        let interior = got.iter().filter(|v| v.to_bits() != 0).count();
        assert_eq!(
            stored, interior,
            "a store landed in the border or the slack"
        );
    }

    /// `conv2d_backward_into` from haloed planes, reading the output
    /// gradient from channels of a wider plane and storing `dX` through a
    /// mask, equals `relu_backward` (after `dropout_backward`) of
    /// `conv2d_backward`'s `dx`, and adds its `dW` and `db` — bit for bit,
    /// with and without a dropout scale and with NaN among ReLU's inputs.
    #[test]
    fn a_masked_backward_into_equals_relu_and_dropout_backward() {
        use crate::ops::activation::{relu, tests::relu_backward};
        use crate::ops::dropout::tests::dropout_backward;
        let (c, oc, side, p) = (5, 12, 11, 0.25);
        let shape = shape_3x3_same(c, oc);
        let mut z = uniform(&[1, c, side, side], -1.0, 1.0, 71);
        z.as_mut_slice()[7] = f32::NAN;
        let keep: Vec<bool> = (0..z.len()).map(|i| i % 3 != 0).collect();
        let scale = 1.0 / (1.0 - p);
        let r = relu(&z);
        let dropped = Tensor::from_vec(
            z.shape(),
            r.as_slice()
                .iter()
                .zip(&keep)
                .map(|(v, k)| if *k { v * scale } else { 0.0 })
                .collect(),
        );
        let weight = uniform(&[oc, c * 9], -0.5, 0.5, 72);
        let gy = uniform(&[1, oc, side, side], -1.0, 1.0, 73);
        let mut wide = Planes::new((oc + 3, side, side), 1);
        Sink::planes(&mut wide, 3, oc).put(gy.as_slice());
        let dims = (c, side, side);
        for (x, scale) in [(&r, 1.0), (&dropped, scale)] {
            let (dx, dw, db) = conv2d_backward(x, &weight, &gy, &shape);
            let want = match scale {
                1.0 => relu_backward(&z, &dx),
                _ => relu_backward(&z, &dropout_backward(&dx, &keep, p)),
            };
            let xh = Planes::haloed(x.as_slice(), dims, 1);
            let mut got = Planes::new(dims, 1);
            let (mut gw, mut gb) = (vec![0.0; dw.len()], vec![0.0; oc]);
            let sink = Sink::planes(&mut got, 0, c).through_mask(&xh, scale);
            let mut buf = GradBuffers::default();
            let sums = (gw.as_mut_slice(), gb.as_mut_slice());
            conv2d_backward_into(&xh, &weight, (&wide, 3), &shape, sink, sums, &mut buf);
            let case = format!("scale {scale:?}");
            assert_same_bits("masked dx", &case, &got.interior(), want.as_slice());
            assert_same_bits("dw", &case, &gw, dw.as_slice());
            assert_same_bits("db", &case, &gb, db.as_slice());
        }
    }

    #[test]
    fn backward_shapes_match_forward_args() {
        let shape = shape_3x3_same(2, 4);
        let input = uniform(&[2, 2, 6, 6], -1.0, 1.0, 3);
        let weight = uniform(&[4, 18], -0.5, 0.5, 4);
        let bias = Tensor::zeros(&[4]);
        let out = conv2d(&input, &weight, &bias, &shape);
        let grad = Tensor::full(out.shape(), 1.0);
        let (dx, dw, db) = conv2d_backward(&input, &weight, &grad, &shape);
        assert_eq!(dx.shape(), input.shape());
        assert_eq!(dw.shape(), weight.shape());
        assert_eq!(db.shape(), bias.shape());
    }

    #[test]
    fn bias_gradient_is_output_count() {
        // With grad_out = 1 everywhere, db[oc] = n*oh*ow.
        let shape = shape_3x3_same(1, 2);
        let input = uniform(&[3, 1, 5, 5], -1.0, 1.0, 5);
        let weight = uniform(&[2, 9], -0.5, 0.5, 6);
        let grad = Tensor::full(&[3, 2, 5, 5], 1.0);
        let (_, _, db) = conv2d_backward(&input, &weight, &grad, &shape);
        for &v in db.as_slice() {
            assert!((v - 75.0).abs() < 1e-3);
        }
    }
}
