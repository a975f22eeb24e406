//! Post-training int8 quantization of the U-Net: calibrate activation
//! ranges on a held-out set, quantize every convolution's weights per
//! output channel and pack them once for the direct int8 kernel, and run
//! the whole forward pass on it ([`seaice_nn::ops::quant`]).
//!
//! The quantized network is a *frozen twin* of the f32 model:
//!
//! 1. [`UNet::quantize`] runs the eval walk (`walk.rs`) over every
//!    tensor in a [`CalibrationSet`] with a step that records the min/max
//!    of each convolution's input (the only tensors that get quantized —
//!    ReLU, max-pool, upsample, and concatenation run in f32 on the
//!    dequantized activations, which costs little and keeps the skip
//!    topology exact) and counts, per input channel, the rows that hold
//!    only `±0`, before running the f32 convolution.
//! 2. Each conv becomes a [`QConv`]: per-channel symmetric int8 weights,
//!    packed as channel-pair words when the network is built (so a forward
//!    pass packs nothing), the channels that were zero most often paired
//!    together (`PackedQWeights::new`: more all-zero pair rows for the
//!    kernel to skip, the same bits in any order), plus the calibrated
//!    per-tensor input `(scale, zero_point)`.
//! 3. [`QuantizedUNet::forward`] runs the same walk as [`UNet::forward`]
//!    in eval mode (dropout is identity), with a step that swaps
//!    `conv2d_into` for `qconv2d_into`.
//!
//! Determinism: calibration iterates the set in order, integer
//! accumulation is exact in any order, and every output element is one
//! thread's work — so quantizing the same checkpoint twice yields
//! bit-identical [`QuantizedUNet`]s, and int8 predictions are
//! byte-stable across runs, batch sizes, and thread counts. The
//! transposed up-convolution ([`crate::config::UpMode::Transposed`])
//! stays in f32: its scatter structure is not a convolution the int8
//! kernel runs, and the paper configuration uses `UpsampleConv`.

use crate::config::UNetConfig;
use crate::model::{self, Eval, UNet, Up};
use crate::walk::{self, Arena, SharedArena, Step, Transposed};
use seaice_nn::layers::Conv2d;
use seaice_nn::ops::{
    convtranspose::ConvTranspose2dShape, qconv2d_into, quant::quantize_weights,
    quant::PackedQWeights, quant::QuantParams, ConvBuffers, Planes, Sink,
};
use seaice_nn::Tensor;

/// Which forward implementation serves predictions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InferBackend {
    /// The full-precision f32 network (the default).
    #[default]
    F32,
    /// The post-training-quantized int8 network.
    Int8,
}

impl InferBackend {
    /// Stable lowercase name (`"f32"` / `"int8"`), as reported by
    /// `/stats` and accepted by [`InferBackend::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            InferBackend::F32 => "f32",
            InferBackend::Int8 => "int8",
        }
    }

    /// Parses a backend name (`"f32"` or `"int8"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(InferBackend::F32),
            "int8" => Some(InferBackend::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for InferBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The held-out inputs activation calibration runs over: a list of
/// `[n, c, s, s]` image tensors in the model's input distribution.
#[derive(Clone, Debug)]
pub struct CalibrationSet {
    inputs: Vec<Tensor>,
}

impl CalibrationSet {
    /// Wraps calibration inputs, validating that each is a non-empty 4-D
    /// NCHW tensor (channel/side compatibility with a specific model is
    /// checked by [`UNet::quantize`]).
    ///
    /// # Errors
    /// A description of the first malformed input.
    pub fn new(inputs: Vec<Tensor>) -> Result<Self, String> {
        if inputs.is_empty() {
            return Err("calibration set must contain at least one input".into());
        }
        for (i, t) in inputs.iter().enumerate() {
            if t.shape().len() != 4 {
                return Err(format!(
                    "calibration input {i} must be 4-D NCHW, got shape {:?}",
                    t.shape()
                ));
            }
            if t.is_empty() {
                return Err(format!("calibration input {i} is empty"));
            }
        }
        Ok(Self { inputs })
    }

    /// The calibration tensors, in calibration order.
    pub fn inputs(&self) -> &[Tensor] {
        &self.inputs
    }
}

/// A running min/max observer for one activation tensor, which also counts,
/// per channel, the observed rows that hold only `±0`.
#[derive(Clone, Debug)]
struct Range {
    lo: f32,
    hi: f32,
    zero_rows: Vec<usize>,
}

impl Range {
    fn empty() -> Self {
        Self {
            lo: f32::INFINITY,
            hi: f32::NEG_INFINITY,
            zero_rows: Vec::new(),
        }
    }

    /// Widens the range to the interior of `planes` and counts its zero
    /// rows.
    fn observe(&mut self, planes: &Planes) {
        let (c, h, _) = planes.dims();
        self.zero_rows.resize(c, 0);
        for (ch, zero_rows) in self.zero_rows.iter_mut().enumerate() {
            for y in 0..h {
                let mut zero = true;
                for v in planes.row(ch, y) {
                    if *v < self.lo {
                        self.lo = *v;
                    }
                    if *v > self.hi {
                        self.hi = *v;
                    }
                    zero &= *v == 0.0;
                }
                *zero_rows += usize::from(zero);
            }
        }
    }

    fn params(&self) -> QuantParams {
        QuantParams::from_range(self.lo, self.hi)
    }
}

/// A quantized convolution: int8 per-channel weights, packed once for the
/// direct kernel, f32 bias, and the calibrated input quantization
/// parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct QConv {
    weights: PackedQWeights,
    bias: Tensor,
    input_q: QuantParams,
}

impl QConv {
    /// Channels are paired by how often calibration saw their rows zero
    /// (`PackedQWeights::new`).
    fn build(conv: &Conv2d, range: &Range) -> Self {
        let weights = quantize_weights(&conv.weight().value);
        Self {
            weights: PackedQWeights::new(weights, *conv.shape(), &range.zero_rows),
            bias: conv.bias().value.clone(),
            input_q: range.params(),
        }
    }
}

/// A decoder's transposed up-convolution, kept in f32 (see the module
/// docs).
#[derive(Clone, Debug, PartialEq)]
struct QTransposed {
    weight: Tensor,
    bias: Tensor,
    shape: ConvTranspose2dShape,
}

/// The int8 twin of a trained [`UNet`], produced by [`UNet::quantize`].
///
/// Inference-only: there is no backward pass and no model state that
/// changes, so a replica can be [`Clone`]d cheaply (relative to
/// requantizing) when a serving worker needs a fresh copy after a panic.
/// The eval walk's planes are kept between calls but are not model state:
/// a clone starts without them and `==` ignores them.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedUNet {
    config: UNetConfig,
    /// Every convolution, in walk order.
    convs: Vec<QConv>,
    /// Per decoder step, its transposed up-convolution; empty for
    /// `UpMode::UpsampleConv`.
    transposed: Vec<QTransposed>,
    arena: SharedArena,
}

impl QuantizedUNet {
    /// The architecture configuration this network was quantized from.
    pub fn config(&self) -> &UNetConfig {
        &self.config
    }

    /// Forward pass: `[n, in_c, s, s]` → `[n, classes, s, s]` f32
    /// logits: the eval walk of [`UNet::forward`] with int8 convolutions.
    ///
    /// # Panics
    /// Panics if the input side is not a multiple of `2^depth`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let (n, _, s, _) = x.nchw();
        let logits = self.eval(x, |arena| std::mem::take(&mut arena.logits));
        Tensor::from_vec(&[n, self.config.num_classes, s, s], logits)
    }

    /// The eval walk of `x`, then `f` on the arena holding its logits.
    fn eval<R>(&self, x: &Tensor, f: impl FnOnce(&mut Arena) -> R) -> R {
        let (_, _, h, w) = x.nchw();
        assert_eq!(h, w, "U-Net inputs are square");
        self.config.assert_input_side(h);
        self.arena.with(|arena| {
            walk::walk(&self.config, &mut Int8(self), arena, x, None);
            f(arena)
        })
    }

    /// Per-pixel class predictions: argmax over the logits.
    pub fn predict(&self, x: &Tensor) -> Vec<u8> {
        let mut out = Vec::new();
        self.predict_into(x, &mut out);
        out
    }

    /// [`predict`](QuantizedUNet::predict) into a caller-owned buffer
    /// (`out` is cleared and refilled with `n·h·w` class ids) — the same
    /// contract as [`UNet::predict_into`], including batch-item
    /// independence.
    pub fn predict_into(&self, x: &Tensor, out: &mut Vec<u8>) {
        let (classes, plane) = (self.config.num_classes, x.nchw().2 * x.nchw().3);
        self.eval(x, |arena| {
            model::argmax_classes(&arena.logits, classes, plane, out)
        });
    }
}

/// The int8 twin's step of the eval walk: every convolution through
/// `qconv2d_into`.
struct Int8<'a>(&'a QuantizedUNet);

impl Step for Int8<'_> {
    fn conv(&mut self, k: usize, src: &Planes, dst: Sink<'_>, buf: &mut ConvBuffers) {
        let c = &self.0.convs[k];
        qconv2d_into(src, &c.weights, &c.bias, c.input_q, dst, buf);
    }

    fn transposed(&self, i: usize) -> Option<Transposed<'_>> {
        self.0.transposed.get(i).map(|t| Transposed {
            weight: &t.weight,
            bias: &t.bias,
            shape: &t.shape,
        })
    }
}

/// Calibration's step of the eval walk: observe each convolution's input
/// range, then run the f32 convolution.
struct Calibrate<'a> {
    f32: Eval<'a>,
    ranges: &'a mut [Range],
}

impl Step for Calibrate<'_> {
    fn conv(&mut self, k: usize, src: &Planes, dst: Sink<'_>, buf: &mut ConvBuffers) {
        self.ranges[k].observe(src);
        self.f32.conv(k, src, dst, buf);
    }

    fn transposed(&self, i: usize) -> Option<Transposed<'_>> {
        self.f32.transposed(i)
    }
}

/// A tile-classifying model, f32 or int8 — what the scene classifier
/// and the serving engine are generic over.
pub trait TileClassifier {
    /// Per-pixel class ids for an NCHW batch, into a reused buffer
    /// (cleared and refilled with `n·h·w` entries).
    fn predict_into(&mut self, x: &Tensor, out: &mut Vec<u8>);

    /// The architecture configuration.
    fn config(&self) -> &UNetConfig;
}

impl TileClassifier for UNet {
    fn predict_into(&mut self, x: &Tensor, out: &mut Vec<u8>) {
        UNet::predict_into(self, x, out);
    }

    fn config(&self) -> &UNetConfig {
        UNet::config(self)
    }
}

impl TileClassifier for QuantizedUNet {
    fn predict_into(&mut self, x: &Tensor, out: &mut Vec<u8>) {
        QuantizedUNet::predict_into(self, x, out);
    }

    fn config(&self) -> &UNetConfig {
        QuantizedUNet::config(self)
    }
}

impl UNet {
    /// Post-training quantization: calibrates activation ranges over
    /// `calib` (eval mode, in set order) and returns the int8 twin of
    /// this network. The f32 model is not modified.
    ///
    /// # Errors
    /// A description of the first calibration input incompatible with
    /// the architecture (channel count or input side).
    pub fn quantize(&self, calib: &CalibrationSet) -> Result<QuantizedUNet, String> {
        let cfg = *self.config();
        for (i, t) in calib.inputs().iter().enumerate() {
            let (_, c, h, w) = t.nchw();
            if c != cfg.in_channels {
                return Err(format!(
                    "calibration input {i} has {c} channels, model wants {}",
                    cfg.in_channels
                ));
            }
            if h != w {
                return Err(format!("calibration input {i} is not square: {h}x{w}"));
            }
            cfg.check_input_side(h)
                .map_err(|e| format!("calibration input {i}: {e}"))?;
        }

        let convs = self.convs();
        let mut ranges = vec![Range::empty(); convs.len()];
        let mut arena = Arena::default();
        for x in calib.inputs() {
            self.observe(x, &mut ranges, &mut arena);
        }
        let transposed = self
            .decoders
            .iter()
            .filter_map(|dec| match &dec.up {
                Up::Transposed(t) => Some(QTransposed {
                    weight: t.weight().value.clone(),
                    bias: t.bias().value.clone(),
                    shape: *t.shape(),
                }),
                Up::Resize(_) => None,
            })
            .collect();
        Ok(QuantizedUNet {
            config: cfg,
            convs: convs
                .iter()
                .zip(&ranges)
                .map(|(c, r)| QConv::build(c, r))
                .collect(),
            transposed,
            arena: SharedArena::default(),
        })
    }

    /// Runs the eval walk over `x`, widening `ranges[k]` to the input of
    /// convolution `k` (walk order).
    fn observe(&self, x: &Tensor, ranges: &mut [Range], arena: &mut Arena) {
        let mut step = Calibrate {
            f32: Eval::new(self),
            ranges,
        };
        walk::walk(self.config(), &mut step, arena, x, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UpMode;
    use seaice_nn::init::uniform;
    use seaice_nn::Tensor;

    fn tiny(up_mode: UpMode) -> UNet {
        UNet::new(UNetConfig {
            depth: 2,
            base_filters: 4,
            dropout: 0.0,
            seed: 7,
            up_mode,
            ..UNetConfig::paper()
        })
    }

    fn calib(side: usize, n: usize) -> CalibrationSet {
        CalibrationSet::new(
            (0..n)
                .map(|i| uniform(&[1, 3, side, side], 0.0, 1.0, 900 + i as u64))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn quantized_logits_track_the_f32_network() {
        let mut net = tiny(UpMode::UpsampleConv);
        let q = net.quantize(&calib(16, 4)).unwrap();
        let x = uniform(&[2, 3, 16, 16], 0.0, 1.0, 1234);
        let want = net.forward(&x, false);
        let got = q.forward(&x);
        assert_eq!(got.shape(), want.shape());
        let scale = want
            .as_slice()
            .iter()
            .fold(0f32, |m, &v| m.max(v.abs()))
            .max(1.0);
        let max_err = got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0f32, f32::max);
        assert!(
            max_err < 0.25 * scale,
            "max logit error {max_err} vs logit scale {scale}"
        );
    }

    #[test]
    fn transposed_up_mode_quantizes_with_f32_upconv_fallback() {
        let mut net = tiny(UpMode::Transposed);
        let q = net.quantize(&calib(16, 2)).unwrap();
        let x = uniform(&[1, 3, 16, 16], 0.0, 1.0, 99);
        let want = net.forward(&x, false);
        let got = q.forward(&x);
        let scale = want
            .as_slice()
            .iter()
            .fold(0f32, |m, &v| m.max(v.abs()))
            .max(1.0);
        let max_err = got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0f32, f32::max);
        assert!(max_err < 0.25 * scale, "{max_err} vs {scale}");
    }

    #[test]
    fn quantization_is_deterministic() {
        let net = tiny(UpMode::UpsampleConv);
        let a = net.quantize(&calib(16, 3)).unwrap();
        let b = net.quantize(&calib(16, 3)).unwrap();
        assert_eq!(a, b, "same model + same calibration must be bit-identical");
        let x = uniform(&[1, 3, 16, 16], 0.0, 1.0, 5);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn quantize_rejects_incompatible_calibration_inputs() {
        let net = tiny(UpMode::UpsampleConv);
        let bad_channels =
            CalibrationSet::new(vec![uniform(&[1, 2, 16, 16], 0.0, 1.0, 1)]).unwrap();
        assert!(net
            .quantize(&bad_channels)
            .unwrap_err()
            .contains("channels"));
        // Depth-2 wants a multiple of 4; 10 is not.
        let bad_side = CalibrationSet::new(vec![uniform(&[1, 3, 10, 10], 0.0, 1.0, 1)]).unwrap();
        assert!(net.quantize(&bad_side).is_err());
    }

    #[test]
    fn calibration_set_validates_its_inputs() {
        assert!(CalibrationSet::new(Vec::new()).is_err());
        let bad = CalibrationSet::new(vec![Tensor::zeros(&[3, 16, 16])]);
        assert!(bad.unwrap_err().contains("4-D"));
        let ok = CalibrationSet::new(vec![Tensor::zeros(&[1, 3, 16, 16])]).unwrap();
        assert_eq!(ok.inputs().len(), 1);
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [InferBackend::F32, InferBackend::Int8] {
            assert_eq!(InferBackend::parse(b.as_str()), Some(b));
            assert_eq!(b.to_string(), b.as_str());
        }
        assert_eq!(InferBackend::parse("int4"), None);
        assert_eq!(InferBackend::default(), InferBackend::F32);
    }

    #[test]
    fn predictions_are_valid_classes_and_batch_independent() {
        let net = tiny(UpMode::UpsampleConv);
        let q = net.quantize(&calib(16, 2)).unwrap();
        let x = uniform(&[3, 3, 16, 16], 0.0, 1.0, 21);
        let batched = q.predict(&x);
        assert_eq!(batched.len(), 3 * 256);
        assert!(batched.iter().all(|&c| c < 3));
        let mut solo = Vec::new();
        for b in 0..3 {
            let item = Tensor::from_vec(&[1, 3, 16, 16], x.batch_item(b).to_vec());
            q.predict_into(&item, &mut solo);
            assert_eq!(solo, &batched[b * 256..(b + 1) * 256], "item {b}");
        }
    }

    /// The int8 twin's arena re-sizes on a side change and back again,
    /// and a clone (which starts without one) computes the same bits.
    #[test]
    fn int8_arena_reuse_across_sides_matches_a_fresh_clone() {
        let q = tiny(UpMode::UpsampleConv).quantize(&calib(16, 2)).unwrap();
        for (n, side, seed) in [(1, 64, 61), (3, 16, 62), (1, 64, 63)] {
            let x = uniform(&[n, 3, side, side], 0.0, 1.0, seed);
            let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(q.forward(&x)),
                bits(q.clone().forward(&x)),
                "{n} × {side}²"
            );
        }
    }
}
