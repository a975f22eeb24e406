//! Post-training int8 quantization of the U-Net: calibrate activation
//! ranges on a held-out set, quantize every convolution's weights per
//! output channel and pack them once for the direct int8 kernel, and run
//! the whole forward pass on it ([`seaice_nn::ops::quant`]).
//!
//! The quantized network is a *frozen twin* of the f32 model:
//!
//! 1. [`UNet::quantize`] replays the eval-mode forward over every tensor
//!    in a [`CalibrationSet`], recording the min/max of each
//!    convolution's input (the only tensors that get quantized — ReLU,
//!    max-pool, upsample, and concatenation run in f32 on the
//!    dequantized activations, which costs little and keeps the skip
//!    topology exact).
//! 2. Each conv becomes a [`QConv`]: per-channel symmetric int8 weights,
//!    packed as channel-pair words when the network is built (so a forward
//!    pass packs nothing), plus the calibrated per-tensor input
//!    `(scale, zero_point)`.
//! 3. [`QuantizedUNet::forward`] mirrors [`UNet::forward`] exactly
//!    (eval mode — dropout is identity), swapping `conv2d` for
//!    `qconv2d_packed`.
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
use crate::model::{self, UNet, Up};
use seaice_nn::layers::Conv2d;
use seaice_nn::ops::{
    self, convtranspose::ConvTranspose2dShape, quant::qconv2d_packed, quant::quantize_weights,
    quant::PackedQWeights, quant::QuantParams,
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

/// A running min/max observer for one activation tensor.
#[derive(Clone, Copy, Debug)]
struct Range {
    lo: f32,
    hi: f32,
}

impl Range {
    fn empty() -> Self {
        Self {
            lo: f32::INFINITY,
            hi: f32::NEG_INFINITY,
        }
    }

    fn observe(&mut self, t: &Tensor) {
        for &v in t.as_slice() {
            if v < self.lo {
                self.lo = v;
            }
            if v > self.hi {
                self.hi = v;
            }
        }
    }

    fn params(self) -> QuantParams {
        QuantParams::from_range(self.lo, self.hi)
    }
}

/// One min/max observer per convolution input, laid out to mirror the
/// network: `[conv1, conv2]` per encoder level and for the bottleneck,
/// `[up_conv, block conv1, block conv2]` per decoder step, plus the
/// 1×1 head.
struct Observers {
    enc: Vec<[Range; 2]>,
    bottleneck: [Range; 2],
    dec: Vec<[Range; 3]>,
    head: Range,
}

impl Observers {
    fn for_depth(depth: usize) -> Self {
        Self {
            enc: vec![[Range::empty(); 2]; depth],
            bottleneck: [Range::empty(); 2],
            dec: vec![[Range::empty(); 3]; depth],
            head: Range::empty(),
        }
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
    fn build(conv: &Conv2d, range: Range) -> Self {
        Self {
            weights: PackedQWeights::new(quantize_weights(&conv.weight().value), *conv.shape()),
            bias: conv.bias().value.clone(),
            input_q: range.params(),
        }
    }

    fn forward(&self, x: &Tensor) -> Tensor {
        qconv2d_packed(x, &self.weights, &self.bias, self.input_q)
    }

    /// The calibrated input quantization parameters.
    pub fn input_params(&self) -> QuantParams {
        self.input_q
    }
}

/// Quantized double convolution (conv → ReLU → conv → ReLU; dropout is
/// identity at inference and drops out of the quantized graph).
#[derive(Clone, Debug, PartialEq)]
struct QDoubleConv {
    conv1: QConv,
    conv2: QConv,
}

impl QDoubleConv {
    fn forward(&self, x: &Tensor) -> Tensor {
        let h = ops::relu(&self.conv1.forward(x));
        ops::relu(&self.conv2.forward(&h))
    }
}

/// Quantized decoder up-path. The transposed variant keeps its f32
/// weights (see the module docs).
#[derive(Clone, Debug, PartialEq)]
enum QUp {
    Resize(QConv),
    Transposed {
        weight: Tensor,
        bias: Tensor,
        shape: ConvTranspose2dShape,
    },
}

impl QUp {
    fn forward(&self, x: &Tensor) -> Tensor {
        match self {
            QUp::Resize(conv) => conv.forward(&ops::upsample2x(x)),
            QUp::Transposed {
                weight,
                bias,
                shape,
            } => ops::conv_transpose2d(x, weight, bias, shape),
        }
    }
}

/// One quantized decoder step: up-path, ReLU, skip concatenation,
/// double convolution.
#[derive(Clone, Debug, PartialEq)]
struct QDecoder {
    up: QUp,
    block: QDoubleConv,
}

/// The int8 twin of a trained [`UNet`], produced by [`UNet::quantize`].
///
/// Inference-only: there is no backward pass and no mutable state, so a
/// replica can be [`Clone`]d cheaply (relative to requantizing) when a
/// serving worker needs a fresh copy after a panic.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedUNet {
    config: UNetConfig,
    encoders: Vec<QDoubleConv>,
    bottleneck: QDoubleConv,
    decoders: Vec<QDecoder>,
    head: QConv,
}

impl QuantizedUNet {
    /// The architecture configuration this network was quantized from.
    pub fn config(&self) -> &UNetConfig {
        &self.config
    }

    /// Forward pass: `[n, in_c, s, s]` → `[n, classes, s, s]` f32
    /// logits, mirroring [`UNet::forward`] in eval mode with int8
    /// convolutions.
    ///
    /// # Panics
    /// Panics if the input side is not a multiple of `2^depth`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let (_, _, h, w) = x.nchw();
        assert_eq!(h, w, "U-Net inputs are square");
        self.config.assert_input_side(h);

        let mut skips = Vec::with_capacity(self.config.depth);
        let mut cur = x.clone();
        for enc in &self.encoders {
            let feat = enc.forward(&cur);
            let (pooled, _) = ops::maxpool2x2(&feat);
            skips.push(feat);
            cur = pooled;
        }
        cur = self.bottleneck.forward(&cur);
        for (i, dec) in self.decoders.iter().enumerate() {
            let skip = &skips[self.config.depth - 1 - i];
            let u = ops::relu(&dec.up.forward(&cur));
            let cat = ops::concat_channels(skip, &u);
            cur = dec.block.forward(&cat);
        }
        self.head.forward(&cur)
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
        let logits = self.forward(x);
        model::argmax_classes(&logits, out);
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

        let mut obs = Observers::for_depth(cfg.depth);
        for x in calib.inputs() {
            self.observe(x, &mut obs);
        }

        let encoders = self
            .encoders
            .iter()
            .zip(&obs.enc)
            .map(|(enc, r)| QDoubleConv {
                conv1: QConv::build(&enc.conv1, r[0]),
                conv2: QConv::build(&enc.conv2, r[1]),
            })
            .collect();
        let bottleneck = QDoubleConv {
            conv1: QConv::build(&self.bottleneck.conv1, obs.bottleneck[0]),
            conv2: QConv::build(&self.bottleneck.conv2, obs.bottleneck[1]),
        };
        let decoders = self
            .decoders
            .iter()
            .zip(&obs.dec)
            .map(|(dec, r)| QDecoder {
                up: match &dec.up {
                    Up::Resize { conv, .. } => QUp::Resize(QConv::build(conv, r[0])),
                    Up::Transposed(t) => QUp::Transposed {
                        weight: t.weight().value.clone(),
                        bias: t.bias().value.clone(),
                        shape: *t.shape(),
                    },
                },
                block: QDoubleConv {
                    conv1: QConv::build(&dec.block.conv1, r[1]),
                    conv2: QConv::build(&dec.block.conv2, r[2]),
                },
            })
            .collect();
        let head = QConv::build(&self.head, obs.head);

        Ok(QuantizedUNet {
            config: cfg,
            encoders,
            bottleneck,
            decoders,
            head,
        })
    }

    /// Replays the eval-mode forward pass with raw f32 ops (no layer
    /// caching), recording each convolution's input range.
    fn observe(&self, x: &Tensor, obs: &mut Observers) {
        let conv =
            |c: &Conv2d, x: &Tensor| ops::conv2d(x, &c.weight().value, &c.bias().value, c.shape());

        let mut skips = Vec::with_capacity(self.config().depth);
        let mut cur = x.clone();
        for (level, enc) in self.encoders.iter().enumerate() {
            obs.enc[level][0].observe(&cur);
            let h = ops::relu(&conv(&enc.conv1, &cur));
            obs.enc[level][1].observe(&h);
            let feat = ops::relu(&conv(&enc.conv2, &h));
            let (pooled, _) = ops::maxpool2x2(&feat);
            skips.push(feat);
            cur = pooled;
        }

        obs.bottleneck[0].observe(&cur);
        let h = ops::relu(&conv(&self.bottleneck.conv1, &cur));
        obs.bottleneck[1].observe(&h);
        cur = ops::relu(&conv(&self.bottleneck.conv2, &h));

        for (i, dec) in self.decoders.iter().enumerate() {
            let skip = &skips[self.config().depth - 1 - i];
            let u = match &dec.up {
                Up::Resize { conv: c, .. } => {
                    let up = ops::upsample2x(&cur);
                    obs.dec[i][0].observe(&up);
                    conv(c, &up)
                }
                Up::Transposed(t) => {
                    ops::conv_transpose2d(&cur, &t.weight().value, &t.bias().value, t.shape())
                }
            };
            let u = ops::relu(&u);
            let cat = ops::concat_channels(skip, &u);
            obs.dec[i][1].observe(&cat);
            let h = ops::relu(&conv(&dec.block.conv1, &cat));
            obs.dec[i][2].observe(&h);
            cur = ops::relu(&conv(&dec.block.conv2, &h));
        }

        obs.head.observe(&cur);
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
}
