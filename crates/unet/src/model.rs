//! The U-Net model: the encoder and decoder blocks' parameters over
//! `seaice-nn` layers, and the forward and backward passes, which run the
//! walk (`walk.rs`): eval over a reused arena, training over a tape of
//! every image's planes that [`UNet::backward`] walks in reverse.

use crate::config::{UNetConfig, UpMode};
use crate::walk::{self, Arena, Step, Tape, Transposed};
use seaice_nn::layers::{Conv2d, ConvTranspose2d, Param};
use seaice_nn::ops::conv2d::Conv2dShape;
use seaice_nn::ops::convtranspose::ConvTranspose2dShape;
use seaice_nn::ops::{conv2d_into, ConvBuffers, DropoutStream, Planes, Sink};
use seaice_nn::Tensor;

/// Two 3×3 "same" convolutions, each followed by a ReLU, with dropout
/// between them — the repeated building block of both U-Net paths.
///
/// Fields are crate-visible so [`crate::quant`] can read the trained
/// weights when building the int8 twin of the network.
pub(crate) struct DoubleConv {
    pub(crate) conv1: Conv2d,
    pub(crate) conv2: Conv2d,
    /// Dropout rate.
    dropout: f32,
    /// Dropout seed, and the training forwards that drew from it.
    seed: u64,
    drawn: u64,
}

impl DoubleConv {
    fn new(in_c: usize, out_c: usize, dropout: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&dropout),
            "dropout rate must be in [0, 1)"
        );
        let mk = |in_channels| Conv2dShape {
            in_channels,
            out_channels: out_c,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        Self {
            conv1: Conv2d::new(mk(in_c), seed),
            conv2: Conv2d::new(mk(out_c), seed ^ 1),
            dropout,
            seed: seed ^ 0xD0,
            drawn: 0,
        }
    }

    /// A training forward's dropout draws: a stream seeded with the seed
    /// plus the training forwards so far, this one included; none at rate
    /// 0, which draws and counts nothing.
    fn draws(&mut self) -> Option<DropoutStream> {
        (self.dropout != 0.0).then(|| {
            self.drawn += 1;
            DropoutStream::new(self.dropout, self.seed.wrapping_add(self.drawn))
        })
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.conv1.params_mut();
        ps.extend(self.conv2.params_mut());
        ps
    }
}

/// The resolution-doubling front of a decoder step: either nearest
/// upsample + 3×3 convolution, or a true 2×2 stride-2 transposed
/// convolution (the paper's "up-convolution").
pub(crate) enum Up {
    Resize(Conv2d),
    Transposed(ConvTranspose2d),
}

impl Up {
    fn new(mode: UpMode, in_c: usize, out_c: usize, seed: u64) -> Self {
        match mode {
            UpMode::UpsampleConv => Up::Resize(Conv2d::new(
                Conv2dShape {
                    in_channels: in_c,
                    out_channels: out_c,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                seed,
            )),
            UpMode::Transposed => Up::Transposed(ConvTranspose2d::new(
                ConvTranspose2dShape::unet_upconv(in_c, out_c),
                seed,
            )),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            Up::Resize(conv) => conv.params_mut(),
            Up::Transposed(t) => t.params_mut(),
        }
    }
}

/// One decoder step: 2× up-path, skip concatenation, then a double
/// convolution.
pub(crate) struct Decoder {
    pub(crate) up: Up,
    pub(crate) block: DoubleConv,
}

impl Decoder {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.up.params_mut();
        ps.extend(self.block.params_mut());
        ps
    }
}

/// The full U-Net.
pub struct UNet {
    config: UNetConfig,
    pub(crate) encoders: Vec<DoubleConv>,
    pub(crate) bottleneck: DoubleConv,
    pub(crate) decoders: Vec<Decoder>,
    pub(crate) head: Conv2d,
    /// The eval walk's planes, reused across calls.
    arena: Arena,
    /// The last training forward's planes, which [`UNet::backward`] walks.
    tape: Tape,
}

impl UNet {
    /// Builds a freshly initialized network from the configuration.
    pub fn new(config: UNetConfig) -> Self {
        assert!(config.depth >= 1, "U-Net needs at least one level");
        let mut encoders = Vec::with_capacity(config.depth);
        let mut in_c = config.in_channels;
        for level in 0..config.depth {
            let out_c = config.filters_at(level);
            encoders.push(DoubleConv::new(
                in_c,
                out_c,
                config.dropout,
                config.seed.wrapping_add(level as u64 * 97),
            ));
            in_c = out_c;
        }
        let bottleneck_c = config.filters_at(config.depth);
        let bottleneck = DoubleConv::new(
            in_c,
            bottleneck_c,
            config.dropout,
            config.seed.wrapping_add(7919),
        );
        let mut decoders = Vec::with_capacity(config.depth);
        let mut cur_c = bottleneck_c;
        for level in (0..config.depth).rev() {
            let out_c = config.filters_at(level);
            let seed = config.seed.wrapping_add(1000 + level as u64 * 131);
            decoders.push(Decoder {
                up: Up::new(config.up_mode, cur_c, out_c, seed),
                // Skip channels, then the up path's.
                block: DoubleConv::new(2 * out_c, out_c, config.dropout, seed ^ 2),
            });
            cur_c = out_c;
        }
        let head = Conv2d::new(
            Conv2dShape {
                in_channels: cur_c,
                out_channels: config.num_classes,
                kernel: 1,
                stride: 1,
                pad: 0,
            },
            config.seed.wrapping_add(424242),
        );
        Self {
            config,
            encoders,
            bottleneck,
            decoders,
            head,
            arena: Arena::default(),
            tape: Tape::default(),
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &UNetConfig {
        &self.config
    }

    /// Forward pass: `[n, in_c, s, s]` → `[n, classes, s, s]` logits, by
    /// the walk. Eval mode runs it over the model's arena and keeps
    /// nothing; `train` draws dropout and keeps every image's planes for
    /// [`UNet::backward`].
    ///
    /// # Panics
    /// Panics if the input side is not a multiple of `2^depth`.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (n, s) = (x.nchw().0, self.input_side(x));
        let logits = if train {
            let mut drops: Vec<_> = self.blocks_mut().filter_map(DoubleConv::draws).collect();
            let mut tape = std::mem::take(&mut self.tape);
            let arena = &mut tape.arena;
            walk::walk(
                &self.config,
                &mut Eval::new(self),
                arena,
                x,
                Some(&mut drops),
            );
            tape.n = n;
            self.tape = tape;
            std::mem::take(&mut self.tape.arena.logits)
        } else {
            self.eval(x);
            std::mem::take(&mut self.arena.logits)
        };
        Tensor::from_vec(&[n, self.config.num_classes, s, s], logits)
    }

    /// Backward pass from the loss gradient on the logits of the last
    /// training forward: adds the batch's gradient into every parameter's
    /// `grad` and returns the input gradient.
    ///
    /// # Panics
    /// Panics before any training forward, and when `grad_logits` is not
    /// shaped like that forward's logits.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let zero = |p: &Param| Tensor::zeros(p.value.shape());
        let ps = self.params_mut();
        let mut sums: Vec<_> = ps.chunks(2).map(|p| (zero(p[0]), zero(p[1]))).collect();
        let (mut tape, net) = (std::mem::take(&mut self.tape), Eval::new(self));
        let dx = walk::backward(&self.config, &net, &mut tape, grad_logits, &mut sums);
        self.tape = tape;
        for (p, (dw, db)) in self.params_mut().chunks_exact_mut(2).zip(&sums) {
            p[0].grad.add_assign(dw);
            p[1].grad.add_assign(db);
        }
        dx
    }

    /// Every block, in walk order: encoders, bottleneck, decoders.
    fn blocks_mut(&mut self) -> impl Iterator<Item = &mut DoubleConv> {
        let decoders = self.decoders.iter_mut().map(|dec| &mut dec.block);
        self.encoders
            .iter_mut()
            .chain([&mut self.bottleneck])
            .chain(decoders)
    }

    /// All trainable parameters, in a stable order (used by the optimizer
    /// and by ring all-reduce, which relies on every rank sharing this
    /// order): each layer's weight, then its bias, in walk order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = Vec::new();
        for enc in &mut self.encoders {
            ps.extend(enc.params_mut());
        }
        ps.extend(self.bottleneck.params_mut());
        for dec in &mut self.decoders {
            ps.extend(dec.params_mut());
        }
        ps.extend(self.head.params_mut());
        ps
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.grad.zero();
        }
    }

    /// Total trainable scalar parameters.
    pub fn parameter_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }

    /// Per-pixel class predictions for a batch: argmax over the logits.
    pub fn predict(&mut self, x: &Tensor) -> Vec<u8> {
        let mut out = Vec::new();
        self.predict_into(x, &mut out);
        out
    }

    /// [`predict`] into a caller-owned buffer, so serving workers reuse
    /// one mask buffer across micro-batches instead of allocating per
    /// call. `out` is cleared and refilled with `n·h·w` class ids.
    ///
    /// Batch items are independent throughout the network (every op loops
    /// over the batch axis with per-item math), so a tile
    /// classified in a batch of any size gets bit-identical predictions
    /// to the same tile classified alone.
    pub fn predict_into(&mut self, x: &Tensor, out: &mut Vec<u8>) {
        let s = self.eval(x);
        argmax_classes(&self.arena.logits, self.config.num_classes, s * s, out);
    }

    /// The side of `x`, which must be square and fit the architecture.
    fn input_side(&self, x: &Tensor) -> usize {
        let (_, _, h, w) = x.nchw();
        assert_eq!(h, w, "U-Net inputs are square");
        self.config.assert_input_side(h);
        h
    }

    /// The eval walk of `x` into the arena's logits; returns the side.
    fn eval(&mut self, x: &Tensor) -> usize {
        let side = self.input_side(x);
        let mut arena = std::mem::take(&mut self.arena);
        walk::walk(&self.config, &mut Eval::new(self), &mut arena, x, None);
        self.arena = arena;
        side
    }

    /// Every [`Conv2d`], in walk order (see [`Step::conv`]).
    pub(crate) fn convs(&self) -> Vec<&Conv2d> {
        let blocks = self.encoders.iter().chain([&self.bottleneck]);
        let mut convs: Vec<&Conv2d> = blocks.flat_map(|b| [&b.conv1, &b.conv2]).collect();
        for dec in &self.decoders {
            if let Up::Resize(conv) = &dec.up {
                convs.push(conv);
            }
            convs.extend([&dec.block.conv1, &dec.block.conv2]);
        }
        convs.push(&self.head);
        convs
    }
}

/// The f32 network's step of the walk: every convolution through
/// `conv2d_into`.
pub(crate) struct Eval<'a> {
    /// Every convolution, in walk order.
    pub(crate) convs: Vec<&'a Conv2d>,
    decoders: &'a [Decoder],
}

impl<'a> Eval<'a> {
    pub(crate) fn new(net: &'a UNet) -> Self {
        Self {
            convs: net.convs(),
            decoders: &net.decoders,
        }
    }
}

impl Step for Eval<'_> {
    fn conv(&mut self, k: usize, src: &Planes, dst: Sink<'_>, buf: &mut ConvBuffers) {
        let c = self.convs[k];
        conv2d_into(src, &c.weight().value, &c.bias().value, c.shape(), dst, buf);
    }

    fn transposed(&self, i: usize) -> Option<Transposed<'_>> {
        match &self.decoders[i].up {
            Up::Transposed(t) => Some(Transposed {
                weight: &t.weight().value,
                bias: &t.bias().value,
                shape: t.shape(),
            }),
            Up::Resize(_) => None,
        }
    }
}

/// Per-pixel argmax over `[n, classes, h, w]` logits (`plane = h · w`) into
/// a reused mask buffer — shared by the f32 and the int8
/// ([`crate::quant::QuantizedUNet`]) prediction paths so both backends
/// break logit ties identically (first-best wins).
pub(crate) fn argmax_classes(data: &[f32], k: usize, plane: usize, out: &mut Vec<u8>) {
    let n = data.len() / (k * plane);
    out.clear();
    out.resize(n * plane, 0u8);
    for b in 0..n {
        for p in 0..plane {
            let base = b * k * plane + p;
            let mut best = f32::NEG_INFINITY;
            let mut arg = 0u8;
            for c in 0..k {
                let v = data[base + c * plane];
                if v > best {
                    best = v;
                    // seaice-lint: allow(narrowing-cast-in-kernel) reason="c indexes the class channels (3 for this workflow's masks); the u8 mask format caps class counts at 256 by contract"
                    arg = c as u8;
                }
            }
            out[b * plane + p] = arg;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaice_nn::init::uniform;
    use seaice_nn::loss::softmax_cross_entropy;

    fn tiny_config() -> UNetConfig {
        UNetConfig {
            depth: 2,
            base_filters: 4,
            dropout: 0.0,
            seed: 7,
            ..UNetConfig::paper()
        }
    }

    #[test]
    fn forward_shape_is_input_resolution_with_class_channels() {
        let mut net = UNet::new(tiny_config());
        let x = uniform(&[2, 3, 16, 16], 0.0, 1.0, 1);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), &[2, 3, 16, 16]);
    }

    #[test]
    fn forward_is_deterministic_in_eval_mode() {
        let mut net = UNet::new(tiny_config());
        let x = uniform(&[1, 3, 16, 16], 0.0, 1.0, 2);
        let a = net.forward(&x, false);
        let b = net.forward(&x, false);
        assert_eq!(a, b);
    }

    #[test]
    fn same_seed_same_network() {
        let mut a = UNet::new(tiny_config());
        let mut b = UNet::new(tiny_config());
        let x = uniform(&[1, 3, 16, 16], 0.0, 1.0, 3);
        assert_eq!(a.forward(&x, false), b.forward(&x, false));
    }

    #[test]
    fn backward_produces_gradients_for_every_param() {
        let mut net = UNet::new(tiny_config());
        let x = uniform(&[1, 3, 16, 16], 0.0, 1.0, 4);
        let targets: Vec<u8> = (0..256).map(|i| (i % 3) as u8).collect();
        let y = net.forward(&x, true);
        let lo = softmax_cross_entropy(&y, &targets);
        let dx = net.backward(&lo.grad);
        assert_eq!(dx.shape(), x.shape());
        for (i, p) in net.params_mut().into_iter().enumerate() {
            assert!(p.grad.max_abs() > 0.0, "parameter {i} received no gradient");
        }
    }

    #[test]
    fn parameter_count_is_stable_and_positive() {
        let mut net = UNet::new(tiny_config());
        let n = net.parameter_count();
        assert!(n > 1000, "suspiciously small network: {n}");
        assert_eq!(n, net.parameter_count());
    }

    #[test]
    fn predictions_are_valid_classes() {
        let mut net = UNet::new(tiny_config());
        let x = uniform(&[2, 3, 16, 16], 0.0, 1.0, 5);
        let preds = net.predict(&x);
        assert_eq!(preds.len(), 2 * 256);
        assert!(preds.iter().all(|&c| c < 3));
    }

    #[test]
    fn batched_predict_matches_per_item_predict() {
        let mut net = UNet::new(tiny_config());
        let x = uniform(&[3, 3, 16, 16], 0.0, 1.0, 11);
        let batched = net.predict(&x);
        let mut reused = vec![0xAAu8; 1]; // dirty buffer must be overwritten
        for b in 0..3 {
            let item = Tensor::from_vec(&[1, 3, 16, 16], x.batch_item(b).to_vec());
            net.predict_into(&item, &mut reused);
            assert_eq!(
                reused,
                &batched[b * 256..(b + 1) * 256],
                "batch item {b} diverged from its solo prediction"
            );
        }
    }

    #[test]
    fn transposed_up_mode_trains_too() {
        use crate::config::UpMode;
        use seaice_nn::loss::softmax_cross_entropy;
        use seaice_nn::optim::{Adam, Optimizer};
        let mut net = UNet::new(UNetConfig {
            up_mode: UpMode::Transposed,
            ..tiny_config()
        });
        let x = uniform(&[1, 3, 16, 16], 0.0, 1.0, 8);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), &[1, 3, 16, 16]);
        // One training step produces gradients in every parameter and
        // reduces the loss.
        let targets: Vec<u8> = (0..256).map(|i| (i % 3) as u8).collect();
        let mut adam = Adam::new(1e-2);
        let before = softmax_cross_entropy(&net.forward(&x, true), &targets).loss;
        for _ in 0..5 {
            net.zero_grads();
            let logits = net.forward(&x, true);
            let lo = softmax_cross_entropy(&logits, &targets);
            net.backward(&lo.grad);
            adam.step(&mut net.params_mut());
        }
        let after = softmax_cross_entropy(&net.forward(&x, false), &targets).loss;
        assert!(
            after < before,
            "transposed U-Net must train: {before} -> {after}"
        );
        // The two up modes are genuinely different networks.
        let mut other = UNet::new(tiny_config());
        assert_ne!(net.parameter_count(), other.parameter_count());
    }

    #[test]
    fn one_adam_step_reduces_loss_on_fixed_batch() {
        use seaice_nn::optim::{Adam, Optimizer};
        let mut net = UNet::new(tiny_config());
        let x = uniform(&[2, 3, 16, 16], 0.0, 1.0, 6);
        let targets: Vec<u8> = (0..512).map(|i| (i % 3) as u8).collect();
        let mut adam = Adam::new(1e-2);
        let y = net.forward(&x, true);
        let before = softmax_cross_entropy(&y, &targets).loss;
        for _ in 0..10 {
            net.zero_grads();
            let y = net.forward(&x, true);
            let lo = softmax_cross_entropy(&y, &targets);
            net.backward(&lo.grad);
            adam.step(&mut net.params_mut());
        }
        let y = net.forward(&x, false);
        let after = softmax_cross_entropy(&y, &targets).loss;
        assert!(
            after < before,
            "training must reduce loss: {before} → {after}"
        );
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// With dropout 0 the training forward computes what eval computes:
    /// the eval walk over the arena equals the train walk over the tape,
    /// bit for bit, in both up modes and at batch 1 and 3.
    #[test]
    fn the_eval_walk_equals_the_train_walks_logits_at_dropout_0() {
        for up_mode in [UpMode::UpsampleConv, UpMode::Transposed] {
            let mut net = UNet::new(UNetConfig {
                up_mode,
                ..tiny_config()
            });
            for (n, seed) in [(1, 31), (3, 32)] {
                let x = uniform(&[n, 3, 16, 16], -0.5, 1.0, seed);
                let train = net.forward(&x, true);
                assert_eq!(
                    bits(&net.forward(&x, false)),
                    bits(&train),
                    "{up_mode:?}, n = {n}"
                );
            }
        }
    }

    /// The arena re-sizes on a side change and back again: 64²·1 → 16²·3 →
    /// 64²·1 on one model gives a fresh model's bits at every call.
    #[test]
    fn arena_reuse_across_sides_matches_fresh_models() {
        let mut reused = UNet::new(tiny_config());
        for (n, side, seed) in [(1, 64, 41), (3, 16, 42), (1, 64, 43)] {
            let x = uniform(&[n, 3, side, side], 0.0, 1.0, seed);
            let fresh = UNet::new(tiny_config()).forward(&x, false);
            assert_eq!(
                bits(&reused.forward(&x, false)),
                bits(&fresh),
                "{n} × {side}²"
            );
            let mut mask = Vec::new();
            reused.predict_into(&x, &mut mask);
            assert_eq!(
                mask,
                UNet::new(tiny_config()).predict(&x),
                "{n} × {side}² mask"
            );
        }
    }

    /// An eval call between training steps leaves training intact: the
    /// step after it equals the same step on a model that never evaluated.
    #[test]
    fn training_after_an_eval_call_still_trains() {
        let x = uniform(&[2, 3, 16, 16], 0.0, 1.0, 51);
        let targets: Vec<u8> = (0..512).map(|i| (i % 3) as u8).collect();
        let step = |net: &mut UNet, eval_first: bool| {
            if eval_first {
                net.forward(&uniform(&[1, 3, 32, 32], 0.0, 1.0, 52), false);
            }
            net.zero_grads();
            let lo = softmax_cross_entropy(&net.forward(&x, true), &targets);
            net.backward(&lo.grad);
            net.params_mut()
                .iter()
                .map(|p| bits(&p.grad))
                .collect::<Vec<_>>()
        };
        let (mut a, mut b) = (UNet::new(tiny_config()), UNet::new(tiny_config()));
        let grads = step(&mut a, true);
        assert_eq!(grads, step(&mut b, false));
        assert!(a.params_mut().iter().all(|p| p.grad.max_abs() > 0.0));
    }

    #[test]
    #[should_panic(expected = "must be a positive multiple")]
    fn wrong_input_side_panics() {
        let mut net = UNet::new(tiny_config());
        let x = Tensor::zeros(&[1, 3, 10, 10]);
        let _ = net.forward(&x, false);
    }
}
