//! The U-Net's forward pass, written once, and the backward pass that
//! walks it in reverse. The f32 network, its int8 twin and calibration run
//! [`walk`] in eval mode; what differs between them is the [`Step`] each
//! convolution takes. A training forward runs it over a [`Tape`]'s arena,
//! keeping every image's planes, and [`backward`] walks them in reverse.
//!
//! Every layer stores straight into its consumer's haloed input:
//! * a 3×3 convolution stores `max(0, acc + b)` into the interior of the
//!   next convolution's input, so there is no halo copy, no output
//!   allocation and no ReLU pass (a block's dropout then drops its middle
//!   plane in place);
//! * an encoder's second convolution stores into the first channels of its
//!   decoder's concatenation plane (skip channels come first), and the
//!   up-convolution into the last ones, so the concatenation is free;
//! * the pool and the upsample store into the next convolution's input;
//!   the head stores plain logits;
//! * backward, a convolution's `dX` stores into a haloed gradient plane
//!   through the mask of the forward plane it differentiates — ReLU's and
//!   dropout's backward fused into the store — and the concatenation's
//!   gradient is one plane whose channel ranges the skip and the
//!   up-convolution read.
//!
//! Every value is the one the separate ops compute, bit for bit (DESIGN.md
//! §4.10, "The walk"): the fused ReLU is `ops::relu`'s expression on the
//! same value (a convolution's chain never holds `−0.0`), the pool makes
//! the same comparisons, the copies are copies, and the backward's masks
//! and sums are the separate backward ops' expressions in their order.

use crate::config::{UNetConfig, UpMode};
use crate::model::Eval;
use seaice_nn::ops::{
    conv2d_backward_into, conv_transpose2d, conv_transpose2d_backward, maxpool2x2_backward_into,
    maxpool2x2_into, upsample2x_backward_into, upsample2x_into, ConvBuffers, ConvTranspose2dShape,
    DropoutStream, GradBuffers, Planes, Sink,
};
use seaice_nn::Tensor;
use std::sync::{Mutex, TryLockError};

/// What one model does at each convolution of the walk.
pub(crate) trait Step {
    /// Runs convolution `k` — the `k`-th in walk order: encoder levels,
    /// bottleneck, decoder steps (up-convolution, then the block), head —
    /// from `src` through `dst`.
    fn conv(&mut self, k: usize, src: &Planes, dst: Sink<'_>, buf: &mut ConvBuffers);

    /// Decoder step `i`'s transposed up-convolution, or `None` when the
    /// step upsamples and convolves.
    fn transposed(&self, i: usize) -> Option<Transposed<'_>>;
}

/// The f32 operands of a transposed up-convolution (`UpMode::Transposed`,
/// which the int8 twin keeps in f32 too).
pub(crate) struct Transposed<'a> {
    pub(crate) weight: &'a Tensor,
    pub(crate) bias: &'a Tensor,
    pub(crate) shape: &'a ConvTranspose2dShape,
}

/// The planes of one resolution level. A 3×3 convolution's input has a
/// border of 1 (its padding); what only the pool, the upsample or the 1×1
/// head reads has none. The backward pass keeps each plane's gradient in a
/// `Level` too.
#[derive(Default)]
struct Level {
    /// The first convolution's input: the image at level 0, the pooled
    /// level above otherwise.
    input: Planes,
    /// The encoder's (or bottleneck's) first convolution's output.
    mid: Planes,
    /// The decoder block's first convolution's output. Empty at the bottom.
    dec_mid: Planes,
    /// The decoder's concatenation: skip channels, then up channels. Empty
    /// at the bottom level.
    cat: Planes,
    /// The upsampled level below, the up-convolution's input. Empty at the
    /// bottom level and for `UpMode::Transposed`.
    up: Planes,
    /// The block's second convolution's output: what the level above
    /// upsamples, or the head's input at level 0.
    out: Planes,
}

/// One image's [`Level`]s for `cfg` at `side`, zeroed, `out` bordered by
/// `out_halo`: 0 for the forward's, 1 for its gradient, which a 3×3
/// convolution's `dX` gathers from.
fn levels(cfg: &UNetConfig, side: usize, out_halo: usize) -> Vec<Level> {
    let f = |level| cfg.filters_at(level);
    let resize = cfg.up_mode == UpMode::UpsampleConv;
    let planes = |c, s, halo, keep: bool| match keep {
        true => Planes::new((c, s, s), halo),
        false => Planes::default(),
    };
    (0..=cfg.depth)
        .map(|l| {
            let (s, top) = (side >> l, l < cfg.depth);
            let in_c = if l == 0 { cfg.in_channels } else { f(l - 1) };
            Level {
                input: planes(in_c, s, 1, true),
                mid: planes(f(l), s, 1, true),
                dec_mid: planes(f(l), s, 1, top),
                cat: planes(2 * f(l), s, 1, top),
                up: planes(f(l + 1), s, 1, top && resize),
                out: planes(f(l), s, out_halo, true),
            }
        })
        .collect()
}

/// The planes [`walk`] reuses across calls — per image kept, its levels,
/// for one tile side, zeroed when sized (a side change re-sizes them) —
/// the convolutions' packing scratch, and the logits of the last call. Not
/// model state.
#[derive(Default)]
pub(crate) struct Arena {
    side: usize,
    images: Vec<Vec<Level>>,
    buf: ConvBuffers,
    /// `[n, classes, s, s]` logits of the last [`walk`].
    pub(crate) logits: Vec<f32>,
}

/// A training forward's [`Arena`] — its own, so an eval call in between
/// leaves it alone — and the backward's buffers. Not model state.
#[derive(Default)]
pub(crate) struct Tape {
    pub(crate) arena: Arena,
    /// Images of the last training forward.
    pub(crate) n: usize,
    /// One image's gradients and its logits', reused image after image.
    grads: Vec<Level>,
    logits: Planes,
    /// Per convolution, in walk order, what its backward packs once a step.
    bufs: Vec<GradBuffers>,
}

/// An [`Arena`] for a model used through `&self`: behind a lock that is
/// only ever tried, so a model shared between threads never waits — a
/// caller that finds it taken runs on a fresh arena. Every one equals every
/// other and a clone starts empty, so the model's `PartialEq` and `Clone`
/// see only the model.
#[derive(Default)]
pub(crate) struct SharedArena(Mutex<Arena>);

impl SharedArena {
    /// Runs `f` on the arena, or on a fresh one while another call holds it.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut Arena) -> R) -> R {
        match self.0.try_lock() {
            Ok(mut arena) => f(&mut arena),
            // A walk that panicked left planes every call overwrites.
            Err(TryLockError::Poisoned(p)) => f(&mut p.into_inner()),
            Err(TryLockError::WouldBlock) => f(&mut Arena::default()),
        }
    }
}

impl Clone for SharedArena {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for SharedArena {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for SharedArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedArena")
    }
}

/// The forward pass of `x` (`[n, in_c, s, s]`, `s` already checked against
/// the architecture), one image at a time through the topology, written
/// once, leaving `[n, classes, s, s]` logits in `arena.logits`. In eval
/// mode (`drops` is `None`) every image reuses one image's planes. A
/// training forward keeps each image's and draws block `j`'s dropout (walk
/// order: encoders, bottleneck, decoder steps) from `drops[j]`, none at
/// rate 0; each stream continues from image to image, so a batch draws
/// what dropout over the whole batch tensor draws.
///
/// # Panics
/// Panics when `x` does not have `cfg.in_channels` channels.
pub(crate) fn walk<S: Step>(
    cfg: &UNetConfig,
    step: &mut S,
    arena: &mut Arena,
    x: &Tensor,
    drops: Option<&mut [DropoutStream]>,
) {
    let (n, _, s, _) = x.nchw();
    let (d, f, classes) = (cfg.depth, |l| cfg.filters_at(l), cfg.num_classes);
    let train = drops.is_some();
    if arena.side != s {
        (arena.images, arena.side) = (Vec::new(), s);
    }
    while arena.images.len() < if train { n } else { 1 } {
        arena.images.push(levels(cfg, s, 0));
    }
    let drops = drops.unwrap_or_default();
    arena.logits.resize(n * classes * s * s, 0.0);
    for (b, logits) in arena.logits.chunks_exact_mut(classes * s * s).enumerate() {
        let levels = &mut arena.images[if train { b } else { 0 }];
        levels[0].input.fill(x.batch_item(b));
        let mut k = 0;
        let mut conv = |step: &mut S, src: &Planes, dst: Sink<'_>| {
            step.conv(k, src, dst, &mut arena.buf);
            k += 1;
        };
        let mut draw = |block: usize, mid: &mut Planes| {
            if let Some(drop) = drops.get_mut(block) {
                drop.apply(mid);
            }
        };
        for l in 0..=d {
            let (this, below) = levels.split_at_mut(l + 1);
            let lv = &mut this[l];
            conv(step, &lv.input, relu_into(&mut lv.mid, 0, f(l)));
            draw(l, &mut lv.mid);
            if l == d {
                conv(step, &lv.mid, relu_into(&mut lv.out, 0, f(l)));
                break;
            }
            conv(step, &lv.mid, relu_into(&mut lv.cat, 0, f(l)));
            maxpool2x2_into(&lv.cat, Sink::planes(&mut below[0].input, 0, f(l)));
        }
        for (i, l) in (0..d).rev().enumerate() {
            let (this, below) = levels.split_at_mut(l + 1);
            let (lv, below) = (&mut this[l], &below[0]);
            let mut up_c = relu_into(&mut lv.cat, f(l), f(l));
            match step.transposed(i) {
                Some(t) => {
                    let (c, h, w) = below.out.dims();
                    let x = Tensor::from_vec(&[1, c, h, w], below.out.interior());
                    up_c.put(conv_transpose2d(&x, t.weight, t.bias, t.shape).as_slice());
                }
                None => {
                    upsample2x_into(&below.out, Sink::planes(&mut lv.up, 0, f(l + 1)));
                    conv(step, &lv.up, up_c);
                }
            }
            conv(step, &lv.cat, relu_into(&mut lv.dec_mid, 0, f(l)));
            draw(d + 1 + i, &mut lv.dec_mid);
            conv(step, &lv.dec_mid, relu_into(&mut lv.out, 0, f(l)));
        }
        conv(step, &levels[0].out, Sink::plain(logits, (classes, s, s)));
    }
}

/// Channels `ch0..ch0 + c` of `planes`, stored through ReLU.
fn relu_into(planes: &mut Planes, ch0: usize, c: usize) -> Sink<'_> {
    Sink::planes(planes, ch0, c).through_relu()
}

/// The backward pass of the last training [`walk`] under `grad`, the
/// logits' gradient: one image at a time, in reverse walk order, over that
/// forward's tape. Adds each parameter layer's gradients, image after image
/// as `conv2d_backward` sums them, into `sums` (`UNet::params_mut` order)
/// and returns the input gradient.
///
/// # Panics
/// Panics before any training forward, and on a `grad` not shaped like
/// that forward's logits.
pub(crate) fn backward(
    cfg: &UNetConfig,
    net: &Eval<'_>,
    tape: &mut Tape,
    grad: &Tensor,
    sums: &mut [(Tensor, Tensor)],
) -> Tensor {
    assert!(tape.n > 0, "backward before forward");
    let (n, s, d, f) = (tape.n, tape.arena.side, cfg.depth, |l| cfg.filters_at(l));
    let (in_c, shape) = (cfg.in_channels, [n, cfg.num_classes, s, s]);
    assert_eq!(grad.shape(), shape, "logits gradient shape mismatch");
    if tape.logits.dims().1 != s {
        tape.grads = levels(cfg, s, 1);
        tape.logits = Planes::new((cfg.num_classes, s, s), 0);
    }
    // The weights moved since the last backward.
    tape.bufs.resize_with(net.convs.len(), GradBuffers::default);
    tape.bufs.iter_mut().for_each(GradBuffers::weights_moved);
    // The dropout sites' `dX` scale, as `DropoutStream` computes it: 1 at
    // rate 0, where dropout's backward passes the gradient as it is.
    let scale = 1.0 / (1.0 - cfg.dropout);
    let (grads, logits) = (&mut tape.grads, &mut tape.logits);
    let mut dx = Tensor::zeros(&[n, in_c, s, s]);
    let mut back = Back {
        net,
        sums,
        bufs: &mut tape.bufs,
        k: 0,
        s: 0,
    };
    let items = dx.as_mut_slice().chunks_exact_mut(in_c * s * s);
    for (b, (dx, lv)) in items.zip(&tape.arena.images).enumerate() {
        (back.k, back.s) = (net.convs.len(), back.sums.len());
        logits.fill(grad.batch_item(b));
        let head = masked(&mut grads[0].out, &lv[0].out, 1.0);
        back.conv(&lv[0].out, (&*logits, 0), head);
        for l in 0..d {
            let (this, below) = grads.split_at_mut(l + 1);
            let (g, lv, lv_below) = (&mut this[l], &lv[l], &lv[l + 1]);
            let mid = masked(&mut g.mid, &lv.dec_mid, scale);
            back.conv(&lv.dec_mid, (&g.out, 0), mid);
            back.conv(&lv.cat, (&g.mid, 0), masked(&mut g.cat, &lv.cat, 1.0));
            let up = masked(&mut below[0].out, &lv_below.out, 1.0);
            match net.transposed(d - 1 - l) {
                Some(t) => back.transposed(&t, &lv_below.out, (&g.cat, f(l)), up),
                None => {
                    back.conv(&lv.up, (&g.cat, f(l)), Sink::planes(&mut g.up, 0, f(l + 1)));
                    upsample2x_backward_into(&g.up, up);
                }
            }
        }
        // The bottleneck, then each encoder level: its conv2's output
        // gradient is the pool's (plus the skip's) above the bottleneck.
        for l in (0..=d).rev() {
            let (this, below) = grads.split_at_mut(l + 1);
            let (g, lv) = (&mut this[l], &lv[l]);
            if l < d {
                let skip = Sink::planes(&mut g.cat, 0, f(l));
                maxpool2x2_backward_into(&lv.cat, &below[0].input, skip);
            }
            let gy = if l < d { &g.cat } else { &g.out };
            back.conv(&lv.mid, (gy, 0), masked(&mut g.mid, &lv.mid, scale));
            let dx = match l {
                0 => Sink::plain(&mut *dx, (in_c, s, s)),
                _ => Sink::planes(&mut g.input, 0, f(l - 1)),
            };
            back.conv(&lv.input, (&g.mid, 0), dx);
        }
    }
    dx
}

/// All of `grad`'s channels, stored through the mask of the forward planes
/// `by` (`Sink::through_mask`).
fn masked<'a>(grad: &'a mut Planes, by: &'a Planes, scale: f32) -> Sink<'a> {
    let c = grad.dims().0;
    Sink::planes(grad, 0, c).through_mask(by, scale)
}

/// The backward walk's layers: their weights, the batch sums, and the next
/// layer back — convolution `k` of the walk, parameter layer `s`.
struct Back<'a, 'n> {
    net: &'a Eval<'n>,
    sums: &'a mut [(Tensor, Tensor)],
    bufs: &'a mut [GradBuffers],
    k: usize,
    s: usize,
}

impl Back<'_, '_> {
    /// The next convolution back, from its input `x` under its output's
    /// gradient (channels `ch0..` of `gy`), `dX` stored through `dx`.
    fn conv(&mut self, x: &Planes, gy: (&Planes, usize), dx: Sink<'_>) {
        (self.k, self.s) = (self.k - 1, self.s - 1);
        let (c, (dw, db)) = (self.net.convs[self.k], &mut self.sums[self.s]);
        let sums = (dw.as_mut_slice(), db.as_mut_slice());
        let buf = &mut self.bufs[self.k];
        conv2d_backward_into(x, &c.weight().value, gy, c.shape(), dx, sums, buf);
    }

    /// The next layer back being the transposed up-convolution `t`: the
    /// batch op on this one image.
    fn transposed(
        &mut self,
        t: &Transposed<'_>,
        x: &Planes,
        gy: (&Planes, usize),
        mut dx: Sink<'_>,
    ) {
        self.s -= 1;
        let ((c, h, w), (gy, ch0), oc) = (x.dims(), gy, t.shape.out_channels);
        let (_, oh, ow) = gy.dims();
        let g = gy.interior()[ch0 * oh * ow..][..oc * oh * ow].to_vec();
        let x = Tensor::from_vec(&[1, c, h, w], x.interior());
        let g = Tensor::from_vec(&[1, oc, oh, ow], g);
        let (gx, gw, gb) = conv_transpose2d_backward(&x, t.weight, &g, t.shape);
        dx.put(gx.as_slice());
        let (dw, db) = &mut self.sums[self.s];
        dw.add_assign(&gw);
        db.add_assign(&gb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_taken_shared_arena_hands_out_a_fresh_one() {
        let shared = SharedArena::default();
        shared.with(|arena| arena.side = 64);
        let held = shared.0.lock();
        assert_eq!(shared.with(|arena| arena.side), 0, "fresh while held");
        drop(held);
        assert_eq!(shared.with(|arena| arena.side), 64, "the kept one after");
        assert_eq!(
            shared.clone().with(|arena| arena.side),
            0,
            "a clone starts empty"
        );
    }
}
