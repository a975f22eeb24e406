//! The eval-mode forward pass, written once. The f32 network, its int8
//! twin and calibration all run [`walk`]; what differs between them is the
//! [`Step`] each convolution takes. Training keeps the layer path, which
//! caches what its backward pass needs.
//!
//! The walk runs over an [`Arena`] of haloed planes the model keeps and
//! reuses, and every layer stores straight into its consumer's input:
//! * a 3×3 convolution stores `max(0, acc + b)` into the interior of the
//!   next convolution's haloed input, so there is no halo copy, no output
//!   allocation and no ReLU pass;
//! * an encoder's second convolution stores into the first channels of its
//!   decoder's concatenation plane (skip channels come first), and the
//!   decoder's up-convolution into the last ones, so the concatenation is
//!   free;
//! * the pool reads that plane and stores into the next level's input;
//! * the upsample stores into the up-convolution's haloed input;
//! * the head stores plain logits, which `argmax_classes` reads.
//!
//! Every value is the one the layer path computes, bit for bit: the fused
//! ReLU is `ops::relu`'s expression on the same value (a convolution's
//! chain starts at `+0.0` and never holds `−0.0`, so there is no signed
//! zero for `max` to choose between), the pool makes the same comparisons
//! and the copies are copies (DESIGN.md §4.10, "The inference walk").

use crate::config::{UNetConfig, UpMode};
use seaice_nn::ops::{
    conv_transpose2d, maxpool2x2_into, upsample2x_into, ConvBuffers, ConvTranspose2dShape, Planes,
    Sink,
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
/// head reads has none.
#[derive(Default)]
struct Level {
    /// The first convolution's input: the image at level 0, the pooled
    /// level above otherwise.
    input: Planes,
    /// Each block's first convolution's output, encoder and decoder alike.
    mid: Planes,
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

/// The buffers [`walk`] reuses across calls: planes for one tile side,
/// zeroed when sized (a side change re-sizes them), the convolutions'
/// packing scratch, and the logits of the last call. Not model state.
#[derive(Default)]
pub(crate) struct Arena {
    side: usize,
    levels: Vec<Level>,
    buf: ConvBuffers,
    /// `[n, classes, s, s]` logits of the last [`walk`].
    pub(crate) logits: Vec<f32>,
}

impl Arena {
    /// Sizes the planes for `cfg` at `side`, unless they already are.
    fn fit(&mut self, cfg: &UNetConfig, side: usize) {
        if self.side == side && !self.levels.is_empty() {
            return;
        }
        let f = |level| cfg.filters_at(level);
        let resize = cfg.up_mode == UpMode::UpsampleConv;
        let planes = |c, s, halo, keep: bool| match keep {
            true => Planes::new((c, s, s), halo),
            false => Planes::default(),
        };
        self.levels = (0..=cfg.depth)
            .map(|l| {
                let (s, top) = (side >> l, l < cfg.depth);
                let in_c = if l == 0 { cfg.in_channels } else { f(l - 1) };
                Level {
                    input: planes(in_c, s, 1, true),
                    mid: planes(f(l), s, 1, true),
                    cat: planes(2 * f(l), s, 1, top),
                    up: planes(f(l + 1), s, 1, top && resize),
                    out: planes(f(l), s, 0, true),
                }
            })
            .collect();
        self.side = side;
    }
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

/// The eval-mode forward pass of `x` (`[n, in_c, s, s]`, `s` already
/// checked against the architecture), one image at a time, leaving
/// `[n, classes, s, s]` logits in `arena.logits`.
///
/// # Panics
/// Panics when `x` does not have `cfg.in_channels` channels.
pub(crate) fn walk<S: Step>(cfg: &UNetConfig, step: &mut S, arena: &mut Arena, x: &Tensor) {
    let (n, _, s, _) = x.nchw();
    arena.fit(cfg, s);
    let Arena {
        levels,
        buf,
        logits,
        ..
    } = arena;
    let (d, f, classes) = (cfg.depth, |l| cfg.filters_at(l), cfg.num_classes);
    logits.resize(n * classes * s * s, 0.0);
    for (b, logits) in logits.chunks_exact_mut(classes * s * s).enumerate() {
        levels[0].input.fill(x.batch_item(b));
        let mut k = 0;
        let mut conv = |step: &mut S, src: &Planes, dst: Sink<'_>| {
            step.conv(k, src, dst, buf);
            k += 1;
        };
        for l in 0..=d {
            let (this, below) = levels.split_at_mut(l + 1);
            let lv = &mut this[l];
            conv(step, &lv.input, relu_into(&mut lv.mid, 0, f(l)));
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
            conv(step, &lv.cat, relu_into(&mut lv.mid, 0, f(l)));
            conv(step, &lv.mid, relu_into(&mut lv.out, 0, f(l)));
        }
        conv(step, &levels[0].out, Sink::plain(logits, (classes, s, s)));
    }
}

/// Channels `ch0..ch0 + c` of `planes`, stored through ReLU.
fn relu_into(planes: &mut Planes, ch0: usize, c: usize) -> Sink<'_> {
    Sink::planes(planes, ch0, c).through_relu()
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
