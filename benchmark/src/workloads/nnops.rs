//! `nn::ops` timed at the shapes a model runs them at: the layer below
//! `unet.predict_*` and `unet.backward`, reached from outside by calling
//! the public ops on tensors shaped like the model's own.
//!
//! Weights and biases are the checkpoint's (which also proves the shape
//! derivation right, tensor by tensor); activations are seeded noise in
//! `[0, 1)`, since the ops' cost does not depend on activation values.

use crate::gen::derive;
use crate::shapes::ConvSite;
use crate::spans::Spans;
use seaice_nn::ops::quant::{
    gemm_i8_i32, im2col_i8, qconv2d, quantize_into, quantize_weights, QuantParams, QuantizedWeights,
};
use seaice_nn::ops::{
    col2im, concat_channels, conv2d, conv2d_backward, im2col, matmul, matmul_a_bt, matmul_at_b,
    maxpool2x2, relu, upsample2x,
};
use seaice_nn::Tensor;
use seaice_unet::checkpoint::Checkpoint;
use seaice_unet::UNetConfig;
use std::time::Instant;

/// One conv site with tensors to run it on.
pub struct SiteData {
    pub site: ConvSite,
    weight: Tensor,
    bias: Tensor,
    qweight: QuantizedWeights,
    /// One image, CHW (what `im2col` takes).
    chw: Tensor,
    /// The same image as a batch of one.
    nchw: Tensor,
}

fn noise(shape: &[usize], seed: u64) -> Tensor {
    let len: usize = shape.iter().product();
    let mut state = seed | 1;
    let data = (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// Pairs every site with the checkpoint's weights for it.
///
/// # Errors
/// Names the first parameter whose shape the derivation got wrong.
pub fn site_data(
    ckpt: &Checkpoint,
    sites: &[ConvSite],
    seed: u64,
) -> Result<Vec<SiteData>, String> {
    if ckpt.params.len() != 2 * sites.len() {
        return Err(format!(
            "derived {} conv sites but the checkpoint holds {} parameter tensors",
            sites.len(),
            ckpt.params.len()
        ));
    }
    sites
        .iter()
        .enumerate()
        .map(|(i, &site)| {
            let (weight, bias) = (&ckpt.params[2 * i], &ckpt.params[2 * i + 1]);
            let want = [site.shape.out_channels, site.patch_rows()];
            if weight.shape() != want || bias.shape() != [site.shape.out_channels] {
                return Err(format!(
                    "conv site {i}: derived weight shape {want:?}, checkpoint has {:?}",
                    weight.shape()
                ));
            }
            let c = site.shape.in_channels;
            let chw = noise(&[c, site.side, site.side], derive(seed, 0x0A00 + i as u64));
            let nchw = chw.clone().reshape(&[1, c, site.side, site.side]);
            Ok(SiteData {
                site,
                weight: weight.clone(),
                bias: bias.clone(),
                qweight: quantize_weights(weight),
                chw,
                nchw,
            })
        })
        .collect()
}

/// Repeats `pass` until `seconds` have gone by (at least once); returns
/// how many passes ran.
fn passes(seconds: f64, mut pass: impl FnMut(u64)) -> u64 {
    let t = Instant::now();
    let mut n = 0;
    while n == 0 || t.elapsed().as_secs_f64() < seconds {
        pass(n);
        n += 1;
    }
    n
}

/// f32 forward ops, one tile per pass: `nn.im2col`, `nn.matmul` and the
/// whole `nn.conv2d` at every site.
pub fn forward_f32(spans: &Spans, data: &[SiteData], seconds: f64) -> u64 {
    passes(seconds, |id| {
        for d in data {
            let s = &d.site.shape;
            let cols = spans.span("nn.im2col", id, || {
                im2col(&d.chw, s.kernel, s.kernel, s.stride, s.pad)
            });
            spans.span("nn.matmul", id, || matmul(&d.weight, &cols));
            spans.span("nn.conv2d", id, || conv2d(&d.nchw, &d.weight, &d.bias, s));
        }
    })
}

/// int8 forward ops, one tile per pass: quantise, int8 im2col, the i8→i32
/// GEMM, and the whole `nn.qconv2d` at every site.
pub fn forward_int8(spans: &Spans, data: &[SiteData], seconds: f64) -> u64 {
    let act = QuantParams::from_range(0.0, 1.0);
    let (mut qx, mut cols, mut acc) = (Vec::new(), Vec::new(), Vec::new());
    passes(seconds, |id| {
        for d in data {
            let s = &d.site.shape;
            let side = d.site.side;
            spans.span("nn.quantize", id, || {
                quantize_into(d.chw.as_slice(), act, &mut qx)
            });
            spans.span("nn.im2col_i8", id, || {
                im2col_i8(
                    &qx,
                    s.in_channels,
                    side,
                    side,
                    s.kernel,
                    s.kernel,
                    s.stride,
                    s.pad,
                    act.zero_point,
                    &mut cols,
                )
            });
            acc.resize(s.out_channels * d.site.positions(), 0i32);
            spans.span("nn.gemm_i8", id, || {
                gemm_i8_i32(
                    &d.qweight.data,
                    &cols,
                    s.out_channels,
                    d.site.patch_rows(),
                    d.site.positions(),
                    &mut acc,
                )
            });
            spans.span("nn.qconv2d", id, || {
                qconv2d(&d.nchw, &d.qweight, &d.bias, s, act)
            });
        }
    })
}

/// Everything a forward pass does between convolutions — ReLU after each
/// conv, max-pool per encoder level, upsample and skip concatenation per
/// decoder level — as one `nn.pool_up_concat_relu` span per tile.
pub fn forward_glue(spans: &Spans, cfg: &UNetConfig, sites: &[ConvSite], seconds: f64) -> u64 {
    let act = |c: usize, side: usize| Tensor::full(&[1, c, side, side], 0.5);
    // Every conv output but the head's goes through a ReLU.
    let relu_inputs: Vec<Tensor> = sites[..sites.len() - 1]
        .iter()
        .map(|s| act(s.shape.out_channels, s.side))
        .collect();
    let side = sites[0].side;
    // Per level: the encoder output (pooled on the way down, the skip on
    // the way up), what the decoder upsamples into the level, and the
    // up-conv's output that the skip is concatenated with.
    let levels: Vec<[Tensor; 3]> = (0..cfg.depth)
        .map(|l| {
            [
                act(cfg.filters_at(l), side >> l),
                act(cfg.filters_at(l + 1), side >> (l + 1)),
                act(cfg.filters_at(l), side >> l),
            ]
        })
        .collect();
    passes(seconds, |id| {
        spans.span("nn.pool_up_concat_relu", id, || {
            for x in &relu_inputs {
                std::hint::black_box(relu(x));
            }
            for [skip, below, up_out] in &levels {
                std::hint::black_box(maxpool2x2(skip));
                std::hint::black_box(upsample2x(below));
                std::hint::black_box(concat_channels(skip, up_out));
            }
        });
    })
}

/// Backward ops, one optimiser step of `batch` images per pass: the whole
/// `nn.conv2d_backward` at every site, and its three kernels
/// (`nn.matmul_a_bt` for dW, `nn.matmul_at_b` for dcols, `nn.col2im`)
/// once per image.
pub fn backward(spans: &Spans, data: &[SiteData], batch: usize, seed: u64, seconds: f64) -> u64 {
    struct Grad {
        input: Tensor,
        grad_out: Tensor,
        gy: Tensor,
        cols: Tensor,
    }
    let grads: Vec<Grad> = data
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let s = &d.site.shape;
            let (c, side) = (s.in_channels, d.site.side);
            let one: Vec<f32> = d.chw.as_slice().to_vec();
            let gy = noise(
                &[s.out_channels, d.site.positions()],
                derive(seed, 0x0B00 + i as u64),
            );
            Grad {
                input: Tensor::from_vec(&[batch, c, side, side], one.repeat(batch)),
                grad_out: Tensor::from_vec(
                    &[batch, s.out_channels, side, side],
                    gy.as_slice().repeat(batch),
                ),
                gy,
                cols: im2col(&d.chw, s.kernel, s.kernel, s.stride, s.pad),
            }
        })
        .collect();
    passes(seconds, |id| {
        for (d, g) in data.iter().zip(&grads) {
            let s = &d.site.shape;
            spans.span("nn.conv2d_backward", id, || {
                conv2d_backward(&g.input, &d.weight, &g.grad_out, s)
            });
            for _ in 0..batch {
                spans.span("nn.matmul_a_bt", id, || matmul_a_bt(&g.gy, &g.cols));
                let dcols = spans.span("nn.matmul_at_b", id, || matmul_at_b(&d.weight, &g.gy));
                spans.span("nn.col2im", id, || {
                    col2im(
                        &dcols,
                        s.in_channels,
                        d.site.side,
                        d.site.side,
                        s.kernel,
                        s.kernel,
                        s.stride,
                        s.pad,
                    )
                });
            }
        }
    })
}
