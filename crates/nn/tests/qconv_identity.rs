//! The direct int8 convolution against the lowering it replaced, bit for
//! bit: `qconv2d` and `qconv2d_packed` vs `quantize_into` → `im2col_i8` →
//! `gemm_i8_i32` → `(acc − z·Σw)·s_w·s_x + bias`, composed here, compared by
//! `f32::to_bits`. Run in debug and `--release`: only optimised builds
//! vectorise the halo pass.

use seaice_nn::init::uniform;
use seaice_nn::ops::conv2d::Conv2dShape;
use seaice_nn::ops::quant::{
    gemm_i8_i32, im2col_i8, qconv2d, qconv2d_packed, quantize_into, quantize_weights,
    PackedQWeights, QuantParams, QuantizedWeights,
};
use seaice_nn::Tensor;

fn lowered(
    input: &Tensor,
    weights: &QuantizedWeights,
    bias: &Tensor,
    s: &Conv2dShape,
    act: QuantParams,
) -> Tensor {
    let (n, c, h, w) = input.nchw();
    let (oh, ow) = s.output_hw(h, w);
    let (mut qx, mut cols, mut out) = (Vec::new(), Vec::new(), Vec::new());
    for b in 0..n {
        quantize_into(input.batch_item(b), act, &mut qx);
        let (k, z) = (s.kernel, act.zero_point);
        im2col_i8(&qx, c, h, w, k, k, s.stride, s.pad, z, &mut cols);
        let mut acc = vec![0; s.out_channels * oh * ow];
        gemm_i8_i32(
            &weights.data,
            &cols,
            s.out_channels,
            weights.cols,
            oh * ow,
            &mut acc,
        );
        for (o, row) in acc.chunks_exact(oh * ow).enumerate() {
            let deq = weights.scales[o] * act.scale;
            let corr = i32::from(z) * weights.row_sums[o];
            let bias_v = bias.as_slice()[o];
            out.extend(row.iter().map(|&a| (a - corr) as f32 * deq + bias_v));
        }
    }
    Tensor::from_vec(&[n, s.out_channels, oh, ow], out)
}

#[track_caller]
fn assert_same_bits(what: &str, case: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.shape(), want.shape(), "{what} shape, {case}");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}[{i}] = {g:e}, lowering {w:e} ({case})"
        );
    }
}

#[track_caller]
fn check_with(input: &Tensor, weight: &Tensor, s: &Conv2dShape, act: QuantParams, seed: u64) {
    let (n, _, h, w) = input.nchw();
    let case = format!("{s:?}, batch {n}, plane {:?}, {act:?}", (h, w));
    let weights = quantize_weights(weight);
    let bias = uniform(&[s.out_channels], -0.5, 0.5, seed + 2);
    let want = lowered(input, &weights, &bias, s, act);
    assert_same_bits(
        "qconv2d",
        &case,
        &qconv2d(input, &weights, &bias, s, act),
        &want,
    );
    let packed = PackedQWeights::new(weights, *s);
    assert_same_bits(
        "qconv2d_packed",
        &case,
        &qconv2d_packed(input, &packed, &bias, act),
        &want,
    );
}

/// Activations with ReLU zeros and values past the calibrated range on
/// both sides, weights with exact zeros, under a zero point that cycles
/// through the middle and both ends of the i8 range.
fn check(s: &Conv2dShape, n: usize, (h, w): (usize, usize), seed: u64) {
    let input = uniform(&[n, s.in_channels, h, w], -1.0, 1.5, seed).map(|v| v.max(-0.2));
    let mut weight = uniform(
        &[s.out_channels, s.in_channels * s.kernel * s.kernel],
        -0.5,
        0.5,
        seed + 1,
    );
    for v in weight.as_mut_slice().iter_mut().step_by(7) {
        *v = 0.0;
    }
    let act = match seed % 3 {
        0 => QuantParams::from_range(-0.1, 1.2),
        1 => QuantParams::from_range(0.0, 0.9),
        _ => QuantParams::from_range(-1.1, 0.0),
    };
    check_with(&input, &weight, s, act, seed);
}

fn same(in_channels: usize, out_channels: usize, kernel: usize) -> Conv2dShape {
    Conv2dShape {
        in_channels,
        out_channels,
        kernel,
        stride: 1,
        pad: kernel / 2,
    }
}

/// Every convolution of an upsample+conv U-Net (3 channels in, 3 classes
/// out) on a `side`² tile, in execution order.
fn unet_sites(depth: usize, base: usize, side: usize) -> Vec<(Conv2dShape, usize)> {
    let mut sites = Vec::new();
    let mut in_c = 3;
    for level in 0..=depth {
        let out_c = base << level;
        sites.push((same(in_c, out_c, 3), side >> level));
        sites.push((same(out_c, out_c, 3), side >> level));
        in_c = out_c;
    }
    for level in (0..depth).rev() {
        let out_c = base << level;
        sites.push((same(2 * out_c, out_c, 3), side >> level));
        sites.push((same(2 * out_c, out_c, 3), side >> level));
        sites.push((same(out_c, out_c, 3), side >> level));
    }
    sites.push((same(base, 3, 1), side));
    sites
}

#[test]
fn model_conv_sites_match_the_lowering() {
    // `cpu_small` (depth 2, 8 filters) at 64² and 32²; the serve_tiles
    // model (depth 1, 4 filters) at 16².
    let models = [(2, 8, 64, 13), (2, 8, 32, 13), (1, 4, 16, 8)];
    for (depth, base, side, count) in models {
        let sites = unet_sites(depth, base, side);
        assert_eq!(sites.len(), count);
        for (i, (shape, s)) in sites.iter().enumerate() {
            check(shape, 1, (*s, *s), 40 + i as u64);
        }
    }
}

#[test]
fn geometry_sweep_matches_the_lowering() {
    // Odd and even channel counts (the pair rule) that straddle the 8 / 4
    // row rule.
    const CHANNELS: [usize; 9] = [1, 2, 3, 5, 8, 9, 16, 17, 32];
    const KERNEL_PAD: [(usize, usize); 7] =
        [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (5, 2)];
    // Non-square, and not multiples of the 8-lane tile.
    const PLANES: [(usize, usize); 3] = [(5, 13), (7, 4), (9, 20)];
    let mut seed = 2000;
    for in_channels in CHANNELS {
        for out_channels in CHANNELS {
            for (kernel, pad) in KERNEL_PAD {
                let shape = Conv2dShape {
                    in_channels,
                    out_channels,
                    kernel,
                    stride: 1,
                    pad,
                };
                for hw in PLANES {
                    for n in [1, 3] {
                        seed += 10;
                        check(&shape, n, hw, seed);
                    }
                }
            }
        }
    }
}

#[test]
fn saturated_and_non_finite_activations_and_extreme_weights_match_the_lowering() {
    let shape = same(5, 9, 3);
    let mut input = uniform(&[2, 5, 6, 11], -1.0, 1.0, 7);
    // Far past both ends, ±∞, NaN (quantised to code 0, as `as i8` did) and
    // both zeros.
    let specials = [
        1e6,
        -1e6,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        0.0,
        -0.0,
    ];
    for (v, &s) in input
        .as_mut_slice()
        .iter_mut()
        .step_by(5)
        .zip(specials.iter().cycle())
    {
        *v = s;
    }
    // Every weight at ±1 quantises to ±127.
    let weight = uniform(&[9, 45], -1.0, 1.0, 8).map(|v| if v < 0.0 { -1.0 } else { 1.0 });
    for act in [
        QuantParams::from_range(-0.5, 0.5),
        QuantParams::from_range(0.0, 0.25),
        QuantParams::from_range(-0.25, 0.0),
    ] {
        check_with(&input, &weight, &shape, act, 9);
    }
}

#[test]
fn the_deepest_fan_in_of_the_paper_model_matches_the_lowering() {
    // K = 512 · 3 · 3 = 4 608, the paper U-Net's deepest layer, on a small
    // plane; all weights ±127 and all codes saturated maximise |acc|.
    let shape = same(512, 9, 3);
    let input = uniform(&[1, 512, 4, 5], -1.0, 1.0, 11).map(|v| if v < 0.0 { -9.0 } else { 9.0 });
    let weight = uniform(&[9, 4_608], -1.0, 1.0, 12).map(|v| if v < 0.0 { -1.0 } else { 1.0 });
    check_with(
        &input,
        &weight,
        &shape,
        QuantParams::from_range(-1.0, 1.0),
        13,
    );
    check(&shape, 1, (4, 5), 14);
}

#[test]
fn excepted_and_degenerate_geometries_match_the_lowering() {
    // Stride ≠ 1 and pad > kernel − 1 take the lowering on both sides.
    for (kernel, stride, pad) in [(3, 2, 1), (2, 2, 0), (1, 1, 1), (3, 1, 3), (3, 3, 4)] {
        let shape = Conv2dShape {
            in_channels: 3,
            out_channels: 5,
            kernel,
            stride,
            pad,
        };
        check(&shape, 2, (9, 12), 77);
    }
    // An empty image under padding and an empty batch.
    let shape = Conv2dShape {
        in_channels: 3,
        out_channels: 5,
        kernel: 2,
        stride: 1,
        pad: 1,
    };
    check(&shape, 2, (0, 6), 92);
    check(&shape, 2, (4, 0), 93);
    check(&shape, 0, (4, 6), 94);
}
