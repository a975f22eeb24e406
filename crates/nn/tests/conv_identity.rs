//! The direct convolution kernels against the reference lowering, bit for
//! bit: `conv2d` vs `im2col` → `matmul` → `+ bias`, and all three outputs
//! of `conv2d_backward` vs `im2col` → `matmul_a_bt` / `matmul_at_b` →
//! `col2im` → batch-order sum, compared by `f32::to_bits`. Run in debug
//! and `--release`: only optimised builds vectorise the kernels.

use seaice_nn::init::uniform;
use seaice_nn::ops::conv2d::Conv2dShape;
use seaice_nn::ops::{col2im, conv2d, conv2d_backward, im2col, matmul, matmul_a_bt, matmul_at_b};
use seaice_nn::Tensor;

fn reference_forward(input: &Tensor, weight: &Tensor, bias: &Tensor, s: &Conv2dShape) -> Tensor {
    let (n, c, h, w) = input.nchw();
    let mut out = Vec::new();
    for b in 0..n {
        let x = Tensor::from_vec(&[c, h, w], input.batch_item(b).to_vec());
        let y = matmul(weight, &im2col(&x, s.kernel, s.kernel, s.stride, s.pad));
        let plane = y.len() / s.out_channels;
        for (row, &bias_v) in y.as_slice().chunks_exact(plane).zip(bias.as_slice()) {
            out.extend(row.iter().map(|&v| v + bias_v));
        }
    }
    let (oh, ow) = s.output_hw(h, w);
    Tensor::from_vec(&[n, s.out_channels, oh, ow], out)
}

fn reference_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    s: &Conv2dShape,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = input.nchw();
    let (_, oc, oh, ow) = grad_out.nchw();
    let mut dx = Vec::new();
    let mut dw = Tensor::zeros(weight.shape());
    let mut db = Tensor::zeros(&[oc]);
    for b in 0..n {
        let x = Tensor::from_vec(&[c, h, w], input.batch_item(b).to_vec());
        let cols = im2col(&x, s.kernel, s.kernel, s.stride, s.pad);
        let gy = Tensor::from_vec(&[oc, oh * ow], grad_out.batch_item(b).to_vec());
        dw.add_assign(&matmul_a_bt(&gy, &cols));
        let dcols = matmul_at_b(weight, &gy);
        let item = col2im(&dcols, c, h, w, s.kernel, s.kernel, s.stride, s.pad);
        dx.extend_from_slice(item.as_slice());
        let sums = gy.as_slice().chunks_exact(oh * ow).map(|g| g.iter().sum());
        db.add_assign(&Tensor::from_vec(&[oc], sums.collect()));
    }
    (Tensor::from_vec(&[n, c, h, w], dx), dw, db)
}

#[track_caller]
fn assert_same_bits(what: &str, case: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.shape(), want.shape(), "{what} shape, {case}");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}[{i}] = {g:e}, reference {w:e} ({case})"
        );
    }
}

/// Tensors with the zeros a network produces: ReLU-clipped activations,
/// exact-zero and `−0.0` weights, every third `grad_out` element zero.
fn operands(
    s: &Conv2dShape,
    n: usize,
    (h, w): (usize, usize),
    seed: u64,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let input = uniform(&[n, s.in_channels, h, w], -1.0, 1.0, seed).map(|v| v.max(0.0));
    let mut weight = uniform(
        &[s.out_channels, s.in_channels * s.kernel * s.kernel],
        -0.5,
        0.5,
        seed + 1,
    );
    for (i, v) in weight.as_mut_slice().iter_mut().enumerate() {
        match i % 7 {
            2 => *v = 0.0,
            5 => *v = -0.0,
            _ => {}
        }
    }
    let bias = uniform(&[s.out_channels], -0.5, 0.5, seed + 2);
    let (oh, ow) = s.output_hw(h, w);
    let mut grad_out = uniform(&[n, s.out_channels, oh, ow], -1.0, 1.0, seed + 3);
    for v in grad_out.as_mut_slice().iter_mut().step_by(3) {
        *v = 0.0;
    }
    (input, weight, bias, grad_out)
}

fn check_against_reference(s: &Conv2dShape, n: usize, hw: (usize, usize), seed: u64) {
    let case = format!("{s:?}, batch {n}, plane {hw:?}");
    let (input, weight, bias, grad_out) = operands(s, n, hw, seed);
    let want = reference_forward(&input, &weight, &bias, s);
    assert_same_bits("y", &case, &conv2d(&input, &weight, &bias, s), &want);
    let (dx, dw, db) = conv2d_backward(&input, &weight, &grad_out, s);
    let (rdx, rdw, rdb) = reference_backward(&input, &weight, &grad_out, s);
    assert_same_bits("dx", &case, &dx, &rdx);
    assert_same_bits("dw", &case, &dw, &rdw);
    assert_same_bits("db", &case, &db, &rdb);
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
fn model_conv_sites_match_the_reference_lowering() {
    // `cpu_small` (depth 2, 8 filters) at 64² and 32²; the serve_tiles
    // model (depth 1, 4 filters) at 16².
    let models = [(2, 8, 64, 13), (2, 8, 32, 13), (1, 4, 16, 8)];
    for (depth, base, side, count) in models {
        let sites = unet_sites(depth, base, side);
        assert_eq!(sites.len(), count);
        for (i, (shape, s)) in sites.iter().enumerate() {
            check_against_reference(shape, 1, (*s, *s), 40 + i as u64);
        }
    }
}

#[test]
fn geometry_sweep_matches_the_reference_lowering() {
    const CHANNELS: [usize; 8] = [1, 3, 4, 5, 7, 8, 16, 32];
    const KERNEL_PAD: [(usize, usize); 7] =
        [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (5, 2)];
    // Non-square, and not multiples of the 8-lane tile.
    const PLANES: [(usize, usize); 3] = [(5, 13), (7, 4), (9, 20)];
    let mut seed = 1000;
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
                        check_against_reference(&shape, n, hw, seed);
                    }
                }
            }
        }
    }
}

#[test]
fn channel_counts_that_straddle_the_row_tile_match_the_reference_lowering() {
    // Under AVX2 the register tile is 8 rows, with 4 or fewer left taking
    // the 4-row tile: a full block followed by a short tail (9, 12, 20), by
    // a long one (13) and by nothing (24), as output channels (forward
    // rows), input channels (`dx` rows) and both. Same kernels, planes
    // narrower than one lane group and batches as the sweep above.
    const CHANNELS: [usize; 5] = [9, 12, 13, 20, 24];
    const KERNEL_PAD: [(usize, usize); 7] =
        [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (5, 2)];
    const PLANES: [(usize, usize); 3] = [(5, 13), (7, 4), (9, 20)];
    let mut seed = 90_000;
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
                        check_against_reference(&shape, n, hw, seed);
                    }
                }
            }
        }
    }
}

#[test]
fn excepted_geometries_still_equal_the_reference() {
    // Stride ≠ 1 and pad > kernel − 1 are lowered, not run direct.
    for (kernel, stride, pad) in [(3, 2, 1), (2, 2, 0), (1, 1, 1), (3, 1, 3), (3, 3, 4)] {
        let shape = Conv2dShape {
            in_channels: 3,
            out_channels: 5,
            kernel,
            stride,
            pad,
        };
        check_against_reference(&shape, 2, (9, 12), 77);
    }
}

#[test]
fn degenerate_shapes_still_equal_the_reference() {
    // An empty image under padding and an empty batch: the loop bounds
    // must cover them as the lowering did.
    let shape = Conv2dShape {
        in_channels: 3,
        out_channels: 5,
        kernel: 2,
        stride: 1,
        pad: 1,
    };
    check_against_reference(&shape, 2, (0, 6), 92);
    check_against_reference(&shape, 2, (4, 0), 93);
    check_against_reference(&shape, 0, (4, 6), 94);
}

#[test]
fn batch_items_equal_their_single_image_calls() {
    let shape = same(8, 16, 3);
    let (input, weight, bias, grad_out) = operands(&shape, 8, (12, 20), 5);
    let y = conv2d(&input, &weight, &bias, &shape);
    let (dx, _, _) = conv2d_backward(&input, &weight, &grad_out, &shape);
    for b in 0..8 {
        let one = |t: &Tensor| {
            let (_, c, h, w) = t.nchw();
            Tensor::from_vec(&[1, c, h, w], t.batch_item(b).to_vec())
        };
        let case = format!("item {b} of 8");
        assert_same_bits(
            "y",
            &case,
            &one(&y),
            &conv2d(&one(&input), &weight, &bias, &shape),
        );
        let (dx1, _, _) = conv2d_backward(&one(&input), &weight, &one(&grad_out), &shape);
        assert_same_bits("dx", &case, &one(&dx), &dx1);
    }
}

#[test]
fn a_non_finite_activation_is_not_hidden_by_a_zero_weight() {
    // The documented difference: the reference skips zero weights, so
    // `0 × NaN` and `0 × ∞` vanished; the direct kernel keeps them.
    let shape = same(1, 1, 3);
    let weight = Tensor::zeros(&[1, 9]);
    let bias = Tensor::zeros(&[1]);
    for bad in [f32::NAN, f32::INFINITY] {
        let mut input = Tensor::zeros(&[1, 1, 5, 5]);
        *input.at4_mut(0, 0, 2, 2) = bad;
        let y = conv2d(&input, &weight, &bias, &shape);
        assert!(y.at4(0, 0, 2, 2).is_nan(), "0 × {bad} must surface as NaN");
        assert_eq!(y.at4(0, 0, 0, 0), 0.0, "windows that miss it stay clean");
        let reference = reference_forward(&input, &weight, &bias, &shape);
        assert!(reference.as_slice().iter().all(|&v| v == 0.0));
    }
}
