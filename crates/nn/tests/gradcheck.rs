//! Finite-difference gradient checks for every differentiable op a network
//! is built from — the ground truth that the hand-written backward passes
//! are correct. The backward passes run as a network's walk runs them:
//! the convolution's per image over haloed planes, and the pool's, the
//! upsample's and ReLU / dropout's stored through a `Sink`. The whole
//! U-Net is checked in `seaice-unet`'s `tests/gradcheck.rs`.

use seaice_nn::init::uniform;
use seaice_nn::layers::Conv2d;
use seaice_nn::loss::softmax_cross_entropy;
use seaice_nn::ops::conv2d::Conv2dShape;
use seaice_nn::ops::{
    concat_channels, conv2d, conv2d_backward, maxpool2x2, maxpool2x2_backward_into, relu,
    upsample2x, upsample2x_backward_into, DropoutStream, Planes, Sink,
};
use seaice_nn::Tensor;

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// Central finite difference of `f` w.r.t. element `i` of `x`.
fn fd(x: &Tensor, i: usize, f: &mut dyn FnMut(&Tensor) -> f32) -> f32 {
    let mut plus = x.clone();
    plus.as_mut_slice()[i] += EPS;
    let mut minus = x.clone();
    minus.as_mut_slice()[i] -= EPS;
    (f(&plus) - f(&minus)) / (2.0 * EPS)
}

/// Checks `analytic` against finite differences of `f` for a subset of
/// elements (stride keeps runtime sane on bigger tensors).
fn check_grad(
    x: &Tensor,
    analytic: &Tensor,
    stride: usize,
    f: &mut dyn FnMut(&Tensor) -> f32,
    what: &str,
) {
    assert_eq!(x.shape(), analytic.shape());
    for i in (0..x.len()).step_by(stride.max(1)) {
        let numeric = fd(x, i, f);
        let a = analytic.as_slice()[i];
        assert!(
            (numeric - a).abs() < TOL * (1.0 + numeric.abs().max(a.abs())),
            "{what}: grad[{i}] numeric {numeric} vs analytic {a}"
        );
    }
}

/// Loss functional used by all checks: softmax-CE of the tensor against
/// fixed targets, after an optional preceding computation.
fn ce_loss(logits: &Tensor, targets: &[u8]) -> f32 {
    softmax_cross_entropy(logits, targets).loss
}

/// The one image of `t` (`[1, c, h, w]`) as planes without a border.
fn planes(t: &Tensor) -> Planes {
    let (_, c, h, w) = t.nchw();
    let mut p = Planes::new((c, h, w), 0);
    p.fill(t.as_slice());
    p
}

/// `t`'s shape holding `data`.
fn like(t: &Tensor, data: Vec<f32>) -> Tensor {
    Tensor::from_vec(t.shape(), data)
}

#[test]
fn conv2d_input_gradient() {
    let shape = Conv2dShape {
        in_channels: 2,
        out_channels: 3,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let conv = Conv2d::new(shape, 1);
    let (w, b) = (&conv.weight().value, &conv.bias().value);
    let x = uniform(&[1, 2, 4, 4], -1.0, 1.0, 2);
    let targets: Vec<u8> = (0..16).map(|i| (i % 3) as u8).collect();

    let lo = softmax_cross_entropy(&conv2d(&x, w, b, &shape), &targets);
    let (dx, _, _) = conv2d_backward(&x, w, &lo.grad, &shape);

    let mut f = |xt: &Tensor| ce_loss(&conv2d(xt, w, b, &shape), &targets);
    check_grad(&x, &dx, 3, &mut f, "conv2d input");
}

#[test]
fn conv2d_weight_gradient() {
    let shape = Conv2dShape {
        in_channels: 1,
        out_channels: 3,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let x = uniform(&[1, 1, 4, 4], -1.0, 1.0, 3);
    let w0 = uniform(&[3, 9], -0.5, 0.5, 4);
    let b0 = uniform(&[3], -0.1, 0.1, 5);
    let targets: Vec<u8> = (0..16).map(|i| (i % 3) as u8).collect();

    let y = conv2d(&x, &w0, &b0, &shape);
    let lo = softmax_cross_entropy(&y, &targets);
    let (_, dw, db) = conv2d_backward(&x, &w0, &lo.grad, &shape);

    let mut fw = |wt: &Tensor| ce_loss(&conv2d(&x, wt, &b0, &shape), &targets);
    check_grad(&w0, &dw, 2, &mut fw, "conv2d weight");
    let mut fb = |bt: &Tensor| ce_loss(&conv2d(&x, &w0, bt, &shape), &targets);
    check_grad(&b0, &db, 1, &mut fb, "conv2d bias");
}

#[test]
fn conv_transpose2d_gradients() {
    use seaice_nn::ops::convtranspose::{
        conv_transpose2d, conv_transpose2d_backward, ConvTranspose2dShape,
    };
    let shape = ConvTranspose2dShape::unet_upconv(2, 3);
    let x = uniform(&[1, 2, 2, 2], -1.0, 1.0, 31);
    let w0 = uniform(&[2, 3 * 4], -0.5, 0.5, 32);
    let b0 = uniform(&[3], -0.1, 0.1, 33);
    let targets: Vec<u8> = (0..16).map(|i| (i % 3) as u8).collect();

    let y = conv_transpose2d(&x, &w0, &b0, &shape);
    let lo = softmax_cross_entropy(&y, &targets);
    let (dx, dw, db) = conv_transpose2d_backward(&x, &w0, &lo.grad, &shape);

    let mut fx = |xt: &Tensor| ce_loss(&conv_transpose2d(xt, &w0, &b0, &shape), &targets);
    check_grad(&x, &dx, 1, &mut fx, "conv_transpose2d input");
    let mut fw = |wt: &Tensor| ce_loss(&conv_transpose2d(&x, wt, &b0, &shape), &targets);
    check_grad(&w0, &dw, 2, &mut fw, "conv_transpose2d weight");
    let mut fb = |bt: &Tensor| ce_loss(&conv_transpose2d(&x, &w0, bt, &shape), &targets);
    check_grad(&b0, &db, 1, &mut fb, "conv_transpose2d bias");
}

#[test]
fn relu_then_maxpool_gradient() {
    // Distinct values at least 0.05 from ReLU's kink keep the argmax and
    // the mask finite-difference-stable.
    let z = Tensor::from_vec(
        &[1, 3, 4, 4],
        (0..48)
            .map(|i| ((i * 37) % 101) as f32 / 10.0 - 5.05)
            .collect(),
    );
    let targets: Vec<u8> = (0..4).map(|i| (i % 3) as u8).collect();
    let x = relu(&z);
    let lo = softmax_cross_entropy(&maxpool2x2(&x).0, &targets);
    // No other consumer: the gradient the pool adds into starts at zero.
    let mut dz = Planes::new((3, 4, 4), 0);
    maxpool2x2_backward_into(&planes(&x), &planes(&lo.grad), Sink::planes(&mut dz, 0, 3));

    let mut f = |zt: &Tensor| ce_loss(&maxpool2x2(&relu(zt)).0, &targets);
    check_grad(&z, &like(&z, dz.interior()), 1, &mut f, "relu then maxpool");
}

#[test]
fn relu_gradient() {
    // Keep values away from the kink at 0 for finite-difference validity.
    let x = uniform(&[1, 3, 2, 2], -1.0, 1.0, 7).map(|v| if v.abs() < 0.1 { v + 0.2 } else { v });
    let targets = vec![0u8, 1, 2, 0];
    let y = relu(&x);
    let lo = softmax_cross_entropy(&y, &targets);
    let mut dx = vec![0.0; x.len()];
    let by = planes(&y);
    Sink::plain(&mut dx, (3, 2, 2))
        .through_mask(&by, 1.0)
        .put(lo.grad.as_slice());

    let mut f = |xt: &Tensor| ce_loss(&relu(xt), &targets);
    check_grad(&x, &like(&x, dx), 1, &mut f, "relu");
}

#[test]
fn relu_then_dropout_gradient() {
    let (p, seed) = (0.4, 17);
    let x = uniform(&[1, 3, 4, 4], -1.0, 1.0, 12).map(|v| if v.abs() < 0.1 { v + 0.2 } else { v });
    let targets: Vec<u8> = (0..16).map(|i| (i % 3) as u8).collect();
    // The same draws at every evaluation: one fresh stream per forward.
    let drop = |xt: &Tensor| {
        let mut d = planes(&relu(xt));
        DropoutStream::new(p, seed).apply(&mut d);
        like(xt, d.interior())
    };
    let y = drop(&x);
    let dropped = |t: &Tensor| t.as_slice().iter().filter(|v| **v == 0.0).count();
    assert!(
        dropped(&y) > dropped(&relu(&x)),
        "some survivors of the ReLU drop"
    );
    let lo = softmax_cross_entropy(&y, &targets);
    let mut dx = vec![0.0; x.len()];
    let (by, scale) = (planes(&y), 1.0 / (1.0 - p));
    Sink::plain(&mut dx, (3, 4, 4))
        .through_mask(&by, scale)
        .put(lo.grad.as_slice());

    let mut f = |xt: &Tensor| ce_loss(&drop(xt), &targets);
    check_grad(&x, &like(&x, dx), 1, &mut f, "relu then dropout");
}

#[test]
fn upsample_gradient() {
    let x = uniform(&[1, 3, 2, 2], -1.0, 1.0, 8);
    let targets: Vec<u8> = (0..16).map(|i| (i % 3) as u8).collect();
    let lo = softmax_cross_entropy(&upsample2x(&x), &targets);
    let mut dx = vec![0.0; x.len()];
    upsample2x_backward_into(&planes(&lo.grad), Sink::plain(&mut dx, (3, 2, 2)));

    let mut f = |xt: &Tensor| ce_loss(&upsample2x(xt), &targets);
    check_grad(&x, &like(&x, dx), 1, &mut f, "upsample");
}

/// A concatenation's gradient is the channel ranges of the concatenated
/// gradient, which a walk reads in place.
#[test]
fn concat_gradient_is_its_channel_ranges() {
    let a = uniform(&[1, 2, 2, 2], -1.0, 1.0, 9);
    let b = uniform(&[1, 1, 2, 2], -1.0, 1.0, 10);
    let targets = vec![0u8, 1, 2, 0];
    let lo = softmax_cross_entropy(&concat_channels(&a, &b), &targets);
    let (da, db) = lo.grad.as_slice().split_at(a.len());

    let mut fa = |at: &Tensor| ce_loss(&concat_channels(at, &b), &targets);
    check_grad(&a, &like(&a, da.to_vec()), 1, &mut fa, "concat lhs");
    let mut fb = |bt: &Tensor| ce_loss(&concat_channels(&a, bt), &targets);
    check_grad(&b, &like(&b, db.to_vec()), 1, &mut fb, "concat rhs");
}
