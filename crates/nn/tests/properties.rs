//! Property-based tests of the tensor-op algebra.

use proptest::prelude::*;
use seaice_nn::ops::conv2d::Conv2dShape;
use seaice_nn::ops::{
    concat_channels, conv2d, matmul, maxpool2x2, relu, upsample2x, upsample2x_backward_into,
    Planes, Sink,
};
use seaice_nn::Tensor;

fn arb_tensor(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let len: usize = shape.iter().product();
    proptest::collection::vec(-10.0f32..10.0, len)
        .prop_map(move |data| Tensor::from_vec(&shape, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_linear_in_lhs(
        a in arb_tensor(vec![3, 4]),
        b in arb_tensor(vec![3, 4]),
        c in arb_tensor(vec![4, 2]),
        k in -3.0f32..3.0,
    ) {
        // (a + k·b) · c == a·c + k·(b·c)
        let mut akb = a.clone();
        for (x, y) in akb.as_mut_slice().iter_mut().zip(b.as_slice()) {
            *x += k * y;
        }
        let lhs = matmul(&akb, &c);
        let ac = matmul(&a, &c);
        let bc = matmul(&b, &c);
        for i in 0..lhs.len() {
            let rhs = ac.as_slice()[i] + k * bc.as_slice()[i];
            prop_assert!((lhs.as_slice()[i] - rhs).abs() < 1e-2,
                "linearity violated at {i}: {} vs {rhs}", lhs.as_slice()[i]);
        }
    }

    #[test]
    fn matmul_identity_is_neutral(a in arb_tensor(vec![5, 5])) {
        let mut id = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            id.as_mut_slice()[i * 5 + i] = 1.0;
        }
        let out = matmul(&a, &id);
        for (x, y) in out.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn conv_is_translation_equivariant_in_batch(x in arb_tensor(vec![2, 1, 4, 4])) {
        // Convolving a batch equals convolving each item separately.
        let shape = Conv2dShape { in_channels: 1, out_channels: 2, kernel: 3, stride: 1, pad: 1 };
        let w = seaice_nn::init::uniform(&[2, 9], -1.0, 1.0, 7);
        let b = seaice_nn::init::uniform(&[2], -1.0, 1.0, 8);
        let whole = conv2d(&x, &w, &b, &shape);
        for item in 0..2 {
            let single = Tensor::from_vec(&[1, 1, 4, 4], x.batch_item(item).to_vec());
            let out = conv2d(&single, &w, &b, &shape);
            prop_assert_eq!(out.as_slice(), whole.batch_item(item));
        }
    }

    #[test]
    fn relu_is_idempotent_and_nonnegative(x in arb_tensor(vec![2, 2, 4, 4])) {
        let y = relu(&x);
        prop_assert!(y.as_slice().iter().all(|&v| v >= 0.0));
        prop_assert_eq!(relu(&y), y.clone());
    }

    #[test]
    fn maxpool_dominates_inputs(x in arb_tensor(vec![1, 2, 4, 4])) {
        let (y, argmax) = maxpool2x2(&x);
        // Every output equals the input at its argmax and dominates its
        // 2x2 window (checked via argmax validity).
        for (o, &idx) in y.as_slice().iter().zip(&argmax) {
            prop_assert_eq!(*o, x.as_slice()[idx]);
        }
        // Pooling a constant tensor returns the constant.
        let c = Tensor::full(&[1, 1, 4, 4], 3.25);
        let (yc, _) = maxpool2x2(&c);
        prop_assert!(yc.as_slice().iter().all(|&v| v == 3.25));
    }

    #[test]
    fn upsample_then_downsample_scales_by_four(x in arb_tensor(vec![1, 2, 3, 3])) {
        let mut up = Planes::new((2, 6, 6), 0);
        up.fill(upsample2x(&x).as_slice());
        let mut down = vec![0.0; x.len()];
        upsample2x_backward_into(&up, Sink::plain(&mut down, (2, 3, 3)));
        for (a, b) in down.iter().zip(x.as_slice()) {
            prop_assert!((a - 4.0 * b).abs() < 1e-4);
        }
    }

    #[test]
    fn concat_roundtrip(a in arb_tensor(vec![2, 2, 2, 2]), b in arb_tensor(vec![2, 3, 2, 2])) {
        let cat = concat_channels(&a, &b);
        prop_assert_eq!(cat.shape(), &[2, 5, 2, 2]);
        for item in 0..2 {
            let (ga, gb) = cat.batch_item(item).split_at(a.len() / 2);
            prop_assert_eq!(ga, a.batch_item(item));
            prop_assert_eq!(gb, b.batch_item(item));
        }
    }

    #[test]
    fn softmax_ce_loss_is_nonnegative_and_grad_bounded(
        logits in arb_tensor(vec![1, 3, 2, 2]),
        t0 in 0u8..3, t1 in 0u8..3, t2 in 0u8..3, t3 in 0u8..3,
    ) {
        let out = seaice_nn::loss::softmax_cross_entropy(&logits, &[t0, t1, t2, t3]);
        prop_assert!(out.loss >= 0.0);
        // |softmax − onehot| ≤ 1, divided by pixel count 4.
        prop_assert!(out.grad.as_slice().iter().all(|&g| g.abs() <= 0.2500001));
        prop_assert!(out.predictions.iter().all(|&p| p < 3));
    }
}
