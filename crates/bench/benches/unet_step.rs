//! Criterion benchmark of the U-Net training primitives: forward,
//! forward+backward+Adam, and inference at CPU-scale geometry, plus one
//! `conv2d_backward` at the shape a training step spends most time in.

use criterion::{criterion_group, criterion_main, Criterion};
use seaice_nn::init::uniform;
use seaice_nn::loss::softmax_cross_entropy;
use seaice_nn::ops::{conv2d::isa, conv2d_backward, Conv2dShape};
use seaice_nn::optim::{Adam, Optimizer};
use seaice_unet::{UNet, UNetConfig};
use std::hint::black_box;

fn bench_unet(c: &mut Criterion) {
    let cfg = UNetConfig {
        depth: 2,
        base_filters: 8,
        dropout: 0.1,
        seed: 1,
        ..UNetConfig::paper()
    };
    let x = uniform(&[4, 3, 32, 32], 0.0, 1.0, 2);
    let targets: Vec<u8> = (0..4 * 32 * 32).map(|i| (i % 3) as u8).collect();

    let mut g = c.benchmark_group(format!("unet_32px_batch4_{}", isa()));
    g.sample_size(10);

    g.bench_function("forward_eval", |b| {
        let mut net = UNet::new(cfg);
        b.iter(|| black_box(net.forward(&x, false)))
    });

    g.bench_function("train_step", |b| {
        let mut net = UNet::new(cfg);
        let mut adam = Adam::new(1e-3);
        b.iter(|| {
            net.zero_grads();
            let logits = net.forward(&x, true);
            let lo = softmax_cross_entropy(&logits, &targets);
            net.backward(&lo.grad);
            adam.step(&mut net.params_mut());
            black_box(lo.loss)
        })
    });

    g.bench_function("predict", |b| {
        let mut net = UNet::new(cfg);
        b.iter(|| black_box(net.predict(&x)))
    });
    g.finish();
}

fn bench_conv2d_backward(c: &mut Criterion) {
    let shape = Conv2dShape {
        in_channels: 16,
        out_channels: 16,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let x = uniform(&[8, 16, 32, 32], 0.0, 1.0, 3);
    let w = uniform(&[16, 16 * 9], -0.1, 0.1, 4);
    let gy = uniform(&[8, 16, 32, 32], -1.0, 1.0, 5);

    let mut g = c.benchmark_group(format!("conv2d_16to16_k3_32px_batch8_{}", isa()));
    g.sample_size(10);
    g.bench_function("backward", |b| {
        b.iter(|| black_box(conv2d_backward(&x, &w, &gy, &shape)))
    });
    g.finish();
}

criterion_group!(benches, bench_unet, bench_conv2d_backward);
criterion_main!(benches);
