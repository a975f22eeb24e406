//! Network bit-identity: inference logits, trained parameters and one
//! convolution backward are pinned by FNV-1a hash over `f32::to_bits`.
//! The expected values were recorded from the commit *before* the direct
//! register-tiled convolution replaced the im2col → matmul lowering, so a
//! pass here means training and inference changed no bit end to end —
//! every other differential test compares two paths of one build, which a
//! reordered kernel would pass. A failure prints the observed hash next to
//! the recorded one. Run in debug and `--release`: only optimised builds
//! vectorise the kernel.

use seaice::nn::dataloader::{DataLoader, Sample};
use seaice::nn::init::uniform;
use seaice::nn::ops::{conv2d_backward, Conv2dShape};
use seaice::nn::Tensor;
use seaice::unet::{train, TrainConfig, UNet, UNetConfig};

fn fnv1a64_bits<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    tensors
        .into_iter()
        .flat_map(|t| t.as_slice())
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn check(what: &str, observed: u64, recorded: u64) {
    assert_eq!(
        observed, recorded,
        "{what} drifted: observed {observed:#018x}, recorded {recorded:#018x}"
    );
}

#[test]
fn inference_logits_are_bit_identical_to_the_recorded_parent() {
    let mut model = UNet::new(UNetConfig {
        dropout: 0.0,
        seed: 2024,
        ..UNetConfig::cpu_small()
    });
    let x = uniform(&[2, 3, 64, 64], 0.0, 1.0, 11);
    let logits = model.forward(&x, false);
    assert_eq!(logits.shape(), &[2, 3, 64, 64]);
    check(
        "cpu_small forward logits",
        fnv1a64_bits([&logits]),
        0x6fa7_5818_c643_bede,
    );
}

#[test]
fn trained_parameters_are_bit_identical_to_the_recorded_parent() {
    let samples: Vec<Sample> = (0..16u64)
        .map(|i| Sample {
            image: uniform(&[3, 16, 16], 0.0, 1.0, 100 + i).into_vec(),
            mask: (0..256u64).map(|p| ((p / 5 + i) % 3) as u8).collect(),
            channels: 3,
            height: 16,
            width: 16,
        })
        .collect();
    let loader = DataLoader::new(samples, 8, Some(5));
    let mut model = UNet::new(UNetConfig {
        seed: 7,
        ..UNetConfig::cpu_small()
    });
    let cfg = TrainConfig {
        epochs: 2,
        learning_rate: 1e-3,
        log_every: 0,
    };
    let report = train(&mut model, &loader, &cfg);
    assert_eq!(report.epoch_losses.len(), 2);
    let params = model.params_mut();
    check(
        "parameters after two epochs",
        fnv1a64_bits(params.iter().map(|p| &p.value)),
        0x0d35_0427_a463_634b,
    );
}

#[test]
fn conv2d_backward_is_bit_identical_to_the_recorded_parent() {
    let shape = Conv2dShape {
        in_channels: 32,
        out_channels: 16,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    // ReLU-like input (about half exact zeros), signed weights and grads.
    let input = uniform(&[2, 32, 32, 32], -1.0, 1.0, 21).map(|v| v.max(0.0));
    let weight = uniform(&[16, 32 * 9], -0.1, 0.1, 22);
    let grad_out = uniform(&[2, 16, 32, 32], -1.0, 1.0, 23);
    let (dx, dw, db) = conv2d_backward(&input, &weight, &grad_out, &shape);
    check(
        "conv2d_backward dx",
        fnv1a64_bits([&dx]),
        0xb887_65b4_80a9_e9c7,
    );
    check(
        "conv2d_backward dw",
        fnv1a64_bits([&dw]),
        0xfdd5_14a9_68fb_d384,
    );
    check(
        "conv2d_backward db",
        fnv1a64_bits([&db]),
        0x49ed_6505_a177_29f4,
    );
}
