//! Int8 network bit-identity: `QuantizedUNet::forward` logits are pinned by
//! FNV-1a hash over `f32::to_bits`. The expected values were recorded from
//! the commit *before* the direct channel-pair int8 convolution replaced
//! the `quantize` → `im2col_i8` → `gemm_i8_i32` lowering, so a pass here
//! means the int8 backend changed no bit across commits — the other int8
//! suites compare two paths of one build. A failure prints the observed
//! hash next to the recorded one. Run in debug and `--release`: only
//! optimised builds vectorise the kernels.

use seaice::core::default_calibration;
use seaice::nn::init::uniform;
use seaice::nn::Tensor;
use seaice::unet::{UNet, UNetConfig};

fn fnv1a64_bits(t: &Tensor) -> u64 {
    t.as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Hash of the int8 logits of `cfg` quantised on the workflow's standard
/// calibration set at `side`, on a seeded `[2, 3, side, side]` batch.
fn int8_logits_hash(cfg: UNetConfig, side: usize, seed: u64) -> u64 {
    let calib = default_calibration(side).expect("the side calibrates");
    let q = UNet::new(cfg).quantize(&calib).expect("quantises");
    let x = uniform(&[2, 3, side, side], 0.0, 1.0, seed);
    let logits = q.forward(&x);
    assert_eq!(logits.shape(), &[2, 3, side, side]);
    fnv1a64_bits(&logits)
}

fn check(what: &str, observed: u64, recorded: u64) {
    assert_eq!(
        observed, recorded,
        "{what} drifted: observed {observed:#018x}, recorded {recorded:#018x}"
    );
}

#[test]
fn cpu_small_int8_logits_are_bit_identical_to_the_recorded_parent() {
    let cfg = UNetConfig {
        dropout: 0.0,
        seed: 2024,
        ..UNetConfig::cpu_small()
    };
    check(
        "cpu_small int8 logits at 64²",
        int8_logits_hash(cfg, 64, 11),
        0xc4fe_694d_cb43_5e5b,
    );
}

#[test]
fn narrow_int8_logits_are_bit_identical_to_the_recorded_parent() {
    // The serve_tiles shape: depth 1, 4 filters, 16² tiles.
    let cfg = UNetConfig {
        depth: 1,
        base_filters: 4,
        dropout: 0.0,
        seed: 5,
        ..UNetConfig::cpu_small()
    };
    check(
        "depth-1 / 4-filter int8 logits at 16²",
        int8_logits_hash(cfg, 16, 12),
        0x11be_4a11_041e_6438,
    );
}
