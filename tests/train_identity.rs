//! Training bit-identity: per-epoch losses, final weights, checkpoint bytes
//! and one backward's gradients, pinned by FNV-1a hash over `f32::to_bits`
//! (and over the checkpoint's JSON bytes). The expected values were
//! recorded from the commit *before* training moved from the `Layer` path
//! onto the walk, so a pass here means `train`, `train_validated` and the
//! two-rank `train_distributed` changed no bit — in both up modes, with and
//! without dropout, at two tile sides, and across a trailing partial batch.
//! A failure prints every observed hash next to the recorded ones. Run in
//! debug and `--release`: only optimised builds vectorise the kernels.

use seaice::distrib::{train_distributed, DgxA100Model, DistTrainConfig};
use seaice::nn::dataloader::{DataLoader, Sample};
use seaice::nn::init::uniform;
use seaice::nn::loss::softmax_cross_entropy;
use seaice::nn::Tensor;
use seaice::unet::checkpoint;
use seaice::unet::{
    train, train_validated, TrainConfig, UNet, UNetConfig, UpMode, ValidatedTrainConfig,
};

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn bits<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    fnv1a64(values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// The hash of every parameter value, then of the checkpoint's bytes.
fn weights_and_checkpoint(model: &mut UNet) -> [u64; 2] {
    let weights = bits(model.params_mut().iter().flat_map(|p| p.value.as_slice()));
    let json = checkpoint::snapshot(model).to_json();
    [weights, fnv1a64(json.bytes())]
}

#[track_caller]
fn check(what: &str, observed: &[u64], recorded: &[u64]) {
    let hex = |h: &[u64]| h.iter().map(|v| format!("{v:#018x}")).collect::<Vec<_>>();
    assert_eq!(
        observed,
        recorded,
        "{what} drifted: observed {:?}, recorded {:?}",
        hex(observed),
        hex(recorded)
    );
}

/// `n` images of `side`² with striped masks.
fn samples(n: usize, side: usize, seed: u64) -> Vec<Sample> {
    (0..n as u64)
        .map(|i| Sample {
            image: uniform(&[3, side, side], 0.0, 1.0, seed + i).into_vec(),
            mask: (0..(side * side) as u64)
                .map(|p| ((p / 7 + i) % 3) as u8)
                .collect(),
            channels: 3,
            height: side,
            width: side,
        })
        .collect()
}

fn config(up_mode: UpMode, dropout: f32, seed: u64) -> UNetConfig {
    UNetConfig {
        up_mode,
        dropout,
        seed,
        ..UNetConfig::cpu_small()
    }
}

/// Both up modes, dropout 0 and 0.2, sides 16 and 32; ten samples in
/// batches of four, so every epoch ends on a batch of two.
const RUNS: [(UpMode, f32, usize); 4] = [
    (UpMode::UpsampleConv, 0.0, 16),
    (UpMode::UpsampleConv, 0.2, 32),
    (UpMode::Transposed, 0.2, 16),
    (UpMode::Transposed, 0.0, 32),
];

#[test]
fn train_is_bit_identical_to_the_recorded_parent() {
    let recorded = [
        [
            0x2ebd_8c82_da66_b85e,
            0xa05f_3f69_c52d_7daf,
            0x430b_15b5_4e93_84dd,
        ],
        [
            0xffc7_453b_92d6_be21,
            0xc0ff_fcd4_55be_690b,
            0x6482_1c05_cba8_78b6,
        ],
        [
            0x5df6_5bb6_5fbe_b3a0,
            0x7488_b7ba_1aee_3e7d,
            0x8065_8f9f_5a83_81f8,
        ],
        [
            0x8c72_39e7_db4c_4a2c,
            0xab9f_4ce1_7be4_63c5,
            0x211d_1fb3_77f3_b27d,
        ],
    ];
    for (&(up_mode, dropout, side), want) in RUNS.iter().zip(recorded) {
        let loader = DataLoader::new(samples(10, side, 100), 4, Some(11));
        let mut model = UNet::new(config(up_mode, dropout, 31));
        let cfg = TrainConfig {
            epochs: 2,
            learning_rate: 2e-3,
            log_every: 0,
        };
        let report = train(&mut model, &loader, &cfg);
        let [weights, ckpt] = weights_and_checkpoint(&mut model);
        let got = [bits(&report.epoch_losses), weights, ckpt];
        check(
            &format!("train {up_mode:?}, p = {dropout}, {side}²"),
            &got,
            &want,
        );
    }
}

#[test]
fn train_validated_restores_the_recorded_parents_best_weights() {
    let train_loader = DataLoader::new(samples(10, 16, 200), 4, Some(12));
    let val_loader = DataLoader::new(samples(5, 16, 300), 4, None);
    let mut model = UNet::new(config(UpMode::UpsampleConv, 0.2, 41));
    let report = train_validated(
        &mut model,
        &train_loader,
        &val_loader,
        &ValidatedTrainConfig {
            train: TrainConfig {
                epochs: 4,
                learning_rate: 5e-3,
                log_every: 0,
            },
            validate_every: 1,
            patience: 0,
        },
    );
    let [weights, ckpt] = weights_and_checkpoint(&mut model);
    let accuracies = report.validations.iter().map(|v| v.1.to_bits());
    let got = [
        bits(&report.train.epoch_losses),
        fnv1a64(accuracies.flat_map(u64::to_le_bytes)),
        report.best_epoch as u64,
        weights,
        ckpt,
    ];
    let recorded = [
        0xd9ad_e072_7ff7_481f,
        0x66fd_c528_bb37_12e2,
        0,
        0x20ee_931a_eaa2_8a7b,
        0x18fc_34fa_e569_189e,
    ];
    check("train_validated", &got, &recorded);
}

#[test]
fn two_rank_training_is_bit_identical_to_the_recorded_parent() {
    let recorded = [
        [
            0x1487_56d4_c6bb_7ee1,
            0xc4aa_83b0_042c_4549,
            0x6c90_444f_c703_d79f,
        ],
        [
            0xdcf9_fb1f_0168_826a,
            0x7c62_edc1_54ae_4c49,
            0x3d51_e35a_3878_af1b,
        ],
    ];
    let runs = [(UpMode::UpsampleConv, 0.0), (UpMode::Transposed, 0.2)];
    for ((up_mode, dropout), want) in runs.into_iter().zip(recorded) {
        let (mut model, report) = train_distributed(
            config(up_mode, dropout, 51),
            samples(12, 16, 400),
            DistTrainConfig {
                ranks: 2,
                epochs: 2,
                batch_size_per_rank: 2,
                learning_rate: 2e-3,
                shuffle_seed: Some(13),
            },
            &DgxA100Model::dgx_a100(),
        );
        let [weights, ckpt] = weights_and_checkpoint(&mut model);
        let got = [bits(&report.epoch_losses), weights, ckpt];
        check(
            &format!("train_distributed {up_mode:?}, p = {dropout}"),
            &got,
            &want,
        );
    }
}

/// One training step's gradients: the input gradient `backward` returns,
/// then every parameter's. With `eval_between`, a `forward(x, false)` at
/// another batch size and side runs between the training forward and the
/// backward, which must not change a bit.
fn step_gradients(cfg: UNetConfig, x: &Tensor, eval_between: bool) -> [u64; 2] {
    let (n, _, s, _) = x.nchw();
    let mut model = UNet::new(cfg);
    let targets: Vec<u8> = (0..n * s * s).map(|p| (p % 3) as u8).collect();
    let logits = model.forward(x, true);
    if eval_between {
        model.forward(&uniform(&[1, 3, 2 * s, 2 * s], 0.0, 1.0, 9), false);
    }
    let lo = softmax_cross_entropy(&logits, &targets);
    let dx = model.backward(&lo.grad);
    assert_eq!(dx.shape(), x.shape());
    let grads = bits(model.params_mut().iter().flat_map(|p| p.grad.as_slice()));
    [bits(dx.as_slice()), grads]
}

#[test]
fn backward_gradients_are_bit_identical_to_the_recorded_parent() {
    let recorded = [
        [0xdce0_0f25_d29c_73e9, 0xd0b9_9649_defe_1517],
        [0x40b2_0fb8_45c7_aa9d, 0x978a_59a8_3bd1_5a29],
    ];
    let cases = [
        (UpMode::UpsampleConv, 0.2, 32, 61),
        (UpMode::Transposed, 0.0, 16, 62),
    ];
    for (&(up_mode, dropout, side, seed), want) in cases.iter().zip(recorded) {
        let x = uniform(&[3, 3, side, side], -0.5, 1.0, seed);
        let cfg = config(up_mode, dropout, seed);
        let case = format!("backward {up_mode:?}, p = {dropout}, {side}²");
        check(&case, &step_gradients(cfg, &x, false), &want);
        check(
            &format!("{case}, eval call in between"),
            &step_gradients(cfg, &x, true),
            &want,
        );
    }
}

#[test]
#[should_panic(expected = "backward before forward")]
fn backward_before_a_training_forward_panics() {
    let mut model = UNet::new(UNetConfig::cpu_small());
    let x = uniform(&[1, 3, 16, 16], 0.0, 1.0, 1);
    let logits = model.forward(&x, false);
    model.backward(&Tensor::zeros(logits.shape()));
}
