//! Finite-difference checks of `UNet::backward` through the whole network:
//! the `cpu_small` architecture at 16², dropout 0, in both up modes.
//! Sampled elements of every parameter's gradient — the 13 convolutions,
//! with `UpMode::Transposed`'s transposed up-convolutions in place of the
//! up path's — and of the input gradient `backward` returns are held to
//! central differences of the loss, within `seaice-nn`'s `gradcheck.rs`
//! tolerance.
//!
//! A 13-layer ReLU and max-pool network is piecewise linear with kinks
//! everywhere, so one step cannot serve every element: `gradcheck.rs`'s
//! 1e-2 crosses kinks on the wide-reaching parameters, and steps much
//! below 1e-3 drown in the `f32` forward's rounding. Each element takes
//! the central difference closest to the analytic value over four steps
//! from 1e-2 down; a wrong gradient misses at every step. The loss is the
//! per-pixel cross-entropy summed in `f64`, which keeps the gradients well
//! above the tolerance's absolute floor and the loss's own rounding out of
//! the differences. The model seed is one whose sampled elements sit away
//! from a kink at all four steps.

use seaice_nn::init::uniform;
use seaice_nn::loss::softmax_cross_entropy;
use seaice_nn::Tensor;
use seaice_unet::{UNet, UNetConfig, UpMode};

const STEPS: [f64; 4] = [1e-2, 3e-3, 1e-3, 3e-4];
const TOL: f64 = 2e-2;
const SIDE: usize = 16;

fn targets() -> Vec<u8> {
    (0..SIDE * SIDE).map(|p| (p / 5 % 3) as u8).collect()
}

/// The per-pixel cross-entropy of `x`'s logits, summed in `f64`. Eval
/// logits equal the training forward's at dropout 0.
fn loss(model: &mut UNet, x: &Tensor) -> f64 {
    let logits = model.forward(x, false);
    let (classes, plane) = (logits.shape()[1], SIDE * SIDE);
    let at = |c: usize, p: usize| f64::from(logits.as_slice()[c * plane + p]);
    let ce = |(p, &t): (usize, &u8)| {
        let sum: f64 = (0..classes).map(|c| at(c, p).exp()).sum();
        sum.ln() - at(usize::from(t), p)
    };
    targets().iter().enumerate().map(ce).sum()
}

/// Holds `analytic` to the central differences `f(step) − f(−step)` of a
/// loss `f` of the nudge, at the closest of [`STEPS`].
#[track_caller]
fn check(what: &str, analytic: f32, mut f: impl FnMut(f32) -> f64) {
    let a = f64::from(analytic);
    let numeric = STEPS
        .map(|e| (f(e as f32) - f(-e as f32)) / (2.0 * e))
        .into_iter()
        .min_by(|x, y| (x - a).abs().total_cmp(&(y - a).abs()))
        .expect("four steps");
    assert!(
        (numeric - a).abs() < TOL * (1.0 + numeric.abs().max(a.abs())),
        "{what}: numeric {numeric} vs analytic {a}"
    );
}

fn check_whole_network(up_mode: UpMode) {
    let mut model = UNet::new(UNetConfig {
        up_mode,
        dropout: 0.0,
        seed: 79,
        ..UNetConfig::cpu_small()
    });
    let x = uniform(&[1, 3, SIDE, SIDE], 0.0, 1.0, 5);
    let t = targets();
    model.zero_grads();
    let lo = softmax_cross_entropy(&model.forward(&x, true), &t);
    let pixels = t.len() as f32;
    let dx = model.backward(&lo.grad.map(|g| g * pixels));
    let grads: Vec<Tensor> = model.params_mut().iter().map(|p| p.grad.clone()).collect();
    assert_eq!(grads.len(), 2 * 13, "a weight and a bias at 13 sites");

    for (i, grad) in grads.iter().enumerate() {
        let len = grad.len();
        for j in [0, len / 2, len - 1] {
            let v = model.params_mut()[i].value.as_slice()[j];
            check(
                &format!("{up_mode:?} parameter {i} [{j}]"),
                grad.as_slice()[j],
                |d| {
                    model.params_mut()[i].value.as_mut_slice()[j] = v + d;
                    loss(&mut model, &x)
                },
            );
            model.params_mut()[i].value.as_mut_slice()[j] = v;
        }
    }
    for j in (0..x.len()).step_by(97) {
        check(&format!("{up_mode:?} input [{j}]"), dx.as_slice()[j], |d| {
            let mut nudged = x.clone();
            nudged.as_mut_slice()[j] += d;
            loss(&mut model, &nudged)
        });
    }
}

#[test]
fn upsample_conv_unet_gradients_match_finite_differences() {
    check_whole_network(UpMode::UpsampleConv);
}

#[test]
fn transposed_unet_gradients_match_finite_differences() {
    check_whole_network(UpMode::Transposed);
}
