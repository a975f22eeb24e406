//! The seven workloads. Each module has `run` (end-to-end metrics, tracing
//! off) and `trace` (the same work re-walked under spans, plus the layer
//! measurements that belong to it).

mod label;
mod nnops;
mod scene;
mod serve;
mod stream;
mod train;

use crate::gen::derive;
use crate::harness::{Ctx, Outcome};
use seaice_unet::{InferBackend, UNet, UNetConfig};

/// A network whose ReLUs die at initialisation sits at a loss of
/// ln 3 ≈ 1.10 for good, while one that trains is under this by its last
/// epoch (the slowest starter of 170 seeds: 0.57, all others under 0.45).
/// About one seed in a hundred draws a dead one.
const CONVERGED_LOSS: f32 = 0.6;
const MAX_INITS: usize = 4;

/// Has `train` train a U-Net of shape `cfg`, initialised from `cfg.seed`,
/// and return its last epoch's loss; if that run did not converge, again
/// from the next derived initialisation, so that every `--seed` yields a
/// model worth timing and scoring. Returns the last model trained and the
/// number of attempts. One that never converged goes on to miss its
/// workload's accuracy floor.
fn train_converged(mut cfg: UNetConfig, mut train: impl FnMut(&mut UNet) -> f32) -> (UNet, usize) {
    for attempt in 1.. {
        let mut model = UNet::new(cfg);
        if train(&mut model) < CONVERGED_LOSS || attempt == MAX_INITS {
            return (model, attempt);
        }
        cfg.seed = derive(cfg.seed, 0);
    }
    unreachable!("the loop returns by MAX_INITS")
}

/// Runs workload `name`; `None` for a name that is not in
/// [`crate::metrics::WORKLOADS`].
pub fn run(name: &str, ctx: &Ctx, traced: bool) -> Option<Outcome> {
    Some(match (name, traced) {
        ("label_cloudy", false) => label::run(ctx),
        ("label_cloudy", true) => label::trace(ctx),
        ("scene_infer", false) => scene::run(ctx, InferBackend::F32),
        ("scene_infer", true) => scene::trace(ctx, InferBackend::F32),
        ("scene_infer_int8", false) => scene::run(ctx, InferBackend::Int8),
        ("scene_infer_int8", true) => scene::trace(ctx, InferBackend::Int8),
        ("train_auto", false) => train::run(ctx),
        ("train_auto", true) => train::trace(ctx),
        ("serve_tiles", false) => serve::run(ctx, serve::Mode::Cold),
        ("serve_tiles", true) => serve::trace(ctx, serve::Mode::Cold),
        ("serve_tiles_warm", false) => serve::run(ctx, serve::Mode::Warm),
        ("serve_tiles_warm", true) => serve::trace(ctx, serve::Mode::Warm),
        ("stream_revisit", false) => stream::run(ctx),
        ("stream_revisit", true) => stream::trace(ctx),
        _ => return None,
    })
}
