//! Inference-backend selection: restore a checkpoint as the f32 network
//! or quantize it on load to the int8 twin, calibrated on a fixed
//! held-out synthetic set.
//!
//! Every inference replica in the workspace (scene classifiers, serving
//! workers, the stream's infer stage) is loaded from a [`ModelSource`].
//!
//! The calibration scenes use their own seed base ([`CALIBRATION_SEED`]),
//! disjoint from every training, evaluation, and benchmark seed in the
//! workspace — activation ranges are estimated on data the model never
//! trained or is scored on, the usual PTQ held-out-set discipline.

use crate::adapters::image_to_chw;
use seaice_nn::Tensor;
use seaice_s2::synth::{generate, SceneConfig};
use seaice_unet::checkpoint::{self, Checkpoint};
use seaice_unet::{CalibrationSet, InferBackend, QuantizedUNet, TileClassifier, UNet, UNetConfig};
use std::sync::Arc;

/// Seed base of the held-out calibration scenes.
pub const CALIBRATION_SEED: u64 = 0xCA11B;

/// Number of calibration tiles in [`default_calibration`].
pub const CALIBRATION_TILES: u64 = 8;

/// Builds the workflow's standard calibration set: [`CALIBRATION_TILES`]
/// synthetic Sentinel-2 tiles of side `tile_size`, generated at
/// consecutive seeds from [`CALIBRATION_SEED`]. Fully deterministic, so
/// every process that quantizes the same checkpoint at the same tile size
/// gets a bit-identical [`seaice_unet::QuantizedUNet`].
///
/// # Errors
/// A description of why a calibration input is malformed (only reachable
/// with a degenerate `tile_size`).
pub fn default_calibration(tile_size: usize) -> Result<CalibrationSet, String> {
    let cfg = SceneConfig::tiny(tile_size);
    let inputs = (0..CALIBRATION_TILES)
        .map(|i| {
            let scene = generate(&cfg, CALIBRATION_SEED + i);
            Tensor::from_vec(&[1, 3, tile_size, tile_size], image_to_chw(&scene.rgb))
        })
        .collect();
    CalibrationSet::new(inputs)
}

/// A model restored for inference on a caller-selected backend. Both
/// networks are boxed so the enum stays pointer-sized on the stack (the
/// f32 network in particular carries the full training state).
pub enum LoadedModel {
    /// The full-precision network.
    F32(Box<UNet>),
    /// The post-training-quantized network.
    Int8(Box<QuantizedUNet>),
}

impl LoadedModel {
    /// Which backend this model runs.
    pub fn backend(&self) -> InferBackend {
        match self {
            LoadedModel::F32(_) => InferBackend::F32,
            LoadedModel::Int8(_) => InferBackend::Int8,
        }
    }
}

impl TileClassifier for LoadedModel {
    fn predict_into(&mut self, x: &Tensor, out: &mut Vec<u8>) {
        match self {
            LoadedModel::F32(m) => m.predict_into(x, out),
            LoadedModel::Int8(m) => m.predict_into(x, out),
        }
    }

    fn config(&self) -> &UNetConfig {
        match self {
            LoadedModel::F32(m) => m.config(),
            LoadedModel::Int8(m) => m.config(),
        }
    }
}

/// Restores a checkpoint on the requested backend. `Int8` quantizes on
/// load against [`default_calibration`] at `tile_size` — the same f32
/// checkpoint file serves both backends.
///
/// # Errors
/// A `tile_size` the architecture cannot take, or a description of the
/// first payload mismatch or calibration incompatibility.
pub fn restore_backend(
    ckpt: &Checkpoint,
    backend: InferBackend,
    tile_size: usize,
) -> Result<LoadedModel, String> {
    ckpt.config
        .check_input_side(tile_size)
        .map_err(|e| format!("tile size incompatible with checkpoint: {e}"))?;
    match backend {
        InferBackend::F32 => checkpoint::try_restore(ckpt)
            .map(Box::new)
            .map(LoadedModel::F32),
        InferBackend::Int8 => {
            checkpoint::try_restore_quantized(ckpt, &default_calibration(tile_size)?)
                .map(Box::new)
                .map(LoadedModel::Int8)
        }
    }
}

/// What every replica of one model is made from: the f32 checkpoint, or
/// the int8 network quantized once from it (so an int8 replica, one
/// rebuilt after a crash included, is a clone of every other).
pub enum ModelSource {
    /// Each replica restores this checkpoint.
    F32(Arc<Checkpoint>),
    /// Each replica clones this frozen int8 network.
    Int8(Arc<QuantizedUNet>),
}

impl ModelSource {
    /// Checks `tile_size` and the payload through [`restore_backend`].
    ///
    /// # Errors
    /// As [`restore_backend`].
    pub fn new(ckpt: &Checkpoint, backend: InferBackend, tile_size: usize) -> Result<Self, String> {
        Ok(match restore_backend(ckpt, backend, tile_size)? {
            LoadedModel::F32(_) => ModelSource::F32(Arc::new(ckpt.clone())),
            LoadedModel::Int8(q) => ModelSource::Int8(Arc::from(q)),
        })
    }

    /// One replica: the checkpoint restored, or the int8 network cloned.
    ///
    /// # Panics
    /// Panics if an `F32` checkpoint does not match its architecture
    /// ([`new`](Self::new) rules that out).
    pub fn load(&self) -> LoadedModel {
        match self {
            ModelSource::F32(ckpt) => LoadedModel::F32(Box::new(checkpoint::restore(ckpt))),
            ModelSource::Int8(q) => LoadedModel::Int8(Box::new(QuantizedUNet::clone(q))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaice_unet::checkpoint::snapshot;

    fn tiny_ckpt() -> Checkpoint {
        let mut model = UNet::new(UNetConfig {
            depth: 1,
            base_filters: 4,
            dropout: 0.0,
            seed: 5,
            ..UNetConfig::paper()
        });
        snapshot(&mut model)
    }

    #[test]
    fn default_calibration_is_deterministic_and_well_formed() {
        let a = default_calibration(16).unwrap();
        let b = default_calibration(16).unwrap();
        assert_eq!(a.inputs().len(), CALIBRATION_TILES as usize);
        for (x, y) in a.inputs().iter().zip(b.inputs()) {
            assert_eq!(x, y, "calibration tiles must be reproducible");
            assert_eq!(x.shape(), &[1, 3, 16, 16]);
        }
    }

    #[test]
    fn restore_backend_selects_the_requested_implementation() {
        let ckpt = tiny_ckpt();
        let f = restore_backend(&ckpt, InferBackend::F32, 16).unwrap();
        assert_eq!(f.backend(), InferBackend::F32);
        let q = restore_backend(&ckpt, InferBackend::Int8, 16).unwrap();
        assert_eq!(q.backend(), InferBackend::Int8);
    }

    #[test]
    fn int8_restore_is_bit_identical_across_processes_worth_of_calls() {
        let ckpt = tiny_ckpt();
        let restore = || restore_backend(&ckpt, InferBackend::Int8, 16).unwrap();
        let source = ModelSource::new(&ckpt, InferBackend::Int8, 16).unwrap();
        // Two restores agree, and so do two replicas of one source.
        for pair in [(restore(), restore()), (source.load(), source.load())] {
            match pair {
                (LoadedModel::Int8(a), LoadedModel::Int8(b)) => assert_eq!(a, b),
                _ => unreachable!("requested int8"),
            }
        }
    }

    #[test]
    fn loaded_replicas_predict_like_restore_backend_on_both_backends() {
        let ckpt = tiny_ckpt();
        let scene = generate(&SceneConfig::tiny(16), 3).rgb;
        let x = Tensor::from_vec(&[1, 3, 16, 16], image_to_chw(&scene));
        for backend in [InferBackend::F32, InferBackend::Int8] {
            let mut replica = ModelSource::new(&ckpt, backend, 16).unwrap().load();
            let mut direct = restore_backend(&ckpt, backend, 16).unwrap();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            replica.predict_into(&x, &mut got);
            direct.predict_into(&x, &mut want);
            assert_eq!(got, want, "{backend}");
        }
    }

    #[test]
    fn an_incompatible_side_is_one_error_on_both_backends() {
        // A depth-1 network halves once, so it needs an even side.
        let ckpt = tiny_ckpt();
        let want = "tile size incompatible with checkpoint: input side 15 must be a positive \
                    multiple of 2 (depth 1 network)";
        for backend in [InferBackend::F32, InferBackend::Int8] {
            let source = ModelSource::new(&ckpt, backend, 15).err();
            assert_eq!(source.as_deref(), Some(want), "{backend}");
            let restored = restore_backend(&ckpt, backend, 15).err();
            assert_eq!(restored.as_deref(), Some(want), "{backend}");
        }
    }
}
