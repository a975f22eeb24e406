//! Model checkpointing: serialize the configuration plus every parameter
//! tensor to JSON, restore into a freshly built network.
//!
//! The payload is `{"config":{…7 keys…},"params":[{"shape":[…],
//! "data":[…]},…]}`, compact, written and read by this module's own
//! codec ([`Checkpoint::to_json`]/[`Checkpoint::from_json`]) over
//! `seaice_obs::json`: integers exact over the whole `u64` range, every
//! `f32` as the shortest decimal of its `f64` widening (so it reads back
//! bit-exactly), unit enums as their variant name. Decoding goes through
//! `Tensor`'s public constructor after checking `shape` against `data`,
//! so a file cannot produce a tensor the rest of the code could not.
//!
//! On-disk files go through `seaice_obs::durable` (DESIGN.md §4.8):
//! [`save`] writes a CRC32-framed payload with the atomic
//! temp-fsync-rename protocol, and [`load`]/[`read_checkpoint`] verify
//! the checksum before parsing — a torn or bit-flipped checkpoint is
//! always detected, never silently restored. Legacy unframed JSON files
//! (written before the durable layer existed) still load: a file
//! without the frame magic is parsed as-is.

use crate::config::{UNetConfig, UpMode};
use crate::model::UNet;
use crate::quant::{CalibrationSet, QuantizedUNet};
use seaice_nn::Tensor;
use seaice_obs::durable::{self, DurableCtx};
use seaice_obs::json::{self, Exact, Obj};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Ceiling on a checkpoint file's size: anything larger is rejected
/// before the bytes are read (the largest real checkpoint here is a few
/// MiB of JSON; 256 MiB is generous headroom, not a plausible file).
pub const MAX_CHECKPOINT_BYTES: u64 = durable::MAX_PAYLOAD_BYTES;

/// On-disk checkpoint payload.
#[derive(Clone)]
pub struct Checkpoint {
    /// Architecture the weights belong to.
    pub config: UNetConfig,
    /// Parameter values in the model's canonical order.
    pub params: Vec<Tensor>,
}

impl Checkpoint {
    /// The payload as compact JSON. A non-finite parameter is written as
    /// `null`, which [`from_json`](Self::from_json) refuses — it is never
    /// stored as a number.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let values: usize = self.params.iter().map(Tensor::len).sum();
        let mut out = String::with_capacity(256 + 22 * values);
        let up_mode = match c.up_mode {
            UpMode::UpsampleConv => "UpsampleConv",
            UpMode::Transposed => "Transposed",
        };
        let dropout = Exact(f64::from(c.dropout));
        let _ = write!(
            out,
            "{{\"config\":{{\"in_channels\":{},\"num_classes\":{},\"depth\":{},\
             \"base_filters\":{},\"dropout\":{dropout},\"seed\":{},\
             \"up_mode\":\"{up_mode}\"}},\"params\":",
            c.in_channels, c.num_classes, c.depth, c.base_filters, c.seed
        );
        json::push_array(&mut out, &self.params, |out, t| {
            out.push_str("{\"shape\":");
            json::push_array(out, t.shape(), |out, d| {
                let _ = write!(out, "{d}");
            });
            out.push_str(",\"data\":");
            json::push_array(out, t.as_slice(), |out, &x| {
                let _ = write!(out, "{}", Exact(f64::from(x)));
            });
            out.push('}');
        });
        out.push('}');
        out
    }

    /// Parses a payload written by [`to_json`](Self::to_json) (or by any
    /// earlier version of this crate — the format has not changed).
    ///
    /// # Errors
    /// The parse error, or the first field that is missing, mistyped, out
    /// of range, or a tensor whose `data` length is not its `shape`'s
    /// element count — each naming its path (`params[3].data[17]: …`).
    pub fn from_json(src: &str) -> Result<Checkpoint, String> {
        let doc = json::parse(src)?;
        let root = Obj::root(&doc)?;
        let c = root.obj("config")?;
        let up_mode = match c.str("up_mode")? {
            "UpsampleConv" => UpMode::UpsampleConv,
            "Transposed" => UpMode::Transposed,
            other => {
                return Err(format!(
                    "{}: unknown variant `{other}`",
                    c.path_of("up_mode")
                ))
            }
        };
        let config = UNetConfig {
            in_channels: c.uint("in_channels")?,
            num_classes: c.uint("num_classes")?,
            depth: c.uint("depth")?,
            base_filters: c.uint("base_filters")?,
            dropout: c.f64("dropout")? as f32,
            seed: c.uint("seed")?,
            up_mode,
        };
        let params = root.objs("params")?;
        let params = params
            .iter()
            .map(tensor_from_json)
            .collect::<Result<_, _>>()?;
        Ok(Checkpoint { config, params })
    }
}

fn tensor_from_json(t: &Obj) -> Result<Tensor, String> {
    let shape: Vec<usize> = t.uints("shape")?;
    let data = t.f32s("data")?;
    let want = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
    if want != Some(data.len()) {
        return Err(format!(
            "{}: {} values do not fill shape {shape:?}",
            t.path_of("data"),
            data.len()
        ));
    }
    Ok(Tensor::from_vec(&shape, data))
}

/// Extracts a checkpoint from a model.
pub fn snapshot(model: &mut UNet) -> Checkpoint {
    let config = *model.config();
    let params = model
        .params_mut()
        .into_iter()
        .map(|p| p.value.clone())
        .collect();
    Checkpoint { config, params }
}

/// Restores parameters into a model built from the checkpoint's config.
///
/// # Panics
/// Panics if the parameter list does not match the architecture; use
/// [`try_restore`] for untrusted payloads.
pub fn restore(ckpt: &Checkpoint) -> UNet {
    match try_restore(ckpt) {
        Ok(model) => model,
        // seaice-lint: allow(panic-in-library) reason="documented panicking API (# Panics above) for in-memory checkpoints the caller just built; try_restore is the path for untrusted on-disk payloads"
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`restore`]: validates the payload against the architecture
/// the config describes and reports what is wrong instead of panicking —
/// the path `load` takes for on-disk files, which may be truncated or
/// hand-edited.
///
/// # Errors
/// A description of the first mismatch (parameter count or tensor shape).
pub fn try_restore(ckpt: &Checkpoint) -> Result<UNet, String> {
    let mut model = UNet::new(ckpt.config);
    {
        let mut params = model.params_mut();
        if params.len() != ckpt.params.len() {
            return Err(format!(
                "checkpoint parameter count mismatch: architecture has {} tensors, payload has {}",
                params.len(),
                ckpt.params.len()
            ));
        }
        for (i, (p, saved)) in params.iter_mut().zip(&ckpt.params).enumerate() {
            if p.value.shape() != saved.shape() {
                return Err(format!(
                    "checkpoint parameter {i} shape mismatch: architecture wants {:?}, payload has {:?}",
                    p.value.shape(),
                    saved.shape()
                ));
            }
            p.value = saved.clone();
        }
    }
    Ok(model)
}

/// Quantize-on-load from an in-memory checkpoint: [`try_restore`] the f32
/// network, then calibrate and quantize it over `calib`. The checkpoint
/// format is unchanged — int8 serving reads the same f32 files, so every
/// existing checkpoint works with either backend.
///
/// # Errors
/// A description of the first payload mismatch or calibration
/// incompatibility.
pub fn try_restore_quantized(
    ckpt: &Checkpoint,
    calib: &CalibrationSet,
) -> Result<QuantizedUNet, String> {
    try_restore(ckpt)?.quantize(calib)
}

/// Saves a model checkpoint: JSON payload, CRC32-framed, written
/// atomically (temp + fsync + rename).
///
/// # Errors
/// I/O failures.
pub fn save(model: &mut UNet, path: impl AsRef<Path>) -> io::Result<()> {
    save_with(model, path, &DurableCtx::disabled())
}

/// [`save`] with an explicit durable context (the soak harness's
/// fault-injected path).
///
/// # Errors
/// As [`save`]; on error the target holds either nothing or the previous
/// complete checkpoint, never a torn file.
pub fn save_with(model: &mut UNet, path: impl AsRef<Path>, ctx: &DurableCtx) -> io::Result<()> {
    let path = path.as_ref();
    let ckpt = snapshot(model);
    save_checkpoint_payload(&ckpt, path, ctx)
}

/// Writes an already-extracted [`Checkpoint`] durably (what `distrib`'s
/// epoch spill and the stream-stage snapshot use).
///
/// # Errors
/// I/O failures.
pub fn save_checkpoint_payload(ckpt: &Checkpoint, path: &Path, ctx: &DurableCtx) -> io::Result<()> {
    let json = ckpt.to_json();
    durable::write_framed(path, json.as_bytes(), ctx, durable::path_key(path))
        .map_err(|e| e.into_io())
}

/// Reads and checksum-verifies a checkpoint file into its payload
/// struct, applying the size guards *before* the bytes are read.
///
/// # Errors
/// `NotFound` for a missing file; `InvalidData` with a descriptive
/// message for an empty file, an implausibly large file (>
/// [`MAX_CHECKPOINT_BYTES`], guarded against metadata so no allocation
/// happens), a failed checksum, or unparseable JSON.
pub fn read_checkpoint(path: &Path, ctx: &DurableCtx) -> io::Result<Checkpoint> {
    let bytes =
        durable::read_framed(path, ctx, durable::path_key(path)).map_err(|e| e.into_io())?;
    let parsed = match std::str::from_utf8(&bytes) {
        Ok(text) => Checkpoint::from_json(text),
        Err(e) => Err(e.to_string()),
    };
    parsed.map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt checkpoint {}: {e}", path.display()),
        )
    })
}

/// Loads a model checkpoint (checksum-verified for framed files, parsed
/// as-is for legacy unframed JSON).
///
/// # Errors
/// I/O failures, and `InvalidData` with a descriptive message when the
/// file is empty, implausibly large, fails its checksum, is truncated,
/// not JSON, or a valid JSON payload whose parameters do not match the
/// architecture it claims.
pub fn load(path: impl AsRef<Path>) -> io::Result<UNet> {
    load_with(path, &DurableCtx::disabled())
}

/// [`load`] with an explicit durable context (the soak harness's
/// fault-injected path).
///
/// # Errors
/// As [`load`].
pub fn load_with(path: impl AsRef<Path>, ctx: &DurableCtx) -> io::Result<UNet> {
    let path = path.as_ref();
    let ckpt = read_checkpoint(path, ctx)?;
    try_restore(&ckpt).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt checkpoint {}: {e}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaice_nn::init::uniform;

    fn tiny() -> UNet {
        UNet::new(UNetConfig {
            depth: 1,
            base_filters: 4,
            dropout: 0.0,
            seed: 5,
            ..UNetConfig::paper()
        })
    }

    #[test]
    fn snapshot_restore_preserves_outputs() {
        let mut a = tiny();
        let x = uniform(&[1, 3, 8, 8], 0.0, 1.0, 1);
        let ya = a.forward(&x, false);
        let ckpt = snapshot(&mut a);
        let mut b = restore(&ckpt);
        let yb = b.forward(&x, false);
        assert_eq!(ya, yb);
    }

    #[test]
    fn file_roundtrip() {
        let mut a = tiny();
        let x = uniform(&[1, 3, 8, 8], 0.0, 1.0, 2);
        let ya = a.forward(&x, false);
        let path =
            std::env::temp_dir().join(format!("seaice-unet-ckpt-{}.json", std::process::id()));
        save(&mut a, &path).unwrap();
        let mut b = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(b.forward(&x, false), ya);
    }

    #[test]
    fn empty_and_implausibly_large_files_are_rejected_before_parsing() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();

        // Empty file: never a valid checkpoint, rejected descriptively.
        let empty = dir.join(format!("seaice-ckpt-empty-{pid}.json"));
        std::fs::write(&empty, b"").unwrap();
        let e = load(&empty).err().expect("empty must fail");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("empty"), "{e}");

        // Implausibly large file: rejected from metadata, before any
        // read. A sparse file keeps the test instant.
        let huge = dir.join(format!("seaice-ckpt-huge-{pid}.json"));
        let f = std::fs::File::create(&huge).unwrap();
        f.set_len(MAX_CHECKPOINT_BYTES + 1024).unwrap();
        drop(f);
        let e = load(&huge).err().expect("huge must fail");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("implausibly large"), "{e}");

        for f in [empty, huge] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn framed_save_detects_bitflips_and_accepts_legacy_files() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let mut model = tiny();
        let x = uniform(&[1, 3, 8, 8], 0.0, 1.0, 4);
        let want = model.forward(&x, false);

        // save() writes a framed file; a flipped payload bit must be
        // detected on load, never silently restored.
        let framed = dir.join(format!("seaice-ckpt-framed-{pid}.json"));
        save(&mut model, &framed).unwrap();
        let mut bytes = std::fs::read(&framed).unwrap();
        assert_eq!(&bytes[..8], seaice_obs::durable::MAGIC, "save must frame");
        let mid = (seaice_obs::durable::HEADER_LEN + (bytes.len() / 2)).min(bytes.len() - 1);
        bytes[mid] ^= 0x10;
        std::fs::write(&framed, &bytes).unwrap();
        let e = load(&framed).err().expect("bit-flip must be detected");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("checksum mismatch"), "{e}");

        // A legacy unframed JSON checkpoint (pre-durable format) still
        // loads and restores the same network.
        let legacy = dir.join(format!("seaice-ckpt-legacy-{pid}.json"));
        std::fs::write(&legacy, snapshot(&mut model).to_json()).unwrap();
        let mut restored = load(&legacy).unwrap();
        assert_eq!(restored.forward(&x, false), want);

        for f in [framed, legacy] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn corrupt_files_error_descriptively_instead_of_panicking() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();

        // A valid checkpoint to mutilate.
        let mut model = tiny();
        let good = snapshot(&mut model).to_json();

        // 1. Truncated mid-JSON.
        let truncated = dir.join(format!("seaice-ckpt-trunc-{pid}.json"));
        std::fs::write(&truncated, &good[..good.len() / 2]).unwrap();
        let e = load(&truncated).err().expect("truncated file must fail");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("corrupt checkpoint"), "{e}");

        // 2. Not JSON at all.
        let garbage = dir.join(format!("seaice-ckpt-garbage-{pid}.json"));
        std::fs::write(&garbage, b"\x00\xffnot json").unwrap();
        let e = load(&garbage).err().expect("garbage file must fail");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);

        // 3. Valid JSON whose parameter list was truncated: must report
        //    the count mismatch, not panic.
        let mut ckpt = Checkpoint::from_json(&good).unwrap();
        ckpt.params.pop();
        let short = dir.join(format!("seaice-ckpt-short-{pid}.json"));
        std::fs::write(&short, ckpt.to_json()).unwrap();
        let e = load(&short).err().expect("short param list must fail");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("parameter count mismatch"), "{e}");

        // 4. Right count, wrong shape.
        let mut ckpt = Checkpoint::from_json(&good).unwrap();
        let n = ckpt.params.len();
        ckpt.params[n - 1] = Tensor::zeros(&[1]);
        let misshapen = dir.join(format!("seaice-ckpt-shape-{pid}.json"));
        std::fs::write(&misshapen, ckpt.to_json()).unwrap();
        let e = load(&misshapen).err().expect("misshapen param must fail");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("shape mismatch"), "{e}");

        // 5. A missing file is still a plain NotFound, not InvalidData.
        let missing = dir.join(format!("seaice-ckpt-missing-{pid}.json"));
        assert_eq!(
            load(&missing).err().expect("missing file must fail").kind(),
            std::io::ErrorKind::NotFound
        );

        // 6. The architecture's shape, but `data` one value short of it.
        //    `try_restore` compares shapes only, so the decoder must
        //    refuse: such a tensor indexes out of bounds in the first
        //    forward's matmul.
        let at = good.rfind("\"data\":[").unwrap() + "\"data\":[".len();
        let comma = at + good[at..].find(',').unwrap();
        let lying = dir.join(format!("seaice-ckpt-lying-{pid}.json"));
        std::fs::write(&lying, format!("{}{}", &good[..at], &good[comma + 1..])).unwrap();
        let e = load(&lying).err().expect("short tensor data must fail");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        let last = format!("params[{}].data", n - 1);
        assert!(e.to_string().contains(&last), "{e}");

        // 7. 200 000 unclosed arrays: an error, not a stack overflow.
        let deep = dir.join(format!("seaice-ckpt-deep-{pid}.json"));
        std::fs::write(&deep, "[".repeat(200_000)).unwrap();
        let e = load(&deep).err().expect("deep nesting must fail");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("nesting"), "{e}");

        for f in [truncated, garbage, short, misshapen, lying, deep] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn a_non_finite_weight_is_never_persisted_as_a_number() {
        let mut model = tiny();
        model.params_mut()[0].value.as_mut_slice()[0] = f32::NAN;
        let json = snapshot(&mut model).to_json();
        assert!(json.contains("\"data\":[null,"), "NaN is written as null");
        let path =
            std::env::temp_dir().join(format!("seaice-ckpt-nan-{}.json", std::process::id()));
        save(&mut model, &path).unwrap();
        let e = load(&path).err().expect("a NaN weight must not load");
        std::fs::remove_file(&path).ok();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("params[0].data[0]"), "{e}");
    }

    fn calib() -> CalibrationSet {
        CalibrationSet::new(vec![
            uniform(&[1, 3, 8, 8], 0.0, 1.0, 71),
            uniform(&[1, 3, 8, 8], 0.0, 1.0, 72),
        ])
        .unwrap()
    }

    #[test]
    fn quantized_restore_of_a_file_refuses_an_incompatible_calibration() {
        // A torn, truncated or misshapen file fails in `read_checkpoint` or
        // `try_restore` before quantising (the `load` cases above). What
        // only the int8 restore can refuse is the calibration set.
        let path =
            std::env::temp_dir().join(format!("seaice-qckpt-intact-{}.json", std::process::id()));
        save(&mut tiny(), &path).unwrap();
        let ckpt = read_checkpoint(&path, &DurableCtx::disabled()).unwrap();
        std::fs::remove_file(&path).ok();
        let bad_calib = CalibrationSet::new(vec![uniform(&[1, 2, 8, 8], 0.0, 1.0, 1)]).unwrap();
        let e = try_restore_quantized(&ckpt, &bad_calib)
            .expect_err("incompatible calibration must fail");
        assert!(e.contains("channels"), "{e}");
    }

    #[test]
    fn quantized_restore_is_bit_identical_across_loads() {
        let mut model = tiny();
        let ckpt = snapshot(&mut model);
        let calib = calib();
        let a = try_restore_quantized(&ckpt, &calib).unwrap();
        let b = try_restore_quantized(&ckpt, &calib).unwrap();
        assert_eq!(
            a, b,
            "same checkpoint + calibration must quantize identically"
        );

        let x = uniform(&[1, 3, 8, 8], 0.0, 1.0, 9);
        assert_eq!(a.forward(&x), b.forward(&x));

        // And through the file path too.
        let path = std::env::temp_dir().join(format!(
            "seaice-qckpt-roundtrip-{}.json",
            std::process::id()
        ));
        save(&mut model, &path).unwrap();
        let on_disk = read_checkpoint(&path, &DurableCtx::disabled()).unwrap();
        let c = try_restore_quantized(&on_disk, &calib).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(a, c, "on-disk load must match in-memory restore");
    }

    #[test]
    fn restore_differs_from_fresh_network_after_training() {
        use seaice_nn::loss::softmax_cross_entropy;
        use seaice_nn::optim::{Adam, Optimizer};
        let mut a = tiny();
        let x = uniform(&[1, 3, 8, 8], 0.0, 1.0, 3);
        let targets: Vec<u8> = (0..64).map(|i| (i % 3) as u8).collect();
        let mut adam = Adam::new(1e-2);
        for _ in 0..3 {
            a.zero_grads();
            let y = a.forward(&x, true);
            let lo = softmax_cross_entropy(&y, &targets);
            a.backward(&lo.grad);
            adam.step(&mut a.params_mut());
        }
        let trained = a.forward(&x, false);
        let restored = restore(&snapshot(&mut a)).forward(&x, false);
        let fresh = tiny().forward(&x, false);
        assert_eq!(trained, restored, "checkpoint must capture training");
        assert_ne!(trained, fresh, "training must have changed the network");
    }
}
