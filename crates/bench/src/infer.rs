//! infer-bench — f32 vs int8 inference, measured on this host.
//!
//! Two measurements per backend, reported side by side and written to
//! `BENCH_infer.json` by `reproduce infer`:
//!
//! * **forward ns/tile** — the raw single-tile forward pass (no serving
//!   machinery), best-of-`reps` so scheduler noise doesn't pollute the
//!   comparison;
//! * **serve req/s and p99** — the full `seaice-serve` closed-loop
//!   archive workload from [`crate::servebench`], re-run per backend.
//!
//! The table also reports the argmax agreement between the two backends
//! over the bench tiles — the differential the quantization error bound
//! is supposed to keep near 1.0 (the tier-1 `tests/quant_differential.rs`
//! enforces the ceiling; this prints the measured value).

use crate::scale::Scale;
use crate::servebench::{self, ServeBenchConfig};
use seaice_nn::Tensor;
use seaice_s2::synth::{generate, SceneConfig};
use seaice_unet::checkpoint::{snapshot, try_restore, try_restore_quantized, Checkpoint};
use seaice_unet::{InferBackend, UNet, UNetConfig};
use std::time::Instant;

/// Inference-bench parameters.
#[derive(Clone, Copy, Debug)]
pub struct InferBenchConfig {
    /// Tile side the model serves.
    pub tile_size: usize,
    /// Distinct tiles in the forward microbench.
    pub tiles: usize,
    /// Repetitions of the microbench; the best rep is reported.
    pub reps: usize,
    /// The serve workload driven once per backend.
    pub serve: ServeBenchConfig,
}

impl InferBenchConfig {
    /// The preset workload for `scale`.
    pub fn from_scale(scale: Scale) -> Self {
        let serve = ServeBenchConfig::from_scale(scale);
        let tiles = match scale {
            Scale::Small => 16,
            Scale::Medium => 32,
            Scale::Large => 64,
        };
        Self {
            tile_size: serve.tile_size,
            tiles,
            reps: 3,
            serve,
        }
    }
}

/// One backend's measured numbers.
#[derive(Clone, Debug)]
pub struct InferBenchRow {
    /// `"f32"` or `"int8"`.
    pub backend: String,
    /// Best-rep single-tile forward latency, nanoseconds.
    pub forward_ns_per_tile: f64,
    /// Closed-loop serve throughput, requests/s.
    pub serve_rps: f64,
    /// Closed-loop serve 99th-percentile latency, milliseconds.
    pub serve_p99_ms: f64,
    /// Did the engine output match its own sequential baseline bit for
    /// bit (within-backend determinism)?
    pub serve_bit_identical: bool,
}

/// Complete infer-bench result (the `BENCH_infer.json` payload).
#[derive(Clone, Debug)]
pub struct InferBench {
    /// The workload that was driven.
    pub cfg: InferBenchConfig,
    /// f32 first, int8 second.
    pub rows: Vec<InferBenchRow>,
    /// f32 forward time / int8 forward time (>1 means int8 is faster).
    pub forward_speedup: f64,
    /// Fraction of pixels where both backends predict the same class
    /// over the microbench tiles.
    pub argmax_agreement: f64,
}

/// The same serving model `servebench` drives.
fn bench_checkpoint(tile_size: usize) -> Checkpoint {
    let cfg = UNetConfig {
        depth: 1,
        base_filters: 4,
        dropout: 0.0,
        seed: 0x5EA1CE,
        ..UNetConfig::paper()
    };
    cfg.assert_input_side(tile_size);
    snapshot(&mut UNet::new(cfg))
}

/// Runs the preset workload for `scale`.
pub fn run(scale: Scale) -> InferBench {
    run_config(InferBenchConfig::from_scale(scale))
}

/// Runs an explicit workload.
pub fn run_config(cfg: InferBenchConfig) -> InferBench {
    let ckpt = bench_checkpoint(cfg.tile_size);
    let mut f32_model = try_restore(&ckpt).expect("bench checkpoint restores");
    let calib = seaice_core::default_calibration(cfg.tile_size).expect("calibration set");
    let int8_model = try_restore_quantized(&ckpt, &calib).expect("bench checkpoint quantizes");

    let s = cfg.tile_size;
    let inputs: Vec<Tensor> = (0..cfg.tiles)
        .map(|i| {
            let rgb = generate(&SceneConfig::tiny(s), 6000 + i as u64).rgb;
            Tensor::from_vec(&[1, 3, s, s], seaice_core::adapters::image_to_chw(&rgb))
        })
        .collect();

    // --- Forward microbench: best-of-reps per backend ---------------------
    type Forward<'a> = Box<dyn FnMut(&Tensor, &mut Vec<u8>) + 'a>;
    let mut preds = Vec::new();
    let mut best = |mut f: Forward| -> f64 {
        let mut best_ns = f64::INFINITY;
        for _ in 0..cfg.reps.max(1) {
            let t0 = Instant::now();
            for x in &inputs {
                f(x, &mut preds);
            }
            let ns = t0.elapsed().as_nanos() as f64 / inputs.len() as f64;
            if ns < best_ns {
                best_ns = ns;
            }
        }
        best_ns
    };
    let f32_ns = best(Box::new(|x, out| f32_model.predict_into(x, out)));
    let int8_ns = best(Box::new(|x, out| int8_model.predict_into(x, out)));

    // --- Argmax agreement over the microbench tiles -----------------------
    let mut same = 0usize;
    let mut total = 0usize;
    let mut fp = Vec::new();
    let mut qp = Vec::new();
    for x in &inputs {
        f32_model.predict_into(x, &mut fp);
        int8_model.predict_into(x, &mut qp);
        same += fp.iter().zip(&qp).filter(|(a, b)| a == b).count();
        total += fp.len();
    }
    let argmax_agreement = same as f64 / total as f64;

    // --- Serve workload per backend ---------------------------------------
    let mut rows = Vec::with_capacity(2);
    for (backend, ns) in [(InferBackend::F32, f32_ns), (InferBackend::Int8, int8_ns)] {
        let b = servebench::run_config(ServeBenchConfig {
            backend,
            ..cfg.serve
        });
        // Row 1 is the engine closed-loop (see servebench's row order).
        let closed = &b.rows[1];
        rows.push(InferBenchRow {
            backend: backend.to_string(),
            forward_ns_per_tile: ns,
            serve_rps: closed.throughput_rps,
            serve_p99_ms: closed.p99_ms,
            serve_bit_identical: b.bit_identical,
        });
    }

    InferBench {
        cfg,
        forward_speedup: f32_ns / int8_ns.max(1.0),
        argmax_agreement,
        rows,
    }
}

impl InferBench {
    /// The `BENCH_infer.json` perf-trajectory summary in the common
    /// `seaice-bench/1` schema: the int8 payoff and agreement bound
    /// (tight — quantization quality is the claim), per-backend forward
    /// times (loose — host wall time), and the zero-tolerance
    /// within-backend determinism claim.
    pub fn summary(&self) -> seaice_obs::bench::Summary {
        let bit_identical = self.rows.iter().all(|r| r.serve_bit_identical);
        let mut s = seaice_obs::bench::Summary::new("infer")
            .metric("forward_speedup", self.forward_speedup, "x", true, 0.5)
            .metric(
                "argmax_agreement",
                self.argmax_agreement,
                "fraction",
                true,
                0.02,
            )
            .metric(
                "bit_identical",
                if bit_identical { 1.0 } else { 0.0 },
                "bool",
                true,
                0.0,
            );
        for r in &self.rows {
            s = s.metric(
                &format!("{}_forward_us", r.backend),
                r.forward_ns_per_tile / 1e3,
                "us",
                false,
                1.0,
            );
        }
        s
    }

    /// Renders the backend comparison table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "INFER BENCH: tile {}, {} microbench tiles x {} reps (best), serve workload {} scenes x {} passes\n",
            self.cfg.tile_size,
            self.cfg.tiles,
            self.cfg.reps,
            self.cfg.serve.scenes,
            self.cfg.serve.passes
        ));
        s.push_str("backend | forward us/tile | serve req/s | serve p99 ms | bit-identical\n");
        for r in &self.rows {
            s.push_str(&format!(
                "{:<7} | {:>15.1} | {:>11.1} | {:>12.2} | {}\n",
                r.backend,
                r.forward_ns_per_tile / 1e3,
                r.serve_rps,
                r.serve_p99_ms,
                if r.serve_bit_identical {
                    "OK"
                } else {
                    "MISMATCH"
                }
            ));
        }
        s.push_str(&format!(
            "int8 forward speedup over f32: {:.2}x; f32/int8 argmax agreement: {:.2}%\n",
            self.forward_speedup,
            self.argmax_agreement * 100.0
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inferbench_small_compares_backends_sanely() {
        let b = run_config(InferBenchConfig {
            tiles: 4,
            reps: 2,
            serve: ServeBenchConfig {
                scenes: 1,
                scene_side: 32,
                passes: 2,
                clients: 2,
                ..ServeBenchConfig::from_scale(Scale::Small)
            },
            ..InferBenchConfig::from_scale(Scale::Small)
        });
        assert_eq!(b.rows.len(), 2);
        assert_eq!(b.rows[0].backend, "f32");
        assert_eq!(b.rows[1].backend, "int8");
        for r in &b.rows {
            assert!(r.forward_ns_per_tile > 0.0, "{}", r.backend);
            assert!(r.serve_rps > 0.0, "{}", r.backend);
            assert!(r.serve_bit_identical, "{} engine diverged", r.backend);
        }
        // Quantization error must not scramble predictions wholesale.
        assert!(
            b.argmax_agreement > 0.95,
            "argmax agreement {:.3}",
            b.argmax_agreement
        );
        let table = b.render();
        assert!(table.contains("INFER BENCH"));
        assert!(table.contains("int8"));
    }
}
