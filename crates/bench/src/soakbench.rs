//! soak-bench — the seeded chaos-soak harness (DESIGN.md §4.8).
//!
//! K seeded random fault schedules, four legs, one discipline: every
//! fault decision is pure in `(seed, site, key)`, so every schedule's
//! expected behavior is *precomputed* and the run is checked against it:
//!
//! * **durable** — a torture loop over [`seaice_obs::durable`] under
//!   probabilistic ENOSPC / torn-write / bit-flip / read-corruption
//!   rules. A harness-side oracle replays the plan's pure decisions on
//!   its own copy of the expected on-disk bytes (via the public
//!   [`durable::unframe`]) and every write/read outcome must match it
//!   exactly — a corrupt payload returned as `Ok` is a violation.
//! * **stream** — kill–resume under IO faults on the checkpoint file:
//!   a run killed mid-feed and resumed must produce a drift series
//!   byte-identical to an uninterrupted reference, even when checkpoint
//!   writes tear or the stored snapshot is bit-flipped (the resume
//!   discards it and replays — time lost, never correctness).
//! * **mapreduce** — a seed-chosen executor panics on every task under
//!   a resilient policy; the collected output must equal the fault-free
//!   run's exactly.
//! * **serve** — a seed-chosen request kills the only replica mid-batch;
//!   the restarted replica must answer every tile bit-identically to a
//!   direct `model.predict`.
//!
//! A failed schedule is minimized on the spot: the row carries a
//! `seed=… site=… key=…` repro line (from the plan's recorded fired-
//! fault log) that re-arms the exact injection. Zero violations is the
//! zero-tolerance claim `BENCH_soak.json` pins.

use crate::scale::Scale;
use seaice_core::stream_workflow::{
    run_stream, run_stream_resumable, train_stream_model, StreamResumeConfig, StreamWorkflowConfig,
};
use seaice_faults::{mix, FaultAction, FaultPlan, FaultRule};
use seaice_imgproc::buffer::Image;
use seaice_mapreduce::{ClusterSpec, CostModel, RunPolicy, Session};
use seaice_obs::durable::{self, DurableCtx, RetryPolicy};
use seaice_s2::synth::{generate, SceneConfig};
use seaice_serve::{tile_key, Engine, EngineConfig};
use seaice_stream::StreamPolicy;
use seaice_unet::checkpoint::snapshot;
use seaice_unet::{UNet, UNetConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Base seed every schedule's seed is mixed from; pinned so the whole
/// soak — which faults fire, where, in what order — is reproducible.
pub const SOAK_SEED: u64 = 0x50AB;

/// Writes per durable-torture schedule.
const TORTURE_WRITES: u64 = 16;

/// One schedule's verdict.
#[derive(Clone, Debug)]
pub struct SoakRow {
    /// Which leg the schedule ran ("durable" / "stream" / "mapreduce" /
    /// "serve").
    pub leg: String,
    /// Schedule index within the leg.
    pub schedule: u64,
    /// The schedule's fault-plan seed.
    pub seed: u64,
    /// Faults the plan actually fired.
    pub injections: u64,
    /// Every invariant held.
    pub ok: bool,
    /// Minimized repro line when `ok` is false.
    pub repro: Option<String>,
    /// What happened, in words.
    pub note: String,
}

/// The rendered soak run.
#[derive(Clone, Debug)]
pub struct SoakBench {
    /// Total schedules executed.
    pub schedules: usize,
    /// Schedules that broke an invariant (must be 0).
    pub violations: usize,
    /// Faults fired across every schedule.
    pub injections_fired: u64,
    /// Durable-torture write attempts.
    pub torture_writes: usize,
    /// Torture writes the faults made fail (torn / ENOSPC / transient).
    pub write_faults: usize,
    /// Reads that correctly *refused* corrupt bytes instead of loading
    /// them.
    pub corrupt_reads_refused: usize,
    /// Read-side corruption that hit the magic marker and demoted the
    /// frame to a legacy passthrough (documented edge: transient, a
    /// clean re-read still verifies).
    pub legacy_demotions: usize,
    /// Stream checkpoints durably written across kill–resume schedules.
    pub checkpoints_written: usize,
    /// Stream checkpoint writes the faults made fail (tolerated: only
    /// replayed work).
    pub checkpoint_write_failures: usize,
    /// Every recovered output matched its fault-free reference byte for
    /// byte (stream / mapreduce / serve legs).
    pub byte_identical: bool,
    /// One row per schedule.
    pub rows: Vec<SoakRow>,
}

/// Counters the durable-torture leg accumulates.
#[derive(Default)]
struct DurableTally {
    writes: usize,
    write_faults: usize,
    corrupt_refused: usize,
    legacy_demotions: usize,
}

/// The minimized repro: the last firing the recorded plan observed is,
/// by construction, the injection the failing check tripped over (each
/// op's decisions are checked immediately after it runs).
fn repro_line(plan: &FaultPlan, seed: u64) -> String {
    match plan.fired_log().last() {
        Some(f) => format!(
            "seed={seed:#x} site={} key={:#x} action={:?}",
            f.site, f.key, f.action
        ),
        None => format!("seed={seed:#x} site=<none fired>"),
    }
}

/// Deterministic per-op payload: varies in content and length so frames
/// exercise different bit positions.
fn torture_payload(seed: u64, op: u64) -> Vec<u8> {
    let n = 48 + (mix(seed, op) as usize % 160);
    (0..n as u64).map(|j| mix(mix(seed, op), j) as u8).collect()
}

/// One durable-torture schedule: `TORTURE_WRITES` write/read rounds
/// against a single target file, each round's outcome checked against
/// the oracle's precomputed expectation.
fn durable_schedule(dir: &Path, i: u64, tally: &mut DurableTally) -> SoakRow {
    let seed = mix(SOAK_SEED, i);
    let plan = Arc::new(
        FaultPlan::seeded(seed)
            .recording()
            .with_rule(durable::SITE_WRITE_ENOSPC, FaultRule::panics(0.10))
            .with_rule(
                durable::SITE_WRITE_TORN,
                FaultRule {
                    panic_prob: 0.15,
                    error_prob: 0.10,
                    ..FaultRule::default()
                },
            )
            .with_rule(durable::SITE_WRITE_BITFLIP, FaultRule::panics(0.15))
            .with_rule(durable::SITE_READ_CORRUPT, FaultRule::panics(0.25)),
    );
    // One attempt per write: every pure decision maps 1:1 to an
    // observable outcome, so the oracle below needs no retry modeling.
    let ctx = DurableCtx::with_faults(Arc::clone(&plan)).with_retry(RetryPolicy::once());
    let clean = DurableCtx::disabled();
    let path = dir.join(format!("torture_{i:02}.bin"));

    // The oracle's view: the exact framed bytes on disk, and the payload
    // a verified read is allowed to return (None = disk holds corruption
    // that every read must refuse).
    let mut disk: Option<Vec<u8>> = None;
    let mut last_good: Option<Vec<u8>> = None;
    let mut violation: Option<String> = None;

    for op in 0..TORTURE_WRITES {
        let payload = torture_payload(seed, op);
        let akey = mix(op, 0); // RetryPolicy::once ⇒ only attempt 0 exists
        let fires = |site: &str| !matches!(plan.decide(site, akey), FaultAction::None);
        let enospc = fires(durable::SITE_WRITE_ENOSPC);
        let torn = plan.decide(durable::SITE_WRITE_TORN, akey);
        // Precedence mirrors the write path: ENOSPC, then torn, then the
        // silent bit-flip (only a completed write can be flipped).
        let expect_ok = !enospc && torn == FaultAction::None;
        let bitflip = expect_ok && fires(durable::SITE_WRITE_BITFLIP);

        tally.writes += 1;
        let wrote = durable::write_framed(&path, &payload, &ctx, op);
        if wrote.is_ok() != expect_ok {
            violation = Some(format!(
                "op {op}: write returned {} but the plan decided {}",
                if wrote.is_ok() { "Ok" } else { "Err" },
                if expect_ok { "success" } else { "failure" }
            ));
            break;
        }
        if expect_ok {
            let mut framed = durable::frame(&payload);
            if bitflip {
                // Replays the writer's deterministic flip formula.
                let body = framed.len() - durable::HEADER_LEN;
                let bit = (mix(akey, 0xB17F) as usize) % (body * 8);
                framed[durable::HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
                last_good = None;
            } else {
                last_good = Some(payload.clone());
            }
            disk = Some(framed);
        } else {
            tally.write_faults += 1;
        }

        // Clean read: must return the last intact payload, or refuse.
        match durable::read_framed(&path, &clean, op) {
            Ok(bytes) => {
                if last_good.as_deref() != Some(bytes.as_slice()) {
                    violation = Some(format!("op {op}: clean read accepted corrupt state"));
                    break;
                }
            }
            Err(e) if disk.is_none() => {
                if e.into_io().kind() != io::ErrorKind::NotFound {
                    violation = Some(format!("op {op}: empty target read a non-NotFound error"));
                    break;
                }
            }
            Err(_) => {
                if last_good.is_some() {
                    violation = Some(format!("op {op}: clean read refused an intact file"));
                    break;
                }
                tally.corrupt_refused += 1;
            }
        }

        // Fault-injected read: the oracle applies the same deterministic
        // flip to its copy of the disk image and runs the public frame
        // validator; the real read must agree byte for byte.
        let Some(img) = &disk else { continue };
        let rkey = mix(op, 0xAB);
        let rc = fires_read(&plan, rkey);
        let mut view = img.clone();
        if rc {
            let bit = (mix(rkey, 0x5EAD) as usize) % (view.len() * 8);
            view[bit / 8] ^= 1 << (bit % 8);
        }
        let expect = durable::unframe(&view, &path, durable::MAX_PAYLOAD_BYTES).map(|p| match p {
            Some(payload) => payload.to_vec(),
            None => view.clone(),
        });
        match (durable::read_framed(&path, &ctx, rkey), expect) {
            (Ok(got), Ok(want)) => {
                if got != want {
                    violation = Some(format!("op {op}: faulty read disagreed with the oracle"));
                    break;
                }
                if rc && last_good.as_deref() != Some(got.as_slice()) {
                    // The flip hit the magic marker: the frame was
                    // demoted to a legacy passthrough (or, vanishingly,
                    // cancelled an earlier write flip). Transient — the
                    // clean read above still verified the real file.
                    tally.legacy_demotions += 1;
                }
            }
            (Err(_), Err(_)) => tally.corrupt_refused += 1,
            (got, want) => {
                violation = Some(format!(
                    "op {op}: faulty read {} but the oracle expected {}",
                    if got.is_ok() { "succeeded" } else { "failed" },
                    if want.is_ok() { "success" } else { "refusal" }
                ));
                break;
            }
        }
    }

    let ok = violation.is_none();
    SoakRow {
        leg: "durable".into(),
        schedule: i,
        seed,
        injections: plan.injections_fired(),
        ok,
        repro: (!ok).then(|| repro_line(&plan, seed)),
        note: violation.unwrap_or_else(|| format!("{TORTURE_WRITES} write/read rounds")),
    }
}

fn fires_read(plan: &FaultPlan, rkey: u64) -> bool {
    !matches!(
        plan.decide(durable::SITE_READ_CORRUPT, rkey),
        FaultAction::None
    )
}

/// One stream kill–resume schedule: reference run, then a killed run and
/// a resuming run under checkpoint IO faults; the resumed series must be
/// byte-identical to the reference.
fn stream_schedule(dir: &Path, i: u64) -> (SoakRow, usize, usize) {
    let seed = mix(SOAK_SEED ^ 0x57E4, i);
    let mut cfg = StreamWorkflowConfig::tiny();
    cfg.seed = seed | 1;
    let ckpt = train_stream_model(&cfg);
    let reference = run_stream(
        &cfg,
        &ckpt,
        StreamPolicy::default(),
        Arc::new(FaultPlan::disabled()),
    )
    .expect("fault-free reference run")
    .series
    .to_bytes();

    let plan = Arc::new(
        FaultPlan::seeded(seed)
            .recording()
            .with_rule(
                durable::SITE_WRITE_TORN,
                FaultRule {
                    panic_prob: 0.25,
                    error_prob: 0.15,
                    ..FaultRule::default()
                },
            )
            .with_rule(durable::SITE_WRITE_BITFLIP, FaultRule::panics(0.20))
            .with_rule(durable::SITE_WRITE_ENOSPC, FaultRule::panics(0.10))
            .with_rule(durable::SITE_READ_CORRUPT, FaultRule::panics(0.25)),
    );
    let dctx = DurableCtx::with_faults(Arc::clone(&plan)).with_retry(RetryPolicy::once());
    let path: PathBuf = dir.join(format!("stream_{i:02}.ckpt"));
    let total = cfg.regions * cfg.revisits as usize;
    let every = 1 + (i as usize % 2);
    let kill_after = 1 + (i as usize % (total - 1));

    let run = |resume: StreamResumeConfig| {
        run_stream_resumable(
            &cfg,
            &ckpt,
            StreamPolicy::default(),
            Arc::new(FaultPlan::disabled()),
            &resume,
            &dctx,
        )
    };
    let (ok, note, written, failed) = match (
        run(StreamResumeConfig::new(&path, every).killed_after(kill_after)),
        run(StreamResumeConfig::new(&path, every)),
    ) {
        (Ok(killed), Ok(resumed)) => {
            let identical = resumed.finished
                && resumed.series.as_ref().map(|s| s.to_bytes()) == Some(reference.clone());
            let note = format!(
                "killed at {} of {total} scenes, resumed from {}{}{}",
                killed.scenes_done,
                resumed.resumed_from,
                if resumed.corrupt_checkpoint_discarded {
                    " (corrupt checkpoint discarded)"
                } else {
                    ""
                },
                if identical {
                    ""
                } else {
                    " — SERIES DIVERGED"
                },
            );
            (
                identical,
                note,
                killed.checkpoints_written + resumed.checkpoints_written,
                killed.checkpoint_write_failures + resumed.checkpoint_write_failures,
            )
        }
        _ => (false, "a resumable run errored".into(), 0, 0),
    };

    let row = SoakRow {
        leg: "stream".into(),
        schedule: i,
        seed,
        injections: plan.injections_fired(),
        ok,
        repro: (!ok).then(|| repro_line(&plan, seed)),
        note,
    };
    (row, written, failed)
}

fn scramble(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// One mapreduce schedule: a seed-chosen executor (of 4) panics on every
/// task; the resilient scheduler must deliver the exact fault-free
/// output set.
fn mapreduce_schedule(items: usize, i: u64) -> SoakRow {
    let seed = mix(SOAK_SEED ^ 0xC0DE, i);
    let data: Vec<u64> = (0..items as u64).map(|x| mix(seed, x)).collect();

    let s = Session::new(ClusterSpec::new(4, 2).unwrap(), CostModel::gcd_n2());
    let (df, _) = s.read(data.clone(), 8.0);
    let (lazy, _) = df.map(&s, scramble);
    let (want, _) = lazy.collect(&s, 8.0);

    let victim = seed % 4;
    let plan = Arc::new(FaultPlan::seeded(seed).recording().fail_keys(
        "mapreduce.executor",
        &[victim],
        FaultAction::Panic,
    ));
    let s = Session::new(ClusterSpec::new(4, 2).unwrap(), CostModel::gcd_n2());
    let (df, _) = s.read(data, 8.0);
    let (lazy, _) = df.map(&s, scramble);
    let (ok, note) = match lazy.collect_ft(&s, 8.0, RunPolicy::resilient(), Arc::clone(&plan)) {
        Ok((got, _, ft)) => {
            let identical = got == want && plan.injections_fired() >= 1;
            (
                identical,
                format!(
                    "executor {victim}/4 killed, {} retries{}",
                    ft.retries,
                    if identical {
                        ""
                    } else {
                        " — OUTPUT DIVERGED"
                    }
                ),
            )
        }
        Err(e) => (false, format!("job failed to recover: {e}")),
    };

    SoakRow {
        leg: "mapreduce".into(),
        schedule: i,
        seed,
        injections: plan.injections_fired(),
        ok,
        repro: (!ok).then(|| repro_line(&plan, seed)),
        note,
    }
}

/// One serve schedule: a seed-chosen request's first batch kills the
/// only replica; the restarted replica must answer every tile exactly
/// like a direct forward pass.
fn serve_schedule(tiles_n: usize, i: u64) -> SoakRow {
    let seed = mix(SOAK_SEED ^ 0x5E12, i);
    let mut model = UNet::new(UNetConfig {
        depth: 1,
        base_filters: 4,
        dropout: 0.0,
        seed,
        ..UNetConfig::paper()
    });
    let ckpt = snapshot(&mut model);
    let tiles: Vec<Image<u8>> = (0..tiles_n as u64)
        .map(|t| generate(&SceneConfig::tiny(16), mix(seed, t)).rgb)
        .collect();
    let victim = seed as usize % tiles.len();

    let plan = Arc::new(FaultPlan::seeded(seed).recording().fail_keys(
        "serve.worker",
        &[mix(tile_key(&tiles[victim]), 0)],
        FaultAction::Panic,
    ));
    let engine = Engine::with_faults(
        &ckpt,
        EngineConfig {
            workers: 1,
            max_batch_size: 1,
            max_wait: Duration::from_millis(1),
            queue_capacity: 16,
            cache_capacity: 0,
            filter: false,
            ..EngineConfig::for_tile(16)
        },
        Arc::clone(&plan),
    )
    .expect("soak engine config is valid");

    let mut identical = true;
    for t in &tiles {
        match engine.classify(t.clone()) {
            Ok(got) => {
                let chw = seaice_core::adapters::image_to_chw(t);
                let x = seaice_nn::Tensor::from_vec(&[1, 3, 16, 16], chw);
                identical &= *got == model.predict(&x);
            }
            Err(_) => identical = false,
        }
    }
    let stats = engine.stats();
    engine.shutdown();

    let ok = identical && stats.robustness.worker_restarts >= 1 && plan.injections_fired() >= 1;
    SoakRow {
        leg: "serve".into(),
        schedule: i,
        seed,
        injections: plan.injections_fired(),
        ok,
        repro: (!ok).then(|| repro_line(&plan, seed)),
        note: format!(
            "replica killed on tile {victim}, {} restart(s), {} tiles answered{}",
            stats.robustness.worker_restarts,
            tiles.len(),
            if identical {
                ""
            } else {
                " — ANSWERS DIVERGED"
            }
        ),
    }
}

/// Runs every schedule at `scale`.
///
/// Injected panics (mapreduce executors, serve replicas) are expected,
/// so their default stderr backtraces are filtered out for the duration;
/// any *other* panic still reports normally.
pub fn run(scale: Scale) -> SoakBench {
    let (durable_n, stream_n, mr_n, serve_n) = scale.soak_schedules();
    let (items, _, serve_tiles) = scale.chaos_workload();
    let dir = std::env::temp_dir().join(format!("seaice-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create soak scratch dir");

    let mut rows = Vec::new();
    let mut tally = DurableTally::default();
    for i in 0..durable_n {
        rows.push(durable_schedule(&dir, i as u64, &mut tally));
    }
    let mut checkpoints_written = 0;
    let mut checkpoint_write_failures = 0;
    for i in 0..stream_n {
        let (row, written, failed) = stream_schedule(&dir, i as u64);
        checkpoints_written += written;
        checkpoint_write_failures += failed;
        rows.push(row);
    }
    let panicking: Vec<SoakRow> = crate::with_suppressed_panics("injected fault", || {
        let mut v: Vec<SoakRow> = (0..mr_n)
            .map(|i| mapreduce_schedule(items, i as u64))
            .collect();
        v.extend((0..serve_n).map(|i| serve_schedule(serve_tiles.clamp(2, 8), i as u64)));
        v
    });
    rows.extend(panicking);
    std::fs::remove_dir_all(&dir).ok();

    SoakBench {
        schedules: rows.len(),
        violations: rows.iter().filter(|r| !r.ok).count(),
        injections_fired: rows.iter().map(|r| r.injections).sum(),
        torture_writes: tally.writes,
        write_faults: tally.write_faults,
        corrupt_reads_refused: tally.corrupt_refused,
        legacy_demotions: tally.legacy_demotions,
        checkpoints_written,
        checkpoint_write_failures,
        byte_identical: rows.iter().filter(|r| r.leg != "durable").all(|r| r.ok),
        rows,
    }
}

impl SoakBench {
    /// The `BENCH_soak.json` summary: zero-tolerance violation and
    /// byte-identity claims, and loose injection/detection counts (the
    /// schedules are seeded, but only a collapse should flag).
    pub fn summary(&self) -> seaice_obs::bench::Summary {
        seaice_obs::bench::Summary::new("soak")
            .metric("schedules", self.schedules as f64, "count", true, 0.0)
            .metric("violations", self.violations as f64, "count", false, 0.0)
            .metric(
                "byte_identical",
                if self.byte_identical { 1.0 } else { 0.0 },
                "bool",
                true,
                0.0,
            )
            .metric(
                "injections_fired",
                self.injections_fired as f64,
                "count",
                true,
                1.0,
            )
            .metric(
                "corrupt_reads_refused",
                self.corrupt_reads_refused as f64,
                "count",
                true,
                1.0,
            )
            .metric(
                "checkpoints_written",
                self.checkpoints_written as f64,
                "count",
                true,
                1.0,
            )
    }

    /// Renders the soak table (plus a repro line per violation).
    pub fn render(&self) -> String {
        let count = |leg: &str| self.rows.iter().filter(|r| r.leg == leg).count();
        let fired = |leg: &str| -> u64 {
            self.rows
                .iter()
                .filter(|r| r.leg == leg)
                .map(|r| r.injections)
                .sum()
        };
        let passed = |leg: &str| self.rows.iter().filter(|r| r.leg == leg && r.ok).count();
        let mut s = String::new();
        s.push_str(&format!(
            "SOAK BENCH: {} seeded fault schedules ({} durable, {} stream, {} mapreduce, {} serve) — \
             every outcome checked against a precomputed oracle or a fault-free reference\n",
            self.schedules,
            count("durable"),
            count("stream"),
            count("mapreduce"),
            count("serve"),
        ));
        s.push_str("leg       | runs | pass | fired | notes\n");
        s.push_str(&format!(
            "durable   | {:>4} | {:>4} | {:>5} | {} writes ({} faulted), {} corrupt reads refused, {} legacy demotions\n",
            count("durable"), passed("durable"), fired("durable"),
            self.torture_writes, self.write_faults, self.corrupt_reads_refused, self.legacy_demotions,
        ));
        s.push_str(&format!(
            "stream    | {:>4} | {:>4} | {:>5} | {} checkpoints written, {} writes faulted, kill–resume byte-identical\n",
            count("stream"), passed("stream"), fired("stream"),
            self.checkpoints_written, self.checkpoint_write_failures,
        ));
        s.push_str(&format!(
            "mapreduce | {:>4} | {:>4} | {:>5} | seed-chosen executor killed, output set byte-identical\n",
            count("mapreduce"), passed("mapreduce"), fired("mapreduce"),
        ));
        s.push_str(&format!(
            "serve     | {:>4} | {:>4} | {:>5} | seed-chosen request kills the replica, answers bit-identical\n",
            count("serve"), passed("serve"), fired("serve"),
        ));
        if self.violations == 0 {
            s.push_str(&format!(
                "violations: none ({} schedules clean)\n",
                self.schedules
            ));
        } else {
            s.push_str(&format!("violations: {}\n", self.violations));
            for r in self.rows.iter().filter(|r| !r.ok) {
                s.push_str(&format!(
                    "  VIOLATION {}[{}]: {} — repro: {}\n",
                    r.leg,
                    r.schedule,
                    r.note,
                    r.repro.as_deref().unwrap_or("<missing>"),
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soakbench_small_runs_every_schedule_clean() {
        let b = run(Scale::Small);
        assert_eq!(b.schedules, 20);
        assert!(b.violations == 0, "soak violations:\n{}", b.render());
        assert!(b.byte_identical, "a recovery leg diverged:\n{}", b.render());
        assert!(b.injections_fired >= 10, "the schedules barely fired");
        assert!(
            b.corrupt_reads_refused >= 1,
            "no corruption was ever detected — the torture rules are dead"
        );
        assert!(b.write_faults >= 1, "no write ever failed");
        assert!(b.checkpoints_written >= 1);
        let table = b.render();
        assert!(table.contains("SOAK BENCH"));
        assert!(table.contains("violations: none"));
        let s = b.summary();
        assert_eq!(s.area, "soak");
        assert_eq!(s.metrics["violations"].value, 0.0);
        assert_eq!(s.metrics["byte_identical"].value, 1.0);
    }
}
