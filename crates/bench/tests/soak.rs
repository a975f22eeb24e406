//! The seeded chaos soak (DESIGN.md §4.8): 20 seeded fault schedules over
//! four legs, one test per leg. Every fault decision is pure in
//! `(seed, site, key)`, so each schedule's expected behaviour is
//! precomputed and the run is checked against it:
//!
//! * **durable** — 8 torture loops over `seaice_obs::durable` under
//!   probabilistic ENOSPC / torn-write / bit-flip / read-corruption
//!   rules. An oracle replays the plan's pure decisions on its own copy
//!   of the expected on-disk bytes (through the public
//!   [`durable::unframe`]); every write and read outcome must match it
//!   exactly, and a corrupt payload returned as `Ok` is a violation.
//! * **stream** — 4 kill–resume runs under IO faults on the checkpoint
//!   file: the resumed drift series must be byte-identical to an
//!   uninterrupted reference, even when checkpoint writes tear or the
//!   stored snapshot is bit-flipped (time lost, never correctness).
//! * **mapreduce** — 4 jobs in which a seed-chosen executor panics on
//!   every task; the collected output must equal the fault-free run's.
//! * **serve** — 4 engines whose only replica a seed-chosen request
//!   kills; the restarted replica must answer every tile bit-identically
//!   to a direct `model.predict`.
//!
//! A violated invariant fails with a `seed=… site=… key=…` repro line,
//! read from the plan's recorded fired-fault log, that re-arms the exact
//! injection. The durable and stream legs run single-threaded through
//! pure decisions, so their counts are exact; the mapreduce and serve
//! legs assert the bounds their schedulers guarantee.

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
const SOAK_SEED: u64 = 0x50AB;

/// Writes per durable-torture schedule.
const TORTURE_WRITES: u64 = 16;

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

/// Fails the test on a broken invariant, naming the schedule and the
/// injection that re-creates it.
fn violation(leg: &str, schedule: u64, plan: &FaultPlan, seed: u64, note: &str) -> ! {
    panic!(
        "soak violation {leg}[{schedule}]: {note} — repro: {}",
        repro_line(plan, seed)
    )
}

/// A fresh scratch directory for one leg of this process.
fn scratch_dir(leg: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seaice-soak-{leg}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create soak scratch dir");
    dir
}

/// Counters the durable-torture leg accumulates.
#[derive(Debug, Default, PartialEq, Eq)]
struct DurableTally {
    injections: u64,
    writes: usize,
    write_faults: usize,
    corrupt_refused: usize,
}

/// Deterministic per-op payload: varies in content and length so frames
/// exercise different bit positions.
fn torture_payload(seed: u64, op: u64) -> Vec<u8> {
    let n = 48 + (mix(seed, op) as usize % 160);
    (0..n as u64).map(|j| mix(mix(seed, op), j) as u8).collect()
}

fn fires(plan: &FaultPlan, site: &str, key: u64) -> bool {
    !matches!(plan.decide(site, key), FaultAction::None)
}

/// One durable-torture schedule: `TORTURE_WRITES` write/read rounds
/// against a single target file, each round's outcome checked against
/// the oracle's precomputed expectation.
fn durable_schedule(dir: &Path, i: u64, tally: &mut DurableTally) {
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
    let fail = |note: String| -> ! { violation("durable", i, &plan, seed, &note) };
    // One attempt per write: every pure decision maps 1:1 to an
    // observable outcome, so the oracle below needs no retry modelling.
    let ctx = DurableCtx::with_faults(Arc::clone(&plan)).with_retry(RetryPolicy::once());
    let clean = DurableCtx::disabled();
    let path = dir.join(format!("torture_{i:02}.bin"));

    // The oracle's view: the exact framed bytes on disk, and the payload
    // a verified read may return (None = the disk holds corruption that
    // every read must refuse).
    let mut disk: Option<Vec<u8>> = None;
    let mut last_good: Option<Vec<u8>> = None;

    for op in 0..TORTURE_WRITES {
        let payload = torture_payload(seed, op);
        let akey = mix(op, 0); // RetryPolicy::once ⇒ only attempt 0 exists
        let enospc = fires(&plan, durable::SITE_WRITE_ENOSPC, akey);
        let torn = fires(&plan, durable::SITE_WRITE_TORN, akey);
        // Precedence mirrors the write path: ENOSPC, then torn, then the
        // silent bit-flip (only a completed write can be flipped).
        let expect_ok = !enospc && !torn;
        let bitflip = expect_ok && fires(&plan, durable::SITE_WRITE_BITFLIP, akey);

        tally.writes += 1;
        let wrote = durable::write_framed(&path, &payload, &ctx, op);
        if wrote.is_ok() != expect_ok {
            fail(format!(
                "op {op}: write returned {} but the plan decided {}",
                if wrote.is_ok() { "Ok" } else { "Err" },
                if expect_ok { "success" } else { "failure" }
            ));
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
                    fail(format!("op {op}: clean read accepted corrupt state"));
                }
            }
            Err(e) if disk.is_none() => {
                if e.into_io().kind() != io::ErrorKind::NotFound {
                    fail(format!("op {op}: empty target read a non-NotFound error"));
                }
            }
            Err(_) => {
                if last_good.is_some() {
                    fail(format!("op {op}: clean read refused an intact file"));
                }
                tally.corrupt_refused += 1;
            }
        }

        // Fault-injected read: the oracle applies the same deterministic
        // flip to its copy of the disk image and runs the public frame
        // validator; the real read must agree byte for byte. A flip that
        // hits the magic marker demotes the frame to a legacy passthrough
        // (the oracle's `None` arm): transient, since the clean read above
        // still verified the real file.
        let Some(img) = &disk else { continue };
        let rkey = mix(op, 0xAB);
        let mut view = img.clone();
        if fires(&plan, durable::SITE_READ_CORRUPT, rkey) {
            let bit = (mix(rkey, 0x5EAD) as usize) % (view.len() * 8);
            view[bit / 8] ^= 1 << (bit % 8);
        }
        let expect = durable::unframe(&view, &path, durable::MAX_PAYLOAD_BYTES).map(|p| match p {
            Some(payload) => payload.to_vec(),
            None => view.clone(),
        });
        match (durable::read_framed(&path, &ctx, rkey), expect) {
            (Ok(got), Ok(want)) if got != want => {
                fail(format!("op {op}: faulty read disagreed with the oracle"))
            }
            (Ok(_), Ok(_)) => {}
            (Err(_), Err(_)) => tally.corrupt_refused += 1,
            (got, want) => fail(format!(
                "op {op}: faulty read {} but the oracle expected {}",
                if got.is_ok() { "succeeded" } else { "failed" },
                if want.is_ok() { "success" } else { "refusal" }
            )),
        }
    }
    tally.injections += plan.injections_fired();
}

#[test]
fn durable_torture_matches_the_precomputed_oracle_on_every_schedule() {
    let dir = scratch_dir("durable");
    let mut tally = DurableTally::default();
    for i in 0..8 {
        durable_schedule(&dir, i, &mut tally);
    }
    std::fs::remove_dir_all(&dir).ok();
    // Every decision is pure and the loop is single-threaded, so the
    // totals are exact: a changed count is a changed fault schedule.
    assert_eq!(
        tally,
        DurableTally {
            injections: 83,
            writes: 128,
            write_faults: 37,
            corrupt_refused: 59,
        }
    );
}

/// One stream kill–resume schedule: reference run, then a killed run and
/// a resuming run under checkpoint IO faults; the resumed series must be
/// byte-identical to the reference. Returns (injections, checkpoints
/// written, checkpoint writes faulted).
fn stream_schedule(dir: &Path, i: u64) -> (u64, usize, usize) {
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
    let path = dir.join(format!("stream_{i:02}.ckpt"));
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
    let killed = run(StreamResumeConfig::new(&path, every).killed_after(kill_after));
    let resumed = run(StreamResumeConfig::new(&path, every));
    let (Ok(killed), Ok(resumed)) = (killed, resumed) else {
        violation("stream", i, &plan, seed, "a resumable run errored")
    };
    let series = resumed.series.as_ref().map(|s| s.to_bytes());
    if !resumed.finished || series.as_ref() != Some(&reference) {
        let note = format!(
            "killed at {} of {total} scenes, resumed from {}{}: series diverged",
            killed.scenes_done,
            resumed.resumed_from,
            if resumed.corrupt_checkpoint_discarded {
                " (corrupt checkpoint discarded)"
            } else {
                ""
            },
        );
        violation("stream", i, &plan, seed, &note);
    }
    (
        plan.injections_fired(),
        killed.checkpoints_written + resumed.checkpoints_written,
        killed.checkpoint_write_failures + resumed.checkpoint_write_failures,
    )
}

#[test]
fn killed_and_resumed_streams_match_the_uninterrupted_series_on_every_schedule() {
    let dir = scratch_dir("stream");
    let mut totals = (0, 0, 0);
    for i in 0..4 {
        let (fired, written, failed) = stream_schedule(&dir, i);
        totals = (totals.0 + fired, totals.1 + written, totals.2 + failed);
    }
    std::fs::remove_dir_all(&dir).ok();
    // Checkpoints are written at scene boundaries and keyed by the scene
    // count, in order, whatever the worker schedule inside a segment: the
    // (injections, checkpoints written, writes faulted) totals are exact.
    assert_eq!(totals, (12, 9, 10));
}

fn scramble(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Map-reduce items per schedule: 16 tasks land on each of 4 executors.
const ITEMS: u64 = 64;

#[test]
fn a_seed_chosen_dead_executor_never_changes_the_collected_output() {
    // Retries without straggler speculation: a wall-clock duplicate on a
    // busy host would add attempts that say nothing about recovery.
    let policy = RunPolicy {
        speculation: None,
        ..RunPolicy::resilient()
    };
    for i in 0..4 {
        let seed = mix(SOAK_SEED ^ 0xC0DE, i);
        let data: Vec<u64> = (0..ITEMS).map(|x| mix(seed, x)).collect();
        let session = || Session::new(ClusterSpec::new(4, 2).unwrap(), CostModel::gcd_n2());

        let s = session();
        let (df, _) = s.read(data.clone(), 8.0);
        let (want, _) = df.map(&s, scramble).0.collect(&s, 8.0);

        let victim = seed % 4;
        let plan = Arc::new(FaultPlan::seeded(seed).recording().fail_keys(
            "mapreduce.executor",
            &[victim],
            FaultAction::Panic,
        ));
        let s = session();
        let (df, _) = s.read(data, 8.0);
        let (lazy, _) = df.map(&s, scramble);
        let (got, _, ft) = match lazy.collect_ft(&s, 8.0, policy, Arc::clone(&plan)) {
            Ok(run) => run,
            Err(e) => violation("mapreduce", i, &plan, seed, &format!("no recovery: {e}")),
        };
        if got != want {
            violation("mapreduce", i, &plan, seed, "output diverged");
        }
        // The first dispatch deals tasks round-robin, so the victim holds
        // ITEMS / 4 of them and each fails once. Until its
        // `blacklist_after`-th failure the victim is still eligible: each
        // retry dispatched before then may land on it again. Every
        // failure is retried (the third attempt can never reach a
        // blacklisted executor), so recoveries equal injections.
        let fired = plan.injections_fired();
        let planned = ITEMS / 4;
        let bound = planned..=planned + u64::from(policy.blacklist_after) - 1;
        if !bound.contains(&fired)
            || ft.retries as u64 != fired
            || ft.failures as u64 != fired
            || ft.blacklisted != [victim as usize]
            || ft.speculative != 0
        {
            let note =
                format!("{fired} injections outside {bound:?}, or retries/blacklist off: {ft:?}");
            violation("mapreduce", i, &plan, seed, &note);
        }
    }
}

#[test]
fn a_seed_chosen_replica_kill_never_changes_an_answer() {
    for i in 0..4 {
        let seed = mix(SOAK_SEED ^ 0x5E12, i);
        let mut model = UNet::new(UNetConfig {
            depth: 1,
            base_filters: 4,
            dropout: 0.0,
            seed,
            ..UNetConfig::paper()
        });
        let ckpt = snapshot(&mut model);
        let tiles: Vec<Image<u8>> = (0..8)
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

        for (t, tile) in tiles.iter().enumerate() {
            let chw = seaice_core::adapters::image_to_chw(tile);
            let x = seaice_nn::Tensor::from_vec(&[1, 3, 16, 16], chw);
            match engine.classify(tile.clone()) {
                Ok(got) if *got == model.predict(&x) => {}
                _ => violation("serve", i, &plan, seed, &format!("tile {t} answered wrong")),
            }
        }
        let stats = engine.stats();
        engine.shutdown();
        // One batch of one tile kills the one replica exactly once; its
        // retry (attempt key 1) does not match the plan.
        let r = &stats.robustness;
        if plan.injections_fired() != 1 || r.worker_restarts != 1 || r.batch_retries != 1 {
            let note = format!("replica killed on tile {victim}: {r:?}");
            violation("serve", i, &plan, seed, &note);
        }
    }
}
