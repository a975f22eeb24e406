//! `serve_tiles` and `serve_tiles_warm`: the serving engine around a
//! deliberately tiny model.
//!
//! One closed-loop client (scene callers wait for their reply) streams 4
//! scenes of 256² — 1024 tiles of 16² — through
//! `serve::scene::classify_scene_engine` on an engine with 1 worker,
//! micro-batches of 8, 1 ms linger, a queue of 256 and a cache as large as
//! the archive. With the repository's usual model the forward pass hides
//! the engine; a depth-1, 4-filter model makes queue, batcher, cache and
//! ticket cost a visible share.
//!
//! * `serve_tiles`: per rep a fresh engine and one **cold** pass — every
//!   tile misses: hash, queue, micro-batch, forward, cache insert.
//! * `serve_tiles_warm`: one engine, filled once, then **warm** passes —
//!   every tile hits: hash and cache read only.
//!
//! Cold writes the cache and warm reads it, so a cache or queue change
//! that helps one and costs the other shows. The reference for `accuracy`
//! is the sequential classifier: batching and caching must not change a
//! pixel.

use crate::gen::{agreement, cloudy_scene, concat, derive};
use crate::harness::{repeat_setup, time, timed_reps, Ctx, Outcome, DENSE_LOOPS, LOOKUP_CHAINS};
use crate::spans::{self_ms, total_ms, Spans};
use crate::stats::{median, percentile};
use seaice_core::adapters::image_to_chw_into;
use seaice_core::classify_scene_with;
use seaice_imgproc::buffer::Image;
use seaice_nn::Tensor;
use seaice_s2::tiler::tile_anchors;
use seaice_serve::{
    classify_scene_engine, tile_key, BoundedQueue, Engine, EngineConfig, HttpServer, LruCache,
    ServeError,
};
use seaice_unet::checkpoint::{self, Checkpoint};
use seaice_unet::{InferBackend, UNet, UNetConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCENES: usize = 4;
const SCENE_SIDE: usize = 256;
const TILE: usize = 16;
const TILES: usize = SCENES * (SCENE_SIDE / TILE) * (SCENE_SIDE / TILE);
const MAX_BATCH: usize = 8;

/// Warm passes over the archive per timed rep.
const WARM_PASSES: usize = 40;

/// Most passes a traced run makes through an engine that records: the
/// engine adds three trace events per request, and the trace is held in
/// memory until the run ends.
const TRACED_PASSES: usize = 8;

/// Open-loop offered rate, about a third of what one worker sustains cold.
const OPEN_RATE: f64 = 1500.0;

/// Sequential HTTP requests: few enough that TIME_WAIT cannot exhaust the
/// ephemeral ports.
const HTTP_REQUESTS: usize = 1000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cold,
    Warm,
}

struct Inputs {
    ckpt: Checkpoint,
    scenes: Vec<Image<u8>>,
}

fn setup(ctx: &Ctx) -> Inputs {
    let scenes = (0..SCENES as u64)
        .map(|i| cloudy_scene(SCENE_SIDE, derive(ctx.seed, 0x600 + i), i, &ctx.spans).rgb)
        .collect();
    let mut model = UNet::new(UNetConfig {
        depth: 1,
        base_filters: 4,
        dropout: 0.0,
        seed: derive(ctx.seed, 0x601),
        ..UNetConfig::paper()
    });
    Inputs {
        ckpt: checkpoint::snapshot(&mut model),
        scenes,
    }
}

fn engine_config(cache_capacity: usize) -> EngineConfig {
    EngineConfig {
        tile_size: TILE,
        workers: 1,
        max_batch_size: MAX_BATCH,
        max_wait: Duration::from_millis(1),
        queue_capacity: 256,
        cache_capacity,
        filter: false,
        deadline: None,
        backend: InferBackend::F32,
        degraded_restart_threshold: 0,
        degraded_deadline_threshold: 0,
    }
}

fn new_engine(ckpt: &Checkpoint, cache_capacity: usize) -> Engine {
    Engine::new(ckpt, engine_config(cache_capacity)).expect("a valid engine configuration")
}

/// What the sequential path answers for every scene.
fn sequential_masks(inputs: &Inputs) -> Vec<Image<u8>> {
    let mut model = checkpoint::restore(&inputs.ckpt);
    inputs
        .scenes
        .iter()
        .map(|s| classify_scene_with(&mut model, s, TILE, false).mask)
        .collect()
}

/// One pass of the archive through the engine; returns its masks.
fn engine_pass(engine: &Engine, scenes: &[Image<u8>]) -> Result<Vec<Image<u8>>, ServeError> {
    scenes
        .iter()
        .map(|s| classify_scene_engine(engine, s).map(|c| c.mask))
        .collect()
}

/// Tiles (of `TILE`² pixels) on which `got` differs from `want`.
fn differing_tiles(got: &[Image<u8>], want: &[Image<u8>]) -> u64 {
    let mut n = 0;
    for (g, w) in got.iter().zip(want) {
        for &y0 in &tile_anchors(SCENE_SIDE, TILE) {
            for &x0 in &tile_anchors(SCENE_SIDE, TILE) {
                if g.crop(x0, y0, TILE, TILE) != w.crop(x0, y0, TILE, TILE) {
                    n += 1;
                }
            }
        }
    }
    n
}

pub fn run(ctx: &Ctx, mode: Mode) -> Outcome {
    let mut out = Outcome {
        threads_note:
            "1 client (the driving thread) + 1 engine worker, taking turns on the one pinned CPU",
        ..Outcome::default()
    };
    let inputs = repeat_setup(&mut out, || setup(ctx));
    let want = sequential_masks(&inputs);
    let mut first: Option<Vec<Image<u8>>> = None;
    let mut bad_tiles = 0u64;
    let mut errors = 0u64;
    let mut shed = 0u64;
    let mut passes = 0usize;
    let mut check = |got: Result<Vec<Image<u8>>, ServeError>| match got {
        Ok(masks) => {
            bad_tiles += differing_tiles(&masks, &want);
            first.get_or_insert(masks);
        }
        Err(_) => errors += TILES as u64,
    };
    let secs = match mode {
        Mode::Cold => timed_reps(&mut out, "cold", ctx.seconds, DENSE_LOOPS, |_| {
            let engine = new_engine(&inputs.ckpt, TILES);
            let mut got = None;
            let secs = time(|| got = Some(engine_pass(&engine, &inputs.scenes)));
            shed += engine.stats().shed;
            engine.shutdown();
            check(got.expect("the pass ran"));
            passes += 1;
            secs
        }),
        Mode::Warm => {
            let engine = new_engine(&inputs.ckpt, TILES);
            check(engine_pass(&engine, &inputs.scenes));
            let secs = timed_reps(&mut out, "warm", ctx.seconds, LOOKUP_CHAINS, |_| {
                let mut last = None;
                let secs = time(|| {
                    for _ in 0..WARM_PASSES {
                        last = Some(engine_pass(&engine, &inputs.scenes));
                    }
                });
                check(last.expect("WARM_PASSES is positive"));
                passes += WARM_PASSES;
                secs
            });
            let stats = engine.stats();
            shed += stats.shed;
            out.require(stats.computed == TILES as u64, || {
                format!(
                    "warm passes reached the model: {} tiles computed, expected {TILES}",
                    stats.computed
                )
            });
            engine.shutdown();
            secs.iter().map(|s| s / WARM_PASSES as f64).collect()
        }
    };
    out.tiles_per_s = secs.iter().map(|s| TILES as f64 / s).collect();
    out.accuracy = first.map_or(0.0, |m| agreement(&concat(&m), &concat(&want)));
    out.attempted = (TILES * passes) as u64;
    out.fail_ops(bad_tiles, || {
        format!("{bad_tiles} served tiles differ from the sequential classifier's")
    });
    out.fail_ops(errors, || "the engine refused a scene".to_string());
    out.fail_ops(shed, || {
        format!("{shed} requests shed in a closed loop with backpressure")
    });
    out.exact.insert("tiles", TILES as f64);
    out.exact.insert("accuracy", out.accuracy);
    out
}

/// Every `TILE`² tile of every scene, in submission order.
fn all_tiles(scenes: &[Image<u8>]) -> Vec<Image<u8>> {
    let mut tiles = Vec::with_capacity(TILES);
    for s in scenes {
        for &y0 in &tile_anchors(SCENE_SIDE, TILE) {
            for &x0 in &tile_anchors(SCENE_SIDE, TILE) {
                tiles.push(s.crop(x0, y0, TILE, TILE));
            }
        }
    }
    tiles
}

/// One request at a time through `try_submit` + `Ticket::wait`; the span
/// covers all of `tiles`.
fn submit_wait(spans: &Spans, name: &'static str, engine: &Engine, tiles: &[Image<u8>]) -> u64 {
    let requests: Vec<Image<u8>> = tiles.to_vec();
    let mut failed = 0;
    spans.span(name, 0, || {
        for tile in requests {
            if engine.try_submit(tile).and_then(|t| t.wait()).is_err() {
                failed += 1;
            }
        }
    });
    failed
}

/// Open loop on a cache-less engine: `try_submit` on a fixed schedule, each
/// request timed from when it was due, whatever the generator's lateness.
fn open_loop(out: &mut Outcome, ckpt: &Checkpoint, tiles: &[Image<u8>], seconds: f64) {
    let engine = new_engine(ckpt, 0);
    let total = (OPEN_RATE * seconds) as usize;
    let (tx, rx) = mpsc::channel::<(Instant, seaice_serve::Ticket)>();
    let (mut latencies_ms, mut late_ms) = (Vec::with_capacity(total), Vec::with_capacity(total));
    let mut shed = 0u64;
    let mut failed = 0u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut lat = Vec::new();
            let mut failed = 0u64;
            for (due, ticket) in rx {
                match ticket.wait() {
                    Ok(_) => lat.push(due.elapsed().as_secs_f64() * 1e3),
                    Err(_) => failed += 1,
                }
            }
            (lat, failed)
        });
        for i in 0..total {
            let due = start + Duration::from_secs_f64(i as f64 / OPEN_RATE);
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            match engine.try_submit(tiles[i % tiles.len()].clone()) {
                Ok(ticket) => tx
                    .send((due, ticket))
                    .expect("the collector outlives the loop"),
                Err(ServeError::Overloaded) => shed += 1,
                Err(_) => failed += 1,
            }
        }
        drop(tx);
        let (lat, collector_failed) = collector.join().expect("the collector does not panic");
        latencies_ms = lat;
        failed += collector_failed;
    });
    let elapsed = start.elapsed().as_secs_f64();
    engine.shutdown();
    out.attempted += total as u64;
    out.fail_ops(failed, || format!("{failed} open-loop requests errored"));
    out.layer(
        "serve.open.rate_tiles_per_s",
        latencies_ms.len() as f64 / elapsed,
    );
    if !latencies_ms.is_empty() {
        out.layer("serve.open.p50_ms", percentile(&latencies_ms, 50.0));
        out.layer("serve.open.p99_ms", percentile(&latencies_ms, 99.0));
    }
    out.layer("serve.open.shed_share", shed as f64 / total as f64);
    out.layer("serve.open.late_p99_ms", percentile(&late_ms, 99.0));
}

/// One `POST /classify`; `Ok(())` on a 200 carrying a `TILE`² mask.
fn http_classify(addr: std::net::SocketAddr, body: &[u8]) -> std::io::Result<bool> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "POST /classify HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let ok = response.starts_with(b"HTTP/1.1 200 ")
        && response
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .is_some_and(|end| response.len() - (end + 4) == TILE * TILE);
    Ok(ok)
}

/// Sequential requests for one cached tile over loopback.
fn http_front_door(out: &mut Outcome, ckpt: &Checkpoint, tile: &Image<u8>) {
    let engine = Arc::new(new_engine(ckpt, TILES));
    let mut failed = 0u64;
    let mut us = Vec::with_capacity(HTTP_REQUESTS);
    match HttpServer::start(Arc::clone(&engine), "127.0.0.1:0") {
        Ok(mut server) => {
            let addr = server.addr();
            // The first request computes and caches; the rest hit.
            for i in 0..=HTTP_REQUESTS {
                let t = Instant::now();
                let ok = http_classify(addr, tile.as_slice()).unwrap_or(false);
                if i > 0 {
                    us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                if !ok {
                    failed += 1;
                }
            }
            server.shutdown();
        }
        Err(e) => {
            engine.shutdown();
            failed = HTTP_REQUESTS as u64;
            out.failures
                .push(format!("could not bind a loopback port: {e}"));
        }
    }
    out.attempted += HTTP_REQUESTS as u64;
    out.fail_ops(failed, || format!("{failed} HTTP requests failed"));
    if !us.is_empty() {
        out.layer("serve.http.req_us_p50", percentile(&us, 50.0));
        out.layer("serve.http.req_us_p99", percentile(&us, 99.0));
    }
    out.layer("serve.http.failed", failed as f64);
}

pub fn trace(ctx: &Ctx, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let spans = &ctx.spans;
    let inputs = setup(ctx);
    let want = sequential_masks(&inputs);
    let tiles = all_tiles(&inputs.scenes);
    let budget = ctx.seconds / 4.0;

    // Untraced reference: an engine built before the tracer is switched on
    // stays inert for life.
    let plain_us_per_tile = {
        let mut engine = new_engine(&inputs.ckpt, TILES);
        if mode == Mode::Warm {
            engine_pass(&engine, &inputs.scenes).ok();
        }
        let t = Instant::now();
        let mut pass_secs = Vec::new();
        while pass_secs.is_empty() || t.elapsed().as_secs_f64() < budget {
            if mode == Mode::Cold {
                engine.shutdown();
                engine = new_engine(&inputs.ckpt, TILES);
            }
            pass_secs.push(time(|| drop(engine_pass(&engine, &inputs.scenes))));
        }
        engine.shutdown();
        median(&pass_secs) * 1e6 / TILES as f64
    };

    spans.enable_obs();
    let traced_us_per_tile;
    // Seconds the bare forward takes per scene's worth of tiles (cold mode).
    let mut forward_secs = Vec::new();
    match mode {
        Mode::Cold => {
            let t = Instant::now();
            let mut builds = 0usize;
            let mut pass_secs = Vec::new();
            let mut last_stats = None;
            let mut bad = 0u64;
            while builds == 0 || (builds < TRACED_PASSES && t.elapsed().as_secs_f64() < budget) {
                let engine = spans.span("serve.engine_new", builds as u64, || {
                    new_engine(&inputs.ckpt, TILES)
                });
                let got = spans.span("serve.cold_pass", builds as u64, || {
                    let mut got = None;
                    pass_secs.push(time(|| got = engine_pass(&engine, &inputs.scenes).ok()));
                    got
                });
                bad += got.map_or(TILES as u64, |m| differing_tiles(&m, &want));
                last_stats = Some(engine.stats());
                engine.shutdown();
                builds += 1;
            }
            out.attempted += (builds * TILES) as u64;
            out.fail_ops(bad, || {
                format!("{bad} traced cold tiles differ from the sequential classifier's")
            });
            traced_us_per_tile = median(&pass_secs) * 1e6 / TILES as f64;
            let stats = last_stats.expect("at least one engine was built");
            out.layer("serve.mean_batch_size", stats.mean_batch_size);
            out.layer("serve.cache_hits", stats.cache_hits as f64);
            for (name, v) in [
                ("serve.batches", stats.batches as f64),
                ("serve.cache_misses", stats.cache_misses as f64),
                ("serve.cache_evictions", stats.cache_evictions as f64),
                ("serve.shed", stats.shed as f64),
            ] {
                out.layer(name, v);
                out.exact.insert(name, v);
            }

            // The miss path, one request at a time: queue, the batcher's
            // linger for a batch that never fills, a forward of one.
            let engine = new_engine(&inputs.ckpt, TILES);
            let n = 256.min(tiles.len());
            let failed = submit_wait(spans, "serve.submit_wait.miss", &engine, &tiles[..n]);
            engine.shutdown();
            out.attempted += n as u64;
            out.fail_ops(failed, || format!("{failed} single-request misses failed"));

            // The engine's parts on their own.
            let queue = BoundedQueue::new(256);
            spans.span("serve.queue.push_pop", 0, || {
                for round in 0..tiles.len() / MAX_BATCH {
                    for k in 0..MAX_BATCH {
                        queue
                            .try_push(round * MAX_BATCH + k)
                            .expect("an 8-deep burst fits a queue of 256");
                    }
                    std::hint::black_box(queue.pop_batch(MAX_BATCH, Duration::ZERO));
                }
            });
            let keys: Vec<u64> = tiles.iter().map(tile_key).collect();
            let value = Arc::new(vec![0u8; TILE * TILE]);
            let mut cache = LruCache::new(TILES);
            spans.span("serve.cache.insert", 0, || {
                for &k in &keys {
                    cache.insert(k, Arc::clone(&value));
                }
            });
            // The forward the engine runs per micro-batch, on its own.
            let mut model = checkpoint::restore(&inputs.ckpt);
            let plane = 3 * TILE * TILE;
            let mut preds = Vec::new();
            for (scene, scene_tiles) in tiles.chunks_exact(TILES / SCENES).enumerate() {
                forward_secs.push(time(|| {
                    spans.span("unet.predict_f32", scene as u64, || {
                        for batch in scene_tiles.chunks_exact(MAX_BATCH) {
                            let mut input = vec![0f32; MAX_BATCH * plane];
                            for (i, tile) in batch.iter().enumerate() {
                                image_to_chw_into(tile, &mut input[i * plane..(i + 1) * plane]);
                            }
                            let x = Tensor::from_vec(&[MAX_BATCH, 3, TILE, TILE], input);
                            model.predict_into(&x, &mut preds);
                        }
                    })
                }));
            }
            open_loop(&mut out, &inputs.ckpt, &tiles, budget);
        }
        Mode::Warm => {
            let engine = new_engine(&inputs.ckpt, TILES);
            engine_pass(&engine, &inputs.scenes).ok();
            let t = Instant::now();
            let mut passes = 0usize;
            let mut bad = 0u64;
            let mut pass_secs = Vec::new();
            while passes == 0 || (passes < TRACED_PASSES && t.elapsed().as_secs_f64() < budget) {
                let got = spans.span("serve.warm_pass", passes as u64, || {
                    let mut got = None;
                    pass_secs.push(time(|| got = engine_pass(&engine, &inputs.scenes).ok()));
                    got
                });
                bad += got.map_or(TILES as u64, |m| differing_tiles(&m, &want));
                passes += 1;
            }
            out.attempted += (passes * TILES) as u64;
            out.fail_ops(bad, || {
                format!("{bad} traced warm tiles differ from the sequential classifier's")
            });
            traced_us_per_tile = median(&pass_secs) * 1e6 / TILES as f64;
            let failed = submit_wait(spans, "serve.submit_wait.hit", &engine, &tiles);
            out.attempted += tiles.len() as u64;
            out.fail_ops(failed, || format!("{failed} single-request hits failed"));
            let stats = engine.stats();
            engine.shutdown();
            out.layer("serve.cache_hits", stats.cache_hits as f64);
            out.layer("serve.cache_misses", stats.cache_misses as f64);
            out.layer("serve.cache_evictions", stats.cache_evictions as f64);
            out.layer("serve.shed", stats.shed as f64);
            out.exact
                .insert("serve.cache_misses", stats.cache_misses as f64);
            out.require(stats.computed == TILES as u64, || {
                format!(
                    "warm passes reached the model: {} tiles computed",
                    stats.computed
                )
            });

            let keys = spans.span("serve.tile_key", 0, || {
                tiles.iter().map(tile_key).collect::<Vec<u64>>()
            });
            let value = Arc::new(vec![0u8; TILE * TILE]);
            let mut cache = LruCache::new(TILES);
            for &k in &keys {
                cache.insert(k, Arc::clone(&value));
            }
            spans.span("serve.cache.get", 0, || {
                for &k in &keys {
                    std::hint::black_box(cache.get(k));
                }
            });
            http_front_door(&mut out, &inputs.ckpt, &tiles[0]);
        }
    }

    let rows = spans.rollup();
    let n = tiles.len() as f64;
    // Per 256² pixels generated, the unit `label_cloudy` reports it in.
    let generated = (SCENES * SCENE_SIDE * SCENE_SIDE) as f64 / 65_536.0;
    out.layer(
        "s2.synth.ms_per_tile",
        self_ms(&rows, "s2.synth") / generated,
    );
    out.layer(
        "s2.clouds.ms_per_tile",
        self_ms(&rows, "s2.clouds") / generated,
    );
    match mode {
        Mode::Cold => {
            let builds = rows
                .iter()
                .find(|r| r.name == "serve.engine_new")
                .map_or(1, |r| r.spans) as f64;
            out.layer(
                "serve.engine_new.ms",
                self_ms(&rows, "serve.engine_new") / builds,
            );
            out.layer(
                "serve.submit_wait.miss_us",
                total_ms(&rows, "serve.submit_wait.miss") * 1e3 / 256.0,
            );
            out.layer(
                "serve.queue.push_pop_us",
                self_ms(&rows, "serve.queue.push_pop") * 1e3
                    / (tiles.len() / MAX_BATCH * MAX_BATCH) as f64,
            );
            out.layer(
                "serve.cache.insert_us",
                self_ms(&rows, "serve.cache.insert") * 1e3 / n,
            );
            let forward_us = median(&forward_secs) * 1e6 / (TILES / SCENES) as f64;
            out.layer("unet.predict_f32.ms_per_tile", forward_us / 1e3);
            out.layer(
                "serve.engine_overhead.us_per_tile",
                traced_us_per_tile - forward_us,
            );
        }
        Mode::Warm => {
            out.layer(
                "serve.submit_wait.hit_us",
                total_ms(&rows, "serve.submit_wait.hit") * 1e3 / n,
            );
            out.layer(
                "serve.tile_key.us",
                self_ms(&rows, "serve.tile_key") * 1e3 / n,
            );
            out.layer(
                "serve.cache.get_us",
                self_ms(&rows, "serve.cache.get") * 1e3 / n,
            );
        }
    }
    out.layer(
        "obs.trace_overhead_share",
        traced_us_per_tile / plain_us_per_tile - 1.0,
    );
    out.exact.insert("tiles", TILES as f64);
    out
}
