//! Tier-1 smoke test for the serving subsystem: an in-process engine
//! under concurrent load, overload shedding, and graceful-drain
//! semantics — the contracts an operator relies on, exercised without
//! any network I/O.

use seaice::faults::{mix, FaultAction, FaultPlan};
use seaice::imgproc::buffer::Image;
use seaice::s2::synth::{generate, SceneConfig};
use seaice::serve::{tile_key, Engine, EngineConfig, HttpServer, ServeError, Ticket};
use seaice::unet::checkpoint::{snapshot, Checkpoint};
use seaice::unet::{UNet, UNetConfig};
use std::sync::Arc;
use std::time::Duration;

fn tiny_ckpt(seed: u64) -> Checkpoint {
    let mut model = UNet::new(UNetConfig {
        depth: 1,
        base_filters: 4,
        dropout: 0.0,
        seed,
        ..UNetConfig::paper()
    });
    snapshot(&mut model)
}

fn tile(seed: u64) -> Image<u8> {
    generate(&SceneConfig::tiny(16), seed).rgb
}

#[test]
fn engine_serves_64_tiles_under_concurrency_with_sane_stats() {
    let engine = Arc::new(
        Engine::new(
            &tiny_ckpt(11),
            EngineConfig {
                workers: 2,
                max_batch_size: 4,
                max_wait: Duration::from_millis(1),
                queue_capacity: 64,
                cache_capacity: 64,
                filter: false,
                ..EngineConfig::for_tile(16)
            },
        )
        .unwrap(),
    );

    // 4 clients x 16 tiles; every 4th tile repeats so the cache sees
    // traffic too.
    let mut clients = Vec::new();
    for c in 0..4u64 {
        let engine = Arc::clone(&engine);
        clients.push(std::thread::spawn(move || {
            for i in 0..16u64 {
                let seed = if i % 4 == 3 { 1 } else { 10 + c * 100 + i };
                let mask = engine.classify_blocking(tile(seed)).unwrap();
                assert_eq!(mask.len(), 256);
                assert!(mask.iter().all(|&c| c < 3));
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }

    let s = engine.stats();
    assert_eq!(s.backend, "f32", "default backend must be reported");
    assert_eq!(s.submitted, 64);
    assert_eq!(s.ok, 64);
    assert_eq!(s.computed + s.cache_hits, 64);
    assert_eq!(s.cache_hits + s.cache_misses, 64);
    // 16 of the 64 submissions repeat one tile. In-flight duplicates are
    // not coalesced (both compute if they race before the first insert),
    // so the exact hit count varies with scheduling — but most repeats
    // must land after the first insert.
    assert!(s.cache_hits >= 8, "repeat tiles must hit: {}", s.cache_hits);
    assert_eq!(s.shed, 0, "closed-loop blocking load must never shed");
    assert_eq!(s.rejected, 0);
    assert_eq!(s.latency.count, 64);
    assert!(s.latency.p50_us <= s.latency.p95_us);
    assert!(s.latency.p95_us <= s.latency.p99_us);
    assert!(s.latency.min_us <= s.latency.p50_us);
    assert!(s.latency.p99_us <= s.latency.max_us);
    assert!(s.mean_batch_size >= 1.0);
    assert!(s.max_batch_seen <= 4);
    assert!(s.throughput_rps > 0.0);
}

#[test]
fn int8_engine_smokes_and_reports_its_backend() {
    use seaice::unet::InferBackend;
    let engine = Engine::new(
        &tiny_ckpt(15),
        EngineConfig {
            workers: 2,
            max_batch_size: 4,
            max_wait: Duration::from_millis(1),
            queue_capacity: 16,
            cache_capacity: 8,
            filter: false,
            backend: InferBackend::Int8,
            ..EngineConfig::for_tile(16)
        },
    )
    .unwrap();
    for i in 0..8u64 {
        let mask = engine.classify_blocking(tile(500 + i)).unwrap();
        assert_eq!(mask.len(), 256);
        assert!(mask.iter().all(|&c| c < 3));
    }
    let s = engine.stats();
    assert_eq!(s.backend, "int8", "/stats must report the int8 backend");
    assert_eq!(s.ok, 8);
}

#[test]
fn overload_burst_sheds_instead_of_queuing_without_bound() {
    // The burst is made before it is fired, and its first tile holds the
    // one worker in a targeted delay while the other 63 arrive: with the
    // worker busy, the 2-slot queue is full after two of them, so the
    // burst sheds however fast the worker is. (Synthesizing each tile
    // inside the burst let the worker drain the queue as fast as the
    // client filled it.)
    let tiles: Vec<Image<u8>> = (0..64u64).map(|i| tile(2000 + i)).collect();
    let hold = FaultAction::Delay(Duration::from_millis(500));
    let faults =
        FaultPlan::seeded(12).fail_keys("serve.worker", &[mix(tile_key(&tiles[0]), 0)], hold);
    let engine = Engine::with_faults(
        &tiny_ckpt(12),
        EngineConfig {
            workers: 1,
            max_batch_size: 2,
            max_wait: Duration::from_millis(1),
            queue_capacity: 2,
            cache_capacity: 0,
            filter: false,
            ..EngineConfig::for_tile(16)
        },
        Arc::new(faults),
    )
    .unwrap();

    // Fire a burst far beyond queue capacity without waiting: the engine
    // must answer what it admitted and shed the rest with Overloaded.
    let mut accepted: Vec<Ticket> = Vec::new();
    let mut shed = 0usize;
    for (i, tile) in tiles.into_iter().enumerate() {
        match engine.try_submit(tile) {
            Ok(t) => accepted.push(t),
            Err(ServeError::Overloaded) => shed += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
        // The worker has taken the first tile's batch, and is held in it.
        while i == 0 && engine.stats().batches == 0 {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    assert!(shed > 0, "a 64-request burst into a 2-slot queue must shed");
    assert!(!accepted.is_empty(), "admission control must admit some");
    for t in accepted {
        let mask = t.wait().unwrap();
        assert_eq!(mask.len(), 256);
    }
    let s = engine.stats();
    assert_eq!(s.shed, shed as u64);
    assert_eq!(s.ok + s.shed, 64);
}

#[test]
fn graceful_shutdown_drains_accepted_work_and_then_refuses() {
    let engine = Engine::new(
        &tiny_ckpt(13),
        EngineConfig {
            workers: 1,
            max_batch_size: 4,
            max_wait: Duration::from_millis(1),
            queue_capacity: 32,
            cache_capacity: 8,
            filter: false,
            ..EngineConfig::for_tile(16)
        },
    )
    .unwrap();
    let tickets: Vec<Ticket> = (0..12u64)
        .map(|i| engine.submit_blocking(tile(3000 + i)).unwrap())
        .collect();
    engine.shutdown();
    // Every accepted request resolves even though shutdown started first.
    for t in tickets {
        assert_eq!(t.wait().unwrap().len(), 256);
    }
    assert!(matches!(engine.classify(tile(1)), Err(ServeError::Closed)));
}

#[test]
fn push_wait_under_concurrent_shutdown_drains_inflight_and_refuses_new() {
    // A 2-slot queue with one slow-ish worker: backpressure producers
    // spend most of their time blocked inside `queue::push_wait`, which
    // is exactly where shutdown must find them.
    let engine = Arc::new(
        Engine::new(
            &tiny_ckpt(14),
            EngineConfig {
                workers: 1,
                max_batch_size: 2,
                max_wait: Duration::from_millis(1),
                queue_capacity: 2,
                cache_capacity: 0,
                filter: false,
                ..EngineConfig::for_tile(16)
            },
        )
        .unwrap(),
    );

    let mut producers = Vec::new();
    for p in 0..4u64 {
        let engine = Arc::clone(&engine);
        producers.push(std::thread::spawn(move || {
            let mut answered = 0usize;
            let mut refused = 0usize;
            for i in 0..8u64 {
                match engine.submit_blocking(tile(4000 + p * 100 + i)) {
                    // Accepted before the close: the ticket must resolve
                    // even though shutdown is racing this thread.
                    Ok(t) => {
                        assert_eq!(t.wait().unwrap().len(), 256);
                        answered += 1;
                    }
                    // Woken out of push_wait (or refused at the door) by
                    // the close: a clean rejection, not a hang or a panic.
                    Err(ServeError::Closed) => refused += 1,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            (answered, refused)
        }));
    }
    std::thread::sleep(Duration::from_millis(5));
    engine.shutdown();

    let (mut answered, mut refused) = (0usize, 0usize);
    for p in producers {
        let (a, r) = p.join().unwrap();
        answered += a;
        refused += r;
    }
    assert_eq!(
        answered + refused,
        32,
        "every push either drains to an answer or is refused — none lost"
    );
    // After the drain, new pushes are refused outright.
    assert!(matches!(
        engine.submit_blocking(tile(1)),
        Err(ServeError::Closed)
    ));
    // Everything admitted was actually computed (cache disabled).
    assert_eq!(engine.stats().ok, answered as u64);
}

#[test]
fn healthz_degrades_after_a_worker_restart_but_keeps_serving() {
    use seaice::faults::{mix, FaultAction, FaultPlan};
    use std::io::{Read, Write};

    let t = tile(7000);
    // Kill the (single) replica on this tile's first attempt; the retry
    // rebuilds it, which is exactly the signal the degraded state counts.
    let faults = Arc::new(FaultPlan::seeded(17).fail_keys(
        "serve.worker",
        &[mix(tile_key(&t), 0)],
        FaultAction::Panic,
    ));
    let engine = Arc::new(
        Engine::with_faults(
            &tiny_ckpt(16),
            EngineConfig {
                workers: 1,
                max_batch_size: 1,
                max_wait: Duration::from_millis(1),
                queue_capacity: 16,
                cache_capacity: 0,
                filter: false,
                degraded_restart_threshold: 1,
                ..EngineConfig::for_tile(16)
            },
            Arc::clone(&faults),
        )
        .unwrap(),
    );
    let mut server = HttpServer::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let get = |path: &str| -> (u16, String) {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let head = format!("GET {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
        stream.write_all(head.as_bytes()).unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        let split = response
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("no header terminator");
        let headtxt = String::from_utf8_lossy(&response[..split]).into_owned();
        let status: u16 = headtxt
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("no status");
        (
            status,
            String::from_utf8_lossy(&response[split + 4..]).into_owned(),
        )
    };

    // Before any fault: healthy.
    let (status, body) = get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"status":"ok"}"#);

    // The killed replica is restarted and still answers the request...
    assert_eq!(engine.classify(t).unwrap().len(), 256);
    assert_eq!(faults.injections_fired(), 1);

    // ...but with degraded_restart_threshold = 1 the probe now warns —
    // still HTTP 200, since the engine is serving.
    let (status, body) = get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"status":"degraded"}"#);
    let (status, stats) = get("/stats");
    assert_eq!(status, 200);
    assert!(stats.contains(r#""health":"degraded""#), "{stats}");
    assert!(stats.contains(r#""worker_restarts":1"#), "{stats}");

    // Degraded is a warning, not an outage: requests still succeed.
    assert_eq!(engine.classify(tile(7001)).unwrap().len(), 256);
    server.shutdown();
}
