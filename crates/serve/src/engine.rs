//! The serving engine: admission queue → dynamic micro-batcher → U-Net
//! replica pool → response, with an LRU prediction cache short-circuiting
//! repeat tiles and a latency histogram timing every request end to end.
//!
//! ```text
//!  submit ──▶ [cache?] ──hit──▶ ticket (immediate)
//!                │ miss
//!                ▼
//!        BoundedQueue (capacity K; full ⇒ Overloaded)
//!                │  pop_batch(max_batch, max_wait)
//!                ▼
//!     worker 0..W  (one replica each, reusable NCHW buffers)
//!                │  predict_into([n,3,s,s])  — supervised: a panicking
//!                │  replica is reloaded from the model source and the
//!                │  batch retried, so accepted requests are never lost
//!                ▼
//!        per-request ticket + cache insert + latency record
//! ```
//!
//! Every worker loads its replica from one [`ModelSource`], and every op
//! in the network treats batch items independently, so a tile's mask is
//! bit-identical whether it was served alone, in a batch of any size, by
//! a freshly restarted replica, or by `core::classify_scene` — the
//! property `tests/parallel_consistency.rs` pins.
//!
//! Overload control sheds on two axes with distinct errors: a full
//! admission queue sheds *new* work ([`ServeError::Overloaded`]), and an
//! optional per-request deadline sheds *stale* work at dequeue time
//! ([`ServeError::DeadlineExceeded`]) rather than burning a forward pass
//! on an answer the client has stopped waiting for.

use crate::cache::{tile_key, LruCache};
use crate::queue::{BoundedQueue, QueueError};
use seaice_core::inference::stage_tile;
use seaice_core::ModelSource;
use seaice_exec::{attempt, lock, Pool};
use seaice_faults::FaultPlan;
use seaice_imgproc::buffer::{Image, Scratch};
use seaice_label::cloudshadow::{CloudShadowFilter, FilterConfig};
use seaice_nn::Tensor;
use seaice_obs::json::{escape, fmt_f64, push_array};
use seaice_obs::latency::{BucketCount, LatencyHistogram, LatencySnapshot};
use seaice_unet::checkpoint::Checkpoint;
use seaice_unet::{InferBackend, TileClassifier};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many times a worker may retry one batch (loading a fresh replica
/// before each retry) before answering `Internal`.
const MAX_BATCH_ATTEMPTS: u64 = 3;

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Tile side the model serves; every request must match.
    pub tile_size: usize,
    /// U-Net replicas (worker threads).
    pub workers: usize,
    /// Largest micro-batch a worker assembles.
    pub max_batch_size: usize,
    /// How long a worker lingers for a batch to fill once it holds the
    /// first request (the batching latency/throughput dial).
    pub max_wait: Duration,
    /// Admission-queue capacity; a full queue sheds with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// LRU prediction-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Apply the thin-cloud/shadow pre-filter before inference (must
    /// match how the model was trained/used; `classify_scene` parity).
    pub filter: bool,
    /// Per-request deadline, measured from submission: a request still
    /// queued past it is shed with [`ServeError::DeadlineExceeded`] at
    /// dequeue time instead of computed late. `None` (the default) never
    /// sheds on age.
    pub deadline: Option<Duration>,
    /// Which forward implementation the replicas run. `Int8` quantizes
    /// the checkpoint once at engine construction (calibrated on
    /// `seaice_core`'s held-out set) and every replica is a clone of that
    /// frozen int8 network.
    pub backend: InferBackend,
    /// Worker restarts at or past this count flip `/healthz` to
    /// `degraded` (still HTTP 200 — the engine answers, but an operator
    /// should look). `0` disables the restart trigger.
    pub degraded_restart_threshold: u64,
    /// Deadline sheds at or past this count flip `/healthz` to
    /// `degraded`. `0` disables the shed trigger.
    pub degraded_deadline_threshold: u64,
}

impl EngineConfig {
    /// Sensible defaults for a `tile_size` model.
    pub fn for_tile(tile_size: usize) -> Self {
        Self {
            tile_size,
            workers: seaice_exec::par::cores(),
            max_batch_size: 8,
            max_wait: Duration::from_millis(2),
            queue_capacity: 256,
            cache_capacity: 1024,
            filter: false,
            deadline: None,
            backend: InferBackend::F32,
            degraded_restart_threshold: 3,
            degraded_deadline_threshold: 64,
        }
    }
}

/// Why a request failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission queue full: the request was shed (HTTP 503).
    Overloaded,
    /// The request sat in the queue past its deadline and was shed before
    /// compute (HTTP 504).
    DeadlineExceeded,
    /// Engine shut down; no new requests.
    Closed,
    /// Malformed request (wrong tile shape, not RGB, …).
    BadRequest(String),
    /// Degenerate engine configuration (zero workers, incompatible tile
    /// size, …) — reported by the constructor, never by a request.
    BadConfig(String),
    /// A worker failed to answer (response channel dropped, or a replica
    /// kept crashing past its retry budget).
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "overloaded: request shed"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded: request shed unserved"),
            ServeError::Closed => write!(f, "engine closed"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::BadConfig(m) => write!(f, "bad config: {m}"),
            ServeError::Internal(m) => write!(f, "internal: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QueueError> for ServeError {
    fn from(e: QueueError) -> Self {
        match e {
            QueueError::Overloaded => ServeError::Overloaded,
            QueueError::Closed => ServeError::Closed,
        }
    }
}

/// A queued classification request.
struct Request {
    tile: Image<u8>,
    key: u64,
    submitted: Instant,
    tx: mpsc::Sender<Result<Arc<Vec<u8>>, ServeError>>,
}

/// A pending response: wait on it to get the tile's class mask.
pub struct Ticket {
    rx: mpsc::Receiver<Result<Arc<Vec<u8>>, ServeError>>,
}

impl Ticket {
    /// Blocks until the mask is ready.
    ///
    /// # Errors
    /// Whatever the worker reported, or `Internal` if the worker vanished.
    pub fn wait(self) -> Result<Arc<Vec<u8>>, ServeError> {
        self.rx
            .recv()
            .map_err(|_| ServeError::Internal("worker dropped the response channel".into()))?
    }
}

/// The engine's hooks into the process-wide observability layer
/// (`seaice-obs`), grabbed once at construction: inert no-ops unless
/// `seaice_obs::enable_metrics()` / `seaice_obs::trace::enable()` ran
/// first, so the default engine is byte-identical to an uninstrumented
/// one.
struct EngineObs {
    /// Pre-check so disabled observability skips even the `Instant`
    /// arithmetic feeding it.
    active: bool,
    /// Registry histogram `serve.queue.wait_us` (admission → dequeue).
    queue_wait_us: seaice_obs::Histogram,
    /// Registry histogram `serve.request.latency_us` (submit → answer).
    request_latency_us: seaice_obs::Histogram,
    tracer: seaice_obs::Tracer,
}

impl EngineObs {
    fn capture() -> Self {
        let recorder = seaice_obs::metrics();
        let tracer = seaice_obs::tracer();
        EngineObs {
            active: recorder.is_enabled() || tracer.is_enabled(),
            queue_wait_us: recorder.histogram("serve.queue.wait_us"),
            request_latency_us: recorder.histogram("serve.request.latency_us"),
            tracer,
        }
    }
}

/// Lock-free counters + the (locked, cheap) latency histogram.
#[derive(Default)]
struct StatsInner {
    submitted: AtomicU64,
    computed: AtomicU64,
    cache_hits: AtomicU64,
    shed: AtomicU64,
    shed_deadline: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_batch_seen: AtomicU64,
    worker_restarts: AtomicU64,
    batch_retries: AtomicU64,
    latency: Mutex<LatencyHistogram>,
}

/// Fault-tolerance counters: the `/stats` robustness section.
#[derive(Clone, Debug)]
pub struct RobustnessSnapshot {
    /// Replicas reloaded from the model source after a worker panic.
    pub worker_restarts: u64,
    /// Batches re-run on a fresh replica after a panic.
    pub batch_retries: u64,
    /// Requests shed because the admission queue was full.
    pub shed_overload: u64,
    /// Requests shed because they aged past their deadline in queue.
    pub shed_deadline: u64,
}

/// A point-in-time view of the engine (what `GET /stats` serves).
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Seconds since the engine started.
    pub uptime_secs: f64,
    /// Requests admitted past validation (hits + queued).
    pub submitted: u64,
    /// Requests answered, from cache or compute.
    pub ok: u64,
    /// Requests answered by a model forward pass.
    pub computed: u64,
    /// Requests answered from the prediction cache.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Cache entries displaced to make room for new ones.
    pub cache_evictions: u64,
    /// `cache_hits / lookups` so far.
    pub cache_hit_rate: f64,
    /// Entries resident in the cache.
    pub cache_len: usize,
    /// Configured cache capacity.
    pub cache_capacity: usize,
    /// Requests shed by admission control (`Overloaded`).
    pub shed: u64,
    /// Malformed requests refused before admission.
    pub rejected: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Mean requests per executed batch.
    pub mean_batch_size: f64,
    /// Largest batch executed.
    pub max_batch_seen: u64,
    /// Requests waiting in the queue right now.
    pub queue_depth: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Worker replica count.
    pub workers: usize,
    /// Forward implementation every replica runs (`"f32"` or `"int8"`).
    pub backend: String,
    /// `"ok"` or `"degraded"` — what `GET /healthz` reports. Degraded
    /// means worker restarts or deadline sheds crossed their configured
    /// thresholds; the engine still serves.
    pub health: String,
    /// Retries, restarts, and shed reasons.
    pub robustness: RobustnessSnapshot,
    /// End-to-end request latency (submit → response ready).
    pub latency: LatencySnapshot,
    /// The non-empty latency buckets behind [`latency`]
    /// (`StatsSnapshot::latency`), so external scrapers can compute
    /// their own quantiles instead of trusting p50/p95/p99 picks.
    pub latency_buckets: Vec<BucketCount>,
    /// `ok / uptime` — the engine's lifetime throughput in requests/s.
    pub throughput_rps: f64,
}

impl StatsSnapshot {
    /// The snapshot as compact JSON, members in field order — the body of
    /// `GET /stats`. Write-only: nothing in the workspace reads it back.
    pub fn to_json(&self) -> String {
        let (s, r, l) = (self, &self.robustness, &self.latency);
        let (uptime, hit_rate) = (fmt_f64(s.uptime_secs), fmt_f64(s.cache_hit_rate));
        let (mean_batch, rps) = (fmt_f64(s.mean_batch_size), fmt_f64(s.throughput_rps));
        let (backend, health) = (escape(&s.backend), escape(&s.health));
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"uptime_secs\":{uptime},\"submitted\":{},\"ok\":{},\"computed\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},",
            s.submitted, s.ok, s.computed, s.cache_hits, s.cache_misses, s.cache_evictions
        );
        let _ = write!(
            out,
            "\"cache_hit_rate\":{hit_rate},\"cache_len\":{},\"cache_capacity\":{},\
             \"shed\":{},\"rejected\":{},\"batches\":{},\"mean_batch_size\":{mean_batch},",
            s.cache_len, s.cache_capacity, s.shed, s.rejected, s.batches
        );
        let _ = write!(
            out,
            "\"max_batch_seen\":{},\"queue_depth\":{},\"queue_capacity\":{},\
             \"workers\":{},\"backend\":\"{backend}\",\"health\":\"{health}\",",
            s.max_batch_seen, s.queue_depth, s.queue_capacity, s.workers
        );
        let _ = write!(
            out,
            "\"robustness\":{{\"worker_restarts\":{},\"batch_retries\":{},\
             \"shed_overload\":{},\"shed_deadline\":{}}},",
            r.worker_restarts, r.batch_retries, r.shed_overload, r.shed_deadline
        );
        let _ = write!(
            out,
            "\"latency\":{{\"count\":{},\"mean_us\":{},\"min_us\":{},\"p50_us\":{},\
             \"p95_us\":{},\"p99_us\":{},\"max_us\":{}}},\"latency_buckets\":",
            l.count,
            fmt_f64(l.mean_us),
            l.min_us,
            l.p50_us,
            l.p95_us,
            l.p99_us,
            l.max_us
        );
        push_array(&mut out, &s.latency_buckets, |out, b| {
            let _ = write!(
                out,
                "{{\"floor_us\":{},\"upper_us\":{},\"count\":{}}}",
                b.floor_us, b.upper_us, b.count
            );
        });
        let _ = write!(out, ",\"throughput_rps\":{rps}}}");
        out
    }
}

/// The batched, cache-aware inference serving engine.
pub struct Engine {
    cfg: EngineConfig,
    queue: Arc<BoundedQueue<Request>>,
    cache: Arc<Mutex<LruCache<Arc<Vec<u8>>>>>,
    stats: Arc<StatsInner>,
    obs: Arc<EngineObs>,
    workers: Mutex<Option<Pool>>,
    started: Instant,
}

impl Engine {
    /// Spawns the worker pool, each worker loading a replica from one
    /// [`ModelSource`] of `ckpt` on the configured backend. Fault
    /// injection is disabled; see [`with_faults`](Engine::with_faults).
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] when the config is degenerate (zero
    /// workers/batch/queue), `tile_size` is incompatible with the
    /// checkpointed architecture, or the checkpoint does not restore.
    pub fn new(ckpt: &Checkpoint, cfg: EngineConfig) -> Result<Self, ServeError> {
        Self::with_faults(ckpt, cfg, Arc::new(FaultPlan::disabled()))
    }

    /// [`new`](Engine::new) with a [`FaultPlan`] armed at the
    /// `"serve.worker"` site (keyed by `mix(first-request-key, attempt)`)
    /// — the chaos-test entry point.
    ///
    /// # Errors
    /// As [`new`](Engine::new).
    pub fn with_faults(
        ckpt: &Checkpoint,
        cfg: EngineConfig,
        faults: Arc<FaultPlan>,
    ) -> Result<Self, ServeError> {
        for (count, what) in [
            (cfg.workers, "engine needs at least one worker"),
            (cfg.max_batch_size, "max batch size must be at least 1"),
            (cfg.queue_capacity, "queue capacity must be at least 1"),
        ] {
            if count == 0 {
                return Err(ServeError::BadConfig(format!("{what} (got 0)")));
            }
        }
        // Workers keep the source to reload a panicking replica in place.
        let source = Arc::new(
            ModelSource::new(ckpt, cfg.backend, cfg.tile_size).map_err(ServeError::BadConfig)?,
        );

        let queue = Arc::new(BoundedQueue::new(cfg.queue_capacity));
        let cache = Arc::new(Mutex::new(LruCache::new(cfg.cache_capacity)));
        let stats = Arc::new(StatsInner::default());
        let obs = Arc::new(EngineObs::capture());
        let workers = {
            let (input, closer) = (Arc::clone(&queue), Arc::clone(&queue));
            let (cache, stats, obs) = (Arc::clone(&cache), Arc::clone(&stats), Arc::clone(&obs));
            Pool::spawn(
                cfg.workers,
                |w| format!("seaice-serve-{w}"),
                move || closer.close(),
                move |_| worker_loop(&input, &cache, &stats, &source, &faults, &obs, cfg),
            )
            .map_err(|e| ServeError::Internal(format!("failed to spawn serve worker: {e}")))?
        };
        Ok(Self {
            cfg,
            queue,
            cache,
            stats,
            obs,
            workers: Mutex::new(Some(workers)),
            started: Instant::now(),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Validates a tile and answers from cache if possible; otherwise
    /// hands back the request to enqueue plus its paired ticket.
    fn admit(&self, tile: Image<u8>) -> Result<Admitted, ServeError> {
        let s = self.cfg.tile_size;
        if tile.dimensions() != (s, s) || tile.channels() != 3 {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::BadRequest(format!(
                "expected a {s}x{s} RGB tile, got {}x{} with {} channels",
                tile.width(),
                tile.height(),
                tile.channels()
            )));
        }
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let submitted = Instant::now();
        let (key, cached) = {
            let _lookup = self.obs.tracer.span("serve.cache.lookup", "serve");
            let key = tile_key(&tile);
            (key, lock(&self.cache).get(key))
        };
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket { rx };
        if let Some(mask) = cached {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            let waited = submitted.elapsed();
            self.record_latency(waited);
            if self.obs.active {
                let us = waited.as_micros().min(u128::from(u64::MAX)) as u64;
                self.obs.request_latency_us.record_us(us);
                self.obs
                    .tracer
                    .complete_ending_now("serve.request", "serve", us);
            }
            tx.send(Ok(mask)).ok();
            return Ok(Admitted::Hit(ticket));
        }
        Ok(Admitted::Miss(
            Request {
                tile,
                key,
                submitted,
                tx,
            },
            ticket,
        ))
    }

    /// Submits a tile, shedding with [`ServeError::Overloaded`] when the
    /// admission queue is full — the front-door path.
    ///
    /// # Errors
    /// `Overloaded`, `Closed`, or `BadRequest`.
    pub fn try_submit(&self, tile: Image<u8>) -> Result<Ticket, ServeError> {
        match self.admit(tile)? {
            Admitted::Hit(ticket) => Ok(ticket),
            Admitted::Miss(req, ticket) => match self.queue.try_push(req) {
                Ok(()) => Ok(ticket),
                Err((_, e)) => {
                    if e == QueueError::Overloaded {
                        self.stats.shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e.into())
                }
            },
        }
    }

    /// Submits a tile with backpressure: blocks until queue space frees
    /// instead of shedding — the batch-job path (whole-scene
    /// classification).
    ///
    /// # Errors
    /// `Closed` or `BadRequest`.
    pub fn submit_blocking(&self, tile: Image<u8>) -> Result<Ticket, ServeError> {
        match self.admit(tile)? {
            Admitted::Hit(ticket) => Ok(ticket),
            Admitted::Miss(req, ticket) => {
                self.queue
                    .push_wait(req)
                    .map_err(|(_, e)| ServeError::from(e))?;
                Ok(ticket)
            }
        }
    }

    /// Convenience: [`try_submit`](Engine::try_submit) + wait.
    ///
    /// # Errors
    /// As `try_submit`, plus anything the worker reports.
    pub fn classify(&self, tile: Image<u8>) -> Result<Arc<Vec<u8>>, ServeError> {
        self.try_submit(tile)?.wait()
    }

    /// Convenience: [`submit_blocking`](Engine::submit_blocking) + wait.
    ///
    /// # Errors
    /// As `submit_blocking`, plus anything the worker reports.
    pub fn classify_blocking(&self, tile: Image<u8>) -> Result<Arc<Vec<u8>>, ServeError> {
        self.submit_blocking(tile)?.wait()
    }

    fn record_latency(&self, d: Duration) {
        lock(&self.stats.latency).record(d);
    }

    /// `"ok"`, or `"degraded"` once worker restarts or deadline sheds
    /// cross their [`EngineConfig`] thresholds. Degraded is a warning
    /// state: the engine still answers (the probe stays HTTP 200) but the
    /// fault-recovery machinery has been earning its keep.
    pub fn health(&self) -> &'static str {
        let restarts = self.stats.worker_restarts.load(Ordering::Relaxed);
        let sheds = self.stats.shed_deadline.load(Ordering::Relaxed);
        let rt = self.cfg.degraded_restart_threshold;
        let dt = self.cfg.degraded_deadline_threshold;
        if (rt > 0 && restarts >= rt) || (dt > 0 && sheds >= dt) {
            "degraded"
        } else {
            "ok"
        }
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let cache = lock(&self.cache);
        let (latency, latency_buckets) = {
            let h = lock(&self.stats.latency);
            (h.snapshot(), h.bucket_counts())
        };
        let computed = self.stats.computed.load(Ordering::Relaxed);
        let hits = self.stats.cache_hits.load(Ordering::Relaxed);
        let batches = self.stats.batches.load(Ordering::Relaxed);
        let batched = self.stats.batched_requests.load(Ordering::Relaxed);
        let shed = self.stats.shed.load(Ordering::Relaxed);
        let ok = computed + hits;
        let uptime = self.started.elapsed().as_secs_f64();
        StatsSnapshot {
            uptime_secs: uptime,
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            ok,
            computed,
            cache_hits: hits,
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
            cache_hit_rate: cache.hit_rate(),
            cache_len: cache.len(),
            cache_capacity: cache.capacity(),
            shed,
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            max_batch_seen: self.stats.max_batch_seen.load(Ordering::Relaxed),
            queue_depth: self.queue.len(),
            queue_capacity: self.cfg.queue_capacity,
            workers: self.cfg.workers,
            backend: self.cfg.backend.to_string(),
            health: self.health().to_string(),
            robustness: RobustnessSnapshot {
                worker_restarts: self.stats.worker_restarts.load(Ordering::Relaxed),
                batch_retries: self.stats.batch_retries.load(Ordering::Relaxed),
                shed_overload: shed,
                shed_deadline: self.stats.shed_deadline.load(Ordering::Relaxed),
            },
            latency,
            latency_buckets,
            throughput_rps: if uptime > 0.0 {
                ok as f64 / uptime
            } else {
                0.0
            },
        }
    }

    /// The engine's metrics in Prometheus text exposition format
    /// (`GET /metrics`): the stats snapshot rendered as
    /// `seaice_serve_*` series, followed by whatever the process-wide
    /// `seaice-obs` registry holds (empty unless
    /// `seaice_obs::enable_metrics()` ran before construction).
    pub fn metrics_prometheus(&self) -> String {
        let s = self.stats();
        let r = &s.robustness;
        let mut out = String::new();
        let mut put = |name: &str, kind: &str, value: String| {
            out.push_str(&format!("# TYPE seaice_serve_{name} {kind}\n"));
            out.push_str(&format!("seaice_serve_{name} {value}\n"));
        };
        put("requests_submitted", "counter", s.submitted.to_string());
        put("requests_ok", "counter", s.ok.to_string());
        put("requests_computed", "counter", s.computed.to_string());
        put("requests_rejected", "counter", s.rejected.to_string());
        put("cache_hits", "counter", s.cache_hits.to_string());
        put("cache_misses", "counter", s.cache_misses.to_string());
        put("cache_evictions", "counter", s.cache_evictions.to_string());
        put("cache_len", "gauge", s.cache_len.to_string());
        put("shed_overload", "counter", r.shed_overload.to_string());
        put("shed_deadline", "counter", r.shed_deadline.to_string());
        put("batches", "counter", s.batches.to_string());
        put("worker_restarts", "counter", r.worker_restarts.to_string());
        put("batch_retries", "counter", r.batch_retries.to_string());
        put("queue_depth", "gauge", s.queue_depth.to_string());
        put("uptime_seconds", "gauge", format!("{}", s.uptime_secs));
        put("throughput_rps", "gauge", format!("{}", s.throughput_rps));
        out.push_str("# TYPE seaice_serve_request_latency_us histogram\n");
        let mut cumulative = 0u64;
        for b in &s.latency_buckets {
            cumulative += b.count;
            out.push_str(&format!(
                "seaice_serve_request_latency_us_bucket{{le=\"{}\"}} {cumulative}\n",
                b.upper_us
            ));
        }
        out.push_str(&format!(
            "seaice_serve_request_latency_us_bucket{{le=\"+Inf\"}} {}\n",
            s.latency.count
        ));
        out.push_str(&format!(
            "seaice_serve_request_latency_us_sum {}\n",
            (s.latency.mean_us * s.latency.count as f64) as u64
        ));
        out.push_str(&format!(
            "seaice_serve_request_latency_us_count {}\n",
            s.latency.count
        ));
        out.push_str(&seaice_obs::metrics().render_prometheus());
        out
    }

    /// Graceful shutdown: closes admissions, lets the workers drain every
    /// queued request, and joins them. Idempotent. Requests submitted
    /// after this fail with [`ServeError::Closed`]; requests already
    /// queued still get answers.
    pub fn shutdown(&self) {
        self.queue.close();
        // Taken out of the lock first: joining blocks for as long as the
        // drain takes.
        let workers = lock(&self.workers).take();
        let panicked = workers.map_or(0, |mut pool| pool.join());
        // worker_loop supervises replica panics with `attempt`; a panic
        // escaping to join() means supervision itself is broken, and
        // crashing loudly here is the contract.
        assert!(panicked == 0, "serve worker panicked");
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Admission outcome: answered from cache, or a request to queue paired
/// with the ticket its waiter holds.
enum Admitted {
    Hit(Ticket),
    Miss(Request, Ticket),
}

/// One worker: pop a micro-batch, shed anything past its deadline,
/// assemble the NCHW tensor in a reused buffer, forward once (supervised:
/// a panicking replica — injected fault or real bug — is reloaded from the
/// model source and the batch retried), slice the masks back out, answer +
/// cache.
fn worker_loop(
    queue: &BoundedQueue<Request>,
    cache: &Mutex<LruCache<Arc<Vec<u8>>>>,
    stats: &StatsInner,
    source: &ModelSource,
    faults: &FaultPlan,
    obs: &EngineObs,
    cfg: EngineConfig,
) {
    let mut model = source.load();
    let s = cfg.tile_size;
    let plane = s * s;
    let filter = cfg
        .filter
        .then(|| CloudShadowFilter::new(FilterConfig::for_tile(s)));
    // Reusable forward buffers: the filter's planes, the NCHW input
    // (reclaimed from the tensor after each forward) and the prediction
    // output.
    let mut scratch = Scratch::new();
    let mut input: Vec<f32> = Vec::new();
    let mut preds: Vec<u8> = Vec::new();

    while let Some(mut batch) = queue.pop_batch(cfg.max_batch_size, cfg.max_wait) {
        // Deadline check happens at dequeue: a request that aged out while
        // queued is shed with a distinct error instead of computed late.
        if let Some(deadline) = cfg.deadline {
            batch.retain(|req| {
                let stale = req.submitted.elapsed() > deadline;
                if stale {
                    stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
                    req.tx.send(Err(ServeError::DeadlineExceeded)).ok();
                }
                !stale
            });
        }
        if batch.is_empty() {
            continue;
        }
        let n = batch.len();
        if obs.active {
            // Queue wait per request, measured at dequeue (admission →
            // here): the micro-batching dial this span exists to tune.
            for req in &batch {
                let us = req
                    .submitted
                    .elapsed()
                    .as_micros()
                    .min(u128::from(u64::MAX)) as u64;
                obs.queue_wait_us.record_us(us);
                obs.tracer
                    .complete_ending_now("serve.queue.wait", "serve", us);
            }
        }
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats
            .batched_requests
            .fetch_add(n as u64, Ordering::Relaxed);
        stats.max_batch_seen.fetch_max(n as u64, Ordering::Relaxed);

        // Supervised compute: a replica panic loses nothing — the worker
        // loads a fresh replica from the source, stages the batch again
        // (the unwound attempt consumed the input) and re-runs it
        // (bit-identical answers, since every replica is the same weights).
        // The attempt number feeds the injection key so a targeted fault
        // fires once, not on every retry.
        let mut tries: u64 = 0;
        let computed = loop {
            {
                let _assemble = obs.tracer.span("serve.batch.assemble", "serve");
                input.resize(n * 3 * plane, 0.0);
                for (req, dst) in batch.iter().zip(input.chunks_exact_mut(3 * plane)) {
                    stage_tile(&req.tile, filter.as_ref(), &mut scratch, dst);
                }
            }
            // The guard sits outside the attempt: an injected panic is
            // caught inside, so the forward span always closes.
            let _forward = obs.tracer.span("serve.batch.forward", "serve");
            let outcome = attempt(|| {
                faults.maybe_panic("serve.worker", seaice_faults::mix(batch[0].key, tries));
                let x = Tensor::from_vec(&[n, 3, s, s], std::mem::take(&mut input));
                model.predict_into(&x, &mut preds);
                input = x.into_vec();
            });
            match outcome {
                Ok(()) => break true,
                Err(_) => {
                    stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
                    model = source.load();
                    tries += 1;
                    if tries >= MAX_BATCH_ATTEMPTS {
                        break false;
                    }
                    stats.batch_retries.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        if !computed {
            for req in batch {
                req.tx
                    .send(Err(ServeError::Internal(format!(
                        "replica crashed on this batch {MAX_BATCH_ATTEMPTS} attempts in a row"
                    ))))
                    .ok();
            }
            continue;
        }

        // Fill the cache and record latencies under the guards, but hand
        // the results back only after both guards drop: replying inside
        // the critical section stalls every cache/stats reader behind
        // per-request channel traffic (`blocking-call-under-lock`).
        let mut cache_guard = lock(cache);
        let mut latency_guard = lock(&stats.latency);
        let mut ready = Vec::with_capacity(batch.len());
        for (i, req) in batch.into_iter().enumerate() {
            let mask = Arc::new(preds[i * plane..(i + 1) * plane].to_vec());
            cache_guard.insert(req.key, Arc::clone(&mask));
            let served = req.submitted.elapsed();
            latency_guard.record(served);
            if obs.active {
                let us = served.as_micros().min(u128::from(u64::MAX)) as u64;
                obs.request_latency_us.record_us(us);
                obs.tracer.complete_ending_now("serve.request", "serve", us);
            }
            stats.computed.fetch_add(1, Ordering::Relaxed);
            ready.push((req.tx, mask));
        }
        drop(latency_guard);
        drop(cache_guard);
        for (tx, mask) in ready {
            // A vanished waiter (dropped ticket) is not an error.
            tx.send(Ok(mask)).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaice_faults::{mix, FaultAction, FaultRule};
    use seaice_s2::synth::{generate, SceneConfig};
    use seaice_unet::checkpoint::snapshot;
    use seaice_unet::{UNet, UNetConfig};

    fn tiny_ckpt() -> Checkpoint {
        let mut model = UNet::new(UNetConfig {
            depth: 1,
            base_filters: 4,
            dropout: 0.0,
            seed: 9,
            ..UNetConfig::paper()
        });
        snapshot(&mut model)
    }

    fn tile(seed: u64) -> Image<u8> {
        generate(&SceneConfig::tiny(16), seed).rgb
    }

    fn quiet_cfg() -> EngineConfig {
        EngineConfig {
            workers: 2,
            max_batch_size: 4,
            max_wait: Duration::from_millis(1),
            queue_capacity: 16,
            cache_capacity: 32,
            filter: false,
            ..EngineConfig::for_tile(16)
        }
    }

    #[test]
    fn classify_matches_a_direct_forward_pass() {
        let ckpt = tiny_ckpt();
        let engine = Engine::new(&ckpt, quiet_cfg()).unwrap();
        let t = tile(1);
        let got = engine.classify(t.clone()).unwrap();

        let mut model = seaice_unet::checkpoint::restore(&ckpt);
        let chw = seaice_core::adapters::image_to_chw(&t);
        let x = Tensor::from_vec(&[1, 3, 16, 16], chw);
        let want = model.predict(&x);
        assert_eq!(*got, want);
    }

    #[test]
    fn repeat_tiles_hit_the_cache() {
        let engine = Engine::new(&tiny_ckpt(), quiet_cfg()).unwrap();
        let t = tile(2);
        let a = engine.classify(t.clone()).unwrap();
        let b = engine.classify(t).unwrap();
        assert_eq!(a, b);
        let s = engine.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.computed, 1);
        assert_eq!(s.ok, 2);
        assert!(s.cache_hit_rate > 0.0);
        assert_eq!(s.latency.count, 2);
    }

    #[test]
    fn wrong_shape_is_a_bad_request_not_a_panic() {
        let engine = Engine::new(&tiny_ckpt(), quiet_cfg()).unwrap();
        let wrong = Image::<u8>::new(8, 8, 3);
        match engine.classify(wrong) {
            Err(ServeError::BadRequest(m)) => assert!(m.contains("16x16"), "{m}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        assert_eq!(engine.stats().rejected, 1);
    }

    #[test]
    fn degenerate_configs_are_descriptive_errors() {
        let ckpt = tiny_ckpt();
        for (cfg, expect) in [
            (
                EngineConfig {
                    workers: 0,
                    ..quiet_cfg()
                },
                "at least one worker",
            ),
            (
                EngineConfig {
                    max_batch_size: 0,
                    ..quiet_cfg()
                },
                "max batch size",
            ),
            (
                EngineConfig {
                    queue_capacity: 0,
                    ..quiet_cfg()
                },
                "queue capacity",
            ),
            // depth-1 checkpoint wants an even tile side; 15 is not.
            (EngineConfig::for_tile(15), "tile size incompatible"),
        ] {
            let e = match Engine::new(&ckpt, cfg) {
                Err(e) => e,
                Ok(_) => panic!("expected BadConfig for {expect:?}"),
            };
            match &e {
                ServeError::BadConfig(m) => assert!(m.contains(expect), "{m}"),
                other => panic!("expected BadConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn shutdown_drains_queued_work_then_refuses_new() {
        let engine = Engine::new(&tiny_ckpt(), quiet_cfg()).unwrap();
        // Queue several distinct tiles, then shut down immediately: every
        // accepted ticket must still resolve.
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| engine.submit_blocking(tile(100 + i)).unwrap())
            .collect();
        engine.shutdown();
        for t in tickets {
            let mask = t.wait().unwrap();
            assert_eq!(mask.len(), 256);
            assert!(mask.iter().all(|&c| c < 3));
        }
        assert_eq!(engine.classify(tile(1)), Err(ServeError::Closed));
        // Idempotent.
        engine.shutdown();
    }

    #[test]
    fn batches_form_under_concurrent_load() {
        let engine = Arc::new(Engine::new(&tiny_ckpt(), quiet_cfg()).unwrap());
        let mut clients = Vec::new();
        for c in 0..4u64 {
            let engine = Arc::clone(&engine);
            clients.push(std::thread::spawn(move || {
                for i in 0..6 {
                    let mask = engine.classify_blocking(tile(1000 + c * 10 + i)).unwrap();
                    assert_eq!(mask.len(), 256);
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        let s = engine.stats();
        assert_eq!(s.ok, 24);
        assert_eq!(s.latency.count, 24);
        assert!(s.batches >= 1 && s.batches <= 24);
        assert!(s.mean_batch_size >= 1.0);
        assert!(s.max_batch_seen as usize <= engine.config().max_batch_size);
    }

    #[test]
    fn stale_requests_are_shed_with_deadline_exceeded() {
        let engine = Engine::new(
            &tiny_ckpt(),
            EngineConfig {
                workers: 1,
                deadline: Some(Duration::from_nanos(1)),
                ..quiet_cfg()
            },
        )
        .unwrap();
        match engine.classify(tile(40)) {
            Err(ServeError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let s = engine.stats();
        assert_eq!(s.robustness.shed_deadline, 1);
        assert_eq!(s.computed, 0);
        // Overload shedding is counted separately.
        assert_eq!(s.robustness.shed_overload, 0);
    }

    #[test]
    fn injected_replica_panic_is_supervised_and_answers_bit_identically() {
        let ckpt = tiny_ckpt();
        let t = tile(50);
        let key = tile_key(&t);
        // Kill the replica on this request's first attempt only.
        let faults = Arc::new(FaultPlan::seeded(7).fail_keys(
            "serve.worker",
            &[mix(key, 0)],
            FaultAction::Panic,
        ));
        let engine = Engine::with_faults(
            &ckpt,
            EngineConfig {
                workers: 1,
                ..quiet_cfg()
            },
            faults,
        )
        .unwrap();
        let got = engine.classify(t.clone()).unwrap();

        let mut model = seaice_unet::checkpoint::restore(&ckpt);
        let chw = seaice_core::adapters::image_to_chw(&t);
        let x = Tensor::from_vec(&[1, 3, 16, 16], chw);
        assert_eq!(
            *got,
            model.predict(&x),
            "restarted replica must answer bit-identically"
        );

        let s = engine.stats();
        assert_eq!(s.robustness.worker_restarts, 1);
        assert_eq!(s.robustness.batch_retries, 1);
        assert_eq!(s.ok, 1);
        // The engine still serves after the restart.
        assert_eq!(engine.classify(tile(51)).unwrap().len(), 256);
    }

    #[test]
    fn int8_backend_serves_and_survives_replica_restarts() {
        let ckpt = tiny_ckpt();
        let cfg = EngineConfig {
            backend: InferBackend::Int8,
            workers: 1,
            ..quiet_cfg()
        };

        // The direct quantized forward the engine must reproduce.
        let calib = seaice_core::default_calibration(16).unwrap();
        let q = seaice_unet::checkpoint::try_restore_quantized(&ckpt, &calib).unwrap();
        let t = tile(70);
        let chw = seaice_core::adapters::image_to_chw(&t);
        let want = q.predict(&Tensor::from_vec(&[1, 3, 16, 16], chw));

        let engine = Engine::new(&ckpt, cfg).unwrap();
        let got = engine.classify(t.clone()).unwrap();
        assert_eq!(*got, want, "engine must match the direct int8 forward");
        assert_eq!(engine.stats().backend, "int8");

        // A panicking int8 replica is rebuilt and answers bit-identically.
        let key = tile_key(&t);
        let faults = Arc::new(FaultPlan::seeded(11).fail_keys(
            "serve.worker",
            &[mix(key, 0)],
            FaultAction::Panic,
        ));
        let engine = Engine::with_faults(&ckpt, cfg, faults).unwrap();
        let got = engine.classify(t).unwrap();
        assert_eq!(
            *got, want,
            "restarted int8 replica must answer bit-identically"
        );
        assert_eq!(engine.stats().robustness.worker_restarts, 1);
    }

    #[test]
    fn f32_backend_is_reported_in_stats() {
        let engine = Engine::new(&tiny_ckpt(), quiet_cfg()).unwrap();
        assert_eq!(engine.stats().backend, "f32");
    }

    #[test]
    fn permanently_crashing_replica_reports_internal_after_retries() {
        let faults =
            Arc::new(FaultPlan::seeded(3).with_rule("serve.worker", FaultRule::panics(1.0)));
        let engine = Engine::with_faults(
            &tiny_ckpt(),
            EngineConfig {
                workers: 1,
                ..quiet_cfg()
            },
            faults,
        )
        .unwrap();
        match engine.classify(tile(60)) {
            Err(ServeError::Internal(m)) => assert!(m.contains("attempts"), "{m}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        let s = engine.stats();
        assert_eq!(s.robustness.worker_restarts, 3);
        assert_eq!(s.robustness.batch_retries, 2);
        // Graceful shutdown still works: the worker caught every panic.
        engine.shutdown();
    }
}
