//! # seaice-serve
//!
//! The serving side of the workflow: where `seaice-core` ends at batch
//! inference over one scene, this crate turns the trained U-Net into a
//! long-running, load-shedding inference service — the first subsystem on
//! the "heavy traffic" side of the roadmap.
//!
//! * [`queue`] — bounded admission queue (`seaice-exec`'s `Queue`,
//!   re-exported): `try_push` sheds with `Overloaded` when full (explicit
//!   load-shedding, no unbounded memory), `push_wait` applies
//!   backpressure; consumers pop *micro-batches*.
//! * [`cache`] — O(1) LRU prediction cache keyed by tile content hash:
//!   repeat tiles (archive re-analysis, overlapping users, retries) skip
//!   the forward pass entirely.
//! * [`engine`] — the worker pool (a `seaice-exec` `Pool`): `W` replicas
//!   loaded from one `seaice_core::ModelSource`, each assembling NCHW
//!   micro-batches in reusable buffers under a `max_batch_size`/`max_wait`
//!   policy; per-request latency lands in a `seaice_obs::latency` histogram;
//!   graceful shutdown drains the queue.
//! * [`http`] — a minimal `std::net` HTTP/1.1 front door
//!   (`POST /classify`, `GET /stats`, `GET /healthz`).
//! * [`scene`] — whole-scene classification through the engine,
//!   bit-identical to `core::classify_scene`.
//!
//! Everything is `std` + the workspace's own crates: no async runtime, no
//! external registry dependencies.
#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod http;
pub mod queue;
pub mod scene;

pub use cache::{tile_key, LruCache};
pub use engine::{Engine, EngineConfig, RobustnessSnapshot, ServeError, StatsSnapshot, Ticket};
pub use http::HttpServer;
pub use queue::{BoundedQueue, QueueError};
pub use scene::classify_scene_engine;
