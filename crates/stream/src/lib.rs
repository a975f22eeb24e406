//! # seaice-stream
//!
//! A small pull-based streaming DAG scheduler: the generalization of
//! `seaice-mapreduce`'s two-stage map/reduce to an arbitrary linear chain
//! of typed stages (`Source` → `Transform`* → `Sink`) connected by
//! bounded channels.
//!
//! The paper's workflow — acquire scenes, tile, auto-label, infer — is
//! naturally a pipeline over a *continuous* feed of Sentinel-2
//! acquisitions, not a batch over a fixed catalog. This crate provides
//! the scheduling policy for that shape; the mechanism under it — the
//! bounded queue, the worker threads, attempt isolation and the worker
//! exit guard — is `seaice-exec`'s, shared with the label pool, the
//! map-reduce cluster and the serve engine:
//!
//! * **Backpressure.** Every stage boundary is a bounded queue
//!   ([`channel::StageQueue`], `seaice_exec::Queue` re-exported); a producer that outruns its consumer
//!   blocks on `send` until capacity frees up, so memory stays bounded
//!   no matter how fast the source emits.
//! * **Fault tolerance carried over from `run_tasks_ft`.** Each stage
//!   runs `workers` threads; an attempt that panics or returns an
//!   injected error is caught, the item is re-queued with an
//!   *avoid-this-worker* hint, and workers that accumulate
//!   `blacklist_after` failures retire (unless they are the stage's last
//!   active worker — the same progressive fallback as the mapreduce
//!   executor picker, so the DAG always drains).
//! * **Deterministic outputs.** The scheduler makes no ordering
//!   promises between stages; determinism is the *sink's* contract:
//!   consumers key their accumulation (BTreeMaps, commutative integer
//!   sums) so the final artifact is byte-identical at any worker count.
//!   Every differential test in the workspace pins this.
//! * **Simulated time.** Stages carry a per-item simulated cost; every
//!   attempt advances a shared [`seaice_obs::ManualClock`] and (when
//!   tracing is on) lands as a Chrome `complete` event on the simulated
//!   timeline — no wall-clock reads anywhere in this crate, which
//!   `seaice-lint`'s `wallclock-in-deterministic-path` rule enforces.
//!
//! Fault-injection sites (see `seaice-faults`):
//!
//! | site | key | effect |
//! |---|---|---|
//! | `stream.worker` | `mix(stage_index, worker_index)` | the attempt fails before the stage function runs |
//! | `stream.supervisor` | `mix(stage_index, worker_index)` | the worker *thread* panics outside attempt isolation (a simulated scheduler bug); the run still drains and reports [`StreamError::Supervisor`] |
//!
//! ```
//! use seaice_stream::{source, StageOptions, StreamPolicy};
//! use std::sync::{Arc, Mutex};
//!
//! let sum = Arc::new(Mutex::new(0u64));
//! let sink_sum = Arc::clone(&sum);
//! let report = source(StreamPolicy::default(), "nums", 0u64..100)
//!     .transform("double", StageOptions::workers(2), |n| vec![n * 2])
//!     .sink("sum", StageOptions::workers(1), move |n| {
//!         *sink_sum.lock().unwrap_or_else(|e| e.into_inner()) += n;
//!     })
//!     .run(Arc::new(seaice_faults::FaultPlan::disabled()))
//!     .unwrap();
//! assert_eq!(*sum.lock().unwrap(), 9900);
//! assert_eq!(report.stages[1].items_out, 100);
//! ```
#![forbid(unsafe_code)]

pub mod channel;
pub mod pipeline;
pub mod report;

pub use channel::StageQueue;
pub use pipeline::{source, Pipeline, StageOptions, Stream, StreamError, StreamPolicy};
pub use report::{StageStats, StreamReport};

/// Fault-injection site checked once per attempt, keyed by
/// `faults::mix(stage_index, worker_index)` — killing a key simulates a
/// dead stage worker, the streaming analogue of mapreduce's dead
/// executor.
pub const FAULT_SITE_WORKER: &str = "stream.worker";

/// Fault-injection site checked once per received item *outside* the
/// per-attempt `catch_unwind`, keyed like [`FAULT_SITE_WORKER`]. Firing
/// it unwinds the worker thread itself — the simulated scheduler bug
/// behind the [`StreamError::Supervisor`] drain guarantee: the DAG
/// still drains (unwind guards complete the in-flight attempt,
/// deregister the worker, and close the stage output) and `run`
/// reports the crash instead of hanging.
pub const FAULT_SITE_SUPERVISOR: &str = "stream.supervisor";
