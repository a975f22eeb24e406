//! # seaice-exec
//!
//! The workspace's one execution substrate. The paper's workflow is "N
//! workers pull independent tiles off a queue" four times over — the
//! multiprocessing pool (Table I), the Spark executors (Table II), the
//! serve replicas and the streaming DAG — and all four run on:
//!
//! * [`Queue`] — the bounded MPMC queue (shed or block on push, retry
//!   with an avoid-this-worker hint, drain-then-done on close), with
//!   [`Consumer`] as a worker's unwind-safe exit guard over it;
//! * [`Pool`] — N named threads running one body, closed then joined on
//!   drop (also when spawning thread *k* fails);
//! * [`attempt`] — `catch_unwind` around one unit of work, and the
//!   poison-recovering [`lock`] the whole workspace shares.
//!
//! The other grain — rows of a tile, tiles of a scene, split evenly over
//! the cores for the length of one call — is [`par`].
//!
//! Mechanism only. Retry budgets, blacklisting thresholds, executor
//! choice, speculation, replica rebuilds, fault sites and simulated-cost
//! accounting are policy and stay with the callers.
#![forbid(unsafe_code)]

pub mod par;
mod pool;
mod queue;

pub use pool::{attempt, Pool};
pub use queue::{Consumer, Envelope, Queue, QueueError, Recv};
pub use seaice_obs::lock;
