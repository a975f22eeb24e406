//! `seaice-obs` — the workspace's unified observability layer.
//!
//! Two instruments, both built on the same rule — *off by default,
//! byte-for-byte invisible when off* — and the persistence spine under
//! every saved artifact:
//!
//! * [`registry`]: a process-wide metrics registry of named counters,
//!   gauges, and [`latency`] log-spaced histograms. Handles from a
//!   disabled [`Recorder`] are inert (`Option::None` inside — no atomics,
//!   no locks), so the engine-vs-sequential and chaos byte-identity
//!   guarantees hold unchanged. [`Recorder::render_prometheus`] serves
//!   the registry as Prometheus text exposition (the serve front door
//!   mounts it at `GET /metrics`).
//! * [`trace`]: structured spans with parent linkage and thread ids,
//!   buffered process-wide and exported as Chrome `trace_event` JSON.
//!   Timestamps come from a [`Clock`]: serve/bench use the shared
//!   [`WallClock`], mapreduce/distrib charge spans to a [`ManualClock`]
//!   advanced by their simulated time — so deterministic crates still
//!   never read the wall clock, and `seaice-lint`'s
//!   `wallclock-in-deterministic-path` rule keeps its teeth.
//! * [`durable`]: crash-consistent persistence — checksummed atomic
//!   file writes with seeded IO fault injection — which every durable
//!   artifact in the workspace routes through (DESIGN.md §4.8).
//! * [`json`]: the workspace's one JSON reader/writer, under every
//!   persisted format's codec (DESIGN.md §4.8).
//!
//! Enablement is process-global and one-way: call [`enable_metrics`] /
//! [`trace::enable`] at startup (the CLI does this behind `--metrics`-
//! style flags), *before* constructing the components to observe —
//! instruments are grabbed once at construction and stay inert if
//! created earlier.
#![forbid(unsafe_code)]

pub mod durable;
pub mod json;
pub mod latency;
pub mod registry;
pub mod trace;

pub use durable::{DurableCtx, DurableError, RetryPolicy};
pub use registry::{Counter, Gauge, Histogram, Recorder};
pub use trace::{Clock, ManualClock, SpanGuard, Tracer, WallClock};

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks `m`, recovering the guard if a previous holder panicked — the
/// workspace's one poison-recovering lock (`seaice-exec` re-exports it).
///
/// Supervised workers panic on purpose (`catch_unwind`, then the process
/// lives on), so `lock().unwrap()` would turn one supervised panic into
/// an unsupervised crash of every other thread on the mutex. Recovery is
/// sound wherever a critical section leaves the state valid at every
/// point a panic can originate: queues mutate through single `push`/`pop`
/// calls, registry, cache and histogram updates go field by field with
/// no intermediate invariant, counters are plain integers.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

static METRICS: OnceLock<Recorder> = OnceLock::new();

/// Turns the process-wide metrics registry on (idempotent) and returns
/// it. Components constructed after this call record into it.
pub fn enable_metrics() -> Recorder {
    METRICS.get_or_init(Recorder::enabled).clone()
}

/// The process-wide recorder: the enabled registry if [`enable_metrics`]
/// has run, otherwise the inert [`Recorder::disabled`].
pub fn metrics() -> Recorder {
    METRICS.get().cloned().unwrap_or_default()
}

/// The process-wide wall-clocked tracer (inert until [`trace::enable`]).
pub fn tracer() -> Tracer {
    trace::tracer()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recovers_after_a_panicked_holder() {
        let m = Mutex::new(7u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7);
    }

    #[test]
    fn global_metrics_flip_from_inert_to_shared() {
        // Note: enable_metrics is process-global, so this test covers
        // both sides by ordering within one test body.
        let before = metrics();
        let enabled = enable_metrics();
        assert!(enabled.is_enabled());
        enabled.counter("lib.test.counter").incr(3);
        assert_eq!(metrics().counter("lib.test.counter").get(), 3);
        // A handle grabbed before enablement stays inert: enablement is
        // "before construction", by design.
        if !before.is_enabled() {
            before.counter("lib.test.counter").incr(100);
            assert_eq!(metrics().counter("lib.test.counter").get(), 3);
        }
    }
}
