//! The typed stage builder and the scheduler that runs it.
//!
//! A pipeline is declared front-to-back — [`source`] produces the first
//! typed handle, [`Pipeline::transform`] chains flat-map stages, and
//! [`Pipeline::sink`] seals the chain into a runnable [`Stream`] — and
//! executed back-to-front by pull: every stage runs `workers` threads
//! that block on the stage's bounded input queue, so the whole DAG is
//! driven by sink demand plus channel capacity.
//!
//! Queues, worker threads and attempt isolation are `seaice-exec`'s; the
//! policy on top of them lives here. Fault tolerance mirrors
//! `seaice-mapreduce::run_tasks_ft`: attempts are isolated with
//! `seaice_exec::attempt`, failed items re-queue with an
//! avoid-this-worker hint until `max_attempts`, and workers that fail
//! `blacklist_after` times retire unless they are the stage's last —
//! the scheduler always drains, and a run only errors after the drain,
//! reporting every exhausted item.

use crate::channel::{Envelope, Recv, StageQueue};
use crate::report::{StageStats, StreamReport};
use seaice_exec::{attempt, lock, Consumer, Pool};
use seaice_faults::{mix, FaultPlan};
use seaice_obs::trace::Tracer;
use seaice_obs::{Clock, Counter, ManualClock};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Scheduler-wide knobs, the streaming analogue of mapreduce's
/// `RunPolicy`.
#[derive(Clone, Copy, Debug)]
pub struct StreamPolicy {
    /// Attempts per item before it counts as exhausted (1 = no retry).
    pub max_attempts: u32,
    /// Failures after which a worker retires (`u32::MAX` = never).
    pub blacklist_after: u32,
    /// Bound on every stage-boundary queue; the backpressure depth.
    pub channel_capacity: usize,
}

impl Default for StreamPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            blacklist_after: u32::MAX,
            channel_capacity: 8,
        }
    }
}

impl StreamPolicy {
    /// The chaos-ready policy: retry twice, retire a worker after two
    /// failures — mapreduce's `RunPolicy::resilient` carried over.
    pub fn resilient() -> Self {
        Self {
            max_attempts: 3,
            blacklist_after: 2,
            channel_capacity: 8,
        }
    }
}

/// Per-stage declaration: worker count and simulated per-item cost.
#[derive(Clone, Copy, Debug)]
pub struct StageOptions {
    /// Worker threads for the stage (min 1).
    pub workers: usize,
    /// Simulated seconds charged per attempt (drives the `ManualClock`
    /// timeline and the report's sim totals).
    pub cost_secs: f64,
}

impl StageOptions {
    /// `n` workers, zero simulated cost.
    pub fn workers(n: usize) -> Self {
        Self {
            workers: n.max(1),
            cost_secs: 0.0,
        }
    }

    /// Sets the simulated per-item cost.
    pub fn with_cost_secs(mut self, secs: f64) -> Self {
        self.cost_secs = secs.max(0.0);
        self
    }
}

/// An item that ran out of attempts; the run reports these after the
/// drain completes.
#[derive(Clone, Debug)]
pub struct ExhaustedItem {
    /// Stage the item died in.
    pub stage: String,
    /// Attempts consumed.
    pub attempts: u32,
    /// Last failure message (panic payload or injected error).
    pub error: String,
}

/// Why a run failed. The DAG always drains first, so the report inside
/// is complete either way.
#[derive(Debug)]
pub enum StreamError {
    /// One or more items exhausted `max_attempts`.
    Exhausted {
        /// Every item that ran out of attempts.
        items: Vec<ExhaustedItem>,
        /// Full accounting for the drained run.
        report: StreamReport,
    },
    /// A scheduler thread itself crashed outside attempt isolation — a
    /// bug in this crate, not in a stage function.
    Supervisor {
        /// Worker threads whose join reported a panic.
        panics: usize,
        /// Whatever accounting survived.
        report: StreamReport,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Exhausted { items, .. } => {
                let first = items.first();
                write!(
                    f,
                    "{} item(s) exhausted their attempts (first: stage {}, {})",
                    items.len(),
                    first.map_or("?", |i| i.stage.as_str()),
                    first.map_or_else(|| "?".to_string(), |i| i.error.clone()),
                )
            }
            Self::Supervisor { panics, .. } => {
                write!(f, "{panics} scheduler thread(s) crashed")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// End-of-run [`StageQueue::stats`] of a stage's input, type-erased.
type Probe = Box<dyn Fn() -> (u64, usize, u64) + Send>;

/// Everything the worker threads share for one run.
struct RunShared {
    policy: StreamPolicy,
    faults: Arc<FaultPlan>,
    names: Vec<String>,
    costs: Vec<f64>,
    clock: Arc<ManualClock>,
    tracer: Tracer,
    ctr_attempts: Counter,
    ctr_retries: Counter,
    ctr_failures: Counter,
    stats: Vec<Mutex<StageStats>>,
    exhausted: Mutex<Vec<ExhaustedItem>>,
}

/// Feeds the first stage from the source iterator.
type Source = Box<dyn FnOnce(&RunShared) + Send>;

/// Starts one stage's workers; the pool's `close` closes the stage's
/// input queue.
type Spawner = Box<dyn FnOnce(Arc<RunShared>) -> Pool + Send>;

/// A pipeline under construction whose tail emits `T`.
pub struct Pipeline<T> {
    stream: Stream,
    tail: Arc<StageQueue<T>>,
}

/// Starts a pipeline from anything iterable. The source runs on the
/// thread that calls [`Stream::run`] and is the only stage without
/// attempt isolation: an iterator cannot be replayed, so a panic inside
/// it ends the stream early (downstream still drains what was emitted).
pub fn source<T, I>(policy: StreamPolicy, name: &str, iter: I) -> Pipeline<T>
where
    T: Send + 'static,
    I: IntoIterator<Item = T>,
    I::IntoIter: Send + 'static,
{
    let tail = Arc::new(StageQueue::new(policy.channel_capacity));
    let (out, iter) = (Arc::clone(&tail), iter.into_iter());
    let stream = Stream {
        policy,
        names: vec![name.to_string()],
        workers: vec![1],
        costs: vec![0.0],
        source: Box::new(move |shared| run_source(shared, 0, iter, &out)),
        spawners: Vec::new(),
        probes: vec![None],
    };
    Pipeline { stream, tail }
}

impl<T: Send + 'static> Pipeline<T> {
    /// Simulated per-item cost charged to the source stage.
    pub fn with_source_cost(mut self, secs: f64) -> Self {
        self.stream.costs[0] = secs.max(0.0);
        self
    }

    /// Appends a flat-map stage: each input item yields zero or more
    /// outputs. `T: Clone` because a failed attempt must be able to
    /// retry the same item on another worker.
    pub fn transform<U, F>(self, name: &str, opts: StageOptions, f: F) -> Pipeline<U>
    where
        T: Clone,
        U: Send + 'static,
        F: Fn(T) -> Vec<U> + Send + Sync + 'static,
    {
        let tail = Arc::new(StageQueue::new(self.stream.policy.channel_capacity));
        let stream = self.stage(name, opts, Some(Arc::clone(&tail)), f);
        Pipeline { stream, tail }
    }

    /// Seals the chain with a consuming stage and returns the runnable
    /// [`Stream`].
    pub fn sink<F>(self, name: &str, opts: StageOptions, f: F) -> Stream
    where
        T: Clone,
        F: Fn(T) + Send + Sync + 'static,
    {
        let f = move |item: T| {
            f(item);
            Vec::new()
        };
        self.stage(name, opts, None::<Arc<StageQueue<()>>>, f)
    }

    /// Declares the stage that consumes this pipeline's tail.
    fn stage<U, F>(
        self,
        name: &str,
        opts: StageOptions,
        output: Option<Arc<StageQueue<U>>>,
        f: F,
    ) -> Stream
    where
        T: Clone,
        U: Send + 'static,
        F: Fn(T) -> Vec<U> + Send + Sync + 'static,
    {
        let Pipeline {
            mut stream,
            tail: input,
        } = self;
        let (stage, workers) = (stream.names.len(), opts.workers.max(1));
        input.set_workers(workers);
        stream.names.push(name.to_string());
        stream.workers.push(workers);
        stream.costs.push(opts.cost_secs.max(0.0));
        let probed = Arc::clone(&input);
        stream.probes.push(Some(Box::new(move || probed.stats())));
        stream
            .spawners
            .push(Box::new(move |shared: Arc<RunShared>| {
                let closer = Arc::clone(&input);
                let body = move |w| {
                    let input = Consumer::new(Arc::clone(&input), w);
                    run_stage(&shared, stage, w, input, output.as_deref(), &f);
                };
                Pool::spawn(
                    workers,
                    |w| format!("stream-{stage}-{w}"),
                    move || closer.close(),
                    body,
                )
                // seaice-lint: allow(panic-in-library) reason="spawn fails only on OS thread exhaustion while the DAG starts; the stages already running are closed and joined as the panic unwinds, and there is no smaller DAG to degrade to"
                .expect("failed to spawn stage worker")
            }));
        stream
    }
}

/// A fully declared pipeline, ready to run.
pub struct Stream {
    policy: StreamPolicy,
    names: Vec<String>,
    workers: Vec<usize>,
    costs: Vec<f64>,
    source: Source,
    spawners: Vec<Spawner>,
    probes: Vec<Option<Probe>>,
}

impl Stream {
    /// Spawns every stage, drains the DAG to completion, and returns the
    /// per-stage accounting. Errors only after the drain: `Exhausted`
    /// when items ran out of attempts, `Supervisor` if a scheduler
    /// thread itself crashed.
    ///
    /// # Errors
    /// [`StreamError::Exhausted`] / [`StreamError::Supervisor`]; both
    /// carry the full [`StreamReport`].
    pub fn run(self, faults: Arc<FaultPlan>) -> Result<StreamReport, StreamError> {
        let obs = seaice_obs::metrics();
        let clock = Arc::new(ManualClock::new());
        let tracer = seaice_obs::trace::tracer_with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let stats = self
            .names
            .iter()
            .zip(&self.workers)
            .map(|(n, &w)| {
                Mutex::new(StageStats {
                    name: n.clone(),
                    workers: w,
                    ..StageStats::default()
                })
            })
            .collect();
        let shared = Arc::new(RunShared {
            policy: self.policy,
            faults,
            names: self.names,
            costs: self.costs,
            clock,
            tracer,
            ctr_attempts: obs.counter("stream.attempts"),
            ctr_retries: obs.counter("stream.retries"),
            ctr_failures: obs.counter("stream.failures"),
            stats,
            exhausted: Mutex::new(Vec::new()),
        });

        let mut pools: Vec<Pool> = self
            .spawners
            .into_iter()
            .map(|s| s(Arc::clone(&shared)))
            .collect();
        // The source feeds the first stage from this thread, behind the
        // same backpressure as any stage.
        (self.source)(&shared);
        // Stages finish front to back. Once whatever feeds a stage is
        // done — the source, or every worker of the stage before it,
        // returned *or* unwound — `join` closes its input, so it drains
        // and finishes too. A crashed stage therefore cannot wedge the DAG.
        let mut panics = 0usize;
        for pool in &mut pools {
            panics += pool.join();
        }

        let mut stages: Vec<StageStats> = shared.stats.iter().map(|m| lock(m).clone()).collect();
        let mut backpressure_total = 0u64;
        for (i, probe) in self.probes.iter().enumerate() {
            if let Some(p) = probe {
                let (_received, high_water, waits) = p();
                stages[i].queue_high_water = high_water;
                stages[i].backpressure_waits = waits;
                backpressure_total += waits;
            }
        }
        obs.counter("stream.backpressure").incr(backpressure_total);
        let sim_total_secs: f64 = stages.iter().map(|s| s.sim_busy_secs).sum();
        let sim_makespan_secs = stages
            .iter()
            .map(|s| s.sim_busy_secs / s.workers.max(1) as f64)
            .fold(0.0_f64, f64::max);
        // Park the simulated timeline at the bottleneck makespan so the
        // exported trace ends where the model says the pipeline would.
        shared.clock.advance_to_us((sim_makespan_secs * 1e6) as u64);
        let report = StreamReport {
            stages,
            sim_total_secs,
            sim_makespan_secs,
        };

        if panics > 0 {
            return Err(StreamError::Supervisor { panics, report });
        }
        let items = std::mem::take(&mut *lock(&shared.exhausted));
        if items.is_empty() {
            Ok(report)
        } else {
            Err(StreamError::Exhausted { items, report })
        }
    }
}

fn run_source<T>(
    shared: &RunShared,
    stage: usize,
    iter: impl Iterator<Item = T>,
    out: &StageQueue<T>,
) {
    let outcome = attempt(|| {
        let mut count = 0u64;
        for item in iter {
            out.send(item);
            charge(shared, stage, 0, 0, true);
            count += 1;
        }
        count
    });
    match outcome {
        Ok(count) => {
            lock(&shared.stats[stage]).items_out = count;
        }
        Err(error) => {
            lock(&shared.stats[stage]).failures += 1;
            lock(&shared.exhausted).push(ExhaustedItem {
                stage: shared.names[stage].clone(),
                attempts: 1,
                error,
            });
        }
    }
}

/// One stage worker. `input` is its unwind-safe exit guard: if this
/// thread panics outside attempt isolation (a scheduler bug, or an
/// injected [`crate::FAULT_SITE_SUPERVISOR`] fault) the guard still
/// completes the in-flight attempt and deregisters the worker, so the
/// stage's input drains (or discards, once no worker is left) and
/// [`Stream::run`] reports [`StreamError::Supervisor`] instead of
/// hanging on `join()`.
fn run_stage<T: Clone, U>(
    shared: &RunShared,
    stage: usize,
    worker: usize,
    mut input: Consumer<T>,
    output: Option<&StageQueue<U>>,
    f: &impl Fn(T) -> Vec<U>,
) {
    let site_key = mix(stage as u64, worker as u64);
    let mut my_failures = 0u32;
    while let Recv::Item(env) = input.recv() {
        // The supervisor fault site sits *outside* attempt isolation:
        // firing it kills this worker thread the way a scheduler bug
        // would, which is what the Supervisor drain tests exercise.
        shared
            .faults
            .maybe_panic(crate::FAULT_SITE_SUPERVISOR, site_key);
        let outcome = attempt(|| -> Result<Vec<U>, String> {
            shared
                .faults
                .maybe_fail(crate::FAULT_SITE_WORKER, site_key)
                .map_err(|e| e.to_string())?;
            Ok(f(env.item.clone()))
        })
        .and_then(|r| r);
        charge(shared, stage, worker, env.attempt, outcome.is_ok());
        match outcome {
            Ok(outs) => {
                let emitted = outs.len() as u64;
                if let Some(out) = output {
                    for o in outs {
                        out.send(o);
                    }
                }
                let mut st = lock(&shared.stats[stage]);
                if env.attempt == 0 {
                    st.items_in += 1;
                }
                st.items_out += emitted;
                drop(st);
                input.complete();
            }
            Err(error) => {
                my_failures += 1;
                let retry = env.attempt + 1 < shared.policy.max_attempts;
                {
                    let mut st = lock(&shared.stats[stage]);
                    st.failures += 1;
                    if env.attempt == 0 {
                        st.items_in += 1;
                    }
                    if retry {
                        st.retries += 1;
                    } else {
                        st.exhausted += 1;
                    }
                }
                shared.ctr_failures.incr(1);
                if retry {
                    shared.ctr_retries.incr(1);
                    input.retry(Envelope {
                        attempt: env.attempt + 1,
                        avoid: Some(worker),
                        item: env.item,
                    });
                } else {
                    lock(&shared.exhausted).push(ExhaustedItem {
                        stage: shared.names[stage].clone(),
                        attempts: env.attempt + 1,
                        error,
                    });
                    input.complete();
                }
                if my_failures >= shared.policy.blacklist_after && input.try_retire() {
                    lock(&shared.stats[stage]).blacklisted += 1;
                    if shared.tracer.is_enabled() {
                        shared.tracer.instant(
                            "stream.blacklist",
                            "stream",
                            &[
                                ("stage", shared.names[stage].as_str()),
                                ("worker", &worker.to_string()),
                            ],
                        );
                    }
                    break;
                }
            }
        }
    }
}

/// Books one attempt: stats, counters, and — when tracing — a complete
/// event charged to the simulated clock, mirroring mapreduce's
/// per-attempt instrumentation.
fn charge(shared: &RunShared, stage: usize, worker: usize, attempt: u32, ok: bool) {
    let cost_secs = shared.costs[stage];
    {
        let mut st = lock(&shared.stats[stage]);
        st.attempts += 1;
        st.sim_busy_secs += cost_secs;
    }
    shared.ctr_attempts.incr(1);
    if shared.tracer.is_enabled() {
        let dur_us = (cost_secs * 1e6) as u64;
        let end_us = shared.clock.advance_us(dur_us);
        shared.tracer.complete_with_args(
            "stream.attempt",
            "stream",
            end_us.saturating_sub(dur_us),
            dur_us,
            &[
                ("stage", shared.names[stage].as_str()),
                ("worker", &worker.to_string()),
                ("attempt", &attempt.to_string()),
                ("ok", if ok { "true" } else { "false" }),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaice_faults::FaultAction;
    use std::thread;
    use std::time::Duration;

    fn sum_sink() -> (Arc<Mutex<u64>>, impl Fn(u64) + Send + Sync + 'static) {
        let sum = Arc::new(Mutex::new(0u64));
        let s = Arc::clone(&sum);
        (sum, move |n: u64| {
            *lock(&s) += n;
        })
    }

    #[test]
    fn pipeline_passes_every_item_through() {
        let (sum, sink) = sum_sink();
        let report = source(StreamPolicy::default(), "nums", 0u64..50)
            .transform("triple", StageOptions::workers(3), |n| vec![n * 3])
            .sink("sum", StageOptions::workers(2), sink)
            .run(Arc::new(FaultPlan::disabled()))
            .expect("clean run");
        assert_eq!(*lock(&sum), (0..50u64).map(|n| n * 3).sum::<u64>());
        assert_eq!(report.stages[0].items_out, 50);
        assert_eq!(report.stages[1].items_in, 50);
        assert_eq!(report.stages[1].items_out, 50);
        assert_eq!(report.stages[2].items_in, 50);
        assert_eq!(report.total_failures(), 0);
    }

    #[test]
    fn flat_map_fans_out_and_filters() {
        let (sum, sink) = sum_sink();
        let report = source(StreamPolicy::default(), "nums", 0u64..10)
            .transform("evens-twice", StageOptions::workers(2), |n| {
                if n % 2 == 0 {
                    vec![n, n]
                } else {
                    vec![]
                }
            })
            .sink("sum", StageOptions::workers(1), sink)
            .run(Arc::new(FaultPlan::disabled()))
            .expect("clean run");
        assert_eq!(*lock(&sum), 2 * (2 + 4 + 6 + 8));
        assert_eq!(report.stages[1].items_out, 10);
    }

    #[test]
    fn injected_worker_fault_retries_elsewhere_and_blacklists() {
        // Kill stage 1 (the transform), worker 0: every attempt it runs
        // fails; retries carry an avoid hint so worker 1 picks them up,
        // and after two failures worker 0 retires.
        let faults = Arc::new(FaultPlan::seeded(7).fail_keys(
            crate::FAULT_SITE_WORKER,
            &[mix(1, 0)],
            FaultAction::Error,
        ));
        let (sum, sink) = sum_sink();
        let report = source(StreamPolicy::resilient(), "nums", 0u64..40)
            .transform("id", StageOptions::workers(2), |n| {
                // A small dwell so neither worker can solo-drain the
                // queue before the other has received anything.
                thread::sleep(Duration::from_micros(100));
                vec![n]
            })
            .sink("sum", StageOptions::workers(1), sink)
            .run(Arc::clone(&faults))
            .expect("recovered run");
        assert_eq!(*lock(&sum), (0..40u64).sum::<u64>());
        assert!(report.stages[1].retries >= 1, "{report:?}");
        assert_eq!(report.stages[1].blacklisted, 1);
        assert!(faults.injections_fired() >= 1);
        // Every item still made it through exactly once.
        assert_eq!(report.stages[1].items_out, 40);
    }

    #[test]
    fn last_worker_keeps_draining_even_when_fault_injected() {
        // A stage whose only worker dies persistently cannot recover —
        // but it must still *drain*: attempt isolation catches every
        // panic, items exhaust their attempts, and the run reports them
        // instead of hanging.
        let faults = Arc::new(FaultPlan::seeded(3).fail_keys(
            crate::FAULT_SITE_WORKER,
            &[mix(1, 0)],
            FaultAction::Panic,
        ));
        let (sum, sink) = sum_sink();
        let err = source(
            StreamPolicy {
                max_attempts: 2,
                blacklist_after: u32::MAX,
                channel_capacity: 4,
            },
            "nums",
            0u64..6,
        )
        .transform("id", StageOptions::workers(1), |n| vec![n])
        .sink("sum", StageOptions::workers(1), sink)
        .run(faults)
        .expect_err("single dead worker must exhaust items, not hang");
        let StreamError::Exhausted { items, report } = err else {
            panic!("expected Exhausted");
        };
        assert_eq!(items.len(), 6);
        assert_eq!(report.stages[1].exhausted, 6);
        assert_eq!(*lock(&sum), 0);
    }

    #[test]
    fn supervisor_panic_drains_and_reports_instead_of_hanging() {
        // Kill both transform workers at the *supervisor* site: the
        // panic unwinds the worker threads outside attempt isolation,
        // past every inline cleanup. The unwind guards must still
        // complete the in-flight attempts, deregister the workers, and
        // close the downstream queue — so the source finishes (its
        // sends to the dead stage are discarded), the sink drains, and
        // run() returns Supervisor rather than hanging on join().
        let faults = Arc::new(FaultPlan::seeded(5).fail_keys(
            crate::FAULT_SITE_SUPERVISOR,
            &[mix(1, 0), mix(1, 1)],
            FaultAction::Panic,
        ));
        let (sum, sink) = sum_sink();
        let err = source(
            StreamPolicy {
                channel_capacity: 4,
                ..StreamPolicy::default()
            },
            "nums",
            0u64..20,
        )
        .transform("id", StageOptions::workers(2), |n| vec![n])
        .sink("sum", StageOptions::workers(1), sink)
        .run(faults)
        .expect_err("crashed workers must surface as Supervisor");
        let StreamError::Supervisor { panics, report } = err else {
            panic!("expected Supervisor");
        };
        assert_eq!(panics, 2);
        assert_eq!(*lock(&sum), 0, "no item survived the dead stage");
        assert_eq!(report.stages.len(), 3);
    }

    #[test]
    fn backpressure_blocks_a_fast_source() {
        let (sum, sink) = sum_sink();
        let report = source(
            StreamPolicy {
                channel_capacity: 2,
                ..StreamPolicy::default()
            },
            "burst",
            0u64..64,
        )
        .sink("slow", StageOptions::workers(1), move |n| {
            thread::sleep(Duration::from_micros(200));
            sink(n);
        })
        .run(Arc::new(FaultPlan::disabled()))
        .expect("clean run");
        assert_eq!(*lock(&sum), (0..64u64).sum::<u64>());
        assert!(report.stages[1].backpressure_waits >= 1, "{report:?}");
        assert!(report.stages[1].queue_high_water <= 2);
    }

    #[test]
    fn sim_costs_accumulate_per_attempt() {
        let (_, sink) = sum_sink();
        let report = source(StreamPolicy::default(), "nums", 0u64..10)
            .transform(
                "costly",
                StageOptions::workers(2).with_cost_secs(0.5),
                |n| vec![n],
            )
            .sink("sum", StageOptions::workers(1), sink)
            .run(Arc::new(FaultPlan::disabled()))
            .expect("clean run");
        assert!((report.stages[1].sim_busy_secs - 5.0).abs() < 1e-9);
        assert!((report.sim_makespan_secs - 2.5).abs() < 1e-9);
        assert!(report.render().contains("costly"));
    }
}
