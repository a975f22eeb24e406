//! Virtual cluster topology and the worker threads that execute tasks.
//!
//! A [`ClusterSpec`] mirrors the paper's Dataproc layout: `executors`
//! nodes with `cores_per_executor` cores each (their Table II sweeps the
//! {1,2,4} × {1,2,4} grid). The [`Cluster`] owns one OS thread per slot —
//! on a large host those run truly in parallel; on a small host they
//! time-slice, which is why timing comes from the simulated clock rather
//! than wall time.
//!
//! Each executor has its own task queue shared by its cores, so the
//! driver can steer work *away* from an executor — the mechanism behind
//! per-executor failure accounting and blacklisting in
//! [`Cluster::run_tasks_ft`], the fault-tolerant entry point that retries
//! failed attempts, blacklists repeatedly failing executors, and
//! speculatively re-executes stragglers (Spark's task-retry +
//! speculative-execution model, which is where satellite pipelines get
//! their resilience at scale).

use seaice_exec::{attempt, Pool, Queue, Recv};
use seaice_faults::{mix, FaultPlan};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`ClusterSpec`] could not be built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// Requested executor count.
    pub executors: usize,
    /// Requested cores per executor.
    pub cores_per_executor: usize,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid cluster spec: {} executors x {} cores (both dimensions must be at least 1)",
            self.executors, self.cores_per_executor
        )
    }
}

impl std::error::Error for SpecError {}

/// Cluster topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of executor nodes.
    pub executors: usize,
    /// Cores per executor node.
    pub cores_per_executor: usize,
}

impl ClusterSpec {
    /// Creates a spec, rejecting empty dimensions with a descriptive
    /// error instead of panicking.
    ///
    /// # Errors
    /// [`SpecError`] if either dimension is zero.
    pub fn new(executors: usize, cores_per_executor: usize) -> Result<Self, SpecError> {
        if executors == 0 || cores_per_executor == 0 {
            return Err(SpecError {
                executors,
                cores_per_executor,
            });
        }
        Ok(Self {
            executors,
            cores_per_executor,
        })
    }

    /// Total task slots (executors × cores).
    pub fn total_slots(&self) -> usize {
        self.executors * self.cores_per_executor
    }

    /// Slot identifier `(executor, core)` for a flat slot index.
    pub fn slot(&self, index: usize) -> (usize, usize) {
        (
            index / self.cores_per_executor,
            index % self.cores_per_executor,
        )
    }
}

/// Retry / blacklist / speculation policy for a fault-tolerant job.
#[derive(Clone, Copy, Debug)]
pub struct RunPolicy {
    /// Total attempts allowed per task (first run + retries). Must be ≥ 1.
    pub max_attempts: u32,
    /// Failures on one executor before the driver stops scheduling to it.
    pub blacklist_after: u32,
    /// Straggler mitigation; `None` disables speculative re-execution.
    pub speculation: Option<SpeculationPolicy>,
}

/// When to launch a speculative duplicate of a still-running task.
#[derive(Clone, Copy, Debug)]
pub struct SpeculationPolicy {
    /// Duration quantile of *completed* tasks used as the baseline
    /// (Spark's `spark.speculation.quantile`).
    pub quantile: f64,
    /// A task is a straggler once it has run `multiplier ×` the baseline.
    pub multiplier: f64,
    /// Completed-task count required before the baseline is trusted.
    pub min_completed: usize,
}

impl Default for SpeculationPolicy {
    fn default() -> Self {
        Self {
            quantile: 0.75,
            multiplier: 4.0,
            min_completed: 3,
        }
    }
}

impl Default for RunPolicy {
    /// One attempt, no blacklisting, no speculation — byte-for-byte the
    /// semantics of the non-fault-tolerant path.
    fn default() -> Self {
        Self {
            max_attempts: 1,
            blacklist_after: u32::MAX,
            speculation: None,
        }
    }
}

impl RunPolicy {
    /// A production-shaped policy: 3 attempts per task, blacklist an
    /// executor after 2 failures, speculate on 4× stragglers.
    pub fn resilient() -> Self {
        Self {
            max_attempts: 3,
            blacklist_after: 2,
            speculation: Some(SpeculationPolicy::default()),
        }
    }
}

/// What a fault-tolerant job did to finish: every attempt is accounted
/// for so the simulated clock can charge retries and speculation.
#[derive(Clone, Debug, Default)]
pub struct FtReport {
    /// Distinct tasks in the job.
    pub tasks: usize,
    /// Attempts launched (= `tasks` when nothing failed or straggled).
    pub attempts: usize,
    /// Retry attempts launched after failures.
    pub retries: usize,
    /// Failed attempts observed (panics + injected transient errors).
    pub failures: usize,
    /// Speculative duplicates launched for stragglers.
    pub speculative: usize,
    /// Tasks whose speculative copy finished first.
    pub speculative_wins: usize,
    /// Executors blacklisted during the job.
    pub blacklisted: Vec<usize>,
    /// Failure count per executor.
    pub failures_per_executor: Vec<u32>,
    /// Measured compute seconds of **every** attempt — failed,
    /// speculative, and winning alike — which is what the cluster really
    /// burned; feed this to `CostModel::reduce_time` so Table II-style
    /// numbers charge the waste.
    pub attempt_costs: Vec<f64>,
}

/// Why a fault-tolerant job could not produce a full result set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// A task exhausted its attempt budget.
    TaskFailed {
        /// Input index of the failing task.
        task: usize,
        /// Attempts consumed.
        attempts: u32,
        /// The last failure's message.
        last_error: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::TaskFailed {
                task,
                attempts,
                last_error,
            } => write!(
                f,
                "task {task} failed after {attempts} attempts: {last_error}"
            ),
        }
    }
}

impl std::error::Error for JobError {}

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A running virtual cluster: one `seaice-exec` pool thread per slot.
/// Cores within an executor share that executor's queue; the driver
/// decides which executor each attempt lands on. Dropping the cluster
/// closes the queues, lets the slots drain them, and joins them.
pub struct Cluster {
    spec: ClusterSpec,
    queues: Arc<Vec<Queue<Task>>>,
    _slots: Pool,
}

/// One attempt's completion message back to the driver.
struct Completion<U> {
    task: usize,
    executor: usize,
    speculative: bool,
    outcome: Result<U, String>,
    secs: f64,
}

/// Driver-side bookkeeping for one task.
struct TaskState {
    done: bool,
    attempts_started: u32,
    last_error: String,
}

/// One attempt the driver has dispatched and not yet heard back from:
/// `(task, executor, started)`. The start stamp feeds straggler detection
/// and the cost of abandoned attempts.
type Running = (usize, usize, Instant);

/// Executors currently running an attempt of `task`.
fn executors_of(running: &[Running], task: usize) -> Vec<usize> {
    let of_task = running.iter().filter(|&&(t, _, _)| t == task);
    of_task.map(|&(_, executor, _)| executor).collect()
}

/// Books the attempt of `task` that ran on `executor` as finished. Keyed
/// by both: when a speculative twin finishes first, the straggler's own
/// entry — with its own, earlier start — is the one left to be charged.
fn finish_attempt(running: &mut Vec<Running>, task: usize, executor: usize) {
    let finished = |&(t, e, _): &Running| t == task && e == executor;
    if let Some(pos) = running.iter().position(finished) {
        running.swap_remove(pos);
    }
}

impl Cluster {
    /// Starts worker threads for every slot.
    pub fn start(spec: ClusterSpec) -> Self {
        let queues: Vec<Queue<Task>> = (0..spec.executors)
            .map(|_| Queue::new(usize::MAX))
            .collect();
        let queues = Arc::new(queues);
        let (inputs, closer) = (Arc::clone(&queues), Arc::clone(&queues));
        let slots = Pool::spawn(
            spec.total_slots(),
            |i| format!("executor-{}-core-{}", spec.slot(i).0, spec.slot(i).1),
            move || closer.iter().for_each(Queue::close),
            move |i| {
                let (executor, core) = spec.slot(i);
                // Tasks are self-contained closures that catch their own
                // panics and report through their completion channel, so
                // the worker loop never dies.
                while let Recv::Item(task) = inputs[executor].recv(core) {
                    (task.item)();
                    inputs[executor].complete();
                }
            },
        )
        // seaice-lint: allow(panic-in-library) reason="spawn fails only on OS thread exhaustion at cluster construction; there is no cluster to degrade to and crashing early is correct"
        .expect("failed to spawn executor thread");
        Self {
            spec,
            queues,
            _slots: slots,
        }
    }

    /// Queues one self-contained attempt on `executor`.
    fn run_on(&self, executor: usize, task: Task) {
        self.queues[executor]
            .try_push(task)
            .map_err(|(_, e)| e)
            // seaice-lint: allow(panic-in-library) reason="executor queues are unbounded and close only when the cluster drops, so a live cluster never refuses; a refusal means use-after-drop, a bug worth crashing on"
            .expect("executor queue closed");
    }

    /// The cluster's topology.
    pub fn spec(&self) -> ClusterSpec {
        self.spec
    }

    /// Runs `f` over every item on the cluster's slots, returning results
    /// in input order together with each task's measured compute seconds.
    ///
    /// This is the strict path: any task failure fails the whole job.
    ///
    /// # Panics
    /// Panics if a task panicked on an executor (the driver cannot build
    /// a complete result set).
    pub fn run_tasks<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<(U, f64)>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let f = Arc::new(f);
        let (done_tx, done_rx) = mpsc::channel::<Completion<U>>();
        for (i, item) in items.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let done = done_tx.clone();
            let executor = i % self.spec.executors;
            let task = move || {
                // seaice-lint: allow(wallclock-in-deterministic-path) reason="the measured attempt duration is itself the reported value (Completion.secs); it never orders results, which are keyed by task index"
                let t0 = Instant::now();
                let outcome = attempt(|| f(item));
                let _ = done.send(Completion {
                    task: i,
                    executor,
                    speculative: false,
                    outcome,
                    secs: t0.elapsed().as_secs_f64(),
                });
            };
            self.run_on(executor, Box::new(task));
        }
        drop(done_tx);
        let mut results: Vec<Option<(U, f64)>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            // seaice-lint: allow(panic-in-library) reason="every task sends exactly one Completion and the executors outlive the loop, so n receives always succeed; a closed channel means the workers themselves died"
            let c = done_rx.recv().expect("executor workers vanished");
            match c.outcome {
                Ok(v) => results[c.task] = Some((v, c.secs)),
                Err(msg) => {
                    // seaice-lint: allow(panic-in-library) reason="run_tasks is the fail-fast API: a panicked task must re-panic on the driver rather than return partial results; collect_ft is the fault-tolerant path"
                    panic!("a task panicked on an executor; job results are incomplete: {msg}")
                }
            }
        }
        results
            .into_iter()
            // seaice-lint: allow(panic-in-library) reason="the receive loop above stored one result per task index before reaching here, so every slot is Some; a None is a driver bug"
            .map(|s| s.expect("missing task result"))
            .collect()
    }

    /// Fault-tolerant execution: like [`run_tasks`](Cluster::run_tasks)
    /// but failed attempts are retried on other executors (up to
    /// `policy.max_attempts`), executors that keep failing are
    /// blacklisted, and stragglers past the policy's duration quantile
    /// get a speculative duplicate — first finisher wins, and every
    /// attempt's cost lands in the [`FtReport`] so the simulated clock
    /// stays honest.
    ///
    /// `faults` is the chaos hook; pass `FaultPlan::disabled()` in
    /// production. Injection sites:
    ///
    /// * `mapreduce.executor`, key = executor index — a down node (every
    ///   attempt scheduled there fails);
    /// * `mapreduce.task`, key = `mix(task, attempt)` — a single flaky or
    ///   straggling attempt.
    ///
    /// # Errors
    /// [`JobError::TaskFailed`] once any task exhausts its attempts.
    pub fn run_tasks_ft<T, U, F>(
        &self,
        items: Vec<T>,
        f: F,
        policy: RunPolicy,
        faults: Arc<FaultPlan>,
    ) -> Result<(Vec<(U, f64)>, FtReport), JobError>
    where
        T: Clone + Send + Sync + 'static,
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        let n = items.len();
        let mut report = FtReport {
            tasks: n,
            failures_per_executor: vec![0; self.spec.executors],
            ..FtReport::default()
        };
        if n == 0 {
            return Ok((Vec::new(), report));
        }
        let items = Arc::new(items);
        let f = Arc::new(f);
        let (done_tx, done_rx) = mpsc::channel::<Completion<U>>();

        // Observability: attempts land on a *simulated* timeline — a
        // ManualClock the driver advances by each completion's measured
        // seconds — so this crate emits spans without ever reading the
        // wall clock (the split seaice-obs's Clock abstraction exists
        // for). Counters are inert unless metrics were enabled.
        let sim_clock = Arc::new(seaice_obs::ManualClock::new());
        let trace = seaice_obs::trace::tracer_with_clock(
            Arc::clone(&sim_clock) as Arc<dyn seaice_obs::Clock>
        );
        let obs = seaice_obs::metrics();
        let ctr_attempts = obs.counter("mapreduce.attempts");
        let ctr_retries = obs.counter("mapreduce.retries");
        let ctr_failures = obs.counter("mapreduce.failures");
        let ctr_speculative = obs.counter("mapreduce.speculative");

        let mut tasks: Vec<TaskState> = (0..n)
            .map(|_| TaskState {
                done: false,
                attempts_started: 0,
                last_error: String::new(),
            })
            .collect();
        let mut results: Vec<Option<(U, f64)>> = (0..n).map(|_| None).collect();
        let mut inflight = vec![0usize; self.spec.executors];
        let mut blacklisted = vec![false; self.spec.executors];
        let mut running: Vec<Running> = Vec::new();
        // Completed durations, kept sorted for the quantile.
        let mut durations: Vec<f64> = Vec::new();
        let mut done_count = 0usize;

        let dispatch = |task: usize,
                        speculative: bool,
                        tasks: &mut Vec<TaskState>,
                        inflight: &mut Vec<usize>,
                        blacklisted: &[bool],
                        running: &mut Vec<Running>,
                        report: &mut FtReport| {
            let state = &mut tasks[task];
            let attempt_no = state.attempts_started;
            // Least-loaded executor, avoiding blacklisted nodes and
            // executors already running this task when possible.
            let executor = pick_executor(inflight, blacklisted, &executors_of(running, task));
            state.attempts_started += 1;
            inflight[executor] += 1;
            // seaice-lint: allow(wallclock-in-deterministic-path) reason="start stamps feed only the speculative-launch quantile and FtReport.attempt_costs, which are accounting outputs, never result ordering"
            running.push((task, executor, Instant::now()));
            report.attempts += 1;
            ctr_attempts.incr(1);
            if speculative {
                report.speculative += 1;
                ctr_speculative.incr(1);
            } else if attempt_no > 0 {
                report.retries += 1;
                ctr_retries.incr(1);
            }
            let f = Arc::clone(&f);
            let items = Arc::clone(&items);
            let faults = Arc::clone(&faults);
            let done = done_tx.clone();
            let run = move || {
                // seaice-lint: allow(wallclock-in-deterministic-path) reason="the measured attempt duration is itself the reported value (Completion.secs); results are keyed by task index"
                let t0 = Instant::now();
                let outcome = attempt(|| -> Result<U, String> {
                    faults
                        .maybe_fail("mapreduce.executor", executor as u64)
                        .map_err(|e| e.to_string())?;
                    faults
                        .maybe_fail("mapreduce.task", mix(task as u64, attempt_no as u64))
                        .map_err(|e| e.to_string())?;
                    Ok(f(items[task].clone()))
                });
                let _ = done.send(Completion {
                    task,
                    executor,
                    speculative,
                    outcome: outcome.and_then(|r| r),
                    secs: t0.elapsed().as_secs_f64(),
                });
            };
            self.run_on(executor, Box::new(run));
        };

        for task in 0..n {
            dispatch(
                task,
                false,
                &mut tasks,
                &mut inflight,
                &blacklisted,
                &mut running,
                &mut report,
            );
        }

        let tick = Duration::from_millis(2);
        while done_count < n {
            let completion = match done_rx.recv_timeout(tick) {
                Ok(c) => Some(c),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    // seaice-lint: allow(panic-in-library) reason="done_tx lives in this scope until the loop ends, so the channel cannot disconnect while receiving; this encodes that invariant"
                    unreachable!("driver holds a completion sender")
                }
            };
            if let Some(c) = completion {
                inflight[c.executor] -= 1;
                finish_attempt(&mut running, c.task, c.executor);
                report.attempt_costs.push(c.secs);
                if trace.is_enabled() {
                    // Charge the attempt to the simulated timeline: the
                    // clock advances by the attempt's measured compute
                    // seconds, and the complete event covers that window.
                    let dur_us = (c.secs * 1e6) as u64;
                    let end_us = sim_clock.advance_us(dur_us);
                    trace.complete_with_args(
                        "mapreduce.attempt",
                        "mapreduce",
                        end_us.saturating_sub(dur_us),
                        dur_us,
                        &[
                            ("task", &c.task.to_string()),
                            ("executor", &c.executor.to_string()),
                            ("speculative", if c.speculative { "true" } else { "false" }),
                            ("ok", if c.outcome.is_ok() { "true" } else { "false" }),
                        ],
                    );
                }
                match c.outcome {
                    Ok(v) => {
                        if !tasks[c.task].done {
                            tasks[c.task].done = true;
                            results[c.task] = Some((v, c.secs));
                            done_count += 1;
                            let at = durations.partition_point(|&d| d <= c.secs);
                            durations.insert(at, c.secs);
                            if c.speculative {
                                report.speculative_wins += 1;
                            }
                        }
                        // A late twin of an already-finished task is
                        // discarded; its cost was charged above.
                    }
                    Err(msg) => {
                        report.failures += 1;
                        ctr_failures.incr(1);
                        if trace.is_enabled() {
                            trace.instant(
                                "mapreduce.fault",
                                "mapreduce",
                                &[
                                    ("task", &c.task.to_string()),
                                    ("executor", &c.executor.to_string()),
                                    ("error", &msg),
                                ],
                            );
                        }
                        report.failures_per_executor[c.executor] += 1;
                        if report.failures_per_executor[c.executor] >= policy.blacklist_after
                            && !blacklisted[c.executor]
                        {
                            blacklisted[c.executor] = true;
                            report.blacklisted.push(c.executor);
                            trace.instant(
                                "mapreduce.blacklist",
                                "mapreduce",
                                &[("executor", &c.executor.to_string())],
                            );
                        }
                        let state = &mut tasks[c.task];
                        if !state.done {
                            state.last_error = msg;
                            if state.attempts_started < policy.max_attempts {
                                dispatch(
                                    c.task,
                                    false,
                                    &mut tasks,
                                    &mut inflight,
                                    &blacklisted,
                                    &mut running,
                                    &mut report,
                                );
                            } else if executors_of(&running, c.task).is_empty() {
                                // Budget spent and no twin still racing.
                                return Err(JobError::TaskFailed {
                                    task: c.task,
                                    attempts: state.attempts_started,
                                    last_error: state.last_error.clone(),
                                });
                            }
                        }
                    }
                }
            }
            // Straggler check: duplicate any task that has run far past
            // the observed duration quantile, while idle slots exist.
            if let Some(spec_policy) = policy.speculation {
                if durations.len() >= spec_policy.min_completed.max(1) {
                    let q_idx = ((durations.len() - 1) as f64 * spec_policy.quantile) as usize;
                    let threshold = (durations[q_idx] * spec_policy.multiplier).max(1e-3);
                    let busy: usize = inflight.iter().sum();
                    if busy < self.spec.total_slots() {
                        let stragglers: Vec<usize> = running
                            .iter()
                            .filter(|&&(t, _, started)| {
                                !tasks[t].done
                                    && executors_of(&running, t).len() == 1
                                    && started.elapsed().as_secs_f64() > threshold
                            })
                            .map(|&(t, _, _)| t)
                            .collect();
                        let mut free = self.spec.total_slots() - busy;
                        for t in stragglers {
                            if free == 0 {
                                break;
                            }
                            dispatch(
                                t,
                                true,
                                &mut tasks,
                                &mut inflight,
                                &blacklisted,
                                &mut running,
                                &mut report,
                            );
                            free -= 1;
                        }
                    }
                }
            }
        }
        // Attempts still in flight (losing speculative twins) would be
        // killed by a real scheduler the moment their task finished;
        // charge each the time it ran before abandonment.
        for (_, _, started) in &running {
            report.attempt_costs.push(started.elapsed().as_secs_f64());
        }
        Ok((
            results
                .into_iter()
                // seaice-lint: allow(panic-in-library) reason="the retry loop only exits once done_count == n with every slot filled, so every slot is Some; a None is a driver bug"
                .map(|s| s.expect("missing task result"))
                .collect(),
            report,
        ))
    }
}

/// Least-loaded executor, preferring non-blacklisted executors not
/// already running this task. Falls back progressively so a job can
/// always make progress even with every executor blacklisted.
fn pick_executor(inflight: &[usize], blacklisted: &[bool], running_on: &[usize]) -> usize {
    let choose = |allow: &dyn Fn(usize) -> bool| -> Option<usize> {
        (0..inflight.len())
            .filter(|&e| allow(e))
            .min_by_key(|&e| inflight[e])
    };
    choose(&|e| !blacklisted[e] && !running_on.contains(&e))
        .or_else(|| choose(&|e| !blacklisted[e]))
        .or_else(|| choose(&|e| !running_on.contains(&e)))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaice_faults::FaultAction;

    fn spec(e: usize, c: usize) -> ClusterSpec {
        ClusterSpec::new(e, c).unwrap()
    }

    #[test]
    fn spec_slots() {
        let s = spec(4, 4);
        assert_eq!(s.total_slots(), 16);
        assert_eq!(s.slot(0), (0, 0));
        assert_eq!(s.slot(5), (1, 1));
        assert_eq!(s.slot(15), (3, 3));
    }

    #[test]
    fn zero_spec_is_a_descriptive_error() {
        let e = ClusterSpec::new(0, 4).unwrap_err();
        assert!(e.to_string().contains("0 executors x 4 cores"), "{e}");
        assert!(ClusterSpec::new(4, 0).is_err());
        assert!(ClusterSpec::new(0, 0).is_err());
    }

    #[test]
    fn a_winning_twin_leaves_the_stragglers_own_start_to_be_charged() {
        let early = Instant::now();
        let late = early + Duration::from_secs(5);
        // Task 5 straggles on executor 0; its speculative twin starts
        // later on executor 1 and finishes first.
        let mut running = vec![(5, 0, early), (6, 1, early), (5, 1, late)];
        finish_attempt(&mut running, 5, 1);
        assert_eq!(
            running,
            [(5, 0, early), (6, 1, early)],
            "the abandoned straggler is charged from its own start"
        );
        // A completion nobody is waiting for books nothing.
        finish_attempt(&mut running, 5, 1);
        assert_eq!(running.len(), 2);
    }

    #[test]
    fn run_tasks_preserves_order() {
        let cluster = Cluster::start(spec(2, 2));
        let out = cluster.run_tasks((0..50).collect(), |x: i64| x * 3);
        let values: Vec<i64> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, (0..50).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_tasks_measures_nonnegative_costs() {
        let cluster = Cluster::start(spec(1, 2));
        let out = cluster.run_tasks(vec![1u8, 2, 3], |x| x);
        assert!(out.iter().all(|(_, secs)| *secs >= 0.0));
    }

    #[test]
    fn empty_input_is_fine() {
        let cluster = Cluster::start(spec(1, 1));
        let out: Vec<(u8, f64)> = cluster.run_tasks(Vec::<u8>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn executors_survive_panicking_tasks() {
        let cluster = Cluster::start(spec(1, 2));
        let poisoned = attempt(|| {
            cluster.run_tasks(vec![0u8, 1, 2], |x| {
                if x == 1 {
                    panic!("injected failure");
                }
                x
            })
        });
        assert!(poisoned.is_err(), "driver must fail loudly");
        // The same cluster still executes follow-up jobs.
        let ok = cluster.run_tasks(vec![5u8, 6], |x| x * 2);
        assert_eq!(ok.iter().map(|(v, _)| *v).collect::<Vec<_>>(), vec![10, 12]);
    }

    #[test]
    fn workers_are_named_after_slots() {
        let cluster = Cluster::start(spec(2, 1));
        let out = cluster.run_tasks(vec![(); 8], |_| {
            std::thread::current().name().unwrap_or("?").to_string()
        });
        for (name, _) in &out {
            assert!(name.starts_with("executor-"), "bad worker name {name}");
        }
    }

    #[test]
    fn ft_without_faults_matches_strict_path() {
        let cluster = Cluster::start(spec(2, 2));
        let (out, report) = cluster
            .run_tasks_ft(
                (0..40).collect(),
                |x: i64| x + 1,
                RunPolicy::default(),
                Arc::new(FaultPlan::disabled()),
            )
            .unwrap();
        let values: Vec<i64> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, (1..=40).collect::<Vec<_>>());
        assert_eq!(report.tasks, 40);
        assert_eq!(report.attempts, 40);
        assert_eq!(report.retries, 0);
        assert_eq!(report.failures, 0);
        assert_eq!(report.speculative, 0);
        assert!(report.blacklisted.is_empty());
        assert_eq!(report.attempt_costs.len(), 40);
    }

    #[test]
    fn injected_task_failures_are_retried_to_success() {
        let cluster = Cluster::start(spec(2, 2));
        // Tasks 3 and 7 fail on their first attempt only. Retries only:
        // straggler speculation would add wall-clock-dependent attempts.
        let plan = FaultPlan::seeded(1).fail_keys(
            "mapreduce.task",
            &[mix(3, 0), mix(7, 0)],
            FaultAction::Error,
        );
        let policy = RunPolicy {
            speculation: None,
            ..RunPolicy::resilient()
        };
        let (out, report) = cluster
            .run_tasks_ft((0..10).collect(), |x: i64| x * 2, policy, Arc::new(plan))
            .unwrap();
        let values: Vec<i64> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, (0..10).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(report.failures, 2);
        assert_eq!(report.retries, 2);
        assert_eq!(report.speculative, 0);
        assert_eq!(report.attempts, 12);
        assert_eq!(report.attempt_costs.len(), 12);
    }

    #[test]
    fn down_executor_is_blacklisted_and_job_completes() {
        let cluster = Cluster::start(spec(2, 1));
        // Executor 1 is down: every attempt scheduled there panics.
        let plan = FaultPlan::seeded(2).fail_keys("mapreduce.executor", &[1], FaultAction::Panic);
        let (out, report) = cluster
            .run_tasks_ft(
                (0..16).collect(),
                |x: i64| x,
                RunPolicy {
                    max_attempts: 4,
                    blacklist_after: 2,
                    speculation: None,
                },
                Arc::new(plan),
            )
            .unwrap();
        assert_eq!(
            out.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            (0..16).collect::<Vec<_>>()
        );
        assert_eq!(report.blacklisted, vec![1]);
        assert!(report.failures >= 2);
        assert!(report.failures_per_executor[1] >= 2);
        assert_eq!(report.failures_per_executor[0], 0);
    }

    #[test]
    fn exhausted_attempts_fail_the_job_descriptively() {
        let cluster = Cluster::start(spec(1, 2));
        // Task 2 fails on every attempt.
        let plan = FaultPlan::seeded(3).fail_keys(
            "mapreduce.task",
            &[mix(2, 0), mix(2, 1)],
            FaultAction::Panic,
        );
        let err = cluster
            .run_tasks_ft(
                (0..4).collect(),
                |x: i64| x,
                RunPolicy {
                    max_attempts: 2,
                    blacklist_after: u32::MAX,
                    speculation: None,
                },
                Arc::new(plan),
            )
            .unwrap_err();
        match err {
            JobError::TaskFailed { task, attempts, .. } => {
                assert_eq!(task, 2);
                assert_eq!(attempts, 2);
            }
        }
    }

    #[test]
    fn ft_jobs_emit_sim_clock_trace_events_and_counters() {
        seaice_obs::trace::enable();
        let m = seaice_obs::enable_metrics();
        let before = m.counter("mapreduce.attempts").get();
        let cluster = Cluster::start(spec(2, 2));
        // Task 1's first attempt fails so the fault path is exercised.
        let plan =
            FaultPlan::seeded(9).fail_keys("mapreduce.task", &[mix(1, 0)], FaultAction::Error);
        let (_, report) = cluster
            .run_tasks_ft(
                (0..6).collect(),
                |x: i64| x,
                RunPolicy::resilient(),
                Arc::new(plan),
            )
            .unwrap();
        assert!(report.failures >= 1);
        assert!(m.counter("mapreduce.attempts").get() >= before + report.attempts as u64);
        assert!(m.counter("mapreduce.failures").get() >= 1);
        let json = seaice_obs::trace::export_chrome_json();
        assert!(json.contains("\"name\": \"mapreduce.attempt\""), "{json}");
        assert!(json.contains("\"name\": \"mapreduce.fault\""), "{json}");
        // The whole trace (shared sink) stays Chrome-loadable.
        seaice_obs::trace::validate_chrome_trace(&json).expect("valid chrome trace");
    }

    #[test]
    fn straggler_gets_a_speculative_twin_and_job_finishes_early() {
        let cluster = Cluster::start(spec(2, 2));
        // Task 5's first attempt sleeps 400 ms; everything else is
        // instant, so the quantile threshold trips quickly and a twin
        // (attempt 1, un-delayed) wins.
        let plan = FaultPlan::seeded(4).fail_keys(
            "mapreduce.task",
            &[mix(5, 0)],
            FaultAction::Delay(Duration::from_millis(400)),
        );
        let t0 = Instant::now();
        let (out, report) = cluster
            .run_tasks_ft(
                (0..12).collect(),
                |x: i64| x + 100,
                RunPolicy {
                    max_attempts: 2,
                    blacklist_after: u32::MAX,
                    speculation: Some(SpeculationPolicy {
                        quantile: 0.75,
                        multiplier: 2.0,
                        min_completed: 3,
                    }),
                },
                Arc::new(plan),
            )
            .unwrap();
        assert_eq!(
            out.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            (100..112).collect::<Vec<_>>()
        );
        assert!(report.speculative >= 1, "straggler must spawn a twin");
        assert!(report.speculative_wins >= 1, "the twin must win");
        assert!(
            t0.elapsed() < Duration::from_millis(390),
            "speculation must beat the 400 ms straggler"
        );
        // Both the straggler and its twin are charged.
        assert_eq!(report.attempt_costs.len(), report.attempts);
    }
}
