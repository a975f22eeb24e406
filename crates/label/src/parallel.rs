//! A fixed worker pool — the Rust analog of the Python `multiprocessing`
//! pool the paper uses for its single-machine scaling experiment
//! (Table I / Fig. 10).
//!
//! A thin façade over `seaice-exec`: `n` [`Pool`] threads fed by one
//! unbounded [`Queue`] of jobs; each submitted job is an independent
//! closure (the auto-label task for one image). Results carry their
//! submission index so `map` preserves input order, like `Pool.map`.

use seaice_exec::{attempt, Pool, Queue, Recv};
use std::sync::{mpsc, Arc};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size worker pool with FIFO job dispatch. Dropping it closes
/// the job queue, lets the workers drain it, and joins them.
pub struct WorkerPool {
    jobs: Arc<Queue<Job>>,
    /// Held for its drop, which closes `jobs` and joins the workers.
    _workers: Pool,
}

impl WorkerPool {
    /// Spawns `n` workers.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "worker pool needs at least one worker");
        let jobs = Arc::new(Queue::<Job>::new(usize::MAX));
        let (input, closer) = (Arc::clone(&jobs), Arc::clone(&jobs));
        let workers = Pool::spawn(
            n,
            |i| format!("seaice-worker-{i}"),
            move || closer.close(),
            move |i| {
                // A panicking job must not kill the worker — remaining
                // queued jobs would never run and `map` callers would
                // hang; the panic is surfaced to the caller through the
                // missing result instead.
                while let Recv::Item(job) = input.recv(i) {
                    let _ = attempt(job.item);
                    input.complete();
                }
            },
        )
        // seaice-lint: allow(panic-in-library) reason="spawn fails only on OS thread exhaustion at pool construction; there is no pool to degrade to and crashing early is correct"
        .expect("failed to spawn worker thread");
        Self {
            jobs,
            _workers: workers,
        }
    }

    /// Submits one fire-and-forget job.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.jobs
            .try_push(Box::new(job))
            .map_err(|(_, e)| e)
            // seaice-lint: allow(panic-in-library) reason="the queue is unbounded and closes only when the pool drops, so a live pool never refuses; a refusal means use-after-drop, a bug worth crashing on"
            .expect("worker queue closed");
    }

    /// Applies `f` to every item on the pool and returns results in input
    /// order (the `Pool.map` equivalent). Blocks until all results arrive.
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
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
        let (tx, rx) = mpsc::channel::<(usize, U)>();
        for (i, item) in items.into_iter().enumerate() {
            let f = f.clone();
            let tx = tx.clone();
            self.submit(move || {
                let out = f(item);
                // The receiver lives until all results arrive; a send can
                // only fail if the caller panicked, in which case the
                // worker result is moot.
                let _ = tx.send((i, out));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            // A closed channel before all n results means some job
            // panicked (its sender was dropped during unwinding); fail
            // loudly rather than returning partial results.
            let (i, out) = rx
                .recv()
                // seaice-lint: allow(panic-in-library) reason="the comment above documents the fail-loudly contract: a closed channel means a job panicked and partial results must not be returned"
                .expect("a worker job panicked; result set is incomplete");
            slots[i] = Some(out);
        }
        slots
            .into_iter()
            // seaice-lint: allow(panic-in-library) reason="the loop above received exactly one result per index, so every slot is Some; a None is a pool bug, not a runtime condition"
            .map(|s| s.expect("missing result slot"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn map_preserves_order() {
        let pool = WorkerPool::new(4);
        let out = pool.map((0..100).collect(), |x: i32| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn map_empty_input() {
        let pool = WorkerPool::new(2);
        let out: Vec<i32> = pool.map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn all_workers_participate() {
        // With enough slow jobs, more than one worker thread must run them.
        let pool = WorkerPool::new(4);
        let names = Arc::new(Mutex::new(HashSet::new()));
        let names2 = names.clone();
        let _ = pool.map((0..64).collect::<Vec<i32>>(), move |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            names2
                .lock()
                .unwrap()
                .insert(std::thread::current().name().unwrap_or("?").to_string());
        });
        assert!(names.lock().unwrap().len() > 1, "work never spread");
    }

    #[test]
    fn submit_runs_jobs() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let c = counter.clone();
            pool.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // join workers
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn pool_survives_panicking_jobs() {
        // A job that panics must not take the worker down: later jobs
        // still execute on the same pool.
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..6 {
            let done = done.clone();
            pool.submit(move || {
                if i == 2 {
                    panic!("injected failure");
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Healthy jobs all run despite the poisoned one.
        let healthy = pool.map((0..8).collect::<Vec<i32>>(), |x| x + 1);
        assert_eq!(healthy.len(), 8);
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn map_fails_loudly_when_a_job_panics() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map((0..4).collect::<Vec<i32>>(), |x| {
                if x == 1 {
                    panic!("injected");
                }
                x
            })
        }));
        assert!(result.is_err(), "map must not return partial results");
        // The pool itself remains usable afterwards.
        let ok = pool.map(vec![10, 20], |x| x * 2);
        assert_eq!(ok, vec![20, 40]);
    }
}
