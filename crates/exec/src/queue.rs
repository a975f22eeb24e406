//! The bounded MPMC queue every worker pool in the workspace pulls from:
//! one `Mutex<VecDeque>` and two `Condvar`s (`not_empty` wakes consumers,
//! `not_full` wakes blocked producers; no busy-waiting).
//!
//! Producers choose between *shedding* ([`Queue::try_push`] fails fast
//! when full — the serving front door) and *backpressure*
//! ([`Queue::push_wait`] / [`Queue::send`] block until space — batch
//! producers and DAG stages); failed attempts come back through
//! [`Queue::push_retry`] with an avoid-this-worker hint. Consumers take
//! one item at a time ([`Queue::recv`], in flight until
//! [`Queue::complete`]) or a micro-batch ([`Queue::pop_batch`]).
//! `usize::MAX` capacity is the unbounded case.
//!
//! Shutdown is a drain, not a drop: [`Queue::close`] stops admissions of
//! fresh items at once, but consumers keep receiving what was accepted —
//! and keep *waiting* while any attempt is in flight, because a failing
//! attempt may re-queue its item — and see [`Recv::Done`] / `None` only
//! when the queue is closed, empty, and nothing is in flight.

use seaice_obs::lock;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The `Condvar` companion of [`lock`]: a wait reacquires the mutex, so
/// it recovers from the same poison on the same grounds.
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Why an enqueue was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueError {
    /// The queue is at capacity; the item was shed, not queued.
    Overloaded,
    /// The queue is closed, or every consumer has exited.
    Closed,
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::Overloaded => write!(f, "queue full: request shed"),
            QueueError::Closed => write!(f, "queue closed: no new admissions"),
        }
    }
}

impl std::error::Error for QueueError {}

/// One unit of work as a [`Queue::recv`] consumer sees it.
#[derive(Debug)]
pub struct Envelope<T> {
    /// Zero-based attempt number (0 = fresh).
    pub attempt: u32,
    /// Worker index that last failed this item; `recv` skips it while
    /// other consumers are active.
    pub avoid: Option<usize>,
    /// The payload.
    pub item: T,
}

/// What a worker gets back from [`Queue::recv`].
#[derive(Debug)]
pub enum Recv<T> {
    /// An item to process, in flight until [`Queue::complete`].
    Item(Envelope<T>),
    /// Closed, empty, nothing in flight: the worker should exit.
    Done,
}

struct State<T> {
    items: VecDeque<Envelope<T>>,
    /// No more *fresh* items are admitted (retries still are).
    closed: bool,
    /// Items handed out by `recv` but not yet `complete`d.
    inflight: usize,
    /// Registered consumers still pulling.
    consumers: usize,
    /// Fresh items accepted (excludes retries).
    received: u64,
    /// Deepest the queue has been.
    high_water: usize,
    /// Blocking pushes that had to wait for capacity at least once.
    backpressure_waits: u64,
}

impl<T> State<T> {
    fn drained(&self) -> bool {
        self.closed && self.items.is_empty() && self.inflight == 0
    }
}

/// A bounded MPMC queue with load-shedding, backpressure, retry and
/// micro-batch pops.
pub struct Queue<T> {
    state: Mutex<State<T>>,
    /// Item available / closed / in-flight drained / consumer retired.
    not_empty: Condvar,
    /// Capacity freed / closed / last consumer gone.
    not_full: Condvar,
    capacity: usize,
}

impl<T> Queue<T> {
    /// A queue admitting at most `capacity` fresh items (min 1), with
    /// one registered consumer until [`set_workers`](Queue::set_workers)
    /// says otherwise.
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                inflight: 0,
                consumers: 1,
                received: 0,
                high_water: 0,
                backpressure_waits: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        lock(&self.state).items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Declares how many consumers will pull from this queue, before
    /// they start.
    pub fn set_workers(&self, n: usize) {
        lock(&self.state).consumers = n.max(1);
    }

    /// Queues a fresh item. It carries no avoid hint, so whichever
    /// consumer wakes can take it: waking one is enough.
    fn enqueue(&self, mut st: MutexGuard<'_, State<T>>, item: T) {
        st.received += 1;
        st.items.push_back(Envelope {
            attempt: 0,
            avoid: None,
            item,
        });
        st.high_water = st.high_water.max(st.items.len());
        drop(st);
        self.not_empty.notify_one();
    }

    /// Non-blocking enqueue. The item is handed back in the error so the
    /// caller can answer for it.
    ///
    /// # Errors
    /// `(item, Overloaded)` when full (the item is shed), `(item,
    /// Closed)` after [`close`](Queue::close).
    pub fn try_push(&self, item: T) -> Result<(), (T, QueueError)> {
        let st = lock(&self.state);
        if st.closed {
            return Err((item, QueueError::Closed));
        }
        if st.items.len() >= self.capacity {
            return Err((item, QueueError::Overloaded));
        }
        self.enqueue(st, item);
        Ok(())
    }

    /// Blocking enqueue: waits for space instead of shedding (this wait
    /// *is* the backpressure).
    ///
    /// # Errors
    /// `(item, Closed)` if the queue is or becomes closed — or if every
    /// consumer has exited: after a normal drain no pushes can follow, so
    /// that only happens when the consuming side died outside attempt
    /// isolation, and the producer must be able to finish so the run can
    /// drain and report the crash rather than deadlock on a queue nobody
    /// will ever serve.
    pub fn push_wait(&self, item: T) -> Result<(), (T, QueueError)> {
        let full =
            |st: &State<T>| !st.closed && st.consumers > 0 && st.items.len() >= self.capacity;
        let mut st = lock(&self.state);
        if full(&st) {
            // Counted before the first wait, so a test polling the
            // counter has a race-free "producer is blocked" signal.
            st.backpressure_waits += 1;
            while full(&st) {
                st = wait(&self.not_full, st);
            }
        }
        if st.closed || st.consumers == 0 {
            return Err((item, QueueError::Closed));
        }
        self.enqueue(st, item);
        Ok(())
    }

    /// [`push_wait`](Queue::push_wait) for producers with nobody to
    /// report a refusal to (a DAG stage feeding the next): a refused item
    /// is discarded.
    pub fn send(&self, item: T) {
        let _ = self.push_wait(item);
    }

    /// Re-queues a failed item at the front, past the capacity bound and
    /// the closed flag — a retrying worker must never block on its own
    /// input queue, or a full pipeline would deadlock.
    pub fn push_retry(&self, env: Envelope<T>) {
        let mut st = lock(&self.state);
        st.items.push_front(env);
        st.high_water = st.high_water.max(st.items.len());
        drop(st);
        // All, not one: the consumer the hint names cannot take it.
        self.not_empty.notify_all();
    }

    /// Blocking receive for `worker`. Skips envelopes whose `avoid` hint
    /// names this worker while other consumers are still active (an
    /// avoided item is taken anyway when no one else is left to take it).
    pub fn recv(&self, worker: usize) -> Recv<T> {
        let mut st = lock(&self.state);
        loop {
            let takeable = st
                .items
                .iter()
                .position(|e| e.avoid != Some(worker) || st.consumers <= 1);
            if let Some(env) = takeable.and_then(|i| st.items.remove(i)) {
                st.inflight += 1;
                drop(st);
                self.not_full.notify_all();
                return Recv::Item(env);
            }
            if st.drained() {
                return Recv::Done;
            }
            st = wait(&self.not_empty, st);
        }
    }

    /// Marks one in-flight attempt finished (success, retry re-queued,
    /// or exhausted). Call [`push_retry`](Queue::push_retry) *before*
    /// this so the drain condition never observes an empty queue with
    /// the retry still in limbo.
    pub fn complete(&self) {
        let mut st = lock(&self.state);
        st.inflight = st.inflight.saturating_sub(1);
        // Consumers wait for an item or for the drain; an attempt ending
        // can only bring about the drain.
        if st.drained() {
            self.not_empty.notify_all();
        }
    }

    /// Pops a micro-batch: blocks for the first item, then lingers up to
    /// `linger` for more until `max_batch` items have coalesced. Batch
    /// items are not counted in flight and avoid hints are ignored.
    /// `None` only when the queue is drained — the consumer's exit signal.
    ///
    /// # Panics
    /// Panics if `max_batch == 0`.
    pub fn pop_batch(&self, max_batch: usize, linger: Duration) -> Option<Vec<T>> {
        assert!(max_batch > 0, "batch size must be positive");
        let mut st = lock(&self.state);
        while st.items.is_empty() {
            if st.drained() {
                return None;
            }
            st = wait(&self.not_empty, st);
        }
        let mut batch = Vec::with_capacity(max_batch.min(st.items.len()));
        // seaice-lint: allow(wallclock-in-deterministic-path) reason="the linger deadline is a real-time batching dial: it decides how many already-accepted items share one batch, never which items are delivered or in what order; deterministic callers pass Duration::ZERO or use recv"
        let started = Instant::now();
        // Coalesce: drain what is already here, then linger for late
        // arrivals until the deadline.
        while batch.len() < max_batch {
            if let Some(env) = st.items.pop_front() {
                batch.push(env.item);
                continue;
            }
            let left = linger.saturating_sub(started.elapsed());
            if st.closed || left.is_zero() {
                break;
            }
            let timed = self.not_empty.wait_timeout(st, left);
            st = timed.unwrap_or_else(PoisonError::into_inner).0;
        }
        let drained = st.drained();
        drop(st);
        // A batch frees several slots at once: wake every producer.
        self.not_full.notify_all();
        // The rule `complete` follows: a batch that drains the queue must
        // wake the consumers parked in `recv` — one that skipped an avoided
        // retry this batch just took would otherwise wait forever for `Done`.
        if drained {
            self.not_empty.notify_all();
        }
        Some(batch)
    }

    /// Closes admissions of fresh items. Queued items remain receivable
    /// (drain); blocked producers and idle consumers wake up.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// A blacklisted consumer asks to stop pulling. Granted only while
    /// another consumer stays active — the last one keeps serving the
    /// queue no matter how unlucky it has been, so it always drains.
    pub fn try_retire(&self) -> bool {
        let mut st = lock(&self.state);
        let granted = st.consumers > 1;
        if granted {
            st.consumers -= 1;
        }
        drop(st);
        self.not_empty.notify_all();
        granted
    }

    /// A consumer that stopped pulling deregisters — after
    /// [`Recv::Done`] in the normal case, or from its [`Consumer`] guard
    /// if its thread unwound. When the last one leaves, blocked
    /// producers are woken too so they can observe the dead stage.
    pub fn worker_exit(&self) {
        let mut st = lock(&self.state);
        st.consumers = st.consumers.saturating_sub(1);
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// (fresh items accepted, queue high-water mark, blocking pushes
    /// that had to wait).
    pub fn stats(&self) -> (u64, usize, u64) {
        let st = lock(&self.state);
        (st.received, st.high_water, st.backpressure_waits)
    }
}

/// One worker's registration on its input queue, as an unwind-safe exit
/// guard: what *must* happen when the worker stops pulling, even if its
/// thread panics outside [`attempt`](crate::attempt) isolation. On drop
/// it completes a still-in-flight attempt so the queue's drain condition
/// can fire, and deregisters the worker so the last one out releases
/// blocked producers.
pub struct Consumer<T> {
    queue: Arc<Queue<T>>,
    worker: usize,
    /// An attempt was handed out by `recv` and not yet `complete`d.
    inflight: bool,
    /// The worker already deregistered via `try_retire`.
    retired: bool,
}

impl<T> Consumer<T> {
    /// Guards `worker`'s pulls from `queue` (which must already count
    /// it: see [`Queue::set_workers`]).
    pub fn new(queue: Arc<Queue<T>>, worker: usize) -> Self {
        Self {
            queue,
            worker,
            inflight: false,
            retired: false,
        }
    }

    /// [`Queue::recv`] for this worker.
    pub fn recv(&mut self) -> Recv<T> {
        let got = self.queue.recv(self.worker);
        self.inflight = matches!(got, Recv::Item(_));
        got
    }

    /// [`Queue::complete`] for the attempt `recv` handed out.
    pub fn complete(&mut self) {
        if std::mem::take(&mut self.inflight) {
            self.queue.complete();
        }
    }

    /// Re-queues the attempt `recv` handed out — [`Queue::push_retry`]
    /// *then* [`Queue::complete`], the order the drain rule needs.
    pub fn retry(&mut self, env: Envelope<T>) {
        self.queue.push_retry(env);
        self.complete();
    }

    /// [`Queue::try_retire`]; once granted, the worker must stop pulling.
    pub fn try_retire(&mut self) -> bool {
        self.retired = self.retired || self.queue.try_retire();
        self.retired
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.complete();
        if !self.retired {
            self.queue.worker_exit();
        }
    }
}

#[cfg(test)]
mod tests {
    //! The blocking behaviours. Everything a single thread can observe is
    //! checked against a model in `tests/queue_model.rs`; the unwinding
    //! [`Consumer`] by `seaice-stream`'s supervisor-fault tests.
    use super::*;
    use std::thread;

    #[test]
    fn pop_batch_lingers_for_late_arrivals() {
        let q = Arc::new(Queue::new(16));
        q.send(0u32);
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || {
            // An empty queue means the consumer already holds the head
            // of its batch: this item can only arrive by lingering.
            while !q2.is_empty() {
                thread::yield_now();
            }
            q2.send(1);
        });
        let batch = q.pop_batch(2, Duration::from_secs(30));
        producer.join().unwrap();
        assert_eq!(batch, Some(vec![0, 1]));
    }

    #[test]
    fn push_wait_blocks_at_capacity_counts_backpressure_and_wakes_on_close() {
        let q = Arc::new(Queue::new(2));
        q.send(0u32);
        q.send(1);
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || (q2.push_wait(2), q2.push_wait(3)));
        while q.stats().2 == 0 {
            thread::yield_now();
        }
        // The producer is blocked on 2; receiving frees a slot and wakes
        // it. It then blocks on 3, and closing wakes it with a refusal.
        assert!(matches!(q.recv(0), Recv::Item(_)));
        q.complete();
        while q.stats().2 == 1 {
            thread::yield_now();
        }
        q.close();
        let refused = Err((3, QueueError::Closed));
        assert_eq!(producer.join().unwrap(), (Ok(()), refused));
        q.send(4); // refused too: discarded, not queued
        let (received, high_water, waits) = q.stats();
        assert_eq!((received, high_water, waits), (3, 2, 2));
    }
}
