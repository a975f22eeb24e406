//! Named worker threads with a supervised lifetime, and panic-isolated
//! attempts.

use std::any::Any;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{Builder, JoinHandle};

/// `n` named threads running one body. Joining or dropping the pool
/// closes its work source first — graceful shutdown is the only shutdown,
/// so no worker is ever left parked on a queue nobody closes.
pub struct Pool {
    threads: Vec<JoinHandle<()>>,
    close: Box<dyn Fn() + Send + Sync>,
}

impl Pool {
    /// Spawns thread `i` in `0..n` as `name(i)` running `body(i)`.
    /// `close` must make every body return once the work already
    /// accepted is done (typically `Queue::close` on the pool's input).
    ///
    /// # Errors
    /// The OS refused a thread. The threads already spawned are closed
    /// and joined before the error is returned.
    pub fn spawn(
        n: usize,
        name: impl Fn(usize) -> String,
        close: impl Fn() + Send + Sync + 'static,
        body: impl Fn(usize) + Send + Sync + 'static,
    ) -> io::Result<Self> {
        let body = Arc::new(body);
        // Built up in place so that an early return (or a panic in
        // `name`) drops — closes and joins — the partial pool.
        let mut pool = Self {
            threads: Vec::with_capacity(n),
            close: Box::new(close),
        };
        for i in 0..n {
            let body = Arc::clone(&body);
            let thread = Builder::new().name(name(i)).spawn(move || body(i))?;
            pool.threads.push(thread);
        }
        Ok(pool)
    }

    /// Runs the `close` given at spawn, joins every thread, and returns
    /// how many of them panicked. Idempotent.
    pub fn join(&mut self) -> usize {
        (self.close)();
        let joined = self.threads.drain(..).map(JoinHandle::join);
        joined.filter(Result::is_err).count()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.join();
    }
}

/// Runs `f` isolated from the caller: a panic inside it is caught and
/// comes back as `Err(message)` instead of unwinding the worker thread.
pub fn attempt<U>(f: impl FnOnce() -> U) -> Result<U, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Queue, Recv};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_failed_spawn_tears_down_the_threads_already_running() {
        // Workers park on a queue only the pool can close, and count
        // themselves out. Thread 2 cannot be created: its name panics,
        // standing in for an OS refusal — both leave `spawn` with a
        // partial pool.
        let (queue, out) = (Arc::new(Queue::<()>::new(1)), Arc::new(AtomicUsize::new(0)));
        let (input, closer, exited) = (Arc::clone(&queue), Arc::clone(&queue), Arc::clone(&out));
        let name = |i| {
            assert!(i < 2, "no thread for worker {i}");
            format!("doomed-{i}")
        };
        let body = move |i| {
            assert!(matches!(input.recv(i), Recv::Done));
            exited.fetch_add(1, Ordering::SeqCst);
        };
        let outcome = attempt(|| Pool::spawn(4, name, move || closer.close(), body).map(|_| ()));
        assert_eq!(outcome.unwrap_err(), "no thread for worker 2");
        assert_eq!(out.load(Ordering::SeqCst), 2, "0 and 1 were joined");
    }

    #[test]
    fn join_counts_panicked_threads() {
        let dies = |i| assert!(i != 1, "worker 1 dies");
        let mut pool = Pool::spawn(3, |i| format!("p-{i}"), || {}, dies).unwrap();
        assert_eq!(pool.join(), 1);
        assert_eq!(pool.join(), 0, "idempotent");
    }

    #[test]
    fn attempt_renders_str_and_string_panics() {
        assert_eq!(attempt(|| 5), Ok(5));
        assert_eq!(attempt(|| panic!("plain")), Err::<(), _>("plain".into()));
        let n = 3;
        assert_eq!(attempt(|| panic!("n={n}")), Err::<(), _>("n=3".into()));
    }
}
