//! The admission queue is `seaice-exec`'s one bounded MPMC queue under
//! its serving name: the front door sheds (`try_push` fails fast with
//! [`QueueError::Overloaded`]), batch jobs get backpressure (`push_wait`),
//! the replicas pop micro-batches (`pop_batch`), and closing it stops
//! admissions while they drain what was accepted — graceful shutdown.

pub use seaice_exec::{Queue as BoundedQueue, QueueError};
