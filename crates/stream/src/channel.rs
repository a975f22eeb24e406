//! The channels between DAG stages are `seaice-exec`'s one bounded MPMC
//! queue under its streaming name. A [`StageQueue`] is the single
//! synchronization point of one stage boundary: upstream workers `send`
//! into it (blocking while it is full — that block *is* the
//! backpressure), the downstream stage's workers `recv` from it, failed
//! attempts come back through `push_retry` with an *avoid-this-worker*
//! hint, and workers see [`Recv::Done`] only when the upstream is closed,
//! the queue is empty, and nothing is in flight.

pub use seaice_exec::{Envelope, Queue as StageQueue, Recv};
