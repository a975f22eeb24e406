//! The queue against a plain `VecDeque` model on random single-thread
//! op sequences, and exactly-once delivery under real concurrency.

use proptest::prelude::*;
use seaice_exec::{Envelope, Queue, QueueError, Recv};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

const CAPACITY: usize = 3;

/// What the queue should hold: (id, attempt, avoid) front to back.
#[derive(Default)]
struct Model {
    items: VecDeque<(u32, u32, Option<usize>)>,
    inflight: Vec<Envelope<u32>>,
    closed: bool,
    consumers: usize,
    accepted: u64,
    high_water: usize,
}

impl Model {
    fn drained(&self) -> bool {
        self.closed && self.items.is_empty() && self.inflight.is_empty()
    }

    /// Index of the first item `worker` may take: hints hold until the
    /// worker is the last consumer.
    fn takeable(&self, worker: usize) -> Option<usize> {
        let last = self.consumers <= 1;
        self.items
            .iter()
            .position(|&(_, _, a)| a != Some(worker) || last)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Covers, on every sequence: fresh pushes shed exactly past capacity
    /// and are refused once closed; FIFO; retries go to the front past
    /// both bounds; avoid hints steer `recv` until the worker is the
    /// last one, which cannot retire; `pop_batch` coalesces in order up
    /// to its max; `Done` / `None` exactly when closed ∧ empty ∧ nothing
    /// in flight.
    #[test]
    fn queue_matches_a_vecdeque_model(
        ops in proptest::collection::vec((0u8..7, 0usize..4), 0..80),
    ) {
        let q = Queue::new(CAPACITY);
        q.set_workers(2);
        let mut m = Model { consumers: 2, ..Model::default() };
        let mut next_id = 0u32;
        for (op, arg) in ops {
            let worker = arg % 2;
            match op {
                0 => {
                    let want = if m.closed {
                        Err((next_id, QueueError::Closed))
                    } else if m.items.len() >= CAPACITY {
                        Err((next_id, QueueError::Overloaded))
                    } else {
                        m.items.push_back((next_id, 0, None));
                        m.accepted += 1;
                        Ok(())
                    };
                    prop_assert_eq!(q.try_push(next_id), want);
                    next_id += 1;
                }
                1 => if let Some(env) = m.inflight.pop() {
                    let avoid = (arg < 2).then_some(arg);
                    m.items.push_front((env.item, env.attempt + 1, avoid));
                    q.push_retry(Envelope { attempt: env.attempt + 1, avoid, item: env.item });
                    q.complete();
                },
                // recv blocks unless something is takeable or the queue
                // is drained; a single thread may only call it then.
                2 => if let Some(i) = m.takeable(worker) {
                    let want = m.items.remove(i);
                    match q.recv(worker) {
                        Recv::Item(env) => {
                            prop_assert_eq!(Some((env.item, env.attempt, env.avoid)), want);
                            m.inflight.push(env);
                        }
                        Recv::Done => prop_assert!(false, "Done with {:?} takeable", want),
                    }
                } else if m.drained() {
                    prop_assert!(matches!(q.recv(worker), Recv::Done));
                },
                3 => if m.inflight.pop().is_some() {
                    q.complete();
                },
                4 => if !m.items.is_empty() || m.drained() {
                    let n = (arg + 1).min(m.items.len());
                    let want: Vec<u32> = m.items.drain(..n).map(|(id, _, _)| id).collect();
                    let got = q.pop_batch(arg + 1, Duration::ZERO);
                    prop_assert_eq!(got, (!want.is_empty()).then_some(want));
                },
                5 => {
                    let granted = m.consumers > 1;
                    m.consumers -= usize::from(granted);
                    prop_assert_eq!(q.try_retire(), granted);
                }
                _ => {
                    m.closed = true;
                    q.close();
                }
            }
            m.high_water = m.high_water.max(m.items.len());
            prop_assert_eq!(q.len(), m.items.len());
            prop_assert_eq!(q.stats(), (m.accepted, m.high_water, 0));
        }
    }
}

#[test]
fn four_producers_three_consumers_deliver_exactly_once_across_a_close() {
    let q = Arc::new(Queue::new(4));
    q.set_workers(3);
    // Each producer pushes until the queue refuses — so the close below
    // is mid-stream by construction — and reports how many of its items
    // were accepted.
    let producers: Vec<_> = (0..4u64)
        .map(|p| {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                (0u64..)
                    .take_while(|i| q.push_wait(p << 32 | i).is_ok())
                    .count() as u64
            })
        })
        .collect();
    // Two one-at-a-time consumers, which fail every third item once and
    // send it back with a hint, and one micro-batching consumer.
    let consumers: Vec<_> = (0..3usize)
        .map(|w| {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut seen = Vec::new();
                if w == 2 {
                    while let Some(batch) = q.pop_batch(3, Duration::from_millis(1)) {
                        seen.extend(batch);
                    }
                }
                // (For the batcher the queue is drained by now: `Done`.)
                while let Recv::Item(env) = q.recv(w) {
                    if env.attempt == 0 && env.item % 3 == 0 {
                        q.push_retry(Envelope {
                            attempt: 1,
                            avoid: Some(w),
                            ..env
                        });
                    } else {
                        seen.push(env.item);
                    }
                    q.complete();
                }
                seen
            })
        })
        .collect();
    // Blocked producers wake and stop; consumers drain what was accepted
    // — including retries still in flight when the queue looks empty.
    while q.stats().0 < 500 {
        thread::yield_now();
    }
    q.close();
    let mut expected = Vec::new();
    for (p, h) in (0u64..).zip(producers) {
        let accepted = h.join().unwrap();
        expected.extend((0..accepted).map(|i| p << 32 | i));
    }
    let mut seen: Vec<u64> = consumers
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, expected, "every accepted item exactly once, no other");
}

/// A micro-batch that drains the queue wakes the consumers parked in
/// `recv`. Worker 0 parks behind a retry that avoids it while two other
/// consumers are registered; the batcher then takes that retry, which
/// leaves the queue closed, empty and with nothing in flight — `recv`'s
/// `Done` state, if anything wakes it. (This is the hang the test above
/// hit intermittently.)
#[test]
fn a_draining_pop_batch_wakes_a_consumer_parked_in_recv() {
    let q = Arc::new(Queue::new(4));
    q.set_workers(3);
    q.send(7u32);
    let Recv::Item(env) = q.recv(0) else {
        panic!("an item was sent")
    };
    q.close();
    q.push_retry(Envelope {
        attempt: 1,
        avoid: Some(0),
        ..env
    });
    q.complete();
    let (done, parked) = mpsc::channel();
    let q2 = Arc::clone(&q);
    thread::spawn(move || done.send(matches!(q2.recv(0), Recv::Done)));
    // Nothing observable says the consumer has parked; if it has not by
    // the time the batch is taken, it finds the drain itself and the test
    // cannot fail — so give it ample time to get there.
    thread::sleep(Duration::from_millis(200));
    assert_eq!(q.pop_batch(3, Duration::ZERO), Some(vec![7]));
    let woke = parked.recv_timeout(Duration::from_secs(5));
    assert_eq!(woke, Ok(true), "the parked consumer never saw the drain");
}
