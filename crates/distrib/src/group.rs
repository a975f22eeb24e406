//! Process group and collectives: ring all-reduce, broadcast, barrier.
//!
//! Ranks are threads; each holds a channel to its ring successor (one
//! producer, one consumer: a std `sync_channel` of depth 2). The
//! all-reduce is the bandwidth-optimal ring algorithm the paper cites
//! (Patarasuk & Yuan 2009): the buffer is split into `N` chunks,
//! `N − 1` reduce-scatter steps leave each rank with one fully reduced
//! chunk, and `N − 1` all-gather steps circulate the reduced chunks —
//! every rank sends `2 (N−1)/N · B` bytes total regardless of `N`.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Barrier};

/// A collective failed because a peer rank disappeared (its endpoints
/// were dropped — typically the rank thread panicked or was killed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveError {
    /// This rank's ring successor hung up mid-collective.
    SuccessorLost,
    /// This rank's ring predecessor hung up mid-collective.
    PredecessorLost,
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectiveError::SuccessorLost => f.write_str("ring successor disconnected"),
            CollectiveError::PredecessorLost => f.write_str("ring predecessor disconnected"),
        }
    }
}

impl std::error::Error for CollectiveError {}

/// One rank's endpoint in the group.
pub struct Rank {
    rank: usize,
    size: usize,
    to_next: SyncSender<Vec<f32>>,
    from_prev: Receiver<Vec<f32>>,
    barrier: Arc<Barrier>,
}

/// A communicator over `n` ranks. Hand each [`Rank`] to its own thread.
pub struct ProcessGroup;

impl ProcessGroup {
    /// Builds the ring endpoints for `n` ranks.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[allow(clippy::new_ret_no_self)] // `ProcessGroup` is a namespace; ranks are the product
    pub fn new(n: usize) -> Vec<Rank> {
        // seaice-lint: allow(panic-in-library) reason="documented panicking constructor (# Panics above); try_new is the fallible path for callers with dynamic group sizes"
        Self::try_new(n).expect("process group needs at least one rank")
    }

    /// Fallible [`new`](ProcessGroup::new): rejects an empty group with a
    /// descriptive error instead of panicking.
    ///
    /// # Errors
    /// When `n == 0`.
    pub fn try_new(n: usize) -> Result<Vec<Rank>, String> {
        if n == 0 {
            return Err("process group needs at least one rank (got 0)".to_string());
        }
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            // rank r sends into channel r, rank (r+1) % n receives from it.
            let (tx, rx) = sync_channel::<Vec<f32>>(2);
            senders.push(tx);
            receivers.push(rx);
        }
        let barrier = Arc::new(Barrier::new(n));
        let mut ranks: Vec<Rank> = Vec::with_capacity(n);
        // Receiver for rank r is channel (r - 1 + n) % n.
        let mut receivers: Vec<Option<Receiver<Vec<f32>>>> =
            receivers.into_iter().map(Some).collect();
        for (r, to_next) in senders.into_iter().enumerate() {
            let prev = (r + n - 1) % n;
            // seaice-lint: allow(panic-in-library) reason="each ring index is visited exactly once by this loop, so the Option is always Some; a None would be a construction bug worth crashing on"
            let from_prev = receivers[prev].take().expect("receiver used twice");
            ranks.push(Rank {
                rank: r,
                size: n,
                to_next,
                from_prev,
                barrier: barrier.clone(),
            });
        }
        Ok(ranks)
    }
}

/// Chunk boundaries: `n` near-equal contiguous ranges covering `len`.
fn chunk_bounds(len: usize, n: usize, i: usize) -> (usize, usize) {
    let base = len / n;
    let rem = len % n;
    let start = i * base + i.min(rem);
    let extra = usize::from(i < rem);
    (start, start + base + extra)
}

impl Rank {
    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Blocks until every rank reaches the barrier.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// In-place ring all-reduce (sum). All ranks must call concurrently
    /// with equal-length buffers.
    ///
    /// # Panics
    /// Panics if a neighbour disconnects mid-collective (a peer rank
    /// panicked). Use [`try_all_reduce_sum`](Rank::try_all_reduce_sum)
    /// when peers are allowed to fail.
    pub fn all_reduce_sum(&self, buf: &mut [f32]) {
        if let Err(e) = self.try_all_reduce_sum(buf) {
            // seaice-lint: allow(panic-in-library) reason="documented panicking collective (# Panics above); try_all_reduce_sum is the fallible path used by the elastic trainer"
            panic!("{e}");
        }
    }

    /// Fallible [`all_reduce_sum`](Rank::all_reduce_sum): reports a lost
    /// peer instead of panicking, so a surviving rank can unwind cleanly
    /// and rejoin a rebuilt, smaller group (elastic recovery). On error
    /// the buffer contents are unspecified — discard them and resume from
    /// a checkpoint.
    ///
    /// # Errors
    /// [`CollectiveError`] naming the lost neighbour.
    pub fn try_all_reduce_sum(&self, buf: &mut [f32]) -> Result<(), CollectiveError> {
        let n = self.size;
        if n == 1 {
            return Ok(());
        }
        let len = buf.len();

        // Phase 1: reduce-scatter. At step s, send chunk (r − s) and
        // accumulate incoming chunk (r − s − 1).
        for s in 0..n - 1 {
            let send_idx = (self.rank + n - s) % n;
            let recv_idx = (self.rank + n - s - 1) % n;
            let (ss, se) = chunk_bounds(len, n, send_idx);
            self.to_next
                .send(buf[ss..se].to_vec())
                .map_err(|_| CollectiveError::SuccessorLost)?;
            let incoming = self
                .from_prev
                .recv()
                .map_err(|_| CollectiveError::PredecessorLost)?;
            let (rs, re) = chunk_bounds(len, n, recv_idx);
            debug_assert_eq!(incoming.len(), re - rs);
            for (dst, src) in buf[rs..re].iter_mut().zip(&incoming) {
                *dst += src;
            }
        }

        // Phase 2: all-gather. Rank r now owns the reduced chunk (r + 1).
        for s in 0..n - 1 {
            let send_idx = (self.rank + 1 + n - s) % n;
            let recv_idx = (self.rank + n - s) % n;
            let (ss, se) = chunk_bounds(len, n, send_idx);
            self.to_next
                .send(buf[ss..se].to_vec())
                .map_err(|_| CollectiveError::SuccessorLost)?;
            let incoming = self
                .from_prev
                .recv()
                .map_err(|_| CollectiveError::PredecessorLost)?;
            let (rs, re) = chunk_bounds(len, n, recv_idx);
            debug_assert_eq!(incoming.len(), re - rs);
            buf[rs..re].copy_from_slice(&incoming);
        }
        Ok(())
    }

    /// In-place average all-reduce (`sum / size`) — what gradient
    /// synchronization uses.
    pub fn all_reduce_mean(&self, buf: &mut [f32]) {
        self.all_reduce_sum(buf);
        let inv = 1.0 / self.size as f32;
        for v in buf.iter_mut() {
            *v *= inv;
        }
    }

    /// Fallible [`all_reduce_mean`](Rank::all_reduce_mean); see
    /// [`try_all_reduce_sum`](Rank::try_all_reduce_sum).
    ///
    /// # Errors
    /// [`CollectiveError`] naming the lost neighbour.
    pub fn try_all_reduce_mean(&self, buf: &mut [f32]) -> Result<(), CollectiveError> {
        self.try_all_reduce_sum(buf)?;
        let inv = 1.0 / self.size as f32;
        for v in buf.iter_mut() {
            *v *= inv;
        }
        Ok(())
    }

    /// Broadcast from `root`: after the call every rank's buffer equals
    /// the root's (ring pipeline; `hvd.BroadcastGlobalVariables` analog).
    ///
    /// # Panics
    /// Panics if a ring neighbour disconnects mid-broadcast (a peer rank
    /// panicked). Broadcast happens at generation start, before any rank
    /// can fail under the elastic trainer's fault model, so there is no
    /// fallible variant.
    pub fn broadcast(&self, buf: &mut [f32], root: usize) {
        let n = self.size;
        if n == 1 {
            return;
        }
        // Pass the buffer around the ring starting at root; every rank
        // except the root overwrites, and the rank before the root stops
        // the circulation.
        let is_last = (self.rank + 1) % n == root;
        if self.rank == root {
            self.to_next
                .send(buf.to_vec())
                // seaice-lint: allow(panic-in-library) reason="documented panicking collective (# Panics above); neighbours cannot fail before the first broadcast under the elastic fault model"
                .expect("ring successor disconnected");
        } else {
            let incoming = self
                .from_prev
                .recv()
                // seaice-lint: allow(panic-in-library) reason="documented panicking collective (# Panics above); neighbours cannot fail before the first broadcast under the elastic fault model"
                .expect("ring predecessor disconnected");
            buf.copy_from_slice(&incoming);
            if !is_last {
                self.to_next
                    .send(incoming)
                    // seaice-lint: allow(panic-in-library) reason="documented panicking collective (# Panics above); neighbours cannot fail before the first broadcast under the elastic fault model"
                    .expect("ring successor disconnected");
            }
        }
        self.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` on every rank of an `n`-group, returning per-rank results.
    fn run_group<T: Send + 'static>(
        n: usize,
        f: impl Fn(Rank) -> T + Send + Sync + Clone + 'static,
    ) -> Vec<T> {
        let ranks = ProcessGroup::new(n);
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|r| {
                let f = f.clone();
                std::thread::spawn(move || f(r))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for n in [1usize, 2, 3, 4, 8] {
            let out = run_group(n, move |rank| {
                // Rank r contributes r+1 at position i → sum = n(n+1)/2.
                let mut buf = vec![(rank.rank() + 1) as f32; 10];
                rank.all_reduce_sum(&mut buf);
                buf
            });
            let expected = (n * (n + 1) / 2) as f32;
            for buf in out {
                assert!(buf.iter().all(|&v| (v - expected).abs() < 1e-5), "n={n}");
            }
        }
    }

    #[test]
    fn allreduce_handles_non_divisible_lengths() {
        // Buffer length 7 over 4 ranks exercises uneven chunks.
        let out = run_group(4, |rank| {
            let mut buf: Vec<f32> = (0..7).map(|i| (i * (rank.rank() + 1)) as f32).collect();
            rank.all_reduce_sum(&mut buf);
            buf
        });
        // Sum over ranks of i*(r+1) = i * 10.
        for buf in out {
            for (i, v) in buf.iter().enumerate() {
                assert!((v - (i as f64 * 10.0) as f32).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn allreduce_mean_averages() {
        let out = run_group(4, |rank| {
            let mut buf = vec![rank.rank() as f32; 5];
            rank.all_reduce_mean(&mut buf);
            buf
        });
        for buf in out {
            assert!(buf.iter().all(|&v| (v - 1.5).abs() < 1e-6));
        }
    }

    #[test]
    fn allreduce_empty_buffer_is_fine() {
        let out = run_group(3, |rank| {
            let mut buf: Vec<f32> = Vec::new();
            rank.all_reduce_sum(&mut buf);
            buf.len()
        });
        assert_eq!(out, vec![0, 0, 0]);
    }

    #[test]
    fn broadcast_copies_root_to_all() {
        for root in 0..3 {
            let out = run_group(3, move |rank| {
                let mut buf = vec![rank.rank() as f32 * 100.0; 4];
                rank.broadcast(&mut buf, root);
                buf
            });
            for buf in out {
                assert!(buf.iter().all(|&v| (v - root as f32 * 100.0).abs() < 1e-6));
            }
        }
    }

    #[test]
    fn repeated_collectives_stay_consistent() {
        let out = run_group(4, |rank| {
            let mut acc = 0f32;
            for round in 0..10 {
                let mut buf = vec![(rank.rank() + round) as f32; 3];
                rank.all_reduce_sum(&mut buf);
                acc += buf[0];
            }
            acc
        });
        // Each round sums (0+1+2+3) + 4*round = 6 + 4*round.
        let expected: f32 = (0..10).map(|r| 6.0 + 4.0 * r as f32).sum();
        for v in out {
            assert!((v - expected).abs() < 1e-4);
        }
    }

    #[test]
    fn chunk_bounds_cover_exactly() {
        for len in [0usize, 1, 7, 16, 100] {
            for n in [1usize, 2, 3, 4, 8] {
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for i in 0..n {
                    let (s, e) = chunk_bounds(len, n, i);
                    assert_eq!(s, prev_end, "chunks must be contiguous");
                    assert!(e >= s);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, len, "chunks must cover the buffer");
            }
        }
    }

    #[test]
    fn lost_rank_errors_all_survivors_without_deadlock() {
        // Rank 2 of 4 "dies" (drops its endpoints without participating);
        // every survivor's try-collective must return an error rather
        // than hang, which is what lets the elastic trainer unwind and
        // rebuild a smaller group.
        let ranks = ProcessGroup::new(4);
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|rank| {
                std::thread::spawn(move || {
                    if rank.rank() == 2 {
                        return None; // dies: endpoints drop here
                    }
                    let mut buf = vec![1.0f32; 16];
                    Some(rank.try_all_reduce_sum(&mut buf))
                })
            })
            .collect();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(outcomes.iter().filter(|o| o.is_none()).count(), 1);
        for o in outcomes.into_iter().flatten() {
            assert!(o.is_err(), "survivors must observe the lost peer");
        }
    }

    #[test]
    fn try_new_rejects_empty_group() {
        let e = match ProcessGroup::try_new(0) {
            Err(e) => e,
            Ok(_) => panic!("empty group must be rejected"),
        };
        assert!(e.contains("at least one rank"), "{e}");
        assert_eq!(ProcessGroup::try_new(2).unwrap().len(), 2);
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        let out = run_group(1, |rank| {
            let mut buf = vec![3.5f32; 4];
            rank.all_reduce_sum(&mut buf);
            rank.broadcast(&mut buf, 0);
            buf
        });
        assert!(out[0].iter().all(|&v| v == 3.5));
    }
}
