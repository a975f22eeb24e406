//! Data-parallel loops over slices — the one place the workspace forks
//! threads for the rows of a tile or the tiles of a scene. Three shapes,
//! because the workspace has three: [`chunks_mut`], [`chunks_mut2`] and
//! [`map_init`]. Shared inputs are not zipped in: the closure indexes them
//! by the chunk index it is handed.
//!
//! One rule (`fork`) decides whether anything forks: inline on one core or
//! below `2 * MIN_BLOCK` items, otherwise one contiguous block of
//! `ceil(len / cores)` items per core on `std::thread::scope`, the caller
//! taking the first. Every item is computed by the same closure whichever
//! thread runs it, so results do not depend on the host.

use std::panic::resume_unwind;
use std::sync::OnceLock;
use std::thread;

// The unit tests below run the public functions at thread counts this host
// does not have.
#[cfg(not(test))]
use cores as threads;
#[cfg(test)]
use tests::threads;

/// Fewest items worth a thread of their own.
const MIN_BLOCK: usize = 128;

/// Cores available to this process, read once: std does not cache
/// `available_parallelism` (an affinity syscall plus cgroup files, ~20 µs)
/// and the hot loops ask on every call. A process whose affinity changes
/// later keeps the count it started with.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `work(first_item, block)` over `whole` (`len` items), cut by `split`
/// into at most `threads` contiguous blocks, and returns the blocks'
/// results in order. A panic in a block reaches the caller once every
/// block has been joined.
fn fork<P: Send, R: Send>(
    len: usize,
    threads: usize,
    whole: P,
    split: impl Fn(P, usize) -> (P, P),
    work: impl Fn(usize, P) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || len < 2 * MIN_BLOCK {
        return vec![work(0, whole)];
    }
    let per = len.div_ceil(threads.min(len));
    let work = &work;
    thread::scope(|scope| {
        let (first, mut rest) = split(whole, per);
        let mut spawned = Vec::new();
        for start in (per..len).step_by(per) {
            let (block, tail) = split(rest, per.min(len - start));
            spawned.push(scope.spawn(move || work(start, block)));
            rest = tail;
        }
        let mut results = vec![work(0, first)];
        for block in spawned {
            // Leaving on the first panic is enough: the scope joins the rest.
            results.push(block.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        results
    })
}

/// Calls `f(i, chunk)` on every `chunk`-long piece of `data`, `i` counting
/// pieces from 0. A remainder shorter than `chunk` is left untouched.
///
/// # Panics
/// Panics if `chunk` is 0.
pub fn chunks_mut<T: Send>(data: &mut [T], chunk: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    assert!(chunk > 0, "chunk size must be positive");
    let work = |first: usize, block: &mut [T]| {
        let chunks = block.chunks_exact_mut(chunk).enumerate();
        chunks.for_each(|(i, c)| f(first + i, c));
    };
    let len = data.len() / chunk;
    fork(len, threads(), data, |d, n| d.split_at_mut(n * chunk), work);
}

/// Calls `f(i, piece_of_a, piece_of_b)` on the `i`-th `chunk_a`-long piece
/// of `a` and the `i`-th `chunk_b`-long piece of `b`, for every `i`.
///
/// # Panics
/// Panics if a chunk size is 0 or the sides differ in whole-chunk count.
pub fn chunks_mut2<A: Send, B: Send>(
    a: &mut [A],
    chunk_a: usize,
    b: &mut [B],
    chunk_b: usize,
    f: impl Fn(usize, &mut [A], &mut [B]) + Sync,
) {
    assert!(chunk_a > 0 && chunk_b > 0, "chunk size must be positive");
    let len = a.len() / chunk_a;
    assert_eq!(len, b.len() / chunk_b, "sides differ in chunk count");
    let work = |first: usize, (a, b): (&mut [A], &mut [B])| {
        let pairs = a.chunks_exact_mut(chunk_a).zip(b.chunks_exact_mut(chunk_b));
        let each = |(i, (ca, cb))| f(first + i, ca, cb);
        pairs.enumerate().for_each(each);
    };
    let split = |(a, b), n| {
        let (a, a_rest) = <[A]>::split_at_mut(a, n * chunk_a);
        let (b, b_rest) = <[B]>::split_at_mut(b, n * chunk_b);
        ((a, b), (a_rest, b_rest))
    };
    fork(len, threads(), (a, b), split, work);
}

/// Maps `items` through `f` in input order, handing `f` a state built by
/// `init` once per worker block — once in all when the map runs inline.
pub fn map_init<T: Sync, S, U: Send>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> U + Sync,
) -> Vec<U> {
    let work = |_, block: &[T]| {
        let mut state = init();
        block.iter().map(|t| f(&mut state, t)).collect::<Vec<U>>()
    };
    let blocks = fork(items.len(), threads(), items, |s, n| s.split_at(n), work);
    let mut blocks = blocks.into_iter();
    let mut out = blocks.next().unwrap_or_default();
    blocks.for_each(|block| out.extend(block));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    thread_local!(static FORCED: Cell<usize> = const { Cell::new(0) });

    /// What the functions above fork on in this test binary: the count the
    /// calling test thread forced, else the host's.
    pub(super) fn threads() -> usize {
        Some(FORCED.get()).filter(|&n| n > 0).unwrap_or_else(cores)
    }

    /// Every thread count to force paired with every length around the
    /// threshold.
    fn grid() -> impl Iterator<Item = (usize, usize)> {
        let lens = [0, 1, 255, 256, 257, 1000];
        [1, 2, 3, 7]
            .into_iter()
            .flat_map(move |t| lens.map(|n| (t, n)))
    }

    const SEEN: usize = 1 << 20;

    #[test]
    fn fork_cuts_the_shims_blocks_and_runs_inline_below_the_threshold() {
        let split = |r: std::ops::Range<usize>, n| (r.start..r.start + n, r.start + n..r.end);
        let blocks = |len, threads| fork(len, threads, 0..len, split, |first, r| (first, r));
        assert_eq!(blocks(255, 7), [(0, 0..255)]);
        assert_eq!(blocks(1000, 1), [(0, 0..1000)]);
        assert_eq!(blocks(256, 2), [(0, 0..128), (128, 128..256)]);
        let seven = blocks(1000, 7);
        assert_eq!(seven.len(), 7);
        for (k, block) in seven.into_iter().enumerate() {
            assert_eq!(block, (k * 143, k * 143..(k * 143 + 143).min(1000)));
        }
        // More threads than items: one item a block, none empty.
        assert_eq!(blocks(256, 1000).len(), 256);
    }

    #[test]
    fn chunks_mut_delivers_every_chunk_once_and_leaves_the_remainder() {
        for (threads, len) in grid() {
            FORCED.set(threads);
            for (chunk, extra) in [(1, 0), (3, 2)] {
                let src: Vec<usize> = (0..len * chunk + extra).collect();
                let mut data = src.clone();
                chunks_mut(&mut data, chunk, |i, c| {
                    // The right slice, and a shared input indexed from `i`.
                    assert_eq!(c, &src[i * chunk..][..chunk], "t{threads} n{len} chunk {i}");
                    c.iter_mut().for_each(|x| *x += SEEN);
                });
                let (chunks, rest) = data.split_at(len * chunk);
                assert!(chunks.iter().enumerate().all(|(j, &x)| x == j + SEEN));
                assert!(rest.iter().enumerate().all(|(j, &x)| x == len * chunk + j));
            }
        }
    }

    #[test]
    fn chunks_mut2_walks_unequal_strides_in_step() {
        let w = 2;
        for (threads, len) in grid() {
            FORCED.set(threads);
            let mut a = vec![0usize; len * w];
            let mut b = vec![0usize; len * 3 * w + 1];
            chunks_mut2(&mut a, w, &mut b, 3 * w, |i, ca, cb| {
                assert_eq!((ca.len(), cb.len()), (w, 3 * w), "t{threads} n{len}");
                ca.iter_mut().for_each(|x| *x += i + SEEN);
                cb.iter_mut().for_each(|x| *x += 10 * i + SEEN);
            });
            assert!(a.iter().enumerate().all(|(j, &x)| x == j / w + SEEN));
            let (chunks, rest) = b.split_at(len * 3 * w);
            let expected = |j| 10 * (j / (3 * w)) + SEEN;
            assert!(chunks.iter().enumerate().all(|(j, &x)| x == expected(j)));
            assert_eq!(rest, [0]);
        }
    }

    #[test]
    #[should_panic(expected = "sides differ in chunk count")]
    fn chunks_mut2_refuses_sides_of_different_chunk_counts() {
        chunks_mut2(&mut [0u8; 8], 2, &mut [0u8; 9], 3, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn a_zero_chunk_is_refused_by_name() {
        chunks_mut(&mut [0u8; 4], 0, |_, _| {});
    }

    #[test]
    fn map_init_keeps_input_order_and_builds_one_state_per_block() {
        for (threads, len) in grid() {
            FORCED.set(threads);
            let items: Vec<String> = (0..len).map(|i| i.to_string()).collect();
            let inits = AtomicUsize::new(0);
            let init = || {
                inits.fetch_add(1, SeqCst);
                10
            };
            let out = map_init(&items, init, |state, item| {
                *state += 1; // the state persists from item to item
                (item.len(), *state > 10)
            });
            let sequential: Vec<_> = items.iter().map(|item| (item.len(), true)).collect();
            assert_eq!(out, sequential);
            let forked = threads > 1 && len >= 2 * MIN_BLOCK;
            let allowed = if forked { 2..=threads } else { 1..=1 };
            assert!(allowed.contains(&inits.load(SeqCst)), "t{threads} n{len}");
        }
    }

    #[test]
    fn a_panicking_block_reaches_the_caller_after_the_others_were_joined() {
        FORCED.set(4);
        let finished = AtomicUsize::new(0);
        let mut data = vec![0u8; 1000];
        let outcome = crate::attempt(|| {
            chunks_mut(&mut data, 1, |i, _| {
                // Block 1 dies at once and is joined first; 2 and 3 are still
                // asleep when its panic is picked up.
                assert!(i != 250, "block 1 dies");
                if i % 250 == 249 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    finished.fetch_add(1, SeqCst);
                }
            });
        });
        assert_eq!(outcome, Err("block 1 dies".to_string()));
        assert_eq!(finished.load(SeqCst), 3, "blocks 0, 2, 3 ran to their end");
    }
}
