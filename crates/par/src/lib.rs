//! Minimal data-parallel substrate for the MPS workspace.
//!
//! The multi-pattern scheduling pipeline contains two embarrassingly parallel
//! hot spots: span-limited antichain enumeration (one independent search tree
//! per root node) and the Monte-Carlo random-pattern baseline (independent
//! trials). `rayon` is not part of the approved offline dependency set, so
//! this crate provides the small slice of its functionality we need, built on
//! [`crossbeam`]'s scoped threads:
//!
//! * [`par_map`] / [`par_map_indexed`] — order-preserving parallel map.
//!   Workers claim contiguous index chunks from a shared atomic counter and
//!   write results directly into their final slots of the output buffer:
//!   no channel, no per-item message, no `Vec<Option<U>>` re-collect.
//! * [`par_fold`] — per-worker local accumulators merged once at the end,
//!   so reductions combine `T` thread-locals instead of one partial per
//!   item (the Table 5 span histogram).
//! * [`par_reduce`] — parallel map + associative fold,
//! * [`par_for_each`] — side-effecting variant,
//! * [`parallelism`] — thread-count heuristic honouring `MPS_THREADS`,
//! * [`BoundedQueue`] — a blocking bounded MPMC queue, the admission
//!   primitive of the `mps-serve` daemon (backpressure on producers, clean
//!   drain-on-close for consumers; [`BoundedQueue::try_push`] for
//!   shed-instead-of-block admission),
//! * [`CancelToken`] — a cooperative stop flag with an optional deadline,
//!   polled by the pattern-table build, so cancelled work stops instead
//!   of running to completion.
//!
//! All entry points fall back to straight sequential execution when the input
//! is small or only one hardware thread is available, so callers never pay
//! thread-spawn latency for tiny inputs.
//!
//! The only `unsafe` in the crate is the disjoint-chunk output write in
//! the `fill` module; everything else is `#[deny(unsafe_code)]`-clean.
//!
//! # Example
//!
//! ```
//! let squares = mps_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

mod cancel;
mod chunk;
#[allow(unsafe_code)] // isolated disjoint-chunk writes; see module docs
mod fill;
mod queue;
pub use cancel::{CancelKind, CancelToken};
pub use chunk::chunk_ranges;
pub use queue::{BoundedQueue, PushError};

/// Inputs shorter than this are always processed sequentially. Two is the
/// smallest input that can be split at all; anything at or above it may be
/// worth threads because items can be arbitrarily expensive (one
/// enumeration root can own a search tree orders of magnitude larger than
/// another's), and per-item dispatch overhead is already amortized by
/// chunked claiming rather than by this cutoff.
const SEQUENTIAL_CUTOFF: usize = 2;

/// Target number of chunks each worker gets to claim over a run. Higher
/// values balance skewed per-item costs better; lower values reduce shared
/// counter traffic. 8 keeps the slowest worker within ~1/8 of a chunk of
/// the others for uniform items while costing only `8 × threads` atomic
/// increments in total.
const CHUNKS_PER_WORKER: usize = 8;

/// Upper bound on the chunk size, so enormous inputs still rebalance.
const MAX_CHUNK: usize = 1024;

/// How many items a worker claims per trip to the shared counter.
///
/// `len / (workers × CHUNKS_PER_WORKER)`, clamped to `1..=MAX_CHUNK`.
fn chunk_size(len: usize, workers: usize) -> usize {
    (len / (workers * CHUNKS_PER_WORKER).max(1)).clamp(1, MAX_CHUNK)
}

/// Number of worker threads to use for parallel operations.
///
/// Resolution order:
/// 1. the `MPS_THREADS` environment variable, if set and parseable (a value
///    of `1` disables parallelism entirely),
/// 2. [`std::thread::available_parallelism`],
/// 3. `1` as a last resort.
pub fn parallelism() -> usize {
    if let Ok(v) = std::env::var("MPS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Order-preserving parallel map: `out[i] = f(&items[i])`.
///
/// Work is distributed dynamically: each worker repeatedly claims the next
/// unprocessed chunk of indices from a shared atomic counter, so heavily
/// skewed per-item costs (common in antichain enumeration, where one root
/// node may own a search tree orders of magnitude larger than another's)
/// still balance well.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// [`par_map`] with an explicit worker count instead of [`parallelism`]'s
/// heuristic.
///
/// `workers` is clamped to the item count; `0` and `1` both mean
/// sequential execution in slice order. The calling thread is one of the
/// workers, so `workers` workers spawn `workers − 1` threads. Exposed so
/// callers that sweep thread counts deterministically — batch-compile
/// benches, scaling tests — can pin the fan-out without touching the
/// `MPS_THREADS` environment.
pub fn par_map_in<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let len = items.len();
    let workers = workers.min(len.max(1));
    if workers <= 1 || len < SEQUENTIAL_CUTOFF {
        return items.iter().map(f).collect();
    }
    fill::fill_indexed(len, workers, chunk_size(len, workers), |i| f(&items[i]))
}

/// Parallel map over the index range `0..len`, preserving index order.
///
/// This is the workhorse behind [`par_map`]; use it directly when the work
/// items are described by an index rather than a slice element. Results are
/// written straight into their final slots of the output vector (the
/// `fill` module), so the only coordination cost is one atomic increment per
/// claimed chunk.
pub fn par_map_indexed<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = parallelism().min(len.max(1));
    if workers <= 1 || len < SEQUENTIAL_CUTOFF {
        return (0..len).map(f).collect();
    }
    fill::fill_indexed(len, workers, chunk_size(len, workers), f)
}

/// Parallel fold: one private accumulator per worker, merged at the end.
///
/// Every worker builds an accumulator with `make`, folds each item of the
/// chunks it claims into it with `fold`, and the per-worker accumulators
/// are combined pairwise with `merge` once all items are consumed. Only
/// `T` partials are ever merged (T = worker count), independent of the
/// item count — the right shape for reductions whose accumulator is big
/// (histograms, frequency tables) where per-item partials would dominate.
///
/// Which items land in which accumulator depends on scheduling, so
/// `fold`/`merge` must be insensitive to grouping and order (counting,
/// summing and histogram merges are; appending to an ordered list is not).
/// `make` must return a neutral accumulator: `merge(make(), a) ≡ a`.
pub fn par_fold<T, A, M, F, R>(items: &[T], make: M, fold: F, merge: R) -> A
where
    T: Sync,
    A: Send,
    M: Fn() -> A + Sync,
    F: Fn(&mut A, &T) + Sync,
    R: Fn(A, A) -> A,
{
    let workers = parallelism().min(items.len().max(1));
    if workers <= 1 || items.len() < SEQUENTIAL_CUTOFF {
        let mut acc = make();
        for item in items {
            fold(&mut acc, item);
        }
        return acc;
    }
    let chunk = chunk_size(items.len(), workers);
    let next = AtomicUsize::new(0);
    let locals: Vec<A> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, make, fold) = (&next, &make, &fold);
                scope.spawn(move |_| {
                    let mut acc = make();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        for item in &items[start..(start + chunk).min(items.len())] {
                            fold(&mut acc, item);
                        }
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(acc) => acc,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
    .expect("worker thread panicked");
    locals
        .into_iter()
        .reduce(merge)
        .expect("at least one worker ran")
}

/// Parallel map + associative fold.
///
/// Computes `f` for every element, then combines the results with `fold`,
/// starting from `identity`. `fold` must be associative and `identity` must
/// be its neutral element; the combination order is otherwise unspecified.
pub fn par_reduce<T, U, F, R>(items: &[T], identity: U, f: F, fold: R) -> U
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
    R: Fn(U, U) -> U,
{
    par_map(items, f).into_iter().fold(identity, fold)
}

/// Run `f` on every element, in parallel, for its side effects.
///
/// The closure only receives `&T`; shared mutable state must be synchronized
/// by the caller (e.g. with atomics or `parking_lot` locks).
pub fn par_for_each<T, F>(items: &[T], f: F)
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    par_map(items, |t| {
        f(t);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let out = par_map(&input, |&x| x * 2 + 1);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 2 + 1);
        }
    }

    #[test]
    fn par_map_empty() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_single_element() {
        assert_eq!(par_map(&[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn par_map_indexed_matches_sequential() {
        let par = par_map_indexed(257, |i| i * i);
        let seq: Vec<usize> = (0..257).map(|i| i * i).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_in_matches_sequential_at_any_worker_count() {
        let input: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = input.iter().map(|&x| x * 3 + 1).collect();
        for workers in [0usize, 1, 2, 3, 8, 64] {
            let out = par_map_in(workers, &input, |&x| x * 3 + 1);
            assert_eq!(out, expect, "workers={workers}");
        }
        assert!(par_map_in(4, &[] as &[u32], |&x| x).is_empty());
    }

    #[test]
    fn par_map_in_runs_one_worker_on_the_calling_thread() {
        // `workers` workers are the caller plus `workers - 1` spawned
        // threads, so no more than that many other threads ever run items.
        let caller = std::thread::current().id();
        let ids = par_map_in(3, &[(); 256], |_| std::thread::current().id());
        let spawned: std::collections::HashSet<_> =
            ids.into_iter().filter(|&id| id != caller).collect();
        assert!(
            spawned.len() <= 2,
            "{} spawned threads ran items",
            spawned.len()
        );
    }

    #[test]
    fn par_map_non_copy_values() {
        // Heap-owning results exercise the move-into-slot write path.
        let out = par_map_indexed(1000, |i| format!("item-{i}"));
        assert_eq!(out.len(), 1000);
        assert_eq!(out[0], "item-0");
        assert_eq!(out[999], "item-999");
    }

    #[test]
    fn par_map_around_chunk_boundaries() {
        // Lengths straddling worker/chunk boundaries must still cover every
        // index exactly once.
        for len in [1usize, 2, 3, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025] {
            let out = par_map_indexed(len, |i| i);
            let seq: Vec<usize> = (0..len).collect();
            assert_eq!(out, seq, "len={len}");
        }
    }

    #[test]
    fn par_reduce_sums() {
        let input: Vec<u64> = (1..=1000).collect();
        let sum = par_reduce(&input, 0u64, |&x| x, |a, b| a + b);
        assert_eq!(sum, 500_500);
    }

    #[test]
    fn par_reduce_identity_on_empty() {
        let sum = par_reduce(&[] as &[u64], 7u64, |&x| x, |a, b| a + b);
        assert_eq!(sum, 7);
    }

    #[test]
    fn par_fold_sums_like_sequential() {
        let items: Vec<u64> = (0..5000).collect();
        let total = par_fold(&items, || 0u64, |acc, &x| *acc += x, |a, b| a + b);
        assert_eq!(total, 5000 * 4999 / 2);
    }

    #[test]
    fn par_fold_histogram_merges() {
        let items: Vec<u64> = (0..997).collect();
        let hist = par_fold(
            &items,
            || [0u64; 7],
            |h, &x| h[(x % 7) as usize] += 1,
            |mut a, b| {
                for (d, s) in a.iter_mut().zip(b.iter()) {
                    *d += s;
                }
                a
            },
        );
        let mut expect = [0u64; 7];
        for x in 0..997u64 {
            expect[(x % 7) as usize] += 1;
        }
        assert_eq!(hist, expect);
    }

    #[test]
    fn par_fold_empty_returns_neutral() {
        let acc = par_fold(&[] as &[u64], || 42u64, |a, &x| *a += x, |a, b| a + b);
        assert_eq!(acc, 42);
    }

    #[test]
    fn par_fold_single_item() {
        let acc = par_fold(&[5u64], || 0u64, |a, &x| *a += x, |a, b| a + b);
        assert_eq!(acc, 5);
    }

    #[test]
    fn par_for_each_visits_everything() {
        use std::sync::atomic::AtomicU64;
        let input: Vec<u64> = (0..500).collect();
        let total = AtomicU64::new(0);
        par_for_each(&input, |&x| {
            total.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 500 * 499 / 2);
    }

    #[test]
    fn parallelism_is_positive() {
        assert!(parallelism() >= 1);
    }

    #[test]
    fn chunk_size_is_sane() {
        // Never zero, never above MAX_CHUNK, sequentializes nothing.
        for len in [1usize, 2, 10, 1000, 1_000_000] {
            for workers in [1usize, 2, 8, 64] {
                let c = chunk_size(len, workers);
                assert!((1..=MAX_CHUNK).contains(&c), "len={len} workers={workers}");
            }
        }
        // Small inputs get single-item chunks for best balance…
        assert_eq!(chunk_size(64, 8), 1);
        // …large inputs amortize counter traffic…
        assert_eq!(chunk_size(10_000, 8), 10_000 / (8 * CHUNKS_PER_WORKER));
        // …and huge inputs stay bounded so late rebalancing still happens.
        assert_eq!(chunk_size(100_000_000, 4), MAX_CHUNK);
    }

    #[test]
    fn skewed_work_is_balanced() {
        // One very expensive item among many cheap ones must not break
        // order preservation.
        let input: Vec<u64> = (0..64).collect();
        let out = par_map(&input, |&x| {
            if x == 0 {
                (0..200_000u64).sum::<u64>()
            } else {
                x
            }
        });
        assert_eq!(out[0], 19_999_900_000);
        assert_eq!(out[63], 63);
    }
}
