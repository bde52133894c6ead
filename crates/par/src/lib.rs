//! Minimal data-parallel substrate for the MPS workspace.
//!
//! Parallelism lives where it is measured to pay on a two-core box:
//! across independent kernels (`mps::Session::compile_batch_in`) and
//! across the scheduling runs of an exhaustive pattern-subset search.
//! Everything inside one ordinary compile runs on the calling thread, and
//! the `mps-serve` daemon compiles each miss on the thread that read it.
//! `rayon` is not part of the approved offline dependency set, so this
//! crate provides the small slice of its functionality those callers
//! need, built on [`crossbeam`]'s scoped threads:
//!
//! * [`par_map`] / [`par_map_in`] — order-preserving parallel map.
//!   Workers claim contiguous index chunks from a shared atomic counter and
//!   write results directly into their final slots of the output buffer:
//!   no channel, no per-item message, no `Vec<Option<U>>` re-collect.
//! * [`parallelism`] — thread-count heuristic honouring `MPS_THREADS`,
//! * [`CancelToken`] — a cooperative stop flag with an optional deadline,
//!   polled by the pattern-table build, so cancelled work stops instead
//!   of running to completion.
//!
//! Both maps fall back to straight sequential execution when the input
//! has fewer than two items or only one worker is available.
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

mod cancel;
#[allow(unsafe_code)] // isolated disjoint-chunk writes; see module docs
mod fill;
pub use cancel::{CancelKind, CancelToken};

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

/// Parallel map over the index range `0..len`, preserving index order:
/// the workhorse behind [`par_map`]. Results are written straight into
/// their final slots of the output vector (the `fill` module), so the
/// only coordination cost is one atomic increment per claimed chunk.
fn par_map_indexed<U, F>(len: usize, f: F) -> Vec<U>
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
