//! The crate's one `unsafe` corner: workers writing disjoint chunks of a
//! shared output buffer.
//!
//! [`fill_indexed`] powers [`crate::par_map_indexed`]. The output `Vec` is
//! allocated once with its final capacity; workers claim `[start, end)`
//! index ranges from an atomic counter and write each computed element
//! straight into its slot. Compared to the channel protocol this replaced,
//! there is no per-item message, no `Vec<Option<U>>`, and no final
//! re-collect — one `fetch_add` per chunk and one write per element. The
//! calling thread is one of the workers, so a map over `w` workers spawns
//! `w − 1` threads.
//!
//! # Safety argument
//!
//! * **Disjointness** — chunk start offsets come from
//!   `AtomicUsize::fetch_add(chunk)`, so every index in `0..len` belongs to
//!   exactly one worker, and workers write only indices they claimed.
//! * **Buffer liveness** — the `Vec` is created before the thread scope and
//!   the scope joins every worker before returning, so no write outlives
//!   the buffer. Until then the calling thread touches it only through
//!   the indices it claimed as a worker.
//! * **Initialization** — `set_len(len)` runs only after the scope returned
//!   `Ok`, i.e. after every worker finished and every index in `0..len` was
//!   written exactly once.
//! * **Panics** — if the mapping closure panics, on a spawned worker or on
//!   the calling thread, the scope joins the other workers and propagates
//!   the panic, and the output `Vec` drops with `len == 0`: elements
//!   already written are leaked, never double-dropped or read
//!   uninitialized.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Raw pointer to the output buffer, shareable across the worker scope.
///
/// `U: Send` is required on the `Sync` impl because elements produced on
/// worker threads land in a buffer owned (and later dropped) by the
/// caller's thread.
struct SharedOut<U>(*mut U);

// SAFETY: the pointer is only ever used for writes to indices the writing
// worker claimed exclusively (see the module-level safety argument), and
// `U: Send` lets the written values change threads.
unsafe impl<U: Send> Sync for SharedOut<U> {}

/// Fill a `Vec` of length `len` with `f(i)` at index `i`, using `workers`
/// threads that claim `chunk`-sized index ranges dynamically.
///
/// Caller guarantees `workers >= 1` and `chunk >= 1`.
pub(crate) fn fill_indexed<U, F>(len: usize, workers: usize, chunk: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    debug_assert!(workers >= 1 && chunk >= 1);
    let mut out: Vec<U> = Vec::with_capacity(len);
    let shared = SharedOut(out.as_mut_ptr());
    let next = AtomicUsize::new(0);
    // Takes the buffer as an argument: a closure capturing `shared.0`
    // would capture the raw pointer itself, which is not `Sync`.
    let work = |shared: &SharedOut<U>| loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= len {
            break;
        }
        for i in start..(start + chunk).min(len) {
            let value = f(i);
            // SAFETY: `i` was claimed by this worker alone and is
            // in bounds of the capacity-`len` allocation.
            unsafe { shared.0.add(i).write(value) };
        }
    };
    crossbeam::thread::scope(|scope| {
        for _ in 1..workers {
            let (shared, work) = (&shared, &work);
            scope.spawn(move |_| work(shared));
        }
        // The calling thread is the last worker.
        work(&shared);
    })
    .expect("worker thread panicked");
    // SAFETY: the scope joined cleanly, so every index in `0..len` was
    // initialized exactly once.
    unsafe { out.set_len(len) };
    out
}
