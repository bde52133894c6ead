//! Bounded MPMC admission queue.
//!
//! [`BoundedQueue`] is the admission primitive of the serving layer: a
//! fixed-capacity FIFO whose blocking [`push`](BoundedQueue::push) applies
//! backpressure to producers (a connection thread admitting a compile
//! request) while consumers (the server's long-lived compile workers)
//! drain it with a blocking [`pop`](BoundedQueue::pop). [`close`](BoundedQueue::close) initiates a
//! clean drain: producers are refused from then on, consumers keep
//! popping until the queue is empty, and only then do they observe
//! `None` — the shape a daemon needs to finish in-flight work on
//! shutdown without dropping anything already admitted.
//!
//! Built on `Mutex` + two `Condvar`s (not-empty / not-full); no spinning,
//! no capacity-rounding, FIFO order guaranteed by the inner `VecDeque`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a non-blocking [`BoundedQueue::try_push`] refused an item. The
/// refused item rides along so the producer can retry or report it.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was at capacity.
    Full(T),
    /// The queue was closed.
    Closed(T),
}

impl<T> PushError<T> {
    /// The item the queue refused.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking, bounded, multi-producer multi-consumer FIFO queue.
///
/// See the module docs for the admission/drain semantics. The queue is
/// `Sync`; share it by reference (scoped threads) or behind an `Arc`.
///
/// ```
/// use mps_par::BoundedQueue;
/// let q = BoundedQueue::new(2);
/// q.push(1).unwrap();
/// q.push(2).unwrap();
/// assert!(q.try_push(3).is_err()); // full: admission refused
/// assert_eq!(q.pop(), Some(1));
/// q.close();
/// assert_eq!(q.pop(), Some(2)); // close drains, never drops
/// assert_eq!(q.pop(), None);
/// ```
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items at a time. A zero
    /// capacity is clamped to 1 — a queue nothing can ever enter would
    /// deadlock its first producer.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The capacity the queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Block until there is room, then enqueue `item`. Returns
    /// `Err(item)` if the queue is (or becomes, while waiting) closed —
    /// admission after shutdown never succeeds.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        while state.items.len() >= self.capacity && !state.closed {
            state = self
                .not_full
                .wait(state)
                .expect("queue lock poisoned while waiting");
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueue `item` without blocking, or report why it was refused.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Block until an item is available and dequeue it. Returns `None`
    /// only once the queue is closed **and** drained, so consumers
    /// processing until `None` are guaranteed to finish every item that
    /// was ever admitted.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .expect("queue lock poisoned while waiting");
        }
    }

    /// Close the queue: refuse all future pushes, wake every blocked
    /// producer (their pushes fail) and consumer (they drain the
    /// remainder, then observe `None`). Idempotent.
    pub fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`close`](BoundedQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock poisoned").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn fifo_order_single_thread() {
        let q = BoundedQueue::new(8);
        for i in 0..8 {
            q.push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn try_push_reports_full_then_closed() {
        let q = BoundedQueue::new(1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(PushError::Full(2)));
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        assert_eq!(PushError::Full(7).into_inner(), 7);
    }

    #[test]
    fn close_drains_without_dropping() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3), "admission after close must fail");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "None is sticky once drained");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.push(42).unwrap();
        assert_eq!(q.pop(), Some(42));
    }

    #[test]
    fn blocked_producer_resumes_after_pop() {
        let q = BoundedQueue::new(1);
        q.push(0u64).unwrap();
        crossbeam::thread::scope(|scope| {
            let producer = scope.spawn(|_| q.push(1).unwrap());
            // The producer is blocked on a full queue until this pop.
            assert_eq!(q.pop(), Some(0));
            producer.join().unwrap();
            assert_eq!(q.pop(), Some(1));
        })
        .unwrap();
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        crossbeam::thread::scope(|scope| {
            let consumer = scope.spawn(|_| q.pop());
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.close();
            assert_eq!(consumer.join().unwrap(), None);
        })
        .unwrap();
    }

    #[test]
    fn mpmc_under_contention_delivers_every_item_once() {
        // 4 producers × 500 items through a capacity-8 queue into 4
        // consumers: every item delivered exactly once (sum check), no
        // deadlock, clean drain after close.
        let q: BoundedQueue<u64> = BoundedQueue::new(8);
        let consumed = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        crossbeam::thread::scope(|scope| {
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|_| {
                        while let Some(v) = q.pop() {
                            consumed.fetch_add(v, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            let producers: Vec<_> = (0..4u64)
                .map(|p| {
                    let q = &q;
                    scope.spawn(move |_| {
                        for i in 0..500u64 {
                            q.push(p * 500 + i).unwrap();
                        }
                    })
                })
                .collect();
            for h in producers {
                h.join().unwrap();
            }
            q.close();
            for h in consumers {
                h.join().unwrap();
            }
        })
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 2000);
        assert_eq!(consumed.load(Ordering::Relaxed), (0..2000u64).sum());
    }
}
