//! The one single-flight cache behind both expensive compile products.
//!
//! Most of a compile's time is the §5.1 antichain enumeration, so the
//! system caches its two expensive products, and both caches are
//! instances of [`SingleFlightCache`]:
//!
//! - **pattern tables**, keyed by `(graph content hash, TableKey)` —
//!   [`crate::TableCache`] wraps an instance and adds a post-build
//!   persistence hook; every [`crate::Session`] holds one (a private
//!   instance, or a process-wide one via
//!   [`crate::Session::with_shared_tables`]);
//! - **whole compiles**, keyed by `(graph content hash, config content
//!   hash)` — the serving layer's artifact cache.
//!
//! Population is **single-flight**: when N callers race on one key, one
//! computes and N−1 block on the key's slot until the outcome lands, so a
//! burst of identical requests costs one computation. Outcomes are
//! `Result<Arc<T>, MpsError>`; errors are cached too (the pipeline is
//! deterministic, so an input that failed once fails identically), except
//! *transient* ones ([`MpsError::is_transient`]): a compute that died on
//! its caller's deadline says nothing about the next caller, so it
//! **abandons** its slot instead of publishing, exactly like a compute
//! that panics (a drop guard covers that path). Waiters of an abandoned
//! slot wake and re-claim with their own budgets.
//!
//! Waits are bounded by the waiter's own [`CancelToken`]: a wait ends at
//! the token's deadline and re-polls the explicit flag every 20 ms.
//! [`SingleFlightCache::get`] never computes and never waits: it answers
//! published outcomes only, so a caller can serve hits on its own thread
//! and hand only misses to wherever computes run.
//!
//! An optional [`CacheBudget`] caps the *published* outcomes by count and
//! by bytes, as charged by the cost function given at construction
//! (cached errors are charged a flat 256 B so an error storm still pushes
//! real results out). Admission evicts least-recently-used outcomes until
//! the budget holds; in-flight computes are never evicted, and holders of
//! an evicted `Arc` keep their value. The LRU index is keyed by a
//! monotone stamp, so admit, touch and evict each cost O(log n).

use crate::error::MpsError;
use mps_par::{CancelKind, CancelToken};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// What one computation produced: a shared value or an error.
pub type Outcome<T> = Result<Arc<T>, MpsError>;

/// Independent lock domains over the key space, so callers on different
/// keys never contend on one map.
const SHARDS: usize = 8;

/// Charged bytes of a cached error: small, but non-zero so an error storm
/// still pushes real results out of a byte-bounded cache.
const ERR_OUTCOME_BYTES: usize = 256;

/// How often a waiter re-polls its token's explicit cancel flag.
const CANCEL_POLL: Duration = Duration::from_millis(20);

/// Optional caps on published outcomes (`None` = unbounded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum published outcomes resident at once.
    pub max_entries: Option<usize>,
    /// Maximum total charged bytes resident at once.
    pub max_bytes: Option<usize>,
}

/// Where one key's computation stands.
enum SlotState<T> {
    /// A claimant is computing; waiters block on the condvar.
    Pending,
    /// The outcome is published.
    Ready(Outcome<T>),
    /// The claimant panicked or hit a transient error, and the slot is
    /// already unmapped: waiters re-claim the key.
    Abandoned,
}

/// One key's single-flight slot.
struct Slot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

impl<T> Slot<T> {
    fn new(state: SlotState<T>) -> Arc<Slot<T>> {
        Arc::new(Slot {
            state: Mutex::new(state),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, SlotState<T>> {
        self.state.lock().expect("cache slot poisoned")
    }

    fn publish(&self, outcome: Outcome<T>) {
        *self.lock() = SlotState::Ready(outcome);
        self.cv.notify_all();
    }

    /// Block until the claimant publishes (`Ok(Some)`) or abandons
    /// (`Ok(None)`), or until the waiter's own `cancel` fires.
    fn wait(&self, cancel: Option<&CancelToken>) -> Result<Option<Outcome<T>>, CancelKind> {
        let mut state = self.lock();
        loop {
            match &*state {
                SlotState::Ready(outcome) => return Ok(Some(outcome.clone())),
                SlotState::Abandoned => return Ok(None),
                SlotState::Pending => {}
            }
            state = match cancel {
                None => self.cv.wait(state).expect("cache slot poisoned"),
                Some(token) => {
                    if let Some(kind) = token.cancel_kind() {
                        return Err(kind);
                    }
                    let nap = token
                        .remaining()
                        .map_or(CANCEL_POLL, |r| r.min(CANCEL_POLL));
                    self.cv
                        .wait_timeout(state, nap)
                        .expect("cache slot poisoned")
                        .0
                }
            };
        }
    }
}

/// LRU bookkeeping over the published outcomes.
struct Lru<K> {
    /// Stamp → key, oldest first.
    order: BTreeMap<u64, K>,
    /// Key → (current stamp, charged bytes).
    resident: HashMap<K, (u64, usize)>,
    bytes: usize,
    clock: u64,
}

impl<K: Copy + Eq + Hash> Lru<K> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn admit(&mut self, key: K, bytes: usize) {
        let stamp = self.tick();
        if let Some((old, old_bytes)) = self.resident.insert(key, (stamp, bytes)) {
            self.order.remove(&old);
            self.bytes -= old_bytes;
        }
        self.order.insert(stamp, key);
        self.bytes += bytes;
    }

    fn touch(&mut self, key: &K) {
        let stamp = self.tick();
        if let Some((old, _)) = self.resident.get_mut(key) {
            self.order.remove(old);
            *old = stamp;
            self.order.insert(stamp, *key);
        }
    }

    fn over(&self, budget: &CacheBudget) -> bool {
        budget.max_entries.is_some_and(|m| self.resident.len() > m)
            || budget.max_bytes.is_some_and(|m| self.bytes > m)
    }

    fn pop_oldest(&mut self) -> Option<K> {
        let (_, key) = self.order.pop_first()?;
        let (_, bytes) = self.resident.remove(&key).expect("LRU index in sync");
        self.bytes -= bytes;
        Some(key)
    }
}

/// A sharded, single-flight map from `K` to [`Outcome<T>`] with an
/// optional LRU [`CacheBudget`] and hit/miss/eviction counters. See the
/// [module docs](self) for the full contract.
pub struct SingleFlightCache<K, T> {
    shards: [Mutex<HashMap<K, Arc<Slot<T>>>>; SHARDS],
    shard_hasher: RandomState,
    /// Lock order: `lru` may take a shard lock (eviction), never the
    /// reverse.
    lru: Mutex<Lru<K>>,
    budget: CacheBudget,
    cost: fn(&T) -> usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Unmaps and abandons a claimed slot unless forgotten — the path that
/// runs when a compute panics or returns a transient error.
struct AbandonOnDrop<'a, K: Copy + Eq + Hash, T> {
    cache: &'a SingleFlightCache<K, T>,
    key: K,
    slot: &'a Arc<Slot<T>>,
}

impl<K: Copy + Eq + Hash, T> Drop for AbandonOnDrop<'_, K, T> {
    fn drop(&mut self) {
        // This runs while a panicking compute unwinds, so it must not
        // panic itself: a poisoned lock is skipped, not unwrapped.
        if let Ok(mut shard) = self.cache.shards[self.cache.shard_index(&self.key)].lock() {
            if shard
                .get(&self.key)
                .is_some_and(|s| Arc::ptr_eq(s, self.slot))
            {
                shard.remove(&self.key);
            }
        }
        if let Ok(mut state) = self.slot.state.lock() {
            *state = SlotState::Abandoned;
        }
        self.slot.cv.notify_all();
    }
}

impl<K: Copy + Eq + Hash, T> SingleFlightCache<K, T> {
    /// An empty cache under `budget`, charging each published value
    /// `cost(value)` bytes.
    pub fn new(budget: CacheBudget, cost: fn(&T) -> usize) -> SingleFlightCache<K, T> {
        SingleFlightCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            shard_hasher: RandomState::new(),
            lru: Mutex::new(Lru {
                order: BTreeMap::new(),
                resident: HashMap::new(),
                bytes: 0,
                clock: 0,
            }),
            budget,
            cost,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_index(&self, key: &K) -> usize {
        self.shard_hasher.hash_one(key) as usize % SHARDS
    }

    fn shard(&self, key: &K) -> MutexGuard<'_, HashMap<K, Arc<Slot<T>>>> {
        self.shards[self.shard_index(key)]
            .lock()
            .expect("cache shard poisoned")
    }

    fn lru(&self) -> MutexGuard<'_, Lru<K>> {
        self.lru.lock().expect("cache LRU poisoned")
    }

    /// Fetch the outcome for `key`, running `compute` if no published or
    /// in-flight outcome exists. Returns the outcome and whether it was a
    /// hit (`true` = this call did not run `compute`; a hit may have
    /// waited on another caller's in-flight compute).
    ///
    /// `cancel` bounds only the *wait* on someone else's compute — a call
    /// that claims the key runs `compute` to completion (which is
    /// expected to watch the same token). `Err(kind)` means the wait was
    /// cancelled; it counts neither a hit nor a miss.
    pub fn get_or_compute(
        &self,
        key: K,
        cancel: Option<&CancelToken>,
        compute: impl FnOnce() -> Outcome<T>,
    ) -> Result<(Outcome<T>, bool), CancelKind> {
        // `compute` runs at most once: the claiming arm consumes it and
        // returns; the waiting arm only loops back after an abandonment.
        let mut compute = Some(compute);
        loop {
            let (slot, claimed) = {
                let mut shard = self.shard(&key);
                match shard.get(&key) {
                    Some(slot) => (Arc::clone(slot), false),
                    None => {
                        let slot = Slot::new(SlotState::Pending);
                        shard.insert(key, Arc::clone(&slot));
                        (slot, true)
                    }
                }
            };
            if !claimed {
                // Wait outside the shard lock so other keys stay available.
                let Some(outcome) = slot.wait(cancel)? else {
                    continue;
                };
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.lru().touch(&key);
                return Ok((outcome, true));
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            let guard = AbandonOnDrop {
                cache: self,
                key,
                slot: &slot,
            };
            let outcome = (compute.take().expect("claim happens at most once"))();
            if !matches!(&outcome, Err(e) if e.is_transient()) {
                std::mem::forget(guard);
                slot.publish(outcome.clone());
                self.admit(key, &outcome);
            }
            return Ok((outcome, false));
        }
    }

    /// Insert an already-computed outcome (warm starts, peer handoff). An
    /// existing entry — published *or* in flight — wins and the seed is
    /// dropped, so seeding never clobbers live state; an inserted seed
    /// is admitted under the budget like a computed outcome. Returns
    /// `true` if inserted. Counts neither a hit nor a miss.
    pub fn seed(&self, key: K, outcome: Outcome<T>) -> bool {
        {
            let mut shard = self.shard(&key);
            if shard.contains_key(&key) {
                return false;
            }
            shard.insert(key, Slot::new(SlotState::Ready(outcome.clone())));
        }
        self.admit(key, &outcome);
        true
    }

    /// The published outcome for `key` — a value or a cached error —
    /// without computing and without waiting: in-flight and absent keys
    /// answer `None`. A returned outcome counts as a hit and refreshes the
    /// key's LRU stamp, exactly like a hit through
    /// [`get_or_compute`](Self::get_or_compute).
    pub fn get(&self, key: K) -> Option<Outcome<T>> {
        let outcome = self.published(&key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.lru().touch(&key);
        Some(outcome)
    }

    /// The published *successful* value for `key`, if resident, without
    /// blocking and without refreshing its LRU stamp. In-flight computes,
    /// cached errors and absent keys all answer `None`.
    pub fn peek(&self, key: K) -> Option<Arc<T>> {
        self.published(&key)?.ok()
    }

    /// The published outcome for `key`, counting and touching nothing.
    fn published(&self, key: &K) -> Option<Outcome<T>> {
        let slot = Arc::clone(self.shard(key).get(key)?);
        let state = slot.lock();
        match &*state {
            SlotState::Ready(outcome) => Some(outcome.clone()),
            _ => None,
        }
    }

    /// Record a published outcome and evict least-recently-used entries
    /// until the budget holds. The admitted entry carries the freshest
    /// stamp, so it goes last — but one outcome larger than the whole
    /// byte budget does evict itself.
    fn admit(&self, key: K, outcome: &Outcome<T>) {
        let bytes = match outcome {
            Ok(value) => (self.cost)(value),
            Err(_) => ERR_OUTCOME_BYTES,
        };
        let mut lru = self.lru();
        lru.admit(key, bytes);
        while lru.over(&self.budget) {
            let Some(victim) = lru.pop_oldest() else {
                break;
            };
            self.shard(&victim).remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Distinct keys (published and in flight) currently held.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// `true` when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls answered without computing (including waits on in-flight
    /// computes).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Calls that ran the compute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Published outcomes pushed out by the budget since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total charged bytes of the published outcomes currently held.
    pub fn resident_bytes(&self) -> usize {
        self.lru().bytes
    }
}

impl<K: Copy + Eq + Hash, T> fmt::Debug for SingleFlightCache<K, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SingleFlightCache")
            .field("len", &self.len())
            .field("budget", &self.budget)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Stage;
    use mps_scheduler::ScheduleError;
    use std::sync::Barrier;

    type Cache = SingleFlightCache<(u64, u64), u64>;

    /// Values are charged their own magnitude in bytes.
    fn cache(max_entries: Option<usize>, max_bytes: Option<usize>) -> Cache {
        SingleFlightCache::new(
            CacheBudget {
                max_entries,
                max_bytes,
            },
            |v| *v as usize,
        )
    }

    fn value(v: u64) -> impl FnOnce() -> Outcome<u64> {
        move || Ok(Arc::new(v))
    }

    /// A call that must compute (and publish) `v` under `key`.
    fn miss(cache: &Cache, key: (u64, u64), v: u64) {
        let (outcome, hit) = cache.get_or_compute(key, None, value(v)).unwrap();
        assert!(!hit && outcome.is_ok());
    }

    fn deadline_error() -> Outcome<u64> {
        Err(MpsError::DeadlineExceeded {
            stage: Stage::Enumerate,
        })
    }

    #[test]
    fn second_request_hits() {
        let cache = cache(None, None);
        let (a, hit_a) = cache.get_or_compute((1, 2), None, value(7)).unwrap();
        let (b, hit_b) = cache
            .get_or_compute((1, 2), None, || panic!("must not recompute"))
            .unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(a.as_ref().unwrap(), b.as_ref().unwrap()));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        // A different key computes independently.
        let (_, hit_c) = cache.get_or_compute((1, 3), None, value(7)).unwrap();
        assert!(!hit_c);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn errors_are_cached_outcomes_too() {
        let cache = cache(None, None);
        let fail = || Err(MpsError::from(ScheduleError::NoPatterns));
        let (a, _) = cache.get_or_compute((9, 9), None, fail).unwrap();
        let (b, hit) = cache
            .get_or_compute((9, 9), None, || panic!("must not recompute"))
            .unwrap();
        assert!(a.is_err() && b.is_err() && hit);
        assert_eq!(cache.resident_bytes(), ERR_OUTCOME_BYTES);
        assert!(cache.peek((9, 9)).is_none(), "peek answers successes only");
    }

    #[test]
    fn racing_identical_requests_compute_once() {
        let cache = cache(None, None);
        let computes = AtomicU64::new(0);
        let outcomes = mps_par::par_map_in(4, &[(); 8], |_| {
            let (outcome, hit) = cache
                .get_or_compute((5, 5), None, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(20));
                    Ok(Arc::new(42))
                })
                .unwrap();
            (*outcome.unwrap(), hit)
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight");
        assert_eq!(outcomes.iter().filter(|(_, hit)| !hit).count(), 1);
        assert!(outcomes.iter().all(|(v, _)| *v == 42));
        assert_eq!((cache.misses(), cache.hits()), (1, 7));
    }

    #[test]
    fn transient_outcomes_are_not_cached() {
        let cache = cache(None, None);
        let (a, hit_a) = cache.get_or_compute((4, 4), None, deadline_error).unwrap();
        assert!(a.is_err() && !hit_a);
        assert_eq!(cache.len(), 0, "transient outcomes must not be cached");
        // The next caller with a fresh budget recomputes — and its
        // success is cached normally.
        let (b, hit_b) = cache.get_or_compute((4, 4), None, value(3)).unwrap();
        assert!(b.is_ok() && !hit_b);
        assert_eq!((cache.misses(), cache.len()), (2, 1));
    }

    #[test]
    fn panicked_compute_abandons_and_waiters_recover() {
        let cache = cache(None, None);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_compute((7, 7), None, || panic!("chaos"));
        }));
        assert!(panicked.is_err());
        assert_eq!(cache.len(), 0, "panicked compute must clear its slot");

        // Concurrent shape: a claimer panics while a waiter blocks; the
        // waiter must wake, re-claim, and compute for real.
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let claimer = s.spawn(|| {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = cache.get_or_compute((7, 7), None, || {
                        barrier.wait();
                        std::thread::sleep(Duration::from_millis(30));
                        panic!("chaos mid-flight")
                    });
                }));
                assert!(result.is_err());
            });
            barrier.wait();
            let (outcome, hit) = cache.get_or_compute((7, 7), None, value(1)).unwrap();
            assert!(outcome.is_ok());
            assert!(!hit, "the waiter re-claims after the abandonment");
            claimer.join().unwrap();
        });
        assert_eq!(cache.len(), 1);
    }

    /// Run `wait` as a waiter on key (3, 3) while another thread holds
    /// the claim, and only then let the claim publish.
    fn wait_behind_claim(cache: &Cache, wait: impl FnOnce()) {
        let barrier = &Barrier::new(2);
        let (release, released) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let claimer = s.spawn(move || {
                cache
                    .get_or_compute((3, 3), None, || {
                        barrier.wait();
                        released.recv().expect("waiter releases the claim");
                        Ok(Arc::new(3))
                    })
                    .unwrap()
            });
            barrier.wait();
            wait();
            release.send(()).unwrap();
            assert!(claimer.join().unwrap().0.is_ok());
        });
    }

    #[test]
    fn waiter_deadline_times_out() {
        let cache = cache(None, None);
        wait_behind_claim(&cache, || {
            let token = CancelToken::with_deadline(Duration::from_millis(5));
            let timed_out = cache.get_or_compute((3, 3), Some(&token), || {
                panic!("the slot is claimed; the waiter must not compute")
            });
            assert_eq!(timed_out.unwrap_err(), CancelKind::DeadlineExceeded);
        });
        // The timed-out wait counted neither hit nor miss; the slot
        // published normally behind it.
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        let (_, hit) = cache
            .get_or_compute((3, 3), None, || panic!("published — must not recompute"))
            .unwrap();
        assert!(hit);
    }

    #[test]
    fn explicit_cancel_ends_the_wait() {
        let cache = cache(None, None);
        wait_behind_claim(&cache, || {
            // No deadline: only the polled flag can end this wait.
            let token = CancelToken::new();
            std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(10));
                    token.cancel();
                });
                let cancelled = cache.get_or_compute((3, 3), Some(&token), || {
                    panic!("the slot is claimed; the waiter must not compute")
                });
                assert_eq!(cancelled.unwrap_err(), CancelKind::Cancelled);
            });
        });
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    fn entry_budget_evicts_least_recently_used() {
        let cache = cache(Some(2), None);
        miss(&cache, (1, 1), 1);
        miss(&cache, (2, 2), 1);
        // Touch (1,1) so (2,2) becomes the LRU victim.
        let (_, hit) = cache
            .get_or_compute((1, 1), None, || panic!("cached"))
            .unwrap();
        assert!(hit);
        miss(&cache, (3, 3), 1);
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        // The touched key survived the eviction; the stale one did not
        // (and recomputing it evicts again — the budget always holds).
        let (_, hit) = cache
            .get_or_compute((1, 1), None, || panic!("cached"))
            .unwrap();
        assert!(hit, "(1,1) was touched and must survive");
        let (_, hit) = cache.get_or_compute((2, 2), None, value(1)).unwrap();
        assert!(!hit, "(2,2) was evicted as least recently used");
        assert_eq!((cache.len(), cache.evictions()), (2, 2));
    }

    #[test]
    fn seeding_warm_starts_without_clobbering_or_busting_budgets() {
        let cache = cache(Some(2), None);
        assert!(cache.seed((1, 1), Ok(Arc::new(1))));
        // A seeded key serves without recomputing and counts as a hit.
        let (outcome, hit) = cache
            .get_or_compute((1, 1), None, || panic!("seeded — must not recompute"))
            .unwrap();
        assert!(hit && outcome.is_ok());
        // Seeding an occupied key is refused, live state wins.
        assert!(!cache.seed((1, 1), Ok(Arc::new(9))));
        assert_eq!(cache.peek((1, 1)).as_deref(), Some(&1));
        // Seeds are budget-admitted like computed outcomes: the third
        // seed evicts the least recently used entry.
        assert!(cache.seed((2, 2), Ok(Arc::new(1))));
        assert!(cache.seed((3, 3), Ok(Arc::new(1))));
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        // Neither seeding nor refusal counted requests.
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn byte_budget_bounds_resident_bytes() {
        // Room for one 100-byte value but not two.
        let cache = cache(None, Some(150));
        miss(&cache, (1, 1), 100);
        assert_eq!(cache.resident_bytes(), 100);
        miss(&cache, (2, 2), 100);
        assert_eq!((cache.len(), cache.evictions()), (1, 1));
        assert_eq!(cache.resident_bytes(), 100);
        // A value larger than the whole budget evicts itself.
        let (outcome, _) = cache.get_or_compute((3, 3), None, value(200)).unwrap();
        assert_eq!(*outcome.unwrap(), 200, "the caller still gets its value");
        assert_eq!((cache.len(), cache.resident_bytes()), (0, 0));
    }

    #[test]
    fn peek_skips_the_lru_touch() {
        let cache = cache(Some(2), None);
        miss(&cache, (1, 1), 1);
        miss(&cache, (2, 2), 2);
        // Peeking the older key must not save it from eviction.
        assert_eq!(cache.peek((1, 1)).as_deref(), Some(&1));
        assert_eq!(cache.peek((4, 4)), None);
        miss(&cache, (3, 3), 3);
        assert_eq!(cache.peek((1, 1)), None, "(1,1) stayed least recently used");
        assert_eq!(cache.peek((2, 2)).as_deref(), Some(&2));
        assert_eq!(
            (cache.hits(), cache.misses()),
            (0, 3),
            "peeks count nothing"
        );
    }

    #[test]
    fn get_answers_published_outcomes_only() {
        let cache = cache(None, None);
        assert!(cache.get((1, 1)).is_none(), "absent keys answer None");
        // A claimed key is pending: `get` neither waits for it nor
        // computes (it returns while the claim is still held).
        wait_behind_claim(&cache, || assert!(cache.get((3, 3)).is_none()));
        assert_eq!(
            (cache.hits(), cache.misses()),
            (0, 1),
            "None counts nothing"
        );
        // Once published, `get` returns the very same value and counts it.
        let published = cache.peek((3, 3)).expect("the claim published");
        let got = cache.get((3, 3)).expect("published").unwrap();
        assert!(Arc::ptr_eq(&got, &published));
        // Cached errors are published outcomes too.
        let fail = || Err(MpsError::from(ScheduleError::NoPatterns));
        let (failed, _) = cache.get_or_compute((9, 9), None, fail).unwrap();
        assert!(failed.is_err());
        assert!(cache.get((9, 9)).expect("cached error").is_err());
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn get_touches_the_lru() {
        let cache = cache(Some(2), None);
        miss(&cache, (1, 1), 1);
        miss(&cache, (2, 2), 2);
        // Unlike a peek, a get saves the older key from eviction.
        assert_eq!(cache.get((1, 1)).unwrap().unwrap().as_ref(), &1);
        miss(&cache, (3, 3), 3);
        assert_eq!(cache.peek((2, 2)), None, "(2,2) became least recently used");
        assert_eq!(cache.peek((1, 1)).as_deref(), Some(&1));
        assert_eq!((cache.hits(), cache.evictions()), (1, 1));
    }

    /// The naive reference: a `Vec` in LRU order (oldest first) with
    /// linear scans for everything.
    #[derive(Default)]
    struct Model {
        entries: Vec<((u64, u64), Option<u64>, usize)>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl Model {
        fn admit(&mut self, key: (u64, u64), value: Option<u64>, budget: CacheBudget) {
            let bytes = value.map_or(ERR_OUTCOME_BYTES, |v| v as usize);
            self.entries.push((key, value, bytes));
            loop {
                let total: usize = self.entries.iter().map(|e| e.2).sum();
                let over = budget.max_entries.is_some_and(|m| self.entries.len() > m)
                    || budget.max_bytes.is_some_and(|m| total > m);
                if !over {
                    break;
                }
                self.entries.remove(0);
                self.evictions += 1;
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random `get_or_compute` / `seed` / `peek` / `get` sequences over small
        /// budgets agree with the naive model step for step: hit flags,
        /// counters, and the resident key set with its values.
        #[test]
        fn matches_a_naive_lru_model(
            max_entries in proptest::option::of(1usize..4),
            max_bytes in proptest::option::of(100usize..700),
            ops in proptest::collection::vec((0u8..4, 0u64..6, 0u8..4, 1u64..300), 1..60),
        ) {
            let budget = CacheBudget { max_entries, max_bytes };
            let cache = cache(max_entries, max_bytes);
            let mut model = Model::default();
            for (op, k, kind, v) in ops {
                let key = (k, k);
                // kind 0 = cached error, 1 = transient error, else a value.
                let outcome = || match kind {
                    0 => Err(MpsError::from(ScheduleError::NoPatterns)),
                    1 => deadline_error(),
                    _ => Ok(Arc::new(v)),
                };
                let pos = model.entries.iter().position(|e| e.0 == key);
                match op {
                    0 => {
                        let (_, hit) = cache.get_or_compute(key, None, outcome).unwrap();
                        prop_assert_eq!(hit, pos.is_some());
                        match pos {
                            Some(i) => {
                                model.hits += 1;
                                let entry = model.entries.remove(i);
                                model.entries.push(entry);
                            }
                            None => {
                                model.misses += 1;
                                if kind != 1 {
                                    model.admit(key, (kind >= 2).then_some(v), budget);
                                }
                            }
                        }
                    }
                    1 => {
                        prop_assert_eq!(cache.seed(key, outcome()), pos.is_none());
                        if pos.is_none() {
                            model.admit(key, (kind >= 2).then_some(v), budget);
                        }
                    }
                    2 => {
                        let want = pos.and_then(|i| model.entries[i].1);
                        prop_assert_eq!(cache.peek(key).as_deref().copied(), want);
                    }
                    _ => {
                        // Published: `Some(value)` or `Some(None)` for a
                        // cached error; absent keys answer `None`.
                        let got = cache.get(key).map(|o| o.ok().map(|v| *v));
                        prop_assert_eq!(got, pos.map(|i| model.entries[i].1));
                        if let Some(i) = pos {
                            model.hits += 1;
                            let entry = model.entries.remove(i);
                            model.entries.push(entry);
                        }
                    }
                }
                prop_assert_eq!(
                    (cache.hits(), cache.misses(), cache.evictions()),
                    (model.hits, model.misses, model.evictions)
                );
                let mut resident: Vec<(u64, u64)> = cache.lru().resident.keys().copied().collect();
                resident.sort_unstable();
                let mut expected: Vec<(u64, u64)> = model.entries.iter().map(|e| e.0).collect();
                expected.sort_unstable();
                prop_assert_eq!(resident, expected);
                prop_assert_eq!(cache.len(), model.entries.len());
                prop_assert_eq!(
                    cache.resident_bytes(),
                    model.entries.iter().map(|e| e.2).sum::<usize>()
                );
            }
        }
    }
}
