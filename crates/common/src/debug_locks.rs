//! Runtime lock-order witness (`--features debug_locks`).
//!
//! `TrackedMutex` / `TrackedRwLock` wrap `parking_lot` primitives and record
//! every *nested* acquisition — "thread held lock A when it acquired lock B" —
//! in a process-wide acquisition graph keyed by static lock names. The first
//! acquisition that would close a cycle in that graph (including re-acquiring
//! a lock the thread already holds) panics with the offending path, turning a
//! potential deadlock that a scheduler might never interleave into a
//! deterministic test failure.
//!
//! This is the dynamic counterpart of `bolt-lint`'s static **L2 lock-order**
//! rule (see `lint/lock_order.toml` and DESIGN.md §10): the static pass proves
//! the declared order is respected on every path it can see; running the test
//! suite with `debug_locks` witnesses the orders that actually execute,
//! including through trait objects and closures the lexical pass cannot
//! resolve.
//!
//! The graph is cumulative across the whole process, so a cycle is detected
//! even when its two halves run on different threads or in different tests.
//! Edges are recorded *before* blocking on the underlying lock — the witness
//! panics instead of deadlocking.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex as StdMutex;
use std::sync::OnceLock;
use std::time::Duration;

/// Name given to locks constructed without [`TrackedMutex::named`] /
/// [`TrackedRwLock::named`]. Unnamed locks are not tracked.
const UNNAMED: &str = "<unnamed>";

/// Process-wide acquisition graph: `held -> {acquired-while-held}`.
fn graph() -> &'static StdMutex<HashMap<&'static str, HashSet<&'static str>>> {
    static GRAPH: OnceLock<StdMutex<HashMap<&'static str, HashSet<&'static str>>>> =
        OnceLock::new();
    GRAPH.get_or_init(|| StdMutex::new(HashMap::new()))
}

thread_local! {
    /// Stack of tracked lock names this thread currently holds.
    static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// `true` when the current thread holds the tracked lock named `name`.
///
/// Used by I/O layers (e.g. the WAL writer) to assert that a barrier is not
/// issued under an engine lock — the runtime analogue of lint rule L1.
pub fn thread_holds(name: &str) -> bool {
    HELD.with(|held| held.borrow().contains(&name))
}

/// Is `to` reachable from `from` in the acquisition graph? On success returns
/// the path `from -> ... -> to` for diagnostics.
fn find_path(
    edges: &HashMap<&'static str, HashSet<&'static str>>,
    from: &'static str,
    to: &'static str,
) -> Option<Vec<&'static str>> {
    let mut stack = vec![(from, vec![from])];
    let mut seen = HashSet::new();
    while let Some((node, path)) = stack.pop() {
        if node == to {
            return Some(path);
        }
        if !seen.insert(node) {
            continue;
        }
        if let Some(nexts) = edges.get(node) {
            for &next in nexts {
                let mut p = path.clone();
                p.push(next);
                stack.push((next, p));
            }
        }
    }
    None
}

/// Record that the current thread is about to acquire `name`, checking the
/// graph for a cycle first. Panics on the first cycle found.
fn on_acquire(name: &'static str) {
    if name == UNNAMED {
        return;
    }
    HELD.with(|held| {
        let held = held.borrow();
        if held.is_empty() {
            return;
        }
        let mut edges = graph().lock().unwrap_or_else(|e| e.into_inner());
        for &h in held.iter() {
            if h == name {
                panic!(
                    "debug_locks: thread re-acquired `{name}` while already holding it \
                     (held stack: {held:?})"
                );
            }
            // Adding h -> name; a path name -> ... -> h means a cycle.
            if let Some(path) = find_path(&edges, name, h) {
                panic!(
                    "debug_locks: lock-order cycle — acquiring `{name}` while holding `{h}` \
                     contradicts recorded order {path:?} (held stack: {held:?})"
                );
            }
            edges.entry(h).or_default().insert(name);
        }
    });
    HELD.with(|held| held.borrow_mut().push(name));
}

/// Record that the current thread released `name` (the most recent hold).
fn on_release(name: &'static str) {
    if name == UNNAMED {
        return;
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&h| h == name) {
            held.remove(pos);
        }
    });
}

/// Snapshot of the recorded acquisition edges, for diagnostics and tests.
pub fn recorded_edges() -> Vec<(String, String)> {
    let edges = graph().lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<(String, String)> = edges
        .iter()
        .flat_map(|(a, bs)| bs.iter().map(move |b| (a.to_string(), b.to_string())))
        .collect();
    out.sort();
    out
}

/// A `parking_lot::Mutex` that reports acquisitions to the process-wide
/// lock-order graph.
pub struct TrackedMutex<T: ?Sized> {
    name: &'static str,
    inner: parking_lot::Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// An unnamed mutex: behaves like `parking_lot::Mutex` and is excluded
    /// from order tracking. Prefer [`TrackedMutex::named`].
    pub fn new(value: T) -> Self {
        Self::named(UNNAMED, value)
    }

    /// A mutex participating in the acquisition graph under `name`.
    pub fn named(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Acquire, recording the edge from every lock this thread holds.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        on_acquire(self.name);
        TrackedMutexGuard {
            name: self.name,
            inner: self.inner.lock(),
        }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: Default> Default for TrackedMutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("name", &self.name)
            .finish()
    }
}

/// Guard for [`TrackedMutex`]; releases the hold record on drop.
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    name: &'static str,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<'a, T: ?Sized> TrackedMutexGuard<'a, T> {
    /// Run `f` with the mutex unlocked, mirroring
    /// `parking_lot::MutexGuard::unlocked`. The hold record is popped for the
    /// duration of `f` so barriers issued inside are correctly seen as
    /// lock-free.
    pub fn unlocked<F, R>(s: &mut Self, f: F) -> R
    where
        F: FnOnce() -> R,
    {
        on_release(s.name);
        let r = parking_lot::MutexGuard::unlocked(&mut s.inner, f);
        on_acquire(s.name);
        r
    }
}

impl<'a, T: ?Sized> std::ops::Deref for TrackedMutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> std::ops::DerefMut for TrackedMutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<'a, T: ?Sized> Drop for TrackedMutexGuard<'a, T> {
    fn drop(&mut self) {
        on_release(self.name);
    }
}

/// A condition variable usable with [`TrackedMutexGuard`]. Waiting releases
/// the hold record (the mutex is atomically unlocked) and re-records it on
/// wakeup.
pub struct TrackedCondvar {
    inner: parking_lot::Condvar,
}

impl TrackedCondvar {
    /// A new condition variable.
    pub fn new() -> Self {
        Self {
            inner: parking_lot::Condvar::new(),
        }
    }

    /// Block until notified.
    pub fn wait<T>(&self, guard: &mut TrackedMutexGuard<'_, T>) {
        on_release(guard.name);
        self.inner.wait(&mut guard.inner);
        on_acquire(guard.name);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut TrackedMutexGuard<'_, T>,
        timeout: Duration,
    ) -> parking_lot::WaitTimeoutResult {
        on_release(guard.name);
        let r = self.inner.wait_for(&mut guard.inner, timeout);
        on_acquire(guard.name);
        r
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for TrackedCondvar {
    fn default() -> Self {
        Self::new()
    }
}

/// A `parking_lot::RwLock` that reports read and write acquisitions to the
/// process-wide lock-order graph (readers and writers are not distinguished
/// in the graph — either is a hold).
pub struct TrackedRwLock<T: ?Sized> {
    name: &'static str,
    inner: parking_lot::RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// An unnamed rwlock, excluded from order tracking.
    pub fn new(value: T) -> Self {
        Self::named(UNNAMED, value)
    }

    /// An rwlock participating in the acquisition graph under `name`.
    pub fn named(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Acquire shared, recording the edge from every lock this thread holds.
    pub fn read(&self) -> TrackedRwLockReadGuard<'_, T> {
        on_acquire(self.name);
        TrackedRwLockReadGuard {
            name: self.name,
            inner: self.inner.read(),
        }
    }

    /// Acquire exclusive, recording the edge from every lock this thread
    /// holds.
    pub fn write(&self) -> TrackedRwLockWriteGuard<'_, T> {
        on_acquire(self.name);
        TrackedRwLockWriteGuard {
            name: self.name,
            inner: self.inner.write(),
        }
    }
}

/// Shared guard for [`TrackedRwLock`].
pub struct TrackedRwLockReadGuard<'a, T: ?Sized> {
    name: &'static str,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<'a, T: ?Sized> std::ops::Deref for TrackedRwLockReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> Drop for TrackedRwLockReadGuard<'a, T> {
    fn drop(&mut self) {
        on_release(self.name);
    }
}

/// Exclusive guard for [`TrackedRwLock`].
pub struct TrackedRwLockWriteGuard<'a, T: ?Sized> {
    name: &'static str,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<'a, T: ?Sized> std::ops::Deref for TrackedRwLockWriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> std::ops::DerefMut for TrackedRwLockWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<'a, T: ?Sized> Drop for TrackedRwLockWriteGuard<'a, T> {
    fn drop(&mut self) {
        on_release(self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests share one process-wide graph, so each test uses lock names
    // unique to it.

    #[test]
    fn consistent_order_is_fine() {
        let a = TrackedMutex::named("t1.a", 1);
        let b = TrackedMutex::named("t1.b", 2);
        for _ in 0..3 {
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
        }
        assert!(recorded_edges().contains(&("t1.a".to_string(), "t1.b".to_string())));
    }

    #[test]
    fn cycle_panics() {
        let r = std::thread::spawn(|| {
            let a = TrackedMutex::named("t2.a", ());
            let b = TrackedMutex::named("t2.b", ());
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            // Reverse order: b -> a contradicts a -> b.
            let _gb = b.lock();
            let _ga = a.lock();
        })
        .join();
        assert!(r.is_err(), "reverse acquisition must panic");
    }

    #[test]
    fn cross_thread_cycle_panics() {
        let a = std::sync::Arc::new(TrackedMutex::named("t3.a", ()));
        let b = std::sync::Arc::new(TrackedMutex::named("t3.b", ()));
        {
            let (a, b) = (a.clone(), b.clone());
            std::thread::spawn(move || {
                let _ga = a.lock();
                let _gb = b.lock();
            })
            .join()
            .unwrap();
        }
        let r = std::thread::spawn(move || {
            let _gb = b.lock();
            let _ga = a.lock();
        })
        .join();
        assert!(r.is_err(), "cycle built across two threads must panic");
    }

    #[test]
    fn reacquire_same_lock_panics() {
        let r = std::thread::spawn(|| {
            let a = std::sync::Arc::new(TrackedMutex::named("t4.a", ()));
            let _g1 = a.lock();
            let _g2 = a.lock(); // self-deadlock: witness panics instead
        })
        .join();
        assert!(r.is_err());
    }

    #[test]
    fn unlocked_releases_hold() {
        let a = TrackedMutex::named("t5.a", ());
        let mut ga = a.lock();
        assert!(thread_holds("t5.a"));
        TrackedMutexGuard::unlocked(&mut ga, || {
            assert!(!thread_holds("t5.a"));
        });
        assert!(thread_holds("t5.a"));
        drop(ga);
        assert!(!thread_holds("t5.a"));
    }

    #[test]
    fn condvar_wait_releases_hold() {
        use std::sync::Arc;
        let pair = Arc::new((TrackedMutex::named("t6.a", false), TrackedCondvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn rwlock_tracks_read_and_write() {
        let m = TrackedMutex::named("t7.m", ());
        let rw = TrackedRwLock::named("t7.rw", 0u32);
        {
            let _g = m.lock();
            let _r = rw.read();
        }
        // Same order again via write: fine.
        let _g = m.lock();
        let mut w = rw.write();
        *w += 1;
        assert!(recorded_edges().contains(&("t7.m".to_string(), "t7.rw".to_string())));
    }

    #[test]
    fn rwlock_reverse_order_panics() {
        let r = std::thread::spawn(|| {
            let m = TrackedMutex::named("t8.m", ());
            let rw = TrackedRwLock::named("t8.rw", ());
            {
                let _g = m.lock();
                let _r = rw.read();
            }
            let _w = rw.write();
            let _g = m.lock();
        })
        .join();
        assert!(r.is_err());
    }
}
