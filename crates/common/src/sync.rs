//! Lock primitives of the engine and the sharding layer, switchable to the
//! `debug_locks` runtime witness.
//!
//! Without the feature these are plain `parking_lot` re-exports with zero
//! overhead. With `--features debug_locks` every lock is a
//! `bolt_common::debug_locks` tracked wrapper: nested acquisitions feed a
//! process-wide graph and the first lock-order cycle panics (see DESIGN.md
//! §10). Construct locks through [`named_mutex`] / [`named_rwlock`] so the
//! witness can report meaningful names; the declared global order lives in
//! `lint/lock_order.toml`, and the names must match it.

#[cfg(feature = "debug_locks")]
pub use crate::debug_locks::{
    TrackedCondvar as Condvar, TrackedMutex as Mutex, TrackedMutexGuard as MutexGuard,
    TrackedRwLock as RwLock,
};
#[cfg(not(feature = "debug_locks"))]
pub use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use std::sync::atomic::{AtomicUsize, Ordering};

/// `T` alone on its cache lines: a value that one thread writes, kept off
/// the lines another thread writes. 128 bytes, because x86 prefetches lines
/// in pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// How many threads can read side by side without writing a common line:
/// the slots of a [`PerReader`].
pub const READER_SLOTS: usize = 8;

/// The calling thread's reader slot, in `0..READER_SLOTS`: taken on the
/// thread's first call, round-robin, and kept for its life. The one slot
/// picker: every [`PerReader`] — the engine's view slots, the table cache's
/// stripes — indexes by it, so a thread's slots line up.
pub fn reader_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % READER_SLOTS;
    }
    SLOT.with(|slot| *slot)
}

/// One `T` per reader slot, each behind its own lock and on cache lines of
/// its own: a thread locks [`mine`](Self::mine), which only the threads of
/// its slot write.
pub struct PerReader<T>([CachePadded<Mutex<T>>; READER_SLOTS]);

impl<T> PerReader<T> {
    /// Slots made by `slot`, which names its lock (`named_mutex`).
    pub fn new(mut slot: impl FnMut() -> Mutex<T>) -> Self {
        PerReader(std::array::from_fn(|_| CachePadded(slot())))
    }

    /// The calling thread's slot.
    pub fn mine(&self) -> &Mutex<T> {
        &self.0[reader_slot()]
    }

    /// Every slot, in order.
    pub fn all(&self) -> impl Iterator<Item = &Mutex<T>> {
        self.0.iter().map(|slot| &slot.0)
    }
}

/// A mutex named in the lock-order graph when `debug_locks` is enabled; a
/// plain mutex otherwise.
pub fn named_mutex<T>(name: &'static str, value: T) -> Mutex<T> {
    #[cfg(feature = "debug_locks")]
    return Mutex::named(name, value);
    #[cfg(not(feature = "debug_locks"))]
    {
        let _ = name;
        Mutex::new(value)
    }
}

/// An RwLock named in the lock-order graph when `debug_locks` is enabled;
/// a plain RwLock otherwise.
pub fn named_rwlock<T>(name: &'static str, value: T) -> RwLock<T> {
    #[cfg(feature = "debug_locks")]
    return RwLock::named(name, value);
    #[cfg(not(feature = "debug_locks"))]
    {
        let _ = name;
        RwLock::new(value)
    }
}
