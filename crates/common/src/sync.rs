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
