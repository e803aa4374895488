//! Minimal, dependency-free stand-in for the `parking_lot` crate.
//!
//! Wraps the std locks with `parking_lot`'s non-poisoning API: `lock()`
//! returns the guard directly. A panic while holding a lock ignores the
//! poison flag on the next acquisition, matching `parking_lot`'s
//! behaviour closely enough for this workspace.

#![deny(unsafe_code)]

use std::fmt;
use std::sync::{self, TryLockError};

/// Mutual exclusion lock; `lock()` never fails.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Create a mutex guarding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is acquired.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Acquire the lock if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Mutex<T> {
        Mutex::new(value)
    }
}

/// Reader-writer lock; `read()`/`write()` never fail.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Create a lock guarding `value`.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Block until a shared read guard is acquired.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Acquire a shared read guard if that needs no wait right now: `None`
    /// while a writer holds the lock or waits for it.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Block until the exclusive write guard is acquired.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            None => f.write_str("RwLock { <locked> }"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Arc::new(Mutex::new(0u64));
        let mut joins = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            joins.push(thread::spawn(move || {
                for _ in 0..1000 {
                    *m.lock() += 1;
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m = Mutex::new(());
        let _g = m.lock();
        assert!(m.try_lock().is_none());
    }

    #[test]
    fn rwlock_allows_parallel_readers() {
        let l = RwLock::new(5);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 10);
    }

    #[test]
    fn try_read_shares_with_readers_and_yields_to_a_writer() {
        let l = RwLock::new(5);
        {
            let _r = l.read();
            assert_eq!(l.try_read().map(|g| *g), Some(5));
        }
        let w = l.write();
        assert!(l.try_read().is_none());
        drop(w);
        assert_eq!(l.try_read().map(|g| *g), Some(5));
        // A writer that panicked leaves the value readable.
        let l = Arc::new(l);
        let poisoner = l.clone();
        let _ = thread::spawn(move || {
            let _w = poisoner.write();
            panic!("poison");
        })
        .join();
        assert_eq!(l.try_read().map(|g| *g), Some(5));
    }
}
