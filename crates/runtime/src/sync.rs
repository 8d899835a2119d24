//! Poison-recovering lock accessors.
//!
//! The runtime's shared state (waiter tables, pool slots, breaker
//! windows, dispatch registries) is guarded by `std::sync` locks. The
//! default accessors panic when a lock is poisoned — which turns one
//! panicking thread into a cascade: a dispatch worker that dies while
//! holding a slot lock would take every unrelated connection that later
//! touches the same lock down with it.
//!
//! None of the runtime's critical sections leave their data in a
//! half-written state that a later reader could misinterpret: they
//! insert/remove map entries, swap enum variants, or bump counters,
//! each of which is complete or not-yet-done at every panic point. So
//! the correct recovery is to take the guard and keep going, which is
//! what [`LockExt::plock`], [`RwLockExt::pread`] and
//! [`RwLockExt::pwrite`] do. Handler panics themselves are contained
//! at the dispatch boundary (see [`crate::dispatch::Dispatcher`]),
//! which converts them into a `SystemException` reply for that call
//! only.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Poison-recovering accessor for [`Mutex`].
pub trait LockExt<T> {
    /// Locks, recovering the guard from a poisoned lock instead of
    /// panicking.
    fn plock(&self) -> MutexGuard<'_, T>;
}

impl<T> LockExt<T> for Mutex<T> {
    fn plock(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Poison-recovering accessors for [`RwLock`].
pub trait RwLockExt<T> {
    /// Read-locks, recovering from poison instead of panicking.
    fn pread(&self) -> RwLockReadGuard<'_, T>;
    /// Write-locks, recovering from poison instead of panicking.
    fn pwrite(&self) -> RwLockWriteGuard<'_, T>;
}

impl<T> RwLockExt<T> for RwLock<T> {
    fn pread(&self) -> RwLockReadGuard<'_, T> {
        self.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn pwrite(&self) -> RwLockWriteGuard<'_, T> {
        self.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`Condvar::wait`], recovering the guard from poison.
pub fn cv_wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn plock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.plock();
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "lock really is poisoned");
        assert_eq!(*m.plock(), 7, "plock still hands out the guard");
        *m.plock() = 8;
        assert_eq!(*m.plock(), 8);
    }

    #[test]
    fn rwlock_accessors_recover_from_poison() {
        let l = Arc::new(RwLock::new(1u32));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.pwrite();
            panic!("poison the rwlock");
        })
        .join();
        assert_eq!(*l.pread(), 1);
        *l.pwrite() = 2;
        assert_eq!(*l.pread(), 2);
    }
}
