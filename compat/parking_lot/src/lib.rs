//! Minimal offline stand-in for `parking_lot`: std-backed `Mutex`,
//! `RwLock` and `Condvar` with parking_lot's panic-free, guard-returning
//! API (poisoning is swallowed, as parking_lot has none).
//!
//! Debug builds additionally run a **lock-order detector** (see
//! [`order`]-module docs): every lock gets a site ID, each thread tracks
//! the locks it holds, and a global order graph panics on the first
//! cyclic acquisition order — naming both acquisition sites — instead of
//! letting a rare interleaving deadlock a test run. Release builds
//! compile all of it away; `BRB_LOCK_ORDER=0` disables it at runtime.

use std::fmt;
use std::ops::{Deref, DerefMut};
#[cfg(debug_assertions)]
use std::panic::Location;
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicU32;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, RwLock as StdRwLock,
    RwLockReadGuard as StdRwLockReadGuard, RwLockWriteGuard as StdRwLockWriteGuard,
};

#[cfg(debug_assertions)]
mod order;

/// A mutex whose `lock` returns the guard directly (no poisoning).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    id: AtomicU32,
    inner: StdMutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    lock_id: u32,
    /// `Option` so `Condvar::wait` can temporarily take the std guard.
    inner: Option<StdMutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(debug_assertions)]
            id: AtomicU32::new(0),
            inner: StdMutex::new(value),
        }
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let lock_id = {
            let id = order::lock_id(&self.id);
            order::acquire(id, Location::caller());
            id
        };
        MutexGuard {
            #[cfg(debug_assertions)]
            lock_id,
            inner: Some(match self.inner.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }),
        }
    }
}

impl<'a, T: ?Sized> Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<'a, T: ?Sized> DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<'a, T: ?Sized> Drop for MutexGuard<'a, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        order::release(self.lock_id);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// A condition variable compatible with [`Mutex`].
///
/// Like the real `parking_lot`, a notify with nobody parked is free: the
/// condvar counts its waiters and skips the wake syscall at zero. A
/// waiter registers while it still holds the mutex, so a notifier that
/// changed the predicate under that mutex (or bracketed it after the
/// change) always sees the registration.
#[derive(Default)]
pub struct Condvar {
    inner: StdCondvar,
    waiters: AtomicUsize,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: StdCondvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Atomically releases the guard's lock and waits; re-acquires before
    /// returning (parking_lot signature: mutates the guard in place).
    #[track_caller]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard taken");
        // The lock is genuinely released while parked; mirror that in the
        // held-lock stack so cross-lock waits don't fabricate edges.
        #[cfg(debug_assertions)]
        order::release(guard.lock_id);
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = match self.inner.wait(inner) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        #[cfg(debug_assertions)]
        order::acquire(guard.lock_id, Location::caller());
        guard.inner = Some(inner);
    }

    /// Wakes one waiter, if any is parked.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_one();
        }
    }

    /// Wakes all waiters, if any is parked.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_all();
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

/// A reader-writer lock whose guards come back without `Result`.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    id: AtomicU32,
    inner: StdRwLock<T>,
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    lock_id: u32,
    inner: StdRwLockReadGuard<'a, T>,
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    lock_id: u32,
    inner: StdRwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            #[cfg(debug_assertions)]
            id: AtomicU32::new(0),
            inner: StdRwLock::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let lock_id = {
            let id = order::lock_id(&self.id);
            order::acquire(id, Location::caller());
            id
        };
        RwLockReadGuard {
            #[cfg(debug_assertions)]
            lock_id,
            inner: match self.inner.read() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            },
        }
    }

    /// Acquires an exclusive write guard.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let lock_id = {
            let id = order::lock_id(&self.id);
            order::acquire(id, Location::caller());
            id
        };
        RwLockWriteGuard {
            #[cfg(debug_assertions)]
            lock_id,
            inner: match self.inner.write() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            },
        }
    }
}

impl<'a, T: ?Sized> Deref for RwLockReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> Drop for RwLockReadGuard<'a, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        order::release(self.lock_id);
    }
}

impl<'a, T: ?Sized> Deref for RwLockWriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> DerefMut for RwLockWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<'a, T: ?Sized> Drop for RwLockWriteGuard<'a, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        order::release(self.lock_id);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::{Condvar, Mutex};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    /// The stop-flag pattern: the predicate is an atomic written outside
    /// the mutex, and the notifier brackets the mutex between the store
    /// and the notify. A notify issued while the waiter sits between its
    /// predicate check and its park must still wake it — the waiter
    /// registers before it releases the mutex, so the bracketed notifier
    /// cannot see a zero waiter count.
    #[test]
    fn notify_between_check_and_park_is_not_lost() {
        let shared = Arc::new((Mutex::new(()), Condvar::new(), AtomicBool::new(false)));
        let (checked_tx, checked_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (lock, cv, stop) = &*shared;
                let mut guard = lock.lock();
                let mut announced = false;
                while !stop.load(Ordering::SeqCst) {
                    if !announced {
                        // Predicate checked, lock still held: the
                        // notifier now runs its whole sequence while
                        // this thread is on its way to park.
                        checked_tx.send(()).unwrap();
                        announced = true;
                    }
                    cv.wait(&mut guard);
                }
                done_tx.send(()).unwrap();
            })
        };
        checked_rx.recv().unwrap();
        let (lock, cv, stop) = &*shared;
        stop.store(true, Ordering::SeqCst);
        drop(lock.lock());
        cv.notify_all();
        // The timeout only turns a lost wakeup into a failure instead of
        // a hung test run; the interleaving itself is forced above.
        assert_eq!(
            done_rx.recv_timeout(Duration::from_secs(10)),
            Ok(()),
            "notify landed between check and park and was lost"
        );
        waiter.join().unwrap();
    }

    /// Notifies with nobody parked skip the wake entirely; the count
    /// returns to zero after every wait.
    #[test]
    fn waiter_count_tracks_parked_threads() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let (lock, cv) = &*shared;
        cv.notify_one();
        cv.notify_all();
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
        let waiter = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (lock, cv) = &*shared;
                let mut ready = lock.lock();
                while !*ready {
                    cv.wait(&mut ready);
                }
            })
        };
        while cv.waiters.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        *lock.lock() = true;
        cv.notify_one();
        waiter.join().unwrap();
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }
}
