//! Poison-recovering wrappers over `std::sync`.
//!
//! `std`'s locks poison themselves when a holder panics, turning every
//! later `lock()` into a `Result` that production code has to `unwrap()`
//! or `expect()`. For this workspace the protected state is either
//! rebuilt on reconnect (peer maps, pending tables) or guarded by its
//! own integrity checks (the WAL's CRC framing), so recovering the inner
//! value is always the right move. These wrappers do exactly that and
//! nothing else — same shapes, same guard semantics, no `Result`.

use std::sync::{PoisonError, TryLockError};
use std::time::Duration;

/// A mutual-exclusion lock whose `lock()` cannot fail.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Wrap `value` in a new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex and return the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, recovering the data if a previous holder
    /// panicked.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the lock only if no one holds it, recovering the data if
    /// a previous holder panicked; `None` when it is held. Never blocks.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose `read()`/`write()` cannot fail.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Wrap `value` in a new unlocked rwlock.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard, recovering from poison.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire an exclusive write guard, recovering from poison.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable paired with [`Mutex`]; waits recover from
/// poison just like the lock itself.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// New condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Block until notified, releasing `guard` while parked.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until notified or `timeout` elapses; the boolean is `true`
    /// when the wait timed out.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (guard, result) = self
            .0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (guard, result.timed_out())
    }

    /// Wake one parked waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every parked waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_recovers_after_a_panicked_holder() {
        let m = Arc::new(Mutex::new(41));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // A std mutex would now return Err; ours hands the data back.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn try_lock_refuses_a_held_lock_and_recovers_a_poisoned_one() {
        let m = Arc::new(Mutex::new(1));
        {
            let _held = m.lock();
            assert!(m.try_lock().is_none());
        }
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.try_lock().expect("free again") += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_recovers_after_a_panicked_writer() {
        let l = Arc::new(RwLock::new(vec![1, 2, 3]));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        assert_eq!(l.read().len(), 3);
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }

    #[test]
    fn condvar_handshake_works() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut ready = m.lock();
        while !*ready {
            ready = cv.wait(ready);
        }
        t.join().unwrap();
    }

    #[test]
    fn wait_timeout_reports_expiry() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let g = m.lock();
        let (_g, timed_out) = cv.wait_timeout(g, Duration::from_millis(1));
        assert!(timed_out);
    }
}
