//! Poison-tolerant synchronization helpers for scheduler and serve hot paths
//! (also reachable as `gpu_sim::sync`).
//!
//! The scheduler layers have one failure channel: a panic in a batch's own
//! work is caught where that work runs, the batch fails, every waiter
//! resolves, and the pipeline keeps serving (`gpu_sim::sched`'s
//! `BatchFailed`). `std`'s mutex poisoning adds nothing to that channel, and
//! turning every `lock()` into `lock().expect(...)` would plant a panic site
//! in exactly the code that must never panic (the `no-panic-in-workers` lint
//! rule). These helpers recover the guard from a poisoned lock instead.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
pub fn locked<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks on `condvar`, recovering the re-acquired guard on poison like
/// [`locked`].
pub fn wait_on<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar, Mutex};

    #[test]
    fn locked_recovers_from_poison() {
        let mutex = Arc::new(Mutex::new(7u32));
        let clone = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(mutex.is_poisoned());
        // A plain `lock().unwrap()` would panic here; `locked` hands the
        // guard back.
        assert_eq!(*locked(&mutex), 7);
        *locked(&mutex) = 8;
        assert_eq!(*locked(&mutex), 8);
    }

    #[test]
    fn wait_on_recovers_from_poison() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let clone = Arc::clone(&pair);
        let _ = std::thread::spawn(move || {
            let _guard = clone.0.lock().unwrap();
            panic!("poison while holding the condvar mutex");
        })
        .join();
        let waker = Arc::clone(&pair);
        let waker_thread = std::thread::spawn(move || {
            *locked(&waker.0) = true;
            waker.1.notify_all();
        });
        let (lock, condvar) = &*pair;
        let mut guard = locked(lock);
        while !*guard {
            guard = wait_on(condvar, guard);
        }
        assert!(*guard);
        waker_thread.join().expect("waker thread");
    }
}
