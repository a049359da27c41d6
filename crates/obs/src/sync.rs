//! Named poison policies for `std::sync::Mutex`, and the one way engine
//! worker threads are spawned.
//!
//! `.lock().unwrap()` makes a policy decision — "a panic while holding
//! this lock is fatal to me too" — without naming it, and scatters that
//! decision across every call site. This module centralizes the two
//! policies the workspace actually has, as an extension trait, so call
//! sites say *which* one they mean and `pp-lint`'s `no-lock-unwrap` rule
//! can hold the line:
//!
//! * [`LockPolicy::lock_or_panic`] — engine-critical state (the work
//!   generation and the holders' rooms, shard job queues) and stored
//!   state (hidden-state store shards, prefetch-cache shards).
//!   Poison means a thread died mid-update; the protocol state may be
//!   torn (a bumped generation whose payload never landed), a shard's
//!   index may disagree with its rows, so propagating the panic with
//!   context beats limping on.
//! * [`LockPolicy::lock_recover`] — observability state (metric lanes,
//!   event rings, span buffers). Instrumentation must never take the
//!   engine down: a poisoned lane holds at worst a half-recorded sample,
//!   so recover the guard ([`std::sync::PoisonError::into_inner`]) and
//!   keep serving.
//!
//! [`spawn_worker`] names a worker thread and, on Linux, gives it exact
//! timers: a timed wait (a coalesce hold's deadline) otherwise ends up to
//! the kernel's default 50 µs of timer slack late.
//!
//! This module is deliberately **not** gated on the `enabled` feature:
//! pp-serving locks engine state and spawns its workers through it even in
//! the compiled-out observability build.

use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Extension trait naming the workspace's mutex poison policies.
///
/// See the [module docs](self) for when to use which.
pub trait LockPolicy<T> {
    /// Locks, escalating poison into a panic that names the lock.
    ///
    /// For engine-critical state where a peer thread's panic may have left
    /// the protected value mid-update: carrying on would act on torn state,
    /// so fail loudly. `what` names the lock in the panic message.
    fn lock_or_panic(&self, what: &str) -> MutexGuard<'_, T>;

    /// Locks, recovering the guard from a poisoned mutex.
    ///
    /// For observability state where the worst a poisoned lock hides is a
    /// half-recorded sample: instrumentation is never worth the process.
    fn lock_recover(&self) -> MutexGuard<'_, T>;
}

impl<T> LockPolicy<T> for Mutex<T> {
    fn lock_or_panic(&self, what: &str) -> MutexGuard<'_, T> {
        // Spelled as a match (not unwrap/expect) so the policy helpers
        // themselves pass the no-lock-unwrap rule they exist to satisfy.
        match self.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                drop(poisoned);
                panic!("{what}: lock poisoned — a thread panicked mid-update, state may be torn")
            }
        }
    }

    fn lock_recover(&self) -> MutexGuard<'_, T> {
        match self.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Spawns a named worker thread whose timed waits end at their deadline.
///
/// Inside the new thread, before `body`, this sets the thread's timer slack
/// to 1 ns (`PR_SET_TIMERSLACK`). Linux otherwise grants every normal
/// thread 50 µs of slack, so an hrtimer-backed `wait_timeout` may return up
/// to 50 µs after it was asked to. The setting is per-thread: the caller
/// and threads spawned any other way keep theirs. A failed `prctl` is
/// ignored, since slack is a latency property, not a correctness one. On
/// other targets the helper only names the thread.
///
/// # Panics
///
/// Panics if the OS cannot create the thread, as `std::thread::spawn` does.
pub fn spawn_worker<F, T>(name: impl Into<String>, body: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            #[cfg(target_os = "linux")]
            timer_slack(PR_SET_TIMERSLACK, 1);
            body()
        })
        .expect("failed to spawn worker thread")
}

#[cfg(target_os = "linux")]
const PR_SET_TIMERSLACK: std::ffi::c_int = 29;

/// `prctl(option, ns)` for the calling thread's timer slack; returns what
/// the kernel returns (the slack, for `PR_GET_TIMERSLACK`).
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn timer_slack(option: std::ffi::c_int, ns: std::ffi::c_ulong) -> std::ffi::c_int {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    // SAFETY: both arguments are integers and no pointer crosses the call;
    // the timer-slack options read or write only the calling thread's
    // `timer_slack_ns`, so no other thread or memory is touched.
    unsafe { prctl(option, ns) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The calling thread's timer slack in ns.
    #[cfg(target_os = "linux")]
    fn current_slack() -> std::ffi::c_int {
        const PR_GET_TIMERSLACK: std::ffi::c_int = 30;
        timer_slack(PR_GET_TIMERSLACK, 0)
    }

    #[test]
    fn spawn_worker_names_the_thread_and_makes_its_timers_exact() {
        let name = spawn_worker("pp-worker-7", || {
            #[cfg(target_os = "linux")]
            assert_eq!(current_slack(), 1, "the worker's timers are not exact");
            std::thread::current().name().map(str::to_owned)
        })
        .join()
        .unwrap();
        assert_eq!(name.as_deref(), Some("pp-worker-7"));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn exact_timers_stay_on_the_worker_thread() {
        let inherited = current_slack();
        assert_ne!(inherited, 1, "the test thread already has exact timers");
        spawn_worker("pp-worker-0", || ()).join().unwrap();
        assert_eq!(current_slack(), inherited, "the caller's slack moved");
        let plain = std::thread::spawn(current_slack).join().unwrap();
        assert_eq!(plain, inherited, "a plain thread lost the inherited slack");
    }

    fn poison(mutex: &Arc<Mutex<u32>>) {
        let m = Arc::clone(mutex);
        let _ = std::thread::spawn(move || {
            let _guard = m.lock().unwrap();
            panic!("poison it");
        })
        .join();
    }

    #[test]
    fn lock_recover_yields_the_inner_value_after_poison() {
        let mutex = Arc::new(Mutex::new(7u32));
        poison(&mutex);
        assert!(mutex.is_poisoned());
        assert_eq!(*mutex.lock_recover(), 7);
    }

    #[test]
    fn lock_or_panic_names_the_lock_in_the_panic() {
        let mutex = Arc::new(Mutex::new(0u32));
        poison(&mutex);
        let m = Arc::clone(&mutex);
        let err = std::thread::spawn(move || {
            let _guard = m.lock_or_panic("work_gen");
        })
        .join()
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("work_gen"), "panic message was: {msg}");
    }

    #[test]
    fn both_policies_behave_normally_unpoisoned() {
        let mutex = Mutex::new(1u32);
        *mutex.lock_or_panic("m") += 1;
        *mutex.lock_recover() += 1;
        assert_eq!(*mutex.lock().unwrap(), 3);
    }
}
