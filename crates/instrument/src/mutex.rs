//! Instrumented mutex.
//!
//! Follows the paper's interposition strategy exactly (Fig. 4): a
//! non-blocking `try_lock` first — success means an uncontended
//! invocation; on failure a *contention* record is written and the thread
//! falls back to the blocking lock. The release is stamped just *before*
//! the real unlock, so the recorded hold lies inside the real one and no
//! later obtain by another thread can precede it in the trace; the record
//! itself (and any sink flush) is written after the unlock, so only one
//! clock read lands inside the critical section.

use crate::session::{record, record_release, SessionInner};
use critlock_trace::{EventKind, ObjId, ObjKind};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// An instrumented mutual-exclusion lock around a value of type `T`.
///
/// Create through [`crate::Session::mutex`]; share across threads with
/// `Arc`. The API mirrors `parking_lot::Mutex`.
pub struct Mutex<T> {
    pub(crate) id: ObjId,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    pub(crate) fn new(session: Arc<SessionInner>, name: String, value: T) -> Self {
        let id = session.register_object(ObjKind::Lock, name);
        Mutex { id, inner: parking_lot::Mutex::new(value) }
    }

    /// The lock's trace object id.
    pub fn id(&self) -> ObjId {
        self.id
    }

    /// Acquire the lock, recording acquire/contended/obtain events.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        record(EventKind::LockAcquire { lock: self.id });
        let guard = match self.inner.try_lock() {
            Some(g) => g,
            None => {
                record(EventKind::LockContended { lock: self.id });
                self.inner.lock()
            }
        };
        record(EventKind::LockObtain { lock: self.id });
        MutexGuard { lock: self, guard: Some(guard) }
    }

    /// Non-blocking acquire. A failed attempt is *not* recorded as a lock
    /// invocation (it neither waits nor holds).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = self.inner.try_lock()?;
        record(EventKind::LockAcquire { lock: self.id });
        record(EventKind::LockObtain { lock: self.id });
        Some(MutexGuard { lock: self, guard: Some(guard) })
    }

    /// Access the value without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

/// RAII guard for [`Mutex`]; releasing it records the release event,
/// stamped just before the real unlock.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    guard: Option<parking_lot::MutexGuard<'a, T>>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let guard = self.guard.take();
        record_release(EventKind::LockRelease { lock: self.lock.id }, || drop(guard));
    }
}

impl<'a, T> MutexGuard<'a, T> {
    /// The underlying `parking_lot` guard (used by the condvar wait).
    pub(crate) fn inner_mut(&mut self) -> &mut parking_lot::MutexGuard<'a, T> {
        self.guard.as_mut().expect("guard present until drop")
    }

    /// The trace id of the guarded lock.
    pub(crate) fn lock_id(&self) -> ObjId {
        self.lock.id
    }
}

#[cfg(test)]
mod tests {
    use crate::session::record_release;
    use crate::{spawn, Session};
    use critlock_analysis::validate::check_trace;
    use critlock_trace::EventKind;
    use std::sync::{mpsc, Arc};

    #[test]
    fn release_is_stamped_before_the_next_holder_obtains() {
        let session = Session::new("stamp");
        let m = Arc::new(session.mutex("L", ()));
        // Hold L, keeping the raw guard so the release below can stall
        // between the real unlock and its end.
        let mut held = m.lock();
        let raw = held.guard.take();
        std::mem::forget(held);
        let (obtained, wait) = mpsc::channel();
        let m2 = Arc::clone(&m);
        let worker = spawn(&session, "w", move || {
            drop(m2.lock());
            obtained.send(()).unwrap();
        });
        // The worker obtains L, and records it, while this release has not
        // returned: a release stamped after its unlock would land after
        // that obtain and the two holds would overlap in the trace.
        record_release(EventKind::LockRelease { lock: m.id }, || {
            drop(raw);
            wait.recv().unwrap();
        });
        worker.join().unwrap();
        let trace = session.finish().unwrap();
        assert_eq!(check_trace(&trace), Vec::new());
    }
}
