//! Instrumented reader-writer lock.
//!
//! Same interposition strategy as the mutex (try first, record contention
//! on failure, stamp the release just before the real unlock), with the hold
//! mode recorded so the analysis can distinguish shared from exclusive
//! critical sections. OpenLDAP — the paper's real-world case study — is
//! exactly the kind of code that lives on rwlocks.

use crate::session::{record, record_release, SessionInner};
use critlock_trace::{EventKind, ObjId, ObjKind};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// An instrumented reader-writer lock around a value of type `T`.
pub struct RwLock<T> {
    id: ObjId,
    inner: parking_lot::RwLock<T>,
}

impl<T> RwLock<T> {
    pub(crate) fn new(session: Arc<SessionInner>, name: String, value: T) -> Self {
        let id = session.register_object(ObjKind::RwLock, name);
        RwLock { id, inner: parking_lot::RwLock::new(value) }
    }

    /// The lock's trace object id.
    pub fn id(&self) -> ObjId {
        self.id
    }

    /// Acquire in shared (read) mode.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        record(EventKind::RwAcquire { lock: self.id, write: false });
        let guard = match self.inner.try_read() {
            Some(g) => g,
            None => {
                record(EventKind::RwContended { lock: self.id, write: false });
                self.inner.read()
            }
        };
        record(EventKind::RwObtain { lock: self.id, write: false });
        RwLockReadGuard { id: self.id, guard: Some(guard) }
    }

    /// Acquire in exclusive (write) mode.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        record(EventKind::RwAcquire { lock: self.id, write: true });
        let guard = match self.inner.try_write() {
            Some(g) => g,
            None => {
                record(EventKind::RwContended { lock: self.id, write: true });
                self.inner.write()
            }
        };
        record(EventKind::RwObtain { lock: self.id, write: true });
        RwLockWriteGuard { id: self.id, guard: Some(guard) }
    }

    /// Non-blocking shared acquire. Failed attempts are not recorded.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let guard = self.inner.try_read()?;
        record(EventKind::RwAcquire { lock: self.id, write: false });
        record(EventKind::RwObtain { lock: self.id, write: false });
        Some(RwLockReadGuard { id: self.id, guard: Some(guard) })
    }

    /// Non-blocking exclusive acquire. Failed attempts are not recorded.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let guard = self.inner.try_write()?;
        record(EventKind::RwAcquire { lock: self.id, write: true });
        record(EventKind::RwObtain { lock: self.id, write: true });
        Some(RwLockWriteGuard { id: self.id, guard: Some(guard) })
    }

    /// Access the value without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

/// RAII shared guard; records the release, stamped just before the real
/// unlock.
pub struct RwLockReadGuard<'a, T> {
    id: ObjId,
    guard: Option<parking_lot::RwLockReadGuard<'a, T>>,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        let guard = self.guard.take();
        record_release(EventKind::RwRelease { lock: self.id, write: false }, || drop(guard));
    }
}

/// RAII exclusive guard; records the release, stamped just before the
/// real unlock.
pub struct RwLockWriteGuard<'a, T> {
    id: ObjId,
    guard: Option<parking_lot::RwLockWriteGuard<'a, T>>,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        let guard = self.guard.take();
        record_release(EventKind::RwRelease { lock: self.id, write: true }, || drop(guard));
    }
}
