//! Synchronization event records.
//!
//! This module defines the event protocol produced by both the real-thread
//! instrumentation (`critlock-instrument`) and the deterministic simulator
//! (`critlock-sim`). It mirrors the MAGIC() records of the paper's
//! Pthreads-interposition tool (Chen & Stenström, SC'12, Fig. 4):
//!
//! * a lock invocation is the sequence *acquire* → (*contended*)? →
//!   *obtain* → ... → *release*; the invocation is contended iff the
//!   `LockContended` record is present;
//! * a barrier episode is *arrive* → *depart*, tagged with the barrier
//!   epoch so episodes can be matched across threads;
//! * a condition-variable wait is *wait-begin* → *wakeup*, matched to the
//!   *signal*/*broadcast* that released it via a per-condvar sequence
//!   number;
//! * thread lifecycle edges (*create*/*start*, *exit*/*join*) close the
//!   dependence graph needed by the critical-path walk.

use crate::ids::{ObjId, ObjKind, ThreadId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Timestamp in nanoseconds. Virtual time for simulated executions, a
/// monotonic real clock for instrumented executions; the analysis only
/// relies on the total order and on differences.
pub type Ts = u64;

/// A sentinel sequence number meaning "the matching signal is unknown";
/// the analyzer then falls back to timestamp-based matching.
pub const SEQ_UNKNOWN: u64 = u64::MAX;

/// One synchronization event, without its timestamp/thread context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// The thread requested a lock (paper: "acquire the lock").
    LockAcquire {
        /// The lock being requested.
        lock: ObjId,
    },
    /// The non-blocking attempt failed; the thread is about to block
    /// (paper: "lock contention").
    LockContended {
        /// The lock being requested.
        lock: ObjId,
    },
    /// The thread now holds the lock (paper: "obtain the lock").
    LockObtain {
        /// The lock now held.
        lock: ObjId,
    },
    /// The thread released the lock (paper: "release the lock").
    LockRelease {
        /// The lock released.
        lock: ObjId,
    },
    /// The thread arrived at a barrier (paper: "reach the barrier").
    BarrierArrive {
        /// The barrier.
        barrier: ObjId,
        /// Barrier generation; all threads of one episode share it.
        epoch: u32,
    },
    /// The thread passed the barrier (all participants arrived).
    BarrierDepart {
        /// The barrier.
        barrier: ObjId,
        /// Barrier generation; matches the corresponding arrival.
        epoch: u32,
    },
    /// The thread started waiting on a condition variable. The guarding
    /// mutex has conceptually been released at this point.
    CondWaitBegin {
        /// The condition variable.
        cv: ObjId,
    },
    /// The thread woke from a condition-variable wait (before it
    /// re-acquires the guarding mutex, which is traced separately).
    CondWakeup {
        /// The condition variable.
        cv: ObjId,
        /// Sequence number of the signal that woke this thread, or
        /// [`SEQ_UNKNOWN`].
        signal_seq: u64,
    },
    /// The thread signalled a condition variable (wakes one waiter).
    CondSignal {
        /// The condition variable.
        cv: ObjId,
        /// Per-condvar monotonically increasing sequence number.
        signal_seq: u64,
    },
    /// The thread broadcast a condition variable (wakes all waiters).
    CondBroadcast {
        /// The condition variable.
        cv: ObjId,
        /// Per-condvar monotonically increasing sequence number.
        signal_seq: u64,
    },
    /// The thread created a child thread.
    ThreadCreate {
        /// Trace id assigned to the child.
        child: ThreadId,
    },
    /// First event of every thread: it began running.
    ThreadStart,
    /// Last event of every thread: it finished.
    ThreadExit,
    /// The thread called join on a child (and may block).
    JoinBegin {
        /// The thread being joined.
        child: ThreadId,
    },
    /// The join returned; the child has exited.
    JoinEnd {
        /// The thread that was joined.
        child: ThreadId,
    },
    /// Free-form phase marker; ignored by the critical-path walk but
    /// usable to restrict analysis to a window.
    Marker {
        /// Registered marker object.
        id: ObjId,
    },
    /// The thread requested a reader-writer lock.
    RwAcquire {
        /// The rwlock being requested.
        lock: ObjId,
        /// True for a write (exclusive) request.
        write: bool,
    },
    /// The non-blocking rw attempt failed; the thread is about to block.
    RwContended {
        /// The rwlock being requested.
        lock: ObjId,
        /// True for a write (exclusive) request.
        write: bool,
    },
    /// The thread now holds the rwlock in the given mode.
    RwObtain {
        /// The rwlock now held.
        lock: ObjId,
        /// True for a write (exclusive) hold.
        write: bool,
    },
    /// The thread released its rwlock hold.
    RwRelease {
        /// The rwlock released.
        lock: ObjId,
        /// True if the released hold was exclusive.
        write: bool,
    },
}

impl EventKind {
    /// The synchronization object this event refers to, if any.
    pub fn obj(&self) -> Option<ObjId> {
        self.expected_object().map(|(obj, _)| obj)
    }

    /// The synchronization object this event refers to, with the kind
    /// it must be registered as.
    pub fn expected_object(&self) -> Option<(ObjId, ObjKind)> {
        Some(match *self {
            EventKind::LockAcquire { lock }
            | EventKind::LockContended { lock }
            | EventKind::LockObtain { lock }
            | EventKind::LockRelease { lock } => (lock, ObjKind::Lock),
            EventKind::RwAcquire { lock, .. }
            | EventKind::RwContended { lock, .. }
            | EventKind::RwObtain { lock, .. }
            | EventKind::RwRelease { lock, .. } => (lock, ObjKind::RwLock),
            EventKind::BarrierArrive { barrier, .. } | EventKind::BarrierDepart { barrier, .. } => {
                (barrier, ObjKind::Barrier)
            }
            EventKind::CondWaitBegin { cv }
            | EventKind::CondWakeup { cv, .. }
            | EventKind::CondSignal { cv, .. }
            | EventKind::CondBroadcast { cv, .. } => (cv, ObjKind::Condvar),
            EventKind::Marker { id } => (id, ObjKind::Marker),
            EventKind::ThreadCreate { .. }
            | EventKind::ThreadStart
            | EventKind::ThreadExit
            | EventKind::JoinBegin { .. }
            | EventKind::JoinEnd { .. } => return None,
        })
    }

    /// The other thread this event refers to, if any.
    pub fn peer_thread(&self) -> Option<ThreadId> {
        match *self {
            EventKind::ThreadCreate { child }
            | EventKind::JoinBegin { child }
            | EventKind::JoinEnd { child } => Some(child),
            _ => None,
        }
    }

    /// Whether this event marks the *start of a potential blocking
    /// interval* for the issuing thread (the thread may be descheduled
    /// until a matching completion event).
    pub fn begins_blocking(&self) -> bool {
        matches!(
            self,
            EventKind::LockContended { .. }
                | EventKind::RwContended { .. }
                | EventKind::BarrierArrive { .. }
                | EventKind::CondWaitBegin { .. }
                | EventKind::JoinBegin { .. }
        )
    }

    /// Whether this event marks the *end of a blocking interval* (the
    /// thread resumed running at this timestamp).
    pub fn ends_blocking(&self) -> bool {
        matches!(
            self,
            EventKind::LockObtain { .. }
                | EventKind::RwObtain { .. }
                | EventKind::BarrierDepart { .. }
                | EventKind::CondWakeup { .. }
                | EventKind::JoinEnd { .. }
                | EventKind::ThreadStart
        )
    }

    /// Short mnemonic used by the text renderers.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            EventKind::LockAcquire { .. } => "acq",
            EventKind::LockContended { .. } => "cont",
            EventKind::LockObtain { .. } => "obt",
            EventKind::LockRelease { .. } => "rel",
            EventKind::BarrierArrive { .. } => "barr-arr",
            EventKind::BarrierDepart { .. } => "barr-dep",
            EventKind::CondWaitBegin { .. } => "cv-wait",
            EventKind::CondWakeup { .. } => "cv-wake",
            EventKind::CondSignal { .. } => "cv-sig",
            EventKind::CondBroadcast { .. } => "cv-bcast",
            EventKind::ThreadCreate { .. } => "create",
            EventKind::ThreadStart => "start",
            EventKind::ThreadExit => "exit",
            EventKind::JoinBegin { .. } => "join-beg",
            EventKind::JoinEnd { .. } => "join-end",
            EventKind::Marker { .. } => "marker",
            EventKind::RwAcquire { write: true, .. } => "rw-acq-w",
            EventKind::RwAcquire { write: false, .. } => "rw-acq-r",
            EventKind::RwContended { .. } => "rw-cont",
            EventKind::RwObtain { write: true, .. } => "rw-obt-w",
            EventKind::RwObtain { write: false, .. } => "rw-obt-r",
            EventKind::RwRelease { .. } => "rw-rel",
        }
    }
}

/// A timestamped synchronization event as stored in a per-thread stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Timestamp in (virtual or real) nanoseconds.
    pub ts: Ts,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Convenience constructor.
    pub fn new(ts: Ts, kind: EventKind) -> Self {
        Event { ts, kind }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {}", self.ts, self.kind.mnemonic())?;
        if let Some(o) = self.kind.obj() {
            write!(f, " {o}")?;
        }
        if let Some(t) = self.kind.peer_thread() {
            write!(f, " {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_extraction() {
        let l = ObjId(1);
        assert_eq!(EventKind::LockAcquire { lock: l }.obj(), Some(l));
        assert_eq!(EventKind::LockRelease { lock: l }.obj(), Some(l));
        assert_eq!(EventKind::BarrierArrive { barrier: l, epoch: 0 }.obj(), Some(l));
        assert_eq!(EventKind::CondSignal { cv: l, signal_seq: 0 }.obj(), Some(l));
        assert_eq!(EventKind::ThreadStart.obj(), None);
        assert_eq!(EventKind::ThreadCreate { child: ThreadId(2) }.obj(), None);
    }

    #[test]
    fn peer_thread_extraction() {
        let c = ThreadId(4);
        assert_eq!(EventKind::ThreadCreate { child: c }.peer_thread(), Some(c));
        assert_eq!(EventKind::JoinBegin { child: c }.peer_thread(), Some(c));
        assert_eq!(EventKind::JoinEnd { child: c }.peer_thread(), Some(c));
        assert_eq!(EventKind::ThreadExit.peer_thread(), None);
        assert_eq!(EventKind::LockAcquire { lock: ObjId(0) }.peer_thread(), None);
    }

    #[test]
    fn blocking_classification() {
        let l = ObjId(0);
        assert!(EventKind::LockContended { lock: l }.begins_blocking());
        assert!(EventKind::BarrierArrive { barrier: l, epoch: 1 }.begins_blocking());
        assert!(EventKind::CondWaitBegin { cv: l }.begins_blocking());
        assert!(EventKind::JoinBegin { child: ThreadId(1) }.begins_blocking());
        assert!(!EventKind::LockAcquire { lock: l }.begins_blocking());
        assert!(!EventKind::LockObtain { lock: l }.begins_blocking());

        assert!(EventKind::LockObtain { lock: l }.ends_blocking());
        assert!(EventKind::BarrierDepart { barrier: l, epoch: 1 }.ends_blocking());
        assert!(EventKind::CondWakeup { cv: l, signal_seq: 0 }.ends_blocking());
        assert!(EventKind::JoinEnd { child: ThreadId(1) }.ends_blocking());
        assert!(EventKind::ThreadStart.ends_blocking());
        assert!(!EventKind::LockRelease { lock: l }.ends_blocking());
    }

    #[test]
    fn display_contains_mnemonic() {
        let e = Event::new(42, EventKind::LockObtain { lock: ObjId(3) });
        let s = e.to_string();
        assert!(s.contains("@42"));
        assert!(s.contains("obt"));
        assert!(s.contains("obj3"));
    }
}
