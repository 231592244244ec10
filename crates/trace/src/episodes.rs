//! Episode views over a trace.
//!
//! An *episode* groups the individual events of one synchronization
//! interaction back into a single record: a lock invocation
//! (acquire/obtain/release triple), a barrier crossing, a condition-variable
//! wait, a join. Both the classical "TYPE 2" statistics and the critical-path
//! walk consume these views rather than raw events.
//!
//! The lock, rwlock, barrier and condvar views pair events by driving each
//! thread stream through the one protocol machine that `Trace::validate`
//! runs, so they agree with validation on when a section is open: each
//! episode is read off the event indices the machine hands back when it
//! completes one. Like the collector's repair, they skip an event the
//! machine rejects and go on; on a valid trace nothing is skipped. Joins
//! and signals are not protocol state and are read off the stream
//! directly.

use crate::event::{EventKind, Ts};
use crate::ids::{ObjId, ThreadId};
use crate::protocol::{Completed, Protocol};
use crate::trace::{ThreadStream, Trace};
use rayon::prelude::*;

/// One lock invocation by one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockEpisode {
    /// The invoking thread.
    pub tid: ThreadId,
    /// The lock.
    pub lock: ObjId,
    /// When the thread requested the lock.
    pub acquire: Ts,
    /// When the thread obtained the lock (start of the critical section).
    pub obtain: Ts,
    /// When the thread released the lock (end of the critical section).
    pub release: Ts,
    /// Whether the invocation blocked (the paper's contended invocation).
    pub contended: bool,
}

impl LockEpisode {
    /// Time spent waiting for the lock.
    pub fn wait_time(&self) -> Ts {
        self.obtain.saturating_sub(self.acquire)
    }

    /// Time spent holding the lock (the critical-section size).
    pub fn hold_time(&self) -> Ts {
        self.release.saturating_sub(self.obtain)
    }
}

/// One reader-writer lock invocation by one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RwEpisode {
    /// The invoking thread.
    pub tid: ThreadId,
    /// The rwlock.
    pub lock: ObjId,
    /// True for a write (exclusive) hold.
    pub write: bool,
    /// When the thread requested the lock.
    pub acquire: Ts,
    /// When the hold began.
    pub obtain: Ts,
    /// When the hold ended.
    pub release: Ts,
    /// Whether the invocation blocked.
    pub contended: bool,
}

impl RwEpisode {
    /// Time spent waiting for the rwlock.
    pub fn wait_time(&self) -> Ts {
        self.obtain.saturating_sub(self.acquire)
    }

    /// Time spent holding the rwlock.
    pub fn hold_time(&self) -> Ts {
        self.release.saturating_sub(self.obtain)
    }
}

/// One barrier crossing by one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierEpisode {
    /// The crossing thread.
    pub tid: ThreadId,
    /// The barrier.
    pub barrier: ObjId,
    /// Barrier generation.
    pub epoch: u32,
    /// Arrival time.
    pub arrive: Ts,
    /// Departure time (when the last participant arrived).
    pub depart: Ts,
}

impl BarrierEpisode {
    /// Time spent waiting at the barrier.
    pub fn wait_time(&self) -> Ts {
        self.depart.saturating_sub(self.arrive)
    }
}

/// One condition-variable wait by one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CondWaitEpisode {
    /// The waiting thread.
    pub tid: ThreadId,
    /// The condition variable.
    pub cv: ObjId,
    /// When the wait began.
    pub wait_begin: Ts,
    /// When the thread was woken.
    pub wakeup: Ts,
    /// Sequence number of the signal that woke it ([`crate::SEQ_UNKNOWN`]
    /// when the producer could not tell).
    pub signal_seq: u64,
}

impl CondWaitEpisode {
    /// Time spent waiting on the condition variable.
    pub fn wait_time(&self) -> Ts {
        self.wakeup.saturating_sub(self.wait_begin)
    }
}

/// One signal or broadcast on a condition variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalRecord {
    /// The signalling thread.
    pub tid: ThreadId,
    /// The condition variable.
    pub cv: ObjId,
    /// When the signal was issued.
    pub ts: Ts,
    /// Per-condvar sequence number.
    pub signal_seq: u64,
    /// True for broadcast, false for signal.
    pub broadcast: bool,
}

/// One join of a child thread by a parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinEpisode {
    /// The joining (parent) thread.
    pub tid: ThreadId,
    /// The joined (child) thread.
    pub child: ThreadId,
    /// When the join was issued.
    pub begin: Ts,
    /// When the join returned.
    pub end: Ts,
}

/// All lock episodes of a trace, in per-thread release order.
///
/// An episode is emitted for every completed acquire/obtain/release triple.
/// Incomplete trailing invocations (possible in truncated traces) are
/// dropped.
pub fn lock_episodes(trace: &Trace) -> Vec<LockEpisode> {
    lock_and_rw_episodes(trace).0
}

/// All reader-writer lock episodes of a trace, in per-thread release
/// order. An episode's mode is its acquire's.
pub fn rw_episodes(trace: &Trace) -> Vec<RwEpisode> {
    lock_and_rw_episodes(trace).1
}

/// [`lock_episodes`] and [`rw_episodes`] from one pass over each
/// thread's events.
pub fn lock_and_rw_episodes(trace: &Trace) -> (Vec<LockEpisode>, Vec<RwEpisode>) {
    // The threads extract independently; concatenating in thread order
    // reproduces the serial output exactly.
    let (locks, rws): (Vec<_>, Vec<_>) =
        trace.threads.par_iter().map(invocations_of).collect::<Vec<_>>().into_iter().unzip();
    (concat(locks), concat(rws))
}

fn invocations_of(stream: &ThreadStream) -> (Vec<LockEpisode>, Vec<RwEpisode>) {
    let (mut locks, mut rws) = (Vec::new(), Vec::new());
    let events = &stream.events;
    let mut protocol = Protocol::default();
    for (i, ev) in events.iter().enumerate() {
        let Ok(Completed::Invocation { acquire_at, obtain_at, contended }) =
            protocol.step(ev.kind, i)
        else {
            continue;
        };
        let (acquire, obtain, release) = (events[acquire_at].ts, events[obtain_at].ts, ev.ts);
        match (ev.kind, events[acquire_at].kind) {
            (EventKind::LockRelease { lock }, _) => locks.push(LockEpisode {
                tid: stream.tid,
                lock,
                acquire,
                obtain,
                release,
                contended,
            }),
            (EventKind::RwRelease { lock, .. }, EventKind::RwAcquire { write, .. }) => {
                rws.push(RwEpisode {
                    tid: stream.tid,
                    lock,
                    write,
                    acquire,
                    obtain,
                    release,
                    contended,
                });
            }
            _ => {}
        }
    }
    (locks, rws)
}

fn concat<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for part in parts {
        out.extend(part);
    }
    out
}

/// All barrier episodes of a trace, in per-thread depart order.
pub fn barrier_episodes(trace: &Trace) -> Vec<BarrierEpisode> {
    let mut out = Vec::new();
    for stream in &trace.threads {
        let mut protocol = Protocol::default();
        for (i, ev) in stream.events.iter().enumerate() {
            if let (
                Ok(Completed::Barrier { arrive_at }),
                EventKind::BarrierDepart { barrier, epoch },
            ) = (protocol.step(ev.kind, i), ev.kind)
            {
                out.push(BarrierEpisode {
                    tid: stream.tid,
                    barrier,
                    epoch,
                    arrive: stream.events[arrive_at].ts,
                    depart: ev.ts,
                });
            }
        }
    }
    out
}

/// All condition-variable waits of a trace, in per-thread wakeup order.
pub fn cond_wait_episodes(trace: &Trace) -> Vec<CondWaitEpisode> {
    let mut out = Vec::new();
    for stream in &trace.threads {
        let mut protocol = Protocol::default();
        for (i, ev) in stream.events.iter().enumerate() {
            if let (Ok(Completed::Wait { begin_at }), EventKind::CondWakeup { cv, signal_seq }) =
                (protocol.step(ev.kind, i), ev.kind)
            {
                out.push(CondWaitEpisode {
                    tid: stream.tid,
                    cv,
                    wait_begin: stream.events[begin_at].ts,
                    wakeup: ev.ts,
                    signal_seq,
                });
            }
        }
    }
    out
}

/// All signals/broadcasts of a trace.
pub fn signal_records(trace: &Trace) -> Vec<SignalRecord> {
    let mut out = Vec::new();
    for stream in &trace.threads {
        for ev in &stream.events {
            match ev.kind {
                EventKind::CondSignal { cv, signal_seq } => out.push(SignalRecord {
                    tid: stream.tid,
                    cv,
                    ts: ev.ts,
                    signal_seq,
                    broadcast: false,
                }),
                EventKind::CondBroadcast { cv, signal_seq } => out.push(SignalRecord {
                    tid: stream.tid,
                    cv,
                    ts: ev.ts,
                    signal_seq,
                    broadcast: true,
                }),
                _ => {}
            }
        }
    }
    out
}

/// All join episodes of a trace.
pub fn join_episodes(trace: &Trace) -> Vec<JoinEpisode> {
    let mut out = Vec::new();
    for stream in &trace.threads {
        let mut pending: Option<(ThreadId, Ts)> = None;
        for ev in &stream.events {
            match ev.kind {
                EventKind::JoinBegin { child } => pending = Some((child, ev.ts)),
                EventKind::JoinEnd { child } => {
                    if let Some((c, begin)) = pending.take() {
                        if c == child {
                            out.push(JoinEpisode { tid: stream.tid, child, begin, end: ev.ts });
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::ids::ObjKind;
    use crate::trace::{ThreadStream, Trace, TraceMeta};

    fn sample() -> Trace {
        let mut t = Trace::new(TraceMeta::named("episodes"));
        let l = t.register_object(ObjKind::Lock, "L");
        let l2 = t.register_object(ObjKind::Lock, "M");
        let b = t.register_object(ObjKind::Barrier, "B");
        let cv = t.register_object(ObjKind::Condvar, "CV");
        let mk = Event::new;
        let mut s0 = ThreadStream::new(ThreadId(0));
        s0.events = vec![
            mk(0, EventKind::ThreadStart),
            mk(0, EventKind::ThreadCreate { child: ThreadId(1) }),
            // nested locks: L outer, M inner
            mk(1, EventKind::LockAcquire { lock: l }),
            mk(1, EventKind::LockObtain { lock: l }),
            mk(2, EventKind::LockAcquire { lock: l2 }),
            mk(2, EventKind::LockObtain { lock: l2 }),
            mk(3, EventKind::LockRelease { lock: l2 }),
            mk(4, EventKind::LockRelease { lock: l }),
            mk(5, EventKind::BarrierArrive { barrier: b, epoch: 0 }),
            mk(7, EventKind::BarrierDepart { barrier: b, epoch: 0 }),
            mk(8, EventKind::CondSignal { cv, signal_seq: 1 }),
            mk(9, EventKind::JoinBegin { child: ThreadId(1) }),
            mk(12, EventKind::JoinEnd { child: ThreadId(1) }),
            mk(13, EventKind::ThreadExit),
        ];
        let mut s1 = ThreadStream::new(ThreadId(1));
        s1.events = vec![
            mk(0, EventKind::ThreadStart),
            mk(1, EventKind::LockAcquire { lock: l }),
            mk(1, EventKind::LockContended { lock: l }),
            mk(4, EventKind::LockObtain { lock: l }),
            mk(5, EventKind::LockRelease { lock: l }),
            mk(5, EventKind::BarrierArrive { barrier: b, epoch: 0 }),
            mk(7, EventKind::BarrierDepart { barrier: b, epoch: 0 }),
            mk(7, EventKind::CondWaitBegin { cv }),
            mk(8, EventKind::CondWakeup { cv, signal_seq: 1 }),
            mk(12, EventKind::ThreadExit),
        ];
        t.push_thread(s0);
        t.push_thread(s1);
        t.validate().unwrap();
        t
    }

    #[test]
    fn lock_episodes_extracted() {
        let t = sample();
        let eps = lock_episodes(&t);
        assert_eq!(eps.len(), 3);
        let outer = eps.iter().find(|e| e.tid == ThreadId(0) && e.lock == ObjId(0)).unwrap();
        assert_eq!(outer.obtain, 1);
        assert_eq!(outer.release, 4);
        assert_eq!(outer.hold_time(), 3);
        assert_eq!(outer.wait_time(), 0);
        assert!(!outer.contended);

        let inner = eps.iter().find(|e| e.lock == ObjId(1)).unwrap();
        assert_eq!(inner.hold_time(), 1);

        let blocked = eps.iter().find(|e| e.tid == ThreadId(1)).unwrap();
        assert!(blocked.contended);
        assert_eq!(blocked.wait_time(), 3);
        assert_eq!(blocked.hold_time(), 1);
    }

    #[test]
    fn barrier_episodes_extracted() {
        let t = sample();
        let eps = barrier_episodes(&t);
        assert_eq!(eps.len(), 2);
        let e0 = eps.iter().find(|e| e.tid == ThreadId(0)).unwrap();
        assert_eq!(e0.epoch, 0);
        assert_eq!(e0.wait_time(), 2);
    }

    #[test]
    fn cond_episodes_extracted() {
        let t = sample();
        let waits = cond_wait_episodes(&t);
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].tid, ThreadId(1));
        assert_eq!(waits[0].wait_time(), 1);
        assert_eq!(waits[0].signal_seq, 1);

        let sigs = signal_records(&t);
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].tid, ThreadId(0));
        assert!(!sigs[0].broadcast);
    }

    #[test]
    fn join_episodes_extracted() {
        let t = sample();
        let joins = join_episodes(&t);
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].child, ThreadId(1));
        assert_eq!(joins[0].begin, 9);
        assert_eq!(joins[0].end, 12);
    }

    #[test]
    fn truncated_invocation_dropped() {
        let mut t = sample();
        // Strip the release of the inner lock; its episode must disappear
        // while the outer one survives.
        let s0 = &mut t.threads[0];
        s0.events.retain(|e| e.kind != EventKind::LockRelease { lock: ObjId(1) });
        let eps = lock_episodes(&t);
        assert_eq!(eps.iter().filter(|e| e.lock == ObjId(1)).count(), 0);
        assert_eq!(eps.iter().filter(|e| e.lock == ObjId(0)).count(), 2);
    }
}
