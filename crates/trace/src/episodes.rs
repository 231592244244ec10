//! Episode views over a trace.
//!
//! An *episode* groups the individual events of one synchronization
//! interaction back into a single record: a lock invocation
//! (acquire/obtain/release triple), a barrier crossing, a condition-variable
//! wait, a join. Both the classical "TYPE 2" statistics and the critical-path
//! walk consume these views rather than raw events.
//!
//! Every view is a fold over one stepping view, [`steps`]. It drives a
//! thread stream through the one protocol machine that `Trace::validate`
//! runs and yields each event with what it completed: a lock or rwlock
//! invocation, or a blocked interval (a contended acquire → obtain,
//! barrier arrive → depart, condvar wait → wakeup, join begin → end). So
//! the views agree with validation on when a section is open, and segment
//! construction cuts running intervals at the same blocked intervals in
//! the same pass that collects a thread's invocations. Like the
//! collector's repair, the view skips an event the machine rejects and
//! goes on; on a valid trace nothing is skipped. Joins are not protocol
//! state: the view pairs them itself, and no other code does.

use crate::event::{Event, EventKind, Ts};
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

impl From<RwEpisode> for LockEpisode {
    /// An rwlock invocation as a plain critical section, its mode dropped.
    fn from(e: RwEpisode) -> Self {
        let RwEpisode { tid, lock, acquire, obtain, release, contended, .. } = e;
        LockEpisode { tid, lock, acquire, obtain, release, contended }
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

/// What one event of a thread stream completed, as [`steps`] reads it
/// off the protocol machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Nothing: the event opened or advanced something, the machine
    /// rejected it, or it is not a protocol step.
    Nothing,
    /// This release ended a lock invocation.
    Lock(LockEpisode),
    /// This release ended a reader-writer lock invocation.
    Rw(RwEpisode),
    /// This obtain ended a contended acquisition of `lock` requested at
    /// `acquire`: the thread was blocked from `acquire` to the obtain.
    Granted {
        /// The lock or rwlock.
        lock: ObjId,
        /// When the thread requested it.
        acquire: Ts,
    },
    /// This depart ended a barrier wait.
    Barrier(BarrierEpisode),
    /// This wakeup ended a condition-variable wait.
    Wait(CondWaitEpisode),
    /// This join end ended a join.
    Join(JoinEpisode),
}

/// The stepping view of one thread stream: each event with what it
/// completed. Built by [`steps`].
pub struct Steps<'a> {
    tid: ThreadId,
    events: &'a [Event],
    at: usize,
    protocol: Protocol,
    /// The open join: child and begin time.
    join: Option<(ThreadId, Ts)>,
}

/// Drive the protocol machine over one thread stream, yielding each event
/// with what it completed. Like the collector's repair, the view skips an
/// event the machine rejects (it completes [`Step::Nothing`]) and goes
/// on; on a valid trace nothing is skipped. A join end completes the
/// latest join begin when their children match; any join end closes it.
pub fn steps(stream: &ThreadStream) -> Steps<'_> {
    let (tid, events) = (stream.tid, &stream.events[..]);
    Steps { tid, events, at: 0, protocol: Protocol::default(), join: None }
}

impl<'a> Iterator for Steps<'a> {
    type Item = (&'a Event, Step);

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        let (tid, events, at) = (self.tid, self.events, self.at);
        let ev = events.get(at)?;
        self.at = at + 1;
        let Ok(done) = self.protocol.step(ev.kind, at) else {
            return Some((ev, Step::Nothing));
        };
        let step = match (done, ev.kind) {
            (Completed::Nothing, EventKind::JoinBegin { child }) => {
                self.join = Some((child, ev.ts));
                Step::Nothing
            }
            (Completed::Nothing, EventKind::JoinEnd { child }) => match self.join.take() {
                Some((c, begin)) if c == child => {
                    Step::Join(JoinEpisode { tid, child, begin, end: ev.ts })
                }
                _ => Step::Nothing,
            },
            (Completed::Nothing, _) => Step::Nothing,
            (Completed::Invocation { acquire_at, obtain_at, contended }, kind) => {
                let (acquire, obtain, release) =
                    (events[acquire_at].ts, events[obtain_at].ts, ev.ts);
                match (kind, events[acquire_at].kind) {
                    (EventKind::LockRelease { lock }, _) => {
                        Step::Lock(LockEpisode { tid, lock, acquire, obtain, release, contended })
                    }
                    (EventKind::RwRelease { lock, .. }, EventKind::RwAcquire { write, .. }) => {
                        Step::Rw(RwEpisode {
                            tid,
                            lock,
                            write,
                            acquire,
                            obtain,
                            release,
                            contended,
                        })
                    }
                    _ => Step::Nothing,
                }
            }
            (
                Completed::Granted { acquire_at },
                EventKind::LockObtain { lock } | EventKind::RwObtain { lock, .. },
            ) => Step::Granted { lock, acquire: events[acquire_at].ts },
            (Completed::Barrier { arrive_at }, EventKind::BarrierDepart { barrier, epoch }) => {
                let arrive = events[arrive_at].ts;
                Step::Barrier(BarrierEpisode { tid, barrier, epoch, arrive, depart: ev.ts })
            }
            (Completed::Wait { begin_at }, EventKind::CondWakeup { cv, signal_seq }) => {
                let (wait_begin, wakeup) = (events[begin_at].ts, ev.ts);
                Step::Wait(CondWaitEpisode { tid, cv, wait_begin, wakeup, signal_seq })
            }
            _ => Step::Nothing,
        };
        Some((ev, step))
    }
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
    (locks.concat(), rws.concat())
}

fn invocations_of(stream: &ThreadStream) -> (Vec<LockEpisode>, Vec<RwEpisode>) {
    let (mut locks, mut rws) = (Vec::new(), Vec::new());
    for (_, step) in steps(stream) {
        match step {
            Step::Lock(e) => locks.push(e),
            Step::Rw(e) => rws.push(e),
            _ => {}
        }
    }
    (locks, rws)
}

/// What `pick` keeps of every step of every thread, in thread order.
fn fold<T>(trace: &Trace, pick: impl Fn(Step) -> Option<T>) -> Vec<T> {
    trace.threads.iter().flat_map(steps).filter_map(|(_, step)| pick(step)).collect()
}

/// All barrier episodes of a trace, in per-thread depart order.
pub fn barrier_episodes(trace: &Trace) -> Vec<BarrierEpisode> {
    fold(trace, |step| if let Step::Barrier(e) = step { Some(e) } else { None })
}

/// All condition-variable waits of a trace, in per-thread wakeup order.
pub fn cond_wait_episodes(trace: &Trace) -> Vec<CondWaitEpisode> {
    fold(trace, |step| if let Step::Wait(e) = step { Some(e) } else { None })
}

/// All join episodes of a trace, in per-thread join-end order.
pub fn join_episodes(trace: &Trace) -> Vec<JoinEpisode> {
    fold(trace, |step| if let Step::Join(e) = step { Some(e) } else { None })
}

#[cfg(test)]
mod tests {
    use super::*;
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
