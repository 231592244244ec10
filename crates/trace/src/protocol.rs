//! The per-thread synchronization protocol, as one state machine.
//!
//! Every thread stream obeys one protocol (the paper's §2): a lock or
//! rwlock invocation is acquire → (contended)? → obtain → release,
//! non-reentrant, with arbitrary nesting across distinct objects; a
//! barrier episode is arrive → depart on one barrier and epoch; a condvar
//! wait is wait-begin → wakeup on one condvar. [`Protocol`] holds that
//! state for one thread. Its three drivers differ only in what a
//! violation costs: `Trace::validate` rejects the trace, salvage cuts the
//! stream there, and the collector's repair drops the event and goes on.
//! Salvage and repair then close what is still open with
//! [`Protocol::close`].

use crate::event::{Event, EventKind, Ts, SEQ_UNKNOWN};
use crate::ids::ObjId;
use std::fmt;

/// How far an open lock or rwlock invocation has got. The numbers are
/// the ones violation messages print (0 is idle, i.e. not open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Acquiring = 1,
    Contended = 2,
    Held = 3,
}

/// One lock or rwlock invocation that has not been released.
#[derive(Debug, Clone, Copy)]
struct Open {
    lock: ObjId,
    /// `None` for a mutex; for an rwlock, the mode of its latest event.
    write: Option<bool>,
    phase: Phase,
    /// Where the driver put the acquire and (once contended) the
    /// contended event, so an abandoned contended acquisition can be
    /// excised at close.
    acquire_at: usize,
    contended_at: usize,
}

/// The protocol state of one thread: its open lock and rwlock
/// invocations, its open barrier episode and its open condvar wait.
#[derive(Debug, Default)]
pub(crate) struct Protocol {
    /// Open invocations in acquisition order. Threads nest few locks, so
    /// a search from the innermost end beats hashing.
    open: Vec<Open>,
    barrier: Option<(ObjId, u32)>,
    wait: Option<ObjId>,
}

/// An event the protocol state does not allow, with the state it met.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Violation {
    kind: EventKind,
    /// The phase of the event's lock or rwlock (0 when idle).
    phase: u8,
    barrier: Option<(ObjId, u32)>,
    wait: Option<ObjId>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Violation { kind, phase, barrier, wait } = *self;
        let rw = if matches!(
            kind,
            EventKind::RwAcquire { .. }
                | EventKind::RwContended { .. }
                | EventKind::RwObtain { .. }
                | EventKind::RwRelease { .. }
        ) {
            "rw-"
        } else {
            ""
        };
        match kind {
            EventKind::LockAcquire { lock } | EventKind::RwAcquire { lock, .. } => {
                write!(f, "{rw}acquire of {lock} while in state {phase}")
            }
            EventKind::LockContended { lock } | EventKind::RwContended { lock, .. } => {
                write!(f, "{rw}contended on {lock} without acquire")
            }
            EventKind::LockObtain { lock } | EventKind::RwObtain { lock, .. } => {
                write!(f, "{rw}obtain of {lock} without acquire")
            }
            EventKind::LockRelease { lock } | EventKind::RwRelease { lock, .. } => {
                write!(f, "{rw}release of {lock} not held")
            }
            EventKind::BarrierArrive { barrier: at, .. } => {
                let inside = barrier.map_or(at, |(b, _)| b);
                write!(f, "arrive at {at} while inside {inside}")
            }
            EventKind::BarrierDepart { barrier: at, epoch } => {
                write!(f, "depart {at}@{epoch} but waiting on {barrier:?}")
            }
            EventKind::CondWaitBegin { cv } => {
                write!(f, "wait on {cv} while waiting on {}", wait.unwrap_or(cv))
            }
            EventKind::CondWakeup { cv, .. } => write!(f, "wakeup on {cv} but waiting on {wait:?}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// The lock-protocol step an event takes, if any.
enum LockStep {
    Acquire,
    Contend,
    Obtain,
    Release,
}

impl Protocol {
    /// Apply one event, or return the violation and leave the state
    /// untouched. `at` is the index the driver gives the event in its
    /// output stream; only [`close`](Protocol::close) reads it back.
    /// Inlined: every driver calls it once per event.
    #[inline]
    pub(crate) fn step(&mut self, kind: EventKind, at: usize) -> Result<(), Violation> {
        let (lock, write, step) = match kind {
            EventKind::LockAcquire { lock } => (lock, None, LockStep::Acquire),
            EventKind::LockContended { lock } => (lock, None, LockStep::Contend),
            EventKind::LockObtain { lock } => (lock, None, LockStep::Obtain),
            EventKind::LockRelease { lock } => (lock, None, LockStep::Release),
            EventKind::RwAcquire { lock, write } => (lock, Some(write), LockStep::Acquire),
            EventKind::RwContended { lock, write } => (lock, Some(write), LockStep::Contend),
            EventKind::RwObtain { lock, write } => (lock, Some(write), LockStep::Obtain),
            EventKind::RwRelease { lock, write } => (lock, Some(write), LockStep::Release),
            EventKind::BarrierArrive { barrier, epoch } if self.barrier.is_none() => {
                self.barrier = Some((barrier, epoch));
                return Ok(());
            }
            EventKind::BarrierDepart { barrier, epoch }
                if self.barrier == Some((barrier, epoch)) =>
            {
                self.barrier = None;
                return Ok(());
            }
            EventKind::CondWaitBegin { cv } if self.wait.is_none() => {
                self.wait = Some(cv);
                return Ok(());
            }
            EventKind::CondWakeup { cv, .. } if self.wait == Some(cv) => {
                self.wait = None;
                return Ok(());
            }
            EventKind::BarrierArrive { .. }
            | EventKind::BarrierDepart { .. }
            | EventKind::CondWaitBegin { .. }
            | EventKind::CondWakeup { .. } => return Err(self.violation(kind, 0)),
            _ => return Ok(()),
        };
        let found = self
            .open
            .iter()
            .rposition(|o| o.lock == lock && o.write.is_some() == write.is_some())
            .map(|i| (i, self.open[i].phase));
        match (step, found) {
            (LockStep::Acquire, None) => self.open.push(Open {
                lock,
                write,
                phase: Phase::Acquiring,
                acquire_at: at,
                contended_at: at,
            }),
            (LockStep::Contend, Some((i, Phase::Acquiring))) => {
                self.open[i] =
                    Open { phase: Phase::Contended, contended_at: at, write, ..self.open[i] };
            }
            (LockStep::Obtain, Some((i, Phase::Acquiring | Phase::Contended))) => {
                self.open[i] = Open { phase: Phase::Held, write, ..self.open[i] };
            }
            (LockStep::Release, Some((i, Phase::Held))) => {
                self.open.remove(i);
            }
            (_, found) => return Err(self.violation(kind, found.map_or(0, |(_, p)| p as u8))),
        }
        Ok(())
    }

    fn violation(&self, kind: EventKind, phase: u8) -> Violation {
        Violation { kind, phase, barrier: self.barrier, wait: self.wait }
    }

    /// Whether nothing is open: no lock or rwlock invocation, no barrier
    /// episode and no condvar wait.
    pub(crate) fn quiesced(&self) -> bool {
        self.open.is_empty() && self.barrier.is_none() && self.wait.is_none()
    }

    /// Why the thread may not exit here, if it may not: the lowest open
    /// rwlock, else the lowest open lock, else the open barrier, else the
    /// open condvar wait.
    pub(crate) fn unclosed(&self) -> Option<String> {
        let lowest =
            |rw: bool| self.open.iter().filter(|o| o.write.is_some() == rw).min_by_key(|o| o.lock);
        if let Some(o) = lowest(true) {
            return Some(format!("thread exits with rwlock {} in state {}", o.lock, o.phase as u8));
        }
        if let Some(o) = lowest(false) {
            return Some(format!("thread exits with {} in state {}", o.lock, o.phase as u8));
        }
        if let Some((b, _)) = self.barrier {
            return Some(format!("thread exits inside barrier {b}"));
        }
        self.wait.map(|cv| format!("thread exits inside condvar wait {cv}"))
    }

    /// Close the stream `out` at `horizon` — the paper's convention that
    /// an incomplete invocation is accounted up to the measurement
    /// horizon — and append its `ThreadExit`. Innermost first: the open
    /// condvar wakes, the open barrier departs, then locks and rwlocks
    /// (each by id) close. An acquiring invocation becomes a zero-length
    /// hold and a held one is released, in the mode of its latest event.
    /// A contended one is excised instead, acquire and contended event
    /// both: a synthesized obtain would imply a release by another thread
    /// that never happened. Returns how many events were excised.
    pub(crate) fn close(mut self, horizon: Ts, out: &mut Vec<Event>) -> usize {
        if let Some(cv) = self.wait {
            out.push(Event::new(horizon, EventKind::CondWakeup { cv, signal_seq: SEQ_UNKNOWN }));
        }
        if let Some((barrier, epoch)) = self.barrier {
            out.push(Event::new(horizon, EventKind::BarrierDepart { barrier, epoch }));
        }
        self.open.sort_unstable_by_key(|o| (o.write.is_some(), o.lock));
        let mut excise = Vec::new();
        for o in &self.open {
            let (obtain, release) = match o.write {
                None => (
                    EventKind::LockObtain { lock: o.lock },
                    EventKind::LockRelease { lock: o.lock },
                ),
                Some(write) => (
                    EventKind::RwObtain { lock: o.lock, write },
                    EventKind::RwRelease { lock: o.lock, write },
                ),
            };
            match o.phase {
                Phase::Acquiring => {
                    out.push(Event::new(horizon, obtain));
                    out.push(Event::new(horizon, release));
                }
                Phase::Contended => excise.extend([o.acquire_at, o.contended_at]),
                Phase::Held => out.push(Event::new(horizon, release)),
            }
        }
        if !excise.is_empty() {
            excise.sort_unstable();
            let mut i = 0;
            out.retain(|_| {
                i += 1;
                excise.binary_search(&(i - 1)).is_err()
            });
        }
        out.push(Event::new(horizon, EventKind::ThreadExit));
        excise.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use EventKind::*;

    #[test]
    fn a_violation_leaves_the_state_untouched() {
        let l = ObjId(0);
        let mut p = Protocol::default();
        p.step(LockAcquire { lock: l }, 1).unwrap();
        p.step(LockObtain { lock: l }, 2).unwrap();
        let v = p.step(LockAcquire { lock: l }, 3).unwrap_err();
        assert_eq!(v.to_string(), "acquire of obj0 while in state 3");
        let v = p.step(CondWakeup { cv: ObjId(1), signal_seq: 0 }, 3).unwrap_err();
        assert_eq!(v.to_string(), "wakeup on obj1 but waiting on None");
        assert!(!p.quiesced());
        p.step(LockRelease { lock: l }, 3).unwrap();
        assert!(p.quiesced());
        assert_eq!(p.unclosed(), None);
    }

    #[test]
    fn close_runs_innermost_first_and_excises_contended_acquires() {
        let (l, rw, m, b, cv) = (ObjId(4), ObjId(1), ObjId(2), ObjId(3), ObjId(0));
        let steps = [
            LockAcquire { lock: l },
            LockObtain { lock: l },
            RwAcquire { lock: rw, write: false },
            RwObtain { lock: rw, write: true },
            LockAcquire { lock: m },
            LockContended { lock: m },
            BarrierArrive { barrier: b, epoch: 7 },
            CondWaitBegin { cv },
        ];
        let mut p = Protocol::default();
        let mut out = vec![Event::new(0, ThreadStart)];
        for kind in steps {
            p.step(kind, out.len()).unwrap();
            out.push(Event::new(1, kind));
        }
        assert_eq!(p.unclosed().unwrap(), "thread exits with rwlock obj1 in state 3");
        assert_eq!(p.close(9, &mut out), 2);
        let kinds: Vec<_> = out.iter().map(|e| e.kind).collect();
        let tail = [
            CondWakeup { cv, signal_seq: SEQ_UNKNOWN },
            BarrierDepart { barrier: b, epoch: 7 },
            LockRelease { lock: l },
            RwRelease { lock: rw, write: true },
            ThreadExit,
        ];
        assert_eq!(kinds, [&[ThreadStart][..], &steps[..4], &steps[6..], &tail].concat());
    }
}
