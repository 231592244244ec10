//! The per-thread synchronization protocol, as one state machine.
//!
//! Every thread stream obeys one protocol (the paper's §2): a lock or
//! rwlock invocation is acquire → (contended)? → obtain → release,
//! non-reentrant, with arbitrary nesting across distinct objects; a
//! barrier episode is arrive → depart on one barrier and epoch; a condvar
//! wait is wait-begin → wakeup on one condvar. [`Protocol`] holds that
//! state for one thread, and it is the only place that does: no driver
//! keeps a lock stack, barrier or wait state of its own.
//!
//! The drivers differ in what a violation costs and in what they read
//! back. `Trace::validate` rejects the trace, salvage cuts the stream
//! there, and the collector's repair drops the event and goes on; salvage
//! and repair then close what is still open with [`Protocol::close`]. The
//! stepping view (`episodes::steps`) also drops the event, and reads
//! what each event completed off the indices [`Protocol::step`] hands
//! back in [`Completed`]; the episode views and segment construction in
//! `critlock-analysis` are folds over that view. Window `clip` steps one
//! machine up to the window's leading edge and re-issues its open state
//! there, steps a second through the window (dropping what it rejects),
//! and closes that one's open state at the trailing edge by its own
//! rules.

use crate::event::{Event, EventKind, Ts, SEQ_UNKNOWN};
use crate::ids::ObjId;
use std::fmt;

/// How far an open lock or rwlock invocation has got, with the index
/// its driver gave the event that got it there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Requested, not yet obtained.
    Acquiring,
    /// Requested and blocked at the contended event `at`.
    Contended { at: usize },
    /// Obtained at `at`, after blocking if `contended`.
    Held { at: usize, contended: bool },
}

impl Phase {
    /// The number violation messages print (0 is idle, i.e. not open).
    fn number(self) -> u8 {
        match self {
            Phase::Acquiring => 1,
            Phase::Contended { .. } => 2,
            Phase::Held { .. } => 3,
        }
    }
}

/// One lock or rwlock invocation that has not been released.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Open {
    pub(crate) lock: ObjId,
    /// `None` for a mutex; for an rwlock, the mode of its latest event.
    write: Option<bool>,
    pub(crate) phase: Phase,
    /// The index the driver gave the acquire.
    pub(crate) acquire_at: usize,
}

impl Open {
    /// The obtain and the release of this invocation, in the mode of its
    /// latest event.
    pub(crate) fn obtain_release(&self) -> (EventKind, EventKind) {
        let lock = self.lock;
        match self.write {
            None => (EventKind::LockObtain { lock }, EventKind::LockRelease { lock }),
            Some(write) => {
                (EventKind::RwObtain { lock, write }, EventKind::RwRelease { lock, write })
            }
        }
    }
}

/// What one [`Protocol::step`] completed, by the indices the driver gave
/// its events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Completed {
    /// Nothing: the event opened or advanced something, or is not a
    /// protocol step.
    Nothing,
    /// The contended acquisition this obtain ended.
    Granted { acquire_at: usize },
    /// The lock or rwlock invocation this release ended.
    Invocation { acquire_at: usize, obtain_at: usize, contended: bool },
    /// The barrier episode this depart ended.
    Barrier { arrive_at: usize },
    /// The condvar wait this wakeup ended.
    Wait { begin_at: usize },
}

/// The protocol state of one thread: its open lock and rwlock
/// invocations, its open barrier episode and its open condvar wait, each
/// with the index the driver gave the event that opened it.
#[derive(Debug, Default)]
pub(crate) struct Protocol {
    /// Open invocations in acquisition order. Threads nest few locks, so
    /// a search from the innermost end beats hashing.
    open: Vec<Open>,
    /// Barrier, epoch and arrive index.
    barrier: Option<(ObjId, u32, usize)>,
    /// Condvar and wait-begin index.
    wait: Option<(ObjId, usize)>,
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
    /// output stream; the open state and [`Completed`] hand it back.
    /// Always inlined: every driver calls it once per event, and a
    /// driver that ignores the [`Completed`] then pays nothing for it.
    #[inline(always)]
    pub(crate) fn step(&mut self, kind: EventKind, at: usize) -> Result<Completed, Violation> {
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
                self.barrier = Some((barrier, epoch, at));
                return Ok(Completed::Nothing);
            }
            EventKind::BarrierDepart { barrier, epoch } => {
                return match self.barrier {
                    Some((b, e, arrive_at)) if (b, e) == (barrier, epoch) => {
                        self.barrier = None;
                        Ok(Completed::Barrier { arrive_at })
                    }
                    _ => Err(self.violation(kind, 0)),
                };
            }
            EventKind::CondWaitBegin { cv } if self.wait.is_none() => {
                self.wait = Some((cv, at));
                return Ok(Completed::Nothing);
            }
            EventKind::CondWakeup { cv, .. } => {
                return match self.wait {
                    Some((c, begin_at)) if c == cv => {
                        self.wait = None;
                        Ok(Completed::Wait { begin_at })
                    }
                    _ => Err(self.violation(kind, 0)),
                };
            }
            EventKind::BarrierArrive { .. } | EventKind::CondWaitBegin { .. } => {
                return Err(self.violation(kind, 0))
            }
            _ => return Ok(Completed::Nothing),
        };
        let found = self
            .open
            .iter()
            .rposition(|o| o.lock == lock && o.write.is_some() == write.is_some())
            .map(|i| (i, self.open[i].phase));
        let (i, phase) = match (step, found) {
            (LockStep::Acquire, None) => {
                self.open.push(Open { lock, write, phase: Phase::Acquiring, acquire_at: at });
                return Ok(Completed::Nothing);
            }
            (LockStep::Contend, Some((i, Phase::Acquiring))) => (i, Phase::Contended { at }),
            (LockStep::Obtain, Some((i, Phase::Acquiring))) => {
                (i, Phase::Held { at, contended: false })
            }
            (LockStep::Obtain, Some((i, Phase::Contended { .. }))) => {
                (i, Phase::Held { at, contended: true })
            }
            (LockStep::Release, Some((i, Phase::Held { at: obtain_at, contended }))) => {
                let acquire_at = self.open.remove(i).acquire_at;
                return Ok(Completed::Invocation { acquire_at, obtain_at, contended });
            }
            (_, found) => {
                return Err(self.violation(kind, found.map_or(0, |(_, p)| p.number())));
            }
        };
        // Only a contended obtain leaves an invocation held after contention.
        let granted = matches!(phase, Phase::Held { contended: true, .. });
        self.open[i] = Open { phase, write, ..self.open[i] };
        let acquire_at = self.open[i].acquire_at;
        Ok(if granted { Completed::Granted { acquire_at } } else { Completed::Nothing })
    }

    fn violation(&self, kind: EventKind, phase: u8) -> Violation {
        Violation {
            kind,
            phase,
            barrier: self.barrier.map(|(b, e, _)| (b, e)),
            wait: self.wait.map(|(cv, _)| cv),
        }
    }

    /// The open lock and rwlock invocations, in acquisition order.
    pub(crate) fn open(&self) -> &[Open] {
        &self.open
    }

    /// The open barrier episode: barrier, epoch and arrive index.
    pub(crate) fn barrier(&self) -> Option<(ObjId, u32, usize)> {
        self.barrier
    }

    /// The open condvar wait: condvar and wait-begin index.
    pub(crate) fn wait(&self) -> Option<(ObjId, usize)> {
        self.wait
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
            let phase = o.phase.number();
            return Some(format!("thread exits with rwlock {} in state {phase}", o.lock));
        }
        if let Some(o) = lowest(false) {
            return Some(format!("thread exits with {} in state {}", o.lock, o.phase.number()));
        }
        if let Some((b, _, _)) = self.barrier {
            return Some(format!("thread exits inside barrier {b}"));
        }
        self.wait.map(|(cv, _)| format!("thread exits inside condvar wait {cv}"))
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
        if let Some((cv, _)) = self.wait {
            out.push(Event::new(horizon, EventKind::CondWakeup { cv, signal_seq: SEQ_UNKNOWN }));
        }
        if let Some((barrier, epoch, _)) = self.barrier {
            out.push(Event::new(horizon, EventKind::BarrierDepart { barrier, epoch }));
        }
        self.open.sort_unstable_by_key(|o| (o.write.is_some(), o.lock));
        let mut excised = Vec::new();
        for o in &self.open {
            let (obtain, release) = o.obtain_release();
            match o.phase {
                Phase::Acquiring => {
                    out.push(Event::new(horizon, obtain));
                    out.push(Event::new(horizon, release));
                }
                Phase::Contended { at } => excised.extend([o.acquire_at, at]),
                Phase::Held { .. } => out.push(Event::new(horizon, release)),
            }
        }
        let n = excised.len();
        excise(out, excised);
        out.push(Event::new(horizon, EventKind::ThreadExit));
        n
    }
}

/// Remove the events at the indices `at` (in any order) from `out`.
pub(crate) fn excise(out: &mut Vec<Event>, mut at: Vec<usize>) {
    if at.is_empty() {
        return;
    }
    at.sort_unstable();
    let mut i = 0;
    out.retain(|_| {
        i += 1;
        at.binary_search(&(i - 1)).is_err()
    });
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
        let done = p.step(LockRelease { lock: l }, 3).unwrap();
        assert_eq!(done, Completed::Invocation { acquire_at: 1, obtain_at: 2, contended: false });
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
