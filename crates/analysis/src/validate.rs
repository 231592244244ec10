//! Cross-thread consistency checks for traces and critical paths.
//!
//! [`critlock_trace::Trace::validate`] checks the *per-thread* event
//! protocol; this module adds the *cross-thread* invariants the analysis
//! relies on, and sanity checks on the analysis output itself. Violations
//! are reported as typed [`Anomaly`] warnings rather than errors: real-
//! clock traces can legitimately contain small anomalies (wakeup
//! latencies, clock skew between cores) that the analysis tolerates.
//! JSON reports carry the anomalies machine-readably; their
//! [`std::fmt::Display`] form is the human-readable warning text.

use crate::cp::CriticalPath;
use crate::segments::{Hints, SegmentedTrace, StartCause};
use critlock_trace::{Anomaly, ClockDomain, LockEpisode, Trace};
use std::collections::{BTreeMap, HashMap};

/// Check cross-thread consistency of a trace. Returns typed warnings;
/// empty means clean. The order is deterministic: each check reports in
/// thread-id order, or in object-id order where it groups by object.
///
/// One pass over each stream builds the segmented trace, and every check
/// reads it: its creation, release and signal lookups, its invocations,
/// and the start causes of its segments, which are the trace's barrier,
/// condvar and join episodes in each thread's completion order.
pub fn check_trace(trace: &Trace) -> Vec<Anomaly> {
    let mut warnings = Vec::new();
    let st = SegmentedTrace::build(trace);
    let resumed = || st.iter_threads().flatten().map(|s| (s.tid, s.start, s.start_cause));

    // Creation edges: child must start at or after its creation.
    for stream in &trace.threads {
        if let (Some((_, create_ts)), Some(start_ts)) =
            (st.creator_of(stream.tid), stream.start_ts())
        {
            if start_ts < create_ts {
                warnings.push(Anomaly::StartBeforeCreation {
                    tid: stream.tid,
                    start: start_ts,
                    create: create_ts,
                });
            }
        }
    }

    // Join edges: join cannot return before the child exits.
    let exits: HashMap<u32, u64> =
        trace.threads.iter().filter_map(|s| s.end_ts().map(|ts| (s.tid.0, ts))).collect();
    for (tid, join_end, cause) in resumed() {
        let StartCause::JoinReturned { child, .. } = cause else { continue };
        if let Some(&exit_ts) = exits.get(&child.0) {
            if join_end < exit_ts {
                warnings.push(Anomaly::JoinBeforeChildExit {
                    tid,
                    child,
                    join_end,
                    child_exit: exit_ts,
                });
            }
        } else {
            warnings.push(Anomaly::JoinOfNonExitingThread { tid, child });
        }
    }

    // Contended obtains must have an enabling release by another thread.
    let lock_eps = || st.iter_invocations().flat_map(|(locks, _)| locks);
    let rw_eps = || st.iter_invocations().flat_map(|(_, rws)| rws);
    let sections = lock_eps().map(|&e| (e, false)).chain(rw_eps().map(|&e| (e.into(), true)));
    let mut releases = Hints::new(trace.objects.len());
    for (ep, rw) in sections.filter(|(ep, _)| ep.contended) {
        let LockEpisode { tid, lock, obtain, .. } = ep;
        if st.latest_release_from(lock, obtain, tid, releases.row(lock.index())).is_none() {
            let lock = trace.object_name(lock);
            warnings.push(Anomaly::OrphanContendedObtain { tid, lock, obtain, rw });
        }
    }

    // Mutual exclusion: hold intervals of the same lock must not overlap
    // across threads (zero-length touching at handoff points is fine).
    let mut holds: BTreeMap<critlock_trace::ObjId, Vec<(u64, u64, u32)>> = BTreeMap::new();
    for ep in lock_eps() {
        holds.entry(ep.lock).or_default().push((ep.obtain, ep.release, ep.tid.0));
    }
    for (lock, mut ivs) in holds {
        ivs.sort();
        for w in ivs.windows(2) {
            let (_, end_a, tid_a) = w[0];
            let (start_b, _, tid_b) = w[1];
            if start_b < end_a && tid_a != tid_b {
                warnings.push(Anomaly::OverlappingHolds {
                    lock: trace.object_name(lock),
                    first: critlock_trace::ThreadId(tid_a),
                    second: critlock_trace::ThreadId(tid_b),
                    start: start_b,
                    end: end_a,
                });
            }
        }
    }

    // Reader-writer exclusion: a write hold may not overlap any other
    // hold of the same rwlock.
    let mut rw_holds: BTreeMap<critlock_trace::ObjId, Vec<(u64, u64, bool, u32)>> = BTreeMap::new();
    for ep in rw_eps() {
        rw_holds.entry(ep.lock).or_default().push((ep.obtain, ep.release, ep.write, ep.tid.0));
    }
    for (lock, mut ivs) in rw_holds {
        ivs.sort();
        for a in 0..ivs.len() {
            for b in (a + 1)..ivs.len() {
                let (sa, ea, wa, ta) = ivs[a];
                let (sb, eb, wb, tb) = ivs[b];
                if sb >= ea {
                    break;
                }
                if (wa || wb) && sb < ea && sa < eb && ta != tb {
                    warnings.push(Anomaly::RwWriteOverlap {
                        lock: trace.object_name(lock),
                        first: critlock_trace::ThreadId(ta),
                        second: critlock_trace::ThreadId(tb),
                    });
                }
            }
        }
    }

    // Barrier episodes: all participants of one (barrier, epoch) must
    // depart at the same time — the last arrival.
    let mut by_episode: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new(); // (max arrive, depart)
    for (_, depart, cause) in resumed() {
        let StartCause::BarrierDeparted { barrier, epoch, arrive } = cause else { continue };
        let e = by_episode.entry((barrier.0, epoch)).or_insert((0, depart));
        e.0 = e.0.max(arrive);
        if depart != e.1 {
            warnings.push(Anomaly::InconsistentBarrierDeparts {
                barrier,
                epoch,
                depart,
                expected: e.1,
            });
        }
    }
    for ((b, epoch), (max_arrive, depart)) in by_episode {
        if depart < max_arrive {
            warnings.push(Anomaly::BarrierDepartBeforeArrival {
                barrier: critlock_trace::ObjId(b),
                epoch,
                depart,
                last_arrival: max_arrive,
            });
        }
    }

    // Condvar waits should not end before the trace's earliest matching
    // signal (weak check: only when a sequence number is present).
    for (tid, wakeup, cause) in resumed() {
        let StartCause::CondWoken { cv, signal_seq, .. } = cause else { continue };
        if signal_seq != critlock_trace::SEQ_UNKNOWN {
            match st.signal_by_seq(cv, signal_seq) {
                Some((signal_ts, _)) if wakeup < signal_ts => warnings
                    .push(Anomaly::WakeupBeforeSignal { tid, wakeup, signal_seq, signal_ts }),
                None => warnings.push(Anomaly::UnrecordedSignal { tid, cv, signal_seq }),
                _ => {}
            }
        }
    }

    warnings
}

/// Check the invariants of a computed critical path against its trace.
pub fn check_critical_path(trace: &Trace, cp: &CriticalPath) -> Vec<Anomaly> {
    let mut warnings = Vec::new();

    if cp.length > cp.makespan {
        warnings.push(Anomaly::PathLongerThanMakespan { length: cp.length, makespan: cp.makespan });
    }

    // Chronology and (for virtual-time traces) exact tiling.
    let strict = trace.meta.clock == ClockDomain::VirtualNs && cp.complete;
    if let Err(e) = cp.check_tiling(strict) {
        warnings.push(Anomaly::BrokenTiling { detail: e });
    }

    // Every slice must lie within its thread's lifetime.
    for s in &cp.slices {
        if let Some(stream) = trace.thread(s.tid) {
            let (start, end) =
                (stream.start_ts().unwrap_or(0), stream.end_ts().unwrap_or(u64::MAX));
            if s.start < start || s.end > end {
                warnings.push(Anomaly::SliceOutsideLifetime {
                    tid: s.tid,
                    slice_start: s.start,
                    slice_end: s.end,
                    start,
                    end,
                });
            }
        } else {
            warnings.push(Anomaly::SliceUnknownThread { tid: s.tid });
        }
    }

    warnings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::critical_path;
    use critlock_trace::{Event, EventKind, ThreadId, TraceBuilder};

    fn clean_trace() -> Trace {
        let mut b = TraceBuilder::new("clean");
        let l = b.lock("L");
        let bar = b.barrier("B");
        let main = b.thread("main", 0);
        let w = b.thread("w", 1);
        b.on(w).work(1).cs_blocked(l, 4, 2).barrier(bar, 0, 8).exit_at(9);
        b.on(main).create(w).cs(l, 4).work(4).barrier(bar, 0, 8).join(w, 9).exit_at(10);
        b.build().unwrap()
    }

    #[test]
    fn clean_trace_no_warnings() {
        let t = clean_trace();
        assert!(check_trace(&t).is_empty(), "{:?}", check_trace(&t));
        let cp = critical_path(&t);
        assert!(check_critical_path(&t, &cp).is_empty(), "{:?}", check_critical_path(&t, &cp));
    }

    #[test]
    fn child_starting_before_create_flagged() {
        let mut b = TraceBuilder::new("bad");
        let main = b.thread("main", 0);
        let w = b.thread("w", 0); // starts at 0 ...
        b.on(w).work(1).exit();
        b.on(main).work(5).create(w).exit_at(6); // ... created at 5
        let t = b.build().unwrap();
        let w = check_trace(&t);
        assert!(w.iter().any(|m| m.to_string().contains("before its creation")), "{w:?}");
        assert!(w.iter().any(|m| matches!(m, Anomaly::StartBeforeCreation { .. })));
    }

    #[test]
    fn contended_obtain_without_release_flagged() {
        let mut b = TraceBuilder::new("orphan");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        b.on(t0).cs_blocked(l, 5, 2).exit();
        let t = b.build().unwrap();
        let w = check_trace(&t);
        assert!(w.iter().any(|m| m.to_string().contains("no prior release")), "{w:?}");
        assert!(w.iter().any(|m| matches!(m, Anomaly::OrphanContendedObtain { rw: false, .. })));
    }

    #[test]
    fn overlapping_holds_flagged() {
        // Construct raw streams that individually validate but violate
        // mutual exclusion across threads.
        let mut t = Trace::new(critlock_trace::TraceMeta::named("overlap"));
        let l = t.register_object(critlock_trace::ObjKind::Lock, "L");
        for tid in 0..2u32 {
            let mut s = critlock_trace::ThreadStream::new(ThreadId(tid));
            s.events = vec![
                Event::new(0, EventKind::ThreadStart),
                Event::new(1, EventKind::LockAcquire { lock: l }),
                Event::new(1, EventKind::LockObtain { lock: l }),
                Event::new(5, EventKind::LockRelease { lock: l }),
                Event::new(6, EventKind::ThreadExit),
            ];
            t.push_thread(s);
        }
        t.validate().unwrap();
        let w = check_trace(&t);
        assert!(w.iter().any(|m| m.to_string().contains("held concurrently")), "{w:?}");
        assert!(w.iter().any(|m| matches!(m, Anomaly::OverlappingHolds { .. })));
    }

    /// Two threads overlap their holds of eight locks and eight write
    /// rwlocks and depart eight barriers before the last arrival: each
    /// check reports in object-id order, as a map with a random iteration
    /// order did not.
    #[test]
    fn warnings_come_in_object_id_order() {
        use critlock_trace::ObjKind;
        let mut t = Trace::new(critlock_trace::TraceMeta::named("order"));
        let locks: Vec<_> =
            (0..8).map(|i| t.register_object(ObjKind::Lock, format!("L{i}"))).collect();
        let rws: Vec<_> =
            (0..8).map(|i| t.register_object(ObjKind::RwLock, format!("R{i}"))).collect();
        let bars: Vec<_> =
            (0..8).map(|i| t.register_object(ObjKind::Barrier, format!("B{i}"))).collect();
        for tid in 0..2u32 {
            let mut s = critlock_trace::ThreadStream::new(ThreadId(tid));
            s.events.push(Event::new(0, EventKind::ThreadStart));
            // Acquire in reverse id order, so report order is not event order.
            for (i, (&lock, &rw)) in locks.iter().zip(&rws).rev().enumerate() {
                let ts = 10 * i as u64 + 1;
                s.events.extend([
                    Event::new(ts, EventKind::LockAcquire { lock }),
                    Event::new(ts, EventKind::LockObtain { lock }),
                    Event::new(ts + 2, EventKind::LockRelease { lock }),
                    Event::new(ts + 2, EventKind::RwAcquire { lock: rw, write: true }),
                    Event::new(ts + 2, EventKind::RwObtain { lock: rw, write: true }),
                    Event::new(ts + 4, EventKind::RwRelease { lock: rw, write: true }),
                ]);
            }
            // Thread 0 departs each barrier before thread 1 arrives.
            for (i, &barrier) in bars.iter().rev().enumerate() {
                let ts = 100 + 10 * i as u64;
                let arrive = ts + 5 * tid as u64;
                s.events.extend([
                    Event::new(arrive, EventKind::BarrierArrive { barrier, epoch: 0 }),
                    Event::new(arrive.max(ts + 1), EventKind::BarrierDepart { barrier, epoch: 0 }),
                ]);
            }
            s.events.push(Event::new(200, EventKind::ThreadExit));
            t.push_thread(s);
        }
        t.validate().unwrap();
        let w = check_trace(&t);
        let holds: Vec<String> =
            w.iter()
                .filter_map(|a| match a {
                    Anomaly::OverlappingHolds { lock, .. }
                    | Anomaly::RwWriteOverlap { lock, .. } => Some(lock.clone()),
                    _ => None,
                })
                .collect();
        let expected: Vec<String> =
            (0..8).map(|i| format!("L{i}")).chain((0..8).map(|i| format!("R{i}"))).collect();
        assert_eq!(holds, expected, "{w:?}");
        let barriers: Vec<_> = w
            .iter()
            .filter_map(|a| match a {
                Anomaly::BarrierDepartBeforeArrival { barrier, .. } => Some(*barrier),
                _ => None,
            })
            .collect();
        assert_eq!(barriers, bars, "{w:?}");
    }

    #[test]
    fn join_of_never_exiting_child() {
        // A child with an empty stream.
        let mut t = Trace::new(critlock_trace::TraceMeta::named("nojoin"));
        let mut main = critlock_trace::ThreadStream::new(ThreadId(0));
        main.events = vec![
            Event::new(0, EventKind::ThreadStart),
            Event::new(1, EventKind::JoinBegin { child: ThreadId(1) }),
            Event::new(2, EventKind::JoinEnd { child: ThreadId(1) }),
            Event::new(3, EventKind::ThreadExit),
        ];
        t.push_thread(main);
        t.push_thread(critlock_trace::ThreadStream::new(ThreadId(1)));
        t.validate().unwrap();
        let w = check_trace(&t);
        assert!(w.iter().any(|m| m.to_string().contains("never exits")), "{w:?}");
        assert!(w.iter().any(|m| matches!(m, Anomaly::JoinOfNonExitingThread { .. })));
    }

    #[test]
    fn cp_invariants_on_clean_trace() {
        let t = clean_trace();
        let cp = critical_path(&t);
        assert!(cp.complete);
        assert_eq!(cp.length, t.makespan());
        assert!(check_critical_path(&t, &cp).is_empty());
    }

    #[test]
    fn corrupted_cp_flagged() {
        let t = clean_trace();
        let mut cp = critical_path(&t);
        // Inflate a slice beyond the thread lifetime.
        if let Some(s) = cp.slices.last_mut() {
            s.end += 1000;
        }
        cp.length += 1000;
        let w = check_critical_path(&t, &cp);
        assert!(!w.is_empty());
    }
}
