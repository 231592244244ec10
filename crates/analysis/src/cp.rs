//! The backward critical-path walk (the paper's Fig. 2 algorithm).
//!
//! Starting from the last segment of the last-finishing thread, walk
//! backwards. Whenever the current segment started because some other
//! thread *enabled* it — released the lock it was blocked on, arrived last
//! at its barrier, signalled its condition variable, exited so its join
//! could return, or created it — jump to that thread at the enabling
//! instant; otherwise continue with the previous segment of the same
//! thread. Every instant the walk passes through is *on the critical
//! path*; in particular, every critical section the walk traverses is a
//! *hot critical section* and its lock a *critical lock*.
//!
//! The walk produces a list of [`CpSlice`]s — per-thread time intervals
//! whose concatenation (in chronological order) is the critical path.
//!
//! Unlike segment construction and metric accumulation (parallelized in
//! [`crate::segments`] / [`crate::metrics`]), the walk itself is — and
//! must stay — serial: each step's position depends on the previous
//! step's resolved dependence (which thread enabled this segment, found
//! by querying the index at the walk's current instant), so it is a
//! single dependence chain with no independent work to distribute. It is
//! also cheap: each step is one lookup in the pre-built indices, started
//! from the walk's search hint for that lock or thread (see
//! [`crate::segments`]), far below the `O(total events)` pre-processing
//! that is parallelized.

use crate::segments::{Hints, SegmentedTrace, StartCause};
use critlock_trace::{ThreadId, Trace, Ts};
use serde::{Deserialize, Serialize};

/// One contiguous piece of the critical path executed by one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpSlice {
    /// The thread executing this piece.
    pub tid: ThreadId,
    /// Start of the interval.
    pub start: Ts,
    /// End of the interval.
    pub end: Ts,
}

impl CpSlice {
    /// Length of the slice.
    pub fn duration(&self) -> Ts {
        self.end.saturating_sub(self.start)
    }
}

/// Result of the critical-path walk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Slices in chronological order.
    pub slices: Vec<CpSlice>,
    /// Sum of slice durations.
    pub length: Ts,
    /// The trace's end-to-end completion time, for reference.
    pub makespan: Ts,
    /// Whether the walk reached the very beginning of the execution. A
    /// `false` here means the trace had an unresolvable dependence (e.g. a
    /// condvar wakeup with no recorded signal) and the path is partial.
    pub complete: bool,
}

impl CriticalPath {
    /// Fraction of the makespan covered by the critical path. For
    /// well-formed virtual-time traces this is exactly 1.0.
    pub fn coverage(&self) -> f64 {
        if self.makespan == 0 {
            1.0
        } else {
            self.length as f64 / self.makespan as f64
        }
    }

    /// The slices of one thread, in chronological order.
    pub fn slices_of(&self, tid: ThreadId) -> Vec<CpSlice> {
        self.slices.iter().copied().filter(|s| s.tid == tid).collect()
    }

    /// Check that the slices are non-overlapping and chronologically
    /// ordered, and (for `strict`) that consecutive slices are contiguous
    /// so the path tiles the whole makespan.
    pub fn check_tiling(&self, strict: bool) -> Result<(), String> {
        for w in self.slices.windows(2) {
            if w[0].end > w[1].start {
                return Err(format!("overlapping slices: {:?} then {:?}", w[0], w[1]));
            }
            if strict && w[0].end != w[1].start {
                return Err(format!("gap between slices: {:?} then {:?}", w[0], w[1]));
            }
        }
        if strict && self.length != self.makespan {
            return Err(format!(
                "critical path length {} != makespan {}",
                self.length, self.makespan
            ));
        }
        Ok(())
    }
}

/// Walk the critical path of a trace.
///
/// This is the main entry point of the identification step; combine with
/// [`crate::metrics::analyze`] for the full report.
pub fn critical_path(trace: &Trace) -> CriticalPath {
    let st = SegmentedTrace::build(trace);
    critical_path_segmented(trace, &st)
}

/// Walk the critical path given a pre-built [`SegmentedTrace`].
pub fn critical_path_segmented(trace: &Trace, st: &SegmentedTrace) -> CriticalPath {
    let makespan = trace.makespan();
    let mut slices: Vec<CpSlice> = Vec::new();
    let mut complete = true;

    let Some(last_tid) = trace.last_finisher() else {
        return CriticalPath { slices, length: 0, makespan, complete: true };
    };
    let last_segs = st.thread(last_tid);
    let Some(last_seg) = last_segs.last() else {
        return CriticalPath { slices, length: 0, makespan, complete: true };
    };

    // Current position: thread, segment index, and the time up to which
    // that segment is on the critical path.
    let mut tid = last_tid;
    let mut idx = last_seg.index;
    let mut upto = last_seg.end;

    // Where the walk last searched each lock's releases and each
    // thread's segments.
    let mut releases = Hints::new(trace.objects.len());
    let mut segments = Hints::new(trace.threads.len());

    // Each (thread, segment) can be visited at most once per enabling
    // cause; a generous step bound guards against pathological traces.
    let max_steps = st.num_segments().saturating_mul(4) + 16;
    let mut steps = 0usize;

    loop {
        steps += 1;
        if steps > max_steps {
            complete = false;
            break;
        }
        let seg = st.thread(tid)[idx];
        let slice_start = seg.start.min(upto);
        slices.push(CpSlice { tid, start: slice_start, end: upto });

        // Where does the walk go from the start of this segment?
        enum Next {
            Jump(ThreadId, Ts),
            SameThread,
            Stop { at_start: bool },
        }
        let next = match seg.start_cause {
            StartCause::ThreadStart => match st.creator_of(tid) {
                Some((parent, create_ts)) => Next::Jump(parent, create_ts),
                None => Next::Stop { at_start: seg.start <= st.trace_start },
            },
            StartCause::LockGranted { lock, .. } => {
                match st.latest_release_from(lock, seg.start, tid, releases.row(lock.index())) {
                    Some((release_ts, releaser)) => Next::Jump(releaser, release_ts),
                    // No matching release: degrade gracefully.
                    None => Next::SameThread,
                }
            }
            StartCause::BarrierDeparted { barrier, epoch, .. } => {
                match st.last_arriver(barrier, epoch) {
                    Some((arrive_ts, arriver)) if arriver != tid => Next::Jump(arriver, arrive_ts),
                    _ => Next::SameThread,
                }
            }
            StartCause::CondWoken { cv, signal_seq, .. } => {
                match st.matching_signal(cv, signal_seq, seg.start, tid) {
                    Some((signal_ts, signaler)) => Next::Jump(signaler, signal_ts),
                    None => {
                        // Lost signal edge: the path is broken here.
                        complete = false;
                        Next::Stop { at_start: false }
                    }
                }
            }
            StartCause::JoinReturned { child, begin } => match st.exit_ts(child) {
                Some(exit_ts) if exit_ts > begin => Next::Jump(child, exit_ts),
                _ => Next::SameThread,
            },
        };

        match next {
            // An enabling instant after the segment it enabled is clock
            // skew; the walk never moves forward in time.
            Next::Jump(target, at) => {
                match st.segment_from(target, at.min(seg.start), segments.row(target.index())) {
                    Some(tseg) => {
                        tid = target;
                        idx = tseg.index;
                        upto = at.min(seg.start);
                    }
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            Next::SameThread => {
                if idx == 0 {
                    // First segment, no enabling edge recorded: the walk
                    // ends at this thread's beginning.
                    complete = complete && seg.start <= st.trace_start;
                    break;
                }
                idx -= 1;
                upto = st.thread(tid)[idx].end;
            }
            Next::Stop { at_start } => {
                complete = complete && at_start;
                break;
            }
        }
    }

    slices.reverse();
    // Merge zero-length and adjacent same-thread slices for cleanliness.
    let merged = merge_slices(slices);
    let length = merged.iter().map(CpSlice::duration).sum();
    CriticalPath { slices: merged, length, makespan, complete }
}

/// Merge adjacent slices of the same thread and drop empty ones.
fn merge_slices(slices: Vec<CpSlice>) -> Vec<CpSlice> {
    let mut out: Vec<CpSlice> = Vec::with_capacity(slices.len());
    for s in slices {
        if let Some(last) = out.last_mut() {
            if last.tid == s.tid && last.end == s.start {
                last.end = s.end;
                continue;
            }
        }
        if s.duration() == 0 {
            // Keep a zero-length slice only if it would otherwise break
            // chronology bookkeeping; they carry no time, drop them.
            continue;
        }
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use critlock_trace::TraceBuilder;

    /// A barrier depart stamped before the last arrival (clock skew): the
    /// walk jumps to the arriver no later than the depart, so the path
    /// never overlaps itself.
    #[test]
    fn skewed_enabling_instant_does_not_move_the_walk_forward() {
        let mut b = TraceBuilder::new("skew");
        let bar = b.barrier("B");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).work(10).barrier(bar, 0, 12).exit();
        b.on(t1).work(5).barrier(bar, 0, 9).work(11).exit(); // exits at 20
        let t = b.build().unwrap();
        let cp = critical_path(&t);
        cp.check_tiling(false).unwrap();
        assert_eq!(cp.slices[0], CpSlice { tid: ThreadId(0), start: 0, end: 9 });
        assert_eq!(cp.length, 20);
    }

    /// Two threads contending on one lock; the CP is T0's CS followed by
    /// T1's CS and tail.
    #[test]
    fn simple_lock_chain() {
        let mut b = TraceBuilder::new("chain");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).cs(l, 4).exit_at(5);
        b.on(t1).work(1).cs_blocked(l, 4, 2).work(3).exit(); // exits at 9
        let t = b.build().unwrap();
        let cp = critical_path(&t);
        assert!(cp.complete);
        assert_eq!(cp.makespan, 9);
        assert_eq!(cp.length, 9);
        cp.check_tiling(true).unwrap();
        // CP: T0 [0,4] then T1 [4,9].
        assert_eq!(cp.slices.len(), 2);
        assert_eq!(cp.slices[0], CpSlice { tid: ThreadId(0), start: 0, end: 4 });
        assert_eq!(cp.slices[1], CpSlice { tid: ThreadId(1), start: 4, end: 9 });
    }

    /// A contended lock whose waiter finishes early is NOT on the critical
    /// path: the paper's key insight.
    #[test]
    fn off_path_contention_ignored() {
        let mut b = TraceBuilder::new("offpath");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        // T0 holds L [0,6]; T1 blocks on L at 1, gets it at 6, holds 1,
        // exits at 7. T0 keeps computing until 20 and finishes last.
        b.on(t0).cs(l, 6).work(14).exit(); // exit 20
        b.on(t1).work(1).cs_blocked(l, 6, 1).exit(); // exit 7
        let t = b.build().unwrap();
        let cp = critical_path(&t);
        assert!(cp.complete);
        assert_eq!(cp.length, 20);
        cp.check_tiling(true).unwrap();
        // CP never leaves T0.
        assert!(cp.slices.iter().all(|s| s.tid == ThreadId(0)));
    }

    #[test]
    fn barrier_jump_to_last_arriver() {
        let mut b = TraceBuilder::new("barrier");
        let bar = b.barrier("B");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        // T1 arrives last at 7; both depart at 7; T0 then runs 5, T1 runs 1.
        b.on(t0).work(3).barrier(bar, 0, 7).work(5).exit(); // exit 12
        b.on(t1).work(7).barrier(bar, 0, 7).work(1).exit(); // exit 8
        let t = b.build().unwrap();
        let cp = critical_path(&t);
        assert!(cp.complete);
        assert_eq!(cp.length, 12);
        cp.check_tiling(true).unwrap();
        // CP: T1 [0,7] (last arriver), then T0 [7,12].
        assert_eq!(cp.slices[0], CpSlice { tid: ThreadId(1), start: 0, end: 7 });
        assert_eq!(cp.slices[1], CpSlice { tid: ThreadId(0), start: 7, end: 12 });
    }

    #[test]
    fn condvar_jump_to_signaler() {
        let mut b = TraceBuilder::new("cv");
        let cv = b.condvar("CV");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).work(6).cond_signal(cv, 1).exit_at(7);
        b.on(t1).work(1).cond_wait(cv, 6, 1).work(4).exit(); // exit 10
        let t = b.build().unwrap();
        let cp = critical_path(&t);
        assert!(cp.complete);
        assert_eq!(cp.length, 10);
        cp.check_tiling(true).unwrap();
        assert_eq!(cp.slices[0], CpSlice { tid: ThreadId(0), start: 0, end: 6 });
        assert_eq!(cp.slices[1], CpSlice { tid: ThreadId(1), start: 6, end: 10 });
    }

    #[test]
    fn join_jump_to_child_exit() {
        let mut b = TraceBuilder::new("join");
        let main = b.thread("main", 0);
        let w = b.thread("w", 1);
        b.on(w).work(9).exit(); // exit 10
        b.on(main).work(1).create(w).work(2).join(w, 10).work(1).exit(); // exit 11
        let t = b.build().unwrap();
        let cp = critical_path(&t);
        assert!(cp.complete);
        assert_eq!(cp.length, 11);
        cp.check_tiling(true).unwrap();
        // CP: main [0,1] (creator), w [1,10], main [10,11].
        assert_eq!(cp.slices.len(), 3);
        assert_eq!(cp.slices[0], CpSlice { tid: ThreadId(0), start: 0, end: 1 });
        assert_eq!(cp.slices[1], CpSlice { tid: ThreadId(1), start: 1, end: 10 });
        assert_eq!(cp.slices[2], CpSlice { tid: ThreadId(0), start: 10, end: 11 });
    }

    #[test]
    fn join_that_did_not_block_stays_on_parent() {
        let mut b = TraceBuilder::new("join-noblock");
        let main = b.thread("main", 0);
        let w = b.thread("w", 1);
        b.on(w).work(1).exit(); // exit 2
        b.on(main).work(1).create(w).work(5).join(w, 6).work(1).exit(); // exit 7
        let t = b.build().unwrap();
        let cp = critical_path(&t);
        assert!(cp.complete);
        assert_eq!(cp.length, 7);
        assert!(cp.slices.iter().all(|s| s.tid == ThreadId(0)));
    }

    #[test]
    fn empty_trace() {
        let t = critlock_trace::Trace::default();
        let cp = critical_path(&t);
        assert!(cp.complete);
        assert_eq!(cp.length, 0);
        assert!(cp.slices.is_empty());
    }

    #[test]
    fn single_thread_whole_run_is_cp() {
        let mut b = TraceBuilder::new("single");
        let t0 = b.thread("T0", 0);
        b.on(t0).work(42).exit();
        let t = b.build().unwrap();
        let cp = critical_path(&t);
        assert!(cp.complete);
        assert_eq!(cp.length, 42);
        assert_eq!(cp.coverage(), 1.0);
    }

    #[test]
    fn lost_signal_yields_partial_path() {
        let mut b = TraceBuilder::new("lost");
        let cv = b.condvar("CV");
        let t0 = b.thread("T0", 0);
        // A wait that nobody signals in the trace.
        b.on(t0).work(1).cond_wait_unmatched(cv, 5).work(2).exit();
        let t = b.build().unwrap();
        let cp = critical_path(&t);
        assert!(!cp.complete);
        assert!(cp.length < cp.makespan);
    }

    /// Regression (found by proptest): threads whose rounds are empty
    /// produce zero-length segments whose boundaries coincide with barrier
    /// episodes; the walk used to jump into a *later* same-instant segment
    /// and cycle, truncating the path to zero.
    #[test]
    fn zero_length_segment_ties_at_barriers() {
        let mut b = critlock_trace::TraceBuilder::new("tie");
        let bar = b.barrier("B");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        // T0 computes 72 then crosses two back-to-back barriers; T1 does
        // nothing but cross them — all its segments are zero-length and
        // sit exactly at t=72.
        b.on(t0).work(72).barrier(bar, 0, 72).barrier(bar, 1, 72).exit_at(72);
        b.on(t1).barrier(bar, 0, 72).barrier(bar, 1, 72).exit_at(72);
        let t = b.build().unwrap();
        let cp = critical_path(&t);
        assert!(cp.complete);
        assert_eq!(cp.length, 72);
        cp.check_tiling(true).unwrap();
    }

    /// A quarantined thread (emptied by salvage) must not break the walk:
    /// the remaining threads still produce a complete path over their own
    /// dependence chain.
    #[test]
    fn quarantined_thread_is_tolerated() {
        let mut b = TraceBuilder::new("quarantine");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        let t2 = b.thread("T2", 0);
        b.on(t0).cs(l, 4).exit_at(5);
        b.on(t1).work(1).cs_blocked(l, 4, 2).work(3).exit(); // exits at 9
        b.on(t2).work(2).exit();
        let mut t = b.build().unwrap();
        // Simulate salvage quarantining T2: its stream is emptied but the
        // thread slot is preserved so indices stay valid.
        t.threads[2].events.clear();
        let cp = critical_path(&t);
        assert_eq!(cp.makespan, 9);
        assert_eq!(cp.length, 9);
        cp.check_tiling(false).unwrap();
        assert!(cp.slices.iter().all(|s| s.tid != ThreadId(2)));
    }

    /// A writer blocked by two readers: the walk jumps through the reader
    /// that released last, and the rw critical sections land on the path.
    #[test]
    fn rwlock_writer_waits_for_last_reader() {
        let mut b = critlock_trace::TraceBuilder::new("rw-cp");
        let l = b.rwlock("R");
        let r0 = b.thread("r0", 0);
        let r1 = b.thread("r1", 0);
        let w = b.thread("w", 0);
        b.on(r0).rw(l, false, 6).exit_at(7);
        b.on(r1).rw(l, false, 10).exit_at(11);
        b.on(w).work(1).rw_blocked(l, true, 10, 5).work(2).exit(); // exit 17
        let t = b.build().unwrap();
        let cp = critical_path(&t);
        assert!(cp.complete);
        assert_eq!(cp.length, 17);
        cp.check_tiling(true).unwrap();
        // CP: r1 [0,10] (the longest reader), then the writer [10,17].
        assert_eq!(cp.slices[0], CpSlice { tid: ThreadId(1), start: 0, end: 10 });
        assert_eq!(cp.slices[1], CpSlice { tid: ThreadId(2), start: 10, end: 17 });

        let rep = crate::metrics::analyze_with(&t, &cp);
        let lr = rep.lock_by_name("R").unwrap();
        // r1's read hold (10) and the writer's hold (5) are on the path;
        // r0's read hold is overlapped by r1's.
        assert_eq!(lr.cp_time, 15);
        assert_eq!(lr.invocations_on_cp, 2);
        assert_eq!(lr.contended_on_cp, 1);
        assert_eq!(lr.total_invocations, 3);
    }

    /// The lock-handoff chain from the micro-benchmark (Fig. 5–7), scaled
    /// down: 4 threads, CS1 of size 2 under L1 then CS2 of size 25 under
    /// L2 — wait, sizes 20 and 25 to mirror the 2e9/2.5e9 iteration
    /// counts. The CP must contain CS1 once and CS2 four times.
    #[test]
    fn micro_shape_cp() {
        let (a, b_) = (20u64, 25u64);
        let mut b = TraceBuilder::new("micro");
        let l1 = b.lock("L1");
        let l2 = b.lock("L2");
        let t: Vec<_> = (0..4).map(|i| b.thread(format!("T{i}"), 0)).collect();

        // FIFO handoff: thread i obtains L1 at i*a, holds a; then L2.
        // L2 obtain times: T0 at a; Ti at max(i*a + a, a + i*b) = a + i*b
        // since b > a.
        for (i, &ti) in t.iter().enumerate() {
            let i = i as u64;
            let mut c = b.on(ti);
            if i == 0 {
                c.cs(l1, a);
            } else {
                c.cs_blocked(l1, i * a, a);
            }
            let l2_obtain = a + i * b_;
            let now = (i + 1) * a;
            if l2_obtain > now {
                c.cs_blocked(l2, l2_obtain, b_);
            } else {
                c.cs(l2, b_);
            }
            c.exit();
        }
        let tr = b.build().unwrap();
        assert_eq!(tr.makespan(), a + 4 * b_);
        let cp = critical_path(&tr);
        assert!(cp.complete);
        cp.check_tiling(true).unwrap();
        assert_eq!(cp.length, a + 4 * b_);
        // First slice is T0's CS1, everything after is the CS2 chain.
        assert_eq!(cp.slices[0].tid, ThreadId(0));
        assert_eq!(cp.slices[0].duration(), a + b_); // T0: CS1 + CS2 contiguous
    }
}
