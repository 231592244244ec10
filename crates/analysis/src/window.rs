//! Phase-window analysis.
//!
//! The paper profiles "the parallel phase of Radiosity" (§V.D), not the
//! whole process: initialization and teardown would dilute every
//! statistic. This module clips a trace to a time window — repairing the
//! event protocol at the cut edges — so the standard analysis can run on
//! any phase, typically delimited by [`critlock_trace::EventKind::Marker`]
//! events.
//!
//! Clip semantics at the window edges:
//!
//! * threads alive in the window get synthetic `ThreadStart`/`ThreadExit`
//!   records at the boundaries;
//! * locks (and rwlocks) held across the leading edge get synthetic
//!   acquire/obtain records at the window start, so their in-window hold
//!   time is preserved;
//! * waits still pending at the trailing edge are dropped (their blocked
//!   time has no enabling release inside the window);
//! * barrier arrivals pending at the trailing edge depart at the window
//!   end, keeping episodes consistent across threads.

use crate::digest::digest_window;
use crate::metrics::{analyze, AnalysisReport};
use critlock_trace::rollup::WindowDigest;
use critlock_trace::{Event, EventKind, ObjId, ThreadStream, Trace, Ts};
use std::collections::VecDeque;

/// Clip a trace to the window `[lo, hi]`.
pub fn clip(trace: &Trace, lo: Ts, hi: Ts) -> Trace {
    assert!(lo <= hi, "window must be ordered");
    let mut out = Trace::new(trace.meta.clone());
    out.meta.params.insert("window_lo".into(), lo.to_string());
    out.meta.params.insert("window_hi".into(), hi.to_string());
    out.objects = trace.objects.clone();
    for stream in &trace.threads {
        out.threads.push(clip_stream(stream, lo, hi));
    }
    out
}

fn clip_stream(stream: &ThreadStream, lo: Ts, hi: Ts) -> ThreadStream {
    let mut cs = ThreadStream::new(stream.tid);
    cs.name = stream.name.clone();

    let (Some(start), Some(end)) = (stream.start_ts(), stream.end_ts()) else {
        return cs;
    };
    // Entirely outside the window: an empty stream keeps ids dense.
    if end < lo || start > hi {
        return cs;
    }

    // Pass 1: pre-window state. Held locks in obtain order.
    let mut held: Vec<(ObjId, bool, bool)> = Vec::new(); // (lock, write, is_rw)
    let mut in_barrier: Option<(ObjId, u32)> = None;
    let mut in_wait = false;
    let mut first_in_window = stream.events.len();
    for (i, ev) in stream.events.iter().enumerate() {
        if ev.ts >= lo {
            first_in_window = i;
            break;
        }
        match ev.kind {
            EventKind::LockObtain { lock } => held.push((lock, false, false)),
            EventKind::RwObtain { lock, write } => held.push((lock, write, true)),
            EventKind::LockRelease { lock } | EventKind::RwRelease { lock, .. } => {
                if let Some(pos) = held.iter().rposition(|&(l, _, _)| l == lock) {
                    held.remove(pos);
                }
            }
            EventKind::BarrierArrive { barrier, epoch } => in_barrier = Some((barrier, epoch)),
            EventKind::BarrierDepart { .. } => in_barrier = None,
            EventKind::CondWaitBegin { .. } => in_wait = true,
            EventKind::CondWakeup { .. } => in_wait = false,
            _ => {}
        }
    }

    // Prologue: re-materialize carried-in state at the leading edge.
    let mut body: Vec<Event> = Vec::new();
    for &(lock, write, is_rw) in &held {
        if is_rw {
            body.push(Event::new(lo, EventKind::RwAcquire { lock, write }));
            body.push(Event::new(lo, EventKind::RwObtain { lock, write }));
        } else {
            body.push(Event::new(lo, EventKind::LockAcquire { lock }));
            body.push(Event::new(lo, EventKind::LockObtain { lock }));
        }
    }
    if let Some((barrier, epoch)) = in_barrier {
        body.push(Event::new(lo, EventKind::BarrierArrive { barrier, epoch }));
    }

    // Pass 2: in-window events. Pending blocking prologues are tracked by
    // body index so they can be dropped if their completion lies past hi.
    let mut pending_acq: Vec<(ObjId, Vec<usize>)> = Vec::new();
    let mut pending_wait: Option<Vec<usize>> = None;
    let mut pending_join: Option<usize> = None;

    for ev in &stream.events[first_in_window..] {
        if ev.ts > hi {
            break;
        }
        match ev.kind {
            EventKind::ThreadStart | EventKind::ThreadExit => {
                // Re-synthesized at the boundaries below.
                continue;
            }
            EventKind::LockAcquire { lock } | EventKind::RwAcquire { lock, .. } => {
                pending_acq.push((lock, vec![body.len()]));
            }
            EventKind::LockContended { lock } | EventKind::RwContended { lock, .. } => {
                if let Some(p) = pending_acq.iter_mut().rev().find(|p| p.0 == lock) {
                    p.1.push(body.len());
                }
            }
            EventKind::LockObtain { lock } => {
                if let Some(pos) = pending_acq.iter().rposition(|p| p.0 == lock) {
                    pending_acq.remove(pos);
                } else {
                    // Requested before the window: the wait crossed the
                    // leading edge, so the request is re-issued at lo.
                    body.push(Event::new(lo, EventKind::LockAcquire { lock }));
                    if ev.ts > lo {
                        body.push(Event::new(lo, EventKind::LockContended { lock }));
                    }
                }
                held.push((lock, false, false));
            }
            EventKind::RwObtain { lock, write } => {
                if let Some(pos) = pending_acq.iter().rposition(|p| p.0 == lock) {
                    pending_acq.remove(pos);
                } else {
                    body.push(Event::new(lo, EventKind::RwAcquire { lock, write }));
                    if ev.ts > lo {
                        body.push(Event::new(lo, EventKind::RwContended { lock, write }));
                    }
                }
                held.push((lock, write, true));
            }
            EventKind::LockRelease { lock } | EventKind::RwRelease { lock, .. } => {
                if let Some(pos) = held.iter().rposition(|&(l, _, _)| l == lock) {
                    held.remove(pos);
                }
            }
            EventKind::BarrierArrive { barrier, epoch } => {
                in_barrier = Some((barrier, epoch));
            }
            EventKind::BarrierDepart { .. } => {
                in_barrier = None;
            }
            EventKind::CondWaitBegin { .. } => {
                pending_wait = Some(vec![body.len()]);
                in_wait = true;
            }
            EventKind::CondWakeup { .. } => {
                if in_wait && pending_wait.is_none() {
                    // Wait began before the window; represent the resume as
                    // plain running time (no wait-begin edge available).
                    in_wait = false;
                    continue;
                }
                pending_wait = None;
                in_wait = false;
            }
            EventKind::JoinBegin { .. } => pending_join = Some(body.len()),
            EventKind::JoinEnd { .. } if pending_join.take().is_none() => continue,
            EventKind::JoinEnd { .. } => {}
            _ => {}
        }
        body.push(*ev);
    }

    // Trailing repairs: drop pending blocking prologues whose completion
    // lies beyond the window.
    let mut drop_idx: Vec<usize> = Vec::new();
    for (_, idxs) in pending_acq {
        drop_idx.extend(idxs);
    }
    if let Some(idxs) = pending_wait {
        drop_idx.extend(idxs);
    }
    if let Some(idx) = pending_join {
        drop_idx.push(idx);
    }
    drop_idx.sort_unstable();
    for idx in drop_idx.into_iter().rev() {
        body.remove(idx);
    }

    // Assemble with boundary lifecycle events.
    let w_start = start.max(lo);
    let w_end = end.min(hi).max(w_start);
    let mut events = Vec::with_capacity(body.len() + held.len() + 4);
    events.push(Event::new(w_start, EventKind::ThreadStart));
    events.extend(body);
    // Close holds still open at the trailing edge.
    for &(lock, write, is_rw) in held.iter().rev() {
        let kind = if is_rw {
            EventKind::RwRelease { lock, write }
        } else {
            EventKind::LockRelease { lock }
        };
        events.push(Event::new(w_end, kind));
    }
    if let Some((barrier, epoch)) = in_barrier {
        events.push(Event::new(w_end, EventKind::BarrierDepart { barrier, epoch }));
    }
    events.push(Event::new(w_end, EventKind::ThreadExit));
    cs.events = events;
    cs
}

/// A bounded ring of *closed* sliding-window digests over a live trace.
///
/// Time is divided into aligned spans `[k·width, (k+1)·width]` (inclusive
/// bounds, matching [`clip`]). Window `k` **closes** once the caller's
/// conservative watermark — a timestamp no future event can precede —
/// moves strictly past its trailing edge; a closed window is clipped and
/// analyzed exactly once and its digest cached, so steady-state per-frame
/// cost is independent of session history. The ring keeps the most recent
/// `cap` closed windows ("critical locks over the last N seconds"); when
/// the watermark jumps far ahead, windows that would immediately fall off
/// the ring are skipped, never analyzed.
///
/// Invariants:
/// * every stored digest covers `[index·width, (index+1)·width]` with
///   consecutive indices ending at `next_index - 1`;
/// * a stored digest equals `analyze(&clip(trace, lo, hi))` of the final
///   trace — guaranteed by only closing below the watermark, and restored
///   by [`recompute`] when the caller detects a late event at or below
///   [`closed_hi`] (the ring itself cannot see ingestion order).
///
/// [`recompute`]: WindowRing::recompute
/// [`closed_hi`]: WindowRing::closed_hi
#[derive(Debug, Clone)]
pub struct WindowRing {
    width: Ts,
    cap: usize,
    next_index: u64,
    windows: VecDeque<WindowDigest>,
}

impl WindowRing {
    /// A ring of at most `cap` windows of `width` time units each.
    /// `width` must be positive, `cap` at least 1.
    pub fn new(width: Ts, cap: usize) -> Self {
        assert!(width > 0, "window width must be positive");
        assert!(cap > 0, "window ring capacity must be positive");
        Self { width, cap, next_index: 0, windows: VecDeque::new() }
    }

    /// Rebuild a ring from externally persisted state (a durable
    /// checkpoint): the configured `width`/`cap`, the next window ordinal
    /// to close, and the retained digests oldest first. Digests beyond
    /// `cap` are dropped from the front, mirroring normal eviction.
    pub fn restore(width: Ts, cap: usize, next_index: u64, digests: Vec<WindowDigest>) -> Self {
        assert!(width > 0, "window width must be positive");
        assert!(cap > 0, "window ring capacity must be positive");
        let mut windows: VecDeque<WindowDigest> = digests.into();
        while windows.len() > cap {
            windows.pop_front();
        }
        Self { width, cap, next_index, windows }
    }

    /// The configured window width.
    pub fn width(&self) -> Ts {
        self.width
    }

    /// Ordinal of the next window to close — persisted by checkpoints so
    /// [`restore`](WindowRing::restore) resumes exactly where it left off.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// The trailing edge of the last closed window, `None` before any
    /// window closes. Window bounds are inclusive, as in [`clip`], so an
    /// event at or below this edge lands inside closed territory and
    /// requires [`recompute`].
    ///
    /// [`recompute`]: WindowRing::recompute
    pub fn closed_hi(&self) -> Option<Ts> {
        (self.next_index > 0).then(|| self.next_index.saturating_mul(self.width))
    }

    /// The closed windows currently retained, oldest first.
    pub fn closed(&self) -> impl Iterator<Item = &WindowDigest> {
        self.windows.iter()
    }

    /// The most recently closed window.
    pub fn latest(&self) -> Option<&WindowDigest> {
        self.windows.back()
    }

    /// Close every window whose trailing edge lies strictly below
    /// `watermark` (and that starts at or before the trace's last event),
    /// clipping and analyzing each exactly once. Pass `Ts::MAX` once the
    /// session has ended to close through the final event.
    pub fn advance(&mut self, trace: &Trace, watermark: Ts) {
        if trace.num_events() == 0 || watermark == 0 {
            return;
        }
        let end = trace.end_ts();
        // close(i) ⟺ (i+1)·width < watermark  ∧  i·width ≤ end
        let by_wm = match ((watermark - 1) / self.width).checked_sub(1) {
            Some(i) => i,
            None => return,
        };
        let last = by_wm.min(end / self.width);
        if last < self.next_index {
            return;
        }
        // Windows that would be evicted before anyone could read them are
        // skipped outright.
        let start = (last + 1).saturating_sub(self.cap as u64).max(self.next_index);
        self.next_index = start;
        for index in start..=last {
            let digest = self.compute(trace, index);
            self.windows.push_back(digest);
            while self.windows.len() > self.cap {
                self.windows.pop_front();
            }
            self.next_index = index + 1;
        }
    }

    /// Re-derive every retained digest from the (re-assembled) trace —
    /// the full-rebuild fallback for out-of-order arrivals that landed at
    /// or below [`closed_hi`](WindowRing::closed_hi).
    pub fn recompute(&mut self, trace: &Trace) {
        let indices: Vec<u64> = self.windows.iter().map(|w| w.index).collect();
        self.windows.clear();
        for index in indices {
            let digest = self.compute(trace, index);
            self.windows.push_back(digest);
        }
    }

    fn compute(&self, trace: &Trace, index: u64) -> WindowDigest {
        let lo = index.saturating_mul(self.width);
        let hi = lo.saturating_add(self.width);
        let report = analyze(&clip(trace, lo, hi));
        digest_window(index, lo, hi, &report)
    }
}

/// The time window spanned by a named marker: from its first to its last
/// occurrence across all threads. Returns `None` when the marker never
/// fires (or fires only once — a single instant is not a window).
pub fn marker_window(trace: &Trace, marker_name: &str) -> Option<(Ts, Ts)> {
    let id = trace.object_by_name(marker_name)?;
    let mut times: Vec<Ts> = Vec::new();
    for stream in &trace.threads {
        for ev in &stream.events {
            if ev.kind == (EventKind::Marker { id }) {
                times.push(ev.ts);
            }
        }
    }
    let (lo, hi) = (times.iter().min()?, times.iter().max()?);
    if lo < hi {
        Some((*lo, *hi))
    } else {
        None
    }
}

/// Clip the trace to the window of a named marker and analyze it.
pub fn analyze_phase(trace: &Trace, marker_name: &str) -> Option<AnalysisReport> {
    let (lo, hi) = marker_window(trace, marker_name)?;
    let clipped = clip(trace, lo, hi);
    Some(analyze(&clipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use critlock_trace::TraceBuilder;

    fn phased_trace() -> Trace {
        let mut b = TraceBuilder::new("phased");
        let l = b.lock("L");
        let m = b.marker("phase");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        // Init [0,10] (serial, lock-free on T0 only), parallel phase
        // [10,30] with contention, teardown [30,40].
        b.on(t0)
            .work(10)
            .mark(m)
            .cs(l, 8) // [10,18]
            .work(2)
            .mark(m) // at 20... adjust below
            .work(20)
            .exit(); // exit 40
        b.on(t1).work(11).cs_blocked(l, 18, 6).exit_at(30);
        b.build().unwrap()
    }

    #[test]
    fn marker_window_found() {
        let t = phased_trace();
        let (lo, hi) = marker_window(&t, "phase").unwrap();
        assert_eq!(lo, 10);
        assert_eq!(hi, 20);
        assert!(marker_window(&t, "nope").is_none());
    }

    #[test]
    fn clip_preserves_protocol_and_window_times() {
        let t = phased_trace();
        let c = clip(&t, 10, 20);
        c.validate().expect("clipped trace must validate");
        assert_eq!(c.start_ts(), 10);
        assert_eq!(c.end_ts(), 20);
        // The contended episode's wait is inside the window.
        let eps = critlock_trace::lock_episodes(&c);
        assert_eq!(eps.len(), 2);
        let blocked = eps.iter().find(|e| e.contended).unwrap();
        assert_eq!(blocked.acquire, 11);
        assert_eq!(blocked.obtain, 18);
        // Its hold is clipped at the window end.
        assert_eq!(blocked.release, 20);
    }

    #[test]
    fn clip_synthesizes_holds_crossing_leading_edge() {
        let mut b = TraceBuilder::new("crossing");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        b.on(t0).acquire(l).work(30).release(l).work(10).exit();
        let t = b.build().unwrap();
        // Window [10,20] lies fully inside the hold [0,30].
        let c = clip(&t, 10, 20);
        c.validate().unwrap();
        let eps = critlock_trace::lock_episodes(&c);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].obtain, 10);
        assert_eq!(eps[0].release, 20);
    }

    #[test]
    fn clip_drops_pending_waits_at_trailing_edge() {
        let mut b = TraceBuilder::new("pending");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).cs(l, 30).exit_at(35);
        b.on(t1).work(5).cs_blocked(l, 30, 2).exit_at(35);
        let t = b.build().unwrap();
        // Window ends while T1 is still waiting.
        let c = clip(&t, 0, 20);
        c.validate().unwrap();
        let eps = critlock_trace::lock_episodes(&c);
        // Only T0's (clipped) hold remains.
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].tid, critlock_trace::ThreadId(0));
    }

    #[test]
    fn phase_analysis_sees_only_in_window_contention() {
        let t = phased_trace();
        let full = analyze(&t);
        let phase = analyze_phase(&t, "phase").unwrap();
        // The phase is 10 units shorter at each end.
        assert_eq!(phase.makespan, 10);
        assert!(phase.cp_complete);
        // The lock's share of the phase path is much larger than its share
        // of the whole run (init/teardown dilute it).
        let full_l = full.lock_by_name("L").unwrap();
        let phase_l = phase.lock_by_name("L").unwrap();
        assert!(phase_l.cp_time_frac > full_l.cp_time_frac);
    }

    #[test]
    fn rw_holds_cross_edges() {
        let mut b = TraceBuilder::new("rw-cross");
        let r = b.rwlock("R");
        let t0 = b.thread("T0", 0);
        b.on(t0).rw(r, true, 30).work(5).exit();
        let t = b.build().unwrap();
        let c = clip(&t, 5, 10);
        c.validate().unwrap();
        let eps = critlock_trace::rw_episodes(&c);
        assert_eq!(eps.len(), 1);
        assert!(eps[0].write);
        assert_eq!((eps[0].obtain, eps[0].release), (5, 10));
    }

    #[test]
    fn barrier_crossing_edges() {
        let mut b = TraceBuilder::new("bar-cross");
        let bar = b.barrier("B");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).work(3).barrier(bar, 0, 8).work(10).exit();
        b.on(t1).work(8).barrier(bar, 0, 8).work(2).exit();
        let t = b.build().unwrap();
        // Leading edge inside the wait: arrive synthesized at lo.
        let c = clip(&t, 5, 15);
        c.validate().unwrap();
        // Trailing edge inside the wait: depart synthesized at hi.
        let c2 = clip(&t, 0, 6);
        c2.validate().unwrap();
    }

    #[test]
    fn empty_window_is_valid() {
        let t = phased_trace();
        let c = clip(&t, 1000, 2000);
        c.validate().unwrap();
        assert_eq!(c.num_events(), 0);
    }

    #[test]
    fn ring_closes_only_below_watermark_and_matches_clip_oracle() {
        let t = phased_trace(); // events span [0, 40]
        let mut ring = WindowRing::new(10, 8);
        ring.advance(&t, 0);
        assert_eq!(ring.closed().count(), 0);
        assert_eq!(ring.closed_hi(), None);

        // Watermark 21 guarantees no future event at ts <= 20, so windows
        // [0,10] and [10,20] close; [20,30] stays open (an event at 21
        // would belong to it).
        ring.advance(&t, 21);
        let idx: Vec<u64> = ring.closed().map(|w| w.index).collect();
        assert_eq!(idx, [0, 1]);
        assert_eq!(ring.closed_hi(), Some(20));

        // Watermark past everything: closes through the last event.
        ring.advance(&t, Ts::MAX);
        let idx: Vec<u64> = ring.closed().map(|w| w.index).collect();
        assert_eq!(idx, [0, 1, 2, 3, 4]);

        // Oracle: every closed window equals clip + analyze + digest.
        for w in ring.closed() {
            let report = analyze(&clip(&t, w.lo, w.hi));
            let expect = crate::digest::digest_window(w.index, w.lo, w.hi, &report);
            assert_eq!(*w, expect);
        }
        // The parallel phase's contention shows up in its windows only.
        let w1 = ring.closed().find(|w| w.index == 1).unwrap();
        assert!(w1.locks.iter().any(|l| l.name == "L"));
        let w3 = ring.closed().find(|w| w.index == 3).unwrap();
        assert!(w3.locks.is_empty(), "teardown window has no lock activity");
    }

    #[test]
    fn ring_caps_retention_and_skips_evicted_windows() {
        let mut b = TraceBuilder::new("long");
        let t0 = b.thread("T0", 0);
        b.on(t0).work(1000).exit();
        let t = b.build().unwrap();
        let mut ring = WindowRing::new(10, 4);
        ring.advance(&t, Ts::MAX);
        let idx: Vec<u64> = ring.closed().map(|w| w.index).collect();
        // 0..=100 close; only the last 4 are retained (and only those
        // were ever analyzed).
        assert_eq!(idx, [97, 98, 99, 100]);
        assert_eq!(ring.closed_hi(), Some(1010));
        assert_eq!(ring.latest().unwrap().index, 100);
    }

    #[test]
    fn ring_recompute_rederives_from_trace() {
        let t = phased_trace();
        let mut ring = WindowRing::new(10, 8);
        ring.advance(&t, Ts::MAX);
        let before: Vec<WindowDigest> = ring.closed().cloned().collect();
        ring.recompute(&t);
        let after: Vec<WindowDigest> = ring.closed().cloned().collect();
        assert_eq!(before, after, "recompute from the same trace is identity");
    }

    #[test]
    fn ring_advance_is_incremental_and_idempotent() {
        let t = phased_trace();
        let mut step = WindowRing::new(10, 8);
        for wm in 0..=45 {
            step.advance(&t, wm);
            step.advance(&t, wm); // same watermark twice: no-op
        }
        step.advance(&t, Ts::MAX);
        let mut once = WindowRing::new(10, 8);
        once.advance(&t, Ts::MAX);
        let a: Vec<WindowDigest> = step.closed().cloned().collect();
        let b: Vec<WindowDigest> = once.closed().cloned().collect();
        assert_eq!(a, b);
    }
}
