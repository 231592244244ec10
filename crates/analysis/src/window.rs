//! Phase-window analysis.
//!
//! The paper profiles "the parallel phase of Radiosity" (§V.D), not the
//! whole process: initialization and teardown would dilute every
//! statistic. [`clip`] cuts a trace to a time window — repairing the
//! event protocol at the cut edges — so the standard analysis can run on
//! any phase, typically delimited by [`critlock_trace::EventKind::Marker`]
//! events. Its stream pass lives in `critlock_trace::salvage`, beside
//! repair, and drives the same per-thread protocol machine: the machine
//! stepped up to `lo` holds exactly what crosses the leading edge.
//!
//! Clip semantics at the window edges:
//!
//! * threads alive in the window get synthetic `ThreadStart`/`ThreadExit`
//!   records at the boundaries;
//! * locks (and rwlocks) held across the leading edge get synthetic
//!   acquire/obtain records at the window start, so their in-window hold
//!   time is preserved;
//! * an acquisition that crosses the leading edge is re-issued at the
//!   window start in the phase it had reached: acquire only while it has
//!   not blocked, acquire plus contended event once it has (unless it is
//!   obtained exactly at the window start), so the window neither loses
//!   nor invents contention;
//! * barrier arrivals pending at the leading edge re-arrive at the window
//!   start; the wakeup of a condvar wait, or the end of a join, begun
//!   before the window is dropped;
//! * acquisitions, waits and joins still pending at the trailing edge are
//!   dropped (their blocked time has no enabling release inside the
//!   window);
//! * locks held at the trailing edge are released there, innermost
//!   first, and barrier arrivals pending there depart at the window end,
//!   keeping episodes consistent across threads.

use crate::digest::digest_window;
use crate::metrics::{analyze, AnalysisReport};
use critlock_trace::rollup::WindowDigest;
pub use critlock_trace::salvage::clip;
use critlock_trace::{EventKind, Trace, Ts};
use std::collections::VecDeque;

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
    fn clip_keeps_the_phase_of_acquisitions_crossing_the_leading_edge() {
        // T1 asks for L at 5 while T0 holds it, blocks at 12 and gets it
        // at 15; T2 asks for M at 5 and gets it at 15 without blocking.
        // Each window's leading edge falls between two of those events.
        let mut t = Trace::new(critlock_trace::TraceMeta::named("straddle"));
        let l = t.register_object(critlock_trace::ObjKind::Lock, "L");
        let m = t.register_object(critlock_trace::ObjKind::Lock, "M");
        let stream = |tid: u32, events: &[(Ts, EventKind)]| {
            let mut s = critlock_trace::ThreadStream::new(critlock_trace::ThreadId(tid));
            s.events =
                events.iter().map(|&(ts, kind)| critlock_trace::Event::new(ts, kind)).collect();
            s
        };
        t.push_thread(stream(
            0,
            &[
                (0, EventKind::ThreadStart),
                (0, EventKind::LockAcquire { lock: l }),
                (0, EventKind::LockObtain { lock: l }),
                (15, EventKind::LockRelease { lock: l }),
                (30, EventKind::ThreadExit),
            ],
        ));
        t.push_thread(stream(
            1,
            &[
                (0, EventKind::ThreadStart),
                (5, EventKind::LockAcquire { lock: l }),
                (12, EventKind::LockContended { lock: l }),
                (15, EventKind::LockObtain { lock: l }),
                (20, EventKind::LockRelease { lock: l }),
                (30, EventKind::ThreadExit),
            ],
        ));
        t.push_thread(stream(
            2,
            &[
                (0, EventKind::ThreadStart),
                (5, EventKind::LockAcquire { lock: m }),
                (15, EventKind::LockObtain { lock: m }),
                (20, EventKind::LockRelease { lock: m }),
                (30, EventKind::ThreadExit),
            ],
        ));
        t.validate().unwrap();
        assert!(crate::validate::check_trace(&t).is_empty());
        let source = critlock_trace::lock_episodes(&t);
        for lo in [10, 13] {
            let c = clip(&t, lo, 25);
            c.validate().unwrap_or_else(|e| panic!("clip at {lo}: {e}"));
            let clipped = critlock_trace::lock_episodes(&c);
            assert_eq!(clipped.len(), source.len(), "clip at {lo}");
            for ep in &clipped {
                let src = source.iter().find(|s| (s.tid, s.lock) == (ep.tid, ep.lock)).unwrap();
                assert_eq!(ep.contended, src.contended, "clip at {lo}: {ep:?}");
            }
            assert_eq!(crate::validate::check_trace(&c), [], "clip at {lo}");
        }
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
