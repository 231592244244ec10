//! Disconnect-tolerant assembly of frame streams into well-formed traces.
//!
//! The strict inverse of the stream codec lives in
//! `critlock_trace::stream::read_trace`; this module accepts the messier
//! reality of live sessions: producers that vanish mid-critical-section,
//! frames dropped under backpressure, registration frames that never
//! arrived. [`SessionAssembler`] folds whatever frames do arrive into a
//! partial [`Trace`], and [`SessionAssembler::finalize`] runs it through
//! `critlock_trace::salvage::repair`, which makes it pass
//! `Trace::validate`: streams become dense, unregistered objects take the
//! kind of their first use, each event the per-thread protocol refuses is
//! dropped, and what is left open is closed at the thread's last-seen
//! timestamp — the paper's convention that an incomplete invocation is
//! accounted up to the measurement horizon. Repair shares its protocol
//! machine and its closing rules with `Trace::validate` and offline
//! salvage.
//!
//! On a well-formed, gracefully ended session the repair is the identity,
//! which is what makes live snapshots of complete sessions exactly match
//! offline analysis.
//!
//! A snapshot refresh ([`SessionAssembler::analyze_repaired`]) does not
//! copy a session that needs no repair. The assembler keeps its streams
//! in thread-id order and one [`RepairCursor`] per stream, which each
//! refresh steps over only the events that arrived since the last. While
//! every cursor is clean and the streams are dense, the repaired trace
//! is the partial trace with each stream's close appended: the refresh
//! appends the closes, analyzes the partial trace in place, and takes
//! them off again. Any other refresh analyzes `repair`'s copy.

use crate::snapshot::SnapshotStageTimers;
use critlock_analysis::{analyze, AnalysisReport, WindowRing};
use critlock_obs::Counter;
use critlock_trace::checkpoint::{CheckpointDoc, WindowCheckpoint};
use critlock_trace::rollup::WindowDigest;
use critlock_trace::salvage::{repair, RepairCursor};
use critlock_trace::stream::{Frame, RawFrame};
use critlock_trace::{Budget, EventKind, ObjInfo, ObjKind, ThreadId, ThreadStream, Trace, Ts};
use std::time::Instant;

/// How many closed sliding windows each session retains — the "last N
/// seconds" view is `cap × width` deep at most.
pub const WINDOW_RING_CAP: usize = 16;

/// Incremental, loss-tolerant trace assembly for one session.
#[derive(Debug, Default)]
pub struct SessionAssembler {
    /// The partial trace, its streams in thread-id order.
    trace: Trace,
    /// One repair cursor per stream of `trace`, in the same order,
    /// stepped at each refresh.
    cursors: Vec<RepairCursor>,
    /// Refreshes that analyzed `repair`'s copy rather than `trace`.
    copy_refreshes: u64,
    started: bool,
    ended: bool,
    frames: u64,
    events: u64,
    budget: Budget,
    events_dropped: u64,
    /// Sliding-window digests, when windowing is enabled for the session.
    ring: Option<WindowRing>,
    /// An event landed inside already-closed window territory; retained
    /// digests must be recomputed from the re-assembled trace.
    windows_stale: bool,
    /// Observability: events arriving in `Events` frames (pre-truncation).
    events_in_counter: Option<Counter>,
    /// Observability: events discarded by the event budget.
    events_dropped_counter: Option<Counter>,
    /// Observability: per-stage latency of snapshots computed from this
    /// assembler.
    stage_timers: Option<SnapshotStageTimers>,
}

impl SessionAssembler {
    /// A fresh assembler with default (empty) metadata and no budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh assembler that enforces `budget.max_events`: events past
    /// the cap are tail-truncated deterministically (in arrival order)
    /// and counted in [`events_dropped`], instead of growing without
    /// bound under a runaway producer.
    ///
    /// [`events_dropped`]: SessionAssembler::events_dropped
    pub fn with_budget(budget: Budget) -> Self {
        SessionAssembler { budget, ..Self::default() }
    }

    /// Attach observability counters for incoming and budget-dropped
    /// events. Pure accounting: assembly output is unaffected.
    pub fn set_counters(&mut self, events_in: Counter, events_dropped: Counter) {
        self.events_in_counter = Some(events_in);
        self.events_dropped_counter = Some(events_dropped);
    }

    /// Attach the snapshot stage histograms that
    /// [`SessionSnapshot::compute`] observes. Pure accounting.
    ///
    /// [`SessionSnapshot::compute`]: crate::SessionSnapshot::compute
    pub fn set_stage_timers(&mut self, timers: SnapshotStageTimers) {
        self.stage_timers = Some(timers);
    }

    /// Fold one validated frame into the partial trace. Never fails:
    /// malformed sequences are tolerated here and cleaned up in
    /// [`finalize`].
    ///
    /// `Events` payloads are decoded lazily through the borrowed iterator
    /// straight into the target thread stream — no intermediate
    /// `Vec<Event>`; malformed content keeps its decodable prefix. The
    /// rare registration frames are decoded to an owned [`Frame`].
    ///
    /// [`finalize`]: SessionAssembler::finalize
    pub fn apply_raw(&mut self, raw: &RawFrame) {
        self.frames += 1;
        let Some((tid, events)) = raw.events() else {
            match raw.decode() {
                Ok(Frame::Start { meta }) => {
                    if !self.started {
                        self.trace.meta = meta;
                        self.started = true;
                    }
                }
                Ok(Frame::Param { key, value }) => {
                    self.trace.meta.params.insert(key, value);
                }
                Ok(Frame::Objects { first_id, objects }) => {
                    let first = first_id as usize;
                    let registered = self.trace.objects.len();
                    // Fill any gap left by a dropped registration frame with
                    // `Marker` placeholders: repair gives a `Marker` slot the
                    // kind of its first use, and the partial trace carries
                    // the placeholders through checkpoints.
                    while self.trace.objects.len() < first {
                        let i = self.trace.objects.len();
                        self.trace.objects.push(ObjInfo {
                            kind: ObjKind::Marker,
                            name: format!("unregistered-{i}"),
                        });
                    }
                    let mut rekinded = false;
                    for (i, obj) in objects.into_iter().enumerate() {
                        let idx = first + i;
                        if idx < self.trace.objects.len() {
                            rekinded |= self.trace.objects[idx].kind != obj.kind;
                            self.trace.objects[idx] = obj;
                        } else {
                            self.trace.objects.push(obj);
                        }
                    }
                    // The cursors stepped events against the old registry.
                    // A slot that changed kind can turn any of their
                    // decisions; new slots can only admit events a cursor
                    // dropped. Either way the cursors concerned step their
                    // streams again at the next refresh.
                    for cursor in &mut self.cursors {
                        if rekinded || (self.trace.objects.len() > registered && !cursor.is_clean())
                        {
                            *cursor = RepairCursor::default();
                        }
                    }
                }
                Ok(Frame::Thread { tid, name }) => {
                    let idx = self.stream_index(tid);
                    self.trace.threads[idx].name = name;
                }
                Ok(Frame::End) => self.ended = true,
                // `Events` is folded in place below, and a validated
                // payload always decodes.
                Ok(Frame::Events { .. }) | Err(_) => {}
            }
            return;
        };
        let declared = events.remaining_events();
        if let Some(c) = &self.events_in_counter {
            c.add(declared);
        }
        let mut take = declared;
        if let Some(cap) = self.budget.max_events {
            let allow = cap.saturating_sub(self.events);
            if declared > allow {
                let dropped = declared - allow;
                self.events_dropped += dropped;
                if let Some(c) = &self.events_dropped_counter {
                    c.add(dropped);
                }
                take = allow;
            }
        }
        self.events += take;
        // An unknown id means the announcement frame was lost; the
        // stream is synthesized.
        let idx = self.stream_index(tid);
        let stream = &mut self.trace.threads[idx];
        let old_len = stream.events.len();
        stream
            .events
            .extend(events.take(take as usize).map_while(|ev| ev.ok().map(|ev| ev.event())));
        let new = &self.trace.threads[idx].events[old_len..];
        if let Some(hi) = self.ring.as_ref().and_then(WindowRing::closed_hi) {
            if new.iter().any(|ev| ev.ts <= hi) {
                self.windows_stale = true;
            }
        }
    }

    /// The position of `tid`'s stream, which is added if it is new.
    /// Streams stay in thread-id order, so those of a dense session sit
    /// at their ids, where `repair` puts them.
    fn stream_index(&mut self, tid: ThreadId) -> usize {
        match self.trace.threads.binary_search_by_key(&tid, |s| s.tid) {
            Ok(idx) => idx,
            Err(idx) => {
                self.trace.threads.insert(idx, ThreadStream::new(tid));
                self.cursors.insert(idx, RepairCursor::default());
                idx
            }
        }
    }

    /// Whether a `Start` frame has arrived.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Whether the producer ended the session gracefully with `End`.
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// Frames folded in so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Events folded in so far (after budget truncation).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events discarded by the event budget.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Whether the event budget forced a truncation: the assembled trace
    /// is a deterministic prefix of what the producer sent, not all of it.
    pub fn degraded(&self) -> bool {
        self.events_dropped > 0
    }

    /// The partial trace as received (no repair).
    pub fn partial(&self) -> &Trace {
        &self.trace
    }

    /// Produce a well-formed trace from whatever has arrived: the
    /// partial trace run through [`repair`].
    pub fn finalize(&self) -> Trace {
        repair(&self.trace)
    }

    /// Analyze the repaired partial trace, `analyze(&self.finalize())`,
    /// and close the sliding windows the frontier watermark has passed,
    /// each analyzed once over the same trace; retained windows are
    /// recomputed first if a late event landed inside them.
    ///
    /// Each stream's [`RepairCursor`] first steps the events that
    /// arrived since the last refresh. While every cursor is clean and
    /// the streams are dense (each at its id, and no event naming a peer
    /// past them), repair would change nothing but append each stream's
    /// close. The closes are then appended to the partial trace itself,
    /// which is analyzed in place and reopened after, so [`partial`] is
    /// unchanged. Otherwise the refresh analyzes `repair`'s copy.
    ///
    /// [`partial`]: SessionAssembler::partial
    pub fn analyze_repaired(&mut self) -> AnalysisReport {
        let started = Instant::now();
        // Taken before the closes, which end every stream.
        let watermark = if self.ended { Ts::MAX } else { self.frontier().unwrap_or(0) };
        let objects = &self.trace.objects;
        for (cursor, stream) in self.cursors.iter_mut().zip(&self.trace.threads) {
            cursor.resume(&stream.events, objects, |_| {});
        }
        let streams = self.trace.threads.len();
        let dense = self.trace.threads.iter().enumerate().all(|(i, s)| s.tid.index() == i)
            && self.cursors.iter().all(|c| c.max_peer().is_none_or(|p| p.index() < streams));
        let (report, repaired_at) = if dense && self.cursors.iter().all(RepairCursor::is_clean) {
            #[cfg(debug_assertions)]
            let oracle = repair(&self.trace);
            let reopen: Vec<_> = self
                .cursors
                .iter()
                .zip(&mut self.trace.threads)
                .map(|(cursor, stream)| cursor.close_in_place(&mut stream.events))
                .collect();
            #[cfg(debug_assertions)]
            assert_eq!(self.trace, oracle, "the in-place view must be repair's output");
            let repaired_at = Instant::now();
            let report = analyze(&self.trace);
            advance_ring(&mut self.ring, &mut self.windows_stale, &self.trace, watermark);
            for (reopen, stream) in reopen.into_iter().zip(&mut self.trace.threads) {
                reopen.undo(&mut stream.events);
            }
            (report, repaired_at)
        } else {
            self.copy_refreshes += 1;
            let repaired = repair(&self.trace);
            let repaired_at = Instant::now();
            let report = analyze(&repaired);
            advance_ring(&mut self.ring, &mut self.windows_stale, &repaired, watermark);
            (report, repaired_at)
        };
        if let Some(timers) = &self.stage_timers {
            let ns = |d: std::time::Duration| d.as_nanos() as u64;
            timers.repair.observe(ns(repaired_at - started));
            timers.analyze.observe(ns(repaired_at.elapsed()));
        }
        report
    }

    /// How many refreshes ([`analyze_repaired`]) analyzed `repair`'s copy
    /// of the partial trace instead of the partial trace in place.
    ///
    /// [`analyze_repaired`]: SessionAssembler::analyze_repaired
    pub fn copy_refreshes(&self) -> u64 {
        self.copy_refreshes
    }

    /// Enable sliding-window digests of `width` time units per window
    /// (ring depth [`WINDOW_RING_CAP`]). Call before events arrive.
    pub fn set_window(&mut self, width: Ts) {
        self.ring = Some(WindowRing::new(width, WINDOW_RING_CAP));
    }

    /// The configured sliding-window width, if windowing is enabled.
    pub fn window_width(&self) -> Option<Ts> {
        self.ring.as_ref().map(|r| r.width())
    }

    /// The partial trace's frontier: a timestamp no future event can
    /// precede, assuming each stream arrives in order. It is the minimum
    /// last timestamp over streams that have not exited, `Ts::MAX` once
    /// every stream has, and `None` while a stream is still empty (its
    /// first event could land anywhere). O(threads).
    fn frontier(&self) -> Option<Ts> {
        let mut bound = Ts::MAX;
        for stream in &self.trace.threads {
            let last = stream.events.last()?;
            if last.kind != EventKind::ThreadExit {
                bound = bound.min(last.ts);
            }
        }
        Some(bound)
    }

    /// The currently retained closed windows, oldest first.
    pub fn windows(&self) -> Vec<WindowDigest> {
        self.ring.as_ref().map(|r| r.closed().cloned().collect()).unwrap_or_default()
    }

    /// The most recently closed window.
    pub fn latest_window(&self) -> Option<WindowDigest> {
        self.ring.as_ref().and_then(|r| r.latest()).cloned()
    }

    /// Capture the full fold state as a durable [`CheckpointDoc`]:
    /// everything [`restore`] needs to resume this assembler so that
    /// replaying only the frames past [`frames`] reproduces, byte for
    /// byte, the state an uninterrupted assembler would have reached.
    ///
    /// [`restore`]: SessionAssembler::restore
    /// [`frames`]: SessionAssembler::frames
    pub fn checkpoint_doc(&self, token: &[u8]) -> CheckpointDoc {
        CheckpointDoc {
            token: token.to_vec(),
            frames: self.frames,
            started: self.started,
            ended: self.ended,
            events: self.events,
            events_dropped: self.events_dropped,
            windows_stale: self.windows_stale,
            trace: self.trace.clone(),
            window: self.ring.as_ref().map(|r| WindowCheckpoint {
                width: r.width(),
                next_index: r.next_index(),
                digests: r.closed().cloned().collect(),
            }),
        }
    }

    /// Rebuild an assembler from a checkpoint. The window ring is restored
    /// verbatim when the checkpointed width matches the configured
    /// `window`; on a width change the retained digests are discarded and
    /// a fresh ring closes windows from index zero, exactly as a new
    /// session would.
    ///
    /// The cursors start empty and step the restored streams once, at the
    /// first refresh. A checkpoint whose streams are out of thread-id
    /// order has them sorted.
    pub fn restore(doc: CheckpointDoc, budget: Budget, window: Option<Ts>) -> Self {
        let (ring, windows_stale) = match (doc.window, window) {
            (Some(w), Some(width)) if w.width == width => (
                Some(WindowRing::restore(w.width, WINDOW_RING_CAP, w.next_index, w.digests)),
                doc.windows_stale,
            ),
            (_, Some(width)) => (Some(WindowRing::new(width, WINDOW_RING_CAP)), false),
            (_, None) => (None, false),
        };
        let mut trace = doc.trace;
        trace.threads.sort_by_key(|s| s.tid);
        SessionAssembler {
            cursors: vec![RepairCursor::default(); trace.threads.len()],
            copy_refreshes: 0,
            trace,
            started: doc.started,
            ended: doc.ended,
            frames: doc.frames,
            events: doc.events,
            budget,
            events_dropped: doc.events_dropped,
            ring,
            windows_stale,
            events_in_counter: None,
            events_dropped_counter: None,
            stage_timers: None,
        }
    }
}

/// Close every sliding window `watermark` has moved past, analyzing each
/// exactly once against `repaired` (the repaired trace a snapshot is
/// being computed from), and recompute the retained digests first if a
/// late event landed inside closed territory (`stale`). No-op when
/// windowing is disabled. It takes the window state alone, so that the
/// assembler's partial trace can be the repaired trace it reads.
fn advance_ring(ring: &mut Option<WindowRing>, stale: &mut bool, repaired: &Trace, watermark: Ts) {
    let Some(ring) = ring else { return };
    if std::mem::take(stale) {
        ring.recompute(repaired);
    }
    ring.advance(repaired, watermark);
}

#[cfg(test)]
mod tests {
    use super::*;
    use critlock_trace::{Event, ObjId, TraceBuilder};

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("assembler-sample");
        let l = b.lock("L");
        let t0 = b.thread("main", 0);
        let t1 = b.thread("w1", 1);
        b.on(t1).work(2).cs(l, 5).exit_at(10);
        b.on(t0).create(t1).work(4).cs_blocked(l, 7, 3).join(t1, 12).exit_at(13);
        b.build().unwrap()
    }

    fn frames_for(trace: &Trace) -> Vec<Frame> {
        let mut buf = Vec::new();
        critlock_trace::stream::write_trace(trace, &mut buf).unwrap();
        let mut r = critlock_trace::stream::StreamReader::new(std::io::Cursor::new(buf)).unwrap();
        let mut frames = Vec::new();
        while let Some(f) = r.next_frame().unwrap() {
            frames.push(f);
        }
        frames
    }

    fn apply(asm: &mut SessionAssembler, frame: &Frame) {
        asm.apply_raw(&RawFrame::encode(frame).unwrap());
    }

    #[test]
    fn graceful_session_is_identity() {
        let trace = sample();
        let mut asm = SessionAssembler::new();
        for f in frames_for(&trace) {
            apply(&mut asm, &f);
        }
        assert!(asm.ended());
        let out = asm.finalize();
        assert_eq!(out, trace);
        out.validate().unwrap();
    }

    #[test]
    fn mid_critical_section_disconnect_is_repaired() {
        let trace = sample();
        let frames = frames_for(&trace);
        let mut asm = SessionAssembler::new();
        // Drop the tail: no End, and thread 0's events truncated so a
        // critical section stays open.
        for f in frames.iter().take(frames.len() - 2).cloned() {
            if let Frame::Events { tid, mut events } = f {
                if tid == ThreadId(0) {
                    events.truncate(5); // cut inside the contended acquire
                }
                apply(&mut asm, &Frame::Events { tid, events });
            } else {
                apply(&mut asm, &f);
            }
        }
        assert!(!asm.ended());
        let out = asm.finalize();
        out.validate().expect("repaired trace must validate");
    }

    /// Thread 0's repaired events after a session whose only events are
    /// `events`, with objects 0 = lock `L`, 1 = lock `M`, 2 = rwlock `RW`.
    fn repaired_events(events: Vec<Event>) -> Vec<Event> {
        let mut asm = SessionAssembler::new();
        apply(&mut asm, &Frame::Start { meta: Default::default() });
        apply(
            &mut asm,
            &Frame::Objects {
                first_id: 0,
                objects: vec![
                    ObjInfo { kind: ObjKind::Lock, name: "L".into() },
                    ObjInfo { kind: ObjKind::Lock, name: "M".into() },
                    ObjInfo { kind: ObjKind::RwLock, name: "RW".into() },
                ],
            },
        );
        apply(&mut asm, &Frame::Thread { tid: ThreadId(0), name: None });
        apply(&mut asm, &Frame::Events { tid: ThreadId(0), events });
        let out = asm.finalize();
        out.validate().expect("repaired trace must validate");
        out.threads[0].events.clone()
    }

    fn evs(events: &[(Ts, EventKind)]) -> Vec<Event> {
        events.iter().map(|&(ts, kind)| Event::new(ts, kind)).collect()
    }

    #[test]
    fn lock_cut_mid_acquire_or_while_held_is_repaired_exactly() {
        use EventKind::*;
        let (l, m) = (ObjId(0), ObjId(1));
        let start = (0, ThreadStart);
        let done = [
            (1, LockAcquire { lock: l }),
            (1, LockObtain { lock: l }),
            (2, LockRelease { lock: l }),
        ];
        // Uncontended in-flight acquire: a zero-hold invocation.
        let cut = [&[start][..], &done, &[(4, LockAcquire { lock: l })]].concat();
        let want = [
            &cut[..],
            &[(4, LockObtain { lock: l }), (4, LockRelease { lock: l }), (4, ThreadExit)],
        ]
        .concat();
        assert_eq!(repaired_events(evs(&cut)), evs(&want));
        // Contended in-flight acquire: the acquire and contended events
        // are excised; the exit lands at the last kept timestamp.
        let cut =
            [&[start][..], &done, &[(4, LockAcquire { lock: l }), (5, LockContended { lock: l })]]
                .concat();
        let want = [&[start][..], &done, &[(5, ThreadExit)]].concat();
        assert_eq!(repaired_events(evs(&cut)), evs(&want));
        // Held: the release is synthesized at the horizon.
        let cut = [
            &[start][..],
            &done,
            &[(4, LockAcquire { lock: l }), (5, LockContended { lock: l })],
            &[(6, LockObtain { lock: l })],
        ]
        .concat();
        let want = [&cut[..], &[(6, LockRelease { lock: l }), (6, ThreadExit)]].concat();
        assert_eq!(repaired_events(evs(&cut)), evs(&want));
        // Held outer lock, contended inner one: the excision indices stay
        // right when a release is appended after them.
        let cut = [
            start,
            (1, LockAcquire { lock: l }),
            (1, LockObtain { lock: l }),
            (3, LockAcquire { lock: m }),
            (3, LockContended { lock: m }),
        ];
        let want = [
            start,
            (1, LockAcquire { lock: l }),
            (1, LockObtain { lock: l }),
            (3, LockRelease { lock: l }),
            (3, ThreadExit),
        ];
        assert_eq!(repaired_events(evs(&cut)), evs(&want));
    }

    #[test]
    fn rwlock_cut_mid_acquire_or_while_held_is_repaired_exactly() {
        use EventKind::*;
        let rw = ObjId(2);
        let start = (0, ThreadStart);
        let done = [
            (1, RwAcquire { lock: rw, write: false }),
            (1, RwObtain { lock: rw, write: false }),
            (2, RwRelease { lock: rw, write: false }),
        ];
        // Uncontended in-flight acquire: a zero-hold invocation in the
        // requested mode.
        let cut = [&[start][..], &done, &[(4, RwAcquire { lock: rw, write: true })]].concat();
        let want = [
            &cut[..],
            &[
                (4, RwObtain { lock: rw, write: true }),
                (4, RwRelease { lock: rw, write: true }),
                (4, ThreadExit),
            ],
        ]
        .concat();
        assert_eq!(repaired_events(evs(&cut)), evs(&want));
        // Contended in-flight acquire: excised.
        let cut = [
            &[start][..],
            &done,
            &[(4, RwAcquire { lock: rw, write: true }), (5, RwContended { lock: rw, write: true })],
        ]
        .concat();
        let want = [&[start][..], &done, &[(5, ThreadExit)]].concat();
        assert_eq!(repaired_events(evs(&cut)), evs(&want));
        // Held: the release is synthesized in the held mode.
        let cut = [
            &[start][..],
            &done,
            &[(4, RwAcquire { lock: rw, write: false }), (6, RwObtain { lock: rw, write: false })],
        ]
        .concat();
        let want =
            [&cut[..], &[(6, RwRelease { lock: rw, write: false }), (6, ThreadExit)]].concat();
        assert_eq!(repaired_events(evs(&cut)), evs(&want));
    }

    #[test]
    fn dropped_registration_frames_are_tolerated() {
        let trace = sample();
        let mut asm = SessionAssembler::new();
        for f in frames_for(&trace) {
            // Drop every registration: no Objects, no Thread frames.
            if matches!(f, Frame::Objects { .. } | Frame::Thread { .. }) {
                continue;
            }
            apply(&mut asm, &f);
        }
        let out = asm.finalize();
        out.validate().expect("inferred registrations must validate");
        assert_eq!(out.threads.len(), 2);
        assert_eq!(out.objects.len(), 1);
    }

    /// An `Objects` frame past the registry (its predecessor was dropped)
    /// leaves a placeholder gap. Events on a gap object keep it, and it
    /// takes its kind from first use, also after a checkpoint restore.
    #[test]
    fn objects_in_a_registry_gap_take_their_kind_from_first_use() {
        use critlock_analysis::analyze;
        use EventKind::*;
        let (l, m) = (ObjId(0), ObjId(1));
        let mut asm = SessionAssembler::new();
        apply(&mut asm, &Frame::Start { meta: Default::default() });
        apply(
            &mut asm,
            &Frame::Objects {
                first_id: 1,
                objects: vec![ObjInfo { kind: ObjKind::Lock, name: "M".into() }],
            },
        );
        apply(&mut asm, &Frame::Thread { tid: ThreadId(0), name: None });
        let events = evs(&[
            (0, ThreadStart),
            (1, LockAcquire { lock: l }),
            (1, LockObtain { lock: l }),
            (3, LockRelease { lock: l }),
            (4, LockAcquire { lock: m }),
            (4, LockObtain { lock: m }),
            (6, LockRelease { lock: m }),
            (7, ThreadExit),
        ]);
        apply(&mut asm, &Frame::Events { tid: ThreadId(0), events: events.clone() });
        let restored = SessionAssembler::restore(asm.checkpoint_doc(b"t"), Budget::default(), None);
        for out in [asm.finalize(), restored.finalize()] {
            out.validate().unwrap();
            assert_eq!(out.threads[0].events, events);
            assert_eq!(
                out.objects[0],
                ObjInfo { kind: ObjKind::Lock, name: "unregistered-0".into() }
            );
            let names: Vec<_> = analyze(&out).locks.iter().map(|r| r.name.clone()).collect();
            assert_eq!(names.len(), 2, "{names:?}");
        }
    }

    #[test]
    fn orphan_events_from_dropped_frames_are_discarded() {
        let mut asm = SessionAssembler::new();
        apply(&mut asm, &Frame::Start { meta: Default::default() });
        apply(
            &mut asm,
            &Frame::Objects {
                first_id: 0,
                objects: vec![ObjInfo { kind: ObjKind::Lock, name: "L".into() }],
            },
        );
        apply(&mut asm, &Frame::Thread { tid: ThreadId(0), name: None });
        // An Obtain/Release whose Acquire frame was dropped.
        apply(
            &mut asm,
            &Frame::Events {
                tid: ThreadId(0),
                events: vec![
                    Event::new(5, EventKind::LockObtain { lock: ObjId(0) }),
                    Event::new(9, EventKind::LockRelease { lock: ObjId(0) }),
                ],
            },
        );
        let out = asm.finalize();
        out.validate().unwrap();
        // Both orphans are discarded, leaving a valid empty stream.
        assert!(out.threads[0].events.is_empty());
    }

    #[test]
    fn event_budget_truncates_deterministically() {
        let trace = sample();
        let frames = frames_for(&trace);
        let total: u64 = trace.num_events() as u64;
        let cap = total / 2;
        let mut asm = SessionAssembler::with_budget(Budget::unlimited().with_max_events(cap));
        let mut again = SessionAssembler::with_budget(Budget::unlimited().with_max_events(cap));
        for f in &frames {
            apply(&mut asm, f);
            apply(&mut again, f);
        }
        assert!(asm.degraded());
        assert_eq!(asm.events(), cap);
        assert_eq!(asm.events_dropped(), total - cap);
        let out = asm.finalize();
        out.validate().expect("budget-truncated trace must repair to valid");
        // Same frames, same cap -> bit-identical repaired trace.
        assert_eq!(out, again.finalize());

        // An ample budget is a no-op: identity with the unbudgeted path.
        let mut roomy = SessionAssembler::with_budget(Budget::unlimited().with_max_events(total));
        for f in &frames {
            apply(&mut roomy, f);
        }
        assert!(!roomy.degraded());
        assert_eq!(roomy.finalize(), trace);
    }

    #[test]
    fn apply_raw_reassembles_the_source_frames_exactly() {
        let trace = sample();
        let frames = frames_for(&trace);
        // Unbudgeted: the partial trace is the source trace itself.
        let mut asm = SessionAssembler::new();
        for f in &frames {
            apply(&mut asm, f);
        }
        assert_eq!(asm.frames(), frames.len() as u64);
        assert_eq!(asm.events(), trace.num_events() as u64);
        assert!(asm.ended());
        assert_eq!(asm.partial(), &trace);
        assert_eq!(asm.finalize(), trace);

        // Budget truncation keeps exactly the first `cap` events of the
        // source frames, in arrival order.
        let total: u64 = trace.num_events() as u64;
        let cap = total / 2;
        let mut asm = SessionAssembler::with_budget(Budget::unlimited().with_max_events(cap));
        let mut expected = trace.clone();
        for stream in &mut expected.threads {
            stream.events.clear();
        }
        let mut left = cap as usize;
        for f in &frames {
            apply(&mut asm, f);
            if let Frame::Events { tid, events } = f {
                let keep = events.len().min(left);
                left -= keep;
                expected.threads[tid.index()].events.extend_from_slice(&events[..keep]);
            }
        }
        assert!(asm.degraded());
        assert_eq!(asm.events(), cap);
        assert_eq!(asm.events_dropped(), total - cap);
        assert_eq!(asm.partial(), &expected);
        assert_eq!(asm.finalize(), repair(&expected));
    }

    /// Window bounds are inclusive, as in `clip`: a late event exactly on
    /// the trailing edge of the last closed window belongs to that window,
    /// so it must flag the retained digests for recomputation.
    #[test]
    fn late_event_on_a_closed_windows_trailing_edge_recomputes_it() {
        use critlock_analysis::{analyze, clip, digest_window};
        use EventKind::*;
        let l = ObjId(0);
        let mut asm = SessionAssembler::new();
        asm.set_window(10);
        apply(&mut asm, &Frame::Start { meta: Default::default() });
        apply(
            &mut asm,
            &Frame::Objects {
                first_id: 0,
                objects: vec![ObjInfo { kind: ObjKind::Lock, name: "L".into() }],
            },
        );
        apply(&mut asm, &Frame::Thread { tid: ThreadId(0), name: None });
        apply(
            &mut asm,
            &Frame::Events { tid: ThreadId(0), events: evs(&[(0, ThreadStart), (25, ThreadExit)]) },
        );
        asm.analyze_repaired();
        let closed: Vec<u64> = asm.windows().iter().map(|w| w.index).collect();
        assert_eq!(closed, [0, 1, 2]);

        // T1 is announced late, with a critical section starting at 30:
        // the trailing edge of window 2 `[20, 30]`.
        apply(&mut asm, &Frame::Thread { tid: ThreadId(1), name: None });
        apply(
            &mut asm,
            &Frame::Events {
                tid: ThreadId(1),
                events: evs(&[
                    (30, ThreadStart),
                    (30, LockAcquire { lock: l }),
                    (30, LockObtain { lock: l }),
                    (35, LockRelease { lock: l }),
                ]),
            },
        );
        asm.analyze_repaired();
        let repaired = asm.finalize();
        let oracle = digest_window(2, 20, 30, &analyze(&clip(&repaired, 20, 30)));
        assert_eq!(oracle.locks.len(), 1);
        assert_eq!(oracle.locks[0].total_invocations, 1);
        assert_eq!(asm.windows()[2], oracle, "window 2 was served stale");
    }

    #[test]
    fn open_condvar_and_barrier_waits_are_closed() {
        let mut asm = SessionAssembler::new();
        apply(&mut asm, &Frame::Start { meta: Default::default() });
        apply(
            &mut asm,
            &Frame::Objects {
                first_id: 0,
                objects: vec![
                    ObjInfo { kind: ObjKind::Barrier, name: "B".into() },
                    ObjInfo { kind: ObjKind::Condvar, name: "CV".into() },
                ],
            },
        );
        apply(&mut asm, &Frame::Thread { tid: ThreadId(0), name: None });
        apply(&mut asm, &Frame::Thread { tid: ThreadId(1), name: None });
        apply(
            &mut asm,
            &Frame::Events {
                tid: ThreadId(0),
                events: vec![
                    Event::new(0, EventKind::ThreadStart),
                    Event::new(3, EventKind::BarrierArrive { barrier: ObjId(0), epoch: 0 }),
                ],
            },
        );
        apply(
            &mut asm,
            &Frame::Events {
                tid: ThreadId(1),
                events: vec![
                    Event::new(0, EventKind::ThreadStart),
                    Event::new(2, EventKind::CondWaitBegin { cv: ObjId(1) }),
                ],
            },
        );
        let out = asm.finalize();
        out.validate().expect("open waits must be closed");
        assert!(out.threads[0]
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::BarrierDepart { .. })));
        assert!(out.threads[1]
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CondWakeup { .. })));
    }
}
