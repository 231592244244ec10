//! Best-effort trace repair: keep what's consistent, quarantine the rest.
//!
//! [`Trace::validate`] rejects a whole trace on the first protocol
//! violation. That is the right posture for the deterministic simulator,
//! but real instrumented runs arrive torn (a crashed producer), skewed
//! (cross-core clock drift) or referencing objects whose registration
//! frames were lost. This module holds the two tolerant passes. Both
//! drive the one per-thread protocol machine that `Trace::validate`
//! runs, and both close what a stream leaves open the same way: innermost
//! first (condvar wakeup, barrier depart, then locks and rwlocks by id),
//! zero-length holds for in-flight acquires, excision for abandoned
//! contended acquisitions, and a `ThreadExit` appended. They differ in
//! policy.
//!
//! [`salvage_trace`] serves offline analysis (`critlock analyze`):
//!
//! * each thread stream is truncated to its *longest protocol-consistent
//!   prefix* — the first unrecoverable protocol violation cuts the
//!   stream there, never the whole trace;
//! * backwards timestamps are clamped to the running per-thread maximum;
//! * events referencing unregistered objects (or objects of the wrong
//!   kind) and out-of-range thread ids are dropped individually;
//! * open sections are closed at the last considered timestamp;
//! * a thread with nothing salvageable is *quarantined*: it stays in the
//!   trace as an empty stream so thread ids remain dense, and the
//!   critical-path walker treats references to it gracefully;
//! * every repair is counted and explained in a [`SalvageReport`].
//!
//! The result always passes [`Trace::validate`], and salvaging an
//! already-valid trace is the identity — same trace, clean report.
//!
//! Salvage is also where a [`Budget`] is applied to in-memory traces:
//! excess threads and events are tail-truncated deterministically (in
//! `(thread, index)` order) and the report is marked degraded.
//!
//! [`repair`] serves the live collector, whose partial traces are short
//! of frames rather than corrupt:
//!
//! * thread streams are made dense, with empty streams for ids that were
//!   referenced but never announced;
//! * objects referenced past the registry, and `Marker` slots (the
//!   placeholder a session fills a registration gap with), take the kind
//!   of their first use;
//! * an event that violates the protocol (an orphan of a dropped frame)
//!   is dropped, and the stream goes on;
//! * open sections are closed at the last kept timestamp, or at the
//!   stream's `ThreadExit`.
//!
//! On a well-formed stream repair is the identity, which is what makes a
//! live snapshot of a complete session match offline analysis exactly.
//!
//! [`clip`] cuts a trace to a time window for phase and sliding-window
//! analysis (`critlock_analysis::window` re-exports it). It drives the
//! same machine, dropping what it rejects as repair does, but closes
//! each window edge by its own rules (see its docs).

use crate::anomaly::Anomaly;
use crate::budget::Budget;
use crate::error::Result;
use crate::event::{Event, EventKind, Ts};
use crate::ids::{ObjId, ObjInfo, ObjKind, ThreadId};
use crate::protocol::{excise, Phase, Protocol};
use crate::trace::{ThreadStream, Trace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Per-thread salvage accounting. Only threads that needed repairs
/// appear in [`SalvageReport::threads`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadSalvage {
    /// The thread (position in the salvaged trace).
    pub tid: ThreadId,
    /// Original events kept.
    pub kept: u64,
    /// Original events dropped (truncation, dangling refs, budget).
    pub dropped: u64,
    /// Timestamps clamped to the running maximum.
    pub clamped: u64,
    /// Events synthesized to close the stream.
    pub synthesized: u64,
    /// True if nothing of a non-empty stream was salvageable.
    pub quarantined: bool,
}

/// What salvage did to a trace: aggregate counts, per-thread detail for
/// repaired threads, and the anomaly list explaining every repair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SalvageReport {
    /// Original events kept across all threads.
    pub events_kept: u64,
    /// Original events dropped across all threads.
    pub events_dropped: u64,
    /// Events synthesized (stream closes, missing starts/exits).
    pub events_synthesized: u64,
    /// Backwards timestamps clamped.
    pub timestamps_clamped: u64,
    /// Threads quarantined as empty streams.
    pub threads_quarantined: u64,
    /// True if a resource budget (events, threads, bytes, deadline)
    /// truncated the input.
    pub degraded: bool,
    /// Fraction of input events kept (1.0 when nothing was dropped).
    pub confidence: f64,
    /// Per-thread detail, repaired threads only.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub threads: Vec<ThreadSalvage>,
    /// Every repair and degradation, in discovery order.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub anomalies: Vec<Anomaly>,
}

impl Default for SalvageReport {
    fn default() -> Self {
        SalvageReport {
            events_kept: 0,
            events_dropped: 0,
            events_synthesized: 0,
            timestamps_clamped: 0,
            threads_quarantined: 0,
            degraded: false,
            confidence: 1.0,
            threads: Vec::new(),
            anomalies: Vec::new(),
        }
    }
}

impl SalvageReport {
    /// True if salvage changed nothing: no drops, no repairs, no
    /// degradation. A clean report means the salvaged trace is the
    /// input trace.
    pub fn is_clean(&self) -> bool {
        self.events_dropped == 0
            && self.events_synthesized == 0
            && self.timestamps_clamped == 0
            && self.threads_quarantined == 0
            && !self.degraded
            && self.threads.is_empty()
            && self.anomalies.is_empty()
    }

    /// Fold decode-stage anomalies (corrupt sections, checksum
    /// mismatches, decode-time budget truncations) into the report,
    /// ahead of the repair anomalies.
    pub fn absorb_decode_anomalies(&mut self, mut decode: Vec<Anomaly>) {
        if decode.is_empty() {
            return;
        }
        self.degraded = self.degraded || decode.iter().any(budgetary);
        decode.append(&mut self.anomalies);
        self.anomalies = decode;
    }

    fn finalize(&mut self) {
        let considered = self.events_kept + self.events_dropped;
        self.confidence =
            if considered == 0 { 1.0 } else { self.events_kept as f64 / considered as f64 };
        self.degraded = self.degraded || self.anomalies.iter().any(budgetary);
    }
}

fn budgetary(a: &Anomaly) -> bool {
    matches!(
        a,
        Anomaly::BudgetEventsTruncated { .. }
            | Anomaly::BudgetThreadsTruncated { .. }
            | Anomaly::BudgetBytesTruncated { .. }
            | Anomaly::DeadlineExceeded { .. }
    )
}

/// A salvaged trace plus the report of what it took.
#[derive(Debug, Clone, PartialEq)]
pub struct Salvaged {
    /// The repaired trace; always passes [`Trace::validate`].
    pub trace: Trace,
    /// What was repaired, dropped and synthesized.
    pub report: SalvageReport,
}

/// Salvage a trace under a budget. See the module docs for the repair
/// rules. On a valid trace within budget this is the identity.
pub fn salvage_trace(trace: &Trace, budget: &Budget) -> Salvaged {
    let mut report = SalvageReport::default();
    let mut out = Trace::new(trace.meta.clone());
    out.objects = trace.objects.clone();

    // Thread budget: drop trailing streams whole.
    let total_threads = trace.threads.len();
    let kept_threads = budget.thread_allowance(total_threads).unwrap_or(total_threads);
    if kept_threads < total_threads {
        report.anomalies.push(Anomaly::BudgetThreadsTruncated {
            kept: kept_threads as u64,
            dropped: (total_threads - kept_threads) as u64,
        });
        for stream in &trace.threads[kept_threads..] {
            report.events_dropped += stream.events.len() as u64;
        }
    }

    // Event budget: a single allowance consumed in (thread, index)
    // order, combining the explicit event cap with the one implied by
    // the resident-byte cap.
    let total_events: u64 =
        trace.threads[..kept_threads].iter().map(|s| s.events.len() as u64).sum();
    report.anomalies.extend(budget.event_truncations(total_events));

    let mut remaining = budget.event_cap();
    let mut deadline_hit = false;
    for (pos, stream) in trace.threads.iter().take(kept_threads).enumerate() {
        if !deadline_hit && budget.deadline_expired() {
            deadline_hit = true;
            report.anomalies.push(Anomaly::DeadlineExceeded { stage: "salvage".into() });
        }
        let take = if deadline_hit { 0 } else { stream.events.len().min(remaining as usize) };
        remaining -= take as u64;
        let (salvaged, stats) = salvage_stream(&out.objects, kept_threads, pos, stream, take);
        report.events_kept += stats.kept;
        report.events_dropped += stats.dropped;
        report.events_synthesized += stats.synthesized;
        report.timestamps_clamped += stats.clamped;
        if stats.quarantined {
            report.threads_quarantined += 1;
        }
        if stats.dropped > 0 || stats.clamped > 0 || stats.synthesized > 0 || stats.quarantined {
            report.threads.push(stats.accounting);
        }
        report.anomalies.extend(stats.anomalies);
        out.threads.push(salvaged);
    }

    report.finalize();
    debug_assert!(out.validate().is_ok(), "salvaged trace must validate");
    Salvaged { trace: out, report }
}

/// Load a trace file (binary CLTR or JSONL, sniffed by magic) in salvage
/// mode. Binary traces decode tolerantly — corrupt or truncated thread
/// sections contribute their decodable prefix — and the decoded trace is
/// then repaired under the budget. Only an unreadable preamble (or I/O
/// failure) is an error.
pub fn load(path: impl AsRef<Path>, budget: &Budget) -> Result<Salvaged> {
    load_timed(path, budget, &mut |_, _| {})
}

/// [`load`] with per-stage wall-time reporting: `observe` is called once
/// with `("decode", elapsed)` after the file is read and decoded and once
/// with `("salvage", elapsed)` after the repair pass. The result is
/// identical to [`load`] — the observer only watches the clock.
pub fn load_timed(
    path: impl AsRef<Path>,
    budget: &Budget,
    observe: &mut dyn FnMut(&'static str, std::time::Duration),
) -> Result<Salvaged> {
    let decode_started = std::time::Instant::now();
    let buf = std::fs::read(&path)?;
    let (trace, decode_anomalies) = if buf.starts_with(b"CLTR") {
        crate::codec::read_trace_bytes_salvage(&buf, budget)?
    } else {
        (crate::jsonl::read_trace(&mut &buf[..])?, Vec::new())
    };
    observe("decode", decode_started.elapsed());
    let salvage_started = std::time::Instant::now();
    let mut s = salvage_trace(&trace, budget);
    s.report.absorb_decode_anomalies(decode_anomalies);
    s.report.finalize();
    observe("salvage", salvage_started.elapsed());
    Ok(s)
}

struct StreamStats {
    kept: u64,
    dropped: u64,
    clamped: u64,
    synthesized: u64,
    quarantined: bool,
    accounting: ThreadSalvage,
    anomalies: Vec<Anomaly>,
}

/// Salvage one stream: `take` caps how many input events may be
/// considered (the event budget); `nthreads` bounds valid thread refs.
fn salvage_stream(
    objects: &[ObjInfo],
    nthreads: usize,
    pos: usize,
    stream: &ThreadStream,
    take: usize,
) -> (ThreadStream, StreamStats) {
    let tid = ThreadId(pos as u32);
    let mut anomalies = Vec::new();
    if stream.tid != tid {
        anomalies.push(Anomaly::CorruptSection {
            tid,
            recovered: 0,
            detail: format!("stream id {} at position {pos} remapped", stream.tid),
        });
    }

    let mut kept: Vec<Event> = Vec::with_capacity(take);
    let mut kept_orig = 0u64;
    let mut clamped = 0u64;
    let mut synthesized = 0u64;

    let mut protocol = Protocol::default();
    let mut last_ts = 0u64;
    let mut ended_clean = false;
    let mut synthesized_start = false;

    for (i, ev) in stream.events.iter().take(take).enumerate() {
        let mut ev = *ev;

        // Dangling references: drop the single event, keep scanning.
        if let Some((obj, kind)) = ev.kind.expected_object() {
            if objects.get(obj.index()).map(|info| info.kind) != Some(kind) {
                anomalies.push(Anomaly::DanglingObjectRef { tid, index: i, obj });
                continue;
            }
        }
        if let Some(peer) = ev.kind.peer_thread() {
            if peer.index() >= nthreads {
                anomalies.push(Anomaly::DanglingThreadRef { tid, index: i, referenced: peer });
                continue;
            }
        }

        // Clock skew: clamp to the running maximum.
        if ev.ts < last_ts {
            ev.ts = last_ts;
            clamped += 1;
        }
        last_ts = ev.ts;

        // Structural protocol: ThreadStart exactly first, ThreadExit
        // only as the true last event over a quiesced thread.
        if kept.is_empty() && ev.kind != EventKind::ThreadStart {
            kept.push(Event::new(ev.ts, EventKind::ThreadStart));
            synthesized += 1;
            synthesized_start = true;
            anomalies.push(Anomaly::SynthesizedStart { tid });
        } else if !kept.is_empty() && ev.kind == EventKind::ThreadStart {
            anomalies.push(Anomaly::ProtocolTruncation {
                tid,
                index: i,
                reason: "duplicate ThreadStart".into(),
            });
            break;
        }
        if ev.kind == EventKind::ThreadExit {
            let quiesced = protocol.quiesced();
            if i + 1 == stream.events.len() && i + 1 == take && quiesced {
                kept.push(ev);
                kept_orig += 1;
                ended_clean = true;
                break;
            }
            let reason = if quiesced {
                "ThreadExit before end of stream"
            } else {
                "ThreadExit with open sections"
            };
            anomalies.push(Anomaly::ProtocolTruncation { tid, index: i, reason: reason.into() });
            break;
        }

        // Synchronization protocol: first violation cuts the stream.
        if let Err(violation) = protocol.step(ev.kind, kept.len()) {
            let reason = violation.to_string();
            anomalies.push(Anomaly::ProtocolTruncation { tid, index: i, reason });
            break;
        }

        kept.push(ev);
        kept_orig += 1;
    }

    // Close an unfinished stream at the last considered timestamp.
    if !kept.is_empty() && !ended_clean {
        let before = kept.len();
        let excised = protocol.close(last_ts, &mut kept);
        synthesized += (kept.len() + excised - before) as u64;
        kept_orig -= excised as u64;
        anomalies.push(Anomaly::SynthesizedExit { tid });
    }

    // Quarantine: a non-empty input stream with no salvageable events,
    // or one reduced to only synthesized scaffolding.
    let quarantined = !stream.events.is_empty() && kept_orig == 0;
    if quarantined {
        kept.clear();
        synthesized = 0;
        if synthesized_start {
            anomalies.retain(|a| {
                !matches!(a, Anomaly::SynthesizedStart { .. } | Anomaly::SynthesizedExit { .. })
            });
        }
        anomalies.push(Anomaly::QuarantinedThread {
            tid,
            reason: format!("no salvageable events out of {}", stream.events.len()),
        });
    }

    let dropped = stream.events.len() as u64 - kept_orig;
    let stats = StreamStats {
        kept: kept_orig,
        dropped,
        clamped,
        synthesized,
        quarantined,
        accounting: ThreadSalvage {
            tid,
            kept: kept_orig,
            dropped,
            clamped,
            synthesized,
            quarantined,
        },
        anomalies,
    };
    let mut out = ThreadStream::new(tid);
    out.name = stream.name.clone();
    out.events = kept;
    (out, stats)
}

/// Repair a live session's partial trace into one that passes
/// [`Trace::validate`]. The partial trace is only read: each stream's
/// events are copied once, into their repaired form. Identity (modulo
/// thread-stream order) on already-valid traces. See the module docs for
/// how this differs from [`salvage_trace`].
pub fn repair(partial: &Trace) -> Trace {
    // One scan finds the highest thread id (streams become dense) and
    // the first-use kinds of objects whose registration never arrived:
    // ids past the registry, and `Marker` slots, the placeholder kind a
    // session fills a registration gap with. A real marker's first use
    // is a `Marker` event, which keeps its kind.
    let mut objects = partial.objects.clone();
    let mut inferred: BTreeMap<u32, ObjKind> = BTreeMap::new();
    let mut max_tid: Option<u32> = partial.threads.iter().map(|s| s.tid.0).max();
    for ev in partial.threads.iter().flat_map(|s| &s.events) {
        if let Some(peer) = ev.kind.peer_thread() {
            max_tid = Some(max_tid.map_or(peer.0, |m| m.max(peer.0)));
        }
        if let Some((obj, kind)) = ev.kind.expected_object() {
            if objects.get(obj.index()).is_none_or(|o| o.kind == ObjKind::Marker) {
                inferred.entry(obj.0).or_insert(kind);
            }
        }
    }
    for (&id, &kind) in &inferred {
        while objects.len() <= id as usize {
            let i = objects.len();
            objects.push(ObjInfo { kind: ObjKind::Marker, name: format!("unregistered-{i}") });
        }
        objects[id as usize].kind = kind;
    }
    let mut threads: Vec<ThreadStream> = match max_tid {
        Some(max_tid) => (0..=max_tid).map(|i| ThreadStream::new(ThreadId(i))).collect(),
        None => Vec::new(),
    };
    for stream in &partial.threads {
        threads[stream.tid.index()] = ThreadStream {
            tid: stream.tid,
            name: stream.name.clone(),
            events: repair_stream(&stream.events, &objects),
        };
    }
    Trace { meta: partial.meta.clone(), objects, threads }
}

/// Rebuild one thread's event list so it satisfies the protocol: drop
/// each violating event (an orphan of a dropped frame) and go on, then
/// close what is open at the last kept timestamp, or at the
/// `ThreadExit`'s.
fn repair_stream(events: &[Event], objects: &[ObjInfo]) -> Vec<Event> {
    let mut protocol = Protocol::default();
    let mut out: Vec<Event> = Vec::with_capacity(events.len() + 4);
    let mut last_ts: Ts = 0;
    for ev in events {
        // Clamp any backwards timestamp (possible only after frame loss).
        let ts = ev.ts.max(last_ts);
        match ev.kind {
            EventKind::ThreadStart if !out.is_empty() => continue,
            EventKind::ThreadStart => {}
            EventKind::ThreadExit => {
                // Appended by `close`, after the open waits.
                last_ts = ts;
                break;
            }
            kind => {
                let registered = kind
                    .expected_object()
                    .is_none_or(|(obj, k)| objects.get(obj.index()).is_some_and(|o| o.kind == k));
                // A kept first event gets a synthesized ThreadStart ahead of it.
                let at = out.len() + usize::from(out.is_empty());
                if !registered || protocol.step(kind, at).is_err() {
                    continue;
                }
                if out.is_empty() {
                    out.push(Event::new(ts, EventKind::ThreadStart));
                }
            }
        }
        out.push(Event::new(ts, ev.kind));
        last_ts = ts;
    }
    // Nothing kept (say, only a ThreadExit arrived): an empty stream is
    // valid.
    if !out.is_empty() {
        protocol.close(last_ts, &mut out);
    }
    out
}

/// Clip a trace to the window `[lo, hi]`, so the standard analysis can
/// run on one phase of it. Each stream's machine is stepped up to `lo`,
/// and what is still open there is re-issued at `lo` in the phase it had
/// reached; events in the window are then stepped through a fresh
/// machine, which drops any it rejects, and what that one leaves open is
/// closed at `hi`. The edge rules are listed in the docs of
/// `critlock_analysis::window`, which re-exports this function.
pub fn clip(trace: &Trace, lo: Ts, hi: Ts) -> Trace {
    assert!(lo <= hi, "window must be ordered");
    let mut out = Trace::new(trace.meta.clone());
    out.meta.params.insert("window_lo".into(), lo.to_string());
    out.meta.params.insert("window_hi".into(), hi.to_string());
    out.objects = trace.objects.clone();
    out.threads = trace.threads.iter().map(|stream| clip_stream(stream, lo, hi)).collect();
    out
}

fn clip_stream(stream: &ThreadStream, lo: Ts, hi: Ts) -> ThreadStream {
    let mut clipped = ThreadStream::new(stream.tid);
    clipped.name = stream.name.clone();
    let (Some(start), Some(end)) = (stream.start_ts(), stream.end_ts()) else {
        return clipped;
    };
    // Entirely outside the window: an empty stream keeps ids dense.
    if end < lo || start > hi {
        return clipped;
    }
    let events = &stream.events;

    // The leading edge: what is open after the events before `lo`.
    let mut before = Protocol::default();
    let mut first = events.len();
    for (i, ev) in events.iter().enumerate() {
        if ev.ts >= lo {
            first = i;
            break;
        }
        let _ = before.step(ev.kind, i);
    }
    let mut reissue = Vec::new();
    for o in before.open() {
        reissue.push(events[o.acquire_at].kind);
        match o.phase {
            Phase::Held { at, .. } => reissue.push(events[at].kind),
            Phase::Contended { at } if obtained_after(&events[first..], o.lock, lo) => {
                reissue.push(events[at].kind);
            }
            _ => {}
        }
    }
    if let Some((barrier, epoch, _)) = before.barrier() {
        reissue.push(EventKind::BarrierArrive { barrier, epoch });
    }

    let w_start = start.max(lo);
    let w_end = end.min(hi).max(w_start);
    let mut out = vec![Event::new(w_start, EventKind::ThreadStart)];
    let mut within = Protocol::default();
    for kind in reissue {
        if within.step(kind, out.len()).is_ok() {
            out.push(Event::new(lo, kind));
        }
    }
    // Joins are not protocol state: the window pairs them itself.
    let mut join = None;
    for ev in events[first..].iter().take_while(|e| e.ts <= hi) {
        let keep = match ev.kind {
            // Re-synthesized at the window's edges.
            EventKind::ThreadStart | EventKind::ThreadExit => false,
            EventKind::JoinBegin { .. } => {
                join = Some(out.len());
                true
            }
            EventKind::JoinEnd { .. } => join.take().is_some(),
            kind => within.step(kind, out.len()).is_ok(),
        };
        if keep {
            out.push(*ev);
        }
    }

    // The trailing edge.
    let mut dropped: Vec<usize> = join.into_iter().collect();
    dropped.extend(within.wait().map(|(_, begin_at)| begin_at));
    for o in within.open().iter().rev() {
        match o.phase {
            Phase::Acquiring => dropped.push(o.acquire_at),
            Phase::Contended { at } => dropped.extend([o.acquire_at, at]),
            Phase::Held { .. } => out.push(Event::new(w_end, o.obtain_release().1)),
        }
    }
    if let Some((barrier, epoch, _)) = within.barrier() {
        out.push(Event::new(w_end, EventKind::BarrierDepart { barrier, epoch }));
    }
    out.push(Event::new(w_end, EventKind::ThreadExit));
    excise(&mut out, dropped);
    clipped.events = out;
    clipped
}

/// Whether the next obtain of `lock` in `events` lies after `lo` (or
/// never comes).
fn obtained_after(events: &[Event], lock: ObjId, lo: Ts) -> bool {
    let obtain = events.iter().find(|e| {
        matches!(e.kind, EventKind::LockObtain { lock: l } | EventKind::RwObtain { lock: l, .. }
            if l == lock)
    });
    obtain.is_none_or(|e| e.ts > lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    fn valid_trace() -> Trace {
        let mut b = TraceBuilder::new("salvage-sample");
        let l = b.lock("L");
        let bar = b.barrier("B");
        let cv = b.condvar("CV");
        let t0 = b.thread("main", 0);
        let t1 = b.thread("w", 0);
        b.on(t1).work(2).cs_blocked(l, 5, 2).barrier(bar, 0, 12).cond_wait(cv, 16, 1).exit_at(20);
        b.on(t0).cs(l, 5).barrier(bar, 0, 12).work(2).cond_signal(cv, 1).exit_at(21);
        b.build().unwrap()
    }

    #[test]
    fn valid_trace_is_identity() {
        let t = valid_trace();
        let s = salvage_trace(&t, &Budget::unlimited());
        assert_eq!(s.trace, t);
        assert!(s.report.is_clean(), "{:?}", s.report);
        assert_eq!(s.report.confidence, 1.0);
        assert!(!s.report.degraded);
    }

    #[test]
    fn backwards_timestamp_clamped() {
        let mut t = valid_trace();
        let i = t.threads[0].events.len() - 2;
        t.threads[0].events[i].ts = 1; // jumps backwards
        assert!(t.validate().is_err());
        let s = salvage_trace(&t, &Budget::unlimited());
        s.trace.validate().unwrap();
        assert_eq!(s.report.timestamps_clamped, 1);
        assert_eq!(s.report.events_dropped, 0);
        assert!(!s.report.is_clean());
    }

    #[test]
    fn missing_exit_synthesized() {
        let mut t = valid_trace();
        t.threads[0].events.pop();
        assert!(t.validate().is_err());
        let s = salvage_trace(&t, &Budget::unlimited());
        s.trace.validate().unwrap();
        assert!(s.report.events_synthesized >= 1);
        assert!(s.report.anomalies.iter().any(|a| matches!(a, Anomaly::SynthesizedExit { .. })));
    }

    #[test]
    fn held_lock_at_cut_released() {
        let mut t = valid_trace();
        // Cut thread 0 right after its LockObtain: the lock is held.
        let obtain = t.threads[0]
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::LockObtain { .. }))
            .unwrap();
        t.threads[0].events.truncate(obtain + 1);
        let s = salvage_trace(&t, &Budget::unlimited());
        s.trace.validate().unwrap();
        let kinds: Vec<_> = s.trace.threads[0].events.iter().map(|e| e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, EventKind::LockRelease { .. })));
        assert!(matches!(kinds.last(), Some(EventKind::ThreadExit)));
    }

    #[test]
    fn abandoned_contended_wait_excised() {
        let mut t = valid_trace();
        // Cut thread 1 right after LockContended: acquire+contended with
        // no obtain must be excised, not left dangling.
        let cont = t.threads[1]
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::LockContended { .. }))
            .unwrap();
        t.threads[1].events.truncate(cont + 1);
        let s = salvage_trace(&t, &Budget::unlimited());
        s.trace.validate().unwrap();
        let kinds: Vec<_> = s.trace.threads[1].events.iter().map(|e| e.kind).collect();
        assert!(!kinds
            .iter()
            .any(|k| matches!(k, EventKind::LockAcquire { .. } | EventKind::LockContended { .. })));
    }

    #[test]
    fn protocol_violation_cuts_prefix_not_trace() {
        let mut t = valid_trace();
        // A release without a hold mid-stream on thread 0.
        let l = t.object_by_name("L").unwrap();
        t.threads[0].events.insert(1, Event::new(0, EventKind::LockRelease { lock: l }));
        assert!(t.validate().is_err());
        let s = salvage_trace(&t, &Budget::unlimited());
        s.trace.validate().unwrap();
        // Thread 0 is cut at index 1; thread 1 survives whole.
        assert_eq!(s.trace.threads[1].events, t.threads[1].events);
        assert!(s
            .report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::ProtocolTruncation { tid: ThreadId(0), .. })));
    }

    #[test]
    fn dangling_refs_dropped_individually() {
        let mut t = valid_trace();
        let n = t.threads[0].events.len();
        t.threads[0].events.insert(n - 1, Event::new(21, EventKind::Marker { id: ObjId(99) }));
        t.threads[0]
            .events
            .insert(n - 1, Event::new(21, EventKind::ThreadCreate { child: ThreadId(40) }));
        assert!(t.validate().is_err());
        let s = salvage_trace(&t, &Budget::unlimited());
        s.trace.validate().unwrap();
        assert_eq!(s.report.events_dropped, 2);
        // Everything after the dropped events is retained.
        assert!(matches!(
            s.trace.threads[0].events.last().map(|e| e.kind),
            Some(EventKind::ThreadExit)
        ));
        assert_eq!(s.trace.threads[0].events.len(), t.threads[0].events.len() - 2);
    }

    #[test]
    fn hopeless_thread_quarantined_others_survive() {
        let mut t = valid_trace();
        // Thread 0's stream becomes garbage from the first event.
        let l = t.object_by_name("L").unwrap();
        t.threads[0].events = vec![Event::new(0, EventKind::LockRelease { lock: l })];
        let s = salvage_trace(&t, &Budget::unlimited());
        s.trace.validate().unwrap();
        assert!(s.trace.threads[0].events.is_empty());
        assert_eq!(s.report.threads_quarantined, 1);
        assert!(!s.trace.threads[1].events.is_empty());
    }

    #[test]
    fn event_budget_tail_truncates_deterministically() {
        let t = valid_trace();
        let budget = Budget::unlimited().with_max_events(5);
        let s = salvage_trace(&t, &budget);
        s.trace.validate().unwrap();
        assert!(s.report.degraded);
        assert!(s
            .report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::BudgetEventsTruncated { kept: 5, .. })));
        // Thread 0 keeps a (closed) 5-event prefix; thread 1 is emptied.
        assert_eq!(s.trace.threads[1].events.len(), 0);
        let again = salvage_trace(&t, &budget);
        assert_eq!(again.trace, s.trace);
        assert_eq!(again.report, s.report);
    }

    #[test]
    fn thread_budget_drops_trailing_streams() {
        let t = valid_trace();
        let s = salvage_trace(&t, &Budget::unlimited().with_max_threads(1));
        s.trace.validate().unwrap();
        assert_eq!(s.trace.num_threads(), 1);
        assert!(s.report.degraded);
    }

    #[test]
    fn expired_deadline_degrades_instead_of_aborting() {
        let t = valid_trace();
        let budget = Budget {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..Default::default()
        };
        let s = salvage_trace(&t, &budget);
        s.trace.validate().unwrap();
        assert!(s.report.degraded);
        assert!(s.report.anomalies.iter().any(|a| matches!(a, Anomaly::DeadlineExceeded { .. })));
        assert_eq!(s.trace.num_threads(), t.num_threads());
    }

    #[test]
    fn report_serde_roundtrip() {
        let mut t = valid_trace();
        t.threads[0].events.pop();
        let s = salvage_trace(&t, &Budget::unlimited().with_max_events(4));
        let json = serde_json::to_string(&s.report).unwrap();
        let back: SalvageReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s.report);
        // Empty per-thread/anomaly lists are skipped at serialization and
        // must still deserialize (as empty) from the compact form.
        let clean = SalvageReport::default();
        let json = serde_json::to_string(&clean).unwrap();
        assert!(!json.contains("\"threads\"") && !json.contains("\"anomalies\""), "{json}");
        let back: SalvageReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, clean);
    }
}
