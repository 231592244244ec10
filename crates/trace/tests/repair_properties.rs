//! Property tests for the resumable repair cursor.
//!
//! [`repair`] repairs each stream with one [`RepairCursor`] resumed from
//! empty over the whole stream. The collector instead keeps a cursor per
//! stream and resumes it over the events that arrived since its last
//! refresh, then, while every cursor is clean, closes its streams in
//! place instead of copying them. Both must reach exactly what one
//! `repair` pass makes, however the streams are split:
//!
//! * resuming a cursor chunk by chunk against the repaired registry
//!   yields, after its close, the repaired stream;
//! * at every cut of a growing partial trace whose cursors are clean and
//!   whose streams are dense, closing the streams in place yields
//!   `repair` of that partial trace, and reopening restores it.
//!
//! The traces are random valid ones, and the same with the faults a
//! lossy transport leaves: orphans of dropped frames, backwards
//! timestamps, events after `ThreadExit`, duplicate `ThreadStart`s,
//! streams cut short or missing their start, and events on unregistered objects and `Marker`
//! slots.

use critlock_trace::salvage::{repair, RepairCursor};
use critlock_trace::{Event, EventKind, ObjId, ObjInfo, ObjKind, Trace, TraceBuilder};
use proptest::prelude::*;

/// One thread's operations: (kind, amount).
type Ops = Vec<(u8, u64)>;

/// A protocol-valid trace of 1–3 threads over two locks, a reader-writer
/// lock, a condvar wait and a marker, with contended and plain holds.
fn build(threads: &[Ops]) -> Trace {
    let mut b = TraceBuilder::new("repair-props");
    let l1 = b.lock("L1");
    let l2 = b.lock("L2");
    let rw = b.rwlock("RW");
    let cv = b.condvar("CV");
    let m = b.marker("phase");
    let tids: Vec<_> = (0..threads.len()).map(|i| b.thread(format!("t{i}"), 0)).collect();
    for (&tid, ops) in tids.iter().zip(threads) {
        for &(kind, amount) in ops {
            let later = b.now(tid) + amount;
            let mut c = b.on(tid);
            match kind {
                0 => c.work(amount),
                1 => c.cs(l1, amount),
                2 => c.cs(l2, amount),
                3 => c.cs_blocked(l1, later, 2),
                4 => c.rw(rw, amount % 2 == 0, amount),
                5 => c.cond_wait_unmatched(cv, later),
                _ => c.mark(m),
            };
        }
        b.on(tid).exit();
    }
    b.build().expect("builder output is always valid")
}

/// Apply one fault to `events`, anchored at `pos` (reduced modulo the
/// stream's length).
fn fault(events: &mut Vec<Event>, kind: u8, pos: usize, span: usize) {
    if events.is_empty() {
        return;
    }
    let at = pos % events.len();
    let ts = events[at].ts;
    match kind {
        // A dropped frame: its events' partners become orphans.
        0 => {
            events.drain(at..(at + 1 + span).min(events.len()));
        }
        1 => events[at].ts = ts / 2,
        2 => {
            let last = events.len() - 1;
            let late = Event::new(events[last].ts + 1, events[at].kind);
            events.push(late);
        }
        3 => events.insert(at, Event::new(ts, EventKind::ThreadStart)),
        4 => events.truncate(at),
        // An object past the registry: repair infers its kind.
        5 => {
            let lock = ObjId(9);
            events.insert(at, Event::new(ts, EventKind::LockRelease { lock }));
            events.insert(at, Event::new(ts, EventKind::LockObtain { lock }));
            events.insert(at, Event::new(ts, EventKind::LockAcquire { lock }));
        }
        // The `Marker` slot appended below: a lock's first use re-kinds it.
        6 => {
            let lock = ObjId(5);
            events.insert(at, Event::new(ts, EventKind::LockObtain { lock }));
            events.insert(at, Event::new(ts, EventKind::LockAcquire { lock }));
        }
        // A marker event on a slot of another kind.
        7 => events.insert(at, Event::new(ts, EventKind::Marker { id: ObjId(0) })),
        // The stream's leading frames lost.
        _ => {
            events.drain(..at);
        }
    }
}

fn traces() -> impl Strategy<Value = Trace> {
    let ops = prop::collection::vec((0u8..7, 1u64..6), 0..20);
    let faults = prop::collection::vec((0usize..3, 0u8..9, 0usize..200, 0usize..4), 0..5);
    (prop::collection::vec(ops, 1..4), faults, any::<bool>()).prop_map(
        |(threads, faults, placeholder)| {
            let mut trace = build(&threads);
            if placeholder {
                let name = "unregistered-5".to_string();
                trace.objects.push(ObjInfo { kind: ObjKind::Marker, name });
            }
            for (tid, kind, pos, span) in faults {
                if let Some(stream) = trace.threads.get_mut(tid) {
                    fault(&mut stream.events, kind, pos, span);
                }
            }
            trace
        },
    )
}

/// A cut point in a stream of `len` events, from a fraction.
fn cut(fraction: u16, len: usize) -> usize {
    ((len + 1) * usize::from(fraction)) >> 16
}

/// Ascending cut points of a stream of `len` events, ending at `len`.
fn cuts(fractions: &[u16], len: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = fractions.iter().map(|&f| cut(f, len)).collect();
    cuts.sort_unstable();
    cuts.push(len);
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Resuming a cursor chunk by chunk reaches one `repair` pass.
    #[test]
    fn chunked_resume_equals_one_repair_pass(
        trace in traces(),
        fractions in prop::collection::vec(any::<u16>(), 0..6),
    ) {
        let repaired = repair(&trace);
        for stream in &trace.threads {
            let mut cursor = RepairCursor::default();
            let mut out = Vec::new();
            for cut in cuts(&fractions, stream.events.len()) {
                cursor.resume(&stream.events[..cut], &repaired.objects, |ev| out.push(ev));
            }
            cursor.close(&mut out);
            prop_assert_eq!(&out, &repaired.threads[stream.tid.index()].events);
        }
    }

    /// A growing partial trace, refreshed at random cuts and at its end:
    /// wherever every cursor is clean and the streams are dense, the
    /// streams closed in place are `repair` of the partial trace, and
    /// reopening restores it. On a fault-free trace every cursor stays
    /// clean.
    #[test]
    fn clean_cursors_close_in_place_to_repair(
        trace in traces(),
        rounds in prop::collection::vec(prop::collection::vec(any::<u16>(), 3), 0..6),
    ) {
        let rounds = rounds.into_iter().chain([vec![u16::MAX; 3]]);
        let valid = trace.validate().is_ok();
        let mut partial = trace.clone();
        let mut cursors = vec![RepairCursor::default(); trace.threads.len()];
        let mut reached = vec![0; trace.threads.len()];
        for round in rounds {
            for (i, stream) in trace.threads.iter().enumerate() {
                let len = stream.events.len();
                let cut = if round[i] == u16::MAX { len } else { cut(round[i], len) };
                reached[i] = reached[i].max(cut);
                partial.threads[i].events = stream.events[..reached[i]].to_vec();
                cursors[i].resume(&partial.threads[i].events, &partial.objects, |_| {});
            }
            let streams = partial.threads.len();
            let dense = cursors.iter().all(|c| c.max_peer().is_none_or(|p| p.index() < streams));
            let clean = cursors.iter().all(RepairCursor::is_clean);
            prop_assert!(clean || !valid, "a prefix of a valid trace needs no repair");
            if !(clean && dense) {
                continue;
            }
            let before = partial.clone();
            let reopen: Vec<_> = cursors
                .iter()
                .zip(&mut partial.threads)
                .map(|(cursor, stream)| cursor.close_in_place(&mut stream.events))
                .collect();
            prop_assert_eq!(&partial, &repair(&before));
            for (reopen, stream) in reopen.into_iter().zip(&mut partial.threads) {
                reopen.undo(&mut stream.events);
            }
            prop_assert_eq!(&partial, &before);
        }
    }
}
