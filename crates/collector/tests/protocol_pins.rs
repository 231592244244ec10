//! Pinned outputs of the consumers of the per-thread sync protocol.
//!
//! The collector's `repair`, the offline `salvage_trace`,
//! `Trace::validate`, window `clip`, the episode views and segment
//! construction all walk each thread stream through the same lock,
//! rwlock, barrier and condvar state machine. A fixed corpus is
//! enumerated without any RNG: for each stream of a trace that covers
//! every object kind, every prefix cut and every single-event deletion
//! of that stream (the other streams left whole), plus two nested-close
//! cases — a lock held across an open condvar wait and a lock held
//! across an open barrier. Each group of cases hashes to one line per
//! consumer: the repaired trace, the salvaged trace with its report, or
//! the validation outcome (`ok`, or the error text).
//!
//! The window and episode lines run on what the collector clips: the
//! repaired trace of every case, plus `mixed()` whole and two cases whose
//! lock invocation straddles a window's leading edge (acquire, contended
//! event and obtain at distinct timestamps). Each group hashes `clip`
//! over every window `lo <= hi` whose edges are an event timestamp of
//! `mixed()` or one tick either side of one, each episode view over the
//! unclipped trace, and its segments: every thread's segment list with
//! start causes, plus every release, signal, arrival, create and exit
//! lookup at each event timestamp or one tick either side of one.
//!
//! The lines must match `fixtures/protocol_digests.txt` exactly, so any
//! change to what a consumer keeps, synthesizes or reports shows up as a
//! changed line.

use critlock_analysis::{clip, SegmentedTrace};
use critlock_collector::repair;
use critlock_trace::salvage::salvage_trace;
use critlock_trace::{
    barrier_episodes, cond_wait_episodes, join_episodes, lock_episodes, rw_episodes, Budget, Event,
    EventKind, ObjId, ThreadId, Trace, TraceBuilder, Ts, SEQ_UNKNOWN,
};
use std::fmt::Write as _;

const EXPECTED: &str = include_str!("fixtures/protocol_digests.txt");

/// Three named threads over every object kind: fork, join, a barrier, a
/// condvar hand-off, plain and contended locks, and reader-writer holds.
fn mixed() -> Trace {
    let mut b = TraceBuilder::new("fixture-mixed");
    b.param("threads", 3);
    let l = b.lock("L");
    let rw = b.rwlock("RW");
    let bar = b.barrier("B");
    let cv = b.condvar("CV");
    let m = b.marker("phase");
    let t0 = b.thread("main", 0);
    let t1 = b.thread("w1", 1);
    let t2 = b.thread("w2", 1);
    b.on(t1).work(2).cs(l, 5).rw(rw, false, 2).barrier(bar, 0, 12).exit_at(22);
    b.on(t2).work(3).cs_blocked(l, 8, 2).barrier(bar, 0, 12).cond_wait(cv, 17, 1).exit_at(21);
    b.on(t0)
        .create(t1)
        .create(t2)
        .mark(m)
        .work(4)
        .rw(rw, true, 3)
        .work(9)
        .cond_signal(cv, 1)
        .join(t1, 22)
        .join(t2, 22)
        .exit_at(23);
    b.build().unwrap()
}

/// FNV-1a, 64-bit: a stable digest independent of the std hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `base` with stream `tid`'s events replaced by `events`.
fn with_stream(base: &Trace, tid: usize, events: Vec<Event>) -> Trace {
    let mut trace = base.clone();
    trace.threads[tid].events = events;
    trace
}

/// Thread 1 of `mixed()` holding `L` when it opens a condvar wait or a
/// barrier episode, then cut: each consumer must close both.
fn nested_cases(base: &Trace) -> Vec<Trace> {
    let l = base.object_by_name("L").unwrap();
    let bar = base.object_by_name("B").unwrap();
    let cv = base.object_by_name("CV").unwrap();
    let held = |open: EventKind| {
        vec![
            Event::new(1, EventKind::ThreadStart),
            Event::new(2, EventKind::LockAcquire { lock: l }),
            Event::new(2, EventKind::LockObtain { lock: l }),
            Event::new(4, open),
        ]
    };
    vec![
        with_stream(base, 1, held(EventKind::CondWaitBegin { cv })),
        with_stream(base, 1, held(EventKind::BarrierArrive { barrier: bar, epoch: 0 })),
    ]
}

/// Each case group, named: every prefix cut and every single-event
/// deletion of each stream, then the nested-close cases.
fn groups() -> Vec<(String, Vec<Trace>)> {
    let base = mixed();
    let mut groups = Vec::new();
    for (tid, stream) in base.threads.iter().enumerate() {
        let events = &stream.events;
        let cuts = (0..=events.len()).map(|at| with_stream(&base, tid, events[..at].to_vec()));
        groups.push((format!("{} cut", ThreadId(tid as u32)), cuts.collect()));
        let deletions = (0..events.len()).map(|at| {
            let mut kept = events.clone();
            kept.remove(at);
            with_stream(&base, tid, kept)
        });
        groups.push((format!("{} delete", ThreadId(tid as u32)), deletions.collect()));
    }
    groups.push(("nested close".into(), nested_cases(&base)));
    groups
}

/// Thread 1 of `mixed()` replaced by one invocation of `L` whose
/// acquire (at 5), contended event (at 12, when `contended`) and obtain
/// (at 15) have distinct timestamps, so window edges fall between them.
fn straddle(base: &Trace, contended: bool) -> Trace {
    let lock = base.object_by_name("L").unwrap();
    let mut events = vec![
        Event::new(1, EventKind::ThreadStart),
        Event::new(5, EventKind::LockAcquire { lock }),
        Event::new(12, EventKind::LockContended { lock }),
        Event::new(15, EventKind::LockObtain { lock }),
        Event::new(17, EventKind::LockRelease { lock }),
        Event::new(22, EventKind::ThreadExit),
    ];
    if !contended {
        events.remove(2);
    }
    with_stream(base, 1, events)
}

/// Every window `lo <= hi` whose edges are an event timestamp of `base`
/// or one tick either side of one.
fn windows(base: &Trace) -> Vec<(Ts, Ts)> {
    let mut edges: Vec<Ts> = base
        .threads
        .iter()
        .flat_map(|s| &s.events)
        .flat_map(|e| [e.ts.checked_sub(1), Some(e.ts), Some(e.ts + 1)])
        .flatten()
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let mut out = Vec::new();
    for (i, &lo) in edges.iter().enumerate() {
        out.extend(edges[i..].iter().map(|&hi| (lo, hi)));
    }
    out
}

/// Every thread's segments, then what each lookup of the segmented
/// trace answers at each event timestamp or one tick either side of one.
fn segments(trace: &Trace) -> String {
    let st = SegmentedTrace::build(trace);
    let tids: Vec<_> = (0..=trace.threads.len() as u32).map(ThreadId).collect();
    let mut at: Vec<Ts> = trace
        .threads
        .iter()
        .flat_map(|s| &s.events)
        .flat_map(|e| [e.ts.saturating_sub(1), e.ts, e.ts + 1])
        .collect();
    at.sort_unstable();
    at.dedup();
    let mut out = format!("{:?}", st.iter_threads().collect::<Vec<_>>());
    for obj in (0..trace.objects.len() as u32).map(ObjId) {
        for epoch in 0..2 {
            write!(out, " {:?}", st.last_arriver(obj, epoch)).unwrap();
        }
        for &ts in &at {
            for &tid in &tids {
                write!(out, " {:?}", st.latest_release_before(obj, ts, tid)).unwrap();
                for seq in [0, 1, 2, SEQ_UNKNOWN] {
                    write!(out, " {:?}", st.matching_signal(obj, seq, ts, tid)).unwrap();
                }
            }
        }
    }
    for &tid in &tids {
        write!(out, " {:?} {:?}", st.creator_of(tid), st.exit_ts(tid)).unwrap();
    }
    out
}

/// The clip, episode-view and segment lines: each case group repaired, then
/// `mixed()` whole and each straddle case on a line of its own.
fn view_lines() -> String {
    let base = mixed();
    let windows = windows(&base);
    let mut inputs: Vec<(String, Vec<Trace>)> = groups()
        .into_iter()
        .map(|(name, cases)| (name, cases.iter().map(repair).collect()))
        .collect();
    inputs.push(("mixed".into(), vec![base.clone()]));
    inputs.push(("straddle contended".into(), vec![straddle(&base, true)]));
    inputs.push(("straddle uncontended".into(), vec![straddle(&base, false)]));
    let mut lines = String::new();
    for (name, traces) in inputs {
        let mut views = [(); 7].map(|()| Fnv::new());
        for trace in &traces {
            for &(lo, hi) in &windows {
                views[0].feed(&format!("{:?}", clip(trace, lo, hi)));
            }
            views[1].feed(&format!("{:?}", lock_episodes(trace)));
            views[2].feed(&format!("{:?}", rw_episodes(trace)));
            views[3].feed(&format!("{:?}", barrier_episodes(trace)));
            views[4].feed(&format!("{:?}", cond_wait_episodes(trace)));
            views[5].feed(&format!("{:?}", join_episodes(trace)));
            views[6].feed(&segments(trace));
        }
        let n = traces.len();
        let [clipped, locks, rws, barriers, waits, joins, segs] = views;
        writeln!(lines, "{name} clip: cases {n} windows {} {:016x}", windows.len(), clipped.0)
            .unwrap();
        for (view, digest) in [
            ("lock_episodes", locks),
            ("rw_episodes", rws),
            ("barrier_episodes", barriers),
            ("cond_wait_episodes", waits),
            ("join_episodes", joins),
            ("segments", segs),
        ] {
            writeln!(lines, "{name} {view}: cases {n} {:016x}", digest.0).unwrap();
        }
    }
    lines
}

fn digest_lines() -> String {
    let mut lines = String::new();
    for (name, cases) in groups() {
        let (mut repaired, mut salvaged, mut validated) = (Fnv::new(), Fnv::new(), Fnv::new());
        for trace in &cases {
            repaired.feed(&format!("{:?}", repair(trace)));
            salvaged.feed(&format!("{:?}", salvage_trace(trace, &Budget::unlimited())));
            validated.feed(&match trace.validate() {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("error: {e}"),
            });
        }
        let n = cases.len();
        for (consumer, digest) in
            [("repair", repaired), ("salvage", salvaged), ("validate", validated)]
        {
            writeln!(lines, "{name} {consumer}: cases {n} {:016x}", digest.0).unwrap();
        }
    }
    lines
}

#[test]
fn protocol_consumers_match_pinned_digests() {
    let actual = digest_lines() + &view_lines();
    let mismatched: Vec<_> = EXPECTED
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        mismatched.is_empty() && EXPECTED.lines().count() == actual.lines().count(),
        "protocol consumer outputs changed:\n{}\nfull output:\n{actual}",
        mismatched.join("\n")
    );
}
