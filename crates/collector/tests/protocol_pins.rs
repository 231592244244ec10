//! Pinned outputs of the three consumers of the per-thread sync protocol.
//!
//! The collector's `repair`, the offline `salvage_trace` and
//! `Trace::validate` all walk each thread stream through the same
//! lock, rwlock, barrier and condvar state machine. A fixed corpus is
//! enumerated without any RNG: for each stream of a trace that covers
//! every object kind, every prefix cut and every single-event deletion
//! of that stream (the other streams left whole), plus two nested-close
//! cases — a lock held across an open condvar wait and a lock held
//! across an open barrier. Each group of cases hashes to one line per
//! consumer: the repaired trace, the salvaged trace with its report, or
//! the validation outcome (`ok`, or the error text). The lines must
//! match `fixtures/protocol_digests.txt` exactly, so any change to what
//! a consumer keeps, synthesizes or reports shows up as a changed line.

use critlock_collector::repair;
use critlock_trace::salvage::salvage_trace;
use critlock_trace::{Budget, Event, EventKind, ThreadId, Trace, TraceBuilder};
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
    let actual = digest_lines();
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
