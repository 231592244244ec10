//! Pinned outputs of the tolerant CLTR decoder.
//!
//! A fixed corpus is enumerated without any RNG: two builder traces, each
//! encoded as format v1, v2 and v3, damaged by every cut, every
//! single-byte [`FLIP_MASK`] flip and a fixed set of splices, and decoded
//! by [`read_trace_bytes_salvage`] under five budgets. Each group of cases
//! (trace × version × damage × budget) hashes to one line: the count of
//! recovered and rejected inputs plus a digest of every recovered
//! `(trace, anomalies)` pair and every error text. The lines must match
//! `fixtures/salvage_digests.txt` exactly, so any change to what salvage
//! recovers, which anomalies it records (details included) or how it
//! fails shows up as a changed line.

use critlock_trace::codec::{read_trace_bytes_salvage, write_trace_with_version};
use critlock_trace::faults::FLIP_MASK;
use critlock_trace::{Budget, Trace, TraceBuilder};
use std::fmt::Write as _;
use std::time::Duration;

const EXPECTED: &str = include_str!("fixtures/salvage_digests.txt");

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

/// Two threads with long runs of critical sections, so an event budget
/// ends inside the first thread's section.
fn pair() -> Trace {
    let mut b = TraceBuilder::new("fixture-pair");
    let l1 = b.lock("L1");
    let l2 = b.lock("L2");
    let a = b.thread("a", 0);
    let c = b.thread("b", 0);
    for i in 0..6 {
        b.on(a).cs(l1, 1 + i % 3).work(2);
        b.on(c).work(1).cs(l2, 2 + i % 2);
    }
    b.on(a).exit();
    b.on(c).exit();
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

/// Every cut, every single-byte flip, and splices dropping 1, 4 or 17
/// bytes at every fifth offset.
fn damage(clean: &[u8]) -> [(&'static str, Vec<Vec<u8>>); 3] {
    let cuts = (0..=clean.len()).map(|at| clean[..at].to_vec()).collect();
    let flips = (0..clean.len())
        .map(|at| {
            let mut out = clean.to_vec();
            out[at] ^= FLIP_MASK;
            out
        })
        .collect();
    let mut splices = Vec::new();
    for at in (0..clean.len()).step_by(5) {
        for drop in [1, 4, 17] {
            let mut out = clean.to_vec();
            out.drain(at..(at + drop).min(clean.len()));
            splices.push(out);
        }
    }
    [("cut", cuts), ("flip", flips), ("splice", splices)]
}

fn budgets() -> [(&'static str, Budget); 5] {
    [
        ("unlimited", Budget::unlimited()),
        ("events4", Budget::unlimited().with_max_events(4)),
        ("threads1", Budget::unlimited().with_max_threads(1)),
        ("bytes200", Budget::unlimited().with_max_bytes(200)),
        ("expired", Budget::unlimited().with_deadline_in(Duration::ZERO)),
    ]
}

fn digest_lines() -> String {
    let mut lines = String::new();
    for (name, trace) in [("mixed", mixed()), ("pair", pair())] {
        for version in 1..=3u64 {
            let mut clean = Vec::new();
            write_trace_with_version(&trace, version, &mut clean).unwrap();
            for (kind, inputs) in damage(&clean) {
                for (budget_name, budget) in budgets() {
                    let (mut ok, mut err) = (0, 0);
                    let mut digest = Fnv::new();
                    for input in &inputs {
                        match read_trace_bytes_salvage(input, &budget) {
                            Ok(recovered) => {
                                ok += 1;
                                digest.feed(&format!("{recovered:?}"));
                            }
                            Err(e) => {
                                err += 1;
                                digest.feed(&format!("error: {e}"));
                            }
                        }
                    }
                    writeln!(
                        lines,
                        "{name} v{version} {kind} {budget_name}: ok {ok} err {err} {:016x}",
                        digest.0
                    )
                    .unwrap();
                }
            }
        }
    }
    lines
}

#[test]
fn salvage_outputs_match_pinned_digests() {
    let actual = digest_lines();
    let mismatched: Vec<_> = EXPECTED
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        mismatched.is_empty() && EXPECTED.lines().count() == actual.lines().count(),
        "salvage outputs changed:\n{}\nfull output:\n{actual}",
        mismatched.join("\n")
    );
}
