//! Who-blocks-whom analysis.
//!
//! For every contended lock invocation the enabling releaser is resolved
//! (the same "thread holding the same lock adjacently before the blocked
//! thread" rule the critical-path walk uses, §IV.B), giving a blocking
//! edge `blocked thread ← holder`. Aggregated, these edges show *which
//! threads serialize which others and through which locks* — the
//! lock-convoy view that complements the critical-path ranking when
//! deciding how to restructure the code.

use crate::segments::{Hints, SegmentedTrace};
use critlock_trace::{LockEpisode, ObjId, ThreadId, Trace, Ts};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Aggregated blocking between one pair of threads through one lock.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockingEdge {
    /// The thread that waited.
    pub blocked: ThreadId,
    /// The thread that held the lock it waited for.
    pub holder: ThreadId,
    /// The lock.
    pub lock: ObjId,
    /// Its name.
    pub lock_name: String,
    /// Number of blocked invocations.
    pub count: u64,
    /// Total time `blocked` spent waiting on these invocations.
    pub wait_time: Ts,
}

/// The blocking structure of an execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockerReport {
    /// Edges sorted by total wait time, descending.
    pub edges: Vec<BlockingEdge>,
    /// Total blocked time across all edges.
    pub total_wait: Ts,
}

impl BlockerReport {
    /// The thread whose critical sections caused the most waiting in
    /// others — the prime suspect for a lock convoy.
    pub fn top_blocker(&self) -> Option<ThreadId> {
        let mut per_holder: HashMap<ThreadId, Ts> = HashMap::new();
        for e in &self.edges {
            *per_holder.entry(e.holder).or_insert(0) += e.wait_time;
        }
        per_holder.into_iter().max_by_key(|&(t, w)| (w, std::cmp::Reverse(t.0))).map(|(t, _)| t)
    }

    /// Total wait time attributed to one lock.
    pub fn wait_on_lock(&self, name: &str) -> Ts {
        self.edges.iter().filter(|e| e.lock_name == name).map(|e| e.wait_time).sum()
    }

    /// Render as an aligned text table (top `n` edges).
    pub fn render_text(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "blocking edges (blocked <- holder via lock), top {n}:");
        let _ = writeln!(
            out,
            "{:<8} {:<8} {:<24} {:>8} {:>12}",
            "blocked", "holder", "lock", "count", "wait"
        );
        for e in self.edges.iter().take(n) {
            let _ = writeln!(
                out,
                "{:<8} {:<8} {:<24} {:>8} {:>12}",
                e.blocked.to_string(),
                e.holder.to_string(),
                e.lock_name,
                e.count,
                e.wait_time
            );
        }
        if self.edges.is_empty() {
            let _ = writeln!(out, "(no contention recorded)");
        }
        out
    }
}

/// Build the blocking report of a trace.
pub fn blocker_report(trace: &Trace) -> BlockerReport {
    let st = SegmentedTrace::build(trace);
    let mut acc: HashMap<(ThreadId, ThreadId, ObjId), (u64, Ts)> = HashMap::new();
    let mut releases = Hints::new(trace.objects.len());

    let mut add = |blocked: ThreadId, lock: ObjId, obtain: Ts, wait: Ts| {
        let hint = releases.row(lock.index());
        if let Some((_, holder)) = st.latest_release_from(lock, obtain, blocked, hint) {
            let e = acc.entry((blocked, holder, lock)).or_insert((0, 0));
            e.0 += 1;
            e.1 += wait;
        }
    };

    for (locks, rws) in st.iter_invocations() {
        for ep in locks.iter().copied().chain(rws.iter().map(|&e| LockEpisode::from(e))) {
            if ep.contended {
                add(ep.tid, ep.lock, ep.obtain, ep.wait_time());
            }
        }
    }

    let mut edges: Vec<BlockingEdge> = acc
        .into_iter()
        .map(|((blocked, holder, lock), (count, wait_time))| BlockingEdge {
            blocked,
            holder,
            lock,
            lock_name: trace.object_name(lock),
            count,
            wait_time,
        })
        .collect();
    edges.sort_by(|a, b| {
        b.wait_time
            .cmp(&a.wait_time)
            .then_with(|| (a.blocked, a.holder, a.lock).cmp(&(b.blocked, b.holder, b.lock)))
    });
    let total_wait = edges.iter().map(|e| e.wait_time).sum();
    BlockerReport { edges, total_wait }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critlock_trace::TraceBuilder;

    #[test]
    fn resolves_blocking_pairs() {
        let mut b = TraceBuilder::new("blockers");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        let t2 = b.thread("T2", 0);
        b.on(t0).cs(l, 10).exit_at(30);
        b.on(t1).work(1).cs_blocked(l, 10, 5).exit_at(30); // waited 9 on T0
        b.on(t2).work(2).cs_blocked(l, 15, 5).exit_at(30); // waited 13 on T1
        let t = b.build().unwrap();
        let rep = blocker_report(&t);
        assert_eq!(rep.edges.len(), 2);
        assert_eq!(rep.total_wait, 9 + 13);
        // Largest wait first: T2 <- T1.
        assert_eq!(rep.edges[0].blocked, critlock_trace::ThreadId(2));
        assert_eq!(rep.edges[0].holder, critlock_trace::ThreadId(1));
        assert_eq!(rep.edges[0].wait_time, 13);
        assert_eq!(rep.edges[1].holder, critlock_trace::ThreadId(0));
        assert_eq!(rep.wait_on_lock("L"), 22);
        assert!(rep.render_text(5).contains("T2"));
    }

    #[test]
    fn top_blocker_is_biggest_wait_causer() {
        let mut b = TraceBuilder::new("top");
        let l1 = b.lock("L1");
        let l2 = b.lock("L2");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        let t2 = b.thread("T2", 0);
        b.on(t0).cs(l1, 20).exit_at(60);
        b.on(t1).cs(l2, 5).work(5).cs_blocked(l1, 20, 5).exit_at(60); // waits 10 on T0
        b.on(t2).work(1).cs_blocked(l2, 5, 3).exit_at(60); // waits 4 on T1
        let t = b.build().unwrap();
        let rep = blocker_report(&t);
        assert_eq!(rep.top_blocker(), Some(critlock_trace::ThreadId(0)));
    }

    #[test]
    fn rw_contention_included() {
        let mut b = TraceBuilder::new("rwb");
        let r = b.rwlock("R");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).rw(r, true, 10).exit_at(20);
        b.on(t1).work(1).rw_blocked(r, false, 10, 2).exit_at(20);
        let t = b.build().unwrap();
        let rep = blocker_report(&t);
        assert_eq!(rep.edges.len(), 1);
        assert_eq!(rep.edges[0].wait_time, 9);
        assert_eq!(rep.edges[0].lock_name, "R");
    }

    #[test]
    fn empty_when_uncontended() {
        let mut b = TraceBuilder::new("quiet");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        b.on(t0).cs(l, 5).exit();
        let t = b.build().unwrap();
        let rep = blocker_report(&t);
        assert!(rep.edges.is_empty());
        assert_eq!(rep.total_wait, 0);
        assert!(rep.top_blocker().is_none());
        assert!(rep.render_text(3).contains("no contention"));
    }
}
