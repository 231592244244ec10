//! Per-thread criticality.
//!
//! The paper's related work points at thread-criticality predictors
//! (Bhattacharjee & Martonosi) as consumers of this kind of information:
//! how much of the critical path each thread carries. The same
//! quantities also answer a practical tuning question — is one thread the
//! bottleneck (pipeline imbalance), or does the path hop between threads
//! (shared-resource contention)?

use crate::cp::CriticalPath;
use crate::segments::SegmentedTrace;
use critlock_trace::{ThreadId, Trace, Ts};
use serde::{Deserialize, Serialize};

/// Criticality of one thread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadCriticality {
    /// The thread.
    pub tid: ThreadId,
    /// Its name, if recorded.
    pub name: Option<String>,
    /// Time this thread carries the critical path.
    pub cp_time: Ts,
    /// `cp_time` as a fraction of the critical-path length.
    pub cp_frac: f64,
    /// Number of distinct critical-path slices on this thread (how often
    /// the path enters it).
    pub slices: usize,
    /// Total running (non-blocked) time of the thread.
    pub busy: Ts,
    /// `busy / lifetime`.
    pub busy_frac: f64,
}

/// Per-thread criticality report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadReport {
    /// One row per thread, sorted by `cp_time` descending.
    pub threads: Vec<ThreadCriticality>,
    /// Number of distinct threads that carry any of the critical path.
    pub carriers: usize,
}

impl ThreadReport {
    /// The most critical thread.
    pub fn top(&self) -> Option<&ThreadCriticality> {
        self.threads.first().filter(|t| t.cp_time > 0)
    }

    /// Render as an aligned text table.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>8} {:>7} {:>8}",
            "thread", "cp time", "cp %", "slices", "busy %"
        );
        for t in &self.threads {
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>7.2}% {:>7} {:>7.2}%",
                t.name.clone().unwrap_or_else(|| t.tid.to_string()),
                t.cp_time,
                t.cp_frac * 100.0,
                t.slices,
                t.busy_frac * 100.0,
            );
        }
        out
    }
}

/// Compute per-thread criticality for a trace and its critical path,
/// from the segmented trace the path was walked on.
pub fn thread_report(trace: &Trace, st: &SegmentedTrace, cp: &CriticalPath) -> ThreadReport {
    let mut threads: Vec<ThreadCriticality> = trace
        .threads
        .iter()
        .map(|stream| {
            let tid = stream.tid;
            let slices: Vec<_> = cp.slices.iter().filter(|s| s.tid == tid).collect();
            let cp_time: Ts = slices.iter().map(|s| s.duration()).sum();
            let busy: Ts = st.thread(tid).iter().map(|s| s.duration()).sum();
            let lifetime =
                stream.end_ts().unwrap_or(0).saturating_sub(stream.start_ts().unwrap_or(0));
            ThreadCriticality {
                tid,
                name: stream.name.clone(),
                cp_time,
                cp_frac: if cp.length > 0 { cp_time as f64 / cp.length as f64 } else { 0.0 },
                slices: slices.len(),
                busy,
                busy_frac: if lifetime > 0 { busy as f64 / lifetime as f64 } else { 0.0 },
            }
        })
        .collect();

    let carriers = threads.iter().filter(|t| t.cp_time > 0).count();
    threads.sort_by(|a, b| b.cp_time.cmp(&a.cp_time).then_with(|| a.tid.cmp(&b.tid)));
    ThreadReport { threads, carriers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::critical_path_segmented;
    use critlock_trace::TraceBuilder;

    #[test]
    fn per_thread_cp_shares_sum_to_one() {
        let mut b = TraceBuilder::new("threads");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).cs(l, 4).exit_at(5);
        b.on(t1).work(1).cs_blocked(l, 4, 2).work(3).exit(); // exit 9
        let t = b.build().unwrap();
        let st = SegmentedTrace::build(&t);
        let cp = critical_path_segmented(&t, &st);
        let rep = thread_report(&t, &st, &cp);
        let total: u64 = rep.threads.iter().map(|t| t.cp_time).sum();
        assert_eq!(total, cp.length);
        assert_eq!(rep.carriers, 2);
        // T1 carries [4,9] = 5, T0 carries [0,4] = 4.
        assert_eq!(rep.top().unwrap().tid, critlock_trace::ThreadId(1));
        assert_eq!(rep.top().unwrap().cp_time, 5);
        assert!(rep.render_text().contains("T0"));
    }

    #[test]
    fn laggard_carries_everything_in_imbalanced_run() {
        let mut b = TraceBuilder::new("imbalance");
        let t0 = b.thread("short", 0);
        let t1 = b.thread("long", 0);
        b.on(t0).work(5).exit();
        b.on(t1).work(50).exit();
        let t = b.build().unwrap();
        let st = SegmentedTrace::build(&t);
        let cp = critical_path_segmented(&t, &st);
        let rep = thread_report(&t, &st, &cp);
        assert_eq!(rep.carriers, 1);
        let top = rep.top().unwrap();
        assert_eq!(top.name.as_deref(), Some("long"));
        assert!((top.cp_frac - 1.0).abs() < 1e-9);
        // The short thread is fully busy yet carries nothing: criticality
        // and utilization are different questions.
        let short = rep.threads.iter().find(|t| t.name.as_deref() == Some("short")).unwrap();
        assert_eq!(short.cp_time, 0);
        assert!((short.busy_frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn busy_excludes_blocked_time() {
        let mut b = TraceBuilder::new("busy");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).cs(l, 10).exit_at(10);
        b.on(t1).cs_blocked(l, 10, 2).exit(); // blocked [0,10], runs [10,12]
        let t = b.build().unwrap();
        let st = SegmentedTrace::build(&t);
        let cp = critical_path_segmented(&t, &st);
        let rep = thread_report(&t, &st, &cp);
        let t1r = rep.threads.iter().find(|t| t.tid == critlock_trace::ThreadId(1)).unwrap();
        assert_eq!(t1r.busy, 2);
        assert!((t1r.busy_frac - 2.0 / 12.0).abs() < 1e-9);
    }
}
