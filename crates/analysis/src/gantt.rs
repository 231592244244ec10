//! ASCII Gantt rendering of an execution and its critical path — the
//! textual equivalent of the paper's Figs. 1 and 7.
//!
//! Each thread gets two rows: an *activity* row (`-` running outside any
//! critical section, a per-lock letter while holding a lock, `.` blocked /
//! not yet started / exited) and a *critical path* row marking with `=`
//! the instants where that thread carries the critical path.

use crate::cp::CriticalPath;
use crate::segments::SegmentedTrace;
use critlock_trace::{LockEpisode, ObjKind, Trace, Ts};
use std::fmt::Write as _;

/// Options for the Gantt renderer.
#[derive(Debug, Clone)]
pub struct GanttOptions {
    /// Number of character columns the timeline is scaled to.
    pub width: usize,
    /// Also render the per-thread critical-path rows.
    pub show_cp: bool,
}

impl Default for GanttOptions {
    fn default() -> Self {
        GanttOptions { width: 80, show_cp: true }
    }
}

/// Letter assigned to the `i`-th lock (a..z then A..Z, then '#').
fn lock_letter(i: usize) -> char {
    const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const UPPER: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    if i < 26 {
        LOWER[i] as char
    } else if i < 52 {
        UPPER[i - 26] as char
    } else {
        '#'
    }
}

/// Render the execution as an ASCII Gantt chart from the segmented trace
/// its critical path was walked on.
pub fn render(
    trace: &Trace,
    st: &SegmentedTrace,
    cp: &CriticalPath,
    opts: &GanttOptions,
) -> String {
    let width = opts.width.max(10);
    let t0 = trace.start_ts();
    let t1 = trace.end_ts();
    let span = (t1 - t0).max(1);
    let col_of = |ts: Ts| -> usize {
        (((ts - t0) as u128 * width as u128) / span as u128).min(width as u128 - 1) as usize
    };

    let mut locks = trace.objects_of_kind(ObjKind::Lock);
    locks.extend(trace.objects_of_kind(ObjKind::RwLock));

    let mut out = String::new();
    let _ = writeln!(out, "time {t0}..{t1} ({span} units), 1 col ~ {} units", span / width as Ts);
    for (i, l) in locks.iter().enumerate() {
        let _ = writeln!(out, "  {} = {}", lock_letter(i), trace.object_name(*l));
    }

    let name_w = trace
        .threads
        .iter()
        .map(|s| s.name.as_deref().unwrap_or("").len().max(s.tid.to_string().len()))
        .max()
        .unwrap_or(2)
        .max(2);

    for stream in &trace.threads {
        let tid = stream.tid;
        let mut row = vec!['.'; width];

        // Running intervals.
        for seg in st.thread(tid) {
            if seg.duration() == 0 {
                continue;
            }
            let (a, b) = (col_of(seg.start), col_of(seg.end.saturating_sub(1)));
            for c in row.iter_mut().take(b + 1).skip(a) {
                *c = '-';
            }
        }
        // Critical sections overlay, locks then rwlocks; later (inner)
        // episodes win.
        let (lock_eps, rw_eps) = st.invocations(tid);
        for ep in lock_eps.iter().copied().chain(rw_eps.iter().map(|&e| LockEpisode::from(e))) {
            if ep.hold_time() == 0 {
                continue;
            }
            let letter = locks.iter().position(|l| *l == ep.lock).map(lock_letter).unwrap_or('?');
            let (a, b) = (col_of(ep.obtain), col_of(ep.release.saturating_sub(1)));
            for c in row.iter_mut().take(b + 1).skip(a) {
                *c = letter;
            }
        }

        let name = stream.name.clone().unwrap_or_else(|| tid.to_string());
        let _ = writeln!(out, "{name:>name_w$} |{}|", row.iter().collect::<String>());

        if opts.show_cp {
            let mut cp_row = vec![' '; width];
            for s in cp.slices.iter().filter(|s| s.tid == tid) {
                if s.duration() == 0 {
                    continue;
                }
                let (a, b) = (col_of(s.start), col_of(s.end.saturating_sub(1)));
                for c in cp_row.iter_mut().take(b + 1).skip(a) {
                    *c = '=';
                }
            }
            let _ = writeln!(out, "{:>name_w$} |{}|", "cp", cp_row.iter().collect::<String>());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::critical_path_segmented;
    use critlock_trace::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("gantt");
        let l1 = b.lock("L1");
        let l2 = b.lock("L2");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).cs(l1, 10).cs(l2, 20).exit_at(40);
        b.on(t1).work(2).cs_blocked(l1, 10, 10).work(25).exit(); // exit 45
        b.build().unwrap()
    }

    #[test]
    fn render_has_all_thread_rows() {
        let t = sample();
        let st = SegmentedTrace::build(&t);
        let cp = critical_path_segmented(&t, &st);
        let s = render(&t, &st, &cp, &GanttOptions::default());
        assert!(s.contains("T0 |"));
        assert!(s.contains("T1 |"));
        assert!(s.contains("cp |"));
        assert!(s.contains("a = L1"));
        assert!(s.contains("b = L2"));
    }

    #[test]
    fn activity_letters_present() {
        let t = sample();
        let st = SegmentedTrace::build(&t);
        let cp = critical_path_segmented(&t, &st);
        let s = render(&t, &st, &cp, &GanttOptions { width: 45, show_cp: true });
        let t0_row = s.lines().find(|l| l.starts_with("T0 ")).unwrap();
        assert!(t0_row.contains('a'));
        assert!(t0_row.contains('b'));
        let t1_row = s.lines().find(|l| l.starts_with("T1 ")).unwrap();
        assert!(t1_row.contains('a'));
        assert!(t1_row.contains('.')); // blocked gap
    }

    #[test]
    fn cp_rows_cover_whole_span() {
        let t = sample();
        let st = SegmentedTrace::build(&t);
        let cp = critical_path_segmented(&t, &st);
        let s = render(&t, &st, &cp, &GanttOptions { width: 45, show_cp: true });
        // Union of '=' across cp rows should be most of the width (the CP
        // tiles the makespan).
        let mut covered = [false; 45];
        for line in s.lines().filter(|l| l.trim_start().starts_with("cp |")) {
            let inner = line.split('|').nth(1).unwrap();
            for (i, ch) in inner.chars().enumerate() {
                if ch == '=' {
                    covered[i] = true;
                }
            }
        }
        let count = covered.iter().filter(|&&c| c).count();
        assert!(count >= 43, "cp coverage {count}/45");
    }

    #[test]
    fn no_cp_option() {
        let t = sample();
        let st = SegmentedTrace::build(&t);
        let cp = critical_path_segmented(&t, &st);
        let s = render(&t, &st, &cp, &GanttOptions { width: 40, show_cp: false });
        assert!(!s.contains("cp |"));
    }

    #[test]
    fn lock_letter_ranges() {
        assert_eq!(lock_letter(0), 'a');
        assert_eq!(lock_letter(25), 'z');
        assert_eq!(lock_letter(26), 'A');
        assert_eq!(lock_letter(51), 'Z');
        assert_eq!(lock_letter(52), '#');
    }
}
