//! Fig. 1 — the paper's illustrative execution, analyzed exactly.

use crate::{pct, Artifact, Table};
use critlock_analysis::cp::critical_path_segmented;
use critlock_analysis::gantt::{render as gantt, GanttOptions};
use critlock_analysis::{analyze, SegmentedTrace};
use critlock_workloads::fig1_trace;
use std::fmt::Write as _;

/// Generate the Fig. 1 artifact.
pub fn generate() -> Artifact {
    let trace = fig1_trace();
    let st = SegmentedTrace::build(&trace);
    let cp = critical_path_segmented(&trace, &st);
    let rep = analyze(&trace);

    let mut body = String::new();
    let _ = writeln!(
        body,
        "hand-encoded 4-thread execution; makespan {}, critical path {} ({} complete)",
        trace.makespan(),
        cp.length,
        cp.complete
    );
    let _ = writeln!(body);
    body.push_str(&gantt(&trace, &st, &cp, &GanttOptions { width: 66, show_cp: true }));
    let _ = writeln!(body);

    let mut t =
        Table::new(&["Lock", "CP Time %", "Invo# on CP", "Cont.Prob on CP %", "paper says"]);
    for l in &rep.locks {
        let paper = match l.name.as_str() {
            "L1" => "3.03%, 1 invocation, 0% contention",
            "L2" => "36.36%, 4 invocations, 75% contention",
            "L3" => "critical despite zero contention",
            "L4" => "longest idle time, yet OFF the path",
            _ => "",
        };
        t.row(vec![
            l.name.clone(),
            pct(l.cp_time_frac),
            l.invocations_on_cp.to_string(),
            pct(l.cont_prob_on_cp),
            paper.to_string(),
        ]);
    }
    body.push_str(&t.render());

    Artifact { id: "fig1", title: "illustrative execution and its critical path".into(), body }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critlock_analysis::analyze;
    use critlock_workloads::fig1_trace;

    /// Pin the paper's exact Fig. 1 numbers.
    #[test]
    fn fig1_matches_paper_exactly() {
        let trace = fig1_trace();
        let rep = analyze(&trace);
        assert_eq!(rep.makespan, 33);
        assert_eq!(rep.cp_length, 33);

        let l1 = rep.lock_by_name("L1").unwrap();
        assert_eq!(l1.cp_time, 1);
        assert!((l1.cp_time_frac - 1.0 / 33.0).abs() < 1e-9); // 3.03%
        assert_eq!(l1.invocations_on_cp, 1);
        assert_eq!(l1.cont_prob_on_cp, 0.0);

        let l2 = rep.lock_by_name("L2").unwrap();
        assert_eq!(l2.cp_time, 12);
        assert!((l2.cp_time_frac - 12.0 / 33.0).abs() < 1e-9); // 36.36%
        assert_eq!(l2.invocations_on_cp, 4);
        assert!((l2.cont_prob_on_cp - 0.75).abs() < 1e-9);

        // L3: uncontended but critical (5 units on the path).
        let l3 = rep.lock_by_name("L3").unwrap();
        assert_eq!(l3.cp_time, 5);
        assert_eq!(l3.cont_prob_on_cp, 0.0);

        // L4: heavily waited, zero CP time — a normal lock.
        let l4 = rep.lock_by_name("L4").unwrap();
        assert_eq!(l4.cp_time, 0);
        assert_eq!(l4.invocations_on_cp, 0);
        assert!(l4.total_wait >= 10, "L4 must carry the longest idle time");

        // Six hot critical sections in total.
        let hot: u64 = rep.locks.iter().map(|l| l.invocations_on_cp).sum();
        assert_eq!(hot, 6);
    }

    #[test]
    fn artifact_renders() {
        let a = generate();
        assert!(a.render().contains("36.36%"));
        assert!(a.body.contains("L4"));
    }
}
