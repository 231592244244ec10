//! Figs. 5–7 — the micro-benchmark: identification table, optimization
//! validation and execution Gantt.

use crate::{pct, Artifact, Table};
use critlock_analysis::cp::critical_path_segmented;
use critlock_analysis::gantt::{render as gantt, GanttOptions};
use critlock_analysis::{analyze, SegmentedTrace};
use critlock_workloads::{micro, WorkloadCfg};
use std::fmt::Write as _;

fn cfg4() -> WorkloadCfg {
    WorkloadCfg::with_threads(4)
}

/// Fig. 6: CP Time vs Wait Time for L1/L2 plus measured speedups after
/// equal-effort optimization of each lock.
pub fn generate_fig6() -> Artifact {
    let base = micro::run(&cfg4()).expect("micro runs");
    let rep = analyze(&base);
    let opt1 = micro::run_l1_optimized(&cfg4()).expect("micro l1-opt runs");
    let opt2 = micro::run_l2_optimized(&cfg4()).expect("micro l2-opt runs");
    let s1 = base.makespan() as f64 / opt1.makespan() as f64;
    let s2 = base.makespan() as f64 / opt2.makespan() as f64;

    let mut t = Table::new(&[
        "Lock",
        "CP Time % (TYPE 1)",
        "Wait Time % (TYPE 2)",
        "Speedup after optimization",
        "paper",
    ]);
    for (name, speedup, paper) in
        [("L1", s1, "16.67% / 36.53% / 1.26"), ("L2", s2, "83.33% / 9.02% / 1.37")]
    {
        let l = rep.lock_by_name(name).expect("lock present");
        t.row(vec![
            name.to_string(),
            pct(l.cp_time_frac),
            pct(l.avg_wait_frac),
            format!("{speedup:.3}x"),
            paper.to_string(),
        ]);
    }

    let mut body = t.render();
    let _ = writeln!(body);
    let _ = writeln!(
        body,
        "CP-time ranks L2 first; wait-time ranks L1 first; the measured \
         speedups confirm L2 is the better target (paper's conclusion)."
    );
    let _ = writeln!(
        body,
        "makespans: base {}, L1-optimized {}, L2-optimized {}",
        base.makespan(),
        opt1.makespan(),
        opt2.makespan()
    );

    Artifact {
        id: "fig6",
        title: "micro-benchmark: the two methods disagree, CP-time is right".into(),
        body,
    }
}

/// Fig. 7: the micro-benchmark execution rendered as a Gantt chart.
pub fn generate_fig7() -> Artifact {
    let trace = micro::run(&cfg4()).expect("micro runs");
    let st = SegmentedTrace::build(&trace);
    let cp = critical_path_segmented(&trace, &st);
    let mut body = gantt(&trace, &st, &cp, &GanttOptions { width: 72, show_cp: true });
    let _ = writeln!(
        body,
        "\nL1's idleness is overlapped by the critical path, which CS2 \
         (under L2) dominates — the paper's Fig. 7 observation."
    );
    Artifact { id: "fig7", title: "micro-benchmark execution and critical path".into(), body }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shape_assertions() {
        let base = micro::run(&cfg4()).unwrap();
        let rep = analyze(&base);
        let l1 = rep.lock_by_name("L1").unwrap();
        let l2 = rep.lock_by_name("L2").unwrap();
        // Exact idealized-machine values.
        assert!((l1.cp_time_frac - 1.0 / 6.0).abs() < 1e-9);
        assert!((l2.cp_time_frac - 5.0 / 6.0).abs() < 1e-9);
        assert!(l1.avg_wait_frac > l2.avg_wait_frac);

        let s1 =
            base.makespan() as f64 / micro::run_l1_optimized(&cfg4()).unwrap().makespan() as f64;
        let s2 =
            base.makespan() as f64 / micro::run_l2_optimized(&cfg4()).unwrap().makespan() as f64;
        assert!(s2 > s1, "L2 wins: {s1:.3} vs {s2:.3}");
        // Idealized machine: 12/11 and 12/9.5.
        assert!((s1 - 12.0 / 11.0).abs() < 1e-6);
        assert!((s2 - 12.0 / 9.5).abs() < 1e-6);
    }

    #[test]
    fn artifacts_render() {
        assert!(generate_fig6().render().contains("Speedup"));
        assert!(generate_fig7().render().contains("cp |"));
    }
}
