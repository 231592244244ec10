//! Walk through the paper's Fig. 1 example: why idleness-based lock
//! profiling picks the wrong lock, and what the critical-path walk sees
//! instead.
//!
//! ```text
//! cargo run --example fig1_walkthrough
//! ```

use critlock::analysis::cp::critical_path_segmented;
use critlock::analysis::gantt::{render, GanttOptions};
use critlock::analysis::report::{render_text, RenderOptions};
use critlock::analysis::{analyze, rank_targets, rank_targets_by_wait, SegmentedTrace};
use critlock::workloads::fig1_trace;

fn main() {
    let trace = fig1_trace();
    let st = SegmentedTrace::build(&trace);
    let cp = critical_path_segmented(&trace, &st);

    println!("The execution of Fig. 1 (four threads, locks L1..L4):\n");
    println!("{}", render(&trace, &st, &cp, &GanttOptions { width: 66, show_cp: true }));

    let report = analyze(&trace);
    println!("{}", render_text(&report, &RenderOptions::default()));

    println!("What each method would tell you to optimize first:\n");
    let by_cp = rank_targets(&report, 0.5);
    let by_wait = rank_targets_by_wait(&report, 0.5);
    println!("  critical lock analysis : {}", by_cp[0].name);
    println!("  idleness (wait time)   : {}", by_wait[0].name);
    println!();
    println!(
        "L4 has the longest single wait of the whole run — and zero time \
         on the critical path: T3's critical section under L4 is entirely \
         overlapped by T4's tail. Optimizing it cannot change the \
         completion time. Meanwhile L2 (36% of the path, 75% contended \
         along it) and even the never-contended L3 directly gate the end \
         of the run."
    );

    // Show the walk itself.
    println!("\ncritical-path slices (chronological):");
    for s in &cp.slices {
        println!("  {}  [{:>2}, {:>2}]  ({} units)", s.tid, s.start, s.end, s.duration());
    }
    assert_eq!(cp.length, trace.makespan());
}
