//! Observability integration tests: the metrics endpoint end-to-end, the
//! frame conservation law under deterministic transport faults (a
//! property test over trace shape and fault plan), and proof that metrics
//! collection never perturbs the analysis — the live snapshot still
//! equals the offline `analyze` exactly with every counter hot.

use critlock_analysis::analyze;
use critlock_collector::{
    fetch_metrics_text, push_with, start, Addr, CollectorConfig, CollectorHandle, CollectorStatus,
    PushOptions,
};
use critlock_trace::{FaultPlan, RetryPolicy, Trace, TraceBuilder};
use proptest::prelude::*;
use std::time::Duration;

fn test_config() -> CollectorConfig {
    let mut config = CollectorConfig::new(Addr::parse("127.0.0.1:0").unwrap());
    config.status_addr = Some(Addr::parse("127.0.0.1:0").unwrap());
    config.metrics_addr = Some(Addr::parse("127.0.0.1:0").unwrap());
    config
}

#[track_caller]
fn wait_for(handle: &CollectorHandle, what: &str, pred: impl Fn(&CollectorStatus) -> bool) {
    assert!(handle.wait_until(Duration::from_secs(30), pred), "timeout waiting for {what}");
}

/// A two-thread contended trace whose wire size scales with `reps`, so
/// the built-in fault plans' byte offsets actually fire.
fn chunky_trace(reps: usize) -> Trace {
    let mut b = TraceBuilder::new("obs");
    let hot = b.lock("hot");
    let t0 = b.thread("main", 0);
    let t1 = b.thread("worker", 0);
    for _ in 0..reps {
        b.on(t0).work(1).cs(hot, 2);
    }
    b.on(t0).exit();
    b.on(t1).work(3);
    for _ in 0..reps {
        b.on(t1).cs(hot, 2).work(1);
    }
    b.on(t1).exit();
    b.build().unwrap()
}

/// The frame conservation law: every frame counted in must be accounted
/// to exactly one fate (assembled, replay-skipped, gap-rejected,
/// quota-dropped or queue-dropped).
#[track_caller]
fn assert_conservation(handle: &CollectorHandle, context: &str) {
    let snap = handle.metrics_snapshot();
    let c = |name: &str| {
        snap.counter(name).unwrap_or_else(|| panic!("{context}: missing counter {name}"))
    };
    let frames_in = c("critlock_frames_in_total");
    let fates = c("critlock_frames_assembled_total")
        + c("critlock_frames_replayed_total")
        + c("critlock_frames_gap_rejected_total")
        + c("critlock_frames_quota_dropped_total")
        + c("critlock_frames_queue_dropped_total");
    assert_eq!(frames_in, fates, "{context}: frame conservation violated");
}

/// The tentpole's inertness criterion, live: with the metrics endpoint
/// enabled and every counter hot, the collector's snapshot still equals
/// the offline `analyze` exactly, and the scrape exposes the traffic.
#[test]
fn live_snapshot_matches_offline_analyze_with_metrics_enabled() {
    let trace = chunky_trace(300);
    let offline = analyze(&trace);
    let handle = start(test_config()).unwrap();

    let opts = PushOptions { timeout: Some(Duration::from_secs(10)), ..PushOptions::default() };
    let sent = push_with(handle.ingest_addr(), &trace, &opts).unwrap();
    assert!(sent > 0);

    // Regression (satellite 3): an effectively-unbounded wait must mean
    // "no deadline", not an `Instant + Duration` overflow panic.
    assert!(handle.wait_until(Duration::MAX, |s| s.sessions.first().is_some_and(|snap| snap.ended)));
    assert_eq!(handle.status().sessions[0].report, offline, "metrics must not perturb analysis");

    // Scrape over the socket, as `critlock metrics <addr>` would.
    let text =
        fetch_metrics_text(handle.metrics_addr().unwrap(), Some(Duration::from_secs(10))).unwrap();
    assert!(text.contains("# TYPE critlock_frames_in_total counter"), "scrape:\n{text}");
    assert!(text.contains("critlock_snapshot_refresh_ns_bucket"), "scrape:\n{text}");

    let snap = handle.metrics_snapshot();
    // The refreshes behind the status request say where their time went.
    for stage in ["repair", "analyze"] {
        let labels = format!("{{stage=\"{stage}\"}}");
        let h = snap
            .histogram(&format!("critlock_snapshot_stage_ns{labels}"))
            .unwrap_or_else(|| panic!("missing stage {stage}"));
        assert!(h.count > 0, "stage {stage} never observed");
        assert!(
            text.contains(&format!("critlock_snapshot_stage_ns_count{labels}")),
            "scrape:\n{text}"
        );
    }
    assert!(snap.counter("critlock_frames_in_total").unwrap() > 0);
    assert!(snap.counter("critlock_frames_assembled_total").unwrap() > 0);
    assert!(snap.counter("critlock_bytes_in_total").unwrap() > 0);
    assert!(snap.counter("critlock_events_in_total").unwrap() > 0);
    assert_eq!(snap.counter("critlock_sessions_started_total"), Some(1));
    assert_conservation(&handle, "clean push");

    // Two scrapes with no traffic in between render identical text:
    // deterministic exposition order.
    let a = handle.metrics_text();
    let b = handle.metrics_text();
    assert_eq!(a, b);
    handle.shutdown();
}

/// `metrics_snapshot` refreshes the scrape-time gauges itself, without
/// rendering the exposition: read first, before any scrape, its gauges
/// equal the ones the text then shows.
#[test]
fn metrics_snapshot_gauges_match_the_scrape_text() {
    let handle = start(test_config()).unwrap();
    push_with(handle.ingest_addr(), &chunky_trace(300), &PushOptions::default()).unwrap();
    wait_for(&handle, "session to end", |s| s.sessions.first().is_some_and(|x| x.ended));

    let snap = handle.metrics_snapshot();
    let text = handle.metrics_text();
    assert_eq!(snap.gauge("critlock_sessions_active"), Some(1));
    assert!(snap.gauge("critlock_queue_high_water").unwrap() > 0);
    assert!(!snap.gauges.is_empty());
    for gauge in &snap.gauges {
        let prefix = format!("{} ", gauge.name);
        let line = text
            .lines()
            .find(|line| line.starts_with(&prefix))
            .unwrap_or_else(|| panic!("gauge {} missing from the scrape:\n{text}", gauge.name));
        assert_eq!(line[prefix.len()..].parse::<u64>().ok(), Some(gauge.value), "{line}");
    }
    handle.shutdown();
}

/// Conservation must survive every deterministic transport fault: cut
/// connections, truncated frames, bit flips (CRC failures), stalls.
/// Replayed frames inflate `frames_in` but land in the replay fate;
/// corrupt frames are counted separately and never enter the law.
#[test]
fn conservation_holds_under_every_builtin_fault_plan() {
    let trace = chunky_trace(300);
    let offline = analyze(&trace);
    for plan in FaultPlan::all_builtin() {
        let name = plan.name.clone();
        let mut config = test_config();
        config.idle_timeout = Some(Duration::from_millis(200));
        let handle = start(config).unwrap();

        let opts = PushOptions {
            timeout: Some(Duration::from_secs(10)),
            retry: RetryPolicy::with_attempts(8),
            fault_plan: Some(plan),
            ..PushOptions::default()
        };
        push_with(handle.ingest_addr(), &trace, &opts)
            .unwrap_or_else(|e| panic!("plan `{name}`: push failed: {e}"));
        wait_for(&handle, "session to end", |s| s.sessions.first().is_some_and(|x| x.ended));

        assert_conservation(&handle, &format!("plan `{name}`"));
        assert_eq!(handle.status().sessions[0].report, offline, "plan `{name}`");
        handle.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The conservation law is shape-independent: whatever the trace size
    /// and whichever built-in fault plan mangles the transport, the
    /// counters balance once the session ends.
    #[test]
    fn conservation_is_invariant_over_trace_shape_and_fault_plan(
        reps in 20usize..240,
        plan_idx in 0usize..FaultPlan::all_builtin().len(),
    ) {
        let trace = chunky_trace(reps);
        let plan = FaultPlan::all_builtin().swap_remove(plan_idx);
        let name = plan.name.clone();
        let mut config = test_config();
        config.idle_timeout = Some(Duration::from_millis(200));
        let handle = start(config).unwrap();

        let opts = PushOptions {
            timeout: Some(Duration::from_secs(10)),
            retry: RetryPolicy::with_attempts(8),
            fault_plan: Some(plan),
            ..PushOptions::default()
        };
        // Small traces may legitimately fail under aggressive plans (the
        // whole wire fits before the fault offset resets); conservation
        // must hold either way.
        let pushed = push_with(handle.ingest_addr(), &trace, &opts).is_ok();
        if pushed {
            wait_for(&handle, "session to end", |s| {
                s.sessions.first().is_some_and(|x| x.ended)
            });
        }
        // Let any in-flight reader thread finish accounting.
        let _ = handle.wait_until(Duration::from_millis(200), |_| false);
        assert_conservation(&handle, &format!("plan `{name}` reps {reps}"));
        handle.shutdown();
    }
}
