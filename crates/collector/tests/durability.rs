//! Durable-storage chaos: the disk-fault matrix. Every fault point the
//! injectable I/O layer can produce — ENOSPC at byte N, a short write
//! tearing a frame, failed fsyncs, failed renames (crash-after-tmp),
//! failed creates — is driven through a live collector with journaling,
//! segment rotation, checkpoints and pruning enabled, followed by an
//! abrupt crash and a clean-disk restart. The invariants under every
//! plan:
//!
//! 1. Ingestion never wedges: all sessions stream to completion and the
//!    live rollup equals the offline union, faults or not.
//! 2. Health degrades, it never goes unhealthy from a disk fault.
//! 3. Whatever recovery reproduces is byte-identical: a fully-journaled
//!    session's digest equals its offline analysis, and a second
//!    crash+restart (now exercising the checkpoints the first recovery
//!    wrote) reproduces the exact same rollup bytes.

use critlock_analysis::{analyze, digest_report};
use critlock_collector::{
    push_with, start, Addr, CollectorConfig, CollectorHandle, CollectorStatus, DiskFaultPlan,
    FaultyIo, HealthClass, PushOptions,
};
use critlock_trace::rollup::Rollup;
use critlock_trace::{Anomaly, RetryPolicy, Trace};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("critlock-dur-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A collector tuned for the matrix: journaling on, tiny segments so
/// rotation happens within a single session, checkpoints every few
/// milliseconds so pruning and tail-replay are exercised, fast
/// snapshots.
fn durable_config(dir: &Path) -> CollectorConfig {
    let mut config = CollectorConfig::new(Addr::parse("127.0.0.1:0").unwrap());
    config.status_addr = Some(Addr::parse("127.0.0.1:0").unwrap());
    config.snapshot_interval = Duration::from_millis(10);
    config.journal_dir = Some(dir.to_path_buf());
    config.journal_segment_bytes = Some(128);
    config.checkpoint_interval = Duration::from_millis(10);
    config
}

#[track_caller]
fn wait_for(handle: &CollectorHandle, what: &str, pred: impl Fn(&CollectorStatus) -> bool) {
    assert!(handle.wait_until(Duration::from_secs(30), pred), "timeout waiting for {what}");
}

/// Three distinct sessions (same shape as the fleet tests) pushed under
/// fixed resume tokens so rollup keys survive restarts.
fn fleet_traces() -> Vec<(Vec<u8>, Trace)> {
    let mut out = Vec::new();
    for (i, (hot_hold, cold_hold)) in [(40u64, 5u64), (30, 8), (6, 25)].iter().enumerate() {
        let mut b = critlock_trace::TraceBuilder::new(format!("dur-app-{i}"));
        let hot = b.lock("hot");
        let cold = b.lock("cold");
        let t0 = b.thread("main", 0);
        let t1 = b.thread("worker", 0);
        b.on(t0).cs(hot, *hot_hold).cs(cold, *cold_hold).work(2).exit();
        b.on(t1).work(3).cs_blocked(hot, 3 + *hot_hold, *hot_hold / 2).work(1).exit();
        out.push((format!("dur-session-{i}").into_bytes(), b.build().unwrap()));
    }
    out
}

fn push_fleet(handle: &CollectorHandle, traces: &[(Vec<u8>, Trace)]) {
    for (token, trace) in traces {
        push_with(
            handle.ingest_addr(),
            trace,
            &PushOptions {
                token: Some(token.clone()),
                retry: RetryPolicy::none(),
                ..PushOptions::default()
            },
        )
        .unwrap();
    }
    wait_for(handle, "all sessions to end", |s| {
        s.sessions.len() == traces.len() && s.sessions.iter().all(|snap| snap.ended)
    });
}

fn offline_union(traces: &[(Vec<u8>, Trace)]) -> Rollup {
    let mut rollup = Rollup::new();
    for (token, trace) in traces {
        let key = String::from_utf8(token.clone()).unwrap();
        rollup.insert(digest_report(&key, &analyze(trace)));
    }
    rollup
}

/// Rollup bytes with every per-session `degraded` flag cleared. A session
/// whose journaling degraded is deliberately served degraded (it lost
/// crash-resumability), which flips exactly one flag in its digest; the
/// analysis numbers underneath must still be the offline union.
fn bytes_sans_degraded(rollup: &Rollup) -> Vec<u8> {
    let mut rollup = rollup.clone();
    for digest in rollup.sessions.values_mut() {
        digest.degraded = false;
    }
    rollup.to_bytes()
}

/// Poll the journal directory until `pred` holds over its file names.
#[track_caller]
fn wait_dir(dir: &Path, what: &str, pred: impl Fn(&[String]) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let names: Vec<String> = std::fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok().and_then(|e| e.file_name().into_string().ok())).collect()
            })
            .unwrap_or_default();
        if pred(&names) {
            return;
        }
        assert!(Instant::now() < deadline, "timeout waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Crash-and-recover with no faults first: segments rotated, checkpoints
/// written, absorbed segments pruned — and the recovered collector's
/// rollup is byte-identical to the offline union.
#[test]
fn checkpointed_segment_recovery_is_byte_identical() {
    let dir = scratch_dir("exact");
    let config = durable_config(&dir);
    let traces = fleet_traces();
    let union = offline_union(&traces);

    let handle = start(config.clone()).unwrap();
    push_fleet(&handle, &traces);
    // Rotation happened (numbered segments exist) and checkpoints landed.
    wait_dir(&dir, "rotated segments", |names| names.iter().any(|n| n.contains(".clsj.00")));
    wait_dir(&dir, "checkpoints", |names| {
        names.iter().filter(|n| n.ends_with(".clck")).count() == traces.len()
    });
    // Checkpoints absorb the full sessions, so the covered segments are
    // eventually pruned down to the active tail.
    let metrics = handle.metrics_text();
    assert!(metrics.contains("critlock_checkpoint_writes_total"), "missing metric:\n{metrics}");
    handle.crash();

    let restarted = start(config.clone()).unwrap();
    wait_for(&restarted, "journaled sessions to recover", |s| {
        s.recovered_sessions == 3 && s.sessions.iter().all(|snap| snap.ended)
    });
    let rollup = restarted.rollup();
    assert_eq!(
        rollup.to_bytes(),
        union.to_bytes(),
        "recovered rollup must equal the offline union byte for byte"
    );
    assert_eq!(restarted.health().class, HealthClass::Ok);

    // Crash the *recovered* collector and recover again: the second pass
    // replays from the checkpoints the first recovery run wrote, and must
    // land on the exact same bytes.
    restarted.crash();
    let again = start(config).unwrap();
    wait_for(&again, "second recovery", |s| s.recovered_sessions == 3);
    assert_eq!(again.rollup().to_bytes(), union.to_bytes(), "second recovery must be identical");
    again.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The disk-fault matrix. Every plan runs the same script: faulted run →
/// abrupt crash → clean-disk recovery → crash → second recovery. See the
/// module docs for the invariants.
#[test]
fn disk_fault_matrix_recovery_is_byte_identical() {
    let plans: Vec<(&str, DiskFaultPlan)> = vec![
        ("enospc-at-0", DiskFaultPlan { write_budget_bytes: Some(0), ..DiskFaultPlan::default() }),
        (
            "enospc-at-200",
            DiskFaultPlan { write_budget_bytes: Some(200), ..DiskFaultPlan::default() },
        ),
        (
            "enospc-at-2000",
            DiskFaultPlan { write_budget_bytes: Some(2000), ..DiskFaultPlan::default() },
        ),
        (
            "short-write-at-150",
            DiskFaultPlan {
                write_budget_bytes: Some(150),
                short_final_write: true,
                ..DiskFaultPlan::default()
            },
        ),
        (
            "fsync-fails-after-3",
            DiskFaultPlan { syncs_allowed: Some(3), ..DiskFaultPlan::default() },
        ),
        (
            "rename-always-fails",
            DiskFaultPlan { renames_allowed: Some(0), ..DiskFaultPlan::default() },
        ),
        (
            "rename-fails-after-1",
            DiskFaultPlan { renames_allowed: Some(1), ..DiskFaultPlan::default() },
        ),
        (
            "create-fails-after-2",
            DiskFaultPlan { creates_allowed: Some(2), ..DiskFaultPlan::default() },
        ),
    ];
    let traces = fleet_traces();
    let union = offline_union(&traces);

    for (name, plan) in plans {
        let dir = scratch_dir(&format!("matrix-{name}"));
        let mut config = durable_config(&dir);
        config.journal_io = Arc::new(FaultyIo::new(plan));

        // Faulted run: ingestion and analysis must be untouched by any
        // disk fault — every session ends, the live rollup is the exact
        // union, and health never passes degraded.
        let handle = start(config).unwrap();
        push_fleet(&handle, &traces);
        assert_eq!(
            bytes_sans_degraded(&handle.rollup()),
            union.to_bytes(),
            "plan {name}: live analysis must be the union regardless of disk faults"
        );
        let health = handle.health();
        assert_ne!(
            health.class,
            HealthClass::Unhealthy,
            "plan {name}: a disk fault must never make the collector unhealthy: {:?}",
            health.findings
        );
        handle.crash();

        // Clean-disk recovery: whatever survived on disk must replay into
        // exactly the state it was journaled from. A session whose end
        // frame reached the journal recovers byte-identical to its
        // offline analysis; a torn or partial journal recovers a prefix —
        // never garbage, never a wedge.
        let config = durable_config(&dir);
        let restarted = start(config.clone()).unwrap();
        let status = restarted.status();
        let rollup = restarted.rollup();
        // Recovery invents nothing: every recovered key is one of ours.
        for key in rollup.sessions.keys() {
            assert!(
                traces.iter().any(|(token, _)| String::from_utf8_lossy(token) == *key),
                "plan {name}: recovered rollup has unexpected session {key}"
            );
        }
        // Each trace carries a distinct app name, so the recovered
        // snapshot maps back to its token: a session whose end frame
        // reached the journal must recover byte-identical to its offline
        // analysis; a partially-journaled one is a legal prefix.
        for snap in &status.sessions {
            let Some((token, _)) =
                traces.iter().find(|(_, trace)| trace.meta.app == snap.report.app)
            else {
                assert_eq!(snap.frames, 0, "plan {name}: unknown app {}", snap.report.app);
                continue;
            };
            if snap.ended {
                let key = String::from_utf8(token.clone()).unwrap();
                assert_eq!(
                    rollup.sessions.get(&key),
                    union.sessions.get(&key),
                    "plan {name}: fully-journaled session {key} must be byte-exact"
                );
            }
        }

        // Second crash+recovery must reproduce the exact same bytes: the
        // first recovery's own checkpoints and pruning changed the disk
        // layout, but never the recovered state.
        let first = rollup.to_bytes();
        restarted.crash();
        let again = start(config).unwrap();
        assert_eq!(
            again.rollup().to_bytes(),
            first,
            "plan {name}: recovery must be idempotent across restarts"
        );
        again.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Quota exhaustion: a collector whose disk budget is far too small for
/// even one journal header keeps ingesting every session, serves the
/// exact union, reports `degraded` (never unhealthy), surfaces the typed
/// anomaly on each affected session, and exports the degraded-sessions
/// gauge. Restarting with a real quota clears the degradation.
#[test]
fn quota_exhaustion_degrades_but_never_wedges() {
    let dir = scratch_dir("quota");
    let mut config = durable_config(&dir);
    config.journal_quota_bytes = Some(16); // smaller than one CLSM header
    let traces = fleet_traces();
    let union = offline_union(&traces);

    let handle = start(config).unwrap();
    push_fleet(&handle, &traces);
    assert_eq!(
        bytes_sans_degraded(&handle.rollup()),
        union.to_bytes(),
        "quota exhaustion must not touch the analysis numbers"
    );

    let status = handle.status();
    for snap in &status.sessions {
        assert!(snap.report.degraded, "session {} must be served degraded", snap.session);
        assert!(
            snap.report.anomalies.iter().any(|a| matches!(a, Anomaly::JournalDegraded { .. })),
            "session {} must carry the typed journal anomaly: {:?}",
            snap.session,
            snap.report.anomalies
        );
    }
    let health = handle.health();
    assert_eq!(health.class, HealthClass::Degraded, "findings: {:?}", health.findings);
    assert!(
        health.findings.iter().any(|f| f.contains("journal")),
        "health must name the journal degradation: {:?}",
        health.findings
    );
    let metrics = handle.metrics_text();
    assert!(
        metrics.contains("critlock_journal_degraded_sessions 3"),
        "missing degraded-sessions gauge:\n{metrics}"
    );
    handle.shutdown();

    // Nothing resumable was journaled; a restart with a sane quota starts
    // clean and journals new sessions again.
    let mut config = durable_config(&dir);
    config.journal_quota_bytes = Some(10 * 1024 * 1024);
    let restarted = start(config).unwrap();
    // At most one empty journal prefix survives: the first session's
    // header landed before its bytes tripped the quota; every later
    // create was refused outright. An empty prefix recovers as a
    // resumable 0-frame session, which the re-push below resumes.
    assert!(restarted.status().recovered_sessions <= 1);
    push_fleet(&restarted, &traces);
    assert_eq!(restarted.health().class, HealthClass::Ok);
    assert_eq!(restarted.rollup().to_bytes(), union.to_bytes());
    wait_dir(&dir, "journals under the restored quota", |names| {
        names.iter().any(|n| n.contains(".clsj"))
    });
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: recovery streams the journal through the assembler frame
/// by frame, so a journal holding more events than the per-session
/// budget recovers to the same truncated, degraded state the live run
/// produced — the replay respects the budget instead of materializing
/// the whole journal.
#[test]
fn oversized_journal_recovers_within_the_event_budget() {
    let dir = scratch_dir("budget");
    let mut config = durable_config(&dir);
    config.max_events = Some(64);

    // A trace with far more events than the budget admits.
    let mut b = critlock_trace::TraceBuilder::new("dur-big");
    let l = b.lock("only");
    let t = b.thread("main", 0);
    let mut chain = b.on(t);
    for _ in 0..200 {
        chain.cs(l, 3).work(1);
    }
    chain.exit();
    let big = b.build().unwrap();

    let handle = start(config.clone()).unwrap();
    push_with(
        handle.ingest_addr(),
        &big,
        &PushOptions {
            token: Some(b"dur-big-session".to_vec()),
            retry: RetryPolicy::none(),
            ..PushOptions::default()
        },
    )
    .unwrap();
    wait_for(&handle, "the budgeted session to end", |s| {
        s.sessions.len() == 1 && s.sessions[0].ended
    });
    let before = handle.status().sessions[0].clone();
    assert_eq!(before.events, 64, "assembly must stop exactly at the event budget");
    assert!(before.report.degraded);
    handle.crash();

    let restarted = start(config).unwrap();
    wait_for(&restarted, "the oversized journal to recover", |s| {
        s.recovered_sessions == 1 && s.sessions.len() == 1 && s.sessions[0].ended
    });
    let after = restarted.status().sessions[0].clone();
    assert_eq!(after.events, before.events, "replay must respect the event budget");
    assert_eq!(after.report, before.report, "recovered report must be byte-identical");
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
