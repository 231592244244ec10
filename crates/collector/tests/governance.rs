//! Resource-governance tests for the collector: admission control,
//! per-session byte quotas, per-session event budgets, the strict
//! disconnect policy, and the dedicated session-id allocator under
//! concurrent connects and journal recovery.

use critlock_collector::{push, start, Addr, CollectorConfig, CollectorHandle, CollectorStatus};
use critlock_trace::Trace;
use std::time::Duration;

fn test_config() -> CollectorConfig {
    let mut config = CollectorConfig::new(Addr::parse("127.0.0.1:0").unwrap());
    config.status_addr = Some(Addr::parse("127.0.0.1:0").unwrap());
    config
}

#[track_caller]
fn wait_for(handle: &CollectorHandle, what: &str, pred: impl Fn(&CollectorStatus) -> bool) {
    assert!(handle.wait_until(Duration::from_secs(30), pred), "timeout waiting for {what}");
}

/// Two threads contending on one lock.
fn sample_trace() -> Trace {
    let mut b = critlock_trace::TraceBuilder::new("gov-app");
    let hot = b.lock("hot");
    let t0 = b.thread("main", 0);
    let t1 = b.thread("worker", 0);
    b.on(t0).cs(hot, 40).exit_at(50);
    b.on(t1).work(10).cs_blocked(hot, 40, 15).work(5).exit();
    b.build().unwrap()
}

/// One thread, enough critical sections to span many Events frames.
fn big_trace() -> Trace {
    let mut b = critlock_trace::TraceBuilder::new("gov-big");
    let l = b.lock("L");
    let t0 = b.thread("main", 0);
    for _ in 0..700 {
        b.on(t0).work(1).cs(l, 1);
    }
    b.on(t0).exit();
    b.build().unwrap()
}

/// Regression for the id-allocator race: concurrent anonymous connects
/// must all get distinct session ids, and `sessions_total` must count
/// exactly the accepted sessions (it used to double as the id allocator,
/// so the two could not be checked independently).
#[test]
fn concurrent_anonymous_connects_get_unique_ids() {
    let handle = start(test_config()).unwrap();
    let trace = sample_trace();
    let n = 8;
    std::thread::scope(|scope| {
        for _ in 0..n {
            let addr = handle.ingest_addr().clone();
            let trace = &trace;
            scope.spawn(move || push(&addr, trace, None).unwrap());
        }
    });
    wait_for(&handle, "all concurrent sessions to end", |s| {
        s.sessions.len() == n && s.sessions.iter().all(|snap| snap.ended)
    });
    let status = handle.status();
    let mut ids: Vec<u64> = status.sessions.iter().map(|s| s.session).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..n as u64).collect::<Vec<_>>(), "ids must be unique and dense");
    assert_eq!(status.sessions_total, n as u64);
    handle.shutdown();
}

#[test]
fn admission_control_sheds_excess_sessions() {
    let mut config = test_config();
    config.max_sessions = Some(1);
    let handle = start(config).unwrap();
    let trace = sample_trace();
    push(handle.ingest_addr(), &trace, None).unwrap();
    wait_for(&handle, "first session to end", |s| s.sessions.len() == 1 && s.sessions[0].ended);
    // The collector is at capacity: the next producer is shed before a
    // session exists, and the shed is accounted for in the status.
    let _ = push(handle.ingest_addr(), &trace, None);
    wait_for(&handle, "second connect to be shed", |s| s.shed_sessions >= 1);
    let status = handle.status();
    assert_eq!(status.sessions.len(), 1, "no session may be created for a shed connect");
    assert_eq!(status.sessions_total, 1);
    handle.shutdown();
}

/// `max_sessions` is a hard *global* bound, not just per-shard slices:
/// with max 3 over 2 shards the per-shard ceiling is 2, so a fourth
/// connect landing on the less-loaded shard would slip in if only the
/// per-shard check existed. The global reservation must shed it.
#[test]
fn global_session_cap_holds_across_shards() {
    let mut config = test_config();
    config.max_sessions = Some(3);
    config.shards = 2;
    let handle = start(config).unwrap();
    let trace = sample_trace();
    // Anonymous sessions route by id % shards: ids 0..3 put two sessions
    // on shard 0 and one on shard 1.
    for _ in 0..3 {
        push(handle.ingest_addr(), &trace, None).unwrap();
    }
    wait_for(&handle, "three admitted sessions", |s| {
        s.sessions.len() == 3 && s.sessions.iter().all(|snap| snap.ended)
    });
    // The fourth routes to shard 1 (one session, under its ceiling of
    // 2) — only the global bound can shed it.
    let _ = push(handle.ingest_addr(), &trace, None);
    wait_for(&handle, "fourth connect to be shed", |s| s.shed_sessions >= 1);
    let status = handle.status();
    assert_eq!(status.sessions.len(), 3, "global max_sessions must hold across shards");
    assert_eq!(status.sessions_total, 3);
    handle.shutdown();
}

#[test]
fn byte_quota_stops_ingest_and_degrades_the_session() {
    let mut config = test_config();
    config.session_quota_bytes = Some(2048);
    let handle = start(config).unwrap();
    // The big trace's frame payload is far beyond 2 KiB: ingest stops at
    // the quota and the connection drops, which the producer may see as
    // an error — the collector itself must stay up.
    let _ = push(handle.ingest_addr(), &big_trace(), None);
    wait_for(&handle, "session to hit its byte quota", |s| {
        s.quota_stopped_sessions == 1 && s.sessions.first().is_some_and(|snap| snap.report.degraded)
    });
    // A session within quota on the same collector is untouched.
    push(handle.ingest_addr(), &sample_trace(), None).unwrap();
    wait_for(&handle, "small session to end clean", |s| {
        s.sessions.len() == 2 && s.sessions.iter().any(|snap| snap.ended && !snap.report.degraded)
    });
    handle.shutdown();
}

#[test]
fn event_budget_truncates_assembly_and_degrades_the_snapshot() {
    let mut config = test_config();
    config.max_events = Some(100);
    let handle = start(config).unwrap();
    let trace = big_trace();
    // All frames are accepted (the cap is on assembled events, not on
    // the wire), so the push completes and the session ends gracefully.
    push(handle.ingest_addr(), &trace, None).unwrap();
    wait_for(&handle, "budgeted session to end", |s| s.sessions.len() == 1 && s.sessions[0].ended);
    let status = handle.status();
    let snap = &status.sessions[0];
    assert_eq!(snap.events, 100, "assembly must stop exactly at the event budget");
    assert!(snap.report.degraded, "a truncated session must be marked degraded");
    // The truncated prefix still analyzes: the repair pass closes the cut.
    let repaired = handle.session_trace(snap.session).unwrap();
    repaired.validate().expect("budget-truncated session must repair to a valid trace");
    handle.shutdown();
}

#[test]
fn strict_mode_severs_over_budget_sessions() {
    let mut config = test_config();
    config.max_events = Some(50);
    config.strict = true;
    strict_mode_severs(config);
}

/// A strict session is checked as its frames arrive, not at the next
/// snapshot tick: with the tick 10 s away the paced push is still
/// severed.
#[test]
fn strict_mode_severs_between_snapshot_ticks() {
    let mut config = test_config();
    config.max_events = Some(50);
    config.strict = true;
    config.snapshot_interval = Duration::from_secs(10);
    strict_mode_severs(config);
}

fn strict_mode_severs(config: CollectorConfig) {
    let handle = start(config).unwrap();
    // Paced so the producer is still writing when the analysis loop
    // notices the budget violation and severs the connection.
    let result = push(handle.ingest_addr(), &big_trace(), Some(Duration::from_millis(10)));
    assert!(result.is_err(), "strict mode must sever the over-budget producer");
    wait_for(&handle, "severed session to be marked degraded", |s| {
        s.sessions.first().is_some_and(|snap| snap.report.degraded)
    });
    handle.shutdown();
}

/// Journal recovery with the dedicated allocator: recovered sessions and
/// a fresh producer all get distinct ids, no `anon-N` journal of the
/// first run is ever reused (truncated) by the second, and
/// `sessions_total` counts sessions — not allocator state.
#[test]
fn recovered_and_new_sessions_share_the_id_space() {
    let dir = std::env::temp_dir().join(format!("critlock-governance-ids-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut config = test_config();
    config.journal_dir = Some(dir.clone());
    let handle = start(config.clone()).unwrap();
    let trace = sample_trace();
    push(handle.ingest_addr(), &trace, None).unwrap();
    push(handle.ingest_addr(), &trace, None).unwrap();
    wait_for(&handle, "two journaled sessions", |s| {
        s.sessions.len() == 2 && s.sessions.iter().all(|snap| snap.ended)
    });
    handle.shutdown();
    // Count only journal segments: shutdown also leaves checkpoint files
    // (`.clck`) next to the journals, which are not part of the id space.
    let list_journals = |dir: &std::path::Path| -> Vec<std::ffi::OsString> {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.file_name()))
            .filter(|name| name.to_string_lossy().contains(".clsj"))
            .collect()
    };
    let journals_before = list_journals(&dir);
    assert_eq!(journals_before.len(), 2);

    let handle = start(config).unwrap();
    push(handle.ingest_addr(), &trace, None).unwrap();
    wait_for(&handle, "recovered + new sessions", |s| {
        s.recovered_sessions == 2 && s.sessions.len() == 3
    });
    let status = handle.status();
    assert_eq!(status.sessions_total, 3, "2 recovered + 1 new, no phantom sessions");
    let mut ids: Vec<u64> = status.sessions.iter().map(|s| s.session).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 3, "recovered and new sessions must not share ids");
    // The first run's journals survived untouched alongside the new one.
    let journals_after = list_journals(&dir);
    assert_eq!(journals_after.len(), 3);
    for name in &journals_before {
        assert!(journals_after.contains(name), "journal {name:?} must survive the restart");
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
