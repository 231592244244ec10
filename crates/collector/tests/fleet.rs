//! Fleet-scale collection tests: sharded ingestion, cross-session
//! rollups over the status socket, shard-count invariance of the CLAG
//! bytes, child→parent forwarding, and per-shard observability.

use critlock_aggregate::FleetReport;
use critlock_analysis::{analyze, digest_report};
use critlock_collector::{
    fetch_metrics_text, fetch_rollup, push, push_rollup_with, push_with, start, Addr,
    CollectorConfig, CollectorHandle, CollectorStatus, PushOptions,
};
use critlock_trace::rollup::{Rollup, SessionDigest};
use critlock_trace::{RetryPolicy, Trace};
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

/// Three distinct sessions; "hot" dominates the critical path in two of
/// them, so it must come out as the fleet's top critical lock.
fn fleet_traces() -> Vec<(Vec<u8>, Trace)> {
    let mut out = Vec::new();
    for (i, (hot_hold, cold_hold)) in [(40u64, 5u64), (30, 8), (6, 25)].iter().enumerate() {
        let mut b = critlock_trace::TraceBuilder::new(format!("fleet-app-{i}"));
        let hot = b.lock("hot");
        let cold = b.lock("cold");
        let t0 = b.thread("main", 0);
        let t1 = b.thread("worker", 0);
        b.on(t0).cs(hot, *hot_hold).cs(cold, *cold_hold).work(2).exit();
        b.on(t1).work(3).cs_blocked(hot, 3 + *hot_hold, *hot_hold / 2).work(1).exit();
        out.push((format!("fleet-session-{i}").into_bytes(), b.build().unwrap()));
    }
    out
}

/// Push each trace under its fixed resume token, so rollup keys are
/// stable across collectors regardless of shard count or session ids.
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
    wait_for(handle, "all fleet sessions to end", |s| {
        s.sessions.len() == traces.len() && s.sessions.iter().all(|snap| snap.ended)
    });
}

#[test]
fn sharded_collector_rollup_yields_expected_fleet_report() {
    let mut config = test_config();
    config.shards = 2;
    let handle = start(config).unwrap();
    let status_addr = handle.status_addr().unwrap().clone();
    let traces = fleet_traces();
    push_fleet(&handle, &traces);

    // Rollup over the status socket == the handle's own view.
    let rollup = fetch_rollup(&status_addr, Some(Duration::from_secs(5))).unwrap();
    assert_eq!(rollup, handle.rollup());
    assert_eq!(rollup.len(), traces.len());

    // Each session digest equals analyzing that trace offline.
    for (token, trace) in &traces {
        let key = String::from_utf8(token.clone()).unwrap();
        let digest = rollup.sessions.get(&key).expect("session in rollup");
        assert_eq!(digest, &digest_report(&key, &analyze(trace)));
    }

    let report = FleetReport::from_rollup(&rollup);
    assert_eq!(report.sessions, 3);
    let top = report.top_critical_lock().expect("a top critical lock");
    assert_eq!(top.name, "hot");
    assert_eq!(top.sessions_seen, 3);
    handle.shutdown();
}

#[test]
fn per_shard_status_sums_to_global_counters() {
    let mut config = test_config();
    config.shards = 2;
    let handle = start(config).unwrap();
    push_fleet(&handle, &fleet_traces());

    let status = handle.status();
    assert_eq!(status.shards.len(), 2);
    let sum: u64 = status.shards.iter().map(|s| s.sessions_total).sum();
    assert_eq!(sum, status.sessions_total);
    assert_eq!(status.sessions_total, 3);
    // Sessions were actually spread by token hash, not piled on shard 0.
    let spread: Vec<u64> = status.shards.iter().map(|s| s.sessions_total).collect();
    assert!(spread.iter().all(|&n| n <= 3), "per-shard counts {spread:?}");
    for (shard, st) in status.shards.iter().enumerate() {
        assert_eq!(st.shard, shard as u64);
        assert_eq!(st.shed_sessions, 0);
        assert_eq!(st.quota_stopped_sessions, 0);
    }
    handle.shutdown();
}

#[test]
fn rollup_bytes_are_identical_across_shard_counts() {
    let traces = fleet_traces();
    let mut rollups = Vec::new();
    for shards in [1usize, 4] {
        let mut config = test_config();
        config.shards = shards;
        let handle = start(config).unwrap();
        push_fleet(&handle, &traces);
        rollups.push(handle.rollup());
        handle.shutdown();
    }
    // The acceptance criterion: byte-identical CLAG output and reports
    // for --shards 1 vs --shards 4.
    assert_eq!(rollups[0].to_bytes(), rollups[1].to_bytes());
    let (a, b) = (FleetReport::from_rollup(&rollups[0]), FleetReport::from_rollup(&rollups[1]));
    assert_eq!(a, b);
    assert_eq!(a.render_text(None), b.render_text(None));
    assert_eq!(a.to_json(), b.to_json());
}

/// Shard-count invariance must survive crash recovery too: journal with
/// `--shards 4` (segments rotating, checkpoints landing, absorbed
/// segments pruned), crash, recover the same directory with `--shards 1`
/// and then `--shards 3`. Sessions re-route to different shards on every
/// restart — token hash modulo a different shard count — yet every
/// recovered rollup is byte-identical to the never-sharded, never-crashed
/// analysis.
#[test]
fn recovery_is_byte_identical_across_shard_count_changes() {
    let dir = std::env::temp_dir().join(format!("critlock-fleet-reshard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let traces = fleet_traces();
    let mut expected = Rollup::new();
    for (token, trace) in &traces {
        let key = String::from_utf8(token.clone()).unwrap();
        expected.insert(digest_report(&key, &analyze(trace)));
    }

    let durable = |shards: usize| {
        let mut config = test_config();
        config.shards = shards;
        config.journal_dir = Some(dir.clone());
        config.journal_segment_bytes = Some(128);
        config.checkpoint_interval = Duration::from_millis(10);
        config.snapshot_interval = Duration::from_millis(10);
        config
    };

    // Journal under 4 shards; let checkpoints land so recovery replays
    // tails, not history, then crash without any drain.
    let handle = start(durable(4)).unwrap();
    push_fleet(&handle, &traces);
    let has_checkpoint = |root: &std::path::Path| {
        // Sharded journals live in `shard-N/` subdirectories.
        let mut dirs = vec![root.to_path_buf()];
        dirs.extend(
            std::fs::read_dir(root)
                .unwrap()
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir()),
        );
        dirs.iter().any(|d| {
            std::fs::read_dir(d).is_ok_and(|rd| {
                rd.filter_map(|e| e.ok())
                    .any(|e| e.file_name().to_string_lossy().ends_with(".clck"))
            })
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !has_checkpoint(&dir) {
        assert!(std::time::Instant::now() < deadline, "timeout waiting for a checkpoint");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.crash();

    // Recover under different shard counts; each pass re-routes sessions,
    // writes its own checkpoints and prunes, and crashes again.
    for shards in [1usize, 3] {
        let handle = start(durable(shards)).unwrap();
        wait_for(&handle, "journaled sessions to recover", |s| {
            s.recovered_sessions == 3 && s.sessions.iter().all(|snap| snap.ended)
        });
        let status = handle.status();
        assert_eq!(status.shards.len(), shards);
        let per_shard: u64 = status.shards.iter().map(|s| s.recovered_sessions).sum();
        assert_eq!(per_shard, 3, "recovered sessions must land on the live shards");
        assert_eq!(
            handle.rollup().to_bytes(),
            expected.to_bytes(),
            "recovery under {shards} shard(s) must be byte-identical to the offline union"
        );
        handle.crash();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn child_collector_forwards_rollup_to_parent() {
    let parent = start(test_config()).unwrap();
    let parent_status = parent.status_addr().unwrap().clone();

    let mut child_config = test_config();
    child_config.shards = 2;
    child_config.forward = Some(parent_status.clone());
    child_config.forward_interval = Duration::from_millis(20);
    child_config.collector_id = "child-a".into();
    let child = start(child_config).unwrap();

    let traces = fleet_traces();
    push_fleet(&child, &traces);

    // The parent has no sessions of its own; its rollup fills up purely
    // from pushes by the child's forward loop.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let rollup = loop {
        let rollup = fetch_rollup(&parent_status, Some(Duration::from_secs(5))).unwrap();
        if rollup.len() == traces.len() {
            break rollup;
        }
        assert!(std::time::Instant::now() < deadline, "timeout waiting for forwarded rollup");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(rollup, child.rollup());
    assert_eq!(FleetReport::from_rollup(&rollup).top_critical_lock().unwrap().name, "hot");

    // Child death does not erase what the parent already holds.
    child.shutdown();
    let after = fetch_rollup(&parent_status, Some(Duration::from_secs(5))).unwrap();
    assert_eq!(after.len(), traces.len());
    parent.shutdown();
}

/// A parent bounds what `rollup-push` can make it retain, and replies
/// with its post-merge session count (not the pushed rollup's size).
#[test]
fn rollup_push_is_capped_and_reports_post_merge_count() {
    let mut config = test_config();
    config.max_rollup_sessions = 2;
    let handle = start(config).unwrap();
    let status_addr = handle.status_addr().unwrap().clone();
    let timeout = Some(Duration::from_secs(5));

    let digest = |key: &str| SessionDigest {
        key: key.into(),
        app: "fleet".into(),
        cp_length: 10,
        makespan: 12,
        degraded: false,
        locks: Vec::new(),
        window: None,
    };
    let mut two = Rollup::new();
    two.insert(digest("a"));
    two.insert(digest("b"));
    assert_eq!(push_rollup_with(&status_addr, &two, timeout, &None).unwrap(), 2);
    // Re-pushing retained sessions at the cap is idempotent, not an error.
    assert_eq!(push_rollup_with(&status_addr, &two, timeout, &None).unwrap(), 2);

    let mut three = two.clone();
    three.insert(digest("c"));
    let err = push_rollup_with(&status_addr, &three, timeout, &None).unwrap_err();
    assert!(err.to_string().contains("rollup cap"), "unexpected error: {err}");
    // The rejected push left the last good state untouched.
    let retained = fetch_rollup(&status_addr, timeout).unwrap();
    assert_eq!(retained.len(), 2);
    assert!(!retained.sessions.contains_key("c"));
    handle.shutdown();
}

/// A crashed-and-recovered collector must re-forward its anonymous
/// sessions under the *same* rollup keys: recovery hands out fresh
/// session ids, but the key is pinned to the journal's `anon-N` index,
/// so a parent that already merged the session never double-counts it.
#[test]
fn recovered_anonymous_session_keeps_its_rollup_key() {
    let dir = std::env::temp_dir().join(format!("critlock-fleet-anonkey-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut config = test_config();
    config.journal_dir = Some(dir.clone());
    config.collector_id = "child-a".into();
    let handle = start(config.clone()).unwrap();
    let (_, trace) = fleet_traces().remove(0);
    push(handle.ingest_addr(), &trace, None).unwrap();
    wait_for(&handle, "anonymous session to end", |s| s.sessions.len() == 1 && s.sessions[0].ended);
    let before: Vec<String> = handle.rollup().sessions.keys().cloned().collect();
    handle.crash();

    let handle = start(config).unwrap();
    wait_for(&handle, "journaled session to recover", |s| s.recovered_sessions == 1);
    let after: Vec<String> = handle.rollup().sessions.keys().cloned().collect();
    assert_eq!(before, after, "rollup key must survive crash recovery");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_labelled_metrics_are_served() {
    let mut config = test_config();
    config.shards = 2;
    config.metrics_addr = Some(Addr::parse("127.0.0.1:0").unwrap());
    let handle = start(config).unwrap();
    let metrics_addr = handle.metrics_addr().unwrap().clone();
    push_fleet(&handle, &fleet_traces());

    let text = fetch_metrics_text(&metrics_addr, Some(Duration::from_secs(5))).unwrap();
    for shard in 0..2 {
        assert!(
            text.contains(&format!("critlock_shard_sessions_total{{shard=\"{shard}\"}}")),
            "missing shard {shard} series in metrics:\n{text}"
        );
    }
    // Labelled shard totals agree with the global counter.
    let mut shard_sum = 0u64;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("critlock_shard_sessions_total{") {
            let value = rest.split_whitespace().next_back().unwrap();
            shard_sum += value.parse::<u64>().unwrap();
        }
    }
    assert_eq!(shard_sum, 3, "metrics text:\n{text}");
    handle.shutdown();
}
