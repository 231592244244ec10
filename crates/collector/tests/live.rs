//! End-to-end tests of the live collector: pushed traces, real-thread
//! streaming sessions, mid-critical-section disconnects, backpressure
//! under both policies, and handshake rejection.

use critlock_analysis::{analyze, validate::check_trace};
use critlock_collector::server::{CONTROL_HANDLERS, CONTROL_IO_TIMEOUT, MAX_REQUEST_LINE};
use critlock_collector::{
    fetch_health, fetch_health_text, fetch_status_text_timeout, fetch_status_timeout, push, start,
    Addr, Backpressure, CollectorConfig, CollectorHandle, CollectorStatus, HealthClass,
    HealthReport, Stream,
};
use critlock_instrument::{spawn, Session};
use critlock_trace::stream::{Frame, StreamWriter};
use critlock_trace::{Event, EventKind, ObjId, ObjInfo, ObjKind, ThreadId, Trace, TraceMeta};
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn test_config() -> CollectorConfig {
    let mut config = CollectorConfig::new(Addr::parse("127.0.0.1:0").unwrap());
    config.status_addr = Some(Addr::parse("127.0.0.1:0").unwrap());
    config
}

/// Wait for a collector-status condition without wall-clock spinning:
/// [`CollectorHandle::wait_until`] parks on the analysis loop's progress
/// condvar, so the test is paced by the collector, not by sleeps.
#[track_caller]
fn wait_for(handle: &CollectorHandle, what: &str, pred: impl Fn(&CollectorStatus) -> bool) {
    assert!(handle.wait_until(Duration::from_secs(30), pred), "timeout waiting for {what}");
}

/// Two threads contending on one lock plus an uncontended one.
fn sample_trace() -> Trace {
    let mut b = critlock_trace::TraceBuilder::new("pushed-app");
    let hot = b.lock("hot");
    let cold = b.lock("cold");
    let t0 = b.thread("main", 0);
    let t1 = b.thread("worker", 0);
    b.on(t0).cs(hot, 40).cs(cold, 5).exit_at(60);
    b.on(t1).work(10).cs_blocked(hot, 40, 15).work(5).exit();
    b.build().unwrap()
}

/// One thread, enough critical sections to span many Events frames.
fn big_trace() -> Trace {
    let mut b = critlock_trace::TraceBuilder::new("big-app");
    let l = b.lock("L");
    let t0 = b.thread("main", 0);
    for _ in 0..700 {
        b.on(t0).work(1).cs(l, 1);
    }
    b.on(t0).exit();
    b.build().unwrap()
}

fn shutdown(handle: CollectorHandle) {
    handle.shutdown();
}

#[test]
fn pushed_trace_snapshot_matches_offline_analyze_exactly() {
    let handle = start(test_config()).unwrap();
    let status_addr = handle.status_addr().unwrap().clone();
    let trace = sample_trace();
    let sent = push(handle.ingest_addr(), &trace, Some(Duration::from_millis(1))).unwrap();
    assert!(sent >= 6); // Start, Objects, 2×Thread, ≥1 Events, End

    wait_for(&handle, "pushed session to end", |s| s.sessions.len() == 1 && s.sessions[0].ended);

    // The acceptance criterion: live snapshot == `critlock analyze`.
    let status = fetch_status_timeout(&status_addr, None).unwrap();
    let snap = &status.sessions[0];
    let offline = analyze(&trace);
    assert_eq!(snap.report, offline);
    assert_eq!(snap.report.cp_length, offline.cp_length);
    assert_eq!(snap.report.locks[0].name, "hot");
    assert_eq!(snap.dropped_frames, 0);

    // Text endpoint carries the same ranking.
    let text = fetch_status_text_timeout(&status_addr, false, None).unwrap();
    assert!(text.contains("hot"), "status text:\n{text}");
    assert!(text.contains("[ended]"), "status text:\n{text}");
    shutdown(handle);
}

#[test]
fn real_thread_session_streams_to_collector() {
    let handle = start(test_config()).unwrap();

    let session = Session::new("live-app");
    session.stream_to(&handle.ingest_addr().to_string()).unwrap();
    session.param("workers", 4);
    let m = Arc::new(session.mutex("hot", 0u64));
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let m = Arc::clone(&m);
            spawn(&session, format!("w{i}"), move || {
                for _ in 0..100 {
                    let mut g = m.lock();
                    *g += 1;
                    std::hint::black_box(&mut *g);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let local = session.finish().unwrap();

    wait_for(&handle, "streamed session to end", |s| {
        s.sessions.first().is_some_and(|snap| snap.ended)
    });

    let server_trace = handle.session_trace(0).unwrap();
    // Acceptance criterion: zero validation errors on the collector side.
    assert_eq!(check_trace(&server_trace), Vec::new());
    server_trace.validate().unwrap();
    // The collector reconstructed the exact trace the session recorded.
    assert_eq!(server_trace, local);
    assert_eq!(analyze(&server_trace), analyze(&local));
    shutdown(handle);
}

#[test]
fn mid_critical_section_disconnect_is_finalized() {
    let handle = start(test_config()).unwrap();

    let stream = Stream::connect(handle.ingest_addr()).unwrap();
    let mut writer = StreamWriter::new(stream).unwrap();
    writer.write_frame(&Frame::Start { meta: TraceMeta::named("crashy") }).unwrap();
    writer
        .write_frame(&Frame::Objects {
            first_id: 0,
            objects: vec![
                ObjInfo { kind: ObjKind::Lock, name: "L".into() },
                ObjInfo { kind: ObjKind::Lock, name: "M".into() },
            ],
        })
        .unwrap();
    writer.write_frame(&Frame::Thread { tid: ThreadId(0), name: Some("main".into()) }).unwrap();
    writer
        .write_frame(&Frame::Events {
            tid: ThreadId(0),
            events: vec![
                Event::new(0, EventKind::ThreadStart),
                Event::new(5, EventKind::LockAcquire { lock: ObjId(0) }),
                Event::new(6, EventKind::LockObtain { lock: ObjId(0) }),
                Event::new(7, EventKind::LockAcquire { lock: ObjId(1) }),
                Event::new(8, EventKind::LockContended { lock: ObjId(1) }),
            ],
        })
        .unwrap();
    writer.flush().unwrap();
    drop(writer); // dies holding L, contended on M, with no End frame

    wait_for(&handle, "disconnected session frames to be applied", |s| {
        s.sessions.first().is_some_and(|snap| snap.frames == 4)
    });

    let status = handle.status();
    let snap = &status.sessions[0];
    assert!(!snap.ended);

    let trace = handle.session_trace(0).unwrap();
    trace.validate().unwrap();
    assert_eq!(check_trace(&trace), Vec::new());
    // The held lock was released at the last-seen timestamp and counts as
    // an invocation; the incomplete contended acquire was excised.
    assert_eq!(snap.report.lock_by_name("L").unwrap().total_invocations, 1);
    assert!(snap.report.lock_by_name("M").is_none_or(|l| l.total_invocations == 0));
    shutdown(handle);
}

#[test]
fn drop_backpressure_sheds_frames_and_is_observable() {
    let mut config = test_config();
    config.queue_capacity = 2;
    config.backpressure = Backpressure::Drop;
    // Slow consumer: the analysis loop is held for the whole push, so it
    // must overflow the 2-frame queue.
    let gate = Arc::new(Mutex::new(()));
    let held = gate.lock().unwrap();
    config.analysis_gate = Some(Arc::clone(&gate));
    config.snapshot_interval = Duration::from_secs(10);
    let handle = start(config).unwrap();
    let status_addr = handle.status_addr().unwrap().clone();

    let trace = big_trace();
    push(handle.ingest_addr(), &trace, None).unwrap();

    let status = fetch_status_timeout(&status_addr, None).unwrap();
    let snap = &status.sessions[0];
    assert!(snap.dropped_frames > 0, "expected drops, got {snap:?}");
    assert_eq!(snap.queue_high_water, 2);

    // Whatever survived still forms a valid trace.
    let survived = handle.session_trace(0).unwrap();
    survived.validate().unwrap();
    assert_eq!(check_trace(&survived), Vec::new());
    drop(held);
    shutdown(handle);
}

#[test]
fn block_backpressure_loses_nothing() {
    let mut config = test_config();
    config.queue_capacity = 2;
    config.backpressure = Backpressure::Block;
    config.snapshot_interval = Duration::from_millis(20);
    let handle = start(config).unwrap();
    let status_addr = handle.status_addr().unwrap().clone();

    let trace = big_trace();
    push(handle.ingest_addr(), &trace, None).unwrap();

    wait_for(&handle, "blocked push to complete", |s| {
        s.sessions.first().is_some_and(|snap| snap.ended)
    });

    let status = fetch_status_timeout(&status_addr, None).unwrap();
    let snap = &status.sessions[0];
    assert_eq!(snap.dropped_frames, 0);
    // Despite the 2-frame queue, analysis is still exact.
    assert_eq!(snap.report, analyze(&trace));
    shutdown(handle);
}

#[test]
fn incompatible_handshake_is_rejected() {
    let handle = start(test_config()).unwrap();

    let mut stream = Stream::connect(handle.ingest_addr()).unwrap();
    stream.write_all(b"CLSM\x63").unwrap(); // claims protocol version 99
    stream.flush().unwrap();
    drop(stream);

    wait_for(&handle, "handshake rejection", |s| s.rejected_sessions == 1);
    let status = handle.status();
    assert_eq!(status.sessions_total, 0);
    assert!(status.sessions.is_empty());
    shutdown(handle);
}

#[test]
fn idle_control_client_does_not_wedge_the_status_socket() {
    let handle = start(test_config()).unwrap();
    let status_addr = handle.status_addr().unwrap().clone();
    // Connect and never send a byte: the single control handler is now
    // waiting on this connection's request line.
    let idle = Stream::connect(&status_addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    let report = fetch_health(&status_addr, Some(Duration::from_secs(30))).unwrap();
    let waited = started.elapsed();
    assert_eq!(report.class, HealthClass::Ok);
    assert!(
        waited < CONTROL_IO_TIMEOUT + Duration::from_secs(2),
        "health waited {waited:?} behind an idle client"
    );
    drop(idle);
    shutdown(handle);
}

#[test]
fn control_socket_serves_past_more_idle_clients_than_handlers() {
    let handle = start(test_config()).unwrap();
    let status_addr = handle.status_addr().unwrap().clone();
    let started = Instant::now();
    // Every handler waits on an idle client's request line; the extra
    // idle clients find none free and are refused at once.
    let mut idle: Vec<Stream> =
        (0..CONTROL_HANDLERS + 2).map(|_| Stream::connect(&status_addr).unwrap()).collect();
    for conn in &mut idle[CONTROL_HANDLERS..] {
        conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "err busy\n");
    }
    // `health` is refused while the handlers are held, then answered as
    // soon as the idle clients' deadline frees them: within one
    // deadline, not one deadline per idle client.
    let mut refused = 0;
    let report = loop {
        let reply = fetch_health_text(&status_addr, true, Some(Duration::from_secs(30))).unwrap();
        if reply != "err busy\n" {
            break HealthReport::parse_json(&reply).unwrap();
        }
        assert!(started.elapsed() < Duration::from_secs(30), "health never answered");
        refused += 1;
        std::thread::sleep(Duration::from_millis(20));
    };
    let waited = started.elapsed();
    assert_eq!(report.class, HealthClass::Ok);
    assert!(refused > 0, "health must have found every handler busy first");
    assert!(
        waited < CONTROL_IO_TIMEOUT + Duration::from_secs(1),
        "health waited {waited:?} behind {} idle clients",
        idle.len()
    );
    drop(idle);
    shutdown(handle);
}

#[test]
fn idle_collector_does_not_spin() {
    let mut config = test_config();
    config.snapshot_interval = Duration::from_secs(10);
    let handle = start(config).unwrap();
    let passes = || handle.metrics_snapshot().counter("critlock_analysis_passes_total").unwrap();
    // The first pass runs as the loop starts.
    let deadline = Instant::now() + Duration::from_secs(10);
    while passes() == 0 {
        assert!(Instant::now() < deadline, "the analysis loop never ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    let before = passes();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(passes(), before, "an idle collector must park, not poll");
    shutdown(handle);
}

#[test]
fn overlong_control_request_line_is_answered_err() {
    let handle = start(test_config()).unwrap();
    let status_addr = handle.status_addr().unwrap().clone();
    let mut conn = Stream::connect(&status_addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Exactly the cap and no newline: the handler consumes every byte
    // sent, so the connection closes cleanly behind the reply.
    conn.write_all(&vec![b's'; MAX_REQUEST_LINE as usize]).unwrap();
    conn.flush().unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    assert_eq!(reply, "err request line too long\n");
    // The socket keeps serving well-formed requests.
    let status = fetch_status_timeout(&status_addr, Some(Duration::from_secs(30))).unwrap();
    assert!(status.sessions.is_empty());
    shutdown(handle);
}
