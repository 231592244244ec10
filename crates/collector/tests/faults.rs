//! Fault-tolerance end-to-end tests: the deterministic fault matrix
//! (every built-in `FaultPlan` against a resumable push), idle-timeout
//! degradation, crash-safe journal recovery, and an instrumented session
//! surviving a collector restart.

use critlock_analysis::analyze;
use critlock_collector::{
    push_with, start, Addr, CollectorConfig, CollectorHandle, CollectorStatus, Listener,
    PushOptions, Stream,
};
use critlock_instrument::Session;
use critlock_trace::stream::{
    read_trace, trace_frames, write_ack, Handshake, StreamReader, StreamWriter,
};
use critlock_trace::{FaultAction, FaultPlan, RetryPolicy, Trace};
use std::io::{Cursor, Read};
use std::path::PathBuf;
use std::sync::Arc;
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

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("critlock-faults-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A trace large enough on the wire (tens of kilobytes) that every
/// built-in fault plan's byte offsets actually fire.
fn chunky_trace() -> Trace {
    let mut b = critlock_trace::TraceBuilder::new("fault-matrix");
    let hot = b.lock("hot");
    let cold = b.lock("cold");
    let t0 = b.thread("main", 0);
    let t1 = b.thread("worker", 0);
    for _ in 0..300 {
        b.on(t0).work(1).cs(hot, 2).cs(cold, 1);
    }
    b.on(t0).exit();
    b.on(t1).work(5);
    for _ in 0..300 {
        b.on(t1).cs(hot, 2).work(1);
    }
    b.on(t1).exit();
    b.build().unwrap()
}

/// The acceptance criterion of the tentpole: under every built-in fault
/// plan, a resumable push still delivers the complete session and the
/// live snapshot equals the offline `analyze` exactly.
#[test]
fn fault_matrix_resumable_push_matches_offline_analyze() {
    let trace = chunky_trace();
    let offline = analyze(&trace);
    for plan in FaultPlan::all_builtin() {
        let name = plan.name.clone();
        let cuts = plan.actions.iter().filter(|a| matches!(a, FaultAction::Cut { .. })).count();
        let mut config = test_config();
        // Short idle timeout so the stall plan degrades into a severed
        // connection the client must recover from (stall = 900 ms).
        config.idle_timeout = Some(Duration::from_millis(200));
        let handle = start(config).unwrap();

        let opts = PushOptions {
            timeout: Some(Duration::from_secs(10)),
            retry: RetryPolicy::with_attempts(8),
            fault_plan: Some(plan),
            ..PushOptions::default()
        };
        let sent = push_with(handle.ingest_addr(), &trace, &opts)
            .unwrap_or_else(|e| panic!("plan `{name}`: push failed: {e}"));
        assert!(sent > 0, "plan `{name}`: no frames pushed");

        wait_for(&handle, "session to end", |s| s.sessions.first().is_some_and(|snap| snap.ended));
        let status = handle.status();
        assert_eq!(
            status.sessions.len(),
            1,
            "plan `{name}`: resumed connections must fold into one session"
        );
        assert_eq!(status.sessions[0].report, offline, "plan `{name}`: snapshot != offline");
        assert_eq!(status.sessions[0].dropped_frames, 0, "plan `{name}`");
        // Each cut must sever a live connection, which the push resumes.
        assert!(
            status.resumed_sessions >= cuts as u64,
            "plan `{name}`: {} resumes for {cuts} cuts",
            status.resumed_sessions
        );
        handle.shutdown();
    }
}

/// A connection that goes quiet mid-session is severed by the idle
/// timeout, counted, and its partial session finalized into a trace that
/// still validates.
#[test]
fn idle_timeout_finalizes_stalled_session() {
    let mut config = test_config();
    config.idle_timeout = Some(Duration::from_millis(100));
    let handle = start(config).unwrap();

    let frames = trace_frames(&chunky_trace());
    let stream = Stream::connect(handle.ingest_addr()).unwrap();
    let mut writer = StreamWriter::new(stream).unwrap();
    for frame in &frames[..4] {
        writer.write_frame(frame).unwrap();
    }
    writer.flush().unwrap();
    // ... and now the producer hangs without disconnecting.

    wait_for(&handle, "idle timeout to fire", |s| s.timed_out_sessions == 1);
    wait_for(&handle, "stalled frames to be applied", |s| {
        s.sessions.first().is_some_and(|snap| snap.frames == 4)
    });
    let partial = handle.session_trace(0).unwrap();
    partial.validate().unwrap();
    drop(writer); // keep the connection alive until after the assertions
    handle.shutdown();
}

/// Kill the collector mid-stream, restart it on the same journal
/// directory, and finish the push with the same resume token: the
/// recovered session picks up exactly where the journal left off and the
/// final snapshot equals the offline analysis.
#[test]
fn crashed_collector_recovers_journaled_session_and_push_resumes() {
    let dir = tmpdir("crash");
    let trace = chunky_trace();
    let frames = trace_frames(&trace);
    let token = b"crashy-session".to_vec();

    let mut config = test_config();
    config.journal_dir = Some(dir.clone());
    let handle = start(config).unwrap();

    // Partial push by hand: handshake with the resume token, four frames,
    // then the producer "dies" (connection kept open, no End).
    let stream = Stream::connect(handle.ingest_addr()).unwrap();
    let handshake = Handshake { token: token.clone(), start_seq: 0 };
    let mut writer = StreamWriter::with_handshake(stream, &handshake).unwrap();
    for frame in &frames[..4] {
        writer.write_frame(frame).unwrap();
    }
    writer.flush().unwrap();

    wait_for(&handle, "partial frames to be journaled", |s| {
        s.sessions.first().is_some_and(|snap| snap.frames == 4)
    });
    handle.crash(); // no drain, no final sync — as a real crash would
    drop(writer);

    // Restart on the same journal directory: the session comes back with
    // its four frames before any producer reconnects.
    let mut config = test_config();
    config.journal_dir = Some(dir.clone());
    let handle = start(config).unwrap();
    let status = handle.status();
    assert_eq!(status.recovered_sessions, 1, "status: {status:?}");
    assert_eq!(status.sessions.len(), 1);
    assert_eq!(status.sessions[0].frames, 4);

    // The producer reconnects with the same token and finishes the push.
    let opts = PushOptions {
        timeout: Some(Duration::from_secs(10)),
        retry: RetryPolicy::with_attempts(8),
        token: Some(token),
        ..PushOptions::default()
    };
    push_with(handle.ingest_addr(), &trace, &opts).unwrap();

    wait_for(&handle, "resumed session to end", |s| {
        s.sessions.first().is_some_and(|snap| snap.ended)
    });
    let status = handle.status();
    assert_eq!(status.sessions.len(), 1, "resume must not open a second session");
    assert!(status.resumed_sessions >= 1, "status: {status:?}");
    assert_eq!(status.sessions[0].report, analyze(&trace));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An instrumented session streaming with `stream_to_resumable` survives
/// the collector being killed and restarted mid-workload: the restarted
/// collector recovers the journaled prefix, the client reconnects with
/// its token and replays the gap, and the final server-side trace equals
/// the locally finished one.
#[cfg(unix)]
#[test]
fn instrument_session_resumes_across_collector_restart() {
    let dir = tmpdir("restart");
    let sock = dir.join("ingest.sock");
    let addr = format!("unix:{}", sock.display());

    let mut config = CollectorConfig::new(Addr::parse(&addr).unwrap());
    config.journal_dir = Some(dir.clone());
    let handle = start(config).unwrap();

    let session = Session::new("restart-app");
    session.stream_to_resumable(&addr, RetryPolicy::with_attempts(20)).unwrap();
    let m = Arc::new(session.mutex("hot", 0u64));

    let work = |session: &Session, m: &Arc<critlock_instrument::Mutex<u64>>| {
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let m = Arc::clone(m);
                critlock_instrument::spawn(session, format!("w{i}"), move || {
                    for _ in 0..200 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    };

    work(&session, &m); // first half streams to the first collector
    handle.crash();

    // Restart on the same socket path and journal directory.
    let mut config = CollectorConfig::new(Addr::parse(&addr).unwrap());
    config.journal_dir = Some(dir.clone());
    let handle = start(config).unwrap();
    assert_eq!(handle.status().recovered_sessions, 1);

    work(&session, &m); // second half reconnects and resumes
    let local = session.finish().unwrap();

    wait_for(&handle, "resumed session to end", |s| {
        s.sessions.first().is_some_and(|snap| snap.ended)
    });
    let status = handle.status();
    assert_eq!(status.sessions.len(), 1);
    assert!(status.resumed_sessions >= 1, "status: {status:?}");
    let server_trace = handle.session_trace(0).unwrap();
    assert_eq!(server_trace, local);
    assert_eq!(analyze(&server_trace), analyze(&local));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A socket that keeps a copy of every byte read from it.
struct Recording {
    inner: Stream,
    bytes: Vec<u8>,
}

impl Read for Recording {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// A one-connection loopback collector: it acks a resumable handshake,
/// reads frames until the producer half-closes, acks them all, and hands
/// back every byte it received.
fn recording_collector() -> (Addr, std::thread::JoinHandle<Vec<u8>>) {
    let listener = Listener::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
    let addr = listener.bound_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut acks = stream.try_clone().unwrap();
        let mut wire = Recording { inner: stream, bytes: Vec::new() };
        let mut reader = StreamReader::new(&mut wire).unwrap();
        let handshake = reader.handshake().clone();
        if handshake.resumable() {
            write_ack(&mut acks, handshake.start_seq).unwrap();
        }
        let mut frames = 0;
        while reader.next_frame_raw().unwrap().is_some() {
            frames += 1;
        }
        if handshake.resumable() {
            write_ack(&mut acks, handshake.start_seq + frames).unwrap();
        }
        drop(reader);
        wire.bytes
    });
    (addr, server)
}

/// On a clean wire a resumable push writes exactly the reference stream:
/// the handshake (token, start sequence 0) and then the trace's frames.
#[test]
fn clean_resumable_push_writes_the_reference_stream() {
    let trace = chunky_trace();
    let token = b"pinned-push".to_vec();
    let (addr, server) = recording_collector();
    let opts = PushOptions {
        timeout: Some(Duration::from_secs(10)),
        token: Some(token.clone()),
        ..PushOptions::default()
    };
    let sent = push_with(&addr, &trace, &opts).unwrap();

    let frames = trace_frames(&trace);
    assert_eq!(sent, frames.len() as u64);
    let handshake = Handshake { token, start_seq: 0 };
    let mut expected = StreamWriter::with_handshake(Vec::new(), &handshake).unwrap();
    for frame in &frames {
        expected.write_frame(frame).unwrap();
    }
    let expected = expected.into_inner();
    let received = server.join().unwrap();
    assert!(received == expected, "received {} bytes, expected {}", received.len(), expected.len());
}

/// On a clean wire a resumable instrumented session streams exactly the
/// trace `finish()` returns.
#[test]
fn clean_resumable_session_streams_the_finished_trace() {
    let (addr, server) = recording_collector();
    let session = Session::new("pinned-session");
    session.stream_to_resumable(&addr.to_string(), RetryPolicy::default()).unwrap();
    session.param("phase", "steady");
    let m = Arc::new(session.mutex("hot", 0u64));
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let m = Arc::clone(&m);
            critlock_instrument::spawn(&session, format!("w{i}"), move || {
                for _ in 0..300 {
                    *m.lock() += 1;
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let local = session.finish().unwrap();
    let streamed = read_trace(&mut Cursor::new(server.join().unwrap())).unwrap();
    assert_eq!(streamed, local);
}

/// A collector that acks part of the stream and then goes away for good
/// refunds the attempt budget once, not on every later retry: the push
/// gives up within the policy's budget instead of retrying forever.
#[test]
fn push_gives_up_after_partial_ack_when_collector_is_gone() {
    let trace = chunky_trace();
    let frames = trace_frames(&trace).len() as u64;
    let listener = Listener::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
    let addr = listener.bound_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        drop(listener);
        let mut acks = stream.try_clone().unwrap();
        let mut reader = StreamReader::new(stream).unwrap();
        write_ack(&mut acks, reader.handshake().start_seq).unwrap();
        while reader.next_frame_raw().unwrap().is_some() {}
        write_ack(&mut acks, frames / 2).unwrap();
    });
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let opts = PushOptions {
            timeout: Some(Duration::from_secs(5)),
            retry: RetryPolicy::with_attempts(3),
            ..PushOptions::default()
        };
        let _ = done.send(push_with(&addr, &trace, &opts));
    });
    let result = outcome.recv_timeout(Duration::from_secs(30)).expect("push never gave up");
    assert!(result.is_err(), "push to a vanished collector reported success");
    server.join().unwrap();
}
