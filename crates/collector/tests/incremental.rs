//! Incremental-maintenance exactness tests: however the frame stream is
//! batched, closed sliding windows served live must equal the offline
//! `clip` + `analyze` of the same spans over the final trace; and served
//! reports and windows must survive transport faults and crash-recovery
//! (the snapshot dirty check keyed on applied events, not just frames,
//! so replayed frames after journal recovery are never conflated with
//! new ones).

use critlock_analysis::{analyze, clip, digest_window};
use critlock_collector::{
    push, push_with, start, Addr, CollectorConfig, CollectorHandle, CollectorStatus, PushOptions,
    SessionAssembler, SessionSnapshot, Stream,
};
use critlock_trace::stream::{trace_frames, Handshake, RawFrame, StreamWriter};
use critlock_trace::{FaultPlan, RetryPolicy, Trace, Ts};
use proptest::prelude::*;
use std::path::PathBuf;
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
    let dir =
        std::env::temp_dir().join(format!("critlock-incremental-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A contended two-lock trace whose size scales with `iters`.
fn build_trace(threads: usize, iters: usize) -> Trace {
    let mut b = critlock_trace::TraceBuilder::new("incremental-props");
    let hot = b.lock("hot");
    let cold = b.lock("cold");
    let tids: Vec<_> = (0..threads).map(|i| b.thread(format!("t{i}"), 0)).collect();
    for (i, &tid) in tids.iter().enumerate() {
        b.on(tid).work(i as u64 + 1);
        for k in 0..iters {
            b.on(tid).cs(hot, 3).work(2);
            if k % 3 == 0 {
                b.on(tid).cs(cold, 1);
            }
        }
        b.on(tid).exit();
    }
    b.build().unwrap()
}

/// Big enough on the wire that every built-in fault plan's offsets fire,
/// with a makespan spanning several 100-unit windows.
fn chunky_trace() -> Trace {
    let mut b = critlock_trace::TraceBuilder::new("fault-windows");
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

/// Every closed window a snapshot (or assembler) serves must equal the
/// offline oracle: `analyze(clip(trace, lo, hi))`, digested.
#[track_caller]
fn assert_windows_match_oracle(
    windows: &[critlock_trace::rollup::WindowDigest],
    trace: &Trace,
    width: Ts,
) {
    for w in windows {
        assert_eq!(w.lo, w.index * width);
        assert_eq!(w.hi, (w.index + 1) * width);
        let oracle = digest_window(w.index, w.lo, w.hi, &analyze(&clip(trace, w.lo, w.hi)));
        assert_eq!(w, &oracle, "window {} diverged from offline clip+analyze", w.index);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// However the frame stream is split into batches, the assembled
    /// trace is the pushed trace, and every window closed after any batch
    /// already equals the offline clip oracle over the final trace.
    #[test]
    fn batched_delivery_closes_only_final_windows(
        threads in 1usize..4,
        iters in 1usize..40,
        cuts in prop::collection::vec(1usize..30, 0..10),
    ) {
        let trace = build_trace(threads, iters);
        let frames: Vec<RawFrame> =
            trace_frames(&trace).iter().map(|f| RawFrame::encode(f).unwrap()).collect();
        let mut asm = SessionAssembler::new();
        asm.set_window(16);
        let mut served = Vec::new();
        let mut i = 0;
        for deliver in cuts {
            let end = (i + deliver).min(frames.len());
            for frame in &frames[i..end] {
                asm.apply_raw(frame);
            }
            i = end;
            asm.advance_windows(&asm.finalize());
            served.extend(asm.windows());
        }
        for frame in &frames[i..] {
            asm.apply_raw(frame);
        }

        // The assembled trace is the pushed trace, and every window closed
        // mid-stream or at the end matches the offline clip oracle on it.
        let full = asm.finalize();
        prop_assert_eq!(&full, &trace);
        asm.advance_windows(&full);
        served.extend(asm.windows());
        assert_windows_match_oracle(&served, &full, 16);
    }
}

/// `chunky_trace()` delivered one frame at a time, in push order, with a
/// snapshot after each frame: the windows each snapshot has closed are
/// pinned, and every window closed before the session ends already
/// equals the offline oracle over the *final* trace, so the watermark
/// never closes a window that a later event could still change.
#[test]
fn chunky_windows_close_at_fixed_cuts() {
    const WIDTH: Ts = 100;
    let trace = chunky_trace();
    let frames: Vec<RawFrame> =
        trace_frames(&trace).iter().map(|f| RawFrame::encode(f).unwrap()).collect();
    let mut asm = SessionAssembler::new();
    asm.set_window(WIDTH);
    let mut closed: Vec<Vec<u64>> = Vec::new();
    for frame in &frames {
        asm.apply_raw(frame);
        let snap = SessionSnapshot::compute(1, "fixture".into(), &mut asm, 0, 0, 0);
        if !snap.ended {
            assert_windows_match_oracle(&snap.windows, &trace, WIDTH);
        }
        closed.push(snap.windows.iter().map(|w| w.index).collect());
    }
    // Nothing closes while the worker is announced but empty; the main
    // thread has exited by the worker's first frame, so the worker's
    // frontier walks the windows forward, and its exit closes them all.
    const CLOSED: [u64; 17] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 5, 7, 13, 13];
    let expected: Vec<Vec<u64>> = CLOSED.iter().map(|&n| (0..n).collect()).collect();
    assert_eq!(closed, expected);
}

/// Satellite: closed sliding windows served by a live collector equal
/// the offline `window::clip` + `analyze` of the same spans, and the
/// rollup annotation carries the latest of them.
#[test]
fn live_windows_match_offline_clip_exactly() {
    const WIDTH: Ts = 100;
    let mut config = test_config();
    config.window_width = Some(WIDTH);
    let handle = start(config).unwrap();
    let trace = chunky_trace();
    push(handle.ingest_addr(), &trace, None).unwrap();

    wait_for(&handle, "pushed session to end", |s| s.sessions.first().is_some_and(|x| x.ended));
    let status = handle.status();
    let snap = &status.sessions[0];
    assert_eq!(snap.report, analyze(&trace));
    assert!(!snap.windows.is_empty(), "an ended session must have closed its windows");
    assert_windows_match_oracle(&snap.windows, &trace, WIDTH);
    // With the session ended, the final window reaches the trace end.
    let makespan = trace.threads.iter().flat_map(|s| s.events.iter()).map(|e| e.ts).max().unwrap();
    assert_eq!(snap.windows.last().unwrap().index, makespan / WIDTH);

    // The rollup digest is annotated with the most recent closed window.
    let rollup = handle.rollup();
    let digest = rollup.sessions.values().next().unwrap();
    assert_eq!(digest.window.as_ref(), snap.windows.last());
    handle.shutdown();
}

/// Satellite: the fault matrix of PR 2 composed with incremental
/// maintenance — under every built-in transport fault plan, a resumable
/// push still yields a live snapshot whose report and closed windows
/// both equal the offline oracles.
#[test]
fn fault_matrix_preserves_report_and_window_exactness() {
    const WIDTH: Ts = 100;
    let trace = chunky_trace();
    let offline = analyze(&trace);
    for plan in FaultPlan::all_builtin() {
        let name = plan.name.clone();
        let mut config = test_config();
        config.window_width = Some(WIDTH);
        // Short idle timeout so the stall plan degrades into a severed
        // connection the client must recover from.
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

        let status = handle.status();
        let snap = &status.sessions[0];
        assert_eq!(snap.report, offline, "plan `{name}`: snapshot != offline");
        assert!(!snap.windows.is_empty(), "plan `{name}`: no closed windows");
        assert_windows_match_oracle(&snap.windows, &trace, WIDTH);
        handle.shutdown();
    }
}

/// Satellite regression: kill the collector mid-stream, restart on the
/// same journal, resume the push — the post-recovery snapshot must not
/// be served stale. The dirty check is keyed on applied events as well
/// as frames, so the replayed journal frames and the resumed tail are
/// never conflated; the final report and windows both equal the offline
/// oracles.
#[test]
fn recovery_resume_snapshot_is_never_stale() {
    const WIDTH: Ts = 100;
    let dir = tmpdir("recovery");
    let trace = chunky_trace();
    let frames = trace_frames(&trace);
    let token = b"incremental-recovery".to_vec();

    let mut config = test_config();
    config.journal_dir = Some(dir.clone());
    config.window_width = Some(WIDTH);
    let handle = start(config).unwrap();

    // Partial push by hand: handshake with a resume token, a prefix of
    // frames, then the producer "dies" (no End frame).
    let stream = Stream::connect(handle.ingest_addr()).unwrap();
    let handshake = Handshake { token: token.clone(), start_seq: 0 };
    let mut writer = StreamWriter::with_handshake(stream, &handshake).unwrap();
    let prefix = frames.len() / 2;
    for frame in &frames[..prefix] {
        writer.write_frame(frame).unwrap();
    }
    writer.flush().unwrap();
    wait_for(&handle, "prefix to be journaled", |s| {
        s.sessions.first().is_some_and(|snap| snap.frames == prefix as u64)
    });
    handle.crash();
    drop(writer);

    // Restart on the same journal: the session comes back, its snapshot
    // recomputed from the replayed frames (not carried over blindly).
    let mut config = test_config();
    config.journal_dir = Some(dir.clone());
    config.window_width = Some(WIDTH);
    let handle = start(config).unwrap();
    let status = handle.status();
    assert_eq!(status.recovered_sessions, 1, "status: {status:?}");
    assert_eq!(status.sessions[0].frames, prefix as u64);
    assert!(status.sessions[0].events > 0, "recovered snapshot must count replayed events");

    // Resume with the same token and finish.
    let opts = PushOptions {
        timeout: Some(Duration::from_secs(10)),
        retry: RetryPolicy::with_attempts(8),
        token: Some(token),
        ..PushOptions::default()
    };
    push_with(handle.ingest_addr(), &trace, &opts).unwrap();
    wait_for(&handle, "resumed session to end", |s| s.sessions.first().is_some_and(|x| x.ended));

    let status = handle.status();
    assert_eq!(status.sessions.len(), 1, "resume must not open a second session");
    let snap = &status.sessions[0];
    assert_eq!(snap.report, analyze(&trace), "post-recovery snapshot served stale");
    assert!(!snap.windows.is_empty());
    assert_windows_match_oracle(&snap.windows, &trace, WIDTH);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
