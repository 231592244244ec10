//! Incremental-maintenance exactness tests: however the frame stream is
//! batched, closed sliding windows served live must equal the offline
//! `clip` + `analyze` of the same spans over the final trace; and served
//! reports and windows must survive transport faults and crash-recovery
//! (the snapshot dirty check keyed on applied events, not just frames,
//! so replayed frames after journal recovery are never conflated with
//! new ones).
//!
//! The served-report oracle: every refresh serves `analyze(repair(p))`
//! of the partial trace `p` it saw, and leaves `p` as it was, whether it
//! analyzed `p` in place with the streams' closes appended or took the
//! copy path through `repair`. A clean session never takes the copy path.

use critlock_analysis::{analyze, clip, digest_window, AnalysisReport};
use critlock_collector::{
    push, push_with, repair, start, Addr, CollectorConfig, CollectorHandle, CollectorStatus,
    PushOptions, SessionAssembler, SessionSnapshot, Stream,
};
use critlock_trace::stream::{trace_frames, Frame, Handshake, RawFrame, StreamWriter};
use critlock_trace::{
    Budget, Event, EventKind, FaultPlan, ObjId, ObjInfo, ObjKind, RetryPolicy, ThreadId, Trace,
    TraceBuilder, Ts,
};
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

/// A main thread forks `workers` threads that fight over a hot lock
/// (blocking on it every other round), take a reader-writer lock, wait
/// on a condvar, meet at a barrier each round, and are joined: every kind
/// of section a refresh can find open.
fn rich_trace(workers: usize, rounds: usize) -> Trace {
    let mut b = TraceBuilder::new("incremental-rich");
    let hot = b.lock("hot");
    let rw = b.rwlock("table");
    let bar = b.barrier("round");
    let cv = b.condvar("go");
    let main = b.thread("main", 0);
    let tids: Vec<_> = (0..workers).map(|i| b.thread(format!("w{i}"), 1)).collect();
    for &t in &tids {
        b.on(main).create(t);
    }
    for r in 0..rounds {
        for (i, &t) in tids.iter().enumerate() {
            let now = b.now(t);
            if (r + i) % 2 == 0 {
                b.on(t).cs_blocked(hot, now + 2, 3);
            } else {
                b.on(t).cs(hot, 2);
            }
            b.on(t).rw(rw, i % 2 == 0, 1).work(i as u64 + 1);
            if r % 3 == 0 {
                let now = b.now(t);
                b.on(t).cond_wait_unmatched(cv, now + 1);
            }
        }
        let depart = tids.iter().map(|&t| b.now(t)).max().unwrap_or(0) + 1;
        for &t in &tids {
            b.on(t).barrier(bar, r as u32, depart);
        }
    }
    for &t in &tids {
        b.on(t).exit();
        let end = b.now(t).max(b.now(main));
        b.on(main).join(t, end);
    }
    b.on(main).exit();
    b.build().unwrap()
}

/// `trace`'s frames with the streams' events interleaved: one `Events`
/// frame per stream in turn, sized from `sizes` in turn, so that every
/// stream is cut at points that vary.
fn interleaved_frames(trace: &Trace, sizes: &[usize]) -> Vec<RawFrame> {
    let mut frames: Vec<Frame> = trace_frames(trace)
        .into_iter()
        .filter(|f| !matches!(f, Frame::Events { .. } | Frame::End))
        .collect();
    let mut next = vec![0; trace.threads.len()];
    let mut k = 0;
    while next.iter().zip(&trace.threads).any(|(&i, s)| i < s.events.len()) {
        for (i, stream) in next.iter_mut().zip(&trace.threads) {
            let end = (*i + sizes[k % sizes.len()]).min(stream.events.len());
            k += 1;
            if *i < end {
                frames.push(Frame::Events {
                    tid: stream.tid,
                    events: stream.events[*i..end].to_vec(),
                });
                *i = end;
            }
        }
    }
    frames.push(Frame::End);
    frames.iter().map(|f| RawFrame::encode(f).unwrap()).collect()
}

/// Refresh `asm` as the collector does. The served report must be
/// `analyze(repair(p))` of the partial trace `p`, and `p` must be left as
/// it was. Returns the snapshot and whether it took the copy path.
#[track_caller]
fn refresh_checked(asm: &mut SessionAssembler) -> (SessionSnapshot, bool) {
    let partial = asm.partial().clone();
    let copies = asm.copy_refreshes();
    let snap = SessionSnapshot::compute(1, "oracle".into(), asm, 0, 0, 0);
    assert_eq!(asm.partial(), &partial, "the refresh changed the partial trace");
    assert_eq!(snap.report, analyze(&repair(&partial)), "served != analyze(repair(partial))");
    (snap, asm.copy_refreshes() > copies)
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
            asm.analyze_repaired();
            served.extend(asm.windows());
        }
        for frame in &frames[i..] {
            asm.apply_raw(frame);
        }

        // The assembled trace is the pushed trace, and every window closed
        // mid-stream or at the end matches the offline clip oracle on it.
        let full = asm.finalize();
        prop_assert_eq!(&full, &trace);
        asm.analyze_repaired();
        served.extend(asm.windows());
        assert_windows_match_oracle(&served, &full, 16);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A clean session delivered in random batches of interleaved frames,
    /// refreshed after each batch, so the streams' closes are appended
    /// and taken off again many times, with windowing on or off and the
    /// assembler checkpointed and restored once: each refresh serves
    /// `analyze(repair(partial))` in place, and the windows it closes
    /// match the offline oracle over the final trace.
    #[test]
    fn served_report_is_repair_of_the_partial_at_every_refresh(
        workers in 1usize..4,
        rounds in 1usize..10,
        sizes in prop::collection::vec(1usize..24, 1..6),
        batches in prop::collection::vec(1usize..6, 1..8),
        windowed in any::<bool>(),
        restore_at in 0usize..40,
    ) {
        const WIDTH: Ts = 16;
        let trace = rich_trace(workers, rounds);
        let frames = interleaved_frames(&trace, &sizes);
        let window = windowed.then_some(WIDTH);
        let mut asm = SessionAssembler::new();
        if let Some(width) = window {
            asm.set_window(width);
        }
        let mut served = Vec::new();
        let mut copies = 0;
        let mut delivered = 0;
        for (k, &batch) in batches.iter().cycle().enumerate() {
            for frame in &frames[delivered..(delivered + batch).min(frames.len())] {
                asm.apply_raw(frame);
            }
            delivered = (delivered + batch).min(frames.len());
            if k == restore_at {
                asm = SessionAssembler::restore(asm.checkpoint_doc(b"t"), Budget::default(), window);
            }
            let (snap, copied) = refresh_checked(&mut asm);
            copies += u64::from(copied);
            served.extend(snap.windows);
            if delivered == frames.len() {
                break;
            }
        }
        prop_assert_eq!(asm.partial(), &trace);
        prop_assert_eq!(copies, 0, "a clean session took the copy path");
        assert_windows_match_oracle(&served, &trace, WIDTH);
    }
}

/// Each input that makes `repair` change the partial trace, or that the
/// cursors cannot vouch for, sends a refresh down the copy path, and the
/// served report stays `analyze(repair(partial))` there and after: an
/// orphan event (a dirty cursor), a thread-id gap, a peer named past the
/// streams, threads announced out of order, events on objects not yet
/// registered, and registrations that change a slot's kind. Streams stay
/// in thread-id order, and a refresh after the fault has passed goes
/// back to the partial trace in place.
#[test]
fn every_copy_path_trigger_keeps_the_served_report_exact() {
    use EventKind::*;
    let (hot, cv) = (ObjId(0), ObjId(1));
    let objects = |kinds: &[ObjKind]| -> Vec<ObjInfo> {
        kinds.iter().map(|&kind| ObjInfo { kind, name: format!("{kind:?}") }).collect()
    };
    let apply = |asm: &mut SessionAssembler, frame: Frame| {
        asm.apply_raw(&RawFrame::encode(&frame).unwrap());
    };
    let events = |tid: u32, events: &[(Ts, EventKind)]| Frame::Events {
        tid: ThreadId(tid),
        events: events.iter().map(|&(ts, kind)| Event::new(ts, kind)).collect(),
    };
    let thread = |tid: u32| Frame::Thread { tid: ThreadId(tid), name: None };
    let start = || {
        let mut asm = SessionAssembler::new();
        apply(&mut asm, Frame::Start { meta: Default::default() });
        asm
    };
    let open_hold =
        [(0, ThreadStart), (1, LockAcquire { lock: hot }), (2, LockObtain { lock: hot })];

    // A dirty cursor: an orphan release after the hold is released.
    let mut asm = start();
    apply(&mut asm, Frame::Objects { first_id: 0, objects: objects(&[ObjKind::Lock]) });
    apply(&mut asm, thread(0));
    apply(&mut asm, events(0, &open_hold));
    assert!(!refresh_checked(&mut asm).1, "a clean stream is analyzed in place");
    apply(&mut asm, events(0, &[(3, LockRelease { lock: hot }), (4, LockRelease { lock: hot })]));
    assert!(refresh_checked(&mut asm).1, "an orphan must take the copy path");

    // Threads announced out of order leave a gap until the last arrives;
    // a peer named before its stream is announced is a gap too.
    let mut asm = start();
    apply(&mut asm, Frame::Objects { first_id: 0, objects: objects(&[ObjKind::Lock]) });
    apply(&mut asm, thread(2));
    apply(&mut asm, events(2, &open_hold));
    assert!(refresh_checked(&mut asm).1, "streams 0 and 1 are missing");
    apply(&mut asm, thread(0));
    apply(&mut asm, events(0, &[(0, ThreadStart), (1, ThreadCreate { child: ThreadId(1) })]));
    assert!(refresh_checked(&mut asm).1, "stream 1 is missing");
    apply(&mut asm, thread(1));
    apply(&mut asm, events(1, &[(1, ThreadStart)]));
    assert!(!refresh_checked(&mut asm).1, "dense again");
    apply(&mut asm, events(1, &[(2, ThreadCreate { child: ThreadId(3) })]));
    assert!(refresh_checked(&mut asm).1, "thread 3 is named but has no stream");
    let tids: Vec<u32> = asm.partial().threads.iter().map(|s| s.tid.0).collect();
    assert_eq!(tids, [0, 1, 2], "streams must stay in thread-id order");

    // A slot re-registered with another kind turns the lock events on it
    // into orphans: the cursors step again and the stream is dirty.
    let mut asm = start();
    apply(&mut asm, Frame::Objects { first_id: 0, objects: objects(&[ObjKind::Lock]) });
    apply(&mut asm, thread(0));
    apply(&mut asm, events(0, &open_hold));
    assert!(!refresh_checked(&mut asm).1);
    apply(&mut asm, Frame::Objects { first_id: 0, objects: objects(&[ObjKind::Condvar]) });
    assert!(refresh_checked(&mut asm).1, "the hold is on a condvar now");

    // Events on an object past the registry are dropped by the cursor
    // (repair infers the lock) until the registry grows to hold it.
    let mut asm = start();
    apply(&mut asm, thread(0));
    apply(&mut asm, events(0, &open_hold));
    assert!(refresh_checked(&mut asm).1, "lock 0 is not registered yet");
    apply(&mut asm, Frame::Objects { first_id: 0, objects: objects(&[ObjKind::Lock]) });
    assert!(!refresh_checked(&mut asm).1, "the registration makes the stream clean");

    // A registration gap: lock events on the `Marker` placeholder are
    // dropped by the cursor (repair infers the lock), until the late
    // registration fills the slot and the cursors step again.
    let mut asm = start();
    apply(&mut asm, Frame::Objects { first_id: 1, objects: objects(&[ObjKind::Condvar]) });
    apply(&mut asm, thread(0));
    apply(&mut asm, events(0, &open_hold));
    apply(&mut asm, events(0, &[(3, CondWaitBegin { cv })]));
    assert!(refresh_checked(&mut asm).1, "slot 0 is a placeholder");
    apply(&mut asm, Frame::Objects { first_id: 0, objects: objects(&[ObjKind::Lock]) });
    assert!(!refresh_checked(&mut asm).1, "the filled slot makes the stream clean");
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
/// both equal the offline oracles. The push is paced and the status
/// polled while it runs, and each report served mid-push is
/// `analyze(repair(p))` of the partial trace `p` of the frames it counts.
#[test]
fn fault_matrix_preserves_report_and_window_exactness() {
    const WIDTH: Ts = 100;
    let trace = chunky_trace();
    let offline = analyze(&trace);
    // The report of every prefix of the pushed frames.
    let mut asm = SessionAssembler::new();
    let mut prefix: Vec<AnalysisReport> = vec![analyze(&asm.finalize())];
    for frame in trace_frames(&trace) {
        asm.apply_raw(&RawFrame::encode(&frame).unwrap());
        prefix.push(analyze(&asm.finalize()));
    }
    for plan in FaultPlan::all_builtin() {
        let name = plan.name.clone();
        let mut config = test_config();
        config.window_width = Some(WIDTH);
        // Short idle timeout so the stall plan degrades into a severed
        // connection the client must recover from.
        config.idle_timeout = Some(Duration::from_millis(200));
        let handle = start(config).unwrap();

        let opts = PushOptions {
            pace: Some(Duration::from_millis(2)),
            timeout: Some(Duration::from_secs(10)),
            retry: RetryPolicy::with_attempts(8),
            fault_plan: Some(plan),
            ..PushOptions::default()
        };
        let polled = std::thread::scope(|scope| {
            let push = scope.spawn(|| push_with(handle.ingest_addr(), &trace, &opts));
            let mut polled = 0;
            while !push.is_finished() {
                for snap in handle.status().sessions {
                    let frames = snap.frames as usize;
                    assert_eq!(snap.report, prefix[frames], "plan `{name}`: stale at {frames}");
                    polled += 1;
                }
            }
            push.join().unwrap().unwrap_or_else(|e| panic!("plan `{name}`: push failed: {e}"));
            polled
        });
        assert!(polled > 0, "plan `{name}`: no report served mid-push");
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
