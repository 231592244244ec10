//! Serial replay of one recorded session through the collector's layers,
//! calling each layer's public function directly so its self-time is
//! measured alone: CLSM encode, frame validation, journal append, the
//! frame queue, the assembler, the snapshot, status rendering, and the
//! analysis stages on the finalized trace.

use crate::stats::{ms, Metrics, Spans};
use critlock_analysis::cp::critical_path_segmented;
use critlock_analysis::{analyze_with, SegmentedTrace};
use critlock_collector::{
    Backpressure, CollectorStatus, FrameQueue, JournalOptions, SessionAssembler, SessionJournal,
    SessionSnapshot,
};
use critlock_trace::codec::{read_trace_bytes, write_trace};
use critlock_trace::stream::{Frame, RawFrame, StreamReader, StreamWriter, STREAM_VERSION};
use std::path::Path;
use std::time::Instant;

/// Queue capacity the collector ships with (`CollectorConfig::new`).
const QUEUE_CAPACITY: usize = 256;

/// Replay `frames` (one complete session of `events` events) and add one
/// sample per layer metric to `spans`. Frames are appended to a session
/// journal in `journal_dir`, synced at `End` as the collector does, and
/// the journal file is removed afterwards. The finalized trace is also
/// written as a trace file and decoded again (`codec.decode_ms`).
pub fn replay_session(
    frames: &[Frame],
    events: u64,
    journal_dir: &Path,
    id: u64,
    spans: &mut Spans,
) -> Result<(), String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let per_frame = |d: std::time::Duration| d.as_nanos() as f64 / frames.len() as f64;
    let per_event = |d: std::time::Duration| d.as_nanos() as f64 / events.max(1) as f64;

    let mut writer = StreamWriter::new(Vec::new()).map_err(|e| err("encode", &e))?;
    let start = Instant::now();
    for frame in frames {
        writer.write_frame(frame).map_err(|e| err("encode", &e))?;
    }
    spans.add("stream.encode_ns_per_frame", per_frame(start.elapsed()));
    let bytes = writer.into_inner();

    let mut reader = StreamReader::new(&bytes[..]).map_err(|e| err("validate", &e))?;
    let mut raw: Vec<RawFrame> = Vec::with_capacity(frames.len());
    let start = Instant::now();
    while let Some(frame) = reader.next_frame_raw().map_err(|e| err("validate", &e))? {
        raw.push(frame);
    }
    spans.add("stream.validate_ns_per_frame", per_frame(start.elapsed()));

    let mut journal = SessionJournal::create(journal_dir, b"", id, JournalOptions::default())
        .map_err(|e| err("journal", &e))?;
    let start = Instant::now();
    for frame in &raw {
        journal.append_raw(frame).map_err(|e| err("journal", &e))?;
        if frame.is_end() {
            journal.sync().map_err(|e| err("journal", &e))?;
        }
    }
    spans.add("journal.append_ns_per_frame", per_frame(start.elapsed()));
    let path = journal.path();
    drop(journal);
    let len = std::fs::metadata(&path).map_err(|e| err("journal", &e))?.len();
    spans.add("journal.bytes_per_event", len as f64 / events.max(1) as f64);
    let _ = std::fs::remove_file(&path);

    let queue = FrameQueue::new(QUEUE_CAPACITY, Backpressure::Block);
    let mut drained = Vec::with_capacity(raw.len());
    let mut pending = raw.clone().into_iter();
    let start = Instant::now();
    loop {
        let mut pushed = 0;
        for frame in pending.by_ref().take(QUEUE_CAPACITY) {
            queue.push(frame);
            pushed += 1;
        }
        if pushed == 0 {
            break;
        }
        drained.extend(queue.drain());
    }
    spans.add("queue.push_drain_ns_per_frame", per_frame(start.elapsed()));
    if drained.len() != raw.len() {
        return Err(format!("queue returned {} of {} frames", drained.len(), raw.len()));
    }

    let mut asm = SessionAssembler::new();
    let start = Instant::now();
    for frame in &drained {
        asm.apply_raw(frame);
    }
    spans.add("assembler.apply_ns_per_event", per_event(start.elapsed()));

    let snap = spans.time("snapshot.compute_ms", || {
        SessionSnapshot::compute(id, "replay".into(), &mut asm, 0, 0, 0)
    });
    if snap.events != events {
        return Err(format!("replayed snapshot holds {}/{events} events", snap.events));
    }

    let status = CollectorStatus {
        protocol_version: STREAM_VERSION,
        sessions_total: 1,
        rejected_sessions: 0,
        timed_out_sessions: 0,
        resumed_sessions: 0,
        recovered_sessions: 0,
        shed_sessions: 0,
        quota_stopped_sessions: 0,
        worker_panics: 0,
        forward: None,
        shards: Vec::new(),
        sessions: vec![snap],
    };
    let start = Instant::now();
    let text = status.render_json()?;
    let parsed = CollectorStatus::parse_json(&text)?;
    spans.add("status.render_ms", ms(start.elapsed()));
    if parsed.sessions.len() != 1 {
        return Err("status round trip lost the session".into());
    }

    let trace = asm.finalize();
    let mut file = Vec::new();
    write_trace(&trace, &mut file).map_err(|e| err("codec", &e))?;
    let decoded = spans.time("codec.decode_ms", || read_trace_bytes(&file));
    if decoded.map_err(|e| err("codec", &e))? != trace {
        return Err("decoded trace file differs from the finalized trace".into());
    }
    let segments = spans.time("segments.build_ms", || SegmentedTrace::build(&trace));
    let cp = spans.time("cp.walk_ms", || critical_path_segmented(&trace, &segments));
    let report = spans.time("metrics.analyze_with_ms", || analyze_with(&trace, &cp));
    if report != parsed.sessions[0].report {
        return Err("staged analysis differs from the snapshot's report".into());
    }
    Ok(())
}

/// Layer metrics measured by [`replay_session`], with their units.
const REPLAYED: [(&str, &str); 12] = [
    ("codec.decode_ms", "ms"),
    ("stream.encode_ns_per_frame", "ns"),
    ("stream.validate_ns_per_frame", "ns"),
    ("journal.append_ns_per_frame", "ns"),
    ("journal.bytes_per_event", "B"),
    ("queue.push_drain_ns_per_frame", "ns"),
    ("assembler.apply_ns_per_event", "ns"),
    ("snapshot.compute_ms", "ms"),
    ("status.render_ms", "ms"),
    ("segments.build_ms", "ms"),
    ("cp.walk_ms", "ms"),
    ("metrics.analyze_with_ms", "ms"),
];

/// Medians of the replayed layer samples in `spans`.
pub fn layer_metrics(spans: &Spans, metrics: &mut Metrics) {
    for (name, unit) in REPLAYED {
        metrics.set(name, spans.median(name), unit);
    }
}

/// `collector.wait_ms_per_session`: the real run's median `visible` span
/// minus the replayed self-times of the work that must follow a session's
/// last frame (the snapshot and the status render). What remains is the
/// collector's poll sleep, applying the frames still queued, and socket
/// time.
pub fn wait_ms(spans: &Spans) -> f64 {
    spans.median("visible") - spans.median("snapshot.compute_ms") - spans.median("status.render_ms")
}
