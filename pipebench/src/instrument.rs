//! The instrument layer measured on its own: a timing `Write` for the
//! sink handed to `Session::stream_to_writer`, and the recording-cost
//! probe (instrumented minus plain lock/unlock pairs on one thread).

use crate::stats::{median, Metrics};
use critlock_instrument::Session;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counts and times every write a session's sink makes; optionally keeps
/// a copy of the bytes for the layer replay.
#[derive(Default)]
pub struct SinkStats {
    writes: AtomicU64,
    ns: AtomicU64,
    bytes: AtomicU64,
    copy: Option<Mutex<Vec<u8>>>,
}

impl SinkStats {
    pub fn copying() -> SinkStats {
        SinkStats { copy: Some(Mutex::new(Vec::new())), ..SinkStats::default() }
    }

    /// Add this session's sink time (ms), write count and bytes per event
    /// as samples of the `instrument.sink_*` spans.
    pub fn record(&self, events: u64, spans: &mut crate::stats::Spans) {
        spans.add("instrument.sink_write_ms", self.ns.load(Ordering::Relaxed) as f64 / 1e6);
        spans.add("instrument.sink_writes", self.writes.load(Ordering::Relaxed) as f64);
        let bytes = self.bytes.load(Ordering::Relaxed) as f64;
        spans.add("instrument.sink_bytes_per_event", bytes / events.max(1) as f64);
    }

    /// The bytes copied so far, if this sink copies.
    pub fn take_copy(&self) -> Option<Vec<u8>> {
        self.copy.as_ref().map(|c| std::mem::take(&mut *c.lock().expect("sink copy lock")))
    }
}

pub struct TimedSink<W> {
    pub inner: W,
    pub stats: Arc<SinkStats>,
}

impl<W: Write> Write for TimedSink<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let start = Instant::now();
        let n = self.inner.write(buf)?;
        self.stats.ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(n as u64, Ordering::Relaxed);
        if let Some(copy) = &self.stats.copy {
            copy.lock().expect("sink copy lock").extend_from_slice(&buf[..n]);
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Lock/unlock pairs per probe session.
const PROBE_PAIRS: usize = 100_000;

/// Recording cost per event, as `instrument.record_ns_per_event`: pairs
/// on an instrumented mutex whose session streams into a timed
/// discarding sink, minus the same pairs on the plain `parking_lot`
/// mutex it wraps, over the events recorded. Median of five sessions.
/// With `sink_metrics`, the probe sessions' sink figures also become the
/// `instrument.sink_*` metrics (for workloads without a live app).
pub fn probe(sink_metrics: bool, metrics: &mut Metrics) -> Result<(), String> {
    let mut spans = crate::stats::Spans::default();
    let mut costs = Vec::new();
    for _ in 0..5 {
        let stats = Arc::new(SinkStats::default());
        let session = Session::new("pipebench-record");
        let sink = TimedSink { inner: std::io::sink(), stats: Arc::clone(&stats) };
        if let Err(e) = session.stream_to_writer(sink) {
            let _ = session.finish();
            return Err(format!("attach: {e}"));
        }
        let instrumented = session.mutex("m", 0u64);
        let plain = parking_lot::Mutex::new(0u64);
        let start = Instant::now();
        for _ in 0..PROBE_PAIRS {
            *instrumented.lock() += 1;
        }
        let with = start.elapsed();
        let start = Instant::now();
        for _ in 0..PROBE_PAIRS {
            *plain.lock() += 1;
        }
        let without = start.elapsed();
        std::hint::black_box((*instrumented.lock(), *plain.lock()));
        let trace = session.finish().map_err(|e| format!("finish: {e}"))?;
        // Everything but the main thread's start and exit.
        let events = trace.num_events().saturating_sub(2).max(1) as u64;
        costs.push((with.as_nanos() as f64 - without.as_nanos() as f64) / events as f64);
        stats.record(events, &mut spans);
    }
    metrics.set("instrument.record_ns_per_event", median(&costs), "ns");
    if sink_metrics {
        set_sink_metrics(&spans, metrics);
    }
    Ok(())
}

/// Medians of the `instrument.sink_*` samples in `spans`.
pub fn set_sink_metrics(spans: &crate::stats::Spans, metrics: &mut Metrics) {
    metrics.set("instrument.sink_write_ms", spans.median("instrument.sink_write_ms"), "ms");
    metrics.set("instrument.sink_writes", spans.median("instrument.sink_writes"), "count");
    let per_event = spans.median("instrument.sink_bytes_per_event");
    metrics.set("instrument.sink_bytes_per_event", per_event, "B");
}
