//! The collector side shared by `live` and `app`: a collector with the
//! shipping defaults per session, completion detection from its counters,
//! and the one status request each session is allowed.
//!
//! Completion is read from `critlock_events_in_total` rather than by
//! polling status: every status request on a session with new frames
//! re-runs the snapshot analysis, so polling status would itself load
//! the pipeline being measured.

use critlock_collector::{
    fetch_status_timeout, start, Addr, CollectorConfig, CollectorHandle, SessionSnapshot,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Bound on every socket operation and on waiting for a session to
/// become visible. A session that misses it counts as failed.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How often the collector's counters are read while waiting.
const POLL: Duration = Duration::from_micros(500);

/// A collector with `CollectorConfig::new` defaults on ephemeral
/// loopback ports, journaling into `journal_dir` when given.
pub fn start_collector(journal_dir: Option<PathBuf>) -> Result<CollectorHandle, String> {
    let loopback = || Addr::parse("127.0.0.1:0").expect("loopback address parses");
    let mut config = CollectorConfig::new(loopback());
    config.status_addr = Some(loopback());
    config.journal_dir = journal_dir;
    start(config).map_err(|e| format!("collector start: {e}"))
}

/// The collector's counters after one session, read from
/// `metrics_snapshot` once the session's report was served.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub refreshes: u64,
    pub skips: u64,
    pub queue_high_water: u64,
    pub frames_dropped: u64,
    pub crc_failed: u64,
}

impl Counters {
    pub fn read(handle: &CollectorHandle) -> Counters {
        let m = handle.metrics_snapshot();
        let counter = |name: &str| m.counter(name).unwrap_or(0);
        Counters {
            refreshes: counter("critlock_snapshot_refreshes_total"),
            skips: counter("critlock_snapshot_skips_total"),
            queue_high_water: m.gauge("critlock_queue_high_water").unwrap_or(0),
            frames_dropped: counter("critlock_frames_queue_dropped_total")
                + counter("critlock_frames_quota_dropped_total"),
            crc_failed: counter("critlock_frames_crc_failed_total"),
        }
    }
}

/// A session's served report and how long its phases took.
pub struct Served {
    pub snapshot: SessionSnapshot,
    /// The status request alone.
    pub status: Duration,
    /// When the status response was in hand.
    pub visible_at: Instant,
}

/// Wait (bounded) until the collector has applied `events` events, then
/// send exactly one status request and return the collector's single
/// session from it. Counts the request in `requests`.
pub fn await_report(
    handle: &CollectorHandle,
    events: u64,
    requests: &mut u64,
) -> Result<Served, String> {
    let status_addr = handle.status_addr().expect("status endpoint configured").clone();
    let applied = || handle.metrics_snapshot().counter("critlock_events_in_total").unwrap_or(0);
    if !crate::stats::poll_until(IO_TIMEOUT, POLL, || applied() >= events) {
        return Err(format!("session not visible within {IO_TIMEOUT:?} ({}/{events})", applied()));
    }
    let asked = Instant::now();
    *requests += 1;
    let status = fetch_status_timeout(&status_addr, Some(IO_TIMEOUT))
        .map_err(|e| format!("status request: {e}"))?;
    let visible_at = Instant::now();
    let [snapshot]: [SessionSnapshot; 1] = status
        .sessions
        .try_into()
        .map_err(|s: Vec<_>| format!("status lists {} sessions, expected 1", s.len()))?;
    Ok(Served { snapshot, status: visible_at - asked, visible_at })
}
