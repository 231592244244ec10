//! Collector-wide observability: every subsystem's metric handles in one
//! place, backed by a [`MetricsRegistry`].
//!
//! Naming scheme: `critlock_<noun>[_<qualifier>]_total` for monotonic
//! counters, `critlock_<noun>` for gauges, `critlock_<noun>_ns` for
//! latency histograms (nanosecond buckets). Every handle is a relaxed
//! atomic; incrementing on the frame path costs one RMW and takes no lock.
//!
//! The frame counters are designed to satisfy a conservation law (checked
//! by the `metrics` integration tests): every frame decoded from a socket
//! is accounted to exactly one fate, so
//!
//! ```text
//! frames_in_total == frames_assembled_total      (queued for analysis)
//!                  + frames_replayed_total       (duplicate of a resume overlap)
//!                  + frames_gap_rejected_total   (producer skipped ahead)
//!                  + frames_quota_dropped_total  (byte quota tripped)
//!                  + frames_queue_dropped_total  (Drop backpressure / closed queue)
//! ```

use crate::snapshot::SnapshotStageTimers;
use critlock_obs::{Counter, Gauge, Histogram, MetricsRegistry, DEFAULT_LATENCY_BOUNDS_NS};

/// The journal-facing subset of the collector metrics, threaded into
/// [`crate::journal::SessionJournal`] so append/sync accounting lives
/// where the I/O happens.
#[derive(Debug, Clone)]
pub struct JournalCounters {
    /// Successful frame appends.
    pub appends: Counter,
    /// Failed appends (the session degrades to unjournaled).
    pub append_failures: Counter,
    /// Explicit fsyncs.
    pub syncs: Counter,
    /// Every journal I/O failure: failed appends, syncs, header writes,
    /// rotations — the single counter alerting should watch.
    pub errors: Counter,
    /// Segment rotations (a full segment was closed and a new one opened).
    pub rotations: Counter,
}

/// Per-shard metric handles, one set per ingestion shard, registered as
/// labelled series (`critlock_shard_sessions_total{shard="3"}`) so a
/// scrape shows the fleet split alongside the collector-wide totals.
/// Shard counters are the *source of truth* for the per-shard status
/// lines: the status endpoint reads them back with [`Counter::get`].
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// Sessions accepted (or recovered) into this shard.
    pub sessions_total: Counter,
    /// Connections on this shard severed by the idle timeout.
    pub sessions_timed_out: Counter,
    /// Reconnections that resumed one of this shard's sessions.
    pub sessions_resumed: Counter,
    /// Sessions recovered into this shard from journals at startup.
    pub sessions_recovered: Counter,
    /// Connections shed by this shard's admission cap.
    pub sessions_shed: Counter,
    /// Sessions on this shard stopped by the byte quota.
    pub sessions_quota_stopped: Counter,
    /// Analysis worker panics caught on this shard (each one quarantines
    /// the poisoned session).
    pub worker_panics: Counter,
    /// Sessions currently tracked by this shard (scrape-time gauge).
    pub sessions_active: Gauge,
    /// Frames currently queued across this shard's sessions.
    pub queue_depth: Gauge,
    /// Deepest any of this shard's session queues has ever been.
    pub queue_high_water: Gauge,
}

/// Handles for every metric the collector maintains. Cloning is cheap
/// (shared atomics) — each session holds a clone.
#[derive(Debug, Clone)]
pub struct CollectorMetrics {
    /// The registry behind the handles; renders the scrape text.
    pub registry: MetricsRegistry,

    /// Frames decoded off sockets (before any admission decision).
    pub frames_in: Counter,
    /// Frames accepted into a session queue for assembly.
    pub frames_assembled: Counter,
    /// Duplicate frames skipped during a resume replay overlap.
    pub frames_replayed: Counter,
    /// Frames rejected because the producer skipped ahead of the
    /// acknowledged sequence (connection is severed).
    pub frames_gap_rejected: Counter,
    /// Frames discarded because the session crossed its byte quota.
    pub frames_quota_dropped: Counter,
    /// Frames dropped by `Drop` backpressure or a closed queue.
    pub frames_queue_dropped: Counter,
    /// Connections ended by a frame CRC / decode failure.
    pub frames_crc_failed: Counter,
    /// Frame-payload bytes ingested.
    pub bytes_in: Counter,
    /// Events carried by assembled frames (before budget truncation).
    pub events_in: Counter,
    /// Events tail-truncated by the per-session event budget.
    pub events_budget_dropped: Counter,

    /// Sessions started (accepted or recovered) over the collector's life.
    pub sessions_started: Counter,
    /// Connections rejected at the handshake.
    pub sessions_rejected: Counter,
    /// Connections severed by the idle timeout.
    pub sessions_timed_out: Counter,
    /// Reconnections that resumed an existing session.
    pub sessions_resumed: Counter,
    /// Sessions recovered from write-ahead journals at startup.
    pub sessions_recovered: Counter,
    /// Connections shed by admission control.
    pub sessions_shed: Counter,
    /// Sessions stopped by the byte quota.
    pub sessions_quota_stopped: Counter,
    /// Analysis worker panics caught collector-wide.
    pub worker_panics: Counter,
    /// Currently tracked sessions (scrape-time gauge).
    pub sessions_active: Gauge,

    /// Total frames currently queued across sessions (scrape-time gauge).
    pub queue_depth: Gauge,
    /// Deepest any session queue has ever been (scrape-time gauge).
    pub queue_high_water: Gauge,

    /// Successful journal appends.
    pub journal_appends: Counter,
    /// Failed journal appends.
    pub journal_append_failures: Counter,
    /// Journal fsyncs.
    pub journal_syncs: Counter,
    /// Every journal I/O failure (appends, syncs, header writes, rotations).
    pub journal_errors: Counter,
    /// Journal segment rotations.
    pub journal_rotations: Counter,
    /// Journal segments pruned after being fully absorbed by a checkpoint.
    pub journal_segments_pruned: Counter,
    /// Frames replayed out of journals during startup recovery.
    pub journal_frames_recovered: Counter,
    /// Sessions currently running without a journal because of disk
    /// pressure (scrape-time gauge).
    pub journal_degraded_sessions: Gauge,
    /// Bytes of durable state (journals, checkpoints, outbox) charged to
    /// the collector's disk budget (scrape-time gauge).
    pub journal_disk_used_bytes: Gauge,
    /// Durable checkpoints written successfully.
    pub checkpoint_writes: Counter,
    /// Checkpoint write attempts that failed (journal stays authoritative).
    pub checkpoint_failures: Counter,
    /// Sessions restored from a checkpoint (instead of full journal replay)
    /// at startup.
    pub checkpoint_recoveries: Counter,

    /// Successful rollup pushes to the parent collector.
    pub forward_pushes: Counter,
    /// Failed rollup push attempts (primary or fallback).
    pub forward_failures: Counter,
    /// Seconds since the forwarder's last successful push (scrape-time
    /// gauge; 0 until the first success).
    pub forward_last_success_seconds: Gauge,

    /// Analysis-loop passes, summed over shards. Flat while the collector
    /// is idle between snapshot ticks: the loops park instead of polling.
    pub analysis_passes: Counter,
    /// Full snapshot recomputations (repair + analysis).
    pub snapshot_refreshes: Counter,
    /// Snapshot refreshes skipped because no new frame arrived.
    pub snapshot_skips: Counter,
    /// Latency of full snapshot recomputations.
    pub snapshot_refresh_ns: Histogram,
    /// Latency of each stage of a snapshot recomputation.
    pub snapshot_stage_ns: SnapshotStageTimers,
}

impl Default for CollectorMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl CollectorMetrics {
    /// Builds a fresh registry with every collector metric registered.
    pub fn new() -> Self {
        let r = MetricsRegistry::new();
        CollectorMetrics {
            frames_in: r
                .counter("critlock_frames_in_total", "Frames decoded from producer sockets"),
            frames_assembled: r.counter(
                "critlock_frames_assembled_total",
                "Frames accepted into a session queue for assembly",
            ),
            frames_replayed: r.counter(
                "critlock_frames_replayed_total",
                "Duplicate frames skipped during resume replay",
            ),
            frames_gap_rejected: r.counter(
                "critlock_frames_gap_rejected_total",
                "Frames rejected because the producer skipped ahead of the acked sequence",
            ),
            frames_quota_dropped: r.counter(
                "critlock_frames_quota_dropped_total",
                "Frames discarded by the per-session byte quota",
            ),
            frames_queue_dropped: r.counter(
                "critlock_frames_queue_dropped_total",
                "Frames dropped by Drop backpressure or a closed queue",
            ),
            frames_crc_failed: r.counter(
                "critlock_frames_crc_failed_total",
                "Connections ended by a frame CRC or decode failure",
            ),
            bytes_in: r.counter("critlock_bytes_in_total", "Frame-payload bytes ingested"),
            events_in: r.counter(
                "critlock_events_in_total",
                "Events carried by assembled frames, before budget truncation",
            ),
            events_budget_dropped: r.counter(
                "critlock_events_budget_dropped_total",
                "Events tail-truncated by the per-session event budget",
            ),
            sessions_started: r.counter(
                "critlock_sessions_started_total",
                "Sessions accepted or recovered over the collector's lifetime",
            ),
            sessions_rejected: r.counter(
                "critlock_sessions_rejected_total",
                "Connections rejected at the handshake",
            ),
            sessions_timed_out: r.counter(
                "critlock_sessions_timed_out_total",
                "Connections severed by the idle timeout",
            ),
            sessions_resumed: r.counter(
                "critlock_sessions_resumed_total",
                "Reconnections that resumed an existing session by token",
            ),
            sessions_recovered: r.counter(
                "critlock_sessions_recovered_total",
                "Sessions recovered from write-ahead journals at startup",
            ),
            sessions_shed: r
                .counter("critlock_sessions_shed_total", "Connections shed by admission control"),
            sessions_quota_stopped: r.counter(
                "critlock_sessions_quota_stopped_total",
                "Sessions whose ingest was stopped by the byte quota",
            ),
            worker_panics: r.counter(
                "critlock_worker_panics_total",
                "Analysis worker panics caught; each quarantines the poisoned session",
            ),
            sessions_active: r.gauge("critlock_sessions_active", "Currently tracked sessions"),
            queue_depth: r
                .gauge("critlock_queue_depth", "Frames currently queued across all sessions"),
            queue_high_water: r
                .gauge("critlock_queue_high_water", "Deepest any session queue has ever been"),
            journal_appends: r.counter(
                "critlock_journal_appends_total",
                "Successful write-ahead journal appends",
            ),
            journal_append_failures: r.counter(
                "critlock_journal_append_failures_total",
                "Failed journal appends (session degrades to unjournaled)",
            ),
            journal_syncs: r.counter("critlock_journal_syncs_total", "Journal fsyncs"),
            journal_errors: r.counter(
                "critlock_journal_errors_total",
                "Journal I/O failures of any kind (appends, syncs, header writes, rotations)",
            ),
            journal_rotations: r.counter(
                "critlock_journal_rotations_total",
                "Journal segment rotations (full segment closed, new one opened)",
            ),
            journal_segments_pruned: r.counter(
                "critlock_journal_segments_pruned_total",
                "Journal segments deleted after being fully absorbed by a checkpoint",
            ),
            journal_frames_recovered: r.counter(
                "critlock_journal_frames_recovered_total",
                "Frames replayed out of journals during startup recovery",
            ),
            journal_degraded_sessions: r.gauge(
                "critlock_journal_degraded_sessions",
                "Sessions currently ingesting without a journal because of disk pressure",
            ),
            journal_disk_used_bytes: r.gauge(
                "critlock_journal_disk_used_bytes",
                "Bytes of durable state (journals, checkpoints, outbox) on the disk budget",
            ),
            checkpoint_writes: r.counter(
                "critlock_checkpoint_writes_total",
                "Durable session checkpoints written successfully",
            ),
            checkpoint_failures: r.counter(
                "critlock_checkpoint_failures_total",
                "Checkpoint write attempts that failed (journal stays authoritative)",
            ),
            checkpoint_recoveries: r.counter(
                "critlock_checkpoint_recoveries_total",
                "Sessions restored from a checkpoint instead of full journal replay",
            ),
            forward_pushes: r.counter(
                "critlock_forward_pushes_total",
                "Successful rollup pushes to the parent collector",
            ),
            forward_failures: r.counter(
                "critlock_forward_failures_total",
                "Failed rollup push attempts (primary or fallback parent)",
            ),
            forward_last_success_seconds: r.gauge(
                "critlock_forward_last_success_seconds",
                "Seconds since the last successful rollup push (0 before the first)",
            ),
            analysis_passes: r.counter(
                "critlock_analysis_passes_total",
                "Analysis-loop passes, summed over shards",
            ),
            snapshot_refreshes: r.counter(
                "critlock_snapshot_refreshes_total",
                "Full snapshot recomputations (repair + analysis)",
            ),
            snapshot_skips: r.counter(
                "critlock_snapshot_skips_total",
                "Snapshot refreshes skipped because no new frame arrived",
            ),
            snapshot_refresh_ns: r.histogram(
                "critlock_snapshot_refresh_ns",
                "Latency of full snapshot recomputations, nanoseconds",
                DEFAULT_LATENCY_BOUNDS_NS,
            ),
            snapshot_stage_ns: {
                let stage = |name: &str| {
                    r.histogram_with(
                        "critlock_snapshot_stage_ns",
                        &[("stage", name)],
                        "Latency of one stage of a snapshot recomputation, nanoseconds",
                        DEFAULT_LATENCY_BOUNDS_NS,
                    )
                };
                SnapshotStageTimers { repair: stage("repair"), analyze: stage("analyze") }
            },
            registry: r,
        }
    }

    /// Register (or re-attach to) the labelled metric set for shard
    /// `index`. Label values make series names unique, so calling this
    /// twice for the same index yields handles on the same atomics.
    pub fn shard(&self, index: usize) -> ShardMetrics {
        let r = &self.registry;
        let idx = index.to_string();
        let labels: &[(&str, &str)] = &[("shard", idx.as_str())];
        ShardMetrics {
            sessions_total: r.counter_with(
                "critlock_shard_sessions_total",
                labels,
                "Sessions accepted or recovered, by ingestion shard",
            ),
            sessions_timed_out: r.counter_with(
                "critlock_shard_sessions_timed_out_total",
                labels,
                "Connections severed by the idle timeout, by ingestion shard",
            ),
            sessions_resumed: r.counter_with(
                "critlock_shard_sessions_resumed_total",
                labels,
                "Reconnections that resumed a session, by ingestion shard",
            ),
            sessions_recovered: r.counter_with(
                "critlock_shard_sessions_recovered_total",
                labels,
                "Sessions recovered from journals at startup, by ingestion shard",
            ),
            sessions_shed: r.counter_with(
                "critlock_shard_sessions_shed_total",
                labels,
                "Connections shed by the per-shard admission cap",
            ),
            sessions_quota_stopped: r.counter_with(
                "critlock_shard_sessions_quota_stopped_total",
                labels,
                "Sessions stopped by the byte quota, by ingestion shard",
            ),
            worker_panics: r.counter_with(
                "critlock_shard_worker_panics_total",
                labels,
                "Analysis worker panics caught, by ingestion shard",
            ),
            sessions_active: r.gauge_with(
                "critlock_shard_sessions_active",
                labels,
                "Currently tracked sessions, by ingestion shard",
            ),
            queue_depth: r.gauge_with(
                "critlock_shard_queue_depth",
                labels,
                "Frames currently queued, by ingestion shard",
            ),
            queue_high_water: r.gauge_with(
                "critlock_shard_queue_high_water",
                labels,
                "Deepest any session queue has ever been, by ingestion shard",
            ),
        }
    }

    /// The journal-facing counter subset.
    pub fn journal_counters(&self) -> JournalCounters {
        JournalCounters {
            appends: self.journal_appends.clone(),
            append_failures: self.journal_append_failures.clone(),
            syncs: self.journal_syncs.clone(),
            errors: self.journal_errors.clone(),
            rotations: self.journal_rotations.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_frame_conservation_counters() {
        let m = CollectorMetrics::new();
        m.frames_in.add(10);
        m.frames_assembled.add(7);
        m.frames_replayed.add(1);
        m.frames_gap_rejected.add(1);
        m.frames_quota_dropped.inc();
        let snap = m.registry.snapshot();
        let get = |n: &str| snap.counter(n).unwrap();
        assert_eq!(
            get("critlock_frames_in_total"),
            get("critlock_frames_assembled_total")
                + get("critlock_frames_replayed_total")
                + get("critlock_frames_gap_rejected_total")
                + get("critlock_frames_quota_dropped_total")
                + get("critlock_frames_queue_dropped_total")
        );
    }

    #[test]
    fn scrape_text_contains_every_section() {
        let m = CollectorMetrics::new();
        m.snapshot_refresh_ns.observe(5_000);
        let text = m.registry.render_prometheus();
        assert!(text.contains("# TYPE critlock_frames_in_total counter"));
        assert!(text.contains("# TYPE critlock_queue_depth gauge"));
        assert!(text.contains("# TYPE critlock_snapshot_refresh_ns histogram"));
        assert!(text.contains("critlock_snapshot_refresh_ns_count 1"));
    }
}
