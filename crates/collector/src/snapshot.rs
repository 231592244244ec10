//! Periodic analysis snapshots published by the collector.
//!
//! A [`SessionSnapshot`] is computed by repairing the session's partial
//! trace ([`crate::assembler`]) and running the *full offline analysis*
//! (`critlock_analysis::analyze`) over it, so for a completed session the
//! published critical-lock ranking and critical-path length are exactly
//! what `critlock analyze` reports on the same trace. When windowing is
//! enabled the snapshot also carries the session's closed sliding-window
//! digests.
//!
//! A refresh has two stages, each timed into
//! `critlock_snapshot_stage_ns{stage=...}` when the assembler carries
//! [`SnapshotStageTimers`]: `repair` (finalize the partial trace) and
//! `analyze` (the offline analysis, plus any windows the refresh closes).
//! On a ~95k-event simulated radiosity session (8 threads, ended, first
//! refresh) on a 2-CPU x86_64 host they cost about 3.1 ms and 4.4 ms.
//! Both read the whole partial trace, so a refresh is O(session history).

use crate::assembler::SessionAssembler;
use critlock_analysis::{analyze, AnalysisReport};
use critlock_obs::Histogram;
use critlock_trace::rollup::WindowDigest;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::Instant;

/// Latency histograms for the stages of [`SessionSnapshot::compute`],
/// exported as `critlock_snapshot_stage_ns{stage=...}`. Attached to an
/// assembler with [`SessionAssembler::set_stage_timers`]; pure
/// accounting, the snapshot is unaffected.
#[derive(Debug, Clone)]
pub struct SnapshotStageTimers {
    /// Repairing the partial trace (`SessionAssembler::finalize`).
    pub repair: Histogram,
    /// The offline analysis of the repaired trace, plus any sliding
    /// windows the refresh closes.
    pub analyze: Histogram,
}

/// Point-in-time analysis of one session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Collector-assigned session id.
    pub session: u64,
    /// Peer address the session connected from.
    pub peer: String,
    /// Whether the producer ended the session gracefully.
    pub ended: bool,
    /// Frames folded into the session so far.
    pub frames: u64,
    /// Events folded into the session so far.
    pub events: u64,
    /// Frames currently queued and not yet analyzed.
    pub queue_depth: u64,
    /// Deepest the session's queue has ever been.
    pub queue_high_water: u64,
    /// Frames dropped under the `Drop` backpressure policy.
    pub dropped_frames: u64,
    /// Closed sliding-window digests (oldest first), when the collector
    /// runs with `--window-secs`. A pre-windowing snapshot (or a session
    /// without windowing) deserializes to an empty list.
    #[serde(default)]
    pub windows: Vec<WindowDigest>,
    /// The offline analysis of the repaired partial trace — identical to
    /// `critlock analyze` output once the session has ended.
    pub report: AnalysisReport,
}

/// One ingestion shard's slice of the collector counters. The global
/// fields on [`CollectorStatus`] are exact sums over these (plus the
/// pre-handshake `rejected_sessions`, which has no shard to land on).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStatus {
    /// Shard index (`0..shards`).
    pub shard: u64,
    /// Sessions currently tracked by this shard.
    pub sessions: u64,
    /// Sessions accepted (or recovered) into this shard over its lifetime.
    pub sessions_total: u64,
    /// Connections on this shard severed by the idle timeout.
    pub timed_out_sessions: u64,
    /// Reconnections that resumed one of this shard's sessions.
    pub resumed_sessions: u64,
    /// Sessions recovered into this shard from journals at startup.
    pub recovered_sessions: u64,
    /// Connections shed by this shard's admission cap.
    pub shed_sessions: u64,
    /// Sessions on this shard stopped by the byte quota.
    pub quota_stopped_sessions: u64,
    /// Analysis worker panics caught on this shard; each one quarantined
    /// the poisoned session. A pre-supervision status document
    /// deserializes to zero.
    #[serde(default)]
    pub worker_panics: u64,
    /// Frames currently queued across this shard's sessions.
    pub queue_depth: u64,
    /// Deepest any of this shard's session queues has ever been.
    pub queue_high_water: u64,
}

/// Live state of the rollup forwarder, surfaced in the status document
/// and in health classification.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ForwardStatus {
    /// Successful rollup pushes since startup.
    pub pushes: u64,
    /// Failed push attempts since startup (primary or fallback).
    pub failures: u64,
    /// Consecutive fully-failed forward ticks (0 while healthy). Resets
    /// on any successful push, to either parent.
    pub consecutive_failures: u64,
    /// Seconds since the last successful push; `None` before the first.
    pub last_success_age_secs: Option<u64>,
    /// Whether the forwarder has failed over to the fallback parent.
    pub using_fallback: bool,
    /// Whether an undelivered rollup is currently spooled to
    /// `outbox.clag`.
    pub spooled: bool,
}

/// Everything the status endpoint publishes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectorStatus {
    /// Stream protocol version the collector speaks.
    pub protocol_version: u64,
    /// Sessions accepted over the collector's lifetime.
    pub sessions_total: u64,
    /// Connections rejected at the handshake (bad magic or an
    /// incompatible protocol version).
    pub rejected_sessions: u64,
    /// Connections severed because no frame arrived within the idle
    /// timeout.
    pub timed_out_sessions: u64,
    /// Reconnections that successfully resumed an existing session by
    /// token.
    pub resumed_sessions: u64,
    /// Sessions recovered from write-ahead journals at startup.
    pub recovered_sessions: u64,
    /// Connections shed by admission control (the collector was at its
    /// `max_sessions` cap when they arrived).
    #[serde(default)]
    pub shed_sessions: u64,
    /// Sessions whose ingest was stopped by the per-session byte quota.
    #[serde(default)]
    pub quota_stopped_sessions: u64,
    /// Analysis worker panics caught collector-wide (sum of the shard
    /// counters). Each one quarantined exactly one session.
    #[serde(default)]
    pub worker_panics: u64,
    /// Live forwarder state, present when this collector forwards its
    /// rollup to a parent. A pre-resilience status document (or a
    /// non-forwarding collector) deserializes to `None`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub forward: Option<ForwardStatus>,
    /// Per-shard counter slices, one per ingestion shard, ordered by
    /// shard index. A pre-sharding status document deserializes to an
    /// empty list.
    #[serde(default)]
    pub shards: Vec<ShardStatus>,
    /// One snapshot per live or completed session, ordered by session id.
    pub sessions: Vec<SessionSnapshot>,
}

impl SessionSnapshot {
    /// Analyze the session's current state. Mutable because newly closed
    /// sliding windows are analyzed and cached in the assembler.
    pub fn compute(
        session: u64,
        peer: String,
        asm: &mut SessionAssembler,
        queue_depth: u64,
        queue_high_water: u64,
        dropped_frames: u64,
    ) -> Self {
        let t0 = Instant::now();
        let trace = asm.finalize();
        let t1 = Instant::now();
        let report = analyze(&trace);
        asm.advance_windows(&trace);
        if let Some(timers) = asm.stage_timers() {
            let ns = |d: std::time::Duration| d.as_nanos() as u64;
            timers.repair.observe(ns(t1 - t0));
            timers.analyze.observe(ns(t1.elapsed()));
        }
        SessionSnapshot {
            session,
            peer,
            ended: asm.ended(),
            frames: asm.frames(),
            events: asm.events(),
            queue_depth,
            queue_high_water,
            dropped_frames,
            windows: asm.windows(),
            report,
        }
    }
}

impl CollectorStatus {
    /// Render the status as the human-readable text served by the status
    /// socket (one session block per session, top locks by CP time).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critlock collector: protocol v{}, {} session(s)",
            self.protocol_version, self.sessions_total
        );
        if self.rejected_sessions
            + self.timed_out_sessions
            + self.resumed_sessions
            + self.recovered_sessions
            + self.shed_sessions
            + self.quota_stopped_sessions
            + self.worker_panics
            > 0
        {
            let _ = writeln!(
                out,
                "  rejected={} timed_out={} resumed={} recovered={} shed={} quota_stopped={} worker_panics={}",
                self.rejected_sessions,
                self.timed_out_sessions,
                self.resumed_sessions,
                self.recovered_sessions,
                self.shed_sessions,
                self.quota_stopped_sessions,
                self.worker_panics,
            );
        }
        if let Some(fwd) = &self.forward {
            let age = match fwd.last_success_age_secs {
                Some(secs) => format!("{secs}s ago"),
                None => "never".to_string(),
            };
            let _ = writeln!(
                out,
                "  forward: pushes={} failures={} consecutive_failures={} last_success={}{}{}",
                fwd.pushes,
                fwd.failures,
                fwd.consecutive_failures,
                age,
                if fwd.using_fallback { " (on fallback)" } else { "" },
                if fwd.spooled { " (rollup spooled)" } else { "" },
            );
        }
        if self.shards.len() > 1 {
            for shard in &self.shards {
                let _ = writeln!(
                    out,
                    "  shard {}: sessions={} total={} timed_out={} resumed={} recovered={} shed={} quota_stopped={} queued={} high_water={}",
                    shard.shard,
                    shard.sessions,
                    shard.sessions_total,
                    shard.timed_out_sessions,
                    shard.resumed_sessions,
                    shard.recovered_sessions,
                    shard.shed_sessions,
                    shard.quota_stopped_sessions,
                    shard.queue_depth,
                    shard.queue_high_water,
                );
            }
        }
        for snap in &self.sessions {
            let state = if snap.ended { "ended" } else { "live" };
            let _ = writeln!(
                out,
                "session {} [{}{}] {} app={:?} threads={} frames={} events={} queued={} high_water={} dropped={}",
                snap.session,
                state,
                if snap.report.degraded { " degraded" } else { "" },
                snap.peer,
                snap.report.app,
                snap.report.num_threads,
                snap.frames,
                snap.events,
                snap.queue_depth,
                snap.queue_high_water,
                snap.dropped_frames,
            );
            let _ = writeln!(
                out,
                "  cp_length={}  makespan={}  coverage={:.1}%",
                snap.report.cp_length,
                snap.report.makespan,
                snap.report.coverage * 100.0,
            );
            if let Some(last) = snap.windows.last() {
                let top = last
                    .locks
                    .iter()
                    .max_by(|a, b| a.cp_time.cmp(&b.cp_time).then_with(|| b.name.cmp(&a.name)))
                    .map(|l| {
                        format!(
                            " top={} cp%={:.2}",
                            l.name,
                            l.cp_share_ppm as f64 / critlock_trace::rollup::PPM as f64 * 100.0
                        )
                    })
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "  windows: {} closed; last [{}..{}] cp_length={}{}",
                    snap.windows.len(),
                    last.lo,
                    last.hi,
                    last.cp_length,
                    top,
                );
            }
            for lock in snap.report.locks.iter().take(5) {
                let _ = writeln!(
                    out,
                    "  lock {:<16} cp_time={:<10} cp%={:<6.2} cont_prob_on_cp%={:<6.2} invo_on_cp={}",
                    lock.name,
                    lock.cp_time,
                    lock.cp_time_frac * 100.0,
                    lock.cont_prob_on_cp * 100.0,
                    lock.invocations_on_cp,
                );
            }
        }
        out
    }

    /// Render the status as JSON (the `status json` reply).
    pub fn render_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }

    /// Parse a JSON status reply (used by tests and `critlock status`).
    pub fn parse_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critlock_trace::stream::{Frame, RawFrame};
    use critlock_trace::TraceBuilder;

    fn assembled() -> SessionAssembler {
        let mut b = TraceBuilder::new("snap");
        let l = b.lock("hot");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).cs(l, 4).exit_at(5);
        b.on(t1).work(1).cs_blocked(l, 4, 2).work(3).exit();
        let trace = b.build().unwrap();

        let mut buf = Vec::new();
        critlock_trace::stream::write_trace(&trace, &mut buf).unwrap();
        let mut reader =
            critlock_trace::stream::StreamReader::new(std::io::Cursor::new(buf)).unwrap();
        let mut asm = SessionAssembler::new();
        while let Some(frame) = reader.next_frame_raw().unwrap() {
            asm.apply_raw(&frame);
        }
        asm
    }

    #[test]
    fn snapshot_matches_offline_analysis_exactly() {
        let mut asm = assembled();
        let snap = SessionSnapshot::compute(1, "test".into(), &mut asm, 0, 0, 0);
        let offline = analyze(asm.partial());
        assert_eq!(snap.report, offline);
        assert_eq!(snap.report.top_critical_lock().unwrap().name, "hot");
    }

    #[test]
    fn windowed_snapshot_carries_closed_digests() {
        let mut b = TraceBuilder::new("snap-windows");
        let l = b.lock("hot");
        let t0 = b.thread("T0", 0);
        b.on(t0).cs(l, 8).work(30).exit();
        let trace = b.build().unwrap();
        let mut buf = Vec::new();
        critlock_trace::stream::write_trace(&trace, &mut buf).unwrap();
        let mut reader =
            critlock_trace::stream::StreamReader::new(std::io::Cursor::new(buf)).unwrap();
        let mut asm = SessionAssembler::new();
        asm.set_window(10);
        while let Some(frame) = reader.next_frame_raw().unwrap() {
            asm.apply_raw(&frame);
        }
        let snap = SessionSnapshot::compute(1, "test".into(), &mut asm, 0, 0, 0);
        assert!(!snap.windows.is_empty(), "ended session must close its windows");
        // Oracle: each closed window is exactly clip + analyze + digest.
        for w in &snap.windows {
            let report = analyze(&critlock_analysis::clip(&trace, w.lo, w.hi));
            assert_eq!(*w, critlock_analysis::digest_window(w.index, w.lo, w.hi, &report));
        }
        let text = CollectorStatus {
            protocol_version: critlock_trace::stream::STREAM_VERSION,
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
        }
        .render_text();
        assert!(text.contains("windows:"), "window line missing:\n{text}");
    }

    #[test]
    fn status_json_roundtrips() {
        let mut asm = assembled();
        let status = CollectorStatus {
            protocol_version: critlock_trace::stream::STREAM_VERSION,
            sessions_total: 1,
            rejected_sessions: 0,
            timed_out_sessions: 1,
            resumed_sessions: 2,
            recovered_sessions: 3,
            shed_sessions: 4,
            quota_stopped_sessions: 5,
            worker_panics: 1,
            forward: Some(ForwardStatus {
                pushes: 9,
                failures: 2,
                consecutive_failures: 1,
                last_success_age_secs: Some(3),
                using_fallback: true,
                spooled: true,
            }),
            shards: vec![
                ShardStatus { shard: 0, sessions: 1, sessions_total: 1, ..Default::default() },
                ShardStatus { shard: 1, shed_sessions: 4, ..Default::default() },
            ],
            sessions: vec![SessionSnapshot::compute(7, "unix".into(), &mut asm, 3, 4, 2)],
        };
        let json = status.render_json().unwrap();
        let parsed = CollectorStatus::parse_json(&json).unwrap();
        assert_eq!(parsed, status);
        // Older collectors also published each session's forward-fold
        // estimate; their documents still parse, the field ignored.
        let old =
            json.replace("\"dropped_frames\"", "\"online_cp_length\": 9,\n\"dropped_frames\"");
        assert!(old.contains("\"online_cp_length\": 9"), "field not inserted:\n{old}");
        assert_eq!(CollectorStatus::parse_json(&old).unwrap(), status);
        let text = status.render_text();
        assert!(text.contains("hot"));
        assert!(text.contains("shard 1"), "multi-shard status must list shards:\n{text}");
        assert!(text.contains("on fallback"), "forward line missing:\n{text}");
        assert!(text.contains("worker_panics=1"), "panic counter missing:\n{text}");
    }

    #[test]
    fn single_shard_status_text_has_no_shard_lines() {
        let status = CollectorStatus {
            protocol_version: critlock_trace::stream::STREAM_VERSION,
            sessions_total: 0,
            rejected_sessions: 0,
            timed_out_sessions: 0,
            resumed_sessions: 0,
            recovered_sessions: 0,
            shed_sessions: 0,
            quota_stopped_sessions: 0,
            worker_panics: 0,
            forward: None,
            shards: vec![ShardStatus::default()],
            sessions: Vec::new(),
        };
        assert!(!status.render_text().contains("shard"));
    }

    #[test]
    fn partial_session_snapshot_is_well_formed() {
        let mut asm = SessionAssembler::new();
        asm.apply_raw(&RawFrame::encode(&Frame::Start { meta: Default::default() }).unwrap());
        // No threads/events at all: analysis of an empty trace must not
        // panic and reports zero everything.
        let snap = SessionSnapshot::compute(0, "p".into(), &mut asm, 0, 0, 0);
        assert_eq!(snap.report.cp_length, 0);
        assert!(!snap.ended);
    }
}
