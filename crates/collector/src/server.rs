//! The collector daemon: sharded session ingestion plus the incremental
//! analysis loop, the status endpoint and cross-collector rollup
//! forwarding.
//!
//! Thread layout:
//!
//! * one *ingest accept* thread hands each new connection to a dedicated
//!   *session reader* thread, which performs the stream handshake
//!   (magic + protocol version + resume token) and then reads validated
//!   raw frames ([`RawFrame`](critlock_trace::stream::RawFrame)) into the
//!   session's journal and its bounded [`FrameQueue`] — the same frame
//!   type recovery later replays from the journal;
//! * sessions are partitioned across `N = config.shards` independent
//!   **shards** — token sessions by a stable hash of the token, anonymous
//!   sessions by id — each shard owning its own session map, journal
//!   subdirectory, admission slice of `max_sessions` and analysis thread;
//! * one *analysis* thread **per shard** drains its shard's queues into
//!   [`SessionAssembler`]s and republishes [`SessionSnapshot`]s at the
//!   configured interval. Between passes it parks on the shard's wake
//!   until its next snapshot or checkpoint deadline. Readers wake it when
//!   a session's queue fills to half its capacity, when they queue an
//!   `End` frame (every frame under [`CollectorConfig::strict`]), and when
//!   they attach or detach; a shed or a rejected handshake and
//!   [`CollectorHandle::shutdown`] wake it too, so every state change a
//!   [`CollectorHandle::wait_until`] caller can wait for ends a pass;
//! * an optional *status* socket answers `status` / `status json` and
//!   `health` / `health json` one-shot requests, refreshing dirty
//!   sessions on demand so a request issued after a push completed always
//!   sees the final analysis. The same socket speaks the rollup protocol:
//!   `rollup` replies with the collector's CLAG rollup (every session
//!   digested, merged with anything child collectors pushed up), and
//!   `rollup-push LEN` + LEN CLAG bytes merges a child's rollup into this
//!   collector;
//! * an optional *metrics* socket answers every request with the
//!   Prometheus-style exposition. It runs the same accept-and-serve loop
//!   as the status socket: [`CONTROL_HANDLERS`] connections served at
//!   once, `err busy` for any connection past them, a bounded request
//!   line, and a fixed read/write deadline per connection, so idle or
//!   stalled clients can hold a handler for at most that deadline and
//!   never wedge the socket;
//! * with [`CollectorConfig::forward`] set, a *forwarder* thread
//!   periodically pushes this collector's rollup to a parent collector's
//!   status socket, forming an aggregation tree.
//!
//! Backpressure is per session: `Block` parks the reader thread on the
//! full queue, which stops it draining the socket, which closes the TCP
//! window (or fills the Unix socket buffer) back to the producer; `Drop`
//! discards the frame and counts it, which the repair pass in
//! [`crate::assembler`] is designed to absorb.
//!
//! ## Fault tolerance
//!
//! A producer that announces a non-empty resume token in its handshake
//! gets a **resumable session**: the collector replies with the sequence
//! number of the next frame it expects, so a reconnecting producer
//! replays only the gap, and duplicate frames from a conservative replay
//! are skipped by sequence number. With [`CollectorConfig::idle_timeout`]
//! set, a connection that goes silent is severed and its session is
//! finalized through the ordinary repair pass (it resumes if the producer
//! comes back). With [`CollectorConfig::journal_dir`] set, every accepted
//! frame is appended to a per-session write-ahead journal *before* it is
//! queued (and therefore before it is ever acknowledged), and a restarted
//! collector recovers all journaled sessions — acknowledged frames
//! survive a collector crash. Rollup forwarding is best-effort and
//! idempotent: the merge is a set union keyed by session, so a child that
//! re-pushes after a failed or partial forward never double-counts.

use crate::assembler::SessionAssembler;
use crate::checkpoint as ckpt;
use crate::faults::FaultState;
use crate::health::{classify, HealthInputs, HealthReport};
use crate::io::{DiskBudget, JournalIo, RealIo};
use crate::journal::{self, journal_stem, JournalOptions, SessionJournal};
use crate::metrics::{CollectorMetrics, ShardMetrics};
use crate::net::{Addr, Listener, Stream};
use crate::outbox;
use crate::queue::{Backpressure, FrameQueue, Wake};
use crate::snapshot::{CollectorStatus, ForwardStatus, SessionSnapshot, ShardStatus};
use critlock_analysis::digest_report;
use critlock_trace::rollup::{Rollup, MAX_ROLLUP_LEN};
use critlock_trace::stream::{write_ack, StreamReader, STREAM_VERSION};
use critlock_trace::{Anomaly, FaultPlan, RetryPolicy, Trace, TraceError};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a collector daemon.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Address producers stream frames to.
    pub ingest_addr: Addr,
    /// Address the status endpoint listens on, if any.
    pub status_addr: Option<Addr>,
    /// Address the Prometheus-style metrics endpoint listens on, if any.
    pub metrics_addr: Option<Addr>,
    /// Bounded per-session queue capacity, in frames.
    pub queue_capacity: usize,
    /// What to do when a session's queue is full.
    pub backpressure: Backpressure,
    /// How often the analysis loop republishes snapshots. It also
    /// drains, at this interval, frames that arrived without waking it (a
    /// queue below half full on a session that has not ended).
    pub snapshot_interval: Duration,
    /// Sever a connection when no frame arrives for this long. The
    /// session itself survives — it is finalized by the repair pass and
    /// resumes if its producer reconnects. `None` waits forever.
    pub idle_timeout: Option<Duration>,
    /// Directory for per-session write-ahead journals. `None` disables
    /// journaling (a collector crash then loses in-flight sessions).
    /// With more than one shard, each shard journals into its own
    /// `shard-N/` subdirectory; recovery scans the root and every
    /// subdirectory, so restarting with a different shard count loses
    /// nothing.
    pub journal_dir: Option<PathBuf>,
    /// Collector-wide cap on bytes of durable state under
    /// [`CollectorConfig::journal_dir`] (journal segments, checkpoints,
    /// the outbox spool). When the budget is exhausted, sessions that
    /// cannot journal keep ingesting in a **degraded**, non-resumable
    /// mode ([`Anomaly::JournalDegraded`]) instead of erroring — the
    /// collector sheds durability, never availability. `None` is
    /// unlimited.
    pub journal_quota_bytes: Option<u64>,
    /// Rotate a session's journal into a new segment
    /// (`<stem>.clsj.0001`, ...) once the active segment reaches this
    /// many bytes. Closed segments fully absorbed by a checkpoint are
    /// pruned, bounding per-session disk to roughly the working set
    /// instead of the session's whole history. `None` keeps one
    /// unbounded segment per session (the legacy layout).
    pub journal_segment_bytes: Option<u64>,
    /// How often each session's fold state is checkpointed to
    /// `<stem>.clck` (tmp+fsync+rename). Recovery then replays only the
    /// journal tail past the checkpoint watermark — O(tail), not
    /// O(history) — and produces byte-identical analysis either way.
    pub checkpoint_interval: Duration,
    /// The storage layer journals, checkpoints and the outbox write
    /// through. Production uses [`RealIo`]; chaos tests inject
    /// [`crate::io::FaultyIo`] to fault specific writes, syncs and
    /// renames deterministically.
    pub journal_io: Arc<dyn JournalIo>,
    /// Worker threads for the snapshot analysis pipeline, divided across
    /// shards. `None` uses the host's available parallelism. Snapshot
    /// contents are bit-identical at any thread count; this only trades
    /// latency for CPU.
    pub analysis_threads: Option<usize>,
    /// Admission control: hard cap on concurrently tracked sessions,
    /// enforced in two layers — each shard admits at most
    /// `ceil(max_sessions / shards)` (one hot shard cannot starve the
    /// others), and the collector-wide total never exceeds
    /// `max_sessions` itself (the per-shard ceilings alone would admit
    /// up to `shards - 1` extra). A new producer arriving past either
    /// bound is *shed* — its connection is closed before a session is
    /// created — and counted in the status report. `None` admits
    /// everyone.
    pub max_sessions: Option<usize>,
    /// Per-session cap on ingested frame-payload bytes (counted across
    /// reconnects). A session crossing the quota stops ingesting: further
    /// frames are discarded at the socket and the session's published
    /// report is marked `degraded`. `None` is unlimited.
    pub session_quota_bytes: Option<u64>,
    /// Per-session cap on assembled events, enforced inside the
    /// [`SessionAssembler`]: events past the cap are tail-truncated
    /// deterministically and the session's report is marked `degraded`.
    /// `None` is unlimited.
    pub max_events: Option<u64>,
    /// Strict resource policy: instead of truncating and degrading, a
    /// session that exceeds its byte quota or event budget has its live
    /// connection severed, so the producer sees a hard error rather than
    /// a silently shortened analysis.
    pub strict: bool,
    /// Number of independent ingestion shards. Sessions are routed by a
    /// stable hash of the resume token (anonymous sessions by id), so a
    /// resuming producer always lands on the shard that owns its
    /// session. `1` (the default) reproduces unsharded behavior exactly,
    /// including the journal directory layout.
    pub shards: usize,
    /// Status address of a **parent** collector to forward this
    /// collector's rollup to, forming an aggregation tree. `None`
    /// disables forwarding.
    pub forward: Option<Addr>,
    /// How often the forwarder pushes the rollup upstream. Failed pushes
    /// are retried on the next tick; the merge is idempotent, so
    /// re-sending after a partial forward is safe.
    pub forward_interval: Duration,
    /// Identity prefix for anonymous sessions in rollups
    /// (`<collector_id>/anon-<id>`). Give each collector in a fleet a
    /// distinct id, or anonymous sessions from different collectors
    /// collide in the aggregate. Token sessions use the token itself.
    pub collector_id: String,
    /// Cap on the sessions retained in the merged child-rollup state.
    /// The `rollup-push` endpoint is unauthenticated and its merge state
    /// would otherwise grow without bound under churning child sessions
    /// (or a misbehaving peer): a push whose merge would lift the
    /// retained session count past this cap is rejected whole (`err
    /// rollup cap ...`); pushes that only refresh already-retained
    /// sessions always succeed.
    pub max_rollup_sessions: usize,
    /// Status address of a **secondary** parent to fail over to when
    /// pushes to [`CollectorConfig::forward`] keep failing (after
    /// `forward_retry.max_attempts` consecutive failures). While on the
    /// fallback, the primary is probed periodically and forwarding fails
    /// back as soon as it answers. `None` disables failover.
    pub forward_fallback: Option<Addr>,
    /// Bound on connect and socket I/O for each rollup push.
    pub forward_timeout: Duration,
    /// Backoff schedule for failed pushes: after a failure the forwarder
    /// retries on `forward_retry.backoff(..)` (capped exponential)
    /// instead of the plain forward interval, and `max_attempts` doubles
    /// as the failover threshold and the shutdown-flush retry budget.
    pub forward_retry: RetryPolicy,
    /// Deterministic transport faults injected on the rollup-push wire
    /// (chaos testing). `None` forwards over the plain socket.
    pub forward_fault_plan: Option<FaultPlan>,
    /// Sliding-window width in trace time units (`serve --window-secs`,
    /// converted to nanoseconds for real instrumented sessions). When
    /// set, every session maintains a ring of closed per-window
    /// critical-lock digests ("critical locks over the last N seconds"),
    /// published in snapshots, the status document and rollups. `None`
    /// disables windowing.
    pub window_width: Option<critlock_trace::Ts>,
    /// Test hook: panic inside the analysis worker when it refreshes a
    /// session whose trace metadata names this app, to exercise the
    /// quarantine path. Never set outside tests.
    #[doc(hidden)]
    pub panic_on_app: Option<String>,
    /// Test hook: every analysis pass first takes this lock, so a test
    /// that holds it stalls every shard's analysis loop (a deterministic
    /// slow consumer). Never set outside tests.
    #[doc(hidden)]
    pub analysis_gate: Option<Arc<Mutex<()>>>,
}

impl CollectorConfig {
    /// A config with defaults suitable for tests and local profiling:
    /// 256-frame queues, blocking backpressure, 200 ms snapshots, no idle
    /// timeout, no journal, one shard, no forwarding.
    pub fn new(ingest_addr: Addr) -> Self {
        CollectorConfig {
            ingest_addr,
            status_addr: None,
            metrics_addr: None,
            queue_capacity: 256,
            backpressure: Backpressure::Block,
            snapshot_interval: Duration::from_millis(200),
            idle_timeout: None,
            journal_dir: None,
            journal_quota_bytes: None,
            journal_segment_bytes: None,
            checkpoint_interval: Duration::from_secs(2),
            journal_io: Arc::new(RealIo),
            analysis_threads: None,
            max_sessions: None,
            session_quota_bytes: None,
            max_events: None,
            strict: false,
            shards: 1,
            forward: None,
            forward_interval: Duration::from_millis(500),
            collector_id: "collector".to_string(),
            max_rollup_sessions: 65_536,
            forward_fallback: None,
            forward_timeout: Duration::from_secs(5),
            forward_retry: RetryPolicy::default(),
            forward_fault_plan: None,
            window_width: None,
            panic_on_app: None,
            analysis_gate: None,
        }
    }

    /// The per-session resource budget implied by this config.
    fn session_budget(&self) -> critlock_trace::Budget {
        let mut budget = critlock_trace::Budget::unlimited();
        budget.max_events = self.max_events;
        budget
    }

    /// A fresh assembler configured per this config (budget + windowing).
    fn new_assembler(&self) -> SessionAssembler {
        let mut asm = SessionAssembler::with_budget(self.session_budget());
        if let Some(width) = self.window_width {
            asm.set_window(width);
        }
        asm
    }
}

/// One session's state, shared between its reader thread, the analysis
/// loop and the status endpoint. A session outlives its connections: a
/// resumable producer may attach, disconnect and re-attach many times.
struct SessionState {
    id: u64,
    /// Index used for the `anon-<N>` rollup key. Equals `id` for fresh
    /// sessions; a journal-recovered anonymous session keeps the
    /// `anon-N` index of its journal file, because recovery hands out a
    /// *fresh* session id and the rollup key must survive the restart —
    /// otherwise the recovered session would re-forward under a new key
    /// and a parent collector would double-count it.
    rollup_id: u64,
    peer: String,
    /// Resume token from the handshake; empty for anonymous sessions.
    token: Vec<u8>,
    /// Durable-state file stem (`anon-N` or the hex token) — the name
    /// journal segments and checkpoints share, kept even for sessions
    /// that failed to open a journal so a later checkpoint still lands
    /// in the right file.
    stem: String,
    queue: FrameQueue,
    asm: Mutex<SessionAssembler>,
    /// Set when frames were applied since the last snapshot.
    dirty: AtomicBool,
    snapshot: Mutex<Option<SessionSnapshot>>,
    /// Sequence number of the next frame this session expects — equal to
    /// the count of frames durably received (journaled, if enabled).
    received_seq: AtomicU64,
    /// Whether a reader thread currently owns this session. At most one
    /// connection may be attached; concurrent claims are rejected.
    attached: AtomicBool,
    /// Write-ahead journal, if journaling is enabled. Dropped (set to
    /// `None`) if an append fails: availability over durability.
    journal: Mutex<Option<SessionJournal>>,
    /// Set when journaling was configured but this session runs without
    /// it (disk quota, ENOSPC, create or append failure). The published
    /// report is marked degraded and carries
    /// [`Anomaly::JournalDegraded`]; ingest continues.
    journal_degraded: AtomicBool,
    /// Watermark of the last durable checkpoint (frames absorbed); the
    /// checkpoint tick skips sessions whose fold hasn't advanced.
    checkpointed_frames: AtomicU64,
    /// Write half of the live connection (for acks and crash severing).
    conn: Mutex<Option<Stream>>,
    /// Frame-payload bytes ingested by this session across all of its
    /// connections, for the per-session byte quota.
    bytes_ingested: AtomicU64,
    /// Set when the byte quota stopped this session's ingest; the
    /// published report is marked degraded from then on.
    over_quota: AtomicBool,
    /// Guards the once-per-session quota-stop accounting (a resuming
    /// producer can trip the quota on every reconnect).
    quota_counted: AtomicBool,
    /// Set when an analysis worker panicked on this session. A poisoned
    /// session is quarantined: its last published snapshot keeps being
    /// served (marked degraded, with an [`Anomaly::AnalysisPanicked`]),
    /// further frames are discarded undrained, and every other session —
    /// including new admissions on the same shard — is unaffected.
    poisoned: AtomicBool,
    /// Copy of [`CollectorConfig::panic_on_app`] (test hook).
    panic_app: Option<String>,
    /// Collector-wide metric handles (shared atomics; cheap clone).
    metrics: CollectorMetrics,
    /// Labelled metric handles of the shard that owns this session.
    shard_metrics: ShardMetrics,
}

impl SessionState {
    /// Drain the queue into the assembler. Returns whether anything new
    /// arrived. The assembler lock is taken *before* draining so that
    /// concurrent callers (analysis loop, status endpoint) cannot apply
    /// drained batches out of order.
    fn apply_pending(&self) -> bool {
        let mut asm = self.asm.lock().unwrap_or_else(|e| e.into_inner());
        let frames = self.queue.drain();
        if frames.is_empty() {
            return false;
        }
        for frame in frames {
            asm.apply_raw(&frame);
        }
        self.dirty.store(true, Ordering::Release);
        true
    }

    /// Raise `dirty` for a frame-free transition (a reader detaching, the
    /// journal degrading). Taken under the assembler lock, like every
    /// other write of the flag, so it cannot land inside a refresh that
    /// is about to clear it.
    fn mark_dirty(&self) {
        let _asm = self.asm.lock().unwrap_or_else(|e| e.into_inner());
        self.dirty.store(true, Ordering::Release);
    }

    /// Recompute and publish this session's snapshot. If nothing new has
    /// arrived since the last published snapshot, the repair + analysis
    /// pass is skipped entirely — re-running it would reproduce the same
    /// report bit for bit — and only the cheap queue counters refresh.
    /// (The `dirty` flag alone cannot guarantee this: it is also raised on
    /// frame-free transitions such as a reader detaching.) The check is
    /// keyed on the applied-*event* count as well as the frame count:
    /// after journal recovery the frame counter restarts from the journal
    /// record count while the previous process's published snapshot may
    /// have counted the same frames, so a frames-only comparison can
    /// conflate replayed frames with new ones and serve a stale report.
    ///
    /// `dirty` is cleared and the snapshot published while the assembler
    /// lock is still held. An [`SessionState::apply_pending`] blocked on
    /// that lock therefore raises `dirty` only after this snapshot is
    /// published, and the frames it applies reach the next refresh.
    fn refresh_snapshot(&self) -> SessionSnapshot {
        let mut asm = self.asm.lock().unwrap_or_else(|e| e.into_inner());
        let unchanged = self
            .snapshot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .filter(|prev| prev.frames == asm.frames() && prev.events == asm.events())
            .cloned();
        let mut snap = match unchanged {
            Some(mut snap) => {
                self.metrics.snapshot_skips.inc();
                snap.queue_depth = self.queue.depth() as u64;
                snap.queue_high_water = self.queue.high_water();
                snap.dropped_frames = self.queue.dropped();
                snap
            }
            None => {
                if let Some(app) = &self.panic_app {
                    if asm.partial().meta.app == *app {
                        panic!("injected analysis panic for app {app:?}");
                    }
                }
                let started = Instant::now();
                let snap = SessionSnapshot::compute(
                    self.id,
                    self.peer.clone(),
                    &mut asm,
                    self.queue.depth() as u64,
                    self.queue.high_water(),
                    self.queue.dropped(),
                );
                self.metrics.snapshot_refreshes.inc();
                self.metrics.snapshot_refresh_ns.observe(started.elapsed().as_nanos() as u64);
                snap
            }
        };
        snap.report.degraded |= asm.degraded() || self.over_quota.load(Ordering::Acquire);
        self.mark_journal_degraded(&mut snap);
        self.dirty.store(false, Ordering::Release);
        *self.snapshot.lock().unwrap_or_else(|e| e.into_inner()) = Some(snap.clone());
        drop(asm);
        #[cfg(test)]
        tests::after_assembler_release(self);
        snap
    }

    /// Stamp a snapshot of a journal-degraded session: the report is
    /// degraded and carries a typed [`Anomaly::JournalDegraded`] (once —
    /// refreshes must not accumulate duplicates).
    fn mark_journal_degraded(&self, snap: &mut SessionSnapshot) {
        if !self.journal_degraded.load(Ordering::Acquire) {
            return;
        }
        snap.report.degraded = true;
        let already =
            snap.report.anomalies.iter().any(|a| matches!(a, Anomaly::JournalDegraded { .. }));
        if !already {
            snap.report.anomalies.push(Anomaly::JournalDegraded {
                detail: "disk quota exhausted or journal write failure".to_string(),
            });
        }
    }

    /// The latest snapshot, recomputing first if new frames arrived. A
    /// poisoned (quarantined) session serves its last good snapshot.
    fn current_snapshot(&self) -> SessionSnapshot {
        self.supervised(|| {
            self.apply_pending();
            if self.dirty.load(Ordering::Acquire) {
                return self.refresh_snapshot();
            }
            let published = self.snapshot.lock().unwrap_or_else(|e| e.into_inner()).clone();
            published.unwrap_or_else(|| self.refresh_snapshot())
        })
        .unwrap_or_else(|| self.quarantined_snapshot())
    }

    /// Run an analysis-side operation under panic supervision. Returns
    /// `None` without running anything if the session is already
    /// quarantined; a panic inside `f` quarantines the session (the
    /// panic is caught, never unwinding into the calling worker).
    fn supervised<T>(&self, f: impl FnOnce() -> T) -> Option<T> {
        if self.poisoned.load(Ordering::Acquire) {
            return None;
        }
        match std::panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(value) => Some(value),
            Err(payload) => {
                self.quarantine(payload.as_ref());
                None
            }
        }
    }

    /// First panic on this session: mark it poisoned, count it (globally
    /// and on the owning shard's labelled counter) and publish a degraded
    /// snapshot carrying [`Anomaly::AnalysisPanicked`], based on the last
    /// good snapshot when one exists.
    fn quarantine(&self, payload: &(dyn std::any::Any + Send)) {
        if self.poisoned.swap(true, Ordering::AcqRel) {
            return;
        }
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        self.metrics.worker_panics.inc();
        self.shard_metrics.worker_panics.inc();
        let mut slot = self.snapshot.lock().unwrap_or_else(|e| e.into_inner());
        let mut snap = slot.clone().unwrap_or_else(|| self.placeholder_snapshot());
        snap.report.degraded = true;
        snap.report.anomalies.push(Anomaly::AnalysisPanicked { detail });
        *slot = Some(snap);
        drop(slot);
        self.dirty.store(false, Ordering::Release);
    }

    /// The snapshot a quarantined session serves: whatever `quarantine`
    /// published (last good state plus the panic anomaly).
    fn quarantined_snapshot(&self) -> SessionSnapshot {
        self.snapshot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .unwrap_or_else(|| self.placeholder_snapshot())
    }

    /// An empty-trace snapshot for sessions that panicked before ever
    /// publishing one. Computed from a fresh assembler — never touches
    /// this session's (possibly poisoned) state.
    fn placeholder_snapshot(&self) -> SessionSnapshot {
        SessionSnapshot::compute(self.id, self.peer.clone(), &mut SessionAssembler::new(), 0, 0, 0)
    }

    /// The key this session carries in rollups: the resume token when it
    /// has one (fleet-unique by construction of auto-tokens), otherwise
    /// `<collector_id>/anon-<N>` where N is stable across journal
    /// recovery (see [`SessionState::rollup_id`]).
    fn rollup_key(&self, collector_id: &str) -> String {
        if self.token.is_empty() {
            format!("{collector_id}/anon-{}", self.rollup_id)
        } else {
            String::from_utf8_lossy(&self.token).into_owned()
        }
    }
}

/// One ingestion shard: an independent session map with its own journal
/// directory, admission slice and analysis thread. All cross-session
/// state a reader thread touches lives in exactly one shard, so sessions
/// on different shards never contend on a shared map lock.
struct Shard {
    index: usize,
    sessions: Mutex<Vec<Arc<SessionState>>>,
    /// Where this shard's journals live (`journal_dir` itself for a
    /// single-shard collector, `journal_dir/shard-N` otherwise).
    journal_dir: Option<PathBuf>,
    /// Labelled per-shard counters/gauges; also the source of truth for
    /// the per-shard status lines.
    metrics: ShardMetrics,
    /// Wakes this shard's analysis loop (see the module docs for who
    /// signals it).
    wake: Arc<Wake>,
}

/// FNV-1a over the resume token: the stable shard router. Anything
/// stable works, but it must never change across versions or a resuming
/// producer would land on a shard that does not own its session.
fn token_shard(token: &[u8], shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in token {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Live forwarder state, shared between the forwarder thread, the
/// status/health endpoints and the scrape-time gauge refresh.
#[derive(Default)]
struct ForwardState {
    /// Failed forward ticks since the last delivered rollup.
    consecutive_failures: u64,
    /// When a push last succeeded (either parent).
    last_success: Option<Instant>,
    /// Whether pushes currently go to the fallback parent.
    using_fallback: bool,
    /// Whether an undelivered rollup sits in the outbox spool.
    spooled: bool,
    /// Tick counter while on the fallback, pacing fail-back probes.
    ticks: u64,
}

struct Shared {
    shards: Vec<Shard>,
    /// Dedicated session-id allocator, seeded past any `anon-N` journal
    /// of an earlier run. Kept separate from the statistics counters: the
    /// two used to be one atomic, which made the status counter wrong
    /// after journal recovery and let concurrently admitted sessions
    /// observe ids that double as (skewed) statistics.
    next_session_id: AtomicU64,
    /// Connections rejected at the handshake. Global, not per shard: a
    /// rejected connection never presented a token, so it has no shard.
    rejected_sessions: AtomicU64,
    /// Sessions tracked collector-wide (admitted + recovered; sessions
    /// are never removed). Admission *reserves* a slot here before
    /// creating a session, so the global `max_sessions` bound holds even
    /// under concurrent admissions on different shards.
    tracked_sessions: AtomicU64,
    /// Rollups pushed up by child collectors, merged as they arrive.
    /// Served back (merged with this collector's own sessions) on
    /// `rollup` requests and forwarded upstream by the forwarder.
    received_rollup: Mutex<Rollup>,
    shutdown: AtomicBool,
    /// Analysis-loop pass counter + condvar: [`CollectorHandle::wait_until`]
    /// sleeps here instead of spinning on wall-clock polls. Every shard's
    /// analysis loop bumps it at the end of each pass.
    passes: Mutex<u64>,
    progress: Condvar,
    /// Forwarder state; meaningful only when forwarding is configured.
    forward: Mutex<ForwardState>,
    /// The storage stack every durable write goes through: the
    /// (injectable) I/O layer, the collector-wide disk budget, the
    /// segment-rotation threshold and the journal counters.
    journal_opts: JournalOptions,
    config: CollectorConfig,
    metrics: CollectorMetrics,
}

impl Shared {
    /// The shard that owns (or will own) a session. Token sessions hash
    /// the token so reconnects find their session; anonymous sessions
    /// spread by id.
    fn shard_for(&self, token: &[u8], id: u64) -> &Shard {
        let n = self.shards.len();
        let index = if token.is_empty() { (id % n as u64) as usize } else { token_shard(token, n) };
        &self.shards[index]
    }

    /// Every tracked session across all shards, ordered by session id.
    fn all_sessions(&self) -> Vec<Arc<SessionState>> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.sessions.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned());
        }
        all.sort_by_key(|s| s.id);
        all
    }

    fn status(&self) -> CollectorStatus {
        let mut shard_statuses = Vec::with_capacity(self.shards.len());
        let mut snaps = Vec::new();
        for shard in &self.shards {
            let sessions: Vec<Arc<SessionState>> =
                shard.sessions.lock().unwrap_or_else(|e| e.into_inner()).clone();
            let m = &shard.metrics;
            shard_statuses.push(ShardStatus {
                shard: shard.index as u64,
                sessions: sessions.len() as u64,
                sessions_total: m.sessions_total.get(),
                timed_out_sessions: m.sessions_timed_out.get(),
                resumed_sessions: m.sessions_resumed.get(),
                recovered_sessions: m.sessions_recovered.get(),
                shed_sessions: m.sessions_shed.get(),
                quota_stopped_sessions: m.sessions_quota_stopped.get(),
                worker_panics: m.worker_panics.get(),
                queue_depth: sessions.iter().map(|s| s.queue.depth() as u64).sum(),
                queue_high_water: sessions.iter().map(|s| s.queue.high_water()).max().unwrap_or(0),
            });
            snaps.extend(sessions.iter().map(|s| s.current_snapshot()));
        }
        snaps.sort_by_key(|s| s.session);
        let sum = |f: fn(&ShardStatus) -> u64| shard_statuses.iter().map(f).sum::<u64>();
        CollectorStatus {
            protocol_version: STREAM_VERSION,
            sessions_total: sum(|s| s.sessions_total),
            rejected_sessions: self.rejected_sessions.load(Ordering::Relaxed),
            timed_out_sessions: sum(|s| s.timed_out_sessions),
            resumed_sessions: sum(|s| s.resumed_sessions),
            recovered_sessions: sum(|s| s.recovered_sessions),
            shed_sessions: sum(|s| s.shed_sessions),
            quota_stopped_sessions: sum(|s| s.quota_stopped_sessions),
            worker_panics: sum(|s| s.worker_panics),
            forward: self.forward_status(),
            shards: shard_statuses,
            sessions: snaps,
        }
    }

    /// The forwarder's observable state, or `None` when this collector
    /// does not forward.
    fn forward_status(&self) -> Option<ForwardStatus> {
        self.config.forward.as_ref()?;
        let fwd = self.forward.lock().unwrap_or_else(|e| e.into_inner());
        Some(ForwardStatus {
            pushes: self.metrics.forward_pushes.get(),
            failures: self.metrics.forward_failures.get(),
            consecutive_failures: fwd.consecutive_failures,
            last_success_age_secs: fwd.last_success.map(|at| at.elapsed().as_secs()),
            using_fallback: fwd.using_fallback,
            spooled: fwd.spooled,
        })
    }

    /// Classify this collector's health — the `health` request's answer.
    /// Reads only queue counters, atomics and the forwarder state; never
    /// a session assembler lock, so a probe cannot hang behind analysis.
    fn health(&self) -> HealthReport {
        let mut sessions_active = 0u64;
        let mut queue_depth = 0u64;
        let mut journal_degraded = 0u64;
        for shard in &self.shards {
            let sessions = shard.sessions.lock().unwrap_or_else(|e| e.into_inner());
            sessions_active += sessions.len() as u64;
            queue_depth += sessions.iter().map(|s| s.queue.depth() as u64).sum::<u64>();
            journal_degraded +=
                sessions.iter().filter(|s| s.journal_degraded.load(Ordering::Acquire)).count()
                    as u64;
        }
        classify(&HealthInputs {
            sessions_active,
            queue_depth,
            queue_capacity: sessions_active * self.config.queue_capacity as u64,
            shed_sessions: self.metrics.sessions_shed.get(),
            quota_stopped_sessions: self.metrics.sessions_quota_stopped.get(),
            journal_append_failures: self.metrics.journal_append_failures.get(),
            journal_degraded_sessions: journal_degraded,
            worker_panics: self.metrics.worker_panics.get(),
            forward_interval: self.config.forward_interval,
            forward: self.forward_status(),
        })
    }

    /// This collector's CLAG rollup: every tracked session digested at
    /// its current snapshot, merged over anything child collectors have
    /// pushed up. Deterministic for quiesced sessions — the digest is
    /// taken from the same snapshot `status` serves.
    fn rollup(&self) -> Rollup {
        let mut rollup = self.received_rollup.lock().unwrap_or_else(|e| e.into_inner()).clone();
        for session in self.all_sessions() {
            let snap = session.current_snapshot();
            let key = session.rollup_key(&self.config.collector_id);
            let mut digest = digest_report(&key, &snap.report);
            // When windowing is on, annotate the digest with the most
            // recently closed window so CLAG parents can report "critical
            // locks over the last N seconds" fleet-wide.
            digest.window = snap.windows.last().cloned();
            rollup.insert(digest);
        }
        rollup
    }

    fn bump_pass(&self) {
        self.metrics.analysis_passes.inc();
        *self.passes.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        self.progress.notify_all();
    }

    /// Wake every shard's analysis loop: for events that belong to no
    /// one shard (a rejected handshake, shutdown).
    fn wake_all(&self) {
        for shard in &self.shards {
            shard.wake.notify();
        }
    }

    /// Refresh the scrape-time gauges and render the metrics text.
    fn render_metrics(&self) -> String {
        self.refresh_gauges();
        self.metrics.registry.render_prometheus()
    }

    /// Set the gauges that are computed at scrape time. Deliberately
    /// avoids session assembler locks: only queue counters and atomics
    /// are read, so a scrape never contends with analysis.
    fn refresh_gauges(&self) {
        let mut active = 0u64;
        let mut depth = 0u64;
        let mut high_water = 0u64;
        let mut journal_degraded = 0u64;
        for shard in &self.shards {
            let sessions: Vec<Arc<SessionState>> =
                shard.sessions.lock().unwrap_or_else(|e| e.into_inner()).clone();
            let shard_depth: u64 = sessions.iter().map(|s| s.queue.depth() as u64).sum();
            let shard_high = sessions.iter().map(|s| s.queue.high_water()).max().unwrap_or(0);
            shard.metrics.sessions_active.set(sessions.len() as u64);
            shard.metrics.queue_depth.set(shard_depth);
            shard.metrics.queue_high_water.set(shard_high);
            active += sessions.len() as u64;
            depth += shard_depth;
            high_water = high_water.max(shard_high);
            journal_degraded +=
                sessions.iter().filter(|s| s.journal_degraded.load(Ordering::Acquire)).count()
                    as u64;
        }
        let m = &self.metrics;
        m.sessions_active.set(active);
        m.queue_depth.set(depth);
        m.queue_high_water.set(high_water);
        m.journal_degraded_sessions.set(journal_degraded);
        m.journal_disk_used_bytes.set(self.journal_opts.budget.used());
        if let Some(at) = self.forward.lock().unwrap_or_else(|e| e.into_inner()).last_success {
            m.forward_last_success_seconds.set(at.elapsed().as_secs());
        }
    }
}

/// A running collector daemon. Dropping the handle does *not* stop the
/// daemon; call [`CollectorHandle::shutdown`].
pub struct CollectorHandle {
    ingest_addr: Addr,
    status_addr: Option<Addr>,
    metrics_addr: Option<Addr>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl CollectorHandle {
    /// The address producers should stream to (ephemeral TCP ports
    /// resolved).
    pub fn ingest_addr(&self) -> &Addr {
        &self.ingest_addr
    }

    /// The bound status address, if a status endpoint was configured.
    pub fn status_addr(&self) -> Option<&Addr> {
        self.status_addr.as_ref()
    }

    /// The bound metrics address, if a metrics endpoint was configured.
    pub fn metrics_addr(&self) -> Option<&Addr> {
        self.metrics_addr.as_ref()
    }

    /// Compute the current status in-process — the same data the status
    /// socket serves.
    pub fn status(&self) -> CollectorStatus {
        self.shared.status()
    }

    /// Compute the current CLAG rollup in-process — the same bytes the
    /// status socket serves for a `rollup` request.
    pub fn rollup(&self) -> Rollup {
        self.shared.rollup()
    }

    /// Classify the collector's health in-process — the same report the
    /// status socket serves for a `health` request.
    pub fn health(&self) -> HealthReport {
        self.shared.health()
    }

    /// Render the metrics in-process — the same text the metrics socket
    /// serves (available whether or not an endpoint is bound).
    pub fn metrics_text(&self) -> String {
        self.shared.render_metrics()
    }

    /// A deterministic (name-sorted) snapshot of every collector metric.
    pub fn metrics_snapshot(&self) -> critlock_obs::MetricsSnapshot {
        self.shared.refresh_gauges();
        self.shared.metrics.registry.snapshot()
    }

    /// Block until `pred` holds for the collector status or `timeout`
    /// elapses; returns whether the predicate held. Wakes on every
    /// analysis pass via a condvar — no wall-clock spinning — so tests
    /// built on it are paced by the collector, not by sleeps. Every state
    /// change the status reports wakes an analysis loop (see the module
    /// docs), so each one is followed by a pass.
    ///
    /// A `timeout` too large for the monotonic clock to represent (e.g.
    /// `Duration::MAX` from `--timeout u64::MAX`) saturates to "no
    /// deadline" instead of panicking on `Instant` overflow.
    pub fn wait_until(&self, timeout: Duration, pred: impl Fn(&CollectorStatus) -> bool) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            // Evaluate outside the pass lock: status() takes session
            // locks the analysis loop also needs.
            if pred(&self.shared.status()) {
                return true;
            }
            let passes = self.shared.passes.lock().unwrap_or_else(|e| e.into_inner());
            let seen = *passes;
            let remaining = match deadline {
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return false;
                    }
                    remaining
                }
                // No representable deadline: wake on progress (or at a
                // coarse re-check interval) forever.
                None => Duration::from_secs(3600),
            };
            let (guard, _timeout) = self
                .shared
                .progress
                .wait_timeout_while(passes, remaining, |p| *p == seen)
                .unwrap_or_else(|e| e.into_inner());
            drop(guard);
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return pred(&self.shared.status());
            }
        }
    }

    /// The finalized (repaired) trace of a session, if it exists.
    /// `None` for quarantined sessions — their assembler state is not
    /// trusted after a worker panic.
    pub fn session_trace(&self, session: u64) -> Option<Trace> {
        let state = self.shared.all_sessions().into_iter().find(|s| s.id == session)?;
        state.supervised(|| {
            state.apply_pending();
            let asm = state.asm.lock().unwrap_or_else(|e| e.into_inner());
            asm.finalize()
        })
    }

    /// Stop accepting connections, finish pending analysis and join the
    /// daemon threads. Sessions still connected are finalized as
    /// disconnects; journals are synced to disk.
    pub fn shutdown(mut self) {
        self.stop();
        // Graceful drain: fold anything the analysis loop left behind and
        // make every journal durable. Quarantined sessions skip the
        // drain (their assembler is not trusted) but still sync their
        // journal — the frames are good even if the analysis panicked.
        for session in self.shared.all_sessions() {
            session.supervised(|| {
                session.apply_pending();
                if session.dirty.load(Ordering::Acquire) {
                    session.refresh_snapshot();
                }
            });
            if let Some(journal) =
                session.journal.lock().unwrap_or_else(|e| e.into_inner()).as_mut()
            {
                let _ = journal.sync();
            }
        }
    }

    /// Tear the daemon down *without* the graceful drain — connections are
    /// severed abruptly and no final journal sync happens. Approximates a
    /// collector crash for recovery testing: everything a restarted
    /// collector may rely on must already be in the write-ahead journal.
    pub fn crash(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Sever live connections and unblock any reader parked on a full
        // queue, then poke the accept loops so they notice the flag.
        for session in self.shared.all_sessions() {
            if let Some(conn) = session.conn.lock().unwrap_or_else(|e| e.into_inner()).take() {
                let _ = conn.shutdown_both();
            }
            session.queue.close();
        }
        self.shared.wake_all();
        let _ = Stream::connect(&self.ingest_addr);
        if let Some(addr) = &self.status_addr {
            let _ = Stream::connect(addr);
        }
        if let Some(addr) = &self.metrics_addr {
            let _ = Stream::connect(addr);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// The highest `anon-N` journal index already present in a journal
/// directory, so restarted collectors never truncate an earlier run's
/// anonymous journal by reusing its session id.
fn max_anon_index(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let path = e.path();
            let stem = path.file_stem()?.to_str()?;
            stem.strip_prefix("anon-")?.parse::<u64>().ok().map(|n| n + 1)
        })
        .max()
        .unwrap_or(0)
}

/// Every directory journals may live in under `root`: the root itself
/// (the single-shard layout, and legacy journals after a shard-count
/// change) plus any existing `shard-N/` subdirectory — including shards
/// beyond the current count, so scaling *down* loses nothing.
fn journal_dirs(root: &std::path::Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.to_path_buf()];
    if let Ok(entries) = std::fs::read_dir(root) {
        let mut subs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.is_dir()
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .and_then(|n| n.strip_prefix("shard-"))
                        .is_some_and(|n| n.parse::<u64>().is_ok())
            })
            .collect();
        subs.sort();
        dirs.extend(subs);
    }
    dirs
}

/// Bytes of durable collector state currently on disk under `root`:
/// journal segments, checkpoints (and their tmp files) and the outbox
/// spool, across the root and every shard subdirectory. Seeds the disk
/// budget at startup so the quota bounds total size, not just the bytes
/// this process writes.
fn scan_disk_usage(root: &std::path::Path) -> u64 {
    let journal_marker = format!(".{}", journal::JOURNAL_EXT);
    let checkpoint_marker = format!(".{}", ckpt::CHECKPOINT_EXT);
    let mut total = 0u64;
    for dir in journal_dirs(root) {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let durable = name.contains(&journal_marker)
                || name.contains(&checkpoint_marker)
                || name == outbox::OUTBOX_FILE
                || name == "outbox.clag.tmp";
            if durable && path.is_file() {
                total += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    total
}

/// Bind the configured addresses, recover journaled sessions (if a
/// journal directory is configured) and start the daemon threads.
pub fn start(config: CollectorConfig) -> io::Result<CollectorHandle> {
    let mut config = config;
    config.shards = config.shards.max(1);
    let ingest = Listener::bind(&config.ingest_addr)?;
    let ingest_addr = ingest.bound_addr()?;
    let status_listener = match &config.status_addr {
        Some(addr) => Some(Listener::bind(addr)?),
        None => None,
    };
    let status_addr = match &status_listener {
        Some(l) => Some(l.bound_addr()?),
        None => None,
    };
    let metrics_listener = match &config.metrics_addr {
        Some(addr) => Some(Listener::bind(addr)?),
        None => None,
    };
    let metrics_addr = match &metrics_listener {
        Some(l) => Some(l.bound_addr()?),
        None => None,
    };
    let metrics = CollectorMetrics::new();
    let journal_opts = JournalOptions {
        io: Arc::clone(&config.journal_io),
        budget: DiskBudget::with_limit(config.journal_quota_bytes),
        segment_bytes: config.journal_segment_bytes,
        counters: Some(metrics.journal_counters()),
    };

    // Crash recovery: replay every journal under the directory (root and
    // any shard subdirectory) into a pre-populated session before any
    // producer can connect. Each recovered session remembers which
    // directory it came from so its checkpoint is found next to it.
    let mut recovered = Vec::new();
    let mut first_id = 0u64;
    if let Some(root) = &config.journal_dir {
        std::fs::create_dir_all(root)?;
        for dir in journal_dirs(root) {
            first_id = first_id.max(max_anon_index(&dir));
            let (sessions, _unreadable) = journal::recover_dir_with(&dir, &journal_opts)?;
            recovered.extend(sessions.into_iter().map(|s| (dir.clone(), s)));
        }
        // Seed the disk budget with what already sits on disk (recovery
        // above may have deleted torn segments): the quota bounds the
        // durable state's total size, not just this process's writes.
        journal_opts.budget.seed(scan_disk_usage(root));
    }

    let shards = (0..config.shards)
        .map(|index| {
            let journal_dir = config.journal_dir.as_ref().map(|root| {
                if config.shards == 1 {
                    root.clone()
                } else {
                    root.join(format!("shard-{index}"))
                }
            });
            if let Some(dir) = &journal_dir {
                let _ = std::fs::create_dir_all(dir);
            }
            Shard {
                index,
                sessions: Mutex::new(Vec::new()),
                journal_dir,
                metrics: metrics.shard(index),
                wake: Arc::new(Wake::default()),
            }
        })
        .collect();

    let shared = Arc::new(Shared {
        shards,
        next_session_id: AtomicU64::new(first_id),
        rejected_sessions: AtomicU64::new(0),
        tracked_sessions: AtomicU64::new(0),
        received_rollup: Mutex::new(Rollup::new()),
        shutdown: AtomicBool::new(false),
        passes: Mutex::new(0),
        progress: Condvar::new(),
        forward: Mutex::new(ForwardState::default()),
        journal_opts: journal_opts.clone(),
        config: config.clone(),
        metrics: metrics.clone(),
    });

    // A spool left by an earlier run (it died before delivering a
    // rollup) merges straight back into the forwarded state. The merge
    // is idempotent, so a spool that did reach the parent is harmless.
    // Deliberately not subject to `max_rollup_sessions`: this is the
    // collector's own previously-accepted data, not an untrusted push.
    if let Some(root) = &config.journal_dir {
        if let Some(spooled) = outbox::load(root) {
            shared.received_rollup.lock().unwrap_or_else(|e| e.into_inner()).merge(&spooled);
            shared.forward.lock().unwrap_or_else(|e| e.into_inner()).spooled = true;
        }
    }

    for (dir, rec) in recovered {
        let id = shared.next_session_id.fetch_add(1, Ordering::Relaxed);
        // Recovered sessions count against the global admission bound
        // (they may exceed it — recovery never drops journaled data —
        // but further admissions then shed until capacity frees up).
        shared.tracked_sessions.fetch_add(1, Ordering::Relaxed);
        let shard = shared.shard_for(&rec.token, id);
        shard.metrics.sessions_total.inc();
        metrics.sessions_started.inc();
        let journal_file = rec.journal.path();
        let peer =
            format!("journal:{}", journal_file.file_name().and_then(|n| n.to_str()).unwrap_or("?"));
        // Recovered anonymous sessions keep the `anon-N` index of their
        // journal file as their rollup identity, so the key they were
        // already forwarded under before the crash stays theirs.
        let rollup_id = rec.stem.strip_prefix("anon-").and_then(|s| s.parse().ok()).unwrap_or(id);
        // O(tail) recovery: restore the fold from the checkpoint (when
        // one exists and belongs to this session) and stream only the
        // frames past its watermark through the assembler — never
        // materializing the journal in memory, and byte-identical to an
        // assembler that folded every frame live.
        let checkpoint =
            ckpt::load_checkpoint(&dir, &rec.stem).filter(|doc| doc.token == rec.token);
        let mut checkpointed = 0u64;
        let mut asm = match checkpoint {
            Some(doc) => {
                checkpointed = doc.frames;
                metrics.checkpoint_recoveries.inc();
                SessionAssembler::restore(doc, config.session_budget(), config.window_width)
            }
            None => config.new_assembler(),
        };
        // The journal's oldest surviving frame can sit past the
        // checkpoint watermark when absorbed segments were pruned and the
        // checkpoint was then lost (deleted or corrupted on disk). The
        // pruned prefix is unrecoverable; keep the global frame numbering
        // consistent by starting an empty fold at the first surviving
        // frame instead of silently renumbering.
        let oldest = rec.segments.first().map(|s| s.start).unwrap_or(0);
        if checkpointed < oldest {
            checkpointed = oldest;
            let placeholder = critlock_trace::CheckpointDoc {
                token: rec.token.clone(),
                frames: oldest,
                started: false,
                ended: false,
                events: 0,
                events_dropped: 0,
                windows_stale: false,
                trace: Trace::default(),
                window: None,
            };
            asm = SessionAssembler::restore(
                placeholder,
                config.session_budget(),
                config.window_width,
            );
        }
        asm.set_counters(metrics.events_in.clone(), metrics.events_budget_dropped.clone());
        asm.set_stage_timers(metrics.snapshot_stage_ns.clone());
        let replayed = rec.replay_tail(checkpointed, |frame| asm.apply_raw(&frame)).unwrap_or(0);
        metrics.journal_frames_recovered.add(replayed);
        let mut journal = Some(rec.journal);
        let mut journal_degraded = false;
        // The checkpoint can be *ahead* of the surviving journal (the
        // session was journaling degraded, or absorbed segments were
        // pruned and the tail lost to a torn write). Appends must then
        // resume at the checkpoint watermark: open a fresh segment there,
        // or drop to journal-less degraded mode if even that fails.
        if let Some(j) = journal.as_mut() {
            if checkpointed > j.frames() && j.align_to(checkpointed).is_err() {
                journal = None;
                journal_degraded = true;
            }
        }
        let frames = journal.as_ref().map(|j| j.frames()).unwrap_or(0).max(checkpointed);
        let session = Arc::new(SessionState {
            id,
            rollup_id,
            peer,
            token: rec.token.clone(),
            stem: rec.stem.clone(),
            queue: FrameQueue::with_wake(
                config.queue_capacity,
                config.backpressure,
                Arc::clone(&shard.wake),
            ),
            asm: Mutex::new(asm),
            dirty: AtomicBool::new(true),
            snapshot: Mutex::new(None),
            received_seq: AtomicU64::new(frames),
            attached: AtomicBool::new(false),
            journal: Mutex::new(journal),
            journal_degraded: AtomicBool::new(journal_degraded),
            checkpointed_frames: AtomicU64::new(checkpointed),
            conn: Mutex::new(None),
            bytes_ingested: AtomicU64::new(0),
            over_quota: AtomicBool::new(false),
            quota_counted: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            panic_app: config.panic_on_app.clone(),
            metrics: metrics.clone(),
            shard_metrics: shard.metrics.clone(),
        });
        shard.sessions.lock().unwrap_or_else(|e| e.into_inner()).push(session);
        shard.metrics.sessions_recovered.inc();
        metrics.sessions_recovered.inc();
    }

    let mut threads = Vec::new();

    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || accept_loop(ingest, shared)));
    }
    for index in 0..shared.shards.len() {
        let shared = Arc::clone(&shared);
        // Supervised: a panic that somehow escapes the per-session
        // quarantine (a bug in the loop itself) restarts the worker
        // instead of silently halting the shard's analysis forever.
        threads.push(std::thread::spawn(move || loop {
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                analysis_loop(Arc::clone(&shared), index)
            }));
            if run.is_ok() || shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            shared.metrics.worker_panics.inc();
            shared.shards[index].metrics.worker_panics.inc();
        }));
    }
    if let Some(listener) = status_listener {
        let shared = Arc::clone(&shared);
        threads
            .push(std::thread::spawn(move || control_loop(listener, shared, serve_status_request)));
    }
    if let Some(listener) = metrics_listener {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            control_loop(listener, shared, |_request, _body, shared| {
                // Any request line (`metrics`, or an HTTP GET) gets the
                // same plaintext exposition.
                Ok(shared.render_metrics().into_bytes())
            })
        }));
    }
    if shared.config.forward.is_some() {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || forward_loop(shared)));
    }

    Ok(CollectorHandle { ingest_addr, status_addr, metrics_addr, shared, threads })
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => break,
        };
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let shared = Arc::clone(&shared);
        // Reader threads are intentionally not joined on shutdown: they
        // exit when their producer disconnects.
        std::thread::spawn(move || session_reader(stream, peer, shared));
    }
}

/// Outcome of a connection's attempt to claim a session.
enum Claim {
    /// The connection owns the session; the flag says it resumed one.
    Attached(Arc<SessionState>, bool),
    /// The session exists but another connection already owns it.
    Busy,
    /// Admission control: the owning shard is at its session cap, the
    /// connection was shed before a session was created.
    Shed,
}

/// Look up the session a resumable handshake refers to, or create a new
/// session (resumable or anonymous) in its shard. Session ids come from
/// the dedicated [`Shared::next_session_id`] allocator — never from the
/// statistics counters — so concurrent connects always get unique,
/// monotonic ids. The owning shard's map lock is held across the
/// lookup-or-create, so two concurrent claims of one token cannot both
/// create; claims on different shards never contend.
fn claim_session(shared: &Arc<Shared>, token: &[u8], peer: String) -> Claim {
    if !token.is_empty() {
        // Token sessions route by the token hash — no id needed, so a
        // resume (the common reconnect path) allocates nothing.
        let shard = shared.shard_for(token, 0);
        let sessions = shard.sessions.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(session) = sessions.iter().find(|s| s.token == token).cloned() {
            drop(sessions);
            if session.attached.swap(true, Ordering::AcqRel) {
                // Another reader owns this session: reject the duplicate
                // connection; the producer retries with backoff.
                return Claim::Busy;
            }
            return Claim::Attached(session, true);
        }
        if shard_at_cap(shared, shard, sessions.len()) {
            return Claim::Shed;
        }
        let id = shared.next_session_id.fetch_add(1, Ordering::Relaxed);
        return create_session(shared, shard, sessions, id, token, peer);
    }
    if shared.shards.len() == 1 {
        // Anonymous, single shard: cap first, then allocate — exactly
        // the unsharded collector's order, so shed connections burn no
        // session id.
        let shard = &shared.shards[0];
        let sessions = shard.sessions.lock().unwrap_or_else(|e| e.into_inner());
        if shard_at_cap(shared, shard, sessions.len()) {
            return Claim::Shed;
        }
        let id = shared.next_session_id.fetch_add(1, Ordering::Relaxed);
        return create_session(shared, shard, sessions, id, token, peer);
    }
    // Anonymous, multiple shards: routed by id, so the id must exist
    // before the shard is known; an id burned on a shed connection is
    // harmless (ids only need to be unique and monotonic).
    let id = shared.next_session_id.fetch_add(1, Ordering::Relaxed);
    let shard = shared.shard_for(token, id);
    let sessions = shard.sessions.lock().unwrap_or_else(|e| e.into_inner());
    if shard_at_cap(shared, shard, sessions.len()) {
        return Claim::Shed;
    }
    create_session(shared, shard, sessions, id, token, peer)
}

/// Two-layer admission check: each shard owns an equal slice
/// (`ceil(max / shards)`) of the global cap so one hot shard cannot
/// starve the others, and the collector-wide total is additionally held
/// to `max_sessions` itself by reserving a slot in the global counter —
/// every caller that passes this check creates its session immediately
/// (under the shard map lock it already holds), so a reserved slot is
/// always consumed. Counts the shed on both the shard and the
/// collector-wide counter.
fn shard_at_cap(shared: &Shared, shard: &Shard, tracked: usize) -> bool {
    let Some(max) = shared.config.max_sessions else { return false };
    let shed = tracked >= max.div_ceil(shared.shards.len())
        || shared
            .tracked_sessions
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < max as u64).then_some(n + 1)
            })
            .is_err();
    if shed {
        shard.metrics.sessions_shed.inc();
        shared.metrics.sessions_shed.inc();
        shard.wake.notify();
    }
    shed
}

/// Build a new session in `shard` (whose map lock the caller holds) and
/// attach the calling connection to it.
fn create_session(
    shared: &Arc<Shared>,
    shard: &Shard,
    mut sessions: std::sync::MutexGuard<'_, Vec<Arc<SessionState>>>,
    id: u64,
    token: &[u8],
    peer: String,
) -> Claim {
    shard.metrics.sessions_total.inc();
    shared.metrics.sessions_started.inc();
    let journal = shard.journal_dir.as_deref().and_then(|dir| {
        // A journal that cannot be created (disk quota, ENOSPC, ...)
        // degrades the session to unjournaled rather than refusing the
        // producer: availability over durability.
        SessionJournal::create(dir, token, id, shared.journal_opts.clone()).ok()
    });
    let journal_degraded = shard.journal_dir.is_some() && journal.is_none();
    let mut asm = shared.config.new_assembler();
    asm.set_counters(
        shared.metrics.events_in.clone(),
        shared.metrics.events_budget_dropped.clone(),
    );
    asm.set_stage_timers(shared.metrics.snapshot_stage_ns.clone());
    let session = Arc::new(SessionState {
        id,
        rollup_id: id,
        peer,
        token: token.to_vec(),
        stem: journal_stem(token, id),
        queue: FrameQueue::with_wake(
            shared.config.queue_capacity,
            shared.config.backpressure,
            Arc::clone(&shard.wake),
        ),
        asm: Mutex::new(asm),
        dirty: AtomicBool::new(true),
        snapshot: Mutex::new(None),
        received_seq: AtomicU64::new(0),
        attached: AtomicBool::new(true),
        journal: Mutex::new(journal),
        journal_degraded: AtomicBool::new(journal_degraded),
        checkpointed_frames: AtomicU64::new(0),
        conn: Mutex::new(None),
        bytes_ingested: AtomicU64::new(0),
        over_quota: AtomicBool::new(false),
        quota_counted: AtomicBool::new(false),
        poisoned: AtomicBool::new(false),
        panic_app: shared.config.panic_on_app.clone(),
        metrics: shared.metrics.clone(),
        shard_metrics: shard.metrics.clone(),
    });
    sessions.push(Arc::clone(&session));
    Claim::Attached(session, false)
}

fn session_reader(stream: Stream, peer: String, shared: Arc<Shared>) {
    if let Some(idle) = shared.config.idle_timeout {
        let _ = stream.set_read_timeout(Some(idle));
    }
    // The write half for acks: the read half is about to be owned by the
    // frame decoder.
    let ack_conn = stream.try_clone().ok();

    // Handshake: magic + version (+ resume token) are read here, so an
    // incompatible producer is rejected before a session is created.
    let mut reader = match StreamReader::new(BufReader::new(stream)) {
        Ok(reader) => reader,
        Err(_) => {
            shared.rejected_sessions.fetch_add(1, Ordering::Relaxed);
            shared.metrics.sessions_rejected.inc();
            shared.wake_all();
            return;
        }
    };
    let handshake = reader.handshake().clone();

    let (session, resumed) = match claim_session(&shared, &handshake.token, peer) {
        Claim::Attached(session, resumed) => (session, resumed),
        Claim::Busy | Claim::Shed => return,
    };
    if resumed {
        session.shard_metrics.sessions_resumed.inc();
        shared.metrics.sessions_resumed.inc();
    }
    session.queue.wake_consumer();
    *session.conn.lock().unwrap_or_else(|e| e.into_inner()) = ack_conn;

    // Resumable producers get told where to (re)start: the next sequence
    // number this session expects. A session whose ack cannot be written
    // is severed — the producer would otherwise replay blindly.
    if handshake.resumable() {
        let acked = {
            let mut conn = session.conn.lock().unwrap_or_else(|e| e.into_inner());
            match conn.as_mut() {
                Some(c) => write_ack(c, session.received_seq.load(Ordering::Acquire)).is_ok(),
                None => false,
            }
        };
        if !acked {
            session.attached.store(false, Ordering::Release);
            session.queue.wake_consumer();
            return;
        }
    }

    // Frame loop. Frame i of this connection carries implicit sequence
    // number `start_seq + i`; frames the session already holds (a replay
    // overlap) are skipped, and the journal append happens *before* the
    // queue push so acknowledgements only ever cover durable frames.
    let mut seq = handshake.start_seq;
    let mut timed_out = false;
    let mut quota_cut = false;
    let mut conn_bytes = 0u64;
    let metrics = &shared.metrics;
    loop {
        match reader.next_frame_raw() {
            Ok(Some(frame)) => {
                metrics.frames_in.inc();
                // Per-session byte quota, counted across reconnects. The
                // frame that crosses the line is discarded (not queued,
                // not acknowledged) and ingest stops deterministically.
                let now = reader.payload_bytes();
                session.bytes_ingested.fetch_add(now - conn_bytes, Ordering::Relaxed);
                metrics.bytes_in.add(now - conn_bytes);
                conn_bytes = now;
                if let Some(quota) = shared.config.session_quota_bytes {
                    if session.bytes_ingested.load(Ordering::Relaxed) > quota {
                        metrics.frames_quota_dropped.inc();
                        session.over_quota.store(true, Ordering::Release);
                        if !session.quota_counted.swap(true, Ordering::AcqRel) {
                            session.shard_metrics.sessions_quota_stopped.inc();
                            metrics.sessions_quota_stopped.inc();
                        }
                        quota_cut = true;
                        break;
                    }
                }
                let expected = session.received_seq.load(Ordering::Acquire);
                if seq < expected {
                    metrics.frames_replayed.inc();
                    seq += 1;
                    continue;
                }
                if seq > expected {
                    // The producer skipped ahead — a protocol violation
                    // (or an ack it never saw). Force a re-handshake.
                    metrics.frames_gap_rejected.inc();
                    break;
                }
                let is_end = frame.is_end();
                {
                    let mut journal = session.journal.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(j) = journal.as_mut() {
                        if j.append_raw(&frame).is_err() {
                            // Disk quota or write failure: drop to
                            // journal-less degraded mode but keep
                            // ingesting — the session is no longer
                            // crash-resumable, which the published
                            // report and health both surface.
                            *journal = None;
                            session.journal_degraded.store(true, Ordering::Release);
                            session.mark_dirty();
                        } else if is_end {
                            let _ = j.sync();
                        }
                    }
                }
                if session.queue.push(frame) {
                    metrics.frames_assembled.inc();
                } else {
                    metrics.frames_queue_dropped.inc();
                }
                seq += 1;
                session.received_seq.store(seq, Ordering::Release);
                // A finished session is applied at once; a strict one is
                // checked against its budget as each frame arrives. Other
                // frames wait for the queue's half-full wake or the next
                // snapshot tick.
                if is_end || shared.config.strict {
                    session.queue.wake_consumer();
                }
            }
            Ok(None) => break,
            Err(TraceError::Io(ref e)) if Stream::is_timeout(e) => {
                timed_out = true;
                break;
            }
            Err(TraceError::Decode(_)) => {
                // Frame CRC mismatch or corrupt framing: the connection is
                // unusable past this point; count it and sever.
                metrics.frames_crc_failed.inc();
                break;
            }
            Err(_) => break,
        }
    }
    if timed_out {
        session.shard_metrics.sessions_timed_out.inc();
        metrics.sessions_timed_out.inc();
    }

    // Tell a resumable producer how far this connection got (best effort
    // — the wire may already be gone), then release the session.
    let mut conn = session.conn.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(c) = conn.as_mut() {
        if handshake.resumable() {
            let _ = write_ack(c, session.received_seq.load(Ordering::Acquire));
        }
        if timed_out || quota_cut {
            let _ = c.shutdown_both();
        }
    }
    *conn = None;
    drop(conn);
    session.attached.store(false, Ordering::Release);
    session.mark_dirty();
    session.queue.wake_consumer();
}

/// One shard's analysis loop: drain that shard's queues, enforce the
/// strict resource policy, republish snapshots on the configured
/// interval, then park on the shard's wake until it is signalled or the
/// next snapshot or checkpoint falls due. Each shard gets an equal slice
/// of the analysis worker pool.
fn analysis_loop(shared: Arc<Shared>, shard_index: usize) {
    // The snapshot analysis (repair + offline analyze) runs inside a
    // dedicated worker pool sized by `analysis_threads`, split across
    // shards; snapshots are bit-identical at any pool size, so this is
    // purely a latency knob.
    let workers = shared
        .config
        .analysis_threads
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    let workers = workers.div_ceil(shared.shards.len()).max(1);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(workers).build().ok();
    let shard = &shared.shards[shard_index];
    // A deadline too far off for the monotonic clock is `None`: never.
    let after = |interval: Duration| Instant::now().checked_add(interval);
    let due = |deadline: Option<Instant>| deadline.is_some_and(|d| Instant::now() >= d);
    let mut next_publish = after(shared.config.snapshot_interval);
    let mut next_checkpoint =
        shard.journal_dir.as_ref().and_then(|_| after(shared.config.checkpoint_interval));
    loop {
        if let Some(gate) = &shared.config.analysis_gate {
            drop(gate.lock().unwrap_or_else(|e| e.into_inner()));
        }
        let stopping = shared.shutdown.load(Ordering::Acquire);
        let sessions: Vec<Arc<SessionState>> =
            shard.sessions.lock().unwrap_or_else(|e| e.into_inner()).clone();
        for session in &sessions {
            if session.poisoned.load(Ordering::Acquire) {
                // Quarantined: discard instead of assembling, so a
                // blocked producer is released and the queue never
                // wedges shutdown. The published snapshot is frozen.
                let _ = session.queue.drain();
                continue;
            }
            session.supervised(|| session.apply_pending());
            if shared.config.strict {
                // Strict resource policy: a session whose assembly had to
                // be truncated (event budget) or whose ingest hit the
                // byte quota is severed instead of served degraded.
                let over = session.asm.lock().unwrap_or_else(|e| e.into_inner()).degraded()
                    || session.over_quota.load(Ordering::Acquire);
                if over {
                    if let Some(conn) =
                        session.conn.lock().unwrap_or_else(|e| e.into_inner()).take()
                    {
                        let _ = conn.shutdown_both();
                    }
                }
            }
        }
        if stopping || due(next_publish) {
            for session in &sessions {
                if session.dirty.load(Ordering::Acquire) {
                    // The panic guard sits *inside* the pool closure, so
                    // a panicking refresh quarantines one session without
                    // ever unwinding through rayon into this loop.
                    match &pool {
                        Some(pool) => {
                            pool.install(|| session.supervised(|| session.refresh_snapshot()));
                        }
                        None => {
                            session.supervised(|| session.refresh_snapshot());
                        }
                    }
                }
            }
            next_publish = after(shared.config.snapshot_interval);
        }
        if shard.journal_dir.is_some() && (stopping || due(next_checkpoint)) {
            for session in &sessions {
                maybe_checkpoint(&shared, shard_index, session);
            }
            next_checkpoint = after(shared.config.checkpoint_interval);
        }
        shared.bump_pass();
        if stopping {
            break;
        }
        let next = match (next_publish, next_checkpoint) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        shard.wake.park(next);
    }
}

/// Checkpoint one session's fold state if it advanced since the last
/// checkpoint, then prune journal segments the checkpoint fully absorbs.
/// Failures are counted, never fatal: the journal stays authoritative
/// and recovery just replays more of it.
///
/// Skipped while the session's queue has dropped frames
/// ([`Backpressure::Drop`]): journaled frame numbers and the applied
/// frame count diverge once a journaled frame is shed before assembly,
/// so a checkpoint watermark would cover frames that were never folded.
fn maybe_checkpoint(shared: &Shared, shard_index: usize, session: &SessionState) {
    let Some(dir) = shared.shards[shard_index].journal_dir.as_ref() else { return };
    if session.poisoned.load(Ordering::Acquire) || session.queue.dropped() > 0 {
        return;
    }
    let doc = {
        let asm = session.asm.lock().unwrap_or_else(|e| e.into_inner());
        if asm.frames() == session.checkpointed_frames.load(Ordering::Acquire) {
            return;
        }
        asm.checkpoint_doc(&session.token)
    };
    let opts = &shared.journal_opts;
    match ckpt::write_checkpoint(opts.io.as_ref(), &opts.budget, dir, &session.stem, &doc) {
        Ok(()) => {
            shared.metrics.checkpoint_writes.inc();
            session.checkpointed_frames.store(doc.frames, Ordering::Release);
            if let Some(j) = session.journal.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
                let (pruned, _bytes) = j.prune_absorbed(doc.frames);
                shared.metrics.journal_segments_pruned.add(pruned);
            }
        }
        Err(_) => shared.metrics.checkpoint_failures.inc(),
    }
}

/// While on the fallback parent, every Nth tick probes the primary first
/// so forwarding fails back as soon as the primary recovers.
const FAILBACK_PROBE_TICKS: u64 = 4;

/// How long the forwarder sleeps before its next tick: the plain forward
/// interval while pushes succeed, the retry policy's capped exponential
/// backoff once they fail (failure `n` sleeps `retry.backoff(n - 1)`, so
/// the first retry is prompt and sustained failure settles at the
/// policy's cap instead of hammering a dead parent). Pure, so the
/// schedule is unit-testable.
fn forward_pause(retry: &RetryPolicy, interval: Duration, consecutive_failures: u64) -> Duration {
    if consecutive_failures == 0 {
        return interval;
    }
    let attempt = (consecutive_failures - 1).min(u64::from(u32::MAX)) as u32;
    retry.backoff(attempt)
}

/// The instant the forwarder's next tick is due, `pause` from `now`.
/// A pause too large for the monotonic clock to represent (e.g. a
/// `Duration::MAX` backoff cap from the CLI) saturates to `None` — "not
/// before shutdown" — instead of panicking on `Instant` overflow, the
/// same convention as [`CollectorHandle::wait_until`].
fn forward_deadline(now: Instant, pause: Duration) -> Option<Instant> {
    now.checked_add(pause)
}

/// One push attempt to one parent, counting the outcome.
fn try_push(
    shared: &Shared,
    addr: &Addr,
    rollup: &Rollup,
    faults: &Option<Arc<Mutex<FaultState>>>,
) -> bool {
    let timeout = Some(shared.config.forward_timeout);
    match crate::client::push_rollup_with(addr, rollup, timeout, faults) {
        Ok(_) => {
            shared.metrics.forward_pushes.inc();
            true
        }
        Err(_) => {
            shared.metrics.forward_failures.inc();
            false
        }
    }
}

/// A rollup was delivered: reset the failure streak, note which parent
/// took it, and clear the spool — everything spooled is now upstream.
fn record_forward_success(shared: &Shared, on_fallback: bool) {
    let mut fwd = shared.forward.lock().unwrap_or_else(|e| e.into_inner());
    fwd.consecutive_failures = 0;
    fwd.last_success = Some(Instant::now());
    fwd.using_fallback = on_fallback;
    if fwd.spooled {
        if let Some(root) = &shared.config.journal_dir {
            let opts = &shared.journal_opts;
            let _ = outbox::clear_with(opts.io.as_ref(), &opts.budget, root);
        }
        fwd.spooled = false;
    }
}

/// Persist the undelivered rollup to the outbox spool (when journaling
/// gives us a directory to spool into) and extend the failure streak.
/// Returns the streak length.
fn record_forward_failure(shared: &Shared, rollup: &Rollup) -> u64 {
    if let Some(root) = &shared.config.journal_dir {
        let opts = &shared.journal_opts;
        if outbox::save_with(opts.io.as_ref(), &opts.budget, root, rollup).is_ok() {
            shared.forward.lock().unwrap_or_else(|e| e.into_inner()).spooled = true;
        }
    }
    let mut fwd = shared.forward.lock().unwrap_or_else(|e| e.into_inner());
    fwd.consecutive_failures += 1;
    fwd.consecutive_failures
}

/// One forward tick: deliver `rollup` to the primary or the fallback,
/// driving the failover state machine. Returns whether it was delivered.
///
/// * On the primary: push there; a failure spools the rollup, and once
///   the streak reaches `forward_retry.max_attempts` the fallback (if
///   configured) is tried in the same tick — success fails over.
/// * On the fallback: every [`FAILBACK_PROBE_TICKS`]th tick probes the
///   primary first (success fails back), otherwise the fallback carries
///   the push; a tick with no delivery spools and extends the streak.
fn forward_tick(
    shared: &Shared,
    primary: &Addr,
    fallback: Option<&Addr>,
    rollup: &Rollup,
    faults: &Option<Arc<Mutex<FaultState>>>,
) -> bool {
    let using_fallback = {
        let mut fwd = shared.forward.lock().unwrap_or_else(|e| e.into_inner());
        fwd.ticks += 1;
        fwd.using_fallback
    };
    if !using_fallback {
        if try_push(shared, primary, rollup, faults) {
            record_forward_success(shared, false);
            return true;
        }
        let streak = record_forward_failure(shared, rollup);
        if let Some(fb) = fallback {
            if streak >= u64::from(shared.config.forward_retry.max_attempts.max(1))
                && try_push(shared, fb, rollup, faults)
            {
                record_forward_success(shared, true);
                return true;
            }
        }
        return false;
    }
    let probe = shared
        .forward
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .ticks
        .is_multiple_of(FAILBACK_PROBE_TICKS);
    if probe && try_push(shared, primary, rollup, faults) {
        record_forward_success(shared, false);
        return true;
    }
    if let Some(fb) = fallback {
        if try_push(shared, fb, rollup, faults) {
            record_forward_success(shared, true);
            return true;
        }
    }
    record_forward_failure(shared, rollup);
    false
}

/// Periodically push this collector's rollup to the parent collector's
/// status socket. At-least-once with an idempotent merge: a failed push
/// is spooled to the outbox and retried with capped exponential backoff
/// ([`CollectorConfig::forward_retry`]), failing over to
/// [`CollectorConfig::forward_fallback`] after a sustained streak and
/// probing its way back to the primary. Shutdown flushes the final
/// rollup with the same bounded retry budget — and spools it first, so
/// a child dying with every parent unreachable still loses nothing.
fn forward_loop(shared: Arc<Shared>) {
    let Some(primary) = shared.config.forward.clone() else { return };
    let fallback = shared.config.forward_fallback.clone();
    let retry = shared.config.forward_retry;
    let interval = shared.config.forward_interval;
    // One FaultState for the thread's lifetime: one-shot fault actions
    // are consumed across pushes, like the trace-push path across
    // reconnects.
    let faults = shared.config.forward_fault_plan.as_ref().map(FaultState::new);
    let step = Duration::from_millis(10).min(interval.max(Duration::from_millis(1)));
    loop {
        let streak = shared.forward.lock().unwrap_or_else(|e| e.into_inner()).consecutive_failures;
        let deadline = forward_deadline(Instant::now(), forward_pause(&retry, interval, streak));
        // Sleep in small steps so shutdown is prompt; an unrepresentable
        // deadline (saturated pause) sleeps until shutdown.
        while deadline.is_none_or(|d| Instant::now() < d)
            && !shared.shutdown.load(Ordering::Acquire)
        {
            std::thread::sleep(step);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let rollup = shared.rollup();
        if rollup.is_empty() {
            continue;
        }
        forward_tick(&shared, &primary, fallback.as_ref(), &rollup, &faults);
    }
    // Shutdown flush. Spool before the first attempt: the rollup is
    // durable even if the process is killed mid-flush.
    let rollup = shared.rollup();
    if rollup.is_empty() {
        return;
    }
    if let Some(root) = &shared.config.journal_dir {
        let opts = &shared.journal_opts;
        if outbox::save_with(opts.io.as_ref(), &opts.budget, root, &rollup).is_ok() {
            shared.forward.lock().unwrap_or_else(|e| e.into_inner()).spooled = true;
        }
    }
    for attempt in 0..shared.config.forward_retry.max_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(retry.backoff(attempt - 1));
        }
        if forward_tick(&shared, &primary, fallback.as_ref(), &rollup, &faults) {
            break;
        }
    }
}

/// Refuse a control connection with a definite `err` line instead of a
/// silently dropped socket the client might block on: one accepted while
/// the collector shuts down, or one that finds every handler busy. The
/// request the client already sent is read (briefly, and bounded) before
/// the socket closes: closing with it unread would reset the connection
/// and the client would lose the reply.
fn refuse_request(mut stream: Stream, reply: &[u8]) -> io::Result<()> {
    stream.set_write_timeout(Some(REFUSAL_DRAIN))?;
    stream.set_read_timeout(Some(REFUSAL_DRAIN))?;
    stream.write_all(reply)?;
    stream.flush()?;
    stream.shutdown_write()?;
    let _ = (&mut stream).take(MAX_REQUEST_LINE).read_to_end(&mut Vec::new());
    Ok(())
}

/// How long a refused control connection may hold the accept loop.
const REFUSAL_DRAIN: Duration = Duration::from_millis(50);

/// Read/write deadline on every accepted control-socket connection. A
/// client that connects and goes quiet holds its handler for at most this
/// long — well inside the 5 s default the CLI's control verbs wait for a
/// reply.
pub const CONTROL_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Connections each control socket (status, metrics) serves at once. A
/// connection arriving while every handler is busy is answered
/// `err busy` and closed rather than queued, so idle clients can never
/// pile up behind one another; a retry succeeds within one
/// [`CONTROL_IO_TIMEOUT`].
pub const CONTROL_HANDLERS: usize = 4;

/// Longest control request line, newline included. Every verb fits in a
/// few dozen bytes; a longer line is answered `err` unread.
pub const MAX_REQUEST_LINE: u64 = 256;

/// Serves one control request: the trimmed request line, a reader over
/// any bytes that follow it, and the collector state; returns the reply.
type ServeFn = fn(&str, &mut BufReader<Stream>, &Shared) -> io::Result<Vec<u8>>;

/// Accept loop shared by the status and metrics sockets: each connection
/// goes to one of at most [`CONTROL_HANDLERS`] handler threads and is
/// served under [`CONTROL_IO_TIMEOUT`]; with every handler busy it is
/// refused with `err busy`. Handlers are spawned only when no idle one
/// is left, and idle ones form a stack, so one-at-a-time requests all
/// land on one thread (its allocator arena and caches stay warm) and a
/// collector that is never queried concurrently runs a single handler.
fn control_loop(listener: Listener, shared: Arc<Shared>, serve: ServeFn) {
    let idle = Arc::new(Mutex::new(Vec::<usize>::with_capacity(CONTROL_HANDLERS)));
    let mut handoff = Vec::with_capacity(CONTROL_HANDLERS);
    let mut handlers = Vec::with_capacity(CONTROL_HANDLERS);
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => break,
        };
        if shared.shutdown.load(Ordering::Acquire) {
            let _ = refuse_request(stream, b"err collector shutting down\n");
            break;
        }
        let mut handler = idle.lock().unwrap_or_else(|e| e.into_inner()).pop();
        if handler.is_none() && handoff.len() < CONTROL_HANDLERS {
            let index = handoff.len();
            let (tx, rx) = std::sync::mpsc::channel::<Stream>();
            let (idle, shared) = (Arc::clone(&idle), Arc::clone(&shared));
            handoff.push(tx);
            handlers.push(std::thread::spawn(move || {
                for stream in rx {
                    let _ = serve_control(stream, &shared, serve);
                    idle.lock().unwrap_or_else(|e| e.into_inner()).push(index);
                }
            }));
            handler = Some(index);
        }
        match handler {
            Some(index) => {
                let _ = handoff[index].send(stream);
            }
            None => {
                let _ = refuse_request(stream, b"err busy\n");
            }
        }
    }
    // Closing the channels ends each handler after its current request.
    drop(handoff);
    for handler in handlers {
        let _ = handler.join();
    }
}

/// Read one bounded request line under the per-connection deadline, hand
/// it to `serve`, then write and flush the reply.
fn serve_control(stream: Stream, shared: &Shared, serve: ServeFn) -> io::Result<()> {
    stream.set_read_timeout(Some(CONTROL_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(CONTROL_IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    (&mut reader).take(MAX_REQUEST_LINE).read_line(&mut line)?;
    let reply = if line.len() as u64 == MAX_REQUEST_LINE && !line.ends_with('\n') {
        b"err request line too long\n".to_vec()
    } else {
        serve(line.trim(), &mut reader, shared)?
    };
    let mut stream = reader.into_inner();
    stream.write_all(&reply)?;
    stream.flush()
}

/// Serve one status-socket request. The socket is line-oriented:
///
/// * `status` / `status json` — the status document (text / JSON);
/// * `health` / `health json` — the ok/degraded/unhealthy
///   classification (see [`crate::health`]);
/// * `rollup` — this collector's CLAG rollup, as raw bytes;
/// * `rollup-push LEN` followed by exactly LEN CLAG bytes — merge a
///   child collector's rollup into this one; replies `ok N\n` (N = the
///   parent's total retained session count after the merge) or
///   `err REASON\n`. A push whose bytes fail the CRC (a child died
///   mid-forward) is rejected whole, as is one that would lift the
///   retained state past [`CollectorConfig::max_rollup_sessions`]: the
///   parent keeps its last good rollup and the child re-sends next
///   tick.
fn serve_status_request(
    request: &str,
    body: &mut BufReader<Stream>,
    shared: &Shared,
) -> io::Result<Vec<u8>> {
    let render_err = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    if let Some(len) = request.strip_prefix("rollup-push ") {
        let reply = match receive_rollup(body, len) {
            Ok(rollup) => {
                let mut received = shared.received_rollup.lock().unwrap_or_else(|e| e.into_inner());
                let new = rollup
                    .sessions
                    .keys()
                    .filter(|key| !received.sessions.contains_key(*key))
                    .count();
                let cap = shared.config.max_rollup_sessions;
                if received.len() + new > cap {
                    format!("err rollup cap {cap} sessions reached\n")
                } else {
                    received.merge(&rollup);
                    format!("ok {}\n", received.len())
                }
            }
            Err(reason) => format!("err {reason}\n"),
        };
        return Ok(reply.into_bytes());
    }
    let reply = match request {
        "rollup" => return Ok(shared.rollup().to_bytes()),
        "health" => shared.health().render_text(),
        "health json" => shared.health().render_json().map_err(render_err)?,
        "status json" => shared.status().render_json().map_err(render_err)?,
        _ => shared.status().render_text(),
    };
    Ok(reply.into_bytes())
}

/// Read and decode the body of a `rollup-push`: a declared length, then
/// that many CLAG bytes. Every failure mode (bad length, oversized push,
/// short read, framing/CRC mismatch) is folded into a printable reason —
/// the connection served an invalid push, not the collector's problem.
fn receive_rollup(reader: &mut impl Read, len: &str) -> Result<Rollup, String> {
    let len: usize = len.trim().parse().map_err(|_| "bad length".to_string())?;
    if len > MAX_ROLLUP_LEN + 64 {
        return Err(format!("rollup too large ({len} bytes)"));
    }
    let mut bytes = vec![0u8; len];
    reader.read_exact(&mut bytes).map_err(|e| format!("short read: {e}"))?;
    Rollup::from_bytes(&bytes).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test hook run right after `refresh_snapshot` releases the
    /// assembler lock, on the refreshing thread only.
    pub(super) fn after_assembler_release(session: &SessionState) {
        if let Some(hook) = AFTER_ASSEMBLER_RELEASE.take() {
            hook(session);
        }
    }

    thread_local! {
        static AFTER_ASSEMBLER_RELEASE: std::cell::Cell<Option<fn(&SessionState)>> =
            const { std::cell::Cell::new(None) };
    }

    /// A session outside any collector: no journal, no connection.
    fn bare_session() -> SessionState {
        let metrics = CollectorMetrics::new();
        SessionState {
            id: 0,
            rollup_id: 0,
            peer: "test".into(),
            token: Vec::new(),
            stem: "anon-0".into(),
            queue: FrameQueue::new(16, Backpressure::Block),
            asm: Mutex::new(SessionAssembler::new()),
            dirty: AtomicBool::new(false),
            snapshot: Mutex::new(None),
            received_seq: AtomicU64::new(0),
            attached: AtomicBool::new(true),
            journal: Mutex::new(None),
            journal_degraded: AtomicBool::new(false),
            checkpointed_frames: AtomicU64::new(0),
            conn: Mutex::new(None),
            bytes_ingested: AtomicU64::new(0),
            over_quota: AtomicBool::new(false),
            quota_counted: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            panic_app: None,
            shard_metrics: metrics.shard(0),
            metrics,
        }
    }

    /// An `apply_pending` that lands just after a refresh released the
    /// assembler lock must leave the session dirty, so the frames it
    /// applied reach the next snapshot. Before the fix the refresh
    /// cleared `dirty` after that point, and an ended session then
    /// served its stale snapshot forever.
    #[test]
    fn apply_racing_a_refresh_keeps_the_session_dirty() {
        use critlock_trace::stream::{Frame, RawFrame};
        let session = bare_session();
        let start = Frame::Start { meta: critlock_trace::TraceMeta::named("race") };
        session.queue.push(RawFrame::encode(&start).unwrap());
        assert!(session.apply_pending());
        session.queue.push(RawFrame::encode(&Frame::End).unwrap());
        AFTER_ASSEMBLER_RELEASE.set(Some(|s| assert!(s.apply_pending())));
        let stale = session.refresh_snapshot();
        assert_eq!((stale.frames, stale.ended), (1, false));
        assert!(session.dirty.load(Ordering::Acquire), "the racing apply's dirty flag was lost");
        let fresh = session.current_snapshot();
        assert_eq!((fresh.frames, fresh.ended), (2, true));
    }

    #[test]
    fn forward_pause_is_interval_then_capped_exponential() {
        let retry = RetryPolicy::default();
        let interval = Duration::from_millis(500);
        assert_eq!(forward_pause(&retry, interval, 0), interval);
        // Failure n sleeps backoff(n - 1): doubling from the policy's
        // initial backoff up to its documented cap, never past it.
        assert_eq!(forward_pause(&retry, interval, 1), retry.initial_backoff);
        assert_eq!(forward_pause(&retry, interval, 2), retry.initial_backoff * 2);
        assert_eq!(forward_pause(&retry, interval, 3), retry.initial_backoff * 4);
        let mut prev = Duration::ZERO;
        for failures in 1..=64u64 {
            let pause = forward_pause(&retry, interval, failures);
            assert!(pause <= retry.max_backoff, "failure {failures} slept {pause:?}");
            assert!(pause >= prev, "backoff must be monotone");
            prev = pause;
        }
        assert_eq!(forward_pause(&retry, interval, 64), retry.max_backoff);
        // A huge streak must not overflow the shift.
        assert_eq!(forward_pause(&retry, interval, u64::MAX), retry.max_backoff);
    }

    #[test]
    fn forward_deadline_saturates_instead_of_panicking() {
        let now = Instant::now();
        // Ordinary pauses produce a real deadline.
        let soon = forward_deadline(now, Duration::from_millis(5)).expect("representable");
        assert!(soon > now);
        assert_eq!(forward_deadline(now, Duration::ZERO), Some(now));
        // An unbounded backoff cap (e.g. `--forward-max-backoff` set to
        // the maximum) previously panicked via `Instant + Duration`;
        // now it saturates to "no deadline before shutdown".
        let retry = RetryPolicy {
            max_backoff: Duration::MAX,
            initial_backoff: Duration::MAX,
            ..Default::default()
        };
        let pause = forward_pause(&retry, Duration::from_secs(1), 1);
        assert_eq!(forward_deadline(now, pause), None);
        assert_eq!(forward_deadline(now, Duration::MAX), None);
    }
}
