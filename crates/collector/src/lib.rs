//! # critlock-collector
//!
//! A long-running collector daemon for **live** critical lock analysis:
//! instrumented applications (or `critlock push` replaying a recorded
//! trace) stream synchronization-event frames over Unix-domain or TCP
//! sockets, and the collector folds them into per-session traces,
//! re-analyzing incrementally and publishing snapshots — the top critical
//! locks, the critical-path length and the contention probability on the
//! critical path — over a status endpoint while the application is still
//! running. This realizes the run-time direction sketched in the paper's
//! future work (Chen & Stenström, SC 2012): the same analysis that
//! `critlock analyze` performs post-mortem, kept continuously up to date
//! against an in-progress execution.
//!
//! Architecture (one module per stage):
//!
//! * [`net`] — `unix:/path` / `host:port` address handling and the socket
//!   abstraction (re-exported from `critlock-trace`, where the producer
//!   that writes to it lives);
//! * [`queue`] — bounded per-session frame queues with configurable
//!   backpressure ([`Backpressure::Block`] stalls the producer through
//!   the transport; [`Backpressure::Drop`] sheds frames and counts them);
//! * [`assembler`] — loss- and disconnect-tolerant assembly of frames
//!   into traces that always pass `Trace::validate`;
//! * [`snapshot`] — per-session analysis snapshots and the status
//!   document, in text and JSON;
//! * [`server`] — the daemon: accept loops, session reader threads, the
//!   incremental analysis loop, the status endpoint;
//! * [`client`] — push/status helpers used by the CLI and tests;
//!   [`client::push_with`] feeds a recorded trace to the resumable
//!   `critlock_trace::producer::Producer`;
//! * [`journal`] — crash-safe, segmented per-session write-ahead
//!   journals and startup recovery;
//! * [`checkpoint`] — durable per-session checkpoints (tmp+fsync+rename)
//!   so recovery replays only the journal tail, and absorbed segments
//!   can be pruned;
//! * [`io`] — the injectable storage layer ([`JournalIo`]) under
//!   journals, checkpoints and the outbox, plus the collector-wide
//!   [`DiskBudget`] and the deterministic disk-fault injector
//!   ([`FaultyIo`]) the chaos tests drive it with;
//! * [`metrics`] — collector-wide observability counters, gauges and
//!   latency histograms (`critlock-obs`), served Prometheus-style by the
//!   `--metrics` endpoint;
//! * [`faults`] — fault plans and the deterministic fault-injection
//!   wrapper applying them to the client transport (and, via
//!   `CollectorConfig::forward_fault_plan`, to the rollup-push wire),
//!   re-exported from `critlock-trace`;
//! * [`outbox`] — the durable forward spool a failed rollup push falls
//!   back to, re-forwarded after a restart;
//! * [`health`] — the ok/degraded/unhealthy classification served for
//!   `health` requests and consumed by `critlock health`.
//!
//! ```no_run
//! use critlock_collector::{start, Addr, CollectorConfig};
//!
//! let mut config = CollectorConfig::new(Addr::parse("127.0.0.1:0").unwrap());
//! config.status_addr = Some(Addr::parse("127.0.0.1:0").unwrap());
//! let handle = start(config).unwrap();
//! println!("ingest on {}", handle.ingest_addr());
//! handle.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assembler;
pub mod checkpoint;
pub mod client;
pub mod health;
pub mod io;
pub mod journal;
pub mod metrics;
pub mod outbox;
pub mod queue;
pub mod server;
pub mod snapshot;

pub use assembler::SessionAssembler;
pub use client::{
    fetch_health, fetch_health_text, fetch_metrics_text, fetch_rollup, fetch_status_text_timeout,
    fetch_status_timeout, push, push_rollup_with, push_with, PushOptions,
};
pub use critlock_trace::faults::{self, FaultState, FaultStream};
pub use critlock_trace::net::{self, Addr, Listener, Stream};
pub use critlock_trace::salvage::repair;
pub use health::{HealthClass, HealthReport};
pub use io::{DiskBudget, DiskFaultPlan, FaultyIo, JournalIo, RealIo};
pub use journal::{recover_dir, JournalOptions, RecoveredSession, SessionJournal};
pub use metrics::{CollectorMetrics, JournalCounters, ShardMetrics};
pub use queue::{Backpressure, FrameQueue};
pub use server::{start, CollectorConfig, CollectorHandle};
pub use snapshot::{
    CollectorStatus, ForwardStatus, SessionSnapshot, ShardStatus, SnapshotStageTimers,
};
