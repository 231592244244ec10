//! # critlock-trace
//!
//! Synchronization-event trace model for **critical lock analysis**
//! (Chen & Stenström, *Critical Lock Analysis: Diagnosing Critical Section
//! Bottlenecks in Multithreaded Applications*, SC 2012).
//!
//! This crate is the interchange layer between the producers of traces —
//! the real-thread instrumentation runtime (`critlock-instrument`) and the
//! deterministic execution simulator (`critlock-sim`) — and the consumer,
//! the analysis engine (`critlock-analysis`).
//!
//! It provides:
//!
//! * the event protocol ([`event`]) mirroring the paper's MAGIC()
//!   instrumentation points: lock acquire/contended/obtain/release, barrier
//!   arrive/depart, condvar wait/signal and thread lifecycle edges;
//! * the trace container ([`trace`]) with a per-thread stream layout,
//!   object name table and protocol validation;
//! * episode views ([`episodes`]) reconstructing whole lock invocations,
//!   barrier crossings and waits from raw events;
//! * a builder DSL ([`builder`]) for encoding executions by hand (used to
//!   reproduce the paper's Fig. 1 exactly in tests);
//! * binary ([`codec`]) and JSONL ([`jsonl`]) serialization, plus a
//!   length-prefixed, CRC-checked frame format ([`stream`]) for live
//!   transport of in-progress traces to a collector daemon, with a
//!   resumable-session handshake for reconnecting producers, and a
//!   CRC-checked checkpoint document ([`checkpoint`]) letting the
//!   collector resume analysis from a durable snapshot plus a journal
//!   tail instead of replaying full history;
//! * the producer side of that transport: the `unix:`/TCP socket layer
//!   ([`net`]), the one resumable producer ([`producer`]) behind every
//!   client that streams to a collector, its capped exponential
//!   reconnect policy ([`retry`]), and deterministic transport fault
//!   plans with the injector that applies them ([`faults`]);
//! * a typed anomaly vocabulary ([`anomaly`]) shared by validation and
//!   repair, best-effort trace salvage ([`salvage`]) that recovers the
//!   longest protocol-consistent prefix of each thread instead of
//!   rejecting the whole trace, and resource budgets ([`budget`])
//!   enforced in decode and analysis so oversized inputs degrade
//!   deterministically instead of exhausting the host.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod anomaly;
pub mod budget;
pub mod builder;
pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod episodes;
pub mod error;
pub mod event;
pub mod faults;
pub mod ids;
pub mod jsonl;
pub mod net;
pub mod producer;
mod protocol;
pub mod retry;
pub mod rollup;
pub mod salvage;
pub mod stream;
pub mod trace;

pub use anomaly::Anomaly;
pub use budget::Budget;
pub use builder::TraceBuilder;
pub use checkpoint::{decode_checkpoint, encode_checkpoint, CheckpointDoc, WindowCheckpoint};
pub use codec::{EventRef, RawEventIter, RawThread, RawTraceView};
pub use episodes::{
    barrier_episodes, cond_wait_episodes, join_episodes, lock_and_rw_episodes, lock_episodes,
    rw_episodes, steps, BarrierEpisode, CondWaitEpisode, JoinEpisode, LockEpisode, RwEpisode, Step,
    Steps,
};
pub use error::{Result, TraceError};
pub use event::{Event, EventKind, Ts, SEQ_UNKNOWN};
pub use faults::{FaultAction, FaultPlan};
pub use ids::{ObjId, ObjInfo, ObjKind, ThreadId};
pub use retry::RetryPolicy;
pub use rollup::{LockDigest, Rollup, SessionDigest};
pub use salvage::{SalvageReport, Salvaged, ThreadSalvage};
pub use trace::{ClockDomain, ThreadStream, Trace, TraceMeta};
