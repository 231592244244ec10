//! The trace container: per-thread event streams plus object name table.

use crate::error::{Result, TraceError};
use crate::event::{Event, EventKind, Ts};
use crate::ids::{ObjId, ObjInfo, ObjKind, ThreadId};
use crate::protocol::Protocol;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which clock produced the timestamps in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ClockDomain {
    /// Deterministic virtual nanoseconds from the simulator.
    #[default]
    VirtualNs,
    /// Monotonic real nanoseconds from the instrumentation runtime.
    RealNs,
}

/// Trace-level metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TraceMeta {
    /// Name of the traced application/workload.
    pub app: String,
    /// Which clock produced the timestamps.
    pub clock: ClockDomain,
    /// Free-form workload parameters (thread count, input size, seed, ...).
    pub params: BTreeMap<String, String>,
}

impl TraceMeta {
    /// Metadata for an application with no recorded parameters.
    pub fn named(app: impl Into<String>) -> Self {
        TraceMeta { app: app.into(), ..Default::default() }
    }

    /// Add one parameter, builder-style.
    pub fn with_param(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.params.insert(key.into(), value.to_string());
        self
    }
}

/// The event stream of one thread, sorted by timestamp.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadStream {
    /// The thread's trace id.
    pub tid: ThreadId,
    /// Optional human-readable thread name.
    pub name: Option<String>,
    /// Events in timestamp order.
    pub events: Vec<Event>,
}

impl ThreadStream {
    /// An empty stream for `tid`.
    pub fn new(tid: ThreadId) -> Self {
        ThreadStream { tid, name: None, events: Vec::new() }
    }

    /// Timestamp of the thread's first event, if any.
    pub fn start_ts(&self) -> Option<Ts> {
        self.events.first().map(|e| e.ts)
    }

    /// Timestamp of the thread's last event, if any.
    pub fn end_ts(&self) -> Option<Ts> {
        self.events.last().map(|e| e.ts)
    }
}

/// A complete execution trace: metadata, object name table and one event
/// stream per thread (indexed by [`ThreadId`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Trace {
    /// Trace-level metadata.
    pub meta: TraceMeta,
    /// Registered synchronization objects; `ObjId(i)` indexes entry `i`.
    pub objects: Vec<ObjInfo>,
    /// Per-thread event streams; `ThreadId(i)` indexes entry `i`.
    pub threads: Vec<ThreadStream>,
}

impl Trace {
    /// An empty trace with the given metadata.
    pub fn new(meta: TraceMeta) -> Self {
        Trace { meta, objects: Vec::new(), threads: Vec::new() }
    }

    /// Number of threads in the trace.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Register a synchronization object, returning its id.
    pub fn register_object(&mut self, kind: ObjKind, name: impl Into<String>) -> ObjId {
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(ObjInfo { kind, name: name.into() });
        id
    }

    /// Metadata for a registered object.
    pub fn object(&self, id: ObjId) -> Option<&ObjInfo> {
        self.objects.get(id.index())
    }

    /// The name of an object, or a fallback rendering for unknown ids.
    pub fn object_name(&self, id: ObjId) -> String {
        match self.object(id) {
            Some(info) => info.name.clone(),
            None => id.to_string(),
        }
    }

    /// Find a registered object by name.
    pub fn object_by_name(&self, name: &str) -> Option<ObjId> {
        self.objects.iter().position(|o| o.name == name).map(|i| ObjId(i as u32))
    }

    /// Ids of all objects of a given kind.
    pub fn objects_of_kind(&self, kind: ObjKind) -> Vec<ObjId> {
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, o)| o.kind == kind)
            .map(|(i, _)| ObjId(i as u32))
            .collect()
    }

    /// The stream of one thread.
    pub fn thread(&self, tid: ThreadId) -> Option<&ThreadStream> {
        self.threads.get(tid.index())
    }

    /// Append a thread stream. The stream's id must equal the next dense
    /// thread id; this keeps `ThreadId` usable as an index.
    pub fn push_thread(&mut self, stream: ThreadStream) {
        debug_assert_eq!(stream.tid.index(), self.threads.len());
        self.threads.push(stream);
    }

    /// Earliest timestamp in the trace.
    pub fn start_ts(&self) -> Ts {
        self.threads.iter().filter_map(ThreadStream::start_ts).min().unwrap_or(0)
    }

    /// Latest timestamp in the trace.
    pub fn end_ts(&self) -> Ts {
        self.threads.iter().filter_map(ThreadStream::end_ts).max().unwrap_or(0)
    }

    /// End-to-end completion time (the quantity the critical path explains).
    pub fn makespan(&self) -> Ts {
        self.end_ts().saturating_sub(self.start_ts())
    }

    /// The thread that finished last (starting point of the backward
    /// critical-path walk). Ties break toward the higher thread id so the
    /// walk is deterministic.
    pub fn last_finisher(&self) -> Option<ThreadId> {
        self.threads
            .iter()
            .filter_map(|t| t.end_ts().map(|ts| (ts, t.tid)))
            .max()
            .map(|(_, tid)| tid)
    }

    /// All events of all threads merged in `(ts, tid, index)` order.
    pub fn global_events(&self) -> Vec<(ThreadId, Event)> {
        let mut all: Vec<(ThreadId, Event)> =
            self.threads.iter().flat_map(|t| t.events.iter().map(move |e| (t.tid, *e))).collect();
        all.sort_by_key(|(tid, e)| (e.ts, *tid));
        all
    }

    /// Total number of events across all threads.
    pub fn num_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Check the per-thread event protocol and object references.
    ///
    /// Rules enforced:
    /// * thread stream ids are dense and match their position;
    /// * timestamps per thread are non-decreasing;
    /// * non-empty streams start with `ThreadStart` and end with `ThreadExit`;
    /// * lock protocol per (thread, lock): acquire → (contended)? → obtain →
    ///   release, non-reentrant, with arbitrary nesting across distinct locks;
    /// * barrier arrive/depart pairs match on barrier and epoch;
    /// * condvar wait-begin/wakeup pairs match on condvar;
    /// * object ids are registered with the kind the event expects;
    /// * referenced thread ids exist.
    pub fn validate(&self) -> Result<()> {
        for (pos, stream) in self.threads.iter().enumerate() {
            let tid = stream.tid;
            if tid.index() != pos {
                return Err(TraceError::Protocol {
                    tid,
                    index: 0,
                    message: format!("stream at position {pos} has id {tid}"),
                });
            }
            self.validate_stream(stream)?;
        }
        Ok(())
    }

    fn validate_stream(&self, stream: &ThreadStream) -> Result<()> {
        let tid = stream.tid;
        let proto = |index: usize, message: String| TraceError::Protocol { tid, index, message };
        let mut protocol = Protocol::default();
        let mut last_ts = 0;
        for (i, ev) in stream.events.iter().enumerate() {
            if ev.ts < last_ts {
                return Err(TraceError::UnsortedTimestamps { tid, index: i });
            }
            last_ts = ev.ts;

            if i == 0 && ev.kind != EventKind::ThreadStart {
                return Err(proto(i, "first event must be ThreadStart".into()));
            }
            if i > 0 && ev.kind == EventKind::ThreadStart {
                return Err(proto(i, "duplicate ThreadStart".into()));
            }
            let is_last = i + 1 == stream.events.len();
            if is_last && ev.kind != EventKind::ThreadExit {
                return Err(proto(i, "last event must be ThreadExit".into()));
            }
            if !is_last && ev.kind == EventKind::ThreadExit {
                return Err(proto(i, "ThreadExit before end of stream".into()));
            }

            if let Some((obj, kind)) = ev.kind.expected_object() {
                if self.object(obj).map(|info| info.kind) != Some(kind) {
                    return Err(TraceError::UnknownObject { tid, obj });
                }
            }
            if let Some(referenced) = ev.kind.peer_thread() {
                if referenced.index() >= self.threads.len() {
                    return Err(TraceError::UnknownThread { tid, referenced });
                }
            }
            protocol.step(ev.kind, i).map_err(|v| proto(i, v.to_string()))?;
        }

        // At thread exit everything must be quiesced.
        match protocol.unclosed() {
            Some(message) => Err(proto(stream.events.len().saturating_sub(1), message)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_thread_trace() -> Trace {
        let mut t = Trace::new(TraceMeta::named("test"));
        let l = t.register_object(ObjKind::Lock, "L");
        let mk = |ts, kind| Event::new(ts, kind);
        let mut s0 = ThreadStream::new(ThreadId(0));
        s0.events = vec![
            mk(0, EventKind::ThreadStart),
            mk(1, EventKind::LockAcquire { lock: l }),
            mk(1, EventKind::LockObtain { lock: l }),
            mk(5, EventKind::LockRelease { lock: l }),
            mk(10, EventKind::ThreadExit),
        ];
        let mut s1 = ThreadStream::new(ThreadId(1));
        s1.events = vec![
            mk(0, EventKind::ThreadStart),
            mk(2, EventKind::LockAcquire { lock: l }),
            mk(2, EventKind::LockContended { lock: l }),
            mk(5, EventKind::LockObtain { lock: l }),
            mk(8, EventKind::LockRelease { lock: l }),
            mk(12, EventKind::ThreadExit),
        ];
        t.push_thread(s0);
        t.push_thread(s1);
        t
    }

    #[test]
    fn valid_trace_passes() {
        let t = two_thread_trace();
        t.validate().expect("trace should validate");
        assert_eq!(t.num_threads(), 2);
        assert_eq!(t.num_events(), 11);
        assert_eq!(t.start_ts(), 0);
        assert_eq!(t.end_ts(), 12);
        assert_eq!(t.makespan(), 12);
        assert_eq!(t.last_finisher(), Some(ThreadId(1)));
    }

    #[test]
    fn object_lookup() {
        let t = two_thread_trace();
        let l = t.object_by_name("L").unwrap();
        assert_eq!(t.object_name(l), "L");
        assert_eq!(t.object(l).unwrap().kind, ObjKind::Lock);
        assert_eq!(t.objects_of_kind(ObjKind::Lock), vec![l]);
        assert!(t.objects_of_kind(ObjKind::Barrier).is_empty());
        assert_eq!(t.object_name(ObjId(99)), "obj99");
        assert!(t.object_by_name("nope").is_none());
    }

    #[test]
    fn global_events_sorted() {
        let t = two_thread_trace();
        let g = t.global_events();
        assert_eq!(g.len(), 11);
        for w in g.windows(2) {
            assert!(w[0].1.ts <= w[1].1.ts);
        }
    }

    #[test]
    fn unsorted_timestamps_rejected() {
        let mut t = two_thread_trace();
        t.threads[0].events[3].ts = 0;
        assert!(matches!(t.validate(), Err(TraceError::UnsortedTimestamps { .. })));
    }

    #[test]
    fn release_without_hold_rejected() {
        let mut t = two_thread_trace();
        // Remove the obtain; release then happens from the "acquiring" state.
        t.threads[0].events.remove(2);
        assert!(matches!(t.validate(), Err(TraceError::Protocol { .. })));
    }

    #[test]
    fn missing_thread_start_rejected() {
        let mut t = two_thread_trace();
        t.threads[0].events.remove(0);
        assert!(matches!(t.validate(), Err(TraceError::Protocol { .. })));
    }

    #[test]
    fn missing_exit_rejected() {
        let mut t = two_thread_trace();
        t.threads[0].events.pop();
        assert!(matches!(t.validate(), Err(TraceError::Protocol { .. })));
    }

    #[test]
    fn unknown_object_rejected() {
        let mut t = two_thread_trace();
        t.threads[0].events[1] = Event::new(1, EventKind::LockAcquire { lock: ObjId(42) });
        assert!(matches!(t.validate(), Err(TraceError::UnknownObject { .. })));
    }

    #[test]
    fn wrong_object_kind_rejected() {
        let mut t = two_thread_trace();
        let b = t.register_object(ObjKind::Barrier, "B");
        t.threads[0].events[1] = Event::new(1, EventKind::LockAcquire { lock: b });
        assert!(matches!(t.validate(), Err(TraceError::UnknownObject { .. })));
    }

    #[test]
    fn unknown_thread_reference_rejected() {
        let mut t = two_thread_trace();
        t.threads[0].events[1] = Event::new(1, EventKind::ThreadCreate { child: ThreadId(9) });
        // Fix the lock protocol: drop the now-orphaned obtain/release.
        t.threads[0].events.remove(3);
        t.threads[0].events.remove(2);
        assert!(matches!(t.validate(), Err(TraceError::UnknownThread { .. })));
    }

    #[test]
    fn exit_while_holding_lock_rejected() {
        let mut t = two_thread_trace();
        // Drop the release so the lock is still held at exit.
        t.threads[0].events.remove(3);
        assert!(matches!(t.validate(), Err(TraceError::Protocol { .. })));
    }

    #[test]
    fn reentrant_lock_rejected() {
        let mut t = two_thread_trace();
        let l = t.object_by_name("L").unwrap();
        t.threads[0].events.insert(3, Event::new(3, EventKind::LockAcquire { lock: l }));
        assert!(matches!(t.validate(), Err(TraceError::Protocol { .. })));
    }

    #[test]
    fn meta_builder() {
        let m = TraceMeta::named("app").with_param("threads", 4).with_param("seed", 7);
        assert_eq!(m.app, "app");
        assert_eq!(m.params.get("threads").unwrap(), "4");
        assert_eq!(m.params.get("seed").unwrap(), "7");
    }

    #[test]
    fn empty_trace_defaults() {
        let t = Trace::default();
        assert_eq!(t.makespan(), 0);
        assert_eq!(t.last_finisher(), None);
        assert!(t.global_events().is_empty());
        t.validate().unwrap();
    }
}
