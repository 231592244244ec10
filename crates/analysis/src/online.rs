//! Online (single forward pass) critical-path lock profiling, with
//! incremental state maintenance for live sessions.
//!
//! The paper's future work (§VII) suggests feeding lock criticality to
//! run-time systems (accelerated critical sections, lock reordering,
//! transactional memory). That requires estimating lock criticality *as
//! the program runs* instead of via the offline backward walk. This
//! module implements the standard forward formulation (in the style of
//! Hollingsworth's online critical-path profiling): every thread carries
//! the length of the longest dependence path that ends at its current
//! instant, plus a per-lock attribution profile of that path; dependence
//! edges (lock hand-offs, barrier releases, signals, create/join) take the
//! maximum and inherit the winning profile.
//!
//! ## Incremental maintenance
//!
//! [`OnlineState`] is the persistent form of the pass: a caller feeds it
//! each batch of a thread's events as they arrive
//! ([`OnlineState::ingest`]) and the per-thread frontier values advance
//! by only the new events — O(delta), not O(session history).
//! `bench_analyze`'s `live` section replays a session this way; the
//! collector does not run the pass, and its live snapshots serve the
//! offline analysis of the repaired partial trace instead. Events are
//! buffered per arrival and folded into the permanent frontier in global
//! `(ts, tid, arrival)` order once no thread can still contribute an
//! earlier timestamp (the *fold bound*: the minimum last-ingested
//! timestamp over live threads). Events above the bound stay pending: a
//! speculative fold, a clone of the permanent frontier, runs ahead over
//! their complete timestamp groups, and a report folds the final,
//! still-open group into a throwaway copy. So every
//! [`OnlineState::report`] is exactly the report a from-scratch
//! [`online_analyze`] of all ingested events would produce.
//!
//! Each timestamp group is folded once on the common path. A report
//! advances the permanent fold first; when the speculative fold already
//! covers a prefix of the groups now below the bound, its state *is* the
//! permanent fold advanced that far, so it is adopted rather than
//! re-folded, and only the rest is folded. An ended session's first
//! report therefore folds every event exactly once. Only while a sparse
//! thread pins the bound below the speculative coverage do the groups
//! that pass the bound fold a second time, into the permanent frontier.
//!
//! The fold order assumes per-thread timestamps never step backwards
//! across the fold bound. When they do (frame loss, a thread announced
//! late with old events), the state flags itself [`stale`] and the owner
//! rebuilds it from the assembled trace — correctness is unconditional,
//! incrementality is the common case.
//!
//! For traces with a single final answer the result matches the offline
//! analysis exactly on lock attribution along the final critical path;
//! see the equivalence tests.
//!
//! [`stale`]: OnlineState::is_stale

use critlock_trace::{Event, EventKind, ObjId, ThreadId, Trace, Ts};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-lock attribution of critical-path time, as estimated online.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineLockStat {
    /// The lock.
    pub lock: ObjId,
    /// Its name.
    pub name: String,
    /// Critical-path time attributed to this lock's critical sections.
    pub cp_time: Ts,
    /// Fraction of the critical-path length.
    pub cp_time_frac: f64,
}

/// Result of the forward online pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineReport {
    /// Estimated critical-path length.
    pub cp_length: Ts,
    /// The thread whose exit terminates the critical path.
    pub final_thread: Option<ThreadId>,
    /// Per-lock attribution, sorted by `cp_time` descending.
    pub locks: Vec<OnlineLockStat>,
}

impl OnlineReport {
    /// The stat for a given lock name.
    pub fn lock_by_name(&self, name: &str) -> Option<&OnlineLockStat> {
        self.locks.iter().find(|l| l.name == name)
    }
}

type Profile = FxHashMap<ObjId, Ts>;

/// A dependence-path value: its length plus the per-lock attribution of
/// that length. The profile is shared copy-on-write behind an `Arc` —
/// publishing a producer value or adopting a winning value is a pointer
/// bump, and the map is deep-copied only when a thread mutates a profile
/// that is still shared (`Arc::make_mut`). This removes the dominant
/// allocation cost of the forward pass (deep map clones on every
/// release/signal/exit) without changing any computed value, and it is
/// what makes cloning the incremental frontier at report time cheap: the
/// carried-forward profiles are shared, not copied.
#[derive(Debug, Clone, Default)]
struct PathVal {
    len: Ts,
    profile: Arc<Profile>,
}

impl PathVal {
    fn adopt_max(&mut self, other: &PathVal) {
        if other.len > self.len {
            self.len = other.len;
            self.profile = Arc::clone(&other.profile);
        }
    }

    /// Attribute `dt` of path time to `lock`.
    fn attribute(&mut self, lock: ObjId, dt: Ts) {
        *Arc::make_mut(&mut self.profile).entry(lock).or_insert(0) += dt;
    }
}

#[derive(Debug, Clone, Default)]
struct ThreadState {
    val: PathVal,
    last_ts: Ts,
    running: bool,
    held: Vec<ObjId>,
}

/// Whether an event *produces* a dependence value other threads may adopt
/// at the same instant (releases, signals, arrivals, exits, creations).
fn is_producer(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::LockRelease { .. }
            | EventKind::RwRelease { .. }
            | EventKind::CondSignal { .. }
            | EventKind::CondBroadcast { .. }
            | EventKind::BarrierArrive { .. }
            | EventKind::ThreadExit
            | EventKind::ThreadCreate { .. }
    )
}

/// The folded core of the forward pass: per-thread frontier values plus
/// the producer-value maps dependence edges adopt from. Cloning it is
/// O(threads + live producer values) — profiles are shared `Arc`s — which
/// is what lets a report fold the pending tail into a throwaway copy.
#[derive(Debug, Clone, Default)]
struct FoldState {
    threads: Vec<ThreadState>,
    release_vals: FxHashMap<ObjId, PathVal>,
    barrier_vals: FxHashMap<(ObjId, u32), PathVal>,
    signal_vals: FxHashMap<(ObjId, u64), PathVal>,
    latest_signal: FxHashMap<ObjId, PathVal>,
    create_vals: FxHashMap<ThreadId, PathVal>,
    exit_vals: FxHashMap<ThreadId, PathVal>,
    final_candidate: Option<(Ts, ThreadId, PathVal)>,
}

impl FoldState {
    fn thread_mut(&mut self, tid: ThreadId) -> &mut ThreadState {
        let ti = tid.index();
        if ti >= self.threads.len() {
            self.threads.resize_with(ti + 1, ThreadState::default);
        }
        &mut self.threads[ti]
    }

    /// Fold one timestamp group (all events share `group[0].0`). Within a
    /// group, each thread's events keep their program order (reordering
    /// them corrupts the held-lock and running-state machines — e.g. a
    /// zero-duration critical section would release before it obtains),
    /// and a first sweep publishes all producer values so same-instant
    /// hand-offs (release → obtain, last-arrival → departs, exit → join)
    /// resolve regardless of thread iteration order. All events in a
    /// group share the timestamp, so no running time accrues inside a
    /// group and the two-sweep split is exact.
    fn fold_group(&mut self, group: &[(Ts, ThreadId, u64, EventKind)]) {
        #[cfg(test)]
        tests::GROUP_EVENTS.with(|n| n.set(n.get() + group.len() as u64));
        let ts = group[0].0;
        // Sweep 1: accrue running time up to `ts` for every thread in the
        // group (attributed to its innermost held lock), then publish the
        // values of all producer events.
        for &(_, tid, _, ref kind) in group {
            let t = self.thread_mut(tid);
            if t.running && ts > t.last_ts {
                let dt = ts - t.last_ts;
                t.val.len += dt;
                if let Some(&inner) = t.held.last() {
                    t.val.attribute(inner, dt);
                }
            }
            t.last_ts = ts;
            if is_producer(kind) {
                let val = self.threads[tid.index()].val.clone();
                match *kind {
                    EventKind::LockRelease { lock } | EventKind::RwRelease { lock, .. } => {
                        self.release_vals.insert(lock, val);
                    }
                    EventKind::BarrierArrive { barrier, epoch } => {
                        self.barrier_vals.entry((barrier, epoch)).or_default().adopt_max(&val);
                    }
                    EventKind::CondSignal { cv, signal_seq }
                    | EventKind::CondBroadcast { cv, signal_seq } => {
                        self.signal_vals.insert((cv, signal_seq), val.clone());
                        self.latest_signal.insert(cv, val);
                    }
                    EventKind::ThreadCreate { child } => {
                        self.create_vals.insert(child, val);
                    }
                    EventKind::ThreadExit => {
                        self.exit_vals.insert(tid, val);
                    }
                    _ => {}
                }
            }
        }

        // Sweep 2: run the per-thread state machines in program order.
        for &(_, tid, _, kind) in group {
            self.step_event(tid, kind);
        }
    }

    fn step_event(&mut self, tid: ThreadId, kind: EventKind) {
        self.thread_mut(tid); // ensure the slot exists
        let ti = tid.index();
        match kind {
            EventKind::ThreadStart => {
                let adopted = self.create_vals.remove(&tid);
                let t = &mut self.threads[ti];
                if let Some(v) = adopted {
                    t.val.adopt_max(&v);
                }
                t.running = true;
            }
            EventKind::ThreadCreate { child } => {
                self.create_vals.insert(child, self.threads[ti].val.clone());
            }
            EventKind::ThreadExit => {
                let t = &mut self.threads[ti];
                t.running = false;
                self.exit_vals.insert(tid, t.val.clone());
                let better = match &self.final_candidate {
                    Some((len, _, _)) => t.val.len >= *len,
                    None => true,
                };
                if better {
                    self.final_candidate = Some((t.val.len, tid, t.val.clone()));
                }
            }
            EventKind::LockAcquire { .. } | EventKind::RwAcquire { .. } => {}
            EventKind::LockContended { .. } | EventKind::RwContended { .. } => {
                self.threads[ti].running = false;
            }
            EventKind::LockObtain { lock } | EventKind::RwObtain { lock, .. } => {
                let adopted = if !self.threads[ti].running {
                    self.release_vals.get(&lock).cloned()
                } else {
                    None
                };
                let t = &mut self.threads[ti];
                if let Some(v) = adopted {
                    t.val.adopt_max(&v);
                }
                t.running = true;
                t.held.push(lock);
            }
            EventKind::LockRelease { lock } | EventKind::RwRelease { lock, .. } => {
                let t = &mut self.threads[ti];
                if let Some(pos) = t.held.iter().rposition(|&l| l == lock) {
                    t.held.remove(pos);
                }
                self.release_vals.insert(lock, t.val.clone());
            }
            EventKind::BarrierArrive { barrier, epoch } => {
                let t = &mut self.threads[ti];
                t.running = false;
                let val = t.val.clone();
                self.barrier_vals.entry((barrier, epoch)).or_default().adopt_max(&val);
            }
            EventKind::BarrierDepart { barrier, epoch } => {
                let adopted = self.barrier_vals.get(&(barrier, epoch)).cloned();
                let t = &mut self.threads[ti];
                if let Some(v) = adopted {
                    t.val.adopt_max(&v);
                }
                t.running = true;
            }
            EventKind::CondWaitBegin { .. } => {
                self.threads[ti].running = false;
            }
            EventKind::CondSignal { cv, signal_seq }
            | EventKind::CondBroadcast { cv, signal_seq } => {
                let v = self.threads[ti].val.clone();
                self.signal_vals.insert((cv, signal_seq), v.clone());
                self.latest_signal.insert(cv, v);
            }
            EventKind::CondWakeup { cv, signal_seq } => {
                let adopted = self
                    .signal_vals
                    .get(&(cv, signal_seq))
                    .or_else(|| self.latest_signal.get(&cv))
                    .cloned();
                let t = &mut self.threads[ti];
                if let Some(v) = adopted {
                    t.val.adopt_max(&v);
                }
                t.running = true;
            }
            EventKind::JoinBegin { .. } => {
                self.threads[ti].running = false;
            }
            EventKind::JoinEnd { child } => {
                let adopted = self.exit_vals.get(&child).cloned();
                let t = &mut self.threads[ti];
                if let Some(v) = adopted {
                    t.val.adopt_max(&v);
                }
                t.running = true;
            }
            EventKind::Marker { .. } => {}
        }
    }

    /// Turn the folded state into the report: only exited threads
    /// terminate the path, exactly as a one-shot [`online_analyze`] of the
    /// same events computes.
    fn extract(&self, names: &Trace) -> OnlineReport {
        let (cp_length, final_thread, profile) = match self.final_candidate.clone() {
            Some((len, tid, val)) => {
                (len, Some(tid), Arc::try_unwrap(val.profile).unwrap_or_else(|rc| (*rc).clone()))
            }
            None => (0, None, Profile::default()),
        };

        let mut locks: Vec<OnlineLockStat> = profile
            .into_iter()
            .map(|(lock, cp_time)| OnlineLockStat {
                lock,
                name: names.object_name(lock),
                cp_time,
                cp_time_frac: if cp_length > 0 { cp_time as f64 / cp_length as f64 } else { 0.0 },
            })
            .collect();
        locks.sort_by(|a, b| {
            b.cp_time
                .cmp(&a.cp_time)
                .then_with(|| a.name.cmp(&b.name))
                .then_with(|| a.lock.0.cmp(&b.lock.0))
        });

        OnlineReport { cp_length, final_thread, locks }
    }
}

/// Fold sorted `events` into `fold` one timestamp group at a time.
fn fold_groups(fold: &mut FoldState, events: &[(Ts, ThreadId, u64, EventKind)]) {
    for group in events.chunk_by(|a, b| a.0 == b.0) {
        fold.fold_group(group);
    }
}

/// Per-thread ingestion bookkeeping, separate from the folded frontier:
/// the fold bound derives from what has *arrived*, not what has folded.
#[derive(Debug, Clone, Copy, Default)]
struct IngestMeta {
    last_ts: Ts,
    declared: bool,
    seen: bool,
    exited: bool,
}

/// The speculative fold: the permanent frontier plus a sorted prefix of
/// the pending buffer, folded ahead of the fold bound. While new events
/// keep arriving strictly above everything it has folded (the common
/// case for roughly time-ordered streams), each report extends it by
/// only the new events instead of re-folding the whole pending tail —
/// this is what keeps reports O(delta) even when a sparse thread (e.g. a
/// main thread parked in `join`) pins the permanent fold bound near the
/// session start. An arrival at or below its high-water mark simply
/// discards the cache (correctness never depends on it).
#[derive(Debug, Clone)]
struct SpecFold {
    fold: FoldState,
    /// How many entries of the (sorted) pending buffer are folded in.
    /// Always a timestamp-group boundary, and never includes the final
    /// (highest-ts, still-open) group — events may still join that group,
    /// so it is folded ephemerally per report instead.
    covered: usize,
    /// Highest timestamp folded in — the extend/discard guard: a new
    /// event must land strictly above it, else it could join an
    /// already-folded timestamp group. `None` until anything folds.
    max_ts: Option<Ts>,
}

/// Persistent incremental state of the forward online pass.
///
/// Feed it events per thread as they arrive ([`ingest`]), ask for the
/// current report at any time ([`report`]). The contract: the report
/// equals a from-scratch [`online_analyze`] over the concatenation of
/// everything ingested so far (per thread, in ingestion order) —
/// verified bit-for-bit by the batching property tests — while the work
/// per call is proportional to the events ingested since the last call,
/// not to the session's history.
///
/// [`ingest`]: OnlineState::ingest
/// [`report`]: OnlineState::report
#[derive(Debug, Clone, Default)]
pub struct OnlineState {
    fold: FoldState,
    /// Events above the fold bound: `(ts, tid, arrival#, kind)`. The
    /// global arrival counter preserves each thread's program order under
    /// the `(ts, tid, arrival)` sort, reproducing the one-shot pass's
    /// `(ts, tid, stream index)` order exactly. Invariant between
    /// reports: the first `spec.covered` entries are sorted (they are
    /// folded into the speculative fold); entries past that are in
    /// arrival order.
    pending: Vec<(Ts, ThreadId, u64, EventKind)>,
    spec: Option<SpecFold>,
    meta: Vec<IngestMeta>,
    arrival: u64,
    watermark: Option<Ts>,
    folded_events: u64,
    ingested_events: u64,
    stale: bool,
}

impl OnlineState {
    /// A fresh state with nothing ingested.
    pub fn new() -> Self {
        Self::default()
    }

    /// Announce that thread `tid` exists and will produce events. Until a
    /// declared thread's first event arrives, nothing folds permanently —
    /// its first timestamp could land anywhere, and folding past it would
    /// go stale the moment it shows up. Callers that know the thread
    /// roster up front (the collector learns it from registration frames)
    /// should declare each thread before ingesting any of its events.
    pub fn declare(&mut self, tid: ThreadId) {
        let ti = tid.index();
        if ti >= self.meta.len() {
            self.meta.resize(ti + 1, IngestMeta::default());
        }
        self.meta[ti].declared = true;
    }

    /// Append `events` to thread `tid`'s stream. O(len). Marks the state
    /// stale instead of corrupting it when an event lands at or below the
    /// fold watermark (its timestamp group was already folded).
    pub fn ingest(&mut self, tid: ThreadId, events: &[Event]) {
        let ti = tid.index();
        if ti >= self.meta.len() {
            self.meta.resize(ti + 1, IngestMeta::default());
        }
        for ev in events {
            if let Some(w) = self.watermark {
                if ev.ts <= w {
                    self.stale = true;
                }
            }
            let m = &mut self.meta[ti];
            m.seen = true;
            m.last_ts = ev.ts;
            if matches!(ev.kind, EventKind::ThreadExit) {
                m.exited = true;
            }
            self.pending.push((ev.ts, tid, self.arrival, ev.kind));
            self.arrival += 1;
            self.ingested_events += 1;
        }
    }

    /// Whether an out-of-order arrival invalidated the folded frontier.
    /// A stale state must be rebuilt from the assembled trace
    /// ([`rebuild`]); reports from a stale state are not trustworthy.
    ///
    /// [`rebuild`]: OnlineState::rebuild
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// Total events ingested since creation (or last rebuild).
    pub fn events_ingested(&self) -> u64 {
        self.ingested_events
    }

    /// Events folded into the permanent frontier (the remainder is
    /// pending and re-folded ephemerally per report).
    pub fn events_folded(&self) -> u64 {
        self.folded_events
    }

    /// A fresh state fed the whole trace in one batch — the full-rebuild
    /// fallback for stale states (and the body of [`online_analyze`]).
    /// Every stream is declared first, so threads that are currently
    /// eventless still hold the fold bound for their future events.
    pub fn rebuild(trace: &Trace) -> Self {
        let mut state = Self::new();
        for stream in &trace.threads {
            state.declare(stream.tid);
        }
        for stream in &trace.threads {
            state.ingest(stream.tid, &stream.events);
        }
        state
    }

    /// The highest timestamp no live thread can still precede: events in
    /// groups strictly below it are safe to fold permanently. `None`
    /// while a declared thread has produced nothing yet (its first event
    /// could land anywhere); unbounded once every seen thread has exited.
    fn fold_bound(&self) -> Option<Ts> {
        let mut bound = Ts::MAX;
        for m in &self.meta {
            if m.declared && !m.seen {
                return None;
            }
            if m.seen && !m.exited {
                bound = bound.min(m.last_ts);
            }
        }
        Some(bound)
    }

    /// Bring the folds up to date with everything ingested, folding each
    /// timestamp group once on the common path. The permanent frontier
    /// goes first: it advances past every timestamp group strictly below
    /// the fold bound, adopting the speculative fold's state when that
    /// already covers a prefix of those groups (so they are not folded a
    /// second time), and the safe groups leave `pending`. The speculative
    /// fold then extends over the complete groups that remain, so
    /// afterwards `pending` is fully sorted and only its final, still-open
    /// timestamp group lies beyond the speculative coverage.
    fn advance_folds(&mut self) {
        let covered = self.spec.as_ref().map_or(0, |s| s.covered);
        debug_assert!(covered <= self.pending.len());
        // A stable sort finds the per-thread runs an arrival batch is made
        // of; the arrival number makes every key unique, so the order is
        // the same an unstable sort would give.
        self.pending[covered..].sort_by_key(|&(ts, tid, arrival, _)| (ts, tid, arrival));
        // Can the spec absorb the new tail? Only if every new event lands
        // strictly above its high-water mark — otherwise a new event could
        // belong to a timestamp group the spec has already folded. Because
        // the final group is never folded in, a roughly time-ordered
        // stream always extends.
        let keep = match (&self.spec, self.pending.get(covered)) {
            (Some(s), Some(&(ts, ..))) => s.max_ts.is_none_or(|m| ts > m),
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !keep {
            self.spec = None;
            self.pending.sort_by_key(|&(ts, tid, arrival, _)| (ts, tid, arrival));
        }
        // `pending` is now globally sorted: with a surviving spec, the
        // covered prefix and the new tail are each sorted and every tail
        // timestamp is strictly above every covered one.

        // Permanent frontier: the timestamp groups no live thread can
        // still precede.
        let safe = match self.fold_bound() {
            Some(bound) if !self.stale => self.pending.partition_point(|&(ts, _, _, _)| ts < bound),
            _ => 0,
        };
        if safe > 0 {
            // The spec equals the permanent fold plus the covered prefix.
            // When that prefix lies inside the safe groups, the spec *is*
            // the permanent fold advanced that far; otherwise the spec is
            // kept and the safe groups fold into the permanent frontier.
            let from = match self.spec.take() {
                Some(spec) if spec.covered <= safe => {
                    self.fold = spec.fold;
                    spec.covered
                }
                Some(mut spec) => {
                    spec.covered -= safe;
                    self.spec = Some(spec);
                    0
                }
                None => 0,
            };
            fold_groups(&mut self.fold, &self.pending[from..safe]);
            self.watermark = Some(self.pending[safe - 1].0);
            self.folded_events += safe as u64;
            self.pending.drain(..safe);
        }

        // Speculative fold: the complete timestamp groups past the bound,
        // leaving the final group open (future arrivals may still join it).
        let Some(&(last_ts, ..)) = self.pending.last() else { return };
        let open = self.pending.partition_point(|&(ts, _, _, _)| ts < last_ts);
        if self.spec.is_none() && open == 0 {
            return;
        }
        let spec = self.spec.get_or_insert_with(|| SpecFold {
            fold: self.fold.clone(),
            covered: 0,
            max_ts: None,
        });
        if open > spec.covered {
            fold_groups(&mut spec.fold, &self.pending[spec.covered..open]);
            spec.max_ts = Some(self.pending[open - 1].0);
            spec.covered = open;
        }
    }

    /// The exact forward-pass report over everything ingested: identical
    /// to [`online_analyze`] of the concatenated trace. `names` supplies
    /// the object name table (typically the trace the events came from).
    /// Not meaningful on a stale state — rebuild first.
    pub fn report(&mut self, names: &Trace) -> OnlineReport {
        self.advance_folds();
        let (fold, covered) = match &self.spec {
            Some(spec) => (&spec.fold, spec.covered),
            None => (&self.fold, 0),
        };
        // The uncovered tail is exactly the final timestamp group; fold it
        // into a throwaway clone of the (small) frontier.
        if covered < self.pending.len() {
            let mut tmp = fold.clone();
            tmp.fold_group(&self.pending[covered..]);
            tmp.extract(names)
        } else {
            fold.extract(names)
        }
    }
}

/// Run the forward online critical-path pass over a complete trace: a
/// one-shot [`OnlineState`] fed every stream in a single batch.
pub fn online_analyze(trace: &Trace) -> OnlineReport {
    let mut state = OnlineState::rebuild(trace);
    state.report(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::analyze;
    use critlock_trace::TraceBuilder;
    use std::cell::Cell;

    thread_local! {
        /// Events handed to `fold_group` on this thread, ephemeral folds
        /// included: the fold-once test counts fold work with it.
        pub(super) static GROUP_EVENTS: Cell<u64> = const { Cell::new(0) };
    }

    #[test]
    fn matches_offline_on_lock_chain() {
        let mut b = TraceBuilder::new("online-chain");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).cs(l, 4).exit_at(5);
        b.on(t1).work(1).cs_blocked(l, 4, 2).work(3).exit(); // exit 9
        let t = b.build().unwrap();

        let online = online_analyze(&t);
        let offline = analyze(&t);

        assert_eq!(online.cp_length, offline.cp_length);
        assert_eq!(
            online.lock_by_name("L").unwrap().cp_time,
            offline.lock_by_name("L").unwrap().cp_time
        );
        assert_eq!(online.final_thread, Some(critlock_trace::ThreadId(1)));
    }

    #[test]
    fn off_path_lock_excluded_online_too() {
        let mut b = TraceBuilder::new("online-offpath");
        let hot = b.lock("hot");
        let idle = b.lock("idle");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        let t2 = b.thread("T2", 0);
        b.on(t0).cs(hot, 60).work(40).exit(); // exit 100
        b.on(t1).cs(idle, 30).exit_at(40);
        b.on(t2).cs_blocked(idle, 30, 10).exit_at(45);
        let t = b.build().unwrap();

        let online = online_analyze(&t);
        assert_eq!(online.cp_length, 100);
        assert_eq!(online.lock_by_name("hot").unwrap().cp_time, 60);
        assert!(online.lock_by_name("idle").is_none());
    }

    #[test]
    fn barrier_path_through_last_arriver() {
        let mut b = TraceBuilder::new("online-barrier");
        let bar = b.barrier("B");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        // T1 is the last arriver because of a long CS; its CS is on the CP.
        b.on(t0).work(3).barrier(bar, 0, 7).work(5).exit(); // exit 12
        b.on(t1).cs(l, 7).barrier(bar, 0, 7).work(1).exit(); // exit 8
        let t = b.build().unwrap();
        let online = online_analyze(&t);
        assert_eq!(online.cp_length, 12);
        assert_eq!(online.lock_by_name("L").unwrap().cp_time, 7);
    }

    #[test]
    fn fork_join_path() {
        let mut b = TraceBuilder::new("online-forkjoin");
        let main = b.thread("main", 0);
        let w = b.thread("w", 1);
        b.on(w).work(9).exit(); // exit 10
        b.on(main).work(1).create(w).work(2).join(w, 10).work(1).exit(); // exit 11
        let t = b.build().unwrap();
        let online = online_analyze(&t);
        assert_eq!(online.cp_length, 11);
        assert_eq!(online.final_thread, Some(critlock_trace::ThreadId(0)));
    }

    #[test]
    fn nested_locks_attribute_to_innermost() {
        let mut b = TraceBuilder::new("online-nested");
        let outer = b.lock("outer");
        let inner = b.lock("inner");
        let t0 = b.thread("T0", 0);
        b.on(t0)
            .acquire(outer)
            .work(2)
            .acquire(inner)
            .work(3)
            .release(inner)
            .work(1)
            .release(outer)
            .exit();
        let t = b.build().unwrap();
        let online = online_analyze(&t);
        assert_eq!(online.cp_length, 6);
        assert_eq!(online.lock_by_name("outer").unwrap().cp_time, 3);
        assert_eq!(online.lock_by_name("inner").unwrap().cp_time, 3);
    }

    #[test]
    fn empty_trace() {
        let rep = online_analyze(&critlock_trace::Trace::default());
        assert_eq!(rep.cp_length, 0);
        assert!(rep.locks.is_empty());
        assert!(rep.final_thread.is_none());
    }

    /// On a larger randomized scenario the online estimate of total CP
    /// length must match the offline walk (both compute the true longest
    /// path for complete virtual-time traces).
    #[test]
    fn cp_length_matches_offline_on_handoff_chains() {
        let mut b = TraceBuilder::new("online-big");
        let l1 = b.lock("L1");
        let l2 = b.lock("L2");
        let ts: Vec<_> = (0..4).map(|i| b.thread(format!("T{i}"), 0)).collect();
        let (a, b_) = (20u64, 25u64);
        for (i, &ti) in ts.iter().enumerate() {
            let i = i as u64;
            let mut c = b.on(ti);
            if i == 0 {
                c.cs(l1, a);
            } else {
                c.cs_blocked(l1, i * a, a);
            }
            let l2_obtain = a + i * b_;
            let now = (i + 1) * a;
            if l2_obtain > now {
                c.cs_blocked(l2, l2_obtain, b_);
            } else {
                c.cs(l2, b_);
            }
            c.exit();
        }
        let t = b.build().unwrap();
        let online = online_analyze(&t);
        let offline = analyze(&t);
        assert_eq!(online.cp_length, offline.cp_length);
        assert_eq!(
            online.lock_by_name("L2").unwrap().cp_time,
            offline.lock_by_name("L2").unwrap().cp_time
        );
        assert_eq!(
            online.lock_by_name("L1").unwrap().cp_time,
            offline.lock_by_name("L1").unwrap().cp_time
        );
    }

    /// Incremental ingestion in per-thread event batches — reports drawn
    /// mid-stream at every batch boundary — converges on exactly the
    /// one-shot result, and intermediate reports equal the one-shot
    /// report of the corresponding prefix.
    #[test]
    fn incremental_batches_match_one_shot() {
        let mut b = TraceBuilder::new("online-incremental");
        let l1 = b.lock("L1");
        let l2 = b.lock("L2");
        let bar = b.barrier("B");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).cs(l1, 5).barrier(bar, 0, 8).cs(l2, 4).exit(); // exit 13
        b.on(t1).work(1).cs_blocked(l1, 5, 3).barrier(bar, 0, 8).work(2).exit();
        let t = b.build().unwrap();

        for batch in [1usize, 2, 3, 5] {
            let mut st = OnlineState::new();
            for stream in &t.threads {
                st.declare(stream.tid);
            }
            // Interleave small batches across threads in stream order.
            let mut cursors: Vec<usize> = vec![0; t.threads.len()];
            let mut progressed = true;
            while progressed {
                progressed = false;
                for (si, stream) in t.threads.iter().enumerate() {
                    let at = cursors[si];
                    if at < stream.events.len() {
                        let end = (at + batch).min(stream.events.len());
                        st.ingest(stream.tid, &stream.events[at..end]);
                        cursors[si] = end;
                        progressed = true;
                        // Mid-stream report must not corrupt later state.
                        let _ = st.report(&t);
                    }
                }
            }
            assert!(!st.is_stale());
            let one_shot = online_analyze(&t);
            assert_eq!(st.report(&t), one_shot, "batch size {batch} diverged");
        }
    }

    /// An event landing at or below the fold watermark flags the state
    /// stale instead of silently merging it out of order; a rebuild from
    /// the assembled trace recovers exactness.
    #[test]
    fn out_of_order_ingest_marks_stale() {
        let mut b = TraceBuilder::new("online-stale");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).cs(l, 4).exit_at(5);
        b.on(t1).work(1).cs_blocked(l, 4, 2).work(3).exit();
        let t = b.build().unwrap();

        let mut st = OnlineState::new();
        // Thread 0's whole stream first: once it exits, its groups fold.
        st.ingest(t.threads[0].tid, &t.threads[0].events);
        let _ = st.report(&t);
        assert!(!st.is_stale());
        // Thread 1 then arrives with events below the watermark.
        st.ingest(t.threads[1].tid, &t.threads[1].events);
        assert!(st.is_stale());
        // The rebuild fallback matches the one-shot pass exactly.
        let mut rebuilt = OnlineState::rebuild(&t);
        assert!(!rebuilt.is_stale());
        assert_eq!(rebuilt.report(&t), online_analyze(&t));
    }

    /// A complete session ingested in one batch folds every event exactly
    /// once on its first report: the permanent fold runs first and the
    /// fold bound (every thread exited) clears the whole buffer, so no
    /// speculative fold is built only to be discarded.
    #[test]
    fn complete_batch_folds_each_event_once() {
        let mut b = TraceBuilder::new("online-fold-once");
        let l = b.lock("L");
        let main = b.thread("main", 0);
        let w = b.thread("w", 0);
        b.on(w).work(2).cs(l, 3).exit();
        b.on(main).create(w).cs_blocked(l, 5, 2).join(w, 7).work(1).exit();
        let t = b.build().unwrap();
        let one_shot = online_analyze(&t);

        let mut st = OnlineState::new();
        for stream in &t.threads {
            st.declare(stream.tid);
        }
        for stream in &t.threads {
            st.ingest(stream.tid, &stream.events);
        }
        let before = GROUP_EVENTS.with(Cell::get);
        assert_eq!(st.report(&t), one_shot);
        assert_eq!(st.events_folded(), st.events_ingested());
        assert_eq!(GROUP_EVENTS.with(Cell::get) - before, st.events_ingested());
        // A second report has nothing left to fold.
        assert_eq!(st.report(&t), one_shot);
        assert_eq!(GROUP_EVENTS.with(Cell::get) - before, st.events_ingested());
    }
}
