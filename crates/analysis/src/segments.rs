//! Segment construction.
//!
//! The paper defines a *segment* as "the executed code of a thread between
//! two synchronization events which might introduce blocking" (§III.A).
//! We build, per thread, the ordered list of its *running intervals*: the
//! gaps where the thread was blocked (waiting for a lock, a barrier, a
//! condition variable or a join) are cut out, and each segment records the
//! cause that allowed it to start. The backward critical-path walk consumes
//! this structure.
//!
//! The blocked intervals are the ones `critlock-trace`'s stepping view
//! ([`critlock_trace::steps`]) reads off the protocol machine, so this
//! module keeps no pairing state of its own. The same pass keeps each
//! thread's lock and rwlock invocations, which the metrics, the Gantt
//! chart, the blocker report and the trace checks read from here instead
//! of walking the streams again.
//!
//! The release and segment lookups search from a caller's hint; see
//! `gallop` and `Hints`.

use crate::arena::{CsrBuilder, CsrIndex, SlabArena};
use critlock_trace::{
    steps, EventKind, LockEpisode, ObjId, RwEpisode, Step, ThreadId, ThreadStream, Trace, Ts,
    SEQ_UNKNOWN,
};
use rayon::prelude::*;
use rustc_hash::FxHashMap;

/// Why a segment started running at its `start` timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartCause {
    /// First segment of a thread.
    ThreadStart,
    /// The thread had blocked on a lock and was granted it.
    LockGranted {
        /// The lock that was granted.
        lock: ObjId,
        /// When the thread originally requested the lock.
        acquire: Ts,
    },
    /// The thread departed from a barrier it had been waiting at.
    BarrierDeparted {
        /// The barrier.
        barrier: ObjId,
        /// Barrier generation.
        epoch: u32,
        /// When this thread arrived.
        arrive: Ts,
    },
    /// The thread was woken from a condition-variable wait.
    CondWoken {
        /// The condition variable.
        cv: ObjId,
        /// Sequence of the waking signal ([`SEQ_UNKNOWN`] if unmatched).
        signal_seq: u64,
        /// When the wait began.
        wait_begin: Ts,
    },
    /// A join on a child thread returned.
    JoinReturned {
        /// The joined child.
        child: ThreadId,
        /// When the join was issued.
        begin: Ts,
    },
}

/// One running interval of one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Owning thread.
    pub tid: ThreadId,
    /// Index within the thread's segment list.
    pub index: usize,
    /// When the segment started running.
    pub start: Ts,
    /// When the segment stopped running (blocked or exited).
    pub end: Ts,
    /// Why the segment could start.
    pub start_cause: StartCause,
}

impl Segment {
    /// Running duration of the segment.
    pub fn duration(&self) -> Ts {
        self.end.saturating_sub(self.start)
    }
}

/// A trace pre-processed into segments plus the lookup indices the
/// critical-path walk needs to find "the segment that released me".
///
/// Segments and dependence indices live in flat arena storage
/// ([`SlabArena`], [`CsrIndex`]): one slab per structure instead of one
/// heap block per thread or lock, which keeps the backward walk's lookups
/// on hot, contiguous memory. Per-thread access goes through
/// [`Self::thread`].
#[derive(Debug)]
pub struct SegmentedTrace {
    /// Per-thread segment lists, packed in one slab; list `i` belongs to
    /// `ThreadId(i)`.
    segments: SlabArena<Segment>,
    /// Per-lock release history `(release_ts, tid)`, sorted by timestamp
    /// within each row. Rows indexed densely by `ObjId` (object ids are
    /// small and dense).
    releases: CsrIndex<(Ts, ThreadId)>,
    /// Last arriver per (barrier, epoch).
    last_arrivers: FxHashMap<(ObjId, u32), (Ts, ThreadId)>,
    /// Signals/broadcasts per condvar `(ts, tid, seq)`, sorted by
    /// timestamp within each row. Rows indexed densely by `ObjId`.
    signals: CsrIndex<(Ts, ThreadId, u64)>,
    /// Exact signal lookup by (cv, seq).
    signals_by_seq: FxHashMap<(ObjId, u64), (Ts, ThreadId)>,
    /// Creation edge per child thread `(parent, create_ts)`, indexed by
    /// the child's `ThreadId`.
    creates: Vec<Option<(ThreadId, Ts)>>,
    /// Exit timestamp per thread.
    exits: Vec<Option<Ts>>,
    /// Per-thread lock and rwlock invocations, each in release order;
    /// entry `i` belongs to `ThreadId(i)`. Kept per thread as the scan
    /// made them: one list would copy every invocation once more.
    invocations: Vec<(Vec<LockEpisode>, Vec<RwEpisode>)>,
    /// Earliest timestamp in the trace.
    pub trace_start: Ts,
}

/// What the scan of one thread's stream yields: its segments and
/// invocations, and its index contributions, merged across threads in
/// thread-id order after the parallel scan.
#[derive(Default)]
struct ThreadScan {
    segments: Vec<Segment>,
    /// Lock invocations in release order.
    locks: Vec<LockEpisode>,
    /// Rwlock invocations in release order.
    rws: Vec<RwEpisode>,
    /// Barrier arrivals `(barrier, epoch, ts)` in event order.
    arrivals: Vec<(ObjId, u32, Ts)>,
    /// Signals/broadcasts `(cv, seq, ts)` in event order.
    signals: Vec<(ObjId, u64, Ts)>,
    /// Thread creations `(child, ts)` in event order.
    creates: Vec<(ThreadId, Ts)>,
    /// Last exit timestamp.
    exit: Option<Ts>,
}

impl ThreadScan {
    /// Every release `(lock, ts)`: the end of each invocation.
    fn releases(&self) -> impl Iterator<Item = (ObjId, Ts)> + '_ {
        let locks = self.locks.iter().map(|e| (e.lock, e.release));
        locks.chain(self.rws.iter().map(|e| (e.lock, e.release)))
    }
}

/// Grow-on-demand dense slot access (object/thread ids are dense, but
/// repaired partial traces may reference ids past the registered range).
fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

impl SegmentedTrace {
    /// Build the segmented view of a trace.
    ///
    /// Each thread's stream is scanned independently (in parallel across
    /// the active rayon pool); the per-thread index contributions are then
    /// merged serially in thread-id order, which reproduces the exact
    /// tie-breaking of a single sequential pass over `trace.threads`.
    pub fn build(trace: &Trace) -> Self {
        let n = trace.threads.len();
        let scanned: Vec<ThreadScan> = trace.threads.par_iter().map(scan_thread).collect();

        // CSR construction: size each dependence-index row up front, then
        // fill in thread-id order — the same order the old per-row `push`
        // used, so tie-breaking is reproduced exactly.
        let mut release_counts: Vec<usize> = Vec::new();
        let mut signal_counts: Vec<usize> = Vec::new();
        for scan in &scanned {
            for (lock, _) in scan.releases() {
                *slot(&mut release_counts, lock.index()) += 1;
            }
            for (cv, _, _) in &scan.signals {
                *slot(&mut signal_counts, cv.index()) += 1;
            }
        }
        let mut releases = CsrBuilder::new(&release_counts);
        let mut signals = CsrBuilder::new(&signal_counts);
        let mut last_arrivers: FxHashMap<(ObjId, u32), (Ts, ThreadId)> = FxHashMap::default();
        let mut signals_by_seq: FxHashMap<(ObjId, u64), (Ts, ThreadId)> = FxHashMap::default();
        let mut creates: Vec<Option<(ThreadId, Ts)>> = Vec::new();
        let mut exits: Vec<Option<Ts>> = vec![None; n];

        for (stream, scan) in trace.threads.iter().zip(&scanned) {
            let tid = stream.tid;
            for (lock, ts) in scan.releases() {
                releases.push(lock.index(), (ts, tid));
            }
            for &(barrier, epoch, ts) in &scan.arrivals {
                let entry = last_arrivers.entry((barrier, epoch)).or_insert((ts, tid));
                if ts >= entry.0 {
                    *entry = (ts, tid);
                }
            }
            for &(cv, seq, ts) in &scan.signals {
                signals.push(cv.index(), (ts, tid, seq));
                if seq != SEQ_UNKNOWN {
                    signals_by_seq.insert((cv, seq), (ts, tid));
                }
            }
            for &(child, ts) in &scan.creates {
                slot(&mut creates, child.index()).get_or_insert((tid, ts));
            }
            if scan.exit.is_some() {
                *slot(&mut exits, tid.index()) = scan.exit;
            }
        }
        // Rows fill in `trace.threads` order, and stream `i` is
        // `ThreadId(i)`: a stable sort by timestamp alone leaves
        // equal-timestamp releases in thread-id order.
        let mut releases = releases.finish();
        for r in 0..releases.num_rows() {
            releases.row_mut(r).sort_by_key(|&(ts, _)| ts);
        }
        let mut signals = signals.finish();
        for r in 0..signals.num_rows() {
            signals.row_mut(r).sort_by_key(|&(ts, tid, seq)| (ts, tid, seq));
        }
        let (segments, invocations): (Vec<_>, Vec<_>) =
            scanned.into_iter().map(|scan| (scan.segments, (scan.locks, scan.rws))).unzip();

        SegmentedTrace {
            segments: SlabArena::from_lists(segments),
            releases,
            last_arrivers,
            signals,
            signals_by_seq,
            creates,
            exits,
            invocations,
            trace_start: trace.start_ts(),
        }
    }

    /// The segment list of one thread; empty for unknown thread ids.
    pub fn thread(&self, tid: ThreadId) -> &[Segment] {
        self.segments.list(tid.index())
    }

    /// Number of threads (segment lists).
    pub fn num_threads(&self) -> usize {
        self.segments.num_lists()
    }

    /// Iterate the per-thread segment lists in thread-id order.
    pub fn iter_threads(&self) -> impl Iterator<Item = &[Segment]> + '_ {
        self.segments.iter_lists()
    }

    /// Total number of segments across all threads.
    pub fn num_segments(&self) -> usize {
        self.segments.total()
    }

    /// The lock and rwlock invocations of one thread, each in release
    /// order; empty for unknown thread ids.
    pub fn invocations(&self, tid: ThreadId) -> (&[LockEpisode], &[RwEpisode]) {
        self.invocations.get(tid.index()).map_or((&[], &[]), |(locks, rws)| (locks, rws))
    }

    /// Every thread's lock and rwlock invocations, in thread-id order.
    pub fn iter_invocations(&self) -> impl Iterator<Item = (&[LockEpisode], &[RwEpisode])> + '_ {
        self.invocations.iter().map(|(locks, rws)| (&locks[..], &rws[..]))
    }

    /// The latest release of `lock` at `ts <= at` by a thread other than
    /// `exclude`.
    pub fn latest_release_before(
        &self,
        lock: ObjId,
        at: Ts,
        exclude: ThreadId,
    ) -> Option<(Ts, ThreadId)> {
        let mut from_end = usize::MAX;
        self.latest_release_from(lock, at, exclude, &mut from_end)
    }

    /// [`Self::latest_release_before`], searching `lock`'s releases from
    /// `hint` (see [`gallop`]) and leaving it where the search landed.
    pub(crate) fn latest_release_from(
        &self,
        lock: ObjId,
        at: Ts,
        exclude: ThreadId,
        hint: &mut usize,
    ) -> Option<(Ts, ThreadId)> {
        let list = self.releases.row(lock.index());
        // Index of the first release with ts > at.
        let mut i = gallop(list, *hint, |(ts, _)| *ts <= at);
        *hint = i;
        while i > 0 {
            i -= 1;
            let (ts, tid) = list[i];
            if tid != exclude {
                return Some((ts, tid));
            }
        }
        None
    }

    /// The last arriver of a barrier episode.
    pub fn last_arriver(&self, barrier: ObjId, epoch: u32) -> Option<(Ts, ThreadId)> {
        self.last_arrivers.get(&(barrier, epoch)).copied()
    }

    /// The signal that woke a condvar wait: exact by sequence if known,
    /// otherwise the latest signal at `ts <= wakeup` by another thread.
    pub fn matching_signal(
        &self,
        cv: ObjId,
        signal_seq: u64,
        wakeup: Ts,
        exclude: ThreadId,
    ) -> Option<(Ts, ThreadId)> {
        if let Some(found) = self.signal_by_seq(cv, signal_seq) {
            return Some(found);
        }
        let list = self.signals.row(cv.index());
        let mut i = list.partition_point(|(ts, _, _)| *ts <= wakeup);
        while i > 0 {
            i -= 1;
            let (ts, tid, _) = list[i];
            if tid != exclude {
                return Some((ts, tid));
            }
        }
        None
    }

    /// The signal on `cv` with sequence `signal_seq`, if one was recorded
    /// (the last one, should two share it; never for [`SEQ_UNKNOWN`]).
    pub fn signal_by_seq(&self, cv: ObjId, signal_seq: u64) -> Option<(Ts, ThreadId)> {
        self.signals_by_seq.get(&(cv, signal_seq)).copied()
    }

    /// The creation edge of a thread, if recorded.
    pub fn creator_of(&self, tid: ThreadId) -> Option<(ThreadId, Ts)> {
        self.creates.get(tid.index()).copied().flatten()
    }

    /// The exit timestamp of a thread.
    pub fn exit_ts(&self, tid: ThreadId) -> Option<Ts> {
        self.exits.get(tid.index()).copied().flatten()
    }

    /// The segment of `tid` whose running interval contains `ts`.
    ///
    /// When several segments touch `ts` (zero-length segments arise at
    /// barrier episodes whose arrival and departure coincide), the
    /// *earliest* containing segment is returned: an enabling event at
    /// `ts` was executed no later than the first segment that reaches
    /// `ts`, and preferring the earliest keeps the backward walk
    /// monotone — jumping to a later same-instant segment can cycle.
    pub fn segment_at(&self, tid: ThreadId, ts: Ts) -> Option<&Segment> {
        let mut from_end = usize::MAX;
        self.segment_from(tid, ts, &mut from_end)
    }

    /// [`Self::segment_at`], searching `tid`'s segments from `hint` (see
    /// [`gallop`]) and leaving it where the search landed.
    pub(crate) fn segment_from(&self, tid: ThreadId, ts: Ts, hint: &mut usize) -> Option<&Segment> {
        let segs = self.thread(tid);
        let i = gallop(segs, *hint, |s| s.end < ts);
        *hint = i;
        if i < segs.len() && segs[i].start <= ts {
            return Some(&segs[i]);
        }
        // `ts` falls in a blocked gap or beyond the last segment (possible
        // in real-clock traces): fall back to the last segment starting at
        // or before it.
        let j = gallop(segs, i, |s| s.start <= ts);
        if j == 0 {
            None
        } else {
            Some(&segs[j - 1])
        }
    }
}

/// The partition point of `row` under `pred`: the index of its first
/// element that fails `pred`, which is what `row.partition_point(pred)`
/// returns. The search gallops outwards from `hint` (any value; past the
/// end means the end) in steps of 1, 2, 4, ... and then bisects the last
/// step, so it costs `O(log d)` for a partition point `d` places from
/// the hint, and the hint decides only where it starts, never what it
/// finds. Like `partition_point`, it assumes `row` is partitioned:
/// every element that passes `pred` comes before every one that fails.
pub(crate) fn gallop<T>(row: &[T], hint: usize, pred: impl Fn(&T) -> bool) -> usize {
    let hint = hint.min(row.len());
    // Every index below `lo` passes `pred`; every index from `hi` fails.
    let (lo, hi) = if hint < row.len() && pred(&row[hint]) {
        let (mut lo, mut step) = (hint + 1, 1);
        loop {
            let probe = hint + step;
            if probe >= row.len() {
                break (lo, row.len());
            }
            if !pred(&row[probe]) {
                break (lo, probe);
            }
            (lo, step) = (probe + 1, step * 2);
        }
    } else {
        let (mut hi, mut step) = (hint, 1);
        loop {
            let Some(probe) = hint.checked_sub(step) else { break (0, hi) };
            if pred(&row[probe]) {
                break (probe + 1, hi);
            }
            (hi, step) = (probe, step * 2);
        }
    };
    lo + row[lo..hi].partition_point(pred)
}

/// Where a sequence of lookups last searched each row of one index (a
/// lock's releases or a thread's segments), for [`gallop`] to start
/// from. A row not searched yet starts from its end, where the backward
/// walk starts; the walk never moves forward in time, so each of its
/// searches starts next to its answer.
pub(crate) struct Hints(Vec<usize>);

impl Hints {
    /// Hints for `rows` rows, allocated once up front; a row beyond them
    /// grows the table.
    pub(crate) fn new(rows: usize) -> Self {
        Hints(vec![usize::MAX; rows])
    }

    /// The hint of row `i`.
    pub(crate) fn row(&mut self, i: usize) -> &mut usize {
        if self.0.len() <= i {
            self.0.resize(i + 1, usize::MAX);
        }
        &mut self.0[i]
    }
}

/// Scan one thread's event stream once, through the stepping view: cut a
/// segment at each blocked interval the view yields, keep the invocations
/// it completes, and collect the index contributions.
fn scan_thread(stream: &ThreadStream) -> ThreadScan {
    let tid = stream.tid;
    let mut scan = ThreadScan::default();
    // An invocation takes at least three events, so a third of the stream
    // bounds each list. Reserving that at a list's first push spares the
    // copies of growing it; the scan hands back what is left at the end.
    let bound = stream.events.len() / 3;
    let Some(first) = stream.events.first() else {
        return scan;
    };
    let (mut start, mut cause) = (first.ts, StartCause::ThreadStart);
    for (ev, step) in steps(stream) {
        // When the thread blocked, and why it could run again at `ev.ts`.
        let (blocked, resumed) = match step {
            Step::Nothing => {
                match ev.kind {
                    EventKind::CondSignal { cv, signal_seq }
                    | EventKind::CondBroadcast { cv, signal_seq } => {
                        scan.signals.push((cv, signal_seq, ev.ts));
                    }
                    EventKind::ThreadCreate { child } => scan.creates.push((child, ev.ts)),
                    EventKind::BarrierArrive { barrier, epoch } => {
                        scan.arrivals.push((barrier, epoch, ev.ts));
                    }
                    EventKind::ThreadExit => {
                        let index = scan.segments.len();
                        let seg = Segment { tid, index, start, end: ev.ts, start_cause: cause };
                        scan.segments.push(seg);
                        scan.exit = Some(ev.ts);
                    }
                    _ => {}
                }
                continue;
            }
            Step::Lock(e) => {
                push_bounded(&mut scan.locks, e, bound);
                continue;
            }
            Step::Rw(e) => {
                push_bounded(&mut scan.rws, e, bound);
                continue;
            }
            Step::Granted { lock, acquire } => (acquire, StartCause::LockGranted { lock, acquire }),
            Step::Barrier(e) => {
                let (barrier, epoch, arrive) = (e.barrier, e.epoch, e.arrive);
                (arrive, StartCause::BarrierDeparted { barrier, epoch, arrive })
            }
            Step::Wait(e) => {
                let (cv, signal_seq, wait_begin) = (e.cv, e.signal_seq, e.wait_begin);
                (wait_begin, StartCause::CondWoken { cv, signal_seq, wait_begin })
            }
            Step::Join(e) => (e.begin, StartCause::JoinReturned { child: e.child, begin: e.begin }),
        };
        let index = scan.segments.len();
        scan.segments.push(Segment { tid, index, start, end: blocked, start_cause: cause });
        (start, cause) = (ev.ts, resumed);
    }
    scan.locks.shrink_to_fit();
    scan.rws.shrink_to_fit();
    scan
}

/// Push `e` onto `list`, reserving room for `bound` values first if the
/// list has none yet.
fn push_bounded<T>(list: &mut Vec<T>, e: T, bound: usize) {
    if list.capacity() == 0 {
        list.reserve(bound);
    }
    list.push(e);
}

#[cfg(test)]
mod tests {
    use super::*;
    use critlock_trace::TraceBuilder;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    // The lookups as they were before they galloped: one fresh binary
    // search over the whole row per query. The references the hinted
    // lookups are checked against.

    fn release_reference(
        st: &SegmentedTrace,
        lock: ObjId,
        at: Ts,
        exclude: ThreadId,
    ) -> Option<(Ts, ThreadId)> {
        let list = st.releases.row(lock.index());
        let mut i = list.partition_point(|(ts, _)| *ts <= at);
        while i > 0 {
            i -= 1;
            let (ts, tid) = list[i];
            if tid != exclude {
                return Some((ts, tid));
            }
        }
        None
    }

    fn segment_reference(st: &SegmentedTrace, tid: ThreadId, ts: Ts) -> Option<&Segment> {
        let segs = st.thread(tid);
        let i = segs.partition_point(|s| s.end < ts);
        if i < segs.len() && segs[i].start <= ts {
            return Some(&segs[i]);
        }
        let j = segs.partition_point(|s| s.start <= ts);
        if j == 0 {
            None
        } else {
            Some(&segs[j - 1])
        }
    }

    /// A trace of up to four threads, each a random run of computation,
    /// critical sections (contended or not) on three locks, condvar
    /// signals and unmatched waits, with many equal timestamps.
    fn random_trace(seed: u64) -> Trace {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = TraceBuilder::new("lookups");
        let locks: Vec<ObjId> = (0..3).map(|i| b.lock(format!("L{i}"))).collect();
        let cv = b.condvar("CV");
        let threads: Vec<ThreadId> =
            (0..rng.gen_range(1..5u32)).map(|i| b.thread(format!("T{i}"), 0)).collect();
        for tid in threads {
            let mut c = b.on(tid);
            let mut now = 0;
            for _ in 0..rng.gen_range(0..40usize) {
                let (lock, d) = (locks[rng.gen_range(0..3usize)], rng.gen_range(0..4u64));
                match rng.gen_range(0..5u32) {
                    0 => c.work(d),
                    1 => c.cs(lock, d),
                    2 => {
                        let obtain = now + rng.gen_range(0..4u64);
                        now = obtain;
                        c.cs_blocked(lock, obtain, d)
                    }
                    3 => c.cond_signal(cv, SEQ_UNKNOWN),
                    _ => c.cond_wait_unmatched(cv, now + d),
                };
                now += d;
            }
            c.exit();
        }
        b.build().unwrap()
    }

    proptest! {
        /// On sorted rows with repeated values, the galloping search finds
        /// `partition_point`'s index from every hint, the past-the-end
        /// hints included.
        #[test]
        fn gallop_finds_the_partition_point_from_any_hint(
            row in prop::collection::vec(0u64..12, 0..40),
            target in 0u64..14,
        ) {
            let mut row = row;
            row.sort_unstable();
            let expected = row.partition_point(|&v| v <= target);
            for hint in (0..row.len() + 3).chain([usize::MAX]) {
                prop_assert_eq!(gallop(&row, hint, |&v| v <= target), expected, "hint {}", hint);
            }
        }

        /// Hinted lookups carried across queries in ascending, descending
        /// and random timestamp order answer every query as a fresh
        /// binary search does.
        #[test]
        fn hinted_lookups_equal_fresh_searches(seed in any::<u64>()) {
            let t = random_trace(seed);
            let st = SegmentedTrace::build(&t);
            let end = t.threads.iter().filter_map(|s| s.end_ts()).max().unwrap_or(0) + 2;
            let mut rng = SmallRng::seed_from_u64(seed);
            let ascending: Vec<Ts> = (0..end).collect();
            let descending: Vec<Ts> = (0..end).rev().collect();
            let random: Vec<Ts> = (0..3 * end).map(|_| rng.gen_range(0..end)).collect();
            for order in [ascending, descending, random] {
                let mut releases = Hints::new(t.objects.len());
                let mut segments = Hints::new(t.threads.len());
                for &ts in &order {
                    let tid = ThreadId(rng.gen_range(0..t.threads.len() as u32 + 1));
                    let obj = ObjId(rng.gen_range(0..t.objects.len() as u32 + 1));
                    prop_assert_eq!(
                        st.latest_release_from(obj, ts, tid, releases.row(obj.index())),
                        release_reference(&st, obj, ts, tid)
                    );
                    prop_assert_eq!(
                        st.segment_from(tid, ts, segments.row(tid.index())),
                        segment_reference(&st, tid, ts)
                    );
                    prop_assert_eq!(st.latest_release_before(obj, ts, tid), release_reference(&st, obj, ts, tid));
                    prop_assert_eq!(st.segment_at(tid, ts), segment_reference(&st, tid, ts));
                }
            }
        }

        /// The stable timestamp-only sort leaves each release row in
        /// `(ts, tid)` order, the order it was sorted by before.
        #[test]
        fn release_rows_are_in_timestamp_then_thread_order(seed in any::<u64>()) {
            let st = SegmentedTrace::build(&random_trace(seed));
            for r in 0..st.releases.num_rows() {
                let row = st.releases.row(r);
                prop_assert!(row.windows(2).all(|w| w[0] <= w[1]), "row {}: {:?}", r, row);
            }
        }
    }

    #[test]
    fn single_thread_one_segment() {
        let mut b = TraceBuilder::new("s");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        b.on(t0).work(2).cs(l, 3).work(1).exit();
        let t = b.build().unwrap();
        let st = SegmentedTrace::build(&t);
        assert_eq!(st.thread(ThreadId(0)).len(), 1);
        let seg = st.thread(ThreadId(0))[0];
        assert_eq!(seg.start, 0);
        assert_eq!(seg.end, 6);
        assert_eq!(seg.start_cause, StartCause::ThreadStart);
        assert_eq!(seg.duration(), 6);
    }

    #[test]
    fn contended_lock_splits_segment() {
        let mut b = TraceBuilder::new("s");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).cs(l, 4).exit_at(5);
        b.on(t1).work(1).cs_blocked(l, 4, 2).exit();
        let t = b.build().unwrap();
        let st = SegmentedTrace::build(&t);
        assert_eq!(st.thread(ThreadId(0)).len(), 1);
        assert_eq!(st.thread(ThreadId(1)).len(), 2);
        let s0 = st.thread(ThreadId(1))[0];
        let s1 = st.thread(ThreadId(1))[1];
        assert_eq!((s0.start, s0.end), (0, 1));
        assert_eq!((s1.start, s1.end), (4, 6));
        assert_eq!(s1.start_cause, StartCause::LockGranted { lock: l, acquire: 1 });
    }

    #[test]
    fn uncontended_lock_does_not_split() {
        let mut b = TraceBuilder::new("s");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        b.on(t0).cs(l, 2).work(1).cs(l, 2).exit();
        let t = b.build().unwrap();
        let st = SegmentedTrace::build(&t);
        assert_eq!(st.thread(ThreadId(0)).len(), 1);
    }

    #[test]
    fn barrier_splits_and_last_arriver_found() {
        let mut b = TraceBuilder::new("s");
        let bar = b.barrier("B");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).work(3).barrier(bar, 0, 5).work(1).exit();
        b.on(t1).work(5).barrier(bar, 0, 5).work(2).exit();
        let t = b.build().unwrap();
        let st = SegmentedTrace::build(&t);
        assert_eq!(st.thread(ThreadId(0)).len(), 2);
        assert_eq!(st.thread(ThreadId(1)).len(), 2);
        assert_eq!(st.last_arriver(bar, 0), Some((5, ThreadId(1))));
        let s = st.thread(ThreadId(0))[1];
        assert_eq!(s.start, 5);
        assert!(matches!(s.start_cause, StartCause::BarrierDeparted { arrive: 3, .. }));
    }

    #[test]
    fn release_lookup_excludes_self_and_respects_time() {
        let mut b = TraceBuilder::new("s");
        let l = b.lock("L");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).cs(l, 2).work(1).cs(l, 2).exit(); // releases at 2 and 5
        b.on(t1).work(10).cs(l, 1).exit(); // release at 11
        let t = b.build().unwrap();
        let st = SegmentedTrace::build(&t);
        assert_eq!(st.latest_release_before(l, 5, ThreadId(1)), Some((5, ThreadId(0))));
        assert_eq!(st.latest_release_before(l, 4, ThreadId(1)), Some((2, ThreadId(0))));
        // Excluding T0 skips both of its releases.
        assert_eq!(st.latest_release_before(l, 5, ThreadId(0)), None);
        assert_eq!(st.latest_release_before(l, 20, ThreadId(0)), Some((11, ThreadId(1))));
        assert_eq!(st.latest_release_before(l, 1, ThreadId(1)), None);
    }

    #[test]
    fn signal_matching_by_seq_and_time() {
        let mut b = TraceBuilder::new("s");
        let cv = b.condvar("CV");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).work(4).cond_signal(cv, 1).work(2).cond_signal(cv, 2).exit();
        b.on(t1).cond_wait(cv, 4, 1).work(1).cond_wait_unmatched(cv, 7).exit();
        let t = b.build().unwrap();
        let st = SegmentedTrace::build(&t);
        assert_eq!(st.matching_signal(cv, 1, 4, ThreadId(1)), Some((4, ThreadId(0))));
        // Unmatched: the latest signal at ts <= 7 is seq 2 at ts 6.
        assert_eq!(st.matching_signal(cv, SEQ_UNKNOWN, 7, ThreadId(1)), Some((6, ThreadId(0))));
        assert_eq!(st.matching_signal(cv, SEQ_UNKNOWN, 0, ThreadId(1)), None);
    }

    #[test]
    fn creates_and_exits_recorded() {
        let mut b = TraceBuilder::new("s");
        let main = b.thread("main", 0);
        let w = b.thread("w", 2);
        b.on(w).work(3).exit(); // exit at 5
        b.on(main).work(2).create(w).join(w, 5).exit_at(6);
        let t = b.build().unwrap();
        let st = SegmentedTrace::build(&t);
        assert_eq!(st.creator_of(ThreadId(1)), Some((ThreadId(0), 2)));
        assert_eq!(st.creator_of(ThreadId(0)), None);
        assert_eq!(st.exit_ts(ThreadId(1)), Some(5));
        // main: [0,2] then join-blocked, [5,6]
        assert_eq!(st.thread(ThreadId(0)).len(), 2);
        assert!(matches!(
            st.thread(ThreadId(0))[1].start_cause,
            StartCause::JoinReturned { child: ThreadId(1), begin: 2 }
        ));
    }

    #[test]
    fn segment_at_lookup() {
        let mut b = TraceBuilder::new("s");
        let bar = b.barrier("B");
        let t0 = b.thread("T0", 0);
        let t1 = b.thread("T1", 0);
        b.on(t0).work(3).barrier(bar, 0, 5).work(5).exit();
        b.on(t1).work(5).barrier(bar, 0, 5).work(1).exit();
        let t = b.build().unwrap();
        let st = SegmentedTrace::build(&t);
        assert_eq!(st.segment_at(ThreadId(0), 2).unwrap().index, 0);
        assert_eq!(st.segment_at(ThreadId(0), 7).unwrap().index, 1);
        // Boundary: ts 5 belongs to the later segment (start <= ts).
        assert_eq!(st.segment_at(ThreadId(0), 5).unwrap().index, 1);
        assert_eq!(st.num_segments(), 4);
    }
}
