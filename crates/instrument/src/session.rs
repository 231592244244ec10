//! Tracing sessions and per-thread event collection.
//!
//! The paper's tool interposes on Pthreads via `LD_PRELOAD` and records
//! MAGIC() events into per-thread buffers that are flushed to disk when
//! the application completes (§IV.A). Rust has no sanctioned symbol
//! interposition, so the equivalent here is explicit: a [`Session`] owns
//! the clock and the object registry, the instrumented primitives
//! ([`crate::Mutex`], [`crate::Barrier`], [`crate::Condvar`]) record into
//! a lock-free per-thread buffer held in thread-local storage, and
//! buffers are handed back to the session when each thread finishes.
//!
//! The timestamp source is a process-wide monotonic nanosecond clock
//! anchored at session creation — the portable stand-in for the paper's
//! `mftb`/`rdtsc` user-space timestamp reads.

use critlock_trace::net::{Addr, Stream};
use critlock_trace::producer::Producer;
use critlock_trace::stream::{Frame, StreamWriter, EVENTS_PER_FRAME};
use critlock_trace::{
    ClockDomain, Event, EventKind, ObjId, ObjInfo, ObjKind, RetryPolicy, ThreadId, ThreadStream,
    Trace, TraceMeta,
};
use parking_lot::Mutex as PlMutex;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many unstreamed events a thread buffers before pushing an `Events`
/// frame to a live sink attached with [`Session::stream_to`].
pub const STREAM_FLUSH_EVENTS: usize = 128;

/// How long a resumable stream waits on the collector (connect, write,
/// acknowledgement) before treating it as unreachable and reconnecting.
const ACK_TIMEOUT: Duration = Duration::from_secs(5);

/// Where a live session's frames go: a plain [`StreamWriter`] over any
/// byte sink, which surfaces a write failure (and the session detaches
/// it), or a resumable [`Producer`], which reconnects and replays first.
trait FrameSink: Send {
    /// Write one frame.
    fn write_frame(&mut self, frame: &Frame) -> critlock_trace::Result<()>;
    /// Flush buffered bytes to the transport.
    fn flush(&mut self) -> critlock_trace::Result<()>;
    /// Close the stream after the final frame; a producer verifies here
    /// that the collector acknowledged everything.
    fn close(&mut self) -> critlock_trace::Result<()>;
}

impl FrameSink for StreamWriter<Box<dyn Write + Send>> {
    fn write_frame(&mut self, frame: &Frame) -> critlock_trace::Result<()> {
        StreamWriter::write_frame(self, frame)
    }

    fn flush(&mut self) -> critlock_trace::Result<()> {
        StreamWriter::flush(self)
    }

    fn close(&mut self) -> critlock_trace::Result<()> {
        StreamWriter::flush(self)
    }
}

impl FrameSink for Producer {
    fn write_frame(&mut self, frame: &Frame) -> critlock_trace::Result<()> {
        Producer::write_frame(self, frame)
    }

    fn flush(&mut self) -> critlock_trace::Result<()> {
        Producer::flush(self)
    }

    fn close(&mut self) -> critlock_trace::Result<()> {
        Producer::close(self).map(drop)
    }
}

/// A plain sink: the CLSM header written to `sink`, frames to follow.
/// Buffered, as [`Producer`] is: the frame encoder writes a varint a byte
/// at a time, and each [`FrameSink::flush`] should reach `sink` as one
/// write rather than several per frame.
fn plain_sink(sink: impl Write + Send + 'static) -> critlock_trace::Result<Box<dyn FrameSink>> {
    let sink: Box<dyn Write + Send> = Box::new(BufWriter::new(sink));
    Ok(Box::new(StreamWriter::new(sink)?))
}

/// Live-streaming sink state: the frame sink plus what has already been
/// announced on the wire.
struct SinkState {
    sink: Box<dyn FrameSink>,
    objects_sent: usize,
    announced: BTreeSet<ThreadId>,
}

pub(crate) struct SessionInner {
    pub(crate) app: String,
    pub(crate) start: Instant,
    next_tid: AtomicU32,
    objects: PlMutex<Vec<ObjInfo>>,
    /// Flushed per-thread buffers, keyed by dense thread id.
    flushed: PlMutex<Vec<FlushedBuffer>>,
    params: PlMutex<Vec<(String, String)>>,
    /// Live streaming sink, if [`Session::stream_to`] was called.
    /// Cleared on write errors: losing the collector must never take the
    /// application down.
    sink: PlMutex<Option<SinkState>>,
    /// Held through a whole [`Session::attach_sink`], so attaches run one
    /// at a time while their connect stays outside the `sink` lock.
    attaching: PlMutex<()>,
}

/// A finished thread's buffer: (id, name, events).
type FlushedBuffer = (ThreadId, Option<String>, Vec<Event>);

impl SessionInner {
    pub(crate) fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    pub(crate) fn register_object(&self, kind: ObjKind, name: String) -> ObjId {
        let mut objs = self.objects.lock();
        let id = ObjId(objs.len() as u32);
        objs.push(ObjInfo { kind, name });
        id
    }

    fn alloc_tid(&self) -> ThreadId {
        ThreadId(self.next_tid.fetch_add(1, Ordering::Relaxed))
    }

    fn flush(&self, tid: ThreadId, name: Option<String>, events: Vec<Event>) {
        self.flushed.lock().push((tid, name, events));
    }

    /// Write any objects registered since the last sync as a dense
    /// `Objects` frame.
    fn sync_objects(&self, state: &mut SinkState) -> critlock_trace::Result<()> {
        let objects = self.objects.lock();
        if objects.len() > state.objects_sent {
            let frame = Frame::Objects {
                first_id: state.objects_sent as u32,
                objects: objects[state.objects_sent..].to_vec(),
            };
            state.objects_sent = objects.len();
            drop(objects);
            state.sink.write_frame(&frame)?;
        }
        Ok(())
    }

    fn write_thread_events(
        &self,
        state: &mut SinkState,
        tid: ThreadId,
        name: Option<String>,
        events: &[Event],
    ) -> critlock_trace::Result<()> {
        self.sync_objects(state)?;
        if state.announced.insert(tid) {
            state.sink.write_frame(&Frame::Thread { tid, name })?;
        }
        for chunk in events.chunks(EVENTS_PER_FRAME) {
            state.sink.write_frame(&Frame::Events { tid, events: chunk.to_vec() })?;
        }
        state.sink.flush()
    }

    /// Push a thread's pending events to the live sink, if one is
    /// attached. Returns whether the events should be considered
    /// streamed. Write failures detach the sink.
    fn stream_events(&self, tid: ThreadId, name: Option<String>, events: &[Event]) -> bool {
        let mut guard = self.sink.lock();
        let Some(state) = guard.as_mut() else { return false };
        if self.write_thread_events(state, tid, name, events).is_err() {
            *guard = None;
        }
        true
    }

    /// Stream a workload parameter, if a sink is attached.
    fn stream_param(&self, key: &str, value: &str) {
        let mut guard = self.sink.lock();
        let Some(state) = guard.as_mut() else { return };
        let frame = Frame::Param { key: key.to_string(), value: value.to_string() };
        if state.sink.write_frame(&frame).and_then(|()| state.sink.flush()).is_err() {
            *guard = None;
        }
    }
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

struct ThreadCtx {
    session: Arc<SessionInner>,
    tid: ThreadId,
    name: Option<String>,
    buf: Vec<Event>,
    /// Prefix of `buf` already pushed to a live sink.
    streamed: usize,
}

/// Record an event on the current thread, if it is registered with a
/// session. Events on unregistered threads are dropped (the real locking
/// still happens); register threads with [`crate::spawn`] or
/// [`Session::register_current_thread`].
pub(crate) fn record(kind: EventKind) {
    CTX.with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            let ts = ctx.session.now();
            push_event(ctx, ts, kind);
        }
    });
}

/// Run `unlock` and record the release `kind`, stamped just *before* the
/// unlock so the recorded hold lies inside the real one: another
/// thread's obtain, stamped after it acquires, can then never precede
/// this release in the trace, however long this thread is preempted
/// after unlocking. The event is pushed, and any sink flush it triggers
/// runs, only after the unlock, outside the critical section.
pub(crate) fn record_release(kind: EventKind, unlock: impl FnOnce()) {
    let ts = CTX.with(|c| c.borrow().as_ref().map(|ctx| ctx.session.now()));
    unlock();
    CTX.with(|c| {
        if let (Some(ts), Some(ctx)) = (ts, c.borrow_mut().as_mut()) {
            push_event(ctx, ts, kind);
        }
    });
}

fn push_event(ctx: &mut ThreadCtx, ts: u64, kind: EventKind) {
    ctx.buf.push(Event::new(ts, kind));
    if ctx.buf.len() - ctx.streamed >= STREAM_FLUSH_EVENTS {
        stream_pending(ctx);
    }
}

/// Push the unstreamed suffix of a thread's buffer to the live sink.
fn stream_pending(ctx: &mut ThreadCtx) {
    let pending = &ctx.buf[ctx.streamed..];
    if pending.is_empty() {
        return;
    }
    if ctx.session.stream_events(ctx.tid, ctx.name.clone(), pending) {
        ctx.streamed = ctx.buf.len();
    }
}

fn install_ctx(session: Arc<SessionInner>, tid: ThreadId, name: Option<String>) {
    CTX.with(|c| {
        let mut slot = c.borrow_mut();
        assert!(slot.is_none(), "thread already registered with a session");
        *slot = Some(ThreadCtx { session, tid, name, buf: Vec::with_capacity(1024), streamed: 0 });
    });
}

fn uninstall_ctx() {
    CTX.with(|c| {
        if let Some(mut ctx) = c.borrow_mut().take() {
            stream_pending(&mut ctx);
            ctx.session.flush(ctx.tid, ctx.name, ctx.buf);
        }
    });
}

/// A tracing session: creates instrumented synchronization objects,
/// registers threads, and assembles the final [`Trace`].
///
/// The creating thread is registered as thread 0 (the "main" thread of
/// the trace); call [`Session::finish`] on that same thread to close the
/// trace.
#[derive(Clone)]
pub struct Session {
    inner: Arc<SessionInner>,
}

impl Session {
    /// Start a session for an application called `app`, registering the
    /// calling thread as the trace's main thread.
    pub fn new(app: impl Into<String>) -> Session {
        let inner = Arc::new(SessionInner {
            app: app.into(),
            start: Instant::now(),
            next_tid: AtomicU32::new(0),
            objects: PlMutex::new(Vec::new()),
            flushed: PlMutex::new(Vec::new()),
            params: PlMutex::new(Vec::new()),
            sink: PlMutex::new(None),
            attaching: PlMutex::new(()),
        });
        let tid = inner.alloc_tid();
        debug_assert_eq!(tid, ThreadId::MAIN);
        install_ctx(Arc::clone(&inner), tid, Some("main".into()));
        record(EventKind::ThreadStart);
        Session { inner }
    }

    /// Attach a workload parameter to the trace metadata.
    pub fn param(&self, key: impl Into<String>, value: impl ToString) {
        let (key, value) = (key.into(), value.to_string());
        self.inner.stream_param(&key, &value);
        self.inner.params.lock().push((key, value));
    }

    /// Stream this session live to a collector at `addr` (`unix:/path` or
    /// `host:port`, as accepted by `critlock serve`).
    ///
    /// Events recorded so far are sent immediately; from here on each
    /// thread pushes an `Events` frame whenever [`STREAM_FLUSH_EVENTS`]
    /// events accumulate and when it exits, and [`Session::finish`] sends
    /// the final `End` frame. Streaming is best-effort: if the collector
    /// goes away, the sink is dropped and the session keeps recording
    /// locally.
    pub fn stream_to(&self, addr: &str) -> std::io::Result<()> {
        let addr = Addr::parse(addr)?;
        Ok(self.attach_sink(|| plain_sink(Stream::connect(&addr)?))?)
    }

    /// Stream this session live into an arbitrary byte sink (the
    /// transport-agnostic core of [`Session::stream_to`]).
    pub fn stream_to_writer(
        &self,
        sink: impl Write + Send + 'static,
    ) -> critlock_trace::Result<()> {
        self.attach_sink(|| plain_sink(sink))
    }

    /// Stream this session live to a collector at `addr` with
    /// reconnect-and-resume through a [`Producer`]: it keeps every frame
    /// it has sent, encoded, in a replay buffer, and on any transport
    /// error — including the collector being restarted — it reconnects
    /// with capped exponential backoff per `policy`, presents its resume
    /// token, and replays the frames the collector has not acknowledged.
    /// [`Session::finish`] then waits (within the same budget) for the
    /// collector's final acknowledgement to cover the whole stream.
    ///
    /// `policy.max_attempts` counts the failed connection itself: 1 (or
    /// 0) means the first transport error is final and nothing is
    /// resumed, 2 allows one reconnect, and each advance of the
    /// collector's ack refunds the budget.
    ///
    /// Costs a second in-memory copy of the encoded frame stream for the
    /// session's lifetime; use [`Session::stream_to`] when resume is not
    /// worth that.
    pub fn stream_to_resumable(&self, addr: &str, policy: RetryPolicy) -> std::io::Result<()> {
        static SESSION_COUNTER: AtomicU64 = AtomicU64::new(0);
        let addr = Addr::parse(addr)?;
        let n = SESSION_COUNTER.fetch_add(1, Ordering::Relaxed);
        let token = format!("session:{}:{}:{}", self.inner.app, std::process::id(), n).into_bytes();
        Ok(self.attach_sink(|| {
            Ok(Box::new(Producer::connect(&addr, token, policy, Some(ACK_TIMEOUT), None)?))
        })?)
    }

    /// Open a sink with `open`, announce the session through it (Start,
    /// params, objects, finished threads) and install it as the live
    /// sink. A session that is already streaming is rejected before
    /// `open` connects or writes anything. `open` runs outside the sink
    /// lock, so recording threads never wait on a connect.
    fn attach_sink(
        &self,
        open: impl FnOnce() -> critlock_trace::Result<Box<dyn FrameSink>>,
    ) -> critlock_trace::Result<()> {
        let _attaching = self.inner.attaching.lock();
        if self.inner.sink.lock().is_some() {
            return Err(critlock_trace::TraceError::Decode(
                "session is already streaming to a sink".into(),
            ));
        }
        let mut state = SinkState { sink: open()?, objects_sent: 0, announced: BTreeSet::new() };
        let mut guard = self.inner.sink.lock();
        let mut meta = TraceMeta::named(self.inner.app.clone());
        meta.clock = ClockDomain::RealNs;
        state.sink.write_frame(&Frame::Start { meta })?;
        for (key, value) in self.inner.params.lock().iter() {
            state.sink.write_frame(&Frame::Param { key: key.clone(), value: value.clone() })?;
        }
        self.inner.sync_objects(&mut state)?;
        // Replay already-finished threads under the sink lock, so nothing
        // can fall between replay and installation.
        for (tid, name, events) in self.inner.flushed.lock().iter() {
            self.inner.write_thread_events(&mut state, *tid, name.clone(), events)?;
        }
        state.sink.flush()?;
        *guard = Some(state);
        Ok(())
    }

    pub(crate) fn inner(&self) -> &Arc<SessionInner> {
        &self.inner
    }

    /// Register the calling thread (when it was not created through
    /// [`crate::spawn`]). Returns its trace id. The thread must call
    /// [`Session::unregister_current_thread`] before the session finishes.
    pub fn register_current_thread(&self, name: impl Into<String>) -> ThreadId {
        let tid = self.inner.alloc_tid();
        install_ctx(Arc::clone(&self.inner), tid, Some(name.into()));
        record(EventKind::ThreadStart);
        tid
    }

    /// Record the exit of a thread registered with
    /// [`Session::register_current_thread`] and flush its buffer.
    pub fn unregister_current_thread(&self) {
        record(EventKind::ThreadExit);
        uninstall_ctx();
    }

    /// Allocate a thread id for a child about to be spawned (used by
    /// [`crate::spawn`]).
    pub(crate) fn alloc_child(&self) -> ThreadId {
        self.inner.alloc_tid()
    }

    /// Install the context for a freshly spawned child thread.
    pub(crate) fn enter_child(&self, tid: ThreadId, name: String) {
        install_ctx(Arc::clone(&self.inner), tid, Some(name));
        record(EventKind::ThreadStart);
    }

    /// Flush a finished child thread.
    pub(crate) fn exit_child(&self) {
        record(EventKind::ThreadExit);
        uninstall_ctx();
    }

    /// Finish the session on the main thread: records the main thread's
    /// exit, gathers all flushed buffers and returns the trace.
    ///
    /// All threads spawned through [`crate::spawn`] must have been joined
    /// first; otherwise their events are missing and validation may fail.
    pub fn finish(self) -> critlock_trace::Result<Trace> {
        record(EventKind::ThreadExit);
        uninstall_ctx();

        // Close the live stream, if any: final params, an `End` frame and
        // the sink's close (which for a resumable sink waits for the
        // collector's final ack, reconnecting if needed). Best-effort — a
        // dead collector must not fail finish().
        if let Some(mut state) = self.inner.sink.lock().take() {
            let traced = self.inner.next_tid.load(Ordering::Relaxed).to_string();
            let _ = self
                .inner
                .sync_objects(&mut state)
                .and_then(|()| {
                    state
                        .sink
                        .write_frame(&Frame::Param { key: "traced_threads".into(), value: traced })
                })
                .and_then(|()| state.sink.write_frame(&Frame::End))
                .and_then(|()| state.sink.close());
        }

        let mut meta = TraceMeta::named(self.inner.app.clone());
        meta.clock = ClockDomain::RealNs;
        for (k, v) in self.inner.params.lock().iter() {
            meta.params.insert(k.clone(), v.clone());
        }
        meta.params.insert(
            "traced_threads".into(),
            self.inner.next_tid.load(Ordering::Relaxed).to_string(),
        );

        let mut trace = Trace::new(meta);
        trace.objects = self.inner.objects.lock().clone();

        let mut buffers = std::mem::take(&mut *self.inner.flushed.lock());
        buffers.sort_by_key(|(tid, _, _)| *tid);
        let n = self.inner.next_tid.load(Ordering::Relaxed);
        let mut iter = buffers.into_iter().peekable();
        for i in 0..n {
            let tid = ThreadId(i);
            let mut stream = ThreadStream::new(tid);
            if iter.peek().map(|(t, _, _)| *t) == Some(tid) {
                let (_, name, events) = iter.next().unwrap();
                stream.name = name;
                stream.events = events;
            }
            trace.push_thread(stream);
        }
        trace.validate()?;
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_session_produces_main_only_trace() {
        let s = Session::new("empty");
        let t = s.finish().unwrap();
        assert_eq!(t.num_threads(), 1);
        assert_eq!(t.meta.app, "empty");
        assert_eq!(t.meta.clock, ClockDomain::RealNs);
        let ev = &t.threads[0].events;
        assert_eq!(ev.first().unwrap().kind, EventKind::ThreadStart);
        assert_eq!(ev.last().unwrap().kind, EventKind::ThreadExit);
    }

    #[test]
    fn params_recorded() {
        let s = Session::new("p");
        s.param("threads", 4);
        s.param("input", "large");
        let t = s.finish().unwrap();
        assert_eq!(t.meta.params.get("input").unwrap(), "large");
        assert_eq!(t.meta.params.get("threads").unwrap(), "4");
        assert_eq!(t.meta.params.get("traced_threads").unwrap(), "1");
    }

    #[test]
    fn manual_thread_registration() {
        let s = Session::new("manual");
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            let tid = s2.register_current_thread("worker");
            assert_eq!(tid, ThreadId(1));
            s2.unregister_current_thread();
        });
        h.join().unwrap();
        let t = s.finish().unwrap();
        assert_eq!(t.num_threads(), 2);
        assert_eq!(t.threads[1].name.as_deref(), Some("worker"));
        assert_eq!(t.threads[1].events.len(), 2); // start + exit
    }

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streamed_session_equals_finished_trace() {
        let s = Session::new("streamed");
        s.param("phase", "warmup");
        let buf = SharedBuf::default();
        s.stream_to_writer(buf.clone()).unwrap();
        s.param("phase2", "steady");

        let m = std::sync::Arc::new(s.mutex("guard", 0u32));
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            let tid = s2.register_current_thread("worker");
            assert_eq!(tid, ThreadId(1));
            *m.lock() += 1;
            s2.unregister_current_thread();
        });
        h.join().unwrap();

        let trace = s.finish().unwrap();
        let bytes = buf.0.lock().unwrap().clone();
        let streamed =
            critlock_trace::stream::read_trace(&mut std::io::Cursor::new(bytes)).unwrap();
        assert_eq!(streamed, trace);
        streamed.validate().unwrap();
    }

    /// A writer that counts the calls it receives.
    #[derive(Clone, Default)]
    struct CountingBuf {
        bytes: SharedBuf,
        writes: Arc<AtomicU64>,
        flushes: Arc<AtomicU64>,
    }

    impl Write for CountingBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.fetch_add(1, Ordering::Relaxed);
            self.bytes.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn plain_sink_reaches_the_writer_once_per_flush() {
        let s = Session::new("buffered");
        let sink = CountingBuf::default();
        s.stream_to_writer(sink.clone()).unwrap();
        let m = s.mutex("guard", 0u32);
        for _ in 0..4 * STREAM_FLUSH_EVENTS {
            *m.lock() += 1;
        }
        let trace = s.finish().unwrap();
        let (writes, flushes) =
            (sink.writes.load(Ordering::Relaxed), sink.flushes.load(Ordering::Relaxed));
        // Unbuffered, each frame cost a write for every varint byte of its
        // length prefix, one for the payload and one for the CRC.
        assert!(flushes > 4, "every 128 events flush: {flushes}");
        assert!(writes <= flushes, "{writes} writes for {flushes} flushes");
        let bytes = sink.bytes.0.lock().unwrap().clone();
        let streamed =
            critlock_trace::stream::read_trace(&mut std::io::Cursor::new(bytes)).unwrap();
        assert_eq!(streamed, trace);
    }

    #[test]
    fn double_stream_to_is_rejected() {
        let s = Session::new("twice");
        s.stream_to_writer(SharedBuf::default()).unwrap();
        let rejected = SharedBuf::default();
        assert!(s.stream_to_writer(rejected.clone()).is_err());
        assert!(rejected.0.lock().unwrap().is_empty(), "a rejected sink must receive no bytes");
        s.finish().unwrap();
    }

    #[test]
    fn clock_is_monotonic() {
        let s = Session::new("clock");
        let a = s.inner().now();
        let b = s.inner().now();
        assert!(b >= a);
        s.finish().unwrap();
    }
}
