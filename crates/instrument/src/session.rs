//! Tracing sessions and per-thread event collection.
//!
//! The paper's tool interposes on Pthreads via `LD_PRELOAD` and records
//! MAGIC() events into per-thread buffers that are flushed to disk when
//! the application completes (§IV.A). Rust has no sanctioned symbol
//! interposition, so the equivalent here is explicit: a [`Session`] owns
//! the clock and the object registry, the instrumented primitives
//! ([`crate::Mutex`], [`crate::Barrier`], [`crate::Condvar`]) record into
//! a per-thread buffer held in thread-local storage, and buffers are
//! handed back to the session when each thread finishes.
//!
//! A thread's buffer is a list of chunks of [`STREAM_FLUSH_EVENTS`]
//! events. A full chunk is sealed behind an `Arc`. When the session
//! streams live ([`Session::stream_to`]), the thread also hands the
//! sealed chunk to the session's one flusher thread through a lock-free
//! queue. The flusher owns the sink: it announces threads, syncs the
//! object registry, encodes each chunk from the shared slice and flushes
//! once per wakeup. So a recording thread never takes a session-wide
//! lock, makes a syscall or encodes a frame, however slow the collector
//! is. The flusher and the thread share each chunk, and neither copies
//! one for the other. As it exits, the thread copies its chunks into the
//! one `Vec` of events its trace stream holds, so [`Session::finish`]
//! only gathers and validates them; it joins the flusher before the
//! stream's `End`, then gives the chunk buffers to a process-wide stack
//! of spares (`SPARE_CHUNKS`), from which recording threads take their
//! next chunks.
//!
//! The timestamp source is a process-wide monotonic nanosecond clock
//! anchored at session creation — the portable stand-in for the paper's
//! `mftb`/`rdtsc` user-space timestamp reads.

use critlock_trace::net::{Addr, Stream};
use critlock_trace::producer::Producer;
use critlock_trace::stream::{Frame, RawFrame, StreamWriter};
use critlock_trace::{
    ClockDomain, Event, EventKind, ObjId, ObjInfo, ObjKind, RetryPolicy, ThreadId, ThreadStream,
    Trace, TraceError, TraceMeta,
};
use parking_lot::Mutex as PlMutex;
use std::cell::RefCell;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Events per chunk of a thread's buffer: a live session's flusher
/// receives, and sends as one `Events` frame, each chunk once it fills,
/// and each thread's last partial chunk when the thread exits.
pub const STREAM_FLUSH_EVENTS: usize = 128;

/// How long a resumable stream waits on the collector (connect, write,
/// acknowledgement) before treating it as unreachable and reconnecting.
const ACK_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the flusher sleeps between drains of its queue. Recording
/// threads never wake it, so a chunk reaches the sink within about this
/// long; [`Session::finish`] wakes it at once.
const FLUSH_PERIOD: Duration = Duration::from_millis(1);

/// Where a live session's frames go: a plain [`StreamWriter`] over any
/// byte sink, which surfaces a write failure, or a resumable
/// [`Producer`], which reconnects and replays first.
trait FrameSink: Send {
    /// Write one encoded frame.
    fn write_raw(&mut self, frame: RawFrame) -> critlock_trace::Result<()>;
    /// Flush buffered bytes to the transport.
    fn flush(&mut self) -> critlock_trace::Result<()>;
    /// Close the stream after the final frame; a producer verifies here
    /// that the collector acknowledged everything.
    fn close(&mut self) -> critlock_trace::Result<()>;
}

impl FrameSink for StreamWriter<Box<dyn Write + Send>> {
    fn write_raw(&mut self, frame: RawFrame) -> critlock_trace::Result<()> {
        StreamWriter::write_raw_frame(self, &frame)
    }

    fn flush(&mut self) -> critlock_trace::Result<()> {
        StreamWriter::flush(self)
    }

    fn close(&mut self) -> critlock_trace::Result<()> {
        StreamWriter::flush(self)
    }
}

impl FrameSink for Producer {
    fn write_raw(&mut self, frame: RawFrame) -> critlock_trace::Result<()> {
        Producer::write_raw_frame(self, frame)
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
/// at a time, and each [`FrameSink::flush`] should reach `sink` in a few
/// large writes rather than several per frame.
fn plain_sink(sink: impl Write + Send + 'static) -> critlock_trace::Result<Box<dyn FrameSink>> {
    let sink: Box<dyn Write + Send> = Box::new(BufWriter::new(sink));
    Ok(Box::new(StreamWriter::new(sink)?))
}

/// A sealed run of one thread's events. The thread's buffer keeps it for
/// [`Session::finish`], and the flusher encodes the same allocation.
type Chunk = Arc<Vec<Event>>;

/// Most empty chunk buffers [`SPARE_CHUNKS`] keeps: 3 MiB of events.
const SPARE_CHUNKS_MAX: usize = 1024;

/// Spare chunk buffers a recording thread takes from [`SPARE_CHUNKS`] at
/// once, so it locks the stack about once per 4,096 events.
const SPARE_BATCH: usize = 32;

/// Empty chunk buffers, shared by every session in the process.
/// [`Session::finish`] gives a session's chunks back once its flusher is
/// done with them, and recording threads take their new chunks from here,
/// a batch at a time, before they allocate any. Recording threads are
/// often short-lived, and the allocator serves each from whichever of its
/// per-thread arenas is free; chunks allocated and freed anew by every
/// session left freed memory behind in every arena such threads touched,
/// so a run of sessions' peak memory grew and varied from run to run.
static SPARE_CHUNKS: SpareChunks = SpareChunks::new(SPARE_CHUNKS_MAX);

/// A bounded stack of empty chunk buffers.
struct SpareChunks {
    max: usize,
    spares: std::sync::Mutex<Vec<Vec<Event>>>,
}

impl SpareChunks {
    const fn new(max: usize) -> SpareChunks {
        SpareChunks { max, spares: std::sync::Mutex::new(Vec::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Vec<Event>>> {
        self.spares.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Up to `n` spare buffers; the last is the one to fill first.
    fn take(&self, n: usize) -> Vec<Vec<Event>> {
        let mut spares = self.lock();
        let at = spares.len().saturating_sub(n);
        spares.split_off(at)
    }

    /// Keep `buffers`, emptied, up to the bound; the last is handed out
    /// first.
    fn put(&self, mut buffers: Vec<Vec<Event>>) {
        buffers.iter_mut().for_each(Vec::clear);
        let mut spares = self.lock();
        buffers.truncate(self.max - spares.len());
        spares.append(&mut buffers);
    }

    /// Keep the buffers of the `chunks` nothing else holds, so that the
    /// first filled is handed out first.
    fn give(&self, chunks: Vec<Chunk>) {
        self.put(
            chunks.into_iter().rev().filter_map(|chunk| Arc::try_unwrap(chunk).ok()).collect(),
        );
    }
}

/// What a session hands its flusher.
enum Handoff {
    /// A thread's first hand-off: announce it before its events.
    Thread { tid: ThreadId, name: Option<String> },
    /// A sealed chunk of the thread's events.
    Events { tid: ThreadId, chunk: Chunk },
    /// A workload parameter set after the sink was attached.
    Param { key: String, value: String },
    /// Sent by [`Session::finish`]: write the closing frames, close the
    /// sink and stop.
    End { traced_threads: u32 },
}

/// The flusher thread's state: the sink and what it has announced. It
/// holds the object registry rather than the session, so a session
/// dropped without [`Session::finish`] drops the queue's sender, and the
/// flusher exits at its next drain.
struct Flusher {
    sink: Box<dyn FrameSink>,
    objects: Arc<PlMutex<Vec<ObjInfo>>>,
    objects_sent: usize,
}

impl Flusher {
    fn write(&mut self, frame: &Frame) -> critlock_trace::Result<()> {
        self.sink.write_raw(RawFrame::encode(frame)?)
    }

    fn write_events(&mut self, tid: ThreadId, events: &[Event]) -> critlock_trace::Result<()> {
        self.sink.write_raw(RawFrame::encode_events(tid, events)?)
    }

    /// Write any objects registered since the last sync as a dense
    /// `Objects` frame.
    fn sync_objects(&mut self) -> critlock_trace::Result<()> {
        let objects = self.objects.lock();
        if objects.len() == self.objects_sent {
            return Ok(());
        }
        let frame =
            RawFrame::encode_objects(self.objects_sent as u32, &objects[self.objects_sent..]);
        self.objects_sent = objects.len();
        drop(objects);
        self.sink.write_raw(frame?)
    }

    /// Write one wakeup's hand-offs, objects first, and flush them; an
    /// `End` closes the sink instead.
    fn write_batch(&mut self, batch: &mut Vec<Handoff>) -> critlock_trace::Result<()> {
        // Every object an event in `batch` names was registered before
        // the event was handed off, so one sync covers the whole batch.
        self.sync_objects()?;
        for handoff in batch.drain(..) {
            match handoff {
                Handoff::Thread { tid, name } => self.write(&Frame::Thread { tid, name })?,
                Handoff::Events { tid, chunk } => self.write_events(tid, &chunk)?,
                Handoff::Param { key, value } => self.write(&Frame::Param { key, value })?,
                Handoff::End { traced_threads } => {
                    let value = traced_threads.to_string();
                    self.write(&Frame::Param { key: "traced_threads".into(), value })?;
                    self.write(&Frame::End)?;
                    return self.sink.close();
                }
            }
        }
        self.sink.flush()
    }

    /// The flusher thread: drain the queue every [`FLUSH_PERIOD`] until
    /// the session ends it. After the first sink error the flusher writes
    /// nothing more, but keeps draining (and so releasing) hand-offs; the
    /// error is its result, for [`Session::finish_checked`].
    fn run(mut self, queue: mpsc::Receiver<Handoff>) -> critlock_trace::Result<()> {
        let mut batch = Vec::new();
        let mut failed = None;
        loop {
            let open = loop {
                match queue.try_recv() {
                    Ok(handoff) => batch.push(handoff),
                    Err(TryRecvError::Empty) => break true,
                    // The session was dropped without finishing.
                    Err(TryRecvError::Disconnected) => break false,
                }
            };
            let ended = batch.iter().any(|handoff| matches!(handoff, Handoff::End { .. }));
            if failed.is_none() && !batch.is_empty() {
                failed = self.write_batch(&mut batch).err();
            }
            batch.clear();
            if ended || !open {
                return failed.map_or(Ok(()), Err);
            }
            std::thread::park_timeout(FLUSH_PERIOD);
        }
    }
}

/// A streaming session's link to its flusher.
struct Streaming {
    queue: mpsc::Sender<Handoff>,
    flusher: PlMutex<Option<JoinHandle<critlock_trace::Result<()>>>>,
}

impl Streaming {
    fn send(&self, handoff: Handoff) {
        // Fails only once the flusher has exited; the hand-off is then
        // moot.
        let _ = self.queue.send(handoff);
    }

    /// End the stream: hand over the closing frames and wake the
    /// flusher. Its handle yields, once it has written everything and
    /// closed the sink, the first sink error if there was one.
    fn end(&self, traced_threads: u32) -> Option<JoinHandle<critlock_trace::Result<()>>> {
        let flusher = self.flusher.lock().take()?;
        self.send(Handoff::End { traced_threads });
        flusher.thread().unpark();
        Some(flusher)
    }
}

pub(crate) struct SessionInner {
    pub(crate) app: String,
    pub(crate) start: Instant,
    next_tid: AtomicU32,
    objects: Arc<PlMutex<Vec<ObjInfo>>>,
    /// Finished threads' buffers.
    flushed: PlMutex<Vec<FlushedBuffer>>,
    params: PlMutex<Vec<(String, String)>>,
    /// The live stream's flusher, once [`Session::stream_to`] or a sibling
    /// attached a sink.
    streaming: OnceLock<Streaming>,
    /// Held through a whole [`Session::attach_sink`], so attaches run one
    /// at a time and a second one is rejected before it connects.
    attaching: PlMutex<()>,
    /// How often a recording thread looked for the flusher.
    #[cfg(test)]
    streaming_lookups: AtomicU64,
}

/// A finished thread's buffer: (id, name, events, chunks). The thread
/// copies its chunks into one `Vec` as it exits, so `finish` need not;
/// the chunks are kept for [`SPARE_CHUNKS`] until the flusher is done.
type FlushedBuffer = (ThreadId, Option<String>, Vec<Event>, Vec<Chunk>);

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

    /// The flusher, if the session streams.
    fn streaming(&self) -> Option<&Streaming> {
        #[cfg(test)]
        self.streaming_lookups.fetch_add(1, Ordering::Relaxed);
        self.streaming.get()
    }
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

struct ThreadCtx {
    session: Arc<SessionInner>,
    tid: ThreadId,
    name: Option<String>,
    buf: ThreadBuf,
}

/// A thread's events, in chunks.
struct ThreadBuf {
    /// Full chunks, oldest first.
    sealed: Vec<Chunk>,
    /// The chunk being filled.
    open: Vec<Event>,
    /// Prefix of `sealed` handed to the flusher.
    handed: usize,
    /// Empty buffers taken from [`SPARE_CHUNKS`]; the last is next.
    spares: Vec<Vec<Event>>,
    /// Where the thread copies its chunks as it exits (see
    /// [`Session::alloc_child`]).
    events: Vec<Event>,
}

impl ThreadBuf {
    fn new(events: Vec<Event>) -> ThreadBuf {
        let mut buf = ThreadBuf {
            sealed: Vec::new(),
            open: Vec::new(),
            handed: 0,
            spares: Vec::new(),
            events,
        };
        buf.open = buf.empty_chunk();
        buf
    }

    /// An empty chunk: a spare one if the thread holds or can take one,
    /// else a new allocation.
    fn empty_chunk(&mut self) -> Vec<Event> {
        if self.spares.is_empty() {
            self.spares = SPARE_CHUNKS.take(SPARE_BATCH);
        }
        self.spares.pop().unwrap_or_else(|| Vec::with_capacity(STREAM_FLUSH_EVENTS))
    }

    /// Seal the open chunk, if it holds events. A thread that goes on
    /// recording (`more`) opens an empty one; one that exits returns its
    /// spares.
    fn seal(&mut self, more: bool) {
        let next = if more { self.empty_chunk() } else { Vec::new() };
        let full = std::mem::replace(&mut self.open, next);
        if !full.is_empty() {
            self.sealed.push(Arc::new(full));
        }
        if !more && !self.spares.is_empty() {
            SPARE_CHUNKS.put(std::mem::take(&mut self.spares));
        }
    }

    /// The thread's events as one `Vec`, grown from `events`.
    fn concat(&mut self) -> Vec<Event> {
        let mut events = std::mem::take(&mut self.events);
        events.reserve_exact(self.sealed.iter().map(|c| c.len()).sum());
        for chunk in &self.sealed {
            events.extend_from_slice(chunk);
        }
        events
    }

    /// Hand the sealed chunks the flusher has not seen to it, announcing
    /// the thread first.
    fn hand_off(&mut self, tid: ThreadId, name: &Option<String>, streaming: &Streaming) {
        if self.handed == self.sealed.len() {
            return;
        }
        if self.handed == 0 {
            streaming.send(Handoff::Thread { tid, name: name.clone() });
        }
        for chunk in &self.sealed[self.handed..] {
            streaming.send(Handoff::Events { tid, chunk: Arc::clone(chunk) });
        }
        self.handed = self.sealed.len();
    }
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
/// after unlocking. The event is pushed, and any chunk it fills handed
/// off, only after the unlock, outside the critical section.
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
    ctx.buf.open.push(Event::new(ts, kind));
    if ctx.buf.open.len() == STREAM_FLUSH_EVENTS {
        ctx.buf.seal(true);
        if let Some(streaming) = ctx.session.streaming() {
            ctx.buf.hand_off(ctx.tid, &ctx.name, streaming);
        }
    }
}

fn install_ctx(
    session: Arc<SessionInner>,
    tid: ThreadId,
    name: Option<String>,
    events: Vec<Event>,
) {
    CTX.with(|c| {
        let mut slot = c.borrow_mut();
        assert!(slot.is_none(), "thread already registered with a session");
        *slot = Some(ThreadCtx { session, tid, name, buf: ThreadBuf::new(events) });
    });
}

fn uninstall_ctx() {
    CTX.with(|c| {
        if let Some(ThreadCtx { session, tid, name, mut buf }) = c.borrow_mut().take() {
            buf.seal(false);
            // An installed flusher stays, so it can have the last chunk
            // before the copy below.
            let streaming = session.streaming();
            if let Some(streaming) = streaming {
                buf.hand_off(tid, &name, streaming);
            }
            let events = buf.concat();
            // Under the buffers lock, which an attach holds until its
            // flusher is installed: the attach either replays this buffer
            // or the flusher receives it here.
            let mut flushed = session.flushed.lock();
            // An attach may have installed a flusher since the look above.
            if let (None, Some(streaming)) = (streaming, session.streaming.get()) {
                buf.hand_off(tid, &name, streaming);
            }
            flushed.push((tid, name, events, buf.sealed));
        }
    });
}

/// Why [`Session::finish_checked`] failed.
#[derive(Debug)]
pub enum FinishError {
    /// The recorded trace is malformed.
    Trace(TraceError),
    /// The trace is whole, but its live stream was lost: `error` is the
    /// first error the sink hit; nothing was written after it.
    StreamLost {
        /// The trace, exactly as [`Session::finish`] returns it.
        trace: Box<Trace>,
        /// The sink's first error.
        error: TraceError,
    },
}

impl std::fmt::Display for FinishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FinishError::Trace(e) => write!(f, "malformed trace: {e}"),
            FinishError::StreamLost { error, .. } => write!(f, "live stream lost: {error}"),
        }
    }
}

impl std::error::Error for FinishError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FinishError::Trace(e) | FinishError::StreamLost { error: e, .. } => Some(e),
        }
    }
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
            objects: Arc::default(),
            flushed: PlMutex::new(Vec::new()),
            params: PlMutex::new(Vec::new()),
            streaming: OnceLock::new(),
            attaching: PlMutex::new(()),
            #[cfg(test)]
            streaming_lookups: AtomicU64::new(0),
        });
        let tid = inner.alloc_tid();
        debug_assert_eq!(tid, ThreadId::MAIN);
        install_ctx(Arc::clone(&inner), tid, Some("main".into()), Vec::new());
        record(EventKind::ThreadStart);
        Session { inner }
    }

    /// Attach a workload parameter to the trace metadata.
    pub fn param(&self, key: impl Into<String>, value: impl ToString) {
        let (key, value) = (key.into(), value.to_string());
        // Under the params lock, which an attach holds until its flusher
        // is installed: the attach either replays this param or the
        // flusher receives it here.
        let mut params = self.inner.params.lock();
        if let Some(streaming) = self.inner.streaming.get() {
            streaming.send(Handoff::Param { key: key.clone(), value: value.clone() });
        }
        params.push((key, value));
    }

    /// Stream this session live to a collector at `addr` (`unix:/path` or
    /// `host:port`, as accepted by `critlock serve`).
    ///
    /// The session's start, its params, its objects and the threads that
    /// already finished are sent before this returns. From then on the
    /// session's flusher thread sends each thread's events: a chunk of
    /// `STREAM_FLUSH_EVENTS` (128) events as it fills, and the rest when the
    /// thread exits. Recording threads only hand their chunks over; they
    /// never wait on the collector. [`Session::finish`] joins the flusher
    /// and sends the final `End` frame. Streaming is best-effort: if the
    /// collector goes away, the flusher stops writing and the session
    /// keeps recording locally; [`Session::finish_checked`] reports the
    /// loss.
    pub fn stream_to(&self, addr: &str) -> std::io::Result<()> {
        let addr = Addr::parse(addr)?;
        Ok(self.attach_sink(|| plain_sink(Stream::connect(&addr)?))?)
    }

    /// Stream this session live into an arbitrary byte sink (the
    /// transport-agnostic core of [`Session::stream_to`]). Only the
    /// flusher thread writes to `sink` once this returns.
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
    /// The producer lives on the session's flusher thread (see
    /// [`Session::stream_to`]), so its reconnect backoff delays the
    /// stream, never a recording thread.
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
    /// params, objects, finished threads) and start the flusher that owns
    /// it from then on. A session that is already streaming is rejected
    /// before `open` connects or writes anything. Recording threads never
    /// wait on `open`: until the flusher is installed they keep their
    /// chunks, and hand the backlog over at their next hand-off.
    fn attach_sink(
        &self,
        open: impl FnOnce() -> critlock_trace::Result<Box<dyn FrameSink>>,
    ) -> critlock_trace::Result<()> {
        let _attaching = self.inner.attaching.lock();
        if self.inner.streaming.get().is_some() {
            return Err(TraceError::Decode("session is already streaming to a sink".into()));
        }
        let objects = Arc::clone(&self.inner.objects);
        let mut flusher = Flusher { sink: open()?, objects, objects_sent: 0 };
        let mut meta = TraceMeta::named(self.inner.app.clone());
        meta.clock = ClockDomain::RealNs;
        flusher.write(&Frame::Start { meta })?;
        // Params and finished threads are replayed under their locks,
        // held until the flusher is installed, so none can fall between
        // the replay and the flusher.
        let params = self.inner.params.lock();
        for (key, value) in params.iter() {
            flusher.write(&Frame::Param { key: key.clone(), value: value.clone() })?;
        }
        let flushed = self.inner.flushed.lock();
        flusher.sync_objects()?;
        for (tid, name, _, chunks) in flushed.iter() {
            flusher.write(&Frame::Thread { tid: *tid, name: name.clone() })?;
            for chunk in chunks {
                flusher.write_events(*tid, chunk)?;
            }
        }
        flusher.sink.flush()?;
        let (queue, inbox) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("critlock-flusher".into())
            .spawn(move || flusher.run(inbox))?;
        let streaming = Streaming { queue, flusher: PlMutex::new(Some(thread)) };
        assert!(self.inner.streaming.set(streaming).is_ok(), "attaches are serialized");
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
        install_ctx(Arc::clone(&self.inner), tid, Some(name.into()), Vec::new());
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
    /// [`crate::spawn`]), and the `Vec` the child copies its chunks into
    /// as it exits. The spawning thread allocates that `Vec`, and the
    /// child only grows it: glibc grows a block in the arena it came
    /// from (or maps it), so a run of short-lived children does not leave
    /// a trace's worth of freed memory behind in every arena they touched.
    pub(crate) fn alloc_child(&self) -> (ThreadId, Vec<Event>) {
        (self.inner.alloc_tid(), Vec::with_capacity(1))
    }

    /// Install the context for a freshly spawned child thread.
    pub(crate) fn enter_child(&self, tid: ThreadId, name: String, events: Vec<Event>) {
        install_ctx(Arc::clone(&self.inner), tid, Some(name), events);
        record(EventKind::ThreadStart);
    }

    /// Flush a finished child thread.
    pub(crate) fn exit_child(&self) {
        record(EventKind::ThreadExit);
        uninstall_ctx();
    }

    /// Finish the session on the main thread: records the main thread's
    /// exit, closes the live stream if there is one, gathers all flushed
    /// buffers and returns the trace.
    ///
    /// All threads spawned through [`crate::spawn`] must have been joined
    /// first; otherwise their events are missing and validation may fail.
    /// A lost live stream does not fail `finish`; use
    /// [`Session::finish_checked`] to learn of one.
    pub fn finish(self) -> critlock_trace::Result<Trace> {
        match self.finish_checked() {
            Ok(trace) => Ok(trace),
            Err(FinishError::StreamLost { trace, .. }) => Ok(*trace),
            Err(FinishError::Trace(e)) => Err(e),
        }
    }

    /// [`Session::finish`], reporting a lost live stream as
    /// [`FinishError::StreamLost`], which still carries the whole trace.
    ///
    /// The flusher has sent every event of the trace, then
    /// `traced_threads` and `End`, and closed the sink (for a resumable
    /// sink: the collector acknowledged everything) before this returns,
    /// so on `Ok` the collector holds exactly the returned trace.
    pub fn finish_checked(self) -> Result<Trace, FinishError> {
        record(EventKind::ThreadExit);
        uninstall_ctx();
        let traced = self.inner.next_tid.load(Ordering::Relaxed);
        // The flusher writes its backlog and closes the stream while this
        // thread gathers and validates the trace.
        let flusher = self.inner.streaming.get().and_then(|s| s.end(traced));

        let mut meta = TraceMeta::named(self.inner.app.clone());
        meta.clock = ClockDomain::RealNs;
        for (k, v) in self.inner.params.lock().iter() {
            meta.params.insert(k.clone(), v.clone());
        }
        meta.params.insert("traced_threads".into(), traced.to_string());

        let mut trace = Trace::new(meta);
        trace.objects = self.inner.objects.lock().clone();

        let mut buffers = std::mem::take(&mut *self.inner.flushed.lock());
        buffers.sort_by_key(|(tid, _, _, _)| *tid);
        let mut spent = Vec::new();
        let mut iter = buffers.into_iter().peekable();
        for i in 0..traced {
            let tid = ThreadId(i);
            let mut stream = ThreadStream::new(tid);
            if iter.peek().map(|(t, _, _, _)| *t) == Some(tid) {
                let (_, name, events, chunks) = iter.next().unwrap();
                stream.name = name;
                stream.events = events;
                spent.extend(chunks);
            }
            trace.push_thread(stream);
        }
        let valid = trace.validate();
        let streamed = flusher.map_or(Ok(()), |flusher| {
            flusher.join().unwrap_or_else(|_| {
                Err(std::io::Error::other("the session's stream flusher panicked").into())
            })
        });
        // The joined flusher holds no chunk, so all of them can be reused.
        SPARE_CHUNKS.give(spent);
        valid.map_err(FinishError::Trace)?;
        match streamed {
            Ok(()) => Ok(trace),
            Err(error) => Err(FinishError::StreamLost { trace: Box::new(trace), error }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};

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
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn decode(&self) -> Trace {
            let bytes = self.0.lock().unwrap().clone();
            critlock_trace::stream::read_trace(&mut std::io::Cursor::new(bytes)).unwrap()
        }
    }

    /// `lock()`/release pairs on `m`, on the calling thread.
    fn pairs(m: &crate::Mutex<u32>, n: usize) {
        for _ in 0..n {
            *m.lock() += 1;
        }
    }

    #[test]
    fn streamed_session_equals_finished_trace() {
        let s = Session::new("streamed");
        s.param("phase", "warmup");
        // A thread that finishes, several chunks long, before the attach:
        // the attach replays it.
        let early = Arc::new(s.mutex("early", 0u32));
        let (s2, m) = (s.clone(), Arc::clone(&early));
        std::thread::spawn(move || {
            s2.register_current_thread("early");
            pairs(&m, 2 * STREAM_FLUSH_EVENTS);
            s2.unregister_current_thread();
        })
        .join()
        .unwrap();
        let buf = SharedBuf::default();
        s.stream_to_writer(buf.clone()).unwrap();
        s.param("phase2", "steady");

        let m = Arc::new(s.mutex("guard", 0u32));
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            let tid = s2.register_current_thread("worker");
            assert_eq!(tid, ThreadId(2));
            pairs(&m, STREAM_FLUSH_EVENTS);
            s2.unregister_current_thread();
        });
        h.join().unwrap();

        let trace = s.finish_checked().unwrap();
        let streamed = buf.decode();
        assert_eq!(streamed, trace);
        streamed.validate().unwrap();
    }

    #[test]
    fn a_session_without_a_sink_looks_for_the_flusher_once_per_chunk() {
        let s = Session::new("unstreamed");
        let m = s.mutex("guard", 0u32);
        pairs(&m, 10 * STREAM_FLUSH_EVENTS);
        let inner = Arc::clone(s.inner());
        let trace = s.finish().unwrap();
        // One look per filled chunk and one at exit; a session that
        // looked on every event past its first chunk made ~3,700.
        let chunks = trace.num_events() / STREAM_FLUSH_EVENTS;
        assert_eq!(inner.streaming_lookups.load(Ordering::Relaxed), chunks as u64 + 1);
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
    fn plain_sink_reaches_the_writer_in_few_writes_per_flush() {
        let s = Session::new("buffered");
        let sink = CountingBuf::default();
        s.stream_to_writer(sink.clone()).unwrap();
        let m = s.mutex("guard", 0u32);
        pairs(&m, 4 * STREAM_FLUSH_EVENTS);
        let trace = s.finish().unwrap();
        let (writes, flushes) =
            (sink.writes.load(Ordering::Relaxed), sink.flushes.load(Ordering::Relaxed));
        let bytes = sink.bytes.0.lock().unwrap().len() as u64;
        // Unbuffered, each frame cost a write for every varint byte of its
        // length prefix, one for the payload and one for the CRC. Buffered,
        // a flush costs one write, plus one per buffer's worth of bytes.
        assert!(flushes >= 2, "the attach and the close flush: {flushes}");
        assert!(writes <= flushes + bytes / 4096, "{writes} writes for {flushes} flushes");
        assert_eq!(sink.bytes.decode(), trace);
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

    /// A writer that accepts `budget` bytes and fails every write after.
    struct FailsAfter {
        budget: usize,
    }

    impl Write for FailsAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("collector went away"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_lost_stream_is_reported_with_the_whole_trace() {
        let s = Session::new("lost");
        // Enough for the header and the Start frame, not for the run.
        s.stream_to_writer(FailsAfter { budget: 512 }).unwrap();
        // One lock per thread, so no acquire is contended.
        let (m, m2) = (s.mutex("main", 0u32), s.mutex("worker", 0u32));
        let worker = crate::spawn(&s, "w", move || pairs(&m2, 4 * STREAM_FLUSH_EVENTS));
        pairs(&m, 4 * STREAM_FLUSH_EVENTS);
        worker.join().unwrap();
        let Err(FinishError::StreamLost { trace, error }) = s.finish_checked() else {
            panic!("a failed sink must be reported");
        };
        assert!(error.to_string().contains("collector went away"), "{error}");
        trace.validate().unwrap();
        assert_eq!(trace.num_threads(), 2);
        // Start and exit per thread, a create, a join pair, and three
        // events per lock pair.
        assert_eq!(trace.num_events(), 2 * 2 + 3 + 2 * 3 * 4 * STREAM_FLUSH_EVENTS);
    }

    /// A writer that blocks every write while its gate is shut.
    #[derive(Clone, Default)]
    struct GatedBuf {
        bytes: SharedBuf,
        shut: Arc<(Mutex<bool>, Condvar)>,
    }

    impl GatedBuf {
        fn set_shut(&self, shut: bool) {
            *self.shut.0.lock().unwrap() = shut;
            self.shut.1.notify_all();
        }
    }

    impl Write for GatedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let (lock, opened) = &*self.shut;
            drop(opened.wait_while(lock.lock().unwrap(), |shut| *shut).unwrap());
            self.bytes.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_stalled_sink_does_not_block_recording_threads() {
        let s = Session::new("stalled");
        let sink = GatedBuf::default();
        s.stream_to_writer(sink.clone()).unwrap();
        sink.set_shut(true);
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let m = s.mutex(format!("lock-{i}"), 0u32);
                crate::spawn(&s, format!("w{i}"), move || pairs(&m, 8 * STREAM_FLUSH_EVENTS))
            })
            .collect();
        // Opens the gate after the joins, or after a timeout if they hang.
        let (joined, wait_for_joins) = std::sync::mpsc::channel::<()>();
        let watchdog = {
            let sink = sink.clone();
            std::thread::spawn(move || {
                let timed_out = wait_for_joins.recv_timeout(Duration::from_secs(20)).is_err();
                sink.set_shut(false);
                timed_out
            })
        };
        for w in workers {
            w.join().unwrap();
        }
        let _ = joined.send(());
        assert!(!watchdog.join().unwrap(), "recording threads waited on a stalled sink");
        let trace = s.finish_checked().unwrap();
        assert_eq!(sink.bytes.decode(), trace);
    }

    #[test]
    fn spare_chunks_come_back_empty_in_fill_order_up_to_the_bound() {
        let spares = SpareChunks::new(3);
        let event = Event::new(0, EventKind::ThreadStart);
        let chunks: Vec<Chunk> =
            (0..5).map(|_| Arc::new(vec![event; STREAM_FLUSH_EVENTS])).collect();
        let at: Vec<*const Event> = chunks.iter().map(|c| c.as_ptr()).collect();
        let held = Arc::clone(&chunks[3]);
        spares.give(chunks);
        // Chunk 3 is still held; of the rest, the bound keeps three, and
        // each batch hands out the first filled first.
        let batch = spares.take(2);
        let order: Vec<_> = batch.iter().rev().map(|b| b.as_ptr()).collect();
        assert_eq!(order, [at[1], at[2]]);
        let last = spares.take(2);
        assert_eq!(last.len(), 1);
        assert!(last[0].is_empty() && last[0].capacity() == STREAM_FLUSH_EVENTS);
        assert_eq!(last[0].as_ptr(), at[4]);
        assert!(spares.take(2).is_empty());
        assert_eq!(held.len(), STREAM_FLUSH_EVENTS, "a held chunk is left alone");
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
