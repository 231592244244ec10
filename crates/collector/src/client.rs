//! Client-side helpers: push a recorded trace to a collector and query
//! the status endpoint. Used by `critlock push` / `critlock status` and
//! by the integration tests.
//!
//! [`push_with`] is the fault-tolerant path: it announces a resume token
//! in the handshake, reads back the sequence number the collector has
//! durably received, sends only the remaining frames, and on any
//! transport error reconnects with capped exponential backoff and
//! replays from wherever the collector says it left off. [`push`] is the
//! fire-and-forget variant (anonymous session, single attempt), kept for
//! producers that do not need resume.

use crate::faults::{FaultState, FaultStream};
use crate::health::HealthReport;
use crate::net::{Addr, Stream};
use crate::snapshot::CollectorStatus;
use critlock_trace::rollup::Rollup;
use critlock_trace::stream::{read_ack, trace_frames, Frame, Handshake, StreamWriter};
use critlock_trace::{FaultPlan, RetryPolicy, Trace};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Either transport works as a push connection: the plain socket, or the
/// socket behind the fault-injection wrapper.
enum PushConn {
    Plain(Stream),
    Faulty(FaultStream),
}

impl Read for PushConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            PushConn::Plain(s) => s.read(buf),
            PushConn::Faulty(s) => s.read(buf),
        }
    }
}

impl Write for PushConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            PushConn::Plain(s) => s.write(buf),
            PushConn::Faulty(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            PushConn::Plain(s) => s.flush(),
            PushConn::Faulty(s) => s.flush(),
        }
    }
}

impl PushConn {
    /// Wrap a connected socket, behind the fault injector when `faults`
    /// is set.
    fn new(stream: Stream, faults: &Option<Arc<Mutex<FaultState>>>) -> Self {
        match faults {
            Some(state) => PushConn::Faulty(FaultStream::new(stream, Arc::clone(state))),
            None => PushConn::Plain(stream),
        }
    }

    fn shutdown_write(&self) -> io::Result<()> {
        match self {
            PushConn::Plain(s) => s.shutdown_write(),
            PushConn::Faulty(s) => s.shutdown_write(),
        }
    }
}

/// How a [`push_with`] call connects, paces, retries and (for testing)
/// misbehaves. The default is everything off except resume: five
/// reconnect attempts with the default backoff window
/// ([`RetryPolicy::default`]).
#[derive(Default)]
pub struct PushOptions {
    /// Sleep this long after each `Events` frame, emulating a live
    /// producer.
    pub pace: Option<Duration>,
    /// Bound for connection establishment and socket reads/writes.
    /// `None` blocks indefinitely.
    pub timeout: Option<Duration>,
    /// Reconnect policy. [`RetryPolicy::none`] gives single-attempt
    /// behavior.
    pub retry: RetryPolicy,
    /// Deterministic transport faults to inject (testing/debugging).
    pub fault_plan: Option<FaultPlan>,
    /// Resume token for the collector session. `None` auto-generates a
    /// process-unique token when retries are enabled, and pushes
    /// anonymously otherwise.
    pub token: Option<Vec<u8>>,
}

/// Process-wide counter distinguishing concurrent pushes from one
/// process in auto-generated tokens.
static PUSH_COUNTER: AtomicU64 = AtomicU64::new(0);

fn auto_token(trace: &Trace) -> Vec<u8> {
    let n = PUSH_COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("push:{}:{}:{}", trace.meta.app, std::process::id(), n).into_bytes()
}

/// Stream a recorded trace to a collector, frame by frame. With `pace`,
/// sleep that long between `Events` frames to emulate a live producer.
/// Returns the number of frames sent.
///
/// Anonymous and single-attempt; use [`push_with`] for resumable pushes.
pub fn push(addr: &Addr, trace: &Trace, pace: Option<Duration>) -> io::Result<u64> {
    push_with(
        addr,
        trace,
        &PushOptions { pace, retry: RetryPolicy::none(), ..PushOptions::default() },
    )
}

/// Connect to `addr`, bounding the connect and every later socket read
/// and write by `timeout` (`None` blocks indefinitely).
fn connect(addr: &Addr, timeout: Option<Duration>) -> io::Result<Stream> {
    let stream = match timeout {
        Some(timeout) => Stream::connect_timeout(addr, timeout)?,
        None => Stream::connect(addr)?,
    };
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    Ok(stream)
}

/// One connection's worth of a resumable push: handshake announcing
/// `*acked` as the start sequence, send `frames[*acked..]`, half-close,
/// read the final ack. Returns the collector's final acked sequence
/// number (also folded into `*acked`).
///
/// The replay start MUST equal the handshake's `start_seq`, because the
/// collector numbers this connection's frames from it — frames the
/// collector already holds are skipped server-side by sequence number.
/// The initial ack is read for progress accounting only.
fn push_attempt(
    addr: &Addr,
    frames: &[Frame],
    token: &[u8],
    acked: &mut u64,
    opts: &PushOptions,
    faults: &Option<Arc<Mutex<FaultState>>>,
) -> io::Result<u64> {
    let conn = PushConn::new(connect(addr, opts.timeout)?, faults);
    let resumable = !token.is_empty();
    let mut conn = BufReader::new(conn);

    let start = (*acked).min(frames.len() as u64) as usize;
    let handshake = Handshake { token: token.to_vec(), start_seq: start as u64 };
    let mut writer =
        StreamWriter::with_handshake(BufWriter::new(conn.get_mut()), &handshake).map_err(to_io)?;
    writer.flush().map_err(to_io)?;
    drop(writer);

    if resumable {
        let server_ack = read_ack(&mut conn).map_err(to_io)?;
        *acked = (*acked).max(server_ack.min(frames.len() as u64));
    }

    let mut writer = StreamWriter::append(BufWriter::new(conn.get_mut()));
    for frame in &frames[start..] {
        let is_events = matches!(frame, Frame::Events { .. });
        writer.write_frame(frame).map_err(to_io)?;
        if is_events {
            if let Some(pace) = opts.pace {
                writer.flush().map_err(to_io)?;
                std::thread::sleep(pace);
            }
        }
    }
    writer.flush().map_err(to_io)?;
    drop(writer);

    // Half-close, then wait for the collector to finish reading. A
    // resumable session gets a final ack telling us how far it really
    // got; an anonymous push just waits for the collector to drop the
    // connection, at which point every frame was at least read.
    conn.get_ref().shutdown_write()?;
    if resumable {
        read_ack(&mut conn).map_err(to_io)
    } else {
        let mut sink = Vec::new();
        let _ = conn.read_to_end(&mut sink);
        Ok(frames.len() as u64)
    }
}

/// Stream a trace to a collector with reconnect-and-resume. Returns the
/// number of frames the collector acknowledged (the full frame count on
/// success).
///
/// Every transport failure — connect refused, connection cut mid-frame,
/// a frame the collector rejected (its CRC failed), a final ack that
/// never arrived — costs one attempt; between attempts the client backs
/// off per `opts.retry`. Attempts that make progress (the collector's
/// acked sequence advanced) reset the attempt counter, so a push through
/// a flaky wire completes as long as *something* gets through each time.
pub fn push_with(addr: &Addr, trace: &Trace, opts: &PushOptions) -> io::Result<u64> {
    let frames = trace_frames(trace);
    let total = frames.len() as u64;
    let resumable = opts.retry.max_attempts > 1 || opts.token.is_some();
    let token: Vec<u8> = if resumable {
        opts.token.clone().unwrap_or_else(|| auto_token(trace))
    } else {
        Vec::new()
    };
    let faults = opts.fault_plan.as_ref().map(FaultState::new);

    let mut acked = 0u64;
    let mut attempt = 0u32;
    let mut last_err: Option<io::Error> = None;
    while attempt < opts.retry.max_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(opts.retry.backoff(attempt - 1));
        }
        let before = acked;
        let outcome = push_attempt(addr, &frames, &token, &mut acked, opts, &faults);
        // Progress — the collector's acked sequence advanced — resets
        // the attempt budget, so a push through a flaky wire completes
        // as long as *something* gets through each time.
        if acked > before {
            attempt = 0;
        }
        match outcome {
            Ok(final_ack) if final_ack >= total => return Ok(total),
            Ok(final_ack) => {
                // The collector answered but is missing frames (e.g. a
                // corrupted frame was rejected): resume from its ack.
                acked = acked.max(final_ack.min(total));
                attempt += 1;
                last_err = Some(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    format!("collector acked {final_ack}/{total} frames"),
                ));
            }
            Err(e) => {
                attempt += 1;
                last_err = Some(e);
            }
        }
    }
    Err(last_err.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::BrokenPipe, "push failed with no attempts made")
    }))
}

fn to_io(e: critlock_trace::TraceError) -> io::Error {
    match e {
        critlock_trace::TraceError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// One control-socket exchange: connect, send the request line `head`
/// and an optional `body`, half-close, and read the reply to its end.
/// `timeout` bounds connect and socket I/O, so a hung collector yields an
/// error instead of a hang; `faults` injects transport faults on the wire.
fn request(
    addr: &Addr,
    head: &str,
    body: Option<&[u8]>,
    timeout: Option<Duration>,
    faults: &Option<Arc<Mutex<FaultState>>>,
) -> io::Result<Vec<u8>> {
    let mut conn = PushConn::new(connect(addr, timeout)?, faults);
    conn.write_all(head.as_bytes())?;
    if let Some(body) = body {
        conn.write_all(body)?;
    }
    conn.flush()?;
    conn.shutdown_write()?;
    let mut reply = Vec::new();
    conn.read_to_end(&mut reply)?;
    Ok(reply)
}

/// A [`request`] whose reply is text.
fn request_text(addr: &Addr, head: &str, timeout: Option<Duration>) -> io::Result<String> {
    String::from_utf8(request(addr, head, None, timeout, &None)?)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Fetch the collector status over the status socket. `json` selects the
/// machine-readable reply. `timeout` bounds connect and socket I/O, so a
/// hung collector yields an error instead of a hang.
pub fn fetch_status_text_timeout(
    addr: &Addr,
    json: bool,
    timeout: Option<Duration>,
) -> io::Result<String> {
    request_text(addr, if json { "status json\n" } else { "status\n" }, timeout)
}

/// Scrape the collector's Prometheus-style metrics text over the metrics
/// socket. `timeout` bounds connect and socket I/O.
pub fn fetch_metrics_text(addr: &Addr, timeout: Option<Duration>) -> io::Result<String> {
    request_text(addr, "metrics\n", timeout)
}

/// Fetch a collector's CLAG rollup over the status socket: every session
/// the collector tracks, digested, merged with anything its children
/// forwarded up. `timeout` bounds connect and socket I/O.
pub fn fetch_rollup(addr: &Addr, timeout: Option<Duration>) -> io::Result<Rollup> {
    Rollup::from_bytes(&request(addr, "rollup\n", None, timeout, &None)?).map_err(to_io)
}

/// Push a CLAG rollup into a parent collector over its status socket
/// (the `rollup-push` request a forwarding child issues). Returns the
/// parent's total retained session count after the merge. The parent's
/// merge is idempotent, so re-pushing after an error is always safe; a
/// parent at its rollup-session cap rejects the push whole (an `err`
/// reply surfaces here as `InvalidData`). `faults` is the shared
/// [`FaultState`] of the forwarder's chaos tests (`None` in production),
/// so one-shot fault actions are consumed across pushes, exactly like the
/// resumable trace-push path consumes them across reconnects.
pub fn push_rollup_with(
    addr: &Addr,
    rollup: &Rollup,
    timeout: Option<Duration>,
    faults: &Option<Arc<Mutex<FaultState>>>,
) -> io::Result<u64> {
    let bytes = rollup.to_bytes();
    let head = format!("rollup-push {}\n", bytes.len());
    let reply = request(addr, &head, Some(&bytes), timeout, faults)?;
    let reply = String::from_utf8_lossy(&reply);
    let reply = reply.trim();
    match reply.strip_prefix("ok ") {
        Some(n) => n
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad rollup-push reply")),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("rollup-push rejected: {reply}"),
        )),
    }
}

/// Fetch the collector's health classification over the status socket.
/// `json` selects the machine-readable reply; `timeout` bounds connect
/// and socket I/O so probing a hung collector fails fast.
pub fn fetch_health_text(addr: &Addr, json: bool, timeout: Option<Duration>) -> io::Result<String> {
    request_text(addr, if json { "health json\n" } else { "health\n" }, timeout)
}

/// Fetch and parse the JSON health report.
pub fn fetch_health(addr: &Addr, timeout: Option<Duration>) -> io::Result<HealthReport> {
    let text = fetch_health_text(addr, true, timeout)?;
    HealthReport::parse_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Fetch and parse the JSON status, bounding connect and socket I/O.
pub fn fetch_status_timeout(addr: &Addr, timeout: Option<Duration>) -> io::Result<CollectorStatus> {
    let text = fetch_status_text_timeout(addr, true, timeout)?;
    CollectorStatus::parse_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}
