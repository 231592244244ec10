//! Client-side helpers: push a recorded trace to a collector and query
//! the status endpoint. Used by `critlock push` / `critlock status` and
//! by the integration tests.
//!
//! [`push_with`] feeds the trace's frames to the resumable
//! [`Producer`]: it announces a resume token in the handshake, replays
//! only what the collector has not acknowledged, and on any transport
//! error reconnects with capped exponential backoff. [`push`] is the
//! fire-and-forget variant (anonymous session, single attempt), kept for
//! producers that do not need resume.

use crate::faults::{FaultState, FaultStream};
use crate::health::HealthReport;
use crate::net::Addr;
use crate::snapshot::CollectorStatus;
use critlock_trace::producer::Producer;
use critlock_trace::rollup::Rollup;
use critlock_trace::stream::{trace_frames, Frame};
use critlock_trace::{FaultPlan, RetryPolicy, Trace};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How a [`push_with`] call connects, paces, retries and (for testing)
/// misbehaves. The default is everything off except resume: five
/// attempts with the default backoff window ([`RetryPolicy::default`]).
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

/// Stream a trace to a collector with reconnect-and-resume. Returns the
/// number of frames the collector acknowledged (the full frame count on
/// success).
///
/// The push is resumable when `opts.retry` allows more than one attempt
/// or `opts.token` is set; the [`Producer`] then retries every transport
/// failure — a connection cut mid-frame, a frame the collector rejected
/// (its CRC failed), a final ack that never arrived — under `opts.retry`,
/// and ack progress refunds the attempt budget. The first connect fails
/// fast.
pub fn push_with(addr: &Addr, trace: &Trace, opts: &PushOptions) -> io::Result<u64> {
    let resumable = opts.retry.max_attempts > 1 || opts.token.is_some();
    let token: Vec<u8> = if resumable {
        opts.token.clone().unwrap_or_else(|| auto_token(trace))
    } else {
        Vec::new()
    };
    let faults = opts.fault_plan.as_ref().map(FaultState::new);
    let mut producer = Producer::connect(addr, token, opts.retry, opts.timeout, faults)?;
    for frame in trace_frames(trace) {
        producer.write_frame(&frame)?;
        if let (Frame::Events { .. }, Some(pace)) = (&frame, opts.pace) {
            producer.flush()?;
            std::thread::sleep(pace);
        }
    }
    Ok(producer.close()?)
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
    let mut conn = FaultStream::connect(addr, timeout, faults.as_ref())?;
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
    Ok(Rollup::from_bytes(&request(addr, "rollup\n", None, timeout, &None)?)?)
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
