//! The one producer side of the CLSM wire: it moves a session's frames
//! to a collector intact, across whatever reconnects that takes.
//!
//! Both producers — `critlock_collector::push_with` replaying a recorded
//! trace, and `Session::stream_to_resumable` in `critlock-instrument`
//! streaming a live one — write through a [`Producer`]:
//!
//! 1. **Connect, fail-fast.** The first socket connect is not retried,
//!    so a wrong address surfaces at once. Every later failure,
//!    including one in the first handshake, goes through recovery (4).
//! 2. **Handshake.** Each connection opens with a CLSM header whose
//!    `start_seq` is the highest sequence number the collector has
//!    acknowledged. A resumable producer (non-empty token) then reads
//!    the collector's [ack](crate::stream::read_ack) and replays its
//!    buffered frames from `start_seq` on; the collector numbers the
//!    connection's frames from `start_seq` and skips the ones it already
//!    holds, so the ack read here only feeds progress accounting.
//! 3. **Frames.** Frames are encoded once into [`RawFrame`]s and written
//!    through a `BufWriter`. A resumable producer keeps every encoded
//!    frame in its replay buffer — the price of surviving a collector
//!    crash; an anonymous one keeps none and cannot reconnect.
//! 4. **Recovery.** A transport error, or a final ack short of
//!    everything sent, costs one attempt. The producer gives up once
//!    `max_attempts` attempts (counting the first connection) have failed
//!    since the collector's ack last advanced; between attempts it backs
//!    off per [`RetryPolicy`]. So a stream through a flaky wire completes
//!    as long as something gets through each time, and a collector gone
//!    for good costs one budget after its last ack.
//! 5. **Close.** The producer half-closes and waits for the final ack to
//!    cover every frame, reconnecting and replaying if it does not. An
//!    anonymous producer has no acks and reads to end-of-stream instead:
//!    once the collector hangs up, every frame was at least read.

use crate::error::{Result, TraceError};
use crate::faults::{FaultState, FaultStream};
use crate::net::Addr;
use crate::retry::RetryPolicy;
use crate::stream::{read_ack, Frame, Handshake, RawFrame, StreamWriter};
use std::io::{self, BufWriter, Read};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A producer's connection to one collector session (see the module
/// docs for the protocol).
pub struct Producer {
    addr: Addr,
    /// Resume token; empty for an anonymous, single-connection stream.
    token: Vec<u8>,
    retry: RetryPolicy,
    timeout: Option<Duration>,
    faults: Option<Arc<Mutex<FaultState>>>,
    /// Every frame written so far, encoded; `replay[acked..]` is resent
    /// after a reconnect. Empty for an anonymous producer.
    replay: Vec<RawFrame>,
    /// Frames written so far.
    sent: u64,
    /// Highest sequence number the collector has acknowledged.
    acked: u64,
    /// Failed attempts since the ack last advanced.
    attempt: u32,
    conn: Option<StreamWriter<BufWriter<FaultStream>>>,
}

impl Producer {
    /// Connect to `addr` and send the handshake. An empty `token` makes
    /// an anonymous producer. `timeout` bounds connects and every socket
    /// read and write (`None` blocks); `faults` injects a fault plan's
    /// transport faults, its progress kept across reconnects.
    pub fn connect(
        addr: &Addr,
        token: Vec<u8>,
        retry: RetryPolicy,
        timeout: Option<Duration>,
        faults: Option<Arc<Mutex<FaultState>>>,
    ) -> Result<Producer> {
        let stream = FaultStream::connect(addr, timeout, faults.as_ref())?;
        let mut producer = Producer {
            addr: addr.clone(),
            token,
            retry,
            timeout,
            faults,
            replay: Vec::new(),
            sent: 0,
            acked: 0,
            attempt: 0,
            conn: None,
        };
        if let Err(e) = producer.open(stream) {
            producer.recover(e)?;
        }
        Ok(producer)
    }

    fn resumable(&self) -> bool {
        !self.token.is_empty()
    }

    /// Start a session on a fresh connection: handshake from `acked`,
    /// and for a resumable producer read the ack and replay the frames
    /// from there on.
    fn open(&mut self, stream: FaultStream) -> Result<()> {
        let start = self.acked;
        let resumable = self.resumable();
        let handshake = Handshake { token: self.token.clone(), start_seq: start };
        let writer =
            self.conn.insert(StreamWriter::with_handshake(BufWriter::new(stream), &handshake)?);
        if resumable {
            writer.flush()?;
            let ack = read_ack(writer.inner_mut().get_mut())?;
            self.advance(ack);
            let writer = self.conn.as_mut().expect("connection opened above");
            for raw in &self.replay[start as usize..] {
                writer.write_raw_frame(raw)?;
            }
        }
        self.writer()?.flush()
    }

    /// Record the collector's ack; progress refunds the attempt budget.
    /// Each refund needs a strictly higher ack, and acks never pass
    /// `sent`, so recovery stays bounded.
    fn advance(&mut self, ack: u64) {
        let ack = ack.min(self.sent);
        if ack > self.acked {
            self.acked = ack;
            self.attempt = 0;
        }
    }

    /// The connection failed with `err`: give up, or reconnect with
    /// backoff until a new connection is open and replayed.
    fn recover(&mut self, mut err: TraceError) -> Result<()> {
        loop {
            // Drop the dead connection without flushing its buffer: those
            // frames are replayed on the next one, and a flush would spend
            // a fault plan's next action on a socket that is already gone.
            if let Some(writer) = self.conn.take() {
                drop(writer.into_inner().into_parts());
            }
            self.attempt += 1;
            if !self.resumable() || self.attempt >= self.retry.max_attempts.max(1) {
                return Err(err);
            }
            std::thread::sleep(self.retry.backoff(self.attempt - 1));
            let stream = FaultStream::connect(&self.addr, self.timeout, self.faults.as_ref());
            match stream.map_err(TraceError::from).and_then(|s| self.open(s)) {
                Ok(()) => return Ok(()),
                Err(e) => err = e,
            }
        }
    }

    fn writer(&mut self) -> Result<&mut StreamWriter<BufWriter<FaultStream>>> {
        self.conn.as_mut().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, "collector connection lost").into()
        })
    }

    /// Send one frame, reconnecting first if the connection fails.
    pub fn write_frame(&mut self, frame: &Frame) -> Result<()> {
        let raw = RawFrame::encode(frame)?;
        let written = self.writer().and_then(|w| w.write_raw_frame(&raw));
        self.sent += 1;
        if self.resumable() {
            self.replay.push(raw);
        }
        written.or_else(|e| self.recover(e))
    }

    /// Push buffered frames onto the wire, reconnecting first if the
    /// connection fails.
    pub fn flush(&mut self) -> Result<()> {
        let flushed = self.writer().and_then(|w| w.flush());
        flushed.or_else(|e| self.recover(e))
    }

    /// Half-close and wait until the collector has every frame,
    /// reconnecting and replaying as needed. Returns the number of
    /// frames sent.
    pub fn close(&mut self) -> Result<u64> {
        loop {
            let err = match self.end_connection() {
                Ok(()) if self.acked >= self.sent => return Ok(self.sent),
                Ok(()) => TraceError::Io(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    format!("collector acked {}/{} frames", self.acked, self.sent),
                )),
                Err(e) => e,
            };
            self.recover(err)?;
        }
    }

    /// Flush, half-close and read the final ack (to end-of-stream for
    /// an anonymous producer) into `acked`.
    fn end_connection(&mut self) -> Result<()> {
        self.writer()?.flush()?;
        let mut writer = self.conn.take().expect("writer() checked the connection");
        let stream = writer.inner_mut().get_mut();
        stream.shutdown_write()?;
        if self.resumable() {
            let ack = read_ack(stream)?;
            self.advance(ack);
        } else {
            let _ = stream.read_to_end(&mut Vec::new());
            self.acked = self.sent;
        }
        Ok(())
    }
}
