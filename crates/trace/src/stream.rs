//! Length-prefixed streaming frame format for live trace transport.
//!
//! Where [`codec`](crate::codec) serializes a *complete* trace, this module
//! frames the same event encoding for incremental transport over a socket:
//! a producer emits registration and event frames as the workload runs, and
//! a collector assembles them into a [`Trace`] on the other end.
//!
//! Layout (integers are the codec's LEB128 varints):
//!
//! ```text
//! header:  magic "CLSM" | protocol version varint
//!          | token-len varint | token bytes | start-seq varint
//!          | CRC32(version..start-seq) u32-LE          (version ≥ 2)
//! frame:   payload-len varint | payload bytes | CRC32(payload) u32-LE
//! payload: frame-type u8 | type-specific body
//! ```
//!
//! The version-2 header carries the resumable-session handshake: `token`
//! names the logical session across reconnects (empty for one-shot
//! streams such as files or plain pushes), and `start-seq` is the
//! sequence number of the first frame this connection will carry. Frame
//! sequence numbers are implicit — frame *i* of a session has sequence
//! number `start-seq + i` — so resuming costs no per-frame overhead. A
//! collector answering a non-empty token replies with an [`ack`]
//! (`CLSA` magic | seq varint | CRC32) naming the highest frame sequence
//! it has durably received; the producer replays only the gap.
//!
//! [`ack`]: write_ack
//!
//! Frame types:
//!
//! | type | name    | body                                                |
//! |------|---------|-----------------------------------------------------|
//! | 0    | Start   | JSON `TraceMeta`                                    |
//! | 1    | Param   | key len+bytes, value len+bytes                      |
//! | 2    | Objects | first id varint, count, then (kind u8, name)        |
//! | 3    | Thread  | tid varint, has-name u8 (+ name len+bytes)          |
//! | 4    | Events  | tid varint, count, events (delta-ts, frame-local)   |
//! | 5    | End     | empty — graceful end of session                     |
//!
//! Every frame is self-contained: event timestamps are delta-encoded
//! against the *previous event in the same frame* (the first event carries
//! its absolute timestamp), so a frame can be decoded without sender-side
//! history and a dropped frame never corrupts its successors.

use crate::codec::{
    continue_varint, kind_from_u8, kind_to_u8, raw_len_bytes, raw_str, raw_tid, raw_u8, raw_varint,
    read_bytes, read_varint, write_bytes, write_event, write_varint, RawEventIter,
};
use crate::error::{Result, TraceError};
use crate::event::Event;
use crate::ids::{ObjInfo, ThreadId};
use crate::trace::{ThreadStream, Trace, TraceMeta};
use std::io::{ErrorKind, Read, Write};

/// Stream header magic.
pub const STREAM_MAGIC: &[u8; 4] = b"CLSM";
/// Current stream protocol version (2: resumable-session handshake).
pub const STREAM_VERSION: u64 = 2;
/// Oldest protocol version still accepted by [`StreamReader`]. Version 1
/// headers carry no handshake fields; they decode to the default
/// [`Handshake`] (anonymous, sequence 0).
pub const MIN_STREAM_VERSION: u64 = 1;
/// Collector acknowledgement magic (see [`write_ack`]).
pub const ACK_MAGIC: &[u8; 4] = b"CLSA";

/// Upper bound on a single frame's payload (defense against corrupt
/// length prefixes).
pub const MAX_FRAME_LEN: usize = 1 << 26;
/// Upper bound on a handshake session token.
pub const MAX_TOKEN_LEN: usize = 128;

/// The per-connection handshake carried by the stream header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Handshake {
    /// Session resume token; empty for one-shot (non-resumable) streams.
    pub token: Vec<u8>,
    /// Sequence number of the first frame this connection carries.
    pub start_seq: u64,
}

impl Handshake {
    /// Whether the producer asked for a resumable session.
    pub fn resumable(&self) -> bool {
        !self.token.is_empty()
    }
}

/// One unit of the streaming protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session start: the trace metadata (app name, clock domain, any
    /// params known up front).
    Start {
        /// Metadata of the trace being streamed.
        meta: TraceMeta,
    },
    /// A `key = value` trace parameter discovered mid-run.
    Param {
        /// Parameter name.
        key: String,
        /// Parameter value.
        value: String,
    },
    /// Registration of a contiguous run of synchronization objects.
    Objects {
        /// Object id of `objects[0]`; ids are dense, so `objects[i]` has
        /// id `first_id + i`.
        first_id: u32,
        /// The registered objects, in id order.
        objects: Vec<ObjInfo>,
    },
    /// Registration of a thread (its stream may receive events from the
    /// next frame on).
    Thread {
        /// The thread's trace id.
        tid: ThreadId,
        /// Optional human-readable name.
        name: Option<String>,
    },
    /// A batch of events for one thread, in timestamp order.
    Events {
        /// The thread the events belong to.
        tid: ThreadId,
        /// The events, non-decreasing timestamps.
        events: Vec<Event>,
    },
    /// Graceful end of the session; no frames follow.
    End,
}

// ----------------------------------------------------------- raw frames

/// A validated frame payload kept as wire bytes.
///
/// This is the collector's only frame representation: frames move from
/// socket to journal to queue to assembler, and back out of the journal
/// on recovery scan and replay, without re-encoding and without an owned
/// [`Frame`] per hop. [`StreamReader::next_frame_raw`] CRC-checks and
/// grammar-validates the payload once at read time; the resulting
/// `RawFrame` is journaled verbatim ([`StreamWriter::write_raw_frame`] —
/// byte-identical to re-encoding, since [`encode_payload`] is canonical)
/// and folded into a trace through the borrowed event iterator
/// ([`RawFrame::events`]) instead of a `Vec<Event>`. Only the rare
/// registration frames are decoded to an owned [`Frame`]
/// ([`RawFrame::decode`]); producers build owned frames and encode them
/// with [`RawFrame::encode`] or [`StreamWriter::write_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    payload: Vec<u8>,
}

impl RawFrame {
    /// Wrap `payload` after validating its grammar: exactly what
    /// [`decode_payload`] would accept, rejected with the same errors.
    pub fn new(payload: Vec<u8>) -> Result<Self> {
        validate_payload(&payload)?;
        Ok(RawFrame { payload })
    }

    /// Canonically encode an owned frame (registration paths, tests).
    pub fn encode(frame: &Frame) -> Result<Self> {
        Ok(RawFrame { payload: encode_payload(frame)? })
    }

    /// The frame-type byte (`0` Start … `5` End).
    pub fn frame_type(&self) -> u8 {
        // validate_payload rejects empty payloads, so the byte exists.
        self.payload[0]
    }

    /// Whether this is the graceful `End` frame.
    pub fn is_end(&self) -> bool {
        self.frame_type() == 5
    }

    /// The validated wire payload.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Decode to an owned [`Frame`]. Cannot fail beyond the validation
    /// already done at construction.
    pub fn decode(&self) -> Result<Frame> {
        decode_payload(&self.payload)
    }

    /// For an `Events` frame: the target thread and a borrowed iterator
    /// over the payload's events, decoded lazily without an intermediate
    /// `Vec<Event>`. `None` for every other frame type.
    pub fn events(&self) -> Option<(ThreadId, RawEventIter<'_>)> {
        if self.frame_type() != 4 {
            return None;
        }
        // Validated at construction: the header read cannot fail.
        events_body(&self.payload[1..]).ok()
    }
}

/// Parse an `Events` body (the payload after its type byte): the target
/// thread and a borrowed iterator over the declared events.
fn events_body(mut rem: &[u8]) -> Result<(ThreadId, RawEventIter<'_>)> {
    let tid = raw_tid(&mut rem)?;
    let count = raw_varint(&mut rem)?;
    if count > MAX_FRAME_LEN as u64 {
        return Err(TraceError::Decode(format!("unreasonable event count {count}")));
    }
    Ok((tid, RawEventIter::new(rem, count)))
}

fn no_trailing_bytes(rem: &[u8]) -> Result<()> {
    if rem.is_empty() {
        Ok(())
    } else {
        Err(TraceError::Decode("trailing bytes in frame payload".into()))
    }
}

/// Check that `payload` is a well-formed frame payload without building
/// the owned [`Frame`]. The hot `Events` type is scanned in place; the
/// rare registration types are validated by a full decode. Both walk the
/// one grammar [`decode_payload`] defines, so they accept, reject and
/// word errors identically.
fn validate_payload(payload: &[u8]) -> Result<()> {
    match payload.split_first() {
        Some((4, body)) => {
            let (_, mut iter) = events_body(body)?;
            for ev in iter.by_ref() {
                ev?;
            }
            no_trailing_bytes(iter.remaining_bytes())
        }
        _ => decode_payload(payload).map(|_| ()),
    }
}

// ------------------------------------------------------------------ CRC32

// The implementation lives in [`crate::crc`] (with a hardware-folded fast
// path); re-exported here because the stream formats are its historical
// home and every caller imports it from this path.
pub use crate::crc::{crc32, crc32_finish, crc32_update, CRC32_INIT};

// --------------------------------------------------------------- encoding

fn encode_payload(frame: &Frame) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    match frame {
        Frame::Start { meta } => {
            out.push(0);
            write_bytes(&mut out, &serde_json::to_vec(meta)?)?;
        }
        Frame::Param { key, value } => {
            out.push(1);
            write_bytes(&mut out, key.as_bytes())?;
            write_bytes(&mut out, value.as_bytes())?;
        }
        Frame::Objects { first_id, objects } => {
            out.push(2);
            write_varint(&mut out, *first_id as u64)?;
            write_varint(&mut out, objects.len() as u64)?;
            for obj in objects {
                out.push(kind_to_u8(obj.kind));
                write_bytes(&mut out, obj.name.as_bytes())?;
            }
        }
        Frame::Thread { tid, name } => {
            out.push(3);
            write_varint(&mut out, tid.0 as u64)?;
            match name {
                Some(n) => {
                    out.push(1);
                    write_bytes(&mut out, n.as_bytes())?;
                }
                None => out.push(0),
            }
        }
        Frame::Events { tid, events } => {
            out.push(4);
            write_varint(&mut out, tid.0 as u64)?;
            write_varint(&mut out, events.len() as u64)?;
            let mut prev = 0u64;
            for ev in events {
                if ev.ts < prev {
                    return Err(TraceError::Decode(format!(
                        "events frame not sorted: {} after {prev}",
                        ev.ts
                    )));
                }
                write_event(&mut out, prev, ev)?;
                prev = ev.ts;
            }
        }
        Frame::End => out.push(5),
    }
    Ok(out)
}

/// Decode one frame payload to an owned [`Frame`]: the CLSM payload
/// grammar, read off a slice cursor with the same primitives as the
/// borrowed CLTR view ([`RawEventIter`] for event records).
fn decode_payload(payload: &[u8]) -> Result<Frame> {
    let (&ty, mut rem) =
        payload.split_first().ok_or_else(|| TraceError::Decode("empty frame payload".into()))?;
    let frame = match ty {
        0 => Frame::Start { meta: serde_json::from_slice(raw_len_bytes(&mut rem)?)? },
        1 => {
            let key = raw_str(&mut rem)?.to_owned();
            Frame::Param { key, value: raw_str(&mut rem)?.to_owned() }
        }
        2 => {
            let first_id = u32::try_from(raw_varint(&mut rem)?)
                .map_err(|_| TraceError::Decode("object id overflow".into()))?;
            let count = raw_varint(&mut rem)?;
            if count > MAX_FRAME_LEN as u64 {
                return Err(TraceError::Decode(format!("unreasonable object count {count}")));
            }
            let mut objects = Vec::with_capacity((count as usize).min(1 << 16));
            for _ in 0..count {
                let kind = kind_from_u8(raw_u8(&mut rem)?)?;
                objects.push(ObjInfo { kind, name: raw_str(&mut rem)?.to_owned() });
            }
            Frame::Objects { first_id, objects }
        }
        3 => {
            let tid = raw_tid(&mut rem)?;
            let name = match raw_u8(&mut rem)? {
                0 => None,
                1 => Some(raw_str(&mut rem)?.to_owned()),
                other => return Err(TraceError::Decode(format!("bad name flag {other}"))),
            };
            Frame::Thread { tid, name }
        }
        4 => {
            let (tid, mut iter) = events_body(rem)?;
            let mut events = Vec::with_capacity((iter.remaining_events() as usize).min(1 << 16));
            for ev in iter.by_ref() {
                events.push(ev?.event());
            }
            rem = iter.remaining_bytes();
            Frame::Events { tid, events }
        }
        5 => Frame::End,
        other => return Err(TraceError::Decode(format!("bad frame type {other}"))),
    };
    no_trailing_bytes(rem)?;
    Ok(frame)
}

// -------------------------------------------------------------- writer

/// Writes the stream header and frames to an underlying writer.
pub struct StreamWriter<W: Write> {
    out: W,
}

impl<W: Write> StreamWriter<W> {
    /// Write an anonymous (non-resumable) `CLSM` header and wrap `out`
    /// for frame writing.
    pub fn new(out: W) -> Result<Self> {
        Self::with_handshake(out, &Handshake::default())
    }

    /// Write a `CLSM` header carrying the given handshake and wrap `out`
    /// for frame writing.
    pub fn with_handshake(mut out: W, handshake: &Handshake) -> Result<Self> {
        if handshake.token.len() > MAX_TOKEN_LEN {
            return Err(TraceError::Decode(format!(
                "session token length {} exceeds limit {MAX_TOKEN_LEN}",
                handshake.token.len()
            )));
        }
        out.write_all(STREAM_MAGIC)?;
        // The handshake fields are CRC-protected as a unit so a corrupted
        // header is rejected instead of desynchronizing the frame stream.
        let mut fields = Vec::new();
        write_varint(&mut fields, STREAM_VERSION)?;
        write_bytes(&mut fields, &handshake.token)?;
        write_varint(&mut fields, handshake.start_seq)?;
        out.write_all(&fields)?;
        out.write_all(&crc32(&fields).to_le_bytes())?;
        Ok(StreamWriter { out })
    }

    /// Wrap `out` for frame writing *without* emitting a header — for
    /// appending to a stream whose header was already written (e.g.
    /// reopening a journal file after recovery).
    pub fn append(out: W) -> Self {
        StreamWriter { out }
    }

    /// Append one frame (length prefix, payload, CRC).
    pub fn write_frame(&mut self, frame: &Frame) -> Result<()> {
        let payload = encode_payload(frame)?;
        self.write_payload(&payload)
    }

    /// Append an already-encoded frame verbatim (length prefix, the
    /// payload bytes as received, CRC). Because [`encode_payload`] is
    /// canonical, journaling a received [`RawFrame`] this way produces
    /// bytes identical to decoding and re-encoding it.
    pub fn write_raw_frame(&mut self, raw: &RawFrame) -> Result<()> {
        self.write_payload(raw.payload())
    }

    fn write_payload(&mut self, payload: &[u8]) -> Result<()> {
        write_varint(&mut self.out, payload.len() as u64)?;
        self.out.write_all(payload)?;
        self.out.write_all(&crc32(payload).to_le_bytes())?;
        Ok(())
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) -> Result<()> {
        self.out.flush()?;
        Ok(())
    }

    /// Unwrap the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Borrow the underlying writer (e.g. to fsync a journal file).
    pub fn inner_mut(&mut self) -> &mut W {
        &mut self.out
    }
}

// -------------------------------------------------------------- reader

/// Reads and validates frames from an underlying reader.
pub struct StreamReader<R: Read> {
    inp: R,
    handshake: Handshake,
    /// Scratch for frame payloads, reused across [`Self::next_frame`]
    /// calls so steady-state reading allocates only for decoded frame
    /// contents, not for every wire payload.
    payload: Vec<u8>,
    /// Cumulative payload bytes consumed (framing overhead excluded).
    consumed: u64,
}

impl<R: Read> StreamReader<R> {
    /// Read and validate the `CLSM` header; rejects unknown protocol
    /// versions and corrupted handshakes. Version-1 headers (no
    /// handshake fields) are still accepted and decode to the default
    /// handshake.
    pub fn new(mut inp: R) -> Result<Self> {
        let mut magic = [0u8; 4];
        inp.read_exact(&mut magic)?;
        if &magic != STREAM_MAGIC {
            return Err(TraceError::Decode("bad magic (not a CLSM stream)".into()));
        }
        // Re-encode the fields as read to verify the header CRC without
        // buffering the raw wire bytes.
        let mut fields = Vec::new();
        let version = read_varint(&mut inp)?;
        write_varint(&mut fields, version)?;
        if version == 1 {
            return Ok(StreamReader {
                inp,
                handshake: Handshake::default(),
                payload: Vec::new(),
                consumed: 0,
            });
        }
        if !(MIN_STREAM_VERSION..=STREAM_VERSION).contains(&version) {
            return Err(TraceError::Decode(format!(
                "unsupported stream version {version} (expected {MIN_STREAM_VERSION}..={STREAM_VERSION})"
            )));
        }
        let token = read_bytes(&mut inp)?;
        if token.len() > MAX_TOKEN_LEN {
            return Err(TraceError::Decode(format!(
                "session token length {} exceeds limit {MAX_TOKEN_LEN}",
                token.len()
            )));
        }
        write_bytes(&mut fields, &token)?;
        let start_seq = read_varint(&mut inp)?;
        write_varint(&mut fields, start_seq)?;
        let mut crc_bytes = [0u8; 4];
        inp.read_exact(&mut crc_bytes)?;
        let expected = u32::from_le_bytes(crc_bytes);
        let actual = crc32(&fields);
        if expected != actual {
            return Err(TraceError::Decode(format!(
                "header CRC mismatch (stored {expected:#010x}, computed {actual:#010x})"
            )));
        }
        Ok(StreamReader {
            inp,
            handshake: Handshake { token, start_seq },
            payload: Vec::new(),
            consumed: 0,
        })
    }

    /// The handshake carried by the stream header.
    pub fn handshake(&self) -> &Handshake {
        &self.handshake
    }

    /// Read the next frame. Returns `Ok(None)` on a clean end-of-stream at
    /// a frame boundary; a mid-frame EOF, length overflow or CRC mismatch
    /// is an error.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        match self.read_payload()? {
            false => Ok(None),
            true => decode_payload(&self.payload).map(Some),
        }
    }

    /// Read the next frame as validated wire bytes, skipping the owned
    /// decode — the collector's hot path. Grammar is checked exactly as
    /// [`Self::next_frame`] would, so the two are interchangeable per
    /// frame; this one just hands back the payload for verbatim journaling
    /// and lazy event iteration (see [`RawFrame`]).
    pub fn next_frame_raw(&mut self) -> Result<Option<RawFrame>> {
        match self.read_payload()? {
            false => Ok(None),
            true => {
                validate_payload(&self.payload)?;
                Ok(Some(RawFrame { payload: std::mem::take(&mut self.payload) }))
            }
        }
    }

    /// Read one CRC-checked payload into the scratch buffer. Returns
    /// `false` on a clean end-of-stream at a frame boundary.
    fn read_payload(&mut self) -> Result<bool> {
        let len = {
            // Distinguish "no more frames" from "torn frame": EOF on the
            // first byte of the length prefix is a clean end.
            let mut first = [0u8; 1];
            loop {
                match self.inp.read(&mut first) {
                    Ok(0) => return Ok(false),
                    Ok(_) => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            }
            continue_varint(first[0], &mut self.inp)?
        };
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len > MAX_FRAME_LEN {
            return Err(TraceError::Decode(format!("frame length {len} exceeds limit")));
        }
        self.payload.clear();
        self.payload.resize(len, 0);
        self.inp.read_exact(&mut self.payload)?;
        self.consumed += len as u64;
        let mut crc_bytes = [0u8; 4];
        self.inp.read_exact(&mut crc_bytes)?;
        let expected = u32::from_le_bytes(crc_bytes);
        let actual = crc32(&self.payload);
        if expected != actual {
            return Err(TraceError::Decode(format!(
                "frame CRC mismatch (stored {expected:#010x}, computed {actual:#010x})"
            )));
        }
        Ok(true)
    }

    /// Total frame payload bytes consumed so far. Framing overhead
    /// (length prefixes, CRC trailers) is excluded, so this is a stable
    /// lower bound on wire bytes — the collector's per-session byte
    /// quota is enforced against it.
    pub fn payload_bytes(&self) -> u64 {
        self.consumed
    }

    /// Unwrap the underlying reader.
    pub fn into_inner(self) -> R {
        self.inp
    }
}

// ------------------------------------------------------------ acks

/// Write a collector acknowledgement: `CLSA` magic, the highest frame
/// sequence durably received (as a varint), and a CRC32 of the varint
/// bytes. Sent by a collector in reply to a resumable handshake and
/// again when a connection ends, so the producer knows exactly which
/// frames to replay after a reconnect.
pub fn write_ack(out: &mut impl Write, seq: u64) -> Result<()> {
    out.write_all(ACK_MAGIC)?;
    let mut fields = Vec::new();
    write_varint(&mut fields, seq)?;
    out.write_all(&fields)?;
    out.write_all(&crc32(&fields).to_le_bytes())?;
    out.flush()?;
    Ok(())
}

/// Read and validate a collector acknowledgement (see [`write_ack`]).
pub fn read_ack(inp: &mut impl Read) -> Result<u64> {
    let mut magic = [0u8; 4];
    inp.read_exact(&mut magic)?;
    if &magic != ACK_MAGIC {
        return Err(TraceError::Decode("bad ack magic (not a CLSA reply)".into()));
    }
    let seq = read_varint(inp)?;
    let mut fields = Vec::new();
    write_varint(&mut fields, seq)?;
    let mut crc_bytes = [0u8; 4];
    inp.read_exact(&mut crc_bytes)?;
    let expected = u32::from_le_bytes(crc_bytes);
    let actual = crc32(&fields);
    if expected != actual {
        return Err(TraceError::Decode(format!(
            "ack CRC mismatch (stored {expected:#010x}, computed {actual:#010x})"
        )));
    }
    Ok(seq)
}

// ---------------------------------------------------- trace <-> stream

/// Number of events per `Events` frame used by [`write_trace`].
pub const EVENTS_PER_FRAME: usize = 256;

/// The frame sequence [`write_trace`] emits for a complete trace: Start,
/// Params, Objects, Threads, chunked Events (per thread, in timestamp
/// order), End. Exposed so callers can pace or filter frames (e.g.
/// `critlock push --pace`).
pub fn trace_frames(trace: &Trace) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut meta = trace.meta.clone();
    let params = std::mem::take(&mut meta.params);
    frames.push(Frame::Start { meta });
    for (key, value) in &params {
        frames.push(Frame::Param { key: key.clone(), value: value.clone() });
    }
    if !trace.objects.is_empty() {
        frames.push(Frame::Objects { first_id: 0, objects: trace.objects.clone() });
    }
    for stream in &trace.threads {
        frames.push(Frame::Thread { tid: stream.tid, name: stream.name.clone() });
    }
    for stream in &trace.threads {
        for chunk in stream.events.chunks(EVENTS_PER_FRAME) {
            frames.push(Frame::Events { tid: stream.tid, events: chunk.to_vec() });
        }
    }
    frames.push(Frame::End);
    frames
}

/// Stream a complete trace as frames: Start, Params, Objects, Threads,
/// chunked Events (round-robin in timestamp order per thread), End.
pub fn write_trace(trace: &Trace, out: &mut impl Write) -> Result<()> {
    let mut w = StreamWriter::new(out)?;
    for frame in trace_frames(trace) {
        w.write_frame(&frame)?;
    }
    w.flush()
}

/// Strictly assemble a complete frame stream back into a [`Trace`].
///
/// Requires a `Start` frame first and an `End` frame last; unknown thread
/// ids and non-dense object registrations are errors. (The collector crate
/// layers disconnect-tolerant assembly on top of [`StreamReader`]; this
/// function is the strict inverse of [`write_trace`].)
pub fn read_trace(inp: &mut impl Read) -> Result<Trace> {
    let mut r = StreamReader::new(inp)?;
    let mut trace: Option<Trace> = None;
    let mut ended = false;
    while let Some(frame) = r.next_frame()? {
        if ended {
            return Err(TraceError::Decode("frame after End".into()));
        }
        match frame {
            Frame::Start { meta } => {
                if trace.is_some() {
                    return Err(TraceError::Decode("duplicate Start frame".into()));
                }
                trace = Some(Trace::new(meta));
            }
            frame => {
                let trace = trace
                    .as_mut()
                    .ok_or_else(|| TraceError::Decode("frame before Start".into()))?;
                ended = apply_frame(trace, frame)?;
            }
        }
    }
    if !ended {
        return Err(TraceError::Decode("stream ended without End frame".into()));
    }
    trace.ok_or_else(|| TraceError::Decode("empty stream".into()))
}

/// Fold one (non-`Start`) frame into a trace under strict protocol rules.
/// Returns `true` when the frame was `End`.
pub fn apply_frame(trace: &mut Trace, frame: Frame) -> Result<bool> {
    match frame {
        Frame::Start { .. } => {
            return Err(TraceError::Decode("duplicate Start frame".into()));
        }
        Frame::Param { key, value } => {
            trace.meta.params.insert(key, value);
        }
        Frame::Objects { first_id, objects } => {
            if first_id as usize != trace.objects.len() {
                return Err(TraceError::Decode(format!(
                    "non-dense object registration: first id {first_id}, have {}",
                    trace.objects.len()
                )));
            }
            trace.objects.extend(objects);
        }
        Frame::Thread { tid, name } => {
            if trace.threads.iter().any(|s| s.tid == tid) {
                return Err(TraceError::Decode(format!("duplicate thread {}", tid.0)));
            }
            let mut stream = ThreadStream::new(tid);
            stream.name = name;
            trace.threads.push(stream);
        }
        Frame::Events { tid, events } => {
            let stream = trace.threads.iter_mut().find(|s| s.tid == tid).ok_or_else(|| {
                TraceError::Decode(format!("events for unregistered thread {}", tid.0))
            })?;
            if let (Some(last), Some(first)) = (stream.events.last(), events.first()) {
                if first.ts < last.ts {
                    return Err(TraceError::Decode(format!(
                        "events frame for thread {} goes backwards ({} < {})",
                        tid.0, first.ts, last.ts
                    )));
                }
            }
            stream.events.extend(events);
        }
        Frame::End => {
            // Live producers announce threads in completion order, not id
            // order; restore the dense layout on finalization.
            trace.threads.sort_by_key(|s| s.tid.0);
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use std::io::Cursor;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("stream-sample");
        b.param("threads", 2);
        let l = b.lock("L");
        let t0 = b.thread("main", 0);
        let t1 = b.thread("w1", 1);
        b.on(t1).work(2).cs(l, 5).exit_at(10);
        b.on(t0).create(t1).work(4).cs_blocked(l, 7, 3).join(t1, 12).exit_at(13);
        b.build().unwrap()
    }

    fn stream_roundtrip(trace: &Trace) -> Trace {
        let mut buf = Vec::new();
        write_trace(trace, &mut buf).unwrap();
        read_trace(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn roundtrip_exact() {
        let t = sample();
        let back = stream_roundtrip(&t);
        assert_eq!(t, back);
        back.validate().unwrap();
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::default();
        assert_eq!(stream_roundtrip(&t), t);
    }

    #[test]
    fn crc_corruption_detected() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        // Flip one bit somewhere inside the frame section (past the
        // 5-byte header).
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let err = read_trace(&mut Cursor::new(buf)).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("CRC") || msg.contains("length") || msg.contains("frame"),
            "unexpected error: {msg}"
        );
    }

    #[test]
    fn version_mismatch_rejected() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        buf[4] = 99; // version varint right after the 4-byte magic
        let err = read_trace(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("version"), "unexpected error: {err}");
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&mut Cursor::new(b"NOPE\x01".to_vec())).unwrap_err();
        assert!(err.to_string().contains("magic"), "unexpected error: {err}");
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let t = sample();
        let mut full = Vec::new();
        write_trace(&t, &mut full).unwrap();
        for cut in [5, full.len() / 3, full.len() / 2, full.len() - 1] {
            let buf = full[..cut].to_vec();
            assert!(read_trace(&mut Cursor::new(buf)).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn missing_end_frame_is_detected() {
        let t = sample();
        let mut buf = Vec::new();
        {
            let mut w = StreamWriter::new(&mut buf).unwrap();
            w.write_frame(&Frame::Start { meta: t.meta.clone() }).unwrap();
            // no End
        }
        let err = read_trace(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("End"), "unexpected error: {err}");
    }

    #[test]
    fn frames_before_start_rejected() {
        let mut buf = Vec::new();
        {
            let mut w = StreamWriter::new(&mut buf).unwrap();
            w.write_frame(&Frame::End).unwrap();
        }
        assert!(read_trace(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn raw_frame_path_matches_owned_and_rejournals_verbatim() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();

        let mut owned = StreamReader::new(Cursor::new(buf.clone())).unwrap();
        let mut raw = StreamReader::new(Cursor::new(buf.clone())).unwrap();
        // Re-journal every raw frame verbatim; the output must be
        // byte-identical to the original stream.
        let mut rebuilt = Vec::new();
        let mut w = StreamWriter::new(&mut rebuilt).unwrap();
        loop {
            let (of, rf) = (owned.next_frame().unwrap(), raw.next_frame_raw().unwrap());
            match (of, rf) {
                (None, None) => break,
                (Some(of), Some(rf)) => {
                    assert_eq!(rf.decode().unwrap(), of);
                    assert_eq!(rf.is_end(), matches!(of, Frame::End));
                    assert_eq!(RawFrame::encode(&of).unwrap(), rf);
                    if let Frame::Events { tid, events } = &of {
                        let (rtid, iter) = rf.events().expect("type-4 payload");
                        assert_eq!(rtid, *tid);
                        let borrowed: Vec<Event> = iter.map(|ev| ev.unwrap().event()).collect();
                        assert_eq!(&borrowed, events);
                    } else {
                        assert!(rf.events().is_none());
                    }
                    w.write_raw_frame(&rf).unwrap();
                }
                (of, rf) => panic!("stream length mismatch: {of:?} vs {rf:?}"),
            }
        }
        w.flush().unwrap();
        assert_eq!(rebuilt, buf);
        assert_eq!(raw.payload_bytes(), owned.payload_bytes());
    }

    #[test]
    fn raw_frame_validation_matches_decode_payload() {
        // Trailing garbage after a well-formed Events body.
        let frame = Frame::Events {
            tid: ThreadId(0),
            events: vec![Event::new(3, crate::event::EventKind::ThreadStart)],
        };
        let mut payload = RawFrame::encode(&frame).unwrap().payload.clone();
        payload.push(0x77);
        let err = RawFrame::new(payload).unwrap_err();
        assert!(err.to_string().contains("trailing"), "unexpected error: {err}");
        // Truncated mid-event.
        let payload = RawFrame::encode(&frame).unwrap().payload;
        let cut = payload[..payload.len() - 1].to_vec();
        assert!(RawFrame::new(cut).is_err());
        // Empty payload and bad frame type.
        assert!(RawFrame::new(Vec::new()).is_err());
        assert!(RawFrame::new(vec![9]).is_err());
        // A corrupted frame read through the raw path is severed exactly
        // like the owned path: both readers fail on the same byte flip.
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let drain_owned = |buf: Vec<u8>| -> Result<()> {
            let mut r = StreamReader::new(Cursor::new(buf))?;
            while r.next_frame()?.is_some() {}
            Ok(())
        };
        let drain_raw = |buf: Vec<u8>| -> Result<()> {
            let mut r = StreamReader::new(Cursor::new(buf))?;
            while r.next_frame_raw()?.is_some() {}
            Ok(())
        };
        assert_eq!(
            drain_owned(buf.clone()).unwrap_err().to_string(),
            drain_raw(buf).unwrap_err().to_string()
        );
    }

    #[test]
    fn truncated_payloads_fail_as_decode_errors_on_both_paths() {
        // Every proper prefix of every frame payload is rejected by the
        // owned decode and the raw validation with the same error, and
        // that error is a grammar error, not a transport one.
        for frame in trace_frames(&sample()) {
            let payload = RawFrame::encode(&frame).unwrap().payload;
            for cut in 0..payload.len() {
                let owned = decode_payload(&payload[..cut]).unwrap_err();
                let raw = validate_payload(&payload[..cut]).unwrap_err();
                assert!(matches!(owned, TraceError::Decode(_)), "{frame:?} cut {cut}: {owned}");
                assert_eq!(owned.to_string(), raw.to_string(), "{frame:?} cut {cut}");
            }
        }
        let bad_flag = [3u8, 0, 7];
        assert_eq!(
            decode_payload(&bad_flag).unwrap_err().to_string(),
            "malformed trace: bad name flag 7"
        );
    }

    #[test]
    fn overlong_length_prefix_is_a_varint_overflow() {
        // 0x83 followed by a 10-byte varint for 1 << 63: eleven prefix
        // bytes whose value does not fit in 64 bits. Shifting the tail
        // left by 7 and dropping the high bit would wrap the length to 3
        // and silently accept the 3-byte Param payload behind it.
        let payload = [1u8, 0, 0];
        let mut buf = Vec::new();
        StreamWriter::new(&mut buf).unwrap();
        buf.push(0x83);
        buf.extend_from_slice(&[0x80; 9]);
        buf.push(0x01);
        buf.extend_from_slice(&payload);
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        let owned = StreamReader::new(Cursor::new(buf.clone())).unwrap().next_frame();
        let raw = StreamReader::new(Cursor::new(buf)).unwrap().next_frame_raw();
        for err in [owned.unwrap_err(), raw.unwrap_err()] {
            assert!(err.to_string().contains("varint overflow"), "unexpected error: {err}");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Incremental computation over any split matches the one-shot.
        let mut st = CRC32_INIT;
        st = crc32_update(st, b"1234");
        st = crc32_update(st, b"");
        st = crc32_update(st, b"56789");
        assert_eq!(crc32_finish(st), 0xCBF4_3926);
    }

    #[test]
    fn resumable_handshake_roundtrips() {
        let hs = Handshake { token: b"push-42".to_vec(), start_seq: 17 };
        let mut buf = Vec::new();
        {
            let mut w = StreamWriter::with_handshake(&mut buf, &hs).unwrap();
            w.write_frame(&Frame::End).unwrap();
        }
        let mut r = StreamReader::new(Cursor::new(buf)).unwrap();
        assert_eq!(r.handshake(), &hs);
        assert!(r.handshake().resumable());
        assert_eq!(r.next_frame().unwrap(), Some(Frame::End));
        assert_eq!(r.next_frame().unwrap(), None);
    }

    #[test]
    fn v1_header_is_still_accepted() {
        let mut buf = Vec::new();
        buf.extend_from_slice(STREAM_MAGIC);
        buf.push(1); // version 1: no handshake fields, no header CRC
        {
            let mut w = StreamWriter::append(&mut buf);
            w.write_frame(&Frame::End).unwrap();
        }
        let mut r = StreamReader::new(Cursor::new(buf)).unwrap();
        assert_eq!(r.handshake(), &Handshake::default());
        assert_eq!(r.next_frame().unwrap(), Some(Frame::End));
    }

    #[test]
    fn corrupted_handshake_is_rejected() {
        let hs = Handshake { token: b"session".to_vec(), start_seq: 9 };
        let mut buf = Vec::new();
        StreamWriter::with_handshake(&mut buf, &hs).unwrap();
        for pos in 4..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x20;
            assert!(
                StreamReader::new(Cursor::new(bad)).is_err(),
                "header corruption at byte {pos} must be rejected"
            );
        }
    }

    #[test]
    fn oversized_token_is_rejected() {
        let hs = Handshake { token: vec![7u8; MAX_TOKEN_LEN + 1], start_seq: 0 };
        assert!(StreamWriter::with_handshake(Vec::new(), &hs).is_err());
    }

    #[test]
    fn ack_roundtrips_and_detects_corruption() {
        for seq in [0u64, 1, 127, 128, u64::MAX] {
            let mut buf = Vec::new();
            write_ack(&mut buf, seq).unwrap();
            assert_eq!(read_ack(&mut Cursor::new(&buf[..])).unwrap(), seq);
            for pos in 0..buf.len() {
                let mut bad = buf.clone();
                bad[pos] ^= 0x04;
                assert!(
                    read_ack(&mut Cursor::new(&bad[..])).is_err(),
                    "ack corruption at byte {pos} (seq {seq}) must be rejected"
                );
            }
        }
    }
}
