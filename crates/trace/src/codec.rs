//! Compact binary trace format.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic "CLTR" | version u16-varint
//! meta: len + JSON bytes of TraceMeta
//! objects: count, then per object: kind u8, name len + bytes
//! threads: count, then per thread:
//!   tid, has_name u8 (+ name), event count,
//!   (v2) section byte length,
//!   events as (delta-ts varint, opcode u8, operands...)
//! ```
//!
//! Timestamps are delta-encoded per thread, which keeps typical event
//! records at 3–6 bytes.
//!
//! Version 2 prefixes each thread's encoded event block with its byte
//! length, so a reader holding the whole trace in memory can locate every
//! section without decoding it and hand the sections to worker threads:
//! [`read_trace_bytes`] decodes them in parallel (event timestamps are
//! delta-encoded *per thread*, so each section is self-contained).
//! Version 1 traces (no section lengths) are still read, serially.
//!
//! Version 3 appends a whole-file CRC32 (4 bytes, little-endian, over
//! everything from the magic through the last section) so strict decoding
//! deterministically rejects byte-level corruption instead of depending
//! on a mutation happening to break the grammar. [`read_trace_bytes`] and
//! [`read_trace_bytes_salvage`] both run [`RawTraceView`]'s envelope walk;
//! salvage records each fault as an [`Anomaly`] (e.g. a checksum mismatch)
//! and recovers. [`read_trace`], the `io::Read` decoder, is only the
//! independent reference the tests hold the view to.

use crate::anomaly::Anomaly;
use crate::budget::Budget;
use crate::error::{Result, TraceError};
use crate::event::{Event, EventKind};
use crate::ids::{ObjId, ObjInfo, ObjKind, ThreadId};
use crate::stream::{crc32, crc32_finish, crc32_update, CRC32_INIT};
use crate::trace::{ThreadStream, Trace, TraceMeta};
use rayon::prelude::*;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"CLTR";
const VERSION: u64 = 3;
/// Oldest format version [`read_trace`] still accepts.
const MIN_VERSION: u64 = 1;
/// First version carrying the trailing whole-file checksum.
const CRC_VERSION: u64 = 3;

/// Write an unsigned LEB128 varint.
pub fn write_varint(out: &mut impl Write, mut v: u64) -> Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.write_all(&[byte])?;
            return Ok(());
        }
        out.write_all(&[byte | 0x80])?;
    }
}

/// Read an unsigned LEB128 varint.
pub fn read_varint(inp: &mut impl Read) -> Result<u64> {
    let mut byte = [0u8; 1];
    inp.read_exact(&mut byte)?;
    continue_varint(byte[0], inp)
}

/// Finish a varint whose first byte the caller has already consumed
/// (e.g. to tell a clean end of stream from a torn one), under the same
/// overflow rules as [`read_varint`].
#[inline]
pub(crate) fn continue_varint(first: u8, inp: &mut impl Read) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    let mut b = first;
    loop {
        if shift >= 63 && b > 1 {
            return Err(TraceError::Decode("varint overflow".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::Decode("varint too long".into()));
        }
        let mut byte = [0u8; 1];
        inp.read_exact(&mut byte)?;
        b = byte[0];
    }
}

pub(crate) fn write_bytes(out: &mut impl Write, b: &[u8]) -> Result<()> {
    write_varint(out, b.len() as u64)?;
    out.write_all(b)?;
    Ok(())
}

pub(crate) fn read_bytes(inp: &mut impl Read) -> Result<Vec<u8>> {
    // Bound in the u64 domain *before* narrowing: on a 32-bit target a
    // huge claim would otherwise wrap through `as usize` and pass the cap.
    let len = read_varint(inp)?;
    if len > 1 << 30 {
        return Err(TraceError::Decode(format!("unreasonable length {len}")));
    }
    let len = len as usize;
    // Read through `take` instead of pre-allocating `len` bytes: a
    // corrupt length claim up to the 1 GiB cap must not commit a huge
    // allocation before the (short) input runs out.
    let mut buf = Vec::new();
    inp.by_ref().take(len as u64).read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(TraceError::Decode(format!(
            "byte string truncated ({} of {len} bytes)",
            buf.len()
        )));
    }
    Ok(buf)
}

pub(crate) fn read_string(inp: &mut impl Read) -> Result<String> {
    String::from_utf8(read_bytes(inp)?).map_err(|e| TraceError::Decode(e.to_string()))
}

pub(crate) fn kind_to_u8(k: ObjKind) -> u8 {
    match k {
        ObjKind::Lock => 0,
        ObjKind::Barrier => 1,
        ObjKind::Condvar => 2,
        ObjKind::Marker => 3,
        ObjKind::RwLock => 4,
    }
}

pub(crate) fn kind_from_u8(v: u8) -> Result<ObjKind> {
    Ok(match v {
        0 => ObjKind::Lock,
        1 => ObjKind::Barrier,
        2 => ObjKind::Condvar,
        3 => ObjKind::Marker,
        4 => ObjKind::RwLock,
        _ => return Err(TraceError::Decode(format!("bad object kind {v}"))),
    })
}

pub(crate) fn write_event(out: &mut impl Write, prev_ts: u64, ev: &Event) -> Result<()> {
    write_varint(out, ev.ts - prev_ts)?;
    write_event_kind(out, &ev.kind)
}

/// Encode an event's opcode + operands (no timestamp). Shared between
/// the delta-encoded CLTR/CLSM paths and the checkpoint codec, whose
/// zigzag timestamps tolerate the backwards deltas a partial trace can
/// legally contain across frame boundaries.
pub(crate) fn write_event_kind(out: &mut impl Write, kind: &EventKind) -> Result<()> {
    match *kind {
        EventKind::LockAcquire { lock } => {
            out.write_all(&[0])?;
            write_varint(out, lock.0 as u64)?;
        }
        EventKind::LockContended { lock } => {
            out.write_all(&[1])?;
            write_varint(out, lock.0 as u64)?;
        }
        EventKind::LockObtain { lock } => {
            out.write_all(&[2])?;
            write_varint(out, lock.0 as u64)?;
        }
        EventKind::LockRelease { lock } => {
            out.write_all(&[3])?;
            write_varint(out, lock.0 as u64)?;
        }
        EventKind::BarrierArrive { barrier, epoch } => {
            out.write_all(&[4])?;
            write_varint(out, barrier.0 as u64)?;
            write_varint(out, epoch as u64)?;
        }
        EventKind::BarrierDepart { barrier, epoch } => {
            out.write_all(&[5])?;
            write_varint(out, barrier.0 as u64)?;
            write_varint(out, epoch as u64)?;
        }
        EventKind::CondWaitBegin { cv } => {
            out.write_all(&[6])?;
            write_varint(out, cv.0 as u64)?;
        }
        EventKind::CondWakeup { cv, signal_seq } => {
            out.write_all(&[7])?;
            write_varint(out, cv.0 as u64)?;
            write_varint(out, signal_seq)?;
        }
        EventKind::CondSignal { cv, signal_seq } => {
            out.write_all(&[8])?;
            write_varint(out, cv.0 as u64)?;
            write_varint(out, signal_seq)?;
        }
        EventKind::CondBroadcast { cv, signal_seq } => {
            out.write_all(&[9])?;
            write_varint(out, cv.0 as u64)?;
            write_varint(out, signal_seq)?;
        }
        EventKind::ThreadCreate { child } => {
            out.write_all(&[10])?;
            write_varint(out, child.0 as u64)?;
        }
        EventKind::ThreadStart => out.write_all(&[11])?,
        EventKind::ThreadExit => out.write_all(&[12])?,
        EventKind::JoinBegin { child } => {
            out.write_all(&[13])?;
            write_varint(out, child.0 as u64)?;
        }
        EventKind::JoinEnd { child } => {
            out.write_all(&[14])?;
            write_varint(out, child.0 as u64)?;
        }
        EventKind::Marker { id } => {
            out.write_all(&[15])?;
            write_varint(out, id.0 as u64)?;
        }
        EventKind::RwAcquire { lock, write } => {
            out.write_all(&[16, write as u8])?;
            write_varint(out, lock.0 as u64)?;
        }
        EventKind::RwContended { lock, write } => {
            out.write_all(&[17, write as u8])?;
            write_varint(out, lock.0 as u64)?;
        }
        EventKind::RwObtain { lock, write } => {
            out.write_all(&[18, write as u8])?;
            write_varint(out, lock.0 as u64)?;
        }
        EventKind::RwRelease { lock, write } => {
            out.write_all(&[19, write as u8])?;
            write_varint(out, lock.0 as u64)?;
        }
    }
    Ok(())
}

fn read_bool(inp: &mut impl Read) -> Result<bool> {
    let mut b = [0u8; 1];
    inp.read_exact(&mut b)?;
    match b[0] {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(TraceError::Decode(format!("bad bool {other}"))),
    }
}

fn read_obj(inp: &mut impl Read) -> Result<ObjId> {
    let v = read_varint(inp)?;
    u32::try_from(v).map(ObjId).map_err(|_| TraceError::Decode("object id overflow".into()))
}

pub(crate) fn read_tid(inp: &mut impl Read) -> Result<ThreadId> {
    let v = read_varint(inp)?;
    u32::try_from(v).map(ThreadId).map_err(|_| TraceError::Decode("thread id overflow".into()))
}

/// Barrier epochs are `u32` in the event model; a wider varint is a
/// corrupt or hostile encoding, not a value to wrap.
fn read_epoch(inp: &mut impl Read) -> Result<u32> {
    let v = read_varint(inp)?;
    u32::try_from(v).map_err(|_| TraceError::Decode(format!("barrier epoch overflow ({v})")))
}

pub(crate) fn read_event(inp: &mut impl Read, prev_ts: u64) -> Result<Event> {
    let dt = read_varint(inp)?;
    let ts =
        prev_ts.checked_add(dt).ok_or_else(|| TraceError::Decode("timestamp overflow".into()))?;
    Ok(Event::new(ts, read_event_kind(inp)?))
}

/// Decode an event's opcode + operands (no timestamp); the inverse of
/// [`write_event_kind`].
pub(crate) fn read_event_kind(inp: &mut impl Read) -> Result<EventKind> {
    let mut op = [0u8; 1];
    inp.read_exact(&mut op)?;
    let kind = match op[0] {
        0 => EventKind::LockAcquire { lock: read_obj(inp)? },
        1 => EventKind::LockContended { lock: read_obj(inp)? },
        2 => EventKind::LockObtain { lock: read_obj(inp)? },
        3 => EventKind::LockRelease { lock: read_obj(inp)? },
        4 => EventKind::BarrierArrive { barrier: read_obj(inp)?, epoch: read_epoch(inp)? },
        5 => EventKind::BarrierDepart { barrier: read_obj(inp)?, epoch: read_epoch(inp)? },
        6 => EventKind::CondWaitBegin { cv: read_obj(inp)? },
        7 => EventKind::CondWakeup { cv: read_obj(inp)?, signal_seq: read_varint(inp)? },
        8 => EventKind::CondSignal { cv: read_obj(inp)?, signal_seq: read_varint(inp)? },
        9 => EventKind::CondBroadcast { cv: read_obj(inp)?, signal_seq: read_varint(inp)? },
        10 => EventKind::ThreadCreate { child: read_tid(inp)? },
        11 => EventKind::ThreadStart,
        12 => EventKind::ThreadExit,
        13 => EventKind::JoinBegin { child: read_tid(inp)? },
        14 => EventKind::JoinEnd { child: read_tid(inp)? },
        15 => EventKind::Marker { id: read_obj(inp)? },
        16 => {
            let write = read_bool(inp)?;
            EventKind::RwAcquire { lock: read_obj(inp)?, write }
        }
        17 => {
            let write = read_bool(inp)?;
            EventKind::RwContended { lock: read_obj(inp)?, write }
        }
        18 => {
            let write = read_bool(inp)?;
            EventKind::RwObtain { lock: read_obj(inp)?, write }
        }
        19 => {
            let write = read_bool(inp)?;
            EventKind::RwRelease { lock: read_obj(inp)?, write }
        }
        other => return Err(TraceError::Decode(format!("bad opcode {other}"))),
    };
    Ok(kind)
}

/// Checksums everything written through it, without buffering.
struct CrcWriter<'a, W: Write> {
    inner: &'a mut W,
    state: u32,
}

impl<W: Write> Write for CrcWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.state = crc32_update(self.state, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Checksums everything read through it, without buffering.
struct CrcReader<'a, R: Read> {
    inner: &'a mut R,
    state: u32,
}

impl<R: Read> Read for CrcReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.state = crc32_update(self.state, &buf[..n]);
        Ok(n)
    }
}

/// Serialize a trace into the binary format (current version).
pub fn write_trace(trace: &Trace, out: &mut impl Write) -> Result<()> {
    write_trace_with_version(trace, VERSION, out)
}

/// Serialize a trace as a specific format version.
///
/// Version 1 omits section byte lengths, version 2 omits the whole-file
/// checksum trailer. Exists for compatibility testing (the readers accept
/// `MIN_VERSION..=VERSION`) and for talking to older fleet components;
/// new writers should use [`write_trace`].
pub fn write_trace_with_version(trace: &Trace, version: u64, out: &mut impl Write) -> Result<()> {
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(TraceError::Decode(format!("unsupported version {version}")));
    }
    let mut out = CrcWriter { inner: out, state: CRC32_INIT };
    out.write_all(MAGIC)?;
    write_varint(&mut out, version)?;
    let meta = serde_json::to_vec(&trace.meta)?;
    write_bytes(&mut out, &meta)?;

    write_varint(&mut out, trace.objects.len() as u64)?;
    for obj in &trace.objects {
        out.write_all(&[kind_to_u8(obj.kind)])?;
        write_bytes(&mut out, obj.name.as_bytes())?;
    }

    write_varint(&mut out, trace.threads.len() as u64)?;
    let mut section = Vec::new();
    for stream in &trace.threads {
        write_varint(&mut out, stream.tid.0 as u64)?;
        match &stream.name {
            Some(n) => {
                out.write_all(&[1])?;
                write_bytes(&mut out, n.as_bytes())?;
            }
            None => out.write_all(&[0])?,
        }
        write_varint(&mut out, stream.events.len() as u64)?;
        // v2+: the event block is length-prefixed so readers can skip to
        // the next section without decoding. Encode into a reusable
        // scratch buffer to learn the length.
        section.clear();
        let mut prev = 0u64;
        for ev in &stream.events {
            write_event(&mut section, prev, ev)?;
            prev = ev.ts;
        }
        if version >= 2 {
            write_bytes(&mut out, &section)?;
        } else {
            out.write_all(&section)?;
        }
    }
    if version >= CRC_VERSION {
        // Whole-file checksum trailer, excluded from its own coverage.
        let crc = crc32_finish(out.state);
        out.inner.write_all(&crc.to_le_bytes())?;
    }
    Ok(())
}

/// What a section decode reports when bytes trail its declared records.
const TRAILING: &str = "trailing bytes in thread section";

/// Hand the first `take` of a section's `declared` records to `keep`, in
/// order, and return the first fault: a record that does not decode or,
/// once every declared record is walked, bytes trailing the last one.
/// The one loop behind every section decoder, strict and salvage alike.
fn walk_section<'a>(
    section: &'a [u8],
    declared: u64,
    take: u64,
    mut keep: impl FnMut(EventRef<'a>),
) -> Result<()> {
    let mut iter = RawEventIter::new(section, take);
    for ev in &mut iter {
        keep(ev?);
    }
    if take == declared && !iter.remaining_bytes().is_empty() {
        return Err(TraceError::Decode(TRAILING.into()));
    }
    Ok(())
}

/// Materialize the first `take` records of a section, keeping the events
/// decoded before a fault alongside it.
fn decode_prefix(section: &[u8], declared: u64, take: u64) -> (Vec<Event>, Result<()>) {
    // A record is at least 2 bytes (delta varint + opcode), so the section
    // bounds the reservation whatever count the header claims.
    let cap = take.min(section.len() as u64 / 2).min(1 << 20);
    let mut events = Vec::with_capacity(cap as usize);
    let fault = walk_section(section, declared, take, |ev| events.push(ev.event()));
    (events, fault)
}

/// Decode one thread's event block from its self-contained section.
fn decode_events(section: &[u8], declared: u64) -> Result<Vec<Event>> {
    let (events, fault) = decode_prefix(section, declared, declared);
    fault.map(|()| events)
}

/// Read everything before the thread sections; returns the trace shell
/// plus the declared thread count and format version.
fn read_preamble(inp: &mut impl Read) -> Result<(Trace, usize, u64)> {
    let mut magic = [0u8; 4];
    inp.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceError::Decode("bad magic (not a CLTR trace)".into()));
    }
    let version = read_varint(inp)?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(TraceError::Decode(format!("unsupported version {version}")));
    }
    let meta: TraceMeta = serde_json::from_slice(&read_bytes(inp)?)?;
    let mut trace = Trace::new(meta);

    // Ids are dense u32s, so a count past u32::MAX cannot name real
    // objects/threads — reject it instead of narrowing (which would wrap
    // on 32-bit targets).
    let nobj = read_varint(inp)?;
    if nobj > u32::MAX as u64 {
        return Err(TraceError::Decode(format!("object count {nobj} overflows id space")));
    }
    for _ in 0..nobj {
        let mut k = [0u8; 1];
        inp.read_exact(&mut k)?;
        let kind = kind_from_u8(k[0])?;
        let name = read_string(inp)?;
        trace.objects.push(ObjInfo { kind, name });
    }

    let nthreads = read_varint(inp)?;
    if nthreads > u32::MAX as u64 {
        return Err(TraceError::Decode(format!("thread count {nthreads} overflows id space")));
    }
    Ok((trace, nthreads as usize, version))
}

fn read_thread_header(inp: &mut impl Read) -> Result<(ThreadId, Option<String>, usize)> {
    let tid = read_tid(inp)?;
    let mut has_name = [0u8; 1];
    inp.read_exact(&mut has_name)?;
    let name = if has_name[0] == 1 { Some(read_string(inp)?) } else { None };
    let nev = read_varint(inp)?;
    let nev = usize::try_from(nev)
        .map_err(|_| TraceError::Decode(format!("event count {nev} overflows address space")))?;
    Ok((tid, name, nev))
}

/// Deserialize a trace from the binary format (streaming, serial).
pub fn read_trace(inp: &mut impl Read) -> Result<Trace> {
    let mut inp = CrcReader { inner: inp, state: CRC32_INIT };
    let (mut trace, nthreads, version) = read_preamble(&mut inp)?;
    for _ in 0..nthreads {
        let (tid, name, nev) = read_thread_header(&mut inp)?;
        let events = if version >= 2 {
            decode_events(&read_bytes(&mut inp)?, nev as u64)?
        } else {
            let mut events = Vec::with_capacity(nev.min(1 << 20));
            let mut prev = 0u64;
            for _ in 0..nev {
                let ev = read_event(&mut inp, prev)?;
                prev = ev.ts;
                events.push(ev);
            }
            events
        };
        let mut stream = ThreadStream::new(tid);
        stream.name = name;
        stream.events = events;
        trace.threads.push(stream);
    }
    if version >= CRC_VERSION {
        let actual = crc32_finish(inp.state);
        let mut trailer = [0u8; 4];
        inp.inner.read_exact(&mut trailer)?;
        let expected = u32::from_le_bytes(trailer);
        if expected != actual {
            return Err(TraceError::Decode(format!(
                "file checksum mismatch (stored {expected:#010x}, computed {actual:#010x})"
            )));
        }
    }
    Ok(trace)
}

/// Deserialize a trace held entirely in memory.
///
/// Parses a borrowed [`RawTraceView`] over the buffer (envelope checks,
/// checksum, section bounds — no event copies) and then materializes all
/// thread sections in parallel across the active rayon pool; output is
/// identical to [`read_trace`] on the same bytes, for every supported
/// format version.
pub fn read_trace_bytes(buf: &[u8]) -> Result<Trace> {
    RawTraceView::parse(buf)?.to_trace()
}

// ----------------------------------------------------- zero-copy view
//
// The borrowed decode path: a validated window over an in-memory CLTR
// buffer (an mmap'd file or a received network buffer) that yields
// events straight off the wire bytes, without materializing an owned
// `Vec<Event>` per thread first. Strict and salvage decoding both walk the
// envelope here; [`read_trace`] above stays only as the `io::Read`
// reference the equivalence property tests hold [`RawTraceView::to_trace`]
// to, bit for bit. The CLSM frame payloads (`stream.rs`) are decoded with
// these same slice primitives.
//
// All cursors below are plain sub-slices of the caller's buffer — the
// module contains no `unsafe`; lifetimes tie every view to the backing
// buffer, so a view can never outlive the bytes it points into.

/// Read one LEB128 varint off a slice cursor, advancing it. Same
/// overlong/overflow rules as [`read_varint`], but errors (rather than
/// blocks) at end of input.
#[inline]
pub(crate) fn raw_varint(rem: &mut &[u8]) -> Result<u64> {
    varint_or_eof(rem)?.ok_or_else(|| TraceError::Decode("varint truncated".into()))
}

/// [`raw_varint`], reporting end of input as `Ok(None)`.
#[inline]
fn varint_or_eof(rem: &mut &[u8]) -> Result<Option<u64>> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    let mut i = 0;
    while i < rem.len() {
        let b = rem[i];
        i += 1;
        if shift >= 63 && b > 1 {
            return Err(TraceError::Decode("varint overflow".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            *rem = &rem[i..];
            return Ok(Some(v));
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::Decode("varint too long".into()));
        }
    }
    Ok(None)
}

#[inline]
pub(crate) fn raw_u8(rem: &mut &[u8]) -> Result<u8> {
    let (&b, rest) =
        rem.split_first().ok_or_else(|| TraceError::Decode("unexpected end of input".into()))?;
    *rem = rest;
    Ok(b)
}

/// Split `len` bytes off the cursor, bounds-checked in the u64 domain so
/// an oversized claim can never wrap through a narrowing cast.
#[inline]
fn raw_take<'a>(rem: &mut &'a [u8], len: u64) -> Result<&'a [u8]> {
    if len > rem.len() as u64 {
        return Err(TraceError::Decode(format!(
            "truncated input (need {len} bytes, have {})",
            rem.len()
        )));
    }
    let (taken, rest) = rem.split_at(len as usize);
    *rem = rest;
    Ok(taken)
}

/// Length-prefixed byte string as a borrowed slice.
#[inline]
pub(crate) fn raw_len_bytes<'a>(rem: &mut &'a [u8]) -> Result<&'a [u8]> {
    let len = raw_varint(rem)?;
    raw_take(rem, len)
}

/// Length-prefixed UTF-8 string as a borrowed `&str`.
#[inline]
pub(crate) fn raw_str<'a>(rem: &mut &'a [u8]) -> Result<&'a str> {
    std::str::from_utf8(raw_len_bytes(rem)?).map_err(|e| TraceError::Decode(e.to_string()))
}

#[inline]
fn raw_obj(rem: &mut &[u8]) -> Result<ObjId> {
    let v = raw_varint(rem)?;
    u32::try_from(v).map(ObjId).map_err(|_| TraceError::Decode("object id overflow".into()))
}

#[inline]
pub(crate) fn raw_tid(rem: &mut &[u8]) -> Result<ThreadId> {
    let v = raw_varint(rem)?;
    u32::try_from(v).map(ThreadId).map_err(|_| TraceError::Decode("thread id overflow".into()))
}

#[inline]
fn raw_epoch(rem: &mut &[u8]) -> Result<u32> {
    let v = raw_varint(rem)?;
    u32::try_from(v).map_err(|_| TraceError::Decode(format!("barrier epoch overflow ({v})")))
}

#[inline]
fn raw_bool(rem: &mut &[u8]) -> Result<bool> {
    match raw_u8(rem)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(TraceError::Decode(format!("bad bool {other}"))),
    }
}

/// Slice-cursor mirror of [`read_event_kind`]; enforces the same typed
/// bounds (object/thread ids, barrier epochs).
#[inline]
fn raw_event_kind(rem: &mut &[u8]) -> Result<EventKind> {
    let kind = match raw_u8(rem)? {
        0 => EventKind::LockAcquire { lock: raw_obj(rem)? },
        1 => EventKind::LockContended { lock: raw_obj(rem)? },
        2 => EventKind::LockObtain { lock: raw_obj(rem)? },
        3 => EventKind::LockRelease { lock: raw_obj(rem)? },
        4 => EventKind::BarrierArrive { barrier: raw_obj(rem)?, epoch: raw_epoch(rem)? },
        5 => EventKind::BarrierDepart { barrier: raw_obj(rem)?, epoch: raw_epoch(rem)? },
        6 => EventKind::CondWaitBegin { cv: raw_obj(rem)? },
        7 => EventKind::CondWakeup { cv: raw_obj(rem)?, signal_seq: raw_varint(rem)? },
        8 => EventKind::CondSignal { cv: raw_obj(rem)?, signal_seq: raw_varint(rem)? },
        9 => EventKind::CondBroadcast { cv: raw_obj(rem)?, signal_seq: raw_varint(rem)? },
        10 => EventKind::ThreadCreate { child: raw_tid(rem)? },
        11 => EventKind::ThreadStart,
        12 => EventKind::ThreadExit,
        13 => EventKind::JoinBegin { child: raw_tid(rem)? },
        14 => EventKind::JoinEnd { child: raw_tid(rem)? },
        15 => EventKind::Marker { id: raw_obj(rem)? },
        16 => {
            let write = raw_bool(rem)?;
            EventKind::RwAcquire { lock: raw_obj(rem)?, write }
        }
        17 => {
            let write = raw_bool(rem)?;
            EventKind::RwContended { lock: raw_obj(rem)?, write }
        }
        18 => {
            let write = raw_bool(rem)?;
            EventKind::RwObtain { lock: raw_obj(rem)?, write }
        }
        19 => {
            let write = raw_bool(rem)?;
            EventKind::RwRelease { lock: raw_obj(rem)?, write }
        }
        other => return Err(TraceError::Decode(format!("bad opcode {other}"))),
    };
    Ok(kind)
}

/// Decode one delta-encoded event record off a slice cursor.
#[inline]
fn raw_event(rem: &mut &[u8], prev_ts: u64) -> Result<(u64, EventKind)> {
    let dt = raw_varint(rem)?;
    let ts =
        prev_ts.checked_add(dt).ok_or_else(|| TraceError::Decode("timestamp overflow".into()))?;
    Ok((ts, raw_event_kind(rem)?))
}

/// One event yielded by [`RawEventIter`]: the decoded fields plus the
/// exact wire bytes they came from (useful for re-framing or journaling
/// a record without re-encoding it).
#[derive(Debug, Clone, Copy)]
pub struct EventRef<'a> {
    /// Absolute timestamp (the per-thread delta chain already applied).
    pub ts: u64,
    /// Decoded opcode + operands.
    pub kind: EventKind,
    /// The encoded record: delta-ts varint, opcode, operands.
    pub raw: &'a [u8],
}

impl EventRef<'_> {
    /// Materialize the owned [`Event`].
    #[inline]
    pub fn event(&self) -> Event {
        Event::new(self.ts, self.kind)
    }
}

/// Borrowed iterator over one thread's encoded event section.
///
/// Yields up to the declared event count, decoding each record in place;
/// stops (fused) at the first malformed record. Framing is validated as
/// a side effect of decoding; the section decoders additionally require
/// [`Self::remaining_bytes`] to be empty after the last declared record.
#[derive(Debug, Clone)]
pub struct RawEventIter<'a> {
    rem: &'a [u8],
    prev_ts: u64,
    remaining: u64,
    failed: bool,
}

impl<'a> RawEventIter<'a> {
    /// Iterate `declared` events off `section`.
    pub fn new(section: &'a [u8], declared: u64) -> Self {
        RawEventIter { rem: section, prev_ts: 0, remaining: declared, failed: false }
    }

    /// Section bytes not yet consumed. After a full iteration this must
    /// be empty for a well-formed section.
    pub fn remaining_bytes(&self) -> &'a [u8] {
        self.rem
    }

    /// Declared events not yet yielded.
    pub fn remaining_events(&self) -> u64 {
        self.remaining
    }
}

impl<'a> Iterator for RawEventIter<'a> {
    type Item = Result<EventRef<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.remaining == 0 {
            return None;
        }
        let start = self.rem;
        match raw_event(&mut self.rem, self.prev_ts) {
            Ok((ts, kind)) => {
                self.prev_ts = ts;
                self.remaining -= 1;
                let raw = &start[..start.len() - self.rem.len()];
                Some(Ok(EventRef { ts, kind, raw }))
            }
            Err(e) => {
                self.failed = true;
                self.rem = start;
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.failed {
            return (0, Some(0));
        }
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (0, Some(n))
    }
}

/// One thread's header plus its (not yet decoded) event section, borrowed
/// from the trace buffer.
#[derive(Debug, Clone, Copy)]
pub struct RawThread<'a> {
    /// The thread's trace id.
    pub tid: ThreadId,
    /// Optional thread name, borrowed from the buffer.
    pub name: Option<&'a str>,
    /// Event count the header declares for this section.
    pub declared_events: u64,
    section: &'a [u8],
}

impl<'a> RawThread<'a> {
    /// The encoded event section (exact byte window, nothing decoded).
    pub fn section(&self) -> &'a [u8] {
        self.section
    }

    /// Iterate the section's events without materializing them.
    pub fn events(&self) -> RawEventIter<'a> {
        RawEventIter::new(self.section, self.declared_events)
    }

    /// Validate the section's framing — every declared record decodes and
    /// no bytes trail the last one — without materializing events.
    /// Returns the validated event count.
    pub fn validate(&self) -> Result<u64> {
        let mut n = 0u64;
        walk_section(self.section, self.declared_events, self.declared_events, |_| n += 1)?;
        Ok(n)
    }

    /// Strictly materialize the section into owned events.
    pub fn decode(&self) -> Result<Vec<Event>> {
        decode_events(self.section, self.declared_events)
    }
}

/// A synchronization object's registration, borrowed from the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawObjRef<'a> {
    /// Object kind.
    pub kind: ObjKind,
    /// Object name, borrowed from the buffer.
    pub name: &'a str,
}

/// How the envelope walk treats a fault: strict returns the first one,
/// salvage records it and recovers, walking at most `max_threads` headers.
#[derive(Debug, Clone, Copy)]
enum FaultPolicy {
    Strict,
    Salvage { max_threads: usize },
}

/// The envelope walk's cursor, and the faults a salvage walk recovered
/// from. A section fault or a torn header ends the walk, so there is at
/// most one of each; clean input records none.
#[derive(Debug, Default)]
struct Walk<'a> {
    rem: &'a [u8],
    salvage: bool,
    declared_threads: usize,
    /// A mismatched or missing v3 checksum trailer.
    trailer: Option<Anomaly>,
    /// What is wrong with the last walked section.
    section_fault: Option<String>,
    /// The walk lost sync in the last section (an unreadable v2 length or
    /// a bad v1 record), so the section ends at the fault.
    lost: bool,
    /// The walk stopped at a torn thread header.
    torn: bool,
}

impl<'a> Walk<'a> {
    /// Salvage words running out of input as the `io::Read` helpers do.
    fn eof(&self, strict: &str) -> TraceError {
        if self.salvage {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "failed to fill whole buffer")
                .into()
        } else {
            TraceError::Decode(strict.into())
        }
    }

    fn varint(&mut self) -> Result<u64> {
        varint_or_eof(&mut self.rem)?.ok_or_else(|| self.eof("varint truncated"))
    }

    fn bytes(&mut self) -> Result<&'a [u8]> {
        let (len, have) = (self.varint()?, self.rem.len());
        if self.salvage && len > 1 << 30 {
            return Err(TraceError::Decode(format!("unreasonable length {len}")));
        }
        if self.salvage && len > have as u64 {
            return Err(TraceError::Decode(format!(
                "byte string truncated ({have} of {len} bytes)"
            )));
        }
        raw_take(&mut self.rem, len)
    }

    /// Check the v3 checksum trailer and slice it off the unwalked bytes.
    fn trailer(&mut self, buf: &'a [u8]) -> Result<()> {
        let consumed = buf.len() - self.rem.len();
        let fault = match buf.len().checked_sub(4).filter(|&b| b >= consumed) {
            None => Anomaly::TruncatedFile { missing_threads: self.declared_threads as u64 },
            Some(body) => {
                self.rem = &buf[consumed..body];
                let expected =
                    u32::from_le_bytes([buf[body], buf[body + 1], buf[body + 2], buf[body + 3]]);
                let actual = crc32(&buf[..body]);
                if expected == actual {
                    return Ok(());
                }
                Anomaly::ChecksumMismatch { expected, actual }
            }
        };
        match fault {
            _ if self.salvage => self.trailer = Some(fault),
            Anomaly::ChecksumMismatch { expected, actual } => {
                return Err(TraceError::Decode(format!(
                    "file checksum mismatch (stored {expected:#010x}, computed {actual:#010x})"
                )))
            }
            _ => return Err(TraceError::Decode("file checksum trailer missing".into())),
        }
        Ok(())
    }

    /// A fault the walk cannot resync after: strict returns it, salvage
    /// keeps the section up to it and ends the walk.
    fn lose(&mut self, e: TraceError) -> Result<()> {
        if !self.salvage {
            return Err(e);
        }
        (self.section_fault, self.lost) = (Some(e.to_string()), true);
        Ok(())
    }
}

/// A validated, borrowed view over a complete in-memory CLTR buffer.
///
/// [`parse`](Self::parse) checks the envelope once — magic, version, the
/// v3 whole-file checksum, preamble grammar and section bounds — after
/// which every thread's events can be iterated ([`RawThread::events`])
/// or materialized in parallel ([`Self::to_trace`]) without copying the
/// buffer. Event *records* are validated lazily, as they are decoded.
///
/// Version 1 buffers (no section framing) are supported too: locating
/// their section boundaries requires one decode pass at parse time,
/// still without materializing events.
#[derive(Debug, Clone)]
pub struct RawTraceView<'a> {
    version: u64,
    meta: TraceMeta,
    objects: Vec<RawObjRef<'a>>,
    threads: Vec<RawThread<'a>>,
}

impl<'a> RawTraceView<'a> {
    /// Parse and validate the envelope of a CLTR buffer.
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        Self::walk(buf, FaultPolicy::Strict).map(|(view, _)| view)
    }

    /// Walk the envelope under `policy`. Salvage fails only on an
    /// unreadable preamble. Past it, it notes a checksum mismatch and goes
    /// on, stops at a torn header, clamps an over-long section to the rest
    /// of the file, and stops after a section it loses sync in.
    fn walk(buf: &'a [u8], policy: FaultPolicy) -> Result<(Self, Walk<'a>)> {
        let (salvage, max_threads) = match policy {
            FaultPolicy::Strict => (false, usize::MAX),
            FaultPolicy::Salvage { max_threads } => (true, max_threads),
        };
        let mut walk = Walk { rem: buf.get(4..).unwrap_or_default(), salvage, ..<_>::default() };
        let bad_magic = "bad magic (not a CLTR trace)";
        if buf.get(..4).ok_or_else(|| walk.eof(bad_magic))? != MAGIC {
            return Err(TraceError::Decode(bad_magic.into()));
        }
        let version = walk.varint()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(TraceError::Decode(format!("unsupported version {version}")));
        }
        let checked = version >= CRC_VERSION;
        if checked && !salvage {
            // Verify the trailer before trusting any length field.
            walk.trailer(buf)?;
        }
        let meta: TraceMeta = serde_json::from_slice(walk.bytes()?)?;

        let nobj = walk.varint()?;
        if nobj > u32::MAX as u64 {
            return Err(TraceError::Decode(format!("object count {nobj} overflows id space")));
        }
        let mut objects = Vec::with_capacity((nobj as usize).min(1 << 16));
        for _ in 0..nobj {
            let (&kind, rest) =
                walk.rem.split_first().ok_or_else(|| walk.eof("unexpected end of input"))?;
            walk.rem = rest;
            let kind = kind_from_u8(kind)?;
            let name = std::str::from_utf8(walk.bytes()?)
                .map_err(|e| TraceError::Decode(e.to_string()))?;
            objects.push(RawObjRef { kind, name });
        }

        let nthreads = walk.varint()?;
        if nthreads > u32::MAX as u64 {
            return Err(TraceError::Decode(format!("thread count {nthreads} overflows id space")));
        }
        walk.declared_threads = nthreads as usize;
        if checked && salvage {
            // Read after the preamble, so a missing trailer costs the
            // sections, not the whole trace.
            walk.trailer(buf)?;
        }

        let walked = walk.declared_threads.min(max_threads);
        let mut threads = Vec::with_capacity(walked.min(1 << 16));
        for _ in 0..walked {
            let mut header = || -> Result<_> {
                let tid = raw_tid(&mut walk.rem)?;
                let named = raw_u8(&mut walk.rem)? == 1;
                let name = if named { Some(raw_str(&mut walk.rem)?) } else { None };
                Ok((tid, name, raw_varint(&mut walk.rem)?))
            };
            let (tid, name, declared_events) = match header() {
                Ok(header) => header,
                Err(_) if salvage => {
                    walk.torn = true;
                    break;
                }
                Err(e) => return Err(e),
            };
            let section = if version >= 2 {
                match walk.varint() {
                    Ok(len) if len <= walk.rem.len() as u64 => {
                        // A record is at least 2 bytes (delta varint +
                        // opcode), so a count past len/2 cannot fit —
                        // reject before any consumer sizes an allocation
                        // from the claim. Salvage finds out by decoding.
                        if !salvage && declared_events > len / 2 {
                            return Err(TraceError::Decode(format!(
                                "event count {declared_events} exceeds section capacity {len}"
                            )));
                        }
                        raw_take(&mut walk.rem, len)?
                    }
                    Ok(len) if salvage => {
                        walk.section_fault = Some(format!("section length {len} exceeds file"));
                        std::mem::take(&mut walk.rem)
                    }
                    Ok(len) => {
                        return Err(TraceError::Decode(format!(
                            "thread section length {len} exceeds remaining {}",
                            walk.rem.len()
                        )))
                    }
                    Err(e) => walk.lose(e).map(|()| &[][..])?,
                }
            } else {
                // v1: no framing — walk the records to find the boundary.
                let mut records = RawEventIter::new(walk.rem, declared_events);
                if let Some(Err(e)) = records.find(Result::is_err) {
                    walk.lose(e)?;
                }
                let rest = records.remaining_bytes();
                let section = &walk.rem[..walk.rem.len() - rest.len()];
                walk.rem = rest;
                section
            };
            threads.push(RawThread { tid, name, declared_events, section });
            if walk.lost {
                break;
            }
        }
        // Bytes after the last section are ignored, matching the owned
        // readers (under v3 the checksum already covers them).
        Ok((RawTraceView { version, meta, objects, threads }, walk))
    }

    /// The owned trace without its thread sections.
    fn shell(&self) -> Trace {
        let mut trace = Trace::new(self.meta.clone());
        trace.objects =
            self.objects.iter().map(|o| ObjInfo { kind: o.kind, name: o.name.into() }).collect();
        trace
    }

    /// Format version of the underlying buffer.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Trace metadata (deserialized once at parse; the JSON blob is the
    /// one part of the format that cannot be borrowed).
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Registered synchronization objects, names borrowed.
    pub fn objects(&self) -> &[RawObjRef<'a>] {
        &self.objects
    }

    /// Per-thread sections, in file order.
    pub fn threads(&self) -> &[RawThread<'a>] {
        &self.threads
    }

    /// Total events the thread headers declare.
    pub fn declared_events(&self) -> u64 {
        self.threads.iter().map(|t| t.declared_events).sum()
    }

    /// Validate every section's framing without materializing events;
    /// returns the total validated event count.
    pub fn validate(&self) -> Result<u64> {
        self.threads.iter().try_fold(0, |total, t| Ok(total + t.validate()?))
    }

    /// Materialize the owned [`Trace`], decoding thread sections in
    /// parallel across the active rayon pool. Bit-identical to the
    /// streaming reader's output on the same bytes.
    pub fn to_trace(&self) -> Result<Trace> {
        let mut trace = self.shell();
        let decoded: Vec<Result<ThreadStream>> = self
            .threads
            .par_iter()
            .map(|t| {
                Ok(ThreadStream { tid: t.tid, name: t.name.map(Into::into), events: t.decode()? })
            })
            .collect();
        trace.threads = decoded.into_iter().collect::<Result<_>>()?;
        Ok(trace)
    }
}

/// Tolerant decode for salvage mode: recover whatever the byte buffer
/// still encodes instead of failing on the first inconsistency.
///
/// Only an unreadable preamble (magic/version/meta/object table) is an
/// error — past that point every problem is recorded as an [`Anomaly`]:
/// a checksum mismatch keeps decoding, a corrupt or truncated thread
/// section contributes its longest decodable event prefix, and missing
/// trailing sections are reported but don't discard the threads already
/// decoded. The [`Budget`] is enforced here too, so sections past the
/// event/thread allowance are never decoded (or even allocated).
///
/// The returned trace makes no protocol guarantees; run it through
/// [`crate::salvage::salvage_trace`] before analysis.
pub fn read_trace_bytes_salvage(buf: &[u8], budget: &Budget) -> Result<(Trace, Vec<Anomaly>)> {
    let max_threads = budget.max_threads.unwrap_or(usize::MAX);
    let (view, walk) = RawTraceView::walk(buf, FaultPolicy::Salvage { max_threads })?;
    let (threads, nthreads) = (view.threads(), walk.declared_threads);
    let mut anomalies: Vec<Anomaly> = walk.trailer.into_iter().collect();
    if let Some(kept) = budget.thread_allowance(nthreads) {
        let dropped = (nthreads - kept) as u64;
        anomalies.push(Anomaly::BudgetThreadsTruncated { kept: kept as u64, dropped });
    }
    let mut allowance = budget.event_cap();
    let mut declared_total = 0u64;
    let mut trace = view.shell();
    // The torn header, if any, is met only after every walked section.
    for i in 0..threads.len() + usize::from(walk.torn) {
        if budget.deadline_expired() {
            anomalies.push(Anomaly::DeadlineExceeded { stage: "decode".into() });
            break;
        }
        let Some(t) = threads.get(i) else {
            anomalies.push(Anomaly::TruncatedFile { missing_threads: (nthreads - i) as u64 });
            break;
        };
        declared_total = declared_total.saturating_add(t.declared_events);
        let last = i + 1 == threads.len();
        let take = t.declared_events.min(allowance);
        let (events, decoded) = decode_prefix(t.section, t.declared_events, take);
        let detail = match (walk.section_fault.as_ref().filter(|_| last), decoded) {
            (Some(fault), _) => Some(fault.clone()),
            // All `take` records decoded, so the fault is trailing bytes.
            (None, Err(_)) if events.len() as u64 == take => Some(TRAILING.into()),
            (None, decoded) => decoded.err().map(|e| e.to_string()),
        };
        if let Some(detail) = detail {
            let recovered = events.len() as u64;
            anomalies.push(Anomaly::CorruptSection { tid: ThreadId(i as u32), recovered, detail });
        }
        allowance -= events.len() as u64;
        trace.threads.push(ThreadStream { tid: t.tid, name: t.name.map(Into::into), events });
        if last && walk.lost && nthreads > i + 1 {
            anomalies.push(Anomaly::TruncatedFile { missing_threads: (nthreads - i - 1) as u64 });
        }
    }
    anomalies.extend(budget.event_truncations(declared_total));
    Ok((trace, anomalies))
}

/// Save a trace to a file in the binary format.
pub fn save(trace: &Trace, path: impl AsRef<Path>) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_trace(trace, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Load a trace from a binary-format file.
///
/// Reads the file into memory in one pass and decodes via
/// [`read_trace_bytes`], avoiding per-byte reader overhead and letting
/// thread sections decode in parallel.
pub fn load(path: impl AsRef<Path>) -> Result<Trace> {
    let buf = std::fs::read(path)?;
    read_trace_bytes(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use std::io::Cursor;

    fn roundtrip(trace: &Trace) -> Trace {
        let mut buf = Vec::new();
        write_trace(trace, &mut buf).unwrap();
        read_trace(&mut Cursor::new(buf)).unwrap()
    }

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("codec-sample");
        b.param("threads", 3);
        let l = b.lock("L");
        let bar = b.barrier("B");
        let cv = b.condvar("CV");
        let m = b.marker("phase");
        let t0 = b.thread("main", 0);
        let t1 = b.thread("w1", 1);
        let t2 = b.thread("w2", 1);
        b.on(t1).work(2).cs(l, 5).barrier(bar, 0, 10).exit_at(20);
        b.on(t2).work(3).cs_blocked(l, 8, 2).barrier(bar, 0, 10).cond_wait(cv, 15, 1).exit_at(19);
        b.on(t0)
            .create(t1)
            .create(t2)
            .mark(m)
            .work(14)
            .cond_signal(cv, 1)
            .join(t1, 20)
            .join(t2, 20)
            .exit_at(21);
        b.build().unwrap()
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut Cursor::new(buf)).unwrap(), v);
        }
    }

    #[test]
    fn varint_rejects_overlong() {
        let buf = vec![0x80u8; 11];
        assert!(read_varint(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn trace_roundtrip_exact() {
        let t = sample();
        let back = roundtrip(&t);
        assert_eq!(t, back);
        back.validate().unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE".to_vec();
        assert!(matches!(
            read_trace(&mut Cursor::new(buf)),
            Err(TraceError::Decode(_)) | Err(TraceError::Io(_))
        ));
    }

    #[test]
    fn truncated_stream_rejected() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_trace(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let t = sample();
        let dir = std::env::temp_dir().join("critlock-codec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.cltr");
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_roundtrip() {
        let t = Trace::default();
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn bytes_path_matches_streaming_reader() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let streaming = read_trace(&mut Cursor::new(buf.clone())).unwrap();
        let parallel = read_trace_bytes(&buf).unwrap();
        assert_eq!(streaming, parallel);
        assert_eq!(parallel, t);
    }

    /// Hand-encode a v1 trace (no section byte lengths) and check both
    /// readers still accept it.
    #[test]
    fn version1_still_readable() {
        let t = sample();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        write_varint(&mut buf, 1).unwrap();
        write_bytes(&mut buf, &serde_json::to_vec(&t.meta).unwrap()).unwrap();
        write_varint(&mut buf, t.objects.len() as u64).unwrap();
        for obj in &t.objects {
            buf.push(kind_to_u8(obj.kind));
            write_bytes(&mut buf, obj.name.as_bytes()).unwrap();
        }
        write_varint(&mut buf, t.threads.len() as u64).unwrap();
        for stream in &t.threads {
            write_varint(&mut buf, stream.tid.0 as u64).unwrap();
            match &stream.name {
                Some(n) => {
                    buf.push(1);
                    write_bytes(&mut buf, n.as_bytes()).unwrap();
                }
                None => buf.push(0),
            }
            write_varint(&mut buf, stream.events.len() as u64).unwrap();
            let mut prev = 0u64;
            for ev in &stream.events {
                write_event(&mut buf, prev, ev).unwrap();
                prev = ev.ts;
            }
        }
        assert_eq!(read_trace(&mut Cursor::new(buf.clone())).unwrap(), t);
        assert_eq!(read_trace_bytes(&buf).unwrap(), t);
    }

    /// A section length pointing past the end of the buffer (here:
    /// truncating the file under an intact length) must error, not panic.
    #[test]
    fn oversized_section_length_rejected() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(read_trace_bytes(&buf).is_err());
    }

    /// Any single-byte corruption of a v3 file is rejected by both
    /// strict readers via the whole-file checksum, even where the
    /// mutated byte still decodes as valid grammar.
    #[test]
    fn v3_checksum_detects_bit_flip() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        for at in [7, buf.len() / 2, buf.len() - 5] {
            let mut bad = buf.clone();
            bad[at] ^= 0x40;
            assert!(read_trace_bytes(&bad).is_err(), "flip at {at} accepted by bytes reader");
            assert!(
                read_trace(&mut Cursor::new(bad)).is_err(),
                "flip at {at} accepted by streaming reader"
            );
        }
    }

    /// The tolerant reader records the checksum mismatch as an anomaly
    /// and still decodes the (grammatically intact) trace.
    #[test]
    fn salvage_decode_reports_checksum_mismatch() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let at = buf.len() - 1; // corrupt the trailer itself
        buf[at] ^= 0x40;
        let (back, anomalies) = read_trace_bytes_salvage(&buf, &Budget::unlimited()).unwrap();
        assert_eq!(back, t);
        assert!(anomalies.iter().any(|a| matches!(a, Anomaly::ChecksumMismatch { .. })));
    }

    /// Cutting the file mid-section loses the tail but salvage-decode
    /// keeps every section before the cut.
    #[test]
    fn salvage_decode_recovers_truncated_file() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        buf.truncate(buf.len() * 2 / 3);
        let (back, anomalies) = read_trace_bytes_salvage(&buf, &Budget::unlimited()).unwrap();
        assert!(!anomalies.is_empty());
        assert!(back.num_events() > 0, "nothing recovered from a 2/3 file");
        assert!(back.num_events() < t.num_events());
    }

    /// An uncorrupted file salvage-decodes to the identical trace with
    /// no anomalies.
    #[test]
    fn salvage_decode_of_clean_file_is_identity() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let (back, anomalies) = read_trace_bytes_salvage(&buf, &Budget::unlimited()).unwrap();
        assert_eq!(back, t);
        assert_eq!(anomalies, Vec::new());
    }

    /// Event budgets are enforced during decode: sections past the
    /// allowance are never decoded, and the truncation is recorded.
    #[test]
    fn salvage_decode_enforces_event_budget() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let budget = Budget::unlimited().with_max_events(4);
        let (back, anomalies) = read_trace_bytes_salvage(&buf, &budget).unwrap();
        assert!(back.num_events() <= 4);
        assert!(anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::BudgetEventsTruncated { kept: 4, .. })));
    }

    /// v1 sections are unframed: a budget that ends inside one must still
    /// walk its remaining records to find the next thread header, so every
    /// format version recovers the same events and anomalies.
    #[test]
    fn salvage_decode_budget_is_version_independent() {
        let t = sample();
        for budget in [
            Budget::unlimited().with_max_events(4),
            Budget::unlimited().with_max_bytes(8 * std::mem::size_of::<Event>() as u64),
        ] {
            let decoded: Vec<_> = (MIN_VERSION..=VERSION)
                .map(|version| {
                    let mut buf = Vec::new();
                    write_trace_with_version(&t, version, &mut buf).unwrap();
                    read_trace_bytes_salvage(&buf, &budget).unwrap()
                })
                .collect();
            assert_eq!(decoded[0].0.threads.len(), t.threads.len());
            assert_eq!(decoded[0], decoded[1], "v1 vs v2 under {budget:?}");
            assert_eq!(decoded[1], decoded[2], "v2 vs v3 under {budget:?}");
        }
    }

    /// Encode a version-2 file around one hand-built event section.
    fn v2_with_section(section: &[u8], nev: u64) -> Vec<u8> {
        let t = Trace::default();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        write_varint(&mut buf, 2).unwrap();
        write_bytes(&mut buf, &serde_json::to_vec(&t.meta).unwrap()).unwrap();
        write_varint(&mut buf, 0).unwrap(); // no objects
        write_varint(&mut buf, 1).unwrap(); // one thread
        write_varint(&mut buf, 0).unwrap(); // tid 0
        buf.push(0); // unnamed
        write_varint(&mut buf, nev).unwrap();
        write_bytes(&mut buf, section).unwrap();
        buf
    }

    /// A barrier epoch wider than u32 is a typed decode error in every
    /// reader — strict streaming, strict bytes, the zero-copy validator —
    /// and a recorded anomaly in salvage; it must never wrap.
    #[test]
    fn barrier_epoch_overflow_rejected_everywhere() {
        // dt 0, opcode 4 (BarrierArrive), barrier id 0, epoch 1<<32.
        let mut section = vec![0u8, 4, 0];
        write_varint(&mut section, 1u64 << 32).unwrap();
        let buf = v2_with_section(&section, 1);

        let err = read_trace(&mut Cursor::new(buf.clone())).unwrap_err();
        assert!(err.to_string().contains("epoch"), "streaming: {err}");
        let err = read_trace_bytes(&buf).unwrap_err();
        assert!(err.to_string().contains("epoch"), "bytes: {err}");

        let view = RawTraceView::parse(&buf).unwrap(); // envelope is fine
        let err = view.validate().unwrap_err();
        assert!(err.to_string().contains("epoch"), "validator: {err}");

        let (_, anomalies) = read_trace_bytes_salvage(&buf, &Budget::unlimited()).unwrap();
        assert!(
            anomalies.iter().any(|a| matches!(
                a,
                Anomaly::CorruptSection { detail, .. } if detail.contains("epoch")
            )),
            "salvage: {anomalies:?}"
        );

        // The owned serial path (v1 layout) hits the same typed error.
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        write_varint(&mut v1, 1).unwrap();
        write_bytes(&mut v1, &serde_json::to_vec(&Trace::default().meta).unwrap()).unwrap();
        write_varint(&mut v1, 0).unwrap();
        write_varint(&mut v1, 1).unwrap();
        write_varint(&mut v1, 0).unwrap();
        v1.push(0);
        write_varint(&mut v1, 1).unwrap();
        v1.extend_from_slice(&section);
        let err = read_trace(&mut Cursor::new(v1)).unwrap_err();
        assert!(err.to_string().contains("epoch"), "v1 streaming: {err}");
    }

    /// The borrowed view agrees with the owned readers on every format
    /// version, and its `EventRef.raw` windows tile the section exactly.
    #[test]
    fn raw_view_matches_owned_readers_across_versions() {
        let t = sample();
        for version in MIN_VERSION..=VERSION {
            let mut buf = Vec::new();
            write_trace_with_version(&t, version, &mut buf).unwrap();
            assert_eq!(read_trace(&mut Cursor::new(buf.clone())).unwrap(), t, "v{version}");
            assert_eq!(read_trace_bytes(&buf).unwrap(), t, "v{version}");

            let view = RawTraceView::parse(&buf).unwrap();
            assert_eq!(view.version(), version);
            assert_eq!(view.to_trace().unwrap(), t, "v{version}");
            assert_eq!(view.validate().unwrap(), t.num_events() as u64);
            for (raw_thread, stream) in view.threads().iter().zip(&t.threads) {
                assert_eq!(raw_thread.tid, stream.tid);
                assert_eq!(raw_thread.name, stream.name.as_deref());
                let mut tiled = Vec::new();
                for (ev, owned) in raw_thread.events().zip(&stream.events) {
                    let ev = ev.unwrap();
                    assert_eq!(&ev.event(), owned);
                    tiled.extend_from_slice(ev.raw);
                }
                assert_eq!(tiled, raw_thread.section(), "v{version} raw windows must tile");
            }
        }
    }

    /// Trailing bytes after the declared events make the section
    /// inconsistent: strict readers and the validator reject, salvage
    /// keeps the decoded prefix and records the anomaly.
    #[test]
    fn raw_view_rejects_trailing_section_bytes() {
        // One ThreadStart record (2 bytes) plus a stray byte.
        let buf = v2_with_section(&[0, 11, 0], 1);
        assert!(read_trace_bytes(&buf).is_err());
        let view = RawTraceView::parse(&buf).unwrap();
        assert!(view.validate().unwrap_err().to_string().contains("trailing"));
        let (back, anomalies) = read_trace_bytes_salvage(&buf, &Budget::unlimited()).unwrap();
        assert_eq!(back.num_events(), 1);
        assert!(anomalies.iter().any(|a| matches!(a, Anomaly::CorruptSection { .. })));
    }

    /// An event count no section of that byte length could hold is
    /// rejected at parse time, before anything sizes an allocation on it.
    #[test]
    fn declared_count_exceeding_section_capacity_rejected() {
        let buf = v2_with_section(&[0, 11], 5);
        let err = RawTraceView::parse(&buf).unwrap_err();
        assert!(err.to_string().contains("section capacity"), "{err}");
        assert!(read_trace_bytes(&buf).is_err());

        // Salvage decodes such sections instead, but reserves no more
        // events than the section's bytes can hold.
        for (section, nev) in [(&[0u8, 11][..], 5), (&[][..], 1 << 20)] {
            let buf = v2_with_section(section, nev);
            let (back, anomalies) = read_trace_bytes_salvage(&buf, &Budget::unlimited()).unwrap();
            let events = &back.threads[0].events;
            assert!(events.capacity() <= section.len() / 2, "capacity {}", events.capacity());
            assert_eq!(events.len(), section.len() / 2);
            assert!(matches!(anomalies[..], [Anomaly::CorruptSection { .. }]), "{anomalies:?}");
        }
    }

    /// Salvage words a preamble fault as the `io::Read` helpers do, a
    /// length claim past their 1 GiB cap included.
    #[test]
    fn salvage_rejects_unreasonable_preamble_length() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        write_varint(&mut buf, VERSION).unwrap();
        write_varint(&mut buf, 1 << 31).unwrap(); // meta length
        let err = read_trace_bytes_salvage(&buf, &Budget::unlimited()).unwrap_err();
        assert!(err.to_string().contains("unreasonable length"), "{err}");
    }

    /// A corrupt length claim near the 1 GiB cap over a short input must
    /// fail from the input running out, not commit the huge allocation.
    #[test]
    fn huge_length_claim_is_a_cheap_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        write_varint(&mut buf, VERSION).unwrap();
        write_varint(&mut buf, (1u64 << 30) - 1).unwrap(); // meta length
        buf.extend_from_slice(b"{}");
        let err = read_trace(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }
}
