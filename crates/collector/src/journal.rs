//! Crash-safe, segmented, append-only session journals (write-ahead log
//! sidecars).
//!
//! When the collector is started with a journal directory, every frame a
//! session reader accepts is appended to that session's journal *before*
//! it is queued for analysis, and the acknowledgement sent to a resumable
//! producer only covers journaled frames. A collector that crashes and
//! restarts therefore recovers exactly the frames it acked:
//! [`recover_dir`] scans each session's segments in order, truncates any
//! torn tail left by a crash mid-append, and reopens the last segment so
//! the recovered session keeps journaling when its producer reconnects.
//!
//! ## Segments
//!
//! A session's journal is a sequence of segment files: the base
//! `<stem>.clsj` (segment 0) followed by `<stem>.clsj.0001`,
//! `<stem>.clsj.0002`, … — each a standalone CLSM stream
//! ([`critlock_trace::stream`]) whose handshake `start_seq` records the
//! global number of the segment's first frame. Rotation happens when the
//! active segment crosses the configured byte threshold
//! ([`JournalOptions::segment_bytes`]). Recovery tolerates a torn tail
//! only in the *last* segment; corruption in an earlier segment truncates
//! the session there and deletes the later segments (their frames were
//! acked against a journal that can no longer prove them contiguous).
//!
//! Segments whose last frame is at or below a durable checkpoint's
//! watermark carry no information the checkpoint doesn't, and are deleted
//! by [`SessionJournal::prune_absorbed`], returning their bytes to the
//! disk budget.
//!
//! All file I/O goes through the injectable [`JournalIo`] layer so the
//! chaos tests can drive ENOSPC, short writes and failed fsyncs through
//! the exact production code paths, and every successful write is charged
//! to the collector's [`DiskBudget`].

use crate::io::{DiskBudget, JournalFile, JournalIo, RealIo};
use crate::metrics::JournalCounters;
use critlock_trace::stream::{Handshake, RawFrame, StreamReader, StreamWriter};
use std::fs::File;
use std::io::{self, BufWriter, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File extension of session journals.
pub const JOURNAL_EXT: &str = "clsj";

/// How the journal layer talks to disk: the I/O implementation, the
/// collector-wide byte budget, the rotation threshold and the metric
/// handles. One value per collector, cloned into each session's journal.
#[derive(Debug, Clone)]
pub struct JournalOptions {
    /// The (injectable) filesystem layer.
    pub io: Arc<dyn JournalIo>,
    /// Collector-wide disk budget charged by every journal write.
    pub budget: DiskBudget,
    /// Rotate the active segment once it holds at least this many bytes.
    /// `None` disables rotation (single unbounded segment, the legacy
    /// layout).
    pub segment_bytes: Option<u64>,
    /// Observability counters, when the collector has a registry.
    pub counters: Option<JournalCounters>,
}

impl Default for JournalOptions {
    fn default() -> Self {
        JournalOptions {
            io: Arc::new(RealIo),
            budget: DiskBudget::unlimited(),
            segment_bytes: None,
            counters: None,
        }
    }
}

/// A closed (rotated-out) segment the active journal still tracks so it
/// can be pruned once a checkpoint absorbs it.
#[derive(Debug, Clone)]
struct ClosedSegment {
    path: PathBuf,
    /// Global frame number one past the segment's last frame.
    end: u64,
    /// Bytes the segment occupies on disk.
    bytes: u64,
}

/// An open, append-only, segmented journal for one session.
pub struct SessionJournal {
    opts: JournalOptions,
    writer: StreamWriter<BufWriter<Box<dyn JournalFile>>>,
    dir: PathBuf,
    stem: String,
    token: Vec<u8>,
    /// Index of the active segment.
    seg_index: u32,
    /// Global frame number of the active segment's first frame.
    seg_start: u64,
    /// Bytes written to the active segment (shared with the tracking
    /// wrapper around the file handle).
    seg_written: Arc<AtomicU64>,
    /// Total frames across all segments, i.e. the next frame's global
    /// number.
    frames: u64,
    closed: Vec<ClosedSegment>,
}

impl std::fmt::Debug for SessionJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionJournal")
            .field("stem", &self.stem)
            .field("seg_index", &self.seg_index)
            .field("frames", &self.frames)
            .finish()
    }
}

/// Hex-encode a session token for use as a file stem.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The journal file stem for a session: `<hex-token>`, or `anon-<id>`
/// for sessions without a resume token.
pub fn journal_stem(token: &[u8], session_id: u64) -> String {
    if token.is_empty() {
        format!("anon-{session_id}")
    } else {
        hex(token)
    }
}

/// The path of a session's journal segment `index`: the base
/// `<dir>/<stem>.clsj` for segment 0, `<dir>/<stem>.clsj.NNNN` after.
pub fn segment_path(dir: &Path, stem: &str, index: u32) -> PathBuf {
    if index == 0 {
        dir.join(format!("{stem}.{JOURNAL_EXT}"))
    } else {
        dir.join(format!("{stem}.{JOURNAL_EXT}.{index:04}"))
    }
}

/// The base journal path for a session (segment 0) — kept for callers
/// that only need a per-session file identity.
pub fn journal_path(dir: &Path, token: &[u8], session_id: u64) -> PathBuf {
    segment_path(dir, &journal_stem(token, session_id), 0)
}

/// Parse a directory entry's file name as `(stem, segment index)`.
/// Returns `None` for files that are not journal segments.
fn parse_segment_name(name: &str) -> Option<(String, u32)> {
    let base_suffix = format!(".{JOURNAL_EXT}");
    if let Some(stem) = name.strip_suffix(&base_suffix) {
        if stem.is_empty() {
            return None;
        }
        return Some((stem.to_string(), 0));
    }
    let marker = format!(".{JOURNAL_EXT}.");
    let pos = name.rfind(&marker)?;
    let stem = &name[..pos];
    let idx_str = &name[pos + marker.len()..];
    if stem.is_empty() || idx_str.is_empty() || !idx_str.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let idx: u32 = idx_str.parse().ok()?;
    Some((stem.to_string(), idx))
}

impl SessionJournal {
    /// Create the journal for a session (segment 0), writing the CLSM
    /// header with the session's resume token and making it durable:
    /// header bytes are fsynced and the parent directory entry is fsynced
    /// so the file cannot vanish after a crash.
    pub fn create(
        dir: &Path,
        token: &[u8],
        session_id: u64,
        opts: JournalOptions,
    ) -> io::Result<SessionJournal> {
        let stem = journal_stem(token, session_id);
        let mut journal = SessionJournal {
            opts,
            // Placeholder; replaced by `open_segment` below before use.
            writer: StreamWriter::append(BufWriter::new(null_file())),
            dir: dir.to_path_buf(),
            stem,
            token: token.to_vec(),
            seg_index: 0,
            seg_start: 0,
            seg_written: Arc::new(AtomicU64::new(0)),
            frames: 0,
            closed: Vec::new(),
        };
        journal.open_segment(0, 0).map_err(|e| journal.count_error(e))?;
        Ok(journal)
    }

    /// Attach observability counters: appends, append failures, syncs,
    /// rotations and errors are accounted where the I/O happens.
    pub fn set_counters(&mut self, counters: JournalCounters) {
        self.opts.counters = Some(counters);
    }

    /// Open segment `index` as the active writer, with `start` as the
    /// global number of its first frame. Writes and fsyncs the CLSM
    /// header and fsyncs the directory entry.
    fn open_segment(&mut self, index: u32, start: u64) -> io::Result<()> {
        if self.opts.budget.exhausted() {
            return Err(DiskBudget::quota_error());
        }
        let path = segment_path(&self.dir, &self.stem, index);
        let seg_written = Arc::new(AtomicU64::new(0));
        let file = self.opts.io.create(&path)?;
        let file = self.opts.budget.track(file, Some(Arc::clone(&seg_written)));
        let handshake = Handshake { token: self.token.clone(), start_seq: start };
        let mut writer =
            StreamWriter::with_handshake(BufWriter::new(file), &handshake).map_err(io_err)?;
        // Make the header itself durable, not merely buffered: a segment
        // whose header is lost loses every frame behind it.
        writer.flush().map_err(io_err)?;
        writer.inner_mut().get_mut().sync_data()?;
        self.opts.io.sync_dir(&self.dir)?;
        self.writer = writer;
        self.seg_index = index;
        self.seg_start = start;
        self.seg_written = seg_written;
        Ok(())
    }

    fn count_error(&self, e: io::Error) -> io::Error {
        if let Some(c) = &self.opts.counters {
            c.errors.inc();
        }
        e
    }

    /// Append a received frame's wire bytes verbatim and flush them to
    /// the OS. The frame is durable against a collector crash once this
    /// returns (durability against a machine crash additionally needs
    /// [`SessionJournal::sync`]). Fails with
    /// [`io::ErrorKind::StorageFull`] when the disk budget is exhausted;
    /// the caller degrades the session to journal-less mode.
    pub fn append_raw(&mut self, raw: &RawFrame) -> io::Result<()> {
        if self.opts.budget.exhausted() {
            let e = DiskBudget::quota_error();
            if let Some(c) = &self.opts.counters {
                c.append_failures.inc();
                c.errors.inc();
            }
            return Err(e);
        }
        let res =
            self.writer.write_raw_frame(raw).and_then(|()| self.writer.flush()).map_err(io_err);
        match res {
            Ok(()) => {
                self.frames += 1;
                if let Some(c) = &self.opts.counters {
                    c.appends.inc();
                }
                self.maybe_rotate();
                Ok(())
            }
            Err(e) => {
                if let Some(c) = &self.opts.counters {
                    c.append_failures.inc();
                    c.errors.inc();
                }
                Err(e)
            }
        }
    }

    /// Rotate when the active segment has crossed the byte threshold.
    /// A failed rotation is not fatal: the active segment keeps growing
    /// and rotation is retried after the next append.
    fn maybe_rotate(&mut self) {
        let Some(threshold) = self.opts.segment_bytes else { return };
        if self.seg_written.load(Ordering::Relaxed) < threshold {
            return;
        }
        if let Err(e) = self.rotate_to(self.frames) {
            let _ = self.count_error(e);
        }
    }

    /// Close the active segment (fsyncing it) and open the next one with
    /// `start` as its first global frame number. `start` beyond the
    /// current frame count realigns a recovered journal whose checkpoint
    /// watermark outran its surviving frames.
    fn rotate_to(&mut self, start: u64) -> io::Result<()> {
        // Close out the current segment durably before abandoning it.
        self.writer.flush().map_err(io_err)?;
        self.writer.inner_mut().get_mut().sync_data()?;
        let old_path = segment_path(&self.dir, &self.stem, self.seg_index);
        let old = ClosedSegment {
            path: old_path,
            end: self.frames,
            bytes: self.seg_written.load(Ordering::Relaxed),
        };
        let next = self.seg_index + 1;
        self.open_segment(next, start)?;
        self.closed.push(old);
        self.frames = start;
        if let Some(c) = &self.opts.counters {
            c.rotations.inc();
        }
        Ok(())
    }

    /// Realign the journal to a checkpoint watermark that lies beyond the
    /// surviving frames (the journal degraded while checkpoints kept
    /// advancing): opens a fresh segment starting at `watermark`, leaving
    /// every old segment fully absorbed and thus prunable.
    pub fn align_to(&mut self, watermark: u64) -> io::Result<()> {
        if watermark <= self.frames {
            return Ok(());
        }
        self.rotate_to(watermark).map_err(|e| self.count_error(e))
    }

    /// Flush and fsync the journal file. Failed syncs are counted in the
    /// journal error counter.
    pub fn sync(&mut self) -> io::Result<()> {
        let res = self
            .writer
            .flush()
            .map_err(io_err)
            .and_then(|()| self.writer.inner_mut().get_mut().sync_data());
        match res {
            Ok(()) => {
                if let Some(c) = &self.opts.counters {
                    c.syncs.inc();
                }
                Ok(())
            }
            Err(e) => Err(self.count_error(e)),
        }
    }

    /// Delete every closed segment fully absorbed by a checkpoint at
    /// `watermark` (its last frame is below the watermark), returning the
    /// bytes to the disk budget. Returns `(segments deleted, bytes freed)`.
    pub fn prune_absorbed(&mut self, watermark: u64) -> (u64, u64) {
        let mut deleted = 0usize;
        let mut freed = 0u64;
        // Delete only a contiguous prefix: skipping over a segment that
        // failed to delete would leave a gap recovery treats as torn.
        for seg in &self.closed {
            if seg.end > watermark || self.opts.io.remove_file(&seg.path).is_err() {
                break;
            }
            self.opts.budget.release(seg.bytes);
            freed += seg.bytes;
            deleted += 1;
        }
        self.closed.drain(..deleted);
        if deleted > 0 {
            let _ = self.opts.io.sync_dir(&self.dir);
        }
        (deleted as u64, freed)
    }

    /// Frames written to this journal across all segments (including
    /// recovered ones) — the next frame's global number.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// The active segment's path.
    pub fn path(&self) -> PathBuf {
        segment_path(&self.dir, &self.stem, self.seg_index)
    }

    /// The session's file stem (`anon-N` or the hex token).
    pub fn stem(&self) -> &str {
        &self.stem
    }

    /// Closed segments not yet pruned.
    pub fn closed_segments(&self) -> usize {
        self.closed.len()
    }
}

/// An always-failing placeholder file used only while constructing a
/// journal, before the first real segment is opened.
fn null_file() -> Box<dyn JournalFile> {
    struct NullFile;
    impl io::Write for NullFile {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("journal segment not open"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl JournalFile for NullFile {
        fn sync_data(&mut self) -> io::Result<()> {
            Err(io::Error::other("journal segment not open"))
        }
    }
    Box::new(NullFile)
}

fn io_err(e: critlock_trace::TraceError) -> io::Error {
    match e {
        critlock_trace::TraceError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// One intact journal segment found by recovery.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// The segment file.
    pub path: PathBuf,
    /// Global frame number of the segment's first frame.
    pub start: u64,
    /// Global frame number one past the segment's last intact frame.
    pub end: u64,
    /// Bytes of intact data (header + frames) in the segment.
    pub bytes: u64,
}

/// One session recovered from its journal segments.
pub struct RecoveredSession {
    /// The resume token the journal was created with (empty for
    /// anonymous sessions).
    pub token: Vec<u8>,
    /// The session's file stem (`anon-N` or the hex token).
    pub stem: String,
    /// Global frame number one past the last intact frame — what a full
    /// replay reproduces.
    pub frames: u64,
    /// Every intact segment, in order. The first segment's `start` can be
    /// nonzero when earlier segments were pruned by a checkpoint.
    pub segments: Vec<SegmentInfo>,
    /// The journal, reopened for appending after the last intact frame.
    pub journal: SessionJournal,
}

impl RecoveredSession {
    /// Stream every intact frame with global number `>= from` through
    /// `apply`, in order, reading one raw frame at a time — recovery
    /// memory stays bounded by the largest single frame, not the journal
    /// size. Returns the number of frames applied.
    pub fn replay_tail(&self, from: u64, mut apply: impl FnMut(RawFrame)) -> io::Result<u64> {
        let mut applied = 0u64;
        for seg in &self.segments {
            if seg.end <= from {
                continue;
            }
            let file = File::open(&seg.path)?;
            let mut stream = StreamReader::new(file).map_err(io_err)?;
            let mut next = seg.start;
            while next < seg.end {
                let frame = match stream.next_frame_raw() {
                    Ok(Some(frame)) => frame,
                    // The intact range was measured by the scan; running
                    // short of it means the file changed underneath us.
                    _ => return Err(io::Error::other("journal segment shrank during replay")),
                };
                if next >= from {
                    apply(frame);
                    applied += 1;
                }
                next += 1;
            }
        }
        Ok(applied)
    }
}

/// Counts bytes actually consumed from the underlying reader, so
/// recovery knows the exact offset of the last intact frame. The counter
/// is shared so it stays readable while the decoder owns the reader.
struct CountingReader<R> {
    inner: R,
    pos: std::rc::Rc<std::cell::Cell<u64>>,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.pos.set(self.pos.get() + n as u64);
        Ok(n)
    }
}

/// Scan one segment file: handshake, frame count, and the byte offset of
/// the last intact frame. Frames are validated and discarded one at a
/// time, without materializing their events.
fn scan_segment(path: &Path) -> io::Result<(Handshake, u64, u64)> {
    let file = File::open(path)?;
    // No BufReader here: read-ahead would inflate the byte count past
    // what the decoder actually consumed, corrupting the truncation
    // offset. Recovery is a one-shot startup cost.
    let pos = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let reader = CountingReader { inner: file, pos: std::rc::Rc::clone(&pos) };
    let mut stream = StreamReader::new(reader).map_err(io_err)?;
    let handshake = stream.handshake().clone();
    let mut frames = 0u64;
    let mut good_pos = pos.get();
    // A decode error here is a torn tail (crash mid-append), not a fatal
    // condition: everything before it was acked and is recovered.
    while let Ok(Some(_)) = stream.next_frame_raw() {
        frames += 1;
        good_pos = pos.get();
    }
    Ok((handshake, frames, good_pos))
}

/// Recover one session from its ordered segment paths. Returns `None`
/// when not even the first segment yields a readable handshake.
fn recover_session(
    dir: &Path,
    stem: &str,
    indexed: &[(u32, PathBuf)],
    opts: &JournalOptions,
) -> Option<RecoveredSession> {
    let mut segments: Vec<SegmentInfo> = Vec::new();
    let mut token: Option<Vec<u8>> = None;
    let mut expected_start: Option<u64> = None;
    let mut last_scan: Option<(u32, u64)> = None; // (index, good_pos)
    let mut torn_after: Option<usize> = None; // position in `indexed` to delete from

    for (i, (idx, path)) in indexed.iter().enumerate() {
        // A gap in segment indices below means the chain is broken there.
        let chain_broken = match last_scan {
            Some((prev_idx, _)) => *idx != prev_idx + 1,
            None => false,
        };
        if chain_broken {
            torn_after = Some(i);
            break;
        }
        match scan_segment(path) {
            Ok((handshake, frames, good_pos)) => {
                match (&token, &expected_start) {
                    (None, _) => {
                        token = Some(handshake.token.clone());
                        expected_start = Some(handshake.start_seq);
                    }
                    (Some(tok), Some(exp))
                        if handshake.token != *tok || handshake.start_seq != *exp =>
                    {
                        // Mismatched continuation: stop the chain here.
                        torn_after = Some(i);
                        break;
                    }
                    _ => {}
                }
                let start = expected_start.unwrap();
                segments.push(SegmentInfo {
                    path: path.clone(),
                    start,
                    end: start + frames,
                    bytes: good_pos,
                });
                expected_start = Some(start + frames);
                last_scan = Some((*idx, good_pos));
            }
            Err(_) if token.is_some() => {
                // Unreadable later segment: torn mid-chain.
                torn_after = Some(i);
                break;
            }
            Err(_) => return None,
        }
    }

    // Corruption mid-chain: everything from the broken segment on is
    // unprovable — delete it so the surviving prefix is the journal.
    if let Some(cut) = torn_after {
        for (_, path) in &indexed[cut..] {
            if let Ok(meta) = std::fs::metadata(path) {
                if opts.io.remove_file(path).is_ok() {
                    opts.budget.release(meta.len());
                }
            }
        }
        let _ = opts.io.sync_dir(dir);
    }

    let last = segments.last()?.clone();
    let frames = last.end;
    let (last_idx, good_pos) = last_scan?;

    // Reopen the last segment for appending, cutting any torn tail.
    let file = opts.io.open_truncate_append(&last.path, good_pos).ok()?;
    let seg_written = Arc::new(AtomicU64::new(good_pos));
    let file = opts.budget.track(file, Some(Arc::clone(&seg_written)));
    let writer = StreamWriter::append(BufWriter::new(file));

    let closed = segments[..segments.len() - 1]
        .iter()
        .map(|seg| ClosedSegment { path: seg.path.clone(), end: seg.end, bytes: seg.bytes })
        .collect();

    let journal = SessionJournal {
        opts: opts.clone(),
        writer,
        dir: dir.to_path_buf(),
        stem: stem.to_string(),
        token: token.clone().unwrap_or_default(),
        seg_index: last_idx,
        seg_start: last.start,
        seg_written,
        frames,
        closed,
    };

    Some(RecoveredSession {
        token: token.unwrap_or_default(),
        stem: stem.to_string(),
        frames,
        segments,
        journal,
    })
}

/// Recover every session's journal segments in a directory, grouped by
/// stem and scanned in segment order (deterministic across runs).
/// Sessions whose first segment is unreadable are skipped and reported
/// alongside the successes. `opts` supplies the I/O layer and budget the
/// reopened journals keep using.
pub fn recover_dir_with(
    dir: &Path,
    opts: &JournalOptions,
) -> io::Result<(Vec<RecoveredSession>, u64)> {
    let mut by_stem: std::collections::BTreeMap<String, Vec<(u32, PathBuf)>> =
        std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let Ok(entry) = entry else { continue };
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if let Some((stem, idx)) = parse_segment_name(name) {
            by_stem.entry(stem).or_default().push((idx, path));
        }
    }
    let mut recovered = Vec::new();
    let mut skipped = 0u64;
    for (stem, mut indexed) in by_stem {
        indexed.sort_by_key(|(idx, _)| *idx);
        match recover_session(dir, &stem, &indexed, opts) {
            Some(session) => recovered.push(session),
            None => skipped += 1,
        }
    }
    Ok((recovered, skipped))
}

/// [`recover_dir_with`] using the production I/O layer and no budget —
/// the convenience entry point for tools and tests.
pub fn recover_dir(dir: &Path) -> io::Result<(Vec<RecoveredSession>, u64)> {
    recover_dir_with(dir, &JournalOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use critlock_trace::stream::{crc32, Frame};
    use critlock_trace::TraceMeta;
    use std::io::Write;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("critlock-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Start { meta: TraceMeta::named("journaled") },
            Frame::Param { key: "threads".into(), value: "2".into() },
            Frame::End,
        ]
    }

    fn raw(frame: &Frame) -> RawFrame {
        RawFrame::encode(frame).unwrap()
    }

    fn collect_frames(rec: &RecoveredSession) -> Vec<Frame> {
        let mut frames = Vec::new();
        rec.replay_tail(0, |f| frames.push(f.decode().unwrap())).unwrap();
        frames
    }

    #[test]
    fn append_then_recover_roundtrips() {
        let dir = tmpdir("roundtrip");
        let mut journal =
            SessionJournal::create(&dir, b"tok", 0, JournalOptions::default()).unwrap();
        for frame in sample_frames() {
            journal.append_raw(&raw(&frame)).unwrap();
        }
        journal.sync().unwrap();
        assert_eq!(journal.frames(), 3);
        drop(journal);

        let (sessions, skipped) = recover_dir(&dir).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].token, b"tok");
        assert_eq!(sessions[0].frames, 3);
        assert_eq!(collect_frames(&sessions[0]), sample_frames());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_raw_writes_the_producer_stream_verbatim() {
        let dir = tmpdir("raw-append");
        let mut journal =
            SessionJournal::create(&dir, b"tok", 0, JournalOptions::default()).unwrap();
        for frame in sample_frames() {
            journal.append_raw(&raw(&frame)).unwrap();
        }
        journal.sync().unwrap();
        assert_eq!(journal.frames(), 3);
        let path = journal.path();
        drop(journal);
        // The segment is byte for byte the CLSM stream a producer sends
        // for the same handshake and frames.
        let mut expected = Vec::new();
        let handshake = Handshake { token: b"tok".to_vec(), start_seq: 0 };
        let mut w = StreamWriter::with_handshake(&mut expected, &handshake).unwrap();
        for frame in sample_frames() {
            w.write_frame(&frame).unwrap();
        }
        w.flush().unwrap();
        assert_eq!(std::fs::read(path).unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_valid_malformed_tail_frame_is_cut_like_a_torn_one() {
        // Payloads whose CRC is correct but whose grammar is not: an
        // Events frame whose one event has opcode 99, and a Thread frame
        // with name flag 7. Each is followed by a well-formed End frame
        // the scan must not reach.
        for (name, bad) in [("opcode", vec![4u8, 0, 1, 0, 99]), ("flag", vec![3u8, 0, 7])] {
            let dir = tmpdir(&format!("malformed-{name}"));
            let mut journal =
                SessionJournal::create(&dir, b"bad", 0, JournalOptions::default()).unwrap();
            let frames = sample_frames();
            journal.append_raw(&raw(&frames[0])).unwrap();
            journal.append_raw(&raw(&frames[1])).unwrap();
            let path = journal.path();
            drop(journal);
            let good_len = std::fs::metadata(&path).unwrap().len();
            {
                let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
                for payload in [&bad[..], &[5u8]] {
                    f.write_all(&[payload.len() as u8]).unwrap();
                    f.write_all(payload).unwrap();
                    f.write_all(&crc32(payload).to_le_bytes()).unwrap();
                }
            }

            let (mut sessions, skipped) = recover_dir(&dir).unwrap();
            assert_eq!(skipped, 0, "{name}");
            let mut rec = sessions.pop().unwrap();
            assert_eq!(rec.frames, 2, "{name}");
            assert_eq!(rec.segments[0].bytes, good_len, "{name}");
            assert_eq!(collect_frames(&rec), frames[..2].to_vec(), "{name}");
            // Reopening cut the file at the last intact frame, and the
            // journal appends from there.
            assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len, "{name}");
            rec.journal.append_raw(&raw(&frames[2])).unwrap();
            drop(rec);
            let (sessions, _) = recover_dir(&dir).unwrap();
            assert_eq!(collect_frames(&sessions[0]), frames, "{name}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = tmpdir("torn");
        let mut journal =
            SessionJournal::create(&dir, b"t2", 0, JournalOptions::default()).unwrap();
        let frames = sample_frames();
        journal.append_raw(&raw(&frames[0])).unwrap();
        journal.append_raw(&raw(&frames[1])).unwrap();
        let path = journal.path();
        drop(journal);

        // Simulate a crash mid-append: garbage half-frame at the tail.
        {
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x19, 0xde, 0xad]).unwrap();
        }

        let (mut sessions, _) = recover_dir(&dir).unwrap();
        let mut rec = sessions.pop().unwrap();
        assert_eq!(collect_frames(&rec), frames[..2].to_vec());

        // The reopened journal appends cleanly after the truncated tail.
        rec.journal.append_raw(&raw(&frames[2])).unwrap();
        drop(rec);
        let (sessions, _) = recover_dir(&dir).unwrap();
        assert_eq!(collect_frames(&sessions[0]), frames);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn anon_sessions_get_distinct_files() {
        let dir = tmpdir("anon");
        let a = SessionJournal::create(&dir, b"", 3, JournalOptions::default()).unwrap();
        let b = SessionJournal::create(&dir, b"", 4, JournalOptions::default()).unwrap();
        assert_ne!(a.path(), b.path());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_journals_are_skipped_not_fatal() {
        let dir = tmpdir("skip");
        std::fs::write(dir.join(format!("bogus.{JOURNAL_EXT}")), b"not a stream").unwrap();
        let mut good = SessionJournal::create(&dir, b"ok", 0, JournalOptions::default()).unwrap();
        good.append_raw(&raw(&Frame::End)).unwrap();
        drop(good);
        let (sessions, skipped) = recover_dir(&dir).unwrap();
        assert_eq!(sessions.len(), 1);
        assert_eq!(skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_segments_and_recovery_reassembles() {
        let dir = tmpdir("rotate");
        let opts = JournalOptions { segment_bytes: Some(1), ..JournalOptions::default() };
        let mut journal = SessionJournal::create(&dir, b"rot", 0, opts).unwrap();
        // Threshold of 1 byte: every append rotates, one frame per segment.
        let frames = sample_frames();
        for frame in &frames {
            journal.append_raw(&raw(frame)).unwrap();
        }
        assert_eq!(journal.closed_segments(), 3);
        drop(journal);

        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.len() >= 4, "expected rotated segments, got {names:?}");

        let (sessions, skipped) = recover_dir(&dir).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].frames, 3);
        assert_eq!(collect_frames(&sessions[0]), frames);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_middle_segment_truncates_the_chain_there() {
        let dir = tmpdir("tornmid");
        let opts = JournalOptions { segment_bytes: Some(1), ..JournalOptions::default() };
        let mut journal = SessionJournal::create(&dir, b"mid", 0, opts).unwrap();
        let stem = journal.stem().to_string();
        let frames = sample_frames();
        for frame in &frames {
            journal.append_raw(&raw(frame)).unwrap();
        }
        drop(journal);

        // Corrupt segment 1 of {0, 1, 2, 3}: recovery must keep only
        // segment 0 and delete segments 1..N.
        let seg1 = segment_path(&dir, &stem, 1);
        let mut bytes = std::fs::read(&seg1).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&seg1, &bytes[..bytes.len().min(last)]).unwrap();

        let (sessions, skipped) = recover_dir(&dir).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(sessions.len(), 1);
        assert_eq!(collect_frames(&sessions[0]), frames[..1].to_vec());
        assert!(!segment_path(&dir, &stem, 2).exists(), "later segments must be deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_absorbed_deletes_only_covered_segments() {
        let dir = tmpdir("prune");
        let opts = JournalOptions { segment_bytes: Some(1), ..JournalOptions::default() };
        let mut journal = SessionJournal::create(&dir, b"pr", 0, opts).unwrap();
        let stem = journal.stem().to_string();
        for frame in sample_frames() {
            journal.append_raw(&raw(&frame)).unwrap();
        }
        // Segments: 0 -> [0,1), 1 -> [1,2), 2 -> [2,3), 3 active (empty).
        let (deleted, _) = journal.prune_absorbed(2);
        assert_eq!(deleted, 2);
        assert!(!segment_path(&dir, &stem, 0).exists());
        assert!(!segment_path(&dir, &stem, 1).exists());
        assert!(segment_path(&dir, &stem, 2).exists());

        // Recovery still works from the pruned chain: first surviving
        // segment starts at frame 2.
        drop(journal);
        let (sessions, skipped) = recover_dir(&dir).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(sessions[0].frames, 3);
        assert_eq!(sessions[0].segments[0].start, 2);
        assert_eq!(collect_frames(&sessions[0]), sample_frames()[2..].to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quota_exhaustion_fails_appends_with_storage_full() {
        let dir = tmpdir("quota");
        let budget = DiskBudget::with_limit(Some(64));
        let opts = JournalOptions { budget: budget.clone(), ..JournalOptions::default() };
        let mut journal = SessionJournal::create(&dir, b"q", 0, opts).unwrap();
        budget.seed(64);
        let err = journal.append_raw(&raw(&Frame::End)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn align_to_opens_a_fresh_segment_at_the_watermark() {
        let dir = tmpdir("align");
        let mut journal =
            SessionJournal::create(&dir, b"al", 0, JournalOptions::default()).unwrap();
        journal.append_raw(&raw(&sample_frames()[0])).unwrap();
        journal.align_to(10).unwrap();
        assert_eq!(journal.frames(), 10);
        // The pre-alignment segment is fully absorbed by watermark 10.
        let (deleted, _) = journal.prune_absorbed(10);
        assert_eq!(deleted, 1);
        journal.append_raw(&raw(&Frame::End)).unwrap();
        drop(journal);

        let (sessions, _) = recover_dir(&dir).unwrap();
        assert_eq!(sessions[0].frames, 11);
        assert_eq!(sessions[0].segments[0].start, 10);
        assert_eq!(collect_frames(&sessions[0]), vec![Frame::End]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_name_parsing() {
        assert_eq!(parse_segment_name("a1b2.clsj"), Some(("a1b2".into(), 0)));
        assert_eq!(parse_segment_name("anon-3.clsj.0001"), Some(("anon-3".into(), 1)));
        assert_eq!(parse_segment_name("x.clsj.12345"), Some(("x".into(), 12345)));
        assert_eq!(parse_segment_name("x.clck"), None);
        assert_eq!(parse_segment_name("x.clsj.tmp"), None);
        assert_eq!(parse_segment_name(".clsj"), None);
    }
}
