//! The injectable storage layer under journals, checkpoints and the
//! outbox spool.
//!
//! Every durable write the collector performs goes through a
//! [`JournalIo`] implementation. Production uses [`RealIo`] (plain
//! `std::fs`); chaos tests swap in [`FaultyIo`], which injects
//! deterministic disk faults — ENOSPC at byte N, short writes, failed
//! fsyncs, failed renames — at the exact layer real disks fail, so the
//! recovery invariants are exercised against the same code paths
//! production runs.
//!
//! [`DiskBudget`] is the collector-wide disk governor: a shared byte
//! counter charged by every tracked write and released when segments or
//! checkpoints are pruned. When the budget is exhausted, journal and
//! checkpoint writes fail with [`std::io::ErrorKind::StorageFull`] and
//! the owning session degrades to journal-less mode instead of wedging
//! ingestion.

use std::fmt::Debug;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A writable durable file handle: everything the journal, checkpoint
/// and outbox writers need from an open file.
pub trait JournalFile: Write + Send {
    /// Flush file *data* to stable storage (`fdatasync` semantics).
    fn sync_data(&mut self) -> io::Result<()>;
}

impl JournalFile for File {
    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }
}

/// The filesystem operations the collector's durable paths are built on.
/// Implementations must be shareable across threads; the collector holds
/// one instance in its config and threads it everywhere.
pub trait JournalIo: Debug + Send + Sync {
    /// Create (truncate) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn JournalFile>>;

    /// Open an existing file, truncate it to `len` bytes and position the
    /// handle at the new end — the journal-recovery reopen: the torn tail
    /// is cut and appends continue where the intact prefix ends.
    fn open_truncate_append(&self, path: &Path, len: u64) -> io::Result<Box<dyn JournalFile>>;

    /// Atomically rename `from` to `to` (the tmp+rename commit point).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Delete a file (segment pruning, outbox clearing).
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Make a directory entry durable: fsync the directory itself, so a
    /// file created or renamed into it cannot vanish from the directory
    /// after a crash. No-op on platforms without directory fsync.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The production [`JournalIo`]: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl JournalIo for RealIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn JournalFile>> {
        Ok(Box::new(File::create(path)?))
    }

    fn open_truncate_append(&self, path: &Path, len: u64) -> io::Result<Box<dyn JournalFile>> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Box::new(file))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    #[cfg(unix)]
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    #[cfg(not(unix))]
    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }
}

/// Collector-wide disk budget: a shared used-bytes counter plus an
/// optional limit (`serve --journal-quota-bytes`). Charged by every
/// tracked durable write; released when segments or checkpoints are
/// pruned; re-seeded from an on-disk scan at startup.
#[derive(Debug, Clone, Default)]
pub struct DiskBudget {
    used: Arc<AtomicU64>,
    limit: Option<u64>,
}

impl DiskBudget {
    /// A budget with no limit (tracking only).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget capped at `limit` bytes across all journals, checkpoints
    /// and the outbox spool.
    pub fn with_limit(limit: Option<u64>) -> Self {
        DiskBudget { used: Arc::new(AtomicU64::new(0)), limit }
    }

    /// Bytes currently accounted against the budget.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Overwrite the used-bytes counter with an authoritative value (the
    /// startup scan of everything on disk).
    pub fn seed(&self, bytes: u64) {
        self.used.store(bytes, Ordering::Relaxed);
    }

    /// Return pruned bytes to the budget (saturating).
    pub fn release(&self, bytes: u64) {
        let _ = self
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| Some(n.saturating_sub(bytes)));
    }

    /// Whether the budget is used up: further journal/checkpoint writes
    /// must fail with [`io::ErrorKind::StorageFull`].
    pub fn exhausted(&self) -> bool {
        self.limit.is_some_and(|limit| self.used() >= limit)
    }

    /// Whether charging `bytes` more would cross the limit.
    pub fn would_exceed(&self, bytes: u64) -> bool {
        self.limit.is_some_and(|limit| self.used().saturating_add(bytes) > limit)
    }

    /// The quota error a write against an exhausted budget fails with.
    pub fn quota_error() -> io::Error {
        io::Error::new(io::ErrorKind::StorageFull, "journal disk budget exhausted")
    }

    /// Wrap a file handle so successful writes charge this budget (and
    /// any extra counters, e.g. a per-segment size tracker).
    pub fn track(
        &self,
        file: Box<dyn JournalFile>,
        extra: Option<Arc<AtomicU64>>,
    ) -> Box<dyn JournalFile> {
        let mut counters = vec![Arc::clone(&self.used)];
        counters.extend(extra);
        Box::new(TrackedFile { inner: file, counters })
    }
}

/// A [`JournalFile`] that charges successfully written bytes to one or
/// more shared counters. Sits *above* the (possibly faulty) I/O layer, so
/// only bytes that actually reached the file are accounted.
struct TrackedFile {
    inner: Box<dyn JournalFile>,
    counters: Vec<Arc<AtomicU64>>,
}

impl Write for TrackedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        for counter in &self.counters {
            counter.fetch_add(n as u64, Ordering::Relaxed);
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl JournalFile for TrackedFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.inner.sync_data()
    }
}

/// The size of the file at `path`, 0 when it does not exist.
pub(crate) fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// The temporary file [`replace_file`] writes `dir/name` through.
pub(crate) fn tmp_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.tmp"))
}

/// Atomically replace `dir/name` with `bytes`: write the tmp file,
/// `fdatasync` it, rename it over the target and fsync `dir`. The rename
/// is the commit point, so a crash at any byte leaves the old file or
/// the new one, never a torn one. `budget` is charged the new bytes and
/// gets back those of the replaced file and of a stale tmp file left by
/// an earlier failed attempt.
pub(crate) fn replace_file(
    io: &dyn JournalIo,
    budget: &DiskBudget,
    dir: &Path,
    name: &str,
    bytes: &[u8],
) -> io::Result<()> {
    let tmp = tmp_path(dir, name);
    // The stale tmp is about to be truncated; return its bytes first so
    // the accounting can't drift up across repeated failures.
    budget.release(file_len(&tmp));
    let mut file = budget.track(io.create(&tmp)?, None);
    file.write_all(bytes)?;
    file.flush()?;
    file.sync_data()?;
    drop(file);
    let path = dir.join(name);
    let old_len = file_len(&path);
    io.rename(&tmp, &path)?;
    io.sync_dir(dir)?;
    budget.release(old_len);
    Ok(())
}

/// A deterministic disk-fault schedule for [`FaultyIo`]. Counters are
/// global across all files the instance touches, so "ENOSPC at byte N"
/// means the N-th byte written through this I/O layer, wherever it lands.
#[derive(Debug, Clone, Default)]
pub struct DiskFaultPlan {
    /// Bytes allowed across all writes before write calls start failing
    /// with [`io::ErrorKind::StorageFull`] — the injected full disk.
    pub write_budget_bytes: Option<u64>,
    /// When the budget-crossing write arrives, persist the prefix that
    /// still fits and fail only the remainder — a short write tearing a
    /// frame mid-payload, the torn-tail recovery case.
    pub short_final_write: bool,
    /// `sync_data` calls allowed before fsync starts failing.
    pub syncs_allowed: Option<u64>,
    /// Renames allowed before rename starts failing. A failed checkpoint
    /// rename leaves the tmp file in place — exactly the
    /// crash-after-tmp-write state when the process then dies.
    pub renames_allowed: Option<u64>,
    /// File creates allowed before creates start failing.
    pub creates_allowed: Option<u64>,
}

/// A [`JournalIo`] that wraps [`RealIo`] and injects the faults described
/// by a [`DiskFaultPlan`], deterministically.
#[derive(Debug)]
pub struct FaultyIo {
    plan: DiskFaultPlan,
    written: AtomicU64,
    syncs: AtomicU64,
    renames: AtomicU64,
    creates: AtomicU64,
}

impl FaultyIo {
    /// Build a fault-injecting I/O layer, ready to share via `Arc`.
    pub fn new(plan: DiskFaultPlan) -> Arc<Self> {
        Arc::new(FaultyIo {
            plan,
            written: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            renames: AtomicU64::new(0),
            creates: AtomicU64::new(0),
        })
    }

    fn injected(what: &str) -> io::Error {
        if what == "ENOSPC" {
            io::Error::new(io::ErrorKind::StorageFull, format!("injected fault: {what}"))
        } else {
            io::Error::other(format!("injected fault: {what}"))
        }
    }

    /// How many bytes the faulty layer still allows, if a write budget is
    /// configured.
    fn write_allowance(&self) -> Option<u64> {
        let budget = self.plan.write_budget_bytes?;
        Some(budget.saturating_sub(self.written.load(Ordering::Relaxed)))
    }
}

/// File handle wrapper routing writes and syncs through the fault plan.
struct FaultyFile {
    inner: Box<dyn JournalFile>,
    io: Arc<FaultyIo>,
}

impl Write for FaultyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(allow) = self.io.write_allowance() {
            if allow == 0 {
                return Err(FaultyIo::injected("ENOSPC"));
            }
            if (buf.len() as u64) > allow {
                if !self.io.plan.short_final_write {
                    self.io.written.fetch_add(allow, Ordering::Relaxed);
                    return Err(FaultyIo::injected("ENOSPC"));
                }
                // Short write: persist the prefix that fits. The caller's
                // `write_all` retries the remainder and hits ENOSPC above,
                // leaving a torn frame on disk.
                let n = self.inner.write(&buf[..allow as usize])?;
                self.io.written.fetch_add(n as u64, Ordering::Relaxed);
                return Ok(n);
            }
        }
        let n = self.inner.write(buf)?;
        self.io.written.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl JournalFile for FaultyFile {
    fn sync_data(&mut self) -> io::Result<()> {
        if let Some(allowed) = self.io.plan.syncs_allowed {
            if self.io.syncs.fetch_add(1, Ordering::Relaxed) >= allowed {
                return Err(FaultyIo::injected("fsync failure"));
            }
        }
        self.inner.sync_data()
    }
}

impl JournalIo for Arc<FaultyIo> {
    fn create(&self, path: &Path) -> io::Result<Box<dyn JournalFile>> {
        if let Some(allowed) = self.plan.creates_allowed {
            if self.creates.fetch_add(1, Ordering::Relaxed) >= allowed {
                return Err(FaultyIo::injected("create failure"));
            }
        }
        let inner = RealIo.create(path)?;
        Ok(Box::new(FaultyFile { inner, io: Arc::clone(self) }))
    }

    fn open_truncate_append(&self, path: &Path, len: u64) -> io::Result<Box<dyn JournalFile>> {
        let inner = RealIo.open_truncate_append(path, len)?;
        Ok(Box::new(FaultyFile { inner, io: Arc::clone(self) }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some(allowed) = self.plan.renames_allowed {
            if self.renames.fetch_add(1, Ordering::Relaxed) >= allowed {
                return Err(FaultyIo::injected("rename failure"));
            }
        }
        RealIo.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealIo.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        RealIo.sync_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("critlock-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn budget_charges_and_releases() {
        let budget = DiskBudget::with_limit(Some(10));
        assert!(!budget.exhausted());
        budget.seed(10);
        assert!(budget.exhausted());
        budget.release(4);
        assert_eq!(budget.used(), 6);
        assert!(!budget.exhausted());
        assert!(budget.would_exceed(5));
        assert!(!budget.would_exceed(4));
        budget.release(100);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn tracked_writes_charge_the_budget() {
        let dir = tmpdir("tracked");
        let budget = DiskBudget::unlimited();
        let mut f = budget.track(RealIo.create(&dir.join("a")).unwrap(), None);
        f.write_all(b"hello world").unwrap();
        assert_eq!(budget.used(), 11);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_fires_at_the_configured_byte() {
        let dir = tmpdir("enospc");
        let io = FaultyIo::new(DiskFaultPlan {
            write_budget_bytes: Some(8),
            ..DiskFaultPlan::default()
        });
        let mut f = io.create(&dir.join("a")).unwrap();
        f.write_all(b"12345678").unwrap();
        let err = f.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // Nothing of the failing write was persisted.
        f.flush().unwrap();
        assert_eq!(std::fs::metadata(dir.join("a")).unwrap().len(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_persists_the_prefix_then_fails() {
        let dir = tmpdir("short");
        let io = FaultyIo::new(DiskFaultPlan {
            write_budget_bytes: Some(5),
            short_final_write: true,
            ..DiskFaultPlan::default()
        });
        let mut f = io.create(&dir.join("a")).unwrap();
        let err = f.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        f.flush().unwrap();
        assert_eq!(std::fs::read(dir.join("a")).unwrap(), b"01234");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_and_rename_faults_trigger_after_allowance() {
        let dir = tmpdir("syncrename");
        let io = FaultyIo::new(DiskFaultPlan {
            syncs_allowed: Some(1),
            renames_allowed: Some(0),
            ..DiskFaultPlan::default()
        });
        let mut f = io.create(&dir.join("a")).unwrap();
        f.write_all(b"x").unwrap();
        f.flush().unwrap();
        f.sync_data().unwrap();
        assert!(f.sync_data().is_err());
        assert!(JournalIo::rename(&io, &dir.join("a"), &dir.join("b")).is_err());
        // The failed rename left the source in place (crash-after-tmp).
        assert!(dir.join("a").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
