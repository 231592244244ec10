//! The durable forward spool: `<journal_dir>/outbox.clag`.
//!
//! Whenever a rollup push to the parent fails (including the bounded
//! shutdown flush), the forwarder persists the rollup it tried to send
//! here, so a child that dies with its parent unreachable loses nothing:
//! a restarted collector merges the spool back into its rollup state and
//! re-forwards it, and `critlock aggregate <journal-dir>` ingests an
//! orphaned spool directly (the CLAG merge is idempotent, so a spool
//! that was in fact delivered is harmless to ingest again).
//!
//! The spool is replaced **atomically**: the new document is written to
//! `outbox.clag.tmp`, fsynced, and renamed over the old spool; the
//! directory is fsynced after the rename so the new name itself survives
//! a power cut. A crash at any byte leaves either the previous spool or
//! the new one on disk, never a torn file — and the CLAG CRC framing
//! rejects any other corruption at load time, so a reader never observes
//! a torn rollup. All writes go through the injectable [`JournalIo`]
//! layer and are charged to the collector's [`DiskBudget`], so the chaos
//! suite can fault the spool path and a quota-bounded collector accounts
//! for its spool bytes.

use crate::io::{file_len, replace_file, DiskBudget, JournalIo, RealIo};
use critlock_trace::rollup::Rollup;
use std::io;
use std::path::{Path, PathBuf};

/// File name of the spool inside the journal directory.
pub const OUTBOX_FILE: &str = "outbox.clag";

/// Where the spool lives under `dir`.
pub fn outbox_path(dir: &Path) -> PathBuf {
    dir.join(OUTBOX_FILE)
}

/// Atomically replace the spool with `rollup`: write-to-temp, fsync,
/// rename, fsync the directory. The rename is the commit point.
pub fn save(dir: &Path, rollup: &Rollup) -> io::Result<()> {
    save_with(&RealIo, &DiskBudget::unlimited(), dir, rollup)
}

/// [`save`] through an explicit I/O layer and disk budget. The spool is
/// written even when it pushes the budget over its limit: losing the
/// rollup outright is strictly worse than transiently overshooting the
/// quota, and the overshoot is bounded by one rollup document.
pub fn save_with(
    io: &dyn JournalIo,
    budget: &DiskBudget,
    dir: &Path,
    rollup: &Rollup,
) -> io::Result<()> {
    replace_file(io, budget, dir, OUTBOX_FILE, &rollup.to_bytes())
}

/// Load the spooled rollup, if a spool exists and decodes. A spool that
/// fails the CLAG framing or CRC (disk corruption — atomic replacement
/// never produces one) is treated as absent rather than fatal: the
/// collector starts and the bad file is left in place for inspection.
pub fn load(dir: &Path) -> Option<Rollup> {
    let path = outbox_path(dir);
    if !path.exists() {
        return None;
    }
    Rollup::load(&path).ok()
}

/// Remove the spool after a successful push delivered a rollup at least
/// as fresh as the spooled one. Missing files are fine (never spooled,
/// or already cleared).
pub fn clear(dir: &Path) -> io::Result<()> {
    clear_with(&RealIo, &DiskBudget::unlimited(), dir)
}

/// [`clear`] through an explicit I/O layer, returning the spool's bytes
/// to `budget`.
pub fn clear_with(io: &dyn JournalIo, budget: &DiskBudget, dir: &Path) -> io::Result<()> {
    let path = outbox_path(dir);
    let len = file_len(&path);
    match io.remove_file(&path) {
        Ok(()) => {
            budget.release(len);
            let _ = io.sync_dir(dir);
            Ok(())
        }
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}
