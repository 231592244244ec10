//! Durable per-session checkpoint files.
//!
//! A checkpoint persists a session assembler's full fold state
//! ([`critlock_trace::checkpoint::CheckpointDoc`], the `CLCK` format) so
//! a restarted collector restores the assembler and replays only the
//! journal frames *past* the checkpoint watermark — O(tail) recovery —
//! and journal segments at or below the watermark can be pruned.
//!
//! Writes follow the tmp+fsync+rename discipline through the injectable
//! [`JournalIo`] layer: encode, write `<stem>.clck.tmp`, `fdatasync` it,
//! rename over `<stem>.clck`, fsync the directory. A crash at any point
//! leaves either the old checkpoint or the new one, never a torn file —
//! and a torn file (crash mid-tmp-write followed by a buggy rename)
//! would still be rejected by the payload CRC at load time. A failed
//! checkpoint write is never fatal: the journal remains authoritative
//! and recovery falls back to replaying more of it.

use crate::io::{file_len, replace_file, DiskBudget, JournalIo};
use critlock_trace::checkpoint::{decode_checkpoint, encode_checkpoint, CheckpointDoc};
use std::io;
use std::path::{Path, PathBuf};

/// File extension of session checkpoints.
pub const CHECKPOINT_EXT: &str = "clck";

/// The checkpoint path for a session stem: `<dir>/<stem>.clck`.
pub fn checkpoint_path(dir: &Path, stem: &str) -> PathBuf {
    dir.join(file_name(stem))
}

fn file_name(stem: &str) -> String {
    format!("{stem}.{CHECKPOINT_EXT}")
}

fn tmp_path(dir: &Path, stem: &str) -> PathBuf {
    crate::io::tmp_path(dir, &file_name(stem))
}

/// Write `doc` durably as `<dir>/<stem>.clck` via tmp+fsync+rename.
/// Charges the new bytes to `budget` and releases the bytes of the
/// checkpoint it replaces. Fails with
/// [`io::ErrorKind::StorageFull`](std::io::ErrorKind::StorageFull) when
/// the budget cannot take the encoded document.
pub fn write_checkpoint(
    io: &dyn JournalIo,
    budget: &DiskBudget,
    dir: &Path,
    stem: &str,
    doc: &CheckpointDoc,
) -> io::Result<()> {
    let bytes = encode_checkpoint(doc)?;
    if budget.would_exceed(bytes.len() as u64) {
        return Err(DiskBudget::quota_error());
    }
    replace_file(io, budget, dir, &file_name(stem), &bytes)
}

/// Load and CRC-validate a session's checkpoint. Returns `None` when the
/// file is absent, unreadable or corrupt — recovery then replays the
/// whole journal instead.
pub fn load_checkpoint(dir: &Path, stem: &str) -> Option<CheckpointDoc> {
    let bytes = std::fs::read(checkpoint_path(dir, stem)).ok()?;
    decode_checkpoint(&bytes).ok()
}

/// Delete a session's checkpoint (and any stale tmp), returning the
/// bytes to the budget. Missing files are fine.
pub fn remove_checkpoint(io: &dyn JournalIo, budget: &DiskBudget, dir: &Path, stem: &str) {
    for path in [checkpoint_path(dir, stem), tmp_path(dir, stem)] {
        let len = file_len(&path);
        if io.remove_file(&path).is_ok() {
            budget.release(len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{DiskFaultPlan, FaultyIo, RealIo};
    use critlock_trace::{Trace, TraceMeta};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("critlock-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn doc(frames: u64) -> CheckpointDoc {
        CheckpointDoc {
            token: b"t".to_vec(),
            frames,
            started: true,
            ended: false,
            events: 0,
            events_dropped: 0,
            windows_stale: false,
            trace: Trace::new(TraceMeta::named("ck")),
            window: None,
        }
    }

    #[test]
    fn write_then_load_roundtrips_and_replaces() {
        let dir = tmpdir("rt");
        let budget = DiskBudget::unlimited();
        write_checkpoint(&RealIo, &budget, &dir, "s", &doc(3)).unwrap();
        assert_eq!(load_checkpoint(&dir, "s").unwrap().frames, 3);
        let used_once = budget.used();
        write_checkpoint(&RealIo, &budget, &dir, "s", &doc(9)).unwrap();
        assert_eq!(load_checkpoint(&dir, "s").unwrap().frames, 9);
        // Replacing a checkpoint releases the old one's bytes.
        assert_eq!(budget.used(), used_once);
        remove_checkpoint(&RealIo, &budget, &dir, "s");
        assert_eq!(budget.used(), 0);
        assert!(load_checkpoint(&dir, "s").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rename_keeps_the_previous_checkpoint() {
        let dir = tmpdir("rename");
        let budget = DiskBudget::unlimited();
        write_checkpoint(&RealIo, &budget, &dir, "s", &doc(3)).unwrap();
        let io =
            FaultyIo::new(DiskFaultPlan { renames_allowed: Some(0), ..DiskFaultPlan::default() });
        assert!(write_checkpoint(&io, &budget, &dir, "s", &doc(9)).is_err());
        // The crash-after-tmp state: old checkpoint intact, tmp on disk.
        assert_eq!(load_checkpoint(&dir, "s").unwrap().frames, 3);
        assert!(tmp_path(&dir, "s").exists());
        // The next successful write cleans up and wins.
        write_checkpoint(&RealIo, &budget, &dir, "s", &doc(12)).unwrap();
        assert_eq!(load_checkpoint(&dir, "s").unwrap().frames, 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_loads_as_none() {
        let dir = tmpdir("corrupt");
        let budget = DiskBudget::unlimited();
        write_checkpoint(&RealIo, &budget, &dir, "s", &doc(3)).unwrap();
        let path = checkpoint_path(&dir, "s");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        assert!(load_checkpoint(&dir, "s").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quota_refuses_the_write_before_touching_disk() {
        let dir = tmpdir("quota");
        let budget = DiskBudget::with_limit(Some(4));
        budget.seed(4);
        let err = write_checkpoint(&RealIo, &budget, &dir, "s", &doc(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(load_checkpoint(&dir, "s").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
