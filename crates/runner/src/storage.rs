//! Durable-storage abstraction behind the journal and evaluation cache.
//!
//! Every byte the runner persists — journal headers, outcome records,
//! canonical rewrites, cache snapshots — flows through the [`Storage`]
//! trait instead of calling `std::fs` directly. That buys two things:
//!
//! 1. **Uniform error context.** Every failing operation names the path
//!    it touched, so a sick disk yields a one-line diagnostic
//!    (`write "/run/sweep.jsonl": No space left on device`) instead of
//!    a bare `os error 28` or a panic.
//! 2. **Deterministic fault injection.** A [`crate::chaos::ChaosStorage`]
//!    wraps any `Storage` and injects torn writes, short writes,
//!    `ENOSPC`, and crash-at-Nth-write *without* touching the engine:
//!    the crash-matrix harness proves resume correctness against the
//!    exact byte states a real crash can leave behind.
//!
//! The default implementation is [`DiskStorage`], a thin veneer over
//! `std::fs` with buffered writers and explicit `sync` (fsync) support
//! for the runner's durability policy.

use crate::{Error, Result};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// An open, writable file handle behind the storage abstraction.
///
/// Writes are buffered; callers decide when to [`flush`](Self::flush)
/// (push to the OS) and when to [`sync`](Self::sync) (fsync to the
/// device, the durability barrier the sync policy controls).
pub trait StorageFile: Send {
    /// Append the whole buffer. One call is the unit a
    /// [`crate::chaos::ChaosPlan`] counts as "one write": callers
    /// should pass complete logical units (a full journal line), never
    /// fragments.
    fn write_all(&mut self, buf: &[u8]) -> Result<()>;
    /// Push buffered bytes to the operating system.
    fn flush(&mut self) -> Result<()>;
    /// Flush and then fsync to the device: after `sync` returns, the
    /// bytes survive power loss.
    fn sync(&mut self) -> Result<()>;
}

/// The runner's file-system surface. All journal and cache I/O goes
/// through an implementation of this trait.
pub trait Storage: Send + Sync {
    /// Create (truncating) `path` for writing.
    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>>;
    /// Open `path` for appending (the file must exist).
    fn append(&self, path: &Path) -> Result<Box<dyn StorageFile>>;
    /// Read the whole file; `Ok(None)` when it does not exist.
    fn read_to_string(&self, path: &Path) -> Result<Option<String>>;
    /// Atomically replace `to` with `from` (same-directory rename).
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Truncate `path` to exactly `len` bytes (torn-tail repair).
    fn truncate(&self, path: &Path, len: u64) -> Result<()>;
}

/// The production [`Storage`]: buffered `std::fs` with path-context
/// errors.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiskStorage;

/// A shared static instance for call sites that only ever want the
/// real disk (compatibility constructors, tests).
pub static DISK: DiskStorage = DiskStorage;

struct DiskFile {
    out: std::io::BufWriter<fs::File>,
    path: PathBuf,
}

impl StorageFile for DiskFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.out
            .write_all(buf)
            .map_err(|e| Error::Io(format!("write {:?}: {e}", self.path)))
    }

    fn flush(&mut self) -> Result<()> {
        self.out
            .flush()
            .map_err(|e| Error::Io(format!("flush {:?}: {e}", self.path)))
    }

    fn sync(&mut self) -> Result<()> {
        self.flush()?;
        self.out
            .get_ref()
            .sync_all()
            .map_err(|e| Error::Io(format!("sync {:?}: {e}", self.path)))
    }
}

impl Storage for DiskStorage {
    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>> {
        let file =
            fs::File::create(path).map_err(|e| Error::Io(format!("create {path:?}: {e}")))?;
        Ok(Box::new(DiskFile {
            out: std::io::BufWriter::new(file),
            path: path.to_path_buf(),
        }))
    }

    fn append(&self, path: &Path) -> Result<Box<dyn StorageFile>> {
        let file = fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| Error::Io(format!("open {path:?} for append: {e}")))?;
        Ok(Box::new(DiskFile {
            out: std::io::BufWriter::new(file),
            path: path.to_path_buf(),
        }))
    }

    fn read_to_string(&self, path: &Path) -> Result<Option<String>> {
        match fs::read_to_string(path) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(Error::Io(format!("read {path:?}: {e}"))),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        fs::rename(from, to).map_err(|e| Error::Io(format!("rename {from:?} over {to:?}: {e}")))
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| Error::Io(format!("open {path:?} for truncate: {e}")))?;
        file.set_len(len)
            .map_err(|e| Error::Io(format!("truncate {path:?} to {len} bytes: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("c2-storage-tests");
        fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(format!("{}-{}", name, std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn create_write_read_round_trip() {
        let path = scratch("round-trip.txt");
        let mut f = DISK.create(&path).unwrap();
        f.write_all(b"hello\n").unwrap();
        f.write_all(b"world\n").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(
            DISK.read_to_string(&path).unwrap().as_deref(),
            Some("hello\nworld\n")
        );
    }

    #[test]
    fn append_extends_and_truncate_cuts() {
        let path = scratch("append.txt");
        let mut f = DISK.create(&path).unwrap();
        f.write_all(b"abc").unwrap();
        f.flush().unwrap();
        drop(f);
        let mut f = DISK.append(&path).unwrap();
        f.write_all(b"def").unwrap();
        f.flush().unwrap();
        drop(f);
        assert_eq!(
            DISK.read_to_string(&path).unwrap().as_deref(),
            Some("abcdef")
        );
        DISK.truncate(&path, 2).unwrap();
        assert_eq!(DISK.read_to_string(&path).unwrap().as_deref(), Some("ab"));
    }

    #[test]
    fn missing_file_reads_as_none_and_append_errors_with_path() {
        let path = scratch("missing.txt");
        assert_eq!(DISK.read_to_string(&path).unwrap(), None);
        let err = match DISK.append(&path) {
            Err(e) => e,
            Ok(_) => panic!("append to a missing file must fail"),
        };
        let msg = err.to_string();
        assert!(msg.contains("missing.txt"), "error lacks path: {msg}");
    }

    #[test]
    fn rename_replaces_atomically() {
        let a = scratch("rename-a.txt");
        let b = scratch("rename-b.txt");
        let mut f = DISK.create(&a).unwrap();
        f.write_all(b"new").unwrap();
        f.flush().unwrap();
        drop(f);
        let mut f = DISK.create(&b).unwrap();
        f.write_all(b"old").unwrap();
        f.flush().unwrap();
        drop(f);
        DISK.rename(&a, &b).unwrap();
        assert_eq!(DISK.read_to_string(&b).unwrap().as_deref(), Some("new"));
        assert_eq!(DISK.read_to_string(&a).unwrap(), None);
    }
}
