//! Deterministic storage fault injection for the crash-matrix harness.
//!
//! A [`ChaosPlan`] is the storage-layer sibling of `c2-sim`'s
//! `FaultPlan`: a small, seeded, clock-free description of *which*
//! write fails and *how*. Wrapped around any [`Storage`] as a
//! [`ChaosStorage`], it turns "what if the process dies during the
//! 7th journal write?" into a reproducible unit test instead of a
//! production incident.
//!
//! Fault vocabulary (all write indices are 1-based and count every
//! `write_all` across every file the wrapped storage opens — journal
//! lines, canonical-rewrite lines, cache-publish lines):
//!
//! * **crash-at-Nth-write** — the Nth write persists only a torn
//!   prefix (an explicit `torn_bytes` length, or a seeded pseudorandom
//!   length including 0 and the full line), then the storage is
//!   *poisoned*: every subsequent write, rename, create, and truncate
//!   fails, modelling a process that is dead from that instant on.
//! * **ENOSPC-at-Nth-write** — the Nth write fails cleanly with a
//!   no-space error and persists nothing; later writes succeed (the
//!   operator freed space). A one-shot, recoverable fault.
//! * **short-write-at-Nth** — the Nth write persists exactly half its
//!   buffer and reports failure; later writes succeed. The torn-tail
//!   case a crashy NFS client produces.
//!
//! Determinism contract: a plan's behavior is a pure function of
//! (plan, write index, buffer length). No clocks, no RNG state outside
//! the seed.

use crate::storage::{Storage, StorageFile};
use crate::{Error, Result};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Seeded, clock-free storage fault plan. The default plan injects
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    /// Simulate a process crash on the Nth write (1-based): persist a
    /// torn prefix of that write, then poison all later storage ops.
    pub crash_at_write: Option<u64>,
    /// Exact torn-prefix length for the crashed write (clamped to the
    /// buffer length). `None` derives a length from `seed`.
    pub torn_bytes: Option<u64>,
    /// Fail the Nth write (1-based) with a no-space error, persisting
    /// nothing. One-shot: later writes succeed.
    pub enospc_at_write: Option<u64>,
    /// Persist exactly half of the Nth write (1-based) and report
    /// failure. One-shot: later writes succeed.
    pub short_write_at: Option<u64>,
    /// Seed for the derived torn length when `torn_bytes` is `None`.
    pub seed: u64,
}

impl ChaosPlan {
    /// True when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        *self == ChaosPlan::default()
    }

    /// Reject nonsensical plans: write indices are 1-based, so a fault
    /// "at write 0" can never fire and is a configuration bug.
    pub fn validate(&self) -> Result<()> {
        if self.crash_at_write == Some(0) {
            return Err(Error::InvalidConfig(
                "chaos.crash_at_write is 1-based and must be >= 1",
            ));
        }
        if self.enospc_at_write == Some(0) {
            return Err(Error::InvalidConfig(
                "chaos.enospc_at_write is 1-based and must be >= 1",
            ));
        }
        if self.short_write_at == Some(0) {
            return Err(Error::InvalidConfig(
                "chaos.short_write_at is 1-based and must be >= 1",
            ));
        }
        Ok(())
    }

    /// Torn-prefix length for the crashed write of a `len`-byte
    /// buffer: the explicit `torn_bytes` clamped to `len`, or a
    /// seed-derived value in `0..=len`.
    fn torn_len(&self, write_index: u64, len: usize) -> usize {
        match self.torn_bytes {
            Some(k) => (k as usize).min(len),
            None => (splitmix64(self.seed ^ write_index) % (len as u64 + 1)) as usize,
        }
    }
}

/// SplitMix64: the same tiny deterministic mixer the backoff jitter
/// uses, duplicated here to keep both modules dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shared fault state: one global write counter across every file the
/// storage opens (matching how a real crash takes out the whole
/// process, not one descriptor), plus the poison latch.
#[derive(Debug, Default)]
struct ChaosState {
    writes: AtomicU64,
    poisoned: AtomicBool,
}

/// A [`Storage`] decorator that injects the faults of a [`ChaosPlan`].
pub struct ChaosStorage {
    inner: Box<dyn Storage>,
    plan: ChaosPlan,
    state: Arc<ChaosState>,
}

impl ChaosStorage {
    /// Wrap `inner` under `plan`. Rejects invalid plans up front.
    pub fn new(inner: Box<dyn Storage>, plan: ChaosPlan) -> Result<Self> {
        plan.validate()?;
        Ok(ChaosStorage {
            inner,
            plan,
            state: Arc::new(ChaosState::default()),
        })
    }

    /// Total `write_all` calls observed so far (test introspection).
    pub fn writes(&self) -> u64 {
        self.state.writes.load(Ordering::SeqCst)
    }

    /// True once a simulated crash has fired.
    pub fn poisoned(&self) -> bool {
        self.state.poisoned.load(Ordering::SeqCst)
    }

    fn check_alive(&self, op: &str, path: &Path) -> Result<()> {
        if self.state.poisoned.load(Ordering::SeqCst) {
            return Err(Error::Io(format!(
                "chaos: {op} {path:?} refused: storage poisoned by simulated crash"
            )));
        }
        Ok(())
    }
}

struct ChaosFile {
    inner: Box<dyn StorageFile>,
    plan: ChaosPlan,
    state: Arc<ChaosState>,
}

impl StorageFile for ChaosFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        if self.state.poisoned.load(Ordering::SeqCst) {
            return Err(Error::Io(
                "chaos: write refused: storage poisoned by simulated crash".into(),
            ));
        }
        let n = self.state.writes.fetch_add(1, Ordering::SeqCst) + 1;
        if self.plan.crash_at_write == Some(n) {
            let torn = self.plan.torn_len(n, buf.len());
            // A real crash can leave any prefix of the in-flight write
            // on disk; persist the torn prefix before dying.
            let _ = self.inner.write_all(&buf[..torn]);
            let _ = self.inner.flush();
            self.state.poisoned.store(true, Ordering::SeqCst);
            return Err(Error::Io(format!(
                "chaos: simulated crash at write #{n} ({torn} of {} bytes reached disk)",
                buf.len()
            )));
        }
        if self.plan.enospc_at_write == Some(n) {
            return Err(Error::Io(format!(
                "chaos: injected ENOSPC at write #{n}: no space left on device"
            )));
        }
        if self.plan.short_write_at == Some(n) {
            let half = buf.len() / 2;
            self.inner.write_all(&buf[..half])?;
            self.inner.flush()?;
            return Err(Error::Io(format!(
                "chaos: injected short write at write #{n} ({half} of {} bytes reached disk)",
                buf.len()
            )));
        }
        self.inner.write_all(buf)
    }

    fn flush(&mut self) -> Result<()> {
        if self.state.poisoned.load(Ordering::SeqCst) {
            return Err(Error::Io(
                "chaos: flush refused: storage poisoned by simulated crash".into(),
            ));
        }
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        if self.state.poisoned.load(Ordering::SeqCst) {
            return Err(Error::Io(
                "chaos: sync refused: storage poisoned by simulated crash".into(),
            ));
        }
        self.inner.sync()
    }
}

impl Storage for ChaosStorage {
    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>> {
        self.check_alive("create", path)?;
        Ok(Box::new(ChaosFile {
            inner: self.inner.create(path)?,
            plan: self.plan,
            state: Arc::clone(&self.state),
        }))
    }

    fn append(&self, path: &Path) -> Result<Box<dyn StorageFile>> {
        self.check_alive("append to", path)?;
        Ok(Box::new(ChaosFile {
            inner: self.inner.append(path)?,
            plan: self.plan,
            state: Arc::clone(&self.state),
        }))
    }

    fn read_to_string(&self, path: &Path) -> Result<Option<String>> {
        // Reads stay honest even after a simulated crash: resume-side
        // code always constructs a fresh (un-poisoned) storage anyway.
        self.inner.read_to_string(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.check_alive("rename", from)?;
        self.inner.rename(from, to)
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        self.check_alive("truncate", path)?;
        self.inner.truncate(path, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::DiskStorage;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("c2-chaos-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(format!("{}-{}", name, std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn chaos(plan: ChaosPlan) -> ChaosStorage {
        ChaosStorage::new(Box::new(DiskStorage), plan).unwrap()
    }

    #[test]
    fn zero_write_indices_are_rejected() {
        for plan in [
            ChaosPlan {
                crash_at_write: Some(0),
                ..ChaosPlan::default()
            },
            ChaosPlan {
                enospc_at_write: Some(0),
                ..ChaosPlan::default()
            },
            ChaosPlan {
                short_write_at: Some(0),
                ..ChaosPlan::default()
            },
        ] {
            assert!(plan.validate().is_err(), "{plan:?} accepted");
        }
        assert!(ChaosPlan::default().is_none());
    }

    #[test]
    fn crash_tears_the_exact_prefix_and_poisons_everything_after() {
        let path = scratch("crash.txt");
        let storage = chaos(ChaosPlan {
            crash_at_write: Some(2),
            torn_bytes: Some(3),
            ..ChaosPlan::default()
        });
        let mut f = storage.create(&path).unwrap();
        f.write_all(b"first line\n").unwrap();
        let err = f.write_all(b"second line\n").unwrap_err();
        assert!(err.to_string().contains("simulated crash at write #2"));
        // Everything after the crash is refused: the process is dead.
        assert!(f.write_all(b"third\n").is_err());
        assert!(f.flush().is_err());
        assert!(storage.create(&path).is_err());
        assert!(storage.rename(&path, &path).is_err());
        assert!(storage.truncate(&path, 0).is_err());
        assert!(storage.poisoned());
        drop(f);
        // The torn prefix reached disk exactly.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "first line\nsec");
    }

    #[test]
    fn derived_torn_length_is_deterministic_and_in_range() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let plan = ChaosPlan {
                crash_at_write: Some(1),
                seed,
                ..ChaosPlan::default()
            };
            let a = plan.torn_len(1, 40);
            let b = plan.torn_len(1, 40);
            assert_eq!(a, b, "torn length must be a pure function of the seed");
            assert!(a <= 40);
        }
        // Explicit lengths clamp to the buffer.
        let plan = ChaosPlan {
            torn_bytes: Some(1000),
            ..ChaosPlan::default()
        };
        assert_eq!(plan.torn_len(1, 8), 8);
    }

    #[test]
    fn enospc_is_one_shot_and_persists_nothing() {
        let path = scratch("enospc.txt");
        let storage = chaos(ChaosPlan {
            enospc_at_write: Some(2),
            ..ChaosPlan::default()
        });
        let mut f = storage.create(&path).unwrap();
        f.write_all(b"a\n").unwrap();
        let err = f.write_all(b"b\n").unwrap_err();
        assert!(err.to_string().contains("no space left on device"));
        // One-shot: the next write succeeds (space was freed).
        f.write_all(b"c\n").unwrap();
        f.flush().unwrap();
        drop(f);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a\nc\n", "the failed write must persist nothing");
    }

    #[test]
    fn short_write_persists_exactly_half() {
        let path = scratch("short.txt");
        let storage = chaos(ChaosPlan {
            short_write_at: Some(1),
            ..ChaosPlan::default()
        });
        let mut f = storage.create(&path).unwrap();
        let err = f.write_all(b"12345678").unwrap_err();
        assert!(err.to_string().contains("short write"));
        f.write_all(b"ok").unwrap();
        f.flush().unwrap();
        drop(f);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "1234ok");
    }

    #[test]
    fn the_write_counter_spans_files() {
        // The crash index counts writes across every file the storage
        // opens — a process dies globally, not per descriptor.
        let a = scratch("span-a.txt");
        let b = scratch("span-b.txt");
        let storage = chaos(ChaosPlan {
            crash_at_write: Some(3),
            torn_bytes: Some(0),
            ..ChaosPlan::default()
        });
        let mut fa = storage.create(&a).unwrap();
        let mut fb = storage.create(&b).unwrap();
        fa.write_all(b"1\n").unwrap();
        fb.write_all(b"2\n").unwrap();
        assert!(fa.write_all(b"3\n").is_err(), "third write crashes");
        assert!(fb.write_all(b"4\n").is_err(), "poison spans files");
        assert_eq!(storage.writes(), 3);
    }
}
