//! The JSONL checkpoint journal.
//!
//! One line per *terminal* job outcome, appended and flushed as soon as
//! the outcome is known, so a killed run loses at most the line being
//! written when the process died. The reader therefore tolerates a
//! truncated final line (the half-written record is simply redone on
//! resume) but treats corruption anywhere else as a hard error — a
//! mangled middle means the file is not the journal we wrote.
//!
//! Format (one JSON object per line):
//!
//! ```text
//! {"c2runner":1,"jobs":9,"fingerprint":"00000000499602d2"}
//! {"seq":0,"attempts":1,"timeouts":0,"status":"ok","time":123456.0}
//! {"seq":1,"attempts":2,"timeouts":1,"status":"dead","error":"..."}
//! {"seq":2,"attempts":0,"timeouts":0,"status":"dead","error":"...","short_circuited":true}
//! {"c2ckpt":1,"shard":0,"covered":2,"state":"closed","failures":0,"shorted":0,"probes":0,"trips":0,"shorts":0}
//! ```
//!
//! The header pins the sweep the journal belongs to: `jobs` is the plan
//! size and `fingerprint` hashes every job's index and design point, so
//! resuming against a different model, space, or plan is rejected
//! instead of silently merging incompatible results. Times are written
//! with Rust's shortest round-trip float formatting and parsed with the
//! correctly-rounded parser, so a value survives the write/read cycle
//! bit-exactly — the property the resume-equality tests lean on.
//!
//! `c2ckpt` lines are periodic **checkpoints**: a per-shard breaker
//! snapshot plus the count of that shard's records it covers. They let
//! the unobserved resume path restore breaker state directly and replay
//! only the records written *after* the latest checkpoint, so resume
//! cost stops growing with sweep length. Checkpoints are operational
//! metadata, not outcomes: the canonical rewrite strips them, and
//! [`compact`] keeps only the newest one per shard.
//!
//! All I/O goes through the [`crate::storage::Storage`] trait, which is
//! how the chaos harness injects torn writes, `ENOSPC`, and
//! crash-at-Nth-write underneath the journal without the journal
//! knowing. [`JournalContents::valid_len`] reports the byte length of
//! the intact prefix so resume can truncate a torn tail *before*
//! appending — appending after a torn line would corrupt the journal
//! beyond repair on the next crash.
//!
//! Lines are written by hand, because a time keeps its `{t:?}` spelling
//! (`Json::render` would print `1029.0` as `1029`), and read back with
//! [`c2_config::Json::parse`], the workspace's one JSON reader. Counts
//! are read exactly ([`Json::as_u64`]): a negative or fractional `seq`
//! makes a malformed record.

use crate::breaker::{BreakerSnapshot, BreakerState};
use crate::storage::{Storage, StorageFile, DISK};
use crate::{Error, Result};
use c2_bound::aps::{ApsPlan, PointOutcome};
use c2_config::Json;
use std::path::{Path, PathBuf};

/// Journal format version written in the header.
pub const JOURNAL_VERSION: u64 = 1;

/// Checkpoint record version written in `c2ckpt` lines.
pub const CHECKPOINT_VERSION: u64 = 1;

/// When the journal (and the cache publish) fsync to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Flush to the OS only; never fsync. Fastest, loses the OS cache
    /// on power failure (not on process death).
    Never,
    /// Fsync at checkpoint lines and before atomic renames. The
    /// default: bounded data loss at a bounded cost.
    #[default]
    OnCheckpoint,
    /// Fsync after every record. Maximum durability.
    Always,
}

impl SyncPolicy {
    /// Parse the scenario/CLI spelling (`never|on-checkpoint|always`).
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s {
            "never" => Some(SyncPolicy::Never),
            "on-checkpoint" => Some(SyncPolicy::OnCheckpoint),
            "always" => Some(SyncPolicy::Always),
            _ => None,
        }
    }

    /// The stable spelling used in scenarios and diagnostics.
    pub fn as_str(&self) -> &'static str {
        match self {
            SyncPolicy::Never => "never",
            SyncPolicy::OnCheckpoint => "on-checkpoint",
            SyncPolicy::Always => "always",
        }
    }
}

/// The header line pinning a journal to its sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Number of jobs in the plan.
    pub jobs: usize,
    /// FNV-1a hash of the plan's job list.
    pub fingerprint: u64,
}

/// One terminal job outcome as journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job's dense sequence number in the plan.
    pub seq: usize,
    /// Oracle attempts consumed (0 for short-circuited jobs).
    pub attempts: usize,
    /// How many of those attempts were killed by the deadline.
    pub timeouts: usize,
    /// `Ok(time)` or `Err(error message)`.
    pub result: std::result::Result<f64, String>,
    /// Whether the circuit breaker denied the job its oracle.
    pub short_circuited: bool,
    /// Whether the result was satisfied from the content-addressed
    /// evaluation cache instead of a live oracle run. `attempts` then
    /// reports the attempt history of the *original* computation (the
    /// cache replays it into the breaker), not new oracle work.
    pub cached: bool,
    /// Whether the job's final attempt panicked inside the oracle and
    /// was quarantined: terminated immediately (no retries), its
    /// oracle rebuilt, and degraded to analytic backfill.
    pub quarantined: bool,
}

impl JobRecord {
    /// The core-side terminal outcome this record encodes. Dead
    /// records reconstruct as [`c2_bound::Error::Simulation`] carrying
    /// the journaled message — every error the engine journals is
    /// written through [`error_message`], so the round trip is exact.
    pub fn point_outcome(&self) -> PointOutcome {
        PointOutcome {
            attempts: self.attempts,
            result: self.result.clone().map_err(c2_bound::Error::Simulation),
        }
    }
}

/// A periodic `c2ckpt` journal line: the breaker snapshot of one shard
/// after that shard's first `covered` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// The shard whose breaker is snapshotted.
    pub shard: usize,
    /// How many of the shard's journal records the snapshot covers
    /// (the shard's records are a seq-ordered prefix, so `covered`
    /// identifies the replay tail unambiguously).
    pub covered: usize,
    /// The shard breaker's state after record `covered`.
    pub snapshot: BreakerSnapshot,
}

/// Reduce a core error to the message the journal stores. For
/// [`c2_bound::Error::Simulation`] this is the inner string (so the
/// reconstruction in [`JobRecord::point_outcome`] is the identity);
/// other variants degrade to their display form.
pub fn error_message(e: &c2_bound::Error) -> String {
    match e {
        c2_bound::Error::Simulation(s) => s.clone(),
        other => other.to_string(),
    }
}

/// FNV-1a fingerprint of a plan's job list: indices and point values.
pub fn plan_fingerprint(plan: &ApsPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for job in &plan.jobs {
        eat(&(job.seq as u64).to_le_bytes());
        for d in job.index {
            eat(&(d as u64).to_le_bytes());
        }
        eat(&job.point.a0.to_bits().to_le_bytes());
        eat(&job.point.a1.to_bits().to_le_bytes());
        eat(&job.point.a2.to_bits().to_le_bytes());
        eat(&(job.point.n as u64).to_le_bytes());
        eat(&(job.point.issue_width as u64).to_le_bytes());
        eat(&(job.point.rob_size as u64).to_le_bytes());
    }
    h
}

/// Bind a plan fingerprint to the scenario that produced it, by
/// continuing the same FNV-1a stream over the scenario fingerprint's
/// bytes. A journal written under one scenario then refuses to resume
/// under a modified one even when the modification leaves the job list
/// unchanged (e.g. a solver-tolerance edit). `None` — the positional
/// CLI path, which has no scenario file — leaves the plan fingerprint
/// untouched, so journals written before the scenario layer existed
/// remain resumable.
pub fn bind_fingerprint(plan_fp: u64, scenario_fp: Option<u64>) -> u64 {
    match scenario_fp {
        None => plan_fp,
        Some(s) => {
            let mut h = plan_fp;
            for b in s.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        }
    }
}

/// The identity contribution of a model backend, in the shape
/// [`bind_fingerprint`] consumes. The default `"cpu-cmp"` backend
/// contributes nothing (`None`) — every journal and cache written
/// before backends existed was implicitly a CPU-CMP artifact and must
/// keep its exact header bytes — while any other backend hashes its
/// identity string, so a checkpoint or cache entry written under one
/// backend can never be resumed or served under another.
pub fn backend_fingerprint(identity: &str) -> Option<u64> {
    if identity == c2_bound::backend::CPU_CMP_IDENTITY {
        return None;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in identity.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    Some(h)
}

/// What a journal file contained.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalContents {
    /// The pinned header.
    pub header: JournalHeader,
    /// Every fully-written record, in file (completion) order.
    /// Duplicate `seq`s keep the first occurrence.
    pub records: Vec<JobRecord>,
    /// Every checkpoint line, in file order.
    pub checkpoints: Vec<Checkpoint>,
    /// Whether the final line was truncated mid-write (normal for a
    /// killed run; the affected job is simply redone).
    pub truncated_tail: bool,
    /// Byte length of the intact prefix: everything before a torn
    /// tail. Resume truncates the file to this length before appending
    /// so a second crash cannot concatenate onto a torn line.
    pub valid_len: usize,
    /// Duplicate records dropped during parsing (later occurrences of
    /// an already-seen `seq`).
    pub duplicate_records: usize,
}

/// Append-mode journal writer. Every record is flushed on write; fsync
/// follows the [`SyncPolicy`].
pub struct JournalWriter {
    out: Box<dyn StorageFile>,
    sync: SyncPolicy,
}

impl JournalWriter {
    /// Create a fresh journal at `path` (truncating any existing file)
    /// and write the header line. Plain disk, no fsync — the
    /// compatibility constructor for tests and tools.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Self> {
        Self::create_with(&DISK, SyncPolicy::Never, path, header)
    }

    /// [`JournalWriter::create`] over an explicit storage and sync
    /// policy (the engine path).
    pub fn create_with(
        storage: &dyn Storage,
        sync: SyncPolicy,
        path: &Path,
        header: &JournalHeader,
    ) -> Result<Self> {
        let mut w = JournalWriter {
            out: storage.create(path)?,
            sync,
        };
        // The fingerprint is a full 64-bit hash; JSON numbers are
        // parsed as f64 (exact only up to 2^53), so it travels as a
        // hex string.
        w.write_line(&format!(
            "{{\"c2runner\":{JOURNAL_VERSION},\"jobs\":{},\"fingerprint\":\"{:016x}\"}}",
            header.jobs, header.fingerprint
        ))?;
        Ok(w)
    }

    /// Open an existing journal at `path` for appending further
    /// records (the resume path; the header is already on disk).
    pub fn append(path: &Path) -> Result<Self> {
        Self::append_with(&DISK, SyncPolicy::Never, path)
    }

    /// [`JournalWriter::append`] over an explicit storage and sync
    /// policy (the engine path).
    pub fn append_with(storage: &dyn Storage, sync: SyncPolicy, path: &Path) -> Result<Self> {
        Ok(JournalWriter {
            out: storage.append(path)?,
            sync,
        })
    }

    /// Append one terminal record and flush it to the OS (fsync under
    /// `SyncPolicy::Always`).
    pub fn record(&mut self, r: &JobRecord) -> Result<()> {
        let mut line = format!(
            "{{\"seq\":{},\"attempts\":{},\"timeouts\":{}",
            r.seq, r.attempts, r.timeouts
        );
        match &r.result {
            Ok(t) => {
                // `{t:?}` is Rust's shortest round-trip formatting.
                line.push_str(&format!(",\"status\":\"ok\",\"time\":{t:?}"));
            }
            Err(msg) => {
                line.push_str(",\"status\":\"dead\",\"error\":");
                line.push_str(&Json::Str(msg.clone()).render());
            }
        }
        if r.short_circuited {
            line.push_str(",\"short_circuited\":true");
        }
        if r.cached {
            line.push_str(",\"cached\":true");
        }
        if r.quarantined {
            line.push_str(",\"quarantined\":true");
        }
        line.push('}');
        self.write_line(&line)?;
        if self.sync == SyncPolicy::Always {
            self.out.sync()?;
        }
        Ok(())
    }

    /// Append one checkpoint line (fsync unless `SyncPolicy::Never` —
    /// a checkpoint that is not durable cannot bound anything).
    pub fn checkpoint(&mut self, c: &Checkpoint) -> Result<()> {
        let s = &c.snapshot;
        let line = format!(
            "{{\"c2ckpt\":{CHECKPOINT_VERSION},\"shard\":{},\"covered\":{},\"state\":\"{}\",\
             \"failures\":{},\"shorted\":{},\"probes\":{},\"trips\":{},\"shorts\":{}}}",
            c.shard,
            c.covered,
            s.state.as_str(),
            s.consecutive_failures,
            s.shorted_while_open,
            s.probe_successes,
            s.trips,
            s.short_circuits
        );
        self.write_line(&line)?;
        if self.sync != SyncPolicy::Never {
            self.out.sync()?;
        }
        Ok(())
    }

    /// Fsync everything written so far to the device.
    pub fn sync(&mut self) -> Result<()> {
        self.out.sync()
    }

    fn write_line(&mut self, line: &str) -> Result<()> {
        // One write per line: the unit a ChaosPlan counts, and the unit
        // a real crash tears.
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.out.write_all(&buf)?;
        self.out.flush()
    }
}

fn sibling_tmp(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Rewrite the journal at `path` in **canonical form**: the header
/// followed by every record in ascending `seq` order, via a sibling
/// temp file and an atomic rename. The sharded engine calls this once
/// a run completes, so the durable journal's bytes are a pure function
/// of the terminal outcomes — independent of the thread count that
/// produced them, of live append (completion) order, and of how many
/// crash/resume cycles the run went through. Checkpoints are dropped:
/// a completed journal has nothing left to resume.
pub fn rewrite_canonical(path: &Path, header: &JournalHeader, records: &[JobRecord]) -> Result<()> {
    rewrite_canonical_with(&DISK, SyncPolicy::Never, path, header, records)
}

/// [`rewrite_canonical`] over an explicit storage and sync policy.
pub fn rewrite_canonical_with(
    storage: &dyn Storage,
    sync: SyncPolicy,
    path: &Path,
    header: &JournalHeader,
    records: &[JobRecord],
) -> Result<()> {
    debug_assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
    let tmp = sibling_tmp(path);
    {
        let mut w = JournalWriter::create_with(storage, sync, &tmp, header)?;
        for r in records {
            w.record(r)?;
        }
        if sync != SyncPolicy::Never {
            w.sync()?;
        }
    }
    storage.rename(&tmp, path)
}

/// Load and validate a journal file.
pub fn load(path: &Path) -> Result<JournalContents> {
    load_with(&DISK, path)
}

/// [`load`] over an explicit storage.
pub fn load_with(storage: &dyn Storage, path: &Path) -> Result<JournalContents> {
    let text = storage
        .read_to_string(path)?
        .ok_or_else(|| Error::Io(format!("read {path:?}: no such file")))?;
    parse(&text)
}

/// Statistics reported by [`compact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Outcome records kept.
    pub records: usize,
    /// Duplicate records dropped.
    pub duplicates_dropped: usize,
    /// Stale checkpoints dropped (older than the newest per shard).
    pub checkpoints_dropped: usize,
    /// Checkpoints kept (the newest per shard).
    pub checkpoints_kept: usize,
    /// Whether a torn trailing line was dropped.
    pub torn_tail_dropped: bool,
}

/// Compact an (interrupted) journal in place: drop a torn tail, drop
/// duplicate records, and keep only the newest checkpoint per shard,
/// preserving record (file) order so the compacted journal resumes
/// exactly like the original. The rewrite is atomic (sibling temp file
/// plus rename), so a crash mid-compaction leaves the original journal
/// untouched.
pub fn compact(path: &Path) -> Result<CompactStats> {
    compact_with(&DISK, SyncPolicy::OnCheckpoint, path)
}

/// [`compact`] over an explicit storage and sync policy.
pub fn compact_with(storage: &dyn Storage, sync: SyncPolicy, path: &Path) -> Result<CompactStats> {
    let contents = load_with(storage, path)?;
    // Newest checkpoint per shard: the one covering the most records
    // (ties resolved toward the later line).
    let mut newest: Vec<Checkpoint> = Vec::new();
    for c in &contents.checkpoints {
        match newest.iter_mut().find(|k| k.shard == c.shard) {
            Some(k) => {
                if c.covered >= k.covered {
                    *k = *c;
                }
            }
            None => newest.push(*c),
        }
    }
    newest.sort_by_key(|c| c.shard);
    let stats = CompactStats {
        records: contents.records.len(),
        duplicates_dropped: contents.duplicate_records,
        checkpoints_dropped: contents.checkpoints.len() - newest.len(),
        checkpoints_kept: newest.len(),
        torn_tail_dropped: contents.truncated_tail,
    };
    let tmp = sibling_tmp(path);
    {
        let mut w = JournalWriter::create_with(storage, sync, &tmp, &contents.header)?;
        for r in &contents.records {
            w.record(r)?;
        }
        for c in &newest {
            w.checkpoint(c)?;
        }
        if sync != SyncPolicy::Never {
            w.sync()?;
        }
    }
    storage.rename(&tmp, path)?;
    Ok(stats)
}

/// Parse journal text (exposed for truncation tests).
pub fn parse(text: &str) -> Result<JournalContents> {
    let lines: Vec<&str> = text.split('\n').collect();
    // A well-formed file ends with '\n', so the final split piece is
    // empty; anything else there is a truncated record.
    let mut header: Option<JournalHeader> = None;
    let mut records = Vec::new();
    let mut checkpoints = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut truncated_tail = false;
    let mut duplicate_records = 0usize;
    let mut offset = 0usize; // byte offset of the current line start
    let mut valid_len = 0usize; // bytes covered by fully-parsed lines
    let last = lines.len().saturating_sub(1);
    for (i, line) in lines.iter().enumerate() {
        let line_start = offset;
        offset += line.len() + 1; // +1 for the '\n' separator
        let line_end = (line_start + line.len() + 1).min(text.len());
        if line.trim().is_empty() {
            valid_len = valid_len.max(line_end);
            continue;
        }
        let is_last_content = i == last || lines[i + 1..].iter().all(|l| l.trim().is_empty());
        // A line that is not one JSON object is a torn final write at
        // the tail and corruption anywhere else.
        let fields = match Json::parse(line) {
            Ok(fields @ Json::Obj(_)) => fields,
            _ if is_last_content => {
                truncated_tail = true;
                continue;
            }
            _ => {
                return Err(Error::Journal(format!(
                    "corrupt journal line {}: {line:?}",
                    i + 1
                )))
            }
        };
        if header.is_none() {
            header = Some(header_from(&fields)?);
            valid_len = valid_len.max(line_end);
            continue;
        }
        if fields.get("c2ckpt").is_some() {
            match checkpoint_from(&fields) {
                Some(c) => {
                    checkpoints.push(c);
                    valid_len = valid_len.max(line_end);
                }
                None if is_last_content => truncated_tail = true,
                None => {
                    return Err(Error::Journal(format!(
                        "malformed checkpoint on line {}",
                        i + 1
                    )))
                }
            }
            continue;
        }
        // Parsed as JSON but missing fields: torn at the tail.
        let Some(record) = record_from(&fields) else {
            if is_last_content {
                truncated_tail = true;
                continue;
            }
            return Err(Error::Journal(format!(
                "malformed record on line {}",
                i + 1
            )));
        };
        valid_len = valid_len.max(line_end);
        if seen.insert(record.seq) {
            records.push(record);
        } else {
            duplicate_records += 1;
        }
    }
    Ok(JournalContents {
        header: header.ok_or_else(|| Error::Journal("journal has no header".into()))?,
        records,
        checkpoints,
        truncated_tail,
        valid_len,
        duplicate_records,
    })
}

/// The exact non-negative integer at `key`: `None` when it is missing,
/// negative, fractional or not a number.
fn count(fields: &Json, key: &str) -> Option<usize> {
    fields.get(key)?.as_u64()?.try_into().ok()
}

fn header_from(fields: &Json) -> Result<JournalHeader> {
    let version = fields
        .get("c2runner")
        .ok_or_else(|| Error::Journal("first journal line is not a header".into()))?;
    if version.as_u64() != Some(JOURNAL_VERSION) {
        return Err(Error::Journal(format!(
            "unsupported journal version {}",
            version.render()
        )));
    }
    Ok(JournalHeader {
        jobs: count(fields, "jobs").ok_or_else(|| Error::Journal("header missing jobs".into()))?,
        fingerprint: fields
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| Error::Journal("header missing fingerprint".into()))?,
    })
}

fn record_from(fields: &Json) -> Option<JobRecord> {
    let flag = |key| fields.get(key) == Some(&Json::Bool(true));
    let result = match fields.get("status")?.as_str()? {
        "ok" => Ok(fields.get("time")?.as_f64()?),
        "dead" => Err(fields.get("error")?.as_str()?.to_string()),
        _ => return None,
    };
    Some(JobRecord {
        seq: count(fields, "seq")?,
        attempts: count(fields, "attempts")?,
        timeouts: count(fields, "timeouts")?,
        result,
        short_circuited: flag("short_circuited"),
        cached: flag("cached"),
        quarantined: flag("quarantined"),
    })
}

fn checkpoint_from(fields: &Json) -> Option<Checkpoint> {
    if fields.get("c2ckpt")?.as_u64()? != CHECKPOINT_VERSION {
        return None;
    }
    Some(Checkpoint {
        shard: count(fields, "shard")?,
        covered: count(fields, "covered")?,
        snapshot: BreakerSnapshot {
            state: BreakerState::parse(fields.get("state")?.as_str()?)?,
            consecutive_failures: count(fields, "failures")?,
            shorted_while_open: count(fields, "shorted")?,
            probe_successes: count(fields, "probes")?,
            trips: count(fields, "trips")?,
            short_circuits: count(fields, "shorts")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            jobs: 3,
            fingerprint: 0xDEAD_BEEF,
        }
    }

    fn sample_records() -> Vec<JobRecord> {
        vec![
            JobRecord {
                seq: 0,
                attempts: 1,
                timeouts: 0,
                result: Ok(1234.5678901234567),
                short_circuited: false,
                cached: true,
                quarantined: false,
            },
            JobRecord {
                seq: 1,
                attempts: 2,
                timeouts: 1,
                result: Err("deadline of 25 ms exceeded".into()),
                short_circuited: false,
                cached: false,
                quarantined: false,
            },
            JobRecord {
                seq: 2,
                attempts: 0,
                timeouts: 0,
                result: Err("circuit breaker open: \"sick\"\nbackend".into()),
                short_circuited: true,
                cached: false,
                quarantined: false,
            },
        ]
    }

    #[test]
    fn write_read_round_trip_is_exact() {
        let dir = std::env::temp_dir().join("c2runner-journal-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        for r in sample_records() {
            w.record(&r).unwrap();
        }
        drop(w);
        let back = load(&path).unwrap();
        assert_eq!(back.header, header());
        assert_eq!(back.records, sample_records());
        assert!(!back.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn float_times_survive_bit_exactly() {
        for &t in &[1.0, 0.1 + 0.2, 1e308, 5e-324_f64, 123_456_789.123_456_78] {
            let line = format!(
                "{{\"seq\":0,\"attempts\":1,\"timeouts\":0,\"status\":\"ok\",\"time\":{t:?}}}"
            );
            let text = format!(
                "{{\"c2runner\":1,\"jobs\":1,\"fingerprint\":\"0000000000000000\"}}\n{line}\n"
            );
            let parsed = parse(&text).unwrap();
            assert_eq!(parsed.records[0].result, Ok(t), "{t:?} must round-trip");
        }
    }

    #[test]
    fn truncated_tail_is_tolerated_and_flagged() {
        let mut text =
            String::from("{\"c2runner\":1,\"jobs\":2,\"fingerprint\":\"0000000000000007\"}\n");
        text.push_str("{\"seq\":0,\"attempts\":1,\"timeouts\":0,\"status\":\"ok\",\"time\":5.0}\n");
        let intact = text.len();
        text.push_str("{\"seq\":1,\"attempts\":1,\"timeo"); // torn write
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.records.len(), 1);
        assert!(parsed.truncated_tail);
        // The valid prefix stops exactly where the torn line begins, so
        // truncating there yields a clean journal.
        assert_eq!(parsed.valid_len, intact);
        let repaired = parse(&text[..parsed.valid_len]).unwrap();
        assert!(!repaired.truncated_tail);
        assert_eq!(repaired.records, parsed.records);
    }

    #[test]
    fn corruption_in_the_middle_is_a_hard_error() {
        let mut text =
            String::from("{\"c2runner\":1,\"jobs\":2,\"fingerprint\":\"0000000000000007\"}\n");
        text.push_str("{\"seq\":0,\"attem\n"); // torn, but NOT the tail
        text.push_str("{\"seq\":1,\"attempts\":1,\"timeouts\":0,\"status\":\"ok\",\"time\":5.0}\n");
        assert!(matches!(parse(&text), Err(Error::Journal(_))));
    }

    #[test]
    fn dead_record_text_is_escaped_and_read_back_exactly() {
        let dir = std::env::temp_dir().join("c2runner-journal-escapes");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("e-{}.jsonl", std::process::id()));
        let rec = JobRecord {
            result: Err("a\"b\\c\nd\u{7}\u{8}é😀".into()),
            ..sample_records()[1].clone()
        };
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.record(&rec).unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().nth(1).unwrap(),
            r#"{"seq":1,"attempts":2,"timeouts":1,"status":"dead","error":"a\"b\\c\nd\u0007\u0008é😀"}"#
        );
        assert_eq!(parse(&text).unwrap().records, vec![rec]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn negative_or_fractional_counts_are_malformed_not_job_zero() {
        let head = "{\"c2runner\":1,\"jobs\":2,\"fingerprint\":\"0000000000000007\"}\n";
        let good = "{\"seq\":1,\"attempts\":1,\"timeouts\":0,\"status\":\"ok\",\"time\":5.0}\n";
        let rest = ",\"attempts\":1,\"timeouts\":0,\"status\":\"ok\",\"time\":5.0}\n";
        for seq in ["-1", "0.5", "1e300"] {
            let bad = format!("{{\"seq\":{seq}{rest}");
            // Mid-file: a hard error, never a record for job 0.
            let err = parse(&format!("{head}{bad}{good}")).unwrap_err();
            assert!(err.to_string().contains("malformed record"), "{seq}: {err}");
            // At the tail: a torn write, redone on resume.
            let parsed = parse(&format!("{head}{good}{bad}")).unwrap();
            assert!(parsed.truncated_tail, "{seq}");
            assert_eq!(parsed.records.len(), 1);
        }
        let negative_jobs = head.replace("\"jobs\":2", "\"jobs\":-2");
        assert!(parse(&format!("{negative_jobs}{good}")).is_err());
    }

    #[test]
    fn missing_or_versioned_header_is_rejected() {
        assert!(parse("").is_err());
        assert!(parse("{\"seq\":0}\n").is_err());
        assert!(
            parse("{\"c2runner\":99,\"jobs\":1,\"fingerprint\":\"0000000000000000\"}\n").is_err()
        );
    }

    #[test]
    fn duplicate_seqs_keep_the_first() {
        let mut text =
            String::from("{\"c2runner\":1,\"jobs\":2,\"fingerprint\":\"0000000000000007\"}\n");
        text.push_str("{\"seq\":0,\"attempts\":1,\"timeouts\":0,\"status\":\"ok\",\"time\":5.0}\n");
        text.push_str("{\"seq\":0,\"attempts\":2,\"timeouts\":0,\"status\":\"ok\",\"time\":6.0}\n");
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(parsed.records[0].result, Ok(5.0));
        assert_eq!(parsed.duplicate_records, 1);
        // Duplicates are well-formed lines: the valid prefix spans them.
        assert_eq!(parsed.valid_len, text.len());
    }

    #[test]
    fn bind_fingerprint_is_identity_without_a_scenario() {
        assert_eq!(bind_fingerprint(0x1234, None), 0x1234);
        let bound = bind_fingerprint(0x1234, Some(7));
        assert_ne!(bound, 0x1234);
        // Deterministic, and sensitive to the scenario fingerprint.
        assert_eq!(bound, bind_fingerprint(0x1234, Some(7)));
        assert_ne!(bound, bind_fingerprint(0x1234, Some(8)));
    }

    #[test]
    fn error_message_round_trips_simulation_errors() {
        let e = c2_bound::Error::Simulation("boom \"quoted\"".into());
        let msg = error_message(&e);
        let rec = JobRecord {
            seq: 0,
            attempts: 1,
            timeouts: 0,
            result: Err(msg),
            short_circuited: false,
            cached: false,
            quarantined: false,
        };
        assert_eq!(rec.point_outcome().result, Err(e));
    }

    #[test]
    fn quarantined_records_round_trip() {
        let dir = std::env::temp_dir().join("c2runner-journal-quarantine");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("q-{}.jsonl", std::process::id()));
        let rec = JobRecord {
            seq: 4,
            attempts: 1,
            timeouts: 0,
            result: Err("oracle panicked: injected oracle panic at key 4".into()),
            short_circuited: false,
            cached: false,
            quarantined: true,
        };
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.record(&rec).unwrap();
        drop(w);
        let back = load(&path).unwrap();
        assert_eq!(back.records, vec![rec]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoints_round_trip_and_stay_out_of_records() {
        let dir = std::env::temp_dir().join("c2runner-journal-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("c-{}.jsonl", std::process::id()));
        let ckpt = Checkpoint {
            shard: 2,
            covered: 5,
            snapshot: BreakerSnapshot {
                state: BreakerState::HalfOpen,
                consecutive_failures: 0,
                shorted_while_open: 1,
                probe_successes: 1,
                trips: 3,
                short_circuits: 7,
            },
        };
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.record(&sample_records()[0]).unwrap();
        w.checkpoint(&ckpt).unwrap();
        w.record(&sample_records()[1]).unwrap();
        drop(w);
        let back = load(&path).unwrap();
        assert_eq!(back.records.len(), 2);
        assert_eq!(back.checkpoints, vec![ckpt]);
        assert!(!back.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_checkpoint_tail_is_tolerated_and_mid_file_is_fatal() {
        let head = "{\"c2runner\":1,\"jobs\":2,\"fingerprint\":\"0000000000000007\"}\n";
        // Torn at the tail: tolerated and flagged, valid prefix intact.
        let mut text = String::from(head);
        text.push_str("{\"c2ckpt\":1,\"shard\":0,\"cover");
        let parsed = parse(&text).unwrap();
        assert!(parsed.truncated_tail);
        assert!(parsed.checkpoints.is_empty());
        assert_eq!(parsed.valid_len, head.len());
        // A checkpoint that parses as JSON but is missing fields,
        // mid-file: a hard error.
        let mut text = String::from(head);
        text.push_str("{\"c2ckpt\":1,\"shard\":0}\n");
        text.push_str("{\"seq\":0,\"attempts\":1,\"timeouts\":0,\"status\":\"ok\",\"time\":5.0}\n");
        assert!(matches!(parse(&text), Err(Error::Journal(_))));
    }

    #[test]
    fn compact_drops_torn_tail_duplicates_and_stale_checkpoints() {
        let dir = std::env::temp_dir().join("c2runner-journal-compact");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("k-{}.jsonl", std::process::id()));
        let snap = |trips: usize| BreakerSnapshot {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            shorted_while_open: 0,
            probe_successes: 0,
            trips,
            short_circuits: 0,
        };
        {
            let mut w = JournalWriter::create(&path, &header()).unwrap();
            w.record(&sample_records()[0]).unwrap();
            w.checkpoint(&Checkpoint {
                shard: 0,
                covered: 1,
                snapshot: snap(0),
            })
            .unwrap();
            w.record(&sample_records()[0]).unwrap(); // duplicate seq 0
            w.record(&sample_records()[1]).unwrap();
            w.checkpoint(&Checkpoint {
                shard: 0,
                covered: 2,
                snapshot: snap(1),
            })
            .unwrap();
        }
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"seq\":2,\"atte").unwrap(); // torn tail
        }
        let stats = compact(&path).unwrap();
        assert_eq!(stats.records, 2);
        assert_eq!(stats.duplicates_dropped, 1);
        assert_eq!(stats.checkpoints_dropped, 1);
        assert_eq!(stats.checkpoints_kept, 1);
        assert!(stats.torn_tail_dropped);
        let back = load(&path).unwrap();
        assert!(!back.truncated_tail);
        assert_eq!(back.records.len(), 2);
        assert_eq!(back.checkpoints.len(), 1);
        assert_eq!(back.checkpoints[0].covered, 2);
        assert_eq!(back.checkpoints[0].snapshot.trips, 1);
        // Idempotent: compacting a compact journal changes nothing.
        let text = std::fs::read_to_string(&path).unwrap();
        let again = compact(&path).unwrap();
        assert_eq!(again.duplicates_dropped, 0);
        assert_eq!(again.checkpoints_dropped, 0);
        assert!(!again.torn_tail_dropped);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_policy_parses_its_own_spellings() {
        for p in [
            SyncPolicy::Never,
            SyncPolicy::OnCheckpoint,
            SyncPolicy::Always,
        ] {
            assert_eq!(SyncPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(SyncPolicy::parse("sometimes"), None);
        assert_eq!(SyncPolicy::default(), SyncPolicy::OnCheckpoint);
    }
}
