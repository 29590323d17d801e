//! The content-addressed evaluation cache.
//!
//! Oracle evaluations are pure functions of the run's identity (model,
//! chip, workload, budget — everything that shapes the sweep) and of
//! the design point being simulated (summarized by the job's
//! [`content key`](c2_bound::aps::RefinementJob::content_key), which
//! deliberately excludes the job's plan position). The cache memoizes
//! *successful* evaluations under the FNV-1a mix of a **run identity
//! fingerprint** and the content key, so a result computed once is
//! reusable:
//!
//! * across `--resume` runs — a job whose journal record was torn off
//!   by a crash is redone as a cache hit instead of a re-simulation;
//! * across whole runs of the same scenario — a warm cache turns a
//!   repeated sweep into pure bookkeeping;
//! * never across *different* runs' work — the identity fingerprint is
//!   part of every address, so editing the model invalidates the cache
//!   without any explicit versioning.
//!
//! The engine derives the identity from the same material the journal
//! header pins: the plan fingerprint bound to the scenario fingerprint
//! (`journal::bind_fingerprint`), further bound to
//! [`RunConfig::cache_fingerprint`](crate::RunConfig::cache_fingerprint)
//! when set. The CLI's scenario-less positional path (`run <workload>
//! [size]`) sets that field to the fingerprint of the scenario it
//! assembles internally, so one cache file shared across positional
//! invocations can never serve one workload's or size's simulated
//! times to another — a mismatched identity can only miss.
//!
//! Entries also record how many oracle attempts the original
//! computation consumed. A hit replays that attempt history into the
//! shard's circuit breaker (exactly like journal replay does), so a
//! resumed-with-cache run walks the breaker through the same
//! trajectory as the uninterrupted run and the merged sweep stays
//! bit-identical.
//!
//! **Publication is crash-atomic and happens once, at run completion.**
//! The engine reads the file once at startup ([`load`]) and never
//! writes it while jobs run; when the sweep completes it derives fresh
//! entries from the journal's terminal records, merges them over the
//! startup snapshot, and [`publish`]es the union via a sibling temp
//! file and an atomic rename. A crash mid-sweep therefore leaves the
//! cache byte-identical to run start — which is what makes the
//! crash-matrix proof possible: the resumed run sees exactly the
//! snapshot the uninterrupted run saw, so its hit/miss pattern (and
//! with it the journal's `cached` flags and the cache-hit metrics)
//! converges on the clean run's without any normalization. Nothing is
//! lost to the crash either: the resumed run's completed work is still
//! in the journal, and publication re-derives entries from those
//! records.
//!
//! On disk the cache is JSONL, same dialect as the journal: a header
//! line pinning the format version, then one line per entry, sorted by
//! key (publication is a pure function of the entry set). Lines are
//! written by hand (a time keeps its `{t:?}` spelling) and read with
//! [`c2_config::Json::parse`], except the header, which must match its
//! exact bytes or be a torn prefix of them. [`load`] is the one reader
//! and [`publish`] the one writer (the engine and the tests that seed
//! a cache both use them).
//!
//! The cache is advisory — a torn or malformed entry line is skipped
//! (and counted, so the engine can surface a recovery metric), not
//! fatal, and a file that is empty or holds only a torn header is
//! treated as a fresh cache — but a file whose header is some *other*
//! format is rejected rather than overwritten.
//!
//! ```text
//! {"c2cache":1}
//! {"key":"81ee23fcbe4f85d0","attempts":1,"time":123456.0}
//! ```

use crate::storage::Storage;
use crate::{Error, Result};
use c2_config::{Fnv1a, Json};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

/// Cache format version written in the header.
pub const CACHE_VERSION: u64 = 1;

/// One memoized successful evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedEval {
    /// Oracle attempts the original computation consumed (≥ 1).
    pub attempts: usize,
    /// The simulated time.
    pub time: f64,
}

/// The cache address of one evaluation: FNV-1a over the run's identity
/// fingerprint and the job's content key. The identity is the journal's
/// bound fingerprint (plan ⊕ scenario) further bound to any positional
/// cache fingerprint — oracle results depend on the workload, model,
/// and size, none of which the content key (pure grid geometry) can
/// see, so the identity must carry them.
pub fn cache_key(run_identity: u64, content_key: u64) -> u64 {
    Fnv1a::default()
        .word(run_identity)
        .word(content_key)
        .finish()
}

fn header_line() -> String {
    format!("{{\"c2cache\":{CACHE_VERSION}}}")
}

fn entry_line(key: u64, entry: &CachedEval) -> String {
    format!(
        "{{\"key\":\"{key:016x}\",\"attempts\":{},\"time\":{:?}}}",
        entry.attempts, entry.time
    )
}

/// What [`load`] found on disk at run start.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadedCache {
    /// Every well-formed entry (first occurrence of each key wins).
    pub snapshot: HashMap<u64, CachedEval>,
    /// Torn or malformed entry lines that were skipped. The engine
    /// surfaces this as a recovery counter — a non-zero value means a
    /// crash or disk fault cost some memoized results but nothing else.
    pub skipped: usize,
}

/// Read the cache at `path` without creating or modifying anything.
/// A missing file, an empty file, or one holding only a torn header
/// (a crash between creation and the header flush, from older engines
/// that wrote the header eagerly) loads as an empty cache — the cache
/// is advisory and must never block a run — while a file in some other
/// format is rejected so [`publish`] can't clobber a foreign file.
pub fn load(storage: &dyn Storage, path: &Path) -> Result<LoadedCache> {
    let Some(text) = storage.read_to_string(path)? else {
        return Ok(LoadedCache::default());
    };
    match parse_snapshot(&text, path)? {
        Some(loaded) => Ok(loaded),
        None => Ok(LoadedCache::default()),
    }
}

/// Atomically replace the cache at `path` with the union of `entries`
/// and whatever the file holds *now*: header plus one line per entry
/// in ascending key order, written to a sibling temp file and renamed
/// over the original. `sync` fsyncs before the rename so the
/// publication survives power loss.
///
/// Callers pass the union of the startup snapshot and the entries
/// derived from this run's journal — the cache file is shared across
/// run identities (addresses embed the identity), so publishing only
/// this run's entries would evict every other sweep's results. The
/// re-read here extends the same courtesy to *concurrent* publishers
/// (several daemon executors, or parallel one-shot runs, sharing one
/// cache): a run that completed after this run's startup snapshot was
/// taken keeps its entries. On a key both sides know, `entries` wins —
/// evaluations are pure functions of the key, so the values agree
/// anyway. The temp file name is unique per publication; a fixed name
/// would let one publisher rename a sibling's half-written temp file
/// into place and strand the sibling's rename.
pub fn publish(
    storage: &dyn Storage,
    sync: bool,
    path: &Path,
    entries: &BTreeMap<u64, CachedEval>,
) -> Result<()> {
    static PUBLISH_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = PUBLISH_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let mut merged = load(storage, path)?
        .snapshot
        .into_iter()
        .collect::<BTreeMap<u64, CachedEval>>();
    for (key, entry) in entries {
        merged.insert(*key, *entry);
    }
    let entries = &merged;
    {
        let mut out = storage.create(&tmp)?;
        let mut buf = header_line();
        buf.push('\n');
        out.write_all(buf.as_bytes())?;
        for (key, entry) in entries {
            let mut line = entry_line(*key, entry);
            line.push('\n');
            out.write_all(line.as_bytes())?;
        }
        out.flush()?;
        if sync {
            out.sync()?;
        }
    }
    storage.rename(&tmp, path)
}

/// Parse a cache file's contents. `Ok(None)` means the file is an
/// empty or torn-header remnant and should be treated as a fresh
/// cache; `Err` means it is some other format and must not be touched.
fn parse_snapshot(text: &str, path: &Path) -> Result<Option<LoadedCache>> {
    let mut lines = text.split('\n').filter(|l| !l.trim().is_empty());
    let Some(header) = lines.next() else {
        return Ok(None); // crash before the header flushed
    };
    if header.trim() != header_line() {
        // A header torn mid-write is a strict prefix of the expected
        // header with nothing after it (entries can only follow a
        // complete header). Anything else is a foreign file.
        if header_line().starts_with(header.trim()) && lines.next().is_none() {
            return Ok(None);
        }
        return Err(Error::Journal(format!(
            "{path:?} is not a c2-runner evaluation cache (header {header:?})"
        )));
    }
    let mut loaded = LoadedCache::default();
    for line in lines {
        // Advisory store: a torn or malformed entry loses one
        // memoized result, nothing else — later entries still load.
        let fields = Json::parse(line).unwrap_or(Json::Null);
        if let Some((key, entry)) = parse_entry(&fields) {
            loaded.snapshot.entry(key).or_insert(entry);
        } else {
            loaded.skipped += 1;
        }
    }
    Ok(Some(loaded))
}

/// Read one `{"key":"<hex16>","attempts":N,"time":T}` line.
fn parse_entry(fields: &Json) -> Option<(u64, CachedEval)> {
    let attempts = fields.get("attempts")?.as_u64()?.try_into().ok()?;
    let time = fields.get("time")?.as_f64()?;
    if attempts == 0 || !time.is_finite() {
        return None;
    }
    let key = u64::from_str_radix(fields.get("key")?.as_str()?, 16).ok()?;
    Some((key, CachedEval { attempts, time }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::DISK;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("c2runner-cache-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        path
    }

    fn one_entry(key: u64, attempts: usize, time: f64) -> BTreeMap<u64, CachedEval> {
        BTreeMap::from([(key, CachedEval { attempts, time })])
    }

    #[test]
    fn publish_then_load_round_trips_times_bit_exactly() {
        let path = tmp("roundtrip.jsonl");
        for time in [0.1 + 0.2, 1029.0, 5e-324, 1e308] {
            publish(&DISK, false, &path, &one_entry(7, 2, time)).unwrap();
            let loaded = load(&DISK, &path).unwrap();
            assert_eq!(loaded.snapshot.len(), 1);
            assert_eq!(
                loaded
                    .snapshot
                    .get(&7)
                    .map(|e| (e.attempts, e.time.to_bits())),
                Some((2, time.to_bits())),
                "{time:?} round-trips bit-exactly"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_entries_are_skipped() {
        let path = tmp("torn.jsonl");
        std::fs::write(
            &path,
            "{\"c2cache\":1}\n{\"key\":\"0000000000000001\",\"attempts\":1,\"time\":5.0}\n{\"key\":\"00000000000",
        )
        .unwrap();
        let loaded = load(&DISK, &path).unwrap();
        assert_eq!(loaded.snapshot.len(), 1);
        assert_eq!(loaded.skipped, 1);
        assert_eq!(
            loaded.snapshot.get(&1),
            Some(&CachedEval {
                attempts: 1,
                time: 5.0
            })
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_record_mid_file_is_skipped_and_counted_not_fatal() {
        // A torn record does not have to be the final line: a crash of
        // an older engine plus a later append, or a disk fault, can
        // leave garbage mid-file. Later well-formed entries must still
        // load, and the skip must be observable.
        let path = tmp("torn-mid.jsonl");
        std::fs::write(
            &path,
            "{\"c2cache\":1}\n\
             {\"key\":\"0000000000000001\",\"attempts\":1,\"time\":5.0}\n\
             {\"key\":\"00000000000\n\
             garbage, not json\n\
             {\"key\":\"0000000000000002\",\"attempts\":3,\"time\":6.5}\n",
        )
        .unwrap();
        let loaded = load(&DISK, &path).unwrap();
        assert_eq!(loaded.skipped, 2);
        assert_eq!(loaded.snapshot.len(), 2);
        assert_eq!(
            loaded.snapshot.get(&2),
            Some(&CachedEval {
                attempts: 3,
                time: 6.5
            }),
            "entries after the torn line still load"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_is_read_only_and_tolerates_missing_and_torn_header() {
        let path = tmp("load-missing.jsonl");
        let loaded = load(&DISK, &path).unwrap();
        assert!(loaded.snapshot.is_empty());
        assert!(!path.exists(), "load must not create the file");
        std::fs::write(&path, "{\"c2cach").unwrap();
        let loaded = load(&DISK, &path).unwrap();
        assert!(loaded.snapshot.is_empty());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"c2cach",
            "load must not repair the file either"
        );
        std::fs::write(&path, "not a cache\n").unwrap();
        assert!(matches!(load(&DISK, &path), Err(Error::Journal(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn publish_writes_sorted_entries_and_replaces_atomically() {
        let path = tmp("publish.jsonl");
        let mut entries = BTreeMap::new();
        entries.insert(
            0xBEEF,
            CachedEval {
                attempts: 2,
                time: 7.0,
            },
        );
        entries.insert(
            0x0001,
            CachedEval {
                attempts: 1,
                time: 5.0,
            },
        );
        publish(&DISK, false, &path, &entries).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"c2cache\":1}\n\
             {\"key\":\"0000000000000001\",\"attempts\":1,\"time\":5.0}\n\
             {\"key\":\"000000000000beef\",\"attempts\":2,\"time\":7.0}\n",
            "publication is sorted by key: a pure function of the set"
        );
        // Republishing merges with what's on disk and stays sorted.
        entries.insert(
            0x0002,
            CachedEval {
                attempts: 1,
                time: 6.0,
            },
        );
        publish(&DISK, true, &path, &entries).unwrap();
        let loaded = load(&DISK, &path).unwrap();
        assert_eq!(loaded.snapshot.len(), 3);
        assert_eq!(loaded.skipped, 0);
        assert!(
            !path.with_extension("jsonl.tmp").exists(),
            "the temp file is consumed by the rename"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_publishers_never_strand_each_other() {
        // Several runs sharing one cache file (daemon executors, or
        // parallel one-shot runs) may complete at the same moment.
        // Every publish must succeed: with a fixed temp-file name one
        // publisher could rename a sibling's half-written temp file
        // into place and fail the sibling's rename with ENOENT.
        let path = tmp("concurrent.jsonl");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let path = &path;
                s.spawn(move || {
                    for i in 0..25u64 {
                        let mut entries = BTreeMap::new();
                        entries.insert(
                            t * 1000 + i,
                            CachedEval {
                                attempts: 1,
                                time: i as f64,
                            },
                        );
                        publish(&DISK, false, path, &entries).unwrap();
                    }
                });
            }
        });
        // The survivor is a well-formed cache (renames are atomic, so
        // readers never observe a torn file) with no stranded temps.
        let loaded = load(&DISK, &path).unwrap();
        assert_eq!(loaded.skipped, 0);
        assert!(!loaded.snapshot.is_empty());
        let stem = path.file_name().unwrap().to_string_lossy().to_string();
        let strays = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let name = e.file_name().to_string_lossy().to_string();
                name.starts_with(&stem) && name.ends_with(".tmp")
            })
            .count();
        assert_eq!(strays, 0, "every temp file is consumed by its rename");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_files_are_rejected_not_overwritten() {
        let path = tmp("foreign.jsonl");
        // A torn header followed by more lines cannot be our remnant
        // (entries only ever follow a complete header): also foreign.
        for text in ["not a cache\n", "{\"c2cach\nsomething else\n"] {
            std::fs::write(&path, text).unwrap();
            assert!(matches!(load(&DISK, &path), Err(Error::Journal(_))));
            let entries = one_entry(3, 1, 2.0);
            assert!(matches!(
                publish(&DISK, false, &path, &entries),
                Err(Error::Journal(_))
            ));
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_reset_to_a_fresh_cache() {
        let path = tmp("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(load(&DISK, &path).unwrap().snapshot.is_empty());
        publish(&DISK, false, &path, &one_entry(3, 1, 2.0)).unwrap();
        assert_eq!(
            load(&DISK, &path).unwrap().snapshot.get(&3),
            Some(&CachedEval {
                attempts: 1,
                time: 2.0
            })
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_is_reset_to_a_fresh_cache() {
        // Crash between File::create and the header flush: the file
        // holds a prefix of the header. The cache is advisory, so this
        // must self-heal, not block every subsequent run.
        let path = tmp("torn-header.jsonl");
        std::fs::write(&path, "{\"c2cach").unwrap();
        assert!(load(&DISK, &path).unwrap().snapshot.is_empty());
        publish(&DISK, false, &path, &one_entry(9, 2, 7.5)).unwrap();
        let loaded = load(&DISK, &path).unwrap();
        assert_eq!(
            loaded.snapshot.len(),
            1,
            "the rewritten header is well-formed"
        );
        assert_eq!(loaded.skipped, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lines_are_read_as_json_not_by_prefix() {
        // Any key order and spacing reads; a count that is negative or
        // fractional, or a non-finite time, does not.
        let path = tmp("json-lines.jsonl");
        std::fs::write(
            &path,
            "{\"c2cache\":1}\n\
             { \"time\": 6.5, \"attempts\": 3, \"key\": \"0000000000000002\" }\n\
             {\"key\":\"0000000000000003\",\"attempts\":-1,\"time\":1.0}\n\
             {\"key\":\"0000000000000004\",\"attempts\":1.5,\"time\":1.0}\n\
             {\"key\":\"0000000000000005\",\"attempts\":1,\"time\":1e999}\n",
        )
        .unwrap();
        let loaded = load(&DISK, &path).unwrap();
        assert_eq!(loaded.skipped, 3);
        assert_eq!(
            loaded.snapshot.get(&2),
            Some(&CachedEval {
                attempts: 3,
                time: 6.5
            })
        );
        assert_eq!(loaded.snapshot.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_legacy_phase_line_is_skipped_and_dropped_on_publish() {
        // Earlier versions memoized phase plans as `c2phase` lines in
        // the cache. Such a line is not an entry: it loads as one
        // skipped line, and the next publication drops it.
        let path = tmp("legacy-phase.jsonl");
        std::fs::write(
            &path,
            "{\"c2cache\":1}\n\
             {\"key\":\"0000000000000001\",\"attempts\":1,\"time\":5.0}\n\
             {\"c2phase\":1,\"key\":\"000000000000f00d\",\"interval_len\":1000,\"labels\":[0,1,0],\"representatives\":[0,1]}\n\
             {\"key\":\"0000000000000002\",\"attempts\":2,\"time\":6.5}\n",
        )
        .unwrap();
        let loaded = load(&DISK, &path).unwrap();
        assert_eq!(loaded.skipped, 1);
        assert_eq!(loaded.snapshot.len(), 2);
        publish(&DISK, false, &path, &one_entry(3, 1, 7.0)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"c2cache\":1}\n\
             {\"key\":\"0000000000000001\",\"attempts\":1,\"time\":5.0}\n\
             {\"key\":\"0000000000000002\",\"attempts\":2,\"time\":6.5}\n\
             {\"key\":\"0000000000000003\",\"attempts\":1,\"time\":7.0}\n"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cache_key_separates_run_identities_and_points() {
        assert_ne!(cache_key(1, 42), cache_key(2, 42));
        assert_ne!(cache_key(1, 42), cache_key(1, 43));
        assert_eq!(cache_key(1, 42), cache_key(1, 42));
    }
}
