//! Property tests for the engine's supervision primitives and its
//! durable-file readers.
//!
//! Three families: the backoff schedule (monotone, jitter-bounded,
//! capped, deterministic); the termination guarantee — whatever the
//! fault pattern and breaker tuning, the engine never strands a job:
//! every job ends succeeded, skipped, or backfilled, and the ledger
//! invariant `attempted == succeeded + skipped + backfilled` holds; and
//! hostile journal and cache files — seeded mutations of what the
//! writers produce load or fail with a typed error, never panic.

use c2_bound::aps::Aps;
use c2_bound::dse::{DesignPoint, DesignSpace, Oracle};
use c2_bound::C2BoundModel;
use c2_runner::storage::DISK;
use c2_runner::{
    cache, journal, BackoffPolicy, BreakerPolicy, BreakerSnapshot, BreakerState, CachedEval,
    Checkpoint, Error, JobRecord, JournalHeader, JournalWriter, PhaseRecord, RunConfig,
    SweepRunner,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn policies() -> impl Strategy<Value = BackoffPolicy> {
    (1u64..50, 1.0f64..4.0, 0u64..450, 0.0f64..1.0).prop_map(|(base, factor, extra, jitter)| {
        BackoffPolicy {
            base_ms: base,
            factor,
            cap_ms: base + extra,
            jitter_frac: jitter,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The nominal schedule never shrinks as attempts accumulate and
    /// never exceeds the cap.
    #[test]
    fn backoff_nominal_is_monotone_and_capped(p in policies()) {
        prop_assert!(p.validate().is_ok());
        let mut prev = 0u64;
        for attempt in 1..24usize {
            let nominal = p.nominal_ms(attempt);
            prop_assert!(nominal >= prev, "attempt {attempt}: {nominal} < {prev}");
            prop_assert!(nominal <= p.cap_ms);
            prev = nominal;
        }
    }

    /// Jitter displaces the nominal delay by at most `jitter_frac` of
    /// itself (plus 1 ms of rounding), stays within the cap, and is a
    /// pure function of (key, attempt).
    #[test]
    fn backoff_jitter_is_bounded_and_deterministic(
        p in policies(),
        key in 0u64..1_000_000,
        attempt in 1usize..24,
    ) {
        let nominal = p.nominal_ms(attempt) as f64;
        let delay = p.delay(key, attempt).as_millis() as f64;
        prop_assert!(delay <= p.cap_ms as f64);
        prop_assert!(
            (delay - nominal).abs() <= p.jitter_frac * nominal + 1.0,
            "delay {delay} strays past jitter bound around {nominal}"
        );
        prop_assert_eq!(p.delay(key, attempt), p.delay(key, attempt));
    }
}

/// Oracle that deterministically fails the jobs whose bit is set in
/// `mask` and prices the rest analytically.
struct MaskOracle {
    mask: u32,
}

impl Oracle for MaskOracle {
    fn evaluate(&mut self, key: u64, point: &DesignPoint) -> c2_bound::Result<f64> {
        if (self.mask >> key) & 1 == 1 {
            Err(c2_bound::Error::Simulation(format!("masked fault {key}")))
        } else {
            Ok(1.0e9 / (point.n * point.issue_width * point.rob_size) as f64)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The breaker (whatever its tuning) and the retry loop never
    /// strand a job: every sweep drains, every job is accounted for,
    /// masked jobs never sneak into the succeeded column.
    #[test]
    fn breaker_never_strands_a_job(
        raw_mask in 0u32..512,
        trip in 1usize..6,
        cooldown in 0usize..5,
        probes in 1usize..4,
        threads in 1usize..4,
        max_attempts in 1usize..4,
    ) {
        // Keep job 0 healthy: it is popped first, while the breaker is
        // still closed, so at least one refinement point survives and
        // assembly cannot fail for total loss.
        let mask = raw_mask & !1;
        let config = RunConfig {
            threads,
            deadline_ms: 0,
            max_attempts,
            backoff: BackoffPolicy {
                base_ms: 0,
                factor: 1.0,
                cap_ms: 0,
                jitter_frac: 0.0,
            },
            breaker: BreakerPolicy {
                trip_threshold: trip,
                cooldown,
                probes,
            },
            analytic_fallback: true,
            ..RunConfig::default()
        };
        let aps = Aps::new(C2BoundModel::example_big_data(), DesignSpace::tiny());
        let summary = SweepRunner::new(config)
            .unwrap()
            .run_aps(&aps, || MaskOracle { mask }, None, false)
            .unwrap();
        let report = summary.report;
        prop_assert!(report.completed, "every job must reach a terminal state");
        prop_assert!(report.consistent(), "ledger invariant violated: {report:?}");
        prop_assert_eq!(report.attempted, 9);
        prop_assert!(report.succeeded >= 1, "job 0 must survive");
        let masked = mask.count_ones() as usize;
        prop_assert!(
            report.succeeded <= 9 - masked,
            "a masked job can never succeed ({report:?}, mask {mask:#b})"
        );
        let outcome = summary.outcome.unwrap();
        prop_assert_eq!(
            outcome.refinement.skipped.len(),
            report.skipped + report.backfilled
        );
    }
}

/// A fresh per-test scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("c2-runner-mutation-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A journal as the engine writes it: the header, `n` records (every
/// third dead, with error text that needs escaping) and a checkpoint.
fn journal_text(dir: &Path, n: usize, time: f64) -> String {
    let path = dir.join("valid.journal.jsonl");
    let header = JournalHeader {
        jobs: n,
        fingerprint: 0xfeed_f00d_dead_beef,
    };
    let mut w = JournalWriter::create(&path, &header).unwrap();
    for seq in 0..n {
        let result = match seq % 3 {
            2 => Err(format!("oracle \"died\"\n\tat {seq} ☃")),
            _ => Ok(time * (seq + 1) as f64),
        };
        let record = JobRecord {
            seq,
            attempts: 1 + seq % 2,
            timeouts: seq % 2,
            result,
            short_circuited: false,
            cached: seq % 4 == 0,
            quarantined: false,
        };
        w.record(&record).unwrap();
    }
    let snapshot = BreakerSnapshot {
        state: BreakerState::HalfOpen,
        consecutive_failures: 0,
        shorted_while_open: 1,
        probe_successes: 1,
        trips: 2,
        short_circuits: 3,
    };
    w.checkpoint(&Checkpoint {
        shard: 0,
        covered: n,
        snapshot,
    })
    .unwrap();
    drop(w);
    std::fs::read_to_string(&path).unwrap()
}

/// A cache as the engine and the phase memo write it: `n` entries
/// and one phase record.
fn cache_text(dir: &Path, n: u64, time: f64) -> String {
    let path = dir.join("valid.cache.jsonl");
    std::fs::remove_file(&path).ok();
    let entries = (0..n)
        .map(|k| {
            let entry = CachedEval {
                attempts: 1 + (k % 3) as usize,
                time: time * (k + 1) as f64,
            };
            (k.wrapping_mul(0x9e37_79b9_7f4a_7c15), entry)
        })
        .collect();
    cache::publish(&DISK, false, &path, &entries).unwrap();
    let phase = PhaseRecord {
        interval_len: 1000,
        labels: vec![0, 1, 0, 2],
        representatives: vec![0, 1, 3],
    };
    cache::append_phase(&path, 0xF00D, &phase).unwrap();
    std::fs::read_to_string(&path).unwrap()
}

/// One seeded mutation of document `a`: `kind` 0 truncates it, 1 flips
/// the `flips` bits, 2 splices `a`'s head onto `b`'s tail, and 3 plants
/// one oversized field after the first `{` (a 256 KiB string, or nesting
/// far past the parser's cap). `at` places the cut or picks the field.
fn mutate(a: &str, b: &str, kind: u8, at: f64, flips: &[(f64, u8)]) -> Vec<u8> {
    let cut = |s: &str| (at * s.len() as f64) as usize;
    let mut bytes = a.as_bytes().to_vec();
    match kind {
        0 => bytes.truncate(cut(a)),
        1 => {
            for &(pos, bit) in flips {
                let i = ((pos * bytes.len() as f64) as usize).min(bytes.len() - 1);
                bytes[i] ^= 1 << bit;
            }
        }
        2 => {
            bytes.truncate(cut(a));
            bytes.extend_from_slice(&b.as_bytes()[cut(b)..]);
        }
        _ => {
            let field = if at < 0.5 {
                format!("\"pad\":\"{}\",", "x".repeat(256 << 10))
            } else {
                format!("\"pad\":{}0{},", "[".repeat(100_000), "]".repeat(100_000))
            };
            let i = bytes.iter().position(|&c| c == b'{').map_or(0, |i| i + 1);
            bytes.splice(i..i, field.into_bytes());
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A mutated journal loads or fails with a typed error; it never
    /// panics. What loads is self-consistent: the intact prefix lies
    /// within the file and every `seq` appears once.
    #[test]
    fn mutated_journals_load_or_fail_typed(
        n in 1usize..10,
        m in 1usize..10,
        time in 1.0f64..1.0e6,
        kind in 0u8..4,
        at in 0.0f64..1.0,
        flips in prop::collection::vec((0.0f64..1.0, 0u8..8), 1..8),
    ) {
        let dir = scratch("journal");
        let a = journal_text(&dir, n, time);
        let b = journal_text(&dir, m, time / 3.0);
        let bytes = mutate(&a, &b, kind, at, &flips);
        let path = dir.join("mutated.journal.jsonl");
        std::fs::write(&path, &bytes).unwrap();
        let text = String::from_utf8_lossy(&bytes);
        for loaded in [journal::load(&path), journal::parse(&text)] {
            match loaded {
                Ok(contents) => {
                    prop_assert!(contents.valid_len <= bytes.len().max(text.len()));
                    let mut seqs: Vec<usize> = contents.records.iter().map(|r| r.seq).collect();
                    seqs.sort_unstable();
                    seqs.dedup();
                    prop_assert_eq!(seqs.len(), contents.records.len());
                }
                Err(e) => prop_assert!(matches!(e, Error::Journal(_) | Error::Io(_)), "{e}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A mutated cache loads or fails with a typed error; it never
    /// panics. Every entry that loads is one the engine could have
    /// written: at least one attempt and a finite time.
    #[test]
    fn mutated_caches_load_or_fail_typed(
        n in 1u64..10,
        m in 1u64..10,
        time in 1.0f64..1.0e6,
        kind in 0u8..4,
        at in 0.0f64..1.0,
        flips in prop::collection::vec((0.0f64..1.0, 0u8..8), 1..8),
    ) {
        let dir = scratch("cache");
        let a = cache_text(&dir, n, time);
        let b = cache_text(&dir, m, time / 3.0);
        let path = dir.join("mutated.cache.jsonl");
        std::fs::write(&path, mutate(&a, &b, kind, at, &flips)).unwrap();
        match cache::load(&DISK, &path) {
            Ok(loaded) => {
                prop_assert!(loaded
                    .snapshot
                    .values()
                    .all(|e| e.attempts >= 1 && e.time.is_finite()));
                prop_assert!(loaded.phases.values().all(|p| p.interval_len > 0));
            }
            Err(e) => prop_assert!(matches!(e, Error::Journal(_) | Error::Io(_)), "{e}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
