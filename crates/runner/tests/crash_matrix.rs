//! The crash matrix: kill the engine at *every* injected crash point
//! and prove the resumed run is bit-identical to an uninterrupted one.
//!
//! The tentpole property (DESIGN.md §11): for a seeded sweep, crash
//! the process at the Nth storage write — for every N the run performs,
//! covering the journal header, every record append, the canonical
//! rewrite, and the cache publish — then resume
//! with chaos disarmed, and the final journal bytes, cache bytes,
//! metrics/trace snapshot, run report, and assembled outcome are all
//! identical to a run that never crashed. At any thread count.
//!
//! Satellites proven here: torn tails self-heal (and a second crash
//! cannot concatenate onto a torn tail), `ENOSPC` is recoverable, a
//! panicking oracle is quarantined without losing the sweep (and its
//! key is evaluated exactly once), quarantine failures count toward
//! the breaker trip threshold, and `journal::compact` preserves resume
//! even when the compaction itself is crashed mid-write.

use c2_bound::aps::Aps;
use c2_bound::dse::{DesignPoint, DesignSpace, Oracle};
use c2_bound::C2BoundModel;
use c2_obs::Recorder;
use c2_runner::{
    journal, BackoffPolicy, BreakerPolicy, ChaosPlan, ChaosStorage, DiskStorage, InjectedOracle,
    RunConfig, RunReport, RunSummary, SweepRunner, SyncPolicy,
};
use c2_sim::FaultPlan;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-test scratch path (fresh on every call).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("c2-crash-matrix");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{}-{}", name, std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn aps() -> Aps {
    Aps::new(C2BoundModel::example_big_data(), DesignSpace::tiny())
}

/// Cheap deterministic pricer — the matrix exercises storage, not the
/// cycle model.
fn pricer(p: &DesignPoint) -> c2_bound::Result<f64> {
    Ok(1.0e9 / (p.n as f64 * p.issue_width as f64 * p.rob_size as f64))
}

/// Faults every 4th job key: the sweep has retries, dead jobs, and
/// backfill, so the journal holds every record shape.
fn faults() -> FaultPlan {
    FaultPlan {
        oracle_failure_period: Some(4),
        ..FaultPlan::default()
    }
}

/// Sharded config that appends and fsyncs every record (the tiny plan
/// has one job per shard, so any larger cadence would only append at
/// shard completion) and retry/breaker headroom for the injected
/// faults.
fn config(threads: usize) -> RunConfig {
    RunConfig {
        threads,
        max_attempts: 3,
        checkpoint_every: 1,
        backoff: BackoffPolicy {
            base_ms: 1,
            factor: 2.0,
            cap_ms: 2,
            jitter_frac: 0.5,
        },
        breaker: BreakerPolicy {
            trip_threshold: 50,
            cooldown: 3,
            probes: 2,
        },
        ..RunConfig::default()
    }
}

#[derive(Debug)]
struct Artifacts {
    journal: Vec<u8>,
    cache: Vec<u8>,
    metrics: String,
    report: RunReport,
    summary: RunSummary,
}

/// One fully-observed run; on success, captures every artifact the
/// matrix bit-compares.
fn run(
    config: RunConfig,
    journal_path: &PathBuf,
    cache_path: &PathBuf,
    resume: bool,
) -> c2_runner::Result<Artifacts> {
    let config = RunConfig {
        cache_path: Some(cache_path.clone()),
        ..config
    };
    let runner = SweepRunner::new(config).expect("valid config");
    let recorder = Recorder::new();
    let ops = Recorder::new();
    let summary = runner.run_aps_full(
        &aps(),
        || InjectedOracle::new(faults(), pricer).expect("valid plan"),
        Some(journal_path),
        resume,
        &recorder,
        &ops,
    )?;
    Ok(Artifacts {
        journal: std::fs::read(journal_path).expect("journal readable"),
        // Incomplete runs (abort_after) publish no cache file.
        cache: std::fs::read(cache_path).unwrap_or_default(),
        metrics: recorder.report().to_json(),
        report: summary.report,
        summary,
    })
}

/// Assert a resumed run's artifacts are bit-identical to the clean
/// run's. `report.resumed` is the one field that legitimately differs
/// (it honestly counts journal records picked up), so it is normalized
/// before comparison.
fn assert_identical(clean: &Artifacts, resumed: &Artifacts, context: &str) {
    assert_eq!(clean.journal, resumed.journal, "{context}: journal bytes");
    assert_eq!(clean.cache, resumed.cache, "{context}: cache bytes");
    assert_eq!(clean.metrics, resumed.metrics, "{context}: metrics/trace");
    let mut norm = resumed.report;
    norm.resumed = clean.report.resumed;
    assert_eq!(clean.report, norm, "{context}: run report");
    assert_eq!(
        clean.summary.outcome, resumed.summary.outcome,
        "{context}: assembled outcome"
    );
}

#[test]
fn crash_anywhere_then_resume_is_bit_identical() {
    let clean_journal = scratch("anywhere-clean.jsonl");
    let clean_cache = scratch("anywhere-clean.cache");
    let clean = run(config(1), &clean_journal, &clean_cache, false).expect("clean run");
    assert!(clean.report.completed);
    assert!(clean.report.retried > 0, "faults actually fired");
    assert!(clean.report.skipped + clean.report.backfilled > 0);

    for threads in [1usize, 4] {
        let mut exhausted_at = None;
        for n in 1u64..=500 {
            let journal_path = scratch(&format!("anywhere-t{threads}-n{n}.jsonl"));
            let cache_path = scratch(&format!("anywhere-t{threads}-n{n}.cache"));
            let survived = run_matrix_point(threads, n, &journal_path, &cache_path, &clean);
            if survived {
                exhausted_at = Some(n);
                break;
            }
        }
        let total_writes = exhausted_at.expect("matrix must exhaust within 500 writes") - 1;
        // The matrix must actually have covered the interesting crash
        // points: header + 9 records + the 10-line canonical rewrite +
        // cache publish is over 20 writes.
        assert!(
            total_writes > 20,
            "only {total_writes} crash points at {threads} threads — matrix too small"
        );
    }
}

/// One matrix point: crash at write #n, recover, compare against the
/// clean artifacts. Returns true when write #n was never reached (the
/// run survived, exhausting the matrix).
fn run_matrix_point(
    threads: usize,
    n: u64,
    journal_path: &PathBuf,
    cache_path: &PathBuf,
    clean: &Artifacts,
) -> bool {
    let chaotic = RunConfig {
        chaos: Some(ChaosPlan {
            crash_at_write: Some(n),
            seed: n,
            ..ChaosPlan::default()
        }),
        ..config(threads)
    };
    match run(chaotic, journal_path, cache_path, false) {
        Ok(arts) => {
            assert_identical(clean, &arts, &format!("t{threads} idle chaos (n={n})"));
            true
        }
        Err(_) => {
            let recovered = match run(config(threads), journal_path, cache_path, true) {
                Ok(arts) => arts,
                Err(e) if e.to_string().contains("header") => {
                    // The crash fired before a complete header line
                    // survived: the journal carries no sweep identity,
                    // so resuming against it is refused. Documented
                    // recovery (README): remove it and restart fresh.
                    std::fs::remove_file(journal_path).expect("remove headerless journal");
                    run(config(threads), journal_path, cache_path, false)
                        .expect("fresh restart after headerless crash")
                }
                Err(e) => panic!("resume at t{threads} crash point {n} failed: {e}"),
            };
            assert!(recovered.report.completed);
            assert_identical(clean, &recovered, &format!("t{threads} crash at write {n}"));
            false
        }
    }
}

#[test]
fn second_crash_on_the_torn_tail_still_resumes_clean() {
    let clean_journal = scratch("double-clean.jsonl");
    let clean_cache = scratch("double-clean.cache");
    let clean = run(config(2), &clean_journal, &clean_cache, false).expect("clean run");

    // First crash: tear a record mid-line.
    let journal_path = scratch("double.jsonl");
    let cache_path = scratch("double.cache");
    let first = RunConfig {
        chaos: Some(ChaosPlan {
            crash_at_write: Some(6),
            torn_bytes: Some(7),
            ..ChaosPlan::default()
        }),
        ..config(2)
    };
    run(first, &journal_path, &cache_path, false).expect_err("first crash fires");

    // Second crash: the resume truncates the torn tail, appends a few
    // records, and dies again (torn again, different prefix).
    let second = RunConfig {
        chaos: Some(ChaosPlan {
            crash_at_write: Some(5),
            torn_bytes: Some(11),
            ..ChaosPlan::default()
        }),
        ..config(2)
    };
    run(second, &journal_path, &cache_path, true).expect_err("second crash fires");

    // Final resume on honest storage: bit-identical to never crashing.
    let recovered = run(config(2), &journal_path, &cache_path, true).expect("final resume");
    assert_identical(&clean, &recovered, "double crash");
}

#[test]
fn enospc_aborts_cleanly_and_the_journal_resumes() {
    let clean_journal = scratch("enospc-clean.jsonl");
    let clean_cache = scratch("enospc-clean.cache");
    let clean = run(config(1), &clean_journal, &clean_cache, false).expect("clean run");

    let journal_path = scratch("enospc.jsonl");
    let cache_path = scratch("enospc.cache");
    let chaotic = RunConfig {
        chaos: Some(ChaosPlan {
            enospc_at_write: Some(4),
            ..ChaosPlan::default()
        }),
        ..config(1)
    };
    let err = run(chaotic, &journal_path, &cache_path, false).expect_err("ENOSPC aborts");
    assert!(
        err.to_string().contains("no space left"),
        "unexpected error: {err}"
    );
    // The failed write persisted nothing, so the journal is a valid
    // prefix; resume completes and converges on the clean artifacts.
    let recovered = run(config(1), &journal_path, &cache_path, true).expect("resume");
    assert_identical(&clean, &recovered, "ENOSPC");
}

#[test]
fn short_write_is_truncated_on_resume_and_counted() {
    let clean_journal = scratch("short-clean.jsonl");
    let clean_cache = scratch("short-clean.cache");
    let clean = run(config(1), &clean_journal, &clean_cache, false).expect("clean run");

    let journal_path = scratch("short.jsonl");
    let cache_path = scratch("short.cache");
    let chaotic = RunConfig {
        chaos: Some(ChaosPlan {
            short_write_at: Some(3),
            ..ChaosPlan::default()
        }),
        ..config(1)
    };
    run(chaotic, &journal_path, &cache_path, false).expect_err("short write aborts");

    // Resume with an ops recorder to observe the self-heal telemetry.
    let runner = SweepRunner::new(RunConfig {
        cache_path: Some(cache_path.clone()),
        ..config(1)
    })
    .unwrap();
    let recorder = Recorder::new();
    let ops = Recorder::new();
    let summary = runner
        .run_aps_full(
            &aps(),
            || InjectedOracle::new(faults(), pricer).unwrap(),
            Some(&journal_path),
            true,
            &recorder,
            &ops,
        )
        .expect("resume");
    assert!(summary.report.completed);
    let resumed = Artifacts {
        journal: std::fs::read(&journal_path).unwrap(),
        cache: std::fs::read(&cache_path).unwrap(),
        metrics: recorder.report().to_json(),
        report: summary.report,
        summary,
    };
    assert_identical(&clean, &resumed, "short write");
    let repairs = ops
        .report()
        .registry
        .counters()
        .find(|(name, _)| *name == c2_obs::names::ENGINE_JOURNAL_TRUNCATION_REPAIRS_TOTAL)
        .map(|(_, v)| v)
        .unwrap_or(0);
    assert_eq!(
        repairs, 1,
        "the torn half-line must be repaired exactly once"
    );
}

/// An oracle that panics on specific job keys and counts every
/// evaluation per key.
struct PanicOracle {
    panic_keys: Vec<u64>,
    calls: Arc<AtomicUsize>,
    panic_calls: Arc<AtomicUsize>,
}

impl Oracle for PanicOracle {
    fn evaluate(&mut self, key: u64, point: &DesignPoint) -> c2_bound::Result<f64> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.panic_keys.contains(&key) {
            self.panic_calls.fetch_add(1, Ordering::SeqCst);
            panic!("injected oracle panic at key {key}");
        }
        pricer(point)
    }
}

#[test]
fn a_panicking_oracle_is_quarantined_without_losing_the_sweep() {
    let calls = Arc::new(AtomicUsize::new(0));
    let panic_calls = Arc::new(AtomicUsize::new(0));
    let journal_path = scratch("panic.jsonl");
    let cache_path = scratch("panic.cache");
    let runner = SweepRunner::new(RunConfig {
        cache_path: Some(cache_path.clone()),
        ..config(1)
    })
    .unwrap();
    let recorder = Recorder::new();
    let summary = runner
        .run_aps_full(
            &aps(),
            || PanicOracle {
                panic_keys: vec![3],
                calls: Arc::clone(&calls),
                panic_calls: Arc::clone(&panic_calls),
            },
            Some(&journal_path),
            false,
            &recorder,
            &c2_obs::NullSink,
        )
        .expect("the sweep survives the panic");
    assert!(summary.report.completed, "panic must not lose the sweep");
    assert_eq!(summary.report.quarantined, 1);
    assert_eq!(
        panic_calls.load(Ordering::SeqCst),
        1,
        "a panicked key is evaluated exactly once — no retries, no re-evaluation"
    );
    let outcome = summary.outcome.expect("assembly proceeds");
    // The quarantined point degrades to calibrated analytic backfill.
    assert!(
        summary.report.backfilled >= 1,
        "quarantined point must be backfilled, got {:?}",
        summary.report
    );
    assert!(outcome
        .refinement
        .skipped
        .iter()
        .any(|s| s.analytic_estimate.is_some()));

    // The journal records the quarantine durably.
    let contents = journal::load(&journal_path).expect("journal parses");
    let quarantined: Vec<_> = contents.records.iter().filter(|r| r.quarantined).collect();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].seq, 3);
    assert!(quarantined[0]
        .result
        .as_ref()
        .unwrap_err()
        .contains("injected oracle panic"));

    // Bit-identity across thread counts holds under panics too.
    let metrics1 = recorder.report().to_json();
    let journal1 = std::fs::read(&journal_path).unwrap();
    for threads in [2usize, 4] {
        let jp = scratch(&format!("panic-t{threads}.jsonl"));
        let cp = scratch(&format!("panic-t{threads}.cache"));
        let runner = SweepRunner::new(RunConfig {
            cache_path: Some(cp.clone()),
            ..config(threads)
        })
        .unwrap();
        let rec = Recorder::new();
        let s = runner
            .run_aps_full(
                &aps(),
                || PanicOracle {
                    panic_keys: vec![3],
                    calls: Arc::clone(&calls),
                    panic_calls: Arc::new(AtomicUsize::new(0)),
                },
                Some(&jp),
                false,
                &rec,
                &c2_obs::NullSink,
            )
            .expect("run survives");
        assert_eq!(s.report, summary.report, "report at {threads} threads");
        assert_eq!(
            rec.report().to_json(),
            metrics1,
            "metrics at {threads} threads"
        );
        assert_eq!(
            std::fs::read(&jp).unwrap(),
            journal1,
            "journal at {threads} threads"
        );
    }
}

#[test]
fn quarantine_failures_count_toward_the_breaker_trip_threshold() {
    // A 4 × 16 = 64-job plan puts four jobs in each of the 16 shards
    // (shard = seq % 16). Keys 15 and 31 open shard 15 and both panic:
    // two consecutive quarantines must trip its breaker, the cooldown
    // short-circuits job 47, and the half-open probe then recovers on
    // the healthy tail (job 63).
    let tiny = DesignSpace::tiny();
    let space = DesignSpace::new(
        tiny.a0().to_vec(),
        tiny.a1().to_vec(),
        tiny.a2().to_vec(),
        tiny.n().to_vec(),
        vec![1, 2, 4, 8],
        (1..=16).map(|i| 16 * i).collect(),
    )
    .unwrap();
    let wide = Aps::new(C2BoundModel::example_big_data(), space);
    let runner = SweepRunner::new(RunConfig {
        threads: 1,
        max_attempts: 3,
        breaker: BreakerPolicy {
            trip_threshold: 2,
            cooldown: 1,
            probes: 1,
        },
        ..RunConfig::default()
    })
    .unwrap();
    let summary = runner
        .run_aps(
            &wide,
            || PanicOracle {
                panic_keys: vec![15, 31],
                calls: Arc::new(AtomicUsize::new(0)),
                panic_calls: Arc::new(AtomicUsize::new(0)),
            },
            None,
            false,
        )
        .expect("run survives the panics");
    assert!(summary.report.completed);
    assert_eq!(summary.report.quarantined, 2, "two panics before the trip");
    assert!(
        summary.report.breaker_trips >= 1,
        "quarantined failures must count toward the trip threshold: {:?}",
        summary.report
    );
    assert!(
        summary.report.short_circuited > 0,
        "after the trip the cooldown is short-circuited: {:?}",
        summary.report
    );
    assert!(summary.report.succeeded > 0, "the healthy tail recovers");
    let outcome = |seq: usize| &summary.results[seq].1;
    assert_eq!(outcome(47).attempts, 0, "job 47 is short-circuited");
    assert!(outcome(63).result.is_ok(), "the probe on job 63 succeeds");
}

#[test]
fn compact_preserves_resume_and_survives_its_own_crash() {
    let clean_journal = scratch("compact-clean.jsonl");
    let clean_cache = scratch("compact-clean.cache");
    let clean = run(config(1), &clean_journal, &clean_cache, false).expect("clean run");

    // Interrupt a run mid-sweep (abort_after) to get a journal with a
    // live append tail.
    let journal_path = scratch("compact.jsonl");
    let cache_path = scratch("compact.cache");
    let partial = RunConfig {
        abort_after: Some(4),
        ..config(1)
    };
    let s = run(partial, &journal_path, &cache_path, false).expect("aborted run returns Ok");
    assert!(!s.report.completed);
    let before = std::fs::read(&journal_path).unwrap();

    // Crash the compaction itself: the temp-file-plus-rename rewrite
    // dies mid-write, and the original journal must be untouched.
    let chaos = ChaosStorage::new(
        Box::new(DiskStorage),
        ChaosPlan {
            crash_at_write: Some(2),
            torn_bytes: Some(9),
            ..ChaosPlan::default()
        },
    )
    .unwrap();
    journal::compact_with(&chaos, SyncPolicy::OnCheckpoint, &journal_path)
        .expect_err("mid-compaction crash surfaces");
    assert_eq!(
        std::fs::read(&journal_path).unwrap(),
        before,
        "a crashed compaction must leave the journal byte-identical"
    );

    // After a successful compaction the journal still resumes to the
    // clean artifacts.
    let stats = journal::compact(&journal_path).expect("compact");
    assert_eq!(stats.records, 4);
    let recovered = run(config(1), &journal_path, &cache_path, true).expect("resume");
    assert_identical(&clean, &recovered, "post-compaction resume");
}

#[test]
fn unobserved_resume_converges_to_the_observed_run() {
    // run_aps resumes on the one replay path with nothing listening;
    // the final outcome, canonical journal and cache must still match
    // the clean observed run bit for bit.
    let clean_journal = scratch("fast-clean.jsonl");
    let clean_cache = scratch("fast-clean.cache");
    let clean = run(config(2), &clean_journal, &clean_cache, false).expect("clean run");

    let journal_path = scratch("fast.jsonl");
    let cache_path = scratch("fast.cache");
    let partial = RunConfig {
        abort_after: Some(3),
        cache_path: Some(cache_path.clone()),
        ..config(2)
    };
    let s = SweepRunner::new(partial)
        .unwrap()
        .run_aps(
            &aps(),
            || InjectedOracle::new(faults(), pricer).unwrap(),
            Some(&journal_path),
            false,
        )
        .expect("partial run");
    assert!(!s.report.completed);

    let resumed = SweepRunner::new(RunConfig {
        cache_path: Some(cache_path.clone()),
        ..config(2)
    })
    .unwrap()
    .run_aps(
        &aps(),
        || InjectedOracle::new(faults(), pricer).unwrap(),
        Some(&journal_path),
        true,
    )
    .expect("unobserved resume");
    assert!(resumed.report.completed);
    assert!(resumed.report.resumed >= 3);
    assert_eq!(resumed.outcome, clean.summary.outcome, "assembled outcome");
    assert_eq!(
        std::fs::read(&journal_path).unwrap(),
        clean.journal,
        "canonical journal bytes"
    );
    assert_eq!(
        std::fs::read(&cache_path).unwrap(),
        clean.cache,
        "published cache bytes"
    );
}
