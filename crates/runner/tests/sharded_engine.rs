//! Integration tests for the deterministic sharded engine and the
//! content-addressed evaluation cache.
//!
//! The headline property is bit-identity: for any thread count, the
//! sharded sweep's journal bytes, metrics snapshot (including the full
//! trace), final report, and assembled outcome are identical to the
//! single-thread run. The cache tests pin the memoization contract —
//! warm runs hit for every successful job, record `cached` in the
//! journal, and never diverge the breaker/backoff trajectory from the
//! run that originally computed the entries.

use c2_bound::aps::Aps;
use c2_bound::dse::{DesignPoint, DesignSpace};
use c2_bound::C2BoundModel;
use c2_obs::Recorder;
use c2_runner::{
    bind_fingerprint, cache_key, plan_fingerprint, BackoffPolicy, BreakerPolicy, CachedEval,
    EvalCache, InjectedOracle, RunConfig, RunSummary, SweepRunner,
};
use c2_sim::FaultPlan;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-test scratch path (fresh on every invocation).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("c2-sharded-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{}-{}", name, std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn aps() -> Aps {
    Aps::new(C2BoundModel::example_big_data(), DesignSpace::tiny())
}

/// A cheap, deterministic pricer (no simulator: these tests exercise
/// the engine, not the cycle model).
fn pricer(p: &DesignPoint) -> c2_bound::Result<f64> {
    Ok(1.0e9 / (p.n as f64 * p.issue_width as f64 * p.rob_size as f64))
}

/// Sharded engine config with enough retry/breaker headroom that the
/// injected faults produce retries without tripping (the breaker gets
/// its own test below).
fn config(threads: usize) -> RunConfig {
    RunConfig {
        threads,
        max_attempts: 3,
        backoff: BackoffPolicy {
            base_ms: 1,
            factor: 2.0,
            cap_ms: 4,
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

/// Faults every 4th job key so the sweep exercises retries and
/// terminal failures, not just the happy path.
fn faults() -> FaultPlan {
    FaultPlan {
        oracle_failure_period: Some(4),
        ..FaultPlan::default()
    }
}

/// One observed sharded run; returns (journal bytes, metrics JSON,
/// summary).
fn run_observed(
    config: RunConfig,
    plan: FaultPlan,
    journal: &PathBuf,
    resume: bool,
) -> (Vec<u8>, String, RunSummary) {
    let runner = SweepRunner::new(config).expect("valid config");
    let recorder = Recorder::new();
    let summary = runner
        .run_aps_observed(
            &aps(),
            || InjectedOracle::new(plan, pricer).expect("valid plan"),
            Some(journal),
            resume,
            &recorder,
        )
        .expect("run succeeds");
    let bytes = std::fs::read(journal).expect("journal readable");
    (bytes, recorder.report().to_json(), summary)
}

#[test]
fn sharded_run_is_bit_identical_for_every_thread_count() {
    let baseline_journal = scratch("bit-identity-t1.jsonl");
    let (bytes1, metrics1, summary1) = run_observed(config(1), faults(), &baseline_journal, false);
    assert!(summary1.report.completed, "baseline completes");
    assert!(summary1.report.retried > 0, "faults actually fired");

    for threads in [2usize, 4, 8] {
        let journal = scratch(&format!("bit-identity-t{threads}.jsonl"));
        let (bytes, metrics, summary) = run_observed(config(threads), faults(), &journal, false);
        assert_eq!(
            bytes1, bytes,
            "journal bytes must be identical at {threads} threads"
        );
        assert_eq!(
            metrics1, metrics,
            "metrics snapshot must be identical at {threads} threads"
        );
        assert_eq!(
            summary1.report, summary.report,
            "final report must be identical at {threads} threads"
        );
        assert_eq!(
            summary1.outcome, summary.outcome,
            "assembled outcome must be identical at {threads} threads"
        );
    }
}

#[test]
fn warm_cache_hits_every_successful_job_without_reevaluating() {
    let cache = scratch("warm-cache.jsonl");
    let cold_journal = scratch("warm-cache-cold.jsonl");
    let warm_journal = scratch("warm-cache-warm.jsonl");
    let calls = Arc::new(AtomicUsize::new(0));

    let run = |journal: &PathBuf| {
        let calls = Arc::clone(&calls);
        let runner = SweepRunner::new(RunConfig {
            cache_path: Some(cache.clone()),
            ..config(4)
        })
        .unwrap();
        runner
            .run_aps(
                &aps(),
                move || {
                    let calls = Arc::clone(&calls);
                    move |p: &DesignPoint| {
                        calls.fetch_add(1, Ordering::SeqCst);
                        pricer(p)
                    }
                },
                Some(journal),
                false,
            )
            .unwrap()
    };

    let cold = run(&cold_journal);
    let cold_calls = calls.load(Ordering::SeqCst);
    assert_eq!(cold.report.cache_hits, 0, "cold run computes everything");
    assert_eq!(cold_calls, cold.report.attempted);

    let warm = run(&warm_journal);
    assert_eq!(
        warm.report.cache_hits, warm.report.attempted,
        "every job hits on the warm run"
    );
    assert_eq!(
        calls.load(Ordering::SeqCst),
        cold_calls,
        "the warm run never re-evaluates the pricer"
    );
    assert_eq!(cold.outcome, warm.outcome, "memoized outcome is identical");

    // The warm journal records the hits; the records differ from the
    // cold run ONLY by the cached flag.
    let cold_text = std::fs::read_to_string(&cold_journal).unwrap();
    let warm_text = std::fs::read_to_string(&warm_journal).unwrap();
    assert!(!cold_text.contains("\"cached\":true"));
    assert_eq!(
        warm_text.matches("\"cached\":true").count(),
        warm.report.attempted
    );
    assert_eq!(warm_text.replace(",\"cached\":true", ""), cold_text);
}

#[test]
fn warm_cache_runs_are_bit_identical_for_every_thread_count() {
    let cache = scratch("warm-bit-cache.jsonl");
    // Populate the cache once (any thread count works; use 2).
    let seed_journal = scratch("warm-bit-seed.jsonl");
    let seed_cfg = RunConfig {
        cache_path: Some(cache.clone()),
        ..config(2)
    };
    let _ = run_observed(seed_cfg, faults(), &seed_journal, false);

    let baseline_journal = scratch("warm-bit-t1.jsonl");
    let baseline_cfg = RunConfig {
        cache_path: Some(cache.clone()),
        ..config(1)
    };
    let (bytes1, metrics1, summary1) =
        run_observed(baseline_cfg, faults(), &baseline_journal, false);
    assert!(
        summary1.report.cache_hits > 0,
        "warm baseline actually hits"
    );

    for threads in [2usize, 8] {
        let journal = scratch(&format!("warm-bit-t{threads}.jsonl"));
        let cfg = RunConfig {
            cache_path: Some(cache.clone()),
            ..config(threads)
        };
        let (bytes, metrics, summary) = run_observed(cfg, faults(), &journal, false);
        assert_eq!(bytes1, bytes, "warm journal identical at {threads} threads");
        assert_eq!(
            metrics1, metrics,
            "warm metrics identical at {threads} threads"
        );
        assert_eq!(summary1.report, summary.report);
        assert_eq!(summary1.outcome, summary.outcome);
    }
}

#[test]
fn cache_is_scenario_scoped() {
    // Same design points, different scenario fingerprints: the second
    // scenario must not see the first scenario's entries.
    let cache = scratch("scoped-cache.jsonl");
    let run = |fingerprint: u64| {
        let runner = SweepRunner::new(RunConfig {
            cache_path: Some(cache.clone()),
            scenario_fingerprint: Some(fingerprint),
            ..config(2)
        })
        .unwrap();
        runner
            .run_aps(
                &aps(),
                || InjectedOracle::new(FaultPlan::default(), pricer).unwrap(),
                None,
                false,
            )
            .unwrap()
    };
    let first = run(0xAAAA);
    assert_eq!(first.report.cache_hits, 0);
    let second = run(0xBBBB);
    assert_eq!(
        second.report.cache_hits, 0,
        "a different scenario fingerprint must miss"
    );
    let warm = run(0xAAAA);
    assert_eq!(warm.report.cache_hits, warm.report.attempted);
}

/// Regression (review): on the scenario-less positional path the
/// content key is pure grid geometry, so without extra identity a
/// shared cache file could serve one workload's simulated times to
/// another. `cache_fingerprint` (the CLI sets it to the assembled
/// scenario's fingerprint) must scope the addresses.
#[test]
fn cache_is_positional_identity_scoped() {
    let cache = scratch("positional-scoped-cache.jsonl");
    let run = |cache_fp: u64| {
        let runner = SweepRunner::new(RunConfig {
            cache_path: Some(cache.clone()),
            cache_fingerprint: Some(cache_fp),
            ..config(2)
        })
        .unwrap();
        runner
            .run_aps(
                &aps(),
                || InjectedOracle::new(FaultPlan::default(), pricer).unwrap(),
                None,
                false,
            )
            .unwrap()
    };
    let first = run(0x1111);
    assert_eq!(first.report.cache_hits, 0);
    let other = run(0x2222);
    assert_eq!(
        other.report.cache_hits, 0,
        "a different positional identity (workload/size) must miss"
    );
    let warm = run(0x1111);
    assert_eq!(warm.report.cache_hits, warm.report.attempted);
}

/// Regression (review): a cached attempt history that the shard's
/// breaker would refuse mid-replay (possible with a shared or stale
/// cache file) must be treated as a miss and evaluated live — forcing
/// the replay through an open breaker would walk a trajectory no live
/// run could produce.
#[test]
fn non_replayable_cache_entries_fall_back_to_live_evaluation() {
    let cache = scratch("non-replayable-cache.jsonl");
    let tight_breaker = |cache_path: Option<PathBuf>| RunConfig {
        cache_path,
        breaker: BreakerPolicy {
            trip_threshold: 2,
            cooldown: 3,
            probes: 2,
        },
        ..config(1)
    };
    // Seed every job with a 4-attempt history: replaying 3 failures
    // trips a threshold-2 breaker open after the second, so the third
    // replay admission would short-circuit — not a trajectory a live
    // run under this policy could have produced.
    let plan = aps().plan().unwrap();
    let identity = bind_fingerprint(plan_fingerprint(&plan), None);
    {
        let store = EvalCache::open(&cache).unwrap();
        for job in &plan.jobs {
            store
                .store(
                    cache_key(identity, job.content_key()),
                    CachedEval {
                        attempts: 4,
                        time: pricer(&job.point).unwrap(),
                    },
                )
                .unwrap();
        }
    }
    let calls = Arc::new(AtomicUsize::new(0));
    let counting = {
        let calls = Arc::clone(&calls);
        move || {
            let calls = Arc::clone(&calls);
            move |p: &DesignPoint| {
                calls.fetch_add(1, Ordering::SeqCst);
                pricer(p)
            }
        }
    };
    let runner = SweepRunner::new(tight_breaker(Some(cache.clone()))).unwrap();
    let summary = runner.run_aps(&aps(), counting, None, false).unwrap();
    assert!(summary.report.completed);
    assert_eq!(
        summary.report.cache_hits, 0,
        "every seeded history is refused, none forced through"
    );
    assert_eq!(
        calls.load(Ordering::SeqCst),
        summary.report.attempted,
        "every job is evaluated live instead"
    );
    assert_eq!(summary.report.succeeded, summary.report.attempted);
    assert_eq!(
        summary.report.breaker_trips, 0,
        "the live healthy oracle never trips the breaker"
    );
}

#[test]
fn cache_hits_replay_the_original_attempt_history_into_the_breaker() {
    // A job that succeeded on attempt 2 is cached with attempts: 2; a
    // warm run must report the same retry ledger and the same breaker
    // trajectory as the run that computed it, so resuming against a
    // cache can never diverge the sweep's resilience state.
    let cache = scratch("replay-cache.jsonl");
    // Keyed FaultPlan failures would fail the retry too, so transient
    // faults come from a flaky pricer that fails exactly once for each
    // of the first three distinct points it sees.
    let failures_remaining = Arc::new(AtomicUsize::new(3));
    let run = |journal: &PathBuf| {
        let failures = Arc::clone(&failures_remaining);
        let runner = SweepRunner::new(RunConfig {
            cache_path: Some(cache.clone()),
            ..config(1)
        })
        .unwrap();
        runner
            .run_aps(
                &aps(),
                move || {
                    let failures = Arc::clone(&failures);
                    let mut first_call = std::collections::HashSet::new();
                    move |p: &DesignPoint| {
                        // Fail the first evaluation of the first three
                        // distinct points this oracle sees.
                        let key = (p.n, p.issue_width, p.rob_size);
                        if first_call.insert(key)
                            && failures
                                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                                    n.checked_sub(1)
                                })
                                .is_ok()
                        {
                            return Err(c2_bound::Error::Simulation("transient".into()));
                        }
                        pricer(p)
                    }
                },
                Some(journal),
                false,
            )
            .unwrap()
    };
    let cold_journal = scratch("replay-cold.jsonl");
    let cold = run(&cold_journal);
    assert_eq!(cold.report.retried, 3, "three transient failures retried");

    let warm_journal = scratch("replay-warm.jsonl");
    let warm = run(&warm_journal);
    assert_eq!(warm.report.cache_hits, warm.report.attempted);
    assert_eq!(
        warm.report.retried, cold.report.retried,
        "replayed attempt history preserves the retry ledger"
    );
    assert_eq!(warm.report.breaker_trips, cold.report.breaker_trips);
}

// ---------------------------------------------------------------------
// Satellite: backoff jitter must key on the job's content, never on
// worker/thread identity or the job's position in the plan.
// ---------------------------------------------------------------------

#[test]
fn backoff_jitter_depends_only_on_the_job_key() {
    let job_key = {
        let plan = aps().plan().unwrap();
        plan.jobs[2].content_key()
    };
    let policy = BackoffPolicy {
        base_ms: 4,
        factor: 2.0,
        cap_ms: 100,
        jitter_frac: 0.9,
    };
    // The schedule is a pure function of (key, attempt): recomputing
    // it anywhere — any worker, any thread, any time — gives the same
    // delays.
    for attempt in 2..6 {
        let d = policy.delay(job_key, attempt);
        for _ in 0..4 {
            assert_eq!(policy.delay(job_key, attempt), d);
        }
    }
}

#[test]
fn content_key_ignores_plan_position_but_sees_the_point() {
    let plan = aps().plan().unwrap();
    let a = &plan.jobs[1];
    let mut moved = a.clone();
    moved.seq = 7; // same work, different plan position
    assert_eq!(a.content_key(), moved.content_key());
    let b = &plan.jobs[2];
    assert_ne!(
        a.content_key(),
        b.content_key(),
        "distinct design points must key differently"
    );
}

// ---------------------------------------------------------------------
// Satellite: torn-tail crash recovery with interleaved cache hits.
// ---------------------------------------------------------------------

/// Kill a sharded run mid-journal-write (simulated by a crash plus a
/// torn trailing record), resume it, and require the final merged
/// journal and outcome to be bit-identical to an uninterrupted run —
/// with a partially warm cache, so cached and freshly computed records
/// interleave in both histories.
#[test]
fn torn_tail_resume_with_interleaved_cache_hits_is_bit_identical() {
    // Partially warm a cache by hand: seed entries for three of the
    // nine jobs, with the values the pricer would produce, so the
    // engine's own lookups hit for exactly those jobs. The reference
    // and crashed legs each get their OWN seeded copy — both runs
    // store what they compute, and sharing a file would let one leg's
    // stores turn the other leg's fresh computations into hits.
    let plan = aps().plan().unwrap();
    // A run with no scenario or positional fingerprint keys its cache
    // by the bare plan fingerprint (the journal's bound identity).
    let identity = bind_fingerprint(plan_fingerprint(&plan), None);
    let seeded_cache = |name: &str| -> PathBuf {
        let path = scratch(name);
        let store = EvalCache::open(&path).unwrap();
        for &seq in &[0usize, 4, 7] {
            let job = &plan.jobs[seq];
            store
                .store(
                    cache_key(identity, job.content_key()),
                    CachedEval {
                        attempts: 1,
                        time: pricer(&job.point).unwrap(),
                    },
                )
                .unwrap();
        }
        path
    };
    let reference_cache = seeded_cache("torn-cache-reference.jsonl");
    let crashed_cache = seeded_cache("torn-cache-crashed.jsonl");

    let cfg = |cache: &PathBuf, abort_after: Option<usize>| RunConfig {
        cache_path: Some(cache.clone()),
        abort_after,
        ..config(2)
    };

    // Uninterrupted reference run.
    let reference_journal = scratch("torn-reference.jsonl");
    let (ref_bytes, _, ref_summary) = run_observed(
        cfg(&reference_cache, None),
        faults(),
        &reference_journal,
        false,
    );
    assert!(ref_summary.report.completed);
    assert_eq!(
        ref_summary.report.cache_hits, 3,
        "the hand-seeded entries hit"
    );
    let ref_text = String::from_utf8(ref_bytes.clone()).unwrap();
    assert_eq!(ref_text.matches("\"cached\":true").count(), 3);
    assert!(ref_text.contains("\"cached\":false") || ref_text.matches("\"seq\"").count() > 3);

    // Crashed run: stop after 4 terminals, then tear the tail by
    // appending half a record, as if the process died mid-write.
    let journal = scratch("torn-crashed.jsonl");
    let (_, _, crashed) = run_observed(cfg(&crashed_cache, Some(4)), faults(), &journal, false);
    assert!(!crashed.report.completed, "the crash hook fired");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        write!(f, "{{\"seq\":8,\"att").unwrap();
    }

    // Resume to completion; the canonical rewrite must converge the
    // journal to the uninterrupted bytes exactly.
    let (resumed_bytes, _, resumed) =
        run_observed(cfg(&crashed_cache, None), faults(), &journal, true);
    assert!(resumed.report.completed);
    assert!(resumed.report.resumed >= 4);
    assert_eq!(
        ref_summary.outcome, resumed.outcome,
        "refinement outcome identical after torn-tail resume"
    );
    assert_eq!(
        String::from_utf8(ref_bytes).unwrap(),
        String::from_utf8(resumed_bytes).unwrap(),
        "final merged journal identical after torn-tail resume"
    );
}
