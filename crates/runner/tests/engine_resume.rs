//! End-to-end tests of the supervised engine: journal/resume
//! equality under fault injection, journal damage tolerance, circuit
//! breaking, and crash accounting.
//!
//! The acceptance property for the engine is bit-level: a sweep with
//! hangs, fail-at-request simulator faults, and a periodic oracle
//! failure, killed at an arbitrary point and resumed from its journal,
//! must produce exactly the same [`ApsOutcome`] (and ledger, modulo
//! the `resumed` count) as the same sweep run uninterrupted.

use c2_bound::aps::{Aps, ApsOutcome};
use c2_bound::dse::{chip_config_for, DesignPoint, DesignSpace};
use c2_bound::C2BoundModel;
use c2_runner::{
    journal, BackoffPolicy, BreakerPolicy, RunConfig, RunReport, SweepRunner, SyncPolicy,
};
use c2_sim::{FaultPlan, FaultyOracle, OracleHang, Simulator};
use c2_trace::synthetic::{RandomGenerator, TraceGenerator};
use std::path::PathBuf;

/// Per-test journal path (fresh on every invocation).
fn journal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("c2-runner-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{}-{}.jsonl", name, std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn aps() -> Aps {
    Aps::new(C2BoundModel::example_big_data(), DesignSpace::tiny())
}

/// The real-simulator pricing function used by the acceptance tests:
/// widest-issue points carry a fail-at-request fault inside the
/// simulation itself (the request stream hits the injected fatal
/// request), everything else simulates normally.
fn sim_pricer() -> impl FnMut(&DesignPoint) -> c2_bound::Result<f64> + Clone {
    let model = C2BoundModel::example_big_data();
    let area = model.area;
    let budget = model.budget;
    let trace = RandomGenerator::new(0, 1 << 20, 200, 7).generate();
    move |p: &DesignPoint| {
        let mut cfg = chip_config_for(p, &area, &budget)?;
        if p.issue_width == 4 {
            cfg.fault.fail_at_request = Some(50);
        }
        let traces = vec![trace.clone(); cfg.cores];
        let result = Simulator::new(cfg).run(&traces)?;
        Ok(result.total_cycles as f64)
    }
}

/// Oracle-level faults for the acceptance sweep: every 4th job key
/// fails outright, every 5th hangs well past the engine deadline.
fn acceptance_faults() -> FaultPlan {
    FaultPlan {
        oracle_failure_period: Some(4),
        oracle_hang: Some(OracleHang {
            period: 5,
            stall_ms: 250,
        }),
        ..FaultPlan::default()
    }
}

/// Engine config for the acceptance sweep: one thread, a deadline that
/// every 250 ms `OracleHang` stall misses by 125 ms while a healthy
/// debug-build simulation meets it under parallel test load, and a
/// high breaker threshold so breaking stays out of the equality
/// property (it gets its own tests below).
fn acceptance_config() -> RunConfig {
    RunConfig {
        threads: 1,
        deadline_ms: 125,
        max_attempts: 2,
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
        analytic_fallback: true,
        scenario_fingerprint: None,
        abort_after: None,
        cache_path: None,
        cache_fingerprint: None,
        sync: SyncPolicy::default(),
        checkpoint_every: 64,
        chaos: None,
    }
}

fn run_acceptance(
    config: &RunConfig,
    journal: Option<&std::path::Path>,
    resume: bool,
) -> c2_runner::Result<c2_runner::RunSummary> {
    let pricer = sim_pricer();
    let faults = acceptance_faults();
    SweepRunner::new(config.clone()).unwrap().run_aps(
        &aps(),
        move || FaultyOracle::new(faults, pricer.clone()).unwrap(),
        journal,
        resume,
    )
}

fn assert_reports_equal_modulo_resumed(resumed: &RunReport, reference: &RunReport) {
    let mut normalized = *resumed;
    normalized.resumed = reference.resumed;
    assert_eq!(
        &normalized, reference,
        "a resumed run must merge to the same ledger as an uninterrupted one"
    );
}

/// The uninterrupted reference run, shared across the kill/resume
/// variants (the faults and simulator are deterministic, so computing
/// it once per process is sound).
fn reference_summary() -> (ApsOutcome, RunReport) {
    let summary = run_acceptance(&acceptance_config(), None, false).unwrap();
    assert!(summary.report.completed);
    assert!(summary.report.consistent());
    (summary.outcome.unwrap(), summary.report)
}

#[test]
fn faulty_sweep_accounts_for_every_job() {
    let (outcome, report) = reference_summary();
    assert_eq!(report.attempted, 9, "tiny space sweeps 3 issue x 3 rob");
    // Keyed faults: keys 3 and 7 fail-injected, key 4 hangs past the
    // deadline, widest-issue jobs 6..8 die inside the simulator.
    assert_eq!(report.succeeded, 4);
    assert_eq!(report.skipped + report.backfilled, 5);
    assert_eq!(report.backfilled, 5, "analytic fallback covers every death");
    assert_eq!(
        report.timeouts, 2,
        "the hung job times out on both attempts"
    );
    assert!(report.retried >= 3);
    assert_eq!(report.breaker_trips, 0);
    assert_eq!(outcome.refinement.skipped.len(), 5);
    assert!(outcome.best_time.is_finite() && outcome.best_time > 0.0);
}

#[test]
fn killed_and_resumed_run_matches_uninterrupted_run() {
    let (ref_outcome, ref_report) = reference_summary();
    // Kill after 1, 4, and 8 terminal outcomes: early (almost nothing
    // journaled), middle, and late (one job left).
    for kill_after in [1usize, 4, 8] {
        let path = journal_path(&format!("kill-resume-{kill_after}"));
        let mut crash_config = acceptance_config();
        crash_config.abort_after = Some(kill_after);
        let crashed = run_acceptance(&crash_config, Some(&path), false).unwrap();
        assert!(!crashed.report.completed, "abort_after must stop the run");
        assert!(crashed.outcome.is_none());
        assert!(crashed.report.consistent());
        assert_eq!(crashed.report.attempted, kill_after);
        let journaled = journal::load(&path).unwrap();
        assert_eq!(journaled.records.len(), kill_after);

        let resumed = run_acceptance(&acceptance_config(), Some(&path), true).unwrap();
        assert!(resumed.report.completed);
        assert!(resumed.report.consistent());
        assert_eq!(resumed.report.resumed, kill_after);
        assert_eq!(
            resumed.outcome.as_ref().unwrap(),
            &ref_outcome,
            "kill at {kill_after}: resumed outcome must be bit-identical"
        );
        assert_reports_equal_modulo_resumed(&resumed.report, &ref_report);
    }
}

#[test]
fn truncated_final_journal_line_is_redone_on_resume() {
    let (ref_outcome, ref_report) = reference_summary();
    let path = journal_path("truncated-tail");
    let full = run_acceptance(&acceptance_config(), Some(&path), false).unwrap();
    assert!(full.report.completed);

    // Chop the last record in half, as a crash mid-write would.
    let text = std::fs::read_to_string(&path).unwrap();
    let cut = text.trim_end().rfind('\n').unwrap() + 12;
    std::fs::write(&path, &text[..cut]).unwrap();
    let damaged = journal::load(&path).unwrap();
    assert!(damaged.truncated_tail);
    assert_eq!(damaged.records.len(), 8);

    let resumed = run_acceptance(&acceptance_config(), Some(&path), true).unwrap();
    assert!(resumed.report.completed);
    assert_eq!(resumed.report.resumed, 8, "only the mangled record re-runs");
    assert_eq!(resumed.outcome.as_ref().unwrap(), &ref_outcome);
    assert_reports_equal_modulo_resumed(&resumed.report, &ref_report);
}

#[test]
fn mid_journal_corruption_is_a_hard_error() {
    let path = journal_path("corrupt-middle");
    let full = run_acceptance(&acceptance_config(), Some(&path), false).unwrap();
    assert!(full.report.completed);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut mangled: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    mangled[3] = "{\"seq\":gibberish".to_string();
    std::fs::write(&path, mangled.join("\n") + "\n").unwrap();

    let err = run_acceptance(&acceptance_config(), Some(&path), true).unwrap_err();
    assert!(
        matches!(err, c2_runner::Error::Journal(_)),
        "mid-file corruption must refuse to resume, got {err:?}"
    );
}

#[test]
fn resume_rejects_a_journal_from_a_different_sweep() {
    let path = journal_path("wrong-sweep");
    let full = run_acceptance(&acceptance_config(), Some(&path), false).unwrap();
    assert!(full.report.completed);

    // Same job count, different design space: the fingerprint differs.
    let tiny = DesignSpace::tiny();
    let space = DesignSpace::new(
        tiny.a0().to_vec(),
        tiny.a1().to_vec(),
        tiny.a2().to_vec(),
        tiny.n().to_vec(),
        tiny.issue().to_vec(),
        vec![32, 96, 256],
    )
    .unwrap();
    let other = Aps::new(C2BoundModel::example_big_data(), space);
    let runner = SweepRunner::new(acceptance_config()).unwrap();
    let err = runner
        .run_aps(
            &other,
            || |p: &DesignPoint| Ok(p.rob_size as f64),
            Some(&path),
            true,
        )
        .unwrap_err();
    assert!(
        matches!(err, c2_runner::Error::Journal(ref m) if m.contains("different sweep")),
        "fingerprint mismatch must be rejected, got {err:?}"
    );
}

#[test]
fn engine_matches_in_process_aps_under_identical_faults() {
    // No hangs (the in-process driver has no deadlines): only keyed
    // failures, which both drivers observe identically.
    let faults = FaultPlan {
        oracle_failure_period: Some(3),
        ..FaultPlan::default()
    };
    let pricer = |p: &DesignPoint| Ok(1.0e9 / (p.n * p.issue_width * p.rob_size) as f64);
    let config = RunConfig {
        threads: 1,
        deadline_ms: 0,
        max_attempts: 2,
        ..RunConfig::default()
    };
    let policy = config.resilience_policy();
    let engine = SweepRunner::new(config)
        .unwrap()
        .run_aps(
            &aps(),
            || FaultyOracle::new(faults, pricer).unwrap(),
            None,
            false,
        )
        .unwrap();
    let in_process = aps()
        .run_oracle(FaultyOracle::new(faults, pricer).unwrap(), &policy)
        .unwrap();
    assert_eq!(
        engine.outcome.unwrap(),
        in_process,
        "the supervised engine and the sequential driver must agree"
    );
}

#[test]
fn multi_thread_run_converges_to_the_reference_outcome() {
    // Outcomes are per-job deterministic (keyed faults, stateless
    // pricing), so a 4-thread schedule must assemble the same result.
    let (ref_outcome, ref_report) = reference_summary();
    let mut config = acceptance_config();
    config.threads = 4;
    let summary = run_acceptance(&config, None, false).unwrap();
    assert!(summary.report.completed);
    assert!(summary.report.consistent());
    assert_eq!(summary.outcome.unwrap(), ref_outcome);
    assert_eq!(summary.report.succeeded, ref_report.succeeded);
    assert_eq!(summary.report.backfilled, ref_report.backfilled);
}

/// A 4 × 16 = 64-job plan: more jobs than `MAX_SHARDS`, so each of the
/// 16 shards runs four jobs against one breaker. Job `seq = issue_index
/// · 16 + rob_index` lands in shard `seq % 16`, its ROB index.
fn wide_aps() -> Aps {
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
    Aps::new(C2BoundModel::example_big_data(), space)
}

#[test]
fn sick_backend_trips_the_breaker_and_strands_no_job() {
    // The widest-ROB points (one shard: jobs 15, 31, 47, 63) fail,
    // everything else succeeds: the shard's failure streak trips its
    // breaker, the cooldown short-circuits jobs straight to backfill,
    // and a failed half-open probe re-trips it.
    let pricer = |p: &DesignPoint| {
        if p.rob_size != 256 {
            Ok(1.0e6 / p.rob_size as f64)
        } else {
            Err(c2_bound::Error::Simulation("backend wedged".into()))
        }
    };
    let config = RunConfig {
        threads: 1,
        deadline_ms: 0,
        max_attempts: 2,
        breaker: BreakerPolicy {
            trip_threshold: 3,
            cooldown: 2,
            probes: 2,
        },
        ..RunConfig::default()
    };
    let summary = SweepRunner::new(config)
        .unwrap()
        .run_aps(&wide_aps(), || pricer, None, false)
        .unwrap();
    let report = summary.report;
    assert!(report.completed);
    assert!(report.consistent());
    assert_eq!(report.attempted, 64);
    assert_eq!(report.succeeded, 60);
    assert!(report.breaker_trips >= 1, "streak must trip the breaker");
    assert_eq!(report.breaker_trips, 2, "the failed probe re-trips it");
    assert!(
        report.short_circuited >= 1,
        "open breaker must short-circuit at least one job"
    );
    // Short-circuited jobs never touched the oracle yet still landed
    // terminal with backfill.
    assert_eq!(report.skipped + report.backfilled, 4);
    let outcome = summary.outcome.unwrap();
    assert_eq!(outcome.refinement.skipped.len(), 4);
    assert!(outcome
        .refinement
        .skipped
        .iter()
        .any(|s| s.error.to_string().contains("circuit breaker open")));
}

/// An oracle error that is not [`c2_bound::Error::Simulation`].
fn probe_error() -> c2_bound::Error {
    c2_bound::Error::InvalidParameter {
        name: "probe",
        value: 1.0,
    }
}

#[test]
fn clean_and_resumed_runs_report_identical_outcomes() {
    // The journal stores a dead job's error as its message, and a
    // resumed run decodes its replayed jobs from the journal, so the
    // clean run must report its dead jobs the same way: as the
    // journaled message, not as the oracle's original error variant.
    let config = RunConfig {
        threads: 1,
        max_attempts: 1,
        ..RunConfig::default()
    };
    let run = |config: RunConfig, path: &std::path::Path, resume: bool| {
        let oracle = |p: &DesignPoint| {
            if p.issue_width == 4 {
                Err(probe_error())
            } else {
                Ok(1.0e9 / (p.n * p.issue_width * p.rob_size) as f64)
            }
        };
        SweepRunner::new(config)
            .unwrap()
            .run_aps(&aps(), || oracle, Some(path), resume)
            .unwrap()
    };
    let clean_path = journal_path("outcomes-clean");
    let clean = run(config.clone(), &clean_path, false);
    assert!(clean.report.completed);

    let path = journal_path("outcomes-resumed");
    let crash_config = RunConfig {
        abort_after: Some(8),
        ..config.clone()
    };
    assert!(!run(crash_config, &path, false).report.completed);
    let resumed = run(config, &path, true);
    assert_eq!(resumed.report.resumed, 8);

    assert_eq!(
        std::fs::read(&clean_path).unwrap(),
        std::fs::read(&path).unwrap(),
        "the journals are byte-identical"
    );
    assert_eq!(resumed.results, clean.results);
    assert_eq!(resumed.outcome, clean.outcome);
    let dead: Vec<&c2_bound::Error> = clean
        .results
        .iter()
        .filter_map(|(_, o)| o.result.as_ref().err())
        .collect();
    assert_eq!(dead.len(), 3, "the three issue-width-4 jobs die");
    let journaled = c2_bound::Error::Simulation(probe_error().to_string());
    assert!(dead.iter().all(|e| **e == journaled), "{dead:?}");
}
