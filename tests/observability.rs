//! End-to-end tests of the `c2-obs` observability layer wired through
//! the supervised engine (satellite of DESIGN.md §7).
//!
//! The determinism contract under test: with a pure oracle, two
//! identical seeded sweeps — fault injection and all — must produce
//! **byte-identical** metrics JSON and event traces, at any thread
//! count. Golden snapshots in `tests/golden/` pin the exact trace;
//! regenerate them with `UPDATE_GOLDEN=1 cargo test --test
//! observability`.

use c2_bound::aps::Aps;
use c2_bound::dse::{DesignPoint, DesignSpace};
use c2_bound::C2BoundModel;
use c2_obs::{Recorder, Report};
use c2_runner::{BackoffPolicy, BreakerPolicy, RunConfig, RunSummary, SweepRunner};
use c2_sim::{FaultPlan, FaultyOracle};
use std::path::{Path, PathBuf};

/// The tiny space with 16 ROB sizes: 3 × 16 = 48 jobs, more than
/// `MAX_SHARDS`, so each of the 16 shards runs three jobs against one
/// breaker. Job `seq = issue_index · 16 + rob_index` lands in shard
/// `seq % 16`, which is its ROB index.
fn aps() -> Aps {
    let tiny = DesignSpace::tiny();
    let space = DesignSpace::new(
        tiny.a0().to_vec(),
        tiny.a1().to_vec(),
        tiny.a2().to_vec(),
        tiny.n().to_vec(),
        tiny.issue().to_vec(),
        (1..=16).map(|i| 16 * i).collect(),
    )
    .unwrap();
    Aps::new(C2BoundModel::example_big_data(), space)
}

/// Pure, clock-free pricer: widest-ROB points report a wedged backend.
/// They all sit in one shard, so their failures form one consecutive
/// streak that trips that shard's breaker; everything else prices
/// analytically.
fn pricer() -> impl FnMut(&DesignPoint) -> c2_bound::Result<f64> + Clone {
    |p: &DesignPoint| {
        if p.rob_size == 256 {
            Err(c2_bound::Error::Simulation("backend wedged".into()))
        } else {
            Ok(1.0e9 / (p.n * p.issue_width * p.rob_size) as f64)
        }
    }
}

/// Keyed oracle faults on top of the sick pricer: every 3rd job key
/// fails at the injection layer, exercising retry + backfill on jobs
/// the pricer itself would have served.
fn faults() -> FaultPlan {
    FaultPlan {
        oracle_failure_period: Some(3),
        ..FaultPlan::default()
    }
}

/// One thread, no deadlines (an expiry depends on wall time, which the
/// trace must not), a breaker tight enough that the wedged-backend
/// streak trips it.
fn config() -> RunConfig {
    RunConfig {
        threads: 1,
        deadline_ms: 0,
        max_attempts: 2,
        backoff: BackoffPolicy {
            base_ms: 1,
            factor: 2.0,
            cap_ms: 2,
            jitter_frac: 0.5,
        },
        breaker: BreakerPolicy {
            trip_threshold: 3,
            cooldown: 2,
            probes: 2,
        },
        analytic_fallback: true,
        abort_after: None,
        ..RunConfig::default()
    }
}

fn run_observed(config: &RunConfig, journal: Option<&Path>, resume: bool) -> (RunSummary, Report) {
    let (summary, report, _) = run_full(config, journal, resume);
    (summary, report)
}

/// [`run_observed`] that also returns the operational (ops) sink's
/// report, where resume telemetry lives.
fn run_full(
    config: &RunConfig,
    journal: Option<&Path>,
    resume: bool,
) -> (RunSummary, Report, Report) {
    let recorder = Recorder::new();
    let ops = Recorder::new();
    let faults = faults();
    let pricer = pricer();
    let summary = SweepRunner::new(config.clone())
        .unwrap()
        .run_aps_full(
            &aps(),
            move || FaultyOracle::new(faults, pricer.clone()).unwrap(),
            journal,
            resume,
            &recorder,
            &ops,
        )
        .unwrap();
    (summary, recorder.report(), ops.report())
}

fn journal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("c2-obs-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{}-{}.jsonl", name, std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Compare against (or, under `UPDATE_GOLDEN=1`, rewrite) a golden
/// snapshot file.
fn golden_compare(path: &Path, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "{} drifted; regenerate with UPDATE_GOLDEN=1 if the change is intended",
        path.display()
    );
}

/// The headline acceptance property: two identical seeded `run`
/// invocations produce byte-identical metrics JSON and event traces.
#[test]
fn two_identical_seeded_runs_are_byte_identical() {
    let (_, a) = run_observed(&config(), None, false);
    let (_, b) = run_observed(&config(), None, false);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "metrics + trace must be byte-identical across reruns"
    );
    assert_eq!(a.events_jsonl(), b.events_jsonl());
    assert_eq!(a.to_prometheus(), b.to_prometheus());
}

/// The fault-injected sweep's report shows nonzero retry, breaker,
/// and backfill counters, and the counters agree with the engine's
/// own ledger.
#[test]
fn faulty_sweep_reports_nonzero_resilience_counters() {
    let (summary, report) = run_observed(&config(), None, false);
    assert!(summary.report.completed);
    let reg = &report.registry;
    assert!(reg.counter("engine_retries_scheduled_total") > 0);
    assert!(reg.counter("engine_breaker_trips_total") > 0);
    assert!(reg.counter("engine_short_circuits_total") > 0);
    assert!(reg.counter("aps_backfill_total") > 0);
    // The registry is a second bookkeeper for the ledger the engine
    // already returns; they must agree.
    let ledger = &summary.report;
    assert_eq!(
        reg.counter("aps_oracle_calls_total"),
        ledger.oracle_calls as u64
    );
    assert_eq!(
        reg.counter("engine_breaker_trips_total"),
        ledger.breaker_trips as u64
    );
    assert_eq!(
        reg.counter("engine_short_circuits_total"),
        ledger.short_circuited as u64
    );
    assert_eq!(reg.counter("aps_backfill_total"), ledger.backfilled as u64);
    assert_eq!(
        reg.counter("aps_points_succeeded_total"),
        ledger.succeeded as u64
    );
    // Every attempt is either a success or a failure.
    assert_eq!(
        reg.counter("engine_attempts_total"),
        reg.counter("engine_attempt_successes_total")
            + reg.counter("engine_attempt_failures_total")
    );
    // The trace carries at least one breaker transition into Open.
    assert!(report.events.iter().any(|e| {
        e.name == "breaker.transition"
            && e.fields
                .iter()
                .any(|(k, v)| k == "to" && format!("{v:?}").contains("open"))
    }));
}

/// The obs report round-trips through its own JSON: parse(render) is
/// the identity on the rendered form.
#[test]
fn report_round_trips_through_json() {
    let (_, report) = run_observed(&config(), None, false);
    let text = report.to_json();
    let reparsed = Report::from_json(&text).expect("re-parse own render");
    assert_eq!(reparsed.to_json(), text);
    assert_eq!(reparsed.events.len(), report.events.len());
}

/// Golden snapshot of the full fault-injected trace and metrics.
#[test]
fn golden_faulty_sweep_trace_and_metrics() {
    let (_, report) = run_observed(&config(), None, false);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    golden_compare(
        &dir.join("faulty_sweep.events.jsonl"),
        &report.events_jsonl(),
    );
    golden_compare(
        &dir.join("faulty_sweep.metrics.json"),
        &report.metrics_json(),
    );
}

/// A crash-and-resume run records the replayed journal on the ops
/// sink: the counter equals the journaled record count and a single
/// `journal.replayed` summary event is emitted. The deterministic
/// trace does not betray the crash: it equals the clean run's.
#[test]
fn resumed_run_replays_journal_into_the_trace() {
    let path = journal_path("obs-resume");
    let mut crash = config();
    crash.abort_after = Some(4);
    let (crashed, crashed_report) = run_observed(&crash, Some(&path), false);
    assert!(!crashed.report.completed);
    assert_eq!(
        crashed_report
            .registry
            .counter("engine_journal_appends_total"),
        4
    );

    let (resumed, report, ops) = run_full(&config(), Some(&path), true);
    assert!(resumed.report.completed);
    assert_eq!(resumed.report.resumed, 4);
    assert_eq!(ops.registry.counter("engine_journal_replayed_total"), 4);
    let (_, clean) = run_observed(&config(), Some(&journal_path("obs-clean")), false);
    assert_eq!(report.events_jsonl(), clean.events_jsonl());
    let replay_events: Vec<_> = ops
        .events
        .iter()
        .filter(|e| e.name == "journal.replayed")
        .collect();
    assert_eq!(replay_events.len(), 1);
    assert!(replay_events[0]
        .fields
        .iter()
        .any(|(k, v)| k == "records" && format!("{v:?}").contains('4')));
}

/// The CLI surface: `run --metrics-out` writes byte-identical files on
/// two identical seeded invocations, and `obs-report` consumes them.
#[test]
fn cli_metrics_out_is_byte_identical_and_readable() {
    let bin = env!("CARGO_BIN_EXE_c2bound-tool");
    let dir = std::env::temp_dir().join("c2-obs-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = |tag: &str| dir.join(format!("cli-metrics-{}-{tag}.json", std::process::id()));
    let run = |path: &Path| {
        let status = std::process::Command::new(bin)
            .args([
                "run",
                "stencil",
                "10",
                "--threads",
                "1",
                "--metrics-out",
                path.to_str().unwrap(),
            ])
            .stdout(std::process::Stdio::null())
            .status()
            .expect("spawn c2bound-tool");
        assert!(status.success());
    };
    let (a, b) = (out("a"), out("b"));
    run(&a);
    run(&b);
    let bytes_a = std::fs::read(&a).unwrap();
    let bytes_b = std::fs::read(&b).unwrap();
    assert_eq!(bytes_a, bytes_b, "CLI metrics files must be byte-identical");

    let prom = std::process::Command::new(bin)
        .args(["obs-report", a.to_str().unwrap(), "--prom"])
        .output()
        .expect("spawn obs-report");
    assert!(prom.status.success());
    let text = String::from_utf8(prom.stdout).unwrap();
    assert!(text.contains("# TYPE engine_attempts_total counter"));
    assert!(text.contains("aps_attempts_per_point_bucket"));
}
