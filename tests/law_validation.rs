//! The law-validation harness: every member of the pluggable
//! scalability-law family (`c2_speedup::law`) is fit against *measured*
//! speedups from the cycle-level simulator across the checked-in
//! workloads, and the achievable fit error is pinned per law and per
//! workload. A law implementation that regresses (wrong formula, wrong
//! parameter domain, broken trait dispatch) blows through its pinned
//! bound.
//!
//! The second half validates the active-learning surrogate screen
//! end-to-end on the paper-scale scenario: matched objective error
//! against full enumeration with fewer than 100 true evaluations, plus
//! bit-identical journals across thread counts and kill/resume. The
//! remaining tests pin the refactor itself: the default pipeline is
//! byte-identical to goldens captured before the law family existed,
//! scenario fingerprints are grandfathered, and the phase-oracle ×
//! screening combination is a typed error at every layer.

use std::path::{Path, PathBuf};
use std::process::Command;

use c2_config::Scenario;
use c2_obs::NullSink;
use c2bound::model::dse::{simulate_point, DesignPoint};
use c2bound::model::{aps_from_scenario, scale_function, Aps};
use c2bound::runner::{BackoffPolicy, RunConfig, ScreenConfig, SweepRunner};
use c2bound::sim::area::{AreaModel, SiliconBudget};
use c2bound::sim::{ChipConfig, FaultPlan, FaultyOracle};
use c2bound::speedup::law::{Amdahl, MemoryWall, ScalabilityLaw, SunNi, Usl};
use c2bound::speedup::scale::ScaleFunction;
use c2bound::workloads::{characterize, Workload, WorkloadTrace};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("c2bound-law-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_c2bound-tool"))
}

fn run_ok(args: &[&str]) -> String {
    let out = tool().args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

// ---------------------------------------------------------------------------
// Part 1: fit every law against c2-sim measurements, pin the errors
// ---------------------------------------------------------------------------

/// Core counts at which the simulator measures speedup.
const CORE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// One workload's measured scaling curve.
struct Measured {
    name: &'static str,
    speedups: Vec<(f64, f64)>, // (N, S_measured)
}

fn measure(name: &'static str, trace: &WorkloadTrace) -> Measured {
    let area = AreaModel::default();
    let budget = SiliconBudget::new(400.0, 40.0).expect("budget");
    let point = |n: usize| DesignPoint {
        a0: 4.0,
        a1: 0.0625,
        a2: 0.5,
        n,
        issue_width: 4,
        rob_size: 64,
    };
    let t1 = simulate_point(&point(1), trace, &area, &budget).expect("T(1)");
    let speedups = CORE_COUNTS
        .iter()
        .map(|&n| {
            let t = simulate_point(&point(n), trace, &area, &budget).expect("T(N)");
            (n as f64, t1 / t)
        })
        .collect();
    Measured { name, speedups }
}

/// Mean relative error of `law` at serial fraction `f` against the
/// measured curve.
fn fit_error(law: &dyn ScalabilityLaw, f: f64, measured: &[(f64, f64)]) -> f64 {
    let mut sum = 0.0;
    for &(n, s) in measured {
        sum += (law.speedup(f, n) - s).abs() / s;
    }
    sum / measured.len() as f64
}

/// Deterministic grid of `steps + 1` values over `[lo, hi]`.
fn grid(lo: f64, hi: f64, steps: usize) -> impl Iterator<Item = f64> {
    (0..=steps).map(move |i| lo + (hi - lo) * i as f64 / steps as f64)
}

/// Best fit of each law against one measured curve: grid search over
/// each law's parameter domain (including the serial fraction, which
/// every law shares). Grids are fixed and searched in a fixed order,
/// so the winner is deterministic.
fn fit_all(measured: &Measured) -> [(&'static str, f64); 4] {
    let pts = &measured.speedups;
    let mut best = [
        ("sun-ni", f64::INFINITY),
        ("amdahl", f64::INFINITY),
        ("memory-wall", f64::INFINITY),
        ("usl", f64::INFINITY),
    ];
    for f in grid(0.0, 0.5, 50) {
        // Sun-Ni over a power-law g(N) = N^p.
        for p in grid(0.0, 2.0, 40) {
            let law = SunNi::new(ScaleFunction::Power(p));
            let e = fit_error(&law, f, pts);
            if e < best[0].1 {
                best[0].1 = e;
            }
        }
        // Amdahl has only the serial fraction.
        let e = fit_error(&Amdahl, f, pts);
        if e < best[1].1 {
            best[1].1 = e;
        }
        // Memory wall: bandwidth-bound fraction and saturation point.
        for beta in grid(0.0, 1.0, 20) {
            for n_sat in [2.0, 4.0, 8.0, 16.0, 32.0] {
                let law = MemoryWall::new(beta, n_sat).expect("valid");
                let e = fit_error(&law, f, pts);
                if e < best[2].1 {
                    best[2].1 = e;
                }
            }
        }
        // USL: contention and coherency.
        for sigma in grid(0.0, 0.6, 30) {
            for kappa in grid(0.0, 0.05, 25) {
                let law = Usl::new(Some(sigma), kappa).expect("valid");
                let e = fit_error(&law, f, pts);
                if e < best[3].1 {
                    best[3].1 = e;
                }
            }
        }
    }
    best
}

/// Pinned goldens: the fit error each law must achieve on each
/// workload's measured curve (upper bounds with headroom over the
/// observed values, so simulator-side drift within reason does not
/// flap the test while a broken law formula still fails loudly).
const FIT_BOUNDS: [(&str, [f64; 4]); 4] = [
    // (workload, [sun-ni, amdahl, memory-wall, usl])
    // Observed best fits (debug, 2026-08): tmm 0.049/0.049/0.013/0.022,
    // spmv 0.173/0.173/0.004/0.028, stencil 0.071/0.071/0.045/0.047,
    // fft 0.010/0.010/0.003/0.010. Bounds pin roughly 2x headroom.
    ("tmm", [0.10, 0.10, 0.03, 0.05]),
    ("spmv", [0.30, 0.30, 0.02, 0.06]),
    ("stencil", [0.12, 0.12, 0.09, 0.09]),
    ("fft", [0.03, 0.03, 0.02, 0.03]),
];

fn measured_workloads() -> Vec<Measured> {
    vec![
        measure(
            "tmm",
            &c2bound::workloads::tmm::TiledMatMul::new(16, 8, 1).generate(),
        ),
        measure(
            "spmv",
            &c2bound::workloads::spmv::BandSpmv::new(64, 3, 1).generate(),
        ),
        measure(
            "stencil",
            &c2bound::workloads::stencil::Stencil2D::new(24, 24, 2, 1).generate(),
        ),
        measure("fft", &c2bound::workloads::fft::Fft::new(64, 1).generate()),
    ]
}

#[test]
fn every_law_fits_measured_scaling_within_pinned_bounds() {
    for measured in measured_workloads() {
        let fits = fit_all(&measured);
        let (_, bounds) = FIT_BOUNDS
            .iter()
            .find(|(w, _)| *w == measured.name)
            .expect("workload has pinned bounds");
        for (i, (law, err)) in fits.iter().enumerate() {
            eprintln!("fit {}/{law}: {err:.4}", measured.name);
            assert!(
                *err <= bounds[i],
                "{}: {law} fit error {err:.4} exceeds pinned bound {}",
                measured.name,
                bounds[i]
            );
        }
        // Measured speedup must be genuinely parallel (so the fits
        // mean something) and within the physical envelope S(N) <= N.
        let s16 = measured.speedups.last().unwrap().1;
        assert!(
            s16 > 1.0 && s16 <= 16.0 + 1e-9,
            "{}: S(16) = {s16}",
            measured.name
        );
    }
}

// ---------------------------------------------------------------------------
// Part 2: the surrogate screen on the paper-scale scenario
// ---------------------------------------------------------------------------

/// The screened sweep may deviate from full enumeration's best time by
/// at most this relative error (observed: 0.0 — the screen finds the
/// same optimum).
const SCREEN_OBJECTIVE_BOUND: f64 = 0.02;

struct PaperScale {
    scenario: Scenario,
    trace: WorkloadTrace,
    aps: Aps,
    area: AreaModel,
    budget: SiliconBudget,
}

fn paper_scale() -> PaperScale {
    let text = std::fs::read_to_string(repo_path("examples/scenarios/paper_scale.json"))
        .expect("paper_scale.json");
    let scenario = Scenario::from_json(&text).expect("parse scenario");
    let w = c2bound::workloads::workload_from_spec(&scenario.workload).expect("workload");
    let chip = ChipConfig::from_spec(&scenario.chip).expect("chip");
    let trace = w.generate();
    let ch = characterize(&trace, &chip).expect("characterization");
    let g = scale_function(&scenario, w.as_ref());
    let aps = aps_from_scenario(&scenario, &ch, &chip, g).expect("scenario model");
    let area = aps.model.area;
    let budget = aps.model.budget;
    PaperScale {
        scenario,
        trace,
        aps,
        area,
        budget,
    }
}

impl PaperScale {
    /// A simulator-backed oracle over the scenario's trace.
    fn oracle(&self) -> impl FnMut(&DesignPoint) -> c2bound::model::Result<f64> + '_ {
        move |p: &DesignPoint| simulate_point(p, &self.trace, &self.area, &self.budget)
    }
}

/// The ISSUE's headline claim: on the paper-scale scenario the
/// screened sweep reaches the full enumeration's objective within
/// [`SCREEN_OBJECTIVE_BOUND`] while truly evaluating fewer than 100
/// candidates — and the screened run is deterministic: its journal is
/// bit-identical across 1 and 4 threads, and a killed-and-resumed run
/// reproduces the clean journal byte for byte.
#[test]
fn screened_sweep_matches_full_enumeration_with_fewer_than_100_evaluations() {
    let ps = paper_scale();
    let screen = ScreenConfig::from_scenario(&ps.scenario).expect("screen config");
    let dir = temp_dir("screen");

    // Full enumeration: every refinement candidate simulated.
    let full = ps
        .aps
        .run(|p: &DesignPoint| simulate_point(p, &ps.trace, &ps.area, &ps.budget))
        .expect("full APS");
    assert!(full.best_time > 0.0);

    let make_oracle = || ps.oracle();
    let run = |threads: usize, journal: &Path, resume: bool, abort_after: Option<usize>| {
        let runner = SweepRunner::new(RunConfig {
            threads,
            abort_after,
            ..RunConfig::default()
        })
        .expect("runner");
        runner
            .run_screened(
                &ps.aps,
                &screen,
                make_oracle,
                Some(journal),
                resume,
                &NullSink,
                &NullSink,
            )
            .expect("screened run")
    };

    let j1 = dir.join("t1.jsonl");
    let (summary, report) = run(1, &j1, false, None);
    let outcome = summary.outcome.as_ref().expect("completed");

    // Headline: matched objective, under budget.
    assert!(
        report.true_evaluations < 100,
        "screen used {} true evaluations",
        report.true_evaluations
    );
    assert!(
        report.true_evaluations + report.screened_out == report.plan_jobs,
        "{report:?}"
    );
    let rel = (outcome.best_time - full.best_time).abs() / full.best_time;
    assert!(
        rel <= SCREEN_OBJECTIVE_BOUND,
        "screened best {} vs full {} (relative error {rel:.4} > {SCREEN_OBJECTIVE_BOUND})",
        outcome.best_time,
        full.best_time
    );

    // Thread-count invariance: 4 threads, same bytes, same outcome.
    let j4 = dir.join("t4.jsonl");
    let (summary4, report4) = run(4, &j4, false, None);
    assert_eq!(
        std::fs::read(&j1).expect("t1"),
        std::fs::read(&j4).expect("t4"),
        "screened journal differs between 1 and 4 threads"
    );
    assert_eq!(summary4.outcome.as_ref(), Some(outcome));
    assert_eq!(report4.true_evaluations, report.true_evaluations);

    // Kill after 4 records, resume, and the durable artifact converges
    // to the clean run's bytes.
    let jr = dir.join("resume.jsonl");
    let (killed, _) = run(1, &jr, false, Some(4));
    assert!(killed.outcome.is_none(), "abort_after should interrupt");
    let (resumed, rreport) = run(1, &jr, true, None);
    assert!(rreport.resumed > 0, "resume reused no journaled records");
    assert_eq!(
        std::fs::read(&j1).expect("t1"),
        std::fs::read(&jr).expect("resumed"),
        "killed-and-resumed journal differs from the clean run"
    );
    assert_eq!(resumed.outcome.as_ref(), Some(outcome));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A screened sweep goes through the engine's evaluation cache: a
/// rerun on the same cache file serves every true evaluation from it
/// and reaches the same outcome.
#[test]
fn screened_sweep_reads_and_publishes_the_evaluation_cache() {
    let ps = paper_scale();
    let screen = ScreenConfig::from_scenario(&ps.scenario).expect("screen config");
    let dir = temp_dir("screen-cache");
    let runner = SweepRunner::new(RunConfig {
        cache_path: Some(dir.join("cache.jsonl")),
        ..RunConfig::default()
    })
    .expect("runner");
    let run = || {
        runner
            .run_screened(
                &ps.aps,
                &screen,
                || ps.oracle(),
                None,
                false,
                &NullSink,
                &NullSink,
            )
            .expect("screened run")
    };
    let (cold, cold_report) = run();
    assert_eq!(cold.report.cache_hits, 0);
    let (warm, warm_report) = run();
    assert_eq!(warm_report.true_evaluations, cold_report.true_evaluations);
    assert_eq!(warm.report.cache_hits, warm_report.true_evaluations);
    assert_eq!(warm.outcome, cold.outcome);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A screened sweep runs the engine's per-shard circuit breakers: with
/// every odd job key failing, the shards that hold only odd keys trip
/// open and short-circuit their later candidates instead of retrying
/// each one.
#[test]
fn screened_sweep_trips_the_breaker_on_a_failing_oracle() {
    let ps = paper_scale();
    let screen = ScreenConfig::from_scenario(&ps.scenario).expect("screen config");
    let faults = FaultPlan {
        oracle_failure_period: Some(2),
        ..FaultPlan::default()
    };
    let runner = SweepRunner::new(RunConfig {
        backoff: BackoffPolicy {
            base_ms: 0,
            cap_ms: 0,
            ..BackoffPolicy::default()
        },
        ..RunConfig::default()
    })
    .expect("runner");
    let (summary, _) = runner
        .run_screened(
            &ps.aps,
            &screen,
            || FaultyOracle::new(faults, ps.oracle()).expect("valid plan"),
            None,
            false,
            &NullSink,
            &NullSink,
        )
        .expect("screened run");
    let report = summary.report;
    assert!(report.completed && report.consistent(), "{report:?}");
    assert!(report.breaker_trips > 0, "{report:?}");
    assert!(report.short_circuited > 0, "{report:?}");
}

// ---------------------------------------------------------------------------
// Part 3: refactor pins — goldens, fingerprints, typed rejections
// ---------------------------------------------------------------------------

/// The law refactor is behavior-preserving: the default pipeline
/// reproduces, byte for byte, the journal and metrics captured before
/// the `ScalabilityLaw` trait existed.
#[test]
fn default_pipeline_is_byte_identical_to_pre_law_goldens() {
    let dir = temp_dir("prelaw");
    let journal = dir.join("quick.journal.jsonl");
    let metrics = dir.join("quick.metrics.json");
    run_ok(&[
        "run",
        "--scenario",
        repo_path("examples/scenarios/quick.json").to_str().unwrap(),
        "--threads",
        "1",
        "--journal",
        journal.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read(&journal).expect("journal"),
        std::fs::read(repo_path("tests/golden/pre_law_quick.journal.jsonl")).expect("golden"),
        "journal drifted from the pre-law-refactor golden"
    );
    assert_eq!(
        std::fs::read(&metrics).expect("metrics"),
        std::fs::read(repo_path("tests/golden/pre_law_quick.metrics.json")).expect("golden"),
        "metrics drifted from the pre-law-refactor golden"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scenario fingerprints are grandfathered: adding the `speedup` and
/// `screen` sections must not change any checked-in fingerprint, or
/// every existing journal and cache file would be orphaned.
#[test]
fn scenario_fingerprints_are_grandfathered() {
    let mut combined = String::new();
    for sc in [
        "examples/scenarios/gpu_sm.json",
        "examples/scenarios/paper_scale.json",
        "examples/scenarios/quick.json",
    ] {
        let out = tool()
            .args(["scenario", "validate", sc])
            .current_dir(repo_path(""))
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        combined.push_str(&String::from_utf8_lossy(&out.stdout));
    }
    let golden =
        std::fs::read_to_string(repo_path("tests/golden/pre_law_fingerprints.txt")).expect("pins");
    assert_eq!(
        combined, golden,
        "a scenario fingerprint changed; the speedup/screen sections must stay \
         fingerprint-grandfathered (tests/golden/pre_law_fingerprints.txt)"
    );
}

/// Phase oracle × surrogate screening is rejected with a typed error
/// at the CLI layer (flag overrides) and at the scenario-validation
/// layer (stored documents). The engine-layer rejection is covered by
/// `c2-runner`'s own `screen` unit tests.
#[test]
fn screening_with_phase_oracle_is_rejected_at_every_layer() {
    let dir = temp_dir("phasescreen");
    // CLI layer: flag overrides on a stored full-oracle scenario.
    let out = tool()
        .args([
            "run",
            "--scenario",
            repo_path("examples/scenarios/quick.json").to_str().unwrap(),
            "--oracle-mode",
            "phase",
            "--screen",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("surrogate screening requires the full oracle"),
        "{err}"
    );
    // Scenario-validation layer: a stored document carrying both.
    let text = std::fs::read_to_string(repo_path("examples/scenarios/quick.json")).expect("read");
    let bad = text.replace(
        "  \"runner\": {",
        "  \"oracle\": {\n    \"mode\": \"phase\"\n  },\n  \
         \"screen\": {\n    \"enabled\": true\n  },\n  \"runner\": {",
    );
    assert_ne!(bad, text, "edits did not apply");
    let path = dir.join("bad.json");
    std::fs::write(&path, bad).expect("write");
    let out = tool()
        .args(["scenario", "validate", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("surrogate screening requires the full"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--law` selects a law at the CLI: `scenario init --law` stamps the
/// document, and `run --law` completes on a stored scenario.
#[test]
fn law_is_selectable_from_the_cli() {
    let stdout = run_ok(&["scenario", "init", "--law", "usl"]);
    assert!(stdout.contains("\"law\": \"usl\""), "{stdout}");
    let stdout = run_ok(&[
        "run",
        "--scenario",
        repo_path("examples/scenarios/quick.json").to_str().unwrap(),
        "--threads",
        "1",
        "--law",
        "amdahl",
    ]);
    assert!(stdout.contains("chosen:"), "{stdout}");
}
