//! `c2bound::pipeline` as a library: what `execute` reports on each
//! branch, and how its errors split into configuration errors (nothing
//! written) and run errors.

use c2_config::{BackendKind, OracleMode, Scenario, SpaceSpec};
use c2bound::obs::NullSink;
use c2bound::pipeline::{self, Error};
use c2bound::runner::{RunConfig, ScenarioExecutor};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("c2bound-pipeline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn stencil() -> Scenario {
    let mut sc = Scenario::default();
    sc.workload.name = "stencil".into();
    sc.workload.size = 10;
    sc.space = SpaceSpec::tiny();
    sc
}

fn config(sc: &Scenario) -> RunConfig {
    let mut config = RunConfig::from_spec(&sc.runner).expect("runner spec");
    config.threads = 1;
    config.with_scenario(sc.fingerprint())
}

fn execute(sc: &Scenario, journal: Option<&std::path::Path>) -> Result<pipeline::Run, Error> {
    pipeline::execute(sc, config(sc), journal, false, &NullSink, &NullSink)
}

#[test]
fn execute_reports_the_facts_of_each_branch() {
    let dir = temp_dir("facts");
    let mut sc = stencil();
    sc.observability.roofline_out = Some(dir.join("roof.json").to_str().unwrap().into());
    let full = execute(&sc, None).expect("full run");
    assert!(full.summary.outcome.is_some());
    assert_eq!(full.phases, None);
    assert!(full.screen.is_none());
    assert_eq!(full.roofline_points, Some(full.summary.results.len()));
    assert!(dir.join("roof.json").exists());

    sc.observability.roofline_out = None;
    sc.oracle.mode = OracleMode::Phase;
    let phase = execute(&sc, None).expect("phase run");
    assert!(phase.phases.is_some());
    assert_eq!(phase.roofline_points, None);

    // The daemon's executor is the same function.
    let journal = dir.join("served.jsonl");
    let served = pipeline::Executor
        .execute(&sc, config(&sc), &journal, false, &NullSink, &NullSink)
        .expect("served run");
    assert_eq!(served.report, phase.summary.report);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Phase mode reads and publishes the evaluation cache as full mode
/// does: a cold run journals what a cache-less run does, a warm rerun
/// answers every job from the cache, and the file holds evaluation
/// entries only.
#[test]
fn phase_mode_with_a_cache_journals_as_without_one() {
    let dir = temp_dir("phase-cache");
    let mut sc = stencil();
    sc.oracle.mode = OracleMode::Phase;
    sc.oracle.phase.interval_len = 100;
    let cache = dir.join("cache.jsonl");
    let run = |name: &str, cache: Option<&std::path::Path>| {
        let journal = dir.join(name);
        let mut config = config(&sc);
        config.cache_path = cache.map(std::path::Path::to_path_buf);
        let run = pipeline::execute(&sc, config, Some(&journal), false, &NullSink, &NullSink)
            .expect("phase run");
        (run, std::fs::read(&journal).expect("journal"))
    };
    let (bare, bare_journal) = run("bare.jsonl", None);
    assert!(!bare.phases.expect("phase mode").exact, "the plan clusters");
    let (cold, cold_journal) = run("cold.jsonl", Some(&cache));
    assert_eq!(cold_journal, bare_journal);
    assert_eq!(cold.summary.report.cache_hits, 0);
    let (warm, _) = run("warm.jsonl", Some(&cache));
    let report = &warm.summary.report;
    assert!(report.attempted > 0);
    assert_eq!(report.cache_hits, report.attempted);
    assert_eq!(warm.summary.outcome, cold.summary.outcome);
    let text = std::fs::read_to_string(&cache).expect("cache");
    assert!(!text.contains("c2phase"), "{text}");
    assert_eq!(text.lines().count(), 1 + report.attempted);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn configuration_errors_come_before_any_artifact() {
    let dir = temp_dir("errors");
    let journal = dir.join("never.jsonl");
    let mut sc = stencil();
    sc.workload.name = "nosuch".into();
    let err = execute(&sc, Some(&journal)).unwrap_err();
    assert!(
        matches!(err, Error::UnknownWorkload(ref name) if name == "nosuch"),
        "{err}"
    );

    // A combination `Scenario::validate` rejects, handed over
    // unvalidated: the engine-layer guard still refuses it.
    let mut sc = stencil();
    sc.backend.kind = BackendKind::GpuSm;
    sc.oracle.mode = OracleMode::Phase;
    let err = execute(&sc, Some(&journal)).unwrap_err();
    assert!(matches!(err, Error::Setup(_)), "{err}");
    assert!(err
        .to_string()
        .contains("phase oracle requires the cpu-cmp backend"));
    assert!(!journal.exists(), "a configuration error wrote a journal");

    // A failed Roofline write comes after the sweep: a run error.
    let mut sc = stencil();
    sc.observability.roofline_out = Some(
        dir.join("missing")
            .join("roof.json")
            .to_str()
            .unwrap()
            .into(),
    );
    let err = execute(&sc, None).unwrap_err();
    assert!(matches!(err, Error::Run(_)), "{err}");
    assert!(err.to_string().contains("cannot write roofline"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
