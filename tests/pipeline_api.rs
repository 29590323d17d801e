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
