//! Smoke tests for the `c2bound-tool` command-line program.

use std::process::Command;

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_c2bound-tool"))
}

#[test]
fn usage_on_no_args() {
    let out = tool().output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn table1_prints_rows() {
    let out = tool().arg("table1").output().expect("spawn");
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("TMM"), "{s}");
    assert!(s.contains("FFT"), "{s}");
}

#[test]
fn optimize_reports_a_design() {
    let out = tool()
        .args(["optimize", "0.2", "0.4", "0.5"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("MinimizeTime"), "{s}");
    assert!(s.contains("N (cores)"), "{s}");
}

#[test]
fn characterize_runs_the_simulator() {
    let out = tool()
        .args(["characterize", "stencil", "12"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("f_mem"), "{s}");
    assert!(s.contains("C-AMAT"), "{s}");
}

#[test]
fn trace_roundtrips_through_characterize_file() {
    let out = tool()
        .args(["trace", "spmv", "32"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let dump = out.stdout;
    assert!(dump.starts_with(b"#c2trace v1"));

    let dir = std::env::temp_dir().join(format!("c2bound-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("t.trace");
    std::fs::write(&path, &dump).expect("write");
    let out = tool()
        .args(["characterize-file", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("f_mem"), "{s}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scaling_prints_series() {
    let out = tool().args(["scaling", "0.9"]).output().expect("spawn");
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("W/T"), "{s}");
    assert!(s.contains("1000"), "{s}");
}

#[test]
fn multiobjective_reports_energy() {
    let out = tool()
        .args(["multiobjective", "0.5"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("energy (J)"), "{s}");
    assert!(s.contains("EDP"), "{s}");
}

#[test]
fn adaptive_reports_phases() {
    let out = tool().arg("adaptive").output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("phase"), "{s}");
    assert!(s.contains("reconfiguration gain"), "{s}");
}

#[test]
fn unknown_workload_is_usage_error() {
    let out = tool()
        .args(["characterize", "nosuch"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn run_journals_and_resumes_idempotently() {
    let dir = std::env::temp_dir().join(format!("c2bound-cli-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let journal = dir.join("sweep.jsonl");
    let jarg = journal.to_str().unwrap();

    let out = tool()
        .args(["run", "stencil", "10", "--workers", "2", "--journal", jarg])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("run report: 9 attempted"), "{s}");
    assert!(s.contains("chosen:"), "{s}");
    assert!(journal.exists());

    // Re-running against an existing journal without --resume must
    // refuse rather than clobber the checkpoint.
    let out = tool()
        .args(["run", "stencil", "10", "--journal", jarg])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resume"));

    // Resume of a complete journal re-runs nothing; the merged ledger
    // still accounts for every journaled attempt.
    let out = tool()
        .args(["run", "stencil", "10", "--journal", jarg, "--resume"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("9 resumed"), "{s}");
    assert!(s.contains("run report: 9 attempted = 9 succeeded"), "{s}");

    // --resume without --journal is a usage error.
    let out = tool()
        .args(["run", "stencil", "10", "--resume"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_text_matches_the_golden_snapshot() {
    let out = tool().output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let golden = include_str!("golden/usage.txt");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        golden,
        "usage text drifted from tests/golden/usage.txt; \
         regenerate it if the change is intentional"
    );
}

#[test]
fn unknown_subcommands_error_to_stderr_with_usage() {
    let out = tool().arg("frobnicate").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "usage must not pollute stdout");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("error: unknown subcommand \"frobnicate\""),
        "{err}"
    );
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn misspelled_subcommand_is_not_silently_absorbed() {
    let out = tool()
        .args(["rnu", "stencil", "10"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: unknown subcommand \"rnu\""), "{err}");
}

#[test]
fn positional_zero_size_is_a_typed_error_before_the_engine() {
    let dir = std::env::temp_dir().join(format!("c2bound-zero-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("zero.journal.jsonl");
    let out = tool()
        .args([
            "run",
            "stencil",
            "0",
            "--journal",
            journal.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("workload.size"), "{err}");
    assert!(
        !journal.exists(),
        "a rejected run must not create a journal file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--roofline-out` patches the scenario before validation, so an
/// empty destination is a typed validation error, not a failed write
/// after the whole sweep has run and journaled.
#[test]
fn empty_roofline_destination_is_a_typed_error_before_the_engine() {
    let dir = std::env::temp_dir().join(format!("c2bound-roof-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("roof.journal.jsonl");
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios/quick.json");
    let out = tool()
        .args([
            "run",
            "--scenario",
            scenario,
            "--roofline-out",
            "",
            "--journal",
            journal.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("observability.roofline_out"), "{err}");
    assert!(
        !journal.exists(),
        "a rejected run must not create a journal file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_with_empty_axis_is_rejected_before_any_artifact() {
    let dir = std::env::temp_dir().join(format!("c2bound-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = dir.join("empty.json");
    std::fs::write(
        &scenario,
        r#"{
  "version": 1,
  "workload": { "name": "stencil", "size": 16 },
  "space": {
    "a0": [], "a1": [0.125], "a2": [0.5],
    "n": [1, 2], "issue": [1], "rob": [16]
  },
  "runner": { "workers": 1 }
}"#,
    )
    .unwrap();
    let journal = dir.join("empty.journal.jsonl");
    let out = tool()
        .args([
            "run",
            "--scenario",
            scenario.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("space"), "{err}");
    assert!(
        !journal.exists(),
        "a rejected scenario must not create a journal file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
