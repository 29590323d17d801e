//! End-to-end tests for the declarative scenario surface: the
//! `scenario` subcommand, the checked-in example files, golden
//! snapshots against schema drift, and the contract that `run
//! --scenario` is the exact same pipeline as the positional form.

use std::path::{Path, PathBuf};
use std::process::Command;

use c2_config::{Scenario, SpaceSpec};

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_c2bound-tool"))
}

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("c2bound-scenario-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The checked-in default scenario is exactly `scenario init` output:
/// regenerating it can never silently drift from the code's defaults.
#[test]
fn scenario_init_matches_checked_in_default() {
    let out = tool().args(["scenario", "init"]).output().expect("spawn");
    assert!(out.status.success());
    let golden =
        std::fs::read_to_string(repo_path("examples/scenarios/paper_scale.json")).expect("golden");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden,
        "examples/scenarios/paper_scale.json is stale; regenerate with \
         `c2bound-tool scenario init examples/scenarios/paper_scale.json`"
    );
    // And the library agrees with the binary.
    assert_eq!(Scenario::default().render_pretty(), golden);
}

/// Golden stdout snapshot for `scenario show`: catches schema drift
/// (new fields, renamed keys, changed defaults, fingerprint changes).
#[test]
fn scenario_show_matches_golden_snapshot() {
    let out = tool()
        .args([
            "scenario",
            "show",
            repo_path("examples/scenarios/paper_scale.json")
                .to_str()
                .unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let golden = std::fs::read_to_string(repo_path("tests/golden/scenario_show.txt")).expect(
        "tests/golden/scenario_show.txt; regenerate with \
         `c2bound-tool scenario show examples/scenarios/paper_scale.json`",
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
}

/// Render completeness: `scenario show` (and `init`, which shares the
/// canonical renderer) must emit *every* section of the schema. The
/// `oracle` and `backend` blocks were each added after the original
/// renderer was written — this pins the full key set so a future
/// section cannot silently disappear from shows and starter files
/// while still round-tripping through the parser's defaults.
#[test]
fn scenario_show_renders_every_section() {
    let out = tool()
        .args([
            "scenario",
            "show",
            repo_path("examples/scenarios/paper_scale.json")
                .to_str()
                .unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for section in [
        "\"version\"",
        "\"workload\"",
        "\"model\"",
        "\"chip\"",
        "\"space\"",
        "\"budget\"",
        "\"area\"",
        "\"solver\"",
        "\"oracle\"",
        "\"backend\"",
        "\"runner\"",
        "\"serve\"",
        "\"observability\"",
    ] {
        assert!(
            text.contains(&format!("  {section}: ")),
            "scenario show dropped the {section} section"
        );
    }
    // The late-added blocks render their own sub-keys too, not just an
    // empty shell.
    for key in ["\"mode\"", "\"kind\"", "\"gpu\"", "\"roofline_out\""] {
        assert!(text.contains(key), "scenario show dropped {key}");
    }
}

/// Every checked-in example scenario must validate.
#[test]
fn all_example_scenarios_validate() {
    let dir = repo_path("examples/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/scenarios") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        seen += 1;
        let out = tool()
            .args(["scenario", "validate", path.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("fingerprint"));
    }
    assert!(seen >= 2, "expected at least two example scenarios");
}

/// Strict parsing: unknown keys and malformed documents are one-line
/// typed errors with a nonzero exit, not silent acceptance.
#[test]
fn scenario_validate_rejects_bad_documents() {
    let dir = temp_dir("bad");
    for (name, text) in [
        ("unknown_key.json", r#"{"version": 1, "bogus": {}}"#),
        ("wrong_type.json", r#"{"workload": {"name": 3}}"#),
        ("not_json.json", "{"),
        ("out_of_range.json", r#"{"model": {"dram_latency": -1.0}}"#),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write");
        let out = tool()
            .args(["scenario", "validate", path.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "{name} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error:"), "{name}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed command-line values are errors (satellite of the same
/// contract): only *absent* arguments fall back to defaults.
#[test]
fn malformed_positional_args_are_errors_not_defaults() {
    for args in [
        vec!["characterize", "stencil", "nope"],
        vec!["optimize", "0.2", "bogus"],
        vec!["aps", "stencil", "-3"],
        vec!["scaling", "x"],
        vec!["multiobjective", "--"],
        vec!["run", "stencil", "ten"],
        vec!["run", "stencil", "10", "--threads", "many"],
    ] {
        let out = tool().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} succeeded");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid"), "{args:?}: {err}");
    }
}

/// `run --scenario` with a scenario equivalent to the positional
/// defaults produces byte-identical results and metrics: the scenario
/// layer relocates constants, it does not change behavior.
#[test]
fn scenario_run_is_byte_identical_to_positional_run() {
    let dir = temp_dir("equiv");
    let mut sc = Scenario::default();
    sc.workload.name = "stencil".into();
    sc.workload.size = 10;
    sc.space = SpaceSpec::tiny();
    let sc_path = dir.join("equiv.json");
    std::fs::write(&sc_path, sc.render_pretty()).expect("write scenario");

    let m_pos = dir.join("pos.metrics.json");
    let m_sc = dir.join("sc.metrics.json");
    let pos = tool()
        .args([
            "run",
            "stencil",
            "10",
            "--threads",
            "1",
            "--metrics-out",
            m_pos.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        pos.status.success(),
        "{}",
        String::from_utf8_lossy(&pos.stderr)
    );
    let scn = tool()
        .args([
            "run",
            "--scenario",
            sc_path.to_str().unwrap(),
            "--threads",
            "1",
            "--metrics-out",
            m_sc.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        scn.status.success(),
        "{}",
        String::from_utf8_lossy(&scn.stderr)
    );

    // Stdout matches apart from the metrics path it echoes back.
    let strip = |out: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(out)
            .lines()
            .filter(|l| !l.starts_with("metrics:"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(strip(&pos.stdout), strip(&scn.stdout));
    // The observability reports are byte-identical.
    let a = std::fs::read(&m_pos).expect("pos metrics");
    let b = std::fs::read(&m_sc).expect("sc metrics");
    assert_eq!(
        a, b,
        "metrics reports differ between positional and scenario runs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The resume contract: a journal written under a scenario can be
/// resumed only against that scenario (bit-identical outcome), and a
/// *semantically changed* scenario — even one that leaves the sweep
/// plan untouched — is rejected by fingerprint.
#[test]
fn scenario_journals_resume_bit_identically_and_reject_modified_scenarios() {
    let dir = temp_dir("resume");
    let quick = repo_path("examples/scenarios/quick.json");
    let journal = dir.join("sweep.jsonl");

    // Uninterrupted journaled run: the reference output.
    let full = tool()
        .args([
            "run",
            "--scenario",
            quick.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        full.status.success(),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );
    let full_out = String::from_utf8_lossy(&full.stdout).to_string();
    assert!(full_out.contains("chosen:"), "{full_out}");

    // Simulate a crash: keep the header plus the first three outcome
    // records, then resume. The merged run must re-derive the rest and
    // land on the identical result.
    let text = std::fs::read_to_string(&journal).expect("journal");
    let truncated: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
    let crashed = dir.join("crashed.jsonl");
    std::fs::write(&crashed, truncated).expect("write truncated");
    let resumed = tool()
        .args([
            "run",
            "--scenario",
            quick.to_str().unwrap(),
            "--journal",
            crashed.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .expect("spawn");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_out = String::from_utf8_lossy(&resumed.stdout).to_string();
    assert!(resumed_out.contains("3 resumed"), "{resumed_out}");
    let tail = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.starts_with("chosen:") || l.starts_with("best simulated"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(tail(&full_out), tail(&resumed_out), "resume drifted");

    // A runner-policy edit leaves the sweep plan untouched, so only the
    // scenario fingerprint distinguishes the documents — resuming must
    // still be rejected.
    let quick_text = std::fs::read_to_string(&quick).expect("quick.json");
    let modified = quick_text.replace(
        "\"workers\": 1",
        "\"workers\": 1,\n    \"deadline_ms\": 59000",
    );
    assert_ne!(modified, quick_text, "edit did not apply");
    let mod_path = dir.join("modified.json");
    std::fs::write(&mod_path, modified).expect("write modified");
    let rejected = tool()
        .args([
            "run",
            "--scenario",
            mod_path.to_str().unwrap(),
            "--journal",
            crashed.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .expect("spawn");
    assert!(!rejected.status.success(), "modified scenario resumed");
    let err = String::from_utf8_lossy(&rejected.stderr);
    assert!(err.contains("different sweep"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--scenario` and a positional workload cannot be combined.
#[test]
fn scenario_flag_conflicts_with_positional_workload() {
    let quick = repo_path("examples/scenarios/quick.json");
    let out = tool()
        .args(["run", "stencil", "--scenario", quick.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}
