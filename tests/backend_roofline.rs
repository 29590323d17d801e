//! End-to-end tests for the model-backend surface (DESIGN.md §14):
//! the `--backend` flag, the GPU-SM analytical backend, the Roofline
//! overlay, and the isolation contract — a journal or evaluation cache
//! written under one backend must never be resumed or served under
//! another. The CPU default path is pinned byte-for-byte against
//! goldens captured *before* the `ModelBackend` refactor, so the trait
//! extraction is provably behavior-preserving.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_c2bound-tool"))
}

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("c2bound-backend-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
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

/// The default (cpu-cmp) pipeline is byte-identical to the pre-refactor
/// engine: journal and metrics captured before the `ModelBackend`
/// trait existed must be reproduced exactly by today's binary.
#[test]
fn cpu_backend_is_byte_identical_to_pre_refactor_goldens() {
    let dir = temp_dir("prerefactor");
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
    let golden_journal =
        std::fs::read(repo_path("tests/golden/pre_backend_quick.journal.jsonl")).expect("golden");
    let golden_metrics =
        std::fs::read(repo_path("tests/golden/pre_backend_quick.metrics.json")).expect("golden");
    assert_eq!(
        std::fs::read(&journal).expect("journal"),
        golden_journal,
        "cpu-cmp journal drifted from the pre-backend-refactor golden"
    );
    assert_eq!(
        std::fs::read(&metrics).expect("metrics"),
        golden_metrics,
        "cpu-cmp metrics drifted from the pre-backend-refactor golden"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checked-in GPU example runs end-to-end and its roofline output
/// is deterministic: byte-identical to the pinned golden.
#[test]
fn gpu_sm_example_roofline_matches_golden() {
    let dir = temp_dir("gpuroof");
    let roof = dir.join("roof.json");
    let stdout = run_ok(&[
        "run",
        "--scenario",
        repo_path("examples/scenarios/gpu_sm.json")
            .to_str()
            .unwrap(),
        "--threads",
        "1",
        "--roofline-out",
        roof.to_str().unwrap(),
    ]);
    assert!(stdout.contains("chosen: SMs ="), "{stdout}");
    assert!(
        stdout.contains("roofline: wrote 16 candidate points"),
        "{stdout}"
    );
    let golden =
        std::fs::read(repo_path("tests/golden/gpu_sm_roofline.json")).expect("roofline golden");
    assert_eq!(
        std::fs::read(&roof).expect("roofline"),
        golden,
        "gpu-sm roofline output drifted from tests/golden/gpu_sm_roofline.json"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Roofline reports are thread-count invariant: the sharded engine at
/// 4 threads writes the same bytes as at 1 thread, and the chosen
/// design matches too.
#[test]
fn gpu_roofline_is_thread_count_invariant() {
    let dir = temp_dir("threads");
    let sc = repo_path("examples/scenarios/gpu_sm.json");
    let mut outputs = Vec::new();
    for threads in ["1", "4"] {
        let roof = dir.join(format!("roof-{threads}.json"));
        let stdout = run_ok(&[
            "run",
            "--scenario",
            sc.to_str().unwrap(),
            "--threads",
            threads,
            "--roofline-out",
            roof.to_str().unwrap(),
        ]);
        let chosen: Vec<String> = stdout
            .lines()
            .filter(|l| l.starts_with("chosen:") || l.starts_with("best simulated"))
            .map(str::to_string)
            .collect();
        outputs.push((std::fs::read(&roof).expect("roofline"), chosen));
    }
    assert_eq!(
        outputs[0].0, outputs[1].0,
        "roofline bytes differ by thread count"
    );
    assert_eq!(
        outputs[0].1, outputs[1].1,
        "chosen design differs by thread count"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CPU path emits rooflines too — with Eq. 10-derived ceilings and
/// the cpu-cmp identity — and the file is strict JSON.
#[test]
fn cpu_run_emits_parseable_roofline() {
    let dir = temp_dir("cpuroof");
    let roof = dir.join("roof.json");
    run_ok(&[
        "run",
        "--scenario",
        repo_path("examples/scenarios/quick.json").to_str().unwrap(),
        "--threads",
        "1",
        "--roofline-out",
        roof.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&roof).expect("roofline");
    let doc = c2_config::Json::parse(&text).expect("strict JSON");
    let top = doc.as_obj().expect("object");
    let get = |key: &str| top.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
    assert_eq!(
        get("backend").and_then(|v| v.as_str().map(str::to_string)),
        Some("cpu-cmp".to_string())
    );
    let points = get("points").expect("points");
    assert_eq!(points.as_arr().map(<[c2_config::Json]>::len), Some(9));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `roofline` subcommand renders the pinned report with its
/// limiting-ceiling labels and candidate counts.
#[test]
fn roofline_subcommand_labels_limiting_ceilings() {
    let stdout = run_ok(&[
        "roofline",
        repo_path("tests/golden/gpu_sm_roofline.json")
            .to_str()
            .unwrap(),
    ]);
    assert!(stdout.contains("gpu-sm backend, 16 candidates"), "{stdout}");
    assert!(stdout.contains("compute-limited"), "{stdout}");
    assert!(stdout.contains("bandwidth-limited"), "{stdout}");
    // Both ceiling labels appear in the per-candidate table.
    assert!(
        stdout.lines().any(|l| l.trim_end().ends_with("compute")),
        "{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.trim_end().ends_with("bandwidth")),
        "{stdout}"
    );
    // And a non-roofline file is a typed error.
    let out = tool()
        .args([
            "roofline",
            repo_path("examples/scenarios/quick.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not a roofline report"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Backend identity is bound into the journal header: a fingerprint-free
/// positional journal written under cpu-cmp is refused by a gpu-sm
/// resume of the same command, and vice versa. Without the backend
/// binding, both directions would silently replay foreign results.
#[test]
fn journals_refuse_cross_backend_resume() {
    let dir = temp_dir("xjournal");
    for (write_backend, resume_backend) in [("cpu-cmp", "gpu-sm"), ("gpu-sm", "cpu-cmp")] {
        let journal = dir.join(format!("{write_backend}.jsonl"));
        run_ok(&[
            "run",
            "stencil",
            "10",
            "--threads",
            "1",
            "--backend",
            write_backend,
            "--journal",
            journal.to_str().unwrap(),
        ]);
        let out = tool()
            .args([
                "run",
                "stencil",
                "10",
                "--threads",
                "1",
                "--backend",
                resume_backend,
                "--journal",
                journal.to_str().unwrap(),
                "--resume",
            ])
            .output()
            .expect("spawn");
        assert!(
            !out.status.success(),
            "{write_backend} journal resumed under {resume_backend}"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("different sweep"), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shared evaluation cache never crosses backends: a cpu-cmp run's
/// entries yield zero hits for a gpu-sm run over the same positional
/// workload (and the gpu-sm run's own entries do hit on repeat, so the
/// zero is isolation, not a broken cache).
#[test]
fn shared_cache_never_crosses_backends() {
    let dir = temp_dir("xcache");
    let cache = dir.join("shared.cache.jsonl");
    let base = |backend: &str| -> Vec<String> {
        vec![
            "run".into(),
            "stencil".into(),
            "10".into(),
            "--threads".into(),
            "1".into(),
            "--backend".into(),
            backend.into(),
            "--cache".into(),
            cache.to_str().unwrap().into(),
        ]
    };
    let hits = |stdout: &str| -> String {
        stdout
            .lines()
            .find(|l| l.starts_with("run report:"))
            .and_then(|l| {
                l.split(", ")
                    .find(|part| part.ends_with("cache hits"))
                    .map(str::to_string)
            })
            .unwrap_or_default()
    };
    let cpu_args_owned = base("cpu-cmp");
    let cpu_args: Vec<&str> = cpu_args_owned.iter().map(String::as_str).collect();
    let first = run_ok(&cpu_args);
    assert_eq!(hits(&first), "0 cache hits", "{first}");
    // The cpu entries are in the shared file now; gpu must not see them.
    let gpu_args_owned = base("gpu-sm");
    let gpu_args: Vec<&str> = gpu_args_owned.iter().map(String::as_str).collect();
    let gpu_first = run_ok(&gpu_args);
    assert_eq!(
        hits(&gpu_first),
        "0 cache hits",
        "gpu-sm run consumed cpu-cmp cache entries: {gpu_first}"
    );
    // Control: the cache itself works — a repeat gpu run hits.
    let gpu_second = run_ok(&gpu_args);
    assert_ne!(hits(&gpu_second), "0 cache hits", "{gpu_second}");
    // And the cpu side still self-hits rather than seeing gpu entries.
    let cpu_second = run_ok(&cpu_args);
    assert_ne!(hits(&cpu_second), "0 cache hits", "{cpu_second}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The phase-clustered oracle is C-AMAT-specific: combining it with a
/// non-CPU backend is a typed error at the CLI layer (flag overrides)
/// and at the scenario layer (stored documents).
#[test]
fn phase_oracle_with_gpu_backend_is_rejected_everywhere() {
    // Flag overrides on a stored gpu scenario.
    let out = tool()
        .args([
            "run",
            "--scenario",
            repo_path("examples/scenarios/gpu_sm.json")
                .to_str()
                .unwrap(),
            "--oracle-mode",
            "phase",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("phase oracle requires the cpu-cmp backend"),
        "{err}"
    );
    // Flag overrides on the positional form.
    let out = tool()
        .args([
            "run",
            "stencil",
            "10",
            "--backend",
            "gpu-sm",
            "--oracle-mode",
            "phase",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    // A stored document carrying the combination is rejected by
    // `scenario validate` (i.e. at parse/validate time, before any run).
    let dir = temp_dir("phasegpu");
    let text = std::fs::read_to_string(repo_path("examples/scenarios/gpu_sm.json")).expect("read");
    let bad = text.replace("\"mode\": \"full\"", "\"mode\": \"phase\"");
    assert_ne!(bad, text, "edit did not apply");
    let path = dir.join("bad.json");
    std::fs::write(&path, bad).expect("write");
    let out = tool()
        .args(["scenario", "validate", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("phase oracle requires the cpu-cmp backend"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `scenario init --backend gpu-sm` emits exactly the checked-in GPU
/// example, so the starter document can never drift from the code.
#[test]
fn scenario_init_gpu_matches_checked_in_example() {
    let out = tool()
        .args(["scenario", "init", "--backend", "gpu-sm"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let golden =
        std::fs::read_to_string(repo_path("examples/scenarios/gpu_sm.json")).expect("golden");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden,
        "examples/scenarios/gpu_sm.json is stale; regenerate with \
         `c2bound-tool scenario init --backend gpu-sm examples/scenarios/gpu_sm.json`"
    );
}
