//! End-to-end tests for the service layer through the real binary:
//! `serve` hosting the full workload→characterize→APS→sweep pipeline,
//! driven by the `submit`/`status`/`shutdown` client commands, plus
//! SIGTERM drain and `serve --resume`.
//!
//! The headline assertion mirrors DESIGN.md §12: a job admitted over
//! the wire leaves exactly the artifacts a one-shot `run` of the same
//! scenario would — journal and metrics byte-identical.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use c2_config::{OracleMode, Scenario, SpaceSpec};

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_c2bound-tool"))
}

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("c2bound-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A fast scenario over the tiny sweep space, distinguishable by
/// workload so two jobs never share a fingerprint (or cache entries).
fn write_scenario(dir: &Path, file: &str, workload: &str, size: u64) -> PathBuf {
    let mut sc = Scenario::default();
    sc.workload.name = workload.into();
    sc.workload.size = size;
    sc.space = SpaceSpec::tiny();
    let path = dir.join(file);
    std::fs::write(&path, sc.render_pretty()).expect("write scenario");
    path
}

/// Start `serve` on an ephemeral port and parse the bound address
/// from its first stdout line.
fn spawn_daemon(dir: &Path, extra: &[&str]) -> (Child, String) {
    let mut child = tool()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--dir",
            dir.to_str().unwrap(),
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.as_mut().expect("daemon stdout");
    let mut first = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut first)
        .expect("read serve banner");
    let addr = first
        .trim()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {first:?}"))
        .to_string();
    (child, addr)
}

/// Wait for the daemon and assert it exited 0; returns its remaining
/// stdout (the `drained:` report line).
fn reap_daemon(child: Child) -> String {
    let out = child.wait_with_output().expect("wait for daemon");
    assert!(
        out.status.success(),
        "daemon exited nonzero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("drained:"), "no drain report: {stdout:?}");
    stdout
}

/// One-shot `run` of a persisted job scenario with a fresh journal and
/// metrics file; returns (journal bytes, metrics bytes). `--threads 1`
/// matches the daemon's legacy-thread bump.
fn oneshot(dir: &Path, tag: &str, scenario: &Path) -> (Vec<u8>, Vec<u8>) {
    let journal = dir.join(format!("{tag}.oneshot.journal.jsonl"));
    let metrics = dir.join(format!("{tag}.oneshot.metrics.json"));
    let out = tool()
        .args([
            "run",
            "--scenario",
            scenario.to_str().unwrap(),
            "--threads",
            "1",
            "--journal",
            journal.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("spawn run");
    assert!(
        out.status.success(),
        "one-shot run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        std::fs::read(&journal).expect("one-shot journal"),
        std::fs::read(&metrics).expect("one-shot metrics"),
    )
}

fn assert_bit_identical(jobs_dir: &Path, job: &str, oneshot: &(Vec<u8>, Vec<u8>)) {
    let journal =
        std::fs::read(jobs_dir.join(format!("{job}.journal.jsonl"))).expect("served journal");
    let metrics =
        std::fs::read(jobs_dir.join(format!("{job}.metrics.json"))).expect("served metrics");
    assert_eq!(
        journal, oneshot.0,
        "{job}: journal differs from one-shot run"
    );
    assert_eq!(
        metrics, oneshot.1,
        "{job}: metrics differ from one-shot run"
    );
}

#[test]
fn serve_submit_status_shutdown_roundtrip_is_bit_identical_to_run() {
    let dir = temp_dir("roundtrip");
    let jobs = dir.join("jobs");
    let scenario = write_scenario(&dir, "a.json", "stencil", 10);
    let (daemon, addr) = spawn_daemon(&jobs, &["--executors", "1"]);

    // submit --wait blocks until the job completes and exits 0.
    let out = tool()
        .args([
            "submit",
            "--addr",
            &addr,
            "--scenario",
            scenario.to_str().unwrap(),
            "--tenant",
            "alice",
            "--wait",
        ])
        .output()
        .expect("spawn submit");
    assert!(
        out.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"job\":\"job0001\""), "{stdout}");
    assert!(stdout.contains("\"state\":\"completed\""), "{stdout}");

    // status shows the finished job in the table and by id.
    let out = tool()
        .args(["status", "--addr", &addr])
        .output()
        .expect("spawn status");
    assert!(out.status.success());
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(
        table.contains("job0001") && table.contains("completed"),
        "{table}"
    );
    let out = tool()
        .args(["status", "--addr", &addr, "job0001"])
        .output()
        .expect("spawn status one");
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"tenant\":\"alice\""),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // shutdown --wait returns only after the daemon stops answering,
    // and the daemon process itself exits 0 with a drain report.
    let out = tool()
        .args(["shutdown", "--addr", &addr, "--wait"])
        .output()
        .expect("spawn shutdown");
    assert!(out.status.success());
    let report = reap_daemon(daemon);
    assert!(report.contains("1 completed"), "{report}");

    // The served artifacts are byte-identical to a direct run of the
    // scenario the daemon persisted for the job.
    let persisted = jobs.join("job0001.scenario.json");
    assert!(persisted.exists(), "admitted job must be durable");
    let reference = oneshot(&dir, "a", &persisted);
    assert_bit_identical(&jobs, "job0001", &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_submissions_exit_nonzero_with_the_daemon_verdict() {
    let dir = temp_dir("reject");
    let jobs = dir.join("jobs");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"version\": 99}\n").expect("write bad scenario");
    let (daemon, addr) = spawn_daemon(&jobs, &[]);

    let out = tool()
        .args([
            "submit",
            "--addr",
            &addr,
            "--scenario",
            bad.to_str().unwrap(),
        ])
        .output()
        .expect("spawn submit");
    assert!(!out.status.success(), "invalid scenario must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("422"), "{stderr}");

    let out = tool()
        .args(["shutdown", "--addr", &addr, "--wait"])
        .output()
        .expect("spawn shutdown");
    assert!(out.status.success());
    reap_daemon(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigterm_drains_gracefully_and_resume_finishes_the_backlog() {
    let dir = temp_dir("sigterm");
    let jobs = dir.join("jobs");
    let sc_a = write_scenario(&dir, "a.json", "stencil", 10);
    let sc_b = write_scenario(&dir, "b.json", "tmm", 12);
    let (daemon, addr) = spawn_daemon(&jobs, &["--executors", "1"]);

    // Two quick submissions, then SIGTERM. Depending on timing the
    // jobs are queued, running, or already done — every outcome must
    // drain to exit 0, and --resume must finish whatever is left.
    for sc in [&sc_a, &sc_b] {
        let out = tool()
            .args([
                "submit",
                "--addr",
                &addr,
                "--scenario",
                sc.to_str().unwrap(),
            ])
            .output()
            .expect("spawn submit");
        assert!(
            out.status.success(),
            "submit failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let kill = Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", daemon.id())])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());
    reap_daemon(daemon);

    // A resume daemon picks up any pending backlog, finishes it, and
    // drains itself on idle.
    let resume = tool()
        .args([
            "serve",
            "--dir",
            jobs.to_str().unwrap(),
            "--resume",
            "--drain-on-idle",
            "--executors",
            "1",
        ])
        .output()
        .expect("spawn resume serve");
    assert!(
        resume.status.success(),
        "resume daemon failed: {}",
        String::from_utf8_lossy(&resume.stderr)
    );

    // Both jobs terminal and completed, whichever daemon ran them...
    for job in ["job0001", "job0002"] {
        let outcome = std::fs::read_to_string(jobs.join(format!("{job}.outcome.json")))
            .unwrap_or_else(|e| panic!("{job} never completed: {e}"));
        assert!(outcome.contains("\"state\":\"completed\""), "{outcome}");
    }
    // ...and byte-identical to one-shot runs of the persisted
    // scenarios: SIGTERM plus resume left no trace in the artifacts.
    for (tag, job) in [("a", "job0001"), ("b", "job0002")] {
        let reference = oneshot(&dir, tag, &jobs.join(format!("{job}.scenario.json")));
        assert_bit_identical(&jobs, job, &reference);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite of DESIGN.md §13: the same workload served once in full
/// mode and once in phase mode, plus a screened job and a gpu-sm job,
/// so every branch of the pipeline is served. Each job's artifacts
/// must be byte-identical to a one-shot `run` of its persisted
/// scenario (the daemon and the CLI call one pipeline function), and
/// the full and phase jobs must never alias: the oracle mode is bound
/// into the scenario fingerprint, so their journals — and therefore
/// their cache identities — are distinct.
#[test]
fn phase_mode_jobs_match_oneshot_run_and_never_alias_full_mode() {
    let dir = temp_dir("phase");
    let jobs = dir.join("jobs");
    let full_sc = write_scenario(&dir, "full.json", "fluidanimate", 120);
    let phase_sc = dir.join("phase.json");
    {
        let mut sc = Scenario::default();
        sc.workload.name = "fluidanimate".into();
        sc.workload.size = 120;
        sc.space = SpaceSpec::tiny();
        sc.oracle.mode = OracleMode::Phase;
        std::fs::write(&phase_sc, sc.render_pretty()).expect("write scenario");
    }
    // The screened and gpu-sm branches of the pipeline: a screening
    // budget small enough to screen candidates out, and the checked-in
    // GPU example.
    let screen_sc = dir.join("screen.json");
    {
        let text = std::fs::read_to_string(repo_path("examples/scenarios/quick.json")).unwrap();
        let mut sc = Scenario::from_json(&text).expect("quick.json");
        sc.screen.enabled = true;
        sc.screen.initial = 3;
        sc.screen.batch = 2;
        sc.screen.budget = 5;
        std::fs::write(&screen_sc, sc.render_pretty()).expect("write scenario");
    }
    let gpu_sc = repo_path("examples/scenarios/gpu_sm.json");
    let (daemon, addr) = spawn_daemon(&jobs, &["--executors", "1"]);

    for sc in [&full_sc, &phase_sc, &screen_sc, &gpu_sc] {
        let out = tool()
            .args([
                "submit",
                "--addr",
                &addr,
                "--scenario",
                sc.to_str().unwrap(),
                "--wait",
            ])
            .output()
            .expect("spawn submit");
        assert!(
            out.status.success(),
            "submit failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("\"state\":\"completed\""),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }

    let out = tool()
        .args(["shutdown", "--addr", &addr, "--wait"])
        .output()
        .expect("spawn shutdown");
    assert!(out.status.success());
    reap_daemon(daemon);

    // The persisted phase-mode scenario keeps its oracle block.
    let persisted = std::fs::read_to_string(jobs.join("job0002.scenario.json")).unwrap();
    assert!(persisted.contains("\"mode\": \"phase\""), "{persisted}");

    let ref_full = oneshot(&dir, "full", &jobs.join("job0001.scenario.json"));
    let ref_phase = oneshot(&dir, "phase", &jobs.join("job0002.scenario.json"));
    assert_bit_identical(&jobs, "job0001", &ref_full);
    assert_bit_identical(&jobs, "job0002", &ref_phase);
    assert_ne!(
        ref_full.0, ref_phase.0,
        "full- and phase-mode journals must carry distinct fingerprints"
    );
    let ref_screen = oneshot(&dir, "screen", &jobs.join("job0003.scenario.json"));
    let ref_gpu = oneshot(&dir, "gpu", &jobs.join("job0004.scenario.json"));
    assert_bit_identical(&jobs, "job0003", &ref_screen);
    assert_bit_identical(&jobs, "job0004", &ref_gpu);
    // Screening really screened: the journal records fewer evaluations
    // than its header's plan has jobs.
    let journal = String::from_utf8(ref_screen.0).expect("utf-8 journal");
    let header = c2_config::Json::parse(journal.lines().next().expect("header")).expect("json");
    let jobs_in_plan = header
        .as_obj()
        .and_then(|pairs| pairs.iter().find(|(k, _)| k == "jobs"))
        .and_then(|(_, v)| v.as_u64())
        .expect("plan size in the journal header");
    let evaluated = journal
        .lines()
        .filter(|line| line.starts_with("{\"seq\":"))
        .count() as u64;
    assert!(
        evaluated < jobs_in_plan,
        "no candidate was screened out: {evaluated} of {jobs_in_plan}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
