//! Smoke tests for the `c2bound-tool` command-line program.

use std::path::Path;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_c2bound-tool"))
}

const QUICK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios/quick.json");

/// Wait at most `limit` for `child`, polling, so a hang fails the test
/// instead of stalling the suite.
fn wait_bounded(mut child: Child, limit: Duration) -> Output {
    let started = Instant::now();
    while child.try_wait().expect("poll child").is_none() {
        if started.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("child still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect child")
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
fn rejected_arguments_and_failed_writes_exit_with_one_error_line() {
    // (arguments, expected exit code): 2 for an argument the model
    // rejects, 1 for a computation or write that fails.
    let cases: &[(&[&str], i32)] = &[
        (&["optimize", "2.0"], 2),
        (&["optimize", "-1"], 2),
        (&["optimize", "0.05", "0.3", "1.5", "10", "40"], 2),
        (&["optimize", "0.05", "0.3", "1.5", "400", "-5"], 2),
        (&["optimize", "0.05", "0.3", "1.5", "40.001", "40"], 1),
        (&["optimize", "0.05", "0.3", "nan"], 2),
        (&["optimize", "0.05", "0.3", "inf"], 2),
        (&["optimize", "0.05", "0.3", "-1"], 2),
        (&["optimize", "0.05", "0.3", "1.5", "inf", "40"], 2),
        (&["characterize", "stencil", "0"], 2),
        (&["trace", "stencil", "0"], 2),
        (&["scaling", "5"], 2),
        (&["scaling", "nan"], 2),
        (&["multiobjective", "7"], 2),
    ];
    let check = |args: &[&str], code: i32, out: Output| -> String {
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        err
    };
    for &(args, code) in cases {
        check(args, code, tool().args(args).output().expect("spawn"));
    }
    // A run whose metrics cannot be written fails before its sweep, so
    // it leaves no journal behind.
    let missing_journal = std::env::temp_dir().join(format!(
        "c2bound-metrics-missing-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&missing_journal);
    let missing_journal_arg = missing_journal.to_str().unwrap();
    // (arguments, expected exit code, expected start of the error line).
    let named: &[(&[&str], i32, &str)] = &[
        (
            &["roofline", "/nonexistent"],
            1,
            "error: cannot open /nonexistent: ",
        ),
        (
            &["obs-report", "/nonexistent"],
            1,
            "error: cannot open /nonexistent: ",
        ),
        (
            &["characterize-file", "/nonexistent"],
            1,
            "error: cannot open /nonexistent: ",
        ),
        (
            &["run", "stencil", "8", "--threads"],
            2,
            "error: --threads requires a value\n",
        ),
        (
            &[
                "run",
                "stencil",
                "8",
                "--metrics-out",
                "/nonexistent/m.json",
                "--journal",
                missing_journal_arg,
            ],
            1,
            "error: cannot write metrics to /nonexistent/m.json: ",
        ),
        (
            &["adaptive", "extra"],
            2,
            "error: unexpected argument \"extra\"\n",
        ),
        (
            &["table1", "extra"],
            2,
            "error: unexpected argument \"extra\"\n",
        ),
        (
            &["characterize", "stencil", "8", "extra"],
            2,
            "error: unexpected argument \"extra\"\n",
        ),
        (
            &["optimize", "0.05", "0.3", "1.5", "400", "40", "extra"],
            2,
            "error: unexpected argument \"extra\"\n",
        ),
        (
            &["scaling", "0.3", "extra"],
            2,
            "error: unexpected argument \"extra\"\n",
        ),
        (
            &["multiobjective", "0.5", "extra"],
            2,
            "error: unexpected argument \"extra\"\n",
        ),
    ];
    for &(args, code, start) in named {
        let err = check(args, code, tool().args(args).output().expect("spawn"));
        assert!(err.starts_with(start), "{args:?}: {err}");
    }
    assert!(
        !missing_journal.exists(),
        "a run whose metrics cannot be written must not journal"
    );

    // Every printing subcommand, with stdout on a full device, reports
    // the failed write instead of panicking. The file readers get real
    // inputs first, so the write is what fails.
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let dir = std::env::temp_dir().join(format!("c2bound-full-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (trace, metrics, roofline, journal) = (
        file("t.trace"),
        file("m.json"),
        file("r.json"),
        file("j.jsonl"),
    );
    let out = tool()
        .args(["trace", "stencil", "8"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    std::fs::write(&trace, out.stdout).unwrap();
    let out = tool()
        .args(["run", "--scenario", QUICK, "--metrics-out", &metrics])
        .args(["--roofline-out", &roofline])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::copy(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/legacy_checkpoint.journal.jsonl"
        ),
        &journal,
    )
    .unwrap();
    let printing: &[&[&str]] = &[
        &["table1"],
        &["scaling"],
        &["optimize"],
        &["characterize", "stencil", "8"],
        &["aps", "stencil", "8"],
        &["run", "stencil", "8"],
        &["scenario", "init"],
        &["scenario", "show", QUICK],
        &["multiobjective"],
        &["adaptive"],
        &["journal", "compact", &journal],
        &["obs-report", &metrics],
        &["roofline", &roofline],
        &["characterize-file", &trace],
        &["trace", "stencil", "8"],
    ];
    for &args in printing {
        let out = tool()
            .args(args)
            .stdout(Stdio::from(full.try_clone().expect("dup /dev/full")))
            .output()
            .expect("spawn");
        check(args, 1, out);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `aps` reports what the sequential `Aps::run` driver reports for the
/// same workload: these four lines for `stencil 12`, byte for byte.
#[test]
fn aps_prints_the_pinned_outcome() {
    let out = tool()
        .args(["aps", "stencil", "12"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "APS over a 2304-point space; refining 9 microarchitecture points with real simulations...\n\
         chosen: N = 8, A0 = 8.000 mm2, L1 = 0.500 mm2, L2 = 2.000 mm2, issue = 4, ROB = 128\n\
         simulations used: 9; best simulated time: 896.0 cycles; calibrated model error: 10.377%\n\
         refinement: 9/9 points simulated (0 retried, 0 skipped, 9 oracle calls, degradation: None)\n"
    );
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
        .args(["run", "stencil", "10", "--threads", "2", "--journal", jarg])
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

/// A DRAM row smaller than a cache line is a configuration error: `run`
/// exits 2 with one `error:` line before it characterizes anything,
/// where the row mapping used to divide by zero and panic.
#[test]
fn dram_row_smaller_than_a_line_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("c2bound-row-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = dir.join("row32.json");
    std::fs::write(
        &scenario,
        r#"{
  "version": 1,
  "workload": { "name": "stencil", "size": 16 },
  "chip": { "dram": { "row_size": 32 } }
}"#,
    )
    .unwrap();
    let validated = tool()
        .args(["scenario", "validate", scenario.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        validated.status.success(),
        "the document itself is well formed"
    );
    let out = tool()
        .args(["run", "--scenario", scenario.to_str().unwrap()])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.starts_with("error: "), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("row_size"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The default engine path is deterministic: a `workers: 2, threads: 0`
/// scenario runs on `workers` sharded threads, so two flag-less runs
/// and a `--threads 1` run write byte-identical journals and metrics.
#[test]
fn threads_zero_scenario_runs_deterministically_on_workers_threads() {
    let dir = std::env::temp_dir().join(format!("c2bound-default-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let quick = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scenarios/quick.json"
    ))
    .unwrap();
    let two_workers = quick.replace("\"workers\": 1", "\"workers\": 2");
    assert_ne!(two_workers, quick, "edit did not apply");
    let scenario = dir.join("quick-w2.json");
    std::fs::write(&scenario, two_workers).unwrap();

    let run = |tag: &str, extra: &[&str]| -> (Vec<u8>, Vec<u8>) {
        let journal = dir.join(format!("{tag}.journal.jsonl"));
        let metrics = dir.join(format!("{tag}.metrics.json"));
        let out = tool()
            .args(["run", "--scenario", scenario.to_str().unwrap()])
            .args(extra)
            .args(["--journal", journal.to_str().unwrap()])
            .args(["--metrics-out", metrics.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let threads = if extra.is_empty() { "2" } else { "1" };
        assert!(
            stdout.starts_with(&format!("supervised sweep: {threads} sharded threads")),
            "{stdout}"
        );
        (
            std::fs::read(journal).unwrap(),
            std::fs::read(metrics).unwrap(),
        )
    };
    let first = run("a", &[]);
    assert_eq!(run("b", &[]), first, "flag-less reruns must not differ");
    assert_eq!(
        run("t1", &["--threads", "1"]),
        first,
        "the thread count must not change a byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume refuses a journal record with more attempts than
/// `max_attempts` allows (quick.json allows 3): no run under the
/// configuration writes one, and replay walks every claimed attempt,
/// so `"attempts":1000000000000000` used to hang `--resume`. A record
/// at the limit still resumes.
#[test]
fn resume_refuses_a_record_with_impossible_attempts() {
    let dir = std::env::temp_dir().join(format!("c2bound-attempts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("hostile.jsonl");
    let jarg = journal.to_str().unwrap();
    let out = tool()
        .args([
            "run",
            "--scenario",
            QUICK,
            "--threads",
            "1",
            "--journal",
            jarg,
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let clean = std::fs::read_to_string(&journal).unwrap();
    let first = "{\"seq\":0,\"attempts\":1,";
    assert!(clean.contains(first), "{clean}");

    let resume = |attempts: &str| {
        let edited = clean.replace(first, &format!("{{\"seq\":0,\"attempts\":{attempts},"));
        std::fs::write(&journal, edited).unwrap();
        let child = tool()
            .args(["run", "--scenario", QUICK, "--threads", "1"])
            .args(["--journal", jarg, "--resume"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn");
        wait_bounded(child, Duration::from_secs(60))
    };
    let out = resume("1000000000000000");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(
            "journal record seq 0 has 1000000000000000 attempts, more than max_attempts 3"
        ),
        "{err}"
    );
    let out = resume("3");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tests/golden/legacy_checkpoint.journal.jsonl` is a journal an older
/// engine wrote with `c2ckpt` checkpoint lines: quick.json at
/// `--threads 1 --checkpoint-every 1`, crashed at storage write 8, so
/// it holds the header, records 0–2, three `c2ckpt` lines and a torn
/// tail. Resumed with chaos disarmed, it converges on a clean run's
/// journal and metrics bytes; `journal compact` keeps its records,
/// drops the torn tail and the checkpoints, and is idempotent.
#[test]
fn legacy_checkpoint_journal_resumes_and_compacts() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/legacy_checkpoint.journal.jsonl"
    );
    let dir = std::env::temp_dir().join(format!("c2bound-legacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |tag: &str, resume: bool| -> (Vec<u8>, Vec<u8>) {
        let journal = dir.join(format!("{tag}.jsonl"));
        let metrics = dir.join(format!("{tag}.metrics.json"));
        let mut cmd = tool();
        cmd.args(["run", "--scenario", QUICK, "--threads", "1"])
            .args(["--checkpoint-every", "1"])
            .args(["--journal", journal.to_str().unwrap()])
            .args(["--metrics-out", metrics.to_str().unwrap()]);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().expect("spawn");
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read(journal).unwrap(),
            std::fs::read(metrics).unwrap(),
        )
    };
    let clean = run("clean", false);
    std::fs::copy(golden, dir.join("resumed.jsonl")).unwrap();
    assert_eq!(run("resumed", true), clean, "resumed journal and metrics");

    let compacted = dir.join("compacted.jsonl");
    std::fs::copy(golden, &compacted).unwrap();
    let compact = |path: &Path| -> String {
        let out = tool()
            .args(["journal", "compact", path.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let report = compact(&compacted);
    assert!(report.contains("kept 3 records"), "{report}");
    assert!(report.contains("one torn tail"), "{report}");
    let text = std::fs::read_to_string(&compacted).unwrap();
    assert!(!text.contains("c2ckpt"), "{text}");
    assert_eq!(text.lines().count(), 4, "header and three records: {text}");
    let again = compact(&compacted);
    assert!(!again.contains("torn"), "{again}");
    assert_eq!(std::fs::read_to_string(&compacted).unwrap(), text);
    let _ = std::fs::remove_dir_all(&dir);
}
