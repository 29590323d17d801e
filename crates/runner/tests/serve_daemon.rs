//! Integration suite for the DSE-as-a-service daemon (`serve`).
//!
//! Every test drives a real [`Daemon`] over a real TCP socket with a
//! synthetic [`ScenarioExecutor`] that still runs the genuine sharded
//! `SweepRunner` (journal, cache, metrics and all) — so the properties
//! proven here are the service-layer halves of the engine's own
//! guarantees:
//!
//! * a served job's journal and metrics are **byte-identical** to the
//!   same configuration run directly (no daemon fingerprint leaks into
//!   the artifacts);
//! * overload sheds **deterministically**: for a fixed submission
//!   order, the accept/shed sequence and every `Retry-After` value are
//!   identical across daemon incarnations;
//! * per-tenant breakers trip on failing jobs and recover through a
//!   half-open probe, without touching other tenants;
//! * malformed, oversized, silent, and panicking clients cost one
//!   connection each, never the daemon;
//! * a panicking job is quarantined (outcome file written, so resume
//!   skips it) while the daemon keeps serving;
//! * drain leaves queued jobs durable, and `resume` completes them
//!   bit-identically — including a job whose first attempt was killed
//!   by armed chaos (the crash-matrix property, through the daemon).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use c2_bound::aps::Aps;
use c2_bound::dse::{DesignPoint, DesignSpace};
use c2_bound::C2BoundModel;
use c2_config::Scenario;
use c2_obs::{MetricsSink, Recorder};
use c2_runner::serve::protocol::http_call;
use c2_runner::serve::DrainControl;
use c2_runner::{
    Daemon, InjectedOracle, RunConfig, RunSummary, ScenarioExecutor, ServeOptions, ServePolicy,
    ServeReport, SweepRunner,
};
use c2_sim::{FaultPlan, OracleHang};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("c2-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn aps() -> Aps {
    Aps::new(C2BoundModel::example_big_data(), DesignSpace::tiny())
}

fn pricer(p: &DesignPoint) -> c2_bound::Result<f64> {
    Ok(1.0e9 / (p.n as f64 * p.issue_width as f64 * p.rob_size as f64))
}

/// A scenario distinguished by workload name/size (distinct
/// fingerprints); everything else stays at the defaults.
fn scenario(name: &str, size: u64) -> Scenario {
    let mut sc = Scenario::default();
    sc.workload.name = name.to_string();
    sc.workload.size = size;
    sc
}

/// The executor all serve tests share: ignores the scenario's workload
/// (the tiny APS plan keeps runs fast) but honors the engine `config`
/// the daemon built — journal path, shared cache, chaos, fingerprint
/// binding — so the artifacts are real engine artifacts.
struct SyntheticExecutor;

impl ScenarioExecutor for SyntheticExecutor {
    fn execute(
        &self,
        _scenario: &Scenario,
        config: RunConfig,
        journal: &Path,
        resume: bool,
        sink: &dyn MetricsSink,
        ops: &dyn MetricsSink,
    ) -> c2_runner::Result<RunSummary> {
        let runner = SweepRunner::new(config)?;
        runner.run_aps_full(&aps(), || pricer, Some(journal), resume, sink, ops)
    }
}

/// Wraps [`SyntheticExecutor`] behind a gate: `execute` announces
/// itself (so tests can wait until a job is definitely in flight,
/// i.e. popped from the queue) and then blocks until released.
struct GatedExecutor {
    started: Arc<(Mutex<usize>, Condvar)>,
    release: Arc<(Mutex<bool>, Condvar)>,
}

impl GatedExecutor {
    fn new() -> Self {
        GatedExecutor {
            started: Arc::new((Mutex::new(0), Condvar::new())),
            release: Arc::new((Mutex::new(false), Condvar::new())),
        }
    }

    fn wait_started(&self, count: usize) {
        let (lock, cond) = &*self.started;
        let mut started = lock.lock().unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while *started < count {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "executor never started job {count}");
            let (next, _) = cond.wait_timeout(started, left).unwrap();
            started = next;
        }
    }

    fn release(&self) {
        let (lock, cond) = &*self.release;
        *lock.lock().unwrap() = true;
        cond.notify_all();
    }
}

impl ScenarioExecutor for GatedExecutor {
    fn execute(
        &self,
        scenario: &Scenario,
        config: RunConfig,
        journal: &Path,
        resume: bool,
        sink: &dyn MetricsSink,
        ops: &dyn MetricsSink,
    ) -> c2_runner::Result<RunSummary> {
        {
            let (lock, cond) = &*self.started;
            *lock.lock().unwrap() += 1;
            cond.notify_all();
        }
        {
            let (lock, cond) = &*self.release;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cond.wait(open).unwrap();
            }
        }
        SyntheticExecutor.execute(scenario, config, journal, resume, sink, ops)
    }
}

/// Fails jobs whose workload is `spmv`, panics on `fft`, succeeds
/// otherwise — scenario-addressable misbehavior for breaker and
/// quarantine tests.
struct MoodyExecutor;

impl ScenarioExecutor for MoodyExecutor {
    fn execute(
        &self,
        scenario: &Scenario,
        config: RunConfig,
        journal: &Path,
        resume: bool,
        sink: &dyn MetricsSink,
        ops: &dyn MetricsSink,
    ) -> c2_runner::Result<RunSummary> {
        match scenario.workload.name.as_str() {
            "spmv" => Err(c2_runner::Error::Io("injected job failure".into())),
            "fft" => panic!("injected executor panic"),
            _ => SyntheticExecutor.execute(scenario, config, journal, resume, sink, ops),
        }
    }
}

/// Prices through [`InjectedOracle`] with a keyed 250 ms stall on
/// every 4th job key (keys 3 and 7 of the tiny plan), so a scenario's
/// `runner.deadline_ms` decides whether those attempts time out.
struct HangingExecutor;

impl ScenarioExecutor for HangingExecutor {
    fn execute(
        &self,
        _scenario: &Scenario,
        config: RunConfig,
        journal: &Path,
        resume: bool,
        sink: &dyn MetricsSink,
        ops: &dyn MetricsSink,
    ) -> c2_runner::Result<RunSummary> {
        let faults = FaultPlan {
            oracle_hang: Some(OracleHang {
                period: 4,
                stall_ms: 250,
            }),
            ..FaultPlan::default()
        };
        let runner = SweepRunner::new(config)?;
        runner.run_aps_full(
            &aps(),
            || InjectedOracle::new(faults, pricer).unwrap(),
            Some(journal),
            resume,
            sink,
            ops,
        )
    }
}

fn spawn_daemon<E: ScenarioExecutor + Send + Sync + 'static>(
    options: ServeOptions,
    executor: Arc<E>,
) -> (String, DrainControl, std::thread::JoinHandle<ServeReport>) {
    let mut daemon = Daemon::bind(options).expect("bind daemon");
    let addr = daemon.local_addr().to_string();
    let drain = daemon.drain_control();
    let handle = std::thread::spawn(move || daemon.run(&*executor).expect("daemon run"));
    (addr, drain, handle)
}

fn call(
    addr: &str,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> (u16, Vec<(String, String)>, String) {
    let (status, headers, body) =
        http_call(addr, method, target, headers, body, 10_000).expect("http call");
    (status, headers, String::from_utf8_lossy(&body).into_owned())
}

/// Submit a scenario; returns (status, job id if admitted,
/// Retry-After seconds if present).
fn submit(addr: &str, tenant: &str, sc: &Scenario) -> (u16, Option<String>, Option<String>) {
    let (status, headers, body) = call(
        addr,
        "POST",
        "/submit",
        &[("X-Tenant", tenant)],
        sc.render_pretty().as_bytes(),
    );
    let job = body
        .split("\"job\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .map(str::to_string);
    let retry = headers
        .iter()
        .find(|(k, _)| k == "retry-after")
        .map(|(_, v)| v.clone());
    (status, job, retry)
}

fn job_state(addr: &str, job: &str) -> String {
    let (status, _, body) = call(addr, "GET", &format!("/status/{job}"), &[], b"");
    assert_eq!(status, 200, "status poll for {job}: {body}");
    body.split("\"state\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_default()
        .to_string()
}

fn wait_terminal(addr: &str, job: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = job_state(addr, job);
        if matches!(state.as_str(), "completed" | "failed" | "quarantined") {
            return state;
        }
        assert!(
            Instant::now() < deadline,
            "{job} never reached a terminal state"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn shutdown(addr: &str) {
    let (status, _, _) = call(addr, "POST", "/shutdown", &[], b"");
    assert_eq!(status, 200);
}

/// The one-shot twin of the daemon's engine configuration for `sc`.
fn oneshot_config(sc: &Scenario, cache: &Path) -> RunConfig {
    let mut config = RunConfig::from_spec(&sc.runner).expect("runner spec");
    config.cache_path = Some(cache.to_path_buf());
    config.with_scenario(sc.fingerprint())
}

/// Run `sc` directly (no daemon) against a fresh cache; returns the
/// journal bytes and the metrics report bytes.
fn oneshot_artifacts(dir: &Path, tag: &str, sc: &Scenario) -> (Vec<u8>, String) {
    let journal = dir.join(format!("{tag}.journal.jsonl"));
    let cache = dir.join(format!("{tag}.cache.jsonl"));
    let recorder = Recorder::new();
    let ops = Recorder::new();
    let summary = SyntheticExecutor
        .execute(
            sc,
            oneshot_config(sc, &cache),
            &journal,
            false,
            &recorder,
            &ops,
        )
        .expect("one-shot run");
    assert!(summary.outcome.is_some());
    (
        std::fs::read(&journal).expect("one-shot journal"),
        recorder.report().to_json(),
    )
}

fn assert_job_bit_identical(serve_dir: &Path, job: &str, oneshot: &(Vec<u8>, String)) {
    let journal =
        std::fs::read(serve_dir.join(format!("{job}.journal.jsonl"))).expect("served journal");
    let metrics = std::fs::read_to_string(serve_dir.join(format!("{job}.metrics.json")))
        .expect("served metrics");
    assert_eq!(
        journal, oneshot.0,
        "{job}: served journal differs from the one-shot run"
    );
    assert_eq!(
        metrics, oneshot.1,
        "{job}: served metrics differ from the one-shot run"
    );
}

// ---------------------------------------------------------------------------

#[test]
fn served_jobs_are_bit_identical_to_oneshot_runs() {
    let dir = scratch_dir("identity");
    let serve_dir = dir.join("jobs");
    let options = ServeOptions {
        cache_path: Some(dir.join("shared-cache.jsonl")),
        ..ServeOptions::new("127.0.0.1:0", &serve_dir)
    };
    let (addr, _, handle) = spawn_daemon(options, Arc::new(SyntheticExecutor));

    // Two tenants, two distinct scenarios, one shared cache.
    let sc_a = scenario("stencil", 16);
    let sc_b = scenario("tmm", 24);
    let (status, job_a, _) = submit(&addr, "alice", &sc_a);
    assert_eq!(status, 202);
    let (status, job_b, _) = submit(&addr, "bob", &sc_b);
    assert_eq!(status, 202);
    let (job_a, job_b) = (job_a.unwrap(), job_b.unwrap());
    assert_eq!(wait_terminal(&addr, &job_a), "completed");
    assert_eq!(wait_terminal(&addr, &job_b), "completed");

    // The daemon also answers a whole-table status and /metrics.
    let (status, _, body) = call(&addr, "GET", "/status", &[], b"");
    assert_eq!(status, 200);
    assert!(body.contains(&job_a) && body.contains(&job_b), "{body}");
    let (status, _, prom) = call(&addr, "GET", "/metrics", &[], b"");
    assert_eq!(status, 200);
    assert!(prom.contains("serve_jobs_completed_total"), "{prom}");

    shutdown(&addr);
    let report = handle.join().unwrap();
    assert_eq!(report.completed, 2);
    assert_eq!(report.failed + report.quarantined + report.shed, 0);

    // Outcome files mark both jobs terminal.
    for job in [&job_a, &job_b] {
        let outcome = std::fs::read_to_string(serve_dir.join(format!("{job}.outcome.json")))
            .expect("outcome file");
        assert!(outcome.contains("\"state\":\"completed\""), "{outcome}");
    }

    // Byte-for-byte identity against direct runs with fresh caches:
    // the shared daemon cache must not leak into per-run artifacts.
    assert_job_bit_identical(&serve_dir, &job_a, &oneshot_artifacts(&dir, "a", &sc_a));
    assert_job_bit_identical(&serve_dir, &job_b, &oneshot_artifacts(&dir, "b", &sc_b));
}

/// One overload round against a fresh daemon; returns the
/// (status, Retry-After) sequence observed.
fn overload_round(dir: &Path) -> Vec<(u16, Option<String>)> {
    let gate = Arc::new(GatedExecutor::new());
    let options = ServeOptions {
        policy: ServePolicy {
            executors: 1,
            queue_depth: 2,
            per_client_budget: 2,
            ..ServePolicy::default()
        },
        ..ServeOptions::new("127.0.0.1:0", dir)
    };
    let (addr, _, handle) = spawn_daemon(options, Arc::clone(&gate));

    let sc = scenario("stencil", 16);
    let mut verdicts = Vec::new();
    // s1 admitted; wait until the executor holds it (queue is empty
    // again) so the remaining arrival order is fully deterministic.
    let (status, _, retry) = submit(&addr, "alice", &sc);
    verdicts.push((status, retry));
    gate.wait_started(1);
    // s2 queued (alice: budget 2/2). s3 over budget. s4 from bob fills
    // the queue. s5/s6 find it full.
    for tenant in ["alice", "alice", "bob", "bob", "bob"] {
        let (status, _, retry) = submit(&addr, tenant, &sc);
        verdicts.push((status, retry));
    }
    gate.release();
    shutdown(&addr);
    let report = handle.join().unwrap();
    assert_eq!(report.admitted, 3);
    assert_eq!(report.shed, 3);
    verdicts
}

#[test]
fn overload_sheds_deterministically_and_never_deadlocks() {
    let dir = scratch_dir("overload");
    let first = overload_round(&dir.join("round1"));
    let statuses: Vec<u16> = first.iter().map(|(s, _)| *s).collect();
    assert_eq!(statuses, vec![202, 202, 429, 202, 429, 429], "{first:?}");
    // Every shed carries a Retry-After.
    for (status, retry) in &first {
        assert_eq!(*status == 429, retry.is_some(), "{first:?}");
    }
    // A second daemon incarnation sheds the identical sequence with
    // identical Retry-After values: deterministic, seed-jittered.
    let second = overload_round(&dir.join("round2"));
    assert_eq!(first, second);
}

#[test]
fn a_failing_tenant_trips_its_breaker_and_recovers_without_collateral() {
    let dir = scratch_dir("breaker");
    let options = ServeOptions {
        policy: ServePolicy {
            executors: 1,
            per_client_budget: 8,
            ..ServePolicy::default()
        },
        ..ServeOptions::new("127.0.0.1:0", dir.join("jobs"))
    };
    // Default breaker: trip after 3 failures, cooldown 4, 1 probe.
    let (addr, _, handle) = spawn_daemon(options, Arc::new(MoodyExecutor));

    let failing = scenario("spmv", 16);
    let good = scenario("stencil", 16);
    for _ in 0..3 {
        let (status, job, _) = submit(&addr, "alice", &failing);
        assert_eq!(status, 202);
        assert_eq!(wait_terminal(&addr, &job.unwrap()), "failed");
    }
    // Tripped: the next 4 submissions shed as breaker-open (503),
    // regardless of what they contain.
    for i in 0..4 {
        let (status, _, retry) = submit(&addr, "alice", &good);
        assert_eq!(status, 503, "submission {i} after trip");
        assert!(retry.is_some());
    }
    // Another tenant is untouched throughout.
    let (status, job, _) = submit(&addr, "bob", &good);
    assert_eq!(status, 202);
    assert_eq!(wait_terminal(&addr, &job.unwrap()), "completed");
    // Cooldown spent: the half-open probe admits, and its success
    // closes the breaker for good.
    let (status, job, _) = submit(&addr, "alice", &good);
    assert_eq!(status, 202, "half-open probe");
    assert_eq!(wait_terminal(&addr, &job.unwrap()), "completed");
    let (status, job, _) = submit(&addr, "alice", &good);
    assert_eq!(status, 202, "closed again");
    assert_eq!(wait_terminal(&addr, &job.unwrap()), "completed");

    shutdown(&addr);
    let report = handle.join().unwrap();
    assert_eq!(report.failed, 3);
    assert_eq!(report.shed, 4);
}

#[test]
fn hostile_clients_cost_a_connection_not_the_daemon() {
    use std::io::{Read, Write};

    let dir = scratch_dir("hostile");
    let options = ServeOptions {
        policy: ServePolicy {
            read_timeout_ms: 200,
            max_body_bytes: 4 * 1024,
            ..ServePolicy::default()
        },
        ..ServeOptions::new("127.0.0.1:0", dir.join("jobs"))
    };
    let (addr, _, handle) = spawn_daemon(options, Arc::new(SyntheticExecutor));
    let sock_addr: std::net::SocketAddr = addr.parse().unwrap();

    let raw_response = |payload: &[u8]| -> String {
        let mut s = std::net::TcpStream::connect(sock_addr).unwrap();
        s.write_all(payload).unwrap();
        let mut out = String::new();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = s.read_to_string(&mut out);
        out
    };

    // Malformed framing → 400.
    let got = raw_response(b"EXPLODE /please SPDY/9\r\n\r\n");
    assert!(got.starts_with("HTTP/1.1 400"), "{got}");
    // Declared body over the cap → 413 before any buffering.
    let got = raw_response(b"POST /submit HTTP/1.1\r\nContent-Length: 999999\r\n\r\n");
    assert!(got.starts_with("HTTP/1.1 413"), "{got}");
    // Slow-loris: a partial header then silence → 408 at the deadline.
    let got = {
        let mut s = std::net::TcpStream::connect(sock_addr).unwrap();
        s.write_all(b"GET /status HTT").unwrap();
        std::thread::sleep(Duration::from_millis(400));
        let mut out = String::new();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = s.read_to_string(&mut out);
        out
    };
    assert!(got.starts_with("HTTP/1.1 408"), "{got:?}");
    // Unknown endpoint and wrong method are typed, not fatal.
    assert_eq!(call(&addr, "GET", "/teapot", &[], b"").0, 404);
    assert_eq!(call(&addr, "GET", "/submit", &[], b"").0, 405);
    // Invalid scenario document → 422 with the typed error.
    let (status, _, body) = call(&addr, "POST", "/submit", &[], b"{\"version\": 99}");
    assert_eq!(status, 422, "{body}");

    // After all that abuse, the daemon still serves real work.
    let (status, job, _) = submit(&addr, "alice", &scenario("stencil", 16));
    assert_eq!(status, 202);
    assert_eq!(wait_terminal(&addr, &job.unwrap()), "completed");

    shutdown(&addr);
    let report = handle.join().unwrap();
    assert_eq!(report.completed, 1);
}

/// One-shot artifacts of [`HangingExecutor`] for `sc` (fresh cache).
fn hanging_oneshot_artifacts(dir: &Path, tag: &str, sc: &Scenario) -> (Vec<u8>, String) {
    let journal = dir.join(format!("{tag}.journal.jsonl"));
    let cache = dir.join(format!("{tag}.cache.jsonl"));
    let recorder = Recorder::new();
    HangingExecutor
        .execute(
            sc,
            oneshot_config(sc, &cache),
            &journal,
            false,
            &recorder,
            &Recorder::new(),
        )
        .expect("one-shot run");
    (
        std::fs::read(&journal).expect("one-shot journal"),
        recorder.report().to_json(),
    )
}

#[test]
fn served_jobs_enforce_the_scenario_deadline() {
    let dir = scratch_dir("deadline");
    let serve_dir = dir.join("jobs");
    let options = ServeOptions {
        cache_path: Some(dir.join("shared-cache.jsonl")),
        ..ServeOptions::new("127.0.0.1:0", &serve_dir)
    };
    let (addr, _, handle) = spawn_daemon(options, Arc::new(HangingExecutor));

    // A 40 ms deadline against 250 ms stalls: both attempts of each
    // hung job are discarded, and the job is backfilled.
    let mut tight = scenario("stencil", 16);
    tight.runner.deadline_ms = 40;
    tight.runner.max_attempts = 2;
    let (status, job, _) = submit(&addr, "alice", &tight);
    assert_eq!(status, 202);
    let job = job.unwrap();
    assert_eq!(wait_terminal(&addr, &job), "completed");
    let records = c2_runner::journal::load(&serve_dir.join(format!("{job}.journal.jsonl")))
        .expect("served journal")
        .records;
    for r in &records {
        let hung = r.seq % 4 == 3;
        assert_eq!(r.timeouts, if hung { 2 } else { 0 }, "seq {}", r.seq);
        assert_eq!(r.result.is_err(), hung, "seq {}", r.seq);
    }
    let metrics =
        std::fs::read_to_string(serve_dir.join(format!("{job}.metrics.json"))).expect("metrics");
    let registry = c2_obs::Report::from_json(&metrics).unwrap().registry;
    assert_eq!(registry.counter("engine_timeouts_total"), 4);
    assert_eq!(registry.counter("aps_backfill_total"), 2);

    // The daemon keeps serving: the default 60 s deadline lets the
    // same stalls finish.
    let (status, relaxed, _) = submit(&addr, "alice", &scenario("tmm", 24));
    assert_eq!(status, 202);
    let relaxed = relaxed.unwrap();
    assert_eq!(wait_terminal(&addr, &relaxed), "completed");
    let records = c2_runner::journal::load(&serve_dir.join(format!("{relaxed}.journal.jsonl")))
        .expect("served journal")
        .records;
    assert!(records.iter().all(|r| r.timeouts == 0 && r.result.is_ok()));
    shutdown(&addr);
    let report = handle.join().unwrap();
    assert_eq!(report.completed, 2);

    // The deadline decision is journaled, so a one-shot run of the
    // same config writes the same bytes.
    assert_job_bit_identical(
        &serve_dir,
        &job,
        &hanging_oneshot_artifacts(&dir, "tight", &tight),
    );
}

#[test]
fn a_panicking_job_is_quarantined_and_skipped_by_resume() {
    let dir = scratch_dir("quarantine");
    let serve_dir = dir.join("jobs");
    let options = ServeOptions::new("127.0.0.1:0", &serve_dir);
    let (addr, _, handle) = spawn_daemon(options, Arc::new(MoodyExecutor));

    let (status, job, _) = submit(&addr, "alice", &scenario("fft", 16));
    assert_eq!(status, 202);
    let job = job.unwrap();
    assert_eq!(wait_terminal(&addr, &job), "quarantined");
    // The daemon survived and still completes honest work.
    let (status, good, _) = submit(&addr, "alice", &scenario("stencil", 16));
    assert_eq!(status, 202);
    assert_eq!(wait_terminal(&addr, &good.unwrap()), "completed");
    // The status detail carries the panic message.
    let (_, _, detail) = call(&addr, "GET", &format!("/status/{job}"), &[], b"");
    assert!(detail.contains("injected executor panic"), "{detail}");
    shutdown(&addr);
    let report = handle.join().unwrap();
    assert_eq!(report.quarantined, 1);
    assert_eq!(report.completed, 1);

    // The quarantine outcome file makes the job terminal on disk: a
    // resume daemon must NOT re-admit it (a panicking job would
    // otherwise wedge every subsequent resume).
    let outcome = std::fs::read_to_string(serve_dir.join(format!("{job}.outcome.json")))
        .expect("quarantine outcome");
    assert!(outcome.contains("\"state\":\"quarantined\""), "{outcome}");
    let resume_options = ServeOptions {
        resume: true,
        drain_on_idle: true,
        ..ServeOptions::new("127.0.0.1:0", &serve_dir)
    };
    let (_, _, handle) = spawn_daemon(resume_options, Arc::new(MoodyExecutor));
    let report = handle.join().unwrap();
    assert_eq!(report.resumed, 0, "terminal jobs must not be re-admitted");
}

#[test]
fn drain_preserves_queued_jobs_and_resume_completes_them_bit_identically() {
    let dir = scratch_dir("drain");
    let serve_dir = dir.join("jobs");
    let cache = dir.join("shared-cache.jsonl");
    let gate = Arc::new(GatedExecutor::new());
    let options = ServeOptions {
        cache_path: Some(cache.clone()),
        policy: ServePolicy {
            executors: 1,
            ..ServePolicy::default()
        },
        ..ServeOptions::new("127.0.0.1:0", &serve_dir)
    };
    let (addr, _, handle) = spawn_daemon(options, Arc::clone(&gate));

    // Two distinct scenarios so the shared cache cannot cross-serve
    // between them (each run's identity addresses its own entries).
    let sc_1 = scenario("stencil", 16);
    let sc_2 = scenario("tmm", 24);
    let (status, job_1, _) = submit(&addr, "alice", &sc_1);
    assert_eq!(status, 202);
    let job_1 = job_1.unwrap();
    gate.wait_started(1);
    let (status, job_2, _) = submit(&addr, "alice", &sc_2);
    assert_eq!(status, 202);
    let job_2 = job_2.unwrap();

    // A straggler connects *before* the drain (so the accept loop has
    // already handed it to a handler) but only finishes its submission
    // afterwards: it must see the draining refusal, not an admission.
    use std::io::{Read, Write};
    let sock_addr: std::net::SocketAddr = addr.parse().unwrap();
    let mut straggler = std::net::TcpStream::connect(sock_addr).unwrap();
    straggler.write_all(b"POST /submit HTTP/1.1\r\n").unwrap();

    // Drain while job 1 is in flight and job 2 is queued.
    shutdown(&addr);
    let body = sc_1.render_pretty();
    straggler
        .write_all(
            format!(
                "X-Tenant: bob\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    straggler
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut refusal = String::new();
    let _ = straggler.read_to_string(&mut refusal);
    assert!(
        refusal.starts_with("HTTP/1.1 503"),
        "draining daemon must not admit: {refusal:?}"
    );
    gate.release();
    let report = handle.join().unwrap();
    assert_eq!(report.completed, 1, "in-flight job finishes during drain");
    assert_eq!(report.pending_at_drain, 1, "queued job stays behind");
    assert!(
        serve_dir.join(format!("{job_2}.scenario.json")).exists(),
        "queued job is durable"
    );
    assert!(
        !serve_dir.join(format!("{job_2}.outcome.json")).exists(),
        "queued job is not terminal"
    );

    // Resume: a fresh daemon re-admits exactly the pending job under
    // its original id, completes it, and drains itself on idle.
    let resume_options = ServeOptions {
        cache_path: Some(cache),
        resume: true,
        drain_on_idle: true,
        ..ServeOptions::new("127.0.0.1:0", &serve_dir)
    };
    let (_, _, handle) = spawn_daemon(resume_options, Arc::new(SyntheticExecutor));
    let report = handle.join().unwrap();
    assert_eq!(report.resumed, 1);
    assert_eq!(report.completed, 1);

    // Both jobs' artifacts are byte-identical to direct runs — the
    // drain/resume cycle and the shared cache left no trace.
    assert_job_bit_identical(&serve_dir, &job_1, &oneshot_artifacts(&dir, "d1", &sc_1));
    assert_job_bit_identical(&serve_dir, &job_2, &oneshot_artifacts(&dir, "d2", &sc_2));
}

#[test]
fn chaos_under_serve_crashes_one_job_and_resume_restores_bit_identity() {
    let dir = scratch_dir("chaos");
    let serve_dir = dir.join("jobs");
    let options = ServeOptions {
        cache_path: Some(dir.join("shared-cache.jsonl")),
        ..ServeOptions::new("127.0.0.1:0", &serve_dir)
    };
    let (addr, _, handle) = spawn_daemon(options, Arc::new(SyntheticExecutor));

    // Alice's scenario arms deterministic chaos: the run's 5th storage
    // write is a simulated torn-prefix crash. The daemon must treat
    // the killed sweep as a failed-but-resumable job, not die with it.
    let mut chaotic = scenario("stencil", 16);
    chaotic.runner.chaos = Some(c2_config::ChaosSpec {
        crash_at_write: Some(5),
        ..c2_config::ChaosSpec::default()
    });
    let (status, job, _) = submit(&addr, "alice", &chaotic);
    assert_eq!(status, 202);
    let job = job.unwrap();
    assert_eq!(wait_terminal(&addr, &job), "failed");
    assert!(
        !serve_dir.join(format!("{job}.outcome.json")).exists(),
        "a crashed job must stay resumable"
    );
    // An innocent bystander completes on the same daemon afterwards.
    let (status, other, _) = submit(&addr, "bob", &scenario("tmm", 24));
    assert_eq!(status, 202);
    assert_eq!(wait_terminal(&addr, &other.unwrap()), "completed");
    shutdown(&addr);
    let report = handle.join().unwrap();
    assert_eq!(report.failed, 1);
    assert_eq!(report.completed, 1);

    // Operator action: disarm chaos in the durable artifact (chaos is
    // operational, so the scenario fingerprint — and with it the
    // journal binding — is unchanged), then resume.
    let disarmed = scenario("stencil", 16);
    assert_eq!(disarmed.fingerprint(), chaotic.fingerprint());
    std::fs::write(
        serve_dir.join(format!("{job}.scenario.json")),
        disarmed.render_pretty(),
    )
    .unwrap();
    let resume_options = ServeOptions {
        cache_path: Some(dir.join("shared-cache.jsonl")),
        resume: true,
        drain_on_idle: true,
        ..ServeOptions::new("127.0.0.1:0", &serve_dir)
    };
    let (_, _, handle) = spawn_daemon(resume_options, Arc::new(SyntheticExecutor));
    let report = handle.join().unwrap();
    assert_eq!(report.resumed, 1);
    assert_eq!(report.completed, 1);

    // The crash-matrix invariant, through the service layer: the
    // crashed-then-resumed job's journal and metrics are byte-equal
    // to a run that never crashed.
    assert_job_bit_identical(
        &serve_dir,
        &job,
        &oneshot_artifacts(&dir, "clean", &disarmed),
    );
}
