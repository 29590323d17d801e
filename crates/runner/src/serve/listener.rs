//! The daemon: accept loop, executor pool, durable job artifacts, and
//! graceful drain.
//!
//! One [`Daemon`] owns a `TcpListener`, a bounded [`JobQueue`], an
//! [`AdmissionPolicy`], and an artifact directory. The flow of a
//! submission:
//!
//! 1. a connection handler (one scoped thread per connection, wrapped
//!    in `catch_unwind`) parses the request under the read deadline
//!    and body cap;
//! 2. `POST /submit` parses and validates the scenario (422 on any
//!    typed config error), then takes the admission lock: verdicts
//!    are serialized, so for a fixed arrival order the accept/shed
//!    sequence is deterministic;
//! 3. an admitted job is made **durable before the 202 goes out**:
//!    `<id>.scenario.json` and `<id>.meta.json` are written first, so
//!    a crash or drain at any later point leaves the job resumable;
//! 4. an executor thread pops the job and runs it through the exact
//!    one-shot engine path — `RunConfig::from_spec(scenario.runner)`
//!    with the daemon's shared cache and the scenario fingerprint
//!    bound in — journaling to `<id>.journal.jsonl` and recording
//!    main-sink metrics to a per-job recorder;
//! 5. completion writes `<id>.metrics.json` and then (atomically, via
//!    tmp+rename) `<id>.outcome.json`, whose existence marks the job
//!    terminal. Failed jobs write **no** outcome file: their journal
//!    makes them resumable, by `serve --resume` or one-shot
//!    `run --resume`.
//!
//! Drain (SIGTERM, `POST /shutdown`, or `--drain-on-idle`) stops
//! admitting, lets in-flight jobs finish, leaves queued jobs durable
//! on disk, and returns from [`Daemon::run`] with a [`ServeReport`].

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use c2_config::{Json, Scenario};
use c2_obs::{names, MetricsSink, Recorder};

use super::admission::{AdmissionPolicy, ShedCause, Verdict};
use super::drain::{install_sigterm_handler, sigterm_seen, DrainControl};
use super::protocol::{read_request, ProtocolError, Request, Response};
use super::queue::JobQueue;
use super::ServePolicy;
use crate::engine::{panic_message, RunConfig, RunSummary};
use crate::{Error, Result};

/// How an admitted scenario is actually executed. The daemon is
/// pipeline-agnostic: the binary supplies the real
/// workload→characterize→APS→`SweepRunner` pipeline, tests supply a
/// synthetic executor that still drives the real engine.
///
/// Implementations must route run metrics to `sink` (the per-job
/// main recorder whose report becomes `<id>.metrics.json`) and
/// operational metrics to `ops` (the daemon-wide ops sink) — exactly
/// the split `SweepRunner::run_aps_full` already makes.
pub trait ScenarioExecutor: Sync {
    /// Run `scenario` under `config`, journaling to `journal`.
    fn execute(
        &self,
        scenario: &Scenario,
        config: RunConfig,
        journal: &Path,
        resume: bool,
        sink: &dyn MetricsSink,
        ops: &dyn MetricsSink,
    ) -> Result<RunSummary>;
}

/// Daemon construction options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Artifact directory: per-job scenario/meta/journal/metrics/
    /// outcome files live here. Created if missing.
    pub dir: PathBuf,
    /// Shared content-addressed evaluation cache for all admitted
    /// runs; `None` disables memoization. Safe to share across
    /// tenants and scenarios: cache addresses embed each run's
    /// identity fingerprint, so foreign entries can only miss.
    pub cache_path: Option<PathBuf>,
    /// Admission/queue/timeout policy.
    pub policy: ServePolicy,
    /// Re-admit jobs from a previous daemon's artifact directory
    /// (any `<id>.scenario.json` without an `<id>.outcome.json`).
    pub resume: bool,
    /// Initiate a drain as soon as no job is queued or running.
    /// Meant for batch resume (`serve --resume --drain-on-idle` in
    /// CI): the daemon finishes the backlog and exits 0 by itself.
    pub drain_on_idle: bool,
    /// Install a SIGTERM handler that initiates a graceful drain.
    pub watch_sigterm: bool,
}

impl ServeOptions {
    /// Options with the default policy, no cache, no resume.
    pub fn new(addr: impl Into<String>, dir: impl Into<PathBuf>) -> Self {
        ServeOptions {
            addr: addr.into(),
            dir: dir.into(),
            cache_path: None,
            policy: ServePolicy::default(),
            resume: false,
            drain_on_idle: false,
            watch_sigterm: false,
        }
    }
}

/// Lifecycle of one admitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Durable on disk, waiting for an executor.
    Queued,
    /// An executor is running it.
    Running,
    /// Ran to a completed sweep; outcome file written.
    Completed,
    /// Terminated with a typed error (message attached). No outcome
    /// file is written, so the job stays resumable.
    Failed(String),
    /// Execution panicked; quarantined (outcome file written so a
    /// resume does not re-run a panicking job).
    Quarantined(String),
}

impl JobState {
    /// Stable wire label for status responses.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed(_) => "failed",
            JobState::Quarantined(_) => "quarantined",
        }
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed(_) | JobState::Quarantined(_)
        )
    }
}

/// What the daemon did over its lifetime, returned by [`Daemon::run`]
/// after the drain completes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Submissions admitted (including re-admissions via `--resume`).
    pub admitted: usize,
    /// Jobs re-admitted from a previous daemon's artifacts.
    pub resumed: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Jobs that terminated with a typed error (left resumable).
    pub failed: usize,
    /// Jobs quarantined after a panic.
    pub quarantined: usize,
    /// Submissions shed by admission control.
    pub shed: usize,
    /// Jobs still queued (never started) when the drain finished;
    /// durable on disk for the next `--resume`.
    pub pending_at_drain: usize,
}

/// One queued unit of work.
#[derive(Debug)]
struct Job {
    id: String,
    tenant: String,
    scenario: Scenario,
}

struct JobEntry {
    tenant: String,
    state: JobState,
}

struct Shared {
    options: ServeOptions,
    admission: Mutex<AdmissionPolicy>,
    queue: JobQueue<Job>,
    jobs: Mutex<BTreeMap<String, JobEntry>>,
    next_seq: AtomicU64,
    drain: DrainControl,
    /// The daemon's ops metrics, and the tally [`ServeReport`] reads.
    ops: Recorder,
    local_addr: std::net::SocketAddr,
}

/// The DSE-as-a-service daemon behind `c2bound-tool serve`.
pub struct Daemon {
    listener: TcpListener,
    shared: Shared,
    backlog: Vec<Job>,
}

impl Daemon {
    /// Bind the listener, create the artifact directory, and (when
    /// `options.resume`) collect the previous daemon's unfinished
    /// jobs. Does not accept connections yet — call [`run`](Self::run).
    pub fn bind(options: ServeOptions) -> Result<Daemon> {
        options.policy.validate()?;
        std::fs::create_dir_all(&options.dir)
            .map_err(|e| Error::Io(format!("{}: {e}", options.dir.display())))?;
        let listener = TcpListener::bind(&options.addr)
            .map_err(|e| Error::Io(format!("bind {}: {e}", options.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| Error::Io(format!("local_addr: {e}")))?;

        let (backlog, max_seq) = scan_artifacts(&options.dir)?;
        let backlog = if options.resume { backlog } else { Vec::new() };
        let admission = AdmissionPolicy::new(
            options.policy.per_client_budget,
            options.policy.queue_depth,
            options.policy.breaker,
            options.policy.shed_backoff,
        )?;
        // The backlog must always fit: resumed jobs were admitted by a
        // previous daemon and bypass the depth gate.
        let queue = JobQueue::new(options.policy.queue_depth.max(backlog.len()));
        Ok(Daemon {
            listener,
            shared: Shared {
                admission: Mutex::new(admission),
                queue,
                jobs: Mutex::new(BTreeMap::new()),
                next_seq: AtomicU64::new(max_seq + 1),
                drain: DrainControl::new(),
                ops: Recorder::new(),
                local_addr,
                options,
            },
            backlog,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.shared.local_addr
    }

    /// A handle on the drain latch, for embedding tests that want to
    /// initiate or observe a drain without going through the socket.
    pub fn drain_control(&self) -> DrainControl {
        self.shared.drain.clone()
    }

    /// Serve until drained: accept connections, execute admitted jobs
    /// through `executor`, and return the lifetime report once the
    /// drain (SIGTERM, `/shutdown`, drain-on-idle, or an external
    /// [`DrainControl::begin`]) has completed.
    pub fn run(&mut self, executor: &dyn ScenarioExecutor) -> Result<ServeReport> {
        let shared = &self.shared;
        if shared.options.watch_sigterm {
            install_sigterm_handler();
        }

        // Re-admit the backlog before anything else runs, so
        // drain-on-idle cannot fire between startup and the first
        // re-admission.
        for job in self.backlog.drain(..) {
            {
                let mut adm = shared.admission.lock().unwrap();
                adm.readmit(&job.tenant);
            }
            shared.jobs.lock().unwrap().insert(
                job.id.clone(),
                JobEntry {
                    tenant: job.tenant.clone(),
                    state: JobState::Queued,
                },
            );
            shared.ops.counter_add(names::SERVE_ADMITTED_TOTAL, 1);
            shared.ops.counter_add(names::SERVE_JOBS_RESUMED_TOTAL, 1);
            assert!(shared.queue.try_push(job), "backlog-sized queue");
        }
        shared
            .ops
            .gauge_set(names::SERVE_QUEUE_DEPTH, shared.queue.len() as f64);

        std::thread::scope(|scope| {
            for _ in 0..shared.options.policy.executors {
                scope.spawn(move || {
                    while let Some(job) = shared.queue.pop() {
                        shared
                            .ops
                            .gauge_set(names::SERVE_QUEUE_DEPTH, shared.queue.len() as f64);
                        run_job(shared, executor, job);
                    }
                });
            }

            scope.spawn(move || poller(shared));

            for stream in self.listener.incoming() {
                if shared.drain.is_draining() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                scope.spawn(move || {
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| handle_connection(shared, stream)));
                    if outcome.is_err() {
                        shared
                            .ops
                            .counter_add(names::SERVE_CONNECTIONS_PANICKED_TOTAL, 1);
                    }
                });
            }
        });

        let pending = {
            let jobs = self.shared.jobs.lock().unwrap();
            jobs.values().filter(|j| !j.state.is_terminal()).count()
        };
        self.shared
            .ops
            .gauge_set(names::SERVE_DRAIN_PENDING_JOBS, pending as f64);
        let ops = self.shared.ops.report();
        let count = |name| ops.registry.counter(name) as usize;
        Ok(ServeReport {
            admitted: count(names::SERVE_ADMITTED_TOTAL),
            resumed: count(names::SERVE_JOBS_RESUMED_TOTAL),
            completed: count(names::SERVE_JOBS_COMPLETED_TOTAL),
            failed: count(names::SERVE_JOBS_FAILED_TOTAL),
            quarantined: count(names::SERVE_JOBS_QUARANTINED_TOTAL),
            shed: [
                names::SERVE_SHED_QUEUE_FULL_TOTAL,
                names::SERVE_SHED_BUDGET_TOTAL,
                names::SERVE_SHED_BREAKER_TOTAL,
            ]
            .into_iter()
            .map(count)
            .sum(),
            pending_at_drain: pending,
        })
    }
}

/// Watch for drain triggers the socket cannot deliver: SIGTERM, an
/// external [`DrainControl`], and the drain-on-idle condition.
fn poller(shared: &Shared) {
    loop {
        if shared.drain.is_draining() {
            // Initiated elsewhere (e.g. /shutdown or an embedding
            // test's DrainControl): make sure queue and accept loop
            // both observe it.
            finish_drain(shared);
            return;
        }
        if sigterm_seen() {
            initiate_drain(shared);
            return;
        }
        if shared.options.drain_on_idle {
            let idle = shared
                .jobs
                .lock()
                .unwrap()
                .values()
                .all(|j| j.state.is_terminal());
            if idle {
                initiate_drain(shared);
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Flip the drain latch (counting the initiation), then propagate.
fn initiate_drain(shared: &Shared) {
    if shared.drain.begin() {
        shared.ops.counter_add(names::SERVE_DRAINS_TOTAL, 1);
    }
    finish_drain(shared);
}

/// Propagate an already-flipped latch: wake the executors and unblock
/// the accept loop with a throwaway self-connection.
fn finish_drain(shared: &Shared) {
    shared.queue.drain();
    let _ = TcpStream::connect(shared.local_addr);
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    shared.ops.counter_add(names::SERVE_CONNECTIONS_TOTAL, 1);
    let policy = &shared.options.policy;
    let request = match read_request(&mut stream, policy.read_timeout_ms, policy.max_body_bytes) {
        Ok(request) => request,
        Err(e) => {
            shared
                .ops
                .counter_add(names::SERVE_REQUESTS_REJECTED_TOTAL, 1);
            let response = match e {
                ProtocolError::Closed | ProtocolError::Io(_) => return,
                ProtocolError::Timeout => Response::text(408, "read deadline elapsed\n"),
                ProtocolError::TooLarge(what) => {
                    Response::text(413, format!("request too large: {what}\n"))
                }
                ProtocolError::Malformed(why) => {
                    Response::text(400, format!("malformed request: {why}\n"))
                }
            };
            let _ = response.write(&mut stream);
            return;
        }
    };
    shared.ops.counter_add(names::SERVE_REQUESTS_TOTAL, 1);
    let response = route(shared, &request);
    let _ = response.write(&mut stream);
}

fn route(shared: &Shared, request: &Request) -> Response {
    match (request.method.as_str(), request.target.as_str()) {
        ("POST", "/submit") => submit(shared, request),
        ("GET", "/status") => status_all(shared),
        ("GET", target) if target.strip_prefix("/status/").is_some() => {
            status_one(shared, target.strip_prefix("/status/").unwrap_or_default())
        }
        ("GET", "/metrics") => Response::text(200, shared.ops.report().to_prometheus()),
        ("POST", "/shutdown") => {
            initiate_drain(shared);
            Response::json(200, "{\"draining\":true}\n".into())
        }
        ("POST" | "GET", "/submit" | "/status" | "/metrics" | "/shutdown") => {
            Response::text(405, "method not allowed\n")
        }
        _ => Response::text(404, "no such endpoint\n"),
    }
}

fn submit(shared: &Shared, request: &Request) -> Response {
    let policy = &shared.options.policy;
    if shared.drain.is_draining() {
        return Response::json(503, "{\"error\":\"draining\"}\n".into())
            .retry_after_ms(policy.shed_backoff.base_ms);
    }
    let tenant = request
        .header("x-tenant")
        .unwrap_or("anonymous")
        .to_string();
    let Ok(body) = std::str::from_utf8(&request.body) else {
        shared
            .ops
            .counter_add(names::SERVE_REJECTED_INVALID_TOTAL, 1);
        return Response::json(422, "{\"error\":\"scenario body is not UTF-8\"}\n".into());
    };
    let scenario = match Scenario::from_json(body) {
        Ok(sc) => sc,
        Err(e) => {
            shared
                .ops
                .counter_add(names::SERVE_REJECTED_INVALID_TOTAL, 1);
            let msg = Json::Obj(vec![("error".into(), Json::Str(e.to_string()))]);
            return Response::json(422, format!("{}\n", msg.render()));
        }
    };

    // One lock around verdict + persistence + enqueue: admission is
    // fully serialized, so for a fixed arrival order the accept/shed
    // sequence (and the job ids) are deterministic.
    let mut adm = shared.admission.lock().unwrap();
    match adm.decide(&tenant, shared.queue.len()) {
        Verdict::Shed {
            cause,
            retry_after_ms,
        } => {
            let (status, counter) = match cause {
                ShedCause::QueueFull => (429, names::SERVE_SHED_QUEUE_FULL_TOTAL),
                ShedCause::BudgetExhausted => (429, names::SERVE_SHED_BUDGET_TOTAL),
                ShedCause::BreakerOpen => (503, names::SERVE_SHED_BREAKER_TOTAL),
            };
            shared.ops.counter_add(counter, 1);
            let msg = Json::Obj(vec![
                ("error".into(), Json::Str("shed".into())),
                ("cause".into(), Json::Str(cause.label().into())),
            ]);
            Response::json(status, format!("{}\n", msg.render())).retry_after_ms(retry_after_ms)
        }
        Verdict::Admitted => {
            let seq = shared.next_seq.fetch_add(1, Ordering::SeqCst);
            let id = format!("job{seq:04}");
            // Durable before the 202: scenario (full operational
            // render, chaos and all) plus tenant metadata.
            if let Err(e) = persist_job(&shared.options.dir, &id, &tenant, &scenario) {
                adm.release(&tenant);
                return Response::json(
                    500,
                    format!(
                        "{}\n",
                        Json::Obj(vec![("error".into(), Json::Str(e.to_string()))]).render()
                    ),
                );
            }
            shared.jobs.lock().unwrap().insert(
                id.clone(),
                JobEntry {
                    tenant: tenant.clone(),
                    state: JobState::Queued,
                },
            );
            let pushed = shared.queue.try_push(Job {
                id: id.clone(),
                tenant: tenant.clone(),
                scenario,
            });
            if !pushed {
                // Lost the race with a drain. The artifacts stay on
                // disk: the job is already durable and will be picked
                // up by --resume, so tell the client so.
                adm.release(&tenant);
                shared.jobs.lock().unwrap().remove(&id);
                let msg = Json::Obj(vec![
                    ("error".into(), Json::Str("draining".into())),
                    ("job".into(), Json::Str(id)),
                    ("durable".into(), Json::Bool(true)),
                ]);
                return Response::json(503, format!("{}\n", msg.render()))
                    .retry_after_ms(policy.shed_backoff.base_ms);
            }
            shared.ops.counter_add(names::SERVE_ADMITTED_TOTAL, 1);
            shared
                .ops
                .gauge_set(names::SERVE_QUEUE_DEPTH, shared.queue.len() as f64);
            let msg = Json::Obj(vec![("job".into(), Json::Str(id))]);
            Response::json(202, format!("{}\n", msg.render()))
        }
    }
}

fn status_all(shared: &Shared) -> Response {
    let jobs = shared.jobs.lock().unwrap();
    let list: Vec<Json> = jobs
        .iter()
        .map(|(id, entry)| {
            Json::Obj(vec![
                ("id".into(), Json::Str(id.clone())),
                ("tenant".into(), Json::Str(entry.tenant.clone())),
                ("state".into(), Json::Str(entry.state.label().into())),
            ])
        })
        .collect();
    let msg = Json::Obj(vec![
        ("draining".into(), Json::Bool(shared.drain.is_draining())),
        ("queue_depth".into(), Json::Num(shared.queue.len() as f64)),
        ("jobs".into(), Json::Arr(list)),
    ]);
    Response::json(200, format!("{}\n", msg.render()))
}

fn status_one(shared: &Shared, id: &str) -> Response {
    let jobs = shared.jobs.lock().unwrap();
    let Some(entry) = jobs.get(id) else {
        return Response::text(404, "no such job\n");
    };
    let mut pairs = vec![
        ("id".into(), Json::Str(id.into())),
        ("tenant".into(), Json::Str(entry.tenant.clone())),
        ("state".into(), Json::Str(entry.state.label().into())),
    ];
    if let JobState::Failed(why) | JobState::Quarantined(why) = &entry.state {
        pairs.push(("error".into(), Json::Str(why.clone())));
    }
    Response::json(200, format!("{}\n", Json::Obj(pairs).render()))
}

// ---------------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------------

fn set_job_state(shared: &Shared, id: &str, state: JobState) {
    let mut jobs = shared.jobs.lock().unwrap();
    if let Some(entry) = jobs.get_mut(id) {
        entry.state = state;
    }
    let running = jobs
        .values()
        .filter(|j| j.state == JobState::Running)
        .count();
    shared
        .ops
        .gauge_set(names::SERVE_ACTIVE_JOBS, running as f64);
}

fn run_job(shared: &Shared, executor: &dyn ScenarioExecutor, job: Job) {
    set_job_state(shared, &job.id, JobState::Running);
    let dir = &shared.options.dir;
    let outcome = catch_unwind(AssertUnwindSafe(|| execute_job(shared, executor, &job)));
    let (state, success) = match outcome {
        Ok(Ok((summary, recorder))) if summary.outcome.is_some() => {
            match finalize_job(dir, &job, &recorder) {
                Ok(()) => {
                    shared.ops.counter_add(names::SERVE_JOBS_COMPLETED_TOTAL, 1);
                    (JobState::Completed, true)
                }
                Err(e) => {
                    shared.ops.counter_add(names::SERVE_JOBS_FAILED_TOTAL, 1);
                    (JobState::Failed(e.to_string()), false)
                }
            }
        }
        Ok(Ok(_)) => {
            // The sweep stopped before assembling an outcome (e.g. an
            // armed chaos crash). No outcome file: still resumable.
            shared.ops.counter_add(names::SERVE_JOBS_FAILED_TOTAL, 1);
            (
                JobState::Failed("sweep stopped before completion".into()),
                false,
            )
        }
        Ok(Err(e)) => {
            shared.ops.counter_add(names::SERVE_JOBS_FAILED_TOTAL, 1);
            (JobState::Failed(e.to_string()), false)
        }
        Err(panic) => {
            // `&panic` would unsize the Box itself into `dyn Any` and
            // defeat the downcasts; pass the payload it carries.
            let why = panic_message(panic.as_ref());
            shared
                .ops
                .counter_add(names::SERVE_JOBS_QUARANTINED_TOTAL, 1);
            // Outcome file on purpose: a panicking job must not be
            // re-run by every subsequent --resume.
            let _ = write_outcome(dir, &job.id, &job.tenant, "quarantined", Some(&why));
            (JobState::Quarantined(why), false)
        }
    };
    set_job_state(shared, &job.id, state);
    shared
        .admission
        .lock()
        .unwrap()
        .settle(&job.tenant, success);
}

fn execute_job(
    shared: &Shared,
    executor: &dyn ScenarioExecutor,
    job: &Job,
) -> Result<(RunSummary, Recorder)> {
    let mut config = RunConfig::from_spec(&job.scenario.runner)?;
    // The daemon owns memoization: the scenario's own cache block is
    // overridden by the shared daemon cache (or disabled).
    config.cache_path = shared.options.cache_path.clone();
    let config = config.with_scenario(job.scenario.fingerprint());
    let journal = shared.options.dir.join(format!("{}.journal.jsonl", job.id));
    let resume = journal.exists();
    let recorder = Recorder::new();
    let summary = executor.execute(
        &job.scenario,
        config,
        &journal,
        resume,
        &recorder,
        &shared.ops,
    )?;
    Ok((summary, recorder))
}

/// Write the per-job metrics report, then atomically mark the job
/// terminal with its outcome file.
fn finalize_job(dir: &Path, job: &Job, recorder: &Recorder) -> Result<()> {
    let metrics = dir.join(format!("{}.metrics.json", job.id));
    std::fs::write(&metrics, recorder.report().to_json())
        .map_err(|e| Error::Io(format!("{}: {e}", metrics.display())))?;
    write_outcome(dir, &job.id, &job.tenant, "completed", None)
}

fn write_outcome(
    dir: &Path,
    id: &str,
    tenant: &str,
    state: &str,
    error: Option<&str>,
) -> Result<()> {
    let mut pairs = vec![
        ("job".into(), Json::Str(id.into())),
        ("tenant".into(), Json::Str(tenant.into())),
        ("state".into(), Json::Str(state.into())),
    ];
    if let Some(why) = error {
        pairs.push(("error".into(), Json::Str(why.into())));
    }
    let path = dir.join(format!("{id}.outcome.json"));
    let tmp = dir.join(format!("{id}.outcome.json.tmp"));
    std::fs::write(&tmp, format!("{}\n", Json::Obj(pairs).render()))
        .map_err(|e| Error::Io(format!("{}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, &path).map_err(|e| Error::Io(format!("{}: {e}", path.display())))
}

fn persist_job(dir: &Path, id: &str, tenant: &str, scenario: &Scenario) -> Result<()> {
    let scenario_path = dir.join(format!("{id}.scenario.json"));
    std::fs::write(&scenario_path, scenario.render_pretty())
        .map_err(|e| Error::Io(format!("{}: {e}", scenario_path.display())))?;
    let meta_path = dir.join(format!("{id}.meta.json"));
    let meta = Json::Obj(vec![("tenant".into(), Json::Str(tenant.into()))]);
    std::fs::write(&meta_path, format!("{}\n", meta.render()))
        .map_err(|e| Error::Io(format!("{}: {e}", meta_path.display())))
}

// ---------------------------------------------------------------------------
// Artifact-directory scan (resume)
// ---------------------------------------------------------------------------

/// Collect unfinished jobs (`<id>.scenario.json` without a matching
/// `<id>.outcome.json`) in id order, and the highest job sequence
/// number seen (finished or not), so new ids never collide with old
/// artifacts even on a non-resume daemon reusing a directory.
fn scan_artifacts(dir: &Path) -> Result<(Vec<Job>, u64)> {
    let mut pending = Vec::new();
    let mut max_seq = 0u64;
    let entries =
        std::fs::read_dir(dir).map_err(|e| Error::Io(format!("{}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| Error::Io(format!("{}: {e}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(id) = name.strip_suffix(".scenario.json") else {
            continue;
        };
        if let Some(seq) = id.strip_prefix("job").and_then(|s| s.parse::<u64>().ok()) {
            max_seq = max_seq.max(seq);
        }
        if dir.join(format!("{id}.outcome.json")).exists() {
            continue;
        }
        let path = entry.path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| Error::Io(format!("{}: {e}", path.display())))?;
        let scenario = Scenario::from_json(&text)
            .map_err(|e| Error::Journal(format!("resume {}: {e}", path.display())))?;
        let tenant = read_tenant(&dir.join(format!("{id}.meta.json")));
        pending.push(Job {
            id: id.to_string(),
            tenant,
            scenario,
        });
    }
    pending.sort_by(|a, b| a.id.cmp(&b.id));
    Ok((pending, max_seq))
}

fn read_tenant(meta_path: &Path) -> String {
    let fallback = "anonymous".to_string();
    let Ok(text) = std::fs::read_to_string(meta_path) else {
        return fallback;
    };
    let Ok(doc) = Json::parse(&text) else {
        return fallback;
    };
    doc.as_obj()
        .and_then(|pairs| pairs.iter().find(|(k, _)| k == "tenant"))
        .and_then(|(_, v)| v.as_str())
        .map(|s| s.to_string())
        .unwrap_or(fallback)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_states_know_their_labels_and_terminality() {
        assert_eq!(JobState::Queued.label(), "queued");
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Failed("x".into()).is_terminal());
        assert!(JobState::Quarantined("x".into()).is_terminal());
    }

    #[test]
    fn artifact_scan_skips_finished_jobs_and_tracks_the_sequence() {
        let dir = std::env::temp_dir().join(format!("c2-serve-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sc = Scenario::default().render_pretty();
        // job0003 finished; job0007 pending with a tenant; stray files
        // are ignored.
        std::fs::write(dir.join("job0003.scenario.json"), &sc).unwrap();
        std::fs::write(dir.join("job0003.outcome.json"), "{}\n").unwrap();
        std::fs::write(dir.join("job0007.scenario.json"), &sc).unwrap();
        std::fs::write(dir.join("job0007.meta.json"), "{\"tenant\":\"alice\"}\n").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignore me").unwrap();
        let (pending, max_seq) = scan_artifacts(&dir).unwrap();
        assert_eq!(max_seq, 7);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, "job0007");
        assert_eq!(pending[0].tenant, "alice");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_pending_scenario_is_a_typed_resume_error() {
        let dir = std::env::temp_dir().join(format!("c2-serve-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("job0001.scenario.json"), "{ not json").unwrap();
        let got = scan_artifacts(&dir);
        assert!(matches!(got, Err(Error::Journal(_))), "{got:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
