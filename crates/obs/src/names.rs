//! Well-known metric names: the engine's chaos/durability surface, the
//! phase oracle, the model backends, screening and the serve daemon.
//!
//! The engine's original counters predate this module and live as
//! string literals at their emission sites; the names below are shared
//! between emission sites and the code that reads them back (test
//! harnesses, and the daemon's lifetime report), so they get named
//! constants — a typo then fails to compile instead of silently
//! reading a counter that nothing increments.
//!
//! All of these are **operational** metrics: they describe how a
//! particular run interacted with storage and recovery machinery
//! (tails truncated, caches republished), not
//! what the sweep computed. The engine therefore routes them to the
//! separate *ops* sink — they are legitimately different between a
//! clean run and a crash/resume run, and must stay out of the
//! bit-identity-compared main metrics. The one exception is
//! [`ENGINE_QUARANTINED_TOTAL`]: a quarantined job is part of the
//! sweep's outcome (the journal records it), so it is emitted to the
//! main sink and is resume-invariant like every other job metric.

/// Jobs whose oracle panicked and were quarantined (terminated without
/// retries, degraded to analytic backfill). Main sink; resume-invariant.
pub const ENGINE_QUARANTINED_TOTAL: &str = "engine_quarantined_total";

/// Torn journal tails truncated away before appending on resume. Ops
/// sink.
pub const ENGINE_JOURNAL_TRUNCATION_REPAIRS_TOTAL: &str = "engine_journal_truncation_repairs_total";

/// Torn or malformed cache entry lines skipped (self-healed) while
/// loading the evaluation cache. Ops sink.
pub const ENGINE_CACHE_RECOVERED_RECORDS_TOTAL: &str = "engine_cache_recovered_records_total";

/// Atomic cache publications performed at run completion. Ops sink.
pub const ENGINE_CACHE_PUBLISHES_TOTAL: &str = "engine_cache_publishes_total";

/// Entries in the most recent cache publication (gauge). Ops sink.
pub const ENGINE_CACHE_PUBLISHED_ENTRIES: &str = "engine_cache_published_entries";

/// Storage faults (failed journal/cache writes) the engine observed
/// before aborting or degrading. Ops sink.
pub const ENGINE_STORAGE_FAULTS_TOTAL: &str = "engine_storage_faults_total";

// ---------------------------------------------------------------------------
// CPU pricers (`--oracle-mode full|phase`)
// ---------------------------------------------------------------------------
//
// All ops-sink: they describe how an invocation priced its points,
// never what the sweep computed — the computed outcome is pinned
// separately by the phase-accuracy tests.

/// Phases the active plan simulates per oracle call (gauge; 0 for the
/// exact short-trace fallback). Ops sink.
pub const ORACLE_PHASE_COUNT: &str = "oracle_phase_count";

/// CPU evaluations answered by a point-memo entry another evaluation
/// created: its point differs from one priced before only in ROB sizes
/// the simulator cannot tell apart, so its runs were simulated once
/// (full and phase mode alike). Ops sink.
pub const ORACLE_POINT_MEMO_HITS_TOTAL: &str = "oracle_point_memo_hits_total";

/// Per-mille of the full trace's accesses one oracle call actually
/// simulates (gauge; 1000 = exact fallback). Ops sink.
pub const ORACLE_PHASE_SIMULATED_PERMILLE: &str = "oracle_phase_simulated_permille";

// ---------------------------------------------------------------------------
// Model backends (`run --backend`) and the Roofline overlay
// ---------------------------------------------------------------------------
//
// Per-backend telemetry. All ops-sink: which backend priced a sweep is
// already pinned semantically (scenario fingerprint, journal header,
// cache identity), so these counters are pure operational attribution
// — and keeping them off the main sink is what lets the CPU path's
// bit-compared metrics stay byte-identical to the pre-backend era.

/// Candidate evaluations priced by the CPU-CMP (Eq. 10) backend. Ops
/// sink.
pub const BACKEND_CPU_CMP_POINTS_TOTAL: &str = "backend_cpu_cmp_points_total";

/// Candidate evaluations priced by the GPU-SM backend. Ops sink.
pub const BACKEND_GPU_SM_POINTS_TOTAL: &str = "backend_gpu_sm_points_total";

/// Roofline points emitted into a `--roofline-out` report. Ops sink.
pub const ROOFLINE_POINTS_TOTAL: &str = "roofline_points_total";

/// Roofline points whose compute ceiling binds. Ops sink.
pub const ROOFLINE_COMPUTE_BOUND_TOTAL: &str = "roofline_compute_bound_total";

/// Roofline points whose bandwidth ceiling binds. Ops sink.
pub const ROOFLINE_BANDWIDTH_BOUND_TOTAL: &str = "roofline_bandwidth_bound_total";

/// Every registered backend/roofline metric name, mirroring
/// [`SERVE_METRIC_NAMES`]: emission sites must use the constants
/// above.
pub const BACKEND_METRIC_NAMES: &[&str] = &[
    BACKEND_CPU_CMP_POINTS_TOTAL,
    BACKEND_GPU_SM_POINTS_TOTAL,
    ROOFLINE_POINTS_TOTAL,
    ROOFLINE_COMPUTE_BOUND_TOTAL,
    ROOFLINE_BANDWIDTH_BOUND_TOTAL,
];

// ---------------------------------------------------------------------------
// Surrogate screening (`run --screen`)
// ---------------------------------------------------------------------------
//
// Telemetry about the active-learning screening stage. All ops-sink:
// how many rounds the acquisition loop ran and how many candidates the
// surrogate screened out is recovery-style attribution (a resumed run
// replays fewer live evaluations), while the screened outcome itself
// is pinned by the law-validation harness and the journal bytes.

/// Candidate points sent to the real oracle by the screening stage
/// (initial seeding + acquisition rounds). Ops sink.
pub const SCREEN_TRUE_EVALUATIONS_TOTAL: &str = "screen_true_evaluations_total";

/// Candidate points the surrogate screened out (never simulated; their
/// times are committee predictions). Ops sink.
pub const SCREEN_SCREENED_OUT_TOTAL: &str = "screen_screened_out_total";

/// Acquisition rounds the screening loop ran (committee retrains). Ops
/// sink.
pub const SCREEN_ROUNDS_TOTAL: &str = "screen_rounds_total";

/// Journaled evaluations replayed instead of re-run on `--resume`. Ops
/// sink.
pub const SCREEN_RESUMED_TOTAL: &str = "screen_resumed_total";

/// Worst committee disagreement (ln-time spread) among still-screened
/// candidates when the loop stopped (gauge, per-mille). Ops sink.
pub const SCREEN_FINAL_SPREAD_PERMILLE: &str = "screen_final_spread_permille";

/// Every registered screening metric name, mirroring
/// [`BACKEND_METRIC_NAMES`]: emission sites must use the constants
/// above.
pub const SCREEN_METRIC_NAMES: &[&str] = &[
    SCREEN_TRUE_EVALUATIONS_TOTAL,
    SCREEN_SCREENED_OUT_TOTAL,
    SCREEN_ROUNDS_TOTAL,
    SCREEN_RESUMED_TOTAL,
    SCREEN_FINAL_SPREAD_PERMILLE,
];

// ---------------------------------------------------------------------------
// Service layer (`c2bound-tool serve`)
// ---------------------------------------------------------------------------
//
// Every serve metric is operational: it describes how the daemon
// admitted, queued, shed, or drained traffic — never what any
// admitted sweep computed — so all of them go to the daemon's ops
// sink. Per-job run metrics keep flowing to each job's own main-sink
// recorder, which is what stays bit-identical to one-shot `run`. The
// admitted, resumed, job-outcome and shed counters are also the
// daemon's only tally: its lifetime `ServeReport` reads them back.
//
// The full set is enumerated in [`SERVE_METRIC_NAMES`]; a property
// test drives the daemon and asserts every emitted `serve_*` name is
// in that list, so an emission site cannot drift to an unregistered
// (typo'd) name.

/// TCP connections accepted by the listener.
pub const SERVE_CONNECTIONS_TOTAL: &str = "serve_connections_total";

/// Well-formed HTTP requests parsed (any endpoint, any verdict).
pub const SERVE_REQUESTS_TOTAL: &str = "serve_requests_total";

/// Connections dropped before a full request was parsed: malformed
/// framing, oversized header/body, or a read/parse deadline hit.
pub const SERVE_REQUESTS_REJECTED_TOTAL: &str = "serve_requests_rejected_total";

/// Connection handlers that panicked and were quarantined (the
/// connection died; the daemon did not).
pub const SERVE_CONNECTIONS_PANICKED_TOTAL: &str = "serve_connections_panicked_total";

/// Submissions admitted into the job queue.
pub const SERVE_ADMITTED_TOTAL: &str = "serve_admitted_total";

/// Submissions shed because the bounded job queue was full.
pub const SERVE_SHED_QUEUE_FULL_TOTAL: &str = "serve_shed_queue_full_total";

/// Submissions shed because the tenant's concurrency budget was
/// exhausted.
pub const SERVE_SHED_BUDGET_TOTAL: &str = "serve_shed_budget_total";

/// Submissions shed because the tenant's admission breaker was open.
pub const SERVE_SHED_BREAKER_TOTAL: &str = "serve_shed_breaker_total";

/// Submissions rejected with a typed scenario error (unparsable or
/// invalid document) before admission control.
pub const SERVE_REJECTED_INVALID_TOTAL: &str = "serve_rejected_invalid_total";

/// Jobs that ran to a completed sweep.
pub const SERVE_JOBS_COMPLETED_TOTAL: &str = "serve_jobs_completed_total";

/// Jobs that terminated with a typed error (storage fault, model
/// error, interrupted sweep).
pub const SERVE_JOBS_FAILED_TOTAL: &str = "serve_jobs_failed_total";

/// Jobs whose execution panicked and was quarantined by the
/// executor's `catch_unwind` isolation.
pub const SERVE_JOBS_QUARANTINED_TOTAL: &str = "serve_jobs_quarantined_total";

/// Jobs re-admitted from a previous daemon's artifact directory by
/// `serve --resume`.
pub const SERVE_JOBS_RESUMED_TOTAL: &str = "serve_jobs_resumed_total";

/// Drains initiated (SIGTERM or `/shutdown`); at most 1 per process.
pub const SERVE_DRAINS_TOTAL: &str = "serve_drains_total";

/// Jobs still pending (queued, never started) when the drain
/// completed; they stay durable on disk for `--resume`.
pub const SERVE_DRAIN_PENDING_JOBS: &str = "serve_drain_pending_jobs";

/// Current queued-job count (gauge).
pub const SERVE_QUEUE_DEPTH: &str = "serve_queue_depth";

/// Currently executing jobs (gauge).
pub const SERVE_ACTIVE_JOBS: &str = "serve_active_jobs";

/// Every registered serve metric name. Emission sites must use the
/// constants above; the property suite asserts that every `serve_*`
/// name a live daemon emits appears here.
pub const SERVE_METRIC_NAMES: &[&str] = &[
    SERVE_CONNECTIONS_TOTAL,
    SERVE_REQUESTS_TOTAL,
    SERVE_REQUESTS_REJECTED_TOTAL,
    SERVE_CONNECTIONS_PANICKED_TOTAL,
    SERVE_ADMITTED_TOTAL,
    SERVE_SHED_QUEUE_FULL_TOTAL,
    SERVE_SHED_BUDGET_TOTAL,
    SERVE_SHED_BREAKER_TOTAL,
    SERVE_REJECTED_INVALID_TOTAL,
    SERVE_JOBS_COMPLETED_TOTAL,
    SERVE_JOBS_FAILED_TOTAL,
    SERVE_JOBS_QUARANTINED_TOTAL,
    SERVE_JOBS_RESUMED_TOTAL,
    SERVE_DRAINS_TOTAL,
    SERVE_DRAIN_PENDING_JOBS,
    SERVE_QUEUE_DEPTH,
    SERVE_ACTIVE_JOBS,
];
