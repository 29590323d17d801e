//! The supervised sweep engine.
//!
//! [`SweepRunner::run_aps`] drives the refinement stage of APS as
//! independent jobs on the deterministic sharded engine (DESIGN.md
//! §6b, §10):
//!
//! * the plan is split into shards by a pure function of its size
//!   ([`crate::shard`]); `threads` OS threads claim whole shards and
//!   run each shard's jobs sequentially in `seq` order, and per-shard
//!   outputs merge in shard order, so the journal, metrics and outcome
//!   are bit-identical for every thread count;
//! * every job gets up to `max_attempts` oracle attempts, with
//!   exponential-backoff delays (deterministically jittered by the
//!   job's content key) between retries;
//! * a per-attempt wall-clock **deadline** is measured from after the
//!   backoff sleep: an attempt that returns late has its result
//!   discarded and is charged as a failure (`timeouts += 1`), retried
//!   like any other. The decision is journaled, so resume replays it
//!   and never re-times it. The deadline is measured, not preemptive:
//!   an oracle that never returns blocks its worker thread;
//! * a **circuit breaker** per shard wraps the oracle: enough
//!   consecutive failures trip it open and the shard's next jobs are
//!   short-circuited to calibrated analytic backfill instead of
//!   queueing up behind a sick backend, with half-open probes deciding
//!   when to trust it again;
//! * an oracle that **panics** is isolated (`catch_unwind`): the job is
//!   quarantined — terminated immediately, never retried — the panic
//!   is charged to the breaker, the worker's oracle is rebuilt, and the
//!   sweep degrades to analytic backfill instead of dying;
//! * every terminal outcome is journaled to JSONL (fsync per the
//!   [`SyncPolicy`]), with periodic per-shard breaker **checkpoints**
//!   so resume cost stops growing with sweep length; a killed run
//!   resumes idempotently — a torn journal tail is truncated away
//!   before appending, journaled jobs are not re-run, and the merged
//!   sweep is bit-identical to an uninterrupted one (all fault
//!   injection is keyed to stable job identities, never to call
//!   order);
//! * all storage I/O flows through the [`Storage`] trait, so a
//!   [`ChaosPlan`] can inject torn writes, short writes, `ENOSPC`, and
//!   crash-at-Nth-write underneath the engine — the crash-matrix
//!   harness proves resume correctness at every write the engine
//!   performs;
//! * a [`RunReport`] accounts for every job:
//!   `attempted == succeeded + skipped + backfilled`.
//!
//! ## Resume bit-identity (DESIGN.md §10–§11)
//!
//! Every job splits into a pure **decision** ([`decide_sharded_job`],
//! which runs the oracle against a *clone* of the shard breaker and
//! emits nothing) and a deterministic **emission**
//! ([`emit_job_events`], which drives the real breaker and emits the
//! canonical event/metric sequence for a terminal record). Live jobs
//! run both halves; resumed jobs re-run only the emission half from
//! their journal record. Metrics and traces of a resumed run are
//! therefore identical to the uninterrupted run's *by construction* —
//! the same function produced them from the same records.
//!
//! Operational metrics that legitimately differ between a clean run
//! and a crash/resume run (checkpoints written, tails truncated,
//! records replayed, caches republished — see [`c2_obs::names`]) are
//! routed to a separate *ops* sink and stay out of the bit-compared
//! artifacts.

use crate::backoff::BackoffPolicy;
use crate::breaker::{Admission, BreakerPolicy, BreakerState, CircuitBreaker};
use crate::cache::{self, cache_key, CachedEval};
use crate::chaos::{ChaosPlan, ChaosStorage};
use crate::journal::{
    self, error_message, plan_fingerprint, Checkpoint, JobRecord, JournalHeader, JournalWriter,
    SyncPolicy,
};
use crate::shard::{partition, shard_of, BufferSink};
use crate::storage::{DiskStorage, Storage};
use crate::{Error, Result};
use c2_bound::aps::{classify_oracle_result, ApsOutcome, ApsPlan, PointOutcome, RefinementJob};
use c2_bound::backend::BackendSweep;
use c2_bound::dse::Oracle;
use c2_bound::ResiliencePolicy;
use c2_obs::{names, MetricsSink, NullSink};
use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Histogram ladder for retry backoff delays (milliseconds).
const BACKOFF_DELAY_BOUNDS: &[f64] = &[1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0];
/// Histogram ladder for per-job oracle attempt counts.
const ATTEMPTS_PER_JOB_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0];

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// OS threads draining the shard set (≥ 1). The merged journal,
    /// metrics, and outcome are bit-identical for every thread count
    /// (DESIGN.md §10).
    pub threads: usize,
    /// Content-addressed evaluation cache file; `None` disables
    /// memoization.
    pub cache_path: Option<PathBuf>,
    /// Extra run identity bound into evaluation-cache addresses, for
    /// runs whose journal deliberately stays fingerprint-free. The
    /// CLI's positional path (`run <workload> [size]`) sets this to
    /// the fingerprint of the scenario it assembles internally, so a
    /// cache file shared across positional invocations can never serve
    /// one workload's or size's simulated times to another. Redundant
    /// (but harmless) when `scenario_fingerprint` is set.
    pub cache_fingerprint: Option<u64>,
    /// Per-attempt wall-clock deadline in milliseconds, measured from
    /// after the backoff sleep; 0 disables it. A late attempt's result
    /// is discarded and the attempt is journaled as a failure.
    pub deadline_ms: u64,
    /// Maximum oracle attempts per job (≥ 1).
    pub max_attempts: usize,
    /// Retry backoff schedule.
    pub backoff: BackoffPolicy,
    /// Circuit-breaker tuning.
    pub breaker: BreakerPolicy,
    /// Backfill dead points with calibrated analytic estimates.
    pub analytic_fallback: bool,
    /// When journal (and cache-publish) bytes are fsynced to the
    /// device. The default, [`SyncPolicy::OnCheckpoint`], syncs at
    /// checkpoint lines and before atomic renames.
    pub sync: SyncPolicy,
    /// Write a per-shard breaker checkpoint into the journal every
    /// this many appended records (0 disables checkpointing).
    /// Checkpoints bound how many records the fast resume path must
    /// replay.
    pub checkpoint_every: usize,
    /// Deterministic storage-fault injection plan for the crash/chaos
    /// harness; `None` (or an all-`None` plan) runs on plain disk.
    pub chaos: Option<ChaosPlan>,
    /// Fingerprint of the scenario this run executes, mixed into the
    /// journal header so `--resume` is scenario-bound; `None` (the
    /// scenario-less positional path) keeps the bare plan fingerprint
    /// and stays byte-compatible with pre-scenario journals.
    pub scenario_fingerprint: Option<u64>,
    /// Test hook simulating a crash: stop (without draining) after
    /// this many terminal outcomes this run. The journal keeps every
    /// record flushed before the "crash".
    pub abort_after: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 1,
            cache_path: None,
            cache_fingerprint: None,
            deadline_ms: 0,
            max_attempts: 2,
            backoff: BackoffPolicy::default(),
            breaker: BreakerPolicy::default(),
            analytic_fallback: true,
            sync: SyncPolicy::default(),
            checkpoint_every: 64,
            chaos: None,
            scenario_fingerprint: None,
            abort_after: None,
        }
    }
}

impl RunConfig {
    /// Validated construction from a scenario's runner spec.
    /// `runner.threads: 0` means "use `runner.workers` threads", so
    /// scenarios written for the retired worker pool keep their
    /// parallelism. The scenario fingerprint is set separately
    /// ([`Self::with_scenario`]) because the spec describes engine
    /// policy, not run identity.
    pub fn from_spec(spec: &c2_config::RunnerSpec) -> Result<Self> {
        fn narrow(value: u64, what: &'static str) -> Result<usize> {
            usize::try_from(value).map_err(|_| Error::InvalidConfig(what))
        }
        let cache_path = if spec.cache.enabled {
            match &spec.cache.path {
                Some(p) => Some(PathBuf::from(p)),
                None => {
                    return Err(Error::InvalidConfig(
                        "runner.cache.path is required when the cache is enabled",
                    ))
                }
            }
        } else {
            None
        };
        let threads = if spec.threads == 0 {
            spec.workers
        } else {
            spec.threads
        };
        let config = RunConfig {
            threads: narrow(threads, "threads exceeds the platform word size")?,
            cache_path,
            cache_fingerprint: None,
            deadline_ms: spec.deadline_ms,
            max_attempts: narrow(
                spec.max_attempts,
                "max_attempts exceeds the platform word size",
            )?,
            backoff: BackoffPolicy {
                base_ms: spec.backoff.base_ms,
                factor: spec.backoff.factor,
                cap_ms: spec.backoff.cap_ms,
                jitter_frac: spec.backoff.jitter_frac,
            },
            breaker: BreakerPolicy {
                trip_threshold: narrow(
                    spec.breaker.trip_threshold,
                    "breaker trip_threshold exceeds the platform word size",
                )?,
                cooldown: narrow(
                    spec.breaker.cooldown,
                    "breaker cooldown exceeds the platform word size",
                )?,
                probes: narrow(
                    spec.breaker.probes,
                    "breaker probes exceeds the platform word size",
                )?,
            },
            analytic_fallback: spec.analytic_fallback,
            sync: SyncPolicy::parse(&spec.sync).ok_or(Error::InvalidConfig(
                "runner.sync must be one of never|on-checkpoint|always",
            ))?,
            checkpoint_every: narrow(
                spec.checkpoint_every,
                "checkpoint_every exceeds the platform word size",
            )?,
            chaos: spec.chaos.as_ref().map(|c| ChaosPlan {
                crash_at_write: c.crash_at_write,
                torn_bytes: c.torn_bytes,
                enospc_at_write: c.enospc_at_write,
                short_write_at: c.short_write_at,
                seed: c.seed,
            }),
            scenario_fingerprint: None,
            abort_after: None,
        };
        config.validate()?;
        Ok(config)
    }

    /// The same configuration bound to a scenario fingerprint.
    pub fn with_scenario(mut self, fingerprint: u64) -> Self {
        self.scenario_fingerprint = Some(fingerprint);
        self
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.threads == 0 {
            return Err(Error::InvalidConfig("threads must be positive"));
        }
        if self.max_attempts == 0 {
            return Err(Error::InvalidConfig("max_attempts must be positive"));
        }
        if let Some(chaos) = &self.chaos {
            chaos.validate()?;
        }
        self.backoff.validate()?;
        self.breaker.validate()
    }

    /// The core-side resilience policy this configuration implies.
    pub fn resilience_policy(&self) -> ResiliencePolicy {
        ResiliencePolicy {
            max_attempts: self.max_attempts,
            analytic_fallback: self.analytic_fallback,
        }
    }
}

/// Full accounting of a supervised run. All counts cover the *merged*
/// sweep (journal-resumed outcomes included), so an interrupted run's
/// final report equals the uninterrupted run's except for `resumed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Jobs that reached a terminal state (equals the plan size for a
    /// completed run).
    pub attempted: usize,
    /// Jobs with a successful simulation.
    pub succeeded: usize,
    /// Dead jobs with no analytic estimate.
    pub skipped: usize,
    /// Dead jobs degraded to a calibrated analytic estimate.
    pub backfilled: usize,
    /// Terminal outcomes satisfied from the journal instead of re-run.
    pub resumed: usize,
    /// Jobs that consumed more than one oracle attempt.
    pub retried: usize,
    /// Total oracle attempts across all terminal jobs.
    pub oracle_calls: usize,
    /// Attempts killed by the per-attempt deadline.
    pub timeouts: usize,
    /// Jobs denied their oracle by an open circuit breaker.
    pub short_circuited: usize,
    /// Jobs whose oracle panicked and were quarantined: terminated
    /// without retries, their oracle rebuilt, degraded to analytic
    /// backfill.
    pub quarantined: usize,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: usize,
    /// Jobs satisfied from the content-addressed evaluation cache
    /// instead of live oracle work (their original attempt history
    /// still counts under `oracle_calls`/`retried`, so the merged
    /// ledger matches the uninterrupted run's).
    pub cache_hits: usize,
    /// Whether every job in the plan reached a terminal state (false
    /// after a simulated crash).
    pub completed: bool,
}

impl RunReport {
    /// The engine's ledger invariant: every attempted job terminates
    /// as exactly one of succeeded, skipped, or backfilled.
    pub fn consistent(&self) -> bool {
        self.attempted == self.succeeded + self.skipped + self.backfilled
    }
}

/// Result of a supervised APS run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// The run's ledger.
    pub report: RunReport,
    /// The analysis-stage plan that was executed.
    pub plan: ApsPlan,
    /// The assembled outcome; `None` when the run did not complete
    /// (simulated crash).
    pub outcome: Option<ApsOutcome>,
    /// Per-job terminal outcomes, `(seq, outcome)` in `seq` order —
    /// the raw material the roofline overlay decomposes. Present even
    /// for interrupted runs (then covering only the jobs that
    /// terminated).
    pub results: Vec<(usize, PointOutcome)>,
}

/// The supervised job-execution engine.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    config: RunConfig,
}

/// A job's terminal outcome plus engine-side bookkeeping.
#[derive(Debug, Clone)]
struct Terminal {
    outcome: PointOutcome,
    short_circuited: bool,
    timeouts: usize,
    cached: bool,
    quarantined: bool,
}

impl Terminal {
    /// A job that ended on its own attempts: not cached, not
    /// short-circuited, not quarantined.
    fn live(attempts: usize, result: c2_bound::Result<f64>, timeouts: usize) -> Self {
        Terminal {
            outcome: PointOutcome { attempts, result },
            short_circuited: false,
            timeouts,
            cached: false,
            quarantined: false,
        }
    }
}

/// Reject a zero-job refinement plan before any journal or cache file
/// is touched. Defense in depth: the design-space constructors already
/// refuse empty axes, but if an empty plan ever reached the engine it
/// would otherwise create (and on completion publish) an empty journal
/// and cache that later resumes would happily accept as a finished
/// sweep.
fn ensure_plan_nonempty(jobs: usize) -> Result<()> {
    if jobs == 0 {
        return Err(Error::EmptyPlan);
    }
    Ok(())
}

/// Reduce a `catch_unwind` payload to the human-readable panic message
/// (the `&str`/`String` payloads `panic!` produces; anything exotic
/// degrades to a fixed marker so the journal record stays meaningful).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How one oracle attempt ended ([`run_attempt`]).
#[derive(Debug)]
pub(crate) enum Attempt {
    /// The oracle returned a usable time within the deadline.
    Ok(f64),
    /// A failure to retry under `max_attempts`: the oracle's own error
    /// or a non-physical time, or — `timed_out` — a result that came
    /// back after the deadline and was discarded.
    Failed {
        error: c2_bound::Error,
        timed_out: bool,
    },
    /// The oracle panicked. The job is quarantined (its key would
    /// panic again) and the caller must rebuild the oracle, whose
    /// internal state is suspect after the unwind.
    Panicked(c2_bound::Error),
}

/// One oracle attempt of `job`, the step the sharded engine and
/// screening share: sleep the content-keyed backoff before a retry,
/// then evaluate under `catch_unwind` and classify, discarding a
/// result that took longer than `deadline_ms` (timed from after the
/// sleep). The deadline is checked when the oracle returns, so an
/// oracle that never returns blocks the calling thread.
pub(crate) fn run_attempt<O: Oracle>(
    config: &RunConfig,
    job: &RefinementJob,
    attempt: usize,
    oracle: &mut O,
) -> Attempt {
    if attempt >= 2 {
        std::thread::sleep(config.backoff.delay(job.content_key(), attempt));
    }
    let started = Instant::now();
    let evaluated = catch_unwind(AssertUnwindSafe(|| {
        classify_oracle_result(oracle.evaluate(job.seq as u64, &job.point))
    }));
    match evaluated {
        Err(payload) => Attempt::Panicked(c2_bound::Error::Simulation(format!(
            "oracle panicked: {}",
            panic_message(payload.as_ref())
        ))),
        Ok(_)
            if config.deadline_ms > 0
                && started.elapsed() > Duration::from_millis(config.deadline_ms) =>
        {
            Attempt::Failed {
                error: c2_bound::Error::Simulation(format!(
                    "attempt exceeded the {} ms deadline",
                    config.deadline_ms
                )),
                timed_out: true,
            }
        }
        Ok(Ok(t)) => Attempt::Ok(t),
        Ok(Err(error)) => Attempt::Failed {
            error,
            timed_out: false,
        },
    }
}

/// Replay one journaled record through a fresh breaker so a resumed
/// run's breaker starts exactly where the interrupted run left it.
fn replay_breaker(breaker: &mut CircuitBreaker, record: &JobRecord) {
    for i in 1..=record.attempts {
        let _ = breaker.admit();
        if record.result.is_ok() && i == record.attempts {
            breaker.on_success();
        } else {
            breaker.on_failure();
        }
    }
    if record.short_circuited {
        let _ = breaker.admit();
    }
}

/// A run's journal as [`SweepRunner::open_journal`] left it.
#[derive(Default)]
pub(crate) struct OpenJournal {
    /// The writer new records append through; `None` without a journal.
    pub(crate) writer: Option<JournalWriter>,
    /// Whether an existing journal was reopened to resume.
    pub(crate) reopened: bool,
    /// A resumed file's records, sorted by `seq`.
    pub(crate) records: Vec<JobRecord>,
    /// A resumed file's checkpoint lines, in file order.
    pub(crate) checkpoints: Vec<Checkpoint>,
}

/// Report a storage fault in operation `op` on the ops sink and hand
/// the error back to the caller.
fn storage_fault(ops: &dyn MetricsSink, op: &str, e: Error) -> Error {
    ops.counter_add(names::ENGINE_STORAGE_FAULTS_TOTAL, 1);
    ops.event(
        "engine",
        "storage.fault",
        &[("op", op.into()), ("error", e.to_string().into())],
    );
    e
}

/// The ledger of `records`, the terminal outcomes of a run over
/// `plan`. Dead jobs split into backfilled (given a calibrated
/// analytic estimate when `outcome` was assembled) and skipped. The
/// caller fills in `completed`, `resumed` and `breaker_trips`.
pub(crate) fn ledger<'a>(
    plan: &ApsPlan,
    outcome: Option<&ApsOutcome>,
    records: impl IntoIterator<Item = &'a JobRecord>,
) -> RunReport {
    let backfilled: HashSet<[usize; 6]> = outcome
        .iter()
        .flat_map(|o| &o.refinement.skipped)
        .filter(|s| s.analytic_estimate.is_some())
        .map(|s| s.index)
        .collect();
    let mut report = RunReport::default();
    for r in records {
        report.attempted += 1;
        report.oracle_calls += r.attempts;
        report.timeouts += r.timeouts;
        report.retried += usize::from(r.attempts > 1);
        report.short_circuited += usize::from(r.short_circuited);
        report.cache_hits += usize::from(r.cached);
        report.quarantined += usize::from(r.quarantined);
        match r.result {
            Ok(_) => report.succeeded += 1,
            Err(_) if backfilled.contains(&plan.jobs[r.seq].index) => report.backfilled += 1,
            Err(_) => report.skipped += 1,
        }
    }
    report
}

impl SweepRunner {
    /// Build an engine with `config`.
    pub fn new(config: RunConfig) -> Result<Self> {
        config.validate()?;
        Ok(SweepRunner { config })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The storage stack this run persists through: plain disk, or
    /// disk wrapped in a [`ChaosStorage`] when a chaos plan is armed.
    /// Built fresh per run so the chaos write counter starts at zero.
    pub(crate) fn storage(&self) -> Box<dyn Storage> {
        match &self.config.chaos {
            Some(plan) if !plan.is_none() => Box::new(
                ChaosStorage::new(Box::new(DiskStorage), *plan)
                    .expect("chaos plan validated by RunConfig::validate"),
            ),
            _ => Box::new(DiskStorage),
        }
    }

    /// Plan `sweep` and build the journal header that pins the plan,
    /// bound to this run's scenario, the sweep's backend and `extra`
    /// (screening's parameter fingerprint). An empty plan is rejected
    /// before any file is touched.
    pub(crate) fn plan_and_header(
        &self,
        sweep: &dyn BackendSweep,
        extra: Option<u64>,
        sink: &dyn MetricsSink,
    ) -> Result<(ApsPlan, JournalHeader)> {
        let plan = sweep.plan_observed(sink)?;
        ensure_plan_nonempty(plan.jobs.len())?;
        let bindings = [
            self.config.scenario_fingerprint,
            journal::backend_fingerprint(sweep.identity()),
            extra,
        ];
        let header = JournalHeader {
            jobs: plan.jobs.len(),
            fingerprint: bindings
                .into_iter()
                .fold(plan_fingerprint(&plan), journal::bind_fingerprint),
        };
        Ok((plan, header))
    }

    /// Open the run's journal at `path` (no journal when `None`). With
    /// `resume` an existing file is reopened for appending: one pinned
    /// to a different sweep is rejected (`kind` names the sweep in the
    /// error), a torn tail is cut off *before* appending so a second
    /// crash cannot concatenate onto it, and every record must name a
    /// job of the plan. Otherwise a fresh journal is created.
    pub(crate) fn open_journal(
        &self,
        storage: &dyn Storage,
        path: Option<&Path>,
        resume: bool,
        header: &JournalHeader,
        kind: &str,
        ops: &dyn MetricsSink,
    ) -> Result<OpenJournal> {
        let mut open = OpenJournal::default();
        let Some(path) = path else {
            return Ok(open);
        };
        if !(resume && path.exists()) {
            open.writer = Some(JournalWriter::create_with(
                storage,
                self.config.sync,
                path,
                header,
            )?);
            return Ok(open);
        }
        let contents = journal::load_with(storage, path)?;
        if contents.header != *header {
            return Err(Error::Journal(format!(
                "journal {path:?} belongs to a different {kind} \
                 (jobs {} fingerprint {:#x}, expected jobs {} fingerprint {:#x})",
                contents.header.jobs, contents.header.fingerprint, header.jobs, header.fingerprint
            )));
        }
        if contents.truncated_tail {
            storage.truncate(path, contents.valid_len as u64)?;
            ops.counter_add(names::ENGINE_JOURNAL_TRUNCATION_REPAIRS_TOTAL, 1);
            ops.event(
                "engine",
                "journal.truncated",
                &[("valid_len", contents.valid_len.into())],
            );
        }
        open.records = contents.records;
        open.records.sort_by_key(|r| r.seq);
        if let Some(r) = open.records.iter().find(|r| r.seq >= header.jobs) {
            return Err(Error::Journal(format!(
                "journal record seq {} out of range",
                r.seq
            )));
        }
        open.checkpoints = contents.checkpoints;
        open.reopened = true;
        open.writer = Some(JournalWriter::append_with(storage, self.config.sync, path)?);
        Ok(open)
    }

    /// Rewrite a completed run's journal canonically: the header and
    /// `records` in `seq` order, via temp file and rename, so the
    /// durable bytes are a pure function of the outcomes. A storage
    /// fault is reported on `ops` and returned.
    pub(crate) fn rewrite_journal(
        &self,
        storage: &dyn Storage,
        path: &Path,
        header: &JournalHeader,
        records: &[JobRecord],
        ops: &dyn MetricsSink,
    ) -> Result<()> {
        journal::rewrite_canonical_with(storage, self.config.sync, path, header, records)
            .map_err(|e| storage_fault(ops, "journal.rewrite", e))
    }

    /// Run the refinement stage of `sweep` under supervision.
    ///
    /// `sweep` is any [`BackendSweep`] — the CPU-CMP [`c2_bound::Aps`]
    /// or the GPU-SM backend; the engine's journaling, caching, retry
    /// and resume machinery is backend-agnostic. A non-default
    /// backend's identity is bound into the journal header (and thus
    /// every cache address), so checkpoints and caches can never be
    /// cross-served between backends.
    ///
    /// `make_oracle` constructs one oracle per worker thread (oracles
    /// need not be `Send`; they are built where they run). When
    /// `journal` is given, every terminal outcome is checkpointed
    /// there; with `resume`, an existing journal's outcomes are merged
    /// instead of re-run (the journal must match the plan, enforced by
    /// fingerprint). Returns an error if the journal is incompatible
    /// or every refinement point died; otherwise the summary carries
    /// the assembled outcome (for completed runs) and the ledger.
    pub fn run_aps<O, B>(
        &self,
        sweep: &dyn BackendSweep,
        make_oracle: B,
        journal_path: Option<&Path>,
        resume: bool,
    ) -> Result<RunSummary>
    where
        O: Oracle,
        B: Fn() -> O + Sync,
    {
        // The unobserved path resumes through breaker checkpoints
        // (restore + tail replay) instead of reconstructing the full
        // event stream nobody is listening to.
        self.run_sharded(
            sweep,
            make_oracle,
            journal_path,
            resume,
            &NullSink,
            &NullSink,
            false,
        )
    }

    /// [`SweepRunner::run_aps`] with the whole run instrumented: job
    /// lifecycle, retries and backoff delays, breaker transitions,
    /// journal appends and the analysis/assembly stages all report to
    /// `sink` (scopes `engine`, `solver`, `aps`).
    ///
    /// Determinism contract (DESIGN.md §7/§10): at any `threads` count
    /// the captured metrics and event trace are byte-identical across
    /// runs of the same seeded sweep — including runs that crashed and
    /// resumed, whose pre-crash events are reconstructed from the
    /// journal. Operational recovery metrics are discarded here; use
    /// [`SweepRunner::run_aps_full`] to capture them.
    pub fn run_aps_observed<O, B>(
        &self,
        sweep: &dyn BackendSweep,
        make_oracle: B,
        journal_path: Option<&Path>,
        resume: bool,
        sink: &dyn MetricsSink,
    ) -> Result<RunSummary>
    where
        O: Oracle,
        B: Fn() -> O + Sync,
    {
        self.run_aps_full(sweep, make_oracle, journal_path, resume, sink, &NullSink)
    }

    /// [`SweepRunner::run_aps_observed`] with a second, **operational**
    /// sink. `sink` receives the deterministic, resume-invariant run
    /// artifacts; `ops` receives recovery and durability telemetry
    /// (checkpoints written, torn tails truncated, records replayed,
    /// cache publications, storage faults — the [`c2_obs::names`]
    /// constants) that legitimately differs between a clean run and a
    /// crash/resume run and must stay out of bit-compared output.
    pub fn run_aps_full<O, B>(
        &self,
        sweep: &dyn BackendSweep,
        make_oracle: B,
        journal_path: Option<&Path>,
        resume: bool,
        sink: &dyn MetricsSink,
        ops: &dyn MetricsSink,
    ) -> Result<RunSummary>
    where
        O: Oracle,
        B: Fn() -> O + Sync,
    {
        self.run_sharded(sweep, make_oracle, journal_path, resume, sink, ops, true)
    }
}

/// Drain and publish a breaker transition into a shard's buffer,
/// tagged with the shard that owns the breaker. Called after every
/// `admit`/`on_success`/`on_failure`, each of which changes state at
/// most once.
fn note_breaker(sink: &dyn MetricsSink, breaker: &mut CircuitBreaker, shard: usize) {
    if let Some(tr) = breaker.take_transition() {
        sink.counter_add("engine_breaker_transitions_total", 1);
        if tr.to == BreakerState::Open {
            sink.counter_add("engine_breaker_trips_total", 1);
        }
        sink.gauge_set("engine_breaker_state", tr.to.as_gauge());
        sink.event(
            "engine",
            "breaker.transition",
            &[
                ("shard", shard.into()),
                ("from", tr.from.as_str().into()),
                ("to", tr.to.as_str().into()),
            ],
        );
    }
}

/// The journal record a terminal outcome canonically encodes. Inverse
/// of the resume-replay construction, and exact both ways: errors are
/// reduced through [`error_message`] and times use shortest round-trip
/// formatting, so record → terminal → record is the identity.
fn record_of(seq: usize, t: &Terminal) -> JobRecord {
    JobRecord {
        seq,
        attempts: t.outcome.attempts,
        timeouts: t.timeouts,
        result: t.outcome.result.as_ref().map(|v| *v).map_err(error_message),
        short_circuited: t.short_circuited,
        cached: t.cached,
        quarantined: t.quarantined,
    }
}

/// The terminal outcome a journal record canonically encodes (the
/// other direction of [`record_of`]).
fn terminal_of(record: &JobRecord) -> Terminal {
    Terminal {
        outcome: record.point_outcome(),
        short_circuited: record.short_circuited,
        timeouts: record.timeouts,
        cached: record.cached,
        quarantined: record.quarantined,
    }
}

/// Shared (journal, abort) state of a sharded run.
struct ShardJournal {
    writer: Option<JournalWriter>,
    error: Option<Error>,
}

/// Per-shard mutable state, claimed whole by one worker at a time.
struct ShardCell {
    breaker: CircuitBreaker,
    buffer: BufferSink,
    results: Vec<(usize, Terminal)>,
    /// Records of this shard present in the journal (resumed ones
    /// counted during setup, live ones as they append) — the
    /// checkpoint cadence counter, so resume keeps the cadence a
    /// clean run had.
    appended: usize,
    /// Live records decided but not yet written to the journal. The
    /// worker appends these under **one** journal lock per checkpoint
    /// boundary (and once at shard completion) instead of locking per
    /// job, so the global journal mutex stops serializing the hot
    /// path. A crash loses at most one shard's unflushed tail, which
    /// resume simply re-runs; completed runs rewrite the journal
    /// canonically, so the durable bytes are unchanged.
    pending: Vec<JobRecord>,
    /// Within-run memoization, per shard (not per worker: a
    /// worker-wide store's contents would depend on which shards the
    /// worker happened to run first). Re-seeded from resumed records
    /// so a resumed run hits exactly where the clean run hit.
    local_store: HashMap<u64, CachedEval>,
}

/// Whether a cached entry's attempt history can be replayed through
/// `breaker` without an admission short-circuiting. The caller has
/// already consumed (and been admitted by) the first admission, so the
/// dry run probes admissions from the second attempt on, on a clone. A
/// shared or stale cache file can hold histories the current shard's
/// breaker would refuse mid-replay; forcing those through would walk a
/// trajectory no live run could produce, so such entries are treated
/// as misses instead.
fn replayable(breaker: &CircuitBreaker, attempts: usize) -> bool {
    let mut probe = breaker.clone();
    for i in 1..=attempts {
        if i > 1 && probe.admit() == Admission::ShortCircuit {
            return false;
        }
        if i == attempts {
            probe.on_success();
        } else {
            probe.on_failure();
        }
    }
    true
}

/// Decide one job's terminal outcome inside a shard, **emitting
/// nothing**: the oracle runs against a *clone* of the shard breaker,
/// so the real breaker and the sinks are untouched. The returned
/// `bool` is the panic-poison flag: `true` means the oracle unwound
/// and the worker must rebuild it before the next job.
///
/// [`emit_job_events`] later replays the decision's canonical record
/// through the real breaker — the identical function that replays
/// *resumed* records, which is what makes a resumed run's artifacts
/// bit-identical to a clean run's by construction (DESIGN.md §10–§11).
/// A deadline expiry is decided here, once, and journaled like any
/// other failure, so replay never re-times it. `ckey` is the job's
/// cache address, precomputed by the worker in one batch per claimed
/// shard (rather than re-derived per job here).
#[allow(clippy::too_many_arguments)]
fn decide_sharded_job<O: Oracle>(
    config: &RunConfig,
    plan: &ApsPlan,
    cache_on: bool,
    snapshot: &HashMap<u64, CachedEval>,
    local_store: &HashMap<u64, CachedEval>,
    ckey: u64,
    breaker: &CircuitBreaker,
    oracle: &mut O,
    seq: usize,
) -> (Terminal, bool) {
    let job = &plan.jobs[seq];
    let mut probe = breaker.clone();
    let mut attempt = 1usize;
    let mut timeouts = 0usize;
    loop {
        if probe.admit() == Admission::ShortCircuit {
            let refused = c2_bound::Error::Simulation(
                "circuit breaker open: oracle attempt not admitted".to_string(),
            );
            let t = Terminal {
                short_circuited: true,
                ..Terminal::live(attempt - 1, Err(refused), timeouts)
            };
            return (t, false);
        }
        if attempt == 1 && cache_on {
            // Consult the cache: the start-of-run snapshot plus this
            // shard's own within-run stores (cross-shard stores are
            // invisible by design — their timing is
            // schedule-dependent). An entry whose attempt history no
            // live run under this policy could produce — more attempts
            // than allowed, or a replay the shard's breaker would
            // refuse mid-way — is demoted to a miss and evaluated live.
            let hit = local_store
                .get(&ckey)
                .copied()
                .or_else(|| snapshot.get(&ckey).copied())
                .filter(|h| h.attempts <= config.max_attempts && replayable(&probe, h.attempts));
            if let Some(hit) = hit {
                let t = Terminal {
                    cached: true,
                    ..Terminal::live(hit.attempts, Ok(hit.time), 0)
                };
                return (t, false);
            }
        }
        match run_attempt(config, job, attempt, oracle) {
            Attempt::Ok(t) => return (Terminal::live(attempt, Ok(t), timeouts), false),
            // Panic isolation: quarantine the job at this attempt (no
            // retries — the panic is keyed to the job, so re-running it
            // would panic again) and tell the caller to rebuild the
            // poisoned oracle.
            Attempt::Panicked(e) => {
                let t = Terminal {
                    quarantined: true,
                    ..Terminal::live(attempt, Err(e), timeouts)
                };
                return (t, true);
            }
            Attempt::Failed { error, timed_out } => {
                timeouts += usize::from(timed_out);
                probe.on_failure();
                if attempt < config.max_attempts {
                    attempt += 1;
                } else {
                    return (Terminal::live(attempt, Err(error), timeouts), false);
                }
            }
        }
    }
}

/// Replay one canonical job record through the shard's **real**
/// breaker, emitting the full event/metric sequence into the shard
/// buffer. This single function produces the artifacts for both live
/// jobs (on the record [`decide_sharded_job`] just produced) and
/// resumed jobs (on the record loaded from the journal), so the two
/// are bit-identical by construction.
///
/// Record shapes are unambiguous: a cached record replays its original
/// attempt history; a non-cached `Ok` record is `attempts-1` failures
/// then a success; a non-quarantined `Err` record is `max_attempts`
/// failures; a quarantined record ends at whichever attempt panicked;
/// a short-circuited record is all will-retry failures plus the
/// refused admission. Deadline expiries are failures among these,
/// counted by the record's `timeouts`.
fn emit_job_events(
    config: &RunConfig,
    plan: &ApsPlan,
    cache_on: bool,
    record: &JobRecord,
    cell: &mut ShardCell,
    shard: usize,
) {
    let seq = record.seq;
    let content = plan.jobs[seq].content_key();
    if record.cached {
        let _ = cell.breaker.admit();
        note_breaker(&cell.buffer, &mut cell.breaker, shard);
        // Replay the original computation's attempt history into the
        // breaker (the admission above was attempt 1), so the shard's
        // breaker walks the same trajectory as the run that populated
        // the cache.
        for i in 1..=record.attempts {
            if i > 1 {
                let _ = cell.breaker.admit();
            }
            if i == record.attempts {
                cell.breaker.on_success();
            } else {
                cell.breaker.on_failure();
            }
            note_breaker(&cell.buffer, &mut cell.breaker, shard);
        }
        let time = *record.result.as_ref().expect("cached records are Ok");
        cell.buffer.counter_add("engine_cache_hits_total", 1);
        cell.buffer.event(
            "engine",
            "cache.hit",
            &[
                ("seq", seq.into()),
                ("attempts", record.attempts.into()),
                ("time", time.into()),
            ],
        );
        return;
    }
    for i in 1..=record.attempts {
        let _ = cell.breaker.admit();
        note_breaker(&cell.buffer, &mut cell.breaker, shard);
        if i == 1 && cache_on {
            cell.buffer.counter_add("engine_cache_misses_total", 1);
        }
        cell.buffer.counter_add("engine_attempts_total", 1);
        cell.buffer.event(
            "engine",
            "attempt.started",
            &[("seq", seq.into()), ("attempt", i.into())],
        );
        let terminal_here = i == record.attempts && !record.short_circuited;
        match (&record.result, terminal_here) {
            (Ok(t), true) => {
                cell.breaker.on_success();
                note_breaker(&cell.buffer, &mut cell.breaker, shard);
                cell.buffer.counter_add("engine_attempt_successes_total", 1);
                cell.buffer.event(
                    "engine",
                    "attempt.ok",
                    &[
                        ("seq", seq.into()),
                        ("attempt", i.into()),
                        ("time", (*t).into()),
                    ],
                );
            }
            (Err(msg), true) => {
                cell.breaker.on_failure();
                note_breaker(&cell.buffer, &mut cell.breaker, shard);
                cell.buffer.counter_add("engine_attempt_failures_total", 1);
                cell.buffer.event(
                    "engine",
                    "attempt.failed",
                    &[
                        ("seq", seq.into()),
                        ("attempt", i.into()),
                        ("error", msg.as_str().into()),
                        ("will_retry", false.into()),
                    ],
                );
                if record.quarantined {
                    cell.buffer.counter_add(names::ENGINE_QUARANTINED_TOTAL, 1);
                    cell.buffer
                        .event("engine", "job.quarantined", &[("seq", seq.into())]);
                }
            }
            (_, false) => {
                cell.breaker.on_failure();
                note_breaker(&cell.buffer, &mut cell.breaker, shard);
                cell.buffer.counter_add("engine_attempt_failures_total", 1);
                cell.buffer.event(
                    "engine",
                    "attempt.failed",
                    &[
                        ("seq", seq.into()),
                        ("attempt", i.into()),
                        ("will_retry", true.into()),
                    ],
                );
                let next = i + 1;
                let delay_ms = config.backoff.delay(content, next).as_millis() as u64;
                cell.buffer.counter_add("engine_retries_scheduled_total", 1);
                cell.buffer.observe(
                    "engine_backoff_delay_ms",
                    BACKOFF_DELAY_BOUNDS,
                    delay_ms as f64,
                );
                cell.buffer.event(
                    "engine",
                    "retry.scheduled",
                    &[
                        ("seq", seq.into()),
                        ("attempt", next.into()),
                        ("delay_ms", delay_ms.into()),
                    ],
                );
            }
        }
    }
    if record.short_circuited {
        let _ = cell.breaker.admit();
        note_breaker(&cell.buffer, &mut cell.breaker, shard);
        cell.buffer.counter_add("engine_short_circuits_total", 1);
        cell.buffer
            .event("engine", "job.short_circuited", &[("seq", seq.into())]);
    }
    if record.timeouts > 0 {
        cell.buffer
            .counter_add("engine_timeouts_total", record.timeouts as u64);
    }
}

/// Emit the `job.terminal` trace line for one sharded terminal.
fn emit_terminal_event(cell: &mut ShardCell, seq: usize, t: &Terminal) {
    let mut fields: Vec<(&str, c2_obs::FieldValue)> = vec![
        ("seq", seq.into()),
        ("attempts", t.outcome.attempts.into()),
        ("timeouts", t.timeouts.into()),
        ("ok", t.outcome.result.is_ok().into()),
        ("short_circuited", t.short_circuited.into()),
        ("cached", t.cached.into()),
    ];
    if t.quarantined {
        fields.push(("quarantined", true.into()));
    }
    cell.buffer.event("engine", "job.terminal", &fields);
}

/// Write a shard's pending journal records (and, at a checkpoint
/// boundary, the checkpoint line) under a single journal lock. Called
/// when the shard's cadence counter crosses a `checkpoint_every`
/// multiple and once when the worker finishes the shard, so the lock
/// is taken O(jobs / checkpoint_every) times instead of once per job.
/// A storage fault poisons the journal and aborts the run, exactly as
/// the old per-job path did; the remaining pending records are
/// discarded (the run returns the error before any buffer merges).
fn flush_shard_pending(
    journal: &Mutex<ShardJournal>,
    cell: &mut ShardCell,
    shard: usize,
    checkpoint: bool,
    ops: &dyn MetricsSink,
    abort: &AtomicBool,
) {
    if cell.pending.is_empty() && !checkpoint {
        return;
    }
    let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
    if j.error.is_some() {
        cell.pending.clear();
        return;
    }
    let mut fault: Option<(&'static str, Error)> = None;
    if let Some(w) = j.writer.as_mut() {
        for record in cell.pending.drain(..) {
            if let Err(e) = w.record(&record) {
                fault = Some(("journal.append", e));
                break;
            }
        }
        if fault.is_none() && checkpoint {
            let ck = Checkpoint {
                shard,
                covered: cell.appended,
                snapshot: cell.breaker.snapshot(),
            };
            match w.checkpoint(&ck) {
                Ok(()) => {
                    ops.counter_add(names::ENGINE_JOURNAL_CHECKPOINTS_TOTAL, 1);
                    ops.event(
                        "engine",
                        "journal.checkpoint",
                        &[("shard", shard.into()), ("covered", cell.appended.into())],
                    );
                }
                Err(e) => fault = Some(("journal.checkpoint", e)),
            }
        }
    }
    cell.pending.clear();
    if let Some((op, e)) = fault {
        j.error = Some(storage_fault(ops, op, e));
        abort.store(true, Ordering::SeqCst);
    }
}

/// Seed the shard's within-run memoization from a terminal. For live
/// jobs this is the store the original engine performed inline; for
/// resumed jobs it rebuilds the store the interrupted run had, so a
/// resumed sweep hits the cache exactly where the clean sweep did.
fn seed_local_store(local_store: &mut HashMap<u64, CachedEval>, ckey: u64, t: &Terminal) {
    if t.short_circuited {
        return;
    }
    if let Ok(time) = t.outcome.result.as_ref() {
        local_store.insert(
            ckey,
            CachedEval {
                attempts: t.outcome.attempts,
                time: *time,
            },
        );
    }
}

/// Restore per-shard breakers for the **fast** (unobserved) resume
/// path: start each shard's breaker from its newest usable journal
/// checkpoint and replay only the records appended after it —
/// checkpoints exist precisely to bound this tail. Shards without a
/// usable checkpoint replay their full record list. `records` must be
/// sorted by `seq` (within a shard, append order *is* seq order, so
/// `covered` counts a seq-ordered prefix).
fn restore_shard_breakers(
    policy: BreakerPolicy,
    nshards: usize,
    records: &[JobRecord],
    checkpoints: &[Checkpoint],
    ops: &dyn MetricsSink,
) -> Result<Vec<CircuitBreaker>> {
    let mut by_shard: Vec<Vec<&JobRecord>> = vec![Vec::new(); nshards];
    for r in records {
        by_shard[shard_of(r.seq, nshards)].push(r);
    }
    let mut breakers = Vec::with_capacity(nshards);
    let mut tail_replayed = 0u64;
    for (i, shard_records) in by_shard.iter().enumerate() {
        // A checkpoint covering more records than the journal holds is
        // stale (it outlived a repair that dropped records); ignore it.
        let ckpt = checkpoints
            .iter()
            .filter(|c| c.shard == i && c.covered <= shard_records.len())
            .max_by_key(|c| c.covered);
        let (mut b, start) = match ckpt {
            Some(c) => (
                CircuitBreaker::from_snapshot(policy, c.snapshot)?,
                c.covered,
            ),
            None => (CircuitBreaker::new(policy)?, 0),
        };
        for r in &shard_records[start..] {
            replay_breaker(&mut b, r);
            tail_replayed += 1;
        }
        // Replay reconstructs state the original run already traced.
        let _ = b.take_transition();
        breakers.push(b);
    }
    ops.counter_add(names::ENGINE_RESUME_TAIL_REPLAYED_TOTAL, tail_replayed);
    Ok(breakers)
}

impl SweepRunner {
    /// The deterministic sharded engine (DESIGN.md §10). The plan is
    /// partitioned into shards by a pure function of its size; `N`
    /// worker threads claim whole shards work-stealing-style and run
    /// each shard's jobs sequentially in `seq` order against a
    /// per-shard circuit breaker and content-keyed backoff. Journal
    /// records, metrics, and trace events are buffered per shard and
    /// merged in shard order after the join, and a completed run's
    /// journal is rewritten canonically (records in `seq` order via
    /// temp-file + rename) — so every artifact is bit-identical for
    /// every thread count, and identical to the `threads: 1` serial
    /// execution. A `deadline_ms` expiry depends on wall time, so it
    /// is the one decision that can differ between two clean runs;
    /// once journaled, resume replays it.
    ///
    /// `reconstruct` selects how a resumed journal is replayed:
    /// `true` (the observed path) re-emits every resumed record's full
    /// event/metric sequence through [`emit_job_events`] so the run's
    /// artifacts are bit-identical to an uninterrupted run's; `false`
    /// (the unobserved path) skips the event work and restores breaker
    /// state from checkpoints plus a bounded record tail
    /// ([`restore_shard_breakers`]).
    #[allow(clippy::too_many_arguments)]
    fn run_sharded<O, B>(
        &self,
        sweep: &dyn BackendSweep,
        make_oracle: B,
        journal_path: Option<&Path>,
        resume: bool,
        sink: &dyn MetricsSink,
        ops: &dyn MetricsSink,
        reconstruct: bool,
    ) -> Result<RunSummary>
    where
        O: Oracle,
        B: Fn() -> O + Sync,
    {
        let storage = self.storage();
        let (plan, header) = self.plan_and_header(sweep, None, sink)?;
        // Cache addresses bind the same identity the journal header
        // pins (plan ⊕ scenario), further bound to the positional
        // path's assembled-scenario fingerprint — oracle results
        // depend on workload/model/size, which the content key (pure
        // grid geometry) cannot carry, so a shared cache file must
        // miss, never mis-serve, across different runs' work.
        let cache_identity =
            journal::bind_fingerprint(header.fingerprint, self.config.cache_fingerprint);
        // Read-only cache snapshot, taken once at run start. The run
        // publishes its merged cache atomically at completion; a crash
        // anywhere leaves the cache file byte-identical to run start,
        // so a resumed run loads exactly this snapshot again — which
        // is what keeps the snapshot gauge (and every cache hit/miss)
        // resume-invariant.
        let snapshot: HashMap<u64, CachedEval> = match &self.config.cache_path {
            None => HashMap::new(),
            Some(path) => {
                let loaded = cache::load(storage.as_ref(), path)?;
                if loaded.skipped > 0 {
                    ops.counter_add(
                        names::ENGINE_CACHE_RECOVERED_RECORDS_TOTAL,
                        loaded.skipped as u64,
                    );
                    ops.event(
                        "engine",
                        "cache.recovered",
                        &[("skipped", loaded.skipped.into())],
                    );
                }
                // The gauge counts only the entries addressable by
                // *this* run's identity. A cache file shared across
                // scenarios (the serve daemon's) also carries foreign
                // entries, which can never hit; counting them would
                // make this main-sink gauge depend on other runs'
                // publishes and break bit-identity with one-shot runs.
                let relevant = plan
                    .jobs
                    .iter()
                    .filter(|job| {
                        loaded
                            .snapshot
                            .contains_key(&cache_key(cache_identity, job.content_key()))
                    })
                    .count();
                sink.gauge_set("engine_cache_snapshot_entries", relevant as f64);
                loaded.snapshot
            }
        };
        let cache_on = self.config.cache_path.is_some();

        let shards = partition(plan.jobs.len());
        let opened = self.open_journal(
            storage.as_ref(),
            journal_path,
            resume,
            &header,
            "sweep",
            ops,
        )?;
        // Deterministic replay: records sorted by seq, each later driven
        // through its *own shard's* state (shard membership is a pure
        // function of seq).
        let mut terminals: Vec<Option<Terminal>> = vec![None; plan.jobs.len()];
        for record in &opened.records {
            terminals[record.seq] = Some(terminal_of(record));
        }
        let resumed = opened.records.len();
        if opened.reopened {
            // Recovery telemetry goes to the ops sink: a clean run
            // replays nothing, and the main sink's artifacts must not
            // betray the crash history.
            ops.counter_add("engine_journal_replayed_total", resumed as u64);
            ops.event(
                "engine",
                "journal.replayed",
                &[("records", resumed.into()), ("shards", shards.len().into())],
            );
        }

        sink.gauge_set("engine_plan_jobs", plan.jobs.len() as f64);
        sink.event(
            "engine",
            "run.start",
            &[
                // Deliberately no `threads` field (the trace must be
                // bit-identical for every thread count) and no
                // pending/resumed counts (it must also be bit-identical
                // across crash/resume histories): only
                // schedule-invariant, history-invariant facts. The CLI
                // echoes the thread count; resume telemetry lives on
                // the ops sink.
                ("jobs", plan.jobs.len().into()),
                ("shards", shards.len().into()),
            ],
        );

        // Per-shard breakers: the observed (reconstruct) path starts
        // fresh and replays resumed records through the full emitter
        // below; the fast path restores from checkpoints + tails.
        let breakers: Vec<CircuitBreaker> = if !reconstruct && resumed > 0 {
            restore_shard_breakers(
                self.config.breaker,
                shards.len(),
                &opened.records,
                &opened.checkpoints,
                ops,
            )?
        } else {
            let mut v = Vec::with_capacity(shards.len());
            for _ in 0..shards.len() {
                v.push(CircuitBreaker::new(self.config.breaker)?);
            }
            v
        };

        let resumed_seqs: Vec<bool> = terminals.iter().map(|t| t.is_some()).collect();
        let mut cells_raw: Vec<ShardCell> = breakers
            .into_iter()
            .enumerate()
            .map(|(i, breaker)| {
                let cell = ShardCell {
                    breaker,
                    buffer: BufferSink::new(),
                    results: Vec::new(),
                    appended: 0,
                    pending: Vec::new(),
                    local_store: HashMap::new(),
                };
                // Emitted at construction (not by the worker) so it
                // precedes the resumed-record events replayed into the
                // buffer below.
                cell.buffer.event(
                    "engine",
                    "shard.started",
                    &[("shard", i.into()), ("jobs", shards[i].len().into())],
                );
                cell
            })
            .collect();

        // Replay resumed records into their shards: the observed path
        // re-emits each record's full artifact sequence; both paths
        // advance the checkpoint cadence counter and re-seed the
        // within-run cache memo the interrupted run had built.
        for record in &opened.records {
            let si = shard_of(record.seq, shards.len());
            let cell = &mut cells_raw[si];
            let t = terminal_of(record);
            if reconstruct {
                emit_job_events(&self.config, &plan, cache_on, record, cell, si);
                cell.buffer.counter_add("engine_journal_appends_total", 1);
                cell.buffer
                    .event("engine", "journal.append", &[("seq", record.seq.into())]);
                emit_terminal_event(cell, record.seq, &t);
            }
            cell.appended += 1;
            if cache_on {
                let ckey = cache_key(cache_identity, plan.jobs[record.seq].content_key());
                seed_local_store(&mut cell.local_store, ckey, &t);
            }
        }

        let cells: Vec<Mutex<ShardCell>> = cells_raw.into_iter().map(Mutex::new).collect();
        let journal = Mutex::new(ShardJournal {
            writer: opened.writer,
            error: None,
        });
        let abort = AtomicBool::new(false);
        let terminals_this_run = AtomicUsize::new(0);
        let next_shard = AtomicUsize::new(0);
        let max_batch = AtomicUsize::new(0);
        let has_journal = journal_path.is_some();

        // The scope runs even when every job resumed: workers still
        // claim each shard to emit its `shard.finished` marker, so a
        // fully-resumed run's trace matches the uninterrupted one.
        let nthreads = self.config.threads.min(shards.len());
        std::thread::scope(|scope| {
            for _ in 0..nthreads {
                let shards = &shards;
                let cells = &cells;
                let resumed_seqs = &resumed_seqs;
                let plan = &plan;
                let snapshot = &snapshot;
                let journal = &journal;
                let abort = &abort;
                let terminals_this_run = &terminals_this_run;
                let next_shard = &next_shard;
                let max_batch = &max_batch;
                let make_oracle = &make_oracle;
                let config = &self.config;
                scope.spawn(move || {
                    let mut oracle = make_oracle();
                    loop {
                        // Adaptive steal granularity: claim a batch of
                        // consecutive shards sized to the remaining
                        // queue depth (deep queue → big batches, few
                        // claim CAS rounds; near the end → single
                        // shards, so stragglers still balance). The
                        // depth read is advisory — over-claiming past
                        // the end is handled below, and which worker
                        // runs which shard never affects the output.
                        let claimed = next_shard.load(Ordering::Relaxed);
                        let remaining = shards.len().saturating_sub(claimed);
                        let want = (remaining / (2 * nthreads)).max(1);
                        let first = next_shard.fetch_add(want, Ordering::SeqCst);
                        if first >= shards.len() || abort.load(Ordering::SeqCst) {
                            return;
                        }
                        let last = (first + want).min(shards.len());
                        ops.counter_add(names::STEAL_BATCH_CLAIMS_TOTAL, 1);
                        ops.counter_add(names::STEAL_BATCH_SHARDS_TOTAL, (last - first) as u64);
                        max_batch.fetch_max(last - first, Ordering::Relaxed);
                        for i in first..last {
                            if abort.load(Ordering::SeqCst) {
                                return;
                            }
                            let mut cell = cells[i].lock().unwrap_or_else(|e| e.into_inner());
                            // One batched key derivation per claimed
                            // shard: every job's cache address up
                            // front, instead of hashing inside the
                            // per-job decision path.
                            let keys: Vec<u64> = shards[i]
                                .iter()
                                .map(|&seq| cache_key(cache_identity, plan.jobs[seq].content_key()))
                                .collect();
                            for (pos, &seq) in shards[i].iter().enumerate() {
                                if resumed_seqs[seq] {
                                    continue;
                                }
                                if abort.load(Ordering::SeqCst) {
                                    break;
                                }
                                let (terminal, poisoned) = decide_sharded_job(
                                    config,
                                    plan,
                                    cache_on,
                                    snapshot,
                                    &cell.local_store,
                                    keys[pos],
                                    &cell.breaker,
                                    &mut oracle,
                                    seq,
                                );
                                if poisoned {
                                    // The unwound oracle's internals are
                                    // suspect; rebuild before the next job.
                                    oracle = make_oracle();
                                }
                                let record = record_of(seq, &terminal);
                                emit_job_events(config, plan, cache_on, &record, &mut cell, i);
                                if has_journal {
                                    // Buffer the record; the journal
                                    // lock is taken only at checkpoint
                                    // boundaries and shard completion.
                                    // The append marker is emitted here
                                    // (not at flush) so the per-shard
                                    // buffer sequence is byte-identical
                                    // to the old per-job path; if a
                                    // flush later faults, the run
                                    // errors out before any buffer
                                    // reaches the main sink.
                                    cell.pending.push(record);
                                    cell.buffer.counter_add("engine_journal_appends_total", 1);
                                    cell.buffer.event(
                                        "engine",
                                        "journal.append",
                                        &[("seq", seq.into())],
                                    );
                                    cell.appended += 1;
                                    if config.checkpoint_every > 0
                                        && cell.appended.is_multiple_of(config.checkpoint_every)
                                    {
                                        flush_shard_pending(
                                            journal, &mut cell, i, true, ops, abort,
                                        );
                                    }
                                }
                                emit_terminal_event(&mut cell, seq, &terminal);
                                if cache_on {
                                    seed_local_store(&mut cell.local_store, keys[pos], &terminal);
                                }
                                cell.results.push((seq, terminal));
                                let done = terminals_this_run.fetch_add(1, Ordering::SeqCst) + 1;
                                if let Some(limit) = config.abort_after {
                                    if done >= limit {
                                        abort.store(true, Ordering::SeqCst);
                                    }
                                }
                            }
                            flush_shard_pending(journal, &mut cell, i, false, ops, abort);
                            cell.buffer
                                .event("engine", "shard.finished", &[("shard", i.into())]);
                        }
                    }
                });
            }
        });

        ops.gauge_set(
            names::STEAL_BATCH_MAX_SHARDS,
            max_batch.load(Ordering::Relaxed) as f64,
        );

        // Flush-and-close before merging; a dead journal means
        // resumability is already lost, so surface it.
        let mut journal = journal.into_inner().unwrap_or_else(|e| e.into_inner());
        journal.writer = None;
        if let Some(e) = journal.error.take() {
            return Err(e);
        }

        // Deterministic merge: shard order, whatever the schedule was.
        let mut breaker_trips = 0usize;
        for cell in cells {
            let cell = cell.into_inner().unwrap_or_else(|e| e.into_inner());
            breaker_trips += cell.breaker.trips();
            cell.buffer.replay(sink);
            for (seq, terminal) in cell.results {
                terminals[seq] = Some(terminal);
            }
        }

        // Every terminal as its canonical journal record, in seq order.
        let records: Vec<JobRecord> = terminals
            .iter()
            .enumerate()
            .filter_map(|(seq, t)| Some(record_of(seq, t.as_ref()?)))
            .collect();
        let completed = records.len() == plan.jobs.len();
        if completed {
            // A completed run's journal is rewritten canonically
            // (records in seq order, checkpoints dropped), making the
            // durable bytes a pure function of the outcomes:
            // independent of thread count, of live append order, and
            // of the run's crash/resume history (modulo the honest
            // `cached` markers on repaired records).
            if let Some(path) = journal_path {
                self.rewrite_journal(storage.as_ref(), path, &header, &records, ops)?;
                sink.counter_add("engine_journal_rewrites_total", 1);
                sink.event(
                    "engine",
                    "journal.canonical",
                    &[("records", records.len().into())],
                );
            }
            // Publish the merged cache atomically: the start-of-run
            // snapshot plus every live success (further unioned with
            // whatever concurrent runs published meanwhile — see
            // `cache::publish`), written to a temp file and renamed
            // over the old cache. Incomplete runs publish nothing, so
            // a crash leaves the cache byte-identical to run start.
            if let Some(path) = &self.config.cache_path {
                let mut entries: BTreeMap<u64, CachedEval> = snapshot.into_iter().collect();
                for r in records.iter().filter(|r| !r.short_circuited) {
                    if let Ok(time) = r.result {
                        let entry = CachedEval {
                            attempts: r.attempts,
                            time,
                        };
                        entries.insert(
                            cache_key(cache_identity, plan.jobs[r.seq].content_key()),
                            entry,
                        );
                    }
                }
                let sync = self.config.sync != SyncPolicy::Never;
                cache::publish(storage.as_ref(), sync, path, &entries)
                    .map_err(|e| storage_fault(ops, "cache.publish", e))?;
                ops.counter_add(names::ENGINE_CACHE_PUBLISHES_TOTAL, 1);
                ops.gauge_set(names::ENGINE_CACHE_PUBLISHED_ENTRIES, entries.len() as f64);
            }
        }

        let results: Vec<(usize, PointOutcome)> = terminals
            .into_iter()
            .enumerate()
            .filter_map(|(seq, t)| Some((seq, t?.outcome)))
            .collect();
        let outcome = if completed {
            Some(sweep.assemble_observed(
                &plan,
                &results,
                &self.config.resilience_policy(),
                sink,
            )?)
        } else {
            None
        };
        for r in &records {
            sink.observe(
                "engine_attempts_per_job",
                ATTEMPTS_PER_JOB_BOUNDS,
                r.attempts as f64,
            );
        }
        let report = RunReport {
            completed,
            resumed,
            breaker_trips,
            ..ledger(&plan, outcome.as_ref(), &records)
        };
        debug_assert!(report.consistent());
        // No `resumed` field: the trace must stay bit-identical across
        // crash/resume histories, so resume telemetry lives on the ops
        // sink.
        sink.event(
            "engine",
            "run.finish",
            &[
                ("completed", report.completed.into()),
                ("attempted", report.attempted.into()),
                ("succeeded", report.succeeded.into()),
                ("skipped", report.skipped.into()),
                ("backfilled", report.backfilled.into()),
                ("retried", report.retried.into()),
                ("oracle_calls", report.oracle_calls.into()),
                ("timeouts", report.timeouts.into()),
                ("short_circuited", report.short_circuited.into()),
                ("quarantined", report.quarantined.into()),
                ("breaker_trips", report.breaker_trips.into()),
                ("cache_hits", report.cache_hits.into()),
            ],
        );
        Ok(RunSummary {
            report,
            plan,
            outcome,
            results,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JobRecord;

    #[test]
    fn empty_plans_are_a_typed_error() {
        assert_eq!(ensure_plan_nonempty(0), Err(Error::EmptyPlan));
        assert_eq!(ensure_plan_nonempty(1), Ok(()));
        // The engine checks before journal/cache creation, so the
        // error text is what a submitter sees instead of a published
        // empty artifact.
        assert!(Error::EmptyPlan.to_string().contains("no jobs"));
    }

    #[test]
    fn panic_message_decodes_common_payloads() {
        let static_str: Box<dyn Any + Send> = Box::new("static boom");
        assert_eq!(panic_message(static_str.as_ref()), "static boom");
        let owned: Box<dyn Any + Send> = Box::new(String::from("owned boom"));
        assert_eq!(panic_message(owned.as_ref()), "owned boom");
        let weird: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(weird.as_ref()), "non-string panic payload");
    }

    #[test]
    fn threads_zero_in_a_spec_means_workers_threads() {
        let mut spec = c2_config::RunnerSpec {
            workers: 3,
            threads: 0,
            ..c2_config::RunnerSpec::default()
        };
        assert_eq!(RunConfig::from_spec(&spec).unwrap().threads, 3);
        spec.threads = 4;
        assert_eq!(RunConfig::from_spec(&spec).unwrap().threads, 4);
        // A directly built configuration has no such fallback.
        let zero = RunConfig {
            threads: 0,
            ..RunConfig::default()
        };
        assert_eq!(
            zero.validate(),
            Err(Error::InvalidConfig("threads must be positive"))
        );
    }

    #[test]
    fn attempt_step_discards_late_results_and_isolates_panics() {
        use c2_bound::{DesignPoint, DesignSpace};
        let job = RefinementJob {
            seq: 0,
            index: [0; 6],
            point: DesignSpace::tiny().point_at([0; 6]),
        };
        let mut slow = |_: &DesignPoint| {
            std::thread::sleep(Duration::from_millis(30));
            Ok(1.0)
        };
        let timed = RunConfig {
            deadline_ms: 5,
            ..RunConfig::default()
        };
        match run_attempt(&timed, &job, 1, &mut slow) {
            Attempt::Failed {
                error,
                timed_out: true,
            } => assert_eq!(error_message(&error), "attempt exceeded the 5 ms deadline"),
            other => panic!("a late result must be discarded, got {other:?}"),
        }
        let untimed = RunConfig::default();
        assert!(matches!(
            run_attempt(&untimed, &job, 1, &mut slow),
            Attempt::Ok(t) if t == 1.0
        ));
        let mut non_physical = |_: &DesignPoint| Ok(-1.0);
        assert!(matches!(
            run_attempt(&timed, &job, 1, &mut non_physical),
            Attempt::Failed {
                timed_out: false,
                ..
            }
        ));
        let mut panicky = |_: &DesignPoint| -> c2_bound::Result<f64> { panic!("boom") };
        match run_attempt(&timed, &job, 1, &mut panicky) {
            Attempt::Panicked(e) => assert_eq!(error_message(&e), "oracle panicked: boom"),
            other => panic!("a panic must be isolated, got {other:?}"),
        }
    }

    #[test]
    fn record_and_terminal_are_inverse() {
        for record in [
            JobRecord {
                seq: 3,
                attempts: 2,
                timeouts: 1,
                result: Ok(7.5),
                short_circuited: false,
                cached: true,
                quarantined: false,
            },
            JobRecord {
                seq: 9,
                attempts: 1,
                timeouts: 0,
                result: Err("oracle panicked: boom".to_string()),
                short_circuited: false,
                cached: false,
                quarantined: true,
            },
            JobRecord {
                seq: 0,
                attempts: 0,
                timeouts: 0,
                result: Err("circuit breaker open: oracle attempt not admitted".to_string()),
                short_circuited: true,
                cached: false,
                quarantined: false,
            },
        ] {
            let t = terminal_of(&record);
            assert_eq!(record_of(record.seq, &t), record);
        }
    }

    /// Counting sink: captures `counter_add` totals, drops the rest.
    #[derive(Default)]
    struct CountSink(Mutex<HashMap<String, u64>>);

    impl CountSink {
        fn get(&self, name: &str) -> u64 {
            *self.0.lock().unwrap().get(name).unwrap_or(&0)
        }
    }

    impl MetricsSink for CountSink {
        fn counter_add(&self, name: &str, delta: u64) {
            *self.0.lock().unwrap().entry(name.to_string()).or_default() += delta;
        }
        fn gauge_set(&self, _: &str, _: f64) {}
        fn observe(&self, _: &str, _: &[f64], _: f64) {}
        fn event(&self, _: &str, _: &str, _: &[(&str, c2_obs::FieldValue)]) {}
    }

    fn tight_policy() -> BreakerPolicy {
        BreakerPolicy {
            trip_threshold: 2,
            cooldown: 2,
            probes: 1,
        }
    }

    fn rec(seq: usize, attempts: usize, ok: bool) -> JobRecord {
        JobRecord {
            seq,
            attempts,
            timeouts: 0,
            result: if ok { Ok(1.0) } else { Err("boom".to_string()) },
            short_circuited: false,
            cached: false,
            quarantined: false,
        }
    }

    /// Mixed success/failure history across two shards, busy enough to
    /// trip the tight breaker at least once on shard 0.
    fn history(nshards: usize) -> Vec<JobRecord> {
        (0..12)
            .map(|seq| rec(seq, 1 + seq % 3, seq % 4 != 0))
            .inspect(|r| {
                // Each record lands in a real shard of the partition.
                assert!(shard_of(r.seq, nshards) < nshards);
            })
            .collect()
    }

    /// Replay every record of a shard through a fresh breaker — the
    /// ground truth `restore_shard_breakers` must reproduce.
    fn full_replay(
        policy: BreakerPolicy,
        nshards: usize,
        records: &[JobRecord],
    ) -> Vec<CircuitBreaker> {
        let mut breakers: Vec<CircuitBreaker> = (0..nshards)
            .map(|_| CircuitBreaker::new(policy).unwrap())
            .collect();
        for r in records {
            replay_breaker(&mut breakers[shard_of(r.seq, nshards)], r);
        }
        for b in &mut breakers {
            let _ = b.take_transition();
        }
        breakers
    }

    #[test]
    fn restore_without_checkpoints_matches_full_replay() {
        let nshards = 2;
        let records = history(nshards);
        let want = full_replay(tight_policy(), nshards, &records);
        let ops = CountSink::default();
        let got = restore_shard_breakers(tight_policy(), nshards, &records, &[], &ops).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.snapshot(), w.snapshot());
        }
        assert_eq!(
            ops.get(names::ENGINE_RESUME_TAIL_REPLAYED_TOTAL),
            records.len() as u64,
            "with no checkpoint every record is tail"
        );
    }

    #[test]
    fn checkpoint_bounds_the_replay_tail() {
        let nshards = 2;
        let records = history(nshards);
        let want = full_replay(tight_policy(), nshards, &records);

        // Checkpoint shard 0 after its first 3 records: replay exactly
        // that prefix to capture the state a live run persisted.
        let shard0: Vec<&JobRecord> = records
            .iter()
            .filter(|r| shard_of(r.seq, nshards) == 0)
            .collect();
        assert!(shard0.len() > 3, "history too small for the test");
        let mut prefix = CircuitBreaker::new(tight_policy()).unwrap();
        for r in &shard0[..3] {
            replay_breaker(&mut prefix, r);
        }
        let ckpt = Checkpoint {
            shard: 0,
            covered: 3,
            snapshot: prefix.snapshot(),
        };

        let ops = CountSink::default();
        let got = restore_shard_breakers(tight_policy(), nshards, &records, &[ckpt], &ops).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.snapshot(), w.snapshot());
        }
        // Shard 0 replays only its tail; shard 1 (no checkpoint)
        // replays everything.
        let shard1_len = records.len() - shard0.len();
        assert_eq!(
            ops.get(names::ENGINE_RESUME_TAIL_REPLAYED_TOTAL),
            (shard0.len() - 3 + shard1_len) as u64
        );
    }

    #[test]
    fn stale_checkpoint_covering_more_than_the_journal_is_ignored() {
        let nshards = 2;
        let records = history(nshards);
        let want = full_replay(tight_policy(), nshards, &records);
        let shard0_len = records
            .iter()
            .filter(|r| shard_of(r.seq, nshards) == 0)
            .count();
        // A checkpoint claiming to cover more records than the journal
        // holds outlived a truncation repair; trusting it would skip
        // records that no longer exist.
        let stale = Checkpoint {
            shard: 0,
            covered: shard0_len + 5,
            snapshot: CircuitBreaker::new(tight_policy()).unwrap().snapshot(),
        };
        let ops = CountSink::default();
        let got =
            restore_shard_breakers(tight_policy(), nshards, &records, &[stale], &ops).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.snapshot(), w.snapshot());
        }
        assert_eq!(
            ops.get(names::ENGINE_RESUME_TAIL_REPLAYED_TOTAL),
            records.len() as u64,
            "the stale checkpoint must not shorten the tail"
        );
    }

    #[test]
    fn latest_valid_checkpoint_wins() {
        let nshards = 1;
        let records: Vec<JobRecord> = (0..8).map(|seq| rec(seq, 1, seq % 3 != 0)).collect();
        let want = full_replay(tight_policy(), nshards, &records);
        // Two valid checkpoints; the one covering more records should
        // be chosen, leaving the shorter tail.
        let mut ckpts = Vec::new();
        for covered in [2usize, 6] {
            let mut b = CircuitBreaker::new(tight_policy()).unwrap();
            for r in &records[..covered] {
                replay_breaker(&mut b, r);
            }
            ckpts.push(Checkpoint {
                shard: 0,
                covered,
                snapshot: b.snapshot(),
            });
        }
        let ops = CountSink::default();
        let got = restore_shard_breakers(tight_policy(), nshards, &records, &ckpts, &ops).unwrap();
        assert_eq!(got[0].snapshot(), want[0].snapshot());
        assert_eq!(ops.get(names::ENGINE_RESUME_TAIL_REPLAYED_TOTAL), 2);
    }
}
