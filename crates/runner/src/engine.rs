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
//! * every terminal outcome is journaled to JSONL, each shard appending
//!   its records every `checkpoint_every` records (fsync per the
//!   [`SyncPolicy`]); a killed run resumes idempotently — a torn
//!   journal tail is truncated away before appending, journaled jobs
//!   are not re-run, and the merged sweep is bit-identical to an
//!   uninterrupted one (all fault injection is keyed to stable job
//!   identities, never to call order);
//! * all storage I/O flows through the [`Storage`] trait, so a
//!   [`ChaosPlan`] can inject torn writes, short writes, `ENOSPC`, and
//!   crash-at-Nth-write underneath the engine — the crash-matrix
//!   harness proves resume correctness at every write the engine
//!   performs;
//! * a [`RunReport`] accounts for every job:
//!   `attempted == succeeded + skipped + backfilled`;
//! * every run is one sweep loop (`Sweep`: open, rounds, finish): a
//!   full sweep is one round over every job, and surrogate screening
//!   ([`crate::screen`]) runs one round per acquisition batch, so both
//!   get every layer above.
//!
//! ## Resume bit-identity (DESIGN.md §10–§11)
//!
//! Every job splits into a pure **decision** (`decide_sharded_job`,
//! which runs the oracle against a *clone* of the shard breaker, emits
//! nothing and returns the job's [`JobRecord`]) and a deterministic
//! **emission** (`step_record`, which drives the real breaker and
//! emits the canonical event/metric sequence for that record). Live
//! jobs run both halves; resumed jobs re-run only the emission half on
//! their journal record. The summary's per-job outcomes are decoded
//! from the same records ([`JobRecord::point_outcome`]). Metrics,
//! traces and outcomes of a resumed run are therefore identical to the
//! uninterrupted run's *by construction* — the same functions produced
//! them from the same records.
//!
//! Operational metrics that legitimately differ between a clean run
//! and a crash/resume run (tails truncated, records replayed, caches
//! republished — see [`c2_obs::names`]) are
//! routed to a separate *ops* sink and stay out of the bit-compared
//! artifacts.

use crate::backoff::BackoffPolicy;
use crate::breaker::{Admission, BreakerPolicy, BreakerState, CircuitBreaker};
use crate::cache::{self, cache_key, CachedEval};
use crate::chaos::{ChaosPlan, ChaosStorage};
use crate::journal::{
    self, error_message, plan_fingerprint, JobRecord, JournalHeader, JournalWriter, SyncPolicy,
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
    /// device. The default, [`SyncPolicy::OnCheckpoint`], syncs every
    /// `checkpoint_every` records and before atomic renames.
    pub sync: SyncPolicy,
    /// The flush and fsync cadence: each shard appends its pending
    /// journal records every this many records (and when it finishes),
    /// fsyncing there under [`SyncPolicy::OnCheckpoint`]. 0 appends
    /// only when the shard finishes.
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
    /// Jobs whose outcome came from the journal, not a re-run.
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
    /// terminated). Each is its journal record's
    /// [`JobRecord::point_outcome`], so a dead job's error is
    /// [`c2_bound::Error::Simulation`] whether it ran live or resumed.
    pub results: Vec<(usize, PointOutcome)>,
}

/// The supervised job-execution engine.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    config: RunConfig,
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
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
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
enum Attempt {
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

/// One oracle attempt of `job`: sleep the content-keyed backoff before
/// a retry, then evaluate under `catch_unwind` and classify, discarding a
/// result that took longer than `deadline_ms` (timed from after the
/// sleep). The deadline is checked when the oracle returns, so an
/// oracle that never returns blocks the calling thread.
fn run_attempt<O: Oracle>(
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
fn ledger<'a>(
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
    fn storage(&self) -> Box<dyn Storage> {
        match &self.config.chaos {
            Some(plan) if !plan.is_none() => Box::new(
                ChaosStorage::new(Box::new(DiskStorage), *plan)
                    .expect("chaos plan validated by RunConfig::validate"),
            ),
            _ => Box::new(DiskStorage),
        }
    }

    /// Run the refinement stage of `sweep` under supervision.
    ///
    /// `sweep` is any [`BackendSweep`] — the CPU-CMP [`c2_bound::Aps`]
    /// or the GPU-SM backend; the engine's journaling, caching, retry
    /// and resume machinery is backend-agnostic. A non-default
    /// backend's identity is bound into the journal header (and thus
    /// every cache address), so journals and caches can never be
    /// cross-served between backends.
    ///
    /// `make_oracle` constructs one oracle per worker thread (oracles
    /// need not be `Send`; they are built where they run). When
    /// `journal` is given, every terminal outcome is journaled
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
        self.run_aps_full(
            sweep,
            make_oracle,
            journal_path,
            resume,
            &NullSink,
            &NullSink,
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

/// Shared (journal, abort) state of a sharded run.
struct ShardJournal {
    writer: Option<JournalWriter>,
    error: Option<Error>,
}

/// Per-shard mutable state, claimed whole by one worker at a time:
/// the shard's breaker, its metric buffer and its records. It holds no
/// evaluation memo; a job's cache lookup reads only the start-of-run
/// snapshot.
struct ShardCell {
    breaker: CircuitBreaker,
    buffer: BufferSink,
    /// The records this run decided live, in the shard's `seq` order.
    results: Vec<JobRecord>,
    /// Records of this shard present in the journal (resumed ones
    /// counted during setup, live ones as they are decided) — the
    /// `checkpoint_every` cadence counter, so resume keeps the cadence
    /// a clean run had.
    appended: usize,
    /// How many of `results` have been handed to the journal. The
    /// worker appends the rest under **one** journal lock per
    /// `checkpoint_every` boundary (and once at shard completion)
    /// instead of locking per job, so the global journal mutex stops
    /// serializing the hot path. A crash loses at most one shard's
    /// unflushed tail, which resume simply re-runs; completed runs
    /// rewrite the journal canonically, so the durable bytes are
    /// unchanged.
    flushed: usize,
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

/// Decide one job's journal record inside a shard, **emitting
/// nothing**: the oracle runs against a *clone* of the shard breaker,
/// so the real breaker and the sinks are untouched. Errors are reduced
/// through [`error_message`], exactly as the journal stores them. The
/// returned `bool` is the panic-poison flag: `true` means the oracle
/// unwound and the worker must rebuild it before the next job.
///
/// [`step_record`] later replays the record through the real breaker
/// — the identical function that replays *resumed* records, which is
/// what makes a resumed run's artifacts bit-identical to a clean run's
/// by construction (DESIGN.md §10–§11). A deadline expiry is decided
/// here, once, and journaled like any other failure, so replay never
/// re-times it. When the run has a cache, the first attempt looks the
/// job up in `snapshot` at its address under `cache_identity`; nothing
/// else is memoized, because no plan holds two jobs with one content
/// key.
fn decide_sharded_job<O: Oracle>(
    config: &RunConfig,
    plan: &ApsPlan,
    snapshot: &HashMap<u64, CachedEval>,
    cache_identity: u64,
    breaker: &CircuitBreaker,
    oracle: &mut O,
    seq: usize,
) -> (JobRecord, bool) {
    let job = &plan.jobs[seq];
    // A job that ended on its own attempts: not cached, not
    // short-circuited, not quarantined.
    let live = |attempts, result: c2_bound::Result<f64>, timeouts| JobRecord {
        seq,
        attempts,
        timeouts,
        result: result.map_err(|e| error_message(&e)),
        short_circuited: false,
        cached: false,
        quarantined: false,
    };
    let mut probe = breaker.clone();
    let mut attempt = 1usize;
    let mut timeouts = 0usize;
    loop {
        if probe.admit() == Admission::ShortCircuit {
            let refused = c2_bound::Error::Simulation(
                "circuit breaker open: oracle attempt not admitted".to_string(),
            );
            let record = JobRecord {
                short_circuited: true,
                ..live(attempt - 1, Err(refused), timeouts)
            };
            return (record, false);
        }
        if attempt == 1 && config.cache_path.is_some() {
            // Consult the start-of-run snapshot. An entry whose attempt
            // history no live run under this policy could produce —
            // more attempts than allowed, or a replay the shard's
            // breaker would refuse mid-way — is demoted to a miss and
            // evaluated live.
            let hit = snapshot
                .get(&cache_key(cache_identity, job.content_key()))
                .copied()
                .filter(|h| h.attempts <= config.max_attempts && replayable(&probe, h.attempts));
            if let Some(hit) = hit {
                let record = JobRecord {
                    cached: true,
                    ..live(hit.attempts, Ok(hit.time), 0)
                };
                return (record, false);
            }
        }
        match run_attempt(config, job, attempt, oracle) {
            Attempt::Ok(t) => return (live(attempt, Ok(t), timeouts), false),
            // Panic isolation: quarantine the job at this attempt (no
            // retries — the panic is keyed to the job, so re-running it
            // would panic again) and tell the caller to rebuild the
            // poisoned oracle.
            Attempt::Panicked(e) => {
                let record = JobRecord {
                    quarantined: true,
                    ..live(attempt, Err(e), timeouts)
                };
                return (record, true);
            }
            Attempt::Failed { error, timed_out } => {
                timeouts += usize::from(timed_out);
                probe.on_failure();
                if attempt < config.max_attempts {
                    attempt += 1;
                } else {
                    return (live(attempt, Err(error), timeouts), false);
                }
            }
        }
    }
}

/// Replay one job record through the shard's **real** breaker,
/// emitting its attempt-level event/metric sequence into the shard
/// buffer (the first part of [`step_record`]).
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
        if i == 1 && config.cache_path.is_some() {
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

/// The whole per-record step of a shard, one function for resumed
/// records (replayed from the journal) and live ones (just decided by
/// [`decide_sharded_job`]), so the two emit identical artifacts by
/// construction: the record's job events ([`emit_job_events`]), the
/// `journal.append` marker when the run journals (`journaled`; it
/// also advances the `checkpoint_every` cadence counter), and the
/// `job.terminal` event.
fn step_record(
    config: &RunConfig,
    plan: &ApsPlan,
    journaled: bool,
    record: &JobRecord,
    cell: &mut ShardCell,
    shard: usize,
) {
    let seq = record.seq;
    emit_job_events(config, plan, record, cell, shard);
    if journaled {
        // Emitted when the record is decided, not when it is flushed,
        // so the shard's buffer sequence does not depend on the
        // flush cadence.
        cell.buffer.counter_add("engine_journal_appends_total", 1);
        cell.buffer
            .event("engine", "journal.append", &[("seq", seq.into())]);
        cell.appended += 1;
    }
    let mut fields: Vec<(&str, c2_obs::FieldValue)> = vec![
        ("seq", seq.into()),
        ("attempts", record.attempts.into()),
        ("timeouts", record.timeouts.into()),
        ("ok", record.result.is_ok().into()),
        ("short_circuited", record.short_circuited.into()),
        ("cached", record.cached.into()),
    ];
    if record.quarantined {
        fields.push(("quarantined", true.into()));
    }
    cell.buffer.event("engine", "job.terminal", &fields);
}

/// Write a shard's not-yet-flushed records under a single journal
/// lock, then fsync when `sync` (a `checkpoint_every` boundary under
/// [`SyncPolicy::OnCheckpoint`]). Called when the shard's cadence
/// counter crosses a `checkpoint_every` multiple and once when the
/// worker finishes the shard, so the lock is taken
/// O(jobs / checkpoint_every) times instead of once per job. A storage
/// fault poisons the journal and aborts the run; the remaining records
/// are never written (the run returns the error before any buffer
/// merges).
fn flush_shard(
    journal: &Mutex<ShardJournal>,
    cell: &mut ShardCell,
    sync: bool,
    ops: &dyn MetricsSink,
    abort: &AtomicBool,
) {
    let from = std::mem::replace(&mut cell.flushed, cell.results.len());
    let pending = &cell.results[from..];
    if pending.is_empty() {
        return;
    }
    let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
    if j.error.is_some() {
        return;
    }
    let mut fault: Option<(&'static str, Error)> = None;
    if let Some(w) = j.writer.as_mut() {
        for record in pending {
            if let Err(e) = w.record(record) {
                fault = Some(("journal.append", e));
                break;
            }
        }
        if fault.is_none() && sync {
            fault = w.sync().err().map(|e| ("journal.sync", e));
        }
    }
    if let Some((op, e)) = fault {
        j.error = Some(storage_fault(ops, op, e));
        abort.store(true, Ordering::SeqCst);
    }
}

impl SweepRunner {
    /// [`SweepRunner::run_aps_observed`] with a second, **operational**
    /// sink. `sink` receives the deterministic, resume-invariant run
    /// artifacts; `ops` receives recovery and durability telemetry
    /// (torn tails truncated, records replayed, cache publications,
    /// storage faults — the [`c2_obs::names`]
    /// constants) that legitimately differs between a clean run and a
    /// crash/resume run and must stay out of bit-compared output.
    ///
    /// The engine is deterministic and sharded (DESIGN.md §10). The
    /// plan is partitioned into shards by a pure function of its size;
    /// `threads` worker threads claim whole shards work-stealing-style
    /// and run each shard's jobs sequentially in `seq` order against a
    /// per-shard circuit breaker and content-keyed backoff. Journal
    /// records, metrics, and trace events are buffered per shard and
    /// merged in shard order after the join, and a completed run's
    /// journal is rewritten canonically (records in `seq` order via
    /// temp-file + rename) — so every artifact is bit-identical for
    /// every thread count, and identical to the `threads: 1` serial
    /// execution. A `deadline_ms` expiry depends on wall time, so it
    /// is the one decision that can differ between two clean runs;
    /// once journaled, resume replays it. A resumed journal's records
    /// replay through the same per-record step as live ones, into
    /// fresh per-shard breakers.
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
        let mut run = Sweep::open(self, sweep, None, "sweep", journal_path, resume, sink, ops)?;
        let every: Vec<usize> = (0..run.plan.jobs.len()).collect();
        run.round(&every, &make_oracle)?;
        let completed = run.records.iter().all(Option::is_some);
        let policy = self.config.resilience_policy();
        run.finish(completed, |plan, results| {
            sweep.assemble_observed(plan, results, &policy, sink)
        })
    }
}

/// One supervised sweep in progress, the loop every run goes through:
/// [`Sweep::open`] plans it and opens its cache snapshot, journal and
/// shards; each [`Sweep::round`] decides a selection of the plan's
/// jobs on the sharded workers; [`Sweep::finish`] merges the shards,
/// publishes the journal and cache, and reports. A full sweep is one
/// round over every job; screening (`crate::screen`) runs a round per
/// acquisition batch.
pub(crate) struct Sweep<'r> {
    config: &'r RunConfig,
    storage: Box<dyn Storage>,
    /// The refinement plan being swept.
    pub(crate) plan: ApsPlan,
    header: JournalHeader,
    journal_path: Option<&'r Path>,
    cache_identity: u64,
    /// Read-only cache snapshot, taken once at run start.
    snapshot: HashMap<u64, CachedEval>,
    /// Whether a completed run publishes the cache even if it adds no
    /// entry: the file was missing or held no entry, or it held lines
    /// the load skipped.
    cache_repair: bool,
    shards: Vec<Vec<usize>>,
    cells: Vec<Mutex<ShardCell>>,
    journal: Mutex<ShardJournal>,
    /// Resumed records no round has selected yet, by `seq`.
    journaled: Vec<Option<JobRecord>>,
    /// Every record a round has stepped, by `seq`.
    pub(crate) records: Vec<Option<JobRecord>>,
    /// Records the journal held when the run resumed.
    pub(crate) resumed: usize,
    abort: AtomicBool,
    terminals_this_run: AtomicUsize,
    sink: &'r dyn MetricsSink,
    ops: &'r dyn MetricsSink,
}

impl<'r> Sweep<'r> {
    /// Plan `sweep` and open the run. The journal header binds the
    /// plan to the run's scenario, the sweep's backend and `extra`
    /// (screening's parameter fingerprint); an empty plan is rejected
    /// before any file is touched. The cache snapshot is read once.
    /// With `resume` an existing journal is reopened for appending:
    /// one pinned to a different sweep is rejected (`kind` names the
    /// sweep in the error), a torn tail is cut off *before* appending
    /// so a second crash cannot concatenate onto it, and every record
    /// must name a job of the plan and carry at most `max_attempts`
    /// attempts (more is a history no run under this configuration
    /// writes, and replay walks every attempt). Its records wait for
    /// the round that selects them. Otherwise a fresh journal is
    /// created.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn open(
        runner: &'r SweepRunner,
        sweep: &dyn BackendSweep,
        extra: Option<u64>,
        kind: &str,
        journal_path: Option<&'r Path>,
        resume: bool,
        sink: &'r dyn MetricsSink,
        ops: &'r dyn MetricsSink,
    ) -> Result<Self> {
        let config = &runner.config;
        let storage = runner.storage();
        let plan = sweep.plan_observed(sink)?;
        ensure_plan_nonempty(plan.jobs.len())?;
        let bindings = [
            config.scenario_fingerprint,
            journal::backend_fingerprint(sweep.identity()),
            extra,
        ];
        let header = JournalHeader {
            jobs: plan.jobs.len(),
            fingerprint: bindings
                .into_iter()
                .fold(plan_fingerprint(&plan), journal::bind_fingerprint),
        };
        // Cache addresses bind the same identity the journal header
        // pins (plan ⊕ scenario), further bound to the positional
        // path's assembled-scenario fingerprint — oracle results
        // depend on workload/model/size, which the content key (pure
        // grid geometry) cannot carry, so a shared cache file must
        // miss, never mis-serve, across different runs' work.
        let cache_identity =
            journal::bind_fingerprint(header.fingerprint, config.cache_fingerprint);
        // Read-only cache snapshot, taken once at run start. The run
        // publishes its merged cache atomically at completion; a crash
        // anywhere leaves the cache file byte-identical to run start,
        // so a resumed run loads exactly this snapshot again — which
        // is what keeps the snapshot gauge (and every cache hit/miss)
        // resume-invariant.
        let (snapshot, cache_repair) = match &config.cache_path {
            None => (HashMap::new(), false),
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
                let repair = loaded.snapshot.is_empty() || loaded.skipped > 0;
                (loaded.snapshot, repair)
            }
        };

        let shards = partition(plan.jobs.len());
        let (writer, resumed_records) = open_journal(
            config,
            storage.as_ref(),
            journal_path,
            resume,
            &header,
            kind,
            ops,
        )?;
        let mut journaled: Vec<Option<JobRecord>> = vec![None; plan.jobs.len()];
        let resumed = resumed_records.as_ref().map_or(0, Vec::len);
        if let Some(records) = resumed_records {
            // Recovery telemetry goes to the ops sink: a clean run
            // replays nothing, and the main sink's artifacts must not
            // betray the crash history.
            ops.counter_add("engine_journal_replayed_total", resumed as u64);
            ops.event(
                "engine",
                "journal.replayed",
                &[("records", resumed.into()), ("shards", shards.len().into())],
            );
            for record in records {
                let seq = record.seq;
                journaled[seq] = Some(record);
            }
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

        let mut cells = Vec::with_capacity(shards.len());
        for (i, shard) in shards.iter().enumerate() {
            let cell = ShardCell {
                breaker: CircuitBreaker::new(config.breaker)?,
                buffer: BufferSink::new(),
                results: Vec::new(),
                appended: 0,
                flushed: 0,
            };
            // Emitted at construction (not by the worker) so it
            // precedes the resumed-record events stepped into the
            // buffer by the rounds.
            cell.buffer.event(
                "engine",
                "shard.started",
                &[("shard", i.into()), ("jobs", shard.len().into())],
            );
            cells.push(Mutex::new(cell));
        }

        Ok(Sweep {
            config,
            storage,
            records: vec![None; plan.jobs.len()],
            plan,
            header,
            journal_path,
            cache_identity,
            snapshot,
            cache_repair,
            shards,
            cells,
            journal: Mutex::new(ShardJournal {
                writer,
                error: None,
            }),
            journaled,
            resumed,
            abort: AtomicBool::new(false),
            terminals_this_run: AtomicUsize::new(0),
            sink,
            ops,
        })
    }

    /// Whether the run stopped early: `abort_after` was reached or a
    /// journal flush faulted.
    pub(crate) fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// Decide the jobs in `selected` that no earlier round decided.
    ///
    /// A selected job's resumed record steps first, in `seq` order,
    /// through its shard (shard membership is a pure function of
    /// `seq`) by the step live records take. Resumed records are a
    /// prefix of each shard's selection (a shard appends in `seq`
    /// order), so each shard sees its records in the order a clean run
    /// stepped them. Then the sharded workers decide the rest: every
    /// shard is claimed, runs its selected jobs in `seq` order, flushes
    /// at the `checkpoint_every` cadence and when it finishes, and
    /// emits `shard.finished`. The round's records then join
    /// [`Sweep::records`]. A journal flush fault is returned.
    pub(crate) fn round<O, B>(&mut self, selected: &[usize], make_oracle: &B) -> Result<()>
    where
        O: Oracle,
        B: Fn() -> O + Sync,
    {
        let mut wanted = vec![false; self.plan.jobs.len()];
        for &seq in selected {
            wanted[seq] = true;
        }
        let config = self.config;
        for seq in (0..wanted.len()).filter(|&seq| wanted[seq]) {
            if let Some(record) = self.journaled[seq].take() {
                let si = shard_of(seq, self.shards.len());
                let cell = self.cells[si].get_mut().unwrap_or_else(|e| e.into_inner());
                step_record(config, &self.plan, true, &record, cell, si);
                self.records[seq] = Some(record);
            }
        }

        let shards = &self.shards;
        let cells = &self.cells;
        let records = &self.records;
        let wanted = &wanted;
        let plan = &self.plan;
        let snapshot = &self.snapshot;
        let journal = &self.journal;
        let abort = &self.abort;
        let terminals_this_run = &self.terminals_this_run;
        let cache_identity = self.cache_identity;
        let ops = self.ops;
        let next_shard = AtomicUsize::new(0);
        let next_shard = &next_shard;
        let has_journal = self.journal_path.is_some();
        // Every shard is claimed even when none of its jobs is left to
        // decide, so each emits its `shard.finished` marker and a
        // fully-resumed run's trace matches the uninterrupted one.
        std::thread::scope(|scope| {
            for _ in 0..config.threads.min(shards.len()) {
                scope.spawn(move || {
                    let mut oracle = make_oracle();
                    loop {
                        // Workers claim one whole shard at a time; which
                        // worker runs which shard never affects the
                        // output.
                        let i = next_shard.fetch_add(1, Ordering::SeqCst);
                        if i >= shards.len() || abort.load(Ordering::SeqCst) {
                            return;
                        }
                        let mut cell = cells[i].lock().unwrap_or_else(|e| e.into_inner());
                        for &seq in &shards[i] {
                            if !wanted[seq] || records[seq].is_some() {
                                continue; // not selected, or resumed
                            }
                            if abort.load(Ordering::SeqCst) {
                                break;
                            }
                            let (record, poisoned) = decide_sharded_job(
                                config,
                                plan,
                                snapshot,
                                cache_identity,
                                &cell.breaker,
                                &mut oracle,
                                seq,
                            );
                            if poisoned {
                                // The unwound oracle's internals are
                                // suspect; rebuild before the next job.
                                oracle = make_oracle();
                            }
                            step_record(config, plan, has_journal, &record, &mut cell, i);
                            cell.results.push(record);
                            // The journal lock is taken only at cadence
                            // boundaries and shard completion; if a flush
                            // faults, the run errors out before any
                            // buffer reaches the main sink.
                            if has_journal
                                && config.checkpoint_every > 0
                                && cell.appended.is_multiple_of(config.checkpoint_every)
                            {
                                let sync = config.sync == SyncPolicy::OnCheckpoint;
                                flush_shard(journal, &mut cell, sync, ops, abort);
                            }
                            let done = terminals_this_run.fetch_add(1, Ordering::SeqCst) + 1;
                            if let Some(limit) = config.abort_after {
                                if done >= limit {
                                    abort.store(true, Ordering::SeqCst);
                                }
                            }
                        }
                        flush_shard(journal, &mut cell, false, ops, abort);
                        cell.buffer
                            .event("engine", "shard.finished", &[("shard", i.into())]);
                    }
                });
            }
        });

        // Every claimed shard flushed when it finished: the round's
        // records join the run's, and the next round flushes afresh.
        for cell in &mut self.cells {
            let cell = cell.get_mut().unwrap_or_else(|e| e.into_inner());
            cell.flushed = 0;
            for record in cell.results.drain(..) {
                let seq = record.seq;
                self.records[seq] = Some(record);
            }
        }
        // A dead journal means resumability is already lost, so
        // surface it.
        match self
            .journal
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .error
            .take()
        {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Close the run. The journal is closed and the shard buffers
    /// merge into the sink in shard order, whatever the schedule was.
    /// When `completed`, the journal is rewritten canonically, the
    /// cache is published and `assemble` folds the outcome from every
    /// stepped record's outcome; then the ledger and `run.finish`.
    pub(crate) fn finish(
        self,
        completed: bool,
        assemble: impl FnOnce(&ApsPlan, &[(usize, PointOutcome)]) -> c2_bound::Result<ApsOutcome>,
    ) -> Result<RunSummary> {
        let Sweep {
            config,
            storage,
            plan,
            header,
            journal_path,
            cache_identity,
            snapshot,
            cache_repair,
            cells,
            journal,
            records,
            resumed,
            sink,
            ops,
            ..
        } = self;
        // Flush-and-close before anything is merged or rewritten.
        drop(journal);

        let mut breaker_trips = 0usize;
        for cell in cells {
            let cell = cell.into_inner().unwrap_or_else(|e| e.into_inner());
            breaker_trips += cell.breaker.trips();
            cell.buffer.replay(sink);
        }

        // Every stepped record, in seq order.
        let records: Vec<JobRecord> = records.into_iter().flatten().collect();
        if completed {
            // A completed run's journal is rewritten canonically
            // (records in seq order via temp file and rename, legacy
            // `c2ckpt` lines dropped), making the durable bytes a pure
            // function of the outcomes: independent of thread count,
            // of live append order, of round structure, and of the
            // run's crash/resume history (modulo the honest `cached`
            // markers on repaired records).
            if let Some(path) = journal_path {
                journal::rewrite_canonical_with(
                    storage.as_ref(),
                    config.sync,
                    path,
                    &header,
                    &records,
                )
                .map_err(|e| storage_fault(ops, "journal.rewrite", e))?;
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
            // a crash leaves the cache byte-identical to run start. A
            // run whose successes the snapshot already holds (a warm
            // run) publishes nothing either: the file holds them.
            if let Some(path) = &config.cache_path {
                let live: Vec<(u64, CachedEval)> = records
                    .iter()
                    .filter(|r| !r.short_circuited)
                    .filter_map(|r| {
                        let entry = CachedEval {
                            attempts: r.attempts,
                            time: *r.result.as_ref().ok()?,
                        };
                        let key = cache_key(cache_identity, plan.jobs[r.seq].content_key());
                        Some((key, entry))
                    })
                    .collect();
                let unchanged = !cache_repair
                    && live
                        .iter()
                        .all(|(key, entry)| snapshot.get(key) == Some(entry));
                if !unchanged {
                    let mut entries: BTreeMap<u64, CachedEval> = snapshot.into_iter().collect();
                    entries.extend(live);
                    let sync = config.sync != SyncPolicy::Never;
                    cache::publish(storage.as_ref(), sync, path, &entries)
                        .map_err(|e| storage_fault(ops, "cache.publish", e))?;
                    ops.counter_add(names::ENGINE_CACHE_PUBLISHES_TOTAL, 1);
                    ops.gauge_set(names::ENGINE_CACHE_PUBLISHED_ENTRIES, entries.len() as f64);
                }
            }
        }

        let results: Vec<(usize, PointOutcome)> =
            records.iter().map(|r| (r.seq, r.point_outcome())).collect();
        let outcome = if completed {
            Some(assemble(&plan, &results)?)
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

/// Open the run's journal at `path` (no journal when `None`) for
/// [`Sweep::open`]: the writer new records append through, and a
/// reopened journal's records sorted by `seq` (`None` when a fresh
/// journal was created).
fn open_journal(
    config: &RunConfig,
    storage: &dyn Storage,
    path: Option<&Path>,
    resume: bool,
    header: &JournalHeader,
    kind: &str,
    ops: &dyn MetricsSink,
) -> Result<(Option<JournalWriter>, Option<Vec<JobRecord>>)> {
    let Some(path) = path else {
        return Ok((None, None));
    };
    if !(resume && path.exists()) {
        let writer = JournalWriter::create_with(storage, config.sync, path, header)?;
        return Ok((Some(writer), None));
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
    let mut records = contents.records;
    records.sort_by_key(|r| r.seq);
    for r in &records {
        if r.seq >= header.jobs {
            return Err(Error::Journal(format!(
                "journal record seq {} out of range",
                r.seq
            )));
        }
        if r.attempts > config.max_attempts {
            return Err(Error::Journal(format!(
                "journal record seq {} has {} attempts, more than max_attempts {}",
                r.seq, r.attempts, config.max_attempts
            )));
        }
    }
    let writer = JournalWriter::append_with(storage, config.sync, path)?;
    Ok((Some(writer), Some(records)))
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
