//! Supervised, resumable job-execution engine for C2-Bound APS/DSE
//! sweeps.
//!
//! The core crate's APS pipeline ([`c2_bound::Aps`]) decomposes its
//! refinement stage into independent jobs; this crate executes those
//! jobs under supervision instead of a bare sequential loop:
//!
//! * [`engine::SweepRunner`] — the deterministic sharded engine:
//!   retries, per-attempt deadlines (a late attempt is journaled as a
//!   failure), panic quarantine, and a ledger that accounts for every
//!   job;
//! * [`backoff::BackoffPolicy`] — exponential retry backoff with
//!   deterministic jitter (resume replays the same schedule);
//! * [`breaker::CircuitBreaker`] — one per shard: trips after
//!   consecutive oracle failures, short-circuits jobs to analytic
//!   backfill while open, and probes half-open before trusting the
//!   oracle again;
//! * [`journal`] — a JSONL journal of terminal outcomes, one
//!   [`JobRecord`] per job: the engine decides each job straight into
//!   its record, and a killed sweep resumes idempotently by replaying
//!   every record through fresh per-shard breakers, so the merged
//!   result — outcomes included — is identical to an uninterrupted
//!   run;
//! * [`shard`] — the partition behind `RunConfig::threads`: whole
//!   shards are work-stolen by OS threads, per-shard breaker/backoff
//!   state is schedule-invariant, and per-shard outputs merge in shard
//!   order, so the journal, metrics, and outcome are bit-identical for
//!   every thread count;
//! * [`cache`] — a content-addressed evaluation cache keyed by
//!   (run identity fingerprint, design-point content key) that
//!   memoizes oracle results across runs, `--resume` included; the
//!   identity binds the plan and scenario (or positional-workload)
//!   fingerprints, so a shared cache file can only miss, never
//!   mis-serve, across different sweeps;
//! * [`screen`] — active-learning surrogate screening: a committee of
//!   `c2-ann` MLPs trained online during the sweep routes only
//!   high-uncertainty candidates to the true oracle, with a
//!   deterministic acquisition rule so journals and outcomes stay
//!   bit-identical across thread counts and kill/resume histories.
//!
//! ```
//! use c2_bound::{Aps, C2BoundModel, DesignPoint, DesignSpace};
//! use c2_runner::{RunConfig, SweepRunner};
//!
//! let aps = Aps::new(C2BoundModel::example_big_data(), DesignSpace::tiny());
//! let runner = SweepRunner::new(RunConfig::default()).unwrap();
//! let summary = runner
//!     .run_aps(
//!         &aps,
//!         || |p: &DesignPoint| Ok(1.0e9 / (p.n as f64 * p.issue_width as f64)),
//!         None,
//!         false,
//!     )
//!     .unwrap();
//! assert!(summary.report.completed);
//! assert!(summary.report.consistent());
//! ```

#![warn(missing_docs)]

pub mod backoff;
pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod engine;
pub mod journal;
pub mod screen;
pub mod serve;
pub mod shard;
pub mod storage;

pub use backoff::BackoffPolicy;
pub use breaker::{Admission, BreakerPolicy, BreakerState, CircuitBreaker, Transition};
pub use cache::{cache_key, CachedEval};
pub use chaos::{ChaosPlan, ChaosStorage};
pub use engine::{RunConfig, RunReport, RunSummary, SweepRunner};
pub use journal::{
    bind_fingerprint, plan_fingerprint, JobRecord, JournalHeader, JournalWriter, SyncPolicy,
};
pub use screen::{ScreenConfig, ScreenReport};
pub use serve::{Daemon, JobState, ScenarioExecutor, ServeOptions, ServePolicy, ServeReport};
pub use shard::{partition, shard_count, shard_of, BufferSink};
pub use storage::{DiskStorage, Storage, StorageFile};

/// Errors produced by the engine and its journal.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// An engine, backoff, or breaker parameter is out of range.
    InvalidConfig(&'static str),
    /// The refinement plan contains zero jobs. Caught before any
    /// journal or cache file is created, so an empty submission can
    /// never publish empty (yet valid-looking) artifacts.
    EmptyPlan,
    /// Filesystem trouble while writing or reading the journal or
    /// evaluation cache. The message always names the failing path.
    Io(String),
    /// The journal's contents are unusable (corrupt, or it belongs to
    /// a different sweep).
    Journal(String),
    /// The underlying model or assembly failed.
    Core(c2_bound::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid engine configuration: {msg}"),
            Error::EmptyPlan => write!(
                f,
                "the refinement plan has no jobs (empty design space); \
                 refusing to run an empty sweep"
            ),
            Error::Io(msg) => write!(f, "storage i/o error: {msg}"),
            Error::Journal(msg) => write!(f, "journal error: {msg}"),
            Error::Core(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<c2_bound::Error> for Error {
    fn from(e: c2_bound::Error) -> Self {
        Error::Core(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
