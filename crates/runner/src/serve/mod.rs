//! DSE-as-a-service: the supervised daemon behind `c2bound-tool serve`.
//!
//! The module tree turns the sharded sweep engine into a long-lived,
//! multi-tenant service without adding a single dependency:
//!
//! * [`protocol`] — a hand-rolled, deliberately minimal HTTP/1.1
//!   reader/writer over `std::net` with per-request read/parse
//!   deadlines and body-size limits, so a slow or malformed client is
//!   disconnected instead of wedging the accept loop;
//! * [`admission`] — deterministic admission control: per-tenant
//!   concurrency budgets, a per-tenant [`CircuitBreaker`] that sheds
//!   tenants whose jobs keep failing, and 429-style load shedding
//!   with `Retry-After` drawn from the [`BackoffPolicy`]'s capped
//!   deterministic jitter;
//! * [`queue`] — the bounded multi-tenant job queue between the
//!   accept loop and the executor pool (full queue ⇒ shed, never
//!   unbounded buffering — Gunther's saturation knee in code);
//! * [`drain`] — graceful drain on SIGTERM or `/shutdown`: stop
//!   admitting, finish in-flight runs (each is journaled by the
//!   engine anyway), persist queued submissions, exit 0;
//! * [`listener`] — the daemon itself: threaded accept loop,
//!   `catch_unwind` isolation per connection and per job, durable
//!   per-job artifacts, and `--resume` over a previous daemon's
//!   artifact directory.
//!
//! Every admitted submission executes through the exact same
//! `SweepRunner` path as one-shot `run`, with the scenario fingerprint
//! bound into its journal and the daemon's shared content-addressed
//! cache mounted read-safe via fingerprint-bound keys — which is what
//! makes a served run's journal, metrics, and outcome byte-identical
//! to the same scenario run from the command line.

pub mod admission;
pub mod drain;
pub mod listener;
pub mod protocol;
pub mod queue;

pub use admission::{AdmissionPolicy, ShedCause, TenantState, Verdict};
pub use drain::DrainControl;
pub use listener::{Daemon, JobState, ScenarioExecutor, ServeOptions, ServeReport};
pub use protocol::{ProtocolError, Request, Response};
pub use queue::JobQueue;

use crate::{BackoffPolicy, BreakerPolicy, Error, Result};
#[allow(unused_imports)] // rustdoc link targets
use crate::{CircuitBreaker, SweepRunner};

/// Daemon-side service policy; mirrors `c2_config::ServeSpec` the way
/// `RunConfig` mirrors `RunnerSpec`.
#[derive(Debug, Clone)]
pub struct ServePolicy {
    /// Bounded job-queue depth; submissions beyond it are shed.
    pub queue_depth: usize,
    /// Maximum queued-plus-running jobs per tenant.
    pub per_client_budget: usize,
    /// Executor threads draining the job queue.
    pub executors: usize,
    /// Per-request socket read/parse deadline, ms.
    pub read_timeout_ms: u64,
    /// Maximum request body size in bytes.
    pub max_body_bytes: usize,
    /// Per-tenant admission breaker policy.
    pub breaker: BreakerPolicy,
    /// Shed backoff: the `Retry-After` schedule for rejected
    /// submissions (deterministic capped jitter keyed by tenant).
    pub shed_backoff: BackoffPolicy,
}

/// The scenario's default `serve` section.
impl Default for ServePolicy {
    fn default() -> Self {
        ServePolicy::from_spec(&c2_config::ServeSpec::default())
            .expect("the default policy is valid")
    }
}

impl ServePolicy {
    /// Build the policy from a scenario's `serve` section.
    pub fn from_spec(spec: &c2_config::ServeSpec) -> Result<Self> {
        fn narrow(value: u64, what: &'static str) -> Result<usize> {
            usize::try_from(value).map_err(|_| Error::InvalidConfig(what))
        }
        let policy = ServePolicy {
            queue_depth: narrow(
                spec.queue_depth,
                "serve.queue_depth exceeds the platform word size",
            )?,
            per_client_budget: narrow(
                spec.per_client_budget,
                "serve.per_client_budget exceeds the platform word size",
            )?,
            executors: narrow(
                spec.executors,
                "serve.executors exceeds the platform word size",
            )?,
            read_timeout_ms: spec.read_timeout_ms,
            max_body_bytes: narrow(
                spec.max_body_bytes,
                "serve.max_body_bytes exceeds the platform word size",
            )?,
            breaker: BreakerPolicy {
                trip_threshold: narrow(
                    spec.breaker.trip_threshold,
                    "serve.breaker.trip_threshold exceeds the platform word size",
                )?,
                cooldown: narrow(
                    spec.breaker.cooldown,
                    "serve.breaker.cooldown exceeds the platform word size",
                )?,
                probes: narrow(
                    spec.breaker.probes,
                    "serve.breaker.probes exceeds the platform word size",
                )?,
            },
            shed_backoff: BackoffPolicy {
                base_ms: spec.shed_backoff.base_ms,
                factor: spec.shed_backoff.factor,
                cap_ms: spec.shed_backoff.cap_ms,
                jitter_frac: spec.shed_backoff.jitter_frac,
            },
        };
        policy.validate()?;
        Ok(policy)
    }

    /// Validate the policy.
    pub fn validate(&self) -> Result<()> {
        if self.queue_depth == 0 {
            return Err(Error::InvalidConfig("serve queue_depth must be positive"));
        }
        if self.per_client_budget == 0 {
            return Err(Error::InvalidConfig(
                "serve per_client_budget must be positive",
            ));
        }
        if self.executors == 0 {
            return Err(Error::InvalidConfig("serve executors must be positive"));
        }
        if self.read_timeout_ms == 0 {
            return Err(Error::InvalidConfig(
                "serve read_timeout_ms must be positive",
            ));
        }
        if self.max_body_bytes == 0 {
            return Err(Error::InvalidConfig(
                "serve max_body_bytes must be positive",
            ));
        }
        self.shed_backoff.validate()?;
        self.breaker.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid_and_mirrors_the_spec_defaults() {
        let policy = ServePolicy::default();
        policy.validate().unwrap();
        let from_spec = ServePolicy::from_spec(&c2_config::ServeSpec::default()).unwrap();
        assert_eq!(policy.queue_depth, from_spec.queue_depth);
        assert_eq!(policy.per_client_budget, from_spec.per_client_budget);
        assert_eq!(policy.executors, from_spec.executors);
        assert_eq!(policy.read_timeout_ms, from_spec.read_timeout_ms);
        assert_eq!(policy.max_body_bytes, from_spec.max_body_bytes);
        assert_eq!(policy.breaker, from_spec.breaker);
        assert_eq!(policy.shed_backoff, from_spec.shed_backoff);
    }

    #[test]
    fn zero_knobs_are_rejected() {
        for patch in [
            |p: &mut ServePolicy| p.queue_depth = 0,
            |p: &mut ServePolicy| p.per_client_budget = 0,
            |p: &mut ServePolicy| p.executors = 0,
            |p: &mut ServePolicy| p.read_timeout_ms = 0,
            |p: &mut ServePolicy| p.max_body_bytes = 0,
        ] {
            let mut p = ServePolicy::default();
            patch(&mut p);
            assert!(p.validate().is_err());
        }
    }
}
