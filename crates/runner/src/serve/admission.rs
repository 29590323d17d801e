//! Deterministic multi-tenant admission control.
//!
//! A submission passes three gates, checked in a fixed order under one
//! lock, so the verdict is a pure function of (tenant breaker state,
//! tenant active count, queue length) and an arrival order — replaying
//! the same submission sequence yields the same accept/shed sequence:
//!
//! 1. **breaker** — a per-tenant [`CircuitBreaker`] (same machinery
//!    the engine uses per shard) trips after consecutive job failures
//!    and sheds that tenant's submissions during its count-based
//!    cooldown, then probes half-open;
//! 2. **budget** — each tenant may hold at most `per_client_budget`
//!    queued-plus-running jobs;
//! 3. **queue** — the bounded job queue must have a free slot.
//!
//! Every shed carries a `Retry-After` drawn from the
//! [`BackoffPolicy`]'s deterministic capped jitter, keyed by tenant
//! and escalated by the tenant's *consecutive* shed count — a client
//! hammering a saturated daemon is told to back off exponentially,
//! and the schedule is reproducible because the jitter is seeded, not
//! sampled.

use std::collections::BTreeMap;

use crate::{Admission, BackoffPolicy, BreakerPolicy, CircuitBreaker, Result};

/// Why a submission was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The tenant's admission breaker is open (recent jobs kept
    /// failing); answered 503.
    BreakerOpen,
    /// The tenant already holds its full concurrency budget; 429.
    BudgetExhausted,
    /// The bounded job queue is full; 429.
    QueueFull,
}

impl ShedCause {
    /// Stable wire label used in shed response bodies.
    pub fn label(&self) -> &'static str {
        match self {
            ShedCause::BreakerOpen => "breaker-open",
            ShedCause::BudgetExhausted => "budget-exhausted",
            ShedCause::QueueFull => "queue-full",
        }
    }
}

/// The admission decision for one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Admit: the tenant's active count has been charged; the caller
    /// must enqueue the job and later [`AdmissionPolicy::settle`] it.
    Admitted,
    /// Shed with a cause and a deterministic `Retry-After` hint.
    Shed {
        /// Which gate rejected the submission.
        cause: ShedCause,
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

/// Per-tenant admission state.
#[derive(Debug)]
pub struct TenantState {
    breaker: CircuitBreaker,
    active: usize,
    consecutive_sheds: usize,
    /// FNV-1a of the tenant name: seeds the tenant's shed-backoff
    /// jitter stream.
    key: u64,
}

impl TenantState {
    /// Queued-plus-running jobs charged to this tenant.
    pub fn active(&self) -> usize {
        self.active
    }
}

/// The admission controller: gate policy plus all tenant state.
#[derive(Debug)]
pub struct AdmissionPolicy {
    per_client_budget: usize,
    queue_depth: usize,
    breaker: BreakerPolicy,
    shed_backoff: BackoffPolicy,
    tenants: BTreeMap<String, TenantState>,
}

impl AdmissionPolicy {
    /// Build the controller from the daemon's service policy knobs.
    pub fn new(
        per_client_budget: usize,
        queue_depth: usize,
        breaker: BreakerPolicy,
        shed_backoff: BackoffPolicy,
    ) -> Result<Self> {
        breaker.validate()?;
        shed_backoff.validate()?;
        Ok(AdmissionPolicy {
            per_client_budget,
            queue_depth,
            breaker,
            shed_backoff,
            tenants: BTreeMap::new(),
        })
    }

    fn tenant(&mut self, name: &str) -> &mut TenantState {
        let policy = self.breaker;
        self.tenants
            .entry(name.to_string())
            .or_insert_with(|| TenantState {
                // The policy was validated at construction.
                breaker: CircuitBreaker::new(policy).expect("validated breaker policy"),
                active: 0,
                consecutive_sheds: 0,
                key: c2_config::fnv1a(name.as_bytes()),
            })
    }

    /// Decide one submission from `tenant` given the current queue
    /// length. On `Admitted` the tenant's active count is charged
    /// immediately; the caller must [`settle`](Self::settle) exactly
    /// once when the job reaches a terminal state (or
    /// [`release`](Self::release) if enqueueing fails after all).
    pub fn decide(&mut self, tenant: &str, queue_len: usize) -> Verdict {
        let budget = self.per_client_budget;
        let depth = self.queue_depth;
        let backoff = self.shed_backoff;
        let state = self.tenant(tenant);

        let cause = if matches!(state.breaker.admit(), Admission::ShortCircuit) {
            Some(ShedCause::BreakerOpen)
        } else if state.active >= budget {
            Some(ShedCause::BudgetExhausted)
        } else if queue_len >= depth {
            Some(ShedCause::QueueFull)
        } else {
            None
        };

        match cause {
            None => {
                state.consecutive_sheds = 0;
                state.active += 1;
                Verdict::Admitted
            }
            Some(cause) => {
                state.consecutive_sheds += 1;
                // Attempt 1 of the backoff schedule is "immediate"
                // (retry semantics); a shed must always carry a
                // nonzero hint, so the first shed maps to attempt 2.
                let retry = backoff.delay(state.key, state.consecutive_sheds + 1);
                Verdict::Shed {
                    cause,
                    retry_after_ms: retry.as_millis() as u64,
                }
            }
        }
    }

    /// Record a terminal outcome for an admitted job: release the
    /// tenant's budget slot and feed the admission breaker.
    pub fn settle(&mut self, tenant: &str, success: bool) {
        let state = self.tenant(tenant);
        state.active = state.active.saturating_sub(1);
        if success {
            state.breaker.on_success();
        } else {
            state.breaker.on_failure();
        }
    }

    /// Release a charged budget slot without a health signal (the job
    /// never ran — e.g. the enqueue lost a race with a drain).
    pub fn release(&mut self, tenant: &str) {
        let state = self.tenant(tenant);
        state.active = state.active.saturating_sub(1);
    }

    /// Charge a budget slot without running the gates: used when
    /// `serve --resume` re-admits jobs a previous daemon already
    /// admitted. Pair with [`settle`](Self::settle) like any other
    /// admission.
    pub fn readmit(&mut self, tenant: &str) {
        self.tenant(tenant).active += 1;
    }

    /// Iterate tenants and their state (deterministic name order).
    pub fn tenants(&self) -> impl Iterator<Item = (&str, &TenantState)> {
        self.tenants.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(budget: usize, depth: usize) -> AdmissionPolicy {
        AdmissionPolicy::new(
            budget,
            depth,
            BreakerPolicy {
                trip_threshold: 2,
                cooldown: 2,
                probes: 1,
            },
            BackoffPolicy {
                base_ms: 100,
                factor: 2.0,
                cap_ms: 1_000,
                jitter_frac: 0.0,
            },
        )
        .unwrap()
    }

    #[test]
    fn budget_then_queue_gates_fire_in_order() {
        let mut adm = policy(2, 3);
        assert_eq!(adm.decide("a", 0), Verdict::Admitted);
        assert_eq!(adm.decide("a", 1), Verdict::Admitted);
        // Third submission: budget (2) exhausted even though the queue
        // has room — budget outranks queue in the gate order.
        assert!(matches!(
            adm.decide("a", 2),
            Verdict::Shed {
                cause: ShedCause::BudgetExhausted,
                ..
            }
        ));
        // A different tenant has its own budget but hits the full queue.
        assert!(matches!(
            adm.decide("b", 3),
            Verdict::Shed {
                cause: ShedCause::QueueFull,
                ..
            }
        ));
    }

    #[test]
    fn failing_jobs_trip_the_tenant_breaker_and_it_recovers() {
        let mut adm = policy(8, 8);
        for _ in 0..2 {
            assert_eq!(adm.decide("a", 0), Verdict::Admitted);
            adm.settle("a", false);
        }
        // Tripped: cooldown=2 submissions shed as breaker-open.
        for _ in 0..2 {
            assert!(matches!(
                adm.decide("a", 0),
                Verdict::Shed {
                    cause: ShedCause::BreakerOpen,
                    ..
                }
            ));
        }
        // Cooldown over: half-open probe admits, success closes.
        assert_eq!(adm.decide("a", 0), Verdict::Admitted);
        adm.settle("a", true);
        assert_eq!(adm.decide("a", 0), Verdict::Admitted);
        adm.settle("a", true);
        // An unrelated tenant was never affected.
        assert_eq!(adm.decide("b", 0), Verdict::Admitted);
    }

    #[test]
    fn retry_after_escalates_with_consecutive_sheds_and_resets() {
        let mut adm = policy(1, 8);
        assert_eq!(adm.decide("a", 0), Verdict::Admitted);
        let shed_delay = |adm: &mut AdmissionPolicy| match adm.decide("a", 0) {
            Verdict::Shed { retry_after_ms, .. } => retry_after_ms,
            v => panic!("expected shed, got {v:?}"),
        };
        let first = shed_delay(&mut adm);
        let second = shed_delay(&mut adm);
        let third = shed_delay(&mut adm);
        assert_eq!(first, 100, "jitter_frac 0 → exact nominal schedule");
        assert_eq!(second, 200);
        assert_eq!(third, 400);
        // Settling frees the budget; the next admit resets the streak.
        adm.settle("a", true);
        assert_eq!(adm.decide("a", 0), Verdict::Admitted);
        adm.settle("a", true);
        adm.decide("a", 0); // admitted again; occupy the budget
        assert_eq!(shed_delay(&mut adm), 100, "streak restarted");
    }

    #[test]
    fn identical_sequences_yield_identical_verdicts() {
        let run = || {
            let mut adm = policy(1, 2);
            let mut verdicts = Vec::new();
            for (tenant, queue_len) in [("a", 0), ("a", 1), ("b", 1), ("b", 2), ("a", 2), ("b", 2)]
            {
                verdicts.push(adm.decide(tenant, queue_len));
            }
            verdicts
        };
        assert_eq!(run(), run());
    }
}
