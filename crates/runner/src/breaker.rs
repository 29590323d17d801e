//! A circuit breaker for the simulation oracle.
//!
//! When a backend is sick — hung simulator, corrupted install, a
//! fault-injection period that fails everything — retrying every job
//! against it converts one failure into `jobs × max_attempts` slow
//! failures. The breaker watches consecutive failures and, once
//! tripped, short-circuits jobs away from the oracle (the engine
//! degrades them to calibrated analytic backfill) until a cooldown has
//! passed; then it lets probe jobs through (half-open) and closes again
//! only after enough probes succeed.
//!
//! The breaker is deliberately clock-free: `Open → HalfOpen` advances
//! after a *count* of short-circuited jobs rather than a wall-time
//! cooldown, so its whole trajectory is a pure function of the
//! admit/success/failure sequence — which is what lets a resumed run
//! replay the journal through a fresh breaker and land in exactly the
//! state the interrupted run was in.

use crate::{Error, Result};

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive oracle failures that trip the breaker open.
    pub trip_threshold: usize,
    /// Jobs short-circuited while open before probing (half-open).
    pub cooldown: usize,
    /// Consecutive probe successes required to close again.
    pub probes: usize,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            trip_threshold: 5,
            cooldown: 3,
            probes: 2,
        }
    }
}

impl BreakerPolicy {
    /// Validate the policy's parameters.
    pub fn validate(&self) -> Result<()> {
        if self.trip_threshold == 0 {
            return Err(Error::InvalidConfig(
                "breaker trip_threshold must be positive",
            ));
        }
        if self.probes == 0 {
            return Err(Error::InvalidConfig("breaker probes must be positive"));
        }
        // cooldown == 0 is legal: the breaker trips and immediately
        // probes, never sacrificing a job — a pure retry-limiter.
        Ok(())
    }
}

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every job is admitted.
    Closed,
    /// Tripped: jobs are short-circuited to analytic backfill.
    Open,
    /// Probing: jobs are admitted; failures re-open immediately.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-case name, used in trace events and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    /// Small integer encoding for the `engine_breaker_state` gauge
    /// (0 = closed, 1 = open, 2 = half-open).
    pub fn as_gauge(&self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 1.0,
            BreakerState::HalfOpen => 2.0,
        }
    }
}

/// One observed breaker state change, drained via
/// [`CircuitBreaker::take_transition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State before the change.
    pub from: BreakerState,
    /// State after the change.
    pub to: BreakerState,
}

/// What the breaker decided for a job about to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the oracle.
    Admit,
    /// Do not run the oracle; degrade the job to backfill.
    ShortCircuit,
}

/// The breaker itself. Drive it with [`CircuitBreaker::admit`] before
/// each oracle attempt and [`CircuitBreaker::on_success`] /
/// [`CircuitBreaker::on_failure`] after.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_failures: usize,
    shorted_while_open: usize,
    probe_successes: usize,
    trips: usize,
    short_circuits: usize,
    last_transition: Option<Transition>,
}

impl CircuitBreaker {
    /// Build a breaker under `policy`.
    pub fn new(policy: BreakerPolicy) -> Result<Self> {
        policy.validate()?;
        Ok(CircuitBreaker {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            shorted_while_open: 0,
            probe_successes: 0,
            trips: 0,
            short_circuits: 0,
            last_transition: None,
        })
    }

    /// Move to `to`, recording the transition for
    /// [`CircuitBreaker::take_transition`].
    fn set_state(&mut self, to: BreakerState) {
        if self.state != to {
            self.last_transition = Some(Transition {
                from: self.state,
                to,
            });
        }
        self.state = to;
    }

    /// Drain the most recent state transition, if one happened since
    /// the last drain. The engine calls this after every
    /// `admit`/`on_success`/`on_failure` to turn state changes into
    /// trace events; each of those calls changes state at most once, so
    /// a single slot loses nothing.
    pub fn take_transition(&mut self) -> Option<Transition> {
        self.last_transition.take()
    }

    /// Decide whether the next oracle attempt may run. Must be called
    /// exactly once per attempt (it advances the open-state cooldown).
    pub fn admit(&mut self) -> Admission {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => Admission::Admit,
            BreakerState::Open => {
                if self.shorted_while_open < self.policy.cooldown {
                    self.shorted_while_open += 1;
                    self.short_circuits += 1;
                    Admission::ShortCircuit
                } else {
                    self.set_state(BreakerState::HalfOpen);
                    self.probe_successes = 0;
                    Admission::Admit
                }
            }
        }
    }

    /// Record a successful oracle attempt.
    pub fn on_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= self.policy.probes {
                    self.set_state(BreakerState::Closed);
                    self.consecutive_failures = 0;
                }
            }
            // A success reported while open can only be a stale result
            // from a timed-out worker; it carries no health signal.
            BreakerState::Open => {}
        }
    }

    /// Record a failed (or timed-out) oracle attempt.
    pub fn on_failure(&mut self) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.policy.trip_threshold {
                    self.trip();
                }
            }
            BreakerState::HalfOpen => self.trip(),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self) {
        self.set_state(BreakerState::Open);
        self.trips += 1;
        self.shorted_while_open = 0;
        self.probe_successes = 0;
        self.consecutive_failures = 0;
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times the breaker has tripped open.
    pub fn trips(&self) -> usize {
        self.trips
    }

    /// Total jobs short-circuited away from the oracle.
    pub fn short_circuits(&self) -> usize {
        self.short_circuits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(trip: usize, cooldown: usize, probes: usize) -> CircuitBreaker {
        CircuitBreaker::new(BreakerPolicy {
            trip_threshold: trip,
            cooldown,
            probes,
        })
        .unwrap()
    }

    #[test]
    fn trips_after_k_consecutive_failures_only() {
        let mut b = breaker(3, 2, 1);
        for _ in 0..2 {
            assert_eq!(b.admit(), Admission::Admit);
            b.on_failure();
        }
        // A success resets the streak.
        assert_eq!(b.admit(), Admission::Admit);
        b.on_success();
        for _ in 0..2 {
            assert_eq!(b.admit(), Admission::Admit);
            b.on_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(), Admission::Admit);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn open_short_circuits_for_cooldown_then_probes() {
        let mut b = breaker(1, 2, 1);
        b.admit();
        b.on_failure(); // trips
        assert_eq!(b.admit(), Admission::ShortCircuit);
        assert_eq!(b.admit(), Admission::ShortCircuit);
        assert_eq!(b.short_circuits(), 2);
        // Cooldown spent: next job is a probe.
        assert_eq!(b.admit(), Admission::Admit);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_failure_reopens() {
        let mut b = breaker(1, 0, 2);
        b.admit();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // cooldown = 0: probes immediately.
        assert_eq!(b.admit(), Admission::Admit);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // Needs `probes` consecutive successes to close.
        b.admit();
        b.on_success();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.admit();
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn stale_reports_while_open_are_ignored() {
        let mut b = breaker(1, 5, 1);
        b.admit();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        b.on_success();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn half_open_to_closed_recovery_emits_transitions() {
        // trip → cooldown → probe twice → closed, draining the
        // transition slot at every step to check the emitted sequence.
        let mut b = breaker(1, 1, 2);
        assert_eq!(b.take_transition(), None, "fresh breaker has no history");
        b.admit();
        b.on_failure();
        assert_eq!(
            b.take_transition(),
            Some(Transition {
                from: BreakerState::Closed,
                to: BreakerState::Open,
            })
        );
        assert_eq!(b.admit(), Admission::ShortCircuit);
        assert_eq!(b.take_transition(), None, "cooldown burn is not a change");
        assert_eq!(b.admit(), Admission::Admit);
        assert_eq!(
            b.take_transition(),
            Some(Transition {
                from: BreakerState::Open,
                to: BreakerState::HalfOpen,
            })
        );
        b.on_success();
        assert_eq!(b.take_transition(), None, "first probe is not enough");
        b.admit();
        b.on_success();
        assert_eq!(
            b.take_transition(),
            Some(Transition {
                from: BreakerState::HalfOpen,
                to: BreakerState::Closed,
            }),
            "second probe success closes the breaker"
        );
        assert_eq!(b.state(), BreakerState::Closed);
        // Recovery is real: the next failure streak starts from zero.
        b.admit();
        b.on_failure();
        assert_eq!(b.trips(), 2, "threshold 1 re-trips on the next failure");
    }

    #[test]
    fn half_open_to_open_retrip_emits_transitions() {
        let mut b = breaker(2, 0, 1);
        b.admit();
        b.on_failure();
        b.admit();
        b.on_failure(); // second consecutive failure trips
        assert_eq!(
            b.take_transition(),
            Some(Transition {
                from: BreakerState::Closed,
                to: BreakerState::Open,
            })
        );
        // cooldown = 0: the next admit probes immediately.
        assert_eq!(b.admit(), Admission::Admit);
        assert_eq!(
            b.take_transition(),
            Some(Transition {
                from: BreakerState::Open,
                to: BreakerState::HalfOpen,
            })
        );
        b.on_failure();
        assert_eq!(
            b.take_transition(),
            Some(Transition {
                from: BreakerState::HalfOpen,
                to: BreakerState::Open,
            }),
            "a half-open failure re-trips immediately"
        );
        assert_eq!(b.trips(), 2);
        // A re-trip resets the cooldown: the path back is probe again.
        assert_eq!(b.admit(), Admission::Admit);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(
            b.take_transition().map(|t| t.to),
            Some(BreakerState::Closed)
        );
    }

    #[test]
    fn state_names_are_stable() {
        assert_eq!(BreakerState::Closed.as_str(), "closed");
        assert_eq!(BreakerState::Open.as_str(), "open");
        assert_eq!(BreakerState::HalfOpen.as_str(), "half-open");
        assert_eq!(BreakerState::Closed.as_gauge(), 0.0);
        assert_eq!(BreakerState::Open.as_gauge(), 1.0);
        assert_eq!(BreakerState::HalfOpen.as_gauge(), 2.0);
    }

    #[test]
    fn invalid_policies_are_rejected() {
        assert!(CircuitBreaker::new(BreakerPolicy {
            trip_threshold: 0,
            cooldown: 1,
            probes: 1,
        })
        .is_err());
        assert!(CircuitBreaker::new(BreakerPolicy {
            trip_threshold: 1,
            cooldown: 0,
            probes: 0,
        })
        .is_err());
    }
}
