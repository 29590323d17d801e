//! Fault-aware oracle adapter for DSE-level drivers.
//!
//! The cycle engine honors the *intra-simulation* faults of a
//! [`FaultPlan`] (fatal requests, DRAM spikes, MSHR starvation) by
//! itself; the *oracle-level* faults — fail every n-th evaluation, hang
//! selected evaluations — live above a single simulation and need a
//! wrapper around whatever function prices a design point. That wrapper
//! is [`FaultyOracle`]: it counts evaluations, injects the plan's
//! oracle-level faults keyed to each evaluation's **stable key** (so
//! retried, reordered, and resumed sweeps all observe the same faults),
//! and otherwise passes through to the wrapped function.
//!
//! The adapter is generic over the argument type and the caller's error
//! type, so it adapts closures over `c2-bound` design points without
//! this crate depending on `c2-bound`.

use crate::fault::FaultPlan;
use crate::{Error, Result};

/// Wraps an oracle function with deterministic, keyed fault injection.
#[derive(Debug, Clone)]
pub struct FaultyOracle<F> {
    plan: FaultPlan,
    inner: F,
    calls: u64,
}

impl<F> FaultyOracle<F> {
    /// Wrap `inner` under `plan`. Rejects invalid plans up front.
    pub fn new(plan: FaultPlan, inner: F) -> Result<Self> {
        plan.validate()?;
        Ok(FaultyOracle {
            plan,
            inner,
            calls: 0,
        })
    }

    /// Total evaluations attempted through this adapter (including
    /// ones that were failed or hung by the plan).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// The plan this adapter injects.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Evaluate the wrapped oracle at `arg` under the plan. `key` is
    /// the evaluation's stable identity (e.g. the flat index of the
    /// design point in its sweep).
    ///
    /// Order of injections: a hang stalls the calling thread first
    /// (modelling a request that outlives any reasonable deadline —
    /// supervised drivers will have timed the attempt out long before
    /// it returns), then a keyed panic unwinds out of the adapter
    /// (the misbehaving-backend fault that `catch_unwind` isolation is
    /// proved against), then a keyed failure aborts the evaluation with
    /// [`Error::InjectedFault`], and only then does the real oracle
    /// run.
    pub fn call<T, E>(&mut self, key: u64, arg: &T) -> std::result::Result<f64, E>
    where
        F: FnMut(&T) -> std::result::Result<f64, E>,
        E: From<Error>,
    {
        self.calls += 1;
        if let Some(stall) = self.plan.oracle_key_stall(key) {
            std::thread::sleep(stall);
        }
        if self.plan.oracle_key_panics(key) {
            panic!("injected oracle panic at key {key}");
        }
        if self.plan.oracle_key_fails(key) {
            return Err(Error::InjectedFault {
                request: key + 1,
                cycle: 0,
            }
            .into());
        }
        (self.inner)(arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::OracleHang;

    fn ok_oracle(x: &f64) -> std::result::Result<f64, Error> {
        Ok(*x * 2.0)
    }

    #[test]
    fn inert_plan_passes_through() {
        let mut o = FaultyOracle::new(FaultPlan::default(), ok_oracle).unwrap();
        assert_eq!(o.call(0, &3.0), Ok(6.0));
        assert_eq!(o.call(1, &4.0), Ok(8.0));
        assert_eq!(o.calls(), 2);
    }

    #[test]
    fn keyed_failures_fire_regardless_of_call_order() {
        let plan = FaultPlan {
            oracle_failure_period: Some(2),
            ..FaultPlan::default()
        };
        let mut forward = FaultyOracle::new(plan, ok_oracle).unwrap();
        let mut reverse = FaultyOracle::new(plan, ok_oracle).unwrap();
        let keys = [0u64, 1, 2, 3];
        let fwd: Vec<bool> = keys
            .iter()
            .map(|&k| forward.call(k, &1.0).is_err())
            .collect();
        let rev: Vec<bool> = keys
            .iter()
            .rev()
            .map(|&k| reverse.call(k, &1.0).is_err())
            .collect();
        assert_eq!(fwd, vec![false, true, false, true]);
        assert_eq!(rev, vec![true, false, true, false]);
    }

    #[test]
    fn injected_failure_is_typed_with_its_key() {
        let plan = FaultPlan {
            oracle_failure_period: Some(1),
            ..FaultPlan::default()
        };
        let mut o = FaultyOracle::new(plan, ok_oracle).unwrap();
        match o.call(6, &1.0) {
            Err(Error::InjectedFault { request: 7, .. }) => {}
            other => panic!("expected keyed InjectedFault, got {other:?}"),
        }
    }

    #[test]
    fn hang_stalls_for_at_least_the_plan_duration() {
        let plan = FaultPlan {
            oracle_hang: Some(OracleHang {
                period: 1,
                stall_ms: 30,
            }),
            ..FaultPlan::default()
        };
        let mut o = FaultyOracle::new(plan, ok_oracle).unwrap();
        let start = std::time::Instant::now();
        assert_eq!(o.call(0, &1.0), Ok(2.0));
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
    }

    #[test]
    fn invalid_plan_is_rejected_at_construction() {
        let plan = FaultPlan {
            oracle_failure_period: Some(0),
            ..FaultPlan::default()
        };
        assert!(FaultyOracle::new(plan, ok_oracle).is_err());
    }

    #[test]
    fn keyed_panics_unwind_out_of_the_adapter() {
        let plan = FaultPlan {
            oracle_panic_period: Some(3),
            ..FaultPlan::default()
        };
        // Key 2 panics ((2+1) % 3 == 0); keys 0 and 1 pass through.
        let mut owned = FaultyOracle::new(plan, ok_oracle).unwrap();
        assert_eq!(owned.call(0, &1.0), Ok(2.0));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            owned.call::<f64, Error>(2, &1.0)
        }));
        let payload = unwound.expect_err("key 2 must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "injected oracle panic at key 2");
        assert_eq!(owned.calls(), 2, "panicked calls are still counted");
    }
}
