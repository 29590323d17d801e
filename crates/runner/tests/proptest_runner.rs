//! Property tests for the engine's supervision primitives.
//!
//! Two families: the backoff schedule (monotone, jitter-bounded,
//! capped, deterministic) and the termination guarantee — whatever the
//! fault pattern and breaker tuning, the engine never strands a job:
//! every job ends succeeded, skipped, or backfilled, and the ledger
//! invariant `attempted == succeeded + skipped + backfilled` holds.

use c2_bound::aps::Aps;
use c2_bound::dse::{DesignPoint, DesignSpace, Oracle};
use c2_bound::C2BoundModel;
use c2_runner::{BackoffPolicy, BreakerPolicy, RunConfig, SweepRunner};
use proptest::prelude::*;

fn policies() -> impl Strategy<Value = BackoffPolicy> {
    (1u64..50, 1.0f64..4.0, 0u64..450, 0.0f64..1.0).prop_map(|(base, factor, extra, jitter)| {
        BackoffPolicy {
            base_ms: base,
            factor,
            cap_ms: base + extra,
            jitter_frac: jitter,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The nominal schedule never shrinks as attempts accumulate and
    /// never exceeds the cap.
    #[test]
    fn backoff_nominal_is_monotone_and_capped(p in policies()) {
        prop_assert!(p.validate().is_ok());
        let mut prev = 0u64;
        for attempt in 1..24usize {
            let nominal = p.nominal_ms(attempt);
            prop_assert!(nominal >= prev, "attempt {attempt}: {nominal} < {prev}");
            prop_assert!(nominal <= p.cap_ms);
            prev = nominal;
        }
    }

    /// Jitter displaces the nominal delay by at most `jitter_frac` of
    /// itself (plus 1 ms of rounding), stays within the cap, and is a
    /// pure function of (key, attempt).
    #[test]
    fn backoff_jitter_is_bounded_and_deterministic(
        p in policies(),
        key in 0u64..1_000_000,
        attempt in 1usize..24,
    ) {
        let nominal = p.nominal_ms(attempt) as f64;
        let delay = p.delay(key, attempt).as_millis() as f64;
        prop_assert!(delay <= p.cap_ms as f64);
        prop_assert!(
            (delay - nominal).abs() <= p.jitter_frac * nominal + 1.0,
            "delay {delay} strays past jitter bound around {nominal}"
        );
        prop_assert_eq!(p.delay(key, attempt), p.delay(key, attempt));
    }
}

/// Oracle that deterministically fails the jobs whose bit is set in
/// `mask` and prices the rest analytically.
struct MaskOracle {
    mask: u32,
}

impl Oracle for MaskOracle {
    fn evaluate(&mut self, key: u64, point: &DesignPoint) -> c2_bound::Result<f64> {
        if (self.mask >> key) & 1 == 1 {
            Err(c2_bound::Error::Simulation(format!("masked fault {key}")))
        } else {
            Ok(1.0e9 / (point.n * point.issue_width * point.rob_size) as f64)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The breaker (whatever its tuning) and the retry loop never
    /// strand a job: every sweep drains, every job is accounted for,
    /// masked jobs never sneak into the succeeded column.
    #[test]
    fn breaker_never_strands_a_job(
        raw_mask in 0u32..512,
        trip in 1usize..6,
        cooldown in 0usize..5,
        probes in 1usize..4,
        threads in 1usize..4,
        max_attempts in 1usize..4,
    ) {
        // Keep job 0 healthy: it is popped first, while the breaker is
        // still closed, so at least one refinement point survives and
        // assembly cannot fail for total loss.
        let mask = raw_mask & !1;
        let config = RunConfig {
            threads,
            deadline_ms: 0,
            max_attempts,
            backoff: BackoffPolicy {
                base_ms: 0,
                factor: 1.0,
                cap_ms: 0,
                jitter_frac: 0.0,
            },
            breaker: BreakerPolicy {
                trip_threshold: trip,
                cooldown,
                probes,
            },
            analytic_fallback: true,
            ..RunConfig::default()
        };
        let aps = Aps::new(C2BoundModel::example_big_data(), DesignSpace::tiny());
        let summary = SweepRunner::new(config)
            .unwrap()
            .run_aps(&aps, || MaskOracle { mask }, None, false)
            .unwrap();
        let report = summary.report;
        prop_assert!(report.completed, "every job must reach a terminal state");
        prop_assert!(report.consistent(), "ledger invariant violated: {report:?}");
        prop_assert_eq!(report.attempted, 9);
        prop_assert!(report.succeeded >= 1, "job 0 must survive");
        let masked = mask.count_ones() as usize;
        prop_assert!(
            report.succeeded <= 9 - masked,
            "a masked job can never succeed ({report:?}, mask {mask:#b})"
        );
        let outcome = summary.outcome.unwrap();
        prop_assert_eq!(
            outcome.refinement.skipped.len(),
            report.skipped + report.backfilled
        );
    }
}
