//! Failure-injection and robustness tests across the workspace: wrong
//! configurations, starved resources, exhausted budgets, and corrupted
//! inputs must fail loudly and precisely — never hang or mis-report.

use c2bound::model::dse::{chip_config_for, DesignPoint};
use c2bound::sim::area::{AreaModel, SiliconBudget};
use c2bound::sim::{ChipConfig, Simulator};
use c2bound::trace::synthetic::{RandomGenerator, StridedGenerator, TraceGenerator};

#[test]
fn cycle_budget_exceeded_is_reported_not_hung() {
    let trace = RandomGenerator::new(0, 8 << 20, 2000, 1).generate();
    let mut cfg = ChipConfig::default_single_core();
    cfg.max_cycles = 500; // far too few for 2000 DRAM-bound accesses
    let err = Simulator::new(cfg)
        .run(std::slice::from_ref(&trace))
        .unwrap_err();
    assert!(matches!(
        err,
        c2bound::sim::Error::CycleBudgetExceeded { budget: 500 }
    ));
}

#[test]
fn trace_count_mismatch_rejected_before_running() {
    let trace = StridedGenerator::new(0, 64, 8).generate();
    let err = Simulator::new(ChipConfig::default_multi_core(3))
        .run(&[trace])
        .unwrap_err();
    assert!(matches!(
        err,
        c2bound::sim::Error::TraceCountMismatch {
            cores: 3,
            traces: 1
        }
    ));
}

#[test]
fn invalid_chip_configs_rejected_before_running() {
    let trace = StridedGenerator::new(0, 64, 8).generate();
    let mut cfg = ChipConfig::default_single_core();
    cfg.l1.mshr_entries = 0;
    assert!(Simulator::new(cfg)
        .run(std::slice::from_ref(&trace))
        .is_err());

    let mut cfg = ChipConfig::default_single_core();
    cfg.l2.line_size = 128; // mismatched with the L1
    assert!(Simulator::new(cfg)
        .run(std::slice::from_ref(&trace))
        .is_err());
}

#[test]
fn over_budget_design_point_rejected() {
    let area = AreaModel::default();
    let budget = SiliconBudget::new(100.0, 10.0).unwrap();
    let p = DesignPoint {
        a0: 16.0,
        a1: 2.0,
        a2: 4.0,
        n: 64, // 64 * 22 mm2 >> 90 mm2
        issue_width: 4,
        rob_size: 128,
    };
    assert!(chip_config_for(&p, &area, &budget).is_err());
}

#[test]
fn starved_mshr_still_completes() {
    // One MSHR entry and a blocking core: every miss serializes through
    // the single entry; the run must still terminate with full work.
    let trace = RandomGenerator::new(0, 1 << 20, 600, 2).generate();
    let mut cfg = ChipConfig::default_single_core();
    cfg.l1.mshr_entries = 1;
    cfg.l2.mshr_entries = 1;
    cfg.dram.queue_depth = 1;
    let r = Simulator::new(cfg)
        .run(std::slice::from_ref(&trace))
        .unwrap();
    assert_eq!(r.total_instructions(), trace.instruction_count());
    assert_eq!(r.cores[0].accesses, trace.len() as u64);
}

#[test]
fn tiny_caches_still_complete() {
    let trace = RandomGenerator::new(0, 1 << 20, 500, 3).generate();
    let mut cfg = ChipConfig::default_single_core();
    cfg.l1.size_bytes = 512; // 8 lines
    cfg.l1.associativity = 2;
    cfg.l2.size_bytes = 4096;
    cfg.l2.associativity = 4;
    let r = Simulator::new(cfg)
        .run(std::slice::from_ref(&trace))
        .unwrap();
    assert_eq!(r.total_instructions(), trace.instruction_count());
    assert!(r.cores[0].l1_miss_rate() > 0.5);
}

#[test]
fn corrupted_trace_files_rejected() {
    use c2bound::trace::io::from_str;
    for bad in [
        "",
        "#c2trace v2 ic=5\n",
        "#c2trace v1\n",
        "#c2trace v1 ic=5\nR 1\n",
        "#c2trace v1 ic=5\nQ 1 0 8\n",
        "#c2trace v1 ic=5\nR 9 0 8\nR 1 0 8\n", // out of order
    ] {
        assert!(from_str(bad).is_err(), "accepted: {bad:?}");
    }
}

#[test]
fn optimizer_rejects_impossible_budgets() {
    use c2bound::model::optimize::optimize_split;
    let mut m = c2bound::model::C2BoundModel::example_big_data();
    // Squeeze the budget so even one core cannot fit at large N.
    m.budget = SiliconBudget::new(2.0, 1.0).unwrap();
    assert!(optimize_split(&m, 100.0).is_err());
}

#[test]
fn multicore_determinism_under_contention() {
    let traces: Vec<c2bound::trace::Trace> = (0..4)
        .map(|i| RandomGenerator::new(i << 22, 1 << 20, 1200, i).generate())
        .collect();
    let run = || {
        Simulator::new(ChipConfig::default_multi_core(4))
            .run(&traces)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "simulation must be bit-deterministic");
}

#[test]
fn oracle_failure_mid_refinement_skips_and_degrades() {
    use c2bound::model::dse::DesignSpace;
    use c2bound::model::{Aps, C2BoundModel, DegradationLevel, ResiliencePolicy};
    use c2bound::sim::FaultPlan;

    // Deterministic fault plan: every 3rd oracle call fails. With a
    // single attempt per point, every 3rd refinement point is skipped.
    let plan = FaultPlan {
        oracle_failure_period: Some(3),
        ..FaultPlan::default()
    };
    let space = DesignSpace::tiny(); // 3 issue x 3 rob = 9 sweep points
    let sweep = space.issue().len() * space.rob().len();
    let aps = Aps::new(C2BoundModel::example_big_data(), space);
    let policy = ResiliencePolicy {
        max_attempts: 1,
        analytic_fallback: true,
    };
    let mut calls = 0u64;
    let outcome = aps
        .run_oracle(
            |p: &DesignPoint| {
                calls += 1;
                if plan.oracle_call_fails(calls) {
                    return Err(c2bound::model::Error::Simulation("injected".into()));
                }
                Ok(1e6 / (p.issue_width as f64 * p.rob_size as f64).sqrt())
            },
            &policy,
        )
        .unwrap();
    let log = &outcome.refinement;
    assert_eq!(log.attempted, sweep);
    assert_eq!(log.skipped.len(), sweep / 3);
    assert_eq!(
        log.attempted,
        log.succeeded + log.skipped.len(),
        "every point must be accounted for"
    );
    assert!(!log.is_complete(), "skips must register as degradation");
    assert_eq!(log.degradation, DegradationLevel::Partial);
    // Skipped points carry calibrated analytic estimates but never win.
    assert!(log.skipped.iter().all(|s| s.analytic_estimate.is_some()));
    assert!(outcome.best_time.is_finite() && outcome.best_time > 0.0);
}

#[test]
fn dram_spike_fault_plan_slows_but_accounts_fully() {
    use c2bound::sim::{CycleWindow, DramSpike, FaultPlan};

    let trace = RandomGenerator::new(0, 8 << 20, 800, 7).generate();
    let baseline = Simulator::new(ChipConfig::default_single_core())
        .run(std::slice::from_ref(&trace))
        .unwrap();

    let mut cfg = ChipConfig::default_single_core();
    cfg.fault = FaultPlan {
        dram_spike: Some(DramSpike {
            window: CycleWindow::new(0, u64::MAX),
            extra: 200,
        }),
        ..FaultPlan::default()
    };
    let spiked = Simulator::new(cfg)
        .run(std::slice::from_ref(&trace))
        .unwrap();

    // The spike must slow the run but never lose work: identical
    // instruction and access accounting, strictly more cycles.
    assert_eq!(spiked.total_instructions(), trace.instruction_count());
    assert_eq!(spiked.cores[0].accesses, baseline.cores[0].accesses);
    assert!(
        spiked.total_cycles > baseline.total_cycles,
        "a permanent +200-cycle DRAM spike must cost cycles ({} vs {})",
        spiked.total_cycles,
        baseline.total_cycles
    );
}

#[test]
fn injected_request_fault_is_a_typed_error() {
    let trace = RandomGenerator::new(0, 8 << 20, 400, 5).generate();
    let mut cfg = ChipConfig::default_single_core();
    cfg.fault.fail_at_request = Some(10);
    let err = Simulator::new(cfg)
        .run(std::slice::from_ref(&trace))
        .unwrap_err();
    match err {
        c2bound::sim::Error::InjectedFault { request, cycle } => {
            assert_eq!(request, 10);
            assert!(cycle > 0);
        }
        other => panic!("expected InjectedFault, got {other}"),
    }
}

#[test]
fn ann_budget_exhaustion_reports_best_error() {
    use c2bound::ann::protocol::SampleProtocol;
    let space: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
    let truth: Vec<f64> = space
        .iter()
        .map(|p| 100.0 + (p[0] * 17.0).sin() * 50.0)
        .collect();
    let proto = SampleProtocol {
        error_target: 1e-9,
        max_samples: 32,
        ..SampleProtocol::default()
    };
    let truth_clone = truth.clone();
    let err = proto
        .run(&space, |p| truth_clone[p[0] as usize], &truth)
        .unwrap_err();
    match err {
        c2bound::ann::Error::BudgetExhausted {
            samples,
            best_error,
        } => {
            assert_eq!(samples, 32);
            assert!(best_error.is_finite() && best_error > 0.0);
        }
        other => panic!("unexpected: {other}"),
    }
}
