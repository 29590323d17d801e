//! Property-based tests on the core invariants, spanning crates.

use proptest::prelude::*;

use c2bound::camat::detector::CamatDetector;
use c2bound::camat::timeline::{AccessTiming, Timeline};
use c2bound::camat::{AmatParams, CamatParams};
use c2bound::model::{C2BoundModel, DesignVariables};
use c2bound::solver::golden::golden_section;
use c2bound::solver::Matrix;
use c2bound::speedup::scale::ScaleFunction;
use c2bound::speedup::{amdahl, gustafson, sun_ni};
use c2bound::trace::stats::ReuseProfile;
use c2bound::trace::TraceBuilder;

/// Strategy: a random but valid access timeline. A miss phase starts
/// independently of its access's hit phase, so some start before the
/// hit phase ends, and some end before the hit phase starts: pure
/// cycles after such a miss ends, before its access retires, are not
/// its own.
fn timelines() -> impl Strategy<Value = Timeline> {
    prop::collection::vec(
        (0u64..50, 1u32..5, prop::option::of((0u64..60, 1u32..10))),
        1..25,
    )
    .prop_map(|specs| {
        let mut tl = Timeline::new();
        for (start, h, miss) in specs {
            match miss {
                Some((miss_start, penalty)) => {
                    tl.push(AccessTiming::miss(start, h, miss_start, penalty))
                }
                None => tl.push(AccessTiming::hit(start, h)),
            }
        }
        tl
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's central identity: the Eq. 2 formula equals
    /// memory-active cycles per access, for every timeline.
    #[test]
    fn camat_formula_equals_direct(tl in timelines()) {
        let m = tl.measure();
        prop_assert!((m.camat() - m.camat_direct()).abs() < 1e-9,
            "formula {} vs direct {}", m.camat(), m.camat_direct());
    }

    /// The online HCD/MCD detector agrees with the offline measurement.
    #[test]
    fn detector_matches_offline(tl in timelines()) {
        let offline = tl.measure();
        let online = CamatDetector::replay(&tl).measurement;
        prop_assert!((offline.camat() - online.camat()).abs() < 1e-9);
        prop_assert_eq!(offline.pure_misses, online.pure_misses);
        prop_assert_eq!(offline.memory_active_cycles, online.memory_active_cycles);
    }

    /// Pure misses never exceed conventional misses, and C-AMAT never
    /// exceeds AMAT.
    #[test]
    fn camat_bounded_by_amat(tl in timelines()) {
        let m = tl.measure();
        prop_assert!(m.pure_misses <= m.misses);
        prop_assert!(m.camat() <= m.amat() + 1e-9);
        prop_assert!(m.concurrency() >= 1.0 - 1e-9);
    }

    /// Sun-Ni's law sits between Amdahl and Gustafson for sublinear g,
    /// and is monotone in N.
    #[test]
    fn sun_ni_sandwich(f in 0.0f64..1.0, n in 1.0f64..2048.0, b in 0.0f64..1.0) {
        let g = ScaleFunction::Power(b);
        let s = sun_ni(f, n, &g);
        prop_assert!(s >= amdahl(f, n) - 1e-9);
        prop_assert!(s <= gustafson(f, n) + 1e-9);
    }

    /// LRU miss rates from the reuse profile are non-increasing in
    /// capacity (the stack-inclusion property).
    #[test]
    fn reuse_profile_monotone(lines in prop::collection::vec(0u64..32, 1..200)) {
        let mut b = TraceBuilder::new();
        for l in &lines {
            b.read(l * 64);
        }
        let p = ReuseProfile::compute(&b.finish(), 64);
        let mut prev = 1.0f64;
        for cap in 1..40usize {
            let mr = p.miss_rate_for_lines(cap);
            prop_assert!(mr <= prev + 1e-12);
            prop_assert!((0.0..=1.0).contains(&mr));
            prev = mr;
        }
    }

    /// LU solves reproduce the right-hand side.
    #[test]
    fn lu_solve_residual(
        seed in prop::collection::vec(-1.0f64..1.0, 9),
        rhs in prop::collection::vec(-10.0f64..10.0, 3),
    ) {
        let mut m = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                m[(i, j)] = seed[i * 3 + j];
            }
            m[(i, i)] += 4.0; // diagonally dominant -> nonsingular
        }
        let x = m.solve(&rhs).unwrap();
        let ax = m.mul_vec(&x).unwrap();
        for (a, b) in ax.iter().zip(&rhs) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    /// Golden-section finds the parabola vertex anywhere in the bracket.
    #[test]
    fn golden_finds_parabola_vertex(c in -20.0f64..20.0) {
        let (x, _) = golden_section(|x| (x - c) * (x - c), -25.0, 25.0, 1e-9).unwrap();
        prop_assert!((x - c).abs() < 1e-4);
    }

    /// The execution-time objective is positive and decreasing in cache
    /// area for any feasible point.
    #[test]
    fn objective_positive_and_cache_monotone(
        n in 1.0f64..64.0,
        a0 in 0.5f64..8.0,
        a1 in 0.1f64..2.0,
        a2 in 0.1f64..2.0,
    ) {
        let m = C2BoundModel::example_big_data();
        let v = DesignVariables { n, a0, a1, a2 };
        let t = m.execution_time(&v);
        prop_assert!(t > 0.0 && t.is_finite());
        let bigger = DesignVariables { a1: a1 * 2.0, ..v };
        prop_assert!(m.execution_time(&bigger) <= t + 1e-6);
    }

    /// AMAT/C-AMAT parameter validation is total: valid inputs build,
    /// and the sequential special case matches AMAT exactly.
    #[test]
    fn sequential_camat_is_amat(h in 0.5f64..8.0, mr in 0.0f64..1.0, amp in 0.0f64..300.0) {
        let amat = AmatParams::new(h, mr, amp).unwrap();
        let camat = CamatParams::sequential(amat);
        prop_assert!((camat.value() - amat.value()).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full simulator on random small traces: every instruction
    /// retires, every access is accounted for, the C-AMAT identity and
    /// the AMAT bound hold, and runs are deterministic.
    #[test]
    fn simulator_accounting_invariants(
        ops in prop::collection::vec((0u64..512, 0u8..4, 1u64..6), 5..120),
    ) {
        use c2bound::sim::{ChipConfig, Simulator};
        let mut b = TraceBuilder::new();
        for (line, kind, gap) in &ops {
            b.compute(*gap);
            if kind % 4 == 0 {
                b.write(line * 64);
            } else {
                b.read(line * 64);
            }
        }
        let trace = b.finish();
        let run = || {
            Simulator::new(ChipConfig::default_single_core())
                .run(std::slice::from_ref(&trace))
                .unwrap()
        };
        let r = run();
        prop_assert_eq!(r.total_instructions(), trace.instruction_count());
        prop_assert_eq!(r.cores[0].accesses, trace.len() as u64);
        prop_assert_eq!(r.cores[0].camat.accesses, trace.len() as u64);
        let m = &r.cores[0].camat;
        prop_assert!((m.camat() - m.camat_direct()).abs() < 1e-9,
            "identity: {} vs {}", m.camat(), m.camat_direct());
        prop_assert!(m.camat() <= m.amat() + 1e-9);
        prop_assert!(m.pure_misses <= m.misses);
        // Determinism.
        prop_assert_eq!(r, run());
    }

    /// Multi-level C-AMAT recursion: adding capacity (lower pMR) at any
    /// level never hurts the application-visible C-AMAT.
    #[test]
    fn hierarchy_monotone_in_pmr(
        pmr1 in 0.0f64..0.5,
        pmr2 in 0.0f64..0.8,
        shrink in 0.1f64..0.9,
    ) {
        use c2bound::camat::hierarchy::{Hierarchy, LevelParams};
        let build = |p1: f64, p2: f64| {
            Hierarchy::new(
                vec![
                    LevelParams::new(3.0, 2.0, p1, 2.0, 1.0).unwrap(),
                    LevelParams::new(12.0, 4.0, p2, 4.0, 1.0).unwrap(),
                ],
                60.0,
            )
            .unwrap()
        };
        let base = build(pmr1, pmr2).camat();
        prop_assert!(build(pmr1 * shrink, pmr2).camat() <= base + 1e-12);
        prop_assert!(build(pmr1, pmr2 * shrink).camat() <= base + 1e-12);
    }

    /// APS with an arbitrarily flaky oracle: as long as at least one
    /// refinement point succeeds, the run returns an outcome whose log
    /// accounts for every point; when every point fails, it errors.
    #[test]
    fn aps_survives_any_flaky_oracle_with_one_live_point(
        fail in prop::collection::vec(0u8..2, 9),
    ) {
        use c2bound::model::dse::DesignSpace;
        use c2bound::model::{Aps, C2BoundModel, DesignPoint, ResiliencePolicy};
        let space = DesignSpace::tiny(); // 3 issue x 3 rob = 9 sweep points
        let aps = Aps::new(C2BoundModel::example_big_data(), space);
        let policy = ResiliencePolicy {
            max_attempts: 1,
            analytic_fallback: true,
        };
        let mut calls = 0usize;
        let outcome = aps.run_oracle(
            |p: &DesignPoint| {
                let i = calls;
                calls += 1;
                if fail[i] == 1 {
                    Err(c2bound::model::Error::Simulation("flaky".into()))
                } else {
                    Ok(1e6 / (p.issue_width as f64 * p.rob_size as f64).sqrt())
                }
            },
            &policy,
        );
        let failures = fail.iter().filter(|&&f| f == 1).count();
        if failures == 9 {
            prop_assert!(outcome.is_err(), "all-failing oracle must error");
        } else {
            let o = outcome.unwrap();
            let log = &o.refinement;
            prop_assert_eq!(log.attempted, 9);
            prop_assert_eq!(log.skipped.len(), failures);
            prop_assert_eq!(log.attempted, log.succeeded + log.skipped.len());
            prop_assert_eq!(log.is_complete(), failures == 0);
            prop_assert!(o.best_time.is_finite() && o.best_time > 0.0);
        }
    }

    /// Trace serialization round-trips arbitrary valid traces.
    #[test]
    fn trace_io_roundtrip(
        ops in prop::collection::vec((0u64..1_000_000, 0u8..2, 0u64..9), 0..80),
    ) {
        let mut b = TraceBuilder::new();
        for (addr, kind, gap) in &ops {
            b.compute(*gap);
            if kind % 2 == 0 {
                b.read(*addr);
            } else {
                b.write(*addr);
            }
        }
        let t = b.finish();
        let back = c2bound::trace::io::from_str(&c2bound::trace::io::to_string(&t)).unwrap();
        prop_assert_eq!(t, back);
    }

    /// Backend identity binding (DESIGN.md §14): for any plan and
    /// scenario fingerprint, the journal header bound under the
    /// grandfathered cpu-cmp backend equals the pre-refactor header
    /// (byte-compatibility), while any other backend identity moves
    /// it — so a resumed journal or shared-journal header can never be
    /// accepted across backends, even on fingerprint-free positional
    /// runs.
    #[test]
    fn backend_binding_isolates_journal_headers(
        plan_fp in 0u64..=u64::MAX,
        scenario_fp in prop::option::of(0u64..=u64::MAX),
        idx in 0usize..4,
    ) {
        use c2bound::runner::journal::{backend_fingerprint, bind_fingerprint};
        let others = ["gpu-sm", "gpu-sm-v2", "npu-tile", "dsp"];
        let base = bind_fingerprint(plan_fp, scenario_fp);
        let cpu = bind_fingerprint(base, backend_fingerprint("cpu-cmp"));
        prop_assert_eq!(cpu, base, "cpu-cmp must be header-invariant");
        let alt = bind_fingerprint(base, backend_fingerprint(others[idx]));
        prop_assert_ne!(alt, cpu, "{} shares the cpu-cmp header", others[idx]);
        for (i, a) in others.iter().enumerate() {
            for b in &others[i + 1..] {
                prop_assert_ne!(
                    bind_fingerprint(base, backend_fingerprint(a)),
                    bind_fingerprint(base, backend_fingerprint(b)),
                    "{} and {} share a header", a, b
                );
            }
        }
    }

    /// Shared-cache isolation across backends: for any GPU knob values,
    /// the gpu-sm variant of a scenario fingerprints differently from
    /// its cpu-cmp twin, so every cache address (`cache_key`) derived
    /// from those fingerprints is disjoint — a cpu-cmp entry can never
    /// be served to a gpu-sm run of the same document, or vice versa.
    /// The document also round-trips through the canonical renderer.
    #[test]
    fn gpu_scenarios_fingerprint_apart_from_cpu_twins(
        work_exp in 6.0f64..12.0,
        m_fma in 0.0f64..1.0,
        bw in 64.0f64..2048.0,
        content_key in 0u64..=u64::MAX,
    ) {
        use c2_config::{BackendKind, Scenario};
        let mut cpu = Scenario::default();
        cpu.backend.gpu.work_flops = 10f64.powf(work_exp);
        cpu.backend.gpu.m_fma = m_fma;
        cpu.backend.gpu.mem_bandwidth = bw;
        let mut gpu = cpu.clone();
        gpu.backend.kind = BackendKind::GpuSm;
        // Round-trip: the canonical rendering parses back to the same
        // fingerprint.
        let reparsed = Scenario::from_json(&gpu.render_pretty()).unwrap();
        prop_assert_eq!(reparsed.fingerprint(), gpu.fingerprint());
        // The cpu twin ignores gpu knobs (grandfathered default
        // rendering), the gpu one binds them.
        prop_assert_eq!(cpu.fingerprint(), Scenario::default().fingerprint());
        prop_assert_ne!(gpu.fingerprint(), cpu.fingerprint());
        prop_assert_ne!(
            c2bound::runner::cache_key(gpu.fingerprint(), content_key),
            c2bound::runner::cache_key(cpu.fingerprint(), content_key),
            "cache addresses collide across backends"
        );
    }
}
