//! Integration tests pinning the paper's headline quantitative and
//! qualitative claims, exercised through the public facade.

use c2_config::{OracleMode, Scenario};
use c2bound::camat::timeline::Timeline;
use c2bound::model::report::fmt_num;
use c2bound::model::{optimize::optimize, C2BoundModel, OptimizationCase, ScalingStudy};
use c2bound::obs::{names, NullSink, Recorder};
use c2bound::pipeline;
use c2bound::runner::RunConfig;
use c2bound::speedup::scale::{ComplexityPair, ScaleFunction};
use c2bound::speedup::{amdahl, gustafson, sun_ni};

#[test]
fn fig1_numbers_exactly() {
    let m = Timeline::paper_fig1().measure();
    assert!((m.amat() - 3.8).abs() < 1e-12);
    assert!((m.camat() - 1.6).abs() < 1e-12);
    assert!((m.hit_concurrency - 2.5).abs() < 1e-12);
    assert!((m.pure_miss_concurrency - 1.0).abs() < 1e-12);
    assert!((m.pure_miss_rate() - 0.2).abs() < 1e-12);
    assert!((m.pure_avg_miss_penalty - 2.0).abs() < 1e-12);
}

#[test]
fn sun_ni_special_cases() {
    // "When g(N) = 1, Eq. (4) is the Amdahl's law. When g(N) = N,
    // Eq. (4) is the Gustafson's law."
    for f in [0.0, 0.1, 0.5, 1.0] {
        for n in [1.0, 8.0, 512.0] {
            assert!((sun_ni(f, n, &ScaleFunction::Constant) - amdahl(f, n)).abs() < 1e-9);
            assert!((sun_ni(f, n, &ScaleFunction::Power(1.0)) - gustafson(f, n)).abs() < 1e-9);
        }
    }
}

#[test]
fn table1_tmm_derivation() {
    // W = 2n^3, M = 3n^2 -> g(N) = N^{3/2} (paper SS II.B).
    let pair = ComplexityPair::tiled_matrix_multiplication();
    let g = pair.derive_g(128.0, 9.0).unwrap();
    assert!((g - 27.0).abs() < 1e-4, "g(9) = {g}, want 27");
}

#[test]
fn case_split_governs_optimizer() {
    // SS III.C: dL/dN > 0 iff g(N) >= O(N).
    let mut m = C2BoundModel::example_big_data();
    m.program.g = ScaleFunction::Power(1.5);
    assert_eq!(
        optimize(&m).unwrap().case,
        OptimizationCase::MaximizeThroughput
    );
    m.program.g = ScaleFunction::Log2;
    m.program.f_seq = 0.2;
    assert_eq!(optimize(&m).unwrap().case, OptimizationCase::MinimizeTime);
}

#[test]
fn figs_8_to_11_shapes() {
    // The four headline shapes of the scaling figures.
    let lo = ScalingStudy::paper_figs_8_to_11(0.3).unwrap();
    let hi = ScalingStudy::paper_figs_8_to_11(0.9).unwrap();
    let ns = [100.0, 1000.0];
    let lo_c1 = lo.sweep(&ns, 1.0).unwrap();
    let hi_c1 = hi.sweep(&ns, 1.0).unwrap();
    let hi_c8 = hi.sweep(&ns, 8.0).unwrap();

    // (1) T increases with f_mem.
    assert!(hi_c1[1].time > lo_c1[1].time);
    // (2) W/T decreases with f_mem.
    assert!(hi_c1[1].throughput < lo_c1[1].throughput);
    // (3) T(C=8) << T(C=1) at N = 1000.
    assert!(hi_c1[1].time / hi_c8[1].time > 2.0);
    // (4) C=1 throughput saturates past ~100 cores; C=8 keeps growing.
    let gain_c1 = hi_c1[1].throughput / hi_c1[0].throughput;
    let gain_c8 = hi_c8[1].throughput / hi_c8[0].throughput;
    assert!(gain_c1 < 2.0, "C=1 gain {gain_c1}");
    assert!(gain_c8 > gain_c1, "C=8 gain {gain_c8} vs C=1 {gain_c1}");
}

#[test]
fn stall_fraction_motivating_range() {
    // SS I: "processor stall time due to data access typically
    // contributes 50% to 70% of the total application execution time".
    let m = c2bound::camat::ExecutionTimeModel::new(1e9, 0.6, 0.3, 3.0, 0.0, 1e-9).unwrap();
    let f = m.stall_fraction();
    assert!((0.5..0.7).contains(&f), "stall fraction {f}");
}

#[test]
fn design_space_narrowing_four_orders() {
    // "the design space has been narrowed significantly by up to four
    // orders of magnitude, from one million to one hundred."
    let space = c2bound::model::DesignSpace::paper_scale();
    assert_eq!(space.size(), 1_000_000);
    let refinement = space.issue().len() * space.rob().len();
    assert_eq!(refinement, 100);
    assert!((space.size() as f64 / refinement as f64).log10() >= 4.0);
}

/// The benchmark's calibrated model error, pinned in tier 1. The paper
/// reports an APS prediction error of 5.96%, and fig12 measures 11.8%
/// on its own workload. `paper_scale.json` (full mode) measures
/// 16.335%, and its phase-mode stencil variant 21.952%. Each figure
/// comes with the best simulated time behind it; a change to the
/// model, the simulator or the pipeline that moves either one fails
/// here. So does a change in how many evaluations the point memo
/// answers: every core gets at most 9 instructions per phase window
/// at N = 512, so the phase variant's ROB axis (16–256) collapses its
/// 20 evaluations onto 5 points, while no ROB on `paper_scale.json`'s
/// axis outgrows its longest trace.
#[test]
fn benchmark_model_error_is_pinned() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scenarios/paper_scale.json"
    ))
    .expect("paper_scale.json");
    let full = Scenario::from_json(&text).expect("parse paper_scale.json");
    let mut phase = full.clone();
    phase.workload.name = "stencil".into();
    phase.workload.size = 64;
    phase.oracle.mode = OracleMode::Phase;
    phase.space.issue = vec![1, 4, 8, 12, 16];
    phase.space.rob = vec![16, 64, 128, 256];
    for (sc, error, best, memo_hits) in [
        (&full, "16.335", "1029.0", 0),
        (&phase, "21.952", "16697.7", 15),
    ] {
        let config = RunConfig::from_spec(&sc.runner)
            .expect("runner spec")
            .with_scenario(sc.fingerprint());
        let ops = Recorder::new();
        let run = pipeline::execute(sc, config, None, false, &NullSink, &ops).expect("run");
        let outcome = run.summary.outcome.expect("a completed sweep");
        let hits = ops
            .report()
            .registry
            .counter(names::ORACLE_POINT_MEMO_HITS_TOTAL);
        assert_eq!(
            (
                fmt_num(100.0 * outcome.prediction_error),
                fmt_num(outcome.best_time),
                hits
            ),
            (error.to_string(), best.to_string(), memo_hits),
            "{} {} ({:?} oracle)",
            sc.workload.name,
            sc.workload.size,
            sc.oracle.mode
        );
    }
}
