//! Solving the constrained design problem (paper Eq. 13, Fig 6 cases).
//!
//! Structure of the solve, following §III.C:
//!
//! 1. **Inner problem** (fixed `N`): choose the area split
//!    `(A0, A1, A2)` with `A0 + A1 + A2 = (A − Ac)/N` and every
//!    `A_i ≥ MIN_AREA`, minimizing the per-instruction cycle cost. An
//!    18 × 18 grid over the split fractions gives the seed. The method
//!    of Lagrange multipliers then runs as an exact active-set KKT
//!    solve (`c2-solver::lagrange`): closed-form ∂CPI/∂A_i and
//!    ∂²CPI/∂A_i∂A_j ([`C2BoundModel::cpi_derivatives`]), Newton on the
//!    KKT system of each face (set of areas pinned at `MIN_AREA`), and
//!    the lowest-CPI primal- and dual-feasible point. On the shipped
//!    CPU scenarios the optimum has L1 and L2 on the floor, which only a
//!    pinned face expresses. The KKT point must also beat the seed (KKT
//!    holds at saddles too). When no face gives one that does — say a
//!    clamped miss curve puts the optimum on a kink — Nelder–Mead on the
//!    split fractions produces the answer (`SplitSolve::SimplexFallback`,
//!    counted as `aps_split_fallback_total`).
//! 2. **Outer problem**: the case split on `g(N)`. When `g(N) < O(N)` a
//!    finite `N` minimizes `T` (golden-section on the inner optimum);
//!    when `g(N) ≥ O(N)` there is no finite minimizer of `T`
//!    (`∂L/∂N > 0`), so maximize the throughput `W/T` instead.

use c2_solver::golden::{golden_section, golden_section_max};
use c2_solver::grid::{grid_minimize, GridSpec};
use c2_solver::lagrange::solve_active_set_observed;
use c2_solver::linalg::Matrix;
use c2_solver::nelder::{nelder_mead, NelderMeadOptions};
use c2_solver::newton::NewtonOptions;

use crate::model::{C2BoundModel, DesignVariables, OptimizationCase};
use crate::{Error, Result};
use c2_obs::{MetricsSink, NullSink};

/// Lower bound on any single area component (mm²) to keep the model in
/// its physical domain.
pub const MIN_AREA: f64 = 0.05;

/// Solver tolerances for the two-level optimization. The default is
/// exactly the historical hard-coded constants, so untuned callers see
/// bit-identical behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverTuning {
    /// Newton convergence tolerance on each face's KKT residual (also
    /// the dual-feasibility slack of a pinned area).
    pub newton_tol: f64,
    /// Newton iteration cap per face.
    pub newton_max_iters: usize,
    /// Nelder–Mead convergence tolerance (fallback solver).
    pub nelder_tol: f64,
    /// Nelder–Mead iteration cap.
    pub nelder_max_iters: usize,
}

impl Default for SolverTuning {
    fn default() -> Self {
        SolverTuning {
            newton_tol: 1e-8,
            newton_max_iters: 200,
            nelder_tol: 1e-12,
            nelder_max_iters: 4000,
        }
    }
}

impl SolverTuning {
    /// Validated construction from a scenario solver spec.
    pub fn from_spec(spec: &c2_config::SolverSpec) -> Result<Self> {
        for (name, value) in [
            ("newton_tol", spec.newton_tol),
            ("nelder_tol", spec.nelder_tol),
        ] {
            if !(value > 0.0) || !value.is_finite() {
                return Err(Error::InvalidParameter { name, value });
            }
        }
        for (name, value) in [
            ("newton_max_iters", spec.newton_max_iters),
            ("nelder_max_iters", spec.nelder_max_iters),
        ] {
            if value == 0 {
                return Err(Error::InvalidParameter { name, value: 0.0 });
            }
        }
        Ok(SolverTuning {
            newton_tol: spec.newton_tol,
            newton_max_iters: spec.newton_max_iters as usize,
            nelder_tol: spec.nelder_tol,
            nelder_max_iters: spec.nelder_max_iters as usize,
        })
    }
}

/// How the inner area-split problem was ultimately solved for the final
/// `N` — the degradation ladder of the resilient pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitSolve {
    /// The active-set KKT solve produced a clean (full-tolerance)
    /// solution.
    Kkt,
    /// The active-set KKT solve produced a usable but degraded solution
    /// (the winning face's residual stalled above the Newton tolerance).
    KktDegraded,
    /// No face gave a feasible KKT point, or the best one lost to the
    /// grid seed; the Nelder–Mead simplex on the free fractions produced
    /// the answer.
    SimplexFallback,
}

impl SplitSolve {
    /// `true` for a clean KKT solve (the paper's nominal Eq. 13 route).
    pub fn is_clean_kkt(&self) -> bool {
        matches!(self, SplitSolve::Kkt)
    }
}

/// The optimizer's output.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalDesign {
    /// The optimal design variables.
    pub vars: DesignVariables,
    /// Which case the optimizer took.
    pub case: OptimizationCase,
    /// Execution time `J_D` at the optimum (cycles).
    pub execution_time: f64,
    /// Throughput `W/T` at the optimum.
    pub throughput: f64,
    /// Per-instruction cycle cost at the optimum.
    pub cpi: f64,
    /// Data-access concurrency `C` at the optimum.
    pub concurrency: f64,
    /// Which rung of the degradation ladder solved the final `N`'s
    /// split ([`SplitSolve::is_clean_kkt`] for the paper's route).
    pub split_solve: SplitSolve,
}

/// Optimize the area split for a fixed `N`. Returns the best feasible
/// `(A0, A1, A2)` and whether Newton converged.
pub fn optimize_split(model: &C2BoundModel, n: f64) -> Result<(DesignVariables, bool)> {
    let (vars, solve) = optimize_split_report(model, n)?;
    Ok((vars, solve.is_clean_kkt()))
}

/// [`optimize_split`] with explicit solver tolerances.
pub fn optimize_split_tuned(
    model: &C2BoundModel,
    n: f64,
    tuning: &SolverTuning,
) -> Result<(DesignVariables, bool)> {
    let (vars, solve) = optimize_split_report_observed_tuned(model, n, tuning, &NullSink)?;
    Ok((vars, solve.is_clean_kkt()))
}

/// Like [`optimize_split`], but reports which rung of the degradation
/// ladder produced the answer.
pub fn optimize_split_report(
    model: &C2BoundModel,
    n: f64,
) -> Result<(DesignVariables, SplitSolve)> {
    optimize_split_report_observed_tuned(model, n, &SolverTuning::default(), &NullSink)
}

/// [`optimize_split_report`] with explicit solver tolerances and the
/// KKT solve instrumented: its rung entry and its acceptance or failure
/// go to `sink` under the `solver` scope; a Nelder–Mead rescue is
/// counted under `aps_split_fallback_total`.
pub fn optimize_split_report_observed_tuned(
    model: &C2BoundModel,
    n: f64,
    tuning: &SolverTuning,
    sink: &dyn MetricsSink,
) -> Result<(DesignVariables, SplitSolve)> {
    if n < 1.0 {
        return Err(Error::InvalidParameter {
            name: "n",
            value: n,
        });
    }
    let per_core = model.budget.usable() / n;
    if per_core < 3.0 * MIN_AREA {
        return Err(Error::Optimization(format!(
            "per-core area {per_core:.3} mm² cannot fit three components"
        )));
    }
    let objective = |a: &[f64]| {
        let v = DesignVariables {
            n,
            a0: a[0],
            a1: a[1],
            a2: a[2],
        };
        if a.iter().any(|&x| x < MIN_AREA) {
            // Below the area floor: not a feasible split.
            return f64::INFINITY;
        }
        model.cycles_per_instruction(&v)
    };

    // Grid seed over (a0 fraction, a1 fraction); a2 takes the rest.
    let axes = [
        GridSpec::linear(0.05, 0.9, 18),
        GridSpec::linear(0.05, 0.9, 18),
    ];
    let (seed_frac, _) = grid_minimize(&axes, |f| {
        let a0 = f[0] * per_core;
        let a1 = f[1] * per_core;
        let a2 = per_core - a0 - a1;
        if a2 < MIN_AREA {
            return f64::NAN;
        }
        objective(&[a0, a1, a2])
    })?;
    let seed = [
        seed_frac[0] * per_core,
        seed_frac[1] * per_core,
        per_core - seed_frac[0] * per_core - seed_frac[1] * per_core,
    ];

    // Lagrange multipliers on the area simplex (the paper's Eq. 13
    // route), with the area floors as active sets.
    let derivatives = |a: &[f64], grad: &mut [f64], hess: &mut Matrix| {
        if a.iter().any(|&x| !(x > 0.0)) {
            // Outside the model's domain: a non-finite residual makes
            // Newton's line search step back. (Continuing the flat
            // 4 KiB capacity floor below zero instead lets a face's
            // Newton run off toward A → −∞ and miss an interior
            // optimum close to the floor.)
            grad.fill(f64::NAN);
            return;
        }
        let (g, h) = model.cpi_derivatives(&DesignVariables {
            n,
            a0: a[0],
            a1: a[1],
            a2: a[2],
        });
        grad.copy_from_slice(&g);
        for (i, row) in h.iter().enumerate() {
            for (j, &hij) in row.iter().enumerate() {
                hess[(i, j)] = hij;
            }
        }
    };
    let kkt = solve_active_set_observed(
        objective,
        derivatives,
        &seed,
        per_core,
        MIN_AREA,
        &NewtonOptions {
            tol: tuning.newton_tol,
            max_iters: tuning.newton_max_iters,
            ..NewtonOptions::default()
        },
        sink,
    );
    if let Ok(sol) = kkt {
        let v = DesignVariables {
            n,
            a0: sol.x[0],
            a1: sol.x[1],
            a2: sol.x[2],
        };
        // Accept the KKT point only if it actually beats the seed (KKT
        // also matches saddle points).
        if sol.objective <= objective(&seed) + 1e-12 {
            let solve = if sol.clean {
                SplitSolve::Kkt
            } else {
                SplitSolve::KktDegraded
            };
            return Ok((v, solve));
        }
    }

    // Fallback: Nelder–Mead on the two free fractions.
    sink.counter_add("aps_split_fallback_total", 1);
    let (best, _) = nelder_mead(
        |f: &[f64]| {
            let a0 = f[0].clamp(0.01, 0.98) * per_core;
            let a1 = f[1].clamp(0.01, 0.98) * per_core;
            let a2 = per_core - a0 - a1;
            if a2 < MIN_AREA {
                return 1e18;
            }
            objective(&[a0, a1, a2])
        },
        &seed_frac,
        &NelderMeadOptions {
            max_iters: tuning.nelder_max_iters,
            tol: tuning.nelder_tol,
            ..NelderMeadOptions::default()
        },
    )?;
    let a0 = best[0].clamp(0.01, 0.98) * per_core;
    let a1 = best[1].clamp(0.01, 0.98) * per_core;
    Ok((
        DesignVariables {
            n,
            a0,
            a1,
            a2: per_core - a0 - a1,
        },
        SplitSolve::SimplexFallback,
    ))
}

/// Full two-level optimization (Fig 6).
pub fn optimize(model: &C2BoundModel) -> Result<OptimalDesign> {
    optimize_observed_tuned(model, &SolverTuning::default(), &NullSink)
}

/// [`optimize`] with explicit solver tolerances and the *final* split
/// solve instrumented. The outer N-scan runs dozens of inner solves;
/// observing every one would flood the trace with near-identical solver
/// events, so only the definitive solve at the chosen `N*` reports to
/// `sink` (the scan stays on a [`NullSink`]).
pub fn optimize_observed_tuned(
    model: &C2BoundModel,
    tuning: &SolverTuning,
    sink: &dyn MetricsSink,
) -> Result<OptimalDesign> {
    let n_max = (model.budget.usable() / (3.0 * MIN_AREA)).floor().max(1.0);
    let case = model.case();

    // Outer objective: the best achievable value at each N.
    let value_at = |n: f64| -> f64 {
        match optimize_split_tuned(model, n, tuning) {
            Ok((v, _)) => match case {
                OptimizationCase::MinimizeTime => model.execution_time(&v),
                OptimizationCase::MaximizeThroughput => model.throughput(&v),
            },
            Err(_) => match case {
                OptimizationCase::MinimizeTime => f64::INFINITY,
                OptimizationCase::MaximizeThroughput => 0.0,
            },
        }
    };

    // Coarse logarithmic scan over N to bracket the optimum, then golden
    // refinement inside the best bracket.
    let scan_axis = GridSpec::logarithmic(1.0, n_max, 25);
    let mut best_i = 0;
    let mut best_val = match case {
        OptimizationCase::MinimizeTime => f64::INFINITY,
        OptimizationCase::MaximizeThroughput => f64::NEG_INFINITY,
    };
    for i in 0..scan_axis.steps {
        let n = scan_axis.point(i);
        let v = value_at(n);
        let better = match case {
            OptimizationCase::MinimizeTime => v < best_val,
            OptimizationCase::MaximizeThroughput => v > best_val,
        };
        if better {
            best_val = v;
            best_i = i;
        }
    }
    let lo = scan_axis.point(best_i.saturating_sub(1));
    let hi = scan_axis.point((best_i + 1).min(scan_axis.steps - 1));
    let n_star = if hi > lo {
        match case {
            OptimizationCase::MinimizeTime => golden_section(value_at, lo, hi, 1e-3)?.0,
            OptimizationCase::MaximizeThroughput => golden_section_max(value_at, lo, hi, 1e-3)?.0,
        }
    } else {
        scan_axis.point(best_i)
    };

    let (vars, split_solve) = optimize_split_report_observed_tuned(model, n_star, tuning, sink)?;
    Ok(OptimalDesign {
        execution_time: model.execution_time(&vars),
        throughput: model.throughput(&vars),
        cpi: model.cycles_per_instruction(&vars),
        concurrency: model.concurrency(&vars),
        vars,
        case,
        split_solve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ProgramProfile;
    use c2_speedup::scale::ScaleFunction;

    fn model_with_g(g: ScaleFunction) -> C2BoundModel {
        let mut m = C2BoundModel::example_big_data();
        m.program = ProgramProfile::new(1e9, 0.05, 0.3, 0.1, g).unwrap();
        m
    }

    #[test]
    fn inner_split_exhausts_the_budget() {
        let m = C2BoundModel::example_big_data();
        let (v, _) = optimize_split(&m, 16.0).unwrap();
        let per_core = m.budget.usable() / 16.0;
        assert!((v.per_core() - per_core).abs() < 1e-6 * per_core);
        assert!(v.a0 >= MIN_AREA && v.a1 >= MIN_AREA && v.a2 >= MIN_AREA);
    }

    #[test]
    fn inner_split_beats_naive_splits() {
        let m = C2BoundModel::example_big_data();
        let n = 32.0;
        let (v, _) = optimize_split(&m, n).unwrap();
        let opt = m.cycles_per_instruction(&v);
        let per_core = m.budget.usable() / n;
        for (f0, f1) in [(0.34, 0.33), (0.6, 0.2), (0.2, 0.6), (0.1, 0.1), (0.8, 0.1)] {
            let naive = DesignVariables {
                n,
                a0: f0 * per_core,
                a1: f1 * per_core,
                a2: (1.0 - f0 - f1) * per_core,
            };
            assert!(
                opt <= m.cycles_per_instruction(&naive) + 1e-9,
                "optimizer lost to naive split ({f0}, {f1}): {opt} vs {}",
                m.cycles_per_instruction(&naive)
            );
        }
    }

    #[test]
    fn amdahl_like_workload_minimizes_time_with_few_cores() {
        // g < O(N) -> MinimizeTime; sequential fraction pushes the
        // optimum toward fewer, bigger cores ("few cores but large
        // caches" in the paper's abstract).
        let mut m = model_with_g(ScaleFunction::Power(0.5));
        m.program.f_seq = 0.3;
        let d = optimize(&m).unwrap();
        assert_eq!(d.case, OptimizationCase::MinimizeTime);
        assert!(d.vars.n >= 1.0);
        // The optimum must beat doubling or halving N.
        for factor in [0.5, 2.0] {
            let n_alt = (d.vars.n * factor).max(1.0);
            if let Ok((v_alt, _)) = optimize_split(&m, n_alt) {
                assert!(
                    d.execution_time <= m.execution_time(&v_alt) * (1.0 + 1e-6),
                    "N = {} beaten by N = {}",
                    d.vars.n,
                    n_alt
                );
            }
        }
    }

    #[test]
    fn superlinear_workload_maximizes_throughput_with_many_cores() {
        let m = model_with_g(ScaleFunction::Power(1.5));
        let d = optimize(&m).unwrap();
        assert_eq!(d.case, OptimizationCase::MaximizeThroughput);
        // The throughput optimum should use substantially more cores
        // than the Amdahl-like case.
        let mut amdahl = model_with_g(ScaleFunction::Power(0.3));
        amdahl.program.f_seq = 0.3;
        let d_amdahl = optimize(&amdahl).unwrap();
        assert!(
            d.vars.n > d_amdahl.vars.n,
            "throughput case N = {} vs time case N = {}",
            d.vars.n,
            d_amdahl.vars.n
        );
        // And it must beat nearby N on throughput.
        for factor in [0.5, 2.0] {
            let n_alt = (d.vars.n * factor).max(1.0);
            if let Ok((v_alt, _)) = optimize_split(&m, n_alt) {
                assert!(
                    d.throughput >= m.throughput(&v_alt) * (1.0 - 1e-6),
                    "N = {} beaten by N = {}",
                    d.vars.n,
                    n_alt
                );
            }
        }
    }

    #[test]
    fn higher_concurrency_shifts_area_from_cache_to_cores() {
        // More memory concurrency hides latency, so the optimizer can
        // afford smaller caches / more-or-bigger cores (paper abstract:
        // "memory bound factors significantly impact ... optimal silicon
        // area allocations").
        let base = model_with_g(ScaleFunction::Power(1.5));
        let mut high_c = base.clone();
        high_c.memory = base.memory.with_concurrency(8.0).unwrap();
        let (v_base, _) = optimize_split(&base, 64.0).unwrap();
        let (v_high, _) = optimize_split(&high_c, 64.0).unwrap();
        let cache_frac_base = (v_base.a1 + v_base.a2) / v_base.per_core();
        let cache_frac_high = (v_high.a1 + v_high.a2) / v_high.per_core();
        assert!(
            cache_frac_high < cache_frac_base,
            "cache fraction {cache_frac_high} !< {cache_frac_base}"
        );
    }

    #[test]
    fn memory_hungry_program_gets_more_cache() {
        let lean = {
            let mut m = model_with_g(ScaleFunction::Power(1.5));
            m.program.f_mem = 0.05;
            m
        };
        let hungry = {
            let mut m = model_with_g(ScaleFunction::Power(1.5));
            m.program.f_mem = 0.6;
            m
        };
        let (v_lean, _) = optimize_split(&lean, 32.0).unwrap();
        let (v_hungry, _) = optimize_split(&hungry, 32.0).unwrap();
        let frac = |v: &DesignVariables| (v.a1 + v.a2) / v.per_core();
        assert!(
            frac(&v_hungry) > frac(&v_lean),
            "hungry {} !> lean {}",
            frac(&v_hungry),
            frac(&v_lean)
        );
    }

    #[test]
    fn default_tuning_matches_historical_constants() {
        let t = SolverTuning::from_spec(&c2_config::SolverSpec::default()).unwrap();
        assert_eq!(t, SolverTuning::default());
        assert!(SolverTuning::from_spec(&c2_config::SolverSpec {
            newton_tol: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(SolverTuning::from_spec(&c2_config::SolverSpec {
            nelder_max_iters: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn tuned_optimize_with_defaults_matches_untuned() {
        let m = C2BoundModel::example_big_data();
        let a = optimize(&m).unwrap();
        let b = optimize_observed_tuned(&m, &SolverTuning::default(), &NullSink).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_n_rejected() {
        let m = C2BoundModel::example_big_data();
        assert!(optimize_split(&m, 0.5).is_err());
        // N so large that nothing fits.
        assert!(optimize_split(&m, 1e9).is_err());
    }
}
