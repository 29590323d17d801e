//! Minimization on a bounded simplex by active-set KKT (Eq. 13).
//!
//! The paper forms `L(A, λ) = J_D + λ [N(A0+A1+A2) + Ac − A]` and solves
//! `∇L = 0` with Newton's method. With the physical floor `A_i ≥ lower`
//! the problem is
//!
//! ```text
//! min f(x)   s.t.   Σ x_i = total,   x_i ≥ lower
//! ```
//!
//! and its optimum often sits on the floor, where the equality-only
//! Lagrangian has no root. [`solve_active_set`] handles the bounds
//! exactly: a *face* is the set of coordinates pinned at `lower`, and
//! on each face (all but "everything pinned", in ascending bitmask
//! order) it solves the face's KKT system
//!
//! ```text
//! F(x_free, λ) = [ ∂f/∂x_free + λ ;  Σ x_free − (total − |pinned|·lower) ] = 0
//! ```
//!
//! with damped Newton and the caller's closed-form gradient and Hessian
//! (the Jacobian is `[[H_ff, 1], [1ᵀ, 0]]`). Each face starts from the
//! caller's seed projected onto it, with λ seeded by least squares. A
//! face's point is kept only if it is primal-feasible (every free
//! `x_i ≥ lower`) and dual-feasible (`∂f/∂x_i + λ ≥ −tol` on every
//! pinned coordinate); the lowest objective wins, the first face on a
//! tie. A face whose Newton solve fails is dropped.

use std::cell::{Ref, RefCell};

use crate::linalg::Matrix;
use crate::newton::{newton_system, NewtonOptions, NewtonSolution};
use crate::{Error, Result};
use c2_obs::{MetricsSink, NullSink};

/// A KKT point of the bounded-simplex problem.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveSetSolution {
    /// Primal solution, pinned coordinates exactly at the bound.
    pub x: Vec<f64>,
    /// Multiplier λ of the sum constraint.
    pub multiplier: f64,
    /// Objective value at `x`.
    pub objective: f64,
    /// Indices of the coordinates pinned at the lower bound.
    pub pinned: Vec<usize>,
    /// The winning face's Newton solve, over `[x_free ; λ]`.
    pub solution: NewtonSolution,
    /// Whether that solve's residual meets the Newton tolerance (a
    /// `false` point is usable but degraded).
    pub clean: bool,
}

/// Minimize `f` over `{x : Σ x_i = total, x_i ≥ lower}`.
///
/// `f(x)` is the objective; it is evaluated once per face, at the
/// face's solution. `derivatives(x, grad, hess)` writes its gradient
/// and Hessian; outside the objective's domain it may write non-finite
/// values, which Newton's line search steps back from. `seed` is the
/// starting point (feasible or not); `opts.tol` and `opts.max_iters`
/// govern every face's Newton solve and `opts.tol` is also the
/// dual-feasibility slack.
pub fn solve_active_set<F, D>(
    f: F,
    derivatives: D,
    seed: &[f64],
    total: f64,
    lower: f64,
    opts: &NewtonOptions,
) -> Result<ActiveSetSolution>
where
    F: Fn(&[f64]) -> f64,
    D: Fn(&[f64], &mut [f64], &mut Matrix),
{
    solve_active_set_observed(f, derivatives, seed, total, lower, opts, &NullSink)
}

/// The solve's rung name in `solver` events. It, the `retries` field
/// and the `cascade.*` event names are pinned by the trace goldens
/// (`faulty_sweep.events.jsonl`), which predate the active-set solve.
const RUNG: &str = "nominal-newton";
/// Histogram ladder for Newton iteration counts.
const ITERATION_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
/// Histogram ladder for accepted-solution residuals.
const RESIDUAL_BOUNDS: &[f64] = &[1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1.0];

/// [`solve_active_set`] reporting to `sink` under the `solver` scope,
/// as one `nominal-newton` rung: `cascade.rung`, then
/// `cascade.accepted` (with the pinned set as `pinned`) or
/// `cascade.rung_failed`. Per-face solves do not report.
pub fn solve_active_set_observed<F, D>(
    f: F,
    derivatives: D,
    seed: &[f64],
    total: f64,
    lower: f64,
    opts: &NewtonOptions,
    sink: &dyn MetricsSink,
) -> Result<ActiveSetSolution>
where
    F: Fn(&[f64]) -> f64,
    D: Fn(&[f64], &mut [f64], &mut Matrix),
{
    sink.event("solver", "cascade.rung", &[("rung", RUNG.into())]);
    match best_face(&f, &derivatives, seed, total, lower, opts) {
        Ok(sol) => {
            emit_accepted(sink, &sol);
            Ok(sol)
        }
        Err(e) => {
            sink.counter_add("solver_rung_failures_total", 1);
            sink.event(
                "solver",
                "cascade.rung_failed",
                &[("rung", RUNG.into()), ("error", e.to_string().into())],
            );
            sink.counter_add("solver_solve_failures_total", 1);
            Err(e)
        }
    }
}

/// Report an accepted solve: the solve counter, the iteration and
/// residual histograms and the `cascade.accepted` event.
fn emit_accepted(sink: &dyn MetricsSink, sol: &ActiveSetSolution) {
    let NewtonSolution {
        iterations,
        residual,
        ..
    } = sol.solution;
    sink.counter_add("solver_solves_total", 1);
    sink.observe(
        "solver_newton_iterations",
        ITERATION_BOUNDS,
        iterations as f64,
    );
    sink.observe("solver_residual", RESIDUAL_BOUNDS, residual);
    let pinned: Vec<String> = sol.pinned.iter().map(usize::to_string).collect();
    sink.event(
        "solver",
        "cascade.accepted",
        &[
            ("rung", RUNG.into()),
            ("retries", 0usize.into()),
            (
                "quality",
                if sol.clean { "clean" } else { "degraded" }.into(),
            ),
            ("iterations", iterations.into()),
            ("residual", residual.into()),
            ("pinned", format!("{{{}}}", pinned.join(",")).into()),
        ],
    );
}

fn best_face<F, D>(
    f: &F,
    derivatives: &D,
    seed: &[f64],
    total: f64,
    lower: f64,
    opts: &NewtonOptions,
) -> Result<ActiveSetSolution>
where
    F: Fn(&[f64]) -> f64,
    D: Fn(&[f64], &mut [f64], &mut Matrix),
{
    let n = seed.len();
    if n == 0 || n >= usize::BITS as usize {
        return Err(Error::InvalidParameter("primal dimension out of range"));
    }
    if !(total >= n as f64 * lower) {
        return Err(Error::InvalidParameter("bounds exceed the total"));
    }
    let mut best: Option<ActiveSetSolution> = None;
    for mask in 0..(1usize << n) - 1 {
        let Ok(sol) = solve_face(f, derivatives, seed, total, lower, opts, mask) else {
            continue;
        };
        if best.as_ref().is_none_or(|b| sol.objective < b.objective) {
            best = Some(sol);
        }
    }
    best.ok_or(Error::NoFeasibleKktPoint)
}

/// The last point a face solve evaluated, with its derivatives.
struct Point {
    x: Vec<f64>,
    grad: Vec<f64>,
    hess: Matrix,
    evaluated: bool,
}

/// Solve one face (`mask` bit `i` set = `x_i` pinned) and check the
/// result's primal and dual feasibility.
fn solve_face<F, D>(
    f: &F,
    derivatives: &D,
    seed: &[f64],
    total: f64,
    lower: f64,
    opts: &NewtonOptions,
    mask: usize,
) -> Result<ActiveSetSolution>
where
    F: Fn(&[f64]) -> f64,
    D: Fn(&[f64], &mut [f64], &mut Matrix),
{
    let n = seed.len();
    let free: Vec<usize> = (0..n).filter(|i| mask & (1 << i) == 0).collect();
    let k = free.len();
    let rest = total - (n - k) as f64 * lower;
    // Unknowns z = [x_free ; λ]. `at(z)` puts the pinned coordinates on
    // the bound and evaluates the derivatives there, reusing the last
    // evaluation when x has not moved: Newton asks for the residual and
    // then the Jacobian at every accepted point.
    let point = RefCell::new(Point {
        x: vec![lower; n],
        grad: vec![0.0; n],
        hess: Matrix::zeros(n, n),
        evaluated: false,
    });
    let at = |z: &[f64]| -> Ref<'_, Point> {
        {
            let mut p = point.borrow_mut();
            let mut moved = !p.evaluated;
            for (&i, &zi) in free.iter().zip(z) {
                moved |= p.x[i] != zi;
                p.x[i] = zi;
            }
            if moved {
                let Point { x, grad, hess, .. } = &mut *p;
                grad.fill(0.0);
                hess.fill(0.0);
                derivatives(x, grad, hess);
                p.evaluated = true;
            }
        }
        point.borrow()
    };

    // The seed projected onto the face, λ by least squares.
    let shift = (rest - free.iter().map(|&i| seed[i]).sum::<f64>()) / k as f64;
    let mut z0: Vec<f64> = free.iter().map(|&i| seed[i] + shift).collect();
    let lambda0 = {
        let p = at(&z0);
        -free.iter().map(|&i| p.grad[i]).sum::<f64>() / k as f64
    };
    z0.push(lambda0);

    let residual = |z: &[f64], out: &mut [f64]| {
        let p = at(z);
        for (o, &i) in out.iter_mut().zip(&free) {
            *o = p.grad[i] + z[k];
        }
        out[k] = z[..k].iter().sum::<f64>() - rest;
    };
    let jacobian = |z: &[f64], _: &[f64], jac: &mut Matrix| {
        let p = at(z);
        for (r, &i) in free.iter().enumerate() {
            for (c, &j) in free.iter().enumerate() {
                jac[(r, c)] = p.hess[(i, j)];
            }
            jac[(r, k)] = 1.0;
            jac[(k, r)] = 1.0;
        }
        jac[(k, k)] = 0.0;
        if (0..=k).any(|r| (0..=k).any(|c| !jac[(r, c)].is_finite())) {
            return Err(Error::NonFiniteValue);
        }
        Ok(())
    };
    let solution = newton_system(residual, jacobian, &z0, opts)?;

    let lambda = solution.x[k];
    let p = at(&solution.x);
    let (x, grad) = (p.x.clone(), &p.grad);
    let primal = free.iter().all(|&i| x[i] >= lower);
    let dual = (0..n)
        .filter(|i| mask & (1 << i) != 0)
        .all(|i| grad[i] + lambda >= -opts.tol);
    let objective = if primal && dual { f(&x) } else { f64::NAN };
    if !objective.is_finite() {
        return Err(Error::NoFeasibleKktPoint);
    }
    Ok(ActiveSetSolution {
        x,
        multiplier: lambda,
        objective,
        pinned: (0..n).filter(|i| mask & (1 << i) != 0).collect(),
        clean: solution.residual <= opts.tol,
        solution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Σ w_i (x_i − c_i)²`, a separable quadratic, and its closed-form
    /// derivatives.
    type Quadratic = (
        Box<dyn Fn(&[f64]) -> f64>,
        Box<dyn Fn(&[f64], &mut [f64], &mut Matrix)>,
    );

    fn quadratic(w: &'static [f64], c: &'static [f64]) -> Quadratic {
        (
            Box::new(move |x| (0..x.len()).map(|i| w[i] * (x[i] - c[i]).powi(2)).sum()),
            Box::new(move |x, grad, hess| {
                for i in 0..x.len() {
                    grad[i] = 2.0 * w[i] * (x[i] - c[i]);
                    hess[(i, i)] = 2.0 * w[i];
                }
            }),
        )
    }

    #[test]
    fn minimize_distance_on_line() {
        // min x² + y² s.t. x + y = 2 -> (1, 1), λ = −2, nothing pinned.
        let (f, d) = quadratic(&[1.0, 1.0], &[0.0, 0.0]);
        let s = solve_active_set(f, d, &[0.5, 0.3], 2.0, 0.0, &NewtonOptions::default()).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-12, "{:?}", s.x);
        assert!((s.x[1] - 1.0).abs() < 1e-12, "{:?}", s.x);
        assert!((s.multiplier + 2.0).abs() < 1e-12, "{}", s.multiplier);
        assert!((s.objective - 2.0).abs() < 1e-12);
        assert!(s.pinned.is_empty());
        assert!(s.clean);
        // A quadratic's KKT system is linear: one exact Newton step.
        assert!(s.solution.iterations <= 1);
    }

    #[test]
    fn optimum_on_the_bound_is_found_with_a_nonnegative_multiplier() {
        // min (x − 3)² + (y − 3)² + (z + 1)² s.t. x + y + z = 4, all
        // ≥ 0.5: the unconstrained face wants z < 0.5, so z is pinned
        // and x = y = 1.75.
        let (f, d) = quadratic(&[1.0, 1.0, 1.0], &[3.0, 3.0, -1.0]);
        let s =
            solve_active_set(f, d, &[1.0, 1.0, 2.0], 4.0, 0.5, &NewtonOptions::default()).unwrap();
        assert_eq!(s.pinned, vec![2]);
        assert_eq!(s.x[2], 0.5);
        assert!((s.x[0] - 1.75).abs() < 1e-12, "{:?}", s.x);
        assert!((s.x[1] - 1.75).abs() < 1e-12, "{:?}", s.x);
        // μ_z = ∂f/∂z + λ = 2(0.5 + 1) − 2(1.75 − 3) ≥ 0.
        assert!(2.0 * 1.5 + s.multiplier > 0.0);
        assert!(s.clean);
    }

    #[test]
    fn area_constraint_shape_like_eq13() {
        // A miniature of Eq. 13: minimize (k/√a0 + c)·(1 + 8/a1) subject
        // to a0 + a1 = 10, with t decreasing in a1.
        let f = |a0: f64, a1: f64| (2.0 / a0.sqrt() + 0.5) * (1.0 + 8.0 / a1);
        let derivatives = |x: &[f64], grad: &mut [f64], hess: &mut Matrix| {
            let (a0, a1) = (x[0], x[1]);
            if !(a0 > 0.0 && a1 > 0.0) {
                grad.fill(f64::NAN);
                return;
            }
            let p = 2.0 / a0.sqrt() + 0.5;
            let dp = -a0.powf(-1.5);
            let ddp = 1.5 * a0.powf(-2.5);
            let t = 1.0 + 8.0 / a1;
            let dt = -8.0 / (a1 * a1);
            let ddt = 16.0 / (a1 * a1 * a1);
            grad[0] = dp * t;
            grad[1] = p * dt;
            hess[(0, 0)] = ddp * t;
            hess[(1, 1)] = p * ddt;
            hess[(0, 1)] = dp * dt;
            hess[(1, 0)] = dp * dt;
        };
        let s = solve_active_set(
            |x: &[f64]| f(x[0], x[1]),
            derivatives,
            &[5.0, 5.0],
            10.0,
            0.1,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!((s.x[0] + s.x[1] - 10.0).abs() < 1e-9);
        assert!(s.x[0] > 0.1 && s.x[1] > 0.1 && s.pinned.is_empty());
        // The solution beats perturbed feasible points.
        for d in [-1.0, -0.5, -1e-3, 1e-3, 0.5, 1.0] {
            let a0 = s.x[0] + d;
            assert!(s.objective <= f(a0, 10.0 - a0) + 1e-12);
        }
    }

    #[test]
    fn singular_interior_optimum_is_found_on_the_bound_face() {
        // min x⁴ s.t. x + y = 2, both ≥ 0: the unpinned face's KKT
        // Jacobian is singular at its root (f'' = 0 at x = 0), so Newton
        // only creeps toward it; the face with x pinned at the bound is
        // the exact optimum.
        let derivatives = |x: &[f64], grad: &mut [f64], hess: &mut Matrix| {
            grad[0] = 4.0 * x[0].powi(3);
            grad[1] = 0.0;
            hess[(0, 0)] = 12.0 * x[0] * x[0];
        };
        let s = solve_active_set(
            |x: &[f64]| x[0].powi(4),
            derivatives,
            &[1.0, 1.0],
            2.0,
            0.0,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert_eq!(s.x, vec![0.0, 2.0]);
        assert!(s.clean);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn faces_are_tried_in_a_fixed_order_and_ties_keep_the_first() {
        // f ≡ 0: every face's projected seed is already a KKT point
        // with objective 0 (Newton takes no step), so the first face in
        // bitmask order, nothing pinned, wins and returns the seed.
        let s = solve_active_set(
            |_: &[f64]| 0.0,
            |_: &[f64], _: &mut [f64], _: &mut Matrix| {},
            &[1.0, 2.0, 3.0],
            6.0,
            0.0,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!(s.pinned.is_empty());
        assert_eq!(s.x, vec![1.0, 2.0, 3.0]);
        assert_eq!(s.solution.iterations, 0);
    }

    #[test]
    fn observed_solve_reports_one_clean_rung_with_the_pinned_set() {
        let rec = c2_obs::Recorder::new();
        let (f, d) = quadratic(&[1.0, 1.0, 1.0], &[3.0, 3.0, -1.0]);
        solve_active_set_observed(
            f,
            d,
            &[1.0, 1.0, 2.0],
            4.0,
            0.5,
            &NewtonOptions::default(),
            &rec,
        )
        .unwrap();
        let report = rec.report();
        let names: Vec<&str> = report.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["cascade.rung", "cascade.accepted"]);
        let field = |name: &str| {
            report.events[1]
                .fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(field("quality"), Some("clean".into()));
        assert_eq!(field("pinned"), Some("{2}".into()));
        assert_eq!(report.registry.counter("solver_solves_total"), 1);
    }

    #[test]
    fn infeasible_or_degenerate_problems_are_errors() {
        let (f, d) = quadratic(&[1.0, 1.0], &[0.0, 0.0]);
        let opts = NewtonOptions::default();
        assert!(matches!(
            solve_active_set(&f, &d, &[], 1.0, 0.0, &opts),
            Err(Error::InvalidParameter(_))
        ));
        assert!(matches!(
            solve_active_set(&f, &d, &[1.0, 1.0], 1.0, 0.6, &opts),
            Err(Error::InvalidParameter(_))
        ));
        // An objective that is NaN everywhere has no KKT point on any
        // face, and the observed solve records the failure.
        let rec = c2_obs::Recorder::new();
        let nan = |_: &[f64]| f64::NAN;
        let nan_derivatives = |_: &[f64], g: &mut [f64], _: &mut Matrix| g.fill(f64::NAN);
        assert_eq!(
            solve_active_set(nan, &d, &[1.0, 1.0], 2.0, 0.0, &opts),
            Err(Error::NoFeasibleKktPoint)
        );
        assert_eq!(
            solve_active_set_observed(nan, nan_derivatives, &[1.0, 1.0], 2.0, 0.0, &opts, &rec),
            Err(Error::NoFeasibleKktPoint)
        );
        assert_eq!(
            rec.report().registry.counter("solver_solve_failures_total"),
            1
        );
    }
}
