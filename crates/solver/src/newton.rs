//! Damped multivariate Newton.
//!
//! This is the engine behind the paper's "efficient solver for the
//! nonlinear equation set" (§III.D): the KKT conditions of the Lagrangian
//! Eq. 13 form a small nonlinear system `F(x) = 0`, solved here by
//! Newton iteration with LU linear solves and a backtracking
//! (residual-halving) line search for global behaviour.
//!
//! The Jacobian is the caller's: [`newton_system`] takes it as an
//! argument. A caller with closed-form derivatives (the area split of
//! `c2-bound::optimize`) passes them; a caller with only `F` passes
//! [`forward_difference`], one forward difference per column.

use crate::linalg::{norm2, Matrix};
use crate::{Error, Result};

/// Options for [`newton_system`].
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Residual 2-norm convergence tolerance.
    pub tol: f64,
    /// Maximum Newton iterations.
    pub max_iters: usize,
    /// Relative step for a [`forward_difference`] Jacobian.
    pub fd_step: f64,
    /// Maximum backtracking halvings per iteration.
    pub max_backtracks: usize,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            // A forward-difference Jacobian with step ~1e-7 limits the
            // reliably reachable residual to ~1e-9.
            tol: 1e-9,
            max_iters: 100,
            fd_step: 1e-7,
            max_backtracks: 30,
        }
    }
}

/// Result of a successful Newton solve.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Residual 2-norm at the solution.
    pub residual: f64,
    /// Iterations used.
    pub iterations: usize,
}

/// The forward-difference Jacobian of `f` with relative step `step`:
/// column `j` is `(F(x + h e_j) − F(x)) / h` with
/// `h = step · max(|x_j|, step)`. Pass it as [`newton_system`]'s
/// `jacobian` when `F` has no closed-form derivative.
pub fn forward_difference<F>(f: F, step: f64) -> impl Fn(&[f64], &[f64], &mut Matrix) -> Result<()>
where
    F: Fn(&[f64], &mut [f64]),
{
    move |x, fx, jac| {
        let n = x.len();
        let mut x_pert = x.to_vec();
        let mut f_pert = vec![0.0; n];
        for j in 0..n {
            let h = step * x[j].abs().max(step);
            x_pert[j] = x[j] + h;
            f(&x_pert, &mut f_pert);
            x_pert[j] = x[j];
            if f_pert.iter().any(|v| !v.is_finite()) {
                return Err(Error::NonFiniteValue);
            }
            for i in 0..n {
                jac[(i, j)] = (f_pert[i] - fx[i]) / h;
            }
        }
        Ok(())
    }
}

/// Solve `F(x) = 0` for a system `F: R^n -> R^n`.
///
/// `f(x, out)` must write the residual into `out` (same length as `x`).
/// `jacobian(x, fx, jac)` must write `∂F/∂x` at `x` into the `n × n`
/// matrix `jac`; `fx` is `F(x)`, already evaluated.
pub fn newton_system<F, J>(
    f: F,
    jacobian: J,
    x0: &[f64],
    opts: &NewtonOptions,
) -> Result<NewtonSolution>
where
    F: Fn(&[f64], &mut [f64]),
    J: Fn(&[f64], &[f64], &mut Matrix) -> Result<()>,
{
    let mut ws = Workspace::default();
    let (iterations, residual) = ws.solve(f, jacobian, |_| true, x0, opts)?;
    Ok(NewtonSolution {
        x: ws.x,
        residual,
        iterations,
    })
}

/// The buffers of a Newton solve. A caller that solves many small
/// systems (one per active-set face) keeps one workspace and allocates
/// them once; [`Workspace::solve`] allocates nothing once they have
/// grown to the largest system.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// The iterate: the solution once [`Workspace::solve`] succeeds.
    pub(crate) x: Vec<f64>,
    fx: Vec<f64>,
    trial: Vec<f64>,
    fx_trial: Vec<f64>,
    step: Vec<f64>,
    jac: Matrix,
    lu: Vec<f64>,
}

impl Workspace {
    /// [`newton_system`] from `x0`, returning `(iterations, residual)`
    /// and leaving the solution in `self.x`. `f` and `jacobian` are only
    /// called at points where `in_domain` holds, and `x0` must be one. A
    /// line-search trial outside the domain is skipped as a rejected
    /// one is: it costs one of `opts.max_backtracks` halvings, so the
    /// sequence of trials, and of accepted steps, is the one a search
    /// evaluating every trial takes when `f` is non-finite outside the
    /// domain.
    pub(crate) fn solve<F, J, D>(
        &mut self,
        f: F,
        jacobian: J,
        in_domain: D,
        x0: &[f64],
        opts: &NewtonOptions,
    ) -> Result<(usize, f64)>
    where
        F: Fn(&[f64], &mut [f64]),
        J: Fn(&[f64], &[f64], &mut Matrix) -> Result<()>,
        D: Fn(&[f64]) -> bool,
    {
        let n = x0.len();
        if n == 0 {
            return Err(Error::InvalidParameter("empty system"));
        }
        let Workspace {
            x,
            fx,
            trial,
            fx_trial,
            step,
            jac,
            lu,
        } = self;
        x.clear();
        x.extend_from_slice(x0);
        for v in [&mut *fx, &mut *trial, &mut *fx_trial, &mut *step] {
            v.clear();
            v.resize(n, 0.0);
        }
        jac.reset(n, n);

        f(x, fx);
        if fx.iter().any(|v| !v.is_finite()) {
            return Err(Error::NonFiniteValue);
        }
        let mut res = norm2(fx);

        for it in 0..opts.max_iters {
            if res < opts.tol {
                return Ok((it, res));
            }
            jacobian(x, fx, jac)?;
            // Newton step: J dx = -F.
            for (s, v) in step.iter_mut().zip(fx.iter()) {
                *s = -v;
            }
            jac.solve_in_place(step, lu)?;
            // Backtracking line search on the residual norm.
            let mut alpha = 1.0;
            let mut accepted = false;
            for _ in 0..=opts.max_backtracks {
                for ((t, xi), di) in trial.iter_mut().zip(x.iter()).zip(step.iter()) {
                    *t = xi + alpha * di;
                }
                if in_domain(trial) {
                    f(trial, fx_trial);
                    if fx_trial.iter().all(|v| v.is_finite()) {
                        let trial_res = norm2(fx_trial);
                        if trial_res < res || trial_res < opts.tol {
                            std::mem::swap(x, trial);
                            fx.copy_from_slice(fx_trial);
                            res = trial_res;
                            accepted = true;
                            break;
                        }
                    }
                }
                alpha *= 0.5;
            }
            if !accepted {
                // The line search has hit the Jacobian's precision floor
                // (a finite-difference one's, typically); accept a
                // residual that is within two decades of the target.
                if res < opts.tol * 100.0 {
                    return Ok((it, res));
                }
                return Err(Error::DidNotConverge {
                    iterations: it,
                    residual: res,
                });
            }
        }
        if res < opts.tol {
            Ok((opts.max_iters, res))
        } else {
            Err(Error::DidNotConverge {
                iterations: opts.max_iters,
                residual: res,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Newton with the forward-difference Jacobian of `f`.
    fn newton_fd<F>(f: F, x0: &[f64], opts: &NewtonOptions) -> Result<NewtonSolution>
    where
        F: Fn(&[f64], &mut [f64]),
    {
        newton_system(&f, forward_difference(&f, opts.fd_step), x0, opts)
    }

    #[test]
    fn solves_linear_system() {
        // 2x + y = 3; x + 3y = 5
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = 2.0 * x[0] + x[1] - 3.0;
            out[1] = x[0] + 3.0 * x[1] - 5.0;
        };
        let s = newton_fd(f, &[0.0, 0.0], &NewtonOptions::default()).unwrap();
        assert!((s.x[0] - 0.8).abs() < 1e-9);
        assert!((s.x[1] - 1.4).abs() < 1e-9);
        assert!(s.iterations <= 3);
    }

    #[test]
    fn exact_jacobian_solves_a_linear_system_in_one_step() {
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = 2.0 * x[0] + x[1] - 3.0;
            out[1] = x[0] + 3.0 * x[1] - 5.0;
        };
        let jac = |_: &[f64], _: &[f64], j: &mut Matrix| {
            *j = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
            Ok(())
        };
        let s = newton_system(f, jac, &[0.0, 0.0], &NewtonOptions::default()).unwrap();
        assert_eq!(s.iterations, 1);
        assert!((s.x[0] - 0.8).abs() < 1e-12);
        assert!((s.x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solves_circle_line_intersection() {
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] * x[0] + x[1] * x[1] - 2.0;
            out[1] = x[0] - x[1];
        };
        let s = newton_fd(f, &[2.0, 0.5], &NewtonOptions::default()).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-8);
        assert!((s.x[1] - 1.0).abs() < 1e-8);
        // The closed-form Jacobian reaches the same root to a tighter
        // tolerance than the finite-difference floor allows.
        let jac = |x: &[f64], _: &[f64], j: &mut Matrix| {
            *j = Matrix::from_rows(&[&[2.0 * x[0], 2.0 * x[1]], &[1.0, -1.0]])?;
            Ok(())
        };
        let tight = NewtonOptions {
            tol: 1e-14,
            ..NewtonOptions::default()
        };
        let s = newton_system(f, jac, &[2.0, 0.5], &tight).unwrap();
        assert!(s.residual < 1e-14);
        assert!((s.x[0] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn solves_rosenbrock_gradient() {
        // grad of Rosenbrock = 0 at (1, 1); a classic stiff system.
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
            out[1] = 200.0 * (x[1] - x[0] * x[0]);
        };
        let s = newton_fd(
            f,
            &[-1.2, 1.0],
            &NewtonOptions {
                max_iters: 500,
                ..NewtonOptions::default()
            },
        )
        .unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-6, "{:?}", s.x);
        assert!((s.x[1] - 1.0).abs() < 1e-6, "{:?}", s.x);
    }

    #[test]
    fn three_dimensional_system() {
        // x + y + z = 6; x*y*z = 6; z - x = 2 -> simple root at (1, 2, 3).
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] + x[1] + x[2] - 6.0;
            out[1] = x[0] * x[1] * x[2] - 6.0;
            out[2] = x[2] - x[0] - 2.0;
        };
        let s = newton_fd(f, &[0.9, 2.2, 2.8], &NewtonOptions::default()).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-8);
        assert!((s.x[1] - 2.0).abs() < 1e-8);
        assert!((s.x[2] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn reports_nonconvergence() {
        // F(x) = 1 has no root.
        let f = |_: &[f64], out: &mut [f64]| {
            out[0] = 1.0;
        };
        let r = newton_fd(f, &[0.0], &NewtonOptions::default());
        assert!(matches!(
            r,
            Err(Error::DidNotConverge { .. }) | Err(Error::SingularMatrix)
        ));
    }

    #[test]
    fn jacobian_errors_end_the_solve() {
        let f = |x: &[f64], out: &mut [f64]| out[0] = x[0] - 1.0;
        let jac = |_: &[f64], _: &[f64], _: &mut Matrix| Err(Error::NonFiniteValue);
        assert_eq!(
            newton_system(f, jac, &[0.0], &NewtonOptions::default()),
            Err(Error::NonFiniteValue)
        );
    }

    #[test]
    fn rejects_empty_system() {
        let f = |_: &[f64], _: &mut [f64]| {};
        assert!(matches!(
            newton_fd(f, &[], &NewtonOptions::default()),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn already_converged_start_returns_immediately() {
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] - 5.0;
        };
        let s = newton_fd(f, &[5.0], &NewtonOptions::default()).unwrap();
        assert_eq!(s.iterations, 0);
        assert!(s.residual < 1e-10);
    }
}
