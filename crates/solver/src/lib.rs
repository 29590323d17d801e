//! # c2-solver — numerical kernels for the C²-Bound optimizer
//!
//! The paper solves its constrained design-space optimization (Eq. 13)
//! with the method of Lagrange multipliers, reducing it to a nonlinear
//! equation set solved by Newton's method ("We have implemented an
//! efficient solver for the nonlinear equation set", §III.D). This crate
//! is that solver, built from scratch on the approved dependency set:
//!
//! * [`linalg`] — small dense matrices, LU decomposition with partial
//!   pivoting, linear solves;
//! * [`newton`] — damped multivariate Newton with a caller-supplied
//!   Jacobian (closed-form, or [`newton::forward_difference`]);
//! * [`golden`] — golden-section minimization for 1-D subproblems;
//! * [`grid`] — coarse grid search used to seed Newton;
//! * [`nelder`] — Nelder–Mead simplex fallback for non-smooth objectives;
//! * [`lagrange`] — minimization on a bounded simplex (`Σx = total`,
//!   `x ≥ lower`, the shape of Eq. 13) by enumerating active sets and
//!   solving each face's KKT system with [`newton`] and the caller's
//!   closed-form gradient and Hessian.
//!
//! ```
//! use c2_solver::newton::{forward_difference, newton_system, NewtonOptions};
//!
//! // Solve x^2 + y^2 = 2, x = y  ->  (1, 1)
//! let f = |x: &[f64], out: &mut [f64]| {
//!     out[0] = x[0] * x[0] + x[1] * x[1] - 2.0;
//!     out[1] = x[0] - x[1];
//! };
//! let opts = NewtonOptions::default();
//! let sol = newton_system(f, forward_difference(f, opts.fd_step), &[2.0, 0.5], &opts).unwrap();
//! assert!((sol.x[0] - 1.0).abs() < 1e-9 && (sol.x[1] - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod golden;
pub mod grid;
pub mod lagrange;
pub mod linalg;
pub mod nelder;
pub mod newton;

pub use golden::golden_section;
pub use grid::{grid_minimize, GridSpec};
pub use lagrange::{solve_active_set, solve_active_set_observed, ActiveSetSolution};
pub use linalg::Matrix;
pub use nelder::{nelder_mead, NelderMeadOptions};
pub use newton::{forward_difference, newton_system, NewtonOptions, NewtonSolution};

/// Errors from the numerical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A matrix was singular (or numerically so) during LU factorization.
    SingularMatrix,
    /// Dimensions of operands disagree.
    DimensionMismatch {
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// An iteration limit was reached before convergence.
    DidNotConverge {
        /// Iterations performed.
        iterations: usize,
        /// Residual norm (or function spread) at the last iterate.
        residual: f64,
    },
    /// The objective or residual produced a non-finite value.
    NonFiniteValue,
    /// A root/minimum bracket was invalid or could not be established.
    InvalidBracket,
    /// A configuration parameter was invalid.
    InvalidParameter(&'static str),
    /// No active set of a bounded problem gave a KKT point that is
    /// primal- and dual-feasible.
    NoFeasibleKktPoint,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::SingularMatrix => write!(f, "singular matrix"),
            Error::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            Error::DidNotConverge {
                iterations,
                residual,
            } => write!(
                f,
                "did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            Error::NonFiniteValue => write!(f, "non-finite value encountered"),
            Error::InvalidBracket => write!(f, "invalid bracket"),
            Error::InvalidParameter(p) => write!(f, "invalid parameter: {p}"),
            Error::NoFeasibleKktPoint => write!(f, "no active set gave a feasible KKT point"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
