//! # c2-bound — the C²-Bound analytical model and APS algorithm
//!
//! The paper's primary contribution (§III): a data-driven analytical
//! model for many-core design-space exploration that couples
//!
//! * **C-AMAT** (concurrency-aware memory latency, from `c2-camat`) and
//! * **Sun-Ni's law** (memory-capacity-bounded problem scaling, from
//!   `c2-speedup`)
//!
//! into the execution-time objective (Eq. 10)
//!
//! ```text
//! J_D = IC0 · (CPI_exe + f_mem · C-AMAT · (1 − overlap))
//!           · (f_seq + g(N)·(1 − f_seq)/N)
//! ```
//!
//! minimized under the silicon-area constraint `A = N(A0+A1+A2) + Ac`
//! (Eq. 12) with Pollack's rule `CPI_exe = k0·A0^{-1/2} + φ0` (Eq. 11).
//!
//! Modules:
//!
//! * [`mem_model`] — C-AMAT as a function of cache capacities (the link
//!   between silicon area and data-stall time);
//! * [`model`] — the objective, constraints and case split on `g(N)`;
//! * [`optimize`](mod@crate::optimize) — the Lagrange/Newton optimizer (Eq. 13): a
//!   grid-seeded active-set KKT area split and the two optimization
//!   cases of Fig 6;
//! * [`scaling`] — the reduced model behind Figs 8–11 (W, T and W/T
//!   versus N for C ∈ {1, 4, 8});
//! * [`dse`] — the discrete 10⁶-point design space of §IV and the
//!   simulator-calibrated ground-truth surface;
//! * [`aps`] — the Analysis-Plus-Simulation algorithm (Fig 6) with
//!   simulation counting;
//! * [`phase`] and [`memo`] — the phase plan's weighted runs and the
//!   per-DSE memo that prices a CPU point's runs, simulating each
//!   point the simulator can tell apart once;
//! * [`allocate`] — multi-application core allocation (Fig 7);
//! * [`scenario`](mod@crate::scenario) — assembly of all of the above from a declarative
//!   [`c2_config::Scenario`];
//! * [`report`] — plain-text tables/series for the figure regenerators.
//!
//! Extensions beyond the paper's evaluation (its §VII future work):
//! [`energy`], [`asymmetric`], [`adaptive`].
//!
//! ```
//! use c2_bound::{optimize::optimize, C2BoundModel, OptimizationCase};
//!
//! let model = C2BoundModel::example_big_data();
//! let design = optimize(&model).unwrap();
//! // g(N) = N^{3/2} >= O(N): the case split maximizes throughput.
//! assert_eq!(design.case, OptimizationCase::MaximizeThroughput);
//! assert!(model.feasible(&design.vars));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod allocate;
pub mod aps;
pub mod asymmetric;
pub mod backend;
pub mod dse;
pub mod energy;
pub mod mem_model;
pub mod memo;
pub mod model;
pub mod optimize;
pub mod phase;
pub mod report;
pub mod scaling;
pub mod scenario;

pub use adaptive::{AdaptiveDse, AdaptivePlan};
pub use allocate::{allocate_cores, AppProfile};
pub use aps::{
    Aps, ApsOutcome, ApsPlan, DegradationLevel, PointOutcome, RefinementJob, RefinementLog,
    ResiliencePolicy, SkippedPoint,
};
pub use asymmetric::{AsymmetricDesign, AsymmetricModel};
pub use backend::{
    roofline_json, roofline_points, BackendSweep, BoundDecomposition, Ceiling, GpuSmBackend,
    GpuSmModel, RooflinePoint, CPU_CMP_IDENTITY, GPU_SM_IDENTITY,
};
pub use dse::{DesignPoint, DesignSpace, GroundTruth, Oracle};
pub use energy::{MultiObjective, PowerModel};
pub use mem_model::{CacheSensitivity, MemoryModel};
pub use memo::{PointMemo, SimRun};
pub use model::{C2BoundModel, DesignVariables, OptimizationCase, ProgramProfile};
pub use optimize::{optimize, optimize_observed_tuned, OptimalDesign, SolverTuning, SplitSolve};
pub use phase::{PhaseEstimate, PhasePlan, PhaseSummary};
pub use scaling::{ScalingPoint, ScalingStudy};
pub use scenario::{
    aps_from_scenario, gpu_sweep_from_scenario, law_from_scenario, model_from_scenario,
    scale_function,
};

/// Errors from the model and optimizer.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The optimizer failed to converge or the problem was infeasible.
    Optimization(String),
    /// A simulator invocation failed.
    Simulation(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            Error::Optimization(what) => write!(f, "optimization failed: {what}"),
            Error::Simulation(what) => write!(f, "simulation failed: {what}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<c2_solver::Error> for Error {
    fn from(e: c2_solver::Error) -> Self {
        Error::Optimization(e.to_string())
    }
}

impl From<c2_sim::Error> for Error {
    fn from(e: c2_sim::Error) -> Self {
        Error::Simulation(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
