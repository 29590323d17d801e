//! `c2-config` — the declarative scenario layer for the C2-bound
//! workspace.
//!
//! One [`Scenario`] describes an entire experiment: which workload to
//! characterize, the chip it runs on, the analytical-model knobs, the
//! design-space axes and silicon budget, solver tolerances, the
//! supervised runner's resilience policy, and observability options.
//! Consuming crates (`c2-sim`, `c2-camat`, `c2-core`, `c2-runner`, the
//! CLI) each provide `from_spec` constructors from the spec structs
//! defined here, keeping this crate dependency-free.
//!
//! The crate also owns the workspace's deterministic recursive JSON
//! value model ([`Json`]), extracted from `c2-obs` so both the
//! observability report and the scenario reader share one
//! implementation.

// Every scenario row becomes a public field: its doc must not vanish.
#![warn(missing_docs)]

pub mod json;
pub mod scenario;

pub use json::{Json, JsonError};
pub use scenario::{
    fnv1a, AreaSpec, BackendKind, BackendSpec, BackoffSpec, BreakerSpec, BudgetSpec, CacheSpec,
    CamatSpec, ChaosSpec, ChipSpec, CoreSpec, DramSpec, EvalCacheSpec, Fnv1a, GpuSpec, LawKind,
    MemoryWallSpec, ModelSpec, NocSpec, ObsSpec, OracleMode, OracleSpec, PhaseSpec, Result,
    RunnerSpec, Scenario, ScenarioError, ScreenSpec, ServeSpec, SolverSpec, SpaceSpec, SpeedupSpec,
    UslSpec, WorkloadSpec,
};
