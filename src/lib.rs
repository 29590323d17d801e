//! # c2bound — facade for the C²-Bound reproduction workspace
//!
//! Re-exports every crate in the workspace under one roof so examples,
//! integration tests and downstream users can depend on a single crate.
//!
//! * [`trace`] — memory access traces, synthetic generators, phases.
//! * [`camat`] — AMAT / C-AMAT / APC metrics and the HCD/MCD detector.
//! * [`speedup`] — Amdahl, Gustafson and Sun-Ni's laws, `g(N)` scaling.
//! * [`solver`] — Newton, golden-section, Nelder-Mead, dense linalg.
//! * [`sim`] — trace-driven cycle-level many-core simulator.
//! * [`workloads`] — TMM / SpMV / stencil / FFT kernels and tracing.
//! * [`ann`] — MLP predictor baseline for design-space exploration.
//! * [`model`] — the C²-Bound model, optimizer and APS algorithm.
//! * [`pipeline`] — scenario → sweep → summary, shared by `run` and
//!   `serve`.

pub use c2_ann as ann;
pub use c2_bound as model;
pub use c2_camat as camat;
pub use c2_obs as obs;
pub use c2_runner as runner;
pub use c2_sim as sim;
pub use c2_solver as solver;
pub use c2_speedup as speedup;
pub use c2_trace as trace;
pub use c2_workloads as workloads;

pub mod pipeline;
