//! The one `Scenario → RunSummary` pipeline behind `c2bound-tool run`
//! and `c2bound-tool serve`: workload → characterize → CPU-CMP or
//! GPU-SM sweep → full or phase-clustered oracle → screened or full
//! engine → Roofline report.
//!
//! Both commands call [`execute`] (the daemon through [`Executor`]),
//! so a served job and a one-shot run of the same scenario under the
//! same [`RunConfig`] leave byte-identical journals and metrics by
//! construction. Callers validate first: [`execute`] trusts that the
//! scenario passed `Scenario::validate` and that the `RunConfig`
//! carries the run's identity; the engine-layer guards still refuse
//! the combinations validation rejects.

use std::path::Path;

use c2_bound::dse::{simulate_point, DesignPoint, Oracle};
use c2_bound::{
    aps_from_scenario, gpu_sweep_from_scenario, roofline_json, roofline_points, scale_function,
    Aps, BackendSweep, Ceiling, GpuSmBackend, PhaseOracle, PhasePlan, PhaseSummary,
};
use c2_config::{BackendKind, OracleMode, Scenario};
use c2_obs::{names, MetricsSink};
use c2_runner::{RunConfig, RunSummary, ScreenConfig, ScreenReport, SweepRunner};
use c2_sim::area::{AreaModel, SiliconBudget};
use c2_sim::ChipConfig;
use c2_workloads::{characterize, WorkloadTrace};

/// Why the pipeline stopped. Only [`Error::Run`] can follow a write to
/// a journal or cache file; the other two are configuration errors
/// (the CLI exits 2 for them, 1 for a run error).
#[derive(Debug)]
pub enum Error {
    /// The scenario names no built-in workload.
    UnknownWorkload(String),
    /// A chip, model, space, backend, screen or engine setting that its
    /// owning crate refuses.
    Setup(c2_runner::Error),
    /// Characterization, phase detection, the sweep, or the Roofline
    /// write failed.
    Run(c2_runner::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnknownWorkload(name) => write!(f, "unknown workload {name:?}"),
            Error::Setup(e) | Error::Run(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {}

impl From<Error> for c2_runner::Error {
    fn from(e: Error) -> Self {
        match e {
            Error::UnknownWorkload(_) => {
                c2_runner::Error::InvalidConfig("unknown workload in admitted scenario")
            }
            Error::Setup(e) | Error::Run(e) => e,
        }
    }
}

fn sim_error(what: &str, e: impl std::fmt::Display) -> c2_runner::Error {
    c2_runner::Error::Core(c2_bound::Error::Simulation(format!("{what}: {e}")))
}

/// How the phase-clustered oracle prices each point (phase mode only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Phases the detector found.
    pub count: usize,
    /// Share of the trace simulated per evaluation.
    pub simulated_fraction: f64,
    /// The trace was too short to cluster: every point is simulated in
    /// full under the phase-mode fingerprint.
    pub exact: bool,
}

/// What one pipeline run produced: the engine's summary plus the facts
/// `run` reports about how it got there.
#[derive(Debug)]
pub struct Run {
    /// The engine's ledger, plan, per-job results and outcome.
    pub summary: RunSummary,
    /// Set in phase mode.
    pub phases: Option<PhaseStats>,
    /// Set when the scenario enables surrogate screening.
    pub screen: Option<ScreenReport>,
    /// Candidates written to `observability.roofline_out`, when set.
    pub roofline_points: Option<usize>,
}

/// The CPU-CMP set-up: the scenario's workload trace and the APS
/// assembled from its characterization on the scenario's chip.
pub struct CpuSetup {
    /// The generated per-core workload trace.
    pub trace: WorkloadTrace,
    /// The analytic model, design space and solver tuning.
    pub aps: Aps,
}

/// Generate and characterize the scenario's workload and assemble its
/// APS. `c2bound-tool aps` runs this step too.
pub fn cpu_setup(sc: &Scenario) -> Result<CpuSetup, Error> {
    let workload = c2_workloads::workload_from_spec(&sc.workload)
        .ok_or_else(|| Error::UnknownWorkload(sc.workload.name.clone()))?;
    let chip = ChipConfig::from_spec(&sc.chip).map_err(|e| Error::Setup(sim_error("chip", e)))?;
    let trace = workload.generate();
    let ch = characterize(&trace, &chip).map_err(|e| Error::Run(sim_error("characterize", e)))?;
    let g = scale_function(sc, workload.as_ref());
    let aps = aps_from_scenario(sc, &ch, &chip, g).map_err(|e| Error::Setup(e.into()))?;
    Ok(CpuSetup { trace, aps })
}

/// Run `sc` end to end under `config`, journaling to `journal`.
///
/// Run metrics go to `sink`; operational telemetry (phase memo,
/// per-backend and Roofline counters, screening) goes to `ops`. The
/// Roofline report, when `observability.roofline_out` is set, is
/// stamped with `config.scenario_fingerprint`.
pub fn execute(
    sc: &Scenario,
    config: RunConfig,
    journal: Option<&Path>,
    resume: bool,
    sink: &dyn MetricsSink,
    ops: &dyn MetricsSink,
) -> Result<Run, Error> {
    let screen = if sc.screen.enabled {
        Some(ScreenConfig::from_scenario(sc).map_err(Error::Setup)?)
    } else {
        None
    };
    let runner = SweepRunner::new(config).map_err(Error::Setup)?;
    let config = runner.config();
    // Deferred initialization: each branch fills the owners it needs,
    // and the sweep and pricer borrow from them for the rest of the run.
    let (gpu, cpu, phase_oracle);
    let (sweep, pricer, points_counter): (&dyn BackendSweep, Pricer<'_>, &str) =
        match sc.backend.kind {
            // Closed-form pricing: no trace, no characterization.
            BackendKind::GpuSm => {
                gpu = gpu_sweep_from_scenario(sc).map_err(|e| Error::Setup(e.into()))?;
                (&gpu, Pricer::Gpu(&gpu), names::BACKEND_GPU_SM_POINTS_TOTAL)
            }
            BackendKind::CpuCmp => {
                cpu = cpu_setup(sc)?;
                let model = &cpu.aps.model;
                let pricer = match sc.oracle.mode {
                    OracleMode::Full => Pricer::Full {
                        trace: &cpu.trace,
                        area: &model.area,
                        budget: &model.budget,
                    },
                    OracleMode::Phase => {
                        phase_oracle = phase_oracle_for(
                            sc,
                            &cpu.trace,
                            model.area,
                            model.budget,
                            config.cache_path.as_deref(),
                            ops,
                        )
                        .map_err(|e| Error::Run(e.into()))?;
                        Pricer::Phase(&phase_oracle)
                    }
                };
                (&cpu.aps, pricer, names::BACKEND_CPU_CMP_POINTS_TOTAL)
            }
        };
    let phases = match &pricer {
        Pricer::Phase(oracle) => {
            let plan = oracle.plan();
            Some(PhaseStats {
                count: plan.phase_count(),
                simulated_fraction: plan.simulated_fraction(),
                exact: plan.is_exact(),
            })
        }
        _ => None,
    };
    let make_oracle = || pricer.clone();
    let (summary, screen) = match &screen {
        Some(screen) => {
            let (summary, report) = runner
                .run_screened(sweep, screen, make_oracle, journal, resume, sink, ops)
                .map_err(Error::Run)?;
            (summary, Some(report))
        }
        None => {
            let summary = runner
                .run_aps_full(sweep, make_oracle, journal, resume, sink, ops)
                .map_err(Error::Run)?;
            (summary, None)
        }
    };
    ops.counter_add(points_counter, summary.results.len() as u64);
    let roofline_points = match &sc.observability.roofline_out {
        Some(path) => Some(emit_roofline(
            sweep,
            &summary,
            config.scenario_fingerprint,
            Path::new(path),
            ops,
        )?),
        None => None,
    };
    Ok(Run {
        summary,
        phases,
        screen,
        roofline_points,
    })
}

/// The pipeline as the serve daemon's [`c2_runner::ScenarioExecutor`]:
/// a served job runs [`execute`] itself.
pub struct Executor;

impl c2_runner::ScenarioExecutor for Executor {
    fn execute(
        &self,
        sc: &Scenario,
        config: RunConfig,
        journal: &Path,
        resume: bool,
        sink: &dyn MetricsSink,
        ops: &dyn MetricsSink,
    ) -> c2_runner::Result<RunSummary> {
        execute(sc, config, Some(journal), resume, sink, ops)
            .map(|run| run.summary)
            .map_err(Into::into)
    }
}

/// The per-design-point oracle, selected by backend and `oracle.mode`:
/// `Full` simulates the whole workload at every point, `Phase` prices
/// it through the phase-clustered estimator (DESIGN.md §13), `Gpu`
/// prices the GPU-SM bound at the achieved occupancy (DESIGN.md §14) —
/// the deterministic "measured" surface the refinement stage
/// calibrates against, as the simulator is for the CPU backend.
#[derive(Clone)]
enum Pricer<'a> {
    Full {
        trace: &'a WorkloadTrace,
        area: &'a AreaModel,
        budget: &'a SiliconBudget,
    },
    Phase(&'a PhaseOracle),
    Gpu(&'a GpuSmBackend),
}

impl Oracle for Pricer<'_> {
    fn evaluate(&mut self, _key: u64, p: &DesignPoint) -> c2_bound::Result<f64> {
        match self {
            Pricer::Full {
                trace,
                area,
                budget,
            } => simulate_point(p, trace, area, budget)
                .map_err(|e| c2_bound::Error::Simulation(e.to_string())),
            Pricer::Phase(oracle) => oracle.price(p),
            Pricer::Gpu(backend) => backend.measure(p),
        }
    }
}

/// Decompose a finished sweep into Roofline points, account for them
/// on the ops sink, and write the deterministic JSON report.
fn emit_roofline(
    sweep: &dyn BackendSweep,
    summary: &RunSummary,
    fingerprint: Option<u64>,
    path: &Path,
    ops: &dyn MetricsSink,
) -> Result<usize, Error> {
    let points = roofline_points(sweep, &summary.plan, &summary.results);
    let compute = points
        .iter()
        .filter(|p| p.limiting == Ceiling::Compute)
        .count();
    ops.counter_add(names::ROOFLINE_POINTS_TOTAL, points.len() as u64);
    ops.counter_add(names::ROOFLINE_COMPUTE_BOUND_TOTAL, compute as u64);
    ops.counter_add(
        names::ROOFLINE_BANDWIDTH_BOUND_TOTAL,
        (points.len() - compute) as u64,
    );
    std::fs::write(path, roofline_json(sweep.identity(), fingerprint, &points)).map_err(|e| {
        Error::Run(c2_runner::Error::Io(format!(
            "cannot write roofline to {}: {e}",
            path.display()
        )))
    })?;
    Ok(points.len())
}

/// Cache address of a scenario's memoized phase summary:
/// `cache_key(scenario_fingerprint, PHASE_MEMO_SALT)`. The fingerprint
/// already binds the workload, its size, and every `oracle.phase` knob
/// (phase mode renders the section semantically), so a memo can only
/// hit for the exact detection it stores; the salt keeps the address
/// disjoint from every job entry's (identity, content-key) space.
const PHASE_MEMO_SALT: u64 = 0x6332_5048_4153_4531; // "c2PHASE1"

/// Build the phase-clustered oracle for a scenario: reuse the phase
/// summary memoized in the evaluation cache when present and still
/// consistent with the workload, otherwise run `PhaseDetector` once
/// and memoize the result for the next invocation. `oracle_phase_*`
/// telemetry goes to `ops` — never the main sink, because memo-hit vs
/// fresh-detection legitimately differs between a first and a repeat
/// run of the same scenario.
fn phase_oracle_for(
    sc: &Scenario,
    workload: &WorkloadTrace,
    area: AreaModel,
    budget: SiliconBudget,
    cache_path: Option<&Path>,
    ops: &dyn MetricsSink,
) -> c2_bound::Result<PhaseOracle> {
    let config = c2_trace::PhaseConfig {
        interval_len: sc.oracle.phase.interval_len as usize,
        clusters: sc.oracle.phase.clusters as usize,
        seed: sc.oracle.phase.seed,
        ..c2_trace::PhaseConfig::default()
    };
    let memo_key = c2_runner::cache_key(sc.fingerprint(), PHASE_MEMO_SALT);
    let memoized: Option<PhasePlan> = cache_path.and_then(|path| {
        let loaded = c2_runner::cache::load(&c2_runner::storage::DISK, path).ok()?;
        let record = loaded.phases.get(&memo_key)?;
        let summary = PhaseSummary {
            labels: record.labels.iter().map(|&l| l as usize).collect(),
            representatives: record.representatives.iter().map(|&r| r as usize).collect(),
            interval_len: record.interval_len as usize,
        };
        // A corrupted or stale record fails the plan's consistency
        // validation and falls through to a fresh detection.
        PhasePlan::from_summary(workload, summary).ok()
    });
    let plan = match memoized {
        Some(plan) => {
            ops.counter_add(names::ORACLE_PHASE_MEMO_HITS_TOTAL, 1);
            plan
        }
        None => {
            let plan = PhasePlan::detect(workload, &config)?;
            ops.counter_add(names::ORACLE_PHASE_DETECTIONS_TOTAL, 1);
            if let Some(path) = cache_path {
                let s = plan.summary();
                let record = c2_runner::PhaseRecord {
                    interval_len: s.interval_len as u64,
                    labels: s.labels.iter().map(|&l| l as u64).collect(),
                    representatives: s.representatives.iter().map(|&r| r as u64).collect(),
                };
                // Memoization is an optimization; a failed append is
                // ops telemetry, never fatal.
                if c2_runner::cache::append_phase(path, memo_key, &record).is_err() {
                    ops.counter_add(names::ENGINE_STORAGE_FAULTS_TOTAL, 1);
                }
            }
            plan
        }
    };
    ops.gauge_set(names::ORACLE_PHASE_COUNT, plan.phase_count() as f64);
    ops.gauge_set(
        names::ORACLE_PHASE_SIMULATED_PERMILLE,
        (plan.simulated_fraction() * 1000.0).round(),
    );
    Ok(PhaseOracle::new(plan, area, budget))
}
