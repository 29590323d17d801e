//! Model backends: the pluggable objective layer behind every sweep.
//!
//! Historically the Eq. 10 + C-AMAT objective *was* the model — `Aps`,
//! the DSE grid, the runner, the cache and the scenario schema all
//! assumed the CPU-CMP capacity/concurrency bound. This module lifts
//! that assumption into one trait, [`BackendSweep`]: produce an
//! [`ApsPlan`] (analysis stage), fold per-job outcomes back into an
//! [`ApsOutcome`] (assembly stage), and decompose any candidate into
//! its Roofline ceilings (operational intensity, compute bound,
//! bandwidth bound). The supervised engine (`c2-runner`) is generic
//! over this trait, so journals, caches, retries, sharding and resume
//! work identically for every backend.
//!
//! Two backends ship today:
//!
//! * [`Aps`] (identity `"cpu-cmp"`): the paper's Eq. 10 objective.
//!   It implements [`BackendSweep`] by delegating to its historical
//!   plan/assemble methods, so the CPU path is *bit-identical* to the
//!   pre-trait code — same journals, metrics, fingerprints and cache
//!   keys for every existing scenario. [`cpu_decompose`] is its
//!   Roofline decomposition.
//! * [`GpuSmBackend`] (identity `"gpu-sm"`): a Concorde-style
//!   compositional SM throughput bound for CUDA cores,
//!   `Φ_SM = θ · C_fp32 · (1 + m_FMA)` FLOPs/cycle per SM, capped by a
//!   chip-wide memory-bandwidth ceiling (the Roofline's second roof).
//!   The six grid axes are reinterpreted: `n` = SM count,
//!   `issue_width` = FP32 lanes per SM (`C_fp32`), `rob_size` =
//!   occupancy target in percent (`θ = rob/100`), and `a0/a1/a2` =
//!   per-SM silicon areas checked against the budget.
//!
//! Backend identity is part of run identity: the runner mixes a
//! non-default backend's identity string into the journal-header
//! fingerprint and every eval-cache address, so a checkpoint or cache
//! written under one backend can never be served to another.

use crate::aps::{
    build_plan, fold_outcomes, Aps, ApsOutcome, ApsPlan, PointOutcome, ResiliencePolicy,
};
use crate::dse::{DesignPoint, DesignSpace};
use crate::model::{C2BoundModel, DesignVariables, OptimizationCase};
use crate::optimize::{OptimalDesign, SplitSolve};
use crate::{Error, Result};
use c2_config::Json;
use c2_obs::MetricsSink;
use c2_sim::area::SiliconBudget;

/// Cache-line transfer size assumed when converting miss rates into
/// memory traffic for the CPU backend's Roofline decomposition.
pub const LINE_BYTES: f64 = 64.0;

/// Which roof limits a candidate in the Roofline view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ceiling {
    /// The compute roof binds: attainable work/cycle is the raw
    /// arithmetic throughput of the configuration.
    Compute,
    /// The bandwidth roof binds: attainable work/cycle is operational
    /// intensity × memory bandwidth.
    Bandwidth,
}

impl Ceiling {
    /// Stable lower-case name, used in roofline JSON and charts.
    pub fn as_str(&self) -> &'static str {
        match self {
            Ceiling::Compute => "compute",
            Ceiling::Bandwidth => "bandwidth",
        }
    }
}

/// A design point decomposed into its Roofline bounds. All rates are
/// in work-units per cycle (instructions for `cpu-cmp`, FLOPs for
/// `gpu-sm`); operational intensity is work-units per byte of memory
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundDecomposition {
    /// Work-units per byte moved to/from memory.
    pub operational_intensity: f64,
    /// Peak work-units/cycle from the arithmetic resources alone.
    pub compute_ceiling: f64,
    /// Peak bytes/cycle the memory system sustains.
    pub bandwidth_ceiling: f64,
}

impl BoundDecomposition {
    /// The attainable performance bound: the Roofline `min` of the
    /// compute roof and the bandwidth roof scaled by intensity.
    pub fn attained_bound(&self) -> f64 {
        self.compute_ceiling
            .min(self.operational_intensity * self.bandwidth_ceiling)
    }

    /// Which roof binds at this point. Ties (the ridge point) report
    /// `Compute` — at the ridge the machine is exactly balanced and
    /// adding bandwidth alone would not help.
    pub fn limiting(&self) -> Ceiling {
        if self.compute_ceiling <= self.operational_intensity * self.bandwidth_ceiling {
            Ceiling::Compute
        } else {
            Ceiling::Bandwidth
        }
    }
}

/// The backend contract: everything the supervised engine needs to
/// drive a full plan → refine → assemble cycle, plus the Roofline
/// decomposition the overlay draws. Object-safe, so drivers can hold
/// `&dyn BackendSweep`.
pub trait BackendSweep {
    /// Canonical identity string (`"cpu-cmp"`, `"gpu-sm"`). Part of
    /// run identity: journals and caches bind it.
    fn identity(&self) -> &'static str;

    /// The discrete space the sweep refines over.
    fn space(&self) -> &DesignSpace;

    /// Analysis stage: pin the skeleton and lay out refinement jobs.
    fn plan_observed(&self, sink: &dyn MetricsSink) -> Result<ApsPlan>;

    /// Assembly stage: fold per-job outcomes into an [`ApsOutcome`].
    fn assemble_observed(
        &self,
        plan: &ApsPlan,
        results: &[(usize, PointOutcome)],
        policy: &ResiliencePolicy,
        sink: &dyn MetricsSink,
    ) -> Result<ApsOutcome>;

    /// Roofline decomposition of one candidate.
    fn decompose(&self, point: &DesignPoint) -> BoundDecomposition;

    /// Total work (in the backend's work-units) a run at `point`
    /// performs; `work / measured_time` is the attained performance
    /// plotted on the roofline.
    fn work(&self, point: &DesignPoint) -> f64;
}

// ---------------------------------------------------------------------------
// CPU-CMP backend (the paper's Eq. 10 objective)
// ---------------------------------------------------------------------------

/// The canonical identity string of the CPU-CMP backend. This is the
/// default backend: journals and caches bind *no* extra identity for
/// it, which is what keeps pre-trait artifacts byte-identical.
pub const CPU_CMP_IDENTITY: &str = "cpu-cmp";

/// The canonical identity string of the GPU-SM backend.
pub const GPU_SM_IDENTITY: &str = "gpu-sm";

/// Roofline decomposition of a CPU-CMP design point.
///
/// Work-unit is one instruction. Traffic per instruction is the L1
/// miss stream (`f_mem · MR1(c1) · 64 B`); the compute roof is the
/// chip's aggregate issue throughput under Pollack's rule
/// (`N / CPI_exe(A0)`); the bandwidth roof is the aggregate
/// outstanding-miss bandwidth (`N · C_M · 64 B / t_DRAM`).
pub fn cpu_decompose(model: &C2BoundModel, p: &DesignPoint) -> BoundDecomposition {
    let vars = DesignVariables {
        n: p.n as f64,
        a0: p.a0,
        a1: p.a1,
        a2: p.a2,
    };
    let (c1, _c2) = model.capacities(&vars);
    let bytes_per_instr =
        (model.program.f_mem * model.memory.l1_miss_rate(c1) * LINE_BYTES).max(f64::MIN_POSITIVE);
    let n = p.n as f64;
    BoundDecomposition {
        operational_intensity: 1.0 / bytes_per_instr,
        compute_ceiling: n / model.cpi_exe(p.a0),
        bandwidth_ceiling: n * model.memory.pure_miss_concurrency * LINE_BYTES
            / model.memory.dram_latency,
    }
}

/// [`Aps`] *is* the CPU-CMP sweep: its plan/assemble methods are the
/// pre-trait code paths, verbatim, which is what keeps every existing
/// scenario's journals, metrics and fingerprints byte-identical.
impl BackendSweep for Aps {
    fn identity(&self) -> &'static str {
        CPU_CMP_IDENTITY
    }

    fn space(&self) -> &DesignSpace {
        &self.space
    }

    fn plan_observed(&self, sink: &dyn MetricsSink) -> Result<ApsPlan> {
        Aps::plan_observed(self, sink)
    }

    fn assemble_observed(
        &self,
        plan: &ApsPlan,
        results: &[(usize, PointOutcome)],
        policy: &ResiliencePolicy,
        sink: &dyn MetricsSink,
    ) -> Result<ApsOutcome> {
        Aps::assemble_observed(self, plan, results, policy, sink)
    }

    fn decompose(&self, point: &DesignPoint) -> BoundDecomposition {
        cpu_decompose(&self.model, point)
    }

    fn work(&self, point: &DesignPoint) -> f64 {
        self.model.problem_size(point.n as f64)
    }
}

// ---------------------------------------------------------------------------
// GPU-SM backend (compositional SM throughput bound)
// ---------------------------------------------------------------------------

/// The GPU-SM analytical model: a compositional streaming-
/// multiprocessor throughput bound in the style of Concorde's CUDA-core
/// model, capped by a chip-wide bandwidth roof.
///
/// Per SM, the FP32 pipes sustain
///
/// ```text
/// Φ_SM = θ · C_fp32 · (1 + m_FMA)   FLOPs/cycle
/// ```
///
/// where `θ ∈ (0, 1]` is achieved occupancy, `C_fp32` the FP32 lane
/// count, and `m_FMA` the fraction of instructions that are
/// fused-multiply-adds (each retiring two FLOPs). The chip bound is
/// `N_SM · Φ_SM`, min'd against `OI · BW` — the Roofline bandwidth
/// roof at the kernel's operational intensity.
#[derive(Debug, Clone)]
pub struct GpuSmModel {
    /// Total kernel work in FLOPs (the GPU analogue of `IC0`).
    pub work_flops: f64,
    /// Fraction of arithmetic instructions that are FMAs, in `[0, 1]`.
    pub m_fma: f64,
    /// Lanes per warp (32 on every shipped NVIDIA part).
    pub warp_lanes: f64,
    /// Bytes of memory traffic per FLOP (the inverse of operational
    /// intensity).
    pub mem_bytes_per_flop: f64,
    /// Chip-wide sustained memory bandwidth, bytes per SM cycle.
    pub mem_bandwidth: f64,
    /// Measured resident warps per SM — the kernel's achieved
    /// concurrency, which caps achievable occupancy below the target.
    pub resident_warps: f64,
    /// Hardware warp slots per SM (48 on the modeled part); achieved
    /// occupancy is `resident_warps / max_warps`.
    pub max_warps: f64,
    /// The silicon budget the per-SM areas are checked against.
    pub budget: SiliconBudget,
}

impl GpuSmModel {
    /// The per-SM FP32 throughput bound `Φ_SM = θ · C_fp32 · (1 + m_FMA)`
    /// in FLOPs/cycle.
    pub fn phi_sm(&self, theta: f64, lanes: f64) -> f64 {
        theta * lanes * (1.0 + self.m_fma)
    }

    /// The occupancy *target* a design point asks for: `rob_size` is
    /// reinterpreted as occupancy percent, clamped to `(0, 1]`.
    pub fn theta_target(&self, p: &DesignPoint) -> f64 {
        (p.rob_size as f64 / 100.0).min(1.0)
    }

    /// The occupancy a run actually achieves: the target, capped by
    /// the measured resident-warp concurrency (`resident / max`).
    pub fn theta_achieved(&self, p: &DesignPoint) -> f64 {
        self.theta_target(p)
            .min(self.resident_warps / self.max_warps)
    }

    /// Kernel operational intensity (FLOPs per byte).
    pub fn operational_intensity(&self) -> f64 {
        1.0 / self.mem_bytes_per_flop
    }

    /// Roofline decomposition at occupancy `theta`.
    pub fn decompose_at(&self, p: &DesignPoint, theta: f64) -> BoundDecomposition {
        BoundDecomposition {
            operational_intensity: self.operational_intensity(),
            compute_ceiling: p.n as f64 * self.phi_sm(theta, p.issue_width as f64),
            bandwidth_ceiling: self.mem_bandwidth,
        }
    }

    /// Kernel time in cycles at occupancy `theta`: work over the
    /// attainable Roofline bound.
    pub fn time_at(&self, p: &DesignPoint, theta: f64) -> Result<f64> {
        let bound = self.decompose_at(p, theta).attained_bound();
        if !(bound > 0.0) || !bound.is_finite() {
            return Err(Error::Simulation(format!(
                "gpu-sm bound collapsed to {bound} at N_SM={} lanes={} theta={theta}",
                p.n, p.issue_width
            )));
        }
        Ok(self.work_flops / bound)
    }
}

/// The GPU-SM backend: [`GpuSmModel`] plus the discrete space it
/// sweeps. Implements [`BackendSweep`] — its analysis stage is an
/// exhaustive feasibility-filtered scan of the `(a0, a1, a2, n)` grid
/// (the space is small and the objective is closed-form), and its
/// refinement stage sweeps lanes × occupancy exactly as the CPU path
/// sweeps issue × ROB, so the engine's job/journal/cache machinery
/// applies unchanged.
#[derive(Debug, Clone)]
pub struct GpuSmBackend {
    /// The analytic SM model.
    pub model: GpuSmModel,
    /// The discrete design space (axes reinterpreted; see module doc).
    pub space: DesignSpace,
}

impl GpuSmBackend {
    /// The *measurement* oracle for this backend: the analytic bound
    /// priced at the occupancy the kernel actually achieves
    /// (`theta_achieved`), not the target the design asks for. The gap
    /// between the two is exactly what the calibrated prediction error
    /// reports — designs demanding more occupancy than the kernel's
    /// resident-warp concurrency can fill saturate here.
    pub fn measure(&self, p: &DesignPoint) -> Result<f64> {
        if !self.feasible(p) {
            return Err(Error::Simulation(format!(
                "infeasible SM configuration: {} SMs of {} mm2 exceed the budget",
                p.n,
                p.a0 + p.a1 + p.a2
            )));
        }
        self.model.time_at(p, self.model.theta_achieved(p))
    }

    /// Whether `point` fits the silicon budget with at least one SM.
    pub fn feasible(&self, point: &DesignPoint) -> bool {
        point.n >= 1
            && self
                .model
                .budget
                .admits(point.n as f64, point.a0, point.a1, point.a2)
    }
}

impl BackendSweep for GpuSmBackend {
    fn identity(&self) -> &'static str {
        GPU_SM_IDENTITY
    }

    fn space(&self) -> &DesignSpace {
        &self.space
    }

    fn plan_observed(&self, sink: &dyn MetricsSink) -> Result<ApsPlan> {
        build_plan(&self.space, sink, || {
            // Analysis stage: the objective is closed-form and the
            // skeleton grid is small, so scan `(a0, a1, a2, n)`
            // exhaustively at the widest-lanes / highest-occupancy
            // microarchitecture (the representative the refinement
            // sweep then varies). First-in-odometer-order wins ties —
            // deterministic by construction.
            let i4 = self.space.issue().len() - 1;
            let i5 = self.space.rob().len() - 1;
            let mut best: Option<([usize; 4], f64)> = None;
            for ia0 in 0..self.space.a0().len() {
                for ia1 in 0..self.space.a1().len() {
                    for ia2 in 0..self.space.a2().len() {
                        for in_ in 0..self.space.n().len() {
                            let idx = [ia0, ia1, ia2, in_, i4, i5];
                            let p = self.space.point_at(idx);
                            if !self.feasible(&p) {
                                continue;
                            }
                            let Ok(t) = self.model.time_at(&p, self.model.theta_target(&p)) else {
                                continue;
                            };
                            if best.as_ref().is_none_or(|(_, bt)| t < *bt) {
                                best = Some(([ia0, ia1, ia2, in_], t));
                            }
                        }
                    }
                }
            }
            let (skeleton, best_time) = best.ok_or_else(|| {
                Error::Optimization(
                    "no feasible (a0, a1, a2, n_sm) skeleton under the silicon budget".to_string(),
                )
            })?;
            let [ia0, ia1, ia2, in_] = skeleton;
            let sp = self.space.point_at([ia0, ia1, ia2, in_, i4, i5]);
            let analytic = OptimalDesign {
                vars: DesignVariables {
                    n: sp.n as f64,
                    a0: sp.a0,
                    a1: sp.a1,
                    a2: sp.a2,
                },
                case: OptimizationCase::MinimizeTime,
                execution_time: best_time,
                throughput: self.model.work_flops / best_time,
                cpi: best_time / self.model.work_flops,
                concurrency: self.model.resident_warps,
                split_solve: SplitSolve::SimplexFallback,
            };
            Ok((analytic, skeleton))
        })
    }

    fn assemble_observed(
        &self,
        plan: &ApsPlan,
        results: &[(usize, PointOutcome)],
        policy: &ResiliencePolicy,
        sink: &dyn MetricsSink,
    ) -> Result<ApsOutcome> {
        fold_outcomes(&self.space, plan, results, policy, sink, &|p| {
            self.model
                .time_at(p, self.model.theta_target(p))
                .unwrap_or(f64::NAN)
        })
    }

    fn decompose(&self, point: &DesignPoint) -> BoundDecomposition {
        self.model
            .decompose_at(point, self.model.theta_target(point))
    }

    fn work(&self, _point: &DesignPoint) -> f64 {
        self.model.work_flops
    }
}

// ---------------------------------------------------------------------------
// Roofline overlay
// ---------------------------------------------------------------------------

/// One evaluated candidate on the roofline chart.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// The job's dense sequence number in the plan.
    pub seq: usize,
    /// The candidate configuration.
    pub point: DesignPoint,
    /// Work-units per byte at this candidate.
    pub operational_intensity: f64,
    /// Compute roof (work-units/cycle).
    pub compute_ceiling: f64,
    /// Bandwidth roof (bytes/cycle).
    pub bandwidth_ceiling: f64,
    /// The attainable Roofline bound `min(compute, OI · BW)`.
    pub bound: f64,
    /// Attained performance `work / measured_time`, when the point's
    /// oracle succeeded.
    pub attained: Option<f64>,
    /// Which roof binds.
    pub limiting: Ceiling,
}

/// Roofline format version written in the report.
pub const ROOFLINE_VERSION: u64 = 1;

/// Decompose every job of an executed plan into roofline points, in
/// `seq` order. `results` may arrive in any order (the engine reports
/// completion order); missing jobs (interrupted runs) simply have no
/// `attained` value.
pub fn roofline_points(
    sweep: &dyn BackendSweep,
    plan: &ApsPlan,
    results: &[(usize, PointOutcome)],
) -> Vec<RooflinePoint> {
    let mut measured: Vec<Option<f64>> = vec![None; plan.jobs.len()];
    for (seq, outcome) in results {
        if let (Some(slot), Ok(t)) = (measured.get_mut(*seq), &outcome.result) {
            *slot = Some(*t);
        }
    }
    plan.jobs
        .iter()
        .map(|job| {
            let d = sweep.decompose(&job.point);
            let attained = measured[job.seq].map(|t| sweep.work(&job.point) / t);
            RooflinePoint {
                seq: job.seq,
                point: job.point,
                operational_intensity: d.operational_intensity,
                compute_ceiling: d.compute_ceiling,
                bandwidth_ceiling: d.bandwidth_ceiling,
                bound: d.attained_bound(),
                attained,
                limiting: d.limiting(),
            }
        })
        .collect()
}

fn num_or_null(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// Render a roofline report as deterministic JSON. `fingerprint` is
/// the scenario fingerprint when the run had one (hex, as in journal
/// headers); identical runs produce byte-identical reports.
pub fn roofline_json(backend: &str, fingerprint: Option<u64>, points: &[RooflinePoint]) -> String {
    let body = Json::Obj(vec![
        ("c2roofline".to_string(), Json::Num(ROOFLINE_VERSION as f64)),
        ("backend".to_string(), Json::Str(backend.to_string())),
        (
            "fingerprint".to_string(),
            match fingerprint {
                Some(fp) => Json::Str(format!("{fp:016x}")),
                None => Json::Null,
            },
        ),
        (
            "points".to_string(),
            Json::Arr(
                points
                    .iter()
                    .map(|rp| {
                        Json::Obj(vec![
                            ("seq".to_string(), Json::Num(rp.seq as f64)),
                            (
                                "point".to_string(),
                                Json::Obj(vec![
                                    ("a0".to_string(), Json::Num(rp.point.a0)),
                                    ("a1".to_string(), Json::Num(rp.point.a1)),
                                    ("a2".to_string(), Json::Num(rp.point.a2)),
                                    ("n".to_string(), Json::Num(rp.point.n as f64)),
                                    ("issue".to_string(), Json::Num(rp.point.issue_width as f64)),
                                    ("rob".to_string(), Json::Num(rp.point.rob_size as f64)),
                                ]),
                            ),
                            (
                                "operational_intensity".to_string(),
                                num_or_null(rp.operational_intensity),
                            ),
                            (
                                "compute_ceiling".to_string(),
                                num_or_null(rp.compute_ceiling),
                            ),
                            (
                                "bandwidth_ceiling".to_string(),
                                num_or_null(rp.bandwidth_ceiling),
                            ),
                            ("bound".to_string(), num_or_null(rp.bound)),
                            (
                                "attained".to_string(),
                                match rp.attained {
                                    Some(v) => num_or_null(v),
                                    None => Json::Null,
                                },
                            ),
                            (
                                "limiting".to_string(),
                                Json::Str(rp.limiting.as_str().to_string()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut out = body.render_pretty();
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2_obs::NullSink;

    fn budget() -> SiliconBudget {
        SiliconBudget::new(400.0, 40.0).unwrap()
    }

    fn gpu_model() -> GpuSmModel {
        GpuSmModel {
            work_flops: 1e9,
            m_fma: 0.5,
            warp_lanes: 32.0,
            mem_bytes_per_flop: 0.25,
            mem_bandwidth: 256.0,
            resident_warps: 32.0,
            max_warps: 48.0,
            budget: budget(),
        }
    }

    fn point(n: usize, lanes: usize, occ: usize) -> DesignPoint {
        DesignPoint {
            a0: 2.0,
            a1: 0.25,
            a2: 0.5,
            n,
            issue_width: lanes,
            rob_size: occ,
        }
    }

    // --- Satellite: pin Φ = θ · C_fp32 · (1 + m_FMA) against
    // hand-computed values, in the style of the Eq. 2 / Eq. 4 pins.

    #[test]
    fn phi_sm_full_occupancy_no_fma_is_the_lane_count() {
        // θ = 1, C_fp32 = 128, m_FMA = 0: every lane retires one FLOP
        // per cycle, Φ = 128.
        let mut m = gpu_model();
        m.m_fma = 0.0;
        assert_eq!(m.phi_sm(1.0, 128.0), 128.0);
    }

    #[test]
    fn phi_sm_all_fma_doubles_throughput() {
        // m_FMA = 1: every instruction is an FMA retiring two FLOPs,
        // Φ = 2 · C_fp32.
        let mut m = gpu_model();
        m.m_fma = 1.0;
        assert_eq!(m.phi_sm(1.0, 128.0), 256.0);
        // Half occupancy scales linearly: Φ = 0.5 · 64 · 2 = 64.
        assert_eq!(m.phi_sm(0.5, 64.0), 64.0);
    }

    #[test]
    fn phi_sm_hand_computed_mixed_case() {
        // θ = 0.75, C_fp32 = 96, m_FMA = 0.5: Φ = 0.75·96·1.5 = 108.
        let m = gpu_model();
        assert!((m.phi_sm(0.75, 96.0) - 108.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_ceiling_crossover_at_the_ridge_point() {
        // Chip compute roof: 8 SMs · 1.0 · 64 lanes · 1.5 = 768
        // FLOPs/cycle; BW roof = OI · 256 bytes/cycle. The ridge sits
        // at OI* = 768/256 = 3 FLOPs/byte: below it bandwidth binds,
        // above it compute binds.
        let m = gpu_model();
        let p = point(8, 64, 100);
        for (oi, expect) in [
            (2.0, Ceiling::Bandwidth),
            (3.0, Ceiling::Compute), // exactly balanced → compute
            (4.0, Ceiling::Compute),
        ] {
            let mut m2 = m.clone();
            m2.mem_bytes_per_flop = 1.0 / oi;
            let d = m2.decompose_at(&p, 1.0);
            assert_eq!(d.compute_ceiling, 768.0);
            assert_eq!(d.limiting(), expect, "OI = {oi}");
            let want = 768.0_f64.min(oi * 256.0);
            assert!((d.attained_bound() - want).abs() < 1e-9);
        }
    }

    #[test]
    fn gpu_objective_is_work_over_the_roofline_bound() {
        // OI = 4 FLOPs/byte → BW roof = 1024 ≥ compute roof 768:
        // compute-bound, T = 1e9 / 768 cycles.
        let mut m = gpu_model();
        m.mem_bytes_per_flop = 0.25;
        let p = point(8, 64, 100);
        let t = m.time_at(&p, 1.0).unwrap();
        assert!((t - 1e9 / 768.0).abs() < 1e-3);
    }

    #[test]
    fn achieved_occupancy_saturates_at_resident_warps() {
        // 32 resident warps of 48 slots cap θ at 2/3: a 100% target
        // is not achievable, a 50% target is.
        let m = gpu_model();
        assert!((m.theta_achieved(&point(8, 64, 100)) - 32.0 / 48.0).abs() < 1e-12);
        assert!((m.theta_achieved(&point(8, 64, 50)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gpu_plan_pins_a_feasible_skeleton_and_sweeps_microarch() {
        let space = DesignSpace::new(
            vec![2.0, 4.0],
            vec![0.25],
            vec![0.5],
            vec![8, 16, 32, 64],
            vec![32, 64, 128],
            vec![25, 50, 100],
        )
        .unwrap();
        let backend = GpuSmBackend {
            model: gpu_model(),
            space,
        };
        let plan = BackendSweep::plan_observed(&backend, &NullSink).unwrap();
        assert_eq!(plan.jobs.len(), 3 * 3);
        for job in &plan.jobs {
            assert!(backend.feasible(&job.point));
        }
        // The skeleton's choice is the analytic scan's best time.
        assert!(plan.analytic.execution_time > 0.0);
        assert_eq!(plan.analytic.case, OptimizationCase::MinimizeTime);
    }

    #[test]
    fn gpu_sweep_end_to_end_through_the_measurement_oracle() {
        let space = DesignSpace::new(
            vec![2.0],
            vec![0.25],
            vec![0.5],
            vec![8, 16],
            vec![64, 128],
            vec![50, 100],
        )
        .unwrap();
        let backend = GpuSmBackend {
            model: gpu_model(),
            space,
        };
        let plan = BackendSweep::plan_observed(&backend, &NullSink).unwrap();
        let results: Vec<(usize, PointOutcome)> = plan
            .jobs
            .iter()
            .map(|job| {
                (
                    job.seq,
                    PointOutcome {
                        attempts: 1,
                        result: backend.measure(&job.point),
                    },
                )
            })
            .collect();
        let outcome = BackendSweep::assemble_observed(
            &backend,
            &plan,
            &results,
            &ResiliencePolicy::default(),
            &NullSink,
        )
        .unwrap();
        assert!(outcome.best_time > 0.0);
        assert!(outcome.prediction_error.is_finite());
        // 100%-occupancy targets are unachievable at 32/48 resident
        // warps, so the calibrated model error is nonzero — the
        // measurement oracle is not the objective in disguise.
        assert!(outcome.prediction_error > 0.0);
    }

    #[test]
    fn cpu_decomposition_is_finite_and_positive() {
        let model = C2BoundModel::example_big_data();
        let p = DesignPoint {
            a0: 4.0,
            a1: 0.25,
            a2: 1.0,
            n: 16,
            issue_width: 4,
            rob_size: 128,
        };
        let d = cpu_decompose(&model, &p);
        assert!(d.operational_intensity > 0.0 && d.operational_intensity.is_finite());
        assert!(d.compute_ceiling > 0.0 && d.compute_ceiling.is_finite());
        assert!(d.bandwidth_ceiling > 0.0 && d.bandwidth_ceiling.is_finite());
        assert!(d.attained_bound() <= d.compute_ceiling);
    }

    #[test]
    fn roofline_json_is_deterministic_and_labels_ceilings() {
        let space = DesignSpace::new(
            vec![2.0],
            vec![0.25],
            vec![0.5],
            vec![8],
            vec![64, 128],
            vec![100],
        )
        .unwrap();
        let backend = GpuSmBackend {
            model: gpu_model(),
            space,
        };
        let plan = BackendSweep::plan_observed(&backend, &NullSink).unwrap();
        let results: Vec<(usize, PointOutcome)> = plan
            .jobs
            .iter()
            .map(|job| {
                (
                    job.seq,
                    PointOutcome {
                        attempts: 1,
                        result: backend.measure(&job.point),
                    },
                )
            })
            .collect();
        let points = roofline_points(&backend, &plan, &results);
        assert_eq!(points.len(), plan.jobs.len());
        for rp in &points {
            assert!(rp.attained.is_some());
            assert!(rp.attained.unwrap() <= rp.bound + 1e-9);
        }
        let a = roofline_json(GPU_SM_IDENTITY, Some(0x1234), &points);
        let b = roofline_json(GPU_SM_IDENTITY, Some(0x1234), &points);
        assert_eq!(a, b);
        assert!(a.contains("\"limiting\""));
        assert!(a.contains("\"backend\": \"gpu-sm\""));
        // Valid JSON round-trip through the strict parser.
        assert!(Json::parse(&a).is_ok());
    }
}
