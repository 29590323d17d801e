//! Phase-clustered oracle fast path.
//!
//! The paper leans on SimPoint's observation (§IV) that "programs have
//! periodic behaviors": instead of simulating a workload's full trace at
//! every design point, cluster its fixed-length intervals once per
//! workload ([`c2_trace::PhaseDetector`]), simulate only the one
//! representative interval per cluster, and reconstruct full-run metrics
//! as the weight-combined estimate
//!
//! ```text
//! T̂ = Σ_p w_p · T_warm(rep_p)     with   w_p = accesses_p / accesses(rep_p)
//! ```
//!
//! so a design point costs a few intervals of simulated accesses
//! instead of the whole trace. A representative simulated standalone
//! starts from cold caches and empty MSHRs, which would overstate its
//! cost by several times; `T_warm` therefore uses *predecessor-interval
//! warmup differencing*: for a representative at interval `i > 0`,
//! simulate `interval(i-1) ⧺ interval(i)` and `interval(i-1)` alone and
//! take the counter-wise difference — the representative's marginal
//! cost behind exactly the warm state it had in the full run. The first
//! interval runs cold in the full run too, so it needs no warmup.
//! Derived metrics (APC, C-AMAT, miss rates) are reconstructed from
//! (differenced) weighted sums of the **raw counters**, never by
//! averaging ratios — the same access-weighted combination
//! [`c2_sim::SimResult::chip_camat`] uses within one run.
//!
//! Detection is deterministic (same trace + seed ⇒ same clusters), so
//! the resulting [`PhaseSummary`] can be memoized next to the eval
//! cache and rebuilt with [`PhasePlan::from_summary`] without
//! re-clustering.

use c2_sim::area::{AreaModel, SiliconBudget};
use c2_sim::metrics::LayerStats;
use c2_sim::SimResult;
use c2_trace::{MemAccess, PhaseConfig, PhaseDetector, Trace, TraceBuilder};
use c2_workloads::WorkloadTrace;

use crate::dse::{chip_config_for, DesignPoint};
use crate::memo::{PointMemo, SimRun};
use crate::{Error, Result};

/// The detected phase structure of one workload, in the exact form the
/// eval cache memoizes: rebuilding a [`PhasePlan`] from a summary skips
/// the k-means clustering entirely.
///
/// An empty `representatives` vector encodes the *exact fallback*: the
/// trace was too short to cluster (fewer than two intervals) and phase
/// mode simulates the full workload unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Per-interval phase labels, in interval order.
    pub labels: Vec<usize>,
    /// Representative interval index per phase.
    pub representatives: Vec<usize>,
    /// Accesses per interval the detection used.
    pub interval_len: usize,
}

/// A workload's phase-substitution plan: one warm-measured
/// representative slice per phase plus the weight that scales its
/// simulated cost back up to the phase's share of the full trace.
#[derive(Debug, Clone)]
pub struct PhasePlan {
    /// The simulator runs behind one price, in the order their cycles
    /// are summed: each phase's measured window (warmup prefix ⧺
    /// representative interval) at `+w`, then, when the representative
    /// is not the trace's first interval, the warmup prefix alone at
    /// `−w`, so the phase's warm cost is the counter-wise difference of
    /// the two. The exact fallback is one run of the whole workload at
    /// weight 1.
    runs: Vec<SimRun>,
    /// Per-phase weight `accesses_in_phase / accesses_in_representative`
    /// (empty for the exact fallback).
    weights: Vec<f64>,
    /// See [`PhasePlan::simulated_fraction`].
    simulated_fraction: f64,
    summary: PhaseSummary,
}

impl PhasePlan {
    /// Run phase detection once over `workload` and build the plan.
    ///
    /// The cluster count is clamped to the number of available
    /// intervals; workloads with fewer than two intervals fall back to
    /// an exact plan that simulates the full trace (phase mode is then
    /// bit-identical to full mode).
    pub fn detect(workload: &WorkloadTrace, config: &PhaseConfig) -> Result<Self> {
        Self::detect_combined(workload, &workload.combined(), config)
    }

    /// [`PhasePlan::detect`] on a workload whose [`combined`] trace the
    /// caller already built.
    ///
    /// [`combined`]: WorkloadTrace::combined
    pub fn detect_combined(
        workload: &WorkloadTrace,
        combined: &Trace,
        config: &PhaseConfig,
    ) -> Result<Self> {
        if config.interval_len == 0 {
            return Err(Error::InvalidParameter {
                name: "phase.interval_len",
                value: 0.0,
            });
        }
        if config.clusters == 0 {
            return Err(Error::InvalidParameter {
                name: "phase.clusters",
                value: 0.0,
            });
        }
        let n_intervals = combined.len().div_ceil(config.interval_len.max(1));
        if n_intervals < 2 {
            return Ok(Self::exact(
                workload,
                PhaseSummary {
                    labels: Vec::new(),
                    representatives: Vec::new(),
                    interval_len: config.interval_len,
                },
            ));
        }
        let clusters = config.clusters.min(n_intervals);
        let detector = PhaseDetector::new(PhaseConfig {
            clusters,
            ..config.clone()
        });
        let phases = detector
            .detect(combined)
            .map_err(|e| Error::Simulation(format!("phase detection failed: {e:?}")))?;
        let summary = PhaseSummary {
            labels: phases.labels().iter().map(|l| l.0).collect(),
            representatives: phases.representatives().to_vec(),
            interval_len: config.interval_len,
        };
        Self::assemble(combined, summary)
    }

    /// Rebuild a plan from a memoized summary, skipping clustering.
    ///
    /// The summary must describe this workload (label/representative
    /// counts consistent with its interval count); a stale or foreign
    /// summary is rejected so a corrupted memo can never silently price
    /// the wrong phases.
    pub fn from_summary(workload: &WorkloadTrace, summary: PhaseSummary) -> Result<Self> {
        Self::from_summary_combined(workload, &workload.combined(), summary)
    }

    /// [`PhasePlan::from_summary`] on a workload whose [`combined`]
    /// trace the caller already built.
    ///
    /// [`combined`]: WorkloadTrace::combined
    pub fn from_summary_combined(
        workload: &WorkloadTrace,
        combined: &Trace,
        summary: PhaseSummary,
    ) -> Result<Self> {
        if summary.interval_len == 0 {
            return Err(Error::InvalidParameter {
                name: "phase.interval_len",
                value: 0.0,
            });
        }
        let n_intervals = combined.len().div_ceil(summary.interval_len);
        if summary.representatives.is_empty() {
            if !summary.labels.is_empty() || n_intervals >= 2 {
                return Err(Error::Simulation(
                    "phase summary does not match the workload (exact marker)".to_string(),
                ));
            }
            return Ok(Self::exact(workload, summary));
        }
        let consistent = summary.labels.len() == n_intervals
            && summary
                .labels
                .iter()
                .all(|&l| l < summary.representatives.len())
            && summary.representatives.iter().all(|&r| r < n_intervals);
        if !consistent {
            return Err(Error::Simulation(
                "phase summary does not match the workload".to_string(),
            ));
        }
        Self::assemble(combined, summary)
    }

    /// The exact fallback: the whole workload, simulated once.
    fn exact(workload: &WorkloadTrace, summary: PhaseSummary) -> Self {
        PhasePlan {
            runs: vec![SimRun::new(workload.clone(), 1.0)],
            weights: Vec::new(),
            simulated_fraction: 1.0,
            summary,
        }
    }

    fn assemble(combined: &Trace, summary: PhaseSummary) -> Result<Self> {
        let len = combined.len();
        let il = summary.interval_len;
        let interval_accesses = |i: usize| -> f64 { (len - i * il).min(il) as f64 };
        // Per-phase total accesses (the weight numerators).
        let mut phase_accesses = vec![0.0f64; summary.representatives.len()];
        for (i, &l) in summary.labels.iter().enumerate() {
            phase_accesses[l] += interval_accesses(i);
        }
        let standalone = |accesses: &[MemAccess]| WorkloadTrace {
            serial: Trace::new(),
            parallel: rebase_slice(accesses),
        };
        let mut runs = Vec::with_capacity(2 * summary.representatives.len());
        let mut weights = Vec::with_capacity(summary.representatives.len());
        let mut total = 0.0; // full-trace accesses, reconstructed
        let mut simulated = 0.0; // accesses simulated per evaluation
        for (p, &rep) in summary.representatives.iter().enumerate() {
            let lo = rep * il;
            let hi = (lo + il).min(len);
            // The measured window starts one interval early when a
            // predecessor exists, so the representative is simulated
            // behind the exact warm state it had in the full run; the
            // warmup prefix is simulated alone and differenced away.
            let wlo = lo.saturating_sub(il);
            let w = phase_accesses[p] / interval_accesses(rep);
            weights.push(w);
            runs.push(SimRun::new(standalone(&combined.accesses()[wlo..hi]), w));
            if rep > 0 {
                runs.push(SimRun::new(standalone(&combined.accesses()[wlo..lo]), -w));
            }
            // The representative proper is the window minus its warmup
            // prefix; the evaluation simulates the window AND the
            // prefix alone (for the difference), so both count as work.
            let (window, warm) = ((hi - wlo) as f64, (lo - wlo) as f64);
            total += (window - warm) * w;
            simulated += window + warm;
        }
        Ok(PhasePlan {
            runs,
            weights,
            simulated_fraction: if total <= 0.0 { 1.0 } else { simulated / total },
            summary,
        })
    }

    /// The memoizable summary of the detection.
    pub fn summary(&self) -> &PhaseSummary {
        &self.summary
    }

    /// Number of phases (0 for the exact fallback).
    pub fn phase_count(&self) -> usize {
        self.weights.len()
    }

    /// Whether the plan is the exact full-trace fallback.
    pub fn is_exact(&self) -> bool {
        self.summary.representatives.is_empty()
    }

    /// Per-phase weights (`accesses_in_phase / accesses_in_rep`).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The simulator runs behind one price, each with the weight its
    /// cycles carry, in the order they are summed.
    pub fn runs(&self) -> &[SimRun] {
        &self.runs
    }

    /// Fraction of the full trace's accesses a single evaluation
    /// actually simulates (1.0 for the exact fallback) — the headline
    /// per-oracle work reduction.
    pub fn simulated_fraction(&self) -> f64 {
        self.simulated_fraction
    }
}

/// Rebase a slice of the combined access stream to a standalone trace:
/// instruction indices are renumbered to start at zero with the
/// inter-access compute spacing preserved.
fn rebase_slice(accesses: &[MemAccess]) -> Trace {
    let mut b = TraceBuilder::new();
    let mut cursor = accesses.first().map_or(0, |a| a.instr);
    for a in accesses {
        b.compute(a.instr - cursor);
        b.access_sized(a.addr, a.size, a.kind);
        cursor = a.instr + 1;
    }
    b.finish()
}

/// Weighted sums of one memory layer's raw counters across phases.
///
/// Ratios (APC, miss rate) are formed *after* summation so the
/// reconstruction matches how a single full run aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeightedLayer {
    /// Weighted accesses serviced at the layer.
    pub accesses: f64,
    /// Weighted hits.
    pub hits: f64,
    /// Weighted misses.
    pub misses: f64,
    /// Weighted cycles with at least one access in flight.
    pub active_cycles: f64,
}

impl WeightedLayer {
    fn add(&mut self, s: &LayerStats, w: f64) {
        self.accesses += w * s.accesses as f64;
        self.hits += w * s.hits as f64;
        self.misses += w * s.misses as f64;
        self.active_cycles += w * s.active_cycles as f64;
    }

    /// Accesses per memory-active cycle at this layer.
    pub fn apc(&self) -> f64 {
        if self.active_cycles <= 0.0 {
            0.0
        } else {
            self.accesses / self.active_cycles
        }
    }

    /// Miss rate at this layer.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total <= 0.0 {
            0.0
        } else {
            self.misses / total
        }
    }
}

/// The weight-combined reconstruction of a full run's metrics from the
/// per-phase representative simulations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseEstimate {
    /// Estimated execution time in cycles (the sweep objective).
    pub total_cycles: f64,
    /// Weighted instructions retired.
    pub instructions: f64,
    /// L1 layer profile.
    pub l1: WeightedLayer,
    /// L2 layer profile.
    pub l2: WeightedLayer,
    /// DRAM layer profile.
    pub dram: WeightedLayer,
    /// C-AMAT numerator: weighted memory-active cycles at L1.
    pub mem_active_cycles: f64,
    /// C-AMAT denominator: weighted L1 accesses.
    pub mem_accesses: f64,
    /// Weighted MSHR-profile counters: writebacks to DRAM.
    pub writebacks: f64,
    /// Weighted prefetches issued.
    pub prefetches: f64,
}

impl PhaseEstimate {
    fn add(&mut self, r: &SimResult, w: f64) {
        self.total_cycles += w * r.total_cycles as f64;
        self.instructions += w * r.total_instructions() as f64;
        self.l1.add(&r.l1_layer, w);
        self.l2.add(&r.l2_layer, w);
        self.dram.add(&r.dram_layer, w);
        for c in &r.cores {
            self.mem_active_cycles += w * c.camat.memory_active_cycles as f64;
            self.mem_accesses += w * c.camat.accesses as f64;
        }
        self.writebacks += w * r.writebacks as f64;
        self.prefetches += w * r.prefetches as f64;
    }

    /// Chip-wide C-AMAT at L1 (memory-active cycles per access).
    pub fn camat(&self) -> f64 {
        if self.mem_accesses <= 0.0 {
            0.0
        } else {
            self.mem_active_cycles / self.mem_accesses
        }
    }

    /// Aggregate APC (instructions per estimated cycle).
    pub fn ipc(&self) -> f64 {
        if self.total_cycles <= 0.0 {
            0.0
        } else {
            self.instructions / self.total_cycles
        }
    }
}

/// A simulation oracle that prices design points by phase substitution.
///
/// Construction runs (or replays) phase detection once; every
/// [`estimate`](PhaseOracle::estimate) or
/// [`price_in`](PhaseOracle::price_in) call then simulates only the
/// representative slices. A sweep prices through `price_in`, with one
/// [`PointMemo`] per DSE shared by the engine's threads.
#[derive(Debug, Clone)]
pub struct PhaseOracle {
    plan: PhasePlan,
    area: AreaModel,
    budget: SiliconBudget,
}

impl PhaseOracle {
    /// Oracle over a prepared plan.
    pub fn new(plan: PhasePlan, area: AreaModel, budget: SiliconBudget) -> Self {
        PhaseOracle { plan, area, budget }
    }

    /// The underlying plan (for memoization and telemetry).
    pub fn plan(&self) -> &PhasePlan {
        &self.plan
    }

    /// Full metric reconstruction at `point`: the plan's runs,
    /// simulated in order and summed at their weights.
    pub fn estimate(&self, point: &DesignPoint) -> Result<PhaseEstimate> {
        let config = chip_config_for(point, &self.area, &self.budget)?;
        let mut est = PhaseEstimate::default();
        for run in self.plan.runs() {
            est.add(&run.simulate(&config)?, run.weight());
        }
        Ok(est)
    }

    /// Estimated execution time in cycles at `point`, the phase-mode
    /// replacement for [`simulate_point`](crate::dse::simulate_point),
    /// through a DSE's [`PointMemo`]: the bits of
    /// [`estimate`](PhaseOracle::estimate)'s `total_cycles`, with each
    /// run simulated once per point the simulator can tell apart. `key`
    /// identifies the evaluation.
    pub fn price_in(&self, memo: &PointMemo, key: u64, point: &DesignPoint) -> Result<f64> {
        memo.price(key, point, self.plan.runs(), &self.area, &self.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::simulate_point;
    use c2_workloads::{fluidanimate::FluidAnimate, stencil::Stencil2D, Workload};

    fn point() -> DesignPoint {
        DesignPoint {
            a0: 4.0,
            a1: 0.125,
            a2: 0.5,
            n: 2,
            issue_width: 4,
            rob_size: 64,
        }
    }

    fn chip() -> (AreaModel, SiliconBudget) {
        (
            AreaModel::default(),
            SiliconBudget::new(400.0, 40.0).unwrap(),
        )
    }

    #[test]
    fn detect_builds_weighted_slices() {
        let w = FluidAnimate::new(120, 6, 1, 2).generate();
        let plan = PhasePlan::detect(&w, &PhaseConfig::default()).unwrap();
        assert!(!plan.is_exact());
        assert!(plan.phase_count() >= 1 && plan.phase_count() <= 4);
        assert!(plan.weights().iter().all(|&x| x >= 1.0 - 1e-9));
        // Weighted representative accesses (each window at +w minus its
        // warmup prefix at -w) reconstruct the full access count.
        let total: f64 = plan
            .runs()
            .iter()
            .map(|run| run.weight() * run.trace().parallel.len() as f64)
            .sum();
        assert!(
            (total - w.combined().len() as f64).abs() < 1e-6,
            "{total} vs {}",
            w.combined().len()
        );
        // Each phase's window comes first, at its weight; every
        // non-first representative's one-interval warmup follows it.
        let mut runs = plan.runs().iter().peekable();
        for (&rep, &x) in plan.summary().representatives.iter().zip(plan.weights()) {
            assert_eq!(runs.next().map(SimRun::weight), Some(x));
            let warmup = runs.next_if(|run| run.weight() < 0.0);
            assert_eq!(warmup.map(SimRun::weight), (rep > 0).then_some(-x));
        }
        assert!(runs.next().is_none());
        assert!(plan.simulated_fraction() < 1.0);
    }

    #[test]
    fn short_traces_fall_back_to_exact() {
        let w = Stencil2D::new(8, 8, 1, 1).generate();
        assert!(w.combined().len() < 2 * 1000);
        let plan = PhasePlan::detect(&w, &PhaseConfig::default()).unwrap();
        assert!(plan.is_exact());
        assert_eq!(plan.phase_count(), 0);
        assert_eq!(plan.simulated_fraction(), 1.0);
        // The round trip through the summary preserves exactness.
        let again = PhasePlan::from_summary(&w, plan.summary().clone()).unwrap();
        assert!(again.is_exact());
        // Exact phase mode equals full mode exactly.
        let (area, budget) = chip();
        let oracle = PhaseOracle::new(plan, area, budget);
        let full = simulate_point(&point(), &w, &area, &budget).unwrap();
        assert_eq!(oracle.estimate(&point()).unwrap().total_cycles, full);
    }

    #[test]
    fn summary_round_trip_matches_detection() {
        let w = FluidAnimate::new(120, 6, 1, 2).generate();
        let plan = PhasePlan::detect(&w, &PhaseConfig::default()).unwrap();
        let rebuilt = PhasePlan::from_summary(&w, plan.summary().clone()).unwrap();
        assert_eq!(rebuilt.summary(), plan.summary());
        assert_eq!(rebuilt.weights(), plan.weights());
        let (area, budget) = chip();
        let a = PhaseOracle::new(plan, area, budget);
        let b = PhaseOracle::new(rebuilt, area, budget);
        assert_eq!(
            a.estimate(&point()).unwrap().total_cycles,
            b.estimate(&point()).unwrap().total_cycles,
            "memoized plan must price identically"
        );
    }

    #[test]
    fn foreign_summary_is_rejected() {
        let w = FluidAnimate::new(120, 6, 1, 2).generate();
        let plan = PhasePlan::detect(&w, &PhaseConfig::default()).unwrap();
        let other = Stencil2D::new(8, 8, 1, 1).generate();
        assert!(PhasePlan::from_summary(&other, plan.summary().clone()).is_err());
        let mut broken = plan.summary().clone();
        broken.representatives.push(usize::MAX);
        assert!(PhasePlan::from_summary(&w, broken).is_err());
    }

    #[test]
    fn estimate_reconstructs_consistent_metrics() {
        let w = FluidAnimate::new(120, 6, 1, 2).generate();
        let plan = PhasePlan::detect(&w, &PhaseConfig::default()).unwrap();
        let (area, budget) = chip();
        let oracle = PhaseOracle::new(plan, area, budget);
        let est = oracle.estimate(&point()).unwrap();
        assert!(est.total_cycles > 0.0);
        assert!(est.instructions > 0.0);
        assert!(est.camat() > 0.0);
        assert!(est.ipc() > 0.0);
        assert!(est.l1.apc() > 0.0);
        assert!((0.0..=1.0).contains(&est.l1.miss_rate()));
        // The estimate's weighted accesses cover the full workload.
        assert!(est.l1.accesses >= w.combined().len() as f64 * 0.9);
    }

    #[test]
    fn zero_config_is_rejected() {
        let w = Stencil2D::new(8, 8, 1, 1).generate();
        let bad = PhaseConfig {
            interval_len: 0,
            ..PhaseConfig::default()
        };
        assert!(PhasePlan::detect(&w, &bad).is_err());
        let bad = PhaseConfig {
            clusters: 0,
            ..PhaseConfig::default()
        };
        assert!(PhasePlan::detect(&w, &bad).is_err());
    }
}
