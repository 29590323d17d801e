//! The discrete design space of §IV and its ground-truth surface.
//!
//! The paper's fluidanimate case study explores six parameters
//! (`A0, A1, A2, N`, issue width, ROB size), ten values each — a
//! 10⁶-point space. Its ground truth came from exhaustively simulating
//! all 10⁶ configurations on 128 Xeons for four weeks; here the ground
//! truth is a **simulator-calibrated surface**: the real `c2-sim`
//! cycle-level simulator is run on a coarse lattice of configurations
//! and the remaining points are filled by multilinear interpolation in
//! log-time (see DESIGN.md's substitution table). Every consumer —
//! exhaustive search, the ANN protocol, APS refinement — queries the
//! same surface, so the comparison between methods is apples-to-apples.

use c2_sim::area::{AreaModel, SiliconBudget};
use c2_sim::{ChipConfig, FaultyOracle, Simulator};
use c2_workloads::{SplitMemo, WorkloadTrace};

use crate::model::C2BoundModel;
use crate::{Error, Result};

/// A simulation oracle: anything that can price a design point.
///
/// `key` is a stable identity for the evaluation (the flat index of the
/// point in its sweep): fault injectors and journaling drivers key
/// their decisions to it so the outcome of a point is a function of
/// *which* point it is, never of global call order — the property that
/// lets an interrupted sweep resume to a bit-identical result.
///
/// Every `FnMut(&DesignPoint) -> Result<f64>` is an `Oracle` that
/// ignores the key, so existing closure-based callers keep working.
pub trait Oracle {
    /// Evaluate the oracle at `point`. `key` identifies the evaluation
    /// (stable across retries and resumes of the same point).
    fn evaluate(&mut self, key: u64, point: &DesignPoint) -> Result<f64>;
}

impl<F> Oracle for F
where
    F: FnMut(&DesignPoint) -> Result<f64>,
{
    fn evaluate(&mut self, _key: u64, point: &DesignPoint) -> Result<f64> {
        self(point)
    }
}

/// `c2-sim`'s keyed fault injection over any pricing function: the
/// evaluation key is the fault plan's key, so injected failures, hangs
/// and panics land on the same points however attempts are ordered,
/// retried or resumed.
impl<F> Oracle for FaultyOracle<F>
where
    F: FnMut(&DesignPoint) -> Result<f64>,
{
    fn evaluate(&mut self, key: u64, point: &DesignPoint) -> Result<f64> {
        self.call(key, point)
    }
}

/// One concrete configuration in the discrete space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Core area (mm²).
    pub a0: f64,
    /// L1 area per core (mm²).
    pub a1: f64,
    /// L2 area per core (mm²).
    pub a2: f64,
    /// Core count.
    pub n: usize,
    /// Issue width.
    pub issue_width: usize,
    /// ROB entries.
    pub rob_size: usize,
}

impl DesignPoint {
    /// Feature vector for the ANN (raw axis values).
    pub fn features(&self) -> Vec<f64> {
        vec![
            self.a0,
            self.a1,
            self.a2,
            self.n as f64,
            self.issue_width as f64,
            self.rob_size as f64,
        ]
    }
}

/// The six-axis discrete design space.
///
/// Every axis is guaranteed non-empty: the only ways to obtain a
/// `DesignSpace` are the named constructors ([`paper_scale`],
/// [`tiny`]), the validated [`new`], and [`from_spec`] — all of which
/// reject empty axes — so downstream nearest-neighbour snapping never
/// sees a degenerate axis.
///
/// [`paper_scale`]: DesignSpace::paper_scale
/// [`tiny`]: DesignSpace::tiny
/// [`new`]: DesignSpace::new
/// [`from_spec`]: DesignSpace::from_spec
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Core-area values.
    pub(crate) a0: Vec<f64>,
    /// L1-area values.
    pub(crate) a1: Vec<f64>,
    /// L2-area values.
    pub(crate) a2: Vec<f64>,
    /// Core-count values.
    pub(crate) n: Vec<usize>,
    /// Issue-width values.
    pub(crate) issue: Vec<usize>,
    /// ROB-size values.
    pub(crate) rob: Vec<usize>,
}

impl DesignSpace {
    /// Validated constructor: every axis must be non-empty. This is the
    /// type-level guarantee the snapping helpers (`nearest_f`,
    /// `nearest_u`) rely on.
    pub fn new(
        a0: Vec<f64>,
        a1: Vec<f64>,
        a2: Vec<f64>,
        n: Vec<usize>,
        issue: Vec<usize>,
        rob: Vec<usize>,
    ) -> Result<Self> {
        let lens = [
            a0.len(),
            a1.len(),
            a2.len(),
            n.len(),
            issue.len(),
            rob.len(),
        ];
        if lens.contains(&0) {
            return Err(Error::InvalidParameter {
                name: "design_space_axis",
                value: 0.0,
            });
        }
        Ok(DesignSpace {
            a0,
            a1,
            a2,
            n,
            issue,
            rob,
        })
    }

    /// Validated construction from a scenario space spec.
    pub fn from_spec(spec: &c2_config::SpaceSpec) -> Result<Self> {
        let narrow = |axis: &[u64]| -> Result<Vec<usize>> {
            axis.iter()
                .map(|&v| {
                    usize::try_from(v).map_err(|_| Error::InvalidParameter {
                        name: "design_space_axis",
                        value: v as f64,
                    })
                })
                .collect()
        };
        DesignSpace::new(
            spec.a0.clone(),
            spec.a1.clone(),
            spec.a2.clone(),
            narrow(&spec.n)?,
            narrow(&spec.issue)?,
            narrow(&spec.rob)?,
        )
    }

    /// The paper-scale space: ten values per parameter, 10⁶ points
    /// (`SpaceSpec::paper_scale()`, the scenario default).
    pub fn paper_scale() -> Self {
        Self::from_spec(&c2_config::SpaceSpec::paper_scale()).expect("the paper space is valid")
    }

    /// A small space for tests (4⁴·3² = 2304 points,
    /// `SpaceSpec::tiny()`).
    pub fn tiny() -> Self {
        Self::from_spec(&c2_config::SpaceSpec::tiny()).expect("the tiny space is valid")
    }

    /// Core-area axis values.
    pub fn a0(&self) -> &[f64] {
        &self.a0
    }

    /// L1-area axis values.
    pub fn a1(&self) -> &[f64] {
        &self.a1
    }

    /// L2-area axis values.
    pub fn a2(&self) -> &[f64] {
        &self.a2
    }

    /// Core-count axis values.
    pub fn n(&self) -> &[usize] {
        &self.n
    }

    /// Issue-width axis values.
    pub fn issue(&self) -> &[usize] {
        &self.issue
    }

    /// ROB-size axis values.
    pub fn rob(&self) -> &[usize] {
        &self.rob
    }

    /// Number of values along each axis.
    pub fn axis_lens(&self) -> [usize; 6] {
        [
            self.a0.len(),
            self.a1.len(),
            self.a2.len(),
            self.n.len(),
            self.issue.len(),
            self.rob.len(),
        ]
    }

    /// Total points.
    pub fn size(&self) -> usize {
        self.axis_lens().iter().product()
    }

    /// The point at a multi-index.
    pub fn point_at(&self, idx: [usize; 6]) -> DesignPoint {
        DesignPoint {
            a0: self.a0[idx[0]],
            a1: self.a1[idx[1]],
            a2: self.a2[idx[2]],
            n: self.n[idx[3]],
            issue_width: self.issue[idx[4]],
            rob_size: self.rob[idx[5]],
        }
    }

    /// Iterate every multi-index (odometer order).
    pub fn indices(&self) -> impl Iterator<Item = [usize; 6]> + '_ {
        let lens = self.axis_lens();
        let total = self.size();
        (0..total).map(move |mut flat| {
            let mut idx = [0usize; 6];
            for d in (0..6).rev() {
                idx[d] = flat % lens[d];
                flat /= lens[d];
            }
            idx
        })
    }

    /// Snap a continuous `(a0, a1, a2, n)` to the nearest axis indices
    /// (used by APS to land the analytic optimum on the grid).
    pub fn snap(&self, a0: f64, a1: f64, a2: f64, n: f64) -> [usize; 4] {
        [
            nearest_f(&self.a0, a0),
            nearest_f(&self.a1, a1),
            nearest_f(&self.a2, a2),
            nearest_u(&self.n, n),
        ]
    }

    /// Whether a point fits the silicon budget.
    pub fn feasible(&self, p: &DesignPoint, budget: &SiliconBudget) -> bool {
        budget.admits(p.n as f64, p.a0, p.a1, p.a2)
    }

    /// [`DesignSpace::snap`], kept inside `budget`. The per-axis nearest
    /// area triple is kept whenever it fits at the nearest `N`.
    /// Otherwise the fitting triple with the smallest summed log-distance
    /// to `(a0, a1, a2)` wins, ties going to the lowest `(a0, a1, a2)`
    /// index. `N` steps down to the next smaller grid value only when no
    /// triple fits. When nothing fits at any `N`, the plain snap is
    /// returned and the simulator's budget check reports it.
    pub fn snap_within(
        &self,
        a0: f64,
        a1: f64,
        a2: f64,
        n: f64,
        budget: &SiliconBudget,
    ) -> [usize; 4] {
        let nearest = self.snap(a0, a1, a2, n);
        let [j0, j1, j2, jn] = nearest;
        let mut smaller: Vec<usize> = (0..self.n.len())
            .filter(|&i| self.n[i] < self.n[jn])
            .collect();
        smaller.sort_by_key(|&i| std::cmp::Reverse(self.n[i]));
        let log_dist = |v: f64, target: f64| (v.ln() - target.max(1e-12).ln()).abs();
        for i3 in std::iter::once(jn).chain(smaller) {
            let cores = self.n[i3] as f64;
            if budget.admits(cores, self.a0[j0], self.a1[j1], self.a2[j2]) {
                return [j0, j1, j2, i3];
            }
            let mut best: Option<(f64, [usize; 4])> = None;
            for (i0, &v0) in self.a0.iter().enumerate() {
                for (i1, &v1) in self.a1.iter().enumerate() {
                    for (i2, &v2) in self.a2.iter().enumerate() {
                        if !budget.admits(cores, v0, v1, v2) {
                            continue;
                        }
                        let d = log_dist(v0, a0) + log_dist(v1, a1) + log_dist(v2, a2);
                        if best.is_none_or(|(b, _)| d < b) {
                            best = Some((d, [i0, i1, i2, i3]));
                        }
                    }
                }
            }
            if let Some((_, index)) = best {
                return index;
            }
        }
        nearest
    }
}

fn nearest_f(axis: &[f64], v: f64) -> usize {
    axis.iter()
        .enumerate()
        .min_by(|a, b| {
            // Compare in log space: the axes are geometric. `total_cmp`
            // keeps this panic-free even for a NaN target (NaN distances
            // sort last, so the search degrades to index 0 instead of
            // aborting).
            let da = (a.1.ln() - v.max(1e-12).ln()).abs();
            let db = (b.1.ln() - v.max(1e-12).ln()).abs();
            da.total_cmp(&db)
        })
        .map(|(i, _)| i)
        // Unreachable: every `DesignSpace` constructor (`new`,
        // `from_spec`, `paper_scale`, `tiny`) rejects empty axes, and
        // the fields are crate-private, so no caller can hand-build a
        // space that violates the invariant.
        .expect("non-empty axis")
}

fn nearest_u(axis: &[usize], v: f64) -> usize {
    axis.iter()
        .enumerate()
        .min_by(|a, b| {
            let da = ((*a.1 as f64).max(1.0).ln() - v.max(1.0).ln()).abs();
            let db = ((*b.1 as f64).max(1.0).ln() - v.max(1.0).ln()).abs();
            da.total_cmp(&db)
        })
        .map(|(i, _)| i)
        // See `nearest_f`: the constructor invariant makes this
        // unreachable.
        .expect("non-empty axis")
}

/// The analytic performance prediction at a discrete point.
///
/// The C²-Bound objective (Eq. 10) covers `(N, A0, A1, A2)`; issue width
/// and ROB size enter through the memory concurrency they enable (the
/// paper's point that OoO structures raise `C_H` and `C_M`): the
/// concurrency scales with `sqrt(issue/4 · rob/128)` around the
/// characterized 4-wide/128-entry reference.
pub fn analytic_time(model: &C2BoundModel, p: &DesignPoint) -> f64 {
    let factor = ((p.issue_width as f64 / 4.0) * (p.rob_size as f64 / 128.0)).sqrt();
    let mut m = model.clone();
    if let Ok(mem) = model.memory.with_concurrency(factor.max(0.05)) {
        m.memory = mem;
    }
    let v = crate::model::DesignVariables {
        n: p.n as f64,
        a0: p.a0,
        a1: p.a1,
        a2: p.a2,
    };
    m.execution_time(&v)
}

/// Translate a design point into a simulatable chip configuration.
pub fn chip_config_for(
    point: &DesignPoint,
    area: &AreaModel,
    budget: &SiliconBudget,
) -> Result<ChipConfig> {
    let mut config = area.chip_config(budget, point.n, point.a0, point.a1, point.a2)?;
    config.core.issue_width = point.issue_width;
    config.core.rob_size = point.rob_size;
    // Keep the L1's port/MSHR scaling consistent with the overridden
    // width, as the area model would have done.
    config.l1.mshr_entries = (2 * point.issue_width).max(4);
    config.l1.ports = (point.issue_width / 2).max(1);
    config.validate()?;
    Ok(config)
}

/// Run the cycle-level simulator at a design point on a workload,
/// returning the execution time in cycles.
pub fn simulate_point(
    point: &DesignPoint,
    workload: &WorkloadTrace,
    area: &AreaModel,
    budget: &SiliconBudget,
) -> Result<f64> {
    simulate_split(point, workload, &SplitMemo::default(), area, budget)
}

/// [`simulate_point`] taking the workload's split across `point.n`
/// cores from `splits`, which computes each core count's split once:
/// a sweep's evaluations at one core count share it.
pub fn simulate_split(
    point: &DesignPoint,
    workload: &WorkloadTrace,
    splits: &SplitMemo,
    area: &AreaModel,
    budget: &SiliconBudget,
) -> Result<f64> {
    let config = chip_config_for(point, area, budget)?;
    let traces = splits.split(workload, point.n);
    let result = Simulator::new(config).run(&traces)?;
    Ok(result.total_cycles as f64)
}

/// The simulator-calibrated ground-truth surface.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Anchor indices per axis (into the design-space axes).
    anchors: [Vec<usize>; 6],
    /// ln(time) at each lattice combination, odometer order over
    /// `anchors` lengths.
    values: Vec<f64>,
    /// Number of simulator invocations used for calibration.
    pub calibration_sims: usize,
}

impl GroundTruth {
    /// Calibrate the surface by running `sim` at every combination of
    /// `per_axis` anchor values per axis (anchors spread evenly across
    /// each axis, always including both ends).
    ///
    /// `sim` failures (infeasible corners) are patched with the nearest
    /// successful anchor value so the surface stays total.
    pub fn calibrate<F>(space: &DesignSpace, per_axis: usize, mut sim: F) -> Result<Self>
    where
        F: FnMut(&DesignPoint) -> Result<f64>,
    {
        if per_axis < 2 {
            return Err(Error::InvalidParameter {
                name: "per_axis",
                value: per_axis as f64,
            });
        }
        let lens = space.axis_lens();
        let anchors: [Vec<usize>; 6] = std::array::from_fn(|d| spread(lens[d], per_axis));
        let alens: Vec<usize> = anchors.iter().map(|a| a.len()).collect();
        let total: usize = alens.iter().product();
        let mut values = vec![f64::NAN; total];
        let mut sims = 0usize;
        for (flat, value) in values.iter_mut().enumerate() {
            let mut rem = flat;
            let mut idx = [0usize; 6];
            for d in (0..6).rev() {
                idx[d] = anchors[d][rem % alens[d]];
                rem /= alens[d];
            }
            let p = space.point_at(idx);
            sims += 1;
            if let Ok(t) = sim(&p) {
                *value = t.max(1.0).ln();
            }
        }
        // Patch failed corners with the mean of successful neighbours
        // (repeat until filled).
        let finite_mean = {
            let fins: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
            if fins.is_empty() {
                return Err(Error::Simulation(
                    "every calibration point failed".to_string(),
                ));
            }
            fins.iter().sum::<f64>() / fins.len() as f64
        };
        for v in &mut values {
            if !v.is_finite() {
                *v = finite_mean;
            }
        }
        Ok(GroundTruth {
            anchors,
            values,
            calibration_sims: sims,
        })
    }

    /// Ground-truth time (cycles) at a multi-index of the design space,
    /// by multilinear interpolation of ln(time) over the anchor lattice.
    pub fn time_at(&self, idx: [usize; 6]) -> f64 {
        // Per-dimension: fractional position among anchors.
        let mut lo = [0usize; 6];
        let mut frac = [0.0f64; 6];
        for d in 0..6 {
            let a = &self.anchors[d];
            let pos = a.partition_point(|&x| x <= idx[d]);
            if pos == 0 {
                lo[d] = 0;
                frac[d] = 0.0;
            } else if pos >= a.len() {
                lo[d] = a.len() - 1;
                frac[d] = 0.0;
            } else {
                lo[d] = pos - 1;
                let span = (a[pos] - a[pos - 1]) as f64;
                frac[d] = if span > 0.0 {
                    (idx[d] - a[pos - 1]) as f64 / span
                } else {
                    0.0
                };
            }
        }
        let alens: Vec<usize> = self.anchors.iter().map(|a| a.len()).collect();
        // Sum over the 2^6 corners.
        let mut acc = 0.0f64;
        for corner in 0..64usize {
            let mut w = 1.0f64;
            let mut flat = 0usize;
            for d in 0..6 {
                let hi_side = (corner >> d) & 1 == 1;
                let (ai, wd) = if hi_side {
                    ((lo[d] + 1).min(alens[d] - 1), frac[d])
                } else {
                    (lo[d], 1.0 - frac[d])
                };
                w *= wd;
                flat = flat * alens[d] + ai;
            }
            if w > 0.0 {
                acc += w * self.values[flat];
            }
        }
        acc.exp()
    }
}

/// `count` indices spread evenly over `0..len`, including both ends.
fn spread(len: usize, count: usize) -> Vec<usize> {
    if count >= len {
        return (0..len).collect();
    }
    (0..count)
        .map(|i| (i as f64 / (count - 1) as f64 * (len - 1) as f64).round() as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_key_on_job_identity() {
        let plan = c2_sim::FaultPlan {
            oracle_failure_period: Some(3),
            ..c2_sim::FaultPlan::default()
        };
        let mut o = FaultyOracle::new(plan, |_: &DesignPoint| Ok(100.0)).unwrap();
        let p = DesignSpace::tiny().point_at([0; 6]);
        assert!(o.evaluate(0, &p).is_ok());
        assert!(o.evaluate(2, &p).is_err());
        assert!(o.evaluate(2, &p).is_err(), "same key, same fault");
        assert_eq!(o.calls(), 3);
    }

    #[test]
    fn paper_scale_is_one_million_points() {
        let s = DesignSpace::paper_scale();
        assert_eq!(s.size(), 1_000_000);
        assert_eq!(s.axis_lens(), [10; 6]);
    }

    #[test]
    fn indices_enumerate_every_point_once() {
        let s = DesignSpace::tiny();
        let all: Vec<[usize; 6]> = s.indices().collect();
        assert_eq!(all.len(), s.size());
        let distinct: std::collections::HashSet<[usize; 6]> = all.iter().copied().collect();
        assert_eq!(distinct.len(), s.size());
    }

    #[test]
    fn snap_picks_nearest_in_log_space() {
        let s = DesignSpace::tiny();
        let snapped = s.snap(3.1, 0.1, 0.6, 5.0);
        assert_eq!(s.a0[snapped[0]], 4.0);
        assert_eq!(s.a1[snapped[1]], 0.125);
        assert_eq!(s.a2[snapped[2]], 0.5);
        assert_eq!(s.n[snapped[3]], 4);
    }

    #[test]
    fn snap_within_keeps_the_nearest_point_when_it_fits() {
        let s = DesignSpace::tiny();
        let usable = |a: f64| SiliconBudget::new(a + 10.0, 10.0).unwrap();
        let nearest = s.snap(3.1, 0.1, 0.6, 5.0);
        // 4 × (4 + 0.125 + 0.5) = 18.5 mm² fits in 20.
        assert_eq!(s.snap_within(3.1, 0.1, 0.6, 5.0, &usable(20.0)), nearest);
        // Not in 16: the fitting triple nearest in summed log-distance
        // is (2, 0.125, 0.5), still at N = 4.
        assert_eq!(
            s.snap_within(3.1, 0.1, 0.6, 5.0, &usable(16.0)),
            [1, 1, 1, 2]
        );
        // In 2 mm² no triple fits at N = 4 or 2; N steps down to 1.
        assert_eq!(
            s.snap_within(3.1, 0.1, 0.6, 5.0, &usable(2.0)),
            [0, 1, 1, 0]
        );
        // Nothing fits anywhere: the plain snap.
        assert_eq!(s.snap_within(3.1, 0.1, 0.6, 5.0, &usable(1.0)), nearest);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Whenever some grid triple fits at the nearest `N` or below,
        /// the budget-aware snap fits; the nearest point survives
        /// whenever it fits, and `N` moves only when nothing fits at it.
        #[test]
        fn snap_within_fits_whenever_a_grid_point_can(
            a0 in proptest::collection::vec(0.1f64..20.0, 1..6),
            a1 in proptest::collection::vec(0.01f64..3.0, 1..6),
            a2 in proptest::collection::vec(0.01f64..5.0, 1..6),
            n in proptest::collection::vec(1usize..1024, 1..6),
            target in (0.1f64..20.0, 0.01f64..3.0, 0.01f64..5.0, 1.0f64..1024.0),
            usable in 1.0f64..500.0,
        ) {
            let s = DesignSpace::new(a0, a1, a2, n, vec![1], vec![16]).unwrap();
            let budget = SiliconBudget::new(usable + 1.0, 1.0).unwrap();
            let (t0, t1, t2, tn) = target;
            let nearest = s.snap(t0, t1, t2, tn);
            let got = s.snap_within(t0, t1, t2, tn, &budget);
            let fits = |[i0, i1, i2, i3]: [usize; 4]| {
                budget.admits(s.n[i3] as f64, s.a0[i0], s.a1[i1], s.a2[i2])
            };
            let fits_at = |i3: usize| {
                (0..s.a0.len()).any(|i0| {
                    (0..s.a1.len()).any(|i1| (0..s.a2.len()).any(|i2| fits([i0, i1, i2, i3])))
                })
            };
            if fits(nearest) {
                proptest::prop_assert_eq!(got, nearest);
            }
            if fits_at(nearest[3]) {
                proptest::prop_assert_eq!(got[3], nearest[3]);
            }
            let reachable = (0..s.n.len())
                .any(|i3| s.n[i3] <= s.n[nearest[3]] && fits_at(i3));
            if reachable {
                proptest::prop_assert!(fits(got), "{got:?} does not fit");
                proptest::prop_assert!(s.n[got[3]] <= s.n[nearest[3]]);
            } else {
                proptest::prop_assert_eq!(got, nearest);
            }
        }
    }

    #[test]
    fn spread_includes_both_ends() {
        assert_eq!(spread(10, 2), vec![0, 9]);
        assert_eq!(spread(10, 3), vec![0, 5, 9]);
        assert_eq!(spread(3, 5), vec![0, 1, 2]);
    }

    #[test]
    fn analytic_time_prefers_wider_core_for_memory_bound() {
        let m = C2BoundModel::example_big_data();
        let base = DesignPoint {
            a0: 4.0,
            a1: 0.25,
            a2: 1.0,
            n: 16,
            issue_width: 1,
            rob_size: 16,
        };
        let wide = DesignPoint {
            issue_width: 8,
            rob_size: 256,
            ..base
        };
        assert!(analytic_time(&m, &wide) < analytic_time(&m, &base));
    }

    #[test]
    fn ground_truth_interpolates_anchor_values_exactly() {
        let s = DesignSpace::tiny();
        // A deterministic synthetic "simulator".
        let fake = |p: &DesignPoint| -> Result<f64> {
            Ok(1e6 / (p.n as f64).sqrt() * (1.0 + 1.0 / p.a0) * (1.0 + 0.1 / p.a1))
        };
        let gt = GroundTruth::calibrate(&s, 2, fake).unwrap();
        assert_eq!(gt.calibration_sims, 64);
        // At an anchor corner the surface must be exact.
        let corner = [0usize; 6];
        let p = s.point_at(corner);
        let expect = fake(&p).unwrap();
        let got = gt.time_at(corner);
        assert!((got - expect).abs() / expect < 1e-9, "{got} vs {expect}");
        let far = [3, 3, 3, 3, 2, 2];
        let p = s.point_at(far);
        let expect = fake(&p).unwrap();
        let got = gt.time_at(far);
        assert!((got - expect).abs() / expect < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn ground_truth_interpolation_is_monotone_between_anchors() {
        let s = DesignSpace::tiny();
        let fake = |p: &DesignPoint| -> Result<f64> { Ok(1000.0 * p.a0) };
        let gt = GroundTruth::calibrate(&s, 2, fake).unwrap();
        // Interior a0 index 1 (value 2.0) sits between anchors 1.0 and 8.0.
        let t_lo = gt.time_at([0, 0, 0, 0, 0, 0]);
        let t_mid = gt.time_at([1, 0, 0, 0, 0, 0]);
        let t_hi = gt.time_at([3, 0, 0, 0, 0, 0]);
        assert!(t_lo < t_mid && t_mid < t_hi);
    }

    #[test]
    fn failed_corners_are_patched() {
        let s = DesignSpace::tiny();
        let fake = |p: &DesignPoint| -> Result<f64> {
            if p.n >= 8 {
                Err(Error::Simulation("infeasible".into()))
            } else {
                Ok(500.0)
            }
        };
        let gt = GroundTruth::calibrate(&s, 2, fake).unwrap();
        let t = gt.time_at([3, 3, 3, 3, 2, 2]);
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn calibrate_validates_per_axis() {
        let s = DesignSpace::tiny();
        assert!(GroundTruth::calibrate(&s, 1, |_| Ok(1.0)).is_err());
    }

    #[test]
    fn chip_config_override_applies() {
        let area = AreaModel::default();
        let budget = SiliconBudget::new(400.0, 40.0).unwrap();
        let p = DesignPoint {
            a0: 4.0,
            a1: 0.125,
            a2: 0.5,
            n: 4,
            issue_width: 6,
            rob_size: 96,
        };
        let cfg = chip_config_for(&p, &area, &budget).unwrap();
        assert_eq!(cfg.core.issue_width, 6);
        assert_eq!(cfg.core.rob_size, 96);
        assert_eq!(cfg.cores, 4);
    }

    #[test]
    fn simulate_point_runs_end_to_end() {
        use c2_workloads::{fluidanimate::FluidAnimate, Workload};
        let w = FluidAnimate::new(150, 4, 1, 3).generate();
        let area = AreaModel::default();
        let budget = SiliconBudget::new(400.0, 40.0).unwrap();
        let p = DesignPoint {
            a0: 4.0,
            a1: 0.125,
            a2: 0.5,
            n: 2,
            issue_width: 4,
            rob_size: 64,
        };
        let t = simulate_point(&p, &w, &area, &budget).unwrap();
        assert!(t > 0.0);
    }
}
