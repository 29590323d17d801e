//! The APS (Analysis Plus Simulation) algorithm (paper Fig 6).
//!
//! 1. *Characterization* supplies the model parameters (done upstream,
//!    `c2-workloads::characterize`).
//! 2. *Analysis*: solve the constrained optimization (Eq. 13); the case
//!    split on `g(N)` picks minimize-T or maximize-W/T. This pins the
//!    fundamental parameters `(A0, A1, A2, N)` — the CMP "skeleton".
//! 3. *Simulation*: only the remaining microarchitecture parameters
//!    (issue width, ROB size) are swept with the detailed simulator —
//!    10 × 10 = 100 runs instead of 10⁶ ("the design space has been
//!    narrowed significantly by up to four orders of magnitude").

use crate::dse::{analytic_time, DesignPoint, DesignSpace, Oracle};
use crate::model::{C2BoundModel, OptimizationCase};
use crate::optimize::{optimize_observed_tuned, OptimalDesign, SolverTuning};
use crate::{Error, Result};
use c2_config::Fnv1a;
use c2_obs::{MetricsSink, NullSink};

/// The APS driver.
#[derive(Debug, Clone)]
pub struct Aps {
    /// The characterized analytical model.
    pub model: C2BoundModel,
    /// The discrete design space being explored.
    pub space: DesignSpace,
    /// Solver tolerances for the analysis stage.
    pub tuning: SolverTuning,
}

/// Per-point resilience policy for the refinement sweep: how hard to
/// try each simulation before declaring the point dead, and whether to
/// backfill dead points with calibrated analytic estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Maximum oracle attempts per refinement point (≥ 1). Attempts
    /// beyond the first are retries for transient failures.
    pub max_attempts: usize,
    /// When `true`, points whose oracle never succeeded receive a
    /// calibrated analytic time estimate in the [`RefinementLog`]
    /// (never eligible to be `chosen` — estimates only describe dead
    /// regions, they don't compete with real simulations).
    pub analytic_fallback: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_attempts: 2,
            analytic_fallback: true,
        }
    }
}

/// How much of the refinement sweep survived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationLevel {
    /// Every refinement point simulated successfully.
    None,
    /// Some points were skipped; the chosen point rests on the
    /// surviving simulations.
    Partial,
    /// More than half the refinement points died; the chosen point is
    /// real but the swept region is mostly unobserved.
    Severe,
}

impl DegradationLevel {
    /// Stable lower-case name, used in trace events.
    pub fn as_str(&self) -> &'static str {
        match self {
            DegradationLevel::None => "none",
            DegradationLevel::Partial => "partial",
            DegradationLevel::Severe => "severe",
        }
    }
}

/// A refinement point whose oracle never succeeded.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedPoint {
    /// Multi-index of the dead point in the design space.
    pub index: [usize; 6],
    /// Oracle attempts consumed (equals the policy's `max_attempts`).
    pub attempts: usize,
    /// The last error the oracle returned.
    pub error: Error,
    /// Calibrated analytic time estimate for the dead point (present
    /// when the policy enables the fallback and calibration was
    /// possible).
    pub analytic_estimate: Option<f64>,
}

/// Full accounting of the refinement sweep: every point is either
/// succeeded or listed in `skipped`, so
/// `attempted == succeeded + skipped.len()` always holds.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementLog {
    /// Refinement points attempted (the full microarchitecture sweep).
    pub attempted: usize,
    /// Points with a successful simulation.
    pub succeeded: usize,
    /// Points that needed more than one oracle attempt (whether or not
    /// they eventually succeeded).
    pub retried: usize,
    /// Total oracle invocations including retries.
    pub oracle_calls: usize,
    /// Points with no simulated result, with their last error and
    /// (optionally) a calibrated analytic estimate.
    pub skipped: Vec<SkippedPoint>,
    /// Summary degradation level.
    pub degradation: DegradationLevel,
}

impl RefinementLog {
    /// `true` when every attempted point produced a simulation.
    pub fn is_complete(&self) -> bool {
        self.degradation == DegradationLevel::None
    }
}

/// One unit of refinement work: a microarchitecture point to simulate
/// at the analysis-pinned skeleton. Jobs are the currency of the
/// supervised execution engine (`c2-runner`): each one can be retried,
/// journaled, and resumed independently.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementJob {
    /// Dense job number in sweep order (0-based; doubles as the stable
    /// oracle key and the journal record id).
    pub seq: usize,
    /// Multi-index of the point in the design space.
    pub index: [usize; 6],
    /// The concrete configuration to simulate.
    pub point: DesignPoint,
}

impl RefinementJob {
    /// FNV-1a key of the *work itself*: the multi-index and the design
    /// point's exact bit patterns, deliberately excluding `seq`. Two
    /// jobs that simulate the same configuration share a content key
    /// whatever their position in the sweep, so anything derived from
    /// it — retry-backoff jitter, evaluation-cache addresses — is
    /// reproducible under any sharding or plan reordering.
    pub fn content_key(&self) -> u64 {
        self.hash_work(Fnv1a::default()).finish()
    }

    /// Feed the job's work into `stream`: the multi-index, then the
    /// design point's six fields (areas as exact bit patterns), each as
    /// one little-endian word; never `seq`. The content key is this
    /// stream alone, and the journal's plan fingerprint runs it for
    /// every job after that job's `seq`.
    pub fn hash_work(&self, stream: Fnv1a) -> Fnv1a {
        let p = &self.point;
        let point = [
            p.a0.to_bits(),
            p.a1.to_bits(),
            p.a2.to_bits(),
            p.n as u64,
            p.issue_width as u64,
            p.rob_size as u64,
        ];
        let index = self.index.map(|d| d as u64);
        index.into_iter().chain(point).fold(stream, Fnv1a::word)
    }
}

/// The analysis-stage output plus the refinement work list: everything
/// a driver needs to run the simulation stage of APS, in any order, on
/// any number of workers, across any number of process lifetimes.
#[derive(Debug, Clone, PartialEq)]
pub struct ApsPlan {
    /// The continuous analytic optimum (Fig 6 lines 4–13).
    pub analytic: OptimalDesign,
    /// Snapped `(a0, a1, a2, n)` axis indices — the pinned skeleton.
    pub skeleton: [usize; 4],
    /// The microarchitecture sweep, in canonical (issue × ROB) order.
    pub jobs: Vec<RefinementJob>,
}

/// A refinement job's terminal oracle outcome: how many attempts it
/// consumed and what the last one produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// Oracle attempts consumed (≥ 1).
    pub attempts: usize,
    /// The simulated time, or the last error.
    pub result: std::result::Result<f64, Error>,
}

/// Normalize a raw oracle return: non-finite or non-positive times are
/// failures, not data. Every APS driver (in-process and `c2-runner`)
/// must classify through this function so their outcomes agree.
pub fn classify_oracle_result(raw: Result<f64>) -> Result<f64> {
    match raw {
        Ok(t) if t.is_finite() && t > 0.0 => Ok(t),
        Ok(t) => Err(Error::Simulation(format!(
            "oracle returned non-physical time {t}"
        ))),
        Err(e) => Err(e),
    }
}

/// Outcome of an APS run.
#[derive(Debug, Clone, PartialEq)]
pub struct ApsOutcome {
    /// The configuration APS selects.
    pub chosen: DesignPoint,
    /// Its multi-index in the design space.
    pub chosen_index: [usize; 6],
    /// Detailed simulations used in the refinement stage.
    pub simulations: usize,
    /// The optimization case taken.
    pub case: OptimizationCase,
    /// The continuous analytic optimum before snapping.
    pub analytic: OptimalDesign,
    /// Mean relative error of the (calibrated) analytic prediction
    /// against the simulated values over the refined region — the
    /// paper's "APS performance data are compared, and the error is
    /// 5.96%" statistic.
    pub prediction_error: f64,
    /// Best simulated execution time found.
    pub best_time: f64,
    /// Per-point accounting of the refinement sweep (retries, skips,
    /// degradation level).
    pub refinement: RefinementLog,
}

impl Aps {
    /// Create the driver with the default solver tolerances.
    pub fn new(model: C2BoundModel, space: DesignSpace) -> Self {
        Aps {
            model,
            space,
            tuning: SolverTuning::default(),
        }
    }

    /// Create the driver with explicit solver tolerances.
    pub fn with_tuning(model: C2BoundModel, space: DesignSpace, tuning: SolverTuning) -> Self {
        Aps {
            model,
            space,
            tuning,
        }
    }

    /// Run APS with the default [`ResiliencePolicy`]. `oracle` is the
    /// detailed simulator (each call counted).
    pub fn run<F>(&self, oracle: F) -> Result<ApsOutcome>
    where
        F: FnMut(&DesignPoint) -> Result<f64>,
    {
        self.run_oracle(oracle, &ResiliencePolicy::default())
    }

    /// Run APS with an explicit resilience policy for the refinement
    /// sweep: each point's oracle gets up to `max_attempts` tries,
    /// persistent failures are skipped and logged (optionally backfilled
    /// with calibrated analytic estimates), and the returned
    /// [`RefinementLog`] accounts for every point. The run only fails if
    /// the analysis stage fails or *no* refinement point survives.
    ///
    /// The oracle sees each refinement job's stable key alongside its
    /// design point, so fault injection (and any other per-job
    /// behavior) is tied to job identity rather than call order. Plain
    /// closures over `&DesignPoint` qualify via the blanket [`Oracle`]
    /// impl.
    pub fn run_oracle<O: Oracle>(
        &self,
        mut oracle: O,
        policy: &ResiliencePolicy,
    ) -> Result<ApsOutcome> {
        if policy.max_attempts == 0 {
            return Err(Error::InvalidParameter {
                name: "max_attempts",
                value: 0.0,
            });
        }
        let plan = self.plan()?;
        // Sequential drive: each job gets its bounded retries in sweep
        // order. The supervised engine (`c2-runner`) drives the same
        // plan through a worker pool and must converge to the same
        // outcomes, so both paths classify through
        // [`classify_oracle_result`].
        let mut results = Vec::with_capacity(plan.jobs.len());
        for job in &plan.jobs {
            let mut last_err = Error::Simulation("oracle never ran".to_string());
            let mut outcome = None;
            let mut attempts = 0usize;
            while attempts < policy.max_attempts {
                attempts += 1;
                match classify_oracle_result(oracle.evaluate(job.seq as u64, &job.point)) {
                    Ok(t) => {
                        outcome = Some(t);
                        break;
                    }
                    Err(e) => last_err = e,
                }
            }
            results.push((
                job.seq,
                PointOutcome {
                    attempts,
                    result: outcome.ok_or(last_err),
                },
            ));
        }
        self.assemble(&plan, &results, policy)
    }

    /// Stage 1 of the decomposed APS: run the analysis, pin the
    /// skeleton, and lay out the refinement sweep as independent jobs.
    pub fn plan(&self) -> Result<ApsPlan> {
        self.plan_observed(&NullSink)
    }

    /// [`Aps::plan`] with the analysis stage instrumented: the final
    /// KKT split solve reports to `sink` under the `solver` scope, and
    /// the finished plan is announced under the `aps` scope.
    pub fn plan_observed(&self, sink: &dyn MetricsSink) -> Result<ApsPlan> {
        build_plan(&self.space, sink, || {
            // --- Analysis: Eq. 13 via Lagrange/Newton (Fig 6 lines 4-13).
            let analytic = optimize_observed_tuned(&self.model, &self.tuning, sink)?;
            // Snap N to the grid first, then re-solve the area split at
            // that N (the continuous optimum's areas are only right for
            // its own N), and snap the areas to a point that fits the
            // budget.
            let pre = self.space.snap(
                analytic.vars.a0,
                analytic.vars.a1,
                analytic.vars.a2,
                analytic.vars.n,
            );
            let n_snapped = self.space.n[pre[3]];
            let split =
                crate::optimize::optimize_split_tuned(&self.model, n_snapped as f64, &self.tuning)
                    .map(|(v, _)| v)
                    .unwrap_or(analytic.vars);
            let skeleton = self.space.snap_within(
                split.a0,
                split.a1,
                split.a2,
                n_snapped as f64,
                &self.model.budget,
            );
            Ok((analytic, skeleton))
        })
    }

    /// Stage 2 of the decomposed APS: fold per-job outcomes (from any
    /// driver, in any completion order) into an [`ApsOutcome`].
    ///
    /// `results` pairs each job's `seq` with its terminal outcome; it is
    /// sorted internally, so callers may supply completion order. Every
    /// job in the plan must have exactly one outcome — a missing or
    /// duplicated job is a driver bug and reported as an error rather
    /// than silently mis-counted.
    pub fn assemble(
        &self,
        plan: &ApsPlan,
        results: &[(usize, PointOutcome)],
        policy: &ResiliencePolicy,
    ) -> Result<ApsOutcome> {
        self.assemble_observed(plan, results, policy, &NullSink)
    }

    /// [`Aps::assemble`] with the fold instrumented: per-point attempt
    /// counts, success/skip/backfill tallies and the final degradation
    /// verdict are reported to `sink` under the `aps` scope.
    pub fn assemble_observed(
        &self,
        plan: &ApsPlan,
        results: &[(usize, PointOutcome)],
        policy: &ResiliencePolicy,
        sink: &dyn MetricsSink,
    ) -> Result<ApsOutcome> {
        fold_outcomes(&self.space, plan, results, policy, sink, &|p| {
            analytic_time(&self.model, p)
        })
    }
}

/// The one refinement-plan builder, shared by every
/// [`crate::backend::BackendSweep`]: `analyze` pins the skeleton, and
/// the sweep is every issue × ROB pair at it, in canonical order. An
/// empty axis is rejected before the analysis runs, since it leaves
/// nothing to snap to and nothing to sweep (and would panic deep in
/// the snapping). The finished plan is announced to `sink` under the
/// `aps` scope.
pub(crate) fn build_plan(
    space: &DesignSpace,
    sink: &dyn MetricsSink,
    analyze: impl FnOnce() -> Result<(OptimalDesign, [usize; 4])>,
) -> Result<ApsPlan> {
    if space.axis_lens().contains(&0) {
        return Err(Error::InvalidParameter {
            name: "design_space_axis",
            value: 0.0,
        });
    }
    let (analytic, skeleton) = analyze()?;
    let [a0, a1, a2, n] = skeleton;
    let mut jobs = Vec::with_capacity(space.issue.len() * space.rob.len());
    for i4 in 0..space.issue.len() {
        for i5 in 0..space.rob.len() {
            let index = [a0, a1, a2, n, i4, i5];
            jobs.push(RefinementJob {
                seq: jobs.len(),
                index,
                point: space.point_at(index),
            });
        }
    }
    sink.counter_add("aps_plans_total", 1);
    sink.gauge_set("aps_plan_jobs", jobs.len() as f64);
    sink.event(
        "aps",
        "plan.created",
        &[
            ("jobs", jobs.len().into()),
            ("case", format!("{:?}", analytic.case).into()),
            ("skeleton_a0", a0.into()),
            ("skeleton_a1", a1.into()),
            ("skeleton_a2", a2.into()),
            ("skeleton_n", n.into()),
        ],
    );
    Ok(ApsPlan {
        analytic,
        skeleton,
        jobs,
    })
}

/// The backend-agnostic assembly fold shared by every
/// [`crate::backend::BackendSweep`]: exactly the historical
/// `Aps::assemble_observed` body with the analytic estimator abstracted
/// out, so the CPU path's outcomes, metrics and events stay
/// bit-identical while other backends reuse the machinery.
pub(crate) fn fold_outcomes(
    space: &DesignSpace,
    plan: &ApsPlan,
    results: &[(usize, PointOutcome)],
    policy: &ResiliencePolicy,
    sink: &dyn MetricsSink,
    analytic_time_of: &dyn Fn(&DesignPoint) -> f64,
) -> Result<ApsOutcome> {
    {
        let mut by_seq: Vec<Option<&PointOutcome>> = vec![None; plan.jobs.len()];
        for (seq, outcome) in results {
            let slot = by_seq.get_mut(*seq).ok_or(Error::InvalidParameter {
                name: "job_seq",
                value: *seq as f64,
            })?;
            if slot.replace(outcome).is_some() {
                return Err(Error::Simulation(format!(
                    "job {seq} reported two terminal outcomes"
                )));
            }
        }

        let mut best: Option<([usize; 6], DesignPoint, f64)> = None;
        let mut pairs: Vec<(f64, f64)> = Vec::new(); // (analytic, simulated)
        let mut log = RefinementLog {
            attempted: 0,
            succeeded: 0,
            retried: 0,
            oracle_calls: 0,
            skipped: Vec::new(),
            degradation: DegradationLevel::None,
        };
        for job in &plan.jobs {
            let outcome = by_seq[job.seq].ok_or_else(|| {
                Error::Simulation(format!("job {} never reached a terminal state", job.seq))
            })?;
            log.attempted += 1;
            log.oracle_calls += outcome.attempts;
            sink.observe(
                "aps_attempts_per_point",
                &[1.0, 2.0, 4.0, 8.0, 16.0],
                outcome.attempts as f64,
            );
            if outcome.attempts > 1 {
                log.retried += 1;
            }
            match &outcome.result {
                Ok(t) => {
                    log.succeeded += 1;
                    pairs.push((analytic_time_of(&job.point), *t));
                    if best.as_ref().is_none_or(|(_, _, bt)| *t < *bt) {
                        best = Some((job.index, job.point, *t));
                    }
                }
                Err(e) => log.skipped.push(SkippedPoint {
                    index: job.index,
                    attempts: outcome.attempts,
                    error: e.clone(),
                    analytic_estimate: None, // backfilled after calibration
                }),
            }
        }
        let (chosen_index, chosen, best_time) = best
            .ok_or_else(|| Error::Simulation("every refinement simulation failed".to_string()))?;

        // --- Calibrated prediction error: one global scale factor
        // (log-least-squares) absorbs the unit difference between the
        // analytic objective and simulated cycles; the residual is the
        // model's shape error.
        let prediction_error = calibrated_error(&pairs);

        // Dead regions: the analytic model still describes them, so back
        // the skipped points with calibrated estimates. These never
        // compete with real simulations for `chosen`.
        if policy.analytic_fallback {
            if let Some(scale) = calibration_scale(&pairs) {
                for s in &mut log.skipped {
                    let p = space.point_at(s.index);
                    let a = analytic_time_of(&p);
                    if a.is_finite() && a > 0.0 {
                        s.analytic_estimate = Some(scale * a);
                    }
                }
            }
        }
        log.degradation = if log.skipped.is_empty() {
            DegradationLevel::None
        } else if log.skipped.len() * 2 > log.attempted {
            DegradationLevel::Severe
        } else {
            DegradationLevel::Partial
        };

        let backfilled = log
            .skipped
            .iter()
            .filter(|s| s.analytic_estimate.is_some())
            .count();
        sink.counter_add("aps_assembles_total", 1);
        sink.counter_add("aps_points_succeeded_total", log.succeeded as u64);
        sink.counter_add("aps_points_skipped_total", log.skipped.len() as u64);
        sink.counter_add("aps_points_retried_total", log.retried as u64);
        sink.counter_add("aps_backfill_total", backfilled as u64);
        sink.counter_add("aps_oracle_calls_total", log.oracle_calls as u64);
        if prediction_error.is_finite() {
            sink.gauge_set("aps_prediction_error", prediction_error);
        }
        sink.event(
            "aps",
            "assemble.done",
            &[
                ("attempted", log.attempted.into()),
                ("succeeded", log.succeeded.into()),
                ("skipped", log.skipped.len().into()),
                ("backfilled", backfilled.into()),
                ("retried", log.retried.into()),
                ("degradation", log.degradation.as_str().into()),
            ],
        );

        Ok(ApsOutcome {
            chosen,
            chosen_index,
            simulations: log.attempted,
            case: plan.analytic.case,
            analytic: plan.analytic.clone(),
            prediction_error,
            best_time,
            refinement: log,
        })
    }
}

/// Fit the scale minimizing `sum (ln(scale·a) − ln(t))²` over positive
/// `(analytic, simulated)` pairs. `None` when no pair is usable.
pub fn calibration_scale(pairs: &[(f64, f64)]) -> Option<f64> {
    let valid: Vec<&(f64, f64)> = pairs.iter().filter(|(a, t)| *a > 0.0 && *t > 0.0).collect();
    if valid.is_empty() {
        return None;
    }
    let log_scale: f64 =
        valid.iter().map(|(a, t)| t.ln() - a.ln()).sum::<f64>() / valid.len() as f64;
    Some(log_scale.exp())
}

/// Fit `scale` minimizing `sum (ln(scale·a) − ln(t))²` and return the
/// mean relative error of `scale·a` against `t`.
pub fn calibrated_error(pairs: &[(f64, f64)]) -> f64 {
    let Some(scale) = calibration_scale(pairs) else {
        return f64::NAN;
    };
    let valid: Vec<&(f64, f64)> = pairs.iter().filter(|(a, t)| *a > 0.0 && *t > 0.0).collect();
    valid
        .iter()
        .map(|(a, t)| (scale * a - t).abs() / t)
        .sum::<f64>()
        / valid.len() as f64
}

/// Exhaustively find the best point in a space under an oracle (used
/// against the interpolated ground-truth surface, where a "simulation"
/// is a lookup). Returns `(index, point, time, evaluations)`.
pub fn exhaustive_best<F>(
    space: &DesignSpace,
    mut oracle: F,
) -> Result<([usize; 6], DesignPoint, f64, usize)>
where
    F: FnMut(&DesignPoint) -> Result<f64>,
{
    let mut best: Option<([usize; 6], DesignPoint, f64)> = None;
    let mut evals = 0usize;
    for idx in space.indices() {
        let p = space.point_at(idx);
        evals += 1;
        if let Ok(t) = oracle(&p) {
            if best.as_ref().is_none_or(|(_, _, bt)| t < *bt) {
                best = Some((idx, p, t));
            }
        }
    }
    best.map(|(i, p, t)| (i, p, t, evals))
        .ok_or_else(|| Error::Simulation("no feasible point".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic oracle with a smooth optimum whose shape loosely
    /// follows the analytic model (plus interactions it does not have).
    fn synthetic_oracle(p: &DesignPoint) -> Result<f64> {
        let core = 1.0 / (p.a0.sqrt()) + 0.2;
        let mem = 0.3 * (30.0 / (p.a1 * 1000.0).sqrt() + 200.0 / (p.a2 * 2000.0))
            / ((p.issue_width as f64 * p.rob_size as f64 / 512.0)
                .sqrt()
                .max(1.0));
        let par = 0.05 + (p.n as f64).powf(1.5) * 0.95 / p.n as f64;
        Ok(1e6 * (core + mem) * par)
    }

    #[test]
    fn aps_uses_two_orders_fewer_simulations_than_the_space() {
        let space = DesignSpace::tiny();
        let aps = Aps::new(C2BoundModel::example_big_data(), space.clone());
        let outcome = aps.run(synthetic_oracle).unwrap();
        assert_eq!(
            outcome.simulations,
            space.issue.len() * space.rob.len(),
            "APS must sweep exactly the microarchitecture axes"
        );
        assert!(outcome.simulations * 100 <= space.size() * 100);
        assert!(outcome.simulations < space.size() / 10);
        assert!(outcome.best_time > 0.0);
        assert!(outcome.prediction_error.is_finite());
    }

    #[test]
    fn aps_choice_is_competitive_with_exhaustive() {
        // g = N^{3/2} puts the model in the maximize-W/T case, so the
        // fair comparison is throughput (W = g(N)·IC0 per Eq. 9), not
        // raw time (which the synthetic oracle minimizes at N = 1).
        let space = DesignSpace::tiny();
        let model = C2BoundModel::example_big_data();
        let aps = Aps::new(model, space.clone());
        let outcome = aps.run(synthetic_oracle).unwrap();
        let throughput = |p: &DesignPoint, t: f64| (p.n as f64).powf(1.5) / t;
        let aps_tp = throughput(&outcome.chosen, outcome.best_time);
        // Exhaustive best by throughput.
        let mut best_tp = 0.0f64;
        for idx in space.indices() {
            let p = space.point_at(idx);
            let t = synthetic_oracle(&p).unwrap();
            best_tp = best_tp.max(throughput(&p, t));
        }
        assert!(
            aps_tp >= 0.4 * best_tp,
            "APS throughput {aps_tp} vs best {best_tp}"
        );
    }

    #[test]
    fn exhaustive_best_visits_every_point() {
        let space = DesignSpace::tiny();
        let (_, _, t_best, evals) = exhaustive_best(&space, synthetic_oracle).unwrap();
        assert_eq!(evals, space.size());
        assert!(t_best > 0.0);
    }

    #[test]
    fn calibrated_error_zero_for_proportional_predictions() {
        let pairs: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!(calibrated_error(&pairs) < 1e-12);
    }

    #[test]
    fn calibrated_error_detects_shape_mismatch() {
        let pairs = vec![(1.0, 3.0), (2.0, 3.0), (4.0, 3.0)];
        assert!(calibrated_error(&pairs) > 0.1);
    }

    #[test]
    fn calibrated_error_empty_is_nan() {
        assert!(calibrated_error(&[]).is_nan());
    }

    #[test]
    fn failing_oracle_points_are_skipped() {
        let space = DesignSpace::tiny();
        let aps = Aps::new(C2BoundModel::example_big_data(), space);
        let outcome = aps
            .run(|p| {
                if p.issue_width > 2 {
                    Err(Error::Simulation("boom".into()))
                } else {
                    synthetic_oracle(p)
                }
            })
            .unwrap();
        assert!(outcome.chosen.issue_width <= 2);
        // The dead points are on the record, not silently dropped.
        let log = &outcome.refinement;
        assert!(!log.skipped.is_empty());
        assert_eq!(log.attempted, log.succeeded + log.skipped.len());
        assert_ne!(log.degradation, DegradationLevel::None);
    }

    #[test]
    fn all_failing_oracle_is_an_error() {
        let space = DesignSpace::tiny();
        let aps = Aps::new(C2BoundModel::example_big_data(), space);
        assert!(aps
            .run(|_| Err::<f64, _>(Error::Simulation("boom".into())))
            .is_err());
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        // Every point fails on its first attempt and succeeds on the
        // second: with the default policy (2 attempts) the sweep is
        // complete, and every point is marked retried.
        let space = DesignSpace::tiny();
        let aps = Aps::new(C2BoundModel::example_big_data(), space.clone());
        let mut calls = 0usize;
        let mut seen = std::collections::HashSet::new();
        let outcome = aps
            .run(|p| {
                calls += 1;
                let key = (p.issue_width, p.rob_size);
                if seen.insert(key) {
                    Err(Error::Simulation("transient".into()))
                } else {
                    synthetic_oracle(p)
                }
            })
            .unwrap();
        let log = &outcome.refinement;
        let points = space.issue.len() * space.rob.len();
        assert_eq!(log.attempted, points);
        assert_eq!(log.succeeded, points);
        assert_eq!(log.retried, points);
        assert_eq!(log.oracle_calls, 2 * points);
        assert!(log.skipped.is_empty());
        assert_eq!(log.degradation, DegradationLevel::None);
        assert!(log.is_complete());
        // `simulations` still reports the sweep size, not the retries.
        assert_eq!(outcome.simulations, points);
    }

    #[test]
    fn thirty_percent_dead_points_still_yield_an_outcome() {
        // The acceptance scenario: ~30% of refinement points fail
        // persistently; APS still returns an outcome whose log accounts
        // for every point.
        let space = DesignSpace::tiny();
        let aps = Aps::new(C2BoundModel::example_big_data(), space.clone());
        let mut point_no = 0usize;
        let outcome = aps
            .run(|p| {
                // Two oracle calls per dead point (retry), one per live
                // point: index arithmetic on the *point* requires
                // counting unique points, so key off the microarch axes.
                let _ = p;
                point_no += 1;
                // Every 10th..12th call pattern ≈ kills 3 of 10 points
                // deterministically (accounting is what matters here).
                if (point_no / 2) % 10 < 3 {
                    Err(Error::Simulation("dead region".into()))
                } else {
                    synthetic_oracle(p)
                }
            })
            .unwrap();
        let log = &outcome.refinement;
        assert_eq!(log.attempted, space.issue.len() * space.rob.len());
        assert_eq!(log.attempted, log.succeeded + log.skipped.len());
        assert!(!log.skipped.is_empty());
        for s in &log.skipped {
            assert_eq!(s.attempts, ResiliencePolicy::default().max_attempts);
            // Dead regions carry a calibrated analytic estimate.
            assert!(s.analytic_estimate.is_some());
            assert!(s.analytic_estimate.unwrap() > 0.0);
        }
        assert!(outcome.best_time > 0.0);
    }

    #[test]
    fn single_attempt_policy_disables_retries() {
        let space = DesignSpace::tiny();
        let aps = Aps::new(C2BoundModel::example_big_data(), space.clone());
        let policy = ResiliencePolicy {
            max_attempts: 1,
            analytic_fallback: false,
        };
        let mut first = true;
        let outcome = aps
            .run_oracle(
                |p: &DesignPoint| {
                    if std::mem::take(&mut first) {
                        Err(Error::Simulation("transient".into()))
                    } else {
                        synthetic_oracle(p)
                    }
                },
                &policy,
            )
            .unwrap();
        let log = &outcome.refinement;
        assert_eq!(log.retried, 0);
        assert_eq!(log.skipped.len(), 1);
        assert_eq!(log.oracle_calls, log.attempted);
        assert!(log.skipped[0].analytic_estimate.is_none());
    }

    #[test]
    fn zero_attempt_policy_is_rejected() {
        let space = DesignSpace::tiny();
        let aps = Aps::new(C2BoundModel::example_big_data(), space);
        let policy = ResiliencePolicy {
            max_attempts: 0,
            analytic_fallback: true,
        };
        assert!(aps.run_oracle(synthetic_oracle, &policy).is_err());
    }

    #[test]
    fn empty_axis_space_is_a_typed_error_not_a_panic() {
        let mut space = DesignSpace::tiny();
        space.issue = Vec::new();
        let aps = Aps::new(C2BoundModel::example_big_data(), space);
        match aps.run(synthetic_oracle) {
            Err(Error::InvalidParameter { name, .. }) => {
                assert_eq!(name, "design_space_axis");
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_oracle_times_are_treated_as_failures() {
        let space = DesignSpace::tiny();
        let aps = Aps::new(C2BoundModel::example_big_data(), space);
        let outcome = aps
            .run(|p| {
                if p.issue_width == 1 {
                    Ok(f64::NAN)
                } else {
                    synthetic_oracle(p)
                }
            })
            .unwrap();
        assert!(outcome.chosen.issue_width > 1);
        assert!(outcome.best_time.is_finite());
        assert!(!outcome.refinement.skipped.is_empty());
    }
}
