//! Active-learning surrogate screening for supervised sweeps.
//!
//! Full enumeration simulates every refinement job; screening replaces
//! it with a committee of small MLP surrogates (`c2-ann`) trained
//! online on the true evaluations so far. Each round, the committee
//! scores every still-unevaluated candidate by *disagreement* (the
//! spread of the members' ln-time predictions), and only the most
//! uncertain `batch` candidates are routed to the real oracle. The
//! loop stops when the true-evaluation budget is exhausted, every
//! candidate is evaluated, or the worst disagreement drops below
//! `tolerance`.
//!
//! ## Determinism contract
//!
//! The acquisition rule is a pure function of the terminal outcomes
//! accumulated so far, never of scheduling:
//!
//! * the seeding round is an evenly-strided slice of the plan (no
//!   randomness at all);
//! * committee members are seeded from `(seed, round, member)` alone
//!   and retrained from scratch each round on the seq-sorted outcome
//!   set, so training data order is schedule-invariant;
//! * candidates are ranked by `(spread desc, seq asc)` with a total
//!   order on floats, so ties break identically everywhere;
//! * each round is a round of the engine's sweep loop: its candidates
//!   run shard by shard in `seq` order, through each shard's breaker,
//!   evaluation cache and journal flush cadence, and the shards merge
//!   in shard order, whatever the thread count.
//!
//! Consequently the journal, the metrics on the deterministic sink,
//! and the final outcome are bit-identical across thread counts and
//! across kill/resume histories: a resumed run replays the same round
//! sequence, stepping a journaled record in the round that re-selects
//! it instead of calling the oracle.
//! The journal header binds a fingerprint of every screening parameter
//! on top of the plan/scenario/backend identity, so a screened journal
//! can never be cross-resumed with a full sweep's (or with a screened
//! sweep configured differently).

use std::path::Path;

use c2_ann::{Mlp, TrainOptions};
use c2_bound::aps::{ApsPlan, PointOutcome, RefinementJob};
use c2_bound::backend::BackendSweep;
use c2_bound::dse::Oracle;
use c2_config::{OracleMode, Scenario, ScreenSpec};
use c2_obs::{names, MetricsSink};

use crate::engine::{RunSummary, Sweep, SweepRunner};
use crate::{Error, Result};

/// Validated screening parameters (the engine-side mirror of
/// [`c2_config::ScreenSpec`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenConfig {
    /// Deterministic seed for the surrogate committee.
    pub seed: u64,
    /// True evaluations in the seeding round.
    pub initial: usize,
    /// True evaluations added per acquisition round.
    pub batch: usize,
    /// Hard cap on true oracle evaluations across all rounds.
    pub budget: usize,
    /// Committee size (≥ 2); prediction spread is the uncertainty.
    pub committee: usize,
    /// Hidden-layer width of each committee member.
    pub hidden: usize,
    /// Training epochs per round for each member.
    pub epochs: usize,
    /// Early-stop threshold on the worst committee disagreement in
    /// ln-time space; `0` disables early stopping.
    pub tolerance: f64,
}

impl Default for ScreenConfig {
    fn default() -> Self {
        ScreenConfig::from_spec(&ScreenSpec::default())
    }
}

impl ScreenConfig {
    /// Adopt a validated [`ScreenSpec`] (field-for-field).
    pub fn from_spec(spec: &ScreenSpec) -> Self {
        ScreenConfig {
            seed: spec.seed,
            initial: spec.initial as usize,
            batch: spec.batch as usize,
            budget: spec.budget as usize,
            committee: spec.committee as usize,
            hidden: spec.hidden as usize,
            epochs: spec.epochs as usize,
            tolerance: spec.tolerance,
        }
    }

    /// Build the engine-side configuration from a scenario, enforcing
    /// the composition rule at the engine layer: surrogate screening
    /// requires the full oracle. The phase oracle evaluates one
    /// representative interval per detected phase — its per-point
    /// outcomes are estimates of a different estimator, and training a
    /// surrogate on them would silently compound the two
    /// approximations. Scenario validation and the CLI reject the
    /// combination too; this is the last line of defense for direct
    /// library users.
    pub fn from_scenario(sc: &Scenario) -> Result<Self> {
        if sc.oracle.mode == OracleMode::Phase {
            return Err(Error::InvalidConfig(
                "surrogate screening requires the full oracle \
                 (oracle.mode = \"full\"); the phase oracle's per-point \
                 estimates cannot seed surrogate training",
            ));
        }
        let cfg = ScreenConfig::from_spec(&sc.screen);
        cfg.validate()?;
        Ok(cfg)
    }

    /// Range-check every field (mirrors `Scenario::validate`, for
    /// configurations constructed directly).
    pub fn validate(&self) -> Result<()> {
        if self.initial == 0 {
            return Err(Error::InvalidConfig("screen.initial must be at least 1"));
        }
        if self.batch == 0 {
            return Err(Error::InvalidConfig("screen.batch must be at least 1"));
        }
        if self.budget < self.initial {
            return Err(Error::InvalidConfig(
                "screen.budget must cover the initial sample",
            ));
        }
        if self.committee < 2 {
            return Err(Error::InvalidConfig(
                "screen.committee needs at least 2 members to disagree",
            ));
        }
        if self.hidden == 0 || self.epochs == 0 {
            return Err(Error::InvalidConfig(
                "screen.hidden and screen.epochs must be at least 1",
            ));
        }
        if !self.tolerance.is_finite() || self.tolerance < 0.0 {
            return Err(Error::InvalidConfig(
                "screen.tolerance must be finite and non-negative",
            ));
        }
        Ok(())
    }

    /// FNV-1a fingerprint over every screening parameter. Bound into
    /// the journal header on top of the plan/scenario/backend
    /// fingerprint, so changing any screening knob (or dropping
    /// screening entirely) makes old journals a typed mismatch instead
    /// of a silent wrong resume.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(b"screen-v1");
        eat(&self.seed.to_le_bytes());
        eat(&(self.initial as u64).to_le_bytes());
        eat(&(self.batch as u64).to_le_bytes());
        eat(&(self.budget as u64).to_le_bytes());
        eat(&(self.committee as u64).to_le_bytes());
        eat(&(self.hidden as u64).to_le_bytes());
        eat(&(self.epochs as u64).to_le_bytes());
        eat(&self.tolerance.to_bits().to_le_bytes());
        h
    }
}

/// Accounting of one screened run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScreenReport {
    /// Size of the full refinement plan.
    pub plan_jobs: usize,
    /// True oracle evaluations in the merged run (journal-resumed
    /// outcomes included).
    pub true_evaluations: usize,
    /// Candidates never routed to the oracle (predicted only).
    pub screened_out: usize,
    /// Acquisition rounds executed (the seeding round counts).
    pub rounds: usize,
    /// Outcomes satisfied from the journal instead of re-run.
    pub resumed: usize,
    /// Worst committee disagreement (ln-time spread) over the
    /// candidates left unevaluated when the loop stopped; `0` when the
    /// plan was exhausted.
    pub final_spread: f64,
    /// Whether the loop stopped on the tolerance test rather than the
    /// budget or plan exhaustion.
    pub converged: bool,
}

/// Deterministic per-member seed: FNV-1a over `(seed, round, member)`.
fn member_seed(seed: u64, round: usize, member: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &word in &[seed, round as u64, member as u64] {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Train one committee, fresh, on the seq-sorted outcome set.
fn train_committee(cfg: &ScreenConfig, round: usize, xs: &[Vec<f64>], ys: &[f64]) -> Vec<Mlp> {
    let opts = TrainOptions {
        epochs: cfg.epochs,
        ..TrainOptions::default()
    };
    (0..cfg.committee)
        .map(|m| {
            let mut mlp = Mlp::new(&[6, cfg.hidden, 1], member_seed(cfg.seed, round, m));
            mlp.train(xs, ys, &opts);
            mlp
        })
        .collect()
}

impl SweepRunner {
    /// Run the refinement stage of `sweep` under surrogate screening
    /// instead of full enumeration.
    ///
    /// Each acquisition round is a round of the engine's own sweep
    /// loop, so journaling, resume, the evaluation cache, the per-shard
    /// circuit breakers, the `checkpoint_every` cadence, chaos-storage
    /// fault injection and `abort_after` (simulated kill) behave as in
    /// [`SweepRunner::run_aps_full`]; the journal header additionally
    /// binds `screen.fingerprint()`. `sink` receives the same
    /// deterministic, resume-invariant artifacts a full sweep emits;
    /// screening telemetry — rounds, true evaluations, screened-out
    /// counts, resume counts, the final spread — goes to `ops` (the
    /// [`names`] `SCREEN_*` constants).
    ///
    /// On completion the summary's `plan`/`results` cover the **full**
    /// plan and the evaluated subset (original `seq`s), while the
    /// assembled outcome is folded from the evaluated subset only.
    #[allow(clippy::too_many_arguments)]
    pub fn run_screened<O, B>(
        &self,
        sweep: &dyn BackendSweep,
        screen: &ScreenConfig,
        make_oracle: B,
        journal_path: Option<&Path>,
        resume: bool,
        sink: &dyn MetricsSink,
        ops: &dyn MetricsSink,
    ) -> Result<(RunSummary, ScreenReport)>
    where
        O: Oracle,
        B: Fn() -> O + Sync,
    {
        screen.validate()?;
        let mut run = Sweep::open(
            self,
            sweep,
            Some(screen.fingerprint()),
            "screened sweep",
            journal_path,
            resume,
            sink,
            ops,
        )?;
        let jobs = run.plan.jobs.len();
        let budget = screen.budget.min(jobs);
        let initial = screen.initial.min(budget);

        // Seeding round: an evenly-strided slice of the plan.
        let seed_batch: Vec<usize> = (0..initial).map(|i| i * jobs / initial).collect();
        run.round(&seed_batch, &make_oracle)?;
        let mut rounds = 1usize;
        let mut converged = false;
        let mut final_spread = 0.0f64;

        // Acquisition rounds.
        while !run.aborted() {
            // Train on every successful evaluation so far, in seq
            // order, in ln-time space.
            let mut xs: Vec<Vec<f64>> = Vec::new();
            let mut ys: Vec<f64> = Vec::new();
            for record in run.records.iter().flatten() {
                if let Ok(t) = &record.result {
                    xs.push(run.plan.jobs[record.seq].point.features());
                    ys.push(t.ln());
                }
            }
            if xs.len() < 2 {
                // Not enough signal to form a surrogate; the run
                // degrades to whatever was evaluated.
                break;
            }
            let unevaluated: Vec<usize> = (0..jobs).filter(|&s| run.records[s].is_none()).collect();
            if unevaluated.is_empty() {
                final_spread = 0.0;
                break;
            }
            let committee = train_committee(screen, rounds, &xs, &ys);
            let mut scored: Vec<(f64, usize)> = unevaluated
                .iter()
                .map(|&seq| {
                    let x = run.plan.jobs[seq].point.features();
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for m in &committee {
                        let p = m.predict(&x);
                        lo = lo.min(p);
                        hi = hi.max(p);
                    }
                    (hi - lo, seq)
                })
                .collect();
            final_spread = scored.iter().map(|(s, _)| *s).fold(0.0, f64::max);
            if screen.tolerance > 0.0 && final_spread <= screen.tolerance {
                converged = true;
                break;
            }
            let evaluated = jobs - unevaluated.len();
            if evaluated >= budget {
                break;
            }
            // Deterministic acquisition: spread descending, seq
            // ascending; floats under a total order so ties (and any
            // NaN that a degenerate committee could emit) rank
            // identically on every platform and thread count.
            scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let take = screen.batch.min(budget - evaluated);
            let selected: Vec<usize> = scored.iter().take(take).map(|&(_, s)| s).collect();
            rounds += 1;
            run.round(&selected, &make_oracle)?;
        }

        // Stopped by its own rule, not by `abort_after`.
        let completed = !run.aborted();
        let evaluated = run.records.iter().flatten().count();
        let resumed = run.resumed;
        // Screening telemetry lives on the ops sink: resumed counts
        // (and the exact round structure a tolerance stop produces)
        // legitimately differ between histories that must bit-compare
        // equal on the deterministic sink.
        ops.counter_add(names::SCREEN_TRUE_EVALUATIONS_TOTAL, evaluated as u64);
        ops.counter_add(names::SCREEN_SCREENED_OUT_TOTAL, (jobs - evaluated) as u64);
        ops.counter_add(names::SCREEN_ROUNDS_TOTAL, rounds as u64);
        ops.counter_add(names::SCREEN_RESUMED_TOTAL, resumed as u64);
        ops.gauge_set(names::SCREEN_FINAL_SPREAD_PERMILLE, final_spread * 1000.0);

        let policy = self.config().resilience_policy();
        let summary = run.finish(completed, |plan, results| {
            // Assemble from the evaluated subset: a reduced plan keeps
            // each job's multi-index and point but renumbers seq
            // densely, which is what `assemble_observed` expects of its
            // inputs.
            let reduced = ApsPlan {
                analytic: plan.analytic.clone(),
                skeleton: plan.skeleton,
                jobs: results
                    .iter()
                    .enumerate()
                    .map(|(dense, &(seq, _))| RefinementJob {
                        seq: dense,
                        index: plan.jobs[seq].index,
                        point: plan.jobs[seq].point,
                    })
                    .collect(),
            };
            let reduced_results: Vec<(usize, PointOutcome)> = results
                .iter()
                .enumerate()
                .map(|(dense, (_, o))| (dense, o.clone()))
                .collect();
            sweep.assemble_observed(&reduced, &reduced_results, &policy, sink)
        })?;

        let screen_report = ScreenReport {
            plan_jobs: jobs,
            true_evaluations: evaluated,
            screened_out: jobs - evaluated,
            rounds,
            resumed,
            final_spread,
            converged,
        };
        Ok((summary, screen_report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RunConfig;
    use c2_bound::{Aps, C2BoundModel, DesignPoint, DesignSpace};
    use c2_obs::NullSink;

    fn quick_aps() -> Aps {
        Aps::new(C2BoundModel::example_big_data(), DesignSpace::tiny())
    }

    fn fast_oracle() -> impl FnMut(&DesignPoint) -> c2_bound::Result<f64> {
        |p: &DesignPoint| Ok(1.0e9 / (p.n as f64 * p.issue_width as f64) + p.rob_size as f64)
    }

    fn tiny_screen() -> ScreenConfig {
        ScreenConfig {
            seed: 7,
            initial: 3,
            batch: 2,
            budget: 6,
            committee: 2,
            hidden: 4,
            epochs: 20,
            tolerance: 0.0,
        }
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        let ok = tiny_screen();
        assert!(ok.validate().is_ok());
        for (mutate, what) in [
            (
                Box::new(|c: &mut ScreenConfig| c.initial = 0) as Box<dyn Fn(&mut ScreenConfig)>,
                "initial",
            ),
            (Box::new(|c: &mut ScreenConfig| c.batch = 0), "batch"),
            (Box::new(|c: &mut ScreenConfig| c.budget = 1), "budget"),
            (
                Box::new(|c: &mut ScreenConfig| c.committee = 1),
                "committee",
            ),
            (
                Box::new(|c: &mut ScreenConfig| c.tolerance = -1.0),
                "tolerance",
            ),
        ] {
            let mut bad = tiny_screen();
            mutate(&mut bad);
            assert!(bad.validate().is_err(), "{what} should be rejected");
        }
    }

    #[test]
    fn fingerprint_separates_configurations() {
        let a = tiny_screen();
        let mut b = a;
        b.budget = 7;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a;
        c.seed = 8;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn member_seeds_are_distinct_per_round_and_member() {
        let s0 = member_seed(7, 1, 0);
        assert_ne!(s0, member_seed(7, 1, 1));
        assert_ne!(s0, member_seed(7, 2, 0));
        assert_ne!(s0, member_seed(8, 1, 0));
    }

    #[test]
    fn screened_run_stays_under_budget_and_assembles() {
        let aps = quick_aps();
        let runner = SweepRunner::new(RunConfig::default()).unwrap();
        let (summary, report) = runner
            .run_screened(
                &aps,
                &tiny_screen(),
                fast_oracle,
                None,
                false,
                &NullSink,
                &NullSink,
            )
            .unwrap();
        assert!(summary.report.completed);
        assert!(summary.report.consistent());
        assert!(summary.outcome.is_some());
        assert!(report.true_evaluations <= 6);
        assert_eq!(
            report.true_evaluations + report.screened_out,
            report.plan_jobs
        );
        assert_eq!(summary.results.len(), report.true_evaluations);
    }

    #[test]
    fn phase_oracle_is_rejected_at_the_engine_layer() {
        let mut sc = Scenario::default();
        sc.screen.enabled = true;
        sc.oracle.mode = OracleMode::Phase;
        let err = ScreenConfig::from_scenario(&sc).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
        assert!(err.to_string().contains("full oracle"));
    }

    #[test]
    fn journaled_screen_run_is_bit_identical_across_workers() {
        let dir = std::env::temp_dir().join(format!("c2-screen-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let aps = quick_aps();
        let mut bytes = Vec::new();
        for threads in [1usize, 4] {
            let path = dir.join(format!("w{threads}.journal.jsonl"));
            let runner = SweepRunner::new(RunConfig {
                threads,
                ..RunConfig::default()
            })
            .unwrap();
            runner
                .run_screened(
                    &aps,
                    &tiny_screen(),
                    fast_oracle,
                    Some(&path),
                    false,
                    &NullSink,
                    &NullSink,
                )
                .unwrap();
            bytes.push(std::fs::read(&path).unwrap());
        }
        assert_eq!(bytes[0], bytes[1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A panicking oracle costs one candidate, not the process: the
    /// seeding round's key 3 panics, is journaled `quarantined` after
    /// one attempt, and the sweep completes on a rebuilt oracle.
    #[test]
    fn panicking_oracle_quarantines_the_candidate_and_the_sweep_completes() {
        let dir = std::env::temp_dir().join(format!("c2-screen-panic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("panic.journal.jsonl");
        let faults = c2_sim::FaultPlan {
            oracle_panic_period: Some(4),
            ..c2_sim::FaultPlan::default()
        };
        let runner = SweepRunner::new(RunConfig {
            threads: 2,
            ..RunConfig::default()
        })
        .unwrap();
        let (summary, report) = runner
            .run_screened(
                &quick_aps(),
                &tiny_screen(),
                || c2_sim::FaultyOracle::new(faults, fast_oracle()).unwrap(),
                Some(&path),
                false,
                &NullSink,
                &NullSink,
            )
            .expect("a panicking candidate must not abort the sweep");
        assert!(summary.report.completed);
        assert!(summary.report.consistent());
        assert_eq!(summary.report.quarantined, 1);
        assert!(
            report.true_evaluations > 3,
            "rounds continue past the panic"
        );
        let journal = crate::journal::load(&path).unwrap();
        let panicked = journal.records.iter().find(|r| r.seq == 3).unwrap();
        assert!(panicked.quarantined);
        assert_eq!(
            panicked.attempts, 1,
            "a quarantined candidate is not retried"
        );
        let others = journal.records.iter().filter(|r| r.seq != 3);
        assert!(others.clone().all(|r| !r.quarantined && r.result.is_ok()));
        assert!(others.count() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_and_resume_matches_the_clean_run() {
        let dir = std::env::temp_dir().join(format!("c2-screen-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let aps = quick_aps();
        let clean_path = dir.join("clean.journal.jsonl");
        let clean = SweepRunner::new(RunConfig::default()).unwrap();
        let (clean_summary, clean_report) = clean
            .run_screened(
                &aps,
                &tiny_screen(),
                fast_oracle,
                Some(&clean_path),
                false,
                &NullSink,
                &NullSink,
            )
            .unwrap();

        let killed_path = dir.join("killed.journal.jsonl");
        let killer = SweepRunner::new(RunConfig {
            abort_after: Some(4),
            ..RunConfig::default()
        })
        .unwrap();
        let (killed_summary, _) = killer
            .run_screened(
                &aps,
                &tiny_screen(),
                fast_oracle,
                Some(&killed_path),
                false,
                &NullSink,
                &NullSink,
            )
            .unwrap();
        assert!(!killed_summary.report.completed);
        assert!(killed_summary.outcome.is_none());

        let resumer = SweepRunner::new(RunConfig::default()).unwrap();
        let (resumed_summary, resumed_report) = resumer
            .run_screened(
                &aps,
                &tiny_screen(),
                fast_oracle,
                Some(&killed_path),
                true,
                &NullSink,
                &NullSink,
            )
            .unwrap();
        assert!(resumed_summary.report.completed);
        assert_eq!(resumed_report.resumed, 4);
        assert_eq!(
            resumed_report.true_evaluations,
            clean_report.true_evaluations
        );
        assert_eq!(resumed_summary.outcome, clean_summary.outcome);
        assert_eq!(
            std::fs::read(&clean_path).unwrap(),
            std::fs::read(&killed_path).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_journal_and_screened_journal_cannot_cross_resume() {
        let dir = std::env::temp_dir().join(format!("c2-screen-cross-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let aps = quick_aps();
        let path = dir.join("full.journal.jsonl");
        let runner = SweepRunner::new(RunConfig::default()).unwrap();
        runner
            .run_aps(&aps, fast_oracle, Some(&path), false)
            .unwrap();
        let err = runner
            .run_screened(
                &aps,
                &tiny_screen(),
                fast_oracle,
                Some(&path),
                true,
                &NullSink,
                &NullSink,
            )
            .unwrap_err();
        assert!(matches!(err, Error::Journal(_)));
        assert!(err.to_string().contains("different screened sweep"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
