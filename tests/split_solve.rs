//! The analysis stage of every shipped CPU scenario, under every
//! scalability law: the final Eq. 13 area split is a clean KKT solve
//! (one `nominal-newton` rung, accepted `clean`, no Nelder–Mead
//! fallback), the Sun-Ni skeletons are the pinned ones, and every
//! law's skeleton fits the silicon budget.

use std::path::{Path, PathBuf};

use c2_config::{LawKind, Scenario};
use c2bound::model::SplitSolve;
use c2bound::obs::{FieldValue, Recorder};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn every_shipped_cpu_plan_solves_cleanly_and_fits_the_budget() {
    for (file, sun_ni_skeleton) in [
        ("examples/scenarios/quick.json", [3, 3, 3, 3]),
        ("examples/scenarios/paper_scale.json", [0, 0, 0, 9]),
    ] {
        let text = std::fs::read_to_string(repo_path(file)).expect("scenario");
        for law in [
            LawKind::SunNi,
            LawKind::Amdahl,
            LawKind::MemoryWall,
            LawKind::Usl,
        ] {
            let mut sc = Scenario::from_json(&text).expect("valid scenario");
            sc.speedup.law = law;
            let aps = c2bound::pipeline::cpu_setup(&sc).expect("set-up").aps;
            let rec = Recorder::new();
            let plan = aps.plan_observed(&rec).expect("plan");
            let what = format!("{file} under {law:?}");

            assert!(
                matches!(plan.analytic.split_solve, SplitSolve::Kkt),
                "{what}: split solved by {:?}",
                plan.analytic.split_solve
            );
            let report = rec.report();
            let solver: Vec<_> = report
                .events
                .iter()
                .filter(|e| e.scope == "solver")
                .collect();
            let names: Vec<&str> = solver.iter().map(|e| e.name.as_str()).collect();
            assert_eq!(names, ["cascade.rung", "cascade.accepted"], "{what}");
            let quality = solver[1].fields.iter().find(|(k, _)| k == "quality");
            assert_eq!(
                quality.map(|(_, v)| v),
                Some(&FieldValue::from("clean")),
                "{what}"
            );
            assert_eq!(report.registry.counter("aps_split_fallback_total"), 0);
            assert_eq!(report.registry.counter("solver_rung_failures_total"), 0);

            if law == LawKind::SunNi {
                assert_eq!(plan.skeleton, sun_ni_skeleton, "{what}");
            }
            for job in &plan.jobs {
                assert!(
                    aps.space.feasible(&job.point, &aps.model.budget),
                    "{what}: skeleton {:?} exceeds the budget",
                    plan.skeleton
                );
            }
        }
    }
}

/// `paper_scale.json`'s plan: the analytic optimum's N* bit for bit, and
/// the face solves' derivative evaluations, which stay low because no
/// Newton line search evaluates a trial outside the model's domain
/// (every area positive). Evaluating every trial made 24,359.
#[test]
fn paper_scale_plan_is_pinned_and_evaluates_only_inside_the_domain() {
    let text = std::fs::read_to_string(repo_path("examples/scenarios/paper_scale.json"))
        .expect("scenario");
    let sc = Scenario::from_json(&text).expect("valid scenario");
    let aps = c2bound::pipeline::cpu_setup(&sc).expect("set-up").aps;
    let before = c2bound::solver::lagrange::derivative_evaluations();
    let plan = aps.plan_observed(&Recorder::new()).expect("plan");
    let evaluations = c2bound::solver::lagrange::derivative_evaluations() - before;
    assert_eq!(
        plan.analytic.vars.n.to_bits(),
        1943.2795150665074f64.to_bits(),
        "N* = {}",
        plan.analytic.vars.n
    );
    assert!(evaluations <= 3_000, "{evaluations} derivative evaluations");
}
