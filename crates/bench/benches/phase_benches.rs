//! Wall-clock benchmark for ISSUE 8's two headline numbers, emitting
//! `BENCH_phase.json` at the repository root:
//!
//! 1. **Full-mode scaling** — the paper-scale refinement sweep against
//!    a fixed-latency oracle at 1 and 8 threads, after the engine's
//!    batched cache lookups, per-shard journal append, and adaptive
//!    steal coarsening. The oracle latency is deliberately larger than
//!    `sweep_benches` (40 ms vs 4 ms) so the measured ratio isolates
//!    the engine's remaining serial fraction instead of the constant
//!    plan/merge cost.
//! 2. **Per-oracle cut** — wall clock of one full trace-driven
//!    simulation versus one phase-clustered estimate of the same
//!    workload at the same design points (DESIGN.md §13). This is the
//!    compute-bound half of the story: phase mode simulates only the
//!    representative windows (plus their warmup predecessors), so the
//!    cut tracks `1 / simulated_fraction` minus per-slice overhead.
//!
//! Like `sweep_benches`, this is a `harness = false` main: the
//! quantities of interest are end-to-end wall clocks that must land in
//! a machine-readable file the CI scaling smoke can floor-check.

use c2_bench::spin::deterministic_spin;
use c2_bound::dse::{chip_config_for, DesignPoint, DesignSpace};
use c2_bound::{Aps, C2BoundModel, PhaseOracle, PhasePlan};
use c2_runner::{RunConfig, SweepRunner};
use c2_sim::Simulator;
use c2_trace::PhaseConfig;
use std::time::{Duration, Instant};

/// Per-evaluation oracle latency for the scaling half. Large enough
/// that the constant plan/merge cost (~tens of ms) is small next to
/// the per-thread oracle time even at 8 threads.
const ORACLE_SPIN: Duration = Duration::from_millis(40);
/// Repetitions per configuration; best-of is reported.
const REPS: usize = 2;
/// The scaling half runs serial and the acceptance thread count.
const THREADS: &[usize] = &[1, 8];
/// Workload for the per-oracle half: large enough that its phase plan
/// simulates a small fraction of the trace (see `tests/phase_accuracy.rs`).
const PHASE_WORKLOAD: (&str, u64) = ("stencil", 96);

fn paper_scale_aps() -> Aps {
    Aps::new(C2BoundModel::example_big_data(), DesignSpace::paper_scale())
}

fn priced(p: &DesignPoint) -> c2_bound::Result<f64> {
    deterministic_spin(ORACLE_SPIN);
    Ok(1.0e9 / (p.n as f64 * p.issue_width as f64 * p.rob_size as f64))
}

fn timed_run(threads: usize) -> Duration {
    let aps = paper_scale_aps();
    let runner = SweepRunner::new(RunConfig {
        threads,
        ..RunConfig::default()
    })
    .expect("valid config");
    let start = Instant::now();
    let summary = runner
        .run_aps(&aps, || priced, None, false)
        .expect("sweep completes");
    let wall = start.elapsed();
    assert!(summary.report.completed, "benchmark sweep must complete");
    wall
}

fn best_of(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let mut best = f();
    for _ in 1..reps {
        best = best.min(f());
    }
    best
}

/// Design points for the per-oracle half: the three core counts the
/// accuracy pins exercise, at the pinned microarchitecture.
fn eval_points() -> Vec<DesignPoint> {
    [2usize, 4, 8]
        .into_iter()
        .map(|n| DesignPoint {
            a0: 4.0,
            a1: 0.125,
            a2: 0.5,
            n,
            issue_width: 4,
            rob_size: 64,
        })
        .collect()
}

fn main() {
    let jobs = paper_scale_aps().plan().expect("plan").jobs.len();

    // Half 1: full-mode scaling.
    println!(
        "phase bench: {jobs} refinement jobs, {:?} oracle spin, best of {REPS}",
        ORACLE_SPIN
    );
    let mut runs = Vec::new();
    let mut serial_ms = 0.0f64;
    for &threads in THREADS {
        let wall = best_of(REPS, || timed_run(threads));
        let ms = wall.as_secs_f64() * 1e3;
        if threads == 1 {
            serial_ms = ms;
        }
        let speedup = serial_ms / ms;
        println!("  threads {threads:>2}: {ms:>8.1} ms  (speedup {speedup:.2}x)");
        runs.push((threads, ms, speedup));
    }
    let speedup_at_8 = runs
        .iter()
        .find(|(t, _, _)| *t == 8)
        .map(|(_, _, s)| *s)
        .unwrap_or(0.0);

    // Half 2: per-oracle cut from phase substitution.
    let (name, size) = PHASE_WORKLOAD;
    let w = c2_workloads::workload_from_spec(&c2_config::WorkloadSpec {
        name: name.to_string(),
        size,
    })
    .expect("known workload")
    .generate();
    let (area, budget) = (
        c2_sim::area::AreaModel::default(),
        c2_sim::area::SiliconBudget::new(400.0, 40.0).expect("valid budget"),
    );
    let detect_start = Instant::now();
    let plan = PhasePlan::detect(&w, &PhaseConfig::default()).expect("phase plan");
    let detect_ms = detect_start.elapsed().as_secs_f64() * 1e3;
    let phase_oracle = PhaseOracle::new(plan.clone(), area, budget);
    let points = eval_points();

    let full_wall = best_of(REPS, || {
        let start = Instant::now();
        for p in &points {
            let config = chip_config_for(p, &area, &budget).expect("chip config");
            let result = Simulator::new(config)
                .run(&w.per_core_traces(p.n))
                .expect("full simulation");
            std::hint::black_box(result.total_cycles);
        }
        start.elapsed()
    });
    let phase_wall = best_of(REPS, || {
        let start = Instant::now();
        for p in &points {
            let estimate = phase_oracle.estimate(p).expect("phase estimate");
            std::hint::black_box(estimate.total_cycles);
        }
        start.elapsed()
    });
    let full_ms = full_wall.as_secs_f64() * 1e3;
    let phase_ms = phase_wall.as_secs_f64() * 1e3;
    let cut = full_ms / phase_ms;
    println!(
        "  per-oracle ({name} {size}, {} phases, {:.1}% simulated): full {full_ms:.2} ms, \
         phase {phase_ms:.2} ms  ({cut:.2}x cut, detect {detect_ms:.2} ms)",
        plan.phase_count(),
        100.0 * plan.simulated_fraction(),
    );

    // Emit the perf record at the repository root.
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"phase_oracle_paper_scale\",\n");
    json.push_str(&format!("  \"jobs\": {jobs},\n"));
    json.push_str(&format!(
        "  \"oracle_spin_ms\": {},\n",
        ORACLE_SPIN.as_millis()
    ));
    json.push_str(&format!("  \"reps\": {REPS},\n"));
    json.push_str("  \"full_mode_runs\": [\n");
    for (i, (threads, ms, speedup)) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {threads}, \"wall_ms\": {ms:.3}, \"speedup\": {speedup:.3}}}{}\n",
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"speedup_at_8_threads\": {speedup_at_8:.3},\n"));
    json.push_str("  \"phase_oracle\": {\n");
    json.push_str(&format!("    \"workload\": \"{name}\",\n"));
    json.push_str(&format!("    \"size\": {size},\n"));
    json.push_str(&format!("    \"phases\": {},\n", plan.phase_count()));
    json.push_str(&format!(
        "    \"simulated_fraction\": {:.4},\n",
        plan.simulated_fraction()
    ));
    json.push_str(&format!("    \"detect_ms\": {detect_ms:.3},\n"));
    json.push_str(&format!("    \"full_eval_ms\": {full_ms:.3},\n"));
    json.push_str(&format!("    \"phase_eval_ms\": {phase_ms:.3},\n"));
    json.push_str(&format!("    \"per_oracle_cut\": {cut:.3}\n"));
    json.push_str("  }\n");
    json.push_str("}\n");

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_phase.json");
    std::fs::write(&out, json).expect("write BENCH_phase.json");
    println!("wrote {}", out.display());

    // Conservative floors for noisy CI hosts; the checked-in record
    // holds the headline numbers (≥6.5x scaling, ≥2x per-oracle cut).
    assert!(
        speedup_at_8 >= 5.0,
        "acceptance: 8-thread sweep must be at least 5x serial, got {speedup_at_8:.2}x"
    );
    assert!(
        cut >= 1.5,
        "acceptance: phase mode must cut per-oracle wall clock at least 1.5x, got {cut:.2}x"
    );
}
