//! Wall-clock benchmark of the sharded sweep engine on the paper-scale
//! refinement plan, emitting `BENCH_sweep.json` at the repository root
//! as the start of the engine's performance record.
//!
//! This is a custom `harness = false` main (not criterion): the
//! quantity of interest is end-to-end sweep wall clock at different
//! thread counts against a fixed-cost oracle, plus the warm-cache
//! path, and the result must land in a machine-readable file the CI
//! smoke can archive. Each configuration is run `REPS` times and the
//! best time is kept (minimum is the standard wall-clock estimator
//! under scheduling noise).
//!
//! The oracle prices every point with a fixed per-evaluation latency
//! ([`c2_bench::spin::deterministic_spin`]: a constant work quantum
//! plus a sleep to an absolute deadline), so the ideal speedup at `t`
//! threads is `t` regardless of how many physical cores the benchmark
//! machine has, and the per-evaluation cost does not drift with
//! scheduler noise between reps. That models the dominant real
//! deployment, where each evaluation blocks on an external simulator
//! process; a compute-bound oracle scales the same way once physical
//! cores are available.

use c2_bound::dse::{DesignPoint, DesignSpace};
use c2_bound::{Aps, C2BoundModel};
use c2_runner::{RunConfig, SweepRunner};
use std::time::{Duration, Instant};

/// Per-evaluation oracle latency. Large enough to dominate engine
/// overhead (shard claiming, journaling is off, merge), small enough
/// that the whole benchmark stays in seconds.
const ORACLE_SPIN: Duration = Duration::from_millis(4);
/// Repetitions per configuration; best-of is reported.
const REPS: usize = 3;
/// Thread counts to sweep.
const THREADS: &[usize] = &[1, 2, 4, 8];

fn paper_scale_aps() -> Aps {
    Aps::new(C2BoundModel::example_big_data(), DesignSpace::paper_scale())
}

/// Block for the fixed per-evaluation latency, then price
/// analytically. See the module docs for why the cost is a
/// deterministic spin rather than a bare sleep or busy-wait.
fn priced(p: &DesignPoint) -> c2_bound::Result<f64> {
    c2_bench::spin::deterministic_spin(ORACLE_SPIN);
    Ok(1.0e9 / (p.n as f64 * p.issue_width as f64 * p.rob_size as f64))
}

/// One timed sweep; returns (wall clock, cache hits).
fn timed_run(threads: usize, cache: Option<&std::path::Path>) -> (Duration, usize) {
    let aps = paper_scale_aps();
    let runner = SweepRunner::new(RunConfig {
        threads,
        cache_path: cache.map(|p| p.to_path_buf()),
        ..RunConfig::default()
    })
    .expect("valid config");
    let start = Instant::now();
    let summary = runner
        .run_aps(&aps, || priced, None, false)
        .expect("sweep completes");
    let wall = start.elapsed();
    assert!(summary.report.completed, "benchmark sweep must complete");
    (wall, summary.report.cache_hits)
}

fn best_of(reps: usize, mut f: impl FnMut() -> (Duration, usize)) -> (Duration, usize) {
    let mut best = f();
    for _ in 1..reps {
        let next = f();
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

fn main() {
    // `cargo bench` passes harness flags; this main ignores them.
    let jobs = paper_scale_aps().plan().expect("plan").jobs.len();
    println!(
        "sweep bench: {jobs} refinement jobs, {:?} oracle spin, best of {REPS}",
        ORACLE_SPIN
    );
    let mut runs = Vec::new();
    let mut serial_ms = 0.0f64;
    for &threads in THREADS {
        let (wall, _) = best_of(REPS, || timed_run(threads, None));
        let ms = wall.as_secs_f64() * 1e3;
        if threads == 1 {
            serial_ms = ms;
        }
        let speedup = serial_ms / ms;
        println!("  threads {threads:>2}: {ms:>8.1} ms  (speedup {speedup:.2}x)");
        runs.push((threads, ms, speedup));
    }

    // Warm-cache pass: populate once, then time the fully memoized
    // sweep — the cache turns every evaluation into a lookup, so this
    // bounds the engine's non-oracle overhead.
    let cache_dir = std::env::temp_dir().join("c2-sweep-bench");
    std::fs::create_dir_all(&cache_dir).expect("create temp dir");
    let cache = cache_dir.join(format!("cache-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    let (_, cold_hits) = timed_run(4, Some(&cache));
    assert_eq!(cold_hits, 0, "cold pass populates");
    let (warm_wall, warm_hits) = best_of(REPS, || timed_run(4, Some(&cache)));
    assert_eq!(warm_hits, jobs, "warm pass is fully memoized");
    let warm_ms = warm_wall.as_secs_f64() * 1e3;
    println!("  warm cache (4 threads): {warm_ms:>8.1} ms, {warm_hits} hits");
    let _ = std::fs::remove_file(&cache);

    let speedup_at_4 = runs
        .iter()
        .find(|(t, _, _)| *t == 4)
        .map(|(_, _, s)| *s)
        .unwrap_or(0.0);

    // Emit the perf record at the repository root.
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"sharded_sweep_paper_scale\",\n");
    json.push_str(&format!("  \"jobs\": {jobs},\n"));
    json.push_str(&format!(
        "  \"oracle_spin_ms\": {},\n",
        ORACLE_SPIN.as_millis()
    ));
    json.push_str(&format!("  \"reps\": {REPS},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, (threads, ms, speedup)) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {threads}, \"wall_ms\": {ms:.3}, \"speedup\": {speedup:.3}}}{}\n",
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"warm_cache\": {{\"threads\": 4, \"wall_ms\": {warm_ms:.3}, \"hits\": {warm_hits}}},\n"
    ));
    json.push_str(&format!("  \"speedup_at_4_threads\": {speedup_at_4:.3}\n"));
    json.push_str("}\n");

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_sweep.json");
    std::fs::write(&out, json).expect("write BENCH_sweep.json");
    println!("wrote {}", out.display());

    assert!(
        speedup_at_4 >= 2.0,
        "acceptance: 4-thread sweep must be at least 2x serial, got {speedup_at_4:.2}x"
    );
}
