//! A run on the engine the thread's previous run left behind returns
//! what a run on a fresh engine returns.
//!
//! One thread runs a sequence whose core count goes 1 → 64 → 512 → 8 → 1
//! and whose L1 and L2 geometry, issue width and ROB, next-line
//! prefetching and fault plan change between steps. Each step resets
//! an engine that the step before left in another state, one of them
//! stopped by an injected request fault and one by its cycle budget.
//! The budget step's cores share a 64 KiB footprint, so the run it cuts
//! short leaves MSHR entries with several chained waiters, at L1 and at
//! L2, and freed request slots among the live ones.
//! Consecutive steps of one geometry reset their caches by zeroing the
//! sets they filled, or, past a quarter of the sets, the whole array.
//! Every step also runs on a newly spawned thread, which has no spare
//! engine, and the two results, or errors, must be identical.

use c2_sim::{ChipConfig, CycleWindow, DramSpike, Error, FaultPlan, Simulator};
use c2_trace::synthetic::{RandomGenerator, TraceGenerator};
use c2_trace::Trace;

/// `n` traces of `accesses` random accesses each over one shared
/// footprint of `footprint` bytes.
fn traces(n: usize, accesses: usize, footprint: u64, seed: u64) -> Vec<Trace> {
    (0..n as u64)
        .map(|i| {
            RandomGenerator::new(0, footprint, accesses, seed * 1_000 + i)
                .compute_per_access(1)
                .write_fraction(0.3)
                .generate()
        })
        .collect()
}

fn chip(n: usize, issue_width: usize, rob_size: usize) -> ChipConfig {
    let mut config = ChipConfig::default_multi_core(n);
    config.core.issue_width = issue_width;
    config.core.rob_size = rob_size;
    config
}

fn faults() -> FaultPlan {
    FaultPlan {
        dram_spike: Some(DramSpike {
            window: CycleWindow::new(50, 3_000),
            extra: 120,
        }),
        mshr_starvation: Some(CycleWindow::new(200, 2_000)),
        ..FaultPlan::default()
    }
}

/// How a step must end, so the sequence covers what it claims to.
#[derive(Debug, PartialEq)]
enum Ends {
    Done,
    Injected,
    OverBudget,
}

fn steps() -> Vec<(&'static str, ChipConfig, Vec<Trace>, Ends)> {
    let mut small_l1 = chip(64, 2, 32);
    small_l1.l1.size_bytes = 16 * 1024;
    small_l1.l1.associativity = 4;
    small_l1.l1.next_line_prefetch = true;
    let mut injected = small_l1.clone();
    injected.fault.fail_at_request = Some(3_000);
    let mut wide = chip(512, 4, 128);
    wide.l2.size_bytes = 8 << 20;
    let mut wide_faults = chip(512, 6, 256);
    wide_faults.l2.size_bytes = 8 << 20;
    wide_faults.fault = faults();
    let mut budget = chip(8, 4, 64);
    budget.max_cycles = 2_000;
    // A 32-slot event calendar after the budget run's 16: the entries
    // that run left scheduled sit in slots this one reaches only after
    // their cycles have passed.
    let mut slow_noc = chip(8, 4, 64);
    slow_noc.noc.l2_mem_latency = 20;
    let mut small_l2 = chip(8, 1, 16);
    small_l2.l2.size_bytes = 64 * 1024;
    small_l2.l1.next_line_prefetch = true;
    let mut single = ChipConfig::default_single_core();
    single.l1.next_line_prefetch = true;
    single.fault = faults();
    vec![
        (
            "n=1",
            ChipConfig::default_single_core(),
            traces(1, 3_000, 1 << 20, 1),
            Ends::Done,
        ),
        (
            "n=64 small L1, prefetch",
            small_l1,
            traces(64, 150, 1 << 20, 2),
            Ends::Done,
        ),
        (
            "n=64 injected fault",
            injected,
            traces(64, 150, 1 << 20, 3),
            Ends::Injected,
        ),
        (
            "n=512 8 MiB L2",
            wide,
            traces(512, 10, 64 * 1024, 4),
            Ends::Done,
        ),
        (
            "n=512 same geometry, wider core, faults",
            wide_faults,
            traces(512, 10, 64 * 1024, 5),
            Ends::Done,
        ),
        (
            "n=8 cycle budget",
            budget,
            traces(8, 2_000, 64 * 1024, 6),
            Ends::OverBudget,
        ),
        (
            "n=8 slower NoC after a cycle budget",
            slow_noc,
            traces(8, 2_000, 4 << 20, 10),
            Ends::Done,
        ),
        (
            "n=8 64 KiB L2, scalar core",
            small_l2.clone(),
            traces(8, 2_000, 4 << 20, 7),
            Ends::Done,
        ),
        (
            "n=8 same geometry after a full L2",
            small_l2,
            traces(8, 2_000, 4 << 20, 8),
            Ends::Done,
        ),
        (
            "n=1 prefetch, faults",
            single,
            traces(1, 3_000, 1 << 20, 9),
            Ends::Done,
        ),
    ]
}

#[test]
fn a_reset_engine_runs_like_a_fresh_one() {
    for (name, config, traces, ends) in steps() {
        let simulator = Simulator::new(config);
        let reused = simulator.run(&traces);
        let fresh = std::thread::scope(|s| {
            s.spawn(|| simulator.run(&traces))
                .join()
                .expect("fresh run")
        });
        let got = match &reused {
            Ok(_) => Ends::Done,
            Err(Error::InjectedFault { .. }) => Ends::Injected,
            Err(Error::CycleBudgetExceeded { .. }) => Ends::OverBudget,
            Err(other) => panic!("{name}: unexpected error {other}"),
        };
        assert_eq!(got, ends, "{name}");
        assert!(
            format!("{reused:?}") == format!("{fresh:?}"),
            "{name}: the reset engine's result differs from a fresh engine's"
        );
    }
}
