//! Byte-identity pins for the cycle engine's `SimResult`.
//!
//! Each case splits a real workload across `N` cores, runs `c2-sim` on
//! a `chip_config_for` design point, and hashes `format!("{:?}")` of
//! the whole result with FNV-1a. The digests live in
//! `tests/golden/pre_event_sim.txt`, so any change to *what* the
//! simulator computes (a counter, a float bit, a cycle) moves a digest,
//! while a change to *how* it computes it must not. The grid covers
//! one, eight and 512 cores, narrow and wide cores with small and large
//! windows, multi-cycle execution latency, next-line prefetching and a
//! fault plan with DRAM-spike and MSHR-starvation windows; one case
//! pins the cycle at which an injected request fault fires.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test sim_identity`
//! only when a result change is intended.

use std::fmt::Write as _;
use std::path::Path;

use c2bound::model::dse::{chip_config_for, DesignPoint};
use c2bound::sim::area::{AreaModel, SiliconBudget};
use c2bound::sim::{ChipConfig, CycleWindow, DramSpike, FaultPlan, Simulator};
use c2bound::workloads::WorkloadTrace;

const GOLDEN: &str = "tests/golden/pre_event_sim.txt";

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn workload(name: &str, size: u64) -> WorkloadTrace {
    c2bound::workloads::workload_from_spec(&c2_config::WorkloadSpec {
        name: name.to_string(),
        size,
    })
    .unwrap_or_else(|| panic!("unknown workload {name}"))
    .generate()
}

/// A design point that fits the 400/40 mm² budget at `n` cores: the
/// 512-core point gets the paper space's smallest areas (a 64 MiB L2).
fn config(n: usize, issue_width: usize, rob_size: usize) -> ChipConfig {
    let (a0, a1, a2) = match n {
        1 => (8.0, 0.5, 2.0),
        8 => (4.0, 0.25, 0.5),
        _ => (0.5, 0.05, 0.1),
    };
    let point = DesignPoint {
        a0,
        a1,
        a2,
        n,
        issue_width,
        rob_size,
    };
    let budget = SiliconBudget::new(400.0, 40.0).unwrap();
    chip_config_for(&point, &AreaModel::default(), &budget).unwrap()
}

fn faults() -> FaultPlan {
    FaultPlan {
        dram_spike: Some(DramSpike {
            window: CycleWindow::new(200, 6_000),
            extra: 150,
        }),
        mshr_starvation: Some(CycleWindow::new(1_000, 4_000)),
        ..FaultPlan::default()
    }
}

type Variant = (&'static str, fn(&mut ChipConfig));

const VARIANTS: [Variant; 5] = [
    ("base", |_| {}),
    ("exec3", |c| c.core.exec_latency = 3),
    ("prefetch", |c| c.l1.next_line_prefetch = true),
    ("faults", |c| c.fault = faults()),
    ("all", |c| {
        c.core.exec_latency = 3;
        c.l1.next_line_prefetch = true;
        c.fault = faults();
    }),
];

fn digests() -> String {
    let mut out = String::new();
    for (name, size) in [("fluidanimate", 100), ("stencil", 64)] {
        let trace = workload(name, size);
        for n in [1, 8, 512] {
            let traces = trace.per_core_traces(n);
            for (issue, rob) in [(1, 16), (6, 256), (16, 16)] {
                for (variant, apply) in VARIANTS {
                    let mut cfg = config(n, issue, rob);
                    apply(&mut cfg);
                    let result = Simulator::new(cfg).run(&traces).unwrap();
                    let digest = fnv1a(&format!("{result:?}"));
                    writeln!(
                        out,
                        "{name} {size} n={n} issue={issue} rob={rob} {variant} {digest:016x}"
                    )
                    .unwrap();
                }
            }
        }
    }
    // The 4,300th demand request (of 4,395) is issued late in core 0's
    // serial segment, so the cycle it fires at pins the chip-wide issue
    // order and timing that led up to it.
    let traces = workload("fluidanimate", 100).per_core_traces(512);
    let mut cfg = config(512, 6, 256);
    cfg.fault.fail_at_request = Some(4_300);
    let err = Simulator::new(cfg).run(&traces).unwrap_err();
    writeln!(
        out,
        "fluidanimate 100 n=512 issue=6 rob=256 fail_at_request=4300 {err}"
    )
    .unwrap();
    out
}

#[test]
fn sim_results_are_byte_identical_to_the_golden_digests() {
    let actual = digests();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let drifted: Vec<&str> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, _)| e)
        .collect();
    assert!(
        drifted.is_empty() && expected.lines().count() == actual.lines().count(),
        "{} drifted on {} case(s), first: {:?}\nactual:\n{actual}",
        path.display(),
        drifted.len(),
        drifted.first()
    );
}
