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
//!
//! A second test keeps its digests inline: 24 cases with a NoC hop of
//! 0 cycles, the only configurations in which an event is scheduled
//! for the cycle being processed, so they pin the order of events
//! within a cycle.

use std::fmt::Write as _;
use std::path::Path;

use c2bound::model::dse::{chip_config_for, DesignPoint};
use c2bound::sim::area::{AreaModel, SiliconBudget};
use c2bound::sim::{ChipConfig, CycleWindow, DramSpike, FaultPlan, Simulator};
use c2bound::workloads::WorkloadTrace;

const GOLDEN: &str = "tests/golden/pre_event_sim.txt";

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
                    let digest = c2_config::fnv1a(format!("{result:?}").as_bytes());
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

/// `SimResult` digests with a zero-cycle NoC hop, recorded with the
/// event-heap engine. A hop of 0 schedules a fill or an L2 arrival into
/// the cycle being processed, so these cases pin the order of events
/// within one cycle, which no golden case above (4- and 6-cycle hops)
/// can see.
const ZERO_LATENCY: [(&str, u64); 24] = [
    (
        "fluidanimate 100 n=8 noc=0/0 prefetch=false",
        0xbf13b2d8c7c7b0ba,
    ),
    (
        "fluidanimate 100 n=8 noc=0/0 prefetch=true",
        0x06e5cc4000afcead,
    ),
    (
        "fluidanimate 100 n=8 noc=0/6 prefetch=false",
        0x5f07a273fef6b08d,
    ),
    (
        "fluidanimate 100 n=8 noc=0/6 prefetch=true",
        0x18952432cc7bada2,
    ),
    (
        "fluidanimate 100 n=8 noc=4/0 prefetch=false",
        0xd9f0091462e8707f,
    ),
    (
        "fluidanimate 100 n=8 noc=4/0 prefetch=true",
        0x24e532d0fefafef1,
    ),
    (
        "fluidanimate 100 n=512 noc=0/0 prefetch=false",
        0x91a6aa7df9be45bd,
    ),
    (
        "fluidanimate 100 n=512 noc=0/0 prefetch=true",
        0x28187ecb30c8a7ac,
    ),
    (
        "fluidanimate 100 n=512 noc=0/6 prefetch=false",
        0x8dfb2fe7cd2955ff,
    ),
    (
        "fluidanimate 100 n=512 noc=0/6 prefetch=true",
        0x82851e2463663f39,
    ),
    (
        "fluidanimate 100 n=512 noc=4/0 prefetch=false",
        0xe2e359fe12452bc0,
    ),
    (
        "fluidanimate 100 n=512 noc=4/0 prefetch=true",
        0xaf04cdf779e47197,
    ),
    ("stencil 64 n=8 noc=0/0 prefetch=false", 0xfb60b352187ec938),
    ("stencil 64 n=8 noc=0/0 prefetch=true", 0x64dde7fbcb507987),
    ("stencil 64 n=8 noc=0/6 prefetch=false", 0x3b002edb779650a0),
    ("stencil 64 n=8 noc=0/6 prefetch=true", 0x8ad26a94699c22c8),
    ("stencil 64 n=8 noc=4/0 prefetch=false", 0xe6e6165ee708b451),
    ("stencil 64 n=8 noc=4/0 prefetch=true", 0x65fbc12d7c4a1614),
    (
        "stencil 64 n=512 noc=0/0 prefetch=false",
        0xcb49d1ea4b4b7cf7,
    ),
    ("stencil 64 n=512 noc=0/0 prefetch=true", 0x4245dfe5c50c42af),
    (
        "stencil 64 n=512 noc=0/6 prefetch=false",
        0xfe4af413215f9efd,
    ),
    ("stencil 64 n=512 noc=0/6 prefetch=true", 0x0636225599f8627a),
    (
        "stencil 64 n=512 noc=4/0 prefetch=false",
        0x7f8f0679075e0eac,
    ),
    ("stencil 64 n=512 noc=4/0 prefetch=true", 0x423f9f03063bafed),
];

#[test]
fn zero_latency_noc_results_keep_their_digests() {
    let mut actual = Vec::new();
    for (name, size) in [("fluidanimate", 100), ("stencil", 64)] {
        let trace = workload(name, size);
        for n in [8, 512] {
            let traces = trace.per_core_traces(n);
            for (l1_l2, l2_mem) in [(0, 0), (0, 6), (4, 0)] {
                for prefetch in [false, true] {
                    let mut cfg = config(n, 6, 256);
                    cfg.noc.l1_l2_latency = l1_l2;
                    cfg.noc.l2_mem_latency = l2_mem;
                    cfg.l1.next_line_prefetch = prefetch;
                    let result = Simulator::new(cfg).run(&traces).unwrap();
                    let digest = c2_config::fnv1a(format!("{result:?}").as_bytes());
                    actual.push(format!(
                        "{name} {size} n={n} noc={l1_l2}/{l2_mem} prefetch={prefetch} {digest:016x}"
                    ));
                }
            }
        }
    }
    let expected: Vec<String> = ZERO_LATENCY
        .iter()
        .map(|(label, digest)| format!("{label} {digest:016x}"))
        .collect();
    assert_eq!(actual, expected);
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
