//! Byte-identity pins for workload characterization, the "input" stage
//! of the paper's Fig. 5 methodology that every DSE runs first.
//!
//! Each case characterizes a built-in workload, at a size a shipped
//! scenario or `run <workload>` (size 24) uses, on a one-core chip, and
//! hashes `format!("{:?}")` of the whole `Characterization` with
//! FNV-1a. The three chips are the reference single core, a blocking
//! scalar core (a 1-entry ROB, so every access is at its ROB head) and
//! the reference core with next-line prefetching. A change to how the
//! one-core simulator or the footprint count computes must not move a
//! digest.

use c2bound::sim::{ChipConfig, CoreConfig};
use c2bound::workloads::characterize;

fn chips() -> [(&'static str, ChipConfig); 3] {
    let reference = ChipConfig::default_single_core();
    let mut blocking = reference.clone();
    blocking.core = CoreConfig::scalar_blocking();
    let mut prefetch = reference.clone();
    prefetch.l1.next_line_prefetch = true;
    [
        ("reference", reference),
        ("blocking", blocking),
        ("prefetch", prefetch),
    ]
}

const CASES: [(&str, u64); 7] = [
    ("tmm", 24),
    ("spmv", 24),
    ("stencil", 16),
    ("stencil", 24),
    ("stencil", 64),
    ("fft", 24),
    ("fluidanimate", 100),
];

const DIGESTS: [(&str, u64); 21] = [
    ("tmm 24 reference", 0xcf2454a161bd0881),
    ("tmm 24 blocking", 0xe0467c6f005b3ce5),
    ("tmm 24 prefetch", 0x15dd81f6dcdc5e5c),
    ("spmv 24 reference", 0x4818d799ef1ee455),
    ("spmv 24 blocking", 0xca03e77ed54bb61f),
    ("spmv 24 prefetch", 0xde2ec833415f71bc),
    ("stencil 16 reference", 0x050f84e3b9fe17f0),
    ("stencil 16 blocking", 0x52d3fc24a6910783),
    ("stencil 16 prefetch", 0xe70b999fcb9fa43b),
    ("stencil 24 reference", 0xfc355f55c1721b56),
    ("stencil 24 blocking", 0x69ad8b51eb43b995),
    ("stencil 24 prefetch", 0xa258a002d55dec26),
    ("stencil 64 reference", 0x2e770399d4ee0921),
    ("stencil 64 blocking", 0x7638aa9de16e7e1f),
    ("stencil 64 prefetch", 0xefd99a04f1c6d9e4),
    ("fft 24 reference", 0xde9d12573fb70f28),
    ("fft 24 blocking", 0x17ceccf127dda121),
    ("fft 24 prefetch", 0x8b4d95cb322a8569),
    ("fluidanimate 100 reference", 0x303c40ec9d969003),
    ("fluidanimate 100 blocking", 0x42715d1e78844c3a),
    ("fluidanimate 100 prefetch", 0xb1b36d3b9b0e387c),
];

#[test]
fn characterizations_keep_their_digests() {
    let mut actual = Vec::new();
    for (name, size) in CASES {
        let trace = c2bound::workloads::workload_from_spec(&c2_config::WorkloadSpec {
            name: name.to_string(),
            size,
        })
        .unwrap_or_else(|| panic!("unknown workload {name}"))
        .generate();
        for (chip, config) in chips() {
            let ch = characterize(&trace, &config).unwrap();
            let digest = c2_config::fnv1a(format!("{ch:?}").as_bytes());
            actual.push(format!("{name} {size} {chip} {digest:016x}"));
        }
    }
    let expected: Vec<String> = DIGESTS
        .iter()
        .map(|(label, digest)| format!("{label} {digest:016x}"))
        .collect();
    assert_eq!(actual, expected);
}
