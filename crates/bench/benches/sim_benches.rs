//! Criterion micro-benchmarks for the simulator and the workload
//! kernels — the per-simulation cost is what makes the paper's
//! 10⁶-point exhaustive sweep infeasible and APS valuable.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use c2_bound::dse::{chip_config_for, DesignPoint};
use c2_bound::PhasePlan;
use c2_sim::area::{AreaModel, SiliconBudget};
use c2_sim::{ChipConfig, Simulator};
use c2_trace::synthetic::{RandomGenerator, StridedGenerator, TraceGenerator};
use c2_trace::{PhaseConfig, Trace, TraceBuilder};
use c2_workloads::fft::Fft;
use c2_workloads::stencil::Stencil2D;
use c2_workloads::tmm::TiledMatMul;
use c2_workloads::{Workload, WorkloadTrace};

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.sample_size(10);

    let stream = StridedGenerator::new(0, 64, 5_000).generate();
    group.bench_function("stream_5k_single_core", |b| {
        b.iter(|| {
            Simulator::new(ChipConfig::default_single_core())
                .run(std::slice::from_ref(black_box(&stream)))
                .unwrap()
        })
    });

    let random = RandomGenerator::new(0, 4 << 20, 5_000, 1).generate();
    group.bench_function("random_4mib_5k_single_core", |b| {
        b.iter(|| {
            Simulator::new(ChipConfig::default_single_core())
                .run(std::slice::from_ref(black_box(&random)))
                .unwrap()
        })
    });

    let per_core: Vec<Trace> = (0..4)
        .map(|i| RandomGenerator::new(i << 22, 1 << 20, 2_000, i).generate())
        .collect();
    group.bench_function("random_4core_shared_l2", |b| {
        b.iter(|| {
            Simulator::new(ChipConfig::default_multi_core(4))
                .run(black_box(&per_core))
                .unwrap()
        })
    });

    // One run of the `sim_wide` benchmark's chosen point: fluidanimate
    // 100 over 512 cores that each fill a few of their cache sets.
    let point = DesignPoint {
        a0: 0.5,
        a1: 0.05,
        a2: 0.1,
        n: 512,
        issue_width: 6,
        rob_size: 256,
    };
    let budget = SiliconBudget::new(400.0, 40.0).unwrap();
    let wide = chip_config_for(&point, &AreaModel::default(), &budget).unwrap();
    let spec = c2_config::WorkloadSpec {
        name: "fluidanimate".to_string(),
        size: 100,
    };
    let fluid = c2_workloads::workload_from_spec(&spec)
        .unwrap()
        .generate()
        .per_core_traces(point.n);
    group.bench_function("fluidanimate_100_512_cores", |b| {
        b.iter(|| Simulator::new(wide.clone()).run(black_box(&fluid)).unwrap())
    });

    // One window run of the `phase_estimate` benchmark at its chosen
    // point: stencil 64's first representative interval that has a
    // predecessor, behind that warmup interval (2,000 accesses), rebased
    // to start at instruction 0 as the phase plan does, over 512 cores.
    let point = DesignPoint {
        issue_width: 12,
        rob_size: 16,
        ..point
    };
    let narrow = chip_config_for(&point, &AreaModel::default(), &budget).unwrap();
    let spec = c2_config::WorkloadSpec {
        name: "stencil".to_string(),
        size: 64,
    };
    let stencil = c2_workloads::workload_from_spec(&spec).unwrap().generate();
    let phases = PhaseConfig {
        interval_len: 1_000,
        clusters: 4,
        seed: 24_301,
        ..PhaseConfig::default()
    };
    let plan = PhasePlan::detect(&stencil, &phases).unwrap();
    let rep = plan
        .summary()
        .representatives
        .iter()
        .copied()
        .find(|&r| r > 0)
        .expect("a representative with a warmup interval");
    let combined = stencil.combined();
    let accesses = &combined.accesses()[(rep - 1) * 1_000..((rep + 1) * 1_000).min(combined.len())];
    let mut window = TraceBuilder::new();
    let mut cursor = accesses[0].instr;
    for a in accesses {
        window.compute(a.instr - cursor);
        window.access_sized(a.addr, a.size, a.kind);
        cursor = a.instr + 1;
    }
    let window = WorkloadTrace {
        serial: Trace::new(),
        parallel: window.finish(),
    }
    .per_core_traces(point.n);
    group.bench_function("stencil_64_phase_window_512_cores", |b| {
        b.iter(|| {
            Simulator::new(narrow.clone())
                .run(black_box(&window))
                .unwrap()
        })
    });

    // The set-up layer every DSE pays first: one characterization, a
    // one-core run of the whole workload, of the `phase_estimate` and
    // `sim_wide` benchmarks' workloads.
    let chip = ChipConfig::default_single_core();
    for (name, size) in [("stencil", 64), ("fluidanimate", 100)] {
        let spec = c2_config::WorkloadSpec {
            name: name.to_string(),
            size,
        };
        let trace = c2_workloads::workload_from_spec(&spec).unwrap().generate();
        group.bench_function(&format!("characterize_{name}_{size}"), |b| {
            b.iter(|| c2_workloads::characterize(black_box(&trace), black_box(&chip)).unwrap())
        });
    }
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("workloads");
    group.sample_size(10);
    group.bench_function("tmm_32_traced", |b| {
        b.iter(|| TiledMatMul::new(32, 8, 1).run())
    });
    group.bench_function("fft_1024_traced", |b| b.iter(|| Fft::new(1024, 1).run()));
    group.bench_function("stencil_64x64x2_traced", |b| {
        b.iter(|| Stencil2D::new(64, 64, 2, 1).run())
    });
    group.finish();
}

fn bench_characterization(c: &mut Criterion) {
    let mut group = c.benchmark_group("characterize");
    group.sample_size(10);
    let w = TiledMatMul::new(24, 4, 2).generate();
    let chip = ChipConfig::default_single_core();
    group.bench_function("tmm24_full_pipeline", |b| {
        b.iter(|| c2_workloads::characterize(black_box(&w), black_box(&chip)).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulator,
    bench_kernels,
    bench_characterization
);
criterion_main!(benches);
