//! Property tests for the scenario layer's core contract:
//! `parse(render(s)) == s` for arbitrary valid scenarios, in both the
//! compact and the pretty rendering, with a fingerprint that survives
//! the round trip.

use c2_config::{
    AreaSpec, BackendKind, BackendSpec, BackoffSpec, BreakerSpec, BudgetSpec, CacheSpec, CamatSpec,
    ChaosSpec, ChipSpec, CoreSpec, DramSpec, EvalCacheSpec, GpuSpec, LawKind, MemoryWallSpec,
    ModelSpec, NocSpec, ObsSpec, OracleMode, OracleSpec, PhaseSpec, RunnerSpec, Scenario,
    ScreenSpec, ServeSpec, SolverSpec, SpaceSpec, SpeedupSpec, UslSpec, WorkloadSpec,
};
use proptest::prelude::*;

fn workloads() -> impl Strategy<Value = WorkloadSpec> {
    ((0usize..5), (1u64..4096)).prop_map(|(i, size)| WorkloadSpec {
        name: ["tmm", "spmv", "stencil", "fft", "fluidanimate"][i].to_string(),
        size,
    })
}

fn camats() -> impl Strategy<Value = Option<CamatSpec>> {
    prop::option::of((
        0.5f64..8.0,
        1.0f64..8.0,
        0.0f64..1.0,
        0.0f64..200.0,
        1.0f64..16.0,
    ))
    .prop_map(|opt| {
        opt.map(|(h, ch, pmr, pamp, cm)| CamatSpec {
            hit_time: h,
            hit_concurrency: ch,
            pure_miss_rate: pmr,
            pure_avg_miss_penalty: pamp,
            pure_miss_concurrency: cm,
        })
    })
}

fn models() -> impl Strategy<Value = ModelSpec> {
    (
        (0.05f64..2.0, 0.05f64..2.0, 10.0f64..500.0, 0.0f64..0.99),
        prop::option::of(0.0f64..2.0),
        camats(),
    )
        .prop_map(|((l1a, l2a, dram, cap), g, camat)| ModelSpec {
            l1_alpha: l1a,
            l2_alpha: l2a,
            dram_latency: dram,
            overlap_cap: cap,
            g_exponent: g,
            camat,
        })
}

fn f64_axes() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..64.0, 1..6)
}

fn u64_axes() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..512, 1..6)
}

fn spaces() -> impl Strategy<Value = SpaceSpec> {
    (
        f64_axes(),
        f64_axes(),
        f64_axes(),
        u64_axes(),
        u64_axes(),
        u64_axes(),
    )
        .prop_map(|(a0, a1, a2, n, issue, rob)| SpaceSpec {
            a0,
            a1,
            a2,
            n,
            issue,
            rob,
        })
}

fn budgets() -> impl Strategy<Value = BudgetSpec> {
    (10.0f64..1000.0, 0.0f64..0.9).prop_map(|(total, frac)| BudgetSpec {
        total_area_mm2: total,
        shared_area_mm2: total * frac,
    })
}

fn solvers() -> impl Strategy<Value = SolverSpec> {
    ((1e-12f64..1e-4, 1u64..500), (1e-14f64..1e-6, 1u64..8000)).prop_map(
        |((ntol, nit), (mtol, mit))| SolverSpec {
            newton_tol: ntol,
            newton_max_iters: nit,
            nelder_tol: mtol,
            nelder_max_iters: mit,
        },
    )
}

/// Any bool, as the shim has no `any::<bool>()`.
fn flags() -> impl Strategy<Value = bool> {
    (0u64..2).prop_map(|b| b == 1)
}

fn caches() -> impl Strategy<Value = CacheSpec> {
    (
        (1u64..1 << 24, 1u64..256, 1u64..32),
        (1u64..20, 1u64..32, 1u64..8, 1u64..16),
        flags(),
    )
        .prop_map(
            |((size, line, assoc), (hit, mshr, ports, banks), prefetch)| CacheSpec {
                size_bytes: size,
                line_size: line,
                associativity: assoc,
                hit_latency: hit,
                mshr_entries: mshr,
                ports,
                banks,
                next_line_prefetch: prefetch,
            },
        )
}

fn chips() -> impl Strategy<Value = ChipSpec> {
    (
        (1u64..1024, 1u64..1 << 40),
        (1u64..16, 1u64..512, 1u64..8),
        caches(),
        caches(),
        (
            1u64..32,
            1u64..1 << 16,
            (0u64..64, 0u64..64, 0u64..64),
            0u64..32,
            1u64..128,
        ),
        (0u64..32, 0u64..32),
    )
        .prop_map(|((cores, max_cycles), core, l1, l2, dram, noc)| ChipSpec {
            cores,
            core: CoreSpec {
                issue_width: core.0,
                rob_size: core.1,
                exec_latency: core.2,
            },
            l1,
            l2,
            dram: DramSpec {
                banks: dram.0,
                row_size: dram.1,
                t_rcd: dram.2 .0,
                t_cas: dram.2 .1,
                t_rp: dram.2 .2,
                t_bus: dram.3,
                queue_depth: dram.4,
            },
            noc: NocSpec {
                l1_l2_latency: noc.0,
                l2_mem_latency: noc.1,
            },
            max_cycles,
        })
}

fn areas() -> impl Strategy<Value = AreaSpec> {
    (0.01f64..8.0, 0.01f64..1.0, 0.1f64..64.0, 1.0f64..1e7).prop_map(|(k0, phi0, core, density)| {
        AreaSpec {
            pollack_k0: k0,
            pollack_phi0: phi0,
            reference_core_area: core,
            cache_bytes_per_mm2: density,
        }
    })
}

/// The oracle, backend and screening sections together: the phase
/// oracle is never paired with the GPU-SM backend or with screening.
fn pricing() -> impl Strategy<Value = (OracleSpec, BackendSpec, ScreenSpec)> {
    (
        (flags(), 1u64..1_000_000, 1u64..1024, 0u64..1 << 40),
        (
            flags(),
            (1.0f64..1e12, 0.0f64..1.0, 1u64..64),
            (0.01f64..4.0, 1.0f64..4096.0),
        ),
        (1u64..64, 1u64..64),
        (flags(), 0u64..1 << 40, (1u64..32, 1u64..16, 0u64..64)),
        (2u64..8, 1u64..64, 1u64..500, 0.0f64..1.0),
    )
        .prop_map(
            |((phase, interval_len, clusters, seed), (gpu, g, (bytes, bw)), warps, sc, net)| {
                let oracle = OracleSpec {
                    mode: if phase {
                        OracleMode::Phase
                    } else {
                        OracleMode::Full
                    },
                    phase: PhaseSpec {
                        interval_len,
                        clusters,
                        seed,
                    },
                };
                let backend = BackendSpec {
                    kind: if gpu && !phase {
                        BackendKind::GpuSm
                    } else {
                        BackendKind::CpuCmp
                    },
                    gpu: GpuSpec {
                        work_flops: g.0,
                        m_fma: g.1,
                        warp_lanes: g.2,
                        mem_bytes_per_flop: bytes,
                        mem_bandwidth: bw,
                        resident_warps: warps.0,
                        max_warps: warps.1,
                    },
                };
                let (enabled, seed, (initial, batch, extra)) = sc;
                let screen = ScreenSpec {
                    enabled: enabled && !phase,
                    seed,
                    initial,
                    batch,
                    budget: initial + extra,
                    committee: net.0,
                    hidden: net.1,
                    epochs: net.2,
                    tolerance: net.3,
                };
                (oracle, backend, screen)
            },
        )
}

fn speedups() -> impl Strategy<Value = SpeedupSpec> {
    (
        0usize..4,
        (0.0f64..1.0, 1.0f64..1024.0),
        (prop::option::of(0.0f64..1.0), 0.0f64..1.0),
    )
        .prop_map(|(law, (beta, n_sat), (sigma, kappa))| SpeedupSpec {
            law: [
                LawKind::SunNi,
                LawKind::Amdahl,
                LawKind::MemoryWall,
                LawKind::Usl,
            ][law],
            memory_wall: MemoryWallSpec { beta, n_sat },
            usl: UslSpec { sigma, kappa },
        })
}

fn backoffs() -> impl Strategy<Value = BackoffSpec> {
    (1u64..5_000, 1.0f64..4.0, 0u64..10_000, 0.0f64..1.0).prop_map(
        |(base_ms, factor, extra, jitter_frac)| BackoffSpec {
            base_ms,
            factor,
            cap_ms: base_ms + extra,
            jitter_frac,
        },
    )
}

fn breakers() -> impl Strategy<Value = BreakerSpec> {
    (1u64..10, 0u64..10, 1u64..5).prop_map(|(trip_threshold, cooldown, probes)| BreakerSpec {
        trip_threshold,
        cooldown,
        probes,
    })
}

fn runners() -> impl Strategy<Value = RunnerSpec> {
    (
        (1u64..8, 0u64..100_000, 1u64..20, 1u64..6, 1u64..128),
        backoffs(),
        breakers(),
        flags(),
        (0u64..9, flags()),
        (0usize..3, 0u64..200, flags(), 1u64..10),
    )
        .prop_map(
            |(
                (workers, deadline, tick, attempts, cap),
                backoff,
                breaker,
                analytic_fallback,
                (threads, cached),
                (sync_idx, ckpt, chaos_on, chaos_val),
            )| {
                RunnerSpec {
                    workers,
                    threads,
                    deadline_ms: deadline,
                    watchdog_tick_ms: tick,
                    max_attempts: attempts,
                    queue_capacity: cap,
                    backoff,
                    breaker,
                    cache: EvalCacheSpec {
                        enabled: cached,
                        path: cached.then(|| "eval-cache.jsonl".to_string()),
                    },
                    analytic_fallback,
                    sync: ["never", "on-checkpoint", "always"][sync_idx].to_string(),
                    checkpoint_every: ckpt,
                    chaos: chaos_on.then_some(ChaosSpec {
                        crash_at_write: Some(chaos_val),
                        torn_bytes: Some(chaos_val / 2),
                        enospc_at_write: None,
                        short_write_at: None,
                        seed: chaos_val,
                    }),
                }
            },
        )
}

fn serves() -> impl Strategy<Value = ServeSpec> {
    (
        (1u64..256, 1u64..16, 1u64..16),
        (1u64..60_000, 1u64..1 << 30),
        breakers(),
        backoffs(),
    )
        .prop_map(
            |((queue_depth, per_client_budget, executors), (read, body), breaker, backoff)| {
                ServeSpec {
                    queue_depth,
                    per_client_budget,
                    executors,
                    read_timeout_ms: read,
                    max_body_bytes: body,
                    breaker,
                    shed_backoff: backoff,
                }
            },
        )
}

fn observability() -> impl Strategy<Value = ObsSpec> {
    let paths = || prop::option::of((0usize..3).prop_map(|i| ["m.json", "out/r.json", "x"][i]));
    (paths(), paths()).prop_map(|(metrics, roofline)| ObsSpec {
        metrics_out: metrics.map(str::to_string),
        roofline_out: roofline.map(str::to_string),
    })
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (
        (workloads(), models(), chips(), spaces(), budgets(), areas()),
        (solvers(), pricing(), speedups(), runners(), serves()),
        observability(),
    )
        .prop_map(
            |(
                (workload, model, chip, space, budget, area),
                (solver, (oracle, backend, screen), speedup, runner, serve),
                observability,
            )| Scenario {
                version: 1,
                workload,
                model,
                chip,
                space,
                budget,
                area,
                solver,
                oracle,
                backend,
                speedup,
                screen,
                runner,
                serve,
                observability,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The compact canonical rendering parses back to the same value.
    #[test]
    fn compact_render_round_trips(s in scenarios()) {
        s.validate().expect("strategy yields valid scenarios");
        let parsed = Scenario::from_json(&s.render()).expect("canonical render must parse");
        prop_assert_eq!(&parsed, &s);
        prop_assert_eq!(parsed.fingerprint(), s.fingerprint());
    }

    /// The pretty rendering is semantically identical to the compact
    /// one: same parsed value, same fingerprint.
    #[test]
    fn pretty_render_round_trips(s in scenarios()) {
        let parsed = Scenario::from_json(&s.render_pretty()).expect("pretty render must parse");
        prop_assert_eq!(&parsed, &s);
        prop_assert_eq!(parsed.fingerprint(), s.fingerprint());
    }

    /// Rendering is a fixed point: parse → render reproduces the bytes.
    #[test]
    fn render_is_a_fixed_point(s in scenarios()) {
        let text = s.render();
        let reparsed = Scenario::from_json(&text).expect("canonical render must parse");
        prop_assert_eq!(reparsed.render(), text);
    }
}

/// One seeded mutation of document `a`: `kind` 0 truncates it, 1 flips
/// the `flips` bits, 2 splices `a`'s head onto `b`'s tail, and 3 plants
/// one oversized field after the first `{` (a 256 KiB string, or nesting
/// far past the parser's cap). `at` places the cut or picks the field.
fn mutate(a: &str, b: &str, kind: u8, at: f64, flips: &[(f64, u8)]) -> Vec<u8> {
    let cut = |s: &str| (at * s.len() as f64) as usize;
    let mut bytes = a.as_bytes().to_vec();
    match kind {
        0 => bytes.truncate(cut(a)),
        1 => {
            for &(pos, bit) in flips {
                let i = ((pos * bytes.len() as f64) as usize).min(bytes.len() - 1);
                bytes[i] ^= 1 << bit;
            }
        }
        2 => {
            bytes.truncate(cut(a));
            bytes.extend_from_slice(&b.as_bytes()[cut(b)..]);
        }
        _ => {
            let field = if at < 0.5 {
                format!("\"pad\":\"{}\",", "x".repeat(256 << 10))
            } else {
                format!("\"pad\":{}0{},", "[".repeat(100_000), "]".repeat(100_000))
            };
            let i = bytes.iter().position(|&c| c == b'{').map_or(0, |i| i + 1);
            bytes.splice(i..i, field.into_bytes());
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A mutated scenario document reads as a scenario or fails with a
    /// typed error; it never panics or overflows the stack. Truncated
    /// documents and planted fields are always errors.
    #[test]
    fn mutated_documents_are_read_or_rejected_never_panic(
        a in scenarios(),
        b in scenarios(),
        kind in 0u8..4,
        at in 0.0f64..1.0,
        flips in prop::collection::vec((0.0f64..1.0, 0u8..8), 1..8),
    ) {
        let bytes = mutate(&a.render_pretty(), &b.render(), kind, at, &flips);
        let read = Scenario::from_json(&String::from_utf8_lossy(&bytes));
        if kind == 0 || kind == 3 {
            prop_assert!(read.is_err(), "kind {kind} must not read as a scenario");
        }
    }
}
