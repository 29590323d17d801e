//! `c2bound-tool` — the paper's "automatic tool to find an
//! application-specific optimal architecture" (§I contribution 3), as a
//! command-line program. [`USAGE`] is the synopsis of every subcommand.
//!
//! `run` executes one sweep through [`c2bound::pipeline`]: the
//! workload → characterize → sweep → oracle → engine → Roofline
//! pipeline on the supervised job engine (`c2-runner`), with
//! per-attempt deadlines, retry with backoff, circuit breaking, and —
//! with `--journal` — a checkpoint file that `--resume` picks up
//! idempotently after a crash. `--metrics-out` records a clock-free
//! observability report (DESIGN.md §7); `obs-report` pretty-prints or
//! re-exports such a report.
//!
//! The sweep comes from a declarative scenario file (`run --scenario`,
//! DESIGN.md §8) or from the positional form, which is the built-in
//! defaults over the tiny sweep space and writes fingerprint-free
//! journals. Flags that change what is computed (`--oracle-mode`,
//! `--backend`, `--law`, `--screen`) and `--roofline-out` patch the
//! scenario before its one validation; runner flags patch the engine
//! configuration instead, so they never move the scenario fingerprint
//! that journal headers and cache addresses bind. On the positional
//! form, cache entries are keyed by the fingerprint of the assembled
//! scenario, so a shared cache file can never serve one workload's or
//! size's results to another.
//!
//! `--oracle-mode phase` prices each point with the phase-clustered
//! estimator (DESIGN.md §13); `--backend gpu-sm` swaps in the GPU
//! streaming-multiprocessor backend (DESIGN.md §14); `--law` picks the
//! scalability law and `--screen` enables surrogate screening
//! (DESIGN.md §15). `roofline` renders a `--roofline-out` report as an
//! ASCII log-log chart plus a per-candidate table.
//!
//! Durability knobs: `--sync never|on-checkpoint|always` picks the
//! fsync policy, `--checkpoint-every N` the journal checkpoint cadence
//! (0 disables), and `--chaos "crash-at=7,torn=3"` arms deterministic
//! storage fault injection (keys: `crash-at`, `torn`, `enospc-at`,
//! `short-at`, `seed`; write indices are 1-based) — the crash-matrix
//! harness in a flag, for rehearsing crash/resume in the field.
//! `journal compact` repairs and shrinks an interrupted journal in
//! place (torn tail, duplicate records, stale checkpoints).
//!
//! `serve` turns the same engine into a supervised multi-tenant
//! daemon (DESIGN.md §12): a hand-rolled HTTP/1.1 listener with
//! per-tenant admission breakers, bounded-queue load shedding with
//! deterministic `Retry-After`, durable per-job artifacts, and
//! graceful drain on SIGTERM or `/shutdown`. `submit`, `status`, and
//! `shutdown` are the matching clients. Every admitted job calls the
//! same pipeline function as one-shot `run --scenario`, so its journal
//! and metrics are byte-identical to the command-line run.
//!
//! Everything is computed live: `characterize` and `aps` run the
//! cycle-level simulator; `optimize` solves Eq. 13.

use c2_bound::dse::{simulate_point, DesignPoint};
use c2_bound::optimize::optimize;
use c2_bound::report::{fmt_num, Table};
use c2_bound::scaling::ScalingStudy;
use c2_bound::{C2BoundModel, ProgramProfile};
use c2_config::{BackendKind, BackendSpec, LawKind, OracleMode, Scenario, SpaceSpec};
use c2_sim::area::SiliconBudget;
use c2_sim::ChipConfig;
use c2_speedup::scale::ScaleFunction;
use c2_workloads::{characterize, Characterization, Workload, WorkloadTrace};
use c2bound::pipeline;

/// The usage text, verbatim. A golden test pins it so the help a user
/// actually sees is reviewed like any other interface change.
const USAGE: &str = "usage:\n  c2bound-tool characterize <tmm|spmv|stencil|fft|fluidanimate> [size]\n  \
     c2bound-tool optimize [f_seq] [f_mem] [g_exponent] [total_area] [shared_area]\n  \
     c2bound-tool aps <workload> [size]\n  c2bound-tool scaling [f_mem]\n  \
     c2bound-tool table1\n  c2bound-tool trace <workload> [size]\n  \
     c2bound-tool characterize-file <path>\n  c2bound-tool multiobjective [weight]\n  \
     c2bound-tool adaptive\n  \
     c2bound-tool run (<workload> [size] | --scenario FILE) [--workers N] [--threads N] \
     [--deadline-ms D] [--max-attempts K] [--journal PATH] [--resume] [--cache PATH] \
     [--metrics-out PATH] [--sync never|on-checkpoint|always] [--checkpoint-every N] \
     [--chaos crash-at=N,torn=K,enospc-at=N,short-at=N,seed=S] [--oracle-mode full|phase] \
     [--backend cpu-cmp|gpu-sm] [--law sun-ni|amdahl|memory-wall|usl] [--screen] \
     [--roofline-out PATH]\n  \
     c2bound-tool serve [--addr HOST:PORT] [--dir PATH] [--scenario FILE] [--cache PATH] \
     [--resume] [--drain-on-idle] [--executors N] [--queue-depth N] [--budget N]\n  \
     c2bound-tool submit --addr HOST:PORT --scenario FILE [--tenant NAME] [--wait] [--poll-ms N]\n  \
     c2bound-tool status --addr HOST:PORT [JOB]\n  \
     c2bound-tool shutdown --addr HOST:PORT [--wait]\n  \
     c2bound-tool journal compact <PATH>\n  \
     c2bound-tool scenario init [--backend cpu-cmp|gpu-sm] [--law sun-ni|amdahl|memory-wall|usl] \
     [PATH] | validate <PATH> | show <PATH>\n  \
     c2bound-tool roofline <FILE>\n  \
     c2bound-tool obs-report <metrics.json> [--prom|--json]";

/// The scalability-law spellings `--law` accepts.
const LAWS: &str = "sun-ni|amdahl|memory-wall|usl";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// One `error:` line on stderr, then exit with `code`: 2 for usage and
/// validation errors, 1 for everything else.
fn die(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code);
}

/// Exit on a pipeline error: 2 for a scenario the pipeline cannot
/// assemble (nothing was written yet), 1 for a failed run.
fn die_pipeline(e: pipeline::Error) -> ! {
    let code = if matches!(e, pipeline::Error::Run(_)) {
        1
    } else {
        2
    };
    die(code, e)
}

/// Parse a value that is actually present on the command line. A
/// malformed value is a one-line error and a nonzero exit — never a
/// silently substituted default.
fn parse_arg<T: std::str::FromStr>(raw: &str, name: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| die(2, format!("invalid {name}: {raw:?}")))
}

/// Positional argument `i`: absent means `default`; present but
/// unparsable is an error (see `parse_arg`).
fn parse_or<T: std::str::FromStr>(args: &[String], i: usize, name: &str, default: T) -> T {
    match args.get(i) {
        None => default,
        Some(raw) => parse_arg(raw, name),
    }
}

fn workload_by_name(name: &str, size: u64) -> Option<Box<dyn Workload>> {
    c2_workloads::workload_from_spec(&c2_config::WorkloadSpec {
        name: name.to_string(),
        size,
    })
}

fn characterize_workload(w: &dyn Workload) -> (WorkloadTrace, Characterization, ChipConfig) {
    let chip = ChipConfig::default_single_core();
    let trace = w.generate();
    let ch = characterize(&trace, &chip).expect("characterization failed");
    (trace, ch, chip)
}

/// The positional `run`/`aps` form: the default scenario with only the
/// workload and the fast tiny space overridden — the same pipeline as
/// `run --scenario`, same constants, no drift. Callers validate it
/// after their overrides, so `run stencil 0` dies with a typed error
/// before the engine can publish an empty journal or cache.
fn positional_scenario(name: &str, size: u64) -> Scenario {
    let mut sc = Scenario::default();
    sc.workload.name = name.to_string();
    sc.workload.size = size;
    sc.space = SpaceSpec::tiny();
    sc
}

/// Read, parse, and validate a scenario file, or exit with a one-line
/// typed error.
fn load_scenario(path: &str) -> Scenario {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(1, format!("cannot read {path}: {e}")));
    Scenario::from_json(&text).unwrap_or_else(|e| die(1, format!("{path}: {e}")))
}

fn cmd_characterize(args: &[String]) {
    let name = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let size = parse_or(args, 1, "size", 32u64);
    let Some(w) = workload_by_name(name, size) else {
        usage()
    };
    let (trace, ch, _) = characterize_workload(w.as_ref());
    let mut t = Table::new(vec!["parameter", "value"]);
    t.row(vec!["workload".to_string(), w.name().to_string()]);
    t.row(vec![
        "instructions".to_string(),
        ch.instruction_count.to_string(),
    ]);
    t.row(vec![
        "accesses".to_string(),
        trace.combined().len().to_string(),
    ]);
    t.row(vec!["f_mem".to_string(), fmt_num(ch.f_mem)]);
    t.row(vec!["f_seq".to_string(), fmt_num(ch.f_seq)]);
    t.row(vec!["L1 miss rate".to_string(), fmt_num(ch.l1_miss_rate)]);
    t.row(vec!["L2 miss rate".to_string(), fmt_num(ch.l2_miss_rate)]);
    t.row(vec!["C-AMAT".to_string(), fmt_num(ch.camat_value())]);
    t.row(vec![
        "C = AMAT/C-AMAT".to_string(),
        fmt_num(ch.concurrency()),
    ]);
    t.row(vec![
        "footprint (bytes)".to_string(),
        ch.footprint_bytes.to_string(),
    ]);
    t.row(vec!["IPC".to_string(), fmt_num(ch.ipc)]);
    let g = w
        .complexity()
        .scale_function()
        .map(|g| g.label())
        .unwrap_or_else(|| "derived numerically".to_string());
    t.row(vec!["g(N)".to_string(), g]);
    println!("{}", t.render());
}

fn cmd_optimize(args: &[String]) {
    let f_seq = parse_or(args, 0, "f_seq", 0.05f64);
    let f_mem = parse_or(args, 1, "f_mem", 0.3f64);
    let g_exp = parse_or(args, 2, "g_exponent", 1.5f64);
    let area = parse_or(args, 3, "total_area", 400.0f64);
    let shared = parse_or(args, 4, "shared_area", 40.0f64);
    let mut model = C2BoundModel::example_big_data();
    model.program =
        ProgramProfile::new(1e9, f_seq, f_mem, 0.1, ScaleFunction::Power(g_exp)).expect("profile");
    model.budget = SiliconBudget::new(area, shared).expect("budget");
    let d = optimize(&model).expect("optimization");
    println!(
        "case: {:?} (g(N) {} O(N))",
        d.case,
        if model.program.g.is_at_least_linear() {
            ">="
        } else {
            "<"
        }
    );
    let mut t = Table::new(vec!["variable", "value"]);
    t.row(vec!["N (cores)".to_string(), fmt_num(d.vars.n)]);
    t.row(vec!["A0 core area (mm2)".to_string(), fmt_num(d.vars.a0)]);
    t.row(vec!["A1 L1 area (mm2)".to_string(), fmt_num(d.vars.a1)]);
    t.row(vec!["A2 L2 area (mm2)".to_string(), fmt_num(d.vars.a2)]);
    t.row(vec!["CPI (cycles/instr)".to_string(), fmt_num(d.cpi)]);
    t.row(vec!["concurrency C".to_string(), fmt_num(d.concurrency)]);
    t.row(vec![
        "execution time (cycles)".to_string(),
        fmt_num(d.execution_time),
    ]);
    t.row(vec!["throughput W/T".to_string(), fmt_num(d.throughput)]);
    println!("{}", t.render());
}

fn cmd_aps(args: &[String]) {
    let name = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let size = parse_or(args, 1, "size", 24u64);
    let sc = positional_scenario(name, size);
    sc.validate().unwrap_or_else(|e| die(2, e));
    let pipeline::CpuSetup { trace, aps } =
        pipeline::cpu_setup(&sc).unwrap_or_else(|e| die_pipeline(e));
    let area = aps.model.area;
    let budget = aps.model.budget;
    println!(
        "APS over a {}-point space; refining {} microarchitecture points with real simulations...",
        aps.space.size(),
        aps.space.issue().len() * aps.space.rob().len()
    );
    let outcome = aps
        .run(|p: &DesignPoint| {
            simulate_point(p, &trace, &area, &budget)
                .map_err(|e| c2_bound::Error::Simulation(e.to_string()))
        })
        .unwrap_or_else(|e| die(1, e));
    println!("{}", chosen_line(BackendKind::CpuCmp, &outcome.chosen));
    println!(
        "simulations used: {}; best simulated time: {} cycles; calibrated model error: {}%",
        outcome.simulations,
        fmt_num(outcome.best_time),
        fmt_num(100.0 * outcome.prediction_error)
    );
    let log = &outcome.refinement;
    println!(
        "refinement: {}/{} points simulated ({} retried, {} skipped, {} oracle calls, degradation: {:?})",
        log.succeeded,
        log.attempted,
        log.retried,
        log.skipped.len(),
        log.oracle_calls,
        log.degradation
    );
}

/// The `chosen:` report line, in the backend's axis vocabulary
/// (DESIGN.md §14 reinterprets the axes for gpu-sm).
fn chosen_line(kind: BackendKind, p: &DesignPoint) -> String {
    match kind {
        BackendKind::CpuCmp => format!(
            "chosen: N = {}, A0 = {} mm2, L1 = {} mm2, L2 = {} mm2, issue = {}, ROB = {}",
            p.n,
            fmt_num(p.a0),
            fmt_num(p.a1),
            fmt_num(p.a2),
            p.issue_width,
            p.rob_size
        ),
        BackendKind::GpuSm => format!(
            "chosen: SMs = {}, FP32 lanes/SM = {}, occupancy target = {}%, \
             SM area = {} mm2 (L1 {} / L2 {})",
            p.n,
            p.issue_width,
            p.rob_size,
            fmt_num(p.a0),
            fmt_num(p.a1),
            fmt_num(p.a2)
        ),
    }
}

/// Parse an enumerated flag value, or exit 2 naming the accepted
/// spellings.
fn parse_choice<T>(flag: &str, raw: &str, parse: fn(&str) -> Option<T>, choices: &str) -> T {
    parse(raw).unwrap_or_else(|| die(2, format!("invalid {flag} {raw:?} ({choices})")))
}

/// Parse `--chaos "crash-at=7,torn=3,seed=42"` into a fault plan.
/// Keys mirror the scenario's `runner.chaos` section; write indices
/// are 1-based (the plan itself rejects 0).
fn parse_chaos(raw: &str) -> c2_runner::ChaosPlan {
    let mut plan = c2_runner::ChaosPlan::default();
    for part in raw.split(',').filter(|p| !p.is_empty()) {
        let Some((key, value)) = part.split_once('=') else {
            die(
                2,
                format!("invalid --chaos item {part:?} (expected key=value)"),
            )
        };
        let n: u64 = parse_arg(value, "--chaos value");
        match key {
            "crash-at" => plan.crash_at_write = Some(n),
            "torn" => plan.torn_bytes = Some(n),
            "enospc-at" => plan.enospc_at_write = Some(n),
            "short-at" => plan.short_write_at = Some(n),
            "seed" => plan.seed = n,
            _ => die(
                2,
                format!("unknown --chaos key {key:?} (crash-at|torn|enospc-at|short-at|seed)"),
            ),
        }
    }
    if plan.is_none() {
        die(2, "--chaos injects nothing; give at least one fault");
    }
    plan
}

/// `run`: one sweep through [`pipeline::execute`], with an optional
/// checkpoint journal and idempotent resume. The sweep comes from a
/// scenario file or the positional form. Flags that change what is
/// computed patch the scenario before its one validation; runner
/// flags patch the engine configuration (DESIGN.md §8).
fn cmd_run(args: &[String]) {
    let mut scenario_path: Option<String> = None;
    let mut name: Option<String> = None;
    let mut size: Option<u64> = None;
    let mut workers: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut cache: Option<std::path::PathBuf> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut max_attempts: Option<usize> = None;
    let mut journal: Option<std::path::PathBuf> = None;
    let mut metrics_out: Option<std::path::PathBuf> = None;
    let mut sync: Option<c2_runner::SyncPolicy> = None;
    let mut checkpoint_every: Option<usize> = None;
    let mut chaos: Option<c2_runner::ChaosPlan> = None;
    let mut oracle_mode: Option<OracleMode> = None;
    let mut backend: Option<BackendKind> = None;
    let mut law: Option<LawKind> = None;
    let mut screen = false;
    let mut roofline_out: Option<String> = None;
    let mut resume = false;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut value = || rest.next().map(String::as_str).unwrap_or_else(|| usage());
        match arg.as_str() {
            "--scenario" => scenario_path = Some(value().to_string()),
            "--workers" => workers = Some(parse_arg(value(), "--workers")),
            "--threads" => threads = Some(parse_arg(value(), "--threads")),
            "--cache" => cache = Some(value().into()),
            "--deadline-ms" => deadline_ms = Some(parse_arg(value(), "--deadline-ms")),
            "--max-attempts" => max_attempts = Some(parse_arg(value(), "--max-attempts")),
            "--journal" => journal = Some(value().into()),
            "--metrics-out" => metrics_out = Some(value().into()),
            "--sync" => {
                sync = Some(parse_choice(
                    "--sync",
                    value(),
                    c2_runner::SyncPolicy::parse,
                    "never|on-checkpoint|always",
                ));
            }
            "--checkpoint-every" => {
                checkpoint_every = Some(parse_arg(value(), "--checkpoint-every"));
            }
            "--chaos" => chaos = Some(parse_chaos(value())),
            "--oracle-mode" => {
                oracle_mode = Some(parse_choice(
                    "--oracle-mode",
                    value(),
                    OracleMode::parse,
                    "full|phase",
                ));
            }
            "--backend" => {
                backend = Some(parse_choice(
                    "--backend",
                    value(),
                    BackendKind::parse,
                    "cpu-cmp|gpu-sm",
                ));
            }
            "--law" => law = Some(parse_choice("--law", value(), LawKind::parse, LAWS)),
            "--roofline-out" => roofline_out = Some(value().to_string()),
            "--screen" => screen = true,
            "--resume" => resume = true,
            other if !other.starts_with('-') => {
                if name.is_none() {
                    name = Some(other.to_string());
                } else if size.is_none() {
                    size = Some(parse_arg(other, "size"));
                } else {
                    usage()
                }
            }
            _ => usage(),
        }
    }
    if resume && journal.is_none() {
        die(2, "--resume requires --journal PATH");
    }
    if let Some(path) = journal.as_ref().filter(|p| p.exists() && !resume) {
        die(
            2,
            format!(
                "journal {} already exists; pass --resume to continue it or remove it first",
                path.display()
            ),
        );
    }
    let mut sc = match &scenario_path {
        Some(_) if name.is_some() || size.is_some() => die(
            2,
            "--scenario and a positional workload are mutually exclusive",
        ),
        Some(path) => load_scenario(path),
        None => positional_scenario(
            name.as_deref().unwrap_or_else(|| usage()),
            size.unwrap_or(24),
        ),
    };
    // These land before validation, so a combination the flags
    // assemble is rejected like a stored one, and before the
    // fingerprint, so the journal, the cache identity and the phase
    // memo address bind the mode, backend, law and screening. The
    // Roofline destination is not fingerprinted.
    if let Some(mode) = oracle_mode {
        sc.oracle.mode = mode;
    }
    if let Some(kind) = backend {
        sc.backend.kind = kind;
    }
    if let Some(law) = law {
        sc.speedup.law = law;
    }
    sc.screen.enabled |= screen;
    if roofline_out.is_some() {
        sc.observability.roofline_out = roofline_out;
    }
    sc.validate().unwrap_or_else(|e| die(2, e));
    let fingerprint = sc.fingerprint();
    // Runner flags patch the engine configuration, not `sc.runner`:
    // the runner section is fingerprinted, so patching it would move
    // every journal header and cache address.
    let mut config = c2_runner::RunConfig::from_spec(&sc.runner).unwrap_or_else(|e| die(2, e));
    config.workers = workers.unwrap_or(config.workers);
    config.threads = threads.unwrap_or(config.threads);
    config.cache_path = cache.or(config.cache_path);
    config.deadline_ms = deadline_ms.unwrap_or(config.deadline_ms);
    config.max_attempts = max_attempts.unwrap_or(config.max_attempts);
    config.sync = sync.unwrap_or(config.sync);
    config.checkpoint_every = checkpoint_every.unwrap_or(config.checkpoint_every);
    config.chaos = chaos.or(config.chaos);
    config.validate().unwrap_or_else(|e| die(2, e));
    if scenario_path.is_some() {
        config = config.with_scenario(fingerprint);
    } else {
        // Positional journals stay fingerprint-free for byte
        // compatibility, but cache addresses still bind the assembled
        // scenario, so one cache file shared across positional runs
        // never serves one workload's simulated times to another.
        config.cache_fingerprint = Some(fingerprint);
    }
    let metrics_out = metrics_out.or_else(|| {
        sc.observability
            .metrics_out
            .as_ref()
            .map(std::path::PathBuf::from)
    });
    println!(
        "supervised sweep: {}, {} attempts/job{}{}{}",
        if config.threads > 0 {
            format!("{} sharded threads", config.threads)
        } else {
            format!(
                "{} workers, deadline {} ms",
                config.workers, config.deadline_ms
            )
        },
        config.max_attempts,
        match (&journal, resume) {
            (Some(p), true) => format!(", resuming journal {}", p.display()),
            (Some(p), false) => format!(", journaling to {}", p.display()),
            (None, _) => String::new(),
        },
        match &config.cache_path {
            Some(p) => format!(", cache {}", p.display()),
            None => String::new(),
        },
        if config.chaos.is_some() {
            ", chaos armed"
        } else {
            ""
        }
    );
    let recorder = c2_obs::Recorder::new();
    let run = pipeline::execute(
        &sc,
        config,
        journal.as_deref(),
        resume,
        &recorder,
        &c2_obs::NullSink,
    )
    .unwrap_or_else(|e| die_pipeline(e));
    if let Some(phases) = run.phases {
        println!(
            "oracle: phase mode, {} phases, {:.1}% of the trace per evaluation{}",
            phases.count,
            100.0 * phases.simulated_fraction,
            if phases.exact {
                " (trace too short to cluster; exact fallback)"
            } else {
                ""
            }
        );
    }
    // Screening's operational telemetry (the `SCREEN_*` counters) is
    // deliberately not folded into `--metrics-out`, which golden tests
    // bit-compare; this line is its accounting.
    if let Some(report) = &run.screen {
        println!(
            "screen report: {} true evaluations of {} candidates \
             ({} screened out, {} resumed) in {} rounds; \
             final committee spread {}{}",
            report.true_evaluations,
            report.plan_jobs,
            report.screened_out,
            report.resumed,
            report.rounds,
            fmt_num(report.final_spread),
            if report.converged { " (converged)" } else { "" }
        );
    }
    if let (Some(n), Some(path)) = (run.roofline_points, &sc.observability.roofline_out) {
        println!(
            "roofline: wrote {n} candidate points ({} backend) to {path}",
            sc.backend.kind.as_str()
        );
    }
    if let Some(path) = &metrics_out {
        let report = recorder.report();
        if let Err(e) = std::fs::write(path, report.to_json()) {
            die(
                1,
                format!("cannot write metrics to {}: {e}", path.display()),
            );
        }
        println!(
            "metrics: wrote {} events and the metric registry to {}",
            report.events.len(),
            path.display()
        );
    }
    let r = &run.summary.report;
    println!(
        "run report: {} attempted = {} succeeded + {} skipped + {} backfilled \
         ({} resumed, {} retried, {} oracle calls, {} cache hits, {} timeouts, \
         {} short-circuited, {} quarantined, {} breaker trips)",
        r.attempted,
        r.succeeded,
        r.skipped,
        r.backfilled,
        r.resumed,
        r.retried,
        r.oracle_calls,
        r.cache_hits,
        r.timeouts,
        r.short_circuited,
        r.quarantined,
        r.breaker_trips
    );
    let Some(outcome) = &run.summary.outcome else {
        println!("run did not complete; resume with --journal/--resume");
        return;
    };
    println!("{}", chosen_line(sc.backend.kind, &outcome.chosen));
    println!(
        "best simulated time: {} cycles; calibrated model error: {}%; degradation: {:?}",
        fmt_num(outcome.best_time),
        fmt_num(100.0 * outcome.prediction_error),
        outcome.refinement.degradation
    );
}

/// `journal`: maintain resume journals. `compact` repairs and shrinks
/// an interrupted journal in place — dropping a torn trailing line,
/// duplicate records, and all but the newest checkpoint per shard —
/// and reports what it did. Safe to run any number of times; a
/// compacted journal resumes identically to the original.
fn cmd_journal(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("compact") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let stats =
                c2_runner::journal::compact(std::path::Path::new(path)).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
            println!(
                "compacted {path}: kept {} records and {} checkpoints \
                 (dropped {} duplicate records, {} stale checkpoints{})",
                stats.records,
                stats.checkpoints_kept,
                stats.duplicates_dropped,
                stats.checkpoints_dropped,
                if stats.torn_tail_dropped {
                    ", one torn tail"
                } else {
                    ""
                }
            );
        }
        _ => usage(),
    }
}

/// `scenario`: manage declarative scenario files. `init` emits the
/// canonical defaults, `validate` parses and range-checks a file, and
/// `show` prints the canonical rendering plus the fingerprint that a
/// journaled `run --scenario` binds into its checkpoints.
fn cmd_scenario(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("init") => {
            let mut kind = BackendKind::CpuCmp;
            let mut law: Option<LawKind> = None;
            let mut path: Option<&String> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
                match arg.as_str() {
                    "--backend" => {
                        kind = parse_choice(
                            "--backend",
                            value(),
                            BackendKind::parse,
                            "cpu-cmp|gpu-sm",
                        );
                    }
                    "--law" => law = Some(parse_choice("--law", value(), LawKind::parse, LAWS)),
                    other if !other.starts_with('-') && path.is_none() => path = Some(arg),
                    _ => usage(),
                }
            }
            let mut sc = match kind {
                BackendKind::CpuCmp => Scenario::default(),
                // The gpu-sm starter swaps in the reinterpreted axes
                // (SM count, FP32 lanes/SM, occupancy target) so the
                // emitted document sweeps a meaningful GPU space out
                // of the box.
                BackendKind::GpuSm => Scenario {
                    backend: BackendSpec {
                        kind: BackendKind::GpuSm,
                        ..BackendSpec::default()
                    },
                    space: SpaceSpec::gpu_sm(),
                    ..Scenario::default()
                },
            };
            if let Some(l) = law {
                sc.speedup.law = l;
            }
            match path {
                None => print!("{}", sc.render_pretty()),
                Some(path) => {
                    if let Err(e) = std::fs::write(path, sc.render_pretty()) {
                        eprintln!("error: cannot write {path}: {e}");
                        std::process::exit(1);
                    }
                    println!("wrote {path} (fingerprint {})", sc.fingerprint_hex());
                }
            }
        }
        Some("validate") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let sc = load_scenario(path);
            println!("ok: {path} (fingerprint {})", sc.fingerprint_hex());
        }
        Some("show") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let sc = load_scenario(path);
            print!("{}", sc.render_pretty());
            println!("fingerprint: {}", sc.fingerprint_hex());
        }
        _ => usage(),
    }
}

/// `obs-report`: summarize (or re-export) a metrics report produced by
/// `run --metrics-out`.
fn cmd_obs_report(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let mode = args.get(1).map(String::as_str);
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let report = c2_obs::Report::from_json(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    match mode {
        Some("--prom") => print!("{}", report.to_prometheus()),
        Some("--json") => print!("{}", report.to_json()),
        Some(_) => usage(),
        None => {
            let reg = &report.registry;
            let mut t = Table::new(vec!["metric", "kind", "value"]);
            for (name, value) in reg.counters() {
                t.row(vec![
                    name.to_string(),
                    "counter".to_string(),
                    value.to_string(),
                ]);
            }
            for (name, value) in reg.gauges() {
                t.row(vec![name.to_string(), "gauge".to_string(), fmt_num(value)]);
            }
            for (name, hist) in reg.histograms() {
                t.row(vec![
                    name.to_string(),
                    "histogram".to_string(),
                    format!(
                        "{} observations / {} buckets",
                        hist.count(),
                        hist.counts().len()
                    ),
                ]);
            }
            println!("{}", t.render());
            let mut scopes: std::collections::BTreeMap<&str, u64> =
                std::collections::BTreeMap::new();
            for ev in &report.events {
                *scopes.entry(ev.scope.as_str()).or_insert(0) += 1;
            }
            let by_scope: Vec<String> = scopes
                .iter()
                .map(|(scope, n)| format!("{n} {scope}"))
                .collect();
            println!(
                "trace: {} events ({})",
                report.events.len(),
                by_scope.join(", ")
            );
        }
    }
}

/// One parsed candidate from a roofline report.
struct RooflineRow {
    seq: u64,
    n: u64,
    issue: u64,
    rob: u64,
    oi: f64,
    compute: f64,
    bandwidth: f64,
    bound: f64,
    attained: Option<f64>,
    limiting: String,
}

/// `roofline`: render a `--roofline-out` report as an ASCII log-log
/// chart — attained bound versus operational intensity, every
/// candidate labeled with its limiting ceiling — plus a per-candidate
/// table. Pure presentation: the numbers come verbatim from the file.
#[allow(clippy::too_many_lines)]
fn cmd_roofline(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    if args.len() > 1 {
        usage();
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let doc = c2_config::Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    let get = |obj: &[(String, c2_config::Json)], key: &str| -> c2_config::Json {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| {
                eprintln!("error: {path} is not a roofline report (missing {key:?})");
                std::process::exit(1)
            })
    };
    let Some(top) = doc.as_obj() else {
        eprintln!("error: {path} is not a roofline report (top level is not an object)");
        std::process::exit(1);
    };
    if get(top, "c2roofline").as_u64() != Some(1) {
        eprintln!("error: {path}: unsupported roofline report version");
        std::process::exit(1);
    }
    let backend = get(top, "backend").as_str().unwrap_or("?").to_string();
    let fingerprint = get(top, "fingerprint")
        .as_str()
        .map_or_else(|| "unbound".to_string(), str::to_string);
    let Some(raw_points) = get(top, "points").as_arr().map(<[c2_config::Json]>::to_vec) else {
        eprintln!("error: {path} is not a roofline report (points is not an array)");
        std::process::exit(1);
    };
    let mut rows: Vec<RooflineRow> = Vec::with_capacity(raw_points.len());
    for raw in &raw_points {
        let Some(obj) = raw.as_obj() else {
            eprintln!("error: {path}: a roofline point is not an object");
            std::process::exit(1);
        };
        let point = get(obj, "point");
        let Some(p) = point.as_obj() else {
            eprintln!("error: {path}: a roofline point carries no design point");
            std::process::exit(1);
        };
        rows.push(RooflineRow {
            seq: get(obj, "seq").as_u64().unwrap_or(0),
            n: get(p, "n").as_u64().unwrap_or(0),
            issue: get(p, "issue").as_u64().unwrap_or(0),
            rob: get(p, "rob").as_u64().unwrap_or(0),
            oi: get(obj, "operational_intensity")
                .as_f64()
                .unwrap_or(f64::NAN),
            compute: get(obj, "compute_ceiling").as_f64().unwrap_or(f64::NAN),
            bandwidth: get(obj, "bandwidth_ceiling").as_f64().unwrap_or(f64::NAN),
            bound: get(obj, "bound").as_f64().unwrap_or(f64::NAN),
            attained: get(obj, "attained").as_f64(),
            limiting: get(obj, "limiting").as_str().unwrap_or("?").to_string(),
        });
    }
    let compute_limited = rows.iter().filter(|r| r.limiting == "compute").count();
    println!(
        "roofline: {} backend, {} candidates ({} compute-limited, {} bandwidth-limited), \
         fingerprint {}",
        backend,
        rows.len(),
        compute_limited,
        rows.len() - compute_limited,
        fingerprint
    );
    // The chart plots each candidate's attained bound at its
    // operational intensity on log-log axes: 'C' = the compute ceiling
    // binds, 'B' = the bandwidth roof binds. Non-finite points are
    // listed in the table but cannot be charted.
    let chartable: Vec<&RooflineRow> = rows
        .iter()
        .filter(|r| r.oi.is_finite() && r.oi > 0.0 && r.bound.is_finite() && r.bound > 0.0)
        .collect();
    if chartable.is_empty() {
        println!("(no finite candidates to chart)");
    } else {
        const W: usize = 64;
        const H: usize = 16;
        let span = |lo: f64, hi: f64| -> (f64, f64) {
            // A degenerate axis (every candidate at one OI — common
            // for gpu-sm, whose intensity is a workload constant) gets
            // padded so the lone column sits mid-chart.
            if hi - lo < 1e-9 {
                (lo - 0.602, hi + 0.602)
            } else {
                (lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo))
            }
        };
        let xs: Vec<f64> = chartable.iter().map(|r| r.oi.log10()).collect();
        let ys: Vec<f64> = chartable.iter().map(|r| r.bound.log10()).collect();
        let (x_lo, x_hi) = span(
            xs.iter().copied().fold(f64::INFINITY, f64::min),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        let (y_lo, y_hi) = span(
            ys.iter().copied().fold(f64::INFINITY, f64::min),
            ys.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        let col = |x: f64| (((x - x_lo) / (x_hi - x_lo)) * (W - 1) as f64).round() as usize;
        let row =
            |y: f64| (H - 1) - (((y - y_lo) / (y_hi - y_lo)) * (H - 1) as f64).round() as usize;
        let mut grid = vec![vec![' '; W]; H];
        for r in &chartable {
            let (c, l) = (col(r.oi.log10()), row(r.bound.log10()));
            grid[l][c] = if r.limiting == "compute" { 'C' } else { 'B' };
        }
        for (i, line) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{:.3e}", 10f64.powf(y_hi))
            } else if i == H - 1 {
                format!("{:.3e}", 10f64.powf(y_lo))
            } else {
                String::new()
            };
            println!("{label:>10} |{}", line.iter().collect::<String>());
        }
        println!("{:>10} +{}", "", "-".repeat(W));
        println!(
            "{:>10}  {:<w$}{:>w2$}",
            "OI (F/B):",
            format!("{:.3e}", 10f64.powf(x_lo)),
            format!("{:.3e}", 10f64.powf(x_hi)),
            w = W / 2,
            w2 = W - W / 2
        );
    }
    let mut t = Table::new(vec![
        "seq",
        "n",
        "issue",
        "rob",
        "OI (F/B)",
        "compute",
        "bandwidth",
        "bound",
        "attained",
        "limiting",
    ]);
    for r in &rows {
        t.row(vec![
            r.seq.to_string(),
            r.n.to_string(),
            r.issue.to_string(),
            r.rob.to_string(),
            fmt_num(r.oi),
            fmt_num(r.compute),
            fmt_num(r.bandwidth),
            fmt_num(r.bound),
            r.attained.map_or_else(|| "-".to_string(), fmt_num),
            r.limiting.clone(),
        ]);
    }
    println!("{}", t.render());
}

fn cmd_scaling(args: &[String]) {
    let f_mem = parse_or(args, 0, "f_mem", 0.3f64);
    let study = ScalingStudy::paper_figs_8_to_11(f_mem).expect("study");
    let ns = [1.0, 4.0, 16.0, 64.0, 256.0, 1000.0];
    let mut t = Table::new(vec!["N", "W", "T(C=1)", "T(C=8)", "W/T(C=1)", "W/T(C=8)"]);
    let c1 = study.sweep(&ns, 1.0).expect("sweep");
    let c8 = study.sweep(&ns, 8.0).expect("sweep");
    for i in 0..ns.len() {
        t.row(vec![
            fmt_num(ns[i]),
            fmt_num(c1[i].problem_size),
            fmt_num(c1[i].time),
            fmt_num(c8[i].time),
            fmt_num(c1[i].throughput),
            fmt_num(c8[i].throughput),
        ]);
    }
    println!("{}", t.render());
}

fn cmd_table1() {
    let workloads: Vec<(Box<dyn Workload>, &str)> = vec![
        (
            Box::new(c2_workloads::tmm::TiledMatMul::new(64, 8, 0)),
            "N^{3/2}",
        ),
        (Box::new(c2_workloads::spmv::BandSpmv::new(256, 2, 0)), "N"),
        (
            Box::new(c2_workloads::stencil::Stencil2D::new(32, 32, 2, 0)),
            "N",
        ),
        (Box::new(c2_workloads::fft::Fft::new(1024, 0)), "2N"),
    ];
    let mut t = Table::new(vec!["application", "paper g(N)", "derived g(16)"]);
    for (w, paper) in &workloads {
        let g = w
            .complexity()
            .derive_g(4096.0, 16.0)
            .map(fmt_num)
            .unwrap_or_else(|e| e.to_string());
        t.row(vec![w.name().to_string(), paper.to_string(), g]);
    }
    println!("{}", t.render());
}

fn cmd_trace(args: &[String]) {
    let name = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let size = parse_or(args, 1, "size", 32u64);
    let Some(w) = workload_by_name(name, size) else {
        usage()
    };
    let trace = w.generate().combined();
    let stdout = std::io::stdout();
    // A closed pipe (e.g. `| head`) is a normal way to consume a dump.
    if let Err(e) = c2_trace::io::write_trace(&trace, stdout.lock()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            panic!("write trace: {e}");
        }
    }
}

fn cmd_characterize_file(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let trace = c2_trace::io::read_trace(std::io::BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    let chip = ChipConfig::default_single_core();
    // A raw trace file carries no serial/parallel split; report f_seq = 0
    // and let the user supply it to `optimize` separately.
    let ch = c2_workloads::characterize::characterize_trace(&trace, 0.0, &chip)
        .expect("characterization failed");
    let mut t = Table::new(vec!["parameter", "value"]);
    t.row(vec!["file".to_string(), path.to_string()]);
    t.row(vec![
        "instructions".to_string(),
        ch.instruction_count.to_string(),
    ]);
    t.row(vec!["f_mem".to_string(), fmt_num(ch.f_mem)]);
    t.row(vec!["L1 miss rate".to_string(), fmt_num(ch.l1_miss_rate)]);
    t.row(vec!["C-AMAT".to_string(), fmt_num(ch.camat_value())]);
    t.row(vec!["C".to_string(), fmt_num(ch.concurrency())]);
    t.row(vec!["IPC".to_string(), fmt_num(ch.ipc)]);
    println!("{}", t.render());
}

fn cmd_multiobjective(args: &[String]) {
    use c2_bound::energy::{MultiObjective, PowerModel};
    let weight = parse_or(args, 0, "weight", 0.5f64);
    let mut base = C2BoundModel::example_big_data();
    base.program =
        ProgramProfile::new(1e9, 0.15, 0.3, 0.1, ScaleFunction::Power(0.5)).expect("profile");
    let power = PowerModel::default();
    let clock = 3e9;
    let mo = MultiObjective::new(base.clone(), power, weight, clock).expect("objective");
    let v = mo.optimize().expect("optimize");
    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["performance weight w".to_string(), fmt_num(weight)]);
    t.row(vec!["N (cores)".to_string(), fmt_num(v.n)]);
    t.row(vec![
        "per-core area (mm2)".to_string(),
        fmt_num(v.per_core()),
    ]);
    t.row(vec![
        "time (s)".to_string(),
        fmt_num(base.execution_time(&v) / clock),
    ]);
    t.row(vec![
        "energy (J)".to_string(),
        fmt_num(power.energy(&base, &v, clock)),
    ]);
    t.row(vec![
        "power (W)".to_string(),
        fmt_num(power.average_power(&base, &v)),
    ]);
    t.row(vec![
        "EDP (J*s)".to_string(),
        fmt_num(power.edp(&base, &v, clock)),
    ]);
    println!("{}", t.render());
}

fn cmd_adaptive() {
    use c2_bound::adaptive::AdaptiveDse;
    use c2_trace::synthetic::{
        MixedPhaseGenerator, PointerChaseGenerator, StridedGenerator, TraceGenerator,
    };
    let trace = MixedPhaseGenerator::new(
        vec![
            Box::new(StridedGenerator::new(0, 64, 4000).compute_per_access(6)),
            Box::new(PointerChaseGenerator::new(1 << 30, 1 << 15, 4000, 5).compute_per_access(1)),
        ],
        3,
    )
    .generate();
    let mut template = C2BoundModel::example_big_data();
    template.program =
        ProgramProfile::new(1e9, 0.1, 0.3, 0.1, ScaleFunction::Power(0.5)).expect("profile");
    let mut dse = AdaptiveDse::new(template);
    dse.phase_config = c2_trace::PhaseConfig {
        interval_len: 4000,
        clusters: 2,
        ..c2_trace::PhaseConfig::default()
    };
    let plan = dse.plan(&trace).expect("adaptive plan");
    let mut t = Table::new(vec!["phase", "weight", "f_mem", "C", "N*", "CPI"]);
    for p in &plan.phases {
        t.row(vec![
            p.phase.to_string(),
            fmt_num(p.weight),
            fmt_num(p.f_mem),
            fmt_num(p.concurrency),
            fmt_num(p.design.vars.n),
            fmt_num(p.design.cpi),
        ]);
    }
    println!("{}", t.render());
    println!(
        "transitions: {}; reconfiguration gain: {}%",
        plan.transitions,
        fmt_num(100.0 * plan.improvement())
    );
}

/// `serve`: the supervised DSE-as-a-service daemon (DESIGN.md §12).
/// Policy comes from the `serve` section of `--scenario` (defaults
/// otherwise), with `--executors`/`--queue-depth`/`--budget` as
/// command-line overrides. Prints `serving on <addr>` once the
/// listener is bound, runs until drained (SIGTERM, `/shutdown`, or
/// `--drain-on-idle`), and exits 0 with a drain summary.
fn cmd_serve(args: &[String]) {
    let mut addr = "127.0.0.1:0".to_string();
    let mut dir = std::path::PathBuf::from("serve-jobs");
    let mut scenario_path: Option<String> = None;
    let mut cache: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut drain_on_idle = false;
    let mut executors: Option<usize> = None;
    let mut queue_depth: Option<usize> = None;
    let mut budget: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {name} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--dir" => dir = std::path::PathBuf::from(value("--dir")),
            "--scenario" => scenario_path = Some(value("--scenario")),
            "--cache" => cache = Some(std::path::PathBuf::from(value("--cache"))),
            "--resume" => resume = true,
            "--drain-on-idle" => drain_on_idle = true,
            "--executors" => executors = Some(parse_arg(&value("--executors"), "--executors")),
            "--queue-depth" => {
                queue_depth = Some(parse_arg(&value("--queue-depth"), "--queue-depth"));
            }
            "--budget" => budget = Some(parse_arg(&value("--budget"), "--budget")),
            _ => usage(),
        }
    }
    let spec = match &scenario_path {
        Some(path) => load_scenario(path).serve,
        None => c2_config::ServeSpec::default(),
    };
    let mut policy = c2_runner::ServePolicy::from_spec(&spec).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if let Some(v) = executors {
        policy.executors = v;
    }
    if let Some(v) = queue_depth {
        policy.queue_depth = v;
    }
    if let Some(v) = budget {
        policy.per_client_budget = v;
    }
    if let Err(e) = policy.validate() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let options = c2_runner::ServeOptions {
        addr,
        dir,
        cache_path: cache,
        policy,
        resume,
        drain_on_idle,
        watch_sigterm: true,
    };
    let mut daemon = c2_runner::Daemon::bind(options).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    // Flushed eagerly: scripts parse this line from a pipe to learn
    // the ephemeral port before the daemon blocks in accept.
    println!("serving on {}", daemon.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let report = daemon.run(&pipeline::Executor).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    println!(
        "drained: {} admitted ({} resumed), {} completed, {} failed, {} quarantined, \
         {} shed, {} pending for --resume",
        report.admitted,
        report.resumed,
        report.completed,
        report.failed,
        report.quarantined,
        report.shed,
        report.pending_at_drain
    );
}

/// One HTTP exchange with a serve daemon, or a one-line error exit.
fn daemon_call(
    addr: &str,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    c2_runner::serve::protocol::http_call(addr, method, target, headers, body, 10_000)
        .unwrap_or_else(|e| {
            eprintln!("error: {method} {target} on {addr}: {e}");
            std::process::exit(1);
        })
}

/// `submit`: send a scenario file to a serve daemon. Prints the
/// daemon's JSON response; with `--wait`, polls the job until it
/// reaches a terminal state and exits nonzero unless it completed.
fn cmd_submit(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut scenario_path: Option<String> = None;
    let mut tenant = "anonymous".to_string();
    let mut wait = false;
    let mut poll_ms: u64 = 100;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {name} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--scenario" => scenario_path = Some(value("--scenario")),
            "--tenant" => tenant = value("--tenant"),
            "--wait" => wait = true,
            "--poll-ms" => poll_ms = parse_arg(&value("--poll-ms"), "--poll-ms"),
            _ => usage(),
        }
    }
    let (Some(addr), Some(scenario_path)) = (addr, scenario_path) else {
        eprintln!("error: submit requires --addr and --scenario");
        std::process::exit(2);
    };
    // Sent verbatim: the daemon is the validation authority, so its
    // 422 body reports exactly what a local `scenario validate` would.
    let body = std::fs::read(&scenario_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {scenario_path}: {e}");
        std::process::exit(1);
    });
    let (status, headers, response) = daemon_call(
        &addr,
        "POST",
        "/submit",
        &[("X-Tenant", &tenant), ("Content-Type", "application/json")],
        &body,
    );
    let text = String::from_utf8_lossy(&response);
    if status != 202 {
        let retry = headers
            .iter()
            .find(|(k, _)| k == "retry-after")
            .map(|(_, v)| format!(" (retry after {v} s)"))
            .unwrap_or_default();
        eprintln!(
            "error: submission rejected with {status}{retry}: {}",
            text.trim()
        );
        std::process::exit(1);
    }
    print!("{text}");
    if !wait {
        return;
    }
    let job = c2_config::Json::parse(&text)
        .ok()
        .and_then(|doc| {
            doc.as_obj()
                .and_then(|pairs| pairs.iter().find(|(k, _)| k == "job").cloned())
        })
        .and_then(|(_, v)| v.as_str().map(str::to_string))
        .unwrap_or_else(|| {
            eprintln!("error: daemon's 202 response carried no job id");
            std::process::exit(1);
        });
    loop {
        let (status, _, response) = daemon_call(&addr, "GET", &format!("/status/{job}"), &[], b"");
        if status != 200 {
            eprintln!("error: status poll for {job} returned {status}");
            std::process::exit(1);
        }
        let text = String::from_utf8_lossy(&response);
        let state = c2_config::Json::parse(&text)
            .ok()
            .and_then(|doc| {
                doc.as_obj()
                    .and_then(|pairs| pairs.iter().find(|(k, _)| k == "state").cloned())
            })
            .and_then(|(_, v)| v.as_str().map(str::to_string))
            .unwrap_or_default();
        match state.as_str() {
            "completed" => {
                print!("{text}");
                return;
            }
            "failed" | "quarantined" => {
                eprint!("{text}");
                std::process::exit(1);
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(poll_ms)),
        }
    }
}

/// `status`: print a daemon's job table, or one job's detail.
fn cmd_status(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut job: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                addr = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("error: --addr requires a value");
                    std::process::exit(2);
                }));
            }
            other if !other.starts_with('-') && job.is_none() => job = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: status requires --addr");
        std::process::exit(2);
    };
    let target = match &job {
        Some(id) => format!("/status/{id}"),
        None => "/status".to_string(),
    };
    let (status, _, response) = daemon_call(&addr, "GET", &target, &[], b"");
    print!("{}", String::from_utf8_lossy(&response));
    if status != 200 {
        std::process::exit(1);
    }
}

/// `shutdown`: ask a daemon to drain. With `--wait`, blocks until the
/// daemon's socket stops answering (i.e. the process exited).
fn cmd_shutdown(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut wait = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                addr = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("error: --addr requires a value");
                    std::process::exit(2);
                }));
            }
            "--wait" => wait = true,
            _ => usage(),
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: shutdown requires --addr");
        std::process::exit(2);
    };
    let (status, _, response) = daemon_call(&addr, "POST", "/shutdown", &[], b"");
    print!("{}", String::from_utf8_lossy(&response));
    if status != 200 {
        std::process::exit(1);
    }
    if wait {
        // Poll until the daemon stops answering — i.e. the drain
        // finished and the listener closed.
        while c2_runner::serve::protocol::http_call(&addr, "GET", "/status", &[], b"", 2_000)
            .is_ok()
        {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("characterize") => cmd_characterize(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("characterize-file") => cmd_characterize_file(&args[1..]),
        Some("optimize") => cmd_optimize(&args[1..]),
        Some("aps") => cmd_aps(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some("journal") => cmd_journal(&args[1..]),
        Some("scenario") => cmd_scenario(&args[1..]),
        Some("roofline") => cmd_roofline(&args[1..]),
        Some("obs-report") => cmd_obs_report(&args[1..]),
        Some("scaling") => cmd_scaling(&args[1..]),
        Some("table1") => cmd_table1(),
        Some("multiobjective") => cmd_multiobjective(&args[1..]),
        Some("adaptive") => cmd_adaptive(),
        Some(other) => {
            // An unrecognized subcommand is an explicit error on
            // stderr plus the usage text — never a silent fallthrough.
            eprintln!("error: unknown subcommand {other:?}");
            usage()
        }
        None => usage(),
    }
}
