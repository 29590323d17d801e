//! `c2bound-tool` — the paper's "automatic tool to find an
//! application-specific optimal architecture" (§I contribution 3), as a
//! command-line program. [`USAGE`] is the synopsis of every subcommand.
//!
//! `run` executes one sweep through [`c2bound::pipeline`]: the
//! workload → characterize → sweep → oracle → engine → Roofline
//! pipeline on the supervised job engine (`c2-runner`), with
//! per-attempt deadlines, retry with backoff, circuit breaking, and —
//! with `--journal` — a resume journal that `--resume` picks up
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
//! fsync policy, `--checkpoint-every N` the journal's flush and fsync
//! cadence (each shard appends its records every N records; 0 appends
//! only when a shard finishes), and `--chaos "crash-at=7,torn=3"` arms
//! deterministic storage fault injection (keys: `crash-at`, `torn`,
//! `enospc-at`, `short-at`, `seed`; write indices are 1-based) — the
//! crash-matrix harness in a flag, for rehearsing crash/resume in the
//! field.
//! `journal compact` repairs and shrinks an interrupted journal in
//! place (torn tail, duplicate records, legacy `c2ckpt` lines).
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
//! Everything is computed live: `characterize` runs the cycle-level
//! simulator, `aps` runs the same supervised engine as `run` under the
//! scenario's `runner` defaults, and `optimize` solves Eq. 13.
//!
//! Every subcommand writes to the stdout handle `main` passes it and
//! returns any [`Failure`]; `main` alone reports it and exits (0 on
//! success, 1 for a failed run or I/O error, 2 for a usage or
//! validation error). A closed stdout pipe ends a command quietly.

use std::io::{self, Write};
use std::slice::Iter;
use std::str::FromStr;

use c2_bound::dse::{DesignPoint, DesignSpace};
use c2_bound::optimize::optimize;
use c2_bound::report::{fmt_num, Table};
use c2_bound::scaling::ScalingStudy;
use c2_bound::{C2BoundModel, ProgramProfile};
use c2_config::{BackendKind, BackendSpec, LawKind, OracleMode, Scenario, SpaceSpec};
use c2_runner::SyncPolicy;
use c2_sim::area::SiliconBudget;
use c2_sim::ChipConfig;
use c2_speedup::scale::ScaleFunction;
use c2_workloads::{characterize, Workload};
use c2bound::pipeline;

/// The usage text, verbatim. A golden test pins it so the help a user
/// actually sees is reviewed like any other interface change.
const USAGE: &str = "usage:\n  c2bound-tool characterize <tmm|spmv|stencil|fft|fluidanimate> [size]\n  \
     c2bound-tool optimize [f_seq] [f_mem] [g_exponent] [total_area] [shared_area]\n  \
     c2bound-tool aps <workload> [size]\n  c2bound-tool scaling [f_mem]\n  \
     c2bound-tool table1\n  c2bound-tool trace <workload> [size]\n  \
     c2bound-tool characterize-file <path>\n  c2bound-tool multiobjective [weight]\n  \
     c2bound-tool adaptive\n  \
     c2bound-tool run (<workload> [size] | --scenario FILE) [--threads N] \
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

/// The spellings `--law`, `--backend` and `--sync` accept.
const LAWS: &str = "sun-ni|amdahl|memory-wall|usl";
const BACKENDS: &str = "cpu-cmp|gpu-sm";
const SYNC_POLICIES: &str = "never|on-checkpoint|always";

/// Why a subcommand stopped. `main` is the one place that reports it
/// and exits.
enum Failure {
    /// Print the usage text, exit 2.
    Usage,
    /// Print one `error: {msg}` line and exit with the code: 2 for usage
    /// and validation errors, 1 for everything else.
    Error(i32, String),
    /// Exit with the code; the command already printed why.
    Exit(i32),
}

/// What every subcommand and argument reader returns.
type Result<T = ()> = std::result::Result<T, Failure>;

/// A write to stdout failed. A closed pipe (e.g. `| head`) is a normal
/// way to consume output and ends the command quietly; anything else
/// is exit 1. File reads and writes carry their own messages instead.
impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::BrokenPipe {
            Failure::Exit(0)
        } else {
            failed(format!("cannot write to stdout: {e}"))
        }
    }
}

/// Exit 2 for a scenario the pipeline cannot assemble (nothing was
/// written yet), 1 for a failed run.
impl From<pipeline::Error> for Failure {
    fn from(e: pipeline::Error) -> Self {
        match e {
            pipeline::Error::Run(_) => failed(e),
            _ => invalid(e),
        }
    }
}

/// A usage or validation error: exit 2.
fn invalid(msg: impl std::fmt::Display) -> Failure {
    Failure::Error(2, msg.to_string())
}

/// A failed computation or I/O: exit 1.
fn failed(msg: impl std::fmt::Display) -> Failure {
    Failure::Error(1, msg.to_string())
}

/// Parse a value that is actually present on the command line. A
/// malformed value is a one-line error and a nonzero exit — never a
/// silently substituted default.
fn parse_arg<T: FromStr>(raw: &str, name: &str) -> Result<T> {
    raw.parse()
        .map_err(|_| invalid(format!("invalid {name}: {raw:?}")))
}

/// Positional argument `i`: absent means `default`; present but
/// unparsable is an error (see `parse_arg`).
fn parse_or<T: FromStr>(args: &[String], i: usize, name: &str, default: T) -> Result<T> {
    args.get(i).map_or(Ok(default), |raw| parse_arg(raw, name))
}

/// `args`, if it holds at most `max` positional arguments. The first
/// one past them is an error (exit 2), never silently ignored.
fn at_most(args: &[String], max: usize) -> Result<&[String]> {
    match args.get(max) {
        Some(extra) => Err(unexpected(extra)),
        None => Ok(args),
    }
}

/// A positional argument past those a subcommand takes.
fn unexpected(arg: &str) -> Failure {
    invalid(format!("unexpected argument {arg:?}"))
}

/// The value after `flag`: every subcommand's flag loop reads it here,
/// so a missing value is always `error: --X requires a value`.
fn value<'a>(rest: &mut Iter<'a, String>, flag: &str) -> Result<&'a str> {
    rest.next()
        .map(String::as_str)
        .ok_or_else(|| invalid(format!("{flag} requires a value")))
}

/// The positional form: the default scenario with only the workload
/// and the fast tiny space overridden — the same pipeline as
/// `run --scenario`, same constants, no drift. Callers validate it
/// after their overrides, so `run stencil 0` fails with a typed error
/// before the engine can publish an empty journal or cache.
fn positional_scenario(name: &str, size: u64) -> Scenario {
    let mut sc = Scenario::default();
    sc.workload.name = name.to_string();
    sc.workload.size = size;
    sc.space = SpaceSpec::tiny();
    sc
}

/// The `<workload> [size]` arguments of `characterize`, `trace` and
/// `aps`, read as `run <workload> [size]` reads them: the positional
/// scenario, validated, and its built-in workload.
fn positional_workload(
    args: &[String],
    default_size: u64,
) -> Result<(Scenario, Box<dyn Workload>)> {
    let args = at_most(args, 2)?;
    let name = args.first().ok_or(Failure::Usage)?;
    let sc = positional_scenario(name, parse_or(args, 1, "size", default_size)?);
    sc.validate().map_err(invalid)?;
    let w = c2_workloads::workload_from_spec(&sc.workload)
        .ok_or_else(|| pipeline::Error::UnknownWorkload(name.clone()))?;
    Ok((sc, w))
}

/// Read the file at `path` and parse it, reporting either failure
/// against the path.
fn read_file<T, E: std::fmt::Display>(
    path: &str,
    parse: fn(&str) -> std::result::Result<T, E>,
) -> Result<T> {
    let text =
        std::fs::read_to_string(path).map_err(|e| failed(format!("cannot open {path}: {e}")))?;
    parse(&text).map_err(|e| failed(format!("cannot parse {path}: {e}")))
}

/// Read, parse, and validate a scenario file.
fn load_scenario(path: &str) -> Result<Scenario> {
    let text =
        std::fs::read_to_string(path).map_err(|e| failed(format!("cannot read {path}: {e}")))?;
    Scenario::from_json(&text).map_err(|e| failed(format!("{path}: {e}")))
}

fn cmd_characterize(args: &[String], out: &mut dyn Write) -> Result {
    let (_, w) = positional_workload(args, 32)?;
    let trace = w.generate();
    let ch = characterize(&trace, &ChipConfig::default_single_core()).map_err(failed)?;
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
    Ok(writeln!(out, "{}", t.render())?)
}

fn cmd_optimize(args: &[String], out: &mut dyn Write) -> Result {
    let args = at_most(args, 5)?;
    let f_seq = parse_or(args, 0, "f_seq", 0.05f64)?;
    let f_mem = parse_or(args, 1, "f_mem", 0.3f64)?;
    let g_exp = parse_or(args, 2, "g_exponent", 1.5f64)?;
    let area = parse_or(args, 3, "total_area", 400.0f64)?;
    let shared = parse_or(args, 4, "shared_area", 40.0f64)?;
    let mut model = C2BoundModel::example_big_data();
    model.program = ProgramProfile::new(1e9, f_seq, f_mem, 0.1, ScaleFunction::Power(g_exp))
        .map_err(invalid)?;
    model.budget = SiliconBudget::new(area, shared).map_err(invalid)?;
    let d = optimize(&model).map_err(failed)?;
    writeln!(
        out,
        "case: {:?} (g(N) {} O(N))",
        d.case,
        if model.program.g.is_at_least_linear() {
            ">="
        } else {
            "<"
        }
    )?;
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
    Ok(writeln!(out, "{}", t.render())?)
}

/// `aps`: the positional workload through [`pipeline::execute`] — the
/// supervised engine `run` uses — under the scenario's `runner`
/// defaults, reported as the APS outcome.
fn cmd_aps(args: &[String], out: &mut dyn Write) -> Result {
    let (sc, _) = positional_workload(args, 24)?;
    let space = DesignSpace::from_spec(&sc.space).map_err(invalid)?;
    writeln!(
        out,
        "APS over a {}-point space; refining {} microarchitecture points with real simulations...",
        space.size(),
        space.issue().len() * space.rob().len()
    )?;
    let config = c2_runner::RunConfig::from_spec(&sc.runner).map_err(invalid)?;
    let null = &c2_obs::NullSink;
    let run = pipeline::execute(&sc, config, None, false, null, null)?;
    let Some(outcome) = run.summary.outcome else {
        return Err(failed("the sweep did not complete"));
    };
    writeln!(out, "{}", chosen_line(BackendKind::CpuCmp, &outcome.chosen))?;
    writeln!(
        out,
        "simulations used: {}; best simulated time: {} cycles; calibrated model error: {}%",
        outcome.simulations,
        fmt_num(outcome.best_time),
        fmt_num(100.0 * outcome.prediction_error)
    )?;
    let log = &outcome.refinement;
    Ok(writeln!(
        out,
        "refinement: {}/{} points simulated ({} retried, {} skipped, {} oracle calls, degradation: {:?})",
        log.succeeded,
        log.attempted,
        log.retried,
        log.skipped.len(),
        log.oracle_calls,
        log.degradation
    )?)
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

/// The enumerated value after `flag`, or a failure naming the
/// accepted spellings.
fn choice<T>(
    rest: &mut Iter<String>,
    flag: &str,
    parse: fn(&str) -> Option<T>,
    choices: &str,
) -> Result<T> {
    let raw = value(rest, flag)?;
    parse(raw).ok_or_else(|| invalid(format!("invalid {flag} {raw:?} ({choices})")))
}

/// Parse `--chaos "crash-at=7,torn=3,seed=42"` into a fault plan.
/// Keys mirror the scenario's `runner.chaos` section; write indices
/// are 1-based (the plan itself rejects 0).
fn parse_chaos(raw: &str) -> Result<c2_runner::ChaosPlan> {
    let mut plan = c2_runner::ChaosPlan::default();
    for part in raw.split(',').filter(|p| !p.is_empty()) {
        let Some((key, value)) = part.split_once('=') else {
            return Err(invalid(format!(
                "invalid --chaos item {part:?} (expected key=value)"
            )));
        };
        let n: u64 = parse_arg(value, "--chaos value")?;
        match key {
            "crash-at" => plan.crash_at_write = Some(n),
            "torn" => plan.torn_bytes = Some(n),
            "enospc-at" => plan.enospc_at_write = Some(n),
            "short-at" => plan.short_write_at = Some(n),
            "seed" => plan.seed = n,
            _ => {
                return Err(invalid(format!(
                    "unknown --chaos key {key:?} (crash-at|torn|enospc-at|short-at|seed)"
                )))
            }
        }
    }
    if plan.is_none() {
        return Err(invalid("--chaos injects nothing; give at least one fault"));
    }
    Ok(plan)
}

/// `run`: one sweep through [`pipeline::execute`], with an optional
/// checkpoint journal and idempotent resume. The sweep comes from a
/// scenario file or the positional form. Flags that change what is
/// computed patch the scenario before its one validation; runner
/// flags patch the engine configuration (DESIGN.md §8).
fn cmd_run(args: &[String], out: &mut dyn Write) -> Result {
    let mut scenario_path: Option<String> = None;
    let mut name: Option<String> = None;
    let mut size: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut cache: Option<std::path::PathBuf> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut max_attempts: Option<usize> = None;
    let mut journal: Option<std::path::PathBuf> = None;
    let mut metrics_out: Option<std::path::PathBuf> = None;
    let mut sync: Option<SyncPolicy> = None;
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
        let flag = arg.as_str();
        match flag {
            "--scenario" => scenario_path = Some(value(&mut rest, flag)?.to_string()),
            "--threads" => threads = Some(parse_arg(value(&mut rest, flag)?, flag)?),
            "--cache" => cache = Some(value(&mut rest, flag)?.into()),
            "--deadline-ms" => deadline_ms = Some(parse_arg(value(&mut rest, flag)?, flag)?),
            "--max-attempts" => max_attempts = Some(parse_arg(value(&mut rest, flag)?, flag)?),
            "--journal" => journal = Some(value(&mut rest, flag)?.into()),
            "--metrics-out" => metrics_out = Some(value(&mut rest, flag)?.into()),
            "--sync" => sync = Some(choice(&mut rest, flag, SyncPolicy::parse, SYNC_POLICIES)?),
            "--checkpoint-every" => {
                checkpoint_every = Some(parse_arg(value(&mut rest, flag)?, flag)?);
            }
            "--chaos" => chaos = Some(parse_chaos(value(&mut rest, flag)?)?),
            "--oracle-mode" => {
                oracle_mode = Some(choice(&mut rest, flag, OracleMode::parse, "full|phase")?);
            }
            "--backend" => backend = Some(choice(&mut rest, flag, BackendKind::parse, BACKENDS)?),
            "--law" => law = Some(choice(&mut rest, flag, LawKind::parse, LAWS)?),
            "--roofline-out" => roofline_out = Some(value(&mut rest, flag)?.to_string()),
            "--screen" => screen = true,
            "--resume" => resume = true,
            other if !other.starts_with('-') => {
                if name.is_none() {
                    name = Some(other.to_string());
                } else if size.is_none() {
                    size = Some(parse_arg(other, "size")?);
                } else {
                    return Err(unexpected(other));
                }
            }
            _ => return Err(Failure::Usage),
        }
    }
    if resume && journal.is_none() {
        return Err(invalid("--resume requires --journal PATH"));
    }
    if let Some(path) = journal.as_ref().filter(|p| p.exists() && !resume) {
        return Err(invalid(format!(
            "journal {} already exists; pass --resume to continue it or remove it first",
            path.display()
        )));
    }
    let mut sc = match &scenario_path {
        Some(_) if name.is_some() || size.is_some() => {
            return Err(invalid(
                "--scenario and a positional workload are mutually exclusive",
            ))
        }
        Some(path) => load_scenario(path)?,
        None => positional_scenario(name.as_deref().ok_or(Failure::Usage)?, size.unwrap_or(24)),
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
    sc.validate().map_err(invalid)?;
    let fingerprint = sc.fingerprint();
    // Runner flags patch the engine configuration, not `sc.runner`:
    // the runner section is fingerprinted, so patching it would move
    // every journal header and cache address.
    let mut config = c2_runner::RunConfig::from_spec(&sc.runner).map_err(invalid)?;
    config.threads = threads.unwrap_or(config.threads);
    config.cache_path = cache.or(config.cache_path);
    config.deadline_ms = deadline_ms.unwrap_or(config.deadline_ms);
    config.max_attempts = max_attempts.unwrap_or(config.max_attempts);
    config.sync = sync.unwrap_or(config.sync);
    config.checkpoint_every = checkpoint_every.unwrap_or(config.checkpoint_every);
    config.chaos = chaos.or(config.chaos);
    config.validate().map_err(invalid)?;
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
    if let Some(path) = &metrics_out {
        check_writable(path)
            .map_err(|e| failed(format!("cannot write metrics to {}: {e}", path.display())))?;
    }
    writeln!(
        out,
        "supervised sweep: {} sharded threads, {} attempts/job{}{}{}",
        config.threads,
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
    )?;
    let recorder = c2_obs::Recorder::new();
    let run = pipeline::execute(
        &sc,
        config,
        journal.as_deref(),
        resume,
        &recorder,
        &c2_obs::NullSink,
    )?;
    if let Some(phases) = run.phases {
        writeln!(
            out,
            "oracle: phase mode, {} phases, {:.1}% of the trace per evaluation{}",
            phases.count,
            100.0 * phases.simulated_fraction,
            if phases.exact {
                " (trace too short to cluster; exact fallback)"
            } else {
                ""
            }
        )?;
    }
    // Screening's operational telemetry (the `SCREEN_*` counters) is
    // deliberately not folded into `--metrics-out`, which golden tests
    // bit-compare; this line is its accounting.
    if let Some(report) = &run.screen {
        writeln!(
            out,
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
        )?;
    }
    if let (Some(n), Some(path)) = (run.roofline_points, &sc.observability.roofline_out) {
        writeln!(
            out,
            "roofline: wrote {n} candidate points ({} backend) to {path}",
            sc.backend.kind.as_str()
        )?;
    }
    if let Some(path) = &metrics_out {
        let report = recorder.report();
        std::fs::write(path, report.to_json())
            .map_err(|e| failed(format!("cannot write metrics to {}: {e}", path.display())))?;
        writeln!(
            out,
            "metrics: wrote {} events and the metric registry to {}",
            report.events.len(),
            path.display()
        )?;
    }
    let r = &run.summary.report;
    writeln!(
        out,
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
    )?;
    let Some(outcome) = &run.summary.outcome else {
        return Ok(writeln!(
            out,
            "run did not complete; resume with --journal/--resume"
        )?);
    };
    writeln!(out, "{}", chosen_line(sc.backend.kind, &outcome.chosen))?;
    Ok(writeln!(
        out,
        "best simulated time: {} cycles; calibrated model error: {}%; degradation: {:?}",
        fmt_num(outcome.best_time),
        fmt_num(100.0 * outcome.prediction_error),
        outcome.refinement.degradation
    )?)
}

/// Fail now, before a sweep runs and journals, if `path` cannot be
/// opened for writing. An existing file is opened without truncation
/// and left as it was; a file the check creates is removed again.
fn check_writable(path: &std::path::Path) -> io::Result<()> {
    let existed = path.exists();
    std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)?;
    if !existed {
        std::fs::remove_file(path)?;
    }
    Ok(())
}

/// `journal`: maintain resume journals. `compact` repairs and shrinks
/// an interrupted journal in place — dropping a torn trailing line,
/// duplicate records, and legacy `c2ckpt` lines — and reports what it
/// did. Safe to run any number of times; a compacted journal resumes
/// identically to the original.
fn cmd_journal(args: &[String], out: &mut dyn Write) -> Result {
    match at_most(args, 2)?.first().map(String::as_str) {
        Some("compact") => {
            let path = args.get(1).ok_or(Failure::Usage)?;
            let stats = c2_runner::journal::compact(std::path::Path::new(path)).map_err(failed)?;
            Ok(writeln!(
                out,
                "compacted {path}: kept {} records (dropped {} duplicate records{})",
                stats.records,
                stats.duplicates_dropped,
                if stats.torn_tail_dropped {
                    ", one torn tail"
                } else {
                    ""
                }
            )?)
        }
        _ => Err(Failure::Usage),
    }
}

/// `scenario`: manage declarative scenario files. `init` emits the
/// canonical defaults, `validate` parses and range-checks a file, and
/// `show` prints the canonical rendering plus the fingerprint that a
/// journaled `run --scenario` binds into its journal header.
fn cmd_scenario(args: &[String], out: &mut dyn Write) -> Result {
    match args.first().map(String::as_str) {
        Some("init") => {
            let mut kind = BackendKind::CpuCmp;
            let mut law: Option<LawKind> = None;
            let mut path: Option<&String> = None;
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                let flag = arg.as_str();
                match flag {
                    "--backend" => kind = choice(&mut rest, flag, BackendKind::parse, BACKENDS)?,
                    "--law" => law = Some(choice(&mut rest, flag, LawKind::parse, LAWS)?),
                    other if !other.starts_with('-') && path.is_none() => path = Some(arg),
                    _ => return Err(Failure::Usage),
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
                None => write!(out, "{}", sc.render_pretty())?,
                Some(path) => {
                    std::fs::write(path, sc.render_pretty())
                        .map_err(|e| failed(format!("cannot write {path}: {e}")))?;
                    writeln!(out, "wrote {path} (fingerprint {})", sc.fingerprint_hex())?;
                }
            }
        }
        Some("validate") => {
            let path = at_most(args, 2)?.get(1).ok_or(Failure::Usage)?;
            let sc = load_scenario(path)?;
            writeln!(out, "ok: {path} (fingerprint {})", sc.fingerprint_hex())?;
        }
        Some("show") => {
            let path = at_most(args, 2)?.get(1).ok_or(Failure::Usage)?;
            let sc = load_scenario(path)?;
            write!(out, "{}", sc.render_pretty())?;
            writeln!(out, "fingerprint: {}", sc.fingerprint_hex())?;
        }
        _ => return Err(Failure::Usage),
    }
    Ok(())
}

/// `obs-report`: summarize (or re-export) a metrics report produced by
/// `run --metrics-out`.
fn cmd_obs_report(args: &[String], out: &mut dyn Write) -> Result {
    let args = at_most(args, 2)?;
    let path = args.first().ok_or(Failure::Usage)?;
    let mode = args.get(1).map(String::as_str);
    let report = read_file(path, c2_obs::Report::from_json)?;
    match mode {
        Some("--prom") => write!(out, "{}", report.to_prometheus())?,
        Some("--json") => write!(out, "{}", report.to_json())?,
        Some(_) => return Err(Failure::Usage),
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
            writeln!(out, "{}", t.render())?;
            let mut scopes: std::collections::BTreeMap<&str, u64> =
                std::collections::BTreeMap::new();
            for ev in &report.events {
                *scopes.entry(ev.scope.as_str()).or_insert(0) += 1;
            }
            let by_scope: Vec<String> = scopes
                .iter()
                .map(|(scope, n)| format!("{n} {scope}"))
                .collect();
            writeln!(
                out,
                "trace: {} events ({})",
                report.events.len(),
                by_scope.join(", ")
            )?;
        }
    }
    Ok(())
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
fn cmd_roofline(args: &[String], out: &mut dyn Write) -> Result {
    let [path] = at_most(args, 1)? else {
        return Err(Failure::Usage);
    };
    let doc = read_file(path, c2_config::Json::parse)?;
    let not_a_report = |why: &str| failed(format!("{path} is not a roofline report ({why})"));
    let get = |obj: &[(String, c2_config::Json)], key: &str| -> Result<c2_config::Json> {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| not_a_report(&format!("missing {key:?}")))
    };
    let top = doc
        .as_obj()
        .ok_or_else(|| not_a_report("top level is not an object"))?;
    if get(top, "c2roofline")?.as_u64() != Some(1) {
        return Err(failed(format!(
            "{path}: unsupported roofline report version"
        )));
    }
    let backend = get(top, "backend")?.as_str().unwrap_or("?").to_string();
    let fingerprint = get(top, "fingerprint")?
        .as_str()
        .map_or_else(|| "unbound".to_string(), str::to_string);
    let raw_points = get(top, "points")?
        .as_arr()
        .map(<[c2_config::Json]>::to_vec)
        .ok_or_else(|| not_a_report("points is not an array"))?;
    let mut rows: Vec<RooflineRow> = Vec::with_capacity(raw_points.len());
    for raw in &raw_points {
        let obj = raw
            .as_obj()
            .ok_or_else(|| failed(format!("{path}: a roofline point is not an object")))?;
        let point = get(obj, "point")?;
        let p = point
            .as_obj()
            .ok_or_else(|| failed(format!("{path}: a roofline point carries no design point")))?;
        rows.push(RooflineRow {
            seq: get(obj, "seq")?.as_u64().unwrap_or(0),
            n: get(p, "n")?.as_u64().unwrap_or(0),
            issue: get(p, "issue")?.as_u64().unwrap_or(0),
            rob: get(p, "rob")?.as_u64().unwrap_or(0),
            oi: get(obj, "operational_intensity")?
                .as_f64()
                .unwrap_or(f64::NAN),
            compute: get(obj, "compute_ceiling")?.as_f64().unwrap_or(f64::NAN),
            bandwidth: get(obj, "bandwidth_ceiling")?.as_f64().unwrap_or(f64::NAN),
            bound: get(obj, "bound")?.as_f64().unwrap_or(f64::NAN),
            attained: get(obj, "attained")?.as_f64(),
            limiting: get(obj, "limiting")?.as_str().unwrap_or("?").to_string(),
        });
    }
    let compute_limited = rows.iter().filter(|r| r.limiting == "compute").count();
    writeln!(
        out,
        "roofline: {} backend, {} candidates ({} compute-limited, {} bandwidth-limited), \
         fingerprint {}",
        backend,
        rows.len(),
        compute_limited,
        rows.len() - compute_limited,
        fingerprint
    )?;
    // The chart plots each candidate's attained bound at its
    // operational intensity on log-log axes: 'C' = the compute ceiling
    // binds, 'B' = the bandwidth roof binds. Non-finite points are
    // listed in the table but cannot be charted.
    let chartable: Vec<&RooflineRow> = rows
        .iter()
        .filter(|r| r.oi.is_finite() && r.oi > 0.0 && r.bound.is_finite() && r.bound > 0.0)
        .collect();
    if chartable.is_empty() {
        writeln!(out, "(no finite candidates to chart)")?;
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
            writeln!(out, "{label:>10} |{}", line.iter().collect::<String>())?;
        }
        writeln!(out, "{:>10} +{}", "", "-".repeat(W))?;
        writeln!(
            out,
            "{:>10}  {:<w$}{:>w2$}",
            "OI (F/B):",
            format!("{:.3e}", 10f64.powf(x_lo)),
            format!("{:.3e}", 10f64.powf(x_hi)),
            w = W / 2,
            w2 = W - W / 2
        )?;
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
    Ok(writeln!(out, "{}", t.render())?)
}

fn cmd_scaling(args: &[String], out: &mut dyn Write) -> Result {
    let f_mem = parse_or(at_most(args, 1)?, 0, "f_mem", 0.3f64)?;
    let study = ScalingStudy::paper_figs_8_to_11(f_mem).map_err(invalid)?;
    let ns = [1.0, 4.0, 16.0, 64.0, 256.0, 1000.0];
    let mut t = Table::new(vec!["N", "W", "T(C=1)", "T(C=8)", "W/T(C=1)", "W/T(C=8)"]);
    let c1 = study.sweep(&ns, 1.0).map_err(failed)?;
    let c8 = study.sweep(&ns, 8.0).map_err(failed)?;
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
    Ok(writeln!(out, "{}", t.render())?)
}

fn cmd_table1(args: &[String], out: &mut dyn Write) -> Result {
    at_most(args, 0)?;
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
    Ok(writeln!(out, "{}", t.render())?)
}

fn cmd_trace(args: &[String], out: &mut dyn Write) -> Result {
    let (_, w) = positional_workload(args, 32)?;
    Ok(c2_trace::io::write_trace(&w.generate().combined(), out)?)
}

fn cmd_characterize_file(args: &[String], out: &mut dyn Write) -> Result {
    let path = at_most(args, 1)?.first().ok_or(Failure::Usage)?;
    let file = std::fs::File::open(path).map_err(|e| failed(format!("cannot open {path}: {e}")))?;
    let trace = c2_trace::io::read_trace(io::BufReader::new(file))
        .map_err(|e| failed(format!("cannot parse {path}: {e}")))?;
    let chip = ChipConfig::default_single_core();
    // A raw trace file carries no serial/parallel split; report f_seq = 0
    // and let the user supply it to `optimize` separately.
    let ch = c2_workloads::characterize::characterize_trace(&trace, 0.0, &chip).map_err(failed)?;
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
    Ok(writeln!(out, "{}", t.render())?)
}

fn cmd_multiobjective(args: &[String], out: &mut dyn Write) -> Result {
    use c2_bound::energy::{MultiObjective, PowerModel};
    let weight = parse_or(at_most(args, 1)?, 0, "weight", 0.5f64)?;
    let mut base = C2BoundModel::example_big_data();
    base.program =
        ProgramProfile::new(1e9, 0.15, 0.3, 0.1, ScaleFunction::Power(0.5)).map_err(failed)?;
    let power = PowerModel::default();
    let clock = 3e9;
    let mo = MultiObjective::new(base.clone(), power, weight, clock).map_err(invalid)?;
    let v = mo.optimize().map_err(failed)?;
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
    Ok(writeln!(out, "{}", t.render())?)
}

fn cmd_adaptive(args: &[String], out: &mut dyn Write) -> Result {
    use c2_bound::adaptive::AdaptiveDse;
    use c2_trace::synthetic::{
        MixedPhaseGenerator, PointerChaseGenerator, StridedGenerator, TraceGenerator,
    };
    at_most(args, 0)?;
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
        ProgramProfile::new(1e9, 0.1, 0.3, 0.1, ScaleFunction::Power(0.5)).map_err(failed)?;
    let mut dse = AdaptiveDse::new(template);
    dse.phase_config = c2_trace::PhaseConfig {
        interval_len: 4000,
        clusters: 2,
        ..c2_trace::PhaseConfig::default()
    };
    let plan = dse.plan(&trace).map_err(failed)?;
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
    writeln!(out, "{}", t.render())?;
    Ok(writeln!(
        out,
        "transitions: {}; reconfiguration gain: {}%",
        plan.transitions,
        fmt_num(100.0 * plan.improvement())
    )?)
}

/// `serve`: the supervised DSE-as-a-service daemon (DESIGN.md §12).
/// Policy comes from the `serve` section of `--scenario` (defaults
/// otherwise), with `--executors`/`--queue-depth`/`--budget` as
/// command-line overrides. Prints `serving on <addr>` once the
/// listener is bound, runs until drained (SIGTERM, `/shutdown`, or
/// `--drain-on-idle`), and exits 0 with a drain summary.
fn cmd_serve(args: &[String], out: &mut dyn Write) -> Result {
    let mut addr = "127.0.0.1:0".to_string();
    let mut dir = std::path::PathBuf::from("serve-jobs");
    let mut scenario_path: Option<String> = None;
    let mut cache: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut drain_on_idle = false;
    let mut executors: Option<usize> = None;
    let mut queue_depth: Option<usize> = None;
    let mut budget: Option<usize> = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let flag = arg.as_str();
        match flag {
            "--addr" => addr = value(&mut rest, flag)?.to_string(),
            "--dir" => dir = value(&mut rest, flag)?.into(),
            "--scenario" => scenario_path = Some(value(&mut rest, flag)?.to_string()),
            "--cache" => cache = Some(value(&mut rest, flag)?.into()),
            "--resume" => resume = true,
            "--drain-on-idle" => drain_on_idle = true,
            "--executors" => executors = Some(parse_arg(value(&mut rest, flag)?, flag)?),
            "--queue-depth" => queue_depth = Some(parse_arg(value(&mut rest, flag)?, flag)?),
            "--budget" => budget = Some(parse_arg(value(&mut rest, flag)?, flag)?),
            _ => return Err(Failure::Usage),
        }
    }
    let spec = match &scenario_path {
        Some(path) => load_scenario(path)?.serve,
        None => c2_config::ServeSpec::default(),
    };
    let mut policy = c2_runner::ServePolicy::from_spec(&spec).map_err(invalid)?;
    if let Some(v) = executors {
        policy.executors = v;
    }
    if let Some(v) = queue_depth {
        policy.queue_depth = v;
    }
    if let Some(v) = budget {
        policy.per_client_budget = v;
    }
    policy.validate().map_err(invalid)?;
    let options = c2_runner::ServeOptions {
        addr,
        dir,
        cache_path: cache,
        policy,
        resume,
        drain_on_idle,
        watch_sigterm: true,
    };
    let mut daemon = c2_runner::Daemon::bind(options).map_err(failed)?;
    // Flushed eagerly: scripts parse this line from a pipe to learn
    // the ephemeral port before the daemon blocks in accept.
    writeln!(out, "serving on {}", daemon.local_addr())?;
    out.flush()?;
    let report = daemon.run(&pipeline::Executor).map_err(failed)?;
    Ok(writeln!(
        out,
        "drained: {} admitted ({} resumed), {} completed, {} failed, {} quarantined, \
         {} shed, {} pending for --resume",
        report.admitted,
        report.resumed,
        report.completed,
        report.failed,
        report.quarantined,
        report.shed,
        report.pending_at_drain
    )?)
}

/// One HTTP exchange with a serve daemon.
fn daemon_call(
    addr: &str,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<c2_runner::serve::protocol::ClientResponse> {
    c2_runner::serve::protocol::http_call(addr, method, target, headers, body, 10_000)
        .map_err(|e| failed(format!("{method} {target} on {addr}: {e}")))
}

/// `submit`: send a scenario file to a serve daemon. Prints the
/// daemon's JSON response; with `--wait`, polls the job until it
/// reaches a terminal state and exits nonzero unless it completed.
fn cmd_submit(args: &[String], out: &mut dyn Write) -> Result {
    let mut addr: Option<&str> = None;
    let mut scenario_path: Option<&str> = None;
    let mut tenant = "anonymous";
    let mut wait = false;
    let mut poll_ms: u64 = 100;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let flag = arg.as_str();
        match flag {
            "--addr" => addr = Some(value(&mut rest, flag)?),
            "--scenario" => scenario_path = Some(value(&mut rest, flag)?),
            "--tenant" => tenant = value(&mut rest, flag)?,
            "--wait" => wait = true,
            "--poll-ms" => poll_ms = parse_arg(value(&mut rest, flag)?, flag)?,
            _ => return Err(Failure::Usage),
        }
    }
    let (Some(addr), Some(scenario_path)) = (addr, scenario_path) else {
        return Err(invalid("submit requires --addr and --scenario"));
    };
    // Sent verbatim: the daemon is the validation authority, so its
    // 422 body reports exactly what a local `scenario validate` would.
    let body = std::fs::read(scenario_path)
        .map_err(|e| failed(format!("cannot read {scenario_path}: {e}")))?;
    let (status, headers, response) = daemon_call(
        addr,
        "POST",
        "/submit",
        &[("X-Tenant", tenant), ("Content-Type", "application/json")],
        &body,
    )?;
    let text = String::from_utf8_lossy(&response);
    if status != 202 {
        let retry = headers
            .iter()
            .find(|(k, _)| k == "retry-after")
            .map(|(_, v)| format!(" (retry after {v} s)"))
            .unwrap_or_default();
        return Err(failed(format!(
            "submission rejected with {status}{retry}: {}",
            text.trim()
        )));
    }
    write!(out, "{text}")?;
    if !wait {
        return Ok(());
    }
    let job = c2_config::Json::parse(&text)
        .ok()
        .and_then(|doc| {
            doc.as_obj()
                .and_then(|pairs| pairs.iter().find(|(k, _)| k == "job").cloned())
        })
        .and_then(|(_, v)| v.as_str().map(str::to_string))
        .ok_or_else(|| failed("daemon's 202 response carried no job id"))?;
    loop {
        let (status, _, response) = daemon_call(addr, "GET", &format!("/status/{job}"), &[], b"")?;
        if status != 200 {
            return Err(failed(format!("status poll for {job} returned {status}")));
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
            "completed" => return Ok(write!(out, "{text}")?),
            "failed" | "quarantined" => {
                eprint!("{text}");
                return Err(Failure::Exit(1));
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(poll_ms)),
        }
    }
}

/// `status`: print a daemon's job table, or one job's detail.
fn cmd_status(args: &[String], out: &mut dyn Write) -> Result {
    let mut addr: Option<&str> = None;
    let mut job: Option<&str> = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--addr" => addr = Some(value(&mut rest, arg)?),
            other if !other.starts_with('-') && job.is_none() => job = Some(other),
            _ => return Err(Failure::Usage),
        }
    }
    let addr = addr.ok_or_else(|| invalid("status requires --addr"))?;
    let target = match job {
        Some(id) => format!("/status/{id}"),
        None => "/status".to_string(),
    };
    let (status, _, response) = daemon_call(addr, "GET", &target, &[], b"")?;
    write!(out, "{}", String::from_utf8_lossy(&response))?;
    if status != 200 {
        return Err(Failure::Exit(1));
    }
    Ok(())
}

/// `shutdown`: ask a daemon to drain. With `--wait`, blocks until the
/// daemon's socket stops answering (i.e. the process exited).
fn cmd_shutdown(args: &[String], out: &mut dyn Write) -> Result {
    let mut addr: Option<&str> = None;
    let mut wait = false;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--addr" => addr = Some(value(&mut rest, arg)?),
            "--wait" => wait = true,
            _ => return Err(Failure::Usage),
        }
    }
    let addr = addr.ok_or_else(|| invalid("shutdown requires --addr"))?;
    let (status, _, response) = daemon_call(addr, "POST", "/shutdown", &[], b"")?;
    write!(out, "{}", String::from_utf8_lossy(&response))?;
    if status != 200 {
        return Err(Failure::Exit(1));
    }
    if wait {
        // Poll until the daemon stops answering — i.e. the drain
        // finished and the listener closed.
        while c2_runner::serve::protocol::http_call(addr, "GET", "/status", &[], b"", 2_000).is_ok()
        {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    // The unlocked handle: no engine or daemon thread ever waits on a
    // stdout lock held across a subcommand.
    let out = &mut io::stdout();
    let result = match args.first().map(String::as_str) {
        Some("characterize") => cmd_characterize(rest, out),
        Some("trace") => cmd_trace(rest, out),
        Some("characterize-file") => cmd_characterize_file(rest, out),
        Some("optimize") => cmd_optimize(rest, out),
        Some("aps") => cmd_aps(rest, out),
        Some("run") => cmd_run(rest, out),
        Some("serve") => cmd_serve(rest, out),
        Some("submit") => cmd_submit(rest, out),
        Some("status") => cmd_status(rest, out),
        Some("shutdown") => cmd_shutdown(rest, out),
        Some("journal") => cmd_journal(rest, out),
        Some("scenario") => cmd_scenario(rest, out),
        Some("roofline") => cmd_roofline(rest, out),
        Some("obs-report") => cmd_obs_report(rest, out),
        Some("scaling") => cmd_scaling(rest, out),
        Some("table1") => cmd_table1(rest, out),
        Some("multiobjective") => cmd_multiobjective(rest, out),
        Some("adaptive") => cmd_adaptive(rest, out),
        Some(other) => {
            // An unrecognized subcommand is an explicit error on
            // stderr plus the usage text — never a silent fallthrough.
            eprintln!("error: unknown subcommand {other:?}");
            Err(Failure::Usage)
        }
        None => Err(Failure::Usage),
    };
    let code = match result.and_then(|()| Ok(out.flush()?)) {
        Ok(()) => 0,
        Err(Failure::Usage) => {
            eprintln!("{USAGE}");
            2
        }
        Err(Failure::Error(code, msg)) => {
            eprintln!("error: {msg}");
            code
        }
        Err(Failure::Exit(code)) => code,
    };
    std::process::exit(code);
}
