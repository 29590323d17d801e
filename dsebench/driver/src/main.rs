//! In-process driver of the dsebench harness (`dsebench/run.py`).
//!
//! ```text
//! dsebench-driver setup SCENARIO THREADS REPS
//! dsebench-driver trace SCENARIO THREADS JOURNAL [CACHE]
//! ```
//!
//! `setup` times, untraced, the block every DSE pays before its first
//! oracle call: scenario text → validated scenario → workload trace →
//! characterization → assembled APS model → phase plan (phase mode) →
//! sweep engine. It repeats the block `REPS` times and prints the
//! seconds of each repetition.
//!
//! `trace` runs one DSE composed of the public calls
//! `c2bound-tool run --scenario SCENARIO --threads THREADS --journal
//! JOURNAL [--cache CACHE]` makes, and times each call from outside:
//! the analysis stage through a [`BackendSweep`] wrapper, every
//! evaluation through a timing [`Oracle`]. It prints one JSON object
//! holding the spans, the counters, and the outcome exactly as the CLI
//! formats it, so the harness can check the composition against the
//! CLI's journal and report.
//!
//! In phase mode the timing oracle replays `PhaseOracle::estimate` from
//! the plan's public summary and weights — the same windows, the same
//! `Simulator::run` calls, the same floating-point sums — so every
//! simulator run is timed and counted. The harness's journal-digest
//! check proves the replay prices every point bit-identically.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use c2_bound::dse::{chip_config_for, DesignPoint, DesignSpace, Oracle};
use c2_bound::report::fmt_num;
use c2_bound::{
    aps_from_scenario, scale_function, Aps, ApsOutcome, ApsPlan, BackendSweep, BoundDecomposition,
    PhasePlan, PointOutcome, ResiliencePolicy,
};
use c2_config::{BackendKind, OracleMode, Scenario};
use c2_obs::MetricsSink;
use c2_runner::{RunConfig, SweepRunner};
use c2_sim::area::{AreaModel, SiliconBudget};
use c2_sim::{ChipConfig, Simulator};
use c2_trace::{MemAccess, Trace, TraceBuilder};
use c2_workloads::WorkloadTrace;

const USAGE: &str = "usage: dsebench-driver setup SCENARIO THREADS REPS\n       \
                     dsebench-driver trace SCENARIO THREADS JOURNAL [CACHE]";

/// Minimum time the host-ceiling pass spends on each distinct split.
const CEILING_MIN: Duration = Duration::from_millis(10);

/// Wall time of named steps, summed by name; a no-op when tracing is
/// off.
struct Spans {
    on: bool,
    list: Vec<(&'static str, Duration)>,
}

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        match self.list.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += took,
            None => self.list.push((name, took)),
        }
        out
    }
}

/// A DSE once set-up is done: everything the engine needs.
struct Prepared {
    trace: WorkloadTrace,
    aps: Aps,
    phase: Option<PhasePlan>,
    runner: SweepRunner,
}

/// Scenario text to an engine-ready sweep, in `cmd_run`'s order.
fn prepare(
    text: &str,
    threads: usize,
    cache: Option<&Path>,
    spans: &mut Spans,
) -> Result<Prepared, String> {
    let (sc, workload, chip) = spans.time("config.load", || {
        let sc = Scenario::from_json(text).map_err(|e| e.to_string())?;
        if sc.backend.kind != BackendKind::CpuCmp || sc.screen.enabled {
            return Err("only unscreened cpu-cmp scenarios are supported".to_string());
        }
        let workload = c2_workloads::workload_from_spec(&sc.workload)
            .ok_or_else(|| format!("unknown workload {:?}", sc.workload.name))?;
        let chip = ChipConfig::from_spec(&sc.chip).map_err(|e| e.to_string())?;
        Ok((sc, workload, chip))
    })?;
    let trace = spans.time("workloads.generate", || workload.generate());
    let ch = spans
        .time("workloads.characterize", || {
            c2_workloads::characterize(&trace, &chip)
        })
        .map_err(|e| e.to_string())?;
    let aps = spans
        .time("core.model", || {
            aps_from_scenario(&sc, &ch, &chip, scale_function(&sc, workload.as_ref()))
        })
        .map_err(|e| e.to_string())?;
    let phase = match sc.oracle.mode {
        OracleMode::Full => None,
        OracleMode::Phase => {
            if cache.is_some() {
                return Err("phase scenarios run without an evaluation cache".to_string());
            }
            let config = c2_trace::PhaseConfig {
                interval_len: sc.oracle.phase.interval_len as usize,
                clusters: sc.oracle.phase.clusters as usize,
                seed: sc.oracle.phase.seed,
                ..c2_trace::PhaseConfig::default()
            };
            let plan = spans
                .time("phase.detect", || PhasePlan::detect(&trace, &config))
                .map_err(|e| e.to_string())?;
            Some(plan)
        }
    };
    let runner = spans
        .time("runner.config", || {
            let mut config = RunConfig::from_spec(&sc.runner)?;
            config.threads = threads;
            config.cache_path = cache.map(Path::to_path_buf);
            SweepRunner::new(config.with_scenario(sc.fingerprint()))
        })
        .map_err(|e| e.to_string())?;
    Ok(Prepared {
        trace,
        aps,
        phase,
        runner,
    })
}

/// The [`BackendSweep`] the engine drives, with its analysis and
/// assembly stages timed.
struct TimedSweep<'a> {
    inner: &'a Aps,
    plan_ns: AtomicU64,
    assemble_ns: AtomicU64,
}

fn add_elapsed(total: &AtomicU64, start: Instant) {
    total.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

impl BackendSweep for TimedSweep<'_> {
    fn identity(&self) -> &'static str {
        BackendSweep::identity(self.inner)
    }

    fn space(&self) -> &DesignSpace {
        BackendSweep::space(self.inner)
    }

    fn plan_observed(&self, sink: &dyn MetricsSink) -> c2_bound::Result<ApsPlan> {
        let start = Instant::now();
        let plan = BackendSweep::plan_observed(self.inner, sink);
        add_elapsed(&self.plan_ns, start);
        plan
    }

    fn assemble_observed(
        &self,
        plan: &ApsPlan,
        results: &[(usize, PointOutcome)],
        policy: &ResiliencePolicy,
        sink: &dyn MetricsSink,
    ) -> c2_bound::Result<ApsOutcome> {
        let start = Instant::now();
        let outcome = BackendSweep::assemble_observed(self.inner, plan, results, policy, sink);
        add_elapsed(&self.assemble_ns, start);
        outcome
    }

    fn decompose(&self, point: &DesignPoint) -> BoundDecomposition {
        BackendSweep::decompose(self.inner, point)
    }

    fn work(&self, point: &DesignPoint) -> f64 {
        BackendSweep::work(self.inner, point)
    }
}

/// What one evaluation simulates.
enum Pricing<'a> {
    /// `simulate_point`: the whole workload, once.
    Full(&'a WorkloadTrace),
    /// `PhaseOracle::estimate`: per phase, the measured window and, for
    /// a representative past the first interval, its warmup prefix.
    Phase {
        windows: Vec<(WorkloadTrace, Option<WorkloadTrace>)>,
        weights: &'a [f64],
    },
}

impl<'a> Pricing<'a> {
    /// Rebuild `PhasePlan`'s windows from its summary, as
    /// `PhasePlan::from_summary` lays them out.
    fn phase(trace: &WorkloadTrace, plan: &'a PhasePlan) -> Self {
        let combined = trace.combined();
        let accesses = combined.accesses();
        let il = plan.summary().interval_len;
        let windows = plan
            .summary()
            .representatives
            .iter()
            .map(|&rep| {
                let lo = rep * il;
                let hi = (lo + il).min(accesses.len());
                let wlo = lo.saturating_sub(il);
                let warmup = (rep > 0).then(|| standalone(&accesses[wlo..lo]));
                (standalone(&accesses[wlo..hi]), warmup)
            })
            .collect();
        Pricing::Phase {
            windows,
            weights: plan.weights(),
        }
    }

    /// The workload behind a [`Run::source`] id: 0 is the full trace,
    /// `2i + 1` phase `i`'s window, `2i + 2` its warmup prefix.
    fn source(&self, id: usize) -> &WorkloadTrace {
        match self {
            Pricing::Full(trace) => trace,
            Pricing::Phase { windows, .. } => {
                let (window, warmup) = &windows[(id - 1) / 2];
                if id % 2 == 1 {
                    window
                } else {
                    warmup
                        .as_ref()
                        .expect("warmup ids are recorded only for warmups")
                }
            }
        }
    }
}

/// A slice of the combined access stream as a standalone workload,
/// instruction indices rebased to zero with compute spacing kept.
fn standalone(accesses: &[MemAccess]) -> WorkloadTrace {
    let mut b = TraceBuilder::new();
    let mut cursor = accesses.first().map_or(0, |a| a.instr);
    for a in accesses {
        b.compute(a.instr - cursor);
        b.access_sized(a.addr, a.size, a.kind);
        cursor = a.instr + 1;
    }
    WorkloadTrace {
        serial: Trace::new(),
        parallel: b.finish(),
    }
}

/// One `Simulator::run` call.
struct Run {
    ns: Duration,
    accesses: usize,
    cycles: u64,
    cores: usize,
    source: usize,
}

/// One oracle evaluation.
#[derive(Default)]
struct Eval {
    ns: Duration,
    split_ns: Duration,
    runs: Vec<Run>,
}

/// The sweep's oracle, built once per engine thread.
struct TimedOracle<'a> {
    pricing: &'a Pricing<'a>,
    area: &'a AreaModel,
    budget: &'a SiliconBudget,
    log: &'a Mutex<Vec<Eval>>,
}

impl TimedOracle<'_> {
    fn simulate(
        &self,
        eval: &mut Eval,
        config: ChipConfig,
        source: usize,
        cores: usize,
    ) -> c2_bound::Result<u64> {
        let start = Instant::now();
        let traces = self.pricing.source(source).per_core_traces(cores);
        eval.split_ns += start.elapsed();
        let start = Instant::now();
        let result = Simulator::new(config).run(&traces)?;
        eval.runs.push(Run {
            ns: start.elapsed(),
            accesses: traces.iter().map(Trace::len).sum(),
            cycles: result.total_cycles,
            cores: traces.len(),
            source,
        });
        Ok(result.total_cycles)
    }
}

impl Oracle for TimedOracle<'_> {
    fn evaluate(&mut self, _key: u64, p: &DesignPoint) -> c2_bound::Result<f64> {
        let start = Instant::now();
        let mut eval = Eval::default();
        let value = match self.pricing {
            // The CLI's full-mode pricer reports every failure as a
            // simulation error.
            Pricing::Full(_) => chip_config_for(p, self.area, self.budget)
                .and_then(|config| self.simulate(&mut eval, config, 0, p.n))
                .map(|cycles| cycles as f64)
                .map_err(|e| c2_bound::Error::Simulation(e.to_string())),
            Pricing::Phase { windows, weights } => chip_config_for(p, self.area, self.budget)
                .and_then(|config| {
                    let mut total = 0.0;
                    for (i, ((_, warmup), &w)) in windows.iter().zip(weights.iter()).enumerate() {
                        let cycles = self.simulate(&mut eval, config.clone(), 2 * i + 1, p.n)?;
                        total += w * cycles as f64;
                        if warmup.is_some() {
                            let cycles =
                                self.simulate(&mut eval, config.clone(), 2 * i + 2, p.n)?;
                            total += -w * cycles as f64;
                        }
                    }
                    Ok(total)
                }),
        };
        eval.ns = start.elapsed();
        self.log
            .lock()
            .expect("an oracle thread panicked while logging")
            .push(eval);
        value
    }
}

/// Host ceiling for the simulator: accesses per second of a pass that
/// touches every access of the same per-core traces once.
fn host_ceiling(pricing: &Pricing, evals: &[Eval]) -> f64 {
    let mut splits: Vec<(usize, usize)> = evals
        .iter()
        .flat_map(|e| e.runs.iter().map(|r| (r.source, r.cores)))
        .collect();
    splits.sort_unstable();
    splits.dedup();
    let (mut touched, mut busy) = (0usize, Duration::ZERO);
    for (source, cores) in splits {
        let traces = pricing.source(source).per_core_traces(cores);
        let per_pass: usize = traces.iter().map(Trace::len).sum();
        let start = Instant::now();
        let mut passes = 0;
        while passes == 0 || start.elapsed() < CEILING_MIN {
            let mut sum = 0u64;
            for t in black_box(&traces) {
                for a in t.accesses() {
                    sum = sum.wrapping_add(a.addr);
                }
            }
            black_box(sum);
            passes += 1;
        }
        busy += start.elapsed();
        touched += passes * per_pass;
    }
    if touched == 0 {
        0.0
    } else {
        touched as f64 / busy.as_secs_f64()
    }
}

fn parse<T: std::str::FromStr>(raw: Option<&String>, what: &str) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("missing {what}\n{USAGE}"))?;
    raw.parse().map_err(|_| format!("invalid {what}: {raw:?}"))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn cmd_setup(args: &[String]) -> Result<(), String> {
    let path: String = parse(args.first(), "SCENARIO")?;
    let threads: usize = parse(args.get(1), "THREADS")?;
    let reps: usize = parse(args.get(2), "REPS")?;
    let text = read(&path)?;
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut off = Spans {
            on: false,
            list: Vec::new(),
        };
        let rep = Instant::now();
        let prepared = prepare(&text, threads, None, &mut off)?;
        secs.push(rep.elapsed().as_secs_f64());
        drop(black_box(prepared));
    }
    let list: Vec<String> = secs.iter().map(f64::to_string).collect();
    println!("{{\"setup_s\": [{}]}}", list.join(", "));
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let path: String = parse(args.first(), "SCENARIO")?;
    let threads: usize = parse(args.get(1), "THREADS")?;
    let journal: PathBuf = parse(args.get(2), "JOURNAL")?;
    let cache: Option<PathBuf> = args.get(3).map(PathBuf::from);

    // Loaded before the DSE starts, so it reads the file exactly as the
    // engine will at run start.
    let start = Instant::now();
    if let Some(c) = &cache {
        c2_runner::cache::load(&c2_runner::storage::DISK, c).map_err(|e| e.to_string())?;
    }
    let cache_load = start.elapsed();

    let start = Instant::now();
    let mut spans = Spans {
        on: true,
        list: Vec::new(),
    };
    let text = spans.time("config.load", || read(&path))?;
    let prepared = prepare(&text, threads, cache.as_deref(), &mut spans)?;
    let pricing = match &prepared.phase {
        Some(plan) if !plan.is_exact() => {
            spans.time("phase.detect", || Pricing::phase(&prepared.trace, plan))
        }
        _ => Pricing::Full(&prepared.trace),
    };
    let sweep = TimedSweep {
        inner: &prepared.aps,
        plan_ns: AtomicU64::new(0),
        assemble_ns: AtomicU64::new(0),
    };
    let (area, budget) = (prepared.aps.model.area, prepared.aps.model.budget);
    let log = Mutex::new(Vec::new());
    let recorder = c2_obs::Recorder::new();
    let summary = spans
        .time("runner.sweep", || {
            prepared.runner.run_aps_full(
                &sweep,
                || TimedOracle {
                    pricing: &pricing,
                    area: &area,
                    budget: &budget,
                    log: &log,
                },
                Some(&journal),
                false,
                &recorder,
                &c2_obs::NullSink,
            )
        })
        .map_err(|e| e.to_string())?;
    let wall = start.elapsed();

    let evals = log.into_inner().expect("oracle log poisoned");
    let start = Instant::now();
    let ceiling = host_ceiling(&pricing, &evals);
    let ceiling_time = start.elapsed();
    let outcome = summary
        .outcome
        .ok_or_else(|| "the sweep did not complete".to_string())?;
    let runs = || evals.iter().flat_map(|e| e.runs.iter());
    let ms = |d: &Duration| (d.as_secs_f64() * 1e3).to_string();
    let r = &summary.report;

    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"wall_s\": {}, \"cache_load_s\": {}, \"ceiling_s\": {}, \"spans_s\": {{",
        wall.as_secs_f64(),
        cache_load.as_secs_f64(),
        ceiling_time.as_secs_f64()
    );
    let spans_json: Vec<String> = spans
        .list
        .iter()
        .map(|(name, d)| format!("\"{name}\": {}", d.as_secs_f64()))
        .collect();
    out.push_str(&spans_json.join(", "));
    let _ = write!(
        out,
        "}}, \"plan_s\": {}, \"assemble_s\": {}, \"oracle_busy_s\": {}, \"split_s\": {}, ",
        sweep.plan_ns.load(Ordering::Relaxed) as f64 / 1e9,
        sweep.assemble_ns.load(Ordering::Relaxed) as f64 / 1e9,
        evals.iter().map(|e| e.ns).sum::<Duration>().as_secs_f64(),
        evals
            .iter()
            .map(|e| e.split_ns)
            .sum::<Duration>()
            .as_secs_f64()
    );
    let eval_ms: Vec<String> = evals.iter().map(|e| ms(&e.ns)).collect();
    let run_ms: Vec<String> = runs().map(|r| ms(&r.ns)).collect();
    let _ = write!(
        out,
        "\"eval_ms\": [{}], \"run_ms\": [{}], ",
        eval_ms.join(", "),
        run_ms.join(", ")
    );
    let _ = write!(
        out,
        "\"sim_runs\": {}, \"sim_accesses\": {}, \"sim_cycles\": {}, \"sim_core_cycles\": {}, ",
        runs().count(),
        runs().map(|r| r.accesses).sum::<usize>(),
        runs().map(|r| r.cycles).sum::<u64>(),
        runs().map(|r| r.cycles * r.cores as u64).sum::<u64>()
    );
    let _ = write!(
        out,
        "\"workload_accesses\": {}, \"simulated_frac\": {}, \"host_access_per_s\": {}, ",
        prepared.trace.serial.len() + prepared.trace.parallel.len(),
        prepared
            .phase
            .as_ref()
            .map_or(1.0, PhasePlan::simulated_fraction),
        ceiling
    );
    let _ = write!(
        out,
        "\"report\": {{\"attempted\": {}, \"succeeded\": {}, \"skipped\": {}, \
         \"backfilled\": {}, \"resumed\": {}, \"retried\": {}, \"oracle_calls\": {}, \
         \"cache_hits\": {}, \"consistent\": {}, \"completed\": {}}}, ",
        r.attempted,
        r.succeeded,
        r.skipped,
        r.backfilled,
        r.resumed,
        r.retried,
        r.oracle_calls,
        r.cache_hits,
        r.consistent(),
        r.completed
    );
    let c = &outcome.chosen;
    let chosen = format!(
        "N = {}, A0 = {} mm2, L1 = {} mm2, L2 = {} mm2, issue = {}, ROB = {}",
        c.n,
        fmt_num(c.a0),
        fmt_num(c.a1),
        fmt_num(c.a2),
        c.issue_width,
        c.rob_size
    );
    let _ = write!(
        out,
        "\"chosen\": {chosen:?}, \"best\": {:?}, \"error\": {:?}, \"degradation\": {:?}}}",
        fmt_num(outcome.best_time),
        fmt_num(100.0 * outcome.prediction_error),
        format!("{:?}", outcome.refinement.degradation)
    );
    println!("{out}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("setup") => cmd_setup(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
