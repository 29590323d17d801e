#!/usr/bin/env python3
"""Real-oracle DSE benchmark for c2bound-tool.

    python3 dsebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 dsebench/run.py --workload NAME --record

Run from the repository root. Every run builds the release
`c2bound-tool` binary and the in-process driver (`dsebench/driver`)
into `$CARGO_TARGET_DIR` (default `.bench_build`), renders the
workload's scenario from the seed (same document, seeded layout), and
then runs a closed loop with one client for S seconds:
each DSE is one `c2bound-tool run --scenario ... --threads 2` child
with a fresh journal, and the next starts when the previous one exits.

`--trace 0` reports the end-to-end metrics: the fastest wall time and
CPU time of a child, its median peak RSS, the calibrated model error
it prints, and the median in-process set-up time (`dsebench-driver
setup`, untraced, in set-up processes spread between the DSEs).
DSE times are the fastest of the run's DSEs, not their median: a
shared host slows a process by up to ~1.6x in streaks of seconds: the
median of 0.1 s DSEs flips with the share of slow streaks in a run,
while the fastest DSE tracks the program's own cost.
`--trace 1` alternates CLI children with traced in-process DSEs
(`dsebench-driver trace`) and reports the per-layer split.

Every DSE is checked against `dsebench/reference.json`: exit status,
ledger, chosen point, best time, model error, journal digest, the cache
digest where a cache is written or read, and, for traced DSEs, the
exact simulator counters. `--record` rewrites a workload's reference
entry from one CLI DSE and one traced DSE, which must agree.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
THREADS = 2
# Kill any child still running this long after the build: the whole
# run must end within 180 s.
RUN_LIMIT_S = 170.0
# DSEs per run at least, however long they take.
MIN_OPS = 3
# Set-up processes per untraced run.
SETUP_BATCHES = 10

# Why each workload exists is recorded in scenarios/NOTES.md. `cache`
# is the evaluation cache each DSE gets: a fresh file, one filled once
# at set-up, or none. `setup_reps` is the number of set-ups in each of
# the SETUP_BATCHES set-up processes, about 35 ms of work each.
WORKLOADS = {
    "sim_wide": {"scenario": "sim_wide.json", "cache": "fresh", "setup_reps": 18},
    "solve_warm": {"scenario": "sim_wide.json", "cache": "warm", "setup_reps": 18},
    "phase_estimate": {"scenario": "phase_estimate.json", "cache": None, "setup_reps": 2},
}

# Simulator counters a traced DSE must repeat exactly.
COUNTERS = {
    "sim.runs": "sim_runs",
    "sim.accesses": "sim_accesses",
    "sim.cycles": "sim_cycles",
    "sim.core_cycles": "sim_core_cycles",
}

REPORT_RE = re.compile(
    r"^run report: (\d+) attempted = (\d+) succeeded \+ (\d+) skipped \+ (\d+) backfilled "
    r"\((\d+) resumed, (\d+) retried, (\d+) oracle calls, (\d+) cache hits",
    re.M,
)
REPORT_KEYS = ("attempted", "succeeded", "skipped", "backfilled", "resumed", "retried",
               "oracle_calls", "cache_hits")
CHOSEN_RE = re.compile(r"^chosen: (.*)$", re.M)
BEST_RE = re.compile(
    r"^best simulated time: (\S+) cycles; calibrated model error: (\S+)%; degradation: (\S+)$",
    re.M,
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest of p75/p90/p95/p99/p99.9 with at least ten samples
    beyond it, as (percentile, value); the median when none has."""
    ordered = sorted(values)
    best = (50.0, median(ordered))
    for pct in (75.0, 90.0, 95.0, 99.0, 99.9):
        if len(ordered) * (1.0 - pct / 100.0) >= 10.0:
            best = (pct, ordered[round(pct / 100.0 * (len(ordered) - 1))])
    return best


def build(target_dir):
    """Build the CLI and the driver; return their paths, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["--bin", "c2bound-tool"]),
        (os.path.join(HERE, "driver", "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        if subprocess.run(cmd + extra, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "c2bound-tool"), os.path.join(release, "dsebench-driver")


def render(path, seed):
    """The scenario document with a seeded layout: the same scenario
    (same fingerprint), different text for most seeds. Key order stays
    as in the file: key order alone can move the CLI's peak RSS (see
    scenarios/NOTES.md)."""
    with open(path) as f:
        doc = json.load(f)
    rng = random.Random(seed)
    indent = rng.choice([None, 1, 2, 4, "\t"])
    separators = rng.choice([(", ", ": "), (",", ":"), (",", ": ")])
    return json.dumps(doc, indent=indent, separators=separators) + "\n"


class Child:
    """One child process, timed from spawn to reap: wall seconds, CPU
    seconds (user + system) and peak RSS come from its own rusage."""

    def __init__(self, argv, out_path, limit_s):
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
            timer = threading.Timer(max(1.0, limit_s), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            self.wall_s = time.perf_counter() - start
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(out_path, errors="replace") as f:
            self.output = f.read()


def parse_cli(output):
    """The outcome a `run` child printed, in the driver's JSON shape."""
    got = {}
    m = REPORT_RE.search(output)
    if m:
        got["report"] = dict(zip(REPORT_KEYS, map(int, m.groups())))
    m = CHOSEN_RE.search(output)
    if m:
        got["chosen"] = m.group(1)
    m = BEST_RE.search(output)
    if m:
        got["best"], got["error"], got["degradation"] = m.groups()
    return got


def check_outcome(got, ref, journal):
    """Problems with a finished DSE's outcome, ledger and journal."""
    problems = []
    for key in ("chosen", "best", "error", "degradation"):
        if got.get(key) != ref[key]:
            problems.append(f"{key} {got.get(key)!r} != reference {ref[key]!r}")
    rep = got.get("report", {})
    if rep.get("attempted") != ref["jobs"]:
        problems.append(f"attempted {rep.get('attempted')} != {ref['jobs']} jobs")
    if rep.get("attempted") != sum(rep.get(k, 0) for k in ("succeeded", "skipped", "backfilled")):
        problems.append("inconsistent ledger")
    if rep.get("skipped") or rep.get("backfilled"):
        problems.append("skipped or backfilled jobs")
    for key in ("retried", "oracle_calls", "cache_hits"):
        if rep.get(key) != ref[key]:
            problems.append(f"{key} {rep.get(key)} != reference {ref[key]}")
    if not os.path.exists(journal):
        problems.append("no journal")
    elif sha256(journal) != ref["journal_sha256"]:
        problems.append("journal digest differs from the reference")
    return problems


class Bench:
    def __init__(self, workload, seed, bins, work):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.cli, self.driver = bins
        self.work = work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.ops = 0
        self.scenario = os.path.join(work, "scenario.json")
        with open(self.scenario, "w") as f:
            f.write(render(os.path.join(HERE, "scenarios", self.spec["scenario"]), seed))
        self.warm_cache = os.path.join(work, "warm-cache.jsonl")
        self.warm_sha = None

    def child(self, argv):
        self.ops += 1
        out = os.path.join(self.work, f"op{self.ops}.out")
        return Child(argv, out, self.deadline - time.perf_counter())

    def paths(self):
        """Journal and cache paths for the next DSE."""
        journal = os.path.join(self.work, f"journal{self.ops + 1}.jsonl")
        cache = {
            "fresh": os.path.join(self.work, f"cache{self.ops + 1}.jsonl"),
            "warm": self.warm_cache,
            None: None,
        }[self.spec["cache"]]
        return journal, cache

    def run_cli(self, journal, cache):
        argv = [self.cli, "run", "--scenario", self.scenario, "--threads", str(THREADS),
                "--journal", journal]
        return self.child(argv + (["--cache", cache] if cache else []))

    def fill_warm_cache(self, wide_ref):
        """solve_warm's set-up: one cold DSE, which must reproduce
        sim_wide, fills the cache every measured DSE then reads."""
        journal = os.path.join(self.work, "fill.jsonl")
        child = self.run_cli(journal, self.warm_cache)
        problems = check_cli(child, wide_ref, journal)
        self.warm_sha = sha256(self.warm_cache) if os.path.exists(self.warm_cache) else None
        if self.warm_sha != wide_ref["cache_sha256"]:
            problems.append("filled cache digest differs from sim_wide's reference")
        return problems

    def check_cache(self, cache, ref):
        """A fresh cache must publish the reference entries; a warm one
        must come back unchanged."""
        if cache is None:
            return []
        if not os.path.exists(cache):
            return ["no cache file"]
        want = ref["cache_sha256"] if self.spec["cache"] == "fresh" else self.warm_sha
        return [] if sha256(cache) == want else ["cache digest differs from the reference"]

    def finish(self, journal, cache):
        for path in (journal, cache if self.spec["cache"] == "fresh" else None):
            if path and os.path.exists(path):
                os.remove(path)

    def cli_op(self, ref):
        journal, cache = self.paths()
        child = self.run_cli(journal, cache)
        problems = check_cli(child, ref, journal) + self.check_cache(cache, ref)
        self.finish(journal, cache)
        return child, problems

    def traced_op(self, ref):
        journal, cache = self.paths()
        child = self.child([self.driver, "trace", self.scenario, str(THREADS), journal]
                           + ([cache] if cache else []))
        problems, trace = check_traced(child, ref, journal)
        if trace is not None:
            trace["journal_bytes"] = os.path.getsize(journal) if os.path.exists(journal) else 0
            trace["proc_wall_s"] = child.wall_s
        problems += self.check_cache(cache, ref)
        self.finish(journal, cache)
        return trace, problems

    def setup_batch(self):
        child = self.child([self.driver, "setup", self.scenario, str(THREADS),
                            str(self.spec["setup_reps"])])
        if child.code != 0:
            raise RuntimeError(f"driver setup failed: {child.output.strip()}")
        return json.loads(child.output.strip().splitlines()[-1])["setup_s"]


def check_cli(child, ref, journal):
    if child.code != 0:
        return [f"exit code {child.code}: {child.output.strip()[-300:]}"]
    return check_outcome(parse_cli(child.output), ref, journal)


def check_traced(child, ref, journal):
    """Parity of a traced DSE with the CLI's reference, and exact
    counters."""
    if child.code != 0:
        return [f"driver exit code {child.code}: {child.output.strip()[-300:]}"], None
    try:
        trace = json.loads(child.output.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return ["driver printed no result"], None
    problems = check_outcome(trace, ref, journal)
    if not (trace["report"]["consistent"] and trace["report"]["completed"]):
        problems.append("driver ledger incomplete or inconsistent")
    for name, key in COUNTERS.items():
        if trace[key] != ref.get(key):
            problems.append(f"{name} {trace[key]} != reference {ref.get(key)} (count drift)")
    return problems, trace


def layer_metrics(trace):
    """Per-layer numbers of one traced DSE."""
    spans = trace["spans_s"]
    sweep = spans["runner.sweep"]
    busy_s = sum(trace["run_ms"]) / 1e3
    refine = sweep - trace["plan_s"] - trace["assemble_s"]
    # The driver's cache load and ceiling pass are benchmark-only work.
    traced_wall = trace["proc_wall_s"] - trace["cache_load_s"] - trace["ceiling_s"]
    core_cycles = trace["sim_core_cycles"]
    rate = trace["sim_accesses"] / busy_s / 1e6 if busy_s > 0 else 0.0
    ceiling = trace["host_access_per_s"] / 1e6
    return {
        "config.load_ms": spans["config.load"] * 1e3,
        "workloads.generate_ms": spans["workloads.generate"] * 1e3,
        "workloads.characterize_ms": spans["workloads.characterize"] * 1e3,
        "workloads.split_ms": trace["split_s"] * 1e3,
        "core.model_ms": spans["core.model"] * 1e3,
        "core.plan_ms": trace["plan_s"] * 1e3,
        "core.assemble_ms": trace["assemble_s"] * 1e3,
        "sim.busy_ms": busy_s * 1e3,
        "sim.ns_per_core_cycle": busy_s * 1e9 / core_cycles if core_cycles else 0.0,
        "sim.maccess_per_s": rate,
        "sim.host_maccess_per_s": ceiling,
        "sim.ceiling_frac": rate / ceiling if ceiling > 0 else 0.0,
        "phase.detect_ms": spans.get("phase.detect", 0.0) * 1e3,
        "runner.sweep_ms": sweep * 1e3,
        "runner.self_ms": (refine - trace["oracle_busy_s"] / THREADS) * 1e3,
        "runner.parallel_eff": trace["oracle_busy_s"] / (THREADS * refine) if refine > 0 else 0.0,
        "runner.cache_load_ms": trace["cache_load_s"] * 1e3,
        "runner.journal_bytes": trace["journal_bytes"],
        "profile.traced_wall_s": traced_wall,
        "profile.unattributed_frac": (traced_wall - sum(spans.values())) / traced_wall,
    }


def measure(bench, ref, seconds, traced):
    """The closed loop: DSE after DSE for `seconds` of DSE time; with
    `traced`, CLI and traced DSEs alternate. An untraced run spreads
    SETUP_BATCHES set-up batches evenly between its DSEs, so set-up is
    timed in many processes under the same host conditions as the DSEs."""
    clis, traces, setup, failed, n_traced = [], [], [], 0, 0
    busy = batches = 0
    while len(clis) + n_traced < MIN_OPS or busy < seconds:
        if not traced and batches < SETUP_BATCHES and batches <= SETUP_BATCHES * busy / seconds:
            setup += bench.setup_batch()
            batches += 1
            continue
        start = time.perf_counter()
        if traced and n_traced < len(clis):
            n_traced += 1
            trace, problems = bench.traced_op(ref)
            if trace is not None:
                traces.append(trace)
        else:
            child, problems = bench.cli_op(ref)
            clis.append(child)
        busy += time.perf_counter() - start
        if problems:
            failed += 1
            log(f"dsebench: {bench.name} DSE {bench.ops} failed: " + "; ".join(problems))
    for _ in range(batches, 0 if traced else SETUP_BATCHES):
        setup += bench.setup_batch()
    return clis, traces, setup, failed, len(clis) + n_traced


def end_to_end(clis, setup):
    walls = [c.wall_s for c in clis]
    errors = [float(parse_cli(c.output).get("error", "nan")) for c in clis]
    print(f"dse_wall_s: fastest {min(walls):.4f} s of {len(walls)} DSEs "
          f"(median {median(walls):.4f}, max {max(walls):.4f})")
    print(f"setup_s: median {median(setup):.6f} s of {len(setup)} set-ups")
    return {
        "dse_wall_s": min(walls),
        "cpu_s": min(c.cpu_s for c in clis),
        "peak_rss_mb": median([c.rss_mb for c in clis]),
        "setup_s": median(setup),
        "model_error_pct": median(errors),
    }


def per_layer(clis, traces, attempted, failed, phase_mode):
    per_dse = [layer_metrics(t) for t in traces]
    metrics = {name: median([m[name] for m in per_dse]) for name in (per_dse[0] if per_dse else {})}
    first = traces[0] if traces else {}
    for name, key in COUNTERS.items():
        metrics[name] = first.get(key, 0)
    metrics["workloads.accesses"] = first.get("workload_accesses", 0)
    metrics["phase.simulated_frac"] = first.get("simulated_frac", 0.0)
    for key in ("oracle_calls", "cache_hits", "retried", "backfilled"):
        metrics[f"runner.{key}"] = first.get("report", {}).get(key, 0)
    runs = [ms for t in traces for ms in t["run_ms"]]
    pct, value = tail(runs)
    metrics["sim.run_ms_p50"] = median(runs)
    metrics["sim.run_ms_tail"] = value
    metrics["sim.run_tail_pctl"] = pct
    metrics["phase.eval_ms_p50"] = median([ms for t in traces for ms in t["eval_ms"]]) if phase_mode else 0.0
    cli_wall = median([c.wall_s for c in clis])
    metrics["profile.overhead_frac"] = metrics.get("profile.traced_wall_s", cli_wall) / cli_wall - 1.0
    metrics["failed_frac"] = failed / attempted
    print(f"traced: {len(traces)} DSEs with {len(runs)} simulator runs "
          f"(sim.run_ms_tail is their p{pct:g}); untraced: {len(clis)} DSEs")
    return metrics


def record(bench, refs):
    """A reference entry from one CLI DSE and one traced DSE."""
    if bench.spec["cache"] == "warm":
        problems = bench.fill_warm_cache(refs["sim_wide"])
        if problems:
            raise RuntimeError("warm-cache fill: " + "; ".join(problems))
    journal, cache = bench.paths()
    child = bench.run_cli(journal, cache)
    got = parse_cli(child.output)
    if child.code != 0 or "report" not in got or "best" not in got:
        raise RuntimeError(f"CLI DSE failed: {child.output}")
    entry = {key: got[key] for key in ("chosen", "best", "error", "degradation")}
    entry.update({key: got["report"][key] for key in ("retried", "oracle_calls", "cache_hits")})
    entry["jobs"] = got["report"]["attempted"]
    entry["journal_sha256"] = sha256(journal)
    if bench.spec["cache"] == "fresh":
        entry["cache_sha256"] = sha256(cache)
    bench.finish(journal, cache)
    trace, problems = bench.traced_op(entry)
    if trace is None:
        raise RuntimeError("traced DSE failed: " + "; ".join(problems))
    problems = [p for p in problems if "count drift" not in p]
    if problems:
        raise RuntimeError("traced DSE disagrees with the CLI: " + "; ".join(problems))
    entry.update({key: trace[key] for key in COUNTERS.values()})
    return entry


def metric_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        log("dsebench: no c2bound workspace around the benchmark; run it from a full checkout")
        return 2
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    bins = build(target)
    if bins is None:
        log("dsebench: build failed")
        return 1
    refs = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            refs = json.load(f)

    work = os.path.join(ROOT, ".dsebench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(args.workload, args.seed, bins, work)
        if args.record:
            refs[args.workload] = record(bench, refs)
            with open(REFERENCE, "w") as f:
                json.dump(refs, f, indent=2, sort_keys=True)
                f.write("\n")
            log(f"dsebench: recorded the {args.workload} reference")
            return 0
        ref = refs[args.workload]
        failed = attempted = 0
        if bench.spec["cache"] == "warm":
            attempted += 1
            problems = bench.fill_warm_cache(refs["sim_wide"])
            if problems:
                failed += 1
                log("dsebench: warm-cache fill failed: " + "; ".join(problems))
        clis, traces, setup, op_failed, op_attempted = measure(
            bench, ref, args.seconds, args.trace == 1)
        failed += op_failed
        attempted += op_attempted
        if args.trace:
            metrics = per_layer(clis, traces, attempted, failed, args.workload == "phase_estimate")
            units = metric_units("per_layer")
        else:
            metrics, units = end_to_end(clis, setup), metric_units("end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
