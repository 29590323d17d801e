#!/usr/bin/env bash
# Workspace gate: formatted, lint-clean (clippy, warnings denied) and
# all tests green. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt (check) =="
cargo fmt --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (whole workspace, warnings denied: a link to a deleted name fails) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== one FNV-1a implementation (c2_config::fnv1a; the vendored proptest shim is exempt) =="
# Journal headers, cache addresses and screening seeds all bind FNV-1a
# values, so a second hand-written copy of the hash in library code is
# a second place an identity can drift. Its offset basis gives it away.
copies="$(grep -rlE --include='*.rs' '0xcbf2_?9ce4_?8422_?2325' crates/*/src src \
    | grep -v -e '^crates/config/src/scenario\.rs$' -e '^crates/proptest/' || true)"
if [ -n "${copies}" ]; then
    echo "error: FNV-1a offset basis outside crates/config/src/scenario.rs:" ${copies} >&2
    exit 1
fi

echo "== c2bound-tool: one exit, no stdout print macros =="
# `main` is the one place the CLI reports a failure and exits, and every
# subcommand writes through the stdout handle `main` passes it: a
# `println!` panics when stdout cannot be written, and a second
# `process::exit` is a second way to report a failure.
tool=src/bin/c2bound-tool.rs
exits="$(grep -c 'process::exit' "${tool}" || true)"
prints="$(grep -nE '(^|[^[:alnum:]_])print(ln)?!' "${tool}" || true)"
if [ "${exits}" -gt 1 ] || [ -n "${prints}" ]; then
    echo "error: ${tool} holds ${exits} process::exit (at most 1) and these print macros:" >&2
    echo "${prints}" >&2
    exit 1
fi

echo "== tests =="
# Every test target of every crate, the root package's included, and
# none is #[ignore]d: the runner engine's integration tests, the crash
# matrix and the law validation harness run here, and only here.
cargo test --workspace -q

echo "== simulator micro-benchmarks (one pass; writes no record) =="
# Clippy builds the bench targets, but only this step runs them: a case
# that panics or no longer builds its input fails here.
cargo bench -q -p c2-bench --bench sim_benches

echo "== benchmark driver (builds against the library calls the benchmark uses) =="
cargo build --locked --offline -q --manifest-path dsebench/driver/Cargo.toml

echo "== benchmark correctness gate (every workload vs dsebench/reference.json) =="
# The only check of the 512-core simulator's exact counters and of the
# CLI's journal and cache digests (a few CLI and traced DSEs each).
# solve_warm is the warm-cache read path: 100/100 hits, its own journal
# digest, and the cache file coming back unchanged.
for w in sim_wide phase_estimate solve_warm; do
    result="$(python3 dsebench/run.py --workload "${w}" --seed 1 --seconds 1 --trace 1 | tail -n 1)"
    if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "${result}"; then
        echo "error: benchmark gate failed on ${w}: ${result}" >&2
        exit 1
    fi
done

echo "== scenario files (validate + smoke run) =="
cargo build -q --bin c2bound-tool
for sc in examples/scenarios/*.json dsebench/scenarios/*.json; do
    echo "-- validate ${sc}"
    cargo run -q --bin c2bound-tool -- scenario validate "${sc}" > /dev/null
done
smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT
cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
    --metrics-out "${smoke_dir}/metrics.json" > /dev/null
test -s "${smoke_dir}/metrics.json"

echo "== solver health (quick.json: a clean KKT split, no failed rung, no fallback) =="
grep -q '"name":"cascade.accepted"[^}]*"quality":"clean"' "${smoke_dir}/metrics.json"
if grep -q -e 'cascade.rung_failed' -e 'aps_split_fallback_total' "${smoke_dir}/metrics.json"; then
    echo "error: the quick.json split solve failed a rung or fell back to Nelder-Mead" >&2
    exit 1
fi

echo "== sharded bit-identity (1 vs 4 threads, quick.json and phase_estimate.json) =="
# phase_estimate.json is the shipped run whose threads share point-memo
# entries (15 of its 20 evaluations reuse another's simulator runs);
# the benchmark's scenario is only read here.
for scenario in examples/scenarios/quick.json dsebench/scenarios/phase_estimate.json; do
    name=$(basename "${scenario}" .json)
    for t in 1 4; do
        cargo run -q --bin c2bound-tool -- run --scenario "${scenario}" \
            --threads "${t}" \
            --journal "${smoke_dir}/journal-${name}-t${t}.jsonl" \
            --metrics-out "${smoke_dir}/metrics-${name}-t${t}.json" > /dev/null
    done
    cmp "${smoke_dir}/journal-${name}-t1.jsonl" "${smoke_dir}/journal-${name}-t4.jsonl"
    cmp "${smoke_dir}/metrics-${name}-t1.json" "${smoke_dir}/metrics-${name}-t4.json"
done

echo "== phase mode with a cache (cold, then warm, phase_estimate.json) =="
# A cold --cache run journals what the cache-less run above did, the
# warm rerun answers all 20 evaluations from the cache, and the file
# holds only the header and evaluation entries.
phase_cache="${smoke_dir}/phase-cache.jsonl"
for pass in cold warm; do
    cargo run -q --bin c2bound-tool -- run --scenario dsebench/scenarios/phase_estimate.json \
        --threads 1 --cache "${phase_cache}" \
        --journal "${smoke_dir}/phase-cache-${pass}.jsonl" > "${smoke_dir}/phase-cache-${pass}.out"
done
cmp "${smoke_dir}/journal-phase_estimate-t1.jsonl" "${smoke_dir}/phase-cache-cold.jsonl"
grep -q " 20 cache hits," "${smoke_dir}/phase-cache-warm.out"
if grep -q c2phase "${phase_cache}"; then
    echo "error: the evaluation cache holds a c2phase line" >&2
    exit 1
fi

echo "== default engine path (paper_scale.json: workers 2, threads 0) =="
# Without --threads the scenario runs on runner.workers sharded threads:
# two flag-less runs and a --threads 1 run must write the same bytes.
paper_run() {
    cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/paper_scale.json \
        --journal "${smoke_dir}/paper-$1.jsonl" \
        --metrics-out "${smoke_dir}/paper-$1.json" "${@:2}" > /dev/null
}
paper_run a
paper_run b
paper_run t1 --threads 1
for run in b t1; do
    cmp "${smoke_dir}/paper-a.jsonl" "${smoke_dir}/paper-${run}.jsonl"
    cmp "${smoke_dir}/paper-a.json" "${smoke_dir}/paper-${run}.json"
done

echo "== CLI crash/resume smoke (quick.json, three crash points) =="
# --checkpoint-every 1 makes every record a flush-and-fsync boundary,
# so the run makes 20 storage writes: the header, nine record appends
# and the 10-line canonical rewrite. Kill the engine early (write 3: a
# record append), inside the canonical rewrite (write 12), and at the
# last write (write 20); resume each on honest storage and demand bytes
# identical to the clean run. No journal may hold a `c2ckpt` line.
no_checkpoint_lines() {
    if grep -qs c2ckpt "$@"; then
        echo "error: a journal holds a c2ckpt line: $*" >&2
        exit 1
    fi
}
clean="${smoke_dir}/crash-clean"
cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
    --threads 2 --checkpoint-every 1 \
    --journal "${clean}.jsonl" --metrics-out "${clean}.json" > /dev/null
for n in 3 12 20; do
    out="${smoke_dir}/crash-n${n}"
    if cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
        --threads 2 --checkpoint-every 1 --chaos "crash-at=${n},seed=${n}" \
        --journal "${out}.jsonl" > /dev/null 2>&1; then
        echo "error: chaos crash-at=${n} did not fire" >&2
        exit 1
    fi
    no_checkpoint_lines "${out}.jsonl" "${out}.jsonl.tmp"
    cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
        --threads 2 --checkpoint-every 1 --resume \
        --journal "${out}.jsonl" --metrics-out "${out}.json" > /dev/null
    cmp "${clean}.jsonl" "${out}.jsonl"
    cmp "${clean}.json" "${out}.json"
done
no_checkpoint_lines "${smoke_dir}"/crash-*.jsonl

echo "== serve daemon smoke (two tenants, drain mid-run, resume, bit-identity) =="
serve_dir="${smoke_dir}/serve-jobs"
serve_log="${smoke_dir}/serve.log"
variant="${smoke_dir}/quick-variant.json"
sed 's/"size": *16/"size": 12/' examples/scenarios/quick.json > "${variant}"
cargo run -q --bin c2bound-tool -- serve --addr 127.0.0.1:0 \
    --dir "${serve_dir}" --executors 1 > "${serve_log}" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^serving on //p' "${serve_log}")"
    [ -n "${addr}" ] && break
    sleep 0.1
done
if [ -z "${addr}" ]; then
    echo "error: serve daemon never reported an address" >&2
    exit 1
fi
# Two concurrent clients, then a drain while their jobs are running or
# queued. The daemon must exit 0 (enforced by `wait` under `set -e`).
cargo run -q --bin c2bound-tool -- submit --addr "${addr}" --tenant a \
    --scenario examples/scenarios/quick.json > /dev/null &
client_a=$!
cargo run -q --bin c2bound-tool -- submit --addr "${addr}" --tenant b \
    --scenario "${variant}" > /dev/null &
client_b=$!
wait "${client_a}" "${client_b}"
# A hostile body, 64 KiB of nested `[`, costs one 422 and not the
# daemon: the JSON reader caps nesting instead of recursing off the
# connection thread's stack. The daemon must then still answer.
nested="${smoke_dir}/nested.json"
head -c 65536 /dev/zero | tr '\0' '[' > "${nested}"
if cargo run -q --bin c2bound-tool -- submit --addr "${addr}" \
    --scenario "${nested}" 2> "${smoke_dir}/nested.err"; then
    echo "error: the daemon accepted 64 KiB of nested [" >&2
    exit 1
fi
grep -q 'rejected with 422' "${smoke_dir}/nested.err"
cargo run -q --bin c2bound-tool -- status --addr "${addr}" > /dev/null
cargo run -q --bin c2bound-tool -- shutdown --addr "${addr}" --wait > /dev/null
wait "${serve_pid}"
# Resume the backlog the drain left behind, then demand every job's
# artifacts match a one-shot run of its persisted scenario.
cargo run -q --bin c2bound-tool -- serve --dir "${serve_dir}" \
    --resume --drain-on-idle --executors 1 > /dev/null
for job in job0001 job0002; do
    grep -q '"state":"completed"' "${serve_dir}/${job}.outcome.json"
    cargo run -q --bin c2bound-tool -- run \
        --scenario "${serve_dir}/${job}.scenario.json" --threads 1 \
        --journal "${smoke_dir}/${job}.oneshot.jsonl" \
        --metrics-out "${smoke_dir}/${job}.oneshot.json" > /dev/null
    cmp "${serve_dir}/${job}.journal.jsonl" "${smoke_dir}/${job}.oneshot.jsonl"
    cmp "${serve_dir}/${job}.metrics.json" "${smoke_dir}/${job}.oneshot.json"
done

echo "== oracle-mode smoke (phase vs full, quick.json) =="
for mode in full phase; do
    cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
        --oracle-mode "${mode}" \
        --journal "${smoke_dir}/oracle-${mode}.jsonl" \
        --metrics-out "${smoke_dir}/oracle-${mode}.json" > /dev/null
    test -s "${smoke_dir}/oracle-${mode}.json"
done
# The two modes must never alias: the oracle mode is bound into the
# scenario fingerprint, which every journal record carries.
if cmp -s "${smoke_dir}/oracle-full.jsonl" "${smoke_dir}/oracle-phase.jsonl"; then
    echo "error: phase-mode journal must carry a distinct fingerprint" >&2
    exit 1
fi

echo "== model backends + roofline (gpu_sm.json, DESIGN.md SS14) =="
# The checked-in GPU scenario (validated by the loop above) runs
# end-to-end with a roofline report + metrics, and the roofline bytes
# match the pinned golden.
cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/gpu_sm.json \
    --threads 1 \
    --roofline-out "${smoke_dir}/gpu-roofline.json" \
    --metrics-out "${smoke_dir}/gpu-metrics.json" > /dev/null
test -s "${smoke_dir}/gpu-metrics.json"
cmp tests/golden/gpu_sm_roofline.json "${smoke_dir}/gpu-roofline.json"
cargo run -q --bin c2bound-tool -- roofline "${smoke_dir}/gpu-roofline.json" > /dev/null
# GPU sweeps are deterministic across the sharded engine's thread
# counts: 1 vs 4 threads must be bit-identical (journal + roofline).
for t in 1 4; do
    cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/gpu_sm.json \
        --threads "${t}" \
        --journal "${smoke_dir}/gpu-journal-t${t}.jsonl" \
        --roofline-out "${smoke_dir}/gpu-roofline-t${t}.json" > /dev/null
done
cmp "${smoke_dir}/gpu-journal-t1.jsonl" "${smoke_dir}/gpu-journal-t4.jsonl"
cmp "${smoke_dir}/gpu-roofline-t1.json" "${smoke_dir}/gpu-roofline-t4.json"
# A served gpu job emits the identical roofline: `roofline_out` is an
# operational (non-semantic) key, so the scenario fingerprint — and
# therefore the report bytes — match the one-shot golden exactly.
gpu_variant="${smoke_dir}/gpu-serve-scenario.json"
sed "s|\"roofline_out\": null|\"roofline_out\": \"${smoke_dir}/serve-roofline.json\"|" \
    examples/scenarios/gpu_sm.json > "${gpu_variant}"
gpu_serve_log="${smoke_dir}/gpu-serve.log"
cargo run -q --bin c2bound-tool -- serve --addr 127.0.0.1:0 \
    --dir "${smoke_dir}/gpu-serve-jobs" --executors 1 > "${gpu_serve_log}" &
gpu_serve_pid=$!
gpu_addr=""
for _ in $(seq 1 100); do
    gpu_addr="$(sed -n 's/^serving on //p' "${gpu_serve_log}")"
    [ -n "${gpu_addr}" ] && break
    sleep 0.1
done
if [ -z "${gpu_addr}" ]; then
    echo "error: gpu serve daemon never reported an address" >&2
    exit 1
fi
cargo run -q --bin c2bound-tool -- submit --addr "${gpu_addr}" --tenant gpu \
    --scenario "${gpu_variant}" --wait > /dev/null
cargo run -q --bin c2bound-tool -- shutdown --addr "${gpu_addr}" --wait > /dev/null
wait "${gpu_serve_pid}"
cmp tests/golden/gpu_sm_roofline.json "${smoke_dir}/serve-roofline.json"

echo "== every law on paper_scale.json (feasible skeleton, no dead jobs) =="
for law in amdahl memory-wall usl; do
    cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/paper_scale.json \
        --law "${law}" > "${smoke_dir}/law-${law}.out"
    grep -q "^chosen:" "${smoke_dir}/law-${law}.out"
    grep -q " 0 skipped + 0 backfilled " "${smoke_dir}/law-${law}.out"
done

echo "== surrogate screening smoke (screened vs full, paper_scale.json) =="
# A screened sweep must stay under the scenario's true-evaluation
# budget and still report a chosen design; the full run is the
# reference enumeration over the same document. paper_scale.json
# screens 64 of its 100 candidates in 7 rounds, so the acquisition
# rounds run (quick.json's 9 candidates all fit in the seeding round).
cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/paper_scale.json \
    --threads 1 > "${smoke_dir}/screen-full.out"
grep -q "^chosen:" "${smoke_dir}/screen-full.out"
if grep -q "^screen report:" "${smoke_dir}/screen-full.out"; then
    echo "error: unscreened run printed a screen report" >&2
    exit 1
fi

echo "== screened bit-identity (1 vs 4 threads, paper_scale.json) =="
for t in 1 4; do
    cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/paper_scale.json \
        --threads "${t}" --screen \
        --journal "${smoke_dir}/screen-journal-t${t}.jsonl" \
        --metrics-out "${smoke_dir}/screen-metrics-t${t}.json" > "${smoke_dir}/screen-t${t}.out"
done
grep -q "^chosen:" "${smoke_dir}/screen-t1.out"
grep -q "^screen report: 64 true evaluations of 100 candidates" "${smoke_dir}/screen-t1.out"
cmp "${smoke_dir}/screen-journal-t1.jsonl" "${smoke_dir}/screen-journal-t4.jsonl"
cmp "${smoke_dir}/screen-metrics-t1.json" "${smoke_dir}/screen-metrics-t4.json"
# Screening is bound into the journal identity: the screened and full
# journals over the same scenario must never alias.
if cmp -s "${smoke_dir}/paper-t1.jsonl" "${smoke_dir}/screen-journal-t1.jsonl"; then
    echo "error: screened journal must carry a distinct identity" >&2
    exit 1
fi

echo "== screened evaluation cache (cold, then warm, paper_scale.json) =="
# A screened run reads and publishes runner.cache like a full sweep:
# the warm rerun serves all 64 true evaluations from the cache.
for pass in cold warm; do
    cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/paper_scale.json \
        --screen --cache "${smoke_dir}/screen-cache.jsonl" > "${smoke_dir}/screen-${pass}.out"
done
grep -q " 0 cache hits," "${smoke_dir}/screen-cold.out"
grep -q " 64 cache hits," "${smoke_dir}/screen-warm.out"

echo "== unchanged cache is not republished (full sweep twice, paper_scale.json) =="
# The second run serves all 100 jobs from the cache and adds no entry,
# so it leaves the file as it found it: same bytes, same inode (no temp
# file renamed over it).
full_cache="${smoke_dir}/full-cache.jsonl"
cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/paper_scale.json \
    --cache "${full_cache}" > "${smoke_dir}/full-cache-cold.out"
cp "${full_cache}" "${smoke_dir}/full-cache-cold.jsonl"
cold_inode="$(stat -c %i "${full_cache}")"
cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/paper_scale.json \
    --cache "${full_cache}" > "${smoke_dir}/full-cache-warm.out"
grep -q " 100 cache hits," "${smoke_dir}/full-cache-warm.out"
cmp "${full_cache}" "${smoke_dir}/full-cache-cold.jsonl"
if [ "$(stat -c %i "${full_cache}")" != "${cold_inode}" ]; then
    echo "error: an all-hit run replaced the cache file" >&2
    exit 1
fi

# Each bench smoke rewrites its checked-in record with this host's
# timings. Keep the committed copies and put them back on any exit, so
# CI leaves the checkout clean; removing each record first makes the
# `test -s` show that the bench wrote a fresh one.
records="${smoke_dir}/bench-records"
mkdir "${records}"
cp BENCH_sweep.json BENCH_phase.json "${records}/"
trap 'cp "${records}"/BENCH_*.json . && rm -rf "${smoke_dir}"' EXIT

echo "== sweep benchmark smoke (writes BENCH_sweep.json, then restored) =="
rm BENCH_sweep.json
cargo bench -q -p c2-bench --bench sweep_benches > /dev/null
test -s BENCH_sweep.json

echo "== scaling smoke (1 vs 8 threads + phase cut, writes BENCH_phase.json, then restored) =="
# The bench itself enforces the floors (>=5x at 8 threads, >=1.5x
# per-oracle cut).
rm BENCH_phase.json
cargo bench -q -p c2-bench --bench phase_benches > /dev/null
test -s BENCH_phase.json

echo "== examples (build + smoke run) =="
cargo build -q --examples
for ex in examples/*.rs; do
    name="$(basename "${ex%.rs}")"
    echo "-- ${name}"
    cargo run -q --example "${name}" > /dev/null
done

echo "OK"
