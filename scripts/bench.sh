#!/usr/bin/env bash
# bench.sh — the simulator's reproducible performance baseline.
#
# Full mode (default):
#   - runs every microbenchmark suite (cpu scheduler, cache hierarchy,
#     micro-op emitter, tcmalloc fast path, multicore engine, simulation
#     service) in BENCH_COUNT passes of -count=1 -benchmem, so each pass
#     times a benchmark right next to its twin and a contention or steal
#     episode lands on both sides of a gate ratio rather than on one
#     (with -count=5 the five runs of one side went back to back, about
#     a minute before the other side's),
#   - summarizes with benchstat when it is installed (no hard dependency),
#   - writes BENCH_baseline.json with the measured numbers, each next to
#     its frozen ...Reference twin timed in the same run where it has one,
#     and
#   - gates on the core per-cycle microbenchmark (>=3.5x vs its
#     frozen map-based reference twin, both measured in this run, and zero
#     allocations per scheduled call), on the schedule memo's hit path
#     (memo_gate: >=1.8x for the same warm replay on the same core with a
#     memo attached over it without one, both measured in this run, and
#     zero allocations per replayed call), on the cache hierarchy's random
#     footprint touch (cachesim_gate: >=1.5x vs its frozen reference twin,
#     both measured in this run), on the micro-op emitter's fast-path
#     sequence (emit_gate: >=1.5x vs its frozen literal-copying reference
#     twin, both measured in this run) and on the multicore engine's
#     allocations per run, with its simulated cores taken from and
#     returned to cpu's core pool and its heap storage to the pools of
#     mem, tcmalloc and uop (engine_gate: allocs/op and bytes/op may not
#     exceed the recorded ceilings, which a run that builds its cores'
#     cache hierarchies or its heap storage afresh exceeds several times
#     over)
#     (BENCH_NO_GATE=1 skips all five).
#   - records the host's core count (nproc) and the GOMAXPROCS the
#     benchmarks ran at.
#
# Smoke mode (--smoke, used by CI): one iteration of every benchmark, no
# file writes, no gating — it only proves the benchmarks still compile and
# run.
#
# Environment: BENCH_OUT (output path, default BENCH_baseline.json),
# BENCH_COUNT (passes, default 5), BENCH_NO_GATE=1.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
for a in "$@"; do
    case "$a" in
        --smoke) MODE=smoke ;;
        *) echo "usage: $0 [--smoke]" >&2; exit 2 ;;
    esac
done

PKGS=(./internal/cpu ./internal/cachesim ./internal/uop ./internal/tcmalloc ./internal/multicore ./internal/simsvc ./internal/lockfree ./internal/offload)
OUT=${BENCH_OUT:-BENCH_baseline.json}
COUNT=${BENCH_COUNT:-5}

if [ "$MODE" = smoke ]; then
    exec go test -run '^$' -bench . -benchmem -benchtime=1x "${PKGS[@]}"
fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

for pass in $(seq 1 "$COUNT"); do
    echo "== pass $pass/$COUNT =="
    go test -run '^$' -bench . -benchmem -count=1 "${PKGS[@]}"
done | tee "$RAW"

if command -v benchstat >/dev/null 2>&1; then
    echo
    echo "== benchstat =="
    benchstat "$RAW"
fi

awk -v out="$OUT" -v count="$COUNT" \
    -v gover="$(go version | awk '{print $3}')" \
    -v nproc="$(nproc)" -v procs="${GOMAXPROCS:-$(nproc)}" \
    -v nogate="${BENCH_NO_GATE:-0}" '
# Before figures come only from the same run: a benchmark with a
# <name>Reference twin (the cpu RunTrace ones, whose twins run the frozen
# scheduler in internal/cpu/reference_test.go, the cachesim ones, whose
# twins run the frozen model in internal/cachesim/reference_test.go, and
# the uop emitter one, whose twin runs the frozen emitter in
# internal/uop/reference_test.go) takes the twin ns/op as its before
# figure; the others report none.
BEGIN {
    # Engine-lifecycle ceilings: allocs/op of a whole engine run (the path
    # simsvc cluster jobs and designspace cells take), whose simulated
    # cores come from and go back to the core pool of package cpu, and
    # whose heap takes its word tables, page-map nodes and emitter slabs
    # from and returns them to the pools of mem, tcmalloc and uop: the
    # worst of 28 runs at GOMAXPROCS 2, plus about 1.5%. The counts are
    # near-deterministic: only allocations inside the Go runtime (the
    # goroutine records behind the per-core coroutines) vary, by a few per
    # op at 16 cores, so any real growth fails the gate.
    max_allocs["BenchmarkEngine4CoreBaseline"] = 1059
    max_allocs["BenchmarkEngine4CoreMallacc"]  = 1243
    max_allocs["BenchmarkEngineRelay16Core"]   = 3670
    # bytes/op ceilings for the same runs: the worst of those 28 runs and
    # the five passes of one full bench run, plus 10% (a collection may
    # empty the pools mid-benchmark; the 16-core runs spread by 9%). Heap
    # storage built afresh each run (broken heap pools) allocates about
    # 1.14, 1.18 and 2.9 MB per op here, 3.2x, 2.9x and 2.0x these
    # ceilings; cores built afresh, 4.0 and 14.9 MB.
    max_bytes["BenchmarkEngine4CoreBaseline"] = 356973
    max_bytes["BenchmarkEngine4CoreMallacc"]  = 409607
    max_bytes["BenchmarkEngineRelay16Core"]   = 1445749
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { order[++n] = name; seen[name] = 1; ns[name] = 1e308 }
    for (i = 3; i + 1 <= NF; i += 2) {
        v = $i + 0; u = $(i + 1)
        if (u == "ns/op")          { if (v < ns[name]) ns[name] = v }
        else if (u == "B/op")      { if (v > bpo[name]) bpo[name] = v }
        else if (u == "allocs/op") { if (v > apo[name]) apo[name] = v }
    }
}
END {
    for (i = 1; i <= n; i++) {
        twin = order[i] "Reference"
        if (twin in ns) before[order[i]] = ns[twin]
    }
    printf "{\n" > out
    printf "  \"schema\": \"mallacc-bench-baseline/v1\",\n" >> out
    printf "  \"generated_by\": \"scripts/bench.sh\",\n" >> out
    printf "  \"go_version\": \"%s\",\n", gover >> out
    printf "  \"nproc\": %d,\n", nproc >> out
    printf "  \"gomaxprocs\": %d,\n", procs >> out
    printf "  \"count\": %d,\n", count >> out
    printf "  \"note\": \"before = the frozen ...Reference twin of a benchmark (the map-based cpu scheduler, the stamped cachesim hierarchy or the literal-copying uop emitter), measured in the same run; benchmarks without a twin carry no before figure. The suites run in count passes of -count=1, so each pass times a benchmark next to its twin; ns_per_op is the best of the passes, bytes/allocs per op are the worst observed. Shared-VM noise floor is roughly +/-30 percent run to run, so only ratios measured in one run are compared. gate divides the frozen map-based scheduler by the current one on the warm fast-path replay, both timed in this run. memo_gate divides that replay on a core without a schedule memo by the same replay on a core with one (every call a memo hit), both timed in this run. cachesim_gate divides the frozen stamped hierarchy by the current one, both timed in this run. emit_gate divides the frozen literal-copying emitter by the current one on a 33-op fast-path sequence, both timed in this run. engine_gate bounds allocs/op and bytes/op of whole multicore engine runs over pooled simulated cores and pooled heap storage (BenchmarkEngine4Core*, BenchmarkEngineRelay16Core) by recorded ceilings and times nothing.\",\n" >> out
    printf "  \"benchmarks\": {\n" >> out
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %g, \"bytes_per_op\": %d, \"allocs_per_op\": %d", \
            name, ns[name], bpo[name] + 0, apo[name] + 0 >> out
        if (name in before) {
            printf ", \"before_ns_per_op\": %g, \"speedup\": %.2f", \
                before[name], before[name] / ns[name] >> out
        }
        printf "}%s\n", (i < n ? "," : "") >> out
    }
    printf "  },\n" >> out
    # Scheduler gate: the warm fast-path replay must stay >=3.5x faster than
    # the frozen map-based scheduler, both timed in this run, with zero
    # allocations per call.
    core = "BenchmarkRunTraceFastPath"
    sp = (core in ns && (core "Reference") in ns) ? ns[core "Reference"] / ns[core] : 0
    pass = (sp >= 3.5 && apo[core] + 0 == 0) ? "true" : "false"
    printf "  \"gate\": {\"benchmark\": \"%s\", \"reference\": \"%sReference\", \"min_speedup\": 3.5, \"speedup\": %.2f, \"allocs_per_op\": %d, \"pass\": %s}\n", \
        core, core, sp, apo[core] + 0, pass >> out

    # Memo gate: the warm fast-path replay on a core with a schedule memo
    # (every call a hit: pass 1 plus the replay) must stay >=1.8x faster
    # than on the same core without one, both timed in this run, with zero
    # allocations per call.
    memo = "BenchmarkRunTraceFastPathMemo"
    msp = (core in ns && memo in ns) ? ns[core] / ns[memo] : 0
    memo_pass = (msp >= 1.8 && apo[memo] + 0 == 0) ? "true" : "false"
    printf "  ,\"memo_gate\": {\"benchmark\": \"%s\", \"reference\": \"%s\", \"min_speedup\": 1.8, \"speedup\": %.2f, \"allocs_per_op\": %d, \"pass\": %s}\n", \
        memo, core, msp, apo[memo] + 0, memo_pass >> out

    # Cache-hierarchy gate: a driver-style random footprint touch must stay
    # >=1.5x faster than the frozen stamped model, both timed in this run.
    touch = "BenchmarkHierarchyTouchRandom"
    tsp = (touch in ns && (touch "Reference") in ns) ? ns[touch "Reference"] / ns[touch] : 0
    cache_pass = (tsp >= 1.5) ? "true" : "false"
    printf "  ,\"cachesim_gate\": {\"benchmark\": \"%s\", \"reference\": \"%sReference\", \"min_speedup\": 1.5, \"speedup\": %.2f, \"pass\": %s}\n", \
        touch, touch, tsp, cache_pass >> out

    # Emitter gate: the fast-path emit sequence, written in place, must stay
    # >=1.5x faster than the frozen emitter that copies a stack literal
    # per op, both timed in this run.
    emit = "BenchmarkEmitFastPath"
    esp = (emit in ns && (emit "Reference") in ns) ? ns[emit "Reference"] / ns[emit] : 0
    emit_pass = (esp >= 1.5) ? "true" : "false"
    printf "  ,\"emit_gate\": {\"benchmark\": \"%s\", \"reference\": \"%sReference\", \"min_speedup\": 1.5, \"speedup\": %.2f, \"pass\": %s}\n", \
        emit, emit, esp, emit_pass >> out

    # Engine-lifecycle gate: an engine run over pooled cores must not
    # allocate more objects or bytes than its recorded ceilings.
    eng_pass = "true"
    printf "  ,\"engine_gate\": {\"benchmarks\": {" >> out
    efirst = 1
    for (name in max_allocs) {
        eok = (name in apo && apo[name] + 0 <= max_allocs[name] && bpo[name] + 0 <= max_bytes[name]) ? "true" : "false"
        if (eok != "true") eng_pass = "false"
        printf "%s\"%s\": {\"allocs_per_op\": %d, \"max_allocs_per_op\": %d, \"bytes_per_op\": %d, \"max_bytes_per_op\": %d, \"pass\": %s}", \
            (efirst ? "" : ", "), name, apo[name] + 0, max_allocs[name], bpo[name] + 0, max_bytes[name], eok >> out
        efirst = 0
        printf "engine gate: %s %d allocs/op (cap %d), %d B/op (cap %d): %s\n", \
            name, apo[name] + 0, max_allocs[name], bpo[name] + 0, max_bytes[name], eok
    }
    printf "}, \"pass\": %s}\n", eng_pass >> out

    printf "}\n" >> out
    close(out)
    printf "\nwrote %s\n", out
    printf "gate: %s speedup %.2fx over its reference (floor 3.5x), %d allocs/op\n", core, sp, apo[core] + 0
    printf "memo gate: %s speedup %.2fx over %s (floor 1.8x), %d allocs/op\n", memo, msp, core, apo[memo] + 0
    printf "cachesim gate: %s speedup %.2fx over its reference (floor 1.5x)\n", touch, tsp
    printf "emit gate: %s speedup %.2fx over its reference (floor 1.5x)\n", emit, esp
    if ((pass != "true" || memo_pass != "true" || cache_pass != "true" || emit_pass != "true" || eng_pass != "true") && nogate != "1") {
        print "BENCH GATE FAILED (set BENCH_NO_GATE=1 to bypass)" > "/dev/stderr"
        exit 1
    }
}
' "$RAW"
