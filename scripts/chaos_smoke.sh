#!/usr/bin/env bash
# chaos_smoke.sh — fault-injection smoke test for the service stack.
#
# Two parts:
#   1. The in-process chaos harness (internal/faults/chaostest): baseline
#      reports fault-free, replays the same specs under seeded faults on
#      job execution / cache IO / HTTP, and asserts byte-identical
#      reports, retries, retry exhaustion + resubmission, and quarantine
#      healing.
#   2. The real binaries end-to-end: mallacc-serve booted with -faults,
#      driven by mallacc-sim -serve with client-side faults armed via
#      $MALLACC_FAULTS. Two runs of the same spec must print identical
#      reports despite both sides of the HTTP hop failing.
#
# Needs: go. The harness is deterministic per seed (default 7; pass one
# as $1 or set CHAOS_SEED).
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-${CHAOS_SEED:-7}}"

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "chaos-smoke: FAIL: $*" >&2
    echo "--- daemon log ---" >&2
    cat "$workdir/serve.log" >&2 || true
    exit 1
}

# --- 1. in-process chaos harness ----------------------------------------
echo "chaos-smoke: running chaostest (seed $seed)"
go run ./internal/faults/chaostest "$seed" || fail "chaostest failed"

# --- 2. real binaries under faults on both sides of the hop -------------
echo "chaos-smoke: building binaries"
go build -o "$workdir/mallacc-serve" ./cmd/mallacc-serve
go build -o "$workdir/mallacc-sim" ./cmd/mallacc-sim

"$workdir/mallacc-serve" -h 2>&1 | grep -q -- '-faults' \
    || fail "mallacc-serve -h does not document -faults"

# Server: transient failures on job execution and cache IO. Client (via
# env): transport-looking failures on its outbound requests.
server_faults="seed=$seed;simsvc.exec,prob=0.3;simsvc.cache.read,prob=0.2;simsvc.cache.write,prob=0.2"
client_faults="seed=$seed;remote.http,prob=0.2"

"$workdir/mallacc-serve" -addr 127.0.0.1:0 -cache-dir "$workdir/cache" \
    -faults "$server_faults" >"$workdir/serve.log" 2>&1 &
server_pid=$!
base=""
for _ in $(seq 1 100); do
    base=$(sed -n 's/^mallacc-serve listening on \(http:\/\/[0-9.:]*\)$/\1/p' \
        "$workdir/serve.log" | head -n1)
    [ -n "$base" ] && break
    kill -0 "$server_pid" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.1
done
[ -n "$base" ] || fail "daemon never reported its listen address"
grep -q "FAULT INJECTION ACTIVE" "$workdir/serve.log" \
    || fail "daemon did not announce fault injection"
echo "chaos-smoke: faulted daemon up at $base"

run_sim() {
    MALLACC_FAULTS="$client_faults" "$workdir/mallacc-sim" \
        -serve "$base" -workload ubench.gauss -variant mallacc \
        -calls 20000 -seed 1 -format json
}
run_sim >"$workdir/out1.json" 2>"$workdir/err1.log" \
    || fail "first faulted run failed: $(cat "$workdir/err1.log")"
run_sim >"$workdir/out2.json" 2>"$workdir/err2.log" \
    || fail "second faulted run failed: $(cat "$workdir/err2.log")"
cmp -s "$workdir/out1.json" "$workdir/out2.json" \
    || fail "faulted runs printed different reports"
[ -s "$workdir/out1.json" ] || fail "faulted run printed an empty report"
echo "chaos-smoke: two faulted end-to-end runs byte-identical"

kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
[ "$rc" -eq 0 ] || fail "faulted daemon exited $rc on SIGTERM"

echo "chaos-smoke: PASS"
