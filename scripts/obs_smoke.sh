#!/usr/bin/env bash
# obs_smoke.sh — end-to-end smoke test of the observability surface.
#
# Exercises the streaming-observability tentpole over real HTTP:
#   1. boots the daemon with a trace store and a fine progress cadence,
#   2. scrapes /v1/metrics?format=openmetrics and lints it with
#      scripts/promlint (grammar + required families), and checks the JSON
#      default is still the compact snapshot map,
#   3. records a trace server-side, then replays trace:<key> and checks the
#      report is byte-identical to running the source workload directly,
#   4. tails a running job's SSE stream and requires at least two progress
#      events followed by the terminal done event.
#
# Needs: go, curl, jq.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "obs-smoke: FAIL: $*" >&2
    echo "--- daemon log ---" >&2
    cat "$workdir/serve.log" >&2 || true
    exit 1
}

echo "obs-smoke: building mallacc-serve and mallacc-sim"
go build -o "$workdir/mallacc-serve" ./cmd/mallacc-serve
go build -o "$workdir/mallacc-sim" ./cmd/mallacc-sim

"$workdir/mallacc-serve" -addr 127.0.0.1:0 -cache-dir "$workdir/cache" \
    -trace-dir "$workdir/traces" -progress-every 50000 \
    >"$workdir/serve.log" 2>&1 &
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
echo "obs-smoke: daemon up at $base"

# --- 2. OpenMetrics scrape lints clean; JSON default intact --------------
curl -fsS "$base/v1/metrics?format=openmetrics" >"$workdir/om.txt" \
    || fail "openmetrics scrape failed"
go run ./scripts/promlint \
    -require mallacc_simsvc_jobs_submitted,mallacc_simsvc_cache_hits,mallacc_simsvc_traces_recorded,mallacc_simsvc_sse_streams,mallacc_cpu_memo_hits,mallacc_cpu_memo_misses,mallacc_cpu_memo_resets \
    <"$workdir/om.txt" || fail "exposition failed promlint"
curl -fsS "$base/v1/metrics" | jq -e '."simsvc.jobs.submitted" >= 0' >/dev/null \
    || fail "JSON metrics default lost the compact snapshot map"
ct=$(curl -fsSI "$base/v1/metrics?format=openmetrics" | tr -d '\r' \
    | sed -n 's/^[Cc]ontent-[Tt]ype: //p')
case "$ct" in application/openmetrics-text*) ;; *) fail "openmetrics Content-Type: $ct" ;; esac
echo "obs-smoke: openmetrics exposition lints clean"

# --- 3. record a trace, replay it byte-identically -----------------------
tracewl=$("$workdir/mallacc-sim" -serve "$base" -record-trace \
    -workload ubench.gauss -calls 20000 -seed 1 2>>"$workdir/serve.log") \
    || fail "remote trace record failed"
case "$tracewl" in trace:*) ;; *) fail "record returned no trace key: $tracewl" ;; esac
"$workdir/mallacc-sim" -serve "$base" -workload ubench.gauss -calls 20000 -seed 1 \
    -format json >"$workdir/direct.json" 2>/dev/null || fail "direct run failed"
"$workdir/mallacc-sim" -serve "$base" -workload "$tracewl" -calls 20000 -seed 1 \
    -format json >"$workdir/replay.json" 2>/dev/null || fail "trace replay failed"
cmp -s "$workdir/direct.json" "$workdir/replay.json" \
    || fail "trace replay is not byte-identical to the direct run"
echo "obs-smoke: trace $tracewl replayed byte-identically"

# --- 4. SSE stream delivers progress then done ---------------------------
job=$(curl -fsS -X POST -d '{"workload":"ubench.tp","calls":200000,"seed":9}' \
    "$base/v1/jobs") || fail "submit failed"
id=$(echo "$job" | jq -r .id)
curl -fsS -N --max-time 120 "$base/v1/jobs/$id/events" >"$workdir/events.txt" \
    || fail "event stream failed"
progress=$(grep -c '^event: progress$' "$workdir/events.txt" || true)
[ "$progress" -ge 2 ] || fail "only $progress progress events (want >= 2)"
grep -q '^event: done$' "$workdir/events.txt" || fail "stream had no done event"
echo "obs-smoke: SSE stream delivered $progress progress events and done"

echo "obs-smoke: PASS"
