#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test for the mallacc-serve daemon.
#
# Exercises the full client path over real HTTP:
#   1. boots the daemon on an ephemeral loopback port,
#   2. submits a job with curl and polls it to completion,
#   3. resubmits the identical spec and checks the answer is served from
#      the cache with a byte-identical report and simsvc.cache.hits > 0,
#   4. builds mallacc-sim and requires its stdout to be byte-identical run
#      locally and with -serve, for a run spec and a 4-core cluster spec,
#      in text, json and csv, with and without -metrics; and requires a
#      spec the daemon rejects (mc_entries 5000: HTTP 400) to make local
#      mallacc-sim exit non-zero too,
#   5. sends SIGTERM while a long job is in flight and checks the daemon
#      drains cleanly with exit code 0,
#   6. recomputes the service digest (mallacc-serve -digest: five seed-1
#      run jobs through a fresh in-memory service, then again from its
#      cache) and requires it to be byte-identical to the pinned
#      results/metrics/simsvc.json.
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
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- daemon log ---" >&2
    cat "$workdir/serve.log" >&2 || true
    exit 1
}

echo "serve-smoke: building mallacc-serve"
go build -o "$workdir/mallacc-serve" ./cmd/mallacc-serve

start_daemon() {
    "$workdir/mallacc-serve" -addr 127.0.0.1:0 -cache-dir "$workdir/cache" \
        >"$workdir/serve.log" 2>&1 &
    server_pid=$!
    # The daemon logs "mallacc-serve listening on http://<addr>" once the
    # listener is up; wait for it and parse the base URL.
    base=""
    for _ in $(seq 1 100); do
        base=$(sed -n 's/^mallacc-serve listening on \(http:\/\/[0-9.:]*\)$/\1/p' \
            "$workdir/serve.log" | head -n1)
        [ -n "$base" ] && break
        kill -0 "$server_pid" 2>/dev/null || fail "daemon exited during startup"
        sleep 0.1
    done
    [ -n "$base" ] || fail "daemon never reported its listen address"
}

start_daemon
echo "serve-smoke: daemon up at $base"

spec='{"workload":"ubench.gauss","variant":"mallacc","calls":20000,"seed":1}'

# --- 2. submit and poll -------------------------------------------------
job=$(curl -fsS -X POST -d "$spec" "$base/v1/jobs") || fail "submit failed"
id=$(echo "$job" | jq -r .id)
state=$(echo "$job" | jq -r .state)
[ "$state" = queued ] || [ "$state" = running ] || [ "$state" = done ] \
    || fail "unexpected submit state: $state"

for _ in $(seq 1 300); do
    job=$(curl -fsS "$base/v1/jobs/$id") || fail "poll failed"
    state=$(echo "$job" | jq -r .state)
    case "$state" in
        done) break ;;
        failed|canceled) fail "job finished $state: $(echo "$job" | jq -r .error)" ;;
    esac
    sleep 0.1
done
[ "$state" = done ] || fail "job never finished (last state: $state)"
echo "$job" | jq .report >"$workdir/report1.json"
echo "serve-smoke: job $id done"

# --- 3. identical resubmission must be a cache hit ----------------------
job2=$(curl -fsS -X POST -d "$spec" "$base/v1/jobs") || fail "resubmit failed"
[ "$(echo "$job2" | jq -r .state)" = done ] || fail "resubmission not served as done"
[ "$(echo "$job2" | jq -r .cached)" = true ] || fail "resubmission not marked cached"
echo "$job2" | jq .report >"$workdir/report2.json"
cmp -s "$workdir/report1.json" "$workdir/report2.json" \
    || fail "cached report is not byte-identical"

hits=$(curl -fsS "$base/v1/metrics" | jq '."simsvc.cache.hits"')
[ "$hits" -ge 1 ] || fail "simsvc.cache.hits = $hits, want >= 1"
echo "serve-smoke: cached resubmission byte-identical (cache hits: $hits)"

# The OpenMetrics exposition of the same registry must lint clean and
# carry the scheduler's core family.
curl -fsS "$base/v1/metrics?format=openmetrics" \
    | go run ./scripts/promlint -require mallacc_simsvc_jobs_submitted \
    || fail "openmetrics exposition failed promlint"
echo "serve-smoke: openmetrics exposition lints clean"

# --- 4. mallacc-sim prints the same bytes locally and via the daemon -----
go build -o "$workdir/mallacc-sim" ./cmd/mallacc-sim
for cores in 1 4; do
    for format in text json csv; do
        for metrics in "" -metrics; do
            args=(-workload ubench.gauss -variant mallacc -calls 20000 -cores "$cores" -format "$format" $metrics)
            "$workdir/mallacc-sim" "${args[@]}" >"$workdir/local.out" \
                || fail "local mallacc-sim ${args[*]} failed"
            "$workdir/mallacc-sim" -serve "$base" "${args[@]}" >"$workdir/remote.out" 2>/dev/null \
                || fail "mallacc-sim -serve ${args[*]} failed"
            cmp -s "$workdir/local.out" "$workdir/remote.out" \
                || fail "mallacc-sim ${args[*]}: local and -serve output differ"
        done
    done
done
bad='{"workload":"ubench.gauss","variant":"mallacc","mc_entries":5000}'
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST -d "$bad" "$base/v1/jobs") \
    || fail "submit of the out-of-range spec failed"
[ "$code" = 400 ] || fail "daemon answered mc_entries 5000 with HTTP $code, want 400"
if "$workdir/mallacc-sim" -workload ubench.gauss -variant mallacc -entries 5000 >/dev/null 2>&1; then
    fail "local mallacc-sim accepted -entries 5000, which the daemon rejects"
fi
echo "serve-smoke: mallacc-sim output identical locally and via -serve; both reject -entries 5000"

# --- 5. SIGTERM with a job in flight drains cleanly ---------------------
long=$(curl -fsS -X POST -d '{"experiment":"fig13"}' "$base/v1/jobs") \
    || fail "long submit failed"
lid=$(echo "$long" | jq -r .id)
# Give the worker a beat to pick it up, then ask the daemon to stop.
sleep 0.3
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
[ "$rc" -eq 0 ] || fail "daemon exited $rc on SIGTERM (job $lid in flight)"
grep -q "drained cleanly" "$workdir/serve.log" || fail "daemon did not log a clean drain"
echo "serve-smoke: SIGTERM drained cleanly with job $lid in flight"

# --- 6. the service digest matches the pinned one -----------------------
"$workdir/mallacc-serve" -digest >"$workdir/simsvc.json" || fail "-digest failed"
cmp -s "$workdir/simsvc.json" results/metrics/simsvc.json \
    || fail "service digest differs from results/metrics/simsvc.json"
echo "serve-smoke: service digest matches results/metrics/simsvc.json"

echo "serve-smoke: PASS"
