#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end smoke test for the sharded simulation fleet.
#
# Boots three one-worker mallacc-serve nodes, each with its own disk cache,
# plus a mallacc-coord fronting them, then drives the whole fleet surface
# through mallacc-ctl and curl:
#   1. membership: ctl status reports 3/3 nodes live,
#   2. an uncached job routes to its owning shard and the report is
#      byte-identical to a standalone single-node run of the same spec,
#   3. an identical resubmission is answered from the owner's cache,
#   4. the coordinator's OpenMetrics scrape lints clean and carries the
#      fleet.* router families,
#   5. kill the owning node: a resubmission fails over and recomputes a
#      byte-identical report on another shard,
#   6. restart the owner cold (its disk cache wiped, its memory gone with
#      the process): the next submission peer-fills from the shard that
#      recomputed, observed via fleet.peerfill.hits on the owner's own
#      metrics,
#   7. drain/undrain through ctl redirects new work and restores it,
#   8. spill: two long jobs with the same owner and successor (picked with
#      scripts/ringorder), submitted back to back, run concurrently — the
#      busy owner refuses the second's admit-now and it starts on the
#      successor. The disk caches gain exactly one report per job, and
#      warm resubmits of both are cached, byte-identical, and add no file.
#
# Needs: go, curl, jq.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
declare -A node_pid node_port
coord_pid=""
cleanup() {
    for n in "${!node_pid[@]}"; do kill "${node_pid[$n]}" 2>/dev/null || true; done
    [ -n "$coord_pid" ] && kill "$coord_pid" 2>/dev/null || true
    [ -n "${ref_pid:-}" ] && kill "$ref_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "fleet-smoke: FAIL: $*" >&2
    for log in "$workdir"/*.log; do
        echo "--- $(basename "$log") ---" >&2
        tail -n 40 "$log" >&2 || true
    done
    exit 1
}

echo "fleet-smoke: building binaries"
go build -o "$workdir/mallacc-serve" ./cmd/mallacc-serve
go build -o "$workdir/mallacc-coord" ./cmd/mallacc-coord
go build -o "$workdir/mallacc-ctl" ./cmd/mallacc-ctl

# Pick a free port block: probe with bash's /dev/tcp (connect succeeding
# means the port is taken).
port_free() { ! (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; }
pick_ports() {
    local base try
    for try in $(seq 1 20); do
        base=$((18000 + RANDOM % 20000))
        if port_free "$base" && port_free "$((base+1))" \
            && port_free "$((base+2))" && port_free "$((base+3))"; then
            echo "$base"
            return 0
        fi
    done
    return 1
}
base_port=$(pick_ports) || fail "no free port block found"
coord_port=$base_port
node_port[n1]=$((base_port+1))
node_port[n2]=$((base_port+2))
node_port[n3]=$((base_port+3))
fleet_spec="n1=127.0.0.1:${node_port[n1]},n2=127.0.0.1:${node_port[n2]},n3=127.0.0.1:${node_port[n3]}"

# Each node has one worker, so one running job makes it busy, and persists
# reports under its own cache dir; the spill leg counts the files. The peer-fill leg wipes the killed owner's dir before the
# restart, so the restarted node provably holds nothing.
start_node() {
    local name=$1
    "$workdir/mallacc-serve" -addr "127.0.0.1:${node_port[$name]}" \
        -fleet "$fleet_spec" -self "$name" -workers 1 -cache-dir "$workdir/cache_$name" \
        >>"$workdir/$name.log" 2>&1 &
    node_pid[$name]=$!
}
for n in n1 n2 n3; do start_node "$n"; done

"$workdir/mallacc-coord" -addr "127.0.0.1:$coord_port" -nodes "$fleet_spec" \
    -probe-every 200ms >"$workdir/coord.log" 2>&1 &
coord_pid=$!
coord="http://127.0.0.1:$coord_port"
ctl() { "$workdir/mallacc-ctl" -coord "$coord" "$@"; }

# Wait until the whole fleet is probed live.
for _ in $(seq 1 100); do
    live=$(curl -fsS "$coord/v1/healthz" 2>/dev/null | jq -r .live || echo 0)
    [ "$live" = 3 ] && break
    sleep 0.1
done
[ "$live" = 3 ] || fail "fleet never reached 3 live nodes (live=$live)"

# --- 1. membership via ctl ----------------------------------------------
ctl status >"$workdir/status.txt" || fail "ctl status failed"
grep -q "3/3 nodes live" "$workdir/status.txt" || fail "ctl status does not show 3/3 live"
echo "fleet-smoke: 3/3 nodes live"

# --- 2. uncached job through the coordinator vs standalone node ---------
spec='{"workload":"ubench.gauss","variant":"mallacc","calls":20000,"seed":3}'
job=$(curl -fsS -X POST -d "$spec" "$coord/v1/jobs") || fail "submit failed"
id=$(echo "$job" | jq -r .id)
owner=$(echo "$job" | jq -r .node)
echo "$id" | grep -q "^$owner\." || fail "job id $id lacks node prefix $owner"
for _ in $(seq 1 300); do
    job=$(curl -fsS "$coord/v1/jobs/$id") || fail "poll failed"
    state=$(echo "$job" | jq -r .state)
    case "$state" in
        done) break ;;
        failed|canceled) fail "job finished $state: $(echo "$job" | jq -r .error)" ;;
    esac
    sleep 0.1
done
[ "$state" = done ] || fail "fleet job never finished (last state: $state)"
echo "$job" | jq -S .report >"$workdir/report_fleet.json"
echo "fleet-smoke: job $id done on $owner"

# Standalone reference node, no fleet wiring at all.
"$workdir/mallacc-serve" -addr 127.0.0.1:0 >"$workdir/ref.log" 2>&1 &
ref_pid=$!
ref=""
for _ in $(seq 1 100); do
    ref=$(sed -n 's/^mallacc-serve listening on \(http:\/\/[0-9.:]*\)$/\1/p' \
        "$workdir/ref.log" | head -n1)
    [ -n "$ref" ] && break
    sleep 0.1
done
[ -n "$ref" ] || fail "reference daemon never reported its address"
rjob=$(curl -fsS -X POST -d "$spec" "$ref/v1/jobs") || fail "reference submit failed"
rid=$(echo "$rjob" | jq -r .id)
for _ in $(seq 1 300); do
    rjob=$(curl -fsS "$ref/v1/jobs/$rid") || fail "reference poll failed"
    [ "$(echo "$rjob" | jq -r .state)" = done ] && break
    sleep 0.1
done
echo "$rjob" | jq -S .report >"$workdir/report_ref.json"
cmp -s "$workdir/report_fleet.json" "$workdir/report_ref.json" \
    || fail "fleet report differs from the single-node report"
echo "fleet-smoke: fleet report byte-identical to single-node run"

# --- 3. identical resubmission is a cache hit on the owner ---------------
job2=$(curl -fsS -X POST -d "$spec" "$coord/v1/jobs") || fail "resubmit failed"
[ "$(echo "$job2" | jq -r .cached)" = true ] || fail "resubmission not served from cache"
[ "$(echo "$job2" | jq -r .node)" = "$owner" ] || fail "cached resubmission left the owner"
echo "$job2" | jq -S .report >"$workdir/report_cached.json"
cmp -s "$workdir/report_fleet.json" "$workdir/report_cached.json" \
    || fail "cached report not byte-identical"
echo "fleet-smoke: cached resubmission byte-identical on $owner"

# --- 4. coordinator OpenMetrics scrape lints clean ----------------------
curl -fsS "$coord/v1/metrics?format=openmetrics" \
    | go run ./scripts/promlint -require mallacc_fleet_proxy_requests,mallacc_fleet_proxy_spills \
    || fail "coordinator openmetrics failed promlint"
reqs=$(curl -fsS "$coord/v1/metrics" | jq '."fleet.proxy.requests"')
[ "$reqs" -ge 2 ] || fail "fleet.proxy.requests = $reqs, want >= 2"
echo "fleet-smoke: coordinator openmetrics lints clean (proxy requests: $reqs)"

# --- 5. kill the owner: failover recomputes byte-identically -------------
kill -9 "${node_pid[$owner]}" 2>/dev/null
wait "${node_pid[$owner]}" 2>/dev/null || true
unset "node_pid[$owner]"
job3=$(curl -fsS -X POST -d "$spec" "$coord/v1/jobs") || fail "failover submit failed"
id3=$(echo "$job3" | jq -r .id)
node3=$(echo "$job3" | jq -r .node)
[ "$node3" != "$owner" ] || fail "failover submission routed to the dead owner"
for _ in $(seq 1 300); do
    job3=$(curl -fsS "$coord/v1/jobs/$id3") || fail "failover poll failed"
    [ "$(echo "$job3" | jq -r .state)" = done ] && break
    sleep 0.1
done
echo "$job3" | jq -S .report >"$workdir/report_failover.json"
cmp -s "$workdir/report_fleet.json" "$workdir/report_failover.json" \
    || fail "failover recompute not byte-identical"
echo "fleet-smoke: owner $owner killed, $node3 recomputed byte-identically"

# --- 6. restart the owner cold: peer fill from the recomputing shard -----
rm -rf "$workdir/cache_$owner"
start_node "$owner"
for _ in $(seq 1 100); do
    ok=$(curl -fsS "$coord/v1/healthz" \
        | jq -r --arg n "$owner" '.nodes[] | select(.name==$n) | .state == "healthy"')
    [ "$ok" = true ] && break
    sleep 0.1
done
[ "$ok" = true ] || fail "restarted owner never came back healthy"
job4=$(curl -fsS -X POST -d "$spec" "$coord/v1/jobs") || fail "post-restart submit failed"
[ "$(echo "$job4" | jq -r .node)" = "$owner" ] || fail "post-restart submission avoided the owner"
[ "$(echo "$job4" | jq -r .cached)" = true ] || fail "post-restart submission was not served as cached"
echo "$job4" | jq -S .report >"$workdir/report_fill.json"
cmp -s "$workdir/report_fleet.json" "$workdir/report_fill.json" \
    || fail "peer-filled report not byte-identical"
hits=$(curl -fsS "http://127.0.0.1:${node_port[$owner]}/v1/metrics" | jq '."fleet.peerfill.hits"')
[ "$hits" -ge 1 ] || fail "fleet.peerfill.hits = $hits on $owner, want >= 1"
echo "fleet-smoke: restarted $owner peer-filled from the fleet (hits: $hits)"

# --- 7. drain / undrain through ctl --------------------------------------
ctl drain "$owner" 2>"$workdir/drain.txt" || fail "ctl drain failed"
draining=""
for _ in $(seq 1 50); do
    if ctl status 2>/dev/null | grep -q "$owner .*draining"; then
        draining=yes
        break
    fi
    sleep 0.1
done
[ "$draining" = yes ] || fail "ctl status does not show $owner draining"
job5=$(curl -fsS -X POST -d "$spec" "$coord/v1/jobs") || fail "submit while drained failed"
[ "$(echo "$job5" | jq -r .node)" != "$owner" ] || fail "drained node still receives work"
ctl undrain "$owner" 2>>"$workdir/drain.txt" || fail "ctl undrain failed"
for _ in $(seq 1 50); do
    live=$(curl -fsS "$coord/v1/healthz" 2>/dev/null | jq -r .live || echo 0)
    [ "$live" = 3 ] && break
    sleep 0.1
done
[ "$live" = 3 ] || fail "fleet not 3/3 live after undrain (live=$live)"
ctl status | grep -q "3/3 nodes live" || fail "ctl status not 3/3 live after undrain"
echo "fleet-smoke: drain redirected work off $owner, undrain restored it"

# --- 8. spill: the busy owner's second job starts on its successor -------
long='{"workload":"ubench.gauss","variant":"mallacc","calls":600000,"seed":%d}'
read -r seed_a seed_b spill_owner spill_succ < <(
    for s in $(seq 100 160); do printf "$long\n" "$s"; done \
        | go run ./scripts/ringorder n1 n2 n3 \
        | awk '{ k = $2 " " $3; if (k in first) { print first[k], NR + 99, $2, $3; exit } first[k] = NR + 99 }'
) || fail "no two seeds share an owner and successor"
cache_files() { find "$workdir"/cache_* -maxdepth 1 -name '*.json' | wc -l; }
await_done() {
    local id=$1 job state
    for _ in $(seq 1 300); do
        job=$(curl -fsS "$coord/v1/jobs/$id") || fail "poll of $id failed"
        state=$(echo "$job" | jq -r .state)
        case "$state" in
            done) echo "$job"; return 0 ;;
            failed|canceled) fail "job $id finished $state: $(echo "$job" | jq -r .error)" ;;
        esac
        sleep 0.1
    done
    fail "job $id never finished (last state: $state)"
}
files0=$(cache_files)
seeds=("$seed_a" "$seed_b")
spill_ids=()
for seed in "${seeds[@]}"; do
    j=$(curl -fsS -X POST -d "$(printf "$long" "$seed")" "$coord/v1/jobs") || fail "spill submit failed"
    spill_ids+=("$(echo "$j" | jq -r .id)")
done
echo "${spill_ids[0]}" | grep -q "^$spill_owner\." \
    || fail "first job ${spill_ids[0]} did not start on owner $spill_owner"
echo "${spill_ids[1]}" | grep -q "^$spill_succ\." \
    || fail "second job ${spill_ids[1]} did not spill to successor $spill_succ"
for i in 0 1; do
    await_done "${spill_ids[$i]}" | jq -S .report >"$workdir/spill_$i.json"
done
[ "$(cache_files)" -eq "$((files0 + 2))" ] \
    || fail "disk caches went from $files0 to $(cache_files) reports for 2 jobs"
for i in 0 1; do
    j=$(curl -fsS -X POST -d "$(printf "$long" "${seeds[$i]}")" "$coord/v1/jobs") || fail "warm resubmit failed"
    [ "$(echo "$j" | jq -r .cached)" = true ] || fail "warm resubmit of seed ${seeds[$i]} not cached"
    echo "$j" | jq -S .report | cmp -s - "$workdir/spill_$i.json" \
        || fail "warm resubmit of seed ${seeds[$i]} not byte-identical"
done
[ "$(cache_files)" -eq "$((files0 + 2))" ] \
    || fail "warm resubmits changed the disk caches to $(cache_files) reports, want $((files0 + 2))"
spills=$(curl -fsS "$coord/v1/metrics" | jq '."fleet.proxy.spills"')
[ "$spills" -ge 1 ] || fail "fleet.proxy.spills = $spills, want >= 1"
echo "fleet-smoke: ${spill_ids[1]} spilled from busy $spill_owner to $spill_succ; warm resubmits cached, one disk report per job"

echo "fleet-smoke: PASS"
