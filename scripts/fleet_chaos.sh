#!/usr/bin/env bash
# fleet_chaos.sh — chaos test for the sharded simulation fleet.
#
# Runs the same parameter-grid sweep twice through mallacc-ctl:
#   1. a clean 3-node fleet, no faults — the reference report set;
#   2. a fresh fleet with seeded fault injection on every hop — mallacc-ctl
#      fails its own remote.http client attempts (via $MALLACC_FAULTS), the
#      coordinator fails fleet.proxy requests, the nodes fail job
#      execution and fleet.fill peer fetches — and one node kill -9'd
#      mid-sweep to force live failover.
# Reports are content-addressed (<job-key>.json), so the two output
# directories must match file-for-file and byte-for-byte: retries,
# failover, and peer-fill misses may cost time, never change answers.
#
# Needs: go, curl, jq. Deterministic per seed (default 7; pass one as
# $1 or set CHAOS_SEED).
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-${CHAOS_SEED:-7}}"
grid='workload=ubench.gauss,ubench.tp_small;variant=baseline,mallacc;seed=5,6;calls=8000'
points=8

workdir=$(mktemp -d)
declare -A node_pid
coord_pid=""
cleanup() {
    for n in "${!node_pid[@]}"; do kill -9 "${node_pid[$n]}" 2>/dev/null || true; done
    [ -n "$coord_pid" ] && kill "$coord_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "fleet-chaos: FAIL: $*" >&2
    for log in "$workdir"/*.log; do
        echo "--- $(basename "$log") ---" >&2
        tail -n 40 "$log" >&2 || true
    done
    exit 1
}

echo "fleet-chaos: building binaries"
go build -o "$workdir/mallacc-serve" ./cmd/mallacc-serve
go build -o "$workdir/mallacc-coord" ./cmd/mallacc-coord
go build -o "$workdir/mallacc-ctl" ./cmd/mallacc-ctl

port_free() { ! (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; }
pick_ports() {
    local base try p
    for try in $(seq 1 20); do
        base=$((18000 + RANDOM % 20000))
        for p in 0 1 2 3; do port_free "$((base+p))" || continue 2; done
        echo "$base"
        return 0
    done
    return 1
}

# start_fleet <label> <node faults spec> <coord faults spec>
# Boots 3 memory-only nodes plus a coordinator and waits for 3/3 live.
# Sets $coord; pids land in node_pid[]/coord_pid for kill/cleanup.
start_fleet() {
    local label=$1 node_faults=$2 coord_faults=$3
    local base fleet_spec n port live
    base=$(pick_ports) || fail "no free port block found"
    fleet_spec="n1=127.0.0.1:$((base+1)),n2=127.0.0.1:$((base+2)),n3=127.0.0.1:$((base+3))"
    for n in 1 2 3; do
        port=$((base+n))
        "$workdir/mallacc-serve" -addr "127.0.0.1:$port" \
            -fleet "$fleet_spec" -self "n$n" \
            ${node_faults:+-faults "$node_faults"} \
            >"$workdir/$label-n$n.log" 2>&1 &
        node_pid[n$n]=$!
    done
    "$workdir/mallacc-coord" -addr "127.0.0.1:$base" -nodes "$fleet_spec" \
        -probe-every 200ms ${coord_faults:+-faults "$coord_faults"} \
        >"$workdir/$label-coord.log" 2>&1 &
    coord_pid=$!
    coord="http://127.0.0.1:$base"
    for _ in $(seq 1 100); do
        live=$(curl -fsS "$coord/v1/healthz" 2>/dev/null | jq -r .live || echo 0)
        [ "$live" = 3 ] && break
        sleep 0.1
    done
    [ "$live" = 3 ] || fail "$label fleet never reached 3 live nodes (live=$live)"
}

stop_fleet() {
    local n
    for n in "${!node_pid[@]}"; do
        kill -9 "${node_pid[$n]}" 2>/dev/null || true
        wait "${node_pid[$n]}" 2>/dev/null || true
        unset "node_pid[$n]"
    done
    kill "$coord_pid" 2>/dev/null || true
    wait "$coord_pid" 2>/dev/null || true
    coord_pid=""
}

# --- 1. clean reference sweep -------------------------------------------
echo "fleet-chaos: reference sweep on a clean fleet ($points points)"
start_fleet clean "" ""
"$workdir/mallacc-ctl" -coord "$coord" sweep -grid "$grid" \
    -out "$workdir/reports_clean" -parallel 4 \
    >"$workdir/sweep_clean.log" 2>&1 || fail "clean sweep failed"
got=$(ls "$workdir/reports_clean" | wc -l)
[ "$got" = "$points" ] || fail "clean sweep wrote $got reports, want $points"
stop_fleet
echo "fleet-chaos: clean sweep done"

# --- 2. faulted sweep with a mid-sweep node kill ------------------------
node_faults="seed=$seed;simsvc.exec,prob=0.15;fleet.fill,prob=0.3"
coord_faults="seed=$seed;fleet.proxy,prob=0.15"
ctl_faults="seed=$seed;remote.http,prob=0.15"
echo "fleet-chaos: faulted sweep (node: $node_faults | coord: $coord_faults | ctl: $ctl_faults)"
start_fleet chaos "$node_faults" "$coord_faults"
grep -q "FAULT INJECTION ACTIVE" "$workdir/chaos-coord.log" \
    || fail "coordinator did not announce fault injection"

mkdir -p "$workdir/reports_chaos"
MALLACC_FAULTS="$ctl_faults" "$workdir/mallacc-ctl" -coord "$coord" sweep -grid "$grid" \
    -out "$workdir/reports_chaos" -parallel 2 -retries 4 \
    >"$workdir/sweep_chaos.log" 2>&1 &
sweep_pid=$!

# Kill a node once the sweep is demonstrably under way (first report
# written), so failover happens with work in flight.
for _ in $(seq 1 300); do
    [ -n "$(ls -A "$workdir/reports_chaos" 2>/dev/null)" ] && break
    kill -0 "$sweep_pid" 2>/dev/null || break
    sleep 0.1
done
victim=n2
kill -9 "${node_pid[$victim]}" 2>/dev/null
wait "${node_pid[$victim]}" 2>/dev/null || true
unset "node_pid[$victim]"
echo "fleet-chaos: killed $victim mid-sweep"

wait "$sweep_pid" || fail "faulted sweep failed: $(tail -n 20 "$workdir/sweep_chaos.log")"
grep -q "FAULT INJECTION ACTIVE" "$workdir/sweep_chaos.log" \
    || fail "mallacc-ctl did not announce fault injection"
got=$(ls "$workdir/reports_chaos" | wc -l)
[ "$got" = "$points" ] || fail "faulted sweep wrote $got reports, want $points"
stop_fleet
echo "fleet-chaos: faulted sweep completed all $points points despite the kill"

# --- 3. the two report sets must be byte-identical ----------------------
mkdir -p "$workdir/norm_clean" "$workdir/norm_chaos"
for f in "$workdir/reports_clean"/*.json; do
    jq -S . "$f" >"$workdir/norm_clean/$(basename "$f")"
done
for f in "$workdir/reports_chaos"/*.json; do
    jq -S . "$f" >"$workdir/norm_chaos/$(basename "$f")"
done
diff -r "$workdir/norm_clean" "$workdir/norm_chaos" \
    || fail "faulted sweep reports differ from the clean reference"
echo "fleet-chaos: all $points reports byte-identical to the clean reference"

echo "fleet-chaos: PASS"
