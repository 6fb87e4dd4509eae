#!/usr/bin/env bash
# membership_chaos.sh — chaos test for dynamic fleet membership.
#
# Reference leg: a static 3-node fleet (-nodes seed, no join protocol)
# sweeps the parameter grid; its report set is the ground truth.
#
# Idle leg: once the three self-joined nodes are live on both
# coordinators of a dynamic fleet (two gossiping coordinators, nodes that
# join themselves at startup with -coord, no -nodes anywhere), both
# membership epochs must hold still for 3 s — about 15 probe, gossip and
# re-announce rounds. Liveness is not a view change.
#
# Churn leg: the same dynamic fleet runs the sweep while the membership
# is deliberately shaken:
#   - a fourth node joins mid-sweep,
#   - one node is killed -9 (the failure detector must declare it dead
#     and rebuild the ring),
#   - one coordinator is killed and restarted cold (it must relearn the
#     fleet from the nodes' re-announced joins and peer gossip).
# The sweep must still complete with a report set byte-identical to the
# static reference: churn may cost time, never change answers.
#
# Drain leg: after a warm-up sweep seeds every report onto its ring
# owner, one node is drained with --handoff (its cache is pushed to the
# new owners before it deregisters). A final sweep through the restarted
# coordinator must then be answered entirely from caches and peer fills:
# simsvc.runcache.misses — which moves only when a simulation actually
# executes — must stay flat on every survivor. Graceful departures
# recompute nothing.
#
# Needs: go, curl, jq.
set -euo pipefail
cd "$(dirname "$0")/.."

grid='workload=ubench.gauss,ubench.tp_small;variant=baseline,mallacc;seed=5,6;calls=8000'
points=8

workdir=$(mktemp -d)
declare -A node_pid node_port
coordA_pid=""
coordB_pid=""
cleanup() {
    for n in "${!node_pid[@]}"; do kill -9 "${node_pid[$n]}" 2>/dev/null || true; done
    [ -n "$coordA_pid" ] && kill "$coordA_pid" 2>/dev/null || true
    [ -n "$coordB_pid" ] && kill "$coordB_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "membership-chaos: FAIL: $*" >&2
    for log in "$workdir"/*.log; do
        echo "--- $(basename "$log") ---" >&2
        tail -n 40 "$log" >&2 || true
    done
    exit 1
}

echo "membership-chaos: building binaries"
go build -o "$workdir/mallacc-serve" ./cmd/mallacc-serve
go build -o "$workdir/mallacc-coord" ./cmd/mallacc-coord
go build -o "$workdir/mallacc-ctl" ./cmd/mallacc-ctl

port_free() { ! (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; }
pick_ports() {
    local base try p
    for try in $(seq 1 20); do
        base=$((18000 + RANDOM % 20000))
        for p in 0 1 2 3 4 5 6 7 8 9; do port_free "$((base+p))" || continue 2; done
        echo "$base"
        return 0
    done
    return 1
}
base=$(pick_ports) || fail "no free port block found"

wait_live() { # wait_live <coord url> <count> <label>
    local url=$1 want=$2 label=$3 live=0
    for _ in $(seq 1 150); do
        live=$(curl -fsS "$url/v1/healthz" 2>/dev/null | jq -r .live || echo 0)
        [ "$live" = "$want" ] && return 0
        sleep 0.1
    done
    fail "$label never reached $want live nodes (live=$live)"
}

run_sweep() { # run_sweep <coord url> <out dir> <log>
    mkdir -p "$2"
    "$workdir/mallacc-ctl" -coord "$1" sweep -grid "$grid" \
        -out "$2" -parallel 2 -retries 4 >"$workdir/$3" 2>&1
}

check_reports() { # check_reports <dir> <label> — count + byte-identity vs reference
    local got
    got=$(ls "$1" | wc -l)
    [ "$got" = "$points" ] || fail "$2 wrote $got reports, want $points"
    mkdir -p "$1.norm"
    local f
    for f in "$1"/*.json; do jq -S . "$f" >"$1.norm/$(basename "$f")"; done
    diff -r "$workdir/reports_ref.norm" "$1.norm" \
        || fail "$2 reports differ from the static reference"
}

# --- 1. reference sweep on a static fleet -------------------------------
echo "membership-chaos: reference sweep on a static 3-node fleet"
static_spec="s1=127.0.0.1:$((base+1)),s2=127.0.0.1:$((base+2)),s3=127.0.0.1:$((base+3))"
for n in 1 2 3; do
    "$workdir/mallacc-serve" -addr "127.0.0.1:$((base+n))" \
        -fleet "$static_spec" -self "s$n" >"$workdir/static-s$n.log" 2>&1 &
    node_pid[s$n]=$!
done
"$workdir/mallacc-coord" -addr "127.0.0.1:$base" -nodes "$static_spec" \
    -probe-every 200ms >"$workdir/static-coord.log" 2>&1 &
coordA_pid=$!
wait_live "http://127.0.0.1:$base" 3 "static fleet"
run_sweep "http://127.0.0.1:$base" "$workdir/reports_ref" sweep_ref.log \
    || fail "reference sweep failed"
got=$(ls "$workdir/reports_ref" | wc -l)
[ "$got" = "$points" ] || fail "reference sweep wrote $got reports, want $points"
mkdir -p "$workdir/reports_ref.norm"
for f in "$workdir/reports_ref"/*.json; do
    jq -S . "$f" >"$workdir/reports_ref.norm/$(basename "$f")"
done
for n in s1 s2 s3; do
    kill -9 "${node_pid[$n]}" 2>/dev/null || true
    wait "${node_pid[$n]}" 2>/dev/null || true
    unset "node_pid[$n]"
done
kill "$coordA_pid" 2>/dev/null || true
wait "$coordA_pid" 2>/dev/null || true
coordA_pid=""
echo "membership-chaos: reference set ready ($points reports)"

# --- 2. dynamic fleet: zero-config nodes, gossiping coordinator pair ----
portA=$((base+4)); portB=$((base+5))
coordA="http://127.0.0.1:$portA"; coordB="http://127.0.0.1:$portB"
start_coord() { # start_coord <A|B> — pid lands in coordA_pid/coordB_pid
    local which=$1 port peer
    if [ "$which" = A ]; then port=$portA; peer=$coordB; else port=$portB; peer=$coordA; fi
    "$workdir/mallacc-coord" -addr "127.0.0.1:$port" -peers "$peer" \
        -probe-every 200ms -suspect-after 1s -dead-after 2s -gossip-every 200ms \
        >>"$workdir/coord$which.log" 2>&1 &
    eval "coord${which}_pid=$!"
}
start_node() { # start_node <name> <port> — joins both coordinators itself
    node_port[$1]=$2
    "$workdir/mallacc-serve" -addr "127.0.0.1:$2" -self "$1" \
        -coord "$coordA,$coordB" -heartbeat-every 200ms \
        >>"$workdir/$1.log" 2>&1 &
    node_pid[$1]=$!
}
start_coord A
start_coord B
start_node d1 $((base+6))
start_node d2 $((base+7))
start_node d3 $((base+8))
wait_live "$coordA" 3 "dynamic fleet (coord A)"
wait_live "$coordB" 3 "dynamic fleet (coord B)"
epoch=$(curl -fsS "$coordA/v1/healthz" | jq -r .epoch)
[ "$epoch" -ge 3 ] || fail "coord A epoch $epoch after 3 joins, want >= 3"
"$workdir/mallacc-ctl" -coord "$coordA" status >"$workdir/status1.txt" \
    || fail "ctl status failed"
grep -q "3/3 nodes live (epoch" "$workdir/status1.txt" \
    || fail "ctl status does not show 3/3 live with an epoch"
echo "membership-chaos: 3 nodes self-joined both coordinators (epoch $epoch)"

# --- 2b. idle: probes, gossip and re-announces must not move the epochs -
healthz_epoch() { curl -fsS "$1/v1/healthz" | jq -r .epoch; }
# Let the join-time gossip settle: both sides adopt the larger epoch.
for _ in $(seq 1 50); do
    epochA=$(healthz_epoch "$coordA"); epochB=$(healthz_epoch "$coordB")
    [ "$epochA" = "$epochB" ] && break
    sleep 0.1
done
sleep 3.2
idleA=$(healthz_epoch "$coordA"); idleB=$(healthz_epoch "$coordB")
[ "$idleA" = "$epochA" ] && [ "$idleB" = "$epochB" ] \
    || fail "idle epochs moved in 3s: coord A $epochA -> $idleA, coord B $epochB -> $idleB"
echo "membership-chaos: idle epochs held for 3s (A $idleA, B $idleB)"

# --- 3. sweep under churn: join + kill -9 + coordinator restart ---------
run_sweep "$coordA" "$workdir/reports_churn" sweep_churn.log &
sweep_pid=$!
for _ in $(seq 1 300); do
    [ -n "$(ls -A "$workdir/reports_churn" 2>/dev/null)" ] && break
    kill -0 "$sweep_pid" 2>/dev/null || break
    sleep 0.1
done

start_node d4 $((base+9))
echo "membership-chaos: d4 joining mid-sweep"
kill -9 "${node_pid[d2]}" 2>/dev/null
wait "${node_pid[d2]}" 2>/dev/null || true
unset "node_pid[d2]"
echo "membership-chaos: killed d2 mid-sweep"
kill "$coordB_pid" 2>/dev/null || true
wait "$coordB_pid" 2>/dev/null || true
start_coord B
echo "membership-chaos: restarted coordinator B cold"

wait "$sweep_pid" || fail "churn sweep failed: $(tail -n 20 "$workdir/sweep_churn.log")"
check_reports "$workdir/reports_churn" "churn sweep"
echo "membership-chaos: churn sweep byte-identical to the static reference"

# Both coordinators converge on the post-churn view: d1/d3/d4 live, d2
# dead. The restarted B relearns everything from re-announces and gossip.
wait_live "$coordA" 3 "post-churn fleet (coord A)"
wait_live "$coordB" 3 "post-churn fleet (coord B, restarted)"
d2state=""
for _ in $(seq 1 100); do
    d2state=$(curl -fsS "$coordA/v1/healthz" \
        | jq -r '.nodes[] | select(.name=="d2") | .state')
    [ "$d2state" = dead ] && break
    sleep 0.1
done
[ "$d2state" = dead ] || fail "d2 state on coord A is '$d2state', want dead"
echo "membership-chaos: failure detector declared d2 dead; coord B relearned the fleet"

# --- 4. warm sweep seeds every report onto its current ring owner -------
# (Reports d2 computed died with it; recomputes are expected and allowed
# here. Afterwards every key is cached on its owner in the d1/d3/d4 ring.)
run_sweep "$coordB" "$workdir/reports_warm" sweep_warm.log \
    || fail "warm sweep failed: $(tail -n 20 "$workdir/sweep_warm.log")"
check_reports "$workdir/reports_warm" "warm sweep"

# --- 5. graceful drain with hand-off: d3 departs, zero recomputes after -
misses_before=0
for n in d1 d4; do
    m=$(curl -fsS "http://127.0.0.1:${node_port[$n]}/v1/metrics" \
        | jq '."simsvc.runcache.misses"')
    misses_before=$((misses_before + m))
done
"$workdir/mallacc-ctl" -coord "$coordB" drain -handoff d3 \
    2>"$workdir/drain.txt" || fail "ctl drain -handoff failed"
grep -q "handoff d3: .* 0 failed" "$workdir/drain.txt" \
    || fail "hand-off reported failures: $(cat "$workdir/drain.txt")"
handoffs=$(curl -fsS "$coordB/v1/metrics" | jq '."fleet.membership.handoffs"')
[ "$handoffs" -ge 1 ] || fail "fleet.membership.handoffs = $handoffs, want >= 1"
kill "${node_pid[d3]}" 2>/dev/null || true
wait "${node_pid[d3]}" 2>/dev/null || true
unset "node_pid[d3]"
wait_live "$coordB" 2 "post-drain fleet"
echo "membership-chaos: d3 drained with hand-off and deregistered ($(grep -o 'handoff d3: .*' "$workdir/drain.txt"))"

run_sweep "$coordB" "$workdir/reports_final" sweep_final.log \
    || fail "post-drain sweep failed: $(tail -n 20 "$workdir/sweep_final.log")"
check_reports "$workdir/reports_final" "post-drain sweep"
misses_after=0
for n in d1 d4; do
    m=$(curl -fsS "http://127.0.0.1:${node_port[$n]}/v1/metrics" \
        | jq '."simsvc.runcache.misses"')
    misses_after=$((misses_after + m))
done
[ "$misses_after" = "$misses_before" ] \
    || fail "survivors recomputed after graceful drain: runcache.misses $misses_before -> $misses_after"
echo "membership-chaos: post-drain sweep recomputed nothing (runcache.misses flat at $misses_after)"

echo "membership-chaos: PASS"
