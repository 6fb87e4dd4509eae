#!/usr/bin/env bash
# scale_smoke.sh — determinism smoke test of the multicore relay
# scheduler.
#
# The multicore engine runs each simulated core's shard as a coroutine and
# hands a turn token between them at epoch boundaries; its determinism
# contract is that telemetry is a pure function of (seed, core count) no
# matter how the Go runtime schedules the experiment's concurrent cluster
# cells. This script stresses exactly that axis:
#
#   1. runs the seed-1 scale experiment (1..16 cores) at GOMAXPROCS=1 —
#      every cell on a single P — and at the host's full
#      GOMAXPROCS, and requires the two JSON reports to be byte-identical,
#   2. requires both reports to match the pinned digest
#      results/metrics/multicore.json byte-for-byte, and fails when it is
#      missing (regenerate with `make baseline` after an intentional
#      simulator change).
#
# Needs: go. jq is used for nicer diagnostics when present.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

fail() {
    echo "scale-smoke: FAIL: $*" >&2
    exit 1
}

echo "scale-smoke: run at GOMAXPROCS=1"
GOMAXPROCS=1 go run ./cmd/mallacc-bench -run scale -format json -seed 1 \
    > "$workdir/p1.json"
echo "scale-smoke: run at host GOMAXPROCS"
go run ./cmd/mallacc-bench -run scale -format json -seed 1 \
    > "$workdir/pn.json"

cmp -s "$workdir/p1.json" "$workdir/pn.json" \
    || fail "GOMAXPROCS=1 and full-width runs differ (scheduler nondeterminism)"
echo "scale-smoke: reports byte-identical across GOMAXPROCS ($(wc -c <"$workdir/p1.json") bytes)"

pinned=results/metrics/multicore.json
[ -f "$pinned" ] || fail "no pinned digest at $pinned (run 'make baseline' to create it)"
if ! cmp -s "$workdir/p1.json" "$pinned"; then
    if command -v jq >/dev/null 2>&1; then
        diff <(jq -S . "$pinned") <(jq -S . "$workdir/p1.json") | head -40 >&2 || true
    fi
    fail "report drifted from pinned $pinned (regenerate with 'make baseline' if intentional)"
fi
echo "scale-smoke: matches pinned $pinned"

echo "scale-smoke: PASS"
