#!/usr/bin/env bash
# designspace_smoke.sh — determinism smoke test of the design-space study.
#
#   1. runs the designspace experiment (all cataloged strategies at 1..16
#      cores, full telemetry) twice at seed 1 and requires the two JSON
#      reports to be byte-identical,
#   2. checks every cataloged strategy actually contributed runs,
#   3. requires today's report to match the pinned digest
#      results/metrics/designspace.json byte-for-byte, and fails when it is
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
    echo "designspace-smoke: FAIL: $*" >&2
    exit 1
}

echo "designspace-smoke: run 1"
go run ./cmd/mallacc-bench -run designspace -metrics -format json -seed 1 \
    > "$workdir/a.json"
echo "designspace-smoke: run 2"
go run ./cmd/mallacc-bench -run designspace -metrics -format json -seed 1 \
    > "$workdir/b.json"

cmp -s "$workdir/a.json" "$workdir/b.json" \
    || fail "two seed-1 runs differ (determinism contract broken)"
echo "designspace-smoke: seed-1 runs byte-identical ($(wc -c <"$workdir/a.json") bytes)"

for strategy in stock mallacc offload lockfree lockfree+mallacc; do
    grep -q "/$strategy/" "$workdir/a.json" \
        || fail "strategy $strategy missing from the report"
done
echo "designspace-smoke: all 5 strategies present"

pinned=results/metrics/designspace.json
[ -f "$pinned" ] || fail "no pinned digest at $pinned (run 'make baseline' to create it)"
if ! cmp -s "$workdir/a.json" "$pinned"; then
    if command -v jq >/dev/null 2>&1; then
        diff <(jq -S . "$pinned") <(jq -S . "$workdir/a.json") | head -40 >&2 || true
    fi
    fail "report drifted from pinned $pinned (regenerate with 'make baseline' if intentional)"
fi
echo "designspace-smoke: matches pinned $pinned"

echo "designspace-smoke: PASS"
