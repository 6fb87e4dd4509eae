#!/usr/bin/env bash
# baseline_smoke.sh — determinism smoke test of the experiment grid.
#
# An experiment job runs its single-core cells concurrently: on the job's
# own simsvc worker plus any idle workers it borrows, and in process with
# up to GOMAXPROCS cells in flight. Results are consumed in grid order, so
# the report must not depend on how the cells overlap. This script stresses
# exactly that axis on the paper's headline figures:
#
#   1. runs `mallacc-bench -run fig13,fig14 -metrics -format json -seed 1`
#      at GOMAXPROCS=1 (cells in sequence) and at the host's full
#      GOMAXPROCS (cells overlapping), and requires the two reports to be
#      byte-identical,
#   2. requires both to match the pinned digest results/metrics/baseline.json
#      byte-for-byte (regenerate with `make baseline` after an intentional
#      simulator change).
#
# Needs: go. jq is used for nicer diagnostics when present.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

fail() {
    echo "baseline-smoke: FAIL: $*" >&2
    exit 1
}

go build -o "$workdir/mallacc-bench" ./cmd/mallacc-bench

echo "baseline-smoke: run at GOMAXPROCS=1"
GOMAXPROCS=1 "$workdir/mallacc-bench" -run fig13,fig14 -metrics -format json -seed 1 \
    > "$workdir/p1.json"
echo "baseline-smoke: run at host GOMAXPROCS"
"$workdir/mallacc-bench" -run fig13,fig14 -metrics -format json -seed 1 \
    > "$workdir/pn.json"

cmp -s "$workdir/p1.json" "$workdir/pn.json" \
    || fail "GOMAXPROCS=1 and full-width runs differ (grid results consumed out of order)"
echo "baseline-smoke: reports byte-identical across GOMAXPROCS ($(wc -c <"$workdir/p1.json") bytes)"

pinned=results/metrics/baseline.json
[ -f "$pinned" ] || fail "no pinned digest at $pinned (run 'make baseline' to create it)"
if ! cmp -s "$workdir/p1.json" "$pinned"; then
    if command -v jq >/dev/null 2>&1; then
        diff <(jq -S . "$pinned") <(jq -S . "$workdir/p1.json") | head -40 >&2 || true
    fi
    fail "report drifted from pinned $pinned (regenerate with 'make baseline' if intentional)"
fi
echo "baseline-smoke: matches pinned $pinned"

echo "baseline-smoke: PASS"
