#!/usr/bin/env bash
# digest_smoke.sh — determinism smoke test of every pinned experiment
# digest that `make baseline` writes from mallacc-bench.
#
# An experiment job runs its cells concurrently (single-core cells in
# process with up to GOMAXPROCS in flight; cluster cells through the
# multicore relay scheduler, which hands a turn token between simulated
# cores). Results are consumed in grid order and telemetry is a pure
# function of (seed, core count), so no report may depend on how the Go
# runtime overlaps the cells. For each of
#
#   fig13,fig14 (-metrics) -> results/metrics/baseline.json
#   scale                  -> results/metrics/multicore.json
#   designspace (-metrics) -> results/metrics/designspace.json
#
# this script
#
#   1. runs the same seed-1 command `make baseline` runs at GOMAXPROCS=1
#      (cells in sequence) and at the host's full GOMAXPROCS (cells
#      overlapping), and requires the two JSON reports to be
#      byte-identical,
#   2. requires them to match the pinned digest byte-for-byte, and fails
#      when it is missing (regenerate with `make baseline` after an
#      intentional simulator change),
#   3. for designspace, checks every cataloged strategy contributed runs.
#
# results/metrics/simsvc.json is the service digest; serve_smoke.sh
# checks it.
#
# Needs: go. jq is used for nicer diagnostics when present.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

fail() {
    echo "digest-smoke: FAIL: $*" >&2
    exit 1
}

go build -o "$workdir/mallacc-bench" ./cmd/mallacc-bench

# check <pinned digest> <mallacc-bench args...>
check() {
    local pinned=$1 name
    shift
    name=$(basename "$pinned" .json)
    [ -f "$pinned" ] || fail "no pinned digest at $pinned (run 'make baseline' to create it)"
    echo "digest-smoke: $name: run at GOMAXPROCS=1"
    GOMAXPROCS=1 "$workdir/mallacc-bench" "$@" -format json -seed 1 > "$workdir/$name.p1.json"
    echo "digest-smoke: $name: run at host GOMAXPROCS"
    "$workdir/mallacc-bench" "$@" -format json -seed 1 > "$workdir/$name.pn.json"
    cmp -s "$workdir/$name.p1.json" "$workdir/$name.pn.json" \
        || fail "$name: GOMAXPROCS=1 and full-width runs differ (results depend on scheduling)"
    if ! cmp -s "$workdir/$name.p1.json" "$pinned"; then
        if command -v jq >/dev/null 2>&1; then
            diff <(jq -S . "$pinned") <(jq -S . "$workdir/$name.p1.json") | head -40 >&2 || true
        fi
        fail "$name: report drifted from pinned $pinned (regenerate with 'make baseline' if intentional)"
    fi
    echo "digest-smoke: $name: byte-identical across GOMAXPROCS and to $pinned ($(wc -c <"$pinned") bytes)"
}

check results/metrics/baseline.json -run fig13,fig14 -metrics
check results/metrics/multicore.json -run scale
check results/metrics/designspace.json -run designspace -metrics

for strategy in stock mallacc offload lockfree lockfree+mallacc; do
    grep -q "/$strategy/" "$workdir/designspace.p1.json" \
        || fail "designspace: strategy $strategy missing from the report"
done
echo "digest-smoke: designspace: all 5 strategies present"

echo "digest-smoke: PASS"
