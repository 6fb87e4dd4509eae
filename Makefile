GO ?= go

.PHONY: all build vet unreached test race bench bench-smoke baseline serve-smoke chaos-smoke obs-smoke fleet-smoke fleet-chaos membership-chaos digest-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail on any function or method that no binary links (every main package
# plus perfbench/, built with inlining off) and on stale allowlist entries
# (scripts/unreached/allowlist.txt).
unreached:
	$(GO) run ./scripts/unreached

test:
	$(GO) test ./...

# Race-check everything; the whole tree must be race-clean. The root
# package alone takes about ten minutes under -race on a 2-core host, the
# go test default per-binary timeout, so the timeout is explicit.
race:
	$(GO) test -race -timeout 30m ./...

# Full performance baseline: every microbenchmark suite in five passes of
# -count=1 (each pass times a benchmark next to its frozen reference twin)
# with a benchstat summary (when installed) and a refreshed
# BENCH_baseline.json — gated on the core scheduler bench staying >=3.5x
# over its twin with 0 allocs/op (gate), its schedule-memo hit path at
# >=1.8x over the same core without a memo with 0 allocs/op (memo_gate),
# the cache hierarchy and micro-op emitter at >=1.5x over theirs
# (cachesim_gate, emit_gate), and the engine's allocation ceilings
# (engine_gate).
bench:
	./scripts/bench.sh

# One iteration of every benchmark; proves they compile and run (CI).
bench-smoke:
	./scripts/bench.sh --smoke

# Regenerate the pinned reference metrics (byte-reproducible at seed 1).
baseline:
	mkdir -p results/metrics
	$(GO) run ./cmd/mallacc-bench -run fig13,fig14 -metrics -format json -seed 1 \
		> results/metrics/baseline.json
	$(GO) run ./cmd/mallacc-bench -run scale -format json -seed 1 \
		> results/metrics/multicore.json
	$(GO) run ./cmd/mallacc-serve -digest \
		> results/metrics/simsvc.json
	$(GO) run ./cmd/mallacc-bench -run designspace -metrics -format json -seed 1 \
		> results/metrics/designspace.json

# End-to-end smoke test of the mallacc-serve daemon: submit over HTTP,
# verify the cached resubmission is byte-identical, check SIGTERM drains
# cleanly, and require the service digest (mallacc-serve -digest) to match
# the pinned results/metrics/simsvc.json.
serve-smoke:
	./scripts/serve_smoke.sh

# Chaos smoke test: seeded fault injection across job execution, cache IO
# and both sides of the HTTP hop; asserts byte-identical reports, retries,
# retry exhaustion + resubmission, and quarantine healing. CHAOS_SEED
# overrides the schedule.
chaos-smoke:
	./scripts/chaos_smoke.sh

# Observability smoke test: OpenMetrics scrape linted by scripts/promlint,
# server-side trace record/replay byte-identity, and a live SSE progress
# stream (>= 2 progress events then done).
obs-smoke:
	./scripts/obs_smoke.sh

# Fleet smoke test: three sharded mallacc-serve nodes behind mallacc-coord,
# driven by mallacc-ctl; asserts owner routing, byte-identical reports vs a
# standalone node, cache hits, failover recompute, peer cache fill after a
# cold restart, drain/undrain, a clean fleet.* OpenMetrics scrape, and the
# spill of a busy owner's second job to its ring successor with one cached
# report per job.
fleet-smoke:
	./scripts/fleet_smoke.sh

# Pinned-digest smoke test: each mallacc-bench command `make baseline`
# runs (fig13+fig14, scale, designspace) is run at seed 1 at GOMAXPROCS=1
# and at the host's full GOMAXPROCS; the two reports must be
# byte-identical to each other and to the pinned results/metrics/ digest,
# which must exist, and designspace must carry all five strategies. Cell
# fan-out and the multicore relay scheduler must not change any report.
digest-smoke:
	./scripts/digest_smoke.sh

# Fleet chaos test: the same grid sweep on a clean fleet and on a fleet
# with seeded faults on every hop plus a node kill -9'd mid-sweep; the two
# content-addressed report sets must be byte-identical. CHAOS_SEED
# overrides the schedule.
fleet-chaos:
	./scripts/fleet_chaos.sh

# Membership chaos test: a dynamic fleet (runtime joins, gossiping
# coordinator pair) sweeps the grid while a node joins, another is
# kill -9'd, and a coordinator restarts cold; then one node drains with
# cache hand-off. Asserts byte-identical reports vs a static fleet and
# zero recomputes after the graceful departure.
membership-chaos:
	./scripts/membership_chaos.sh

clean:
	$(GO) clean ./...
