// Command chaostest is the chaos harness: it proves the service stack
// self-heals under injected faults without corrupting results.
//
// Three phases, one process:
//
//  1. Baseline — a fault-free service computes reports for a fixed spec
//     set. Reports are pure functions of their specs, so these bytes are
//     the ground truth for everything after.
//  2. Chaos — a fresh service runs the same specs behind its real HTTP
//     handler while seeded faults fire on job execution (a burst sized to
//     trip the circuit breaker, plus a steady error rate), on cache reads
//     and writes, and on the HTTP path itself. The product's job client
//     (simsvc.Client, the one mallacc-ctl and mallacc-sim -serve use)
//     drives the API with its own retry policy and event-stream wait. The
//     harness asserts every job eventually completes with a report
//     byte-identical to baseline, that the breaker opened at least once
//     and recovered, and that retries actually happened.
//  3. Corruption — with faults off, on-disk cache entries are bit-flipped,
//     truncated, and replaced with alien bytes; a restarted service on
//     the same directory must quarantine all three, recompute, rewrite a
//     valid entry, and still answer byte-identically.
//
// Any violated invariant exits non-zero. Run it via `make chaos-smoke`.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mallacc/internal/faults"
	"mallacc/internal/simsvc"
)

// specs is the fixed job set every phase computes. Small call budgets
// keep the whole harness under a minute while still covering run,
// experiment and cluster job kinds.
var specs = []string{
	`{"workload":"ubench.tp_small","calls":2000,"seed":5}`,
	`{"workload":"ubench.tp_small","variant":"mallacc","mc_entries":16,"calls":2000,"seed":5}`,
	`{"workload":"ubench.gauss","variant":"mallacc","calls":2000,"seed":9}`,
	`{"workload":"ubench.tp_small","variant":"limit","calls":2000,"seed":7}`,
	`{"workload":"ubench.gauss","cores":2,"calls":4000,"seed":3}`,
}

func main() {
	seed := uint64(7)
	if len(os.Args) > 1 {
		n, err := strconv.ParseUint(os.Args[1], 10, 64)
		if err != nil {
			die("usage: chaostest [seed]")
		}
		seed = n
	}

	baseline := phaseBaseline()
	phaseChaos(seed, baseline)
	phaseCorruption(baseline)
	fmt.Println("chaostest: PASS")
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chaostest: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

// decodeSpec parses one fixed spec literal.
func decodeSpec(s string) simsvc.JobSpec {
	spec, err := simsvc.DecodeSpec([]byte(s))
	if err != nil {
		die("bad fixed spec %s: %v", s, err)
	}
	return spec
}

// compact canonicalizes report bytes for comparison: the HTTP layer
// re-indents raw JSON, so byte-identity is asserted on the compact form.
func compact(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		die("report is not valid JSON: %v", err)
	}
	return buf.Bytes()
}

// phaseBaseline computes the ground-truth reports fault-free.
func phaseBaseline() [][]byte {
	svc, err := simsvc.New(simsvc.Config{Workers: 2})
	if err != nil {
		die("baseline service: %v", err)
	}
	defer svc.Drain(context.Background())

	reports := make([][]byte, len(specs))
	for i, s := range specs {
		st, err := svc.Submit(decodeSpec(s))
		if err != nil {
			die("baseline submit %d: %v", i, err)
		}
		st, err = svc.Await(context.Background(), st.ID)
		if err != nil || st.State != simsvc.StateDone {
			die("baseline job %d: state %s err %v (%s)", i, st.State, err, st.Error)
		}
		reports[i] = compact(st.Report)
	}
	fmt.Printf("chaostest: baseline: %d reports computed\n", len(reports))
	return reports
}

// chaosSpec builds the seeded fault schedule for phase 2: a count-bound
// burst of execution failures sized to trip the breaker (consecutive
// failures >= OpenFailures), then a steady error rate on execution, both
// cache directions, and the HTTP path, plus one latency rule.
func chaosSpec(seed uint64) faults.Spec {
	p := func(v float64) *float64 { return &v }
	// The cache points see only a handful of checks per run, and the HTTP
	// point only about 25 against its 15% rate (silent on roughly 1.7% of
	// seeds), so each gets a guaranteed count-bound burst in addition to
	// its steady rate — otherwise an unlucky seed could leave a point
	// silent and the "every point fired" assertion would flake.
	return faults.Spec{Seed: seed, Rules: []faults.RuleSpec{
		{Point: faults.PointExec, Count: 6, Msg: "exec burst"},
		{Point: faults.PointExec, Prob: p(0.25), Msg: "exec steady"},
		{Point: faults.PointCacheRead, Count: 2},
		{Point: faults.PointCacheRead, Prob: p(0.3)},
		{Point: faults.PointCacheWrite, Count: 2},
		{Point: faults.PointCacheWrite, Prob: p(0.3)},
		{Point: faults.PointHTTP, Count: 2},
		{Point: faults.PointHTTP, Prob: p(0.15)},
		{Point: faults.PointHTTP, Prob: p(0.1), Mode: faults.ModeLatency, Latency: "5ms"},
	}}
}

// runToDone pushes one spec through the faulted API until it completes:
// submit and wait through the product's job client, resubmitting whole
// jobs whose daemon-side retries were exhausted. The bound exists so a
// broken stack fails loudly instead of spinning.
func runToDone(c *simsvc.Client, spec string) simsvc.JobStatus {
	ctx := context.Background()
	for round := 0; round < 25; round++ {
		st, err := c.Submit(ctx, decodeSpec(spec))
		if err != nil {
			die("chaos submit: %v", err)
		}
		if st, err = c.Wait(ctx, st, nil); err != nil {
			die("chaos wait: %v", err)
		}
		if st.State == simsvc.StateDone {
			return st
		}
		// Exhausted daemon-side retries; the spec is still computable, so
		// submit it again.
	}
	die("job for spec %s never completed in 25 rounds", spec)
	return simsvc.JobStatus{}
}

func phaseChaos(seed uint64, baseline [][]byte) {
	reg, err := faults.New(chaosSpec(seed))
	if err != nil {
		die("chaos spec: %v", err)
	}
	dir, err := os.MkdirTemp("", "chaos-cache-*")
	if err != nil {
		die("tempdir: %v", err)
	}
	defer os.RemoveAll(dir)

	svc, err := simsvc.New(simsvc.Config{
		Workers:  2,
		CacheDir: dir,
		// A short cooldown lets the harness watch the breaker recover
		// without waiting out production timing.
		Breaker: simsvc.BreakerConfig{Cooldown: 250 * time.Millisecond},
	})
	if err != nil {
		die("chaos service: %v", err)
	}
	reg.RegisterMetrics(svc.Registry())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	faults.Activate(reg)
	defer faults.Deactivate()

	client := simsvc.NewClient(ts.URL)

	for i, s := range specs {
		st := runToDone(client, s)
		if got := compact(st.Report); !bytes.Equal(got, baseline[i]) {
			die("spec %d: chaos report differs from baseline\nchaos:    %.120s\nbaseline: %.120s", i, got, baseline[i])
		}
	}

	// Self-healing must leave the breaker closed once faults stop: feed
	// fresh (uncached) specs through until the probes succeed.
	faults.Deactivate()
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; svc.Breaker().State() == simsvc.BreakerOpen || svc.Breaker().State() == simsvc.BreakerHalfOpen; i++ {
		if time.Now().After(deadline) {
			die("breaker never recovered: state %s", svc.Breaker().State())
		}
		runToDone(client, fmt.Sprintf(`{"workload":"ubench.tp_small","calls":1000,"seed":%d}`, 100+i))
	}

	snap := svc.Registry().Snapshot()
	if opened := snap.Value("simsvc.breaker.opened"); opened < 1 {
		die("breaker never opened (opened=%v); the fault burst should have tripped it", opened)
	}
	if st := svc.Breaker().State(); st != simsvc.BreakerHealthy && st != simsvc.BreakerDegraded {
		die("breaker did not recover: final state %s", st)
	}
	if attempts := snap.Value("simsvc.retries.attempts"); attempts < 1 {
		die("no job retries happened under a 25%% execution fault rate")
	}
	for _, point := range []string{faults.PointExec, faults.PointCacheRead, faults.PointCacheWrite, faults.PointHTTP} {
		if n := snap.Value("faults.injected." + point); n < 1 {
			die("fault point %s never fired", point)
		}
	}
	if err := svc.Drain(context.Background()); err != nil {
		die("chaos drain: %v", err)
	}
	fmt.Printf("chaostest: chaos: %d specs byte-identical; breaker opened %v time(s) and recovered (%s); %v retries\n",
		len(specs), snap.Value("simsvc.breaker.opened"), svc.Breaker().State(), snap.Value("simsvc.retries.attempts"))
}

// phaseCorruption proves the disk tier survives hostile bytes: every
// corrupted entry is quarantined, recomputed byte-identically, and
// rewritten as a valid entry.
func phaseCorruption(baseline [][]byte) {
	dir, err := os.MkdirTemp("", "chaos-corrupt-*")
	if err != nil {
		die("tempdir: %v", err)
	}
	defer os.RemoveAll(dir)

	// Populate the disk tier fault-free.
	svc, err := simsvc.New(simsvc.Config{Workers: 2, CacheDir: dir})
	if err != nil {
		die("populate service: %v", err)
	}
	keys := make([]string, 3)
	for i := 0; i < 3; i++ {
		st, err := svc.Submit(decodeSpec(specs[i]))
		if err != nil {
			die("populate submit %d: %v", i, err)
		}
		if st, err = svc.Await(context.Background(), st.ID); err != nil || st.State != simsvc.StateDone {
			die("populate job %d: %v (%s)", i, err, st.Error)
		}
		keys[i] = st.Key
	}
	svc.Drain(context.Background())

	// Corrupt one entry three different ways: bit flip in the payload,
	// truncation, and alien bytes that were never ours.
	for i, key := range keys {
		path := filepath.Join(dir, key+".json")
		b, err := os.ReadFile(path)
		if err != nil {
			die("read cache file %s: %v", path, err)
		}
		switch i {
		case 0:
			b[len(b)/2] ^= 0x40
		case 1:
			b = b[:len(b)*2/3]
		case 2:
			b = []byte(`{"plain":"json from an older format"}`)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			die("corrupt cache file: %v", err)
		}
	}

	// Restart on the same directory; every read must quarantine and heal.
	svc2, err := simsvc.New(simsvc.Config{Workers: 2, CacheDir: dir})
	if err != nil {
		die("restart service: %v", err)
	}
	defer svc2.Drain(context.Background())
	for i := 0; i < 3; i++ {
		st, err := svc2.Submit(decodeSpec(specs[i]))
		if err != nil {
			die("healing submit %d: %v", i, err)
		}
		if st, err = svc2.Await(context.Background(), st.ID); err != nil || st.State != simsvc.StateDone {
			die("healing job %d: %v (%s)", i, err, st.Error)
		}
		if st.Cached {
			die("spec %d: corrupt entry served as a cache hit", i)
		}
		if got := compact(st.Report); !bytes.Equal(got, baseline[i]) {
			die("spec %d: healed report differs from baseline", i)
		}
	}
	if q := svc2.Cache().Quarantined(); q != 3 {
		die("quarantined = %d, want 3", q)
	}
	qfiles, _ := filepath.Glob(filepath.Join(dir, simsvc.QuarantineDir, "*.json"))
	if len(qfiles) != 3 {
		die("quarantine dir holds %d files, want 3", len(qfiles))
	}
	// The healed entries must be back on disk and valid: a third service
	// answers from disk alone.
	svc3, err := simsvc.New(simsvc.Config{Workers: 2, CacheDir: dir})
	if err != nil {
		die("verify service: %v", err)
	}
	defer svc3.Drain(context.Background())
	for i := 0; i < 3; i++ {
		st, err := svc3.Submit(decodeSpec(specs[i]))
		if err != nil || !st.Cached || st.State != simsvc.StateDone {
			die("spec %d not recreated on disk (cached=%v err=%v)", i, st.Cached, err)
		}
		if got := compact(st.Report); !bytes.Equal(got, baseline[i]) {
			die("spec %d: recreated entry differs from baseline", i)
		}
	}
	fmt.Println("chaostest: corruption: 3 corrupt entries quarantined, recomputed and recreated byte-identically")
}
