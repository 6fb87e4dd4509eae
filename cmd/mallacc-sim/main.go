// Command mallacc-sim runs a single workload through the simulated system
// and prints its run report: allocator statistics, malloc-cache hit rates
// and the time-in-calls latency distribution (with -cores N, the cluster
// report and its per-core breakdown).
//
// Usage:
//
//	mallacc-sim -workload xapian.pages -variant mallacc -entries 16
//	mallacc-sim -workload ubench.tp_small -variant baseline -calls 100000
//	mallacc-sim -workload xapian.pages -format json -metrics  # + telemetry
//	mallacc-sim -workloads   # list workload names
//
// The flags form one simsvc.JobSpec, validated by the service's own
// Canonicalize. Locally the spec is lowered and simulated exactly as a
// daemon would run it; with -serve URL it is submitted as a job to a
// running mallacc-serve daemon, waited for on its event stream (echoed to
// stderr under -follow), and the daemon's (possibly cached) report is
// printed. Either way the same report is rendered, so the two paths print
// the same bytes for the same flags.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mallacc"
	"mallacc/internal/faults"
	"mallacc/internal/harness"
	"mallacc/internal/multicore"
	"mallacc/internal/simsvc"
)

func main() {
	var (
		wname   = flag.String("workload", "ubench.tp_small", "workload name")
		variant = flag.String("variant", "baseline", "baseline | mallacc | limit | offload")
		backend = flag.String("backend", "tcmalloc", "allocator substrate: tcmalloc | lockfree")
		entries = flag.Int("entries", 32, "malloc cache entries (mallacc variant)")
		calls   = flag.Int("calls", 60000, "allocator-call budget (split across cores when -cores > 1)")
		seed    = flag.Uint64("seed", 1, "RNG seed")
		cores   = flag.Int("cores", 1, "simulated core count; > 1 runs the multi-core engine")
		format  = flag.String("format", "text", "output format: text | json | csv")
		metrics = flag.Bool("metrics", false, "include the run's full telemetry snapshot")
		list    = flag.Bool("workloads", false, "list workloads and exit")
		record  = flag.String("record", "", "write the workload's request trace to this file and exit")
		replay  = flag.String("replay", "", "run a previously recorded trace file instead of -workload")
		serve   = flag.String("serve", "", "submit the run to a mallacc-serve daemon at this base URL instead of simulating locally")
		follow  = flag.Bool("follow", false, "with -serve: echo the job's live progress events to stderr while it runs")
		recKey  = flag.Bool("record-trace", false, "record -workload into the content-addressed trace store, print its trace:<key> name, and exit")
		trDir   = flag.String("trace-dir", "results/traces", "trace store directory for -record-trace and trace:<key> workloads")
	)
	flag.Parse()

	// $MALLACC_FAULTS arms fault injection at the remote.http point so the
	// chaos harness can exercise the client's retry loop; local simulation
	// paths have no injection points, so plain runs are unaffected.
	if _, err := faults.ActivateFromSpec(""); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *list {
		for _, w := range mallacc.Workloads() {
			fmt.Println(w.Name())
		}
		return
	}

	if *follow && *serve == "" {
		fail(fmt.Errorf("-follow streams a daemon job's events; it requires -serve"))
	}
	if *serve != "" && (*replay != "" || *record != "") {
		fail(fmt.Errorf("-serve cannot use trace files; record with -record-trace and submit the trace:<key> workload instead"))
	}

	spec := simsvc.JobSpec{
		Workload:  *wname,
		Variant:   *variant,
		Backend:   *backend,
		MCEntries: *entries,
		Cores:     *cores,
		Calls:     *calls,
		Seed:      *seed,
		Metrics:   *metrics,
	}
	var w mallacc.Workload
	if _, ok := simsvc.ParseTraceKey(*wname); !ok && *replay != "" {
		// A trace file has no stock name: it is named by the SHA-256 of
		// its bytes, so Canonicalize checks every other field as it does
		// for any trace:<key> workload.
		b, err := os.ReadFile(*replay)
		if err != nil {
			fail(err)
		}
		if w, err = mallacc.ReadTrace(bytes.NewReader(b)); err != nil {
			fail(err)
		}
		sum := sha256.Sum256(b)
		spec.Workload = simsvc.TraceKeyName(hex.EncodeToString(sum[:]))
	}
	spec, err := spec.Canonicalize()
	if err != nil {
		fail(err)
	}

	if *recKey {
		// Record into the content-addressed store: remotely when -serve
		// names a daemon (the daemon captures into its own store), locally
		// into -trace-dir otherwise. Either way the printed trace:<key>
		// name replays the exact stream through the matching store.
		ts := simsvc.TraceSpec{Workload: spec.Workload, Calls: spec.Calls, Seed: spec.Seed}
		if *serve != "" {
			if err := recordRemote(*serve, ts); err != nil {
				fail(err)
			}
			return
		}
		store, err := simsvc.NewTraceStore(*trDir)
		if err != nil {
			fail(err)
		}
		key, tr, err := store.Record(ts)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "recorded %d events to %s\n", len(tr.Events), *trDir)
		fmt.Println(simsvc.TraceKeyName(key))
		return
	}

	// raw is the report as the service stores it: its JSON encoding, which
	// rounds telemetry gauges to six places. Rendering the local report
	// from the same bytes keeps both paths' output identical.
	var raw []byte
	if *serve != "" {
		if raw, err = fetchReport(*serve, spec, *follow); err != nil {
			fail(err)
		}
	} else {
		if w == nil {
			if w, err = localWorkload(spec.Workload, *trDir); err != nil {
				fail(err)
			}
		}
		if *record != "" {
			tr := mallacc.RecordTrace(w, spec.Calls, spec.Seed)
			f, err := os.Create(*record)
			if err != nil {
				fail(err)
			}
			if _, err := tr.WriteTo(f); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("recorded %d events to %s\n", len(tr.Events), *record)
			return
		}
		var rep *harness.Report
		if spec.Kind == simsvc.KindCluster {
			rep = harness.ReportForCluster(multicore.Run(spec.ClusterConfig(w)), spec.Metrics)
		} else {
			rep = harness.ReportForRun(harness.Run(spec.RunOptions(w)), spec.Metrics)
		}
		if raw, err = json.Marshal(rep); err != nil {
			fail(err)
		}
	}
	rep := new(harness.Report)
	if err := json.Unmarshal(raw, rep); err != nil {
		fail(fmt.Errorf("decode report: %w", err))
	}
	b, err := rep.Render(*format)
	if err != nil {
		fail(err)
	}
	if _, err := os.Stdout.Write(b); err != nil {
		fail(err)
	}
}

// localWorkload resolves a canonical spec's workload name: a stock
// workload, or a trace:<key> recorded into the store under trDir.
func localWorkload(name, trDir string) (mallacc.Workload, error) {
	key, ok := simsvc.ParseTraceKey(name)
	if !ok {
		w, _ := mallacc.WorkloadByName(name) // Canonicalize checked the name
		return w, nil
	}
	store, err := simsvc.NewTraceStore(trDir)
	if err != nil {
		return nil, err
	}
	tr, found := store.Get(key)
	if !found {
		return nil, fmt.Errorf("trace %s not found under %s; record one with -record-trace", key, trDir)
	}
	return tr, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
