// Command mallacc-sim runs a single workload through the simulated system
// and prints its allocator statistics and latency distribution.
//
// Usage:
//
//	mallacc-sim -workload xapian.pages -variant mallacc -entries 16
//	mallacc-sim -workload ubench.tp_small -variant baseline -calls 100000
//	mallacc-sim -workload xapian.pages -format json -metrics
//	mallacc-sim -workloads   # list workload names
//
// With -serve URL the simulation is not run locally: the spec is submitted
// as a job to a running mallacc-serve daemon, waited for on its event
// stream (echoed to stderr under -follow), and the daemon's (possibly
// cached) report is printed.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	"mallacc"
	"mallacc/internal/catalog"
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

	if err := harness.ValidateRunBounds(*cores, *seed, *calls); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := catalog.CheckCombo(*backend, *variant); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *follow && *serve == "" {
		fmt.Fprintln(os.Stderr, "-follow streams a daemon job's events; it requires -serve")
		os.Exit(1)
	}

	if *recKey {
		// Record into the content-addressed store: remotely when -serve
		// names a daemon (the daemon captures into its own store), locally
		// into -trace-dir otherwise. Either way the printed trace:<key>
		// name replays the exact stream through the matching store.
		spec := simsvc.TraceSpec{Workload: *wname, Calls: *calls, Seed: *seed}
		if *serve != "" {
			if err := recordRemote(*serve, spec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		store, err := simsvc.NewTraceStore(*trDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		key, tr, err := store.Record(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "recorded %d events to %s\n", len(tr.Events), *trDir)
		fmt.Println(simsvc.TraceKeyName(key))
		return
	}

	if *serve != "" {
		if *replay != "" || *record != "" {
			fmt.Fprintln(os.Stderr, "-serve cannot use trace files; record with -record-trace and submit the trace:<key> workload instead")
			os.Exit(1)
		}
		if err := runRemote(*serve, *wname, *variant, catalog.NormalizeBackend(*backend), *entries, *calls, *seed, *cores, *format, *metrics, *follow); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var w mallacc.Workload
	if key, ok := simsvc.ParseTraceKey(*wname); ok {
		store, err := simsvc.NewTraceStore(*trDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr, found := store.Get(key)
		if !found {
			fmt.Fprintf(os.Stderr, "trace %s not found under %s; record one with -record-trace\n", key, *trDir)
			os.Exit(1)
		}
		w = tr
	} else if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr, err := mallacc.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w = tr
	} else {
		var ok bool
		w, ok = mallacc.WorkloadByName(*wname)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q; try -workloads\n", *wname)
			os.Exit(1)
		}
	}

	if *record != "" {
		tr := mallacc.RecordTrace(w, *calls, *seed)
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if _, err := tr.WriteTo(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("recorded %d events to %s\n", len(tr.Events), *record)
		return
	}
	// CheckCombo above already vetted the names; VariantByName cannot miss.
	v, _ := multicore.VariantByName(*variant)

	if *cores > 1 {
		runCluster(w, v, *backend, *entries, *calls, *seed, *cores, *format, *metrics)
		return
	}

	r := mallacc.Run(mallacc.RunOptions{
		Workload:  w,
		Variant:   v,
		Backend:   catalog.NormalizeBackend(*backend),
		MCEntries: *entries,
		Calls:     *calls,
		Seed:      *seed,
	})

	switch *format {
	case "json":
		emitJSON(r, *metrics)
		return
	case "csv":
		emitCSV(r, *metrics)
		return
	case "", "text":
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q (want text, json or csv)\n", *format)
		os.Exit(1)
	}

	if catalog.NormalizeBackend(r.Backend) != "" {
		fmt.Printf("workload: %s  variant: %s  backend: %s\n", r.Workload, r.Variant, r.Backend)
	} else {
		fmt.Printf("workload: %s  variant: %s\n", r.Workload, r.Variant)
	}
	if r.LockFree != nil {
		fmt.Printf("allocs: %d  frees: %d  stack pops: %d  slab carves: %d  refills: %d\n",
			r.LockFree.Allocs, r.LockFree.Frees, r.LockFree.PopHits, r.LockFree.Carves, r.LockFree.SlabRefills)
	} else {
		fmt.Printf("mallocs: %d  frees: %d  thread-cache hits: %d  central fetches: %d  sampled: %d\n",
			r.Heap.Mallocs, r.Heap.Frees, r.Heap.FastHits, r.Heap.CentralFetches, r.Heap.Sampled)
	}
	fmt.Printf("malloc: mean %.1f cycles, median %.1f, p99 %.1f (fast-path mean %.1f over %d calls)\n",
		r.MeanMallocCycles(), r.MallocHist.MedianCycles(), r.MallocHist.PercentileCycles(99),
		r.MeanFastMallocCycles(), r.FastMallocCalls)
	if r.FreeCalls > 0 {
		fmt.Printf("free:   mean %.1f cycles over %d calls\n",
			float64(r.FreeCycles)/float64(r.FreeCalls), r.FreeCalls)
	}
	fmt.Printf("allocator fraction of total time: %.2f%%  (total %d cycles, app %d)\n",
		100*r.AllocatorFraction(), r.TotalCycles, r.AppCycles)
	fmt.Printf("core: %.2f uops/cycle in allocator calls, %d mispredicts / %d branches\n",
		r.CPU.IPC(), r.CPU.Mispredicts, r.CPU.Branches)
	if r.MC != nil {
		fmt.Printf("malloc cache: lookup hit %.1f%%  pop hit %.1f%%  evictions %d  prefetches %d\n",
			100*r.MC.LookupHitRate(), 100*r.MC.PopHitRate(), r.MC.Evictions, r.MC.Prefetches)
	}
	if lf := r.LockFree; lf != nil && lf.Allocs+lf.Frees > 0 {
		fmt.Printf("cas: %d attempts, %.2f retries/call\n",
			lf.CASAttempts, float64(lf.CASRetries)/float64(lf.Allocs+lf.Frees))
	}
	if off := r.Offload; off != nil && off.Mallocs > 0 {
		fmt.Printf("offload: roundtrip mean %.1f cycles  queue mean depth %.2f (max %d)\n",
			float64(off.RoundTripCycles)/float64(off.Mallocs),
			float64(off.DepthSum)/float64(off.Mallocs), off.MaxDepth)
	}
	fmt.Println("\nmalloc duration distribution (time-weighted):")
	fmt.Print(r.MallocHist.RenderPDF(40))
	if *metrics {
		fmt.Println("\ntelemetry:")
		for _, m := range r.Telemetry.Metrics {
			if m.Kind == "histogram" {
				fmt.Printf("%-32s count=%d sum=%d mean=%.1f p50=%.1f p99=%.1f\n",
					m.Name, m.Count, m.Sum, m.Mean, m.P50, m.P99)
			} else {
				fmt.Printf("%-32s %g\n", m.Name, m.Value)
			}
		}
	}
}

// runCluster executes the workload on a simulated multi-core machine and
// emits the multi-core digest in the requested format.
func runCluster(w mallacc.Workload, v mallacc.Variant, backend string, entries, calls int, seed uint64, cores int, format string, metrics bool) {
	perCore := calls / cores
	if perCore < 1 {
		perCore = 1
	}
	r := mallacc.RunCluster(mallacc.ClusterConfig{
		Cores:        cores,
		Variant:      v,
		Backend:      catalog.NormalizeBackend(backend),
		MCEntries:    entries,
		Workload:     w,
		CallsPerCore: perCore,
		Seed:         seed,
	})

	switch format {
	case "json":
		b, err := json.MarshalIndent(clusterSummarize(r, metrics), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(append(b, '\n'))
		return
	case "csv":
		emitClusterCSV(r, metrics)
		return
	case "", "text":
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q (want text, json or csv)\n", format)
		os.Exit(1)
	}

	if catalog.NormalizeBackend(r.Backend) != "" {
		fmt.Printf("workload: %s  variant: %s  backend: %s  cores: %d\n", r.Workload, r.Variant, r.Backend, r.Cores)
	} else {
		fmt.Printf("workload: %s  variant: %s  cores: %d\n", r.Workload, r.Variant, r.Cores)
	}
	fmt.Printf("mallocs: %d  frees: %d  remote frees: %d  epochs: %d\n",
		r.MallocCalls, r.FreeCalls, r.RemoteFrees, r.Epochs)
	fmt.Printf("malloc: mean %.1f cycles  allocator share %.2f%%  (busy %d cycles, wall %d)\n",
		r.MeanMallocCycles(), 100*r.AllocatorFraction(), r.TotalCycles, r.WallCycles)
	fmt.Printf("central lock: %.2f cycles/call (%d contended of %d acquisitions)  pageheap lock: %d cycles\n",
		r.LockCyclesPerCall(), r.CentralLock.Contended, r.CentralLock.Acquisitions, r.PageHeapLock.Cycles())
	if r.MC != nil {
		fmt.Printf("malloc cache: lookup hit %.1f%%  pop hit %.1f%% (aggregated over %d cores)\n",
			100*r.MCLookupHitRate(), 100*r.MCPopHitRate(), r.Cores)
	}
	if lf := r.LockFree; lf != nil && lf.Allocs+lf.Frees > 0 {
		fmt.Printf("cas: %d attempts, %.2f retries/call\n",
			lf.CASAttempts, float64(lf.CASRetries)/float64(lf.Allocs+lf.Frees))
	}
	if off := r.Offload; off != nil && off.Mallocs > 0 {
		fmt.Printf("offload: roundtrip mean %.1f cycles  queue mean depth %.2f (max %d)\n",
			float64(off.RoundTripCycles)/float64(off.Mallocs),
			float64(off.DepthSum)/float64(off.Mallocs), off.MaxDepth)
	}
	fmt.Println("\nper-core breakdown:")
	fmt.Printf("%-5s %10s %8s %12s %12s %10s %8s\n",
		"core", "mallocs", "frees", "malloc mean", "total cycles", "remote in", "yields")
	for i, cs := range r.PerCore {
		mean := 0.0
		if cs.MallocCalls > 0 {
			mean = float64(cs.MallocCycles) / float64(cs.MallocCalls)
		}
		fmt.Printf("%-5d %10d %8d %12.1f %12d %10d %8d\n",
			i, cs.MallocCalls, cs.FreeCalls, mean, cs.TotalCycles, cs.RemoteDrained, cs.Yields)
	}
	if metrics {
		fmt.Println("\ntelemetry:")
		for _, m := range r.Telemetry.Metrics {
			if m.Kind == "histogram" {
				fmt.Printf("%-40s count=%d sum=%d mean=%.1f p50=%.1f p99=%.1f\n",
					m.Name, m.Count, m.Sum, m.Mean, m.P50, m.P99)
			} else {
				fmt.Printf("%-40s %g\n", m.Name, m.Value)
			}
		}
	}
}

// clusterSummary is the machine-readable digest of one multi-core run.
type clusterSummary struct {
	Workload          string                   `json:"workload"`
	Variant           string                   `json:"variant"`
	Backend           string                   `json:"backend,omitempty"`
	Cores             int                      `json:"cores"`
	MallocCalls       uint64                   `json:"malloc_calls"`
	FreeCalls         uint64                   `json:"free_calls"`
	RemoteFrees       uint64                   `json:"remote_frees"`
	Epochs            uint64                   `json:"epochs"`
	MallocMeanCycles  float64                  `json:"malloc_mean_cycles"`
	AllocatorFraction float64                  `json:"allocator_fraction"`
	TotalCycles       uint64                   `json:"total_cycles"`
	WallCycles        uint64                   `json:"wall_cycles"`
	LockCyclesPerCall float64                  `json:"lock_cycles_per_call"`
	MCLookupHitRate   float64                  `json:"mc_lookup_hit_rate,omitempty"`
	MCPopHitRate      float64                  `json:"mc_pop_hit_rate,omitempty"`
	CASRetriesPerCall float64                  `json:"cas_retries_per_call,omitempty"`
	OffloadRoundTrip  float64                  `json:"offload_roundtrip_mean_cycles,omitempty"`
	OffloadMeanDepth  float64                  `json:"offload_queue_mean_depth,omitempty"`
	PerCore           []mallacc.CoreStats      `json:"per_core"`
	Metrics           *mallacc.MetricsSnapshot `json:"metrics,omitempty"`
}

func clusterSummarize(r *mallacc.ClusterResult, withMetrics bool) clusterSummary {
	s := clusterSummary{
		Workload:          r.Workload,
		Variant:           r.Variant.String(),
		Cores:             r.Cores,
		MallocCalls:       r.MallocCalls,
		FreeCalls:         r.FreeCalls,
		RemoteFrees:       r.RemoteFrees,
		Epochs:            r.Epochs,
		MallocMeanCycles:  r.MeanMallocCycles(),
		AllocatorFraction: r.AllocatorFraction(),
		TotalCycles:       r.TotalCycles,
		WallCycles:        r.WallCycles,
		LockCyclesPerCall: r.LockCyclesPerCall(),
		PerCore:           r.PerCore,
	}
	if r.MC != nil {
		s.MCLookupHitRate = r.MCLookupHitRate()
		s.MCPopHitRate = r.MCPopHitRate()
	}
	s.Backend = catalog.NormalizeBackend(r.Backend)
	if lf := r.LockFree; lf != nil && lf.Allocs+lf.Frees > 0 {
		s.CASRetriesPerCall = float64(lf.CASRetries) / float64(lf.Allocs+lf.Frees)
	}
	if off := r.Offload; off != nil && off.Mallocs > 0 {
		s.OffloadRoundTrip = float64(off.RoundTripCycles) / float64(off.Mallocs)
		s.OffloadMeanDepth = float64(off.DepthSum) / float64(off.Mallocs)
	}
	if withMetrics {
		s.Metrics = &r.Telemetry
	}
	return s
}

func emitClusterCSV(r *mallacc.ClusterResult, withMetrics bool) {
	s := clusterSummarize(r, withMetrics)
	w := csv.NewWriter(os.Stdout)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	records := [][]string{
		{"field", "value"},
		{"workload", s.Workload},
		{"variant", s.Variant},
		{"cores", strconv.Itoa(s.Cores)},
		{"malloc_calls", u(s.MallocCalls)},
		{"free_calls", u(s.FreeCalls)},
		{"remote_frees", u(s.RemoteFrees)},
		{"epochs", u(s.Epochs)},
		{"malloc_mean_cycles", f(s.MallocMeanCycles)},
		{"allocator_fraction", f(s.AllocatorFraction)},
		{"total_cycles", u(s.TotalCycles)},
		{"wall_cycles", u(s.WallCycles)},
		{"lock_cycles_per_call", f(s.LockCyclesPerCall)},
	}
	if r.MC != nil {
		records = append(records,
			[]string{"mc_lookup_hit_rate", f(s.MCLookupHitRate)},
			[]string{"mc_pop_hit_rate", f(s.MCPopHitRate)})
	}
	if s.Backend != "" {
		records = append(records, []string{"backend", s.Backend})
	}
	if r.LockFree != nil {
		records = append(records, []string{"cas_retries_per_call", f(s.CASRetriesPerCall)})
	}
	if off := r.Offload; off != nil && off.Mallocs > 0 {
		records = append(records,
			[]string{"offload_roundtrip_mean_cycles", f(s.OffloadRoundTrip)},
			[]string{"offload_queue_mean_depth", f(s.OffloadMeanDepth)})
	}
	for i, cs := range s.PerCore {
		p := fmt.Sprintf("core%d_", i)
		records = append(records,
			[]string{p + "mallocs", u(cs.MallocCalls)},
			[]string{p + "frees", u(cs.FreeCalls)},
			[]string{p + "total_cycles", u(cs.TotalCycles)},
			[]string{p + "remote_drained", u(cs.RemoteDrained)})
	}
	for _, rec := range records {
		if err := w.Write(rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if withMetrics {
		for _, m := range r.Telemetry.Metrics {
			if err := w.Write([]string{m.Name, f(m.Value)}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// summary is the machine-readable digest of one run.
type summary struct {
	Workload          string                   `json:"workload"`
	Variant           string                   `json:"variant"`
	Backend           string                   `json:"backend,omitempty"`
	Calls             uint64                   `json:"calls"`
	MallocMeanCycles  float64                  `json:"malloc_mean_cycles"`
	MallocP50Cycles   float64                  `json:"malloc_p50_cycles"`
	MallocP99Cycles   float64                  `json:"malloc_p99_cycles"`
	FastMallocMean    float64                  `json:"fast_malloc_mean_cycles"`
	FreeMeanCycles    float64                  `json:"free_mean_cycles"`
	AllocatorFraction float64                  `json:"allocator_fraction"`
	TotalCycles       uint64                   `json:"total_cycles"`
	IPC               float64                  `json:"ipc"`
	CASRetriesPerCall float64                  `json:"cas_retries_per_call,omitempty"`
	OffloadRoundTrip  float64                  `json:"offload_roundtrip_mean_cycles,omitempty"`
	OffloadMeanDepth  float64                  `json:"offload_queue_mean_depth,omitempty"`
	Metrics           *mallacc.MetricsSnapshot `json:"metrics,omitempty"`
}

func summarize(r *mallacc.Result, withMetrics bool) summary {
	s := summary{
		Workload:          r.Workload,
		Variant:           r.Variant.String(),
		Calls:             r.MallocCalls + r.FreeCalls,
		MallocMeanCycles:  r.MeanMallocCycles(),
		MallocP50Cycles:   r.MallocHist.MedianCycles(),
		MallocP99Cycles:   r.MallocHist.PercentileCycles(99),
		FastMallocMean:    r.MeanFastMallocCycles(),
		AllocatorFraction: r.AllocatorFraction(),
		TotalCycles:       r.TotalCycles,
		IPC:               r.CPU.IPC(),
	}
	if r.FreeCalls > 0 {
		s.FreeMeanCycles = float64(r.FreeCycles) / float64(r.FreeCalls)
	}
	s.Backend = catalog.NormalizeBackend(r.Backend)
	if lf := r.LockFree; lf != nil && lf.Allocs+lf.Frees > 0 {
		s.CASRetriesPerCall = float64(lf.CASRetries) / float64(lf.Allocs+lf.Frees)
	}
	if off := r.Offload; off != nil && off.Mallocs > 0 {
		s.OffloadRoundTrip = float64(off.RoundTripCycles) / float64(off.Mallocs)
		s.OffloadMeanDepth = float64(off.DepthSum) / float64(off.Mallocs)
	}
	if withMetrics {
		s.Metrics = &r.Telemetry
	}
	return s
}

func emitJSON(r *mallacc.Result, withMetrics bool) {
	b, err := json.MarshalIndent(summarize(r, withMetrics), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(append(b, '\n'))
}

func emitCSV(r *mallacc.Result, withMetrics bool) {
	s := summarize(r, withMetrics)
	w := csv.NewWriter(os.Stdout)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	records := [][]string{
		{"field", "value"},
		{"workload", s.Workload},
		{"variant", s.Variant},
		{"calls", strconv.FormatUint(s.Calls, 10)},
		{"malloc_mean_cycles", f(s.MallocMeanCycles)},
		{"malloc_p50_cycles", f(s.MallocP50Cycles)},
		{"malloc_p99_cycles", f(s.MallocP99Cycles)},
		{"fast_malloc_mean_cycles", f(s.FastMallocMean)},
		{"free_mean_cycles", f(s.FreeMeanCycles)},
		{"allocator_fraction", f(s.AllocatorFraction)},
		{"total_cycles", strconv.FormatUint(s.TotalCycles, 10)},
		{"ipc", f(s.IPC)},
	}
	if s.Backend != "" {
		records = append(records, []string{"backend", s.Backend})
	}
	if r.LockFree != nil {
		records = append(records, []string{"cas_retries_per_call", f(s.CASRetriesPerCall)})
	}
	if off := r.Offload; off != nil && off.Mallocs > 0 {
		records = append(records,
			[]string{"offload_roundtrip_mean_cycles", f(s.OffloadRoundTrip)},
			[]string{"offload_queue_mean_depth", f(s.OffloadMeanDepth)})
	}
	for _, rec := range records {
		if err := w.Write(rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if withMetrics {
		for _, m := range r.Telemetry.Metrics {
			if err := w.Write([]string{m.Name, f(m.Value)}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
