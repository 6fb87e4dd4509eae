package harness

import (
	"fmt"

	"mallacc/internal/catalog"
	"mallacc/internal/multicore"
)

// designSweep is the core counts the design-space study visits (capped by
// ExpOptions.Cores, like the scaling study).
var designSweep = []int{1, 2, 4, 8, 16}

// DesignSpace is the fig13-style design-space study: every cataloged
// allocation strategy — stock TCMalloc, Mallacc acceleration, the
// offload-core variant, the lock-free stack backend, and lock-free plus
// Mallacc size-class acceleration — runs the same workload shards on
// identical traces at 1..16 cores. The table puts the three contention
// currencies side by side: lock cycles per call (tcmalloc), CAS retries per
// call (lockfree), and queue round-trip cycles (offload).
func DesignSpace(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	w := mustWorkload("xapian.abstracts")
	callsPerCore := opt.Calls / 8
	if callsPerCore < 2000 {
		callsPerCore = 2000
	}

	rep := &Report{ID: "designspace", Title: "Design-space study: allocation strategies at scale"}
	rep.Notes = append(rep.Notes,
		"each strategy is a (backend, variant) pair from internal/catalog run on identical traces (weak scaling)",
		fmt.Sprintf("workload=%s calls/core=%d seed=%d", w.Name(), callsPerCore, opt.Seed),
		"contention currency differs per strategy: lock cy/call (tcmalloc), CAS retries/call (lockfree), round-trip cy (offload)")

	strategies := catalog.Strategies()
	shareSeries := make([]*Series, len(strategies))
	meanSeries := make([]*Series, len(strategies))
	for i, s := range strategies {
		shareSeries[i] = &Series{Name: "allocator-share/" + s.Name, Unit: "%"}
		meanSeries[i] = &Series{Name: "malloc-mean/" + s.Name, Unit: "cycles"}
	}

	// Build the full strategy × core-count grid first so the runs can
	// execute concurrently (runClusterGrid); rows consume results in grid
	// order, so the report is identical to a sequential sweep.
	type cell struct {
		cores int
		si    int
	}
	var cells []cell
	var cfgs []multicore.Config
	for _, cores := range designSweep {
		if cores > opt.Cores {
			continue
		}
		for i, s := range strategies {
			variant, _ := multicore.VariantByName(s.Variant) // catalog names are valid
			cells = append(cells, cell{cores: cores, si: i})
			cfgs = append(cfgs, multicore.Config{
				Cores:        cores,
				Backend:      s.Backend,
				Variant:      variant,
				Workload:     w,
				CallsPerCore: callsPerCore,
				Seed:         opt.Seed,
			})
		}
	}
	results := opt.runClusterGrid(cfgs)

	tb := &table{header: []string{"cores", "strategy", "alloc share", "malloc mean", "fast share", "mc lookup", "lock cy/call", "cas retry/call", "rt cy", "queue depth"}}
	for ci, c := range cells {
		cores, i, r := c.cores, c.si, results[ci]
		s := strategies[i]
		calls := r.MallocCalls + r.FreeCalls
		fastShare := 0.0
		if r.MallocCalls > 0 {
			fastShare = float64(r.FastMallocCalls) / float64(r.MallocCalls)
		}
		lookup, lockCol, casCol, rtCol, depthCol := "-", "-", "-", "-", "-"
		if r.MC != nil {
			lookup = pct(100 * r.MCLookupHitRate())
		}
		switch {
		case r.LockFree != nil:
			if calls > 0 {
				casCol = fmt.Sprintf("%.3f", float64(r.LockFree.CASRetries)/float64(calls))
			}
		case r.Offload != nil:
			if r.Offload.Mallocs > 0 {
				rtCol = fmt.Sprintf("%.1f", float64(r.Offload.RoundTripCycles)/float64(r.Offload.Mallocs))
				depthCol = fmt.Sprintf("%.2f", float64(r.Offload.DepthSum)/float64(r.Offload.Mallocs))
			}
		default:
			lockCol = fmt.Sprintf("%.2f", r.LockCyclesPerCall())
		}
		tb.addRow(
			fmt.Sprintf("%d", cores),
			s.Name,
			pct(100*r.AllocatorFraction()),
			fmt.Sprintf("%.1f", r.MeanMallocCycles()),
			pct(100*fastShare),
			lookup,
			lockCol,
			casCol,
			rtCol,
			depthCol,
		)
		label := fmt.Sprintf("%d", cores)
		shareSeries[i].Points = append(shareSeries[i].Points, Point{Label: label, Value: 100 * r.AllocatorFraction()})
		meanSeries[i].Points = append(meanSeries[i].Points, Point{Label: label, Value: r.MeanMallocCycles()})
		if opt.Metrics {
			rep.Runs = append(rep.Runs, RunMetrics{
				Name:    fmt.Sprintf("%s/%s/%dcores", w.Name(), s.Name, cores),
				Metrics: r.Telemetry,
			})
		}
	}
	rep.addTable("design-space study", tb)
	for i := range strategies {
		rep.Series = append(rep.Series, *shareSeries[i], *meanSeries[i])
	}
	return rep
}
