package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mallacc/internal/area"
	"mallacc/internal/multicore"
	"mallacc/internal/progress"
	"mallacc/internal/stats"
	"mallacc/internal/uop"
	"mallacc/internal/workload"
)

// ExpOptions scales the experiment suite.
type ExpOptions struct {
	// Calls is the allocator-call budget per run (default 60000).
	Calls int
	// Seeds is the repetition count for the significance study (Table 2,
	// default 6).
	Seeds int
	// Seed is the base RNG seed.
	Seed uint64
	// Metrics attaches each run's full telemetry snapshot to the report
	// (Report.Runs) in the comparison experiments.
	Metrics bool
	// Cores caps the multi-core scaling sweep (default 16).
	Cores int

	// Submit, when non-nil, executes single-core runs on behalf of the
	// experiments. The simulation service (internal/simsvc) injects a
	// submitter that routes every run through its content-addressed result
	// cache, so sweeps with overlapping grids — fig13 and fig14 share all
	// their runs, repeated invocations share everything — re-simulate
	// nothing. An experiment runs its grid's independent cells
	// concurrently, so Submit may be called from up to GOMAXPROCS
	// goroutines at once and must be safe for that. Nil falls back to Run.
	Submit func(Options) *Result
	// SubmitCluster is Submit for multi-core runs (the scale and
	// designspace sweeps). It is called from one goroutine at a time.
	SubmitCluster func(multicore.Config) *multicore.Result

	// Progress, when set, receives one cumulative snapshot per completed
	// run, single- or multi-core, in grid order rather than completion
	// order, so the stream is a pure function of the options however the
	// cells overlap. Observability only: it never changes the report.
	Progress progress.Reporter
	// cells folds completed runs into Progress's snapshots; withDefaults
	// creates it, and copies of the options share it.
	cells *cellProgress
}

// cellProgress accumulates an experiment's completed runs into cumulative
// progress snapshots. forEachCell serializes its calls.
type cellProgress struct {
	rep progress.Reporter
	sn  progress.Snapshot
}

func (p *cellProgress) add(cycles, uops, mallocs, frees uint64) {
	if p == nil {
		return
	}
	p.sn.Cycles += cycles
	p.sn.Instructions += uops
	p.sn.MallocCalls += mallocs
	p.sn.FreeCalls += frees
	p.rep.Report(p.sn)
	p.sn.Seq++
}

// run executes one single-core simulation through the configured submitter.
func (o ExpOptions) run(opt Options) *Result {
	return o.runGrid([]Options{opt})[0]
}

// runGrid executes a batch of independent single-core simulations and
// returns the results in input order. The runs execute concurrently
// (forEachCell), through the submitter when one is set: each run is a pure
// function of its options, so the report is byte-identical to a sequential
// sweep.
func (o ExpOptions) runGrid(opts []Options) []*Result {
	out := make([]*Result, len(opts))
	forEachCell(len(opts), runtime.GOMAXPROCS(0), func(i int) {
		if o.Submit != nil {
			out[i] = o.Submit(opts[i])
		} else {
			out[i] = Run(opts[i])
		}
	}, func(i int) {
		r := out[i]
		o.cells.add(r.TotalCycles, r.CPU.Uops, r.MallocCalls, r.FreeCalls)
	})
	return out
}

// runClusterGrid executes a batch of multi-core simulations and returns the
// results in input order. Without an injected submitter the runs execute
// concurrently on a bounded worker pool: each run is internally
// deterministic regardless of host scheduling (the engine's determinism
// matrix), so the report a sweep produces is byte-identical to the
// sequential one. With a submitter the runs execute one after another
// through it: a 16-core cell's footprint is large enough that the
// simulation service runs an experiment's cluster cells in sequence,
// consulting its run cache for each.
func (o ExpOptions) runClusterGrid(cfgs []multicore.Config) []*multicore.Result {
	out := make([]*multicore.Result, len(cfgs))
	width := runtime.GOMAXPROCS(0)
	if o.SubmitCluster != nil {
		width = 1
	}
	forEachCell(len(cfgs), width, func(i int) {
		if o.SubmitCluster != nil {
			out[i] = o.SubmitCluster(cfgs[i])
		} else {
			out[i] = multicore.Run(cfgs[i])
		}
	}, func(i int) {
		// multicore.Result keeps no machine-wide uop aggregate.
		r := out[i]
		o.cells.add(r.TotalCycles, 0, r.MallocCalls, r.FreeCalls)
	})
	return out
}

// forEachCell calls cell(i) for every i in [0, n) from up to width
// goroutines, and done(i) on the caller's goroutine in increasing order of
// i once cells 0..i have all returned. A panic in a cell stops the
// dispatch of further cells, and once the cells in flight have returned
// the first panic value is re-raised on the caller — so a cancellation
// sentinel or a simulator panic unwinds exactly as it would from a
// sequential loop instead of killing the process.
func forEachCell(n, width int, cell func(int), done func(int)) {
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			cell(i)
			done(i)
		}
		return
	}
	type outcome struct {
		i        int
		panicked bool
		val      any
	}
	var (
		next    atomic.Int64 // next cell to dispatch
		stopped atomic.Bool  // a cell panicked: dispatch no more
		wg      sync.WaitGroup
		results = make(chan outcome)
	)
	run := func(i int) (o outcome) {
		o.i, o.panicked = i, true
		defer func() {
			if o.panicked {
				o.val = recover()
			}
		}()
		cell(i)
		o.panicked = false
		return o
	}
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				o := run(i)
				if o.panicked {
					stopped.Store(true)
				}
				results <- o
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	finished := make([]bool, n)
	prefix := 0 // cells 0..prefix-1 have had done called
	var failure *outcome
	for o := range results {
		if o.panicked {
			if failure == nil {
				failure = &o
			}
			continue
		}
		finished[o.i] = true
		for failure == nil && prefix < n && finished[prefix] {
			done(prefix)
			prefix++
		}
	}
	if failure != nil {
		panic(failure.val)
	}
}

func (o ExpOptions) withDefaults() ExpOptions {
	if o.Progress != nil && o.cells == nil {
		o.cells = &cellProgress{rep: o.Progress}
	}
	if o.Calls <= 0 {
		o.Calls = 60000
	}
	if o.Seeds <= 0 {
		o.Seeds = 6
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Cores <= 0 {
		o.Cores = 16
	}
	return o
}

// Experiment is one reproducible figure or table.
type Experiment struct {
	ID    string
	Title string
	Run   func(ExpOptions) *Report
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Cost distribution of TCMalloc pools (400.perlbench)", Figure1},
		{"fig2", "CDF of malloc time vs call duration (macro workloads)", Figure2},
		{"table1", "Simulator validation on malloc microbenchmarks", Table1},
		{"fig4", "Fast-path cycle breakdown (microbenchmark ablations)", Figure4},
		{"fig6", "Size classes used per workload (CDF)", Figure6},
		{"fig13", "Improvement of time spent in the allocator", Figure13},
		{"fig14", "Improvement of time spent in malloc() calls", Figure14},
		{"fig15", "xapian.pages malloc duration distribution", Figure15},
		{"fig16", "483.xalancbmk malloc duration distribution", Figure16},
		{"fig17", "Effect of malloc cache size on malloc speedup", Figure17},
		{"fig18", "Fraction of time spent in the allocator", Figure18},
		{"table2", "Full program speedup with significance test", Table2},
		{"area", "Mallacc area cost and Pollack's Rule comparison", Area},
		{"ablation", "Design-decision ablations (extension)", Ablation},
		{"crossalloc", "Mallacc across allocator substrates (extension)", CrossAlloc},
		{"ctxswitch", "Mallacc under context switches (extension)", CtxSwitch},
		{"frag", "Memory footprint vs live bytes (extension)", Frag},
		{"buddy", "Hardware buddy allocator tradeoff (extension)", Buddy},
		{"scale", "Core-count scaling under central-heap contention (extension)", Scale},
		{"designspace", "Design-space study: lock-free backend and offload core vs Mallacc (extension)", DesignSpace},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func mustWorkload(name string) workload.Workload {
	w, ok := workload.ByName(name)
	if !ok {
		panic("harness: unknown workload " + name)
	}
	return w
}

// mustWorkloads resolves a list of workload names.
func mustWorkloads(names []string) []workload.Workload {
	ws := make([]workload.Workload, len(names))
	for i, name := range names {
		ws[i] = mustWorkload(name)
	}
	return ws
}

// variantGrid is, per workload, one run of each variant at the
// experiment's budget and seed, with the paper's 32-entry malloc cache.
func variantGrid(opt ExpOptions, ws []workload.Workload, vs ...Variant) []Options {
	opts := make([]Options, 0, len(ws)*len(vs))
	for _, w := range ws {
		for _, v := range vs {
			opts = append(opts, Options{Workload: w, Variant: v, MCEntries: 32, Calls: opt.Calls, Seed: opt.Seed})
		}
	}
	return opts
}

// Figure1 reproduces the three-peak time-in-calls PDF for perlbench:
// thread-cache hits around tens of cycles, central-list refills around
// 10^3, and span/page-allocator work around 10^4+.
func Figure1(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	r := opt.run(Options{Workload: mustWorkload("400.perlbench"), Variant: VariantBaseline, Calls: opt.Calls, Seed: opt.Seed})
	rep := &Report{ID: "fig1", Title: "Time in malloc calls by duration, 400.perlbench (baseline)"}
	rep.Notes = append(rep.Notes,
		"paper: three peaks — fast path, central free list, page allocator; miss >= 3 orders of magnitude costlier than a hit",
		fmt.Sprintf("calls=%d mean=%.1f cycles median=%.1f cycles", r.MallocHist.N(), r.MallocHist.MeanCycles(), r.MallocHist.MedianCycles()))
	rep.Lines = append(rep.Lines, "duration(cycles)      time-in-calls")
	rep.Lines = append(rep.Lines, renderHistRows(r, 44)...)
	rep.Series = append(rep.Series, histSeries("time-in-calls", r))
	rep.addRun(opt.Metrics, "400.perlbench/baseline", r)
	return rep
}

// histSeries converts a run's malloc-duration histogram into a typed series
// of per-power-of-two-bucket time shares.
func histSeries(name string, r *Result) Series {
	s := Series{Name: name, Unit: "%"}
	for _, b := range logBuckets(r) {
		s.Points = append(s.Points, Point{Label: fmt.Sprintf("%d-%d", b.Lo, b.Hi), Value: b.TimePct})
	}
	return s
}

func renderHistRows(r *Result, width int) []string {
	bs := logBuckets(r)
	var peak float64
	for _, b := range bs {
		if b.TimePct > peak {
			peak = b.TimePct
		}
	}
	out := make([]string, 0, len(bs))
	for _, b := range bs {
		out = append(out, fmt.Sprintf("%8d-%-8d %6.2f%% |%s", b.Lo, b.Hi, b.TimePct, bar(b.TimePct, peak, width)))
	}
	return out
}

func logBuckets(r *Result) []stats.Bucket {
	// Coalesce to power-of-two buckets for display.
	byExp := map[int]*stats.Bucket{}
	for _, b := range r.MallocHist.Buckets() {
		exp := 0
		for v := b.Lo; v > 1; v >>= 1 {
			exp++
		}
		agg, ok := byExp[exp]
		if !ok {
			agg = &stats.Bucket{Lo: 1 << uint(exp), Hi: 1 << uint(exp+1)}
			byExp[exp] = agg
		}
		agg.Count += b.Count
		agg.Cycles += b.Cycles
	}
	exps := make([]int, 0, len(byExp))
	for e := range byExp {
		exps = append(exps, e)
	}
	sort.Ints(exps)
	total := r.MallocHist.TotalCycles()
	out := make([]stats.Bucket, 0, len(exps))
	for _, e := range exps {
		b := *byExp[e]
		if total > 0 {
			b.TimePct = 100 * float64(b.Cycles) / float64(total)
		}
		out = append(out, b)
	}
	return out
}

// Figure2 reports, per macro workload, the cumulative share of malloc time
// spent in calls below duration thresholds; the paper's headline is that
// most workloads spend >60% of malloc time on sub-100-cycle calls.
func Figure2(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "fig2", Title: "CDF of time in malloc by call duration (baseline)"}
	rep.Notes = append(rep.Notes, "paper: >60% of malloc time below 100 cycles for SPEC; masstree perf tests >30% on the fast path")
	tb := &table{header: []string{"workload", "<32cy", "<100cy", "<1k", "<10k", "<100k"}}
	ws := workload.Macro()
	results := opt.runGrid(variantGrid(opt, ws, VariantBaseline))
	for i, w := range ws {
		r := results[i]
		tb.addRow(w.Name(),
			pct(r.MallocHist.TimeCDFBelow(32)),
			pct(r.MallocHist.TimeCDFBelow(100)),
			pct(r.MallocHist.TimeCDFBelow(1000)),
			pct(r.MallocHist.TimeCDFBelow(10000)),
			pct(r.MallocHist.TimeCDFBelow(100000)))
	}
	rep.addTable("", tb)
	return rep
}

// table1Benchmarks lists the microbenchmarks of the validation table with
// the paper's published native anchors where one exists (tp_small averages
// 18 cycles on real Haswell, Sec. 3.2; the fast path spans 18-20 cycles,
// Sec. 3.3). antagonist is omitted, exactly as in the paper ("it uses a
// simulator callback ... and does not run natively").
var table1Benchmarks = []struct {
	name   string
	anchor float64 // 0 = no published number
}{
	{"ubench.gauss", 0},
	{"ubench.gauss_free", 0},
	{"ubench.tp", 0},
	{"ubench.tp_small", 18.0},
	{"ubench.sized_deletes", 0},
}

// Table1 validates the detailed out-of-order timing model. The paper
// validates XIOSim against a real Haswell (mean error 6.28%); silicon is
// unavailable here, so the reference is the independent dependence-graph
// analytical model (no ports, widths, predictor, ROB or MSHRs — the same
// micro-op traces scheduled by dataflow alone), with the paper's published
// native anchors quoted where they exist. See EXPERIMENTS.md.
func Table1(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "table1", Title: "Simulator validation on malloc microbenchmarks"}
	rep.Notes = append(rep.Notes,
		"paper: per-benchmark cycle error 3.7-12.3% vs real Haswell, average 6.28%",
		"here: detailed OoO model vs the dependence-graph analytical reference (no silicon available)")
	tb := &table{header: []string{"benchmark", "analytic(cyc)", "detailed(cyc)", "error", "paper-native(cyc)"}}
	var opts []Options
	for _, c := range table1Benchmarks {
		det := Options{Workload: mustWorkload(c.name), Variant: VariantBaseline, Calls: opt.Calls, Seed: opt.Seed}
		ana := det
		ana.AnalyticCPU = true
		opts = append(opts, det, ana)
	}
	results := opt.runGrid(opts)
	var errSum float64
	for i, c := range table1Benchmarks {
		d, a := results[2*i].MeanMallocCycles(), results[2*i+1].MeanMallocCycles()
		e := 100 * abs(d-a) / a
		errSum += e
		anchor := "-"
		if c.anchor > 0 {
			anchor = fmt.Sprintf("%.1f", c.anchor)
		}
		tb.addRow(c.name, fmt.Sprintf("%.1f", a), fmt.Sprintf("%.1f", d), pct(e), anchor)
	}
	tb.addRow("Average", "", "", pct(errSum/float64(len(table1Benchmarks))), "")
	rep.addTable("", tb)
	return rep
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Figure4 reproduces the fast-path component breakdown: for each
// microbenchmark, the average fast-path malloc latency with each step's
// instructions ignored by timing, and with all three removed (Combined).
func Figure4(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "fig4", Title: "Fast-path cycles by component (timing-ablated steps)"}
	rep.Notes = append(rep.Notes, "paper: the three components together account for ~50% of fast-path cycles")
	tb := &table{header: []string{"benchmark", "baseline", "-sampling", "-sizeclass", "-push/pop", "combined", "combined save"}}
	ablations := []struct {
		label string
		steps []uop.Step
	}{
		{"baseline", nil},
		{"-sampling", []uop.Step{uop.StepSampling}},
		{"-sizeclass", []uop.Step{uop.StepSizeClass}},
		{"-pushpop", []uop.Step{uop.StepPushPop}},
		{"combined", []uop.Step{uop.StepSampling, uop.StepSizeClass, uop.StepPushPop}},
	}
	ws := workload.Micro()
	var opts []Options
	for _, w := range ws {
		for _, a := range ablations {
			var drop [uop.NumSteps]bool
			for _, s := range a.steps {
				drop[s] = true
			}
			opts = append(opts, Options{Workload: w, Variant: VariantBaseline, UseDropSteps: true, DropSteps: drop, Calls: opt.Calls, Seed: opt.Seed})
		}
	}
	results := opt.runGrid(opts)
	for wi, w := range ws {
		cyc := make([]float64, len(ablations))
		for ai, a := range ablations {
			r := results[wi*len(ablations)+ai]
			rep.addRun(opt.Metrics, w.Name()+"/"+a.label, r)
			cyc[ai] = r.MeanFastMallocCycles()
		}
		base, noSamp, noSz, noPop, comb := cyc[0], cyc[1], cyc[2], cyc[3], cyc[4]
		save := 0.0
		if base > 0 {
			save = 100 * (base - comb) / base
		}
		tb.addRow(w.Name(),
			fmt.Sprintf("%.1f", base), fmt.Sprintf("%.1f", noSamp), fmt.Sprintf("%.1f", noSz),
			fmt.Sprintf("%.1f", noPop), fmt.Sprintf("%.1f", comb), pct(save))
	}
	rep.addTable("", tb)
	return rep
}

// Figure6 reports how many size classes cover 50/90/99% of malloc calls
// per macro workload; the paper finds all but xalancbmk need <5 for 90%.
func Figure6(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "fig6", Title: "Size classes used per workload (CDF of malloc calls)"}
	rep.Notes = append(rep.Notes, "paper: all but one workload use <5 classes on 90% of calls; xalancbmk needs ~30; masstree ~1")
	tb := &table{header: []string{"workload", "classes", "50%", "90%", "99%"}}
	ws := workload.Macro()
	results := opt.runGrid(variantGrid(opt, ws, VariantBaseline))
	for i, w := range ws {
		r := results[i]
		counts := make([]uint64, 0, len(r.ClassCounts))
		var total uint64
		for _, c := range r.ClassCounts {
			counts = append(counts, c)
			total += c
		}
		sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
		cover := func(p float64) int {
			target := p / 100 * float64(total)
			acc := 0.0
			for i, c := range counts {
				acc += float64(c)
				if acc >= target {
					return i + 1
				}
			}
			return len(counts)
		}
		tb.addRow(w.Name(), fmt.Sprintf("%d", len(counts)),
			fmt.Sprintf("%d", cover(50)), fmt.Sprintf("%d", cover(90)), fmt.Sprintf("%d", cover(99)))
	}
	rep.addTable("", tb)
	return rep
}

// improvementRows runs baseline/mallacc/limit for every macro workload and
// returns per-workload improvements of the chosen metric.
func improvementRows(opt ExpOptions, rep *Report, metric func(*Result) float64) (names []string, mallacc, limit []float64) {
	ws := workload.Macro()
	results := opt.runGrid(variantGrid(opt, ws, VariantBaseline, VariantMallacc, VariantLimit))
	for i, w := range ws {
		base, mall, lim := results[3*i], results[3*i+1], results[3*i+2]
		rep.addRun(opt.Metrics, w.Name()+"/baseline", base)
		rep.addRun(opt.Metrics, w.Name()+"/mallacc", mall)
		rep.addRun(opt.Metrics, w.Name()+"/limit", lim)
		b := metric(base)
		names = append(names, w.Name())
		mallacc = append(mallacc, 100*(b-metric(mall))/b)
		limit = append(limit, 100*(b-metric(lim))/b)
	}
	return names, mallacc, limit
}

// Figure13 reports the reduction of total allocator (malloc+free) time,
// Mallacc vs the limit study, with a 32-entry malloc cache.
func Figure13(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "fig13", Title: "Allocator (malloc+free) time improvement, 32-entry cache"}
	rep.Notes = append(rep.Notes, "paper: average 18% achieved of 28% projected by the limit study")
	tb := &table{header: []string{"workload", "mallacc", "limit", ""}}
	names, mall, lim := improvementRows(opt, rep, func(r *Result) float64 { return float64(r.AllocatorCycles()) })
	for i := range names {
		tb.addRow(names[i], pct(mall[i]), pct(lim[i]), bar(mall[i], 60, 30))
	}
	tb.addRow("Geomean", pct(geoImp(mall)), pct(geoImp(lim)), "")
	rep.addTable("", tb)
	return rep
}

// geoImp computes the geometric-mean improvement from percent improvements
// (via survival ratios, clamped for any negative entries).
func geoImp(imps []float64) float64 {
	ratios := make([]float64, len(imps))
	for i, p := range imps {
		r := 1 - p/100
		if r <= 0.01 {
			r = 0.01
		}
		ratios[i] = r
	}
	return 100 * (1 - stats.GeoMean(ratios))
}

// Figure14 reports the reduction of time spent in malloc() calls alone
// (both fast and slow paths).
func Figure14(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "fig14", Title: "malloc() time improvement, 32-entry cache"}
	rep.Notes = append(rep.Notes, "paper: average near 30%, over 40% for xapian and xalancbmk")
	tb := &table{header: []string{"workload", "mallacc", ""}}
	names, mall, _ := improvementRows(opt, rep, func(r *Result) float64 { return float64(r.MallocCycles) })
	for i := range names {
		tb.addRow(names[i], pct(mall[i]), bar(mall[i], 60, 30))
	}
	tb.addRow("Geomean", pct(geoImp(mall)), "")
	rep.addTable("", tb)
	return rep
}

// durationComparison renders per-variant duration PDFs for one workload.
func durationComparison(id, title, wname string, opt ExpOptions, note string) *Report {
	rep := &Report{ID: id, Title: title}
	rep.Notes = append(rep.Notes, note)
	variants := []Variant{VariantBaseline, VariantLimit, VariantMallacc}
	results := opt.runGrid(variantGrid(opt, []workload.Workload{mustWorkload(wname)}, variants...))
	for i, v := range variants {
		rep.addRun(opt.Metrics, wname+"/"+v.String(), results[i])
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("median malloc cycles: baseline=%.0f limit=%.0f mallacc=%.0f",
		results[0].MallocHist.MedianCycles(), results[1].MallocHist.MedianCycles(), results[2].MallocHist.MedianCycles()))
	tb := &table{header: []string{"duration", "baseline", "limit", "mallacc"}}
	// Union of buckets across variants.
	expSet := map[int]bool{}
	pdfs := make([]map[int]float64, 3)
	for i, r := range results {
		pdfs[i] = map[int]float64{}
		for _, b := range logBuckets(r) {
			exp := 0
			for v := b.Lo; v > 1; v >>= 1 {
				exp++
			}
			expSet[exp] = true
			pdfs[i][exp] = b.TimePct
		}
	}
	exps := make([]int, 0, len(expSet))
	for e := range expSet {
		exps = append(exps, e)
	}
	sort.Ints(exps)
	for _, e := range exps {
		tb.addRow(fmt.Sprintf("%d-%d", 1<<uint(e), 1<<uint(e+1)),
			pct(pdfs[0][e]), pct(pdfs[1][e]), pct(pdfs[2][e]))
	}
	rep.addTable("", tb)
	return rep
}

// Figure15 compares xapian.pages call-duration distributions across
// configurations; the paper sees the median call drop from ~20-40 cycles
// to 13, nearly matching the limit study.
func Figure15(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	return durationComparison("fig15", "xapian.pages: time-in-calls PDF by variant", "xapian.pages", opt,
		"paper: baseline calls cluster at 20-40 cycles; Mallacc median ~13, close to the limit study")
}

// Figure16 does the same for xalancbmk, which also gains from cache
// isolation in the L3-latency region (20-70 cycles).
func Figure16(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	return durationComparison("fig16", "483.xalancbmk: time-in-calls PDF by variant", "483.xalancbmk", opt,
		"paper: fast spike improves like xapian; the 20-70 cycle (L3) region shrinks via cache isolation; slow calls unaffected")
}

// Figure17 sweeps the malloc cache size over the microbenchmarks,
// reporting malloc-time speedup; undersized caches slow down (fallback +
// lookup overhead), speedups jump once all of a benchmark's classes fit,
// and tp exposes the prefetch-blocking slowdown.
func Figure17(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "fig17", Title: "malloc speedup vs malloc cache size"}
	rep.Notes = append(rep.Notes,
		"paper: slowdowns when the cache is too small; inflection at 4/8/25 entries for tp_small/sized_deletes/tp; tp slowed by prefetch blocking; Gaussians level at ~12-13 (13 classes)")
	sizes := []int{2, 4, 6, 8, 12, 16, 20, 24, 28, 32}
	header := []string{"benchmark"}
	for _, s := range sizes {
		header = append(header, fmt.Sprintf("%d", s))
	}
	header = append(header, "limit")
	tb := &table{header: header}
	// Per workload: baseline, one mallacc run per cache size, then limit.
	ws := workload.Micro()
	var opts []Options
	for _, w := range ws {
		opts = append(opts, Options{Workload: w, Variant: VariantBaseline, Calls: opt.Calls, Seed: opt.Seed})
		for _, s := range sizes {
			opts = append(opts, Options{Workload: w, Variant: VariantMallacc, MCEntries: s, Calls: opt.Calls, Seed: opt.Seed})
		}
		opts = append(opts, Options{Workload: w, Variant: VariantLimit, Calls: opt.Calls, Seed: opt.Seed})
	}
	results := opt.runGrid(opts)
	stride := len(sizes) + 2
	for wi, w := range ws {
		cells := results[wi*stride : (wi+1)*stride]
		b := float64(cells[0].MallocCycles)
		row := []string{w.Name()}
		for _, r := range cells[1:] {
			row = append(row, pct(100*(b-float64(r.MallocCycles))/b))
		}
		tb.addRow(row...)
	}
	rep.addTable("", tb)
	return rep
}

// figure18WSC is the warehouse-scale-computer reference bar from Kanev et
// al. (ISCA'15), quoted by the paper as "nearly 7%".
const figure18WSC = 6.9

// Figure18 reports the fraction of total execution time spent in the
// allocator per workload, with the WSC fleet measurement for reference.
func Figure18(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "fig18", Title: "Fraction of time spent in tcmalloc"}
	rep.Notes = append(rep.Notes, "paper: WSC fleet ~7%; masstree.same 18.6%; SPEC/xapian mostly 1-5%")
	tb := &table{header: []string{"workload", "fraction", ""}}
	tb.addRow("WSC (Kanev et al.)", pct(figure18WSC), bar(figure18WSC, 20, 40))
	ws := workload.Macro()
	results := opt.runGrid(variantGrid(opt, ws, VariantBaseline))
	for i, w := range ws {
		f := 100 * results[i].AllocatorFraction()
		tb.addRow(w.Name(), pct(f), bar(f, 20, 40))
	}
	rep.addTable("", tb)
	return rep
}

// Table2 measures full-program speedup across seeds and applies the
// one-sided paired t-test; workloads whose speedup is not significant at
// 95% are flagged, mirroring the paper's reporting rule.
func Table2(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "table2", Title: "Full program speedup (paired across seeds, one-sided t-test)"}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("paper: mean 0.43%%, max 0.78%% (perlbench); workloads failing the 95%% test omitted; %d seeds here", opt.Seeds))
	tb := &table{header: []string{"workload", "speedup", "stddev", "p-value", "significant"}}
	ws := workload.Macro()
	var opts []Options
	for _, w := range ws {
		for s := 0; s < opt.Seeds; s++ {
			seed := opt.Seed + uint64(s)*7919
			opts = append(opts,
				Options{Workload: w, Variant: VariantBaseline, Calls: opt.Calls, Seed: seed},
				Options{Workload: w, Variant: VariantMallacc, MCEntries: 32, Calls: opt.Calls, Seed: seed})
		}
	}
	results := opt.runGrid(opts)
	var sigSpeedups []float64
	for wi, w := range ws {
		var baseTotals, mallTotals, speedups []float64
		for s := 0; s < opt.Seeds; s++ {
			base, mall := results[2*(wi*opt.Seeds+s)], results[2*(wi*opt.Seeds+s)+1]
			bt, mt := float64(base.TotalCycles), float64(mall.TotalCycles)
			baseTotals = append(baseTotals, bt)
			mallTotals = append(mallTotals, mt)
			speedups = append(speedups, 100*(bt-mt)/bt)
		}
		tt := stats.OneSidedPairedT(baseTotals, mallTotals, 0.05)
		mean := stats.MeanOf(speedups)
		if tt.Significant {
			sigSpeedups = append(sigSpeedups, mean)
		}
		tb.addRow(w.Name(), pct(mean), pct(stats.StdDevOf(speedups)),
			fmt.Sprintf("%.4f", tt.P), fmt.Sprintf("%v", tt.Significant))
	}
	if len(sigSpeedups) > 0 {
		tb.addRow("Mean (significant)", pct(stats.MeanOf(sigSpeedups)), "", "", "")
	}
	rep.addTable("", tb)
	return rep
}

// Area reports the Section 6.4 silicon cost model.
func Area(ExpOptions) *Report {
	rep := &Report{ID: "area", Title: "Mallacc area cost (28nm) and Pollack's Rule comparison"}
	rep.Notes = append(rep.Notes, "paper: CAMs 873um2 + SRAM 346um2 + logic 265um2 ~= 1484um2 (<1500), 0.006% of a 26.5mm2 Haswell core, >140x Pollack")
	m := area.DefaultModel()
	tb := &table{header: []string{"entries", "bits/entry", "CAM(B)", "SRAM(B)", "CAM(um2)", "SRAM(um2)", "logic(um2)", "total(um2)", "% of core", "Pollack adv @0.43%"}}
	for _, n := range []int{2, 4, 8, 16, 32} {
		g := area.DefaultGeometry(n)
		e := m.Estimate(g)
		tb.addRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", g.BitsPerEntry()),
			fmt.Sprintf("%d", g.CAMBytes()),
			fmt.Sprintf("%d", g.SRAMBytes()),
			fmt.Sprintf("%.0f", e.CAMArea),
			fmt.Sprintf("%.0f", e.SRAMArea),
			fmt.Sprintf("%.0f", e.LogicArea),
			fmt.Sprintf("%.0f", e.Total()),
			fmt.Sprintf("%.4f%%", 100*m.FractionOfCore(e)),
			fmt.Sprintf("%.0fx", m.PollackAdvantage(e, 0.0043)),
		)
	}
	rep.addTable("", tb)
	return rep
}
