// Package harness wires the pieces of the reproduction together: it runs a
// workload against an allocator configuration (baseline, Mallacc, or the
// limit study) on the simulated core, collects the statistics every figure
// and table of the paper is built from, and provides one experiment runner
// per figure/table (experiments.go).
package harness

import (
	"mallacc/internal/cachesim"
	"mallacc/internal/catalog"
	"mallacc/internal/core"
	"mallacc/internal/cpu"
	"mallacc/internal/lockfree"
	"mallacc/internal/mem"
	"mallacc/internal/offload"
	"mallacc/internal/progress"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/telemetry"
	"mallacc/internal/uop"
	"mallacc/internal/workload"
)

// Variant selects the simulated configuration of a run.
type Variant uint8

const (
	// VariantBaseline is unmodified TCMalloc on the stock core.
	VariantBaseline Variant = iota
	// VariantMallacc runs the accelerated fast path.
	VariantMallacc
	// VariantLimit is the paper's limit study: baseline software with the
	// three fast-path steps ignored by timing.
	VariantLimit
	// VariantOffload dispatches malloc/free over a modeled queue to a
	// dedicated lightweight allocation core (internal/offload).
	VariantOffload
)

func (v Variant) String() string {
	switch v {
	case VariantMallacc:
		return "mallacc"
	case VariantLimit:
		return "limit"
	case VariantOffload:
		return "offload"
	default:
		return "baseline"
	}
}

// VariantByName maps a catalog variant name to the enum; unknown names
// return false.
func VariantByName(name string) (Variant, bool) {
	switch name {
	case "", "baseline":
		return VariantBaseline, true
	case "mallacc":
		return VariantMallacc, true
	case "limit":
		return VariantLimit, true
	case "offload":
		return VariantOffload, true
	}
	return VariantBaseline, false
}

// Options configures one simulation run.
type Options struct {
	Workload workload.Workload
	Variant  Variant
	// Backend selects the allocator substrate: "" or "tcmalloc" runs the
	// default heap, "lockfree" the per-class lock-free stack backend. The
	// (backend, variant) pair is validated against internal/catalog.
	Backend string
	// MCEntries sizes the malloc cache (default 32, the paper's headline
	// configuration; Fig. 17 sweeps it and Sec. 6.2 settles on 16).
	MCEntries int
	// IndexMode enables the TCMalloc-specific index keying (default on).
	IndexModeOff bool
	// DropSteps selects which fast-path steps timing ignores; used by the
	// Figure 4 per-step ablations. Ignored unless Variant == VariantLimit
	// or explicitly set with UseDropSteps.
	DropSteps    [uop.NumSteps]bool
	UseDropSteps bool
	// Calls is the allocator-call budget (default 50000).
	Calls int
	// Seed drives all randomness in the run.
	Seed uint64
	// SampleInterval overrides the sampler (nil = allocator default).
	SampleInterval *int64
	// DisableSizedDelete turns off -fsized-deallocation.
	DisableSizedDelete bool
	// AnalyticCPU swaps the detailed out-of-order model for the
	// dependence-graph reference model (Table 1 validation).
	AnalyticCPU bool

	// Ablation controls (VariantMallacc only): disable individual
	// accelerator components or design rules.
	Ablate            tcmalloc.Ablation
	MCReplacement     core.Replacement
	MCNoNextSlot      bool
	MCNoRestoreOnMiss bool
	// NoPrefetchBlocking removes the entry-blocking consistency rule from
	// timing.
	NoPrefetchBlocking bool

	// Threads runs the workload over several thread caches round-robin
	// (default 1). Frees may land on a different thread than the matching
	// malloc, migrating memory through the central lists.
	Threads int
	// SwitchEvery injects a context switch every N allocator calls:
	// execution rotates to the next thread and the malloc cache is
	// flushed (no writebacks needed — Sec. 4.1). 0 disables switches.
	SwitchEvery int

	// Progress, when set, receives periodic execution snapshots plus one
	// final Done snapshot. The cadence is ProgressEvery simulated cycles
	// (progress.DefaultEvery when 0) on the core's logical clock, so the
	// snapshot stream is a pure function of the run's options — identical
	// seed and spec publish identical events. Observability only: it never
	// changes simulation results.
	Progress      progress.Reporter
	ProgressEvery uint64
}

// Result is everything a run produces.
type Result struct {
	Workload string
	Variant  Variant
	// Backend is the allocator substrate the run used ("" = tcmalloc).
	Backend string

	MallocHist *stats.DurationHist
	FreeHist   *stats.DurationHist
	// FastMallocCycles/Calls cover malloc calls served by a thread cache.
	FastMallocCycles uint64
	FastMallocCalls  uint64

	MallocCycles, FreeCycles uint64
	MallocCalls, FreeCalls   uint64
	AppCycles                uint64
	TotalCycles              uint64

	// ClassCounts histograms the size class of every small malloc
	// (Figure 6).
	ClassCounts map[uint8]uint64

	// ContextSwitches counts injected switches (multithreaded runs).
	ContextSwitches uint64

	// Memory accounting (Sec. 2: allocators are judged on both speed and
	// fragmentation): OSBytes is what the allocator requested from the
	// simulated OS, PeakLiveBytes the largest rounded-live footprint the
	// workload held.
	OSBytes       uint64
	PeakLiveBytes uint64

	Heap tcmalloc.HeapStats
	CPU  cpu.Stats
	// MC holds accelerator statistics (VariantMallacc only).
	MC *core.Stats
	// LockFree holds the lock-free backend's stats (Backend "lockfree"
	// only; nil otherwise).
	LockFree *lockfree.Stats
	// Offload holds the allocation-core engine's stats (VariantOffload
	// only; nil otherwise).
	Offload *offload.Stats

	// Telemetry is the run's full metrics snapshot: every layer's counters
	// plus per-step cycle attribution (step.sizeclass.cycles, ...), keyed
	// by dotted metric name.
	Telemetry telemetry.Snapshot
}

// AllocatorCycles returns cycles spent in malloc+free.
func (r *Result) AllocatorCycles() uint64 { return r.MallocCycles + r.FreeCycles }

// AllocatorFraction returns the share of total time spent in the allocator
// (Figure 18).
func (r *Result) AllocatorFraction() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.AllocatorCycles()) / float64(r.TotalCycles)
}

// MeanMallocCycles returns the average malloc call latency.
func (r *Result) MeanMallocCycles() float64 {
	if r.MallocCalls == 0 {
		return 0
	}
	return float64(r.MallocCycles) / float64(r.MallocCalls)
}

// MeanFastMallocCycles returns the average latency of thread-cache-hit
// malloc calls (the fast path of Figure 4).
func (r *Result) MeanFastMallocCycles() float64 {
	if r.FastMallocCalls == 0 {
		return 0
	}
	return float64(r.FastMallocCycles) / float64(r.FastMallocCalls)
}

// driver implements workload.App for one simulated core running one
// allocator substrate. The substrate plugs in its trace emitter and two
// hooks that execute an allocator call functionally on thread cur, leaving
// the call's trace in em; the driver times the trace and keeps all other
// bookkeeping: histograms, class counts, the fast-path split, footprint
// touches, context-switch rotation, progress and AppCycles.
type driver struct {
	em     *uop.Emitter
	malloc func(size uint64) (addr uint64, fast bool)
	free   func(addr, hint uint64)

	// sizeMap classes each malloc for ClassCounts (Figure 6), mc is the
	// malloc cache progress snapshots report on, and flush invalidates the
	// accelerator state at a context switch; each is nil where the
	// substrate has none.
	sizeMap *tcmalloc.SizeMap
	mc      *core.MallocCache
	flush   func()

	core  *cpu.Core
	reg   *telemetry.Registry
	rng   *stats.RNG
	foot  workload.Toucher
	res   *Result
	track *progress.Tracker

	threads, cur           int
	switchEvery, callCount int

	liveBytes uint64 // rounded bytes of the live objects
}

// newDriver builds the simulated core opt describes and registers its
// telemetry. The caller binds a substrate (em, malloc, free and its own
// metrics) before run.
func newDriver(opt Options) *driver {
	cCfg := cpu.DefaultConfig()
	switch {
	case opt.UseDropSteps:
		cCfg.DropSteps = opt.DropSteps
	case opt.Variant == VariantLimit:
		cCfg.DropSteps[uop.StepSizeClass] = true
		cCfg.DropSteps[uop.StepSampling] = true
		cCfg.DropSteps[uop.StepPushPop] = true
	}
	cCfg.NoPrefetchBlocking = opt.NoPrefetchBlocking
	c := cpu.New(cCfg, cachesim.NewDefaultHierarchy())
	c.SetAnalytic(opt.AnalyticCPU)

	// Telemetry: every layer registers into one registry; the step profiler
	// rides the core's per-call attribution callback.
	reg := telemetry.NewRegistry()
	prof := telemetry.NewStepProfiler(StepNames())
	prof.Register(reg)
	c.SetStepObserver(prof.ObserveCall)
	c.RegisterMetrics(reg)
	c.Memory().RegisterMetrics(reg)

	return &driver{
		core: c,
		reg:  reg,
		rng:  stats.NewRNG(opt.Seed*0x9e3779b9 + 0x1234),
		foot: workload.NewToucher(opt.Workload),
		res: &Result{
			Workload:    opt.Workload.Name(),
			Variant:     opt.Variant,
			Backend:     catalog.NormalizeBackend(opt.Backend),
			MallocHist:  stats.NewDurationHist(),
			FreeHist:    stats.NewDurationHist(),
			ClassCounts: map[uint8]uint64{},
		},
		track:       progress.NewTracker(opt.Progress, opt.ProgressEvery),
		threads:     max(opt.Threads, 1),
		switchEvery: opt.SwitchEvery,
	}
}

// run drives opt.Workload through the bound substrate and returns the
// result with its timing, CPU statistics and telemetry filled in; the
// substrate adds its own end-of-run state.
func (d *driver) run(opt Options) *Result {
	start := d.core.Cycle()
	opt.Workload.Run(d, opt.Calls, stats.NewRNG(opt.Seed+1))
	d.track.Finish(d.core.Cycle(), d.fillSnapshot)
	d.res.TotalCycles = d.core.Cycle() - start
	d.res.CPU = d.core.Stats
	d.res.Telemetry = d.reg.Snapshot()
	return d.res
}

// tick counts an allocator call and injects context switches: every
// switchEvery calls execution rotates to the next thread, the substrate
// flushes its malloc cache (no writebacks needed — Sec. 4.1), and the core
// drains and pays for the OS switch.
func (d *driver) tick() {
	if d.switchEvery <= 0 {
		return
	}
	d.callCount++
	if d.callCount%d.switchEvery == 0 {
		d.cur = (d.cur + 1) % d.threads
		if d.flush != nil {
			d.flush()
		}
		d.core.ContextSwitch()
		// The OS switch itself: a few microseconds of kernel time.
		d.core.AdvanceApp(3000, nil)
		d.res.AppCycles += 3000
		d.res.ContextSwitches++
	}
}

// allocated and freed keep the live-byte ledger behind PeakLiveBytes; a
// substrate's hooks report each block's rounded size.
func (d *driver) allocated(n uint64) {
	d.liveBytes += n
	if d.liveBytes > d.res.PeakLiveBytes {
		d.res.PeakLiveBytes = d.liveBytes
	}
}

func (d *driver) freed(n uint64) { d.liveBytes -= n }

// Run executes a workload under the given options and returns the
// collected result.
func Run(opt Options) *Result {
	backend := opt.Backend
	if backend == "" {
		backend = catalog.BackendTCMalloc
	}
	if err := catalog.CheckCombo(backend, opt.Variant.String()); err != nil {
		panic("harness: " + err.Error())
	}
	if opt.Calls <= 0 {
		opt.Calls = 50000
	}
	if opt.MCEntries <= 0 {
		opt.MCEntries = 32
	}
	switch {
	case backend == catalog.BackendLockFree:
		return runLockfree(opt)
	case opt.Variant == VariantOffload:
		return runOffload(opt)
	}
	return runTCMalloc(opt)
}

// runTCMalloc runs opt on the default TCMalloc heap, one thread cache per
// thread.
func runTCMalloc(opt Options) *Result {
	hCfg := tcmalloc.DefaultConfig()
	hCfg.Seed = opt.Seed
	if opt.Variant == VariantMallacc {
		hCfg.Mode = tcmalloc.ModeMallacc
		hCfg.MallocCache = core.Config{
			Entries:         opt.MCEntries,
			IndexMode:       !opt.IndexModeOff,
			Replacement:     opt.MCReplacement,
			NoNextSlot:      opt.MCNoNextSlot,
			NoRestoreOnMiss: opt.MCNoRestoreOnMiss,
		}
		hCfg.Ablate = opt.Ablate
	}
	if opt.SampleInterval != nil {
		hCfg.SampleInterval = *opt.SampleInterval
	}
	if opt.DisableSizedDelete {
		hCfg.SizedDelete = false
	}
	heap := tcmalloc.New(hCfg)
	// The heap dies with this run; hand its trace slab back to the pool.
	defer heap.Em.Recycle()
	d := newDriver(opt)
	threads := make([]*tcmalloc.ThreadCache, d.threads)
	for i := range threads {
		threads[i] = heap.NewThread()
	}
	metaBytes := heap.Space.SbrkBytes // fixed metadata arena, excluded from OSBytes
	heap.RegisterMetrics(d.reg)

	d.em, d.sizeMap, d.mc, d.flush = heap.Em, heap.SizeMap, heap.MC, heap.FlushMallocCache
	d.malloc = func(size uint64) (uint64, bool) {
		tc := threads[d.cur]
		fastBefore := tc.Stats.FastHits
		addr := heap.Malloc(tc, size)
		d.allocated(spanSize(heap, addr))
		return addr, tc.Stats.FastHits != fastBefore
	}
	d.free = func(addr, hint uint64) {
		// Before heap.Free: a freed large span may be coalesced away.
		d.freed(spanSize(heap, addr))
		heap.Free(threads[d.cur], addr, hint)
	}

	res := d.run(opt)
	res.OSBytes = heap.Space.SbrkBytes - metaBytes
	res.Heap = heap.StatsSnapshot()
	if heap.MC != nil {
		mcStats := heap.MC.Stats
		res.MC = &mcStats
	}
	heap.CheckInvariants()
	return res
}

// spanSize returns the rounded footprint of the live object at addr, read
// off the span that holds it: the size class's object size, or the whole
// span for a large allocation. The lookup is functional only and emits no
// uops, so it replaces a per-object side table at no simulated cost.
func spanSize(h *tcmalloc.Heap, addr uint64) uint64 {
	s := h.PageHeap.PageMap().Get(addr >> mem.PageShift)
	if s.SizeClass == 0 {
		return s.Length << mem.PageShift
	}
	return h.SizeMap.ClassSize(s.SizeClass)
}

// StepNames returns the fast-path step tag names in uop.Step order — the
// labels the per-step attribution metrics are registered under.
func StepNames() []string {
	names := make([]string, uop.NumSteps)
	for i := range names {
		names[i] = uop.Step(i).String()
	}
	return names
}

func (d *driver) Malloc(size uint64) uint64 {
	d.em.Reset()
	addr, fast := d.malloc(size)
	d.tick()
	cyc := d.core.RunTrace(d.em.Trace())
	d.res.MallocHist.Add(cyc)
	d.res.MallocCycles += cyc
	d.res.MallocCalls++
	if fast {
		d.res.FastMallocCycles += cyc
		d.res.FastMallocCalls++
	}
	if d.sizeMap != nil {
		if cl, _, ok := d.sizeMap.ClassFor(size); ok {
			d.res.ClassCounts[cl]++
		}
	}
	d.track.Observe(d.core.Cycle(), d.fillSnapshot)
	return addr
}

// fillSnapshot populates a progress snapshot from the run's live counters.
func (d *driver) fillSnapshot(s *progress.Snapshot) {
	s.Instructions = d.core.Stats.Uops
	s.MallocCalls = d.res.MallocCalls
	s.FreeCalls = d.res.FreeCalls
	if d.mc != nil {
		s.MCHitRate = telemetry.Ratio(d.mc.Stats.LookupHits, d.mc.Stats.LookupMisses)
	}
}

func (d *driver) Free(addr uint64, sizeHint uint64) {
	d.em.Reset()
	d.free(addr, sizeHint)
	d.tick()
	cyc := d.core.RunTrace(d.em.Trace())
	d.res.FreeHist.Add(cyc)
	d.res.FreeCycles += cyc
	d.res.FreeCalls++
	d.track.Observe(d.core.Cycle(), d.fillSnapshot)
}

func (d *driver) Work(cycles uint64, lines int) {
	d.core.AdvanceApp(cycles, d.foot.Touch(d.rng, lines))
	d.res.AppCycles += cycles
}

func (d *driver) Antagonize() {
	d.core.Memory().Antagonize()
}
