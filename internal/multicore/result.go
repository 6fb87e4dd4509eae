package multicore

import (
	"mallacc/internal/core"
	"mallacc/internal/lockfree"
	"mallacc/internal/offload"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/telemetry"
	"mallacc/internal/uop"
)

// Result is everything a multi-core run produces: the per-core breakdown,
// the machine-wide aggregates, and the full telemetry snapshot (per-core
// metrics under "core<i>.", shared-heap metrics at the root, lock and
// engine counters under "lock.*" / "engine.*" / "agg.*"). A single-core
// run's SoloResult embeds it, with its one core's metrics at the root.
type Result struct {
	Cores    int
	Variant  Variant
	Backend  string
	Workload string

	PerCore []CoreStats

	MallocCalls, MallocCycles         uint64
	FastMallocCalls, FastMallocCycles uint64
	FreeCalls, FreeCycles             uint64
	AppCycles                         uint64
	// TotalCycles sums every core's busy time; WallCycles is the slowest
	// core's clock — the simulated machine's elapsed time.
	TotalCycles uint64
	WallCycles  uint64

	Epochs       uint64
	Yields       uint64
	RemoteFrees  uint64
	CentralLock  LockSiteStats
	PageHeapLock LockSiteStats

	Heap tcmalloc.HeapStats
	// MC sums the per-core malloc-cache stats (Mallacc variant only).
	MC *core.Stats
	// LockFree holds the shared lock-free heap's stats (lockfree backend
	// only; nil otherwise).
	LockFree *lockfree.Stats
	// Offload holds the allocation-core engine's stats (Offload variant
	// only; nil otherwise).
	Offload *offload.Stats

	Telemetry telemetry.Snapshot
}

// AllocatorCycles returns cycles spent in malloc+free across all cores.
func (r *Result) AllocatorCycles() uint64 { return r.MallocCycles + r.FreeCycles }

// AllocatorFraction returns the allocator's share of all busy cycles.
func (r *Result) AllocatorFraction() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.AllocatorCycles()) / float64(r.TotalCycles)
}

// MeanMallocCycles returns the average malloc latency across cores.
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

// LockCyclesPerCall returns central-lock contention cycles charged per
// allocator call — the scaling study's headline congestion measure.
func (r *Result) LockCyclesPerCall() float64 {
	calls := r.MallocCalls + r.FreeCalls
	if calls == 0 {
		return 0
	}
	return float64(r.CentralLock.Cycles()) / float64(calls)
}

// MCLookupHitRate returns the aggregate size-class lookup hit rate.
func (r *Result) MCLookupHitRate() float64 {
	if r.MC == nil {
		return 0
	}
	return r.MC.LookupHitRate()
}

// MCPopHitRate returns the aggregate head-pop hit rate.
func (r *Result) MCPopHitRate() float64 {
	if r.MC == nil {
		return 0
	}
	return r.MC.PopHitRate()
}

// Run builds an engine for cfg and runs it to completion.
func Run(cfg Config) *Result { return New(cfg).Run() }

// collect assembles the Result after all shards have finished.
func (eng *Engine) collect() *Result {
	res := &Result{
		Cores:    len(eng.cores),
		Variant:  eng.cfg.Variant,
		Backend:  eng.cfg.Backend,
		Workload: eng.cfg.Workload.Name(),
		Epochs:   eng.epoch,
		Yields:   eng.yields,
	}
	var mcAgg core.Stats
	for _, cs := range eng.cores {
		cs.res.TotalCycles = cs.cpu.Cycle()
		res.PerCore = append(res.PerCore, cs.res)
		res.MallocCalls += cs.res.MallocCalls
		res.MallocCycles += cs.res.MallocCycles
		res.FastMallocCalls += cs.res.FastMallocCalls
		res.FastMallocCycles += cs.res.FastMallocCycles
		res.FreeCalls += cs.res.FreeCalls
		res.FreeCycles += cs.res.FreeCycles
		res.AppCycles += cs.res.AppCycles
		res.TotalCycles += cs.res.TotalCycles
		if cs.res.TotalCycles > res.WallCycles {
			res.WallCycles = cs.res.TotalCycles
		}
		res.RemoteFrees += cs.res.RemoteDrained
		if cs.mc != nil {
			s := cs.mc.Stats
			mcAgg.LookupHits += s.LookupHits
			mcAgg.LookupMisses += s.LookupMisses
			mcAgg.PopHits += s.PopHits
			mcAgg.PopMisses += s.PopMisses
			mcAgg.Pushes += s.Pushes
			mcAgg.Updates += s.Updates
			mcAgg.Evictions += s.Evictions
			mcAgg.Prefetches += s.Prefetches
			mcAgg.Flushes += s.Flushes
		}
	}
	if eng.cores[0].mc != nil {
		res.MC = &mcAgg
	}
	if eng.solo != nil {
		eng.solo.cpu = eng.cores[0].cpu.Stats
	}
	switch {
	case eng.heap != nil:
		if eng.locks != nil {
			res.CentralLock = eng.locks.stats[tcmalloc.LockCentral]
			res.PageHeapLock = eng.locks.stats[tcmalloc.LockPageHeap]
		}
		res.Heap = eng.heap.StatsSnapshot()
		eng.heap.CheckInvariants()
	case eng.lf != nil:
		lfStats := eng.lf.Stats
		res.LockFree = &lfStats
		eng.lf.CheckInvariants()
	case eng.off != nil:
		res.Heap = eng.off.Heap.StatsSnapshot()
		offStats := eng.off.Stats
		res.Offload = &offStats
		eng.off.Heap.CheckInvariants()
	}
	res.Telemetry = eng.reg.Snapshot()
	return res
}

// registerMetrics wires the whole engine into the root registry: shared
// heap tiers at the root, each core's private hardware under "core<i>.",
// lock contention under "lock.<site>.", and machine-wide aggregates under
// "engine.*" / "agg.*". A solo engine registers its core's hardware at the
// root too, and no per-core run counters or machine-wide groups: the
// single-core namespace.
func (eng *Engine) registerMetrics() {
	reg := eng.reg
	switch {
	case eng.heap != nil:
		eng.heap.RegisterMetrics(reg) // heap.MC/HWCounter are nil here: per-core state registers below
	case eng.lf != nil:
		eng.lf.RegisterMetrics(reg) // lf.MC is nil here: per-core caches register below
	case eng.off != nil:
		eng.off.RegisterMetrics(reg)
		eng.off.Heap.RegisterMetrics(reg)
		alloccore := reg.Sub("alloccore.")
		eng.off.Core.RegisterMetrics(alloccore)
		eng.off.Core.Memory().RegisterMetrics(alloccore)
	}

	for _, cs := range eng.cores {
		cs := cs
		sub := reg
		if eng.solo == nil {
			sub = reg.Sub(coreName(cs.id))
		}
		prof := telemetry.NewStepProfiler(uop.StepNames())
		prof.Register(sub)
		cs.cpu.SetStepObserver(prof.ObserveCall)
		cs.cpu.RegisterMetrics(sub)
		cs.cpu.Memory().RegisterMetrics(sub)
		if cs.mc != nil {
			cs.mc.RegisterMetrics(sub)
		}
		if cs.hw != nil {
			sub.Counter("sampler.hw.interrupts", func() uint64 { return cs.hw.Interrupts })
			sub.Counter("sampler.hw.bytes", func() uint64 { return cs.hw.BytesAccumulated })
		}
		if eng.solo != nil {
			return // a solo engine's one core, without machine-wide groups
		}
		sub.Counter("run.mallocs", func() uint64 { return cs.res.MallocCalls })
		sub.Counter("run.frees", func() uint64 { return cs.res.FreeCalls })
		sub.Counter("run.malloc_cycles", func() uint64 { return cs.res.MallocCycles })
		sub.Counter("run.free_cycles", func() uint64 { return cs.res.FreeCycles })
		sub.Counter("run.app_cycles", func() uint64 { return cs.res.AppCycles })
		sub.Counter("run.remote.posted", func() uint64 { return cs.res.RemotePosted })
		sub.Counter("run.remote.drained", func() uint64 { return cs.res.RemoteDrained })
		sub.Counter("run.yields", func() uint64 { return cs.res.Yields })
	}

	if eng.locks != nil {
		for _, site := range []tcmalloc.LockSite{tcmalloc.LockCentral, tcmalloc.LockPageHeap} {
			site := site
			p := "lock." + site.String() + "."
			reg.Counter(p+"acquisitions", func() uint64 { return eng.locks.stats[site].Acquisitions })
			reg.Counter(p+"contended", func() uint64 { return eng.locks.stats[site].Contended })
			reg.Counter(p+"wait_cycles", func() uint64 { return eng.locks.stats[site].WaitCycles })
			reg.Counter(p+"handoff_cycles", func() uint64 { return eng.locks.stats[site].HandoffCycles })
		}
	}

	reg.Gauge("engine.cores", func() float64 { return float64(len(eng.cores)) })
	reg.Counter("engine.epochs", func() uint64 { return eng.epoch })
	reg.Counter("engine.yields", func() uint64 { return eng.yields })

	sum := func(read func(*coreState) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, cs := range eng.cores {
				t += read(cs)
			}
			return t
		}
	}
	allocCalls := sum(func(cs *coreState) uint64 { return cs.res.MallocCalls + cs.res.FreeCalls })
	allocCycles := sum(func(cs *coreState) uint64 { return cs.res.MallocCycles + cs.res.FreeCycles })
	busyCycles := sum(func(cs *coreState) uint64 { return cs.cpu.Cycle() })
	reg.Counter("agg.malloc.calls", sum(func(cs *coreState) uint64 { return cs.res.MallocCalls }))
	reg.Counter("agg.malloc.cycles", sum(func(cs *coreState) uint64 { return cs.res.MallocCycles }))
	reg.Counter("agg.free.calls", sum(func(cs *coreState) uint64 { return cs.res.FreeCalls }))
	reg.Counter("agg.free.cycles", sum(func(cs *coreState) uint64 { return cs.res.FreeCycles }))
	reg.Counter("agg.app.cycles", sum(func(cs *coreState) uint64 { return cs.res.AppCycles }))
	reg.Counter("agg.total.cycles", busyCycles)
	reg.Counter("agg.remote.posted", sum(func(cs *coreState) uint64 { return cs.res.RemotePosted }))
	reg.Counter("agg.remote.drained", sum(func(cs *coreState) uint64 { return cs.res.RemoteDrained }))
	reg.Gauge("agg.allocator.share", func() float64 {
		return telemetry.Rate(allocCycles(), busyCycles())
	})
	reg.Gauge("agg.malloc.mean_cycles", func() float64 {
		return telemetry.Rate(sum(func(cs *coreState) uint64 { return cs.res.MallocCycles })(),
			sum(func(cs *coreState) uint64 { return cs.res.MallocCalls })())
	})
	if eng.locks != nil {
		reg.Gauge("lock.central.cycles_per_call", func() float64 {
			return telemetry.Rate(eng.locks.stats[tcmalloc.LockCentral].Cycles(), allocCalls())
		})
	}
	if eng.cfg.Variant == Mallacc {
		mcSum := func(read func(core.Stats) uint64) func() uint64 {
			return sum(func(cs *coreState) uint64 { return read(cs.mc.Stats) })
		}
		reg.Gauge("agg.mc.lookup.hit_rate", func() float64 {
			return telemetry.Ratio(mcSum(func(s core.Stats) uint64 { return s.LookupHits })(),
				mcSum(func(s core.Stats) uint64 { return s.LookupMisses })())
		})
		reg.Gauge("agg.mc.pop.hit_rate", func() float64 {
			return telemetry.Ratio(mcSum(func(s core.Stats) uint64 { return s.PopHits })(),
				mcSum(func(s core.Stats) uint64 { return s.PopMisses })())
		})
	}
}
