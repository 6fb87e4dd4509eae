// Package multicore is the simulation engine, for one core or N: each
// simulated core owns a private cpu.Core, cache hierarchy, thread cache and
// (in the Mallacc variant) malloc cache, runs its workload shard as its own
// coroutine, and shares one tcmalloc.Heap whose central free lists, transfer
// cache and page heap are guarded by a contention-aware spinlock model
// (spinlock.go). The paper's macro evaluation is multithreaded server code —
// masstree, xapian — where TCMalloc's whole design is per-thread caches in
// front of shared pools; this engine is what lets the reproduction ask how
// the per-core malloc cache behaves when those pools are contended. A
// single-core run, the paper's own setup, is the one core of a solo engine
// (solo.go).
//
// # Determinism
//
// The engine is deterministic by construction: same seed + same core count
// produces byte-identical telemetry, including under the race detector.
// Cores are scheduled in lockstep epochs over *logical* clocks — a token
// visits the runnable cores in ID order; the holder executes until its own
// cpu.Core clock reaches the epoch boundary (epoch+1)*EpochCycles, then
// passes the token on; the epoch counter advances when the token wraps.
// Execution is therefore fully serialized: each shard is an iter.Pull
// coroutine, and Run, on the caller's goroutine, resumes only the token
// holder, which runs until it yields the token at a checkpoint or retires
// (relay.go). A hand-off is a coroutine switch, which orders every
// cross-core interaction (race-free), and the interleaving is a pure
// function of the simulated cycle counts (repeatable). Coroutines model
// the per-core control flow — each shard keeps its natural call stack —
// not host parallelism.
//
// # Cross-core traffic
//
// Producer/consumer free traffic is first-class: a fraction of each core's
// frees is posted to a peer core's inbox and executed there, so memory
// allocated on one core is returned through another core's thread cache and
// migrates home via the shared transfer cache — the pattern that makes the
// central lists hot in real servers.
package multicore

import (
	"fmt"

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

// Variant selects the simulated configuration of every core.
type Variant uint8

const (
	// Baseline is unmodified TCMalloc on stock cores.
	Baseline Variant = iota
	// Mallacc gives every core its own malloc cache.
	Mallacc
	// Limit ignores the three fast-path steps in timing (the paper's
	// limit study) on every core.
	Limit
	// Offload dispatches every core's malloc/free over a modeled queue to
	// one dedicated lightweight allocation core (internal/offload).
	Offload
)

func (v Variant) String() string {
	switch v {
	case Mallacc:
		return "mallacc"
	case Limit:
		return "limit"
	case Offload:
		return "offload"
	default:
		return "baseline"
	}
}

// VariantByName maps a catalog variant name to the enum ("" is baseline);
// unknown names return false.
func VariantByName(name string) (Variant, bool) {
	if name == "" {
		return Baseline, true
	}
	for _, v := range []Variant{Baseline, Mallacc, Limit, Offload} {
		if v.String() == name {
			return v, true
		}
	}
	return Baseline, false
}

// CoreConfig holds the knobs each simulated core is built with beyond the
// variant: the timing model, the malloc-cache design ablations, and the
// thread rotation. Their zero values are the paper's design; the
// single-core studies (Table 1, Fig. 4, the ablation and ctxswitch
// extensions) set them.
type CoreConfig struct {
	// AnalyticCPU swaps the detailed out-of-order model for the
	// dependence-graph reference model (Table 1 validation).
	AnalyticCPU bool
	// DropSteps selects which fast-path steps timing ignores; used by the
	// Figure 4 per-step ablations. Ignored unless UseDropSteps is set (the
	// Limit variant drops the three fast-path steps on its own).
	DropSteps    [uop.NumSteps]bool
	UseDropSteps bool
	// NoPrefetchBlocking removes the entry-blocking consistency rule from
	// timing.
	NoPrefetchBlocking bool

	// Ablation controls (Mallacc on tcmalloc only): disable individual
	// accelerator components or design rules. IndexModeOff drops the
	// TCMalloc-specific index keying.
	IndexModeOff      bool
	Ablate            tcmalloc.Ablation
	MCReplacement     core.Replacement
	MCNoNextSlot      bool
	MCNoRestoreOnMiss bool

	// Threads runs each core's shard over several allocator threads
	// round-robin (default 1). Frees may land on a different thread than
	// the matching malloc, migrating memory through the shared tiers.
	Threads int
	// SwitchEvery injects a context switch every N allocator calls:
	// execution rotates to the core's next thread and its malloc cache is
	// flushed (no writebacks needed — Sec. 4.1). 0 disables switches.
	SwitchEvery int
}

// Config parameterizes one multi-core run.
type Config struct {
	// Cores is the number of simulated cores (default 2).
	Cores int
	// Variant selects baseline / mallacc / limit / offload.
	Variant Variant
	// Backend selects the allocator substrate by catalog name
	// ("tcmalloc", the default, or "lockfree").
	Backend string
	// MCEntries sizes each core's malloc cache (default 32).
	MCEntries int
	// Workload generates every core's shard; each core runs it with its
	// own RNG stream.
	Workload workload.Workload
	// CallsPerCore is each shard's allocator-call budget (default 20000).
	CallsPerCore int
	// CoreCalls optionally overrides the budget per core (tests use it to
	// drain one shard early); missing/zero entries fall back to
	// CallsPerCore.
	CoreCalls []int
	// Seed drives all randomness.
	Seed uint64
	// Core configures every core's timing model, malloc-cache design and
	// thread rotation.
	Core CoreConfig
	// EpochCycles is the lockstep scheduling quantum on the logical
	// clocks (default 2000).
	EpochCycles uint64
	// RemoteFreeProb is the probability a free is posted to a peer core
	// instead of executing locally (default 0.15; negative disables, so
	// every free runs on the core that allocated the block).
	RemoteFreeProb float64

	// Progress, when set, receives machine-wide execution snapshots at
	// epoch boundaries — at most one per ProgressEvery cycles of the epoch
	// clock (progress.DefaultEvery when 0) — plus one final Done snapshot.
	// Epochs are a pure function of the cores' logical clocks, so the
	// stream is deterministic per seed and config. Observability only.
	Progress      progress.Reporter
	ProgressEvery uint64
}

// WithDefaults returns the config with every unset knob resolved to its
// default. New applies it; external callers (the simulation service) use it
// to canonicalize configs before content-addressing them, so a zero field
// and its explicit default hash identically.
func (cfg Config) WithDefaults() Config {
	if cfg.Cores <= 0 {
		cfg.Cores = 2
	}
	if cfg.Backend == "" {
		cfg.Backend = catalog.BackendTCMalloc
	}
	if cfg.MCEntries <= 0 {
		cfg.MCEntries = 32
	}
	if cfg.CallsPerCore <= 0 {
		cfg.CallsPerCore = 20000
	}
	cfg.Core.Threads = max(cfg.Core.Threads, 1)
	if cfg.EpochCycles == 0 {
		cfg.EpochCycles = 2000
	}
	if cfg.RemoteFreeProb == 0 {
		cfg.RemoteFreeProb = 0.15
	} else if cfg.RemoteFreeProb < 0 {
		cfg.RemoteFreeProb = 0
	}
	return cfg
}

// Engine owns the shared heap, the per-core states and the scheduler.
// Exactly one of heap / lf / off / hooks is the allocator substrate: off
// owns its own TCMalloc heap on the allocation core, and hooks is an
// allocator a solo run's caller built (see Hooks).
type Engine struct {
	cfg   Config
	heap  *tcmalloc.Heap
	lf    *lockfree.Heap  // Backend == "lockfree"
	off   *offload.Engine // Variant == Offload
	offEm *uop.Emitter    // scratch emitter for requester-side offload traces
	hooks *Hooks
	cores []*coreState
	locks *lockTable
	cas   *casTable
	reg   *telemetry.Registry
	// solo is the single-core bookkeeping of an engine RunSolo built; nil
	// for clusters.
	solo *soloBook
	// memo is the schedule memo every core shares (nil for the analytic
	// model); Run returns it to the free list.
	memo *cpu.Memo

	turn   int // ID of the core holding the token; -1 when all done
	active *coreState
	epoch  uint64
	yields uint64
	track  *progress.Tracker
}

// New builds a cluster engine. The workload is required.
func New(cfg Config) *Engine { return newEngine(cfg, nil, nil) }

// newEngine builds an engine: a cluster when solo is nil, otherwise the one
// core of a single-core run that keeps solo's bookkeeping, driving hooks'
// allocator when that is non-nil.
func newEngine(cfg Config, solo *soloBook, hooks *Hooks) *Engine {
	cfg = cfg.WithDefaults()
	if cfg.Workload == nil {
		panic("multicore: Config.Workload is required")
	}
	if err := catalog.CheckCombo(cfg.Backend, cfg.Variant.String()); err != nil {
		panic("multicore: " + err.Error())
	}

	eng := &Engine{
		cfg:   cfg,
		reg:   telemetry.NewRegistry(),
		hooks: hooks,
		solo:  solo,
		track: progress.NewTracker(cfg.Progress, cfg.ProgressEvery),
	}

	// Build the allocator substrate. Per-core accelerator state (malloc
	// cache, sampling counter) is swapped in by setActive, so any
	// heap-owned instance is discarded before metric registration. A solo
	// core shares nothing, so it gets no lock or CAS model.
	cc := cfg.Core
	mcCfg := core.Config{
		Entries:         cfg.MCEntries,
		IndexMode:       !cc.IndexModeOff,
		Replacement:     cc.MCReplacement,
		NoNextSlot:      cc.MCNoNextSlot,
		NoRestoreOnMiss: cc.MCNoRestoreOnMiss,
	}
	switch {
	case hooks != nil:
	case cfg.Variant == Offload:
		// One TCMalloc heap lives on the dedicated allocation core; the
		// requester cores share nothing, so there is no lock model and
		// no per-core allocator state at all.
		oCfg := offload.DefaultConfig()
		oCfg.Seed = cfg.Seed
		oCfg.Heap.Seed = cfg.Seed
		eng.off = offload.New(oCfg)
		eng.offEm = uop.NewEmitter()
	case cfg.Backend == catalog.BackendLockFree:
		lfCfg := lockfree.DefaultConfig()
		lfCfg.Seed = cfg.Seed
		if cfg.Variant == Mallacc {
			lfCfg.Mode = tcmalloc.ModeMallacc
		}
		eng.lf = lockfree.New(lfCfg)
		if solo == nil {
			eng.cas = newCASTable(eng)
			eng.lf.Contention = eng.cas
		}
	default:
		hCfg := tcmalloc.DefaultConfig()
		hCfg.Seed = cfg.Seed
		if cfg.Variant == Mallacc {
			hCfg.Mode = tcmalloc.ModeMallacc
			hCfg.MallocCache = mcCfg
			hCfg.Ablate = cc.Ablate
		}
		eng.heap = tcmalloc.New(hCfg)
		if solo == nil {
			eng.locks = newLockTable(eng)
			eng.heap.SetLockModel(eng.locks)
		}
	}

	cCfg := cpu.DefaultConfig()
	switch {
	case cc.UseDropSteps:
		cCfg.DropSteps = cc.DropSteps
	case cfg.Variant == Limit:
		cCfg.DropSteps[uop.StepSizeClass] = true
		cCfg.DropSteps[uop.StepSampling] = true
		cCfg.DropSteps[uop.StepPushPop] = true
	}
	cCfg.NoPrefetchBlocking = cc.NoPrefetchBlocking
	if !cc.AnalyticCPU {
		eng.memo = takeMemo()
	}

	for i := 0; i < cfg.Cores; i++ {
		rngSeed := cfg.Seed*0x9e3779b97f4a7c15 + uint64(i)*0x85ebca77 + 0xc2b2
		if solo != nil {
			rngSeed = cfg.Seed*0x9e3779b9 + 0x1234
		}
		cs := &coreState{
			eng:         eng,
			id:          i,
			cpu:         cpu.Acquire(cCfg),
			rng:         stats.NewRNG(rngSeed),
			foot:        workload.NewToucher(cfg.Workload),
			threads:     cc.Threads,
			switchEvery: cc.SwitchEvery,
		}
		cs.cpu.SetAnalytic(cc.AnalyticCPU)
		cs.cpu.SetMemo(eng.memo)
		if cfg.Variant == Mallacc && hooks == nil {
			if eng.lf != nil {
				// Raw-size keyed: the lock-free backend has no Figure-5
				// class index, and no sampling machinery to count.
				cs.mc = core.New(core.Config{Entries: cfg.MCEntries})
			} else {
				cs.mc = core.New(mcCfg)
				cs.hw = &core.SampleCounter{}
			}
		}
		eng.bind(cs)
		cs.budget = cfg.CallsPerCore
		if i < len(cfg.CoreCalls) && cfg.CoreCalls[i] > 0 {
			cs.budget = cfg.CoreCalls[i]
		}
		eng.cores = append(eng.cores, cs)
	}
	if eng.heap != nil {
		eng.heap.MC, eng.heap.HWCounter = nil, nil
	}
	if eng.lf != nil {
		eng.lf.MC = nil
	}
	if solo != nil {
		solo.metaBytes = eng.sbrkBytes()
	}
	eng.registerMetrics()
	return eng
}

// bind gives cs its substrate: the emitter its allocator calls write their
// traces to, the size map its malloc sizes are classed by, and the
// malloc/free hooks that execute a call on the core's current thread. On a
// solo core the hooks also keep the live-byte ledger.
func (eng *Engine) bind(cs *coreState) {
	switch {
	case eng.hooks != nil:
		hk := eng.hooks
		cs.em = hk.Em
		cs.malloc = func(size uint64) (uint64, bool) { return hk.Malloc(size), false }
		cs.free = hk.Free
	case eng.off != nil:
		// Every core's calls cross to the one allocation core, so none is
		// served locally.
		em, h := eng.offEm, eng.off.Heap
		cs.em, cs.sizeMap = em, h.SizeMap
		cs.malloc = func(size uint64) (uint64, bool) {
			addr := eng.off.Malloc(em, cs.cpu.Cycle(), size)
			if eng.solo != nil {
				eng.solo.allocated(spanSize(h, addr))
			}
			return addr, false
		}
		cs.free = func(addr, hint uint64) {
			if eng.solo != nil {
				eng.solo.freed(spanSize(h, addr))
			}
			eng.off.Free(em, cs.cpu.Cycle(), addr, hint)
		}
	case eng.lf != nil:
		h := eng.lf
		ts := make([]*lockfree.Thread, cs.threads)
		for i := range ts {
			ts[i] = h.NewThread()
		}
		cs.em, cs.sizeMap = h.Em, h.SizeMap
		// A large block's header holds RoundUp(size+8, PageSize), not the
		// accounted RoundUp(size, PageSize), so a solo core remembers each
		// live block's accounted size.
		var live map[uint64]uint64
		if eng.solo != nil {
			live = map[uint64]uint64{}
		}
		cs.malloc = func(size uint64) (uint64, bool) {
			popBefore := h.Stats.PopHits
			addr := h.Alloc(ts[cs.cur], size)
			if live != nil {
				rounded := mem.RoundUp(size, mem.PageSize)
				if _, r, ok := h.SizeMap.ClassFor(size); ok {
					rounded = r
				}
				live[addr] = rounded
				eng.solo.allocated(rounded)
			}
			return addr, h.Stats.PopHits != popBefore
		}
		cs.free = func(addr, _ uint64) {
			if r, ok := live[addr]; ok {
				eng.solo.freed(r)
				delete(live, addr)
			}
			h.Free(ts[cs.cur], addr)
		}
	default:
		// The shared heap resolves accelerator state and the trace
		// emitter through the thread cache, so concurrent cores never
		// touch heap-level fields.
		h := eng.heap
		cs.em, cs.sizeMap = uop.NewEmitter(), h.SizeMap
		tcs := make([]*tcmalloc.ThreadCache, cs.threads)
		for i := range tcs {
			tcs[i] = h.NewThread()
			tcs[i].Em, tcs[i].MC, tcs[i].HW = cs.em, cs.mc, cs.hw
		}
		cs.malloc = func(size uint64) (uint64, bool) {
			tc := tcs[cs.cur]
			fastBefore := tc.Stats.FastHits
			addr := h.Malloc(tc, size)
			if eng.solo != nil {
				eng.solo.allocated(spanSize(h, addr))
			}
			return addr, tc.Stats.FastHits != fastBefore
		}
		cs.free = func(addr, hint uint64) {
			if eng.solo != nil {
				// Before the free: a freed large span may be coalesced
				// away.
				eng.solo.freed(spanSize(h, addr))
			}
			h.Free(tcs[cs.cur], addr, hint)
		}
	}
}

// sbrkBytes returns what the allocator substrate has requested from the
// simulated OS so far (0 for a hooked allocator).
func (eng *Engine) sbrkBytes() uint64 {
	switch {
	case eng.heap != nil:
		return eng.heap.Space.SbrkBytes
	case eng.lf != nil:
		return eng.lf.Space.SbrkBytes
	case eng.off != nil:
		return eng.off.Heap.Space.SbrkBytes
	}
	return 0
}

// beginQuantum stamps the token holder's execution deadline for the current
// epoch.
func (cs *coreState) beginQuantum() {
	cs.epochEnd = (cs.eng.epoch + 1) * cs.eng.cfg.EpochCycles
}

// advanceTurn moves the token to the next runnable core in cyclic ID order
// and returns that core, bumping the epoch when the token wraps (including
// the single-runnable-core case, where the wrap is what lets its deadline
// advance). With no runnable cores the token parks at -1 and it returns
// nil. The caller holds the token; unless the returned core is itself, it
// then yields or retires, and Run resumes the returned core.
func (eng *Engine) advanceTurn() *coreState {
	n := len(eng.cores)
	for i := 1; i <= n; i++ {
		next := (eng.turn + i) % n
		if eng.cores[next].done {
			continue
		}
		if next <= eng.turn {
			eng.epoch++
			// Epoch count and cycle counts are deterministic, so the
			// snapshot stream is too. The reporter runs on the token
			// holder's coroutine and must not call back into the engine.
			// A solo core reports after each call instead.
			if eng.solo == nil {
				eng.track.Observe(eng.epoch*eng.cfg.EpochCycles, eng.fillSnapshot)
			}
		}
		eng.setActive(next)
		return eng.cores[next]
	}
	eng.turn = -1
	return nil
}

// fillSnapshot populates a progress snapshot with machine-wide aggregates.
// Caller holds the token.
func (eng *Engine) fillSnapshot(s *progress.Snapshot) {
	var lookupHits, lookupMisses uint64
	for _, cs := range eng.cores {
		s.Instructions += cs.cpu.Stats.Uops
		s.MallocCalls += cs.res.MallocCalls
		s.FreeCalls += cs.res.FreeCalls
		if cs.mc != nil {
			lookupHits += cs.mc.Stats.LookupHits
			lookupMisses += cs.mc.Stats.LookupMisses
		}
	}
	s.MCHitRate = telemetry.Ratio(lookupHits, lookupMisses)
}

// setActive installs core id as the executing core: the token, plus — for
// the lock-free substrate, which has no per-thread accelerator slots — the
// shared heap's malloc cache (the tcmalloc substrate resolves per-core
// state through ThreadCache fields instead).
func (eng *Engine) setActive(id int) {
	cs := eng.cores[id]
	eng.turn = id
	eng.active = cs
	if eng.lf != nil {
		eng.lf.MC = cs.mc
	}
}

// recycle returns every emitter's trace slabs, the schedule memo and the
// simulated cores (the allocation core of an offload engine included) once
// the run is over and collect has read them. A run that panicked never
// gets here and keeps its cores.
func (eng *Engine) recycle() {
	if eng.memo != nil {
		for _, cs := range eng.cores {
			cs.cpu.SetMemo(nil)
		}
		putMemo(eng.memo)
		eng.memo = nil
	}
	switch {
	case eng.heap != nil:
		eng.heap.Em.Recycle()
		for _, cs := range eng.cores {
			cs.em.Recycle()
		}
	case eng.lf != nil:
		eng.lf.Em.Recycle()
	case eng.off != nil:
		eng.off.Heap.Em.Recycle()
		eng.offEm.Recycle()
	}
	for _, cs := range eng.cores {
		cs.cpu.Release()
		cs.cpu = nil
	}
	if eng.off != nil {
		eng.off.Core.Release()
		eng.off.Core = nil
	}
}

// coreName returns the telemetry prefix of core i.
func coreName(i int) string { return fmt.Sprintf("core%d.", i) }
