// Package multicore is the N-core concurrent simulation engine: each
// simulated core owns a private cpu.Core, cache hierarchy, thread cache and
// (in the Mallacc variant) malloc cache, runs its workload shard as its own
// coroutine, and shares one tcmalloc.Heap whose central free lists, transfer
// cache and page heap are guarded by a contention-aware spinlock model
// (spinlock.go). The paper's macro evaluation is multithreaded server code —
// masstree, xapian — where TCMalloc's whole design is per-thread caches in
// front of shared pools; this engine is what lets the reproduction ask how
// the per-core malloc cache behaves when those pools are contended.
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

// Variant selects the simulated configuration, mirroring the single-core
// harness variants (redeclared here so harness can depend on multicore
// without a cycle).
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
	// EpochCycles is the lockstep scheduling quantum on the logical
	// clocks (default 2000).
	EpochCycles uint64
	// RemoteFreeProb is the probability a free is posted to a peer core
	// instead of executing locally (default 0.15; negative disables, so
	// every free runs on the core that allocated the block).
	RemoteFreeProb float64
	// Registry receives all metrics; a fresh one is created when nil.
	Registry *telemetry.Registry

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
	if cfg.EpochCycles == 0 {
		cfg.EpochCycles = 2000
	}
	if cfg.RemoteFreeProb == 0 {
		cfg.RemoteFreeProb = 0.15
	} else if cfg.RemoteFreeProb < 0 {
		cfg.RemoteFreeProb = 0
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	return cfg
}

// Engine owns the shared heap, the per-core states and the scheduler.
// Exactly one of heap / lf is the shared allocator substrate; off, when
// non-nil, owns its own TCMalloc heap on the allocation core and the
// shared heap is absent.
type Engine struct {
	cfg   Config
	heap  *tcmalloc.Heap
	lf    *lockfree.Heap  // Backend == "lockfree"
	off   *offload.Engine // Variant == Offload
	offEm *uop.Emitter    // scratch emitter for requester-side offload traces
	cores []*coreState
	locks *lockTable
	cas   *casTable
	reg   *telemetry.Registry

	turn   int // ID of the core holding the token; -1 when all done
	active *coreState
	epoch  uint64
	yields uint64
	track  *progress.Tracker

	metaBytes uint64
	liveBytes uint64
	peakLive  uint64
	liveSizes map[uint64]uint64
}

// New builds an engine. The workload is required.
func New(cfg Config) *Engine {
	cfg = cfg.WithDefaults()
	if cfg.Workload == nil {
		panic("multicore: Config.Workload is required")
	}
	if err := catalog.CheckCombo(cfg.Backend, cfg.Variant.String()); err != nil {
		panic("multicore: " + err.Error())
	}

	eng := &Engine{
		cfg:       cfg,
		reg:       cfg.Registry,
		track:     progress.NewTracker(cfg.Progress, cfg.ProgressEvery),
		liveSizes: map[uint64]uint64{},
	}

	// Build the allocator substrate. Per-core accelerator state (malloc
	// cache, sampling counter) is swapped in by setActive, so any
	// heap-owned instance is discarded before metric registration.
	mcCfg := core.Config{Entries: cfg.MCEntries, IndexMode: true}
	switch {
	case cfg.Variant == Offload:
		// One TCMalloc heap lives on the dedicated allocation core; the
		// requester cores share nothing, so there is no lock model and
		// no per-core allocator state at all.
		oCfg := offload.DefaultConfig()
		oCfg.Seed = cfg.Seed
		oCfg.Heap.Seed = cfg.Seed
		eng.off = offload.New(oCfg)
		eng.offEm = uop.NewEmitter()
		eng.metaBytes = eng.off.Heap.Space.SbrkBytes
	case cfg.Backend == catalog.BackendLockFree:
		lfCfg := lockfree.DefaultConfig()
		lfCfg.Seed = cfg.Seed
		if cfg.Variant == Mallacc {
			lfCfg.Mode = tcmalloc.ModeMallacc
		}
		eng.lf = lockfree.New(lfCfg)
		eng.cas = newCASTable(eng)
		eng.lf.Contention = eng.cas
		eng.metaBytes = eng.lf.Space.SbrkBytes
	default:
		hCfg := tcmalloc.DefaultConfig()
		hCfg.Seed = cfg.Seed
		if cfg.Variant == Mallacc {
			hCfg.Mode = tcmalloc.ModeMallacc
			hCfg.MallocCache = mcCfg
		}
		eng.heap = tcmalloc.New(hCfg)
		eng.locks = newLockTable(eng)
		eng.heap.SetLockModel(eng.locks)
	}

	cCfg := cpu.DefaultConfig()
	if cfg.Variant == Limit {
		cCfg.DropSteps[uop.StepSizeClass] = true
		cCfg.DropSteps[uop.StepSampling] = true
		cCfg.DropSteps[uop.StepPushPop] = true
	}

	footLines := uint64(0)
	if fp := workload.FootprintOf(cfg.Workload); fp > 0 {
		footLines = fp / mem.CacheLineSize
	}

	for i := 0; i < cfg.Cores; i++ {
		cs := &coreState{
			eng: eng,
			id:  i,
			cpu: cpu.New(cCfg, cachesim.NewDefaultHierarchy()),
			rng: stats.NewRNG(cfg.Seed*0x9e3779b97f4a7c15 + uint64(i)*0x85ebca77 + 0xc2b2),
		}
		switch {
		case eng.heap != nil:
			cs.tc = eng.heap.NewThread()
			cs.em = uop.NewEmitter()
			cs.tc.Em = cs.em
		case eng.lf != nil:
			cs.lft = eng.lf.NewThread()
		}
		if cfg.Variant == Mallacc {
			if eng.lf != nil {
				// Raw-size keyed: the lock-free backend has no Figure-5
				// class index, and no sampling machinery to count.
				cs.mc = core.New(core.Config{Entries: cfg.MCEntries})
			} else {
				cs.mc = core.New(mcCfg)
				cs.hw = &core.SampleCounter{}
			}
		}
		if footLines > 0 {
			cs.footBase = uint64(1) << 40
			cs.footLines = footLines
		}
		if cs.tc != nil {
			// The shared heap resolves accelerator state and the trace
			// emitter through the thread cache, so concurrent cores never
			// touch heap-level fields.
			cs.tc.MC = cs.mc
			cs.tc.HW = cs.hw
		}
		cs.budget = cfg.CallsPerCore
		if i < len(cfg.CoreCalls) && cfg.CoreCalls[i] > 0 {
			cs.budget = cfg.CoreCalls[i]
		}
		eng.cores = append(eng.cores, cs)
	}
	if eng.heap != nil {
		eng.heap.MC, eng.heap.HWCounter = nil, nil
		eng.metaBytes = eng.heap.Space.SbrkBytes
	}
	if eng.lf != nil {
		eng.lf.MC = nil
	}
	eng.registerMetrics()
	return eng
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
			eng.track.Observe(eng.epoch*eng.cfg.EpochCycles, eng.fillSnapshot)
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

// recycleEmitters returns every emitter's trace slabs once the run is over.
func (eng *Engine) recycleEmitters() {
	switch {
	case eng.heap != nil:
		eng.heap.Em.Recycle()
	case eng.lf != nil:
		eng.lf.Em.Recycle()
	case eng.off != nil:
		eng.off.Heap.Em.Recycle()
		eng.offEm.Recycle()
	}
	for _, cs := range eng.cores {
		if cs.em != nil {
			cs.em.Recycle()
		}
	}
}

// coreName returns the telemetry prefix of core i.
func coreName(i int) string { return fmt.Sprintf("core%d.", i) }
