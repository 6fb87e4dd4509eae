package multicore

import (
	"mallacc/internal/core"
	"mallacc/internal/cpu"
	"mallacc/internal/lockfree"
	"mallacc/internal/mem"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/uop"
)

// remoteFree is one cross-core free waiting in a consumer core's inbox.
type remoteFree struct {
	addr uint64
	hint uint64
}

// remotePostCycles is the producer-side cost of publishing a pointer to a
// peer's free queue (a store plus the fence a real MPSC push needs).
const remotePostCycles = 20

// CoreStats is one core's contribution to a Result.
type CoreStats struct {
	MallocCalls, MallocCycles         uint64
	FastMallocCalls, FastMallocCycles uint64
	FreeCalls, FreeCycles             uint64
	AppCycles                         uint64
	RemotePosted, RemoteDrained       uint64
	Yields                            uint64
	// DoneEpoch is the epoch in which this core's shard finished.
	DoneEpoch uint64
	// TotalCycles is the core's final logical clock.
	TotalCycles uint64
}

// coreState is one simulated core: it implements workload.App, so each
// shard drives its own core exactly the way the single-core harness driver
// drives its one core — but malloc/free execute against the shared heap,
// and every entry point is a scheduling checkpoint.
type coreState struct {
	eng *Engine
	id  int
	cpu *cpu.Core
	tc  *tcmalloc.ThreadCache // nil on non-tcmalloc substrates
	lft *lockfree.Thread      // nil unless Backend == "lockfree"
	mc  *core.MallocCache     // nil unless Variant == Mallacc
	hw  *core.SampleCounter   // nil unless Variant == Mallacc on tcmalloc
	em  *uop.Emitter          // core-local trace emitter (tcmalloc substrate)
	rng *stats.RNG

	// resume runs the core's shard coroutine until it yields the token or
	// retires; stop unwinds it; yield, called from inside the shard,
	// hands the token back to Run (see relay.go).
	resume   func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	budget   int
	epochEnd uint64
	done     bool

	inbox    []remoteFree
	inboxPos int

	footBase  uint64
	footLines uint64
	touchBuf  []uint64

	res CoreStats
}

func (cs *coreState) Malloc(size uint64) uint64 {
	cs.checkpoint()
	cs.drainInbox()
	eng := cs.eng
	switch {
	case eng.off != nil:
		return cs.mallocOffload(size)
	case eng.lf != nil:
		return cs.mallocLockfree(size)
	}
	h := eng.heap
	cs.em.Reset()
	fastBefore := cs.tc.Stats.FastHits
	addr := h.Malloc(cs.tc, size)
	cyc := cs.cpu.RunTrace(cs.em.Trace())
	cs.res.MallocCycles += cyc
	cs.res.MallocCalls++
	if cs.tc.Stats.FastHits != fastBefore {
		cs.res.FastMallocCycles += cyc
		cs.res.FastMallocCalls++
	}
	cs.trackLive(addr, size)
	return addr
}

// mallocOffload dispatches the allocation to the shared allocation core;
// the requester trace (marshal + stall + response) runs on this core.
func (cs *coreState) mallocOffload(size uint64) uint64 {
	eng := cs.eng
	em := eng.offEm
	em.Reset()
	addr := eng.off.Malloc(em, cs.cpu.Cycle(), size)
	cyc := cs.cpu.RunTrace(em.Trace())
	cs.res.MallocCycles += cyc
	cs.res.MallocCalls++
	cs.trackLive(addr, size)
	return addr
}

// mallocLockfree pops the shared lock-free heap on this core.
func (cs *coreState) mallocLockfree(size uint64) uint64 {
	eng := cs.eng
	h := eng.lf
	h.Em.Reset()
	popBefore := h.Stats.PopHits
	addr := h.Alloc(cs.lft, size)
	cyc := cs.cpu.RunTrace(h.Em.Trace())
	cs.res.MallocCycles += cyc
	cs.res.MallocCalls++
	if h.Stats.PopHits != popBefore {
		cs.res.FastMallocCycles += cyc
		cs.res.FastMallocCalls++
	}
	cs.trackLive(addr, size)
	return addr
}

func (cs *coreState) Free(addr uint64, sizeHint uint64) {
	cs.checkpoint()
	cs.drainInbox()
	eng := cs.eng
	if eng.off != nil {
		// Every free already travels to the allocation core; posting to a
		// peer requester first would just add a hop that changes nothing.
		cs.freeLocal(addr, sizeHint)
		return
	}
	if len(eng.cores) > 1 && eng.cfg.RemoteFreeProb > 0 && cs.rng.Bernoulli(eng.cfg.RemoteFreeProb) {
		// Post to a peer: the consumer executes the free on its own core,
		// returning this core's memory through its thread cache and the
		// shared transfer cache.
		peer := eng.cores[cs.pickPeer()]
		peer.inbox = append(peer.inbox, remoteFree{addr: addr, hint: sizeHint})
		cs.res.RemotePosted++
		cs.cpu.AdvanceApp(remotePostCycles, nil)
		cs.res.AppCycles += remotePostCycles
		return
	}
	cs.freeLocal(addr, sizeHint)
}

// pickPeer chooses a uniformly random core other than cs.
func (cs *coreState) pickPeer() int {
	p := int(cs.rng.Uint64n(uint64(len(cs.eng.cores) - 1)))
	if p >= cs.id {
		p++
	}
	return p
}

// freeLocal executes one free on this core.
func (cs *coreState) freeLocal(addr, sizeHint uint64) {
	eng := cs.eng
	cs.untrackLive(addr)
	switch {
	case eng.off != nil:
		em := eng.offEm
		em.Reset()
		eng.off.Free(em, cs.cpu.Cycle(), addr, sizeHint)
		cyc := cs.cpu.RunTrace(em.Trace())
		cs.res.FreeCycles += cyc
		cs.res.FreeCalls++
		return
	case eng.lf != nil:
		h := eng.lf
		h.Em.Reset()
		h.Free(cs.lft, addr)
		cyc := cs.cpu.RunTrace(h.Em.Trace())
		cs.res.FreeCycles += cyc
		cs.res.FreeCalls++
		return
	}
	h := eng.heap
	cs.em.Reset()
	h.Free(cs.tc, addr, sizeHint)
	cyc := cs.cpu.RunTrace(cs.em.Trace())
	cs.res.FreeCycles += cyc
	cs.res.FreeCalls++
}

// drainInbox executes the frees peers have posted since this core last ran.
// The caller must hold the token with cs active.
func (cs *coreState) drainInbox() {
	for cs.inboxPos < len(cs.inbox) {
		rf := cs.inbox[cs.inboxPos]
		cs.inboxPos++
		cs.freeLocal(rf.addr, rf.hint)
		cs.res.RemoteDrained++
	}
	cs.inbox = cs.inbox[:0]
	cs.inboxPos = 0
}

func (cs *coreState) Work(cycles uint64, lines int) {
	cs.checkpoint()
	if cs.footLines > 0 && lines > 0 {
		if cap(cs.touchBuf) < lines {
			cs.touchBuf = make([]uint64, lines)
		}
		buf := cs.touchBuf[:lines]
		for i := range buf {
			buf[i] = cs.footBase + cs.rng.Uint64n(cs.footLines)*mem.CacheLineSize
		}
		cs.cpu.AdvanceApp(cycles, buf)
	} else {
		cs.cpu.AdvanceApp(cycles, nil)
	}
	cs.res.AppCycles += cycles
}

func (cs *coreState) Antagonize() {
	cs.cpu.Memory().Antagonize()
}

// trackLive maintains the rounded-footprint accounting. The ledger is
// engine-global: only the token holder executes.
func (cs *coreState) trackLive(addr, size uint64) {
	eng := cs.eng
	rounded := size
	if _, r, ok := eng.sizeMap().ClassFor(size); ok {
		rounded = r
	} else {
		rounded = mem.RoundUp(size, mem.PageSize)
	}
	eng.liveSizes[addr] = rounded
	eng.liveBytes += rounded
	if eng.liveBytes > eng.peakLive {
		eng.peakLive = eng.liveBytes
	}
}

func (cs *coreState) untrackLive(addr uint64) {
	eng := cs.eng
	if r, ok := eng.liveSizes[addr]; ok {
		eng.liveBytes -= r
		delete(eng.liveSizes, addr)
	}
}

// sizeMap returns the active substrate's size map (all substrates reuse
// TCMalloc's classes, so footprint accounting is comparable across them).
func (eng *Engine) sizeMap() *tcmalloc.SizeMap {
	switch {
	case eng.heap != nil:
		return eng.heap.SizeMap
	case eng.lf != nil:
		return eng.lf.SizeMap
	default:
		return eng.off.Heap.SizeMap
	}
}
