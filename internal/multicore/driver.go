package multicore

import (
	"mallacc/internal/core"
	"mallacc/internal/cpu"
	"mallacc/internal/stats"
	"mallacc/internal/uop"
	"mallacc/internal/workload"
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
	mc  *core.MallocCache   // nil unless Variant == Mallacc
	hw  *core.SampleCounter // nil unless Variant == Mallacc on tcmalloc
	rng *stats.RNG

	// The substrate, bound once by New: the emitter this core's allocator
	// calls write their traces to, and hooks that execute one call
	// functionally, malloc reporting whether it took the fast path.
	em     *uop.Emitter
	malloc func(size uint64) (addr uint64, fast bool)
	free   func(addr, hint uint64)

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

	foot workload.Toucher

	res CoreStats
}

func (cs *coreState) Malloc(size uint64) uint64 {
	cs.checkpoint()
	cs.drainInbox()
	cs.em.Reset()
	addr, fast := cs.malloc(size)
	cyc := cs.cpu.RunTrace(cs.em.Trace())
	cs.res.MallocCycles += cyc
	cs.res.MallocCalls++
	if fast {
		cs.res.FastMallocCycles += cyc
		cs.res.FastMallocCalls++
	}
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
	cs.em.Reset()
	cs.free(addr, sizeHint)
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
	cs.cpu.AdvanceApp(cycles, cs.foot.Touch(cs.rng, lines))
	cs.res.AppCycles += cycles
}

func (cs *coreState) Antagonize() {
	cs.cpu.Memory().Antagonize()
}
