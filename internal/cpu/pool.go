package cpu

import (
	"sync"

	"mallacc/internal/cachesim"
	"mallacc/internal/uop"
)

// Core recycling. Every simulated core of every engine run is a Core over
// the default hierarchy, and the hierarchy's tag arrays (565 KiB, nearly
// all of it L3) dominate what a run allocates on the host: a designspace
// experiment builds 160 cores (five strategies at 1 to 16 simulated cores,
// plus each offload cell's allocation core). Acquire and Release keep
// finished cores for the next run, as uop's slab pools keep trace slabs.
//
// The pool is a sync.Pool, not a free list: the garbage collector drops
// idle cores, so a burst of wide clusters does not pin its cores for the
// rest of the process. A fixed list of up to 64 cores allocated 12 % less
// than the pool on perfbench designspace but peaked at 69 MB of RSS, where
// the pool peaked at 57 MB and no pooling at 56 MB (2-core VM).
var corePool sync.Pool

// Acquire returns a core for cfg over the default cache hierarchy, in the
// state New(cfg, cachesim.NewDefaultHierarchy()) returns: every cache
// empty, the predictor untrained, the clock and Stats zero, no outstanding
// prefetch or line fill, the detailed model, and no step observer or memo.
// It reuses a released core when the pool has one. Like New, it panics if
// FetchWidth or a port count exceeds 255.
func Acquire(cfg Config) *Core {
	if c, ok := corePool.Get().(*Core); ok {
		c.reset(cfg)
		return c
	}
	c := New(cfg, cachesim.NewDefaultHierarchy())
	c.pooled = true
	return c
}

// Release hands a core Acquire returned back for reuse. Neither the core,
// its hierarchy nor anything that reads them (registered metrics, a step
// observer) may be used afterwards. It panics on a core New built, whose
// hierarchy the caller chose.
func (c *Core) Release() {
	if !c.pooled {
		panic("cpu: Release of a core Acquire did not return")
	}
	// Drop the run's references so an idle core keeps nothing alive.
	c.stepObserver, c.memo = nil, nil
	corePool.Put(c)
}

// reset returns a used core to the state New(cfg, ...) builds over an
// empty hierarchy. The hierarchy clears only its per-set counts. The
// reservation table keeps its slots and resGen keeps counting: a slot is
// live only at the current generation, so every slot an earlier run wrote
// is stale (a generation restarting at 0 would revive them). The per-call
// scratch keeps its size: it is written before it is read, and growScratch
// sizes the memo key for any Config that may hold a memo.
func (c *Core) reset(cfg Config) {
	c.configure(cfg)
	c.mem.Reset()
	c.bp.Reset()
	c.cycle = 0
	c.Stats = Stats{}
	clear(c.entryReady)
	c.analytic = false
	c.stepObserver = nil
	c.stepCyc, c.stepUops = [uop.NumSteps]uint64{}, [uop.NumSteps]uint64{}
	c.memo, c.memoGen = nil, 0
}
