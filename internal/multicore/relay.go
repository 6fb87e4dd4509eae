//go:build go1.23

package multicore

import (
	"iter"

	"mallacc/internal/stats"
)

// The relay hand-off. Each core's shard runs as an iter.Pull coroutine, so
// it keeps its natural call stack, but passing the token is a direct
// coroutine switch on the caller's goroutine: no channel, no goroutine
// park/unpark, no host parallelism to synchronize.

// relayStopped is what checkpoint panics with when its core's coroutine is
// stopped while suspended (Run unwinding after another core panicked); the
// coroutine body recovers it, so the shard aborts without simulating
// another call.
type relayStopped struct{}

// Run executes every core's shard to completion and returns the collected
// result. An engine runs once. A panic on any simulated core unwinds every
// other core's shard and is re-raised here, on the caller's goroutine.
func (eng *Engine) Run() *Result {
	for _, cs := range eng.cores {
		cs.resume, cs.stop = iter.Pull(func(yield func(struct{}) bool) {
			defer func() {
				if p := recover(); p != nil && p != (relayStopped{}) {
					panic(p)
				}
			}()
			cs.yield = yield
			eng.runCore(cs)
		})
	}
	defer func() {
		for _, cs := range eng.cores {
			cs.stop()
		}
	}()
	eng.setActive(0)
	for eng.turn >= 0 {
		eng.active.resume()
	}

	// Frees posted to cores that finished before draining them execute
	// now, sequentially in ID order, on their owning core.
	for _, cs := range eng.cores {
		if cs.inboxPos < len(cs.inbox) {
			eng.setActive(cs.id)
			cs.drainInbox()
		}
	}
	var wall uint64
	for _, cs := range eng.cores {
		if c := cs.cpu.Cycle(); c > wall {
			wall = c
		}
	}
	eng.track.Finish(wall, eng.fillSnapshot)
	res := eng.collect()
	eng.recycle()
	return res
}

// runCore is one core's coroutine body: run the shard (checkpoint hands
// the token on at epoch boundaries), then retire from the rotation and
// pass the token to the next runnable core, if any, which Run resumes.
func (eng *Engine) runCore(cs *coreState) {
	cs.beginQuantum()
	eng.cfg.Workload.Run(cs, cs.budget, stats.NewRNG(eng.cfg.Seed+1+uint64(cs.id)*0x9e37))
	cs.drainInbox()
	cs.done = true
	cs.res.DoneEpoch = eng.epoch
	eng.advanceTurn()
}

// checkpoint is called at every App entry point: while the core's logical
// clock has crossed the epoch boundary, hand the token to the next runnable
// core and suspend until Run resumes this core. A core that overshot
// several epochs (a long span refill or simulated syscall) keeps yielding
// until the global epoch catches up, so the cores stay aligned on logical
// time. When it is the only runnable core the token comes straight back,
// and it continues without switching.
func (cs *coreState) checkpoint() {
	eng := cs.eng
	for cs.cpu.Cycle() >= cs.epochEnd {
		eng.yields++
		cs.res.Yields++
		if next := eng.advanceTurn(); next != cs && !cs.yield(struct{}{}) {
			panic(relayStopped{})
		}
		cs.beginQuantum()
	}
}
