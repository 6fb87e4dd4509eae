package cpu

// This file keeps a frozen copy of the scheduler's original bookkeeping —
// cycle-keyed maps for fetch/port/commit bandwidth, a map for malloc-cache
// entry blocking, a map-backed branch predictor — as an executable reference
// model. The equivalence test in equivalence_test.go replays identical
// allocator traces through this shim and the production Core and demands
// identical timing, which is what licenses the ring-buffer rewrite to claim
// byte-identical pinned metrics.
//
// Do not "optimize" this file: its value is that it is structurally the old
// implementation.

import (
	"mallacc/internal/cachesim"
	"mallacc/internal/uop"
)

// refCore is the pre-rewrite Core: same configuration, same scheduling
// algorithm, original map-based data structures.
type refCore struct {
	cfg        Config
	mem        *cachesim.Hierarchy
	bp         map[uint32]uint8
	cycle      uint64
	stats      Stats
	entryReady map[int16]uint64
	mshr       []uint64
	analytic   bool

	stepCyc  [uop.NumSteps]uint64
	stepUops [uop.NumSteps]uint64

	fetchC, doneC, commitC []uint64
	portUse                [numPortClasses]map[uint64]int
	fetchUse, commitUse    map[uint64]int
}

func newRefCore(cfg Config, mem *cachesim.Hierarchy) *refCore {
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 10
	}
	c := &refCore{
		cfg:        cfg,
		mem:        mem,
		bp:         map[uint32]uint8{},
		entryReady: map[int16]uint64{},
		mshr:       make([]uint64, cfg.MSHRs),
		fetchUse:   map[uint64]int{},
		commitUse:  map[uint64]int{},
	}
	for i := range c.portUse {
		c.portUse[i] = map[uint64]int{}
	}
	return c
}

func (c *refCore) contextSwitch() { clear(c.entryReady) }

// refPredict is the original map-backed bimodal predictor: 2-bit counter per
// site, absent sites start weakly not-taken (1).
func (c *refCore) refPredict(site uint32, taken bool) bool {
	ctr, ok := c.bp[site]
	if !ok {
		ctr = 1
	}
	pred := ctr >= 2
	if taken && ctr < 3 {
		ctr++
	} else if !taken && ctr > 0 {
		ctr--
	}
	c.bp[site] = ctr
	return pred
}

// refReserve is the original bandwidth reservation: walk forward from want
// until a cycle with spare slots, then take one.
func refReserve(use map[uint64]int, want uint64, limit int) uint64 {
	cy := want
	for use[cy] >= limit {
		cy++
	}
	use[cy]++
	return cy
}

func (c *refCore) portCount(p portClass) int {
	switch p {
	case portALU:
		return c.cfg.ALUPorts
	case portLoad:
		return c.cfg.LoadPorts
	case portStore:
		return c.cfg.StorePorts
	case portBranch:
		return c.cfg.BranchPorts
	case portMallacc:
		return c.cfg.MallaccPorts
	default:
		return 1 << 30
	}
}

func (c *refCore) mshrFind(want uint64) (uint64, int) {
	bestIdx, bestEnd := 0, ^uint64(0)
	for i, end := range c.mshr {
		if end <= want {
			return want, i
		}
		if end < bestEnd {
			bestIdx, bestEnd = i, end
		}
	}
	return bestEnd, bestIdx
}

func (c *refCore) fixedLatency(op *uop.UOp) uint64 {
	if op.LatOverride != 0 {
		return uint64(op.LatOverride)
	}
	switch op.Kind {
	case uop.ALU:
		return c.cfg.ALULat
	case uop.Branch:
		return c.cfg.BranchLat
	case uop.McSzLookup:
		return c.cfg.McLookupLat
	case uop.McSzUpdate:
		return c.cfg.McUpdateLat
	case uop.McHdPop:
		return c.cfg.McPopLat
	case uop.McHdPush:
		return c.cfg.McPushLat
	case uop.McNxtPrefetch:
		return c.cfg.McPrefLat
	default:
		return 0
	}
}

func (c *refCore) finishCallAttribution() {
	for s := range c.stepCyc {
		c.stats.StepCycles[s] += c.stepCyc[s]
		c.stats.StepUops[s] += c.stepUops[s]
	}
	clear(c.stepCyc[:])
	clear(c.stepUops[:])
}

func (c *refCore) runAnalytic(ops []uop.UOp) uint64 {
	start := c.cycle
	doneC := c.doneC[:len(ops)]
	var end uint64
	slot, loadSlot, storeSlot := 0, 0, 0
	// Original: fresh fill-buffer scratch every call.
	missEnd := make([]uint64, c.cfg.MSHRs)
	for i := range ops {
		op := &ops[i]
		ready := start
		if op.Dep1 != uop.NoDep && doneC[op.Dep1] > ready {
			ready = doneC[op.Dep1]
		}
		if op.Dep2 != uop.NoDep && doneC[op.Dep2] > ready {
			ready = doneC[op.Dep2]
		}
		if c.cfg.DropSteps[op.Step] && !op.Kind.IsMallacc() {
			doneC[i] = ready
			continue
		}
		if f := start + uint64(slot/c.cfg.FetchWidth) + 1; f > ready {
			ready = f
		}
		slot++
		switch op.Kind {
		case uop.Load:
			if f := start + uint64(loadSlot/c.cfg.LoadPorts) + 1; f > ready {
				ready = f
			}
			loadSlot++
		case uop.Store:
			if f := start + uint64(storeSlot/c.cfg.StorePorts) + 1; f > ready {
				ready = f
			}
			storeSlot++
		}
		var lat, fill uint64
		switch op.Kind {
		case uop.Load:
			lat = c.mem.Load(op.Addr)
			fill = lat
		case uop.Store:
			fill = c.mem.Store(op.Addr)
			lat = 1
		case uop.McNxtPrefetch:
			if op.Addr != 0 {
				fill = c.mem.Prefetch(op.Addr)
			}
			lat = c.fixedLatency(op)
		default:
			lat = c.fixedLatency(op)
		}
		if fill > c.mem.L1D.Latency() {
			best, bestEnd := 0, missEnd[0]
			for k := 1; k < len(missEnd); k++ {
				if missEnd[k] < bestEnd {
					best, bestEnd = k, missEnd[k]
				}
			}
			if bestEnd > ready {
				ready = bestEnd
			}
			missEnd[best] = ready + fill
		}
		doneC[i] = ready + lat
		if e := doneC[i] + uint64((len(ops)-1-i)/c.cfg.CommitWidth); e > end {
			end = e
		}
		c.stats.Uops++
		c.stepCyc[op.Step] += lat
		c.stepUops[op.Step]++
	}
	dur := end - start
	c.cycle = start + dur
	c.stats.Calls++
	c.stats.Cycles += dur
	c.finishCallAttribution()
	return dur
}

// runTrace is the original RunTrace, verbatim modulo the map-based state.
func (c *refCore) runTrace(t uop.Trace) uint64 {
	ops := t.Ops
	n := len(ops)
	if n == 0 {
		return 0
	}
	if cap(c.fetchC) < n {
		c.fetchC = make([]uint64, n)
		c.doneC = make([]uint64, n)
		c.commitC = make([]uint64, n)
	}
	if c.analytic {
		return c.runAnalytic(ops)
	}
	fetchC := c.fetchC[:n]
	doneC := c.doneC[:n]
	commitC := c.commitC[:n]
	// The original per-call reset: clear all eight reservation maps.
	for i := range c.portUse {
		clear(c.portUse[i])
	}
	clear(c.fetchUse)
	clear(c.commitUse)

	start := c.cycle
	redirect := start
	lastCommit := start

	for i := 0; i < n; i++ {
		op := &ops[i]
		depReady := start
		if op.Dep1 != uop.NoDep {
			if d := doneC[op.Dep1]; d > depReady {
				depReady = d
			}
		}
		if op.Dep2 != uop.NoDep {
			if d := doneC[op.Dep2]; d > depReady {
				depReady = d
			}
		}

		if c.cfg.DropSteps[op.Step] && !op.Kind.IsMallacc() {
			fetchC[i] = redirect
			doneC[i] = depReady
			commitC[i] = lastCommit
			continue
		}

		fWant := redirect
		if i > 0 && fetchC[i-1] > fWant {
			fWant = fetchC[i-1]
		}
		if i >= c.cfg.ROBSize {
			if rc := commitC[i-c.cfg.ROBSize]; rc > fWant {
				fWant = rc
			}
		}
		fCy := refReserve(c.fetchUse, fWant, c.cfg.FetchWidth)
		fetchC[i] = fCy

		ready := fCy + 1
		if depReady > ready {
			ready = depReady
		}
		if !c.cfg.NoPrefetchBlocking && op.MCEntry >= 0 && (op.Kind == uop.McHdPop || op.Kind == uop.McHdPush) {
			if r := c.entryReady[op.MCEntry]; r > ready {
				ready = r
			}
		}

		var memLat uint64
		switch op.Kind {
		case uop.Load:
			memLat = c.mem.Load(op.Addr)
		case uop.Store:
			memLat = c.mem.Store(op.Addr)
		case uop.McNxtPrefetch:
			if op.MCEntry >= 0 && op.Addr != 0 {
				memLat = c.mem.Prefetch(op.Addr)
			}
		}
		isMiss := memLat > c.mem.L1D.Latency()
		var mshrSlot int
		if isMiss {
			ready, mshrSlot = c.mshrFind(ready)
		}

		pc := classOf(op.Kind)
		issue := ready
		if pc != portNone {
			issue = refReserve(c.portUse[pc], ready, c.portCount(pc))
		}
		if isMiss {
			c.mshr[mshrSlot] = issue + memLat
		}

		var done uint64
		switch op.Kind {
		case uop.Load:
			done = issue + memLat
		case uop.Store:
			done = issue + 1
		case uop.McNxtPrefetch:
			done = issue + c.fixedLatency(op)
			if op.MCEntry >= 0 {
				ret := done
				if memLat > 0 {
					ret = issue + memLat
				}
				c.entryReady[op.MCEntry] = ret + c.cfg.McPrefTransferLat
			}
		case uop.Branch:
			done = issue + c.fixedLatency(op)
			c.stats.Branches++
			if c.refPredict(op.Site, op.Taken) != op.Taken {
				c.stats.Mispredicts++
				c.stepCyc[op.Step] += c.cfg.MispredictPenalty
				if r := done + c.cfg.MispredictPenalty; r > redirect {
					redirect = r
				}
			}
		default:
			done = issue + c.fixedLatency(op)
		}
		doneC[i] = done
		c.stepCyc[op.Step] += done - issue
		c.stepUops[op.Step]++

		cWant := done + 1
		if op.Kind == uop.Store || op.Kind == uop.McNxtPrefetch {
			cWant = done
		}
		if lastCommit > cWant {
			cWant = lastCommit
		}
		cCy := refReserve(c.commitUse, cWant, c.cfg.CommitWidth)
		commitC[i] = cCy
		lastCommit = cCy
		c.stats.Uops++
	}

	end := lastCommit
	if end < start {
		end = start
	}
	dur := end - start
	c.cycle = end
	c.stats.Calls++
	c.stats.Cycles += dur
	c.finishCallAttribution()
	return dur
}
