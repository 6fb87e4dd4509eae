// Package cpu implements the trace-driven out-of-order core timing model
// that stands in for XIOSim in this reproduction. It consumes the micro-op
// traces emitted by the instrumented allocator (package uop) and charges
// cycles against a Haswell-like machine: 4-wide fetch and commit, 8-wide
// issue with per-port limits, a 192-entry reorder buffer, a branch
// predictor with a fixed redirect penalty, senior-store-queue semantics for
// stores and Mallacc prefetches, and a data cache hierarchy (package
// cachesim) for load latencies.
//
// The scheduling algorithm is an in-program-order pass that computes, for
// every micro-op, its fetch, issue, completion and commit cycles under
// dataflow, bandwidth, port, ROB and fetch-redirect constraints — a greedy
// list schedule that closely tracks what an ideal out-of-order window would
// do on traces of fast-path length (tens to a few thousand micro-ops).
// Cache and predictor state never depend on timing, so a core with a
// schedule memo (Memo) splits short calls in two: a functional pass makes
// the hierarchy accesses and predictor updates and builds an exact key of
// the call's timing input, and the schedule pass runs only when no earlier
// call had the same key; otherwise its result is replayed. Long calls, and
// cores without a memo, take the single fused pass.
//
// The limit study of the paper ("instructions ... are simply ignored by
// performance simulation") is reproduced by DropSteps: micro-ops whose step
// tag is dropped consume no fetch slots, ports, or latency, and forward
// their inputs with zero delay.
package cpu

import (
	"math/bits"

	"mallacc/internal/cachesim"
	"mallacc/internal/telemetry"
	"mallacc/internal/uop"
)

// Config parameterizes the core.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROBSize     int
	// MispredictPenalty is the fetch-redirect cost of a mispredicted
	// branch, in cycles from branch resolution.
	MispredictPenalty uint64
	// Port counts per class of execution resource.
	LoadPorts   int
	StorePorts  int
	ALUPorts    int
	BranchPorts int
	// MallaccPorts bounds concurrent malloc-cache operations (the cache
	// has a single access port in the paper's design).
	MallaccPorts int
	// MSHRs bounds outstanding L1 misses (line-fill buffers): loads,
	// stores and prefetches that miss L1 each occupy one from issue until
	// the fill returns. This is what makes cold bursts — span carving,
	// radix-tree walks — cost realistically instead of pipelining
	// arbitrarily deep into DRAM. Haswell has 10 LFBs.
	MSHRs int
	// DropSteps marks step tags to ignore in timing (limit study /
	// Figure 4 ablations).
	DropSteps [uop.NumSteps]bool
	// NoPrefetchBlocking ablates the rule that a malloc-cache entry with
	// an outstanding mcnxtprefetch blocks pops and pushes (Sec. 4.1 —
	// required for consistency in hardware; ablating it quantifies the tp
	// slowdown the rule causes).
	NoPrefetchBlocking bool
	// Latencies per kind; loads are dynamic through the cache hierarchy.
	ALULat, BranchLat              uint64
	McLookupLat, McUpdateLat       uint64
	McPopLat, McPushLat, McPrefLat uint64
	// McPrefTransferLat is the extra time for a prefetched value to make
	// its way from the cache hierarchy into the malloc cache ("treated in
	// a virtually identical manner to a store ... waits for an
	// acknowledgment", Sec. 4.1); the entry stays blocked for it.
	McPrefTransferLat uint64
}

// DefaultConfig returns the Haswell-like configuration used throughout the
// evaluation.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        4,
		IssueWidth:        8,
		CommitWidth:       4,
		ROBSize:           192,
		MispredictPenalty: 14,
		LoadPorts:         2,
		StorePorts:        1,
		ALUPorts:          4,
		BranchPorts:       2,
		MallaccPorts:      1,
		MSHRs:             10,
		ALULat:            1,
		BranchLat:         1,
		McLookupLat:       1,
		McUpdateLat:       1,
		McPopLat:          1,
		McPushLat:         1,
		McPrefLat:         1,
		McPrefTransferLat: 16,
	}
}

// Stats aggregates retirement statistics across calls.
type Stats struct {
	Calls       uint64
	Uops        uint64
	Cycles      uint64
	Mispredicts uint64
	Branches    uint64
	// StepCycles attributes execution occupancy to the fast-path step tags
	// (see uop.Step): for each executed micro-op, the cycles from issue to
	// completion — plus any misprediction redirect its branch caused — are
	// charged to its step. Steps overlap in an out-of-order window, so the
	// per-step sums can exceed Cycles; they answer the additive "how much
	// work does this step issue" question of the paper's Figure 4.
	StepCycles [uop.NumSteps]uint64
	// StepUops counts executed micro-ops per step tag.
	StepUops [uop.NumSteps]uint64
}

// IPC returns retired micro-ops per cycle across all simulated calls.
func (s Stats) IPC() float64 { return telemetry.Rate(s.Uops, s.Cycles) }

// portClass buckets kinds onto execution resources.
type portClass uint8

const (
	portALU portClass = iota
	portLoad
	portStore
	portBranch
	portMallacc
	portNone
	numPortClasses
)

func classOf(k uop.Kind) portClass {
	switch k {
	case uop.ALU:
		return portALU
	case uop.Load:
		return portLoad
	case uop.Store:
		return portStore
	case uop.Branch:
		return portBranch
	case uop.McSzLookup, uop.McSzUpdate, uop.McHdPop, uop.McHdPush, uop.McNxtPrefetch:
		return portMallacc
	default:
		return portNone
	}
}

// Core is the timing model plus its persistent microarchitectural state
// (branch predictor, cache hierarchy, malloc-cache entry blocking, global
// clock).
type Core struct {
	cfg   Config
	mem   *cachesim.Hierarchy
	bp    *BranchPredictor
	cycle uint64
	Stats Stats

	// entryReady holds, per malloc-cache entry id, the cycle at which an
	// outstanding mcnxtprefetch returns; pops/pushes to a blocked entry
	// stall until then (Sec. 4.1). Dense: indexed by entry, zero = not
	// blocked, grown on demand past the initial 64 entries.
	entryReady []uint64

	// mshr holds the fill-completion cycle of each line-fill buffer; a
	// miss must find a slot whose previous fill has completed.
	mshr []uint64

	// analytic selects the dependence-graph reference model.
	analytic bool

	// stepObserver, when set, receives each call's per-step cycle and
	// micro-op counts right after the call is scheduled (the telemetry
	// step profiler rides this).
	stepObserver func(cycles, uops []uint64)
	// stepCyc/stepUops are the per-call attribution scratch.
	stepCyc  [uop.NumSteps]uint64
	stepUops [uop.NumSteps]uint64

	// Per-call scratch, reused across calls.
	fetchC, doneC, commitC []uint64
	// Fetch and port bandwidth reservations: one call-relative table
	// indexed by cycle-start (see ring.go), validated by resGen so no
	// per-call clearing is needed. It replaces the old cycle-keyed maps,
	// which both allocated on growth and retained every cycle ever
	// reserved. Commit bandwidth needs no table at all: its request cycles
	// are clamped to lastCommit and therefore monotone within a call, so a
	// scalar (cycle, count) pair tracks it exactly (see bwTracker). Fetch
	// wants are monotone too — except when DropSteps is active: a dropped
	// micro-op records the bare redirect cycle, so the next real fetch
	// want can fall behind the previous reservation and first-fit may
	// land in a partially filled earlier cycle. Fetch therefore uses the
	// scalar only on the no-drop path and the table's portNone count
	// otherwise.
	res    resTable
	resGen uint32
	// limit is the per-cycle reservation cap of each port class, with
	// FetchWidth in the portNone entry.
	limit [numPortClasses]uint8
	// missEnd is the analytic model's fill-buffer scratch.
	missEnd []uint64

	// memo, when set, replays repeated short calls (see Memo); memoGen is
	// the memo tag generation this core last validated. memoKey, carved
	// from the fetchC/doneC/commitC allocation, and memoLat hold pass 1's
	// key and per-op memory latencies.
	memo    *Memo
	memoGen uint32
	memoKey []uint64
	memoLat [memoMaxOps]uint64

	// pooled marks a core Acquire built, the only kind Release takes.
	pooled bool
}

// New builds a core over the given cache hierarchy. It panics if
// FetchWidth or a port count exceeds 255, the reservation table's
// per-cycle count range.
func New(cfg Config, mem *cachesim.Hierarchy) *Core {
	c := &Core{
		mem:        mem,
		bp:         NewBranchPredictor(),
		entryReady: make([]uint64, 64),
		res:        newResTable(),
	}
	c.configure(cfg)
	return c
}

// configure installs cfg and what it sizes: the per-class reservation
// limits and the line-fill buffers, all free.
func (c *Core) configure(cfg Config) {
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 10
	}
	for p, n := range [numPortClasses]int{
		portALU:     cfg.ALUPorts,
		portLoad:    cfg.LoadPorts,
		portStore:   cfg.StorePorts,
		portBranch:  cfg.BranchPorts,
		portMallacc: cfg.MallaccPorts,
		portNone:    cfg.FetchWidth,
	} {
		if n > 255 {
			panic("cpu: FetchWidth and port counts must be at most 255")
		}
		c.limit[p] = uint8(n)
	}
	c.cfg = cfg
	if cap(c.mshr) < cfg.MSHRs {
		c.mshr = make([]uint64, cfg.MSHRs)
	}
	c.mshr = c.mshr[:cfg.MSHRs]
	clear(c.mshr)
}

// SetMemo attaches a schedule memo (nil detaches it). Cores sharing one
// memo must run one at a time; a memo tagged with another Config or L1D
// latency is cleared on this core's first call. Cores with more than 64
// line-fill buffers, and the analytic model, schedule every call.
func (c *Core) SetMemo(m *Memo) {
	if len(c.mshr) > memoMaxMSHRs {
		m = nil
	}
	c.memo, c.memoGen = m, 0
}

// Memory exposes the cache hierarchy (for antagonist callbacks and stats).
func (c *Core) Memory() *cachesim.Hierarchy { return c.mem }

// SetStepObserver installs a per-call attribution sink: after every
// scheduled call, fn receives the call's cycles and micro-ops per step tag
// (indexed by uop.Step, valid only during the callback).
func (c *Core) SetStepObserver(fn func(cycles, uops []uint64)) { c.stepObserver = fn }

// RegisterMetrics adds the core's retirement counters to reg under "cpu.*".
// Per-step attribution is registered by the harness's step profiler, which
// sees per-call granularity through SetStepObserver.
func (c *Core) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("cpu.calls", func() uint64 { return c.Stats.Calls })
	reg.Counter("cpu.uops", func() uint64 { return c.Stats.Uops })
	reg.Counter("cpu.cycles", func() uint64 { return c.Stats.Cycles })
	reg.Counter("cpu.branches", func() uint64 { return c.Stats.Branches })
	reg.Counter("cpu.mispredicts", func() uint64 { return c.Stats.Mispredicts })
	reg.Gauge("cpu.ipc", func() float64 { return c.Stats.IPC() })
	reg.Gauge("cpu.mispredict_rate", func() float64 {
		return telemetry.Rate(c.Stats.Mispredicts, c.Stats.Branches)
	})
}

// finishCallAttribution folds the per-call step scratch into Stats, hands
// it to the observer, and clears it for the next call.
//
// This is the telemetry batching boundary for the hot loop: the scheduler
// increments only the local stepCyc/stepUops arrays per micro-op, and the
// step.<name>.* metrics see them exactly once per call, here. The
// telemetry.Registry itself is never touched — its counters are closures
// read at snapshot time. Calls in which no micro-op executed (fully
// dropped traces) skip the observer; ObserveCall would be a no-op for
// them, since an executed micro-op always accrues at least one cycle.
func (c *Core) finishCallAttribution() {
	var any bool
	for s := range c.stepCyc {
		cy, up := c.stepCyc[s], c.stepUops[s]
		any = any || cy|up != 0
		c.Stats.StepCycles[s] += cy
		c.Stats.StepUops[s] += up
	}
	if any && c.stepObserver != nil {
		c.stepObserver(c.stepCyc[:], c.stepUops[:])
	}
	if any {
		clear(c.stepCyc[:])
		clear(c.stepUops[:])
	}
}

// Cycle returns the global clock.
func (c *Core) Cycle() uint64 { return c.cycle }

// AdvanceApp models application execution between allocator calls: it
// advances the clock by cycles and applies the application's cache
// footprint.
func (c *Core) AdvanceApp(cycles uint64, touches []uint64) {
	c.cycle += cycles
	for _, a := range touches {
		c.mem.Touch(a)
	}
}

// ContextSwitch flushes the malloc-cache blocking state; the caller is
// responsible for flushing the malloc cache itself and, if desired, the
// data caches.
func (c *Core) ContextSwitch() {
	clear(c.entryReady)
}

// entryReadyAt returns the blocking deadline of a malloc-cache entry
// (zero when the entry has no outstanding prefetch).
func (c *Core) entryReadyAt(entry int16) uint64 {
	if int(entry) < len(c.entryReady) {
		return c.entryReady[entry]
	}
	return 0
}

// setEntryReady records an outstanding prefetch's return cycle, growing
// the dense table for malloc caches larger than its current size.
func (c *Core) setEntryReady(entry int16, cy uint64) {
	if int(entry) >= len(c.entryReady) {
		grown := make([]uint64, int(entry)+1)
		copy(grown, c.entryReady)
		c.entryReady = grown
	}
	c.entryReady[entry] = cy
}

// mshrFind returns the earliest cycle >= want at which a line-fill buffer
// is free, and which slot to use. The caller reserves the slot once the
// final issue cycle is known.
func (c *Core) mshrFind(want uint64) (uint64, int) {
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

func (c *Core) fixedLatency(op *uop.UOp) uint64 {
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

// SetAnalytic switches the core to the analytical dependence-graph model:
// no ports, widths, ROB, predictor or MSHRs — each micro-op completes when
// its operands are ready plus its latency, bounded below by the commit-
// width floor. It is the independent reference the detailed model is
// validated against (Table 1); real hardware is unavailable in this
// reproduction.
func (c *Core) SetAnalytic(a bool) { c.analytic = a }

// runAnalytic is the dependence-graph scheduler with ideal-machine
// bandwidth bounds: each op issues no earlier than its fetch slot
// (FetchWidth per cycle) and the call ends no earlier than the in-order
// commit of the remaining ops (CommitWidth per cycle) — but there are no
// ports, no ROB, no predictor and no MSHRs.
func (c *Core) runAnalytic(ops []uop.UOp) uint64 {
	start := c.cycle
	doneC := c.doneC[:len(ops)]
	var end uint64
	slot, loadSlot, storeSlot := 0, 0, 0
	// Fill-buffer bound: an L1 miss needs a free buffer; take the one
	// that frees earliest. The scratch is reused across calls.
	if len(c.missEnd) != c.cfg.MSHRs {
		c.missEnd = make([]uint64, c.cfg.MSHRs)
	}
	missEnd := c.missEnd
	clear(missEnd)
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
		// Per-kind memory bandwidth bounds (load/store pipes).
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
		// Line-fill bandwidth bound: at most MSHRs concurrent fills.
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
		// In-order commit bound: everything after op i retires at
		// CommitWidth per cycle once i completes.
		if e := doneC[i] + uint64((len(ops)-1-i)/c.cfg.CommitWidth); e > end {
			end = e
		}
		c.Stats.Uops++
		c.stepCyc[op.Step] += lat
		c.stepUops[op.Step]++
	}
	dur := end - start
	c.cycle = start + dur
	c.Stats.Calls++
	c.Stats.Cycles += dur
	c.finishCallAttribution()
	return dur
}

// RunTrace schedules one call trace starting at the current global clock
// and returns the call's duration in cycles. Cache, predictor and
// malloc-cache blocking state persist to the next call.
//
// With a memo attached, a trace of at most 64 ops takes two passes: pass 1
// (functional) makes its hierarchy accesses and predictor updates and
// builds its timing key, and pass 2 (schedule), fed pass 1's latencies
// and branch outcomes, runs only when the memo has no schedule for the
// key. Longer traces, and cores without a memo, take one fused pass.
func (c *Core) RunTrace(t uop.Trace) uint64 {
	ops := t.Ops
	n := len(ops)
	if n == 0 {
		return 0
	}
	if cap(c.fetchC) < n {
		c.growScratch(n)
	}
	if c.analytic {
		return c.runAnalytic(ops)
	}
	// A new generation invalidates every table slot of earlier calls in
	// O(1) — the replacement for clearing eight maps per call. Generation
	// 0 is never live: on wrap the table is cleared (see ring.go). A
	// replayed call takes a generation too, so generations count calls.
	c.resGen++
	if c.resGen == 0 {
		clear(c.res.s)
		c.resGen = 1
	}

	start := c.cycle
	var dur uint64
	if m := c.memo; m != nil && n <= memoMaxOps {
		if c.memoGen != m.gen {
			m.claim(c)
		}
		key, h, mispred, exact := c.functional(ops, start)
		r := -1
		if exact {
			r = m.lookup(key, h)
		}
		if r >= 0 {
			m.Stats.Hits++
			dur = m.replay(c, r, start)
		} else {
			m.Stats.Misses++
			var mshrMask uint64
			dur, mshrMask = c.schedule(ops, true, mispred)
			if exact {
				m.insert(c, ops, key, h, start, dur, mshrMask)
			}
		}
	} else {
		dur, _ = c.schedule(ops, false, 0)
	}
	c.cycle = start + dur
	c.Stats.Calls++
	c.Stats.Cycles += dur
	c.finishCallAttribution()
	return dur
}

// growScratch sizes the per-call scratch for n ops in one allocation:
// fetchC, doneC and commitC, then the memo key (at most two words per op
// of a memoized trace, plus one per line-fill buffer of a core that may
// hold a memo). The key's room does not depend on this core's Config, so
// a recycled core keeps its scratch whatever Config it is reset to.
func (c *Core) growScratch(n int) {
	k := 2*memoMaxOps + memoMaxMSHRs
	buf := make([]uint64, 3*n+k)
	c.fetchC, c.doneC, c.commitC = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n]
	c.memoKey = buf[3*n : 3*n : 3*n+k]
}

// memoHashMul is the multiplier of the memo key hash (2^64 over the
// golden ratio, odd).
const memoHashMul = 0x9e3779b97f4a7c15

// callRel returns cycle t relative to a call starting at start, with every
// t at or before start+1 as 0: no op of the call issues before start+1, so
// the scheduler treats all such t alike (a free buffer, an unblocked
// entry).
func callRel(t, start uint64) uint64 {
	if t > start+1 {
		return t - start
	}
	return 0
}

// functional is pass 1 of a memoized call: the call's hierarchy accesses
// and predictor updates in program order, leaving each memory op's
// latency in memoLat and returning the mispredicted ops as a bit mask. It
// packs the call's timing key into memoKey (see Memo) and returns it with
// its hash; exact is false when an input does not fit the packing (a
// forward dependency, an unknown kind, a latency of 2^17 cycles or more),
// and the call is then scheduled without the memo.
func (c *Core) functional(ops []uop.UOp, start uint64) (key []uint64, h, mispred uint64, exact bool) {
	n := len(ops)
	key = c.memoKey[:n]
	mem, bp := c.mem, c.bp
	l1 := mem.L1D.Latency()
	drops := c.cfg.DropSteps != [uop.NumSteps]bool{}
	blocking := !c.cfg.NoPrefetchBlocking
	// bad collects out-of-range inputs: a kind or step wider than its
	// field, a dependency on the op itself or a later one (whose doneC
	// slot still holds another call's time), a latency of 2^17 or more.
	var anyMiss bool
	var bad uint64
	for i := range ops {
		op := &ops[i]
		// One word per op: kind 0-3, step 4-6, drop 7, Dep1+1 8-14,
		// Dep2+1 15-21, MCEntry 22-37, LatOverride 38-45, mispredict 46,
		// memory latency 47-63.
		d1, d2 := uint64(int64(op.Dep1)+1), uint64(int64(op.Dep2)+1)
		bad |= ((uint64(i)-d1)|(uint64(i)-d2))>>63 | uint64(op.Kind)>>4 | uint64(op.Step)>>3
		w := uint64(op.Kind) | uint64(op.Step)<<4 | d1<<8 | d2<<15 |
			uint64(uint16(op.MCEntry))<<22 | uint64(op.LatOverride)<<38
		if drops && c.cfg.DropSteps[op.Step] && !op.Kind.IsMallacc() {
			w |= 1 << 7
		} else {
			switch op.Kind {
			case uop.Load, uop.Store, uop.McNxtPrefetch:
				var memLat uint64
				switch {
				case op.Kind == uop.Load:
					memLat = mem.Load(op.Addr)
				case op.Kind == uop.Store:
					memLat = mem.Store(op.Addr)
				case op.MCEntry >= 0 && op.Addr != 0:
					memLat = mem.Prefetch(op.Addr)
				}
				c.memoLat[i] = memLat
				anyMiss = anyMiss || memLat > l1
				bad |= memLat >> 17
				w |= memLat << 47
			case uop.McHdPop, uop.McHdPush:
				if blocking && op.MCEntry >= 0 {
					key = append(key, callRel(c.entryReadyAt(op.MCEntry), start))
				}
			case uop.Branch:
				c.Stats.Branches++
				if bp.PredictAndUpdate(op.Site, op.Taken) != op.Taken {
					c.Stats.Mispredicts++
					mispred |= 1 << i
					w |= 1 << 46
				}
			}
		}
		key[i] = w
	}
	if anyMiss {
		for _, end := range c.mshr {
			key = append(key, callRel(end, start))
		}
	}
	for _, w := range key {
		h = bits.RotateLeft64(h+w*memoHashMul, 29)
	}
	// Fold the high bits into the low bits the slot index takes.
	h ^= h >> 33
	h *= memoHashMul
	h ^= h >> 29
	return key, h, mispred, bad == 0
}

// schedule is pass 2: the list schedule of one call starting at the
// current clock, accumulating its per-step attribution. It returns the
// call's duration and the line-fill buffers it wrote, as a bit mask of
// the first 64. With fed set, each op's memory latency comes from
// memoLat and its branch outcome from mispred, as pass 1 left them;
// otherwise this pass makes the hierarchy accesses and predictor updates
// itself, in program order.
func (c *Core) schedule(ops []uop.UOp, fed bool, mispred uint64) (dur, mshrMask uint64) {
	n := len(ops)
	fetchC := c.fetchC[:n]
	doneC := c.doneC[:n]
	commitC := c.commitC[:n]
	gen := c.resGen

	start := c.cycle
	redirect := start // earliest cycle fetch may proceed (branch redirects)
	lastCommit := start
	var fetchBW, commitBW bwTracker
	// Dropped micro-ops break fetch-want monotonicity (see the field
	// comment on res); only drop-free cores take the scalar path.
	fetchScalar := c.cfg.DropSteps == [uop.NumSteps]bool{}

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
			// Ignored by timing: zero-latency forwarding, no resources.
			fetchC[i] = redirect
			doneC[i] = depReady
			commitC[i] = lastCommit
			continue
		}

		// Fetch: in order, FetchWidth per cycle, gated by redirects and
		// ROB occupancy.
		fWant := redirect
		if i > 0 && fetchC[i-1] > fWant {
			fWant = fetchC[i-1]
		}
		if i >= c.cfg.ROBSize {
			if rc := commitC[i-c.cfg.ROBSize]; rc > fWant {
				fWant = rc
			}
		}
		var fCy uint64
		if fetchScalar {
			fCy = fetchBW.reserve(fWant, c.cfg.FetchWidth)
		} else {
			fCy = c.res.reserve(portNone, fWant, c.limit[portNone], gen, start)
		}
		fetchC[i] = fCy

		// Ready to issue one cycle after dispatch, once operands ready.
		ready := fCy + 1
		if depReady > ready {
			ready = depReady
		}
		// Malloc-cache entry blocking for ordered list ops.
		if !c.cfg.NoPrefetchBlocking && op.MCEntry >= 0 && (op.Kind == uop.McHdPop || op.Kind == uop.McHdPush) {
			if r := c.entryReadyAt(op.MCEntry); r > ready {
				ready = r
			}
		}

		// Memory ops access the hierarchy in program order; the latency
		// also tells us whether this is an L1 miss needing a line-fill
		// buffer.
		var memLat uint64
		if fed {
			if op.Kind.IsMemory() {
				memLat = c.memoLat[i]
			}
		} else {
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
		}
		isMiss := memLat > c.mem.L1D.Latency()
		var mshrSlot int
		if isMiss {
			ready, mshrSlot = c.mshrFind(ready)
		}

		pc := classOf(op.Kind)
		issue := ready
		if pc != portNone {
			issue = c.res.reserve(pc, ready, c.limit[pc], gen, start)
		}
		if isMiss {
			c.mshr[mshrSlot] = issue + memLat
			mshrMask |= 1 << mshrSlot
		}

		// Execute.
		var done uint64
		switch op.Kind {
		case uop.Load:
			done = issue + memLat
		case uop.Store:
			// Senior store queue: completes immediately; the fill happens
			// in the background (it holds its MSHR until done).
			done = issue + 1
		case uop.McNxtPrefetch:
			done = issue + c.fixedLatency(op)
			if op.MCEntry >= 0 {
				ret := done
				if memLat > 0 {
					ret = issue + memLat
				}
				c.setEntryReady(op.MCEntry, ret+c.cfg.McPrefTransferLat)
			}
		case uop.Branch:
			done = issue + c.fixedLatency(op)
			var miss bool
			if fed {
				miss = mispred>>i&1 != 0
			} else {
				c.Stats.Branches++
				if miss = c.bp.PredictAndUpdate(op.Site, op.Taken) != op.Taken; miss {
					c.Stats.Mispredicts++
				}
			}
			if miss {
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

		// Commit: in order, CommitWidth per cycle.
		cWant := done + 1
		if op.Kind == uop.Store || op.Kind == uop.McNxtPrefetch {
			cWant = done // already marked complete at issue+1
		}
		if lastCommit > cWant {
			cWant = lastCommit
		}
		cCy := commitBW.reserve(cWant, c.cfg.CommitWidth)
		commitC[i] = cCy
		lastCommit = cCy
		c.Stats.Uops++
	}

	if lastCommit < start {
		lastCommit = start
	}
	return lastCommit - start, mshrMask
}

// bpTableSize is the direct-mapped predictor capacity. Branch sites are
// small static identifiers (every allocator's sites fit in a few hundred),
// so no two live sites alias at this size and the table behaves exactly
// like the unbounded per-site map it replaced — while indexing in two
// instructions instead of a hash probe.
const bpTableSize = 4096

// BranchPredictor is a fixed-size direct-mapped table of 2-bit saturating
// counters indexed by branch site, standing in for a PC-indexed bimodal
// predictor. The paper notes the fast path's branches are "easy to
// predict"; a bimodal table captures that after warmup. Like real bimodal
// hardware, sites 4096 apart would share a counter; the simulator's site
// id spaces stay far below that.
type BranchPredictor struct {
	table [bpTableSize]uint8
}

// NewBranchPredictor returns a fresh predictor (counters start weakly
// not-taken).
func NewBranchPredictor() *BranchPredictor {
	b := &BranchPredictor{}
	b.Reset()
	return b
}

// Reset restores every counter to the weakly-not-taken initial state.
func (b *BranchPredictor) Reset() {
	for i := range b.table {
		b.table[i] = 1
	}
}

// PredictAndUpdate returns the prediction for site and trains the counter
// with the actual outcome.
func (b *BranchPredictor) PredictAndUpdate(site uint32, taken bool) bool {
	i := site & (bpTableSize - 1)
	ctr := b.table[i]
	pred := ctr >= 2
	if taken && ctr < 3 {
		ctr++
	} else if !taken && ctr > 0 {
		ctr--
	}
	b.table[i] = ctr
	return pred
}
