package cpu

import (
	"testing"

	"mallacc/internal/cachesim"
	"mallacc/internal/uop"
)

// warmTrace builds a fast-path-shaped trace into em and returns it.
func warmTrace(em *uop.Emitter) uop.Trace {
	em.Reset()
	em.Step(uop.StepCallOverhead)
	v := em.ALUChain(4, uop.NoDep)
	em.Step(uop.StepSizeClass)
	v = em.ALUChain(6, v)
	em.Branch(1, true, v)
	em.Step(uop.StepPushPop)
	h := em.Load(1<<20, v)
	n := em.Load(1<<20+64, h)
	em.Store(1<<20, n, h)
	em.Branch(2, true, n)
	em.Step(uop.StepOther)
	em.ALUChain(8, n)
	return em.Trace()
}

// TestSteadyStateMemoryBounded pins the fix for the old cycle-keyed
// reservation maps, which retained every cycle ever reserved: after warmup,
// scheduling must allocate nothing per call, and none of the core's
// persistent structures may grow with the simulated cycle count. The clock
// is pushed millions of cycles past the table window to prove the bound is
// in call-relative cycles, not absolute ones.
func TestSteadyStateMemoryBounded(t *testing.T) {
	c := New(DefaultConfig(), cachesim.NewDefaultHierarchy())
	em := uop.NewEmitter()
	defer em.Recycle()
	tr := warmTrace(em)

	for i := 0; i < 256; i++ {
		c.RunTrace(tr)
		c.AdvanceApp(1000, nil)
	}

	snapshot := func() [3]int {
		return [3]int{len(c.res.s), len(c.entryReady), cap(c.fetchC)}
	}
	before := snapshot()
	startCycle := c.Cycle()

	allocs := testing.AllocsPerRun(5000, func() {
		c.RunTrace(tr)
		c.AdvanceApp(1000, nil)
	})
	if allocs != 0 {
		t.Fatalf("steady-state RunTrace allocates %.1f times per call, want 0", allocs)
	}
	if after := snapshot(); after != before {
		t.Fatalf("persistent state grew with cycle count:\nbefore %v\nafter  %v", before, after)
	}
	if grew := c.Cycle() - startCycle; grew < 5_000_000 {
		t.Fatalf("clock advanced only %d cycles; the test did not stress absolute-cycle growth", grew)
	}
}

// TestSteadyStateMemoryBoundedAnalytic is the same bound for the analytic
// reference model (its per-call fill-buffer scratch is reused, not
// reallocated).
func TestSteadyStateMemoryBoundedAnalytic(t *testing.T) {
	c := New(DefaultConfig(), cachesim.NewDefaultHierarchy())
	c.SetAnalytic(true)
	em := uop.NewEmitter()
	defer em.Recycle()
	tr := warmTrace(em)
	for i := 0; i < 256; i++ {
		c.RunTrace(tr)
	}
	if allocs := testing.AllocsPerRun(5000, func() { c.RunTrace(tr) }); allocs != 0 {
		t.Fatalf("analytic RunTrace allocates %.1f times per call, want 0", allocs)
	}
}

// TestMemoBounded feeds a memo-attached core a stream of distinct short
// traces, far more schedules than the memo holds: it must clear itself
// when full rather than grow, and a call, hit or miss, must allocate
// nothing.
func TestMemoBounded(t *testing.T) {
	c := New(DefaultConfig(), cachesim.NewDefaultHierarchy())
	m := NewMemo()
	c.SetMemo(m)
	em := uop.NewEmitter()
	defer em.Recycle()
	// Distinct traces by construction: the ALU latency overrides spell
	// out the call index.
	var i int
	distinct := func() uop.Trace {
		em.Reset()
		v := em.Load(1<<20, uop.NoDep)
		for k := i; k > 0; k >>= 2 {
			v = em.ALUWithLat(uint8(1+k&3), v, uop.NoDep)
		}
		em.Branch(3, true, v)
		i++
		return em.Trace()
	}
	for range 256 {
		c.RunTrace(distinct())
	}
	slots, arena := len(m.slots), cap(m.arena)
	allocs := testing.AllocsPerRun(50000, func() {
		c.RunTrace(distinct())
		c.RunTrace(warmTrace(em))
	})
	if allocs != 0 {
		t.Fatalf("memoized RunTrace allocates %.1f times per call pair, want 0", allocs)
	}
	if len(m.slots) != slots || cap(m.arena) != arena {
		t.Fatalf("memo grew: %d slots, %d arena words; want %d, %d", len(m.slots), cap(m.arena), slots, arena)
	}
	if m.Stats.Resets == 0 || m.Stats.Hits == 0 {
		t.Fatalf("want the memo both full (reset) and serving: %+v", m.Stats)
	}
}
