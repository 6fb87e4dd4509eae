package cpu

import (
	"slices"
	"testing"

	"mallacc/internal/cachesim"
	"mallacc/internal/uop"
)

// dirtyCore returns a core left as a long run leaves one: a reservation
// table grown past its first window by a call at generation 1 and holding
// the counts of a few hundred later generations, a trained predictor, full
// caches, a used memo, line-fill buffers and entry-ready times (one past
// the first 64 entries) outstanding beyond its clock, and the analytic
// model and a step observer switched on.
func dirtyCore(t *testing.T) *Core {
	t.Helper()
	c := New(DefaultConfig(), cachesim.NewDefaultHierarchy())
	em := uop.NewEmitter()
	defer em.Recycle()
	l := lockstepOn(t, c, DefaultConfig(), NewMemo(), false)
	l.run("long call", busyTrace(em, 4000))
	s := newAllocStream(t, true, 3)
	for i := range 300 {
		s.step(i, l)
	}
	em.Reset()
	v := em.ALU(uop.NoDep, uop.NoDep)
	for k := range 10 {
		em.Store((1<<35)+uint64(k)*4096, v, uop.NoDep)
	}
	em.Mallacc(uop.McNxtPrefetch, 100, true, 1<<36, v, 0)
	c.RunTrace(em.Trace())

	if c.resGen < 300 || len(c.res.s) <= resInitWindow {
		t.Fatalf("dirty core at generation %d with a %d-slot table", c.resGen, len(c.res.s))
	}
	if c.entryReadyAt(100) <= c.Cycle() || slices.Max(c.mshr) <= c.Cycle() {
		t.Fatalf("dirty core has nothing outstanding at cycle %d: entry 100 %d, fills %v",
			c.Cycle(), c.entryReadyAt(100), c.mshr)
	}
	c.SetAnalytic(true)
	c.SetStepObserver(func(_, _ []uint64) { t.Fatal("a reset core called the old step observer") })
	return c
}

// TestRecycledCoreMatchesFresh resets a dirty core to the engines' Configs
// and to one with more line-fill buffers, and runs a seed-1 allocator
// stream on it in lockstep with a fresh reference core: the recycled core must schedule every call exactly as a
// fresh one does. A generation that restarted at 0 would revive the dirty
// run's reservation counts, and a memo key sized by the old line-fill
// buffer count would reallocate on calls of the wider core.
func TestRecycledCoreMatchesFresh(t *testing.T) {
	cases := []struct {
		equivCase
		mshrs int
	}{
		{equivCase: equivCase{name: "baseline", memo: true}},
		{equivCase: equivCase{name: "limit", limit: true, memo: true}},
		{equivCase: equivCase{name: "noblocking", noBlocking: true, memo: true}},
		{equivCase: equivCase{name: "analytic", analytic: true}},
		{equivCase: equivCase{name: "more_mshrs", memo: true}, mshrs: memoMaxMSHRs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := dirtyCore(t)
			cfg := tc.config()
			cfg.MSHRs = tc.mshrs
			c.reset(cfg)
			if c.Cycle() != 0 || c.Stats != (Stats{}) || c.analytic || c.stepObserver != nil || c.memo != nil {
				t.Fatalf("reset left cycle %d, stats %+v, analytic %v, observer %v, memo %v",
					c.Cycle(), c.Stats, c.analytic, c.stepObserver != nil, c.memo != nil)
			}
			var memo *Memo
			if tc.memo {
				memo = NewMemo()
			}
			l := lockstepOn(t, c, cfg, memo, tc.analytic)
			s := newAllocStream(t, true, 1)
			for i := range equivCalls() {
				s.step(i, l)
			}
			levels := func(h *cachesim.Hierarchy) [4]cachesim.Stats {
				return [4]cachesim.Stats{h.L1D.Stats, h.L2.Stats, h.L3.Stats, h.DTLB.Stats}
			}
			if got, want := levels(c.mem), levels(l.ref.mem); got != want {
				t.Fatalf("cache stats %+v, fresh reference %+v", got, want)
			}
			if tc.memo && memo.Stats.Hits == 0 {
				t.Fatal("the memo served no call")
			}
			if tc.mshrs > 0 {
				wideKeyCallsAllocateNothing(t, c)
			}
		})
	}
}

// wideKeyCallsAllocateNothing runs a memoized 64-op call whose key is as
// long as c's Config allows (one word per op, one per pop, one per
// line-fill buffer) and requires it to allocate nothing.
func wideKeyCallsAllocateNothing(t *testing.T, c *Core) {
	t.Helper()
	ops := make([]uop.UOp, memoMaxOps)
	for i := range ops {
		ops[i] = uop.UOp{Kind: uop.McHdPop, Dep1: uop.NoDep, Dep2: uop.NoDep, MCEntry: 0}
	}
	ops[0] = uop.UOp{Kind: uop.Load, Dep1: uop.NoDep, Dep2: uop.NoDep, MCEntry: -1}
	line := uint64(1 << 37)
	run := func() {
		line += 64 // a cold line each call, so the key carries the fill buffers
		ops[0].Addr = line
		c.RunTrace(uop.Trace{Ops: ops})
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("a %d-MSHR core allocates %.1f times per wide-key call, want 0", len(c.mshr), allocs)
	}
}

// TestAcquireReleaseRoundTrip releases a dirty pooled core and acquires a
// core under another Config: whether or not the pool hands the same core
// back, it must behave as a fresh one. Release refuses a core New built.
func TestAcquireReleaseRoundTrip(t *testing.T) {
	for round := range 3 {
		c := Acquire(DefaultConfig())
		l := lockstepOn(t, c, DefaultConfig(), NewMemo(), false)
		s := newAllocStream(t, true, uint64(round+5))
		for i := range 200 {
			s.step(i, l)
		}
		c.Release()

		cfg := equivCase{limit: true}.config()
		d := Acquire(cfg)
		l = lockstepOn(t, d, cfg, nil, false)
		s = newAllocStream(t, true, 1)
		for i := range 200 {
			s.step(i, l)
		}
		d.Release()
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Release took a core New built")
		}
	}()
	New(DefaultConfig(), cachesim.NewDefaultHierarchy()).Release()
}
