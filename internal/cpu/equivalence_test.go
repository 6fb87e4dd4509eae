package cpu

import (
	"fmt"
	"math"
	"testing"

	"mallacc/internal/cachesim"
	"mallacc/internal/core"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/uop"
)

// runEquivalence drives seed-1 allocator traces from a real TCMalloc heap
// through the production Core and the map-based reference shim in lockstep,
// asserting identical per-call durations, clocks and final Stats. Context
// switches and application advance phases are interleaved so the persistent
// state (predictor, caches, entry blocking, table vs maps) is exercised
// across call boundaries, not just within one call.
func runEquivalence(t *testing.T, mallacc, limit, analytic bool, calls int) {
	t.Helper()
	hCfg := tcmalloc.DefaultConfig()
	hCfg.Seed = 1
	if mallacc {
		hCfg.Mode = tcmalloc.ModeMallacc
		hCfg.MallocCache = core.Config{Entries: 16, IndexMode: true}
	}
	heap := tcmalloc.New(hCfg)
	defer heap.Em.Recycle()
	tc := heap.NewThread()

	cCfg := DefaultConfig()
	if limit {
		cCfg.DropSteps[uop.StepSizeClass] = true
		cCfg.DropSteps[uop.StepSampling] = true
		cCfg.DropSteps[uop.StepPushPop] = true
	}
	fast := New(cCfg, cachesim.NewDefaultHierarchy())
	ref := newRefCore(cCfg, cachesim.NewDefaultHierarchy())
	fast.SetAnalytic(analytic)
	ref.analytic = analytic

	rng := stats.NewRNG(1)
	sizes := []uint64{8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 512, 1024, 4096, 40000}
	type obj struct{ addr, size uint64 }
	var live []obj
	touch := make([]uint64, 8)
	for i := 0; i < calls; i++ {
		if i > 0 && i%769 == 0 {
			if heap.MC != nil {
				heap.MC.Flush()
			}
			fast.ContextSwitch()
			ref.contextSwitch()
		}
		heap.Em.Reset()
		if len(live) > 0 && (len(live) > 512 || rng.Bernoulli(0.45)) {
			j := rng.Intn(len(live))
			o := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			heap.Free(tc, o.addr, o.size)
		} else {
			sz := sizes[rng.Intn(len(sizes))]
			live = append(live, obj{heap.Malloc(tc, sz), sz})
		}
		tr := heap.Em.Trace()
		d1 := fast.RunTrace(tr)
		d2 := ref.runTrace(tr)
		if d1 != d2 {
			t.Fatalf("call %d (%d uops): duration fast=%d ref=%d", i, len(tr.Ops), d1, d2)
		}
		if fast.Cycle() != ref.cycle {
			t.Fatalf("call %d: clock fast=%d ref=%d", i, fast.Cycle(), ref.cycle)
		}
		if rng.Bernoulli(0.3) {
			n := rng.Intn(len(touch) + 1)
			for k := 0; k < n; k++ {
				touch[k] = (1 << 41) + rng.Uint64n(1<<18)*64
			}
			adv := uint64(rng.Intn(400))
			fast.AdvanceApp(adv, touch[:n])
			ref.cycle += adv
			for _, a := range touch[:n] {
				ref.mem.Touch(a)
			}
		}
	}
	if fast.Stats != ref.stats {
		t.Fatalf("final stats diverge:\nfast %+v\nref  %+v", fast.Stats, ref.stats)
	}
}

// TestSchedulerMatchesMapReference is the tentpole's correctness guard: the
// reservation-table fast path must be observationally identical to the original
// map-based scheduler on real seed-1 allocator traces in every variant.
func TestSchedulerMatchesMapReference(t *testing.T) {
	cases := []struct {
		name           string
		mallacc, limit bool
		analytic       bool
	}{
		{name: "baseline"},
		{name: "mallacc", mallacc: true},
		{name: "limit", limit: true},
		{name: "analytic", analytic: true},
		{name: "mallacc_analytic", mallacc: true, analytic: true},
	}
	calls := 4000
	if testing.Short() {
		calls = 800
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runEquivalence(t, tc.mallacc, tc.limit, tc.analytic, calls)
		})
	}
}

// TestSchedulerMatchesReferenceOnLongSpans forces call spans far past the
// reservation table's initial 1024-cycle window, so its growth is exercised
// against the reference, then verifies short calls still agree after the
// grow.
func TestSchedulerMatchesReferenceOnLongSpans(t *testing.T) {
	cfg := DefaultConfig()
	fast := New(cfg, cachesim.NewDefaultHierarchy())
	ref := newRefCore(cfg, cachesim.NewDefaultHierarchy())

	em := uop.NewEmitter()
	defer em.Recycle()
	for iter := 0; iter < 4; iter++ {
		em.Reset()
		// A long dependent chain: total latency ~40*200 cycles, so commit
		// and ALU-port reservations land up to ~8000 cycles past start.
		v := uop.NoDep
		for j := 0; j < 40; j++ {
			v = em.ALUWithLat(200, v, uop.NoDep)
			em.Store((1<<33)+uint64(iter*64+j)*8, v, uop.NoDep)
		}
		em.Branch(9, iter%2 == 0, v)
		d1 := fast.RunTrace(em.Trace())
		d2 := ref.runTrace(em.Trace())
		if d1 != d2 {
			t.Fatalf("long-span iter %d: fast=%d ref=%d", iter, d1, d2)
		}
		// A short well-predicted trace right after, to catch stale slots
		// surviving the growth copy.
		em.Reset()
		s := em.ALUChain(6, uop.NoDep)
		em.Branch(10, true, s)
		d1 = fast.RunTrace(em.Trace())
		d2 = ref.runTrace(em.Trace())
		if d1 != d2 {
			t.Fatalf("post-span iter %d: fast=%d ref=%d", iter, d1, d2)
		}
	}
	if w := len(fast.res.s); w <= resInitWindow {
		t.Fatalf("reservation table never grew: window=%d", w)
	}
	if fast.Stats != ref.stats {
		t.Fatalf("stats diverge:\nfast %+v\nref  %+v", fast.Stats, ref.stats)
	}
}

// busyTrace builds n groups of independent ALU, load, store and
// well-predicted branch micro-ops across every step tag, so a call keeps
// fetch saturated and fills port slots of every class for about n/2
// cycles.
func busyTrace(em *uop.Emitter, n int) uop.Trace {
	steps := []uop.Step{uop.StepCallOverhead, uop.StepSizeClass, uop.StepSampling, uop.StepPushPop, uop.StepOther}
	em.Reset()
	for i := 0; i < n; i++ {
		em.Step(steps[i%len(steps)])
		v := em.ALU(uop.NoDep, uop.NoDep)
		switch i % 4 {
		case 1:
			em.Load((1<<22)+uint64(i%64)*64, uop.NoDep)
		case 2:
			em.Store((1<<22)+uint64(i%32)*64, uop.NoDep, v)
		case 3:
			em.Branch(uint32(20+i%8), true, v)
		}
	}
	return em.Trace()
}

// TestSchedulerMatchesReferenceAcrossGenerationWrap fills the reservation
// table at generation 1 with one long call, then jumps the generation to
// just below its wrap and runs calls across it in lockstep with the
// reference. The table's slots carry no cycle number, so only the clear
// on wrap keeps the first calls of the new generation 1 from reading the
// long call's counts as live.
func TestSchedulerMatchesReferenceAcrossGenerationWrap(t *testing.T) {
	for _, limit := range []bool{false, true} {
		t.Run(map[bool]string{false: "baseline", true: "limit"}[limit], func(t *testing.T) {
			cfg := DefaultConfig()
			if limit {
				cfg.DropSteps[uop.StepSizeClass] = true
				cfg.DropSteps[uop.StepSampling] = true
				cfg.DropSteps[uop.StepPushPop] = true
			}
			fast := New(cfg, cachesim.NewDefaultHierarchy())
			ref := newRefCore(cfg, cachesim.NewDefaultHierarchy())
			em := uop.NewEmitter()
			defer em.Recycle()
			run := func(what string, tr uop.Trace) {
				t.Helper()
				d1, d2 := fast.RunTrace(tr), ref.runTrace(tr)
				if d1 != d2 || fast.Cycle() != ref.cycle {
					t.Fatalf("%s (generation %d): duration fast=%d ref=%d, clock fast=%d ref=%d",
						what, fast.resGen, d1, d2, fast.Cycle(), ref.cycle)
				}
				if fast.Stats != ref.stats {
					t.Fatalf("%s (generation %d): stats diverge:\nfast %+v\nref  %+v", what, fast.resGen, fast.Stats, ref.stats)
				}
			}

			run("long call", busyTrace(em, 4000))
			if fast.resGen != 1 {
				t.Fatalf("long call ran at generation %d, want 1", fast.resGen)
			}
			fast.resGen = math.MaxUint32 - 2
			run("pre-wrap short call", warmTrace(em))
			run("pre-wrap short call", warmTrace(em))
			// Each post-wrap call reaches further than the one before, into
			// slots the long call wrote at generation 1.
			for n := 200; n <= 1600; n *= 2 {
				run(fmt.Sprintf("post-wrap %d-group call", n), busyTrace(em, n))
			}
			run("post-wrap short call", warmTrace(em))
			if fast.resGen != 5 {
				t.Fatalf("generation %d after the wrap, want 5", fast.resGen)
			}
		})
	}
}
