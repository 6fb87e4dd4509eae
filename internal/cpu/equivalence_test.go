package cpu

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mallacc/internal/cachesim"
	"mallacc/internal/core"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/uop"
)

// lockstep pairs a production Core with the frozen map-based reference
// over identical hierarchies. run executes one call on both and fails the
// test unless they agree on the call's duration, the clock, the per-step
// vectors the step observer saw, Stats, and every line-fill buffer and
// malloc-cache entry-ready time.
type lockstep struct {
	t    *testing.T
	fast *Core
	ref  *refCore

	observed        bool
	obsCyc, obsUops [uop.NumSteps]uint64
}

func newLockstep(t *testing.T, cfg Config, memo *Memo, analytic bool) *lockstep {
	return lockstepOn(t, New(cfg, cachesim.NewDefaultHierarchy()), cfg, memo, analytic)
}

// lockstepOn pairs fast, which must already be configured with cfg, with a
// fresh reference core.
func lockstepOn(t *testing.T, fast *Core, cfg Config, memo *Memo, analytic bool) *lockstep {
	l := &lockstep{
		t:    t,
		fast: fast,
		ref:  newRefCore(cfg, cachesim.NewDefaultHierarchy()),
	}
	l.fast.SetAnalytic(analytic)
	l.ref.analytic = analytic
	l.fast.SetMemo(memo)
	l.fast.SetStepObserver(func(cycles, uops []uint64) {
		l.observed = true
		copy(l.obsCyc[:], cycles)
		copy(l.obsUops[:], uops)
	})
	return l
}

func (l *lockstep) run(what string, tr uop.Trace) {
	l.t.Helper()
	before := l.ref.stats
	l.observed = false
	d1 := l.fast.RunTrace(tr)
	d2 := l.ref.runTrace(tr)
	fast, ref := l.fast, l.ref
	if d1 != d2 || fast.Cycle() != ref.cycle {
		l.t.Fatalf("%s (%d uops): duration fast=%d ref=%d, clock fast=%d ref=%d",
			what, len(tr.Ops), d1, d2, fast.Cycle(), ref.cycle)
	}
	var wantCyc, wantUops, gotCyc, gotUops [uop.NumSteps]uint64
	for s := range wantCyc {
		wantCyc[s] = ref.stats.StepCycles[s] - before.StepCycles[s]
		wantUops[s] = ref.stats.StepUops[s] - before.StepUops[s]
	}
	if l.observed {
		gotCyc, gotUops = l.obsCyc, l.obsUops
	}
	if gotCyc != wantCyc || gotUops != wantUops {
		l.t.Fatalf("%s: step vectors fast=%v/%v ref=%v/%v", what, gotCyc, gotUops, wantCyc, wantUops)
	}
	if fast.Stats != ref.stats {
		l.t.Fatalf("%s: stats diverge:\nfast %+v\nref  %+v", what, fast.Stats, ref.stats)
	}
	if !slices.Equal(fast.mshr, ref.mshr) {
		l.t.Fatalf("%s: line-fill buffers fast=%v ref=%v", what, fast.mshr, ref.mshr)
	}
	for e, r := range ref.entryReady {
		if got := fast.entryReadyAt(e); got != r {
			l.t.Fatalf("%s: entry %d ready fast=%d ref=%d", what, e, got, r)
		}
	}
	for e, got := range fast.entryReady {
		if got != ref.entryReady[int16(e)] {
			l.t.Fatalf("%s: entry %d ready fast=%d ref=%d", what, e, got, ref.entryReady[int16(e)])
		}
	}
}

func (l *lockstep) contextSwitch() {
	l.fast.ContextSwitch()
	l.ref.contextSwitch()
}

func (l *lockstep) advance(cycles uint64, touches []uint64) {
	l.fast.AdvanceApp(cycles, touches)
	l.ref.cycle += cycles
	for _, a := range touches {
		l.ref.mem.Touch(a)
	}
}

// allocStream replays a seeded TCMalloc heap's allocator calls: each step
// is one malloc or free whose trace every given lockstep pair runs, with
// context switches and application phases (advance plus a random cache
// footprint) interleaved, so the persistent state (predictor, caches,
// entry blocking, line-fill buffers) is exercised across call boundaries.
type allocStream struct {
	heap  *tcmalloc.Heap
	tc    *tcmalloc.ThreadCache
	rng   *stats.RNG
	live  []allocObj
	touch []uint64
}

type allocObj struct{ addr, size uint64 }

var streamSizes = []uint64{8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 512, 1024, 4096, 40000}

func newAllocStream(t *testing.T, mallacc bool, seed uint64) *allocStream {
	hCfg := tcmalloc.DefaultConfig()
	hCfg.Seed = seed
	if mallacc {
		hCfg.Mode = tcmalloc.ModeMallacc
		hCfg.MallocCache = core.Config{Entries: 16, IndexMode: true}
	}
	heap := tcmalloc.New(hCfg)
	t.Cleanup(heap.Em.Recycle)
	return &allocStream{heap: heap, tc: heap.NewThread(), rng: stats.NewRNG(seed), touch: make([]uint64, 8)}
}

func (s *allocStream) step(i int, ls ...*lockstep) {
	if i > 0 && i%769 == 0 {
		if s.heap.MC != nil {
			s.heap.MC.Flush()
		}
		for _, l := range ls {
			l.contextSwitch()
		}
	}
	s.heap.Em.Reset()
	if len(s.live) > 0 && (len(s.live) > 512 || s.rng.Bernoulli(0.45)) {
		j := s.rng.Intn(len(s.live))
		o := s.live[j]
		s.live[j] = s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		s.heap.Free(s.tc, o.addr, o.size)
	} else {
		sz := streamSizes[s.rng.Intn(len(streamSizes))]
		s.live = append(s.live, allocObj{s.heap.Malloc(s.tc, sz), sz})
	}
	tr := s.heap.Em.Trace()
	for _, l := range ls {
		l.run(fmt.Sprintf("call %d", i), tr)
	}
	if s.rng.Bernoulli(0.3) {
		n := s.rng.Intn(len(s.touch) + 1)
		for k := 0; k < n; k++ {
			s.touch[k] = (1 << 41) + s.rng.Uint64n(1<<18)*64
		}
		adv := uint64(s.rng.Intn(400))
		for _, l := range ls {
			l.advance(adv, s.touch[:n])
		}
	}
}

// equivCase selects a variant of the seed-1 allocator stream.
type equivCase struct {
	name                     string
	mallacc, limit, analytic bool
	noBlocking, memo         bool
}

func (ec equivCase) config() Config {
	cfg := DefaultConfig()
	if ec.limit {
		cfg.DropSteps[uop.StepSizeClass] = true
		cfg.DropSteps[uop.StepSampling] = true
		cfg.DropSteps[uop.StepPushPop] = true
	}
	cfg.NoPrefetchBlocking = ec.noBlocking
	return cfg
}

// runEquivalence drives seed-1 allocator traces from a real TCMalloc heap
// through the production Core (with a schedule memo when the case asks for
// one) and the map-based reference shim in lockstep, checking every call.
// It returns the production core.
func runEquivalence(t *testing.T, ec equivCase, calls int) *Core {
	t.Helper()
	var memo *Memo
	if ec.memo {
		memo = NewMemo()
	}
	l := newLockstep(t, ec.config(), memo, ec.analytic)
	s := newAllocStream(t, ec.mallacc, 1)
	for i := 0; i < calls; i++ {
		s.step(i, l)
	}
	return l.fast
}

func equivCalls() int {
	if testing.Short() {
		return 800
	}
	return 4000
}

// TestSchedulerMatchesMapReference is the tentpole's correctness guard: the
// reservation-table fast path must be observationally identical to the original
// map-based scheduler on real seed-1 allocator traces in every variant.
func TestSchedulerMatchesMapReference(t *testing.T) {
	cases := []equivCase{
		{name: "baseline"},
		{name: "mallacc", mallacc: true},
		{name: "limit", limit: true},
		{name: "analytic", analytic: true},
		{name: "mallacc_analytic", mallacc: true, analytic: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runEquivalence(t, tc, equivCalls())
		})
	}
}

// TestMemoMatchesReference runs the same seed-1 streams on cores with a
// schedule memo attached: every replayed call must leave exactly the state
// the reference's full schedule does.
func TestMemoMatchesReference(t *testing.T) {
	cases := []equivCase{
		{name: "baseline"},
		{name: "mallacc", mallacc: true},
		{name: "limit", limit: true},
		{name: "mallacc_limit", mallacc: true, limit: true},
		{name: "mallacc_noblocking", mallacc: true, noBlocking: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.memo = true
			fast := runEquivalence(t, tc, equivCalls())
			if st := fast.memo.Stats; st.Hits < st.Misses {
				t.Fatalf("memo served too few calls to test the replay: %+v", st)
			}
		})
	}
}

// randomShortTrace returns a trace of 1 to memoMaxOps ops of every kind,
// with random backward dependencies, step tags, latency overrides, branch
// outcomes and malloc-cache entries, over a hot set of lines (mostly L1
// hits) and a cold region (misses that need line-fill buffers).
func randomShortTrace(rng *stats.RNG) uop.Trace {
	n := 1 + rng.Intn(memoMaxOps)
	ops := make([]uop.UOp, n)
	addr := func() uint64 {
		if rng.Bernoulli(0.8) {
			return (1 << 24) + uint64(rng.Intn(16))*64
		}
		return (1 << 30) + rng.Uint64n(1<<14)*64
	}
	for i := range ops {
		op := &ops[i]
		op.Dep1, op.Dep2, op.MCEntry = uop.NoDep, uop.NoDep, -1
		op.Step = uop.Step(rng.Intn(int(uop.NumSteps)))
		if i > 0 && rng.Bernoulli(0.6) {
			op.Dep1 = uop.Val(rng.Intn(i))
		}
		if i > 0 && rng.Bernoulli(0.3) {
			op.Dep2 = uop.Val(rng.Intn(i))
		}
		switch rng.Intn(9) {
		case 0, 1:
			op.Kind = uop.ALU
			if rng.Bernoulli(0.2) {
				op.LatOverride = uint8(1 + rng.Intn(4))
			}
		case 2:
			op.Kind, op.Addr = uop.Load, addr()
		case 3:
			op.Kind, op.Addr = uop.Store, addr()
		case 4:
			op.Kind, op.Site, op.Taken = uop.Branch, uint32(rng.Intn(8)), rng.Bernoulli(0.7)
		case 5:
			op.Kind, op.MCEntry = uop.McHdPop, int16(rng.Intn(4))
		case 6:
			op.Kind, op.MCEntry = uop.McHdPush, int16(rng.Intn(4))
		case 7:
			op.Kind = uop.McNxtPrefetch
			if rng.Bernoulli(0.8) {
				op.MCEntry = int16(rng.Intn(4))
			}
			if rng.Bernoulli(0.8) {
				op.Addr = addr()
			}
		default:
			op.Kind = []uop.Kind{uop.McSzLookup, uop.McSzUpdate, uop.Nop}[rng.Intn(3)]
		}
	}
	return uop.Trace{Ops: ops}
}

// TestMemoMatchesReferenceFromRandomStates runs a small pool of random
// short traces, each call from a line-fill and entry-ready state set on
// both cores at random: half the time one of a few recurring states
// (relative to the clock), so traces repeat their keys and hit, otherwise
// a fresh one. A key that left out an input the schedule reads would
// replay a schedule computed from another state.
func TestMemoMatchesReferenceFromRandomStates(t *testing.T) {
	cases := []equivCase{
		{name: "default"},
		{name: "noblocking", noBlocking: true},
		{name: "limit", limit: true},
	}
	calls := 20000
	if testing.Short() {
		calls = 4000
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLockstep(t, tc.config(), NewMemo(), false)
			rng := stats.NewRNG(7)
			pool := make([]uop.Trace, 24)
			for k := range pool {
				pool[k] = randomShortTrace(rng)
			}
			// Offsets straddle start+1 (the earliest issue cycle) and
			// reach past typical call lengths.
			offsets := []uint64{0, 1, 2, 3, 6, 25, 90, 300}
			randState := func() []uint64 {
				st := make([]uint64, len(l.fast.mshr)+4)
				for k := range st {
					if rng.Bernoulli(0.5) {
						st[k] = offsets[rng.Intn(len(offsets))]
					}
				}
				return st
			}
			recurring := [][]uint64{randState(), randState(), randState()}
			for i := 0; i < calls; i++ {
				st := recurring[rng.Intn(len(recurring))]
				if rng.Bernoulli(0.5) {
					st = randState()
				}
				now := l.fast.Cycle()
				for k := range l.fast.mshr {
					l.fast.mshr[k] = now + st[k]
					l.ref.mshr[k] = now + st[k]
				}
				for e := range 4 {
					v := now + st[len(l.fast.mshr)+e]
					l.fast.setEntryReady(int16(e), v)
					l.ref.entryReady[int16(e)] = v
				}
				l.run(fmt.Sprintf("call %d", i), pool[rng.Intn(len(pool))])
				if rng.Bernoulli(0.2) {
					l.advance(uint64(rng.Intn(500)), []uint64{(1 << 30) + rng.Uint64n(1<<14)*64})
				}
			}
			if st := l.fast.memo.Stats; st.Hits < uint64(calls)/10 || st.Misses < uint64(calls)/20 {
				t.Fatalf("want both hits and misses in bulk: %+v over %d calls", st, calls)
			}
		})
	}
}

// TestMemoSharedAcrossCores gives two cores with separate hierarchies one
// memo, as a multicore engine does, and interleaves two seed streams on
// them: each core must be served only schedules that are exact for its own
// state.
func TestMemoSharedAcrossCores(t *testing.T) {
	ec := equivCase{mallacc: true}
	memo := NewMemo()
	a := newLockstep(t, ec.config(), memo, false)
	b := newLockstep(t, ec.config(), memo, false)
	sa, sb := newAllocStream(t, true, 1), newAllocStream(t, true, 2)
	for i := 0; i < equivCalls(); i++ {
		sa.step(i, a)
		sb.step(i, b)
	}
	if memo.Stats.Hits == 0 {
		t.Fatal("the shared memo served no call")
	}
}

// TestMemoHandedToAnotherConfig runs a seed-1 stream on a default core
// with a memo, then hands the memo to a core whose Config differs only in
// ways the key does not encode (fetch width, mispredict penalty) and runs
// the same stream: the second core's keys are the first core's, so only
// the Config tag keeps it from replaying the first core's schedules.
func TestMemoHandedToAnotherConfig(t *testing.T) {
	memo := NewMemo()
	a := newLockstep(t, DefaultConfig(), memo, false)
	sa := newAllocStream(t, true, 1)
	for i := 0; i < equivCalls(); i++ {
		sa.step(i, a)
	}
	cfg := DefaultConfig()
	cfg.FetchWidth = 2
	cfg.MispredictPenalty = 20
	b := newLockstep(t, cfg, memo, false)
	sb := newAllocStream(t, true, 1)
	for i := 0; i < equivCalls(); i++ {
		sb.step(i, b)
	}
	if memo.cfg != cfg {
		t.Fatal("memo still tagged with the first core's Config")
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
// long call's counts as live. The core has a schedule memo attached: the
// short calls are memoized (some replayed), yet every call, replayed or
// scheduled, takes one generation, and the wrap itself falls on a
// scheduled call.
func TestSchedulerMatchesReferenceAcrossGenerationWrap(t *testing.T) {
	for _, limit := range []bool{false, true} {
		t.Run(map[bool]string{false: "baseline", true: "limit"}[limit], func(t *testing.T) {
			l := newLockstep(t, equivCase{limit: limit}.config(), NewMemo(), false)
			fast := l.fast
			em := uop.NewEmitter()
			defer em.Recycle()
			run := func(what string, tr uop.Trace) (replayed bool) {
				t.Helper()
				hits := fast.memo.Stats.Hits
				l.run(fmt.Sprintf("%s (generation %d)", what, fast.resGen), tr)
				return fast.memo.Stats.Hits != hits
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
				wraps := fast.resGen == math.MaxUint32
				if run(fmt.Sprintf("post-wrap %d-group call", n), busyTrace(em, n)) && wraps {
					t.Fatal("the generation wrapped on a replayed call")
				}
			}
			if !run("post-wrap short call", warmTrace(em)) {
				t.Fatal("the repeated short call was not replayed")
			}
			if fast.resGen != 5 {
				t.Fatalf("generation %d after the wrap, want 5", fast.resGen)
			}
		})
	}
}
