package cpu

import (
	"testing"

	"mallacc/internal/cachesim"
	"mallacc/internal/uop"
)

// Each RunTrace benchmark has a ...Reference twin that runs the identical
// body through the frozen map-based scheduler in reference_test.go, so
// scripts/bench.sh can gate on a speedup measured in the same run.

// fastPathTrace builds a malloc-fast-path-shaped trace: a short ALU address
// computation, the sampling check, the free-list pop chain (two dependent
// loads and a store), and a couple of well-predicted branches. Around 40
// micro-ops, like the paper's Figure 3 fast path.
func fastPathTrace(addrBase uint64) uop.Trace {
	e := uop.NewEmitter()
	e.Reset()
	e.Step(uop.StepCallOverhead)
	v := e.ALUChain(4, uop.NoDep)
	e.Step(uop.StepSizeClass)
	v = e.ALUChain(6, v)
	e.Branch(1, true, v)
	e.Step(uop.StepSampling)
	s := e.Load(addrBase, uop.NoDep)
	s = e.ALU(s, uop.NoDep)
	e.Branch(2, false, s)
	e.Step(uop.StepPushPop)
	h := e.Load(addrBase+64, v)
	n := e.Load(addrBase+128, h)
	e.Store(addrBase+64, n, h)
	e.Branch(3, true, n)
	e.Step(uop.StepOther)
	v = e.ALUChain(8, n)
	for i := 0; i < 3; i++ {
		v = e.ALU(v, uop.NoDep)
		e.Store(addrBase+192+uint64(i)*8, v, uop.NoDep)
	}
	e.ALUChain(6, v)
	ops := make([]uop.UOp, e.Len())
	copy(ops, e.Trace().Ops)
	return uop.Trace{Ops: ops}
}

// newBenchCore and newBenchRefCore return the RunTrace of a fresh
// production core and of a fresh reference core, each over a default
// hierarchy.
func newBenchCore() func(uop.Trace) uint64 {
	return New(DefaultConfig(), cachesim.NewDefaultHierarchy()).RunTrace
}

func newBenchRefCore() func(uop.Trace) uint64 {
	return newRefCore(DefaultConfig(), cachesim.NewDefaultHierarchy()).runTrace
}

// BenchmarkRunTraceFastPath is the core per-cycle microbenchmark: steady-
// state replay of a warm ~40-uop fast-path trace. This is the number the
// perf baseline (BENCH_baseline.json) gates on, against its twin.
func BenchmarkRunTraceFastPath(b *testing.B) { benchFastPath(b, newBenchCore()) }

func BenchmarkRunTraceFastPathReference(b *testing.B) { benchFastPath(b, newBenchRefCore()) }

// BenchmarkRunTraceFastPathMemo replays the same warm trace on a core with
// a schedule memo attached: after warmup every call is a memo hit, so it
// times pass 1 plus the replay. scripts/bench.sh's memo_gate divides
// BenchmarkRunTraceFastPath, the same core without a memo, by it.
func BenchmarkRunTraceFastPathMemo(b *testing.B) {
	c := New(DefaultConfig(), cachesim.NewDefaultHierarchy())
	c.SetMemo(NewMemo())
	benchFastPath(b, c.RunTrace)
	if c.memo.Stats.Hits == 0 {
		b.Fatal("no call was a memo hit")
	}
}

func benchFastPath(b *testing.B, run func(uop.Trace) uint64) {
	tr := fastPathTrace(1 << 20)
	// Warm caches and predictor.
	for i := 0; i < 64; i++ {
		run(tr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(tr)
	}
	b.ReportMetric(float64(len(tr.Ops)), "uops/call")
}

// BenchmarkRunTraceColdMisses replays a trace whose loads stream through
// memory, exercising the MSHR and line-fill paths.
func BenchmarkRunTraceColdMisses(b *testing.B) { benchColdMisses(b, newBenchCore()) }

func BenchmarkRunTraceColdMissesReference(b *testing.B) { benchColdMisses(b, newBenchRefCore()) }

func benchColdMisses(b *testing.B, run func(uop.Trace) uint64) {
	e := uop.NewEmitter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		base := uint64(1<<30) + uint64(i)*8192
		var v uop.Val = uop.NoDep
		for j := 0; j < 16; j++ {
			v = e.Load(base+uint64(j)*256, v)
		}
		e.ALUChain(4, v)
		run(e.Trace())
	}
}

// BenchmarkRunTraceMallacc exercises the accelerator ops including the
// entry-blocking prefetch path.
func BenchmarkRunTraceMallacc(b *testing.B) { benchMallacc(b, newBenchCore()) }

func BenchmarkRunTraceMallaccReference(b *testing.B) { benchMallacc(b, newBenchRefCore()) }

func benchMallacc(b *testing.B, run func(uop.Trace) uint64) {
	e := uop.NewEmitter()
	e.Reset()
	e.Step(uop.StepSizeClass)
	lk := e.Mallacc(uop.McSzLookup, 3, true, 0, uop.NoDep, 0)
	e.Branch(5, false, lk)
	e.Step(uop.StepPushPop)
	p := e.Mallacc(uop.McHdPop, 3, true, 0, lk, 0)
	e.Branch(6, false, p)
	e.Mallacc(uop.McNxtPrefetch, 3, true, 1<<21, p, 0)
	e.Step(uop.StepOther)
	e.ALUChain(6, p)
	ops := make([]uop.UOp, e.Len())
	copy(ops, e.Trace().Ops)
	tr := uop.Trace{Ops: ops}
	for i := 0; i < 64; i++ {
		run(tr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(tr)
	}
}

// BenchmarkBranchPredictor measures the predictor table in isolation.
func BenchmarkBranchPredictor(b *testing.B) {
	bp := NewBranchPredictor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.PredictAndUpdate(uint32(i)&31, i&3 != 0)
	}
}
