package multicore_test

import (
	"testing"

	"mallacc/internal/multicore"
	"mallacc/internal/workload"
)

func benchWorkload(b *testing.B) workload.Workload {
	b.Helper()
	w, ok := workload.ByName("ubench.tp_small")
	if !ok {
		b.Fatal("workload ubench.tp_small missing")
	}
	return w
}

// benchEngine runs a small 4-core shard to completion; one iteration is one
// full engine lifecycle — build the heap over pooled storage, take cores
// from the core pool, run, collect, release — the unit an uncached simsvc
// cluster job pays.
func benchEngine(b *testing.B, v multicore.Variant) {
	w := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res := multicore.Run(multicore.Config{
			Cores:        4,
			Variant:      v,
			Workload:     w,
			CallsPerCore: 500,
			Seed:         1,
		})
		cycles += res.TotalCycles
	}
	if cycles == 0 {
		b.Fatal("engine simulated zero cycles")
	}
}

func BenchmarkEngine4CoreBaseline(b *testing.B) { benchEngine(b, multicore.Baseline) }

func BenchmarkEngine4CoreMallacc(b *testing.B) { benchEngine(b, multicore.Mallacc) }

// BenchmarkEngineRelay16Core measures the relay scheduler at the design-space
// study's widest cluster: 16 cores on the default config, where every
// epoch boundary passes the token through all sixteen core coroutines. Each
// iteration builds a new engine over pooled cores, as an uncached
// designspace cell does.
func BenchmarkEngineRelay16Core(b *testing.B) {
	w, ok := workload.ByName("xapian.abstracts")
	if !ok {
		b.Fatal("workload xapian.abstracts missing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res := multicore.Run(multicore.Config{
			Cores:        16,
			Workload:     w,
			CallsPerCore: 500,
			Seed:         1,
		})
		cycles += res.TotalCycles
	}
	if cycles == 0 {
		b.Fatal("engine simulated zero cycles")
	}
}
