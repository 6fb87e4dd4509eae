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
// full engine lifecycle, the unit simsvc jobs pay. Reuse is on: after the
// first iteration the engine comes from the pool and is rewound rather than
// rebuilt, which is the steady state repeated jobs and sweeps see.
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
			Reuse:        true,
		})
		cycles += res.TotalCycles
	}
	if cycles == 0 {
		b.Fatal("engine simulated zero cycles")
	}
}

func BenchmarkEngine4CoreBaseline(b *testing.B) { benchEngine(b, multicore.Baseline) }

func BenchmarkEngine4CoreMallacc(b *testing.B) { benchEngine(b, multicore.Mallacc) }

// benchEngineParallel measures the barrier-phase scheduler (RemoteFreeProb
// < 0 disables cross-core frees, so cores run on real goroutines and
// synchronize only at epoch boundaries) with engine pooling on. At N host
// cores the wall-clock should approach the serialized time divided by the
// simulated core count; allocs/op measures the rewind path, not
// construction.
func benchEngineParallel(b *testing.B, cores int) {
	w := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res := multicore.Run(multicore.Config{
			Cores:          cores,
			Variant:        multicore.Mallacc,
			Workload:       w,
			CallsPerCore:   500,
			Seed:           1,
			RemoteFreeProb: -1,
			Reuse:          true,
		})
		cycles += res.TotalCycles
	}
	if cycles == 0 {
		b.Fatal("engine simulated zero cycles")
	}
}

func BenchmarkEngineParallel4Core(b *testing.B) { benchEngineParallel(b, 4) }

func BenchmarkEngineParallel8Core(b *testing.B) { benchEngineParallel(b, 8) }

func BenchmarkEngineParallel16Core(b *testing.B) { benchEngineParallel(b, 16) }

// BenchmarkEngineRelay16Core measures the relay scheduler at the design-space
// study's widest cluster: 16 cores on the default config (remote frees on,
// so the relay scheduler runs), where every epoch
// boundary passes the token through all sixteen core goroutines. Reuse is
// off, so each iteration builds a fresh engine, as an uncached designspace
// cell does.
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
