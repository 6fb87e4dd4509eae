package cachesim

import (
	"math/rand/v2"
	"testing"
)

// Each benchmark has a ...Reference twin that runs the identical body
// against the frozen stamped model in reference_test.go, so scripts/bench.sh
// can gate on a speedup measured in the same run.

// loader is the surface the hierarchy benchmarks drive.
type loader interface{ Load(addr uint64) uint64 }

// prober is the surface the single-cache benchmark drives.
type prober interface {
	Lookup(addr uint64) bool
	Insert(addr uint64) (uint64, bool)
}

// BenchmarkHierarchyLoadL1Hit measures the all-hits lookup path (the common
// case for warm fast-path traces).
func BenchmarkHierarchyLoadL1Hit(b *testing.B) {
	benchLoadL1Hit(b, NewDefaultHierarchy())
}

func BenchmarkHierarchyLoadL1HitReference(b *testing.B) {
	benchLoadL1Hit(b, newRefHierarchy(DefaultHierarchyConfig()))
}

func benchLoadL1Hit(b *testing.B, h loader) {
	for i := 0; i < 64; i++ {
		h.Load(uint64(i) * 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(uint64(i&63) * 64)
	}
}

// BenchmarkHierarchyLoadStream measures a streaming miss pattern that fills
// through all three levels and the TLB.
func BenchmarkHierarchyLoadStream(b *testing.B) {
	benchLoadStream(b, NewDefaultHierarchy())
}

func BenchmarkHierarchyLoadStreamReference(b *testing.B) {
	benchLoadStream(b, newRefHierarchy(DefaultHierarchyConfig()))
}

func benchLoadStream(b *testing.B, h loader) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(uint64(i) * 64)
	}
}

// BenchmarkHierarchyTouchRandom measures the application-footprint touches
// a driver's Work issues between allocator calls: uniformly random lines of
// an 8 MiB footprint starting at 2^40. The footprint fits the L3 exactly,
// so in steady state a touch misses the dTLB, L1D and L2 and hits L3.
func BenchmarkHierarchyTouchRandom(b *testing.B) {
	benchTouchRandom(b, NewDefaultHierarchy())
}

func BenchmarkHierarchyTouchRandomReference(b *testing.B) {
	benchTouchRandom(b, newRefHierarchy(DefaultHierarchyConfig()))
}

func benchTouchRandom(b *testing.B, h loader) {
	const footLines = 8 << 20 >> 6
	rng := rand.New(rand.NewPCG(1, 2))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = 1<<40 + rng.Uint64N(footLines)<<6
	}
	for _, a := range addrs {
		h.Load(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(addrs[i&(len(addrs)-1)])
	}
}

// BenchmarkCacheLookupHit measures a single level's associative probe.
func BenchmarkCacheLookupHit(b *testing.B) {
	benchLookupHit(b, New(DefaultHierarchyConfig().L1D))
}

func BenchmarkCacheLookupHitReference(b *testing.B) {
	benchLookupHit(b, newRefCache(DefaultHierarchyConfig().L1D))
}

func benchLookupHit(b *testing.B, c prober) {
	for i := 0; i < 8; i++ {
		c.Insert(uint64(i) * 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i&7) * 64)
	}
}
