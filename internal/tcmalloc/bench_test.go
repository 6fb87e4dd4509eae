package tcmalloc_test

import (
	"testing"

	"mallacc/internal/tcmalloc"
)

// benchHeap builds a heap with a warm thread cache for size 64.
func benchHeap(b *testing.B, mode tcmalloc.Mode) (*tcmalloc.Heap, *tcmalloc.ThreadCache) {
	b.Helper()
	cfg := tcmalloc.DefaultConfig()
	cfg.Mode = mode
	cfg.SampleInterval = 0 // never sample: isolate the fast path
	h := tcmalloc.New(cfg)
	tc := h.NewThread()
	var warm []uint64
	for i := 0; i < 64; i++ {
		h.Em.Reset()
		warm = append(warm, h.Malloc(tc, 64))
	}
	for _, a := range warm {
		h.Em.Reset()
		h.Free(tc, a, 64)
	}
	return h, tc
}

// BenchmarkFastAllocFree measures the functional+emission cost of a thread-
// cache-hit malloc/free pair — the allocator side of every simulated call.
func BenchmarkFastAllocFree(b *testing.B) {
	h, tc := benchHeap(b, tcmalloc.ModeBaseline)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Em.Reset()
		a := h.Malloc(tc, 64)
		h.Em.Reset()
		h.Free(tc, a, 64)
	}
}

// BenchmarkFastAllocFreeMallacc does the same with accelerator emission.
func BenchmarkFastAllocFreeMallacc(b *testing.B) {
	h, tc := benchHeap(b, tcmalloc.ModeMallacc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Em.Reset()
		a := h.Malloc(tc, 64)
		h.Em.Reset()
		h.Free(tc, a, 64)
	}
}
